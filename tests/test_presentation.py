"""Presentation coordinates of the reduced complex.

`reduced._presentation` must present (A, +) exactly: its normal forms
are a bijection onto the box of relative orders and add like the
elements they stand for, once sums are carried through the power
relations.  Reduced cohomology and homology computed on the values at
generators must then agree with the linearity-block route of
`linearity_oracle` on every small cycle set, and a perturbed
presentation must make them disagree.  Membership modulo linearity,
decided on normal forms, must agree with the oracle's integer span of
the linearity rows.
"""

import functools
import itertools

import linearity_oracle as oracle
import pytest
from compile_caches import clear_compile_caches
from ext8 import EXT8, EXT8_RELABELED, relabeled
from hypothesis import given, settings
from hypothesis import strategies as st

import lcscohom.reduced as reduced
from lcscohom.abelian import FiniteAbelianGroup, parse_group_spec
from lcscohom.corpus import enumerate_lcs, trivial_lcs
from lcscohom.errors import LatticeError
from lcscohom.reduced import _presentation, reduced_cohomology, reduced_homology

# (name, structure, degrees).  Index-ordered tables give every generator
# a power relation without right side; ext8 with 1 and 5 swapped picks
# s_0 = 1 and then s_1 = 3, whose double is 2 s_0.
STRUCTURES = [
    (f"o{n}-{i}", s, (1, 2, 3)) for n in (1, 2, 3, 4) for i, s in enumerate(enumerate_lcs(n))
]
STRUCTURES.append(("ext8", EXT8, (1, 2, 3)))
STRUCTURES.append(("ext8-relabeled", EXT8_RELABELED, (1, 2)))
COEFFS = [parse_group_spec(spec) for spec in ("Z/6", "Z/8", "Z/9", "Z/2+Z/4")]
ROUTES = [
    (reduced_cohomology, oracle.reduced_cohomology),
    (reduced_homology, oracle.reduced_homology),
]


def carried(c, orders, powers):
    """The normal form of a coefficient vector, carrying o_j s_j into
    sum of r_ji s_i from the last generator down."""
    c = list(c)
    for j in reversed(range(len(orders))):
        q, c[j] = divmod(c[j], orders[j])
        for i, x in enumerate(powers[j]):
            c[i] += q * x
    return tuple(c)


def unpacked(add):
    """(gens, orders, powers, coords) of `_presentation`: the relative
    orders o_j, the right sides r_ji of the power relations as tuples over
    i < j, and every normal form as a full coefficient tuple."""
    gens, relations, forms, layers = _presentation(add)
    r = len(gens)
    for j, rel in enumerate(relations):  # o_j s_j on earlier generators
        assert rel[j] > 1 and all(i < j and c for i, c in rel.items() if i != j)
    assert layers == reduced._layers(forms)
    orders = tuple(rel[j] for j, rel in enumerate(relations))
    powers = tuple(tuple(-rel.get(i, 0) for i in range(j)) for j, rel in enumerate(relations))
    coords = []
    for form in forms:
        assert all(c for _i, c in form) and [i for i, _c in form] == sorted(dict(form))
        coords.append(tuple(dict(form).get(i, 0) for i in range(r)))
    return gens, orders, powers, tuple(coords)


def check_presentation(add):
    n = len(add)
    gens, orders, powers, coords = unpacked(add)
    r = len(gens)
    assert [len(p) for p in powers] == list(range(r))
    assert sorted(coords) == list(itertools.product(*map(range, orders)))
    for a, b in itertools.product(range(n), repeat=2):
        total = [x + y for x, y in zip(coords[a], coords[b])]
        assert carried(total, orders, powers) == coords[add[a][b]], (a, b)
    zero = next(a for a in range(n) if add[a][a] == a)
    orders_of = []
    for a in range(n):
        x, order = a, 1
        while x != zero:
            x, order = add[x][a], order + 1
        orders_of.append(order)
    if n in orders_of:  # cyclic: one generator, none for the trivial group
        assert r == (1 if n > 1 else 0)
    else:
        assert r >= 2


@st.composite
def groups(draw):
    """The addition table of a random group of order <= 64, relabeled."""
    factors, order = [], 1
    while order <= 32 and draw(st.booleans()):
        m = draw(st.integers(2, 64 // order))
        factors.append(m)
        order *= m
    s = trivial_lcs(FiniteAbelianGroup(factors))
    return relabeled(s, draw(st.permutations(range(s.order)))).add


@settings(max_examples=60, deadline=None)
@given(groups())
def test_presentation_of_random_groups(add):
    check_presentation(add)


def test_presentation_of_every_small_cycle_set():
    for _name, s, _degrees in STRUCTURES:
        check_presentation(s.add)
    assert _presentation(EXT8.add)[1] == ({0: 4}, {1: 2})
    assert _presentation(STRUCTURES[-1][1].add)[1] == ({0: 4}, {1: 2, 0: -2})


def cases(structures):
    for _name, s, degrees in structures:
        for coeffs, k, normalized in itertools.product(COEFFS, degrees, (False, True)):
            yield s, coeffs, k, normalized


@pytest.mark.parametrize("case", STRUCTURES, ids=[name for name, _s, _d in STRUCTURES])
def test_generator_values_match_the_linearity_block(case):
    for s, coeffs, k, normalized in cases([case]):
        for route, reference in ROUTES:
            got = route(s, coeffs, k, normalized)
            assert got == reference(s, coeffs, k, normalized), (route.__name__, coeffs, k)


def _perturbed(kind):
    """`_presentation` with one relation of the last generator s_j
    changed: removed ("drop"), o_j doubled ("double"), or its right side
    sum of r_ji s_i removed ("powers")."""
    original = _presentation

    def presentation(add):
        gens, relations, forms, layers = original(add)
        if gens:
            j = len(gens) - 1
            last = {j: relations[j][j]}  # without its right side
            if kind == "drop":
                last = {j: 0}
            if kind == "double":
                last = {**relations[j], j: 2 * relations[j][j]}
            relations = relations[:j] + (last,)
        return gens, relations, forms, layers

    return presentation


def disagrees(route, reference, case) -> bool:
    try:
        return route(*case) != reference(*case)
    except LatticeError:  # the coboundaries are not all cocycles
        return True


@pytest.mark.parametrize("kind", ["drop", "double", "powers"])
def test_a_perturbed_presentation_is_refused(monkeypatch, request, kind):
    # the systems are written once per process: write them over the
    # perturbed presentation, and keep none of them past this test
    clear_compile_caches()
    request.addfinalizer(clear_compile_caches)
    monkeypatch.setattr(reduced, "_presentation", _perturbed(kind))
    # the relabeled ext8 first: only its power relation has a right side
    for route, reference in ROUTES:
        assert any(disagrees(route, reference, case) for case in cases(STRUCTURES[::-1])), route


@functools.cache
def linearity(index: int, k: int):
    """The oracle's relation rows among the k-tuples of STRUCTURES[index],
    and their integer span."""
    s = STRUCTURES[index][1]
    n = s.order
    maps = reduced._index_maps(oracle.linearity_faces(s, k), n, k + 1)
    rows = [reduced._apply(maps, {x: 1}) for x in range(n ** (k + 1))]
    return rows, oracle.linearity_span(s, k)


@st.composite
def chains(draw):
    """A corpus structure, a degree k and a chain on its k-tuples: an
    integer combination of linearity relations plus up to two stray terms."""
    index = draw(st.integers(0, len(STRUCTURES) - 1))
    n = STRUCTURES[index][1].order
    k = draw(st.integers(1, 3 if n <= 4 else 2))
    rows, _span = linearity(index, k)
    chain = {}
    terms = [(draw(st.sampled_from(rows)), draw(st.integers(-3, 3))) for _ in range(4)]
    stray = draw(st.lists(st.tuples(st.integers(0, n**k - 1), st.integers(-3, 3)), max_size=2))
    terms += [({x: 1}, c) for x, c in stray]
    for row, c in terms:
        for x, y in row.items():
            chain[x] = chain.get(x, 0) + c * y
    return index, k, chain


def test_membership_matches_the_linearity_span():
    verdicts = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(chains())
    def check(case):
        index, k, chain = case
        s = STRUCTURES[index][1]
        verdict = reduced._in_linearity_lattice(s.add, chain)
        assert verdict == linearity(index, k)[1].contains(chain), (STRUCTURES[index][0], k)
        verdicts.add(verdict)

    check()
    assert verdicts == {True, False}
