"""Plain reduced (co)homology is group (co)homology of the brace group.

Written in the partial sums p_i = x_1 + ... + x_i, a reduced chain
(x_1, ..., x_(k-1); x_k) is a homogeneous bar chain (0, p_1, ..., p_(k-1))
of G = (A, o) with coefficient x_k, and each face of the reduced
boundary is the matching bar face: checked here on compiled index maps,
sign for sign, with two mutants that must break it.  So the reduced
groups are read off a small free resolution of Z/q over (Z/q)[G]
(`reduced.reduced_cohomology`), and they must equal the tuple route of
`reduced._reduced_system` on every small cycle set, ext8, trivial(6)
and an order-6 cycle set whose group S3 is no p-group: cohomology read
by rows, and homology read by columns (`homology_oracle`).  Building the
resolution over (A, +), or with G acting trivially on Hom(A, Gamma),
must make the routes disagree.  Over a p-group the resolution is
minimal, which greedy kernel generators alone are not.

The resolution is also certified exact, without asking how it was
built, on dense matrices over F_p.  Let C be a complex of free
Z/q-modules of finite rank, q = p^e, with d d = 0.  Multiplication by
p^j maps C / pC onto p^j C / p^(j+1) C, and it is one-to-one because C
is free, so each layer p^j C / p^(j+1) C is C (x) F_p as a complex.  If
C (x) F_p is exact at P_i, so is each layer, and the long exact
sequence of 0 -> p^(j+1) C -> p^j C -> p^j C / p^(j+1) C -> 0 gives,
from j = e - 1 down to j = 0, that p^j C is exact at P_i; at j = 0 that
is C.  Over F_p, with d d = 0, exactness at P_i is rank d_i + rank
d_(i+1) = dim P_i = r_i n, the augmentation being d_0.
"""

import itertools

import pytest
from ext8 import EXT8
from homology_oracle import homology

from lcscohom.abelian import merge_invariants, parse_group_spec
from lcscohom.corpus import builtin_structure, enumerate_lcs
from lcscohom.errors import LatticeError
from lcscohom.extensions import classify_extensions
from lcscohom.linalg import _prime_powers
from lcscohom.reduced import (
    _compose,
    _drop_map,
    _horizontal_faces,
    _index_maps,
    _invariants,
    _over_factors,
    _reduced_system,
    _resolved_system,
    reduced_cohomology,
    reduced_homology,
    tuple_index,
)
from lcscohom.resolution import _resolution
from lcscohom.structures import LinearCycleSet, lcs_to_brace

# Z/6 with a . b = (-1)^a b: its brace group a o b = a + (-1)^a b is S3
S3LCS = LinearCycleSet(
    6,
    [[(a + b) % 6 for b in range(6)] for a in range(6)],
    [[(-b if a % 2 else b) % 6 for b in range(6)] for a in range(6)],
)
SMALL = [(f"o{n}-{i}", s) for n in (1, 2, 3, 4) for i, s in enumerate(enumerate_lcs(n))]
STRUCTURES = SMALL + [
    ("ext8", EXT8),
    ("trivial(6)", builtin_structure("trivial(6)")),
    ("s3", S3LCS),
]
COEFFS = ("Z/2", "Z/3", "Z/4", "Z/8", "Z/2+Z/2", "Z/6")
THEORIES = {
    "cohomology": (reduced_cohomology, _invariants),
    "homology": (reduced_homology, homology),
}


def inverses(table):
    unit = next(a for a in range(len(table)) if table[a][a] == a)
    return [row.index(unit) for row in table]


def bar_faces(structure, k: int, merge, act: bool):
    """The homogeneous bar faces on (p_1, ..., p_(k-1); a), as compiled
    (sign, index map) pairs: face 0 drops p_0 = 0 and translates by
    p_1^-1, acting on a by sigma_(p_1) when `act`; face i drops p_i."""
    n, dot = structure.order, structure.dot
    inverse = inverses(merge)
    first = []
    for head, *rest, a in itertools.product(range(n), repeat=k):
        moved = [merge[inverse[head]][x] for x in rest]
        first.append(tuple_index(moved + [dot[head][a] if act else a], n))
    return [(1, first)] + [((-1) ** i, _drop_map(n, k, i - 1)) for i in range(1, k)]


def partial_sums(structure, k: int) -> list:
    """The permutation (x_1, ..., x_(k-1); x_k) -> (p_1, ..., p_(k-1); x_k)
    of the k-tuples, as an index map."""
    n, add = structure.order, structure.add
    out = []
    for *xs, a in itertools.product(range(n), repeat=k):
        sums = list(itertools.accumulate(xs, lambda p, x: add[p][x]))
        out.append(tuple_index(sums + [a], n))
    return out


def carried(structure, k: int, merge, act: bool) -> bool:
    """Whether the partial sums carry each reduced face on k-tuples to the
    matching bar face, with the same sign."""
    reduced = _index_maps(_horizontal_faces(structure, k - 1), structure.order, k)
    left = _compose([(1, partial_sums(structure, k - 1))], reduced)
    right = _compose(bar_faces(structure, k, merge, act), [(1, partial_sums(structure, k))])
    return left == right


CHAIN_CASES = [(name, s, k) for name, s in SMALL + [("ext8", EXT8)] for k in (2, 3, 4)]


def test_partial_sums_carry_the_reduced_faces_to_the_bar_faces():
    for name, s, k in CHAIN_CASES:
        assert carried(s, k, lcs_to_brace(s).circle, True), (name, k)
    # merging by + or leaving sigma off the last coordinate breaks it
    assert not all(carried(s, k, s.add, True) for _name, s, k in CHAIN_CASES)
    assert not all(carried(s, k, lcs_to_brace(s).circle, False) for _name, s, k in CHAIN_CASES)


def tuple_route(structure, coeffs, k: int, theory):
    over = _reduced_system(structure, k)
    return _over_factors(coeffs, lambda m: theory(over(m)[0], m))


def resolved_route(structure, coeffs, k: int, theory, mul, dot):
    """The resolved route, written afresh on the tables given."""

    def over(m):
        parts = []
        for p, e in _prime_powers(m):
            system = _resolved_system(mul, dot, structure.add, k, p**e)[0]
            parts.append(theory(system, p**e))
        return merge_invariants(*parts)

    return _over_factors(coeffs, over)


CASES = [
    (name, s, spec, k, theory)
    for name, s in STRUCTURES
    for spec in COEFFS
    for k in (1, 2, 3)
    for theory in THEORIES
]


@pytest.mark.parametrize("theory", sorted(THEORIES))
def test_the_resolution_matches_the_tuple_route(theory):
    function, on_system = THEORIES[theory]
    for name, s, spec, k, _theory in CASES:
        coeffs = parse_group_spec(spec)
        got = function(s, coeffs, k)
        assert got == tuple_route(s, coeffs, k, on_system), (name, spec, k)


def test_trivial_one_has_no_generators():
    t1 = builtin_structure("trivial(1)")
    for function, _on_system in THEORIES.values():
        assert [function(t1, parse_group_spec("Z/6"), k) for k in (1, 2, 3)] == [[], [], []]


def disagreements(mutate) -> int:
    """Cases where the resolved route on mutated tables leaves the tuple
    route, or fails to be a complex; the unmutated tables never do."""
    count = 0
    for name, s, spec, k, theory in CASES:
        if s.order > 4:
            continue
        coeffs, on_system = parse_group_spec(spec), THEORIES[theory][1]
        expected = tuple_route(s, coeffs, k, on_system)
        circle = lcs_to_brace(s).circle
        assert resolved_route(s, coeffs, k, on_system, circle, s.dot) == expected, name
        try:
            count += resolved_route(s, coeffs, k, on_system, *mutate(s, circle)) != expected
        except LatticeError:  # the boundary of a boundary is not zero
            count += 1
    return count


def test_the_group_and_its_action_are_needed():
    # (A, +) in place of (A, o), and G acting trivially on Hom(A, Gamma)
    assert disagreements(lambda s, circle: (s.add, s.dot)) > 0
    assert disagreements(lambda s, circle: (circle, [list(range(s.order))] * s.order)) > 0


@pytest.fixture(scope="module")
def o16():
    """The last cycle-type class total of ext8 over Z/2."""
    return classify_extensions(EXT8, parse_group_spec("Z/2"), "cycle-type")[-1].triple.total


@pytest.mark.parametrize("q", [2, 4, 8])
def test_the_resolution_of_a_two_group_is_minimal(q, o16):
    # r_i = dim H^i(G; F_2): i + 1 for the brace groups of z4-lcs and ext8,
    # which have two generators, and 1, 2, 4, 6 for that of o16, where
    # kernel generators added greedily alone take 7 in degree 3
    cases = ((builtin_structure("z4-lcs"), [1, 2, 3, 4]), (EXT8, [1, 2, 3, 4]), (o16, [1, 2, 4, 6]))
    for s, ranks in cases:
        d = _resolution(lcs_to_brace(s).circle, q, 3)
        assert [1] + [len(images) for images in d] == ranks


def dense_columns(mul, images, size: int) -> list:
    """The columns of a G-map from a free module, over the Z/q-basis g e_l
    of each side: column l * n + h is h . image_l, a list of `size`
    entries."""
    n = len(mul)
    out = []
    for image in images:
        for h in range(n):
            column = [0] * size
            for x, c in image.items():
                column[x - x % n + mul[h][x % n]] += c
            out.append(column)
    return out


def dense_rank(columns, p: int) -> int:
    """The rank over F_p of a dense matrix given by its columns."""
    basis = {}  # leading position -> reduced column, 1 at its lead
    for column in columns:
        v = [x % p for x in column]
        for lead in sorted(basis):
            if v[lead]:
                c = v[lead]
                v = [(a - c * b) % p for a, b in zip(v, basis[lead])]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is not None:
            inverse = pow(v[lead], -1, p)
            basis[lead] = [x * inverse % p for x in v]
    return len(basis)


def exact(mul, d, q: int) -> bool:
    """Whether Z/q <- P_0 <- P_1 <- ... <- P_len(d), with the differentials
    d, is a complex over Z/q and is exact over F_p at P_0, ..., P_(len(d) -
    1), and so over Z/q (the module docstring)."""
    ((p, _e),) = _prime_powers(q)
    n = len(mul)
    matrices, sizes = [[[1]] * n], [1, n]  # the augmentation g -> 1
    for images in d:
        matrices.append(dense_columns(mul, images, sizes[-1]))
        sizes.append(len(images) * n)
    for lower, upper in zip(matrices, matrices[1:]):
        for column in upper:
            image = [0] * len(lower[0])
            for x, c in enumerate(column):
                for y, entry in enumerate(lower[x] if c else ()):
                    image[y] += c * entry
            if any(entry % q for entry in image):
                return False
    ranks = [dense_rank(matrix, p) for matrix in matrices]
    return all(ranks[i] + ranks[i + 1] == sizes[i + 1] for i in range(len(d)))


@pytest.mark.parametrize("q", [2, 4, 3, 9])
def test_the_resolution_is_exact(q, o16):
    for name, s, length in (
        ("z4-lcs", builtin_structure("z4-lcs"), 5),
        ("ext8", EXT8, 5),
        ("o16", o16, 4),
        ("s3", S3LCS, 5),
    ):
        mul = lcs_to_brace(s).circle
        d = _resolution(mul, q, length)
        assert exact(mul, d, q), (name, q)
        # without its last generator, d_1 no longer reaches the kernel of
        # the augmentation; and the differentials of (A, o) are no complex
        # over (A, +)
        assert not exact(mul, (d[0][:-1],), q), (name, q)
        assert not exact(s.add, d, q), (name, q)
