"""Harrison coordinates of the full theory.

`bicomplex._harrison` must present the shuffle quotient K_j over Z/m:
every tuple minus its normal form, and every relation, lie in the span
of the shuffle sums, and every shuffle sum vanishes once read in normal
forms modulo the relations.  Full cohomology solved for on the
generators must then agree with the every-tuple route of
`full_route_oracle`, which writes the shuffle sums as columns, on every
small cycle set, on ext8 and where the quotient has torsion; and a
presentation with one relation dropped or one normal-form coefficient
moved must make them disagree.  The targets of the top block span the
quotient there.  The budgets refuse a system before any shuffle sum is
built.  Normalization leaves the groups over Z/2 below degree 4 and the
reduced groups alone, and splits the full groups at degree 4.
"""

import itertools

import full_route_oracle as oracle
import pytest
from compile_caches import clear_compile_caches
from ext8 import EXT8

import lcscohom.bicomplex as bicomplex
from lcscohom.abelian import parse_group_spec
from lcscohom.bicomplex import _harrison, _shuffle_sums, full_cohomology
from lcscohom.corpus import builtin_structure, enumerate_lcs
from lcscohom.errors import BudgetError, LatticeError
from lcscohom.linalg import _IntegerSpan
from lcscohom.reduced import reduced_cohomology

STRUCTURES = [
    (f"o{n}-{i}", s) for n in (1, 2, 3, 4) for i, s in enumerate(enumerate_lcs(n))
] + [("ext8", EXT8)]
COEFFS = ("Z/2", "Z/3", "Z/4", "Z/8", "Z/2+Z/2")
Z4LCS = builtin_structure("z4-lcs")
# where K_4 has torsion over Z/4 and Z/8, so relations enter the system
TORSION = [
    (s, spec, degree) for s in enumerate_lcs(2) for spec in ("Z/4", "Z/8") for degree in (4, 5)
]
TORSION.append((Z4LCS, "Z/4", 4))


def agree(structure, spec, degree, normalized):
    coeffs = parse_group_spec(spec)
    got = full_cohomology(structure, coeffs, degree, normalized)
    return got == oracle.full_cohomology(structure, coeffs, degree, normalized)


@pytest.mark.parametrize("name, structure", STRUCTURES, ids=[name for name, _s in STRUCTURES])
def test_full_cohomology_matches_the_every_tuple_route(name, structure):
    for spec, degree, normalized in itertools.product(COEFFS, (1, 2, 3), (False, True)):
        assert agree(structure, spec, degree, normalized), (name, spec, degree, normalized)


@pytest.mark.parametrize("structure, spec, degree", TORSION)
def test_torsion_of_the_shuffle_quotient_matches(structure, spec, degree):
    m = parse_group_spec(spec).factors[0]
    assert _harrison(structure.order, 4, m)[1], "K_4 has no relation here"
    for normalized in (False, True):
        assert agree(structure, spec, degree, normalized), normalized


@pytest.mark.parametrize(
    "n, j, m", [(2, 2, 2), (2, 4, 4), (2, 4, 8), (3, 3, 6), (4, 3, 4), (4, 4, 12)]
)
def test_harrison_presents_the_shuffle_quotient(n, j, m):
    gens, relations, forms, _layers = _harrison(n, j, m)
    sums = [s for r in range(1, j) for s in _shuffle_sums(n, 0, j, r)]
    span = _IntegerSpan(sums, m)  # the shuffle sums, on tuples
    chain = lambda vec: {gens[g]: c for g, c in vec.items()}  # noqa: E731
    for t, form in enumerate(forms):
        difference = {t: 1}
        for g, c in form:
            difference[gens[g]] = difference.get(gens[g], 0) - c
        assert span.reduce(difference) == {}, t
    for relation in relations:
        assert span.reduce(chain(relation)) == {}, relation
    # and no more: each shuffle sum, in normal forms, is a sum of relations
    quotient = _IntegerSpan(relations, m)
    for s in sums:
        read = {}
        for t, c in s.items():
            for g, x in forms[t]:
                read[g] = read.get(g, 0) + c * x
        assert quotient.reduce(read) == {}, s


@pytest.mark.parametrize("n, j, m", [(2, 2, 2), (2, 4, 4), (3, 3, 3), (4, 3, 2), (4, 4, 4)])
def test_spanning_targets_span_the_shuffle_quotient(n, j, m):
    # the top block's targets, read in normal forms, and the relations
    # span every generator of K_j, so the conditions there suffice
    gens, relations, forms, _layers = _harrison(n, j, m)
    targets = bicomplex._spanning(n, j)[0]
    assert len(targets) < n**j
    span = _IntegerSpan([dict(forms[t]) for t in targets] + list(relations), m)
    assert all(span.reduce({g: 1}) == {} for g in range(len(gens)))
    # without the tuples whose first two entries agree, they do not
    fewer = [t for t in targets if t // n ** (j - 1) != t // n ** (j - 2) % n]
    span = _IntegerSpan([dict(forms[t]) for t in fewer] + list(relations), m)
    assert not all(span.reduce({g: 1}) == {} for g in range(len(gens)))


def test_generator_counts():
    # pairs up to order; then the counts of the shuffle quotient of words
    # over four letters, which has torsion at 3 over Z/3 and at 2 over Z/4
    assert len(_harrison(2, 2, 2)[0]) == 3
    assert [len(_harrison(4, j, 2)[0]) for j in (2, 3, 4, 5)] == [10, 20, 70, 204]
    assert len(_harrison(4, 4, 3)[0]) == 60
    assert len(_harrison(4, 4, 4)[1]) == 10


@pytest.mark.parametrize("mutation", ["drop a relation", "move a coefficient"])
def test_a_broken_presentation_is_refused(monkeypatch, request, mutation):
    # the systems are written once per process: write them over the broken
    # presentation, and keep none of them past this test
    clear_compile_caches()
    request.addfinalizer(clear_compile_caches)
    original = bicomplex._harrison

    def broken(n, j, m):
        gens, relations, forms, _layers = original(n, j, m)
        if mutation == "drop a relation":
            relations = relations[1:]
        else:
            # the first tuple written in other generators reads one more of
            # its first generator
            forms = list(forms)
            t = next((t for t, form in enumerate(forms) if form and t not in gens), None)
            if t is not None:
                (g, c), *rest = forms[t]
                forms[t] = [(g, c + 1), *rest]
        return gens, relations, forms, bicomplex._layers(forms)

    def refused(case):
        # a wrong presentation may also leave coboundaries outside the cocycles
        try:
            return not agree(*case)
        except LatticeError:
            return True

    monkeypatch.setattr(bicomplex, "_harrison", broken)
    cases = [(s, spec, d, False) for s, spec, d in TORSION]
    cases += [(s, "Z/2", 2, False) for _name, s in STRUCTURES[:6]]
    assert any(map(refused, cases))


def test_budgets_refuse_before_any_shuffle_sum(monkeypatch):
    def stop(*_args):
        raise AssertionError("a shuffle sum was built")

    # the presentations, tables and systems are cached per process: start
    # cold, so that degree 5 must present its quotients again
    clear_compile_caches()
    monkeypatch.delenv("LCSCOHOM_BUDGET", raising=False)
    monkeypatch.setattr(bicomplex, "_shuffle_sums", stop)
    with pytest.raises(BudgetError):
        bicomplex._full_system(Z4LCS, 6)
    # one degree below, the checks pass and the presentation starts
    with pytest.raises(AssertionError, match="a shuffle sum was built"):
        bicomplex._full_system(Z4LCS, 5)(2)


# Full and reduced groups over Z/p, plain and normalized: below degree
# 2p normalization changes nothing, at 2p it drops one factor of the full
# group and none of the reduced one, over Z/2 at 4 and over Z/3 at 6.
# Observed, not proven.
SPLIT = {
    ("trivial(2)", "Z/2", 2): ([2, 2], [2, 2]),
    ("trivial(2)", "Z/2", 3): ([2, 2], [2, 2]),
    ("trivial(2)", "Z/2", 4): ([2, 2, 2, 2], [2, 2, 2]),
    ("z4-lcs", "Z/2", 3): ([2] * 5, [2] * 5),
    ("z4-lcs", "Z/2", 4): ([2] * 10, [2] * 9),
    ("trivial(3)", "Z/3", 5): ([3, 3], [3, 3]),
    ("trivial(3)", "Z/3", 6): ([3] * 5, [3] * 4),
}


def test_normalization_splits_the_full_groups_from_degree_2p():
    for (name, spec, degree), (plain, normalized) in SPLIT.items():
        s, coeffs = builtin_structure(name), parse_group_spec(spec)
        case = (name, spec, degree)
        assert full_cohomology(s, coeffs, degree) == plain, case
        assert full_cohomology(s, coeffs, degree, normalized=True) == normalized, case
        same = reduced_cohomology(s, coeffs, degree, normalized=True)
        assert same == reduced_cohomology(s, coeffs, degree), case
