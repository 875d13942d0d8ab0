"""Every (co)homology group, structural check and extension decision
takes a sparse route.

The groups are read from tagged eliminations of sparse face rows, and the
bicomplex and chain-map checks apply face lists to formal sums, so no
dense matrix, cochain generator set or matrix product is formed on the
way.  The extension layer reads its class lists, equivalence verdicts
and additive sections off the same kind of rows, and its Howell forms
take sparse rows as well.  Sparse face rows are the only operator format
of the package: no module binds a dense matrix type or a dense builder,
and the one dense view left, `dh_matrix` and `dv_matrix` for the CLI's
`--bidegree` dump, is made to raise while the routes still give the
invariants, reports and digests below, which were frozen from the dense
generator-and-product routes these replaced.  The memory tests bound
what those routes cost.
"""

import hashlib
import importlib
import json
import pkgutil
import tracemalloc
from collections import Counter

import pytest
from compile_caches import clear_compile_caches
from ext8 import EXT8

import lcscohom
import lcscohom.bicomplex
import lcscohom.extensions
import lcscohom.linalg
import lcscohom.reduced
from lcscohom.abelian import parse_group_spec
from lcscohom.bicomplex import bicomplex_identity_check, full_cohomology
from lcscohom.corpus import builtin_structure, standard_corpus
from lcscohom.extensions import (
    ReducedTwoCocycle,
    classify_extensions,
    cocycles_cohomologous,
    extensions_equivalent,
    validate_extension_triple,
)
from lcscohom.reduced import (
    antisymmetrization_is_chain_map,
    cs_cocycle_group,
    cs_cohomology,
    reduced_cohomology,
    reduced_homology,
)
from lcscohom.verify import COCYCLE_PHIS, _phi_table

Z2 = parse_group_spec("Z/2")
Z4LCS = builtin_structure("z4-lcs")

# Invariant factors over Z/2+Z/4, as {factor: multiplicity}.
FROZEN = {
    ("reduced_cohomology", 1): {2: 2},
    ("reduced_cohomology", 2): {2: 4},
    ("reduced_cohomology", 3): {2: 6},
    ("reduced_homology", 1): {2: 2},
    ("reduced_homology", 2): {2: 4},
    ("reduced_homology", 3): {2: 6},
    ("full_cohomology", 1): {2: 2},
    ("full_cohomology", 2): {2: 6},
    ("full_cohomology", 3): {2: 10},
    ("cs_cohomology", 1): {2: 3, 4: 3},
    ("cs_cohomology", 2): {2: 14, 4: 10},
    ("cs_cohomology", 3): {2: 48, 4: 36},
    ("cs_cocycle_group", 1): {2: 3, 4: 3},
    ("cs_cocycle_group", 2): {2: 15, 4: 11},
    ("cs_cocycle_group", 3): {2: 49, 4: 41},
}
# Normalization changes the full group from degree 4 on.
FULL_FOUR = {False: {2: 20}, True: {2: 18}}

# The dense matrix type and the dense builders that left the package, and
# the names the one builder per degree-2 system replaced.
DELETED = (
    "IntegerMatrix",
    "kernel_mod_m",
    "_check_modulus",
    "_face_matrix",
    "reduced_boundary_matrix",
    "linearity_rows",
    "cs_chain_matrix",
    "cs_coboundary_matrix",
    "antisymmetrization_matrix",
    "shuffle_rows",
    "total_chain_matrix",
    # the second builders of the degree-2 systems and the linearity block
    "_cochain_system",
    "_linearity_faces",
    "_linearity_span",
    "partial_shuffles",
    # the re-elimination of K, B and p^i K + B in the quotient
    "_log_order",
)
# The dense view of the --bidegree dump, which no computing route reads.
DENSE_VIEW = ("dh_matrix", "dv_matrix", "_dense")


# SHA-256 of the sorted JSON of the class lists of z4-lcs over Z/2+Z/4
# (16 cycle-type classes, 64 general ones), and of the equivalence,
# cohomologousness and cycle-type validation reports on some of them.
Z4LCS_CLASSES = {
    "cycle-type": "a1230c3ee98da818ab4b37fca4fe132639d8ccf403193fb23cc73bdd769e4ec6",
    "general": "d71876b6140ea2132e16d935bb5894e5554342f323bad57beaa99978ad582db6",
}
Z4LCS_EQUIVALENT = "b1c60bd7ab2041630bf0e4eb7817fa4ad21fc65dc2cc81a1207b530702b73b94"
Z4LCS_COHOMOLOGOUS = "405b515f6cfe9c46f2309697516ee569edd6043e7a26b1feaa7642fb0902241d"
Z4LCS_VALIDATED = "25d45b9b704cb2bd0f9535400c861bad848f87f86a1a9ac077e8111817e8f79e"

# SHA-256 of the sorted JSON of bicomplex_identity_check(z4-lcs, 4): 30
# passing checks, as the dense products reported them.
Z4LCS_REPORT = "14ef6caf208561958c72152ca9da9606f651c3573b09d562443d68715bfd78a3"


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def refuse(*_args, **_kwargs):
    raise AssertionError("a dense path was taken")


def refuse_dense(monkeypatch):
    for name in DENSE_VIEW:
        monkeypatch.setattr(lcscohom.bicomplex, name, refuse)


def test_no_module_binds_a_dense_matrix_or_builder():
    # __main__ runs the command line on import
    names = ["lcscohom"] + [
        f"lcscohom.{info.name}"
        for info in pkgutil.iter_modules(lcscohom.__path__)
        if info.name != "__main__"
    ]
    assert len(names) >= 12
    for name in names:
        module = importlib.import_module(name)
        bound = [attr for attr in DELETED if hasattr(module, attr)]
        assert bound == [], (name, bound)


def test_no_dense_matrix_in_the_structural_checks(monkeypatch):
    refuse_dense(monkeypatch)
    report = bicomplex_identity_check(Z4LCS, 4).to_dict()
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == Z4LCS_REPORT
    for name, s in standard_corpus():
        for k in (2, 3):
            assert antisymmetrization_is_chain_map(s, k), (name, k)


def test_identity_check_stays_small():
    # The dense products peaked at 72.5 MiB here; the face lists take under 1.
    tracemalloc.start()
    try:
        report = bicomplex_identity_check(Z4LCS, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok and len(report.checks) == 54
    assert peak < 8 * 2**20, peak


def test_no_dense_matrix_on_the_route(monkeypatch):
    refuse_dense(monkeypatch)
    coeffs = parse_group_spec("Z/2+Z/4")
    for normalized in (False, True):
        for k in (1, 2, 3):
            for fn in (reduced_cohomology, reduced_homology, full_cohomology):
                got = fn(Z4LCS, coeffs, k, normalized)
                assert Counter(got) == FROZEN[fn.__name__, k], (fn.__name__, k, normalized)
        assert Counter(full_cohomology(Z4LCS, coeffs, 4, normalized)) == FULL_FOUR[normalized]
    for k in (1, 2, 3):
        for fn in (cs_cohomology, cs_cocycle_group):
            assert Counter(fn(Z4LCS, coeffs, k)) == FROZEN[fn.__name__, k], (fn.__name__, k)


def test_no_linearity_block_on_the_reduced_route(monkeypatch):
    # reduced cochains and chains are solved for on generators of (A, +),
    # so no face row over every tuple is written: the linearity relations
    # least of all
    monkeypatch.setattr(lcscohom.reduced, "_face_rows", refuse)
    coeffs = parse_group_spec("Z/2+Z/4")
    for normalized in (False, True):
        for k in (1, 2, 3):
            for fn in (reduced_cohomology, reduced_homology):
                got = fn(Z4LCS, coeffs, k, normalized)
                assert Counter(got) == FROZEN[fn.__name__, k], (fn.__name__, k, normalized)


class Stopped(Exception):
    pass


def test_one_builder_per_degree_two_system(monkeypatch):
    # classification and cohomologousness read the reduced and the full
    # systems from the one builder of each theory, and so does full
    # cohomology; the reduced tuple system is the plain one, whatever
    # `normalized` is, and reduced cohomology never reads it
    gamma = parse_group_spec("Z/2")
    classes = {f: classify_extensions(Z4LCS, gamma, f) for f in ("cycle-type", "general")}
    builders = (
        ("cycle-type", lcscohom.reduced, "_reduced_system", reduced_cohomology),
        ("general", lcscohom.bicomplex, "_full_system", full_cohomology),
    )
    expected = {"cycle-type": [(2, None), (1, None)], "general": [(2, True), (1, True), (2, True)]}
    for flavor, module, name, cohomology in builders:
        calls = []

        def stop(structure, degree, normalized=None, calls=calls):
            calls.append((degree, normalized))
            raise Stopped

        lcscohom.extensions._cohomologous_solver.cache_clear()
        with monkeypatch.context() as patch:
            for holder in (module, lcscohom.extensions):
                patch.setattr(holder, name, stop)
            first, second = classes[flavor][:2]
            runs = (
                lambda: classify_extensions(Z4LCS, gamma, flavor),
                lambda: cocycles_cohomologous(first.cocycle, second.cocycle, True),
            )
            for run in runs:
                with pytest.raises(Stopped):
                    run()
            if flavor == "general":
                with pytest.raises(Stopped):
                    cohomology(Z4LCS, gamma, 2, True)
            else:  # read off a resolution of the brace group
                assert cohomology(Z4LCS, gamma, 2, True) == [2, 2]
        assert calls == expected[flavor], flavor
    lcscohom.extensions._cohomologous_solver.cache_clear()


def test_cohomologous_reduced_cocycles_ignore_normalization():
    # a reduced 2-cocycle and every coboundary vanish at (0, c), so the
    # plain degree-1 system answers for the normalized question as well:
    # every pair of ext8's cycle-type classes over Z/4, and the z4-lcs
    # family of verify-paper with each cocycle shifted by a coboundary
    gamma = parse_group_spec("Z/4")
    cocycles = [entry.cocycle for entry in classify_extensions(EXT8, gamma, "cycle-type")]
    dot, theta = Z4LCS.dot, [0, 1, 0, 1]
    family = []
    for phi in COCYCLE_PHIS:
        f = _phi_table(phi)
        moved = [[(f[a][b] + theta[b] - theta[dot[a][b]]) % 2 for b in range(4)] for a in range(4)]
        family += [ReducedTwoCocycle(Z4LCS, Z2, f), ReducedTwoCocycle(Z4LCS, Z2, moved)]
    verdicts = []
    for group in (cocycles, family):
        for c1 in group:
            for c2 in group:
                plain = cocycles_cohomologous(c1, c2, False)
                assert cocycles_cohomologous(c1, c2, True) == plain
                verdicts.append(plain[0])
    assert len(verdicts) == len(cocycles) ** 2 + 64
    assert set(verdicts) == {True, False}


def test_one_presented_writer_serves_both_theories(monkeypatch):
    # every route that reads a tuple system of either theory reaches the
    # one presented writer of reduced.py, and the theories differ only in
    # the quotients they present: K_1 alone, as (A, +), or every K_j.  The
    # reduced groups, plain or normalized, and the plain full groups are
    # read off a resolution of the brace group instead, and never reach it.
    gamma = parse_group_spec("Z/2")
    routes = {
        ("normalized full cohomology", (1, 2, 3)): (
            lambda: full_cohomology(Z4LCS, gamma, 2, normalized=True)
        ),
    }
    # the degree-2 systems of classification, the degree-1 ones of
    # cohomologousness: the full theory presents K_1 to K_(n+1)
    for flavor, two, one in (("cycle-type", (1,), (1,)), ("general", (1, 2, 3), (1, 2))):
        first, second = classify_extensions(Z4LCS, gamma, flavor)[:2]
        routes[f"{flavor} classification", two] = (
            lambda flavor=flavor: classify_extensions(Z4LCS, gamma, flavor)
        )
        routes[f"{flavor} cohomologous", one] = (
            lambda first=first, second=second: cocycles_cohomologous(first.cocycle, second.cocycle)
        )
    reached = []

    def stop(structure, k, pres, *_args):
        reached.append(tuple(pres))
        raise Stopped

    # the set-up above wrote and kept the degree-2 systems: start cold
    clear_compile_caches()
    monkeypatch.setattr(lcscohom.reduced, "_write_boundary", stop)
    for (name, presented), run in routes.items():
        with pytest.raises(Stopped):
            run()
        assert reached.pop() == presented, name
    for normalized in (False, True):
        assert reduced_cohomology(Z4LCS, gamma, 2, normalized) == [2, 2]
        assert reduced_homology(Z4LCS, gamma, 2, normalized) == [2, 2]
    assert full_cohomology(Z4LCS, gamma, 2) == [2, 2, 2]
    assert reached == []
    clear_compile_caches()


@pytest.mark.parametrize("route", [reduced_cohomology, reduced_homology, full_cohomology])
def test_the_quotient_takes_four_eliminations_whatever_the_exponent(monkeypatch, route):
    # one tagged elimination for K and one for B, then one echelon of K and
    # one of the relations of K / B: four over every Z/2^e, none per power
    # of p
    eliminations = []
    real = lcscohom.linalg._eliminate

    def counted(*args, **kwargs):
        eliminations.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(lcscohom.linalg, "_eliminate", counted)
    counts = {}
    for e in (1, 2, 3):
        gamma = parse_group_spec(f"Z/{2**e}")
        route(Z4LCS, gamma, 2)  # the system is written and presented once
        eliminations.clear()
        route(Z4LCS, gamma, 2)
        counts[e] = len(eliminations)
        assert set(eliminations) == {(2, e)}
    assert counts == {1: 4, 2: 4, 3: 4}


def test_full_degree_four_stays_small():
    # The dense route peaked at 82 MiB here; the sparse rows take about 10.
    tracemalloc.start()
    try:
        got = full_cohomology(Z4LCS, parse_group_spec("Z/2"), 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == [2] * 10
    assert peak < 24 * 2**20, peak



def test_no_dense_matrix_in_the_extension_layer(monkeypatch):
    refuse_dense(monkeypatch)
    gamma = parse_group_spec("Z/2+Z/4")
    classes = {}
    for flavor, digest in Z4LCS_CLASSES.items():
        classes[flavor] = classify_extensions(Z4LCS, gamma, flavor)
        assert _digest([c.to_dict() for c in classes[flavor]]) == digest
    some = classes["cycle-type"][:3] + classes["general"][:3]
    verdicts = [extensions_equivalent(a.triple, b.triple) for a in some for b in some]
    assert {ok for ok, _ in verdicts} == {True, False}
    assert _digest(verdicts) == Z4LCS_EQUIVALENT
    pairs = [
        cocycles_cohomologous(a.cocycle, b.cocycle, normalized)
        for cl in (classes["cycle-type"][:4], classes["general"][:4])
        for a in cl
        for b in cl
        for normalized in (False, True)
    ]
    assert {ok for ok, _ in pairs} == {True, False}
    assert _digest(pairs) == Z4LCS_COHOMOLOGOUS
    some = classes["cycle-type"][:4] + classes["general"][:4]
    reports = [validate_extension_triple(c.triple, "cycle-type").to_dict() for c in some]
    # both verdicts of the additive-section question occur
    assert {"additive_section" in r for r in reports} == {True, False}
    assert _digest(reports) == Z4LCS_VALIDATED
