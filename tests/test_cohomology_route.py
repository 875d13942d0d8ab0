"""Every (co)homology group and structural check takes a sparse route.

The groups are read from tagged eliminations of sparse face rows, and the
bicomplex and chain-map checks apply face lists to formal sums, so no
dense matrix, cochain generator set or matrix product is formed on the
way.  The guard tests make every dense path raise and still expect the
invariants and reports below, which were frozen from the dense
generator-and-product routes these replaced; the memory tests bound what
those routes cost.
"""

import hashlib
import json
import tracemalloc
from collections import Counter

import lcscohom.bicomplex
import lcscohom.linalg
import lcscohom.reduced
from lcscohom.abelian import parse_group_spec
from lcscohom.bicomplex import bicomplex_identity_check, full_cohomology
from lcscohom.corpus import builtin_structure, standard_corpus
from lcscohom.linalg import IntegerMatrix
from lcscohom.reduced import (
    antisymmetrization_is_chain_map,
    cs_cocycle_group,
    cs_cohomology,
    reduced_cohomology,
    reduced_homology,
)

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

DENSE = {
    lcscohom.linalg: ("kernel_mod_m",),
    lcscohom.reduced: (
        "_face_matrix",
        "reduced_boundary_matrix",
        "linearity_rows",
        "cs_chain_matrix",
        "cs_coboundary_matrix",
        "antisymmetrization_matrix",
    ),
    lcscohom.bicomplex: (
        "_face_matrix",
        "shuffle_rows",
        "dh_matrix",
        "dv_matrix",
        "total_chain_matrix",
    ),
}


# SHA-256 of the sorted JSON of bicomplex_identity_check(z4-lcs, 4): 30
# passing checks, as the dense products reported them.
Z4LCS_REPORT = "14ef6caf208561958c72152ca9da9606f651c3573b09d562443d68715bfd78a3"


def refuse(*_args, **_kwargs):
    raise AssertionError("a dense path was taken")


def refuse_dense(monkeypatch):
    for module, names in DENSE.items():
        for name in names:
            monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(IntegerMatrix, "__init__", refuse)
    monkeypatch.setattr(IntegerMatrix, "__matmul__", refuse)


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

