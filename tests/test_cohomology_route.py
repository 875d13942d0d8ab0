"""Every (co)homology group takes the one sparse route.

The groups are read from tagged eliminations of sparse face rows, so no
dense matrix, cochain generator set or matrix product is formed on the
way.  The guard test makes every dense path raise and still expects the
invariants below, which were frozen from the dense generator-and-product
route this one replaced; the memory test bounds what that route cost.
"""

import tracemalloc
from collections import Counter

import lcscohom.bicomplex
import lcscohom.linalg
import lcscohom.reduced
from lcscohom.abelian import parse_group_spec
from lcscohom.bicomplex import full_cohomology
from lcscohom.corpus import builtin_structure
from lcscohom.linalg import IntegerMatrix
from lcscohom.reduced import cs_cocycle_group, cs_cohomology, reduced_cohomology, reduced_homology

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
        "kernel_mod_m",
        "reduced_boundary_matrix",
        "linearity_rows",
        "cochain_space_generators",
        "cs_chain_matrix",
        "cs_coboundary_matrix",
        "antisymmetrization_matrix",
    ),
    lcscohom.bicomplex: (
        "_face_matrix",
        "kernel_mod_m",
        "reduced_boundary_matrix",
        "linearity_rows",
        "shuffle_rows",
        "dh_matrix",
        "dv_matrix",
        "total_chain_matrix",
        "block_cochain_generators",
    ),
}


def refuse(*_args, **_kwargs):
    raise AssertionError("a (co)homology group took a dense path")


def test_no_dense_matrix_on_the_route(monkeypatch):
    for module, names in DENSE.items():
        for name in names:
            monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(IntegerMatrix, "__init__", refuse)
    monkeypatch.setattr(IntegerMatrix, "__matmul__", refuse)
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

