"""The two-differential complex: shuffles, dh/dv, and the total complex.

Identities are checked as exact integer matrix equations; the small
shuffle sums are frozen by hand.
"""

import pytest

import lcscohom.bicomplex as bicomplex
from dense_views import (
    dh_matrix,
    dv_matrix,
    kernel_mod_m,
    linearity_rows,
    reduced_boundary_matrix,
    shuffle_rows,
    total_chain_matrix,
)
from lattice_oracle import IntegerMatrix, LatticeTester, hstack
from lcscohom.abelian import FiniteAbelianGroup
from lcscohom.cli import main
from lcscohom.bicomplex import (
    bicomplex_identity_check,
    column_matches_trivial_reduced,
    full_cohomology,
    row_matches_reduced,
    shuffle_permutations,
    total_blocks,
)
from lcscohom.corpus import builtin_structure, standard_corpus
from lcscohom.errors import DegreeError, ParameterError
from lcscohom.linalg import _IntegerSpan
from lcscohom.reduced import _merge, all_tuples, tuple_index
from lcscohom.structures import LinearCycleSet

Z2 = FiniteAbelianGroup((2,))
T2 = builtin_structure("trivial(2)")
T3 = builtin_structure("trivial(3)")
Z4LCS = builtin_structure("z4-lcs")


def test_shuffle_permutations_frozen():
    pairs = shuffle_permutations(1, 2)
    assert pairs == [(1, [0, 1]), (-1, [1, 0])]
    signs = [s for s, _ in shuffle_permutations(1, 3)]
    assert signs == [1, -1, 1]
    with pytest.raises(ParameterError):
        shuffle_permutations(0, 2)
    with pytest.raises(ParameterError):
        shuffle_permutations(2, 2)


def partial_shuffles(s, i, j, r):
    """The shuffle sums of bidegree (i, j) and type (r, j - r), keyed by tuple."""
    tuples = list(all_tuples(s.order, i + j))
    return [
        {tuples[y]: c for y, c in sums.items()}
        for sums in bicomplex._shuffle_sums(s.order, i, j, r)
    ]


def test_partial_shuffles_frozen():
    sums = partial_shuffles(T3, 0, 2, 1)
    by_tuple = dict(zip(all_tuples(3, 2), sums))
    assert by_tuple[(0, 1)] == {(0, 1): 1, (1, 0): -1}
    # repeated entries cancel outright
    assert by_tuple[(1, 1)] == {}
    sums3 = partial_shuffles(T3, 0, 3, 1)
    by_tuple3 = dict(zip(all_tuples(3, 3), sums3))
    assert by_tuple3[(0, 1, 2)] == {(0, 1, 2): 1, (1, 0, 2): -1, (1, 2, 0): 1}
    prefixed = dict(zip(all_tuples(3, 3), partial_shuffles(T3, 1, 2, 1)))
    assert prefixed[(2, 0, 1)] == {(2, 0, 1): 1, (2, 1, 0): -1}


def test_shuffle_rows_shapes():
    assert shuffle_rows(T2, 2, 1).rows == 0
    mat = shuffle_rows(T2, 0, 2)
    assert mat.cols == 4
    assert mat.rows == 4


def dh_expansion(s, i, j, t):
    """Horizontal differential of one tuple, expanded by hand.

    The head acts on the whole tail, interior pairs among the first i
    entries merge with alternating signs, and the i-th entry drops with
    the closing sign.
    """
    n = s.order
    col = {}

    def bump(u, c):
        idx = tuple_index(u, n)
        col[idx] = col.get(idx, 0) + c

    bump(tuple(s.dot[t[0]][x] for x in t[1:]), 1)
    sign = 1
    for pos in range(1, i):
        sign = -sign
        bump(t[: pos - 1] + (s.add[t[pos - 1]][t[pos]],) + t[pos + 1 :], sign)
    bump(t[: i - 1] + t[i:], -sign)
    return {k: v for k, v in col.items() if v}


def dv_expansion(s, i, j, t):
    """Vertical differential of one tuple: a bar-type sum past slot i."""
    n = s.order
    col = {}

    def bump(u, c):
        idx = tuple_index(u, n)
        col[idx] = col.get(idx, 0) + c

    bump(t[:i] + t[i + 1 :], -1)
    sign = 1
    for off in range(1, j):
        sign = -sign
        pos = i + off
        bump(t[: pos - 1] + (s.add[t[pos - 1]][t[pos]],) + t[pos + 1 :], -sign)
    bump(t[:-1], sign)
    return {k: v for k, v in col.items() if v}


@pytest.mark.parametrize("bidegree", [(1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3)])
def test_dh_matches_expansion(bidegree):
    i, j = bidegree
    mat = dh_matrix(Z4LCS, i, j)
    n = Z4LCS.order
    assert (mat.rows, mat.cols) == (n ** (i + j - 1), n ** (i + j))
    for col, t in enumerate(all_tuples(n, i + j)):
        got = {r: mat.data[r][col] for r in range(mat.rows) if mat.data[r][col]}
        assert got == dh_expansion(Z4LCS, i, j, t), t


@pytest.mark.parametrize("bidegree", [(0, 2), (1, 2), (0, 3), (2, 2), (1, 3), (0, 4)])
def test_dv_matches_expansion(bidegree):
    i, j = bidegree
    mat = dv_matrix(Z4LCS, i, j)
    n = Z4LCS.order
    for col, t in enumerate(all_tuples(n, i + j)):
        got = {r: mat.data[r][col] for r in range(mat.rows) if mat.data[r][col]}
        assert got == dv_expansion(Z4LCS, i, j, t), t


def test_bidegree_guards():
    with pytest.raises(ParameterError):
        dh_matrix(T2, 0, 2)
    with pytest.raises(ParameterError):
        dv_matrix(T2, 1, 1)


def is_zero(mat):
    return mat == IntegerMatrix.zeros(mat.rows, mat.cols)


@pytest.mark.parametrize("s", [T3, Z4LCS], ids=lambda s: f"order{s.order}")
def test_differential_identities_directly(s):
    for i in range(1, 4):
        for j in range(1, 4):
            if i + j > 4:
                continue
            if i >= 2:
                assert is_zero(dh_matrix(s, i - 1, j) @ dh_matrix(s, i, j)), (i, j)
            if j >= 3:
                assert is_zero(dv_matrix(s, i, j - 1) @ dv_matrix(s, i, j)), (i, j)
            if i >= 1 and j >= 2:
                lhs = dh_matrix(s, i, j - 1) @ dv_matrix(s, i, j)
                rhs = dv_matrix(s, i - 1, j) @ dh_matrix(s, i, j)
                assert lhs == rhs, (i, j)


def test_first_row_is_reduced_boundary():
    for s in (T3, Z4LCS):
        for i in (1, 2, 3):
            assert dh_matrix(s, i, 1) == reduced_boundary_matrix(s, i + 1)
            assert row_matches_reduced(s, i)


def test_first_column_is_negated_bar():
    for s in (T3, Z4LCS):
        for j in (2, 3):
            assert column_matches_trivial_reduced(s, j)
        # dv at i=0 only sees addition, never the dot
        assert dv_matrix(Z4LCS, 0, 2) == dv_matrix(
            builtin_structure("trivial(4)"), 0, 2
        )


def test_shuffle_span_preserved():
    for s in (T3, Z4LCS):
        for i, j in [(1, 2), (0, 3), (1, 3), (2, 2)]:
            gens = shuffle_rows(s, i, j).transpose()
            if gens.cols == 0:
                continue
            dh_ok = i >= 1
            if dh_ok:
                image = dh_matrix(s, i, j) @ gens
                target = shuffle_rows(s, i - 1, j).transpose()
                if target.cols == 0:
                    assert is_zero(image)
                else:
                    tester = LatticeTester(target)
                    for c in range(image.cols):
                        assert tester.contains(image.column(c)), (i, j, c)
            image = dv_matrix(s, i, j) @ gens
            if j - 1 < 2:
                # one slot cannot shuffle: the image must vanish outright
                assert is_zero(image), (i, j)
            else:
                tester = LatticeTester(shuffle_rows(s, i, j - 1).transpose())
                for c in range(image.cols):
                    assert tester.contains(image.column(c)), (i, j, c)


def _oracle_contains_all(generators, vectors):
    # the oracle's Smith-form tester, generators as columns
    tester = LatticeTester(generators.transpose())
    return all(tester.contains(vec) for vec in vectors)


def test_shuffle_checks_refuse_a_perturbed_image(monkeypatch):
    # The first shuffle image that each span check reads is off by one at
    # the tuple of index 1: the span checks fail, and the oracle refuses
    # the same image.  A span serves two checks, and a check that fails
    # reads no further image, so every image a span reads is perturbed.
    for s in (T3, Z4LCS):
        class OffByOne(_IntegerSpan):
            def __init__(self, rows=()):
                self.rows = []
                super().__init__(rows)

            def add(self, row):
                self.rows.append(row)
                super().add(row)

            def contains(self, vec):
                # spans are keyed by tuple index: 1 is the tuple (0, ..., 0, 1)
                vec = dict(vec)
                vec[1] = vec.get(1, 0) + 1
                size = 1 + max(c for v in [*self.rows, vec] for c in v)
                generators = IntegerMatrix(len(self.rows), size)
                for r, row in enumerate(self.rows):
                    for c, x in row.items():
                        generators.data[r][c] = x
                dense = [0] * size
                for c, x in vec.items():
                    dense[c] = x
                assert not _oracle_contains_all(generators, [dense])
                return super().contains(vec)

        monkeypatch.setattr(bicomplex, "_IntegerSpan", OffByOne)
        report = bicomplex_identity_check(s, 4)
        verdicts = {c.name: c.ok for c in report.checks if "shuffles" in c.name}
        assert {name for name, ok in verdicts.items() if not ok} == {
            "dh preserves shuffles at (1,2)",
            "dv preserves shuffles at (0,3)",
            "dh preserves shuffles at (2,2)",
            "dh preserves shuffles at (1,3)",
            "dv preserves shuffles at (1,3)",
            "dv preserves shuffles at (0,4)",
        }
        # images of one-slot shuffles must vanish outright, no span check
        assert {name for name, ok in verdicts.items() if ok} == {
            "dv preserves shuffles at (0,2)",
            "dv preserves shuffles at (1,2)",
            "dv preserves shuffles at (2,2)",
        }


def test_column_match_refuses_a_perturbed_trivial_boundary(monkeypatch):
    # The bar-matrix half still matches; the last face of the trivial
    # reduced boundary has its sign flipped, and the sum leaves the
    # linearity lattice.
    real = bicomplex._horizontal_faces

    def perturbed(structure, i):
        faces = real(structure, i)
        if structure.dot == (tuple(range(structure.order)),) * structure.order:
            sign, face = faces[-1]
            faces[-1] = (-sign, face)
        return faces

    monkeypatch.setattr(bicomplex, "_horizontal_faces", perturbed)
    for s in (T3, Z4LCS):
        trivial = LinearCycleSet(s.order, s.add, [list(range(s.order))] * s.order)
        for j in (2, 3):
            assert not column_matches_trivial_reduced(s, j), (s.order, j)
            dv = dv_matrix(s, 0, j)
            # dh_matrix at (j - 1, 1) is the reduced boundary, built from the same faces
            red = dh_matrix(trivial, j - 1, 1)
            assert red != reduced_boundary_matrix(trivial, j)
            total = [
                [x + y for x, y in zip(col, red_col)]
                for col, red_col in zip(zip(*dv.data), zip(*red.data))
            ]
            assert not _oracle_contains_all(linearity_rows(s, j - 1), total)


def _flip(faces, at):
    sign, face = faces[at]
    faces[at] = (-sign, face)
    return faces


_REAL_DH, _REAL_DV = bicomplex._horizontal_faces, bicomplex._vertical_faces
DH_BLOCKS = ("(1,1)", "(1,2)", "(1,3)", "(2,1)", "(2,2)", "(3,1)")
DV_BLOCKS = ("(0,2)", "(0,3)", "(0,4)", "(1,2)", "(1,3)", "(2,2)")
DH_DEGENERATES = {f"dh preserves degenerates at {b}" for b in DH_BLOCKS}
DV_DEGENERATES = {f"dv preserves degenerates at {b}" for b in DV_BLOCKS}
DH_DH = {"dh.dh=0 at (2,1)", "dh.dh=0 at (2,2)", "dh.dh=0 at (3,1)"}
DV_DV = {"dv.dv=0 at (0,3)", "dv.dv=0 at (0,4)", "dv.dv=0 at (1,3)"}
SPAN_BLOCKS = ("(0,3)", "(0,4)", "(1,3)")

# (horizontal faces, vertical faces, the checks that must fail at max degree 4)
BROKEN_FACES = {
    # the drop of coordinate i with the wrong sign
    "dh drop sign": (
        lambda s, i: _flip(_REAL_DH(s, i), -1),
        _REAL_DV,
        DH_DH | DH_DEGENERATES,
    ),
    # the drop of coordinate i + 1 with the wrong sign
    "dv drop sign": (
        _REAL_DH,
        lambda s, i, j: _flip(_REAL_DV(s, i, j), 0),
        DV_DV
        | DV_DEGENERATES
        | {f"dv preserves shuffles at {b}" for b in DV_BLOCKS},
    ),
    # a merge across the two blocks, (.., a, 0, ..) -> (.., a, ..)
    "dh extra merge": (
        lambda s, i: _REAL_DH(s, i) + [(1, _merge(s.add, i))],
        _REAL_DV,
        DH_DH
        | DH_DEGENERATES
        | {f"dh preserves shuffles at {b}" for b in ("(1,2)", "(1,3)", "(2,2)")}
        | {f"dh.dv=dv.dh at {b}" for b in ("(1,2)", "(1,3)", "(2,2)")},
    ),
    # a second merge of coordinates i + 1 and i + 2
    "dv extra merge": (
        _REAL_DH,
        lambda s, i, j: _REAL_DV(s, i, j) + [(1, _merge(s.add, i + 1))],
        DV_DV | DV_DEGENERATES | {f"dv preserves shuffles at {b}" for b in SPAN_BLOCKS},
    ),
}


def _dense_verdicts(s, max_degree):
    # the composite and degenerate checks from products and columns of the
    # dense matrices, which the patched face lists build too
    out = {}
    for total in range(2, max_degree + 1):
        source = [x for x, t in enumerate(all_tuples(s.order, total)) if s.zero in t]
        target = {x for x, t in enumerate(all_tuples(s.order, total - 1)) if s.zero in t}
        for i, j in total_blocks(total):
            mats = []
            if i >= 2:
                prod = dh_matrix(s, i - 1, j) @ dh_matrix(s, i, j)
                out[f"dh.dh=0 at ({i},{j})"] = is_zero(prod)
            if j >= 3:
                prod = dv_matrix(s, i, j - 1) @ dv_matrix(s, i, j)
                out[f"dv.dv=0 at ({i},{j})"] = is_zero(prod)
            if i >= 1 and j >= 2:
                lhs = dh_matrix(s, i, j - 1) @ dv_matrix(s, i, j)
                rhs = dv_matrix(s, i - 1, j) @ dh_matrix(s, i, j)
                out[f"dh.dv=dv.dh at ({i},{j})"] = lhs == rhs
            if i >= 1:
                mats.append(("dh", dh_matrix(s, i, j)))
            if j >= 2:
                mats.append(("dv", dv_matrix(s, i, j)))
            for name, mat in mats:
                out[f"{name} preserves degenerates at ({i},{j})"] = all(
                    r in target or not mat.data[r][x] for x in source for r in range(mat.rows)
                )
    return out


@pytest.mark.parametrize("broken", sorted(BROKEN_FACES))
def test_structural_checks_refuse_broken_faces(broken, monkeypatch, capsys):
    horizontal, vertical, failing = BROKEN_FACES[broken]
    monkeypatch.setattr(bicomplex, "_horizontal_faces", horizontal)
    monkeypatch.setattr(bicomplex, "_vertical_faces", vertical)
    for s, name in ((T3, "trivial(3)"), (Z4LCS, "z4-lcs")):
        report = bicomplex_identity_check(s, 4)
        verdicts = {c.name: c.ok for c in report.checks}
        assert {c for c, ok in verdicts.items() if not ok} == failing, name
        dense = _dense_verdicts(s, 4)
        assert dense == {c: verdicts[c] for c in dense}, name
        code = main(["--text", "bicomplex-check", f"builtin:{name}", "--max-degree", "4"])
        out = capsys.readouterr().out
        assert code == 1
        assert out == "".join(f"FAIL {c.name}\n" for c in report.checks if not c.ok)


def test_total_blocks():
    assert total_blocks(1) == [(0, 1)]
    assert total_blocks(3) == [(2, 1), (1, 2), (0, 3)]
    with pytest.raises(DegreeError):
        total_blocks(0)


def test_total_chain_matrix_assembly():
    s = Z4LCS
    n = s.order
    assert total_chain_matrix(s, 1) == IntegerMatrix.zeros(0, n)
    got = total_chain_matrix(s, 2)
    # blocks (1,1) then (0,2); dv enters with sign (-1)^i
    manual = hstack([dh_matrix(s, 1, 1), dv_matrix(s, 0, 2)])
    assert got == manual
    three = total_chain_matrix(s, 3)
    assert (three.rows, three.cols) == (2 * n**2, 3 * n**3)


def test_total_differential_squares_to_zero():
    for s in (T2, T3, Z4LCS):
        for degree in (2, 3):
            prod = total_chain_matrix(s, degree) @ total_chain_matrix(s, degree + 1)
            assert is_zero(prod), (s.order, degree)


def test_identity_check_report():
    report = bicomplex_identity_check(T3, 3)
    assert report.ok
    d = report.to_dict()
    assert d["order"] == 3
    assert d["max_degree"] == 3
    assert d["ok"] is True
    assert all(c["ok"] for c in d["checks"])
    names = {c["name"] for c in d["checks"]}
    assert any("dh" in x for x in names)
    assert any("dv" in x for x in names)


def test_identity_check_corpus():
    for name, s in standard_corpus():
        assert bicomplex_identity_check(s, 3).ok, name


def test_full_cohomology_frozen():
    assert full_cohomology(T2, Z2, 2, normalized=True) == [2, 2]
    # the third factor is the purely additive part (group extensions)
    assert full_cohomology(Z4LCS, Z2, 2, normalized=True) == [2, 2, 2]
    assert full_cohomology(T2, Z2, 1) == [2]


def test_full_cohomology_trivial_coefficients():
    none = FiniteAbelianGroup(())
    for degree in (1, 2):
        assert full_cohomology(T2, none, degree) == []


def test_block_generators_at_symmetric_corner():
    # bidegree (0,2) mod 2: tables constant under swapping the two slots
    gens = kernel_mod_m(shuffle_rows(T2, 0, 2), 2)
    span = set()
    frontier = [(0, 0, 0, 0)]
    span.add((0, 0, 0, 0))
    cols = [tuple(gens.data[r][c] % 2 for r in range(4)) for c in range(gens.cols)]
    while frontier:
        new = []
        for e in frontier:
            for g in cols:
                v = tuple((a + b) % 2 for a, b in zip(e, g))
                if v not in span:
                    span.add(v)
                    new.append(v)
        frontier = new
    symmetric = {
        (a, b, c, d)
        for a in range(2)
        for b in range(2)
        for c in range(2)
        for d in range(2)
        if b == c
    }
    assert span == symmetric
