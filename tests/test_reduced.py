"""Boundary maps, cochains, and (co)homology of the reduced complex.

The boundary matrices are compared against a from-scratch expansion of
the defining formula; cohomology values are cross-checked three ways:
frozen hand computations, brute-force enumeration where the cochain
groups are small, and the homology groups computed through an entirely
different lattice presentation (over cyclic coefficients both sides
must agree).
"""

import itertools
import random

import pytest

import lcscohom.reduced as reduced
import lcscohom.verify as verify
from cochain_oracle import Cochain, cochain_from_dict, reduced_coboundary
from dense_views import (
    antisymmetrization_matrix,
    cs_chain_matrix,
    kernel_mod_m,
    linearity_rows,
    reduced_boundary_matrix,
)
from homology_oracle import homology, tuple_system
from lattice_oracle import IntegerMatrix, LatticeTester
from lcscohom.abelian import FiniteAbelianGroup, merge_invariants, parse_group_spec
from lcscohom.bicomplex import full_cohomology
from lcscohom.corpus import builtin_structure, standard_corpus
from lcscohom.errors import DegreeError, LinearityError, MalformedTableError, ShapeError
from lcscohom.reduced import (
    all_tuples,
    antisymmetrization_is_chain_map,
    cs_cocycle_group,
    cs_cohomology,
    degenerate_indices,
    reduced_cohomology,
    reduced_homology,
    tuple_index,
)

Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))
Z4 = FiniteAbelianGroup((4,))

T2 = builtin_structure("trivial(2)")
T3 = builtin_structure("trivial(3)")
Z4LCS = builtin_structure("z4-lcs")


def boundary_expansion(s, t):
    """Coefficient dict of the boundary of one tuple, expanded by hand.

    First the head acts on the tail, then neighbouring pairs merge with
    alternating signs, and finally the next-to-last entry drops out.
    """
    k = len(t)
    col = {}

    def bump(u, c):
        i = tuple_index(u, s.order)
        col[i] = col.get(i, 0) + c

    bump(tuple(s.dot[t[0]][x] for x in t[1:]), 1)
    sign = 1
    for i in range(1, k - 1):
        sign = -sign
        bump(t[: i - 1] + (s.add[t[i - 1]][t[i]],) + t[i + 1 :], sign)
    bump(t[: k - 2] + (t[k - 1],), -sign)
    return {i: c for i, c in col.items() if c}


@pytest.mark.parametrize("s", [T2, T3, Z4LCS], ids=lambda s: f"order{s.order}")
@pytest.mark.parametrize("k", [2, 3, 4])
def test_boundary_matrix_matches_expansion(s, k):
    n = s.order
    mat = reduced_boundary_matrix(s, k)
    assert (mat.rows, mat.cols) == (n ** (k - 1), n**k)
    for col, t in enumerate(all_tuples(n, k)):
        got = {i: mat.data[i][col] for i in range(mat.rows) if mat.data[i][col]}
        assert got == boundary_expansion(s, t), t


def test_degree_two_boundary_by_hand():
    mat = reduced_boundary_matrix(Z4LCS, 2)
    # boundary of (a, b) is (a . b) - (b)
    for a in range(4):
        for b in range(4):
            expected = [0, 0, 0, 0]
            expected[Z4LCS.dot[a][b]] += 1
            expected[b] -= 1
            assert [mat.data[i][4 * a + b] for i in range(4)] == expected


@pytest.mark.parametrize("s", [T2, T3, Z4LCS], ids=lambda s: f"order{s.order}")
def test_boundary_squares_to_zero(s):
    top = 5 if s.order <= 3 else 4
    for k in range(2, top):
        prod = reduced_boundary_matrix(s, k) @ reduced_boundary_matrix(s, k + 1)
        assert prod == IntegerMatrix.zeros(prod.rows, prod.cols), k


def test_verify_paper_refuses_a_perturbed_boundary(monkeypatch):
    # The drop face of the degree-3 horizontal boundary changes sign, so the
    # composites of degrees 3 and 4 no longer vanish; degree 2 still does.
    real = verify._horizontal_faces

    def perturbed(s, i):
        faces = real(s, i)
        if i == 3:
            sign, face = faces[-1]
            faces[-1] = (-sign, face)
        return faces

    monkeypatch.setattr(verify, "_horizontal_faces", perturbed)
    claims = {c["name"]: c for c in verify.verify_paper()}
    assert claims["boundary operators square to zero exactly"] == {
        "name": "boundary operators square to zero exactly",
        "ok": False,
        "detail": "nonzero composite at order 2, degree 3",
    }


def test_verify_paper_refuses_rows_without_conditions(monkeypatch):
    # With every unconstrained cocycle condition dropped, the table flipped
    # at (1, 1) passes too, and the claim fails on its reject direction.
    monkeypatch.setattr(verify, "_cs_cocycles", lambda s, k: [{} for _ in range(s.order**k)])
    claims = {c["name"]: c for c in verify.verify_paper()}
    assert claims["reduced cocycles satisfy the unconstrained cocycle condition"] == {
        "name": "reduced cocycles satisfy the unconstrained cocycle condition",
        "ok": False,
        "detail": "a table flipped at (1, 1) passes too",
    }


def test_degree_guard():
    with pytest.raises(DegreeError):
        reduced_homology(T2, Z2, 0)
    with pytest.raises(DegreeError):
        reduced_cohomology(T2, Z2, 0)


def random_linear_cochain(rng, s, k, m):
    gens = kernel_mod_m(linearity_rows(s, k), m)
    vec = [0] * gens.rows
    for c in range(gens.cols):
        w = rng.randrange(m)
        for r in range(gens.rows):
            vec[r] = (vec[r] + w * gens.data[r][c]) % m
    return Cochain(s, FiniteAbelianGroup((m,)), k, tuple((v,) for v in vec))


@pytest.mark.parametrize("k", [1, 2])
def test_coboundary_agrees_with_matrix(k):
    rng = random.Random(k)
    mat = reduced_boundary_matrix(Z4LCS, k + 1).transpose()
    for _ in range(10):
        f = random_linear_cochain(rng, Z4LCS, k, 4)
        df = reduced_coboundary(f)
        vec = [v[0] for v in f.values]
        assert [v[0] for v in df.values] == [x % 4 for x in mat.apply(vec)]


def test_coboundary_rejects_nonlinear():
    f = Cochain.from_callable(T2, Z2, 1, lambda a: (1,))
    with pytest.raises(LinearityError):
        reduced_coboundary(f)
    assert reduced_coboundary(f, check=False) is not None


def test_coboundary_squares_to_zero():
    for m in (2, 4):
        g = FiniteAbelianGroup((m,))
        for c in range(m):
            theta = Cochain.from_callable(Z4LCS, g, 1, lambda a: (c * a % m,))
            ddt = reduced_coboundary(reduced_coboundary(theta))
            assert ddt == Cochain.zero(Z4LCS, g, 3)


def test_cochain_arithmetic_and_errors():
    f = Cochain.from_callable(T2, Z2, 1, lambda a: (a,))
    assert (f + f) == Cochain.zero(T2, Z2, 1)
    assert (f - f) == Cochain.zero(T2, Z2, 1)
    assert (-f) == f
    assert f(1) == (1,)
    with pytest.raises(ShapeError):
        f + Cochain.zero(T2, Z2, 2)
    with pytest.raises(ShapeError):
        Cochain(T2, Z2, 1, ((0,),))
    with pytest.raises(ShapeError):
        Cochain(T2, Z2, 1, ((0, 0), (1, 1)))


def test_normalization_predicates():
    f = Cochain.from_callable(Z4LCS, Z2, 2, lambda a, b: (b % 2,))
    assert f.is_linear_in_last()
    assert not f.is_normalized()
    assert f.degenerate_violation() == (0, 1)
    g = Cochain.from_callable(Z4LCS, Z2, 2, lambda a, b: ((a % 2) * (b % 2),))
    assert g.is_normalized()


def test_frozen_degree_two_cohomology():
    assert reduced_cohomology(Z4LCS, Z2, 2) == [2, 2]
    assert reduced_cohomology(T2, Z2, 2) == [2]
    assert reduced_cohomology(T3, Z2, 2) == []
    assert reduced_cohomology(T3, Z3, 2) == [3]
    assert reduced_cohomology(builtin_structure("trivial(4)"), Z2, 2) == [2]


def test_frozen_degree_one_groups():
    # degree one has no coboundaries: the group is Hom(A, coefficients)
    assert reduced_cohomology(T2, Z2, 1) == [2]
    assert reduced_cohomology(T3, Z2, 1) == []
    assert reduced_cohomology(Z4LCS, Z2, 1) == [2]
    # only the doubling maps commute with every translation
    assert reduced_cohomology(Z4LCS, Z4, 1) == [2]


def test_normalized_matches_plain_in_degree_two():
    # the normalized tuple system against the resolved groups
    for _, s in standard_corpus():
        system = tuple_system(s, 2, True)[0]
        for g in (Z2, Z4):
            plain = reduced_cohomology(s, g, 2, normalized=False)
            assert reduced_cohomology(s, g, 2, normalized=True) == plain
            norm = merge_invariants(*(reduced._invariants(system, m) for m in g.factors))
            assert plain == norm, (s.order, g.factors)


def test_homology_equals_cohomology_over_cyclic_coefficients():
    # Hom(-, Z/m) is exact on Z/m-modules, so the invariant factors of
    # degree-k homology and cohomology must coincide.  The library reads
    # homology as cohomology; the oracle reads it off the chains of the
    # plain and the normalized tuple systems.
    for _, s in standard_corpus():
        top = 4 if s.order <= 3 else 3
        for k in range(1, top):
            systems = [tuple_system(s, k, normalized)[0] for normalized in (False, True)]
            for m in (2, 3, 4):
                g = FiniteAbelianGroup((m,))
                coh = reduced_cohomology(s, g, k)
                for normalized, system in zip((False, True), systems):
                    assert reduced_homology(s, g, k, normalized) == coh
                    assert homology(system, m) == coh, (s.order, m, k, normalized)


def brute_cohomology_order(s, m, k, normalized=False):
    """Order and exponent of degree-k cohomology by raw enumeration."""
    n = s.order
    g = FiniteAbelianGroup((m,))
    down = reduced_boundary_matrix(s, k + 1).transpose()

    def members(degree):
        out = []
        bad = set(degenerate_indices(s, degree)) if normalized else set()
        for vals in itertools.product(range(m), repeat=n**degree):
            if any(vals[i] for i in bad):
                continue
            c = Cochain(s, g, degree, tuple((v,) for v in vals))
            if c.is_linear_in_last():
                out.append(list(vals))
        return out

    cocycles = [v for v in members(k) if all(x % m == 0 for x in down.apply(v))]
    if k >= 2:
        up = reduced_boundary_matrix(s, k).transpose()
        boundaries = {tuple(x % m for x in up.apply(v)) for v in members(k - 1)}
    else:
        boundaries = {tuple([0] * n**k)}
    classes = set()
    for v in cocycles:
        classes.add(min(tuple((a + b) % m for a, b in zip(v, d)) for d in boundaries))
    return len(classes)


def invariants_order(inv):
    out = 1
    for d in inv:
        out *= d
    return out


@pytest.mark.parametrize("spec", ["Z/2+Z/2", "Z/2+Z/4+Z/2"])
def test_each_distinct_factor_is_reduced_once(monkeypatch, spec):
    coeffs = parse_group_spec(spec)
    groups = [
        lambda c: reduced_cohomology(Z4LCS, c, 3),
        lambda c: full_cohomology(T2, c, 2),
        lambda c: cs_cohomology(T2, c, 2),
        lambda c: reduced_homology(Z4LCS, c, 2),
    ]
    calls = []
    original = reduced._subquotient_mod

    def counted(*args):
        calls.append(args[-1])
        return original(*args)

    monkeypatch.setattr(reduced, "_subquotient_mod", counted)
    for group in groups:
        alone = {m: group(FiniteAbelianGroup((m,))) for m in set(coeffs.factors)}
        calls.clear()
        assert group(coeffs) == merge_invariants(*(alone[m] for m in coeffs.factors))
        assert sorted(calls) == sorted(set(coeffs.factors))


@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_cohomology_against_enumeration_t2(m, k):
    inv = reduced_cohomology(T2, FiniteAbelianGroup((m,)), k)
    assert invariants_order(inv) == brute_cohomology_order(T2, m, k)


def test_cohomology_against_enumeration_t3():
    for k in (1, 2):
        inv = reduced_cohomology(T3, Z3, k)
        assert invariants_order(inv) == brute_cohomology_order(T3, 3, k)


def test_normalized_enumeration_t2():
    inv = reduced_cohomology(T2, Z2, 2, normalized=True)
    assert invariants_order(inv) == brute_cohomology_order(T2, 2, 2, normalized=True)


def test_cs_complex_frozen_values():
    assert cs_cocycle_group(Z4LCS, Z2, 2) == [2] * 13
    assert cs_cohomology(Z4LCS, Z2, 2) == [2] * 12


def test_cs_boundary_vanishes_on_trivial_dot():
    for k in (2, 3):
        mat = cs_chain_matrix(T2, k)
        assert mat == IntegerMatrix.zeros(mat.rows, mat.cols)
    assert cs_cohomology(T2, Z2, 2) == [2, 2, 2, 2]
    assert cs_cohomology(T3, Z3, 1) == [3, 3, 3]


def test_cs_degree_two_expansion():
    # only the first entry acts; the last entry never does
    mat = cs_chain_matrix(Z4LCS, 2)
    for a in range(4):
        for b in range(4):
            expected = [0, 0, 0, 0]
            expected[Z4LCS.dot[a][b]] += 1
            expected[b] -= 1
            assert [mat.data[i][4 * a + b] for i in range(4)] == expected


def test_cs_degree_three_expansion():
    # entries act left to right with alternating signs
    mat = cs_chain_matrix(Z4LCS, 3)
    dot = Z4LCS.dot
    for t in all_tuples(4, 3):
        a, b, c = t
        expected = [0] * 16
        expected[4 * dot[a][b] + dot[a][c]] += 1
        expected[4 * b + c] -= 1
        expected[4 * dot[b][a] + dot[b][c]] -= 1
        expected[4 * a + c] += 1
        col = tuple_index(t, 4)
        assert [mat.data[i][col] for i in range(16)] == expected


def antisym_expansion(s, k):
    """Signed sum over permutations of all but the last coordinate."""
    n = s.order
    size = n**k
    data = [[0] * size for _ in range(size)]
    for col, t in enumerate(all_tuples(n, k)):
        for p in itertools.permutations(range(k - 1)):
            sign = 1
            for i in range(len(p)):
                for j in range(i + 1, len(p)):
                    if p[i] > p[j]:
                        sign = -sign
            u = tuple(t[p[i]] for i in range(k - 1)) + (t[k - 1],)
            data[tuple_index(u, n)][col] += sign
    return IntegerMatrix(size, size, data)


def test_antisymmetrization_matrix():
    assert antisymmetrization_matrix(T2, 2) == IntegerMatrix.identity(4)
    for s in (T2, Z4LCS):
        for k in (2, 3):
            assert antisymmetrization_matrix(s, k) == antisym_expansion(s, k)


def test_antisymmetrization_chain_map():
    for _, s in standard_corpus():
        for k in (2, 3):
            assert antisymmetrization_is_chain_map(s, k), (s.order, k)


def test_antisymmetrization_chain_map_refuses_a_perturbed_matrix(monkeypatch):
    # The transposition in the degree-3 antisymmetrization with the wrong
    # sign: the differences of the two composites leave the linearity
    # lattice, on both paths.
    real = reduced._antisymmetrization_faces

    def perturbed(k):
        faces = real(k)
        if k == 3:
            sign, face = faces[1]
            faces[1] = (-sign, face)
        return faces

    monkeypatch.setattr(reduced, "_antisymmetrization_faces", perturbed)
    for s in (T3, Z4LCS):
        assert not antisymmetrization_is_chain_map(s, 3), s.order
        # the dense matrix is built from the same perturbed faces
        assert antisymmetrization_matrix(s, 3) != antisym_expansion(s, 3)
        lhs = reduced_boundary_matrix(s, 3) @ antisymmetrization_matrix(s, 3)
        rhs = antisymmetrization_matrix(s, 2) @ cs_chain_matrix(s, 3)
        diff = IntegerMatrix(
            lhs.rows, lhs.cols, [[x - y for x, y in zip(a, b)] for a, b in zip(lhs.data, rhs.data)]
        )
        tester = LatticeTester(linearity_rows(s, 2).transpose())
        assert not all(tester.contains(diff.column(c)) for c in range(diff.cols))


def test_linearity_rows_annihilate_generators():
    rows = linearity_rows(Z4LCS, 2)
    gens = kernel_mod_m(rows, 4)
    prod = rows @ gens
    for r in range(prod.rows):
        assert all(x % 4 == 0 for x in prod.data[r])


def test_degenerate_indices_t2():
    # tuples containing the neutral element 0
    assert list(degenerate_indices(T2, 2)) == [0, 1, 2]


def test_cochain_dict_roundtrip():
    f = Cochain.from_callable(Z4LCS, Z2, 2, lambda a, b: ((a % 2) * (b % 2),))
    data = f.to_dict()
    assert data["coeff"] == "Z/2"
    back = cochain_from_dict(data, Z4LCS)
    assert back == f
    also = cochain_from_dict(data, Z4LCS, Z2)
    assert also == f


def test_cochain_dict_multi_factor():
    g = FiniteAbelianGroup((2, 3))
    f = Cochain.from_callable(T2, g, 1, lambda a: (a, a))
    data = f.to_dict()
    assert data["values"][1] == [1, 1]
    assert cochain_from_dict(data, T2) == f


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(degree=0),
        lambda d: d.update(degree="2"),
        lambda d: d.update(coeff="Z/3"),
        lambda d: d.update(coeff=3),
        lambda d: d.update(extra=1),
        lambda d: d["values"].pop(),
        lambda d: d["values"].__setitem__(0, "x"),
        lambda d: d["values"].__setitem__(0, [1, 2]),
    ],
)
def test_cochain_dict_errors(mutate):
    f = Cochain.from_callable(T2, Z2, 2, lambda a, b: (a * b,))
    data = f.to_dict()
    mutate(data)
    with pytest.raises(MalformedTableError):
        cochain_from_dict(data, T2, Z2)


def test_cochain_dict_needs_some_coefficients():
    data = {"degree": 1, "values": [0, 1]}
    with pytest.raises(MalformedTableError):
        cochain_from_dict(data, T2)
    assert cochain_from_dict(data, T2, Z2)(1) == (1,)
