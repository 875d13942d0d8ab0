"""Oracle tests for the exact matrix layer.

The Smith reduction is checked against frozen examples and against its own
certificates (transforms, unimodularity, divisibility) on a seeded random
battery; kernels are compared with exhaustive enumeration on small
moduli, and the integer-lattice oracle of `lattice_oracle` is checked in
both its accept and reject directions beside the elimination path.
"""

import itertools
import random

import pytest

from lattice_oracle import integer_kernel, lattice_quotient_invariants, solution_lattice_mod
from lcscohom.errors import BudgetError, InvalidModulusError, LatticeError, ShapeError
from lcscohom.linalg import (
    IntegerMatrix,
    _prime_powers,
    LatticeTester,
    hstack,
    kernel_mod_m,
    smith_normal_form,
    solve_mod,
    subquotient_invariants,
    vstack,
)


def determinant(mat):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in mat.data]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def test_determinant_helper():
    assert determinant(IntegerMatrix.from_rows([[0, 1], [1, 0]])) == -1
    assert determinant(IntegerMatrix.from_rows([[2, 1, 1], [1, 1, 0], [1, 0, 2]])) == 1
    assert determinant(IntegerMatrix.from_rows([[1, 2], [2, 4]])) == 0
    assert determinant(IntegerMatrix.from_rows([[0, 0, 2], [0, 3, 0], [5, 0, 0]])) == -30
    assert determinant(IntegerMatrix.zeros(0, 0)) == 1


def check_decomposition(mat):
    dec = smith_normal_form(mat)
    assert (dec.u @ mat) @ dec.v == dec.s
    # unimodular transforms: U and V are invertible over the integers
    assert abs(determinant(dec.u)) == 1
    assert abs(determinant(dec.v)) == 1
    diag = dec.diagonal
    for i in range(dec.s.rows):
        for j in range(dec.s.cols):
            if i != j:
                assert dec.s.data[i][j] == 0
    for i, d in enumerate(diag):
        assert d >= 0
        if i + 1 < len(diag) and diag[i + 1]:
            assert diag[i + 1] % d == 0 if d else diag[i + 1] == 0
    return dec


def test_smith_frozen_example():
    dec = check_decomposition(IntegerMatrix.from_rows([[2, 4], [4, 8]]))
    assert dec.diagonal == [2, 0]


def test_smith_identity_and_zero():
    assert smith_normal_form(IntegerMatrix.identity(3)).diagonal == [1, 1, 1]
    assert smith_normal_form(IntegerMatrix.zeros(2, 3)).diagonal == [0, 0]
    check_decomposition(IntegerMatrix.zeros(0, 4))
    check_decomposition(IntegerMatrix.zeros(4, 0))


def test_smith_random_battery():
    rng = random.Random(20240817)
    for _ in range(120):
        rows = rng.randrange(1, 13)
        cols = rng.randrange(1, 13)
        mat = IntegerMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        check_decomposition(mat)


def brute_kernel(mat, m):
    members = set()
    for vec in itertools.product(range(m), repeat=mat.cols):
        if all(x % m == 0 for x in mat.apply(list(vec))):
            members.add(vec)
    return members


def span_of_columns(gens, m):
    zero = tuple([0] * gens.rows)
    span = {zero}
    frontier = [zero]
    cols = [tuple(gens.data[r][c] % m for r in range(gens.rows)) for c in range(gens.cols)]
    while frontier:
        new = []
        for e in frontier:
            for g in cols:
                s = tuple((x + y) % m for x, y in zip(e, g))
                if s not in span:
                    span.add(s)
                    new.append(s)
        frontier = new
    return span


def test_kernel_mod_m_frozen():
    gens = kernel_mod_m(IntegerMatrix.from_rows([[1, 1]]), 2)
    assert gens.to_lists() == [[1], [1]]


def test_kernel_mod_m_against_enumeration():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 6)
        m = rng.randrange(2, 5)
        mat = IntegerMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        )
        assert span_of_columns(kernel_mod_m(mat, m), m) == brute_kernel(mat, m)


def test_kernel_mod_m_unconstrained_is_identity():
    gens = kernel_mod_m(IntegerMatrix.zeros(2, 3), 4)
    assert span_of_columns(gens, 4) == set(itertools.product(range(4), repeat=3))


def test_integer_kernel():
    mat = IntegerMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    ker = integer_kernel(mat)
    assert ker.cols == 2
    for c in range(ker.cols):
        assert all(x == 0 for x in mat.apply(ker.column(c)))
    assert integer_kernel(IntegerMatrix.identity(3)).cols == 0
    # the same two statements mod 5 on the elimination path
    assert len(span_of_columns(kernel_mod_m(mat, 5), 5)) == 25
    assert kernel_mod_m(IntegerMatrix.identity(3), 5).cols == 0


def test_solution_lattice_mod():
    mat = IntegerMatrix.from_rows([[2, 1]])
    lat = solution_lattice_mod(mat, 4)
    assert lat.cols == 2
    for c in range(lat.cols):
        assert all(x % 4 == 0 for x in mat.apply(lat.column(c)))
    assert LatticeTester(lat).contains([0, 4])
    assert LatticeTester(lat).contains([1, 2])
    assert not LatticeTester(lat).contains([1, 1])
    span = span_of_columns(kernel_mod_m(mat, 4), 4)
    assert (0, 0) in span and (1, 2) in span
    assert (1, 1) not in span


def test_solve_mod_roundtrip():
    rng = random.Random(99)
    for _ in range(60):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = rng.randrange(2, 6)
        mat = IntegerMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        )
        x0 = [rng.randrange(m) for _ in range(cols)]
        rhs = [v % m for v in mat.apply(x0)]
        x = solve_mod(mat, rhs, m)
        assert x is not None
        assert [v % m for v in mat.apply(x)] == rhs


def test_solve_mod_unsolvable():
    assert solve_mod(IntegerMatrix.from_rows([[2]]), [1], 4) is None
    assert solve_mod(IntegerMatrix.from_rows([[2], [0]]), [0, 3], 4) is None


def test_solve_mod_shape_and_modulus():
    with pytest.raises(ShapeError):
        solve_mod(IntegerMatrix.identity(2), [1], 2)
    with pytest.raises(InvalidModulusError):
        solve_mod(IntegerMatrix.identity(2), [1, 0], 1)


def test_lattice_quotient_frozen():
    k = IntegerMatrix.identity(2)
    b = IntegerMatrix.from_rows([[2, 0], [0, 3]])
    assert lattice_quotient_invariants(k, b) == [6]
    assert subquotient_invariants(IntegerMatrix.zeros(0, 2), b, k, 6) == [6]


def test_lattice_quotient_errors():
    with pytest.raises(LatticeError):
        lattice_quotient_invariants(
            IntegerMatrix.from_rows([[2, 0], [0, 2]]),
            IntegerMatrix.identity(2),
        )
    with pytest.raises(LatticeError):
        lattice_quotient_invariants(
            IntegerMatrix.from_rows([[1, 0], [0, 0]]),
            IntegerMatrix.from_rows([[1, 0], [0, 0]]),
        )
    # containment fails on the elimination path too; rank cannot, every
    # group there is finite
    with pytest.raises(LatticeError):
        subquotient_invariants(
            IntegerMatrix.zeros(0, 2),
            IntegerMatrix.identity(2),
            IntegerMatrix.from_rows([[2, 0], [0, 2]]),
            4,
        )


def test_subquotient_frozen():
    d_out = IntegerMatrix.from_rows([[1, 1]])
    none_in = IntegerMatrix.zeros(2, 0)
    assert subquotient_invariants(d_out, none_in, IntegerMatrix.identity(2), 2) == [2]


def brute_subquotient_order(d_out, gens, m):
    span = span_of_columns(gens, m)
    return sum(
        1 for v in span if all(x % m == 0 for x in d_out.apply(list(v)))
    )


def test_subquotient_generator_set_independence():
    d_out = IntegerMatrix.from_rows([[1, 1, 0]])
    none_in = IntegerMatrix.zeros(3, 0)
    g1 = IntegerMatrix.identity(3)
    g2 = IntegerMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 2, 1]]).transpose()
    assert span_of_columns(g1, 4) == span_of_columns(g2, 4)
    inv1 = subquotient_invariants(d_out, none_in, g1, 4)
    inv2 = subquotient_invariants(d_out, none_in, g2, 4)
    assert inv1 == inv2
    order = 1
    for d in inv1:
        order *= d
    assert order == brute_subquotient_order(d_out, g1, 4)


def test_subquotient_splits_over_coprime_factors():
    rng = random.Random(3)
    for _ in range(15):
        rows = rng.randrange(1, 3)
        cols = rng.randrange(1, 4)
        d_out = IntegerMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        )
        none_in = IntegerMatrix.zeros(cols, 0)
        gens = IntegerMatrix.identity(cols)
        six = subquotient_invariants(d_out, none_in, gens, 6)
        two = subquotient_invariants(d_out, none_in, gens, 2)
        three = subquotient_invariants(d_out, none_in, gens, 3)
        from lcscohom.abelian import merge_invariants

        assert six == merge_invariants(two, three)


def test_contains_all_needs_every_column():
    tester = LatticeTester(IntegerMatrix.from_rows([[2, 0], [0, 3], [0, 0]]))
    inside = IntegerMatrix.from_rows([[2, 4, 0], [3, 0, -6], [0, 0, 0]])
    assert tester.contains_all(inside)
    for c in range(inside.cols):
        assert tester.contains(inside.column(c))
    for r, c, bump in ((0, 1, 1), (1, 2, 1), (2, 0, 5)):
        one_out = inside.copy()
        one_out.data[r][c] += bump
        assert not tester.contains_all(one_out), (r, c)
    assert tester.contains_all(IntegerMatrix.zeros(3, 0))
    with pytest.raises(ShapeError):
        tester.contains_all(IntegerMatrix.zeros(2, 1))


def test_stacking():
    a = IntegerMatrix.from_rows([[1, 2]])
    b = IntegerMatrix.from_rows([[3, 4]])
    assert vstack([a, b]).to_lists() == [[1, 2], [3, 4]]
    assert hstack([a.transpose(), b.transpose()]).to_lists() == [[1, 3], [2, 4]]
    with pytest.raises(ShapeError):
        vstack([a, IntegerMatrix.identity(3)])
    with pytest.raises(ShapeError):
        hstack([a, IntegerMatrix.identity(3)])


def test_modulus_guard():
    with pytest.raises(InvalidModulusError):
        kernel_mod_m(IntegerMatrix.identity(2), 1)


def _trial_division(m):
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def test_prime_powers_match_trial_division():
    rng = random.Random(4)
    moduli = list(range(2, 3000)) + [rng.randrange(2, 10**9) for _ in range(200)]
    moduli += [999983**2, 999983 * 1000003, 2**4 * 1000003**3]
    for m in moduli:
        assert _prime_powers(m) == _trial_division(m), m


M61 = 2**61 - 1  # prime
M31 = 2**31 - 1  # prime


def test_prime_powers_of_large_moduli():
    assert _prime_powers(M61) == ((M61, 1),)
    assert _prime_powers(M31 * M61) == ((M31, 1), (M61, 1))
    assert _prime_powers(12 * M31**2 * M61) == ((2, 2), (3, 1), (M31, 2), (M61, 1))
    # Two primes near 2^36: split within the rho budget.
    assert _prime_powers(68719476731 * 68719476767) == ((68719476731, 1), (68719476767, 1))


@pytest.mark.parametrize(
    "m",
    [
        2**89 - 1,  # prime, but past the exact Miller-Rabin bound
        1099511627689 * 1099511627791,  # two primes near 2^40: past the rho budget
        M61 * (2**89 - 1),
    ],
)
def test_prime_powers_refuse_what_they_cannot_factor_exactly(m):
    with pytest.raises(BudgetError):
        _prime_powers(m)
