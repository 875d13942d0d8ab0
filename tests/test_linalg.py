"""Oracle tests for the exact matrix layer.

The oracle's Smith reduction is checked against frozen examples and
against its own certificates (transforms, unimodularity, divisibility) on
a seeded random battery; kernels are compared with exhaustive enumeration
on small moduli, and the integer-lattice oracle of `lattice_oracle` is
checked in both its accept and reject directions beside the elimination
path.
"""

import itertools
import random

import pytest

from dense_views import kernel_mod_m
from lattice_oracle import (
    IntegerMatrix,
    LatticeTester,
    hstack,
    integer_kernel,
    lattice_quotient_invariants,
    smith_normal_form,
    solution_lattice_mod,
)
from lcscohom.errors import BudgetError, LatticeError, ShapeError
from lcscohom.linalg import (
    _eliminate,
    _IntegerSpan,
    _least_solver,
    _prime_powers,
    _quotient_invariants,
)
from subquotient_route import subquotient_invariants


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


def test_least_solution_roundtrip():
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
        x = _least_solver([dict(enumerate(col)) for col in mat.transpose().data], m)(rhs)
        assert x is not None
        assert [v % m for v in mat.apply(x)] == rhs


def test_least_solution_unsolvable():
    assert _least_solver([{0: 2}], 4)([1]) is None
    assert _least_solver([{0: 2}], 4)([0, 3]) is None
    # a row past the end of rhs is an equation with right-hand side 0
    assert _least_solver([{0: 1, 2: 1}], 4)([1]) is None
    assert _least_solver([{0: 1, 2: 1}, {2: 3}], 4)([1]) == [1, 1]


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


def sparse(vec):
    return {c: x for c, x in enumerate(vec) if x}


def quotient_oracle(k_gens, b_gens, q, width):
    """K / B over Z/q by the lattice oracle: each subgroup is the lattice
    spanned by its generators and q Z^width."""

    def lattice(gens):
        data = [[g.get(c, 0) for g in gens] for c in range(width)]
        columns = IntegerMatrix(width, len(gens), data)
        return hstack([columns, IntegerMatrix.identity(width).scaled(q)])

    return lattice_quotient_invariants(lattice(k_gens), lattice(b_gens))


# (k_gens, b_gens, p, e, invariants): over Z/8 and Z/27, K has pivots of
# valuation 1 and 2, and B repeats a generator
QUOTIENTS = [
    # K = <(2, 4), (0, 4)> = Z/4 + Z/2 and (4, 0) = 2 (2, 4)
    ([{0: 2, 1: 4}, {1: 4}], [{0: 4}, {0: 4}], 2, 3, [2, 2]),
    ([{0: 2, 1: 4}, {1: 4}], [{0: 2}, {0: 4}, {0: 2}], 2, 3, [2]),
    # K = <(4, 0), (4, 2)> = <(4, 0)> + <(0, 2)>
    ([{0: 4}, {0: 4, 1: 2}], [{1: 4}], 2, 3, [2, 2]),
    # K = <(3, 9), (0, 9)> = Z/9 + Z/3, (9, 0) = 3 (3, 9), (3, 0) = (3, 9) - (0, 9)
    ([{0: 3, 1: 9}, {1: 9}], [{0: 9}, {0: 9}, {0: 18}], 3, 3, [3, 3]),
    ([{0: 3, 1: 9}, {1: 9}], [{0: 3}, {0: 3}], 3, 3, [3]),
    # (9, 0, 26) = 3 (3, 9, 0) - (0, 0, 1) has order 27
    ([{0: 3, 1: 9}, {1: 9}, {2: 1}], [{0: 9, 2: 26}], 3, 3, [3, 9]),
    # an empty K or an empty B
    ([], [], 2, 3, []),
    ([], [{}], 3, 3, []),
    ([{0: 3, 1: 9}, {1: 9}], [], 3, 3, [3, 9]),
    ([{0: 1}, {0: 1}, {1: 2}], [{}], 2, 1, [2]),
]


@pytest.mark.parametrize("k_gens, b_gens, p, e, expected", QUOTIENTS)
def test_quotient_invariants_frozen(k_gens, b_gens, p, e, expected):
    assert _quotient_invariants(k_gens, b_gens, p, e) == expected
    width = 1 + max([c for g in k_gens + b_gens for c in g], default=0)
    assert quotient_oracle(k_gens, b_gens, p**e, width) == expected


def test_quotient_invariants_read_b_off_pivots_of_every_valuation():
    # K's generators are random multiples of p^v, and B random sums of
    # them, repeated; the lattice oracle decides K / B
    valuations = set()
    for p, e in ((2, 1), (2, 3), (3, 2), (3, 3), (5, 2)):
        rng = random.Random(31 * p + e)
        q = p**e
        for _ in range(40):
            width = rng.randrange(1, 5)
            k_gens = [
                sparse([p ** rng.randrange(e) * rng.randrange(q) % q for _ in range(width)])
                for _ in range(rng.randrange(4))
            ]
            b_gens = []
            for _ in range(rng.randrange(4)):
                mix = [rng.randrange(q) for _ in k_gens]
                combo = [sum(a * g.get(c, 0) for a, g in zip(mix, k_gens)) for c in range(width)]
                b = sparse([x % q for x in combo])
                b_gens += [b] * rng.randrange(1, 3)
            expected = quotient_oracle(k_gens, b_gens, q, width)
            assert _quotient_invariants(k_gens, b_gens, p, e) == expected, (k_gens, b_gens, q)
            pivots, _ = _eliminate([dict(g) for g in k_gens], p, e)
            valuations.update(v for _row, v, _tag, _col in pivots)
    assert valuations == {0, 1, 2}


def test_quotient_refuses_a_pivot_entry_that_p_to_v_does_not_divide():
    # b meets a pivot column of valuation v with an entry of lower valuation
    for k_gens, b, p, e in (
        ([{0: 2}], {0: 1}, 2, 3),
        ([{0: 2, 1: 4}, {1: 4}], {0: 2, 1: 2}, 2, 3),
        ([{0: 9, 1: 3}], {0: 3, 1: 1}, 3, 3),
    ):
        with pytest.raises(LatticeError, match="not contained"):
            _quotient_invariants(k_gens, [b], p, e)
        assert quotient_oracle(k_gens, [], p**e, 2) != quotient_oracle(k_gens + [b], [], p**e, 2)


def test_quotient_refuses_a_residue_off_the_pivot_columns():
    # b holds a column that no pivot clears: from the start, once the
    # pivot rows are taken off, or with K empty
    for k_gens, b, p, e in (
        ([{0: 1}], {1: 1}, 2, 3),
        ([{0: 1, 1: 1}], {0: 1}, 2, 1),
        ([{0: 3, 1: 9}], {0: 3}, 3, 3),
        ([], {0: 9}, 3, 3),
    ):
        with pytest.raises(LatticeError, match="not contained"):
            _quotient_invariants(k_gens, [{}, b], p, e)
        assert quotient_oracle(k_gens, [], p**e, 2) != quotient_oracle(k_gens + [b], [], p**e, 2)


def test_contains_all_needs_every_column():
    gens = IntegerMatrix.from_rows([[2, 0, 0], [0, 3, 0]])
    span = _IntegerSpan(sparse(row) for row in gens.data)
    inside = IntegerMatrix.from_rows([[2, 4, 0], [3, 0, -6], [0, 0, 0]])
    columns = [sparse(inside.column(c)) for c in range(inside.cols)]
    for col in columns:
        assert span.contains(col)
    for r, c, bump in ((0, 1, 1), (1, 2, 1), (2, 0, 5)):
        one_out = [dict(col) for col in columns]
        one_out[c][r] = one_out[c].get(r, 0) + bump
        assert not all(span.contains(col) for col in one_out), (r, c)
    assert span.contains({}) and span.contains({0: 0, 1: 0})
    # a pivot that the first row's entry does not divide merges by a gcd
    merged = _IntegerSpan([{0: 4, 1: 1}, {0: 6}])
    assert merged.contains({0: 2, 1: -1}) and merged.contains({0: 6})
    assert not merged.contains({0: 1}) and not merged.contains({1: 1, 2: 1})
    # 3 divides 6: the second row takes over as the pivot row
    swapped = _IntegerSpan([{0: 6, 1: 1}, {0: 3, 2: 1}])
    assert all(x for row in swapped.pivots.values() for x in row.values())
    assert swapped.contains({0: 6, 1: 1}) and swapped.contains({0: 3, 1: 1, 2: -1})
    assert not swapped.contains({1: 1}) and not swapped.contains({0: 3})


def test_stacking():
    # the oracles' hstack
    a = IntegerMatrix.from_rows([[1, 2]])
    b = IntegerMatrix.from_rows([[3, 4]])
    assert hstack([a.transpose(), b.transpose()]).to_lists() == [[1, 3], [2, 4]]
    assert hstack([a, IntegerMatrix(1, 0), b]).to_lists() == [[1, 2, 3, 4]]
    with pytest.raises(ShapeError):
        hstack([a, IntegerMatrix.identity(3)])


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


def test_prime_powers_factor_once_and_refuse_every_time():
    m = 2**4 * 1000003**3
    first = _prime_powers(m)
    hits = _prime_powers.cache_info().hits
    assert _prime_powers(m) is first
    assert _prime_powers.cache_info().hits == hits + 1
    # a refusal raises on each call, since the cache keeps no exception
    unfactorable = 1099511627689 * 1099511627791
    for _ in range(2):
        with pytest.raises(BudgetError):
            _prime_powers(unfactorable)
