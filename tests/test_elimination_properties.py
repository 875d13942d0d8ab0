"""Property tests: the exact kernels against independent oracles.

Random small systems mod 2, 4, 8, 9, 12 and 27 (prime, prime-power and
composite moduli).  Kernels must span the oracle's solution lattice mod m,
subquotients with an image inside the kernel must give the oracle's
invariant factors, and an image with one column outside the kernel must
raise LatticeError on both paths.  Integer-span membership must agree with
the oracle's Smith-form tester, and the least solution mod m with a brute
force search, each seeing both verdicts.  Over Z/m the same span's least
coset elements and order must agree with the span enumerated outright,
for vectors inside it and outside it.
"""

import itertools

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dense_views import kernel_mod_m
from lattice_oracle import (
    IntegerMatrix,
    LatticeTester,
    constrained_lattice,
    hstack,
    solution_lattice_mod,
)
from lattice_oracle import subquotient_invariants as oracle_subquotient
from lcscohom.errors import LatticeError
from lcscohom.linalg import _IntegerSpan, _least_solver
from subquotient_route import subquotient_invariants

MODULI = (2, 4, 8, 9, 12, 27)
# moduli of the brute-force searches, which enumerate (Z/m)^3 at most
SMALL_MODULI = (2, 4, 6, 8, 9, 12)
PROPERTY = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


def matrices(rows, cols, bound):
    entry = st.integers(-bound, bound)
    return st.lists(
        st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda data: IntegerMatrix(rows, cols, data))


@st.composite
def systems(draw):
    """(m, d_out, generators, d_in) with every column of d_in in the kernel."""
    m = draw(st.sampled_from(MODULI))
    n = draw(st.integers(1, 6))
    d_out = draw(matrices(draw(st.integers(0, 3)), n, m))
    generators = draw(matrices(n, draw(st.integers(1, 6)), m))
    lattice = constrained_lattice(d_out, generators, m)
    # a multiple of m * I adds nothing mod m; scaling by a divisor of m
    # leaves quotients with prime-power factors
    scale = draw(st.sampled_from([d for d in range(1, m) if m % d == 0]))
    coeffs = draw(matrices(lattice.cols, draw(st.integers(1, 3)), 3))
    return m, d_out, generators, (lattice @ coeffs).scaled(scale)


@PROPERTY
@given(st.sampled_from(MODULI), st.integers(1, 5), st.integers(1, 6), st.data())
def test_kernel_mod_m_spans_the_oracle_kernel(m, rows, cols, data):
    mat = data.draw(matrices(rows, cols, m))
    gens = kernel_mod_m(mat, m)
    assert gens.rows == cols
    assert all(0 <= x < m for row in gens.data for x in row)
    # every generator solves the system, and they reach every solution
    for c in range(gens.cols):
        assert all(x % m == 0 for x in mat.apply(gens.column(c)))
    span = LatticeTester(hstack([gens, IntegerMatrix.identity(cols).scaled(m)]))
    assert span.contains_all(solution_lattice_mod(mat, m))


@PROPERTY
@given(systems())
def test_contained_image_gives_the_oracle_invariants(system):
    m, d_out, generators, d_in = system
    assert subquotient_invariants(d_out, d_in, generators, m) == oracle_subquotient(
        d_out, d_in, generators, m
    )


@PROPERTY
@given(systems(), st.data())
def test_image_outside_the_kernel_is_refused(system, data):
    m, d_out, generators, d_in = system
    stray = data.draw(matrices(generators.rows, 1, m))
    assume(not LatticeTester(constrained_lattice(d_out, generators, m)).contains(stray.column(0)))
    d_in = hstack([d_in, stray])
    with pytest.raises(LatticeError):
        oracle_subquotient(d_out, d_in, generators, m)
    with pytest.raises(LatticeError):
        subquotient_invariants(d_out, d_in, generators, m)


def test_integer_span_membership_agrees_with_the_oracle():
    seen = set()

    @PROPERTY
    @given(st.integers(0, 4), st.integers(1, 4), st.data())
    def check(count, width, data):
        gens = data.draw(matrices(count, width, 4))
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=count, max_size=count))
        shift = data.draw(st.lists(st.integers(-2, 2), min_size=width, max_size=width))
        vec = [sum(c * row[k] for c, row in zip(coeffs, gens.data)) + d for k, d in enumerate(shift)]
        rows = [{c: x for c, x in enumerate(row) if x} for row in gens.data]
        verdict = _IntegerSpan(rows).contains({c: x for c, x in enumerate(vec) if x})
        assert verdict == LatticeTester(gens.transpose()).contains(vec)
        seen.add(verdict)

    check()
    assert seen == {True, False}


def test_least_solution_agrees_with_brute_force():
    seen = set()

    @PROPERTY
    @given(st.sampled_from(SMALL_MODULI), st.integers(1, 3), st.integers(1, 3), st.data())
    def check(m, n, rows, data):
        residues = st.lists(st.integers(0, m - 1), min_size=rows, max_size=rows)
        columns = data.draw(st.lists(residues, min_size=n, max_size=n))
        rhs = data.draw(residues)
        least = next(
            (
                list(x)
                for x in itertools.product(range(m), repeat=n)
                if all(
                    (sum(xj * col[r] for xj, col in zip(x, columns)) - rhs[r]) % m == 0
                    for r in range(rows)
                )
            ),
            None,
        )
        assert _least_solver([dict(enumerate(col)) for col in columns], m)(rhs) == least
        seen.add(least is not None)

    check()
    assert seen == {True, False}


def _enumerated_span(rows, m: int, width: int):
    """Every element of the span of rows over Z/m, as tuples, by closure."""
    span = {(0,) * width}
    frontier = list(span)
    while frontier:
        new = []
        for v in frontier:
            for row in rows:
                w = tuple((x + y) % m for x, y in zip(v, row))
                if w not in span:
                    span.add(w)
                    new.append(w)
        frontier = new
    return span


def test_span_mod_m_reduces_to_the_least_coset_element():
    seen = set()

    @PROPERTY
    @given(st.sampled_from(SMALL_MODULI), st.integers(0, 4), st.integers(1, 3), st.data())
    def check(m, count, width, data):
        entries = st.lists(st.integers(-m, 2 * m), min_size=width, max_size=width)
        rows = data.draw(st.lists(entries, min_size=count, max_size=count))
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=count, max_size=count))
        shift = data.draw(st.lists(st.integers(-1, 1), min_size=width, max_size=width))
        vec = [sum(c * row[k] for c, row in zip(coeffs, rows)) + d for k, d in enumerate(shift)]
        span = _enumerated_span(rows, m, width)
        least = min(tuple((x + y) % m for x, y in zip(vec, v)) for v in span)
        form = _IntegerSpan([{c: x for c, x in enumerate(row) if x} for row in rows], m)
        reduced = form.reduce({c: x for c, x in enumerate(vec) if x})
        assert tuple(reduced.get(c, 0) for c in range(width)) == least
        assert all(0 < x < m for x in reduced.values())
        assert form.order == len(span)
        seen.add(not any(least))

    check()
    assert seen == {True, False}
