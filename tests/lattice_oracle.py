"""Integer-lattice oracle for the elimination over Z/p^e.

This is the dense path the library used before its sparse elimination
kernel: a subgroup of (Z/m)^N is modelled by the integer lattice spanned
by its generators together with m*I, and quotients of nested full-rank
lattices yield invariant factors through a change of basis plus one more
Smith reduction.  It shares nothing with the kernel except the Smith
normal form, so the property tests compare the two.
"""

from math import gcd

from lcscohom.errors import LatticeError, ShapeError
from lcscohom.linalg import IntegerMatrix, hstack, smith_normal_form


def integer_kernel(mat: IntegerMatrix) -> IntegerMatrix:
    """Basis of {x in Z^cols : mat @ x == 0}, as matrix columns."""
    n = mat.cols
    if n == 0:
        return IntegerMatrix(0, 0)
    dec = smith_normal_form(mat)
    diag = dec.diagonal
    cols = []
    for i in range(n):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            cols.append(dec.v.column(i))
    return IntegerMatrix.from_columns(n, cols)


def solution_lattice_mod(mat: IntegerMatrix, m: int) -> IntegerMatrix:
    """Basis of the full lattice {y in Z^cols : mat @ y == 0 mod m}."""
    n = mat.cols
    dec = smith_normal_form(mat)
    diag = dec.diagonal
    data = [[0] * n for _ in range(n)]
    for i in range(n):
        di = diag[i] if i < len(diag) else 0
        c = m // gcd(di, m)
        for t in range(n):
            data[t][i] = dec.v.data[t][i] * c
    return IntegerMatrix(n, n, data)


def lattice_quotient_invariants(k_gens: IntegerMatrix, b_gens: IntegerMatrix):
    """Invariant factors (> 1) of K / B for nested full-rank lattices.

    Failure of containment or of full rank raises LatticeError.
    """
    n = k_gens.rows
    if b_gens.rows != n:
        raise ShapeError("lattice generator matrices must share their ambient space")
    if n == 0:
        return []
    dec = smith_normal_form(k_gens)
    diag = dec.diagonal
    if len(diag) < n or any(d == 0 for d in diag):
        raise LatticeError("enclosing lattice is not of full rank, quotient is infinite")
    t = dec.u @ b_gens
    xdata = []
    for i in range(n):
        row = []
        for j in range(t.cols):
            q, r = divmod(t.data[i][j], diag[i])
            if r:
                raise LatticeError("generators are not contained in the enclosing lattice")
            row.append(q)
        xdata.append(row)
    d2 = smith_normal_form(IntegerMatrix(n, b_gens.cols, xdata)).diagonal
    if len(d2) < n or any(d == 0 for d in d2):
        raise LatticeError("inner lattice is not of full rank, quotient is infinite")
    return [d for d in d2 if d > 1]


def constrained_lattice(d_out: IntegerMatrix, generators: IntegerMatrix, m: int):
    """Lattice of {x : x in <generators> + mZ^N and d_out @ x == 0 mod m}."""
    n = generators.rows
    m_g = hstack([generators, IntegerMatrix.identity(n).scaled(m)])
    if d_out.rows == 0 or d_out.is_zero():
        return m_g
    return m_g @ solution_lattice_mod(d_out @ m_g, m)


def subquotient_invariants(d_out, d_in, generators, m):
    """(ker d_out intersected with <generators>) / im d_in over Z/m."""
    n = generators.rows
    if n == 0:
        return []
    m_b = hstack([d_in, IntegerMatrix.identity(n).scaled(m)])
    return lattice_quotient_invariants(constrained_lattice(d_out, generators, m), m_b)
