"""Integer-lattice oracle for the elimination over Z/p^e.

This is the dense path the library used before its sparse elimination
kernel: a subgroup of (Z/m)^N is modelled by the integer lattice spanned
by its generators together with m*I, and quotients of nested full-rank
lattices yield invariant factors through a change of basis plus one more
Smith reduction.  The dense matrix type, the dense Smith normal form and
the membership tester built on it live here too, so the oracle shares
nothing with the library, and the property tests compare the two.
"""

from dataclasses import dataclass
from math import gcd

from lcscohom.errors import LatticeError, ShapeError


class IntegerMatrix:
    """A dense matrix of Python ints, wrapped as a list of row lists."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data=None):
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative matrix dimensions ({rows}, {cols})")
        if data is None:
            data = [[0] * cols for _ in range(rows)]
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        data = []
        for row in rows_list:
            if len(row) != cols:
                raise ShapeError("ragged rows in matrix literal")
            data.append([int(x) for x in row])
        return cls(rows, cols, data)

    @classmethod
    def from_columns(cls, nrows: int, cols_list):
        data = [[col[i] for col in cols_list] for i in range(nrows)]
        return cls(nrows, len(cols_list), data)

    @classmethod
    def identity(cls, n: int):
        data = [[0] * n for _ in range(n)]
        for i in range(n):
            data[i][i] = 1
        return cls(n, n, data)

    @classmethod
    def zeros(cls, rows: int, cols: int):
        return cls(rows, cols)

    def transpose(self):
        if not self.rows:
            return IntegerMatrix(self.cols, 0, [[] for _ in range(self.cols)])
        return IntegerMatrix(self.cols, self.rows, [list(col) for col in zip(*self.data)])

    def scaled(self, k: int):
        return IntegerMatrix(self.rows, self.cols, [[k * x for x in row] for row in self.data])

    def column(self, j: int):
        return [row[j] for row in self.data]

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def apply(self, vec):
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ShapeError(f"vector of length {len(vec)} against {self.cols} columns")
        out = []
        for row in self.data:
            acc = 0
            for a, x in zip(row, vec):
                if a and x:
                    acc += a * x
            out.append(acc)
        return out

    def __matmul__(self, other):
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape()} by {other.shape()}")
        out = [[0] * other.cols for _ in range(self.rows)]
        bdata = other.data
        width = other.cols
        for i in range(self.rows):
            arow = self.data[i]
            orow = out[i]
            for k in range(self.cols):
                a = arow[k]
                if not a:
                    continue
                brow = bdata[k]
                if a == 1:
                    for j in range(width):
                        orow[j] += brow[j]
                elif a == -1:
                    for j in range(width):
                        orow[j] -= brow[j]
                else:
                    for j in range(width):
                        orow[j] += a * brow[j]
        return IntegerMatrix(self.rows, other.cols, out)

    def shape(self):
        return (self.rows, self.cols)

    def to_lists(self):
        return [row[:] for row in self.data]

    def __eq__(self, other):
        return (
            isinstance(other, IntegerMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"IntegerMatrix({self.rows}x{self.cols})"


def hstack(mats):
    """Dense matrices with equal row counts, side by side."""
    mats = [m for m in mats if m.cols or m.rows]
    if not mats:
        return IntegerMatrix(0, 0)
    rows = mats[0].rows
    for m in mats:
        if m.rows != rows:
            raise ShapeError("hstack needs equal row counts")
    data = [sum((m.data[i] for m in mats), []) for i in range(rows)]
    return IntegerMatrix(rows, sum(m.cols for m in mats), data)


@dataclass
class SmithDecomposition:
    """Unimodular U, V with U @ M @ V = S diagonal, d1 | d2 | ... >= 0."""

    u: IntegerMatrix
    s: IntegerMatrix
    v: IntegerMatrix

    @property
    def diagonal(self):
        return [self.s.data[i][i] for i in range(min(self.s.rows, self.s.cols))]

    @property
    def rank(self):
        return sum(1 for d in self.diagonal if d)


def smith_normal_form(mat: IntegerMatrix) -> SmithDecomposition:
    """Compute the Smith normal form with full transform bookkeeping.

    Pivots of least magnitude are pulled to the diagonal; row and column
    reductions alternate until the pivot divides its whole row and column,
    and a final sweep folds any entry the pivot does not divide back into
    the pivot row.  This keeps every diagonal entry dividing the next.

    >>> d = smith_normal_form(IntegerMatrix.from_rows([[2, 4], [4, 8]]))
    >>> d.diagonal
    [2, 0]
    >>> (d.u @ IntegerMatrix.from_rows([[2, 4], [4, 8]]) @ d.v) == d.s
    True
    """
    nr, nc = mat.rows, mat.cols
    a = [row[:] for row in mat.data]
    u = IntegerMatrix.identity(nr).data
    v = IntegerMatrix.identity(nc).data

    def row_add(dst, src, q):
        # row dst += q * row src
        rd, rs = a[dst], a[src]
        for t in range(nc):
            rd[t] += q * rs[t]
        rd, rs = u[dst], u[src]
        for t in range(nr):
            rd[t] += q * rs[t]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def col_add(dst, src, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    limit = min(nr, nc)
    while t < limit:
        # find a smallest-magnitude pivot in the trailing block
        pivot = None
        best = 0
        for i in range(t, nr):
            row = a[i]
            for j in range(t, nc):
                x = row[j]
                if x and (pivot is None or abs(x) < best):
                    pivot = (i, j)
                    best = abs(x)
                    if best == 1:
                        break
            if best == 1 and pivot is not None:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if a[t][t] < 0:
            row_negate(t)

        while True:
            # clear column t below the pivot, then row t to its right;
            # a nonzero remainder becomes the new, strictly smaller pivot
            restart = False
            piv = a[t][t]
            for i in range(t + 1, nr):
                x = a[i][t]
                if x:
                    q = x // piv
                    if q:
                        row_add(i, t, -q)
                    if a[i][t]:
                        row_swap(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, nc):
                x = a[t][j]
                if x:
                    q = x // piv
                    if q:
                        col_add(j, t, -q)
                    if a[t][j]:
                        col_swap(t, j)
                        restart = True
                        break
            if restart:
                continue
            # pivot must divide the whole trailing block before moving on
            piv = a[t][t]
            offender = None
            for i in range(t + 1, nr):
                row = a[i]
                for j in range(t + 1, nc):
                    if row[j] % piv:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        t += 1

    return SmithDecomposition(
        u=IntegerMatrix(nr, nr, u),
        s=IntegerMatrix(nr, nc, a),
        v=IntegerMatrix(nc, nc, v),
    )


class LatticeTester:
    """Membership tests against the integer lattice spanned by some generators.

    One Smith reduction of the generator matrix up front; a vector lies in
    the lattice when its image under U is divisible, coordinate by
    coordinate, by the Smith diagonal (and zero past the rank).
    """

    def __init__(self, generators: IntegerMatrix):
        self.ambient = generators.rows
        dec = smith_normal_form(generators)
        self._u = dec.u
        self._diag = dec.diagonal

    def _divisible(self, i: int, values) -> bool:
        d = self._diag[i] if i < len(self._diag) else 0
        if d == 0:
            return not any(values)
        return d == 1 or not any(x % d for x in values)

    def contains(self, vec) -> bool:
        if len(vec) != self.ambient:
            raise ShapeError("vector does not live in the lattice's ambient space")
        return all(self._divisible(i, (x,)) for i, x in enumerate(self._u.apply(vec)))

    def contains_all(self, mat: IntegerMatrix) -> bool:
        """Whether every column of mat lies in the lattice, from one U @ mat."""
        if mat.rows != self.ambient:
            raise ShapeError("vectors do not live in the lattice's ambient space")
        return all(self._divisible(i, row) for i, row in enumerate((self._u @ mat).data))


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
