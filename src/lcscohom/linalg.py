"""Exact linear algebra over Z/m: one sparse elimination kernel.

Every invariant the package reports is a finite abelian group over Z/m
coefficients.  Z/m splits by the Chinese remainder theorem into local
rings Z/p^e, and over Z/p^e a pivot of least p-valuation divides every
entry left, so a single elimination pass on sparse {column: entry} rows
with entries below p^e decides ranks, kernels and orders of subgroups.
Quotients K / B come from the orders of p^i K + B.  No floating point is
used anywhere.

Where an answer must be the lexicographically least element of a coset,
as for equivalence witnesses and class representatives of extensions, a
Howell form over Z/m itself does the work: lexicographic order does not
survive a split of Z/m into its prime powers.

The dense integer Smith normal form stays for the two integer-lattice
questions: membership tests (`LatticeTester`) and one particular
solution of a linear system mod m (`solve_mod`).
"""

import heapq
from dataclasses import dataclass
from itertools import compress
from math import gcd

from .abelian import merge_invariants
from .errors import BudgetError, InvalidModulusError, LatticeError, ShapeError

__all__ = [
    "IntegerMatrix",
    "SmithDecomposition",
    "smith_normal_form",
    "kernel_mod_m",
    "solve_mod",
    "LatticeTester",
    "subquotient_invariants",
    "hstack",
    "vstack",
]


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

    def copy(self):
        return IntegerMatrix(self.rows, self.cols, [row[:] for row in self.data])

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
    mats = [m for m in mats if m.cols or m.rows]
    if not mats:
        return IntegerMatrix(0, 0)
    rows = mats[0].rows
    for m in mats:
        if m.rows != rows:
            raise ShapeError("hstack needs equal row counts")
    data = [sum((m.data[i] for m in mats), []) for i in range(rows)]
    return IntegerMatrix(rows, sum(m.cols for m in mats), data)


def vstack(mats):
    mats = [m for m in mats if m.rows]
    if not mats:
        return IntegerMatrix(0, 0)
    cols = mats[0].cols
    for m in mats:
        if m.cols != cols:
            raise ShapeError("vstack needs equal column counts")
    data = []
    for m in mats:
        data.extend(row[:] for row in m.data)
    return IntegerMatrix(len(data), cols, data)


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


def _check_modulus(m: int):
    if not isinstance(m, int) or m < 2:
        raise InvalidModulusError(f"modulus must be an integer >= 2, got {m!r}")


# Trial division runs below this bound; a cofactor left over is split by
# Pollard's rho and proved prime by Miller-Rabin.
_TRIAL_BOUND = 1000
# Miller-Rabin with the primes up to 41 as bases decides primality exactly
# below this bound (Sorenson and Webster, 2015).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3317044064679887385961981
# Rho budget per cofactor, over all restarts, in iterations times the
# square of the cofactor's size in 128-bit words (about the cost of one
# product).  Rho needs about sqrt(p) iterations to split off a prime p,
# so a cofactor below 2^128 reaches p near 2^36.  A cofactor it cannot
# split costs at most about 0.2 s on a 2 GHz core, whatever its size.
_RHO_STEPS = 1 << 18
_RHO_BATCH = 64


def _is_prime(n: int) -> bool:
    """Miller-Rabin, exact for _TRIAL_BOUND < n < _MILLER_RABIN_LIMIT."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int):
    """A proper factor of n by Pollard's rho with Floyd cycle finding and
    batched gcds, or None when the _RHO_STEPS budget finds none."""
    budget = _RHO_STEPS // (n.bit_length() // 128 + 1) ** 2
    steps = 0
    c = 0
    while steps < budget:
        c += 1
        x = y = 2
        g = 1
        while g == 1 and steps < budget:
            start, q = (x, y), 1
            for _ in range(_RHO_BATCH):
                x = (x * x + c) % n
                y = (y * y + c) % n
                y = (y * y + c) % n
                q = q * (x - y) % n
            steps += _RHO_BATCH
            g = gcd(q, n)
        if g == n:
            # The batch overshot: replay it one gcd at a time.
            x, y = start
            g = 1
            while g == 1:
                x = (x * x + c) % n
                y = (y * y + c) % n
                y = (y * y + c) % n
                g = gcd(x - y, n)
        if 1 < g < n:
            return g
    return None


def _prime_powers(m: int):
    """The (p, e) pairs of the factorization m = product of p**e, p ascending.

    Raises BudgetError when m has a factor that neither splits within the
    rho budget nor is small enough for Miller-Rabin to prove prime.
    """
    found = {}
    p = 2
    while p < _TRIAL_BOUND and p * p <= m:
        while m % p == 0:
            m //= p
            found[p] = found.get(p, 0) + 1
        p += 1
    pending = [m] if m > 1 else []
    while pending:
        q = pending.pop()
        if q < _TRIAL_BOUND**2 or (q < _MILLER_RABIN_LIMIT and _is_prime(q)):
            found[q] = found.get(q, 0) + 1
            continue
        d = _rho_factor(q)
        if d is None:
            raise BudgetError(
                f"cannot factor the modulus exactly: its factor {q} neither"
                " splits within the search budget nor is small enough to prove prime"
            )
        pending += [d, q // d]
    return tuple(sorted(found.items()))


def _sparse_columns(mat: IntegerMatrix):
    """The columns of a dense matrix as {row: entry} dicts of its nonzeros."""
    cols = [{} for _ in range(mat.cols)]
    every = range(mat.cols)
    for i, row in enumerate(mat.data):
        for j in compress(every, row):
            cols[j][i] = row[j]
    return cols


def _mod(vec: dict, q: int) -> dict:
    out = {}
    for c, x in vec.items():
        x %= q
        if x:
            out[c] = x
    return out


def _scaled(vec: dict, k: int, q: int) -> dict:
    return _mod({c: k * x for c, x in vec.items()}, q)


def _eliminate(rows, p: int, e: int, tags=None):
    """Row-reduce sparse rows over the local ring Z/p^e.

    `rows` are {column: entry} dicts with entries in [1, p^e); they and
    the optional parallel `tags` are consumed.  Phase v pivots on entries
    of p-valuation exactly v, shortest row first and, within it, the
    column shared by the fewest rows; such a pivot divides every entry
    still active, so it clears its column from all the other rows.  Each
    tag follows its row through the same combinations.

    Returns (pivots, zero_tags): pivots as (row, valuation, tag) in pivot
    order, each pivot column absent from every later pivot row, and the
    tags of the rows that reduced to zero.  The rows span a group of
    order p^(sum of e - valuation).  With rows A^T and tags the identity,
    the zero tags and p^(e - v) times the pivot tags generate ker A.

    The rows of A^T for A = [[2, 4], [1, 2]] over Z/8: the unit pivot 1
    clears the second row, whose tag (6, 1) then spans ker A.

    >>> pivots, zeros = _eliminate([{0: 2, 1: 1}, {0: 4, 1: 2}], 2, 3, [{0: 1}, {1: 1}])
    >>> [(row, v) for row, v, _tag in pivots], zeros == [{0: 6, 1: 1}]
    ([({0: 2, 1: 1}, 0)], True)
    """
    q = p**e
    if tags is None:
        tags = [None] * len(rows)
    where = {}  # column -> ids of the active rows with an entry there
    for i, row in enumerate(rows):
        for c in row:
            where.setdefault(c, set()).add(i)
    active = set(range(len(rows)))
    pivots = []
    for v in range(e):
        pv = p**v
        heap = [(len(rows[i]), i) for i in active if rows[i]]
        heapq.heapify(heap)
        while heap:
            length, i = heapq.heappop(heap)
            row = rows[i]
            if i not in active or len(row) != length:
                continue
            col, best = None, 0
            for c, x in row.items():
                if x % (pv * p) and (col is None or len(where[c]) < best):
                    col, best = c, len(where[c])
            if col is None:
                continue
            active.discard(i)
            for c in row:
                where[c].discard(i)
            inv = pow(row[col] // pv, -1, q)
            tag = tags[i]
            for j in list(where[col]):
                other = rows[j]
                f = other[col] // pv * inv % q
                for c, x in row.items():
                    y = (other.get(c, 0) - f * x) % q
                    if y:
                        if c not in other:
                            where[c].add(j)
                        other[c] = y
                    elif c in other:
                        del other[c]
                        where[c].discard(j)
                if tag is not None:
                    t = tags[j]
                    for c, x in tag.items():
                        y = (t.get(c, 0) - f * x) % q
                        if y:
                            t[c] = y
                        else:
                            t.pop(c, None)
                heapq.heappush(heap, (len(other), j))
            pivots.append((row, v, tag))
    return pivots, [tags[i] for i in sorted(active)]


def _kernel_tags(rows, tags, p: int, e: int):
    """Generators of {sum a_i tags_i : sum a_i rows_i == 0 mod p^e}."""
    pivots, zeros = _eliminate(rows, p, e, tags)
    q = p**e
    out = [t for t in zeros if t]
    for _row, v, tag in pivots:
        if v:
            t = _scaled(tag, p ** (e - v), q)
            if t:
                out.append(t)
    return out


def _log_order(rows, p: int, e: int):
    """log_p of the order of the span of rows over Z/p^e, and an echelon
    basis of that span."""
    pivots, _ = _eliminate([dict(r) for r in rows], p, e)
    return sum(e - v for _row, v, _tag in pivots), [row for row, _v, _tag in pivots]


def _quotient_invariants(k_gens, b_gens, p: int, e: int):
    """Invariant factors of K / B over Z/p^e from the orders of p^i K + B.

    |p^i (K/B)| = |p^i K + B| / |B|, and the drop from p^i to p^(i+1)
    counts the cyclic factors of order above p^i.  B must lie in K.
    """
    q = p**e
    log_k, k_rows = _log_order(k_gens, p, e)
    log_b, b_rows = _log_order(b_gens, p, e)
    logs = []
    for i in range(e):
        scaled = [_scaled(r, p**i, q) for r in k_rows]
        logs.append(_log_order([r for r in scaled if r] + b_rows, p, e)[0])
    if logs[0] != log_k:
        raise LatticeError("generators are not contained in the enclosing subgroup")
    logs.append(log_b)
    above = [logs[i] - logs[i + 1] for i in range(e)] + [0]
    return [p**t for t in range(1, e + 1) for _ in range(above[t - 1] - above[t])]


def _subquotient_mod(rows, tags, bound, m: int):
    """Invariant factors over Z/m of K / B, where K is generated by the
    combinations of `tags` whose matching combination of `rows` vanishes
    and B by `bound`; all three are lists of integer {index: entry} dicts.
    The work splits over the prime powers of m."""
    parts = []
    for p, e in _prime_powers(m):
        q = p**e
        k_gens = _kernel_tags([_mod(r, q) for r in rows], [_mod(t, q) for t in tags], p, e)
        parts.append(_quotient_invariants(k_gens, [_mod(b, q) for b in bound], p, e))
    return merge_invariants(*parts)


def kernel_mod_m(mat: IntegerMatrix, m: int) -> IntegerMatrix:
    """Generators of {x in (Z/m)^cols : mat @ x == 0 mod m}.

    Columns of the result generate the kernel subgroup; entries are reduced
    into [0, m).  The kernel is computed per prime power of m and the parts
    are glued by the Chinese remainder theorem, generator i of every part
    into column i, so the result for an unconstrained coordinate system is
    the identity.

    >>> kernel_mod_m(IntegerMatrix.from_rows([[1, 1]]), 2).to_lists()
    [[1], [1]]
    """
    _check_modulus(m)
    n = mat.cols
    if n == 0:
        return IntegerMatrix(0, 0)
    cols = _sparse_columns(mat)
    glued = []
    for p, e in _prime_powers(m):
        q = p**e
        lift = m // q * pow(m // q, -1, q)  # 1 mod q, 0 mod m/q
        rows = [_mod(c, q) for c in cols]
        for i, gen in enumerate(_kernel_tags(rows, [{j: 1} for j in range(n)], p, e)):
            if i == len(glued):
                glued.append([0] * n)
            for c, x in gen.items():
                glued[i][c] = (glued[i][c] + lift * x) % m
    return IntegerMatrix.from_columns(n, glued)


def _gcdex(a: int, b: int):
    """(g, s, t) with g = gcd(a, b) = s*a + t*b."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _unit_to_gcd(a: int, m: int) -> int:
    """A unit w of Z/m with w*a == gcd(a, m) (mod m)."""
    d, s, _t = _gcdex(a, m)
    step = m // d  # s is a unit mod m/d; some s + k*m/d is one mod m
    while gcd(s, m) != 1:
        s += step
    return s % m


class _HowellForm:
    """The Howell form over Z/m of the span L of some dense rows.

    Column by column, one extended-gcd row operation per pair merges the
    rows with an entry there into one pivot row, which a unit scales to
    the pivot d = gcd(entry, m).  The pivot row times m/d is zero in that
    column and is pushed back into the remaining rows.  That keeps the
    Howell property: the pivot rows from column c on span exactly the
    elements of L that vanish before column c.  So `reduce` brings each
    pivot coordinate into [0, d) in turn and returns the lexicographically
    least element of vec + L, the same for every vector of the coset.

    Over Z/4 the row (2, 1) spans {0, (2, 1), (0, 2), (2, 3)}; the pushed
    row 2 * (2, 1) = (0, 2) gives the second pivot.

    >>> form = _HowellForm([[2, 1]], 4, 2)
    >>> form.pivots, form.order
    ([(0, [2, 1]), (1, [0, 2])], 4)
    >>> form.reduce([3, 3]), form.reduce([1, 1])
    ([1, 0], [1, 1])
    """

    def __init__(self, rows, m: int, width: int):
        self.m = m
        pool = [r for r in ([x % m for x in row] for row in rows) if any(r)]
        self.pivots = []  # (column, row) with row[column] = d dividing m
        for col in range(width):
            live = [r for r in pool if r[col]]
            if not live:
                continue
            pool = [r for r in pool if not r[col]]
            head = live[0]
            for row in live[1:]:
                g, s, t = _gcdex(head[col], row[col])
                u, v = head[col] // g, row[col] // g
                head, row = (
                    [(s * x + t * y) % m for x, y in zip(head, row)],
                    [(u * y - v * x) % m for x, y in zip(head, row)],
                )
                if any(row):
                    pool.append(row)
            w = _unit_to_gcd(head[col], m)
            head = [w * x % m for x in head]
            spare = [m // head[col] * x % m for x in head]
            if any(spare):
                pool.append(spare)
            self.pivots.append((col, head))

    @property
    def order(self) -> int:
        """The order of L: the product of m / d over the pivots d."""
        out = 1
        for col, row in self.pivots:
            out *= self.m // row[col]
        return out

    def reduce(self, vec):
        """The lexicographically least element of vec + L, entries in [0, m)."""
        m = self.m
        vec = [x % m for x in vec]
        for col, row in self.pivots:
            q = vec[col] // row[col]
            if q:
                vec = [(x - q * y) % m for x, y in zip(vec, row)]
        return vec


def solve_mod(mat: IntegerMatrix, rhs, m: int):
    """One solution x of mat @ x == rhs (mod m), or None when there is none.

    Solves [mat | m*I] w = rhs over the integers through the Smith form and
    keeps the first block of w, reduced mod m.
    """
    _check_modulus(m)
    if len(rhs) != mat.rows:
        raise ShapeError("right-hand side length does not match the matrix")
    aug = hstack([mat, IntegerMatrix.identity(mat.rows).scaled(m)])
    dec = smith_normal_form(aug)
    u_rhs = dec.u.apply(rhs)
    z = [0] * aug.cols
    for i in range(aug.rows):
        d = dec.s.data[i][i] if i < aug.cols else 0
        if d:
            if u_rhs[i] % d:
                return None
            z[i] = u_rhs[i] // d
        elif u_rhs[i]:
            return None
    w = dec.v.apply(z)
    return [w[c] % m for c in range(mat.cols)]


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


def subquotient_invariants(
    d_out: IntegerMatrix,
    d_in: IntegerMatrix,
    generators: IntegerMatrix,
    m: int,
):
    """Invariant factors of (ker d_out intersected with G) / im d_in over Z/m.

    G is the subgroup of (Z/m)^N generated by the columns of `generators`;
    the image of d_in must lie in that kernel for the quotient to exist,
    otherwise LatticeError is raised.  The kernel is read off one tagged
    elimination of the images d_out @ g, each carrying its generator g.

    >>> d_out = IntegerMatrix.from_rows([[1, 1]])
    >>> z = IntegerMatrix.zeros(2, 0)
    >>> subquotient_invariants(d_out, z, IntegerMatrix.identity(2), 2)
    [2]
    """
    _check_modulus(m)
    n = generators.rows
    if d_in.rows not in (0, n):
        raise ShapeError("boundary-in matrix does not land in the generators' space")
    if n == 0:
        return []
    if d_out.rows and d_out.cols != n:
        raise ShapeError("constraint matrix does not act on the generators' space")
    out_cols = _sparse_columns(d_out) if d_out.rows else [{}] * n
    gens = _sparse_columns(generators)
    images = []
    for g in gens:
        image = {}
        for c, x in g.items():
            for r, y in out_cols[c].items():
                image[r] = image.get(r, 0) + x * y
        images.append(image)
    bound = _sparse_columns(d_in) if d_in.rows else []
    return _subquotient_mod(images, gens, bound, m)
