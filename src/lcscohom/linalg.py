"""Exact linear algebra: two sparse kernels, an elimination over Z/p^e
and an echelon form over Z and Z/m.

Every invariant the package reports is a finite abelian group over Z/m
coefficients.  Z/m splits by the Chinese remainder theorem into local
rings Z/p^e, and over Z/p^e a pivot of least p-valuation divides every
entry left, so a single elimination pass on sparse {column: entry} rows
with entries below p^e decides ranks, kernels and orders of subgroups.
Every (co)homology group is one call of `_subquotient_mod`: its cycles K
and boundaries B are each the tags of the vanishing combinations of
sparse rows, read off one tagged elimination.  K / B is read off one
echelon of K, whose pivot rows are coordinates on K: B is written in
them, and one more elimination of those coordinates, with the orders of
the pivots, gives its Smith form (`_quotient_invariants`).  No floating
point is used anywhere.

The other kernel, `_IntegerSpan`, merges sparse rows by extended gcds.
Over Z it decides membership in the integer span of the shuffle sums,
for the bicomplex checks.  Over Z/m it is the Howell form, which gives
the least element of a coset: class representatives, equivalence
witnesses and least solutions mod m (`_least_solver`), also read in
other coordinates through tags.  Lexicographic order does not survive a
split of Z/m into its prime powers, so `_kernel_mod` first glues the
prime-power kernels into sparse generators over Z/m.

There is no dense matrix type: every operator reaches both kernels as
sparse rows, and kernels and solutions come back as sparse rows or plain
lists.  The module has no public names.
"""

import functools
import heapq
from math import gcd, prod

from .abelian import merge_invariants
from .errors import BudgetError, LatticeError

__all__ = []


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


@functools.lru_cache(maxsize=64)
def _prime_powers(m: int):
    """The (p, e) pairs of the factorization m = product of p**e, p ascending,
    factored once per modulus.

    Raises BudgetError when m has a factor that neither splits within the
    rho budget nor is small enough for Miller-Rabin to prove prime; a
    refusal is not cached, so every call with such an m raises again.
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

    Returns (pivots, zero_tags): pivots as (row, valuation, tag, column)
    in pivot order, each pivot column absent from every later pivot row,
    and the tags of the rows that reduced to zero.  The rows span a group
    of order p^(sum of e - valuation).  With rows A^T and tags the identity,
    the zero tags and p^(e - v) times the pivot tags generate ker A.

    The rows of A^T for A = [[2, 4], [1, 2]] over Z/8: the unit pivot 1
    clears the second row, whose tag (6, 1) then spans ker A.

    >>> pivots, zeros = _eliminate([{0: 2, 1: 1}, {0: 4, 1: 2}], 2, 3, [{0: 1}, {1: 1}])
    >>> [(row, v, col) for row, v, _tag, col in pivots], zeros == [{0: 6, 1: 1}]
    ([({0: 2, 1: 1}, 0, 1)], True)
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
            pivots.append((row, v, tag, col))
    return pivots, [tags[i] for i in sorted(active)]


def _kernel_tags(rows, tags, p: int, e: int):
    """Generators of {sum a_i tags_i : sum a_i rows_i == 0 mod p^e}."""
    q = p**e
    pivots, zeros = _eliminate([_mod(r, q) for r in rows], p, e, [_mod(t, q) for t in tags])
    out = [t for t in zeros if t]
    for _row, v, tag, _col in pivots:
        if v:
            t = _scaled(tag, p ** (e - v), q)
            if t:
                out.append(t)
    return out


def _quotient_invariants(k_gens, b_gens, p: int, e: int):
    """Invariant factors of K / B over Z/p^e, read off one echelon of K.

    K and B are given by generators, {column: entry} dicts with entries in
    [1, p^e), which are not changed.  The pivot rows of K's elimination
    give K = sum of the Z/p^(e - v_i), one coordinate per pivot row: pivot
    i's column is absent from every later pivot row, and p^(v_i) divides
    every entry of row i.  Each distinct generator of B is read in those
    coordinates by substitution through the pivot rows in order, which
    meets each pivot it needs once.  B must lie in K: LatticeError is
    raised when a pivot entry is not divisible by p^(v_i), or when a
    residue is left off the pivot columns.  So K / B is (Z/p^e)^r modulo
    the coordinates of B and the orders p^(e - v_i) e_i, and one more
    elimination gives its Smith form: Z/p^w for each pivot valuation w,
    and Z/p^e for each coordinate left without a pivot.

    Over Z/8, K = <(2, 4), (0, 4)> is Z/4 + Z/2 on its pivot rows (2, 4)
    and (0, 4).  In them (4, 0) = 2 (2, 4) reads as (2, 0), and (2, 0) as
    (1, 1):

    >>> k_gens = [{0: 2, 1: 4}, {1: 4}]
    >>> _quotient_invariants(k_gens, [], 2, 3)
    [2, 4]
    >>> _quotient_invariants(k_gens, [{0: 4}, {0: 4}], 2, 3)
    [2, 2]
    >>> _quotient_invariants(k_gens, [{0: 2}], 2, 3)
    [2]
    >>> _quotient_invariants(k_gens, [{0: 1}], 2, 3)
    Traceback (most recent call last):
    lcscohom.errors.LatticeError: generators are not contained in the enclosing subgroup
    """
    q = p**e
    k_pivots = _eliminate([dict(r) for r in k_gens], p, e)[0]
    place = {col: i for i, (_row, _v, _tag, col) in enumerate(k_pivots)}
    echelon = []  # per pivot: its column, p^v, unit inverse, row and later pivots there
    relations = []  # p^(e - v_i) e_i, then the coordinates of each b
    for i, (row, v, _tag, col) in enumerate(k_pivots):
        pv = p**v
        later = [place[c] for c in row if c in place and c != col]
        echelon.append((col, pv, pow(row[col] // pv, -1, q), row, later))
        if v:
            relations.append({i: q // pv})
    for b in dict.fromkeys(frozenset(b.items()) for b in b_gens):
        b, coords = dict(b), {}
        # row i holds no earlier pivot column, so the pivots are met in order
        heap = [place[c] for c in b if c in place]
        heapq.heapify(heap)
        while heap:
            i = heapq.heappop(heap)
            col, pv, inv, row, later = echelon[i]
            x = b.get(col)
            if x is None:
                continue
            if x % pv:
                raise LatticeError("generators are not contained in the enclosing subgroup")
            a = x // pv * inv % q
            coords[i] = a % (q // pv)
            for c, y in row.items():
                z = (b.get(c, 0) - a * y) % q
                if z:
                    b[c] = z
                else:
                    b.pop(c, None)
            for j in later:
                heapq.heappush(heap, j)
        if b:
            raise LatticeError("generators are not contained in the enclosing subgroup")
        if coords:
            relations.append(coords)
    smith, _ = _eliminate(relations, p, e)
    free = len(echelon) - len(smith)
    return sorted([p**w for _row, w, _tag, _col in smith if w] + [q] * free)


def _subquotient_mod(k_rows, k_tags, b_rows, b_tags, m: int):
    """Invariant factors over Z/m of K / B for two tagged systems.

    K is generated by the combinations of `k_tags` whose matching
    combination of `k_rows` vanishes mod m, and B likewise by `b_tags` and
    `b_rows`; all four are lists of integer {index: entry} dicts, and B
    must lie in K (LatticeError otherwise).  Empty rows put their tags in
    the kernel outright, so an explicit B is passed as empty rows tagged
    with its generators.  The work splits over the prime powers of m,
    with four eliminations each: one tagged elimination for K and one for
    B, then two for the quotient (`_quotient_invariants`).

    On two coordinates over Z/4, K = {x : x_0 + x_1 = 0} is cyclic of
    order 4, and B = <(2, 2)> lies in it:

    >>> k_rows, k_tags = [{0: 1}, {0: 1}], [{0: 1}, {1: 1}]
    >>> _subquotient_mod(k_rows, k_tags, [{}], [{0: 2, 1: 2}], 4)
    [2]
    >>> _subquotient_mod(k_rows, k_tags, [], [], 4)
    [4]
    >>> _subquotient_mod(k_rows, k_tags, [{}], [{0: 1}], 4)
    Traceback (most recent call last):
    lcscohom.errors.LatticeError: generators are not contained in the enclosing subgroup
    """
    parts = []
    for p, e in _prime_powers(m):
        k_gens, b_gens = _kernel_tags(k_rows, k_tags, p, e), _kernel_tags(b_rows, b_tags, p, e)
        parts.append(_quotient_invariants(k_gens, b_gens, p, e))
    return merge_invariants(*parts)


def _kernel_mod(rows, tags, m: int):
    """Generators of {sum a_i tags_i : sum a_i rows_i == 0 mod m}, as
    {index: entry} dicts with entries in [1, m), for integer {index: entry}
    rows and tags.

    Generator i of each prime-power kernel is glued into generator i by
    the Chinese remainder theorem.  Over Z/6, 2 x_0 + 2 x_1 vanishes on
    every x mod 2 and on x_0 + x_1 = 0 mod 3: e_0 glues to (2, 1).

    >>> _kernel_mod([{0: 2}, {0: 2}], [{0: 1}, {1: 1}], 6)
    [{0: 5, 1: 4}, {1: 3}]
    """
    glued = []
    for p, e in _prime_powers(m):
        q = p**e
        lift = m // q * pow(m // q, -1, q)  # 1 mod q, 0 mod m/q
        for i, gen in enumerate(_kernel_tags(rows, tags, p, e)):
            if i == len(glued):
                glued.append({})
            for c, x in gen.items():  # x is nonzero mod q, so is the sum
                glued[i][c] = (glued[i].get(c, 0) + lift * x) % m
    return glued


def _gcdex(a: int, b: int):
    """(g, s, t) with g = gcd(a, b) = s*a + t*b."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _least_solver(columns, m: int, tags=None, size=None):
    """The function from rhs to the lexicographically least x in (Z/m)^n
    with sum_j x_j columns_j == rhs (mod m), or to None when there is none.

    The columns are sparse {row: entry} dicts, and rows past rhs read 0.
    The Howell form of the rows {**columns_j, width + j: 1}, built once,
    reduces -rhs to the least element of its coset, (sum_j x_j columns_j -
    rhs, x) over all x, whose first block vanishes exactly when a solution
    exists, and whose second block is then the least solution (Storjohann
    and Mulders, 1998).  `_IntegerSpan.reduce` never mutates the pivot
    rows, so the function may be kept and called again.  Over Z/4,
    2 x_0 + x_1 = 1 is solved least by (0, 1); neither 2 x_0 = 1 nor
    x_0 = 1 with x_0 = 0 past the end of rhs has a solution:

    >>> _least_solver([{0: 2}, {0: 1}], 4)([1])
    [0, 1]
    >>> _least_solver([{0: 2}], 4)([1]), _least_solver([{0: 1, 1: 1}], 4)([1])
    (None, None)

    With `tags`, row j carries the sparse tags[j] in place of e_j, and the
    least sum_j x_j tags_j over the solutions comes back, as `size`
    entries.  2 x = 2 is solved least by x = 1, but the tag (3, 1) reads
    x = 3 as (1, 3), which is less than (3, 1):

    >>> _least_solver([{0: 2}], 4, [{0: 3, 1: 1}], 2)([2])
    [1, 3]
    """
    if tags is None:
        tags, size = [{j: 1} for j in range(len(columns))], len(columns)
    width = max([0] + [c + 1 for col in columns for c in col])
    rows = ({**col, **{width + t: x for t, x in tag.items()}} for col, tag in zip(columns, tags))
    form = _IntegerSpan(rows, m)

    def solve(rhs):
        if any(x % m for x in rhs[width:]):
            return None
        reduced = form.reduce({r: -x for r, x in enumerate(rhs[:width])})
        if any(c < width for c in reduced):
            return None
        return [reduced.get(width + t, 0) for t in range(size)]

    return solve


class _IntegerSpan:
    """An echelon form over Z, or the Howell form over Z/m, of the span L
    of sparse rows.

    Rows are {key: entry} dicts over ordered keys, and every pivot row
    has its own least key.  A row is cleared at its least key by the
    pivot row there, or merged with it by one extended-gcd row operation,
    until it becomes a pivot row itself.  The operations are unimodular,
    so the pivot rows still span L (Kannan and Bachem, 1979).  Over Z a
    vector lies in L exactly when every pivot divides what is left at its
    key and nothing is left at the end.

    Over Z/m (m > 0) a key without a pivot row holds the implicit row
    m e_key, so a new pivot's entry becomes d = gcd(entry, m), and the
    residual (m/d) row goes on down.  A later merge of a row r into a
    pivot h of entry a, giving h' = s h + t r of entry g and pushing r',
    needs no more: (m/g) h' = (m/a) h + (m/a) t r' lies in the span
    already.  So the pivots from each key on span the elements of L that
    vanish before it, the Howell property (Storjohann and Mulders, 1998),
    and `reduce` gives the lexicographically least element of vec + L.

    The rows (2, 0) and (0, 3) span 2Z x 3Z:

    >>> span = _IntegerSpan([{0: 2}, {1: 3}])
    >>> span.contains({0: 4, 1: -3}), span.contains({0: 1, 1: 3})
    (True, False)

    Over Z/4 the row (2, 1) spans {0, (2, 1), (0, 2), (2, 3)}; its
    residual 2 (2, 1) = (0, 2) gives the second pivot:

    >>> form = _IntegerSpan([{0: 2, 1: 1}], 4)
    >>> form.pivots, form.order
    ({0: {0: 2, 1: 1}, 1: {1: 2}}, 4)
    >>> form.reduce({0: 3, 1: 3}), form.reduce({0: 1, 1: 1})
    ({0: 1}, {0: 1, 1: 1})
    """

    def __init__(self, rows=(), m: int = 0):
        self.m = m
        self.pivots = {}  # least key -> the pivot row with that least key
        for row in rows:
            self.add(row)

    def add(self, row) -> None:
        """Widen L by one more row, a {key: entry} dict."""
        m = self.m
        row = _mod(row, m) if m else {c: x for c, x in row.items() if x}
        while row:
            key = min(row)
            head = self.pivots.get(key) or ({key: m} if m else None)
            if head is None:
                self.pivots[key] = row
                return
            a, b = head[key], row[key]
            if b % a:
                g, s, t = _gcdex(a, b)
                head, row = _combine(s, head, t, row), _combine(a // g, row, -(b // g), head)
                self.pivots[key] = _mod(head, m) if m else head
            else:
                row = _combine(1, row, -(b // a), head)
            if m:
                row = _mod(row, m)

    def contains(self, vec) -> bool:
        """Whether the integer vector vec, a {key: entry} dict, lies in L
        over Z."""
        vec = {c: x for c, x in vec.items() if x}
        while vec:
            key = min(vec)
            head = self.pivots.get(key)
            if head is None:
                return False
            q, r = divmod(vec[key], head[key])
            if r:
                return False
            vec = _combine(1, vec, -q, head)
        return True

    @property
    def order(self) -> int:
        """The order of L over Z/m: the product of m / d over the pivots d."""
        return prod(self.m // row[key] for key, row in self.pivots.items())

    def reduce(self, vec) -> dict:
        """The lexicographically least element of vec + L over Z/m, with
        each pivot coordinate in key order brought into [0, d)."""
        m = self.m
        vec = _mod(vec, m)
        for key, head in sorted(self.pivots.items()):
            q = vec.get(key, 0) // head[key]
            if not q:
                continue
            for c, y in head.items():
                z = (vec.get(c, 0) - q * y) % m
                if z:
                    vec[c] = z
                else:
                    vec.pop(c, None)
        return vec


def _combine(a: int, u: dict, b: int, v: dict) -> dict:
    """a u + b v for sparse rows without zero entries."""
    out = {c: a * x for c, x in u.items()} if a else {}
    for c, y in v.items():
        x = out.get(c, 0) + b * y
        if x:
            out[c] = x
        else:
            out.pop(c, None)
    return out
