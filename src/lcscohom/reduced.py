"""The reduced chain and cochain complexes of a linear cycle set.

Degree-k chains are formal sums over k-tuples of elements, linear in the
last coordinate: (p, a + b) = (p, a) + (p, b).  Dually, reduced cochains
are the value tables that are linear in their last argument.  Face
rows and `Cochain` values are indexed by the lexicographically ordered
tuple basis, and the degree-k coboundary is the transpose of the
degree-(k+1) boundary.

The groups are computed in presentation coordinates instead.
`_presentation` picks generators s_0, ..., s_(r-1) of (A, +) with
relative orders o_j, power relations o_j s_j = sum over i < j of
r_ji s_i, and normal forms a = sum of c_i(a) s_i.  A degree-k coordinate
is a pair (p, j) of a (k-1)-tuple p and a generator index j: the chain
(p, s_j), or the value u_(p,j) = phi(p, s_j) of a last-linear cochain,
which fixes phi(q, a) = sum of c_i(a) u_(q,i).  Each coordinate carries
one relation, o_j (p, s_j) - sum of r_ji (p, s_i).  The coboundary of a
last-linear cochain is again last-linear, so the cocycle conditions are
needed only on the (k+1)-tuples (p', s_j), and each is the boundary of
that generator read in degree-k coordinates (`_presented_boundary`).
With normalization, the dead coordinates are the (p, j) whose prefix p
holds the neutral element; the tuples with 0 last vanish by linearity.
`_reduced_system` is the one builder of these systems, and `_evaluated`
reads their solutions on every tuple.  Membership modulo linearity is
decided on normal forms (`_in_linearity_lattice`).

Degree-k bases grow as |A|^k, so everything checks the basis budget
before writing any rows.  Every boundary, shuffle and permutation
operator here and in the bicomplex is a signed list of face maps on
tuples (act by the dot operation, merge by +, drop or permute
coordinates).  A face is compiled, once per call, into an index map over
the lexicographically ordered basis: entry x of the map is the index of
the image of tuple x, built from whole runs of indices, cut, repeated
and gathered, or by whole-list arithmetic on the tables (`_index_map`).
`_presented_boundary` compiles its faces on the prefixes of the tuples
it reads, not on every tuple, and writes each expanded face target with
`_accumulate`, the one write of both presented systems, this one and the
full theory's.  `_face_rows` writes compiled face lists into the sparse
rows that the unconstrained system and the additive sections are reduced
from; sparse rows are the one operator format of the package.  The
chain-map and structural checks send formal sums of tuple indices
through compiled face lists (`_apply`), without a matrix.

The boundary of a tuple (a_1, ..., a_k) is

    (a_1.a_2, ..., a_1.a_k)
    + sum over i = 1..k-2 of (-1)^i (a_1, ..., a_i + a_{i+1}, ..., a_k)
    + (-1)^(k-1) (a_1, ..., a_{k-2}, a_k)

with the degree-1 boundary zero.  The unconstrained companion complex
(`cs_*` functions) instead uses all set-theoretic maps and the boundary

    sum over i = 1..k-1 of (-1)^(i-1)
        [ (a_i.a_1, .., a_i.a_{i-1}, a_i.a_{i+1}, .., a_i.a_k)
          - (a_1, .., a_{i-1}, a_{i+1}, .., a_k) ].
"""

import itertools
import operator
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache, partial

from .abelian import FiniteAbelianGroup, merge_invariants, parse_group_spec
from .budget import check_power
from .errors import (
    DegreeError,
    LinearityError,
    MalformedTableError,
    ShapeError,
)
from .linalg import _subquotient_mod
from .structures import LinearCycleSet, require_valid_lcs

__all__ = [
    "Cochain",
    "tuple_index",
    "all_tuples",
    "degenerate_indices",
    "reduced_coboundary",
    "reduced_cohomology",
    "reduced_homology",
    "cs_cocycle_group",
    "cs_cohomology",
    "antisymmetrization_is_chain_map",
    "cochain_from_dict",
]


def all_tuples(n: int, k: int):
    return itertools.product(range(n), repeat=k)


def tuple_index(t, n: int) -> int:
    idx = 0
    for x in t:
        idx = idx * n + x
    return idx


def _check_degree(k: int):
    if not isinstance(k, int) or k < 1:
        raise DegreeError(f"degree must be an integer >= 1, got {k!r}")


def _face_rows(n: int, k: int, blocks, size: int, start: int = 0):
    """Rows of signed sums of face maps, one sum per block of columns.

    Each block is a list of (sign, face) pairs applied to every k-tuple in
    lexicographic order, and the blocks' columns follow one another from
    `start`.  Each face is compiled to its index map, so column x of a
    block adds every sign at the row that its face's map sends x to; the
    `size` rows are the target basis in lexicographic order, and
    coinciding terms accumulate.  Rows are sparse {column: entry} dicts
    with their keys in ascending order.  Row r of the boundary of degree
    k + 1 is column r of the coboundary of degree k, so sparse rows are
    the functionals that cochain computations eliminate.
    """
    rows = [{} for _ in range(size)]
    count = n**k
    for b, faces in enumerate(blocks):
        signs = [sign for sign, _face in faces]
        maps = [_index_map(face, n, k) for _sign, face in faces]
        first = start + b * count
        for col, targets in zip(range(first, first + count), zip(*maps)):
            for r, sign in zip(targets, signs):
                row = rows[r]
                row[col] = row.get(col, 0) + sign
    return rows


def _index_maps(faces, n: int, k: int):
    """A face list on k-tuples compiled to (sign, index map) pairs."""
    return [(sign, _index_map(face, n, k)) for sign, face in faces]


def _apply(maps, chain) -> dict:
    """The image of a formal sum {tuple index: coefficient} under a
    compiled face list.

    Coinciding terms accumulate, and the image keeps only the nonzero
    ones.  On pairs over two elements, the face list (a, b) -> (b) - (a)
    sends (0, 1) + (1, 0), of indices 1 and 2, to zero, but not 2 (0, 1):

    >>> maps = _index_maps([(1, _drop(0)), (-1, _drop(1))], 2, 2)
    >>> _apply(maps, {1: 1, 2: 1})
    {}
    >>> _apply(maps, {1: 2})
    {1: 2, 0: -2}
    """
    out = defaultdict(int)
    for x, c in chain.items():
        for sign, image in maps:
            out[image[x]] += sign * c
    return {y: c for y, c in out.items() if c}


def _compose(second, first):
    """The compiled face list of `first`, then `second`: one term per pair,
    with the product sign and the composite map.

    >>> _compose([(1, [1, 0])], [(-1, [0, 0, 1, 1]), (1, [0, 1, 0, 1])])
    [(-1, [1, 1, 0, 0]), (1, [1, 0, 1, 0])]
    """
    return [
        (s * t, list(map(image.__getitem__, inner))) for s, inner in first for t, image in second
    ]


def _tagged(cocycles, constraints, coboundaries, dead=(), dead_below=()):
    """The tagged rows of a degree-k system, (k_rows, k_tags, b_rows, b_tags).

    `cocycles[x]` is column x of the constraints and delta_k side by side,
    so the identity tags of its kernel span the cocycles.  Column y of the
    constraints one degree below, tagged with column y of delta_(k-1),
    gives a kernel whose tags span the coboundaries.  Coordinates in `dead`
    and `dead_below` are forced to zero, so their columns are left out.
    """
    live = [x for x in range(len(cocycles)) if x not in dead]
    below = [y for y in range(len(constraints)) if y not in dead_below]
    k_rows, k_tags = [cocycles[x] for x in live], [{x: 1} for x in live]
    return k_rows, k_tags, [constraints[y] for y in below], [coboundaries[y] for y in below]


def _cohomology(coeffs, *system):
    """Invariant factors of ker delta_k / delta(C^(k-1)) on the constrained
    cochains of a system, as `_tagged` reads it."""
    return _over_factors(coeffs, partial(_invariants, system))


def _invariants(system, m: int):
    """Invariant factors over Z/m of the cohomology of a system, as
    `_tagged` reads it."""
    return _subquotient_mod(*_tagged(*system), m)


def _over_factors(coeffs, invariants):
    """The merged `invariants(m)` over the cyclic factors Z/m of coeffs.

    Each distinct m is computed once and reused at every position, so
    Z/2+Z/2 eliminates its systems once, as Z/2 does.
    """
    per_m = {m: invariants(m) for m in set(coeffs.factors)}
    return merge_invariants(*map(per_m.get, coeffs.factors))


def _index_map(face, n: int, k: int) -> list:
    """The index map of a face on the k-tuples over n elements.

    A face is a tuple (builder, *args).  Entry x of its map is the
    lexicographic index of the image of tuple x, which has k - 1
    coordinates for an action, a merge or a drop.
    """
    build, *args = face
    return build(n, k, *args)


def _act(dot, pos: int):
    """Coordinate pos acts by the dot operation on all the others."""
    return (_act_map, dot, pos)


def _act_map(n: int, k: int, dot, pos: int) -> list:
    """The map of `_act`: row a of dot, applied to every coordinate of the
    (k-1)-tuples at once, is read on the tuples with a at pos.

    >>> _act_map(2, 2, ((0, 1), (1, 0)), 0)
    [0, 1, 1, 0]
    >>> _act_map(2, 3, ((0, 1), (1, 0)), 1)
    [0, 1, 3, 2, 2, 3, 1, 0]
    """
    low = n ** (k - 1 - pos)
    acted = _acted(dot, k - 1)
    out = []
    for h in range(0, n ** (k - 1), low):
        for image in acted:
            out += image[h : h + low]
    return out


def _acted(dot, k: int) -> list:
    """acted[a][y] is the index of the k-tuple y with row a of dot applied
    to every coordinate.

    >>> _acted(((0, 1), (1, 0)), 2)
    [[0, 1, 2, 3], [3, 2, 1, 0]]
    """
    acted = []
    for row in dot:
        image = [0]
        for _ in range(k):
            image = [x * len(row) + y for x in image for y in row]
        acted.append(image)
    return acted


def _merge(add, pos: int):
    """Coordinates pos-1 and pos merge into their sum."""
    return (_merge_map, add, pos)


def _merge_map(n: int, k: int, add, pos: int) -> list:
    """The map of `_merge`: within each run of the indices that share the
    coordinates before pos - 1, the sum of coordinates pos-1 and pos picks
    the block of indices of its value, and the coordinates after pos run
    along.

    >>> _merge_map(2, 2, ((0, 1), (1, 0)), 1)
    [0, 1, 1, 0]
    >>> _merge_map(2, 3, ((0, 1), (1, 0)), 2)
    [0, 1, 1, 0, 2, 3, 3, 2]
    >>> _merge_map(2, 3, ((0, 1), (1, 0)), 1)
    [0, 1, 2, 3, 2, 3, 0, 1]
    """
    low = n ** (k - 1 - pos)
    blocks = list(_runs(range(n * low), low))  # one block per value of the sum
    sums = itertools.chain.from_iterable(add)
    pick = _gatherer(tuple(itertools.chain.from_iterable(map(blocks.__getitem__, sums))))
    return list(itertools.chain.from_iterable(map(pick, _runs(range(n ** (k - 1)), n * low))))


def _drop(pos: int):
    return (_drop_map, pos)


def _drop_map(n: int, k: int, pos: int) -> list:
    """The map of `_drop`: each run of indices of the coordinates after
    pos, repeated once per value of coordinate pos.

    >>> _drop_map(2, 2, 1), _drop_map(2, 2, 0)
    ([0, 0, 1, 1], [0, 1, 0, 1])
    >>> _drop_map(2, 3, 1)
    [0, 1, 0, 1, 2, 3, 2, 3]
    """
    runs = _runs(range(n ** (k - 1)), n ** (k - 1 - pos))
    return list(itertools.chain.from_iterable(map(operator.mul, runs, itertools.repeat(n))))


def _runs(seq, size: int):
    """seq cut into consecutive tuples of `size` entries.

    >>> list(_runs(range(6), 3))
    [(0, 1, 2), (3, 4, 5)]
    """
    return zip(*[iter(seq)] * size)


def _gatherer(indices):
    """The map seq -> tuple(seq[i] for i in indices).  With one index or
    none itemgetter returns a bare entry or refuses, so those cases are
    composed by hand.

    >>> _gatherer([2, 0])("abc"), _gatherer([1])("abc"), _gatherer([])("abc")
    (('c', 'a'), ('b',), ())
    """
    if len(indices) > 1:
        return operator.itemgetter(*indices)
    if indices:
        (only,) = indices
        return lambda seq: (seq[only],)
    return lambda seq: ()


def _permute(perm):
    """Position p of the image holds coordinate perm[p] of the source."""
    return (_permute_map, tuple(perm))


def _permute_map(n: int, k: int, perm) -> list:
    """The map of `_permute`: each source coordinate weighs its digit by
    the place values of the image positions it fills.

    >>> _permute_map(2, 2, (1, 0)), _permute_map(2, 2, (1,))
    ([0, 2, 1, 3], [0, 1, 0, 1])
    """
    weights = [0] * k
    for p, q in enumerate(perm):
        weights[q] += n ** (len(perm) - 1 - p)
    out = [0]
    for w in weights:
        digits = [x * w for x in range(n)]
        out = [y + d for y in out for d in digits]
    return out


def _horizontal_faces(structure: LinearCycleSet, i: int):
    """Dot action, alternating merges among the first i coordinates and
    (-1)^i times the drop of coordinate i (1-based)."""
    faces = [(1, _act(structure.dot, 0))]
    faces += [((-1) ** p, _merge(structure.add, p)) for p in range(1, i)]
    faces.append(((-1) ** i, _drop(i - 1)))
    return faces


def degenerate_indices(structure: LinearCycleSet, k: int):
    """Indices of tuples containing the additive neutral element."""
    _check_degree(k)
    n = structure.order
    zero = structure.zero
    return [i for i, t in enumerate(all_tuples(n, k)) if zero in t]


@dataclass
class Cochain:
    """A degree-k cochain: one coefficient-group element per k-tuple.

    Values are stored flat in lexicographic tuple order.  The class does
    not itself require linearity; membership tests are explicit so that
    raw value tables can be inspected and reported on.
    """

    base: LinearCycleSet
    coeffs: FiniteAbelianGroup
    degree: int
    values: tuple

    def __post_init__(self):
        _check_degree(self.degree)
        expected = self.base.order**self.degree
        if len(self.values) != expected:
            raise ShapeError(
                f"degree-{self.degree} cochain needs {expected} values, got {len(self.values)}"
            )
        width = len(self.coeffs.factors)
        for v in self.values:
            if len(v) != width:
                raise ShapeError(
                    f"cochain value {v!r} does not match the {width}-factor coefficient group"
                )
        self.values = tuple(self.coeffs.reduce(v) for v in self.values)

    @classmethod
    def zero(cls, base, coeffs, degree):
        return cls(base, coeffs, degree, (coeffs.zero,) * base.order**degree)

    @classmethod
    def from_callable(cls, base, coeffs, degree, fn):
        values = tuple(fn(*t) for t in all_tuples(base.order, degree))
        return cls(base, coeffs, degree, values)

    def value(self, t):
        return self.values[tuple_index(t, self.base.order)]

    def __call__(self, *args):
        return self.value(args)

    def linearity_violation(self):
        """A witness (prefix, a, b) where last-coordinate linearity fails."""
        n = self.base.order
        add = self.base.add
        g = self.coeffs
        for prefix in all_tuples(n, self.degree - 1):
            base = tuple_index(prefix, n) * n
            vals = self.values
            for a in range(n):
                for b in range(n):
                    lhs = vals[base + add[a][b]]
                    rhs = g.add(vals[base + a], vals[base + b])
                    if lhs != rhs:
                        return (prefix, a, b)
        return None

    def degenerate_violation(self):
        """A degenerate tuple on which the cochain is nonzero, if any."""
        n = self.base.order
        zero = self.coeffs.zero
        for i, t in enumerate(all_tuples(n, self.degree)):
            if self.base.zero in t and self.values[i] != zero:
                return t
        return None

    def is_linear_in_last(self) -> bool:
        return self.linearity_violation() is None

    def is_normalized(self) -> bool:
        return self.is_linear_in_last() and self.degenerate_violation() is None

    def __add__(self, other):
        self._match(other)
        g = self.coeffs
        return Cochain(
            self.base,
            g,
            self.degree,
            tuple(g.add(a, b) for a, b in zip(self.values, other.values)),
        )

    def __sub__(self, other):
        self._match(other)
        g = self.coeffs
        return Cochain(
            self.base,
            g,
            self.degree,
            tuple(g.sub(a, b) for a, b in zip(self.values, other.values)),
        )

    def __neg__(self):
        g = self.coeffs
        return Cochain(self.base, g, self.degree, tuple(g.neg(a) for a in self.values))

    def _match(self, other):
        if (
            not isinstance(other, Cochain)
            or other.base != self.base
            or other.coeffs != self.coeffs
            or other.degree != self.degree
        ):
            raise ShapeError("cochains live on different complexes")

    def to_dict(self) -> dict:
        single = len(self.coeffs.factors) == 1
        values = [v[0] if single else list(v) for v in self.values]
        return {"degree": self.degree, "coeff": str(self.coeffs), "values": values}


def _file_coeffs(data, coeffs, what: str) -> FiniteAbelianGroup:
    """The coefficient group of a cochain or cocycle file dict, after the
    checks both kinds share; `what` names the kind in every message."""
    if not isinstance(data, dict):
        raise MalformedTableError(f"{what} file must be a JSON object")
    extra = set(data) - {"degree", "coeff", "values"}
    if extra:
        raise MalformedTableError(f"unknown keys in {what} file: {sorted(extra)}")
    if "coeff" in data:
        spec = data["coeff"]
        if not isinstance(spec, str):
            raise MalformedTableError(f"{what} coeff must be a group spec string")
        declared = parse_group_spec(spec)
        if coeffs is not None and declared != coeffs:
            raise MalformedTableError(
                f"{what} file declares coefficients {declared}, expected {coeffs}"
            )
        coeffs = declared
    if coeffs is None:
        raise MalformedTableError(f"{what} file lacks a coeff key and none was supplied")
    return coeffs


def _file_values(raw, coeffs: FiniteAbelianGroup, what: str):
    """File values as coefficient tuples: ints for one cyclic factor,
    lists of ints for several."""
    width = len(coeffs.factors)
    values = []
    for v in raw:
        if isinstance(v, int) and not isinstance(v, bool) and width == 1:
            values.append((v,))
        elif (
            isinstance(v, list)
            and len(v) == width
            and all(isinstance(x, int) and not isinstance(x, bool) for x in v)
        ):
            values.append(tuple(v))
        else:
            raise MalformedTableError(
                f"{what} values must be ints (single factor) or lists of {width} ints"
            )
    return tuple(values)


def cochain_from_dict(
    data, base: LinearCycleSet, coeffs: FiniteAbelianGroup = None
) -> Cochain:
    """Parse a cochain file dict against a structure.

    The coefficient group comes from the optional "coeff" key or from the
    caller; when both are given they must agree.
    """
    coeffs = _file_coeffs(data, coeffs, "cochain")
    degree = data.get("degree")
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise MalformedTableError(f"cochain degree must be an integer >= 1, got {degree!r}")
    raw = data.get("values")
    expected = base.order**degree
    if not isinstance(raw, list) or len(raw) != expected:
        raise MalformedTableError(f"cochain of degree {degree} needs exactly {expected} values")
    return Cochain(base, coeffs, degree, _file_values(raw, coeffs, "cochain"))


def reduced_coboundary(f: Cochain, check: bool = True) -> Cochain:
    """The degree-(k+1) coboundary of a degree-k cochain, evaluated directly.

    With check=True the input must be linear in its last coordinate (the
    membership condition of the reduced complex); a violation raises
    LinearityError with a witness.
    """
    if check:
        witness = f.linearity_violation()
        if witness is not None:
            raise LinearityError(
                f"cochain is not linear in its last coordinate at {witness}"
            )
    base, g, k = f.base, f.coeffs, f.degree
    n = base.order
    check_power(n, k + 1, f"the degree-{k + 1} tuple basis")
    add, dot = base.add, base.dot

    def value(t):
        head = dot[t[0]]
        acc = f.value(tuple(head[x] for x in t[1:]))
        sign = 1
        for i in range(1, k):
            sign = -sign
            merged = t[: i - 1] + (add[t[i - 1]][t[i]],) + t[i + 1 :]
            acc = g.add(acc, g.scale(sign, f.value(merged)))
        sign = -sign
        acc = g.add(acc, g.scale(sign, f.value(t[: k - 1] + (t[k],))))
        return acc

    values = tuple(value(t) for t in all_tuples(n, k + 1))
    return Cochain(base, g, k + 1, values)


@lru_cache(maxsize=8)
def _presentation(add) -> tuple:
    """A presentation of the abelian group with addition table `add`.

    Generators are picked greedily: s_j is the first element of largest
    order o_j relative to the subgroup of s_0, ..., s_(j-1), so a cyclic
    group takes one generator.  Returns (gens, orders, powers, coords):
    powers[j] holds the r_ji with o_j s_j = sum over i < j of r_ji s_i,
    and coords[a] the unique c(a) with a = sum of c_i(a) s_i and
    0 <= c_i(a) < o_i.  In Z/4 every element is a multiple of 1:

    >>> _presentation(tuple(tuple((a + b) % 4 for b in range(4)) for a in range(4)))
    ((1,), (4,), ((),), ((0,), (1,), (2,), (3,)))

    Z/4 + Z/2 listed from (1, 1), whose multiples come first, takes
    s_0 = (1, 1) and s_1 = (1, 0) with 2 s_1 = 2 s_0:

    >>> elems = [(0, 0), (1, 1), (2, 0), (3, 1), (1, 0), (2, 1), (3, 0), (0, 1)]
    >>> add = tuple(
    ...     tuple(elems.index(((a + c) % 4, (b + d) % 2)) for c, d in elems) for a, b in elems
    ... )
    >>> gens, orders, powers, coords = _presentation(add)
    >>> gens, orders, powers
    ((1, 4), (4, 2), ((), (2,)))
    >>> coords
    ((0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1), (3, 1))
    """
    n = len(add)
    zero = next(a for a in range(n) if add[a][a] == a)
    coords = {zero: ()}  # the subgroup found so far, in normal form
    gens, orders, powers = [], [], []
    while len(coords) < n:
        best = None
        for a in range(n):
            order, x = 1, a
            while x not in coords:
                order, x = order + 1, add[x][a]
            if best is None or order > best[0]:
                best = (order, a, x)
        order, s, x = best
        gens.append(s)
        orders.append(order)
        powers.append(coords[x])
        grown = {}
        for h, c in coords.items():
            for i in range(order):
                grown[h] = c + (i,)
                h = add[h][s]
        coords = grown
    return tuple(gens), tuple(orders), tuple(powers), tuple(coords[a] for a in range(n))


def _evaluated(add, vec) -> dict:
    """A last-linear cochain given on generators, read on every tuple.

    vec maps the coordinate (p, j), at index(p) * r + j, to u_(p,j) = phi(p,
    s_j) for the generators of `_presentation`; the result maps the tuple
    (p, a), at index(p) * n + a, to phi(p, a) = sum of c_j(a) u_(p,j),
    nonzero entries only.  Over Z/4, with s_0 = 1, u = (1, 3) on the
    prefixes 0 and 1 reads a and 3a:

    >>> z4 = tuple(tuple((a + b) % 4 for b in range(4)) for a in range(4))
    >>> _evaluated(z4, {0: 1, 1: 3})
    {1: 1, 2: 2, 3: 3, 5: 3, 6: 6, 7: 9}
    """
    n = len(add)
    coords = _presentation(add)[3]
    out = defaultdict(int)
    for x, u in vec.items():
        p, j = divmod(x, len(coords[0]))
        for a, c in enumerate(coords):
            out[p * n + a] += c[j] * u
    return {y: v for y, v in sorted(out.items()) if v}


def _in_linearity_lattice(add, chain) -> bool:
    """Whether a formal sum {tuple index: coefficient} of k-tuples lies in
    the integer span of the linearity relations (p, a + b) - (p, a) - (p, b).

    That span is the kernel of sum of c (p, a) -> sum of c a in (A, +),
    prefix by prefix, so each prefix's sum is taken in normal form and
    carried through the power relations o_j s_j = sum of r_ji s_i, from
    the last generator down; it must leave no remainder.  On Z/4, (0, 1)
    + (0, 3) and 4 (1, 1) vanish, (0, 1) + (1, 3) does not:

    >>> z4 = tuple(tuple((a + b) % 4 for b in range(4)) for a in range(4))
    >>> _in_linearity_lattice(z4, {1: 1, 3: 1}), _in_linearity_lattice(z4, {5: 4})
    (True, True)
    >>> _in_linearity_lattice(z4, {1: 1, 7: 1})
    False
    """
    n = len(add)
    _gens, orders, powers, coords = _presentation(add)
    sums = defaultdict(lambda: [0] * len(orders))
    for x, c in chain.items():
        acc = sums[x // n]
        for i, ci in enumerate(coords[x % n]):
            acc[i] += c * ci
    for acc in sums.values():
        for j in reversed(range(len(orders))):
            q, acc[j] = divmod(acc[j], orders[j])
            if acc[j]:
                return False
            for i, x in enumerate(powers[j]):
                acc[i] += q * x
    return True


def _presented_boundary(structure: LinearCycleSet, k: int):
    """The degree-k boundary in presentation coordinates, as rows.

    Row y is the degree-(k-1) coordinate y = (q, i), at index
    index(q) * r + i; column x = (p, j), at index(p) * r + j, holds the
    coefficient of (q, s_i) in the boundary of (p, s_j), whose face
    targets (q, a) expand to sum of c_i(a) (q, s_i).  Row y is also the
    coboundary of the cochain coordinate y, and column x the cocycle
    condition at (p, s_j).

    The faces are compiled on the (k-1)-tuples p alone: no face moves
    the last coordinate, so the target of (p, s_j) is (q, a) with q the
    image of p.  The action reads a = p_0 . s_j, and the merges and the
    drop of coordinate k-2 keep a = s_j.  Columns enter each row
    generator by generator and face by face, so its keys are not in
    column order.  Over Z/2 with the trivial dot, the degree-2 boundary
    of (a, s_0) is (s_0) - (s_0), and that of (a, b, s_0) is (b, s_0) -
    (a + b, s_0) + (a, s_0):

    >>> z2 = LinearCycleSet(2, [[0, 1], [1, 0]], [[0, 1], [0, 1]])
    >>> _presented_boundary(z2, 2)
    [{0: 0, 1: 0}]
    >>> _presented_boundary(z2, 3)
    [{0: 1, 2: 1, 3: -1, 1: 1}, {1: 0, 3: 2, 2: 0}]
    """
    n = structure.order
    gens, _orders, _powers, coords = _presentation(structure.add)
    r = len(gens)
    terms = [[(i, c) for i, c in enumerate(coords[a]) if c] for a in range(n)]
    rows = [{} for _ in range(n ** (k - 2) * r)]
    by_i = [rows[i::r] for i in range(r)]  # by_i[i][q] is row (q, i)
    (act_sign, act), *rest = _index_maps(_horizontal_faces(structure, k - 1), n, k - 1)
    low = n ** (k - 2)  # the prefixes with one first coordinate p_0
    for j, s in enumerate(gens):
        columns = range(j, n ** (k - 1) * r, r)
        # the action's a = p_0 . s_j is one value on each run of p_0
        for h, head in zip(range(0, len(act), low), structure.dot):
            run, image = columns[h : h + low], act[h : h + low]
            for i, c in terms[head[s]]:
                _accumulate(by_i[i], run, image, itertools.repeat(act_sign * c))
        for sign, image in rest:
            for i, c in terms[s]:
                _accumulate(by_i[i], columns, image, itertools.repeat(sign * c))
    return rows


def _accumulate(rows, columns, targets, entries) -> None:
    """Column x gains c at rows[y], for x, y and c of `columns`, `targets`
    and `entries` in step: the one write of both presented systems, once
    each face target is expanded through its normal form.

    >>> rows = [{}, {}]
    >>> _accumulate(rows, [0, 1, 1], [1, 1, 1], [2, -1, 1])
    >>> rows
    [{}, {0: 2, 1: 0}]
    """
    for x, row, c in zip(columns, map(rows.__getitem__, targets), entries):
        row[x] = row.get(x, 0) + c


def _presented_relations(structure: LinearCycleSet, k: int, start: int):
    """The relations of degree k, as rows: row (p, i) holds, at column
    start + index(p) * r + j, the coefficient of (p, s_i) in the relation
    o_j (p, s_j) - sum of r_ji (p, s_i)."""
    gens, orders, powers, _coords = _presentation(structure.add)
    r = len(gens)
    entries = [
        [(i, orders[i])] + [(j, -powers[j][i]) for j in range(i + 1, r) if powers[j][i]]
        for i in range(r)
    ]
    return [
        {start + p * r + j: x for j, x in entries[i]}
        for p in range(structure.order ** (k - 1))
        for i in range(r)
    ]


def _dead(structure: LinearCycleSet, k: int):
    """The degree-k coordinates (p, j) whose prefix p holds the neutral
    element; none below degree 2."""
    if k < 2:
        return []
    r = len(_presentation(structure.add)[0])
    return [x * r + j for x in degenerate_indices(structure, k - 1) for j in range(r)]


def _reduced_system(structure: LinearCycleSet, k: int, normalized: bool = False):
    """The degree-k reduced system, checked against the budgets first, as
    `_tagged` reads it.

    A last-linear cochain is given by its values u_(p,j) = phi(p, s_j) on
    the generators s_j of `_presentation`, subject to the relations
    o_j u_(p,j) = sum over i < j of r_ji u_(p,i).  Row y of `cocycles`
    holds the coefficients of coordinate y in the cocycle conditions at
    the (k+1)-tuples (p', s_j), then from column |A|^k r on in the
    relations; read by columns, the same rows are the boundaries of the
    degree-(k+1) generators and the relations, as chains.  When
    normalized, the coordinates (p, j) whose prefix p holds the neutral
    element are dead, in both degrees.
    """
    _check_degree(k)
    n = structure.order
    check_power(n, k, f"the degree-{k} tuple basis")
    check_power(n, k + 1, f"the degree-{k + 1} tuple basis")
    r = len(_presentation(structure.add)[0])
    cocycles = _presented_boundary(structure, k + 1)
    for row, relations in zip(cocycles, _presented_relations(structure, k, n**k * r)):
        row.update(relations)
    constraints = coboundaries = dead = dead_below = ()
    if k >= 2:
        constraints = _presented_relations(structure, k - 1, 0)
        coboundaries = _presented_boundary(structure, k)
    if normalized:
        dead, dead_below = set(_dead(structure, k)), set(_dead(structure, k - 1))
    return cocycles, constraints, coboundaries, dead, dead_below


def reduced_cohomology(
    structure: LinearCycleSet,
    coeffs: FiniteAbelianGroup,
    k: int,
    normalized: bool = False,
):
    """Invariant factors of the degree-k reduced cohomology group, on the
    solutions of `_reduced_system`."""
    require_valid_lcs(structure)
    return _cohomology(coeffs, *_reduced_system(structure, k, normalized))


def reduced_homology(
    structure: LinearCycleSet,
    coeffs: FiniteAbelianGroup,
    k: int,
    normalized: bool = False,
):
    """Invariant factors of the degree-k reduced homology group.

    Degree-k chains are presented on the generators (p, s_j), one per
    (k-1)-tuple p and generator s_j of `_presentation`, modulo the
    relations o_j (p, s_j) - sum over i < j of r_ji (p, s_i) and, when
    normalized, the dead generators (p, s_j) whose prefix p holds the
    neutral element.  Over each cyclic factor Z/m the homology is
    (preimage of the relations under the boundary) / (boundary image +
    relations), both taken mod m.  Degree 1 is the full degree-1 chain
    group modulo the image from degree 2.
    """
    require_valid_lcs(structure)
    cocycles, constraints, coboundaries, dead, dead_below = _reduced_system(structure, k, normalized)

    def columns(rows, width):
        vectors = [{} for _ in range(width)]
        for y, row in enumerate(rows):
            for c, x in row.items():
                vectors[c][y] = x
        return vectors

    # cycles are the x whose boundary lies in the relations and the dead
    # generators below; their rows carry x as a tag, the others nothing
    size = len(cocycles)
    rows = columns(coboundaries, size) + columns(constraints, len(constraints))
    rows += [{y: 1} for y in sorted(dead_below)]
    tags = [{x: 1} for x in range(size)] + [{}] * (len(rows) - size)
    # boundaries of the generators above, relations and dead generators
    bound = columns(cocycles, (structure.order + 1) * size) + [{y: 1} for y in sorted(dead)]
    return _over_factors(coeffs, partial(_subquotient_mod, rows, tags, [{}] * len(bound), bound))


# ---------------------------------------------------------------------------
# The unconstrained companion complex (all set-theoretic cochains)


def _cs_faces(structure: LinearCycleSet, k: int):
    faces = []
    for i in range(k - 1):
        faces += [((-1) ** i, _act(structure.dot, i)), (-((-1) ** i), _drop(i))]
    return faces


def _cs_cocycles(structure: LinearCycleSet, k: int):
    require_valid_lcs(structure)
    _check_degree(k)
    n = structure.order
    check_power(n, k + 1, f"the degree-{k + 1} tuple basis")
    return _face_rows(n, k + 1, [_cs_faces(structure, k + 1)], n**k)


def cs_cocycle_group(structure: LinearCycleSet, coeffs: FiniteAbelianGroup, k: int):
    """Invariant factors of the group of degree-k unconstrained cocycles."""
    return _cohomology(coeffs, _cs_cocycles(structure, k), (), ())


def cs_cohomology(structure: LinearCycleSet, coeffs: FiniteAbelianGroup, k: int):
    """Invariant factors of the degree-k cohomology of the unconstrained complex."""
    cocycles = _cs_cocycles(structure, k)
    n = structure.order
    coboundaries = _face_rows(n, k, [_cs_faces(structure, k)], n ** (k - 1) if k >= 2 else 0)
    return _cohomology(coeffs, cocycles, [{}] * len(coboundaries), coboundaries)


# ---------------------------------------------------------------------------
# Antisymmetrization, mapping the unconstrained complex into the reduced one


def _parity(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _antisymmetrization_faces(k: int):
    return [
        (_parity(p), _permute(p + (k - 1,))) for p in itertools.permutations(range(k - 1))
    ]


def antisymmetrization_is_chain_map(structure: LinearCycleSet, k: int) -> bool:
    """Check boundary . antisym == antisym . cs_boundary modulo linearity.

    The identity holds in the reduced quotient, so on every k-tuple the
    two composites must differ by an element of the integer lattice
    spanned by the linearity relations of degree k-1.  Degree 1 is
    vacuous.
    """
    require_valid_lcs(structure)
    _check_degree(k)
    if k == 1:
        return True
    n = structure.order
    check_power(n, k, f"the degree-{k} tuple basis")
    boundary = _index_maps(_horizontal_faces(structure, k - 1), n, k)
    upper = _index_maps(_antisymmetrization_faces(k), n, k)
    lower = _index_maps(_antisymmetrization_faces(k - 1), n, k - 1)
    cs = _index_maps(_cs_faces(structure, k), n, k)
    diff = _compose(boundary, upper) + [(-s, f) for s, f in _compose(lower, cs)]
    return all(_in_linearity_lattice(structure.add, _apply(diff, {x: 1})) for x in range(n**k))
