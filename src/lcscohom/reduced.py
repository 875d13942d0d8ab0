"""The reduced chain and cochain complexes of a linear cycle set, and
the one presented writer of both theories' systems.

Degree-k chains are formal sums over k-tuples of elements, linear in the
last coordinate: (p, a + b) = (p, a) + (p, b).  Dually, reduced cochains
are the value tables that are linear in their last argument.  Face rows
are indexed by the lexicographically ordered tuple basis, and the
degree-k coboundary is the transpose of the degree-(k+1) boundary.

The reduced complex is the j = 1 row of the brace bicomplex
(`bicomplex`), whose vertical, Harrison, direction collapses there to
its first homology, (A, +) itself (Harrison, Trans. AMS 104, 1962).  So
one writer builds the systems of both theories, in presentation
coordinates.  A presentation of a quotient K_j of the j-tuples has
generators, relations and normal forms.  A coordinate (p, g) of block
(i, j) is an i-tuple p and a generator g of K_j: the chain (p, g), or
the value u_(p,g) of a cochain, which fixes its value at (p, t) as the
normal form of t read at p.  `_presented_system` writes the degree-d
system over the presentations pres[j], on the blocks (d - j, j) whose j
is presented.  The coboundary of a presented cochain is again one, so
the cocycle conditions are needed only at the generators of each target
block, and each is the boundary of that generator read in presented
coordinates (`_write_boundary`); every relation holds at every prefix
(`_write_relations`).  With normalization, the coordinates whose tuple
holds the neutral element are dead and never written.  `_reader` reads
a solution on every tuple.

The full theory presents every K_j by its shuffle sums
(`bicomplex._full_system`).  The reduced theory presents K_1 alone, as
(A, +) (`_presentation`): generators s_0, ..., s_(r-1) with relative
orders o_j, power relations o_j s_j = sum over i < j of r_ji s_i, and
normal forms a = sum of c_i(a) s_i.  Its degree-k system is block
(k - 1, 1), whose coordinates (p, j) are the values phi(p, s_j) of a
last-linear cochain (`_reduced_system`), which classification and
cohomologousness read.  Membership modulo linearity is decided on normal
forms (`_in_linearity_lattice`).

The reduced groups are group (co)homology of the brace group G =
(A, o), a o b = a + t(b) with a . t(b) = b (`lcs_to_brace`), so that
p^-1 o c = p . (c - p).  Write a k-chain (x_1, ..., x_(k-1); x_k) in its
partial sums p_i = x_1 + ... + x_i, with p_0 = 0.  The merge of x_i and
x_(i+1) deletes p_i, the drop of x_(k-1) deletes p_(k-1), and the action
of x_1 = p_1 sends each p_i to p_1 . (p_i - p_1) = p_1^-1 o p_i and x_k
to p_1 . x_k: it deletes p_0 and translates by p_1^-1, with sigma_(p_1) =
p_1 . - on x_k.  These are the faces of the homogeneous bar resolution
B(G), sign for sign (tests/test_resolution.py checks them on compiled
index maps).  As sigma_(g o h) = sigma_h sigma_g, G acts on Hom(A, Gamma)
on the left by (g . phi)(a) = phi(g . a), and the reduced cochains of
degree k are Hom_G(B_(k-1)(G), Hom(A, Gamma)): reduced H^k(A; Gamma) =
H^(k-1)(G; Hom(A, Gamma)), and dually H_k = H_(k-1)(G; A (x) Gamma).  By
the comparison theorem (Brown, *Cohomology of Groups*, GTM 87, 1982,
I.7) any free resolution computes them, so the plain groups are read off
a small resolution of Z/q over (Z/q)[G] (`resolution._resolution`), with
r_i generators in degree i against n^i bar cells, one system per
(structure, k, q) (`_written_resolved`).  Lebed and Vendramin, Adv. Math.
304 (2017), relate cycle-set homology to the structure group in the
same way.  A tuple holding the neutral element at x_i, i < k, has p_i =
p_(i-1): it is a degenerate bar cell.  The normalized bar complex is a
free resolution as well, so the normalized reduced groups equal the
plain ones in every degree, and both are read off the one resolved
system (`reduced_cohomology`).  Homology is read there too: the resolved
cochains are the Z/q-dual of the resolved chains, so both have the same
invariant factors (`reduced_homology`).  verify-paper compares the
normalized tuple system of degree 2 with the resolved groups.  The same
resolved writer, `_resolved_system`, writes the plain full theory's
systems from the presentations of every K_j, on a resolution of the
same brace group (`bicomplex`).

Degree-k bases grow as |A|^k, so everything checks the basis budget
before writing any rows.  Every boundary, shuffle and permutation
operator here and in the bicomplex is a signed list of face maps on
tuples (act by the dot operation, merge by +, drop or permute
coordinates).  A face is compiled into an index map over the
lexicographically ordered basis: entry x of the map is the index of
the image of tuple x, built from whole runs of indices, cut, repeated
and gathered, or by whole-list arithmetic on the tables (`_index_map`).
The presented writer compiles its faces on the prefixes or the suffixes
of the tuples it reads, not on every tuple, once per structure and
process (`_tables`), and writes each expanded face target with
`_accumulate`.  Each written system is kept read-only for the process
(`_written_reduced`, `_written_resolved`, `bicomplex._written_full`,
`bicomplex._written_full_resolved`), up to a bound on the sparse entries
all kept systems hold (`_kept`), and shared by every coefficient group,
homology and classification that reads it.
`_face_rows` writes compiled face lists into the sparse rows that the
unconstrained system and the additive sections are reduced from; sparse
rows are the one operator format of the package.
The chain-map and structural checks send formal sums of tuple indices
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
from collections import OrderedDict, defaultdict
from functools import lru_cache, partial, wraps
from types import MappingProxyType

from .abelian import FiniteAbelianGroup, merge_invariants, parse_group_spec
from .budget import check_power
from .errors import DegreeError, MalformedTableError
from .linalg import _prime_powers, _subquotient_mod
from .resolution import _resolution
from .structures import _CACHED_STRUCTURES, LinearCycleSet, lcs_to_brace, require_valid_lcs

__all__ = [
    "tuple_index",
    "all_tuples",
    "degenerate_indices",
    "reduced_cohomology",
    "reduced_homology",
    "cs_cocycle_group",
    "cs_cohomology",
    "antisymmetrization_is_chain_map",
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

    At pos = k - 1 the runs are single indices, so the rows interleave:

    >>> _act_map(2, 3, ((0, 1), (1, 0)), 2)
    [0, 3, 1, 2, 2, 1, 3, 0]
    """
    low = n ** (k - 1 - pos)
    acted = _acted(dot, k - 1)
    if low == 1:
        return list(itertools.chain.from_iterable(zip(*acted)))
    out = []
    for h in range(0, n ** (k - 1), low):
        for image in acted:
            out += image[h : h + low]
    return out


def _acted(dot, k: int) -> tuple:
    """acted[a][y] is the index of the k-tuple y with row a of dot applied
    to every coordinate, as tuples.

    >>> _acted(((0, 1), (1, 0)), 2)
    ((0, 1, 2, 3), (3, 2, 1, 0))
    """
    n = len(dot)
    acted = tuple(map(tuple, dot)) if k else ((0,),) * n
    for _ in range(k - 1):
        acted = tuple(
            tuple(x * n + y for x in image for y in row) for image, row in zip(acted, dot)
        )
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


def _vertical_faces(structure: LinearCycleSet, i: int, j: int):
    """The face list of the vertical differential dv at bidegree (i, j),
    j >= 2, as `bicomplex` defines it."""
    faces = [(-1, _drop(i))]
    faces += [((-1) ** (offset + 1), _merge(structure.add, i + offset)) for offset in range(1, j)]
    faces.append(((-1) ** (j - 1), _drop(i + j - 1)))
    return faces


def degenerate_indices(structure: LinearCycleSet, k: int):
    """Indices of tuples containing the additive neutral element."""
    _check_degree(k)
    n = structure.order
    zero = structure.zero
    return [i for i, t in enumerate(all_tuples(n, k)) if zero in t]


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


@lru_cache(maxsize=8)
def _presentation(add) -> tuple:
    """A presentation of the abelian group with addition table `add`, in
    the shape of the shuffle quotients' (`bicomplex._harrison`).

    Generators are picked greedily: s_j is the first element of largest
    order o_j relative to the subgroup of s_0, ..., s_(j-1), so a cyclic
    group takes one generator.  Returns (gens, relations, forms, layers):
    the elements s_j; one relation per generator, o_j s_j = sum over i < j
    of r_ji s_i, as the row {j: o_j, i: -r_ji}; per element a the normal
    form c(a), the unique one with a = sum of c_i(a) s_i and 0 <= c_i(a)
    < o_i, as its pairs (i, c_i(a)) with c_i(a) nonzero; and the same
    forms in `_layers`.  Every caller shares the cached result, so it is
    read-only throughout: tuples, and relation rows as mapping proxies.
    In Z/4 every element is a multiple of 1:

    >>> z4 = tuple(tuple((a + b) % 4 for b in range(4)) for a in range(4))
    >>> gens, relations, forms, _layers = _presentation(z4)
    >>> gens, [dict(relation) for relation in relations], forms
    ((1,), [{0: 4}], ((), ((0, 1),), ((0, 2),), ((0, 3),)))

    Z/4 + Z/2 listed from (1, 1), whose multiples come first, takes
    s_0 = (1, 1) and s_1 = (1, 0) with 2 s_1 = 2 s_0:

    >>> elems = [(0, 0), (1, 1), (2, 0), (3, 1), (1, 0), (2, 1), (3, 0), (0, 1)]
    >>> add = tuple(
    ...     tuple(elems.index(((a + c) % 4, (b + d) % 2)) for c, d in elems) for a, b in elems
    ... )
    >>> gens, relations, forms, _layers = _presentation(add)
    >>> gens, [dict(relation) for relation in relations]
    ((1, 4), [{0: 4}, {1: 2, 0: -2}])
    >>> forms[4], forms[5]
    (((1, 1),), ((0, 1), (1, 1)))
    """
    n = len(add)
    zero = next(a for a in range(n) if add[a][a] == a)
    coords = {zero: ()}  # the subgroup found so far, in normal form
    gens, relations = [], []
    while len(coords) < n:
        best = None
        for a in range(n):
            order, x = 1, a
            while x not in coords:
                order, x = order + 1, add[x][a]
            if best is None or order > best[0]:
                best = (order, a, x)
        order, s, x = best
        relation = {len(gens): order, **{i: -c for i, c in enumerate(coords[x]) if c}}
        relations.append(MappingProxyType(relation))
        gens.append(s)
        grown = {}
        for h, c in coords.items():
            for i in range(order):
                grown[h] = c + (i,)
                h = add[h][s]
        coords = grown
    forms = tuple(tuple((i, c) for i, c in enumerate(coords[a]) if c) for a in range(n))
    return tuple(gens), tuple(relations), forms, _layers(forms)


def _in_linearity_lattice(add, chain) -> bool:
    """Whether a formal sum {tuple index: coefficient} of k-tuples lies in
    the integer span of the linearity relations (p, a + b) - (p, a) - (p, b).

    That span is the kernel of sum of c (p, a) -> sum of c a in (A, +),
    prefix by prefix, so each prefix's sum is taken in normal form and
    carried through the relations o_j s_j = sum of r_ji s_i, from the
    last generator down; it must leave no remainder.  On Z/4, (0, 1)
    + (0, 3) and 4 (1, 1) vanish, (0, 1) + (1, 3) does not:

    >>> z4 = tuple(tuple((a + b) % 4 for b in range(4)) for a in range(4))
    >>> _in_linearity_lattice(z4, {1: 1, 3: 1}), _in_linearity_lattice(z4, {5: 4})
    (True, True)
    >>> _in_linearity_lattice(z4, {1: 1, 7: 1})
    False
    """
    n = len(add)
    _gens, relations, forms, _layers = _presentation(add)
    sums = defaultdict(lambda: [0] * len(relations))
    for x, c in chain.items():
        acc = sums[x // n]
        for i, ci in forms[x % n]:
            acc[i] += c * ci
    for acc in sums.values():
        for j in reversed(range(len(relations))):
            q = acc[j] // relations[j][j]
            for i, x in relations[j].items():
                acc[i] -= q * x
            if acc[j]:
                return False
    return True


# ---------------------------------------------------------------------------
# The presented writer of both theories' systems


def _holding_zero(structure: LinearCycleSet, k: int) -> tuple:
    """Per k-tuple, in lexicographic order, whether it holds the neutral
    element; the empty tuple does not."""
    zero = structure.zero
    return tuple(zero in t for t in all_tuples(structure.order, k))


def _layers(forms) -> tuple:
    """Normal forms in layers: layer k lists, per tuple, the generator and
    the coefficient of the k-th term of its form, or (0, 0) past its end.

    >>> _layers([[(0, 1)], [(0, 2), (1, 1)], []])
    (((0, 0, 0), (1, 2, 0)), ((0, 1, 0), (0, 1, 0)))
    """
    depth = max(map(len, forms), default=0)
    return tuple(
        tuple(zip(*[f[k] if k < len(f) else (0, 0) for f in forms])) for k in range(depth)
    )


@lru_cache(maxsize=_CACHED_STRUCTURES)
def _tables(structure: LinearCycleSet):
    """tables(kind, k): the index tables of the presented writer, built on
    first use: the faces of dh compiled on k-prefixes ("dh") and of dv on
    k-suffixes ("dv"), the action of each element on k-suffixes ("act",
    `_acted`), and the k-tuples holding the neutral element ("zero",
    `_holding_zero`).

    Cached on the structure, whose equality and hash are those of its
    tables (order, add, dot), so every system built on equal tables, over
    any coefficients, shares one compile.  Every caller shares the tables,
    so they are read-only: (sign, index map) pairs and rows are tuples.
    """
    n = structure.order
    built = {}

    def tables(kind, k):
        if (kind, k) not in built:
            if kind == "zero":
                built[kind, k] = _holding_zero(structure, k)
            elif kind == "act":
                built[kind, k] = _acted(structure.dot, k)
            else:
                if kind == "dh":
                    faces = _horizontal_faces(structure, k)
                else:
                    faces = _vertical_faces(structure, 0, k)
                maps = _index_maps(faces, n, k)
                built[kind, k] = tuple((sign, tuple(image)) for sign, image in maps)
        return built[kind, k]

    return tables


def _blocks(d: int, pres) -> list:
    """The blocks (d - j, j) of total degree d whose j is presented, in
    the order of pres, which lists its j ascending: the order of
    `bicomplex.total_blocks`."""
    return [(d - j, j) for j in pres if j <= d]


def _unknowns(ranks, d: int, pres, normalized: bool = False, tables=None):
    """Empty rows for the degree-d coordinates of the presented total
    complex, the rows of each block, and the dead coordinates.

    Block (i, j), in `_blocks` order, holds the coordinate (p, g) of a
    generator p of the free module of rank ranks[i] in degree i (an
    i-tuple, ranks[i] = |A|^i, or a generator of P_i) and a generator g of
    pres[j] at its offset plus p * r + g, r the number of generators, and
    blocks[i, j][p * r + g] is that row.  When normalized, the coordinates
    whose tuple (p, g) holds the neutral element are dead: in `blocks`
    they read one scrap row, so nothing is ever written to them.
    """
    rows, blocks, dead = [], {}, set()
    scrap = {}
    for i, j in _blocks(d, pres):
        gens = pres[j][0]
        r, start = len(gens), len(rows)
        rows += [{} for _ in range(ranks[i] * r)]
        blocks[i, j] = block = rows[start:]
        if normalized:
            suffixes = tables("zero", j)
            for p, held in enumerate(tables("zero", i)):
                for g, t in enumerate(gens):
                    if held or suffixes[t]:
                        block[p * r + g] = scrap
                        dead.add(start + p * r + g)
    return rows, blocks, dead


def _write_boundary(structure: LinearCycleSet, k: int, pres, blocks, normalized: bool, tables):
    """Write the degree-k total boundary in presented coordinates into the
    degree-(k-1) rows of `blocks`, and return its column count.

    Column x is the degree-k coordinate (p', g') of block (i', j'), laid
    out as in `_unknowns`, and the row of (p, g) gains the coefficient of
    (p, g) in the boundary of the tuple (p', g').  The faces of dh move
    the prefix alone, except the action, whose suffix is p'_0 . g' on each
    run of p'_0; the faces of dv move the suffix alone.  So each face is
    compiled once, by `tables`, on prefixes or on suffixes; its
    suffix targets are expanded through one layer of normal forms at a
    time for the generators (`_layers`), and the rows of all prefixes are
    then indexed at once.  When normalized, targets holding the neutral
    element are skipped: their boundaries hold it too.
    """
    n = structure.order
    col = 0
    for i, j in _blocks(k, pres):
        gens, _relations, _forms, layers = pres[j]
        r = len(gens)
        prefixes, gs, ts = range(n**i), range(r), gens
        columns = range(col, col + n**i * r)
        if normalized:
            prefixes = [p for p, held in enumerate(tables("zero", i)) if not held]
            held = tables("zero", j)
            gs = [g for g, t in enumerate(gens) if not held[t]]
            ts = [gens[g] for g in gs]
            columns = [col + p * r + g for p in prefixes for g in gs]
        if i >= 1:
            below = blocks[i - 1, j]
            (act_sign, act), *rest = tables("dh", i)
            for sign, image in rest:  # the suffix stays a generator
                targets = [image[p] * r + g for p in prefixes for g in gs]
                _accumulate(below, columns, targets, itertools.repeat(sign))
            low = n ** (i - 1)  # the prefixes with one first coordinate p'_0
            heads = tables("act", j)
            for generator, coefficient in layers:
                # per head p'_0, the layer's term of the form of p'_0 . g'
                moved = [[generator[head[t]] for t in ts] for head in heads]
                scaled = [[act_sign * coefficient[head[t]] for t in ts] for head in heads]
                targets = [act[p] * r + g for p in prefixes for g in moved[p // low]]
                entries = [c for p in prefixes for c in scaled[p // low]]
                _write_nonzero(below, columns, targets, entries)
        if j >= 2:
            faces = tables("dv", j)
            _write_vertical(blocks[i, j - 1], columns, prefixes, ts, pres[j - 1], (-1) ** i, faces)
        col += n**i * r
    return col


def _write_vertical(below, columns, prefixes, ts, pres, sign: int, faces) -> None:
    """Write sign times dv of a block (i, j) into the rows `below` of block
    (i, j - 1), presented by `pres`: dv moves the suffix alone, so column
    (p, t) of `columns`, for p in `prefixes` and the suffix t of `ts`, gains
    the faces of t, compiled by `tables("dv", j)` and expanded through one
    layer of normal forms at a time, at the rows p * r' + t', r' the
    number of generators of pres.  The prefixes are i-tuples of the tuple
    writer or the generators of P_i of the resolved one."""
    rb, layers = len(pres[0]), pres[3]
    for face_sign, image in faces:
        images = [image[t] for t in ts]
        for generator, coefficient in layers:
            entries = [sign * face_sign * coefficient[t] for t in images] * len(prefixes)
            targets = [p * rb + generator[t] for p in prefixes for t in images]
            _write_nonzero(below, columns, targets, entries)


def _write_nonzero(rows, columns, targets, entries) -> None:
    """`_accumulate` on the nonzero entries alone: a layer of normal forms
    reads 0 past the end of a shorter form."""
    if not all(entries):
        kept = (list(itertools.compress(x, entries)) for x in (columns, targets, entries))
        columns, targets, entries = kept
    _accumulate(rows, columns, targets, entries)


def _accumulate(rows, columns, targets, entries) -> None:
    """Column x gains c at rows[y], for x, y and c of `columns`, `targets`
    and `entries` in step: the one write of the presented writer, once
    each face target is expanded through its normal form.

    >>> rows = [{}, {}]
    >>> _accumulate(rows, [0, 1, 1], [1, 1, 1], [2, -1, 1])
    >>> rows
    [{}, {0: 2, 1: 0}]
    """
    for x, row, c in zip(columns, map(rows.__getitem__, targets), entries):
        row[x] = row.get(x, 0) + c


def _write_relations(d: int, pres, blocks, start: int, ranks) -> None:
    """Write the relations of the degree-d coordinates as columns from
    `start` on: one per block (i, j), generator of the free module of rank
    ranks[i] in degree i (an i-tuple, or a generator of P_i) and relation
    of pres[j] (`_relation_columns`)."""
    col = start
    for i, j in _blocks(d, pres):
        gens, relations, _forms, _layers = pres[j]
        _relation_columns(blocks[i, j], relations, len(gens), col)
        col += ranks[i] * len(relations)


def _presented_system(structure: LinearCycleSet, d: int, pres, normalized: bool, tables):
    """The degree-d system of the total complex over the presentations
    pres[j] of the quotients K_j, on the blocks (d - j, j) whose j is
    presented: (system, read, targets).

    The system is as `_tagged` reads it.  Row y of `cocycles` holds the
    coefficients of coordinate y in the cocycle conditions, one per
    generator of a block of degree d + 1 (`_write_boundary`), then in the
    relations; row y of `coboundaries` holds the coboundary of coordinate
    y of degree d - 1, and `constraints` its relations.  `read` reads a
    vector of degree-d coordinates on every tuple (`_reader`), and
    `targets()` lists the tuple each cocycle condition checks
    (`_targets`).  With pres = {1: the presentation of (A, +)} this is
    the reduced system, block (d - 1, 1) alone.  Over Z/2 with the
    trivial dot, the conditions at (a, s_0) read u - u = 0, and those at
    (a, b, s_0) read u_b - u_(a+b) + u_a; each coordinate carries the
    relation 2 u = 0:

    >>> z2 = LinearCycleSet(2, [[0, 1], [1, 0]], [[0, 1], [0, 1]])
    >>> pres = {1: _presentation(z2.add)}
    >>> _presented_system(z2, 1, pres, False, _tables(z2))[0][0]
    [{0: 0, 1: 0, 2: 2}]
    >>> _presented_system(z2, 2, pres, False, _tables(z2))[0][0]
    [{0: 1, 3: -1, 1: 1, 2: 1, 4: 2}, {1: 0, 2: 0, 3: 2, 5: 2}]
    """
    tuples = [structure.order**i for i in range(d + 1)]
    cocycles, blocks, dead = _unknowns(tuples, d, pres, normalized, tables)
    width = _write_boundary(structure, d + 1, pres, blocks, normalized, tables)
    _write_relations(d, pres, blocks, width, tuples)
    constraints = coboundaries = dead_below = ()
    if d >= 2:
        below = (tuples, d - 1, pres, normalized, tables)
        constraints, blocks, dead_below = _unknowns(*below)
        _write_relations(d - 1, pres, blocks, 0, tuples)
        coboundaries, blocks, _dead = _unknowns(*below)
        _write_boundary(structure, d, pres, blocks, normalized, tables)
    system = cocycles, constraints, coboundaries, dead, dead_below
    n = structure.order
    return system, _reader(n, d, pres), partial(_targets, n, d + 1, pres)


def _targets(n: int, k: int, pres) -> list:
    """The tuple, as its total index, that each degree-k column of
    `_write_boundary` writes the boundary of, in column order."""
    return [
        (j - 1) * n**k + p * n**j + t
        for i, j in _blocks(k, pres)
        for p in range(n**i)
        for t in pres[j][0]
    ]


def _reader(n: int, degree: int, pres):
    """The function reading a cochain of the given degree, in the
    coordinates of `_presented_system`, on every tuple: {total index:
    value}, nonzero entries only.  The value at (p, t) of block (i, j) is
    the sum over the normal form of t of c times the value at (p, g).
    The reader is kept with its cached system and shared by every
    caller, so what it reads through is built here, once, as tuples.
    Over Z/4, with s_0 = 1, the reduced values u = (1, 3) on the prefixes
    0 and 1 read a and 3a:

    >>> z4 = tuple(tuple((a + b) % 4 for b in range(4)) for a in range(4))
    >>> _reader(4, 2, {1: _presentation(z4)})({0: 1, 1: 3})
    {1: 1, 2: 2, 3: 3, 5: 3, 6: 6, 7: 9}
    """
    # per block, last first: its first coordinate, its offset on tuples,
    # and per generator g the tuples whose forms hold g
    spreads = []
    start = 0
    for i, j in _blocks(degree, pres):
        gens, _relations, forms, _layers = pres[j]
        spread = [[] for _ in gens]
        for t, terms in enumerate(forms):
            for g, c in terms:
                spread[g].append((t, c))
        spreads.insert(0, (start, (j - 1) * n**degree, n**j, tuple(map(tuple, spread))))
        start += n**i * len(gens)
    spreads = tuple(spreads)

    def read(vec):
        out = defaultdict(int)
        for x, u in vec.items():
            start, offset, width, spread = next(b for b in spreads if b[0] <= x)
            p, g = divmod(x - start, len(spread))
            for t, c in spread[g]:
                out[offset + p * width + t] += c * u
        return {y: v for y, v in sorted(out.items()) if v}

    return read


# The sparse entries that the systems kept by both theories hold together:
# at most about 120 MiB, at the 60-120 bytes a kept system takes per entry.
_KEPT_ENTRIES = 1 << 20
_kept_systems = OrderedDict()  # (writer, *key) -> ((system, read, targets), entries)


def _kept(write):
    """The system writer `write`, with each system it writes made read-only
    and kept for the process: rows as mapping proxies in tuples, and the
    dead coordinates as frozensets.  `write` returns the system first,
    then what reads it, which is kept as it is.  Every caller shares what
    is kept, and its readers copy what they reduce (`_subquotient_mod`,
    `_kernel_mod`).

    All kept systems together hold at most _KEPT_ENTRIES sparse entries:
    past that, the least recently used leave first, and a system larger
    than the bound is returned but not kept.  `cache_clear()` drops what
    `write` keeps.
    """

    @wraps(write)
    def written(*key):
        key = (write, *key)
        held = _kept_systems.get(key)
        if held is not None:
            _kept_systems.move_to_end(key)
            return held[0]
        system, *readers = write(*key[1:])
        cocycles, constraints, coboundaries, dead, dead_below = system
        rows = [tuple(map(MappingProxyType, r)) for r in (cocycles, constraints, coboundaries)]
        value = ((*rows, frozenset(dead), frozenset(dead_below)), *readers)
        _kept_systems[key] = value, sum(len(row) for block in rows for row in block)
        total = sum(entries for _value, entries in _kept_systems.values())
        while total > _KEPT_ENTRIES:
            total -= _kept_systems.popitem(last=False)[1][1]
        return value

    def cache_clear():
        for key in [key for key in _kept_systems if key[0] is write]:
            del _kept_systems[key]

    written.cache_clear = cache_clear
    return written


@_kept
def _written_reduced(structure: LinearCycleSet, k: int):
    """The plain degree-k reduced system as `_presented_system` writes it,
    kept per (structure, k) and process (`_kept`): it does not depend on
    the coefficients."""
    pres = {1: _presentation(structure.add)}
    return _presented_system(structure, k, pres, False, _tables(structure))


def _check_budgets(structure: LinearCycleSet, k: int) -> None:
    """The degree and basis budgets of a degree-k reduced group, checked
    on every call before any system is looked up or written."""
    _check_degree(k)
    n = structure.order
    check_power(n, k, f"the degree-{k} tuple basis")
    check_power(n, k + 1, f"the degree-{k + 1} tuple basis")


def _reduced_system(structure: LinearCycleSet, k: int):
    """The plain degree-k reduced system, checked against the budgets
    first: block (k - 1, 1) of the total complex over the presentation of
    (A, +), as `_presented_system` writes it.

    A last-linear cochain is given by its values u_(p,j) = phi(p, s_j) on
    the generators s_j of `_presentation`, subject to the relations
    o_j u_(p,j) = sum over i < j of r_ji u_(p,i).  Returns over(m), giving
    (system, read, targets) as `bicomplex._full_system` does.  The system
    does not depend on m, so every coefficient group shares one read-only
    system, kept per (structure, k) and process (`_written_reduced`); the
    budgets are checked on every call, before it is looked up.  The groups
    themselves are read off a resolution (`reduced_cohomology`); this tuple
    route serves classification and `cocycles_cohomologous`, which read
    cocycles on every tuple.
    """
    _check_budgets(structure, k)
    built = _written_reduced(structure, k)
    return lambda m: built


def _pulled_back(rows, images, acting, r: int, start: int) -> None:
    """Write the coboundary Hom_G(d, M) of a differential d: P_i -> P_(i-1)
    of `resolution._resolution`, given by its images d(e_l), for the module
    M = Hom(K, Z/q) of a presented K on r generators s_j, into `rows`, one
    per coordinate (l', t) of degree i - 1, at l' * r + t.

    Row (l', t) gains, at column start + l * r + j, the coefficient of
    u_(l',t) in (delta phi)(e_l)(s_j) = phi(d e_l)(s_j): the sum over the
    terms c g e_l' of d(e_l) of c phi(e_l')(g . s_j), read through the
    normal form of g . s_j, whose terms (t, j, a) are listed in acting[g].
    """
    n = len(acting)
    for l, image in enumerate(images):
        for x, c in image.items():
            source, g = divmod(x, n)
            for t, j, a in acting[g]:
                row, col = rows[source * r + t], start + l * r + j
                row[col] = row.get(col, 0) + c * a


def _relation_columns(rows, relations, r: int, start: int) -> None:
    """Write, from column `start` on, each relation on r generators at each
    prefix or generator l of a free module, the rows l * r + t: one column
    per (l, relation), in that order, holding the relation's coefficient
    at each coordinate (l, t)."""
    col = start
    for chunk in _runs(rows, r):
        for relation in relations:
            for t, x in relation.items():
                chunk[t][col] = x
            col += 1


def _resolved_system(mul, dot, add, d: int, q: int, pres=None, tables=None) -> tuple:
    """The plain degree-d system of the total complex over Z/q, written over
    a free resolution P of Z/q over (Z/q)[G], G the group of `mul`: the
    cochains of Tot Hom_G(P_i, Hom(K_j, Z/q)) on the blocks (d - j, j)
    whose j is presented, in the shape `_tagged` reads, as a one-entry
    tuple for `_kept`.

    pres[j] presents K_j as `_presented_system` reads it; by default pres
    = {1: `_presentation(add)`}, the reduced system, Hom_G(P_(d-1), Hom(A,
    Z/q)).  A cochain phi is given by the values u_(l,t) = phi(e_l)(s_t) on
    the generators e_l of P_i and s_t of K_j, subject to the relations of
    K_j at each e_l.  G acts on K_j by dot on every coordinate (`_acted`),
    and so on Hom(K_j, Z/q) by (g . psi)(t) = psi(g . t).  The total
    coboundary is Hom_G(d_P, -) (`_pulled_back`) plus (-1)^i Hom_G(P_i,
    dv^*), with dv the compiled `tables("dv", j)`, read through the normal
    forms of K_(j-1) (`_write_vertical`); `tables` is needed only when
    some j >= 2 is presented.  A j without normal forms, such as
    `bicomplex._spanning`, only lists targets of the top block (0, d + 1).

    Row y of `cocycles` holds the coefficients of coordinate y in the
    conditions (delta phi)(e)(s) = 0, one per generator e of P_i and s of
    K_j of each block of degree d + 1, then in the relations;
    `coboundaries` and `constraints` do the same for the coboundary from
    degree d - 1 and its relations.  Coboundary entries are taken mod q
    and kept in column order, which steers the pivot tie-breaks of the
    elimination; zeros are left out.  Nothing is dead: the system is plain.
    """
    if pres is None:
        pres = {1: _presentation(add)}
    resolution = _resolution(mul, q, d)
    ranks = [1] + [len(images) for images in resolution]
    acting = {}  # per presented j <= d and g, the terms (t, s, a) of the forms of g . s
    for j, (gens, _relations, forms, _layers) in pres.items():
        if j <= d:
            acting[j] = [
                [(t, s, a) for s, u in enumerate(gens) for t, a in forms[image[u]]]
                for image in _acted(dot, j)
            ]

    def coboundary(e):
        # the degree-e coordinates' rows of the coboundary into degree e + 1
        rows, blocks, _dead = _unknowns(ranks, e, pres)
        col = 0
        for i, j in _blocks(e + 1, pres):
            gens = pres[j][0]
            columns = range(col, col + ranks[i] * len(gens))
            if i >= 1:
                _pulled_back(blocks[i - 1, j], resolution[i - 1], acting[j], len(gens), col)
            if j >= 2:
                below, faces = blocks[i, j - 1], tables("dv", j)
                _write_vertical(below, columns, range(ranks[i]), gens, pres[j - 1], (-1) ** i, faces)
            col = columns.stop
        for row in rows:  # entries mod q in column order, zeros left out
            reduced = {x: c % q for x, c in sorted(row.items()) if c % q}
            row.clear()
            row.update(reduced)
        return rows, blocks, col

    cocycles, blocks, width = coboundary(d)
    _write_relations(d, pres, blocks, width, ranks)
    constraints = coboundaries = ()
    if d >= 2:
        constraints, blocks, _dead = _unknowns(ranks, d - 1, pres)
        _write_relations(d - 1, pres, blocks, 0, ranks)
        coboundaries = coboundary(d - 1)[0]
    return ((cocycles, constraints, coboundaries, (), ()),)


@_kept
def _written_resolved(structure: LinearCycleSet, k: int, q: int):
    """The plain degree-k reduced system over Z/q as `_resolved_system`
    writes it over the brace group (A, o), kept per (structure, k, q) and
    process (`_kept`); the resolution is built only when it is written,
    and is not kept apart from it."""
    mul = lcs_to_brace(structure).circle
    return _resolved_system(mul, structure.dot, structure.add, k, q)


def _resolved_groups(written, structure: LinearCycleSet, k: int):
    """over(m): the invariant factors over Z/m of the degree-k groups of a
    resolved system, read one prime power q of m at a time on the system
    `written(structure, k, q)` and merged."""

    def over(m):
        parts = []
        for p, e in _prime_powers(m):
            parts.append(_invariants(written(structure, k, p**e)[0], p**e))
        return merge_invariants(*parts)

    return over


def reduced_cohomology(
    structure: LinearCycleSet,
    coeffs: FiniteAbelianGroup,
    k: int,
    normalized: bool = False,
):
    """Invariant factors of the degree-k reduced cohomology group,
    H^(k-1)(G; Hom(A, Gamma)) for the brace group G = (A, o).

    Each cyclic factor Z/m is read one prime power q of m at a time, on
    the system written over a resolution of Z/q over (Z/q)[G]
    (`_written_resolved`), and the parts are merged.  `normalized` picks
    no other route: a tuple holding the neutral element is a degenerate
    bar cell of G, and the normalized bar complex is a free resolution as
    well, so the normalized groups equal the plain ones in every degree.
    """
    require_valid_lcs(structure)
    _check_budgets(structure, k)
    return _over_factors(coeffs, _resolved_groups(_written_resolved, structure, k))


def reduced_homology(
    structure: LinearCycleSet,
    coeffs: FiniteAbelianGroup,
    k: int,
    normalized: bool = False,
):
    """Invariant factors of the degree-k reduced homology group, H_(k-1)(G;
    A (x) Gamma), which equal those of the cohomology group.

    Over Z/q the resolved cochains Hom_G(P, Hom(A, Z/q)) are the Z/q-dual
    of the chains P (x)_G (A (x) Z/q).  Z/q is self-injective, so dualizing
    is exact and H^k = Hom(H_k, Z/q); and a finite Z/q-module has the same
    invariant factors as its dual.  `normalized` picks no other route, as
    in `reduced_cohomology`.
    """
    return reduced_cohomology(structure, coeffs, k)


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
