"""The degree-split bicomplex refining the reduced complex.

Chains in bidegree (i, j) are formal sums over (i+j)-tuples; the first i
coordinates play the cycle-set role and the last j the linearizing role.
The horizontal differential lowers i, the vertical one lowers j:

    dh(i,j) = dot-action + alternating merges among the first i
              coordinates + (-1)^i drop of coordinate i,         i, j >= 1
    -dv(i,j) = drop of coordinate i+1 + alternating merges among
              the last j coordinates + (-1)^j drop of the last,  j >= 2

(coordinates 1-based).  Cochains in bidegree (i, j) are value tables
whose linearization kills every partial shuffle of the last j
coordinates; the total complex in degree n is the direct sum over
i + j = n, j >= 1, with blocks ordered by descending i, and the chain
differential restricted to block (i, j) is dh + (-1)^i dv.

Every operator is a signed face list on tuples, as in the reduced
complex, compiled to index maps over the lexicographic basis; the
structural checks apply compiled face lists to formal sums of tuple
indices, without a matrix.  Only `dh_matrix` and `dv_matrix` write a
face list's rows out densely, for display.

The groups are computed in Harrison coordinates.  The cochains of block
(i, j) that vanish on shuffles are the maps on i-tuples into the dual of
the shuffle quotient K_j of the j-tuples, the vertical direction being
Harrison's complex of (A, +) (Harrison, Trans. AMS 104, 1962).  Over each
Z/p^e, `_harrison` presents K_j from its shuffle sums: generators,
relations where K_j has torsion, and normal forms.  `_full_system` hands
the presentations of K_1, ..., K_n, and tuples that span K_(n+1), to the
one presented writer, `reduced._presented_system`, which writes the
reduced theory's systems too: those are the block (k - 1, 1) alone, over
the presentation of (A, +), the first Harrison homology.  Normalized
full cohomology, general classification and cohomologousness read
`_full_system`, and read its solutions on every tuple.

The plain full groups are read off a free resolution of the brace group
G = (A, o) instead, by the argument `reduced` makes for the row j = 1.
Write the prefix (x_1, ..., x_i) of a chain of block (i, j) in its
partial sums p_1, ..., p_i.  Then the faces of dh are the faces of the
homogeneous bar resolution B(G) at (0, p_1, ..., p_i), face for face,
the first face acting on the suffix by sigma_(p_1) = p_1 . - on every
coordinate: row j is Hom_G(B_i(G), Hom(Z[A^j], Gamma)).  sigma_g is
additive, so it maps each shuffle sum to the shuffle sum of the moved
tuple: it preserves the shuffles, so it acts on K_j, and row j of the
cochains vanishing on shuffles is Hom_G(B_i(G), Hom(K_j, Gamma)).  The
faces of dv drop coordinates or merge them by +, so sigma_g commutes
with dv, and dv is a map of G-modules.  A free resolution P of Z over
Z[G] has a comparison map P -> B over G (Brown, *Cohomology of Groups*,
GTM 87, 1982, I.7).  Composing with it is a map of double complexes Tot
Hom_G(B_i, Hom(K_j, Gamma)) -> Tot Hom_G(P_i, Hom(K_j, Gamma)), which
respects the filtration by j.  That filtration is finite in each total
degree, 1 <= j <= n, and on both sides its E_1 is H^i(G; Hom(K_j,
Gamma)), where the map is an isomorphism; so the map is an isomorphism
on the total cohomology.  Over Z/q, q a prime power, P is a resolution
of Z/q over (Z/q)[G] (`resolution._resolution`), which computes the same
groups for Z/q-modules, and the system of Tot Hom_G(P_i, Hom(K_j, Z/q)),
with D = dh + (-1)^i dv, is written by `reduced._resolved_system`, the
one resolved writer of both theories (`_written_full_resolved`).
Lebed and Vendramin, Adv. Math. 304 (2017), relate cycle-set homology
to the structure group in the same way.
"""

import functools
import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from types import MappingProxyType

from .abelian import FiniteAbelianGroup
from .budget import check_power
from .errors import DegreeError, ParameterError
from .linalg import _eliminate, _IntegerSpan, _mod, _prime_powers
from .reduced import (
    _accumulate,
    _apply,
    _compose,
    _drop,
    _face_rows,
    _holding_zero,
    _horizontal_faces,
    _in_linearity_lattice,
    _index_map,
    _index_maps,
    _invariants,
    _kept,
    _layers,
    _over_factors,
    _permute,
    _presented_system,
    _resolved_groups,
    _resolved_system,
    _tables,
    _vertical_faces,
    all_tuples,
    tuple_index,
)
from .structures import LinearCycleSet, lcs_to_brace, require_valid_lcs

__all__ = [
    "shuffle_permutations",
    "dh_matrix",
    "dv_matrix",
    "total_blocks",
    "full_cohomology",
    "BicomplexReport",
    "bicomplex_identity_check",
    "row_matches_reduced",
    "column_matches_trivial_reduced",
]

# Shuffle sums are budgeted by what they build: per shuffle, a permutation
# of the i + j coordinates and one term on each of the n**(i+j) tuples.
# Under this factor every full cohomology group of order >= 2 that the
# basis budget admits is still admitted, and so is trivial(1) to degree 21.
_SHUFFLE_FACTOR = 8192


def shuffle_permutations(r: int, j: int):
    """Permutations of {0..j-1} increasing on the first r and last j-r slots.

    Returns (sign, inverse) pairs, where inverse[p] says which source slot
    lands at position p.
    """
    if not 1 <= r <= j - 1:
        raise ParameterError(f"shuffle type ({r}, {j - r}) needs 1 <= r <= j-1")
    out = []
    for first in itertools.combinations(range(j), r):
        rest = [p for p in range(j) if p not in first]
        perm = list(first) + rest
        sign = 1
        for a in range(j):
            for b in range(a + 1, j):
                if perm[a] > perm[b]:
                    sign = -sign
        inverse = [0] * j
        for q, p in enumerate(perm):
            inverse[p] = q
        out.append((sign, inverse))
    return out


def _shuffle_sums(n: int, i: int, j: int, r: int):
    """One signed formal sum per (i+j)-tuple, keyed by tuple index: the
    first i coordinates stay put, and the last j are shuffled with the
    (r, j-r) signs.  Coinciding terms accumulate, so sums over tuples with
    repeated entries may cancel to empty dicts.  Budgets are the caller's.
    """
    size = n ** (i + j)
    sums = [{} for _ in range(size)]
    for sign, image in _index_maps(_shuffle_faces(i, j, r), n, i + j):
        _accumulate(sums, image, range(size), itertools.repeat(sign))
    return [{y: c for y, c in s.items() if c} for s in sums]


def _shuffle_faces(i: int, j: int, r: int):
    """The face list of the (r, j - r) shuffles of the last j coordinates."""
    return [
        (sign, _permute(tuple(range(i)) + tuple(i + q for q in inverse)))
        for sign, inverse in shuffle_permutations(r, j)
    ]


def dh_matrix(structure: LinearCycleSet, i: int, j: int) -> list:
    """The horizontal differential at bidegree (i, j), i, j >= 1, as a
    list of dense rows."""
    if i < 1 or j < 1:
        raise ParameterError(f"horizontal differential needs i, j >= 1, got ({i}, {j})")
    n = structure.order
    k = i + j
    check_power(n, k, f"the degree-{k} tuple basis")
    return _dense(n, k, _horizontal_faces(structure, i))


def dv_matrix(structure: LinearCycleSet, i: int, j: int) -> list:
    """The vertical differential at bidegree (i, j), j >= 2, as a list of
    dense rows."""
    if i < 0 or j < 2:
        raise ParameterError(f"vertical differential needs i >= 0 and j >= 2, got ({i}, {j})")
    n = structure.order
    k = i + j
    check_power(n, k, f"the degree-{k} tuple basis")
    return _dense(n, k, _vertical_faces(structure, i, j))


def _dense(n: int, k: int, faces) -> list:
    """The face rows of one face list on k-tuples, written out densely:
    row r holds the entries of the (k-1)-tuple r on every k-tuple, in
    lexicographic order."""
    rows = _face_rows(n, k, [faces], n ** (k - 1))
    return [[row.get(x, 0) for x in range(n**k)] for row in rows]


def total_blocks(n: int):
    """Bidegrees summing to n with j >= 1, ordered by descending i."""
    _check_total_degree(n)
    return [(i, n - i) for i in range(n - 1, -1, -1)]


def _check_total_degree(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise DegreeError(f"total degree must be an integer >= 1, got {n!r}")


def _into(block, face):
    """The face, landing in block (i, j) of the total complex."""
    return (_into_map, block, face)


def _into_map(n: int, k: int, block, face) -> list:
    """The map of `_into`: the face's map moved past the j - 1 blocks of
    total degree i + j before (i, j), of n^(i+j) coordinates each.

    >>> _into_map(2, 2, (0, 1), _drop(1)), _into_map(2, 2, (0, 2), _permute((1, 0)))
    ([0, 0, 1, 1], [4, 6, 5, 7])
    """
    i, j = block
    offset = (j - 1) * n ** (i + j)
    return [x + offset for x in _index_map(face, n, k)]


def _total_faces(structure: LinearCycleSet, n: int):
    """One face list per source block of the degree-n total boundary: dh
    into (i-1, j) and (-1)^i dv into (i, j-1), on total-complex indices."""
    out = []
    for i, j in total_blocks(n):
        faces = []
        if i >= 1:
            faces += [(s, _into((i - 1, j), f)) for s, f in _horizontal_faces(structure, i)]
        if j >= 2:
            vertical = _vertical_faces(structure, i, j)
            faces += [((-1) ** i * s, _into((i, j - 1), f)) for s, f in vertical]
        out.append(faces)
    return out


@functools.lru_cache(maxsize=16)
def _harrison(n: int, j: int, m: int):
    """A presentation over Z/m of the shuffle quotient K_j: the free module
    on the j-tuples modulo the shuffle sums of every type (r, j - r).

    Returns (gens, relations, forms, layers), in the shape of
    `reduced._presentation`: the tuple indices of the generators,
    ascending; the relations among them, as {generator position:
    coefficient} rows; per j-tuple t, the normal form of t as (generator
    position, coefficient) pairs; and the same forms in `_layers`.  Over
    each prime power p^e of m the shuffle sums are eliminated
    (`_eliminate`).  Taken from the last pivot back, a unit pivot writes
    its tuple in the later ones, and a pivot of valuation v > 0 leaves its
    tuple a generator under the relation p^v t = ..., so the torsion of
    K_j is computed, not assumed.
    Prime powers that choose different generators are glued by the
    Chinese remainder theorem: a generator of one that another writes in
    its own generators carries that normal form as a relation.  Every
    term of the shuffle sum of a tuple holding 0 holds 0 too, so tuples
    without 0 have normal forms in generators without 0.

    K_j depends on n, j and m alone, so the presentation is cached on
    them and shared by every structure of order n and every caller.  So
    it is read-only: tuples, and relation rows as mapping proxies, as in
    `reduced._presentation`.  On pairs over two elements (0, 1) reads
    (1, 0), and three generators remain; over Z/4 the quadruples over one
    element keep torsion:

    >>> gens, relations, forms, _layers = _harrison(2, 2, 2)
    >>> gens, relations, forms[1]
    ((0, 2, 3), (), ((1, 1),))
    >>> [dict(relation) for relation in _harrison(1, 4, 4)[1]]
    [{0: 2}]
    """
    if j == 1:  # no shuffles: every element generates
        forms = tuple(((t, 1),) for t in range(n))
        return tuple(range(n)), (), forms, _layers(forms)
    sums = [s for r in range(1, j) for s in _shuffle_sums(n, 0, j, r) if s]
    local = []  # per prime power q: the lift of Z/q into Z/m, forms and relations
    for p, e in _prime_powers(m):
        q = p**e
        pivots, _zeros = _eliminate([_mod(s, q) for s in sums], p, e)
        forms, relations = {}, []
        for row, v, _tag, col in reversed(pivots):
            unit = pow(row.pop(col) // p**v, -1, q)
            rest = {}
            for c, x in row.items():
                for g, y in forms[c].items() if c in forms else ((c, 1),):
                    rest[g] = rest.get(g, 0) + unit * x * y
            if v:
                relations.append({col: p**v, **_mod(rest, q)})
            else:
                forms[col] = _mod({g: -x for g, x in rest.items()}, q)
        local.append((m // q * pow(m // q, -1, q), forms, relations))
    written = set.intersection(*(set(forms) for _lift, forms, _own in local))
    gens = [t for t in range(n**j) if t not in written]
    position = {t: g for g, t in enumerate(gens)}
    forms = [[(position[t], 1)] if t in position else [] for t in range(n**j)]
    relations = []
    for lift, local_forms, own in local:
        relations += [{position[t]: lift * x % m for t, x in rel.items()} for rel in own]
        for t in written:
            forms[t] += [(position[g], lift * x % m) for g, x in local_forms[t].items()]
        if len(local) > 1:
            # a generator that this prime power writes in its own generators
            # carries that normal form as a relation
            relations += [
                {position[t]: lift, **{position[g]: -lift * x % m for g, x in form.items()}}
                for t, form in local_forms.items()
                if t in position
            ]
    if len(local) > 1:  # the terms of the prime powers on one generator add up
        for t in written:
            merged = defaultdict(int)
            for g, x in forms[t]:
                merged[g] += x
            forms[t] = [(g, x % m) for g, x in sorted(merged.items()) if x % m]
    forms = tuple(map(tuple, forms))
    relations = tuple(map(MappingProxyType, relations))
    return tuple(gens), relations, forms, _layers(forms)


def _spanning(n: int, j: int):
    """Targets that span the shuffle quotient K_j, j >= 2, as the
    generators of `_harrison` without relations or forms: the j-tuples t
    with t_0 >= t_1 whose last entry is at most the largest of the others.

    Any other tuple t is a signed sum of tuples after it in lexicographic
    order.  If t_0 < t_1, its shuffle sum of type (1, j - 1) holds t once,
    and every other term begins with t_1.  If its last entry c is above
    all the others, its shuffle sum of type (j - 1, 1) holds t once, and
    every other term puts c where t has a smaller entry.  So from the
    last tuple down every tuple is a sum of these, and a cochain that
    vanishes on shuffles vanishes when it vanishes on them.

    >>> _spanning(2, 2)[0], _spanning(2, 3)[0]
    ([0, 2, 3], [0, 4, 5, 6, 7])
    """
    low = n ** (j - 2)
    largest = [max(t) for t in all_tuples(n, j - 1)]
    gens = [
        t for t in range(n**j) if t // (n * low) >= t // low % n and t % n <= largest[t // n]
    ]
    return gens, [], None, None


def _full_system(structure: LinearCycleSet, degree: int, normalized: bool = False):
    """The degree-n tuple system of the total complex in Harrison
    coordinates, checked against the budgets first.

    Returns over(m), which gives (system, read, targets) over Z/m as the
    presented writer `_presented_system` writes them: the system as
    `_tagged` reads it, a function reading a vector of its coordinates on
    every tuple, and one listing the tuple each cocycle condition checks.
    The cochains of block (i, j) that vanish on shuffles are the maps on
    i-tuples into the dual of the shuffle quotient K_j, so a degree-n
    cochain is given by its values on (p, g), p an i-tuple and g a
    generator of the presentation of K_j over Z/m (`_harrison`), subject
    to its relations.  The coboundary of such a cochain vanishes on
    shuffles again, so the cocycle conditions are needed only on the
    generators of each target block, and on the top block (0, n + 1) on
    tuples that span K_(n+1) (`_spanning`), which spares presenting it.
    On every tuple, block (i, j) takes n^(i+j) coordinates from (j - 1)
    n^(i+j) on, as in `_into_map`.  The budgets are checked on every
    call; the system over Z/m is written once per (structure, degree,
    normalized, m) and process, and kept read-only (`_written_full`).

    The plain groups are read off a resolution of the brace group instead
    (`full_cohomology`).  This tuple route serves what needs a cochain on
    every tuple or a normalized cochain: the normalized groups, general
    classification, `cocycles_cohomologous` and verify-paper.
    """
    _check_full_budgets(structure, degree)
    return functools.partial(_written_full, structure, degree, normalized)


def _check_full_budgets(structure: LinearCycleSet, degree: int) -> None:
    """The degree, basis and shuffle budgets of a degree-n full group,
    checked on every call before any system is looked up or written, on
    either route."""
    if not isinstance(degree, int) or degree < 1:
        raise DegreeError(f"degree must be an integer >= 1, got {degree!r}")
    n = structure.order
    check_power(n, degree + 1, f"the total degree-{degree + 1} basis", factor=3, times=degree + 1)
    # all blocks of total degree `degree` together hold fewer than
    # 2**(degree + 1) shuffles, each on the n**degree tuples
    what = f"the shuffle sums of total degree {degree}"
    check_power(2, degree + 1, what, _SHUFFLE_FACTOR, times=n**degree + degree)


@_kept
def _written_full(structure: LinearCycleSet, degree: int, normalized: bool, m: int):
    """The system of `_full_system` over Z/m, kept per (structure, degree,
    normalized, m) and process (`reduced._kept`), since the presentations
    depend on m: each K_j, j <= n, is presented once per (order, m) and
    process (`_harrison`)."""
    n = structure.order
    pres = _full_presentations(n, degree, m)
    return _presented_system(structure, degree, pres, normalized, _tables(structure))


def _full_presentations(n: int, degree: int, m: int) -> dict:
    """The presentations over Z/m of K_1, ..., K_n (`_harrison`), and the
    targets spanning K_(n+1) (`_spanning`), as both writers read them."""
    pres = {j: _harrison(n, j, m) for j in range(1, degree + 1)}
    pres[degree + 1] = _spanning(n, degree + 1)
    return pres


@_kept
def _written_full_resolved(structure: LinearCycleSet, degree: int, q: int):
    """The plain degree-n system over Z/q, q a prime power, written over a
    resolution of the brace group (A, o) by `reduced._resolved_system`:
    Tot Hom_G(P_i, Hom(K_j, Z/q)) on the presentations of
    `_full_presentations`.  Kept per (structure, degree, q) and process
    (`reduced._kept`); the resolution is built only when it is written."""
    pres = _full_presentations(structure.order, degree, q)
    mul = lcs_to_brace(structure).circle
    tables = _tables(structure)
    return _resolved_system(mul, structure.dot, structure.add, degree, q, pres, tables)


def full_cohomology(
    structure: LinearCycleSet,
    coeffs: FiniteAbelianGroup,
    degree: int,
    normalized: bool = False,
):
    """Invariant factors of the degree-n cohomology of the total complex.

    The plain groups are read one prime power q of each cyclic factor at
    a time off Tot Hom_G(P_i, Hom(K_j, Z/q)), P a resolution of the brace
    group G = (A, o) (`_written_full_resolved`; the module docstring says
    why P may replace the bar resolution), and the parts are merged.
    Normalized and plain groups split from degree 2p on, so the normalized
    ones are read off the normalized tuple system of `_full_system`.  The
    budgets are checked first on both routes.
    """
    require_valid_lcs(structure)
    if normalized:
        over = _full_system(structure, degree, normalized)
        return _over_factors(coeffs, lambda m: _invariants(over(m)[0], m))
    _check_full_budgets(structure, degree)
    return _over_factors(coeffs, _resolved_groups(_written_full_resolved, structure, degree))


# ---------------------------------------------------------------------------
# Structural checks


@dataclass
class BicomplexCheck:
    name: str
    ok: bool
    detail: str = ""

    def to_dict(self):
        out = {"name": self.name, "ok": self.ok}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class BicomplexReport:
    order: int
    max_degree: int
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self):
        return {
            "order": self.order,
            "max_degree": self.max_degree,
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.checks],
        }


def bicomplex_identity_check(structure: LinearCycleSet, max_degree: int) -> BicomplexReport:
    """Exact structural checks of the bicomplex up to a total degree.

    Every face list is compiled to index maps once per check.  Each check
    walks the tuple indices of its degree and reads the image of each
    under a composite of compiled face lists, applying the last map
    first.  The composite identities (dh.dh = 0, dv.dv = 0, and the
    commutation of dh with dv) ask that these images vanish exactly.
    Preservation of the shuffle subgroups asks whether the image of every
    shuffle sum lies in the integer span of the shuffle sums below, and
    preservation of the degenerate subgroups whether every term of the
    image of a degenerate tuple is degenerate.
    """
    require_valid_lcs(structure)
    if not isinstance(max_degree, int) or max_degree < 2:
        raise DegreeError(f"max degree must be an integer >= 2, got {max_degree!r}")
    n = structure.order
    check_power(n, max_degree, f"the degree-{max_degree} tuple basis")
    what = f"the shuffle sums of total degree {max_degree}"
    check_power(2, max_degree, what, _SHUFFLE_FACTOR, times=n**max_degree + max_degree)
    report = BicomplexReport(order=n, max_degree=max_degree)
    checks = report.checks

    @functools.cache
    def dh(i, total):
        # the horizontal differential on the tuples of a total degree
        return _index_maps(_horizontal_faces(structure, i), n, total)

    @functools.cache
    def dv(i, j):
        return _index_maps(_vertical_faces(structure, i, j), n, i + j)

    def vanishes(total, maps):
        return not any(_apply(maps, {x: 1}) for x in range(n**total))

    for total in range(2, max_degree + 1):
        for i, j in total_blocks(total):
            if i >= 2:
                ok = vanishes(total, _compose(dh(i - 1, total - 1), dh(i, total)))
                checks.append(BicomplexCheck(f"dh.dh=0 at ({i},{j})", ok))
            if j >= 3:
                ok = vanishes(total, _compose(dv(i, j - 1), dv(i, j)))
                checks.append(BicomplexCheck(f"dv.dv=0 at ({i},{j})", ok))
            if i >= 1 and j >= 2:
                rhs = _compose(dv(i - 1, j), dh(i, total))
                ok = vanishes(
                    total, _compose(dh(i, total - 1), dv(i, j)) + [(-s, f) for s, f in rhs]
                )
                checks.append(BicomplexCheck(f"dh.dv=dv.dh at ({i},{j})", ok))
    # Each bidegree's shuffle sums are built once, one shuffle type at a
    # time: checked as sources at their own total degree, then kept, as an
    # integer span, for the sums one degree up to land in.  Only the spans
    # of two total degrees are alive at once.
    spans = {}
    for total in range(2, max_degree + 1):
        below, spans = spans, {}
        for i, j in total_blocks(total):
            if j < 2:
                continue
            maps = [("dh", dh(i, total), (i - 1, j))] if i >= 1 else []
            maps.append(("dv", dv(i, j), (i, j - 1)))
            held = [True] * len(maps)
            span = spans[i, j] = _IntegerSpan()
            for r in range(1, j):
                sums = _shuffle_sums(n, i, j, r)
                for k, (_name, faces, target) in enumerate(maps):
                    if not held[k]:
                        continue
                    out = (_apply(faces, s) for s in sums)
                    if target[1] < 2:  # one slot cannot shuffle: images must vanish
                        held[k] = not any(out)
                    else:
                        held[k] = all(map(below[target].contains, out))
                if total < max_degree:
                    for s in sums:
                        span.add(s)
            for (name, _faces, _target), ok in zip(maps, held):
                checks.append(BicomplexCheck(f"{name} preserves shuffles at ({i},{j})", ok))
    flags = _holding_zero(structure, 1)
    for total in range(2, max_degree + 1):
        flags_below, flags = flags, _holding_zero(structure, total)
        degenerate = list(itertools.compress(itertools.count(), flags))
        for i, j in total_blocks(total):
            faces = []
            if i >= 1:
                faces.append(("dh", dh(i, total)))
            if j >= 2:
                faces.append(("dv", dv(i, j)))
            for name, d in faces:
                ok = all(flags_below[u] for x in degenerate for u in _apply(d, {x: 1}))
                checks.append(BicomplexCheck(f"{name} preserves degenerates at ({i},{j})", ok))
    return report


def row_matches_reduced(structure: LinearCycleSet, i: int) -> bool:
    """The j = 1 row of the bicomplex is the reduced boundary, exactly."""
    if i < 1:
        raise ParameterError("row comparison needs i >= 1")
    return dh_matrix(structure, i, 1) == _reduced_boundary_oracle(structure, i + 1)


def _reduced_boundary_oracle(structure, k):
    # the reduced boundary written out by hand, independently of the face builder
    n = structure.order
    add, dot = structure.add, structure.dot
    data = [[0] * n**k for _ in range(n ** (k - 1))]
    for col, t in enumerate(all_tuples(n, k)):
        head = dot[t[0]]
        data[tuple_index(tuple(head[x] for x in t[1:]), n)][col] += 1
        sign = 1
        for i in range(1, k - 1):
            sign = -sign
            merged = t[: i - 1] + (add[t[i - 1]][t[i]],) + t[i + 1 :]
            data[tuple_index(merged, n)][col] += sign
        data[tuple_index(t[: k - 2] + (t[k - 1],), n)][col] -= sign
    return data


def _bar_matrix(structure, j):
    # drop-first + alternating merges + (-1)^j drop-last, on the add table only
    n = structure.order
    add = structure.add
    data = [[0] * n**j for _ in range(n ** (j - 1))]
    for col, t in enumerate(all_tuples(n, j)):
        data[tuple_index(t[1:], n)][col] += 1
        sign = 1
        for pos in range(1, j):
            sign = -sign
            merged = t[: pos - 1] + (add[t[pos - 1]][t[pos]],) + t[pos + 1 :]
            data[tuple_index(merged, n)][col] += sign
        data[tuple_index(t[: j - 1], n)][col] -= sign
    return data


def column_matches_trivial_reduced(structure: LinearCycleSet, j: int) -> bool:
    """The i = 0 column is the complex of the underlying abelian group.

    Exactly: dv(0, j) is the negated bar-type boundary of (A, +).  Against
    the reduced boundary of the trivial dot action the match holds modulo
    the linearity relations of the target degree: columns of
    dv(0, j) + boundary(trivial, j) must lie in the relation lattice.
    Both statements are checked.
    """
    if j < 2:
        raise ParameterError("column comparison needs j >= 2")
    n = structure.order
    trivial = LinearCycleSet(
        n,
        [list(row) for row in structure.add],
        [[b for b in range(n)] for _ in range(n)],
    )
    if dv_matrix(structure, 0, j) != [[-x for x in row] for row in _bar_matrix(structure, j)]:
        return False
    faces = _vertical_faces(structure, 0, j) + _horizontal_faces(trivial, j - 1)
    maps = _index_maps(faces, n, j)
    return all(_in_linearity_lattice(structure.add, _apply(maps, {x: 1})) for x in range(n**j))
