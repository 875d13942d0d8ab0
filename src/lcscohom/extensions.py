"""Central extensions of linear cycle sets and braces.

A 2-cocycle deforms the product structure on gamma x base: the cycle-type
flavor keeps the direct-sum addition and deforms only the dot operation
with a table f, the general flavor also deforms the addition with a
symmetric table g.  Extensions materialize with element index
gamma_index * |base| + base_index, so the canonical projection is
reduction mod |base|.

The module covers both directions: building extension triples from
cocycles, extracting cocycles from sections, deciding equivalence through
translation isomorphisms (gamma_part + theta(base_part), base_part), and
classifying all central extensions as cocycles modulo coboundaries, one
cyclic coefficient factor at a time.  A 2-cocycle of either flavor is a
degree-2 cochain of the bicomplex's total complex killed by its degree-3
total boundary: the identities checked are the source blocks of
`bicomplex._total_faces`, read on one flat column per cyclic factor, f
and then g (`_cocycle_plan`).  Equivalence and classification are
linear algebra over Z/m on the tuple systems whose cohomology is the
degree-2 group, `reduced._reduced_system` (cycle-type: the reduced H^2)
and `bicomplex._full_system` (general: the normalized full H^2).  The one
presented writer, `reduced._presented_system`, writes both, for values
on generators of (A, +) or of the shuffle quotients, and both give
over(m) -> (system, read, targets).  So tagged eliminations give
cocycles and coboundaries that the system's own reader reads on every
pair, whatever the flavor, and Howell forms over Z/m
(`linalg._IntegerSpan`) the class representatives, the least theta and
additive sections.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

from .abelian import FiniteAbelianGroup, parse_group_spec
from .bicomplex import (
    _full_system,
    _shuffle_faces,
    _total_faces,
    _vertical_faces,
    total_blocks,
)
from .budget import check_basis, check_power
from .errors import (
    CocycleError,
    LinearityError,
    MalformedTableError,
    MorphismError,
    ParameterError,
    SectionError,
    ShapeError,
)
from .linalg import _IntegerSpan, _kernel_mod, _least_solver
from .reduced import (
    _face_rows,
    _file_coeffs,
    _file_values,
    _gatherer,
    _index_map,
    _reduced_system,
    _tagged,
)
from .structures import (
    _CACHED_STRUCTURES,
    Brace,
    LinearCycleSet,
    Violation,
    _DrawnViolations,
    _find_neutral,
    brace_to_lcs,
    require_valid_brace,
    require_valid_lcs,
    structure_from_dict,
    structure_to_dict,
    validate_brace,
    validate_lcs,
)

__all__ = [
    "CocycleReport",
    "ReducedTwoCocycle",
    "FullTwoCocycle",
    "is_reduced_2cocycle",
    "is_full_2cocycle",
    "two_cocycle_from_dict",
    "two_cocycle_to_dict",
    "ExtensionTriple",
    "ExtensionReport",
    "build_extension_reduced",
    "build_extension_full",
    "build_brace_extension",
    "force_extension_reduced",
    "force_extension_full",
    "translate_to_lcs_pair",
    "translate_to_brace_pair",
    "normalized_section",
    "additive_section",
    "extract_cocycle",
    "validate_extension_triple",
    "cocycles_cohomologous",
    "extensions_equivalent",
    "classify_extensions",
    "ClassifiedExtension",
    "reconstruct_triple",
    "extension_to_dict",
    "extension_from_dict",
]


def _as_table(coeffs: FiniteAbelianGroup, order: int, raw, what: str):
    """Normalize a square value table over the coefficient group.

    Entries may be group elements (tuples) or plain ints when the group has
    a single cyclic factor; everything is reduced componentwise.  A row of
    plain ints over one factor, or of already reduced elements, is taken
    in one pass; any other row is walked entry by entry.
    """
    if raw is None:
        zero = coeffs.zero
        return tuple(tuple(zero for _ in range(order)) for _ in range(order))
    factors = coeffs.factors
    single = len(factors) == 1
    if len(raw) != order:
        raise ShapeError(f"{what} table must have {order} rows")
    rows = []
    for row in raw:
        if len(row) != order:
            raise ShapeError(f"{what} table must have {order} columns per row")
        kinds = set(map(type, row))
        if single and kinds == {int}:
            rows.append(tuple(zip(map(operator.mod, row, itertools.repeat(factors[0])))))
            continue
        if kinds == {tuple} and _is_reduced_row(factors, row):
            rows.append(tuple(row))
            continue
        entries = []
        for v in row:
            if isinstance(v, int) and not isinstance(v, bool):
                if not single:
                    raise ShapeError(
                        f"{what} entries must be tuples over {coeffs}, got a bare int"
                    )
                v = (v,)
            v = tuple(v)
            if len(v) != len(factors):
                raise ShapeError(f"{what} entry {v!r} does not fit {coeffs}")
            entries.append(coeffs.reduce(v))
        rows.append(tuple(entries))
    return tuple(rows)


def _is_reduced_row(factors, row) -> bool:
    """Whether every tuple in row is an element with plain int residues."""
    if set(map(len, row)) != {len(factors)}:
        return False
    residues = tuple(itertools.chain.from_iterable(row))
    return (
        set(map(type, residues)) == {int}
        and min(residues) >= 0
        and all(map(operator.lt, residues, itertools.cycle(factors)))
    )


class CocycleReport(_DrawnViolations):
    """The verdict of a 2-cocycle check; its witnesses are listed on read."""

    def __init__(self, flavor: str, order: int, normalized: bool, violations=None):
        self.flavor = flavor
        self.order = order
        self.normalized = normalized
        self._hold(violations)

    def to_dict(self) -> dict:
        return {
            "flavor": self.flavor,
            "order": self.order,
            "valid": self.valid,
            "normalized": self.normalized,
            "violations": [v.to_dict() for v in self.violations],
        }


# Each flavor's identities in witness order at (a, b, c), by the block of
# `_cocycle_plan` they sum; block (0, 2) is the shuffle constraint, keyed
# at c = 0.  A reduced cochain has no g: its block (1, 2) keeps only the
# faces into f's block (1, 1), additivity in the second argument.
_IDENTITIES = {
    "reduced": (((1, 2), "second-argument-additivity"), ((2, 1), "translation-cocycle")),
    "full": (
        ((0, 2), "addition-symmetry"),
        ((2, 1), "translation-cocycle"),
        ((1, 2), "mixed-compatibility"),
        ((0, 3), "addition-cocycle"),
    ),
}
# the tables of each flavor, in the order of its flat column
_TABLES = {"reduced": ("f",), "full": ("f", "g")}


@functools.lru_cache(maxsize=_CACHED_STRUCTURES)
def _cocycle_plan(base: LinearCycleSet) -> tuple:
    """The 2-cocycle identities over base, compiled from the bicomplex.

    A 2-cochain is read as one flat column of residues per cyclic factor,
    in the degree-2 coordinates of the total complex: f at a * n + b
    (block (1, 1)), then g at n * n + a * n + b (block (0, 2)).  Each face
    of a source block of the degree-3 total boundary (`_total_faces`) is
    an inner face on 3-tuples landing in f's half (0) or in g's (1);
    block (0, 2) holds the shuffle faces on pairs.  The plan is (gathers,
    flavors): one gatherer per distinct face, and per flavor the (half,
    gatherer) pairs it reads, with, per identity, the key stride of its
    positions and getters of its plus and minus terms among those reads.
    Over the trivial structure on Z/2, the reduced translation identity is
    (a.b, a.c) + (a, c) - (a+b, c) on f, and (a+b, c) is gatherer 1:

    >>> gathers, flavors = _cocycle_plan(LinearCycleSet(2, [[0, 1], [1, 0]], [[0, 1], [0, 1]]))
    >>> reads, sums = flavors["reduced"]
    >>> _stride, plus, minus = sums[1]
    >>> [reads[i] for i in plus(range(5))], [reads[i] for i in minus(range(5))]
    ([(0, 0), (0, 2)], [(0, 1)])
    >>> gathers[1](range(4))
    (0, 1, 2, 3, 2, 3, 0, 1)

    The six distinct inner faces hold n^3 indices each: a plan over a
    base of order 32 holds about 1.6 MB.
    """
    n = base.order
    numbers, gathers = {}, []

    def gather(face, k):
        # faces hold whole tables: hashed here, once per base, not in a report
        number = numbers.setdefault((face, k), len(numbers))
        if number == len(gathers):
            gathers.append(_gatherer(_index_map(face, n, k)))
        return number

    terms = {
        block: [(sign, j - 1, gather(inner, 3)) for sign, (_map, (_i, j), inner) in faces]
        for block, faces in zip(total_blocks(3), _total_faces(base, 3))
    }
    terms[0, 2] = [(sign, 1, gather(face, 2)) for sign, face in _shuffle_faces(0, 2, 1)]
    flavors = {}
    for flavor, identities in _IDENTITIES.items():
        reads, sums = {}, []  # reads: each (half, gatherer) read, numbered
        for block, _name in identities:
            signed = ([], [])
            for sign, half, face in terms[block]:
                if half < len(_TABLES[flavor]):  # a reduced cochain has no g
                    signed[sign < 0].append(reads.setdefault((half, face), len(reads)))
            if not signed[0]:  # no plus term: read negated, same zero set
                signed = signed[::-1]
            stride = len(identities) * (n if block == (0, 2) else 1)
            sums.append((stride, *map(_gatherer, signed)))
        flavors[flavor] = list(reads), sums
    return gathers, flavors


def _failing(m: int, plus, minus):
    """The positions at which the plus terms minus the minus terms are
    nonzero mod m."""
    total = plus[0]
    for term in plus[1:]:
        total = map(operator.add, total, term)
    for term in minus:
        total = map(operator.sub, total, term)
    residues = map(operator.mod, total, itertools.repeat(m))
    return itertools.compress(itertools.count(), residues)


def _witnesses(n: int, identities, keys):
    """Violations for keys position * len(identities) + identity, in key
    order, named as in `_IDENTITIES`.

    Position (a * n + b) * n + c names the witness (a, b, c); the pair
    identity addition-symmetry is keyed at c = 0 and names (a, b).
    """
    for key in sorted(keys):
        position, identity = divmod(key, len(identities))
        ab, c = divmod(position, n)
        a, b = divmod(ab, n)
        name = identities[identity][1]
        yield Violation(name, (a, b) if name == "addition-symmetry" else (a, b, c))


def _columns(table):
    """A normalized square table transposed once: one flat row-major
    column of residues per cyclic factor, entry (a, b) at a * n + b."""
    return list(zip(*itertools.chain.from_iterable(table)))


def _rows(n: int, columns):
    """The square table of coefficient elements whose per-factor residue
    columns are given; the inverse of `_columns`."""
    entries = tuple(zip(*columns)) or ((),) * (n * n)
    return tuple(entries[i : i + n] for i in range(0, n * n, n))


def _cocycle_report(structure: LinearCycleSet, coeffs, columns, flavor: str) -> CocycleReport:
    """The report of a flavor's identities on the flat per-factor columns
    of a cochain (`_cocycle_plan`): each face the flavor reads is gathered
    once per column, and each identity sums its terms."""
    n = structure.order
    nn = n * n
    gathers, flavors = _cocycle_plan(structure)
    reads, sums = flavors[flavor]
    keys = set()
    for m, column in zip(coeffs.factors, columns):
        # f's indices are below n * n, so f is gathered off the column
        halves = (column, column[nn:])
        read = [gathers[face](halves[half]) for half, face in reads]
        for t, (stride, plus, minus) in enumerate(sums):
            keys.update(stride * p + t for p in _failing(m, plus(read), minus(read)))
    z = structure.zero
    if flavor == "reduced":  # row z and column z of f vanish
        normalized = z is not None and not any(
            any(c[z * n : z * n + n]) or any(c[z:nn:n]) for c in columns
        )
    else:  # g(z, z) = 0
        normalized = z is not None and not any(c[nn + z * n + z] for c in columns)
    witnesses = _witnesses(n, _IDENTITIES[flavor], keys)
    return CocycleReport(flavor, n, normalized, witnesses)


def is_reduced_2cocycle(structure: LinearCycleSet, coeffs, f) -> CocycleReport:
    """Check the two identities of a dot-deforming cocycle, with witnesses.

    Identities: additivity in the second argument, f(a, b+c) = f(a,b) +
    f(a,c), and the translation condition f(a+b, c) = f(a.b, a.c) + f(a,c).
    They are the faces into f's block (1, 1) of the source blocks (1, 2)
    and (2, 1) of the bicomplex's degree-3 total boundary, with g = 0
    (`_cocycle_plan`).  Both are linear, so they are checked one cyclic
    factor Z/m at a time on plain residues: each term is one gather over
    all (a, b, c).  The verdict is known once the gathers are compared;
    the witnesses are listed when they are read.
    """
    f = _as_table(coeffs, structure.order, f, "cocycle")
    return _cocycle_report(structure, coeffs, _columns(f), "reduced")


def is_full_2cocycle(structure: LinearCycleSet, coeffs, f, g) -> CocycleReport:
    """Check the four identities of a dot-and-addition deforming pair.

    g must be symmetric and a cocycle for the addition; f must satisfy the
    translation condition and the mixed condition tying its additivity
    defect in the second argument to g.  Normalized means g(0,0) = 0.
    (f, g) is a degree-2 cochain of the bicomplex's total complex:
    symmetry is its shuffle constraint in block (0, 2), and the other
    three identities are the source blocks (2, 1), (1, 2) and (0, 3) of
    the degree-3 total boundary (`_cocycle_plan`), checked per cyclic
    factor through gathers, as in is_reduced_2cocycle.
    """
    n = structure.order
    f = _as_table(coeffs, n, f, "dot cocycle")
    g = _as_table(coeffs, n, g, "addition cocycle")
    return _cocycle_report(structure, coeffs, _columns(f + g), "full")


def _first_violation(report: CocycleReport) -> str:
    v = report.violations[0]
    return f"{v.axiom} fails at {v.witness}"


def _require(base, coeffs, columns, flavor: str) -> CocycleReport:
    """The report of flat per-factor columns (`_cocycle_plan`), refusing
    columns that are no cocycle of the flavor."""
    report = _cocycle_report(base, coeffs, columns, flavor)
    if not report.valid:
        raise CocycleError(
            f"not a {report.flavor} 2-cocycle: {_first_violation(report)}", report
        )
    return report


def _flat_rows(cocycle):
    """The rows of f, then those of g for a pair: the layout of the flat
    column (`_cocycle_plan`)."""
    tables = (getattr(cocycle, name) for name in _TABLES[cocycle.flavor])
    return itertools.chain.from_iterable(tables)


def _from_columns(base, coeffs, columns, flavor: str, proven=False, built=None):
    """The cocycle of the flavor with the flat per-factor columns given,
    checked on them unless they are proven a cocycle already; its tables
    are cut from the columns and not normalized again.  `built` shares
    each table between the cocycles of one call with equal columns
    (`_shared`)."""
    cocycle = object.__new__(ReducedTwoCocycle if flavor == "reduced" else FullTwoCocycle)
    cocycle.base, cocycle.coeffs = base, coeffs
    nn = base.order ** 2
    for start, name in zip(range(0, 2 * nn, nn), _TABLES[flavor]):
        part = tuple(c[start : start + nn] for c in columns)
        setattr(cocycle, name, _shared(built, ("rows", part), _rows, base.order, part))
    if not proven:
        _require(base, coeffs, columns, flavor)
    return cocycle


@dataclass
class ReducedTwoCocycle:
    base: LinearCycleSet
    coeffs: FiniteAbelianGroup
    f: tuple

    def __post_init__(self):
        self.f = _as_table(self.coeffs, self.base.order, self.f, "cocycle")
        _require(self.base, self.coeffs, _columns(_flat_rows(self)), self.flavor)

    @property
    def flavor(self) -> str:
        return "reduced"

    @property
    def normalized(self) -> bool:
        return True


@dataclass
class FullTwoCocycle:
    base: LinearCycleSet
    coeffs: FiniteAbelianGroup
    f: tuple
    g: tuple

    def __post_init__(self):
        self.f = _as_table(self.coeffs, self.base.order, self.f, "dot cocycle")
        self.g = _as_table(self.coeffs, self.base.order, self.g, "addition cocycle")
        _require(self.base, self.coeffs, _columns(_flat_rows(self)), self.flavor)

    @property
    def flavor(self) -> str:
        return "full"

    @property
    def normalized(self) -> bool:
        z = self.base.zero
        return z is not None and self.g[z][z] == self.coeffs.zero


def two_cocycle_from_dict(data, base: LinearCycleSet, coeffs=None, flavor="reduced"):
    """Parse a degree-2 cochain file into a validated cocycle.

    Reduced files carry |A|^2 values (the dot deformation); full files
    carry 2|A|^2 values, dot deformation first, addition deformation
    after: the flat column layout of `_cocycle_plan`.
    """
    return _from_columns(base, *_file_columns(data, base, coeffs, flavor), flavor)


def _file_columns(data, base: LinearCycleSet, coeffs, flavor: str):
    """The coefficient group and flat per-factor columns of a degree-2
    cochain file, reduced but not checked."""
    if flavor not in _TABLES:
        raise ParameterError(f"unknown cocycle flavor {flavor!r}")
    coeffs = _file_coeffs(data, coeffs, "cocycle")
    if data.get("degree") != 2:
        raise MalformedTableError("cocycle files must have degree 2")
    n = base.order
    size = len(_TABLES[flavor]) * n * n
    raw = data.get("values")
    if not isinstance(raw, list) or len(raw) != size:
        raise MalformedTableError(
            f"a {flavor} cocycle over an order-{n} structure needs {size} values"
        )
    values = zip(*_file_values(raw, coeffs, "cocycle"))
    return coeffs, [tuple(x % m for x in column) for m, column in zip(coeffs.factors, values)]


def two_cocycle_to_dict(cocycle) -> dict:
    coeffs = cocycle.coeffs
    single = len(coeffs.factors) == 1
    values = [v[0] if single else list(v) for row in _flat_rows(cocycle) for v in row]
    return {"degree": 2, "coeff": str(coeffs), "values": values}


# ---------------------------------------------------------------------------
# Extension triples


@dataclass
class ExtensionTriple:
    """A total structure with its kernel embedding, projection and section.

    iota maps coefficient-group indices into the total structure, pi maps
    total indices onto base indices, section is a right inverse of pi.

    A triple that the library built from a 2-cocycle it had checked
    (`_trusted_triple`) records that cocycle as (base, gamma, f, g), flat
    row-major coefficient indices, g all zero for a cycle-type one.  By
    the construction lemma the canonical section reads that pair back,
    so extraction trusts a pair equal to the record over an equal base
    and gamma, and checks every other pair.  The record takes no part in
    construction, comparison or repr, and a triple built directly has
    none.
    """

    total: object
    gamma: FiniteAbelianGroup
    base: object
    iota: tuple
    pi: tuple
    section: tuple = None
    _cocycle: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        ne = self.total.order
        if len(self.iota) != self.gamma.order or any(
            not 0 <= e < ne for e in self.iota
        ):
            raise ShapeError("kernel embedding must list one total index per element")
        if len(self.pi) != ne or any(not 0 <= a < self.base.order for a in self.pi):
            raise ShapeError("projection must list one base index per total element")
        if self.section is not None:
            if len(self.section) != self.base.order or any(
                not 0 <= e < ne for e in self.section
            ):
                raise ShapeError("section must list one total index per base element")
            self.section = tuple(self.section)
        self.iota = tuple(self.iota)
        self.pi = tuple(self.pi)

    @classmethod
    def _trusted(cls, total, gamma, base, iota, pi, section):
        """A triple whose caller has checked its maps, given as tuples,
        against these orders; nothing is checked or copied."""
        self = object.__new__(cls)
        self.total, self.gamma, self.base = total, gamma, base
        self.iota, self.pi, self.section = iota, pi, section
        self._cocycle = None
        return self


@functools.lru_cache(maxsize=8)
def _element_index(gamma) -> dict:
    """Gamma's elements mapped to their lexicographic indices, built once
    per group."""
    return {x: i for i, x in enumerate(gamma.elements())}


@functools.lru_cache(maxsize=8)
def _addition_index(gamma):
    """Gamma's addition as a table of element indices, built once per group.

    Row x holds the indices of element(x) + element(y) over y:

    >>> _addition_index(FiniteAbelianGroup((2, 2)))
    ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
    """
    elements = gamma.elements()
    return tuple(tuple(gamma.index(gamma.add(x, y)) for y in elements) for x in elements)


@functools.lru_cache(maxsize=8)
def _fiber_moves(gamma, n: int):
    """Index maps of gamma x base, once per (gamma, n): scaled[c][s] is
    (c + s) * n, and moved[c] sends s * n + a to (c + s) * n + a."""
    scaled = tuple(tuple(x * n for x in row) for row in _addition_index(gamma))
    moved = tuple(tuple(x + a for x in row for a in range(n)) for row in scaled)
    return scaled, moved


def _indices(gamma, table):
    """A normalized square table of coefficient elements as one flat
    row-major sequence of their indices."""
    return tuple(map(_element_index(gamma).__getitem__, itertools.chain.from_iterable(table)))


def _radix(gamma, columns):
    """The coefficient indices of the entries whose per-factor residue
    columns are given: mixed radix over the factors, as gamma.index reads
    an element."""
    index, *rest = columns
    for m, column in zip(gamma.factors[1:], rest):
        index = tuple(map(operator.add, map(operator.mul, index, itertools.repeat(m)), column))
    return index


def _deformed_table(gamma, n: int, base_op, deformation, carry: bool):
    """One operation table on gamma x base, element c * n + a for (c, a).

    (c1, a1), (c2, a2) goes to (c + deformation(a1, a2), base_op(a1, a2)),
    where c is c1 + c2 when `carry` is set and c2 otherwise; deformation
    is a flat row-major sequence of coefficient indices, (a1, a2) at
    a1 * n + a2.  The rows (0, a1) are read off gamma's addition index;
    every other row repeats one of them, moved by c1 in the coefficient
    when `carry` is set.  Rows are tuples.
    """
    scaled, moved = _fiber_moves(gamma, n)
    first = []
    for a1, brow in enumerate(base_op):
        srow = deformation[a1 * n : a1 * n + n]
        row = []
        for starts in scaled:
            row += map(operator.add, map(starts.__getitem__, srow), brow)
        first.append(tuple(row))
    if not carry:
        return tuple(first) * gamma.order
    table = []
    for by_c1 in moved:
        table += (tuple(map(by_c1.__getitem__, row)) for row in first)
    return tuple(table)


def _deformed_tables(gamma, base, f, g, built=None):
    """The addition and dot tables deformed by g and f, given as tuples
    of coefficient indices.

    `built`, a dict that lives for one classification, keeps each table
    under its deformation, so that classes with an equal f (or g) share
    one immutable dot (or addition) table.
    """
    n = base.order
    return (
        _shared(built, (True, g), _deformed_table, gamma, n, base.add, g, True),
        _shared(built, (False, f), _deformed_table, gamma, n, base.dot, f, False),
    )


def _shared(built, key, make, *args):
    """make(*args), made once per key in `built`, a dict that lives for
    one call; made afresh when `built` is None."""
    if built is None:
        return make(*args)
    if key not in built:
        built[key] = make(*args)
    return built[key]


def force_extension_full(gamma, base: LinearCycleSet, f, g) -> LinearCycleSet:
    """Deformed-table structure on gamma x base without any cocycle check.

    The deformed tables are tuple rows of indices in range by
    construction, so they are not shape-checked again; the additive
    neutral element is searched for, as an unchecked deformation may have
    none.
    """
    f = _indices(gamma, _as_table(gamma, base.order, f, "dot deformation"))
    g = _indices(gamma, _as_table(gamma, base.order, g, "addition deformation"))
    add, dot = _deformed_tables(gamma, base, f, g)
    order = gamma.order * base.order
    return LinearCycleSet._trusted(order, add, dot, _find_neutral(add, order))


def force_extension_reduced(gamma, base: LinearCycleSet, f) -> LinearCycleSet:
    return force_extension_full(gamma, base, f, None)


def _canonical_maps(gamma, n: int, zero_e: int):
    """Kernel embedding c -> c + zero, projection mod n, and the section
    a -> (0, a) moved at the base zero to hit the total zero."""
    c0, z = divmod(zero_e, n)
    plus = _addition_index(gamma)
    iota = tuple(plus[i][c0] * n + z for i in range(gamma.order))
    pi = tuple(e % n for e in range(gamma.order * n))
    section = tuple(zero_e if a == z else a for a in range(n))
    return iota, pi, section


def _canonical_triple(gamma, base, total, built=None):
    """The triple of total with its canonical maps (`_canonical_maps`),
    shared through `built` between the triples of one call with one zero.
    Shared maps are checked with the first triple that holds them; the
    later triples of the call, of the same orders, take them unchecked."""
    key = ("maps", total.zero)
    if built is not None and key in built:
        return ExtensionTriple._trusted(total, gamma, base, *built[key])
    triple = ExtensionTriple(total, gamma, base, *_canonical_maps(gamma, base.order, total.zero))
    if built is not None:
        built[key] = triple.iota, triple.pi, triple.section
    return triple


def _trusted_triple(gamma, base: LinearCycleSet, f, g, built=None) -> ExtensionTriple:
    """The canonical triple of a normalized 2-cocycle (f, g) over a valid
    base, given as flat row-major coefficient index tuples.

    The caller has checked the cocycle, so by the construction lemma the
    total is a linear cycle set: its tables are not checked again, and its
    zero is (-g(0,0), 0) rather than searched for.  The triple records
    the proven pair, which `_extraction` then need not check again.
    `built` shares tables and canonical maps between the triples of one
    call (`_shared`).
    """
    n = base.order
    z = base.zero
    add, dot = _deformed_tables(gamma, base, f, g, built)
    zero_e = _addition_index(gamma)[g[z * n + z]].index(0) * n + z
    total = LinearCycleSet._trusted(gamma.order * n, add, dot, zero_e)
    triple = _canonical_triple(gamma, base, total, built)
    triple._cocycle = (base, gamma, f, g)
    return triple


def _checked_triple(gamma, base: LinearCycleSet, f, g) -> ExtensionTriple:
    """_trusted_triple with the total validated as well, for the public
    builders, which exercise the construction lemma rather than assume it."""
    triple = _trusted_triple(gamma, base, f, g)
    require_valid_lcs(triple.total)
    return triple


def _in_setting(cocycle, base, gamma):
    if cocycle.base != base or cocycle.coeffs != gamma:
        raise ParameterError("cocycle lives over a different structure or coefficient group")


def build_extension_reduced(gamma, base: LinearCycleSet, f) -> ExtensionTriple:
    """Central cycle-type extension: direct-sum addition, deformed dot.

    The cocycle is validated first; the result is validated as a linear
    cycle set as well, so the construction lemma is exercised rather than
    assumed.
    """
    require_valid_lcs(base)
    if not isinstance(f, ReducedTwoCocycle):
        f = ReducedTwoCocycle(base, gamma, f)
    _in_setting(f, base, gamma)
    return _checked_triple(gamma, base, _indices(gamma, f.f), (0,) * base.order**2)


def build_extension_full(gamma, base: LinearCycleSet, f, g) -> ExtensionTriple:
    """Central extension with both operations deformed.

    The zero element of the total structure is (-g(0,0), 0); the canonical
    kernel embedding sends c to (c - g(0,0), 0) and the canonical section
    is a -> (0, a) adjusted at a = 0 to hit the zero element, so extraction
    from it is normalized.
    """
    require_valid_lcs(base)
    if not isinstance(f, FullTwoCocycle):
        f = FullTwoCocycle(base, gamma, f, g)
    _in_setting(f, base, gamma)
    return _checked_triple(gamma, base, _indices(gamma, f.f), _indices(gamma, f.g))


def translate_to_lcs_pair(gamma, brace: Brace, f, g=None):
    """Turn circle-and-addition deformations into dot-and-addition ones.

    Over the cycle set induced by the brace: fbar(a, b) = g(a, b) -
    f(a, a.b).  Returns normalized tables, not validated.
    """
    lcs = brace_to_lcs(brace)
    n = brace.order
    f = _as_table(gamma, n, f, "circle deformation")
    g = _as_table(gamma, n, g, "addition deformation")
    fbar = tuple(
        tuple(gamma.sub(g[a][b], f[a][lcs.dot[a][b]]) for b in range(n))
        for a in range(n)
    )
    return fbar, g


def translate_to_brace_pair(gamma, brace: Brace, fbar, g=None):
    """Inverse translation: f(a, c) = g(a, a*c) - fbar(a, a*c).

    a*c inverts the left translation b -> a.b of the induced cycle set, so
    this is f(a, a.b) = g(a, b) - fbar(a, b) read backwards.
    """
    lcs = brace_to_lcs(brace)
    n = brace.order
    fbar = _as_table(gamma, n, fbar, "dot deformation")
    g = _as_table(gamma, n, g, "addition deformation")
    star = []
    for a in range(n):
        inv = [0] * n
        for b in range(n):
            inv[lcs.dot[a][b]] = b
        star.append(inv)
    f = tuple(
        tuple(gamma.sub(g[a][star[a][c]], fbar[a][star[a][c]]) for c in range(n))
        for a in range(n)
    )
    return f, g


def build_brace_extension(
    gamma, brace: Brace, f, g=None, reduced: bool = False
) -> ExtensionTriple:
    """Brace on gamma x base with circle deformed by f and addition by g.

    Validity is decided on the translated pair over the induced cycle set:
    the construction works exactly when (fbar, g) with
    fbar(a,b) = g(a,b) - f(a, a.b) is a cocycle of the matching flavor
    (g = 0 and fbar reduced for the reduced flavor).  The built brace is
    validated outright as well.
    """
    require_valid_brace(brace)
    n = brace.order
    f = _as_table(gamma, n, f, "circle deformation")
    fbar, g = translate_to_lcs_pair(gamma, brace, f, g)
    lcs = brace_to_lcs(brace)
    if reduced:
        zero = gamma.zero
        if any(v != zero for row in g for v in row):
            raise ParameterError("the reduced flavor admits no addition deformation")
        report = is_reduced_2cocycle(lcs, gamma, fbar)
    else:
        report = is_full_2cocycle(lcs, gamma, fbar, g)
    if not report.valid:
        raise CocycleError(
            "translated dot deformation is not a valid cocycle: "
            + _first_violation(report),
            report,
        )
    order = gamma.order * n
    add = _deformed_table(gamma, n, brace.add, _indices(gamma, g), carry=True)
    circle = _deformed_table(gamma, n, brace.circle, _indices(gamma, f), carry=True)
    total = Brace(order, add, circle)
    require_valid_brace(total)
    return _canonical_triple(gamma, brace, total)


# ---------------------------------------------------------------------------
# Sections and extraction


def _structure_ops(structure):
    if isinstance(structure, Brace):
        return structure.add, structure.circle
    return structure.add, structure.dot


def normalized_section(triple: ExtensionTriple) -> tuple:
    """A section hitting the total zero element at the base zero.

    Prefers the stored section where present, falls back to the smallest
    preimage per fiber; the value over the base zero is always replaced by
    the zero of the total structure.
    """
    total = triple.total
    zero_e = total.zero
    if zero_e is None:
        raise SectionError("total structure has no additive neutral element")
    zb = triple.base.zero
    if zb is None:
        raise SectionError("base structure has no additive neutral element")
    n = triple.base.order
    sec = [None] * n
    for a in range(n):
        if triple.section is not None and triple.pi[triple.section[a]] == a:
            sec[a] = triple.section[a]
    for e in range(total.order):
        a = triple.pi[e]
        if sec[a] is None:
            sec[a] = e
    if any(s is None for s in sec):
        raise SectionError("projection is not surjective; no section exists")
    sec[zb] = zero_e
    return tuple(sec)


def _fiber_table(triple: ExtensionTriple, section) -> list:
    """For each base element a, the map from each sum t = iota(c) + s(a)
    to the first coefficient index c that gives it.

    It costs |gamma| * |base| lookups.  A total element missing from row
    a is not in the kernel fiber of s(a).  Where two c give one sum, the
    first is kept, as a scan of c from 0 finds it.
    """
    add = triple.total.add
    lifted = [add[e] for e in triple.iota]
    last = range(len(lifted) - 1, -1, -1)
    # c runs down, so that the first c with a given sum is written last
    return [dict(zip([row[s] for row in reversed(lifted)], last)) for s in section]


_OFF_FIBER = (
    "difference does not lie in the kernel fiber; the triple is not a central extension"
)


def _kernel_parts(fibers, section, base_op, total_op) -> tuple:
    """Row-major over (a, b), the coefficient index c with iota(c) +
    s(base_op(a, b)) = total_op(s(a), s(b)), read row a at a time off the
    fiber table: one gather of the row of s(a) at the section."""
    lift = _gatherer(section)
    parts = []
    for s, base_row in zip(section, base_op):
        parts += map(dict.get, map(fibers.__getitem__, base_row), lift(total_op[s]))
    if None in parts:
        raise MorphismError(_OFF_FIBER)
    return tuple(parts)


def _index_columns(gamma, indices) -> list:
    """The per-factor residue columns of coefficient indices."""
    elements = gamma.elements()
    return _columns([map(elements.__getitem__, indices)])


def _extraction(triple: ExtensionTriple, flavor: str, section):
    """extract_cocycle, and the fiber table of the section it read.

    The kernel parts are checked as a cocycle unless they equal the pair
    the triple records as proven (`ExtensionTriple`) over an equal base
    and gamma, the reduced flavor's with g all zero.  The check reads
    nothing but (base, gamma, parts), so a proven equal pair passes it.
    """
    if flavor not in ("reduced", "full"):
        raise ParameterError(f"unknown extraction flavor {flavor!r}")
    if isinstance(triple.total, Brace):
        raise ParameterError(
            "extraction works on cycle-set triples; convert the brace first"
        )
    if section is None:
        section = triple.section if triple.section is not None else normalized_section(triple)
    section = tuple(section)
    base = triple.base
    n = base.order
    if len(section) != n:
        raise SectionError(f"section must list {n} total elements")
    for a in range(n):
        if triple.pi[section[a]] != a:
            raise SectionError(f"not a section: projection of s({a}) is not {a}")
    total = triple.total
    gamma = triple.gamma
    if flavor == "reduced":
        for a in range(n):
            for b in range(n):
                if total.add[section[a]][section[b]] != section[base.add[a][b]]:
                    raise LinearityError(
                        f"section is not additive at ({a}, {b}); "
                        "the reduced flavor needs an additive section"
                    )
    fibers = _fiber_table(triple, section)
    f = _kernel_parts(fibers, section, base.dot, total.dot)
    if flavor == "reduced":
        g, parts = (0,) * (n * n), f
    else:
        g = _kernel_parts(fibers, section, base.add, total.add)
        parts = f + g
    proven = triple._cocycle == (base, gamma, f, g)
    return _from_columns(base, gamma, _index_columns(gamma, parts), flavor, proven), fibers


def extract_cocycle(triple: ExtensionTriple, flavor: str, section=None):
    """Read a cocycle off a section of an extension triple.

    The dot deformation at (a, b) is the kernel part of s(a).s(b) relative
    to s(a.b); the full flavor reads the addition deformation the same way
    from s(a) + s(b) against s(a+b).  Kernel parts are read off one fiber
    table of the section (`_fiber_table`).  A normalized section yields a
    normalized cocycle.  The reduced flavor requires an additive section.
    A pair read off a triple the library built from a checked cocycle is
    that cocycle, by the construction lemma, and is not checked again;
    every other pair is (`_extraction`).
    """
    return _extraction(triple, flavor, section)[0]


@functools.lru_cache(maxsize=8)
def _additive_solver(base: LinearCycleSet, m: int):
    """The `_least_solver` over Z/m of the rows of dv(0, 2), (a, b) ->
    (a + b) - (a) - (b), cached per (base, m) as `_cohomologous_solver`
    is."""
    n = base.order
    return _least_solver(_face_rows(n, 2, [_vertical_faces(base, 0, 2)], n), m)


def additive_section(triple: ExtensionTriple):
    """An additive section of the projection, or None when there is none.

    Starting from a normalized section with addition defect g0, an additive
    correction tau must satisfy tau(a+b) - tau(a) - tau(b) = g0(a, b).  The
    section comes from the lexicographically least such tau (`_least_theta`),
    solved by the base's `_additive_solver`.
    """
    total = triple.total
    if isinstance(total, Brace):
        raise ParameterError("additive sections are decided on cycle-set triples")
    base = triple.base
    gamma = triple.gamma
    n = base.order
    s0 = normalized_section(triple)
    g0 = _kernel_parts(_fiber_table(triple, s0), s0, base.add, total.add)
    check_power(n, 2, "the degree-2 tuple basis")
    solver = functools.partial(_additive_solver, base)
    tau = _least_theta(solver, _index_columns(gamma, g0), gamma)
    if tau is None:
        return None
    section = tuple(
        total.add[s0[a]][triple.iota[gamma.index(tau[a])]] for a in range(n)
    )
    for a in range(n):
        if triple.pi[section[a]] != a:
            return None
        for b in range(n):
            if total.add[section[a]][section[b]] != section[base.add[a][b]]:
                return None
    return section


# ---------------------------------------------------------------------------
# Triple validation


@dataclass
class ExtensionCheck:
    name: str
    ok: bool
    witness: object = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "ok": self.ok}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class ExtensionReport:
    flavor: str
    checks: list = field(default_factory=list)
    additive_section: tuple = None

    @property
    def valid(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self) -> dict:
        out = {
            "flavor": self.flavor,
            "valid": self.valid,
            "checks": [c.to_dict() for c in self.checks],
        }
        if self.additive_section is not None:
            out["additive_section"] = list(self.additive_section)
        return out


def _as_lcs_triple(triple: ExtensionTriple) -> ExtensionTriple:
    if not isinstance(triple.total, Brace):
        return triple
    return ExtensionTriple(
        brace_to_lcs(triple.total),
        triple.gamma,
        brace_to_lcs(triple.base) if isinstance(triple.base, Brace) else triple.base,
        triple.iota,
        triple.pi,
        triple.section,
    )


def validate_extension_triple(
    triple: ExtensionTriple, flavor: str = "general"
) -> ExtensionReport:
    """All structural requirements on a central extension, with witnesses.

    flavor "cycle-type" additionally decides whether the underlying abelian
    extension splits, recording a splitting section when it does.
    """
    if flavor not in ("cycle-type", "general"):
        raise ParameterError(f"unknown extension flavor {flavor!r}")
    report = ExtensionReport(flavor)
    checks = report.checks
    if isinstance(triple.total, Brace):
        total_report = validate_brace(triple.total)
        base_report = (
            validate_brace(triple.base)
            if isinstance(triple.base, Brace)
            else validate_lcs(triple.base)
        )
        work = _as_lcs_triple(triple) if total_report.valid and base_report.valid else None
    else:
        total_report = validate_lcs(triple.total)
        base_report = validate_lcs(triple.base)
        work = triple if total_report.valid and base_report.valid else None
    checks.append(
        ExtensionCheck(
            "total-valid",
            total_report.valid,
            [v.to_dict() for v in total_report.violations] or None,
        )
    )
    checks.append(
        ExtensionCheck(
            "base-valid",
            base_report.valid,
            [v.to_dict() for v in base_report.violations] or None,
        )
    )
    if work is None:
        return report
    total, base, gamma = work.total, work.base, work.gamma
    iota, pi = work.iota, work.pi
    n, ne, ng = base.order, total.order, gamma.order

    def first(pairs, holds):
        for p in pairs:
            if not holds(*p):
                return p
        return None

    def first_by_rows(xs, ys, row_holds, holds):
        # the pairs (x, y) in order; a row x is walked only if it fails
        for x in xs:
            if not row_holds(x):
                return first(((x, y) for y in ys), holds)
        return None

    def check(name, witness):
        checks.append(ExtensionCheck(name, witness is None, witness))

    check(
        "kernel-embedding-injective",
        None if len(set(iota)) == ng else "repeated image",
    )
    check(
        "kernel-embedding-additive",
        first(
            itertools.product(range(ng), range(ng)),
            lambda x, y: total.add[iota[x]][iota[y]]
            == iota[gamma.index(gamma.add(gamma.element(x), gamma.element(y)))],
        ),
    )
    fixed = tuple(range(ne))
    check(
        "kernel-trivial-translations",
        first_by_rows(
            range(ng),
            range(ne),
            lambda x: total.dot[iota[x]] == fixed,
            lambda x, e: total.dot[iota[x]][e] == e,
        ),
    )
    at_kernel = _gatherer(iota)
    check(
        "kernel-absorbed-by-translations",
        first_by_rows(
            range(ne),
            range(ng),
            lambda e: at_kernel(total.dot[e]) == iota,
            lambda e, x: total.dot[e][iota[x]] == iota[x],
        ),
    )
    project, projected = _gatherer(pi), pi.__getitem__
    for name, op, base_op in (
        ("projection-additive", total.add, base.add),
        ("projection-dot-morphism", total.dot, base.dot),
    ):
        check(
            name,
            first_by_rows(
                range(ne),
                range(ne),
                lambda x: tuple(map(projected, op[x])) == project(base_op[pi[x]]),
                lambda x, y: pi[op[x][y]] == base_op[pi[x]][pi[y]],
            ),
        )
    check(
        "projection-surjective",
        None if set(pi) == set(range(n)) else "missed base elements",
    )
    zb = base.zero
    kernel = sorted(e for e in range(ne) if pi[e] == zb)
    check("exactness", None if kernel == sorted(iota) else {"fiber": kernel})
    if work.section is not None:
        check(
            "section-compatible",
            first(((a,) for a in range(n)), lambda a: pi[work.section[a]] == a),
        )
    if flavor == "cycle-type" and report.valid:
        split = additive_section(work)
        checks.append(ExtensionCheck("addition-splits", split is not None))
        report.additive_section = split
    return report


# ---------------------------------------------------------------------------
# Cohomologousness and equivalence


def _least_theta(solver, rhs, gamma):
    """Per cyclic factor Z/m of gamma, the least x with sum_j x_j columns_j =
    rhs_m, from `solver(m)`, a `_least_solver` of the columns, given one
    residue column rhs_m per factor; as one coefficient element per j, or
    None if some factor has none."""
    parts = [solver(m)(column) for m, column in zip(gamma.factors, rhs)]
    return None if None in parts else tuple(zip(*parts))


@functools.lru_cache(maxsize=8)
def _cohomologous_solver(base: LinearCycleSet, flavor: str, normalized: bool, m: int):
    """The `_least_solver` over Z/m of the degree-1 system that
    `cocycles_cohomologous` solves, cached per (base, flavor, normalized,
    m), taking the difference of the two cocycles on every pair.  Column
    y is theta's coordinate y in the flavor's degree-1 system, its
    coboundary beside its constraints, so the difference is gathered at
    the pairs whose conditions the system writes, its targets: (a, s) for
    the generators s of (A, +) when reduced.  theta lives on generators,
    so each column is tagged with its values on every element, and the
    least theta is read off the tags.

    The cycle-type flavor reads the plain system whatever `normalized`
    is.  A reduced 2-cocycle has f(0, c) = 0 (its translation identity at
    a = b = 0), and so does every coboundary: theta(0 . c) - theta(c) = 0.
    So the conditions at a = 0, which the normalized system leaves out,
    read 0 = 0, and both systems have the same unknowns."""
    if flavor == "cycle-type":
        over = _reduced_system(base, 1)
    else:
        over = _full_system(base, 1, normalized)
    system, read, targets = over(m)
    rows, tags, _b_rows, _b_tags = _tagged(*system)
    solve = _least_solver(rows, m, list(map(read, tags)), base.order)
    at_targets = _gatherer(targets())
    return lambda delta: solve(at_targets(delta))


def _same_setting(c1, c2):
    if type(c1) is not type(c2):
        raise ParameterError("cocycles have different flavors")
    if c1.base != c2.base or c1.coeffs != c2.coeffs:
        raise ParameterError("cocycles live over different structures")


def cocycles_cohomologous(c1, c2, normalized: bool = False):
    """The least 1-cochain theta whose coboundary joins c1 to c2.

    Reduced flavor: theta must be additive and theta(a.b) - theta(b) =
    c2.f(a, b) - c1.f(a, b).  Full flavor: theta is arbitrary (normalized:
    theta(0) = 0) and theta(a+b) - theta(a) - theta(b) must match the
    difference of the addition deformations as well.  Per cyclic factor
    Z/m theta must have coboundary delta and satisfy the constraints, and
    the least solution is taken (`_least_theta`).  Returns (verdict,
    theta-or-None); theta lists one coefficient element per base element.
    """
    _same_setting(c1, c2)
    base = c1.base
    gamma = c1.coeffs
    pairs = zip(_columns(_flat_rows(c1)), _columns(_flat_rows(c2)))
    flavor = "cycle-type" if isinstance(c1, ReducedTwoCocycle) else "general"
    delta = [
        tuple(map(operator.mod, map(operator.sub, y, x), itertools.repeat(m)))
        for m, (x, y) in zip(gamma.factors, pairs)
    ]
    solver = functools.partial(_cohomologous_solver, base, flavor, normalized)
    theta = _least_theta(solver, delta, gamma)
    return theta is not None, theta


def extensions_equivalent(t1: ExtensionTriple, t2: ExtensionTriple):
    """Decide equivalence of two central extensions of the same pair.

    Normalized sections give normalized cocycle pairs; equivalences are
    exactly the translations x -> iota(theta(pi(x))) + x, so the verdict is
    the cohomologousness of the extracted pairs under normalized 1-cochains.
    The witness is the least such theta; the isomorphism it gives is built
    and verified before it is returned.

    An extracted pair is checked as a cocycle unless it is the one its
    triple records as proven: a triple built by `classify_extensions`,
    `build_extension_reduced` or `build_extension_full` from a checked,
    normalized cocycle gives that cocycle back on its canonical section
    (the construction lemma).  Triples built directly, read from files,
    converted from braces or changed since they were built are checked,
    unless their pair equals the record.
    """
    t1 = _as_lcs_triple(t1)
    t2 = _as_lcs_triple(t2)
    if t1.gamma != t2.gamma:
        raise ParameterError("extensions have different coefficient groups")
    if t1.base != t2.base:
        raise ParameterError("extensions have different base structures")
    s1 = normalized_section(t1)
    s2 = normalized_section(t2)
    c1, fibers = _extraction(t1, "full", s1)
    c2 = _extraction(t2, "full", s2)[0]
    ok, theta = cocycles_cohomologous(c1, c2, normalized=True)
    if not ok:
        return False, None
    gamma = t1.gamma
    ne = t1.total.order
    plus = _addition_index(gamma)
    # row a of `shift` adds theta(a) to a coefficient index
    shift = [plus[gamma.index(t)] for t in theta]
    add2, iota2 = t2.total.add, t2.iota
    phi = []
    for x, a in enumerate(t1.pi):
        delta = fibers[a].get(x)
        if delta is None:
            raise MorphismError(_OFF_FIBER)
        phi.append(add2[iota2[shift[a][delta]]][s2[a]])
    if len(set(phi)) != ne:
        raise MorphismError("equivalence witness is not a bijection")
    # x's rows, moved by phi, against phi(x)'s rows read at phi; only a
    # failing row is walked for its first failing y
    add1, dot1, dot2 = t1.total.add, t1.total.dot, t2.total.dot
    at_phi, moved = _gatherer(phi), phi.__getitem__
    for x, px in enumerate(phi):
        if (
            tuple(map(moved, add1[x])) == at_phi(add2[px])
            and tuple(map(moved, dot1[x])) == at_phi(dot2[px])
        ):
            continue
        for y in range(ne):
            if phi[add1[x][y]] != add2[px][phi[y]]:
                raise MorphismError("equivalence witness breaks the addition")
            if phi[dot1[x][y]] != dot2[px][phi[y]]:
                raise MorphismError("equivalence witness breaks the dot operation")
    if tuple(map(moved, t1.iota)) != iota2:
        raise MorphismError("equivalence witness moves the kernel")
    if tuple(map(t2.pi.__getitem__, phi)) != t1.pi:
        raise MorphismError("equivalence witness breaks the projection")
    return True, {"theta": theta, "map": tuple(phi)}


# ---------------------------------------------------------------------------
# Classification


def _class_representatives(z_gens, b_form, width: int):
    """The lexicographically least element of every coset of B in Z, as
    tuples of `width` entries, sorted.

    Grows a subgroup of Z / B from 0 by one generator g of Z at a time,
    adding its cosets H + g, H + 2g, ... until a multiple of g falls back
    into H; every element is reduced modulo B by `b_form`, the Howell form
    of B.  Over Z/4, Z = <(1, 1)> has the two cosets of B = <(2, 2)>, and
    (3, 3) is (1, 1) + (2, 2):

    >>> from lcscohom.linalg import _IntegerSpan
    >>> _class_representatives([{0: 1, 1: 1}], _IntegerSpan([{0: 2, 1: 2}], 4), 2)
    [(0, 0), (1, 1)]
    """
    zero = (0,) * width
    reps = {zero: {}}  # dense least element -> the same, sparse

    def step(vec, g):
        vec = dict(vec)
        for c, x in g.items():
            vec[c] = vec.get(c, 0) + x
        vec = b_form.reduce(vec)
        return tuple(map(vec.get, range(width), zero)), vec

    for g in z_gens:
        coset = list(reps.items())  # led by 0, so by the multiples of g
        while True:
            first = step(coset[0][1], g)
            if first[0] in reps:
                break
            coset = [first] + [step(vec, g) for _key, vec in coset[1:]]
            reps.update(coset)
    return sorted(reps)


# The cocycle identities are checked once per distinct factor column, and
# each class gets two |total|^2 tables, not validated again, one per
# distinct deformation and shared by the classes that have it; the
# classification is budgeted by class count times |total|^2 table entries,
# the most it can materialize.  This many basis budgets admit the 4,096
# classes of order 32 of the trivial structure on Z/2+Z/2 over Z/2+Z/4
# (about 4.2 million entries), which take 0.15 to 0.20 s and 33 MB peak
# RSS on a 2-core Intel Xeon under CPython 3.11; its 4,096 classes of
# order 16 over Z/2+Z/2 take 0.13 to 0.15 s and 33 MB.
_CLASS_TABLE_FACTOR = 256


@dataclass
class ClassifiedExtension:
    class_index: int
    cocycle: object
    triple: ExtensionTriple

    def to_dict(self) -> dict:
        return {
            "class_index": self.class_index,
            "cocycle": two_cocycle_to_dict(self.cocycle),
            "extension": extension_to_dict(self.triple),
        }


def classify_extensions(base: LinearCycleSet, gamma, flavor: str):
    """One representative extension per second-cohomology class.

    flavor "cycle-type" takes reduced cocycles Z modulo coboundaries B of
    additive 1-cochains; flavor "general" takes normalized full pairs
    modulo coboundaries of normalized 1-cochains.  Work is done once per
    distinct cyclic coefficient factor Z/m and reused at each position of
    Z/m in gamma: the Howell form of B gives each coset of Z / B its
    lexicographically least element, and a walk from 0 along the
    generators of Z reaches every coset.  The class count |Z| / |B| is read
    off the pivots and budgeted before any triple is built.  Factors are
    assembled by products, so the class list is deterministic: per-factor
    representatives ascend lexicographically.
    """
    if flavor not in ("cycle-type", "general"):
        raise ParameterError(f"unknown classification flavor {flavor!r}")
    require_valid_lcs(base)
    n = base.order
    # Z and B of the theory's own degree-2 system, solved for on generators
    # and read on every pair: reduced cochains on generators of (A, +),
    # pairs (f, g) on the generators of the shuffle quotients over Z/m
    if flavor == "cycle-type":
        over, width = _reduced_system(base, 2), n * n
    else:
        over, width = _full_system(base, 2, normalized=True), 2 * n * n
    per_m = {}
    for m in set(gamma.factors):
        system, table, _targets = over(m)
        k_rows, k_tags, b_rows, b_tags = _tagged(*system)
        z_gens = list(map(table, _kernel_mod(k_rows, k_tags, m)))
        b_form = _IntegerSpan(map(table, _kernel_mod(b_rows, b_tags, m)), m)
        per_m[m] = (z_gens, b_form, _IntegerSpan(z_gens, m).order // b_form.order)
    check_basis(
        math.prod(per_m[m][2] for m in gamma.factors) * (gamma.order * n) ** 2,
        "the classification's total-structure tables",
        factor=_CLASS_TABLE_FACTOR,
    )
    nn = n * n
    kind = "reduced" if flavor == "cycle-type" else "full"
    # The reports check factor by factor, so a class is a cocycle exactly
    # when each of its columns is one over its own Z/m: each column is
    # checked once, with its verdict beside it.
    checked = {}
    for m, (z_gens, b_form, _count) in per_m.items():
        zm = FiniteAbelianGroup((m,))
        checked[m] = [
            (column, _cocycle_report(base, zm, [column], kind).valid)
            for column in _class_representatives(z_gens, b_form, width)
        ]
    per_factor = [checked[m] for m in gamma.factors]
    zero = (0,) * nn
    built = {}  # the cocycle and deformed tables and canonical maps of this call
    out = []
    for idx, combo in enumerate(itertools.product(*per_factor)):
        # one flat column per factor.  The base was validated above; a
        # class holding a failing column is checked in full, which
        # raises.  The total is then a linear cycle set by the
        # construction lemma.
        combo, verdicts = zip(*combo)
        cocycle = _from_columns(base, gamma, combo, kind, all(verdicts), built)
        indices = _radix(gamma, combo)
        triple = _trusted_triple(gamma, base, indices[:nn], indices[nn:] or zero, built)
        out.append(ClassifiedExtension(idx, cocycle, triple))
    return out


# ---------------------------------------------------------------------------
# Extension files


def extension_to_dict(triple: ExtensionTriple) -> dict:
    return {
        "gamma": str(triple.gamma),
        "structure": structure_to_dict(triple.total),
    }


def reconstruct_triple(total, gamma: FiniteAbelianGroup) -> ExtensionTriple:
    """Rebuild the canonical triple of a materialized extension.

    Relies on the row-major convention: total index = coefficient index *
    |base| + base index, projection = reduction mod |base|.  The kernel
    embedding is pinned by the position of the total zero element.
    """
    ne = total.order
    ng = gamma.order
    if ng == 0 or ne % ng:
        raise ParameterError(
            f"total order {ne} is not a multiple of the coefficient order {ng}"
        )
    n = ne // ng
    add, _second = _structure_ops(total)
    zero_e = total.zero
    if zero_e is None:
        raise ParameterError("total structure has no additive neutral element")
    z = zero_e % n
    section = tuple(zero_e if a == z else a for a in range(n))
    badd = [[add[section[a]][section[b]] % n for b in range(n)] for a in range(n)]
    bsecond = [
        [_second[section[a]][section[b]] % n for b in range(n)] for a in range(n)
    ]
    if isinstance(total, Brace):
        base = Brace(n, badd, bsecond)
    else:
        base = LinearCycleSet(n, badd, bsecond)
    return _canonical_triple(gamma, base, total)


def extension_from_dict(data) -> ExtensionTriple:
    if not isinstance(data, dict):
        raise MalformedTableError("extension file must be a JSON object")
    extra = set(data) - {"gamma", "structure"}
    if extra:
        raise MalformedTableError(f"unknown keys in extension file: {sorted(extra)}")
    if "gamma" not in data or "structure" not in data:
        raise MalformedTableError("extension file needs gamma and structure keys")
    gamma = parse_group_spec(data["gamma"])
    total = structure_from_dict(data["structure"], normalize=False)
    return reconstruct_triple(total, gamma)
