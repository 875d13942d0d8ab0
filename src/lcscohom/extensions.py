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
cyclic coefficient factor at a time.  Equivalence and classification are
linear algebra over Z/m: the Howell form of the coboundary system yields
the least theta of an equivalence and the least cocycle of each class.
"""

import itertools
import operator
from dataclasses import dataclass, field

from .abelian import FiniteAbelianGroup, parse_group_spec
from .bicomplex import shuffle_rows, total_chain_matrix
from .budget import check_basis
from .errors import (
    CocycleError,
    LinearityError,
    MalformedTableError,
    MorphismError,
    ParameterError,
    SectionError,
    ShapeError,
)
from .linalg import IntegerMatrix, _HowellForm, hstack, kernel_mod_m, solve_mod, vstack
from .reduced import _degenerate_rows, linearity_rows, reduced_boundary_matrix
from .structures import (
    Brace,
    LinearCycleSet,
    Violation,
    _composers,
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
    a single cyclic factor; everything is reduced componentwise.
    """
    if raw is None:
        zero = coeffs.zero
        return tuple(tuple(zero for _ in range(order)) for _ in range(order))
    single = len(coeffs.factors) == 1
    if len(raw) != order:
        raise ShapeError(f"{what} table must have {order} rows")
    rows = []
    for row in raw:
        if len(row) != order:
            raise ShapeError(f"{what} table must have {order} columns per row")
        entries = []
        for v in row:
            if isinstance(v, int) and not isinstance(v, bool):
                if not single:
                    raise ShapeError(
                        f"{what} entries must be tuples over {coeffs}, got a bare int"
                    )
                v = (v,)
            v = tuple(v)
            if len(v) != len(coeffs.factors):
                raise ShapeError(f"{what} entry {v!r} does not fit {coeffs}")
            entries.append(coeffs.reduce(v))
        rows.append(tuple(entries))
    return tuple(rows)


@dataclass
class CocycleReport:
    flavor: str
    order: int
    normalized: bool
    violations: list = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "flavor": self.flavor,
            "order": self.order,
            "valid": self.valid,
            "normalized": self.normalized,
            "violations": [v.to_dict() for v in self.violations],
        }


def _factor_table(table, t: int):
    """Component t of a normalized table, as plain residues."""
    return tuple(tuple(v[t] for v in row) for row in table)


def _residues(m: int, first, *minus):
    """The residues mod m of first - minus[0] - minus[1] - ..., as a set."""
    diff = first
    for row in minus:
        diff = map(operator.sub, diff, row)
    return set(map(operator.mod, diff, itertools.repeat(m)))


def _reduced_report(structure: LinearCycleSet, coeffs, f) -> CocycleReport:
    """is_reduced_2cocycle on a table that _as_table has normalized."""
    n = structure.order
    add, dot = structure.add, structure.dot
    plus, times = _composers(add), _composers(dot)
    failing = set()
    for t, m in enumerate(coeffs.factors):
        ft = _factor_table(f, t)
        for a in range(n):
            fa = ft[a]
            for b in range(n):
                # Over c: f(a, b+c) - f(a, c) = f(a, b) and
                # f(a+b, c) - f(a.b, a.c) - f(a, c) = 0.
                if (
                    _residues(m, plus[b](fa), fa) != {fa[b]}
                    or _residues(m, ft[add[a][b]], times[a](ft[dot[a][b]]), fa) != {0}
                ):
                    failing.add((a, b))
    g = coeffs
    violations = []
    for a, b in sorted(failing):
        for c in range(n):
            if f[a][add[b][c]] != g.add(f[a][b], f[a][c]):
                violations.append(Violation("second-argument-additivity", (a, b, c)))
            if f[add[a][b]][c] != g.add(f[dot[a][b]][dot[a][c]], f[a][c]):
                violations.append(Violation("translation-cocycle", (a, b, c)))
    z = structure.zero
    normalized = z is not None and all(
        f[z][x] == g.zero and f[x][z] == g.zero for x in range(n)
    )
    return CocycleReport("reduced", n, normalized, violations)


def is_reduced_2cocycle(structure: LinearCycleSet, coeffs, f) -> CocycleReport:
    """Check the two identities of a dot-deforming cocycle, with witnesses.

    Identities: additivity in the second argument, f(a, b+c) = f(a,b) +
    f(a,c), and the translation condition f(a+b, c) = f(a.b, a.c) + f(a,c).
    Both are linear, so they are checked one cyclic factor Z/m at a time
    on plain residues, a whole row (a, b) over c at once; witnesses are
    collected only on rows where an identity fails.
    """
    f = _as_table(coeffs, structure.order, f, "cocycle")
    return _reduced_report(structure, coeffs, f)


def _full_report(structure: LinearCycleSet, coeffs, f, g) -> CocycleReport:
    """is_full_2cocycle on tables that _as_table has normalized."""
    n = structure.order
    add, dot = structure.add, structure.dot
    plus, times = _composers(add), _composers(dot)
    failing = {(a, b) for a in range(n) for b in range(n) if g[a][b] != g[b][a]}
    for t, m in enumerate(coeffs.factors):
        ft, gt = _factor_table(f, t), _factor_table(g, t)
        for a in range(n):
            fa, ga = ft[a], gt[a]
            for b in range(n):
                ab = dot[a][b]
                # Over c: f(a+b, c) - f(a.b, a.c) - f(a, c) = 0,
                # f(a, b+c) + g(b, c) - f(a, c) - g(a.b, a.c) = f(a, b) and
                # g(a+b, c) - g(b, c) - g(a, b+c) = -g(a, b).
                mixed = map(operator.add, plus[b](fa), gt[b])
                if (
                    _residues(m, ft[add[a][b]], times[a](ft[ab]), fa) != {0}
                    or _residues(m, mixed, fa, times[a](gt[ab])) != {fa[b]}
                    or _residues(m, gt[add[a][b]], gt[b], plus[b](ga)) != {-ga[b] % m}
                ):
                    failing.add((a, b))
    gr = coeffs
    violations = []
    for a, b in sorted(failing):
        if g[a][b] != g[b][a]:
            violations.append(Violation("addition-symmetry", (a, b)))
        for c in range(n):
            if f[add[a][b]][c] != gr.add(f[dot[a][b]][dot[a][c]], f[a][c]):
                violations.append(Violation("translation-cocycle", (a, b, c)))
            lhs = gr.sub(gr.sub(f[a][add[b][c]], f[a][b]), f[a][c])
            rhs = gr.sub(g[dot[a][b]][dot[a][c]], g[b][c])
            if lhs != rhs:
                violations.append(Violation("mixed-compatibility", (a, b, c)))
            if gr.add(g[a][b], g[add[a][b]][c]) != gr.add(g[b][c], g[a][add[b][c]]):
                violations.append(Violation("addition-cocycle", (a, b, c)))
    z = structure.zero
    normalized = z is not None and g[z][z] == gr.zero
    return CocycleReport("full", n, normalized, violations)


def is_full_2cocycle(structure: LinearCycleSet, coeffs, f, g) -> CocycleReport:
    """Check the four identities of a dot-and-addition deforming pair.

    g must be symmetric and a cocycle for the addition; f must satisfy the
    translation condition and the mixed condition tying its additivity
    defect in the second argument to g.  Normalized means g(0,0) = 0.
    Symmetry is compared entry by entry; the three linear identities are
    checked per cyclic factor and row as in is_reduced_2cocycle.
    """
    n = structure.order
    f = _as_table(coeffs, n, f, "dot cocycle")
    g = _as_table(coeffs, n, g, "addition cocycle")
    return _full_report(structure, coeffs, f, g)


def _first_violation(report: CocycleReport) -> str:
    v = report.violations[0]
    return f"{v.axiom} fails at {v.witness}"


@dataclass
class ReducedTwoCocycle:
    base: LinearCycleSet
    coeffs: FiniteAbelianGroup
    f: tuple

    def __post_init__(self):
        self.f = _as_table(self.coeffs, self.base.order, self.f, "cocycle")
        report = _reduced_report(self.base, self.coeffs, self.f)
        if not report.valid:
            raise CocycleError(
                f"not a reduced 2-cocycle: {_first_violation(report)}", report
            )

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
        report = _full_report(self.base, self.coeffs, self.f, self.g)
        if not report.valid:
            raise CocycleError(
                f"not a full 2-cocycle: {_first_violation(report)}", report
            )

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
    carry 2|A|^2 values, dot deformation first, addition deformation after.
    """
    if flavor not in ("reduced", "full"):
        raise ParameterError(f"unknown cocycle flavor {flavor!r}")
    if not isinstance(data, dict):
        raise MalformedTableError("cocycle file must be a JSON object")
    extra = set(data) - {"degree", "coeff", "values"}
    if extra:
        raise MalformedTableError(f"unknown keys in cocycle file: {sorted(extra)}")
    if "coeff" in data:
        if not isinstance(data["coeff"], str):
            raise MalformedTableError("cocycle coeff must be a group spec string")
        declared = parse_group_spec(data["coeff"])
        if coeffs is not None and declared != coeffs:
            raise MalformedTableError(
                f"cocycle file declares coefficients {declared}, expected {coeffs}"
            )
        coeffs = declared
    if coeffs is None:
        raise MalformedTableError("cocycle file lacks a coeff key and none was supplied")
    if data.get("degree") != 2:
        raise MalformedTableError("cocycle files must have degree 2")
    n = base.order
    blocks = 1 if flavor == "reduced" else 2
    raw = data.get("values")
    if not isinstance(raw, list) or len(raw) != blocks * n * n:
        raise MalformedTableError(
            f"a {flavor} cocycle over an order-{n} structure needs "
            f"{blocks * n * n} values"
        )
    width = len(coeffs.factors)
    flat = []
    for v in raw:
        if isinstance(v, int) and not isinstance(v, bool) and width == 1:
            flat.append((v,))
        elif (
            isinstance(v, list)
            and len(v) == width
            and all(isinstance(x, int) and not isinstance(x, bool) for x in v)
        ):
            flat.append(tuple(v))
        else:
            raise MalformedTableError(
                f"cocycle values must be ints (single factor) or lists of {width} ints"
            )
    def table(block):
        off = block * n * n
        return tuple(
            tuple(flat[off + a * n + b] for b in range(n)) for a in range(n)
        )
    if flavor == "reduced":
        return ReducedTwoCocycle(base, coeffs, table(0))
    return FullTwoCocycle(base, coeffs, table(0), table(1))


def two_cocycle_to_dict(cocycle) -> dict:
    coeffs = cocycle.coeffs
    single = len(coeffs.factors) == 1
    tables = [cocycle.f] if cocycle.flavor == "reduced" else [cocycle.f, cocycle.g]
    values = []
    for t in tables:
        for row in t:
            values.extend(v[0] if single else list(v) for v in row)
    return {"degree": 2, "coeff": str(coeffs), "values": values}


# ---------------------------------------------------------------------------
# Extension triples


@dataclass
class ExtensionTriple:
    """A total structure with its kernel embedding, projection and section.

    iota maps coefficient-group indices into the total structure, pi maps
    total indices onto base indices, section is a right inverse of pi.
    """

    total: object
    gamma: FiniteAbelianGroup
    base: object
    iota: tuple
    pi: tuple
    section: tuple = None

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


def _deformed_table(gamma, n: int, base_op, deformation, carry: bool):
    """One operation table on gamma x base, element c * n + a for (c, a).

    (c1, a1), (c2, a2) goes to (c + deformation(a1, a2), base_op(a1, a2)),
    where c is c1 + c2 when `carry` is set and c2 otherwise.  Coefficients
    are added through an index table of gamma's addition.
    """
    elements = [gamma.element(i) for i in range(gamma.order)]
    plus = [[gamma.index(gamma.add(x, y)) for y in elements] for x in elements]
    shift = [[gamma.index(v) for v in row] for row in deformation]
    table = []
    for c1 in range(gamma.order):
        for a1 in range(n):
            srow, brow = shift[a1], base_op[a1]
            row = []
            for c2 in range(gamma.order):
                moved = plus[plus[c1][c2]] if carry else plus[c2]
                row.extend(moved[srow[a2]] * n + brow[a2] for a2 in range(n))
            table.append(row)
    return table


def _deformed_tables(gamma, base, f, g):
    n = base.order
    return (
        _deformed_table(gamma, n, base.add, g, carry=True),
        _deformed_table(gamma, n, base.dot, f, carry=False),
    )


def force_extension_full(gamma, base: LinearCycleSet, f, g) -> LinearCycleSet:
    """Deformed-table structure on gamma x base without any cocycle check."""
    f = _as_table(gamma, base.order, f, "dot deformation")
    g = _as_table(gamma, base.order, g, "addition deformation")
    add, dot = _deformed_tables(gamma, base, f, g)
    return LinearCycleSet(gamma.order * base.order, add, dot)


def force_extension_reduced(gamma, base: LinearCycleSet, f) -> LinearCycleSet:
    return force_extension_full(gamma, base, f, None)


def _canonical_triple(gamma, base, total, g):
    n = base.order
    z = base.zero
    g00 = g[z][z]
    iota = tuple(
        gamma.index(gamma.sub(gamma.element(i), g00)) * n + z
        for i in range(gamma.order)
    )
    pi = tuple(e % n for e in range(total.order))
    zero_e = gamma.index(gamma.neg(g00)) * n + z
    section = tuple(zero_e if a == z else a for a in range(n))
    return ExtensionTriple(total, gamma, base, iota, pi, section)


def _checked_triple(gamma, base: LinearCycleSet, f, g) -> ExtensionTriple:
    """The canonical triple of normalized deformation tables over a base
    the caller has validated; the total structure is validated here."""
    add, dot = _deformed_tables(gamma, base, f, g)
    total = require_valid_lcs(LinearCycleSet(gamma.order * base.order, add, dot))
    return _canonical_triple(gamma, base, total, g)


def build_extension_reduced(gamma, base: LinearCycleSet, f) -> ExtensionTriple:
    """Central cycle-type extension: direct-sum addition, deformed dot.

    The cocycle is validated first; the result is validated as a linear
    cycle set as well, so the construction lemma is exercised rather than
    assumed.
    """
    require_valid_lcs(base)
    if not isinstance(f, ReducedTwoCocycle):
        f = ReducedTwoCocycle(base, gamma, f)
    n = base.order
    return _checked_triple(
        gamma,
        base,
        _as_table(gamma, n, f.f, "dot deformation"),
        _as_table(gamma, n, None, "zero"),
    )


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
    n = base.order
    return _checked_triple(
        gamma,
        base,
        _as_table(gamma, n, f.f, "dot deformation"),
        _as_table(gamma, n, f.g, "addition deformation"),
    )


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
    g = _as_table(gamma, n, g, "addition deformation")
    lcs = brace_to_lcs(brace)
    fbar = tuple(
        tuple(gamma.sub(g[a][b], f[a][lcs.dot[a][b]]) for b in range(n))
        for a in range(n)
    )
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
    add = _deformed_table(gamma, n, brace.add, g, carry=True)
    circle = _deformed_table(gamma, n, brace.circle, f, carry=True)
    total = Brace(order, add, circle)
    require_valid_brace(total)
    return _canonical_triple(gamma, brace, total, g)


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


def _fiber_solve(triple: ExtensionTriple, target: int, base_point: int) -> int:
    """The coefficient index c with iota(c) + base_point = target."""
    add, _ = _structure_ops(triple.total)
    for c in range(triple.gamma.order):
        if add[triple.iota[c]][base_point] == target:
            return c
    raise MorphismError(
        "difference does not lie in the kernel fiber; "
        "the triple is not a central extension"
    )


def extract_cocycle(triple: ExtensionTriple, flavor: str, section=None):
    """Read a cocycle off a section of an extension triple.

    The dot deformation at (a, b) is the kernel part of s(a).s(b) relative
    to s(a.b); the full flavor reads the addition deformation the same way
    from s(a) + s(b) against s(a+b).  A normalized section yields a
    normalized cocycle.  The reduced flavor requires an additive section.
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
    f = []
    g = []
    for a in range(n):
        frow = []
        grow = []
        for b in range(n):
            df = _fiber_solve(
                triple,
                total.dot[section[a]][section[b]],
                section[base.dot[a][b]],
            )
            frow.append(gamma.element(df))
            if flavor == "full":
                dg = _fiber_solve(
                    triple,
                    total.add[section[a]][section[b]],
                    section[base.add[a][b]],
                )
                grow.append(gamma.element(dg))
        f.append(tuple(frow))
        g.append(tuple(grow))
    if flavor == "reduced":
        return ReducedTwoCocycle(base, gamma, tuple(f))
    return FullTwoCocycle(base, gamma, tuple(f), tuple(g))


def additive_section(triple: ExtensionTriple):
    """An additive section of the projection, or None when there is none.

    Starting from a normalized section with addition defect g0, an additive
    correction tau must satisfy tau(a+b) - tau(a) - tau(b) = g0(a, b); that
    system is solved exactly per cyclic coefficient factor.
    """
    total = triple.total
    if isinstance(total, Brace):
        raise ParameterError("additive sections are decided on cycle-set triples")
    base = triple.base
    gamma = triple.gamma
    n = base.order
    s0 = normalized_section(triple)
    g0 = [
        [
            gamma.element(
                _fiber_solve(triple, total.add[s0[a]][s0[b]], s0[base.add[a][b]])
            )
            for b in range(n)
        ]
        for a in range(n)
    ]
    defect = linearity_rows(base, 1)
    parts = []
    for t, m in enumerate(gamma.factors):
        rhs = [g0[a][b][t] for a in range(n) for b in range(n)]
        tau_t = solve_mod(defect, rhs, m)
        if tau_t is None:
            return None
        parts.append(tau_t)
    tau = [tuple(parts[t][a] for t in range(len(gamma.factors))) for a in range(n)]
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
    check(
        "kernel-trivial-translations",
        first(
            itertools.product(range(ng), range(ne)),
            lambda x, e: total.dot[iota[x]][e] == e,
        ),
    )
    check(
        "kernel-absorbed-by-translations",
        first(
            itertools.product(range(ne), range(ng)),
            lambda e, x: total.dot[e][iota[x]] == iota[x],
        ),
    )
    check(
        "projection-additive",
        first(
            itertools.product(range(ne), range(ne)),
            lambda x, y: pi[total.add[x][y]] == base.add[pi[x]][pi[y]],
        ),
    )
    check(
        "projection-dot-morphism",
        first(
            itertools.product(range(ne), range(ne)),
            lambda x, y: pi[total.dot[x][y]] == base.dot[pi[x]][pi[y]],
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
    Z/m this is one linear system A theta = delta: the Howell form of
    [A^T | I] reduces (-delta, 0) to (0, theta) exactly when a solution
    exists, and theta is then the lexicographically least one, glued
    across the factors.  Returns (verdict, theta-or-None); theta lists one
    coefficient element per base element.
    """
    _same_setting(c1, c2)
    base = c1.base
    gamma = c1.coeffs
    n = base.order
    if isinstance(c1, ReducedTwoCocycle):
        tables = [(c1.f, c2.f)]
        system = vstack(
            [reduced_boundary_matrix(base, 2).transpose(), linearity_rows(base, 1)]
        )
    else:
        tables = [(c1.f, c2.f), (c1.g, c2.g)]
        parts = [total_chain_matrix(base, 2).transpose()]
        if normalized:
            parts.append(_degenerate_rows(base, 1))
        system = vstack(parts)
    delta = [
        gamma.sub(y, x)
        for t1, t2 in tables
        for r1, r2 in zip(t1, t2)
        for x, y in zip(r1, r2)
    ]
    width = system.rows
    unit = IntegerMatrix.identity(n).data
    rows = [col + e for col, e in zip(system.transpose().data, unit)]
    thetas = []
    for t, m in enumerate(gamma.factors):
        target = [-d[t] for d in delta] + [0] * (width + n - len(delta))
        left_and_theta = _HowellForm(rows, m, width + n).reduce(target)
        if any(left_and_theta[:width]):
            return False, None
        thetas.append(left_and_theta[width:])
    return True, tuple(tuple(theta[a] for theta in thetas) for a in range(n))


def extensions_equivalent(t1: ExtensionTriple, t2: ExtensionTriple):
    """Decide equivalence of two central extensions of the same pair.

    Normalized sections give normalized cocycle pairs; equivalences are
    exactly the translations x -> iota(theta(pi(x))) + x, so the verdict is
    the cohomologousness of the extracted pairs under normalized 1-cochains.
    The witness is the least such theta; the isomorphism it gives is built
    and verified before it is returned.
    """
    t1 = _as_lcs_triple(t1)
    t2 = _as_lcs_triple(t2)
    if t1.gamma != t2.gamma:
        raise ParameterError("extensions have different coefficient groups")
    if t1.base != t2.base:
        raise ParameterError("extensions have different base structures")
    s1 = normalized_section(t1)
    s2 = normalized_section(t2)
    c1 = extract_cocycle(t1, "full", s1)
    c2 = extract_cocycle(t2, "full", s2)
    ok, theta = cocycles_cohomologous(c1, c2, normalized=True)
    if not ok:
        return False, None
    gamma = t1.gamma
    base = t1.base
    ne = t1.total.order
    phi = [0] * ne
    for x in range(ne):
        a = t1.pi[x]
        delta = gamma.element(_fiber_solve(t1, x, s1[a]))
        shifted = gamma.index(gamma.add(delta, theta[a]))
        phi[x] = t2.total.add[t2.iota[shifted]][s2[a]]
    if len(set(phi)) != ne:
        raise MorphismError("equivalence witness is not a bijection")
    for x in range(ne):
        for y in range(ne):
            if phi[t1.total.add[x][y]] != t2.total.add[phi[x]][phi[y]]:
                raise MorphismError("equivalence witness breaks the addition")
            if phi[t1.total.dot[x][y]] != t2.total.dot[phi[x]][phi[y]]:
                raise MorphismError("equivalence witness breaks the dot operation")
    for c in range(gamma.order):
        if phi[t1.iota[c]] != t2.iota[c]:
            raise MorphismError("equivalence witness moves the kernel")
    for x in range(ne):
        if t2.pi[phi[x]] != t1.pi[x]:
            raise MorphismError("equivalence witness breaks the projection")
    return True, {"theta": theta, "map": tuple(phi)}


# ---------------------------------------------------------------------------
# Classification


def _class_representatives(z_rows, b_form, width: int):
    """The lexicographically least element of every coset of B in Z, sorted.

    Walks Z / B from 0, adding each generator of Z and reducing modulo B.
    """
    zero = tuple([0] * width)
    gens = {tuple(b_form.reduce(z)) for z in z_rows} - {zero}
    seen = {zero}
    frontier = [zero]
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                s = tuple(b_form.reduce([x + y for x, y in zip(e, g)]))
                if s not in seen:
                    seen.add(s)
                    new.append(s)
        frontier = new
    return sorted(seen)


def _two_cocycle_system(base: LinearCycleSet, flavor: str):
    """Constraint rows cutting out the degree-2 cocycles of a flavor, and
    the coboundary matrix on 1-cochains.

    Cycle-type cocycles are the last-linear f killed by the degree-3
    coboundary.  General ones are normalized pairs (f, g): g symmetric,
    the pair killed by the total degree-3 coboundary, and g(0,0) = 0.
    """
    n = base.order
    if flavor == "cycle-type":
        constraints = vstack(
            [linearity_rows(base, 2), reduced_boundary_matrix(base, 3).transpose().scaled(-1)]
        )
        return constraints, reduced_boundary_matrix(base, 2).transpose()
    symmetric = hstack([IntegerMatrix.zeros(n * n, n * n), shuffle_rows(base, 0, 2)])
    norm = IntegerMatrix.zeros(1, 2 * n * n)
    norm.data[0][n * n + base.zero * n + base.zero] = 1
    constraints = vstack([symmetric, total_chain_matrix(base, 3).transpose(), norm])
    return constraints, total_chain_matrix(base, 2).transpose()


# Every class materializes two |total|^2 tables and validates them, so the
# classification is budgeted by class count times |total|^2 table entries.
# This many basis budgets admit the 4,096 classes of order 32 of the
# trivial structure on Z/2+Z/2 over Z/2+Z/4 (about 4.2 million entries),
# which take 7.7 s on one AMD EPYC core under CPython 3.11; its 4,096
# classes of order 16 over Z/2+Z/2 take 1.8 s.
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
    modulo coboundaries of normalized 1-cochains.  Work is done per cyclic
    coefficient factor Z/m: the Howell form of B gives each coset of Z / B
    its lexicographically least element, and a walk from 0 along the
    generators of Z reaches every coset.  The class count |Z| / |B| is read
    off the pivots and budgeted before any triple is built.  Factors are
    assembled by products, so the class list is deterministic: per-factor
    representatives ascend lexicographically.
    """
    if flavor not in ("cycle-type", "general"):
        raise ParameterError(f"unknown classification flavor {flavor!r}")
    require_valid_lcs(base)
    n = base.order
    constraints, cob = _two_cocycle_system(base, flavor)
    if flavor == "cycle-type":
        theta_rows = linearity_rows(base, 1)
    else:
        theta_rows = _degenerate_rows(base, 1)
    factors = []
    count = 1
    for m in gamma.factors:
        z_rows = kernel_mod_m(constraints, m).transpose().data
        b_rows = (cob @ kernel_mod_m(theta_rows, m)).transpose().data
        b_form = _HowellForm(b_rows, m, cob.rows)
        count *= _HowellForm(z_rows, m, cob.rows).order // b_form.order
        factors.append((z_rows, b_form))
    check_basis(
        count * (gamma.order * n) ** 2,
        "the classification's total-structure tables",
        factor=_CLASS_TABLE_FACTOR,
    )
    per_factor = [_class_representatives(z, b, cob.rows) for z, b in factors]
    width = len(gamma.factors)
    zero = _as_table(gamma, n, None, "zero")
    out = []
    for idx, combo in enumerate(itertools.product(*per_factor)):
        def entry(flat_index):
            return tuple(combo[t][flat_index] for t in range(width))

        f = tuple(tuple(entry(a * n + b) for b in range(n)) for a in range(n))
        # The base was validated above and the cocycle constructors
        # normalize each table once; every cocycle and total is still
        # checked in full.
        if flavor == "cycle-type":
            cocycle = ReducedTwoCocycle(base, gamma, f)
            triple = _checked_triple(gamma, base, cocycle.f, zero)
        else:
            goff = n * n
            g = tuple(
                tuple(entry(goff + a * n + b) for b in range(n)) for a in range(n)
            )
            cocycle = FullTwoCocycle(base, gamma, f, g)
            triple = _checked_triple(gamma, base, cocycle.f, cocycle.g)
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
    g00 = gamma.neg(gamma.element(zero_e // n))
    iota = tuple(
        gamma.index(gamma.sub(gamma.element(i), g00)) * n + (zero_e % n)
        for i in range(ng)
    )
    pi = tuple(e % n for e in range(ne))
    section = tuple(zero_e if a == zero_e % n else a for a in range(n))
    badd = [[pi[add[section[a]][section[b]]] for b in range(n)] for a in range(n)]
    bsecond = [
        [pi[_second[section[a]][section[b]]] for b in range(n)] for a in range(n)
    ]
    if isinstance(total, Brace):
        base = Brace(n, badd, bsecond)
    else:
        base = LinearCycleSet(n, badd, bsecond)
    return ExtensionTriple(total, gamma, base, iota, pi, section)


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
