"""Finite linear cycle sets and braces as operation tables.

A structure of order n lives on the index set {0, ..., n-1} with two n x n
tables.  For a linear cycle set these are `add` (an abelian group) and
`dot`, where row a of `dot` is the left translation b |-> a . b.  For a
brace they are `add` and `circle` (a group sharing the neutral element).
Validation never stops at the first problem: every violated identity is
reported with a witness tuple.
"""

import json
import os
from dataclasses import dataclass, field
from operator import itemgetter

from .errors import MalformedTableError, StructureValidationError


def _check_table(table, n, name):
    if not isinstance(table, (list, tuple)) or len(table) != n:
        raise MalformedTableError(f"{name} table must have {n} rows")
    rows = []
    for i, row in enumerate(table):
        if not isinstance(row, (list, tuple)) or len(row) != n:
            raise MalformedTableError(f"{name} table row {i} must have {n} entries")
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < n:
                raise MalformedTableError(
                    f"{name} table entry {x!r} at row {i} is not an index in 0..{n - 1}"
                )
        rows.append(tuple(row))
    return tuple(rows)


def _find_neutral(add, n):
    for e in range(n):
        if all(add[e][a] == a and add[a][e] == a for a in range(n)):
            return e
    return None


class LinearCycleSet:
    """Operation tables of a (candidate) linear cycle set."""

    __slots__ = ("order", "add", "dot", "zero")

    kind = "lcs"

    def __init__(self, order, add, dot):
        if not isinstance(order, int) or order < 1:
            raise MalformedTableError(f"order must be a positive integer, got {order!r}")
        self.order = order
        self.add = _check_table(add, order, "add")
        self.dot = _check_table(dot, order, "dot")
        self.zero = _find_neutral(self.add, order)

    def __eq__(self, other):
        return (
            isinstance(other, LinearCycleSet)
            and self.order == other.order
            and self.add == other.add
            and self.dot == other.dot
        )

    def __hash__(self):
        return hash((self.order, self.add, self.dot))

    def __repr__(self):
        return f"LinearCycleSet(order={self.order})"


class Brace:
    """Operation tables of a (candidate) brace."""

    __slots__ = ("order", "add", "circle", "zero")

    kind = "brace"

    def __init__(self, order, add, circle):
        if not isinstance(order, int) or order < 1:
            raise MalformedTableError(f"order must be a positive integer, got {order!r}")
        self.order = order
        self.add = _check_table(add, order, "add")
        self.circle = _check_table(circle, order, "circle")
        self.zero = _find_neutral(self.add, order)

    def __eq__(self, other):
        return (
            isinstance(other, Brace)
            and self.order == other.order
            and self.add == other.add
            and self.circle == other.circle
        )

    def __hash__(self):
        return hash((self.order, self.add, self.circle))

    def __repr__(self):
        return f"Brace(order={self.order})"


@dataclass
class Violation:
    axiom: str
    witness: tuple

    def to_dict(self):
        return {"axiom": self.axiom, "witness": list(self.witness)}


@dataclass
class ValidationReport:
    kind: str
    order: int
    violations: list = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.violations

    def to_dict(self):
        return {
            "kind": self.kind,
            "order": self.order,
            "valid": self.valid,
            "violations": [v.to_dict() for v in self.violations],
        }


def _composers(table):
    """For each row x of a table, the map row -> tuple(row[y] for y in table[x]).

    Laws over a whole row c = 0..n-1 are then tuple comparisons: for
    instance (a + b) + c = a + (b + c) for every c reads
    ``add[add[a][b]] == plus[b](add[a])``.  With one element itemgetter
    returns a bare entry rather than a tuple, so order 1 composes by hand.
    """
    if len(table) == 1:
        (only,) = table[0]
        return [lambda row: (row[only],)]
    return [itemgetter(*row) for row in table]


def _check_abelian_group(add, n, out):
    for a in range(n):
        for b in range(a + 1, n):
            if add[a][b] != add[b][a]:
                out.append(Violation("add-commutativity", (a, b)))
    plus = _composers(add)
    for a in range(n):
        for b in range(n):
            if add[add[a][b]] == plus[b](add[a]):
                continue
            for c in range(n):
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    out.append(Violation("add-associativity", (a, b, c)))
    e = _find_neutral(add, n)
    if e is None:
        out.append(Violation("add-neutral", ()))
        return None
    for a in range(n):
        if e not in add[a]:
            out.append(Violation("add-inverses", (a,)))
    return e


def validate_lcs(structure: LinearCycleSet) -> ValidationReport:
    """Check every linear cycle set axiom, collecting all violations.

    Shape problems raise MalformedTableError (the constructor already
    enforces them); axiom failures land in the report with witnesses.
    The two derived identities a.0 = 0 and 0.a = a are re-checked
    explicitly so that a corrupted table names them directly.  Each law
    is checked on a whole row (a, b) at once; only a row where one fails
    is walked element by element for its witnesses.
    """
    n = structure.order
    add, dot = structure.add, structure.dot
    report = ValidationReport(kind="lcs", order=n)
    out = report.violations
    zero = _check_abelian_group(add, n, out)
    for a in range(n):
        if sorted(dot[a]) != list(range(n)):
            out.append(Violation("translation-bijectivity", (a,)))
    plus, times = _composers(add), _composers(dot)
    for a in range(n):
        for b in range(n):
            # dot[a.b][a.c] over c, shared by two of the laws.
            cycled = times[a](dot[dot[a][b]])
            if (
                cycled == times[b](dot[dot[b][a]])
                and plus[b](dot[a]) == times[a](add[dot[a][b]])
                and dot[add[a][b]] == cycled
            ):
                continue
            for c in range(n):
                if dot[dot[a][b]][dot[a][c]] != dot[dot[b][a]][dot[b][c]]:
                    out.append(Violation("cycle-identity", (a, b, c)))
                if dot[a][add[b][c]] != add[dot[a][b]][dot[a][c]]:
                    out.append(Violation("translation-additivity", (a, b, c)))
                if dot[add[a][b]][c] != dot[dot[a][b]][dot[a][c]]:
                    out.append(Violation("sum-translation-compatibility", (a, b, c)))
    if zero is not None:
        for a in range(n):
            if dot[a][zero] != zero:
                out.append(Violation("zero-absorption", (a,)))
            if dot[zero][a] != a:
                out.append(Violation("zero-translation-identity", (a,)))
    return report


def validate_brace(structure: Brace) -> ValidationReport:
    """Check every brace axiom, collecting all violations.

    As in validate_lcs, the laws over c are checked a row (a, b) at a
    time, and witnesses are collected only on the rows where one fails.
    """
    n = structure.order
    add, circle = structure.add, structure.circle
    report = ValidationReport(kind="brace", order=n)
    out = report.violations
    zero = _check_abelian_group(add, n, out)
    plus, after = _composers(add), _composers(circle)
    for a in range(n):
        for b in range(n):
            if circle[circle[a][b]] == after[b](circle[a]):
                continue
            for c in range(n):
                if circle[circle[a][b]][c] != circle[a][circle[b][c]]:
                    out.append(Violation("circle-associativity", (a, b, c)))
    neutral = None
    for e in range(n):
        if all(circle[e][a] == a and circle[a][e] == a for a in range(n)):
            neutral = e
            break
    if neutral is None:
        out.append(Violation("circle-neutral", ()))
    else:
        for a in range(n):
            if not any(circle[a][b] == neutral and circle[b][a] == neutral for b in range(n)):
                out.append(Violation("circle-inverses", (a,)))
        if zero is not None and neutral != zero:
            out.append(Violation("shared-neutral", (zero, neutral)))
    columns = tuple(zip(*add))
    for a in range(n):
        # a o y + a over y; row (a, b) of the law reads it at y = b + c.
        shifted = after[a](columns[a])
        for b in range(n):
            if plus[b](shifted) == after[a](add[circle[a][b]]):
                continue
            for c in range(n):
                # a o (b + c) + a  ==  a o b + a o c
                if add[circle[a][add[b][c]]][a] != add[circle[a][b]][circle[a][c]]:
                    out.append(Violation("circle-add-compatibility", (a, b, c)))
    return report


def require_valid_lcs(structure: LinearCycleSet) -> LinearCycleSet:
    report = validate_lcs(structure)
    if not report.valid:
        names = sorted({v.axiom for v in report.violations})
        raise StructureValidationError(
            f"linear cycle set of order {structure.order} is invalid ({', '.join(names)})",
            report=report,
        )
    return structure


def require_valid_brace(structure: Brace) -> Brace:
    report = validate_brace(structure)
    if not report.valid:
        names = sorted({v.axiom for v in report.violations})
        raise StructureValidationError(
            f"brace of order {structure.order} is invalid ({', '.join(names)})",
            report=report,
        )
    return structure


def brace_to_lcs(brace: Brace) -> LinearCycleSet:
    """The linear cycle set of a brace: a . b = inverse(a) o (a + b)."""
    require_valid_brace(brace)
    n = brace.order
    add, circle = brace.add, brace.circle
    neutral = brace.zero
    inv = [None] * n
    for a in range(n):
        for b in range(n):
            if circle[a][b] == neutral and circle[b][a] == neutral:
                inv[a] = b
                break
    dot = [[circle[inv[a]][add[a][b]] for b in range(n)] for a in range(n)]
    return LinearCycleSet(n, [list(brace.add[i]) for i in range(n)], dot)


def lcs_to_brace(structure: LinearCycleSet) -> Brace:
    """The brace of a linear cycle set: a o b = a + t(b) where a . t(b) = b."""
    require_valid_lcs(structure)
    n = structure.order
    add, dot = structure.add, structure.dot
    star = [[0] * n for _ in range(n)]  # star[a][c] = the b with a . b = c
    for a in range(n):
        for b in range(n):
            star[a][dot[a][b]] = b
    circle = [[add[a][star[a][b]] for b in range(n)] for a in range(n)]
    return Brace(n, [list(structure.add[i]) for i in range(n)], circle)


# ---------------------------------------------------------------------------
# Structure files


_ALLOWED_KEYS = {
    "lcs": {"kind", "order", "add", "dot"},
    "brace": {"kind", "order", "add", "circle"},
}


def reindex_zero(structure):
    """Relabel so the additive neutral element sits at index 0."""
    e = structure.zero
    if e is None or e == 0:
        return structure
    n = structure.order

    def p(x):
        if x == e:
            return 0
        if x == 0:
            return e
        return x

    def relabel(table):
        out = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                out[p(i)][p(j)] = p(table[i][j])
        return out

    if isinstance(structure, LinearCycleSet):
        return LinearCycleSet(n, relabel(structure.add), relabel(structure.dot))
    return Brace(n, relabel(structure.add), relabel(structure.circle))


def structure_to_dict(structure) -> dict:
    out = {
        "kind": structure.kind,
        "order": structure.order,
        "add": [list(row) for row in structure.add],
    }
    if isinstance(structure, LinearCycleSet):
        out["dot"] = [list(row) for row in structure.dot]
    else:
        out["circle"] = [list(row) for row in structure.circle]
    return out


def structure_from_dict(data, normalize: bool = True):
    """Parse a structure file dict; unknown keys and ragged tables are errors.

    With normalize=True (the file-loading default) the elements are
    relabelled so the additive neutral element gets index 0.
    """
    if not isinstance(data, dict):
        raise MalformedTableError("structure file must be a JSON object")
    kind = data.get("kind")
    if kind not in _ALLOWED_KEYS:
        raise MalformedTableError(f"kind must be 'lcs' or 'brace', got {kind!r}")
    allowed = _ALLOWED_KEYS[kind]
    extra = set(data) - allowed
    if extra:
        raise MalformedTableError(f"unknown keys in structure file: {sorted(extra)}")
    missing = allowed - set(data)
    if missing:
        raise MalformedTableError(f"missing keys in structure file: {sorted(missing)}")
    order = data["order"]
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise MalformedTableError(f"order must be a positive integer, got {order!r}")
    if kind == "lcs":
        structure = LinearCycleSet(order, data["add"], data["dot"])
    else:
        structure = Brace(order, data["add"], data["circle"])
    if normalize:
        structure = reindex_zero(structure)
    return structure


def _load_json(path):
    """Parse a JSON file; an unreadable or undecodable one is malformed input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedTableError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedTableError(f"{path} is not valid JSON: {exc}") from exc


def load_structure(path, normalize: bool = True):
    return structure_from_dict(_load_json(path), normalize=normalize)


def save_structure(structure, path):
    """Write a structure file as sorted, indented JSON.

    An existing file is overwritten in place and then cut to the new
    length, rather than truncated on open: on file systems that release
    freed blocks eagerly, truncating on open costs tens of milliseconds.
    The file is not fsynced.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as fh:
        json.dump(structure_to_dict(structure), fh, sort_keys=True, indent=2)
        fh.write("\n")
        fh.truncate()
