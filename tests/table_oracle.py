"""Reference checkers for the structure and cocycle laws.

The library checks each law on a whole row (a, b) at once and walks
element by element only on rows where a law fails.  The functions here
are the plain triple loops it replaced, unchanged: every (a, b, c) is
checked one at a time, with tuple arithmetic over the coefficient group.
The tests require equal reports from both.
"""

from lcscohom.extensions import CocycleReport, _as_table
from lcscohom.structures import (
    Brace,
    LinearCycleSet,
    ValidationReport,
    Violation,
    _find_neutral,
)


def _check_abelian_group(add, n, out):
    for a in range(n):
        for b in range(a + 1, n):
            if add[a][b] != add[b][a]:
                out.append(Violation("add-commutativity", (a, b)))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    out.append(Violation("add-associativity", (a, b, c)))
    e = _find_neutral(add, n)
    if e is None:
        out.append(Violation("add-neutral", ()))
        return None
    for a in range(n):
        if not any(add[a][b] == e for b in range(n)):
            out.append(Violation("add-inverses", (a,)))
    return e


def validate_lcs(structure: LinearCycleSet) -> ValidationReport:
    """Check every linear cycle set axiom, collecting all violations.

    Shape problems raise MalformedTableError (the constructor already
    enforces them); axiom failures land in the report with witnesses.
    The two derived identities a.0 = 0 and 0.a = a are re-checked
    explicitly so that a corrupted table names them directly.
    """
    n = structure.order
    add, dot = structure.add, structure.dot
    report = ValidationReport(kind="lcs", order=n)
    out = report.violations
    zero = _check_abelian_group(add, n, out)
    for a in range(n):
        if sorted(dot[a]) != list(range(n)):
            out.append(Violation("translation-bijectivity", (a,)))
    for a in range(n):
        for b in range(n):
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
    """Check every brace axiom, collecting all violations."""
    n = structure.order
    add, circle = structure.add, structure.circle
    report = ValidationReport(kind="brace", order=n)
    out = report.violations
    zero = _check_abelian_group(add, n, out)
    for a in range(n):
        for b in range(n):
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
    for a in range(n):
        for b in range(n):
            for c in range(n):
                # a o (b + c) + a  ==  a o b + a o c
                if add[circle[a][add[b][c]]][a] != add[circle[a][b]][circle[a][c]]:
                    out.append(Violation("circle-add-compatibility", (a, b, c)))
    return report


def is_reduced_2cocycle(structure: LinearCycleSet, coeffs, f) -> CocycleReport:
    """Check the two identities of a dot-deforming cocycle, with witnesses.

    Identities: additivity in the second argument, f(a, b+c) = f(a,b) +
    f(a,c), and the translation condition f(a+b, c) = f(a.b, a.c) + f(a,c).
    """
    n = structure.order
    f = _as_table(coeffs, n, f, "cocycle")
    add, dot = structure.add, structure.dot
    g = coeffs
    violations = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if f[a][add[b][c]] != g.add(f[a][b], f[a][c]):
                    violations.append(
                        Violation("second-argument-additivity", (a, b, c))
                    )
                if f[add[a][b]][c] != g.add(f[dot[a][b]][dot[a][c]], f[a][c]):
                    violations.append(Violation("translation-cocycle", (a, b, c)))
    z = structure.zero
    normalized = z is not None and all(
        f[z][x] == g.zero and f[x][z] == g.zero for x in range(n)
    )
    return CocycleReport("reduced", n, normalized, violations)


def is_full_2cocycle(structure: LinearCycleSet, coeffs, f, g) -> CocycleReport:
    """Check the four identities of a dot-and-addition deforming pair.

    g must be symmetric and a cocycle for the addition; f must satisfy the
    translation condition and the mixed condition tying its additivity
    defect in the second argument to g.  Normalized means g(0,0) = 0.
    """
    n = structure.order
    f = _as_table(coeffs, n, f, "dot cocycle")
    g = _as_table(coeffs, n, g, "addition cocycle")
    add, dot = structure.add, structure.dot
    gr = coeffs
    violations = []
    for a in range(n):
        for b in range(n):
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
