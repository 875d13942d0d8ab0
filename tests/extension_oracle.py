"""Brute-force reference for extension equivalence and classification.

The library decides both by linear algebra over Z/m (a Howell form of
the coboundary system).  The functions here decide them by enumeration:
every map from the base to the coefficient group is tried in
lexicographic order, and every cocycle group and coboundary group is
listed element by element.  They are exponential and serve only as the
oracle the tests compare the library against.

The cochain systems here are dense stacks of the face-map matrices of
`dense_views`, as the library built them before it wrote sparse face
rows, so the oracle shares the face lists with the library but no system
builder.
"""

import itertools

from dense_views import (
    kernel_mod_m,
    linearity_rows,
    reduced_boundary_matrix,
    shuffle_rows,
    total_chain_matrix,
)
from lattice_oracle import IntegerMatrix, hstack
from lcscohom.extensions import ReducedTwoCocycle
from lcscohom.reduced import degenerate_indices


def vstack(mats):
    """Dense matrices with equal column counts, one above the other."""
    cols = mats[0].cols
    data = [row[:] for m in mats for row in m.data]
    return IntegerMatrix(len(data), cols, data)


def degenerate_rows(structure, k: int) -> IntegerMatrix:
    """One row e_i per degree-k tuple i holding the neutral element."""
    cols = structure.order**k
    data = [[int(i == x) for x in range(cols)] for i in degenerate_indices(structure, k)]
    return IntegerMatrix(len(data), cols, data)


def two_cocycle_system(base, flavor: str):
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


def theta_constraints(base, flavor: str, normalized: bool) -> IntegerMatrix:
    """The rows that 1-cochains theta must satisfy: additivity for the
    cycle-type flavor, theta(0) = 0 for the general one when normalized."""
    if flavor == "cycle-type":
        return linearity_rows(base, 1)
    if normalized:
        return degenerate_rows(base, 1)
    return IntegerMatrix.zeros(0, base.order)


def search_theta(c1, c2, normalized: bool = False):
    """The first 1-cochain, in lexicographic order, joining c1 to c2.

    Reduced flavor: theta additive with theta(a.b) - theta(b) equal to the
    difference of the dot deformations.  Full flavor: theta arbitrary
    (normalized: theta(0) = 0), matching both deformations.  Returns
    (verdict, theta-or-None).
    """
    base = c1.base
    gamma = c1.coeffs
    n = base.order
    add, dot = base.add, base.dot
    reduced = isinstance(c1, ReducedTwoCocycle)
    df = [[gamma.sub(c2.f[a][b], c1.f[a][b]) for b in range(n)] for a in range(n)]
    if not reduced:
        dg = [[gamma.sub(c2.g[a][b], c1.g[a][b]) for b in range(n)] for a in range(n)]
    pairs = list(itertools.product(range(n), repeat=2))
    for theta in itertools.product(gamma.elements(), repeat=n):
        if reduced:
            if any(theta[add[a][b]] != gamma.add(theta[a], theta[b]) for a, b in pairs):
                continue
        elif normalized and theta[base.zero] != gamma.zero:
            continue
        if any(df[a][b] != gamma.sub(theta[dot[a][b]], theta[b]) for a, b in pairs):
            continue
        if not reduced and any(
            dg[a][b] != gamma.sub(gamma.sub(theta[add[a][b]], theta[a]), theta[b])
            for a, b in pairs
        ):
            continue
        return True, theta
    return False, None


def span_mod(gens: IntegerMatrix, m: int):
    """Every element of the subgroup of (Z/m)^rows spanned by the columns."""
    dim = gens.rows
    zero = tuple([0] * dim)
    cols = [tuple(gens.data[r][c] % m for r in range(dim)) for c in range(gens.cols)]
    elements = {zero}
    frontier = [zero]
    while frontier:
        new = []
        for e in frontier:
            for g in cols:
                s = tuple((x + y) % m for x, y in zip(e, g))
                if s not in elements:
                    elements.add(s)
                    new.append(s)
        frontier = new
    return sorted(elements)


def coset_representatives(cocycles, coboundaries, m: int):
    """The lexicographically least element of every coset, sorted."""
    reps = set()
    for z in cocycles:
        reps.add(min(tuple((x + y) % m for x, y in zip(z, b)) for b in coboundaries))
    return sorted(reps)


def class_cocycles(base, gamma, flavor: str):
    """The cocycle tables of the classes, in classification order: f for
    "cycle-type", (f, g) for "general"."""
    n = base.order
    constraints, cob = two_cocycle_system(base, flavor)
    theta_rows = theta_constraints(base, flavor, normalized=True)
    per_factor = []
    for m in gamma.factors:
        cocycles = span_mod(kernel_mod_m(constraints, m), m)
        coboundaries = span_mod(cob @ kernel_mod_m(theta_rows, m), m)
        per_factor.append(coset_representatives(cocycles, coboundaries, m))
    out = []
    for combo in itertools.product(*per_factor):
        def table(offset):
            return tuple(
                tuple(tuple(part[offset + a * n + b] for part in combo) for b in range(n))
                for a in range(n)
            )

        out.append(table(0) if flavor == "cycle-type" else (table(0), table(n * n)))
    return out
