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

Extraction, additive sections and the equivalence witness are read here
by `fiber_solve`, a scan of the coefficient group for each table entry,
as the library read them before it built one fiber table per section.
They share the solvers of the library, not its fiber tables, cocycle
columns or row checks.
"""

import functools
import itertools

from dense_views import (
    kernel_mod_m,
    linearity_rows,
    reduced_boundary_matrix,
    shuffle_rows,
    total_chain_matrix,
)
from lattice_oracle import IntegerMatrix, hstack
from lcscohom.bicomplex import _vertical_faces
from lcscohom.errors import LinearityError, MorphismError, ParameterError, SectionError
from lcscohom.extensions import (
    FullTwoCocycle,
    ReducedTwoCocycle,
    _as_lcs_triple,
    _least_theta,
    cocycles_cohomologous,
    normalized_section,
)
from lcscohom.linalg import _least_solver
from lcscohom.reduced import _face_rows, degenerate_indices
from lcscohom.structures import Brace


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
    (verdict, theta-or-None).  Candidates are tuples of element indices,
    which run in the lexicographic order of the elements, and gamma's
    addition and subtraction are read off index tables made once per call.
    """
    base = c1.base
    gamma = c1.coeffs
    n = base.order
    add, dot = base.add, base.dot
    reduced = isinstance(c1, ReducedTwoCocycle)
    elements = gamma.elements()
    index = gamma.index
    plus = [[index(gamma.add(x, y)) for y in elements] for x in elements]
    minus = [[index(gamma.sub(x, y)) for y in elements] for x in elements]
    df = [[index(gamma.sub(c2.f[a][b], c1.f[a][b])) for b in range(n)] for a in range(n)]
    if not reduced:
        dg = [[index(gamma.sub(c2.g[a][b], c1.g[a][b])) for b in range(n)] for a in range(n)]
    zero = index(gamma.zero)
    pairs = list(itertools.product(range(n), repeat=2))
    for theta in itertools.product(range(len(elements)), repeat=n):
        if reduced:
            if any(theta[add[a][b]] != plus[theta[a]][theta[b]] for a, b in pairs):
                continue
        elif normalized and theta[base.zero] != zero:
            continue
        if any(df[a][b] != minus[theta[dot[a][b]]][theta[b]] for a, b in pairs):
            continue
        if not reduced and any(
            dg[a][b] != minus[minus[theta[add[a][b]]][theta[a]]][theta[b]]
            for a, b in pairs
        ):
            continue
        return True, tuple(map(elements.__getitem__, theta))
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
    """The lexicographically least element of every coset, sorted.

    Each coset z + B is built once, from the first listed cocycle in it;
    the cocycles it holds are skipped after that.
    """
    seen, reps = set(), []
    for z in cocycles:
        if z in seen:
            continue
        coset = [tuple((x + y) % m for x, y in zip(z, b)) for b in coboundaries]
        seen.update(coset)
        reps.append(min(coset))
    return sorted(reps)


@functools.lru_cache(maxsize=None)
def class_cocycles(base, gamma, flavor: str):
    """The cocycle tables of the classes, in classification order: f for
    "cycle-type", (f, g) for "general".  The listing is exponential, so
    it is made once per (base, gamma, flavor) and kept as a tuple."""
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
    return tuple(out)


def fiber_solve(triple, target: int, base_point: int) -> int:
    """The first coefficient index c with iota(c) + base_point = target."""
    add = triple.total.add
    for c in range(triple.gamma.order):
        if add[triple.iota[c]][base_point] == target:
            return c
    raise MorphismError(
        "difference does not lie in the kernel fiber; "
        "the triple is not a central extension"
    )


def extract_cocycle(triple, flavor: str, section=None):
    """`extensions.extract_cocycle`, one fiber scan per table entry."""
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
            s_ab = section[base.dot[a][b]]
            frow.append(gamma.element(fiber_solve(triple, total.dot[section[a]][section[b]], s_ab)))
            if flavor == "full":
                s_ab = section[base.add[a][b]]
                target = total.add[section[a]][section[b]]
                grow.append(gamma.element(fiber_solve(triple, target, s_ab)))
        f.append(tuple(frow))
        g.append(tuple(grow))
    if flavor == "reduced":
        return ReducedTwoCocycle(base, gamma, tuple(f))
    return FullTwoCocycle(base, gamma, tuple(f), tuple(g))


@functools.lru_cache(maxsize=None)
def additive_solver(base, m: int):
    """The `_least_solver` over Z/m of the rows of dv(0, 2), made once
    per (base, m) for the session."""
    n = base.order
    return _least_solver(_face_rows(n, 2, [_vertical_faces(base, 0, 2)], n), m)


def additive_section(triple):
    """`extensions.additive_section`, one fiber scan per entry of g0."""
    total = triple.total
    if isinstance(total, Brace):
        raise ParameterError("additive sections are decided on cycle-set triples")
    base = triple.base
    gamma = triple.gamma
    n = base.order
    s0 = normalized_section(triple)
    g0 = [
        gamma.element(fiber_solve(triple, total.add[s0[a]][s0[b]], s0[base.add[a][b]]))
        for a in range(n)
        for b in range(n)
    ]
    solver = functools.partial(additive_solver, base)
    tau = _least_theta(solver, list(zip(*g0)), gamma)
    if tau is None:
        return None
    section = tuple(total.add[s0[a]][triple.iota[gamma.index(tau[a])]] for a in range(n))
    for a in range(n):
        if triple.pi[section[a]] != a:
            return None
        for b in range(n):
            if total.add[section[a]][section[b]] != section[base.add[a][b]]:
                return None
    return section


def extensions_equivalent(t1, t2):
    """`extensions.extensions_equivalent`, with the witness read by fiber
    scans and checked pair by pair."""
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
    ne = t1.total.order
    phi = [0] * ne
    for x in range(ne):
        a = t1.pi[x]
        delta = gamma.element(fiber_solve(t1, x, s1[a]))
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
