"""Reduced cohomology over F_p on dense matrices: a second writer of the
resolved systems, sharing only the resolution with the library.

Reduced H^k(A; F_p) is H^(k-1)(G; M) for the brace group G = (A, o) and
M = Hom(A, F_p), on which G acts by (g . phi)(a) = phi(g . a) (the
`reduced` docstring).  Here M is found as the solutions phi of the
additivity equations phi(a + b) = phi(a) + phi(b) on all of A, not from
a presentation of (A, +).  Its echelon basis phi_1, ..., phi_m has pivot
elements a_1, ..., a_m with phi_k(a_k') = 1 when k = k' and 0 otherwise,
so psi in M has the coordinates psi(a_k), and g acts by the matrix
rho(g)[k][k'] = phi_k'(g . a_k).  A G-map P_i -> M is its values on the
r_i generators e_l, so Hom_G(P_i, M) = M^(r_i), and the coboundary
(delta phi)(e_l) = phi(d e_l) is the sum, over the terms c h e_l' of
d(e_l), of c rho(h) applied to phi(e_l'): a dense matrix over F_p, whose
rank is counted by elimination here.  Then dim H^i(G; M) = m r_i - rank
delta_(i+1) - rank delta_i.
"""

from lcscohom.resolution import _resolution
from lcscohom.structures import lcs_to_brace


def echelon(rows, p: int) -> list:
    """The nonzero rows of a reduced echelon form over F_p of dense rows,
    as (pivot position, row) pairs with 1 at the pivot and 0 at every
    other row's pivot."""
    basis = []
    for row in rows:
        v = [x % p for x in row]
        for lead, b in basis:
            if v[lead]:
                c = v[lead]
                v = [(x - c * y) % p for x, y in zip(v, b)]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            continue
        inverse = pow(v[lead], -1, p)
        v = [x * inverse % p for x in v]
        for k, (other, b) in enumerate(basis):
            if b[lead]:
                c = b[lead]
                basis[k] = (other, [(x - c * y) % p for x, y in zip(b, v)])
        basis.append((lead, v))
    return basis


def rank(rows, p: int) -> int:
    return len(echelon(rows, p))


def additive_maps(add, p: int) -> list:
    """A basis of Hom(A, F_p), as value lists on A, with its pivot
    elements: the null space of the additivity equations on all pairs."""
    n = len(add)
    equations = []
    for a in range(n):
        for b in range(n):
            row = [0] * n
            row[add[a][b]] += 1
            row[a] -= 1
            row[b] -= 1
            equations.append(row)
    reduced = echelon(equations, p)
    pivots = [lead for lead, _row in reduced]
    free = [x for x in range(n) if x not in pivots]
    basis = []
    for f in free:  # the solution with 1 at f and 0 at the other free elements
        phi = [0] * n
        phi[f] = 1
        for lead, row in reduced:
            phi[lead] = -row[f] % p
        basis.append(phi)
    return [(lead, phi) for lead, phi in echelon(basis, p)]


def action_matrices(dot, maps, p: int) -> list:
    """rho(g) for every g: rho(g)[k][k'] = phi_k'(g . a_k)."""
    return [[[phi[row[a]] % p for _lead, phi in maps] for a, _phi in maps] for row in dot]


def coboundary(images, rho, below: int, m: int, p: int) -> list:
    """The dense matrix of Hom_G(d, M), d given by its images d(e_l), one
    row per coordinate (l, k) of M^(r_i), over the coordinates (l', k')
    of M^(r_(i-1))."""
    n = len(rho)
    rows = [[0] * (below * m) for _ in range(len(images) * m)]
    for l, image in enumerate(images):
        for x, c in image.items():
            source, h = divmod(x, n)
            for k in range(m):
                row = rows[l * m + k]
                for k2, entry in enumerate(rho[h][k]):
                    row[source * m + k2] = (row[source * m + k2] + c * entry) % p
    return rows


def reduced_ranks(structure, p: int, top: int, dot=None) -> list:
    """dim over F_p of reduced H^1, ..., H^top of the structure, G acting
    on M through `dot` (the structure's own by default)."""
    mul = lcs_to_brace(structure).circle
    maps = additive_maps(structure.add, p)
    m = len(maps)
    rho = action_matrices(structure.dot if dot is None else dot, maps, p)
    resolution = _resolution(mul, p, top)
    ranks = [1] + [len(images) for images in resolution]
    # deltas[i] = rank delta_i, delta_0 = 0: delta_(i+1) reads d_(i+1)
    deltas = [0] + [
        rank(coboundary(images, rho, ranks[i], m, p), p) for i, images in enumerate(resolution)
    ]
    return [m * ranks[i] - deltas[i + 1] - deltas[i] for i in range(top)]
