"""Reduced (co)homology over the full tuple basis with explicit linearity
relations, as an oracle for the presentation coordinates of the library.

Cochains here are value tables over every k-tuple, cut down to the
last-linear ones by the linearity block (prefix, a + b) - (prefix, a) -
(prefix, b) written beside the boundary faces; chains are the free
module on k-tuples modulo the same relations.  This is how the library
computed both groups before it solved for values on generators of
(A, +), and how it decided membership modulo linearity: in the integer
span of the linearity rows (`linearity_span`).  It shares the face maps
and the elimination with the library, but not the presentation.
"""

from functools import partial

from lcscohom.budget import check_power
from lcscohom.linalg import _IntegerSpan, _subquotient_mod
from lcscohom.reduced import (
    _apply,
    _cohomology,
    _drop,
    _face_rows,
    _horizontal_faces,
    _index_maps,
    _merge,
    _over_factors,
    degenerate_indices,
)


def linearity_faces(structure, k):
    """(prefix, a, b) -> (prefix, a + b) - (prefix, a) - (prefix, b)."""
    return [(1, _merge(structure.add, k)), (-1, _drop(k)), (-1, _drop(k - 1))]


def linearity_span(structure, k):
    """The integer span of the linearity relations among k-tuples, keyed
    by tuple index."""
    n = structure.order
    maps = _index_maps(linearity_faces(structure, k), n, k + 1)
    return _IntegerSpan(_apply(maps, {x: 1}) for x in range(n ** (k + 1)))


def reduced_cohomology(structure, coeffs, k, normalized=False):
    """Kernel of the degree-k coboundary on the last-linear value tables
    (zero on tuples holding 0 when normalized), modulo the coboundaries
    from degree k - 1."""
    n = structure.order
    check_power(n, k + 1, f"the degree-{k + 1} tuple basis")
    faces = [linearity_faces(structure, k), _horizontal_faces(structure, k)]
    cocycles = _face_rows(n, k + 1, faces, n**k)
    constraints = coboundaries = dead = dead_below = ()
    if k >= 2:
        below = n ** (k - 1)
        constraints = _face_rows(n, k, [linearity_faces(structure, k - 1)], below)
        coboundaries = _face_rows(n, k, [_horizontal_faces(structure, k - 1)], below)
    if normalized:
        dead = set(degenerate_indices(structure, k))
        dead_below = set(degenerate_indices(structure, k - 1)) if k >= 2 else ()
    return _cohomology(coeffs, cocycles, constraints, coboundaries, dead, dead_below)


def reduced_homology(structure, coeffs, k, normalized=False):
    """(Preimage of the relations under the boundary) / (boundary image +
    relations) on the free module over k-tuples, over each factor Z/m."""
    n = structure.order
    check_power(n, k + 1, f"the degree-{k + 1} tuple basis")

    def chains(d):
        # the boundaries of the d-tuples, then the relations of degree d - 1,
        # as the columns of their face rows
        faces = [_horizontal_faces(structure, d - 1), linearity_faces(structure, d - 1)]
        vectors = [{} for _ in range(2 * n**d)]
        for r, row in enumerate(_face_rows(n, d, faces, n ** (d - 1))):
            for c, x in row.items():
                vectors[c][r] = x
        if normalized:
            vectors += [{i: 1} for i in degenerate_indices(structure, d - 1)]
        return vectors

    rows = chains(k) if k >= 2 else [{}] * n**k
    tags = [{x: 1} for x in range(n**k)] + [{}] * (len(rows) - n**k)
    bound = chains(k + 1)
    return _over_factors(coeffs, partial(_subquotient_mod, rows, tags, [{}] * len(bound), bound))
