"""Full cohomology over every tuple with the shuffle sums as explicit
columns, as an oracle for the Harrison coordinates of the library.

Cochains here are value tables over all n^(i+j) tuples of every bidegree
block (i, j), cut down to the ones that vanish on shuffles by writing
the shuffle sums beside the boundary faces, in both degrees; normalized
cochains drop the tuples holding the neutral element afterwards.  This is
how the library computed the full theory before it solved for values on
generators of the shuffle quotients.  It shares the face maps and the
elimination with the library, but not the presentations.
"""

from lcscohom.bicomplex import _shuffle_faces, _into, _total_faces, total_blocks
from lcscohom.budget import check_power
from lcscohom.reduced import _cohomology, _face_rows, degenerate_indices


def full_system(structure, degree, normalized=False):
    """The degree-n system of the total complex over every tuple, as
    `_tagged` reads it."""
    n = structure.order
    check_power(n, degree + 1, f"the total degree-{degree + 1} basis", factor=3, times=degree + 1)

    def shuffles(d):
        blocks = [(b, _shuffle_faces(*b, r)) for b in total_blocks(d) for r in range(1, b[1])]
        return [[(s, _into(b, f)) for s, f in faces] for b, faces in blocks]

    def degenerate(d):
        # the same tuples in each of the d blocks of total degree d
        tuples = degenerate_indices(structure, d)
        return {b * n**d + x for b in range(d) for x in tuples}

    size = degree * n**degree  # degree blocks of n**degree coordinates
    total = _total_faces(structure, degree + 1)
    cocycles = _face_rows(n, degree + 1, total, size)
    width = len(total) * n ** (degree + 1)
    for row, more in zip(cocycles, _face_rows(n, degree, shuffles(degree), size, width)):
        row.update(more)
    constraints = coboundaries = dead = dead_below = ()
    if degree >= 2:
        below = (degree - 1) * n ** (degree - 1)
        constraints = _face_rows(n, degree - 1, shuffles(degree - 1), below)
        coboundaries = _face_rows(n, degree, _total_faces(structure, degree), below)
    if normalized:
        dead = degenerate(degree)
        dead_below = degenerate(degree - 1) if degree >= 2 else ()
    return cocycles, constraints, coboundaries, dead, dead_below


def full_cohomology(structure, coeffs, degree, normalized=False):
    """Invariant factors of the degree-n full cohomology, every tuple."""
    return _cohomology(coeffs, *full_system(structure, degree, normalized))
