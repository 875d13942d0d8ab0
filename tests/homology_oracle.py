"""Homology read off a cohomology system by columns, as an oracle for the
duality that gives the library's reduced homology.

The library reads reduced homology as the cohomology of the resolved
system, since over Z/q the two have the same invariant factors.  Here
the homology is computed from the chains themselves: read by columns,
the rows of a system are the boundaries of the generators above and
the relations, as chains.  This is how the library computed homology
before it read it as cohomology.  It shares the elimination with the
library, but not the duality.  The normalized tuple systems, which the
library no longer reads for any group, are written here
(`tuple_system`).
"""

from lcscohom.linalg import _subquotient_mod
from lcscohom.reduced import _presentation, _presented_system, _tables


def columns(rows, width: int = 0) -> list:
    """The columns of sparse rows as sparse {row: entry} vectors: `width`
    of them, or more if a row holds an entry further on."""
    width = max(width, 1 + max(map(max, filter(None, rows)), default=-1))
    out = [{} for _ in range(width)]
    for y, row in enumerate(rows):
        for x, c in row.items():
            out[x][y] = c
    return out


def homology(system, m: int):
    """Invariant factors over Z/m of the homology of a system, as
    `reduced._tagged` lays it out, read by columns.

    The dead generators are zero.  The homology is (preimage of the
    relations under the boundary) / (boundary image + relations), both
    taken mod m.  In degree 1 there is no boundary below: every chain is
    a cycle.
    """
    cocycles, constraints, coboundaries, dead, dead_below = system
    # cycles are the x whose boundary lies in the relations and the dead
    # generators below; their rows carry x as a tag, the others nothing
    size = len(cocycles)
    rows = columns(coboundaries, size) + columns(constraints)
    rows += [{y: 1} for y in sorted(dead_below)]
    tags = [{x: 1} for x in range(size)] + [{}] * (len(rows) - size)
    # boundaries of the generators above, relations and dead generators
    bound = columns(cocycles) + [{y: 1} for y in sorted(dead)]
    return _subquotient_mod(rows, tags, [{}] * len(bound), bound, m)


def tuple_system(structure, k: int, normalized: bool):
    """The degree-k reduced tuple system, plain or normalized, as the one
    presented writer writes it, written afresh: (system, read, targets)."""
    pres = {1: _presentation(structure.add)}
    return _presented_system(structure, k, pres, normalized, _tables(structure))
