"""The order-8 cycle set ext8, and ext8 relabeled, as frozen tables.

ext8 is the second cycle-type class total of z4-lcs over Z/2:
`test_extensions.py::test_frozen_ext8_is_a_class_total` checks that
`classify_extensions` still builds exactly these tables.  They are
frozen here, not built at import, so that a fault in classification
fails that test and the oracles that compare against it, rather than
making every module that uses ext8 error at collection.
"""

from lcscohom.structures import LinearCycleSet


def relabeled(s, perm):
    """The cycle set s with element a renamed perm[a]."""
    n, back = s.order, sorted(range(s.order), key=perm.__getitem__)

    def table(t):
        return [[perm[t[back[a]][back[b]]] for b in range(n)] for a in range(n)]

    return LinearCycleSet(n, table(s.add), table(s.dot))


EXT8 = LinearCycleSet(
    8,
    [
        [0, 1, 2, 3, 4, 5, 6, 7],
        [1, 2, 3, 0, 5, 6, 7, 4],
        [2, 3, 0, 1, 6, 7, 4, 5],
        [3, 0, 1, 2, 7, 4, 5, 6],
        [4, 5, 6, 7, 0, 1, 2, 3],
        [5, 6, 7, 4, 1, 2, 3, 0],
        [6, 7, 4, 5, 2, 3, 0, 1],
        [7, 4, 5, 6, 3, 0, 1, 2],
    ],
    [
        [0, 1, 2, 3, 4, 5, 6, 7],
        [0, 3, 2, 1, 4, 7, 6, 5],
        [0, 5, 2, 7, 4, 1, 6, 3],
        [0, 7, 2, 5, 4, 3, 6, 1],
        [0, 1, 2, 3, 4, 5, 6, 7],
        [0, 3, 2, 1, 4, 7, 6, 5],
        [0, 5, 2, 7, 4, 1, 6, 3],
        [0, 7, 2, 5, 4, 3, 6, 1],
    ],
)
# ext8 with 1 and 5 swapped presents (A, +) with a power relation
# 2 s_1 = 2 s_0 (see test_presentation).
EXT8_RELABELED = relabeled(EXT8, [0, 5, 2, 3, 4, 1, 6, 7])
