"""Dense-matrix front end to the one sparse subquotient routine, for tests.

It keeps the (d_out, d_in, generators, m) signature of the lattice
oracle, so that the two can be compared case by case.
"""

from lcscohom.linalg import _subquotient_mod


def subquotient_invariants(d_out, d_in, generators, m):
    """(ker d_out intersected with <generators>) / im d_in over Z/m.

    Each generator is a kernel row carrying its image under d_out, and the
    columns of d_in enter as empty rows tagged with themselves.
    """
    gens = [generators.column(c) for c in range(generators.cols)]
    k_rows = [dict(enumerate(d_out.apply(g))) for g in gens]
    k_tags = [dict(enumerate(g)) for g in gens]
    b_tags = [dict(enumerate(d_in.column(c))) for c in range(d_in.cols)]
    return _subquotient_mod(k_rows, k_tags, [{}] * len(b_tags), b_tags, m)
