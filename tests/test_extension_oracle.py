"""Equivalence and classification against the brute-force oracle.

`cocycles_cohomologous` must return the oracle's verdict and the exact
theta the lexicographic search finds first, on pairs that are and are
not cohomologous; `classify_extensions` must return the oracle's class
list, representatives and order included.  The sweep covers every linear
cycle set of orders 1 to 4 over cyclic and non-cyclic coefficient groups,
including Z/6, which the linear algebra treats as one ring, not by parts.
"""

import itertools

import pytest

from extension_oracle import class_cocycles, search_theta
from lcscohom.abelian import parse_group_spec
from lcscohom.corpus import enumerate_lcs
from lcscohom.extensions import (
    FullTwoCocycle,
    ReducedTwoCocycle,
    classify_extensions,
    cocycles_cohomologous,
)

STRUCTURES = [s for n in (1, 2, 3, 4) for s in enumerate_lcs(n)]
COEFFS = ("Z/2", "Z/3", "Z/4", "Z/6", "Z/2+Z/2", "Z/2+Z/4")
# classify_extensions builds and validates every class's total structure;
# the few bases with more classes than this take seconds each.
MAX_CLASSES = 64
# Class representatives per base whose pairs are compared.
PAIRS = 2


def _shift(gamma, base, f, g, theta):
    """(f, g) plus the coboundary of theta; g is None for the reduced flavor."""
    n = base.order
    sub = gamma.sub
    f = tuple(
        tuple(gamma.add(f[a][b], sub(theta[base.dot[a][b]], theta[b])) for b in range(n))
        for a in range(n)
    )
    if g is None:
        return f, None
    g = tuple(
        tuple(
            gamma.add(g[a][b], sub(sub(theta[base.add[a][b]], theta[a]), theta[b]))
            for b in range(n)
        )
        for a in range(n)
    )
    return f, g


def _thetas(gamma, base, additive: bool):
    """Nonzero 1-cochains, additive ones only if asked."""
    n = base.order
    out = []
    for theta in itertools.product(gamma.elements(), repeat=n):
        if any(any(x) for x in theta) and (
            not additive
            or all(
                theta[base.add[a][b]] == gamma.add(theta[a], theta[b])
                for a in range(n)
                for b in range(n)
            )
        ):
            out.append(theta)
    return out


@pytest.mark.parametrize("coeff", COEFFS)
@pytest.mark.parametrize("flavor", ["cycle-type", "general"])
def test_classes_match_oracle(coeff, flavor):
    gamma = parse_group_spec(coeff)
    compared = 0
    for s in STRUCTURES:
        expected = class_cocycles(s, gamma, flavor)
        if len(expected) > MAX_CLASSES:
            continue
        got = [
            c.cocycle.f if flavor == "cycle-type" else (c.cocycle.f, c.cocycle.g)
            for c in classify_extensions(s, gamma, flavor)
        ]
        assert got == expected, s
        compared += len(expected) > 1
    assert compared


@pytest.mark.parametrize("coeff", COEFFS)
@pytest.mark.parametrize("flavor", ["reduced", "full"])
def test_cohomologous_matches_oracle(coeff, flavor):
    gamma = parse_group_spec(coeff)
    verdicts = set()
    for s in STRUCTURES:
        if flavor == "reduced":
            reps = [(f, None) for f in class_cocycles(s, gamma, "cycle-type")[: PAIRS + 1]]
            shifts = _thetas(gamma, s, additive=True)[:PAIRS]
        else:
            reps = class_cocycles(s, gamma, "general")[: PAIRS + 1]
            everything = _thetas(gamma, s, additive=False)
            # one normalized shift and one that moves theta(0)
            shifts = [t for t in everything if t[s.zero] == gamma.zero][:1] + [
                t for t in everything if t[s.zero] != gamma.zero
            ][:1]

        def cocycle(f, g):
            if g is None:
                return ReducedTwoCocycle(s, gamma, f)
            return FullTwoCocycle(s, gamma, f, g)

        pairs = []
        for i, (f, g) in enumerate(reps[:PAIRS]):
            c1 = cocycle(f, g)
            pairs += [(c1, cocycle(*_shift(gamma, s, f, g, t))) for t in shifts]
            if i + 1 < len(reps):
                pairs.append((c1, cocycle(*reps[i + 1])))
        for c1, c2 in pairs:
            for normalized in (False, True) if flavor == "full" else (False,):
                got = cocycles_cohomologous(c1, c2, normalized=normalized)
                assert got == search_theta(c1, c2, normalized=normalized), (s, normalized)
                verdicts.add(got[0])
    assert verdicts == {True, False}
