"""Finite abelian coefficient groups.

A coefficient group is a direct sum of cyclic groups Z/m with m >= 2,
written in the text grammar ``Z/m1+Z/m2+...``.  Elements are tuples of
residues, one per factor, ordered lexicographically.  The complexes are
integer face lists that do not depend on the coefficients, so a direct
sum is processed one cyclic factor Z/m at a time, and the invariant
lists of the factors are merged back into a single divisibility chain.

>>> g = parse_group_spec(" Z/4 + Z/2 ")
>>> g.order
8
>>> merge_invariants([2, 4], [2])
[2, 2, 4]
"""

import itertools
import re
from math import gcd

from .errors import UnsupportedCoefficientsError

_FACTOR_RE = re.compile(r"^Z/(\d+)$")


class FiniteAbelianGroup:
    """Direct sum of Z/m factors; elements are residue tuples."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = tuple(int(m) for m in factors)
        for m in factors:
            if m < 2:
                raise UnsupportedCoefficientsError(
                    f"cyclic factor Z/{m} is not supported (need m >= 2)"
                )
        self.factors = factors

    @property
    def order(self) -> int:
        n = 1
        for m in self.factors:
            n *= m
        return n

    @property
    def zero(self):
        return (0,) * len(self.factors)

    def elements(self):
        """All elements in lexicographic order."""
        return [tuple(t) for t in itertools.product(*(range(m) for m in self.factors))]

    def element(self, index: int):
        """Element at a lexicographic index."""
        out = []
        for m in reversed(self.factors):
            index, r = divmod(index, m)
            out.append(r)
        if index:
            raise IndexError("element index out of range")
        return tuple(reversed(out))

    def index(self, elem) -> int:
        idx = 0
        for m, x in zip(self.factors, elem):
            idx = idx * m + x % m
        return idx

    def is_element(self, elem) -> bool:
        return (
            isinstance(elem, tuple)
            and len(elem) == len(self.factors)
            and all(isinstance(x, int) and 0 <= x < m for x, m in zip(elem, self.factors))
        )

    def reduce(self, elem):
        return tuple(x % m for x, m in zip(elem, self.factors))

    def add(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self.factors))

    def sub(self, a, b):
        return tuple((x - y) % m for x, y, m in zip(a, b, self.factors))

    def neg(self, a):
        return tuple(-x % m for x, m in zip(a, self.factors))

    def scale(self, k: int, a):
        return tuple(k * x % m for x, m in zip(a, self.factors))

    def __eq__(self, other):
        return isinstance(other, FiniteAbelianGroup) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __str__(self):
        if not self.factors:
            return "0"
        return "+".join(f"Z/{m}" for m in self.factors)

    def __repr__(self):
        return f"FiniteAbelianGroup({self.factors})"


def parse_group_spec(text: str) -> FiniteAbelianGroup:
    """Parse ``Z/m1+Z/m2+...`` (whitespace-insensitive) into a group.

    The infinite group ``Z`` and factors with m < 2 are rejected.
    """
    if not isinstance(text, str):
        raise UnsupportedCoefficientsError(f"group spec must be a string, got {text!r}")
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise UnsupportedCoefficientsError("empty coefficient group spec")
    factors = []
    for part in compact.split("+"):
        if part == "Z":
            raise UnsupportedCoefficientsError(
                "infinite coefficients Z are not supported; use a finite Z/m"
            )
        match = _FACTOR_RE.match(part)
        if not match:
            raise UnsupportedCoefficientsError(f"malformed coefficient factor {part!r}")
        try:
            m = int(match.group(1))
        except ValueError:  # more digits than int() converts
            raise UnsupportedCoefficientsError(
                f"cyclic factor modulus has {len(match.group(1))} digits, too many"
            ) from None
        if m < 2:
            raise UnsupportedCoefficientsError(f"cyclic factor Z/{m} is not supported")
        factors.append(m)
    return FiniteAbelianGroup(factors)


def merge_invariants(*factor_lists):
    """Fold several invariant-factor lists into one divisibility chain.

    Any list of cyclic orders works as input; the output is the ascending
    chain d1 | d2 | ... with trivial factors dropped.
    """
    facs = [int(f) for lst in factor_lists for f in lst if f > 1]
    changed = True
    while changed:
        changed = False
        facs.sort()
        for i in range(len(facs)):
            for j in range(i + 1, len(facs)):
                if facs[j] % facs[i]:
                    g = gcd(facs[i], facs[j])
                    facs[i], facs[j] = g, facs[i] * facs[j] // g
                    changed = True
        facs = [f for f in facs if f > 1]
    facs.sort()
    return facs


def render_invariants(invariants) -> str:
    """Human-readable name of the group with the given invariant factors."""
    if not invariants:
        return "0"
    return "+".join(f"Z/{d}" for d in invariants)
