"""Reduced cochains as value tables on every tuple, and their coboundary
evaluated tuple by tuple.

The library solves for cochains on generators of (A, +) and never lists
their values on every tuple, so this table form, its file reader and the
per-tuple coboundary formula live here, as an independent oracle of the
face maps: `reduced_coboundary` reads the defining formula of the
coboundary directly, not a compiled face list.
"""

from dataclasses import dataclass

from lcscohom.abelian import FiniteAbelianGroup
from lcscohom.budget import check_power
from lcscohom.errors import LinearityError, MalformedTableError, ShapeError
from lcscohom.reduced import _check_degree, _file_coeffs, _file_values, all_tuples, tuple_index
from lcscohom.structures import LinearCycleSet


@dataclass
class Cochain:
    """A degree-k cochain: one coefficient-group element per k-tuple.

    Values are stored flat in lexicographic tuple order.  The class does
    not itself require linearity; membership tests are explicit so that
    raw value tables can be inspected and reported on.
    """

    base: LinearCycleSet
    coeffs: FiniteAbelianGroup
    degree: int
    values: tuple

    def __post_init__(self):
        _check_degree(self.degree)
        expected = self.base.order**self.degree
        if len(self.values) != expected:
            raise ShapeError(
                f"degree-{self.degree} cochain needs {expected} values, got {len(self.values)}"
            )
        width = len(self.coeffs.factors)
        for v in self.values:
            if len(v) != width:
                raise ShapeError(
                    f"cochain value {v!r} does not match the {width}-factor coefficient group"
                )
        self.values = tuple(self.coeffs.reduce(v) for v in self.values)

    @classmethod
    def zero(cls, base, coeffs, degree):
        return cls(base, coeffs, degree, (coeffs.zero,) * base.order**degree)

    @classmethod
    def from_callable(cls, base, coeffs, degree, fn):
        values = tuple(fn(*t) for t in all_tuples(base.order, degree))
        return cls(base, coeffs, degree, values)

    def value(self, t):
        return self.values[tuple_index(t, self.base.order)]

    def __call__(self, *args):
        return self.value(args)

    def linearity_violation(self):
        """A witness (prefix, a, b) where last-coordinate linearity fails."""
        n = self.base.order
        add = self.base.add
        g = self.coeffs
        for prefix in all_tuples(n, self.degree - 1):
            base = tuple_index(prefix, n) * n
            vals = self.values
            for a in range(n):
                for b in range(n):
                    lhs = vals[base + add[a][b]]
                    rhs = g.add(vals[base + a], vals[base + b])
                    if lhs != rhs:
                        return (prefix, a, b)
        return None

    def degenerate_violation(self):
        """A degenerate tuple on which the cochain is nonzero, if any."""
        n = self.base.order
        zero = self.coeffs.zero
        for i, t in enumerate(all_tuples(n, self.degree)):
            if self.base.zero in t and self.values[i] != zero:
                return t
        return None

    def is_linear_in_last(self) -> bool:
        return self.linearity_violation() is None

    def is_normalized(self) -> bool:
        return self.is_linear_in_last() and self.degenerate_violation() is None

    def __add__(self, other):
        self._match(other)
        g = self.coeffs
        return Cochain(
            self.base,
            g,
            self.degree,
            tuple(g.add(a, b) for a, b in zip(self.values, other.values)),
        )

    def __sub__(self, other):
        self._match(other)
        g = self.coeffs
        return Cochain(
            self.base,
            g,
            self.degree,
            tuple(g.sub(a, b) for a, b in zip(self.values, other.values)),
        )

    def __neg__(self):
        g = self.coeffs
        return Cochain(self.base, g, self.degree, tuple(g.neg(a) for a in self.values))

    def _match(self, other):
        if (
            not isinstance(other, Cochain)
            or other.base != self.base
            or other.coeffs != self.coeffs
            or other.degree != self.degree
        ):
            raise ShapeError("cochains live on different complexes")

    def to_dict(self) -> dict:
        single = len(self.coeffs.factors) == 1
        values = [v[0] if single else list(v) for v in self.values]
        return {"degree": self.degree, "coeff": str(self.coeffs), "values": values}


def cochain_from_dict(
    data, base: LinearCycleSet, coeffs: FiniteAbelianGroup = None
) -> Cochain:
    """Parse a cochain file dict against a structure.

    The coefficient group comes from the optional "coeff" key or from the
    caller; when both are given they must agree.
    """
    coeffs = _file_coeffs(data, coeffs, "cochain")
    degree = data.get("degree")
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise MalformedTableError(f"cochain degree must be an integer >= 1, got {degree!r}")
    raw = data.get("values")
    expected = base.order**degree
    if not isinstance(raw, list) or len(raw) != expected:
        raise MalformedTableError(f"cochain of degree {degree} needs exactly {expected} values")
    return Cochain(base, coeffs, degree, _file_values(raw, coeffs, "cochain"))


def reduced_coboundary(f: Cochain, check: bool = True) -> Cochain:
    """The degree-(k+1) coboundary of a degree-k cochain, evaluated directly.

    With check=True the input must be linear in its last coordinate (the
    membership condition of the reduced complex); a violation raises
    LinearityError with a witness.
    """
    if check:
        witness = f.linearity_violation()
        if witness is not None:
            raise LinearityError(
                f"cochain is not linear in its last coordinate at {witness}"
            )
    base, g, k = f.base, f.coeffs, f.degree
    n = base.order
    check_power(n, k + 1, f"the degree-{k + 1} tuple basis")
    add, dot = base.add, base.dot

    def value(t):
        head = dot[t[0]]
        acc = f.value(tuple(head[x] for x in t[1:]))
        sign = 1
        for i in range(1, k):
            sign = -sign
            merged = t[: i - 1] + (add[t[i - 1]][t[i]],) + t[i + 1 :]
            acc = g.add(acc, g.scale(sign, f.value(merged)))
        sign = -sign
        acc = g.add(acc, g.scale(sign, f.value(t[: k - 1] + (t[k],))))
        return acc

    values = tuple(value(t) for t in all_tuples(n, k + 1))
    return Cochain(base, g, k + 1, values)
