"""Basis-size budgets for the matrix pipelines.

Chain groups over a structure of order n have free rank n**k in degree k.
To keep runs predictable, every routine that materializes such a basis
checks it against a budget first.  The default allows n**k up to 20000
basis elements; the environment variable LCSCOHOM_BUDGET overrides it.

Sizes are compared before they are built: `check_power` takes n and k
rather than n**k, so a degree in the billions is refused without
computing a power of billions of digits.  On order 1 the basis n**k is
always 1, yet a degree-k job still writes about k faces of k coordinates
each, so there `check_power` compares k**2 instead and bounds the degree.
"""

import math
import os

from .errors import BudgetError

DEFAULT_BASIS_BUDGET = 20000

_ENV_VAR = "LCSCOHOM_BUDGET"

# 2**14284 < 10**4300, CPython's default limit on printing an int; a size
# past both this and the budget is never built, and is reported as a power.
_PRINTABLE_BITS = 14284


def basis_budget() -> int:
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_BASIS_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise BudgetError(f"{_ENV_VAR} must be an integer, got {raw!r}")
    if value < 1:
        raise BudgetError(f"{_ENV_VAR} must be positive, got {value}")
    return value


def check_basis(size: int, what: str, factor: int = 1) -> None:
    """Raise BudgetError if a basis of `size` elements exceeds the budget.

    `factor` widens the allowance (the total complex sums several blocks,
    so it runs with factor 3).
    """
    limit = factor * basis_budget()
    if size > limit:
        raise _over(what, size, limit)


def check_power(base: int, exponent: int, what: str, factor: int = 1, times: int = 1) -> None:
    """`check_basis(times * base**exponent, what, factor)`, comparing first.

    The power is built only when it fits the budget or prints in full, so
    the message is the same as check_basis gives wherever that one prints.
    `times` must be at least 1.  On base 1, `times * exponent**2` is
    compared instead, the face coordinates of a degree-`exponent` job.
    """
    limit = factor * basis_budget()
    if base == 1 and times * exponent**2 > limit:
        # one tuple, but each of its about k faces writes k coordinates
        size = f"{exponent}**2" if times == 1 else f"{times} * {exponent}**2"
        raise _over(f"{what} on one element", size, limit, "face coordinates")
    bits = math.log2(times) + (exponent * math.log2(base) if base > 1 else 0)
    if bits > max(_PRINTABLE_BITS, limit.bit_length() + 1):
        power = f"{base}**{exponent}" if times == 1 else f"{times} * {base}**{exponent}"
        raise _over(what, power, limit)
    check_basis(times * base**exponent, what, factor)


def _over(what, size, limit, unit="basis elements") -> BudgetError:
    return BudgetError(
        f"{what} needs {size} {unit}, over the budget of {limit}"
        f" (set {_ENV_VAR} to raise it)"
    )
