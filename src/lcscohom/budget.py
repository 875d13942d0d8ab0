"""Basis-size budgets for the matrix pipelines.

Chain groups over a structure of order n have free rank n**k in degree k.
To keep runs predictable, every routine that materializes such a basis
checks it against a budget first.  The default allows n**k up to 20000
basis elements; the environment variable LCSCOHOM_BUDGET overrides it.
"""

import os

from .errors import BudgetError

DEFAULT_BASIS_BUDGET = 20000

_ENV_VAR = "LCSCOHOM_BUDGET"


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
        raise BudgetError(
            f"{what} needs {size} basis elements, over the budget of {limit}"
            f" (set {_ENV_VAR} to raise it)"
        )

