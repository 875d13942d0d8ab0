"""Budgets compare sizes before building them, with unchanged messages."""

import time

import pytest
from compile_caches import clear_compile_caches

import lcscohom.reduced
from lcscohom.abelian import parse_group_spec
from lcscohom.bicomplex import bicomplex_identity_check, full_cohomology
from lcscohom.budget import check_basis, check_power
from lcscohom.corpus import builtin_structure
from lcscohom.errors import BudgetError
from lcscohom.reduced import reduced_cohomology


def message(check, *args, **kwargs):
    with pytest.raises(BudgetError) as exc:
        check(*args, **kwargs)
    return str(exc.value)


@pytest.mark.parametrize("base, exponent, times", [(4, 8, 1), (4, 7142, 1), (3, 100, 7), (2, 40, 3)])
def test_power_messages_match_the_built_size(base, exponent, times):
    size = times * base**exponent
    assert message(check_power, base, exponent, "it", 3, times) == message(check_basis, size, "it", 3)


def test_power_within_the_budget_passes():
    check_power(4, 7, "it")  # 16384 <= 20000
    check_power(1, 141, "it")  # 141**2 = 19881 face coordinates
    check_power(1, 39, "it", factor=3, times=39)  # 39**3 = 59319 <= 60000
    check_power(2, 14, "it", factor=3, times=3)  # 49152 <= 60000


@pytest.mark.parametrize("exponent", [7143, 10**11, 10**30])
def test_power_past_printing_is_reported_unbuilt(exponent):
    start = time.perf_counter()
    text = message(check_power, 4, exponent, "it", times=5)
    assert time.perf_counter() - start < 0.1
    assert text.startswith(f"it needs 5 * 4**{exponent} basis elements, over the budget of 20000")


@pytest.mark.parametrize("exponent, times", [(245, 1), (10**11, 1), (40, 40), (10**4000, 3)])
def test_order_one_bounds_the_degree(exponent, times):
    # one tuple, but about k faces of k coordinates each
    start = time.perf_counter()
    text = message(check_power, 1, exponent, "it", 3, times)
    assert time.perf_counter() - start < 0.1
    size = f"{exponent}**2" if times == 1 else f"{times} * {exponent}**2"
    assert text == (
        f"it on one element needs {size} face coordinates, over the budget of 60000"
        " (set LCSCOHOM_BUDGET to raise it)"
    )


def test_trivial_orders_up_to_the_degree_one_basis():
    assert builtin_structure("trivial(141)").order == 141
    with pytest.raises(BudgetError, match="trivial\\(142\\) tables needs 40328"):
        builtin_structure("trivial(142)")


Z4LCS = builtin_structure("z4-lcs")
Z2 = parse_group_spec("Z/2")


@pytest.mark.parametrize(
    "run, over, under",
    [
        # 4**8 tuples, over 20000; 4**7 within it
        (lambda d: reduced_cohomology(Z4LCS, Z2, d), 7, 6),
        # 7 blocks of 4**7 tuples, over 3 * 20000; 6 blocks of 4**6 within it
        (lambda d: full_cohomology(Z4LCS, Z2, d), 6, 5),
        # 4**8 tuples at the top degree, over 20000; 4**7 within it
        (lambda d: bicomplex_identity_check(Z4LCS, d), 8, 7),
    ],
    ids=["reduced_cohomology", "full_cohomology", "bicomplex_identity_check"],
)
def test_budgets_refuse_before_any_index_map(monkeypatch, run, over, under):
    def refuse(*_args):
        raise AssertionError("an index map was built")

    monkeypatch.delenv("LCSCOHOM_BUDGET", raising=False)
    # the tables, presentations and systems are cached per process: start
    # cold, so that one degree below a map must be compiled again; the
    # plain reduced groups compile no map, but build a resolution instead
    clear_compile_caches()
    monkeypatch.setattr(lcscohom.reduced, "_index_map", refuse)
    monkeypatch.setattr(lcscohom.reduced, "_resolution", refuse)
    with pytest.raises(BudgetError):
        run(over)
    # one degree below, every check passes and the first map is compiled
    with pytest.raises(AssertionError, match="an index map was built"):
        run(under)
