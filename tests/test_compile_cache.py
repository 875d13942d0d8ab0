"""Each structure is compiled, and each system written, once per process.

The presented writer's index tables (`reduced._tables`), the shuffle
quotients' presentations (`bicomplex._harrison`), the validity verdict
behind `require_valid_lcs` and the written systems of both theories
(`reduced._written_reduced`, `reduced._written_resolved`,
`bicomplex._written_full`) are cached on what they depend on: the
structure's tables and the degree; for the full theory, normalization
and the modulus; and for the resolved reduced system, the prime power
q.  A structure loaded again from a file hits the caches, and no map,
shuffle sum, validation or system write runs a second time.  The key is the
whole structure: two structures that share `add` but not `dot` never
read each other's tables.  An invalid structure is validated, and
refused, on every call, and the budgets are checked on every call, before
any cache.  Only what is written is kept: every call still eliminates.
Cached values are shared by every caller, so they are read-only.  The
written systems are kept up to a bound on the sparse entries they hold
together (`reduced._KEPT_ENTRIES`), least recently used out first.
"""

import json
import operator

import pytest
from compile_caches import clear_compile_caches
from ext8 import EXT8

import lcscohom.bicomplex
import lcscohom.linalg
import lcscohom.reduced
import lcscohom.structures
from lcscohom.abelian import parse_group_spec
from lcscohom.bicomplex import _full_system, _harrison, full_cohomology
from lcscohom.corpus import builtin_structure
from lcscohom.errors import BudgetError, StructureValidationError
from lcscohom.extensions import classify_extensions
from lcscohom.reduced import (
    _reduced_system,
    _tables,
    _written_resolved,
    reduced_cohomology,
    reduced_homology,
)
from lcscohom.structures import (
    LinearCycleSet,
    structure_from_dict,
    structure_to_dict,
)

Z2 = parse_group_spec("Z/2")
Z4 = parse_group_spec("Z/4")
Z4LCS = builtin_structure("z4-lcs")
TRIVIAL4 = builtin_structure("trivial(4)")
ROUTES = {
    "reduced H^3": lambda s: reduced_cohomology(s, Z2, 3),
    "reduced H_3": lambda s: reduced_homology(s, Z2, 3),
    "full H^2": lambda s: full_cohomology(s, Z2, 2),
}


def reloaded(structure):
    """The structure as a file holds it, parsed again."""
    return structure_from_dict(json.loads(json.dumps(structure_to_dict(structure))))


def refuse(*_args, **_kwargs):
    raise AssertionError("compiled or validated again")


def test_an_equal_structure_reuses_every_compile(monkeypatch):
    first = {name: route(Z4LCS) for name, route in ROUTES.items()}
    fresh = reloaded(Z4LCS)
    assert fresh == Z4LCS and fresh is not Z4LCS
    monkeypatch.setattr(lcscohom.reduced, "_index_map", refuse)
    monkeypatch.setattr(lcscohom.bicomplex, "_shuffle_sums", refuse)
    monkeypatch.setattr(lcscohom.structures, "validate_lcs", refuse)
    assert {name: route(fresh) for name, route in ROUTES.items()} == first


def test_the_key_is_the_whole_structure():
    # z4-lcs and trivial(4) share (Z/4, +) but not the dot tables
    assert Z4LCS.add == TRIVIAL4.add and Z4LCS.dot != TRIVIAL4.dot
    cold = {}
    for s in (Z4LCS, TRIVIAL4):
        for name, route in ROUTES.items():
            clear_compile_caches()
            cold[s.dot, name] = route(s)
    assert any(cold[Z4LCS.dot, name] != cold[TRIVIAL4.dot, name] for name in ROUTES)
    clear_compile_caches()
    for _ in range(2):
        for name, route in ROUTES.items():
            for s in (Z4LCS, TRIVIAL4):
                assert route(reloaded(s)) == cold[s.dot, name], name


def test_an_invalid_structure_is_refused_every_time(monkeypatch):
    broken = LinearCycleSet(2, [[0, 1], [1, 0]], [[0, 1], [1, 0]])
    validated = []
    real = lcscohom.structures.validate_lcs

    def counted(structure):
        validated.append(structure)
        return real(structure)

    monkeypatch.setattr(lcscohom.structures, "validate_lcs", counted)
    refusals = []
    for _ in range(2):
        with pytest.raises(StructureValidationError) as exc:
            reduced_cohomology(LinearCycleSet(2, broken.add, broken.dot), Z2, 2)
        refusals.append((str(exc.value), exc.value.report.to_dict()))
    assert len(validated) == 2
    assert refusals[0] == refusals[1]
    assert refusals[0][1]["violations"]


def test_cached_values_are_read_only():
    tables = _tables(Z4LCS)
    _sign, image = tables("dh", 2)[0]
    gens, relations, forms, layers = _harrison(4, 4, 4)
    assert relations, "K_4 over Z/4 has relations"
    targets = (
        image,
        tables("dv", 2),
        tables("act", 2)[0],
        tables("zero", 2),
        relations[0],
        gens,
        forms[0],
        layers[0][0],
    )
    for target in targets:
        with pytest.raises(TypeError):
            operator.setitem(target, 0, 1)


def classes(structure, gamma, flavor):
    return [entry.to_dict() for entry in classify_extensions(structure, gamma, flavor)]


# calls that share written systems: the reduced degree-3 system of z4-lcs
# over three coefficient groups and for homology, its reduced degree-2
# system for cycle-type classification, and its full degree-2 system over
# Z/2, which the test calls twice
SHARED = {
    "reduced H^3 Z/2": lambda: reduced_cohomology(Z4LCS, Z2, 3),
    "reduced H^3 Z/8": lambda: reduced_cohomology(Z4LCS, parse_group_spec("Z/8"), 3),
    "reduced H^3 Z/2+Z/2": lambda: reduced_cohomology(Z4LCS, parse_group_spec("Z/2+Z/2"), 3),
    "reduced H_3 Z/4": lambda: reduced_homology(Z4LCS, Z4, 3),
    "cycle-type classes Z/2": lambda: classes(Z4LCS, Z2, "cycle-type"),
    "full H^2 Z/2": lambda: full_cohomology(Z4LCS, Z2, 2),
}


def test_one_write_serves_every_coefficient_group(monkeypatch):
    cold = {}
    for name, call in SHARED.items():
        clear_compile_caches()
        cold[name] = call()
    clear_compile_caches()
    # the plain reduced groups are kept per prime power q: Z/2 serves
    # Z/2+Z/2, and cohomology serves homology
    for spec in ("Z/2", "Z/8", "Z/4"):
        reduced_cohomology(Z4LCS, parse_group_spec(spec), 3)
    _reduced_system(Z4LCS, 2)(2)
    full_cohomology(Z4LCS, Z2, 2)
    monkeypatch.setattr(lcscohom.reduced, "_write_boundary", refuse)
    monkeypatch.setattr(lcscohom.reduced, "_resolution", refuse)
    for _ in range(2):
        assert {name: call() for name, call in SHARED.items()} == cold


def test_the_full_key_holds_the_modulus(monkeypatch):
    clear_compile_caches()
    full_cohomology(Z4LCS, Z2, 2)
    monkeypatch.setattr(lcscohom.reduced, "_write_boundary", refuse)
    full_cohomology(Z4LCS, Z2, 2)
    with pytest.raises(AssertionError, match="compiled or validated again"):
        full_cohomology(Z4LCS, Z4, 2)


def test_answers_are_not_cached(monkeypatch):
    eliminations = []
    real = lcscohom.linalg._eliminate

    def counted(*args, **kwargs):
        eliminations.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(lcscohom.linalg, "_eliminate", counted)
    clear_compile_caches()
    for call in (SHARED["reduced H^3 Z/8"], SHARED["reduced H_3 Z/4"]):
        cold = call()
        cold_eliminations = eliminations[:]
        eliminations.clear()
        # a cold call also builds the resolution; the warm one only reduces
        assert call() == cold
        assert eliminations and cold_eliminations[-len(eliminations) :] == eliminations
        assert len(cold_eliminations) > len(eliminations)
        eliminations.clear()


def test_budgets_are_checked_before_the_cache(monkeypatch):
    monkeypatch.setenv("LCSCOHOM_BUDGET", "70000")
    try:
        # 8**5 = 32,768 tuples in degree 5: over the default budget
        cached = reduced_cohomology(EXT8, Z2, 4)
        assert _reduced_system(EXT8, 4)(2) is _reduced_system(EXT8, 4)(4)
        monkeypatch.delenv("LCSCOHOM_BUDGET")
        for call in (reduced_cohomology, reduced_homology):
            with pytest.raises(BudgetError):
                call(EXT8, Z2, 4)
        monkeypatch.setenv("LCSCOHOM_BUDGET", "70000")
        monkeypatch.setattr(lcscohom.reduced, "_write_boundary", refuse)
        assert reduced_cohomology(EXT8, Z2, 4) == cached
    finally:
        clear_compile_caches()  # the degree-4 system of ext8 is large


def test_written_systems_are_read_only():
    written = (
        _reduced_system(Z4LCS, 3)(2),
        _written_resolved(Z4LCS, 3, 4),
        _full_system(Z4LCS, 2, normalized=True)(2),
    )
    assert all(written[2][0][3:]), "normalized systems have dead coordinates"
    for system, *_readers in written:
        cocycles, constraints, coboundaries, dead, dead_below = system
        for rows in (cocycles, constraints, coboundaries):
            with pytest.raises(TypeError):
                operator.setitem(rows, 0, {})
        for row in (next(filter(None, cocycles)), next(filter(None, coboundaries))):
            with pytest.raises(TypeError):
                operator.setitem(row, next(iter(row)), 1)
        for held in (dead, dead_below):
            with pytest.raises(AttributeError):
                held.add(-1)


def test_kept_systems_are_bounded_by_their_entries(monkeypatch):
    writes = []
    real = lcscohom.reduced._presented_system

    def counted(structure, k, *args):
        writes.append(k)
        return real(structure, k, *args)

    def kept():
        return [key[2] for key in lcscohom.reduced._kept_systems]

    clear_compile_caches()
    unbounded = [_reduced_system(Z4LCS, k)(2)[0] for k in (1, 2, 3)]
    entries = {key[2]: held for key, (_value, held) in lcscohom.reduced._kept_systems.items()}
    clear_compile_caches()
    monkeypatch.setattr(lcscohom.reduced, "_presented_system", counted)
    monkeypatch.setattr(lcscohom.reduced, "_KEPT_ENTRIES", entries[2] + entries[3])
    for k in (2, 3, 2):
        _reduced_system(Z4LCS, k)(2)
    assert writes == [2, 3] and kept() == [3, 2]
    # degree 1 pushes the bound: the least recently used, degree 3, leaves
    assert _reduced_system(Z4LCS, 1)(2)[0] == unbounded[0]
    assert kept() == [2, 1]
    assert _reduced_system(Z4LCS, 3)(2)[0] == unbounded[2]
    assert writes == [2, 3, 1, 3] and kept() == [1, 3]
    # a system larger than the bound is returned, not kept
    monkeypatch.setattr(lcscohom.reduced, "_KEPT_ENTRIES", entries[3] - 1)
    lcscohom.reduced._written_reduced.cache_clear()
    writes.clear()
    for _ in range(2):
        assert _reduced_system(Z4LCS, 3)(2)[0] == unbounded[2]
    assert writes == [3, 3] and kept() == []
    clear_compile_caches()


def test_each_cache_clear_drops_its_own_systems(monkeypatch):
    clear_compile_caches()
    _reduced_system(Z4LCS, 2)(2)
    _full_system(Z4LCS, 1)(2)
    lcscohom.bicomplex._written_full.cache_clear()
    assert [key[0] for key in lcscohom.reduced._kept_systems] == [
        lcscohom.reduced._written_reduced.__wrapped__
    ]
    monkeypatch.setattr(lcscohom.reduced, "_write_boundary", refuse)
    _reduced_system(Z4LCS, 2)(2)
    with pytest.raises(AssertionError, match="compiled or validated again"):
        _full_system(Z4LCS, 1)(2)
    clear_compile_caches()
    assert not lcscohom.reduced._kept_systems
