"""Each structure is compiled once per process.

The presented writer's index tables (`reduced._tables`), the shuffle
quotients' presentations (`bicomplex._harrison`) and the validity verdict
behind `require_valid_lcs` are cached on what they depend on: the
structure's tables, or (order, degree, modulus).  A structure loaded
again from a file hits the caches, and no map, shuffle sum or validation
runs a second time.  The key is the whole structure: two structures that
share `add` but not `dot` never read each other's tables.  An invalid
structure is validated, and refused, on every call.  Cached values are
shared by every caller, so they are read-only.
"""

import json
import operator

import pytest

import lcscohom.bicomplex
import lcscohom.reduced
import lcscohom.structures
from lcscohom.abelian import parse_group_spec
from lcscohom.bicomplex import _harrison, full_cohomology
from lcscohom.corpus import builtin_structure
from lcscohom.errors import StructureValidationError
from lcscohom.reduced import _tables, reduced_cohomology, reduced_homology
from lcscohom.structures import (
    LinearCycleSet,
    structure_from_dict,
    structure_to_dict,
)

Z2 = parse_group_spec("Z/2")
Z4LCS = builtin_structure("z4-lcs")
TRIVIAL4 = builtin_structure("trivial(4)")
ROUTES = {
    "reduced H^3": lambda s: reduced_cohomology(s, Z2, 3),
    "reduced H_3": lambda s: reduced_homology(s, Z2, 3),
    "full H^2": lambda s: full_cohomology(s, Z2, 2),
}


def clear_caches():
    _tables.cache_clear()
    _harrison.cache_clear()
    lcscohom.structures._refuse_invalid_lcs.cache_clear()


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
            clear_caches()
            cold[s.dot, name] = route(s)
    assert any(cold[Z4LCS.dot, name] != cold[TRIVIAL4.dot, name] for name in ROUTES)
    clear_caches()
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
