"""Structure validation, the brace dictionary, and file round trips.

Every axiom check is exercised with a table that breaks exactly that
axiom, so the reported violation names stay honest.
"""

import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcscohom.corpus import (
    builtin_structure,
    enumerate_braces,
    enumerate_lcs,
    standard_corpus,
    trivial_lcs,
)
from lcscohom.abelian import FiniteAbelianGroup
from lcscohom.errors import MalformedTableError, StructureValidationError
from lcscohom.structures import (
    Brace,
    LinearCycleSet,
    _dump_json,
    brace_to_lcs,
    lcs_to_brace,
    load_structure,
    require_valid_lcs,
    save_structure,
    structure_from_dict,
    structure_to_dict,
    validate_brace,
    validate_lcs,
)


def axioms_broken(structure):
    if isinstance(structure, Brace):
        report = validate_brace(structure)
    else:
        report = validate_lcs(structure)
    return {v.axiom for v in report.violations}


def test_builtins_are_valid():
    for name in ("trivial(2)", "trivial(4)", "z4-lcs", "z4-brace"):
        s = builtin_structure(name)
        assert not axioms_broken(s), name


def test_standard_corpus_contents():
    corpus = standard_corpus()
    assert len(corpus) == 5
    orders = sorted(s.order for _, s in corpus)
    assert orders == [1, 2, 3, 4, 4]
    for name, s in corpus:
        assert not axioms_broken(s), name
    assert len({name for name, _ in corpus}) == 5


def test_addition_axiom_witnesses():
    bad_comm = LinearCycleSet(2, [[0, 1], [0, 1]], [[0, 1], [0, 1]])
    assert "add-commutativity" in axioms_broken(bad_comm)
    bad_inv = LinearCycleSet(2, [[0, 1], [1, 1]], [[0, 1], [0, 1]])
    assert axioms_broken(bad_inv) & {"add-inverses", "add-associativity"}


def test_translation_axiom_witnesses():
    z2 = trivial_lcs(FiniteAbelianGroup((2,)))
    # dot = add breaks the compatibility of sums with translations
    s = LinearCycleSet(2, z2.add, [list(row) for row in z2.add])
    broken = axioms_broken(s)
    assert "sum-translation-compatibility" in broken
    t = LinearCycleSet(2, z2.add, [[0, 0], [0, 1]])
    assert "translation-bijectivity" in axioms_broken(t)


def test_zero_row_witnesses():
    # every left translation is the shift b -> b + 2
    add4 = builtin_structure("trivial(4)").add
    shift = [[(b + 2) % 4 for b in range(4)] for _ in range(4)]
    broken = axioms_broken(LinearCycleSet(4, add4, shift))
    assert "zero-translation-identity" in broken
    assert "zero-absorption" in broken


def test_brace_axiom_witnesses():
    good = Brace(2, [[0, 1], [1, 0]], [[0, 1], [1, 0]])
    assert not axioms_broken(good)
    # circle has neutral 1 while addition has neutral 0
    bad = Brace(2, [[0, 1], [1, 0]], [[1, 0], [0, 1]])
    assert "shared-neutral" in axioms_broken(bad)


def test_violation_fields():
    z2 = trivial_lcs(FiniteAbelianGroup((2,)))
    s = LinearCycleSet(2, z2.add, [list(row) for row in z2.add])
    report = validate_lcs(s)
    assert not report.valid
    v = report.violations[0]
    d = v.to_dict()
    assert set(d) == {"axiom", "witness"}
    assert isinstance(d["witness"], list)
    rd = report.to_dict()
    assert rd["kind"] == "lcs"
    assert rd["order"] == 2
    assert rd["valid"] is False


def test_require_valid_raises_with_report():
    s = LinearCycleSet(2, [[0, 1], [1, 0]], [[0, 1], [1, 0]])
    with pytest.raises(StructureValidationError) as exc:
        require_valid_lcs(s)
    assert exc.value.report.violations


def test_dictionary_z4_exact():
    lcs = builtin_structure("z4-lcs")
    brace = builtin_structure("z4-brace")
    image = brace_to_lcs(brace)
    assert image.add == lcs.add
    assert image.dot == lcs.dot
    back = lcs_to_brace(lcs)
    assert back.add == brace.add
    assert back.circle == brace.circle


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dictionary_roundtrip_small_orders(n):
    cycle_sets = enumerate_lcs(n)
    braces = enumerate_braces(n)
    assert len(cycle_sets) == len(braces)
    for s in cycle_sets:
        b = lcs_to_brace(s)
        assert not axioms_broken(b)
        assert brace_to_lcs(b) == s
    for b in braces:
        s = brace_to_lcs(b)
        assert not axioms_broken(s)
        assert lcs_to_brace(s) == b


def test_enumeration_counts():
    assert len(enumerate_lcs(1)) == 1
    assert len(enumerate_lcs(2)) == 1
    assert len(enumerate_lcs(3)) == 1
    assert len(enumerate_lcs(4)) == 10
    assert len(enumerate_braces(4)) == 10


def test_orders_up_to_three_have_trivial_dot():
    for n in (1, 2, 3):
        for s in enumerate_lcs(n):
            assert s.dot == tuple(tuple(range(n)) for _ in range(n))


def test_serialization_roundtrip(tmp_path):
    for name in ("z4-lcs", "z4-brace"):
        s = builtin_structure(name)
        path = tmp_path / f"{name}.json"
        save_structure(s, path)
        text = json.dumps(structure_to_dict(s), sort_keys=True, indent=2) + "\n"
        assert path.read_text(encoding="utf-8") == text
        loaded = load_structure(path)
        assert type(loaded) is type(s)
        assert structure_to_dict(loaded) == structure_to_dict(s)


class _Level(enum.IntEnum):
    LOW = 1


# plain ints, strs, lists, tuples and str-keyed dicts are joined by the
# writer; bools, None, floats, an int subclass and int-keyed dicts go to json
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | st.just(_Level.LOW),
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(st.text(), inner)
    | st.dictionaries(st.integers(), inner),
    max_leaves=20,
)


@given(JSON_VALUES)
@settings(max_examples=100, deadline=None)
def test_json_writer_matches_indented_json(value):
    assert _dump_json(value) == json.dumps(value, sort_keys=True, indent=2)


def test_loader_reindexes_neutral_to_front():
    # additive neutral sits at position 1 in the file
    data = {
        "kind": "lcs",
        "order": 2,
        "add": [[1, 0], [0, 1]],
        "dot": [[0, 1], [0, 1]],
    }
    s = structure_from_dict(data)
    assert s.zero == 0
    assert not axioms_broken(s)
    raw = structure_from_dict(data, normalize=False)
    assert raw.zero == 1


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("kind"),
        lambda d: d.pop("add"),
        lambda d: d.update(extra=1),
        lambda d: d.update(kind="ring"),
        lambda d: d.update(order="4"),
        lambda d: d["add"].pop(),
        lambda d: d["add"][0].append(0),
        lambda d: d["add"][0].__setitem__(0, 9),
        lambda d: d["add"][0].__setitem__(0, -1),
        lambda d: d.update(circle=d["dot"]),
    ],
)
def test_malformed_structure_dicts(mutate):
    data = {
        "kind": "lcs",
        "order": 2,
        "add": [[0, 1], [1, 0]],
        "dot": [[0, 1], [0, 1]],
    }
    mutate(data)
    with pytest.raises(MalformedTableError):
        structure_from_dict(data)


class Index(int):
    """An int subclass: accepted as a table entry like a plain int."""


@pytest.mark.parametrize(
    "bad, shown",
    [(True, "True"), (False, "False"), (-1, "-1"), (2, "2"), (1.0, "1.0"), (0.0, "0.0")],
)
def test_table_entries_must_be_int_indices(bad, shown):
    # The bad entry follows a good one in row 1, so the message must name
    # the entry the row walk stops at.
    good = [[0, 1], [0, 1]]
    with pytest.raises(MalformedTableError) as lcs_err:
        LinearCycleSet(2, [[1, 0], [0, bad]], good)
    assert str(lcs_err.value) == f"add table entry {shown} at row 1 is not an index in 0..1"
    with pytest.raises(MalformedTableError) as brace_err:
        Brace(2, [[0, 1], [1, 0]], [[0, 1], [1, bad]])
    assert str(brace_err.value) == (
        f"circle table entry {shown} at row 1 is not an index in 0..1"
    )


def test_table_entries_may_subclass_int():
    s = LinearCycleSet(2, [[Index(0), 1], [1, Index(0)]], [[0, Index(1)], [0, 1]])
    assert s == LinearCycleSet(2, [[0, 1], [1, 0]], [[0, 1], [0, 1]])
    assert s.zero == 0 and not axioms_broken(s)


def test_brace_dict_needs_circle_not_dot():
    data = {
        "kind": "brace",
        "order": 2,
        "add": [[0, 1], [1, 0]],
        "dot": [[0, 1], [0, 1]],
    }
    with pytest.raises(MalformedTableError):
        structure_from_dict(data)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(MalformedTableError):
        load_structure(path)


def test_save_over_larger_file_leaves_only_new_json(tmp_path):
    path = tmp_path / "s.json"
    save_structure(builtin_structure("trivial(6)"), path)
    big = path.stat().st_size
    small = builtin_structure("z4-lcs")
    save_structure(small, path)
    fresh = tmp_path / "fresh.json"
    save_structure(small, fresh)
    assert path.read_bytes() == fresh.read_bytes()
    assert path.stat().st_size < big
    assert structure_to_dict(load_structure(path)) == structure_to_dict(small)


def test_save_is_deterministic(tmp_path):
    s = builtin_structure("z4-lcs")
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_structure(s, p1)
    save_structure(s, p2)
    assert p1.read_bytes() == p2.read_bytes()
    json.loads(p1.read_text())
