"""Cocycle validation, extension building, extraction, and classification.

Wherever a construction has a criterion, the criterion is checked both
ways by enumeration; extraction is checked against the exact inputs the
extension was built from; equivalence verdicts come with verified
witnesses.
"""

import itertools
import json
import random

import pytest
import table_oracle
from ext8 import EXT8

import lcscohom.bicomplex
import lcscohom.extensions
import lcscohom.reduced
from lcscohom.abelian import FiniteAbelianGroup, parse_group_spec
from lcscohom.bicomplex import full_cohomology
from lcscohom.corpus import builtin_structure, trivial_lcs
from lcscohom.errors import (
    BudgetError,
    CocycleError,
    LinearityError,
    MalformedTableError,
    MorphismError,
    ParameterError,
    SectionError,
    ShapeError,
)
from lcscohom.extensions import (
    ExtensionTriple,
    FullTwoCocycle,
    ReducedTwoCocycle,
    _as_table,
    _cocycle_plan,
    _from_columns,
    additive_section,
    build_brace_extension,
    build_extension_full,
    build_extension_reduced,
    classify_extensions,
    cocycles_cohomologous,
    extension_from_dict,
    extension_to_dict,
    extensions_equivalent,
    extract_cocycle,
    force_extension_full,
    force_extension_reduced,
    is_full_2cocycle,
    is_reduced_2cocycle,
    normalized_section,
    reconstruct_triple,
    translate_to_brace_pair,
    translate_to_lcs_pair,
    two_cocycle_from_dict,
    two_cocycle_to_dict,
    validate_extension_triple,
)
from lcscohom.reduced import reduced_cohomology
from lcscohom.structures import Brace, LinearCycleSet, brace_to_lcs, validate_lcs

Z2 = FiniteAbelianGroup((2,))
Z4 = FiniteAbelianGroup((4,))
T2 = builtin_structure("trivial(2)")
T3 = builtin_structure("trivial(3)")
Z4LCS = builtin_structure("z4-lcs")
Z4BRACE = builtin_structure("z4-brace")

PHIS = [(0, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 1, 0, 1)]


def phi_table(phi):
    return tuple(tuple((b % 2) * phi[a] % 2 for b in range(4)) for a in range(4))


def parity_table():
    return tuple(tuple((a % 2) * (b % 2) for b in range(4)) for a in range(4))


# ---------------------------------------------------------------------------
# Validators


def test_phi_family_is_valid_and_normalized():
    for phi in PHIS:
        report = is_reduced_2cocycle(Z4LCS, Z2, phi_table(phi))
        assert report.valid
        assert report.normalized
        d = report.to_dict()
        assert d["flavor"] == "reduced"
        assert d["violations"] == []


def test_constant_table_fails_linearity():
    ones = [[1] * 4 for _ in range(4)]
    report = is_reduced_2cocycle(Z4LCS, Z2, ones)
    assert not report.valid
    assert "second-argument-additivity" in {v.axiom for v in report.violations}


def test_translation_condition_fails():
    # linear in the second slot but not compatible with translations
    f = [[(a * b) % 2 for b in range(2)] for a in range(2)]
    s = trivial_lcs(FiniteAbelianGroup((2,)))
    assert is_reduced_2cocycle(s, Z2, f).valid
    twisted = [[((a + 1) * b) % 2 for b in range(2)] for a in range(2)]
    assert not is_reduced_2cocycle(s, Z2, twisted).valid


def test_full_validator_names():
    f = [[0] * 2 for _ in range(2)]
    g = [[0, 1], [0, 0]]
    report = is_full_2cocycle(T2, Z2, f, g)
    assert "addition-symmetry" in {v.axiom for v in report.violations}


def test_full_validator_mixed_condition():
    # g must be carried along by the translations when f vanishes
    f = [[0] * 4 for _ in range(4)]
    g = [[(a // 2) * (b // 2) for b in range(4)] for a in range(4)]
    report = is_full_2cocycle(Z4LCS, Z2, f, g)
    assert not report.valid
    assert "mixed-compatibility" in {v.axiom for v in report.violations}
    assert is_full_2cocycle(Z4LCS, Z2, f, parity_table()).valid


def test_validator_accepts_int_entries_single_factor_only():
    zz = FiniteAbelianGroup((2, 2))
    f = [[(0, 0)] * 2 for _ in range(2)]
    assert is_reduced_2cocycle(T2, zz, f).valid
    with pytest.raises(ShapeError):
        is_reduced_2cocycle(T2, zz, [[0] * 2 for _ in range(2)])


def _walked_table(coeffs, order, raw, what):
    """The entry-by-entry normalization that `_as_table` falls back to."""
    rows = []
    for row in raw:
        entries = []
        for v in row:
            if isinstance(v, int) and not isinstance(v, bool):
                if len(coeffs.factors) != 1:
                    raise ShapeError(
                        f"{what} entries must be tuples over {coeffs}, got a bare int"
                    )
                v = (v,)
            v = tuple(v)
            if len(v) != len(coeffs.factors):
                raise ShapeError(f"{what} entry {v!r} does not fit {coeffs}")
            entries.append(coeffs.reduce(v))
        rows.append(tuple(entries))
    return tuple(rows)


class Small(int):
    pass


@pytest.mark.parametrize(
    "spec, rows",
    [
        ("Z/4", [[0, 5], [-1, 3]]),  # plain ints, reduced in one pass
        ("Z/4", [(0, 1), (2, 3)]),
        ("Z/4", [[(1,), (6,)], [(3,), (0,)]]),
        ("Z/4", [[(1,), (2,)], [(3,), (0,)]]),  # already reduced elements
        ("Z/4", [[(1,), (4,)], [(3,), (0,)]]),
        ("Z/4", [[Small(7), 1], [2, 3]]),  # an int subclass is walked
        ("Z/4", [[(True,), (0,)], [(1,), (0,)]]),  # so is a bool inside a tuple
        ("Z/4", [[[1], (2,)], [(3,), (0,)]]),
        ("Z/2+Z/2", [[(0, 1), (1, 1)], [(1, 0), (0, 0)]]),
        ("Z/2+Z/2", [[(0, 3), (1, 1)], [(1, -1), (0, 0)]]),
        ("Z/2+Z/2", [[(0, 1), (1, 2)], [(1, 0), (0, 0)]]),
        ("Z/2+Z/2", [[[0, 1], (1, 1)], [(1, 0), (0, 0)]]),
    ],
)
def test_as_table_matches_the_entry_walk(spec, rows):
    gamma = parse_group_spec(spec)
    table = _as_table(gamma, 2, rows, "cocycle")
    expected = _walked_table(gamma, 2, rows, "cocycle")
    assert table == expected
    assert [[type(x) for v in row for x in v] for row in table] == [
        [type(x) for v in row for x in v] for row in expected
    ]


@pytest.mark.parametrize(
    "spec, rows",
    [
        ("Z/2+Z/2", [[0, 1], [1, 0]]),
        ("Z/2+Z/2", [[(0, 1, 0), (1, 1)], [(1, 0), (0, 0)]]),
        ("Z/2+Z/2", [[(0,), (1,)], [(1,), (0,)]]),
        ("Z/4", [[(1, 0), (2,)], [(3,), (0,)]]),
    ],
)
def test_as_table_shape_errors_name_the_entry(spec, rows):
    gamma = parse_group_spec(spec)
    with pytest.raises(ShapeError) as walked:
        _walked_table(gamma, 2, rows, "cocycle")
    with pytest.raises(ShapeError) as exc:
        _as_table(gamma, 2, rows, "cocycle")
    assert str(exc.value) == str(walked.value)


def test_force_extension_matches_a_checked_build():
    f = phi_table(PHIS[1])
    forced = force_extension_reduced(Z2, Z4LCS, f)
    checked = LinearCycleSet(forced.order, forced.add, forced.dot)
    assert (forced.add, forced.dot) == (checked.add, checked.dot)
    assert forced.zero == checked.zero
    assert all(type(row) is tuple for row in forced.add + forced.dot)
    # an unchecked deformation of a broken base may have no neutral element
    broken = LinearCycleSet(2, [[0, 0], [1, 1]], [[0, 1], [0, 1]])
    assert force_extension_reduced(Z2, broken, [[0, 0], [0, 0]]).zero is None


def test_cocycle_dataclasses_validate():
    with pytest.raises(CocycleError) as exc:
        ReducedTwoCocycle(Z4LCS, Z2, [[1] * 4 for _ in range(4)])
    assert exc.value.report.violations
    c = ReducedTwoCocycle(Z4LCS, Z2, phi_table(PHIS[1]))
    assert c.flavor == "reduced"
    assert c.normalized
    full = FullTwoCocycle(Z4LCS, Z2, [[0] * 4] * 4, parity_table())
    assert full.flavor == "full"
    assert full.normalized


def test_reduced_construction_criterion_exhaustive():
    # order-2 base, order-2 kernel: every map, both directions
    s = trivial_lcs(FiniteAbelianGroup((2,)))
    for bits in itertools.product(range(2), repeat=4):
        f = [[bits[0], bits[1]], [bits[2], bits[3]]]
        valid = is_reduced_2cocycle(s, Z2, f).valid
        total = force_extension_reduced(Z2, s, f)
        assert valid == validate_lcs(total).valid, bits


def test_full_construction_criterion_exhaustive():
    s = trivial_lcs(FiniteAbelianGroup((2,)))
    good = 0
    for bits in itertools.product(range(2), repeat=8):
        f = [[bits[0], bits[1]], [bits[2], bits[3]]]
        g = [[bits[4], bits[5]], [bits[6], bits[7]]]
        valid = is_full_2cocycle(s, Z2, f, g).valid
        total = force_extension_full(Z2, s, f, g)
        assert valid == validate_lcs(total).valid, bits
        good += valid
    # 2 bilinear dot deformations times 4 symmetric addition cocycles
    assert good == 8


def test_valid_pairs_vanish_against_zero():
    # consequences of validity at the neutral element
    s = trivial_lcs(FiniteAbelianGroup((2,)))
    for bits in itertools.product(range(2), repeat=8):
        f = [[bits[0], bits[1]], [bits[2], bits[3]]]
        g = [[bits[4], bits[5]], [bits[6], bits[7]]]
        if not is_full_2cocycle(s, Z2, f, g).valid:
            continue
        for x in range(2):
            assert f[0][x] == 0 and f[x][0] == 0
            assert g[0][x] == g[0][0] and g[x][0] == g[0][0]


# Every face that `_cocycle_plan` reads, as (source, block, face, table):
# face `face` of block `block` of the degree-3 total boundary, or of the
# (0, 2) shuffle constraint (block None), landing in the table of f (block
# (1, 1)) or of g (block (0, 2)).  Both flavors read the faces into f; only
# the full flavor reads those into g.
PLAN_FACES = [
    ("_total_faces", b, i, "f" if target == (1, 1) else "g")
    for b, block in enumerate(lcscohom.bicomplex._total_faces(Z4LCS, 3))
    for i, (_sign, (_into, target, _inner)) in enumerate(block)
] + [("_shuffle_faces", None, i, "g") for i in range(2)]


@pytest.mark.parametrize("source,block,face,table", PLAN_FACES)
def test_cocycle_identities_are_read_off_the_total_boundary(
    monkeypatch, source, block, face, table
):
    # Flipping the sign of one face that the plan reads reaches the reports
    # of the flavors that read it, so they part from the triple loops of
    # table_oracle on some class cocycle, and agree again once the face is
    # restored; a flavor that does not read the face agrees throughout.  A
    # flipped sign is invisible mod 2, so the classes are over Z/4; a
    # cycle-type class is a general one with g = 0.
    real = getattr(lcscohom.extensions, source)
    reduced = [c.cocycle.f for c in classify_extensions(Z4LCS, Z4, "cycle-type")]
    zero = [[0] * 4 for _ in range(4)]
    full = [(f, zero) for f in reduced]
    full += [(c.cocycle.f, c.cocycle.g) for c in classify_extensions(Z4LCS, Z4, "general")]

    def flipped(*args):
        faces = real(*args)
        listed = faces if block is None else faces[block]
        sign, f = listed[face]
        listed[face] = (-sign, f)
        return faces

    def agreeing():
        return (
            all(
                is_reduced_2cocycle(Z4LCS, Z4, f).to_dict()
                == table_oracle.is_reduced_2cocycle(Z4LCS, Z4, f).to_dict()
                for f in reduced
            ),
            all(
                is_full_2cocycle(Z4LCS, Z4, f, g).to_dict()
                == table_oracle.is_full_2cocycle(Z4LCS, Z4, f, g).to_dict()
                for f, g in full
            ),
        )

    try:
        monkeypatch.setattr(lcscohom.extensions, source, flipped)
        _cocycle_plan.cache_clear()
        mutated = agreeing()
        monkeypatch.undo()
        _cocycle_plan.cache_clear()
        restored = agreeing()
    finally:
        monkeypatch.undo()
        _cocycle_plan.cache_clear()
    assert mutated == (table == "g", False)
    assert restored == (True, True)


# ---------------------------------------------------------------------------
# Building and extracting


def test_reduced_build_and_extract():
    for phi in PHIS:
        cocycle = ReducedTwoCocycle(Z4LCS, Z2, phi_table(phi))
        triple = build_extension_reduced(Z2, Z4LCS, cocycle)
        assert triple.total.order == 8
        assert validate_lcs(triple.total).valid
        back = extract_cocycle(triple, "reduced")
        assert back.f == cocycle.f
        full_back = extract_cocycle(triple, "full")
        assert full_back.f == cocycle.f
        assert all(v == (0,) for row in full_back.g for v in row)


def test_twisted_addition_build():
    f = [[0, 0], [0, 0]]
    g = [[0, 0], [0, 1]]
    triple = build_extension_full(Z2, T2, f, g)
    total = triple.total
    assert validate_lcs(total).valid
    # the total addition is cyclic of order 4: (0,1) generates
    e = 1
    seen = {e}
    for _ in range(3):
        e = total.add[e][1]
        seen.add(e)
    assert len(seen) == 4
    assert additive_section(triple) is None
    report = validate_extension_triple(triple, "cycle-type")
    names = {c.name: c.ok for c in report.checks}
    assert names["addition-splits"] is False
    assert report.valid is False
    assert validate_extension_triple(triple, "general").valid


def test_non_normalized_build():
    g = [[1, 1], [1, 1]]
    f = [[0, 0], [0, 0]]
    triple = build_extension_full(Z2, T2, f, g)
    assert triple.total.zero == 2
    assert triple.iota == (2, 0)
    assert triple.section[0] == 2
    assert validate_extension_triple(triple).valid
    back = extract_cocycle(triple, "full")
    assert back.g[0][0] == (0,)
    assert back.normalized
    rebuilt = build_extension_full(Z2, T2, back, None)
    ok, witness = extensions_equivalent(triple, rebuilt)
    assert ok and witness is not None


def test_build_refuses_a_cocycle_from_another_setting():
    reduced = ReducedTwoCocycle(Z4LCS, Z2, phi_table(PHIS[1]))
    full = FullTwoCocycle(Z4LCS, Z2, phi_table(PHIS[1]), None)
    for gamma, base in ((Z4, Z4LCS), (Z2, builtin_structure("trivial(4)"))):
        with pytest.raises(ParameterError, match="different structure"):
            build_extension_reduced(gamma, base, reduced)
        with pytest.raises(ParameterError, match="different structure"):
            build_extension_full(gamma, base, full, None)
    # a matching object builds what its tables build; raw tables are validated
    built = build_extension_reduced(Z2, Z4LCS, reduced)
    assert built.total == build_extension_reduced(Z2, Z4LCS, reduced.f).total
    assert build_extension_full(Z2, Z4LCS, full, None).total == built.total
    constant = [[1] * 4 for _ in range(4)]
    with pytest.raises(CocycleError):
        build_extension_reduced(Z2, Z4LCS, constant)
    with pytest.raises(CocycleError):
        build_extension_full(Z2, Z4LCS, constant, None)


def test_extraction_errors():
    cocycle = ReducedTwoCocycle(Z4LCS, Z2, phi_table(PHIS[1]))
    triple = build_extension_reduced(Z2, Z4LCS, cocycle)
    with pytest.raises(ParameterError):
        extract_cocycle(triple, "both")
    with pytest.raises(SectionError):
        extract_cocycle(triple, "reduced", section=(0, 1, 2))
    with pytest.raises(SectionError):
        extract_cocycle(triple, "reduced", section=(1, 1, 2, 3))
    twisted = build_extension_full(Z2, T2, [[0, 0], [0, 0]], [[0, 0], [0, 1]])
    with pytest.raises(LinearityError):
        extract_cocycle(twisted, "reduced")


def _off_fiber(triple, a, b):
    """The triple with s(a).s(b) moved to the next total element, which
    lies over another base element."""
    total, s = triple.total, triple.section
    dot = [list(row) for row in total.dot]
    dot[s[a]][s[b]] = (dot[s[a]][s[b]] + 1) % total.order
    moved = LinearCycleSet(total.order, total.add, dot)
    return ExtensionTriple(moved, triple.gamma, triple.base, triple.iota, triple.pi, s)


def test_extraction_refuses_an_entry_off_its_fiber():
    cocycle = ReducedTwoCocycle(Z4LCS, Z2, phi_table(PHIS[1]))
    good = build_extension_reduced(Z2, Z4LCS, cocycle)
    for a, b in itertools.product(range(4), repeat=2):
        broken = _off_fiber(good, a, b)
        for flavor in ("reduced", "full"):
            with pytest.raises(MorphismError, match="does not lie in the kernel fiber"):
                extract_cocycle(broken, flavor)
        with pytest.raises(MorphismError, match="does not lie in the kernel fiber"):
            extensions_equivalent(broken, good)
    assert extract_cocycle(good, "reduced") == cocycle


def test_extract_rejects_braces():
    triple = build_brace_extension(Z2, Z4BRACE, None, None)
    with pytest.raises(ParameterError):
        extract_cocycle(triple, "full")


def test_additive_section_property():
    cocycle = ReducedTwoCocycle(Z4LCS, Z2, phi_table(PHIS[2]))
    triple = build_extension_reduced(Z2, Z4LCS, cocycle)
    s = additive_section(triple)
    assert s is not None
    for a in range(4):
        assert triple.pi[s[a]] == a
        for b in range(4):
            assert triple.total.add[s[a]][s[b]] == s[Z4LCS.add[a][b]]


def test_normalized_section_prefers_stored():
    cocycle = ReducedTwoCocycle(Z4LCS, Z2, phi_table(PHIS[1]))
    triple = build_extension_reduced(Z2, Z4LCS, cocycle)
    assert normalized_section(triple) == triple.section


def test_validate_triple_tampered():
    cocycle = ReducedTwoCocycle(Z4LCS, Z2, phi_table(PHIS[1]))
    good = build_extension_reduced(Z2, Z4LCS, cocycle)
    assert validate_extension_triple(good).valid

    from lcscohom.extensions import ExtensionTriple

    dup = ExtensionTriple(good.total, Z2, Z4LCS, (0, 0), good.pi, good.section)
    report = validate_extension_triple(dup)
    failing = {c.name for c in report.checks if not c.ok}
    assert "kernel-embedding-injective" in failing

    blind = ExtensionTriple(good.total, Z2, Z4LCS, good.iota, (0,) * 8, None)
    failing = {
        c.name for c in validate_extension_triple(blind).checks if not c.ok
    }
    assert "projection-surjective" in failing

    moved = ExtensionTriple(good.total, Z2, Z4LCS, (0, 1), good.pi, good.section)
    failing = {
        c.name for c in validate_extension_triple(moved).checks if not c.ok
    }
    assert "exactness" in failing

    # The pair checks walk a row only when it fails; their witnesses are
    # the first failing pairs of the plain loops, on every kernel
    # embedding and on random projections.
    total, base, ne = good.total, Z4LCS, good.total.order
    pair_loops = {
        "kernel-trivial-translations": lambda iota, pi: (
            (x, e) for x in range(len(iota)) for e in range(ne) if total.dot[iota[x]][e] != e
        ),
        "kernel-absorbed-by-translations": lambda iota, pi: (
            (e, x)
            for e in range(ne)
            for x in range(len(iota))
            if total.dot[e][iota[x]] != iota[x]
        ),
        "projection-additive": lambda iota, pi: (
            (x, y)
            for x in range(ne)
            for y in range(ne)
            if pi[total.add[x][y]] != base.add[pi[x]][pi[y]]
        ),
        "projection-dot-morphism": lambda iota, pi: (
            (x, y)
            for x in range(ne)
            for y in range(ne)
            if pi[total.dot[x][y]] != base.dot[pi[x]][pi[y]]
        ),
    }
    rng = random.Random(5)
    embeddings = list(itertools.product(range(ne), repeat=2))
    projections = [good.pi] + [tuple(rng.randrange(4) for _ in range(ne)) for _ in range(64)]
    failed = dict.fromkeys(pair_loops, 0)
    for iota, pi in [(i, good.pi) for i in embeddings] + [(good.iota, p) for p in projections]:
        checks = validate_extension_triple(ExtensionTriple(total, Z2, Z4LCS, iota, pi)).checks
        for check in checks:
            if check.name in pair_loops:
                assert check.witness == next(pair_loops[check.name](iota, pi), None), (iota, pi)
                failed[check.name] += not check.ok
    assert all(failed.values()), failed


def test_validate_triple_rejects_bad_flavor():
    cocycle = ReducedTwoCocycle(Z4LCS, Z2, phi_table(PHIS[1]))
    triple = build_extension_reduced(Z2, Z4LCS, cocycle)
    with pytest.raises(ParameterError):
        validate_extension_triple(triple, "plain")


# ---------------------------------------------------------------------------
# Cohomologousness and equivalence


def test_family_pairwise_not_cohomologous():
    cocycles = [ReducedTwoCocycle(Z4LCS, Z2, phi_table(p)) for p in PHIS]
    for i in range(4):
        for j in range(4):
            ok, theta = cocycles_cohomologous(cocycles[i], cocycles[j])
            assert ok == (i == j), (i, j)
            if ok:
                assert theta is not None


def test_shifted_cocycle_is_cohomologous():
    base_f = phi_table(PHIS[1])
    theta = [0, 1, 0, 1]
    shifted = tuple(
        tuple((base_f[a][b] + theta[Z4LCS.dot[a][b]] - theta[b]) % 2 for b in range(4))
        for a in range(4)
    )
    c1 = ReducedTwoCocycle(Z4LCS, Z2, base_f)
    c2 = ReducedTwoCocycle(Z4LCS, Z2, shifted)
    ok, witness = cocycles_cohomologous(c1, c2)
    assert ok
    # the witness satisfies the same difference relation
    for a in range(4):
        for b in range(4):
            diff = (c2.f[a][b][0] - c1.f[a][b][0]) % 2
            assert diff == (witness[Z4LCS.dot[a][b]][0] - witness[b][0]) % 2


def test_cohomologous_rejects_mismatched_inputs():
    c1 = ReducedTwoCocycle(Z4LCS, Z2, phi_table(PHIS[0]))
    c2 = FullTwoCocycle(Z4LCS, Z2, phi_table(PHIS[0]), [[0] * 4] * 4)
    with pytest.raises(ParameterError):
        cocycles_cohomologous(c1, c2)
    c3 = ReducedTwoCocycle(T2, Z2, [[0, 0], [0, 0]])
    with pytest.raises(ParameterError):
        cocycles_cohomologous(c1, c3)


def test_equivalence_self_with_witness():
    cocycle = ReducedTwoCocycle(Z4LCS, Z2, phi_table(PHIS[1]))
    triple = build_extension_reduced(Z2, Z4LCS, cocycle)
    ok, witness = extensions_equivalent(triple, triple)
    assert ok
    assert set(witness) == {"theta", "map"}
    assert sorted(witness["map"]) == list(range(8))


def test_equivalence_refuses_a_wrong_theta(monkeypatch):
    cocycle = ReducedTwoCocycle(Z4LCS, Z2, phi_table(PHIS[1]))
    triple = build_extension_reduced(Z2, Z4LCS, cocycle)
    ok, witness = extensions_equivalent(triple, triple)
    assert ok and witness["theta"] == ((0,),) * 4
    real = lcscohom.extensions._least_theta

    def wrong(solver, rhs, gamma):
        # theta(0) = 0 still, but theta is no longer the least solution
        theta = real(solver, rhs, gamma)
        return theta and (theta[0],) + tuple(gamma.add(t, (1,)) for t in theta[1:])

    monkeypatch.setattr(lcscohom.extensions, "_least_theta", wrong)
    with pytest.raises(MorphismError, match="equivalence witness breaks the (addition|dot)"):
        extensions_equivalent(triple, triple)


def test_equivalence_refuses_a_moved_projection():
    # two elements off the section and the kernel swap base labels: the
    # cocycles agree, and the witness preserves both operations but not pi
    triple = build_extension_reduced(Z2, Z4LCS, ReducedTwoCocycle(Z4LCS, Z2, phi_table(PHIS[1])))
    fixed = set(triple.section) | set(triple.iota)
    x, y = [e for e in range(8) if e not in fixed and triple.pi[e] in (1, 2)]
    pi = list(triple.pi)
    pi[x], pi[y] = pi[y], pi[x]
    swapped = ExtensionTriple(triple.total, Z2, Z4LCS, triple.iota, pi, triple.section)
    with pytest.raises(MorphismError, match="equivalence witness breaks the projection"):
        extensions_equivalent(triple, swapped)


def test_equivalence_refuses_a_witness_that_moves_the_kernel():
    # the base itself as a "total" with both kernel elements at its zero:
    # the witness is an injective morphism into the split extension that
    # keeps the projection, but sends both kernel elements to one point
    split = build_extension_reduced(Z2, Z4LCS, [[0] * 4 for _ in range(4)])
    collapsed = ExtensionTriple(Z4LCS, Z2, Z4LCS, (0, 0), range(4), range(4))
    assert not validate_extension_triple(collapsed).valid
    with pytest.raises(MorphismError, match="equivalence witness moves the kernel"):
        extensions_equivalent(collapsed, split)


def test_equivalence_trusts_only_the_pairs_it_built(monkeypatch):
    # A triple built from a checked cocycle records it, and equivalence
    # reads that cocycle back without checking it again; the same tables
    # given as a plain triple are checked, once per side.
    classes = classify_extensions(Z4LCS, Z4, "general")
    phi = ReducedTwoCocycle(Z4LCS, Z2, phi_table(PHIS[1]))
    built = [
        build_extension_reduced(Z2, Z4LCS, phi),
        build_extension_full(Z4, Z4LCS, classes[1].cocycle.f, classes[1].cocycle.g),
    ]
    calls = _count_reports(monkeypatch)

    def plain(t):
        return ExtensionTriple(t.total, t.gamma, t.base, t.iota, t.pi, t.section)

    t1, t2 = classes[0].triple, classes[1].triple
    verdicts = []
    for p, q in [(t1, t2), (built[0], built[0]), (built[1], t2)]:
        verdicts.append(extensions_equivalent(p, q))
        assert calls == []
        assert extensions_equivalent(plain(p), plain(q)) == verdicts[-1]
        assert calls == ["full"] * 2
        calls.clear()
    assert [v[0] for v in verdicts] == [False, True, True]
    # the reduced flavor trusts a cycle-type record, whose g is zero
    assert extract_cocycle(built[0], "reduced") == phi
    assert calls == []
    assert extract_cocycle(plain(built[0]), "reduced") == phi
    assert calls == ["reduced"]


def _count_reports(monkeypatch) -> list:
    """The flavor of every cocycle report made from here on, in order."""
    calls = []
    real = lcscohom.extensions._cocycle_report

    def counted(structure, coeffs, columns, flavor):
        calls.append(flavor)
        return real(structure, coeffs, columns, flavor)

    monkeypatch.setattr(lcscohom.extensions, "_cocycle_report", counted)
    return calls


def test_equivalence_rejects_mismatched_pairs():
    a = build_extension_reduced(Z2, Z4LCS, ReducedTwoCocycle(Z4LCS, Z2, phi_table(PHIS[0])))
    b = build_extension_reduced(Z4, Z4LCS, [[0] * 4 for _ in range(4)])
    with pytest.raises(ParameterError):
        extensions_equivalent(a, b)
    c = build_extension_reduced(Z2, T2, [[0, 0], [0, 0]])
    with pytest.raises(ParameterError):
        extensions_equivalent(a, c)


def test_budget_fallback():
    # No search space is budgeted any more: 16^16 candidate maps used to
    # raise BudgetError, the linear system answers at once.
    big = trivial_lcs(FiniteAbelianGroup((16,)))
    zero16 = [[0] * 16 for _ in range(16)]
    c = ReducedTwoCocycle(big, Z4, zero16)
    assert cocycles_cohomologous(c, c) == (True, ((0,),) * 16)
    # 8^7 candidate translations: the witness comes with the verdict, and
    # its coboundary joins the two extracted pairs
    base = trivial_lcs(FiniteAbelianGroup((8,)))
    z8 = FiniteAbelianGroup((8,))
    zero8 = [[0] * 8 for _ in range(8)]
    shift = [0, 3, 5, 1, 7, 2, 2, 6]
    f = [[(shift[base.dot[a][b]] - shift[b]) % 8 for b in range(8)] for a in range(8)]
    g = [[(shift[base.add[a][b]] - shift[a] - shift[b]) % 8 for b in range(8)] for a in range(8)]
    t1 = build_extension_reduced(z8, base, zero8)
    t2 = build_extension_full(z8, base, f, g)
    ok, witness = extensions_equivalent(t1, t2)
    assert ok
    theta = [x for (x,) in witness["theta"]]
    c1 = extract_cocycle(t1, "full", normalized_section(t1))
    c2 = extract_cocycle(t2, "full", normalized_section(t2))
    assert theta[base.zero] == 0
    for a in range(8):
        for b in range(8):
            df = (c2.f[a][b][0] - c1.f[a][b][0]) % 8
            dg = (c2.g[a][b][0] - c1.g[a][b][0]) % 8
            assert df == (theta[base.dot[a][b]] - theta[b]) % 8
            assert dg == (theta[base.add[a][b]] - theta[a] - theta[b]) % 8


# ---------------------------------------------------------------------------
# Classification


def test_classify_budgets_class_count_first():
    # 65,536 classes of order 64: the count comes off the Howell pivots
    # and is refused before any class is enumerated or built
    base = trivial_lcs(FiniteAbelianGroup((2, 2)))
    with pytest.raises(BudgetError, match="16777216"):
        classify_extensions(base, FiniteAbelianGroup((4, 4)), "general")


def test_frozen_ext8_is_a_class_total():
    # the frozen ext8 that other modules import is the second cycle-type
    # class total of z4-lcs over Z/2
    classes = classify_extensions(Z4LCS, Z2, "cycle-type")
    assert classes[1].triple.total == EXT8
    assert classes[1].triple.total.zero == EXT8.zero


def test_classify_counts_match_cohomology():
    cases = [
        (Z4LCS, Z2, "cycle-type"),
        (T2, Z2, "cycle-type"),
        (T3, Z2, "cycle-type"),
        (T2, Z2, "general"),
        (Z4LCS, Z2, "general"),
    ]
    # ext8 has 4 / 16 classes over Z/2, 8 / 16 over Z/4 and 16 / 256 over
    # Z/2+Z/2 (cycle-type / general)
    ext8_counts = {"Z/2": (4, 16), "Z/4": (8, 16), "Z/2+Z/2": (16, 256)}
    for spec in ext8_counts:
        cases += [(EXT8, parse_group_spec(spec), f) for f in ("cycle-type", "general")]
    for base, gamma, flavor in cases:
        classes = classify_extensions(base, gamma, flavor)
        if flavor == "cycle-type":
            inv = reduced_cohomology(base, gamma, 2)
        else:
            inv = full_cohomology(base, gamma, 2, normalized=True)
        expected = 1
        for d in inv:
            expected *= d
        assert len(classes) == expected, (base.order, flavor)
        assert [c.class_index for c in classes] == list(range(expected))
        if base is EXT8:
            assert expected == ext8_counts[str(gamma)][flavor == "general"]


@pytest.mark.parametrize("flavor", ["cycle-type", "general"])
def test_classify_solves_each_distinct_factor_once(monkeypatch, flavor):
    alone = classify_extensions(Z4LCS, Z2, flavor)
    calls = []
    original = lcscohom.extensions._kernel_mod

    def counted(rows, tags, m):
        calls.append(m)
        return original(rows, tags, m)

    monkeypatch.setattr(lcscohom.extensions, "_kernel_mod", counted)
    classes = classify_extensions(Z4LCS, parse_group_spec("Z/2+Z/2"), flavor)
    assert calls == [2, 2]  # the cocycles and the coboundaries, once each
    # the classes are the pairs of Z/2 classes, the first factor slowest
    assert len(classes) == len(alone) ** 2
    tables = ("f",) if flavor == "cycle-type" else ("f", "g")
    for c in classes:
        first, second = divmod(c.class_index, len(alone))
        for name in tables:
            pair = zip(getattr(alone[first].cocycle, name), getattr(alone[second].cocycle, name))
            expected = tuple(tuple(x + y for x, y in zip(*rows)) for rows in pair)
            assert getattr(c.cocycle, name) == expected


@pytest.mark.parametrize("flavor", ["cycle-type", "general"])
def test_classify_checks_and_builds_each_distinct_piece_once(monkeypatch, flavor):
    alone = classify_extensions(Z4LCS, Z2, flavor)
    calls, tables = _count_reports(monkeypatch), []
    real_table = lcscohom.extensions._deformed_table

    def counted_table(gamma, n, base_op, deformation, carry):
        tables.append((carry, deformation))
        return real_table(gamma, n, base_op, deformation, carry)

    monkeypatch.setattr(lcscohom.extensions, "_deformed_table", counted_table)
    classes = classify_extensions(Z4LCS, parse_group_spec("Z/2+Z/2"), flavor)
    # one check per factor column, not one per combination of columns
    report = "reduced" if flavor == "cycle-type" else "full"
    assert calls == [report] * len(alone)
    assert len(classes) == len(alone) ** 2
    # one dot table per distinct f and one addition table per distinct g,
    # shared by every class with that deformation
    fs = {c.cocycle.f for c in classes}
    gs = {c.cocycle.g for c in classes} if flavor == "general" else {None}
    assert len(tables) == len(set(tables)) == len(fs) + len(gs) < 2 * len(classes)
    assert len({id(c.triple.total.dot) for c in classes}) == len(fs)
    assert len({id(c.triple.total.add) for c in classes}) == len(gs)


@pytest.mark.parametrize(
    "base,spec,flavor",
    [
        (Z4LCS, "Z/2+Z/2", "cycle-type"),
        (trivial_lcs(FiniteAbelianGroup((2, 2))), "Z/2+Z/4", "general"),
    ],
    ids=["z4-lcs", "trivial(Z/2+Z/2)"],
)
def test_classify_builds_each_cocycle_table_and_checks_the_maps_once(
    monkeypatch, base, spec, flavor
):
    built, checked = [], []
    real_rows = lcscohom.extensions._rows
    real_check = ExtensionTriple.__post_init__

    def counted_rows(n, columns):
        built.append(columns)
        return real_rows(n, columns)

    def counted_check(self):
        checked.append(self.total.zero)
        real_check(self)

    monkeypatch.setattr(lcscohom.extensions, "_rows", counted_rows)
    monkeypatch.setattr(ExtensionTriple, "__post_init__", counted_check)
    classes = classify_extensions(base, parse_group_spec(spec), flavor)
    # one table per distinct tuple of factor columns, of f or of g, shared
    # by the cocycles that have it, and one check per distinct total zero,
    # whose canonical maps the triples share
    names = ("f",) if flavor == "cycle-type" else ("f", "g")
    tables = [getattr(c.cocycle, name) for c in classes for name in names]
    assert len(built) == len(set(built)) == len(set(tables)) == len(set(map(id, tables)))
    assert sorted(checked) == sorted({k.triple.total.zero for k in classes})
    assert len(classes) > 4 * len(checked)
    # a triple built directly is still checked in full
    triple = classes[-1].triple
    with pytest.raises(ShapeError):
        ExtensionTriple(triple.total, triple.gamma, triple.base, triple.iota[:-1], triple.pi)


@pytest.mark.parametrize("spec", ["Z/2", "Z/2+Z/2", "Z/2+Z/4"])
@pytest.mark.parametrize("flavor", ["cycle-type", "general"])
def test_classify_refuses_a_representative_that_is_no_cocycle(monkeypatch, flavor, spec):
    # f = 1 everywhere is not additive in its second argument.  Over
    # Z/2+Z/4 only the Z/4 list holds it, behind the zero cocycle, so the
    # first class that is not a cocycle is (0, 1).
    nn = Z4LCS.order**2
    width = nn if flavor == "cycle-type" else 2 * nn
    zero, bad = (0,) * width, (1,) * nn + (0,) * (width - nn)

    def listed(_z_gens, b_form, _width):
        if spec != "Z/2+Z/4":
            return [bad]
        return [zero, bad] if b_form.m == 4 else [zero]

    monkeypatch.setattr(lcscohom.extensions, "_class_representatives", listed)
    gamma = parse_group_spec(spec)
    columns = [bad] * len(gamma.factors) if spec != "Z/2+Z/4" else [zero, bad]
    kind = "reduced" if flavor == "cycle-type" else "full"
    with pytest.raises(CocycleError) as expected:
        _from_columns(Z4LCS, gamma, columns, kind)
    with pytest.raises(CocycleError) as info:
        classify_extensions(Z4LCS, gamma, flavor)
    assert str(info.value) == str(expected.value)
    assert info.value.report.to_dict() == expected.value.report.to_dict()


@pytest.mark.parametrize(
    "flavor,message",
    [
        ("cycle-type", "the degree-3 tuple basis needs 21952 basis elements"),
        ("general", "the total degree-3 basis needs 65856 basis elements"),
    ],
)
def test_classify_budget_refuses_before_any_row(monkeypatch, flavor, message):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a face row was written")

    monkeypatch.delenv("LCSCOHOM_BUDGET", raising=False)
    # the row writers of the systems classification reads: the one
    # presented writer of both theories, and the shuffle sums and face
    # rows besides
    for module, name in (
        (lcscohom.reduced, "_face_rows"),
        (lcscohom.reduced, "_accumulate"),
        (lcscohom.reduced, "_write_relations"),
        (lcscohom.bicomplex, "_face_rows"),
        (lcscohom.bicomplex, "_accumulate"),
    ):
        monkeypatch.setattr(module, name, refuse)
    limit = 20000 if flavor == "cycle-type" else 60000
    with pytest.raises(BudgetError) as info:
        classify_extensions(trivial_lcs(FiniteAbelianGroup((28,))), Z2, flavor)
    assert str(info.value) == (
        f"{message}, over the budget of {limit} (set LCSCOHOM_BUDGET to raise it)"
    )
    # one order below, every check passes and the first row is written
    with pytest.raises(AssertionError, match="a face row was written"):
        classify_extensions(trivial_lcs(FiniteAbelianGroup((27,))), Z2, flavor)


def test_classify_z4_properties():
    classes = classify_extensions(Z4LCS, Z2, "cycle-type")
    assert len(classes) == 4
    for c in classes:
        assert c.triple.total.order == 8
        assert validate_lcs(c.triple.total).valid
        assert validate_extension_triple(c.triple, "cycle-type").valid
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            ok, _ = extensions_equivalent(ci.triple, cj.triple)
            assert ok == (i == j), (i, j)


def test_classify_general_t2_pairwise():
    classes = classify_extensions(T2, Z2, "general")
    assert len(classes) == 4
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            ok, _ = extensions_equivalent(ci.triple, cj.triple)
            assert ok == (i == j), (i, j)
    # exactly half the classes carry a cyclic order-4 addition
    cyclic = 0
    for c in classes:
        add = c.triple.total.add
        e, steps = add[1][1], 1
        while e != 1:
            e, steps = add[e][1], steps + 1
        cyclic += steps == 4
    assert cyclic == 2


def test_first_class_is_direct_product():
    classes = classify_extensions(T2, Z2, "cycle-type")
    zero = ((0,), (0,))
    assert classes[0].cocycle.f == (zero, zero)
    total = classes[0].triple.total
    assert total.dot == tuple(tuple(range(4)) for _ in range(4))


def test_classify_is_deterministic():
    a = classify_extensions(Z4LCS, Z2, "cycle-type")
    b = classify_extensions(Z4LCS, Z2, "cycle-type")
    da = json.dumps([c.to_dict() for c in a], sort_keys=True)
    db = json.dumps([c.to_dict() for c in b], sort_keys=True)
    assert da == db


def test_classify_extract_rebuild_roundtrip():
    for base, gamma, flavor in [(Z4LCS, Z2, "cycle-type"), (T2, Z2, "general")]:
        for c in classify_extensions(base, gamma, flavor):
            kind = "reduced" if flavor == "cycle-type" else "full"
            back = extract_cocycle(c.triple, kind)
            assert back.f == c.cocycle.f
            if kind == "full":
                assert back.g == c.cocycle.g
                rebuilt = build_extension_full(gamma, base, back, None)
            else:
                rebuilt = build_extension_reduced(gamma, base, back)
            ok, _ = extensions_equivalent(c.triple, rebuilt)
            assert ok


def test_classify_rejects_unknown_flavor():
    with pytest.raises(ParameterError):
        classify_extensions(T2, Z2, "fancy")


# ---------------------------------------------------------------------------
# Cocycle files


def test_cocycle_dict_roundtrip():
    c = ReducedTwoCocycle(Z4LCS, Z2, phi_table(PHIS[2]))
    data = two_cocycle_to_dict(c)
    assert data["degree"] == 2
    assert data["coeff"] == "Z/2"
    assert len(data["values"]) == 16
    back = two_cocycle_from_dict(data, Z4LCS, flavor="reduced")
    assert back.f == c.f
    full = FullTwoCocycle(Z4LCS, Z2, [[0] * 4] * 4, parity_table())
    fdata = two_cocycle_to_dict(full)
    assert len(fdata["values"]) == 32
    fback = two_cocycle_from_dict(fdata, Z4LCS, flavor="full")
    assert fback.f == full.f and fback.g == full.g


def test_cocycle_dict_multi_factor():
    zz = FiniteAbelianGroup((2, 2))
    c = ReducedTwoCocycle(T2, zz, [[(0, 0)] * 2] * 2)
    data = two_cocycle_to_dict(c)
    assert data["values"][0] == [0, 0]
    back = two_cocycle_from_dict(data, T2, flavor="reduced")
    assert back.f == c.f


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(degree=3),
        lambda d: d.update(coeff="Z/4"),
        lambda d: d.update(extra=True),
        lambda d: d["values"].pop(),
        lambda d: d["values"].__setitem__(0, None),
    ],
)
def test_cocycle_dict_errors(mutate):
    data = two_cocycle_to_dict(ReducedTwoCocycle(Z4LCS, Z2, phi_table(PHIS[1])))
    mutate(data)
    with pytest.raises(MalformedTableError):
        two_cocycle_from_dict(data, Z4LCS, Z2, flavor="reduced")


def test_cocycle_dict_invalid_table_raises_cocycle_error():
    data = {"degree": 2, "coeff": "Z/2", "values": [1] * 16}
    with pytest.raises(CocycleError):
        two_cocycle_from_dict(data, Z4LCS, flavor="reduced")


def test_cocycle_dict_needs_flavor_and_coeff():
    with pytest.raises(ParameterError):
        two_cocycle_from_dict({"degree": 2, "values": []}, T2, Z2, flavor="odd")
    with pytest.raises(MalformedTableError):
        two_cocycle_from_dict({"degree": 2, "values": [0] * 4}, T2)


# ---------------------------------------------------------------------------
# The brace dictionary


def test_translations_are_mutually_inverse():
    rng = random.Random(5)
    for _ in range(20):
        f = [[(rng.randrange(4),) for _ in range(4)] for _ in range(4)]
        g = [[(rng.randrange(4),) for _ in range(4)] for _ in range(4)]
        fbar, g1 = translate_to_lcs_pair(Z4, Z4BRACE, f, g)
        f2, g2 = translate_to_brace_pair(Z4, Z4BRACE, fbar, g1)
        assert f2 == tuple(tuple(row) for row in f)
        assert g2 == tuple(tuple(row) for row in g)
        back_fbar, _ = translate_to_lcs_pair(Z4, Z4BRACE, f2, g2)
        assert back_fbar == fbar


def test_reduced_brace_extension_matches_cycle_set_side():
    fbar = phi_table(PHIS[1])
    f, g = translate_to_brace_pair(Z2, Z4BRACE, fbar, None)
    assert all(v == (0,) for row in g for v in row)
    triple = build_brace_extension(Z2, Z4BRACE, f, None, reduced=True)
    assert isinstance(triple.total, Brace)
    image = brace_to_lcs(triple.total)
    direct = build_extension_reduced(Z2, Z4LCS, fbar).total
    assert image == direct


def test_reduced_brace_extension_rejects_addition_deformation():
    with pytest.raises(ParameterError):
        build_brace_extension(Z2, Z4BRACE, None, [[1] * 4] * 4, reduced=True)


def test_general_brace_extension_matches_cycle_set_side():
    g = parity_table()
    f, g2 = translate_to_brace_pair(Z2, Z4BRACE, None, g)
    # the inverse translations preserve parity, so f lands on g itself
    assert f == tuple(tuple((v,) for v in row) for row in g)
    triple = build_brace_extension(Z2, Z4BRACE, f, g)
    assert isinstance(triple.total, Brace)
    assert triple.total.order == 8
    image = brace_to_lcs(triple.total)
    direct = build_extension_full(Z2, Z4LCS, None, g).total
    assert image == direct
    report = validate_extension_triple(triple)
    assert report.valid


def test_brace_extension_rejects_invalid_pair():
    bad = [[1] * 4 for _ in range(4)]
    with pytest.raises(CocycleError):
        build_brace_extension(Z2, Z4BRACE, bad, None)


# ---------------------------------------------------------------------------
# Extension files


def test_extension_dict_roundtrip():
    cocycle = ReducedTwoCocycle(Z4LCS, Z2, phi_table(PHIS[3]))
    triple = build_extension_reduced(Z2, Z4LCS, cocycle)
    data = extension_to_dict(triple)
    assert set(data) == {"gamma", "structure"}
    back = extension_from_dict(json.loads(json.dumps(data)))
    assert back.total == triple.total
    assert back.iota == triple.iota
    assert back.pi == triple.pi
    assert back.section == triple.section
    assert back.base == triple.base


def test_extension_dict_roundtrip_non_normalized():
    triple = build_extension_full(Z2, T2, [[0, 0], [0, 0]], [[1, 1], [1, 1]])
    back = extension_from_dict(extension_to_dict(triple))
    assert back.total == triple.total
    assert back.iota == triple.iota
    assert back.section == triple.section


def test_extension_dict_roundtrip_brace():
    triple = build_brace_extension(Z2, Z4BRACE, None, parity_table())
    back = extension_from_dict(extension_to_dict(triple))
    assert isinstance(back.total, Brace)
    assert back.total == triple.total
    assert back.base == triple.base


def test_reconstruct_rejects_mismatched_orders():
    with pytest.raises(ParameterError):
        reconstruct_triple(Z4LCS, FiniteAbelianGroup((3,)))


@pytest.mark.parametrize(
    "data",
    [
        "not a dict",
        {"gamma": "Z/2"},
        {"structure": {}},
        {"gamma": "Z/2", "structure": {}, "extra": 1},
    ],
)
def test_extension_dict_errors(data):
    with pytest.raises(MalformedTableError):
        extension_from_dict(data)
