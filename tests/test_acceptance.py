"""Acceptance battery.

Each test covers one headline guarantee of the package, prints exactly one
PASS or FAIL line (visible under pytest -s), and enforces a wall-clock
budget where one is promised. Expected values that have an external source
are recomputed here through independent code paths rather than trusted.
"""

import itertools
import math
import random
import time
from functools import partial

import pytest

from dense_views import reduced_boundary_matrix
from homology_oracle import tuple_system
from lcscohom.abelian import FiniteAbelianGroup, parse_group_spec
from lcscohom.bicomplex import bicomplex_identity_check, full_cohomology
from lcscohom.corpus import builtin_structure, enumerate_braces, enumerate_lcs
from lcscohom.errors import UnsupportedCoefficientsError
from lcscohom.extensions import (
    build_brace_extension,
    build_extension_full,
    build_extension_reduced,
    classify_extensions,
    extensions_equivalent,
    extract_cocycle,
    force_extension_full,
    force_extension_reduced,
    is_full_2cocycle,
    is_reduced_2cocycle,
    translate_to_brace_pair,
    translate_to_lcs_pair,
)
from lcscohom.reduced import (
    _invariants,
    _over_factors,
    antisymmetrization_is_chain_map,
    cs_cocycle_group,
    cs_cohomology,
    reduced_cohomology,
)
from lcscohom.structures import brace_to_lcs, validate_lcs

Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))
Z4 = FiniteAbelianGroup((4,))
Z4LCS = builtin_structure("z4-lcs")
T2 = builtin_structure("trivial(2)")
T3 = builtin_structure("trivial(3)")


def corpus():
    """Named structures plus every valid cycle set of order at most 3."""
    named = [builtin_structure(f"trivial({n})") for n in range(1, 5)]
    named.append(Z4LCS)
    return named + [s for n in (1, 2, 3) for s in enumerate_lcs(n)]


def stamp(label, ok, elapsed=None, limit=None, problems=()):
    timing = ""
    if elapsed is not None:
        timing = f" ({elapsed:.2f}s" + (f", budget {limit:.0f}s)" if limit else ")")
    print(("PASS  " if ok else "FAIL  ") + label + timing)
    assert ok, (label, list(problems)[:5])


def int_table(gamma, n, fill):
    return tuple(tuple(fill(a, b) for b in range(n)) for a in range(n))


def test_degree_two_invariants_of_the_order_four_cycle_set():
    start = time.monotonic()
    invariants = reduced_cohomology(Z4LCS, Z2, 2)
    elapsed = time.monotonic() - start
    ok = invariants == [2, 2] and elapsed < 1.0
    stamp(
        "reduced degree-2 cohomology of z4-lcs over Z/2 is Z/2+Z/2",
        ok,
        elapsed,
        1.0,
        [invariants],
    )


def test_unconstrained_cocycle_and_cohomology_sizes():
    start = time.monotonic()
    cocycles = cs_cocycle_group(Z4LCS, Z2, 2)
    quotient = cs_cohomology(Z4LCS, Z2, 2)
    elapsed = time.monotonic() - start
    ok = cocycles == [2] * 13 and quotient == [2] * 12 and elapsed < 1.0
    stamp(
        "unconstrained degree-2 groups of z4-lcs over Z/2 are (Z/2)^13 and (Z/2)^12",
        ok,
        elapsed,
        1.0,
        [cocycles, quotient],
    )


def test_cycle_type_classification_of_the_order_four_cycle_set():
    start = time.monotonic()
    problems = []
    classes = classify_extensions(Z4LCS, Z2, "cycle-type")
    if len(classes) != 4:
        problems.append(f"expected 4 classes, got {len(classes)}")
    for entry in classes:
        total = entry.triple.total
        if total.order != 8:
            problems.append(f"class {entry.class_index} has order {total.order}")
        if not validate_lcs(total).valid:
            problems.append(f"class {entry.class_index} fails validation")
    for one, two in itertools.combinations(classes, 2):
        same, _ = extensions_equivalent(one.triple, two.triple)
        if same:
            problems.append(f"classes {one.class_index},{two.class_index} equivalent")
    # independent confirmation: sweep every candidate fiber shift theta and
    # check whether (c, a) |-> (c + theta(a), a) is an isomorphism over the base
    add, dot = Z4LCS.add, Z4LCS.dot
    tables = [entry.cocycle.f for entry in classes]

    def links(one, two, theta):
        additive = all(
            theta[add[a][b]] == Z2.add(theta[a], theta[b])
            for a in range(4)
            for b in range(4)
        )
        matches = all(
            Z2.sub(one[a][b], two[a][b]) == Z2.sub(theta[dot[a][b]], theta[b])
            for a in range(4)
            for b in range(4)
        )
        return additive and matches

    thetas = list(itertools.product(((0,), (1,)), repeat=4))
    for i, j in itertools.combinations(range(len(tables)), 2):
        if any(links(tables[i], tables[j], theta) for theta in thetas):
            problems.append(f"a fiber shift links classes {i},{j}")
    if not all(links(t, t, thetas[0]) for t in tables):
        problems.append("the zero shift fails on a class and itself")
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 10.0
    stamp(
        "z4-lcs has exactly 4 pairwise-inequivalent cycle-type extensions by Z/2",
        ok,
        elapsed,
        10.0,
        problems,
    )


def test_normalized_and_plain_degree_two_agree():
    start = time.monotonic()
    problems = []
    for structure in corpus():
        # the normalized tuple system against the resolved plain groups
        system = tuple_system(structure, 2, True)[0]
        for coeffs in (Z2, Z4):
            plain = reduced_cohomology(structure, coeffs, 2)
            norm = _over_factors(coeffs, partial(_invariants, system))
            if plain != norm:
                problems.append((structure.order, str(coeffs), plain, norm))
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 60.0
    stamp(
        "normalized and plain reduced degree-2 cohomology agree on the corpus",
        ok,
        elapsed,
        60.0,
        problems,
    )


def test_differential_identities_hold_on_the_corpus():
    start = time.monotonic()
    problems = []
    kinds = ("dh.dh", "dv.dv", "dh.dv", "preserves shuffles", "preserves degenerates")
    for structure in corpus():
        for k in (2, 3, 4):
            square = reduced_boundary_matrix(structure, k - 1) @ reduced_boundary_matrix(
                structure, k
            )
            if not square.is_zero():
                problems.append((structure.order, "reduced dd", k))
        report = bicomplex_identity_check(structure, 4)
        for check in report.checks:
            if not check.ok:
                problems.append((structure.order, check.name))
        for kind in kinds:
            if not any(kind in check.name for check in report.checks):
                problems.append((structure.order, "missing check kind", kind))
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 60.0
    stamp(
        "reduced dd=0 (k<=4) and all bicomplex identities (i+j<=4) on the corpus",
        ok,
        elapsed,
        60.0,
        problems,
    )


def test_antisymmetrization_is_a_chain_map_on_the_corpus():
    problems = [
        (structure.order, k)
        for structure in corpus()
        for k in (2, 3)
        if not antisymmetrization_is_chain_map(structure, k)
    ]
    stamp(
        "antisymmetrization commutes with the differentials in degrees 2 and 3",
        not problems,
        problems=problems,
    )


def sweep_reduced(base, gamma):
    """Count validator/forced-build disagreements over every dot deformation."""
    n, m = base.order, gamma.order
    mismatches = 0
    for values in itertools.product(range(m), repeat=n * n):
        f = tuple(tuple(values[a * n + b] for b in range(n)) for a in range(n))
        said = is_reduced_2cocycle(base, gamma, f).valid
        built = validate_lcs(force_extension_reduced(gamma, base, f)).valid
        mismatches += said != built
    return mismatches


def test_cocycle_conditions_match_forced_builds():
    problems = []
    bad = sweep_reduced(T2, Z2)
    if bad:
        problems.append(f"{bad} reduced mismatches over Z/2")
    bad = sweep_reduced(T2, Z4)
    if bad:
        problems.append(f"{bad} reduced mismatches over Z/4")

    def full_agrees(f, g):
        said = is_full_2cocycle(T2, Z2, f, g).valid
        built = validate_lcs(force_extension_full(Z2, T2, f, g)).valid
        return said == built

    exhaustive = 0
    for values in itertools.product(range(2), repeat=8):
        f = (values[0:2], values[2:4])
        g = (values[4:6], values[6:8])
        exhaustive += not full_agrees(f, g)
    if exhaustive:
        problems.append(f"{exhaustive} full mismatches in the exhaustive sweep")
    rng = random.Random(20260814)
    sampled = 0
    for _ in range(10_000):
        f = int_table(Z2, 2, lambda a, b: rng.randrange(2))
        g = int_table(Z2, 2, lambda a, b: rng.randrange(2))
        sampled += not full_agrees(f, g)
    if sampled:
        problems.append(f"{sampled} full mismatches in the random sample")
    stamp(
        "forced builds validate exactly when the cocycle conditions hold",
        not problems,
        problems=problems,
    )


def test_classified_extensions_round_trip():
    problems = []
    cases = [
        (Z4LCS, Z2, "cycle-type"),
        (Z4LCS, Z2, "general"),
        (T2, Z2, "cycle-type"),
        (T2, Z2, "general"),
        (T3, Z2, "cycle-type"),
    ]
    for base, gamma, flavor in cases:
        tag = f"{base.order}/{gamma}/{flavor}"
        for entry in classify_extensions(base, gamma, flavor):
            kind = "reduced" if flavor == "cycle-type" else "full"
            extracted = extract_cocycle(entry.triple, kind)
            if extracted.f != entry.cocycle.f:
                problems.append((tag, entry.class_index, "dot table changed"))
            if kind == "full":
                if extracted.g != entry.cocycle.g:
                    problems.append((tag, entry.class_index, "addition table changed"))
                rebuilt = build_extension_full(gamma, base, extracted, None)
            else:
                rebuilt = build_extension_reduced(gamma, base, extracted.f)
            same, _ = extensions_equivalent(entry.triple, rebuilt)
            if not same:
                problems.append((tag, entry.class_index, "rebuild not equivalent"))
    stamp(
        "extract-then-rebuild reproduces every classified extension",
        not problems,
        problems=problems,
    )


def test_brace_dictionary_is_exact():
    problems = []
    for n in (1, 2, 3, 4):
        cycle_sets = enumerate_lcs(n)
        braces = enumerate_braces(n)
        if len(cycle_sets) != len(braces):
            problems.append((n, "different counts"))
        images = sorted((brace_to_lcs(b) for b in braces), key=lambda s: (s.add, s.dot))
        if images != cycle_sets:
            problems.append((n, "brace images miss some cycle set"))

    # cocycle translation between the two pictures is a bijection on tables
    brace = builtin_structure("z4-brace")
    rng = random.Random(13)
    for _ in range(25):
        f = int_table(Z2, 4, lambda a, b: rng.randrange(2))
        g = int_table(Z2, 4, lambda a, b: rng.randrange(2))
        fbar, g1 = translate_to_lcs_pair(Z2, brace, f, g)
        back_f, back_g = translate_to_brace_pair(Z2, brace, fbar, g1)
        if (back_f, back_g) != (
            tuple(tuple((v,) for v in row) for row in f),
            tuple(tuple((v,) for v in row) for row in g),
        ):
            problems.append("translation round trip changed a table")
            break

    # a deformed brace and the deformed cycle set tell the same story
    base_lcs = brace_to_lcs(brace)
    for phi in ((0, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 1, 0, 1)):
        fbar = int_table(Z2, 4, lambda a, b: (b % 2) * phi[a] % 2)
        f, g = translate_to_brace_pair(Z2, brace, fbar, None)
        if any(any(v != (0,) for v in row) for row in g):
            problems.append((phi, "reduced translation produced an addition term"))
            continue
        triple = build_brace_extension(Z2, brace, f, None, reduced=True)
        direct = build_extension_reduced(Z2, base_lcs, fbar)
        if brace_to_lcs(triple.total) != direct.total:
            problems.append((phi, "brace and cycle-set extensions disagree"))
    parity = int_table(Z2, 4, lambda a, b: (a % 2) * (b % 2))
    triple = build_brace_extension(Z2, brace, None, parity)
    fbar, g1 = translate_to_lcs_pair(Z2, brace, None, parity)
    direct = build_extension_full(Z2, base_lcs, fbar, g1)
    if brace_to_lcs(triple.total) != direct.total:
        problems.append("full brace extension disagrees with its translation")
    stamp(
        "the brace dictionary and its cocycle translation are exact",
        not problems,
        problems=problems,
    )


def test_three_way_degree_two_oracle():
    problems = []
    from_invariants = math.prod(full_cohomology(T2, Z2, 2, normalized=True))

    pairs = []
    for values in itertools.product(range(2), repeat=8):
        f = (values[0:2], values[2:4])
        g = (values[4:6], values[6:8])
        report = is_full_2cocycle(T2, Z2, f, g)
        if report.valid:
            pairs.append((f, g, report.normalized))
    flat = lambda f, g: tuple(v % 2 for row in f + g for v in row)
    coboundaries = set()
    for theta in ((0, 0), (0, 1)):
        df = tuple(
            tuple(theta[T2.dot[a][b]] - theta[b] for b in range(2)) for a in range(2)
        )
        dg = tuple(
            tuple(theta[T2.add[a][b]] - theta[a] - theta[b] for b in range(2))
            for a in range(2)
        )
        coboundaries.add(flat(df, dg))
    normalized = [flat(f, g) for f, g, norm in pairs if norm]
    reps = {
        min(
            tuple((v + c) % 2 for v, c in zip(vec, shift))
            for shift in coboundaries
        )
        for vec in normalized
    }
    by_enumeration = len(reps)

    triples = [build_extension_full(Z2, T2, f, g) for f, g, _ in pairs]
    found = []
    for triple in triples:
        if not any(extensions_equivalent(seen, triple)[0] for seen in found):
            found.append(triple)
    by_extensions = len(found)

    if not (from_invariants == by_enumeration == by_extensions):
        problems.append((from_invariants, by_enumeration, by_extensions))
    stamp(
        "invariants, cocycle enumeration and extension counting all agree at "
        f"order 2 over Z/2 (count {from_invariants})",
        not problems,
        problems=problems,
    )


def test_infinite_coefficients_are_rejected():
    with pytest.raises(UnsupportedCoefficientsError):
        parse_group_spec("Z")
    stamp("infinite coefficient groups are rejected up front", True)
