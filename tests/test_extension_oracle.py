"""Equivalence and classification against the brute-force oracle.

`cocycles_cohomologous` must return the oracle's verdict and the exact
theta the lexicographic search finds first, on pairs that are and are
not cohomologous; `classify_extensions` must return the oracle's class
list, representatives and order included.  The sweep covers every linear
cycle set of orders 1 to 4 over cyclic and non-cyclic coefficient groups,
including Z/6, which the linear algebra treats as one ring, not by parts.

`classify_extensions` checks each class's cocycle and builds its total
without validating it; the totals are validated here, and perturbed
class cocycles must be refused both as cocycles and as built totals.

Extraction, additive sections and equivalence read kernel parts off one
fiber table per section; on the class triples of the small bases, and on
each with one total-table entry moved, they must return what the fiber
scans of the oracle return, or raise the same error with the same
message.  A class triple records the cocycle it was built from, and
extraction trusts a pair equal to that record: it must read as a plain
copy of its tables does, and once its total is moved it is checked
again.
"""

import copy
import functools
import itertools
import json
import math
import random

import extension_oracle as oracle
import pytest

from dense_views import kernel_mod_m
from ext8 import EXT8, EXT8_RELABELED
from extension_oracle import (
    class_cocycles,
    search_theta,
    theta_constraints,
    two_cocycle_system,
)
from lcscohom import verify
from lcscohom.abelian import parse_group_spec
from lcscohom.bicomplex import _full_system, full_cohomology
from lcscohom.corpus import builtin_structure, enumerate_lcs
from lcscohom.errors import LcsError
from lcscohom.extensions import (
    ExtensionTriple,
    FullTwoCocycle,
    ReducedTwoCocycle,
    additive_section,
    build_extension_full,
    build_extension_reduced,
    classify_extensions,
    cocycles_cohomologous,
    extensions_equivalent,
    extract_cocycle,
    force_extension_full,
    force_extension_reduced,
    is_full_2cocycle,
    is_reduced_2cocycle,
    two_cocycle_to_dict,
    validate_extension_triple,
)
from lcscohom.linalg import _IntegerSpan, _kernel_mod
from lcscohom.reduced import _reduced_system, _tagged, reduced_cohomology
from lcscohom.structures import LinearCycleSet, validate_lcs

STRUCTURES = [s for n in (1, 2, 3, 4) for s in enumerate_lcs(n)]
# each flavor's degree-2 system: the plain reduced one, the normalized full one
BUILDERS = {
    "cycle-type": _reduced_system,
    "general": functools.partial(_full_system, normalized=True),
}
COEFFS = ("Z/2", "Z/3", "Z/4", "Z/6", "Z/2+Z/2", "Z/2+Z/4")
# Bases with more classes than this are left out of the per-class
# comparisons: the oracle lists every cocycle, and each total checked
# below is validated three times over.  Classifying one costs little (the
# 4,096 classes of the trivial structure on Z/2+Z/2 over Z/2+Z/2 take
# about 0.7 s).
MAX_CLASSES = 64
# Class representatives per base whose pairs are compared.
PAIRS = 2


def _shift(gamma, base, f, g, theta):
    """(f, g) plus the coboundary of theta; g is None for the reduced flavor."""
    n = base.order
    sub = gamma.sub
    f = tuple(
        tuple(gamma.add(f[a][b], sub(theta[base.dot[a][b]], theta[b])) for b in range(n))
        for a in range(n)
    )
    if g is None:
        return f, None
    g = tuple(
        tuple(
            gamma.add(g[a][b], sub(sub(theta[base.add[a][b]], theta[a]), theta[b]))
            for b in range(n)
        )
        for a in range(n)
    )
    return f, g


def _thetas(gamma, base, additive: bool):
    """Nonzero 1-cochains, additive ones only if asked."""
    n = base.order
    out = []
    for theta in itertools.product(gamma.elements(), repeat=n):
        if any(any(x) for x in theta) and (
            not additive
            or all(
                theta[base.add[a][b]] == gamma.add(theta[a], theta[b])
                for a in range(n)
                for b in range(n)
            )
        ):
            out.append(theta)
    return out


def _columns(mat):
    return [{r: row[c] for r, row in enumerate(mat.data) if row[c]} for c in range(mat.cols)]


def _same_subgroup(gens, others, m: int) -> bool:
    """Whether two lists of sparse vectors generate one subgroup mod m."""
    forms = _IntegerSpan(gens, m), _IntegerSpan(others, m)
    return all(forms[1].reduce(g) == {} for g in gens) and all(
        forms[0].reduce(g) == {} for g in others
    )


@pytest.mark.parametrize("flavor", ["cycle-type", "general"])
def test_cochain_system_matches_the_dense_stacks(flavor):
    # Z and B from the theories' own degree-2 systems, both solved for on
    # generators and read on every pair, generate the subgroups mod m that
    # the kernels of the oracle's dense stacks do
    nontrivial = 0
    for s in STRUCTURES + [builtin_structure("z4-lcs"), EXT8, EXT8_RELABELED]:
        constraints, cob = two_cocycle_system(s, flavor)
        theta_rows = theta_constraints(s, flavor, normalized=True)
        over = BUILDERS[flavor](s, 2)
        for m in (2, 4, 6):
            system, read, _targets = over(m)
            k_rows, k_tags, b_rows, b_tags = _tagged(*system)
            z, b = _kernel_mod(k_rows, k_tags, m), _kernel_mod(b_rows, b_tags, m)
            z, b = ([read(g) for g in gens] for gens in (z, b))
            assert _same_subgroup(z, _columns(kernel_mod_m(constraints, m)), m), (s, m)
            assert _same_subgroup(b, _columns(cob @ kernel_mod_m(theta_rows, m)), m), (s, m)
            nontrivial += _IntegerSpan(z, m).order > _IntegerSpan(b, m).order
    assert nontrivial


@pytest.mark.parametrize("coeff", ("Z/2", "Z/4", "Z/6", "Z/2+Z/2"))
def test_class_counts_are_the_orders_of_h2(coeff):
    # the classification theorem: cycle-type classes are the reduced H^2,
    # general ones the normalized full H^2
    gamma = parse_group_spec(coeff)
    for s in STRUCTURES + [EXT8, EXT8_RELABELED]:
        reduced = math.prod(reduced_cohomology(s, gamma, 2))
        full = math.prod(full_cohomology(s, gamma, 2, normalized=True))
        assert len(classify_extensions(s, gamma, "cycle-type")) == reduced, s
        assert len(classify_extensions(s, gamma, "general")) == full, s


@pytest.mark.parametrize("coeff", COEFFS)
@pytest.mark.parametrize("flavor", ["cycle-type", "general"])
def test_classes_match_oracle(coeff, flavor):
    gamma = parse_group_spec(coeff)
    compared = 0
    for s in STRUCTURES:
        expected = class_cocycles(s, gamma, flavor)
        if len(expected) > MAX_CLASSES:
            continue
        got = tuple(
            c.cocycle.f if flavor == "cycle-type" else (c.cocycle.f, c.cocycle.g)
            for c in classify_extensions(s, gamma, flavor)
        )
        assert got == expected, s
        compared += len(expected) > 1
    assert compared


@pytest.mark.parametrize("coeff", ("Z/2", "Z/4", "Z/2+Z/2"))
@pytest.mark.parametrize("flavor", ["cycle-type", "general"])
def test_class_totals_are_valid_and_perturbed_cocycles_refused(coeff, flavor):
    gamma = parse_group_spec(coeff)
    bump = gamma.element(1)
    accepted = refused = 0
    for s in STRUCTURES + [EXT8]:
        classes = classify_extensions(s, gamma, flavor)
        for c in classes if len(classes) <= MAX_CLASSES else ():
            total = c.triple.total
            assert validate_lcs(total).valid
            assert validate_extension_triple(c.triple, flavor).valid
            # the trusted zero is the neutral element a full build finds
            assert LinearCycleSet(total.order, total.add, total.dot).zero == total.zero
            if flavor == "cycle-type":
                public = build_extension_reduced(gamma, s, c.cocycle.f)
            else:
                public = build_extension_full(gamma, s, c.cocycle.f, c.cocycle.g)
            assert total == public.total and hash(total) == hash(public.total)
            assert (c.triple.iota, c.triple.pi, c.triple.section) == (
                public.iota,
                public.pi,
                public.section,
            )
            accepted += 1
        if len(classes) == 1:
            continue
        # The last class is nonzero.  Perturb each entry of its dot
        # deformation: the cocycle check and the built total agree, and an
        # entry at the base zero, which every cocycle sends to zero, is
        # refused by both.
        cocycle = classes[-1].cocycle
        for a, b in itertools.product(range(s.order), repeat=2):
            f = [list(row) for row in cocycle.f]
            f[a][b] = gamma.add(f[a][b], bump)
            if flavor == "cycle-type":
                claimed = is_reduced_2cocycle(s, gamma, f).valid
                built = validate_lcs(force_extension_reduced(gamma, s, f)).valid
            else:
                claimed = is_full_2cocycle(s, gamma, f, cocycle.g).valid
                built = validate_lcs(force_extension_full(gamma, s, f, cocycle.g)).valid
            assert claimed == built, (s, a, b)
            assert b != s.zero or not claimed, (s, a, b)
            refused += not claimed
    assert accepted and refused


def test_verify_paper_refuses_a_perturbed_general_total(monkeypatch):
    # Every general class total of the order-2 base gets one entry of its
    # dot deformation bumped at the base zero, where cocycles vanish.
    real = verify.classify_extensions

    def perturbed(base, gamma, flavor):
        out = real(base, gamma, flavor)
        if flavor == "general":
            for e in out:
                f = [list(row) for row in e.cocycle.f]
                f[-1][base.zero] = gamma.add(f[-1][base.zero], gamma.element(1))
                e.triple.total = force_extension_full(gamma, base, f, e.cocycle.g)
        return out

    monkeypatch.setattr(verify, "classify_extensions", perturbed)
    claims = {c["name"]: c for c in verify.verify_paper()}
    claim = claims["extract then rebuild gives equivalent extensions"]
    assert claim == {
        "name": "extract then rebuild gives equivalent extensions",
        "ok": False,
        "detail": "a general class total fails the axioms",
    }


@pytest.mark.parametrize("coeff", COEFFS)
@pytest.mark.parametrize("flavor", ["reduced", "full"])
def test_cohomologous_matches_oracle(coeff, flavor):
    gamma = parse_group_spec(coeff)
    verdicts = set()
    for s in STRUCTURES:
        if flavor == "reduced":
            reps = [(f, None) for f in class_cocycles(s, gamma, "cycle-type")[: PAIRS + 1]]
            shifts = _thetas(gamma, s, additive=True)[:PAIRS]
        else:
            reps = class_cocycles(s, gamma, "general")[: PAIRS + 1]
            everything = _thetas(gamma, s, additive=False)
            # one normalized shift and one that moves theta(0)
            shifts = [t for t in everything if t[s.zero] == gamma.zero][:1] + [
                t for t in everything if t[s.zero] != gamma.zero
            ][:1]

        def cocycle(f, g):
            if g is None:
                return ReducedTwoCocycle(s, gamma, f)
            return FullTwoCocycle(s, gamma, f, g)

        # a class against itself: theta = 0, one entry per base element,
        # also over the order-1 base, whose (A, +) has no generator
        pairs = [(cocycle(*reps[0]), cocycle(*reps[0]))]
        for i, (f, g) in enumerate(reps[:PAIRS]):
            c1 = cocycle(f, g)
            pairs += [(c1, cocycle(*_shift(gamma, s, f, g, t))) for t in shifts]
            if i + 1 < len(reps):
                pairs.append((c1, cocycle(*reps[i + 1])))
        for c1, c2 in pairs:
            for normalized in (False, True) if flavor == "full" else (False,):
                got = cocycles_cohomologous(c1, c2, normalized=normalized)
                assert got == search_theta(c1, c2, normalized=normalized), (s, normalized)
                verdicts.add(got[0])
    assert verdicts == {True, False}


def _outcome(fn, *args):
    """("returned", fn(*args)), or the name and message of the library
    error it raised."""
    try:
        return "returned", fn(*args)
    except LcsError as exc:
        return type(exc).__name__, str(exc)


def _moved(triple, theta):
    """The triple with its total relabeled by x -> iota(theta(pi(x))) + x,
    an equivalence whenever theta(0) = 0."""
    total, n = triple.total, triple.total.order
    psi = [total.add[triple.iota[theta[triple.pi[x]]]][x] for x in range(n)]
    back = sorted(range(n), key=psi.__getitem__)

    def table(t):
        return [[psi[t[back[x]][back[y]]] for y in range(n)] for x in range(n)]

    moved = LinearCycleSet(n, table(total.add), table(total.dot))
    return ExtensionTriple(moved, triple.gamma, triple.base, triple.iota, triple.pi)


def _perturbed(triple, rng):
    """The triple with one entry of its total's addition or dot table
    moved to another element."""
    total, n = triple.total, triple.total.order
    tables = {"add": [list(r) for r in total.add], "dot": [list(r) for r in total.dot]}
    row = tables[rng.choice(("add", "dot"))][rng.randrange(n)]
    y = rng.randrange(n)
    row[y] = (row[y] + rng.randrange(1, n)) % n
    moved = LinearCycleSet(n, tables["add"], tables["dot"])
    return ExtensionTriple(moved, triple.gamma, triple.base, triple.iota, triple.pi)


@functools.lru_cache(maxsize=None)
def _class_triples():
    """The class triples of the order <= 4 bases over Z/2, Z/4 and
    Z/2+Z/2, and of ext8 over Z/4, both flavors, one tuple per class
    list, classified once for the session; tests change none of them.
    A class list longer than MAX_CLASSES (only the trivial structure on
    Z/2+Z/2 over Z/2+Z/2, with 256 and 4,096 classes) is taken at
    MAX_CLASSES evenly spaced classes, the first and the last among
    them."""
    cases = [(s, spec) for s in STRUCTURES for spec in ("Z/2", "Z/4", "Z/2+Z/2")]
    cases.append((EXT8, "Z/4"))
    out = []
    for s, spec in cases:
        for flavor in ("cycle-type", "general"):
            triples = [c.triple for c in classify_extensions(s, parse_group_spec(spec), flavor)]
            k = len(triples)
            if k > MAX_CLASSES:
                triples = [triples[i * (k - 1) // (MAX_CLASSES - 1)] for i in range(MAX_CLASSES)]
            out.append(tuple(triples))
    return tuple(out)


def test_extraction_matches_the_fiber_scans():
    rng = random.Random(20)
    seen = {"extract": set(), "split": set(), "equivalent": set()}
    for triples in _class_triples():
        for i, triple in enumerate(triples):
            theta = [rng.randrange(triple.gamma.order) for _ in range(triple.base.order)]
            theta[triple.base.zero] = 0
            broken = _perturbed(triple, rng)
            for t in (triple, broken):
                for flavor in ("reduced", "full"):
                    got = _outcome(extract_cocycle, t, flavor)
                    assert got == _outcome(oracle.extract_cocycle, t, flavor), (t, flavor)
                    seen["extract"].add(got[0])
                got = _outcome(additive_section, t)
                assert got == _outcome(oracle.additive_section, t)
                seen["split"].add(got[0] if got[0] != "returned" else got[1] is not None)
            pairs = [(triple, triples[(i + 1) % len(triples)]), (triple, _moved(triple, theta))]
            for t1, t2 in pairs + [(broken, triple), (triple, broken)]:
                got = _outcome(extensions_equivalent, t1, t2)
                assert got == _outcome(oracle.extensions_equivalent, t1, t2)
                verdict = got[1][0] if got[0] == "returned" else got[1].split(";")[0]
                seen["equivalent"].add((got[0], verdict))
    # every outcome occurs: both verdicts, every extraction error, and the
    # equivalence witness refused for each reason a moved entry gives
    assert seen["extract"] == {
        "returned", "SectionError", "LinearityError", "MorphismError", "CocycleError"
    }
    assert seen["split"] == {True, False, "SectionError", "MorphismError"}
    assert {
        ("returned", True),
        ("returned", False),
        ("MorphismError", "difference does not lie in the kernel fiber"),
        ("MorphismError", "equivalence witness is not a bijection"),
        ("MorphismError", "equivalence witness breaks the addition"),
        ("MorphismError", "equivalence witness breaks the dot operation"),
    } <= seen["equivalent"]


def _unproven(triple):
    """The triple's tables as a triple built directly, which records no
    cocycle."""
    return ExtensionTriple(
        triple.total, triple.gamma, triple.base, triple.iota, triple.pi, triple.section
    )


def _as_bytes(outcome):
    """An extraction outcome with a returned cocycle written out as its
    file."""
    kind, value = outcome
    if kind != "returned":
        return outcome
    return kind, json.dumps(two_cocycle_to_dict(value), sort_keys=True)


def test_proven_triples_read_as_their_plain_copies():
    # A class triple records the cocycle it was built from, and extraction
    # and equivalence trust a pair equal to that record; its tables as a
    # plain triple are checked.  Both must give equal cocycles, the same
    # bytes and the same verdicts and witnesses.
    for triples in _class_triples():
        plain = [_unproven(t) for t in triples]
        for i, (triple, twin) in enumerate(zip(triples, plain)):
            assert triple._cocycle is not None and twin._cocycle is None
            for flavor in ("reduced", "full"):
                got = _outcome(extract_cocycle, triple, flavor)
                want = _outcome(extract_cocycle, twin, flavor)
                assert got == want and _as_bytes(got) == _as_bytes(want), (twin, flavor)
            j = (i + 1) % len(triples)
            got = _outcome(extensions_equivalent, triple, triples[j])
            assert got == _outcome(extensions_equivalent, twin, plain[j]), twin


def test_a_proven_triple_with_a_moved_total_is_checked():
    # A proven triple keeps its record when its total is replaced in
    # place; extraction and equivalence then read the new total and give
    # the oracle's outcome, the cocycle check's refusal among them.
    rng = random.Random(21)
    seen = set()
    for triples in _class_triples():
        for triple in triples:
            moved = copy.copy(triple)
            moved.total = _perturbed(triple, rng).total
            assert moved._cocycle == triple._cocycle
            for flavor in ("reduced", "full"):
                got = _outcome(extract_cocycle, moved, flavor)
                assert got == _outcome(oracle.extract_cocycle, moved, flavor), (moved, flavor)
                seen.add(got[0])
            got = _outcome(extensions_equivalent, moved, triple)
            assert got == _outcome(oracle.extensions_equivalent, moved, triple), moved
    assert {"returned", "MorphismError", "CocycleError"} <= seen
