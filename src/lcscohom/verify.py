"""Built-in verification battery.

Every claim the library's design leans on is re-checked here end to end:
worked examples with frozen expected values, exactness of the boundary
operators, the bicomplex identities, the construction criterion for
extensions (exhaustively on small inputs, randomly on larger ones), the
brace dictionary, and the classification of central extensions of the
cyclic structure of order 4.  The battery is what `lcscohom verify-paper`
runs; every claim reports pass or fail independently, and a crashed claim
counts as failed.
"""

import itertools
import math
import random
from collections import defaultdict
from functools import partial

from .abelian import FiniteAbelianGroup
from .bicomplex import (
    _full_system,
    bicomplex_identity_check,
    column_matches_trivial_reduced,
    full_cohomology,
    row_matches_reduced,
)
from .corpus import builtin_structure, enumerate_braces, enumerate_lcs, trivial_lcs
from .extensions import (
    FullTwoCocycle,
    ReducedTwoCocycle,
    additive_section,
    build_brace_extension,
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
    translate_to_brace_pair,
    validate_extension_triple,
)
from .linalg import _kernel_mod
from .reduced import (
    _apply,
    _compose,
    _cs_cocycles,
    _horizontal_faces,
    _index_maps,
    _invariants,
    _over_factors,
    _presentation,
    _presented_system,
    _tables,
    _tagged,
    antisymmetrization_is_chain_map,
    cs_cocycle_group,
    cs_cohomology,
    reduced_cohomology,
    reduced_homology,
)
from .structures import (
    LinearCycleSet,
    brace_to_lcs,
    lcs_to_brace,
    validate_brace,
    validate_lcs,
)

__all__ = ["verify_paper"]

Z2 = FiniteAbelianGroup((2,))
Z4 = FiniteAbelianGroup((4,))

# f(a, b) = (b mod 2) * phi(a) over Z/2; the four choices of phi below are
# exactly the reduced 2-cocycles of the cyclic structure of order 4.
COCYCLE_PHIS = ((0, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 1, 0, 1))


def _phi_table(phi):
    return tuple(tuple(((b % 2) * phi[a]) % 2 for b in range(4)) for a in range(4))


def _small_corpus():
    out = [trivial_lcs(FiniteAbelianGroup((n,))) for n in (2, 3)]
    out.append(builtin_structure("z4-lcs"))
    return out


def _cohomologous_by_search(c1, c2) -> bool:
    """Whether a normalized 1-cochain joins two full pairs, by trying every
    map; kept apart from the library's linear algebra, so that a count
    made with it checks classification independently."""
    base, gamma = c1.base, c1.coeffs
    n = base.order
    sub = gamma.sub
    pairs = list(itertools.product(range(n), repeat=2))
    for theta in itertools.product(gamma.elements(), repeat=n):
        if theta[base.zero] == gamma.zero and all(
            sub(c2.f[a][b], c1.f[a][b]) == sub(theta[base.dot[a][b]], theta[b])
            and sub(c2.g[a][b], c1.g[a][b])
            == sub(sub(theta[base.add[a][b]], theta[a]), theta[b])
            for a, b in pairs
        ):
            return True
    return False


def _run(results, name, fn):
    try:
        outcome = fn()
    except Exception as exc:
        results.append(
            {"name": name, "ok": False, "detail": f"{type(exc).__name__}: {exc}"}
        )
        return
    if isinstance(outcome, tuple):
        ok, detail = outcome
    else:
        ok, detail = bool(outcome), ""
    entry = {"name": name, "ok": ok}
    if detail:
        entry["detail"] = detail
    results.append(entry)


def verify_paper(seed: int = 0):
    """Run every claim; returns a list of {name, ok, detail?} dicts."""
    results = []
    z4 = builtin_structure("z4-lcs")
    z4_brace = builtin_structure("z4-brace")
    t2 = trivial_lcs(Z2)

    def builtin_structures_valid():
        checks = [validate_lcs(z4).valid, validate_brace(z4_brace).valid]
        checks += [
            validate_lcs(trivial_lcs(FiniteAbelianGroup((n,)))).valid
            for n in (2, 3, 4)
        ]
        return all(checks)

    _run(results, "builtin structures satisfy the axioms", builtin_structures_valid)

    def corrupted_table_rejected():
        dot = [list(r) for r in z4.dot]
        dot[1][1] = (dot[1][1] + 2) % 4
        report = validate_lcs(LinearCycleSet(4, [list(r) for r in z4.add], dot))
        return not report.valid, f"{len(report.violations)} violations found"

    _run(results, "corrupted translation table is rejected", corrupted_table_rejected)

    def addition_as_translation_rejected():
        report = validate_lcs(LinearCycleSet(2, [[0, 1], [1, 0]], [[0, 1], [1, 0]]))
        hit = any(
            v.axiom == "sum-translation-compatibility" for v in report.violations
        )
        return not report.valid and hit

    _run(
        results,
        "using the addition as translation is rejected",
        addition_as_translation_rejected,
    )

    def dictionary_round_trip():
        if lcs_to_brace(brace_to_lcs(z4_brace)) != z4_brace:
            return False
        if brace_to_lcs(z4_brace) != z4:
            return False
        for n in (1, 2, 3):
            for b in enumerate_braces(n):
                if lcs_to_brace(brace_to_lcs(b)) != b:
                    return False
            for s in enumerate_lcs(n):
                if brace_to_lcs(lcs_to_brace(s)) != s:
                    return False
        return True

    _run(results, "brace and cycle set dictionaries invert", dictionary_round_trip)

    def small_orders_trivial():
        for n in (1, 2, 3):
            for s in enumerate_lcs(n):
                if any(s.dot[a][b] != b for a in range(n) for b in range(n)):
                    return False
        return True

    _run(
        results,
        "orders up to 3 only carry the trivial translation",
        small_orders_trivial,
    )

    def degree_two_of_cyclic_4():
        invariants = reduced_cohomology(z4, Z2, 2)
        return invariants == [2, 2], str(invariants)

    _run(
        results,
        "degree-2 reduced cohomology of the cyclic structure of order 4",
        degree_two_of_cyclic_4,
    )

    def cocycle_family():
        cocycles = [ReducedTwoCocycle(z4, Z2, _phi_table(phi)) for phi in COCYCLE_PHIS]
        for c1, c2 in itertools.combinations(cocycles, 2):
            ok, _witness = cocycles_cohomologous(c1, c2)
            if ok:
                return False, "two family members are cohomologous"
        return True, "4 valid, pairwise non-cohomologous cocycles"

    _run(results, "the explicit cocycle family spans distinct classes", cocycle_family)

    def unconstrained_cocycle_group():
        invariants = cs_cocycle_group(z4, Z2, 2)
        return invariants == [2] * 13, f"rank {len(invariants)} over Z/2"

    _run(
        results,
        "unconstrained degree-2 cocycle group of the cyclic structure",
        unconstrained_cocycle_group,
    )

    def unconstrained_cohomology():
        invariants = cs_cohomology(z4, Z2, 2)
        return invariants == [2] * 12, f"rank {len(invariants)} over Z/2"

    _run(
        results,
        "unconstrained degree-2 cohomology of the cyclic structure",
        unconstrained_cohomology,
    )

    def bicharacters():
        def bilinear(table):
            pairs = itertools.product(range(2), repeat=3)
            for a, b, c in pairs:
                if (table[(a + b) % 2][c] - table[a][c] - table[b][c]) % 2:
                    return False
                if (table[a][(b + c) % 2] - table[a][b] - table[a][c]) % 2:
                    return False
            return True

        valid = set()
        expected = set()
        for flat in itertools.product((0, 1), repeat=4):
            table = (flat[0:2], flat[2:4])
            if is_reduced_2cocycle(t2, Z2, table).valid:
                valid.add(table)
            if bilinear(table):
                expected.add(table)
        return valid == expected and len(valid) == 2, f"{len(valid)} bicharacters"

    _run(
        results,
        "reduced 2-cocycles of the trivial structure are the bicharacters",
        bicharacters,
    )

    def first_degree_groups():
        return (
            reduced_cohomology(t2, Z2, 1) == [2]
            and reduced_homology(t2, Z2, 1) == [2]
            and reduced_homology(z4, Z2, 1) == [2]
        )

    _run(results, "degree-1 groups of the small structures", first_degree_groups)

    def normalized_agrees():
        # the normalized tuple system against the plain groups, which are
        # read off a resolution of the brace group
        for s in _small_corpus():
            pres = {1: _presentation(s.add)}
            system = _presented_system(s, 2, pres, True, _tables(s))[0]
            for coeffs in (Z2, Z4):
                plain = reduced_cohomology(s, coeffs, 2)
                norm = _over_factors(coeffs, partial(_invariants, system))
                if plain != norm:
                    return False, f"disagreement at order {s.order} over {coeffs}"
        # the reject direction: where normalization changes a group, the
        # comparison tells them apart
        t2_full = [full_cohomology(t2, Z2, 4, normalized) for normalized in (False, True)]
        if t2_full != [[2, 2, 2, 2], [2, 2, 2]]:
            return False, f"full H^4 of the trivial structure of order 2 reads {t2_full}"
        return True

    _run(
        results,
        "normalized and plain degree-2 cohomology agree",
        normalized_agrees,
    )

    def boundaries_square_to_zero():
        # each (k+1)-tuple through the degree-(k+1) and degree-k face lists
        for s in _small_corpus():
            n = s.order
            for k in range(2, 5):
                outer = _index_maps(_horizontal_faces(s, k - 1), n, k)
                inner = _index_maps(_horizontal_faces(s, k), n, k + 1)
                composite = _compose(outer, inner)
                if any(_apply(composite, {x: 1}) for x in range(n ** (k + 1))):
                    return False, f"nonzero composite at order {s.order}, degree {k}"
        return True

    _run(
        results, "boundary operators square to zero exactly", boundaries_square_to_zero
    )

    def bicomplex_identities():
        for s in (t2, z4):
            report = bicomplex_identity_check(s, 4)
            if not report.ok:
                bad = [c.name for c in report.checks if not c.ok]
                return False, f"order {s.order}: {bad[0]}"
        return True, "all identity checks up to total degree 4"

    _run(results, "bicomplex identities hold exactly", bicomplex_identities)

    def alignment():
        for s in (trivial_lcs(FiniteAbelianGroup((3,))), z4):
            if not all(row_matches_reduced(s, i) for i in (1, 2, 3)):
                return False, f"row mismatch at order {s.order}"
            if not all(column_matches_trivial_reduced(s, j) for j in (2, 3)):
                return False, f"column mismatch at order {s.order}"
        return True

    _run(
        results, "bicomplex edges align with the one-operation complexes", alignment
    )

    def chain_map():
        return all(
            antisymmetrization_is_chain_map(s, k)
            for s in _small_corpus()
            for k in (2, 3)
        )

    _run(results, "antisymmetrization is a chain map", chain_map)

    def family_satisfies_unconstrained():
        # row x of the face rows is the coboundary of the cochain e_x
        rows = _cs_cocycles(z4, 2)

        def satisfies(table):
            coboundary = defaultdict(int)
            for row, value in zip(rows, (v for line in table for v in line)):
                for c, x in row.items():
                    coboundary[c] += x * value
            return not any(x % 2 for x in coboundary.values())

        if not all(satisfies(_phi_table(phi)) for phi in COCYCLE_PHIS):
            return False
        # the reject direction: one entry flipped at an odd second argument
        flipped = [list(line) for line in _phi_table(COCYCLE_PHIS[0])]
        flipped[1][1] ^= 1
        if satisfies(flipped):
            return False, "a table flipped at (1, 1) passes too"
        return True

    _run(
        results,
        "reduced cocycles satisfy the unconstrained cocycle condition",
        family_satisfies_unconstrained,
    )

    def vanish_on_zero_pairs():
        for phi in COCYCLE_PHIS:
            table = _phi_table(phi)
            if any(table[0][x] or table[x][0] for x in range(4)):
                return False
        return True

    _run(results, "reduced cocycles vanish on zero pairs", vanish_on_zero_pairs)

    def construction_reduced_exhaustive():
        checked = 0
        for gamma, vals in ((Z2, (0, 1)), (Z4, (0, 1, 2, 3))):
            for flat in itertools.product(vals, repeat=4):
                table = (flat[0:2], flat[2:4])
                total = force_extension_reduced(gamma, t2, table)
                built = validate_lcs(total).valid
                claimed = is_reduced_2cocycle(t2, gamma, table).valid
                if built != claimed:
                    return False, f"criterion breaks at {flat} over {gamma}"
                checked += 1
        return True, f"{checked} maps checked (16 + 256)"

    _run(
        results,
        "reduced construction criterion, exhaustively on small inputs",
        construction_reduced_exhaustive,
    )

    def construction_full_exhaustive():
        checked = 0
        for flat in itertools.product((0, 1), repeat=8):
            f = (flat[0:2], flat[2:4])
            g = (flat[4:6], flat[6:8])
            total = force_extension_full(Z2, t2, f, g)
            built = validate_lcs(total).valid
            claimed = is_full_2cocycle(t2, Z2, f, g).valid
            if built != claimed:
                return False, f"criterion breaks at {flat}"
            if built:
                if any(f[0][x] or f[x][0] for x in range(2)):
                    return False, "dot deformation does not vanish on zero pairs"
                if any(g[0][x] != g[0][0] or g[x][0] != g[0][0] for x in range(2)):
                    return False, "addition deformation varies on zero pairs"
            checked += 1
        return True, f"{checked} pairs checked"

    _run(
        results,
        "full construction criterion, exhaustively on the order-2 base",
        construction_full_exhaustive,
    )

    def construction_full_random():
        # random elements of the normalized full 2-cocycle group, each also
        # perturbed in one entry, so both verdicts of the criterion occur
        rng = random.Random(seed)
        system, read, _targets = _full_system(z4, 2, normalized=True)(2)
        rows, tags, _b_rows, _b_tags = _tagged(*system)
        gens = list(map(read, _kernel_mod(rows, tags, 2)))  # on every pair
        draws = 500
        valid_seen = invalid_seen = 0
        for _ in range(draws):
            flat = [0] * 32  # the chosen generators, added into one list
            for gen in gens:
                if rng.randrange(2):
                    for x, y in gen.items():
                        flat[x] += y
            flat = [v % 2 for v in flat]
            perturbed = flat[:]
            perturbed[rng.randrange(len(flat))] ^= 1
            for drawn, values in ((True, flat), (False, perturbed)):
                f = [values[4 * a : 4 * a + 4] for a in range(4)]
                g = [values[16 + 4 * a : 20 + 4 * a] for a in range(4)]
                built = validate_lcs(force_extension_full(Z2, z4, f, g)).valid
                claimed = is_full_2cocycle(z4, Z2, f, g).valid
                if built != claimed or (drawn and not claimed):
                    return False, f"criterion breaks at {values}"
                valid_seen += built
                invalid_seen += not built
        detail = (
            f"{2 * draws} random pairs, {valid_seen} valid, {invalid_seen} invalid, "
            "0 discrepancies"
        )
        return valid_seen > 0 and invalid_seen > 0, detail

    _run(
        results,
        "full construction criterion on random pairs over the order-4 base",
        construction_full_random,
    )

    def brace_dictionary():
        fbar = ReducedTwoCocycle(z4, Z2, _phi_table((0, 1, 1, 0)))
        f, _g = translate_to_brace_pair(Z2, z4_brace, fbar.f, None)
        brace_triple = build_brace_extension(Z2, z4_brace, f, None, reduced=True)
        lcs_triple = build_extension_reduced(Z2, z4, fbar)
        converted = brace_to_lcs(brace_triple.total)
        return (
            converted.add == lcs_triple.total.add
            and converted.dot == lcs_triple.total.dot
        )

    _run(
        results,
        "brace extensions translate to cycle set extensions table for table",
        brace_dictionary,
    )

    def classification_of_cyclic_4():
        entries = classify_extensions(z4, Z2, "cycle-type")
        if len(entries) != 4:
            return False, f"{len(entries)} classes instead of 4"
        for e in entries:
            if e.triple.total.order != 8 or not validate_lcs(e.triple.total).valid:
                return False, "an extension fails the axioms"
            if not validate_extension_triple(e.triple, "cycle-type").valid:
                return False, "a triple fails the extension checks"
        for e1, e2 in itertools.combinations(entries, 2):
            verdict, _w = extensions_equivalent(e1.triple, e2.triple)
            if verdict:
                return False, "two classes are equivalent"
        return True, "4 pairwise inequivalent extensions of order 8"

    _run(
        results,
        "classification of extensions of the cyclic structure of order 4",
        classification_of_cyclic_4,
    )

    def extraction_round_trip():
        for e in classify_extensions(z4, Z2, "cycle-type"):
            got = extract_cocycle(e.triple, "reduced")
            if got.f != e.cocycle.f:
                return False, "the canonical section does not recover the cocycle"
            rebuilt = build_extension_reduced(Z2, e.triple.base, got)
            verdict, _w = extensions_equivalent(e.triple, rebuilt)
            if not verdict:
                return False, "rebuilt cycle-type extension is not equivalent"
        for e in classify_extensions(t2, Z2, "general"):
            if not validate_lcs(e.triple.total).valid:
                return False, "a general class total fails the axioms"
            got = extract_cocycle(e.triple, "full")
            if got.f != e.cocycle.f or got.g != e.cocycle.g:
                return False, "the canonical section does not recover the pair"
            rebuilt = build_extension_full(Z2, e.triple.base, got, None)
            verdict, _w = extensions_equivalent(e.triple, rebuilt)
            if not verdict:
                return False, "rebuilt general extension is not equivalent"
        return True

    _run(
        results, "extract then rebuild gives equivalent extensions", extraction_round_trip
    )

    def shifted_section():
        base_cocycle = ReducedTwoCocycle(z4, Z2, _phi_table((0, 1, 1, 0)))
        triple = build_extension_reduced(Z2, z4, base_cocycle)
        theta = [0, 1, 0, 1]
        shifted = tuple(
            triple.total.add[triple.section[a]][triple.iota[theta[a]]]
            for a in range(4)
        )
        got = extract_cocycle(triple, "reduced", shifted)
        for a in range(4):
            for b in range(4):
                want = (base_cocycle.f[a][b][0] + theta[b] - theta[z4.dot[a][b]]) % 2
                if got.f[a][b] != (want,):
                    return False, "coboundary shift mismatch"
        ok, _w = cocycles_cohomologous(base_cocycle, got)
        return ok, "section shift changes the cocycle by a coboundary"

    _run(results, "changing the section shifts by a coboundary", shifted_section)

    def three_way_oracle():
        order_matrix = math.prod(full_cohomology(t2, Z2, 2, normalized=True))
        representatives = []
        for flat in itertools.product((0, 1), repeat=8):
            f = (flat[0:2], flat[2:4])
            g = (flat[4:6], flat[6:8])
            report = is_full_2cocycle(t2, Z2, f, g)
            if not (report.valid and report.normalized):
                continue
            pair = FullTwoCocycle(t2, Z2, f, g)
            if not any(_cohomologous_by_search(pair, rep) for rep in representatives):
                representatives.append(pair)
        order_enum = len(representatives)
        order_classify = len(classify_extensions(t2, Z2, "general"))
        detail = (
            f"matrix {order_matrix}, enumeration {order_enum}, "
            f"classification {order_classify}"
        )
        return order_matrix == order_enum == order_classify, detail

    _run(
        results,
        "three independent counts of the degree-2 classes agree",
        three_way_oracle,
    )

    def split_detection():
        for e in classify_extensions(z4, Z2, "cycle-type"):
            if additive_section(e.triple) is None:
                return False, "a direct-sum addition failed to split"
        twisted = build_extension_full(Z2, t2, ((0, 0), (0, 0)), ((0, 0), (0, 1)))
        if additive_section(twisted) is not None:
            return False, "a cyclic-4 addition claimed to split"
        return True

    _run(
        results, "additive sections are found exactly when they exist", split_detection
    )

    return results
