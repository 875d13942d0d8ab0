"""Structure and cocycle reports against the plain triple loops.

The library checks every law a row (a, b) at a time and collects
witnesses only on rows where a law fails; `table_oracle` holds the
element-by-element loops it replaced.  Both must give equal reports,
violations, witnesses and their order included, on valid and invalid
tables alike: every family below shows both verdicts.  Reports list
their witnesses when they are read; the reports here are read in either
order and must stay the same.
"""

import functools
import hashlib
import itertools
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import table_oracle as oracle
from lcscohom import corpus
from lcscohom.abelian import parse_group_spec
from lcscohom.cli import main
from lcscohom.corpus import builtin_structure
from lcscohom.errors import StructureValidationError
from lcscohom.extensions import (
    classify_extensions,
    is_full_2cocycle,
    is_reduced_2cocycle,
)
from lcscohom.structures import (
    Brace,
    LinearCycleSet,
    ValidationReport,
    Violation,
    lcs_to_brace,
    require_valid_lcs,
    save_structure,
    validate_brace,
    validate_lcs,
)

Z4LCS = builtin_structure("z4-lcs")
Z2 = parse_group_spec("Z/2")


def _validate(structure):
    if isinstance(structure, Brace):
        return validate_brace(structure), oracle.validate_brace(structure)
    return validate_lcs(structure), oracle.validate_lcs(structure)


def _assert_same_structure_reports(structures):
    verdicts = set()
    for s in structures:
        mine, ref = _validate(s)
        assert mine.to_dict() == ref.to_dict(), (s.add, s.kind)
        verdicts.add(mine.valid)
    assert verdicts == {True, False}


def test_every_enumeration_candidate(monkeypatch):
    seen = {"lcs": set(), "brace": set()}

    def checked(mine, ref):
        def check(structure):
            report = mine(structure)
            assert report.to_dict() == ref(structure).to_dict(), structure.add
            seen[report.kind].add(report.valid)
            return report

        return check

    monkeypatch.setattr(corpus, "validate_lcs", checked(validate_lcs, oracle.validate_lcs))
    monkeypatch.setattr(
        corpus, "validate_brace", checked(validate_brace, oracle.validate_brace)
    )
    for n in (1, 2, 3, 4):
        corpus.enumerate_lcs(n)
        corpus.enumerate_braces(n)
    assert seen == {"lcs": {True, False}, "brace": {True, False}}


def _full_product(n):
    """Every candidate of order n whose rows are all additive
    automorphisms, row 0 included: (rows, the cycle set with those dot
    rows, the brace with those lambda rows)."""
    for add in corpus._abelian_tables(n):
        for rows in itertools.product(corpus._automorphisms(add, n), repeat=n):
            circle = [[add[rows[a][b]][a] for b in range(n)] for a in range(n)]
            yield rows, LinearCycleSet(n, add, rows), Brace(n, add, circle)


@pytest.mark.parametrize("n, rejected", [(1, 0), (2, 0), (3, 4), (4, 1104)])
def test_enumerations_equal_the_filtered_full_product(n, rejected):
    cycle_sets, braces, moved_zero = [], [], 0
    for rows, lcs, brace in _full_product(n):
        lcs_valid = oracle.validate_lcs(lcs).valid
        brace_valid = oracle.validate_brace(brace).valid
        if rows[0] != tuple(range(n)):
            # the reject side of the pruning: no zero translation but the
            # identity passes either validator
            assert not (lcs_valid or brace_valid), rows
            assert not (validate_lcs(lcs).valid or validate_brace(brace).valid), rows
            moved_zero += 1
        if lcs_valid:
            cycle_sets.append(lcs)
        if brace_valid:
            braces.append(brace)
    assert moved_zero == rejected
    assert corpus.enumerate_lcs(n) == sorted(cycle_sets, key=lambda s: (s.add, s.dot))
    assert corpus.enumerate_braces(n) == sorted(braces, key=lambda s: (s.add, s.circle))


def test_every_table_pair_of_order_at_most_two():
    structures = []
    for n in (1, 2):
        tables = [
            [list(flat[i * n : (i + 1) * n]) for i in range(n)]
            for flat in itertools.product(range(n), repeat=n * n)
        ]
        for add, op in itertools.product(tables, repeat=2):
            structures.append(LinearCycleSet(n, add, op))
            structures.append(Brace(n, add, op))
    assert len(structures) == 2 * 257
    _assert_same_structure_reports(structures)


def _class_totals():
    """The class totals of z4-lcs over Z/2 (order 8, ext8 among them) and
    of ext8 over Z/2 (order 16, o16 among them), cycle-type flavor."""
    ext8s = [c.triple.total for c in classify_extensions(Z4LCS, Z2, "cycle-type")]
    o16s = [c.triple.total for c in classify_extensions(ext8s[1], Z2, "cycle-type")]
    return ext8s + o16s


def _perturbed(structure, rng, entries: int):
    """`structure` with `entries` table entries moved to another index."""
    n = structure.order
    second = "dot" if isinstance(structure, LinearCycleSet) else "circle"
    tables = {"add": [list(r) for r in structure.add]}
    tables[second] = [list(r) for r in getattr(structure, second)]
    for _ in range(entries):
        table = tables[rng.choice(("add", second))]
        a, b = rng.randrange(n), rng.randrange(n)
        table[a][b] = (table[a][b] + rng.randrange(1, n)) % n
    return type(structure)(n, tables["add"], tables[second])


@pytest.mark.parametrize("kind", ["lcs", "brace"])
def test_perturbed_class_totals(kind):
    rng = random.Random(6)
    totals = _class_totals()
    if kind == "brace":
        totals = [lcs_to_brace(t) for t in totals]
    structures = list(totals)
    for total in totals:
        for entries in (1, 2):
            structures.extend(_perturbed(total, rng, entries) for _ in range(6))
    _assert_same_structure_reports(structures)


def _perturbed_table(gamma, table, rng, entries: int):
    n = len(table)
    rows = [list(r) for r in table]
    nonzero = gamma.elements()[1:]
    for _ in range(entries):
        a, b = rng.randrange(n), rng.randrange(n)
        rows[a][b] = gamma.add(rows[a][b], rng.choice(nonzero))
    return rows


@pytest.mark.parametrize("spec", ["Z/2", "Z/4", "Z/6", "Z/2+Z/2"])
@pytest.mark.parametrize("flavor", ["cycle-type", "general"])
def test_perturbed_cocycles(spec, flavor):
    gamma = parse_group_spec(spec)
    rng = random.Random(spec)
    verdicts = set()
    for c in classify_extensions(Z4LCS, gamma, flavor):
        cases = [(c.cocycle.f, getattr(c.cocycle, "g", None))]
        for entries in (1, 2):
            for _ in range(3):
                f = _perturbed_table(gamma, c.cocycle.f, rng, entries)
                g = getattr(c.cocycle, "g", None)
                if g is not None and rng.random() < 0.5:
                    g = _perturbed_table(gamma, g, rng, entries)
                cases.append((f, g))
        for f, g in cases:
            if flavor == "cycle-type":
                mine = is_reduced_2cocycle(Z4LCS, gamma, f)
                ref = oracle.is_reduced_2cocycle(Z4LCS, gamma, f)
            else:
                mine = is_full_2cocycle(Z4LCS, gamma, f, g)
                ref = oracle.is_full_2cocycle(Z4LCS, gamma, f, g)
            assert mine.to_dict() == ref.to_dict(), (f, g)
            verdicts.add(mine.valid)
    assert verdicts == {True, False}


def test_order_one_cocycles():
    trivial = builtin_structure("trivial(1)")
    gamma = parse_group_spec("Z/3")
    for f, g in itertools.product([[0], [1]], [[0], [2]]):
        f, g = [f], [g]
        assert (
            is_reduced_2cocycle(trivial, gamma, f).to_dict()
            == oracle.is_reduced_2cocycle(trivial, gamma, f).to_dict()
        )
        assert (
            is_full_2cocycle(trivial, gamma, f, g).to_dict()
            == oracle.is_full_2cocycle(trivial, gamma, f, g).to_dict()
        )


BASES = [s for n in (1, 2, 3, 4) for s in corpus.enumerate_lcs(n)] + [Z4LCS]
SPECS = ("Z/2", "Z/3", "Z/4", "Z/6", "Z/2+Z/2")


@functools.lru_cache(maxsize=None)
def _class_cocycles(index, spec, flavor):
    base, gamma = BASES[index], parse_group_spec(spec)
    return [c.cocycle for c in classify_extensions(base, gamma, flavor)]


def _reports(base, gamma, f, g):
    """The library's report and the oracle's, for the flavor g implies."""
    if g is None:
        mine, ref = is_reduced_2cocycle, oracle.is_reduced_2cocycle
        return mine(base, gamma, f), ref(base, gamma, f)
    mine, ref = is_full_2cocycle, oracle.is_full_2cocycle
    return mine(base, gamma, f, g), ref(base, gamma, f, g)


def test_cocycle_reports_match_the_oracle():
    """On every base of order 1 to 4, random tables, class representatives
    and representatives perturbed in one entry give the oracle's report."""
    verdicts = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(0, len(BASES) - 1),
        st.sampled_from(SPECS),
        st.sampled_from(("cycle-type", "general")),
        st.data(),
    )
    def check(index, spec, flavor, data):
        base, gamma = BASES[index], parse_group_spec(spec)
        n = base.order
        if len(gamma.factors) == 1:
            # plain ints, unreduced, as a cocycle file may hold them
            m = gamma.order
            entry = st.integers(-m, 2 * m)
        else:
            entry = st.tuples(*(st.integers(-m, 2 * m) for m in gamma.factors))
        row = st.lists(entry, min_size=n, max_size=n)
        square = st.lists(row, min_size=n, max_size=n)
        cocycle = data.draw(st.sampled_from(_class_cocycles(index, spec, flavor)))
        general = flavor == "general"
        chosen = [cocycle.f, cocycle.g if general else None]
        perturbed = [[list(row) for row in t] if t else t for t in chosen]
        which = data.draw(st.integers(0, int(general)))
        a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        shift = data.draw(st.sampled_from(gamma.elements()[1:]))
        perturbed[which][a][b] = gamma.add(perturbed[which][a][b], shift)
        drawn = [data.draw(square), data.draw(square) if general else None]
        for f, g in (chosen, perturbed, drawn):
            mine, ref = _reports(base, gamma, f, g)
            assert mine.to_dict() == ref.to_dict()
            verdicts.add(mine.valid)

    check()
    assert verdicts == {True, False}


def _corrupted_z4():
    """z4-lcs with one dot entry moved: 25 violations of four laws."""
    dot = [list(row) for row in Z4LCS.dot]
    dot[1][2] = (dot[1][2] + 1) % 4
    return LinearCycleSet(4, [list(row) for row in Z4LCS.add], dot)


def _read_reports():
    """Fresh reports, with the oracle's, of a broken structure, a broken
    brace and broken cocycles of both flavors, and of valid ones."""
    broken = _corrupted_z4()
    brace = lcs_to_brace(Z4LCS)
    circle = [list(row) for row in brace.circle]
    circle[2][3] = (circle[2][3] + 1) % 4
    broken_brace = Brace(4, brace.add, circle)
    f = [[1 if (a, b) == (1, 2) else 0 for b in range(4)] for a in range(4)]
    g = [[1 if (a, b) == (0, 3) else 0 for b in range(4)] for a in range(4)]
    zero = [[0] * 4 for _ in range(4)]
    return [
        (validate_lcs(broken), oracle.validate_lcs(broken)),
        (validate_brace(broken_brace), oracle.validate_brace(broken_brace)),
        _reports(Z4LCS, Z2, f, None),
        _reports(Z4LCS, Z2, zero, g),
        (validate_lcs(Z4LCS), oracle.validate_lcs(Z4LCS)),
        _reports(Z4LCS, Z2, zero, zero),
    ]


@pytest.mark.parametrize("first", ["valid", "violations"])
def test_witnesses_are_walked_on_read(first):
    verdicts = []
    for mine, ref in _read_reports():
        if first == "valid":
            verdict = mine.valid
            listed = mine.violations
        else:
            listed = mine.violations
            verdict = mine.valid
        assert verdict == ref.valid and listed == ref.violations
        # repeated reads return the one list
        assert mine.violations is listed and mine.valid == verdict
        assert mine.to_dict() == ref.to_dict()
        verdicts.append(verdict)
    assert verdicts == [False] * 4 + [True] * 2


def test_report_built_by_hand_holds_an_appendable_list():
    report = ValidationReport("lcs", 2)
    assert report.valid and report.violations == []
    report.violations.append(Violation("add-neutral", ()))
    assert not report.valid
    assert report.to_dict() == {
        "kind": "lcs",
        "order": 2,
        "valid": False,
        "violations": [{"axiom": "add-neutral", "witness": []}],
    }


def test_require_valid_lcs_message():
    with pytest.raises(StructureValidationError) as exc:
        require_valid_lcs(_corrupted_z4())
    assert str(exc.value) == (
        "linear cycle set of order 4 is invalid (cycle-identity, "
        "sum-translation-compatibility, translation-additivity, "
        "translation-bijectivity)"
    )
    assert exc.value.report.to_dict() == oracle.validate_lcs(_corrupted_z4()).to_dict()


def test_cli_validate_output_on_a_corrupted_table(tmp_path, capsys):
    path = tmp_path / "broken.json"
    save_structure(_corrupted_z4(), path)
    ref = oracle.validate_lcs(_corrupted_z4())
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert out == json.dumps(ref.to_dict(), sort_keys=True, indent=2) + "\n"
    # the bytes printed before witnesses were walked on read
    digest = "d3ba54fd7ef5922675a797a2b58ac61b49167b8ccf327f8e27a65b9cdd2f7a8b"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert main(["--text", "validate", str(path)]) == 1
    assert capsys.readouterr().out == (
        "invalid lcs: translation-bijectivity fails at (1,) (25 violations)\n"
    )


# A large prime modulus: a table of |Gamma| coefficient entries would take
# megabytes, so the checks must work on the residues they are given.
BIG = parse_group_spec("Z/1000003")
PEAK_BYTES = 200_000


def _big_coboundary():
    """The full coboundary of theta over Z/1000003, and a broken copy."""
    n = Z4LCS.order
    add, dot = Z4LCS.add, Z4LCS.dot
    theta = (0, 123_456, 999_999, 42)
    m = BIG.factors[0]
    f = [[(theta[dot[a][b]] - theta[b]) % m for b in range(n)] for a in range(n)]
    g = [[(theta[add[a][b]] - theta[a] - theta[b]) % m for b in range(n)] for a in range(n)]
    broken = [row[:] for row in f]
    broken[1][2] = (broken[1][2] + 7) % m
    return f, g, broken


def _peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_large_coefficients_stay_small():
    f, g, broken = _big_coboundary()
    report, peak = _peak(lambda: is_full_2cocycle(Z4LCS, BIG, f, g))
    assert report.valid and peak < PEAK_BYTES
    report, peak = _peak(lambda: is_full_2cocycle(Z4LCS, BIG, broken, g))
    assert not report.valid and peak < PEAK_BYTES
    assert report.to_dict() == oracle.is_full_2cocycle(Z4LCS, BIG, broken, g).to_dict()


def test_large_coefficients_cocycle_check_cli(tmp_path, capsys):
    f, g, broken = _big_coboundary()
    for values, expected in ((f, 0), (broken, 1)):
        path = tmp_path / "cocycle.json"
        data = {"degree": 2, "coeff": str(BIG), "values": sum(values + g, [])}
        path.write_text(json.dumps(data))
        argv = ["cocycle-check", "builtin:z4-lcs", "--cocycle", str(path), "--flavor", "full"]
        code, peak = _peak(lambda: main(argv))
        out = json.loads(capsys.readouterr().out)
        assert (code, out["valid"]) == (expected, expected == 0)
        assert peak < PEAK_BYTES
