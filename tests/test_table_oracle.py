"""Structure and cocycle reports against the plain triple loops.

The library checks every law a row (a, b) at a time and collects
witnesses only on rows where a law fails; `table_oracle` holds the
element-by-element loops it replaced.  Both must give equal reports,
violations, witnesses and their order included, on valid and invalid
tables alike: every family below shows both verdicts.
"""

import itertools
import json
import random
import tracemalloc

import pytest

import table_oracle as oracle
from lcscohom import corpus
from lcscohom.abelian import parse_group_spec
from lcscohom.cli import main
from lcscohom.corpus import builtin_structure
from lcscohom.extensions import (
    classify_extensions,
    is_full_2cocycle,
    is_reduced_2cocycle,
)
from lcscohom.structures import (
    Brace,
    LinearCycleSet,
    lcs_to_brace,
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
