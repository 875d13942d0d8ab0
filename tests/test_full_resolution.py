"""Plain full cohomology on a resolution of the brace group, by the one
resolved writer of both theories.

`reduced._resolved_system` writes Tot Hom_G(P_i, Hom(K_j, Z/q)) from the
presentations it is given: K_1 alone, as (A, +), for the reduced theory,
and every shuffle quotient K_j (`bicomplex._harrison`) for the full one.
The `bicomplex` docstring says why the resolution P may replace the bar
resolution there.  Checked here:

- the reduced systems are written row for row as before the writer
  served both theories (digests taken from the reduced-only writer);
- the plain full groups equal those of the tuple route, which writes
  the bar resolution's cochains (`bicomplex._full_system`), on every
  cycle set and brace of order 2 to 4 and on larger cases; G acting
  trivially on K_j, or dv without its sign (-1)^i, must break that;
- the budgets refuse what they refused before, before any resolution;
- a dense writer over F_p that shares only the resolution with the
  library (`dense_hom_oracle`) gives the reduced ranks of o16, where the
  tuple route cannot reach, and a trivial action changes them.
"""

import hashlib

import pytest
from compile_caches import clear_compile_caches
from dense_hom_oracle import reduced_ranks
from ext8 import EXT8
from test_resolution import S3LCS

import lcscohom.reduced
from lcscohom.abelian import FiniteAbelianGroup, merge_invariants, parse_group_spec
from lcscohom.bicomplex import _full_presentations, _full_system, full_cohomology
from lcscohom.cli import main
from lcscohom.corpus import builtin_structure, enumerate_braces, enumerate_lcs, trivial_lcs
from lcscohom.errors import BudgetError, LatticeError
from lcscohom.extensions import classify_extensions
from lcscohom.linalg import _prime_powers
from lcscohom.reduced import (
    _invariants,
    _over_factors,
    _resolved_system,
    _tables,
    _written_resolved,
    reduced_cohomology,
)
from lcscohom.structures import brace_to_lcs, lcs_to_brace, save_structure

Z2 = parse_group_spec("Z/2")
Z4LCS = builtin_structure("z4-lcs")

# ---------------------------------------------------------------------------
# The reduced systems, row for row

DIGEST_STRUCTURES = {
    "z4-lcs": Z4LCS,
    "trivial(2)": trivial_lcs(FiniteAbelianGroup((2,))),
    "ext8": EXT8,
    "trivial(6)": builtin_structure("trivial(6)"),
}

# the items of every row in insertion order, which steers the pivot
# tie-breaks of the elimination, as `test_full_system_digests` takes them
RESOLVED = {
    ("z4-lcs", 1, 2): "97fbf9d7030db56f02bb060af8fd2ec4ee338c7a7c70d7bdeceb27d5d1ff0204",
    ("z4-lcs", 1, 3): "3ef51aa27defef887001fe48ca9001ccad63db1dc47c0bec495b4310ad98406c",
    ("z4-lcs", 1, 4): "3ef51aa27defef887001fe48ca9001ccad63db1dc47c0bec495b4310ad98406c",
    ("z4-lcs", 1, 8): "3ef51aa27defef887001fe48ca9001ccad63db1dc47c0bec495b4310ad98406c",
    ("z4-lcs", 2, 2): "f85f1dcd59fa4fa5c2e4b32cbda0e41c61fc95cbb26664ffa13e09b1957c42a8",
    ("z4-lcs", 2, 3): "8f5ae145ebde71d4af5364f8bd11c540dc70418676c9504dcfa627b3d4c62bf2",
    ("z4-lcs", 2, 4): "513950695b8abf67c75bd19635cb178487206a507cbd5584c01428e2ba165413",
    ("z4-lcs", 2, 8): "2e1f4299f8e648ba21008a7e1bdbe38cac96d3427e7215d20e02d940f4c851af",
    ("z4-lcs", 3, 2): "670cd577433c8fe01d9769f25a36a4a0839986580b63dafd7a63a6ed3fec7e96",
    ("z4-lcs", 3, 3): "9491a13ab9e2c27177dba5db9b1feea5dca328d50105362b785cd3165e06269d",
    ("z4-lcs", 3, 4): "5b32dd2ae77ef76f295128bfb9f818a1e1283f738142c996484ec07ad65413ee",
    ("z4-lcs", 3, 8): "e6de71d83ab34ef6a8d02ce2876510515cd01fd188fa623a42a85d804a22ff98",
    ("z4-lcs", 4, 2): "4a3520cb437746b06cc339532402be880103a42cf06a0b1bc65f81b24bb284a7",
    ("z4-lcs", 4, 3): "6de706638d3eb4039b1d922013b031f4ff4f2319fffce240fe995656f2abbe6a",
    ("z4-lcs", 4, 4): "fd6913f7d05cc1338cde9aae19c95b14af007b9ac030e36bff36319b6fa4a3c3",
    ("z4-lcs", 4, 8): "47e7ca657d8862b8d602670682bab10d0f25b6567c7116df6b5f02124a5f107e",
    ("trivial(2)", 1, 2): "731b6bb1a0db7cf778c46091e50f7a62a83914bb248947cda242593de0cc3a0d",
    ("trivial(2)", 1, 3): "731b6bb1a0db7cf778c46091e50f7a62a83914bb248947cda242593de0cc3a0d",
    ("trivial(2)", 1, 4): "731b6bb1a0db7cf778c46091e50f7a62a83914bb248947cda242593de0cc3a0d",
    ("trivial(2)", 1, 8): "731b6bb1a0db7cf778c46091e50f7a62a83914bb248947cda242593de0cc3a0d",
    ("trivial(2)", 2, 2): "1ab00e18536abc0b7486eda69ffb5b16fbd4a346572eca1273e2f243ecbac83f",
    ("trivial(2)", 2, 3): "e18191f80b8294c33d2db6a6634679db1fb1b3f691645fa1a53c15f571685a3a",
    ("trivial(2)", 2, 4): "e18191f80b8294c33d2db6a6634679db1fb1b3f691645fa1a53c15f571685a3a",
    ("trivial(2)", 2, 8): "e18191f80b8294c33d2db6a6634679db1fb1b3f691645fa1a53c15f571685a3a",
    ("trivial(2)", 3, 2): "1ab00e18536abc0b7486eda69ffb5b16fbd4a346572eca1273e2f243ecbac83f",
    ("trivial(2)", 3, 3): "b3055d836c226b7381064fed8535419dc932c8e18f6b8711151464d95478222b",
    ("trivial(2)", 3, 4): "b3055d836c226b7381064fed8535419dc932c8e18f6b8711151464d95478222b",
    ("trivial(2)", 3, 8): "b3055d836c226b7381064fed8535419dc932c8e18f6b8711151464d95478222b",
    ("trivial(2)", 4, 2): "1ab00e18536abc0b7486eda69ffb5b16fbd4a346572eca1273e2f243ecbac83f",
    ("trivial(2)", 4, 3): "e18191f80b8294c33d2db6a6634679db1fb1b3f691645fa1a53c15f571685a3a",
    ("trivial(2)", 4, 4): "e18191f80b8294c33d2db6a6634679db1fb1b3f691645fa1a53c15f571685a3a",
    ("trivial(2)", 4, 8): "e18191f80b8294c33d2db6a6634679db1fb1b3f691645fa1a53c15f571685a3a",
    ("ext8", 1, 2): "e23083ef5e6dd06280c98fd39627f4a0ee93aa4d84a63ba028dbff73b89136e3",
    ("ext8", 1, 3): "f9c7a4ee405867c556627dc5faa89cdbe4ebfe255cd316a728a475a167f7caa3",
    ("ext8", 1, 4): "f9c7a4ee405867c556627dc5faa89cdbe4ebfe255cd316a728a475a167f7caa3",
    ("ext8", 1, 8): "f9c7a4ee405867c556627dc5faa89cdbe4ebfe255cd316a728a475a167f7caa3",
    ("ext8", 2, 2): "ab9a9cb96aa7fa4b848a2776221e6493391c5b0298df8f470faa145227b169c8",
    ("ext8", 2, 3): "db5702adf59d395881b145f3af77ca7662140238388f6ef262b4d63d1f04fc13",
    ("ext8", 2, 4): "9609f91d1b97dbac762f6557afcc7568a6b2e949a002529cf411633a49e1ea21",
    ("ext8", 2, 8): "5c22a49cf6e8d0b8afc022cdcd1f3fd065871cae4185515d940e42edd0d17d14",
    ("ext8", 3, 2): "6781c45333d00832a47ffc15357e0a79f3409ba32f015cf13681be8c192e128e",
    ("ext8", 3, 3): "10f567e654bd805c62b6ad9014c12961579080491cc68eff2b6cb44c72396285",
    ("ext8", 3, 4): "692fd3f7c6ebf1c39ef53f968129c378df0f9fc8323b3058f2d0e13aaba0daf9",
    ("ext8", 3, 8): "36cf4953fa895afabd283183c24a4ee96333cae643187a9cc779b1d74310051c",
    ("ext8", 4, 2): "14d184638573a017dfe5ae86e2240cbdf7f307aeb94f4dde545b826be67d896c",
    ("ext8", 4, 3): "dd26cf122fa3a680972b8274b5d94d491c4cc162c3c639c331126bcd6a80f0a9",
    ("ext8", 4, 4): "996f55d827116515baa83a36e68c083b5b7d0e02104db995f8f081364cc5d4e8",
    ("ext8", 4, 8): "885a6f9e46c3c33eb1f3f5fc07e59ea59a82f9a72291fe46b2ab0cf7ef2f6f36",
    ("trivial(6)", 1, 2): "1009f578a00b0adac1af75267dd52fa0f2686f4605ba7e7712f702228f4560f6",
    ("trivial(6)", 1, 3): "1009f578a00b0adac1af75267dd52fa0f2686f4605ba7e7712f702228f4560f6",
    ("trivial(6)", 1, 4): "1009f578a00b0adac1af75267dd52fa0f2686f4605ba7e7712f702228f4560f6",
    ("trivial(6)", 1, 8): "1009f578a00b0adac1af75267dd52fa0f2686f4605ba7e7712f702228f4560f6",
    ("trivial(6)", 2, 2): "731a2a6a8d0b9d0d18aff91b1402f70754bf96c48315912a1a387e7967e15fd9",
    ("trivial(6)", 2, 3): "731a2a6a8d0b9d0d18aff91b1402f70754bf96c48315912a1a387e7967e15fd9",
    ("trivial(6)", 2, 4): "30cde80b1c816cce4bb68adb7b1c57a18287ccf0e4d63b064a825547a61c3152",
    ("trivial(6)", 2, 8): "c3d535f081d4ea52c7685168a5e03d60076ac05ef1bc3fca4f7138dec639cbe5",
    ("trivial(6)", 3, 2): "731a2a6a8d0b9d0d18aff91b1402f70754bf96c48315912a1a387e7967e15fd9",
    ("trivial(6)", 3, 3): "731a2a6a8d0b9d0d18aff91b1402f70754bf96c48315912a1a387e7967e15fd9",
    ("trivial(6)", 3, 4): "ef5ded07b9fc3f0d29d1e79ce17d6c5d2f263048b044ae17960d3ba35012c28f",
    ("trivial(6)", 3, 8): "0c40cb71ac0a393b445af1dcc65a5435ce8c1fb195cc335f4394fd0b672b95bf",
    ("trivial(6)", 4, 2): "731a2a6a8d0b9d0d18aff91b1402f70754bf96c48315912a1a387e7967e15fd9",
    ("trivial(6)", 4, 3): "731a2a6a8d0b9d0d18aff91b1402f70754bf96c48315912a1a387e7967e15fd9",
    ("trivial(6)", 4, 4): "30cde80b1c816cce4bb68adb7b1c57a18287ccf0e4d63b064a825547a61c3152",
    ("trivial(6)", 4, 8): "c3d535f081d4ea52c7685168a5e03d60076ac05ef1bc3fca4f7138dec639cbe5",
}


def system_digest(system) -> str:
    cocycles, constraints, coboundaries, dead, dead_below = system
    digest = hashlib.sha256()
    for rows in (cocycles, constraints, coboundaries):
        for row in rows:
            digest.update(repr(list(row.items())).encode())
        digest.update(b"|")
    digest.update(repr((sorted(dead), sorted(dead_below))).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name, k, q", sorted(RESOLVED))
def test_the_reduced_resolved_systems_are_unchanged(name, k, q):
    system = _written_resolved(DIGEST_STRUCTURES[name], k, q)[0]
    assert system_digest(system) == RESOLVED[name, k, q]


# ---------------------------------------------------------------------------
# The full groups against the tuple route

SMALL = [(f"lcs{n}-{i}", s) for n in (2, 3, 4) for i, s in enumerate(enumerate_lcs(n))]
# every brace of order 2 to 4 is one of these cycle sets, table for table
BRACES = [brace_to_lcs(b) for n in (2, 3, 4) for b in enumerate_braces(n)]
SMALL_CASES = [
    (name, s, spec, d)
    for name, s in SMALL
    for spec in ("Z/2", "Z/3", "Z/4", "Z/2+Z/2", "Z/6")
    for d in (1, 2, 3)
]
MORE_CASES = [
    (name, s, "Z/9", d)
    for name, s in (
        ("trivial(1)", builtin_structure("trivial(1)")),
        ("trivial(3)", builtin_structure("trivial(3)")),
        ("s3", S3LCS),
    )
    for d in (1, 2, 3)
]
MORE_CASES += [("ext8", EXT8, "Z/2", d) for d in (2, 3)]
MORE_CASES += [("z4-lcs", Z4LCS, "Z/2", d) for d in (4, 5)]


def tuple_route(structure, coeffs, degree):
    over = _full_system(structure, degree)
    return _over_factors(coeffs, lambda m: _invariants(over(m)[0], m))


def resolved_route(structure, coeffs, degree, dot):
    """The plain full groups written afresh by the resolved writer, with
    G acting on every K_j through `dot`."""
    mul = lcs_to_brace(structure).circle

    def over(m):
        parts = []
        for p, e in _prime_powers(m):
            pres = _full_presentations(structure.order, degree, p**e)
            written = _resolved_system(
                mul, dot, structure.add, degree, p**e, pres, _tables(structure)
            )
            parts.append(_invariants(written[0], p**e))
        return merge_invariants(*parts)

    return _over_factors(coeffs, over)


def test_the_small_braces_are_the_small_cycle_sets():
    assert len(BRACES) == len(SMALL) and set(BRACES) == {s for _name, s in SMALL}


def test_the_resolved_full_groups_match_the_tuple_route():
    for name, s, spec, degree in SMALL_CASES + MORE_CASES:
        coeffs = parse_group_spec(spec)
        expected = tuple_route(s, coeffs, degree)
        assert full_cohomology(s, coeffs, degree) == expected, (name, spec, degree)


def test_the_resolved_route_reaches_past_the_tuple_route(monkeypatch):
    # past the default budget the tuple route takes seconds and hundreds of
    # MB: full H^4(ext8; Z/2), computed once by it, is frozen here
    monkeypatch.setenv("LCSCOHOM_BUDGET", "1000000")
    try:
        assert full_cohomology(EXT8, Z2, 4) == [2] * 15
    finally:
        clear_compile_caches()  # the kept system is large


CONTROL_CASES = [case for case in SMALL_CASES if case[2] in ("Z/2", "Z/3", "Z/4")]


def changed(dot_of, expected) -> int:
    """The control cases whose groups the resolved writer, written afresh
    with G acting through dot_of(structure), takes away from the tuple
    route's, `expected` in step, or whose boundaries it makes no
    cocycles."""
    count = 0
    for (_name, s, spec, degree), groups in zip(CONTROL_CASES, expected):
        coeffs = parse_group_spec(spec)
        try:
            count += resolved_route(s, coeffs, degree, dot_of(s)) != groups
        except LatticeError:
            count += 1
    return count


def test_the_action_on_k_and_the_sign_of_dv_are_needed(monkeypatch):
    # the tuple route's groups, read before its dv writer is patched below
    expected = [tuple_route(s, parse_group_spec(spec), d) for _n, s, spec, d in CONTROL_CASES]
    assert changed(lambda s: s.dot, expected) == 0
    # G acting trivially on every K_j
    trivial = changed(lambda s: [tuple(range(s.order))] * s.order, expected)
    # dv written without its sign (-1)^i
    real = lcscohom.reduced._write_vertical

    def unsigned(below, columns, prefixes, ts, pres, sign, faces):
        return real(below, columns, prefixes, ts, pres, 1, faces)

    monkeypatch.setattr(lcscohom.reduced, "_write_vertical", unsigned)
    signless = changed(lambda s: s.dot, expected)
    assert trivial > 0 and signless > 0, (trivial, signless, len(CONTROL_CASES))


# ---------------------------------------------------------------------------
# Budgets

REFUSED = {
    "z4-lcs": (
        Z4LCS,
        6,
        "the total degree-7 basis needs 114688 basis elements, over the budget of 60000"
        " (set LCSCOHOM_BUDGET to raise it)",
    ),
    "ext8": (
        EXT8,
        4,
        "the total degree-5 basis needs 163840 basis elements, over the budget of 60000"
        " (set LCSCOHOM_BUDGET to raise it)",
    ),
}


def test_budgets_refuse_before_any_resolution(monkeypatch, capsys, tmp_path):
    def refuse(*_args):
        raise AssertionError("a resolution was built")

    monkeypatch.delenv("LCSCOHOM_BUDGET", raising=False)
    clear_compile_caches()
    monkeypatch.setattr(lcscohom.reduced, "_resolution", refuse)
    for name, (s, degree, text) in REFUSED.items():
        with pytest.raises(BudgetError) as refused:
            full_cohomology(s, Z2, degree)
        assert str(refused.value) == text, name
        path = tmp_path / f"{name}.json"
        save_structure(s, str(path))
        argv = ["cohomology", str(path), "--theory", "full", "--coeff", "Z/2"]
        assert main([*argv, "--degree", str(degree)]) == 2, name
        out, err = capsys.readouterr()
        assert out == "" and text in err, name
    # one degree below ext8's refusal the resolution is reached
    with pytest.raises(AssertionError, match="a resolution was built"):
        full_cohomology(EXT8, Z2, 3)
    monkeypatch.undo()
    assert full_cohomology(EXT8, Z2, 3) == [2] * 7


# ---------------------------------------------------------------------------
# A second path: dense Hom_G over F_p


@pytest.fixture(scope="module")
def o16():
    """The last cycle-type class total of ext8 over Z/2."""
    return classify_extensions(EXT8, Z2, "cycle-type")[-1].triple.total


def test_a_dense_writer_gives_the_reduced_ranks_of_o16(o16, monkeypatch):
    ranks = reduced_ranks(o16, 2, 6)
    assert ranks == [1, 2, 3, 5, 7, 10]
    monkeypatch.setenv("LCSCOHOM_BUDGET", "10000000000")
    for k, rank in enumerate(ranks, start=1):
        assert reduced_cohomology(o16, Z2, k) == [2] * rank, k
    for name, s in (("z4-lcs", Z4LCS), ("ext8", EXT8), ("s3", S3LCS)):
        for p in (2, 3):
            library = [len(reduced_cohomology(s, parse_group_spec(f"Z/{p}"), k)) for k in (1, 2, 3)]
            assert reduced_ranks(s, p, 3) == library, (name, p)
    # G acting trivially on Hom(A, F_2) changes a rank
    trivial = [tuple(range(o16.order))] * o16.order
    assert reduced_ranks(o16, 2, 6, trivial) != ranks
