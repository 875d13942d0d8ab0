"""End-to-end command line tests, run in process through cli.main.

Every command is exercised through its JSON contract: exit code 0 for
verified claims, 1 for failed verification, 2 for unusable input.
"""

import json
import time

import pytest

from lcscohom.abelian import FiniteAbelianGroup
from lcscohom.bicomplex import dh_matrix
from lcscohom.cli import main
from lcscohom.corpus import builtin_structure
from lcscohom.extensions import ReducedTwoCocycle, two_cocycle_to_dict
from lcscohom.structures import structure_to_dict

Z2 = FiniteAbelianGroup((2,))
Z4LCS = builtin_structure("z4-lcs")

PHI_A = (0, 1, 1, 0)
PHI_B = (0, 0, 1, 1)


def phi_cocycle_dict(phi):
    f = tuple(tuple((b % 2) * phi[a] % 2 for b in range(4)) for a in range(4))
    return two_cocycle_to_dict(ReducedTwoCocycle(Z4LCS, Z2, f))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_validate_builtin(capsys):
    code, out, err = run(capsys, "validate", "builtin:z4-lcs")
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert report["kind"] == "lcs"
    assert err == ""


def test_validate_text_mode(capsys):
    code, out, _ = run(capsys, "--text", "validate", "builtin:z4-brace")
    assert code == 0
    assert out == "valid brace of order 4\n"


def test_validate_invalid_structure(capsys, tmp_path):
    data = {
        "kind": "lcs",
        "order": 2,
        "add": [[0, 1], [1, 0]],
        "dot": [[0, 1], [1, 0]],
    }
    path = write_json(tmp_path, "bad.json", data)
    code, out, _ = run(capsys, "validate", path)
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    assert report["violations"]


def test_validate_malformed_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["kind"] == "MalformedTableError"


def test_validate_unreadable_file(capsys, tmp_path):
    undecodable = tmp_path / "binary.json"
    undecodable.write_bytes(b"\xff\xfe{")
    for path in (tmp_path / "absent.json", undecodable):
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert json.loads(err)["kind"] == "MalformedTableError"


def test_unknown_builtin(capsys):
    code, _, err = run(capsys, "validate", "builtin:mystery")
    assert code == 2
    assert json.loads(err)["kind"] == "UnknownStructureError"


def test_convert_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "convert", "builtin:z4-brace")
    assert code == 0
    first = json.loads(out)
    assert first == structure_to_dict(Z4LCS)
    path = write_json(tmp_path, "step.json", first)
    code, out, _ = run(capsys, "convert", path)
    assert code == 0
    assert json.loads(out) == structure_to_dict(builtin_structure("z4-brace"))


def test_cohomology_reduced(capsys):
    code, out, _ = run(
        capsys,
        "cohomology",
        "builtin:z4-lcs",
        "--coeff",
        "Z/2",
        "--degree",
        "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"group": "Z/2+Z/2", "invariants": [2, 2]}


def test_cohomology_text(capsys):
    code, out, _ = run(
        capsys,
        "--text",
        "cohomology",
        "builtin:z4-lcs",
        "--coeff",
        "Z/2",
        "--degree",
        "2",
    )
    assert code == 0
    assert out == "Z/2+Z/2\n"


def test_cohomology_cs_theory(capsys):
    code, out, _ = run(
        capsys,
        "cohomology",
        "builtin:z4-lcs",
        "--theory",
        "cs",
        "--coeff",
        "Z/2",
        "--degree",
        "2",
    )
    assert code == 0
    assert json.loads(out)["invariants"] == [2] * 12


def test_cohomology_cs_rejects_normalized(capsys):
    code, _, err = run(
        capsys,
        "cohomology",
        "builtin:z4-lcs",
        "--theory",
        "cs",
        "--normalized",
        "--coeff",
        "Z/2",
        "--degree",
        "2",
    )
    assert code == 2
    assert json.loads(err)["kind"] == "ParameterError"


def test_cohomology_full_theory(capsys):
    code, out, _ = run(
        capsys,
        "cohomology",
        "builtin:z4-lcs",
        "--theory",
        "full",
        "--normalized",
        "--coeff",
        "Z/2",
        "--degree",
        "2",
    )
    assert code == 0
    assert json.loads(out)["invariants"] == [2, 2, 2]


def test_cohomology_bad_degree(capsys):
    code, _, err = run(
        capsys,
        "cohomology",
        "builtin:z4-lcs",
        "--coeff",
        "Z/2",
        "--degree",
        "0",
    )
    assert code == 2
    assert json.loads(err)["kind"] == "DegreeError"


def test_homology(capsys):
    code, out, _ = run(
        capsys,
        "homology",
        "builtin:z4-lcs",
        "--coeff",
        "Z/2",
        "--degree",
        "1",
    )
    assert code == 0
    assert json.loads(out)["invariants"] == [2]


def test_brace_input_is_converted(capsys):
    code, out, _ = run(
        capsys,
        "cohomology",
        "builtin:z4-brace",
        "--coeff",
        "Z/2",
        "--degree",
        "2",
    )
    assert code == 0
    assert json.loads(out)["invariants"] == [2, 2]


def test_cocycle_check_valid(capsys, tmp_path):
    path = write_json(tmp_path, "phi.json", phi_cocycle_dict(PHI_A))
    code, out, _ = run(capsys, "cocycle-check", "builtin:z4-lcs", "--cocycle", path)
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert report["normalized"] is True


def test_cocycle_check_invalid(capsys, tmp_path):
    path = write_json(
        tmp_path, "ones.json", {"degree": 2, "values": [1] * 16}
    )
    code, out, _ = run(
        capsys,
        "cocycle-check",
        "builtin:z4-lcs",
        "--cocycle",
        path,
        "--coeff",
        "Z/2",
    )
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    axioms = {v["axiom"] for v in report["violations"]}
    assert "second-argument-additivity" in axioms


def test_cocycle_check_coeff_mismatch(capsys, tmp_path):
    path = write_json(tmp_path, "phi.json", phi_cocycle_dict(PHI_A))
    code, _, err = run(
        capsys,
        "cocycle-check",
        "builtin:z4-lcs",
        "--cocycle",
        path,
        "--coeff",
        "Z/4",
    )
    assert code == 2
    assert json.loads(err)["kind"] == "MalformedTableError"


def test_cocycle_check_needs_some_coeff(capsys, tmp_path):
    path = write_json(tmp_path, "mystery.json", {"degree": 2, "values": [0] * 16})
    code, _, err = run(capsys, "cocycle-check", "builtin:z4-lcs", "--cocycle", path)
    assert code == 2
    assert json.loads(err)["kind"] == "MalformedTableError"


def extend_to_file(capsys, tmp_path, phi, name):
    cocycle_path = write_json(tmp_path, f"c-{name}", phi_cocycle_dict(phi))
    code, out, _ = run(
        capsys, "extend", "builtin:z4-lcs", "--cocycle", cocycle_path
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"gamma", "structure"}
    assert payload["structure"]["order"] == 8
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_extend_and_equivalence(capsys, tmp_path):
    ext_a = extend_to_file(capsys, tmp_path, PHI_A, "a.json")
    ext_b = extend_to_file(capsys, tmp_path, PHI_B, "b.json")

    code, out, _ = run(capsys, "equivalent", ext_a, ext_a)
    assert code == 0
    payload = json.loads(out)
    assert payload["equivalent"] is True
    witness = payload["witness"]
    assert sorted(witness["map"]) == list(range(8))
    assert all(isinstance(v, int) for v in witness["theta"])

    code, out, _ = run(capsys, "equivalent", ext_a, ext_b)
    assert code == 1
    assert json.loads(out) == {"equivalent": False, "witness": None}

    code, out, _ = run(capsys, "--text", "equivalent", ext_a, ext_b)
    assert code == 1
    assert out == "not equivalent\n"


def test_equivalent_rejects_broken_extension(capsys, tmp_path):
    ext = extend_to_file(capsys, tmp_path, PHI_A, "a.json")
    data = json.loads((tmp_path / "a.json").read_text())
    table = data["structure"]["dot"]
    table[0][0], table[0][1] = table[0][1], table[0][0]
    broken = write_json(tmp_path, "broken.json", data)
    code, _, err = run(capsys, "equivalent", ext, broken)
    assert code == 1
    payload = json.loads(err)
    assert payload["kind"] == "MorphismError"
    assert "failing" in payload["error"]


def test_classify(capsys):
    code, out, _ = run(
        capsys, "classify", "builtin:z4-lcs", "--coeff", "Z/2"
    )
    assert code == 0
    entries = json.loads(out)
    assert len(entries) == 4
    for k, entry in enumerate(entries):
        assert entry["class_index"] == k
        assert set(entry) == {"class_index", "cocycle", "extension"}
        assert entry["extension"]["structure"]["order"] == 8
    again = run(capsys, "classify", "builtin:z4-lcs", "--coeff", "Z/2")
    assert again[1] == out


def test_classify_general_flavor(capsys):
    code, out, _ = run(
        capsys,
        "--text",
        "classify",
        "builtin:trivial(2)",
        "--coeff",
        "Z/2",
        "--flavor",
        "general",
    )
    assert code == 0
    assert out == "4 classes\n"


def test_bicomplex_check(capsys):
    code, out, _ = run(
        capsys, "bicomplex-check", "builtin:z4-lcs", "--max-degree", "3"
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["max_degree"] == 3
    assert all(c["ok"] for c in report["checks"])


def test_bicomplex_dump(capsys):
    code, out, _ = run(
        capsys, "bicomplex-check", "builtin:z4-lcs", "--bidegree", "1,1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dv"] is None
    assert payload["dh"] == dh_matrix(Z4LCS, 1, 1).data


def test_bicomplex_dump_bad_bidegree(capsys):
    code, _, err = run(
        capsys, "bicomplex-check", "builtin:z4-lcs", "--bidegree", "0,1"
    )
    assert code == 2
    assert json.loads(err)["kind"] == "ParameterError"
    code, _, err = run(
        capsys, "bicomplex-check", "builtin:z4-lcs", "--bidegree", "x"
    )
    assert code == 2


def test_argparse_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "builtin:z4-lcs", "--degree", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_battery(capsys):
    code, out, _ = run(capsys, "verify-paper", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["claims"]) >= 20
    assert all(c["ok"] for c in payload["claims"])


def test_verify_battery_text(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1].endswith("claims verified")
    assert all(line.startswith("ok") for line in lines[:-1])


@pytest.mark.parametrize(
    "modulus, code",
    [
        (2**61 - 1, 0),  # a large prime
        ((2**31 - 1) * (2**61 - 1), 0),  # a large semiprime that factors
        (1099511627689 * 1099511627791, 2),  # a semiprime past the budget
    ],
)
def test_large_moduli_finish_quickly(capsys, modulus, code):
    start = time.perf_counter()
    got, out, err = run(
        capsys, "cohomology", "builtin:z4-lcs", "--coeff", f"Z/{modulus}", "--degree", "2"
    )
    assert time.perf_counter() - start < 1.0
    assert got == code
    if code == 0:
        assert json.loads(out)["invariants"] == []
    else:
        assert json.loads(err)["kind"] == "BudgetError"


def test_modulus_past_the_digit_limit(capsys):
    code, _, err = run(
        capsys, "cohomology", "builtin:z4-lcs", "--coeff", "Z/1" + "0" * 5000, "--degree", "2"
    )
    assert code == 2
    assert json.loads(err)["kind"] == "UnsupportedCoefficientsError"
