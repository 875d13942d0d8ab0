"""Command line driver.

One subcommand per task: validating and converting structure files,
computing (co)homology groups, checking and applying 2-cocycles, deciding
equivalence of extensions, classifying central extensions, auditing the
bicomplex identities, and running the built-in verification battery.

Output is JSON by default, printed deterministically (sorted keys, two
space indent) so reruns are byte identical; --text switches the verdict
commands to one-line summaries.  Exit codes: 0 on success, 1 when a
verification fails (invalid structure or cocycle, inequivalent
extensions, failed identity checks), 2 on usage errors, malformed input
or blown budgets.

`main(argv)` may be called any number of times in one process.  The
argument parser is built once, on the first call (not at import), and
reused: a command's output and exit code do not depend on the calls
before it.
"""

import argparse
import functools
import sys

from .abelian import parse_group_spec, render_invariants
from .bicomplex import (
    bicomplex_identity_check,
    dh_matrix,
    dv_matrix,
    full_cohomology,
)
from .corpus import builtin_structure
from .errors import (
    BudgetError,
    CocycleError,
    DegreeError,
    LatticeError,
    LinearityError,
    MalformedTableError,
    MorphismError,
    ParameterError,
    SectionError,
    ShapeError,
    StructureValidationError,
    UnknownStructureError,
    UnsupportedCoefficientsError,
)
from .extensions import (
    _file_columns,
    _require,
    build_extension_full,
    build_extension_reduced,
    classify_extensions,
    extension_from_dict,
    extension_to_dict,
    extensions_equivalent,
    two_cocycle_from_dict,
    validate_extension_triple,
)
from .reduced import cs_cohomology, reduced_cohomology, reduced_homology
from .structures import (
    Brace,
    _dump_json,
    _load_json,
    brace_to_lcs,
    lcs_to_brace,
    load_structure,
    structure_to_dict,
    validate_brace,
    validate_lcs,
)
from .verify import verify_paper

_USAGE_ERRORS = (
    BudgetError,
    DegreeError,
    LatticeError,
    MalformedTableError,
    ParameterError,
    ShapeError,
    UnknownStructureError,
    UnsupportedCoefficientsError,
)
_VERIFICATION_ERRORS = (
    CocycleError,
    LinearityError,
    MorphismError,
    SectionError,
    StructureValidationError,
)


def _emit(obj) -> None:
    sys.stdout.write(_dump_json(obj) + "\n")


def _say(line: str) -> None:
    sys.stdout.write(line + "\n")


def _load_structure_arg(path, normalize: bool = True):
    """A structure file path, or builtin:NAME for the bundled tables."""
    if path.startswith("builtin:"):
        return builtin_structure(path[len("builtin:") :])
    return load_structure(path, normalize=normalize)


def _as_cycle_set(structure):
    if isinstance(structure, Brace):
        return brace_to_lcs(structure)
    return structure


def _gamma_value(gamma, elem):
    return elem[0] if len(gamma.factors) == 1 else list(elem)


def cmd_validate(args) -> int:
    structure = _load_structure_arg(args.file, normalize=False)
    if isinstance(structure, Brace):
        report = validate_brace(structure)
    else:
        report = validate_lcs(structure)
    if args.text:
        if report.valid:
            _say(f"valid {report.kind} of order {report.order}")
        else:
            v = report.violations[0]
            _say(
                f"invalid {report.kind}: {v.axiom} fails at {v.witness}"
                f" ({len(report.violations)} violations)"
            )
    else:
        _emit(report.to_dict())
    return 0 if report.valid else 1


def cmd_convert(args) -> int:
    structure = _load_structure_arg(args.file)
    if isinstance(structure, Brace):
        converted = brace_to_lcs(structure)
    else:
        converted = lcs_to_brace(structure)
    _emit(structure_to_dict(converted))
    return 0


def _invariants_output(args, invariants) -> int:
    if args.text:
        _say(render_invariants(invariants))
    else:
        _emit(
            {
                "group": render_invariants(invariants),
                "invariants": list(invariants),
            }
        )
    return 0


def cmd_cohomology(args) -> int:
    structure = _as_cycle_set(_load_structure_arg(args.file))
    coeffs = parse_group_spec(args.coeff)
    if args.theory == "reduced":
        inv = reduced_cohomology(structure, coeffs, args.degree, args.normalized)
    elif args.theory == "full":
        inv = full_cohomology(structure, coeffs, args.degree, args.normalized)
    else:
        if args.normalized:
            raise ParameterError(
                "the unconstrained theory has no normalized variant"
            )
        inv = cs_cohomology(structure, coeffs, args.degree)
    return _invariants_output(args, inv)


def cmd_homology(args) -> int:
    structure = _as_cycle_set(_load_structure_arg(args.file))
    coeffs = parse_group_spec(args.coeff)
    inv = reduced_homology(structure, coeffs, args.degree, args.normalized)
    return _invariants_output(args, inv)


def _optional_coeffs(args):
    return parse_group_spec(args.coeff) if args.coeff else None


def cmd_cocycle_check(args) -> int:
    structure = _as_cycle_set(_load_structure_arg(args.file))
    data = _load_json(args.cocycle)
    coeffs, columns = _file_columns(data, structure, _optional_coeffs(args), args.flavor)
    try:
        # the one check of the file, whose report is also the output
        report = _require(structure, coeffs, columns, args.flavor)
    except CocycleError as exc:
        if args.text:
            _say(f"invalid {args.flavor} 2-cocycle: {exc}")
        else:
            _emit(exc.report.to_dict())
        return 1
    if args.text:
        tail = "normalized" if report.normalized else "not normalized"
        _say(f"valid {args.flavor} 2-cocycle ({tail})")
    else:
        _emit(report.to_dict())
    return 0


def cmd_extend(args) -> int:
    structure = _as_cycle_set(_load_structure_arg(args.file))
    data = _load_json(args.cocycle)
    cocycle = two_cocycle_from_dict(
        data, structure, _optional_coeffs(args), args.flavor
    )
    if args.flavor == "reduced":
        triple = build_extension_reduced(cocycle.coeffs, structure, cocycle)
    else:
        triple = build_extension_full(cocycle.coeffs, structure, cocycle, None)
    _emit(extension_to_dict(triple))
    return 0


def _load_extension(path):
    triple = extension_from_dict(_load_json(path))
    report = validate_extension_triple(triple)
    if not report.valid:
        bad = [c.name for c in report.checks if not c.ok]
        raise MorphismError(
            f"{path} does not hold a valid central extension "
            f"(failing: {', '.join(bad)})"
        )
    return triple


def cmd_equivalent(args) -> int:
    t1 = _load_extension(args.first)
    t2 = _load_extension(args.second)
    verdict, witness = extensions_equivalent(t1, t2)
    if args.text:
        _say("equivalent" if verdict else "not equivalent")
    else:
        out = {"equivalent": verdict, "witness": None}
        if witness is not None:
            gamma = t1.gamma
            out["witness"] = {
                "theta": [_gamma_value(gamma, v) for v in witness["theta"]],
                "map": list(witness["map"]),
            }
        _emit(out)
    return 0 if verdict else 1


def cmd_classify(args) -> int:
    structure = _as_cycle_set(_load_structure_arg(args.file))
    gamma = parse_group_spec(args.coeff)
    entries = classify_extensions(structure, gamma, args.flavor)
    if args.text:
        _say(f"{len(entries)} classes")
    else:
        _emit([e.to_dict() for e in entries])
    return 0


def cmd_bicomplex_check(args) -> int:
    structure = _as_cycle_set(_load_structure_arg(args.file))
    if args.bidegree:
        try:
            i_text, j_text = args.bidegree.split(",")
            i, j = int(i_text), int(j_text)
        except ValueError as exc:
            raise ParameterError(
                "--bidegree expects two comma separated integers"
            ) from exc
        out = {"i": i, "j": j, "dh": None, "dv": None}
        if i >= 1 and j >= 1:
            out["dh"] = dh_matrix(structure, i, j)
        if i >= 0 and j >= 2:
            out["dv"] = dv_matrix(structure, i, j)
        if out["dh"] is None and out["dv"] is None:
            raise ParameterError(
                f"no differentials leave bidegree ({i}, {j})"
            )
        _emit(out)
        return 0
    report = bicomplex_identity_check(structure, args.max_degree)
    if args.text:
        if report.ok:
            _say(
                f"{len(report.checks)} identity checks pass up to "
                f"total degree {report.max_degree}"
            )
        else:
            for c in report.checks:
                if not c.ok:
                    _say(f"FAIL {c.name}")
    else:
        _emit(report.to_dict())
    return 0 if report.ok else 1


def cmd_verify_paper(args) -> int:
    results = verify_paper(seed=args.seed)
    ok = all(r["ok"] for r in results)
    if args.json:
        _emit({"ok": ok, "claims": results})
    else:
        for r in results:
            mark = "ok  " if r["ok"] else "FAIL"
            _say(f"{mark} {r['name']}")
        _say(f"{sum(1 for r in results if r['ok'])}/{len(results)} claims verified")
    return 0 if ok else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcscohom",
        description="Cohomology and central extensions of linear cycle sets",
    )
    parser.add_argument(
        "--text",
        action="store_true",
        help="print one-line summaries instead of JSON where applicable",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run the axiom battery on a structure file")
    p.add_argument("file")

    p = sub.add_parser("convert", help="convert between cycle set and brace tables")
    p.add_argument("file")

    p = sub.add_parser("cohomology", help="invariant factors of a cohomology group")
    p.add_argument("file")
    p.add_argument("--theory", choices=["reduced", "full", "cs"], default="reduced")
    p.add_argument("--coeff", required=True, help="coefficient group, e.g. Z/2+Z/4")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument(
        "--normalized",
        action="store_true",
        help="cochains vanishing on tuples that hold 0.  Normalized and plain "
        "reduced groups are equal, and read off one resolution: those tuples are "
        "the degenerate bar cells of the brace group.  Plain full groups are read "
        "off a resolution of the brace group too, and normalized full groups off "
        "the normalized tuple system.  Observed in every case tried, not proven: "
        "over Z/p^e, normalized and plain full groups are equal below degree 2p "
        "and split from 2p on (full H^4 of trivial(2) over Z/2 is [2, 2, 2, 2] "
        "plain, [2, 2, 2] normalized)",
    )

    p = sub.add_parser("homology", help="invariant factors of a reduced homology group")
    p.add_argument("file")
    p.add_argument("--coeff", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument(
        "--normalized",
        action="store_true",
        help="chains modulo the tuples that hold 0, the degenerate bar cells of "
        "the brace group: normalized and plain groups are equal, and equal to "
        "the cohomology groups, read off one resolution",
    )

    p = sub.add_parser("cocycle-check", help="check a degree-2 cochain file")
    p.add_argument("file")
    p.add_argument("--cocycle", required=True)
    p.add_argument("--flavor", choices=["reduced", "full"], default="reduced")
    p.add_argument("--coeff", help="coefficients when the cochain file has none")

    p = sub.add_parser("extend", help="build the central extension of a cocycle")
    p.add_argument("file")
    p.add_argument("--cocycle", required=True)
    p.add_argument("--flavor", choices=["reduced", "full"], default="reduced")
    p.add_argument("--coeff", help="coefficients when the cochain file has none")

    p = sub.add_parser("equivalent", help="decide equivalence of two extension files")
    p.add_argument("first")
    p.add_argument("second")

    p = sub.add_parser("classify", help="one extension per second-cohomology class")
    p.add_argument("file")
    p.add_argument("--coeff", required=True)
    p.add_argument(
        "--flavor", choices=["cycle-type", "general"], default="cycle-type"
    )

    p = sub.add_parser("bicomplex-check", help="audit the bicomplex identities")
    p.add_argument("file")
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--bidegree", help="dump the differentials at i,j instead")

    p = sub.add_parser("verify-paper", help="run the built-in verification battery")
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _fail(exc) -> None:
    out = {"error": str(exc), "kind": type(exc).__name__}
    report = getattr(exc, "report", None)
    if report is not None:
        out["report"] = report.to_dict()
    sys.stderr.write(_dump_json(out) + "\n")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # looked up per call, so the cached parser holds no handler and a
    # rebinding of cmd_* (by a tracer or a test) takes effect
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except _VERIFICATION_ERRORS as exc:
        _fail(exc)
        return 1
    except _USAGE_ERRORS as exc:
        _fail(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
