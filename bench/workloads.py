"""The benchmark's four workloads, each built from a seed.

A workload is a list of jobs.  A job's ``run`` is the timed call into
lcscohom; its ``summary`` turns the result into the JSON value that is
compared with the copy frozen in ``expected.json`` under the job's ``key``.
Keys never mention the seed: the seed only picks the order of the jobs (and
is passed to ``verify_paper``), so every seed is checked against the same
frozen outputs.

Every call goes through an attribute of the ``lcscohom`` package (``L``)
looked up when the job runs, so a tracer installed after set-up sees it.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from functools import partial
from typing import Callable, NamedTuple, Optional

SIZES = ("full", "tiny")
# (theory, coefficients, degree) of the cohomology commands run on every
# target: each theory, coefficient kind (elementary, odd, prime power,
# non-cyclic) and degree appears, without running their whole product.
CLI_COHOMOLOGY = (
    ("reduced", "Z/2", 2),
    ("reduced", "Z/3", 1),
    ("full", "Z/4", 2),
    ("full", "Z/2+Z/2", 1),
    ("cs", "Z/2+Z/2", 2),
    ("cs", "Z/4", 1),
)
# Reject pairs put class i against class i + 1: 8 pairs over the 8 classes
# of ext8 over Z/4, next to one accept pair per class.  Each reject pair
# searches the whole quotient, so more of them would leave fewer passes in a
# run to take each job's median over.
REJECT_STEPS = (1,)


class Job(NamedTuple):
    key: str
    run: Callable[[], object]
    summary: Callable[[object], object]
    bytes_out: Optional[Callable[[object], int]] = None


class Inputs(NamedTuple):
    jobs: list
    # (key, value) pairs checked once per run against expected.json: the
    # generated inputs themselves, such as the ext8 tables.
    checks: list


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def ext8(L):
    """The order-8 cycle set: the second cycle-type class of z4-lcs over Z/2."""
    z4 = L.builtin_structure("z4-lcs")
    return L.classify_extensions(z4, L.parse_group_spec("Z/2"), "cycle-type")[1].triple.total


def _ext8_check(L, structure):
    return ("setup ext8 tables", digest(L.structure_to_dict(structure)))


def _call(L, name, *args):
    return getattr(L, name)(*args)


# --------------------------------------------------------------------------
# deep-cohomology


def deep_cohomology(L, seed, size, workdir):
    """Cohomology jobs of a fraction of a second to a second each.

    The largest rungs that finish in about a second or less, so that a run
    holds several passes and each job's median over them is steady.
    """
    z4 = L.builtin_structure("z4-lcs")
    e8 = ext8(L)
    structures = {"z4-lcs": z4, "ext8": e8}
    lower = 0 if size == "full" else 1
    specs = [
        ("reduced", "z4-lcs", "Z/2", 3),
        ("reduced", "z4-lcs", "Z/8", 3),
        ("reduced", "z4-lcs", "Z/2+Z/2", 3),
        ("reduced", "ext8", "Z/4", 2),
        ("reduced", "ext8", "Z/2", 2),
        ("homology", "z4-lcs", "Z/2", 3),
        ("full", "z4-lcs", "Z/2", 2),
    ]
    functions = {"reduced": "reduced_cohomology", "full": "full_cohomology",
                 "homology": "reduced_homology"}
    specs = [
        (f"{theory} H{'_' if theory == 'homology' else '^'}{k - lower}({name}; {coeff})",
         functions[theory], structures[name], L.parse_group_spec(coeff), k - lower)
        for theory, name, coeff, k in specs
    ]
    jobs = [
        Job(key, partial(_call, L, fn, s, coeffs, k, False), list)
        for key, fn, s, coeffs, k in specs
    ]
    random.Random(seed).shuffle(jobs)
    return Inputs(jobs, [_ext8_check(L, e8)])


# --------------------------------------------------------------------------
# cli-sweep


def _cli(L, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = L.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _cli_summary(raw):
    code, stdout = raw
    return {"exit": code, "stdout_sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}


def _cli_bytes(raw):
    return len(raw[1].encode("utf-8"))


def cli_commands(target, top):
    """The commands run on one target, with degrees capped at ``top``."""
    yield ["validate", target]
    yield ["convert", target]
    for theory, coeff, degree in CLI_COHOMOLOGY:
        yield ["cohomology", target, "--theory", theory,
               "--coeff", coeff, "--degree", str(min(degree, top))]
    yield ["homology", target, "--coeff", "Z/4", "--degree", str(top)]
    for flavor in ("cycle-type", "general"):
        yield ["classify", target, "--coeff", "Z/2", "--flavor", flavor]


def cli_sweep(L, seed, size, workdir):
    targets = []
    if size == "full":
        for prefix, structures in (("lcs", L.enumerate_lcs(4)), ("brace", L.enumerate_braces(4))):
            for i, structure in enumerate(structures):
                path = f"{workdir}/{prefix}-{i:02d}.json"
                L.save_structure(structure, path)
                targets.append(path)
    targets += ["builtin:z4-lcs", "builtin:z4-brace"]
    top = 2 if size == "full" else 1
    jobs = [
        Job("lcscohom " + " ".join(argv), partial(_cli, L, argv), _cli_summary, _cli_bytes)
        for target in targets
        for argv in cli_commands(target, top)
    ]
    random.Random(seed).shuffle(jobs)
    files = [_read(t) for t in targets if not t.startswith("builtin:")]
    return Inputs(jobs, [("setup structure files", digest(files))] if files else [])


# --------------------------------------------------------------------------
# extensions


def additive_maps(structure, gamma):
    """Every additive map from the structure's group to gamma, by brute force."""
    n = structure.order
    add = structure.add
    zero = gamma.zero
    elements = gamma.elements()
    out = []
    for rest in itertools.product(elements, repeat=n - 1):
        theta = list(rest)
        theta.insert(structure.zero, zero)
        if all(
            theta[add[a][b]] == gamma.add(theta[a], theta[b])
            for a in range(n)
            for b in range(a, n)
        ):
            out.append(theta)
    return out


def _shifted(gamma, structure, f, theta):
    """f plus the coboundary of theta: f(a, b) + theta(a.b) - theta(b)."""
    n = structure.order
    dot = structure.dot
    return tuple(
        tuple(gamma.add(f[a][b], gamma.sub(theta[dot[a][b]], theta[b])) for b in range(n))
        for a in range(n)
    )


def _classify_summary(entries):
    return {"classes": len(entries), "sha256": digest([e.to_dict() for e in entries])}


def _equivalence_summary(raw):
    verdict, witness = raw
    return {"equivalent": verdict, "witness": witness is not None}


def extensions(L, seed, size, workdir):
    """Classification jobs plus one job per equivalence pair over one base.

    Accept pairs put each class representative against the same class
    rebuilt from the representative plus the coboundary of an additive
    theta; reject pairs put class i against class i + 1.  How soon the
    search finds an accept pair's witness depends on theta, so the
    thetas are fixed, spread over the list of additive maps, and the seed
    picks only the order of the jobs: every seed runs the same work.
    """
    z4 = L.builtin_structure("z4-lcs")
    checks = []
    if size == "full":
        base, base_name = ext8(L), "ext8"
        checks.append(_ext8_check(L, base))
        classify = [(z4, "z4-lcs", "Z/2+Z/2", "general"), (z4, "z4-lcs", "Z/4", "general"),
                    (z4, "z4-lcs", "Z/8", "cycle-type"), (base, "ext8", "Z/2", "cycle-type")]
    else:
        base, base_name = z4, "z4-lcs"
        classify = [(z4, "z4-lcs", "Z/2+Z/2", "general"), (z4, "z4-lcs", "Z/4", "cycle-type")]
    gamma = L.parse_group_spec("Z/4")
    jobs = [
        Job(f"classify_extensions {name} {coeff} {flavor}",
            partial(_call, L, "classify_extensions", s, L.parse_group_spec(coeff), flavor),
            _classify_summary)
        for s, name, coeff, flavor in classify
    ]
    classes = L.classify_extensions(base, gamma, "cycle-type")
    n = base.order
    # Thetas with a zero coboundary would rebuild the representative itself.
    thetas = [t for t in additive_maps(base, gamma)
              if any(t[base.dot[a][b]] != t[b] for a in range(n) for b in range(n))]
    k = len(classes)
    pairs = []
    for i in range(k):
        j = i * len(thetas) // k
        f = _shifted(gamma, base, classes[i].cocycle.f, thetas[j])
        rebuilt = L.build_extension_reduced(gamma, base, L.ReducedTwoCocycle(base, gamma, f))
        pairs.append((f"{i}~{i}+d(theta{j})", classes[i].triple, rebuilt))
    pairs += [(f"{i}~{j}", classes[i].triple, classes[j].triple)
              for step in REJECT_STEPS for i in range(k) for j in [(i + step) % k]]
    prefix = f"extensions_equivalent {base_name} Z/4 cycle-type classes"
    jobs += [Job(f"{prefix} {label}", partial(_call, L, "extensions_equivalent", t1, t2),
                 _equivalence_summary)
             for label, t1, t2 in pairs]
    random.Random(seed).shuffle(jobs)
    return Inputs(jobs, checks)


# --------------------------------------------------------------------------
# verify-paper


def _claims(results):
    return [[claim["name"], claim["ok"]] for claim in results]


def verify_paper(L, seed, size, workdir):
    return Inputs([Job("verify_paper", partial(_call, L, "verify_paper", seed), _claims)], [])


WORKLOADS = {
    "deep-cohomology": deep_cohomology,
    "cli-sweep": cli_sweep,
    "extensions": extensions,
    "verify-paper": verify_paper,
}


def build(name, L, seed, size, workdir):
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name](L, seed, size, workdir)
