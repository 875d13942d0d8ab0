"""Benchmark for lcscohom: one workload, one seed, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program under test is ``src/lcscohom`` of the
checkout that holds this file, and nothing outside the checkout is read or
written.  With ``--trace 0`` the run repeats passes over the workload's jobs
until ``--seconds`` would be exceeded (at least one pass) and reports the
end-to-end metrics from each job's median time over the passes, each time
scaled to a nominal host speed by ``probe.py``.  With ``--trace 1`` it makes
one untraced pass, then one pass with the tracer installed, and reports the
per-layer metrics.  Every job's output is checked against
``bench/expected.json`` in both modes.

Human-readable lines start with ``#``; the last line of standard output is
the JSON result.  The run record, including the machine description and
per-job latencies, and the spans of a traced run are written to
``.bench_out/``.  ``--size tiny`` selects small jobs for smoke tests.
"""

import importlib
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.realpath(__file__)))
import probe  # noqa: E402

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src")


def import_lcscohom():
    """Import lcscohom afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "lcscohom" or m.startswith("lcscohom.")]:
        del sys.modules[name]
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
    package = importlib.import_module("lcscohom")
    importlib.import_module("lcscohom.cli")
    if os.path.dirname(os.path.realpath(package.__file__)) != os.path.join(SRC_DIR, "lcscohom"):
        raise ImportError(f"lcscohom was imported from {package.__file__}, not from {SRC_DIR}")
    return package


# The program is imported before the harness's own imports, so that this one
# timed import pays for every module lcscohom needs, as a user's process does.
# It is the import part of setup_s; later set-ups re-import only lcscohom.
PROBE = probe.SpeedProbe()
if __name__ == "__main__":
    PROBE.start()
_start = time.perf_counter()
try:
    import_lcscohom()
except ImportError as exc:
    if __name__ != "__main__":
        raise
    PROBE.stop()
    print(f"bench: cannot import the program under test: {exc}", file=sys.stderr)
    sys.exit(2)
COLD_IMPORT = (_start, time.perf_counter())

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = Path(SRC_DIR)
OUT = ROOT / ".bench_out"
EXPECTED = BENCH / "expected.json"

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Input generation is made SETUPS times and its median reported.  The count is
# fixed, so that the work of a run does not depend on the host's speed.
SETUPS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p95_s": "s",
    "peak_rss_mb": "MB",
}
_MISSING = object()


def lcscohom_modules():
    return [m for name, m in sys.modules.items() if name == "lcscohom" or name.startswith("lcscohom.")]


def setup(workload, seed, size):
    """Input generation, repeated; returns (inputs, (start, end) of each generation).

    Each generation runs on a fresh, untimed import of lcscohom, so that no
    state the program keeps between calls carries over from the one before.
    """
    times = []
    for _ in range(SETUPS):
        package = import_lcscohom()
        start = time.perf_counter()
        inputs = workloads.build(workload, package, seed, size, str(OUT.relative_to(ROOT) / "work"))
        times.append((start, time.perf_counter()))
        # Free the previous import's modules now, so that the peak RSS does
        # not grow with the number of set-ups.
        gc.collect()
    return inputs, times


def run_pass(jobs, expected, tracer=None):
    """Run every job once; returns (spans, failures).

    A span is the (start, end) of one job; a failure is (key, reason).
    """
    spans = []
    failures = []
    for job in jobs:
        start = time.perf_counter()
        try:
            raw = job.run()
        except Exception as exc:  # a raising job is a failed job; the run goes on
            spans.append((start, time.perf_counter()))
            failures.append((job.key, f"raised {type(exc).__name__}: {exc}"))
            continue
        spans.append((start, time.perf_counter()))
        if tracer is not None and job.bytes_out is not None:
            tracer.count("cli.bytes_out", job.bytes_out(raw))
        got = job.summary(raw)
        want = expected.get(job.key, _MISSING)
        if got != want:
            shown = "nothing frozen" if want is _MISSING else repr(want)
            failures.append((job.key, f"expected {shown}, got {got!r}"))
    return spans, failures


def check_inputs(checks, expected):
    return [(key, f"expected {expected.get(key)!r}, got {value!r}")
            for key, value in checks if expected.get(key, _MISSING) != value]


def seconds(spans):
    """Durations of (start, end) spans, without the speed probes inside them."""
    return [PROBE.net(start, end) for start, end in spans]


def scaled(spans):
    """Durations of (start, end) spans at the nominal host speed."""
    return [PROBE.scaled(start, end) for start, end in spans]


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_info(seed):
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sources = hashlib.sha256()
    for path in sorted((SRC / "lcscohom").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": _git_commit(),
        "source_sha256": sources.hexdigest(),
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    inputs, generations = setup(args.workload, args.seed, args.size)
    jobs = inputs.jobs
    failures = check_inputs(inputs.checks, expected)
    attempted = len(inputs.checks)
    record = {"workload": args.workload, "size": args.size, "trace": args.trace,
              "machine": machine_info(args.seed), "cold_import_s": seconds([COLD_IMPORT])[0],
              "generation_s": seconds(generations)}
    print("# machine " + json.dumps(record["machine"], sort_keys=True))

    if args.trace == 0:
        passes = []
        start = time.perf_counter()
        while True:
            spans, fails = run_pass(jobs, expected)
            if not passes:  # later passes add only allocator noise
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            passes.append(spans)
            failures += fails
            attempted += len(spans)
            if time.perf_counter() - start + statistics.median(map(sum, map(seconds, passes))) > args.seconds:
                break
        PROBE.stop()

        def end_to_end(durations):
            # A job's time is its median over the passes, so that a few slow
            # passes do not move it.
            job_s = [statistics.median(durations(runs)) for runs in zip(*passes)]
            return {
                "setup_s": durations([COLD_IMPORT])[0] + statistics.median(durations(generations)),
                "wall_s": sum(job_s),
                "job_p50_s": statistics.median(job_s),
                "job_p95_s": percentile(job_s, 0.95),
            }

        measured = end_to_end(seconds)
        metrics = {**end_to_end(scaled), "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS
        record.update(
            measured=measured,
            probe={"count": len(PROBE.durations), "median_s": PROBE.median(),
                   "nominal_s": probe.NOMINAL_S},
            pass_s=[sum(seconds(spans)) for spans in passes],
            job_s={job.key: seconds(runs) for job, runs in zip(jobs, zip(*passes))},
            job_spans={job.key: runs for job, runs in zip(jobs, zip(*passes))},
            probes=list(zip(PROBE.starts, PROBE.durations)),
        )
        print(f"# {args.workload} seed {args.seed}: {len(passes)} passes of {len(jobs)} jobs;"
              f" inputs generated {len(generations)} times")
        print(f"# {len(PROBE.durations)} speed probes, median {(PROBE.median() or 0) * 1e3:.4f} ms,"
              f" nominal {probe.NOMINAL_S * 1e3} ms")
        for name, value in measured.items():
            print(f"# measured {name} = {value} s")
    else:
        PROBE.stop()
        spans, fails = run_pass(jobs, expected)
        untraced = sum(seconds(spans))
        failures += fails
        tracer = tracing.Tracer()
        wrapped = tracer.install(lcscohom_modules())
        try:
            traced_spans, fails = run_pass(jobs, expected, tracer)
        finally:
            tracer.uninstall()
        traced = sum(seconds(traced_spans))
        failures += fails
        attempted += len(spans) + len(traced_spans)
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = traced / untraced
        units = {name: tracing.unit_of(name) for name in metrics}
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}-{args.size}-seed{args.seed}.json")
        print(f"# {args.workload} seed {args.seed}: {wrapped} functions traced,"
              f" {len(tracer.spans)} spans, traced pass {traced:.4f} s,"
              f" untraced pass {untraced:.4f} s")

    for name, value in metrics.items():
        print(f"# {name} = {value} {units[name]}")
    print(f"# fail_ratio = {len(failures)}/{attempted} = {len(failures) / attempted} ratio")
    for key, reason in failures[:20]:
        print(f"# FAILED {key}: {reason}")
    record.update(metrics=metrics, attempted=attempted, failures=failures)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"run-{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
