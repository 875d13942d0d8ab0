"""Checks of the benchmark itself: its correctness check, tracer and smoke runs.

    python3 -m pytest -q bench/test_bench.py

These live beside the benchmark, outside the package's test suite; the
smoke runs take about half a minute, most of it the verify-paper battery,
which has no smaller size.
"""

import json
import shutil
import subprocess
import sys

import pytest

import probe
import run
import tracer as tracing
import workloads

SMALL = ("deep-cohomology", "cli-sweep", "extensions")


def _expected():
    with open(run.EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def _benchmark_spec():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def tiny():
    """Tiny inputs of the three small workloads, built once."""
    out = {}
    for name in SMALL:
        inputs, _ = run.setup(name, 7, "tiny")
        out[name] = inputs
    return out


@pytest.mark.parametrize("name", SMALL)
def test_correct_outputs_pass(tiny, name):
    expected = _expected()
    spans, failures = run.run_pass(tiny[name].jobs, expected)
    assert failures == []
    assert len(spans) == len(tiny[name].jobs)
    assert run.check_inputs(tiny[name].checks, expected) == []


@pytest.mark.parametrize("name", SMALL)
def test_tampered_expected_value_fails(tiny, name):
    expected = _expected()
    victim = tiny[name].jobs[0].key
    expected[victim] = {"tampered": expected[victim]}
    _, failures = run.run_pass(tiny[name].jobs, expected)
    assert [key for key, _ in failures] == [victim]


def test_tampered_input_check_fails(tiny):
    expected = _expected()
    checks = tiny["deep-cohomology"].checks
    key = checks[0][0]
    expected[key] = "0" * 64
    assert [k for k, _ in run.check_inputs(checks, expected)] == [key]


def test_missing_frozen_value_fails(tiny):
    expected = _expected()
    del expected[tiny["deep-cohomology"].jobs[0].key]
    _, failures = run.run_pass(tiny["deep-cohomology"].jobs, expected)
    assert len(failures) == 1 and "nothing frozen" in failures[0][1]


def test_raising_job_fails():
    def boom():
        raise ValueError("no")

    jobs = [workloads.Job("boom", boom, repr)]
    _, failures = run.run_pass(jobs, {"boom": "anything"})
    assert failures == [("boom", "raised ValueError: no")]


def test_seed_changes_order_not_keys():
    first, _ = run.setup("cli-sweep", 1, "tiny")
    second, _ = run.setup("cli-sweep", 2, "tiny")
    keys1 = [job.key for job in first.jobs]
    keys2 = [job.key for job in second.jobs]
    assert keys1 != keys2 and sorted(keys1) == sorted(keys2)
    again, _ = run.setup("cli-sweep", 1, "tiny")
    assert [job.key for job in again.jobs] == keys1


def test_self_time_subtracts_children():
    ticks = iter(range(100))
    t = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = t.wrap(lambda: None, "reduced")
    outer = t.wrap(lambda: inner(), "bicomplex")
    outer()
    # outer starts at 0, inner spans 1..2, the inner parent charge reads 3,
    # outer ends at 4: outer's self time is 4 - (3 - 1).
    assert t.self_s["reduced"] == 1.0
    assert t.self_s["bicomplex"] == 2.0
    assert t.calls == {**dict.fromkeys(tracing.GROUPS, 0), "reduced": 1, "bicomplex": 1}
    assert [(span[0], span[2]) for span in t.spans] == [("bicomplex", -1), ("reduced", 0)]


def test_self_time_recorded_when_the_call_raises():
    t = tracing.Tracer()

    def fails():
        raise KeyError("x")

    wrapped = t.wrap(fails, "cli")
    with pytest.raises(KeyError):
        wrapped()
    assert t.calls["cli"] == 1 and len(t.spans) == 1


def test_tracer_wraps_every_binding_and_restores():
    inputs, _ = run.setup("deep-cohomology", 3, "tiny")
    modules = run.lcscohom_modules()
    original = sys.modules["lcscohom.linalg"].kernel_mod_m
    holders = [m for m in modules if getattr(m, "kernel_mod_m", None) is original]
    assert len(holders) > 1  # bound by name in every module that imports it
    t = tracing.Tracer()
    t.install(modules)
    try:
        assert all(m.kernel_mod_m.__wrapped__ is original for m in holders)
        spans, failures = run.run_pass(inputs.jobs, _expected(), t)
    finally:
        t.uninstall()
    assert failures == []
    assert all(m.kernel_mod_m is original for m in holders)
    metrics = t.metrics()
    assert metrics["linalg.snf.calls"] > 0 and metrics["linalg.snf.entries"] > 0
    assert metrics["linalg.lattice.calls"] > 0 and metrics["cli.calls"] == 0
    assert sum(v for k, v in metrics.items() if k.endswith(".self_s")) <= sum(run.seconds(spans))


def test_probe_removes_and_scales_by_the_probes_around_a_span():
    p = probe.SpeedProbe()
    p.starts = [0.0, 1.0, 2.0, 2.2, 10.0]
    p.durations = [0.001, 0.002, 0.004, 0.004, 0.008]
    # 1.0, 2.0 and 2.2 ran inside 0.5..2.5; 0.0 also lies within WINDOW_S of it.
    assert p.net(0.5, 2.5) == pytest.approx(2.0 - 0.010)
    assert p.scaled(0.5, 2.5) == pytest.approx((2.0 - 0.010) * probe.NOMINAL_S / 0.004)
    # No probe near the span: the run's median probe scales it.
    assert p.scaled(5.0, 6.0) == pytest.approx(1.0 * probe.NOMINAL_S / 0.004)
    assert probe.SpeedProbe().scaled(0.0, 1.0) == 1.0


def test_group_of_covers_the_layers():
    assert tracing.group_of("lcscohom.linalg", "smith_normal_form") == "linalg.snf"
    assert tracing.group_of("lcscohom.linalg", "kernel_mod_m") == "linalg.lattice"
    assert tracing.group_of("lcscohom.linalg", "hstack") is None
    assert tracing.group_of("lcscohom.corpus", "enumerate_lcs") == "structures"
    assert tracing.group_of("lcscohom.extensions", "force_extension_full") == "extensions.build"
    assert tracing.group_of("lcscohom.extensions", "extensions_equivalent") == "extensions.search"
    assert tracing.group_of("lcscohom.extensions", "is_full_2cocycle") is None
    assert tracing.group_of("lcscohom.reduced", "tuple_index") is None
    assert tracing.group_of("lcscohom.abelian", "parse_group_spec") is None


def _run_bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run(name):
    proc = _run_bench("--workload", name, "--seed", "5", "--seconds", "0", "--trace", "0", "--size", "tiny")
    result = _result(proc)
    spec = _benchmark_spec()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_traced_run():
    result = _result(_run_bench("--workload", "deep-cohomology", "--seed", "5", "--seconds", "0",
                                "--trace", "1", "--size", "tiny"))
    want = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["correct"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("--workload", "verify-paper", "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

