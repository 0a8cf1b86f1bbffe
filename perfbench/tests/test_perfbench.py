"""Smoke tests of the benchmark itself, at a size that runs in seconds.

    python3 -m pytest perfbench/tests -q

They check that every metric ``BENCHMARK.json`` names is emitted with its
unit, that the exact counts and digests repeat (across runs, and between
traced and untraced passes), and that a corrupted result is counted as a
failure.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from geoinv import tensor_core as tc  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = ("tensor_core.ein.calls", "tensor_core.ein.madds",
         "tensor_core.ein.delta_blocks.calls", "tensor_core.plan_cache.entries",
         "cli.instance_bytes", "jet.covariant_derivative.calls",
         "connection.ConnectionSpace.calls")


def bench(cwd, workload="check-float", trace=0, seed=0, seconds=0.3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=cwd,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})


def result(**kw):
    proc = bench(ROOT, **kw)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced():
    return result()


@pytest.fixture(scope="module")
def traced():
    return [result(trace=1), result(trace=1)]


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_end_to_end_metrics_emitted_with_units(untraced):
    assert {k: v["unit"] for k, v in untraced["metrics"].items()} == \
        _units("end_to_end")
    assert untraced["correct"] and untraced["failed"] == 0
    assert all(v["value"] > 0 for v in untraced["metrics"].values())


def test_per_layer_metrics_emitted_with_units(traced):
    for got in traced:
        assert {k: v["unit"] for k, v in got["metrics"].items()} == \
            _units("per_layer")
        assert got["correct"] and got["failed"] == 0


def test_subscript_list_matches_benchmark_json():
    names = {m["name"] for m in SPEC["per_layer"]}
    assert {spans.subscript_metric(e) for e in spans.SUBSCRIPTS} <= names


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_counts_repeat_exactly(traced):
    a, b = (t["metrics"] for t in traced)
    for name in EXACT:
        assert a[name]["value"] == b[name]["value"] > 0, name


def _first_round(wl, span=workloads.no_span):
    return [wl.run_k(0, k, span) for k in range(wl.round_size)]


def test_traced_pass_reproduces_untraced_outputs_and_counts():
    wl = workloads.WORKLOADS["check-float"]
    original = tc.ein
    plain = _first_round(wl)
    counts = []
    for _ in range(2):
        rec = spans.Recorder()
        undo = spans.install(rec)
        try:
            traced = _first_round(wl, rec.span)
        finally:
            undo()
        assert workloads.digests(traced) == workloads.digests(plain)
        assert all(run.same_output(p, t) for p, t in zip(plain, traced))
        layers, _ = spans.layer_metrics(rec, {}, wl.round_size)
        counts.append({k: v for k, v in layers.items() if k in EXACT})
    assert counts[0] == counts[1]
    assert tc.ein is original


def test_pinned_digests_match_warmup():
    pins = json.loads(run.PINS.read_text())
    wl = workloads.WORKLOADS["check-float"]
    assert workloads.digests(wl.run_warmup()) == pins[wl.name]["warmup"]


def test_corrupted_row_is_a_failed_operation(monkeypatch):
    wl = workloads.WORKLOADS["check-float"]
    real = workloads.cli.pair_invariants

    def corrupted(ins):
        rows = real(ins)
        tag, name, a, b = rows[0]
        bad = tc.Tensor(b.dim, b.valence, [x + 1.0 for x in b.data])
        return [(tag, name, a, bad)] + rows[1:]

    monkeypatch.setattr(workloads.cli, "pair_invariants", corrupted)
    out = wl.run_k(0, 0)
    assert not out.ok and out.problems[0].startswith("rho-skew")


def test_corrupted_diagnostics_are_a_failed_operation(monkeypatch):
    wl = workloads.WORKLOADS["agm3-rational"]
    real = workloads.agm.agm_diagnostics

    def corrupted(fields):
        rows = real(fields)
        rows[0] = dict(rows[0], status="mismatch", group="not-a-group")
        return rows

    monkeypatch.setattr(workloads.agm, "agm_diagnostics", corrupted)
    out = wl.run_k(0, 0)
    assert not out.ok and "unexpected diagnostic" in out.problems[0]


def test_exception_and_digest_mismatch_are_counted(monkeypatch):
    wl = workloads.WORKLOADS["check-float"]

    def boom(*args, **kwargs):
        raise ValueError("corrupted instance")

    monkeypatch.setattr(workloads.mappings, "generate", boom)
    out = run.run_op(wl, 0, 0)
    assert not out.ok and out.seconds is None
    tally = run.Tally()
    run.check_digests(tally, "x", {"gen": "a", "invariants": "b"},
                      {"gen": "a", "invariants": "c"})
    assert (tally.attempted, tally.failed) == (2, 1)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
