"""geoinv benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload check-rational --seed 0 \\
        --seconds 30 --trace 0

The workload seed drives every instance; the package under test only ever
sees the generated instances.  Every operation's output is checked (see
``workloads``), and the warm-up digests, plus the first-round digests at the
default seed, are compared against ``pins.json``.

``--trace 0`` prints the end-to-end metrics: set-up time (median over fresh
processes), certified instances per second, per-operation latency (median
and p90) and the peak resident memory of this process.

``--trace 1`` prints the per-layer metrics.  Each operation then runs twice
on the same instance, untraced and then with the timing wrappers of
``spans`` installed; the two must produce the same bytes and tensors, and
the difference in instances per second is the tracing overhead.  The spans
are written to ``.perfbench-out/spans-<workload>.jsonl.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it,
starting with ``#``, summarise the run.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads  # first: puts the checkout's src/ on sys.path
import spans
import speed
from geoinv import tensor_core as tc

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"
SPANS_DIR = HERE.parent / ".perfbench-out"
DEFAULT_SEED = 0
PROBES = 5


class Tally:
    """Operations attempted and failed, and what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def measure_setup(wl, tally: Tally) -> tuple[float, float]:
    """Median set-up seconds over fresh processes, scaled and unscaled.

    Each set-up is scaled by calibrations taken just before the process
    starts and just after its set-up ends.  The first process also
    cross-checks float against rational values.
    """
    scaled, raw = [], []
    for i in range(PROBES):
        cmd = [sys.executable, str(HERE / "probe.py"), wl.name]
        if i == 0:
            cmd.append("--cross-check")
        before = speed.calibrate()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=True)
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(got["setup_s"])
        scaled.append(got["setup_s"] * speed.NOMINAL_S
                      / statistics.fmean((before, got["calibration_s"])))
        tally.attempted += got["attempted"]
        tally.failed += got["failed"]
        tally.problems += got.get("problems", [])
    return statistics.median(scaled), statistics.median(raw)


def check_digests(tally: Tally, label: str, got: dict, pinned: dict) -> None:
    for key in ("gen", "invariants"):
        tally.add(got[key] == pinned[key],
                  f"{label} {key} digest {got[key]} != pinned {pinned[key]}")


def run_op(wl, seed: int, k: int, span=workloads.no_span):
    """One operation; an exception is a failed operation, not a crash."""
    try:
        return wl.run_k(seed, k, span)
    except Exception:  # noqa: BLE001 - the loop must go on and report it
        return workloads.Outcome(None, [traceback.format_exc(limit=4)], "", [])


def same_output(a, b) -> bool:
    return (a.gen_text == b.gen_text and len(a.sources) == len(b.sources)
            and all(ta == tb and x.data == y.data
                    for (ta, x), (tb, y) in zip(a.sources, b.sources)))


def keep_going(wl, k: int, start: float, seconds: float) -> bool:
    """Run whole rounds until ``seconds`` have passed (at least one)."""
    return k % wl.round_size != 0 or k == 0 or (
        time.perf_counter() - start < seconds)


def untraced_run(wl, args, tally: Tally):
    setup_s, setup_raw_s = measure_setup(wl, tally)
    warm = wl.run_warmup()
    for o in warm:
        tally.add(o.ok, f"warm-up: {o.problems}")
    track = speed.SpeedTrack()
    first, timed = [], []
    k = 0
    start = time.perf_counter()
    while keep_going(wl, k, start, args.seconds):
        track.maybe_sample()
        t = time.perf_counter()
        o = run_op(wl, args.seed, k)
        tally.add(o.ok, f"op {k}: {o.problems}")
        if o.seconds is not None:
            timed.append((t, o.seconds))
        if k < wl.round_size:
            first.append(o)
        k += 1
    track.sample()
    lat = [s * track.factor(t + s / 2) for t, s in timed]
    metrics = {
        "setup_s": (setup_s, "s"),
        "instances_per_s": (len(lat) / sum(lat), "1/s"),
        "instance_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "instance_ms_p90": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"# wall time, unscaled: setup_s={setup_raw_s:.4f} "
          f"instances_per_s={len(timed) / sum(s for _, s in timed):.4f}; "
          f"calibration median {track.median_s() * 1e3:.3f} ms "
          f"(nominal {speed.NOMINAL_S * 1e3:g} ms)")
    return metrics, warm, first, len(lat)


def traced_run(wl, args, tally: Tally):
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        warm = wl.run_warmup(rec.span)
    finally:
        undo()
    for o in warm:
        tally.add(o.ok, f"warm-up (traced): {o.problems}")
    rec.clear()
    track = speed.SpeedTrack()
    first, timed = [], []
    k = 0
    start = time.perf_counter()
    while keep_going(wl, k, start, args.seconds):
        track.maybe_sample()
        t = time.perf_counter()
        plain = run_op(wl, args.seed, k)
        rec.op = k
        undo = spans.install(rec)
        try:
            with rec.span("bench.op"):
                o = run_op(wl, args.seed, k, rec.span)
        finally:
            undo()
        same = same_output(plain, o)
        tally.add(plain.ok and o.ok and same,
                  f"op {k}: untraced {plain.problems}, traced {o.problems}, "
                  f"same output {same}")
        if plain.seconds is not None and o.seconds is not None:
            timed.append((k, t, plain.seconds, o.seconds))
        if k < wl.round_size:
            first.append(o)
        k += 1
    track.sample()
    scale = {k: track.factor(t + (p + o) / 2) for k, t, p, o in timed}
    n = len(timed)
    plain_ips = n / sum(p * scale[k] for k, _, p, _ in timed)
    traced_ips = n / sum(o * scale[k] for k, _, _, o in timed)
    layers, top = spans.layer_metrics(rec, scale, wl.round_size)
    metrics = dict(layers)
    metrics.update({
        "tensor_core.plan_cache.entries": (len(tc._PLAN_CACHE), "count"),
        "cli.instance_bytes": (
            sum(len(o.gen_text.encode()) for o in first), "bytes"),
        "trace.instances_per_s": (traced_ips, "1/s"),
        "trace.untraced_instances_per_s": (plain_ips, "1/s"),
        "trace.overhead_instances_per_s": (traced_ips - plain_ips, "1/s"),
        "bench.timed_ops": (n, "count"),
        "bench.calibration_ms": (track.median_s() * 1e3, "ms"),
    })
    SPANS_DIR.mkdir(exist_ok=True)
    rec.write(SPANS_DIR / f"spans-{wl.name}.jsonl.gz")
    print(f"# top ein subscripts by self time: {', '.join(top)}")
    return metrics, warm, first, n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    wl = workloads.WORKLOADS[args.workload]
    pins = json.loads(PINS.read_text())[wl.name]
    tally = Tally()

    metrics, warm, first, timed_ops = (traced_run if args.trace else untraced_run)(
        wl, args, tally)

    warm_d = workloads.digests(warm)
    check_digests(tally, "warm-up", warm_d, pins["warmup"])
    first_d = workloads.digests(first)
    if args.seed == DEFAULT_SEED:
        check_digests(tally, "first round", first_d, pins["first_round_seed0"])
    failed_ratio = tally.failed / tally.attempted
    if args.trace:
        metrics["bench.failed_ratio"] = (failed_ratio, "ratio")
    for p in tally.problems[:5]:
        sys.stderr.write(f"FAILED: {p}\n")
    print(f"# {wl.name} seed={args.seed} trace={args.trace} "
          f"timed_ops={timed_ops} attempted={tally.attempted} "
          f"failed={tally.failed} failed_ratio={failed_ratio:g}")
    print(f"# digests warm-up={json.dumps(warm_d)} "
          f"first-round={json.dumps(first_d)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
