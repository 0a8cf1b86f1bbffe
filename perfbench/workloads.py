"""The benchmark's workloads: seeded instance streams, one operation each,
and the checks every operation's output must pass.

Each workload is a closed loop with one caller: an operation starts only
after the previous one has been certified.

* ``check-rational`` / ``check-float``: one in-process ``gen -> check`` round
  trip, the path a ``geoinv check`` user runs, over general mappings with
  N in {3, 4, 5} in equal shares and the eight flag patterns cycled.
* ``agm3-rational``: one criterion-6 instance of the third-type family
  (N in {3, 4}, p in {1, 2}): source constraint, exact target fit, the
  invariant rows and the closed-form diagnostics.

Importing this module puts the checkout's ``src/`` first on ``sys.path`` so
the package under test is the one next to the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from geoinv import agm, cli, mappings  # noqa: E402
from geoinv import tensor_core as tc  # noqa: E402

FLAGS = [
    (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1),
]
BASE_TAGS = frozenset({
    "rho-skew", "skew-ricci", "thomas-factored", "thomas-second",
    "thomas-third", "weyl-basic", "weyl-factored", "weyl-first-closed",
    "weyl-fourth",
})
# closed-form groups the published coefficients are known to get wrong
CRITERION_6_MISMATCHES = frozenset({
    ("deform", "mu"), ("deform", "cd"), ("deform", "nutor"),
    ("basic", "deform-mu"), ("basic", "deform-cd"), ("basic", "deform-nutor"),
    ("fourth", "ricci"), ("fourth", "deform-cd"), ("fourth", "deform-nutor"),
    ("fourth", "trace-cd"), ("fourth", "trace-scalar-nu"),
    ("fourth", "trace-scalar-tor"), ("fourth", "trace-outer-nu"),
    ("fourth", "trace-outer-tor"),
    ("first", "deform-mu"), ("first", "deform-cd"), ("first", "deform-nutor"),
    ("first", "over-cd"), ("first", "over-quad"), ("first", "over-nutor"),
    ("split", "first-display-published"),
})
# Warm-up instances use their own seed, never drawn by a stream (stream
# seeds are >= 0), so set-up work and its pinned digests are the same for
# every --seed.
WARMUP_SEED = -1


_NULL = nullcontext()


def no_span(_name):
    """The span factory of an untraced operation."""
    return _NULL


class Outcome:
    """What one operation produced: its time, the problems found in its
    output, and the material the digests are taken over."""

    __slots__ = ("seconds", "problems", "gen_text", "sources")

    def __init__(self, seconds, problems, gen_text, sources):
        self.seconds = seconds
        self.problems = problems
        self.gen_text = gen_text
        self.sources = sources

    @property
    def ok(self) -> bool:
        return not self.problems


def _float_close(a, b) -> tuple[bool, float]:
    """The CLI's float rule, computed here independently of the library."""
    d = max((abs(x - y) for x, y in zip(a.data, b.data)), default=0.0)
    scale = max(max((abs(x) for x in a.data), default=0.0),
                max((abs(x) for x in b.data), default=0.0))
    return d <= cli.ABS_TOL or d <= cli.REL_TOL * scale, d


def _compare(pairs, mode: str) -> list[bool]:
    if mode == "rational":
        return [a.data == b.data for _, _, a, b in pairs]
    return [_float_close(a, b)[0] for _, _, a, b in pairs]


def check_op(mode: str, n: int, seed: int, flags, span=no_span) -> Outcome:
    """gen -> JSON -> load -> pair_invariants -> compare -> report."""
    t0 = time.perf_counter_ns()
    ins = mappings.generate(n, seed, flags, "general", mode)
    with span("cli.encode"):
        gen_text = cli.dumps(cli.instance_to_obj(ins))
    with span("cli.decode"):
        loaded = cli.instance_from_obj(json.loads(gen_text))
    with span("cli.pair_invariants"):
        pairs = cli.pair_invariants(loaded)
    same = _compare(pairs, mode)
    with span("cli.report"):
        rows = [cli._record(tag, name, a, b, mode, cli.REL_TOL, cli.ABS_TOL)
                for tag, name, a, b in pairs]
        report = {
            "file": "-",
            "dimension": loaded.dim,
            "mode": loaded.mode,
            "mapping": loaded.mapping,
            "flags": {"s1": flags[0], "s2": flags[1], "s3": flags[2]},
            "seed": loaded.seed,
            "tolerance": ({"exact": True} if mode == "rational" else
                          {"relative": cli.REL_TOL, "absolute": cli.ABS_TOL}),
            "invariants": rows,
            "pass": all(r["pass"] for r in rows),
        }
        cli.dumps(report)
    seconds = (time.perf_counter_ns() - t0) / 1e9

    problems = []
    want = BASE_TAGS | ({"theta-reduced", "thomas-reduced"} if flags[0] == 0
                        else set())
    if {tag for tag, _, _, _ in pairs} != want:
        problems.append(f"row set {sorted(t for t, _, _, _ in pairs)}")
    for (tag, _, _, _), row, ok in zip(pairs, rows, same):
        if not (ok and row["pass"]):
            problems.append(f"{tag}: pass={row['pass']} compare={ok} "
                            f"max_abs={row['max_abs']}")
    if not report["pass"]:
        problems.append("report does not pass")
    sources = [(tag, a) for tag, _, a, _ in pairs]
    return Outcome(seconds, problems, gen_text, sources)


def agm3_op(n: int, seed: int, p: int, span=no_span) -> Outcome:
    """One criterion-6 instance: constraint, fit, invariants, diagnostics."""
    t0 = time.perf_counter_ns()
    ins = mappings.generate_agm3(n, seed, p, "rational")
    s, t = ins.source_fields(), ins.target_fields()
    m = mappings.vector_connection_derivative(s.agm.phi, s.space.L, p)
    recon = tc.add(tc.ein("i,j->ij", (1, 1), s.agm.phi.value, s.agm.nu),
                   tc.scale(tc.delta(n), s.agm.mu))
    constraint = tc.max_abs_diff(m, recon)
    _, _, fit_residual = mappings.fit_agm_parameters(
        t.agm.phi, t.space.L, p, "rational")
    with span("cli.pair_invariants"):
        pairs = cli.pair_invariants(ins)
    same = _compare(pairs, "rational")
    diagnostics = agm.agm_diagnostics(s)
    seconds = (time.perf_counter_ns() - t0) / 1e9

    problems = []
    if constraint != 0:
        problems.append(f"source constraint residual {constraint}")
    if fit_residual != 0:
        problems.append(f"target fit residual {fit_residual}")
    want = BASE_TAGS | {"agm-basic", "agm-fourth"}
    if {tag for tag, _, _, _ in pairs} != want:
        problems.append(f"row set {sorted(t for t, _, _, _ in pairs)}")
    problems += [f"{tag}: not exact" for (tag, _, _, _), ok in zip(pairs, same)
                 if not ok]
    for row in diagnostics:
        group = (row["section"], row["group"])
        if row["status"] == "match" and row["max_abs"] != 0:
            problems.append(f"diagnostic {group} matches with residual")
        elif row["status"] != "match" and group not in CRITERION_6_MISMATCHES:
            problems.append(f"unexpected diagnostic mismatch {group}")
    gen_text = cli.dumps(cli.instance_to_obj(ins))
    sources = [(tag, a) for tag, _, a, _ in pairs]
    return Outcome(seconds, problems, gen_text, sources)


class Workload:
    """A named instance stream.

    ``cycle`` lists the operation shapes of one round in stream order; a
    timed loop runs whole rounds, so every run has the same mix.
    ``make(shape, seed, mode)`` generates an instance of a shape in either
    mode, for the cross-check.
    """

    def __init__(self, name, cycle, warmup, op, make):
        self.name = name
        self.cycle = cycle
        self.warmup = warmup
        self._op = op
        self.make = make

    @property
    def round_size(self) -> int:
        return len(self.cycle)

    def run_k(self, seed: int, k: int, span=no_span) -> Outcome:
        """Operation ``k`` of the stream of ``seed``."""
        return self._op(self.cycle[k % self.round_size],
                        seed * 1_000_000 + k, span)

    def run_warmup(self, span=no_span) -> list[Outcome]:
        return [self._op(shape, WARMUP_SEED, span) for shape in self.warmup]


def _check_workload(mode):
    return Workload(
        f"check-{mode}",
        cycle=[((3, 4, 5)[k % 3], FLAGS[(k // 3) % 8]) for k in range(24)],
        # one all-flags instance per N builds every plan the stream uses
        warmup=[(n, (1, 1, 1)) for n in (3, 4, 5)],
        op=lambda shape, s, span: check_op(mode, shape[0], s, shape[1], span),
        make=lambda shape, s, m: mappings.generate(shape[0], s, shape[1],
                                                   "general", m))


WORKLOADS = {
    "check-rational": _check_workload("rational"),
    "check-float": _check_workload("float"),
    "agm3-rational": Workload(
        "agm3-rational",
        # N = 3 twice as often as N = 4: with equal shares the median is
        # the mean of the slowest N = 3 and the fastest N = 4 operation,
        # which moves by 20% between seeds
        cycle=[(3, 1), (4, 1), (3, 2), (3, 1), (4, 2), (3, 2)],
        warmup=[(3, 1), (4, 1), (3, 2), (4, 2)],
        op=lambda shape, s, span: agm3_op(shape[0], s, shape[1], span),
        make=lambda shape, s, m: mappings.generate_agm3(shape[0], s, shape[1],
                                                        m)),
}


# ---------------------------------------------------------------------------
# digests


def _entry(x) -> str:
    if isinstance(x, float):
        return repr(x)
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def digests(outcomes) -> dict:
    """sha256 of the gen bytes and of every source-side invariant tensor.

    Pinning the source tensors, not only the residuals, catches a path that
    zeroes both sides of a comparison.
    """
    gen = hashlib.sha256()
    inv = hashlib.sha256()
    for out in outcomes:
        gen.update(out.gen_text.encode())
        for tag, t in out.sources:
            inv.update(f"{tag}:{','.join(map(_entry, t.data))}\n".encode())
    return {"gen": gen.hexdigest(), "invariants": inv.hexdigest()}


# ---------------------------------------------------------------------------
# float against rational, outside any timed region


def cross_check(workload: Workload) -> tuple[int, list[str]]:
    """Compare float-mode invariants against rational ones on the warm-up
    instances; returns (pairs compared, problems)."""
    problems = []
    compared = 0
    for shape in workload.warmup:
        rat, flt = (workload.make(shape, WARMUP_SEED, m)
                    for m in ("rational", "float"))
        for (tag, _, ra, rb), (_, _, fa, fb) in zip(cli.pair_invariants(rat),
                                                    cli.pair_invariants(flt)):
            for r, f in ((ra, fa), (rb, fb)):
                compared += 1
                as_float = tc.Tensor(r.dim, r.valence, [float(x) for x in r.data])
                ok, d = _float_close(f, as_float)
                if not ok:
                    problems.append(f"{shape} {tag}: float vs rational {d}")
    return compared, problems
