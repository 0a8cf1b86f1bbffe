"""One set-up measurement in a fresh process.

Times the import of the package plus the cold warm-up that fills the ``ein``
plan cache, which a ``geoinv`` command-line user pays on every call, and
calibrates the machine speed right after it (see ``speed``; the caller
calibrates right before starting this process).  With
``--cross-check`` it then compares float-mode invariants against rational
ones on the warm-up instances (outside the timed region).  Prints one JSON
object.

    python3 perfbench/probe.py <workload> [--cross-check]
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402  (imports the package under test)


def main() -> int:
    wl = workloads.WORKLOADS[sys.argv[1]]
    warm = wl.run_warmup()
    setup_s = time.perf_counter() - T0
    import speed  # after the timed region: it is not part of set-up
    out = {"setup_s": setup_s, "calibration_s": speed.calibrate(),
           "failed": sum(not o.ok for o in warm), "attempted": len(warm)}
    if "--cross-check" in sys.argv[2:]:
        compared, problems = workloads.cross_check(wl)
        out["attempted"] += compared
        out["failed"] += len(problems)
        out["problems"] = problems
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
