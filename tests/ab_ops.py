"""Interleaved in-process A/B of two checkouts on one benchmark workload.

    python tests/ab_ops.py <parent> <change> --workload W --rounds R [--seed S]

Copies ``<checkout>/src/geoinv`` of each side into a temporary directory
under its own package name and loads ``perfbench/workloads.py`` (the one
next to this script, read and not changed) once against each copy.  After
both sides' warm-up, each operation of R rounds of the workload's stream at
seed S runs on both sides, the side that goes first alternating from pair
to pair.  Every pair must give the same ``gen_text`` and the same ``ok``.
Prints the summed-time ratio and the median per-operation ratio, each as
parent seconds over change seconds (above 1: the change is faster), then
one line per distinct shape of the workload's cycle, in cycle order, with
the median ratio over that shape's operations: a change to a few shapes
shows there, where the overall median hides it.  Both
sides share one process and alternate, so drift in machine speed hits both
alike.  Not a test module: pytest does not collect it.
"""

import argparse
import importlib
import importlib.util
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load(checkout, name: str, root: Path):
    """perfbench's workloads module, bound to a copy of the checkout's
    package imported as ``name`` from the directory ``root``."""
    shutil.copytree(Path(checkout) / "src" / "geoinv", root / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    path, held = list(sys.path), sys.modules.get("geoinv")
    sys.path.insert(0, str(root))
    try:
        pkg = importlib.import_module(name)
        for module in sorted((root / name).glob("*.py")):
            importlib.import_module(f"{name}.{module.stem}")
        # workloads.py imports `geoinv`: let it find this copy
        sys.modules["geoinv"] = pkg
        spec = importlib.util.spec_from_file_location(f"{name}_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        sys.path[:] = path
        if held is None:
            del sys.modules["geoinv"]
        else:
            sys.modules["geoinv"] = held
    return workloads


def compare(parent, change, workload: str, rounds: int, seed: int = 0):
    """(shape, parent seconds, change seconds) per operation of the A/B
    run, shape the operation's entry of the workload's cycle;
    AssertionError if a pair differs in gen_text or in ok."""
    names = ("geoinv_ab_parent", "geoinv_ab_change")
    try:
        with tempfile.TemporaryDirectory() as tmp:
            sides = [load(checkout, name, Path(tmp)).WORKLOADS[workload]
                     for name, checkout in zip(names, (parent, change))]
            for side in sides:
                side.run_warmup()
            times = []
            for k in range(rounds * sides[0].round_size):
                got = [None, None]
                for s in ((0, 1) if k % 2 == 0 else (1, 0)):
                    got[s] = sides[s].run_k(seed, k)
                a, b = got
                assert a.gen_text == b.gen_text, f"operation {k}: gen_text differs"
                assert a.ok == b.ok, f"operation {k}: ok {a.ok} vs {b.ok}"
                times.append((sides[0].cycle[k % sides[0].round_size],
                              a.seconds, b.seconds))
            return times
    finally:  # a later call copies afresh
        for key in [k for k in sys.modules if k.startswith(names)]:
            del sys.modules[key]


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--rounds", type=int, default=16)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    times = compare(args.parent, args.change, args.workload, args.rounds, args.seed)
    total = sum(a for _, a, _ in times) / sum(b for _, _, b in times)
    median = statistics.median(a / b for _, a, b in times)
    print(f"{args.workload}: {len(times)} pairs, summed-time ratio {total:.3f}, "
          f"median per-operation ratio {median:.3f}")
    by_shape: dict = {}
    for shape, a, b in times:
        by_shape.setdefault(shape, []).append(a / b)
    for shape, ratios in by_shape.items():
        print(f"  shape {shape}: {len(ratios)} pairs, "
              f"median ratio {statistics.median(ratios):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
