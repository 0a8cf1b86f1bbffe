"""Bit-identity sweep: a sha256 per mode of what geoinv writes and certifies.

    python tests/bit_sweep.py <checkout> [--dims N ...] [--dump FILE]

Imports geoinv from ``<checkout>/src`` and digests, in rational and float
mode, the ``gen`` bytes of each instance, the ``repr`` of every value and
grad entry of every field read back from those bytes by
``cli.instance_from_obj``, the ``repr`` of every entry of every
``pair_invariants`` tensor, the ``repr`` of every ``agm_diagnostics`` row
of both sides, the ``repr`` of every entry of the three
``derived_invariants`` tensors of the ``weyl_factored`` and ``weyl_fourth``
decompositions of both sides of each general instance, and the ``repr`` of
every ``identity_rows`` record (what ``geoinv identities`` writes) at each
N and seed.  The sweep: general N = 2-5 x seeds 0-3 x all 8 flag
patterns, geodesic N = 2-5 x seeds 0-3, agm3 N = 2-4 x seeds 0-3 x
p = 1, 2.  ``--dims`` replaces N = 2-5 by the dimensions given (agm3 still
only up to 4): ``--dims 6`` sweeps the general and geodesic instances and
the identity rows at N = 6.  Prints one line per mode, rational then
float: the mode, the number of its digested records and their digest.  Two
checkouts that print the same line wrote and certified the same bits in
that mode, so a change that moves only float bits shows that its rational
line held.  ``--dump FILE`` also writes every digested record to FILE, one
per line as its mode and its ``repr``, so two checkouts' dumps can be
``diff``ed to find the records that moved.  Not a test module: pytest does
not collect it.
"""

import argparse
import contextlib
import hashlib
import itertools
import json
import sys
from pathlib import Path

FLAGS = list(itertools.product((0, 1), repeat=3))


def _instances(mode, dims, seeds):
    from geoinv.mappings import generate, generate_agm3

    for dim, seed in itertools.product(dims, seeds):
        for flags in FLAGS:
            yield generate(dim, seed, flags, "general", mode)
        yield generate(dim, seed, (1, 0, 0), "geodesic", mode)
        if dim <= 4:
            for p in (1, 2):
                yield generate_agm3(dim, seed, p, mode)


def digest(dims=(2, 3, 4, 5), seeds=range(4), dump=None) -> dict[str, tuple[int, str]]:
    """{mode: (records digested, sha256 hex)} over the sweep at these dims
    and seeds, rational then float; each record is also written to the text
    file ``dump``, if given, as a line "<mode> <repr of the record>"."""
    from geoinv import agm, cli, invariants as inv
    from geoinv.tensor_core import ABS_TOL, REL_TOL

    out = {}

    def put(record: str) -> None:
        nonlocal count
        h.update(record.encode() + b"\0")
        count += 1
        if dump is not None:
            dump.write(f"{mode} {record!r}\n")

    for mode in ("rational", "float"):
        h, count = hashlib.sha256(), 0
        for ins in _instances(mode, dims, seeds):
            text = cli.dumps(cli.instance_to_obj(ins))
            put(text)
            for name, jet in cli.instance_from_obj(json.loads(text)).fields.items():
                put(repr((name, [repr(x) for x in jet.value.data],
                          [repr(x) for x in jet.grad.data])))
            for tag, _, a, b in cli.pair_invariants(ins):
                put(repr((tag, [repr(x) for x in a.data], [repr(x) for x in b.data])))
            sides = (ins.source_fields(), ins.target_fields())
            if ins.mapping == "agm3":
                for side in sides:
                    for row in agm.agm_diagnostics(side):
                        put(repr(row))
            if ins.mapping == "general":
                for side, form in itertools.product(sides, ("weyl_factored",
                                                            "weyl_fourth")):
                    derived = inv.derived_invariants(inv.decompose(side, form),
                                                     side.space)
                    for key, t in derived.items():
                        put(repr((form, key, [repr(x) for x in t.data])))
        for dim, seed in itertools.product(dims, seeds):
            for record in cli.identity_rows(dim, seed, mode, REL_TOL, ABS_TOL):
                put(repr(record))
        out[mode] = count, h.hexdigest()
    return out


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout")
    ap.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4, 5])
    ap.add_argument("--dump", metavar="FILE",
                    help="also write every digested record to FILE, one per line")
    args = ap.parse_args(argv)
    if min(args.dims) < 2:
        ap.error("--dims must be >= 2, the generator's least dimension")
    src = Path(args.checkout).resolve() / "src"
    sys.path.insert(0, str(src))  # before any geoinv import: the sweep imports lazily
    import geoinv

    if Path(geoinv.__file__).resolve().parent.parent != src:
        print(f"geoinv imported from {geoinv.__file__}, not {src}", file=sys.stderr)
        return 2
    with open(args.dump, "w") if args.dump else contextlib.nullcontext() as dump:
        for mode, (count, hexdigest) in digest(dims=args.dims, dump=dump).items():
            print(mode, count, hexdigest)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
