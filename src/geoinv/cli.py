"""Command-line front end.

Subcommands:

* ``gen``        — deterministically generate a mapping instance as JSON.
* ``check``      — certify every applicable invariant on an instance file.
* ``identities`` — run the single-space identity suite on random draws.
* ``eval``       — evaluate an index-notation expression against an instance.

Exit codes: 0 success, 1 invariant/identity failure, 2 usage or input error.
The environment variable ``GEOINV_MODE`` sets the default arithmetic mode
(an unknown mode exits 2).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import groupby

from . import invariants as inv
from . import tensor_core as tc
from .agm import agm_basic, agm_decompose, agm_fourth
from .index_expr import evaluate as expr_evaluate
from .index_expr import parse as expr_parse, ref_names
from .jet import JetTensor
from .mappings import (FIXED_FLAGS, MAPPINGS, MODES, DegenerateError,
                       InstanceError, MappingInstance, check_valence, curl,
                       generate, generate_agm3, vector_connection_derivative)
from .tensor_core import ABS_TOL, DOMAINS, REL_TOL, GeoinvError, Tensor


class UsageError(GeoinvError):
    pass


# ---------------------------------------------------------------------------
# number / instance (de)serialization


FLAG_NAMES = ("s1", "s2", "s3")


def _header(ins: MappingInstance) -> dict:
    """The instance entries an instance file and a check report share."""
    obj = {
        "dimension": ins.dim,
        "mode": ins.mode,
        "flags": dict(zip(FLAG_NAMES, ins.flags)),
        "mapping": ins.mapping,
        "seed": ins.seed,
    }
    if ins.mapping == "agm3":
        obj["p"] = ins.p
    return obj


def instance_to_obj(ins: MappingInstance) -> dict:
    out = ins.domain.tensor_out
    return {**_header(ins), "fields": {
        name: {"valence": list(t.valence), "value": out(t.value),
               "grad": out(t.grad)}
        for name, t in sorted(ins.fields.items())}}


def _expect(obj: dict, key: str, types) -> object:
    if key not in obj:
        raise UsageError(f"instance file is missing {key!r}")
    v = obj[key]
    if not isinstance(v, types) or isinstance(v, bool):
        raise UsageError(f"instance entry {key!r} has the wrong type")
    return v


def instance_from_obj(obj) -> MappingInstance:
    """The instance an instance-file object holds, validated: the one gate."""
    try:
        ins = _read_instance(obj)
        ins.validate()
    except (InstanceError, DegenerateError, ValueError) as e:
        raise UsageError(str(e)) from None
    return ins


def _read_instance(obj) -> MappingInstance:
    if not isinstance(obj, dict):
        raise UsageError("instance file must contain a JSON object")
    dim = _expect(obj, "dimension", int)
    mode = _expect(obj, "mode", str)
    if mode not in MODES:
        raise UsageError(f"unknown mode {mode!r}")
    mapping = _expect(obj, "mapping", str)
    flags_obj = _expect(obj, "flags", dict)
    seed = obj.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise UsageError("seed must be an integer or null")
    raw = _expect(obj, "fields", dict)
    read = DOMAINS[mode].reader()
    fields: dict[str, JetTensor] = {}
    for name, entry in raw.items():
        if not isinstance(entry, dict):
            raise UsageError(f"field {name!r} must be an object")
        val = entry.get("valence")
        if (not isinstance(val, list) or len(val) != 2
                or any(not isinstance(k, int) or isinstance(k, bool) or k < 0
                       for k in val)):
            raise UsageError(f"field {name!r} has a bad valence")
        valence = (val[0], val[1])
        # before the array sizes: dim ** rank of a crafted valence is huge
        check_valence(mapping, name, valence)
        data = entry.get("value")
        gdata = entry.get("grad")
        if not isinstance(data, list) or not isinstance(gdata, list):
            raise UsageError(f"field {name!r} needs 'value' and 'grad' arrays")
        want = dim ** (valence[0] + valence[1])
        if len(data) != want or len(gdata) != want * dim:
            raise UsageError(
                f"field {name!r}: array lengths do not match valence "
                f"{valence} at dimension {dim}")
        fields[name] = JetTensor(
            read(dim, valence, data),
            read(dim, (valence[0], valence[1] + 1), gdata))
    return MappingInstance(dim, mode, tuple(map(flags_obj.get, FLAG_NAMES)),
                           mapping, fields, p=obj.get("p"), seed=seed)


_SCALARS = frozenset((str, int, float, bool, type(None)))
_INDENTED = json.JSONEncoder(indent=2, sort_keys=True)


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\n"``, byte for byte.

    json writes indented output with its pure-Python encoder; here each list
    of scalars (every tensor of an instance file) and each dict of scalars
    (every report row) is one call to its C encoder instead.
    """
    return _encode(obj, "\n") + "\n"


def _encode(x, nl: str) -> str:
    """x as indented JSON, nl being the newline and indent of its own level."""
    t = type(x)
    if t in _SCALARS:
        return json.dumps(x)
    if t is list and x:
        entries = x
    elif t is dict and x and all(type(k) is str for k in x):
        entries = x.values()
    else:  # empty containers, tuples, subclasses, dicts with a non-str key
        return _INDENTED.encode(x).replace("\n", nl)  # no raw newline in a JSON string
    inner = nl + "  "
    if _SCALARS.issuperset(map(type, entries)):
        # the item separator carries the newline and indent
        flat = json.dumps(x, separators=("," + inner, ": "), sort_keys=True)
        return flat[0] + inner + flat[1:-1] + nl + flat[-1]
    if t is list:
        body = [_encode(v, inner) for v in x]
    else:
        body = [json.dumps(k) + ": " + _encode(v, inner) for k, v in sorted(x.items())]
    ends = "[]" if t is list else "{}"
    return ends[0] + inner + ("," + inner).join(body) + nl + ends[1]


def load_instance(path: str) -> MappingInstance:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}") from None
    except ValueError as e:  # JSONDecodeError, or an over-long integer literal
        raise UsageError(f"{path} is not valid JSON: {e}") from None
    except RecursionError:
        raise UsageError(f"{path} is nested too deeply") from None
    return instance_from_obj(obj)


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# residual records


def _record(tag: str, name: str, a: Tensor, b: Tensor, mode: str,
            rel_tol: float, abs_tol: float, seed=None) -> dict:
    dom = DOMAINS[mode]
    try:
        ok, d, scale = dom.measure(a, b, rel_tol, abs_tol)
    except GeoinvError as e:  # a NaN or infinite difference
        raise UsageError(f"the {tag!r} {e}") from None
    if scale is None:  # the exact rule needs none; a nonzero gap is reported relative
        scale = max(a.max_abs(), b.max_abs()) if d else 0
    row = {
        "tag": tag,
        "name": name,
        "max_abs": dom.num_out(d),
        "max_rel": dom.num_out(dom.c(d, scale) if scale else dom.c(0)),
        "pass": bool(ok),
    }
    if seed is not None:
        row["seed"] = seed
    return row


def _conclude(report: dict, table: list[dict], header: str,
              out: str | None) -> int:
    """Print the table to stderr, emit the report, return the exit code."""
    sys.stderr.write(header + "\n")
    width = max((len(r["tag"]) for r in table), default=4)
    for r in table:
        status = "pass" if r["pass"] else "FAIL"
        seed = f"  seed={r['seed']}" if "seed" in r else ""
        sys.stderr.write(
            f"  {r['tag']:<{width}}  {status}  max_abs={r['max_abs']}{seed}\n")
    ok = sum(1 for r in table if r["pass"])
    sys.stderr.write(f"  {ok}/{len(table)} passed\n")
    _emit(dumps(report), out)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    given = (args.s1, args.s2, args.s3)
    fixed = FIXED_FLAGS.get(args.mapping)
    if fixed:
        for name, got, want in zip(FLAG_NAMES, given, fixed):
            if got is not None and got != want:
                raise UsageError(f"{args.mapping} instances fix {name}={want}")
    if args.mapping == "agm3":
        ins = generate_agm3(args.n, args.seed, 1 if args.p is None else args.p,
                            args.mode)
    else:
        if args.p is not None:
            raise UsageError("--p applies only to agm3 instances")
        flags = fixed or tuple(1 if s is None else s for s in given)
        ins = generate(args.n, args.seed, flags, args.mapping, args.mode)
    _emit(dumps(instance_to_obj(ins)), args.output)
    return 0


# ---------------------------------------------------------------------------
# check


def _on(mapping: str):
    return lambda ins: ins.mapping == mapping


# (tag, name, applies(instance) or None for every instance,
#  build(this side's fields, the other side's fields)), sorted by tag.
INVARIANTS = (
    ("agm-basic", "vector-deformation factored form",
     _on("agm3"), lambda f, g: agm_basic(f)),
    ("agm-fourth", "vector-deformation fourth form",
     _on("agm3"), lambda f, g: agm_fourth(f)),
    ("geodesic-thomas", "trace-shift reduced connection",
     _on("geodesic"), lambda f, g: inv.geodesic_thomas(f.space)),
    ("geodesic-weyl", "trace-shift curvature form",
     _on("geodesic"), lambda f, g: inv.part(f.space, "geodesic_weyl")),
    ("rho-skew", "skew part of the source-trace derivative",
     None, lambda f, g: inv.rho_skew(f)),
    ("skew-ricci", "skew part of the Ricci trace",
     None, lambda f, g: f.space.skew_ricci),
    ("theta-reduced", "reduced trace (trace-shift-free rules)",
     lambda ins: ins.flags[0] == 0, lambda f, g: inv.theta_tilde(f)),
    ("thomas-factored", "reduced connection, expanded route",
     None, lambda f, g: inv.thomas_factored(f)),
    ("thomas-reduced", "source-corrected connection (trace-shift-free rules)",
     lambda ins: ins.flags[0] == 0, lambda f, g: inv.thomas_star(f)),
    ("thomas-second", "reduced connection",
     None, lambda f, g: inv.thomas_basic(f)),
    ("thomas-third", "symmetric-mean connection (pair symmetry)",
     None, lambda f, g: inv.thomas_third(f.space, g.space)),
    ("weyl-basic", "curvature of the reduced connection",
     None, lambda f, g: inv.weyl_basic(f)),
    ("weyl-factored", "factored curvature form",
     None, lambda f, g: inv.weyl_factored(f)),
    ("weyl-first-closed", "first derived form, closed over the factored one",
     None, lambda f, g: inv.weyl_first_over(f)),
    ("weyl-fourth", "fourth derived curvature form",
     None, lambda f, g: inv.weyl_fourth(f)),
    ("weyl-projective", "projective curvature form",
     _on("geodesic"), lambda f, g: inv.part(f.space, "weyl_projective")),
)


def pair_invariants(ins: MappingInstance) -> list[tuple[str, str, Tensor, Tensor]]:
    """(tag, name, source value, target value) for every applicable invariant."""
    s, t = ins.source_fields(), ins.target_fields()
    return [(tag, name, build(s, t), build(t, s))
            for tag, name, applies, build in INVARIANTS
            if applies is None or applies(ins)]


def _check_tolerances(args) -> None:
    for option, tol in (("--tol", args.tol), ("--abs-tol", args.abs_tol)):
        if not (math.isfinite(tol) and tol >= 0):
            raise UsageError(f"{option} must be a finite number >= 0, got {tol}")


def cmd_check(args) -> int:
    ins = load_instance(args.file)
    _check_tolerances(args)
    rows = [_record(tag, name, a, b, ins.mode, args.tol, args.abs_tol)
            for tag, name, a, b in pair_invariants(ins)]
    report = {
        "file": args.file,
        **_header(ins),
        "tolerance": ins.domain.tolerance(args.tol, args.abs_tol),
        "invariants": rows,
        "pass": all(r["pass"] for r in rows),
    }
    if args.literal_p2:
        if ins.mapping != "agm3" or ins.p != 2:
            raise UsageError(
                "--literal-p2 applies only to agm3 instances with p=2")
        phi, L = ins.fields["phi"], ins.fields["L"]
        gap = tc.max_abs_diff(
            vector_connection_derivative(phi, L, 2),
            vector_connection_derivative(phi, L, 2, literal=True))
        report["diagnostics"] = [{
            "tag": "literal-p2-derivative",
            "name": "gap between the contracted kind-2 vector derivative "
                    "and its uncontracted printed variant (informational)",
            "max_abs": ins.domain.num_out(gap),
        }]
    return _conclude(report, rows, f"invariance check: {args.file}", args.report)


# ---------------------------------------------------------------------------
# identities


def identity_rows(n: int, seed: int, mode: str, rel_tol: float,
                  abs_tol: float) -> list[dict]:
    flags = ((seed >> 2) & 1, (seed >> 1) & 1, seed & 1)
    f = generate(n, seed, flags, "general", mode).source_fields()
    sp = f.space
    g = generate_agm3(n, seed, 1 + (seed % 2), mode).source_fields()
    dec = agm_decompose(g)
    R_trace = tc.ein("aamn->mn", (0, 2), sp.R)
    A, rho_skew = inv.A_tensor(f), inv.rho_skew(f)
    rows = (
        ("curvature-antisymmetry",
         "curvature flips sign in its last index pair",
         tc.sym_pair(sp.R, 2, 3, factor_free=True), tc.zeros(n, (1, 3))),
        ("curvature-trace-curl",
         "first-slot curvature trace equals the trace curl",
         R_trace, curl(sp.theta)),
        ("curvature-trace-skew",
         "first-slot curvature trace equals minus the skew Ricci",
         R_trace, tc.scale(sp.skew_ricci, -1)),
        ("completion-symmetry", "quadratic trace completion is symmetric",
         tc.alternate(inv.S_tilde(f), 0, 1), tc.zeros(n, (0, 2))),
        ("deformation-trace-diagonal",
         "diagonal trace of the deformation curvature is minus the "
         "skew source-trace derivative",
         tc.ein("aamn->mn", (0, 2), A), tc.scale(rho_skew, -1)),
        ("deformation-trace-last",
         "alternated last-slot trace of the deformation curvature is "
         "the skew source-trace derivative",
         tc.alternate(tc.ein("amna->mn", (0, 2), A), 0, 1), rho_skew),
        ("reconstruction",
         "deformation curvature rebuilt from its trace decomposition",
         dec.total, inv.A_tensor(g)),
        ("reconstruction-trace",
         "symmetrized deformation-curvature trace from the decomposition",
         inv.A_trace(g), dec.total_trace()),
    )
    return [_record(tag, name, a, b, mode, rel_tol, abs_tol, seed=seed)
            for tag, name, a, b in rows]


def cmd_identities(args) -> int:
    if args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}")
    _check_tolerances(args)
    rows = sorted((r for k in range(args.count)
                   for r in identity_rows(args.n, args.seed + k, args.mode,
                                          args.tol, args.abs_tol)),
                  key=lambda r: (r["tag"], r["seed"]))
    report = {
        "dimension": args.n,
        "mode": args.mode,
        "count": args.count,
        "seed": args.seed,
        "tolerance": DOMAINS[args.mode].tolerance(args.tol, args.abs_tol),
        "identities": rows,
        "pass": all(r["pass"] for r in rows),
    }
    # one table line per identity: its first failing seed, else its first seed
    worst = [min(group, key=lambda r: r["pass"])
             for _, group in groupby(rows, key=lambda r: r["tag"])]
    return _conclude(report, worst,
                     f"identity suite: n={args.n}, {args.count} draws",
                     args.report)


# ---------------------------------------------------------------------------
# eval


def _nest(t: Tensor, mode: str):
    out = DOMAINS[mode].tensor_out(t)
    for _ in range(t.rank - 1):
        out = [out[i:i + t.dim] for i in range(0, len(out), t.dim)]
    return out if t.rank else out[0]


def eval_bindings(ins: MappingInstance, side: str, names=None) -> dict:
    """One side's bindings; derived ones only if in names (all if names is None)."""
    fields = ins.source_fields() if side == "source" else ins.target_fields()
    sp = fields.space
    bind = dict(ins.fields)
    if side == "target":
        # expose the target space's own connection under the plain name
        bind["L"] = sp.L
    bind.update({
        "Ls": sp.Lsym,
        "R": sp.R,
        "Ric": sp.ricci,
        "Ricci": sp.ricci,
        "RS": sp.skew_ricci,
        "theta": sp.theta,
    })
    derived = {
        "tt": lambda: fields.theta_tilde, "B": lambda: fields.B,
        "b": lambda: fields.b, "w": lambda: fields.omega,
        "rho": lambda: inv.rho(fields), "S": lambda: inv.S_tilde(fields),
        "A": lambda: inv.A_tensor(fields),
    }
    bind.update({name: make() for name, make in derived.items()
                 if names is None or name in names})
    return bind


def cmd_eval(args) -> int:
    ins = load_instance(args.file)
    try:
        node = expr_parse(args.expr)
        out = expr_evaluate(node, eval_bindings(ins, args.space, ref_names(node)),
                            (ins.source_fields() if args.space == "source"
                             else ins.target_fields()).space, ins.domain)
    except RecursionError:
        raise UsageError("expression is nested too deeply") from None
    sys.stdout.write(dumps(_nest(out, ins.mode)))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _mode_default() -> str:
    mode = os.environ.get("GEOINV_MODE", "rational")
    if mode not in MODES:
        raise UsageError(f"GEOINV_MODE must be {' or '.join(map(repr, MODES))}, "
                         f"got {mode!r}")
    return mode


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="geoinv",
        description="Generate, certify and inspect connection-mapping "
                    "invariance instances.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("--n", type=int, required=True, help="dimension")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--mapping", choices=MAPPINGS, default="general")
    g.add_argument("--s1", type=int, choices=(0, 1), default=None)
    g.add_argument("--s2", type=int, choices=(0, 1), default=None)
    g.add_argument("--s3", type=int, choices=(0, 1), default=None)
    g.add_argument("--p", type=int, choices=(1, 2), default=None,
                   help="vector-derivative kind (agm3 only)")
    g.add_argument("--mode", choices=MODES, default=_mode_default())
    g.add_argument("-o", "--output", default=None, help="output file")
    g.set_defaults(func=cmd_gen)

    c = sub.add_parser("check", help="certify invariance on an instance file")
    c.add_argument("file")
    c.add_argument("--tol", type=float, default=REL_TOL,
                   help="relative tolerance (float mode)")
    c.add_argument("--abs-tol", type=float, default=ABS_TOL,
                   help="absolute tolerance (float mode)")
    c.add_argument("--report", default=None, help="write the JSON report here")
    c.add_argument("--literal-p2", action="store_true",
                   help="add the uncontracted kind-2 derivative diagnostic "
                        "(agm3, p=2 instances)")
    c.set_defaults(func=cmd_check)

    i = sub.add_parser("identities", help="run the single-space identity suite")
    i.add_argument("--n", type=int, default=4)
    i.add_argument("--seed", type=int, default=0)
    i.add_argument("--count", type=int, default=20)
    i.add_argument("--mode", choices=MODES, default=_mode_default())
    i.add_argument("--tol", type=float, default=REL_TOL)
    i.add_argument("--abs-tol", type=float, default=ABS_TOL)
    i.add_argument("--report", default=None)
    i.set_defaults(func=cmd_identities)

    e = sub.add_parser("eval", help="evaluate an index expression")
    e.add_argument("file")
    e.add_argument("expr")
    e.add_argument("--space", choices=("source", "target"), default="source")
    e.set_defaults(func=cmd_eval)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    except (GeoinvError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
