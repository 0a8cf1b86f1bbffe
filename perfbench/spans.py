"""Spans recorded from outside the program, and the per-layer metrics.

``install`` replaces the module attributes that callers resolve with timing
wrappers and returns a function that puts the originals back.  Several
functions are imported by name, so each is wrapped where the name is bound
(``invariants.covariant_derivative``, ``agm.covariant_derivative``,
``cli.agm_basic``, ``cli.agm_fourth``, ``mappings.ConnectionSpace``, the
invariants ``agm`` imports); the ``SpaceFields`` getters are wrapped through
the class's property objects.

``SpaceFields`` getters and the ``_cache`` dict of a fields bundle are lazy:
the first caller pays for a derivation every later caller shares, so that
cost lands in the self time of whichever span asked first.

A span is (name, start, end, parent, operation id); ``tensor_core.ein``
spans also carry their subscript, multiply-add count and whether the first
operand is the Kronecker delta.  Spans are kept in memory and written out
once, when the run ends.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array

import workloads  # noqa: F401  (first: puts the checkout's src/ on sys.path)
from geoinv import agm, cli, connection, invariants, jet, mappings
from geoinv import tensor_core as tc

FORMS = ("thomas_basic", "thomas_factored", "thomas_third", "weyl_basic",
         "weyl_factored", "weyl_first_over", "weyl_fourth", "rho_skew",
         "A_tensor", "rho", "S_tilde", "theta_tilde", "thomas_star")
# invariants that agm.py binds by name
AGM_IMPORTS = ("A_tensor", "S_tilde", "rho", "weyl_factored", "weyl_fourth")
DERIVED = ("B", "b", "theta_tilde", "omega")
# The eight ein subscripts that take the most self time on seed 0, ranked by
# the sum over the three workloads of each subscript's share of that
# workload's ein self time.  Fixed, so a later change is measured on the
# same set.  The a..e names come from covariant_derivative and
# transpose_pair, which build their subscripts from tc._letters.
SUBSCRIPTS = (
    "in,jm->ijmn", "im,jn->ijmn", "ajm,ian->ijmn", "aed,ebc->abcd",
    "ebd,aec->abcd", "ecd,abe->abcd", "abcd->abdc", "abcd->acbd",
)
EIN = "tensor_core.ein"


def subscript_metric(expr: str) -> str:
    return f"{EIN}.{expr.replace(',', '_').replace('->', '-')}.self_s"


class Recorder:
    """In-memory span store; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.exprs: list[str] = []
        self._expr_ids: dict[str, int] = {}
        self._madds: dict[tuple[str, int], int] = {}
        self._deltas: dict[int, list] = {}
        self.op = -1
        self.stack: list[int] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op_id = array("i")
        self.expr = array("i")
        self.madds = array("q")
        self.delta = array("b")

    def name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def begin(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_id.append(self.op)
        self.expr.append(-1)
        self.madds.append(0)
        self.delta.append(0)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    def span(self, name: str):
        return _Span(self, self.name_id(name))

    def clear(self) -> None:
        for a in (self.name, self.start, self.end, self.parent, self.op_id,
                  self.expr, self.madds, self.delta):
            del a[:]

    def note_ein(self, i: int, expr: str, tensors) -> None:
        dim = tensors[0].dim
        e = self._expr_ids.get(expr)
        if e is None:
            e = self._expr_ids[expr] = len(self.exprs)
            self.exprs.append(expr)
        self.expr[i] = e
        key = (expr, dim)
        m = self._madds.get(key)
        if m is None:
            letters = set(expr.split("->")[0].replace(",", ""))
            m = self._madds[key] = dim ** len(letters)
        self.madds[i] = m
        first = tensors[0]
        if first.p == 1 and first.q == 1:
            d = self._deltas.get(dim)
            if d is None:
                d = self._deltas[dim] = tc.delta(dim).data
            self.delta[i] = first.data == d

    def write(self, path) -> None:
        """Every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({
                "fields": ["name", "start_ns", "end_ns", "parent", "op",
                           "subscript", "madds", "delta"],
                "names": self.names, "subscripts": self.exprs}) + "\n")
            for row in zip(self.name, self.start, self.end, self.parent,
                           self.op_id, self.expr, self.madds, self.delta):
                fh.write(json.dumps(row) + "\n")


class _Span:
    __slots__ = ("rec", "nid", "i")

    def __init__(self, rec, nid):
        self.rec = rec
        self.nid = nid

    def __enter__(self):
        self.i = self.rec.begin(self.nid)

    def __exit__(self, *exc):
        self.rec.finish(self.i)
        return False


def _wrap(rec: Recorder, name: str, fn):
    nid = rec.name_id(name)

    def wrapped(*args, **kwargs):
        i = rec.begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.finish(i)
    return wrapped


def _wrap_ein(rec: Recorder, fn):
    nid = rec.name_id(EIN)

    def ein(expr, out_valence, *tensors):
        i = rec.begin(nid)
        try:
            return fn(expr, out_valence, *tensors)
        finally:
            rec.finish(i)
            rec.note_ein(i, expr, tensors)
    return ein


def install(rec: Recorder):
    """Wrap every measured binding; returns the function that undoes it."""
    saved = []

    def put(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    put(tc, "ein", _wrap_ein(rec, tc.ein))
    put(tc, "max_abs_diff",
        _wrap(rec, "tensor_core.max_abs_diff", tc.max_abs_diff))
    cd = _wrap(rec, "jet.covariant_derivative", jet.covariant_derivative)
    for owner in (jet, invariants, agm):
        put(owner, "covariant_derivative", cd)
    put(mappings, "ConnectionSpace",
        _wrap(rec, "connection.ConnectionSpace", connection.ConnectionSpace))
    for fn in ("generate", "generate_agm3", "build_target_connection",
               "fit_agm_parameters"):
        put(mappings, fn, _wrap(rec, f"mappings.{fn}", getattr(mappings, fn)))
    for attr in DERIVED:
        prop = getattr(mappings.SpaceFields, attr)
        put(mappings.SpaceFields, attr,
            property(_wrap(rec, "mappings.SpaceFields.derive", prop.fget),
                     doc=prop.__doc__))
    wrapped_forms = {f: _wrap(rec, f"invariants.{f}", getattr(invariants, f))
                     for f in FORMS}
    for f, w in wrapped_forms.items():
        put(invariants, f, w)
    for f in AGM_IMPORTS:
        put(agm, f, wrapped_forms[f])
    for f in ("agm_basic", "agm_fourth"):
        w = _wrap(rec, f"agm.{f}", getattr(agm, f))
        put(agm, f, w)
        put(cli, f, w)
    put(agm, "agm_diagnostics",
        _wrap(rec, "agm.agm_diagnostics", agm.agm_diagnostics))

    def undo():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
        saved.clear()
    return undo


# ---------------------------------------------------------------------------
# per-layer metrics

SELF_TIMES = (
    ["tensor_core.max_abs_diff", "jet.covariant_derivative",
     "connection.ConnectionSpace", "mappings.generate",
     "mappings.generate_agm3", "mappings.build_target_connection",
     "mappings.fit_agm_parameters", "mappings.SpaceFields.derive"]
    + [f"invariants.{f}" for f in FORMS]
    + ["agm.agm_basic", "agm.agm_fourth", "agm.agm_diagnostics",
       "cli.encode", "cli.decode", "cli.report"])
CALL_COUNTS = ("jet.covariant_derivative", "connection.ConnectionSpace")


def _aggregate(rec: Recorder, scale: dict, round_size: int) -> dict:
    n = len(rec.name)
    child = [0] * n
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            child[p] += rec.end[i] - rec.start[i]
    agg = {"self": {}, "incl": {}, "first_calls": {}, "ein": {}, "delta_ns": 0,
           "madds_all": 0, "madds_first": 0, "delta_first": 0}
    self_ns, incl_ns, first_calls, ein_ns = (
        agg["self"], agg["incl"], agg["first_calls"], agg["ein"])
    ein_id = rec._name_ids.get(EIN, -1)
    for i in range(n):
        name = rec.names[rec.name[i]]
        f = scale.get(rec.op_id[i], 1.0)
        dur = (rec.end[i] - rec.start[i]) * f
        own = dur - child[i] * f
        self_ns[name] = self_ns.get(name, 0) + own
        incl_ns[name] = incl_ns.get(name, 0) + dur
        first = rec.op_id[i] < round_size
        if first:
            first_calls[name] = first_calls.get(name, 0) + 1
        if rec.name[i] == ein_id:
            expr = rec.exprs[rec.expr[i]]
            ein_ns[expr] = ein_ns.get(expr, 0) + own
            agg["madds_all"] += rec.madds[i]
            if rec.delta[i]:
                agg["delta_ns"] += own
            if first:
                agg["madds_first"] += rec.madds[i]
                agg["delta_first"] += rec.delta[i]
    return agg


def layer_metrics(rec: Recorder, scale: dict, round_size: int):
    """Per-layer metrics from the recorded spans, as {name: (value, unit)},
    and the subscripts with the most ein self time in this run.

    ``scale`` maps each traced operation id to its machine-speed factor (see
    ``speed``).  ``*.self_s`` and ``cli.pair_invariants.s`` are scaled
    seconds per operation, averaged over those operations; ``*.calls`` and
    ``*.madds`` are exact counts over the first round of the stream
    (operations 0 .. round_size-1), the same work in every run with the same
    seed.
    """
    traced_ops = max(len(scale), 1)
    agg = _aggregate(rec, scale, round_size)
    self_ns, first_calls = agg["self"], agg["first_calls"]

    def per_op(ns):
        return ns / 1e9 / traced_ops

    out = {
        f"{EIN}.calls": (first_calls.get(EIN, 0), "count"),
        f"{EIN}.madds": (agg["madds_first"], "count"),
        f"{EIN}.self_s": (per_op(self_ns.get(EIN, 0)), "s"),
        f"{EIN}.ns_per_madd": (self_ns.get(EIN, 0) / max(agg["madds_all"], 1),
                               "ns/madd"),
        f"{EIN}.delta_blocks.calls": (agg["delta_first"], "count"),
        f"{EIN}.delta_blocks.self_s": (per_op(agg["delta_ns"]), "s"),
    }
    for expr in SUBSCRIPTS:
        out[subscript_metric(expr)] = (per_op(agg["ein"].get(expr, 0)), "s")
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = (per_op(self_ns.get(name, 0)), "s")
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = (first_calls.get(name, 0), "count")
    out["cli.pair_invariants.s"] = (
        per_op(agg["incl"].get("cli.pair_invariants", 0)), "s")
    top = sorted(agg["ein"].items(), key=lambda kv: -kv[1])[:len(SUBSCRIPTS)]
    return out, [expr for expr, _ in top]
