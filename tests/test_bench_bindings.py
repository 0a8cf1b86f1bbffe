"""The benchmark in ``perfbench/`` wraps library bindings by name from
outside; tier-1 does not collect its own smoke tests, so this guard runs one
traced operation of each kind and fails when a binding it wraps is renamed
or re-bound."""

from pathlib import Path

from geoinv import agm, cli

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_bindings_trace_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads

    originals = (cli.pair_invariants, cli.agm_basic, agm.agm_basic)
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        outcomes = [workloads.check_op("rational", 3, 0, (1, 1, 1), rec.span),
                    workloads.agm3_op(3, 0, 1, rec.span)]
    finally:
        undo()
    assert [o.problems for o in outcomes] == [[], []]
    recorded = {rec.names[i] for i in rec.name}
    assert {"agm.agm_basic", "invariants.weyl_factored"} <= recorded
    # both sides of both instances build their space through the wrapped
    # mappings.ConnectionSpace
    names = [rec.names[i] for i in rec.name]
    assert names.count("connection.ConnectionSpace") == 4
    assert (cli.pair_invariants, cli.agm_basic, agm.agm_basic) == originals
