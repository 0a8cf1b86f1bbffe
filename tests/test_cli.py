"""Command-line interface: exit codes, report schemas, determinism, controls."""

import json
import shutil
import subprocess
from fractions import Fraction

import pytest

from geoinv.cli import dumps, instance_to_obj, load_instance, main


def run_gen(tmp_path, name, *args):
    out = tmp_path / name
    rc = main(["gen", *args, "-o", str(out)])
    assert rc == 0
    return out


# ------------------------------------------------------------------- gen


def test_gen_writes_sorted_two_space_json(tmp_path):
    out = run_gen(tmp_path, "a.json", "--n", "3", "--seed", "0")
    text = out.read_text()
    obj = json.loads(text)
    assert text == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert obj["dimension"] == 3
    assert obj["mapping"] == "general"
    assert obj["mode"] == "rational"
    assert obj["flags"] == {"s1": 1, "s2": 1, "s3": 1}
    assert set(obj["fields"]) == {
        "L", "u", "u_bar", "sigma", "sigma_bar", "f", "f_bar",
        "phi_obj", "phi_obj_bar", "xi",
    }
    ell = obj["fields"]["L"]
    assert ell["valence"] == [1, 2]
    assert len(ell["value"]) == 27 and len(ell["grad"]) == 81
    assert all(isinstance(x, str) and "/" in x for x in ell["value"])


def test_gen_is_byte_stable(tmp_path):
    a = run_gen(tmp_path, "a.json", "--n", "4", "--seed", "3")
    b = run_gen(tmp_path, "b.json", "--n", "4", "--seed", "3")
    assert a.read_bytes() == b.read_bytes()


def test_gen_flag_conflicts_exit_2(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    assert main(["gen", "--n", "3", "--mapping", "geodesic", "--s2", "1", "-o", out]) == 2
    assert main(["gen", "--n", "3", "--mapping", "agm3", "--s1", "0", "-o", out]) == 2
    assert main(["gen", "--n", "3", "--mapping", "general", "--p", "2", "-o", out]) == 2
    capsys.readouterr()


def test_gen_agm3_records_p(tmp_path):
    out = run_gen(tmp_path, "a.json", "--n", "3", "--seed", "1", "--mapping", "agm3", "--p", "2")
    obj = json.loads(out.read_text())
    assert obj["p"] == 2
    assert obj["flags"] == {"s1": 1, "s2": 0, "s3": 1}
    assert "p" not in json.loads(
        run_gen(tmp_path, "b.json", "--n", "3", "--seed", "1").read_text()
    )


def test_gen_mode_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("GEOINV_MODE", "float")
    out = run_gen(tmp_path, "f.json", "--n", "3", "--seed", "0")
    obj = json.loads(out.read_text())
    assert obj["mode"] == "float"
    assert all(isinstance(x, float) for x in obj["fields"]["L"]["value"])
    monkeypatch.delenv("GEOINV_MODE")
    out = run_gen(tmp_path, "r.json", "--n", "3", "--seed", "0")
    assert json.loads(out.read_text())["mode"] == "rational"


# ------------------------------------------------------------------ check


def test_check_general_instance_passes(tmp_path):
    out = run_gen(tmp_path, "g.json", "--n", "3", "--seed", "2")
    rep_path = tmp_path / "rep.json"
    rc = main(["check", str(out), "--report", str(rep_path)])
    assert rc == 0
    rep = json.loads(rep_path.read_text())
    assert rep["pass"] is True
    assert rep["mode"] == "rational"
    assert rep["tolerance"] == {"exact": True}
    tags = [r["tag"] for r in rep["invariants"]]
    assert tags == sorted(tags)
    assert set(tags) == {
        "rho-skew", "skew-ricci", "thomas-factored", "thomas-second",
        "thomas-third", "weyl-basic", "weyl-factored", "weyl-first-closed",
        "weyl-fourth",
    }
    for row in rep["invariants"]:
        assert row["pass"] is True
        assert row["max_abs"] == "0/1"


def test_check_reduced_rows_appear_without_trace_shift(tmp_path):
    out = run_gen(tmp_path, "g.json", "--n", "3", "--seed", "2", "--s1", "0")
    rep_path = tmp_path / "rep.json"
    assert main(["check", str(out), "--report", str(rep_path)]) == 0
    tags = {r["tag"] for r in json.loads(rep_path.read_text())["invariants"]}
    assert {"theta-reduced", "thomas-reduced"} <= tags


def test_check_geodesic_rows(tmp_path):
    out = run_gen(tmp_path, "g.json", "--n", "4", "--seed", "1", "--mapping", "geodesic")
    rep_path = tmp_path / "rep.json"
    assert main(["check", str(out), "--report", str(rep_path)]) == 0
    rep = json.loads(rep_path.read_text())
    tags = {r["tag"] for r in rep["invariants"]}
    assert {"geodesic-thomas", "geodesic-weyl", "weyl-projective"} <= tags
    assert len(rep["invariants"]) == 12
    assert all(r["pass"] for r in rep["invariants"])


def test_check_agm3_rows(tmp_path):
    out = run_gen(tmp_path, "g.json", "--n", "3", "--seed", "4", "--mapping", "agm3")
    rep_path = tmp_path / "rep.json"
    assert main(["check", str(out), "--report", str(rep_path)]) == 0
    rep = json.loads(rep_path.read_text())
    tags = {r["tag"] for r in rep["invariants"]}
    assert {"agm-basic", "agm-fourth"} <= tags
    assert len(rep["invariants"]) == 11


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_check_agm3_fit_residual_exits_2(tmp_path, capsys, mode):
    # The target side's agm parameters are fitted from its own connection; a
    # file whose fit leaves a residual is not a third-type mapping at all.
    out = run_gen(tmp_path, "g.json", "--n", "3", "--seed", "0",
                  "--mapping", "agm3", "--p", "1", "--mode", mode)
    assert main(["check", str(out)]) == 0
    obj = json.loads(out.read_text())
    grad = obj["fields"]["phi"]["grad"]
    if mode == "rational":
        bumped = Fraction(grad[1]) + Fraction(1, 16)
        grad[1] = f"{bumped.numerator}/{bumped.denominator}"
    else:
        grad[1] += 1 / 16
    bad = tmp_path / "bad_fit.json"
    bad.write_text(dumps(obj))
    capsys.readouterr()
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "derivative relation" in err
    if mode == "rational":
        assert "residual 1/16" in err


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("field", ["nu", "mu"])
def test_check_agm3_source_relation_exits_2(tmp_path, capsys, mode, field):
    # The source side's stored agm parameters must satisfy the derivative
    # relation of the source connection, just as the target's fitted ones do.
    out = run_gen(tmp_path, "g.json", "--n", "3", "--seed", "0",
                  "--mapping", "agm3", "--p", "1", "--mode", mode)
    obj = json.loads(out.read_text())
    value = obj["fields"][field]["value"]
    if mode == "rational":
        bumped = Fraction(value[0]) + Fraction(1, 16)
        value[0] = f"{bumped.numerator}/{bumped.denominator}"
    else:
        value[0] += 1 / 16
    bad = tmp_path / "bad_source.json"
    bad.write_text(dumps(obj))
    capsys.readouterr()
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "source connection misses the agm3 derivative relation" in err
    if mode == "rational" and field == "mu":
        assert "residual 1/16" in err


@pytest.mark.parametrize("mapping, fixed", [("geodesic", (1, 0, 0)),
                                            ("agm3", (1, 0, 1))])
@pytest.mark.parametrize("flag", [0, 1, 2])
def test_check_fixed_flag_edit_exits_2(tmp_path, capsys, mapping, fixed, flag):
    # A geodesic file with s1 edited to 0 would otherwise check as the
    # identity mapping; every flag a mapping fixes is checked on load.
    out = run_gen(tmp_path, "g.json", "--n", "3", "--mapping", mapping)
    obj = json.loads(out.read_text())
    name = ("s1", "s2", "s3")[flag]
    obj["flags"][name] = 1 - fixed[flag]
    bad = tmp_path / "bad_flags.json"
    bad.write_text(dumps(obj))
    capsys.readouterr()
    assert main(["check", str(bad)]) == 2
    want = ",".join(map(str, fixed))
    assert f"{mapping} instances fix flags ({want})" in capsys.readouterr().err


def test_check_float_instance(tmp_path):
    out = run_gen(tmp_path, "g.json", "--n", "4", "--seed", "6", "--mode", "float")
    rep_path = tmp_path / "rep.json"
    assert main(["check", str(out), "--report", str(rep_path)]) == 0
    rep = json.loads(rep_path.read_text())
    assert rep["mode"] == "float"
    assert rep["tolerance"] == {"absolute": 1e-12, "relative": 1e-9}
    for row in rep["invariants"]:
        assert isinstance(row["max_abs"], float)


def test_check_value_corruption_still_consistent(tmp_path):
    # Overwriting a stored value yields a *different* but still internally
    # consistent instance (the target side is rebuilt from the stored
    # fields), so the invariance verdict stays green by design.
    out = run_gen(tmp_path, "g.json", "--n", "3", "--seed", "5")
    obj = json.loads(out.read_text())
    obj["fields"]["u_bar"]["value"][0] = "9/1"
    bad = tmp_path / "bad_value.json"
    bad.write_text(dumps(obj))
    assert main(["check", str(bad)]) == 0


def test_check_gradient_corruption_fails_conditional_rows(tmp_path):
    # Breaking the curl condition on the trace-shift covector defeats exactly
    # the invariants that depend on it; the purely algebraic rows survive.
    out = run_gen(tmp_path, "g.json", "--n", "3", "--seed", "5")
    obj = json.loads(out.read_text())
    obj["fields"]["u_bar"]["grad"][1] = "7/2"
    bad = tmp_path / "bad_grad.json"
    bad.write_text(dumps(obj))
    rep_path = tmp_path / "rep.json"
    assert main(["check", str(bad), "--report", str(rep_path)]) == 1
    rep = json.loads(rep_path.read_text())
    assert rep["pass"] is False
    failing = {r["tag"] for r in rep["invariants"] if not r["pass"]}
    assert failing == {"skew-ricci", "weyl-factored", "weyl-first-closed", "weyl-fourth"}
    surviving = {r["tag"] for r in rep["invariants"] if r["pass"]}
    assert surviving == {
        "rho-skew", "thomas-factored", "thomas-second", "thomas-third", "weyl-basic",
    }


def test_check_usage_errors_exit_2(tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 2
    out = run_gen(tmp_path, "g.json", "--n", "3", "--seed", "0")
    obj = json.loads(out.read_text())
    obj["fields"]["L"]["value"] = obj["fields"]["L"]["value"][:-1]
    short = tmp_path / "short.json"
    short.write_text(dumps(obj))
    assert main(["check", str(short)]) == 2
    obj = json.loads(out.read_text())
    obj["mode"] = "decimal"
    badmode = tmp_path / "badmode.json"
    badmode.write_text(dumps(obj))
    assert main(["check", str(badmode)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity"])
def test_check_float_non_finite_entry_exits_2(tmp_path, capsys, entry):
    out = run_gen(tmp_path, "g.json", "--n", "3", "--seed", "0", "--mode", "float")
    obj = json.loads(out.read_text())
    obj["fields"]["L"]["value"][0] = float(entry.lower().replace("infinity", "inf"))
    bad = tmp_path / "nonfinite.json"
    bad.write_text(json.dumps(obj))  # json writes the bare NaN / Infinity tokens
    assert entry in bad.read_text()
    rep_path = tmp_path / "rep.json"
    assert main(["check", str(bad), "--report", str(rep_path)]) == 2
    assert not rep_path.exists()
    assert "must be finite" in capsys.readouterr().err


def test_check_float_huge_integer_entry_exits_2(tmp_path, capsys):
    out = run_gen(tmp_path, "g.json", "--n", "3", "--seed", "0", "--mode", "float")
    obj = json.loads(out.read_text())
    obj["fields"]["L"]["value"][0] = 10**400
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(obj))
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "must be finite" in err and len(err) < 200
    # past the interpreter's integer-literal limit the JSON itself is refused
    bad.write_text(bad.read_text().replace(str(10**400), "1" + "0" * 5000))
    assert main(["check", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_check_literal_p2_diagnostic(tmp_path, capsys):
    agm = run_gen(tmp_path, "a.json", "--n", "3", "--seed", "2", "--mapping", "agm3", "--p", "2")
    rep_path = tmp_path / "rep.json"
    rc = main(["check", str(agm), "--literal-p2", "--report", str(rep_path)])
    assert rc == 0  # informational: never changes the verdict
    rep = json.loads(rep_path.read_text())
    assert rep["diagnostics"][0]["tag"] == "literal-p2-derivative"

    p1 = run_gen(tmp_path, "b.json", "--n", "3", "--seed", "2", "--mapping", "agm3", "--p", "1")
    assert main(["check", str(p1), "--literal-p2"]) == 2
    gen = run_gen(tmp_path, "c.json", "--n", "3", "--seed", "2")
    assert main(["check", str(gen), "--literal-p2"]) == 2
    capsys.readouterr()


def test_check_round_trip_is_bit_stable(tmp_path):
    for args in (
        ("--n", "3", "--seed", "8"),
        ("--n", "3", "--seed", "8", "--mapping", "agm3", "--p", "1"),
        ("--n", "3", "--seed", "8", "--mode", "float"),
    ):
        out = run_gen(tmp_path, "roundtrip.json", *args)
        ins = load_instance(str(out))
        assert dumps(instance_to_obj(ins)) == out.read_text()


# ------------------------------------------------------------- identities


def test_identities_pass_and_report(tmp_path):
    rep_path = tmp_path / "rep.json"
    rc = main(["identities", "--n", "3", "--seed", "0", "--count", "4",
               "--report", str(rep_path)])
    assert rc == 0
    rep = json.loads(rep_path.read_text())
    assert rep["pass"] is True
    rows = rep["identities"]
    assert len(rows) == 32  # 8 identity families x 4 seeds
    assert {r["tag"] for r in rows} == {
        "completion-symmetry", "curvature-antisymmetry", "curvature-trace-curl",
        "curvature-trace-skew", "deformation-trace-diagonal",
        "deformation-trace-last", "reconstruction", "reconstruction-trace",
    }
    assert all(r["pass"] for r in rows)
    keyed = [(r["tag"], r["seed"]) for r in rows]
    assert keyed == sorted(keyed)


def test_identities_float_mode(tmp_path):
    rep_path = tmp_path / "rep.json"
    rc = main(["identities", "--n", "3", "--seed", "0", "--count", "3",
               "--mode", "float", "--report", str(rep_path)])
    assert rc == 0
    rep = json.loads(rep_path.read_text())
    assert rep["mode"] == "float"
    assert rep["pass"] is True


# ------------------------------------------------------------------- eval


def test_eval_prints_nested_rational_array(tmp_path, capsys):
    out = run_gen(tmp_path, "g.json", "--n", "3", "--seed", "0")
    assert main(["eval", str(out), "Ls{a;ja}"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert isinstance(got, list) and len(got) == 3
    assert all(isinstance(x, str) and "/" in x for x in got)


def test_eval_invariant_expression_matches_across_spaces(tmp_path, capsys):
    out = run_gen(tmp_path, "g.json", "--n", "3", "--seed", "0")
    expr = "Ls{i;jk} - B{i;jk} - 1/4*(d{i;j}*tt{;k} + d{i;k}*tt{;j})"
    assert main(["eval", str(out), expr, "--space", "source"]) == 0
    src = capsys.readouterr().out
    assert main(["eval", str(out), expr, "--space", "target"]) == 0
    tgt = capsys.readouterr().out
    assert json.loads(src) == json.loads(tgt)


def test_eval_torsion_differs_across_spaces(tmp_path, capsys):
    out = run_gen(tmp_path, "g.json", "--n", "3", "--seed", "0")
    expr = "L{i;jk} - L{i;kj}"
    assert main(["eval", str(out), expr, "--space", "source"]) == 0
    src = capsys.readouterr().out
    assert main(["eval", str(out), expr, "--space", "target"]) == 0
    tgt = capsys.readouterr().out
    assert json.loads(src) != json.loads(tgt)


def test_eval_scalar_is_bare_string(tmp_path, capsys):
    out = run_gen(tmp_path, "g.json", "--n", "3", "--seed", "0")
    assert main(["eval", str(out), "3/4 + 1/4"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got == "1/1"
    assert main(["eval", str(out), "f{a;a}"]) == 0
    trace = json.loads(capsys.readouterr().out)
    assert isinstance(trace, str) and "/" in trace


def test_eval_errors_exit_2(tmp_path, capsys):
    out = run_gen(tmp_path, "g.json", "--n", "3", "--seed", "0")
    assert main(["eval", str(out), "L{i;jk} +"]) == 2
    assert main(["eval", str(out), "nosuch{;j}"]) == 2
    assert main(["eval", str(out), "cd(R{i;jmn}; k)"]) == 2
    capsys.readouterr()


# ------------------------------------------------------------ entry point


def test_usage_exit_codes(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.skipif(shutil.which("geoinv") is None, reason="console script not on PATH")
def test_console_script_cross_process_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        proc = subprocess.run(
            ["geoinv", "gen", "--n", "3", "--seed", "9", "-o", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
    assert a.read_bytes() == b.read_bytes()
