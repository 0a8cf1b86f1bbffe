"""Command-line interface: exit codes, report schemas, determinism, controls."""

import ast
import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from geoinv import cli, tensor_core as tc
from geoinv.cli import (UsageError, dumps, instance_from_obj, instance_to_obj,
                        load_instance, main)
from geoinv.mappings import generate, generate_agm3


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


# sha256 of output bytes, recorded before the exact edges were rewritten
# to read and write scaled integers; any change in formatting moves them.
GOLDEN_GEN = {
    "general-3-0-111": ["--n", "3", "--seed", "0"],
    "general-3-0-010": ["--n", "3", "--seed", "0", "--s1", "0", "--s2", "1",
                        "--s3", "0"],
    "geodesic-4-1": ["--n", "4", "--seed", "1", "--mapping", "geodesic"],
    "agm3-3-0-p2": ["--n", "3", "--seed", "0", "--mapping", "agm3", "--p", "2"],
}
GOLDEN = {
    ("gen", "rational", "general-3-0-111"): "fa913cecac2a341e900823b1510ec916b37bb60c9e9991c11e3bab7ade60872d",
    ("gen", "rational", "general-3-0-010"): "f831b4612598c0733aa4ad661fe1f317362c149341240ab75591b5e5f62a4e53",
    ("gen", "rational", "geodesic-4-1"): "618dac3609127574608a785585337b723acd588e7936c6e45f678f4ea1c3a8d0",
    ("gen", "rational", "agm3-3-0-p2"): "ad79ab8df969607c6413a268c05fdddc663c996f8a8d7a9d92dfff65411741e2",
    ("gen", "float", "general-3-0-111"): "ecccd197ff5f392a94f0743f29e5b182eb48888120f901752cdc9b9d45d013be",
    ("gen", "float", "general-3-0-010"): "c925cc1fd499f706b74d14f2356b47c04d4a336349a97c7883b84326705ecd83",
    ("gen", "float", "geodesic-4-1"): "fcbbc925e34fd1b871e0395d9b6a9489aa2751211a3035b4f6d224c19def2215",
    ("gen", "float", "agm3-3-0-p2"): "8ad7f52c6c8ddca74868446152c5e96d9ae04c765f9b95a9ec35dd8180947927",
    ("check", "rational", "general-3-0-010"): "7d05b91139e718804d867a70dc960c81464ec412742bd89a911d028ada8ac4f1",
    ("check", "float", "agm3-3-0-p2"): "1bb097ae36cb9b41f2e0d46871b49343f1eba3c6b0a9309e6bd5ca6fad0ee2e9",
    ("eval", "rational", "L{a;bc}"): "f7a95a346df1d7a10d81de6ee1b85760e5fc89e6e935f5bbb43b613672a5eb0c",
    ("eval", "rational", "cd(u{;j}; k)"): "c9e44e4edddac2c4459d8032ad015d7a5a1d20659b36cb7843545955afbed650",
    ("eval", "float", "L{a;bc}"): "c4ab52ec401ccfc922bee7a68ed4e02ea943d70049e1caf9c03d5a57e25044aa",
    ("eval", "float", "cd(u{;j}; k)"): "d47d99bc393743dc60fd6cd933eb956d7c8ad392a1a0a6fb71f10e2641a27c8f",
}


@pytest.mark.parametrize("key", sorted(GOLDEN), ids="-".join)
def test_output_bytes_match_golden_pins(tmp_path, monkeypatch, capsys, key):
    what, mode, arg = key
    monkeypatch.chdir(tmp_path)  # the check report records the path it was given
    name = arg if what != "eval" else "general-3-0-111"
    path = f"{name}-{mode}.json"
    assert main(["gen", *GOLDEN_GEN[name], "--mode", mode, "-o", path]) == 0
    if what == "gen":
        got = (tmp_path / path).read_bytes()
    elif what == "check":
        assert main(["check", path, "--report", "rep.json"]) == 0
        got = (tmp_path / "rep.json").read_bytes()
    else:
        capsys.readouterr()
        assert main(["eval", path, arg]) == 0
        got = capsys.readouterr().out.encode()
    assert hashlib.sha256(got).hexdigest() == GOLDEN[key]


def test_gen_flag_conflicts_exit_2(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    assert main(["gen", "--n", "3", "--mapping", "geodesic", "--s2", "1", "-o", out]) == 2
    assert main(["gen", "--n", "3", "--mapping", "agm3", "--s1", "0", "-o", out]) == 2
    assert main(["gen", "--n", "3", "--mapping", "general", "--p", "2", "-o", out]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("gen", "--n", "1"), ("gen", "--n", "0"),
    ("gen", "--n", "1", "--mapping", "agm3"),
    ("identities", "--n", "1", "--count", "1"),
])
def test_dimension_below_2_exits_2(tmp_path, capsys, argv):
    # the rule check and eval apply to instance files, with their message
    out = tmp_path / "x.json"
    extra = ["-o", str(out)] if argv[0] == "gen" else []
    assert main([*argv, *extra]) == 2
    assert capsys.readouterr() == ("", f"error: dimension must be >= 2, got {argv[2]}\n")
    assert not out.exists()


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


def test_gen_unknown_mode_env_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GEOINV_MODE", "bogus")
    out = tmp_path / "x.json"
    assert main(["gen", "--n", "2", "-o", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "error: GEOINV_MODE must be 'rational' or 'float', got 'bogus'\n")
    assert not out.exists()


# ------------------------------------------------------------------ check


# rows every instance certifies; the others depend on s1 and the mapping
BASE_ROWS = {
    "rho-skew", "skew-ricci", "thomas-factored", "thomas-second",
    "thomas-third", "weyl-basic", "weyl-factored", "weyl-first-closed",
    "weyl-fourth",
}


def test_invariant_table_is_sorted_by_unique_tags():
    tags = [row[0] for row in cli.INVARIANTS]
    assert tags == sorted(set(tags))


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
    assert tags == sorted(BASE_ROWS)
    for row in rep["invariants"]:
        assert row["pass"] is True
        assert row["max_abs"] == "0/1"


def test_check_reduced_rows_appear_without_trace_shift(tmp_path):
    out = run_gen(tmp_path, "g.json", "--n", "3", "--seed", "2", "--s1", "0")
    rep_path = tmp_path / "rep.json"
    assert main(["check", str(out), "--report", str(rep_path)]) == 0
    tags = [r["tag"] for r in json.loads(rep_path.read_text())["invariants"]]
    assert tags == sorted(BASE_ROWS | {"theta-reduced", "thomas-reduced"})


def test_check_geodesic_rows(tmp_path):
    out = run_gen(tmp_path, "g.json", "--n", "4", "--seed", "1", "--mapping", "geodesic")
    rep_path = tmp_path / "rep.json"
    assert main(["check", str(out), "--report", str(rep_path)]) == 0
    rep = json.loads(rep_path.read_text())
    tags = [r["tag"] for r in rep["invariants"]]
    assert tags == sorted(
        BASE_ROWS | {"geodesic-thomas", "geodesic-weyl", "weyl-projective"})
    assert len(tags) == 12
    assert all(r["pass"] for r in rep["invariants"])


def test_check_agm3_rows(tmp_path):
    out = run_gen(tmp_path, "g.json", "--n", "3", "--seed", "4", "--mapping", "agm3")
    rep_path = tmp_path / "rep.json"
    assert main(["check", str(out), "--report", str(rep_path)]) == 0
    rep = json.loads(rep_path.read_text())
    tags = [r["tag"] for r in rep["invariants"]]
    assert tags == sorted(BASE_ROWS | {"agm-basic", "agm-fourth"})
    assert len(tags) == 11


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


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("key, value", [("p", True), ("p", 1.0), ("s1", 1.0)])
def test_check_inexact_value_types_exit_2(tmp_path, capsys, mode, key, value):
    # flags and p compare equal to True or 1.0, but only the ints 0/1 and 1/2
    # are instance values (a float flag used to be echoed into the report)
    out = run_gen(tmp_path, "g.json", "--n", "2", "--seed", "0", "--mode", mode,
                  *(("--mapping", "agm3") if key == "p" else ()))
    obj = json.loads(out.read_text())
    (obj if key == "p" else obj["flags"])[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    rep_path = tmp_path / "rep.json"
    assert main(["check", str(bad), "--report", str(rep_path)]) == 2
    assert not rep_path.exists()
    capsys.readouterr()


@pytest.mark.parametrize("name, message", [
    ("L", "field 'L' has valence (3000000, 0), expected (1, 2)"),
    ("zz", "unexpected field 'zz' for general"),
])
def test_check_crafted_valence_exits_2_fast(tmp_path, capsys, name, message):
    # dimension ** (p + q) of these values has 27 million digits
    bad = tmp_path / "valence.json"
    bad.write_text(json.dumps({
        "dimension": 10**9, "mode": "rational", "mapping": "general",
        "flags": {"s1": 1, "s2": 1, "s3": 1},
        "fields": {name: {"valence": [3000000, 0], "value": [0], "grad": [0]}}}))
    start = time.perf_counter()
    assert main(["check", str(bad)]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


# ------------------------------------------------------- literal decoding

LITERALS = ["3/16", "-0/16", "2/4", "03/016", "1.5", " 3/16", "3 /16", "3/-16",
            "+3/16", "--3/16", "0/0", "3/0", "1e3", "\u00b2/3", "\u0663/16",
            "1" * 5000 + "/3", 7, True, None, 0.5]


def _reference_entry(v):
    """A rational-mode file number the way Fraction reads it: the value, or
    the message the CLI reports for it."""
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            shown = f"{v!r:.40}"  # the literal is echoed cut at 40 characters
            return f"bad rational literal {shown}: {str(e).replace(repr(v), shown)}"
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    return f"rational-mode entries must be 'num/den' strings, got {v!r}"


@pytest.mark.parametrize("where", ["value", "grad"])
@pytest.mark.parametrize("lit", LITERALS, ids=lambda v: repr(v)[:12])
def test_literal_decoding_matches_fraction(tmp_path, capsys, lit, where):
    obj = instance_to_obj(generate(2, 0, (1, 1, 1), "general", "rational"))
    entries = obj["fields"]["L"][where]
    entries[1] = lit
    want = [_reference_entry(v) for v in entries]
    path = tmp_path / "lit.json"
    path.write_text(json.dumps(obj))
    message = next((m for m in want if isinstance(m, str)), None)
    if message is not None:
        with pytest.raises(UsageError) as err:
            instance_from_obj(json.loads(path.read_text()))
        assert str(err.value) == message
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        return
    got = getattr(instance_from_obj(json.loads(path.read_text())).fields["L"], where)
    ref = tc.Tensor(got.dim, got.valence, want)
    assert tc._kind(ref) is tc._kind(got) is tc._FRACTION
    assert (got._nums, got._den) == (ref._nums, ref._den)
    assert got.data == want


@pytest.mark.parametrize("lit, ok", [("1e4301", False), ("-1E+4301", False),
                                     ("1e-3", True), ("-5/6", True),
                                     ("1e4300", True)])
def test_exponent_literals_are_bounded(tmp_path, capsys, lit, ok):
    # Fraction builds 10**exp; past int()'s digit limit the literal is refused
    obj = instance_to_obj(generate(2, 0, (1, 1, 1), "general", "rational"))
    obj["fields"]["L"]["grad"][1] = lit
    path = tmp_path / "lit.json"
    path.write_text(json.dumps(obj))
    if ok:
        got = load_instance(str(path)).fields["L"].grad.data[1]
        assert got == Fraction(lit)
        return
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: bad rational literal {lit!r}: exponent beyond 4300\n")


def test_bad_long_literal_message_is_short(tmp_path, capsys):
    obj = instance_to_obj(generate(2, 0, (1, 1, 1), "general", "rational"))
    obj["fields"]["L"]["value"][1] = "9" * 5000 + "x"
    path = tmp_path / "lit.json"
    path.write_text(json.dumps(obj))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad rational literal '99") and len(err) < 200


@pytest.mark.parametrize("make", [
    lambda: generate(3, 0, (1, 1, 1), "general", "rational"),
    lambda: generate(3, 1, (0, 1, 0), "general", "rational"),
    lambda: generate(4, 1, (1, 0, 0), "geodesic", "rational"),
    lambda: generate_agm3(3, 0, 2, "rational"),
])
def test_decoded_scaled_form_equals_generated(make):
    ins = make()
    loaded = instance_from_obj(json.loads(dumps(instance_to_obj(ins))))
    assert loaded.fields.keys() == ins.fields.keys()
    for name, jet in ins.fields.items():
        for want, got in ((jet.value, loaded.fields[name].value),
                          (jet.grad, loaded.fields[name].grad)):
            tc._kind(want), tc._kind(got)
            assert (got._nums, got._den) == (want._nums, want._den), name


_JSON_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(LITERALS + ["1/2", "0/1", "rational", "float", "agm3",
                                "general", "geodesic", 10**400]),
    st.text(max_size=4))
_JSON = st.recursive(
    _JSON_LEAF,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["s1", "value", "grad", "valence", "L", "u"]),
        inner, max_size=3),
    max_leaves=4)
_BASES = [instance_to_obj(make()) for make in (
    lambda: generate(2, 0, (1, 1, 1), "general", "rational"),
    lambda: generate(2, 0, (0, 1, 0), "general", "float"),
    lambda: generate(2, 1, (1, 0, 0), "geodesic", "rational"),
    lambda: generate_agm3(2, 0, 2, "rational"),
)]


def _slots(node, path=()):
    """(path, value) for every node below the root of a JSON tree."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for k, v in items:
        yield path + (k,), v
        yield from _slots(v, path + (k,))


def _mutate(data, obj):
    path, value = data.draw(st.sampled_from(list(_slots(obj))))
    parent = obj
    for k in path[:-1]:
        parent = parent[k]
    key = path[-1]
    how = data.draw(st.sampled_from(["replace", "truncate", "retype", "delete"]))
    if how == "replace":
        parent[key] = data.draw(_JSON)
    elif how == "truncate" and isinstance(value, list):
        parent[key] = value[:data.draw(st.integers(0, max(len(value) - 1, 0)))]
    elif how == "retype" and isinstance(parent, dict):
        parent[data.draw(st.sampled_from(["x", key.upper(), key + "_"]))] = (
            parent.pop(key))
    else:
        del parent[key]


@settings(max_examples=50)
@given(data=st.data())
def test_fuzz_instance_from_obj_raises_only_usage_errors(tmp_path_factory, data):
    obj = json.loads(json.dumps(data.draw(st.sampled_from(_BASES))))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, obj)
    path = tmp_path_factory.mktemp("fuzz") / "mutant.json"
    path.write_text(json.dumps(obj))
    try:
        instance_from_obj(json.loads(path.read_text()))
    except UsageError:
        rejected = True
    else:
        rejected = False
    with contextlib.redirect_stderr(io.StringIO()):
        rc = main(["check", str(path)])
    assert rc == 2 if rejected else rc in (0, 1)


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


@pytest.mark.parametrize("count", ["0", "-1"])
def test_identities_without_draws_exits_2(capsys, count):
    assert main(["identities", "--n", "3", "--count", count]) == 2
    assert capsys.readouterr() == ("", f"error: --count must be >= 1, got {count}\n")


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


@pytest.mark.parametrize(
    "mode,expr",
    [
        ("rational", "\u00b2*u{;i}"),
        ("rational", "9" * 5000 + "*u{;i}"),
        ("float", "9" * 400 + "*u{;i}"),
    ],
    ids=["superscript-digit", "past-int-digit-limit", "past-float-range"],
)
def test_eval_bad_number_literals_exit_2(tmp_path, capsys, mode, expr):
    out = run_gen(tmp_path, "g.json", "--n", "2", "--seed", "0", "--mode", mode)
    assert main(["eval", str(out), expr]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err) < 200


def test_eval_output_past_the_digit_limit_exits_2(tmp_path, capsys):
    out = run_gen(tmp_path, "g.json", "--n", "2", "--seed", "0")
    obj = json.loads(out.read_text())
    obj["fields"]["u"]["value"][0] = "1e4300"  # 4301 digits, accepted on load
    big = tmp_path / "big.json"
    big.write_text(json.dumps(obj))
    lit = "9" * 4000
    for path, expr in ((big, "u{;i}"), (out, f"{lit}*{lit}")):
        assert main(["eval", str(path), expr]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "too long to write" in captured.err and len(captured.err) < 200


@pytest.mark.parametrize(
    "expr",
    [f"{'9' * 300}*{'9' * 300}*u{{;i}}",
     f"{'9' * 300}*{'9' * 300}*u{{;i}} - {'9' * 300}*{'9' * 300}*u{{;i}}"],
    ids=["infinity", "nan"],
)
def test_eval_non_finite_float_result_exits_2(tmp_path, capsys, expr):
    out = run_gen(tmp_path, "g.json", "--n", "2", "--seed", "0", "--mode", "float")
    assert main(["eval", str(out), expr]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err and len(captured.err) < 200


def test_eval_builds_only_the_derived_bindings_it_names(tmp_path, capsys,
                                                       monkeypatch):
    out = run_gen(tmp_path, "g.json", "--n", "3", "--seed", "0")
    calls = []
    real = cli.inv.A_tensor
    monkeypatch.setattr(cli.inv, "A_tensor",
                        lambda fields: calls.append(1) or real(fields))
    assert main(["eval", str(out), "u{;j}"]) == 0
    assert calls == []
    assert main(["eval", str(out), "A{i;jkl}"]) == 0
    assert calls == [1]
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


def _private_cli_reads(tree):
    """Lines that import or read an underscore name of ``geoinv.cli``:
    ``from geoinv.cli import _x``, ``cli._x`` (however the module was bound)
    and ``getattr(cli, "_x")``-style calls."""
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    aliases, hits = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            where = (node.module, node.level)
            if where in (("geoinv.cli", 0), ("cli", 1)):
                hits += [node.lineno for a in node.names if private(a.name)]
            elif where in (("geoinv", 0), (None, 1)):
                aliases |= {a.asname or a.name for a in node.names
                            if a.name == "cli"}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names
                        if a.name == "geoinv.cli" and a.asname}

    def is_cli(node):
        return ((isinstance(node, ast.Name) and node.id in aliases)
                or (isinstance(node, ast.Attribute) and node.attr == "cli"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "geoinv"))

    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and private(node.attr)
                and is_cli(node.value)):
            hits.append(node.lineno)
        elif (isinstance(node, ast.Call) and len(node.args) >= 2
              and is_cli(node.args[0]) and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)
              and private(node.args[1].value)):
            hits.append(node.lineno)
    return sorted(set(hits))


def test_nothing_reads_private_cli_names():
    # the gate and the library use the CLI's public entry points only
    src = Path(cli.__file__).parent
    paths = sorted(Path(__file__).parent.glob("*.py")) + sorted(src.glob("*.py"))
    hits = {path.name: lines for path in paths if path.name != "cli.py"
            if (lines := _private_cli_reads(ast.parse(path.read_text())))}
    assert hits == {}
    planted = ast.parse(
        "from geoinv.cli import _record, main\nfrom geoinv import cli as c\n"
        "import geoinv.cli\nc._emit('', None)\ngeoinv.cli._nest\n"
        "getattr(c, '_header')\nc.main\nfrom .cli import _on\n")
    assert _private_cli_reads(planted) == [1, 4, 5, 6, 8]
