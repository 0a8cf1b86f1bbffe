"""Index-expression language: a formula corpus, error reporting, printing."""

import ast
import functools
import hashlib
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from geoinv import cli, index_expr, tensor_core as tc
from geoinv.connection import ConnectionSpace
from geoinv.index_expr import (
    EvalError,
    Num,
    ParseError,
    Ref,
    evaluate,
    parse,
    to_source,
)
from geoinv.invariants import part, rho, weyl_basic
from geoinv.jet import covariant_derivative, jet_mul, linear, zero_jet
from geoinv.mappings import generate
from geoinv.tensor_core import GeoinvError


def delta_mix(s, dim):
    d = tc.delta(dim)
    return tc.sub(
        tc.ein("im,jn->ijmn", (1, 3), d, s),
        tc.ein("in,jm->ijmn", (1, 3), d, s),
    )


def bindings_for(ins):
    f = ins.source_fields()
    sp = f.space
    return sp, f, {
        "L": sp.L,
        "Ls": sp.Lsym,
        "R": sp.R,
        "Ric": sp.ricci,
        "RS": sp.skew_ricci,
        "w": f.omega,
        "b": f.b,
        "Y": sp.ricci,
        "u": ins.fields["u"],
        "ff": ins.fields["f"],
    }


def corpus(dim, f, sp):
    """(source, expected, name) triples: every named formula of the library,
    written in the expression language and checked against the direct code."""
    n = dim
    return [
        ("R{a;jma}", sp.ricci, "ricci-trace"),
        ("alt(d{i;m}*Y{;jn}; m,n)", delta_mix(sp.ricci, n), "delta-mix"),
        ("L{i;jk} - L{i;kj}", tc.scale(sp.Ltor.value, 2), "torsion"),
        ("Ls{a;ja}", sp.theta.value, "theta"),
        (
            "alt(cd(Ls{i;jm}; n); m,n) - alt(Ls{a;jm}*Ls{i;an}; m,n)",
            sp.R,
            "curvature",
        ),
        (
            "R{i;jmn} - alt(cd(w{i;jm}; n); m,n) + alt(w{a;jm}*w{i;an}; m,n)",
            weyl_basic(f),
            "weyl-basic",
        ),
        ("Ric{;mn} - Ric{;nm}", sp.skew_ricci, "skew-ricci"),
        ("sym(Ric{;mn}; m,n)", tc.sym_pair(sp.ricci, 0, 1), "sym-ricci"),
        (
            f"R{{i;jmn}} + 1/{n + 1}*d{{i;j}}*RS{{;mn}}"
            f" + {n}/{n * n - 1}*alt(d{{i;m}}*Ric{{;jn}}; m,n)"
            f" + 1/{n * n - 1}*alt(d{{i;m}}*Ric{{;nj}}; m,n)",
            part(sp, "weyl_projective"),
            "projective",
        ),
        ("cd(b{;j}; n)", rho(f), "rho"),
    ]


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("dim,seed", [(3, 0), (3, 1), (4, 0), (4, 1)])
def test_formula_corpus(mode, dim, seed):
    ins = generate(dim, seed, flags=(1, 1, 1), mode=mode)
    sp, f, bind = bindings_for(ins)
    tol = 0 if mode == "rational" else 1e-9
    for src, expect, name in corpus(dim, f, sp):
        ast = parse(src)
        got = evaluate(ast, bind, sp, ins.domain)
        assert tc.max_abs_diff(got, expect) <= tol, (name, mode, dim, seed)
        assert parse(to_source(ast)) == ast, (name, "round-trip")


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_derivative_follows_product_rule(mode):
    ins = generate(3, 0, flags=(1, 1, 1), mode=mode)
    sp, _, bind = bindings_for(ins)
    tol = 0 if mode == "rational" else 1e-9

    got = evaluate(parse("cd(u{;a}*ff{a;b}; n)"), bind, sp, ins.domain)
    prod = linear(tc.contract, jet_mul(ins.fields["u"], ins.fields["f"]), 0, 0)
    expect = covariant_derivative(prod, sp.Lsym)
    assert tc.max_abs_diff(got, expect) <= tol

    tr = linear(tc.contract, ins.fields["f"], 0, 0)
    got = evaluate(parse("cd(ff{a;a}; n)"), bind, sp, ins.domain)
    assert tc.max_abs_diff(got, tr.grad) <= tol

    got = evaluate(parse("cd(ff{a;a}*u{;j}; n)"), bind, sp, ins.domain)
    expect = covariant_derivative(jet_mul(tr, ins.fields["u"]), sp.Lsym)
    assert tc.max_abs_diff(got, expect) <= tol


def test_reference_index_order_is_canonicalized():
    ins = generate(3, 0, flags=(1, 1, 1), mode="rational")
    sp, _, bind = bindings_for(ins)
    got = evaluate(parse("Ric{;nj}"), bind, sp, ins.domain)
    assert tc.max_abs_diff(got, tc.transpose_pair(sp.ricci, 0, 1)) == 0


def test_derivative_index_sorting_first_is_canonicalized():
    ins = generate(3, 0, flags=(1, 1, 1), mode="rational")
    sp, _, bind = bindings_for(ins)
    got = evaluate(parse("cd(u{;k}; a)"), bind, sp, ins.domain)
    want = evaluate(parse("cd(u{;j}; k)"), bind, sp, ins.domain)
    assert got == tc.transpose_pair(want, 0, 1)


def test_alt_over_upper_indices():
    sp, _, bind = bindings_for(generate(3, 0, flags=(1, 1, 1), mode="rational"))
    got = evaluate(parse("alt(d{i;j}*d{k;l}; i,k)"), bind, sp, tc.RATIONAL)
    want = [int(i == j and k == l) - int(k == j and i == l)
            for i, k, j, l in itertools.product(range(3), repeat=4)]
    assert got.valence == (2, 2) and got.data == want


def test_evaluator_keeps_no_product_rule():
    # index_expr evaluates on jets through jet.py: it reads no gradient and
    # builds no jet of its own, so the Leibniz rule lives in one place
    tree = ast.parse(Path(index_expr.__file__).read_text(encoding="utf-8"))
    grads = [n.lineno for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and n.attr == "grad"]
    builds = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call)
              and getattr(n.func, "id", getattr(n.func, "attr", None)) == "JetTensor"]
    assert (grads, builds) == ([], [])


def test_out_of_index_letters_is_a_geoinv_error():
    # a jet reference that uses all 26 letters leaves none for its derivative
    space = ConnectionSpace(zero_jet(1, (1, 2)))
    src = "X{abcdefghijklm;nopqrstuvwxyz}"
    with pytest.raises(GeoinvError):
        evaluate(parse(src), {"X": zero_jet(1, (13, 13))}, space, tc.RATIONAL)
    plain = evaluate(parse(src), {"X": tc.zeros(1, (13, 13))}, space, tc.RATIONAL)
    assert plain.valence == (13, 13)


# float outputs recorded before evaluation moved onto jet.py, with the count
# of -0.0 entries in each: the general-rule instance from
# `gen --n 2 --seed S --mode float`, evaluated on the source side
FLOAT_EVAL_PINS = [
    (0, "L{a;ba}*L{i;jk}", 5, "f224982f01af6e92"),
    (0, "cd(L{a;ba}*u{;k}; m)", 0, "fa9a31b9fd1592f2"),
    (0, "Ls{a;ba}*d{i;j}", 0, "5337f7826c666263"),
    (3, "L{a;ba}*L{i;jk}", 2, "188fdf1a3a0e3bff"),
    (3, "cd(L{a;ba}*u{;k}; m)", 4, "dd2c7b64da7175b0"),
    (3, "Ls{a;ba}*d{i;j}", 0, "00f996f3a7af036a"),
    (5, "L{a;ba}*L{i;jk}", 0, "89d990554b269e15"),
    (5, "cd(L{a;ba}*u{;k}; m)", 0, "6090fbcaac38963a"),
    (5, "Ls{a;ba}*d{i;j}", 2, "9f58d2a55abd9940"),
    # a scalar times a scalar keeps its signed zeros on tc.scale
    (0, "cd((0 - 2)*(0 - 3); n)", 2, "96b7d57506ebbb8e"),
]


@pytest.mark.parametrize("seed", [0, 3, 5])
def test_float_eval_pins(seed, tmp_path, capsys):
    path = str(tmp_path / "ins.json")
    assert cli.main(["gen", "--n", "2", "--seed", str(seed),
                     "--mode", "float", "-o", path]) == 0
    for pin_seed, src, zeros, digest in FLOAT_EVAL_PINS:
        if pin_seed != seed:
            continue
        capsys.readouterr()
        assert cli.main(["eval", path, src]) == 0
        out = capsys.readouterr().out
        got = (out.count("-0.0"), hashlib.sha256(out.encode()).hexdigest()[:16])
        assert got == (zeros, digest), (seed, src)


def test_product_diagnostic_names_the_first_repeated_index():
    # the message must not depend on the string hash seed
    code = ("from geoinv.index_expr import parse\n"
            "try:\n    parse('Ric{ka;nb}*R{amk;}')\n"
            "except Exception as e:\n    print(e)\n")
    src_dir = str(Path(index_expr.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    messages = {
        subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, check=True,
                       env=dict(os.environ, PYTHONHASHSEED=str(seed),
                                PYTHONPATH=path)).stdout
        for seed in range(4)
    }
    assert len(messages) == 1
    assert "index 'a' appears twice" in messages.pop()


# ------------------------------------------------------------------ fuzzing

FUZZ_LETTERS = "abijk"


@functools.lru_cache(maxsize=None)
def _fuzz_space():
    ins = generate(2, 0, flags=(1, 1, 1), mode="float")
    return cli.eval_bindings(ins, "source"), ins.source_fields().space


def _fuzz_expressions():
    valences = {name: t.valence for name, t in _fuzz_space()[0].items()}
    valences.update(d=(1, 1), nope=(0, 1))

    def ref_of(name):
        p, q = valences[name]
        slots = [st.lists(st.sampled_from(FUZZ_LETTERS), min_size=k,
                          max_size=k).map("".join) for k in (p, q)]
        return st.builds(lambda up, low: f"{name}{{{up};{low}}}", *slots)

    ref = st.sampled_from(sorted(valences)).flatmap(ref_of)
    num = st.builds("{}/{}".format, st.integers(0, 9), st.integers(1, 3))
    letter = st.sampled_from(FUZZ_LETTERS)

    def extend(inner):
        return st.one_of(
            st.builds("({} {} {})".format, inner, st.sampled_from("+-*"), inner),
            st.builds("cd({}; {})".format, inner, letter),
            st.builds("{}({}; {},{})".format, st.sampled_from(["alt", "sym"]),
                      inner, letter, letter),
        )
    return st.recursive(st.one_of(ref, num), extend, max_leaves=6)


@settings(max_examples=50)
@given(src=_fuzz_expressions())
def test_grammar_fuzz_raises_only_geoinv_errors(src):
    bindings, space = _fuzz_space()
    try:
        out = evaluate(parse(src), bindings, space, tc.FLOAT)
    except GeoinvError:
        return
    assert isinstance(out, tc.Tensor)


# ------------------------------------------------------------- parse errors


@pytest.mark.parametrize(
    "src,frag",
    [
        ("R{i;jm} + Y{;jm}", "free indices differ"),
        ("Y{;aa}", "repeated in lower position"),
        ("x{;j}*y{;j}", "twice in the same position"),
        ("alt(R{i;jmn}; i,j)", "same position kind"),
        ("cd(R{i;jmn}; j)", "already free"),
        ("alt(R{i;jmn}; m,m)", "distinct"),
        ("foo(x{;}; a,b)", "unknown function"),
        ("1/0", "zero denominator"),
        ("R{i;jm} R{i;jm}", "unexpected"),
        ("R{i;jm} +", "expected"),
        ("alt(x{;a,b}; a,b)", "unexpected"),
        ("3 * * 4", "unexpected"),
        ("cd(x{;j}; j,k)", "takes 1 index"),
        ("sym(x{;jk}; j)", "takes 2 indices"),
        ("R{I;jm}", "bad index letter"),
    ],
)
def test_parse_errors(src, frag):
    with pytest.raises(ParseError) as excinfo:
        parse(src)
    message = str(excinfo.value)
    assert frag in message
    assert "line" in message and "column" in message


@pytest.mark.parametrize(
    "src,frag",
    [
        ("2*\u00b2", "unexpected character"),  # isdigit() takes '²', int() not
        ("2*" + "9" * 5000, "5000 digits"),      # past int()'s digit limit
        ("2/" + "9" * 5000, "5000 digits"),
    ],
    ids=["superscript-digit", "long-numerator", "long-denominator"],
)
def test_number_literal_parse_errors(src, frag):
    with pytest.raises(ParseError) as excinfo:
        parse(src)
    err = excinfo.value
    assert frag in str(err) and len(str(err)) < 120
    assert (err.line, err.col) == (1, 3)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as excinfo:
        parse("R{i;jm} +")
    err = excinfo.value
    assert err.line == 1
    assert err.col > 1


@pytest.mark.parametrize(
    "src,where",
    [
        ("u{;i} + u{;j}", (1, 7)),                       # at the '+'
        ("u{;i} +\n  alt(u{;i}*u{;j}; i,i)", (2, 3)),    # at the function name
        ("u{;i}*u{;i}*u{;i}", (1, 6)),                   # at the first '*'
        ("u{;i} - x{;jj}", (1, 9)),                      # at the reference name
    ],
)
def test_index_usage_errors_point_at_the_breaking_token(src, where):
    with pytest.raises(ParseError) as excinfo:
        parse(src)
    assert (excinfo.value.line, excinfo.value.col) == where


# -------------------------------------------------------------- eval errors


def test_eval_errors():
    ins = generate(3, 0, flags=(1, 1, 1), mode="rational")
    sp = ins.source_fields().space
    cases = [
        ("Q{;jm}", {}, "unbound"),
        ("R{;jm}", {"R": sp.R}, "valence"),
        ("cd(R{i;jmn}; k)", {"R": sp.R}, "gradient"),
        ("cd(cd(Ls{i;jm}; n); k)", {"Ls": sp.Lsym}, "gradient"),
    ]
    ins4 = generate(4, 0, flags=(1, 1, 1), mode="rational")
    cases.append(("R{i;jmn}", {"R": ins4.source_fields().space.R}, "dimension"))
    for src, bind, frag in cases:
        with pytest.raises(EvalError) as excinfo:
            evaluate(parse(src), bind, sp, ins.domain)
        assert frag in str(excinfo.value), (src, str(excinfo.value))


def test_float_literal_past_the_float_range_is_an_eval_error():
    sp = generate(3, 0, flags=(1, 1, 1), mode="float").source_fields().space
    assert evaluate(parse("1" * 300), {}, sp, tc.FLOAT).data[0] == float("1" * 300)
    with pytest.raises(EvalError) as excinfo:
        evaluate(parse("1" * 400), {}, sp, tc.FLOAT)
    assert "float range" in str(excinfo.value) and len(str(excinfo.value)) < 120


# ------------------------------------------------------------------ printer


@pytest.mark.parametrize(
    "src",
    [
        "R{i;jmn} - alt(cd(w{i;jm}; n); m,n) + alt(w{a;jm}*w{i;an}; m,n)",
        "1/4*(x{;j} + y{;j})*z{;k}",
        "(a{;j} - b{;j})*(c{;k} + d2{;k})",
        "alt(sym(T{;jk}; j,k)*d{i;m}; m,k)",
        "3 - 2 - 1",
        "2*(3 + 4/7)",
    ],
)
def test_printer_round_trips(src):
    ast = parse(src)
    assert parse(to_source(ast)) == ast, to_source(ast)


def test_printer_frozen_forms():
    assert to_source(parse("R{i;jmn}")) == "R{i;jmn}"
    assert to_source(Num(3, 4)) == "3/4"
    assert to_source(Num(5, 1)) == "5"
    assert to_source(Ref("X", ("i",), ())) == "X{i;}"


def test_scalar_arithmetic_evaluates():
    ins = generate(3, 0, flags=(1, 1, 1), mode="rational")
    got = evaluate(parse("2*(3 + 4/7)"), {}, ins.source_fields().space, ins.domain)
    assert got.data[0] == Fraction(50, 7)
    got = evaluate(parse("3 - 2 - 1"), {}, ins.source_fields().space, ins.domain)
    assert got.data[0] == 0
