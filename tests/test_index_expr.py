"""Index-expression language: a formula corpus, error reporting, printing."""

from fractions import Fraction

import pytest

from geoinv import tensor_core as tc
from geoinv.index_expr import (
    EvalError,
    Num,
    ParseError,
    Ref,
    evaluate,
    parse,
    to_source,
)
from geoinv.invariants import rho, weyl_basic, weyl_projective
from geoinv.jet import covariant_derivative, jet_contract, jet_mul
from geoinv.mappings import generate


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
        ("L{i;jk} - L{i;kj}", sp.torsion(), "torsion"),
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
            weyl_projective(sp),
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
        got = evaluate(ast, bind, sp)
        assert tc.max_abs_diff(got, expect) <= tol, (name, mode, dim, seed)
        assert parse(to_source(ast)) == ast, (name, "round-trip")


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_derivative_follows_product_rule(mode):
    ins = generate(3, 0, flags=(1, 1, 1), mode=mode)
    sp, _, bind = bindings_for(ins)
    tol = 0 if mode == "rational" else 1e-9

    got = evaluate(parse("cd(u{;a}*ff{a;b}; n)"), bind, sp)
    prod = jet_contract(jet_mul(ins.fields["u"], ins.fields["f"]), 0, 0)
    expect = covariant_derivative(prod, sp.Lsym)
    assert tc.max_abs_diff(got, expect) <= tol

    tr = jet_contract(ins.fields["f"], 0, 0)
    got = evaluate(parse("cd(ff{a;a}; n)"), bind, sp)
    assert tc.max_abs_diff(got, tr.grad) <= tol

    got = evaluate(parse("cd(ff{a;a}*u{;j}; n)"), bind, sp)
    expect = covariant_derivative(jet_mul(tr, ins.fields["u"]), sp.Lsym)
    assert tc.max_abs_diff(got, expect) <= tol


def test_reference_index_order_is_canonicalized():
    ins = generate(3, 0, flags=(1, 1, 1), mode="rational")
    sp, _, bind = bindings_for(ins)
    got = evaluate(parse("Ric{;nj}"), bind, sp)
    assert tc.max_abs_diff(got, tc.transpose_pair(sp.ricci, 0, 1)) == 0


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


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as excinfo:
        parse("R{i;jm} +")
    err = excinfo.value
    assert err.line == 1
    assert err.col > 1


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
            evaluate(parse(src), bind, sp)
        assert frag in str(excinfo.value), (src, str(excinfo.value))


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
    got = evaluate(parse("2*(3 + 4/7)"), {}, ins.source_fields().space)
    assert got.data[0] == Fraction(50, 7)
    got = evaluate(parse("3 - 2 - 1"), {}, ins.source_fields().space)
    assert got.data[0] == 0
