"""First-order jets: pointwise arithmetic vs an exact symbolic-polynomial oracle."""

import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from geoinv import jet, tensor_core as tc
from geoinv.jet import JetTensor, ShapeError, constant_jet, covariant_derivative, zero_jet
from geoinv.tensor_core import Tensor

from _poly import Poly, PolyField, random_point, random_poly

DIM = 3


def cd_oracle(field: PolyField, conn: PolyField) -> PolyField:
    """Covariant derivative computed symbolically with explicit loops.

    One +conn term per upper slot, one -conn term per lower slot, derivative
    index last; completely independent of the jet module's implementation.
    """
    p, q = field.valence
    dim = field.dim
    comps = {}
    for idx in itertools.product(range(dim), repeat=p + q + 1):
        body, k = idx[:-1], idx[-1]
        poly = field.comps[body].diff(k)
        for s in range(p):
            for z in range(dim):
                repl = body[:s] + (z,) + body[s + 1 :]
                poly = poly + conn.comps[(body[s], z, k)] * field.comps[repl]
        for s in range(q):
            pos = p + s
            for z in range(dim):
                repl = body[:pos] + (z,) + body[pos + 1 :]
                poly = poly + (
                    conn.comps[(z, body[pos], k)] * field.comps[repl]
                ).scaled(-1)
        comps[idx] = poly
    return PolyField(dim, (p, q + 1), comps)


# ------------------------------------------------------------ polynomial oracle


@pytest.mark.parametrize("seed", range(20))
def test_jet_mul_matches_polynomial_product(seed):
    rng = random.Random(1000 + seed)
    point = random_point(rng, DIM)
    a = PolyField.random(rng, DIM, (1, 1))
    b = PolyField.random(rng, DIM, (0, 1))
    got = jet.jet_mul(a.jet_at(point), b.jet_at(point))
    want = a.mul(b).jet_at(point)
    assert got.value.data == want.value.data
    assert got.grad.data == want.grad.data


def poly_ein(expr: str, valence, *fields: PolyField) -> PolyField:
    """Einstein sum over polynomial fields by explicit loops over every
    letter assignment (independent of tensor_core and jet)."""
    ins_s, out = expr.split("->")
    ins = ins_s.split(",")
    letters = sorted(set(ins_s) - {","})
    dim = fields[0].dim
    comps = {idx: Poly(dim) for idx in itertools.product(range(dim), repeat=len(out))}
    for vals in itertools.product(range(dim), repeat=len(letters)):
        at = dict(zip(letters, vals))
        term = Poly(dim, {(0,) * dim: Fraction(1)})
        for s, f in zip(ins, fields):
            term = term * f.comps[tuple(at[c] for c in s)]
        key = tuple(at[c] for c in out)
        comps[key] = comps[key] + term
    return PolyField(dim, valence, comps)


@pytest.mark.parametrize("expr,valence,operands", [
    ("abc->acb", (1, 2), [(1, 2)]),
    ("aba->b", (0, 1), [(1, 2)]),
    ("ab,bc->ac", (1, 1), [(1, 1), (1, 1)]),
    ("ab,c->acb", (2, 1), [(1, 1), (1, 0)]),
    ("ab,b,c->ac", (1, 1), [(1, 1), (1, 0), (0, 1)]),
    ("ab,bc,ca->", (0, 0), [(1, 1), (1, 1), (1, 1)]),
])
def test_jet_ein_matches_polynomial_einsum(expr, valence, operands):
    rng = random.Random(f"jet_ein:{expr}")
    point = random_point(rng, DIM)
    fields = [PolyField.random(rng, DIM, v) for v in operands]
    got = jet.jet_ein(expr, valence, *(f.jet_at(point) for f in fields))
    want = poly_ein(expr, valence, *fields).jet_at(point)
    assert got.value.data == want.value.data
    assert got.grad.data == want.grad.data


@pytest.mark.parametrize("valence", [(0, 0), (1, 1)])
def test_jet_scale_by_matches_polynomial_product(valence):
    rng = random.Random(7000 + valence[0])
    point = random_point(rng, DIM)
    a = PolyField.random(rng, DIM, valence)
    s = PolyField.random(rng, DIM, (0, 0))
    got = jet.jet_scale_by(a.jet_at(point), s.jet_at(point))
    want = a.mul(s).jet_at(point)
    assert got.value.data == want.value.data
    assert got.grad.data == want.grad.data


@pytest.mark.parametrize("seed", range(10))
def test_jet_contract_matches_polynomial_contraction(seed):
    rng = random.Random(2000 + seed)
    point = random_point(rng, DIM)
    t = PolyField.random(rng, DIM, (1, 2))
    for lower in (0, 1):
        got = jet.linear(tc.contract, t.jet_at(point), 0, lower)
        want = t.contract(0, lower).jet_at(point)
        assert got.value.data == want.value.data
        assert got.grad.data == want.grad.data


@pytest.mark.parametrize("seed", range(10))
def test_jet_alternate_matches_polynomial_swap(seed):
    rng = random.Random(3000 + seed)
    point = random_point(rng, DIM)
    t = PolyField.random(rng, DIM, (1, 2))
    got = jet.linear(tc.alternate, t.jet_at(point), 1, 2)
    want = t.combine(t.swap_lowers(0, 1), Fraction(-1)).jet_at(point)
    assert got.value.data == want.value.data
    assert got.grad.data == want.grad.data


@pytest.mark.parametrize("seed", range(10))
def test_jet_sym_pair_matches_polynomial_half_sum(seed):
    rng = random.Random(4000 + seed)
    point = random_point(rng, DIM)
    t = PolyField.random(rng, DIM, (0, 2))
    got = jet.linear(tc.sym_pair, t.jet_at(point), 0, 1)
    half = t.combine(t.swap_lowers(0, 1), Fraction(1))
    want = PolyField(
        DIM, t.valence, {i: p.scaled(Fraction(1, 2)) for i, p in half.comps.items()}
    ).jet_at(point)
    assert got.value.data == want.value.data
    assert got.grad.data == want.grad.data


@pytest.mark.parametrize("valence", [(1, 1), (0, 2), (1, 2)])
@pytest.mark.parametrize("seed", range(5))
def test_covariant_derivative_matches_polynomial_oracle(seed, valence):
    rng = random.Random(5000 + 31 * seed + valence[0] * 7 + valence[1])
    point = random_point(rng, DIM)
    field = PolyField.random(rng, DIM, valence)
    conn = PolyField.random(rng, DIM, (1, 2))
    got = covariant_derivative(field.jet_at(point), conn.value_at(point))
    want = cd_oracle(field, conn).value_at(point)
    assert got.data == want.data


def test_jet_chain_matches_polynomial_chain():
    # A composite: contract(mul(a, b)) then alternate, checked end to end.
    rng = random.Random(6000)
    point = random_point(rng, DIM)
    a = PolyField.random(rng, DIM, (1, 1))
    b = PolyField.random(rng, DIM, (0, 2))
    got = jet.linear(tc.alternate, jet.linear(tc.contract, jet.jet_mul(a.jet_at(point), b.jet_at(point)), 0, 0), 0, 1)
    sym = a.mul(b).contract(0, 0)
    want = sym.combine(sym.swap_lowers(0, 1), Fraction(-1)).jet_at(point)
    assert got.value.data == want.value.data
    assert got.grad.data == want.grad.data


# ------------------------------------------------------------ structural checks


def test_covariant_derivative_explicit_four_term_loop():
    rng = random.Random(8)
    dim = 3
    t = JetTensor(
        Tensor(dim, (1, 2), [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(dim**3)]),
        Tensor(dim, (1, 3), [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(dim**4)]),
    )
    g = Tensor(dim, (1, 2), [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(dim**3)])
    out = covariant_derivative(t, g)
    assert out.valence == (1, 3)
    for i in range(dim):
        for j in range(dim):
            for m in range(dim):
                for k in range(dim):
                    expected = t.grad[i, j, m, k]
                    expected += sum(g[i, z, k] * t.value[z, j, m] for z in range(dim))
                    expected -= sum(g[z, j, k] * t.value[i, z, m] for z in range(dim))
                    expected -= sum(g[z, m, k] * t.value[i, j, z] for z in range(dim))
                    assert out[i, j, m, k] == expected


def test_covariant_derivative_of_delta_vanishes():
    rng = random.Random(9)
    g = Tensor(3, (1, 2), [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(27)])
    assert covariant_derivative(constant_jet(tc.delta(3)), g).is_zero()


def test_covariant_derivative_zero_connection_is_gradient():
    rng = random.Random(10)
    t = JetTensor(
        Tensor(3, (0, 2), [Fraction(rng.randint(-5, 5)) for _ in range(9)]),
        Tensor(3, (0, 3), [Fraction(rng.randint(-5, 5)) for _ in range(27)]),
    )
    out = covariant_derivative(t, tc.zeros(3, (1, 2)))
    assert out.data == t.grad.data


def test_covariant_derivative_linearity():
    rng = random.Random(12)
    mk = lambda val: JetTensor(
        Tensor(3, val, [Fraction(rng.randint(-5, 5), 2) for _ in range(3 ** sum(val))]),
        Tensor(3, (val[0], val[1] + 1), [Fraction(rng.randint(-5, 5), 2) for _ in range(3 ** (sum(val) + 1))]),
    )
    a, b = mk((1, 1)), mk((1, 1))
    g = Tensor(3, (1, 2), [Fraction(rng.randint(-5, 5), 2) for _ in range(27)])
    c = Fraction(3, 7)
    lhs = covariant_derivative(jet.linear(tc.add, a, jet.linear(tc.scale, b, c)), g)
    rhs = tc.add(covariant_derivative(a, g), tc.scale(covariant_derivative(b, g), c))
    assert lhs.data == rhs.data


def test_covariant_derivative_leibniz_on_contraction():
    # cd of a full contraction (a scalar) has no connection terms at all:
    # it must equal the plain gradient of the trace.
    rng = random.Random(14)
    point = random_point(rng, DIM)
    f = PolyField.random(rng, DIM, (1, 1))
    g = PolyField.random(rng, DIM, (1, 2))
    traced = jet.linear(tc.contract, f.jet_at(point), 0, 0)
    out = covariant_derivative(traced, g.value_at(point))
    assert out.data == traced.grad.data


# -------------------------------------------------- derivative rows

_VALENCES = [(p, r - p) for r in range(4) for p in range(r + 1)]


def _entries(rng, n, scalar):
    if scalar == "int":
        return [rng.randint(-9, 9) for _ in range(n)]
    if scalar == "fraction":
        return [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 16))) for _ in range(n)]
    if scalar == "float":
        return [rng.choice((-0.0, -0.0, 0.0, rng.randint(-8, 8) / 4)) for _ in range(n)]
    return [random_poly(rng, 2, 1) for _ in range(n)]


def _random_jet(rng, dim, valence, scalar):
    p, q = valence
    return JetTensor(Tensor(dim, valence, _entries(rng, dim ** (p + q), scalar)),
                     Tensor(dim, (p, q + 1), _entries(rng, dim ** (p + q + 1), scalar)))


def _carried(t):
    """A result as it was built: its kind mark, then its scaled form and
    entry types if exact, else each entry's repr (terms for polynomials)."""
    if tc._kind(t) in tc._EXACT_KINDS:
        return t._kind, t._den, t._nums, [type(x) for x in t.data]
    return t._kind, [getattr(x, "terms", repr(x)) for x in t.data]


@pytest.mark.parametrize("scalar", ["int", "fraction", "float", "poly"])
@pytest.mark.parametrize("dim", [2, 3])
def test_covariant_derivative_keeps_its_bits(dim, scalar):
    # the sum of the split-out rows is the derivative as one lincomb of the
    # gradient and the connection einsums, in slot order, built in place
    rng = random.Random(f"cd bits {dim} {scalar}")
    g = Tensor(dim, (1, 2), _entries(rng, dim ** 3, scalar))
    for gamma in (g, tc.sym_pair(g, 1, 2, factor_free=True)):
        for p, q in _VALENCES:
            t = _random_jet(rng, dim, (p, q), scalar)
            want = tc.lincomb([(1, t.grad)] + [
                (c, tc.ein(expr, (p, q + 1), gamma, t.value))
                for c, expr in jet._connection_terms(p, q)])
            assert _carried(covariant_derivative(t, gamma)) == _carried(want), (p, q)


def test_jet_shape_validation():
    with pytest.raises(ShapeError):
        JetTensor(tc.zeros(3, (0, 2)), tc.zeros(3, (0, 2)))
    with pytest.raises(ShapeError):
        covariant_derivative(zero_jet(3, (0, 2)), tc.zeros(3, (0, 2)))


def test_constant_jet_and_zero_jet():
    t = Tensor(2, (1, 1), [1, 2, 3, 4])
    j = constant_jet(t)
    assert j.value.data == t.data
    assert j.grad.is_zero()
    z = zero_jet(3, (1, 2))
    assert z.value.is_zero() and z.grad.is_zero()
    assert z.valence == (1, 2) and z.dim == 3


def test_jet_sub_and_transpose_pair():
    rng = random.Random(15)
    point = random_point(rng, DIM)
    a = PolyField.random(rng, DIM, (0, 2))
    b = PolyField.random(rng, DIM, (0, 2))
    diff = jet.linear(tc.sub, a.jet_at(point), b.jet_at(point))
    want = a.combine(b, Fraction(-1)).jet_at(point)
    assert diff.value.data == want.value.data
    assert diff.grad.data == want.grad.data
    tp = jet.linear(tc.transpose_pair, a.jet_at(point), 0, 1)
    want_tp = a.swap_lowers(0, 1).jet_at(point)
    assert tp.value.data == want_tp.value.data
    assert tp.grad.data == want_tp.grad.data


def _hand_lifts(tree):
    """Lines that build a JetTensor whose value and gradient are one call,
    made on ``.value`` and then on ``.grad``: a linear operation lifted by
    hand instead of through ``jet.linear``."""
    hits = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) == "JetTensor"):
            continue
        parts = [*node.args, *(k.value for k in node.keywords)]
        if len(parts) != 2 or not all(isinstance(p, ast.Call) for p in parts):
            continue
        value, grad = map(ast.dump, parts)
        if ("attr='value'" in value
                and value.replace("attr='value'", "attr='grad'") == grad):
            hits.append(node.lineno)
    return hits


def test_only_jet_lifts_linear_operations():
    # jet.linear is the one lift of a linear tc operation; no other module
    # pairs op(x.value) with op(x.grad) itself
    src = Path(jet.__file__).parent
    hits = {path.name: lines for path in sorted(src.glob("*.py"))
            if path.name != "jet.py"
            if (lines := _hand_lifts(ast.parse(path.read_text())))}
    assert hits == {}
    planted = ast.parse(
        "JetTensor(tc.delta_sym(t.value), tc.delta_sym(t.grad))\n"
        "jet.JetTensor(tc.scale(a.value, c), tc.scale(a.grad, c))\n"
        "JetTensor(v, tc.add(u.grad, s))\n"
        "JetTensor(tc.scale(a.value, c), tc.add(tc.scale(a.grad, c), d))\n"
        "JetTensor(value=tc.sub(a.value, b.value), grad=tc.sub(a.grad, b.grad))\n")
    assert _hand_lifts(planted) == [1, 2, 5]
