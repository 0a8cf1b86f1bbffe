"""Connection-space layer: symmetric and torsion halves, curvature, traces,
and their exact identities."""

import random
from fractions import Fraction

import pytest

from _poly import random_poly
from geoinv import connection as cn, tensor_core as tc
from geoinv.connection import ConnectionSpace
from geoinv.invariants import part
from geoinv.jet import JetTensor, ShapeError, constant_jet, linear
from geoinv.tensor_core import Tensor


def random_connection_jet(rng, dim, lo=-4, hi=4):
    val = Tensor(
        dim, (1, 2), [Fraction(rng.randint(lo, hi), rng.randint(1, 3)) for _ in range(dim**3)]
    )
    grad = Tensor(
        dim, (1, 3), [Fraction(rng.randint(lo, hi), rng.randint(1, 3)) for _ in range(dim**4)]
    )
    return JetTensor(val, grad)


def halves(L):
    space = ConnectionSpace(L)
    return space.Lsym, space.Ltor


# --------------------------------------------------------------------- split


def test_split_recombines():
    rng = random.Random(101)
    L = random_connection_jet(rng, 3)
    sym, tor = halves(L)
    assert tc.add(sym.value, tor.value).data == L.value.data
    assert tc.add(sym.grad, tor.grad).data == L.grad.data


def test_split_parts_have_expected_symmetry():
    rng = random.Random(102)
    L = random_connection_jet(rng, 3)
    sym, tor = halves(L)
    assert tc.alternate(sym.value, 1, 2).is_zero()
    assert tc.alternate(sym.grad, 1, 2).is_zero()
    assert tc.sym_pair(tor.value, 1, 2).is_zero()


def test_split_loop_oracle():
    rng = random.Random(103)
    dim = 3
    L = random_connection_jet(rng, dim)
    sym, tor = halves(L)
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                v = L.value
                assert sym.value[i, j, k] == Fraction(v[i, j, k] + v[i, k, j], 2)
                assert tor.value[i, j, k] == Fraction(v[i, j, k] - v[i, k, j], 2)


def test_split_of_symmetric_connection_has_no_torsion():
    rng = random.Random(104)
    L = random_connection_jet(rng, 3)
    sym = ConnectionSpace(L).Lsym
    sym2, tor2 = halves(sym)
    assert sym2.value.data == sym.value.data
    assert tor2.value.is_zero() and tor2.grad.is_zero()


def test_torsion_is_twice_half_difference():
    rng = random.Random(105)
    L = random_connection_jet(rng, 3)
    space = ConnectionSpace(L)
    expected = tc.alternate(L.value, 1, 2)
    assert tc.scale(space.Ltor.value, 2).data == expected.data


def _jet_of(rng, dim, scalar):
    """A connection jet of exact entries over mixed denominators, of floats
    that are mostly signed zeros (so swaps meet -0.0), or of polynomials."""
    def entries(n):
        if scalar == "fraction":
            return [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n)]
        if scalar == "float":
            return [rng.choice((-0.0, -0.0, 0.0, rng.randint(-8, 8) / 4)) for _ in range(n)]
        return [random_poly(rng, dim, 1) for _ in range(n)]
    return JetTensor(Tensor(dim, (1, 2), entries(dim**3)),
                     Tensor(dim, (1, 3), entries(dim**4)))


def _same_bits(got, want, what):
    """The scaled form and kind of exact tensors, else the kind mark and the
    entries: reprs for floats, terms for polynomials."""
    assert tc._kind(got) == tc._kind(want), what
    if tc._kind(want) in tc._EXACT_KINDS:
        assert (got._nums, got._den) == (want._nums, want._den), what
    else:
        assert [getattr(x, "terms", repr(x)) for x in got.data] == [
            getattr(x, "terms", repr(x)) for x in want.data], what


@pytest.mark.parametrize("dim, scalar", [
    (2, "fraction"), (3, "fraction"), (2, "float"), (3, "float"), (4, "float"),
    (2, "poly"),
])
def test_split_and_ricci_halves_keep_the_swap_formulas(dim, scalar):
    # the split and the Ricci halves come from sym_pair and alternate; each
    # keeps the bits of the half-sum and the difference of a tensor and its
    # transpose_pair, as written
    rng = random.Random(f"split {dim} {scalar}")
    L = _jet_of(rng, dim, scalar)
    space = ConnectionSpace(L)
    h = Fraction(1, 2)
    swap = linear(tc.transpose_pair, L, 1, 2)
    Lsym = linear(lambda t, s: tc.lincomb(((h, t), (h, s))), L, swap)
    Ltor = linear(tc.scale, linear(tc.sub, L, swap), h)
    ric = space.ricci
    ric_T = tc.transpose_pair(ric, 0, 1)
    pairs = {"Lsym": (space.Lsym.value, Lsym.value), "Lsym grad": (space.Lsym.grad, Lsym.grad),
             "Ltor": (space.Ltor.value, Ltor.value), "Ltor grad": (space.Ltor.grad, Ltor.grad),
             "sym_ricci": (space.sym_ricci, tc.lincomb(((h, ric), (h, ric_T)))),
             "skew_ricci": (space.skew_ricci, tc.sub(ric, ric_T)),
             "ricci_T": (part(space, "ricci_T"), ric_T)}
    for what, (got, want) in pairs.items():
        _same_bits(got, want, what)
    if scalar == "float":  # the swaps met signed zeros
        assert "-0.0" in map(repr, Ltor.grad.data)


def test_split_rejects_wrong_valence():
    with pytest.raises(ShapeError):
        ConnectionSpace(constant_jet(tc.zeros(3, (1, 1))))
    with pytest.raises(ShapeError):
        ConnectionSpace(constant_jet(tc.zeros(3, (0, 2))))


# ------------------------------------------------------------------ curvature


def test_curvature_of_flat_connection_is_zero():
    assert cn.curvature(constant_jet(tc.zeros(3, (1, 2)))).is_zero()


def test_curvature_constant_connection_loop_oracle():
    # With zero gradient only the quadratic commutator terms survive.
    rng = random.Random(106)
    dim = 3
    val = Tensor(dim, (1, 2), [Fraction(rng.randint(-4, 4)) for _ in range(dim**3)])
    val = tc.sym_pair(val, 1, 2)
    R = cn.curvature(constant_jet(val))
    for i in range(dim):
        for j in range(dim):
            for m in range(dim):
                for n in range(dim):
                    expected = sum(
                        val[a, j, m] * val[i, a, n] - val[a, j, n] * val[i, a, m]
                        for a in range(dim)
                    )
                    assert R[i, j, m, n] == expected


def test_curvature_full_loop_oracle():
    rng = random.Random(107)
    dim = 3
    L = random_connection_jet(rng, dim)
    sym = ConnectionSpace(L).Lsym
    R = cn.curvature(sym)
    v, g = sym.value, sym.grad
    for i in range(dim):
        for j in range(dim):
            for m in range(dim):
                for n in range(dim):
                    expected = g[i, j, m, n] - g[i, j, n, m]
                    expected += sum(
                        v[a, j, m] * v[i, a, n] - v[a, j, n] * v[i, a, m]
                        for a in range(dim)
                    )
                    assert R[i, j, m, n] == expected


def test_curvature_antisymmetric_in_last_pair():
    rng = random.Random(108)
    space = ConnectionSpace(random_connection_jet(rng, 4))
    assert tc.sym_pair(space.R, 2, 3).is_zero()


def test_ricci_loop_oracle():
    rng = random.Random(109)
    dim = 3
    space = ConnectionSpace(random_connection_jet(rng, dim))
    for j in range(dim):
        for m in range(dim):
            assert space.ricci[j, m] == sum(space.R[a, j, m, a] for a in range(dim))
    assert space.skew_ricci.data == tc.alternate(space.ricci, 0, 1).data


def test_curvature_first_trace_is_trace_curl():
    # Contracting the curvature's upper slot with the first derivative slot
    # gives the curl of the connection trace; the quadratic terms cancel.
    rng = random.Random(110)
    for dim in (3, 4):
        space = ConnectionSpace(random_connection_jet(rng, dim))
        lhs = tc.ein("aamn->mn", (0, 2), space.R)
        curl = tc.alternate(space.theta.grad, 0, 1)
        assert lhs.data == curl.data


def test_curvature_first_trace_matches_skew_ricci():
    # The same trace also equals the antisymmetric part of the contracted
    # curvature, with opposite sign.
    rng = random.Random(111)
    for dim in (3, 4):
        space = ConnectionSpace(random_connection_jet(rng, dim))
        lhs = tc.ein("aamn->mn", (0, 2), space.R)
        assert lhs.data == tc.scale(space.skew_ricci, -1).data


def test_theta_is_trace_of_symmetric_part():
    rng = random.Random(112)
    dim = 4
    space = ConnectionSpace(random_connection_jet(rng, dim))
    for j in range(dim):
        assert space.theta.value[j] == sum(space.Lsym.value[a, j, a] for a in range(dim))
    for j in range(dim):
        for k in range(dim):
            assert space.theta.grad[j, k] == sum(
                space.Lsym.grad[a, j, a, k] for a in range(dim)
            )


# ------------------------------------------------- special connection derivative


def test_special_derivative_of_zero_value_is_gradient():
    rng = random.Random(113)
    dim = 3
    grad = Tensor(dim, (1, 3), [Fraction(rng.randint(-4, 4)) for _ in range(dim**4)])
    jet = JetTensor(tc.zeros(dim, (1, 2)), grad)
    assert cn.special_connection_derivative(jet).data == grad.data


def test_special_derivative_constant_loop_oracle():
    rng = random.Random(114)
    dim = 3
    val = tc.sym_pair(
        Tensor(dim, (1, 2), [Fraction(rng.randint(-4, 4)) for _ in range(dim**3)]), 1, 2
    )
    out = cn.special_connection_derivative(constant_jet(val))
    for i in range(dim):
        for j in range(dim):
            for m in range(dim):
                for n in range(dim):
                    expected = sum(
                        val[i, a, n] * val[a, j, m]
                        - val[a, j, n] * val[i, a, m]
                        + val[a, m, n] * val[i, j, a]
                        for a in range(dim)
                    )
                    assert out[i, j, m, n] == expected


def test_special_derivative_gap_to_plain_covariant_derivative():
    # The special rule flips the sign of one quadratic term, so it exceeds the
    # plain covariant derivative of the same (1,2) field by exactly
    # 2 L^a_mn L^i_ja.
    from geoinv.jet import covariant_derivative

    rng = random.Random(115)
    for dim in (3, 4):
        L = random_connection_jet(rng, dim)
        sym = ConnectionSpace(L).Lsym
        special = cn.special_connection_derivative(sym)
        plain = covariant_derivative(sym, sym.value)
        gap = tc.sub(special, plain)
        expected = tc.scale(
            tc.ein("amn,ija->ijmn", (1, 3), sym.value, sym.value), 2
        )
        assert gap.data == expected.data


def test_alternated_special_derivative_curvature_relation():
    rng = random.Random(116)
    sym = ConnectionSpace(random_connection_jet(rng, 3)).Lsym
    special = cn.special_connection_derivative(sym)
    # The third quadratic term is symmetric in (m, n), and the first two each
    # contribute the commutator once, so alternating the derivative pair gives
    # twice the curvature minus the alternated gradient.
    expected = tc.sub(tc.scale(cn.curvature(sym), 2), tc.alternate(sym.grad, 2, 3))
    assert tc.alternate(special, 2, 3).data == expected.data


# ----------------------------------------------------------- trace derivatives


def test_trace_cov_derivative_loop_oracle():
    rng = random.Random(117)
    dim = 3
    space = ConnectionSpace(random_connection_jet(rng, dim))
    out = space.trace_cov_derivative()
    for j in range(dim):
        for n in range(dim):
            expected = space.theta.grad[j, n] - sum(
                space.Lsym.value[a, j, n] * space.theta.value[a] for a in range(dim)
            )
            assert out[j, n] == expected


def test_special_trace_gap_is_twice_mixed_square():
    rng = random.Random(118)
    for dim in (3, 4):
        space = ConnectionSpace(random_connection_jet(rng, dim))
        gap = tc.sub(space.special_trace_derivative(), space.trace_cov_derivative())
        mixed = tc.ein("abn,bja->jn", (0, 2), space.Lsym.value, space.Lsym.value)
        assert gap.data == tc.scale(mixed, 2).data


def test_trace_derivative_curl_identity():
    # Alternating either trace derivative gives the curl of the trace, since
    # both corrections are symmetric in the surviving index pair.
    rng = random.Random(119)
    space = ConnectionSpace(random_connection_jet(rng, 3))
    curl = tc.alternate(space.theta.grad, 0, 1)
    assert tc.alternate(space.trace_cov_derivative(), 0, 1).data == curl.data
    assert tc.alternate(space.special_trace_derivative(), 0, 1).data == curl.data
