"""Dense rational/float tensor kernel: loop-free ops vs explicit loop oracles."""

import ast
import functools
import itertools
import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoinv import tensor_core as tc
from geoinv.tensor_core import IndexKindError, ShapeError, Tensor

from _poly import random_poly

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def random_tensor(rng, dim, valence, lo=-6, hi=6):
    rank = valence[0] + valence[1]
    data = [
        Fraction(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(dim**rank)
    ]
    return Tensor(dim, valence, data)


def tensor_strategy(dim, valence):
    rank = valence[0] + valence[1]
    return st.lists(fractions, min_size=dim**rank, max_size=dim**rank).map(
        lambda data: Tensor(dim, valence, data)
    )


# ---------------------------------------------------------------- delta / contract


def test_delta_entries():
    d = tc.delta(3)
    assert d.valence == (1, 1)
    for i in range(3):
        for j in range(3):
            assert d[i, j] == (1 if i == j else 0)


def test_delta_trace_is_dimension():
    for dim in (2, 3, 4, 5):
        tr = tc.contract(tc.delta(dim), 0, 0)
        assert tr.valence == (0, 0)
        assert tr.data[0] == dim


def test_delta_substitution():
    rng = random.Random(7)
    v = random_tensor(rng, 3, (0, 1))
    # delta^i_j v_k, contracting i against k, substitutes the index: v_j.
    prod = tc.outer(tc.delta(3), v)
    assert prod.valence == (1, 2)
    out = tc.contract(prod, 0, 1)
    assert out.data == v.data


def test_delta_substitution_property():
    rng = random.Random(21)
    for dim in (2, 3, 4):
        t = random_tensor(rng, dim, (0, 2))
        prod = tc.outer(tc.delta(dim), t)  # delta^i_j T_{mn}
        out = tc.contract(prod, 0, 1)  # i against m -> T_{jn}
        assert out.data == t.data


def test_contract_loop_oracle_11():
    rng = random.Random(3)
    t = random_tensor(rng, 3, (1, 1))
    expected = sum(t[i, i] for i in range(3))
    got = tc.contract(t, 0, 0)
    assert got.data == [expected]


def test_contract_loop_oracle_12():
    rng = random.Random(4)
    dim = 3
    t = random_tensor(rng, dim, (1, 2))
    for lower in (0, 1):
        got = tc.contract(t, 0, lower)
        assert got.valence == (0, 1)
        for j in range(dim):
            if lower == 0:
                assert got[j] == sum(t[a, a, j] for a in range(dim))
            else:
                assert got[j] == sum(t[a, j, a] for a in range(dim))


def test_contract_rejects_out_of_range():
    t = tc.zeros(3, (1, 1))
    with pytest.raises(IndexKindError):
        tc.contract(t, 1, 0)
    with pytest.raises(IndexKindError):
        tc.contract(t, 0, 1)


# ---------------------------------------------------------------- delta blocks


def _signed_lattice(rng, dim, valence, exact):
    """Lattice entries with plenty of exact zeros; float zeros of both signs."""
    data = []
    for _ in range(dim ** sum(valence)):
        k = rng.choice([0, 0, rng.randint(-8, 8)])
        if exact:
            data.append(Fraction(k, 4))
        else:
            data.append(rng.choice([0.0, -0.0]) if k == 0 else k / 4)
    return Tensor(dim, valence, data)


def _delta_block_oracles(t):
    d = tc.delta(t.dim)
    if t.q == 1:
        yield "sym", tc.add(tc.ein("ij,k->ijk", (1, 2), d, t),
                            tc.ein("ik,j->ijk", (1, 2), d, t))
        return
    yield "sym", tc.add(tc.ein("ij,kl->ijkl", (1, 3), d, t),
                        tc.ein("ik,jl->ijkl", (1, 3), d, t))
    yield "mix", tc.sub(tc.ein("im,jn->ijmn", (1, 3), d, t),
                        tc.ein("in,jm->ijmn", (1, 3), d, t))
    yield "outer", tc.ein("ij,mn->ijmn", (1, 3), d, t)


@pytest.mark.parametrize("exact", [True, False], ids=["fraction", "float"])
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_delta_blocks_match_their_einsum_definitions(dim, exact):
    # Same valence, same values, and the same sign on every float zero:
    # the blocks replace these einsums inside float-mode invariant formulas.
    prims = {"mix": tc.delta_mix, "outer": tc.delta_outer, "sym": tc.delta_sym}
    rng = random.Random(dim * 2 + exact)
    for valence in ((0, 1), (0, 2)):
        for _ in range(3):
            t = _signed_lattice(rng, dim, valence, exact)
            for name, want in _delta_block_oracles(t):
                got = prims[name](t)
                assert got.valence == want.valence
                assert got.data == want.data, name
                for g, w in zip(got.data, want.data):
                    if isinstance(g, float) or isinstance(w, float):
                        assert math.copysign(1, g) == math.copysign(1, w), name


def test_delta_blocks_reject_wrong_valence():
    v = Tensor(3, (0, 1), [1, 2, 3])
    with pytest.raises(ShapeError):
        tc.delta_mix(v)
    with pytest.raises(ShapeError):
        tc.delta_outer(tc.delta(3))
    with pytest.raises(ShapeError):
        tc.delta_sym(tc.delta(3))


# ---------------------------------------------------------------- alternate / sym


def test_alternate_frozen_2x2():
    t = Tensor(2, (0, 2), [1, 2, 3, 4])
    out = tc.alternate(t, 0, 1)
    assert out.data == [0, -1, 1, 0]


def test_alternate_of_symmetric_is_zero():
    t = Tensor(2, (0, 2), [5, 7, 7, -2])
    assert tc.alternate(t, 0, 1).is_zero()


def test_alternate_twice_doubles():
    rng = random.Random(11)
    t = random_tensor(rng, 3, (0, 2))
    once = tc.alternate(t, 0, 1)
    twice = tc.alternate(once, 0, 1)
    assert twice.data == tc.scale(once, 2).data


@given(tensor_strategy(3, (0, 2)), tensor_strategy(3, (0, 2)), fractions)
def test_alternate_linearity(a, b, c):
    lhs = tc.alternate(tc.add(a, tc.scale(b, c)), 0, 1)
    rhs = tc.add(tc.alternate(a, 0, 1), tc.scale(tc.alternate(b, 0, 1), c))
    assert lhs.data == rhs.data


def test_sym_pair_of_antisymmetric_is_zero():
    t = Tensor(2, (0, 2), [0, 3, -3, 0])
    assert tc.sym_pair(t, 0, 1).is_zero()


def test_sym_plus_half_alt_reconstructs():
    rng = random.Random(13)
    for dim in (2, 3, 4):
        t = random_tensor(rng, dim, (0, 2))
        rebuilt = tc.add(
            tc.sym_pair(t, 0, 1), tc.scale(tc.alternate(t, 0, 1), Fraction(1, 2))
        )
        assert rebuilt.data == t.data


def test_sym_pair_loop_oracle():
    rng = random.Random(17)
    dim = 4
    t = random_tensor(rng, dim, (0, 2))
    half = tc.sym_pair(t, 0, 1)
    full = tc.sym_pair(t, 0, 1, factor_free=True)
    for m in range(dim):
        for n in range(dim):
            assert half[m, n] == Fraction(t[m, n] + t[n, m], 2)
            assert full[m, n] == t[m, n] + t[n, m]
    half_sum = tc.sym_pair(Tensor(2, (0, 2), [1, 2, 0, 1]), 0, 1)
    assert half_sum.data == [1, 1, 1, 1]
    assert all(type(x) is Fraction for x in half_sum.data)


@given(tensor_strategy(3, (0, 2)))
def test_sym_of_alternate_is_zero(t):
    assert tc.sym_pair(tc.alternate(t, 0, 1), 0, 1).is_zero()


def test_pair_ops_reject_mixed_kinds():
    t = tc.zeros(3, (1, 1))
    for op in (tc.alternate, tc.sym_pair, tc.transpose_pair):
        with pytest.raises(IndexKindError):
            op(t, 0, 1)


def test_pair_ops_on_lower_slots_of_mixed_tensor():
    rng = random.Random(19)
    dim = 3
    t = random_tensor(rng, dim, (1, 2))
    # Slots are upper-first, so the two lowers sit at positions 1 and 2.
    out = tc.alternate(t, 1, 2)
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                assert out[i, j, k] == t[i, j, k] - t[i, k, j]


# ---------------------------------------------------------------- outer / add / scale


def test_outer_loop_oracle():
    rng = random.Random(23)
    dim = 3
    a = random_tensor(rng, dim, (1, 1))
    b = random_tensor(rng, dim, (0, 1))
    out = tc.outer(a, b)
    assert out.valence == (1, 2)
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                assert out[i, j, k] == a[i, j] * b[k]


def test_add_scale_cancel():
    rng = random.Random(29)
    t = random_tensor(rng, 4, (0, 2))
    assert tc.add(t, tc.scale(t, -1)).is_zero()


def test_sub_matches_add_of_negation():
    rng = random.Random(37)
    a = random_tensor(rng, 3, (0, 2))
    b = random_tensor(rng, 3, (0, 2))
    assert tc.sub(a, b).data == tc.add(a, tc.scale(b, -1)).data


def test_add_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        tc.add(tc.zeros(3, (0, 2)), tc.zeros(3, (1, 1)))
    with pytest.raises(ShapeError):
        tc.add(tc.zeros(3, (0, 2)), tc.zeros(4, (0, 2)))
    with pytest.raises(ShapeError):  # a bad shape in a later row
        tc.lincomb([(1, tc.zeros(3, (0, 2))), (-1, tc.zeros(3, (0, 2))),
                    (Fraction(1, 2), tc.zeros(3, (1, 1)))])


def test_lincomb_kind_takes_each_coefficient_as_an_operand():
    # the one-pass kind of lincomb's output is _result_kind's over its
    # operands and one operand per coefficient of the coefficient's kind
    # (True stands for any other scalar type)
    scalars = {"int": 2, "fraction": Fraction(1, 3), "float": 0.5, "other": True}
    tensors = {k: Tensor(1, (0, 0), [x]) for k, x in scalars.items()}
    for rows in itertools.chain.from_iterable(
            itertools.product(itertools.product(scalars, repeat=2), repeat=n)
            for n in (1, 2, 3)):
        want = tc._result_kind([tensors[k] for row in rows for k in row])
        got = tc.lincomb([(scalars[c], tensors[t]) for c, t in rows])
        assert got._kind == want, rows


# each case: rows (coefficient, entries) of a (0,1) tensor at N = 2, and why
# it pins the list-path order of lincomb
FLOAT_ORDER_CASES = {
    "leading -0.0 row stays -0.0": ((1, [-0.0, -0.0]), (1, [-0.0, 0.0])),
    "int zero row, then -0.0": ((1, [0, 0]), (1, [-0.0, 0.0])),
    "c == -1 against +0.0": ((1, [-0.0, 0.0]), (-1, [0.0, -0.0])),
    "zero coefficient still adds": ((1, [-0.0, -0.0]), (0, [5.0, -5.0])),
    "Fraction rounded once": ((Fraction(2, 7), [0.3, 1.1]),
                              (Fraction(2, 7), [1.1, 1.7])),
    "rows in order": ((1, [1.0, 1e16]), (1, [1e16, 1.0]), (-1, [1e16, 1e16])),
}


@pytest.mark.parametrize("case", FLOAT_ORDER_CASES)
def test_lincomb_float_order(case):
    rows = FLOAT_ORDER_CASES[case]
    got = tc.lincomb([(c, Tensor(2, (0, 1), d)) for c, d in rows])
    assert [repr(x) for x in got.data] == [repr(x) for x in _o_lincomb(
        [c for c, _ in rows], [d for _, d in rows])]
    first, second = got.data
    if case == "leading -0.0 row stays -0.0":
        assert repr(first) == "-0.0"  # summed onto 0 it would read 0.0
    elif case == "int zero row, then -0.0":
        assert repr(first) == "0.0"
    elif case == "zero coefficient still adds":
        assert (repr(first), repr(second)) == ("0.0", "-0.0")  # -0.0 + +-0.0
    elif case == "Fraction rounded once":
        # rounding num * x / den instead would move both entries
        assert first != 2 * 0.3 / 7 + 2 * 1.1 / 7
        assert second != 2 * 1.1 / 7 + 2 * 1.7 / 7
    elif case == "rows in order":
        assert got.data == [0.0, 0.0]  # reversed, the rows sum to 1.0 twice


def test_tensor_rejects_wrong_data_length():
    with pytest.raises(ShapeError):
        Tensor(3, (0, 2), [1, 2, 3])


# ---------------------------------------------------------------- ein


def test_ein_matmul_loop_oracle():
    rng = random.Random(41)
    dim = 3
    a = random_tensor(rng, dim, (1, 1))
    b = random_tensor(rng, dim, (1, 1))
    out = tc.ein("ia,aj->ij", (1, 1), a, b)
    for i in range(dim):
        for j in range(dim):
            assert out[i, j] == sum(a[i, a_] * b[a_, j] for a_ in range(dim))


def test_ein_double_contraction_loop_oracle():
    rng = random.Random(43)
    dim = 3
    a = random_tensor(rng, dim, (1, 2))
    b = random_tensor(rng, dim, (1, 2))
    # out_{jn} = a^b_{na} b^a_{jb}
    out = tc.ein("bna,ajb->jn", (0, 2), a, b)
    for j in range(dim):
        for n in range(dim):
            expected = sum(
                a[b_, n, a_] * b[a_, j, b_] for a_ in range(dim) for b_ in range(dim)
            )
            assert out[j, n] == expected


def test_ein_transpose_and_trace():
    rng = random.Random(47)
    dim = 4
    t = random_tensor(rng, dim, (1, 3))
    tr = tc.ein("aamn->mn", (0, 2), t)
    for m in range(dim):
        for n in range(dim):
            assert tr[m, n] == sum(t[a, a, m, n] for a in range(dim))


# ---------------------------------------------------------------- numeric closure


def test_rational_closure():
    rng = random.Random(53)
    a = random_tensor(rng, 3, (1, 2))
    b = random_tensor(rng, 3, (1, 2))
    results = [
        tc.add(a, b),
        tc.sub(a, b),
        tc.scale(a, Fraction(2, 7)),
        tc.alternate(a, 1, 2),
        tc.sym_pair(a, 1, 2),
        tc.contract(a, 0, 1),
        tc.outer(a, b),
        tc.ein("ija,ajk->ik", (1, 1), a, b),
    ]
    for out in results:
        assert all(isinstance(x, (int, Fraction)) for x in out.data)


def test_max_abs_diff_and_is_zero():
    a = Tensor(2, (0, 1), [Fraction(1, 2), Fraction(-3, 4)])
    b = Tensor(2, (0, 1), [Fraction(1, 2), Fraction(1, 4)])
    assert tc.max_abs_diff(a, a) == 0
    assert tc.max_abs_diff(a, b) == Fraction(1, 1)
    assert tc.zeros(3, (1, 1)).is_zero()
    assert not a.is_zero()
    assert a.max_abs() == Fraction(3, 4)


def test_float_mode_operations():
    rng = random.Random(59)
    a = random_tensor(rng, 3, (1, 1))
    af = Tensor(3, (1, 1), [float(x) for x in a.data])
    tr = tc.contract(af, 0, 0)
    assert tr.data[0] == pytest.approx(float(sum(a[i, i] for i in range(3))))


# ---------------------------------------------------------------- arithmetic domains


def _entry(x):
    return Tensor(1, (0, 1), [x])


class _NoScale(Tensor):
    """A tensor whose magnitude must not be asked for."""

    __slots__ = ()

    def max_abs(self):
        raise AssertionError("the exact rule scanned for a scale")


def test_domain_coefficients():
    assert tc.DOMAINS == {"rational": tc.RATIONAL, "float": tc.FLOAT}
    for num, den in ((1, 2), (-3, 4), (5, 1), (1, 3), (-7, 12), (0, 5)):
        f = tc.FLOAT.c(num, den)
        assert type(f) is float and f == num / den
        r = tc.RATIONAL.c(num, den)
        assert type(r) is Fraction and r == Fraction(num, den)
    assert tc.RATIONAL.c(3) == Fraction(3) and tc.FLOAT.c(3) == 3.0


def test_float_close_is_the_cli_rule_at_its_edges():
    # absolute edge: max|a - b| == ABS_TOL passes, one ulp more fails
    assert tc.FLOAT.measure(_entry(tc.ABS_TOL), _entry(0.0))[0]
    assert not tc.FLOAT.measure(_entry(math.nextafter(tc.ABS_TOL, 1.0)), _entry(0.0))[0]
    # relative edge: REL_TOL * 1e9 is exactly 1.0, so a gap of 1.0 sits on it
    assert tc.REL_TOL * 1e9 == 1.0
    assert tc.FLOAT.measure(_entry(1e9), _entry(1e9 - 1.0))[0]
    assert tc.FLOAT.measure(_entry(-1e9), _entry(-1e9 + 1.0))[0]
    assert not tc.FLOAT.measure(_entry(1e9), _entry(math.nextafter(1e9 - 1.0, 0)))[0]
    # both edges move with the tolerances passed in
    assert tc.FLOAT.measure(_entry(2.0), _entry(1.0), rel_tol=0.5, abs_tol=0.0)[0]
    assert not tc.FLOAT.measure(_entry(2.0), _entry(1.0), rel_tol=0.25, abs_tol=0.0)[0]
    assert tc.FLOAT.measure(_entry(0.5), _entry(0.0), rel_tol=0.0, abs_tol=0.5)[0]
    ok, d, scale = tc.FLOAT.measure(_entry(-3.0), _entry(1.0))
    assert (ok, d, scale) == (False, 4.0, 3.0)


# the table of test_cli.py::test_check_sees_every_non_finite_gap
NON_FINITE_GAPS = [
    ([1.0, float("nan")], [1.0, 1.0]),  # max() skips a NaN after the first entry
    ([1.0, 2.0], [1.0, float("inf")]),
    ([1.0, float("inf")], [1.0, float("inf")]),  # inf - inf is NaN
    ([1.0, 1e308], [1.0, -1e308]),  # finite sides whose gap overflows
]


@pytest.mark.parametrize("a, b", NON_FINITE_GAPS)
def test_float_comparison_refuses_a_non_finite_gap(a, b):
    ta, tb = Tensor(2, (1, 0), a), Tensor(2, (1, 0), b)
    for compare in (tc.max_abs_diff, tc.FLOAT.measure):
        for x, y in ((ta, tb), (tb, ta)):
            with pytest.raises(tc.GeoinvError) as err:
                compare(x, y)
            assert str(err.value) == (
                "residual is not finite: it overflowed the float range")


@pytest.mark.parametrize("a, b", [
    ([1.0, 1e308], [1.0, -1e-300]),  # a finite gap next to the overflowing one
    ([-0.0, 0.0], [0.0, -0.0]),
    ([0.5, -3.0], [1, 0]),  # int entries on the float path
    ([1e-300, 2.5], [-1e-300, 2.5]),
])
def test_float_comparison_on_finite_gaps_is_unchanged(a, b):
    # the values of the plain max() scan, which finite input never trips
    ta, tb = Tensor(2, (1, 0), a), Tensor(2, (1, 0), b)
    d = max(abs(x - y) for x, y in zip(a, b))
    scale = max(max(map(abs, a)), max(map(abs, b)))
    got = tc.max_abs_diff(ta, tb)
    assert got == d and repr(got) == repr(d)
    assert tc.FLOAT.measure(ta, tb) == (
        d <= tc.ABS_TOL or d <= tc.REL_TOL * scale, d, scale)


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
def test_float_write_edge_refuses_non_finite_numbers(x):
    message = "the result is not finite: it overflowed the float range"
    with pytest.raises(tc.GeoinvError) as err:
        tc.FLOAT.num_out(x)
    assert str(err.value) == message
    with pytest.raises(tc.GeoinvError) as err:
        tc.FLOAT.tensor_out(Tensor(2, (0, 1), [1.0, x]))
    assert str(err.value) == message
    assert tc.FLOAT.num_out(-1e308) == -1e308
    assert tc.FLOAT.tensor_out(Tensor(2, (0, 1), [1e308, 3])) == [1e308, 3.0]


def test_exact_and_other_kind_comparisons_keep_their_paths():
    # exact kernels and other scalars are past the float rule: a gap beyond
    # the float range is an exact number there, not an error
    big = 10**400
    a = Tensor(2, (0, 1), [Fraction(1, 3), big])
    b = Tensor(2, (0, 1), [0, -big])
    assert tc.max_abs_diff(a, b) == 2 * big
    assert tc.RATIONAL.measure(a, b) == (False, 2 * big, None)
    other_a, other_b = (Tensor(2, (0, 1), [_Frac(x) for x in t.data]) for t in (a, b))
    assert tc._kind(other_a) is tc._OTHER
    assert tc.max_abs_diff(other_a, other_b) == 2 * big
    assert tc.RATIONAL.num_out(Fraction(-big, 3)) == f"-{big}/3"


def test_rational_close_is_exact_equality():
    third = Fraction(1, 3)
    assert tc.RATIONAL.measure(_NoScale(1, (0, 1), [third]), _NoScale(1, (0, 1), [third]))[0]
    tiny = Fraction(1, 10**30)
    a, b = _NoScale(1, (0, 1), [third]), _NoScale(1, (0, 1), [third + tiny])
    assert not tc.RATIONAL.measure(a, b, rel_tol=1.0, abs_tol=1.0)[0]
    assert tc.RATIONAL.measure(a, b) == (False, tiny, None)


def test_domain_tolerance_reports():
    assert tc.RATIONAL.tolerance(1e-3, 1e-4) == {"exact": True}
    assert tc.FLOAT.tolerance() == {"relative": 1e-9, "absolute": 1e-12}
    assert tc.FLOAT.tolerance(1e-3, 1e-4) == {"relative": 1e-3, "absolute": 1e-4}


def _scan_rational(vals):
    """The per-entry reader: each entry through _ratio_in in file order."""
    pairs = [tc._ratio_in(v) for v in vals]
    den = math.lcm(*{d for _, d in pairs})
    return Tensor(len(vals), (0, 1), [Fraction(n * (den // d), den) for n, d in pairs])


def _scan_float(vals):
    """The per-entry float reader, checks in file order."""
    for v in vals:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ValueError(f"float-mode entries must be numbers, got {v!r:.40}")
        if not abs(v) <= sys.float_info.max:
            raise ValueError(f"float-mode entries must be finite, got {v!r:.40}")
    return Tensor(len(vals), (0, 1), [float(v) for v in vals])


_BAD_ENTRIES = [True, False, 1.0, [], None, "1/0", "\u00b2/1", "x", "1/-2"]
_RATIONAL_ENTRIES = st.one_of(
    st.builds("{}/{}".format, st.integers(-40, 40), st.integers(1, 48)),
    st.integers(-10**20, 10**20),
    st.sampled_from(["0.5", "1e3", " 1/2", "-0/16", "2/4", "03/016", "1/2", 1]
                    + _BAD_ENTRIES))
_FLOAT_ENTRIES = st.one_of(
    st.floats(), st.integers(-3, 3),
    st.sampled_from([-0.0, 10**400, int(sys.float_info.max) + 1] + _BAD_ENTRIES))


@pytest.mark.parametrize("dom, scan, lists", [
    (tc.RATIONAL, _scan_rational, st.lists(_RATIONAL_ENTRIES, min_size=1, max_size=9)),
    (tc.FLOAT, _scan_float, st.lists(_FLOAT_ENTRIES, min_size=1, max_size=9)
     | st.lists(st.floats(), min_size=1, max_size=9)),  # the all-float path
], ids=["rational", "float"])
@settings(max_examples=60)
@given(data=st.data())
def test_bulk_reader_matches_the_entry_scan(dom, scan, lists, data):
    # a file's arrays read in file order, each alone and through the file's
    # reader (its memo holding the earlier arrays' literals): the same
    # tensors, or the same message, naming the first bad entry in file order
    arrays = data.draw(st.lists(lists, min_size=1, max_size=3))
    read = dom.reader()
    for vals in arrays:
        try:
            want = scan(vals)
        except ValueError as e:
            for reader in (dom.reader(), read):
                with pytest.raises(ValueError) as err:
                    reader(len(vals), (0, 1), vals)
                assert str(err.value) == str(e)
            return
        for reader in (dom.reader(), read):
            got = reader(len(vals), (0, 1), vals)
            assert list(map(repr, got.data)) == list(map(repr, want.data))
            if dom.exact:
                tc._kind(want)
                assert (got._nums, got._den) == (want._nums, want._den)


def test_bulk_reader_names_the_first_bad_literal():
    # each distinct literal is parsed once; the error is file order's
    for bad in itertools.permutations(["x", "1/0", "\u00b2/1", "1/-2", "0.5.5"], 3):
        vals = ["1/2", *bad, 3]
        with pytest.raises(ValueError) as err:
            tc.RATIONAL.reader()(len(vals), (0, 1), vals)
        with pytest.raises(ValueError) as first:
            tc._ratio_in(bad[0])
        assert str(err.value) == str(first.value)


@pytest.mark.parametrize("bad", [True, 1.0, [1]])
def test_reader_memo_does_not_admit_equal_non_literals(bad):
    # the memo holds 1 and '1/2'; True and 1.0 equal 1 and hash alike, but
    # a later array holding one is refused as an array read alone is
    read = tc.RATIONAL.reader()
    assert read(2, (0, 1), [1, "1/2"]).data == [1, Fraction(1, 2)]
    vals = ["1/2", bad, 1]
    with pytest.raises(ValueError) as err:
        read(len(vals), (0, 1), vals)
    assert str(err.value) == f"rational-mode entries must be 'num/den' strings, got {bad!r}"


def test_float_tensor_out_keeps_every_bit():
    t = Tensor(2, (0, 2), [-0.0, 0.1, Fraction(1, 3), 7])
    assert list(map(repr, tc.FLOAT.tensor_out(t))) == [
        "-0.0", "0.1", repr(1 / 3), "7.0"]


def _det(A):
    """Leibniz expansion: an oracle independent of elimination."""
    n = len(A)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= A[i][j]
        total += term
    return total


def test_solve_is_exact_on_lattice_systems():
    _solve = tc._solve
    rng = random.Random(61)
    solved = 0
    for trial in range(120):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        A = [[Fraction(rng.randint(-16, 16), 16) for _ in range(n)] for _ in range(n)]
        if trial % 3 == 0:
            A[0][0] = Fraction(0)  # the first pivot has to come from below
        B = [[Fraction(rng.randint(-16, 16), 16) for _ in range(m)] for _ in range(n)]
        X = _solve(A, B)
        if _det(A) == 0:
            assert X is None
            continue
        solved += 1
        AX = [[sum(A[i][k] * X[k][j] for k in range(n)) for j in range(m)]
              for i in range(n)]
        assert AX == B
    assert solved > 100
    singular = [[Fraction(1, 2), Fraction(3, 16)], [Fraction(1, 2), Fraction(3, 16)]]
    assert _solve(singular, [[Fraction(1)], [Fraction(2)]]) is None


def _lattice_system(rng, n, kind):
    """An n x n lattice matrix (rows of k/16) of a kind: "regular" (redrawn
    until the Leibniz determinant is nonzero), "zero-pivot" (a regular one
    with A[0][0] = 0, so the first pivot comes from below), "singular" (its
    last row the sum of two others) or "deficient" (rank n - 2: its last two
    rows multiples of the first)."""
    while True:
        A = [[Fraction(rng.randint(-16, 16), 16) for _ in range(n)] for _ in range(n)]
        if kind == "zero-pivot":
            A[0][0] = Fraction(0)
        if kind == "singular":
            A[-1] = [x + y for x, y in zip(A[0], A[1 % (n - 1)])]
        elif kind == "deficient":
            A[-2] = [2 * x for x in A[0]]
            A[-1] = [-3 * x for x in A[0]]
        if (_det(A) != 0) == (kind in ("regular", "zero-pivot")):
            return A


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_fraction_free_elimination_matches_the_list_path(n, monkeypatch):
    # tc.solver on exact lattice systems against the list-path elimination
    # (tc._solve) on the same Fraction lists, with right-hand sides of one
    # column and of n columns
    _solve = tc._solve
    listed = []  # the exact solver must never take the list path
    monkeypatch.setattr(tc, "_solve", lambda A, B: listed.append(A) or _solve(A, B))
    rng = random.Random(3400 + n)
    signs = set()
    for trial, kind in enumerate(["regular", "zero-pivot", "singular", "deficient"] * 4):
        if kind == "deficient" and n < 3:
            continue
        A = _lattice_system(rng, n, kind)
        det = _det(A)
        # the elimination's determinant is the oracle's, sign included
        assert tc._bareiss([[x.numerator * (16 // x.denominator) for x in r] for r in A],
                           [[] for _ in A])[0] == det * 16 ** n
        signs.add((det > 0) - (det < 0))
        solve = tc.solver(Tensor(n, (1, 1), [x for r in A for x in r]))
        for valence in ((0, 1), (0, 2)):
            m = n ** (valence[1] - 1)
            B = [[Fraction(rng.randint(-16, 16), rng.choice((1, 2, 16)))
                  for _ in range(m)] for _ in range(n)]
            X = _solve(A, B)
            if det == 0:
                assert solve is None and X is None
                continue
            got = solve(Tensor(n, valence, [x for r in B for x in r]))
            assert got.data == [x for r in X for x in r]
            # scaled and in lowest terms, materialised as Fractions
            assert got._den > 0 and math.gcd(got._den, *got._nums) == 1
            assert {type(x) for x in got.data} == {Fraction}
    assert signs == {-1, 0, 1}
    assert listed == []


def test_solver_decides_float_systems_on_their_exact_values():
    # a float matrix is regular iff its exact values are, whatever a float
    # pivot meets; its solve is the list path's, bit for bit
    _solve = tc._solve
    rng = random.Random(34)
    for n in (2, 3, 4):
        for kind in ("regular", "zero-pivot", "singular"):
            A = [[float(x) for x in r] for r in _lattice_system(rng, n, kind)]
            solve = tc.solver(Tensor(n, (1, 1), [x for r in A for x in r]))
            assert (solve is None) == (kind == "singular")
            if solve is not None:
                B = [[rng.randint(-16, 16) / 16 for _ in range(n)] for _ in range(n)]
                got = solve(Tensor(n, (0, 2), [x for r in B for x in r]))
                assert list(map(repr, got.data)) == [repr(x) for r in _solve(A, B)
                                                     for x in r]
    # singular in exact values (the last row is the sum of the others),
    # where float elimination meets a rounded pivot, not 0
    rows = [[x / 16 for x in r] for r in ([-8, -12, 0], [-9, 15, 12], [-17, 3, 12])]
    assert _solve(rows, [[], [], []]) is not None
    assert tc.solver(Tensor(3, (1, 1), [x for r in rows for x in r])) is None
    with pytest.raises(ShapeError):
        tc.solver(Tensor(2, (0, 1), [1, 2]))
    with pytest.raises(ShapeError):
        tc.solver(Tensor(2, (1, 1), [1, 2, 3, 4]))(Tensor(3, (0, 1), [1, 2, 3]))


def test_mode_dispatch_lives_in_tensor_core():
    # Mode-specific arithmetic belongs to tc.Domain; no other module may
    # branch on a mode string or on a domain's kind, infer a domain from
    # entries, sniff for floats, or bring back the helpers the domain replaced.
    pattern = re.compile(
        r"""(==|!=)\s*["'](rational|float)["']"""
        r"""|["'](rational|float)["']\s*(==|!=)"""
        r"""|\bmode\s*(==|!=)"""
        r"""|isinstance\([^)]*\bfloat\b"""
        r"""|\.exact\b|\bdomain_of\b"""  # the domain decides, in tensor_core alone
        r"""|\b(coeff|_conv|_exactish)\b""")
    src = Path(tc.__file__).parent
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(src.glob("*.py")) if path.name != "tensor_core.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    # the formula modules take exact coefficients and no mode at all; the
    # domain's closeness rule (fields.domain.measure) stays available
    formula = re.compile(r"\.c\b|\bDOMAINS\b|\bdomain_of\b")
    hits += [
        f"{name}:{n}: {line.strip()}"
        for name in ("invariants.py", "agm.py", "connection.py", "jet.py")
        for n, line in enumerate((src / name).read_text().splitlines(), 1)
        if formula.search(line)
    ]
    hits += [
        f"invariants.py: {node.name}(mode)"
        for node in ast.walk(ast.parse((src / "invariants.py").read_text()))
        if isinstance(node, ast.FunctionDef)
        and "mode" in [a.arg for a in node.args.args + node.args.kwonlyargs]
    ]
    assert hits == []


def _dynamic_code_calls(tree, allowed=None):
    """Lines that call ``exec``, ``eval`` or ``compile`` (by name or as
    ``builtins.x``) outside the function named ``allowed``."""
    inside = {id(sub) for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == allowed
              for sub in ast.walk(node)}
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside:
            continue
        f = node.func
        if isinstance(f, ast.Name):
            name = f.id
        elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
              and f.value.id == "builtins"):
            name = f.attr
        else:
            continue
        if name in ("exec", "eval", "compile"):
            hits.append(node.lineno)
    return sorted(hits)


def test_only_the_kernel_factory_compiles_code():
    # the ein kernels are the package's only generated code, and their
    # source is built from two integers, never from user text
    src = Path(tc.__file__).parent
    allowed = {"tensor_core.py": "_kernel"}
    hits = {path.name: lines for path in sorted(src.glob("*.py"))
            if (lines := _dynamic_code_calls(ast.parse(path.read_text()),
                                             allowed.get(path.name)))}
    assert hits == {}
    assert _dynamic_code_calls(ast.parse(Path(tc.__file__).read_text()))
    planted = ast.parse("eval('1')\nre.compile('x')\nimport builtins\n"
                        "builtins.exec('')\ndef _kernel():\n"
                        "    return compile('', '', 'eval')\n")
    assert _dynamic_code_calls(planted) == [1, 4, 6]
    assert _dynamic_code_calls(planted, "_kernel") == [1, 4]


# ---------------------------------------------------------------- immutability


_MUTATORS = {"append", "extend", "insert", "pop", "remove", "sort", "reverse",
             "clear", "__setitem__", "__delitem__"}


def _data_writes(tree):
    """Lines that write into ``<expr>.data[...]``, rebind ``<expr>.data`` or
    call a list mutator on ``<expr>.data``."""
    def is_data(node):
        return isinstance(node, ast.Attribute) and node.attr == "data"

    hits = []
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for t in targets:
            for sub in ast.walk(t):
                if is_data(sub) or (isinstance(sub, ast.Subscript)
                                    and is_data(sub.value)):
                    hits.append(node.lineno)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS and is_data(node.func.value)):
            hits.append(node.lineno)
    return sorted(set(hits))


def test_no_module_writes_into_tensor_data():
    # An exact tensor caches its materialised entries next to its scaled
    # form, so an in-place write would leave the two disagreeing.
    src = Path(tc.__file__).parent
    hits = {path.name: lines for path in sorted(src.glob("*.py"))
            if (lines := _data_writes(ast.parse(path.read_text())))}
    assert hits == {}
    planted = ast.parse("t.data[0] = 1\nt.data = []\nt.data[1] += 2\n"
                        "u.value.data.append(3)\nx = t.data[0]\n")
    assert _data_writes(planted) == [1, 2, 3, 4]


def test_data_is_read_only():
    t = Tensor(2, (0, 1), [Fraction(1, 2), 3])
    with pytest.raises(AttributeError):
        t.data = [1, 2]


# ---------------------------------------------------------------- memo


def test_once_runs_once_per_owner_and_argument_tuple():
    calls = []

    class Owner:
        @tc.once
        def part(self, *args):
            calls.append((self, args))
            return object()

    a, b = Owner(), Owner()
    assert a.part(1) is a.part(1)
    assert a.part() is a.part()
    assert a.part(2) is not a.part(1)
    assert b.part(1) is b.part(1)
    assert b.part(1) is not a.part(1)
    assert calls == [(a, (1,)), (a, ()), (a, (2,)), (b, (1,))]
    # keyed on the undecorated function: a second decoration shares entries
    assert tc.once(Owner.part.__wrapped__)(a, 2) is a.part(2)
    assert len(calls) == 4
    with pytest.raises(TypeError):
        a.part(k=1)


def _memo_breaches(tree):
    """Lines that name a ``_cache`` or ``_cached`` attribute or function, or
    ``_memo`` outside the function ``once``."""
    inside = {id(sub) for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "once"
              for sub in ast.walk(node)}
    hits = []
    for node in ast.walk(tree):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.FunctionDef) else None)
        if name in ("_cache", "_cached") or (name == "_memo"
                                             and id(node) not in inside):
            hits.append(node.lineno)
    return sorted(hits)


def test_once_is_the_only_memo():
    # a result derived once per owner goes through tc.once, which alone
    # reads and writes the owner's _memo
    src = Path(tc.__file__).parent
    hits = {path.name: lines for path in sorted(src.glob("*.py"))
            if (lines := _memo_breaches(ast.parse(path.read_text())))}
    assert hits == {}
    planted = ast.parse("def _cached(self, key):\n    return self._cache[key]\n"
                        "def once(fn):\n    fn._memo = {}\n"
                        "def rho(f):\n    f._memo['rho'] = 1\n")
    assert _memo_breaches(planted) == [1, 2, 6]


def _delta_block_refs(tree, allowed=frozenset()):
    """Lines that name ``delta_mix`` or ``delta_outer`` (as an attribute, a
    name or an import) outside the functions whose qualified names, such as
    ``Class.method``, are in ``allowed``."""
    inside = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if name in allowed:
                    inside.update(id(sub) for sub in ast.walk(child))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    hits = []
    for node in ast.walk(tree):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, ast.alias) else None)
        if name in ("delta_mix", "delta_outer") and id(node) not in inside:
            hits.append(node.lineno)
    return sorted(hits)


def test_only_the_block_builders_take_mix_and_outer_blocks():
    # Every closed form, the agm ones included, is a table row over
    # invariants.part, which builds each delta block once per side; the
    # decomposition and its rebuild operator are the only other builders.
    # A form that grows its own block call fails here.
    src = Path(tc.__file__).parent
    allowed = {
        "invariants.py": {"part", "Decomposition.__init__", "derived_invariants"},
    }
    hits = {path.name: lines for path in sorted(src.glob("*.py"))
            if path.name != "tensor_core.py"
            and (lines := _delta_block_refs(ast.parse(path.read_text()),
                                            allowed.get(path.name, set())))}
    assert hits == {}
    planted = ast.parse("def f(Y):\n    return tc.delta_mix(Y)\n"
                        "class Forms:\n    def mix(self, Y):\n"
                        "        return tc.delta_mix(Y)\n"
                        "from .tensor_core import delta_outer\n"
                        "g = tc.delta_outer\n")
    assert _delta_block_refs(planted) == [2, 5, 6, 7]
    assert _delta_block_refs(planted, {"Forms.mix", "mix"}) == [2, 6, 7]


# ---------------------------------------------------------------- plan cache


def test_plan_cache_is_bounded_and_stays_correct():
    # eval subscripts come from users: 500 distinct ones must not grow the
    # cache past its cap, and a plan rebuilt after eviction must be right
    cache = tc._PLAN_CACHE
    assert tc.PLAN_CACHE_CAP >= 200  # well above what the workloads use
    rng = random.Random(67)
    a = random_tensor(rng, 2, (0, 3))
    b = random_tensor(rng, 2, (0, 3))
    full = sum(x * y for x, y in zip(a.data, b.data))
    swapped = [sum(a[i, j, k] * b[j, i, k] for i in range(2) for j in range(2))
               for k in range(2)]
    triples = list(itertools.islice(
        itertools.permutations("abcdefghijklmnopqrstuvwxyz", 3), 500))
    misses = cache.misses
    for n, (x, y, z) in enumerate(triples):
        if n % 2:
            got = tc.ein(f"{x}{y}{z},{x}{y}{z}->", (0, 0), a, b)
            assert got.data == [full]
        else:
            got = tc.ein(f"{x}{y}{z},{y}{x}{z}->{z}", (0, 1), a, b)
            assert got.data == swapped
        assert len(cache) <= tc.PLAN_CACHE_CAP
    assert cache.misses - misses > tc.PLAN_CACHE_CAP  # so plans were evicted
    x, y, z = triples[0]  # long evicted by now
    assert tc.ein(f"{x}{y}{z},{y}{x}{z}->{z}", (0, 1), a, b).data == swapped
    hits = cache.hits
    assert tc.ein(f"{x}{y}{z},{y}{x}{z}->{z}", (0, 1), a, b).data == swapped
    assert cache.hits == hits + 1


# ---------------------------------------------------------------- value table


def _sum_two_ways(seed):
    """a + b built by two kernel routes: add, and lincomb over other rows."""
    rng = random.Random(seed)
    a = random_tensor(rng, 3, (1, 2))
    b = random_tensor(rng, 3, (1, 2))
    return tc.add(a, b), tc.lincomb([(-1, a), (1, b), (2, a)]), a, b


def test_equal_exact_tensors_share_their_entries():
    s, t, a, b = _sum_two_ways(71)
    assert s is not t and s._data is None and t._data is None
    assert all(x is y for x, y in zip(s.data, t.data))
    assert s.data == [x + y for x, y in zip(a.data, b.data)]
    for x, n in zip(s.data, s._nums):
        # a Fraction in lowest terms, integral values included
        assert type(x) is Fraction and x == Fraction(n, s._den)
        assert math.gcd(x.numerator, x.denominator) == 1 and x.denominator > 0
    ints = tc.add(tc.delta(3), tc.scale(tc.delta(3), 2))
    assert set(map(type, ints.data)) == {int} and ints[1, 1] == 3
    zero = tc.scale(a, 0)  # integral values of a Fraction tensor stay Fractions
    assert set(map(type, zero.data)) == {Fraction}


def test_unequal_exact_tensors_still_compare_unequal():
    s, *_ = _sum_two_ways(72)
    bump = [0] * len(s.data)
    bump[5] = Fraction(1, 7)
    u = tc.add(s, Tensor(3, (1, 2), bump))
    assert u.data != s.data and u != s
    assert [k for k, (x, y) in enumerate(zip(s.data, u.data)) if x != y] == [5]


def test_value_table_is_bounded_and_stays_correct():
    # past the cap, values read earlier are evicted: a later read builds them
    # again, equal though not the same objects
    early, _, a, b = _sum_two_ways(73)
    read = early.data  # before the table fills
    dim = math.isqrt(math.isqrt(tc.VALUE_TABLE_CAP)) + 1
    many = tc.RATIONAL.tensor(dim, (0, 4), list(range(dim**4)), 11)
    assert len(set(many.data)) > tc.VALUE_TABLE_CAP
    assert tc._fraction.cache_info().currsize == tc.VALUE_TABLE_CAP
    fresh = tc.add(a, b)
    assert fresh.data == read and fresh == early


def test_single_entry_reads_match_data():
    s, *_ = _sum_two_ways(74)
    t = tc.ein("ijk->ikj", (1, 2), s)
    got = [t[idx] for idx in itertools.product(range(3), repeat=3)]
    assert t._data is None  # no entry read materialised the rest
    assert all(x is y for x, y in zip(got, t.data))
    ints = tc.add(tc.delta(3), tc.delta(3))
    floats = tc.scale(Tensor(3, (1, 1), [0.5] * 9), 3)
    for u in (ints, floats, s):
        for off, idx in enumerate(itertools.product(range(3), repeat=u.rank)):
            assert u[idx] == u.data[off] and type(u[idx]) is type(u.data[off])
    with pytest.raises(IndexError):
        tc.ein("ijk->ikj", (1, 2), s)[3, 0, 0]


# ------------------------------------------- scaled kernels vs a Fraction oracle
#
# The oracle runs on plain entry lists, one multiply-add at a time, in the
# order the list kernels use (ein sums from an integer 0, output indices in
# row-major order, summed indices in order of first appearance).  Exact
# operands must give the same values, with the result's scaled form in
# lowest terms and int entries exactly when every input was all-int; float
# operands must give the same bits, signed zeros included.

STYLES = ("den16", "den3", "den7", "zero", "int", "mixed")


def _entries(rng, n, style):
    if style == "den16":
        return [Fraction(rng.randint(-16, 16), 16) for _ in range(n)]
    if style == "den3":
        return [Fraction(rng.randint(-9, 9), 3) for _ in range(n)]
    if style == "den7":
        return [Fraction(rng.randint(-14, 14), 7) for _ in range(n)]
    if style == "zero":
        return [Fraction(0)] * n
    if style == "int":
        return [rng.randint(-9, 9) for _ in range(n)]
    if style == "mixed":
        return [rng.choice((rng.randint(-9, 9),
                            Fraction(rng.randint(-16, 16), rng.choice((16, 3)))))
                for _ in range(n)]
    if style == "float+int":  # a float tensor that still holds int entries
        return [-0.0] + [rng.choice((0.0, rng.randint(-16, 16) / 16,
                                     rng.randint(-9, 9))) for _ in range(n - 1)]
    assert style == "float"
    return [rng.choice((0.0, -0.0, rng.randint(-16, 16) / 16)) for _ in range(n)]


def _off(dim, idx):
    o = 0
    for i in idx:
        o = o * dim + i
    return o


def _o_ein(expr, dim, *datas):
    ins, out = expr.split("->")
    ins = ins.split(",")
    summed = [c for c in dict.fromkeys("".join(ins)) if c not in out]
    result = []
    for oidx in itertools.product(range(dim), repeat=len(out)):
        acc = 0
        for sidx in itertools.product(range(dim), repeat=len(summed)):
            env = {**dict(zip(out, oidx)), **dict(zip(summed, sidx))}
            term = None
            for s, d in zip(ins, datas):
                x = d[_off(dim, [env[c] for c in s])]
                term = x if term is None else term * x
            acc += term
        result.append(acc)
    return result


def _o_transpose(dim, rank, d, a, b):
    out = []
    for idx in itertools.product(range(dim), repeat=rank):
        src = list(idx)
        src[a], src[b] = src[b], src[a]
        out.append(0 + d[_off(dim, src)])
    return out


def _o_delta_mix(dim, y):
    out = []
    for i, j, m, n in itertools.product(range(dim), repeat=4):
        acc = 0
        if i == m:
            acc += y[j * dim + n]
        if i == n:
            acc -= y[j * dim + m]
        out.append(acc)
    return out


def _o_delta_outer(dim, y):
    return [0 + y[m * dim + n] if i == j else 0
            for i, j, m, n in itertools.product(range(dim), repeat=4)]


def _o_delta_sym(dim, q, d):
    M = dim ** (q - 1)
    out = []
    for i, j, k, r in itertools.product(range(dim), range(dim), range(dim),
                                        range(M)):
        acc = 0
        if i == j:
            acc += d[k * M + r]
        if i == k:
            acc += d[j * M + r]
        out.append(acc)
    return out


EIN_CASES = (
    ("ajm,ian->ijmn", (1, 3), ((1, 2), (1, 2))),
    ("ia,aj->ij", (1, 1), ((1, 1), (1, 1))),
    ("bna,ajb->jn", (0, 2), ((1, 2), (1, 2))),
    ("aamn->mn", (0, 2), ((1, 3),)),
    ("ab,a,b->", (0, 0), ((0, 2), (1, 0), (1, 0))),
)


def _unary_cases(dim, exact):
    """(name, valence, kernel, oracle on the entry list, keeps int entries)."""
    half = Fraction(1, 2) if exact else 0.5
    # on the float path an exact coefficient acts as its rounded float
    coeffs = ((3, -2, 0, Fraction(-5, 6), Fraction(7, 4), 0.5) if exact
              else (0.5, -0.25, Fraction(-5, 6), Fraction(1, 3)))
    for c in coeffs:
        k = c if exact else float(c)
        yield (f"scale {c}", (1, 2), lambda t, c=c: tc.scale(t, c),
               lambda d, k=k: [k * x for x in d], type(c) is int)
    yield ("delta_mix", (0, 2), tc.delta_mix,
           lambda d: _o_delta_mix(dim, d), True)
    yield ("delta_outer", (0, 2), tc.delta_outer,
           lambda d: _o_delta_outer(dim, d), True)
    for q in (1, 2):
        yield (f"delta_sym q={q}", (0, q), tc.delta_sym,
               lambda d, q=q: _o_delta_sym(dim, q, d), True)
    yield ("transpose_pair", (1, 2), lambda t: tc.transpose_pair(t, 1, 2),
           lambda d: _o_transpose(dim, 3, d, 1, 2), True)
    yield ("alternate", (0, 2), lambda t: tc.alternate(t, 0, 1),
           lambda d: [x - y for x, y in zip(d, _o_transpose(dim, 2, d, 0, 1))],
           True)
    yield ("sym_pair", (1, 2), lambda t: tc.sym_pair(t, 1, 2),
           lambda d: [half * (x + y)
                      for x, y in zip(d, _o_transpose(dim, 3, d, 1, 2))], False)
    yield ("contract", (1, 2), lambda t: tc.contract(t, 0, 1),
           lambda d: _o_ein("aja->j", dim, d), True)


def _binary_cases():
    yield "add", tc.add, lambda x, y: [u + v for u, v in zip(x, y)], True
    yield "sub", tc.sub, lambda x, y: [u - v for u, v in zip(x, y)], True


def _lincomb_cases(exact):
    """Coefficients of one, two and five lincomb rows."""
    yield from ((c,) for c in (1, -1, 0, 3, Fraction(-5, 6)))
    yield from ((1, c) for c in ((1, -3, Fraction(-5, 6), Fraction(7, 4), -0.25)
                                 if exact else (0.5, Fraction(-5, 6), Fraction(1, 3))))
    yield from ((0, 1), (-1, -1), (Fraction(1, 2), Fraction(1, 2)))
    yield (1, -1, 0, Fraction(7, 4), 3)
    yield (Fraction(-5, 6), 1, -1, 0, Fraction(1, 3))
    yield (2, -1, 1, 0, -3)


def _o_lincomb(cs, datas):
    """The rows summed left to right in plain Python, as lincomb states its
    list path: where a float goes in, a Fraction coefficient is its float."""
    floats = any(type(x) is float for d in (cs, *datas) for x in d)
    out = None
    for c, d in zip(cs, datas):
        if floats and type(c) is Fraction:
            c = float(c)
        if out is None:
            out = list(d) if c == 1 else [c * x for x in d]
        elif c == 1:
            out = [x + y for x, y in zip(out, d)]
        elif c == -1:
            out = [x - y for x, y in zip(out, d)]
        else:
            out = [x + c * y for x, y in zip(out, d)]
    return out


def _check_result(got, want, ints, what):
    if any(isinstance(x, float) for x in want):  # the untouched list path
        assert [(type(x), repr(x)) for x in got.data] == \
            [(type(x), repr(x)) for x in want], what
        return
    assert got.data == want, what
    assert tc._exact(got), what
    nums, den = got._nums, got._den
    assert den > 0 and math.gcd(den, *nums) == 1, what
    assert [Fraction(n, den) for n in nums] == want, what
    assert {type(x) for x in got.data} == ({int} if ints else {Fraction}), what
    assert got == Tensor(got.dim, got.valence, list(want)), what
    assert got.is_zero() == all(x == 0 for x in want), what
    assert got.max_abs() == max(abs(x) for x in want), what


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_scaled_kernels_match_a_fraction_oracle(dim):
    rng = random.Random(71 + dim)

    def draw(valence, style):
        data = _entries(rng, dim ** sum(valence), style)
        return Tensor(dim, valence, data), data

    def all_int(*datas):
        return all(type(x) is int for d in datas for x in d)

    pairs = [(s, u) for s in STYLES for u in STYLES]
    pairs += [("float", "float"), ("den16", "float"), ("float", "int"),
              ("float", "zero")]
    for n, (sa, sb) in enumerate(pairs):
        exact = "float" not in (sa, sb)
        for name, kernel, oracle, keeps_int in _binary_cases():
            a, da = draw((1, 2), sa)
            b, db = draw((1, 2), sb)
            _check_result(kernel(a, b), oracle(da, db),
                          all_int(da, db) and keeps_int, (name, sa, sb))
        for cs in _lincomb_cases(exact):  # rows alternate the two styles
            rows = [draw((1, 1), (sa, sb)[k % 2]) for k in range(len(cs))]
            datas = [d for _, d in rows]
            _check_result(tc.lincomb([(c, t) for c, (t, _) in zip(cs, rows)]),
                          _o_lincomb(cs, datas),
                          all_int(*datas) and all(type(c) is int for c in cs),
                          ("lincomb", cs, sa, sb))
        a, da = draw((1, 2), sa)
        b, db = draw((1, 2), sb)
        want = max(abs(x - y) for x, y in zip(da, db))
        got = tc.max_abs_diff(a, b)
        assert got == want and repr(float(got)) == repr(float(want))
        assert (a == b) == (da == db)
        assert a == Tensor(dim, (1, 2), list(da))
        a, da = draw((1, 1), sa)
        b, db = draw((0, 1), sb)
        _check_result(tc.outer(a, b), _o_ein("ij,k->ijk", dim, da, db),
                      all_int(da, db), ("outer", sa, sb))
        for expr, valence, operand_valences in EIN_CASES:
            if dim == 5 and expr == EIN_CASES[0][0] and n % 5:
                continue  # its N^5-term oracle is slow: every fifth pair will do
            ops = [draw(v, (sa, sb)[k % 2]) for k, v in enumerate(operand_valences)]
            datas = [d for _, d in ops]
            _check_result(tc.ein(expr, valence, *(t for t, _ in ops)),
                          _o_ein(expr, dim, *datas), all_int(*datas),
                          (expr, sa, sb))
    # the operands pick the path, not the mode: an exact coefficient on
    # all-exact operands stays exact (no float, so no -0.0), as in float mode
    c = Fraction(-1, 3)
    for t in (tc.zeros(dim, (1, 1)), tc.delta(dim)):
        want = [c * x for x in t.data]
        _check_result(tc.scale(t, c), want, False, ("scale exact", c))
        _check_result(tc.lincomb(((1, tc.zeros(dim, (1, 1))), (c, t))), want,
                      False, ("lincomb exact", c))
    for style in STYLES + ("float", "float+int"):
        for name, valence, kernel, oracle, keeps_int in _unary_cases(
                dim, not style.startswith("float")):
            t, d = draw(valence, style)
            _check_result(kernel(t), oracle(d), all_int(d) and keeps_int,
                          (name, style))


class _Frac(Fraction):
    """Exact, but not a type the kind scan knows: tensors of it take the
    list kernels of the other-scalar kind, as polynomial scalars do."""


@pytest.mark.parametrize("dim", [2, 3])
def test_other_scalar_kind_matches_plain_fractions(dim):
    rng = random.Random(97 + dim)
    a, b = random_tensor(rng, dim, (1, 2)), random_tensor(rng, dim, (1, 2))
    y = random_tensor(rng, dim, (0, 2))

    def other(t):
        return Tensor(t.dim, t.valence, [_Frac(x) for x in t.data])

    assert tc._kind(other(a)) is tc._OTHER
    kernels = {
        "ein": lambda a, b, y: tc.ein("ajm,ian->ijmn", (1, 3), a, b),
        "add": lambda a, b, y: tc.add(a, b),
        "scale": lambda a, b, y: tc.scale(a, Fraction(-5, 6)),
        "transpose_pair": lambda a, b, y: tc.transpose_pair(a, 1, 2),
        "delta_mix": lambda a, b, y: tc.delta_mix(y),
    }
    for name, kernel in kernels.items():
        want = kernel(a, b, y).data
        assert kernel(other(a), other(b), other(y)).data == want, name
        assert kernel(other(a), b, other(y)).data == want, name


# The generated ein kernels by shape: more summands than one pass takes
# (4096 for abcdef at dim 4; 129 for "a->" at dim 129, whose last pass adds
# a single offset), rank-0 outputs, and a four-operand product with summed
# letters, which runs the generic kernel on every operand kind.
KERNEL_CASES = (
    ("abcdef,abcdef->", (0, 0), ((0, 6), (0, 6)), (4,)),
    ("a->", (0, 0), ((1, 0),), (129,)),
    ("jm,an,a,i->ijmn", (1, 3), ((0, 2), (0, 2), (1, 0), (1, 0)), (2, 3, 4, 5)),
)


@pytest.mark.parametrize("style", ["den7", "int", "mixed", "float", "other"])
@pytest.mark.parametrize("expr, valence, operand_valences, dims", KERNEL_CASES)
def test_ein_kernel_shapes_match_the_oracle(expr, valence, operand_valences,
                                            dims, style):
    rng = random.Random(f"{expr}:{style}")
    for dim in dims:
        datas = [_entries(rng, dim ** sum(v), "den7" if style == "other" else style)
                 for v in operand_valences]
        if style == "other":
            datas = [[_Frac(x) for x in d] for d in datas]
        ops = [Tensor(dim, v, d) for v, d in zip(operand_valences, datas)]
        if style == "other":
            assert {tc._kind(t) for t in ops} == {tc._OTHER}
        _check_result(tc.ein(expr, valence, *ops), _o_ein(expr, dim, *datas),
                      all(type(x) is int for d in datas for x in d),
                      (expr, dim, style))
    ins, out = expr.split("->")
    if not out:  # the rank-0 cases are the ones past one pass
        assert dims[0] ** len(set(ins) - {","}) > tc.KERNEL_TERMS


@pytest.mark.parametrize("data", [
    [3, -1, 0, 2],
    [Fraction(1, 2), Fraction(-3, 4), 0, 1],
    [Fraction(4, 2), Fraction(-3), 0, 1],  # Fraction entries with den 1
], ids=["int", "fraction", "fraction-den-1"])
def test_equal_exact_tensors_differ_by_a_zero_of_the_diff_type(data):
    # equal scaled forms skip the entrywise diff; the 0 keeps the type the
    # diff gives: int when every input is all-int, else Fraction
    want = int if {type(x) for x in data} == {int} else Fraction
    a = Tensor(2, (0, 2), data)
    for b in (Tensor(2, (0, 2), list(data)),
              Tensor(2, (0, 2), [Fraction(x) for x in data])):
        kind = want if tc._kind(b) is tc._INT else Fraction
        got = tc.max_abs_diff(a, b)
        assert got == 0 and type(got) is kind
        close, d, scale = tc.RATIONAL.measure(a, b)
        assert (close, d, scale) == (True, 0, None) and type(d) is kind
    c = Tensor(2, (0, 2), [data[0] + Fraction(1, 3)] + data[1:])
    assert tc.max_abs_diff(a, c) == Fraction(1, 3)
    assert tc.RATIONAL.measure(c, a) == (False, Fraction(1, 3), None)



@pytest.mark.parametrize("dens", [(1, 1), (3, 3), (1, 3), (12, 4), (16, 3)],
                         ids=["int", "same-den", "a-on-common", "b-on-common",
                              "both-scaled"])
def test_max_abs_diff_of_unequal_tensors_keeps_the_diff_type(dens):
    # the numerator map chain gives the entrywise maximum as an int when
    # both tensors are all-int, else as a Fraction over the common den
    rng = random.Random(str(dens))
    a, b = ([Fraction(rng.randint(-40, 40), d) if d > 1 else rng.randint(-40, 40)
             for _ in range(27)] for d in dens)
    if dens != (1, 1):  # entries that keep each tensor's den
        a[0], b[0] = Fraction(1, dens[0]), Fraction(-1, dens[1])
    ta, tb = Tensor(3, (1, 2), a), Tensor(3, (1, 2), b)
    tc._kind(ta), tc._kind(tb)
    assert (ta._den, tb._den) == dens
    got = tc.max_abs_diff(ta, tb)
    assert got == max(abs(x - y) for x, y in zip(a, b))
    assert type(got) is (int if dens == (1, 1) else Fraction)

# ---------------------------------------------------------------- exact kernels
#
# On exact operands an outer product (a permutation included) is a product
# and a gather, and a large two-operand contraction runs packed (see
# tensor_core's "Minimal einsum").  Each must give the generic kernel's
# numerators entry for entry, and run exactly where the shape and the
# per-call bit bound allow; every other operand kind keeps the generic
# kernel.


@functools.lru_cache(maxsize=None)
def _package_subscripts():
    """{(subscripts, operand valences): output valence} of every ein call the
    package makes on a general (all flags), a geodesic and an agm3 instance."""
    from geoinv import agm, cli
    from geoinv.mappings import generate, generate_agm3

    seen, ein = {}, tc.ein

    def record(expr, valence, *tensors):
        seen.setdefault((expr, tuple(t.valence for t in tensors)), valence)
        return ein(expr, valence, *tensors)
    tc.ein = record
    try:
        cli.pair_invariants(generate(2, 0, (1, 1, 1), "general", "rational"))
        cli.pair_invariants(generate(2, 0, (1, 0, 0), "geodesic", "rational"))
        ins = generate_agm3(2, 0, 1, "rational")
        cli.pair_invariants(ins)
        agm.agm_diagnostics(ins.source_fields())
    finally:
        tc.ein = ein
    return seen


def _takes_exact_kernel(expr, dim):
    """The shape rule, restated: no letter repeated inside an operand, and
    an outer product (no summed letter, no letter in two operands; one
    operand: a permutation), or a two-operand contraction of at least
    PACKED_MADDS multiply-adds with a summed letter, an output letter in each
    operand, and no letter shared by both operands and the output."""
    ins, out = expr.split("->")
    ops = ins.split(",")
    letters = set(ins) - {","}
    if any(len(set(s)) < len(s) for s in ops):
        return False
    if letters == set(out):
        return sum(map(len, ops)) == len(out)
    return (len(ops) == 2 and all(set(s) & set(out) for s in ops)
            and not set(ops[0]) & set(ops[1]) & set(out)
            and dim ** len(letters) >= tc.PACKED_MADDS)


def _exact_operand(rng, dim, valence, kind, mag):
    """Zeros, negatives and the extreme numerator +-mag; over 1, 3 or 16."""
    n = dim ** sum(valence)
    nums = [rng.choice((0, rng.randint(-mag, mag))) for _ in range(n)]
    nums[rng.randrange(n)] = rng.choice((mag, -mag))
    if kind == "int":
        return Tensor(dim, valence, nums)
    return Tensor(dim, valence, [Fraction(x, rng.choice((1, 3, 16))) for x in nums])


def _check_exact_ein(expr, out_valence, ops):
    """ein against the generic kernel on the same numerators; returns the
    (fast, fallbacks) counts the call added."""
    cache, dim = tc._PLAN_CACHE, ops[0].dim
    assert all(tc._kind(t) in tc._EXACT_KINDS for t in ops)
    plan = cache.plan(expr, dim, tuple(t.rank for t in ops))
    want = tc._from_scaled(dim, out_valence, plan.kernel(*[t._nums for t in ops]),
                           math.prod(t._den for t in ops),
                           all(t._kind is tc._INT for t in ops))
    fast, fallbacks = cache.fast, cache.fallbacks
    got = tc.ein(expr, out_valence, *ops)
    assert (got._nums, got._den, got._kind) == (want._nums, want._den, want._kind), expr
    return cache.fast - fast, cache.fallbacks - fallbacks


_MAGNITUDES = (9, 2**20, 2**31, 2**40)


@given(dim=st.integers(1, 6), kind=st.sampled_from(["int", "fraction"]),
       mags=st.tuples(st.sampled_from(_MAGNITUDES), st.sampled_from(_MAGNITUDES)),
       seed=st.integers(0, 2**32))
def test_exact_kernels_match_the_generic_kernel(dim, kind, mags, seed):
    # every subscript the package builds; an outer product counts one fast
    # call
    rng = random.Random(seed)
    for (expr, valences), out_valence in _package_subscripts().items():
        ops = [_exact_operand(rng, dim, v, kind, m)
               for v, m in zip(valences, itertools.cycle(mags))]
        moved = _check_exact_ein(expr, out_valence, ops)
        ins, out = expr.split("->")
        if not _takes_exact_kernel(expr, dim):
            assert moved == (0, 0), expr
        elif set(ins) - {","} == set(out):
            assert moved == (1, 0), expr
        else:
            terms = dim ** len(set(ins) - set(out) - {","})
            bits = sum(max(map(abs, t._nums)).bit_length() for t in ops)
            fits = bits + terms.bit_length() <= 63
            assert moved == ((1, 0) if fits else (0, 1)), (expr, bits)


def test_the_package_builds_outer_products_and_no_chains():
    # so the test above covers the outer-product kernel at every dim it
    # draws, and every einsum of three or more operands is an outer product:
    # none sums a letter
    outer = 0
    for expr, valences in _package_subscripts():
        ins, out = expr.split("->")
        if len(valences) > 2:
            assert set(ins) - {","} == set(out), expr
        outer += _takes_exact_kernel(expr, 1) and len(valences) > 1
    assert outer >= 10


@pytest.mark.parametrize("over", [0, 1], ids=["at-the-bound", "one-bit-over"])
def test_packed_slots_hold_sums_up_to_the_bound(over):
    # 30 + 30 + bits(5 summands) = 63: every output entry is
    # +-5 * (2**30 - 1)**2, past 2**62, in both signs; one more bit falls back
    dim, big = 5, 2**30 - 1
    a = Tensor(dim, (1, 2), [-big] * dim**3)
    b = Tensor(dim, (1, 2), [(2**(30 + over) - 1) * (-1) ** (j + k)
                             for e, j, k in itertools.product(range(dim), repeat=3)])
    got = tc.ein("aed,ebc->abcd", (1, 3), a, b)
    assert {abs(x) for x in got.data} == {5 * big * (2**(30 + over) - 1)}
    assert _check_exact_ein("aed,ebc->abcd", (1, 3), [a, b]) == (
        (1, 0) if over == 0 else (0, 1))


@given(data=st.data(), batch=st.booleans())
def test_batch_and_repeated_letters_take_the_generic_kernel(data, batch):
    # generated two-operand subscripts of 625 multiply-adds at N = 5, each
    # with a summed letter and an output letter in each operand, that share
    # a letter between both operands and the output, or repeat one inside
    # an operand
    s, t, u, v = data.draw(st.permutations("abcd"))
    a, b = (s + t + u, s + t + v) if batch else (s + t + t + u, s + v)
    a, b, out = ("".join(data.draw(st.permutations(x))) for x in (a, b, t + u + v))
    expr = f"{a},{b}->{out}"
    assert not _takes_exact_kernel(expr, 5)
    rng = random.Random(expr)
    ops = [_exact_operand(rng, 5, (0, len(x)), "int", 9) for x in (a, b)]
    assert _check_exact_ein(expr, (0, 3), ops) == (0, 0)
    plan = tc._PLAN_CACHE.plan(expr, 5, (len(a), len(b)))
    assert plan.exact is plan.kernel


def test_float_and_other_scalars_keep_the_generic_kernel():
    # float operands (signed zeros included) give the generic kernel's bits
    # and polynomial scalars the oracle's sums; neither takes an exact kernel
    rng = random.Random(89)
    cache = tc._PLAN_CACHE
    counts = cache.fast, cache.fallbacks
    for (expr, valences), out_valence in _package_subscripts().items():
        for dim in (2, 5):
            datas = [_entries(rng, dim ** sum(v), "float") for v in valences]
            want = cache.plan(expr, dim, tuple(map(sum, valences))).kernel(*datas)
            got = tc.ein(expr, out_valence,
                         *[Tensor(dim, v, d) for v, d in zip(valences, datas)])
            assert [repr(x) for x in got.data] == [repr(x) for x in want], expr
        if expr in ("aed,ebc->abcd", "ajm,ian->ijmn", "abcd->acbd", "ab->ba"):
            datas = [[random_poly(rng, 2) for _ in range(2 ** sum(v))] for v in valences]
            got = tc.ein(expr, out_valence,
                         *[Tensor(2, v, d) for v, d in zip(valences, datas)])
            assert tc._kind(got) is tc._OTHER
            assert [x.terms for x in got.data] == [
                x.terms for x in _o_ein(expr, 2, *datas)], expr
    assert (cache.fast, cache.fallbacks) == counts


def test_a_float_operand_keeps_the_generic_kernel():
    # one float operand among exact ones takes a two- and a three-operand
    # outer product down the generic kernel: the exact kernels' bare product
    # x*y would keep a -0.0 that the generic kernel's 0 + x*y turns into 0.0
    cache = tc._PLAN_CACHE
    rng = random.Random(101)
    for expr, valences, out_valence in (
            ("ab,cd->abcd", ((1, 1), (0, 2)), (1, 3)),
            ("jm,n,i->ijmn", ((0, 2), (0, 1), (1, 0)), (1, 3))):
        datas = [[Fraction(rng.randint(1, 9), 4) for _ in range(3 ** sum(v))]
                 for v in valences]
        datas[0][0] = -0.0
        ops = [Tensor(3, v, d) for v, d in zip(valences, datas)]
        assert [tc._kind(t) for t in ops][:2] == [tc._FLOAT, tc._FRACTION]
        want = cache.plan(expr, 3, tuple(map(sum, valences))).kernel(*datas)
        fast = cache.fast
        got = tc.ein(expr, out_valence, *ops)
        assert cache.fast == fast
        assert [repr(x) for x in got.data] == [repr(x) for x in want], expr
        assert repr(got.data[0]) == "0.0" and repr(-0.0 * datas[1][0]) == "-0.0"


def test_exact_transpose_keeps_the_operand_denominator(monkeypatch):
    # a gathered permutation is built on the operand's den, with no gcd
    rng = random.Random(97)
    data = [Fraction(1, 48)] + [
        Fraction(rng.randint(-60, 60), rng.choice((1, 3, 16, 48))) for _ in range(255)]
    t = Tensor(4, (1, 3), data)
    assert tc._kind(t) is tc._FRACTION and t._den == 48
    fast = tc._PLAN_CACHE.fast
    monkeypatch.setattr(tc, "gcd", None)  # any normalisation would raise
    for a, b in ((2, 3), (1, 2), (1, 3)):
        got = tc.transpose_pair(t, a, b)
        assert got._den == 48 and tc._kind(got) is tc._FRACTION
        assert got.data == _o_transpose(4, 4, data, a, b)
    ints = Tensor(4, (1, 3), [rng.randint(-9, 9) for _ in data])
    got = tc.transpose_pair(ints, 2, 3)
    assert got._den == 1 and got.data == _o_transpose(4, 4, ints.data, 2, 3)
    assert {type(x) for x in got.data} == {int}
    assert tc._PLAN_CACHE.fast == fast + 4


CD_QUAD = ("ajm,ian->ijmn", "aed,ebc->abcd", "ebd,aec->abcd", "ecd,abe->abcd")


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_pair_invariants_packs_the_cd_and_quad_contractions(monkeypatch, mode):
    from geoinv import cli
    from geoinv.mappings import generate

    ins = generate(5, 0, (1, 1, 1), "general", mode)
    cache, ein, moved = tc._PLAN_CACHE, tc.ein, {}

    def counting(expr, valence, *tensors):
        fast = cache.fast
        out = ein(expr, valence, *tensors)
        moved.setdefault(expr, set()).add(cache.fast - fast)
        return out
    counts = cache.fast, cache.fallbacks
    monkeypatch.setattr(tc, "ein", counting)
    cli.pair_invariants(ins)
    assert cache.fallbacks == counts[1]
    if mode == "rational":
        # exact sides build R, R_B and the basic form each as the curvature
        # of one connection, so no covariant derivative's connection term runs
        assert {e: moved.get(e) for e in CD_QUAD} == {
            "ajm,ian->ijmn": {1}, **dict.fromkeys(CD_QUAD[1:])}
    else:
        assert cache.fast == counts[0]


# ---------------------------------------------------------------- structural kernels
# transpose_pair, alternate, sym_pair and the delta blocks run on cached
# per-shape subscripts, swap plans and write offsets.  The references below
# are the kernels as they were built before those caches: the swap spelled
# out as subscripts and run through ein, alternate and sym_pair as lincombs
# of t and that swap, and the delta blocks as their index loops.  Each kernel
# must give the reference's kind, denominator, numerators and int entries on
# exact input, and its bits (signed zeros included) on floats and polynomials.


def _ref_transpose(t, a, b):
    src = tc._letters(t.rank, 0)
    out = list(src)
    out[a], out[b] = out[b], out[a]
    return tc.ein(f"{src}->{''.join(out)}", t.valence, t)


def _ref_alternate(t, a, b):
    return tc.sub(t, _ref_transpose(t, a, b))


def _ref_sym_pair(t, a, b, factor_free=False):
    h = 1 if factor_free else Fraction(1, 2)
    return tc.lincomb(((h, t), (h, _ref_transpose(t, a, b))))


def _ref_block_result(t, k, valence, out):
    if k in tc._EXACT_KINDS:
        return tc._from_scaled(t.dim, valence, out, t._den, k is tc._INT)
    return tc._new(t.dim, valence, out, k)


def _ref_delta_mix(Y):
    (kind, y), N, out = tc._entries(Y), Y.dim, [0] * Y.dim**4
    for i, j, k in itertools.product(range(N), repeat=3):
        out[((i * N + j) * N + i) * N + k] += y[j * N + k]
    for i, j, k in itertools.product(range(N), repeat=3):
        out[((i * N + j) * N + k) * N + i] -= y[j * N + k]
    return _ref_block_result(Y, kind, (1, 3), out)


def _ref_delta_outer(Y):
    (kind, y), N, out = tc._entries(Y), Y.dim, [0] * Y.dim**4
    for i, k in itertools.product(range(N), range(N * N)):
        out[(i * N + i) * N * N + k] += y[k]
    return _ref_block_result(Y, kind, (1, 3), out)


def _ref_delta_sym(t):
    N = t.dim
    M = N ** (t.q - 1)
    kind, d = tc._entries(t)
    out = [0] * (N * N * len(d))
    for i, k in itertools.product(range(N), range(N * M)):
        out[(i * N + i) * N * M + k] += d[k]
    for i, j, r in itertools.product(range(N), range(N), range(M)):
        out[((i * N + j) * N + i) * M + r] += d[j * M + r]
    return _ref_block_result(t, kind, (1, t.q + 1), out)


def _structural_operand(rng, dim, valence, scalar):
    """Exact entries over mixed denominators (or ints), floats that are
    mostly signed zeros, or polynomials."""
    n = dim ** sum(valence)
    if scalar == "fraction":
        data = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 16))) for _ in range(n)]
        data[0] = Fraction(1, 48)  # den 48 before any normalisation
    elif scalar == "int":
        data = [rng.randint(-9, 9) for _ in range(n)]
    elif scalar == "float":
        data = [rng.choice((-0.0, -0.0, 0.0, rng.randint(-8, 8) / 4)) for _ in range(n)]
    else:
        data = [random_poly(rng, 2) for _ in range(n)]
    return Tensor(dim, valence, data)


def _same_result(got, want, what):
    """The exact form, kind and int entries, or the list path's entries and
    kind mark; reprs for floats, terms for polynomials."""
    assert got.valence == want.valence, what
    marks = got._kind, want._kind  # as built, before a scan sets them
    if tc._kind(want) in tc._EXACT_KINDS:
        assert (tc._kind(got), got._den, got._nums) == (
            tc._kind(want), want._den, want._nums), what
        assert [type(x) for x in got.data] == [type(x) for x in want.data], what
        return
    assert marks[0] == marks[1], what
    shown = [getattr(x, "terms", repr(x)) for x in got.data]
    assert shown == [getattr(x, "terms", repr(x)) for x in want.data], what


def _pair_kernels(scalar):
    yield "transpose_pair", tc.transpose_pair, _ref_transpose
    yield "sym_pair plain", functools.partial(tc.sym_pair, factor_free=True), \
        functools.partial(_ref_sym_pair, factor_free=True)
    if scalar != "poly":  # polynomials have no halves in _poly
        yield "alternate", tc.alternate, _ref_alternate
        yield "sym_pair", tc.sym_pair, _ref_sym_pair


def _valences(ranks):
    return [(p, r - p) for r in ranks for p in range(r + 1)]


@pytest.mark.parametrize("dim, scalar", [
    *itertools.product([2, 3, 4, 5], ["fraction", "int", "float"]),
    (2, "poly"),  # a slow scalar: N = 2 only
])
def test_structural_kernels_match_their_references(dim, scalar):
    rng = random.Random(f"{dim} {scalar}")
    for valence in _valences((2, 3, 4)):
        t = _structural_operand(rng, dim, valence, scalar)
        p, r = valence[0], sum(valence)
        pairs = [(a, b) for a in range(r) for b in range(r)
                 if a != b and (a < p) == (b < p)]
        for a, b in pairs:
            for name, kernel, ref in _pair_kernels(scalar):
                _same_result(kernel(t, a, b), ref(t, a, b), (name, valence, a, b))
    for q in (1, 2, 3):
        t = _structural_operand(rng, dim, (0, q), scalar)
        blocks = [("delta_sym", tc.delta_sym, _ref_delta_sym)]
        if q == 2:
            blocks += [("delta_mix", tc.delta_mix, _ref_delta_mix),
                       ("delta_outer", tc.delta_outer, _ref_delta_outer)]
        for name, kernel, ref in blocks:
            _same_result(kernel(t), ref(t), (name, q))


def test_a_float_swap_adds_each_entry_onto_zero():
    # the swap's 0 + x turns -0.0 into 0.0, on the diagonal too: without it
    # these alternations and sums would keep a -0.0 the references drop
    t = Tensor(2, (0, 2), [-0.0] * 4)
    assert [repr(x) for x in tc.transpose_pair(t, 0, 1).data] == ["0.0"] * 4
    assert [repr(x) for x in tc.alternate(t, 0, 1).data] == ["-0.0"] * 4
    assert [repr(x) for x in tc.sym_pair(t, 0, 1, True).data] == ["0.0"] * 4
    assert [repr(x) for x in tc.sym_pair(t, 0, 1).data] == ["0.0"] * 4


# ---------------------------------------------------------------- alternate_sum
# alternate_sum(rows, a, b) is the sum of c * alternate(t, a, b) over rows
# (c, t).


def _ref_alternate_sum(rows, a, b):
    return tc.lincomb([(c, _ref_alternate(t, a, b)) for c, t in rows])


def _alternate_sum_cases(rng, dim, scalar):
    """(rows, whether every operand and coefficient is exact), alternated
    over (2, 3): int and Fraction coefficients, a Fraction carried by one
    row alone, a single row, and rows symmetric in the pair (a connection
    term against a symmetric lower pair, and an outer product with a
    symmetric factor)."""
    def op(valence):
        return _structural_operand(rng, dim, valence, scalar)
    X, Y, v, u = op((1, 3)), op((1, 3)), op((1, 2)), op((1, 1))
    g = tc.sym_pair(op((1, 2)), 1, 2, factor_free=True)
    s = tc.sym_pair(op((0, 2)), 0, 1, factor_free=True)
    conn = tc.ein("ecd,abe->abcd", (1, 3), g, v)
    outer = tc.ein("ab,cd->abcd", (1, 3), u, s)
    F, exact = Fraction, scalar in ("int", "fraction")
    yield ((1, X), (-1, conn), (-1, Y)), exact
    yield ((F(-2, 3), Y), (F(1, 2), outer), (-1, X), (2, conn)), exact
    yield ((1, X), (F(2), conn)), exact
    yield ((-1, conn),), exact
    yield ((F(1, 2), outer), (1, conn)), exact
    if scalar != "poly":  # a float coefficient sends exact operands down the list path
        yield ((0.5, X), (1, conn), (1, Y)), False


@pytest.mark.parametrize("dim, scalar", [
    *itertools.product([2, 3, 4, 5], ["int", "fraction", "float"]),
    (2, "poly"), (3, "poly"),  # a slow scalar: 1.7 s at N = 3
])
def test_alternate_sum_matches_its_definition(monkeypatch, dim, scalar):
    rng = random.Random(f"alternate_sum {dim} {scalar}")
    calls = []
    alternate = tc.alternate
    monkeypatch.setattr(tc, "alternate", lambda *args: calls.append(1) or alternate(*args))
    for n, (rows, exact) in enumerate(_alternate_sum_cases(rng, dim, scalar)):
        want = _ref_alternate_sum(rows, 2, 3)
        start = len(calls)
        got = tc.alternate_sum(rows, 2, 3)
        # the exact path alternates once; the list path once per row
        assert len(calls) - start == (1 if exact else len(rows)), n
        _same_result(got, want, n)


def test_structural_caches_are_bounded():
    from geoinv import jet

    for cache in (tc._swap, tc._trace, tc._block_plan, jet._connection_terms):
        assert cache.cache_info().maxsize is not None, cache
