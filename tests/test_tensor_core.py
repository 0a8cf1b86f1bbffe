"""Dense rational/float tensor kernel: loop-free ops vs explicit loop oracles."""

import ast
import itertools
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geoinv import tensor_core as tc
from geoinv.tensor_core import IndexKindError, ShapeError, Tensor

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


def test_add_scaled_matches_add_of_scale():
    rng = random.Random(31)
    a = random_tensor(rng, 3, (1, 2))
    b = random_tensor(rng, 3, (1, 2))
    c = Fraction(-5, 3)
    assert tc.add_scaled(a, c, b).data == tc.add(a, tc.scale(b, c)).data


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


def test_domain_of_infers_the_mode_from_entries():
    assert tc.domain_of(tc.delta(3)) is tc.RATIONAL  # all-int counts as exact
    assert tc.domain_of(Tensor(2, (0, 1), [Fraction(1, 2), 0])) is tc.RATIONAL
    assert tc.domain_of(Tensor(2, (0, 1), [0, -0.0])) is tc.FLOAT
    half_sum = tc.sym_pair(Tensor(2, (0, 2), [1, 2, 0, 1]), 0, 1)
    assert half_sum.data == [1, 1, 1, 1]
    assert all(type(x) is Fraction for x in half_sum.data)


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
    from geoinv.mappings import _solve

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


def test_mode_dispatch_lives_in_tensor_core():
    # Mode-specific arithmetic belongs to tc.Domain; no other module may
    # branch on a mode string, sniff for floats, or bring back the helpers
    # the domain replaced.
    pattern = re.compile(
        r"""(==|!=)\s*["'](rational|float)["']"""
        r"""|["'](rational|float)["']\s*(==|!=)"""
        r"""|\bmode\s*(==|!=)"""
        r"""|isinstance\([^)]*\bfloat\b"""
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


def _binary_cases(exact):
    coeffs = ((1, -3, Fraction(-5, 6), Fraction(7, 4), -0.25) if exact
              else (0.5, Fraction(-5, 6), Fraction(1, 3)))
    yield "add", tc.add, lambda x, y: [u + v for u, v in zip(x, y)], True
    yield "sub", tc.sub, lambda x, y: [u - v for u, v in zip(x, y)], True
    for c in coeffs:
        k = c if exact else float(c)
        yield (f"add_scaled {c}", lambda a, b, c=c: tc.add_scaled(a, c, b),
               lambda x, y, k=k: [u + k * v for u, v in zip(x, y)],
               type(c) is int)


def _check_result(got, want, ints, what):
    if any(isinstance(x, float) for x in want):  # the untouched list path
        assert [(type(x), repr(x)) for x in got.data] == \
            [(type(x), repr(x)) for x in want], what
        assert tc.domain_of(got) is tc.FLOAT, what
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
        for name, kernel, oracle, keeps_int in _binary_cases(exact):
            a, da = draw((1, 2), sa)
            b, db = draw((1, 2), sb)
            _check_result(kernel(a, b), oracle(da, db),
                          all_int(da, db) and keeps_int, (name, sa, sb))
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
        _check_result(tc.add_scaled(tc.zeros(dim, (1, 1)), c, t), want, False,
                      ("add_scaled exact", c))
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
# a single offset), rank-0 outputs, and agm's four-operand product.
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
