"""Third-type almost-geodesic family: closed forms, diagnostics, decomposition.

The per-term diagnostic pattern is frozen below.  Rows whose expected status
is "mismatch" may legitimately report "match" on instances whose scalar
parameter happens to be zero — the discrepant terms all carry that factor —
so the comparison allows exactly that degeneracy and nothing else.
"""

import collections
import functools
from fractions import Fraction

import pytest

from geoinv import agm, invariants as inv, tensor_core as tc
from geoinv.cli import pair_invariants
from geoinv.jet import zero_jet
from geoinv.mappings import AGMData, SpaceFields, generate, generate_agm3

EXPECT = {
    ("deform", "mu"): "mismatch",
    ("deform", "cd"): "mismatch",
    ("deform", "quad"): "match",
    ("deform", "nutor"): "mismatch",
    ("deform", "total-vs-pipeline"): "match",
    ("trace-derivative", "full"): "match",
    ("trace-completion", "full"): "match",
    ("basic", "curvature"): "match",
    ("basic", "deform-mu"): "mismatch",
    ("basic", "deform-cd"): "mismatch",
    ("basic", "deform-quad"): "match",
    ("basic", "deform-nutor"): "mismatch",
    ("basic", "trace-theta"): "match",
    ("basic", "trace-cd"): "match",
    ("basic", "trace-nu"): "match",
    ("basic", "trace-tor"): "match",
    ("basic", "trace-scalar"): "match",
    ("basic", "trace-outer"): "match",
    ("basic", "total-vs-pipeline"): "match",
    ("fourth", "curvature"): "match",
    ("fourth", "ricci"): "mismatch",
    ("fourth", "deform-mu"): "match",
    ("fourth", "deform-cd"): "mismatch",
    ("fourth", "deform-quad"): "match",
    ("fourth", "deform-nutor"): "mismatch",
    ("fourth", "trace-cd"): "mismatch",
    ("fourth", "trace-scalar-quad"): "match",
    ("fourth", "trace-scalar-nu"): "mismatch",
    ("fourth", "trace-scalar-tor"): "mismatch",
    ("fourth", "trace-outer-quad"): "match",
    ("fourth", "trace-outer-nu"): "mismatch",
    ("fourth", "trace-outer-tor"): "mismatch",
    ("fourth", "total-vs-pipeline"): "match",
    ("first", "curvature"): "match",
    ("first", "trace-theta"): "match",
    ("first", "trace-cd"): "match",
    ("first", "trace-nu"): "match",
    ("first", "trace-tor"): "match",
    ("first", "deform-mu"): "mismatch",
    ("first", "deform-cd"): "mismatch",
    ("first", "deform-quad"): "match",
    ("first", "deform-nutor"): "mismatch",
    ("first", "over-cd"): "mismatch",
    ("first", "over-quad"): "mismatch",
    ("first", "over-nutor"): "mismatch",
    ("first", "total-vs-pipeline"): "match",
    ("split", "first-vs-pipeline"): "match",
    ("split", "fourth-vs-pipeline"): "match",
    ("split", "first-display-vs-pipeline"): "match",
    ("split", "trace-identity"): "match",
    ("split", "first-display-published"): "mismatch",
}

DIMS = (3, 4)
SEEDS = (0, 1, 2)


@functools.lru_cache(maxsize=None)
def case(dim, seed, p):
    ins = generate_agm3(dim, seed, p, "rational")
    return ins, ins.source_fields(), ins.target_fields()


def all_cases():
    for dim in DIMS:
        for seed in SEEDS:
            for p in (1, 2):
                yield case(dim, seed, p)


# ------------------------------------------------------------- closed forms


def test_corrected_closed_forms_match_pipeline_on_both_sides():
    for ins, s, t in all_cases():
        for fl in (s, t):
            basic, fourth, first = agm.agm_basic(fl), agm.agm_fourth(fl), agm.agm_first(fl)
            key = (ins.dim, ins.seed, ins.p)
            assert tc.max_abs_diff(basic, inv.weyl_factored(fl)) == 0, key
            assert tc.max_abs_diff(fourth, inv.weyl_fourth(fl)) == 0, key
            assert tc.max_abs_diff(first, inv.weyl_first_display(fl)) == 0, key


def test_corrected_basic_and_fourth_forms_are_invariant():
    for _, s, t in all_cases():
        assert tc.max_abs_diff(agm.agm_basic(s), agm.agm_basic(t)) == 0
        assert tc.max_abs_diff(agm.agm_fourth(s), agm.agm_fourth(t)) == 0


def test_published_first_closed_form_is_not_invariant():
    # It reproduces the displayed first variant, which moves under the rule.
    moved = 0
    for _, s, t in all_cases():
        if tc.max_abs_diff(agm.agm_first(s), agm.agm_first(t)) != 0:
            moved += 1
        assert tc.max_abs_diff(agm.agm_first(s), inv.weyl_first_display(s)) == 0
    assert moved == sum(1 for _ in all_cases())


def test_pipeline_invariants_hold_on_family_instances():
    for ins, s, t in all_cases():
        for f in (
            inv.weyl_factored,
            inv.weyl_fourth,
            inv.weyl_first_over,
            inv.thomas_basic,
            inv.weyl_basic,
            inv.rho_skew,
        ):
            assert tc.max_abs_diff(f(s), f(t)) == 0, (ins.dim, ins.seed, ins.p, f.__name__)
        assert tc.max_abs_diff(s.space.skew_ricci, t.space.skew_ricci) == 0


def test_skew_rho_vanishes_identically_on_family():
    for _, s, t in all_cases():
        assert inv.rho_skew(s).is_zero()
        assert inv.rho_skew(t).is_zero()


# ------------------------------------------------------------------- tables

TABLE_SHAPES = [(N, eps) for N in (3, 4, 5, 6) for eps in (-1, 1)]


@pytest.mark.parametrize("N, eps", TABLE_SHAPES)
def test_tables_differ_exactly_on_the_mismatch_groups(N, eps):
    # a row's columns differ when its coefficients do, or when its part
    # reads the symmetrized cores (a sym_ part) in the corrected column
    differ = {(form, group)
              for form, rows in agm.tables(N, eps).items()
              for group, part, published, corrected in rows
              if published != corrected or part.startswith("sym_")}
    assert differ == {key for key, status in EXPECT.items()
                      if status == "mismatch" and key[0] != "split"}


def test_sym_parts_read_the_symmetrized_cores():
    for _, s, _ in all_cases():
        b = agm._blocks(s)
        parts = {part for rows in agm.tables(s.dim, b.eps).values()
                 for _, part, _, _ in rows}
        sym = {part for part in parts if part.startswith("sym_")}
        assert sym == {"sym_ricci", "sym_cd", "sym_w_nu", "sym_tor", "sym_nutor"}
        for part in sym:
            published = b.part(part.removeprefix("sym_"))
            assert tc.max_abs_diff(b.part(part), published) != 0, part


@pytest.mark.parametrize("N, eps", TABLE_SHAPES)
def test_basic_mu_coefficients_are_pinned(N, eps):
    rows = {group: (pub, cor) for group, _, pub, cor in agm.tables(N, eps)["basic"]}
    assert rows["deform-mu"] == (Fraction(-(N + 3), 4 * (N + 1)),
                                 Fraction(-(N + 2), 2 * (N + 1)))


@pytest.mark.parametrize("N, eps", TABLE_SHAPES)
def test_coefficients_invariance_cannot_see_are_pinned(N, eps):
    # a_quad, mix_s_quad and mix_w_w are invariant on their own, so no
    # invariance row can catch a wrong coefficient on them
    tables = agm.tables(N, eps)
    rows = {(form, group): (pub, cor)
            for form, table in tables.items() for group, _, pub, cor in table}
    quarter = (Fraction(1, 4),) * 2
    assert rows["deform", "quad"] == quarter
    for form in ("basic", "fourth", "first"):
        assert rows[form, "deform-quad"] == quarter
    assert rows["fourth", "trace-scalar-quad"] == (Fraction(1, 4 * (N - 1)),) * 2
    assert rows["fourth", "trace-outer-quad"] == (Fraction(-1, 4 * (N - 1)),) * 2


# -------------------------------------------------------------- diagnostics


def test_diagnostics_report_frozen_pattern():
    for ins, s, _ in all_cases():
        rows = agm.agm_diagnostics(s)
        got = {(r["section"], r["group"]): r["status"] for r in rows}
        assert set(got) == set(EXPECT), set(got) ^ set(EXPECT)
        for key, status in EXPECT.items():
            if got[key] != status:
                # only the mu == 0 degeneracy may flip a mismatch to a match
                assert status == "mismatch" and got[key] == "match", key
                assert s.agm.mu == 0, (key, s.agm.mu)


def test_diagnostics_rows_carry_residual_magnitudes():
    _, s, _ = case(3, 0, 1)
    for row in agm.agm_diagnostics(s):
        assert set(row) >= {"section", "group", "status", "max_abs"}
        if row["status"] == "match":
            assert row["max_abs"] == 0
        else:
            assert row["max_abs"] > 0


# Exact per-row residuals of the source-side diagnostics in rational mode;
# every row not listed is 0.  The statuses above cannot see a mistyped
# coefficient in either variant; these magnitudes can.
PINNED_RESIDUALS = {
    (3, 0, 1): {
        ("deform", "mu"): 0.0216064453125,
        ("deform", "cd"): 0.5453910827636719,
        ("deform", "nutor"): 0.4149627685546875,
        ("basic", "deform-mu"): 0.0216064453125,
        ("basic", "deform-cd"): 0.5453910827636719,
        ("basic", "deform-nutor"): 0.4149627685546875,
        ("fourth", "ricci"): 0.3984375,
        ("fourth", "deform-cd"): 0.5453910827636719,
        ("fourth", "deform-nutor"): 0.4149627685546875,
        ("fourth", "trace-cd"): 0.36594390869140625,
        ("fourth", "trace-scalar-nu"): 0.04726409912109375,
        ("fourth", "trace-scalar-tor"): 0.027008056640625,
        ("fourth", "trace-outer-nu"): 0.1025390625,
        ("fourth", "trace-outer-tor"): 0.1146240234375,
        ("first", "deform-mu"): 0.02565765380859375,
        ("first", "deform-cd"): 0.5453910827636719,
        ("first", "deform-nutor"): 0.4149627685546875,
        ("first", "over-cd"): 0.06861448287963867,
        ("first", "over-quad"): 0.006992340087890625,
        ("first", "over-nutor"): 0.023657798767089844,
        ("split", "first-display-published"): 0.052826881408691406,
    },
    (4, 1, 2): {
        ("deform", "mu"): 0.1309375,
        ("deform", "cd"): 1.5411865234375,
        ("deform", "nutor"): 0.6212451171875,
        ("basic", "deform-mu"): 0.1309375,
        ("basic", "deform-cd"): 1.5411865234375,
        ("basic", "deform-nutor"): 0.6212451171875,
        ("fourth", "ricci"): 0.24479166666666666,
        ("fourth", "deform-cd"): 1.5411865234375,
        ("fourth", "deform-nutor"): 0.6212451171875,
        ("fourth", "trace-cd"): 0.7890285734953704,
        ("fourth", "trace-scalar-nu"): 0.06774197048611111,
        ("fourth", "trace-scalar-tor"): 0.045237087673611114,
        ("fourth", "trace-outer-nu"): 0.03515625,
        ("fourth", "trace-outer-tor"): 0.13827094184027777,
        ("first", "deform-mu"): 0.157125,
        ("first", "deform-cd"): 1.5411865234375,
        ("first", "deform-nutor"): 0.6212451171875,
        ("first", "over-cd"): 0.15780571469907406,
        ("first", "over-quad"): 0.010131510416666666,
        ("first", "over-nutor"): 0.019903971354166668,
        ("split", "first-display-published"): 0.12338363425925926,
    },
}


@pytest.mark.parametrize("key", sorted(PINNED_RESIDUALS))
def test_diagnostics_residuals_are_pinned(key):
    _, s, _ = case(*key)
    got = {(r["section"], r["group"]): r["max_abs"] for r in agm.agm_diagnostics(s)}
    assert got == {**dict.fromkeys(EXPECT, 0.0), **PINNED_RESIDUALS[key]}


def test_diagnostics_share_delta_blocks(monkeypatch):
    # Once the check pipeline has run on a bundle, a diagnostics call reuses
    # the pipeline forms' and the closed forms' delta blocks; all it builds
    # is the decomposition's Q block and its N-trace block, one each.
    seen = collections.Counter()
    real = tc.delta_mix

    def spy(Y):
        seen[tuple(Y.data)] += 1
        return real(Y)

    for dim, seed, p in ((3, 0, 1), (4, 1, 2)):
        ins = generate_agm3(dim, seed, p, "rational")
        s = ins.source_fields()
        pair_invariants(ins)
        seen.clear()
        monkeypatch.setattr(tc, "delta_mix", spy)
        agm.agm_diagnostics(s)
        monkeypatch.setattr(tc, "delta_mix", real)
        assert sorted(seen.values()) == [1, 1], (dim, seed, p)


def test_trace_derivative_is_computed_once_per_space(monkeypatch):
    # The covector-rule trace derivative feeds the factored, fourth and
    # first-display forms, the closed-form blocks and the decomposition
    # route; each space computes it once, however many of them ask.
    calls = collections.Counter()
    real = tc.ein

    def spy(expr, out_valence, *tensors):
        if expr == "ajn,a->jn":  # L^a_jn theta_a
            calls[id(tensors[0])] += 1
        return real(expr, out_valence, *tensors)

    monkeypatch.setattr(tc, "ein", spy)
    ins = generate_agm3(3, 0, 1, "rational")
    pair_invariants(ins)
    agm.agm_diagnostics(ins.source_fields())
    assert sorted(calls.values()) == [1, 1]  # source and target space


# ------------------------------------------------------------ decomposition


def test_decomposition_round_trip():
    for _, s, t in all_cases():
        for fl in (s, t):
            dec = agm.agm_decompose(fl)
            expected_q = tc.scale(fl.agm.sigma.value, -Fraction(1, 2) * fl.agm.mu)
            assert tc.max_abs_diff(dec.Y, expected_q) == 0


def test_split_fourth_form_is_the_rebuild_operators():
    cases = [(s, t) for _, s, t in all_cases()]
    float_ins = generate_agm3(3, 7, 2, "float")
    cases.append((float_ins.source_fields(), float_ins.target_fields()))
    for pair in cases:
        for fl in pair:
            dec = agm.agm_decompose(fl)
            _, fourth, _ = agm.weyl_forms_from_decomposition(dec, fl)
            assert fourth.data == inv.derived_invariants(dec, fl.space)["fourth"].data


# -------------------------------------------------------------- float parity


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("p", [1, 2])
def test_float_mode_parity(dim, p):
    ins = generate_agm3(dim, 7, p, "float")
    ins.validate()
    s, t = ins.source_fields(), ins.target_fields()
    basic_s, fourth_s = agm.agm_basic(s), agm.agm_fourth(s)
    basic_t, fourth_t = agm.agm_basic(t), agm.agm_fourth(t)
    scale = max(1.0, basic_s.max_abs())
    assert tc.max_abs_diff(basic_s, basic_t) / scale < 1e-9
    assert tc.max_abs_diff(fourth_s, fourth_t) / scale < 1e-9
    assert tc.max_abs_diff(basic_s, inv.weyl_factored(s)) / scale < 1e-9
    assert tc.max_abs_diff(agm.agm_first(s), inv.weyl_first_display(s)) / scale < 1e-9
    rows = agm.agm_diagnostics(s)
    assert all(r["status"] in ("match", "mismatch") for r in rows)
    agm.agm_decompose(s)


# --------------------------------------------------------- degenerate block


def test_zero_family_block_reduces_to_trace_shift_forms():
    gins = generate(3, 3, (1, 0, 0), "geodesic", "rational")
    src = gins.source_fields()
    zero_block = AGMData(
        zero_jet(3, (0, 2)), zero_jet(3, (1, 0)), tc.zeros(3, (0, 1)), Fraction(0), 1
    )
    fl = SpaceFields(src.space, (1, 0, 1), "rational", agm=zero_block)
    basic = agm.agm_basic(fl)
    assert tc.max_abs_diff(basic, inv.weyl_factored(fl)) == 0
    assert tc.max_abs_diff(agm.agm_fourth(fl), inv.weyl_fourth(fl)) == 0
    assert tc.max_abs_diff(agm.agm_first(fl), inv.weyl_first_display(fl)) == 0
    # It is NOT the plain basic form: they differ by the trace block.
    assert tc.max_abs_diff(basic, inv.weyl_basic(fl)) != 0
    gw = inv.geodesic_weyl(src.space)
    gap = tc.sub(basic, gw)
    pred = tc.scale(
        tc.ein("ij,mn->ijmn", (1, 3), tc.delta(3), src.space.skew_ricci),
        Fraction(1, 4),
    )
    assert tc.max_abs_diff(gap, pred) == 0
    gt = inv.geodesic_thomas(src.space)
    assert tc.max_abs_diff(inv.thomas_factored(fl), gt) == 0
