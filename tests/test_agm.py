"""Third-type almost-geodesic family: closed forms, diagnostics, decomposition.

The per-term diagnostic pattern is frozen below.  Rows whose expected status
is "mismatch" may legitimately report "match" on instances whose scalar
parameter happens to be zero — the discrepant terms all carry that factor —
so the comparison allows exactly that degeneracy and nothing else.
"""

import collections
import functools
import types
from fractions import Fraction

import pytest

from geoinv import agm, connection, invariants as inv, tensor_core as tc
from geoinv.cli import pair_invariants
from geoinv.jet import zero_jet
from geoinv.mappings import (AGMData, NotApplicableError, SpaceFields, generate,
                             generate_agm3)

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
            basic, fourth = agm.agm_basic(fl), agm.agm_fourth(fl)
            first = inv.part(fl, "agm_first")
            key = (ins.dim, ins.seed, ins.p)
            assert tc.max_abs_diff(basic, inv.weyl_factored(fl)) == 0, key
            assert tc.max_abs_diff(fourth, inv.weyl_fourth(fl)) == 0, key
            assert tc.max_abs_diff(first, inv.part(fl, "weyl_first_display")) == 0, key


def _term_by_term(fl, form):
    """A form's corrected column rebuilt as (1,3) terms: each core through its
    own delta block, each part scaled, summed in row order."""
    out = None
    for _, name, _, c in agm.tables(fl.dim)[form]:
        t = inv.part(fl, name)
        if t.valence == (0, 2):
            t = tc.delta_mix(t)
        t = tc.scale(t, c) if c else tc.zeros(fl.dim, (1, 3))
        out = t if out is None else tc.add(out, t)
    return out


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_closed_forms_equal_the_term_by_term_sum(dim, mode):
    # one delta block of the summed cores is the sum of the cores' blocks:
    # exactly in rational mode, to the closeness rule in float mode
    for seed in (0, 1, 2):
        for p in (1, 2):
            ins = generate_agm3(dim, seed, p, mode)
            for fl in (ins.source_fields(), ins.target_fields()):
                for form in ("deform", "basic", "fourth", "first"):
                    got = inv.part(fl, "agm_" + form)
                    want = _term_by_term(fl, form)
                    key = (dim, seed, p, form)
                    if mode == "rational":
                        assert got == want, key
                    else:
                        assert fl.domain.measure(got, want)[0], key


def _summed_terms(fl, form):
    """(total, mix) of a form by the route that sums its scaled terms: each
    row's part scaled by its corrected coefficient (exact zeros for a zero
    one), then summed with coefficient 1, the (0,2) terms through one delta
    block."""
    terms = []
    for _, name, _, c in agm.tables(fl.dim)[form]:
        t = inv.part(fl, name)
        terms.append(tc.scale(t, c) if c else tc.zeros(fl.dim, t.valence))
    mix = tc.delta_mix(tc.lincomb([(1, t) for t in terms if t.p == 0]))
    return tc.lincomb([*((1, t) for t in terms if t.p == 1), (1, mix)]), mix


def _reprs(t):
    return [repr(x) for x in t.data]


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_coefficient_rows_sum_to_the_scaled_terms(mode):
    # a form's rows pass the coefficients to lincomb: the same scaled form
    # in rational mode, the same bits in float mode
    for dim, seed, p in ((2, 0, 1), (3, 1, 2), (4, 2, 1)):
        ins = generate_agm3(dim, seed, p, mode)
        for fl in (ins.source_fields(), ins.target_fields()):
            for form in agm.tables(dim):
                total, mix = _summed_terms(fl, form)
                block = agm.forms(dim)["agm_" + form][-1][1]
                got = inv.part(fl, "agm_" + form), inv.part(fl, block)
                key = (dim, seed, p, form)
                if mode == "rational":
                    assert got == (total, mix), key
                else:
                    assert _reprs(got[0]) == _reprs(total), key
                    assert _reprs(got[1]) == _reprs(mix), key


def test_a_zero_coefficient_row_enters_as_exact_zeros(monkeypatch):
    # a -0.0 partial sum meets a zero-coefficient row: as exact zeros it
    # reads -0.0 + 0 = 0.0, as the scaled terms do; the row 0 * part would
    # add 0.0 * -1.5 = -0.0 and keep the -0.0
    F = Fraction
    # two (1,3) parts and two cores, under names the tables give those valences
    parts = {"a_cd": tc.Tensor(2, (1, 3), [-0.0] * 16),
             "a_quad": tc.Tensor(2, (1, 3), [-1.5] * 16),
             "a_mu": tc.Tensor(2, (0, 2), [-0.0, 0.5, -1.5, 0.0]),
             "s_nu": tc.Tensor(2, (0, 2), [-2.5] * 4)}
    for name, t in parts.items():
        monkeypatch.setitem(inv.PARTS, name, lambda f, s, t=t: t)
    table = (("a", "a_cd", F(1), F(1)), ("b", "a_quad", F(0), F(0)),
             ("c", "a_mu", F(1), F(1)), ("d", "s_nu", F(0), F(0)))
    monkeypatch.setattr(agm, "tables", lambda N: {"built": table})
    side = types.SimpleNamespace(dim=2)  # a hand-built side: parts by name
    rows = [(c, name) for _, name, _, c in table]
    assert _reprs(inv._sum(side, rows[:2])) == ["0.0"] * 16
    assert _reprs(inv._sum(side, rows[2:]))[0] == "0.0"
    plain = tc.lincomb([(c, parts[name]) for c, name in rows[:2]])
    assert _reprs(plain) == ["-0.0"] * 16
    total, mix = _summed_terms(side, "built")
    # the uncached derivation, so it reads the patched tables
    built = agm.forms.__wrapped__(2)["agm_built"]
    got = inv._sum(side, built), inv.part(side, built[-1][1])
    assert [_reprs(t) for t in got] == [_reprs(total), _reprs(mix)]


def _table_parts(N):
    """Every part name either column of agm.tables(N) reads (the published
    one reads a sym_ part without its prefix)."""
    return {n for rows in agm.tables(N).values() for _, name, _, _ in rows
            for n in (name, name.removeprefix("sym_"))}


def test_every_table_part_resolves_through_the_registry():
    for dim in (2, 3, 4):
        fl = generate_agm3(dim, 1, 1, "rational").source_fields()
        for name in _table_parts(dim):
            assert inv.part(fl, name).valence in ((1, 3), (0, 2)), (dim, name)


def test_a_general_bundle_has_no_agm_parts():
    fl = generate(3, 0, (1, 1, 1), "general", "rational").source_fields()
    for name in ("a_cd", "agm_basic"):
        with pytest.raises(NotApplicableError):
            inv.part(fl, name)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_derived_rows_state_each_part_valence(dim):
    # the rows a closed form lists before its block are (1,3) parts, its
    # block's cores and the trace forms' rows (0,2) ones: the split the
    # derived rows state, checked against the registry
    for p in (1, 2):
        ins = generate_agm3(dim, 0, p, "rational")
        for fl in (ins.source_fields(), ins.target_fields()):
            for form, rows in agm.forms(dim).items():
                if form.startswith("agm_"):
                    *upper, (c, (kind, cores)) = rows
                    assert (c, kind) == (1, "mix"), form
                else:
                    upper, cores = (), rows
                for _, name in upper:
                    assert inv.part(fl, name).valence == (1, 3), (p, form, name)
                for _, name in cores:
                    assert inv.part(fl, name).valence == (0, 2), (p, form, name)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_torsion_part_carries_the_rule_sign(dim):
    # tor is (-1)^p sigma_ja L~^a_bn phi^b on either side, built here straight
    # from the space's torsion half
    for p in (1, 2):
        ins = generate_agm3(dim, 0, p, "rational")
        for fl in (ins.source_fields(), ins.target_fields()):
            a = fl.agm
            unsigned = tc.ein("ja,abn,b->jn", (0, 2), a.sigma.value,
                              fl.space.Ltor.value, a.phi.value)
            assert not unsigned.is_zero(), (dim, p)
            assert inv.part(fl, "tor") == tc.scale(unsigned, (-1) ** p), (dim, p)


def test_each_closed_form_takes_one_delta_block(monkeypatch):
    # the parts are built without a delta block; a form's total builds one
    calls = []
    real = tc.delta_mix

    def spy(Y):
        calls.append(Y)
        return real(Y)

    monkeypatch.setattr(tc, "delta_mix", spy)
    for dim, seed, p in ((3, 0, 1), (4, 1, 2)):
        fl = generate_agm3(dim, seed, p, "rational").source_fields()
        calls.clear()
        for name in _table_parts(dim):
            inv.part(fl, name)
        assert calls == [], (dim, seed, p)
        for form in agm.tables(dim):
            calls.clear()
            inv.part(fl, "agm_" + form)
            assert len(calls) == 1, (dim, seed, p, form)


def test_corrected_basic_and_fourth_forms_are_invariant():
    for _, s, t in all_cases():
        assert tc.max_abs_diff(agm.agm_basic(s), agm.agm_basic(t)) == 0
        assert tc.max_abs_diff(agm.agm_fourth(s), agm.agm_fourth(t)) == 0


def test_published_first_closed_form_is_not_invariant():
    # It reproduces the displayed first variant, which moves under the rule.
    moved = 0
    for _, s, t in all_cases():
        first = inv.part(s, "agm_first")
        if tc.max_abs_diff(first, inv.part(t, "agm_first")) != 0:
            moved += 1
        assert tc.max_abs_diff(first, inv.part(s, "weyl_first_display")) == 0
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

# eps = (-1)^p is the sign of the rule's torsion term.  The parts built on
# the torsion half carry it, so one table serves both signs; the coefficients
# printed on the unsigned half are eps times the torsion rows' own
TABLE_SHAPES = [(N, eps) for N in (3, 4, 5, 6) for eps in (-1, 1)]


def _printed(N, eps):
    """agm.tables(N) with the torsion rows' coefficients as printed on the
    unsigned torsion half at sign eps."""
    return {form: tuple((group, name, *((eps * pub, eps * cor)
                                        if name in ("tor", "s_tor", "sym_tor")
                                        else (pub, cor)))
                        for group, name, pub, cor in rows)
            for form, rows in agm.tables(N).items()}


@pytest.mark.parametrize("N, eps", TABLE_SHAPES)
def test_tables_differ_exactly_on_the_mismatch_groups(N, eps):
    # a row's columns differ when its coefficients do, or when its part
    # reads the symmetrized cores (a sym_ part) in the corrected column
    differ = {(form, group)
              for form, rows in _printed(N, eps).items()
              for group, name, published, corrected in rows
              if published != corrected or name.startswith("sym_")}
    assert differ == {key for key, status in EXPECT.items()
                      if status == "mismatch" and key[0] != "split"}


def test_sym_parts_read_the_symmetrized_cores():
    for _, s, _ in all_cases():
        parts = {name for rows in agm.tables(s.dim).values()
                 for _, name, _, _ in rows}
        sym = {name for name in parts if name.startswith("sym_")}
        assert sym == {"sym_ricci", "sym_cd", "sym_w_nu", "sym_tor", "sym_nutor"}
        for name in sym:
            published = inv.part(s, name.removeprefix("sym_"))
            assert tc.max_abs_diff(inv.part(s, name), published) != 0, name


@pytest.mark.parametrize("N, eps", TABLE_SHAPES)
def test_basic_mu_coefficients_are_pinned(N, eps):
    rows = {group: (pub, cor) for group, _, pub, cor in _printed(N, eps)["basic"]}
    assert rows["deform-mu"] == (Fraction(-(N + 3), 4 * (N + 1)),
                                 Fraction(-(N + 2), 2 * (N + 1)))


@pytest.mark.parametrize("N, eps", TABLE_SHAPES)
def test_coefficients_invariance_cannot_see_are_pinned(N, eps):
    # a_quad, mix_s_quad and mix_w_w are invariant on their own, so no
    # invariance row can catch a wrong coefficient on them
    rows = {(form, group): (pub, cor)
            for form, table in _printed(N, eps).items()
            for group, _, pub, cor in table}
    quarter = (Fraction(1, 4),) * 2
    assert rows["deform", "quad"] == quarter
    for form in ("basic", "fourth", "first"):
        assert rows[form, "deform-quad"] == quarter
    q, h = Fraction(1, 4 * (N - 1)), Fraction(1, 2 * (N - 1))
    assert rows["fourth", "trace-scalar-quad"] == (q, q)
    assert rows["fourth", "trace-outer-quad"] == (-q, -q)
    # and the torsion rows as printed, with the sign the parts now carry
    for form in ("basic", "first"):
        assert rows[form, "trace-tor"] == (Fraction(-eps, 2 * (N + 1)),) * 2
    assert rows["fourth", "trace-scalar-tor"] == (eps * q, eps * h)
    assert rows["fourth", "trace-outer-tor"] == (-eps * q, -eps * h)


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


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_diagnostics_table_rows_compare_both_columns(mode):
    # each table row as if both columns' terms were built and measured, the
    # rows whose columns are the same (not computed) included
    skipped = 0
    for dim in (2, 3, 4):
        for p in (1, 2):
            fl = generate_agm3(dim, dim, p, mode).source_fields()
            want = []
            for section, table in agm.tables(dim).items():
                for group, name, published, corrected in table:
                    bare = name.removeprefix("sym_")
                    x, y = inv.part(fl, bare), inv.part(fl, name)
                    x, y = ((tc.scale(t, c) if c else tc.zeros(dim, t.valence))
                            for t, c in ((x, published), (y, corrected)))
                    ok, resid, _ = fl.domain.measure(x, y)
                    want.append({"section": section, "group": group,
                                 "status": "match" if ok else "mismatch",
                                 "max_abs": float(resid)})
                    skipped += (published, name) == (corrected, bare)
            keys = {(r["section"], r["group"]) for r in want}
            got = [r for r in agm.agm_diagnostics(fl)
                   if (r["section"], r["group"]) in keys]
            assert got == want, (dim, p)
    # 20 rows of each table set, and at N = 2 first's over-quad, whose
    # coefficients coincide there
    assert skipped == 6 * 20 + 2


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
    # the pipeline forms' delta blocks and the basic and fourth closed forms;
    # it builds each distinct block it still needs once: one for each closed
    # form the check has not built (deform, first), the displayed first
    # form's, and the decomposition's N-trace block.  The decomposition's
    # Y = -mu/2 sigma is the deform form's only core, so it takes that block.
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
        assert list(seen.values()) == [1, 1, 1, 1], (dim, seed, p)


def test_diagnostics_measure_each_recurring_row_once(monkeypatch):
    # a table row whose two columns differ is built and measured once per
    # diagnostics call for each distinct (part, published, corrected): the
    # deform rows carried into the basic, fourth and first tables reuse it
    for dim, p in ((2, 1), (3, 1), (4, 2)):
        ins = generate_agm3(dim, 1, p, "rational")
        s = ins.source_fields()
        want = agm.agm_diagnostics(s)
        calls, real = [], tc.Domain.measure
        monkeypatch.setattr(tc.Domain, "measure",
                            lambda d, x, y: calls.append(x) or real(d, x, y))
        assert agm.agm_diagnostics(s) == want
        monkeypatch.setattr(tc.Domain, "measure", real)
        tables = agm.tables(dim)
        distinct = {(name, published, corrected)
                    for table in tables.values()
                    for _, name, published, corrected in table
                    if (published, name.removeprefix("sym_")) != (corrected, name)}
        others = [r for r in want if r["section"] not in tables
                  or r["group"] == "total-vs-pipeline"]
        # and agm_decompose's reconstruction check
        assert len(calls) == len(distinct) + len(others) + 1, dim


def test_table_blocks_hash_no_fraction(monkeypatch):
    # every delta block a Weyl-type or agm table names is an inv._Block,
    # which hashes once: a check and a diagnostics call on a built bundle
    # hash no Fraction coefficient
    for N in (2, 3, 4):
        tables = [*inv.weyl_tables(N).values(), *agm.forms(N).values()]
        blocks = [name for rows in tables for _, name in rows
                  if isinstance(name, tuple)]
        assert blocks and all(type(b) is inv._Block for b in blocks)
    hashes = []
    real = Fraction.__hash__
    ins = generate_agm3(3, 2, 1, "rational")
    monkeypatch.setattr(Fraction, "__hash__", lambda x: hashes.append(x) or real(x))
    pair_invariants(ins)
    agm.agm_diagnostics(ins.source_fields())
    assert hashes == []


def test_trace_derivative_is_computed_once_per_space(monkeypatch):
    # The trace derivative, the covariant derivative of theta, feeds the
    # factored, fourth and first-display forms, the closed-form blocks and
    # the decomposition route; each space computes it once, however many of
    # them ask.  Its einsum is the one rho (the derivative of b) also runs on
    # the same Lsym, so the spy counts the calls on each theta jet.
    calls = collections.Counter()
    real = connection.covariant_derivative

    def spy(t, gamma):
        calls[id(t)] += 1
        return real(t, gamma)

    monkeypatch.setattr(connection, "covariant_derivative", spy)
    ins = generate_agm3(3, 0, 1, "rational")
    pair_invariants(ins)
    agm.agm_diagnostics(ins.source_fields())
    assert calls == {id(f().space.theta): 1  # source and target space
                     for f in (ins.source_fields, ins.target_fields)}


# ------------------------------------------------------------ decomposition


def test_decomposition_round_trip():
    for _, s, t in all_cases():
        for fl in (s, t):
            dec = agm.agm_decompose(fl)
            expected_q = tc.scale(fl.agm.sigma.value, -Fraction(1, 2) * fl.agm.mu)
            assert tc.max_abs_diff(dec.Y, expected_q) == 0


@pytest.mark.parametrize("gap, shown", [
    (Fraction(1, 16), "residual 1/16"),
    (10**4400, "exact number too long to write"),  # was Python's ValueError
], ids=["small", "past-digit-limit"])
def test_decomposition_residual_is_written_as_an_instance_number(monkeypatch,
                                                                gap, shown):
    fields = generate_agm3(2, 0, 1, "rational").source_fields()
    real = agm.A_tensor
    bump = tc.Tensor(2, (1, 3), [gap] + [0] * 15)
    monkeypatch.setattr(agm, "A_tensor", lambda f: tc.add(real(f), bump))
    with pytest.raises(tc.GeoinvError) as err:
        agm.agm_decompose(fields)
    assert str(err.value).endswith(shown)


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
    display = inv.part(s, "weyl_first_display")
    assert tc.max_abs_diff(inv.part(s, "agm_first"), display) / scale < 1e-9
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
    fl = SpaceFields(src.space, "rational", (), agm=zero_block)
    basic = agm.agm_basic(fl)
    assert tc.max_abs_diff(basic, inv.weyl_factored(fl)) == 0
    assert tc.max_abs_diff(agm.agm_fourth(fl), inv.weyl_fourth(fl)) == 0
    first = inv.part(fl, "agm_first")
    assert tc.max_abs_diff(first, inv.part(fl, "weyl_first_display")) == 0
    # It is NOT the plain basic form: they differ by the trace block.
    assert tc.max_abs_diff(basic, inv.weyl_basic(fl)) != 0
    gw = inv.part(src.space, "geodesic_weyl")
    gap = tc.sub(basic, gw)
    pred = tc.scale(
        tc.ein("ij,mn->ijmn", (1, 3), tc.delta(3), src.space.skew_ricci),
        Fraction(1, 4),
    )
    assert tc.max_abs_diff(gap, pred) == 0
    gt = inv.geodesic_thomas(src.space)
    assert tc.max_abs_diff(inv.thomas_factored(fl), gt) == 0
