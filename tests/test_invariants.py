"""Invariant forms under the general rule: dual routes, residual laws, controls.

Every equality here is exact rational arithmetic; the expected residuals of
the non-invariant forms are pinned as closed formulas, so a regression in any
curvature or trace convention shows up as a hard mismatch.
"""

import functools
from fractions import Fraction

import pytest

from geoinv import invariants as inv, tensor_core as tc
from geoinv.mappings import generate

FLAGS = [
    (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1),
]
DIMS = (3, 4)
SEEDS = (0, 1)


@functools.lru_cache(maxsize=None)
def case(dim, seed, flags):
    ins = generate(dim, seed, flags, "general", "rational")
    return ins, ins.source_fields(), ins.target_fields()


def all_cases():
    for dim in DIMS:
        for seed in SEEDS:
            for flags in FLAGS:
                yield case(dim, seed, flags)


def outer_delta(skew, dim):
    """delta^i_j S_mn — the trace-shaped correction block."""
    return tc.ein("ij,mn->ijmn", (1, 3), tc.delta(dim), skew)


def delta_mix(s, dim):
    """delta^i_m S_jn - delta^i_n S_jm — the mixed correction block."""
    d = tc.delta(dim)
    return tc.sub(
        tc.ein("im,jn->ijmn", (1, 3), d, s),
        tc.ein("in,jm->ijmn", (1, 3), d, s),
    )


def pairdiff(f, s, t):
    return tc.max_abs_diff(f(s), f(t))


# -------------------------------------------------------------- dual routes


def test_trace_adjusted_connection_dual_route():
    for _, s, t in all_cases():
        assert tc.max_abs_diff(inv.thomas_basic(s), inv.thomas_factored(s)) == 0
        assert tc.max_abs_diff(inv.thomas_basic(t), inv.thomas_factored(t)) == 0


# ----------------------------------------------------------- invariance laws


def test_unconditional_invariants():
    for ins, s, t in all_cases():
        for f in (inv.thomas_basic, inv.weyl_basic):
            assert pairdiff(f, s, t) == 0, (ins.dim, ins.seed, ins.flags, f.__name__)


def test_half_sum_connection_is_pair_symmetric():
    for _, s, t in all_cases():
        a = inv.thomas_third(s.space, t.space)
        b = inv.thomas_third(t.space, s.space)
        assert tc.max_abs_diff(a, b) == 0


def test_half_sum_connection_of_one_space_is_its_symmetric_part():
    # pins the 1/2, which no invariance row can see
    for _, s, t in all_cases():
        for sp in (s.space, t.space):
            assert tc.max_abs_diff(inv.thomas_third(sp, sp), sp.Lsym.value) == 0


def test_conditional_invariants_hold_on_generated_instances():
    # The generator enforces the two curl conditions these forms require.
    for ins, s, t in all_cases():
        for f in (inv.weyl_factored, inv.weyl_fourth, inv.weyl_first_over):
            assert pairdiff(f, s, t) == 0, (ins.dim, ins.seed, ins.flags, f.__name__)
        assert tc.max_abs_diff(s.space.skew_ricci, t.space.skew_ricci) == 0
        assert tc.max_abs_diff(inv.rho_skew(s), inv.rho_skew(t)) == 0


def test_reduced_trace_forms_invariant_exactly_when_no_trace_shift():
    for ins, s, t in all_cases():
        dth = tc.max_abs_diff(inv.theta_tilde(s), inv.theta_tilde(t))
        dst = tc.max_abs_diff(inv.thomas_star(s), inv.thomas_star(t))
        if ins.flags[0] == 0:
            assert dth == 0 and dst == 0, (ins.dim, ins.seed, ins.flags)
        else:
            assert dth != 0 and dst != 0, (ins.dim, ins.seed, ins.flags)


def test_reduced_trace_negative_control_residual():
    # When the trace shift is on, the reduced trace moves by exactly (N+1) psi.
    for ins, s, t in all_cases():
        if ins.flags[0] != 1:
            continue
        psi = tc.sub(ins.field("u_bar").value, ins.field("u").value)
        res = tc.sub(inv.theta_tilde(t), inv.theta_tilde(s))
        assert tc.max_abs_diff(res, tc.scale(psi, ins.dim + 1)) == 0


# ----------------------------------------------------------- bridge formulas


def test_basic_equals_factored_plus_trace_block():
    for ins, s, t in all_cases():
        n = ins.dim
        for fl in (s, t):
            corr = tc.add(fl.space.skew_ricci, inv.rho_skew(fl))
            bridge = tc.add_scaled(
                inv.weyl_factored(fl), Fraction(1, n + 1), outer_delta(corr, n)
            )
            assert tc.max_abs_diff(inv.weyl_basic(fl), bridge) == 0


def test_displayed_first_form_gap_to_factored():
    # The displayed variant differs from the factored one by a mixed block
    # built from the completion tensor minus the deformation trace.
    for ins, s, t in all_cases():
        n = ins.dim
        for fl in (s, t):
            a = inv.A_tensor(fl)
            atr = tc.sym_pair(tc.ein("ajna->jn", (0, 2), a), 0, 1)
            gap = tc.scale(
                delta_mix(tc.sub(inv.S_tilde(fl), atr), n),
                Fraction(1, (n + 1) ** 2),
            )
            lhs = tc.sub(inv.weyl_first_display(fl), inv.weyl_factored(fl))
            assert tc.max_abs_diff(lhs, gap) == 0


def test_displayed_first_form_is_not_invariant():
    # It moves on every non-trivial instance; only the torsion-only pattern
    # (all flags off) leaves the symmetric data — hence this form — unchanged.
    for ins, s, t in all_cases():
        moved = pairdiff(inv.weyl_first_display, s, t) != 0
        assert moved == (ins.flags != (0, 0, 0)), (ins.dim, ins.seed, ins.flags)


# ------------------------------------------- decomposition-derived scorecard


def scorecard_cases():
    for ins, s, t in all_cases():
        for fl in (s, t):
            yield ins, fl


def test_derived_forms_green_cells():
    # Rebuilding from the decompositions: the first form of the factored
    # decomposition lands on the trace-mixed first variant, and the fourth
    # form is decomposition-independent.
    for ins, fl in scorecard_cases():
        sp = fl.space
        dec1 = inv.xyz_weyl_factored(fl)
        dec4 = inv.xyz_weyl_fourth(fl)
        decd = inv.xyz_weyl_first_display(fl)
        got1 = inv.derived_invariants(dec1, sp)
        got4 = inv.derived_invariants(dec4, sp)
        gotd = inv.derived_invariants(decd, sp)
        assert tc.max_abs_diff(got1["first"], inv.weyl_first_over(fl)) == 0
        for got in (got1, got4, gotd):
            assert tc.max_abs_diff(got["fourth"], inv.weyl_fourth(fl)) == 0


def test_derived_forms_red_cells_have_pinned_residuals():
    for ins, fl in scorecard_cases():
        n = ins.dim
        sp = fl.space
        rhat = sp.skew_ricci
        rhohat = inv.rho_skew(fl)
        dec4 = inv.xyz_weyl_fourth(fl)
        decd = inv.xyz_weyl_first_display(fl)
        got4 = inv.derived_invariants(dec4, sp)
        gotd = inv.derived_invariants(decd, sp)

        r = tc.sub(got4["first"], inv.weyl_fourth(fl))
        assert tc.max_abs_diff(r, outer_delta(tc.scale(rhohat, Fraction(1, n)), n)) == 0
        r = tc.sub(got4["second"], inv.weyl_fourth(fl))
        assert tc.max_abs_diff(r, outer_delta(tc.scale(rhohat, Fraction(1, 2)), n)) == 0

        dec1 = inv.xyz_weyl_factored(fl)
        got1 = inv.derived_invariants(dec1, sp)
        r = tc.sub(got1["second"], inv.weyl_first_over(fl))
        assert (
            tc.max_abs_diff(r, outer_delta(tc.scale(rhat, Fraction(-(n - 2), 2 * n)), n))
            == 0
        )

        a = inv.A_tensor(fl)
        atr = tc.sym_pair(tc.ein("ajna->jn", (0, 2), a), 0, 1)
        gap = tc.scale(
            delta_mix(tc.sub(inv.S_tilde(fl), atr), n), Fraction(1, (n + 1) ** 2)
        )
        r = tc.sub(gotd["first"], inv.weyl_first_over(fl))
        assert tc.max_abs_diff(r, gap) == 0
        r = tc.sub(gotd["second"], tc.add(inv.weyl_first_over(fl), gap))
        assert (
            tc.max_abs_diff(r, outer_delta(tc.scale(rhat, Fraction(-(n - 2), 2 * n)), n))
            == 0
        )


def test_second_vs_first_derived_form_gap_law():
    # The gap between the two rebuilt variants is set by the antisymmetric
    # part of the decomposition's trace block.
    for ins, fl in scorecard_cases():
        n = ins.dim
        sp = fl.space
        rhat = sp.skew_ricci
        rhohat = inv.rho_skew(fl)
        for dec, expect in (
            (inv.xyz_weyl_factored(fl), tc.scale(rhat, Fraction(-(n - 2), 2 * n))),
            (inv.xyz_weyl_fourth(fl), tc.scale(rhohat, Fraction(n - 2, 2 * n))),
            (inv.xyz_weyl_first_display(fl), tc.scale(rhat, Fraction(-(n - 2), 2 * n))),
        ):
            got = inv.derived_invariants(dec, sp)
            r = tc.sub(got["second"], got["first"])
            assert tc.max_abs_diff(r, outer_delta(expect, n)) == 0


def test_decomposition_trace_identities():
    for ins, fl in scorecard_cases():
        n = ins.dim
        rhohat = inv.rho_skew(fl)
        rhat = fl.space.skew_ricci
        for dec in (
            inv.xyz_weyl_factored(fl),
            inv.xyz_weyl_fourth(fl),
            inv.xyz_weyl_first_display(fl),
        ):
            ztr1 = tc.ein("aamn->mn", (0, 2), dec.Z)
            assert tc.max_abs_diff(ztr1, tc.scale(rhohat, -1)) == 0
            ztr2a = tc.alternate(tc.ein("amna->mn", (0, 2), dec.Z), 0, 1)
            assert tc.max_abs_diff(ztr2a, rhohat) == 0
        y1 = tc.alternate(inv.xyz_weyl_factored(fl).Y, 0, 1)
        pred = tc.scale(tc.add(rhat, rhohat), Fraction(1, n + 1))
        assert tc.max_abs_diff(y1, pred) == 0


def test_decomposition_rejects_bad_shapes():
    _, s, _ = case(3, 0, (1, 1, 1))
    dec = inv.xyz_weyl_factored(s)
    Y, Z = dec.Y, dec.Z
    for bad in ((Z, Z), (Y, Y), (tc.zeros(3, (1, 1)), Z), (Y, tc.zeros(3, (0, 4)))):
        with pytest.raises(inv.DecompositionError, match="valences"):
            inv.Decomposition(*bad)
    lopsided = tc.add(Z, tc.delta_outer(tc.sym_pair(Y, 0, 1)))
    with pytest.raises(inv.DecompositionError, match="antisymmetric"):
        inv.Decomposition(Y, lopsided)
    assert tc.max_abs_diff(dec.total, tc.add(delta_mix(Y, 3), Z)) == 0


def test_rebuild_reads_the_last_slot_trace_once(monkeypatch):
    # Decomposition keeps Z^a_jna; derived_invariants reuses it
    _, s, _ = case(3, 0, (1, 1, 1))
    real_ein = tc.ein
    traces = []

    def spy(expr, out_valence, *tensors):
        traces.extend([expr] if expr == "ajna->jn" else [])
        return real_ein(expr, out_valence, *tensors)

    monkeypatch.setattr(tc, "ein", spy)
    inv.derived_invariants(inv.xyz_weyl_factored(s), s.space)
    assert traces == ["ajna->jn"]


# ------------------------------------------------------------ geodesic forms


@functools.lru_cache(maxsize=None)
def geodesic_case(dim, seed):
    ins = generate(dim, seed, (1, 0, 0), "geodesic", "rational")
    return ins, ins.source_fields(), ins.target_fields()


def geodesic_cases():
    for dim in DIMS:
        for seed in (0, 5):
            yield geodesic_case(dim, seed)


def test_geodesic_forms_invariant():
    for ins, s, t in geodesic_cases():
        for f in (inv.geodesic_thomas, inv.geodesic_weyl, inv.weyl_projective):
            a = f(s.space)
            b = f(t.space)
            assert tc.max_abs_diff(a, b) == 0, (ins.dim, ins.seed, f.__name__)


def test_geodesic_connection_form_matches_general_route():
    # With no deformation fields the general trace-adjusted connection
    # collapses onto the geodesic one, entry for entry.
    for ins, s, t in geodesic_cases():
        assert (
            tc.max_abs_diff(inv.geodesic_thomas(s.space), inv.thomas_basic(s))
            == 0
        )
        assert (
            tc.max_abs_diff(inv.geodesic_thomas(t.space), inv.thomas_basic(t))
            == 0
        )


def test_geodesic_weyl_bridge_to_basic():
    for ins, s, t in geodesic_cases():
        n = ins.dim
        for fl in (s, t):
            sp = fl.space
            corr = outer_delta(sp.skew_ricci, n)
            lhs = tc.sub(inv.weyl_basic(fl), inv.geodesic_weyl(sp))
            assert tc.max_abs_diff(lhs, tc.scale(corr, Fraction(2, n + 1))) == 0


def test_special_trace_gap_in_geodesic_setting():
    for ins, s, t in geodesic_cases():
        for fl in (s, t):
            sp = fl.space
            m = tc.ein("abn,bja->jn", (0, 2), sp.Lsym.value, sp.Lsym.value)
            two_m = tc.sub(sp.special_trace_derivative(), sp.trace_cov_derivative())
            assert tc.max_abs_diff(two_m, tc.scale(m, 2)) == 0


def test_literal_all_special_variant_is_not_invariant():
    # Negative control: forcing the special trace derivative into the mixed
    # block as well breaks invariance; its exact deviation is the mixed block
    # of the squared-connection trace.
    for ins, s, t in geodesic_cases():
        n = ins.dim

        def literal(sp):
            m = tc.ein("abn,bja->jn", (0, 2), sp.Lsym.value, sp.Lsym.value)
            return tc.add_scaled(
                inv.geodesic_weyl(sp),
                Fraction(-2, n + 1),
                delta_mix(m, n),
            )

        assert tc.max_abs_diff(literal(s.space), literal(t.space)) != 0


def test_no_einsum_takes_a_kronecker_delta(monkeypatch):
    # Delta blocks are placed directly by tensor_core; an einsum against the
    # mostly-zero delta must not creep back into the invariant formulas.
    # (index_expr is exempt: user expressions may bind the delta.)
    from geoinv import agm, cli
    from geoinv.mappings import generate_agm3

    real_ein = tc.ein
    hits = []

    def spy(expr, out_valence, *tensors):
        hits.extend(expr for t in tensors if t == tc.delta(t.dim))
        return real_ein(expr, out_valence, *tensors)

    monkeypatch.setattr(tc, "ein", spy)
    general = generate(3, 0, (1, 1, 1), "general", "rational")
    geodesic = generate(3, 0, (1, 0, 0), "geodesic", "rational")
    third = generate_agm3(3, 0, 1, "rational")
    for ins in (general, geodesic, third):
        cli.pair_invariants(ins)
    agm.agm_diagnostics(third.source_fields())
    cli.identity_rows(3, 0, "rational", cli.REL_TOL, cli.ABS_TOL)
    fl = general.source_fields()
    inv.derived_invariants(inv.xyz_weyl_factored(fl), fl.space)
    inv.geodesic_weyl(geodesic.source_fields().space)
    inv.weyl_projective(geodesic.source_fields().space)
    assert hits == []
