"""Acceptance gate: the nine top-level verification criteria, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines.  Two criteria are intentionally red — the rebuilt-variant
fixed-point and closure statements do not hold as stated; each is implemented
faithfully, marked as a strict expected failure, and accompanied by companion
tests that pin the exact residual laws the red cells obey.  See the package
README for the summary of those findings.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from geoinv import agm, invariants as inv, tensor_core as tc
from geoinv.cli import dumps, identity_rows, instance_to_obj, pair_invariants
from geoinv.jet import jet_mul
from geoinv.mappings import (
    fit_agm_parameters,
    generate,
    generate_agm3,
    vector_connection_derivative,
)

from _poly import PolyField, random_point
from test_index_expr import bindings_for, corpus

FLAGS = [
    (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1),
]
REL_TOL = 1e-9
ABS_TOL = 1e-12


def _line(num, label, ok, note=""):
    status = "PASS" if ok else "FAIL"
    if note:
        status += f" ({note})"
    print(f"[criterion {num}] {label}: {status}", flush=True)


def outer_delta(skew, dim):
    return tc.ein("ij,mn->ijmn", (1, 3), tc.delta(dim), skew)


def delta_mix(s, dim):
    d = tc.delta(dim)
    return tc.sub(
        tc.ein("im,jn->ijmn", (1, 3), d, s),
        tc.ein("in,jm->ijmn", (1, 3), d, s),
    )


# --------------------------------------------------------------- criterion 1


def test_criterion_1_invariance_suite():
    """All nine invariant forms agree across spaces: exact in rational mode,
    to 1e-9 relative in float mode; N in {3,4,5}, 50 seeds each, all eight
    flag patterns cycled; the whole sweep stays under 60 seconds."""
    start = time.time()
    failures = []
    for mode in ("rational", "float"):
        for dim in (3, 4, 5):
            for seed in range(50):
                flags = FLAGS[seed % 8]
                ins = generate(dim, seed, flags, "general", mode)
                for tag, _, a, b in pair_invariants(ins):
                    diff = tc.max_abs_diff(a, b)
                    if mode == "rational":
                        ok = diff == 0
                    else:
                        scale = max(a.max_abs(), b.max_abs())
                        ok = diff <= max(ABS_TOL, REL_TOL * scale)
                    if not ok:
                        failures.append((mode, dim, seed, flags, tag, diff))
    elapsed = time.time() - start
    ok = not failures and elapsed < 60.0
    _line(1, f"invariance suite, 300 instances, both modes, {elapsed:.1f}s", ok)
    assert ok, (failures[:5], elapsed)


# --------------------------------------------------------------- criterion 2


def test_criterion_2_identity_suite():
    """Structural identities (curvature trace and antisymmetry, completion
    symmetry, deformation traces, family reconstruction) are exactly zero on
    20 draws per N in {3,4,5}."""
    failures = []
    for dim in (3, 4, 5):
        for seed in range(20):
            for row in identity_rows(dim, seed, "rational", REL_TOL, ABS_TOL):
                if not (row["pass"] and Fraction(row["max_abs"]) == 0):
                    failures.append((dim, seed, row["tag"], row["max_abs"]))
    ok = not failures
    _line(2, "identity suite, 60 draws x 8 identity families, exact", ok)
    assert ok, failures[:5]


# --------------------------------------------------------------- criterion 3


@pytest.mark.xfail(
    strict=True,
    reason=(
        "rebuilding from the factored decomposition returns the trace-mixed "
        "first variant, not the factored form itself, and the second variant "
        "differs from the first by a skew-Ricci trace block; the exact "
        "residual laws are pinned in test_criterion_3_residual_laws"
    ),
)
def test_criterion_3_rebuilt_forms_fixed_point():
    """As stated: feeding the factored-form decomposition to the rebuild step
    returns the factored form itself, and both rebuilt variants coincide;
    exact, 20 seeds, N=4.  This does not hold — see the companion test."""
    first_fixed = True
    second_matches_first = True
    for seed in range(20):
        ins = generate(4, seed, FLAGS[seed % 8], "general", "rational")
        for fl in (ins.source_fields(), ins.target_fields()):
            dec = inv.decompose(fl, "weyl_factored")
            got = inv.derived_invariants(dec, fl.space)
            if tc.max_abs_diff(got["first"], inv.weyl_factored(fl)) != 0:
                first_fixed = False
            if tc.max_abs_diff(got["second"], got["first"]) != 0:
                second_matches_first = False
    ok = first_fixed and second_matches_first
    _line(3, "rebuilt-form fixed point, 20 seeds, N=4", ok,
          note="" if ok else "expected: residual laws pinned instead")
    assert ok, (first_fixed, second_matches_first)


def test_criterion_3_residual_laws():
    """Companion: what the rebuild actually returns, pinned exactly.

    The first rebuilt variant exceeds the factored form by the trace block
    delta (x) [rho-skew/(N+1) - skew-Ricci/(N(N+1))] — i.e. it equals the
    trace-mixed first variant — and the second variant sits another
    -((N-2)/(2N)) delta (x) skew-Ricci below it."""
    n = 4
    for seed in range(20):
        ins = generate(n, seed, FLAGS[seed % 8], "general", "rational")
        for fl in (ins.source_fields(), ins.target_fields()):
            dec = inv.decompose(fl, "weyl_factored")
            got = inv.derived_invariants(dec, fl.space)
            rhat = fl.space.skew_ricci
            rhohat = inv.rho_skew(fl)
            corr = tc.lincomb(((Fraction(1, n + 1), rhohat),
                               (Fraction(-1, n * (n + 1)), rhat)))
            want_first = tc.add(inv.weyl_factored(fl), outer_delta(corr, n))
            assert tc.max_abs_diff(got["first"], want_first) == 0
            assert tc.max_abs_diff(got["first"], inv.weyl_first_over(fl)) == 0
            want_second = tc.add(
                got["first"],
                outer_delta(tc.scale(rhat, Fraction(-(n - 2), 2 * n)), n),
            )
            assert tc.max_abs_diff(got["second"], want_second) == 0


# --------------------------------------------------------------- criterion 4


@pytest.mark.xfail(
    strict=True,
    reason=(
        "five of the nine rebuilt cells land on neither canonical form: each "
        "differs by a delta-shaped trace block (or the mixed completion "
        "block); the exact residuals are pinned in "
        "test_criterion_4_red_cell_residuals"
    ),
)
def test_criterion_4_rebuild_closure():
    """As stated: the three decompositions, fed to the rebuild step, produce
    only the trace-mixed first variant and the fourth form; exact, 20 seeds,
    N=4.  Five cells violate this — see the companion tests."""
    all_in_set = True
    for seed in range(20):
        ins = generate(4, seed, FLAGS[seed % 8], "general", "rational")
        for fl in (ins.source_fields(), ins.target_fields()):
            over = inv.weyl_first_over(fl)
            fourth = inv.weyl_fourth(fl)
            for dec in (
                inv.decompose(fl, "weyl_factored"),
                inv.decompose(fl, "weyl_fourth"),
                inv.decompose(fl, "weyl_first_display"),
            ):
                got = inv.derived_invariants(dec, fl.space)
                for cell in ("first", "second", "fourth"):
                    in_set = (
                        tc.max_abs_diff(got[cell], over) == 0
                        or tc.max_abs_diff(got[cell], fourth) == 0
                    )
                    if not in_set:
                        all_in_set = False
    _line(4, "rebuild closure onto the two canonical forms, 20 seeds, N=4",
          all_in_set, note="" if all_in_set else "expected: 5 residual cells pinned instead")
    assert all_in_set


def test_criterion_4_green_cells():
    """Companion: the cells that do close — the factored decomposition's
    first rebuilt variant equals the trace-mixed first form, and the fourth
    form is reproduced from all three decompositions."""
    for seed in range(20):
        ins = generate(4, seed, FLAGS[seed % 8], "general", "rational")
        for fl in (ins.source_fields(), ins.target_fields()):
            over = inv.weyl_first_over(fl)
            fourth = inv.weyl_fourth(fl)
            got1 = inv.derived_invariants(inv.decompose(fl, "weyl_factored"), fl.space)
            got4 = inv.derived_invariants(inv.decompose(fl, "weyl_fourth"), fl.space)
            gotd = inv.derived_invariants(
                inv.decompose(fl, "weyl_first_display"), fl.space
            )
            assert tc.max_abs_diff(got1["first"], over) == 0
            for got in (got1, got4, gotd):
                assert tc.max_abs_diff(got["fourth"], fourth) == 0


def test_criterion_4_red_cell_residuals():
    """Companion: the five non-closing cells, each pinned to its exact
    delta-block (or mixed-block) residual."""
    n = 4
    for seed in range(20):
        ins = generate(n, seed, FLAGS[seed % 8], "general", "rational")
        for fl in (ins.source_fields(), ins.target_fields()):
            over = inv.weyl_first_over(fl)
            fourth = inv.weyl_fourth(fl)
            rhat = fl.space.skew_ricci
            rhohat = inv.rho_skew(fl)
            got4 = inv.derived_invariants(inv.decompose(fl, "weyl_fourth"), fl.space)
            gotd = inv.derived_invariants(
                inv.decompose(fl, "weyl_first_display"), fl.space
            )
            got1 = inv.derived_invariants(
                inv.decompose(fl, "weyl_factored"), fl.space
            )

            r = tc.sub(got4["first"], fourth)
            assert tc.max_abs_diff(r, outer_delta(tc.scale(rhohat, Fraction(1, n)), n)) == 0
            r = tc.sub(got4["second"], fourth)
            assert tc.max_abs_diff(r, outer_delta(tc.scale(rhohat, Fraction(1, 2)), n)) == 0
            r = tc.sub(got1["second"], over)
            assert (
                tc.max_abs_diff(
                    r, outer_delta(tc.scale(rhat, Fraction(-(n - 2), 2 * n)), n)
                )
                == 0
            )
            a = inv.A_tensor(fl)
            atr = tc.sym_pair(tc.ein("ajna->jn", (0, 2), a), 0, 1)
            gap = tc.scale(
                delta_mix(tc.sub(inv.S_tilde(fl), atr), n), Fraction(1, (n + 1) ** 2)
            )
            r = tc.sub(gotd["first"], over)
            assert tc.max_abs_diff(r, gap) == 0
            r = tc.sub(gotd["second"], tc.add(over, gap))
            assert (
                tc.max_abs_diff(
                    r, outer_delta(tc.scale(rhat, Fraction(-(n - 2), 2 * n)), n)
                )
                == 0
            )


# --------------------------------------------------------------- criterion 5


def test_criterion_5_trace_shift_reduction():
    """The reduced trace and reduced connection are invariant on 50 instances
    without the trace shift (exact); the reduced trace moves on at least
    45 of 50 instances with it (negative control)."""
    failures = []
    for seed in range(50):
        flags = (0, (seed >> 1) & 1, seed & 1)
        ins = generate(3, seed, flags, "general", "rational")
        s, t = ins.source_fields(), ins.target_fields()
        if tc.max_abs_diff(inv.theta_tilde(s), inv.theta_tilde(t)) != 0:
            failures.append(("theta", seed))
        if tc.max_abs_diff(inv.thomas_star(s), inv.thomas_star(t)) != 0:
            failures.append(("star", seed))
    moved = 0
    for seed in range(50):
        flags = (1, (seed >> 1) & 1, seed & 1)
        ins = generate(3, seed, flags, "general", "rational")
        s, t = ins.source_fields(), ins.target_fields()
        if tc.max_abs_diff(inv.theta_tilde(s), inv.theta_tilde(t)) != 0:
            moved += 1
    ok = not failures and moved >= 45
    _line(5, f"trace-shift reduction, 50+50 instances, control moved {moved}/50", ok)
    assert ok, (failures[:5], moved)


# --------------------------------------------------------------- criterion 6


def test_criterion_6_third_type_family_suite():
    """Third-type family, both derivative kinds, N in {3,4}, 30 seeds:
    defining constraint exact in the source, parameter fit exact in the
    target, the criterion-1 invariants all hold, and the per-term closed-form
    diagnostic report flags only the known term pattern (non-blocking)."""
    failures = []
    mismatch_groups = set()
    for dim in (3, 4):
        for seed in range(30):
            for p in (1, 2):
                ins = generate_agm3(dim, seed, p, "rational")
                s, t = ins.source_fields(), ins.target_fields()

                m = vector_connection_derivative(s.agm.phi, s.space.L, p)
                recon = tc.add(
                    tc.ein("i,j->ij", (1, 1), s.agm.phi.value, s.agm.nu),
                    tc.scale(tc.delta(dim), s.agm.mu),
                )
                if tc.max_abs_diff(m, recon) != 0:
                    failures.append(("constraint", dim, seed, p))

                _, _, residual = fit_agm_parameters(
                    t.agm.phi, t.space.L, p, "rational"
                )
                if residual != 0:
                    failures.append(("fit", dim, seed, p))

                for tag, _, a, b in pair_invariants(ins):
                    if tc.max_abs_diff(a, b) != 0:
                        failures.append(("invariant", tag, dim, seed, p))

                for row in agm.agm_diagnostics(s):
                    if row["status"] == "match":
                        if row["max_abs"] != 0:
                            failures.append(("diag-match", row["section"], row["group"]))
                    else:
                        mismatch_groups.add((row["section"], row["group"]))
    expected_mismatches = {
        ("deform", "mu"), ("deform", "cd"), ("deform", "nutor"),
        ("basic", "deform-mu"), ("basic", "deform-cd"), ("basic", "deform-nutor"),
        ("fourth", "ricci"), ("fourth", "deform-cd"), ("fourth", "deform-nutor"),
        ("fourth", "trace-cd"), ("fourth", "trace-scalar-nu"),
        ("fourth", "trace-scalar-tor"), ("fourth", "trace-outer-nu"),
        ("fourth", "trace-outer-tor"),
        ("first", "deform-mu"), ("first", "deform-cd"), ("first", "deform-nutor"),
        ("first", "over-cd"), ("first", "over-quad"), ("first", "over-nutor"),
        ("split", "first-display-published"),
    }
    if not mismatch_groups <= expected_mismatches:
        failures.append(("diag-unexpected", mismatch_groups - expected_mismatches))
    ok = not failures
    _line(6, "third-type family suite, 120 instances", ok)
    if mismatch_groups:
        listed = ", ".join(f"{s}/{g}" for s, g in sorted(mismatch_groups))
        print(
            f"[criterion 6] closed-form terms that differ from the pipeline "
            f"(documented, non-blocking): {listed}",
            flush=True,
        )
    assert ok, failures[:5]


# --------------------------------------------------------------- criterion 7


def test_criterion_7_geodesic_specialization():
    """With both deformation flags off, the factored reduced connection
    collapses onto the geodesic form entrywise, and that form is invariant;
    exact, 30 seeds, N in {3,4,5}."""
    failures = []
    for dim in (3, 4, 5):
        for seed in range(30):
            ins = generate(dim, seed, (1, 0, 0), "geodesic", "rational")
            s, t = ins.source_fields(), ins.target_fields()
            gs = inv.geodesic_thomas(s.space)
            gt = inv.geodesic_thomas(t.space)
            if tc.max_abs_diff(inv.thomas_factored(s), gs) != 0:
                failures.append(("entrywise-source", dim, seed))
            if tc.max_abs_diff(inv.thomas_factored(t), gt) != 0:
                failures.append(("entrywise-target", dim, seed))
            if tc.max_abs_diff(gs, gt) != 0:
                failures.append(("invariance", dim, seed))
    ok = not failures
    _line(7, "geodesic specialization, 90 instances", ok)
    assert ok, failures[:5]


# --------------------------------------------------------------- criterion 8


def test_criterion_8_oracles():
    """Jet arithmetic agrees with an exact symbolic polynomial oracle on 20
    random degree-2 fields (N=3), and the expression-language corpus of ten
    library formulas equals the hand-coded operations, exactly."""
    from geoinv.index_expr import evaluate, parse
    from geoinv.jet import covariant_derivative

    failures = []
    for seed in range(20):
        rng = random.Random(9000 + seed)
        point = random_point(rng, 3)
        a = PolyField.random(rng, 3, (1, 1))
        b = PolyField.random(rng, 3, (0, 1))
        got = jet_mul(a.jet_at(point), b.jet_at(point))
        want = a.mul(b).jet_at(point)
        if got.value.data != want.value.data or got.grad.data != want.grad.data:
            failures.append(("leibniz", seed))
        field = PolyField.random(rng, 3, (1, 1))
        conn = PolyField.random(rng, 3, (1, 2))
        got_cd = covariant_derivative(field.jet_at(point), conn.value_at(point))
        from test_jet import cd_oracle

        want_cd = cd_oracle(field, conn).value_at(point)
        if got_cd.data != want_cd.data:
            failures.append(("derivative", seed))

    ins = generate(3, 0, flags=(1, 1, 1), mode="rational")
    sp, f, bind = bindings_for(ins)
    formulas = corpus(3, f, sp)
    if len(formulas) != 10:
        failures.append(("corpus-size", len(formulas)))
    for src, expect, name in formulas:
        got = evaluate(parse(src), bind, sp, ins.domain)
        if tc.max_abs_diff(got, expect) != 0:
            failures.append(("formula", name))
    ok = not failures
    _line(8, "polynomial jet oracle (20 fields) + 10-formula corpus, exact", ok)
    assert ok, failures[:5]


# --------------------------------------------------------------- criterion 9


def test_criterion_9_determinism():
    """Instance files are byte-stable across processes, and every seeded
    computation in the suite reproduces itself exactly."""
    failures = []

    texts = set()
    for _ in range(2):
        ins = generate(4, 11, (1, 0, 1), "general", "rational")
        texts.add(dumps(instance_to_obj(ins)))
    if len(texts) != 1:
        failures.append("in-process gen not stable")

    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from geoinv.cli import main; "
                "sys.exit(main(['gen', '--n', '3', '--seed', '9', "
                "'--mapping', 'agm3', '--p', '2', '-o', '/dev/stdout']))",
            ],
            capture_output=True,
        )
        if proc.returncode != 0:
            failures.append(f"subprocess gen rc={proc.returncode}")
        outs.append(proc.stdout)
    if outs[0] != outs[1] or not outs[0]:
        failures.append("cross-process gen not byte-stable")

    a = identity_rows(4, 3, "rational", REL_TOL, ABS_TOL)
    b = identity_rows(4, 3, "rational", REL_TOL, ABS_TOL)
    if a != b:
        failures.append("identity rows not reproducible")

    ins = generate(3, 5, (1, 1, 1), "general", "rational")
    rows_a = [(tag, tc.max_abs_diff(x, y)) for tag, _, x, y in pair_invariants(ins)]
    ins2 = generate(3, 5, (1, 1, 1), "general", "rational")
    rows_b = [(tag, tc.max_abs_diff(x, y)) for tag, _, x, y in pair_invariants(ins2)]
    if rows_a != rows_b:
        failures.append("invariant rows not reproducible")

    ok = not failures
    _line(9, "byte-stable generation and reproducible suite", ok)
    assert ok, failures
