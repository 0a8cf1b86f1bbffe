"""Mapping instances: generation guarantees, the transformation rule, fields."""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from geoinv import agm, cli, mappings as mp, tensor_core as tc
from geoinv.connection import ConnectionSpace
from geoinv.jet import JetTensor, constant_jet, zero_jet
from geoinv.mappings import (
    DegenerateError,
    InstanceError,
    MappingInstance,
    NotApplicableError,
    build_target_connection,
    curl,
    fit_agm_parameters,
    generate,
    generate_agm3,
    vector_connection_derivative,
)
from geoinv.tensor_core import Tensor


# ----------------------------------------------------------------- generation


def test_generate_is_deterministic():
    a = generate(4, 9, (1, 1, 1), "general", "rational")
    b = generate(4, 9, (1, 1, 1), "general", "rational")
    assert a.fields.keys() == b.fields.keys()
    for name in a.fields:
        assert a.fields[name].value.data == b.fields[name].value.data
        assert a.fields[name].grad.data == b.fields[name].grad.data


def test_generate_agm3_is_deterministic():
    a = generate_agm3(3, 5, 2, "rational")
    b = generate_agm3(3, 5, 2, "rational")
    for name in a.fields:
        assert a.fields[name].value.data == b.fields[name].value.data
        assert a.fields[name].grad.data == b.fields[name].grad.data


def test_lattice_blocks_are_randranges_stream():
    # randrange(-16, 17) draws 6 bits until they fall below 33; blocks of
    # 6-bit draws filtered the same way give its numbers and final state
    for seed in range(300):
        for n in (0, 1, 3, 27, 81, 625, 3125):
            r, twin = random.Random(seed), random.Random(seed)
            assert mp._lattice(r, n) == [twin.randrange(-16, 17) for _ in range(n)]
            assert r.getstate() == twin.getstate()


def test_one_batch_draw_is_the_stream_of_its_slices():
    # the agm3 gradient slices are drawn as one (0,3) block
    for dim in (2, 3, 4, 5):
        for seed in range(20):
            r, twin = random.Random(seed), random.Random(seed)
            block = mp._draw(r, tc.RATIONAL, dim, (0, 3))
            slices = [mp._draw(twin, tc.RATIONAL, dim, (0, 2)) for _ in range(dim)]
            assert block.data == [x for s in slices for x in s.data]
            assert r.getstate() == twin.getstate()


def test_float_trace_bump_is_decided_exactly():
    # these curl-fix matrices are singular, but float elimination meets a
    # ~1e-17 pivot: the float instance must still take the rational bumps
    for dim, seed, flags in [(3, 1715, (1, 1, 0)), (3, 1000164, (0, 1, 0)),
                             (4, 4000033, (1, 1, 0)), (4, 7000180, (0, 1, 0)),
                             (3, 110001140, (1, 1, 0))]:
        exact = generate(dim, seed, flags, "general", "rational")
        ins = generate(dim, seed, flags, "general", "float")
        assert ins.fields["f_bar"].value.data == [
            float(x) for x in exact.fields["f_bar"].value.data]


def test_rational_curl_fix_never_takes_the_list_path(monkeypatch):
    # exact generation solves the s2-only curl fix on scaled integers; the
    # list-path elimination (tc._solve) is float mode's
    calls, solve = [], tc._solve
    monkeypatch.setattr(tc, "_solve", lambda A, B: calls.append(A) or solve(A, B))
    for dim in (2, 3, 4, 5):
        for flags in ((0, 1, 0), (1, 1, 0)):
            for seed in range(4):
                generate(dim, seed, flags, "general", "rational")
    # known bump seeds: singular on the first try
    for dim, seed, flags in [(3, 1715, (1, 1, 0)), (4, 7000180, (0, 1, 0))]:
        generate(dim, seed, flags, "general", "rational")
    assert calls == []
    generate(3, 0, (0, 1, 0), "general", "float")  # the spy is in place
    assert len(calls) == 1


def test_distinct_seeds_differ():
    a = generate(3, 0, (1, 1, 1), "general", "rational")
    b = generate(3, 1, (1, 1, 1), "general", "rational")
    assert a.fields["L"].value.data != b.fields["L"].value.data


def test_generated_instances_validate():
    for flags in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)):
        generate(3, 2, flags, "general", "rational").validate()
    generate(4, 2, (1, 0, 0), "geodesic", "rational").validate()
    generate_agm3(3, 2, 1, "rational").validate()
    generate_agm3(4, 2, 2, "rational").validate()


def test_generate_rejects_unknown_mapping():
    with pytest.raises(InstanceError):
        generate(3, 0, (1, 1, 1), "agm3", "rational")


def test_generated_trace_shift_is_curl_free():
    # The difference of the two stored covectors is the covector that enters
    # the rule; its curl must vanish exactly (each one alone is free noise).
    from geoinv.jet import linear

    ins = generate(4, 3, (1, 1, 1), "general", "rational")
    psi = linear(tc.sub, ins.fields["u_bar"], ins.fields["u"])
    assert curl(psi).is_zero()


def test_generated_deformation_trace_difference_is_curl_free():
    for flags in ((0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)):
        ins = generate(3, 6, flags, "general", "rational")
        src, tgt = ins.source_fields(), ins.target_fields()
        assert tc.sub(curl(tgt.b), curl(src.b)).is_zero()


def test_generated_object_symmetries():
    ins = generate(3, 7, (1, 1, 1), "general", "rational")
    for name in ("phi_obj", "phi_obj_bar"):
        assert tc.alternate(ins.fields[name].value, 1, 2).is_zero()
        assert tc.alternate(ins.fields[name].grad, 1, 2).is_zero()
    xi = ins.fields["xi"]
    assert tc.sym_pair(xi.value, 1, 2).is_zero()
    assert tc.sym_pair(xi.grad, 1, 2).is_zero()


def test_validate_flags_symmetry_violation():
    ins = generate(3, 8, (1, 1, 1), "general", "rational")
    bad = dict(ins.fields)
    rng = random.Random(0)
    data = [Fraction(rng.randint(-3, 3)) for _ in range(27)]
    bad["phi_obj"] = JetTensor(Tensor(3, (1, 2), data), bad["phi_obj"].grad)
    broken = MappingInstance(3, "rational", (1, 1, 1), "general", bad, seed=8)
    with pytest.raises(InstanceError):
        broken.validate()


def test_validate_missing_fields_default_to_zero():
    # Absent optional fields read as zero jets; only 'L' itself is mandatory.
    ins = generate(3, 8, (1, 1, 1), "general", "rational")
    thinned = dict(ins.fields)
    del thinned["sigma_bar"]
    MappingInstance(3, "rational", (1, 1, 1), "general", thinned, seed=8).validate()
    with pytest.raises(InstanceError):
        MappingInstance(3, "rational", (1, 1, 1), "general", {}, seed=8).validate()


def test_validate_rejects_unexpected_field():
    ins = generate(3, 8, (1, 1, 1), "general", "rational")
    bad = dict(ins.fields)
    bad["phi"] = zero_jet(3, (1, 0))
    broken = MappingInstance(3, "rational", (1, 1, 1), "general", bad, seed=8)
    with pytest.raises(InstanceError):
        broken.validate()


def test_validate_rejects_wrong_valence():
    ins = generate(3, 8, (1, 1, 1), "general", "rational")
    bad = dict(ins.fields)
    bad["u"] = zero_jet(3, (1, 0))
    broken = MappingInstance(3, "rational", (1, 1, 1), "general", bad, seed=8)
    with pytest.raises(InstanceError):
        broken.validate()


@pytest.mark.parametrize("mapping", mp.MAPPINGS)
def test_field_table_matches_the_generators(mapping):
    # general and agm3 emit every field of their table, geodesic the
    # trace-shift ones; each with the table's valence and lower-pair symmetry
    for mode in mp.MODES:
        ins = (generate_agm3(3, 5, 2, mode) if mapping == "agm3"
               else generate(3, 5, (1, 1, 1), mapping, mode))
        table = mp.FIELDS[mapping]
        emitted = ({"L", "u", "u_bar"} if mapping == "geodesic" else set(table))
        assert set(ins.fields) == emitted
        assert {n for n, spec in table.items() if spec.required} <= emitted
        for name, t in ins.fields.items():
            spec = table[name]
            assert t.valence == spec.valence, name
            a = sum(spec.valence) - 2
            for x in (t.value, t.grad):
                if spec.lower == "symmetric":
                    assert tc.alternate(x, a, a + 1).is_zero(), name
                elif spec.lower == "antisymmetric":
                    assert tc.sym_pair(x, a, a + 1).is_zero(), name
                else:
                    assert spec.lower == "", name


def test_field_default_takes_the_table_valence():
    ins = generate(3, 8, (1, 0, 0), "geodesic", "rational")
    for name, spec in mp.FIELDS["geodesic"].items():
        if name not in ins.fields:
            assert ins.field(name).valence == spec.valence
            assert ins.field(name).value.is_zero()


def test_float_mode_generation():
    ins = generate(3, 4, (1, 1, 1), "general", "float")
    assert all(isinstance(x, float) for x in ins.fields["L"].value.data)
    ins.validate()


# ----------------------------------------------------------- the rule itself


def test_identity_data_maps_to_itself():
    ins = generate(3, 11, (1, 1, 1), "general", "rational")
    fields = dict(ins.fields)
    fields["u_bar"] = fields["u"]
    fields["sigma_bar"] = fields["sigma"]
    fields["f_bar"] = fields["f"]
    fields["phi_obj_bar"] = fields["phi_obj"]
    fields["xi"] = zero_jet(3, (1, 2))
    same = MappingInstance(3, "rational", (1, 1, 1), "general", fields, seed=11)
    out = build_target_connection(same)
    assert out.value.data == ins.fields["L"].value.data
    assert out.grad.data == ins.fields["L"].grad.data


def test_trace_shift_rule_loop_oracle():
    dim = 3
    ins = generate(dim, 12, (1, 0, 0), "geodesic", "rational")
    L = ins.fields["L"]
    psi_v = tc.sub(ins.fields["u_bar"].value, ins.fields["u"].value)
    psi_g = tc.sub(ins.fields["u_bar"].grad, ins.fields["u"].grad)
    out = build_target_connection(ins)
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                expected = L.value[i, j, k]
                if i == j:
                    expected += psi_v[k]
                if i == k:
                    expected += psi_v[j]
                assert out.value[i, j, k] == expected
                for n in range(dim):
                    g = L.grad[i, j, k, n]
                    if i == j:
                        g += psi_g[k, n]
                    if i == k:
                        g += psi_g[j, n]
                    assert out.grad[i, j, k, n] == g


def test_deformation_terms_enter_symmetrically():
    ins = generate(3, 13, (0, 1, 1), "general", "rational")
    out = build_target_connection(ins)
    gap = tc.sub(out.value, ins.fields["L"].value)
    gap = tc.sub(gap, ins.fields["xi"].value)
    assert tc.alternate(gap, 1, 2).is_zero()


def test_torsion_shift_is_exactly_xi():
    ins = generate(3, 14, (1, 1, 1), "general", "rational")
    src_tor = ConnectionSpace(ins.fields["L"]).Ltor
    tgt_tor = ConnectionSpace(ins.target_connection()).Ltor
    assert tc.sub(tgt_tor.value, src_tor.value).data == ins.fields["xi"].value.data
    assert tc.sub(tgt_tor.grad, src_tor.grad).data == ins.fields["xi"].grad.data


def test_symmetric_part_ignores_xi():
    ins = generate(3, 15, (1, 1, 1), "general", "rational")
    fields = dict(ins.fields)
    fields["xi"] = zero_jet(3, (1, 2))
    no_xi = MappingInstance(3, "rational", (1, 1, 1), "general", fields, seed=15)
    a = ConnectionSpace(ins.target_connection()).Lsym
    b = ConnectionSpace(build_target_connection(no_xi)).Lsym
    assert a.value.data == b.value.data
    assert a.grad.data == b.grad.data


# --------------------------------------------------------------- side fields


def test_omega_is_symmetric():
    ins = generate(4, 16, (1, 1, 1), "general", "rational")
    for side in (ins.source_fields(), ins.target_fields()):
        w = side.omega
        assert tc.alternate(w.value, 1, 2).is_zero()
        assert tc.alternate(w.grad, 1, 2).is_zero()


def test_omega_of_flat_empty_side_is_zero():
    space = ConnectionSpace(zero_jet(3, (1, 2)))
    side = mp.SpaceFields(space, "rational", ())
    assert side.omega.value.is_zero()
    assert side.omega.grad.is_zero()


def test_omega_geodesic_reduction_loop_oracle():
    # With no deformation fields, omega collapses to the delta/trace block.
    dim = 3
    ins = generate(dim, 17, (1, 0, 0), "geodesic", "rational")
    side = ins.source_fields()
    assert side.B.value.is_zero()
    theta = side.space.theta
    w = side.omega
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                expected = Fraction(
                    (theta.value[k] if i == j else 0)
                    + (theta.value[j] if i == k else 0),
                    dim + 1,
                )
                assert w.value[i, j, k] == expected


def test_theta_tilde_is_theta_minus_deformation_trace():
    ins = generate(3, 18, (1, 1, 1), "general", "rational")
    side = ins.source_fields()
    expected = tc.sub(side.space.theta.value, side.b.value)
    assert side.theta_tilde.value.data == expected.data


def test_rule_trace_identity():
    # Tracing the rule gives exactly theta_bar - theta = (N+1) psi + (b_bar - b).
    for ins in [generate(3, 20, flags, "general", "rational")
                for flags in ((1, 0, 0), (1, 1, 0), (1, 1, 1))] + [
                    generate(4, 19, (1, 0, 0), "geodesic", "rational")]:
        src, tgt = ins.source_fields(), ins.target_fields()
        lhs = tc.sub(tgt.space.theta.value, src.space.theta.value)
        psi = tc.sub(ins.fields["u_bar"].value, ins.fields["u"].value)
        rhs = tc.add(
            tc.scale(psi, ins.dim + 1), tc.sub(tgt.b.value, src.b.value)
        )
        assert lhs.data == rhs.data, (ins.mapping, ins.flags)


# ------------------------------------------------------------------ agm data


def test_agm3_flags_and_pattern():
    ins = generate_agm3(3, 22, 1, "rational")
    assert ins.flags == (1, 0, 1)
    assert ins.mapping == "agm3"
    assert ins.p == 1
    assert set(ins.fields) == {
        "L", "u", "u_bar", "sigma", "phi", "nu", "mu", "phi_obj", "phi_obj_bar",
    }
    # The rank-two corrections realize the bilinear term: -+ half of phi (x) sigma.
    from geoinv.jet import jet_mul

    half = jet_mul(ins.fields["phi"], ins.fields["sigma"])
    assert ins.fields["phi_obj_bar"].value.data == tc.scale(half.value, Fraction(1, 2)).data
    assert ins.fields["phi_obj"].value.data == tc.scale(half.value, Fraction(-1, 2)).data


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_sym_with_product_is_symmetric_and_meets_its_target(dim):
    r = random.Random(dim)
    for _ in range(6):
        phi_v = mp._draw(r, tc.RATIONAL, dim, (1, 0))
        if phi_v.is_zero():
            continue
        for q in (1, 2):  # the value; every gradient slice at once
            target = mp._draw(r, tc.RATIONAL, dim, (0, q))
            S = mp._sym_with_product(r, tc.RATIONAL, phi_v, target)
            assert S.valence == (0, q + 1)
            assert tc.transpose_pair(S, 0, 1) == S
            d, phi, batch = S.data, phi_v.data, dim ** (q - 1)
            assert [sum(d[(j * dim + a) * batch + n] * phi[a] for a in range(dim))
                    for j in range(dim) for n in range(batch)] == target.data


def test_agm3_sigma_symmetric_and_negated_on_target():
    ins = generate_agm3(3, 23, 2, "rational")
    src, tgt = ins.source_fields(), ins.target_fields()
    assert tc.alternate(src.agm.sigma.value, 0, 1).is_zero()
    assert tgt.agm.sigma.value.data == tc.scale(src.agm.sigma.value, -1).data
    assert tgt.agm.sigma.grad.data == tc.scale(src.agm.sigma.grad, -1).data


@pytest.mark.parametrize("p", [1, 2])
def test_agm3_defining_constraint_holds(p):
    for dim in (3, 4):
        ins = generate_agm3(dim, 24, p, "rational")
        for side_name in ("source", "target"):
            side = (
                ins.source_fields() if side_name == "source" else ins.target_fields()
            )
            agm = side.agm
            M = vector_connection_derivative(agm.phi, side.space.L, p)
            recon = tc.add(
                tc.ein("i,j->ij", (1, 1), agm.phi.value, agm.nu),
                tc.scale(tc.delta(dim), agm.mu),
            )
            assert M.data == recon.data


@pytest.mark.parametrize("p", [1, 2])
def test_agm3_fit_recovers_parameters(p):
    ins = generate_agm3(3, 25, p, "rational")
    side = ins.source_fields()
    nu, mu, residual = fit_agm_parameters(side.agm.phi, side.space.L, p, "rational")
    assert residual == 0
    assert nu.data == side.agm.nu.data
    assert mu == side.agm.mu


def test_agm3_is_equitorsion():
    ins = generate_agm3(4, 26, 1, "rational")
    src, tgt = ins.source_fields(), ins.target_fields()
    assert src.space.Ltor.value.data == tgt.space.Ltor.value.data


def test_fit_rejects_vanishing_vector():
    ins = generate_agm3(3, 27, 1, "rational")
    with pytest.raises(DegenerateError):
        fit_agm_parameters(zero_jet(3, (1, 0)), ins.fields["L"], 1, "rational")


def test_fit_rejects_bad_kind():
    ins = generate_agm3(3, 27, 1, "rational")
    side = ins.source_fields()
    with pytest.raises(InstanceError):
        fit_agm_parameters(side.agm.phi, side.space.L, 3, "rational")


def test_fit_reports_nonzero_residual_off_family():
    ins = generate_agm3(3, 28, 1, "rational")
    side = ins.source_fields()
    # Perturb one connection entry; the derivative relation then fails.
    data = list(side.space.L.value.data)
    data[1] += Fraction(1, 2)
    bumped = JetTensor(Tensor(3, (1, 2), data), side.space.L.grad)
    _, _, residual = fit_agm_parameters(side.agm.phi, bumped, 1, "rational")
    assert residual != 0


def test_fit_float_mode_matches_rational():
    ins = generate_agm3(3, 29, 2, "rational")
    side = ins.source_fields()
    nu_r, mu_r, _ = fit_agm_parameters(side.agm.phi, side.space.L, 2, "rational")
    phi_f = JetTensor(
        Tensor(3, (1, 0), [float(x) for x in side.agm.phi.value.data]),
        Tensor(3, (1, 1), [float(x) for x in side.agm.phi.grad.data]),
    )
    L_f = JetTensor(
        Tensor(3, (1, 2), [float(x) for x in side.space.L.value.data]),
        Tensor(3, (1, 3), [float(x) for x in side.space.L.grad.data]),
    )
    nu_f, mu_f, residual = fit_agm_parameters(phi_f, L_f, 2, "float")
    assert residual < 1e-9
    assert max(abs(a - float(b)) for a, b in zip(nu_f.data, nu_r.data)) < 1e-9
    assert abs(mu_f - float(mu_r)) < 1e-9


@pytest.mark.parametrize("num", [int, float])
def test_fit_divides_exactly_on_int_entries(num):
    # phi = (2, 1), phi_,j = [[3, 1], [0, 1]], zero connection: the pivot is
    # phi^0 = 2, so nu = (5/4, 1/2), mu = 1/2 and the residual is 5/4.  Int
    # entries come back as exact Fractions; the float twin keeps float division.
    phi = JetTensor(Tensor(2, (1, 0), [num(2), num(1)]),
                    Tensor(2, (1, 1), [num(x) for x in (3, 1, 0, 1)]))
    nu, mu, residual = fit_agm_parameters(phi, zero_jet(2, (1, 2)), 1, "rational")
    want = Fraction if num is int else float
    assert [type(x) for x in nu.data + [mu, residual]] == [want] * 4
    assert nu.data == [Fraction(5, 4), Fraction(1, 2)]
    assert (mu, residual) == (Fraction(1, 2), Fraction(5, 4))


# ------------------------------------------- vector connection derivative


def test_vector_connection_derivative_loop_oracles():
    rng = random.Random(30)
    dim = 3
    phi = JetTensor(
        Tensor(dim, (1, 0), [Fraction(rng.randint(-4, 4), 2) for _ in range(dim)]),
        Tensor(dim, (1, 1), [Fraction(rng.randint(-4, 4), 2) for _ in range(dim**2)]),
    )
    L = JetTensor(
        Tensor(dim, (1, 2), [Fraction(rng.randint(-4, 4), 2) for _ in range(dim**3)]),
        Tensor(dim, (1, 3), [Fraction(rng.randint(-4, 4), 2) for _ in range(dim**4)]),
    )
    out1 = vector_connection_derivative(phi, L, 1)
    out2 = vector_connection_derivative(phi, L, 2)
    lit2 = vector_connection_derivative(phi, L, 2, literal=True)
    for i in range(dim):
        for j in range(dim):
            base = phi.grad[i, j]
            first = base + sum(L.value[i, a, j] * phi.value[a] for a in range(dim))
            second = base + sum(L.value[i, j, a] * phi.value[a] for a in range(dim))
            literal = base + sum(L.value[i, j, a] for a in range(dim))
            assert out1[i, j] == first
            assert out2[i, j] == second
            assert lit2[i, j] == literal


def test_vector_connection_derivative_kind_errors():
    ins = generate_agm3(3, 31, 1, "rational")
    side = ins.source_fields()
    with pytest.raises(NotApplicableError):
        vector_connection_derivative(side.agm.phi, side.space.L, 1, literal=True)
    with pytest.raises(InstanceError):
        vector_connection_derivative(side.agm.phi, side.space.L, 5)


@pytest.mark.parametrize("flags", [(1, 1, 0), (1, 1, 1), (0, 1, 1)])
@pytest.mark.parametrize("dim", [3, 4, 5])
def test_each_side_builds_its_s2_rule_term_once(monkeypatch, dim, flags):
    # B and the target connection share one side's rule terms, so the
    # f (x) sigma product is made once per side, not once per reader
    ins = generate(dim, 0, flags, "general", "rational")
    calls = []
    real = mp.jet_mul

    def spy(a, b):
        calls.append((id(a), id(b)))
        return real(a, b)

    monkeypatch.setattr(mp, "jet_mul", spy)
    cli.pair_invariants(ins)
    assert len(calls) == 2
    assert len(set(calls)) == 2


@pytest.mark.parametrize("mapping", ["general", "agm3"])
def test_memo_values_do_not_keep_their_instance_alive(mapping):
    # memo results live on their owners; one that referred back to its owner
    # would make a cycle that only the cycle collector frees
    ins = (generate(3, 0, (1, 1, 1), "general", "rational") if mapping == "general"
           else generate_agm3(3, 0, 1, "rational"))
    gc.disable()
    try:
        cli.pair_invariants(ins)
        sides = (ins.source_fields(), ins.target_fields())
        owners = [ins, *sides, *(s.space for s in sides)]
        if mapping == "agm3":
            # the closed forms' parts and blocks are memo values of the sides
            assert all(agm.agm_diagnostics(side) for side in sides)
        refs = [weakref.ref(owner) for owner in owners]
        del ins, sides, owners
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()
