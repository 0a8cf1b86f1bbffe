"""Closed-form invariants of the third-type almost-geodesic rule.

The generic pipeline (``invariants``) is the ground truth here: every closed
form below is also assembled group-by-group so it can be diffed against its
pipeline counterpart.  Each form exists in two variants:

* ``printed=False`` (default): the corrected expansion, equal to the pipeline
  value exactly; this is what the invariance machinery uses.
* ``printed=True``: the form with its published coefficients, kept only so
  ``agm_diagnostics`` can report where the two disagree.  Several published
  coefficients are provably inconsistent with the forms' own derivation (they
  break invariance), so the printed variants are never certified — only
  measured.
"""

from __future__ import annotations

from . import tensor_core as tc
from .invariants import (
    A_tensor,
    DecompositionError,
    S_tilde,
    rho,
    weyl_factored,
    weyl_first_display,
    weyl_fourth,
)
from .jet import covariant_derivative
from .mappings import NotApplicableError, SpaceFields
from .tensor_core import Tensor


class AGMDecomposition:
    """Deformation curvature split into trace-diagonal, trace-mixed and rest;
    q_u and ntr_u are Q and N's last-slot trace, each symmetrized."""

    __slots__ = ("P", "Q", "N", "q_u", "ntr_u")

    def __init__(self, P: Tensor, Q: Tensor, N: Tensor):
        if P.valence != (0, 2) or Q.valence != (0, 2) or N.valence != (1, 3):
            raise DecompositionError(
                f"PQN valences must be (0,2),(0,2),(1,3); got "
                f"{P.valence}, {Q.valence}, {N.valence}"
            )
        self.P = P
        self.Q = Q
        self.N = N
        self.q_u = tc.sym_pair(Q, 0, 1)
        self.ntr_u = tc.sym_pair(tc.ein("ajna->jn", (0, 2), N), 0, 1)

    def rebuild(self) -> Tensor:
        """The deformation curvature again: delta_outer(alt P) + delta_mix(Q) + N."""
        return tc.add(tc.delta_outer(tc.alternate(self.P, 0, 1)),
                      tc.add(tc.delta_mix(self.Q), self.N))

    def rebuild_trace(self) -> Tensor:
        """Symmetrized last-slot trace of ``rebuild()``: ntr_u - (N-1) q_u."""
        return tc.add_scaled(self.ntr_u, -(self.Q.dim - 1), self.q_u)


class _Blocks:
    """Shared sub-tensors of the closed forms, computed once per bundle."""

    def __init__(self, fields: SpaceFields):
        agm = fields.agm
        if agm is None:
            raise NotApplicableError(
                "closed almost-geodesic forms need the vector-field block")
        space = fields.space
        N = space.dim
        C = fields.domain.c
        self.N = N
        self.C = C
        self.eps = -1 if agm.p % 2 else 1
        self.R = space.R
        sv = agm.sigma.value
        pv = agm.phi.value
        self.sv, self.pv, self.nu, self.mu = sv, pv, agm.nu, agm.mu
        self.sigma_cd = covariant_derivative(agm.sigma, space.Lsym)
        ltor = space.Ltor.value
        self.w = tc.ein("ja,a->j", (0, 1), sv, pv)
        self.theta_t = tc.add_scaled(space.theta.value, C(1, 2), self.w)
        self.torphi = tc.ein("ian,a->in", (1, 1), ltor, pv)
        tl = tc.ein("bab->a", (0, 1), ltor)
        self.nuphi = tc.ein("a,a->", (0, 0), agm.nu, pv)
        self.tlphi = tc.ein("a,a->", (0, 0), tl, pv)
        self.sphiphi = tc.ein("ab,a,b->", (0, 0), sv, pv, pv)
        self.ttphi = tc.ein("a,a->", (0, 0), self.theta_t, pv)

        self.theta_prime = space.trace_cov_derivative()
        # deformation-curvature group structures (coefficient-free)
        self.a_mu = tc.delta_mix(tc.scale(sv, agm.mu))
        self.a_cd = tc.alternate(
            tc.ein("jmn,i->ijmn", (1, 3), self.sigma_cd, pv), 2, 3)
        self.a_quad = tc.alternate(
            tc.ein("jm,an,a,i->ijmn", (1, 3), sv, sv, pv, pv), 2, 3)
        self.a_nutor = tc.alternate(
            tc.add_scaled(tc.ein("jm,n,i->ijmn", (1, 3), sv, agm.nu, pv),
                          self.eps,
                          tc.ein("jm,in->ijmn", (1, 3), sv, self.torphi)),
            2, 3)
        # trace-group cores
        self.y_cd_j = tc.ein("jan,a->jn", (0, 2), self.sigma_cd, pv)
        self.y_cd_n = tc.ein("jna,a->jn", (0, 2), self.sigma_cd, pv)
        self.y_wnu = tc.ein("j,n->jn", (0, 2), self.w, agm.nu)
        self.y_tor = tc.ein("ja,abn,b->jn", (0, 2), sv, ltor, pv)
        self.y_ww = tc.ein("j,n->jn", (0, 2), self.w, self.w)
        self.y_tt = tc.ein("j,n->jn", (0, 2), self.theta_t, self.theta_t)

    def scalar_sigma(self, scalar) -> Tensor:
        return tc.scale(self.sv, scalar.data[0])


def _blocks(fields: SpaceFields) -> _Blocks:
    got = fields._cache.get("agm_blocks")
    if got is None:
        got = fields._cache["agm_blocks"] = _Blocks(fields)
    return got


def _deform_groups(b: _Blocks, printed: bool) -> dict[str, Tensor]:
    """The deformation-curvature expansion, grouped like its display."""
    C = b.C
    q = C(1, 4) if printed else C(1, 2)
    return {
        "mu": tc.scale(b.a_mu, C(-1, 4) if printed else C(-1, 2)),
        "cd": tc.scale(b.a_cd, q),
        "quad": tc.scale(b.a_quad, C(1, 4)),
        "nutor": tc.scale(b.a_nutor, q),
    }


def _groups_basic(fields: SpaceFields, printed: bool) -> dict[str, Tensor]:
    b = _blocks(fields)
    N, C, eps = b.N, b.C, b.eps
    g = _deform_groups(b, printed)
    mu_c = C(-(N + 3), 4 * (N + 1)) if printed else C(-(N + 2), 2 * (N + 1))
    return {
        "curvature": b.R,
        "deform-mu": tc.scale(b.a_mu, mu_c),
        "deform-cd": g["cd"],
        "deform-quad": g["quad"],
        "deform-nutor": g["nutor"],
        "trace-theta": tc.scale(tc.delta_mix(b.theta_prime), C(-1, N + 1)),
        "trace-cd": tc.scale(tc.delta_mix(b.y_cd_j), C(-1, 2 * (N + 1))),
        "trace-nu": tc.scale(tc.delta_mix(b.y_wnu), C(-1, 2 * (N + 1))),
        "trace-tor": tc.scale(tc.delta_mix(b.y_tor), C(-eps, 2 * (N + 1))),
        "trace-scalar": tc.scale(tc.delta_mix(b.scalar_sigma(b.ttphi)),
                                 C(1, 2 * (N + 1))),
        "trace-outer": tc.scale(tc.delta_mix(b.y_tt), C(-1, (N + 1) ** 2)),
    }


def _groups_fourth(fields: SpaceFields, printed: bool) -> dict[str, Tensor]:
    b = _blocks(fields)
    N, C, eps = b.N, b.C, b.eps
    g = _deform_groups(b, printed)
    ric = fields.space.ricci
    ric_y = ric if printed else tc.sym_pair(ric, 0, 1)
    if printed:
        tr_cd = tc.scale(tc.sub(tc.delta_mix(b.y_cd_n), tc.delta_mix(b.y_cd_j)),
                         C(1, 4 * (N - 1)))
        half = C(1, 4 * (N - 1))
        wnu, tor = b.y_wnu, b.y_tor
    else:
        tr_cd = tc.scale(
            tc.sub(tc.delta_mix(b.y_cd_n),
                   tc.delta_mix(tc.sym_pair(b.y_cd_j, 0, 1))),
            C(1, 2 * (N - 1)))
        half = C(1, 2 * (N - 1))
        wnu = tc.sym_pair(b.y_wnu, 0, 1)
        tor = tc.sym_pair(b.y_tor, 0, 1)
    return {
        "curvature": b.R,
        "ricci": tc.scale(tc.delta_mix(ric_y), C(1, N - 1)),
        "deform-mu": tc.zeros(N, (1, 3)),
        "deform-cd": g["cd"],
        "deform-quad": g["quad"],
        "deform-nutor": g["nutor"],
        "trace-cd": tr_cd,
        "trace-scalar-quad": tc.scale(tc.delta_mix(b.scalar_sigma(b.sphiphi)),
                                      C(1, 4 * (N - 1))),
        "trace-scalar-nu": tc.scale(tc.delta_mix(b.scalar_sigma(b.nuphi)), half),
        "trace-scalar-tor": tc.scale(tc.delta_mix(b.scalar_sigma(b.tlphi)),
                                     eps * half),
        "trace-outer-quad": tc.scale(tc.delta_mix(b.y_ww), C(-1, 4 * (N - 1))),
        "trace-outer-nu": tc.scale(tc.delta_mix(wnu), -half),
        "trace-outer-tor": tc.scale(tc.delta_mix(tor), -eps * half),
    }


def _groups_first(fields: SpaceFields, printed: bool) -> dict[str, Tensor]:
    b = _blocks(fields)
    N, C, eps = b.N, b.C, b.eps
    g = _deform_groups(b, printed)
    if printed:
        mu_c = C(-(N + 2) ** 2, 4 * (N + 1) ** 2)
        over = C(1, 4 * (N + 1) ** 2 * (N - 1))
        over_cd = tc.scale(tc.sub(tc.delta_mix(b.y_cd_n), tc.delta_mix(b.y_cd_j)),
                           -over)
        over_quad = tc.scale(
            tc.sub(tc.delta_mix(b.scalar_sigma(b.sphiphi)), tc.delta_mix(b.y_ww)),
            -over)
        nutor_in = tc.add_scaled(
            tc.sub(tc.delta_mix(b.scalar_sigma(b.nuphi)), tc.delta_mix(b.y_wnu)),
            eps,
            tc.sub(tc.delta_mix(b.scalar_sigma(b.tlphi)), tc.delta_mix(b.y_tor)))
        over_nutor = tc.scale(nutor_in, -over)
    else:
        mu_c = C(-(N * N + 4 * N + 1), 2 * (N + 1) ** 2)
        over_cd = tc.scale(
            tc.sub(tc.delta_mix(b.y_cd_n),
                   tc.delta_mix(tc.sym_pair(b.y_cd_j, 0, 1))),
            C(-1, 2 * (N + 1) ** 2))
        over_quad = tc.scale(
            tc.sub(tc.delta_mix(b.scalar_sigma(b.sphiphi)), tc.delta_mix(b.y_ww)),
            C(-1, 4 * (N + 1) ** 2))
        nutor_in = tc.add_scaled(
            tc.sub(tc.delta_mix(b.scalar_sigma(b.nuphi)),
                   tc.delta_mix(tc.sym_pair(b.y_wnu, 0, 1))),
            eps,
            tc.sub(tc.delta_mix(b.scalar_sigma(b.tlphi)),
                   tc.delta_mix(tc.sym_pair(b.y_tor, 0, 1))))
        over_nutor = tc.scale(nutor_in, C(-1, 2 * (N + 1) ** 2))
    return {
        "curvature": b.R,
        "trace-theta": tc.scale(tc.delta_mix(b.theta_prime), C(-1, N + 1)),
        "trace-cd": tc.scale(tc.delta_mix(b.y_cd_j), C(-1, 2 * (N + 1))),
        "trace-nu": tc.scale(tc.delta_mix(b.y_wnu), C(-1, 2 * (N + 1))),
        "trace-tor": tc.scale(tc.delta_mix(b.y_tor), C(-eps, 2 * (N + 1))),
        "deform-mu": tc.scale(b.a_mu, mu_c),
        "deform-cd": g["cd"],
        "deform-quad": g["quad"],
        "deform-nutor": g["nutor"],
        "over-cd": over_cd,
        "over-quad": over_quad,
        "over-nutor": over_nutor,
    }


def _total(groups: dict[str, Tensor]) -> Tensor:
    out = None
    for t in groups.values():
        out = t.copy() if out is None else tc.add(out, t)
    return out


def agm_basic(fields: SpaceFields, *, printed: bool = False) -> Tensor:
    """Basic Weyl-type closed form of the vector-field rule."""
    return _total(_groups_basic(fields, printed))


def agm_fourth(fields: SpaceFields, *, printed: bool = False) -> Tensor:
    """Fourth derived closed form of the vector-field rule."""
    return _total(_groups_fourth(fields, printed))


def agm_first(fields: SpaceFields, *, printed: bool = False) -> Tensor:
    """First derived closed form of the vector-field rule.

    The corrected variant equals the pipeline's display-form composition,
    which is itself invariant only up to a skew-Ricci trace term; see the
    first-derived pipeline functions for the closed invariant.
    """
    return _total(_groups_first(fields, printed))


def agm_invariants(fields: SpaceFields) -> tuple[Tensor, Tensor, Tensor]:
    """The three corrected closed forms (basic, fourth, first)."""
    return agm_basic(fields), agm_fourth(fields), agm_first(fields)


def rho_closed(fields: SpaceFields) -> Tensor:
    """Closed form of the deformation-trace derivative for this rule."""
    b = _blocks(fields)
    C, eps = b.C, b.eps
    out = tc.add(b.y_cd_j, b.y_wnu)
    out = tc.add(out, tc.scale(b.sv, b.mu))
    out = tc.add_scaled(out, eps, b.y_tor)
    return tc.scale(out, C(-1, 2))


def s_tilde_closed(fields: SpaceFields) -> Tensor:
    """Closed form of the quadratic trace completion for this rule."""
    b = _blocks(fields)
    N, C = b.N, b.C
    return tc.add_scaled(b.y_tt, C(-(N + 1), 2), b.scalar_sigma(b.ttphi))


def agm_decompose(fields: SpaceFields) -> AGMDecomposition:
    """Split the deformation curvature into its trace-mixed part and rest.

    Validates the reconstruction against the pipeline's deformation
    curvature; a residual means the input bundle is inconsistent.
    """
    b = _blocks(fields)
    g = _deform_groups(b, printed=False)
    dec = AGMDecomposition(tc.zeros(b.N, (0, 2)),
                           tc.scale(b.sv, -(b.mu * b.C(1, 2))),
                           tc.add(g["cd"], tc.add(g["quad"], g["nutor"])))
    ok, resid, _ = fields.domain.measure(dec.rebuild(), A_tensor(fields))
    if not ok:
        raise DecompositionError(
            f"deformation-curvature reconstruction residual {resid}")
    return dec


def weyl_forms_from_decomposition(dec: AGMDecomposition, fields: SpaceFields
                                  ) -> tuple[Tensor, Tensor, Tensor]:
    """The factored, fourth and first-display forms re-expressed through a
    decomposition of the deformation curvature (exact substitutions)."""
    C = fields.domain.c
    N = fields.dim
    space = fields.space
    curv = tc.add(space.R, dec.rebuild())
    first_base = tc.add_scaled(
        curv, C(-1, N + 1),
        tc.sub(tc.delta_mix(space.trace_cov_derivative()),
               tc.delta_mix(rho(fields))))

    first = tc.add_scaled(first_base, C(-1, (N + 1) ** 2),
                          tc.delta_mix(S_tilde(fields)))

    fourth = tc.add_scaled(curv, C(1, N - 1),
                           tc.delta_mix(tc.sym_pair(space.ricci, 0, 1)))
    fourth = tc.sub(fourth, tc.delta_mix(dec.q_u))
    fourth = tc.add_scaled(fourth, C(1, N - 1), tc.delta_mix(dec.ntr_u))

    first_disp = tc.add_scaled(first_base, C(N - 1, (N + 1) ** 2),
                               tc.delta_mix(dec.q_u))
    first_disp = tc.add_scaled(first_disp, C(-1, (N + 1) ** 2),
                               tc.delta_mix(dec.ntr_u))
    return first, fourth, first_disp


def agm_diagnostics(fields: SpaceFields) -> list[dict]:
    """Group-by-group diff of the published closed forms against the
    corrected expansions, plus corrected-total-versus-pipeline rows; a row
    matches when its two sides are close in the fields' domain."""
    b = _blocks(fields)
    N, C = b.N, b.C
    rows: list[dict] = []

    def row(section: str, group: str, x: Tensor, y: Tensor) -> None:
        ok, resid, _ = fields.domain.measure(x, y)
        rows.append({"section": section, "group": group,
                     "status": "match" if ok else "mismatch", "max_abs": float(resid)})

    dp = _deform_groups(b, printed=True)
    dd = _deform_groups(b, printed=False)
    for key in dd:
        row("deform", key, dp[key], dd[key])
    row("deform", "total-vs-pipeline", _total(dd), A_tensor(fields))

    row("trace-derivative", "full", rho_closed(fields), rho(fields))
    row("trace-completion", "full", s_tilde_closed(fields), S_tilde(fields))

    for section, maker, pipeline in (
            ("basic", _groups_basic, weyl_factored),
            ("fourth", _groups_fourth, weyl_fourth),
            ("first", _groups_first, weyl_first_display)):
        gp = maker(fields, True)
        gd = maker(fields, False)
        for key in gd:
            row(section, key, gp[key], gd[key])
        row(section, "total-vs-pipeline", _total(gd), pipeline(fields))

    dec = agm_decompose(fields)
    first, fourth, first_disp = weyl_forms_from_decomposition(dec, fields)
    row("split", "first-vs-pipeline", first, weyl_factored(fields))
    row("split", "fourth-vs-pipeline", fourth, weyl_fourth(fields))
    row("split", "first-display-vs-pipeline", first_disp,
        weyl_first_display(fields))
    # trace identity of the split, and the published variants' gaps
    a_tr_u = tc.sym_pair(tc.ein("ajna->jn", (0, 2), A_tensor(fields)), 0, 1)
    row("split", "trace-identity", a_tr_u, dec.rebuild_trace())
    # the published fourth drops the trace-mixed pair (no-op when symmetric)
    pr_fourth = tc.sub(fourth, tc.sub(tc.delta_mix(dec.Q), tc.delta_mix(dec.q_u)))
    row("split", "fourth-published", pr_fourth, fourth)
    # the published first-display scales both trace corrections down by N-1
    pr_first_disp = tc.add_scaled(first_disp, C(-(N - 2), (N + 1) ** 2),
                                  tc.delta_mix(dec.q_u))
    pr_first_disp = tc.add_scaled(pr_first_disp,
                                  C(N - 2, (N + 1) ** 2 * (N - 1)),
                                  tc.delta_mix(dec.ntr_u))
    row("split", "first-display-published", pr_first_disp, first_disp)
    return rows
