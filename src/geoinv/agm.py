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

One builder per form makes both variants; they differ only in coefficients
and in which trace cores are symmetrized, and share the delta blocks that
``_Blocks`` builds once per bundle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from . import tensor_core as tc
from .invariants import (
    A_tensor,
    A_trace,
    Decomposition,
    DecompositionError,
    S_tilde,
    delta_block,
    rho,
    weyl_factored,
    weyl_first_display,
    weyl_fourth,
)
from .jet import covariant_derivative
from .mappings import NotApplicableError, SpaceFields
from .tensor_core import Tensor, once


class _Blocks:
    """Shared sub-tensors of the closed forms, computed once per bundle.

    ``y`` holds the (0,2) cores of the trace groups and ``mix`` their delta
    blocks; the trace derivative's and the symmetrized Ricci tensor's are the
    pipeline forms' (``delta_block``).  The corrected forms symmetrize four
    of the cores before the delta block, the printed ones do not;
    ``variant`` picks a form's blocks.
    """

    def __init__(self, fields: SpaceFields):
        agm = fields.agm
        if agm is None:
            raise NotApplicableError(
                "closed almost-geodesic forms need the vector-field block")
        space = fields.space
        N = space.dim
        self.N = N
        self.eps = -1 if agm.p % 2 else 1
        self.R = space.R
        sv = agm.sigma.value
        pv = agm.phi.value
        self.sv, self.mu = sv, agm.mu
        sigma_cd = covariant_derivative(agm.sigma, space.Lsym)
        ltor = space.Ltor.value
        w = tc.ein("ja,a->j", (0, 1), sv, pv)
        theta_t = tc.add_scaled(space.theta.value, Fraction(1, 2), w)
        torphi = tc.ein("ian,a->in", (1, 1), ltor, pv)
        tl = tc.ein("bab->a", (0, 1), ltor)
        nuphi = tc.ein("a,a->", (0, 0), agm.nu, pv)
        tlphi = tc.ein("a,a->", (0, 0), tl, pv)
        sphiphi = tc.ein("ab,a,b->", (0, 0), sv, pv, pv)
        ttphi = tc.ein("a,a->", (0, 0), theta_t, pv)

        # deformation-curvature group structures (coefficient-free)
        self.a_mu = tc.delta_mix(tc.scale(sv, agm.mu))
        self.a_cd = tc.alternate(
            tc.ein("jmn,i->ijmn", (1, 3), sigma_cd, pv), 2, 3)
        self.a_quad = tc.alternate(
            tc.ein("jm,an,a,i->ijmn", (1, 3), sv, sv, pv, pv), 2, 3)
        self.a_nutor = tc.alternate(
            tc.add_scaled(tc.ein("jm,n,i->ijmn", (1, 3), sv, agm.nu, pv),
                          self.eps,
                          tc.ein("jm,in->ijmn", (1, 3), sv, torphi)),
            2, 3)

        def sigma_times(scalar) -> Tensor:
            return tc.scale(sv, scalar.data[0])

        self.y = {
            "cd_j": tc.ein("jan,a->jn", (0, 2), sigma_cd, pv),
            "cd_n": tc.ein("jna,a->jn", (0, 2), sigma_cd, pv),
            "w_nu": tc.ein("j,n->jn", (0, 2), w, agm.nu),
            "tor": tc.ein("ja,abn,b->jn", (0, 2), sv, ltor, pv),
            "w_w": tc.ein("j,n->jn", (0, 2), w, w),
            "tt_tt": tc.ein("j,n->jn", (0, 2), theta_t, theta_t),
            "s_tt": sigma_times(ttphi),
            "s_quad": sigma_times(sphiphi),
            "s_nu": sigma_times(nuphi),
            "s_tor": sigma_times(tlphi),
            "ricci": space.ricci,
        }
        self.mix = {"theta": delta_block(fields, "theta"),
                    **{k: tc.delta_mix(y) for k, y in self.y.items()}}
        self.mix_sym = {
            **self.mix, "ricci": delta_block(fields, "sym_ricci"),
            **{k: tc.delta_mix(tc.sym_pair(self.y[k], 0, 1))
               for k in ("cd_j", "w_nu", "tor")}}
        # the trace groups the basic and first forms share, in both variants
        self.trace = {
            "trace-theta": tc.scale(self.mix["theta"], Fraction(-1, N + 1)),
            "trace-cd": tc.scale(self.mix["cd_j"], Fraction(-1, 2 * (N + 1))),
            "trace-nu": tc.scale(self.mix["w_nu"], Fraction(-1, 2 * (N + 1))),
            "trace-tor": tc.scale(self.mix["tor"],
                                  Fraction(-self.eps, 2 * (N + 1))),
        }

    def variant(self, printed: bool) -> dict[str, Tensor]:
        """The delta blocks of one variant's cores."""
        return self.mix if printed else self.mix_sym

    @once
    def deform(self, printed: bool) -> dict[str, Tensor]:
        """The deformation-curvature expansion, grouped like its display."""
        q = Fraction(1, 4 if printed else 2)
        return {
            "mu": tc.scale(self.a_mu, -q),
            "cd": tc.scale(self.a_cd, q),
            "quad": tc.scale(self.a_quad, Fraction(1, 4)),
            "nutor": tc.scale(self.a_nutor, q),
        }


@once
def _blocks(fields: SpaceFields) -> _Blocks:
    return _Blocks(fields)


def _groups_basic(fields: SpaceFields, printed: bool) -> dict[str, Tensor]:
    b = _blocks(fields)
    N = b.N
    g = b.deform(printed)
    mu_c = (Fraction(-(N + 3), 4 * (N + 1)) if printed
            else Fraction(-(N + 2), 2 * (N + 1)))
    return {
        "curvature": b.R,
        "deform-mu": tc.scale(b.a_mu, mu_c),
        "deform-cd": g["cd"],
        "deform-quad": g["quad"],
        "deform-nutor": g["nutor"],
        **b.trace,
        "trace-scalar": tc.scale(b.mix["s_tt"], Fraction(1, 2 * (N + 1))),
        "trace-outer": tc.scale(b.mix["tt_tt"], Fraction(-1, (N + 1) ** 2)),
    }


def _groups_fourth(fields: SpaceFields, printed: bool) -> dict[str, Tensor]:
    b = _blocks(fields)
    N, eps = b.N, b.eps
    g = b.deform(printed)
    m = b.variant(printed)
    half = Fraction(1, (4 if printed else 2) * (N - 1))
    return {
        "curvature": b.R,
        "ricci": tc.scale(m["ricci"], Fraction(1, N - 1)),
        "deform-mu": tc.zeros(N, (1, 3)),
        "deform-cd": g["cd"],
        "deform-quad": g["quad"],
        "deform-nutor": g["nutor"],
        "trace-cd": tc.scale(tc.sub(m["cd_n"], m["cd_j"]), half),
        "trace-scalar-quad": tc.scale(m["s_quad"], Fraction(1, 4 * (N - 1))),
        "trace-scalar-nu": tc.scale(m["s_nu"], half),
        "trace-scalar-tor": tc.scale(m["s_tor"], eps * half),
        "trace-outer-quad": tc.scale(m["w_w"], Fraction(-1, 4 * (N - 1))),
        "trace-outer-nu": tc.scale(m["w_nu"], -half),
        "trace-outer-tor": tc.scale(m["tor"], -eps * half),
    }


def _groups_first(fields: SpaceFields, printed: bool) -> dict[str, Tensor]:
    b = _blocks(fields)
    N, eps = b.N, b.eps
    g = b.deform(printed)
    m = b.variant(printed)
    if printed:
        mu_c = Fraction(-(N + 2) ** 2, 4 * (N + 1) ** 2)
        over_cd = over_quad = Fraction(-1, 4 * (N + 1) ** 2 * (N - 1))
    else:
        mu_c = Fraction(-(N * N + 4 * N + 1), 2 * (N + 1) ** 2)
        over_cd = Fraction(-1, 2 * (N + 1) ** 2)
        over_quad = Fraction(-1, 4 * (N + 1) ** 2)
    nutor_in = tc.add_scaled(tc.sub(m["s_nu"], m["w_nu"]),
                             eps, tc.sub(m["s_tor"], m["tor"]))
    return {
        "curvature": b.R,
        **b.trace,
        "deform-mu": tc.scale(b.a_mu, mu_c),
        "deform-cd": g["cd"],
        "deform-quad": g["quad"],
        "deform-nutor": g["nutor"],
        "over-cd": tc.scale(tc.sub(m["cd_n"], m["cd_j"]), over_cd),
        "over-quad": tc.scale(tc.sub(m["s_quad"], m["w_w"]), over_quad),
        "over-nutor": tc.scale(nutor_in, over_cd),
    }


def _total(groups: dict[str, Tensor]) -> Tensor:
    return reduce(tc.add, groups.values())


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
    out = tc.add(b.y["cd_j"], b.y["w_nu"])
    out = tc.add(out, tc.scale(b.sv, b.mu))
    out = tc.add_scaled(out, b.eps, b.y["tor"])
    return tc.scale(out, Fraction(-1, 2))


def s_tilde_closed(fields: SpaceFields) -> Tensor:
    """Closed form of the quadratic trace completion for this rule."""
    b = _blocks(fields)
    return tc.add_scaled(b.y["tt_tt"], Fraction(-(b.N + 1), 2), b.y["s_tt"])


def agm_decompose(fields: SpaceFields) -> Decomposition:
    """Split the deformation curvature into its trace-mixed part, with
    Y = -mu/2 sigma, and the rest.

    Validates the reconstruction against the pipeline's deformation
    curvature; a residual means the input bundle is inconsistent.
    """
    b = _blocks(fields)
    g = b.deform(False)
    dec = Decomposition(tc.scale(b.sv, -(b.mu * Fraction(1, 2))),
                        tc.add(g["cd"], tc.add(g["quad"], g["nutor"])))
    ok, resid, _ = fields.domain.measure(dec.total, A_tensor(fields))
    if not ok:
        raise DecompositionError(
            f"deformation-curvature reconstruction residual {resid}")
    return dec


def weyl_forms_from_decomposition(dec: Decomposition, fields: SpaceFields
                                  ) -> tuple[Tensor, Tensor, Tensor]:
    """The factored, fourth and first-display forms re-expressed through a
    decomposition of the deformation curvature (exact substitutions); the
    fourth is ``derived_invariants(dec, fields.space)["fourth"]``."""
    N, R = fields.dim, fields.space.R
    first_base = tc.add_scaled(
        tc.add(R, dec.total), Fraction(-1, N + 1),
        tc.sub(delta_block(fields, "theta"), delta_block(fields, "rho")))
    first = tc.add_scaled(first_base, Fraction(-1, (N + 1) ** 2),
                          delta_block(fields, "s_tilde"))
    c = Fraction(1, N - 1)
    fourth = tc.add_scaled(tc.add(R, dec.Z), c, delta_block(fields, "sym_ricci"))
    fourth = tc.add_scaled(fourth, c, dec.mix_z_trace)
    first_disp = tc.add_scaled(first_base, Fraction(N - 1, (N + 1) ** 2),
                               dec.mix_Y)
    first_disp = tc.add_scaled(first_disp, Fraction(-1, (N + 1) ** 2),
                               dec.mix_z_trace)
    return first, fourth, first_disp


def agm_diagnostics(fields: SpaceFields) -> list[dict]:
    """Group-by-group diff of the published closed forms against the
    corrected expansions, plus corrected-total-versus-pipeline rows; a row
    matches when its two sides are close in the fields' domain."""
    b = _blocks(fields)
    N = b.N
    rows: list[dict] = []

    def row(section: str, group: str, x: Tensor, y: Tensor) -> None:
        ok, resid, _ = fields.domain.measure(x, y)
        rows.append({"section": section, "group": group,
                     "status": "match" if ok else "mismatch", "max_abs": float(resid)})

    dp, dd = b.deform(True), b.deform(False)
    for key in dd:
        row("deform", key, dp[key], dd[key])
    row("deform", "total-vs-pipeline", _total(dd), A_tensor(fields))

    row("trace-derivative", "full", rho_closed(fields), rho(fields))
    row("trace-completion", "full", s_tilde_closed(fields), S_tilde(fields))

    pipeline = {"basic": weyl_factored(fields), "fourth": weyl_fourth(fields),
                "first": weyl_first_display(fields)}
    for section, maker in (("basic", _groups_basic), ("fourth", _groups_fourth),
                           ("first", _groups_first)):
        gp = maker(fields, True)
        gd = maker(fields, False)
        for key in gd:
            row(section, key, gp[key], gd[key])
        row(section, "total-vs-pipeline", _total(gd), pipeline[section])

    dec = agm_decompose(fields)
    first, fourth, first_disp = weyl_forms_from_decomposition(dec, fields)
    row("split", "first-vs-pipeline", first, pipeline["basic"])
    row("split", "fourth-vs-pipeline", fourth, pipeline["fourth"])
    row("split", "first-display-vs-pipeline", first_disp, pipeline["first"])
    # trace identity of the split, and the published first-display gap
    row("split", "trace-identity", A_trace(fields), dec.total_trace())
    # the published first-display scales both trace corrections down by N-1
    pr_first_disp = tc.add_scaled(first_disp, Fraction(-(N - 2), (N + 1) ** 2),
                                  dec.mix_Y)
    pr_first_disp = tc.add_scaled(pr_first_disp,
                                  Fraction(N - 2, (N + 1) ** 2 * (N - 1)),
                                  dec.mix_z_trace)
    row("split", "first-display-published", pr_first_disp, first_disp)
    return rows
