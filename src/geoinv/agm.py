"""Closed-form invariants of the third-type almost-geodesic rule.

The generic pipeline (``invariants``) is the ground truth here.  Each closed
form (basic, fourth, first) and the deformation curvature's expansion is one
table, ``tables(N, eps)``, so it can be diffed against its pipeline
counterpart group by group.  A row ``(group, part, published, corrected)``
names a coefficient-free part of ``_Blocks`` and its two coefficients; a
form is its rows' scaled parts summed in order.

* The corrected column equals the pipeline value exactly; ``agm_basic``,
  ``agm_fourth`` and ``agm_first`` read it.
* The published column holds the printed coefficients, kept only so
  ``agm_diagnostics`` can report where the two disagree.  Several of them
  provably break invariance, so it is never certified — only measured.
  The published forms also leave the ricci, cd_j, w_nu and tor cores
  unsymmetrized: this column reads a ``sym_`` part without its prefix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from types import MappingProxyType

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


@cache
def tables(N: int, eps: int) -> MappingProxyType[str, tuple[tuple, ...]]:
    """Each closed form's rows (group, part, published, corrected) at
    dimension N and sign eps, in summation order; built once per (N, eps)
    and shared, so read-only."""
    F = Fraction
    deform = (("mu", "a_mu", F(-1, 4), F(-1, 2)),
              ("cd", "a_cd", F(1, 4), F(1, 2)),
              ("quad", "a_quad", F(1, 4), F(1, 4)),
              ("nutor", "a_nutor", F(1, 4), F(1, 2)))
    # every form carries the expansion's rows; only its mu coefficient varies
    carried = tuple(("deform-" + group, *rest) for group, *rest in deform[1:])
    curvature = ("curvature", "R", F(1), F(1))
    trace = (("trace-theta", "theta", F(-1, N + 1), F(-1, N + 1)),
             ("trace-cd", "cd_j", F(-1, 2 * (N + 1)), F(-1, 2 * (N + 1))),
             ("trace-nu", "w_nu", F(-1, 2 * (N + 1)), F(-1, 2 * (N + 1))),
             ("trace-tor", "tor", F(-eps, 2 * (N + 1)), F(-eps, 2 * (N + 1))))
    q, h = F(1, 4 * (N - 1)), F(1, 2 * (N - 1))
    over = F(-1, 4 * (N + 1) ** 2 * (N - 1))
    return MappingProxyType({
        "deform": deform,
        "basic": (
            curvature,
            ("deform-mu", "a_mu", F(-(N + 3), 4 * (N + 1)),
             F(-(N + 2), 2 * (N + 1))),
            *carried, *trace,
            ("trace-scalar", "s_tt", F(1, 2 * (N + 1)), F(1, 2 * (N + 1))),
            ("trace-outer", "tt_tt", F(-1, (N + 1) ** 2), F(-1, (N + 1) ** 2)),
        ),
        "fourth": (
            curvature,
            ("ricci", "sym_ricci", F(1, N - 1), F(1, N - 1)),
            ("deform-mu", "a_mu", F(0), F(0)),
            *carried,
            ("trace-cd", "sym_cd", q, h),
            ("trace-scalar-quad", "s_quad", q, q),
            ("trace-scalar-nu", "s_nu", q, h),
            ("trace-scalar-tor", "s_tor", eps * q, eps * h),
            ("trace-outer-quad", "w_w", -q, -q),
            ("trace-outer-nu", "sym_w_nu", -q, -h),
            ("trace-outer-tor", "sym_tor", -eps * q, -eps * h),
        ),
        "first": (
            curvature, *trace,
            ("deform-mu", "a_mu", F(-(N + 2) ** 2, 4 * (N + 1) ** 2),
             F(-(N * N + 4 * N + 1), 2 * (N + 1) ** 2)),
            *carried,
            ("over-cd", "sym_cd", over, F(-1, 2 * (N + 1) ** 2)),
            ("over-quad", "quad", over, F(-1, 4 * (N + 1) ** 2)),
            ("over-nutor", "sym_nutor", over, F(-1, 2 * (N + 1) ** 2)),
        ),
    })


class _Blocks:
    """The coefficient-free parts of the closed forms, built once per bundle.

    ``y`` holds the (0,2) cores of the trace groups.  ``raw`` holds the
    curvature ``R``, the deformation-curvature structures ``a_*`` and the
    cores' delta blocks (the trace derivative's and the symmetrized Ricci
    tensor's are the pipeline forms', ``delta_block``); ``sym`` is the same
    with the ricci, cd_j, w_nu and tor cores symmetrized first.
    """

    def __init__(self, fields: SpaceFields):
        agm = fields.agm
        if agm is None:
            raise NotApplicableError(
                "closed almost-geodesic forms need the vector-field block")
        space = fields.space
        self.N = space.dim
        self.eps = eps = -1 if agm.p % 2 else 1
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
        self.raw = {
            "R": space.R,
            "a_mu": tc.delta_mix(tc.scale(sv, agm.mu)),
            "a_cd": tc.alternate(
                tc.ein("jmn,i->ijmn", (1, 3), sigma_cd, pv), 2, 3),
            "a_quad": tc.alternate(
                tc.ein("jm,an,a,i->ijmn", (1, 3), sv, sv, pv, pv), 2, 3),
            "a_nutor": tc.alternate(
                tc.add_scaled(tc.ein("jm,n,i->ijmn", (1, 3), sv, agm.nu, pv),
                              eps, tc.ein("jm,in->ijmn", (1, 3), sv, torphi)),
                2, 3),
            "theta": delta_block(fields, "theta"),
            **{k: tc.delta_mix(y) for k, y in self.y.items()},
        }
        self.sym = {
            **self.raw, "ricci": delta_block(fields, "sym_ricci"),
            **{k: tc.delta_mix(tc.sym_pair(self.y[k], 0, 1))
               for k in ("cd_j", "w_nu", "tor")}}

    @once
    def part(self, name: str) -> Tensor:
        """A part by name, read from ``sym`` when it is a ``sym_`` name: a
        block, or one of the differences the forms group, built on first use."""
        m = self.sym if name.startswith("sym_") else self.raw
        name = name.removeprefix("sym_")
        if name == "cd":
            return tc.sub(m["cd_n"], m["cd_j"])
        if name == "quad":
            return tc.sub(m["s_quad"], m["w_w"])
        if name == "nutor":
            return tc.add_scaled(tc.sub(m["s_nu"], m["w_nu"]), self.eps,
                                 tc.sub(m["s_tor"], m["tor"]))
        return m[name]

    @once
    def term(self, part: str, num: int, den: int) -> Tensor:
        """A part scaled by num/den, shared by every row that asks for it
        (int keys: a ``Fraction`` key would pay for its hash on each call).
        A zero coefficient gives exact zeros, as a scaled float part would
        carry signed zeros into the sum."""
        if num == 0:
            return tc.zeros(self.N, (1, 3))
        return tc.scale(self.part(part), Fraction(num, den))

    def column(self, form: str, corrected: bool) -> list[tuple[str, Tensor]]:
        """One column of a form's table: each group with its scaled part."""
        out = []
        for group, part, *coefficients in tables(self.N, self.eps)[form]:
            c = coefficients[corrected]
            if not corrected:
                part = part.removeprefix("sym_")
            out.append((group, self.term(part, c.numerator, c.denominator)))
        return out

    @once
    def total(self, form: str) -> Tensor:
        """A form's corrected column summed in row order."""
        return reduce(tc.add, [t for _, t in self.column(form, True)])


@once
def _blocks(fields: SpaceFields) -> _Blocks:
    return _Blocks(fields)


def agm_basic(fields: SpaceFields) -> Tensor:
    """Basic Weyl-type closed form of the vector-field rule."""
    return _blocks(fields).total("basic")


def agm_fourth(fields: SpaceFields) -> Tensor:
    """Fourth derived closed form of the vector-field rule."""
    return _blocks(fields).total("fourth")


def agm_first(fields: SpaceFields) -> Tensor:
    """First derived closed form of the vector-field rule.

    It equals the pipeline's display-form composition, which is itself
    invariant only up to a skew-Ricci trace term; see the first-derived
    pipeline functions for the closed invariant.
    """
    return _blocks(fields).total("first")


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
    g = dict(b.column("deform", True))
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
    """Row-by-row diff of each table's published column against its
    corrected one, plus corrected-total-versus-pipeline rows; a row matches
    when its two sides are close in the fields' domain."""
    b = _blocks(fields)
    N = b.N
    rows: list[dict] = []

    def row(section: str, group: str, x: Tensor, y: Tensor) -> None:
        ok, resid, _ = fields.domain.measure(x, y)
        rows.append({"section": section, "group": group,
                     "status": "match" if ok else "mismatch", "max_abs": float(resid)})

    def table(section: str, pipeline: Tensor) -> None:
        for (group, x), (_, y) in zip(b.column(section, False),
                                      b.column(section, True)):
            row(section, group, x, y)
        row(section, "total-vs-pipeline", b.total(section), pipeline)

    table("deform", A_tensor(fields))
    row("trace-derivative", "full", rho_closed(fields), rho(fields))
    row("trace-completion", "full", s_tilde_closed(fields), S_tilde(fields))
    pipeline = {"basic": weyl_factored(fields), "fourth": weyl_fourth(fields),
                "first": weyl_first_display(fields)}
    for section, form in pipeline.items():
        table(section, form)

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
