"""Closed-form invariants of the third-type almost-geodesic rule.

The generic pipeline (``invariants``) is the ground truth here.  Each closed
form (basic, fourth, first) and the deformation curvature's expansion is one
table, ``tables(N)``, so it can be diffed against its pipeline counterpart
group by group.  A row ``(group, part, published, corrected)`` names a
coefficient-free part and its two coefficients.  The rule's parts join
``invariants.PARTS`` at import, so ``invariants.part`` resolves every part a
table names and ``invariants._sum`` sums every row; a form's (0,2) cores
enter through one delta block of their sum.  The torsion parts carry the
rule's sign (-1)^p, so no coefficient depends on p.

* The corrected column equals the pipeline value exactly; ``agm_basic``,
  ``agm_fourth`` and ``agm_first`` read it.
* The published column holds the printed coefficients, kept only so
  ``agm_diagnostics`` can report where the two disagree.  Several of them
  provably break invariance, so it is never certified — only measured.
  The published forms also leave the ricci, cd_j, w_nu and tor cores
  unsymmetrized: this column reads a ``sym_`` part without its prefix.
* ``agm_diagnostics`` scales and compares only the rows whose two columns
  differ in coefficient or part.  A row whose columns are the same
  (curvature, every deform-quad row, the basic and first trace rows,
  fourth's deform-mu, trace-scalar-quad and trace-outer-quad, and at N = 2
  first's over-quad) is reported as ``match`` with ``max_abs`` 0.0 without
  building its term: its two sides are one tensor.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from types import MappingProxyType

from . import tensor_core as tc
from .invariants import (
    A_tensor,
    A_trace,
    Decomposition,
    DecompositionError,
    PARTS,
    S_tilde,
    _sum,
    part,
    rho,
    weyl_factored,
    weyl_fourth,
)
from .jet import covariant_derivative
from .mappings import NotApplicableError, SpaceFields
from .tensor_core import Tensor, once


@cache
def tables(N: int) -> MappingProxyType[str, tuple[tuple, ...]]:
    """Each closed form's rows (group, part, published, corrected) at
    dimension N, in summation order; built once per N and shared, so
    read-only."""
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
             ("trace-tor", "tor", F(-1, 2 * (N + 1)), F(-1, 2 * (N + 1))))
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
            ("trace-scalar-tor", "s_tor", q, h),
            ("trace-outer-quad", "w_w", -q, -q),
            ("trace-outer-nu", "sym_w_nu", -q, -h),
            ("trace-outer-tor", "sym_tor", -q, -h),
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


@once
def _agm_parts(fields: SpaceFields) -> dict[str, Tensor]:
    """The rule's own parts, built together once per bundle: the (1,3)
    deformation-curvature structures ``a_cd``, ``a_quad`` and ``a_nutor``,
    and the (0,2) cores that a form enters through its delta block.  The
    torsion half enters as (-1)^p L~, so every part built on it carries the
    rule's sign and no table coefficient does."""
    agm = fields.agm
    if agm is None:
        raise NotApplicableError(
            "closed almost-geodesic forms need the vector-field block")
    space = fields.space
    sv = agm.sigma.value
    pv = agm.phi.value
    sigma_cd = covariant_derivative(agm.sigma, space.Lsym)
    ltor = tc.scale(space.Ltor.value, -1) if agm.p % 2 else space.Ltor.value
    w = tc.ein("ja,a->j", (0, 1), sv, pv)
    theta_t = tc.lincomb(((1, space.theta.value), (Fraction(1, 2), w)))
    torphi = tc.ein("ian,a->in", (1, 1), ltor, pv)
    tl = tc.ein("bab->a", (0, 1), ltor)
    nuphi = tc.ein("a,a->", (0, 0), agm.nu, pv).data[0]
    tlphi = tc.ein("a,a->", (0, 0), tl, pv).data[0]
    sphiphi = tc.ein("a,a->", (0, 0), w, pv).data[0]
    ttphi = tc.ein("a,a->", (0, 0), theta_t, pv).data[0]
    return {
        "a_cd": tc.alternate(
            tc.ein("jmn,i->ijmn", (1, 3), sigma_cd, pv), 2, 3),
        # sigma_an phi^a = w_n: sigma is symmetric on both sides (validate
        # checks it on load, and the target side's is -sigma)
        "a_quad": tc.alternate(
            tc.ein("jm,n,i->ijmn", (1, 3), sv, w, pv), 2, 3),
        "a_nutor": tc.alternate(
            tc.add(tc.ein("jm,n,i->ijmn", (1, 3), sv, agm.nu, pv),
                   tc.ein("jm,in->ijmn", (1, 3), sv, torphi)), 2, 3),
        "a_mu": tc.scale(sv, agm.mu),
        "cd_j": tc.ein("jan,a->jn", (0, 2), sigma_cd, pv),
        "cd_n": tc.ein("jna,a->jn", (0, 2), sigma_cd, pv),
        "w_nu": tc.ein("j,n->jn", (0, 2), w, agm.nu),
        "tor": tc.ein("ja,an->jn", (0, 2), sv, torphi),
        "w_w": tc.ein("j,n->jn", (0, 2), w, w),
        "tt_tt": tc.ein("j,n->jn", (0, 2), theta_t, theta_t),
        "s_tt": tc.scale(sv, ttphi),
        "s_quad": tc.scale(sv, sphiphi),
        "s_nu": tc.scale(sv, nuphi),
        "s_tor": tc.scale(sv, tlphi),
    }


def _nutor(fields: SpaceFields, pre: str) -> Tensor:
    """The nu and torsion core differences, over the w_nu and tor cores
    named with prefix ``pre`` ("" or "sym_")."""
    return tc.add(tc.sub(part(fields, "s_nu"), part(fields, pre + "w_nu")),
                  tc.sub(part(fields, "s_tor"), part(fields, pre + "tor")))


# the rule's parts join the Weyl-type tables' in one registry (``invariants``
# cannot import this module); R, theta, ricci and sym_ricci are already
# there.  The core differences the forms group are built on first use
PARTS.update(
    {name: lambda f, s, name=name: _agm_parts(f)[name]
     for name in ("a_cd", "a_quad", "a_nutor", "a_mu", "cd_j", "cd_n", "w_nu",
                  "tor", "w_w", "tt_tt", "s_tt", "s_quad", "s_nu", "s_tor")},
    **{"sym_" + k: lambda f, s, k=k: tc.sym_pair(part(f, k), 0, 1)
       for k in ("cd_j", "w_nu", "tor")},
    cd=lambda f, s: tc.sub(part(f, "cd_n"), part(f, "cd_j")),
    sym_cd=lambda f, s: tc.sub(part(f, "cd_n"), part(f, "sym_cd_j")),
    quad=lambda f, s: tc.sub(part(f, "s_quad"), part(f, "w_w")),
    nutor=lambda f, s: _nutor(f, ""),
    sym_nutor=lambda f, s: _nutor(f, "sym_"))


def _rows(fields: SpaceFields, form: str, p: int) -> list[tuple]:
    """The rows (c, part tensor) of a form's corrected column whose parts
    have p upper indices, in table order."""
    return [(c, t) for _, name, _, c in tables(fields.dim)[form]
            if (t := part(fields, name)).p == p]


@once
def _mix(fields: SpaceFields, form: str) -> Tensor:
    """The delta block of a form's (0,2) terms' sum (delta_mix is linear)."""
    return tc.delta_mix(_sum(fields, _rows(fields, form, 0)))


@once
def _total(fields: SpaceFields, form: str) -> Tensor:
    """A form's corrected column summed in row order: (1,3) terms, then mix."""
    return _sum(fields, [*_rows(fields, form, 1), (1, _mix(fields, form))])


@once
def _term(fields: SpaceFields, name: str, num: int, den: int) -> Tensor:
    """A part scaled by num/den, shared by every diagnostic row and the
    split (int keys: a ``Fraction`` key would pay for its hash on each
    call)."""
    return _sum(fields, ((Fraction(num, den), name),))


def agm_basic(fields: SpaceFields) -> Tensor:
    """Basic Weyl-type closed form of the vector-field rule."""
    return _total(fields, "basic")


def agm_fourth(fields: SpaceFields) -> Tensor:
    """Fourth derived closed form of the vector-field rule."""
    return _total(fields, "fourth")


def agm_first(fields: SpaceFields) -> Tensor:
    """First derived closed form of the vector-field rule.

    It equals the pipeline's display-form composition, which is itself
    invariant only up to a skew-Ricci trace term; see the first-derived
    pipeline functions for the closed invariant.
    """
    return _total(fields, "first")


def rho_closed(fields: SpaceFields) -> Tensor:
    """Closed form of the deformation-trace derivative for this rule."""
    out = _sum(fields, ((1, "cd_j"), (1, "w_nu"), (1, "a_mu"), (1, "tor")))
    return tc.scale(out, Fraction(-1, 2))


def s_tilde_closed(fields: SpaceFields) -> Tensor:
    """Closed form of the quadratic trace completion for this rule."""
    return _sum(fields, ((1, "tt_tt"), (Fraction(-(fields.dim + 1), 2), "s_tt")))


def agm_decompose(fields: SpaceFields) -> Decomposition:
    """Split the deformation curvature into its trace-mixed part, with
    Y = -mu/2 sigma (the deform form's one core, whose block it reuses), and the rest.

    Validates the reconstruction against the pipeline's deformation
    curvature; a residual means the input bundle is inconsistent.
    """
    g = {group: _term(fields, name, *c.as_integer_ratio())
         for group, name, _, c in tables(fields.dim)["deform"]}
    dec = Decomposition(g["mu"], tc.add(g["cd"], tc.add(g["quad"], g["nutor"])),
                        _mix(fields, "deform"))
    ok, resid, _ = fields.domain.measure(dec.total, A_tensor(fields))
    if not ok:
        raise DecompositionError(
            f"deformation-curvature reconstruction residual "
            f"{fields.domain.num_out(resid)}")
    return dec


def weyl_forms_from_decomposition(dec: Decomposition, fields: SpaceFields
                                  ) -> tuple[Tensor, Tensor, Tensor]:
    """The factored, fourth and first-display forms re-expressed through a
    decomposition of the deformation curvature (exact substitutions); the
    fourth is ``derived_invariants(dec, fields.space)["fourth"]``."""
    N, R = fields.dim, fields.space.R
    theta_rho, s_tilde, sym_ricci = (part(fields, ("mix", ((1, core),)))
                                     for core in ("theta_rho", "s_tilde", "sym_ricci"))
    h2 = Fraction(1, (N + 1) ** 2)
    base = ((1, R), (1, dec.total), (Fraction(-1, N + 1), theta_rho))
    first = tc.lincomb((*base, (-h2, s_tilde)))
    c = Fraction(1, N - 1)
    fourth = tc.lincomb(((1, R), (1, dec.Z), (c, sym_ricci), (c, dec.mix_z_trace)))
    first_disp = tc.lincomb((*base, ((N - 1) * h2, dec.mix_Y), (-h2, dec.mix_z_trace)))
    return first, fourth, first_disp


def agm_diagnostics(fields: SpaceFields) -> list[dict]:
    """Row-by-row diff of each table's published column against its
    corrected one, plus corrected-total-versus-pipeline rows; a row matches
    when its two sides are close in the fields' domain (a table row whose
    columns are the same is not computed; see the module docstring).  A core
    row compares cores: for N >= 2 Y's entries are delta_mix(Y)'s, so max|Y|
    is the same."""
    N = fields.dim
    rows: list[dict] = []

    def row(section: str, group: str, x: Tensor, y: Tensor) -> None:
        ok, resid, _ = fields.domain.measure(x, y)
        rows.append({"section": section, "group": group,
                     "status": "match" if ok else "mismatch", "max_abs": float(resid)})

    def table(section: str, pipeline: Tensor) -> None:
        for group, name, published, corrected in tables(N)[section]:
            bare = name.removeprefix("sym_")
            if (published, bare) == (corrected, name):  # one tensor on both sides
                rows.append({"section": section, "group": group,
                             "status": "match", "max_abs": 0.0})
            else:
                row(section, group, _term(fields, bare, *published.as_integer_ratio()),
                    _term(fields, name, *corrected.as_integer_ratio()))
        row(section, "total-vs-pipeline", _total(fields, section), pipeline)

    table("deform", A_tensor(fields))
    row("trace-derivative", "full", rho_closed(fields), rho(fields))
    row("trace-completion", "full", s_tilde_closed(fields), S_tilde(fields))
    pipeline = {"basic": weyl_factored(fields), "fourth": weyl_fourth(fields),
                "first": part(fields, "weyl_first_display")}
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
    pr_first_disp = tc.lincomb((
        (1, first_disp), (Fraction(-(N - 2), (N + 1) ** 2), dec.mix_Y),
        (Fraction(N - 2, (N + 1) ** 2 * (N - 1)), dec.mix_z_trace)))
    row("split", "first-display-published", pr_first_disp, first_disp)
    return rows
