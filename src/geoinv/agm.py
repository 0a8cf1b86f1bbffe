"""Closed-form invariants of the third-type almost-geodesic rule.

The generic pipeline (``invariants``) is the ground truth here.  Each closed
form (basic, fourth, first) and the deformation curvature's expansion is one
table, ``tables(N)``, so it can be diffed against its pipeline counterpart
group by group.  A row ``(group, part, published, corrected)`` names a
coefficient-free part and its two coefficients.  The torsion parts carry
the rule's sign (-1)^p, so no coefficient depends on p.

The rule's parts and closed forms join ``invariants.PARTS`` at import, so
``invariants.part`` resolves each form and ``invariants._sum`` sums its rows,
``forms(N)``: a table's corrected column as (1,3) rows, then one delta block
of its (0,2) cores' sum (the closed trace derivative ``rho_closed`` and
trace completion ``s_tilde_closed`` are (0,2) rows only).

* The corrected column equals the pipeline value exactly; ``agm_basic``,
  ``agm_fourth`` and the ``agm_first`` part read it.  ``agm_first`` is the
  pipeline's display-form composition, itself invariant only up to a
  skew-Ricci trace term.
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
  building its term: its two sides are one tensor.  A row that recurs with
  the same part and coefficients (deform's cd and nutor rows, carried into
  the other tables) is measured once per call and reported at each place.
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
    _Block,
    _sum,
    derived_fourth,
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


# the only (1,3) parts the tables name; every other one is a (0,2) core
_UPPER = frozenset(("R", "a_cd", "a_quad", "a_nutor"))


@cache
def forms(N: int) -> MappingProxyType[str, tuple[tuple, ...]]:
    """Each closed form's rows (coefficient, part) at dimension N; built
    once per N and shared, so read-only.  ``agm_<table>`` is a table's
    corrected column: its (1,3) rows in table order, then the delta block of
    its cores' sum (delta_mix is linear)."""
    # rho_closed is -1/2 times its cores' sum (a zero's sign aside: halving is exact)
    out = {"rho_closed": tuple((Fraction(-1, 2), name)
                               for name in ("cd_j", "w_nu", "a_mu", "tor")),
           "s_tilde_closed": ((1, "tt_tt"), (Fraction(-(N + 1), 2), "s_tt"))}
    for form, rows in tables(N).items():
        cores = tuple((c, name) for _, name, _, c in rows if name not in _UPPER)
        out["agm_" + form] = (*((c, name) for _, name, _, c in rows if name in _UPPER),
                              (1, _Block("mix", *cores)))
    return MappingProxyType(out)


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
    # the nu and torsion core differences, over the raw or the sym_ cores
    **{pre + "nutor": lambda f, s, pre=pre: tc.add(
        tc.sub(part(f, "s_nu"), part(f, pre + "w_nu")),
        tc.sub(part(f, "s_tor"), part(f, pre + "tor"))) for pre in ("", "sym_")},
    # the closed forms, each summed from its rows in ``forms(N)``
    **{name: lambda f, s, name=name: _sum(f, forms(f.dim)[name])
       for name in ("agm_deform", "agm_basic", "agm_fourth", "agm_first",
                    "rho_closed", "s_tilde_closed")})


def agm_basic(fields: SpaceFields) -> Tensor:
    """Basic Weyl-type closed form of the vector-field rule."""
    return part(fields, "agm_basic")


def agm_fourth(fields: SpaceFields) -> Tensor:
    """Fourth derived closed form of the vector-field rule."""
    return part(fields, "agm_fourth")


def agm_decompose(fields: SpaceFields) -> Decomposition:
    """Split the deformation curvature into its trace-mixed part, with
    Y = -mu/2 sigma (the deform form's one core, whose block it reuses), and the rest.

    Validates the reconstruction against the pipeline's deformation
    curvature; a residual means the input bundle is inconsistent.
    """
    cd, quad, nutor, (_, mix) = forms(fields.dim)["agm_deform"]
    _, cores = mix
    # quad and nutor first: the float bits of cd + (quad + nutor)
    dec = Decomposition(_sum(fields, cores), _sum(fields, (quad, nutor, cd)),
                        part(fields, mix))
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
    fourth is the rebuild operator's (``derived_fourth``)."""
    N, h2 = fields.dim, Fraction(1, (fields.dim + 1) ** 2)
    base = ((1, "R"), (1, dec.total),
            (Fraction(-1, N + 1), _Block("mix", (1, "theta_rho"))))
    first = _sum(fields, (*base, (-h2, _Block("mix", (1, "s_tilde")))))
    first_disp = _sum(fields, (*base, ((N - 1) * h2, dec.mix_Y), (-h2, dec.mix_z_trace)))
    return first, derived_fourth(dec, fields), first_disp


def agm_diagnostics(fields: SpaceFields) -> list[dict]:
    """Row-by-row diff of each table's published column against its
    corrected one, plus corrected-total-versus-pipeline rows; a row matches
    when its two sides are close in the fields' domain (a table row whose
    columns are the same is not computed; see the module docstring).  A core
    row compares cores: for N >= 2 Y's entries are delta_mix(Y)'s, so max|Y|
    is the same."""
    N = fields.dim
    rows: list[dict] = []
    # each table row's outcome by its part and coefficients (as int pairs,
    # which hash in C): the deform rows recur in the other tables, and are
    # measured once
    seen: dict[tuple, dict] = {}

    def measured(x: Tensor, y: Tensor) -> dict:
        ok, resid, _ = fields.domain.measure(x, y)
        return {"status": "match" if ok else "mismatch", "max_abs": float(resid)}

    def row(section: str, group: str, x: Tensor, y: Tensor) -> None:
        rows.append({"section": section, "group": group, **measured(x, y)})

    def table(section: str, pipeline: Tensor) -> None:
        for group, name, published, corrected in tables(N)[section]:
            bare = name.removeprefix("sym_")
            key = (name, published.as_integer_ratio(), corrected.as_integer_ratio())
            if (published, bare) == (corrected, name):  # one tensor on both sides
                seen[key] = {"status": "match", "max_abs": 0.0}
            elif key not in seen:
                seen[key] = measured(_sum(fields, ((published, bare),)),
                                     _sum(fields, ((corrected, name),)))
            rows.append({"section": section, "group": group, **seen[key]})
        row(section, "total-vs-pipeline", part(fields, "agm_" + section), pipeline)

    table("deform", A_tensor(fields))
    row("trace-derivative", "full", part(fields, "rho_closed"), rho(fields))
    row("trace-completion", "full", part(fields, "s_tilde_closed"), S_tilde(fields))
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
