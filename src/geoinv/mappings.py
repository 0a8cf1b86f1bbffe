"""Mappings between connection spaces and their random instances.

A mapping instance holds one source connection jet plus the field data of the
transformation rule; the target connection is always *derived* from those by
``build_target_connection``, so source and target are consistent by
construction.  Three families are supported:

* ``general``  — the full three-flag rule (trace shift, endomorphism pair,
  symmetric object), plus an antisymmetric torsion deformation,
* ``geodesic`` — the trace-shift rule alone (flags (1,0,0), no torsion change),
* ``agm3``     — the third-type almost-geodesic family: the symmetric object
  is built from a symmetric bilinear form and a vector field whose derivative
  is constrained by two scalar parameters.

Generators draw every entry from the lattice {k/16 : |k| <= 16}, so rational
instances are exact and float instances are dyadic (bit-stable).  Two curl
constraints are enforced exactly — the trace-shift covector and the
deformation-trace difference both have symmetric gradients' worth of freedom
removed — because the skew parts of the Ricci tensor and of the rho tensor
are only mapping-invariant under those conditions; fully free jets would
break invariances the rest of the package certifies.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import tensor_core as tc
from .connection import ConnectionSpace
from .jet import (
    JetTensor,
    constant_jet,
    jet_mul,
    linear,
    zero_jet,
)
from .tensor_core import DOMAINS, Domain, GeoinvError, Tensor, once


class InstanceError(GeoinvError):
    """A mapping instance is malformed or internally inconsistent."""


def _check_dim(dim: int) -> None:
    if dim < 2:
        raise InstanceError(f"dimension must be >= 2, got {dim}")


class DegenerateError(GeoinvError):
    """Generated or supplied data is too degenerate for the operation."""


class NotApplicableError(GeoinvError):
    """The requested quantity is undefined for this instance's flags."""


MAPPINGS = ("general", "geodesic", "agm3")
MODES = tuple(DOMAINS)
# the flags (s1, s2, s3) a mapping family fixes; general instances choose them
FIXED_FLAGS = {"geodesic": (1, 0, 0), "agm3": (1, 0, 1)}


def curl(w: JetTensor) -> Tensor:
    """w_m,n - w_n,m for a covector jet."""
    return tc.alternate(w.grad, 0, 1)


def _pair_sym(t: JetTensor) -> JetTensor:
    """t^i_jk + t^i_kj (factor-free) — the shape every rule term takes."""
    return linear(tc.sym_pair, t, 1, 2, True)


def _rule_terms(f: JetTensor, sigma: JetTensor, phi_obj: JetTensor,
               flags) -> list[JetTensor]:
    """The flag-gated symmetric rule terms: paired f (x) sigma, then phi_obj."""
    _, s2, s3 = flags
    terms = []
    if s2:
        terms.append(_pair_sym(jet_mul(f, sigma)))
    if s3:
        terms.append(phi_obj)
    return terms


def _deformation_source(f: JetTensor, sigma: JetTensor, phi_obj: JetTensor,
                        flags) -> JetTensor:
    """The rule terms of one side summed onto a zero jet, in order."""
    out = zero_jet(f.dim, (1, 2))
    for term in _rule_terms(f, sigma, phi_obj, flags):
        out = linear(tc.add, out, term)
    return out


class AGMData:
    """Per-space data of a third-type almost-geodesic mapping."""

    __slots__ = ("sigma", "phi", "nu", "mu", "p")

    def __init__(self, sigma: JetTensor, phi: JetTensor, nu: Tensor, mu, p: int):
        self.sigma = sigma  # (0,2) symmetric jet
        self.phi = phi      # (1,0) jet
        self.nu = nu        # (0,1) value
        self.mu = mu        # scalar
        self.p = p


class SpaceFields:
    """One side of a mapping: its connection space plus the rule's fields.

    The deformation source B, its trace b, the reduced trace and the omega
    tensor are computed once on first use and shared by every invariant.
    """

    def __init__(self, space: ConnectionSpace, flags, mode: str,
                 sigma: JetTensor | None = None, f: JetTensor | None = None,
                 phi_obj: JetTensor | None = None, agm: AGMData | None = None):
        self.space = space
        self.flags = tuple(flags)
        self.domain = DOMAINS[mode]
        N = space.dim
        self.sigma = sigma if sigma is not None else zero_jet(N, (0, 1))
        self.f = f if f is not None else zero_jet(N, (1, 1))
        self.phi_obj = phi_obj if phi_obj is not None else zero_jet(N, (1, 2))
        self.agm = agm

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    @once
    def B(self) -> JetTensor:
        """Deformation source: the flag-gated symmetric rule terms of this side."""
        return _deformation_source(self.f, self.sigma, self.phi_obj, self.flags)

    @property
    @once
    def b(self) -> JetTensor:
        return linear(tc.contract, self.B, 0, 0)

    @property
    @once
    def theta_tilde(self) -> JetTensor:
        return linear(tc.sub, self.space.theta, self.b)

    @property
    @once
    def omega(self) -> JetTensor:
        dt = linear(tc.delta_sym, self.theta_tilde)
        return linear(tc.add, self.B, linear(tc.scale, dt, Fraction(1, self.dim + 1)))


def check_valence(mapping: str, name: str, valence: tuple[int, int]) -> None:
    """Raise unless a ``mapping`` instance has a field ``name`` of this valence."""
    expected: dict[str, tuple[int, int]] = {
        "L": (1, 2), "u": (0, 1), "u_bar": (0, 1),
        "phi_obj": (1, 2), "phi_obj_bar": (1, 2),
    }
    if mapping == "agm3":
        expected.update({"sigma": (0, 2), "phi": (1, 0),
                         "nu": (0, 1), "mu": (0, 0)})
    else:
        expected.update({"sigma": (0, 1), "sigma_bar": (0, 1),
                         "f": (1, 1), "f_bar": (1, 1), "xi": (1, 2)})
    if name not in expected:
        raise InstanceError(f"unexpected field {name!r} for {mapping}")
    if valence != expected[name]:
        raise InstanceError(
            f"field {name!r} has valence {valence}, expected {expected[name]}")


class MappingInstance:
    def __init__(self, dim: int, mode: str, flags, mapping: str,
                 fields: dict[str, JetTensor], p: int | None = None,
                 seed: int | None = None):
        self.dim = dim
        self.mode = mode
        self.flags = tuple(flags)
        self.mapping = mapping
        self.fields = fields
        self.p = p
        self.seed = seed

    @property
    def domain(self) -> Domain:
        return DOMAINS[self.mode]

    # -- field access -----------------------------------------------------

    def field(self, name: str, valence: tuple[int, int]) -> JetTensor:
        t = self.fields.get(name)
        return t if t is not None else zero_jet(self.dim, valence)

    def validate(self) -> None:
        _check_dim(self.dim)
        if self.mode not in MODES:
            raise InstanceError(f"unknown mode {self.mode!r}")
        if self.mapping not in MAPPINGS:
            raise InstanceError(f"unknown mapping {self.mapping!r}")
        # exact types: True and 1.0 compare equal to 1 but are not flags or p
        if len(self.flags) != 3 or any(type(s) is not int or s not in (0, 1)
                                       for s in self.flags):
            raise InstanceError(f"flags must be three 0/1 values, got {self.flags}")
        if ((self.p is not None or self.mapping == "agm3")
                and (type(self.p) is not int or self.p not in (1, 2))):
            raise InstanceError(f"p must be 1 or 2, got {self.p!r}")
        fixed = FIXED_FLAGS.get(self.mapping, self.flags)
        if self.flags != fixed:
            raise InstanceError(f"{self.mapping} instances fix flags "
                                f"({','.join(map(str, fixed))})")
        if "L" not in self.fields:
            raise InstanceError("instance has no connection field 'L'")
        for name, t in self.fields.items():
            check_valence(self.mapping, name, t.valence)
            if t.dim != self.dim:
                raise InstanceError(f"field {name!r} has dimension {t.dim}")
        for name in ("phi_obj", "phi_obj_bar", "xi", "sigma"):
            t = self.fields.get(name)
            if t is None or t.valence == (0, 1):
                continue  # the general-rule sigma is a covector, nothing to check
            a, b = (1, 2) if t.valence == (1, 2) else (0, 1)
            flip = tc.transpose_pair(t.value, a, b)
            if name == "xi":
                bad = not tc.add(t.value, flip).is_zero()
            else:
                bad = not tc.sub(t.value, flip).is_zero()
            if bad:
                kind = "antisymmetric" if name == "xi" else "symmetric"
                raise InstanceError(f"field {name!r} must be {kind} in its lower pair")

    # -- derived objects ---------------------------------------------------

    @once
    def source_fields(self) -> SpaceFields:
        return self._side(self.fields["L"], "")

    @once
    def target_fields(self) -> SpaceFields:
        return self._side(self.target_connection(), "_bar")

    def _side(self, L: JetTensor, bar: str) -> SpaceFields:
        """One side's fields: bar is "" for the source, "_bar" for the target."""
        space = ConnectionSpace(L)
        get = self.fields.get
        return SpaceFields(
            space, self.flags, self.mode,
            sigma=get("sigma" + bar) if self.mapping != "agm3" else None,
            f=get("f" + bar), phi_obj=get("phi_obj" + bar),
            agm=self._agm_block(space, source=not bar),
        )

    @once
    def target_connection(self) -> JetTensor:
        return build_target_connection(self)

    def _agm_block(self, space: ConnectionSpace, source: bool) -> AGMData | None:
        if self.mapping != "agm3":
            return None
        sigma = self.fields["sigma"]
        phi = self.fields["phi"]
        M = vector_connection_derivative(phi, space.L, self.p)
        if source:
            side, kind = "source", "stored-parameter"
            nu = self.fields["nu"].value
            mu = self.fields["mu"].value.data[0]
        else:
            # seen from the target side the bilinear form flips sign and the
            # scalar parameters are whatever its own connection induces
            side, kind = "target", "fit"
            sigma = linear(tc.scale, sigma, -1)
            nu, mu = _solve_agm(phi.value, M)
        ok, res, _ = self.domain.measure(M, _relation(phi.value, nu, mu))
        if not ok:
            raise InstanceError(f"{side} connection misses the agm3 derivative "
                                f"relation: {kind} residual {res}")
        return AGMData(sigma, phi, nu, mu, self.p)


def build_target_connection(inst: MappingInstance) -> JetTensor:
    """Apply the transformation rule to the source connection jet."""
    out = inst.fields["L"]
    if inst.flags[0]:
        psi = linear(tc.sub, inst.field("u_bar", (0, 1)), inst.field("u", (0, 1)))
        out = linear(tc.add, out, linear(tc.delta_sym, psi))

    def terms(bar: str) -> list[JetTensor]:
        return _rule_terms(inst.field("f" + bar, (1, 1)),
                           inst.field("sigma" + bar, (0, 1)),
                           inst.field("phi_obj" + bar, (1, 2)), inst.flags)

    # term by term: adding B_bar - B in one step rounds float sums differently
    for t_bar, t in zip(terms("_bar"), terms("")):
        out = linear(tc.add, out, linear(tc.sub, t_bar, t))
    if "xi" in inst.fields:
        out = linear(tc.add, out, inst.fields["xi"])
    return out


def psi_residual(inst: MappingInstance) -> Tensor:
    """How far the trace-extracted covector is from the stored one.

    Zero (exactly, in rational mode) on every consistent instance; only
    defined when the trace-shift flag is on.
    """
    if inst.flags[0] != 1:
        raise NotApplicableError("psi is only defined when the first flag is set")
    src, tgt = inst.source_fields(), inst.target_fields()
    psi = tc.sub(inst.field("u_bar", (0, 1)).value, inst.field("u", (0, 1)).value)
    rhs = tc.sub(
        tc.sub(tgt.space.theta.value, src.space.theta.value),
        tc.sub(tgt.b.value, src.b.value),
    )
    return tc.sub(psi, tc.scale(rhs, Fraction(1, inst.dim + 1)))


# ---------------------------------------------------------------------------
# generators


def _lattice(r: random.Random) -> int:
    return r.randrange(-16, 17)


def _draw(r, dom: Domain, dim, valence) -> Tensor:
    n = dim ** sum(valence)
    return dom.tensor(dim, valence, [_lattice(r) for _ in range(n)], 16)


def _draw_jet(r, dom: Domain, dim, valence) -> JetTensor:
    v = _draw(r, dom, dim, valence)
    g = _draw(r, dom, dim, (valence[0], valence[1] + 1))
    return JetTensor(v, g)


def _first_draws(r, dom: Domain, dim):
    """The first draws of every generator: the connection jet L and the
    trace-shift covectors u and u_bar, whose gradients differ by a symmetric
    shift (so psi = u_bar - u is curl-free)."""
    L = _draw_jet(r, dom, dim, (1, 2))
    u = _draw_jet(r, dom, dim, (0, 1))
    u_bar_v = _draw(r, dom, dim, (0, 1))
    sym_shift = tc.sym_pair(_draw(r, dom, dim, (0, 2)), 0, 1, factor_free=True)
    return L, u, JetTensor(u_bar_v, tc.add(u.grad, sym_shift))


def _solve(A: list[list], B: list[list]):
    """Solve A X = B by Gauss-Jordan elimination with max-|.| partial
    pivoting, in either domain; None when A is singular."""
    n = len(A)
    m = [row_a + row_b for row_a, row_b in zip(A, B)]
    w = len(m[0])
    for col in range(n):
        piv = max(range(col, n), key=lambda k: abs(m[k][col]))
        if m[piv][col] == 0:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = m[col][col]
        m[col] = [x / inv for x in m[col]]
        for k in range(n):
            if k != col and m[k][col] != 0:
                c = m[k][col]
                m[k] = [x - c * y for x, y in zip(m[k], m[col])]
    return [row[n:w] for row in m]


def generate(dim: int, seed: int, flags=(1, 1, 1), mapping: str = "general",
             mode: str = "rational") -> MappingInstance:
    """Draw a consistent random instance of the general or geodesic rule.

    Field data is free lattice noise except for two exact constraints: the
    trace-shift covector gets a symmetric gradient (its curl would otherwise
    move the skew Ricci tensor), and the barred deformation gradient is
    corrected so the deformation-trace difference is curl-free (which the
    skew rho tensor needs).  Fixed (dim, seed, flags) reproduce the instance
    bit for bit.
    """
    _check_dim(dim)
    flags = tuple(int(s) for s in FIXED_FLAGS.get(mapping, flags))
    if mapping not in ("general", "geodesic"):
        raise InstanceError(f"generate() handles general/geodesic, not {mapping!r}")
    s1, s2, s3 = flags
    r = random.Random(f"geoinv:{mapping}:{dim}:{seed}:{s1}{s2}{s3}")
    dom = DOMAINS[mode]
    L, u, u_bar = _first_draws(r, dom, dim)
    if mapping == "geodesic":
        fields = {"L": L, "u": u, "u_bar": u_bar}
        return MappingInstance(dim, mode, flags, mapping, fields, seed=seed)

    sigma = _draw_jet(r, dom, dim, (0, 1))
    sigma_bar = _draw_jet(r, dom, dim, (0, 1))
    f = _draw_jet(r, dom, dim, (1, 1))
    f_bar = _draw_jet(r, dom, dim, (1, 1))
    if s2 and not s3:
        # the curl fix below solves against f_bar + trace(f_bar)*delta; nudge
        # the trace until that matrix is invertible (deterministic)
        for bump in range(1, 64):
            M = _rule_matrix(f_bar.value)
            if _solve(M, [[dom.c(0)] * dim for _ in range(dim)]) is not None:
                break
            f_bar = JetTensor(
                tc.add_scaled(f_bar.value, Fraction(1, 16), tc.delta(dim)), f_bar.grad
            )
        else:  # pragma: no cover
            raise DegenerateError("could not make the trace-fix system regular")

    phi_obj = linear(tc.sym_pair, _draw_jet(r, dom, dim, (1, 2)), 1, 2)
    phi_obj_bar = linear(tc.sym_pair, _draw_jet(r, dom, dim, (1, 2)), 1, 2)
    xi_raw = _draw_jet(r, dom, dim, (1, 2))
    xi = linear(tc.scale, linear(tc.alternate, xi_raw, 1, 2), Fraction(1, 2))

    # -- exact curl fix for the deformation-trace difference ---------------
    def b_of(fj, sj, pj) -> JetTensor:
        return linear(tc.contract, _deformation_source(fj, sj, pj, flags), 0, 0)

    eps = tc.sub(curl(b_of(f_bar, sigma_bar, phi_obj_bar)),
                 curl(b_of(f, sigma, phi_obj)))
    if not eps.is_zero():
        V = tc.scale(eps, Fraction(-1, 2))
        if s3:
            # shift the barred object's gradient by a delta-shaped correction
            # whose trace is exactly V
            phi_obj_bar = JetTensor(
                phi_obj_bar.value,
                tc.add_scaled(phi_obj_bar.grad, Fraction(1, dim + 1),
                              tc.delta_sym(V)),
            )
        elif s2:
            H = [[V[(k, n)] for n in range(dim)] for k in range(dim)]
            G = _solve(_rule_matrix(f_bar.value), H)
            if G is None:  # pragma: no cover - excluded by the bump loop
                raise DegenerateError("curl-fix system became singular")
            shift = Tensor(dim, (0, 2),
                           [G[a][n] for a in range(dim) for n in range(dim)])
            sigma_bar = JetTensor(sigma_bar.value, tc.add(sigma_bar.grad, shift))
        else:  # pragma: no cover - b vanishes identically when s2 = s3 = 0
            raise DegenerateError("unexpected trace curl with no deformation source")

    fields = {"L": L, "u": u, "u_bar": u_bar, "sigma": sigma,
              "sigma_bar": sigma_bar, "f": f, "f_bar": f_bar,
              "phi_obj": phi_obj, "phi_obj_bar": phi_obj_bar, "xi": xi}
    return MappingInstance(dim, mode, flags, "general", fields, seed=seed)


def _rule_matrix(fv: Tensor) -> list[list]:
    """Rows k, columns a of f^a_k + tr(f) d^a_k (the curl-fix system)."""
    dim = fv.dim
    tr = sum(fv[(a, a)] for a in range(dim))
    return [
        [fv[(a, k)] + (tr if a == k else 0) for a in range(dim)]
        for k in range(dim)
    ]


def _sym_with_product(r, dom, dim, phi_v: Tensor, target: list, v_cov: list):
    """Draw a symmetric matrix S with S.phi exactly equal to ``target``.

    Rank-two correction of a free symmetric draw: with v a covector dual to
    phi (v.phi = 1), S = S0 + a (x) v + v (x) a lands on the target while
    staying symmetric.  Used for both the value and each gradient slice of
    the agm3 bilinear form.
    """
    S0 = tc.sym_pair(_draw(r, dom, dim, (0, 2)), 0, 1)
    res = [target[j] - sum(S0[(j, a)] * phi_v[(a,)] for a in range(dim))
           for j in range(dim)]
    rphi = sum(res[a] * phi_v[(a,)] for a in range(dim))
    a_vec = [res[j] - rphi * Fraction(1, 2) * v_cov[j] for j in range(dim)]
    data = [
        S0[(j, k)] + a_vec[j] * v_cov[k] + v_cov[j] * a_vec[k]
        for j in range(dim) for k in range(dim)
    ]
    return Tensor(dim, (0, 2), data)


def generate_agm3(dim: int, seed: int, p: int = 1,
                  mode: str = "rational") -> MappingInstance:
    """Draw a consistent third-type almost-geodesic instance.

    The vector field's gradient is set from its defining derivative relation
    (so the parameter fit is exact), the trace-shift covector is curl-free,
    and the bilinear form is built so its contraction with the vector field
    has a symmetric gradient — the structural condition that makes the skew
    rho tensor vanish identically on both sides of this family.
    """
    _check_dim(dim)
    if p not in (1, 2):
        raise InstanceError(f"p must be 1 or 2, got {p}")
    r = random.Random(f"geoinv:agm3:{dim}:{seed}:{p}")
    dom = DOMAINS[mode]
    L, u, u_bar = _first_draws(r, dom, dim)

    phi_v = _draw(r, dom, dim, (1, 0))
    if phi_v.is_zero():  # keep the family non-degenerate
        phi_v = Tensor(dim, (1, 0), [dom.c(16, 16)] + phi_v.data[1:])
    nu = _draw(r, dom, dim, (0, 1))
    mu = dom.c(_lattice(r), 16)

    # gradient fixed by the defining relation (full connection, order per p)
    phi_g = tc.sub(_relation(phi_v, nu, mu), _connection_term(L.value, phi_v, p))
    phi = JetTensor(phi_v, phi_g)

    # dual covector for the rank-two corrections
    k_star = max(range(dim), key=lambda k: (abs(phi_v[(k,)]), -k))
    v_cov = [0] * dim
    v_cov[k_star] = 1 / phi_v[(k_star,)]

    # sigma: symmetric, with sigma.phi following a prescribed curl-free jet
    w_val = _draw(r, dom, dim, (0, 1))
    w_grad = tc.sym_pair(_draw(r, dom, dim, (0, 2)), 0, 1, factor_free=True)
    sigma_v = _sym_with_product(r, dom, dim, phi_v,
                                [w_val[(j,)] for j in range(dim)], v_cov=v_cov)
    grad_slices = []
    for n in range(dim):
        tgt = [
            w_grad[(j, n)]
            - sum(sigma_v[(j, a)] * phi_g[(a, n)] for a in range(dim))
            for j in range(dim)
        ]
        grad_slices.append(
            _sym_with_product(r, dom, dim, phi_v, tgt, v_cov=v_cov)
        )
    sigma_g = Tensor(
        dim, (0, 3),
        [grad_slices[n][(j, k)]
         for j in range(dim) for k in range(dim) for n in range(dim)],
    )
    sigma = JetTensor(sigma_v, sigma_g)

    sig_phi = jet_mul(phi, sigma)  # (1,2): phi^i sigma_jk
    phi_obj = linear(tc.scale, sig_phi, Fraction(-1, 2))
    phi_obj_bar = linear(tc.scale, sig_phi, Fraction(1, 2))

    fields = {
        "L": L, "u": u, "u_bar": u_bar, "sigma": sigma, "phi": phi,
        "nu": constant_jet(nu), "mu": constant_jet(Tensor(dim, (0, 0), [mu])),
        "phi_obj": phi_obj, "phi_obj_bar": phi_obj_bar,
    }
    return MappingInstance(dim, mode, FIXED_FLAGS["agm3"], "agm3", fields,
                           p=p, seed=seed)


def vector_connection_derivative(phi: JetTensor, L, p: int,
                                 literal: bool = False) -> Tensor:
    """The kind-p connection derivative of a vector field.

    Kind 1 contracts the connection's middle lower slot with the vector,
    kind 2 the last one.  ``literal=True`` reproduces, for kind 2 only, the
    uncontracted diagnostic variant in which the connection term is summed
    over its last slot with no vector factor.
    """
    if p not in (1, 2):
        raise InstanceError(f"p must be 1 or 2, got {p}")
    Lv = L.value if isinstance(L, JetTensor) else L
    if literal:
        if p != 2:
            raise NotApplicableError("the literal variant only exists for p=2")
        return tc.add(phi.grad, tc.ein("ija->ij", (1, 1), Lv))
    return tc.add(phi.grad, _connection_term(Lv, phi.value, p))


def _connection_term(Lv: Tensor, v: Tensor, p: int) -> Tensor:
    """The connection term of the kind-p derivative of v: L^i_{aj} v^a for
    kind 1, L^i_{ja} v^a for kind 2."""
    return tc.ein("iaj,a->ij" if p == 1 else "ija,a->ij", (1, 1), Lv, v)


def fit_agm_parameters(phi: JetTensor, L: JetTensor, p: int, mode: str):
    """Recover (nu, mu) from the defining derivative relation of the family.

    Solves phi^i_,j + L-term = nu_j phi^i + mu d^i_j for the pair (see
    ``_solve_agm``) and returns (nu, mu, max-abs residual of the
    reconstruction).  ``mode`` no longer changes the algorithm: both domains
    run the same elimination.
    """
    M = vector_connection_derivative(phi, L, p)
    nu, mu = _solve_agm(phi.value, M)
    return nu, mu, tc.max_abs_diff(M, _relation(phi.value, nu, mu))


def _solve_agm(phi_v: Tensor, M: Tensor):
    """(nu, mu) from the kind-p derivative M of phi, by elimination on phi's
    largest component; an int pivot divides exactly."""
    if phi_v.is_zero():
        raise DegenerateError("cannot fit parameters for a vanishing vector field")
    dim = phi_v.dim
    k = max(range(dim), key=lambda i: (abs(phi_v[(i,)]), -i))
    pk = phi_v[(k,)]
    if type(pk) is int:
        pk = Fraction(pk)
    nu_vals = [M[(k, j)] / pk for j in range(dim)]  # valid for j != k
    i0 = 0 if k != 0 else 1
    mu = M[(i0, i0)] - nu_vals[i0] * phi_v[(i0,)]
    nu_vals[k] = (M[(k, k)] - mu) / pk
    return Tensor(dim, (0, 1), nu_vals), mu


def _relation(phi_v: Tensor, nu: Tensor, mu) -> Tensor:
    """nu_j phi^i + mu d^i_j: the right-hand side of the defining relation."""
    return tc.add(tc.ein("i,j->ij", (1, 1), phi_v, nu),
                  tc.scale(tc.delta(phi_v.dim), mu))
