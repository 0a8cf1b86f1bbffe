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

With the endomorphism pair but no symmetric object (s2 = 1, s3 = 0) the
second constraint is a linear system, solved through ``tc.solver``.  The
trace of the barred endomorphism is bumped until the system is regular,
decided in both modes on the same exact determinant (lattice floats are
dyadic), so both modes take the same bumps.  In exact mode the elimination
that gives that determinant also gives the solution, on scaled integers;
float mode solves by its own pivoted elimination, so its bits hold.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction

from . import tensor_core as tc
from .connection import ConnectionSpace
from .jet import (
    JetTensor,
    constant_jet,
    jet_lincomb,
    jet_mul,
    linear,
    zero_jet,
)
from .tensor_core import DOMAINS, Domain, GeoinvError, Tensor, _pivot, once


class InstanceError(GeoinvError):
    """A mapping instance is malformed or internally inconsistent."""


def _check_dim(dim: int) -> None:
    if dim < 2:
        raise InstanceError(f"dimension must be >= 2, got {dim}")


class DegenerateError(GeoinvError):
    """Generated or supplied data is too degenerate for the operation."""


class NotApplicableError(GeoinvError):
    """The requested quantity is undefined for this instance's flags."""


# an instance field: its valence, the symmetry of the lower pair (the value's
# last two slots) of its value and gradient, "symmetric", "antisymmetric" or ""
# for none, and whether it is required (an absent field reads as zero)
Field = namedtuple("Field", "valence lower required", defaults=("", False))
_SHARED = {"L": Field((1, 2), required=True), "u": Field((0, 1)),
           "u_bar": Field((0, 1)), "phi_obj": Field((1, 2), "symmetric"),
           "phi_obj_bar": Field((1, 2), "symmetric")}
_RULE = {**_SHARED, "sigma": Field((0, 1)), "sigma_bar": Field((0, 1)),
         "f": Field((1, 1)), "f_bar": Field((1, 1)),
         "xi": Field((1, 2), "antisymmetric")}
# the instance contract: each mapping's fields, in the order validate checks them
FIELDS = {"general": _RULE, "geodesic": _RULE,
          "agm3": {**_SHARED, "sigma": Field((0, 2), "symmetric", True),
                   "phi": Field((1, 0), "", True), "nu": Field((0, 1), "", True),
                   "mu": Field((0, 0), "", True)}}
MAPPINGS = tuple(FIELDS)
MODES = tuple(DOMAINS)
# the flags (s1, s2, s3) a mapping family fixes; general instances choose them
FIXED_FLAGS = {"geodesic": (1, 0, 0), "agm3": (1, 0, 1)}


def curl(w: JetTensor) -> Tensor:
    """w_m,n - w_n,m for a covector jet."""
    return tc.alternate(w.grad, 0, 1)


def side_terms(flags, field) -> tuple[JetTensor, ...]:
    """One side's flag-gated symmetric rule terms, in order: paired
    f (x) sigma when s2, then phi_obj when s3.  ``field(name)`` gives the
    side's field by its unbarred name, zero when absent."""
    _, s2, s3 = flags
    terms = ()
    if s2:  # f^i_j sigma_k + f^i_k sigma_j, factor-free
        terms += (linear(tc.sym_pair, jet_mul(field("f"), field("sigma")), 1, 2, True),)
    if s3:
        terms += (field("phi_obj"),)
    return terms


def deformation_source(dim: int, terms: tuple[JetTensor, ...]) -> JetTensor:
    """A side's rule terms summed onto a zero jet, in order."""
    return jet_lincomb([(1, zero_jet(dim, (1, 2))), *((1, t) for t in terms)])


# per-space data of a third-type almost-geodesic mapping: the symmetric (0,2)
# jet sigma, the (1,0) jet phi, the (0,1) value nu, the scalar mu and the kind p
AGMData = namedtuple("AGMData", "sigma phi nu mu p")


class SpaceFields:
    """One side of a mapping: its connection space plus the rule's fields.

    The deformation source B, its trace b, the reduced trace and the omega
    tensor are computed once on first use and shared by every invariant.
    """

    def __init__(self, space: ConnectionSpace, mode: str,
                 terms: tuple[JetTensor, ...], agm: AGMData | None = None):
        self.space = space
        self.domain = DOMAINS[mode]
        self.terms = terms
        self.agm = agm

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    @once
    def B(self) -> JetTensor:
        """Deformation source: the flag-gated symmetric rule terms of this side."""
        return deformation_source(self.dim, self.terms)

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
        return jet_lincomb(((1, self.B), (Fraction(1, self.dim + 1), dt)))


def check_valence(mapping: str, name: str, valence: tuple[int, int]) -> None:
    """Raise unless a ``mapping`` instance has a field ``name`` of this valence
    (an unknown mapping is held to the general table; ``validate`` names it)."""
    spec = FIELDS.get(mapping, _RULE).get(name)
    if spec is None:
        raise InstanceError(f"unexpected field {name!r} for {mapping}")
    if valence != spec.valence:
        raise InstanceError(
            f"field {name!r} has valence {valence}, expected {spec.valence}")


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

    def field(self, name: str) -> JetTensor:
        t = self.fields.get(name)
        return t if t is not None else zero_jet(
            self.dim, FIELDS[self.mapping][name].valence)

    def validate(self) -> None:
        """The one gate for an instance: its mapping's ``FIELDS`` and, for agm3,
        the derivative relation on both sides (DegenerateError if phi vanishes)."""
        _check_dim(self.dim)
        if self.mode not in MODES:
            raise InstanceError(f"unknown mode {self.mode!r}")
        if self.mapping not in MAPPINGS:
            raise InstanceError(f"unknown mapping {self.mapping!r}")
        # exact types: True and 1.0 compare equal to 1 but are not flags or p
        if len(self.flags) != 3 or any(type(s) is not int or s not in (0, 1)
                                       for s in self.flags):
            raise InstanceError(f"flags must be three 0/1 values, got {self.flags}")
        if self.p is not None and self.mapping != "agm3":
            raise InstanceError("p applies only to agm3 instances")
        if self.mapping == "agm3" and (type(self.p) is not int or self.p not in (1, 2)):
            raise InstanceError(f"p must be 1 or 2, got {self.p!r}")
        fixed = FIXED_FLAGS.get(self.mapping, self.flags)
        if self.flags != fixed:
            raise InstanceError(f"{self.mapping} instances fix flags "
                                f"({','.join(map(str, fixed))})")
        table = FIELDS[self.mapping]
        for name, spec in table.items():
            if spec.required and name not in self.fields:
                raise InstanceError("instance has no connection field 'L'" if name == "L"
                                    else f"{self.mapping} instance has no field {name!r}")
        for name, t in self.fields.items():
            check_valence(self.mapping, name, t.valence)
            if t.dim != self.dim:
                raise InstanceError(f"field {name!r} has dimension {t.dim}")
        for name, spec in table.items():
            t = self.fields.get(name)
            if t is None or not spec.lower:
                continue
            a = sum(spec.valence) - 2  # the lower pair
            for part, x in (("", t.value), (" gradient", t.grad)):
                want = tc.scale(x, -1) if spec.lower == "antisymmetric" else x
                if tc.transpose_pair(x, a, a + 1) != want:
                    raise InstanceError(
                        f"field {name!r}{part} must be {spec.lower} in its lower pair")
        if self.mapping == "agm3":  # the derivative relation, source then target
            self.source_fields()
            self.target_fields()

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
        return SpaceFields(space, self.mode, self.rule_terms(bar),
                           self._agm_block(space, source=not bar))

    @once
    def rule_terms(self, bar: str) -> tuple[JetTensor, ...]:
        """One side's rule terms (bar as in ``_side``), built once for its B
        and the target connection."""
        return side_terms(self.flags, lambda name: self.field(name + bar))

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
        try:
            ok, res, _ = self.domain.measure(M, _relation(phi.value, nu, mu))
            shown = f"residual {self.domain.num_out(res)}"
        except GeoinvError as e:  # past the float range or int()'s digit limit
            ok, shown = False, e
        if not ok:
            raise InstanceError(f"{side} connection misses the agm3 derivative "
                                f"relation: {kind} {shown}")
        return AGMData(sigma, phi, nu, mu, self.p)


def build_target_connection(inst: MappingInstance) -> JetTensor:
    """Apply the transformation rule to the source connection jet."""
    rows = [(1, inst.fields["L"])]
    if inst.flags[0]:
        psi = linear(tc.sub, inst.field("u_bar"), inst.field("u"))
        rows.append((1, linear(tc.delta_sym, psi)))
    # term by term: adding B_bar - B in one step rounds float sums differently
    for t_bar, t in zip(inst.rule_terms("_bar"), inst.rule_terms("")):
        rows.append((1, linear(tc.sub, t_bar, t)))
    if "xi" in inst.fields:
        rows.append((1, inst.fields["xi"]))
    return jet_lincomb(rows)


# ---------------------------------------------------------------------------
# generators


_LATTICE = bytes((v >> 2) - 16 & 255 for v in range(256))  # top byte -> draw
_REDRAWN = bytes(range(132, 256))  # top 6 bits 33 or more: randrange redraws


def _lattice(r: random.Random, n: int) -> list[int]:
    """n draws of ``r.randrange(-16, 17)``, taken in blocks.

    randrange draws 6 bits, the top 6 of one 32-bit output, until they fall
    below 33.  A block of the m draws still missing is one
    ``r.getrandbits(32 * m)``, m outputs least significant first (CPython),
    so the numbers and the state of r are those of n randrange calls."""
    out = bytearray()
    while len(out) < n:
        m = n - len(out)
        words = r.getrandbits(32 * m).to_bytes(4 * m, "little")
        out += words[3::4].translate(_LATTICE, _REDRAWN)
    return memoryview(out).cast("b").tolist()  # signed bytes


def _draw(r, dom: Domain, dim, valence) -> Tensor:
    return dom.tensor(dim, valence, _lattice(r, dim ** sum(valence)), 16)


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
        # the trace until that matrix is regular (see the module docstring)
        for bump in range(1, 64):
            solve = tc.solver(_rule_matrix(f_bar.value))
            if solve is not None:
                break
            f_bar = JetTensor(tc.lincomb(
                ((1, f_bar.value), (Fraction(1, 16), tc.delta(dim)))), f_bar.grad)
        else:  # pragma: no cover
            raise DegenerateError("could not make the trace-fix system regular")

    phi_obj = linear(tc.sym_pair, _draw_jet(r, dom, dim, (1, 2)), 1, 2)
    phi_obj_bar = linear(tc.sym_pair, _draw_jet(r, dom, dim, (1, 2)), 1, 2)
    xi_raw = _draw_jet(r, dom, dim, (1, 2))
    xi = linear(tc.scale, linear(tc.alternate, xi_raw, 1, 2), Fraction(1, 2))

    # -- exact curl fix for the deformation-trace difference ---------------
    def b_of(fj, sj, pj) -> JetTensor:
        terms = side_terms(flags, {"f": fj, "sigma": sj, "phi_obj": pj}.get)
        return linear(tc.contract, deformation_source(dim, terms), 0, 0)

    eps = tc.alternate_sum(((1, b_of(f_bar, sigma_bar, phi_obj_bar).grad),
                            (-1, b_of(f, sigma, phi_obj).grad)), 0, 1)
    if not eps.is_zero():
        V = tc.scale(eps, Fraction(-1, 2))
        if s3:
            # shift the barred object's gradient by a delta-shaped correction
            # whose trace is exactly V
            phi_obj_bar = JetTensor(
                phi_obj_bar.value,
                tc.lincomb(((1, phi_obj_bar.grad),
                            (Fraction(1, dim + 1), tc.delta_sym(V)))),
            )
        elif s2:
            shift = solve(V)
            if shift is None:  # pragma: no cover - a float pivot vanished
                raise DegenerateError("curl-fix system became singular")
            sigma_bar = JetTensor(sigma_bar.value, tc.add(sigma_bar.grad, shift))
        else:  # pragma: no cover - b vanishes identically when s2 = s3 = 0
            raise DegenerateError("unexpected trace curl with no deformation source")

    fields = {"L": L, "u": u, "u_bar": u_bar, "sigma": sigma,
              "sigma_bar": sigma_bar, "f": f, "f_bar": f_bar,
              "phi_obj": phi_obj, "phi_obj_bar": phi_obj_bar, "xi": xi}
    return MappingInstance(dim, mode, flags, "general", fields, seed=seed)


def _rule_matrix(fv: Tensor) -> Tensor:
    """Rows k, columns a of f^a_k + tr(f) d^a_k (the curl-fix system).  On
    float entries each is fv's entry plus tr(f) or an exact zero, with the
    bits of that sum."""
    tr = tc.contract(fv, 0, 0)
    return tc.add(tc.ein("ak->ka", (1, 1), fv), tc.outer(tr, tc.delta(fv.dim)))


def _sym_with_product(r, dom, phi_v: Tensor, target: Tensor) -> Tensor:
    """Draw S, symmetric in its first two slots, with S_ja phi^a = target.

    Rank-two correction of a free symmetric draw: with v a covector dual to
    phi (v.phi = 1), S = S0 + a (x) v + v (x) a lands on the target while
    staying symmetric.  A (0,1) target gives the bilinear form's value; a
    (0,2) target, whose last slot is a batch, gives every gradient slice at
    once from one block of draws, slice after slice.
    """
    dim, n = phi_v.dim, "n" if target.q == 2 else ""  # n: the batch slot
    k = _pivot(phi_v.data)
    v = Tensor(dim, (0, 1), [1 / phi_v.data[k] if j == k else 0 for j in range(dim)])
    S0 = _draw(r, dom, dim, (0, 2 + len(n)))
    if n:
        S0 = tc.ein("njk->jkn", (0, 3), S0)
    S0 = tc.sym_pair(S0, 0, 1)
    res = tc.sub(target, tc.ein(f"ja{n},a->j{n}", target.valence, S0, phi_v))
    rphi = tc.ein(f"a{n},a->{n}", (0, len(n)), res, phi_v)
    a = tc.sub(res, tc.ein(f"j,{n}->j{n}", target.valence, v,
                           tc.scale(rphi, Fraction(1, 2))))
    av = tc.ein(f"j{n},k->jk{n}", S0.valence, a, v)
    return tc.lincomb(((1, S0), (1, av), (1, tc.transpose_pair(av, 0, 1))))


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
    mu = dom.c(*_lattice(r, 1), 16)

    # gradient fixed by the defining relation (full connection, order per p)
    phi_g = tc.sub(_relation(phi_v, nu, mu), _connection_term(L.value, phi_v, p))
    phi = JetTensor(phi_v, phi_g)

    # sigma: symmetric, with sigma.phi following a prescribed curl-free jet
    w_val = _draw(r, dom, dim, (0, 1))
    w_grad = tc.sym_pair(_draw(r, dom, dim, (0, 2)), 0, 1, factor_free=True)
    sigma_v = _sym_with_product(r, dom, phi_v, w_val)
    sigma_g = _sym_with_product(
        r, dom, phi_v, tc.sub(w_grad, tc.ein("ja,an->jn", (0, 2), sigma_v, phi_g)))
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


def vector_connection_derivative(phi: JetTensor, L: JetTensor, p: int,
                                 literal: bool = False) -> Tensor:
    """The kind-p connection derivative of a vector field.

    Kind 1 contracts the connection's middle lower slot with the vector,
    kind 2 the last one.  ``literal=True`` reproduces, for kind 2 only, the
    uncontracted diagnostic variant in which the connection term is summed
    over its last slot with no vector factor.
    """
    if p not in (1, 2):
        raise InstanceError(f"p must be 1 or 2, got {p}")
    if literal:
        if p != 2:
            raise NotApplicableError("the literal variant only exists for p=2")
        return tc.add(phi.grad, tc.ein("ija->ij", (1, 1), L.value))
    return tc.add(phi.grad, _connection_term(L.value, phi.value, p))


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
    k = _pivot(phi_v.data)
    pk = phi_v.data[k]
    if type(pk) is int:
        pk = Fraction(pk)
    nu_vals = [M[(k, j)] / pk for j in range(dim)]  # valid for j != k
    i0 = 0 if k != 0 else 1
    mu = M[(i0, i0)] - nu_vals[i0] * phi_v[(i0,)]
    nu_vals[k] = (M[(k, k)] - mu) / pk
    return Tensor(dim, (0, 1), nu_vals), mu


def _relation(phi_v: Tensor, nu: Tensor, mu) -> Tensor:
    """nu_j phi^i + mu d^i_j: the right-hand side of the defining relation."""
    return tc.lincomb(((1, tc.ein("i,j->ij", (1, 1), phi_v, nu)),
                       (mu, tc.delta(phi_v.dim))))
