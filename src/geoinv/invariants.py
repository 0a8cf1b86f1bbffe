"""Thomas-type and Weyl-type invariants of the transformation rule.

Every function here evaluates one side of a mapping from its SpaceFields
bundle; comparing the source and target evaluations is what certifies (or
refutes) invariance.  All Weyl-type outputs are antisymmetric in their last
index pair by construction.

Two deliberately redundant routes exist in several places (e.g. the basic
reduced connection versus its expanded form, and the closed derived forms
versus their generic compositions); tests assert the routes agree instead of
collapsing them into one implementation.
"""

from __future__ import annotations

from fractions import Fraction

from . import tensor_core as tc
from .connection import ConnectionSpace
from .jet import covariant_derivative
from .mappings import SpaceFields
from .tensor_core import GeoinvError, Tensor, once


class DecompositionError(GeoinvError):
    """A decomposition input violates its shape or symmetry contract."""


def _alt_last(T: Tensor) -> Tensor:
    return tc.alternate(T, 2, 3)


# ---------------------------------------------------------------------------
# Thomas-type invariants


def thomas_basic(fields: SpaceFields) -> Tensor:
    """The reduced connection: symmetric part minus this side's omega."""
    return tc.sub(fields.space.Lsym.value, fields.omega.value)


def thomas_third(src: ConnectionSpace, tgt: ConnectionSpace) -> Tensor:
    """Arithmetic mean of the two symmetric parts (manifestly pair-symmetric)."""
    return tc.scale(tc.add(src.Lsym.value, tgt.Lsym.value), Fraction(1, 2))


def thomas_factored(fields: SpaceFields) -> Tensor:
    """Expanded form of the reduced connection (independent route).

    Symmetric part, minus the deformation source, minus the delta-completion
    of the reduced trace.
    """
    return tc.sub(
        tc.sub(fields.space.Lsym.value, fields.B.value),
        tc.scale(tc.delta_sym(fields.theta_tilde.value), Fraction(1, fields.dim + 1)),
    )


def theta_tilde(fields: SpaceFields) -> Tensor:
    """Reduced trace: connection trace minus the deformation-source trace."""
    return fields.theta_tilde.value


def thomas_star(fields: SpaceFields) -> Tensor:
    """Trace-shift-free reduced connection: symmetric part minus the source."""
    return tc.sub(fields.space.Lsym.value, fields.B.value)


# ---------------------------------------------------------------------------
# Weyl-type invariants, basic and factored


def weyl_basic(fields: SpaceFields) -> Tensor:
    """Curvature of the reduced connection, assembled from omega's jet."""
    om = fields.omega
    cd = covariant_derivative(om, fields.space.Lsym)
    quad = tc.ein("ajm,ian->ijmn", (1, 3), om.value, om.value)
    return tc.add(fields.space.R, tc.sub(_alt_last(quad), _alt_last(cd)))


@once
def rho(fields: SpaceFields) -> Tensor:
    """Covariant derivative of the deformation-source trace."""
    return covariant_derivative(fields.b, fields.space.Lsym)


def rho_skew(fields: SpaceFields) -> Tensor:
    return tc.alternate(rho(fields), 0, 1)


@once
def S_tilde(fields: SpaceFields) -> Tensor:
    """Quadratic trace completion; symmetric by construction."""
    tt = fields.theta_tilde.value
    first = tc.ein("a,aij->ij", (0, 2), tt, fields.B.value)
    return tc.add(tc.scale(first, fields.dim + 1), tc.ein("i,j->ij", (0, 2), tt, tt))


@once
def A_tensor(fields: SpaceFields) -> Tensor:
    """Deformation curvature: minus the alternated derivative plus the square."""
    B = fields.B
    cd = covariant_derivative(B, fields.space.Lsym)
    quad = tc.ein("ajm,ian->ijmn", (1, 3), B.value, B.value)
    return tc.sub(_alt_last(quad), _alt_last(cd))


@once
def A_trace(fields: SpaceFields) -> Tensor:
    """Symmetrized last-slot trace of the deformation curvature."""
    return tc.sym_pair(tc.ein("ajna->jn", (0, 2), A_tensor(fields)), 0, 1)


# the (0,2) cores whose delta_mix blocks several forms share
_MIX_CORES = {
    "theta": lambda f: f.space.trace_cov_derivative(),
    "rho": lambda f: rho(f),
    "s_tilde": lambda f: S_tilde(f),
    "a_trace": lambda f: A_trace(f),
    "sym_ricci": lambda f: tc.sym_pair(f.space.ricci, 0, 1),
}


@once
def delta_block(fields: SpaceFields, core: str) -> Tensor:
    """delta_mix of one named (0,2) core of this side, built once per bundle:
    "theta" (the covector-rule trace derivative), "rho", "s_tilde",
    "a_trace" or "sym_ricci" (the symmetrized Ricci tensor)."""
    return tc.delta_mix(_MIX_CORES[core](fields))


@once
def weyl_factored(fields: SpaceFields) -> Tensor:
    """The factored Weyl-type invariant of the full rule."""
    N = fields.dim
    out = tc.add(fields.space.R, A_tensor(fields))
    bracket = tc.sub(delta_block(fields, "theta"), delta_block(fields, "rho"))
    out = tc.add_scaled(out, Fraction(-1, N + 1), bracket)
    return tc.add_scaled(out, Fraction(-1, (N + 1) ** 2), delta_block(fields, "s_tilde"))


# ---------------------------------------------------------------------------
# derived invariants of a decomposition


class Decomposition:
    """A deformation-type (1,3) form written as delta_mix(Y) + Z.

    Y is (0,2); Z is (1,3) and must be antisymmetric in its last two slots,
    the only shape the constructions are stated for.  The rebuild operator
    (``derived_invariants``) and the agm split share the blocks built once
    here: ``mix_Y``, ``total = mix_Y + Z``, ``z_last`` (Z's last-slot trace
    Z^a_jna), ``z_trace`` (its symmetrization) and ``mix_z_trace``.
    """

    __slots__ = ("Y", "Z", "mix_Y", "total", "z_last", "z_trace", "mix_z_trace")

    def __init__(self, Y: Tensor, Z: Tensor):
        if Y.valence != (0, 2) or Z.valence != (1, 3):
            raise DecompositionError(
                f"Y, Z valences must be (0,2), (1,3); got {Y.valence}, {Z.valence}")
        if not tc.add(Z, tc.transpose_pair(Z, 2, 3)).is_zero():
            raise DecompositionError("Z must be antisymmetric in its last two slots")
        self.Y, self.Z = Y, Z
        self.mix_Y = tc.delta_mix(Y)
        self.total = tc.add(self.mix_Y, Z)
        self.z_last = tc.ein("ajna->jn", (0, 2), Z)
        self.z_trace = tc.sym_pair(self.z_last, 0, 1)
        self.mix_z_trace = tc.delta_mix(self.z_trace)

    def total_trace(self) -> Tensor:
        """The symmetrized last-slot trace of ``total``, z_trace - (N-1) Y.

        Holds only for a symmetric Y, whose delta block contributes
        -(N-1) Y to that trace; the agm split's Y = -mu/2 sigma is symmetric,
        as sigma is on every instance (generated so, and checked on load).
        """
        return tc.add_scaled(self.z_trace, -(self.Y.dim - 1), self.Y)


def derived_invariants(dec: Decomposition,
                       space: ConnectionSpace) -> dict[str, Tensor]:
    """The first, second and fourth derived forms of R + delta_mix(Y) + Z."""
    N = space.dim
    z_tr_first = tc.ein("aamn->mn", (0, 2), dec.Z)       # Z^a_amn
    alt_Y = tc.alternate(dec.Y, 0, 1)
    curv = tc.add(space.R, dec.total)
    first = tc.add_scaled(curv, Fraction(-1, N),
                          tc.delta_outer(tc.add(alt_Y, z_tr_first)))
    second = tc.add_scaled(curv, Fraction(-1, 2), tc.delta_outer(
        tc.sub(tc.scale(alt_Y, N - 1), tc.alternate(dec.z_last, 0, 1))))
    c = Fraction(1, N - 1)
    fourth = tc.add_scaled(tc.add(space.R, dec.Z), c,
                           tc.delta_mix(tc.sym_pair(space.ricci, 0, 1)))
    return {"first": first, "second": second,
            "fourth": tc.add_scaled(fourth, c, dec.mix_z_trace)}


def _trace_decomposition(fields: SpaceFields, completion: Tensor) -> Decomposition:
    N = fields.dim
    bracket = tc.sub(rho(fields), fields.space.trace_cov_derivative())
    Y = tc.add_scaled(tc.scale(bracket, Fraction(1, N + 1)),
                      Fraction(-1, (N + 1) ** 2), completion)
    return Decomposition(Y, A_tensor(fields))


def xyz_weyl_factored(fields: SpaceFields) -> Decomposition:
    """The factored Weyl form, written as a decomposition."""
    return _trace_decomposition(fields, S_tilde(fields))


def xyz_weyl_fourth(fields: SpaceFields) -> Decomposition:
    N = fields.dim
    Y = tc.scale(tc.add(tc.sym_pair(fields.space.ricci, 0, 1), A_trace(fields)),
                 Fraction(1, N - 1))
    return Decomposition(Y, A_tensor(fields))


def xyz_weyl_first_display(fields: SpaceFields) -> Decomposition:
    """The displayed first form: the factored one, completed by the A-trace."""
    return _trace_decomposition(fields, A_trace(fields))


# ---------------------------------------------------------------------------
# closed derived forms


@once
def weyl_fourth(fields: SpaceFields) -> Tensor:
    """Fourth derived form: trace-completed with the symmetrized Ricci data."""
    c = Fraction(1, fields.dim - 1)
    out = tc.add(fields.space.R, A_tensor(fields))
    out = tc.add_scaled(out, c, delta_block(fields, "sym_ricci"))
    return tc.add_scaled(out, c, delta_block(fields, "a_trace"))


def weyl_first_display(fields: SpaceFields) -> Tensor:
    """First derived form exactly as displayed (kept for diagnostics).

    Not invariant in general: it differs from the factored form by a
    delta-bracket of (S-completion minus the A-trace), which moves under the
    rule; see `weyl_first_over` for the invariant closure.
    """
    N = fields.dim
    inner = tc.add_scaled(
        tc.scale(tc.sub(delta_block(fields, "theta"), delta_block(fields, "rho")),
                 N + 1),
        1, delta_block(fields, "a_trace"),
    )
    return tc.add(tc.add_scaled(fields.space.R, Fraction(-1, (N + 1) ** 2), inner),
                  A_tensor(fields))


def weyl_first_over(fields: SpaceFields) -> Tensor:
    """First derived form, closed over the factored invariant.

    Equals the first derived construction applied to the factored form's
    decomposition; written directly as the factored invariant plus a pure
    trace correction.
    """
    N = fields.dim
    corr = tc.add_scaled(
        tc.scale(rho_skew(fields), Fraction(1, N + 1)),
        Fraction(-1, N * (N + 1)), fields.space.skew_ricci,
    )
    return tc.add(weyl_factored(fields), tc.delta_outer(corr))


# ---------------------------------------------------------------------------
# trace-shift-only (geodesic) forms


def geodesic_thomas(space: ConnectionSpace) -> Tensor:
    """Reduced connection of the trace-shift rule."""
    return tc.add_scaled(space.Lsym.value, Fraction(-1, space.dim + 1),
                         tc.delta_sym(space.theta.value))


def geodesic_weyl(space: ConnectionSpace) -> Tensor:
    """Weyl-type form of the trace-shift rule.

    The delta-diagonal block alternates the special trace derivative (its
    symmetric excess over the covector rule cancels under alternation); the
    mixed block keeps the covector rule, which is what makes the form move
    with the basic Weyl form and stay invariant.
    """
    N = space.dim
    th = space.theta.value
    sp = space.special_trace_derivative()
    out = tc.add_scaled(space.R, Fraction(1, N + 1),
                        tc.delta_outer(tc.alternate(sp, 0, 1)))
    inner = tc.add(tc.scale(space.trace_cov_derivative(), N + 1),
                   tc.ein("j,n->jn", (0, 2), th, th))
    return tc.add_scaled(out, Fraction(-1, (N + 1) ** 2), tc.delta_mix(inner))


def weyl_projective(space: ConnectionSpace) -> Tensor:
    """The classical projective-type tensor of the symmetric part."""
    N = space.dim
    out = tc.add_scaled(space.R, Fraction(1, N + 1), tc.delta_outer(space.skew_ricci))
    out = tc.add_scaled(out, Fraction(N, N * N - 1), tc.delta_mix(space.ricci))
    return tc.add_scaled(
        out, Fraction(1, N * N - 1), tc.delta_mix(tc.transpose_pair(space.ricci, 0, 1))
    )
