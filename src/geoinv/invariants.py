"""Thomas-type and Weyl-type invariants of the transformation rule.

Every function here evaluates one side of a mapping from its SpaceFields
bundle (a geodesic form from its ConnectionSpace); comparing the two sides is
what certifies (or refutes) invariance.  Each Weyl-type form but the basic
one is a coefficient table over named parts (``weyl_tables``, ``part``); all
are antisymmetric in their last index pair by construction.  ``part`` is the
one resolver of named parts and ``_sum`` the one row sum: the third-type
closed forms (``agm.forms``) are parts too, summed from rows of theirs.

Two deliberately redundant routes exist in several places (e.g. the basic
reduced connection versus its expanded form, and the closed derived forms
versus their generic compositions); tests assert the routes agree instead of
collapsing them into one implementation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from types import MappingProxyType

from . import tensor_core as tc
from .connection import ConnectionSpace, curvature
from .jet import JetTensor, covariant_derivative, jet_lincomb
from .mappings import SpaceFields
from .tensor_core import GeoinvError, Tensor, once


class DecompositionError(GeoinvError):
    """A decomposition input violates its shape or symmetry contract."""


# ---------------------------------------------------------------------------
# Thomas-type invariants


def thomas_basic(fields: SpaceFields) -> Tensor:
    """The reduced connection: symmetric part minus this side's omega."""
    return tc.sub(fields.space.Lsym.value, fields.omega.value)


def thomas_third(src: ConnectionSpace, tgt: ConnectionSpace) -> Tensor:
    """Arithmetic mean of the two symmetric parts (manifestly pair-symmetric)."""
    h = Fraction(1, 2)  # halves are exact: the bits of (a + b) / 2
    return tc.lincomb(((h, src.Lsym.value), (h, tgt.Lsym.value)))


def thomas_factored(fields: SpaceFields) -> Tensor:
    """Expanded form of the reduced connection (independent route).

    Symmetric part, minus the deformation source, minus the delta-completion
    of the reduced trace.
    """
    return tc.lincomb(((1, fields.space.Lsym.value), (-1, fields.B.value),
                       (Fraction(-1, fields.dim + 1),
                        tc.delta_sym(fields.theta_tilde.value))))


def theta_tilde(fields: SpaceFields) -> Tensor:
    """Reduced trace: connection trace minus the deformation-source trace."""
    return fields.theta_tilde.value


def thomas_star(fields: SpaceFields) -> Tensor:
    """Trace-shift-free reduced connection: symmetric part minus the source."""
    return tc.sub(fields.space.Lsym.value, fields.B.value)


def geodesic_thomas(space: ConnectionSpace) -> Tensor:
    """Reduced connection of the trace-shift rule."""
    return tc.lincomb(((1, space.Lsym.value),
                       (Fraction(-1, space.dim + 1), tc.delta_sym(space.theta.value))))


# ---------------------------------------------------------------------------
# Weyl-type invariants: the basic form, then tables over named parts


def _exact_jets(X: JetTensor, space: ConnectionSpace) -> bool:
    """Whether X's jet and R (so Lsym's jet) are exact."""
    return tc._exact(space.R, X.value, X.grad)


def _deformed_curvature(X: JetTensor, space: ConnectionSpace) -> Tensor:
    """alt(X.X) - alt(nabla X) over the last pair, what the deformation X adds
    to the curvature, as written."""
    quad = tc.ein("ajm,ian->ijmn", (1, 3), X.value, X.value)
    return tc.alternate_sum(((1, quad), (-1, covariant_derivative(X, space.Lsym))), 2, 3)


def _reduced_curvature(X: JetTensor, space: ConnectionSpace, deformed) -> Tensor:
    """The curvature of the reduced connection Lsym - X, which is R +
    alt(X.X) - alt(nabla X) as Lsym's lower pair is symmetric (the structure
    equation of a difference of connections; Kobayashi & Nomizu I, 1963).
    Exact operands take one quadratic contraction, ``curvature(Lsym - X)``;
    any other takes R + ``deformed()`` as written, so float bits hold."""
    if _exact_jets(X, space):
        return curvature(jet_lincomb(((1, space.Lsym), (-1, X))))
    return tc.add(space.R, deformed())


def weyl_basic(fields: SpaceFields) -> Tensor:
    """Curvature of the reduced connection Lsym - omega."""
    omega, space = fields.omega, fields.space
    return _reduced_curvature(omega, space, lambda: _deformed_curvature(omega, space))


@once
def rho(fields: SpaceFields) -> Tensor:
    """Covariant derivative of the deformation-source trace."""
    return covariant_derivative(fields.b, fields.space.Lsym)


@once
def rho_skew(fields: SpaceFields) -> Tensor:
    """The skew part of rho, built once per side: the check row and the
    table part read the same tensor."""
    return tc.alternate(rho(fields), 0, 1)


@once
def S_tilde(fields: SpaceFields) -> Tensor:
    """Quadratic trace completion; symmetric by construction."""
    tt = fields.theta_tilde.value
    first = tc.ein("a,aij->ij", (0, 2), tt, fields.B.value)
    return tc.lincomb(((fields.dim + 1, first), (1, tc.ein("i,j->ij", (0, 2), tt, tt))))


@once
def A_tensor(fields: SpaceFields) -> Tensor:
    """Deformation curvature: minus the alternated derivative plus the
    square, what B adds to R.  On exact operands it is R_B - R, where R_B,
    the curvature of Lsym - B, is one contraction."""
    if _exact_jets(fields.B, fields.space):
        return tc.sub(part(fields, "R_B"), fields.space.R)
    return _deformed_curvature(fields.B, fields.space)


def _sym_trace(t: Tensor) -> Tensor:
    return tc.sym_pair(tc.ein("ajna->jn", (0, 2), t), 0, 1)


@once
def A_trace(fields: SpaceFields) -> Tensor:
    """Symmetrized last-slot trace of the deformation curvature.  On exact
    operands it is R_B's less R's, which is ``sym_ricci``, so A is not built."""
    if _exact_jets(fields.B, fields.space):
        return tc.sub(_sym_trace(part(fields, "R_B")), fields.space.sym_ricci)
    return _sym_trace(A_tensor(fields))


# a side's named parts besides its Weyl-type forms, by (side, its space):
# (1,3) tensors, and (0,2) cores that a row takes through a delta block.
# ``agm`` adds the third-type rule's parts and closed forms at import
PARTS = {
    "R": lambda f, s: s.R,
    "A": lambda f, s: A_tensor(f),
    # R + A, the curvature of Lsym - B: the first two rows of the written
    # factored and fourth forms, summed once for both
    "R_B": lambda f, s: _reduced_curvature(f.B, s, lambda: A_tensor(f)),
    "theta": lambda f, s: s.trace_cov_derivative(),
    # a delta_mix entry is +-(theta - rho) or an exact zero, so the block of
    # this bracket is the difference of the two cores' blocks, to the bit
    "theta_rho": lambda f, s: tc.sub(s.trace_cov_derivative(), rho(f)),
    "theta_theta": lambda f, s: tc.outer(s.theta.value, s.theta.value),
    "s_tilde": lambda f, s: S_tilde(f),
    "a_trace": lambda f, s: A_trace(f),
    "rho_skew": lambda f, s: rho_skew(f),
    "ricci": lambda f, s: s.ricci,
    "ricci_T": lambda f, s: tc.transpose_pair(s.ricci, 0, 1),
    "sym_ricci": lambda f, s: s.sym_ricci,
    "skew_ricci": lambda f, s: s.skew_ricci,
    "special_skew": lambda f, s: tc.alternate(s.special_trace_derivative(), 0, 1),
}


class _Block(tuple):
    """A delta block's part name, (kind, cores) with kind "mix" or "outer"
    and cores its (coefficient, part) rows, that hashes once: a memo hashes
    its key on lookup and again on store, and a core's ``Fraction``
    coefficient hashes in Python.  Equal to, and hashed as, the plain
    tuple.  Every table block is named by one."""

    def __new__(cls, kind: str, *cores: tuple):
        self = super().__new__(cls, (kind, cores))
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self) -> int:
        return self._hash


@cache
def weyl_tables(N: int) -> MappingProxyType[str, tuple[tuple, ...]]:
    """Each Weyl-type form's rows (coefficient, part) at dimension N, in
    summation order; built once per N and shared, so read-only.  Rows keep
    the written formulas' grouping, so float sums round as those do: R_B is
    R + A summed first, as a form's leading (1, R), (1, A) rows are."""
    F = Fraction
    return MappingProxyType({
        "weyl_factored": (
            (1, "R_B"), (F(-1, N + 1), _Block("mix", (1, "theta_rho"))),
            (F(-1, (N + 1) ** 2), _Block("mix", (1, "s_tilde")))),
        "weyl_fourth": (
            (1, "R_B"), (F(1, N - 1), _Block("mix", (1, "sym_ricci"))),
            (F(1, N - 1), _Block("mix", (1, "a_trace")))),
        # the first derived form as displayed, kept for diagnostics.  Not
        # invariant in general: it differs from the factored form by a delta
        # bracket of (S-completion minus the A-trace), which moves under the
        # rule; weyl_first_over is the invariant closure
        "weyl_first_display": (
            (1, "R"),
            (F(-1, (N + 1) ** 2),
             _Block("mix", (N + 1, "theta_rho"), (1, "a_trace"))),
            (1, "A")),
        # the first derived construction applied to the factored form's
        # decomposition: the factored invariant plus a pure trace correction
        "weyl_first_over": ((1, "weyl_factored"), (1, _Block(
            "outer", (F(1, N + 1), "rho_skew"), (F(-1, N * (N + 1)), "skew_ricci")))),
        # the trace-shift rule's form
        "geodesic_weyl": (
            (1, "R"),
            # the delta-diagonal block alternates the special trace derivative:
            # its symmetric excess over the covector rule cancels when alternated
            (F(1, N + 1), _Block("outer", (1, "special_skew"))),
            # the mixed block keeps the covector rule, which is what makes the
            # form move with the basic Weyl form and stay invariant
            (F(-1, (N + 1) ** 2),
             _Block("mix", (N + 1, "theta"), (1, "theta_theta")))),
        # the classical projective-type tensor of the symmetric part
        "weyl_projective": (
            (1, "R"), (F(1, N + 1), _Block("outer", (1, "skew_ricci"))),
            (F(N, N * N - 1), _Block("mix", (1, "ricci"))),
            (F(1, N * N - 1), _Block("mix", (1, "ricci_T")))),
    })


@once
def part(side: SpaceFields | ConnectionSpace, name: str | tuple) -> Tensor:
    """One named part of a side, built once per side: a Weyl-type form (its
    table's rows summed), a delta block ("mix" | "outer", core rows) of its
    core rows' sum, or a ``PARTS`` entry.  The full rule's forms take a
    bundle as their side, the geodesic ones a bare ConnectionSpace."""
    if isinstance(name, tuple):
        kind, rows = name
        return (tc.delta_mix if kind == "mix" else tc.delta_outer)(_sum(side, rows))
    if name in PARTS:
        return PARTS[name](side, getattr(side, "space", side))
    return _sum(side, weyl_tables(side.dim)[name])


def _sum(side: SpaceFields | ConnectionSpace, rows) -> Tensor:
    """Rows (coefficient, part) summed in order (``tc.lincomb``), each part
    named or given as a tensor.  A zero coefficient enters as exact zeros,
    as a scaled float part would carry signed zeros into the sum."""
    terms = []
    for c, name in rows:
        t = name if isinstance(name, Tensor) else part(side, name)
        terms.append((c, t) if c else (1, tc.zeros(t.dim, t.valence)))
    return tc.lincomb(terms)


def weyl_factored(fields: SpaceFields) -> Tensor:
    """The factored Weyl-type invariant of the full rule."""
    return part(fields, "weyl_factored")


def weyl_fourth(fields: SpaceFields) -> Tensor:
    """Fourth derived form, trace-completed with the symmetrized Ricci data."""
    return part(fields, "weyl_fourth")


def weyl_first_over(fields: SpaceFields) -> Tensor:
    """First derived form, closed over the factored invariant."""
    return part(fields, "weyl_first_over")


# ---------------------------------------------------------------------------
# derived invariants of a decomposition


class Decomposition:
    """A deformation-type (1,3) form written as delta_mix(Y) + Z.

    Y is (0,2); Z is (1,3) and must be antisymmetric in its last two slots,
    the only shape the constructions are stated for.  ``mix_Y`` is
    delta_mix(Y), given by the builder, which has the block at hand
    (``decompose``, ``agm.agm_decompose``).  The rebuild operator
    (``derived_invariants``) and the agm split share the blocks built once
    here: ``total = mix_Y + Z``, ``z_last`` (Z's last-slot trace Z^a_jna),
    ``z_trace`` (its symmetrization) and ``mix_z_trace``.
    """

    __slots__ = ("Y", "Z", "mix_Y", "total", "z_last", "z_trace", "mix_z_trace")

    def __init__(self, Y: Tensor, Z: Tensor, mix_Y: Tensor):
        if Y.valence != (0, 2) or Z.valence != (1, 3):
            raise DecompositionError(
                f"Y, Z valences must be (0,2), (1,3); got {Y.valence}, {Z.valence}")
        if not tc.sym_pair(Z, 2, 3, factor_free=True).is_zero():
            raise DecompositionError("Z must be antisymmetric in its last two slots")
        self.Y, self.Z, self.mix_Y = Y, Z, mix_Y
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
        return tc.lincomb(((1, self.z_trace), (-(self.Y.dim - 1), self.Y)))


def decompose(fields: SpaceFields, form: str) -> Decomposition:
    """A form whose rows are (1, R_B), or (1, R) and (1, A), and delta_mix
    blocks, read off its table as R + delta_mix(Y) + A (R_B is R + A): Y sums
    the blocks' cores, each scaled by its row's coefficient times its own,
    and, delta_mix being linear, its block is the sum of the form's own
    blocks."""
    rows = weyl_tables(fields.dim)[form]
    blocks = tuple(r for r in rows if isinstance(r[1], tuple) and r[1][0] == "mix")
    rest = sorted((r for r in rows if r not in blocks), key=str)
    if rest not in ([(1, "R_B")], [(1, "A"), (1, "R")]):
        raise DecompositionError(f"{form} is not R + A + delta_mix blocks")
    cores = tuple((c * k, core) for c, (_, block) in blocks for k, core in block)
    return Decomposition(_sum(fields, cores), A_tensor(fields), _sum(fields, blocks))


def derived_invariants(dec: Decomposition,
                       space: ConnectionSpace) -> dict[str, Tensor]:
    """The first, second and fourth derived forms of R + delta_mix(Y) + Z."""
    N = space.dim
    z_tr_first = tc.ein("aamn->mn", (0, 2), dec.Z)       # Z^a_amn
    alt_Y = tc.alternate(dec.Y, 0, 1)
    curv = ((1, space.R), (1, dec.total))
    first = tc.lincomb((*curv, (Fraction(-1, N),
                                tc.delta_outer(tc.add(alt_Y, z_tr_first)))))
    skew = tc.lincomb(((N - 1, alt_Y), (-1, tc.alternate(dec.z_last, 0, 1))))
    second = tc.lincomb((*curv, (Fraction(-1, 2), tc.delta_outer(skew))))
    return {"first": first, "second": second, "fourth": derived_fourth(dec, space)}


def derived_fourth(dec: Decomposition, side: SpaceFields | ConnectionSpace) -> Tensor:
    """The fourth derived form of R + delta_mix(Y) + Z, over a side's
    symmetrized-Ricci block (``weyl_fourth``'s, when the side is a bundle)."""
    c = Fraction(1, side.dim - 1)
    return _sum(side, ((1, "R"), (1, dec.Z), (c, _Block("mix", (1, "sym_ricci"))),
                       (c, dec.mix_z_trace)))
