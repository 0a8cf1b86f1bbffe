"""A point of an affine connection space with torsion.

Everything downstream works off the connection's first-order jet: value
L^i_jk plus its partials.  The symmetric part drives curvature and every
covariant derivative; the torsion part only enters a handful of closed
forms, which take it explicitly.
"""

from __future__ import annotations

from fractions import Fraction

from . import tensor_core as tc
from .jet import JetTensor, linear
from .tensor_core import ShapeError, Tensor, once


def split(L: JetTensor) -> tuple[JetTensor, JetTensor]:
    """Symmetric and antisymmetric (half-difference) parts, as jets."""
    if L.valence != (1, 2):
        raise ShapeError(f"connection jet must be (1,2), got {L.valence}")
    return (linear(tc.sym_pair, L, 1, 2),
            linear(tc.scale, linear(tc.alternate, L, 1, 2), Fraction(1, 2)))


def curvature(Lsym: JetTensor) -> Tensor:
    """Curvature of the symmetric part, first-derivative data only.

    R^i_jmn = L^i_jm,n - L^i_jn,m + L^a_jm L^i_an - L^a_jn L^i_am
    """
    quad = tc.ein("ajm,ian->ijmn", (1, 3), Lsym.value, Lsym.value)
    return tc.add(
        tc.alternate(Lsym.grad, 2, 3),
        tc.alternate(quad, 2, 3),
    )


def ricci(R: Tensor) -> Tensor:
    """Contraction of the first upper slot with the last lower slot."""
    return tc.ein("ajma->jm", (0, 2), R)


def special_connection_derivative(Lsym: JetTensor) -> Tensor:
    """Connection-of-itself derivative used by the geodesic Weyl form.

    Four terms; the last quadratic term enters with a plus sign, unlike the
    plain covariant derivative of a (1,2) field, from which this differs by
    exactly 2 L^a_mn L^i_ja.
    """
    v = Lsym.value
    res = tc.add(Lsym.grad, tc.ein("ian,ajm->ijmn", (1, 3), v, v))
    res = tc.sub(res, tc.ein("ajn,iam->ijmn", (1, 3), v, v))
    return tc.add(res, tc.ein("amn,ija->ijmn", (1, 3), v, v))


class ConnectionSpace:
    """One space of the mapping: a connection jet and its derived data.

    The constructor computes everything eagerly; instances are cheap to keep
    around and every invariant evaluation reuses the cached pieces.
    """

    def __init__(self, L: JetTensor):
        if L.valence != (1, 2):
            raise ShapeError(f"connection jet must be (1,2), got {L.valence}")
        self.L = L
        self.dim = L.dim
        self.Lsym, self.Ltor = split(L)
        self.R = curvature(self.Lsym)
        self.ricci = ricci(self.R)
        self.skew_ricci = tc.alternate(self.ricci, 0, 1)
        # theta_j = L^a_ja of the symmetric part, with its gradient
        self.theta = linear(tc.contract, self.Lsym, 0, 1)

    def torsion(self) -> Tensor:
        """The torsion tensor L^i_jk - L^i_kj (twice the half-difference part)."""
        return tc.scale(self.Ltor.value, 2)

    @once
    def trace_cov_derivative(self) -> Tensor:
        """theta_j|n by the covector rule: theta_j,n - L^a_jn theta_a
        (computed once per space)."""
        return tc.sub(self.theta.grad,
                      tc.ein("ajn,a->jn", (0, 2), self.Lsym.value, self.theta.value))

    def special_trace_derivative(self) -> Tensor:
        """theta_j|n evaluated with the special connection derivative."""
        return tc.ein("ajan->jn", (0, 2), special_connection_derivative(self.Lsym))
