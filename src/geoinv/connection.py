"""A point of an affine connection space with torsion.

Everything downstream works off the connection's first-order jet: value
L^i_jk plus its partials.  The symmetric part drives curvature and every
covariant derivative; the torsion part only enters a handful of closed
forms, which take it explicitly.
"""

from __future__ import annotations

from fractions import Fraction

from . import tensor_core as tc
from .jet import JetTensor, covariant_derivative, linear
from .tensor_core import ShapeError, Tensor, once


def curvature(G: JetTensor) -> Tensor:
    """Curvature of any (1,2) connection jet, first-derivative data only:
    the symmetric part's R, and the reduced connections' curvatures.

    R^i_jmn = G^i_jm,n - G^i_jn,m + G^a_jm G^i_an - G^a_jn G^i_am,
    one ``tc.alternate_sum`` over (m, n) of the gradient and the quadratic.
    """
    quad = tc.ein("ajm,ian->ijmn", (1, 3), G.value, G.value)
    return tc.alternate_sum(((1, G.grad), (1, quad)), 2, 3)


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
    return tc.lincomb(((1, Lsym.grad), (1, tc.ein("ian,ajm->ijmn", (1, 3), v, v)),
                       (-1, tc.ein("ajn,iam->ijmn", (1, 3), v, v)),
                       (1, tc.ein("amn,ija->ijmn", (1, 3), v, v))))


class ConnectionSpace:
    """One space of the mapping: a connection jet and its derived data.

    The constructor computes the symmetric part, its curvature data and the
    Ricci halves (``tc.sym_pair`` and ``tc.alternate`` over a slot pair),
    which every invariant reads; the torsion half ``Ltor`` is built on first
    use.  Every invariant evaluation reuses the cached pieces.
    """

    def __init__(self, L: JetTensor):
        if L.valence != (1, 2):
            raise ShapeError(f"connection jet must be (1,2), got {L.valence}")
        self.L = L
        self.dim = L.dim
        self.Lsym = linear(tc.sym_pair, L, 1, 2)
        self.R = curvature(self.Lsym)
        self.ricci = ricci(self.R)
        self.skew_ricci = tc.alternate(self.ricci, 0, 1)
        self.sym_ricci = tc.sym_pair(self.ricci, 0, 1)
        # theta_j = L^a_ja of the symmetric part, with its gradient
        self.theta = linear(tc.contract, self.Lsym, 0, 1)

    @property
    @once
    def Ltor(self) -> JetTensor:
        """The antisymmetric (half-difference) part of L, as a jet."""
        return linear(tc.scale, linear(tc.alternate, self.L, 1, 2), Fraction(1, 2))

    @once
    def trace_cov_derivative(self) -> Tensor:
        """theta_j|n, the covariant derivative of the trace: theta_j,n -
        L^a_jn theta_a (computed once per space)."""
        return covariant_derivative(self.theta, self.Lsym)

    def special_trace_derivative(self) -> Tensor:
        """theta_j|n evaluated with the special connection derivative."""
        return tc.ein("ajan->jn", (0, 2), special_connection_derivative(self.Lsym))
