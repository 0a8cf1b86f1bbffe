"""First-order jets of tensor fields at a point.

A JetTensor packs the value of a field and its partial derivatives there:
``grad`` has one extra trailing lower slot (the derivative index).  No second
derivatives are carried anywhere in the package; every formula that looks
like it needs them has been arranged not to.
"""

from __future__ import annotations

from . import tensor_core as tc
from .tensor_core import IndexKindError, ShapeError, Tensor


class JetTensor:
    __slots__ = ("value", "grad")

    def __init__(self, value: Tensor, grad: Tensor):
        if grad.dim != value.dim or grad.valence != (value.p, value.q + 1):
            raise ShapeError(
                f"jet grad valence {grad.valence} does not extend value valence "
                f"{value.valence}"
            )
        self.value = value
        self.grad = grad

    @property
    def dim(self) -> int:
        return self.value.dim

    @property
    def valence(self) -> tuple[int, int]:
        return self.value.valence

    def __repr__(self) -> str:
        return f"JetTensor(dim={self.dim}, valence={self.valence})"


def constant_jet(value: Tensor) -> JetTensor:
    """Jet of a field that is constant near the point (vanishing gradient)."""
    return JetTensor(value, tc.zeros(value.dim, (value.p, value.q + 1)))


def zero_jet(dim: int, valence: tuple[int, int]) -> JetTensor:
    return constant_jet(tc.zeros(dim, valence))


def linear(op, *args) -> JetTensor:
    """A linear ``tc`` operation on jets: ``op`` runs on the values, then
    unchanged on the gradients; arguments that are not jets go to both calls.
    A slot number means the same on both, because the gradient's derivative
    slot is last.  This is the package's only lift of a linear operation."""
    value = op(*(a.value if isinstance(a, JetTensor) else a for a in args))
    grad = op(*(a.grad if isinstance(a, JetTensor) else a for a in args))
    return JetTensor(value, grad)


def jet_ein(expr: str, valence: tuple[int, int], *jets: JetTensor) -> JetTensor:
    """``tc.ein`` on jets: the value is the sum over the values, and the
    gradient follows the Leibniz rule, one term per operand in operand order,
    with the derivative slot last.  This is the package's product rule."""
    ins, out = expr.split("->")
    subs = ins.split(",")
    k = next((c for c in tc._LETTER_POOL if c not in expr), None)
    if k is None:
        raise IndexKindError(f"{expr!r}: no index letter left for the derivative")
    values = [j.value for j in jets]
    value = tc.ein(expr, valence, *values)
    grad = None
    for n, j in enumerate(jets):
        gsubs = ",".join(s + k if m == n else s for m, s in enumerate(subs))
        term = tc.ein(f"{gsubs}->{out}{k}", (valence[0], valence[1] + 1),
                      *values[:n], j.grad, *values[n + 1:])
        grad = term if grad is None else tc.add(grad, term)
    return JetTensor(value, grad)


def jet_mul(a: JetTensor, b: JetTensor) -> JetTensor:
    """Outer product of jets: a's uppers, b's uppers, a's lowers, b's lowers."""
    pa, qa = a.valence
    pb, qb = b.valence
    la = tc._letters(pa + qa, 0)
    lb = tc._letters(pb + qb, pa + qa)
    out = la[:pa] + lb[:pb] + la[pa:] + lb[pb:]
    return jet_ein(f"{la},{lb}->{out}", (pa + pb, qa + qb), a, b)


def jet_scale_by(a: JetTensor, s: JetTensor) -> JetTensor:
    """a times the rank-0 jet s: the scalar case of the product rule.  Scalar
    factors stay on ``tc.scale``: an einsum's 0 + x*s would turn -0.0 into 0.0."""
    c = s.value.data[0]
    ds = (tc.scale(s.grad, a.value.data[0]) if a.valence == (0, 0)
          else tc.outer(a.value, s.grad))
    return JetTensor(tc.scale(a.value, c), tc.add(tc.scale(a.grad, c), ds))


def covariant_derivative(t: JetTensor, gamma) -> Tensor:
    """Covariant derivative of a jet against a symmetric connection.

    One +Gamma term per upper slot, one -Gamma term per lower slot, on top of
    the stored partials; returns a plain tensor of valence (p, q+1) — the
    result carries no jet because second derivatives are not available.
    ``gamma`` may be the connection's jet or just its value tensor.
    """
    g = gamma.value if isinstance(gamma, JetTensor) else gamma
    if g.valence != (1, 2):
        raise ShapeError(f"connection must be (1,2), got {g.valence}")
    p, q = t.valence
    r = p + q
    letters = tc._letters(r, 0)
    kk = tc._LETTER_POOL[r]
    zz = tc._LETTER_POOL[r + 1]
    out = letters + kk
    out_val = (p, q + 1)
    res = t.grad
    for s in range(r):
        src = letters[:s] + zz + letters[s + 1 :]
        if s < p:
            term = tc.ein(f"{letters[s]}{zz}{kk},{src}->{out}", out_val, g, t.value)
            res = tc.add(res, term)
        else:
            term = tc.ein(f"{zz}{letters[s]}{kk},{src}->{out}", out_val, g, t.value)
            res = tc.sub(res, term)
    return res
