"""Dense multi-index tensors over a fixed dimension N.

Entries are exact rationals (fractions.Fraction) or Python floats; every
operation is closed over whichever scalar type the operands carry (integer
entries, e.g. from Kronecker deltas, combine freely with both).

The mode is a ``Domain`` (``RATIONAL``/``FLOAT``, by name in ``DOMAINS``):
it owns formula coefficients, instance-file numbers and the one closeness
rule, exact equality or ``REL_TOL`` relative / ``ABS_TOL`` absolute.
``domain_of`` is the only place that infers the mode from data.

Layout: a tensor of valence (p, q) stores its N**(p+q) entries in one flat
list, row-major over the written index order with the upper indices first.

Bracket conventions used throughout the package:

* an alternated index pair ``[a...b]`` is the plain difference
  ``t[..a..b..] - t[..b..a..]`` with *no* 1/2 factor; indices written between
  the pair are inert,
* the symmetrized pair is the half-sum (``factor_free=True`` gives the plain
  sum, which one family of formulas needs).

Kronecker-delta blocks come from ``delta_mix``, ``delta_outer`` and
``delta_sym``, which write entries in place (no einsum against the delta),
adding blocks in the defining einsums' order so float zeros keep their signs.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import product
from typing import Iterable, NamedTuple, Sequence


class GeoinvError(Exception):
    """Base class for every error this package raises on purpose."""


class ShapeError(GeoinvError):
    """Operands have incompatible dimension, valence or data length."""


class IndexKindError(GeoinvError):
    """An index slot was addressed with the wrong kind or out of range."""


# ---------------------------------------------------------------------------
# Arithmetic domains (see the module docstring).

REL_TOL = 1e-9
ABS_TOL = 1e-12


class Domain(NamedTuple):
    """One arithmetic mode: exact rationals or floats."""

    name: str
    exact: bool

    def c(self, num: int, den: int = 1):
        """The formula coefficient num/den."""
        return Fraction(num, den) if self.exact else num / den

    def num_in(self, v):
        """An instance-file (JSON) number; ValueError when it is malformed."""
        if self.exact:
            if isinstance(v, str):
                try:
                    return Fraction(v)
                except (ValueError, ZeroDivisionError) as e:
                    raise ValueError(f"bad rational literal {v!r}: {e}") from None
            if isinstance(v, int) and not isinstance(v, bool):
                return Fraction(v)
            raise ValueError(
                f"rational-mode entries must be 'num/den' strings, got {v!r}")
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ValueError(f"float-mode entries must be numbers, got {v!r}")
        if not abs(v) <= sys.float_info.max:  # NaN, infinities, over-large ints
            raise ValueError(f"float-mode entries must be finite, got {v!r:.40}")
        return float(v)

    def num_out(self, x):
        """x as an instance-file (JSON) number: a 'num/den' string or a float."""
        if self.exact:
            f = Fraction(x)
            return f"{f.numerator}/{f.denominator}"
        return float(x)

    def measure(self, a: Tensor, b: Tensor, rel_tol=REL_TOL, abs_tol=ABS_TOL):
        """(close, d = max|a - b|, scale = max(|a|, |b|)).  Rational: close iff
        d == 0, and no scale is computed (None).  Float: close iff d <= abs_tol
        or d <= rel_tol * scale."""
        d = max_abs_diff(a, b)
        if self.exact:
            return d == 0, d, None
        scale = max(a.max_abs(), b.max_abs())
        return d <= abs_tol or d <= rel_tol * scale, d, scale

    def close(self, a: Tensor, b: Tensor, rel_tol=REL_TOL, abs_tol=ABS_TOL) -> bool:
        """Whether a and b agree under this domain's rule (see ``measure``)."""
        return self.measure(a, b, rel_tol, abs_tol)[0]

    def tolerance(self, rel_tol=REL_TOL, abs_tol=ABS_TOL) -> dict:
        """The closeness rule as a report entry."""
        if self.exact:
            return {"exact": True}
        return {"relative": rel_tol, "absolute": abs_tol}


RATIONAL = Domain("rational", exact=True)
FLOAT = Domain("float", exact=False)
DOMAINS = {d.name: d for d in (RATIONAL, FLOAT)}


def domain_of(t: Tensor) -> Domain:
    """t's domain: ints count as exact; one float entry makes it FLOAT."""
    return FLOAT if any(isinstance(x, float) for x in t.data) else RATIONAL


class Tensor:
    """A dense tensor: dimension, valence (p, q), flat row-major data."""

    __slots__ = ("dim", "p", "q", "data")

    def __init__(self, dim: int, valence: tuple[int, int], data: list):
        p, q = valence
        if dim < 1 or p < 0 or q < 0:
            raise ShapeError(f"bad tensor shape: dim={dim}, valence={valence}")
        if len(data) != dim ** (p + q):
            raise ShapeError(
                f"data length {len(data)} != {dim}**{p + q} for valence {valence}"
            )
        self.dim = dim
        self.p = p
        self.q = q
        self.data = data

    @property
    def valence(self) -> tuple[int, int]:
        return (self.p, self.q)

    @property
    def rank(self) -> int:
        return self.p + self.q

    def offset(self, idx: Sequence[int]) -> int:
        off = 0
        for i in idx:
            off = off * self.dim + i
        return off

    def __getitem__(self, idx) -> object:
        if isinstance(idx, int):
            idx = (idx,)
        return self.data[self.offset(idx)]

    def indices(self) -> Iterable[tuple[int, ...]]:
        return product(range(self.dim), repeat=self.rank)

    def copy(self) -> "Tensor":
        return Tensor(self.dim, self.valence, list(self.data))

    def max_abs(self):
        return max((abs(x) for x in self.data), default=0)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tensor)
            and self.dim == other.dim
            and self.valence == other.valence
            and all(a == b for a, b in zip(self.data, other.data))
        )

    def __repr__(self) -> str:
        return f"Tensor(dim={self.dim}, valence={self.valence})"


def zeros(dim: int, valence: tuple[int, int]) -> Tensor:
    return Tensor(dim, valence, [0] * dim ** sum(valence))


def delta(dim: int) -> Tensor:
    """Kronecker delta as a (1,1) tensor with integer entries."""
    d = zeros(dim, (1, 1))
    for i in range(dim):
        d.data[i * dim + i] = 1
    return d


# ---------------------------------------------------------------------------
# Delta blocks (see the module docstring).


def delta_mix(Y: Tensor) -> Tensor:
    """d^i_m Y_jn - d^i_n Y_jm, (0,2) -> (1,3); the middle index rides along."""
    if Y.valence != (0, 2):
        raise ShapeError(f"delta_mix: needs a (0,2) tensor, got {Y!r}")
    N, y, out = Y.dim, Y.data, [0] * Y.dim**4
    for i, j, k in product(range(N), repeat=3):
        out[((i * N + j) * N + i) * N + k] += y[j * N + k]
    for i, j, k in product(range(N), repeat=3):
        out[((i * N + j) * N + k) * N + i] -= y[j * N + k]
    return Tensor(N, (1, 3), out)


def delta_outer(Y: Tensor) -> Tensor:
    """d^i_j Y_mn, (0,2) -> (1,3)."""
    if Y.valence != (0, 2):
        raise ShapeError(f"delta_outer: needs a (0,2) tensor, got {Y!r}")
    N, out = Y.dim, [0] * Y.dim**4
    for i, k in product(range(N), range(N * N)):
        out[(i * N + i) * N * N + k] += Y.data[k]
    return Tensor(N, (1, 3), out)


def delta_sym(t: Tensor) -> Tensor:
    """d^i_j t_k.. + d^i_k t_j.., (0,q) -> (1,q+1); t's trailing slots ride
    along, so a jet's value and gradient go through the same function."""
    if t.p != 0 or t.q < 1:
        raise ShapeError(f"delta_sym: needs a (0,q) tensor with q >= 1, got {t!r}")
    N = t.dim
    M = N ** (t.q - 1)  # entries per trailing-slot block
    d, out = t.data, [0] * (N * N * len(t.data))
    for i, k in product(range(N), range(N * M)):
        out[(i * N + i) * N * M + k] += d[k]
    for i, j, r in product(range(N), range(N), range(M)):
        out[((i * N + j) * N + i) * M + r] += d[j * M + r]
    return Tensor(N, (1, t.q + 1), out)


def _check_same_shape(a: Tensor, b: Tensor) -> None:
    if a.dim != b.dim or a.valence != b.valence:
        raise ShapeError(f"shape mismatch: {a!r} vs {b!r}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b)
    return Tensor(a.dim, a.valence, [x + y for x, y in zip(a.data, b.data)])


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b)
    return Tensor(a.dim, a.valence, [x - y for x, y in zip(a.data, b.data)])


def scale(a: Tensor, c) -> Tensor:
    return Tensor(a.dim, a.valence, [c * x for x in a.data])


def add_scaled(a: Tensor, c, b: Tensor) -> Tensor:
    """a + c*b in one pass (the pipeline's inner loops live on this)."""
    _check_same_shape(a, b)
    return Tensor(a.dim, a.valence, [x + c * y for x, y in zip(a.data, b.data)])


def outer(a: Tensor, b: Tensor) -> Tensor:
    """Tensor product; the result's uppers are a's then b's, same for lowers."""
    if a.dim != b.dim:
        raise ShapeError("outer: dimension mismatch")
    la = _letters(a.rank, 0)
    lb = _letters(b.rank, a.rank)
    ua, qa = la[: a.p], la[a.p :]
    ub, qb = lb[: b.p], lb[b.p :]
    return ein(
        f"{la},{lb}->{ua + ub + qa + qb}", (a.p + b.p, a.q + b.q), a, b
    )


def contract(t: Tensor, upper: int, lower: int) -> Tensor:
    """Contract one upper slot against one lower slot (positions within kind)."""
    if not (0 <= upper < t.p and 0 <= lower < t.q):
        raise IndexKindError(
            f"contract: upper {upper} / lower {lower} out of range for valence {t.valence}"
        )
    letters = list(_letters(t.rank, 0))
    letters[t.p + lower] = letters[upper]
    out = [c for k, c in enumerate(letters) if k != upper and k != t.p + lower]
    return ein(f"{''.join(letters)}->{''.join(out)}", (t.p - 1, t.q - 1), t)


def _check_pair(t: Tensor, a: int, b: int) -> None:
    r = t.rank
    if not (0 <= a < r and 0 <= b < r) or a == b:
        raise IndexKindError(f"bad slot pair ({a}, {b}) for rank {r}")
    ka = a < t.p
    kb = b < t.p
    if ka != kb:
        raise IndexKindError(
            f"slots {a} and {b} are of different kinds (valence {t.valence})"
        )


def transpose_pair(t: Tensor, a: int, b: int) -> Tensor:
    _check_pair(t, a, b)
    src = _letters(t.rank, 0)
    out = list(src)
    out[a], out[b] = out[b], out[a]
    return ein(f"{src}->{''.join(out)}", t.valence, t)


def alternate(t: Tensor, a: int, b: int) -> Tensor:
    """t[..a..b..] - t[..b..a..]; no 1/2."""
    return sub(t, transpose_pair(t, a, b))


def sym_pair(t: Tensor, a: int, b: int, factor_free: bool = False) -> Tensor:
    """Half-sum over a slot pair; plain sum when factor_free is set."""
    s = add(t, transpose_pair(t, a, b))
    if factor_free:
        return s
    return scale(s, domain_of(s).c(1, 2))


_LETTER_POOL = "abcdefghijklmnopqrstuvwxyz"


def _letters(n: int, start: int) -> str:
    return _LETTER_POOL[start : start + n]


# ---------------------------------------------------------------------------
# Minimal einsum over flat lists.
#
# Works for exact rationals, which numpy cannot do; offset plans are cached
# per (subscripts, dim, ranks) so repeated formula evaluation costs one flat
# multiply-add loop.

_PLAN_CACHE: dict = {}


def _build_plan(expr: str, dim: int, ranks: tuple[int, ...]):
    try:
        ins_s, out_s = expr.split("->")
        ins = ins_s.split(",")
    except ValueError:  # pragma: no cover - programming error, not user input
        raise IndexKindError(f"bad einsum subscripts: {expr!r}")
    if len(ins) != len(ranks):
        raise IndexKindError(f"{expr!r}: expected {len(ranks)} operands")
    for s, r in zip(ins, ranks):
        if len(s) != r:
            raise IndexKindError(f"{expr!r}: operand rank mismatch ({s!r} vs rank {r})")
    seen: list[str] = []
    for s in ins:
        for c in s:
            if c not in seen:
                seen.append(c)
    for c in out_s:
        if c not in seen:
            raise IndexKindError(f"{expr!r}: output index {c!r} not in inputs")
        if out_s.count(c) > 1:
            raise IndexKindError(f"{expr!r}: repeated output index {c!r}")
    letters = list(out_s) + [c for c in seen if c not in out_s]
    n_out = dim ** len(out_s)
    plan = []
    for assign in product(range(dim), repeat=len(letters)):
        env = dict(zip(letters, assign))
        o = 0
        for c in out_s:
            o = o * dim + env[c]
        offs = []
        for s in ins:
            k = 0
            for c in s:
                k = k * dim + env[c]
            offs.append(k)
        plan.append((o, offs))
    return n_out, plan


def ein(expr: str, out_valence: tuple[int, int], *tensors: Tensor) -> Tensor:
    """Einstein sum over flat data; caller states the output valence."""
    if not tensors:
        raise IndexKindError("ein: needs at least one operand")
    dim = tensors[0].dim
    for t in tensors:
        if t.dim != dim:
            raise ShapeError("ein: dimension mismatch")
    key = (expr, dim, tuple(t.rank for t in tensors))
    cached = _PLAN_CACHE.get(key)
    if cached is None:
        cached = _PLAN_CACHE[key] = _build_plan(expr, dim, key[2])
    n_out, plan = cached
    out = [0] * n_out
    if len(tensors) == 1:
        d0 = tensors[0].data
        for o, offs in plan:
            out[o] += d0[offs[0]]
    elif len(tensors) == 2:
        d0 = tensors[0].data
        d1 = tensors[1].data
        for o, offs in plan:
            out[o] += d0[offs[0]] * d1[offs[1]]
    else:
        datas = [t.data for t in tensors]
        for o, offs in plan:
            term = datas[0][offs[0]]
            for d, k in zip(datas[1:], offs[1:]):
                term = term * d[k]
            out[o] += term
    if dim ** sum(out_valence) != n_out:
        raise ShapeError(f"ein: output valence {out_valence} disagrees with {expr!r}")
    return Tensor(dim, out_valence, out)


def max_abs_diff(a: Tensor, b: Tensor):
    _check_same_shape(a, b)
    return max((abs(x - y) for x, y in zip(a.data, b.data)), default=0)
