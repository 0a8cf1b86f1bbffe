"""Dense multi-index tensors over a fixed dimension N.

Entries are exact rationals or Python floats; every operation is closed over
whichever scalar type the operands carry (integer entries, e.g. from
Kronecker deltas, combine freely with both).

Exact tensors, whose entries are all ``int`` or ``fractions.Fraction``, are
kept in a scaled form: Python-int numerators over one common denominator, in
lowest terms (``den > 0`` and ``gcd(den, *nums) == 1``), so equal values have
equal forms (``max_abs_diff`` reads 0 off equal forms, with no diff).  When
every operand is exact the kernels run on those ints and normalise once per
call, not once per multiply-add.  ``Tensor.data`` is read-only: it
materialises the entries on first read and caches them, as ``Fraction``
objects, or as ``int`` where every input was all-int (deltas, zeros and what
is built from them with integer coefficients).  Tensors are immutable; build
a new one instead of writing into ``.data``.

Any other operand (a float entry or coefficient, or a scalar type such as a
polynomial) sends a kernel down the plain list path, which combines the
entries themselves in a fixed order, so float results and the signs of float
zeros are reproducible.  ``ein`` runs both paths through the same generated
kernels (see "Minimal einsum" below): each output entry is its products
added onto an integer 0 one after another, in order.  A list-path output
with a float operand is marked inexact when it is built; other tensors are
scanned once, on first use, and the scan is cached.

Formula coefficients are exact (``int`` or ``Fraction``) in every mode; on
the float list path ``scale`` and ``add_scaled`` round a ``Fraction`` to
``float`` once per call (the value ``num / den`` gives).  The operands, not
the mode, pick the path: all-exact operands (deltas, zeros and what is built
from them) stay exact in float mode too, so no ``-0.0`` appears there.

The mode is a ``Domain`` (``RATIONAL``/``FLOAT``, by name in ``DOMAINS``):
it owns instance numbers (the ones generators draw and instance files carry)
and the one closeness rule, exact equality or ``REL_TOL`` relative /
``ABS_TOL`` absolute.  Exact instance numbers enter and leave in scaled form:
``Fraction`` appears only on ``.data`` and for file literals other than ints
and ``'-?[0-9]+/[0-9]+'``.  ``domain_of`` is the only place that infers the
mode from data, and it reads the same cached scan.

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
from collections import OrderedDict
from fractions import Fraction
from functools import lru_cache, partial, wraps
from itertools import product
from math import gcd, lcm
from typing import NamedTuple, Sequence


class GeoinvError(Exception):
    """Base class for every error this package raises on purpose."""


class ShapeError(GeoinvError):
    """Operands have incompatible dimension, valence or data length."""


class IndexKindError(GeoinvError):
    """An index slot was addressed with the wrong kind or out of range."""


def once(fn):
    """Compute ``fn(owner, *args)`` once per owner and argument tuple.

    The package's only memo.  The result is kept in ``owner._memo`` under
    ``(fn, *args)``: keyed on the undecorated function, so a call through a
    wrapper of the decorated one shares the entry, and held by the owner, so
    it lives as long as the owner and no two owners share it.  Arguments are
    positional and hashable.  A result must not refer back to its owner, or
    the owner outlives its last reference until the cycle collector runs.
    """
    @wraps(fn)
    def memo(owner, *args):
        key = (fn, *args)
        try:
            return owner._memo[key]
        except AttributeError:
            owner._memo = {}
        except KeyError:
            pass
        value = owner._memo[key] = fn(owner, *args)
        return value
    return memo


# ---------------------------------------------------------------------------
# Arithmetic domains (see the module docstring).

REL_TOL = 1e-9
ABS_TOL = 1e-12


class Domain(NamedTuple):
    """One arithmetic mode: exact rationals or floats.  Exact instance
    tensors are drawn, read and written in scaled form."""

    name: str
    exact: bool

    def c(self, num: int, den: int = 1):
        """The instance number num/den in this domain (a generator draw or a
        report ratio); formula coefficients are exact ``Fraction``s instead."""
        return Fraction(num, den) if self.exact else num / den

    def tensor(self, dim: int, valence, nums: list, den: int) -> Tensor:
        """Instance numbers nums/den (ints, one den): scaled if exact, else floats."""
        if self.exact:
            _check_shape(dim, valence, len(nums))
            return _from_scaled(dim, valence, nums, den, ints=False)
        return Tensor(dim, valence, [n / den for n in nums])

    def tensor_in(self, dim: int, valence, vals: list) -> Tensor:
        """Instance-file (JSON) numbers as a tensor; ValueError if one is bad."""
        if self.exact:
            pairs = [_ratio_in(v) for v in vals]
            den = lcm(*{d for _, d in pairs})
            return self.tensor(dim, valence, [n * (den // d) for n, d in pairs], den)
        for v in vals:
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ValueError(f"float-mode entries must be numbers, got {v!r}")
            if not abs(v) <= sys.float_info.max:  # NaN, infinities, huge ints
                raise ValueError(f"float-mode entries must be finite, got {v!r:.40}")
        return Tensor(dim, valence, [float(v) for v in vals])

    def num_out(self, x):
        """x as an instance-file (JSON) number: a 'num/den' string or a float."""
        return _ratio_out(*x.as_integer_ratio()) if self.exact else float(x)

    def tensor_out(self, t: Tensor) -> list:
        """t's entries as flat instance-file numbers; exact ones from scaled form."""
        if not (self.exact and _exact(t)):
            return [self.num_out(x) for x in t.data]
        made = {n: _ratio_out(n, t._den) for n in set(t._nums)}
        return [made[n] for n in t._nums]

    def measure(self, a: Tensor, b: Tensor, rel_tol=REL_TOL, abs_tol=ABS_TOL):
        """(close, d = max|a - b|, scale = max(|a|, |b|)).  Rational: close iff
        d == 0, and no scale is computed (None).  Float: close iff d <= abs_tol
        or d <= rel_tol * scale."""
        d = max_abs_diff(a, b)
        if self.exact:
            return d == 0, d, None
        scale = max(a.max_abs(), b.max_abs())
        return d <= abs_tol or d <= rel_tol * scale, d, scale

    def tolerance(self, rel_tol=REL_TOL, abs_tol=ABS_TOL) -> dict:
        """The closeness rule as a report entry."""
        if self.exact:
            return {"exact": True}
        return {"relative": rel_tol, "absolute": abs_tol}


def _ratio_in(v) -> tuple[int, int]:
    """A rational-mode instance-file number as (num, den): ints and canonical
    '-?[0-9]+/[0-9]+' strings directly, other strings through ``Fraction``."""
    if isinstance(v, str):
        n, _, d = v.partition("/")
        # ASCII digits (isdigit alone takes '²'), fewer than int()'s least limit
        if (len(v) < 640 and v.isascii() and n.removeprefix("-").isdigit()
                and d.isdigit() and d.strip("0")):
            return int(n), int(d)
        shown = f"{v!r:.40}"
        # Fraction computes 10**exp, which can run for minutes: refuse an
        # exponent past int()'s default digit limit, as a written-out
        # numerator is
        _, e, exp = v.lower().rpartition("e")
        exp = exp.replace("_", "").strip().lstrip("+-").lstrip("0")
        if e and exp.isdecimal() and (len(exp) > 4 or int(exp) > 4300):
            raise ValueError(f"bad rational literal {shown}: exponent beyond 4300")
        try:
            f = Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise ValueError(f"bad rational literal {shown}: "
                             f"{str(e).replace(repr(v), shown)}") from None
        return f.numerator, f.denominator
    if isinstance(v, int) and not isinstance(v, bool):
        return v, 1
    raise ValueError(f"rational-mode entries must be 'num/den' strings, got {v!r}")


def _ratio_out(n: int, d: int) -> str:
    g = gcd(n, d)
    try:
        return f"{n // g}/{d // g}"
    except ValueError:  # past int()'s digit limit
        raise GeoinvError("exact number too long to write") from None


RATIONAL = Domain("rational", exact=True)
FLOAT = Domain("float", exact=False)
DOMAINS = {d.name: d for d in (RATIONAL, FLOAT)}


def domain_of(t: Tensor) -> Domain:
    """t's domain: ints count as exact; one float entry makes it FLOAT."""
    return FLOAT if _kind(t) is _FLOAT else RATIONAL


# ---------------------------------------------------------------------------
# Entry kinds.  A tensor's kind is found by one scan of its entries, or set
# by the kernel that built it; only _INT and _FRACTION tensors carry the
# scaled form (_nums over _den).

_INT = "int"            # exact, materialised as ints (_den is 1)
_FRACTION = "fraction"  # exact, materialised as Fractions
_FLOAT = "float"        # at least one float entry: list kernels
_OTHER = "other"        # anything else, e.g. polynomials: list kernels
_EXACT_KINDS = (_INT, _FRACTION)
_EXACT_TYPES = frozenset((int, Fraction))


def _kind(t: Tensor) -> str:
    k = t._kind
    if k is None:
        data = t._data
        types = set(map(type, data))
        if types <= _EXACT_TYPES:
            if Fraction in types:
                k = _FRACTION
                den = lcm(*[x.denominator for x in data])
                t._nums = [x.numerator * (den // x.denominator) for x in data]
                t._den = den  # in lowest terms, as every Fraction is
            else:
                k = _INT
                t._nums, t._den = data, 1
        else:
            k = _FLOAT if float in types else _OTHER
        t._kind = k
    return k


def _result_kind(*ts: Tensor, c=None):
    """The kind of a kernel's output from operands ts and coefficient c:
    _INT or _FRACTION when all are exact (ints only if all are), _FLOAT when
    a float goes in, else None (the output is scanned on first use)."""
    ct = type(c)
    if ct is float:
        return _FLOAT
    if c is None or ct is int:
        k = _INT
    elif ct is Fraction:
        k = _FRACTION
    else:
        k = None
    for t in ts:
        tk = t._kind or _kind(t)
        if tk is _FLOAT:
            return _FLOAT
        if tk is _OTHER:
            k = None
        elif tk is _FRACTION and k is _INT:
            k = _FRACTION
    return k


def _exact(*ts: Tensor) -> bool:
    """Whether every operand is exact, so the scaled kernels apply."""
    return _result_kind(*ts) in _EXACT_KINDS


def _new(dim: int, valence: tuple[int, int], data, kind, nums=None,
         den=None) -> Tensor:
    """A kernel's output, built without re-validating its shape."""
    t = object.__new__(Tensor)
    t.dim = dim
    t.p, t.q = valence
    t._data = data
    t._kind = kind
    t._nums = nums
    t._den = den
    return t


def _check_shape(dim: int, valence, n: int) -> None:
    p, q = valence
    if dim < 1 or p < 0 or q < 0:
        raise ShapeError(f"bad tensor shape: dim={dim}, valence={valence}")
    if n != dim ** (p + q):
        raise ShapeError(f"data length {n} != {dim}**{p + q} for valence {valence}")


def _from_scaled(dim: int, valence, nums: list, den: int, ints: bool) -> Tensor:
    """The exact tensor nums/den, brought to lowest terms."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
    if ints:
        return _new(dim, valence, nums, _INT, nums, 1)
    return _new(dim, valence, None, _FRACTION, nums, den)


class Tensor:
    """A dense tensor: dimension, valence (p, q), flat row-major entries."""

    __slots__ = ("dim", "p", "q", "_data", "_kind", "_nums", "_den")

    def __init__(self, dim: int, valence: tuple[int, int], data: list):
        p, q = valence
        _check_shape(dim, valence, len(data))
        self.dim = dim
        self.p = p
        self.q = q
        self._data = data
        self._kind = None
        self._nums = None
        self._den = None

    @property
    def data(self) -> list:
        """The entries, flat; read-only (tensors are immutable)."""
        d = self._data
        if d is None:
            # one Fraction per distinct value: zeros and +-pairs repeat a lot
            den = self._den
            made = {n: Fraction(n, den) for n in set(self._nums)}
            d = self._data = [made[n] for n in self._nums]
        return d

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

    def max_abs(self):
        if _exact(self):
            m = max(map(abs, self._nums))
            return m if self._kind is _INT else Fraction(m, self._den)
        return max((abs(x) for x in self.data), default=0)

    def is_zero(self) -> bool:
        if _exact(self):
            return not any(self._nums)
        return all(x == 0 for x in self.data)

    def __eq__(self, other) -> bool:
        if not (isinstance(other, Tensor) and self.dim == other.dim
                and self.valence == other.valence):
            return False
        if _exact(self, other):
            return self._den == other._den and self._nums == other._nums
        return all(a == b for a, b in zip(self.data, other.data))

    def __repr__(self) -> str:
        return f"Tensor(dim={self.dim}, valence={self.valence})"


def zeros(dim: int, valence: tuple[int, int]) -> Tensor:
    return Tensor(dim, valence, [0] * dim ** sum(valence))


def delta(dim: int) -> Tensor:
    """Kronecker delta as a (1,1) tensor with integer entries."""
    d = [0] * (dim * dim)
    for i in range(dim):
        d[i * dim + i] = 1
    return Tensor(dim, (1, 1), d)


# ---------------------------------------------------------------------------
# Delta blocks (see the module docstring).  They only add and subtract
# entries, so an exact input's numerators run through the same loops and
# keep its denominator.


def _entries(t: Tensor) -> tuple[str | None, list]:
    k = _result_kind(t)
    return k, t._nums if k in _EXACT_KINDS else t.data


def _block_result(t: Tensor, k, valence, out: list) -> Tensor:
    if k in _EXACT_KINDS:
        return _from_scaled(t.dim, valence, out, t._den, k is _INT)
    return _new(t.dim, valence, out, k)


def delta_mix(Y: Tensor) -> Tensor:
    """d^i_m Y_jn - d^i_n Y_jm, (0,2) -> (1,3); the middle index rides along."""
    if Y.valence != (0, 2):
        raise ShapeError(f"delta_mix: needs a (0,2) tensor, got {Y!r}")
    (kind, y), N, out = _entries(Y), Y.dim, [0] * Y.dim**4
    for i, j, k in product(range(N), repeat=3):
        out[((i * N + j) * N + i) * N + k] += y[j * N + k]
    for i, j, k in product(range(N), repeat=3):
        out[((i * N + j) * N + k) * N + i] -= y[j * N + k]
    return _block_result(Y, kind, (1, 3), out)


def delta_outer(Y: Tensor) -> Tensor:
    """d^i_j Y_mn, (0,2) -> (1,3)."""
    if Y.valence != (0, 2):
        raise ShapeError(f"delta_outer: needs a (0,2) tensor, got {Y!r}")
    (kind, y), N, out = _entries(Y), Y.dim, [0] * Y.dim**4
    for i, k in product(range(N), range(N * N)):
        out[(i * N + i) * N * N + k] += y[k]
    return _block_result(Y, kind, (1, 3), out)


def delta_sym(t: Tensor) -> Tensor:
    """d^i_j t_k.. + d^i_k t_j.., (0,q) -> (1,q+1); t's trailing slots ride
    along, so a jet's value and gradient go through the same function."""
    if t.p != 0 or t.q < 1:
        raise ShapeError(f"delta_sym: needs a (0,q) tensor with q >= 1, got {t!r}")
    N = t.dim
    M = N ** (t.q - 1)  # entries per trailing-slot block
    kind, d = _entries(t)
    out = [0] * (N * N * len(d))
    for i, k in product(range(N), range(N * M)):
        out[(i * N + i) * N * M + k] += d[k]
    for i, j, r in product(range(N), range(N), range(M)):
        out[((i * N + j) * N + i) * M + r] += d[j * M + r]
    return _block_result(t, kind, (1, t.q + 1), out)


def _check_same_shape(a: Tensor, b: Tensor) -> None:
    if a.dim != b.dim or a.p != b.p or a.q != b.q:
        raise ShapeError(f"shape mismatch: {a!r} vs {b!r}")


def _combine(a: Tensor, c, b: Tensor, kind) -> Tensor:
    """a + c*b on the scaled forms of exact a, b and an int/Fraction c:
    both sides are rescaled to the lcm of their denominators."""
    cn, cd = c.numerator, c.denominator
    da, db = a._den, b._den * cd
    den = da if da == db else lcm(da, db)
    fa, fb = den // da, cn * (den // db)
    na, nb = a._nums, b._nums
    if fa != 1:
        nums = [x * fa + y * fb for x, y in zip(na, nb)]
    elif fb == 1:
        nums = [x + y for x, y in zip(na, nb)]
    elif fb == -1:
        nums = [x - y for x, y in zip(na, nb)]
    else:
        nums = [x + y * fb for x, y in zip(na, nb)]
    return _from_scaled(a.dim, a.valence, nums, den, kind is _INT)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b)
    kind = _result_kind(a, b)
    if kind in _EXACT_KINDS:
        return _combine(a, 1, b, kind)
    return _new(a.dim, a.valence, [x + y for x, y in zip(a.data, b.data)], kind)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b)
    kind = _result_kind(a, b)
    if kind in _EXACT_KINDS:
        return _combine(a, -1, b, kind)
    return _new(a.dim, a.valence, [x - y for x, y in zip(a.data, b.data)], kind)


def scale(a: Tensor, c) -> Tensor:
    kind = _result_kind(a, c=c)
    if kind in _EXACT_KINDS:
        cn = c.numerator
        nums = a._nums if cn == 1 else [cn * x for x in a._nums]
        return _from_scaled(a.dim, a.valence, nums, a._den * c.denominator,
                            kind is _INT)
    if kind is _FLOAT and type(c) is Fraction:
        c = float(c)
    return _new(a.dim, a.valence, [c * x for x in a.data], kind)


def add_scaled(a: Tensor, c, b: Tensor) -> Tensor:
    """a + c*b in one pass (the pipeline's inner loops live on this)."""
    _check_same_shape(a, b)
    kind = _result_kind(a, b, c=c)
    if kind in _EXACT_KINDS:
        return _combine(a, c, b, kind)
    if kind is _FLOAT and type(c) is Fraction:
        c = float(c)
    return _new(a.dim, a.valence,
                [x + c * y for x, y in zip(a.data, b.data)], kind)


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
    return scale(s, Fraction(1, 2))


_LETTER_POOL = "abcdefghijklmnopqrstuvwxyz"


def _letters(n: int, start: int) -> str:
    return _LETTER_POOL[start : start + n]


# ---------------------------------------------------------------------------
# Minimal einsum over flat lists.
#
# Works for exact rationals, which numpy cannot do.  A plan, cached per
# (subscripts, dim, ranks), holds one row of operand offsets per output
# entry, summand after summand, and a kernel: per pass, the list comprehension
#     [0 + d0[x0]*d1[x1] + d0[x2]*d1[x3] + ... for x0, x1, x2, x3, ... in rows]
# generated from the operand count and the summands alone, so one compiled
# function serves every plan of that shape and no subscript text reaches the
# compiler.  The products (each left to right) are added onto an integer 0
# in row order, the order of the one-multiply-add-at-a-time definition, so
# float results keep their bits and signed zeros, and any scalar type with
# + and * goes through.  Past KERNEL_TERMS summands a further pass adds the
# next ones onto the running sums: one much longer sum overflows the
# compiler's recursion limit.  Subscripts can come from user expressions, so
# the plan cache keeps only the most recently used plans.

PLAN_CACHE_CAP = 256  # the workloads use 63 plans (check) and 76 (agm3)
KERNEL_TERMS = 128    # summands per pass: N**3 at N = 5 still takes one


@lru_cache(maxsize=PLAN_CACHE_CAP)
def _kernel(n_ops: int, terms: int, resume: bool):
    """The pass that adds `terms` products of `n_ops` operands to each output
    entry: kernel(rows, d0, d1, ...) sums onto 0, and with `resume` set
    kernel(rows, acc, d0, ...) sums onto acc's entries.  A row holds the
    offsets x0, x1, ... summand by summand (a bare int if there is one)."""
    xs = [f"x{n}" for n in range(n_ops * terms)]
    ds = [f"d{j}" for j in range(n_ops)]
    total = " + ".join("*".join(f"{d}[{x}]" for d, x in zip(ds, xs[s:]))
                       for s in range(0, len(xs), n_ops))
    loop = (f"s + {total} for s, ({', '.join(xs)}) in zip(acc, rows)" if resume
            else f"0 + {total} for {', '.join(xs)} in rows")
    args = ", ".join(["rows", "acc"][:1 + resume] + ds)
    src = f"lambda {args}: [{loop}]"
    return eval(compile(src, f"<ein kernel {n_ops}x{terms}>", "eval"), {})


class _PlanCache(OrderedDict):
    """Einsum plans by (subscripts, dim, ranks); beyond PLAN_CACHE_CAP the
    least recently used one goes.  Counts hits and misses."""

    hits = misses = 0

    def plan(self, key):
        got = self.get(key)
        if got is None:
            self.misses += 1
            got = self[key] = _build_plan(*key)
            if len(self) > PLAN_CACHE_CAP:
                self.popitem(last=False)
        else:
            self.hits += 1
            self.move_to_end(key)
        return got


_PLAN_CACHE = _PlanCache()


def _build_plan(expr: str, dim: int, ranks: tuple[int, ...]):
    """(output length, kernel): kernel(*operand entry lists) is the output
    entry list."""
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
    # every letter assignment in row-major order, output letters first, so
    # each output entry's summands are consecutive; one column of flat
    # offsets per operand, each linear in the assignment
    letters = list(out_s) + [c for c in seen if c not in out_s]
    columns = []
    for s in ins:
        col = [0]
        for c in letters:
            stride = sum(dim ** k for k, x in enumerate(reversed(s)) if x == c)
            col = [o + v * stride for o in col for v in range(dim)]
        columns.append(col)
    n_ops, n_out = len(ins), dim ** len(out_s)
    terms = len(columns[0]) // n_out  # summands per output entry
    passes = []
    for lo in range(0, terms, KERNEL_TERMS):
        offs = [col[s::terms] for s in range(lo, min(lo + KERNEL_TERMS, terms))
                for col in columns]
        rows = offs[0] if len(offs) == 1 else list(zip(*offs))
        passes.append(partial(_kernel(n_ops, len(offs) // n_ops, lo > 0), rows))
    if len(passes) == 1:
        return n_out, passes[0]
    first, *rest = passes

    def kernel(*datas):
        out = first(*datas)
        for more in rest:
            out = more(out, *datas)
        return out
    return n_out, kernel


def ein(expr: str, out_valence: tuple[int, int], *tensors: Tensor) -> Tensor:
    """Einstein sum over flat data; caller states the output valence."""
    if not tensors:
        raise IndexKindError("ein: needs at least one operand")
    dim = tensors[0].dim
    for t in tensors:
        if t.dim != dim:
            raise ShapeError("ein: dimension mismatch")
    n_out, kernel = _PLAN_CACHE.plan((expr, dim, tuple([t.p + t.q for t in tensors])))
    if dim ** sum(out_valence) != n_out:
        raise ShapeError(f"ein: output valence {out_valence} disagrees with {expr!r}")
    kind = _result_kind(*tensors)
    if kind in _EXACT_KINDS:
        den = 1
        for t in tensors:
            den *= t._den
        out = kernel(*[t._nums for t in tensors])
        return _from_scaled(dim, out_valence, out, den, kind is _INT)
    return _new(dim, out_valence, kernel(*[t.data for t in tensors]), kind)


def max_abs_diff(a: Tensor, b: Tensor):
    _check_same_shape(a, b)
    kind = _result_kind(a, b)
    if kind in _EXACT_KINDS:
        da, db = a._den, b._den
        if da == db and a._nums == b._nums:  # lowest terms: equal values
            return 0 if kind is _INT else Fraction(0)
        den = da if da == db else lcm(da, db)
        fa, fb = den // da, den // db
        m = max(abs(x * fa - y * fb) for x, y in zip(a._nums, b._nums))
        return m if kind is _INT else Fraction(m, den)
    return max((abs(x - y) for x, y in zip(a.data, b.data)), default=0)
