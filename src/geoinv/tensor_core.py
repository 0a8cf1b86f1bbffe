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
materialises the entries on first read, as ``int`` where every input was
all-int (deltas, zeros and what is built from them with integer
coefficients), else as ``Fraction``s from one bounded value table, so equal
tensors hold the same objects.  ``t[idx]`` materialises one entry.  Tensors
are immutable; build a new one instead of writing into ``.data``.

Any other operand (a float entry or coefficient, or a scalar type such as a
polynomial) sends a kernel down the plain list path, which combines the
entries themselves in a fixed order, so float results and the signs of float
zeros are reproducible.  ``ein`` runs the list path through its generated
kernels (see "Minimal einsum" below): each output entry is its products
added onto an integer 0 one after another, in order.  Exact operands take
the same kernels, except that an outer product (a permutation included) and
a large two-operand contraction run exact-only integer kernels that give the
same ints.  A list-path output with a float operand is marked inexact when
it is built; other tensors are scanned once, on first use, and the scan is
cached.

``lincomb(rows)``, the sum of c*t over rows (c, t), is the one
elementwise-linear kernel (``add``, ``sub``, ``scale`` are its cases).
Coefficients are exact (``int`` or ``Fraction``) in every mode.  Exact rows
take one pass each over one common denominator and one normalisation.  The
list path builds each entry in row order: the first row's x if c == 1, else
c*x; then + y if c == 1, - y if c == -1, else + c*y, a zero c included.
A ``Fraction`` c meets a float as its rounded ``float`` (``num / den``).
So a left-to-right chain of pairwise sums keeps its bits as one
``lincomb``.  The operands, not the mode, pick the path: all-exact operands
(deltas, zeros and what is built from them) stay exact in float mode too,
so no ``-0.0`` appears there.

The mode is a ``Domain`` (``RATIONAL``/``FLOAT``, by name in ``DOMAINS``):
it owns instance numbers (the ones generators draw and instance files carry)
and the one closeness rule, exact equality or ``REL_TOL`` relative /
``ABS_TOL`` absolute.  Exact instance numbers enter and leave in scaled form:
``Fraction`` appears only on ``.data`` and for file literals other than ints
and ``'-?[0-9]+/[0-9]+'``.

Layout: a tensor of valence (p, q) stores its N**(p+q) entries in one flat
list, row-major over the written index order with the upper indices first.

Bracket conventions used throughout the package:

* an alternated index pair ``[a...b]`` is the plain difference
  ``t[..a..b..] - t[..b..a..]`` with *no* 1/2 factor; indices written between
  the pair are inert,
* the symmetrized pair is the half-sum (``factor_free=True`` gives the plain
  sum, which one family of formulas needs).

The structural kernels keep what they build for one shape in a bounded
module cache keyed by the shape and its slots, so a call spells out no
subscripts and does no index arithmetic.  ``transpose_pair`` and
``contract`` look up their subscripts and run ``ein``.  ``alternate`` and
``sym_pair`` make one pass over t and its swap, gathered by the swap's own
``ein`` plan (on the list path each swapped entry is added onto an integer 0,
as ``ein`` adds it), and give the bits of ``sub(t, transpose_pair(t, a, b))``
and of ``lincomb(((h, t), (h, transpose_pair(t, a, b))))``, so the
connection's split into its symmetric part and torsion half, and the Ricci
tensor's halves, are built by these two and keep those bits.

``alternate_sum(rows, a, b)`` sums c * alternate(t, a, b) over rows (c, t).
Exact operands and coefficients: the rows make one ``lincomb``, alternated
once.  Otherwise the list path alternates each row and sums them, in order,
by ``lincomb``.

Kronecker-delta blocks come from ``delta_mix``, ``delta_outer`` and
``delta_sym``, which run no einsum against the delta.  Each is stated as
its defining einsums, in their order, and built by one builder, ``_block``,
from the offsets cached per shape where each einsum's delta is 1: the
output starts as integer 0s, and each einsum in turn adds (or subtracts)
its sources onto the entries it writes, so every entry is what the
einsums write to it added onto 0 in their order, and float zeros keep
their signs.

``solver(A)`` is the one kernel for square linear systems.  It decides
whether A is regular on the exact values of its entries in every mode (a
float is a dyadic ratio, taken exactly), by the determinant of one
fraction-free Gauss-Jordan elimination over ints (Bareiss), whose every
division is exact.  For an exact A that elimination also gives the
adjugate, so an exact right-hand side is solved by one integer product and
one normalisation, and no ``Fraction`` is built or divided.  Any other
operand is solved on its entries by ``_solve``, Gauss-Jordan with the
largest-|.| pivot, so float solutions keep their bits.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache, partial, wraps
from itertools import product, repeat
from math import gcd, isfinite, lcm
from operator import add as _plus, itemgetter, mul, sub as _minus, xor
from struct import Struct
from typing import NamedTuple, Sequence


class GeoinvError(Exception):
    """Base class for every error this package raises on purpose."""


class ShapeError(GeoinvError):
    """Operands have incompatible dimension, valence or data length."""


class IndexKindError(GeoinvError):
    """An index slot was addressed with the wrong kind or out of range."""


def once(fn):
    """Compute ``fn(owner, *args)`` once per owner and argument tuple.

    The package's only per-owner memo.  The result is kept in
    ``owner._memo`` under ``(fn, *args)``: keyed on the undecorated function,
    so a call through a wrapper of the decorated one shares the entry, and
    held by the owner, so it lives as long as the owner and no two owners
    share it.  Arguments are positional and hashable.  A result must not
    refer back to its owner, or the owner outlives its last reference until
    the cycle collector runs.

    The module-wide caches, of einsum plans (``_PLAN_CACHE``), compiled
    kernels (``_kernel``), values (``_fraction``), the structural kernels'
    subscripts (``_swap``, ``_trace``, ``jet._connection_terms``) and delta
    block offsets (``_block_plan``), drop the least recently used entry past
    a cap: their keys come from input, so they would grow.
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

    def reader(self):
        """A reader for one instance file: ``read(dim, valence, vals)`` is
        the file's (JSON) numbers vals as a tensor; ValueError naming vals'
        first bad entry if one is bad.  Rational: the reader holds the
        file's literal memo, so each distinct literal of the file is parsed
        once (see ``_ratios_in``).  Float: a list of finite floats is taken
        as it is; any other list is checked entry by entry."""
        if not self.exact:
            return _floats_in
        memo = {}
        return lambda dim, valence, vals: self.tensor(
            dim, valence, *_ratios_in(vals, memo))

    def num_out(self, x):
        """x as an instance-file (JSON) number: a 'num/den' string or a float."""
        return _ratio_out(*x.as_integer_ratio()) if self.exact else _finite([float(x)])[0]

    def tensor_out(self, t: Tensor) -> list:
        """t's entries as flat instance-file numbers; exact ones from scaled form."""
        if not self.exact:
            return _finite(list(map(float, t.data)))
        if not _exact(t):
            return [self.num_out(x) for x in t.data]
        made = {n: _ratio_out(n, t._den) for n in set(t._nums)}
        return [made[n] for n in t._nums]

    def measure(self, a: Tensor, b: Tensor, rel_tol=REL_TOL, abs_tol=ABS_TOL):
        """(close, d = max|a - b|, scale = max(|a|, |b|)).  Rational: close iff
        d == 0, and no scale (None).  Float: close iff d <= abs_tol or
        d <= rel_tol * scale; GeoinvError if a difference is NaN or infinite."""
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
    raise ValueError(f"rational-mode entries must be 'num/den' strings, got {v!r:.40}")


_LITERAL_TYPES = frozenset((str, int))
_FLOAT_TYPE = frozenset((float,))


def _ratios_in(vals: list, memo: dict) -> tuple[list, int]:
    """(nums, den): vals as scaled ints, each literal parsed only where memo,
    the literals parsed so far, does not hold it yet.

    Only a list of ``str`` and ``int`` entries is deduplicated and looked up
    (a dict would merge True, 1.0 and 1), its distinct literals in file
    order; any other list holds an entry ``_ratio_in`` refuses and is
    scanned in file order.  Either way the error names the first bad entry.
    """
    if not _LITERAL_TYPES.issuperset(map(type, vals)):
        made = {v: _ratio_in(v) for v in vals}
    else:
        made = dict.fromkeys(vals)
        for v in made:
            if v not in memo:
                memo[v] = _ratio_in(v)
            made[v] = memo[v]
    den = lcm(*{d for _, d in made.values()})
    scaled = {v: n * (den // d) for v, (n, d) in made.items()}
    return list(map(scaled.__getitem__, vals)), den


def _floats_in(dim: int, valence, vals: list) -> Tensor:
    """Float-mode instance-file numbers as a tensor (see ``Domain.reader``)."""
    if _FLOAT_TYPE.issuperset(map(type, vals)) and all(map(isfinite, vals)):
        return Tensor(dim, valence, list(vals))
    for v in vals:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ValueError(f"float-mode entries must be numbers, got {v!r:.40}")
        if not abs(v) <= sys.float_info.max:  # NaN, infinities, huge ints
            raise ValueError(f"float-mode entries must be finite, got {v!r:.40}")
    return Tensor(dim, valence, [float(v) for v in vals])


def _finite(xs: list, what: str = "the result") -> list:
    """xs if every entry is finite, else GeoinvError: the one float-range rule.
    Every float compared (``max_abs_diff``) or written (``Domain.num_out``,
    ``Domain.tensor_out``) passes here, so no NaN (which ``max()`` skips past
    the first entry) and no infinity ever reads as a number."""
    if all(map(isfinite, xs)):
        return xs
    raise GeoinvError(f"{what} is not finite: it overflowed the float range")


def _ratio_out(n: int, d: int) -> str:
    g = gcd(n, d)
    try:
        return f"{n // g}/{d // g}"
    except ValueError:  # past int()'s digit limit
        raise GeoinvError("exact number too long to write") from None


RATIONAL = Domain("rational", exact=True)
FLOAT = Domain("float", exact=False)
DOMAINS = {d.name: d for d in (RATIONAL, FLOAT)}


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

# The value table (hash-consing): one Fraction per scaled entry (num, den)
# read recently; equal tensors have equal scaled forms.  The cap is the size
# of a rank-4 tensor at N = 8, so both sides of a compare up to it meet here.
VALUE_TABLE_CAP = 4096
_fraction = lru_cache(maxsize=VALUE_TABLE_CAP)(Fraction)


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


def _result_kind(ts: Sequence[Tensor]):
    """The kind of a kernel's output from operands ts: _INT or _FRACTION
    when all are exact (ints only if all are), _FLOAT when a float goes in,
    else None (the output is scanned on first use).  ``lincomb`` applies the
    same rule to its coefficients too."""
    k = _INT
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
    return _result_kind(ts) in _EXACT_KINDS


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
            d = self._data = list(map(_fraction, self._nums, repeat(self._den)))
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
        if self._data is None:  # one entry, without materialising the rest
            return _fraction(self._nums[self.offset(idx)], self._den)
        return self._data[self.offset(idx)]

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


def lincomb(rows) -> Tensor:
    """The sum of c*t over rows (c, t) of same-shape tensors, in row order
    (see the module docstring for the order on the list path)."""
    rows = tuple(rows)
    a = rows[0][1]
    dim, p, q = a.dim, a.p, a.q
    # one pass over the rows: shapes, and _result_kind's rule with each
    # coefficient taken as an operand of its type's kind (int: _INT,
    # Fraction: _FRACTION, float: _FLOAT, any other: _OTHER)
    kind = _INT
    for c, t in rows:
        if t.dim != dim or t.p != p or t.q != q:
            raise ShapeError(f"shape mismatch: {a!r} vs {t!r}")
        tk, ct = t._kind or _kind(t), type(c)
        if tk is _FLOAT or ct is float:
            kind = _FLOAT
        elif kind is not _FLOAT:
            if tk is _OTHER or ct is not int and ct is not Fraction:
                kind = None
            elif kind is _INT and (tk is _FRACTION or ct is Fraction):
                kind = _FRACTION
    out = None
    if kind in _EXACT_KINDS:
        # the sum so far is f * out / den.  A row with another denominator
        # raises den to their lcm, and out's factor waits in f until the
        # next row is added: one pass per row, one normalisation per sum
        for c, t in rows:
            y = t._nums
            if type(c) is int:
                g, d = c, t._den
            else:
                g, d = c.numerator, c.denominator * t._den
            if out is None:
                f, out, den = g, y, d
                continue
            if d != den:
                m = lcm(den, d)
                f, g, den = f * (m // den), g * (m // d), m
            if f != 1:
                out = [f * x + g * z for x, z in zip(out, y)]
                f = 1
            elif g == 1:
                out = [x + z for x, z in zip(out, y)]
            elif g == -1:
                out = [x - z for x, z in zip(out, y)]
            else:
                out = [x + g * z for x, z in zip(out, y)]
        if f != 1:
            out = [f * x for x in out]
        return _from_scaled(dim, (p, q), out, den, kind is _INT)
    for c, t in rows:
        if kind is _FLOAT and type(c) is Fraction:
            c = float(c)
        y = t.data
        if out is None:
            out = y if c == 1 else [c * x for x in y]
        elif c == 1:
            out = [x + z for x, z in zip(out, y)]
        elif c == -1:
            out = [x - z for x, z in zip(out, y)]
        else:
            out = [x + c * z for x, z in zip(out, y)]
    return _new(dim, (p, q), out, kind)


def add(a: Tensor, b: Tensor) -> Tensor:
    return lincomb(((1, a), (1, b)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return lincomb(((1, a), (-1, b)))


def scale(a: Tensor, c) -> Tensor:
    return lincomb(((c, a),))


# ---------------------------------------------------------------------------
# Minimal einsum over flat lists.
#
# Works for exact rationals, which numpy cannot do.  A plan, cached per
# (subscripts, dim, ranks), holds one row of operand offsets per output
# entry, summand after summand, and a generic kernel: per pass, the list
# comprehension
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
#
# Exact operands are Python-int numerators, so two plan shapes also get an
# exact kernel, built from the plan's offset columns on its first exact call
# (float and other scalars never build one: an exact kernel neither sums
# onto 0 nor keeps the generic order, so float bits and signed zeros would
# move).  Each gives the generic kernel's integers, since int sums and
# products do not depend on their order:
#
# * an outer product (no summed letter, no letter in two operands or twice
#   in one) multiplies the operands' entries in one nested comprehension
#   over their own row-major order, [x * y for x in d0 for y in d1] and so
#   on operand by operand, then puts them in output order with one
#   itemgetter gather; with one operand it is a permutation, the gather
#   alone;
# * a two-operand contraction of PACKED_MADDS or more multiply-adds, with a
#   summed letter, an output letter in each operand, and no letter repeated
#   inside an operand or shared by both operands and the output, packs (SIMD
#   within a register) each summed-index slice of one operand over its free
#   indices into one int of 64-bit two's-complement slots.  An output row,
#   one assignment of the other operand's free indices, is then
#   sum(map(mul, row, slices)): one big-int multiply per summand instead of
#   one bytecode multiply-add per entry.  The slots hold every sum exactly
#   while bits(max|a|) + bits(max|b|) + bits(summands) <= 63, checked per
#   call; past it the generic kernel runs.
#
# _PLAN_CACHE.fast counts the exact ein calls that took an exact kernel, one
# per call, and _PLAN_CACHE.fallbacks the packed calls that ran the generic
# kernel instead.

PLAN_CACHE_CAP = 256  # the workloads use 63 plans (check) and 90 (agm3)
KERNEL_TERMS = 128    # summands per pass: N**3 at N = 5 still takes one
PACKED_MADDS = 512    # below it packing costs more than the generic kernel


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


class _Plan:
    """One einsum plan: its output length, its generic kernel and its kernel
    for exact operands, built on the first exact call (None before it; the
    generic kernel where no exact one applies)."""

    __slots__ = ("n_out", "kernel", "spec", "exact")

    def __init__(self, n_out: int, kernel, spec: tuple):
        self.n_out = n_out
        self.kernel = kernel
        self.spec = spec  # (operand letters, output letters, all letters, dim)
        self.exact = None


class _PlanCache:
    """Einsum plans: ``plan(expr, dim, ranks)`` is one ``lru_cache`` lookup,
    which keeps the PLAN_CACHE_CAP most recently used plans and counts its
    hits and misses.  ``fast`` counts the exact ``ein`` calls that took an
    exact kernel and ``fallbacks`` those that fell back past its bound."""

    fast = fallbacks = 0

    def __init__(self, build):
        self.plan = lru_cache(maxsize=PLAN_CACHE_CAP)(build)

    hits = property(lambda self: self.plan.cache_info().hits)
    misses = property(lambda self: self.plan.cache_info().misses)

    def __len__(self) -> int:
        return self.plan.cache_info().currsize


def _columns(ins: list[str], letters: list[str], dim: int) -> list[list[int]]:
    """Every letter assignment in row-major order over `letters`; one column
    of flat offsets per operand, each linear in the assignment."""
    columns = []
    for s in ins:
        col = [0]
        for c in letters:
            stride = sum(dim ** k for k, x in enumerate(reversed(s)) if x == c)
            col = [o + v * stride for o in col for v in range(dim)]
        columns.append(col)
    return columns


def _build_plan(expr: str, dim: int, ranks: tuple[int, ...]) -> _Plan:
    """The plan of `expr` at `dim` for operands of these ranks."""
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
    # output letters first, so each output entry's summands are consecutive
    letters = list(out_s) + [c for c in seen if c not in out_s]
    columns = _columns(ins, letters, dim)
    n_ops, n_out = len(ins), dim ** len(out_s)
    terms = len(columns[0]) // n_out  # summands per output entry
    passes = []
    for lo in range(0, terms, KERNEL_TERMS):
        offs = [col[s::terms] for s in range(lo, min(lo + KERNEL_TERMS, terms))
                for col in columns]
        rows = offs[0] if len(offs) == 1 else list(zip(*offs))
        passes.append(partial(_kernel(n_ops, len(offs) // n_ops, lo > 0), rows))
    spec = (ins, out_s, letters, dim)
    if len(passes) == 1:
        return _Plan(n_out, passes[0], spec)
    first, *rest = passes

    def kernel(*datas):
        out = first(*datas)
        for more in rest:
            out = more(out, *datas)
        return out
    return _Plan(n_out, kernel, spec)


_PLAN_CACHE = _PlanCache(_build_plan)


def _slots(n: int) -> int:
    """2**63 in each of n 64-bit slots: the bias between two's-complement
    slot values and their unsigned (offset binary) encoding."""
    return int.from_bytes(b"\0\0\0\0\0\0\0\x80" * n, "little")


def _bits(nums: list[int]) -> int:
    """bits(max|x|) over nums."""
    return max(max(nums), -min(nums)).bit_length()


def _outer(ins: list[str], out_s: str, dim: int):
    """The exact kernel of an einsum with no summed or repeated letter: the
    operands' entries multiplied in their own row-major order, then one
    gather into the output's (one operand: a permutation)."""
    where = _columns(["".join(ins)], out_s, dim)[0]
    order = None if where == list(range(len(where))) else itemgetter(*where)

    def outer(out, *rest):
        _PLAN_CACHE.fast += 1
        for b in rest:
            out = [x * y for x in out for y in b]
        if order is not None:
            return list(order(out))
        return out if rest else list(out)
    return outer


def _exact_kernel(plan: _Plan):
    """The plan's kernel for exact operands (see "Minimal einsum"): an
    outer product or the packed kernel, which count their calls in
    _PLAN_CACHE.fast (and the packed kernel those past its bound, which run
    the generic kernel, in _PLAN_CACHE.fallbacks), or else the generic
    kernel itself."""
    ins, out_s, letters, dim = plan.spec
    generic = plan.kernel
    if any(len(set(s)) != len(s) for s in ins):
        return generic
    summed = "".join(letters[len(out_s):])
    if not summed:  # an outer product, unless operands share a letter
        return _outer(ins, out_s, dim) if sum(map(len, ins)) == len(out_s) else generic
    free = [set(s) & set(out_s) for s in ins]
    if (len(ins) != 2 or not all(free) or free[0] & free[1]
            or dim ** len(letters) < PACKED_MADDS):
        return generic
    # rows run over the operand with fewer free indices (tie: the one the
    # output starts with, which often leaves the output in slot order);
    # the other operand is packed
    r, p = (0, 1) if out_s[0] in ins[0] else (1, 0)
    free_r, free_p = ("".join(c for c in out_s if c in ins[k]) for k in (r, p))
    if len(free_r) > len(free_p):
        r, p, free_r, free_p = p, r, free_p, free_r
    # output entry o is slot j of row i, entry i * n_p + j of the unpacked
    # rows: its offset in a tensor indexed by free_r + free_p.  Rows gather
    # the (i, s) entries of their operand, slices the (s, j) ones of theirs.
    where, offs_r, offs_p = (_columns([op], over, dim)[0] for op, over in (
        (free_r + free_p, out_s), (ins[r], free_r + summed),
        (ins[p], summed + free_p)))
    n_out, n_p, terms = len(where), dim ** len(free_p), dim ** len(summed)
    get_r, get_p = itemgetter(*offs_r), itemgetter(*offs_p)
    pack = Struct(f"<{terms * n_p}q").pack
    unpack = Struct(f"<{n_out}q").unpack
    order = None if where == list(range(n_out)) else itemgetter(*where)
    width, bias, biases = 8 * n_p, _slots(n_p), _slots(terms * n_p)
    mask, cuts = (1 << 64 * n_p) - 1, range(0, 64 * n_p * terms, 64 * n_p)
    room = 63 - terms.bit_length()

    def packed(*nums):
        a, b = nums[r], nums[p]
        if _bits(a) + _bits(b) > room:
            _PLAN_CACHE.fallbacks += 1
            return generic(*nums)
        _PLAN_CACHE.fast += 1
        # to offset binary, then one signed int per slice: slot j holds b[s, j]
        x = int.from_bytes(pack(*get_p(b)), "little") ^ biases
        slices = [(x >> c & mask) - bias for c in cuts]
        sums = map(sum, map(map, repeat(mul), zip(*[iter(get_r(a))] * terms),
                            repeat(slices)))
        # each row back to two's-complement slots, all rows unpacked at once
        rows = map(xor, map(int.__add__, sums, repeat(bias)), repeat(bias))
        out = unpack(b"".join(map(int.to_bytes, rows, repeat(width),
                                  repeat("little"))))
        return list(out if order is None else order(out))
    return packed


def ein(expr: str, out_valence: tuple[int, int], *tensors: Tensor) -> Tensor:
    """Einstein sum over flat data; caller states the output valence."""
    if not tensors:
        raise IndexKindError("ein: needs at least one operand")
    dim = tensors[0].dim
    for t in tensors:
        if t.dim != dim:
            raise ShapeError("ein: dimension mismatch")
    plan = _PLAN_CACHE.plan(expr, dim, tuple([t.p + t.q for t in tensors]))
    if dim ** sum(out_valence) != plan.n_out:
        raise ShapeError(f"ein: output valence {out_valence} disagrees with {expr!r}")
    kind = _result_kind(tensors)
    if kind in _EXACT_KINDS:
        den = 1
        for t in tensors:
            den *= t._den
        run = plan.exact
        if run is None:
            run = plan.exact = _exact_kernel(plan)
        out = run(*[t._nums for t in tensors])
        if kind is _FRACTION and run is not plan.kernel and len(tensors) == 1:
            # a gather: a permutation of lowest terms is in lowest terms
            return _new(dim, out_valence, None, kind, out, den)
        return _from_scaled(dim, out_valence, out, den, kind is _INT)
    return _new(dim, out_valence, plan.kernel(*[t.data for t in tensors]), kind)


# ---------------------------------------------------------------------------
# Structural kernels (see the module docstring).  Each keeps what it builds
# for one shape, subscripts or offsets, in a module cache keyed by the shape
# and its slots, so a call builds no subscript text and does no index
# arithmetic.

_LETTER_POOL = "abcdefghijklmnopqrstuvwxyz"


def _letters(n: int, start: int) -> str:
    return _LETTER_POOL[start : start + n]


def _entries(t: Tensor) -> tuple[str | None, list]:
    k = _result_kind((t,))
    return k, t._nums if k in _EXACT_KINDS else t.data


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


@lru_cache(maxsize=PLAN_CACHE_CAP)
def _trace(p: int, q: int, upper: int, lower: int) -> str:
    """The subscripts that contract upper slot `upper` of a (p, q) tensor
    against its lower slot `lower`."""
    if not (0 <= upper < p and 0 <= lower < q):
        raise IndexKindError(
            f"contract: upper {upper} / lower {lower} out of range for valence {(p, q)}"
        )
    letters = list(_letters(p + q, 0))
    letters[p + lower] = letters[upper]
    out = [c for k, c in enumerate(letters) if k != upper and k != p + lower]
    return f"{''.join(letters)}->{''.join(out)}"


def contract(t: Tensor, upper: int, lower: int) -> Tensor:
    """Contract one upper slot against one lower slot (positions within kind)."""
    return ein(_trace(t.p, t.q, upper, lower), (t.p - 1, t.q - 1), t)


@lru_cache(maxsize=PLAN_CACHE_CAP)
def _swap(p: int, q: int, a: int, b: int) -> str:
    """The subscripts that swap slots a and b, of one kind, of a (p, q)
    tensor."""
    r = p + q
    if not (0 <= a < r and 0 <= b < r) or a == b:
        raise IndexKindError(f"bad slot pair ({a}, {b}) for rank {r}")
    if (a < p) != (b < p):
        raise IndexKindError(
            f"slots {a} and {b} are of different kinds (valence {(p, q)})"
        )
    src = _letters(r, 0)
    out = list(src)
    out[a], out[b] = out[b], out[a]
    return f"{src}->{''.join(out)}"


def transpose_pair(t: Tensor, a: int, b: int) -> Tensor:
    return ein(_swap(t.p, t.q, a, b), t.valence, t)


def _swapped(t: Tensor, a: int, b: int) -> tuple:
    """(kind, x, y): t's ``_entries`` (its output kind, and its numerators
    if exact) and the entries y of its (a, b) swap, gathered by the swap's
    ``ein`` plan as ``transpose_pair`` gathers them: an exact gather counts
    in _PLAN_CACHE.fast, and the list path adds each y onto an integer 0."""
    plan = _PLAN_CACHE.plan(_swap(t.p, t.q, a, b), t.dim, (t.p + t.q,))
    kind, x = _entries(t)
    if kind in _EXACT_KINDS:
        run = plan.exact
        if run is None:
            run = plan.exact = _exact_kernel(plan)
        return kind, x, run(x)
    return kind, x, plan.kernel(x)


def alternate(t: Tensor, a: int, b: int) -> Tensor:
    """t[..a..b..] - t[..b..a..]; no 1/2.  One pass over t and its swap,
    with the bits of ``sub(t, transpose_pair(t, a, b))``."""
    kind, x, y = _swapped(t, a, b)
    out = list(map(_minus, x, y))
    if kind in _EXACT_KINDS:
        return _from_scaled(t.dim, t.valence, out, t._den, kind is _INT)
    return _new(t.dim, t.valence, out, kind)


def sym_pair(t: Tensor, a: int, b: int, factor_free: bool = False) -> Tensor:
    """Half-sum over a slot pair; plain sum when factor_free is set.  Halves
    are exact in binary floats (barring subnormals), so 1/2 t + 1/2 t' has
    the bits of (t + t') / 2.  One pass over t and its swap, with the bits
    of ``lincomb(((h, t), (h, transpose_pair(t, a, b))))``: h = 1/2 makes an
    exact output a Fraction tensor, as a Fraction coefficient does."""
    kind, x, y = _swapped(t, a, b)
    if kind in _EXACT_KINDS:
        den = t._den if factor_free else 2 * t._den
        return _from_scaled(t.dim, t.valence, list(map(_plus, x, y)), den,
                            factor_free and kind is _INT)
    if factor_free:
        out = list(map(_plus, x, y))
    else:
        h = 0.5 if kind is _FLOAT else Fraction(1, 2)
        out = [h * u + h * v for u, v in zip(x, y)]
    return _new(t.dim, t.valence, out, kind)


def alternate_sum(rows, a: int, b: int) -> Tensor:
    """The sum of c * alternate(t, a, b) over rows (c, t) (see the module
    docstring)."""
    if (_exact(*(t for _, t in rows))
            and _EXACT_TYPES.issuperset({type(c) for c, _ in rows})):
        return alternate(lincomb(rows), a, b)
    return lincomb([(c, alternate(t, a, b)) for c, t in rows])


# ---------------------------------------------------------------------------
# Delta blocks (see the module docstring).  A block is its defining
# einsums against the delta, as (sign, subscripts) passes in their order,
# and ``_block`` scatters each pass's writes, from offsets cached per shape,
# onto an output of integer 0s.  They only add and subtract entries, so an
# exact input's numerators go through the same passes and keep its
# denominator.


def _passes(block: str, q: int) -> tuple:
    """The (sign, subscripts) passes of a block of a (0, q) input; the
    delta's slots come first."""
    r = _letters(q - 1, 3)  # delta_sym's trailing slots ride along
    return {"mix": ((1, "im,jn->ijmn"), (-1, "in,jm->ijmn")),
            "outer": ((1, "ij,mn->ijmn"),),
            "sym": ((1, f"ij,k{r}->ijk{r}"), (1, f"ik,j{r}->ijk{r}"))}[block]


@lru_cache(maxsize=PLAN_CACHE_CAP)
def _block_plan(block: str, dim: int, q: int) -> tuple:
    """One (operator, writes) pair per pass of a block for a (0, q) input,
    in pass order: ``operator.add`` or ``operator.sub`` by the pass's sign,
    and the (output offset, source offset) of every entry its delta is 1
    on."""
    plan = []
    for sign, expr in _passes(block, q):
        ins, out_s = expr.split("->")
        on_delta, src = _columns(ins.split(","), out_s, dim)
        plan.append((_plus if sign > 0 else _minus,
                     tuple((o, s) for o, (x, s) in enumerate(zip(on_delta, src))
                           if x % (dim + 1) == 0)))  # a diagonal entry
    return tuple(plan)


def _block(t: Tensor, block: str) -> Tensor:
    """The delta block of the (0,q) tensor t, (1,q+1)."""
    kind, x = _entries(t)
    out = [0] * t.dim ** (t.q + 2)
    for op, writes in _block_plan(block, t.dim, t.q):
        for o, s in writes:
            out[o] = op(out[o], x[s])
    if kind in _EXACT_KINDS:
        return _from_scaled(t.dim, (1, t.q + 1), out, t._den, kind is _INT)
    return _new(t.dim, (1, t.q + 1), out, kind)


def delta_mix(Y: Tensor) -> Tensor:
    """d^i_m Y_jn - d^i_n Y_jm, (0,2) -> (1,3); the middle index rides along."""
    if Y.valence != (0, 2):
        raise ShapeError(f"delta_mix: needs a (0,2) tensor, got {Y!r}")
    return _block(Y, "mix")


def delta_outer(Y: Tensor) -> Tensor:
    """d^i_j Y_mn, (0,2) -> (1,3)."""
    if Y.valence != (0, 2):
        raise ShapeError(f"delta_outer: needs a (0,2) tensor, got {Y!r}")
    return _block(Y, "outer")


def delta_sym(t: Tensor) -> Tensor:
    """d^i_j t_k.. + d^i_k t_j.., (0,q) -> (1,q+1); t's trailing slots ride
    along, so a jet's value and gradient go through the same function."""
    if t.p != 0 or t.q < 1:
        raise ShapeError(f"delta_sym: needs a (0,q) tensor with q >= 1, got {t!r}")
    return _block(t, "sym")


def max_abs_diff(a: Tensor, b: Tensor):
    if a.dim != b.dim or a.p != b.p or a.q != b.q:
        raise ShapeError(f"shape mismatch: {a!r} vs {b!r}")
    kind = _result_kind((a, b))
    if kind in _EXACT_KINDS:
        da, db = a._den, b._den
        if da == db and a._nums == b._nums:  # lowest terms: equal values
            return 0 if kind is _INT else Fraction(0)
        # one C-level map chain; a side already on the common den is not scaled
        den, x, y = lcm(da, db), a._nums, b._nums
        if den != da:
            x = map(mul, x, repeat(den // da))
        if den != db:
            y = map(mul, y, repeat(den // db))
        m = max(map(abs, map(_minus, x, y)))
        return m if kind is _INT else Fraction(m, den)
    diffs = [abs(x - y) for x, y in zip(a.data, b.data)]
    return max(_finite(diffs, "residual") if kind is _FLOAT else diffs, default=0)


# ---------------------------------------------------------------------------
# Square linear systems (see the module docstring).


def _pivot(xs: list) -> int:
    """The index of xs' first entry of largest |.|: the pivot rule of every
    elimination on the entries themselves (``_solve``, and mappings'
    ``_solve_agm`` and ``_sym_with_product``)."""
    return max(range(len(xs)), key=lambda k: abs(xs[k]))


def _solve(A: list[list], B: list[list]):
    """Solve A X = B by Gauss-Jordan elimination with max-|.| partial
    pivoting on the entries themselves, in either domain; None when A is
    singular."""
    n = len(A)
    m = [row_a + row_b for row_a, row_b in zip(A, B)]
    w = len(m[0])
    for col in range(n):
        piv = col + _pivot([row[col] for row in m[col:]])
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


def _bareiss(A: list[list], B: list[list]) -> tuple:
    """(det A, det A * A^-1 B) for rows of ints, by fraction-free
    Gauss-Jordan elimination (Bareiss, Math. Comp. 22 (1968) 565); (0, None)
    when A is singular.

    Step k scales every row but the pivot row by the pivot and divides by
    the previous one, exactly, so the entries stay minors of [A | B]; after
    the last step the left block is the last pivot, +-det A, times the unit
    matrix.  The pivot is the first nonzero entry down its column, so the
    entries need a zero test, ``*``, ``-`` and exact ``//``, and no order."""
    n = len(A)
    m = [row_a + row_b for row_a, row_b in zip(A, B)]
    prev, sign = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k] != 0), None)
        if p is None:
            return 0, None
        if p != k:
            m[k], m[p], sign = m[p], m[k], -sign
        row = m[k][k:]
        piv = row[0]
        for i, r in enumerate(m):
            if i != k:  # the columns left of k are settled
                c = r[k]
                r[k:] = [(piv * x - c * y) // prev for x, y in zip(r[k:], row)]
        prev = piv
    return sign * prev, [r[n:] if sign > 0 else [-x for x in r[n:]] for r in m]


def _scaled(t: Tensor) -> tuple[list, int]:
    """(nums, den): t's entries as ints over one denominator, exactly (a
    float is a dyadic ratio), or, for any other scalar type, as they are
    over 1."""
    kind = _result_kind((t,))
    if kind in _EXACT_KINDS:
        return t._nums, t._den
    if kind is not _FLOAT:
        return t.data, 1
    ratios = [x.as_integer_ratio() for x in t.data]
    den = lcm(*[d for _, d in ratios])
    return [x * (den // d) for x, d in ratios], den


def solver(A: Tensor):
    """``solve(B)``, the X with A X = B, for a square matrix A (rank 2:
    rows, columns), or None when A is singular; B's first slot runs over
    A's rows, and X has B's shape.

    Regularity is decided on the exact values of A's entries, in every
    mode, by the determinant of one fraction-free elimination (``_bareiss``).
    An exact A keeps that elimination's adjugate, so an exact B is solved by
    one integer product and one normalisation, with no ``Fraction`` built.
    Any other operand solves on its entries by ``_solve`` (max-|.| pivots),
    so float solutions keep their bits; it returns None if a float pivot
    vanishes."""
    if A.rank != 2:
        raise ShapeError(f"solver: needs a square matrix, got {A!r}")
    n = A.dim
    nums, den = _scaled(A)
    exact = _exact(A)
    det, adj = _bareiss([nums[i * n:(i + 1) * n] for i in range(n)],
                        [[int(i == j) for j in range(n)] if exact else []
                         for i in range(n)])
    if det == 0:
        return None
    if exact:  # A^-1 = den * adj / det
        adj = [[den * x for x in r] for r in adj]

    def solve(B: Tensor) -> Tensor | None:
        if B.dim != n or B.rank < 1:
            raise ShapeError(f"solve: {B!r} does not match {A!r}")
        m = n ** (B.rank - 1)
        if exact and _exact(B):
            b = B._nums
            cols = list(zip(*[b[i * m:(i + 1) * m] for i in range(n)]))
            out = [sum(map(mul, r, c)) for r in adj for c in cols]
            d = det * B._den
            if d < 0:
                out, d = [-x for x in out], -d
            return _from_scaled(n, B.valence, out, d, ints=False)
        a, b = A.data, B.data
        X = _solve([a[i * n:(i + 1) * n] for i in range(n)],
                   [b[i * m:(i + 1) * m] for i in range(n)])
        return None if X is None else Tensor(n, B.valence, [x for r in X for x in r])
    return solve
