"""Exact polynomial-field oracle for first-order jet arithmetic.

A tensor field whose components are multivariate polynomials with rational
coefficients can be added, multiplied, contracted, and differentiated
symbolically, entirely independently of the jet module.  Evaluating the
symbolic result at a point then yields an exact reference value-and-gradient
pair against which the jet operations (which only ever see the point data)
are compared.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from geoinv.jet import JetTensor
from geoinv.tensor_core import Tensor


class Poly:
    """Multivariate polynomial: map from exponent tuple to coefficient."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict[tuple[int, ...], Fraction] | None = None):
        self.dim = dim
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for expo, coeff in (terms or {}).items():
            if coeff:
                cleaned[expo] = cleaned.get(expo, Fraction(0)) + coeff
        self.terms = {e: c for e, c in cleaned.items() if c}

    def __add__(self, other: "Poly") -> "Poly":
        merged = dict(self.terms)
        for expo, coeff in other.terms.items():
            merged[expo] = merged.get(expo, Fraction(0)) + coeff
        return Poly(self.dim, merged)

    def __radd__(self, other) -> "Poly":
        """0 + p, for sums that start from the integer 0 (as ein's do)."""
        if other != 0:
            return NotImplemented
        return self

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scaled(-1)

    def __rsub__(self, other) -> "Poly":
        """0 - p, for a delta block's subtraction from the integer 0."""
        if other != 0:
            return NotImplemented
        return self.scaled(-1)

    def __rmul__(self, other) -> "Poly":
        """c * p for an exact coefficient c, as ``lincomb`` applies one."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.scaled(other)

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                out[expo] = out.get(expo, Fraction(0)) + c1 * c2
        return Poly(self.dim, out)

    def scaled(self, factor) -> "Poly":
        return Poly(self.dim, {e: c * factor for e, c in self.terms.items()})

    def diff(self, k: int) -> "Poly":
        out: dict[tuple[int, ...], Fraction] = {}
        for expo, coeff in self.terms.items():
            if expo[k]:
                lowered = list(expo)
                lowered[k] -= 1
                key = tuple(lowered)
                out[key] = out.get(key, Fraction(0)) + coeff * expo[k]
        return Poly(self.dim, out)

    def __call__(self, point: tuple[Fraction, ...]) -> Fraction:
        total = Fraction(0)
        for expo, coeff in self.terms.items():
            term = coeff
            for coord, power in zip(point, expo):
                term *= coord**power
            total += term
        return total


def random_poly(rng, dim: int, degree: int = 2) -> Poly:
    exponents = [
        e
        for e in itertools.product(range(degree + 1), repeat=dim)
        if sum(e) <= degree
    ]
    terms = {
        e: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for e in exponents
    }
    return Poly(dim, terms)


def random_point(rng, dim: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(dim))


class PolyField:
    """Tensor-valued polynomial field: one Poly per component, uppers first."""

    def __init__(self, dim: int, valence: tuple[int, int], comps):
        self.dim = dim
        self.valence = valence
        self.comps = comps

    @classmethod
    def random(cls, rng, dim: int, valence: tuple[int, int], degree: int = 2):
        rank = valence[0] + valence[1]
        comps = {
            idx: random_poly(rng, dim, degree)
            for idx in itertools.product(range(dim), repeat=rank)
        }
        return cls(dim, valence, comps)

    def mul(self, other: "PolyField") -> "PolyField":
        """Outer product with the jet convention: uppers of both, then lowers."""
        pa, qa = self.valence
        pb, qb = other.valence
        comps = {}
        for ia, fa in self.comps.items():
            for ib, fb in other.comps.items():
                idx = ia[:pa] + ib[:pb] + ia[pa:] + ib[pb:]
                comps[idx] = fa * fb
        merged: dict[tuple[int, ...], Poly] = {}
        for idx, poly in comps.items():
            merged[idx] = merged[idx] + poly if idx in merged else poly
        return PolyField(self.dim, (pa + pb, qa + qb), merged)

    def contract(self, upper: int, lower: int) -> "PolyField":
        p, q = self.valence
        lower_pos = p + lower
        out: dict[tuple[int, ...], Poly] = {}
        for idx, poly in self.comps.items():
            if idx[upper] != idx[lower_pos]:
                continue
            kept = tuple(
                v for pos, v in enumerate(idx) if pos not in (upper, lower_pos)
            )
            out[kept] = out[kept] + poly if kept in out else poly
        zero = Poly(self.dim, {})
        rank = p + q - 2
        comps = {
            idx: out.get(idx, zero)
            for idx in itertools.product(range(self.dim), repeat=rank)
        }
        return PolyField(self.dim, (p - 1, q - 1), comps)

    def diff(self) -> "PolyField":
        """Coordinate gradient: appends one lower slot at the end."""
        p, q = self.valence
        comps = {
            idx + (k,): poly.diff(k)
            for idx, poly in self.comps.items()
            for k in range(self.dim)
        }
        return PolyField(self.dim, (p, q + 1), comps)

    def combine(self, other: "PolyField", factor) -> "PolyField":
        comps = {
            idx: poly + other.comps[idx].scaled(factor)
            for idx, poly in self.comps.items()
        }
        return PolyField(self.dim, self.valence, comps)

    def swap_lowers(self, a: int, b: int) -> "PolyField":
        p, _ = self.valence
        pa, pb = p + a, p + b
        comps = {}
        for idx, poly in self.comps.items():
            swapped = list(idx)
            swapped[pa], swapped[pb] = swapped[pb], swapped[pa]
            comps[tuple(swapped)] = poly
        return PolyField(self.dim, self.valence, comps)

    def value_at(self, point) -> Tensor:
        rank = self.valence[0] + self.valence[1]
        data = [
            self.comps[idx](point)
            for idx in itertools.product(range(self.dim), repeat=rank)
        ]
        return Tensor(self.dim, self.valence, data)

    def jet_at(self, point) -> JetTensor:
        return JetTensor(self.value_at(point), self.diff().value_at(point))
