"""Exact univariate integer polynomials and rational functions in q.

Coefficients are arbitrary-precision Python ints, stored lowest degree
first with no trailing zeros; all arithmetic is exact.  Rational functions
are kept in reduced form (content-free numerator/denominator with a
positive-leading-coefficient denominator) so equality is structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import ExactnessError

# Sentinels returned by limit_at_infinity for unbounded quotients.
POS_INFINITY = "+inf"
NEG_INFINITY = "-inf"


def _trim(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial, coeffs[i] is the coefficient of q^i."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[int]) -> "IntPoly":
        return cls(tuple(int(c) for c in coeffs))

    @classmethod
    def x_pow_minus_one(cls, d: int) -> "IntPoly":
        """q^d - 1."""
        if d < 1:
            raise ValueError("exponent must be positive")
        return cls((-1,) + (0,) * (d - 1) + (1,))

    @classmethod
    def x_pow_plus_one(cls, d: int) -> "IntPoly":
        """q^d + 1."""
        if d < 1:
            raise ValueError("exponent must be positive")
        return cls((1,) + (0,) * (d - 1) + (1,))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def is_monic(self) -> bool:
        return self.leading == 1

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(tuple(out))

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(tuple(other * c for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("negative power")
        result = IntPoly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod_exact(self, divisor: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Polynomial division; every intermediate coefficient quotient must
        be an exact integer (valid over Z e.g. for monic divisors)."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        dcof = divisor.coeffs
        dl = divisor.leading
        qlen = len(rem) - len(dcof) + 1
        if qlen <= 0:
            return IntPoly(()), IntPoly(tuple(rem))
        quot = [0] * qlen
        for i in range(qlen - 1, -1, -1):
            c = rem[i + len(dcof) - 1]
            if c % dl != 0:
                raise ExactnessError("division is not exact over the integers")
            f = c // dl
            quot[i] = f
            if f:
                for j, dc in enumerate(dcof):
                    rem[i + j] -= f * dc
        return IntPoly(tuple(quot)), IntPoly(tuple(rem))

    def __floordiv__(self, divisor: "IntPoly") -> "IntPoly":
        q, r = self.divmod_exact(divisor)
        if not r.is_zero():
            raise ExactnessError("polynomial division left a remainder")
        return q

    def evaluate(self, x):
        """Horner evaluation at an int or Fraction."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, abs(c))
        return g

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(f"{c:+d}")
            else:
                mono = "q" if i == 1 else f"q^{i}"
                if c == 1:
                    parts.append(f"+{mono}")
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c:+d}*{mono}")
        s = "".join(parts)
        return s[1:] if s.startswith("+") else s


def _frac_poly_mod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    # remainder of a by b over Q; both lists lowest-degree-first, b nonzero
    a = a[:]
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for j, c in enumerate(b):
            a[shift + j] -= f * c
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Gcd over Q, returned as a primitive integer polynomial with positive
    leading coefficient (a unit times any other gcd)."""
    fa = [Fraction(c) for c in a.coeffs]
    fb = [Fraction(c) for c in b.coeffs]
    while fb:
        fa, fb = fb, _frac_poly_mod(fa, fb)
    if not fa:
        return IntPoly(())
    denom_lcm = 1
    for c in fa:
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in fa]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return IntPoly(tuple(ints))


@dataclass(frozen=True)
class RatFunc:
    """Quotient of integer polynomials, stored reduced."""

    num: IntPoly
    den: IntPoly

    def __post_init__(self):
        if self.den.is_zero():
            raise ZeroDivisionError("zero denominator")
        num, den = self.num, self.den
        if num.is_zero():
            object.__setattr__(self, "num", IntPoly(()))
            object.__setattr__(self, "den", IntPoly((1,)))
            return
        g = poly_gcd(num, den)
        if g.degree > 0 or g.leading != 1:
            num = num // g
            den = den // g
        cn, cd = num.content(), den.content()
        c = gcd(cn, cd)
        if c > 1:
            num = IntPoly(tuple(x // c for x in num.coeffs))
            den = IntPoly(tuple(x // c for x in den.coeffs))
        if den.leading < 0:
            num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def evaluate(self, x) -> Fraction:
        d = self.den.evaluate(Fraction(x))
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {x}")
        return Fraction(self.num.evaluate(Fraction(x))) / d

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.den * other.den)

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __str__(self) -> str:
        return f"({self.num})/({self.den})"


def limit_at_infinity(f: RatFunc):
    """Limit of f(q) as q -> +infinity.

    Returns an exact Fraction (0 included) when the limit is finite and the
    POS_INFINITY / NEG_INFINITY sentinel otherwise.
    """
    if f.num.is_zero():
        return Fraction(0)
    dn, dd = f.num.degree, f.den.degree
    if dn < dd:
        return Fraction(0)
    if dn == dd:
        return Fraction(f.num.leading, f.den.leading)
    sign = f.num.leading * f.den.leading
    return POS_INFINITY if sign > 0 else NEG_INFINITY


@dataclass(frozen=True)
class PolyFit:
    poly: IntPoly
    monic_of_degree: bool


def fit_integer_poly(samples: Sequence[tuple[int, int]], degree: int) -> PolyFit:
    """Interpolate samples by the unique polynomial of degree <= `degree`.

    Uses the first degree+1 distinct sample points, then demands that the
    interpolant has integer coefficients and reproduces *every* provided
    sample exactly.  Reports whether the result is monic of the requested
    degree.  Raises ValueError on too few points, and ExactnessError on a
    non-integer interpolant or one that misses a sample.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    seen: dict[int, int] = {}
    for x, y in samples:
        if x in seen:
            if seen[x] != y:
                raise ValueError(f"conflicting samples at q={x}")
            continue
        seen[x] = y
    if len(seen) < degree + 1:
        raise ValueError(
            f"need at least {degree + 1} distinct sample points, got {len(seen)}"
        )
    base = list(seen.items())[: degree + 1]
    # Lagrange interpolation over Q.
    acc = [Fraction(0)] * (degree + 1)
    for i, (xi, yi) in enumerate(base):
        # numerator polynomial prod_{j != i} (x - xj), built incrementally
        numer = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(base):
            if j == i:
                continue
            numer = [Fraction(0)] + numer
            for k in range(len(numer) - 1):
                numer[k] -= xj * numer[k + 1]
            denom *= xi - xj
        w = Fraction(yi) / denom
        for k, c in enumerate(numer):
            acc[k] += w * c
    for c in acc:
        if c.denominator != 1:
            raise ExactnessError("interpolant has non-integer coefficients")
    poly = IntPoly(tuple(int(c) for c in acc))
    for x, y in seen.items():
        if poly.evaluate(x) != y:
            raise ExactnessError(f"degree-{degree} interpolant misses sample at q={x}")
    return PolyFit(poly, poly.degree == degree and poly.is_monic())
