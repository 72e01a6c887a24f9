"""Exact cyclotomic integers with a decidable zero test.

A value of conductor m is stored by its coordinates in the power basis
{zeta_m^i : 0 <= i < phi(m)} after eager reduction modulo the m-th
cyclotomic polynomial.  Since Phi_m is the minimal polynomial of zeta_m,
the reduced coordinate vector is unique, so equality and the zero test are
plain integer comparisons: no tolerance exists anywhere in this module.

Mixed-conductor arithmetic lifts both operands to the least common
multiple conductor via zeta_m = zeta_M^(M/m).  All values are immutable.
Every power zeta_m^k past the basis is read as an int64 row from
`power_rows`.  `CycInt` keeps the rows it has read, per conductor, and
reads a row only when a value or a product has a nonzero term there, so it
never builds the whole basis.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import gcd, prod
from typing import Sequence

import numpy as np

from .errors import ExactnessError
from .polynomials import IntPoly


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1 in increasing order, by trial division."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("conductor must be positive")
    result = m
    for p in prime_factors(m):
        result -= result // p
    return result


# Every intermediate of `cyclotomic_polynomial` and `power_rows` stays
# below this, so no int64 sum of two of them can overflow.
_INT64_BOUND = 1 << 62


def _radical(m: int) -> int:
    return prod(prime_factors(m))


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> IntPoly:
    """Phi_m from the radical r of m: Phi_m(x) = Phi_r(x^(m/r)).

    For squarefree r > 1, Phi_r = prod_{d|r} (1 - x^d)^mu(r/d), whose factors
    are d = r / (a product of k distinct primes of r) with mu(r/d) = (-1)^k.
    It is evaluated as a power series cut off at degree phi(r): one shifted
    subtraction per numerator factor, then one stride-d prefix sum per
    denominator factor, O(2^omega phi(r)) int64 work for omega distinct
    primes; a factor with d > phi(r) is 1 to that degree.  Before each step
    max|a| * len(a) must stay below 2^62, which bounds every partial sum,
    or ExactnessError is raised."""
    if m < 1:
        raise ValueError("conductor must be positive")
    if m == 1:
        return IntPoly((-1, 1))
    r = _radical(m)
    if r != m:
        stride = m // r
        coeffs = [0] * (euler_phi(m) + 1)
        coeffs[::stride] = cyclotomic_polynomial(r).coeffs
        return IntPoly(tuple(coeffs))
    primes = prime_factors(r)
    phi = euler_phi(r)
    a = np.zeros(phi + 1, dtype=np.int64)
    a[0] = 1
    factors = [(k % 2, r // prod(chosen)) for k in range(len(primes) + 1)
               for chosen in combinations(primes, k)]
    for divide, d in sorted(factors):  # numerator factors first
        if d > phi:
            continue
        if int(np.abs(a).max()) * len(a) >= _INT64_BOUND:
            raise ExactnessError(f"cyclotomic polynomial {m} would overflow int64")
        if divide:
            padded = np.zeros(-(-len(a) // d) * d, dtype=np.int64)
            padded[: len(a)] = a
            a = padded.reshape(-1, d).cumsum(axis=0).ravel()[: phi + 1]
        else:
            a[d:] = a[d:] - a[:-d]
    return IntPoly(tuple(a.tolist()))


def power_rows(m: int, ks: Sequence[int] | np.ndarray) -> np.ndarray:
    """Canonical coordinates of x^k mod Phi_m, one int64 row of phi(m) per
    k in `ks`, in request order (duplicates allowed).

    With r the radical of m and y = x^(m/r), Phi_m(x) = Phi_r(y).  Writing
    k mod m = (m/r) j + s with 0 <= s < m/r, x^k = x^s (y^j mod Phi_r(y)),
    which is already reduced, so the recurrence y^(j+1) = y y^j mod Phi_r
    runs on phi(r)-wide rows up to the largest j requested (< r), and each
    row lands in its phi(m)-wide row with stride m/r at offset s.  A running
    bound on max|y^j| must stay below 2^62 with each carry * max|top| added,
    or ExactnessError is raised."""
    ks = np.asarray(ks, dtype=np.int64) % m
    r = _radical(m)
    stride = m // r
    phi_r = np.array(cyclotomic_polynomial(r).coeffs, dtype=np.int64)
    phi = len(phi_r) - 1
    top = -phi_r[:phi]  # y^phi = -(c_0 + ... + c_{phi-1} y^(phi-1)): Phi_r is monic
    top_max = int(np.abs(top).max())
    js, offsets = np.divmod(ks, stride)
    out = np.zeros((len(ks), phi * stride), dtype=np.int64)
    if not len(ks):
        return out
    steps = int(js.max())
    # y^j is the window window[steps - j : steps - j + phi]: multiplying by y
    # moves the window one place left onto a zero, then adds carry * top
    window = np.zeros(steps + phi, dtype=np.int64)
    window[steps] = 1
    wanted = sorted(zip(js.tolist(), offsets.tolist(), range(len(ks))))
    bound, i = 1, 0
    for j in range(steps + 1):
        lo = steps - j
        while i < len(wanted) and wanted[i][0] == j:
            _, offset, row = wanted[i]
            out[row, offset::stride] = window[lo : lo + phi]
            i += 1
        if j == steps:
            break
        carry = int(window[lo + phi - 1])
        if carry:
            bound += abs(carry) * top_max
            if bound >= _INT64_BOUND:
                raise ExactnessError(f"powers of zeta_{m} would overflow int64")
            window[lo - 1 : lo - 1 + phi] += carry * top
    return out


# The rows x^e (e >= phi(m)) that `CycInt` has read, per conductor m.
_rows_read: dict[int, dict[int, tuple[tuple[int, int], ...]]] = {}


def _rows_past_basis(m: int, es: list[int]) -> list[tuple[tuple[int, int], ...]]:
    """The nonzero canonical coordinates (j, c_j) of x^e for the distinct
    exponents e >= phi(m) in `es`; those not read before come from one
    `power_rows` call."""
    known = _rows_read.setdefault(m, {})
    missing = [e for e in es if e not in known]
    if missing:
        for e, row in zip(missing, power_rows(m, missing)):
            nonzero = np.flatnonzero(row)
            known[e] = tuple(zip(nonzero.tolist(), row[nonzero].tolist()))
    return [known[e] for e in es]


class CycInt:
    """Element of Z[zeta_m] in canonical power-basis coordinates."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: tuple[int, ...]):
        # internal: coeffs must already be canonical of length phi(conductor)
        self.conductor = conductor
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_exponents(m: int, exponent_coeffs: dict[int, int]) -> "CycInt":
        """Canonical reduction of sum_e c_e * zeta_m^e.  An exponent below
        phi(m) is its own basis coordinate; each other one adds its row from
        `_rows_past_basis`."""
        phi = euler_phi(m)
        acc = [0] * phi
        high: dict[int, int] = {}
        for e, c in exponent_coeffs.items():
            e %= m
            if e < phi:
                acc[e] += c
            elif c:
                high[e] = high.get(e, 0) + c
        if high:
            for c, row in zip(high.values(), _rows_past_basis(m, list(high))):
                for j, r in row:
                    acc[j] += c * r
        return CycInt(m, tuple(acc))

    @staticmethod
    def integer(n: int, m: int = 1) -> "CycInt":
        return CycInt.from_exponents(m, {0: n})

    @staticmethod
    def zeta(m: int, e: int = 1) -> "CycInt":
        return CycInt.from_exponents(m, {e: 1})

    @staticmethod
    def zero(m: int = 1) -> "CycInt":
        return CycInt(m, (0,) * euler_phi(m))

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_integer(self) -> bool:
        return not any(self.coeffs[1:])

    def to_integer(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self!r} is not a rational integer")
        return self.coeffs[0]

    def lift(self, big_m: int) -> "CycInt":
        """Rewrite in conductor big_m (a multiple of the current one)."""
        if big_m == self.conductor:
            return self
        if big_m % self.conductor != 0:
            raise ValueError("can only lift to a multiple of the conductor")
        k = big_m // self.conductor
        return CycInt.from_exponents(
            big_m, {i * k: c for i, c in enumerate(self.coeffs) if c}
        )

    def _common(self, other: "CycInt") -> tuple["CycInt", "CycInt"]:
        if self.conductor == other.conductor:
            return self, other
        m = self.conductor * other.conductor // gcd(self.conductor, other.conductor)
        return self.lift(m), other.lift(m)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = CycInt.integer(other, self.conductor)
        a, b = self._common(other)
        return CycInt(a.conductor, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycInt(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = CycInt.integer(other, self.conductor)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.conductor, tuple(other * c for c in self.coeffs))
        a, b = self._common(other)
        m = a.conductor
        phi = len(a.coeffs)
        conv = [0] * (2 * phi - 1)
        for i, ca in enumerate(a.coeffs):
            if ca:
                for j, cb in enumerate(b.coeffs):
                    if cb:
                        conv[i + j] += ca * cb
        acc = conv[:phi]
        high = [e for e in range(phi, len(conv)) if conv[e]]
        if high:
            for e, row in zip(high, _rows_past_basis(m, high)):
                for j, r in row:
                    acc[j] += conv[e] * r
        return CycInt(m, tuple(acc))

    __rmul__ = __mul__

    def galois(self, a: int) -> "CycInt":
        """Image under zeta_m -> zeta_m^a, gcd(a, m) = 1."""
        m = self.conductor
        if gcd(a % m, m) != 1:
            raise ValueError("galois exponent must be coprime to the conductor")
        return CycInt.from_exponents(
            m, {(i * a) % m: c for i, c in enumerate(self.coeffs) if c}
        )

    def conjugate(self) -> "CycInt":
        """Complex conjugation, zeta -> zeta^{-1}."""
        if self.conductor <= 2:
            return self
        return self.galois(self.conductor - 1)

    # -- comparison / display ------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_integer() and self.coeffs[0] == other
        if not isinstance(other, CycInt):
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # values of different conductors compare equal; do not hash

    def __repr__(self):
        return f"CycInt(m={self.conductor}, {list(self.coeffs)})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(f"{c:+d}")
            else:
                z = f"z{self.conductor}" + (f"^{i}" if i > 1 else "")
                if c == 1:
                    parts.append(f"+{z}")
                elif c == -1:
                    parts.append(f"-{z}")
                else:
                    parts.append(f"{c:+d}*{z}")
        s = "".join(parts)
        return s[1:] if s.startswith("+") else s

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        zero = self.is_zero()
        return {
            "conductor": self.conductor,
            "coeffs": [] if zero else list(self.coeffs),
            "is_zero": zero,
        }

    @staticmethod
    def from_json(obj: dict) -> "CycInt":
        m = int(obj["conductor"])
        phi = euler_phi(m)
        coeffs = list(obj["coeffs"])
        if len(coeffs) < phi:
            coeffs += [0] * (phi - len(coeffs))
        if len(coeffs) != phi:
            raise ValueError("coefficient vector has the wrong length")
        return CycInt(m, tuple(int(c) for c in coeffs))


def cyc_make(m: int, exponent_multiset: dict[int, int]) -> CycInt:
    """Public constructor: canonical form of sum_e c_e zeta_m^e."""
    return CycInt.from_exponents(m, exponent_multiset)


def cyc_is_zero(v: CycInt) -> bool:
    """Exact zero test from canonical coordinates."""
    return v.is_zero()
