"""Small finite fields F_{p^e} with exact arithmetic.

Elements are integers 0..p^e-1 encoding coefficient vectors in base p
(lowest power first) over a deterministically chosen modulus: the least
monic irreducible of degree e in lexicographic coefficient order, so runs
are reproducible across platforms.  Add/mul tables are precomputed, so the
batched matrix products, conjugation orbits and Fourier sums are gathers
from them, with no per-operation polynomial arithmetic.  They are q x q
Python lists, so a field whose tables would pass a 3 GiB guard (q > 8192)
is refused before its modulus or its tables are built.

Every F_q[x] question goes through one divider (`fq_poly_divmod`) and one
factoriser for degree <= 3 (`fq_poly_factor_cubic_or_less`): the modulus
is found by trial division with the divider over F_p, and squarefreeness
is read off the factors.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .cyclotomic import CycInt, prime_factors
from .errors import ExactnessError

DEFAULT_FIELD_CAP = 10**6
# The add and mul tables are q x q Python lists: per ordered pair, two 8-byte
# pointers and half of two int objects of 32 bytes (measured 43.7 B at q = 2003,
# 45.3 B at q = 3001).  Under a 3 GiB address space that accepts q <= 8192.
_TABLE_BYTES_PER_PAIR = 48
_MAX_TABLE_BYTES = 3 << 30


def is_prime(n: int) -> bool:
    return prime_factors(n) == [n]


def is_prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, e) with n = p^e, or None."""
    if n < 2:
        return None
    p = next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)  # least prime factor
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return (p, e) if n == 1 else None


# -- base-b digit codes (field elements over F_p, matrices over F_q) --------


def from_digits(digits: list[int] | tuple[int, ...], base: int) -> int:
    """The code of a digit vector, digit 0 least significant."""
    code = 0
    for d in reversed(digits):
        code = code * base + d
    return code


def to_digits(code: int, base: int, count: int) -> list[int]:
    """The `count` lowest base-`base` digits of `code`, least significant first."""
    out = []
    for _ in range(count):
        out.append(code % base)
        code //= base
    return out


class Field:
    """F_{p^e}; element encoding is an int in [0, p^e)."""

    def __init__(self, p: int, e: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be positive")
        need = p ** (2 * e) * _TABLE_BYTES_PER_PAIR
        if need > _MAX_TABLE_BYTES:  # refused before the modulus search and the tables
            raise ValueError(f"the tables of F_{p**e} need about {need} bytes, "
                             f"above the supported maximum {_MAX_TABLE_BYTES}")
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = _least_irreducible(p, e)  # length e+1, lowest first, monic
        self._build_tables()
        self.generator = self._find_generator()

    # -- tables ----------------------------------------------------------

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q
        mod = self.modulus
        # reduction of x^e modulo the defining polynomial
        top = [(-mod[i]) % p for i in range(e)]
        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        vecs = [to_digits(x, p, e) for x in range(q)]
        for a in range(q):
            va = vecs[a]
            for b in range(a, q):
                vb = vecs[b]
                s = from_digits([(x + y) % p for x, y in zip(va, vb)], p)
                add[a][b] = s
                add[b][a] = s
        for a in range(q):
            va = vecs[a]
            for b in range(a, q):
                vb = vecs[b]
                conv = [0] * (2 * e - 1)
                for i, ca in enumerate(va):
                    if ca:
                        for j, cb in enumerate(vb):
                            conv[i + j] += ca * cb
                for k in range(len(conv) - 1, e - 1, -1):
                    c = conv[k] % p
                    if c:
                        for j in range(e):
                            conv[k - e + j] += c * top[j]
                    conv[k] = 0
                m = from_digits([c % p for c in conv[:e]], p)
                mul[a][b] = m
                mul[b][a] = m
        self.add = add
        self.mul = mul
        self.neg = [add[a].index(0) for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            inv[a] = mul[a].index(1)
        self.inv = inv

    def _find_generator(self) -> int:
        order = self.q - 1
        if order == 1:
            return 1
        factors = prime_factors(order)
        for g in range(2, self.q):
            if all(self.pow(g, order // f) != 1 for f in factors):
                return g
        raise ExactnessError("multiplicative group has no generator; field tables corrupt")

    # -- arithmetic helpers -----------------------------------------------

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            a, n = self.inv[a], -n
        result, base = 1, a
        while n:
            if n & 1:
                result = self.mul[result][base]
            base = self.mul[base][base]
            n >>= 1
        return result

    def elements(self) -> range:
        return range(self.q)

    def trace_to_prime(self, x: int) -> int:
        """x + x^p + ... + x^(p^(e-1)), landing in the prime field."""
        acc, cur = 0, x
        for _ in range(self.e):
            acc = self.add[acc][cur]
            cur = self.pow(cur, self.p)
        if acc >= self.p:
            raise ExactnessError("trace left the prime subfield")
        return acc

    def additive_character(self, x: int) -> CycInt:
        """psi(x) = zeta_p^Tr(x), the canonical nontrivial additive character."""
        return CycInt.zeta(self.p, self.trace_to_prime(x))

    def __repr__(self):
        return f"Field(p={self.p}, e={self.e})"


def _poly_is_irreducible(coeffs: list[int], p: int) -> bool:
    """Irreducibility of a monic polynomial over F_p by trial division with
    `fq_poly_divmod` against every monic polynomial of degree <= deg/2; the
    linear divisors x + c stand for the roots -c."""
    Fp = field_make(p, 1)
    return all(fq_poly_divmod(Fp, coeffs, to_digits(idx, p, d) + [1])[1]
               for d in range(1, (len(coeffs) - 1) // 2 + 1) for idx in range(p**d))


@lru_cache(maxsize=None)
def _least_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Least monic irreducible of degree e in lexicographic order on the
    coefficient tuple (c_0, ..., c_{e-1})."""
    if e == 1:
        return (0, 1)  # the polynomial x
    for idx in range(p**e):
        coeffs = to_digits(idx, p, e) + [1]
        if _poly_is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise ExactnessError(f"no irreducible of degree {e} over F_{p}")  # unreachable


@lru_cache(maxsize=32)
def field_make(p: int, e: int) -> Field:
    return Field(p, e)


def field_for_order(q: int) -> Field:
    if q > DEFAULT_FIELD_CAP:  # refused before trial division, which takes ~sqrt(q) steps
        raise ValueError(f"field size {q} exceeds cap {DEFAULT_FIELD_CAP}")
    pe = is_prime_power(q)
    if pe is None:
        raise ValueError(f"{q} is not a prime power")
    return field_make(pe[0], pe[1])


# -- F_q[x] helpers (dense coefficient lists of element codes) -------------


def fq_poly_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def fq_poly_divmod(F: Field, a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = a[:]
    binv = F.inv[b[-1]]
    qlen = len(rem) - len(b) + 1
    if qlen <= 0:
        return [], fq_poly_trim(rem)
    quot = [0] * qlen
    for i in range(qlen - 1, -1, -1):
        c = F.mul[rem[i + len(b) - 1]][binv]
        quot[i] = c
        if c:
            for j, bc in enumerate(b):
                rem[i + j] = F.add[rem[i + j]][F.neg[F.mul[c][bc]]]
    return fq_poly_trim(quot), fq_poly_trim(rem)


def fq_poly_is_squarefree(F: Field, a: list[int]) -> bool:
    """Whether a monic polynomial of degree <= 3 has no repeated irreducible
    factor, read off `fq_poly_factor_cubic_or_less`."""
    factors = fq_poly_factor_cubic_or_less(F, a)
    return all(f != g for f, g in zip(factors, factors[1:]))


def fq_poly_roots(F: Field, a: list[int]) -> list[int]:
    out = []
    for x in F.elements():
        acc = 0
        for c in reversed(a):
            acc = F.add[F.mul[acc][x]][c]
        if acc == 0:
            out.append(x)
    return out


def fq_poly_factor_cubic_or_less(F: Field, a: list[int]) -> list[list[int]]:
    """Irreducible factors (with multiplicity) of a monic poly of degree <= 3.

    Degree <= 3 means every reducible polynomial has a linear factor, so a
    root scan plus division suffices.
    """
    a = fq_poly_trim(a[:])
    if len(a) - 1 > 3:
        raise ValueError("factorization helper only handles degree <= 3")
    factors: list[list[int]] = []
    rest = a
    # a linear factor is irreducible, and needs no root scan
    while len(rest) > 2 and (roots := fq_poly_roots(F, rest)):
        lin = [F.neg[min(roots)], 1]
        rest, rem = fq_poly_divmod(F, rest, lin)
        if rem:
            raise ExactnessError("a root's linear factor left a remainder")
        factors.append(lin)
    if len(rest) > 1:
        factors.append(rest)
    return sorted(factors)
