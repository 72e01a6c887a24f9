"""Reference cyclotomic polynomials and power rows in plain `IntPoly` arithmetic.

Independent of `charzero.cyclotomic`'s radical identity and numpy routines:
Phi_m is the Moebius product prod_{d|m} (x^d - 1)^mu(m/d), multiplied out
and divided exactly as integer polynomials, and x^k mod Phi_m is the
remainder of one long division.  Used as the second route of the tests of
`cyclotomic_polynomial` and `power_rows`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import prod

from charzero.cyclotomic import prime_factors
from charzero.polynomials import IntPoly


@lru_cache(maxsize=None)
def mobius_cyclotomic_polynomial(m: int) -> IntPoly:
    """Phi_m via prod_{d|m} (x^d - 1)^mu(m/d), whose nonzero factors are
    d = m / (a product of k distinct primes of m), with mu(m/d) = (-1)^k."""
    if m == 1:
        return IntPoly((-1, 1))
    numer = IntPoly((1,))
    denom = IntPoly((1,))
    primes = prime_factors(m)
    for k in range(len(primes) + 1):
        for chosen in combinations(primes, k):
            if k % 2:
                denom = denom * IntPoly.x_pow_minus_one(m // prod(chosen))
            else:
                numer = numer * IntPoly.x_pow_minus_one(m // prod(chosen))
    return numer // denom


def power_row_by_division(m: int, k: int) -> list[int]:
    """Coordinates of x^k mod Phi_m, padded to phi(m): the remainder of
    x^k divided by the reference Phi_m."""
    phi = mobius_cyclotomic_polynomial(m)
    _, rem = IntPoly((0,) * k + (1,)).divmod_exact(phi)
    return list(rem.coeffs) + [0] * (phi.degree - len(rem.coeffs))
