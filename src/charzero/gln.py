"""GL_n(F_q) structure theory: maximal tori by partition, regular-element
counts, regular-semisimple class counts, general-position character counts,
the closed-form zero-density expressions for GL_2 and GL_3, and the exact
GL_2 zero count for every q.

The regular-element count f_lambda of each maximal torus T_lambda^F =
prod_i F_{q^{lambda_i}}^x comes in closed form from the number of elements
of F_{q^k}^x of degree exactly k (`_regular_element_count`): no torus
element is visited, and the counts are exact for every q.  Each f_lambda is
checked divisible by c_lambda; the tests compare it with a walk over the
torus elements, and n_rss with `brute_regular_ss_class_count`.

GL_n is self-dual and w, w^{-1} are conjugate in S_n, so the dual-torus
regular count equals f_lambda; the general-position census checks that
equality by counting the free orbits of the Weyl centralizer C_W(w), given
by generators, on the character group with `matgroup.orbit_labels`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod

import numpy as np

from .cyclotomic import euler_phi, prime_factors
from .errors import ExactnessError
from .ffield import fq_poly_is_squarefree, is_prime_power
from .matgroup import conjugacy_classes, gl_group, mat_charpoly, orbit_labels
from .polynomials import IntPoly, RatFunc
from .weyl import _multiplicities, _prod_q_minus, cycle_centralizer_order, partitions

DEFAULT_TORUS_CAP = 10**6
MAX_CENSUS_CHARACTERS = 10**7


@dataclass(frozen=True)
class GLDescriptor:
    n: int
    q: int
    rank: int
    semisimple_rank: int
    center_order: int
    positive_root_count: int
    class_count: int

    @staticmethod
    def make(n: int, q: int) -> "GLDescriptor":
        if n < 1:
            raise ValueError("n must be positive")
        if is_prime_power(q) is None:
            raise ValueError(f"q = {q} is not a prime power")
        return GLDescriptor(
            n=n,
            q=q,
            rank=n,
            semisimple_rank=n - 1,
            center_order=q - 1,
            positive_root_count=n * (n - 1) // 2,
            class_count=class_count_poly(n).evaluate(q),
        )


@lru_cache(maxsize=None)
def class_count_poly(n: int) -> IntPoly:
    """|[GL_n(F_q)]| as a polynomial in q, from the generating function
    prod_j (1 - x^j) / (1 - q x^j)."""
    series: list[IntPoly] = [IntPoly((1,))] + [IntPoly(())] * n
    for j in range(1, n + 1):
        # multiply by sum_k q^k x^{jk}
        out = [IntPoly(())] * (n + 1)
        for deg in range(n + 1):
            if series[deg].is_zero():
                continue
            k = 0
            while deg + j * k <= n:
                out[deg + j * k] = out[deg + j * k] + series[deg] * IntPoly(
                    (0,) * k + (1,)
                )
                k += 1
        # multiply by (1 - x^j)
        for deg in range(n, j - 1, -1):
            out[deg] = out[deg] - out[deg - j]
        series = out
    return series[n]


@dataclass(frozen=True)
class TorusRecord:
    partition: tuple[int, ...]
    torus_order_poly: IntPoly
    torus_order: int
    weyl_centralizer: int  # c_lambda, the S_n centralizer of the cycle type
    regular_count: int  # f_lambda
    regular_class_count: int  # f_lambda / c_lambda


def _regular_element_count(partition: tuple[int, ...], q: int) -> int:
    """f_lambda, the number of regular elements of T_lambda^F =
    prod_i F_{q^{lambda_i}}^x, in closed form:

        f_lambda = prod_k prod_{j < m_k} (E_k - j k),

    where m_k is the number of parts of size k and
    E_k = sum_s (-1)^omega(s) (q^{k/s} - 1), over the squarefree divisors s
    of k, is the number of elements of F_{q^k}^x of degree exactly k over
    F_q (Moebius inversion of q^k - 1 = sum_{d | k} E_d).

    An element is regular when its n eigenvalues, the Frobenius conjugates
    of its entries, are distinct.  An entry of F_{q^k}^x has k distinct
    conjugates exactly when its degree is k; entries of different degree
    share no conjugate; and the j-th part of size k must avoid the j k
    conjugates of the earlier parts of that size.  E_k is a multiple of k,
    so the product reaches 0 before any factor turns negative.  A torus of
    more than DEFAULT_TORUS_CAP elements is refused; as T_(n)^F has q^n - 1
    elements, the cap also bounds n and so the number of partitions visited."""
    torus_size = prod(q**p - 1 for p in partition)
    if torus_size > DEFAULT_TORUS_CAP:
        raise ValueError(
            f"|T^F| = {torus_size} exceeds enumeration cap {DEFAULT_TORUS_CAP} "
            f"(lambda={partition}, q={q})"
        )
    count = 1
    for k, m in _multiplicities(partition).items():
        signed_divisors = [(1, 1)]
        for p in prime_factors(k):
            signed_divisors += [(s * p, -sign) for s, sign in signed_divisors]
        exact_degree = sum(sign * (q ** (k // s) - 1) for s, sign in signed_divisors)
        for j in range(m):
            count *= exact_degree - j * k
    return count


def torus_inventory(n: int, q: int) -> list[TorusRecord]:
    """One record per conjugacy class of maximal tori (partition of n)."""
    if is_prime_power(q) is None:
        raise ValueError(f"q = {q} is not a prime power")
    out = []
    for lam in partitions(n):
        poly = _prod_q_minus(lam)
        size = prod(q**p - 1 for p in lam)
        c = cycle_centralizer_order(lam)
        f = _regular_element_count(lam, q)
        if f % c != 0:
            raise ExactnessError(
                f"regular count {f} not divisible by centralizer {c} at {lam}"
            )
        if poly.evaluate(q) != size:
            raise ExactnessError(f"torus order polynomial disagrees with |T^F| at {lam}")
        out.append(
            TorusRecord(
                partition=lam,
                torus_order_poly=poly,
                torus_order=size,
                weyl_centralizer=c,
                regular_count=f,
                regular_class_count=f // c,
            )
        )
    return out


def regular_ss_class_count(n: int, q: int) -> int:
    """Number of regular semisimple conjugacy classes of GL_n(F_q), as
    sum_lambda f_lambda / c_lambda (`brute_regular_ss_class_count` counts
    them from the group)."""
    return sum(rec.regular_class_count for rec in torus_inventory(n, q))


def brute_regular_ss_class_count(n: int, q: int) -> int:
    """Count GL_n(F_q) classes whose representative has squarefree
    characteristic polynomial (equivalent to regular semisimple for GL_n)."""
    g = gl_group(n, q)
    cd = conjugacy_classes(g)
    F = g.field
    count = 0
    for rep in cd.class_reps:
        cp = mat_charpoly(F, n, g.element(rep))
        if fq_poly_is_squarefree(F, cp):
            count += 1
    return count


def general_position_characters(n: int, q: int) -> int:
    """sum_lambda prod_i (q^lambda_i - 1) over the partitions of n: the
    characters that `general_position_count` walks over every maximal torus
    of GL_n(F_q), as the x^n coefficient of prod_k 1 / (1 - (q^k - 1) x^k)."""
    series = [1] + [0] * n
    for k in range(1, n + 1):
        weight = q**k - 1
        for d in range(k, n + 1):
            series[d] += weight * series[d - k]
    return series[n]


def general_position_count(partition: tuple[int, ...], q: int, regular_count: int) -> int:
    """Number of C_W(w)-orbits of characters of T_lambda^F in general
    position (trivial stabilizer); checked equal to the regular class count
    f_lambda / c_lambda of the same torus (GL_n is self-dual), where
    f_lambda = `regular_count` is the count of a `TorusRecord`.

    The characters of T_lambda^F = prod_i Z/(q^{lambda_i} - 1) are numbered
    in mixed radix, and C_W(w) acts through its generators: one Frobenius
    twist a_i -> q a_i per factor and one swap per pair of adjacent equal
    parts.  By orbit-stabilizer the general-position characters are those
    whose `orbit_labels` orbit has the full size c_lambda."""
    partition = tuple(sorted(partition, reverse=True))
    moduli = [q**p - 1 for p in partition]
    torus_size = prod(moduli)
    if torus_size > DEFAULT_TORUS_CAP:
        raise ValueError(f"character census beyond cap at lambda={partition}, q={q}")
    chars = np.unravel_index(np.arange(torus_size), moduli)
    images = []
    for i, m in enumerate(moduli):
        images.append(chars[:i] + (chars[i] * q % m,) + chars[i + 1:])
        if i and partition[i - 1] == partition[i]:
            images.append(chars[:i - 1] + (chars[i], chars[i - 1]) + chars[i + 1:])
    perms = [np.ravel_multi_index(image, moduli) for image in images]
    sizes, counts = np.unique(np.bincount(orbit_labels(torus_size, perms)[1]), return_counts=True)
    c = cycle_centralizer_order(partition)  # a Python int: n! passes int64 at n = 21
    if any(c % s for s in sizes.tolist()):
        raise ExactnessError(f"an orbit size does not divide the centralizer order {c}")
    orbits = dict(zip(sizes.tolist(), counts.tolist())).get(c, 0)
    expected = regular_count // c
    if orbits != expected:
        raise ExactnessError(
            f"general-position orbit count {orbits} != regular class count "
            f"{expected} at lambda={partition}, q={q}"
        )
    return orbits


# -- closed-form zero-density expressions ------------------------------------


def gln_zero_ratio_formula(n: int, q: int) -> Fraction:
    """Evaluate the closed-form zero-density expression (n = 2 or 3 only)."""
    return gln_zero_ratio_ratfunc(n).evaluate(q)


def gln_zero_ratio_ratfunc(n: int) -> RatFunc:
    """The generic zero ratio of GL_n(F_q) as a rational function of q:
    (q^2 - 2q + 2) / (2 (q+1)^2) for n = 2 and
    (11 q^4 - 2 q^3 + 14 q^2 - 45 q - 18) / (18 q^2 (q+1)^2) for n = 3."""
    q_plus_one_sq = IntPoly((1, 1)) * IntPoly((1, 1))
    if n == 2:
        return RatFunc(IntPoly((2, -2, 1)), 2 * q_plus_one_sq)
    if n == 3:
        return RatFunc(IntPoly((-18, -45, 14, -2, 11)), 18 * IntPoly((0, 0, 1)) * q_plus_one_sq)
    raise ValueError("closed-form zero ratios are available for n = 2 and 3 only")


def _order_two_pairs(m: int) -> int:
    """#{(psi, x) : psi(x) = -1} over the characters psi and elements x of a
    cyclic group of order m.  An x of order d takes each d-th root of unity
    under m/d characters, and -1 is one of them only for even d, so the count
    is sum_{d | m, d even} phi(d) m/d = m S(m)."""
    return sum(euler_phi(d) * (m // d) for d in range(2, m + 1, 2) if m % d == 0)


def gl2_zero_count(q: int) -> int:
    """The number of zero entries in the character table of GL_2(F_q):

        Z(q) = (q-1)^2 (q^2-2q+2)/2 + (q-1)^3/4 S(q-1) + (q-1)(q^2-1)/4 S(q+1),

    where S(N) = sum_{d | N, d even} phi(d)/d.

    Derivation, over the textbook families (q^2 - 1 classes: q - 1 central,
    q - 1 non-semisimple, (q-1)(q-2)/2 split {a, b}, q(q-1)/2 elliptic
    {t, t^q}).  The q - 1 linear characters never vanish.  The q - 1
    Steinberg twists vanish exactly on the q - 1 non-semisimple classes.  A
    principal series character {theta_1, theta_2} (degree q + 1) vanishes on
    every elliptic class, and a cuspidal character phi (degree q - 1) on
    every split class; these give (q-1)^2 + q(q-1)^2(q-2)/2, the first term.
    No other value is forced to vanish: on central and non-semisimple
    classes, and for the linear and Steinberg characters on semisimple ones,
    every value is a root of unity times a nonzero integer.  The remaining
    zeros are sums of two roots of unity that cancel:

    - principal series on a split class: theta_1(a) theta_2(b) +
      theta_1(b) theta_2(a) = 0 iff psi(x) = -1 for psi = theta_1/theta_2
      and x = a/b in the cyclic group F_q^x of order q - 1.  Each (psi, x)
      with psi(x) = -1 comes from (q-1)^2 choices of (theta_2, b) and each
      unordered pair of pairs from 4 ordered ones, giving
      (q-1)^2/4 (q-1) S(q-1);
    - cuspidal on an elliptic class: -(phi(t) + phi(t^q)) = 0 iff
      psi(u) = -1 for u = t^(q-1) and psi = phi restricted to the norm-one
      group of order q + 1, onto which t -> t^(q-1) maps with kernel F_q^x.
      Again (q-1)^2 choices lie over each (psi, u) and 4 ordered pairs over
      each unordered one, giving (q-1)^2/4 (q+1) S(q+1).

    Both extra terms need psi(x) = -1, an element of order 2 in the image
    of a character, so they vanish when the cyclic group has odd order: S(N)
    = 0 for odd N, which is why the extra terms are absent for even q.  N S(N)
    is counted by `_order_two_pairs`, so Z(q) is computed in integers."""
    if is_prime_power(q) is None:
        raise ValueError(f"q = {q} is not a prime power")
    extra = (q - 1) ** 2 * (_order_two_pairs(q - 1) + _order_two_pairs(q + 1))
    if extra % 4:
        raise ExactnessError(f"the cancelling pairs of GL_2(F_{q}) do not come in fours")
    return (q - 1) ** 2 * (q * q - 2 * q + 2) // 2 + extra // 4
