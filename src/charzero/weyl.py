"""Conjugacy-class statistics of Weyl groups.

Classical types use cycle-type combinatorics: type A classes are partitions
of rank+1; types B/C are pairs of partitions (positive / negative cycles);
type D restricts to an even number of negative cycles, with the classes
whose cycles are all positive and even split in two.  G2, F4 and E6 are
enumerated as integer matrix groups generated by the simple reflections in
the root basis, as int8 stacks a breadth-first level at a time; their
classes are the `orbit_labels` of conjugation by the reflections (E7/E8 are
rejected: their orders exceed the desk budget).

A simple reflection is s_i = Id + e_i a_i^T, so a right product
w s_i = w + w[:, i] a_i^T and a conjugate s_i w s_i are rank-one updates,
formed in a wider integer type and checked to stay in the int8 range.  An
element w is keyed by one int64, the image w(rho) of the integer vector rho
(<rho, alpha_i^vee> = 1 for every simple coroot) packed as balanced digits.
rho is regular, so its stabiliser in W is trivial and w -> w(rho) is
injective; the closure keeps one element per key, so any collision would
merge two elements and show as a closure smaller than |W|, which is checked.

The characteristic polynomial det(q*Id - w) attached to each class is the
order polynomial of the corresponding twisted maximal torus (computed by
Faddeev-LeVerrier for the exceptional types).  Type A supports both the
rank+1 permutation lattice (the GL convention, default) and the rank-sized
reflection lattice.

The streaming sums of 1/|centralizer|^k stay exact up to rank 60 without
materializing class records: each is a coefficient of, or a convolution of,
generating series over partitions, one cached series per (power, base
factor, sign, even parts only) serving every rank up to its length.  The
series are kept in integers, as sums of (class size)^k, so each sum read
is one `Fraction` with denominator (b^n n!)^k for base factor b.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

import numpy as np

from .errors import ExactnessError
from .matgroup import SortedKeys, closure_levels, orbit_labels
from .polynomials import IntPoly

CLASSICAL_TYPES = ("A", "B", "C", "D")
EXCEPTIONAL_ORDERS = {"G2": 12, "F4": 1152, "E6": 51840}
DEFAULT_RANK_CAP = 60


def partitions(n: int, max_part: int | None = None):
    """Partitions of n as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def cycle_centralizer_order(lam: tuple[int, ...]) -> int:
    """|C_{S_n}(w)| for w of cycle type lam: prod i^{m_i} m_i!."""
    out = 1
    for part, mult in _multiplicities(lam).items():
        out *= part**mult * factorial(mult)
    return out


def signed_cycle_factor(lam: tuple[int, ...]) -> int:
    """prod (2i)^{m_i} m_i!, the hyperoctahedral centralizer contribution
    of one sign-class of cycles: 2^(number of cycles) * z_lam."""
    return 2 ** len(lam) * cycle_centralizer_order(lam)


def _multiplicities(lam: tuple[int, ...]) -> dict[int, int]:
    out: dict[int, int] = {}
    for p in lam:
        out[p] = out.get(p, 0) + 1
    return out


def _prod_q_minus(lam) -> IntPoly:
    out = IntPoly((1,))
    for p in lam:
        out = out * IntPoly.x_pow_minus_one(p)
    return out


def _prod_q_plus(mu) -> IntPoly:
    out = IntPoly((1,))
    for p in mu:
        out = out * IntPoly.x_pow_plus_one(p)
    return out


@dataclass(frozen=True)
class WeylClass:
    label: str
    class_size: int
    centralizer_order: int
    char_poly: IntPoly


@dataclass(frozen=True)
class WeylClassTable:
    cartan_type: str
    rank: int
    lattice_rank: int
    group_order: int
    classes: tuple[WeylClass, ...]

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def class_by_label(self, label: str) -> WeylClass:
        for c in self.classes:
            if c.label == label:
                return c
        raise KeyError(f"no class labelled {label!r}")

    def sum_inv_c(self) -> Fraction:
        return sum((Fraction(1, c.centralizer_order) for c in self.classes), Fraction(0))

    def sum_inv_c_sq(self) -> Fraction:
        return sum(
            (Fraction(1, c.centralizer_order**2) for c in self.classes), Fraction(0)
        )


def _check_table(t: WeylClassTable) -> WeylClassTable:
    total = sum(c.class_size for c in t.classes)
    if total != t.group_order:
        raise ExactnessError(f"class sizes sum to {total}, not |W| = {t.group_order}")
    for c in t.classes:
        if c.class_size * c.centralizer_order != t.group_order:
            raise ExactnessError(f"orbit-stabilizer failure at class {c.label}")
        if c.char_poly.degree != t.lattice_rank or not c.char_poly.is_monic():
            raise ExactnessError(f"torus polynomial of {c.label} is not monic of rank")
        if c.char_poly.evaluate(1) < 0:
            raise ExactnessError(f"torus polynomial of {c.label} negative at 1")
    if t.sum_inv_c() != 1:
        raise ExactnessError("sum of 1/centralizer over classes is not 1")
    return t


# -- classical types ---------------------------------------------------------


def _table_a(rank: int, lattice: str) -> WeylClassTable:
    n = rank + 1
    order = factorial(n)
    lattice_rank = n if lattice == "permutation" else rank
    classes = []
    for lam in partitions(n):
        c = cycle_centralizer_order(lam)
        poly = _prod_q_minus(lam)
        if lattice == "reflection":
            poly = poly // IntPoly.x_pow_minus_one(1)
        classes.append(
            WeylClass("+".join(map(str, lam)), order // c, c, poly)
        )
    return WeylClassTable("A", rank, lattice_rank, order, tuple(classes))


def _signed_pair_label(lam, mu) -> str:
    left = "+".join(map(str, lam)) if lam else "-"
    right = "+".join(map(str, mu)) if mu else "-"
    return f"[{left}|{right}]"


def _table_bc(cartan_type: str, rank: int) -> WeylClassTable:
    order = 2**rank * factorial(rank)
    classes = []
    for k in range(rank + 1):
        for lam in partitions(k):
            zl = signed_cycle_factor(lam)
            for mu in partitions(rank - k):
                c = zl * signed_cycle_factor(mu)
                poly = _prod_q_minus(lam) * _prod_q_plus(mu)
                classes.append(
                    WeylClass(_signed_pair_label(lam, mu), order // c, c, poly)
                )
    return WeylClassTable(cartan_type, rank, rank, order, tuple(classes))


def _table_d(rank: int) -> WeylClassTable:
    order = 2 ** (rank - 1) * factorial(rank)
    classes = []
    for k in range(rank + 1):
        for lam in partitions(k):
            zl = signed_cycle_factor(lam)
            for mu in partitions(rank - k):
                if len(mu) % 2 != 0:
                    continue
                c_b = zl * signed_cycle_factor(mu)
                poly = _prod_q_minus(lam) * _prod_q_plus(mu)
                label = _signed_pair_label(lam, mu)
                if not mu and all(p % 2 == 0 for p in lam):
                    # centralizer lies inside W(D): the hyperoctahedral class
                    # splits into two classes of equal size
                    for tag in ("a", "b"):
                        classes.append(
                            WeylClass(label + tag, order // c_b, c_b, poly)
                        )
                else:
                    classes.append(
                        WeylClass(label, 2 * order // c_b, c_b // 2, poly)
                    )
    return WeylClassTable("D", rank, rank, order, tuple(classes))


# -- exceptional types -------------------------------------------------------

_CARTAN = {
    "G2": [[2, -1], [-3, 2]],
    "F4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]],
    # nodes 0-1-2-3-4 in a chain, node 5 attached to node 2
    "E6": [
        [2, -1, 0, 0, 0, 0],
        [-1, 2, -1, 0, 0, 0],
        [0, -1, 2, -1, 0, -1],
        [0, 0, -1, 2, -1, 0],
        [0, 0, 0, -1, 2, 0],
        [0, 0, -1, 0, 0, 2],
    ],
}


def _narrow(wide: np.ndarray) -> np.ndarray:
    """The int8 copy of an integer array; raises if an entry leaves the
    int8 range."""
    if wide.size and (wide.min() < -128 or wide.max() > 127):
        raise ExactnessError("a Weyl group product has entries beyond the int8 range")
    return wide.astype(np.int8)


def _times_reflection(w: np.ndarray, i: int, a: np.ndarray) -> np.ndarray:
    """w s_i over an int8 stack, for s_i = Id + e_i a^T: the rank-one update
    w + w[:, i] a^T, which changes only the columns where a is nonzero.  Each
    new column is formed in int16, exact for int8 entries."""
    out = w.copy()
    pivot = w[:, :, i].astype(np.int16)
    for j in np.flatnonzero(a):
        out[:, :, j] = _narrow(w[:, :, j] + pivot * a[j])
    return out


def _conjugate_by_reflection(w: np.ndarray, i: int, a: np.ndarray) -> np.ndarray:
    """s_i w s_i over an int8 stack: u = w s_i, then s_i u = u + e_i (a^T u),
    which changes only row i; the row is summed in int32."""
    out = _times_reflection(w, i, a)
    row = out[:, i].astype(np.int32)
    for j in np.flatnonzero(a):
        row += out[:, j] * np.int32(a[j])
    out[:, i] = _narrow(row)
    return out


def _reflection_row(s: np.ndarray, i: int) -> np.ndarray:
    """The a with s = Id + e_i a^T for a simple reflection s, which differs
    from the identity in row i only, in int16."""
    a = s[i].astype(np.int16)
    a[i] -= 1
    return a


def _simple_reflections(cartan: list[list[int]]) -> list[np.ndarray]:
    """Simple reflections in the root basis, in int8; each is checked to be
    an involution, so it serves as its own inverse under conjugation."""
    r = len(cartan)
    mats = []
    for i in range(r):
        m = np.eye(r, dtype=np.int8)
        for j in range(r):
            m[i, j] = (1 if i == j else 0) - cartan[j][i]
        if not np.array_equal(_times_reflection(m[None], i, _reflection_row(m, i))[0],
                              np.eye(r, dtype=np.int8)):
            raise ExactnessError(f"simple reflection s_{i} is not an involution")
        mats.append(m)
    return mats


def _regular_vector(cartan: list[list[int]]) -> tuple[int, ...]:
    """rho in root coordinates, scaled to integers: the solution of
    <rho, alpha_i^vee> = sum_j rho_j cartan[j][i] = 1 for every i, by exact
    Gauss-Jordan elimination.  rho pairs positively with every simple coroot,
    so it lies inside the fundamental chamber and its stabiliser in W is
    trivial."""
    r = len(cartan)
    rows = [[Fraction(cartan[j][i]) for j in range(r)] + [Fraction(1)] for i in range(r)]
    for c in range(r):
        pivot = next((k for k in range(c, r) if rows[k][c]), None)
        if pivot is None:
            raise ExactnessError("the Cartan matrix is singular")
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for k in range(r):
            if k != c and (f := rows[k][c]):
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[c])]
    rho = [row[-1] for row in rows]
    scale = lcm(*(x.denominator for x in rho))
    return tuple(int(x * scale) for x in rho)


def _key_radix(v: tuple[int, ...]) -> int:
    """The radix whose balanced digits pack w(v) into one int64.

    For dominant v every coordinate of w(v) lies in [-max v, max v] (v - w(v)
    and w(v) - w_0(v) are sums of positive roots), so the balanced digits in
    radix 2 max(v) + 1 are injective on the orbit W v."""
    radix = 2 * max(abs(x) for x in v) + 1
    if radix ** len(v) >= 2**63:
        raise ExactnessError("the Weyl group keys do not fit in int64")
    return radix


def _keys(mats: np.ndarray, v: np.ndarray, radix: int) -> np.ndarray:
    """One int64 key per matrix of an (N, r, r) integer stack: the image
    w(v), summed column by column in int64, read as balanced digits in
    `radix`."""
    image = np.zeros(mats.shape[:2], dtype=np.int64)
    for col, x in zip(np.moveaxis(mats, 2, 0), v):
        image += col * x
    key = image[:, -1].copy()
    for digit in image[:, -2::-1].T:
        key *= radix
        key += digit
    return key


def charpoly_int(m: np.ndarray) -> IntPoly:
    """det(q*Id - m) by Faddeev-LeVerrier over Python ints: with M_1 = Id,
    c_{n-k} = -tr(m M_k)/k and M_{k+1} = m M_k + c_{n-k} Id.  Every
    division is checked to be exact."""
    a = m.tolist()
    n = len(a)
    coeffs = [0] * n + [1]
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        mk = [[sum(a[i][l] * mk[l][j] for l in range(n)) for j in range(n)]
              for i in range(n)]
        trace = sum(mk[i][i] for i in range(n))
        if trace % k:
            raise ExactnessError(f"Faddeev-LeVerrier trace {trace} is not divisible by {k}")
        coeffs[n - k] = -trace // k
        for i in range(n):
            mk[i][i] += coeffs[n - k]
    return IntPoly(tuple(coeffs))


def _table_exceptional(cartan_type: str) -> WeylClassTable:
    """W as an int8 stack in breadth-first order from the identity (each
    level's right products taken generator by generator), and its classes
    as the orbits of conjugation by the simple reflections, numbered by
    least element index."""
    cartan = _CARTAN[cartan_type]
    rank = len(cartan)
    rows = [_reflection_row(g, i) for i, g in enumerate(_simple_reflections(cartan))]
    v = _regular_vector(cartan)
    radix = _key_radix(v)
    v = np.array(v, dtype=np.int64)

    def keys(stack: np.ndarray) -> np.ndarray:
        return _keys(stack, v, radix)

    def right_products(level: np.ndarray) -> np.ndarray:
        return np.concatenate([_times_reflection(level, i, a) for i, a in enumerate(rows)])

    elements = np.concatenate(list(closure_levels(np.eye(rank, dtype=np.int8)[None],
                                                  right_products, keys)))
    order = len(elements)
    # distinct elements carry distinct keys here, so a key shared by two
    # elements of W would merge them and shrink the closure
    if order != EXCEPTIONAL_ORDERS[cartan_type]:
        raise ExactnessError(
            f"W({cartan_type}) closure has order {order}, "
            f"expected {EXCEPTIONAL_ORDERS[cartan_type]}"
        )
    index = SortedKeys(keys(elements))
    # each generator is an involution, so s_i w s_i is the conjugate
    conjugations = [index.index_of(keys(_conjugate_by_reflection(elements, i, a)),
                                   f"W({cartan_type}) is not closed under conjugation")
                    for i, a in enumerate(rows)]
    reps, class_of = orbit_labels(order, conjugations)
    sizes = np.bincount(class_of).tolist()
    classes = [WeylClass(f"c{cls}", size, order // size, charpoly_int(elements[rep]))
               for cls, (rep, size) in enumerate(zip(reps.tolist(), sizes))]
    return WeylClassTable(cartan_type, rank, rank, order, tuple(classes))


# -- public construction -----------------------------------------------------


@lru_cache(maxsize=64)
def weyl_classes(cartan_type: str, rank: int | None = None, lattice: str = "permutation",
                 rank_cap: int = DEFAULT_RANK_CAP) -> WeylClassTable:
    """Complete class table for W(type_rank).

    `lattice` applies to type A only: "permutation" (rank+1 lattice, the
    GL convention) or "reflection" (rank-dimensional).
    """
    cartan_type = cartan_type.upper() if len(cartan_type) == 1 else cartan_type
    if cartan_type in ("E7", "E8"):
        raise ValueError(f"{cartan_type} is out of budget (|W(E8)| ~ 7e8); not supported")
    if cartan_type in EXCEPTIONAL_ORDERS:
        implied = len(_CARTAN[cartan_type])
        if rank not in (implied, None):
            raise ValueError(f"{cartan_type} has rank {implied}")
        return _check_table(_table_exceptional(cartan_type))
    if cartan_type not in CLASSICAL_TYPES:
        raise ValueError(f"unknown Cartan type {cartan_type!r}")
    if rank is None:
        raise ValueError("classical types need an explicit rank")
    if rank > rank_cap:
        raise ValueError(f"rank {rank} exceeds cap {rank_cap}")
    if cartan_type == "A":
        if rank < 1:
            raise ValueError("type A needs rank >= 1")
        if lattice not in ("permutation", "reflection"):
            raise ValueError("lattice must be 'permutation' or 'reflection'")
        return _check_table(_table_a(rank, lattice))
    if cartan_type in ("B", "C"):
        if rank < 2:
            raise ValueError("types B/C need rank >= 2")
        return _check_table(_table_bc(cartan_type, rank))
    if rank < 4:
        raise ValueError("type D needs rank >= 4")
    return _check_table(_table_d(rank))


def conjugacy_probability(t: WeylClassTable) -> Fraction:
    """Probability two uniform elements of W are conjugate: sum 1/c_i^2."""
    return t.sum_inv_c_sq()


def torus_order_poly(t: WeylClassTable, label: str) -> IntPoly:
    """det(q*Id - w) for the class representative: the twisted torus order."""
    return t.class_by_label(label).char_poly


# -- streaming sums (no table materialization) -------------------------------


# (power, base factor, sign, even parts only) -> the integer series to the
# longest order asked for so far; no coefficient depends on the truncation order
_SERIES: dict[tuple[int, int, int, bool], tuple[int, ...]] = {}


def _zsum_series(n: int, power: int, base_factor: int, sign: int,
                 even_parts_only: bool) -> tuple[int, ...]:
    """The integers T_d = (b^d d!)^k S_d for d <= n at least, where b is the
    base factor, k the power and S_d the x^d coefficient of
    prod_i sum_m (sign^m x^{im}) / ((b*i)^m m!)^k over the parts i (even ones
    only when asked).  S_d is a centralizer-reciprocal sum over partitions
    lam of d, so T_d is the sum of sign^len(lam) (b^(d - len(lam)) d!/z_lam)^k:
    a sum of (class size)^k, an integer.

    Multiplying S by the factor of part i becomes, on T,
    T_d += sum_{m>=1} sign^m (b^{m(i-1)} C(d, im) (im)!/(i^m m!))^k T_{d-im},
    where C(d, im) (im)!/(i^m m!) counts the ways to choose m disjoint
    i-cycles among d points."""
    key = (power, base_factor, sign, even_parts_only)
    cached = _SERIES.get(key)
    if cached is not None and len(cached) > n:
        return cached
    binomials = [[comb(d, j) ** power for j in range(d + 1)] for d in range(n + 1)]
    series = [1] + [0] * n
    step = 2 if even_parts_only else 1
    for i in range(step, n + 1, step):
        cycles = [sign**m * (base_factor ** (m * (i - 1)) * factorial(i * m)
                             // (i**m * factorial(m))) ** power
                  for m in range(n // i + 1)]
        # multiply in place, top down, so every coefficient read is still old
        for d in range(n, i - 1, -1):
            row = binomials[d]
            series[d] += sum(row[i * m] * cycles[m] * series[d - i * m]
                             for m in range(1, d // i + 1))
    _SERIES[key] = cached = tuple(series)
    return cached


def _sym_inv_pows(n: int, power: int) -> Fraction:
    """sum over partitions of n of 1/(prod i^m_i m_i!)^power."""
    return Fraction(_zsum_series(n, power, 1, 1, False)[n], factorial(n) ** power)


def _sum_inv_c_pow_stream(cartan_type: str, rank: int, k: int) -> Fraction:
    """sum 1/c_i^k over W(type_rank) without building the class table.

    With s_j the sum of 1/signed_cycle_factor^k over partitions of j and a_j
    the same sum signed by (-1)^(number of parts), a B/C class is a pair of
    partitions (lam, mu) of j and rank - j, so the sum is the x^rank
    coefficient of S*S; type D keeps the mu with evenly many parts, whose
    sum is (s + a)/2.  The code holds the integers (2^j j!)^k s_j and
    (2^j j!)^k a_j from `_zsum_series`; as (2^r r!)^k / (2^j j! 2^(r-j) (r-j)!)^k
    = C(r, j)^k, each sum is one integer over (2^rank rank!)^k."""
    cartan_type = cartan_type.upper()
    if cartan_type == "A":
        return _sym_inv_pows(rank + 1, k)
    if cartan_type not in ("B", "C", "D"):
        raise ValueError(f"streaming sums support classical types only, not {cartan_type!r}")
    s = _zsum_series(rank, k, 2, 1, False)
    denominator = (2**rank * factorial(rank)) ** k
    if cartan_type in ("B", "C"):
        return Fraction(sum(comb(rank, j) ** k * s[j] * s[rank - j] for j in range(rank + 1)),
                        denominator)
    a = _zsum_series(rank, k, 2, -1, False)
    base = sum(comb(rank, j) ** k * s[j] * (s[rank - j] + a[rank - j])
               for j in range(rank + 1))
    # split classes: mu empty, lam all even; odd ranks have none
    even = _zsum_series(rank, k, 2, 1, True)[rank] if rank % 2 == 0 else 0
    # non-split classes contribute (2/c_B)^k, every split pair 2/c_B^k
    return Fraction(2**k * base - 2 * (2**k - 2) * even, 2 * denominator)


def sum_inv_c_sq_stream(cartan_type: str, rank: int) -> Fraction:
    """sum 1/c_i^2 over W(type_rank) without building the class table."""
    return _sum_inv_c_pow_stream(cartan_type, rank, 2)


def sum_inv_c_stream(cartan_type: str, rank: int) -> Fraction:
    """sum 1/c_i over W(type_rank) without building the class table."""
    return _sum_inv_c_pow_stream(cartan_type, rank, 1)


@dataclass(frozen=True)
class ConjugacyBoundCheck:
    cartan_type: str
    rank: int
    probability: Fraction
    bound: Fraction
    passes: bool


def bbw_bound_check(cartan_type: str, rank: int) -> ConjugacyBoundCheck:
    """Check sum 1/c_i^2 <= 6/rank^2 (valid for simple classical types of
    rank >= 9, after Blackburn-Britnell-Wildon)."""
    cartan_type = cartan_type.upper()
    if cartan_type not in CLASSICAL_TYPES:
        raise ValueError("bound check applies to classical types")
    if rank < 9:
        raise ValueError("bound check requires rank >= 9")
    prob = sum_inv_c_sq_stream(cartan_type, rank)
    bound = Fraction(6, rank * rank)
    return ConjugacyBoundCheck(cartan_type, rank, prob, bound, prob <= bound)
