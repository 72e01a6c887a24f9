"""Conjugacy-class statistics of Weyl groups.

Classical types use cycle-type combinatorics: type A classes are partitions
of rank+1; types B/C are pairs of partitions (positive / negative cycles);
type D restricts to an even number of negative cycles, with the classes
whose cycles are all positive and even split in two.  G2, F4 and E6 are
enumerated as the orbit W rho of the integer vector rho in root coordinates
(<rho, alpha_i^vee> = 1 for every simple coroot), with no matrices; their
classes are the `orbit_labels` of conjugation by the simple reflections
(E7/E8 are rejected: their orders exceed the desk budget).

rho is regular, so its stabiliser in W is trivial and w -> w(rho) is a
bijection from W onto the orbit, which is generated level by level, each
element once from its least left descent, and checked to have |W|
elements.  A left product s_i w changes one coordinate of w(rho), in int8,
and is looked up by its key (balanced digits in one int64), a key shared by
two elements being refused; a right product w s_i follows from the left
products by the word recurrence, and a class representative's matrix from
the vectors of its right products.

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
from math import comb, factorial, gcd

import numpy as np

from .errors import ExactnessError
from .matgroup import orbit_labels
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


def _regular_vector(cartan: list[list[int]]) -> tuple[int, ...]:
    """rho in root coordinates, scaled to integers: the solution of
    <rho, alpha_i^vee> = sum_j rho_j cartan[j][i] = 1 for every i.  rho pairs
    positively with every simple coroot, so it lies inside the fundamental
    chamber and its stabiliser in W is trivial.

    Fraction-free (Bareiss) Gauss-Jordan elimination over the integers: each
    step takes row k to (pivot * row_k - row_k[c] * row_c) / previous pivot,
    a division that is exact in theory and checked here.  It ends with every
    diagonal entry det, so rho_j = b_j / det, and the integer vector is b
    divided by gcd(b, det), with the sign of det."""
    r = len(cartan)
    rows = [[cartan[j][i] for j in range(r)] + [1] for i in range(r)]
    previous = 1
    for c in range(r):
        pivot = next((k for k in range(c, r) if rows[k][c]), None)
        if pivot is None:
            raise ExactnessError("the Cartan matrix is singular")
        rows[c], rows[pivot] = rows[pivot], rows[c]
        p = rows[c][c]
        for k in range(r):
            if k != c:
                f = rows[k][c]
                reduced = [divmod(p * x - f * y, previous) for x, y in zip(rows[k], rows[c])]
                if any(rest for _, rest in reduced):
                    raise ExactnessError("a fraction-free elimination step is not exact")
                rows[k] = [x for x, _ in reduced]
        previous = p
    b = [row[-1] for row in rows]
    scale = gcd(*b, previous) * (1 if previous > 0 else -1)
    return tuple(x // scale for x in b)


def _key_radix(v: tuple[int, ...]) -> int:
    """The radix whose balanced digits pack w(v) into one int64.

    For dominant v every coordinate of w(v) lies in [-max v, max v] (v - w(v)
    and w(v) - w_0(v) are sums of positive roots), so the balanced digits in
    radix 2 max(v) + 1 are injective on the orbit W v."""
    radix = 2 * max(abs(x) for x in v) + 1
    if radix ** len(v) >= 2**63:
        raise ExactnessError("the Weyl group keys do not fit in int64")
    return radix


class SortedKeys:
    """Positions of distinct int64 keys in a fixed 1-D array, by one argsort
    and binary search; a repeated key raises `ExactnessError`, as it would
    stand for two elements."""

    def __init__(self, keys: np.ndarray):
        self._by_key = np.argsort(keys)
        self._sorted = keys[self._by_key]
        repeated = self._sorted[1:] == self._sorted[:-1]
        if repeated.any():
            raise ExactnessError(f"the key {self._sorted[repeated.argmax()]} occurs twice")

    def index_of(self, wanted: np.ndarray, missing: str) -> np.ndarray:
        """Positions of a 1-D array of keys; raises `ExactnessError(missing)`
        if one is absent.  The keys are searched in sorted order, which
        `np.searchsorted` serves about three times faster than random order."""
        order = np.argsort(wanted)
        keys = wanted[order]
        pos = np.minimum(np.searchsorted(self._sorted, keys), len(self._sorted) - 1)
        if not np.array_equal(self._sorted[pos], keys):
            raise ExactnessError(missing)
        out = np.empty_like(pos)
        out[order] = self._by_key[pos]
        return out


def charpoly_int(m: np.ndarray) -> IntPoly:
    """det(q*Id - m) by Faddeev-LeVerrier over Python ints (object arrays):
    with M_1 = Id, c_{n-k} = -tr(m M_k)/k and M_{k+1} = m M_k + c_{n-k} Id.
    Every division is checked to be exact."""
    a = np.array(m.tolist(), dtype=object)
    n = len(a)
    coeffs = [0] * n + [1]
    mk = np.eye(n, dtype=object)
    diagonal = np.diag_indices(n)
    for k in range(1, n + 1):
        mk = a @ mk
        trace = mk.trace()
        if trace % k:
            raise ExactnessError(f"Faddeev-LeVerrier trace {trace} is not divisible by {k}")
        coeffs[n - k] = -trace // k
        mk[diagonal] += coeffs[n - k]
    return IntPoly(tuple(coeffs))


def _regular_orbit(cartan_type: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """W as the orbit W rho: element w is the int8 vector x_w = w(rho), level
    by level in length, with `left[i, w]` and `right[i, w]` the int32
    indices of s_i w and w s_i.

    s_i x = x - <x, alpha_i^vee> alpha_i changes coordinate i only, and lies
    one level up iff the pairing <x, alpha_i^vee> is positive.  Each element
    y above rho is generated once, from its parent s_j y for j the least
    index with <y, alpha_j^vee> < 0 (its least left descent), so no key is
    looked up while the orbit grows.  Taking the generators in order, each
    over the level in order, lists every level as a breadth-first closure
    would: y first occurs as a product at its least descent.  The pairings
    are carried with the vectors, s_i changing them by
    -<x, alpha_i^vee> cartan[i].  Every coordinate is checked to stay
    within the dominance bound max|rho| of `_key_radix`, and the element
    count within |W|, which also stops the generation of a Cartan matrix
    whose group is infinite."""
    cartan = np.array(_CARTAN[cartan_type], dtype=np.int64)
    rank = len(cartan)
    rho = _regular_vector(_CARTAN[cartan_type])
    bound = max(map(abs, rho))
    if bound > np.iinfo(np.int8).max:
        raise ExactnessError(f"rho has an entry of size {bound}, beyond the int8 range")
    powers = _key_radix(rho) ** np.arange(rank, dtype=np.int64)
    expected = EXCEPTIONAL_ORDERS[cartan_type]

    level = np.array([rho], dtype=np.int8)
    pairings = level @ cartan
    levels, order = [], 0
    while len(level):
        levels.append(level)
        order += len(level)
        if order > expected:
            raise ExactnessError(f"W({cartan_type}) closure has order above {expected}")
        # the rising products s_i x, generator-major, and their pairings
        gen, parent = np.divmod(np.flatnonzero(pairings.T > 0), len(level))
        step = pairings.take(parent * rank + gen)
        moved = pairings.take(parent, axis=0) - step[:, None] * cartan.take(gen, axis=0)
        # <s_i x, alpha_i^vee> = -step < 0, so i is a descent; keep the least
        keep = np.flatnonzero((moved < 0).argmax(axis=1) == gen)
        gen, step, pairings = gen.take(keep), step.take(keep), moved.take(keep, axis=0)
        level = level.take(parent.take(keep), axis=0)
        flat, at = level.reshape(-1), np.arange(len(level)) * rank + gen
        coordinate = flat.take(at) - step
        if np.abs(coordinate).max(initial=0) > bound:
            raise ExactnessError(
                f"W({cartan_type}) moves rho beyond the dominance bound {bound}")
        flat[at] = coordinate
    x = np.concatenate(levels)
    # a non-regular rho has a smaller orbit
    if order != expected:
        raise ExactnessError(
            f"W({cartan_type}) closure has order {order}, expected {expected}")
    keys = x @ powers
    index = SortedKeys(keys)
    left = np.empty((rank, order), dtype=np.int32)
    for i, (column, power) in enumerate(zip(cartan.T, powers)):
        left[i] = index.index_of(keys - (x @ column) * power,
                                 f"W({cartan_type}) is not closed under s_{i}")
    right = _right_permutations(left, np.cumsum([0] + [len(lv) for lv in levels]).tolist())
    identity = np.arange(order)
    for side, perms in (("left", left), ("right", right)):
        for i, p in enumerate(perms):
            if not np.array_equal(p[p], identity):
                raise ExactnessError(
                    f"the {side} product by s_{i} in W({cartan_type}) is not an involution")
    return x, left, right


def _right_permutations(left: np.ndarray, starts: list[int]) -> np.ndarray:
    """right[i, w], the index of w s_i, level by level from the left
    products: an element w of breadth-first level L > 0 is s_a w' for some a
    with w' = s_a w on level L - 1, and then w s_i = s_a (w' s_i).  Element 0
    is the identity, where w s_i = s_i w; `starts` are the level offsets."""
    right = np.empty_like(left)
    right[:, 0] = left[:, 0]
    for lo, hi in zip(starts[1:], starts[2:]):
        a = (left[:, lo:hi] < lo).argmax(axis=0)
        lower = left[a, np.arange(lo, hi)]
        right[:, lo:hi] = left[a, right[:, lower]]
    return right


def _matrices(x: np.ndarray, right: np.ndarray, ws: np.ndarray,
              cartan: np.ndarray) -> np.ndarray:
    """The root-basis matrices of the elements `ws`: as rho - s_j rho =
    <rho, alpha_j^vee> alpha_j, column j of w is (x_w - x_{w s_j}) divided
    by that pairing, which is checked to be exact, and w rho = x_w is
    checked.  Element 0 is the identity, so x_0 = rho."""
    rho = x[0].astype(np.int64)
    pairing = rho @ cartan
    images = x[ws].astype(np.int64)
    columns = images[:, None, :] - x[right[:, ws].T]
    if (columns % pairing[:, None]).any():
        raise ExactnessError("a Weyl group matrix column is not integral")
    mats = (columns // pairing[:, None]).transpose(0, 2, 1)
    if not np.array_equal(mats @ rho, images):
        raise ExactnessError("a rebuilt Weyl group matrix does not map rho to its orbit vector")
    return mats


def _table_exceptional(cartan_type: str) -> WeylClassTable:
    """W as its regular orbit (`_regular_orbit`), and its classes as the
    orbits of conjugation by the simple reflections, s_i w s_i being
    `right[i][left[i]]`, numbered by least element index; each class's
    torus polynomial is read off its representative's matrix."""
    x, left, right = _regular_orbit(cartan_type)
    order, rank = x.shape
    reps, class_of = orbit_labels(order, [r[lt] for lt, r in zip(left, right)])
    sizes = np.bincount(class_of).tolist()
    mats = _matrices(x, right, reps, np.array(_CARTAN[cartan_type], dtype=np.int64))
    classes = [WeylClass(f"c{cls}", size, order // size, charpoly_int(m))
               for cls, (m, size) in enumerate(zip(mats, sizes))]
    return WeylClassTable(cartan_type, rank, rank, order, tuple(classes))


# -- public construction -----------------------------------------------------


@lru_cache(maxsize=64)
def weyl_classes(cartan_type: str, rank: int | None = None,
                 lattice: str = "permutation") -> WeylClassTable:
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
    if rank > DEFAULT_RANK_CAP:
        raise ValueError(f"rank {rank} exceeds cap {DEFAULT_RANK_CAP}")
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
