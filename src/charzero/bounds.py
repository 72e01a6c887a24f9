"""Closed-form bounds and threshold searches for zero densities.

Everything here is exact: the general lower bound on the zero proportion,
the rank-parametrized monic square polynomials that bound the simple-group
term, certified threshold searches for the two asymptotic inequalities, the
regular-semisimple proportion check for SL_n, the class-count bound, and
the trend report rows.  The threshold searches test each (q, r) in Python
integers, the rational inequality cross-multiplied by the positive
denominators of q and epsilon, and evaluate the square polynomials from
their factored forms, never expanding them; `simple_bound_polys` gives the
expanded forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .dixon import dixon_zero_census
from .errors import ExactnessError
from .ffield import fq_poly_is_squarefree
from .gln import class_count_poly, gln_zero_ratio_ratfunc, regular_ss_class_count
from .matgroup import (
    ClassData,
    MatrixGroupTable,
    conjugacy_classes,
    gl_group,
    gl_order,
    mat_charpoly,
)
from .polynomials import IntPoly, limit_at_infinity
from .weyl import DEFAULT_RANK_CAP, sum_inv_c_sq_stream


@dataclass(frozen=True)
class BoundInput:
    n_rss: int
    n_rss_dual: int
    n_classes: int
    q: int
    rank: int
    semisimple_rank: int
    z_order: int
    sum_inv_c_sq: Fraction

    def __post_init__(self):
        if self.n_classes <= 0:
            raise ValueError("class count must be positive")
        if self.n_rss > self.n_classes or min(self.n_rss, self.n_rss_dual) < 0:
            raise ValueError("regular semisimple counts out of range")
        if not 0 < self.sum_inv_c_sq <= 1:
            raise ValueError("conjugacy probability must lie in (0, 1]")


@dataclass(frozen=True)
class LowerBoundResult:
    raw: Fraction
    clamped: Fraction


def lower_bound_general(b: BoundInput) -> LowerBoundResult:
    """n_rss * n_rss_dual / n_classes^2
       - (q+1)^{2r} / (q^{2l} z^2) * sum 1/c_i^2.

    The raw value may be negative at small q (the bound is then vacuous);
    both the raw value and max(0, raw) are reported."""
    first = Fraction(b.n_rss * b.n_rss_dual, b.n_classes**2)
    second = (
        Fraction((b.q + 1) ** (2 * b.rank), b.q ** (2 * b.semisimple_rank) * b.z_order**2)
        * b.sum_inv_c_sq
    )
    raw = first - second
    return LowerBoundResult(raw=raw, clamped=max(raw, Fraction(0)))


def gl_bound_input(n: int, q: int) -> BoundInput:
    """Assemble the bound input for GL_n(F_q) (self-dual, so both regular
    semisimple counts coincide)."""
    rss = regular_ss_class_count(n, q)
    return BoundInput(
        n_rss=rss,
        n_rss_dual=rss,
        n_classes=class_count_poly(n).evaluate(q),
        q=q,
        rank=n,
        semisimple_rank=n - 1,
        z_order=q - 1,
        sum_inv_c_sq=sum_inv_c_sq_stream("A", n - 1) if n >= 2 else Fraction(1),
    )


def simple_bound_polys(r: int) -> tuple[IntPoly, IntPoly]:
    """f1(x) = ((x-1)^r - 3(x-1)^{r-1} - 2(x-1)^{r-2})^2 and
    f2(x) = (x^r + 40 x^{r-1})^2, both monic of degree 2r; r >= 2."""
    if r < 2:
        raise ValueError("rank must be at least 2")
    xm1 = IntPoly((-1, 1))
    base1 = xm1**r - 3 * xm1 ** (r - 1) - 2 * xm1 ** (r - 2)
    f1 = base1 * base1
    base2 = IntPoly((0,) * r + (1,)) + 40 * IntPoly((0,) * (r - 1) + (1,))
    f2 = base2 * base2
    for name, f in (("f1", f1), ("f2", f2)):
        if f.degree != 2 * r or not f.is_monic():
            raise ExactnessError(f"{name} for r = {r} is not monic of degree 2r")
    return f1, f2


# -- threshold searches -------------------------------------------------------


def _power_ratio_holds(q: Fraction, r: int, eps: Fraction) -> bool:
    """((q+1)/q)^{2r} < 1 + eps, exactly, for q an int or a `Fraction`: with
    q = a/b and eps = u/v (b, v > 0), v (a+b)^{2r} < (u+v) a^{2r}."""
    a, b = q.numerator, q.denominator
    u, v = eps.numerator, eps.denominator
    return v * (a + b) ** (2 * r) < (u + v) * a ** (2 * r)


def _poly_ratio_holds(q: Fraction, r: int, eps: Fraction) -> bool:
    """1 - f1(q)/f2(q) < eps, exactly, from the factored forms
    f1 = ((q-1)^{r-2} ((q-1)^2 - 3(q-1) - 2))^2 and f2 = (q^{r-1} (q+40))^2.
    With q = a/b and eps = u/v (b, v > 0), b^{2r} f_k(q) = V_k for
    V1 = ((a-b)^{r-2} ((a-b)^2 - 3(a-b)b - 2b^2))^2 and
    V2 = (a^{r-1} (a+40b))^2, so the test is v (V2 - V1) < u V2 when V2 > 0;
    V2 = 0 (q = 0 or -40) raises ZeroDivisionError, as f1/f2 is undefined.
    r >= 2, as `threshold_search` checks."""
    a, b = q.numerator, q.denominator
    u, v = eps.numerator, eps.denominator
    c = a - b
    v1 = (c ** (r - 2) * (c * c - 3 * c * b - 2 * b * b)) ** 2
    v2 = (a ** (r - 1) * (a + 40 * b)) ** 2
    if not v2:
        raise ZeroDivisionError(f"f2 vanishes at q = {q}")
    return v * (v2 - v1) < u * v2


_WINDOW = 50  # a threshold t is certified on every q (or r) in [t, t + _WINDOW]
_SEARCH_BOUND = 10**6  # thresholds are searched below this q (or r)


@dataclass(frozen=True)
class ThresholdResult:
    mode: str
    which: str
    epsilon: Fraction
    rank_cap: int
    threshold: int
    certified_window: int


def threshold_search(
    rank_cap: int,
    epsilon: Fraction,
    mode: str = "fixed-rank",
    which: str = "both",
) -> ThresholdResult:
    """Fixed-rank mode: least q0 such that the selected inequalities hold for
    every rank 2 <= r <= rank_cap and all q >= q0.  Growing-rank mode: least
    r0 such that they hold for r in [r0, r0 + 50] at q = r^2.

    The result is certified by exact evaluation at the threshold
    (holds), just below it (fails), and across the verification window;
    the first inequality is monotone in q since 2r*log(1+1/q) decreases.
    When the first inequality is selected, the fixed-rank scan starts above
    2*rank_cap/eps: by Bernoulli, (1+1/q)^{2r} >= 1 + 2r/q >= 1 + eps for
    every smaller q at r = rank_cap.  When the second is selected, it starts
    above (2*rank_cap + 86)(1 - eps)/eps if that is at least 5: for q >= 5,
    sqrt(f1/f2) = (1-1/q)^{r-2} (q^2-5q+2)/(q^2+40q), where
    (1-1/q)^{r-2} <= (q/(q+1))^{r-2} <= q/(q+r-2) by Bernoulli and
    (q^2-5q+2)/(q^2+40q) <= q/(q+45), so sqrt(f1/f2) <= q/(q+c) with
    c = r + 43, and 1 - f1/f2 >= 1 - (q/(q+c))^2 >= 2c/(q+2c), which is
    at least eps for every q <= 2c(1-eps)/eps.

    An epsilon too small for `_SEARCH_BOUND` is an input out of range and
    raises ValueError; failed certifications raise ExactnessError."""
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if rank_cap < 2:
        raise ValueError("rank cap must be at least 2 (the square bound needs r >= 2)")
    if rank_cap > DEFAULT_RANK_CAP:
        raise ValueError(f"rank cap {rank_cap} exceeds {DEFAULT_RANK_CAP}")
    if which not in ("first", "second", "both"):
        raise ValueError("which must be 'first', 'second' or 'both'")

    def holds(q: int, r: int) -> bool:
        ok = True
        if which in ("first", "both"):
            ok = ok and _power_ratio_holds(q, r, epsilon)
        if which in ("second", "both"):
            ok = ok and _poly_ratio_holds(q, r, epsilon)
        return ok

    if mode == "fixed-rank":
        # largest rank first: both ratios grow with r, so most failing q fail at once
        ranks = range(rank_cap, 1, -1)
        start = 2 if which == "second" else (2 * rank_cap) // epsilon + 1
        # the second inequality fails for every 5 <= q <= second_fails_to
        second_fails_to = (2 * rank_cap + 86) * (1 - epsilon) / epsilon
        if which != "first" and second_fails_to >= 5:
            start = max(start, second_fails_to // 1 + 1)
        q0 = None
        for q in range(start, _SEARCH_BOUND):
            if all(holds(q, r) for r in ranks):
                q0 = q
                break
        if q0 is None:
            raise ValueError(f"no threshold below {_SEARCH_BOUND}")
        if q0 > 2 and all(holds(q0 - 1, r) for r in ranks):
            raise ExactnessError("threshold certification failed just below q0")
        for q in range(q0, q0 + _WINDOW + 1):
            if not all(holds(q, r) for r in ranks):
                raise ExactnessError(f"threshold not stable on the window at q={q}")
        return ThresholdResult("fixed-rank", which, epsilon, rank_cap, q0, _WINDOW)

    if mode == "growing-rank":
        for r0 in range(2, _SEARCH_BOUND):
            if all(holds(r * r, r) for r in range(r0, r0 + _WINDOW + 1)):
                return ThresholdResult(
                    "growing-rank", which, epsilon, rank_cap, r0, _WINDOW
                )
        raise ValueError(f"no growing-rank threshold below {_SEARCH_BOUND}")

    raise ValueError("mode must be 'fixed-rank' or 'growing-rank'")


# -- SL_n checks --------------------------------------------------------------


@dataclass(frozen=True)
class ProportionCheck:
    q: int
    lhs: Fraction
    rhs: Fraction
    passes: bool


def guralnick_lubeck_check(group: MatrixGroupTable, cd: ClassData) -> ProportionCheck:
    """Regular-semisimple element proportion of an enumerated SL_n(F_q),
    with classes `cd`, against 1 - 3/(q-1) - 2/(q-1)^2 (exact)."""
    F = group.field
    q, n = F.q, group.dim
    rss_elements = 0
    for rep, size in zip(cd.class_reps, cd.class_sizes):
        cp = mat_charpoly(F, n, group.element(rep))
        if fq_poly_is_squarefree(F, cp):
            rss_elements += size
    lhs = Fraction(rss_elements, group.order)
    rhs = 1 - Fraction(3, q - 1) - Fraction(2, (q - 1) ** 2)
    return ProportionCheck(q=q, lhs=lhs, rhs=rhs, passes=lhs > rhs)


@dataclass(frozen=True)
class ClassCountCheck:
    q: int
    rank: int
    class_count: int
    bound: int
    passes: bool


def fulman_guralnick_check(group: MatrixGroupTable, cd: ClassData) -> ClassCountCheck:
    """Class count of an enumerated SL_n(F_q), with classes `cd`, against
    q^r + 40 q^{r-1} with r = n - 1 the rank of the simple group."""
    q, r = group.field.q, group.dim - 1
    bound = q**r + 40 * q ** (r - 1)
    return ClassCountCheck(
        q=q, rank=r, class_count=cd.num_classes, bound=bound,
        passes=cd.num_classes <= bound,
    )


# -- trend report --------------------------------------------------------------


@dataclass(frozen=True)
class TrendRow:
    n: int
    q: int | None  # None encodes the q -> infinity row
    weyl_complement: Fraction  # 1 - sum 1/c_i^2 over W(A_{n-1})
    formula_ratio: Fraction | None
    brute_ratio: Fraction | None


def trend_report(
    ns: Sequence[int],
    qs: Sequence[int | None],
) -> list[TrendRow]:
    """Rows (n, q) with the Weyl-statistic column always filled, the
    closed-form column for n in {2, 3}, and the brute census column when the
    group order is at most 20 000."""
    rows = []
    for n in sorted(set(ns)):
        weyl = 1 - sum_inv_c_sq_stream("A", n - 1) if n >= 2 else Fraction(0)
        ratio = gln_zero_ratio_ratfunc(n) if n in (2, 3) else None
        for q in qs:
            formula = brute = None
            if ratio is not None:
                formula = limit_at_infinity(ratio) if q is None else ratio.evaluate(q)
            if q is not None and gl_order(n, q) <= 2 * 10**4:
                g = gl_group(n, q)
                brute = dixon_zero_census(g, conjugacy_classes(g)).ratio
            rows.append(
                TrendRow(n=n, q=q, weyl_complement=weyl, formula_ratio=formula,
                         brute_ratio=brute)
            )
    return rows
