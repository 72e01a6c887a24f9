from fractions import Fraction

import pytest

from charzero import bounds as B
from charzero.bounds import (
    BoundInput,
    _poly_ratio_holds,
    _power_ratio_holds,
    fulman_guralnick_check,
    gl_bound_input,
    guralnick_lubeck_check,
    lower_bound_general,
    simple_bound_polys,
    threshold_search,
    trend_report,
)
from charzero.dixon import dixon_character_table, zero_census
from charzero.matgroup import conjugacy_classes, gl_group, sl_group
from charzero.polynomials import IntPoly, RatFunc, limit_at_infinity


def test_lower_bound_gl2_f5():
    b = gl_bound_input(2, 5)
    assert (b.n_rss, b.n_rss_dual, b.n_classes) == (16, 16, 24)
    assert b.sum_inv_c_sq == Fraction(1, 2)
    res = lower_bound_general(b)
    assert res.raw == Fraction(-529, 450)
    assert res.clamped == 0


def test_lower_bound_torus_case_always_vacuous():
    for q in (2, 3, 5, 7, 11):
        b = BoundInput(
            n_rss=q - 1, n_rss_dual=q - 1, n_classes=q - 1, q=q, rank=1,
            semisimple_rank=0, z_order=q - 1, sum_inv_c_sq=Fraction(1),
        )
        assert lower_bound_general(b).raw == 1 - Fraction(q + 1, q - 1) ** 2 < 0


def test_symbolic_gl2_limit_of_bound():
    # polynomial inputs for GL_2: n_rss = (q-1)(q-2)/2 + (q^2-q)/2 = (q-1)^2,
    # n_classes = q^2 - 1, z = q - 1, r = 2, l = 1; the first term and the
    # coefficient of sum 1/c^2 both tend to 1, so the bound tends to
    # 1 - 1/2 = 1/2
    rss2 = IntPoly((2, -3, 1)) + IntPoly((0, -1, 1))  # 2 * n_rss
    classes = IntPoly((-1, 0, 1))
    first = RatFunc(rss2 * rss2, 4 * classes * classes)
    coeff = RatFunc(IntPoly((1, 1)) ** 4, IntPoly((0, 0, 1)) * IntPoly((-1, 1)) ** 2)
    assert limit_at_infinity(first) == 1
    assert limit_at_infinity(coeff) == 1
    assert 1 - limit_at_infinity(coeff) * Fraction(1, 2) == Fraction(1, 2)


def test_simple_bound_polys_r2():
    f1, f2 = simple_bound_polys(2)
    assert f1.evaluate(10) == 2704
    assert f2.evaluate(10) == 250000


@pytest.mark.parametrize("r", list(range(2, 61, 7)) + [60])
def test_simple_bound_polys_monic_degree_2r(r):
    f1, f2 = simple_bound_polys(r)
    assert f1.is_monic() and f1.degree == 2 * r
    assert f2.is_monic() and f2.degree == 2 * r


def test_simple_bound_ratio_tends_to_one():
    f1, f2 = simple_bound_polys(2)
    assert limit_at_infinity(RatFunc(f2 - f1, f2)) == 0


def test_rank_below_two_rejected():
    with pytest.raises(ValueError):
        simple_bound_polys(1)
    with pytest.raises(ValueError, match="rank cap"):
        threshold_search(1, Fraction(1, 10))


def test_threshold_first_inequality():
    res = threshold_search(8, Fraction(1, 10), which="first")
    assert res.threshold == 168
    # certification by direct exact evaluation at 167 and 168 (worst rank 8)
    assert not _power_ratio_holds(Fraction(167), 8, Fraction(1, 10))
    assert _power_ratio_holds(Fraction(168), 8, Fraction(1, 10))


def test_threshold_growing_rank():
    res = threshold_search(8, Fraction(1, 10), mode="growing-rank", which="both")
    assert res.threshold >= 2
    r0 = res.threshold
    assert _power_ratio_holds(r0 * Fraction(r0), r0, Fraction(1, 10))
    assert _poly_ratio_holds(r0 * Fraction(r0), r0, Fraction(1, 10))


def test_guralnick_lubeck_sl2():
    for q, vacuous in ((4, True), (5, False), (7, False)):
        g = sl_group(2, q)
        chk = guralnick_lubeck_check(g, conjugacy_classes(g))
        assert chk.passes
        assert (chk.rhs < 0) == vacuous
    g = sl_group(2, 5)
    assert guralnick_lubeck_check(g, conjugacy_classes(g)).rhs == Fraction(1, 8)


def test_fulman_guralnick_sl2():
    for q in (4, 5, 7):
        g = sl_group(2, q)
        chk = fulman_guralnick_check(g, conjugacy_classes(g))
        assert chk.passes
        assert chk.bound == q + 40


def test_sl3_checks_small_q():
    for q in (2, 3):
        g = sl_group(3, q)
        cd = conjugacy_classes(g)
        prop = guralnick_lubeck_check(g, cd)
        cls = fulman_guralnick_check(g, cd)
        assert prop.passes and prop.rhs < 0  # vacuous bound at these q
        assert cls.passes and cls.bound == q * q + 40 * q


@pytest.mark.slow
def test_sl3_f5_nonvacuous_proportion():
    # the smallest SL_3 with a positive right-hand side (1/8); 372k elements
    g = sl_group(3, 5)
    cd = conjugacy_classes(g)
    prop = guralnick_lubeck_check(g, cd)
    assert prop.rhs == Fraction(1, 8)
    assert prop.passes
    assert fulman_guralnick_check(g, cd).passes


@pytest.mark.parametrize(
    "n,q", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 7), (3, 2), (3, 3)]
)
def test_lower_bound_below_brute_ratio(n, q):
    g = gl_group(n, q)
    zc = zero_census(dixon_character_table(g, conjugacy_classes(g)))
    res = lower_bound_general(gl_bound_input(n, q))
    assert res.clamped <= zc.ratio


def test_trend_rows():
    rows = trend_report([2], [2, 3, None])
    by_q = {r.q: r for r in rows}
    assert by_q[None].formula_ratio == Fraction(1, 2)
    assert by_q[None].weyl_complement == Fraction(1, 2)
    assert by_q[2].brute_ratio == Fraction(1, 9)
    assert by_q[3].brute_ratio == Fraction(15, 64)
    assert by_q[3].formula_ratio == Fraction(5, 32)


def test_trend_weyl_column_decreasing():
    # Weyl ranks 10, 20, 40: sum 1/c^2 strictly decreasing and below 6/r^2
    rows = trend_report([11, 21, 41], [None])
    vals = [1 - r.weyl_complement for r in rows]
    assert vals[0] > vals[1] > vals[2]
    for row, rank in zip(rows, (10, 20, 40)):
        assert 1 - row.weyl_complement < Fraction(6, rank * rank)


def test_trend_weyl_column_reaches_rank_60():
    (row,) = trend_report([61], [None])
    assert 0 < 1 - row.weyl_complement < Fraction(6, 3600)


# -- the factored bound polynomials and the threshold scan ---------------------

_QS = [Fraction(q) for q in (2, 3, 7, 41, 1000)] + [
    Fraction(5, 2), Fraction(-7, 3), Fraction(1, 40), Fraction(1601, 37)
]


@pytest.mark.parametrize("r", range(2, 41))
def test_simple_bound_polys_equal_the_factored_forms(r):
    f1, f2 = simple_bound_polys(r)
    for q in _QS:
        assert f1.evaluate(q) == ((q - 1) ** (r - 2) * ((q - 1) ** 2 - 3 * (q - 1) - 2)) ** 2
        assert f2.evaluate(q) == (q ** (r - 1) * (q + 40)) ** 2


def test_poly_ratio_matches_the_expanded_polynomials():
    # at eps equal to the expanded ratio the strict inequality just fails
    tiny = Fraction(1, 10**100)
    for r in range(2, 40):
        f1, f2 = simple_bound_polys(r)
        for q in _QS + [Fraction(r * r), Fraction(40 * r), Fraction(2000 * r)]:
            ratio = 1 - Fraction(f1.evaluate(q)) / f2.evaluate(q)
            assert not _poly_ratio_holds(q, r, ratio), (r, q)
            assert _poly_ratio_holds(q, r, ratio + tiny), (r, q)


def _power_ratio_reference(q, r, eps):
    """((q+1)/q)^{2r} < 1 + eps in `Fraction`s."""
    q = Fraction(q)
    return (q + 1) ** (2 * r) < (1 + eps) * q ** (2 * r)


def _factored_f1_f2(q, r):
    q = Fraction(q)
    return (((q - 1) ** (r - 2) * ((q - 1) ** 2 - 3 * (q - 1) - 2)) ** 2,
            (q ** (r - 1) * (q + 40)) ** 2)


def _poly_ratio_reference(q, r, eps):
    """1 - f1(q)/f2(q) < eps in `Fraction`s, from the factored forms."""
    v1, v2 = _factored_f1_f2(q, r)
    return 1 - v1 / v2 < eps


_EPSILONS = [Fraction(-1, 3), Fraction(1, 20), Fraction(7, 2)]


@pytest.mark.parametrize("r", range(2, 41))
def test_integer_ratio_tests_agree_with_the_fraction_forms(r):
    qs = ([Fraction(q) for q in range(2, 401)] + _QS
          + [r * Fraction(r), r * Fraction(r + 1, 2)])
    for q in qs:
        power = (q + 1) ** (2 * r) / q ** (2 * r) - 1
        v1, v2 = _factored_f1_f2(q, r)
        poly = 1 - v1 / v2
        # the generic epsilons, and each ratio itself, where the strict test flips
        for eps in _EPSILONS + [power, poly]:
            assert _power_ratio_holds(q, r, eps) == _power_ratio_reference(q, r, eps), (q, eps)
            assert _poly_ratio_holds(q, r, eps) == _poly_ratio_reference(q, r, eps), (q, eps)
        assert not _power_ratio_holds(q, r, power) and not _poly_ratio_holds(q, r, poly)


@pytest.mark.parametrize("q", [Fraction(0), Fraction(-40)])
def test_poly_ratio_is_undefined_where_f2_vanishes(q):
    with pytest.raises(ZeroDivisionError):
        _poly_ratio_reference(q, 3, Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        _poly_ratio_holds(q, 3, Fraction(1, 2))


def _plain_scan_threshold(rank_cap, eps, which):
    """Least q >= 2 at which the selected inequalities hold for every rank."""
    def holds(q, r):
        first = which == "second" or _power_ratio_holds(Fraction(q), r, eps)
        return first and (which == "first" or _poly_ratio_holds(Fraction(q), r, eps))

    q = 2
    while not all(holds(q, r) for r in range(2, rank_cap + 1)):
        q += 1
    return q


@pytest.mark.parametrize("which", ["first", "second", "both"])
@pytest.mark.parametrize("rank_cap,eps", [(2, Fraction(1, 2)), (3, Fraction(1, 10)),
                                          (5, Fraction(1, 7)), (6, Fraction(2, 3)),
                                          (2, Fraction(99, 100)), (4, Fraction(1, 50))])
def test_fixed_rank_threshold_matches_a_plain_scan(rank_cap, eps, which):
    res = threshold_search(rank_cap, eps, which=which)
    assert res.threshold == _plain_scan_threshold(rank_cap, eps, which)


def test_threshold_input_out_of_range_is_a_value_error(monkeypatch):
    with pytest.raises(ValueError, match="exceeds 60"):
        threshold_search(61, Fraction(1, 10))
    monkeypatch.setattr(B, "_SEARCH_BOUND", 1000)
    with pytest.raises(ValueError, match="no threshold below 1000"):
        threshold_search(8, Fraction(1, 100), which="first")
    monkeypatch.setattr(B, "_SEARCH_BOUND", 5)
    with pytest.raises(ValueError, match="no growing-rank threshold below 5"):
        threshold_search(8, Fraction(1, 100), mode="growing-rank")
