from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charzero.errors import ExactnessError
from charzero.matgroup import conjugacy_classes, gl_group
from charzero.polynomials import (
    IntPoly,
    POS_INFINITY,
    RatFunc,
    fit_integer_poly,
    limit_at_infinity,
    poly_gcd,
)


def gl2_ratio():
    return RatFunc(IntPoly((2, -2, 1)), IntPoly((2, 4, 2)))


def gl3_ratio():
    return RatFunc(IntPoly((-18, -45, 14, -2, 11)), IntPoly((0, 0, 18, 36, 18)))


def test_limit_examples():
    assert limit_at_infinity(gl2_ratio()) == Fraction(1, 2)
    assert limit_at_infinity(gl3_ratio()) == Fraction(11, 18)
    assert limit_at_infinity(RatFunc(IntPoly((0, 1)), IntPoly((1, 0, 1)))) == 0


def test_limit_infinite_and_zero_cases():
    assert limit_at_infinity(RatFunc(IntPoly((0, 0, 1)), IntPoly((1, 1)))) == POS_INFINITY
    assert limit_at_infinity(RatFunc(IntPoly(()), IntPoly((1, 1)))) == 0


@pytest.mark.parametrize(
    "f,g",
    [
        (gl2_ratio(), gl3_ratio()),
        (gl2_ratio(), RatFunc(IntPoly((0, 1)), IntPoly((1, 0, 1)))),
        (gl3_ratio(), gl3_ratio()),
    ],
)
def test_limit_of_product_is_product_of_limits(f, g):
    lf, lg = limit_at_infinity(f), limit_at_infinity(g)
    assert limit_at_infinity(f * g) == lf * lg


def test_fit_gl2_class_counts_from_brute_force():
    samples = []
    for q in (2, 3, 4, 5):
        g = gl_group(2, q)
        samples.append((q, conjugacy_classes(g).num_classes))
    fit = fit_integer_poly(samples, 2)
    assert fit.poly == IntPoly((-1, 0, 1))  # q^2 - 1
    assert fit.monic_of_degree


def test_fit_zero_samples_not_monic():
    fit = fit_integer_poly([(1, 0), (2, 0), (3, 0)], 2)
    assert fit.poly.is_zero()
    assert not fit.monic_of_degree


def test_fit_cube():
    fit = fit_integer_poly([(1, 1), (2, 8), (3, 27), (5, 125)], 3)
    assert fit.poly == IntPoly((0, 0, 0, 1))
    assert fit.monic_of_degree


def test_fit_insufficient_samples():
    with pytest.raises(ValueError, match="distinct sample"):
        fit_integer_poly([(1, 1), (2, 4)], 2)


def test_fit_non_integer_interpolant():
    with pytest.raises(ExactnessError, match="non-integer"):
        fit_integer_poly([(0, 0), (2, 1), (4, 2)], 2)


def test_fit_rejects_samples_off_the_curve():
    with pytest.raises(ExactnessError, match="misses sample"):
        fit_integer_poly([(1, 1), (2, 4), (3, 9), (4, 17)], 2)


def test_exact_division_and_gcd():
    a = IntPoly.x_pow_minus_one(6)
    b = IntPoly.x_pow_minus_one(2)
    q = a // b
    assert q * b == a
    g = poly_gcd(IntPoly.x_pow_minus_one(4), IntPoly.x_pow_minus_one(6))
    assert g == IntPoly((-1, 0, 1))  # q^2 - 1


int_polys = st.builds(IntPoly.from_coeffs, st.lists(st.integers(-9, 9), max_size=6))


@settings(max_examples=50, deadline=None)
@given(a=int_polys, b=int_polys, c=int_polys)
def test_poly_ring_laws(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a


@settings(max_examples=50, deadline=None)
@given(a=int_polys, b=int_polys)
def test_division_round_trips_products(a, b):
    if b.is_zero():
        return
    q, r = (a * b).divmod_exact(b)
    assert r.is_zero() and q == a


def test_ratfunc_canonical_form():
    r = RatFunc(IntPoly((0, 2, 2)), IntPoly((2, 2)))  # 2q(q+1) / 2(q+1)
    assert r.num == IntPoly((0, 1)) and r.den == IntPoly((1,))
    r2 = RatFunc(IntPoly((1,)), IntPoly((-1, -1)))
    assert r2.den.leading > 0
    with pytest.raises(ZeroDivisionError):
        RatFunc(IntPoly((1,)), IntPoly(()))
