import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charzero import cyclotomic
from charzero.cyclotomic import (
    CycInt,
    cyc_is_zero,
    cyc_make,
    cyclotomic_polynomial,
    euler_phi,
    power_rows,
)
from charzero.errors import ExactnessError
from charzero.polynomials import IntPoly

from cyclotomic_reference import mobius_cyclotomic_polynomial, power_row_by_division


def test_rational_case():
    v = cyc_make(1, {0: 5})
    assert v.is_integer() and v.to_integer() == 5


def test_vanishing_sum_of_cube_roots():
    assert cyc_make(3, {0: 1, 1: 1, 2: 1}).is_zero()


def test_reduction_mod_quartic():
    # 2*z4 + z4^3 = 2i - i = i, coordinates (0, 1) in basis {1, i}
    v = cyc_make(4, {1: 2, 3: 1})
    assert v.coeffs == (0, 1)
    assert v == CycInt.zeta(4)


def test_zero_conductor_rejected():
    with pytest.raises(ValueError):
        cyc_make(0, {0: 1})


def test_is_zero_examples():
    z3 = CycInt.zeta(3)
    assert cyc_is_zero(1 + z3 + z3 * z3)
    assert not cyc_is_zero(CycInt.zeta(5))
    # full additive character sum over F_3
    assert cyc_is_zero(cyc_make(3, {x % 3: 1 for x in range(3)}))


@pytest.mark.parametrize("m", range(2, 31))
def test_all_roots_sum_to_zero(m):
    assert cyc_make(m, {i: 1 for i in range(m)}).is_zero()


def test_phi_agreement():
    for m in range(1, 40):
        assert cyclotomic_polynomial(m).degree == euler_phi(m)


def test_cyclotomic_polynomial_matches_the_moebius_product():
    for m in [*range(1, 501), 1320, 2184, 14880, 25308]:
        assert cyclotomic_polynomial(m) == mobius_cyclotomic_polynomial(m), m


def test_cyclotomic_polynomials_of_the_divisors_multiply_to_x_m_minus_one():
    for m in range(1, 121):
        product = IntPoly((1,))
        for d in range(1, m + 1):
            if m % d == 0:
                product = product * cyclotomic_polynomial(d)
        assert product == IntPoly.x_pow_minus_one(m), m


def test_power_rows_match_long_division():
    for m in range(1, 201):
        expected = [power_row_by_division(m, k) for k in range(m)]
        assert power_rows(m, range(m)).tolist() == expected, m


def test_power_rows_follow_the_request_order_with_duplicates():
    ks = [7, 3, 3, 0, 100, 7, 11]
    rows = power_rows(12, np.array(ks))
    assert rows.dtype == np.int64 and rows.shape == (len(ks), 4)
    assert rows.tolist() == [power_row_by_division(12, k) for k in ks]  # x^100 divided as is
    assert power_rows(12, []).shape == (0, 4)


def test_power_rows_at_conductors_one_and_two():
    assert power_rows(1, [0, 1, 5]).tolist() == [[1], [1], [1]]
    assert power_rows(2, [0, 1, 2, 3]).tolist() == [[1], [-1], [1], [-1]]


@pytest.mark.parametrize("m,stride,ks", [
    (8, 4, range(8)),
    (12, 2, range(12)),
    (1320, 4, [0, 1, 3, 319, 320, 321, 661, 990, 1000, 1319]),
])
def test_power_rows_sit_on_the_radical_stride(m, stride, ks):
    # m / rad(m) = stride: x^k lives on the exponents = k (mod stride)
    rows = power_rows(m, ks)
    for k, row in zip(ks, rows.tolist()):
        assert row == power_row_by_division(m, k), (m, k)
        assert all(c == 0 for i, c in enumerate(row) if i % stride != k % stride)


def test_power_basis_rows_past_the_conductor_match_long_division():
    for m in (13, 25, 30):
        phi = euler_phi(m)
        ks = range(max(m, 2 * phi - 1))
        assert power_rows(m, ks).tolist() == [power_row_by_division(m, k) for k in ks]
        # the rows past the basis that a product of two reduced values reads
        high = list(range(phi, 2 * phi - 1))
        assert [dict(row) for row in cyclotomic._rows_past_basis(m, high)] == [
            {j: c for j, c in enumerate(power_row_by_division(m, k)) if c} for k in high]


def test_products_read_only_the_rows_past_the_basis(monkeypatch):
    requests = []

    def recording(m, ks):
        requests.append((m, list(ks)))
        return power_rows(m, ks)

    monkeypatch.setattr(cyclotomic, "power_rows", recording)
    monkeypatch.setattr(cyclotomic, "_rows_read", {})
    # conductor 14 880: the convolution stays below phi(m) = 3840, so no row
    start = time.perf_counter()
    assert CycInt.zeta(14880, 1) * CycInt.zeta(14880, 2) == CycInt.zeta(14880, 3)
    assert time.perf_counter() - start < 1 and requests == []
    # conductor 13 (phi = 12): each row past the basis is read once, when a
    # product first has a nonzero term there
    z = CycInt.zeta
    assert z(13, 11) * z(13, 11) == z(13, 9)
    assert z(13, 10) * z(13, 11) == z(13, 8)
    assert z(13, 11) * z(13, 11) == z(13, 9)
    assert (z(13, 10) + z(13, 11)) * (z(13, 10) + z(13, 11)) == z(13, 7) + 2 * z(13, 8) + z(13, 9)
    assert requests == [(13, [22]), (13, [21]), (13, [20])]


def test_power_rows_and_cyclotomic_polynomial_refuse_an_int64_overflow(monkeypatch):
    cyclotomic_polynomial(105)  # cached before the limit drops; Phi_105 has a -2
    monkeypatch.setattr(cyclotomic, "_INT64_BOUND", 8)
    with pytest.raises(ExactnessError, match="overflow int64"):
        power_rows(105, range(105))
    with pytest.raises(ExactnessError, match="overflow int64"):
        cyclotomic_polynomial.__wrapped__(105)


def test_reduced_exponents_do_not_build_the_power_basis(monkeypatch):
    # m = 25308 (SL_2(F_37)): its whole basis would hold 25308 rows of 7776
    m, phi = 25308, 7776
    assert euler_phi(m) == phi

    one, zeta, top = power_rows(m, [0, 1, phi - 1])

    def unreachable(m, ks):
        raise AssertionError(f"power rows {ks} of conductor {m} were built")

    monkeypatch.setattr(cyclotomic, "power_rows", unreachable)
    assert CycInt.integer(1, m).coeffs == (1,) + (0,) * (phi - 1)
    assert list(CycInt.zeta(m).coeffs) == zeta.tolist() == [0, 1] + [0] * (phi - 2)
    v = CycInt.zeta(m, phi - 1) * 3 + 1
    assert list(v.coeffs) == (one + 3 * top).tolist()
    expected = [0] * phi
    expected[0], expected[5] = 1, 2
    assert list(cyc_make(m, {m + 5: 2, -m: 1}).coeffs) == expected


def test_mixed_conductor_lift():
    assert CycInt.zeta(6, 2) == CycInt.zeta(3)
    assert CycInt.zeta(4, 2) == -1
    v = CycInt.zeta(3) + CycInt.zeta(4)
    assert v.conductor == 12


def test_conjugation_is_inverse_on_roots():
    for m in (3, 4, 5, 8, 12):
        z = CycInt.zeta(m)
        assert z.conjugate() * z == 1


def test_galois_requires_coprime():
    with pytest.raises(ValueError):
        CycInt.zeta(6).galois(2)


exp_dicts = st.dictionaries(st.integers(0, 40), st.integers(-9, 9), max_size=6)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 24), da=exp_dicts, db=exp_dicts)
def test_add_then_subtract_is_identity(m, da, db):
    a = cyc_make(m, da)
    b = cyc_make(m, db)
    assert (a + b) - b == a


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 16), da=exp_dicts, db=exp_dicts)
def test_product_stays_in_conductor(m, da, db):
    a = cyc_make(m, da)
    b = cyc_make(m, db)
    p = a * b
    assert p.conductor == m
    assert len(p.coeffs) == euler_phi(m)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 30), da=exp_dicts, db=exp_dicts)
def test_product_matches_long_division(m, da, db):
    a, b = cyc_make(m, da), cyc_make(m, db)
    phi = euler_phi(m)
    rows = [power_row_by_division(m, k) for k in range(2 * phi - 1)]
    expected = [0] * phi
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            expected = [e + x * y * r for e, r in zip(expected, rows[i + j])]
    assert list((a * b).coeffs) == expected


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 16), da=exp_dicts, db=exp_dicts)
def test_conjugation_is_multiplicative(m, da, db):
    a = cyc_make(m, da)
    b = cyc_make(m, db)
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_json_round_trip():
    v = cyc_make(12, {1: 3, 5: -2, 7: 1})
    assert CycInt.from_json(v.to_json()) == v
    z = CycInt.zero(12)
    obj = z.to_json()
    assert obj["is_zero"] is True and obj["coeffs"] == []
    assert CycInt.from_json(obj).is_zero()
