import pytest

from charzero.cyclotomic import CycInt
from charzero.ffield import (
    field_for_order,
    field_make,
    fq_poly_factor_cubic_or_less,
    fq_poly_is_squarefree,
    is_prime_power,
)


def test_f4_modulus_unique_irreducible_quadratic():
    F = field_make(2, 2)
    assert F.modulus == (1, 1, 1)  # x^2 + x + 1


def test_prime_field_modulus():
    assert field_make(3, 1).modulus == (0, 1)  # the polynomial x


def test_f9_modulus_is_least_irreducible():
    F = field_make(3, 2)
    assert F.modulus == (1, 0, 1)  # x^2 + 1
    # independent re-derivation: scan monic quadratics in coefficient order
    # and keep the first with no root in F_3
    for c0 in range(3):
        for c1 in range(3):
            if all((x * x + c1 * x + c0) % 3 != 0 for x in range(3)):
                assert (c0, c1, 1) == F.modulus
                return
    raise AssertionError("no irreducible quadratic found over F_3")


def test_composite_p_rejected():
    with pytest.raises(ValueError):
        field_make(6, 1)


def test_cap_enforced():
    with pytest.raises(ValueError, match="cap"):
        field_make(2, 21)


def test_trace_examples():
    F4 = field_make(2, 2)
    alpha = 2  # the residue class of x, a root of x^2 + x + 1
    assert F4.trace_to_prime(alpha) == 1
    assert F4.trace_to_prime(0) == 0
    F9 = field_make(3, 2)
    assert F9.trace_to_prime(1) == 2


def test_additive_character_examples():
    F2 = field_make(2, 1)
    assert F2.additive_character(1) == -1
    F3 = field_make(3, 1)
    assert F3.additive_character(0) == 1
    F4 = field_make(2, 2)
    total = CycInt.zero(2)
    for x in F4.elements():
        total = total + F4.additive_character(x)
    assert total.is_zero()


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2), (5, 1), (2, 3)])
def test_twisted_character_sums_vanish(p, e):
    F = field_make(p, e)
    for a in range(1, F.q):
        total = CycInt.zero(p)
        for x in F.elements():
            total = total + F.additive_character(F.mul[a][x])
        assert total.is_zero()


@pytest.mark.parametrize("p,e", [(2, 2), (3, 2), (2, 3), (5, 1)])
def test_frobenius_and_generator(p, e):
    F = field_make(p, e)
    for x in F.elements():
        y = x
        for _ in range(e):
            y = F.pow(y, p)  # the Frobenius x -> x^p
        assert y == x
    # generator order is exactly q - 1
    seen = set()
    cur = 1
    for _ in range(F.q - 1):
        seen.add(cur)
        cur = F.mul[cur][F.generator]
    assert len(seen) == F.q - 1 and cur == 1


def test_prime_power_detector():
    assert is_prime_power(8) == (2, 3)
    assert is_prime_power(9) == (3, 2)
    assert is_prime_power(6) is None
    assert is_prime_power(1) is None
    assert field_for_order(4).q == 4


def test_field_for_order_refuses_oversize_q_before_factoring(monkeypatch):
    import charzero.ffield as ffield

    def unreachable(q):
        raise AssertionError("is_prime_power was reached")

    monkeypatch.setattr(ffield, "is_prime_power", unreachable)
    with pytest.raises(ValueError, match="exceeds cap 1000000"):
        field_for_order(1000000016000000063)


def test_squarefree_detects_pth_powers():
    F2 = field_make(2, 1)
    # x^2 + 1 = (x+1)^2 over F_2: derivative vanishes, not squarefree
    assert not fq_poly_is_squarefree(F2, [1, 0, 1])
    assert fq_poly_is_squarefree(F2, [1, 1, 1])
    F3 = field_make(3, 1)
    assert fq_poly_is_squarefree(F3, [1, 0, 1])  # x^2 + 1 over F_3


def test_factor_cubic():
    F2 = field_make(2, 1)
    # x^3 + x = x (x+1)^2 over F_2
    factors = fq_poly_factor_cubic_or_less(F2, [0, 1, 0, 1])
    assert sorted(factors) == [[0, 1], [1, 1], [1, 1]]
    # x^3 + x + 1 is irreducible over F_2
    assert fq_poly_factor_cubic_or_less(F2, [1, 1, 0, 1]) == [[1, 1, 0, 1]]
