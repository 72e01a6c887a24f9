import itertools
import time
from fractions import Fraction
from math import factorial, lcm, prod

import numpy as np
import pytest
from gl2_reference import gl2_reference
from orbit_reference import general_position_by_stabilizers

import charzero.gln as G
from charzero.gln import (
    GLDescriptor,
    brute_regular_ss_class_count,
    class_count_poly,
    general_position_count,
    gl2_zero_count,
    gln_zero_ratio_formula,
    gln_zero_ratio_ratfunc,
    regular_ss_class_count,
    torus_inventory,
)
from charzero.dixon import dixon_character_table, zero_census
from charzero.errors import ExactnessError
from charzero.ffield import is_prime_power
from charzero.matgroup import conjugacy_classes, gl_group
from charzero.polynomials import IntPoly, fit_integer_poly, limit_at_infinity
from charzero.weyl import partitions


def test_class_count_polys_against_enumeration():
    assert class_count_poly(1) == IntPoly((-1, 1))
    assert class_count_poly(2) == IntPoly((-1, 0, 1))
    assert class_count_poly(3) == IntPoly((0, -1, 0, 1))
    for n, q in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)):
        brute = conjugacy_classes(gl_group(n, q)).num_classes
        assert class_count_poly(n).evaluate(q) == brute, (n, q)


def test_descriptor():
    d = GLDescriptor.make(3, 4)
    assert d.rank == d.semisimple_rank + 1
    assert d.center_order == 3
    assert d.positive_root_count == 3
    with pytest.raises(ValueError, match="prime power"):
        GLDescriptor.make(2, 6)


def test_torus_inventory_n2_q3():
    inv = {r.partition: r for r in torus_inventory(2, 3)}
    split = inv[(1, 1)]
    assert split.torus_order == 4 and split.regular_count == 2
    assert split.regular_class_count == 1
    elliptic = inv[(2,)]
    assert elliptic.torus_order == 8 and elliptic.regular_count == 6
    assert elliptic.regular_class_count == 3


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_split_torus_regular_count_formula(q):
    inv = {r.partition: r for r in torus_inventory(2, q)}
    assert inv[(1, 1)].regular_count == (q - 1) * (q - 2)


def test_regular_ss_class_counts_with_cross_check():
    for n, q, count in [(2, 3, 4), (2, 2, 1), (3, 2, 3)]:
        assert regular_ss_class_count(n, q) == brute_regular_ss_class_count(n, q) == count


@pytest.mark.parametrize("n,q", [(2, 4), (2, 5), (3, 3), (3, 4)])
def test_rss_cross_check_sweep(n, q):
    assert regular_ss_class_count(n, q) == brute_regular_ss_class_count(n, q)


@pytest.mark.slow
def test_rss_cross_check_gl3_f5():
    # 1.49M-element enumeration; the largest instance the default cap covers
    assert regular_ss_class_count(3, 5) == brute_regular_ss_class_count(3, 5) == 84


def test_torus_order_polys_monic():
    for rec in torus_inventory(3, 3):
        assert rec.torus_order_poly.is_monic()
        assert rec.torus_order_poly.degree == 3


def test_f_lambda_fits_monic_degree_n():
    for n in (2, 3):
        for lam in partitions(n):
            samples = [
                (q, G._regular_element_count(lam, q)) for q in (2, 3, 4, 5, 7)
            ]
            fit = fit_integer_poly(samples, n)
            assert fit.monic_of_degree, (lam, fit.poly)


def _regular_count_by_walking_the_torus(partition, q):
    """f_lambda by visiting every element of T_lambda^F = prod_i F_{q^{lambda_i}}^x
    inside the cyclic group F_{q^L}^x (L = lcm of the parts): an element is a
    tuple of discrete logs, its eigenvalue logs are their Frobenius orbits
    e, e q, e q^2, ..., and it is regular when all n of them are distinct."""
    big = q ** lcm(*partition) - 1
    strides = [big // (q**p - 1) for p in partition]
    count = 0
    for logs in itertools.product(*(range(q**p - 1) for p in partition)):
        eigs = set()
        for part, stride, e in zip(partition, strides, logs):
            base = e * stride % big
            for _ in range(part):
                eigs.add(base)
                base = base * q % big
        count += len(eigs) == sum(partition)
    return count


_WALKABLE_TORI = [
    (lam, q) for n in range(1, 7) for lam in partitions(n) for q in (2, 3, 4, 5, 7, 8, 9)
    if prod(q**p - 1 for p in lam) <= 2 * 10**4
]


def test_f_lambda_matches_a_walk_over_the_torus():
    assert len(_WALKABLE_TORI) == 157
    # a repeated part of size k >= 2 is where the j k term of the closed form counts
    assert sum(any(p > 1 and lam.count(p) > 1 for p in lam) for lam, _ in _WALKABLE_TORI) == 24
    for lam, q in _WALKABLE_TORI:
        assert G._regular_element_count(lam, q) == _regular_count_by_walking_the_torus(lam, q), (lam, q)


def test_class_sizes_partition_sn():
    for n in (2, 3, 4, 5):
        total = sum(
            factorial(n) // rec
            for rec in (G.cycle_centralizer_order(lam) for lam in partitions(n))
        )
        assert total == factorial(n)


def _regular_count(lam, q):
    return next(r.regular_count for r in torus_inventory(sum(lam), q) if r.partition == lam)


def test_general_position_examples():
    assert general_position_count((1, 1), 5, _regular_count((1, 1), 5)) == 6
    assert general_position_count((2,), 3, _regular_count((2,), 3)) == 3
    assert general_position_count((1, 1), 2, _regular_count((1, 1), 2)) == 0


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_general_position_equals_regular_class_count(n, q):
    # the equality is asserted inside general_position_count; this sweep is
    # the per-partition duality check
    for rec in torus_inventory(n, q):
        orbits = general_position_count(rec.partition, q, rec.regular_count)
        assert orbits == rec.regular_class_count


@pytest.mark.parametrize("n,q", [(n, q) for n in (1, 2, 3, 4) for q in (2, 3, 4, 5, 7)]
                         + [(5, 2), (5, 3), (6, 2), (3, 9)])
def test_general_position_count_matches_the_listed_stabilizer_search(n, q):
    for rec in torus_inventory(n, q):
        lam = rec.partition
        assert general_position_count(lam, q, rec.regular_count) == general_position_by_stabilizers(lam, q), lam


def test_a_regular_count_that_disagrees_with_the_orbits_is_refused():
    f = _regular_count((1, 1), 5)  # 12, in 6 classes of c_(1,1) = 2 elements
    assert general_position_count((1, 1), 5, f) == 6
    with pytest.raises(ExactnessError, match="!= regular class count"):
        general_position_count((1, 1), 5, f + 2)


def test_gln_structure_counts_each_f_lambda_once(capsys, monkeypatch):
    from charzero import cli

    calls = []
    real = G._regular_element_count
    monkeypatch.setattr(G, "_regular_element_count", lambda lam, q: calls.append(lam) or real(lam, q))
    assert cli.main(["gln-structure", "--n", "5", "--q", "2"]) == 0
    assert sorted(calls) == sorted(partitions(5))


def test_a_large_weyl_centralizer_is_counted_from_its_generators():
    # c_lambda = 6!, 10! and 21! (past int64): none of them is listed
    start = time.perf_counter()
    # f_lambda = 6! at q = 7 (F_7^* in some order) and 0 at q = 2 (F_2^* has one element)
    assert general_position_count((1,) * 6, 7, factorial(6)) == 1  # the 6! orderings of Z/6
    assert general_position_count((1,) * 10, 2, 0) == 0
    assert general_position_count((1,) * 21, 2, 0) == 0
    assert time.perf_counter() - start < 5


def test_the_torus_inventory_visits_no_torus_element():
    # 30 tori of up to 4^9 - 1 = 262 143 elements: walking them took about 9 s on a 2-CPU Xeon
    start = time.perf_counter()
    inv = torus_inventory(9, 4)
    assert time.perf_counter() - start < 2
    assert len(inv) == 30


def test_an_orbit_size_that_does_not_divide_the_centralizer_is_refused(monkeypatch):
    # one orbit through all 3 characters of Z/(2^2 - 1) x Z/(2 - 1): its size
    # does not divide c_(2, 1) = 2
    monkeypatch.setattr(G, "orbit_labels", lambda size, perms: (None, np.zeros(size, dtype=int)))
    with pytest.raises(ExactnessError, match="does not divide"):
        general_position_count((2, 1), 2, _regular_count((2, 1), 2))


def test_budget_guard():
    with pytest.raises(ValueError, match="cap"):
        torus_inventory(6, 16)


def test_formula_values():
    assert gln_zero_ratio_formula(2, 2) == Fraction(1, 9)
    assert gln_zero_ratio_formula(2, 3) == Fraction(5, 32)
    assert gln_zero_ratio_formula(3, 3) == Fraction(810, 2592) == Fraction(5, 16)
    with pytest.raises(ValueError):
        gln_zero_ratio_formula(4, 2)


def test_formula_limits():
    assert limit_at_infinity(gln_zero_ratio_ratfunc(2)) == Fraction(1, 2)
    assert limit_at_infinity(gln_zero_ratio_ratfunc(3)) == Fraction(11, 18)


# -- the exact GL_2 zero count -------------------------------------------------

PRIME_POWERS_TO_64 = [q for q in range(2, 65) if is_prime_power(q) is not None]


def _slow_above(bound, qs):
    return [pytest.param(q, marks=pytest.mark.slow) if q > bound else q for q in qs]


def _cancellation_count(q):
    """GL_2(F_q) zeros enumerated over the textbook parametrization, with the
    rule that zeta_n^e1 + zeta_n^e2 = 0 iff e1 - e2 = n/2 mod n: a principal
    series {j1, j2} on a split class {a, b} sums exponents differing by
    (j1 - j2)(a - b) mod q - 1, a cuspidal j on an elliptic class k by
    jk(q - 1) mod q^2 - 1."""
    n1, n2 = q - 1, q * q - 1
    split = np.array([a - b for a, b in itertools.combinations(range(n1), 2)], dtype=np.int64)
    elliptic = np.array(sorted({min(k, k * q % n2) for k in range(n2) if k % (q + 1)}),
                        dtype=np.int64)
    cuspidal = elliptic  # j ~ jq indexes the cuspidal characters the same way
    zeros = n1 * n1 + 2 * len(split) * len(elliptic)  # Steinberg, then the forced zeros
    if n1 % 2 == 0:
        zeros += sum(int(np.count_nonzero(d * split % n1 == n1 // 2)) for d in split)
        zeros += sum(int(np.count_nonzero(j * (q - 1) * elliptic % n2 == n2 // 2))
                     for j in cuspidal)
    return zeros


@pytest.mark.parametrize("q", _slow_above(16, [q for q in PRIME_POWERS_TO_64 if q <= 32]))
def test_gl2_zero_count_matches_the_classical_parametrization(q):
    assert gl2_zero_count(q) == gl2_reference(q).zero_count


@pytest.mark.parametrize("q", _slow_above(11, [q for q in PRIME_POWERS_TO_64 if q <= 16]))
def test_gl2_zero_count_matches_the_dixon_census(q):
    g = gl_group(2, q)
    census = zero_census(dixon_character_table(g, conjugacy_classes(g)))
    assert gl2_zero_count(q) == census.zero_entries


@pytest.mark.parametrize("q", [q for q in PRIME_POWERS_TO_64 if q <= 16])
def test_the_cancellation_rule_reproduces_the_classical_parametrization(q):
    assert _cancellation_count(q) == gl2_reference(q).zero_count


@pytest.mark.parametrize("q", PRIME_POWERS_TO_64)
def test_gl2_zero_count_matches_the_cancellation_rule(q):
    assert gl2_zero_count(q) == _cancellation_count(q)


def test_gl2_zero_count_refuses_a_non_prime_power():
    with pytest.raises(ValueError, match="prime power"):
        gl2_zero_count(6)
