import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from orbit_reference import closure, orbit_partition

import charzero.weyl as W
from charzero.errors import ExactnessError
from charzero.polynomials import IntPoly
from charzero.weyl import (
    bbw_bound_check,
    charpoly_int,
    conjugacy_probability,
    cycle_centralizer_order,
    partitions,
    signed_cycle_factor,
    sum_inv_c_sq_stream,
    sum_inv_c_stream,
    torus_order_poly,
    weyl_classes,
)


def test_s3():
    t = weyl_classes("A", 2)
    assert t.num_classes == 3
    assert sorted(c.centralizer_order for c in t.classes) == [2, 3, 6]


def test_s2():
    t = weyl_classes("A", 1)
    assert t.num_classes == 2
    assert [c.centralizer_order for c in t.classes] == [2, 2]


def test_b2_against_signed_permutation_enumeration():
    t = weyl_classes("B", 2)
    assert t.num_classes == 5
    assert sorted(c.centralizer_order for c in t.classes) == [4, 4, 4, 8, 8]
    # independent oracle: the 8 signed 2x2 permutation matrices, conjugated
    # exhaustively
    mats = []
    for perm in itertools.permutations(range(2)):
        for signs in itertools.product((1, -1), repeat=2):
            m = np.zeros((2, 2), dtype=int)
            for i, j in enumerate(perm):
                m[i, j] = signs[i]
            mats.append(m)
    keys = [m.tobytes() for m in mats]
    classes = []
    assigned = set()
    for i, m in enumerate(mats):
        if keys[i] in assigned:
            continue
        orbit = set()
        for g in mats:
            conj = g @ m @ np.linalg.inv(g).astype(int)
            orbit.add(conj.tobytes())
        assigned |= orbit
        classes.append(len(orbit))
    assert sorted(classes) == sorted(c.class_size for c in t.classes)


def test_probabilities():
    assert conjugacy_probability(weyl_classes("A", 1)) == Fraction(1, 2)
    assert conjugacy_probability(weyl_classes("A", 2)) == Fraction(7, 18)
    assert conjugacy_probability(weyl_classes("B", 2)) == Fraction(7, 32)


def test_complements_match_the_gl_limits():
    assert 1 - conjugacy_probability(weyl_classes("A", 1)) == Fraction(1, 2)
    assert 1 - conjugacy_probability(weyl_classes("A", 2)) == Fraction(11, 18)


def test_torus_polys_type_a():
    t = weyl_classes("A", 2)
    assert torus_order_poly(t, "1+1+1") == IntPoly((-1, 1)) ** 3
    transposition = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=int)
    assert torus_order_poly(t, "2+1") == charpoly_int(transposition)
    t1 = weyl_classes("A", 1)
    assert torus_order_poly(t1, "2") == IntPoly((-1, 0, 1))


def test_reflection_lattice_variant():
    t = weyl_classes("A", 2, lattice="reflection")
    assert all(c.char_poly.degree == 2 for c in t.classes)
    assert torus_order_poly(t, "3") == IntPoly((1, 1, 1))  # (q^3-1)/(q-1)


def test_unknown_class_label():
    with pytest.raises(KeyError):
        torus_order_poly(weyl_classes("A", 2), "4")


@pytest.mark.parametrize("ct,rank", [("A", r) for r in range(1, 13)]
                         + [("B", r) for r in range(2, 13)]
                         + [("C", r) for r in range(2, 13)]
                         + [("D", r) for r in range(4, 13)])
def test_sum_inv_c_is_one(ct, rank):
    assert weyl_classes(ct, rank).sum_inv_c() == 1


def test_class_count_type_a_is_partition_count():
    for r in range(1, 10):
        assert weyl_classes("A", r).num_classes == sum(1 for _ in partitions(r + 1))


def test_d4_split_classes():
    t = weyl_classes("D", 4)
    assert t.num_classes == 13
    assert t.group_order == 192
    split = [c for c in t.classes if c.label.endswith(("a", "b"))]
    assert len(split) == 4  # the two split pairs [4|-] and [2+2|-]


def test_exceptional_orders():
    assert weyl_classes("G2").group_order == 12
    assert weyl_classes("F4").group_order == 1152
    assert weyl_classes("E6").group_order == 51840
    assert weyl_classes("G2").num_classes == 6
    assert weyl_classes("F4").num_classes == 25
    assert weyl_classes("E6").num_classes == 25


def test_e7_e8_rejected():
    with pytest.raises(ValueError, match="budget"):
        weyl_classes("E7")
    with pytest.raises(ValueError, match="budget"):
        weyl_classes("E8", 8)


def test_rank_constraints():
    with pytest.raises(ValueError):
        weyl_classes("B", 1)
    with pytest.raises(ValueError):
        weyl_classes("D", 3)
    with pytest.raises(ValueError):
        weyl_classes("A", 0)


def test_char_polys_monic_nonnegative_at_one():
    for ct, rank in (("A", 4), ("B", 5), ("D", 5), ("G2", None), ("F4", None)):
        t = weyl_classes(ct, rank)
        for c in t.classes:
            assert c.char_poly.is_monic()
            assert c.char_poly.degree == t.lattice_rank
            assert c.char_poly.evaluate(1) >= 0


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_torus_orders_evaluate_to_products(q):
    t = weyl_classes("A", 3)
    for c in t.classes:
        lam = tuple(int(x) for x in c.label.split("+"))
        expect = 1
        for p in lam:
            expect *= q**p - 1
        assert c.char_poly.evaluate(q) == expect


@pytest.mark.parametrize("ct,rank", [("A", 6), ("B", 7), ("C", 7), ("D", 7)])
def test_streaming_sums_match_tables(ct, rank):
    t = weyl_classes(ct, rank)
    assert sum_inv_c_sq_stream(ct, rank) == t.sum_inv_c_sq()
    assert sum_inv_c_stream(ct, rank) == 1


def test_coxeter_class_torus_polynomials():
    # the Coxeter class torus polynomial is the product of cyclotomic
    # polynomials at the exponents' orders: Phi_6 for G2, Phi_12 for F4,
    # Phi_12 * Phi_3 for E6
    from charzero.cyclotomic import cyclotomic_polynomial

    def polys(ct):
        return {c.char_poly for c in weyl_classes(ct).classes}

    assert cyclotomic_polynomial(6) in polys("G2")
    assert cyclotomic_polynomial(12) in polys("F4")
    assert cyclotomic_polynomial(12) * cyclotomic_polynomial(3) in polys("E6")


def test_bbw_examples():
    assert bbw_bound_check("A", 9).passes
    chk = bbw_bound_check("A", 13)
    assert chk.probability * 13**2 < 6
    d12 = bbw_bound_check("D", 12)
    assert d12.passes
    assert sum_inv_c_sq_stream("D", 12) <= W._sym_inv_pows(12, 2)


def test_bbw_preconditions():
    with pytest.raises(ValueError, match="rank"):
        bbw_bound_check("A", 8)
    with pytest.raises(ValueError, match="classical"):
        bbw_bound_check("G2", 9)


# -- reference for the streaming sums: the per-j definition ------------------


def _reference_series(n, power, base, sign, even_parts_only):
    """prod_i sum_m (sign^m x^{im}) / ((base*i)^m m!)^power, rebuilt to x^n."""
    series = [Fraction(1)] + [Fraction(0)] * n
    for i in range(1, n + 1):
        if even_parts_only and i % 2:
            continue
        out = [Fraction(0)] * (n + 1)
        for d, coeff in enumerate(series):
            m = 0
            while d + i * m <= n:
                out[d + i * m] += coeff * Fraction(
                    sign**m, ((base * i) ** m * factorial(m)) ** power
                )
                m += 1
        series = out
    return series


@lru_cache(maxsize=None)
def _reference_hyp(j, k):
    total = _reference_series(j, k, 2, 1, False)[j]
    alternating = _reference_series(j, k, 2, -1, False)[j]
    return total, (total + alternating) / 2


def _reference_stream(ct, rank, k):
    if ct == "A":
        return _reference_series(rank + 1, k, 1, 1, False)[rank + 1]
    if ct in ("B", "C"):
        return sum(_reference_hyp(j, k)[0] * _reference_hyp(rank - j, k)[0]
                   for j in range(rank + 1))
    base = sum(_reference_hyp(j, k)[0] * _reference_hyp(rank - j, k)[1]
               for j in range(rank + 1))
    even = 0 if rank % 2 else _reference_series(rank, k, 2, 1, True)[rank]
    return 2**k * base - (2**k - 2) * even


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("ct,low", [("A", 1), ("B", 2), ("C", 2), ("D", 4)])
def test_streaming_sums_match_the_per_j_definition(ct, low, k):
    for rank in range(low, 31):
        assert W._sum_inv_c_pow_stream(ct, rank, k) == _reference_stream(ct, rank, k), rank


def test_series_cache_does_not_depend_on_request_order(monkeypatch):
    results = []
    for order in ((40, 10), (10, 40)):
        monkeypatch.setattr(W, "_SERIES", {})
        results.append({
            (ct, r): (sum_inv_c_sq_stream(ct, r), sum_inv_c_stream(ct, r))
            for r in order for ct in "ABD"
        })
        # a request no longer than a cached series reads it, not rebuilds it
        for key, series in dict(W._SERIES).items():
            for n in (len(series) - 1, 10):
                assert W._zsum_series(n, *key) is series
    assert results[0] == results[1]
    assert results[0][("B", 10)][0] == _reference_stream("B", 10, 2)


@pytest.mark.parametrize("k", [1, 2])
def test_integer_series_are_sums_of_class_sizes_over_partitions(k):
    # T_j = (b^j j!)^k S_j is the sum over partitions of j of
    # sign^parts (b^j j! / (b^parts z_lam))^k, rebuilt from the class formulas
    n = 20
    for j in range(n + 1):
        lams = list(partitions(j))
        assert W._zsum_series(n, k, 1, 1, False)[j] == sum(
            (factorial(j) // cycle_centralizer_order(lam)) ** k for lam in lams)
        order = 2**j * factorial(j)
        sizes = [(order // signed_cycle_factor(lam)) ** k for lam in lams]
        assert W._zsum_series(n, k, 2, 1, False)[j] == sum(sizes)
        assert W._zsum_series(n, k, 2, -1, False)[j] == sum(
            (-1) ** len(lam) * size for lam, size in zip(lams, sizes))
        assert W._zsum_series(n, k, 2, 1, True)[j] == sum(
            size for lam, size in zip(lams, sizes) if all(p % 2 == 0 for p in lam))


def test_integer_series_count_the_group_at_power_one():
    a = W._zsum_series(20, 1, 1, 1, False)
    b = W._zsum_series(20, 1, 2, 1, False)
    for j in range(21):
        assert a[j] == factorial(j)
        # the classes of W(B_j) are pairs of partitions, one per sign class
        assert sum(comb(j, i) * b[i] * b[j - i] for i in range(j + 1)) == 2**j * factorial(j)


@pytest.mark.slow
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("ct", ["A", "B", "D"])
def test_rank_60_streaming_sums_match_the_per_j_definition(ct, k):
    assert W._sum_inv_c_pow_stream(ct, 60, k) == _reference_stream(ct, 60, k)


# -- reference for charpoly_int: Leibniz expansion ---------------------------


def _leibniz_charpoly(m):
    """det(q*Id - m) over all permutations, coefficients lowest first."""
    n = len(m)
    acc = [0] * (n + 1)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = [-1 if inversions % 2 else 1]
        for i in range(n):
            entry = [-int(m[i][perm[i]])] + ([1] if perm[i] == i else [])
            out = [0] * (len(term) + len(entry) - 1)
            for a, x in enumerate(term):
                for b, y in enumerate(entry):
                    out[a + b] += x * y
            term = out
        for d, c in enumerate(term):
            acc[d] += c
    return IntPoly(tuple(acc))


@pytest.mark.parametrize("cartan_type", ["G2", "F4", "E6"])
def test_charpoly_int_matches_leibniz_on_class_representatives(cartan_type, monkeypatch):
    seen = []

    def checked(m):
        got = charpoly_int(m)
        assert got == _leibniz_charpoly(m)
        seen.append(got)
        return got

    monkeypatch.setattr(W, "charpoly_int", checked)
    table = W._table_exceptional(cartan_type)
    assert len(seen) == table.num_classes
    assert [c.char_poly for c in table.classes] == seen


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_charpoly_int_matches_leibniz_on_integer_matrices(data):
    n = data.draw(st.integers(1, 6))
    rows = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                              min_size=n, max_size=n))
    m = np.array(rows, dtype=np.int64)
    assert charpoly_int(m) == _leibniz_charpoly(rows)


def test_charpoly_int_refuses_an_inexact_division():
    with pytest.raises(RuntimeError, match="not divisible"):
        charpoly_int(np.array([[Fraction(1, 2)]], dtype=object))


def _simple_reflections(cartan):
    """Simple reflections in the root basis as int64 matrices: s_i differs
    from the identity in row i, where s_i x = x - <x, alpha_i^vee> alpha_i."""
    r = len(cartan)
    mats = []
    for i in range(r):
        m = np.eye(r, dtype=np.int64)
        m[i] -= np.array(cartan, dtype=np.int64)[:, i]
        assert np.array_equal(m @ m, np.eye(r, dtype=np.int64))
        mats.append(m)
    return mats


@lru_cache(maxsize=None)
def _reference_closure(cartan_type):
    """W as int64 matrices from a breadth-first closure over their bytes
    (each level's right products taken generator by generator): the
    generators, the elements' bytes and their index."""
    gens = _simple_reflections(W._CARTAN[cartan_type])
    r = len(gens)

    def right_products(level):
        return (row.tobytes() for g in gens for row in _stack(level, r) @ g)

    return (gens, *closure(np.eye(r, dtype=np.int64).tobytes(), right_products))


def _stack(level, r):
    return np.frombuffer(b"".join(level), dtype=np.int64).reshape(-1, r, r)


def _reference_exceptional_classes(cartan_type):
    """(label, size, charpoly) per class from the reference closure, with
    orbits closed one seed at a time."""
    gens, elements, index = _reference_closure(cartan_type)
    r = len(gens)

    def conjugates(level):
        return (row.tobytes() for g in gens for row in g @ _stack(level, r) @ g)

    _, orbits = orbit_partition(len(elements), conjugates, elements.__getitem__, index.__getitem__)
    return [(f"c{i}", len(members), charpoly_int(_stack([elements[members[0]]], r)[0]))
            for i, members in enumerate(orbits)]


@pytest.mark.parametrize("cartan_type", ["G2", "F4", "E6"])
def test_exceptional_classes_match_the_reference_closure(cartan_type):
    table = weyl_classes(cartan_type)
    got = [(c.label, c.class_size, c.char_poly) for c in table.classes]
    assert got == _reference_exceptional_classes(cartan_type)


@pytest.mark.parametrize("cartan_type", ["G2", "F4", "E6"])
def test_the_orbit_closure_lists_the_inverses_of_the_reference_closure(cartan_type):
    # element k of the left-product orbit closure is the inverse of element k
    # of the right-product matrix closure, and its reconstructed matrix maps
    # rho to its orbit vector
    gens, elements, _ = _reference_closure(cartan_type)
    x, left, right = W._regular_orbit(cartan_type)
    r = len(gens)
    assert x.dtype == np.int8 and left.dtype == right.dtype == np.int32
    mats = W._matrices(x, right, np.arange(len(x)), np.array(W._CARTAN[cartan_type]))
    assert np.array_equal(mats @ _stack(elements, r), np.broadcast_to(np.eye(r), mats.shape))
    for i, g in enumerate(gens):
        assert np.array_equal(mats[left[i]], g @ mats)
        assert np.array_equal(mats[right[i]], mats @ g)


def _breadth_first_levels(cartan_type):
    """The levels of W rho by a breadth-first search over vectors as tuples:
    every left product s_i x of a level, generator-major (s_1 over the whole
    level, then s_2, ...), the first occurrences of unseen vectors kept."""
    cartan = np.array(W._CARTAN[cartan_type], dtype=np.int64)
    rho = W._regular_vector(W._CARTAN[cartan_type])
    levels, seen = [np.array([rho], dtype=np.int64)], {tuple(rho)}
    while True:
        level, fresh = levels[-1], []
        for i, column in enumerate(cartan.T):
            images = level.copy()
            images[:, i] -= level @ column
            for y in map(tuple, images.tolist()):
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        if not fresh:
            return levels
        levels.append(np.array(fresh, dtype=np.int64))


@pytest.mark.parametrize("cartan_type", ["G2", "F4", "E6"])
def test_descent_generation_lists_the_orbit_in_closure_order(cartan_type, monkeypatch):
    # generating each element from its least left descent lists the same
    # elements, level by level and in the same order, as the closure
    levels = _breadth_first_levels(cartan_type)
    seen_starts = []
    real = W._right_permutations

    def recording(left, starts):
        seen_starts.append(starts)
        return real(left, starts)

    monkeypatch.setattr(W, "_right_permutations", recording)
    x, _, _ = W._regular_orbit(cartan_type)
    assert x.dtype == np.int8
    assert np.array_equal(x, np.concatenate(levels))
    assert seen_starts == [np.cumsum([0] + [len(lv) for lv in levels]).tolist()]


def test_colliding_keys_are_refused(monkeypatch):
    # radix 3 gives the 1152 elements of W(F4) at most 3^4 keys; the index
    # refuses a shared key instead of looking up the wrong element
    monkeypatch.setattr(W, "_key_radix", lambda v: 3)
    with pytest.raises(ExactnessError, match="occurs twice"):
        W._table_exceptional("F4")


def test_an_orbit_beyond_the_group_order_is_refused(monkeypatch):
    monkeypatch.setitem(W.EXCEPTIONAL_ORDERS, "F4", 1000)
    with pytest.raises(ExactnessError, match="closure has order above 1000"):
        W._table_exceptional("F4")


def test_int8_overflow_is_refused(monkeypatch):
    # reflections with large off-diagonal entries generate an infinite group
    # whose orbit soon leaves the dominance bound
    monkeypatch.setitem(W._CARTAN, "G2", [[2, -100], [-100, 2]])
    with pytest.raises(RuntimeError, match="dominance bound"):
        W._table_exceptional("G2")


def test_a_corrupted_right_product_is_caught_by_the_involution_check(monkeypatch):
    real = W._right_permutations

    def corrupted(left, starts):
        right = real(left, starts)
        right[2, 7] = right[2, 8]
        return right

    monkeypatch.setattr(W, "_right_permutations", corrupted)
    with pytest.raises(ExactnessError, match="right product by s_2 .* is not an involution"):
        W._table_exceptional("F4")


@pytest.mark.parametrize("pairings,message", [
    (None, "does not map rho"),
    ((1, 2), "not integral"),  # the vector (8, 5): column 1 divides by 2
])
def test_swapped_right_products_are_caught_by_the_matrix_checks(pairings, message, monkeypatch):
    if pairings:
        monkeypatch.setattr(W, "_regular_vector", lambda cartan: (8, 5))
        assert (np.array([8, 5]) @ np.array(W._CARTAN["G2"])).tolist() == list(pairings)
    x, _, right = W._regular_orbit("G2")
    with pytest.raises(ExactnessError, match=message):
        W._matrices(x, right[::-1], np.arange(len(x)), np.array(W._CARTAN["G2"]))


def test_a_key_vector_beyond_int8_is_refused(monkeypatch):
    big = tuple(200 * x for x in W._regular_vector(W._CARTAN["G2"]))
    monkeypatch.setattr(W, "_regular_vector", lambda cartan: big)
    with pytest.raises(ExactnessError, match="beyond the int8 range"):
        W._table_exceptional("G2")


@pytest.mark.parametrize("cartan_type", ["G2", "F4", "E6"])
def test_the_key_vector_pairs_to_one_with_every_simple_coroot(cartan_type):
    # s_i rho = rho - alpha_i: rho is inside the fundamental chamber
    rho = np.array(W._regular_vector(W._CARTAN[cartan_type]))
    for i, s in enumerate(_simple_reflections(W._CARTAN[cartan_type])):
        assert np.array_equal(s.astype(np.int64) @ rho, rho - np.eye(len(rho), dtype=int)[i])


@pytest.mark.parametrize("cartan_type,rho", [
    ("G2", (5, 3)), ("F4", (11, 21, 15, 8)), ("E6", (8, 15, 21, 15, 8, 11))])
def test_the_key_vector_is_pinned(cartan_type, rho):
    # the rational solution scaled to coprime integers, as a Fraction elimination gives it
    assert W._regular_vector(W._CARTAN[cartan_type]) == rho


@pytest.mark.parametrize("cartan_type", ["G2", "F4", "E6"])
def test_a_non_regular_key_vector_is_caught_by_the_order_check(cartan_type, monkeypatch):
    cartan = W._CARTAN[cartan_type]
    rho = np.array(W._regular_vector(cartan))
    s0 = _simple_reflections(cartan)[0].astype(np.int64)
    fixed = rho + s0 @ rho  # fixed by s_0, so orthogonal to the root alpha_0
    assert np.array_equal(s0 @ fixed, fixed) and fixed.any()
    monkeypatch.setattr(W, "_regular_vector", lambda cartan: tuple(fixed.tolist()))
    with pytest.raises(ExactnessError, match="closure has order"):
        W._table_exceptional(cartan_type)
