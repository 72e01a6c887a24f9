"""The F_p-linear route of `_MatrixKernel` against the gather product, the
dense code index and its special linear key, the closure against a sorted
reference closure, and pins of the element and class order that every later
stage reads."""

import hashlib
import json
from math import lcm

import numpy as np
import pytest

import charzero.matgroup as matgroup
from charzero.errors import ExactnessError
from charzero.ffield import field_for_order
from charzero.matgroup import (
    DenseKeys,
    _check_float32_exact,
    _MatrixKernel,
    conjugacy_classes,
    direct_product,
    enumerate_group,
    gl_generators,
    gl_group,
    mat_charpoly,
    mat_identity,
    mat_inv,
    sl_generators,
    sl_group,
)

CASES = [(n, q) for q in (2, 3, 4, 5, 7, 8, 9, 16) for n in (2, 3)]


def _random_digits(kernel: _MatrixKernel, count: int, seed: int) -> np.ndarray:
    """Random matrices with every fifth one made singular (a repeated row)."""
    n = kernel.n
    rng = np.random.default_rng(seed)
    digits = rng.integers(0, kernel.q, size=(count, n * n)).astype(kernel.dtype)
    digits[::5, n : 2 * n] = digits[::5, :n]
    return digits


def _invertible(kernel: _MatrixKernel, seed: int) -> tuple[int, ...]:
    F, n = kernel.field, kernel.n
    rng = np.random.default_rng(seed)
    while True:
        a = tuple(rng.integers(0, kernel.q, size=n * n).tolist())
        if mat_charpoly(F, n, a)[0]:
            return a


def _gather_trace(kernel: _MatrixKernel, digits: np.ndarray, coeffs: list[int]) -> np.ndarray:
    """Tr(sum_t coeffs[t] x_t) by the gather chain over the field tables."""
    F, q = kernel.field, kernel.q
    add, mul = np.array(F.add).ravel(), np.array(F.mul).ravel()
    trace = np.array([F.trace_to_prime(x) for x in range(q)])
    acc = np.zeros(len(digits), dtype=np.int64)
    for t, c in enumerate(coeffs):
        if c:
            acc = add[acc * q + mul[digits[:, t].astype(np.int64) + c * q]]
    return trace[acc]


@pytest.mark.parametrize("n,q", CASES)
def test_linear_maps_agree_with_the_gather_product(n, q):
    kernel = _MatrixKernel(field_for_order(q), n)
    x = _random_digits(kernel, 300, seed=q * 10 + n)
    a = kernel.digits([_invertible(kernel, seed=q + n)])[0]
    a_inv = kernel.digits([mat_inv(kernel.field, n, tuple(a.tolist()))])[0]
    b = _random_digits(kernel, 1, seed=q + 2 * n)[0]  # singular: entries of one row repeat
    fixed = lambda f: np.broadcast_to(f, x.shape)  # noqa: E731
    expected = {
        "left": kernel.product(fixed(b), x),
        "right": kernel.product(x, fixed(a)),
        "conjugation": kernel.product(kernel.product(fixed(a), x), fixed(a_inv)),
    }
    maps = {
        "left": kernel.linear_map(left=b),
        "right": kernel.linear_map(right=a),
        "conjugation": kernel.linear_map(a, a_inv),
    }
    assert all(K.shape == (kernel.width, kernel.width) for K in maps.values())
    for name, K in maps.items():
        codes = kernel.apply(x, [K])[:, 0]
        assert np.array_equal(codes, kernel.codes(expected[name])), name
        assert np.array_equal(kernel.decode(codes), expected[name]), name
    stacked = kernel.apply(x, list(maps.values()))
    assert stacked.shape == (len(x), 3)
    assert np.array_equal(stacked, np.column_stack([kernel.codes(e) for e in expected.values()]))


@pytest.mark.parametrize("n,q", CASES)
def test_trace_forms_agree_with_the_gather_chain(n, q):
    kernel = _MatrixKernel(field_for_order(q), n)
    x = _random_digits(kernel, 300, seed=q * 7 + n)
    rng = np.random.default_rng(q)
    coeffs = [rng.integers(0, q, size=n * n).tolist() for _ in range(3)] + [[0] * (n * n)]
    got = kernel.trace_forms(x, coeffs)
    assert got.shape == (len(x), len(coeffs))
    for j, c in enumerate(coeffs):
        assert np.array_equal(got[:, j], _gather_trace(kernel, x, c)), c


def test_the_exactness_bound_raises_at_2_to_the_24():
    """Checked on the bound alone, without building a field that large."""
    _check_float32_exact(9, 5)  # GL_3(F_5): 9 * 4^2
    _check_float32_exact(4, 167)  # SL_2(F_167), the largest prime under the group cap
    _check_float32_exact(1, 4096)  # 4095^2 < 2^24
    with pytest.raises(ExactnessError, match="not exact"):
        _check_float32_exact(1, 4097)  # 4096^2 = 2^24
    with pytest.raises(ExactnessError, match="not exact"):
        _check_float32_exact(9, 1367)  # 9 * 1366^2 > 2^24


def test_chunks_bound_the_float_product(monkeypatch):
    """Each BLAS call of `apply` stays within `_MACS` multiply-adds."""
    kernel = _MatrixKernel(field_for_order(3), 3)
    x = _random_digits(kernel, 5000, seed=0)
    rights = kernel.digits([_invertible(kernel, seed=s) for s in range(3)])
    maps = [kernel.linear_map(right=r) for r in rights]
    expected = kernel.apply(x, maps)
    monkeypatch.setattr(matgroup, "_MACS", 1000)
    rows = []
    real = kernel._coordinates
    kernel._coordinates = lambda d: rows.append(len(d)) or real(d)
    assert np.array_equal(kernel.apply(x, maps), expected)
    assert max(rows) * kernel.width * 3 * kernel.width <= 1000 and sum(rows) == len(x)


# -- the dense code index -----------------------------------------------------


def test_gl_groups_look_codes_up_densely_and_refuse_a_singular_matrix():
    g = gl_group(2, 5)
    assert isinstance(g._keys, DenseKeys)
    kernel = g.kernel
    singular = kernel.codes(kernel.digits([(1, 2, 2, 4)]))
    with pytest.raises(ExactnessError, match="not an element of the group"):
        g._index_of(singular)
    codes = kernel.codes(g.digits)
    assert np.array_equal(g._index_of(codes[::-1]), np.arange(g.order)[::-1])


def test_sl_groups_keep_dense_keys_and_refuse_the_same_way():
    g = sl_group(2, 5)
    assert isinstance(g._keys, DenseKeys)
    kernel = g.kernel
    not_special = kernel.codes(kernel.digits([(2, 0, 0, 1)]))  # det 2
    with pytest.raises(ExactnessError, match="not an element of the group"):
        g._index_of(not_special)
    assert g.mul_right(np.arange(g.order), np.array([0])).ravel().tolist() == list(range(g.order))


def test_a_key_shared_with_a_matrix_outside_sl_n_is_refused():
    """SL_2(F_5) leaves an entry out of its key: (2, 0, 0, 1) has the key of
    diag(2, 3), so only the comparison of codes refuses it."""
    g = sl_group(2, 5)
    kernel = g.kernel
    outside, inside = kernel.codes(kernel.digits([(2, 0, 0, 1), (2, 0, 0, 3)]))
    assert g._keys.split(np.array([outside]))[0] == g._keys.split(np.array([inside]))[0]
    assert g.element(int(g._index_of(np.array([inside]))[0])) == (2, 0, 0, 3)
    with pytest.raises(ExactnessError, match="not an element of the group"):
        g._index_of(np.array([inside, outside]))


@pytest.mark.parametrize("element,left", [((0, 1, 0, 0, 0, 1, 1, 0, 0), 6),
                                          ((1, 0, 0, 0, 0, 1, 0, 1, 0), 7),
                                          ((1, 0, 0, 0, 1, 0, 0, 0, 1), 8)])
def test_a_matrix_that_differs_only_in_the_entry_left_out_is_refused(element, left):
    """SL_3(F_4) leaves out the last-row entry of the first column with a
    nonzero cofactor, or the corner when there is none.  Changing that entry
    of an element keeps its key and changes its determinant, and the lookup
    refuses it by the digit left out alone."""
    g = sl_group(3, 4)
    kernel = g.kernel
    assert g._keys.split is not None
    other = list(element)
    other[left] = 2
    inside, outside = kernel.codes(kernel.digits([element, tuple(other)]))
    keys, digits = g._keys.split(np.array([inside, outside]))
    assert keys[0] == keys[1] and digits.tolist() == [element[left], 2]
    assert g.element(int(g._index_of(np.array([inside]))[0])) == element
    with pytest.raises(ExactnessError, match="not an element of the group"):
        g._index_of(np.array([outside]))


def test_generators_outside_sl_n_are_refused_where_the_key_leaves_an_entry_out():
    """GL_2(F_5) under the order of SL_2(F_5) would get the special linear
    key, on which its elements of other determinants collide."""
    F = field_for_order(5)
    with pytest.raises(ValueError, match="does not have determinant 1"):
        enumerate_group(gl_generators(2, F), F, 2, order=120)


@pytest.mark.parametrize("n,q,order", [(4, 4, 987033600), (3, 7, 2)])
def test_a_group_with_no_dense_code_index_is_refused_up_front(n, q, order):
    # SL_4(F_4): 4^16 codes over 4 |G|, and no key rule for n >= 4; a subgroup of
    # order 2 in SL_3(F_7): 7^8 keys over 4 |G|
    with pytest.raises(ValueError, match="no dense code index"):
        matgroup._key_range(n, q, order)


def test_dense_keys_find_positions_and_raise_on_a_miss():
    keys = DenseKeys(np.array([30, 10, 20, 50]), 64)
    assert keys.index_of(np.array([50, 10, 30]), "missing").tolist() == [3, 1, 0]
    with pytest.raises(ExactnessError, match="missing"):
        keys.index_of(np.array([10, 40]), "missing")


def test_dense_keys_number_new_keys_by_first_occurrence():
    keys = DenseKeys(np.array([0]), 8)
    assert keys.add_new(np.array([3, 5, 3, 0, 5, 6])).tolist() == [3, 5, 6]
    assert keys.add_new(np.array([6, 7, 1, 7])).tolist() == [7, 1]
    assert keys.index_of(np.array([0, 3, 5, 6, 7, 1]), "missing").tolist() == list(range(6))
    assert keys.add_new(np.array([1, 3])).tolist() == []


class _FirstWriteWins(np.ndarray):
    """An int array whose scatters with repeated indices keep the first
    write, which NumPy does not promise against either."""

    def __setitem__(self, index, value):
        if isinstance(index, np.ndarray) and index.ndim == 1:
            index, value = index[::-1], np.broadcast_to(value, index.shape)[::-1]
        super().__setitem__(index, value)


def test_a_scatter_that_keeps_a_later_occurrence_is_refused():
    keys = DenseKeys(np.array([0]), 8)
    keys._position = keys._position.view(_FirstWriteWins)
    assert keys.add_new(np.array([3, 5])).tolist() == [3, 5]  # no repeats: nothing to choose
    with pytest.raises(ExactnessError, match="later occurrence"):
        keys.add_new(np.array([6, 7, 6]))


def _code_digest(g) -> str:
    return hashlib.sha256(g.kernel.codes(g.digits).astype("<i8").tobytes()).hexdigest()


@pytest.mark.parametrize("make,digest", [
    (lambda: gl_group(2, 11), "0f1abe95a680ee4e02acb4ba9f9b1d2c788d0830b008c76728abfb83270b6e6d"),
    (lambda: gl_group(3, 3), "2bdd070004d53453a2540a1b647d9aa00e152826beb1bc95c3cb0ce577ed401d"),
    (lambda: gl_group(3, 4), "bd33adfa70779ce878da50c89d93832888cf5fd2e9867d99565730cc87ee74d9"),
    pytest.param(lambda: gl_group(3, 5),
                 "3319f447187c05a8898acd94e3990c5ff1784e9e0b90a1c999f4b6182e8a96e6",
                 marks=pytest.mark.slow),
    (lambda: sl_group(2, 13), "074e9a2930d87534a85d9145dd0ab7267a0c6b019d2a91848644fb3a289e1392"),
    (lambda: sl_group(2, 61), "af0652e832125d3b88c7af3e95e5ec5976e51a3afd6c2b5291ffe37bbe80c52e"),
    (lambda: sl_group(3, 4), "a42a62e3621a8ef7e88d4dfbef84d6154d0388f34f12cd632701eddf75f3ea31"),
], ids=["GL2(F11)", "GL3(F3)", "GL3(F4)", "GL3(F5)", "SL2(F13)", "SL2(F61)", "SL3(F4)"])
def test_the_element_code_order_is_pinned(make, digest):
    # the sha256 of the int64 element codes in element order, as the sorted closure gives them
    assert _code_digest(make()) == digest


@pytest.mark.slow
def test_sl2_f167_at_the_cap_keeps_its_element_order_and_classes():
    g = sl_group(2, 167)
    assert g.order == 4657296 and isinstance(g._keys, DenseKeys)
    assert _code_digest(g) == "1c910bea7a811899b0a2c62bb43416bd56a882aba86034a5d98f43342941cf92"
    assert conjugacy_classes(g).num_classes == 167 + 4


def _sorted_closure(generators, F, n) -> np.ndarray:
    """The element codes by the closure's rule, with the known codes kept in
    one sorted array: each level's products with the sorted generators, in
    (element, generator) order, add their first occurrences not yet known."""
    kernel = _MatrixKernel(F, n)
    right_maps = [kernel.linear_map(right=g) for g in kernel.digits(sorted(set(generators)))]
    known = level = kernel.codes(kernel.digits([mat_identity(n)]))
    levels = []
    while len(level):
        levels.append(level)
        products = kernel.apply(kernel.decode(level), right_maps).ravel()
        codes, first = np.unique(products, return_index=True)
        pos = np.searchsorted(known, codes)
        fresh = known[np.minimum(pos, len(known) - 1)] != codes
        known = np.insert(known, pos[fresh], codes[fresh])
        level = products[np.sort(first[fresh])]
    return np.concatenate(levels)


@pytest.mark.parametrize("kind,n,q", [("GL", 2, q) for q in (2, 3, 4, 5, 7, 8, 9)]
                         + [("GL", 3, 2), ("GL", 3, 3), ("SL", 2, 3), ("SL", 3, 2), ("SL", 1, 5)]
                         + [("SL", 2, q) for q in (4, 5, 7, 8, 9, 11, 13)] + [("SL", 3, 4)])
def test_the_dense_closure_gives_the_sorted_closures_element_order(kind, n, q):
    dense = (gl_group if kind == "GL" else sl_group)(n, q)
    assert isinstance(dense._keys, DenseKeys)
    F = dense.field
    generators = (gl_generators if kind == "GL" else sl_generators)(n, F)
    by_sort = _sorted_closure(generators, F, n)
    assert np.array_equal(dense.kernel.codes(dense.digits), by_sort)
    gens = dense.kernel.codes(dense.kernel.digits(sorted(set(generators))))
    assert dense.generator_indices == [int(np.flatnonzero(by_sort == c)[0]) for c in gens]


@pytest.mark.parametrize("make,order", [
    (lambda: gl_group.__wrapped__(3, 3), 11232),  # past the cache
    (lambda: sl_group.__wrapped__(2, 11), 1320),
    (lambda: sl_group.__wrapped__(3, 4), 60480),
], ids=["GL3(F3)", "SL2(F11)", "SL3(F4)"])
def test_the_closures_sort_nothing_and_build_one_dense_index(monkeypatch, make, order):
    def unreachable(*args, **kwargs):
        raise AssertionError("the sorted closure was reached")

    for name in ("unique", "searchsorted", "insert", "argsort"):
        monkeypatch.setattr(matgroup.np, name, unreachable)
    built = []
    dense_init = DenseKeys.__init__
    monkeypatch.setattr(DenseKeys, "__init__",
                        lambda self, *args: built.append(args) or dense_init(self, *args))
    g = make()
    assert g.order == order and len(built) == 1 and isinstance(g._keys, DenseKeys)


def _per_power_maps(group, cd):
    """The power-map columns, orders, exponent and inverse classes by one
    `mul_many` per power, rep^k -> rep^(k+1), until every rep returns to
    the identity (element 0)."""
    reps = np.array(cd.class_reps)
    cur, columns, orders = np.zeros(len(reps), dtype=np.intp), [], np.zeros(len(reps), dtype=int)
    while not orders.all():
        columns.append(cd.class_of[cur])
        cur = group.mul_many(cur, reps)
        orders[(cur == 0) & (orders == 0)] = len(columns)
    powers = np.array(columns).T
    power_map = [powers[c, :d].tolist() for c, d in enumerate(orders)]
    return power_map, orders.tolist(), lcm(*orders.tolist()), [row[-1] for row in power_map]


@pytest.mark.parametrize("make", [
    lambda: gl_group(2, 9),
    lambda: direct_product(gl_group(2, 2), sl_group(2, 3)),
], ids=["GL2(F9)", "GL2(F2)xSL2(F3)"])
def test_power_maps_by_doubling_equal_the_per_power_loop(make):
    g = make()
    cd = conjugacy_classes(g)
    assert (cd.power_map, cd.rep_orders, cd.exponent, cd.inverse_class) == _per_power_maps(g, cd)


@pytest.mark.parametrize("n,q,digest", [
    (2, 7, "cd120961968d372bc78bdd3510dca6b70833656a392952b9362af63233cfeddc"),
    (3, 3, "ff8ee5de762fac426915a5210a0bc699fb83e175bc0ac6e6435a359b92f41b4a"),
    (2, 9, "bfa0729cc310772285a96e5eafc37da8ad669bbc21b632a4309390c9f3f11d22"),
])
def test_the_breadth_first_element_order_is_pinned(n, q, digest):
    g = gl_group(n, q)
    assert g.digits.dtype == np.uint8
    assert hashlib.sha256(g.digits.tobytes()).hexdigest() == digest


def test_direct_product_classes_are_pinned():
    """`ProductGroupTable` takes its fixed-factor products from its factors'
    linear maps; its class data must not move."""
    cd = conjugacy_classes(direct_product(gl_group(2, 3), sl_group(2, 4)))
    blob = json.dumps([cd.class_of.tolist(), cd.class_reps, cd.class_sizes, cd.power_map])
    assert cd.num_classes == 40
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "d18a31ccad406e6bcd1fb760642d701c91dd8b07853db75615e451e46ad70c4a")


def _gathered_conjugations(g):
    """x -> g x g^-1 per generator from `mul_many` alone, the inverse found
    as the element whose product with g is the identity (element 0)."""
    everything, perms = np.arange(g.order), []
    for gen in g.generator_indices:
        inverse = int(np.flatnonzero(g.mul_many(gen, everything) == 0)[0])
        perms.append(g.mul_many(g.mul_many(gen, everything), inverse))
    return perms


@pytest.mark.parametrize("make", [
    lambda: gl_group(2, 4),
    lambda: gl_group(2, 5),
    lambda: gl_group(3, 2),
    lambda: direct_product(gl_group(2, 3), sl_group(2, 4)),
], ids=["2-4", "2-5", "3-2", "GL2(F3)xSL2(F4)"])
def test_matrix_fixed_factor_products_agree_with_the_generic_defaults(make):
    # the references take products and inverses from `mul_many` (the gather
    # product) alone, independent of the linear maps
    g = make()
    reps = np.asarray(conjugacy_classes(g).class_reps)
    xs = np.arange(0, g.order, 3)
    assert np.array_equal(g.mul_right(xs, reps), g.mul_many(xs[:, None], reps[None, :]))
    for mine, theirs in zip(g.conjugations(), _gathered_conjugations(g), strict=True):
        assert np.array_equal(mine, theirs)
