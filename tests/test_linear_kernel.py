"""The F_p-linear route of `_MatrixKernel` against the gather product, the
dense code index of GL_n against the sorted one, and pins of the element
and class order that every later stage reads."""

import hashlib
import json

import numpy as np
import pytest

import charzero.matgroup as matgroup
from charzero.errors import ExactnessError
from charzero.ffield import field_for_order
from charzero.matgroup import (
    DenseKeys,
    SortedKeys,
    _check_float32_exact,
    _MatrixKernel,
    conjugacy_classes,
    direct_product,
    gl_group,
    mat_charpoly,
    mat_inv,
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


def test_sl_groups_keep_sorted_keys_and_refuse_the_same_way():
    g = sl_group(2, 5)
    assert isinstance(g._keys, SortedKeys)
    kernel = g.kernel
    not_special = kernel.codes(kernel.digits([(2, 0, 0, 1)]))  # det 2
    with pytest.raises(ExactnessError, match="not an element of the group"):
        g._index_of(not_special)
    assert g.mul_right(np.arange(g.order), np.array([0])).ravel().tolist() == list(range(g.order))


def test_dense_keys_find_positions_and_raise_on_a_miss():
    keys = DenseKeys(np.array([30, 10, 20, 50]), 64)
    assert keys.index_of(np.array([50, 10, 30]), "missing").tolist() == [3, 1, 0]
    with pytest.raises(ExactnessError, match="missing"):
        keys.index_of(np.array([10, 40]), "missing")


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
