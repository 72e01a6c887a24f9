"""Properties of the shared F_q matrix layer: row reduction, inverse, the
base-q matrix codec and the trace form of `_MatrixKernel`, and the sorted-key
lookup of the Weyl orbits; and of the reference nullspace and minimal polynomial that the
Green-value tests rely on."""

import numpy as np
import pytest
from green_reference import _min_poly, _nullspace_basis
from hypothesis import given, settings
from hypothesis import strategies as st

from charzero.errors import ExactnessError
from charzero.ffield import field_for_order, fq_poly_divmod, to_digits
from charzero.matgroup import (
    _MatrixKernel,
    mat_charpoly,
    mat_identity,
    mat_inv,
    mat_mul,
    rref,
)
from charzero.weyl import SortedKeys

QS = (2, 3, 4, 5, 7, 9)


@st.composite
def square_matrices(draw):
    q = draw(st.sampled_from(QS))
    n = draw(st.integers(1, 3))
    entries = draw(st.lists(st.integers(0, q - 1), min_size=n * n, max_size=n * n))
    return field_for_order(q), n, tuple(entries)


@st.composite
def row_lists(draw):
    q = draw(st.sampled_from(QS))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    row = st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols)
    return field_for_order(q), draw(st.lists(row, min_size=rows, max_size=rows))


def _dot(F, u, v):
    acc = 0
    for x, y in zip(u, v):
        acc = F.add[acc][F.mul[x][y]]
    return acc


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_mat_inv_round_trips_exactly_or_reports_singular(case):
    F, n, a = case
    if mat_charpoly(F, n, a)[0]:  # det(a) = +-charpoly(0)
        b = mat_inv(F, n, a)
        assert mat_mul(F, n, a, b) == mat_identity(n) == mat_mul(F, n, b, a)
    else:
        with pytest.raises(ValueError, match="singular"):
            mat_inv(F, n, a)


@settings(max_examples=200, deadline=None)
@given(row_lists())
def test_rank_plus_nullity_and_nullspace_is_annihilated(case):
    F, rows = case
    ncols = len(rows[0])
    reduced, pivots = rref(F, rows)
    basis = _nullspace_basis(F, rows)
    assert len(reduced) == len(pivots)
    assert len(pivots) + len(basis) == ncols
    for vec in basis:
        assert all(_dot(F, row, vec) == 0 for row in rows)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(QS), st.integers(1, 3), st.data())
def test_codec_round_trips_over_the_code_range(q, n, data):
    kernel = _MatrixKernel(field_for_order(q), n)
    code = data.draw(st.integers(0, q ** (n * n) - 1))
    a = tuple(kernel.decode(np.array([code]))[0].tolist())
    assert a == tuple(to_digits(code, q, n * n))  # entry 0 least significant
    assert kernel.codes(kernel.digits([a])).tolist() == [code]
    assert code == sum(d * q**i for i, d in enumerate(a))


@pytest.mark.parametrize("n,q", [(2, 4), (2, 9), (3, 2)])
def test_decode_inverts_codes_over_the_whole_space(n, q):
    kernel = _MatrixKernel(field_for_order(q), n)
    every = kernel.decode(np.arange(q ** (n * n)))
    assert every.dtype == kernel.dtype
    assert every.tolist() == [to_digits(code, q, n * n) for code in range(q ** (n * n))]
    assert np.array_equal(kernel.codes(every), np.arange(q ** (n * n)))
    assert np.array_equal(kernel.decode(kernel.codes(every)), every)


@pytest.mark.parametrize("q", [4, 8, 9])
def test_trace_form_matches_the_per_element_trace(q):
    F = field_for_order(q)
    kernel = _MatrixKernel(F, 2)
    every = kernel.decode(np.arange(q**4))
    for coeffs in ([1, 0, 0, 0], [0, q - 1, 2, 0], [2, 3, q - 1, 1], [0, 0, 0, 0]):
        expected = []
        for x in every.tolist():
            acc = 0
            for c, d in zip(coeffs, x):
                acc = F.add[acc][F.mul[c][d]]
            expected.append(F.trace_to_prime(acc))
        assert kernel.trace_forms(every, [coeffs])[:, 0].tolist() == expected
    assert set(kernel.trace_forms(every, [[1, 0, 0, 0]])[:, 0].tolist()) == set(range(F.p))


def test_sorted_keys_finds_positions_and_raises_on_a_miss():
    keys = SortedKeys(np.array([30, 10, 20, 50]))
    assert keys.index_of(np.array([50, 10, 10, 30]), "absent").tolist() == [3, 1, 1, 0]
    with pytest.raises(ExactnessError, match="absent"):
        keys.index_of(np.array([20, 40]), "absent")


def test_sorted_keys_refuse_a_repeated_key():
    with pytest.raises(ExactnessError, match="the key 20 occurs twice"):
        SortedKeys(np.array([30, 20, 10, 20]))


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_min_poly_annihilates_and_divides_charpoly(case):
    F, n, a = case
    m = _min_poly(F, n, a)
    assert m[-1] == 1
    value = tuple(0 for _ in range(n * n))
    for c in reversed(m):  # Horner: value = value * a + c * I
        value = mat_mul(F, n, value, a)
        value = tuple(F.add[x][F.mul[c][e]] for x, e in zip(value, mat_identity(n)))
    assert value == tuple(0 for _ in range(n * n))
    _, rem = fq_poly_divmod(F, mat_charpoly(F, n, a), m)
    assert not rem
