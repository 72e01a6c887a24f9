"""The whole-array modular elimination in `dixon` against the pivot-loop
references: identical RREF and pivots, identical nullspace bases, and the
kernel and rank-nullity properties, over small primes and Dixon-size ones."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modular_reference import mod_nullspace, mod_rref

from charzero.dixon import _mod_nullspace, _mod_rref

# small primes, the Dixon primes of GL2(F16) and GL2(F11), and the largest
# prime below the Dixon search bound 10^7
PRIMES = (2, 3, 5, 7, 1021, 1321, 9_999_991)


@st.composite
def matrices(draw):
    """(M, l): random entries, or a product of two random factors through at
    most `rank` columns (rank-deficient), with some rows set to zero."""
    l = draw(st.sampled_from(PRIMES))
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))

    def block(r, c):
        flat = draw(st.lists(st.integers(0, l - 1), min_size=r * c, max_size=r * c))
        return np.array(flat, dtype=np.int64).reshape(r, c)

    if draw(st.booleans()):
        M = block(rows, cols)
    else:
        rank = draw(st.integers(0, min(rows, cols)))
        M = block(rows, rank) @ block(rank, cols) % l
    zero = draw(st.lists(st.integers(0, max(rows - 1, 0)), max_size=rows))
    if rows:
        M[zero] = 0
    return M, l


EDGES = [
    (np.zeros((0, 4), dtype=np.int64), 7),
    (np.zeros((4, 0), dtype=np.int64), 7),
    (np.zeros((0, 0), dtype=np.int64), 1021),
    (np.zeros((3, 5), dtype=np.int64), 1021),
]


def _with_edges(test):
    for case in EDGES:
        test = example(case)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(matrices())
@_with_edges
def test_rref_matches_the_pivot_loop(case):
    M, l = case
    R, pivots = _mod_rref(M, l)
    R_ref, pivots_ref = mod_rref(M, l)
    assert pivots == pivots_ref
    assert R.shape == R_ref.shape and np.array_equal(R, R_ref)


@settings(max_examples=300, deadline=None)
@given(matrices())
@_with_edges
def test_nullspace_matches_the_pivot_loop_and_is_the_kernel(case):
    M, l = case
    N = _mod_nullspace(M, l)
    assert N.shape == mod_nullspace(M, l).shape and np.array_equal(N, mod_nullspace(M, l))
    assert not (M @ N.T % l).any()
    rank = len(_mod_rref(M, l)[1])
    assert rank + N.shape[0] == M.shape[1]
