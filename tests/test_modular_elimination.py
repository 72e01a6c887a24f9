"""The whole-array modular elimination in `dixon` against the pivot-loop
references: identical RREF and pivots, identical nullspace bases, and the
kernel and rank-nullity properties, over small primes and Dixon-size ones;
the column-at-a-time characteristic polynomial against the row-at-a-time
one; and the Krylov eigenspace split against one nullspace per root."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from modular_reference import mod_charpoly, mod_nullspace, mod_rref

import charzero.dixon as dixon
from charzero.dixon import (_eigenspaces, _mod_charpoly, _mod_nullspace, _mod_rref, _monic_rows,
                            _multiplicities, _start_rows)
from charzero.matgroup import conjugacy_classes, gl_group

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


@st.composite
def single_rows(draw):
    """(u, l): one row, often with leading zeros, sometimes all zero, with
    entries anywhere in 0..l-1 or beyond (the row is reduced first)."""
    l = draw(st.sampled_from(PRIMES))
    cols = draw(st.integers(1, 9))
    lead = draw(st.integers(0, cols))
    tail = draw(st.lists(st.integers(0, 3 * l), min_size=cols - lead, max_size=cols - lead))
    return np.array([[0] * lead + tail], dtype=np.int64), l


@settings(max_examples=300, deadline=None)
@given(single_rows())
@example((np.array([[0, 0, 3, 5]], dtype=np.int64), 7))
@example((np.zeros((1, 3), dtype=np.int64), 1021))
def test_one_row_shortcut_equals_the_rref(case):
    """`_monic_rows` of one row is its RREF, and of a stack of rows, the
    RREF of each nonzero row in turn."""
    u, l = case
    R = _monic_rows(u, l)
    assert R.shape == _mod_rref(u, l)[0].shape and np.array_equal(R, _mod_rref(u, l)[0])
    stack = np.vstack([u, np.zeros_like(u), 2 * u + 1, u])
    want = [_mod_rref(r[None], l)[0] for r in stack]
    assert np.array_equal(_monic_rows(stack, l), np.vstack(want))


# -- the early exit of `_mod_rref` -------------------------------------------


def _spread(cols: int, at: list[int], block: np.ndarray) -> np.ndarray:
    """A matrix of `cols` columns, zero except for the columns of `block`
    placed at the positions `at`."""
    M = np.zeros((block.shape[0], cols), dtype=np.int64)
    M[:, at] = block
    return M


_rng = np.random.default_rng(17)
_L = 9_999_991  # the largest prime below the Dixon search bound


def _near_bound(rows: int, cols: int) -> np.ndarray:
    return _L - 1 - _rng.integers(0, 50, size=(rows, cols))


_A = _near_bound(2, 6)
ZERO_BLOCKS = {
    "all-zero": (np.zeros((4, 6), dtype=np.int64), _L),
    "zero-columns-around-pivots": (_spread(9, [2, 4, 7], _near_bound(3, 3)), _L),
    "zero-columns-around-dependent-columns": (
        _spread(8, [1, 3, 4, 6], _near_bound(4, 2) @ _near_bound(2, 4) % _L), _L),
    "zero-trailing-block": (np.vstack([_A, _near_bound(3, 2) @ _A % _L]), _L),
    "tall": (_spread(2, [1], _near_bound(7, 1)), 1021),
    "wide": (_spread(11, [0, 5, 9, 10], _near_bound(2, 4) % 1321), 1321),
    "single-row": (_spread(5, [3, 4], _near_bound(1, 2)), _L),
    "single-zero-row": (np.zeros((1, 5), dtype=np.int64), 7),
}


@pytest.mark.parametrize("name", ZERO_BLOCKS)
def test_rref_stops_at_a_zero_block_and_matches_the_pivot_loop(name):
    M, l = ZERO_BLOCKS[name]
    R, pivots = _mod_rref(M, l)
    R_ref, pivots_ref = mod_rref(M, l)
    assert pivots == pivots_ref and np.array_equal(R, R_ref)
    assert np.array_equal(_mod_nullspace(M, l), mod_nullspace(M, l))


# -- the characteristic polynomial --------------------------------------------


@pytest.mark.parametrize("l", (7, 1321, 9_999_991))
@pytest.mark.parametrize("n", (1, 2, 3, 5, 16, 33, 64))
def test_charpoly_matches_the_row_at_a_time_reference_on_dense_matrices(n, l):
    rng = np.random.default_rng(1000 * n + l % 1000)
    M = rng.integers(0, l, size=(n, n))
    assert _mod_charpoly(M, l) == mod_charpoly(M, l)


@st.composite
def sparse_matrices(draw):
    """(M, l): an n x n matrix with few nonzero entries, so that Hessenberg
    columns are often already clear and the subdiagonal has zeros."""
    l = draw(st.sampled_from((2, 7, 1321)))
    n = draw(st.integers(0, 12))
    M = np.zeros((n, n), dtype=np.int64)
    for i, j, x in draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)),
                                           st.integers(1, l - 1)), max_size=2 * n)):
        if n:
            M[i, j] = x
    return M, l


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_charpoly_matches_the_row_at_a_time_reference_on_sparse_matrices(case):
    M, l = case
    assert _mod_charpoly(M, l) == mod_charpoly(M, l)


@pytest.mark.slow
def test_charpoly_matches_the_reference_at_size_200():
    M = np.random.default_rng(200).integers(0, 1321, size=(200, 200))
    assert _mod_charpoly(M, 1321) == mod_charpoly(M, 1321)


def test_charpoly_matches_the_reference_on_the_class_matrices_of_gl2_f11(monkeypatch):
    """Every restricted class matrix that the split of GL2(F11) reads."""
    seen = []
    real = dixon._mod_charpoly
    monkeypatch.setattr(dixon, "_mod_charpoly", lambda R, l: seen.append((R, l)) or real(R, l))
    g = gl_group(2, 11)
    dixon.dixon_zero_census(g, conjugacy_classes(g))
    assert len(seen) == 7 and max(len(R) for R, _ in seen) == 120
    for R, l in seen:
        assert real(R, l) == mod_charpoly(R, l)


def test_multiplicities_are_read_from_the_characteristic_polynomial():
    """R with eigenvalues 4, 7, 9, 11 of multiplicities 3, 2, 1, 3; Q[i] holds
    the coefficients of the product of (x - mu) over the other roots."""
    l = 1321
    P = np.random.default_rng(5).integers(0, l, size=(9, 9))
    assert _inverse(P, l) is not None
    R = _conjugate(np.diag([4, 4, 4, 7, 7, 9, 11, 11, 11]), P, l)
    roots = [4, 7, 9, 11]
    Q = []
    for x in roots:
        q = [1]
        for mu in roots:
            if mu != x:
                q = [(a - mu * b) % l for a, b in zip([0] + q, q + [0])]
        Q.append(q)
    p = _mod_charpoly(R, l)
    assert _multiplicities(p, np.array(roots), np.array(Q, dtype=np.int64), l).tolist() == [3, 2, 1, 3]


def test_start_rows_are_fixed_residues_below_l():
    S = _start_rows(5, 40, 101)
    assert S.shape == (6, 40) and (S[0] == 1).all()
    assert S.min() >= 0 and S.max() < 101 and len({r.tobytes() for r in S}) == 6
    assert np.array_equal(S, _start_rows(5, 40, 101))
    assert np.array_equal(_start_rows(3, 40, 101), S[:4])


# -- eigenspaces from one Krylov sequence --------------------------------------


def _inverse(P: np.ndarray, l: int) -> np.ndarray | None:
    s = P.shape[0]
    R, pivots = mod_rref(np.hstack([P, np.eye(s, dtype=np.int64)]), l)
    return R[:, s:] if pivots == list(range(s)) else None


def _conjugate(J: np.ndarray, P: np.ndarray, l: int) -> np.ndarray:
    """P^-1 J P mod l; the rows of P are left eigenvectors when J is diagonal."""
    return _inverse(P, l) @ J % l @ P % l


def _assert_the_nullspace_answer(R: np.ndarray, l: int, roots: list[int],
                                 B: np.ndarray | None = None) -> list[np.ndarray]:
    """`_eigenspaces` lists the roots in increasing order, and the space of each
    equals the RREF of {u : u R = lambda u} B, from the pivot-loop nullspace;
    B is the identity unless given.  Returns the spaces."""
    if B is None:
        B = np.eye(len(R), dtype=np.int64)
    spaces = _eigenspaces(R, B, l)
    assert [lam for lam, _ in spaces] == sorted(set(roots))
    eye = np.eye(R.shape[0], dtype=np.int64)
    for lam, C in spaces:
        want = mod_rref(mod_nullspace((R - lam * eye).T % l, l) @ B % l, l)[0]
        assert C.shape == want.shape and np.array_equal(C, want), lam
    return [C for _, C in spaces]


@st.composite
def triangularizable(draw):
    """(R, l, eigenvalues, B): R = P^-1 J P mod l for an invertible P, with J
    diagonal or, when drawn, with one 2 x 2 Jordan block, so R is not
    diagonalizable; the eigenvalues are drawn from a few values, so most are
    repeated.  B is a random s x tau RREF matrix of rank s, tau >= s, or the
    identity."""
    l = draw(st.sampled_from((7, 11, 101, 1021, 1321)))
    s = draw(st.integers(1, 12))
    pool = draw(st.lists(st.integers(0, l - 1), min_size=1, max_size=4))
    eig = draw(st.lists(st.sampled_from(pool), min_size=s, max_size=s))
    J = np.diag(np.array(eig, dtype=np.int64))
    if s >= 2 and draw(st.booleans()):
        eig[1] = eig[0]
        J[1, 1], J[0, 1] = eig[0], 1
    flat = draw(st.lists(st.integers(0, l - 1), min_size=s * s, max_size=s * s))
    P = np.array(flat, dtype=np.int64).reshape(s, s)
    assume(_inverse(P, l) is not None)
    tau = s + draw(st.integers(0, 4))
    if tau == s:
        B = np.eye(s, dtype=np.int64)
    else:
        flat = draw(st.lists(st.integers(0, l - 1), min_size=s * tau, max_size=s * tau))
        B, pivots = mod_rref(np.array(flat, dtype=np.int64).reshape(s, tau), l)
        assume(len(pivots) == s)
    return _conjugate(J, P, l), l, eig, B


@settings(max_examples=300, deadline=None)
@given(triangularizable())
@example((np.array([[3, 1], [0, 3]], dtype=np.int64), 7, [3, 3], np.eye(2, dtype=np.int64)))
def test_eigenspaces_match_the_nullspace_route(case):
    R, l, eig, B = case
    _assert_the_nullspace_answer(R, l, eig, B)


_P = np.array([[1, 2, 0, 5, 1], [0, 1, 3, 0, 2], [4, 0, 1, 1, 0], [2, 2, 2, 1, 3],
               [1, 0, 0, 4, 1]], dtype=np.int64)


def test_simple_and_repeated_roots_take_no_nullspace(nullspace_nullities):
    l = 101
    P = _P[:4, :4]
    _assert_the_nullspace_answer(_conjugate(np.diag([2, 5, 9, 40]), P, l), l, [2, 5, 9, 40])
    _assert_the_nullspace_answer(_conjugate(np.diag([2, 5, 5, 40]), P, l), l, [2, 5, 5, 40])
    spaces = _assert_the_nullspace_answer(_conjugate(np.diag([5, 5, 5, 40]), P, l), l, [5, 5, 5, 40])
    assert [len(C) for C in spaces] == [3, 1]
    assert nullspace_nullities == []


def test_a_deficient_start_block_takes_the_fallback(nullspace_nullities, monkeypatch):
    """Start rows that repeat one row span only a line of the space of the
    triple root 5, so the ranks sum to 3 < 5: the split falls back to the
    nullspace for each repeated root, and gives the same spaces."""
    l = 101
    R = _conjugate(np.diag([2, 5, 5, 5, 40]), _P, l)
    real = dixon._start_rows
    monkeypatch.setattr(dixon, "_start_rows", lambda count, s, l: real(1, s, l)[[0] + [1] * count])
    spaces = _assert_the_nullspace_answer(R, l, [2, 5, 5, 5, 40])
    assert [len(C) for C in spaces] == [1, 3, 1]
    assert nullspace_nullities == [3]


def test_a_start_row_that_misses_a_space_takes_the_fallback(nullspace_nullities, monkeypatch):
    """The rows of P are the eigenvectors; the all-ones row is (0, 1, 1) in
    that basis, so it has no part in the space of 2.  The next start row
    gives that line; when it is the all-ones row again, the root 2 takes the
    nullspace."""
    l = 101
    P = np.array([[1, 0, 0], [1, 1, 0], [0, 0, 1]], dtype=np.int64)
    assert (np.ones(3, dtype=np.int64) @ _inverse(P, l) % l).tolist() == [0, 1, 1]
    R = _conjugate(np.diag([2, 5, 9]), P, l)
    _assert_the_nullspace_answer(R, l, [2, 5, 9])
    assert nullspace_nullities == []
    monkeypatch.setattr(dixon, "_start_rows",
                        lambda count, s, l: np.ones((count + 1, s), dtype=np.int64))
    _assert_the_nullspace_answer(R, l, [2, 5, 9])
    assert nullspace_nullities == [1]


def test_a_jordan_block_gets_the_nullspace_answer_at_every_root(nullspace_nullities):
    # R has the repeated root 3 with a one-dimensional space and the simple
    # root 7; the Krylov row for 7, (1, 1, 1)(R - 3), is (0, 1, 4), which is
    # not an eigenvector, so the exact check must send 7 to the nullspace
    l = 101
    R = np.array([[3, 1, 0], [0, 3, 0], [0, 0, 7]], dtype=np.int64)
    u = np.ones(3, dtype=np.int64) @ (R - 3 * np.eye(3, dtype=np.int64)) % l
    assert u.tolist() == [0, 1, 4] and ((u @ R - 7 * u) % l).any()
    _assert_the_nullspace_answer(R, l, [3, 3, 7])
    assert nullspace_nullities == [1, 1]
    assert [C.tolist() for _, C in _eigenspaces(R, np.eye(3, dtype=np.int64), l)] == [
        [[0, 1, 0]], [[0, 0, 1]]]


def test_a_characteristic_polynomial_without_roots_gives_no_spaces():
    # x^2 + 1 has no root mod 7, so R has no eigenvector over F_7
    assert _eigenspaces(np.array([[0, 6], [1, 0]], dtype=np.int64), np.eye(2, dtype=np.int64), 7) == []
