"""Pivot-loop references for the modular elimination in `dixon`: row
reduction mod l one row at a time, a nullspace basis filled one entry at a
time, and the characteristic polynomial by a Hessenberg reduction one row
at a time.  They are the routines the package used before each pivot became
one masked rank-1 update on the whole matrix, and each Hessenberg column
one similarity."""

import numpy as np


def mod_rref(M: np.ndarray, l: int) -> tuple[np.ndarray, list[int]]:
    M = M.copy() % l
    rows, cols = M.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = None
        for rr in range(r, rows):
            if M[rr, c]:
                piv = rr
                break
        if piv is None:
            continue
        if piv != r:
            M[[r, piv]] = M[[piv, r]]
        M[r] = (M[r] * pow(int(M[r, c]), l - 2, l)) % l
        for rr in range(rows):
            if rr != r and M[rr, c]:
                M[rr] = (M[rr] - M[rr, c] * M[r]) % l
        pivots.append(c)
        r += 1
    return M[:r], pivots


def mod_nullspace(M: np.ndarray, l: int) -> np.ndarray:
    """Rows spanning {x : M x = 0 (mod l)}."""
    R, pivots = mod_rref(M, l)
    cols = M.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for bi, fc in enumerate(free):
        basis[bi, fc] = 1
        for ri, pc in enumerate(pivots):
            basis[bi, pc] = (-int(R[ri, fc])) % l
    return basis


def mod_charpoly(M: np.ndarray, l: int) -> list[int]:
    """Characteristic polynomial mod l, lowest degree first, monic: the
    Hessenberg reduction one row operation (and its inverse column
    operation) at a time, then the recurrence over the leading blocks one
    coefficient at a time."""
    H = M.copy() % l
    n = H.shape[0]
    for c in range(n - 2):
        piv = None
        for r in range(c + 1, n):
            if H[r, c]:
                piv = r
                break
        if piv is None:
            continue
        if piv != c + 1:
            H[[c + 1, piv]] = H[[piv, c + 1]]
            H[:, [c + 1, piv]] = H[:, [piv, c + 1]]
        inv = pow(int(H[c + 1, c]), l - 2, l)
        for r in range(c + 2, n):
            if H[r, c]:
                f = (H[r, c] * inv) % l
                H[r] = (H[r] - f * H[c + 1]) % l
                H[:, c + 1] = (H[:, c + 1] + f * H[:, r]) % l
    # p_m(x) = (x - H[m-1,m-1]) p_{m-1} - sum_i H[m-1-i,m-1] (prod subdiag) p_{m-1-i}
    polys: list[list[int]] = [[1]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        cur = [0] + prev  # x * p_{m-1}
        a = int(H[m - 1, m - 1]) % l
        for j in range(len(prev)):
            cur[j] = (cur[j] - a * prev[j]) % l
        beta = 1
        for i in range(1, m):
            beta = (beta * int(H[m - i, m - i - 1])) % l
            if beta == 0:
                break
            coef = (int(H[m - 1 - i, m - 1]) * beta) % l
            if coef:
                pi = polys[m - 1 - i]
                for j in range(len(pi)):
                    cur[j] = (cur[j] - coef * pi[j]) % l
        polys.append([c % l for c in cur])
    return polys[n]
