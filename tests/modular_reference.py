"""Pivot-loop references for the modular elimination in `dixon`: row
reduction mod l one row at a time, and a nullspace basis filled one entry
at a time.  They are the routines the package used before each pivot became
one masked rank-1 update on the whole matrix."""

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
