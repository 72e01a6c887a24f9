"""Two group-side routes to the Green values, kept as references for the
orbit-table census in `charzero.liefourier`.

The one-matrix-at-a-time route counts the flags fixed by a unipotent u over
projective points (n <= 3), and the centralizer Green value of a Jordan
decomposition Y_s + Y_n is the product of those counts over the blocks of
Y_n in an eigenbasis of Y_s.  Eigenvectors come from an F_q nullspace
basis, and the minimal polynomial from the first linear dependence among
the powers of a matrix.

The batched route (`_flag_census`) conjugates Y_s, and Y_n where Y_s lands
upper triangular, by every element of the enumerated GL_n at once.
"""

import numpy as np

from charzero.ffield import Field, fq_poly_roots, fq_poly_trim
from charzero.liefourier import _is_nilpotent
from charzero.matgroup import MatrixGroupTable, mat_charpoly, mat_identity, mat_inv, mat_mul, rref


def _nullspace_basis(F: Field, rows: list[list[int]]) -> list[list[int]]:
    """Basis of {x : rows @ x = 0} over F_q."""
    ncols = len(rows[0]) if rows else 0
    reduced, pivots = rref(F, rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = F.neg[reduced[r][fc]]
        basis.append(vec)
    return basis


def _min_poly(F: Field, n: int, a: tuple[int, ...]) -> list[int]:
    """Minimal polynomial via the first linear dependence among I, a, a^2...:
    I..a^(k-1) are independent, so the nullspace is spanned by one vector
    whose last coordinate is 1."""
    powers = [mat_identity(n)]
    while True:
        powers.append(mat_mul(F, n, powers[-1], a))
        dependence = _nullspace_basis(F, [list(col) for col in zip(*powers)])
        if dependence:
            return fq_poly_trim(dependence[0])


def _projective_points(F: Field, n: int) -> list[tuple[int, ...]]:
    """Normalized representatives (first nonzero coordinate = 1)."""
    pts = []

    def rec(prefix: list[int], started: bool):
        if len(prefix) == n:
            if started:
                pts.append(tuple(prefix))
            return
        if not started:
            rec(prefix + [0], False)
            rec(prefix + [1], True)
        else:
            for c in range(F.q):
                rec(prefix + [c], True)

    rec([], False)
    return pts


def _apply(F: Field, n: int, a: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for i in range(n):
        acc = 0
        for j in range(n):
            acc = F.add[acc][F.mul[a[i * n + j]][v[j]]]
        out.append(acc)
    return tuple(out)


def flag_count(n: int, F: Field, u: tuple[int, ...]) -> int:
    """Number of complete flags fixed by the unipotent element u, n <= 3."""
    shifted = tuple(F.add[x][F.neg[y]] for x, y in zip(u, mat_identity(n)))
    if not _is_nilpotent(F, n, shifted):
        raise ValueError("element is not unipotent")
    if n == 1:
        return 1
    pts = _projective_points(F, n)
    if n == 2:
        return sum(1 for v in pts if _apply(F, n, u, v) == v)
    # flags = (line, plane): a stable line is a fixed projective point, a
    # stable plane is a fixed point of the transpose action, and incidence
    # is phi(v) = 0
    ut = tuple(u[j * n + i] for i in range(n) for j in range(n))
    fixed_pts = [v for v in pts if _apply(F, n, u, v) == v]
    fixed_planes = [w for w in pts if _apply(F, n, ut, w) == w]
    count = 0
    for v in fixed_pts:
        for w in fixed_planes:
            acc = 0
            for i in range(n):
                acc = F.add[acc][F.mul[v[i]][w[i]]]
            count += acc == 0
    return count


def _eigen_blocks(F: Field, n: int, ys: tuple[int, ...], yn: tuple[int, ...]):
    """For split-semisimple ys: per-eigenvalue blocks of yn in an eigenbasis."""
    vals = sorted(set(fq_poly_roots(F, mat_charpoly(F, n, ys))))
    basis: list[list[int]] = []
    blocks = []
    for a in vals:
        shifted_rows = [
            [F.add[ys[i * n + j]][F.neg[a] if i == j else 0] for j in range(n)]
            for i in range(n)
        ]
        eig = _nullspace_basis(F, shifted_rows)
        if eig:
            blocks.append((a, eig))
            basis.extend(eig)
    if len(basis) != n:
        raise RuntimeError("semisimple part is not split over F_q")
    # change of basis: columns are eigenvectors
    P = tuple(basis[j][i] for i in range(n) for j in range(n))
    yn_b = mat_mul(F, n, mat_mul(F, n, mat_inv(F, n, P), yn), P)
    out = []
    offset = 0
    for a, eig in blocks:
        d = len(eig)
        block = tuple(yn_b[(offset + i) * n + (offset + j)] for i in range(d) for j in range(d))
        # commuting nilpotent part must be block diagonal
        for i in range(d):
            for j in range(n):
                if not (offset <= j < offset + d) and yn_b[(offset + i) * n + j]:
                    raise RuntimeError("nilpotent part is not block diagonal")
        out.append((a, d, block))
        offset += d
    return out


def levi_green_value(F: Field, n: int, ys: tuple[int, ...], yn: tuple[int, ...]) -> int:
    """Green function of the centralizer of a split ys at 1 + yn: product of
    per-eigenblock fixed-flag counts."""
    value = 1
    for _, d, block in _eigen_blocks(F, n, ys, yn):
        u = tuple(F.add[block[i * d + j]][1 if i == j else 0] for i in range(d) for j in range(d))
        value *= flag_count(d, F, u)
    return value


def _inverse_indices(group: MatrixGroupTable) -> np.ndarray:
    """The index of every element's inverse, g^(|G| - 1), by square and
    multiply over the whole group; element 0 is the identity."""
    result, power = np.zeros(group.order, dtype=np.intp), np.arange(group.order)
    e = group.order - 1
    while e:
        if e & 1:
            result = group.mul_many(result, power)
        power = group.mul_many(power, power)
        e >>= 1
    return result


def _flag_census(group: MatrixGroupTable, inverse: np.ndarray, ys: tuple[int, ...],
                 yn: tuple[int, ...]) -> tuple[int, np.ndarray, int]:
    """From the conjugates g ys g^-1 over GL_n (`inverse` is
    `_inverse_indices(group)`): |C_G(ys)|, the base-q codes (entry 0 least
    significant) of the diagonals of the conjugates that are diagonal, in
    element order, and `fixing`, the number of g with g ys g^-1 and
    g yn g^-1 both upper triangular.  That holds exactly when ys and yn fix
    the flag g^-1 F_0 (F_0 the standard flag), and each complete flag is
    g^-1 F_0 for |B| elements g, so `fixing` is |B| times the number of
    complete flags fixed by both ys and 1 + yn."""
    kernel, n, digits = group.kernel, group.dim, group.digits
    row, col = np.divmod(np.arange(n * n), n)

    def conjugates(x: tuple[int, ...], among) -> np.ndarray:
        g = digits[among]
        x = np.broadcast_to(np.array(x, dtype=digits.dtype), g.shape)
        return kernel.product(kernel.product(g, x), digits[inverse[among]])

    conj = conjugates(ys, slice(None))
    cent = int((conj == np.array(ys, dtype=digits.dtype)).all(axis=1).sum())
    diagonals = conj[~conj[:, row != col].any(axis=1)][:, row == col]
    upper = np.flatnonzero(~conj[:, row > col].any(axis=1))
    fixing = int((~conjugates(yn, upper)[:, row > col].any(axis=1)).sum())
    return cent, diagonals.astype(np.int64) @ group.field.q ** np.arange(n), fixing
