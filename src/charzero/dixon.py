"""Exact character tables by the Burnside-Dixon-Schneider method.

The table is computed modulo a prime l = 1 (mod m) with l > 2*sqrt(|G|)
(m the group exponent), as the common eigenvectors of the class matrices.
Following Schneider, the split stops once every eigenspace has dimension
one, and it reads a class matrix M_i only in the rows at the pivot columns
of its multi-row spaces, each built on request at |C_i| products from the
class-algebra identity |C_k| M_i[j, k] = |C_j| #{u in C_i : u rep_j in C_k}
(`_class_rows`).  No whole class matrix, let alone the tau x tau x tau
coefficient tensor, is built: GL_2(F_11) reads 486 rows of 15 matrices
(1 800 rows), 60 892 products against 218 880 for the whole matrices;
GL_3(F_3) 116 of 288 rows, and GL_3(F_4) 437 of 2 580 rows, 1.25 M
products against 8.63 M.  Within one space, every
simple eigenvalue's line comes from one Krylov sequence of the all-ones row
(`_eigenspaces`): the class algebra mod l is split semisimple, so the line
is spanned by that row times m(R) / (x - lambda), m the product of the
distinct eigenvalue factors.  Each such row is kept only after the exact
check u R = lambda u; a repeated eigenvalue, or a row that the check
rejects or that comes out zero, takes one nullspace.  GL_2(F_11) computes 6
nullspaces instead of one per eigenvalue (126).  Each degree d is the one
root of d^2 (mod l) in 0..sqrt(|G|), found by search; l > 2*sqrt(|G|) makes
it unique.

The lift is made once per element order d (`_order_values`), and both
routes read it.  The eigenvalue multiplicities of a representative of
order d are recovered by discrete Fourier inversion over the power map;
each is a true integer in [0, degree] < l, so the lift is unambiguous.
They depend only on a character's column of power-map values, so the
classes of order d are inverted together, each distinct column once
(GL_2(F_11): 619 of 4 964).  Reduced mod Phi_d they give the phi(d) exact
coordinates of the value in Z[zeta_d], checked against the modular table
at conductor d.  `dixon_zero_census` marks the values whose coordinates are
all 0; `dixon_character_table` lifts them to Z[zeta_m] by
zeta_d^t = zeta_m^(t m/d), t < phi(d), and holds one CycInt per distinct
value: equal entries are the same object.  Zero detection is the canonical
coordinate test - no tolerance appears anywhere.

Orthogonality is checked independently, from the lifted integer coordinates
only, by embeddings of Z[zeta_m] into F_L for primes L = 1 (mod m).  When
the Galois group permutes the table's values, rows and columns (every
GL_n table here), one embedding and its complex conjugate decide it;
otherwise all phi(m) embeddings do.  Both choices run through one loop,
over primes whose product passes one norm bound that holds for any table.
A table has far fewer distinct values than entries (GL_2(F_11): 126 of
14 400), so only the distinct values are embedded, and the table's image
under an embedding is gathered from theirs through an index array for one
matrix product; no tau x tau x phi(m) array is built.

Determinism: the prime l is minimal, degenerate eigenspaces are split by
class matrices in class-index order, and the finished rows are sorted
canonically (trivial character first, then by degree and coordinates).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .cyclotomic import CycInt, euler_phi, power_rows, prime_factors
from .errors import ExactnessError
from .ffield import is_prime
from .matgroup import ClassData, Group

MAX_CLASSES = 256


# -- modular linear algebra (int64 numpy, entries reduced mod l) ----------


def _mod_inv(a: int, l: int) -> int:
    return pow(int(a), l - 2, l)


def _mod_rref(M: np.ndarray, l: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod l and its pivot columns.  The next pivot
    column is found by one scan of the block not yet reduced, M[r:, c:], and
    the reduction stops once that block is zero; each pivot clears its
    column with one masked rank-1 update on columns c:, the only ones where
    the pivot row is nonzero.  Residues are < l <= 10^7, so the products
    stay inside int64."""
    M = M % l
    rows, cols = M.shape
    pivots: list[int] = []
    r = c = 0
    while r < rows and c < cols:
        live = np.flatnonzero(M[r:, c:].any(axis=0))
        if live.size == 0:
            break
        c += int(live[0])
        piv = r + int(np.flatnonzero(M[r:, c])[0])
        if piv != r:
            M[[r, piv]] = M[[piv, r]]
        M[r, c:] = M[r, c:] * _mod_inv(M[r, c], l) % l
        f = M[:, c].copy()
        f[r] = 0
        hit = np.flatnonzero(f)
        M[hit, c:] = (M[hit, c:] - f[hit, None] * M[r, c:]) % l
        pivots.append(c)
        r += 1
        c += 1
    return M[:r], pivots


def _mod_nullspace(M: np.ndarray, l: int) -> np.ndarray:
    """Rows spanning {x : M x = 0 (mod l)}, one per free column."""
    R, pivots = _mod_rref(M, l)
    cols = M.shape[1]
    free = np.delete(np.arange(cols), pivots)
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = -R[:, free].T % l
    return basis


def _mod_charpoly(M: np.ndarray, l: int) -> list[int]:
    """Characteristic polynomial mod l via Hessenberg reduction, lowest
    degree first, monic."""
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
        inv = _mod_inv(H[c + 1, c], l)
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


def _mod_poly_roots(coeffs: list[int], l: int) -> list[int]:
    xs = np.arange(l, dtype=np.int64)
    acc = np.zeros(l, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * xs + c) % l
    return sorted(int(x) for x in np.nonzero(acc == 0)[0])


def _eigenspaces(R: np.ndarray, l: int) -> list[tuple[int, np.ndarray]]:
    """For each root lambda of the characteristic polynomial p of R mod l,
    in increasing order, rows spanning {u : u R = lambda u (mod l)}.

    A simple root (p'(lambda) != 0) has a one-dimensional space.  When R is
    diagonalizable over F_l, as every restricted class matrix is (the class
    algebra mod l is split semisimple), that space is spanned by
    u = v q_lambda(R) for q_lambda = m / (x - lambda), m the product of
    (x - mu) over the distinct roots mu, unless the start row v misses it
    (then u = 0).  One Krylov block K[j] = v R^j (v the all-ones row) gives
    every such u at once as Q K, Q the synthetic-division quotients.  A u is
    kept only if it is nonzero and u R = lambda u holds exactly, so it spans
    the space whatever R is; repeated roots and rejected rows take the
    nullspace of (R - lambda)^T.  Every sum has at most tau <= 256 terms
    below l^2 <= 10^14, so int64 holds it."""
    p = _mod_charpoly(R, l)
    roots = _mod_poly_roots(p, l)
    k = len(roots)
    lam = np.array(roots, dtype=np.int64)
    slope = np.zeros(k, dtype=np.int64)  # p'(lambda), by Horner
    for j in range(len(p) - 1, 0, -1):
        slope = (slope * lam + j * p[j]) % l
    m = np.ones(1, dtype=np.int64)  # prod (x - mu), lowest degree first
    for mu in roots:
        m = (np.append(0, m) - mu * np.append(m, 0)) % l
    Q = np.zeros((k, k + 1), dtype=np.int64)  # Q[i, j]: coefficient of x^j in m / (x - roots[i])
    for j in range(k, 0, -1):
        Q[:, j - 1] = (m[j] + lam * Q[:, j]) % l
    K = np.ones((k, R.shape[0]), dtype=np.int64)
    for j in range(1, k):
        K[j] = K[j - 1] @ R % l
    U = Q[:, :k] @ K % l
    kept = (slope != 0) & U.any(axis=1) & (U @ R % l == U * lam[:, None] % l).all(axis=1)
    eye = np.eye(R.shape[0], dtype=np.int64)
    return [(x, U[i : i + 1] if kept[i] else _mod_nullspace((R - x * eye).T % l, l))
            for i, x in enumerate(roots)]


def _degrees(targets: np.ndarray, order: int, l: int) -> np.ndarray:
    """For each target, the d in 0..isqrt(order) with d^2 = target (mod l).
    It is unique when l > 2 sqrt(order): two such d < d' would make l divide
    (d' - d)(d' + d), and both factors lie in (0, l)."""
    hit = np.arange(isqrt(order) + 1, dtype=np.int64) ** 2 % l == targets[:, None]
    if not hit.any(axis=1).all():
        raise ExactnessError(f"a squared degree mod {l} has no root d <= sqrt({order})")
    return hit.argmax(axis=1)


def _least_primitive_root(l: int) -> int:
    factors = prime_factors(l - 1)
    for w in range(2, l):
        if all(pow(w, (l - 1) // f, l) != 1 for f in factors):
            return w
    raise ExactnessError("no primitive root found")


def _primes_1_mod(m: int, lo: int, hi: int) -> Iterator[int]:
    """Primes l = 1 (mod m) with lo < l <= hi, in increasing order."""
    for l in range(lo + (-lo) % m + 1, hi + 1, m):
        if is_prime(l):
            yield l


def dixon_prime(order: int, exponent: int) -> int:
    """Least prime l = 1 (mod exponent), l > 2*sqrt(order), l coprime to
    the group order, below 10^7."""
    for l in _primes_1_mod(exponent, 2 * isqrt(order) + 1, 10**7):
        if order % l != 0:
            return l
    raise RuntimeError(f"no Dixon prime below 10^7 for exponent {exponent}")


# -- tables ----------------------------------------------------------------


@dataclass(frozen=True)
class CharacterTable:
    conductor: int
    degrees: tuple[int, ...]
    values: tuple[tuple[CycInt, ...], ...]  # irreducible x class
    class_sizes: tuple[int, ...]
    class_rep_orders: tuple[int, ...]
    group_order: int

    @property
    def num_classes(self) -> int:
        return len(self.class_sizes)

    def as_dict(self) -> dict:
        """The fields of `to_json`, with the values left as CycInt rows."""
        return {
            "group_order": self.group_order,
            "conductor": self.conductor,
            "num_classes": self.num_classes,
            "degrees": list(self.degrees),
            "class_sizes": list(self.class_sizes),
            "class_rep_orders": list(self.class_rep_orders),
            "values": self.values,
        }

    def to_json(self) -> dict:
        obj = self.as_dict()
        obj["values"] = [[v.to_json() for v in row] for row in self.values]
        return obj

    @staticmethod
    def from_json(obj: dict) -> "CharacterTable":
        return CharacterTable(
            conductor=int(obj["conductor"]),
            degrees=tuple(int(d) for d in obj["degrees"]),
            values=tuple(
                tuple(CycInt.from_json(v) for v in row) for row in obj["values"]
            ),
            class_sizes=tuple(int(s) for s in obj["class_sizes"]),
            class_rep_orders=tuple(int(s) for s in obj["class_rep_orders"]),
            group_order=int(obj["group_order"]),
        )


@dataclass(frozen=True)
class ZeroReport:
    zero_entries: int
    total_entries: int
    ratio: Fraction
    per_character_zero_counts: tuple[int, ...]

    @staticmethod
    def of_mask(zero: np.ndarray) -> "ZeroReport":
        """Census of a table from its (rows x columns) boolean zero mask."""
        per_row = tuple(zero.sum(axis=1).tolist())
        zeros = sum(per_row)
        return ZeroReport(zeros, zero.size, Fraction(zeros, zero.size), per_row)


# -- the algorithm ----------------------------------------------------------


def _class_rows(group: Group, cd: ClassData) -> Callable[[int, Sequence[int]], np.ndarray]:
    """A memoised `class_rows(i, js)`: the rows js of the tau x tau class
    matrix M_i, M_i[j, k] = #{(u, v) in C_i x C_j : u v = rep_k}, each row
    built on its first request.

    Counting the triples u v = w in C_i x C_j x C_k by w and by v gives
    |C_k| M_i[j, k] = |C_j| #{u in C_i : u rep_j in C_k}, so row j is one
    bincount of the classes of the |C_i| products u rep_j, times |C_j| and
    divided by |C_k|; an inexact division raises `ExactnessError`.  The
    products u rep_j have a fixed factor, so the missing rows are batched
    several per `mul_right` call, each rep_j one F_p-linear map of a matrix
    group (built once per representative, stacked per batch), with at most
    |G| products per call, so no temporary outgrows the group."""
    tau = cd.num_classes
    class_of = cd.class_of
    reps = np.asarray(cd.class_reps)
    sizes = np.asarray(cd.class_sizes, dtype=np.int64)
    built: dict[tuple[int, int], np.ndarray] = {}

    def class_rows(i: int, js: Sequence[int]) -> np.ndarray:
        missing = [j for j in dict.fromkeys(js) if (i, j) not in built]
        if missing:
            us = np.flatnonzero(class_of == i)
            step = group.order // len(us)  # rows per call, for at most |G| products
            for s in range(0, len(missing), step):
                batch = np.array(missing[s : s + step])
                w = len(batch)
                cell = class_of[group.mul_right(us, reps[batch])] + tau * np.arange(w)
                count = np.bincount(cell.ravel(), minlength=tau * w).reshape(w, tau)
                rows, rem = np.divmod(count * sizes[batch, None], sizes)
                if rem.any():
                    raise ExactnessError(
                        f"|C_j| times a class-row count is not divisible by |C_k| (class {i})")
                built.update(((i, j), row) for j, row in zip(batch.tolist(), rows))
        return np.array([built[i, j] for j in js])

    return class_rows


def _distinct_rows(blocks: Iterable[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the blocks stacked in turn, in first-seen order,
    and the index of each stacked row among them.  Keyed on row bytes one
    block at a time, so the stack is never built; `np.unique` with axis=0
    sorts the rows as void records, several times slower."""
    seen: dict[bytes, int] = {}
    rows: list[np.ndarray] = []
    inverse: list[int] = []
    for X in blocks:
        for r in X:
            i = seen.setdefault(r.tobytes(), len(rows))
            if i == len(rows):
                rows.append(r)
            inverse.append(i)
    return np.array(rows), np.array(inverse, dtype=np.int64)


def _rref_row(u: np.ndarray, l: int) -> np.ndarray:
    """`_mod_rref(u, l)[0]` for a one-row u: the row scaled by the inverse
    of its first nonzero entry (no rows if it is zero)."""
    u = u % l
    lead = np.flatnonzero(u[0])
    return u * _mod_inv(u[0, lead[0]], l) % l if lead.size else u[:0]


def _common_eigenrows(class_rows: Callable[[int, Sequence[int]], np.ndarray], tau: int,
                      l: int) -> np.ndarray:
    """Rows u with u * M_i.T = lambda_i u for every class matrix M_i,
    normalized so the identity-class coordinate is 1.  Splits degenerate
    eigenspaces by adjoining class matrices in index order until every space
    has dimension one.  A space B (in RREF, pivot columns P) reads M_i only
    through (B M_i^T)[:, P] = B (M_i[P, :])^T, so only the rows
    `class_rows(i, P)` of multi-row spaces are built."""
    # every space is kept in RREF (it is `eye` or comes from `_mod_rref` or
    # `_rref_row`), so its pivots are the first nonzero column of each row
    spaces: list[np.ndarray] = [np.eye(tau, dtype=np.int64)]
    for i in range(1, tau):
        pivots = [(B != 0).argmax(axis=1) for B in spaces if B.shape[0] > 1]
        if not pivots:
            break
        read = class_rows(i, np.concatenate(pivots).tolist()) % l
        rows = iter(np.split(read, np.cumsum([len(P) for P in pivots])[:-1]))
        new_spaces: list[np.ndarray] = []
        for B in spaces:
            if B.shape[0] == 1:
                new_spaces.append(B)
                continue
            R = B @ next(rows).T % l
            if np.array_equal(R, R[0, 0] * np.eye(len(R), dtype=np.int64)):
                new_spaces.append(B)  # a diagonalizable R with one eigenvalue is scalar
                continue
            for _, C in _eigenspaces(R, l):
                U = C @ B % l
                new_spaces.append(_rref_row(U, l) if len(U) == 1 else _mod_rref(U, l)[0])
        spaces = new_spaces
    if any(s.shape[0] != 1 for s in spaces) or len(spaces) != tau:
        raise ExactnessError(
            "class-matrix eigenspaces failed to split to dimension one; "
            "this signals a bug in the class data"
        )
    rows = np.vstack(spaces)
    lead = rows[:, 0]
    if not lead.all():
        raise ExactnessError("eigenvector has zero identity coordinate")
    inv = np.array([_mod_inv(a, l) for a in lead.tolist()], dtype=np.int64)
    return rows * inv[:, None] % l


class _ModularTable(NamedTuple):
    """The table modulo the Dixon prime l: rows[chi, k] = chi(g_k) mod l, in
    eigenvector order, the degrees, and z, the primitive m-th root of unity
    in F_l that the lift maps zeta_m to."""

    l: int
    z: int
    degrees: np.ndarray
    rows: np.ndarray


def _modular_table(group: Group, cd: ClassData) -> _ModularTable:
    tau = cd.num_classes
    if tau > MAX_CLASSES:
        raise ValueError(f"class count {tau} exceeds supported maximum {MAX_CLASSES}")
    order = group.order
    m = cd.exponent
    l = dixon_prime(order, m)
    omega = _common_eigenrows(_class_rows(group, cd), tau, l)  # tau x tau, omega[chi, k]

    inv_sizes = np.array([_mod_inv(s, l) for s in cd.class_sizes], dtype=np.int64)

    # degree^2 = |G| / sum_k omega_k omega_{k^-1} / |C_k|
    sums = (omega * omega[:, cd.inverse_class] % l * inv_sizes % l).sum(axis=1) % l
    targets = np.array([order % l * _mod_inv(s, l) % l for s in sums.tolist()], dtype=np.int64)
    degrees = _degrees(targets, order, l)
    z = pow(_least_primitive_root(l), (l - 1) // m, l)
    return _ModularTable(l, z, degrees, omega * degrees[:, None] % l * inv_sizes % l)


def _order_values(cd: ClassData, mt: _ModularTable, order: int
                  ) -> Iterator[tuple[int, list[int], np.ndarray, np.ndarray]]:
    """For each element order d, in order of first appearance among the
    classes: (d, ks, inv, C), where ks are the classes of order d, C[x] the
    phi(d) canonical coordinates in Z[zeta_d] of one value chi(g), and
    inv[chi, j] the row of C of character chi at class ks[j].

    The multiplicities MU[t, x] of zeta_d^t among the eigenvalues of g are
    the discrete Fourier inversion, over the powers of z^(m/d), of the
    distinct power-map columns X[x] (chi(g^t) mod l for t < d; equal
    columns have equal multiplicities, so each is inverted once).  Each is
    checked to be a true integer in [0, degree] summing to the degree (less
    than l, so the lift is unambiguous).  Then chi(g) = sum_t MU[t] zeta_d^t,
    and C = MU[:phi].T + MU[phi:].T x^t mod Phi_d: the powers with t < phi(d)
    are their own rows, and only the d - phi(d) rows past them are built.
    zeta_d -> z^(m/d) must give back chi(g) mod l.  After the last order,
    some character must be 1 everywhere and sum deg^2 = |G|."""
    l, m, tau = mt.l, cd.exponent, cd.num_classes
    by_order: dict[int, list[int]] = {}  # element order d -> the classes of that order
    for k, d in enumerate(cd.rep_orders):
        by_order.setdefault(d, []).append(k)
    trivial = np.ones(tau, dtype=bool)  # characters whose values so far are all 1
    for d, ks in by_order.items():
        t = np.arange(d)
        zd = pow(mt.z, m // d, l)
        zd_inv = _mod_inv(zd, l)
        # Vinv[t, j] = zd^(-t j) / d
        pw = np.array([pow(zd_inv, s, l) for s in range(d)], dtype=np.int64)
        Vinv = pw[np.outer(t, t) % d] * _mod_inv(d, l) % l
        X, inv = _distinct_rows(mt.rows[:, cd.power_map[k]] for k in ks)
        MU = Vinv @ X.T % l  # multiplicities of zeta_d^t, exact in [0, degree]
        degree_rows = np.tile(mt.degrees, len(ks))
        if (MU.sum(axis=0)[inv] != degree_rows).any() or (MU.max(axis=0)[inv] > degree_rows).any():
            raise ExactnessError(
                "eigenvalue multiplicities failed the degree bound; "
                "modular table is inconsistent"
            )
        phi = euler_phi(d)
        past = power_rows(d, range(phi, d))  # x^t mod Phi_d for phi(d) <= t < d
        # |coordinate| <= degree * max|past|, as each column of MU sums to the degree
        if past.size and int(np.abs(past).max()) * int(mt.degrees.max()) >= 1 << 62:
            raise ExactnessError(f"the coordinates of order {d} would overflow int64")
        C = MU[:phi].T + MU[phi:].T @ past
        zpow = np.array([pow(zd, i, l) for i in range(phi)], dtype=np.int64)
        if not np.array_equal(C % l @ zpow % l, X[:, 1 % d]):
            raise ExactnessError(f"lifted values of order {d} do not reduce to the modular table")
        inv = inv.reshape(len(ks), tau).T
        trivial &= ((C[:, 0] == 1) & ~C[:, 1:].any(axis=1))[inv].all(axis=1)
        yield d, ks, inv, C
    if not trivial.any():
        raise ExactnessError("trivial character missing from the table")
    if sum(d * d for d in mt.degrees.tolist()) != order:
        raise ExactnessError("sum of squared degrees does not match the group order")


def dixon_character_table(group: Group, cd: ClassData) -> CharacterTable:
    mt = _modular_table(group, cd)
    tau, m, l = cd.num_classes, cd.exponent, mt.l
    # zeta_d^t = zeta_m^(t m/d) for t < phi(d): every order's rows from one
    # call, which builds each exponent shared between orders once
    orders = list(dict.fromkeys(cd.rep_orders))
    phis = [euler_phi(d) for d in orders]
    wanted = np.concatenate([np.arange(f) * (m // d) for d, f in zip(orders, phis)])
    exponents, back = np.unique(wanted, return_inverse=True)
    lift = power_rows(m, exponents)[back]
    roots = dict(zip(orders, np.split(lift, np.cumsum(phis)[:-1])))
    coords: list[np.ndarray] = []  # per order: the conductor-m coordinates of its values
    column = np.empty((tau, tau), dtype=np.int64)  # row of chi_i(g_k) in the stacked coords
    start = 0
    for d, ks, inv, C in _order_values(cd, mt, group.order):
        R = roots[d]
        # |coordinate of C @ R| <= phi(d) * max|C| * max|R|
        if C.shape[1] * int(np.abs(C).max()) * int(np.abs(R).max()) >= 1 << 62:
            raise ExactnessError(f"the coordinates of order {d} would overflow int64 at conductor {m}")
        coords.append(C @ R)
        column[:, ks] = start + inv
        start += len(C)
    D, entry = _distinct_rows(coords)
    entry = entry[column]  # entry[i, k]: row of chi_i(g_k) in D

    # modular consistency: mapping zeta_m -> z must reproduce the mod-l table
    zpow = np.array([pow(mt.z, i, l) for i in range(euler_phi(m))], dtype=np.int64)
    if not np.array_equal((D % l @ zpow % l)[entry], mt.rows):
        raise ExactnessError("lifted table does not reduce to the modular table")

    distinct = [CycInt(m, c) for c in map(tuple, D.tolist())]
    rows = [tuple(distinct[e] for e in row) for row in entry.tolist()]

    # canonical presentation: trivial character first, then by degree/values
    paired = sorted(
        zip(mt.degrees.tolist(), rows),
        key=lambda dr: (
            not all(v == 1 for v in dr[1]),  # trivial row first
            dr[0],
            tuple(v.coeffs for v in dr[1]),
        ),
    )
    return CharacterTable(
        conductor=m,
        degrees=tuple(d for d, _ in paired),
        values=tuple(r for _, r in paired),
        class_sizes=tuple(cd.class_sizes),
        class_rep_orders=tuple(cd.rep_orders),
        group_order=group.order,
    )


def dixon_zero_census(group: Group, cd: ClassData) -> ZeroReport:
    """The census `zero_census(dixon_character_table(group, cd))`, counted
    from the Z[zeta_d] coordinates of `_order_values` without building the
    table: no conductor-m row, `CycInt` or sort.  `per_character_zero_counts`
    come in eigenvector order (the order of the split), not the table's
    canonical row order; as multisets they agree."""
    mt = _modular_table(group, cd)
    zero = np.zeros((cd.num_classes, cd.num_classes), dtype=bool)
    for _, ks, inv, C in _order_values(cd, mt, group.order):
        zero[:, ks] = ~C.any(axis=1)[inv]
    return ZeroReport.of_mask(zero)


# -- censuses and checks ----------------------------------------------------


def zero_census(t: CharacterTable) -> ZeroReport:
    """Equal entries of a Dixon table are one shared `CycInt`, so each
    distinct value object is tested once, keyed by its id within the call."""
    distinct = {id(v): v for row in t.values for v in row}
    zero = {key: v.is_zero() for key, v in distinct.items()}
    return ZeroReport.of_mask(np.array([[zero[id(v)] for v in row] for row in t.values]))


def _orthogonality_primes(t: CharacterTable, need: int) -> Iterator[int]:
    """Primes L = 1 (mod m) with max(tau, phi) * (L-1)^2 < 2^63, so no int64
    dot product of residues overflows, until their product exceeds `need`."""
    m = t.conductor
    hi = isqrt(((1 << 63) - 1) // max(t.num_classes, euler_phi(m))) + 1
    covered = 1
    for L in _primes_1_mod(m, hi // 2, hi):
        yield L
        covered *= L
        if covered > need:
            return
    raise ExactnessError(f"too few primes = 1 (mod {m}) below {hi} for an exact check")


def _unit_generators(m: int) -> list[int]:
    """Generators of (Z/m)^x: each unit, in increasing order, that the
    units before it do not generate."""
    span: set[int] = {1 % m}
    gens: list[int] = []
    for a in range(2, m):
        if gcd(a, m) != 1 or a in span:
            continue
        gens.append(a)
        grown, power = set(span), a
        while power not in span:  # the cosets span * a^k, until a^k is back in span
            grown.update(h * power % m for h in span)
            power = power * a % m
        span = grown
    return gens


def _galois_stable(t: CharacterTable, D: np.ndarray, entry: np.ndarray, l1: int) -> bool:
    """Whether every generator sigma_a: zeta_m -> zeta_m^a of the Galois
    group maps the distinct values D (l1 the largest sum of |coordinates|)
    into themselves, permutes the rows of the table `entry` bijectively, and
    permutes its columns bijectively between classes of equal size."""
    m, tau = t.conductor, t.num_classes
    sizes = np.array(t.class_sizes, dtype=np.int64)
    value_of = {x.tobytes(): i for i, x in enumerate(D)}
    row_of = {r.tobytes(): i for i, r in enumerate(entry)}
    col_of = {c.tobytes(): k for k, c in enumerate(entry.T)}
    xs, js = np.nonzero(D)  # a few percent of the coordinates
    terms = D[xs, js][:, None]
    # only the exponents with a nonzero coordinate are read; js now indexes them
    exponents, js = np.unique(js, return_inverse=True)
    for a in _unit_generators(m):
        G = power_rows(m, exponents * a)  # G[i] = sigma_a(zeta^exponents[i])
        if l1 * max(int(G.max()), -int(G.min())) >= 1 << 63:  # bounds every partial sum below
            raise ExactnessError(f"Galois images of the values would overflow int64 (m = {m})")
        # sigma_a(D) over the nonzero coordinates only, 64 of them at a time
        # so that no temporary holds more than 64 rows
        images = np.zeros_like(D)
        for s in range(0, len(xs), 64):
            np.add.at(images, xs[s : s + 64], terms[s : s + 64] * G[js[s : s + 64]])
        image = [value_of.get(x.tobytes()) for x in images]
        if None in image:
            return False
        moved = np.array(image, dtype=np.int64)[entry]  # sigma_a of the table
        rows = [row_of.get(r.tobytes()) for r in moved]
        cols = [col_of.get(c.tobytes()) for c in moved.T]
        # a lookup can succeed for two rows (or columns) that map to one
        if None in rows or None in cols or len(set(rows)) < tau or len(set(cols)) < tau:
            return False
        if (sizes[cols] != sizes).any():
            return False
    return True


def _embeddings_orthogonal(t: CharacterTable, D: np.ndarray, entry: np.ndarray, l1: int,
                           exponents: list[int]) -> bool:
    """Row and column orthogonality, modulo primes L = 1 (mod m) whose
    product exceeds 2 (sum_k |C_k| l1^2 + |G|), of the table's images under
    zeta_m -> z^a for a in `exponents` (closed under a -> -a), one conjugate
    pair at a time; D holds the distinct values and entry[i, k] indexes D."""
    m, tau, order = t.conductor, t.num_classes, t.group_order
    phi = D.shape[1]
    conj = [exponents.index(-a % m) for a in exponents]
    pairs = [i for i in range(len(exponents)) if i <= conj[i]]  # one of each pair (a, -a)
    entry_t = np.ascontiguousarray(entry.T)
    sizes = np.array(t.class_sizes, dtype=np.int64)
    centralizers = np.array([order // s for s in t.class_sizes], dtype=np.int64)
    for L in _orthogonality_primes(t, 2 * (sum(t.class_sizes) * l1 * l1 + order)):
        z = pow(_least_primitive_root(L), (L - 1) // m, L)
        V = np.ones((phi, len(exponents)), dtype=np.int64)  # V[u, i] = z^(exponents[i] * u)
        step = np.array([pow(z, a, L) for a in exponents], dtype=np.int64)
        for u in range(1, phi):
            V[u] = V[u - 1] * step % L
        E = np.ascontiguousarray((D % L @ V % L).T)  # E[i, x]: value x at zeta -> z^exponents[i]
        for a in pairs:
            # C-contiguous gathers (fancy indexing gives strided ones, which
            # slow the int64 matmul several times)
            X = np.take(E[a], entry)  # X[i, k]: chi_i(g_k) under the embedding
            Yt = np.take(E[conj[a]], entry_t)  # Yt[k, j]: chi_j(g_k) under its conjugate
            if not (X * (sizes % L) % L @ Yt % L == np.diag(np.full(tau, order % L))).all():
                return False
            # columns: Yt @ X is the transpose of X^T Yt^T, and the target is diagonal
            if not (Yt @ X % L == np.diag(centralizers % L)).all():
                return False
    return True


def verify_orthogonality(t: CharacterTable) -> bool:
    """Exact row and column orthogonality in cyclotomic arithmetic.

    With X the table, S = diag(|C_k|) and c_k = |G| / |C_k|, the check is
    E_row = X S X* - |G| I = 0 and E_col = X* X - diag(c) = 0, entrywise in
    Z[zeta_m].  It works modulo primes L = 1 (mod m) through the embeddings
    zeta_m -> z^a of Z[zeta_m] into F_L, z of order m and gcd(a, m) = 1;
    complex conjugation is the embedding at -a.  Only the table's distinct
    values are embedded, and the table's image is gathered from theirs.

    The bound.  With M the largest sum of |coordinates| of a value
    (|zeta^i| = 1), each complex embedding of an entry of E is at most
    B = (sum_k |C_k|) M^2 + |G| (tau <= sum_k |C_k| covers E_col, whose sums
    have tau terms).  The phi(m) embeddings mod L map the coordinate vector
    v of an entry to V v, V the Vandermonde matrix on the distinct z^a,
    invertible mod L; so if all of them vanish, v = 0 (mod L).  Over primes
    with product N the entry is then N y with y in Z[zeta_m]; for y != 0 its
    norm is a nonzero multiple of N^phi, and at most B^phi.  So N > B forces
    E = 0, and the primes run until N > 2B.

    The embeddings.  All phi(m) of them, unless the table is Galois-stable:
    for every generator a of (Z/m)^x, sigma_a: zeta_m -> zeta_m^a maps the
    distinct values into themselves, sigma_a(X) = P X for a permutation
    matrix P, and sigma_a(X) = X Q for a permutation matrix Q that moves
    each class to one of the same size.  A row or column lookup that merely
    succeeds is not enough: P and Q must be bijections, or two rows could
    map to one and the identities below fail.  P and Q are rational, so
    sigma_ab(X) = sigma_a(P_b X) = P_b P_a X, and likewise on the right:
    checking generators covers every sigma_b.  Gal(Q(zeta_m)/Q) is abelian,
    so sigma_b commutes with complex conjugation (sigma_-1); with
    Q^T diag(c) Q = diag(c) from the class sizes,

        sigma_b(E_row) = P E_row P^T  and  sigma_b(E_col) = Q^T E_col Q.

    So the embedding at b of an entry of E is the embedding at 1 of another
    entry, and zeta_m -> z with its conjugate decide the check.  A value,
    row or column without its image sends the table to all phi(m)
    embeddings unchanged, so every verdict is that of the all-embeddings
    check.
    """
    # index the entries by value object first (a Dixon table shares one
    # CycInt per distinct value), then the few objects by coordinates, so a
    # table whose equal values are separate objects gets the same D
    objects = {id(v): v for row in t.values for v in row}
    distinct: dict[tuple[int, ...], int] = {}  # coordinates -> index of the distinct value
    value_of = {key: distinct.setdefault(v.coeffs, len(distinct)) for key, v in objects.items()}
    entry = np.array([[value_of[id(v)] for v in row] for row in t.values], dtype=np.int64)
    D = np.array(list(distinct), dtype=np.int64)  # distinct values x phi
    l1 = max(sum(map(abs, c)) for c in distinct)
    m = t.conductor
    if _galois_stable(t, D, entry, l1):
        exponents = sorted({1 % m, -1 % m})
    else:
        exponents = [a for a in range(m) if gcd(a, m) == 1]
    return _embeddings_orthogonal(t, D, entry, l1, exponents)
