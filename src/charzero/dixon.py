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
eigenspace comes from one Krylov sequence of a few fixed start rows and one
reduction (`_eigenspaces`): the class algebra mod l is split semisimple, so
a start row times m(R) / (x - lambda), m the product of the distinct
eigenvalue factors, lies in the lambda-space.  A simple eigenvalue takes
one such row, a repeated one as many as its multiplicity.  One more Krylov
step proves S m(R) = 0 for the start rows S, so every row found is an
eigenvector, and ranks that sum to the size of the space prove that the
rows span every eigenspace; only when either check fails does a root take
a nullspace.  GL_2(F_7), F_9, F_11, F_16, GL_3(F_3) and F_4 take none (one
per repeated root would be 6 at GL_2(F_11), 22 at GL_3(F_4)).  Each degree
d is the one root of d^2 (mod l) in 0..sqrt(|G|), found by search;
l > 2*sqrt(|G|) makes it unique.

The lift is made once per element order d (`_order_values`), and both
routes read it.  As chi(g^a) = sigma_a(chi(g)) for a unit a mod d, only
one class per rational class is inverted (Dixon 1967, Schneider 1990):
the eigenvalue multiplicities at each representative, by discrete Fourier
inversion over the power map, each distinct column once (GL_2(F_11): 33 of
120 classes, 619 distinct of 3 960 columns).  Each is a true integer in
[0, degree] < l, so the lift is unambiguous.  Reduced mod Phi_d they give
the phi(d) exact coordinates of the value in Z[zeta_d], checked against
the modular table at conductor d at every class.  `dixon_zero_census`
marks the values whose coordinates are all 0; `dixon_character_table`
finds each sigma_a image among the values, lifts them to Z[zeta_m] by
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

from .cyclotomic import CycInt, euler_phi, power_rows, prime_factors, unit_generators
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
    degree first, monic.

    Column c is cleared below its subdiagonal by one similarity
    (I - f e_{c+1}^T) H (I + f e_{c+1}^T), f the multipliers of the rows
    c+2.. against the pivot row c+1.  The row operations of one column
    commute (each reads only row c+1, which none of them changes), so this
    is the one-row-at-a-time elimination done at once.  The polynomials
    p_j of the leading j x j blocks then follow the recurrence

        p_j = x p_{j-1} - sum_{t < j} H[t, j-1] b_j[t] p_t,

    b_j[t] the product of the subdiagonal entries H[u, u-1], t < u < j (so
    b_j[j-1] = 1), one vector-matrix product per j over the t past the last
    zero subdiagonal entry.  Every sum has at most n <= 256 terms below
    l^2, so int64 holds it."""
    H = M % l
    n = H.shape[0]
    for c in range(n - 2):
        below = c + 1 + np.flatnonzero(H[c + 1 :, c])  # the first is the pivot row
        if below.size == 0:
            continue
        piv = int(below[0])
        if piv != c + 1:
            H[[c + 1, piv]] = H[[piv, c + 1]]
            H[:, [c + 1, piv]] = H[:, [piv, c + 1]]
        hit = below[1:]  # the rows to clear; the swap put row c+1's zero at piv
        if hit.size:
            f = H[hit, c] * _mod_inv(H[c + 1, c], l) % l
            H[hit] = (H[hit] - f[:, None] * H[c + 1]) % l
            H[:, c + 1] = (H[:, c + 1] + H[:, hit] @ f) % l
    P = np.zeros((n + 1, n + 1), dtype=np.int64)  # P[j]: p_j, lowest degree first
    P[0, 0] = 1
    b = np.ones(n, dtype=np.int64)  # b[start:j] = b_j[start:j]; b_j[j-1] = 1
    start = 0  # b_j[t] = 0 for t < start, past a zero subdiagonal entry
    for j in range(1, n + 1):
        sub = int(H[j - 1, j - 2]) if j > 1 else 1
        if sub == 0:
            start = j - 1
        else:
            b[start : j - 1] = b[start : j - 1] * sub % l
        P[j, 1:] = P[j - 1, :-1]
        P[j] = (P[j] - (H[start:j, j - 1] * b[start:j] % l) @ P[start:j]) % l
    return P[n].tolist()


def _mod_poly_roots(coeffs: list[int], l: int) -> list[int]:
    xs = np.arange(l, dtype=np.int64)
    acc = np.zeros(l, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * xs + c) % l
    return sorted(int(x) for x in np.nonzero(acc == 0)[0])


def _monic_rows(U: np.ndarray, l: int) -> np.ndarray:
    """The nonzero rows of U, each scaled by the inverse of its first nonzero
    entry: for a one-row U, `_mod_rref(U, l)[0]`."""
    U = U % l
    U = U[U.any(axis=1)]
    lead = U[np.arange(len(U)), (U != 0).argmax(axis=1)].tolist()
    return U * np.array([_mod_inv(a, l) for a in lead], dtype=np.int64)[:, None] % l


def _start_rows(count: int, s: int, l: int) -> np.ndarray:
    """The all-ones row, then `count` rows of s residues mod l, entry (i, j)
    the splitmix64 hash of i * 2^32 + j, reduced mod l.  The rows are fixed,
    so a run is reproducible, and look random to the class matrices: over
    the 450 calls of `_eigenspaces` for 14 GL_n and SL_n tables up to
    GL_2(F_16), none falls back, against 47 with the rows (i j + i) mod l."""
    z = np.arange(1, count + 1, dtype=np.uint64)[:, None] << np.uint64(32)
    z = (z | np.arange(s, dtype=np.uint64)) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ z >> np.uint64(30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ z >> np.uint64(27)) * np.uint64(0x94D049BB133111EB)
    z = (z ^ z >> np.uint64(31)) % np.uint64(l)
    return np.vstack([np.ones((1, s), dtype=np.int64), z.astype(np.int64)])


def _multiplicities(p: list[int], lam: np.ndarray, Q: np.ndarray, l: int) -> np.ndarray:
    """tr q(R) / q(lambda) mod l for roots lam of p, the characteristic
    polynomial of R (lowest degree first, monic), with Q[i] the coefficients
    of q = m / (x - lam[i]), m the product of (x - mu) over every distinct
    root.  When p splits over F_l this is the multiplicity a of lam[i]:
    q vanishes at every other root, so tr q(R) = a q(lam[i]).  The traces
    tr R^j come from p by Newton's identities."""
    s, k = len(p) - 1, Q.shape[1]
    c = np.array(p[::-1], dtype=np.int64)  # c[i]: coefficient of x^(s - i)
    sums = np.zeros(k, dtype=np.int64)  # sums[j] = tr R^j
    sums[0] = s % l
    for j in range(1, k):
        sums[j] = -(j * c[j] + c[1:j] @ sums[j - 1 : 0 : -1]) % l
    at_root = np.zeros(len(lam), dtype=np.int64)  # q(lambda), by Horner
    for j in range(k - 1, -1, -1):
        at_root = (at_root * lam + Q[:, j]) % l
    trace = (Q @ sums % l).tolist()
    return np.array([t * _mod_inv(a, l) % l for t, a in zip(trace, at_root.tolist())], dtype=np.int64)


def _eigenspaces(R: np.ndarray, B: np.ndarray, l: int) -> list[tuple[int, np.ndarray]]:
    """For each root lambda of the characteristic polynomial p of R mod l,
    in increasing order, the RREF of {u : u R = lambda u (mod l)} times B
    (s x tau, s = len(R)), so the space in the coordinates of B's columns.

    Every restricted class matrix R is diagonalizable over F_l (the class
    algebra mod l is split semisimple).  Then with m the product of (x - mu)
    over the distinct roots mu and q_lambda = m / (x - lambda), every row
    v q_lambda(R) lies in the lambda-space, and one Krylov sequence
    K[j] = S R^j of a block S of start rows gives them all at once through
    the synthetic-division quotients Q.  A simple root (p'(lambda) != 0) has
    a line, taken from the all-ones row S[0], or from S[1] where S[0] has no
    part in it (the all-ones row misses some lines of SL_2 and GL_2(F_3)).
    A repeated root takes the rows S[1..e] q_lambda(R), with the hint
    e = tr q_lambda(R) / q_lambda(lambda) mod l, its multiplicity when p
    splits (`_multiplicities`); the rows times B are reduced once, in class
    coordinates (B = I is not multiplied).  The all-ones row is left out
    there: it misses some repeated roots' spaces.

    Nothing here trusts R or the hints.  One more Krylov step checks
    S m(R) = 0, and then every row found is an eigenvector, since
    v q_lambda(R) (R - lambda) = v m(R).  The eigenspaces of distinct roots
    are independent, so their dimensions g_lambda sum to at most s; the rank
    found at each root is at most g_lambda, so ranks summing to s force
    every one to equal g_lambda, and the rows span every space.  Otherwise
    (R not diagonalizable, p not split, start rows that miss a space) each
    root takes the nullspace route: a simple root keeps its all-ones row if
    that is a nonzero eigenvector, and every other root takes the nullspace
    of (R - lambda)^T.  Both routes give RREF spaces, which are canonical,
    so the answer does not depend on the route.  The start rows are a fixed
    integer hash (`_start_rows`), so runs are reproducible.  Every sum has
    at most tau <= 256 terms below l^2 <= 10^14, so int64 holds it."""
    s = len(R)
    if np.array_equal(R, R[0, 0] * np.eye(s, dtype=np.int64)):
        return [(int(R[0, 0]), B)]  # a diagonalizable R with one eigenvalue is scalar
    p = _mod_charpoly(R, l)
    roots = _mod_poly_roots(p, l)
    k = len(roots)
    lam = np.array(roots, dtype=np.int64)
    slope = np.zeros(k, dtype=np.int64)  # p'(lambda), by Horner
    for j in range(len(p) - 1, 0, -1):
        slope = (slope * lam + j * p[j]) % l
    m = np.zeros(k + 1, dtype=np.int64)  # prod (x - mu), lowest degree first
    m[0] = 1
    for i, mu in enumerate(roots):  # m[:i+1] holds the product of the first i factors
        m[1 : i + 2] = (m[: i + 1] - mu * m[1 : i + 2]) % l
        m[0] = -mu * m[0] % l
    Q = np.zeros((k, k + 1), dtype=np.int64)  # Q[i, j]: coefficient of x^j in m / (x - roots[i])
    for j in range(k, 0, -1):
        Q[:, j - 1] = (m[j] + lam * Q[:, j]) % l
    Q = Q[:, :k]
    repeated = np.flatnonzero(slope == 0)
    e = np.zeros(k, dtype=np.int64)  # the start rows each repeated root takes
    if repeated.size:
        e[repeated] = np.clip(_multiplicities(p, lam[repeated], Q[repeated], l), 1, s - k + 1)
    K = np.empty((k + 1, max(int(e.max(initial=0)), 1) + 1, s), dtype=np.int64)
    K[0] = _start_rows(K.shape[1] - 1, s, l)
    for j in range(1, k + 1):
        K[j] = K[j - 1] @ R % l
    U = Q @ K[:k, 0] % l  # the all-ones row times q_lambda(R), every root
    to_columns = (lambda W: W) if len(B) == B.shape[1] else (lambda W: W @ B % l)
    simple = np.flatnonzero(slope)
    lines = U[simple]
    missed = ~lines.any(axis=1)  # where the all-ones row misses a line, the next start row
    lines[missed] = Q[simple[missed]] @ K[:k, 1] % l
    lines = _monic_rows(to_columns(lines), l)
    if len(lines) == len(simple) and not (m @ K.reshape(k + 1, -1) % l).any():
        spaces = dict(zip(simple.tolist(), lines[:, None]))
        for i in repeated.tolist():
            W = np.tensordot(Q[i], K[:k, 1 : e[i] + 1], axes=1) % l
            spaces[i] = _mod_rref(to_columns(W), l)[0]
        if sum(map(len, spaces.values())) == s:
            return [(x, spaces[i]) for i, x in enumerate(roots)]
    kept = (slope != 0) & U.any(axis=1) & (U @ R % l == U * lam[:, None] % l).all(axis=1)
    eye = np.eye(s, dtype=np.int64)
    return [(x, _mod_rref((U[i : i + 1] if kept[i] else _mod_nullspace((R - x * eye).T % l, l))
                          @ B % l, l)[0]) for i, x in enumerate(roots)]


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


def _common_eigenrows(class_rows: Callable[[int, Sequence[int]], np.ndarray], tau: int,
                      l: int) -> np.ndarray:
    """Rows u with u * M_i.T = lambda_i u for every class matrix M_i,
    normalized so the identity-class coordinate is 1.  Splits degenerate
    eigenspaces by adjoining class matrices in index order until every space
    has dimension one.  A space B (in RREF, pivot columns P) reads M_i only
    through (B M_i^T)[:, P] = B (M_i[P, :])^T, so only the rows
    `class_rows(i, P)` of multi-row spaces are built."""
    # every space is kept in RREF (it is `eye` or comes from `_eigenspaces`),
    # so its pivots are the first nonzero column of each row
    spaces: list[np.ndarray] = [np.eye(tau, dtype=np.int64)]
    for i in range(1, tau):
        pivots = [(B != 0).argmax(axis=1) for B in spaces if B.shape[0] > 1]
        if not pivots:
            break
        read = class_rows(i, np.concatenate(pivots).tolist()) % l
        rows = iter(np.split(read, np.cumsum([len(P) for P in pivots])[:-1]))
        new_spaces: list[np.ndarray] = []
        for B in spaces:
            if len(B) == 1:
                new_spaces.append(B)
                continue
            M = next(rows)
            R = M.T if len(B) == B.shape[1] else B @ M.T % l  # B = I is not multiplied
            new_spaces += [C for _, C in _eigenspaces(R, B, l)]
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
                  ) -> Iterator[tuple[int, list[int], np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """For each element order d, in order of first appearance among the
    classes: (d, ks, inv, units, MU, C), where ks are the classes of order
    d, MU[:, x] the multiplicities and C[x] the phi(d) coordinates in
    Z[zeta_d] of one value, and chi at class ks[j] is sigma_a(value
    inv[chi, j]), sigma_a: zeta_d -> zeta_d^a, a = units[j].

    Only the representatives g of the rational classes are inverted
    (`ClassData.rational_rep`).  The multiplicities MU[t, x] of zeta_d^t
    among the eigenvalues of g are the discrete Fourier inversion, over the
    powers of z^(m/d), of the distinct power-map columns X[x] (chi(g^t)
    mod l for t < d; equal columns have equal multiplicities, so each is
    inverted once).  Each is checked to be a true integer in [0, degree]
    summing to the degree (less than l, so the lift is unambiguous).  Then
    chi(g) = sum_t MU[t] zeta_d^t, and C = MU[:phi].T + MU[phi:].T x^t mod
    Phi_d: the powers with t < phi(d) are their own rows, and only the
    d - phi(d) rows past them are built.  At every class g^a (a from
    `ClassData.rational_unit`), zeta_d -> z^(a m/d) must give back its
    column of the modular table.  After the last order, some character must
    be 1 everywhere and sum deg^2 = |G|."""
    l, m, tau = mt.l, cd.exponent, cd.num_classes
    by_order: dict[int, list[int]] = {}  # element order d -> the classes of that order
    for k, d in enumerate(cd.rep_orders):
        by_order.setdefault(d, []).append(k)
    trivial = np.ones(tau, dtype=bool)  # characters whose values so far are all 1
    for d, ks in by_order.items():
        t = np.arange(d)
        zd = pow(mt.z, m // d, l)
        pw = np.array([pow(zd, s, l) for s in range(d)], dtype=np.int64)
        Vinv = pw[-np.outer(t, t) % d] * _mod_inv(d, l) % l  # Vinv[t, j] = zd^(-t j) / d
        reps = sorted({cd.rational_rep[k] for k in ks})
        X, inv = _distinct_rows(mt.rows[:, cd.power_map[k]] for k in reps)
        MU = Vinv @ X.T % l  # multiplicities of zeta_d^t, exact in [0, degree]
        degree_rows = np.tile(mt.degrees, len(reps))
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
        inv = inv.reshape(len(reps), tau).T[:, np.searchsorted(reps, [cd.rational_rep[k] for k in ks])]
        units = np.array([cd.rational_unit[k] for k in ks], dtype=np.int64)
        at_units = C % l @ pw[np.outer(t[:phi], units) % d] % l  # value x at zeta_d -> zd^units[j]
        if not np.array_equal(np.take_along_axis(at_units, inv, axis=0), mt.rows[:, ks]):
            raise ExactnessError(f"lifted values of order {d} do not reduce to the modular table")
        trivial &= ((C[:, 0] == 1) & ~C[:, 1:].any(axis=1))[inv].all(axis=1)
        yield d, ks, inv, units, MU, C
    if not trivial.any():
        raise ExactnessError("trivial character missing from the table")
    if sum(d * d for d in mt.degrees.tolist()) != order:
        raise ExactnessError("sum of squared degrees does not match the group order")


def _galois_images(MU: np.ndarray, d: int) -> dict[int, np.ndarray]:
    """image[a][x], for every unit a mod d: the index of sigma_a(x) among the
    values x of one element order d, whose multiplicities are MU[:, x].
    sigma_a(chi) is a character, so the values are closed under sigma_a,
    and sigma_a(x) has the multiplicities MU[t a^-1 mod d, x].  These are
    looked up for the generators of (Z/d)^x; sigma_ab = sigma_b sigma_a."""
    index = {c.tobytes(): x for x, c in enumerate(np.ascontiguousarray(MU.T))}
    t = np.arange(d)
    steps = []
    for g in unit_generators(d):
        moved = np.ascontiguousarray(MU[t * pow(g, -1, d) % d].T)
        step = [index.get(c.tobytes(), -1) for c in moved]
        if -1 in step:
            raise ExactnessError(f"a Galois image of a value of order {d} is not a value of that order")
        steps.append((g, np.array(step)))
    image = {1 % d: np.arange(MU.shape[1])}
    todo = [1 % d]
    for a in todo:  # breadth first over the Cayley graph of the generators
        for g, step in steps:
            if (b := a * g % d) not in image:
                image[b] = step[image[a]]
                todo.append(b)
    return image


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
    for d, ks, inv, units, MU, C in _order_values(cd, mt, group.order):
        R = roots[d]
        # |coordinate of C @ R| <= phi(d) * max|C| * max|R|
        if C.shape[1] * int(np.abs(C).max()) * int(np.abs(R).max()) >= 1 << 62:
            raise ExactnessError(f"the coordinates of order {d} would overflow int64 at conductor {m}")
        coords.append(C @ R)
        image = _galois_images(MU, d)
        moved = np.array([image[a] for a in units.tolist()])  # moved[j, x]: sigma_units[j](x)
        column[:, ks] = start + np.take_along_axis(moved.T, inv, axis=0)
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
    table: no conductor-m row, `CycInt` or sort; sigma_a(x) = 0 only for
    x = 0.  `per_character_zero_counts` come in eigenvector order (the
    order of the split), not the table's canonical row order; as multisets
    they agree."""
    mt = _modular_table(group, cd)
    zero = np.zeros((cd.num_classes, cd.num_classes), dtype=bool)
    for _, ks, inv, _, _, C in _order_values(cd, mt, group.order):
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
    xs, js = np.nonzero(D)  # a few percent of the coordinates, value by value
    terms = D[xs, js][:, None]
    # only the exponents with a nonzero coordinate are read; js now indexes them
    exponents, js = np.unique(js, return_inverse=True)
    # pieces (x, s, e): the nonzero coordinates s..e-1 of value x, at most 64,
    # so that no temporary holds more than 64 rows
    first = np.searchsorted(xs, np.arange(len(D) + 1)).tolist()
    pieces = [(x, s, min(s + 64, first[x + 1]))
              for x in range(len(D)) for s in range(first[x], first[x + 1], 64)]
    for a in unit_generators(m):
        G = power_rows(m, exponents * a)  # G[i] = sigma_a(zeta^exponents[i])
        if l1 * max(int(G.max()), -int(G.min())) >= 1 << 63:  # bounds every partial sum below
            raise ExactnessError(f"Galois images of the values would overflow int64 (m = {m})")
        images = np.zeros_like(D)  # sigma_a(D), over the nonzero coordinates only
        for x, s, e in pieces:
            images[x] += (terms[s:e] * G[js[s:e]]).sum(axis=0)
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
