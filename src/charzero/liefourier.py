"""Adjoint orbits of gl_n(F_q), the trace-form Fourier transform of orbit
indicators, Green functions by fixed-flag counting, Harish-Chandra induction
from the split Cartan, and the Kazhdan-Letellier identity check.

Orbits are the `orbit_labels` of one conjugation permutation per generator
of GL_n over the whole matrix space, numbered by least code.  The transform
of an orbit indicator is F(1_O)(Y) = sum_{y in O} psi(tr(Y y)) with
psi = zeta_p^Tr the canonical additive character; values are exact
cyclotomic integers of conductor p, accumulated as counts per trace residue,
one column (target orbit) per bincount over the whole space.  The KL sweep
conjugates the whole group at once.
Jordan decompositions are computed exactly (the semisimple part is the
q^N-th power of the matrix, N = lcm(1..n)), so the induction formula is
evaluated literally, with the single division at the end checked for exact
divisibility.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .cyclotomic import CycInt
from .dixon import ZeroReport
from .ffield import (
    Field,
    fq_poly_factor_cubic_or_less,
    fq_poly_is_squarefree,
    fq_poly_roots,
    fq_poly_trim,
)
from .matgroup import (
    MatrixGroupTable,
    _MatrixKernel,
    gl_generators,
    gl_group,
    mat_charpoly,
    mat_decode,
    mat_encode,
    mat_identity,
    mat_inv,
    mat_mul,
    orbit_labels,
    rref,
)

DEFAULT_MATRIX_SPACE_CAP = 10**7


def _check_additive_n(n: int) -> None:
    # mat_charpoly, fq_poly_factor_cubic_or_less and green_function stop at n = 3
    if not 1 <= n <= 3:
        raise ValueError(f"gl_{n} is out of range: the additive side supports 1 <= n <= 3")


# -- small exact linear algebra over F_q -------------------------------------


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


def jordan_decomposition(F: Field, n: int, y: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exact Y = Y_s + Y_n with Y_s semisimple, Y_n nilpotent, commuting.

    Y_s = Y^(q^N) with N = lcm(1..n): in characteristic p the q^N-th power
    is additive on the commuting parts, kills Y_n (q^N >= n) and fixes Y_s,
    whose eigenvalues lie in fields F_{q^d} with d | N.
    """
    if fq_poly_is_squarefree(F, mat_charpoly(F, n, y)):  # y is already semisimple
        return y, tuple(0 for _ in range(n * n))
    ys, power, e = mat_identity(n), y, F.q ** lcm(*range(1, n + 1))
    while e:
        if e & 1:
            ys = mat_mul(F, n, ys, power)
        power = mat_mul(F, n, power, power)
        e >>= 1
    yn = tuple(F.add[a][F.neg[b]] for a, b in zip(y, ys))
    if not fq_poly_is_squarefree(F, _min_poly(F, n, ys)):
        raise RuntimeError("semisimple part is not semisimple")
    if not _is_nilpotent(F, n, yn):
        raise RuntimeError("nilpotent part is not nilpotent")
    if mat_mul(F, n, ys, yn) != mat_mul(F, n, yn, ys):
        raise RuntimeError("Jordan parts do not commute")
    return ys, yn


def _is_nilpotent(F: Field, n: int, a: tuple[int, ...]) -> bool:
    zero = tuple(0 for _ in range(n * n))
    power = a
    for _ in range(n):
        if power == zero:
            return True
        power = mat_mul(F, n, power, a)
    return power == zero


def _nilpotent_jordan_type(F: Field, n: int, a: tuple[int, ...]) -> tuple[int, ...]:
    """Jordan block sizes of a nilpotent matrix, from ranks of powers."""
    ranks = [n]
    cur = mat_identity(n)
    for _ in range(n):
        cur = mat_mul(F, n, cur, a)
        rows = [list(cur[i * n : (i + 1) * n]) for i in range(n)]
        ranks.append(len(rref(F, rows)[1]))
    # number of blocks of size >= k is ranks[k-1] - ranks[k]
    sizes = []
    for k in range(1, n + 1):
        count_ge_k = ranks[k - 1] - ranks[k]
        sizes.append(count_ge_k)
    jordan = []
    for size in range(n, 0, -1):
        mult = sizes[size - 1] - (sizes[size] if size < n else 0)
        jordan.extend([size] * mult)
    return tuple(jordan)


# -- orbit table --------------------------------------------------------------


@dataclass(frozen=True)
class OrbitRecord:
    rep: tuple[int, ...]
    size: int
    is_semisimple: bool
    is_regular_semisimple: bool
    cartan_partition: tuple[int, ...] | None
    semisimple_part_orbit: int
    nilpotent_jordan_type: tuple[int, ...]


@dataclass(frozen=True)
class OrbitTable:
    field: Field
    n: int
    orbits: tuple[OrbitRecord, ...]
    orbit_of: tuple[int, ...]  # indexed by matrix code
    orbit_elements: tuple[tuple[int, ...], ...]  # matrix codes per orbit

    @property
    def num_orbits(self) -> int:
        return len(self.orbits)

    def decode(self, code: int) -> tuple[int, ...]:
        return mat_decode(self.field.q, self.n, code)

    def orbit_of_matrix(self, a: tuple[int, ...]) -> int:
        return self.orbit_of[mat_encode(self.field.q, a)]


def adjoint_orbits(n: int, field: Field, cap: int = DEFAULT_MATRIX_SPACE_CAP) -> OrbitTable:
    """Orbits of GL_n(F_q) acting on n x n matrices by conjugation.

    The generators of GL_n act; neither the group nor an inverse is formed.
    Orbits are numbered by least code, whatever the generating set."""
    _check_additive_n(n)
    q = field.q
    space = q ** (n * n)
    if space > cap:
        raise ValueError(f"matrix space size {space} exceeds cap {cap}")
    kernel, every = _MatrixKernel(field, n), _digit_rows(q, n * n)
    conjugations = []
    for gen in gl_generators(n, field):
        g = np.broadcast_to(kernel.digits([gen]), every.shape)
        left, right = (kernel.codes(kernel.product(*f)) for f in ((g, every), (every, g)))
        conj = np.empty_like(left)
        conj[right] = left  # x g -> g x, that is y -> g y g^-1
        conjugations.append(conj)
    reps, orbit_of = orbit_labels(space, conjugations)
    by_orbit = np.argsort(orbit_of, kind="stable")  # increasing codes within each orbit
    bounds = np.cumsum(np.bincount(orbit_of))[:-1]
    orbit_elements = [tuple(members.tolist()) for members in np.split(by_orbit, bounds)]
    orbit_reps = [mat_decode(q, n, code) for code in reps.tolist()]
    orbit_of = orbit_of.tolist()

    # second pass: flags need orbit_of complete (semisimple part lookup)
    records = []
    for oid, rep in enumerate(orbit_reps):
        cp = mat_charpoly(field, n, rep)
        rss = fq_poly_is_squarefree(field, cp)
        cartan = None
        if rss:
            cartan = tuple(
                sorted((len(f) - 1 for f in fq_poly_factor_cubic_or_less(field, cp)),
                       reverse=True)
            )
        ys, yn = jordan_decomposition(field, n, rep)
        ss = yn == tuple(0 for _ in range(n * n))
        records.append(
            OrbitRecord(
                rep=rep,
                size=len(orbit_elements[oid]),
                is_semisimple=ss,
                is_regular_semisimple=rss,
                cartan_partition=cartan,
                semisimple_part_orbit=orbit_of[mat_encode(q, ys)],
                nilpotent_jordan_type=_nilpotent_jordan_type(field, n, yn),
            )
        )

    table = OrbitTable(
        field=field,
        n=n,
        orbits=tuple(records),
        orbit_of=tuple(orbit_of),
        orbit_elements=tuple(orbit_elements),
    )
    if sum(r.size for r in records) != space:
        raise RuntimeError("orbit sizes do not partition the matrix space")
    ss_count = sum(1 for r in records if r.is_semisimple)
    if ss_count != q**n:
        raise RuntimeError(
            f"semisimple orbit count {ss_count} differs from q^n = {q**n}"
        )
    return table


# -- Fourier transform ---------------------------------------------------------


@dataclass(frozen=True)
class FourierTable:
    conductor: int
    values: tuple[tuple[CycInt, ...], ...]  # (source orbit, target orbit)
    orbit_sizes: tuple[int, ...]

    @property
    def num_orbits(self) -> int:
        return len(self.orbit_sizes)


def _digit_rows(q: int, k: int) -> np.ndarray:
    """Every vector of k base-q digits, in code order: row c holds the
    digits of c, digit 0 least significant (for k = n^2, the matrix with
    `mat_encode` code c)."""
    codes = np.arange(q**k)
    out = np.empty((q**k, k), dtype=np.min_scalar_type(q - 1))
    for t in range(k):
        out[:, t] = codes // q**t % q
    return out


def _trace_residues(F: Field, rows: np.ndarray, coeffs) -> np.ndarray:
    """Tr_{F_q/F_p}(sum_t coeffs[t] * rows[:, t]) for every row of a digit
    array, by gathers from the field tables and a size-q trace array."""
    add, mul = np.array(F.add).ravel(), np.array(F.mul)
    acc = np.zeros(len(rows), dtype=np.intp)
    for t, c in enumerate(coeffs):
        if c:
            acc = add[acc * F.q + mul[c][rows[:, t]]]
    return np.array([F.trace_to_prime(x) for x in range(F.q)])[acc]


def _transform_column(o: OrbitTable, every: np.ndarray, orbit_of: np.ndarray,
                      y: list[int]) -> list[CycInt]:
    """F(1_O)(y) for every orbit O: each source orbit's count of matrices x
    per value of Tr(tr(y x)), from one bincount over the whole space
    (`every`, in code order, with `orbit_of` as an array)."""
    n, p = o.n, o.field.p
    # tr(y x) = sum over (a, b) of y[b, a] * x[a, b]
    residues = _trace_residues(o.field, every, [y[b * n + a] for a in range(n) for b in range(n)])
    counts = np.bincount(orbit_of * p + residues, minlength=o.num_orbits * p)
    return [CycInt.from_exponents(p, {t: c for t, c in enumerate(row) if c})
            for row in counts.reshape(-1, p).tolist()]


def fourier_table(o: OrbitTable, scale: int = 1) -> FourierTable:
    """values[O, O'] = F(1_O)(rep(O')) = sum_{y in O} psi(scale * tr(rep(O') y)).

    `scale` (a nonzero field element) replaces psi by psi(scale * .), which
    permutes rows but must not change the zero census; the default is the
    canonical character.  Columns are computed one target orbit at a time,
    so no (orbits x q^(n^2)) array is built.
    """
    F, n = o.field, o.n
    if not 1 <= scale < F.q:
        raise ValueError("character scale must be a nonzero field element code")
    every, orbit_of = _digit_rows(F.q, n * n), np.array(o.orbit_of)
    columns = [_transform_column(o, every, orbit_of, [F.mul[scale][x] for x in rec.rep])
               for rec in o.orbits]
    values = tuple(zip(*columns))
    table = FourierTable(
        conductor=F.p,
        values=values,
        orbit_sizes=tuple(r.size for r in o.orbits),
    )
    zero_code = 0
    zero_orbit = o.orbit_of[zero_code]
    for src in range(o.num_orbits):
        if values[src][zero_orbit] != o.orbits[src].size:
            raise RuntimeError("F(1_O)(0) != |O|; transform is inconsistent")
    _recheck_well_defined(o, table, scale)
    return table


def _recheck_well_defined(o: OrbitTable, t: FourierTable, scale: int) -> None:
    """Recompute a handful of columns at a second orbit representative; the
    choice is deterministic (first five multi-element orbits, second member)."""
    F, n = o.field, o.n
    every, orbit_of = _digit_rows(F.q, n * n), np.array(o.orbit_of)
    second = [(tgt, members[1]) for tgt, members in enumerate(o.orbit_elements)
              if len(members) > 1]
    for tgt, code in second[:5]:
        alt = [F.mul[scale][x] for x in o.decode(code)]
        if _transform_column(o, every, orbit_of, alt) != [row[tgt] for row in t.values]:
            raise RuntimeError("transform value depends on the orbit representative")


def fourier_zero_census(t: FourierTable) -> ZeroReport:
    return ZeroReport.of_table(t.values)


def additive_lower_bound(o: OrbitTable) -> tuple[Fraction, Fraction]:
    """(raw, clamped) lower bound for the Fourier-table zero density:
    (#rss orbits / #orbits)^2 - sum over S_n classes of 1/c^2.

    Vacuous (negative) at small q, mirroring the multiplicative bound."""
    from .weyl import sum_inv_c_sq_stream

    rss = sum(1 for r in o.orbits if r.is_regular_semisimple)
    raw = Fraction(rss, o.num_orbits) ** 2 - sum_inv_c_sq_stream("A", o.n - 1)
    return raw, max(raw, Fraction(0))


def double_fourier_check(o: OrbitTable, t: FourierTable) -> bool:
    """F(F(1_O)) must equal q^{n^2} * 1_{-O} for every orbit O."""
    F, n = o.field, o.n
    space = F.q ** (n * n)
    tau = o.num_orbits
    neg_orbit = [
        o.orbit_of_matrix(tuple(F.neg[x] for x in rec.rep)) for rec in o.orbits
    ]
    for src in range(tau):
        for tgt in range(tau):
            acc = CycInt.zero(F.p)
            for mid in range(tau):
                acc = acc + t.values[src][mid] * t.values[mid][tgt]
            expected = space if tgt == neg_orbit[src] else 0
            if acc != expected:
                return False
    return True


# -- Green functions -----------------------------------------------------------


def _projective_points(F: Field, n: int) -> list[tuple[int, ...]]:
    """Normalized representatives (first nonzero coordinate = 1)."""
    pts = []
    q = F.q

    def rec(prefix: list[int], started: bool):
        if len(prefix) == n:
            if started:
                pts.append(tuple(prefix))
            return
        if not started:
            rec(prefix + [0], False)
            rec(prefix + [1], True)
        else:
            for c in range(q):
                rec(prefix + [c], True)

    rec([], False)
    return pts


def _apply(F: Field, n: int, a: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    add, mul = F.add, F.mul
    out = []
    for i in range(n):
        acc = 0
        for j in range(n):
            acc = add[acc][mul[a[i * n + j]][v[j]]]
        out.append(acc)
    return tuple(out)


def green_function(n: int, field: Field, u: tuple[int, ...]) -> int:
    """Number of complete flags fixed by the unipotent element u: the Green
    function value attached to the split torus."""
    ident = mat_identity(n)
    shifted = tuple(field.add[x][field.neg[y]] for x, y in zip(u, ident))
    if not _is_nilpotent(field, n, shifted):
        raise ValueError("element is not unipotent")
    if n == 1:
        return 1
    pts = _projective_points(field, n)
    if n == 2:
        return sum(1 for v in pts if _apply(field, n, u, v) == v)
    if n == 3:
        # flags = (line, plane): a stable line is a fixed projective point,
        # a stable plane is a fixed point of the transpose action, and
        # incidence is phi(v) = 0
        ut = tuple(u[j * n + i] for i in range(n) for j in range(n))
        fixed_pts = [v for v in pts if _apply(field, n, u, v) == v]
        fixed_planes = [w for w in pts if _apply(field, n, ut, w) == w]
        add, mul = field.add, field.mul
        count = 0
        for v in fixed_pts:
            for w in fixed_planes:
                acc = 0
                for i in range(n):
                    acc = add[acc][mul[v[i]][w[i]]]
                if acc == 0:
                    count += 1
        return count
    raise ValueError("flag counting implemented for n <= 3")


# -- Harish-Chandra induction and the Kazhdan-Letellier check -------------------


def _diag_entries(n: int, a: tuple[int, ...]) -> list[int]:
    return [a[i * (n + 1)] for i in range(n)]


def _is_diagonal(n: int, a: tuple[int, ...]) -> bool:
    return all(a[i * n + j] == 0 for i in range(n) for j in range(n) if i != j)


def _eigen_blocks(F: Field, n: int, ys: tuple[int, ...], yn: tuple[int, ...]):
    """For split-semisimple ys: per-eigenvalue blocks of yn in an eigenbasis."""
    vals = sorted(set(fq_poly_roots(F, mat_charpoly(F, n, ys))))
    basis: list[list[int]] = []
    blocks = []
    add, mul, neg = F.add, F.mul, F.neg
    for a in vals:
        shifted_rows = [
            [F.add[ys[i * n + j]][neg[a] if i == j else 0] for j in range(n)]
            for i in range(n)
        ]
        eig = _nullspace_basis(F, shifted_rows)
        if not eig:
            continue
        blocks.append((a, eig))
        basis.extend(eig)
    if len(basis) != n:
        raise RuntimeError("semisimple part is not split over F_q")
    # change of basis: columns are eigenvectors
    P = tuple(basis[j][i] for i in range(n) for j in range(n))
    try:
        Pinv = mat_inv(F, n, P)
    except ValueError:
        raise RuntimeError("eigenbasis of the semisimple part is singular") from None
    yn_b = mat_mul(F, n, mat_mul(F, n, Pinv, yn), P)
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


def _centralizer_green_value(F: Field, n: int, ys: tuple[int, ...],
                             yn: tuple[int, ...]) -> int:
    """Green function of the centralizer of ys at 1 + yn: product of
    per-eigenblock fixed-flag counts."""
    q_val = 1
    for _, d, block in _eigen_blocks(F, n, ys, yn):
        u = tuple(
            F.add[block[i * d + j]][1 if i == j else 0] for i in range(d) for j in range(d)
        )
        q_val *= green_function(d, F, u)
    return q_val


def _inverse_indices(group: MatrixGroupTable) -> np.ndarray:
    """The index of every element's inverse, g^(|G| - 1), by square and
    multiply over the whole group."""
    result, power = np.full(group.order, group.identity_idx), np.arange(group.order)
    e = group.order - 1
    while e:
        if e & 1:
            result = group.mul_many(result, power)
        power = group.mul_many(power, power)
        e >>= 1
    return result


def _diagonal_conjugates(group: MatrixGroupTable, inverse: np.ndarray,
                         ys: tuple[int, ...]) -> tuple[int, np.ndarray]:
    """|C_G(ys)| and the base-q codes (entry 0 least significant) of the
    diagonals of the conjugates g ys g^-1 that are diagonal, in element
    order; `inverse` is `_inverse_indices(group)`."""
    kernel, n, digits = group.kernel, group.dim, group.digits
    target = np.array(ys, dtype=digits.dtype)
    conj = kernel.product(kernel.product(digits, np.broadcast_to(target, digits.shape)),
                          digits[inverse])
    cent = int((conj == target).all(axis=1).sum())
    on_diagonal = np.arange(n * n) % (n + 1) == 0
    diagonals = conj[~conj[:, ~on_diagonal].any(axis=1)][:, on_diagonal]
    return cent, diagonals.astype(np.int64) @ group.field.q ** np.arange(n)


def _residue_counts(residues: np.ndarray, diagonals: np.ndarray, p: int) -> list[int]:
    """Counts per value of Tr(tr(diag(d) diag(x))) over the diagonals d with
    the given codes; `residues` holds that trace at every diagonal code."""
    return np.bincount(residues[diagonals], minlength=p).tolist()


def hc_induction_split(n: int, field: Field, X: tuple[int, ...], Y: tuple[int, ...],
                       group: MatrixGroupTable | None = None) -> CycInt:
    """Evaluate the averaged induction of f_X = psi(tr(. X)) from the split
    Cartan at Y, literally: (1/|C(Y_s)|) * Q_{C(Y_s)}(1 + Y_n) *
    sum_{g : g Y_s g^-1 diagonal} psi(tr(g Y_s g^-1 X)).

    X must be diagonal with distinct entries.  The division at the end is
    checked for exact divisibility in Z[zeta_p].
    """
    F = field
    if not _is_diagonal(n, X) or len(set(_diag_entries(n, X))) != n:
        raise ValueError("X must be a regular element of the split Cartan")
    if group is None:
        group = gl_group(n, F.q)
    ys, yn = jordan_decomposition(F, n, Y)
    p = F.p
    cent, diagonals = _diagonal_conjugates(group, _inverse_indices(group), ys)
    if not len(diagonals):
        return CycInt.zero(p)
    residues = _trace_residues(F, _digit_rows(F.q, n), _diag_entries(n, X))
    counts = _residue_counts(residues, diagonals, p)
    qval = _centralizer_green_value(F, n, ys, yn)
    total = CycInt.from_exponents(p, {t: qval * c for t, c in enumerate(counts) if c})
    coeffs = total.coeffs
    if any(c % cent for c in coeffs):
        raise RuntimeError("induction sum is not divisible by the centralizer order")
    return CycInt(p, tuple(c // cent for c in coeffs))


@dataclass(frozen=True)
class KLReport:
    n: int
    q: int
    cartan_reps: int
    orbits: int
    pairs_checked: int
    violations: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def kl_verify(n: int, field: Field, orbit_tab: OrbitTable | None = None,
              four: FourierTable | None = None) -> KLReport:
    """For every regular split-Cartan class X and every orbit representative
    Y, check |C(Y_s)| * F(1_{O_X})(Y) = q^{#pos roots} * Q * S exactly.

    Requires very good characteristic (p does not divide n)."""
    _check_additive_n(n)
    F = field
    if n % F.p == 0:
        raise ValueError(
            f"characteristic {F.p} is not very good for gl_{n}; check skipped"
        )
    group = gl_group(n, F.q)
    if orbit_tab is None:
        orbit_tab = adjoint_orbits(n, F)
    if four is None:
        four = fourier_table(orbit_tab)
    p = F.p
    pos_roots = n * (n - 1) // 2
    q_pow = F.q**pos_roots

    # per-orbit data shared across all X: diagonal images of Y_s under the
    # group, the centralizer order of Y_s, and the centralizer Green value
    inverse = _inverse_indices(group)
    per_orbit = []
    for rec in orbit_tab.orbits:
        ys, yn = jordan_decomposition(F, n, rec.rep)
        cent, diagonals = _diagonal_conjugates(group, inverse, ys)
        qval = _centralizer_green_value(F, n, ys, yn) if len(diagonals) else 0
        per_orbit.append((diagonals, cent, qval))

    # regular split X up to the Weyl (coordinate-permutation) action
    xs = [tuple(c) for c in itertools.combinations(range(F.q), n)]
    every_diagonal = _digit_rows(F.q, n)
    violations = []
    pairs = 0
    for diag in xs:
        X = tuple(diag[i] if i == j else 0 for i in range(n) for j in range(n))
        ox = orbit_tab.orbit_of_matrix(X)
        residues = _trace_residues(F, every_diagonal, diag)
        for oy in range(orbit_tab.num_orbits):
            diagonals, cent, qval = per_orbit[oy]
            counts = _residue_counts(residues, diagonals, p)
            lhs = four.values[ox][oy] * cent
            rhs = CycInt.from_exponents(
                p, {t: q_pow * qval * c for t, c in enumerate(counts) if c}
            )
            pairs += 1
            if lhs != rhs:
                violations.append((diag, oy))
    return KLReport(
        n=n,
        q=F.q,
        cartan_reps=len(xs),
        orbits=orbit_tab.num_orbits,
        pairs_checked=pairs,
        violations=tuple(violations),
    )
