"""Adjoint orbits of gl_n(F_q), the trace-form Fourier transform of orbit
indicators, Green functions by fixed-flag counting, Harish-Chandra induction
from the split Cartan, and the Kazhdan-Letellier identity check.

The matrix space is decoded once, by the `_MatrixKernel` that owns the
matrix codes, and the orbit table keeps that digit array and its kernel.
Orbits are the `orbit_labels` of one conjugation permutation per generator
g of GL_n over the whole space, numbered by least code; y -> g y g^-1 is
F_p-linear, so each permutation is one `_MatrixKernel.apply` of its map,
and the codes it gives are the permutation itself.

The transform of an orbit indicator is F(1_O)(Y) = sum_{y in O} psi(tr(Y y))
with psi = zeta_p^Tr the canonical additive character, so the Fourier table
is held as integer counts: counts[O, O', t] = #{y in O : Tr(tr(rep(O') y)) = t},
one (orbits, orbits, p) array.  A column is one trace form, an F_p-linear
form on the matrix coordinates, and one bincount by orbit; the trace forms
of eight columns share one `_MatrixKernel.apply`.  Counting the pairs in
O' x O by trace gives |O'| counts[O, O'] = |O| counts[O', O], so a column is
counted only over the orbits no larger than its own and the rest of the
table follows by checked divisions.  p is prime, so an entry is zero exactly
when its counts are equal across the residues; the exact cyclotomic values
are formed only when output reads them.

Jordan decompositions are computed exactly (the semisimple part is the
q^N-th power of the matrix, N = lcm(1..n)), once per orbit representative.
Everything the KL check needs is then read off the orbit table, with no
group element formed: |C(Y_s)| = |G| / |O_{Y_s}|, the diagonal conjugates
of Y_s are the diagonal members of O_{Y_s}, and the complete flags fixed by
Y come from the upper-triangular members of O_Y, hence the Green value
Q_{C(Y_s)}(1 + Y_n).  For each split X one trace form over the space gives
the column of O_X, hence by the same symmetry the row F(1_{O_X}), and the
KL sums are the residue counts at the diagonal members of every O_{Y_s}, so
no Fourier table is built.  `green_function` is the Y_s = 0 case.  Each
division is checked for exact divisibility.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm

import numpy as np

from .cyclotomic import CycInt, power_rows
from .dixon import ZeroReport
from .errors import ExactnessError
from .ffield import (
    Field,
    fq_poly_factor_cubic_or_less,
    fq_poly_is_squarefree,
    is_prime_power,
)
from .matgroup import (
    _MatrixKernel,
    gl_generators,
    gl_order,
    mat_charpoly,
    mat_identity,
    mat_inv,
    mat_mul,
    orbit_labels,
)
from .weyl import partitions, sum_inv_c_sq_stream

DEFAULT_MATRIX_SPACE_CAP = 10**7
MAX_FOURIER_BYTES = 1 << 30  # the (orbits, orbits, p) int64 count array of `fourier_table`


def _check_additive_n(n: int) -> None:
    # mat_charpoly and fq_poly_factor_cubic_or_less stop at n = 3
    if not 1 <= n <= 3:
        raise ValueError(f"gl_{n} is out of range: the additive side supports 1 <= n <= 3")


def _orbit_count(n: int, q: int) -> int:
    """The number of adjoint orbits of gl_n(F_q), that is of similarity
    classes: one per choice of a partition and q^(parts) eigenvalue data."""
    return sum(q ** len(lam) for lam in partitions(n))


def check_matrix_space(n: int, q: int) -> None:
    """Refuse gl_n(F_q) when its q^(n^2) matrices exceed
    DEFAULT_MATRIX_SPACE_CAP, before the field or any orbit is built."""
    _check_additive_n(n)
    space = q ** (n * n)
    if space > DEFAULT_MATRIX_SPACE_CAP:
        raise ValueError(f"matrix space size {space} exceeds cap {DEFAULT_MATRIX_SPACE_CAP}")


def check_fourier_size(n: int, q: int) -> None:
    """Refuse a Fourier table whose count array would exceed
    MAX_FOURIER_BYTES, predicted from the orbit count before the field, any
    orbit or the table is built.  q must be a prime power."""
    _check_additive_n(n)
    p, _ = is_prime_power(q)
    size = _orbit_count(n, q) ** 2 * p * 8
    if size > MAX_FOURIER_BYTES:
        raise ValueError(f"the Fourier table of gl_{n}(F_{q}) needs {size} bytes, "
                         f"above the supported maximum {MAX_FOURIER_BYTES}")


# -- Jordan decomposition -------------------------------------------------------


def _mat_pow(F: Field, n: int, a: tuple[int, ...], e: int) -> tuple[int, ...]:
    """a^e by square and multiply."""
    result, power = mat_identity(n), a
    while e:
        if e & 1:
            result = mat_mul(F, n, result, power)
        power = mat_mul(F, n, power, power)
        e >>= 1
    return result


def jordan_decomposition(F: Field, n: int, y: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exact Y = Y_s + Y_n with Y_s semisimple, Y_n nilpotent, commuting.

    Y_s = Y^(q^N) with N = lcm(1..n): in characteristic p the q^N-th power
    is additive on the commuting parts, kills Y_n (q^N >= n) and fixes Y_s,
    whose eigenvalues lie in fields F_{q^d} with d | N.  Semisimplicity is
    certified by Y_s^(q^N) = Y_s: the minimal polynomial of Y_s then divides
    x^(q^N) - x, which is squarefree.
    """
    if fq_poly_is_squarefree(F, mat_charpoly(F, n, y)):  # y is already semisimple
        return y, tuple(0 for _ in range(n * n))
    frobenius = F.q ** lcm(*range(1, n + 1))
    ys = _mat_pow(F, n, y, frobenius)
    yn = tuple(F.add[a][F.neg[b]] for a, b in zip(y, ys))
    if _mat_pow(F, n, ys, frobenius) != ys:
        raise ExactnessError("semisimple part is not semisimple")
    if not _is_nilpotent(F, n, yn):
        raise ExactnessError("nilpotent part is not nilpotent")
    if mat_mul(F, n, ys, yn) != mat_mul(F, n, yn, ys):
        raise ExactnessError("Jordan parts do not commute")
    return ys, yn


def _is_nilpotent(F: Field, n: int, a: tuple[int, ...]) -> bool:
    zero = tuple(0 for _ in range(n * n))
    power = a
    for _ in range(n):
        if power == zero:
            return True
        power = mat_mul(F, n, power, a)
    return power == zero


# -- orbit table --------------------------------------------------------------


@dataclass(frozen=True)
class OrbitRecord:
    rep: tuple[int, ...]
    size: int
    is_semisimple: bool
    is_regular_semisimple: bool
    cartan_partition: tuple[int, ...] | None
    semisimple_part_orbit: int


@dataclass(frozen=True)
class OrbitTable:
    field: Field
    n: int
    orbits: tuple[OrbitRecord, ...]
    orbit_of: np.ndarray  # orbit number, indexed by matrix code
    orbit_elements: tuple[np.ndarray, ...]  # increasing matrix codes per orbit
    kernel: _MatrixKernel
    matrices: np.ndarray  # the whole space as a digit array, row c has code c

    @property
    def num_orbits(self) -> int:
        return len(self.orbits)

    def orbit_of_matrix(self, a: tuple[int, ...]) -> int:
        return int(self.orbit_of[self.kernel.codes(self.kernel.digits([a]))[0]])

    @cached_property
    def shape_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """(upper triangular, diagonal): two boolean masks over matrix codes."""
        n = self.n
        row, col = np.divmod(np.arange(n * n), n)
        return ~self.matrices[:, row > col].any(axis=1), ~self.matrices[:, row != col].any(axis=1)


def adjoint_orbits(n: int, field: Field) -> OrbitTable:
    """Orbits of GL_n(F_q) acting on n x n matrices by conjugation.

    The generators of GL_n act; neither the group nor an inverse is formed.
    Orbits are numbered by least code, whatever the generating set."""
    q = field.q
    check_matrix_space(n, q)
    space = q ** (n * n)
    kernel = _MatrixKernel(field, n)
    every = kernel.decode(np.arange(space))
    conjugations = []
    for gen in gl_generators(n, field):
        g, g_inv = kernel.digits([gen, mat_inv(field, n, gen)])
        # the code of y goes to the code of g y g^-1
        conjugations.append(kernel.apply(every, [kernel.linear_map(g, g_inv)])[:, 0])
    reps, orbit_of = orbit_labels(space, conjugations)
    by_orbit = np.argsort(orbit_of, kind="stable")  # increasing codes within each orbit
    bounds = np.cumsum(np.bincount(orbit_of))[:-1]
    orbit_elements = tuple(np.split(by_orbit, bounds))
    orbit_reps = [tuple(rep) for rep in every[reps].tolist()]

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
                semisimple_part_orbit=int(orbit_of[kernel.codes(kernel.digits([ys]))[0]]),
            )
        )

    table = OrbitTable(
        field=field,
        n=n,
        orbits=tuple(records),
        orbit_of=orbit_of,
        orbit_elements=orbit_elements,
        kernel=kernel,
        matrices=every,
    )
    if sum(r.size for r in records) != space:
        raise ExactnessError("orbit sizes do not partition the matrix space")
    if any(gl_order(n, q) % r.size for r in records):
        raise ExactnessError("an orbit size does not divide |GL_n(F_q)|")
    ss_count = sum(1 for r in records if r.is_semisimple)
    if ss_count != q**n:
        raise ExactnessError(
            f"semisimple orbit count {ss_count} differs from q^n = {q**n}"
        )
    classes = _orbit_count(n, q)
    if len(records) != classes:
        raise ExactnessError(f"orbit count {len(records)} differs from the class count {classes}")
    return table


# -- Fourier transform ---------------------------------------------------------


@dataclass(frozen=True)
class FourierTable:
    conductor: int
    counts: np.ndarray  # [O, O', t] = #{y in O : Tr tr(a rep(O') y) = t}, a the scale
    orbit_sizes: tuple[int, ...]

    @property
    def num_orbits(self) -> int:
        return len(self.orbit_sizes)

    @cached_property
    def values(self) -> tuple[tuple[CycInt, ...], ...]:
        """values[O, O'] = sum_t counts[O, O', t] zeta_p^t in canonical
        coordinates: one product of the counts with the rows of zeta_p^t, t < p."""
        p = self.conductor
        coeffs = (self.counts @ power_rows(p, range(p))).tolist()
        return tuple(tuple(CycInt(p, tuple(c)) for c in row) for row in coeffs)


def _pairing(n: int, y: tuple[int, ...] | list[int]) -> list[int]:
    """The coefficients of x -> tr(y x): tr(y x) = sum over (a, b) of y[b, a] * x[a, b]."""
    return [y[b * n + a] for a in range(n) for b in range(n)]


def _orbit_counts(o: OrbitTable, labels: np.ndarray, residues: np.ndarray) -> np.ndarray:
    """counts[O, t] = #{x : residue t} over the matrices x whose orbit
    `labels` are O, as an (orbits, p) array: one bincount."""
    p = o.field.p
    return np.bincount(labels * p + residues, minlength=o.num_orbits * p).reshape(-1, p)


def _column_counts(o: OrbitTable, y: tuple[int, ...] | list[int], digits: np.ndarray,
                   labels: np.ndarray) -> np.ndarray:
    """counts[O, t] = #{x : Tr(tr(y x)) = t} over the matrices x of the digit
    array whose orbit `labels` are O, as an (orbits, p) array: one trace form
    and one bincount."""
    return _orbit_counts(o, labels, o.kernel.trace_forms(digits, [_pairing(o.n, y)])[:, 0])


_COLUMNS = 8  # Fourier-table columns per trace-form pass


def fourier_table(o: OrbitTable, scale: int = 1) -> FourierTable:
    """counts[O, O', t] = #{y in O : Tr(scale * tr(rep(O') y)) = t}, so that
    F(1_O)(rep(O')) = sum_{y in O} psi(scale * tr(rep(O') y)) = sum_t
    counts[O, O', t] zeta_p^t.

    `scale` (a nonzero field element) replaces psi by psi(scale * .), which
    permutes rows but must not change the zero census; the default is the
    canonical character.  Counting the pairs (x, y) in O' x O by trace gives
    |O'| counts[O, O'] = |O| counts[O', O], so the column of O' is counted
    directly only over the orbits no larger than O' (a prefix of the members
    sorted by orbit size) and every other entry is |O| counts[O', O] / |O'|.
    Each division is checked for exactness, and a pair of equal sizes,
    counted both ways, must agree.
    """
    F = o.field
    if not 1 <= scale < F.q:
        raise ValueError("character scale must be a nonzero field element code")
    check_fourier_size(o.n, F.q)
    tau = o.num_orbits
    sizes = np.array([r.size for r in o.orbits], dtype=np.int64)
    by_size = np.argsort(sizes, kind="stable")
    members = np.concatenate([o.orbit_elements[i] for i in by_size])
    digits, labels = o.matrices[members], o.orbit_of[members]
    # the members of the orbits no larger than orbit i are the first prefix[i] rows
    ends = np.cumsum(sizes[by_size])
    prefix = ends[np.searchsorted(sizes[by_size], sizes, side="right") - 1]
    # int64 is exact: |O| |O'| <= (q^(n^2))^2
    counts = np.zeros((tau, tau, F.p), dtype=np.int64)
    # increasing size, so a larger orbit's row fills the zeros its column left;
    # the trace forms of a few columns at a time share one pass over the members
    for b in range(0, tau, _COLUMNS):
        batch = by_size[b : b + _COLUMNS].tolist()
        pairings = [_pairing(o.n, [F.mul[scale][x] for x in o.orbits[tgt].rep]) for tgt in batch]
        residues = o.kernel.trace_forms(digits[: prefix[batch].max()], pairings)
        for tgt, res in zip(batch, residues.T):
            end = prefix[tgt]
            column = counts[:, tgt] = _orbit_counts(o, labels[:end], res[:end])
            smaller = sizes < sizes[tgt]
            row, rem = np.divmod(sizes[tgt] * column[smaller], sizes[smaller, None])
            if rem.any():
                raise ExactnessError("|O| counts[O', O] is not divisible by |O'|")
            counts[tgt, smaller] = row
    equal = sizes[:, None] == sizes[None, :]
    if not np.array_equal(counts[equal], counts.swapaxes(0, 1)[equal]):
        raise ExactnessError("two orbits of equal size disagree on their transform counts")
    zero_orbit = int(o.orbit_of[0])  # code 0 is the zero matrix
    at_zero = np.zeros((tau, F.p), dtype=np.int64)
    at_zero[:, 0] = sizes
    if not np.array_equal(counts[:, zero_orbit], at_zero):
        raise ExactnessError("F(1_O)(0) != |O|; transform is inconsistent")
    table = FourierTable(conductor=F.p, counts=counts, orbit_sizes=tuple(sizes.tolist()))
    _recheck_well_defined(o, table, scale)
    return table


def _recheck_well_defined(o: OrbitTable, t: FourierTable, scale: int) -> None:
    """Recount a handful of columns over the whole space at a second orbit
    representative; the choice is deterministic (first five multi-element
    orbits, second member)."""
    second = [(tgt, int(members[1])) for tgt, members in enumerate(o.orbit_elements)
              if len(members) > 1]
    for tgt, code in second[:5]:
        alt = [o.field.mul[scale][x] for x in o.matrices[code].tolist()]
        if not np.array_equal(_column_counts(o, alt, o.matrices, o.orbit_of), t.counts[:, tgt]):
            raise ExactnessError("transform value depends on the orbit representative")


def fourier_zero_census(t: FourierTable) -> ZeroReport:
    """The zero entries, read off the counts: p is prime, so the only relation
    among 1, zeta_p, ..., zeta_p^(p-1) is that their sum is 0, and an entry
    vanishes exactly when every residue has the same count."""
    return ZeroReport.of_mask((t.counts == t.counts[..., :1]).all(axis=-1))


def additive_lower_bound(o: OrbitTable) -> tuple[Fraction, Fraction]:
    """(raw, clamped) lower bound for the Fourier-table zero density:
    (#rss orbits / #orbits)^2 - sum over S_n classes of 1/c^2.

    Vacuous (negative) at small q, mirroring the multiplicative bound."""
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


# -- Green functions from the orbit table ---------------------------------------


def _orbit_census(o: OrbitTable, oid: int) -> tuple[int, np.ndarray, int]:
    """For Y in the orbit `oid`, read off the orbit table: |C(Y_s)| =
    |G| / |O_{Y_s}|; the matrix codes of the diagonal members of O_{Y_s},
    each of which is g Y_s g^-1 for |C(Y_s)| elements g; and `fixing`, the
    number of g with g Y g^-1 upper triangular, |C(Y)| #(O_Y meet the upper
    triangular).

    Y_s and Y_n are polynomials in Y and Y is their sum, so g Y g^-1 is upper
    triangular exactly when both g Y_s g^-1 and g Y_n g^-1 are, that is when
    Y_s and Y_n fix the flag g^-1 F_0 (F_0 the standard flag).  Each complete
    flag is g^-1 F_0 for |B| elements g, so `fixing` is |B| times the number
    of complete flags fixed by both Y_s and 1 + Y_n."""
    order = gl_order(o.n, o.field.q)
    upper, diagonal = o.shape_masks
    rec = o.orbits[oid]
    ss = o.orbit_elements[rec.semisimple_part_orbit]
    fixing = order // rec.size * int(upper[o.orbit_elements[oid]].sum())
    return order // len(ss), ss[diagonal[ss]], fixing


def _levi_green_value(n: int, q: int, diagonals: np.ndarray, fixing: int) -> int:
    """Q_L(1 + Y_n) for L = C_G(Y_s), from `_orbit_census`.

    The flags fixed by a split Y_s are |W/W_L| = #diagonals copies of the
    flag variety of L, so Q_L(1 + Y_n) = fixing / (|B| #diagonals) with
    |B| = (q - 1)^n q^(n(n-1)/2); the division is checked for exactness.
    A Y_s with no diagonal conjugate fixes no flag, and the value is 0."""
    borel = (q - 1) ** n * q ** (n * (n - 1) // 2)
    green, rem = divmod(fixing, borel * len(diagonals)) if len(diagonals) else (0, fixing)
    if rem:
        raise ExactnessError("fixed-flag count is not divisible by |B| |W/W_L|")
    return green


def green_function(n: int, field: Field, u: tuple[int, ...]) -> int:
    """Number of complete flags fixed by the unipotent element u of GL_n(F_q),
    n <= 3 under the matrix space cap: the Green function value attached to
    the split torus, |C(u - 1)| #(O_{u-1} meet the upper triangular) / |B|."""
    shifted = tuple(field.add[x][field.neg[y]] for x, y in zip(u, mat_identity(n)))
    if not _is_nilpotent(field, n, shifted):
        raise ValueError("element is not unipotent")
    o = adjoint_orbits(n, field)
    _, diagonals, fixing = _orbit_census(o, o.orbit_of_matrix(shifted))
    return _levi_green_value(n, field.q, diagonals, fixing)


# -- Harish-Chandra induction and the Kazhdan-Letellier check -------------------


def hc_induction_split(n: int, field: Field, X: tuple[int, ...], Y: tuple[int, ...]) -> CycInt:
    """Evaluate the averaged induction of f_X = psi(tr(. X)) from the split
    Cartan at Y: (1/|C(Y_s)|) * Q_{C(Y_s)}(1 + Y_n) *
    sum_{g : g Y_s g^-1 diagonal} psi(tr(g Y_s g^-1 X)).  Each diagonal
    member d of O_{Y_s} is g Y_s g^-1 for |C(Y_s)| elements g, so the value
    is Q_{C(Y_s)}(1 + Y_n) * sum_d psi(tr(d X)).

    X must be diagonal with distinct entries.  The Green value is checked
    for exact divisibility.
    """
    F = field
    # entry t of a flat n x n matrix is on the diagonal exactly when n + 1 divides t
    if any(x for t, x in enumerate(X) if t % (n + 1)) or len(set(X[:: n + 1])) != n:
        raise ValueError("X must be a regular element of the split Cartan")
    o = adjoint_orbits(n, F)
    _, diagonals, fixing = _orbit_census(o, o.orbit_of_matrix(Y))
    qval = _levi_green_value(n, F.q, diagonals, fixing)
    residues = o.kernel.trace_forms(o.matrices[diagonals], [_pairing(n, X)])[:, 0]
    counts = np.bincount(residues, minlength=F.p).tolist()
    return CycInt.from_exponents(F.p, {t: qval * c for t, c in enumerate(counts) if c})


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


def kl_verify(n: int, field: Field) -> KLReport:
    """For every regular split-Cartan class X and every orbit representative
    Y, check |C(Y_s)| * F(1_{O_X})(Y) = q^{#pos roots} * Q * S exactly.

    The row of O_X is read off the column of X without a Fourier table:
    F(1_{O_X})(Y) counts |O_X| counts[O_Y, O_X] / |O_Y| matrices per residue
    (the orbit-size symmetry of `fourier_table`), the division checked.
    Both sides are count vectors over the residues, and two of them give the
    same element of Z[zeta_p] exactly when their difference is constant.

    Requires very good characteristic (p does not divide n)."""
    _check_additive_n(n)
    F = field
    if n % F.p == 0:
        raise ValueError(
            f"characteristic {F.p} is not very good for gl_{n}; check skipped"
        )
    o = adjoint_orbits(n, F)
    pos_roots = n * (n - 1) // 2
    q_pow = F.q**pos_roots

    # per-orbit data shared across all X, read off the orbit table: the
    # diagonal members of O_{Y_s}, |C(Y_s)| and the centralizer Green value;
    # each diagonal member of O_{Y_s} is g Y_s g^-1 for |C(Y_s)| elements g
    sizes = np.array([r.size for r in o.orbits], dtype=np.int64)
    census = [_orbit_census(o, oid) for oid in range(o.num_orbits)]
    cent = np.array([c for c, _, _ in census], dtype=np.int64)
    green = [_levi_green_value(n, F.q, diags, fixing) for _, diags, fixing in census]
    rhs_scale = cent * q_pow * np.array(green, dtype=np.int64)
    owner = np.repeat(np.arange(o.num_orbits), [len(diags) for _, diags, _ in census])
    diagonal_digits = o.matrices[np.concatenate([diags for _, diags, _ in census])]
    # int64 is exact: each side is at most 8 |G| q^(n^2), since Q counts at most
    # (q + 1)^(n(n-1)/2) flags and O_{Y_s} has at most q^n diagonal members

    # regular split X up to the Weyl (coordinate-permutation) action
    xs = [tuple(c) for c in itertools.combinations(range(F.q), n)]
    violations = []
    for diag in xs:
        X = tuple(diag[i] if i == j else 0 for i in range(n) for j in range(n))
        ox = o.orbit_of_matrix(X)
        row, rem = np.divmod(sizes[ox] * _column_counts(o, X, o.matrices, o.orbit_of),
                             sizes[:, None])
        if rem.any():
            raise ExactnessError("|O_X| counts[O_Y, O_X] is not divisible by |O_Y|")
        lhs = cent[:, None] * row
        rhs = rhs_scale[:, None] * _column_counts(o, X, diagonal_digits, owner)
        diff = lhs - rhs
        unequal = (diff != diff[:, :1]).any(axis=1)
        violations.extend((diag, int(oy)) for oy in np.flatnonzero(unequal))
    return KLReport(
        n=n,
        q=F.q,
        cartan_reps=len(xs),
        orbits=o.num_orbits,
        pairs_checked=len(xs) * o.num_orbits,
        violations=tuple(violations),
    )
