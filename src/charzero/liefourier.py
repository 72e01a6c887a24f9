"""Adjoint orbits of gl_n(F_q), the trace-form Fourier transform of orbit
indicators, Green functions by fixed-flag counting, Harish-Chandra induction
from the split Cartan, and the Kazhdan-Letellier identity check.

The matrix space is decoded once, by the `_MatrixKernel` that owns the
matrix codes, and the orbit table keeps that digit array and its kernel.
Orbits are the `orbit_labels` of one conjugation permutation per generator
of GL_n over the whole space, numbered by least code.  The transform of an
orbit indicator is F(1_O)(Y) = sum_{y in O} psi(tr(Y y)) with
psi = zeta_p^Tr the canonical additive character; values are exact
cyclotomic integers of conductor p, accumulated as counts per trace residue
Tr(tr(Y y)), which the kernel's trace form gives for the whole space, one
column (target orbit) per bincount.
Jordan decompositions are computed exactly (the semisimple part is the
q^N-th power of the matrix, N = lcm(1..n)), once per orbit representative.
Everything the KL check needs is then read off the orbit table, with no
group element formed: |C(Y_s)| = |G| / |O_{Y_s}|, the diagonal conjugates
of Y_s are the diagonal members of O_{Y_s}, and the complete flags fixed by
Y come from the upper-triangular members of O_Y, hence the Green value
Q_{C(Y_s)}(1 + Y_n); the KL sums are bincounts of the same whole-space
trace form at the matrix codes of those diagonal members.  `green_function`
is the Y_s = 0 case.  Each division is checked for exact divisibility.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm

import numpy as np

from .cyclotomic import CycInt
from .dixon import ZeroReport
from .errors import ExactnessError
from .ffield import (
    Field,
    fq_poly_factor_cubic_or_less,
    fq_poly_is_squarefree,
)
from .matgroup import (
    _MatrixKernel,
    gl_generators,
    gl_order,
    mat_charpoly,
    mat_identity,
    mat_mul,
    orbit_labels,
)
from .weyl import partitions, sum_inv_c_sq_stream

DEFAULT_MATRIX_SPACE_CAP = 10**7


def _check_additive_n(n: int) -> None:
    # mat_charpoly and fq_poly_factor_cubic_or_less stop at n = 3
    if not 1 <= n <= 3:
        raise ValueError(f"gl_{n} is out of range: the additive side supports 1 <= n <= 3")


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


def adjoint_orbits(n: int, field: Field, cap: int = DEFAULT_MATRIX_SPACE_CAP) -> OrbitTable:
    """Orbits of GL_n(F_q) acting on n x n matrices by conjugation.

    The generators of GL_n act; neither the group nor an inverse is formed.
    Orbits are numbered by least code, whatever the generating set."""
    _check_additive_n(n)
    q = field.q
    space = q ** (n * n)
    if space > cap:
        raise ValueError(f"matrix space size {space} exceeds cap {cap}")
    kernel = _MatrixKernel(field, n)
    every = kernel.decode(np.arange(space))
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
    # similarity classes: one per choice of a partition and q^(parts) eigenvalue data
    classes = sum(q ** len(lam) for lam in partitions(n))
    if len(records) != classes:
        raise ExactnessError(f"orbit count {len(records)} differs from the class count {classes}")
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


def _trace_pairing(o: OrbitTable, y: tuple[int, ...] | list[int]) -> np.ndarray:
    """Tr(tr(y x)) for every matrix x of the space, in code order."""
    n = o.n
    # tr(y x) = sum over (a, b) of y[b, a] * x[a, b]
    return o.kernel.trace_form(o.matrices, [y[b * n + a] for a in range(n) for b in range(n)])


def _transform_column(o: OrbitTable, y: list[int]) -> list[CycInt]:
    """F(1_O)(y) for every orbit O: each source orbit's count of matrices x
    per value of Tr(tr(y x)), from one bincount over the whole space."""
    p = o.field.p
    counts = np.bincount(o.orbit_of * p + _trace_pairing(o, y), minlength=o.num_orbits * p)
    return [CycInt.from_exponents(p, {t: c for t, c in enumerate(row) if c})
            for row in counts.reshape(-1, p).tolist()]


def fourier_table(o: OrbitTable, scale: int = 1) -> FourierTable:
    """values[O, O'] = F(1_O)(rep(O')) = sum_{y in O} psi(scale * tr(rep(O') y)).

    `scale` (a nonzero field element) replaces psi by psi(scale * .), which
    permutes rows but must not change the zero census; the default is the
    canonical character.  Columns are computed one target orbit at a time,
    so no (orbits x q^(n^2)) array is built.
    """
    F = o.field
    if not 1 <= scale < F.q:
        raise ValueError("character scale must be a nonzero field element code")
    columns = [_transform_column(o, [F.mul[scale][x] for x in rec.rep]) for rec in o.orbits]
    values = tuple(zip(*columns))
    table = FourierTable(
        conductor=F.p,
        values=values,
        orbit_sizes=tuple(r.size for r in o.orbits),
    )
    zero_orbit = int(o.orbit_of[0])  # code 0 is the zero matrix
    for src in range(o.num_orbits):
        if values[src][zero_orbit] != o.orbits[src].size:
            raise ExactnessError("F(1_O)(0) != |O|; transform is inconsistent")
    _recheck_well_defined(o, table, scale)
    return table


def _recheck_well_defined(o: OrbitTable, t: FourierTable, scale: int) -> None:
    """Recompute a handful of columns at a second orbit representative; the
    choice is deterministic (first five multi-element orbits, second member)."""
    second = [(tgt, int(members[1])) for tgt, members in enumerate(o.orbit_elements)
              if len(members) > 1]
    for tgt, code in second[:5]:
        alt = [o.field.mul[scale][x] for x in o.matrices[code].tolist()]
        if _transform_column(o, alt) != [row[tgt] for row in t.values]:
            raise ExactnessError("transform value depends on the orbit representative")


def fourier_zero_census(t: FourierTable) -> ZeroReport:
    return ZeroReport.of_table(t.values)


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


def _residue_counts(residues: np.ndarray, diagonals: np.ndarray, p: int) -> list[int]:
    """Counts per value of Tr(tr(d X)) over the diagonal matrices d with the
    given codes; `residues` holds that trace at every matrix code."""
    return np.bincount(residues[diagonals], minlength=p).tolist()


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
    counts = _residue_counts(_trace_pairing(o, X), diagonals, F.p)
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
    if orbit_tab is None:
        orbit_tab = adjoint_orbits(n, F)
    if four is None:
        four = fourier_table(orbit_tab)
    p = F.p
    pos_roots = n * (n - 1) // 2
    q_pow = F.q**pos_roots

    # per-orbit data shared across all X, read off the orbit table: the
    # diagonal members of O_{Y_s}, |C(Y_s)| and the centralizer Green value
    per_orbit = []
    for oid in range(orbit_tab.num_orbits):
        cent, diagonals, fixing = _orbit_census(orbit_tab, oid)
        per_orbit.append((diagonals, cent, _levi_green_value(n, F.q, diagonals, fixing)))

    # regular split X up to the Weyl (coordinate-permutation) action
    xs = [tuple(c) for c in itertools.combinations(range(F.q), n)]
    violations = []
    pairs = 0
    for diag in xs:
        X = tuple(diag[i] if i == j else 0 for i in range(n) for j in range(n))
        ox = orbit_tab.orbit_of_matrix(X)
        residues = _trace_pairing(orbit_tab, X)
        for oy in range(orbit_tab.num_orbits):
            diagonals, cent, qval = per_orbit[oy]
            counts = _residue_counts(residues, diagonals, p)
            lhs = four.values[ox][oy] * cent
            # each diagonal member of O_{Y_s} is g Y_s g^-1 for |C(Y_s)| elements g
            rhs = CycInt.from_exponents(
                p, {t: q_pow * qval * cent * c for t, c in enumerate(counts) if c}
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
