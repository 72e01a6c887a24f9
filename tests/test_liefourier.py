import dataclasses
import itertools

import numpy as np
import pytest
from green_reference import _flag_census, _inverse_indices, _min_poly, flag_count, levi_green_value
from orbit_reference import orbit_partition
from poly_reference import is_nilpotent

from charzero import liefourier as L
from charzero import matgroup
from charzero.cyclotomic import CycInt
from charzero.dixon import ZeroReport
from charzero.errors import ExactnessError
from charzero.ffield import (
    field_for_order,
    field_make,
    fq_poly_factor_cubic_or_less,
    fq_poly_is_squarefree,
    to_digits,
)
from charzero.liefourier import (
    additive_lower_bound,
    adjoint_orbits,
    double_fourier_check,
    fourier_table,
    fourier_zero_census,
    green_function,
    hc_induction_split,
    jordan_decomposition,
    kl_verify,
)
from charzero.matgroup import _MatrixKernel, gl_group, mat_identity, mat_inv, mat_mul


@pytest.fixture
def no_enumeration(monkeypatch):
    """Fail the test if GL_n (or any matrix group) is enumerated."""
    def unreachable(*args, **kwargs):
        pytest.fail("a matrix group was enumerated")

    for name in ("enumerate_group", "gl_group"):
        monkeypatch.setattr(matgroup, name, unreachable)


@pytest.fixture(scope="module")
def gl2_f3():
    F = field_make(3, 1)
    o = adjoint_orbits(2, F)
    return F, o, fourier_table(o)


@pytest.fixture(scope="module")
def gl2_f5():
    F = field_make(5, 1)
    o = adjoint_orbits(2, F)
    return F, o, fourier_table(o)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_gl1_orbits_and_census(q):
    F = field_make(*((q, 1) if q != 4 else (2, 2)))
    o = adjoint_orbits(1, F)
    assert o.num_orbits == q
    assert all(r.is_semisimple and r.size == 1 for r in o.orbits)
    zc = fourier_zero_census(fourier_table(o))
    assert zc.zero_entries == 0


def test_gl1_f2_values():
    F = field_make(2, 1)
    o = adjoint_orbits(1, F)
    t = fourier_table(o)
    one = o.orbit_of_matrix((1,))
    zero = o.orbit_of_matrix((0,))
    assert t.values[one][one] == -1  # psi(1) = zeta_2
    assert t.values[zero][one] == 1 and t.values[zero][zero] == 1


def test_gl2_f3_orbit_census(gl2_f3):
    _, o, _ = gl2_f3
    assert o.num_orbits == 12
    kinds = {}
    for r in o.orbits:
        key = (r.is_semisimple, r.cartan_partition)
        kinds[key] = kinds.get(key, 0) + 1
    assert kinds[(True, None)] == 3  # central
    assert kinds[(True, (1, 1))] == 3  # split regular
    assert kinds[(True, (2,))] == 3  # elliptic regular
    assert kinds[(False, None)] == 3  # scalar + regular nilpotent
    assert sum(r.size for r in o.orbits) == 81


def test_gl2_f5_semisimple_count(gl2_f5):
    _, o, _ = gl2_f5
    assert o.num_orbits == 30
    assert sum(1 for r in o.orbits if r.is_semisimple) == 25  # q^n


def test_orbit_count_identity(gl2_f3, gl2_f5):
    # |[gl_2(F_q)]| = q^2 + q = q^r + 1 * (q^r - (q^2 - q))
    for _, o, _ in (gl2_f3, gl2_f5):
        q = o.field.q
        assert o.num_orbits == q * q + q


def test_orbit_count_identity_q7():
    F = field_make(7, 1)
    o = adjoint_orbits(2, F)
    assert o.num_orbits == 56  # q^2 + q
    assert sum(1 for r in o.orbits if r.is_semisimple) == 49


def test_transform_at_zero_is_orbit_size(gl2_f3):
    _, o, t = gl2_f3
    zero_orbit = o.orbit_of_matrix((0, 0, 0, 0))
    for src, rec in enumerate(o.orbits):
        assert t.values[src][zero_orbit] == rec.size


def test_split_row_vanishes_at_elliptic(gl2_f3):
    _, o, t = gl2_f3
    for i, ri in enumerate(o.orbits):
        for j, rj in enumerate(o.orbits):
            if (
                ri.cartan_partition == (1, 1)
                and rj.cartan_partition == (2,)
            ):
                assert t.values[i][j].is_zero()
                assert t.values[j][i].is_zero()


def test_double_fourier(gl2_f3, gl2_f5):
    for _, o, t in (gl2_f3, gl2_f5):
        assert double_fourier_check(o, t)


def test_census_dominates_additive_lower_bound(gl2_f3, gl2_f5):
    for _, o, t in (gl2_f3, gl2_f5):
        raw, clamped = additive_lower_bound(o)
        zc = fourier_zero_census(t)
        assert raw < 0  # vacuous at these q, like the multiplicative bound
        assert clamped <= zc.ratio


def test_character_twist_preserves_zero_census(gl2_f3):
    _, o, t = gl2_f3
    base = fourier_zero_census(t)
    for c in range(1, 3):
        zc = fourier_zero_census(fourier_table(o, scale=c))
        assert zc.zero_entries == base.zero_entries


def test_regular_cartan_orbit_counts(gl2_f3, gl2_f5):
    # orbits of regular elements meeting the Cartan class lambda number
    # g_lambda / c_lambda: split g = q(q-1), c = 2; elliptic g = q^2 - q, c = 2
    for _, o, _ in (gl2_f3, gl2_f5):
        q = o.field.q
        split = sum(1 for r in o.orbits if r.cartan_partition == (1, 1))
        elliptic = sum(1 for r in o.orbits if r.cartan_partition == (2,))
        assert split == q * (q - 1) // 2
        assert elliptic == (q * q - q) // 2


def test_gl3_f2_orbits_and_transform():
    # |[gl_3(F_q)]| = q^3 + q^2 + q: semisimple orbits q^3 plus q(q-1)
    # one-nilpotent types plus 2q scalar-plus-nilpotent types
    F = field_make(2, 1)
    o = adjoint_orbits(3, F)
    assert o.num_orbits == 14
    assert sum(1 for r in o.orbits if r.is_semisimple) == 8
    cartans = sorted(
        r.cartan_partition for r in o.orbits if r.is_regular_semisimple
    )
    assert set(cartans) <= {(1, 1, 1), (2, 1), (3,)}
    ft = fourier_table(o)
    assert double_fourier_check(o, ft)
    for i, ri in enumerate(o.orbits):
        for j, rj in enumerate(o.orbits):
            if (
                ri.is_regular_semisimple
                and rj.is_regular_semisimple
                and ri.cartan_partition != rj.cartan_partition
            ):
                assert ft.values[i][j].is_zero()


def test_green_function_subregular(no_enumeration):
    # one 2-block plus a fixed line: the fixed-flag count is 2q + 1 (two
    # projective lines glued at a point)
    sub = (1, 1, 0, 0, 1, 0, 0, 0, 1)
    assert green_function(3, field_make(2, 1), sub) == 5
    assert green_function(3, field_make(3, 1), sub) == 7
    assert green_function(3, field_make(3, 1), mat_identity(3)) == 52


def test_jordan_decomposition_properties():
    # over F_4 the Frobenius power must fix eigenvalues outside F_2
    for n, F in [(2, field_make(3, 1)), (2, field_make(2, 2)), (3, field_make(2, 1))]:
        for code in range(F.q ** (n * n)):
            y = tuple(to_digits(code, F.q, n * n))
            ys, yn = jordan_decomposition(F, n, y)
            assert tuple(F.add[a][b] for a, b in zip(ys, yn)) == y
            assert mat_mul(F, n, ys, yn) == mat_mul(F, n, yn, ys)
            assert fq_poly_is_squarefree(F, _min_poly(F, n, ys))


@pytest.mark.parametrize("n,q", [(2, 3), (2, 4), (3, 2)])
def test_nilpotency_by_the_characteristic_polynomial_matches_the_power_loop(n, q):
    F = field_for_order(q)
    every = [tuple(to_digits(code, q, n * n)) for code in range(q ** (n * n))]
    nilpotent = [L._is_nilpotent(F, n, a) for a in every]
    assert nilpotent == [is_nilpotent(F, n, a) for a in every]
    assert sum(nilpotent) == q ** (n * (n - 1))  # Fine-Herstein


def test_adjoint_orbits_factor_each_representative_once(monkeypatch):
    calls = []

    def counted(F, a):
        calls.append(a)
        return fq_poly_factor_cubic_or_less(F, a)

    monkeypatch.setattr(L, "fq_poly_factor_cubic_or_less", counted)
    orbits = adjoint_orbits(3, field_make(3, 1))
    assert len(calls) == orbits.num_orbits


def test_green_function_values(no_enumeration):
    F3 = field_make(3, 1)
    assert green_function(2, F3, mat_identity(2)) == 4  # q + 1
    assert green_function(2, F3, (1, 1, 0, 1)) == 1  # regular unipotent
    F2 = field_make(2, 1)
    assert green_function(3, F2, mat_identity(3)) == 21  # (q^2+q+1)(q+1)
    with pytest.raises(ValueError, match="unipotent"):
        green_function(2, F3, (2, 0, 0, 2))


def test_hc_induction_examples(gl2_f3, no_enumeration):
    F, o, t = gl2_f3
    X = (1, 0, 0, 2)
    # Y = 0: value (1/|G|) * |G| * Q(1) = q + 1, and q^{[pos roots]} * (q+1)
    # equals |O_X| = F(1_{O_X})(0)
    v0 = hc_induction_split(2, F, X, (0, 0, 0, 0))
    assert v0 == 4
    ox = o.orbit_of_matrix(X)
    zero_orbit = o.orbit_of_matrix((0, 0, 0, 0))
    assert t.values[ox][zero_orbit] == 12 == 3 * 4
    # elliptic Y: empty summation set
    elliptic = next(r.rep for r in o.orbits if r.cartan_partition == (2,))
    assert hc_induction_split(2, F, X, elliptic).is_zero()
    # Y = X: q^{pos roots} * value = F(1_{O_X})(X)
    vx = hc_induction_split(2, F, X, X)
    assert vx * 3 == t.values[ox][ox]


def test_hc_rejects_non_regular_X(gl2_f3):
    F, _, _ = gl2_f3
    with pytest.raises(ValueError, match="regular"):
        hc_induction_split(2, F, (1, 0, 0, 1), (0, 0, 0, 0))


def test_kl_verify_passes(gl2_f3, gl2_f5, no_enumeration):
    for F, _, _ in (gl2_f3, gl2_f5):
        rep = kl_verify(2, F)
        assert rep.passed
        assert rep.pairs_checked == rep.cartan_reps * rep.orbits


def test_kl_rejects_bad_characteristic():
    F2 = field_make(2, 1)
    with pytest.raises(ValueError, match="very good"):
        kl_verify(2, F2)


def test_the_matrix_space_is_decoded_once(monkeypatch):
    calls = []
    decode = _MatrixKernel.decode

    def counted(self, codes):
        calls.append(len(codes))
        return decode(self, codes)

    monkeypatch.setattr(_MatrixKernel, "decode", counted)
    F = field_make(5, 1)
    assert kl_verify(2, F).passed
    assert calls == [5**4]
    calls.clear()
    o = adjoint_orbits(2, F)
    fourier_table(o)
    assert calls == [5**4]


def test_space_cap():
    # gl_3(F_7) has 7^9 (about 4.0e7) matrices, over the 10^7 cap
    F = field_make(7, 1)
    with pytest.raises(ValueError, match="cap"):
        adjoint_orbits(3, F)


# -- the batched stages against one-matrix-at-a-time references --------------

ALGEBRAS = [(1, 5), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2)]


def _code(digits, q):
    """The base-q code of a digit vector, digit 0 least significant."""
    return sum(d * q**i for i, d in enumerate(digits))


def _reference_orbits(n, F):
    """Orbits by closing one seed at a time under scalar conjugation by the
    generators of GL_n."""
    group = gl_group(n, F.q)
    pairs = [(group.element(i), group.element(group.inv_idx(i))) for i in group.generator_indices]

    def conjugates(level):
        return (mat_mul(F, n, mat_mul(F, n, g, x), g_inv) for x in level for g, g_inv in pairs)

    return orbit_partition(F.q ** (n * n), conjugates,
                           lambda code: tuple(to_digits(code, F.q, n * n)),
                           lambda a: _code(a, F.q))


@pytest.mark.parametrize("n,q", ALGEBRAS)
def test_adjoint_orbits_match_the_per_seed_bfs(n, q, request):
    F = field_for_order(q)
    orbit_of, orbits = _reference_orbits(n, F)
    request.getfixturevalue("no_enumeration")
    o = adjoint_orbits(n, F)
    assert o.orbit_of.tolist() == orbit_of
    assert [list(r.rep) for r in o.orbits] == [to_digits(members[0], q, n * n) for members in orbits]
    assert [members.tolist() for members in o.orbit_elements] == [sorted(members) for members in orbits]
    for rec in o.orbits:
        ys, yn = jordan_decomposition(F, n, rec.rep)
        assert rec.size == len(orbits[orbit_of[_code(rec.rep, q)]])
        assert rec.semisimple_part_orbit == orbit_of[_code(ys, q)]
        assert rec.is_semisimple == (yn == (0,) * (n * n))


def _trace_residue(F, n, a, b):
    """Tr_{F_q/F_p}(tr(a b)), one matrix pair at a time."""
    acc = 0
    for i in range(n):
        for j in range(n):
            acc = F.add[acc][F.mul[a[i * n + j]][b[j * n + i]]]
    return F.trace_to_prime(acc)


@pytest.mark.parametrize("n,q", ALGEBRAS)
def test_fourier_table_matches_the_per_matrix_sum(n, q):
    F = field_for_order(q)
    o = adjoint_orbits(n, F)
    for scale in sorted({1, q - 1}):
        t = fourier_table(o, scale=scale)
        reps = [tuple(F.mul[scale][x] for x in rec.rep) for rec in o.orbits]
        counts = [[[0] * F.p for _ in reps] for _ in reps]
        for code, src in enumerate(o.orbit_of.tolist()):
            y = to_digits(code, q, n * n)
            for tgt, rep in enumerate(reps):
                counts[src][tgt][_trace_residue(F, n, rep, y)] += 1
        expected = [[CycInt.from_exponents(F.p, dict(enumerate(c))) for c in row] for row in counts]
        assert [list(row) for row in t.values] == expected


def test_a_corrupted_transform_value_is_caught():
    F = field_make(3, 1)
    o = adjoint_orbits(2, F)
    t = fourier_table(o)
    tgt = next(i for i, members in enumerate(o.orbit_elements) if len(members) > 1)
    counts = t.counts.copy()
    counts[0, tgt, 0] += 1
    with pytest.raises(ExactnessError, match="representative"):
        L._recheck_well_defined(o, dataclasses.replace(t, counts=counts), 1)


def test_a_corrupted_orbit_size_breaks_the_symmetry_division():
    F = field_make(3, 1)
    o = adjoint_orbits(2, F)
    big = max(range(o.num_orbits), key=lambda i: o.orbits[i].size)
    orbits = list(o.orbits)
    orbits[big] = dataclasses.replace(orbits[big], size=orbits[big].size + 1)
    with pytest.raises(ExactnessError, match="not divisible"):
        fourier_table(dataclasses.replace(o, orbits=tuple(orbits)))


def test_a_wrong_representative_breaks_the_equal_size_cross_check():
    # give an orbit the representative of another orbit of the same size
    F = field_make(3, 1)
    o = adjoint_orbits(2, F)
    sizes = [r.size for r in o.orbits]
    a, b = [i for i, s in enumerate(sizes) if s == max(sizes)][:2]
    orbits = list(o.orbits)
    orbits[a] = dataclasses.replace(orbits[a], rep=orbits[b].rep)
    with pytest.raises(ExactnessError, match="equal size"):
        fourier_table(dataclasses.replace(o, orbits=tuple(orbits)))


def test_the_kl_check_sees_a_wrong_green_value(monkeypatch):
    green = L._levi_green_value
    monkeypatch.setattr(L, "_levi_green_value", lambda *args: green(*args) + 1)
    rep = kl_verify(2, field_make(5, 1))
    assert not rep.passed
    assert rep.pairs_checked == rep.cartan_reps * rep.orbits


@pytest.mark.parametrize("n,q", [(2, 3), (2, 5), (2, 7), (3, 2), (3, 3)])
def test_the_count_census_matches_the_cyclotomic_census(n, q):
    t = fourier_table(adjoint_orbits(n, field_make(q, 1)))
    by_value = np.array([[v.is_zero() for v in row] for row in t.values])
    assert fourier_zero_census(t) == ZeroReport.of_mask(by_value)


def test_the_count_path_forms_no_cyclotomic_value_and_kl_no_table(monkeypatch):
    def unreachable(*args, **kwargs):
        pytest.fail("the count path formed a cyclotomic value or a Fourier table")

    table = L.fourier_table
    monkeypatch.setattr(CycInt, "from_exponents", staticmethod(unreachable))
    monkeypatch.setattr(L, "fourier_table", unreachable)
    F = field_make(5, 1)
    assert kl_verify(2, F).passed
    t = table(adjoint_orbits(2, F))
    fourier_zero_census(t)
    assert "values" not in vars(t)  # the lazy CycInt table was never built


def _upper_triangular(n, a):
    return all(a[i * n + j] == 0 for i in range(n) for j in range(i))


def _diagonal_matrix_code(q, n, diag):
    """The matrix code of diag(d_0, ..., d_{n-1}): sum_k d_k q^(k(n+1))."""
    return sum(d * q ** (k * (n + 1)) for k, d in enumerate(diag))


@pytest.mark.parametrize("n,q", [(2, 3), (2, 5), (2, 7), (3, 2)])
def test_flag_census_matches_the_per_element_loop(n, q):
    F = field_for_order(q)
    group, o = gl_group(n, q), adjoint_orbits(n, F)
    elements = [group.element(i) for i in range(group.order)]
    inverses = [mat_inv(F, n, g) for g in elements]
    xs = list(itertools.combinations(range(q), n))
    for oid, rec in enumerate(o.orbits):
        ys, yn = jordan_decomposition(F, n, rec.rep)
        cent, diagonals, fixing = 0, [], 0
        for g, g_inv in zip(elements, inverses):
            gy = mat_mul(F, n, mat_mul(F, n, g, ys), g_inv)
            cent += gy == ys
            if all(gy[a] == 0 for a in range(n * n) if a % (n + 1)):
                diagonals.append(gy[:: n + 1])
            if _upper_triangular(n, gy):
                fixing += _upper_triangular(n, mat_mul(F, n, mat_mul(F, n, g, yn), g_inv))
        got_cent, codes, got_fixing = L._orbit_census(o, oid)
        assert (got_cent, got_fixing) == (cent, fixing)
        # each diagonal member of O_{Y_s} is the conjugate by |C(Y_s)| elements
        assert sorted(codes.tolist() * cent) == sorted(
            _diagonal_matrix_code(q, n, diag) for diag in diagonals)
        for x in xs[:3]:
            counts = [0] * F.p
            for d in diagonals:
                acc = 0
                for a, b in zip(d, x):
                    acc = F.add[acc][F.mul[a][b]]
                counts[F.trace_to_prime(acc)] += 1
            X = tuple(x[i] if i == j else 0 for i in range(n) for j in range(n))
            residues = o.kernel.trace_forms(o.matrices[codes], [L._pairing(n, X)])[:, 0]
            assert [c * cent for c in np.bincount(residues, minlength=F.p).tolist()] == counts


@pytest.mark.parametrize("n,q", [(2, 3), (2, 4), (2, 5), (2, 7), (3, 2), (3, 3)])
def test_orbit_census_matches_the_group_flag_census(n, q):
    F = field_for_order(q)
    group, o = gl_group(n, q), adjoint_orbits(n, F)
    inverse = _inverse_indices(group)
    assert [group.element(j) for j in inverse.tolist()] == [
        mat_inv(F, n, group.element(i)) for i in range(group.order)]
    for oid, rec in enumerate(o.orbits):
        cent, diagonals, fixing = _flag_census(group, inverse, *jordan_decomposition(F, n, rec.rep))
        got_cent, codes, got_fixing = L._orbit_census(o, oid)
        assert (got_cent, got_fixing) == (cent, fixing)
        # the reference codes a diagonal by its n entries alone: sum_k d_k q^k
        assert sorted(codes.tolist() * cent) == sorted(
            _diagonal_matrix_code(q, n, to_digits(c, q, n)) for c in diagonals.tolist())


@pytest.mark.parametrize("n,q", [(2, 3), (2, 4), (2, 5), (2, 7), (3, 2), (3, 3)])
def test_flag_census_green_values_match_the_eigenblock_reference(n, q, no_enumeration):
    # fixing = |B| |W/W_L| Q_L(1 + Y_n), with |W/W_L| the number of diagonal
    # members of O_{Y_s}
    F = field_for_order(q)
    o, borel = adjoint_orbits(n, F), (q - 1) ** n * q ** (n * (n - 1) // 2)
    for oid, rec in enumerate(o.orbits):
        ys, yn = jordan_decomposition(F, n, rec.rep)
        _, diagonals, fixing = L._orbit_census(o, oid)
        green = L._levi_green_value(n, q, diagonals, fixing)
        if not len(diagonals):
            assert fixing == green == 0
            with pytest.raises(RuntimeError, match="not split"):
                levi_green_value(F, n, ys, yn)
            continue
        reference = levi_green_value(F, n, ys, yn)
        assert green == reference
        assert fixing == borel * len(diagonals) * reference


@pytest.mark.parametrize("n,q", [(2, 3), (2, 4), (3, 2)])
def test_green_function_matches_the_projective_point_count(n, q, request):
    F = field_for_order(q)
    group = gl_group(n, q)
    ident = mat_identity(n)
    unipotents = [u for u in map(group.element, range(group.order))
                  if L._is_nilpotent(F, n, tuple(F.add[x][F.neg[y]] for x, y in zip(u, ident)))]
    assert len(unipotents) == q ** (n * (n - 1))  # Steinberg
    request.getfixturevalue("no_enumeration")
    for u in unipotents:
        assert green_function(n, F, u) == flag_count(n, F, u)



def test_fourier_table_checks_its_size_before_allocating(monkeypatch):
    """`fourier_table` predicts its count array, orbits^2 * p * 8 bytes,
    from the closed-form orbit count and refuses one above MAX_FOURIER_BYTES."""
    o = adjoint_orbits(2, field_for_order(3))
    assert o.num_orbits == 12
    monkeypatch.setattr(L, "MAX_FOURIER_BYTES", 12 * 12 * 3 * 8 - 1)
    with pytest.raises(ValueError, match=f"needs {12 * 12 * 3 * 8} bytes"):
        fourier_table(o)
    monkeypatch.setattr(L, "MAX_FOURIER_BYTES", 12 * 12 * 3 * 8)
    assert fourier_table(o).counts.nbytes == 12 * 12 * 3 * 8
