import pytest

from charzero.ffield import field_make
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
from charzero.matgroup import mat_decode, mat_identity, mat_mul


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


def test_green_function_subregular():
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
            y = mat_decode(F.q, n, code)
            ys, yn = jordan_decomposition(F, n, y)
            assert tuple(F.add[a][b] for a, b in zip(ys, yn)) == y
            assert mat_mul(F, n, ys, yn) == mat_mul(F, n, yn, ys)


def test_green_function_values():
    F3 = field_make(3, 1)
    assert green_function(2, F3, mat_identity(2)) == 4  # q + 1
    assert green_function(2, F3, (1, 1, 0, 1)) == 1  # regular unipotent
    F2 = field_make(2, 1)
    assert green_function(3, F2, mat_identity(3)) == 21  # (q^2+q+1)(q+1)
    with pytest.raises(ValueError, match="unipotent"):
        green_function(2, F3, (2, 0, 0, 2))


def test_hc_induction_examples(gl2_f3):
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


def test_kl_verify_passes(gl2_f3, gl2_f5):
    for F, o, t in (gl2_f3, gl2_f5):
        rep = kl_verify(2, F, o, t)
        assert rep.passed
        assert rep.pairs_checked == rep.cartan_reps * rep.orbits


def test_kl_rejects_bad_characteristic():
    F2 = field_make(2, 1)
    with pytest.raises(ValueError, match="very good"):
        kl_verify(2, F2)


def test_space_cap():
    F = field_make(5, 1)
    with pytest.raises(ValueError, match="cap"):
        adjoint_orbits(2, F, cap=100)
