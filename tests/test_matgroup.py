import numpy as np
import pytest

from charzero.ffield import field_make
from charzero.matgroup import (
    EnumerationCapExceeded,
    conjugacy_classes,
    direct_product,
    enumerate_group,
    gl_generators,
    gl_group,
    mat_identity,
    mat_inv,
    mat_mul,
    sl_group,
)


def test_gl2_orders():
    assert gl_group(2, 2).order == 6
    assert gl_group(2, 3).order == 48
    assert gl_group(3, 2).order == 168


def test_class_counts():
    assert conjugacy_classes(gl_group(2, 2)).num_classes == 3
    assert conjugacy_classes(gl_group(2, 3)).num_classes == 8  # q^2 - 1
    assert conjugacy_classes(gl_group(3, 2)).num_classes == 6  # q^3 - q at q=2


def test_class_sizes_partition_group():
    cd = conjugacy_classes(gl_group(2, 3))
    assert sum(cd.class_sizes) == 48
    assert cd.class_of[0] == 0 and cd.class_sizes[0] == 1  # identity first


def test_centralizers_by_direct_stabilizer_count():
    g = gl_group(2, 3)
    cd = conjugacy_classes(g)
    F, n = g.field, g.dim
    elements = [g.element(i) for i in range(g.order)]
    for rep, size in list(zip(cd.class_reps, cd.class_sizes))[:10]:
        r = elements[rep]
        cent = sum(
            1 for x in elements
            if mat_mul(F, n, x, r) == mat_mul(F, n, r, x)
        )
        assert size * cent == g.order


def test_power_map_consistency():
    cd = conjugacy_classes(gl_group(2, 3))
    for c in range(cd.num_classes):
        assert cd.power_class(c, 1) == c
        assert cd.power_class(c, 0) == 0


def test_exponent():
    cd = conjugacy_classes(gl_group(2, 3))
    assert cd.exponent == 24


def test_direct_products():
    s3 = gl_group(2, 2)
    prod = direct_product(s3, s3)
    assert prod.order == 36
    assert conjugacy_classes(prod).num_classes == 9
    mixed = direct_product(gl_group(2, 2), gl_group(2, 3))
    assert mixed.order == 288
    assert conjugacy_classes(mixed).num_classes == 24


def test_product_with_trivial_group():
    F2 = field_make(2, 1)
    trivial = enumerate_group([mat_identity(1)], F2, 1, order=1)
    assert trivial.order == 1
    g = gl_group(2, 3)
    prod = direct_product(g, trivial)
    cd = conjugacy_classes(prod)
    base = conjugacy_classes(g)
    assert cd.num_classes == base.num_classes
    assert sorted(cd.class_sizes) == sorted(base.class_sizes)


def test_enumeration_is_deterministic():
    F = field_make(3, 1)
    gens = gl_generators(2, F)
    a = enumerate_group(gens, F, 2, order=48)
    b = enumerate_group(gens, F, 2, order=48)
    assert np.array_equal(a.digits, b.digits)
    assert a.generator_indices == b.generator_indices


def test_cap_exceeded():
    F = field_make(3, 1)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_group(gl_generators(2, F), F, 2, cap=10, order=48)


def test_singular_generator_rejected():
    F = field_make(3, 1)
    with pytest.raises(ValueError, match="singular"):
        enumerate_group([(1, 0, 0, 0)], F, 2, order=48)


def test_matrix_inverse():
    F = field_make(5, 1)
    m = (1, 2, 3, 4)
    assert mat_mul(F, 2, m, mat_inv(F, 2, m)) == mat_identity(2)


def test_sl_groups():
    assert sl_group(2, 4).order == 60
    assert sl_group(2, 5).order == 120
    assert sl_group(2, 7).order == 336


def test_cap_checked_before_enumeration(monkeypatch):
    from charzero import matgroup

    def unreachable(*args, **kwargs):
        raise AssertionError("group enumeration was reached")

    monkeypatch.setattr(matgroup, "enumerate_group", unreachable)
    with pytest.raises(EnumerationCapExceeded, match="24261120, over the enumeration cap 5000000"):
        gl_group(4, 3)
    with pytest.raises(EnumerationCapExceeded, match="1320, over the enumeration cap 100"):
        sl_group(2, 11, 100)
