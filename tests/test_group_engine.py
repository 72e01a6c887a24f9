"""The batched group engine against pure-Python references: element order of
the level-batched BFS, least-index class labels and power maps, the class
matrices, and `mul_many` against the scalar product."""

from functools import lru_cache
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from orbit_reference import orbit_partition

from charzero.dixon import _class_rows
from charzero.errors import ExactnessError
from charzero.ffield import field_for_order
from charzero.matgroup import (
    ProductGroupTable,
    conjugacy_classes,
    direct_product,
    enumerate_group,
    gl_generators,
    gl_group,
    mat_identity,
    mat_inv,
    mat_mul,
    orbit_labels,
    sl_generators,
    sl_group,
)

GROUPS = [("GL", 2, q) for q in (2, 3, 4, 5, 7, 9)] + [("GL", 3, 2), ("GL", 3, 3),
                                                        ("SL", 2, 5), ("SL", 3, 2)]


def _group(kind, n, q):
    return (gl_group if kind == "GL" else sl_group)(n, q)


@lru_cache(maxsize=None)
def _reference_bfs(kind, n, q):
    """Element tuples in the order of a one-product-at-a-time BFS from the
    identity over the sorted generators, and their index."""
    F = field_for_order(q)
    gens = sorted(set((gl_generators if kind == "GL" else sl_generators)(n, F)))
    elements, index = [mat_identity(n)], {mat_identity(n): 0}
    done = 0
    while done < len(elements):
        level = elements[done:]
        done = len(elements)
        for x in level:
            for g in gens:
                y = mat_mul(F, n, x, g)
                if y not in index:
                    index[y] = len(elements)
                    elements.append(y)
    return F, elements, index


@pytest.mark.parametrize("kind,n,q", GROUPS)
def test_enumeration_order_matches_reference_bfs(kind, n, q):
    _, elements, _ = _reference_bfs(kind, n, q)
    g = _group(kind, n, q)
    assert [g.element(i) for i in range(g.order)] == elements


@pytest.mark.parametrize("kind,n,q", GROUPS)
def test_class_data_matches_orbit_partition(kind, n, q):
    F, elements, index = _reference_bfs(kind, n, q)
    g = _group(kind, n, q)
    gen_pairs = [(elements[i], mat_inv(F, n, elements[i])) for i in g.generator_indices]

    def conjugates(level):
        return (mat_mul(F, n, mat_mul(F, n, gi, x), gi_inv) for x in level for gi, gi_inv in gen_pairs)

    class_of, orbits = orbit_partition(len(elements), conjugates, elements.__getitem__, index.__getitem__)
    cd = conjugacy_classes(g)
    assert cd.class_of.tolist() == class_of
    assert cd.class_reps == [members[0] for members in orbits]
    assert cd.class_sizes == [len(members) for members in orbits]
    power_map = []
    for rep in cd.class_reps:
        row, cur = [], mat_identity(n)
        while True:
            row.append(class_of[index[cur]])
            cur = mat_mul(F, n, cur, elements[rep])
            if cur == mat_identity(n):
                break
        power_map.append(row)
    assert cd.power_map == power_map
    assert cd.rep_orders == [len(row) for row in power_map]
    assert cd.exponent == lcm(*cd.rep_orders)
    assert cd.inverse_class == [row[-1] for row in power_map]


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_orbit_labels_match_the_per_seed_bfs(data):
    size = data.draw(st.integers(1, 40))
    perms = [np.array(data.draw(st.permutations(range(size))))
             for _ in range(data.draw(st.integers(0, 3)))]
    reps, orbit_of = orbit_labels(size, perms)
    ref_of, orbits = orbit_partition(size, lambda level: (int(p[x]) for x in level for p in perms))
    assert orbit_of.tolist() == ref_of
    assert reps.tolist() == [members[0] for members in orbits]


def _multiplication_table(kind, n, q):
    F, elements, index = _reference_bfs(kind, n, q)
    return np.array([[index[mat_mul(F, n, x, y)] for y in elements] for x in elements])


@pytest.mark.parametrize("factors", [[("GL", 2, q)] for q in (2, 3, 4, 5)]
                         + [[("GL", 3, 2)], [("SL", 2, 5)], [("GL", 2, 2), ("GL", 2, 3)]])
def test_class_coefficient_tensor_is_a_pair_count(factors):
    """Every row of every slice of the class-coefficient tensor, as
    `_class_rows` builds it from the class-algebra identity:
    class_rows(i, [j])[0, k] = #{(u, v) in C_i x C_j : u v = rep_k} for
    every class i and j, counted over all pairs of a full multiplication
    table."""
    tables = [_multiplication_table(*f) for f in factors]
    groups = [_group(*f) for f in factors]
    if len(factors) == 1:
        (table,), (g,) = tables, groups
    else:
        (ta, tb), g = tables, direct_product(*groups)
        nb = len(tb)
        table = (ta[:, None, :, None] * nb + tb[None, :, None, :]).reshape(g.order, g.order)
    cd = conjugacy_classes(g)
    tau = cd.num_classes
    brute = np.zeros((tau, tau, tau), dtype=np.int64)
    for k, rep in enumerate(cd.class_reps):
        us, vs = np.nonzero(table == rep)
        brute[:, :, k] = np.bincount(cd.class_of[us] * tau + cd.class_of[vs],
                                     minlength=tau * tau).reshape(tau, tau)
    class_rows = _class_rows(g, cd)
    for i in range(tau):
        assert np.array_equal(class_rows(i, range(tau)), brute[i]), i
        for j in range(tau):  # one row at a time, from the memo
            assert np.array_equal(class_rows(i, [j]), brute[i, j : j + 1]), (i, j)


def test_a_corrupted_class_size_breaks_the_row_division():
    """Each class row is divided by the class sizes |C_k|; a class size one
    too large leaves a remainder, which is an internal error."""
    g = _group("GL", 2, 3)
    cd = conjugacy_classes(g)
    k = int(np.argmax(cd.class_sizes))
    cd.class_sizes = [s + (c == k) for c, s in enumerate(cd.class_sizes)]
    class_rows = _class_rows(g, cd)
    with pytest.raises(ExactnessError, match="not divisible by"):
        for i in range(cd.num_classes):
            class_rows(i, range(cd.num_classes))


@lru_cache(maxsize=None)
def _element_index(g):
    return {g.element(k): k for k in range(g.order)}


def _scalar_product(g, i, j):
    """Index of the product of elements i and j, one matrix product at a time."""
    if isinstance(g, ProductGroupTable):  # elements are pairs of factor indices
        (ia, ib), (ja, jb) = divmod(i, g.b.order), divmod(j, g.b.order)
        return _scalar_product(g.a, ia, ja) * g.b.order + _scalar_product(g.b, ib, jb)
    return _element_index(g)[mat_mul(g.field, g.dim, g.element(i), g.element(j))]


@pytest.mark.parametrize("make", [
    lambda: gl_group(2, 4),
    lambda: gl_group(3, 3),
    lambda: sl_group(2, 5),
    lambda: direct_product(gl_group(2, 4), gl_group(2, 3)),
], ids=["GL2(F4)", "GL3(F3)", "SL2(F5)", "GL2(F4)xGL2(F3)"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mul_many_matches_scalar_products(make, data):
    g = make()
    idx = st.integers(0, g.order - 1)
    a = data.draw(st.lists(idx, min_size=0, max_size=40))
    b = data.draw(st.lists(idx, min_size=len(a), max_size=len(a)))
    assert g.mul_many(a, b).tolist() == [_scalar_product(g, x, y) for x, y in zip(a, b)]
    y = data.draw(idx)
    assert g.mul_many(a, y).tolist() == [_scalar_product(g, x, y) for x in a]


def test_matrix_codes_beyond_64_bits_are_refused():
    F = field_for_order(2)
    with pytest.raises(ValueError, match="beyond 64 bits"):
        enumerate_group([mat_identity(8)], F, 8, order=1)
