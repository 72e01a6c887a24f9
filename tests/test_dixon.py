import random
import tracemalloc
from fractions import Fraction
from math import gcd, prod

import pytest

from gl2_reference import gl2_reference

from charzero.cyclotomic import CycInt
from charzero.dixon import (
    CharacterTable,
    _degrees,
    dixon_character_table,
    dixon_zero_census,
    verify_orthogonality,
    zero_census,
)
from charzero.matgroup import conjugacy_classes, direct_product, gl_group, sl_group


def test_s3_table(gl2_census):
    t, zc = gl2_census[2]
    assert sorted(t.degrees) == [1, 1, 2]
    assert zc.zero_entries == 1 and zc.total_entries == 9
    assert zc.ratio == Fraction(1, 9)
    # the single zero is the 2-dimensional character on the order-2 class
    row = t.values[t.degrees.index(2)]
    (zero_class,) = [k for k, v in enumerate(row) if v.is_zero()]
    assert t.class_rep_orders[zero_class] == 2


def test_gl2_f3_degree_multiset(gl2_census):
    t, _ = gl2_census[3]
    assert sorted(t.degrees) == [1, 1, 2, 2, 2, 3, 3, 4]
    assert sum(d * d for d in t.degrees) == 48


def test_gl2_generic_degree_pattern(gl2_census):
    # degrees of GL_2(F_q): 1 (x q-1), q-1 (x (q^2-q)/2), q (x q-1),
    # q+1 (x (q-1)(q-2)/2)
    for q, (t, _) in gl2_census.items():
        from collections import Counter

        got = Counter(t.degrees)
        expect = Counter()
        expect[1] = q - 1
        expect[q] += q - 1
        if (q * q - q) // 2:
            expect[q - 1] += (q * q - q) // 2
        if (q - 1) * (q - 2) // 2:
            expect[q + 1] += (q - 1) * (q - 2) // 2
        assert got == expect, q


def test_gl3_f2_is_the_simple_group_of_order_168(gl3_census):
    t, zc = gl3_census[2]
    assert t.group_order == 168
    assert sorted(t.degrees) == [1, 3, 3, 6, 7, 8]
    assert zc.zero_entries == 8 and zc.total_entries == 36


def test_tables_are_square(gl2_census, gl3_census):
    for t, _ in list(gl2_census.values()) + list(gl3_census.values()):
        assert len(t.values) == t.num_classes
        assert all(len(row) == t.num_classes for row in t.values)
        assert all(v == 1 for v in t.values[0])  # trivial character first


def test_orthogonality(gl2_census, gl3_census):
    for t, _ in list(gl2_census.values()) + list(gl3_census.values()):
        assert verify_orthogonality(t)


def test_orthogonality_mutation_detected(gl2_census):
    t, _ = gl2_census[2]
    values = [list(row) for row in t.values]
    values[1][1] = values[1][1] + 1
    mutated = CharacterTable(
        conductor=t.conductor,
        degrees=t.degrees,
        values=tuple(tuple(row) for row in values),
        class_sizes=t.class_sizes,
        class_rep_orders=t.class_rep_orders,
        group_order=t.group_order,
    )
    assert not verify_orthogonality(mutated)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_census_agrees_with_classical_parametrization(q, gl2_census):
    """Dual-route check: the Dixon census must match the table built from
    the textbook GL_2 character formulas (independent construction)."""
    ref = gl2_reference(q)
    t, zc = gl2_census[q]
    assert t.num_classes == ref.num_classes
    assert tuple(sorted(t.degrees)) == ref.degrees
    assert zc.zero_entries == ref.zero_count


def test_gl2_f3_zero_count_is_fifteen(gl2_census):
    # both routes agree on 15/64 (the closed-form 5/32 undercounts at odd q;
    # see the acceptance suite for the per-q comparison)
    _, zc = gl2_census[3]
    assert zc.zero_entries == 15
    assert gl2_reference(3).zero_count == 15


def test_gl2_f7_census_against_classical_parametrization():
    # conductor 336 stress case; both routes agree on 819 zeros of 2304
    g = gl_group(2, 7)
    t = dixon_character_table(g, conjugacy_classes(g))
    zc = zero_census(t)
    ref = gl2_reference(7)
    assert t.conductor == 336
    assert zc.zero_entries == ref.zero_count == 819
    assert tuple(sorted(t.degrees)) == ref.degrees


def test_gl3_f2_per_degree_zero_pattern(gl3_census):
    # classical table of the order-168 simple group: zeros per character are
    # 0 (trivial), 1 and 1 (the two degree-3), 2 (deg 6), 2 (deg 7), 2 (deg 8)
    t, zc = gl3_census[2]
    by_degree = sorted(zip(t.degrees, zc.per_character_zero_counts))
    assert by_degree == [(1, 0), (3, 1), (3, 1), (6, 2), (7, 2), (8, 2)]


def test_sl2_f5_is_the_binary_icosahedral_cover():
    from charzero.matgroup import sl_group

    s = sl_group(2, 5)
    t = dixon_character_table(s, conjugacy_classes(s))
    assert sorted(t.degrees) == [1, 2, 2, 3, 3, 4, 4, 5, 6]
    assert verify_orthogonality(t)


def test_product_census_multiplicativity():
    s3 = gl_group(2, 2)
    prod = direct_product(s3, s3)
    t = dixon_character_table(prod, conjugacy_classes(prod))
    zc = zero_census(t)
    base = zero_census(dixon_character_table(s3, conjugacy_classes(s3)))
    nonzero = 1 - zc.ratio
    assert nonzero == (1 - base.ratio) ** 2


def test_equal_entries_are_one_shared_value(gl2_census, gl3_census):
    for t, _ in list(gl2_census.values()) + list(gl3_census.values()):
        entries = [v for row in t.values for v in row]
        assert len({id(v) for v in entries}) == len({v.coeffs for v in entries}) < len(entries)


def test_values_round_trip_through_json(gl2_census):
    t, _ = gl2_census[3]
    assert CharacterTable.from_json(t.to_json()) == t


def test_per_character_zero_counts(gl2_census):
    t, zc = gl2_census[3]
    assert sum(zc.per_character_zero_counts) == zc.zero_entries
    assert len(zc.per_character_zero_counts) == t.num_classes


def test_orthogonality_primes_cover_the_norm_bound(gl2_census, gl3_census, monkeypatch):
    """Both routes run over the same primes, whose product exceeds
    2 (sum_k |C_k| M^2 + |G|), M the largest sum of |coordinates|, and no
    int64 dot product of residues overflows.  One prime covers every census
    table; the table scaled by 2^24 (not orthogonal) needs several."""
    import charzero.dixon as dixon

    used, real = [], dixon._orthogonality_primes  # every prime each call would use
    monkeypatch.setattr(dixon, "_orthogonality_primes",
                        lambda t, need: used.append(list(real(t, need))) or iter(used[-1]))
    tables = [t for t, _ in list(gl2_census.values()) + list(gl3_census.values())]
    t = gl2_census[5][0]
    tables.append(_with_values(t, [[v * (1 << 24) for v in row] for row in t.values]))
    verdicts = []
    for t in tables:
        M = max(sum(map(abs, v.coeffs)) for row in t.values for v in row)
        width = max(t.num_classes, len(t.values[0][0].coeffs))
        verdicts.append(verify_orthogonality(t))
        with monkeypatch.context() as m:
            m.setattr(dixon, "_galois_stable", lambda *args: False)
            assert verify_orthogonality(t) == verdicts[-1]
        one, every = used[-2:]
        assert one == every
        assert prod(one) > 2 * (sum(t.class_sizes) * M * M + t.group_order)
        assert all(L % t.conductor == 1 and width * (L - 1) ** 2 < 2**63 for L in one)
    assert verdicts == [True] * (len(tables) - 1) + [False]
    assert len(used[-1]) > 1


def test_orthogonality_without_enough_primes_is_an_internal_error(gl2_census, monkeypatch):
    import charzero.dixon as dixon

    monkeypatch.setattr(dixon, "_primes_1_mod", lambda m, lo, hi: iter(()))
    with pytest.raises(RuntimeError, match="too few primes"):
        verify_orthogonality(gl2_census[3][0])


def _row_orthogonality_by_cycint(t):
    """sum_k |C_k| chi_i(g_k) conj(chi_j(g_k)) == |G| [i == j], term by term
    in CycInt arithmetic; for a square table whose class sizes divide |G|
    this implies column orthogonality, so it decides the whole check."""
    conj = [[v.conjugate() for v in row] for row in t.values]
    for i, row in enumerate(t.values):
        for j in range(t.num_classes):
            total = CycInt.zero(t.conductor)
            for k, size in enumerate(t.class_sizes):
                total = total + row[k] * conj[j][k] * size
            if total != (t.group_order if i == j else 0):
                return False
    return True


def _with_values(t, values):
    return CharacterTable(
        conductor=t.conductor,
        degrees=t.degrees,
        values=tuple(tuple(row) for row in values),
        class_sizes=t.class_sizes,
        class_rep_orders=t.class_rep_orders,
        group_order=t.group_order,
    )


def _single_entry_mutations(t, rng, count):
    for _ in range(count):
        values = [list(row) for row in t.values]
        i, k = rng.randrange(t.num_classes), rng.randrange(t.num_classes)
        step = CycInt.zeta(t.conductor, rng.randrange(t.conductor)) if rng.random() < 0.5 else 1
        values[i][k] = values[i][k] + step * rng.choice((1, -1))
        yield _with_values(t, values)


def _galois_conjugate_row(t):
    """The table with its first non-rational row replaced by a Galois
    conjugate, or None when every value is rational."""
    units = [a for a in range(2, t.conductor) if gcd(a, t.conductor) == 1]
    for i, row in enumerate(t.values):
        for a in units:
            image = [v.galois(a) for v in row]
            if image != list(row):
                values = list(t.values)
                values[i] = image
                return _with_values(t, values)
    return None


def test_orthogonality_matches_cyclotomic_arithmetic(gl2_census, gl3_census):
    rng = random.Random(20250)
    conjugated_rows = 0
    for t, _ in list(gl2_census.values()) + list(gl3_census.values()):
        cases = [t, *_single_entry_mutations(t, rng, 4)]
        conjugated = _galois_conjugate_row(t)
        if conjugated is not None:
            cases.append(conjugated)
            conjugated_rows += 1
        verdicts = [verify_orthogonality(c) for c in cases]
        assert verdicts == [_row_orthogonality_by_cycint(c) for c in cases]
        assert verdicts[0] and not any(verdicts[1:])
    assert conjugated_rows > 0


def _moved_values(t, rng, count):
    """Tables whose set of distinct values is that of t, or a subset: two
    unequal entries of one row swapped, or one cell's value copied into
    another cell that holds a different value."""
    tau = t.num_classes
    for _ in range(count):
        values = [list(row) for row in t.values]
        i = rng.randrange(1, tau)  # row 0 is trivial: all its entries are equal
        k, l = rng.choice([(k, l) for k in range(tau) for l in range(k)
                           if values[i][k] != values[i][l]])
        values[i][k], values[i][l] = values[i][l], values[i][k]
        yield _with_values(t, values)
        values = [list(row) for row in t.values]
        (i, k), (j, l) = rng.sample([(i, k) for i in range(tau) for k in range(tau)], 2)
        if values[i][k] != values[j][l]:
            values[i][k] = values[j][l]
            yield _with_values(t, values)


def test_orthogonality_detects_moved_values(gl2_census, gl3_census):
    rng = random.Random(8)
    cases = 0
    for t, _ in [gl2_census[3], gl2_census[4], gl2_census[5], gl3_census[2]]:
        for moved in _moved_values(t, rng, 4):
            assert not verify_orthogonality(moved)
            assert not _row_orthogonality_by_cycint(moved)
            cases += 1
    assert cases >= 24


def test_orthogonality_of_tables_with_conductor_at_most_two():
    from charzero.ffield import field_make
    from charzero.matgroup import enumerate_group, mat_identity

    trivial = enumerate_group([mat_identity(1)], field_make(2, 1), 1, order=1)
    c2 = gl_group(1, 3)
    for g in (trivial, c2, direct_product(c2, c2)):
        t = dixon_character_table(g, conjugacy_classes(g))
        assert t.conductor <= 2
        assert verify_orthogonality(t)
        values = [list(row) for row in t.values]
        values[-1][-1] = values[-1][-1] + 1
        assert not verify_orthogonality(_with_values(t, values))


def test_orthogonality_memory_stays_below_one_dense_embedding():
    g = gl_group(2, 7)
    t = dixon_character_table(g, conjugacy_classes(g))
    tau, phi = t.num_classes, len(t.values[0][0].coeffs)
    assert (tau, phi) == (48, 96)
    tracemalloc.start()
    try:
        assert verify_orthogonality(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tau * tau * phi * 8


def test_orthogonality_memory_is_linear_in_the_table(gl3_census):
    t, _ = gl3_census[3]
    tau, phi = t.num_classes, len(t.values[0][0].coeffs)
    assert (tau, phi) == (24, 96)
    tracemalloc.start()
    try:
        assert verify_orthogonality(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * tau * tau * phi * 8


def test_trivial_and_abelian_groups():
    from charzero.ffield import field_make
    from charzero.matgroup import enumerate_group, mat_identity

    F = field_make(2, 1)
    trivial = enumerate_group([mat_identity(1)], F, 1, order=1)
    t = dixon_character_table(trivial, conjugacy_classes(trivial))
    assert t.degrees == (1,) and t.values[0][0] == 1

    # GL_1(F_5) is cyclic of order 4: the table is the exact DFT matrix,
    # with no zero entries (torus tables are zero-free)
    g = gl_group(1, 5)
    table = dixon_character_table(g, conjugacy_classes(g))
    assert sorted(table.degrees) == [1, 1, 1, 1]
    assert zero_census(table).zero_entries == 0
    assert verify_orthogonality(table)


def test_a_corrupted_degree_fails_the_multiplicity_check(monkeypatch):
    import charzero.dixon as dixon

    real = dixon._degrees  # every degree d comes out as d + 1
    monkeypatch.setattr(dixon, "_degrees", lambda *args: real(*args) + 1)
    g = gl_group(2, 3)
    with pytest.raises(RuntimeError, match="failed the degree bound"):
        dixon_character_table(g, conjugacy_classes(g))


def _census_groups():
    for q in (2, 5):
        yield f"gl1-f{q}", lambda q=q: gl_group(1, q)
    for q in (2, 3, 4, 5, 7, 8, 9):
        yield f"gl2-f{q}", lambda q=q: gl_group(2, q)
    for q in (2, 3):
        yield f"gl3-f{q}", lambda q=q: gl_group(3, q)
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        yield f"sl2-f{q}", lambda q=q: sl_group(2, q)
    for q in (2, 3):
        yield f"sl3-f{q}", lambda q=q: sl_group(3, q)
    yield "gl2-f2-x-sl2-f3", lambda: direct_product(gl_group(2, 2), sl_group(2, 3))


@pytest.mark.parametrize("make", [make for _, make in _census_groups()],
                         ids=[name for name, _ in _census_groups()])
def test_the_zero_census_matches_the_census_of_the_table(make):
    """The census from the multiplicities counts what the conductor-m table
    does; its per-character counts come in eigenvector order, so they are
    compared as multisets."""
    g = make()
    cd = conjugacy_classes(g)
    table = zero_census(dixon_character_table(g, cd))
    census = dixon_zero_census(g, cd)
    assert (census.zero_entries, census.total_entries, census.ratio) == (
        table.zero_entries, table.total_entries, table.ratio)
    assert sorted(census.per_character_zero_counts) == sorted(table.per_character_zero_counts)


def test_a_corrupted_degree_fails_the_census_multiplicity_check(monkeypatch):
    import charzero.dixon as dixon

    real = dixon._degrees  # every degree d comes out as d + 1
    monkeypatch.setattr(dixon, "_degrees", lambda *args: real(*args) + 1)
    g = gl_group(2, 3)
    with pytest.raises(RuntimeError, match="failed the degree bound"):
        dixon_zero_census(g, conjugacy_classes(g))


def test_census_coordinates_that_could_overflow_int64_are_refused(monkeypatch):
    import charzero.dixon as dixon

    real = dixon.power_rows  # the rows past the unit rows, scaled past 2^62 / degree
    monkeypatch.setattr(dixon, "power_rows", lambda m, ks: real(m, ks) << 60)
    g = gl_group(2, 3)
    with pytest.raises(RuntimeError, match="would overflow int64"):
        dixon_zero_census(g, conjugacy_classes(g))


def test_table_coordinates_that_could_overflow_int64_are_refused(monkeypatch):
    import charzero.dixon as dixon

    g = gl_group(2, 3)
    cd = conjugacy_classes(g)
    real = dixon.power_rows  # the conductor-m rows only, scaled past 2^62 / max|C|
    monkeypatch.setattr(dixon, "power_rows",
                        lambda m, ks: real(m, ks) << 61 if m == cd.exponent else real(m, ks))
    with pytest.raises(RuntimeError, match="would overflow int64 at conductor 24"):
        dixon_character_table(g, cd)


def test_a_wrong_reduction_target_fails_the_modular_check_at_the_element_order(monkeypatch):
    """Corrupt the rows x^t mod Phi_8 (t = 4..7) after the multiplicities
    are formed: the degree bound and sum deg^2 = |G| still hold, and only
    the check at conductor d (zeta_d -> z^(m/d)) sees it, on both routes."""
    import charzero.dixon as dixon

    real = dixon.power_rows
    monkeypatch.setattr(dixon, "power_rows", lambda m, ks: -real(m, ks) if m == 8 else real(m, ks))
    g = gl_group(2, 3)
    for build in (dixon_zero_census, dixon_character_table):
        with pytest.raises(RuntimeError, match="of order 8 do not reduce to the modular table"):
            build(g, conjugacy_classes(g))


def test_a_non_square_target_is_an_internal_error():
    import numpy as np

    # squares of 0..6 mod 17 are 0, 1, 4, 9, 16, 8, 2; 13 = 8^2 is a square
    # mod 17, but its roots 8 and 9 exceed sqrt(48)
    assert _degrees(np.array([0, 1, 4, 9, 16, 8, 2]), 48, 17).tolist() == list(range(7))
    for target in (3, 13):
        with pytest.raises(RuntimeError, match="has no root"):
            _degrees(np.array([1, target]), 48, 17)


@pytest.mark.parametrize("n,q,tau,built,rows", [pytest.param(2, 11, 120, 15, 486, id="2-11-120-15"),
                                                 pytest.param(3, 3, 24, 12, 116, id="3-3-24-12")])
def test_the_split_builds_only_the_class_matrices_it_reads(n, q, tau, built, rows, monkeypatch):
    """The eigen-split asks for class matrices 1, 2, ... until every space
    has dimension one, once each and only for the rows at the pivot columns
    of its multi-row spaces.  Each row (i, j) is built once, at |C_i|
    products, by `mul_right` calls of at most |G| products, and asking again
    returns equal rows without another product."""
    import numpy as np

    import charzero.dixon as dixon
    from charzero.matgroup import MatrixGroupTable

    g = gl_group(n, q)
    cd = conjugacy_classes(g)
    products, requested, builders = [], [], []
    real_mul, real_builder = MatrixGroupTable.mul_right, dixon._class_rows

    def counting_mul(self, xs, rights):
        out = real_mul(self, xs, rights)
        products.append(out.size)
        return out

    def recording_builder(group, classes):
        class_rows = real_builder(group, classes)
        builders.append(class_rows)

        def recording(i, js):
            js = list(js)
            requested.append((i, js, class_rows(i, js)))
            return requested[-1][2]

        return recording

    monkeypatch.setattr(MatrixGroupTable, "mul_right", counting_mul)
    monkeypatch.setattr(dixon, "_class_rows", recording_builder)
    dixon_character_table(g, cd)
    assert cd.num_classes == tau and [i for i, _, _ in requested] == list(range(1, built + 1))
    pairs = {(i, j) for i, js, _ in requested for j in js}
    assert len(pairs) == rows
    assert max(products) <= g.order
    # one build per (i, j): |C_i| products each, in ceil(rows / (|G| // |C_i|)) calls per class
    assert sum(products) == sum(cd.class_sizes[i] for i, _ in pairs)
    calls = sum(-(-len(set(js)) // (g.order // cd.class_sizes[i])) for i, js, _ in requested)
    assert len(products) == calls
    (class_rows,) = builders
    for i, js, first in requested:
        assert np.array_equal(class_rows(i, js), first), i
    assert len(products) == calls


@pytest.mark.parametrize("n,q", [(2, 7), (2, 9), (2, 11), (2, 16), (3, 3), (3, 4)])
def test_the_split_takes_no_nullspace(n, q, nullspace_nullities):
    """Every eigenspace, of a simple root or a repeated one, comes from one
    Krylov sequence of the start rows and one reduction.  A nullspace per
    repeated root would be 6 at GL2(F11), 13 at GL3(F3) and 22 at GL3(F4);
    one per eigenvalue, 126 at GL2(F11)."""
    g = gl_group(n, q)
    dixon_zero_census(g, conjugacy_classes(g))
    assert nullspace_nullities == []


def _record_routes(monkeypatch):
    """The verdicts of each orthogonality route, {"one": [...], "all": [...]}:
    "one" when `_galois_stable` chose the conjugate pair at 1, "all" when it
    declined or was not asked."""
    import charzero.dixon as dixon

    verdicts = {"one": [], "all": []}
    route = ["all"]
    real_stable, real_check = dixon._galois_stable, dixon._embeddings_orthogonal

    def stable(*args):
        route[0] = "one" if real_stable(*args) else "all"
        return route[0] == "one"

    def check(*args):
        key, route[0] = route[0], "all"
        verdicts[key].append(real_check(*args))
        return verdicts[key][-1]

    monkeypatch.setattr(dixon, "_galois_stable", stable)
    monkeypatch.setattr(dixon, "_embeddings_orthogonal", check)
    return verdicts


def test_a_json_round_trip_gives_the_same_orthogonality_index(monkeypatch):
    """`verify_orthogonality` indexes the entries by value object, then
    dedupes the coordinates of those objects.  A table read back from JSON
    holds one object per entry, where the Dixon table shares one per
    distinct value; both must give the same distinct values D, index array,
    route and verdict."""
    import numpy as np

    import charzero.dixon as dixon

    g = gl_group(2, 7)
    t = dixon_character_table(g, conjugacy_classes(g))
    back = CharacterTable.from_json(t.to_json())
    objects = [len({id(v) for row in table.values for v in row}) for table in (t, back)]
    assert back == t and objects[0] < objects[1] == t.num_classes ** 2
    calls = []
    real = dixon._embeddings_orthogonal

    def recording(table, D, entry, l1, exponents):
        calls.append((D, entry, l1, exponents, real(table, D, entry, l1, exponents)))
        return calls[-1][-1]

    monkeypatch.setattr(dixon, "_embeddings_orthogonal", recording)
    assert verify_orthogonality(t) and verify_orthogonality(back)
    (D, entry, l1, exponents, verdict), again = calls
    assert len(D) == objects[0] and exponents == sorted({1, t.conductor - 1})
    assert np.array_equal(D, again[0]) and np.array_equal(entry, again[1])
    assert (l1, exponents, verdict) == again[2:]


def test_every_census_table_takes_the_one_embedding_route(gl2_census, gl3_census, monkeypatch):
    routes = _record_routes(monkeypatch)
    tables = [t for t, _ in list(gl2_census.values()) + list(gl3_census.values())]
    assert all(verify_orthogonality(t) for t in tables)
    assert routes == {"one": [True] * len(tables), "all": []}


def test_a_row_times_zeta_verifies_through_the_fallback(gl2_census, gl3_census, monkeypatch):
    """zeta_m * (trivial row) keeps both Grams, but sigma_a sends it to a
    constant row zeta_m^a that the table lacks, so it is not Galois-stable."""
    routes = _record_routes(monkeypatch)
    cases = []
    for t, _ in list(gl2_census.values()) + list(gl3_census.values()):
        if t.conductor > 2:
            zeta = CycInt.zeta(t.conductor)
            cases.append(_with_values(t, [[zeta * v for v in t.values[0]], *t.values[1:]]))
    assert all(verify_orthogonality(c) for c in cases)
    assert routes == {"one": [], "all": [True] * len(cases)}
    assert _row_orthogonality_by_cycint(cases[0])


def test_default_and_fallback_verdicts_agree_with_cyclotomic_arithmetic(
        gl2_census, gl3_census, monkeypatch):
    """The cases of `test_orthogonality_matches_cyclotomic_arithmetic` and
    `test_orthogonality_detects_moved_values`, with their seeds: the default
    verdict, the verdict with the fast path switched off and the CycInt
    verdict agree, and each route rejects some of them."""
    import charzero.dixon as dixon

    rng = random.Random(20250)
    cases = []
    for t, _ in list(gl2_census.values()) + list(gl3_census.values()):
        cases += [t, *_single_entry_mutations(t, rng, 4)]
        conjugated = _galois_conjugate_row(t)
        if conjugated is not None:
            cases.append(conjugated)
    rng = random.Random(8)
    for t, _ in [gl2_census[3], gl2_census[4], gl2_census[5], gl3_census[2]]:
        cases += list(_moved_values(t, rng, 4))
    routes = _record_routes(monkeypatch)
    default = [verify_orthogonality(c) for c in cases]
    assert False in routes["one"] and False in routes["all"]
    with monkeypatch.context() as m:
        m.setattr(dixon, "_galois_stable", lambda *args: False)
        fallback = [verify_orthogonality(c) for c in cases]
    assert default == fallback == [_row_orthogonality_by_cycint(c) for c in cases]


def test_fast_path_rejects_a_stable_table_and_declines_moved_class_sizes(gl2_census, monkeypatch):
    t = gl2_census[5][0]
    routes = _record_routes(monkeypatch)
    # 2X is Galois-stable with the same permutations, and its Grams are 4x
    assert not verify_orthogonality(_with_values(t, [[v * 2 for v in row] for row in t.values]))
    assert routes == {"one": [False], "all": []}
    # a Singer-cycle class grows by one: its Galois conjugates keep their
    # size, so no column permutation preserves sizes and the fallback decides
    sizes = list(t.class_sizes)
    sizes[max(range(t.num_classes), key=lambda k: t.class_rep_orders[k])] += 1
    resized = CharacterTable(t.conductor, t.degrees, t.values, tuple(sizes),
                             t.class_rep_orders, t.group_order)
    assert not verify_orthogonality(resized)
    assert routes == {"one": [False], "all": [False]}


def test_a_lookup_that_merges_two_rows_or_columns_is_not_stable(gl2_census, monkeypatch):
    """Copy one rational row (column) over another: every sigma_a image is
    still found, but two rows (columns) map to one, so the fallback decides."""
    t = gl2_census[3][0]
    routes = _record_routes(monkeypatch)
    i, j = [r for r, row in enumerate(t.values) if all(v.is_integer() for v in row)][:2]
    rows = list(t.values)
    rows[j] = rows[i]
    assert not verify_orthogonality(_with_values(t, rows))
    # the identity and -1: integer columns of equal size, so only the
    # bijection condition can fail
    k, l = [c for c in range(t.num_classes) if t.class_sizes[c] == 1]
    assert all(row[c].is_integer() for row in t.values for c in (k, l))
    columns = [list(row) for row in t.values]
    for row in columns:
        row[l] = row[k]
    assert not verify_orthogonality(_with_values(t, columns))
    assert routes == {"one": [], "all": [False, False]}


@pytest.mark.parametrize("m", [1, 2, 6, 8, 240, 312, 336, 1260, 2184])
def test_unit_generators_generate_the_unit_group(m):
    from charzero.cyclotomic import unit_generators

    units = {a % m for a in range(m) if gcd(a, m) == 1}
    span = {1 % m}
    for a in unit_generators(m):
        while not {h * a % m for h in span} <= span:
            span |= {h * a % m for h in span}
    assert span == units


def test_galois_images_beyond_int64_are_an_exactness_error(gl2_census):
    from charzero.errors import ExactnessError

    t = gl2_census[2][0]
    values = [list(row) for row in t.values]
    values[1][1] = CycInt(t.conductor, (2**62, 2**62))  # coordinate sum 2^63
    with pytest.raises(ExactnessError, match="overflow int64"):
        verify_orthogonality(_with_values(t, values))


def _sl2_table(q):
    g = sl_group(2, q)
    return dixon_character_table(g, conjugacy_classes(g))


def test_the_galois_check_builds_only_the_rows_it_reads(monkeypatch):
    import charzero.dixon as dixon

    t = _sl2_table(31)
    # the exponents j at which some value has a nonzero coordinate
    exponents = {j for row in t.values for v in row for j, c in enumerate(v.coeffs) if c}
    assert (len(exponents), len(t.values[0][0].coeffs)) == (82, 3840)
    requested = []
    real = dixon.power_rows
    monkeypatch.setattr(dixon, "power_rows", lambda m, ks: requested.append(len(ks)) or real(m, ks))
    assert verify_orthogonality(t)
    assert requested and max(requested) <= len(exponents)


@pytest.mark.slow
def test_sl2_f53_table_is_orthogonal():
    assert verify_orthogonality(_sl2_table(53))


def _lift_groups():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        yield f"gl2-f{q}", lambda q=q: gl_group(2, q)
    for q in (3, 4):
        yield f"gl3-f{q}", lambda q=q: gl_group(3, q)
    for q in (13, 31):
        yield f"sl2-f{q}", lambda q=q: sl_group(2, q)
    yield "sl3-f3", lambda: sl_group(3, 3)


@pytest.mark.parametrize("make", [make for _, make in _lift_groups()],
                         ids=[name for name, _ in _lift_groups()])
def test_the_rational_class_lift_matches_the_per_class_reference(make, monkeypatch):
    """One inversion per rational class and the sigma_a images give the zero
    mask, per-character zero counts and table of inverting every class."""
    import numpy as np
    from lift_reference import per_class_values

    import charzero.dixon as dixon
    from charzero.cyclotomic import power_rows

    g = make()
    cd = conjugacy_classes(g)
    mt = dixon._modular_table(g, cd)
    reference = per_class_values(cd, mt)
    zero = np.array([~values.any(axis=1) for values in reference]).T  # zero[chi, k]
    masks = []
    real = dixon.ZeroReport.of_mask
    monkeypatch.setattr(dixon.ZeroReport, "of_mask", staticmethod(lambda z: masks.append(z) or real(z)))
    census = dixon_zero_census(g, cd)
    assert np.array_equal(masks[0], zero)
    assert census.per_character_zero_counts == tuple(zero.sum(axis=1).tolist())

    index: dict[bytes, int] = {}  # coordinates at conductor m -> one index per distinct value
    def key(coords):
        return index.setdefault(np.asarray(coords, dtype=np.int64).tobytes(), len(index))

    m = cd.exponent
    lifted: dict[tuple[int, bytes], int] = {}  # (d, coordinates at conductor d) -> key at m
    def lift(d, coords):
        if (d, coords.tobytes()) not in lifted:
            lifted[d, coords.tobytes()] = key(coords @ power_rows(m, np.arange(len(coords)) * (m // d)))
        return lifted[d, coords.tobytes()]

    columns = [[lift(d, c) for c in values] for values, d in zip(reference, cd.rep_orders)]
    want = sorted((degree, tuple(column[chi] for column in columns))
                  for chi, degree in enumerate(mt.degrees.tolist()))
    table = dixon_character_table(g, cd)
    of_object = {id(v): key(v.coeffs) for row in table.values for v in row}
    got = sorted((degree, tuple(of_object[id(v)] for v in row))
                 for degree, row in zip(table.degrees, table.values))
    assert got == want


@pytest.mark.parametrize("make", [make for _, make in _census_groups()],
                         ids=[name for name, _ in _census_groups()])
def test_rational_classes_are_unit_powers_of_their_least_class(make):
    """Class k is the class of rep^a for its rational representative rep and
    a unit a mod the order, and rep is the least class of that form."""
    cd = conjugacy_classes(make())
    for k, (rep, a) in enumerate(zip(cd.rational_rep, cd.rational_unit)):
        d = cd.rep_orders[k]
        assert cd.rep_orders[rep] == d and gcd(a, d) == 1 and cd.power_map[rep][a] == k
        rational_class = {cd.power_map[k][b] for b in range(d) if gcd(b, d) == 1}
        assert rep == min(rational_class) and cd.rational_rep[rep] == rep
        assert all(cd.rational_rep[c] == rep for c in rational_class)


@pytest.mark.parametrize("make", [make for _, make in _census_groups()],
                         ids=[name for name, _ in _census_groups()])
def test_rational_classes_and_galois_orbits_of_characters_are_equinumerous(make):
    """Brauer's permutation lemma: the Galois group has as many orbits on the
    rows of the table as on its classes."""
    from charzero.cyclotomic import unit_generators

    g = make()
    cd = conjugacy_classes(g)
    t = dixon_character_table(g, cd)
    values = list({v.coeffs: v for row in t.values for v in row}.values())
    value_of = {v.coeffs: x for x, v in enumerate(values)}
    rows = [tuple(value_of[v.coeffs] for v in row) for row in t.values]
    row_of = {row: i for i, row in enumerate(rows)}
    orbit = list(range(len(rows)))  # union of rows a generator maps onto one another
    def root(i):
        while orbit[i] != i:
            i = orbit[i]
        return i
    for a in unit_generators(t.conductor):
        image = [value_of[v.galois(a).coeffs] for v in values]
        for i, row in enumerate(rows):
            orbit[root(i)] = root(row_of[tuple(image[x] for x in row)])
    assert len({root(i) for i in range(len(rows))}) == len(set(cd.rational_rep))


@pytest.mark.parametrize("build", [dixon_zero_census, dixon_character_table])
@pytest.mark.parametrize("n,q", [(2, 5), (2, 9), (3, 3)])
def test_a_wrong_value_at_a_class_that_is_not_inverted_is_an_exactness_error(build, n, q, monkeypatch):
    import charzero.dixon as dixon
    from charzero.errors import ExactnessError

    g = gl_group(n, q)
    cd = conjugacy_classes(g)
    k = max(k for k in range(cd.num_classes) if cd.rational_rep[k] != k)
    real = dixon._modular_table

    def corrupted(group, cd):  # the value of character 1 at class k moves by one
        mt = real(group, cd)
        rows = mt.rows.copy()
        rows[1, k] = (rows[1, k] + 1) % mt.l
        return mt._replace(rows=rows)

    monkeypatch.setattr(dixon, "_modular_table", corrupted)
    with pytest.raises(ExactnessError):
        build(g, cd)


@pytest.mark.parametrize("build", [dixon_zero_census, dixon_character_table])
def test_a_wrong_unit_fails_the_modular_check_at_that_class(build):
    """Only the check at every class sees a class given the Galois image of
    another member of its rational class: the inversion reads only the
    representatives."""
    g = gl_group(2, 5)
    cd = conjugacy_classes(g)
    k = next(k for k in range(cd.num_classes) if cd.rational_rep[k] != k)
    rep, d = cd.rational_rep[k], cd.rep_orders[k]
    cd.rational_unit[k] = next(a for a in range(d) if gcd(a, d) == 1 and cd.power_map[rep][a] != k)
    with pytest.raises(RuntimeError, match=f"of order {d} do not reduce to the modular table"):
        build(g, cd)
