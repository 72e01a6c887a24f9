"""The F_q matrix layer and the finite matrix-group engine built on it.

Matrices over F_q are flat row-major tuples of field element codes, which
hash in constant time.  This module owns every decision about them: the one
Gauss-Jordan row reduction (`rref`); the one batched matrix format,
`_MatrixKernel`, which alone fixes the base-q matrix code and owns its
inverse (`codes`, `decode`), the batched product and the trace form; the
one sorted-key lookup (`SortedKeys`); and the one orbit routine
(`orbit_labels`), which numbers the orbits of a group acting on 0..N-1
through one permutation array per generator.

A matrix group keeps its elements as one (|G|, n^2) numpy array of digits,
the entry codes in the smallest dtype that holds q - 1.  All |G|-sized work
goes through one batched product, `GroupTable.mul_many`: a kernel that
multiplies whole digit arrays by gathers from the field's add and mul
tables, then finds the products by their base-q codes through `SortedKeys`,
sorted once and searched with `np.searchsorted` (no q^(n^2) table is
built).  Enumeration is breadth-first from the identity, a level at a time,
with the generator list sorted; each level keeps the first occurrences of
unseen products in (element, generator) order, so the element order is that
of a BFS taking one product at a time and two runs produce identical index
maps.  Conjugacy classes are the `orbit_labels` of one conjugation
permutation per generator: every element is labelled by the least index of
its orbit (labels pulled along each permutation, then lowered by pointer
jumping), and classes are numbered by that least index, which is also the
representative.  The adjoint orbits of gl_n and the exceptional Weyl
classes use the same routine.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from typing import Callable, Iterator

import numpy as np

from .errors import ExactnessError
from .ffield import Field, field_for_order


class EnumerationCapExceeded(ValueError):
    pass


DEFAULT_GROUP_CAP = 5 * 10**6


def mat_identity(n: int) -> tuple[int, ...]:
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


def mat_mul(F: Field, n: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    add, mul = F.add, F.mul
    out = [0] * (n * n)
    for i in range(n):
        ib = i * n
        for k in range(n):
            aik = a[ib + k]
            if aik:
                kb = k * n
                row_a = mul[aik]
                for j in range(n):
                    bkj = b[kb + j]
                    if bkj:
                        out[ib + j] = add[out[ib + j]][row_a[bkj]]
    return tuple(out)


def rref(F: Field, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_q by Gauss-Jordan elimination: the
    nonzero reduced rows and their pivot columns."""
    add, mul, neg, inv = F.add, F.mul, F.neg, F.inv
    m = [list(row) for row in rows]
    pivots: list[int] = []
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        f = inv[m[r][col]]
        m[r] = [mul[f][x] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                g = m[i][col]
                m[i] = [add[x][neg[mul[g][y]]] for x, y in zip(m[i], m[r])]
        pivots.append(col)
    return m[: len(pivots)], pivots


def mat_inv(F: Field, n: int, a: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse by reducing [a | I]; raises on singular input."""
    rows = [list(a[i * n : (i + 1) * n]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    reduced, pivots = rref(F, rows)
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return tuple(x for row in reduced for x in row[n:])


def mat_charpoly(F: Field, n: int, a: tuple[int, ...]) -> list[int]:
    """det(xI - a) over F_q as a dense monic coefficient list (n <= 3)."""
    if n == 1:
        return [F.neg[a[0]], 1]
    add, mul, neg = F.add, F.mul, F.neg
    if n == 2:
        tr = add[a[0]][a[3]]
        det = add[mul[a[0]][a[3]]][neg[mul[a[1]][a[2]]]]
        return [det, neg[tr], 1]
    if n == 3:
        a11, a12, a13, a21, a22, a23, a31, a32, a33 = a

        def det3():
            t1 = mul[a11][add[mul[a22][a33]][neg[mul[a23][a32]]]]
            t2 = mul[a12][add[mul[a21][a33]][neg[mul[a23][a31]]]]
            t3 = mul[a13][add[mul[a21][a32]][neg[mul[a22][a31]]]]
            return add[add[t1][neg[t2]]][t3]

        tr = add[add[a11][a22]][a33]
        # sum of principal 2x2 minors
        m1 = add[mul[a22][a33]][neg[mul[a23][a32]]]
        m2 = add[mul[a11][a33]][neg[mul[a13][a31]]]
        m3 = add[mul[a11][a22]][neg[mul[a12][a21]]]
        s2 = add[add[m1][m2]][m3]
        return [neg[det3()], s2, neg[tr], 1]
    raise ValueError("characteristic polynomial helper limited to n <= 3")


class GroupTable:
    """A finite group with a deterministic element index.

    Subclasses provide batched multiplication (`mul_many`) and scalar
    inversion; everything the character-table machinery needs
    (class data, power maps, exponent) is derived here.
    """

    # populated by subclasses:
    order: int
    generator_indices: list[int]

    def mul_many(self, a, b) -> np.ndarray:
        """Indices of the products a[t] * b[t], with numpy broadcasting."""
        raise NotImplementedError

    def inv_idx(self, i: int) -> int:
        raise NotImplementedError

    @property
    def identity_idx(self) -> int:
        return 0


_CHUNK = 1 << 16  # rows per step of the batched product, bounding its temporaries


class _MatrixKernel:
    """The one owner of the F_q matrix format: (N, n*n) digit arrays, their
    base-q codes, batched products and the trace form.

    Entries are field element codes in the smallest unsigned dtype holding
    q - 1.  A matrix's code is sum_t x_t q^t over its row-major entries x_t,
    entry 0 least significant, in int64.  Sums and products are gathers from
    the field's flattened add and mul tables at index x*q + y, built once
    per kernel with the size-q trace array.
    """

    def __init__(self, field: Field, n: int):
        q = field.q
        if q ** (n * n) > 1 << 63:
            raise ValueError(f"{n} x {n} matrices over F_{q} have codes beyond 64 bits")
        self.field, self.n, self.q = field, n, q
        self.dtype = np.min_scalar_type(q - 1)
        self._wide = np.min_scalar_type(q * q - 1)
        self._add = np.array(field.add, dtype=self.dtype).ravel()
        self._mul = np.array(field.mul, dtype=self.dtype).ravel()
        self._trace = np.array([field.trace_to_prime(x) for x in range(q)], dtype=self.dtype)

    def digits(self, matrices: list[tuple[int, ...]]) -> np.ndarray:
        return np.array(matrices, dtype=self.dtype).reshape(len(matrices), self.n * self.n)

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise products of two (N, n*n) digit arrays."""
        n, q = self.n, self.q
        out = np.empty(a.shape, dtype=self.dtype)
        for s in range(0, len(a), _CHUNK):
            x = a[s : s + _CHUNK].reshape(-1, n, n).astype(self._wide)
            y = b[s : s + _CHUNK].reshape(-1, n, n)
            acc = np.take(self._mul, x[:, :, 0, None] * q + y[:, None, 0, :])
            for k in range(1, n):
                term = np.take(self._mul, x[:, :, k, None] * q + y[:, None, k, :])
                acc = np.take(self._add, acc.astype(self._wide) * q + term)
            out[s : s + _CHUNK] = acc.reshape(-1, n * n)
        return out

    def codes(self, digits: np.ndarray) -> np.ndarray:
        """Base-q codes of the rows, by Horner's rule over the columns, so
        no int64 copy of the whole digit array is made."""
        out = np.zeros(len(digits), dtype=np.int64)
        for t in reversed(range(self.n * self.n)):
            out *= self.q
            out += digits[:, t]
        return out

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """The digit array whose rows have the given codes (`codes` inverted)."""
        rest = np.array(codes, dtype=np.int64)
        out = np.empty((len(rest), self.n * self.n), dtype=self.dtype)
        for t in range(self.n * self.n):
            rest, out[:, t] = np.divmod(rest, self.q)
        return out

    def trace_form(self, digits: np.ndarray, coeffs: list[int]) -> np.ndarray:
        """Tr_{F_q/F_p}(sum_t coeffs[t] * x_t) for every row x of a digit
        array, one gather chain over the columns with a nonzero coefficient."""
        q = self.q
        acc = np.zeros(len(digits), dtype=self._wide)
        for t, c in enumerate(coeffs):
            if c:
                term = np.take(self._mul, digits[:, t] + self._wide.type(c * q))
                acc = np.take(self._add, acc * q + term).astype(self._wide)
        return np.take(self._trace, acc)


class SortedKeys:
    """Positions of sortable keys in a fixed 1-D array, by one argsort and
    binary search."""

    def __init__(self, keys: np.ndarray):
        self._by_key = np.argsort(keys)
        self._sorted = keys[self._by_key]

    def index_of(self, wanted: np.ndarray, missing: str) -> np.ndarray:
        """Positions of a 1-D array of keys; raises `ExactnessError(missing)`
        if one is absent.  The keys are searched in sorted order, which
        `np.searchsorted` serves about three times faster than random order."""
        order = np.argsort(wanted)
        keys = wanted[order]
        pos = np.minimum(np.searchsorted(self._sorted, keys), len(self._sorted) - 1)
        if not np.array_equal(self._sorted[pos], keys):
            raise ExactnessError(missing)
        out = np.empty_like(pos)
        out[order] = self._by_key[pos]
        return out


class MatrixGroupTable(GroupTable):
    """A matrix group stored as `digits`, an (|G|, n*n) array of entry
    codes in element order, multiplied by `kernel`.  Matrices are found by
    their base-q codes through `SortedKeys`."""

    def __init__(self, kernel: _MatrixKernel, digits: np.ndarray, generators: np.ndarray):
        self.field = kernel.field
        self.dim = kernel.n
        self.digits = digits
        self.order = len(digits)
        self.kernel = kernel
        self._keys = SortedKeys(kernel.codes(digits))
        self.generator_indices = self._index_of(kernel.codes(generators)).tolist()

    def _index_of(self, codes: np.ndarray) -> np.ndarray:
        """Element indices of a 1-D array of matrix codes."""
        return self._keys.index_of(codes, "matrix is not an element of the group")

    def element(self, i: int) -> tuple[int, ...]:
        return tuple(self.digits[i].tolist())

    def mul_many(self, a, b) -> np.ndarray:
        a, b = np.broadcast_arrays(np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp))
        prod = self.kernel.product(self.digits[a.ravel()], self.digits[b.ravel()])
        return self._index_of(self.kernel.codes(prod)).reshape(a.shape)

    def inv_idx(self, i: int) -> int:
        inverse = mat_inv(self.field, self.dim, self.element(i))
        return int(self._index_of(self.kernel.codes(self.kernel.digits([inverse])))[0])


def closure_levels(start: np.ndarray, expand: Callable[[np.ndarray], np.ndarray],
                   keys: Callable[[np.ndarray], np.ndarray]) -> Iterator[np.ndarray]:
    """Breadth-first closure of the rows of `start`, yielded a level at a
    time: `expand(level)` gives the level's images in a fixed order, and
    their first occurrences whose `keys` (sortable, one per row) are not yet
    known form the next level."""
    level, known = start, np.sort(keys(start))  # `known` stays sorted
    while len(level):
        yield level
        products = expand(level)
        codes, first = np.unique(keys(products), return_index=True)
        pos = np.searchsorted(known, codes)
        fresh = known[np.minimum(pos, len(known) - 1)] != codes
        level = products[np.sort(first[fresh])]
        known = np.insert(known, pos[fresh], codes[fresh])


def enumerate_group(generators: list[tuple[int, ...]], field: Field, dim: int,
                    cap: int = DEFAULT_GROUP_CAP) -> MatrixGroupTable:
    """Breadth-first closure of the generators under multiplication, one
    level at a time: the level's products with the sorted generators, taken
    in (element, generator) order, contribute their first occurrences that
    are not yet known, in order of discovery."""
    gens = sorted(set(generators))
    for g in gens:
        mat_inv(field, dim, g)  # raises on a singular generator
    kernel = _MatrixKernel(field, dim)
    gen_digits = kernel.digits(gens)

    def right_products(level: np.ndarray) -> np.ndarray:
        products = np.empty((len(level), len(gens), dim * dim), dtype=kernel.dtype)
        for t, g in enumerate(gen_digits):
            products[:, t] = kernel.product(level, np.broadcast_to(g, level.shape))
        return products.reshape(-1, dim * dim)

    levels, found = [], 0
    for level in closure_levels(kernel.digits([mat_identity(dim)]), right_products, kernel.codes):
        found += len(level)
        if found > cap:
            raise EnumerationCapExceeded(f"group closure exceeded cap {cap}")
        levels.append(level)
    group = MatrixGroupTable(kernel, np.concatenate(levels), gen_digits)
    # closure under inverse is implied (finite order); spot-check a sample
    for i in range(min(group.order, 16)):
        group.inv_idx(i)
    return group


class ProductGroupTable(GroupTable):
    """Direct product; elements are pairs of factor indices (block-diagonal
    in spirit, but the factors may live over different fields)."""

    def __init__(self, a: GroupTable, b: GroupTable):
        self.a = a
        self.b = b
        self.order = a.order * b.order
        self._nb = b.order
        self.generator_indices = [self._pack(g, b.identity_idx) for g in a.generator_indices]
        self.generator_indices += [self._pack(a.identity_idx, g) for g in b.generator_indices]

    def _pack(self, i, j):
        return i * self._nb + j

    def _unpack(self, k):
        return divmod(k, self._nb)

    def mul_many(self, i, j) -> np.ndarray:
        ia, ib = self._unpack(np.asarray(i, dtype=np.intp))
        ja, jb = self._unpack(np.asarray(j, dtype=np.intp))
        return self._pack(self.a.mul_many(ia, ja), self.b.mul_many(ib, jb))

    def inv_idx(self, i: int) -> int:
        ia, ib = self._unpack(i)
        return self._pack(self.a.inv_idx(ia), self.b.inv_idx(ib))


def direct_product(a: GroupTable, b: GroupTable, cap: int = DEFAULT_GROUP_CAP) -> ProductGroupTable:
    if a.order * b.order > cap:
        raise EnumerationCapExceeded(f"product order {a.order * b.order} exceeds cap {cap}")
    return ProductGroupTable(a, b)


def orbit_labels(size: int, perms: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of the indices 0..size-1 under the group that the permutations
    generate, numbered by least member: the sorted least members (one
    representative per orbit) and each index's orbit number.

    Each index carries a label, an index of its orbit no larger than its own;
    labels are pulled back along every permutation (label[x] = min(label[x],
    label[p[x]])) and lowered by pointer jumping until nothing changes.  Then
    label[x] <= label[p[x]] for every x and p, so labels are constant on the
    cycles of each permutation, hence on orbits, where they equal the least
    index.  The representatives are then the fixed points of the labelling,
    and an orbit's number is the count of representatives below its own."""
    label = np.arange(size)
    while True:
        before = label
        for p in perms:
            label = np.minimum(label, label[p])
        while not np.array_equal(jumped := label[label], label):
            label = jumped
        if np.array_equal(label, before):
            is_rep = label == np.arange(size)
            number = np.cumsum(is_rep)
            number -= 1
            return np.flatnonzero(is_rep), number[label]


class ClassData:
    """Conjugacy classes with sizes, representatives and power maps.

    Classes are numbered by their least element index, which is also the
    representative; `class_of` is an index array over the elements."""

    def __init__(self, group: GroupTable):
        everything = np.arange(group.order)
        conjugations = [group.mul_many(group.mul_many(g, everything), group.inv_idx(g))
                        for g in group.generator_indices]
        reps, class_of = orbit_labels(group.order, conjugations)
        reps = reps.tolist()
        self.group = group
        self.class_reps = reps
        self.class_sizes = np.bincount(class_of).tolist()
        self.class_of = class_of
        self.num_classes = len(reps)
        # power_map[c][k] = class of rep_c^k for 0 <= k < order(rep_c)
        identity = group.identity_idx
        cur = np.full(len(reps), identity)
        columns, orders = [], np.zeros(len(reps), dtype=np.int64)
        while not orders.all():
            columns.append(class_of[cur])
            cur = group.mul_many(cur, reps)
            orders[(cur == identity) & (orders == 0)] = len(columns)
        powers = np.array(columns).T
        self.rep_orders = orders.tolist()
        self.exponent = lcm(*self.rep_orders)
        self.power_map = [powers[c, :d].tolist() for c, d in enumerate(self.rep_orders)]
        self.inverse_class = [row[-1] for row in self.power_map]

    def power_class(self, c: int, k: int) -> int:
        return self.power_map[c][k % self.rep_orders[c]]


def conjugacy_classes(group: GroupTable) -> ClassData:
    return ClassData(group)


# -- standard generating sets -------------------------------------------


def gl_generators(n: int, F: Field) -> list[tuple[int, ...]]:
    """Transvections on adjacent coordinates plus a diag(g,1,..,1) scaling:
    the transvections generate SL_n and the scaling extends to GL_n."""
    gens = []
    if n == 1:
        return [(F.generator,)]
    for i in range(n - 1):
        for a, b in ((i, i + 1), (i + 1, i)):
            m = list(mat_identity(n))
            m[a * n + b] = 1
            gens.append(tuple(m))
    m = list(mat_identity(n))
    m[0] = F.generator
    gens.append(tuple(m))
    return gens


def sl_generators(n: int, F: Field) -> list[tuple[int, ...]]:
    """All elementary transvections I + c*E_ij (i != j, c over a spanning
    set), which generate SL_n for every q."""
    gens = []
    scalars = sorted({F.pow(F.generator, k) for k in range(F.e)}) if F.q > 2 else [1]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for c in scalars:
                m = list(mat_identity(n))
                m[i * n + j] = c
                gens.append(tuple(m))
    return gens


def gl_order(n: int, q: int) -> int:
    result = 1
    for i in range(n):
        result *= q**n - q**i
    return result


def _classical_group(name: str, generators, n: int, q: int, order: int,
                     cap: int) -> MatrixGroupTable:
    F = field_for_order(q)
    if order > cap:
        raise EnumerationCapExceeded(
            f"{name}_{n}(F_{q}) has order {order}, over the enumeration cap {cap}"
        )
    g = enumerate_group(generators(n, F), F, n, cap)
    if g.order != order:
        raise ExactnessError(f"{name} closure has the wrong order")
    return g


@lru_cache(maxsize=8)
def gl_group(n: int, q: int, cap: int = DEFAULT_GROUP_CAP) -> MatrixGroupTable:
    return _classical_group("GL", gl_generators, n, q, gl_order(n, q), cap)


@lru_cache(maxsize=8)
def sl_group(n: int, q: int, cap: int = DEFAULT_GROUP_CAP) -> MatrixGroupTable:
    return _classical_group("SL", sl_generators, n, q, gl_order(n, q) // (q - 1), cap)
