"""The F_q matrix layer and the finite matrix-group engine built on it.

Matrices over F_q are flat row-major tuples of field element codes, which
hash in constant time.  This module owns every decision about them: the one
Gauss-Jordan row reduction (`rref`), the base-q matrix codec (`mat_encode`,
`mat_decode`), breadth-first closure from generators (`closure`) and orbit
partition of an indexed set (`orbit_partition`).  Enumeration is
breadth-first from the identity with the generator list sorted, so two runs
produce identical index maps.  Conjugacy classes are computed by orbit
expansion under generator conjugation (linear in |G| * #generators) and are
labelled by their least element index.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from typing import Callable, Hashable, Iterable

from .ffield import Field, field_for_order, from_digits, to_digits


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


def mat_encode(q: int, a: tuple[int, ...]) -> int:
    """Base-q digit code of a flat matrix, entry 0 least significant."""
    return from_digits(a, q)


def mat_decode(q: int, n: int, code: int) -> tuple[int, ...]:
    """Inverse of `mat_encode` for n x n matrices."""
    return tuple(to_digits(code, q, n * n))


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


# -- breadth-first closure and orbit partition ------------------------------


def closure(start: Hashable, expand: Callable[[list], Iterable],
            cap: int | None = None) -> tuple[list, dict]:
    """Breadth-first closure of `start`: `expand(level)` yields the images of
    one BFS level in a fixed order.  Returns the elements in discovery order
    and their index; raises once more than `cap` elements are found."""
    elements = [start]
    index = {start: 0}
    done = 0
    while done < len(elements):
        level = elements[done:]
        done = len(elements)
        for y in expand(level):
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
                if cap is not None and len(elements) > cap:
                    raise EnumerationCapExceeded(f"group closure exceeded cap {cap}")
    return elements, index


def orbit_partition(size: int, expand: Callable[[list], Iterable],
                    element: Callable[[int], Hashable] = lambda i: i,
                    index: Callable[[Hashable], int] = lambda x: x,
                    ) -> tuple[list[int], list[list[int]]]:
    """Partition an indexed set of `size` elements into orbits, each the
    `closure` under `expand` of the element with the least index not yet
    reached.  `element(i)` is the element with index i and `index` is its
    inverse.  Returns orbit_of and each orbit's member indices in discovery
    order."""
    orbit_of = [-1] * size
    orbits: list[list[int]] = []
    for seed in range(size):
        if orbit_of[seed] < 0:
            members = [index(x) for x in closure(element(seed), expand)[0]]
            for i in members:
                orbit_of[i] = len(orbits)
            orbits.append(members)
    return orbit_of, orbits


class GroupTable:
    """A finite group with a deterministic element index.

    Subclasses provide element multiplication/inversion; everything the
    character-table machinery needs (class data, power maps, exponent) is
    derived here.
    """

    # populated by subclasses:
    order: int
    generator_indices: list[int]

    def mul_idx(self, i: int, j: int) -> int:
        raise NotImplementedError

    def inv_idx(self, i: int) -> int:
        raise NotImplementedError

    @property
    def identity_idx(self) -> int:
        return 0

    def element_order(self, i: int) -> int:
        n, cur = 1, i
        while cur != self.identity_idx:
            cur = self.mul_idx(cur, i)
            n += 1
        return n


class MatrixGroupTable(GroupTable):
    def __init__(self, field: Field, dim: int, elements: list[tuple[int, ...]],
                 index: dict[tuple[int, ...], int], generator_indices: list[int]):
        self.field = field
        self.dim = dim
        self.elements = elements
        self.index = index
        self.order = len(elements)
        self.generator_indices = generator_indices
        self._inv_cache: list[int | None] = [None] * self.order

    def mul_idx(self, i: int, j: int) -> int:
        return self.index[mat_mul(self.field, self.dim, self.elements[i], self.elements[j])]

    def inv_idx(self, i: int) -> int:
        cached = self._inv_cache[i]
        if cached is None:
            cached = self.index[mat_inv(self.field, self.dim, self.elements[i])]
            self._inv_cache[i] = cached
            self._inv_cache[cached] = i
        return cached


def enumerate_group(generators: list[tuple[int, ...]], field: Field, dim: int,
                    cap: int = DEFAULT_GROUP_CAP) -> MatrixGroupTable:
    """Breadth-first closure of the generators under multiplication."""
    gens = sorted(set(generators))
    for g in gens:
        mat_inv(field, dim, g)  # raises on a singular generator

    def right_products(level):
        return (mat_mul(field, dim, x, g) for x in level for g in gens)

    elements, index = closure(mat_identity(dim), right_products, cap)
    # closure under inverse is implied (finite order); spot-check a sample
    for x in elements[: min(len(elements), 16)]:
        if mat_inv(field, dim, x) not in index:
            raise RuntimeError("closure is not inverse-closed; enumeration bug")
    gen_idx = [index[g] for g in gens]
    return MatrixGroupTable(field, dim, elements, index, gen_idx)


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

    def _pack(self, i: int, j: int) -> int:
        return i * self._nb + j

    def _unpack(self, k: int) -> tuple[int, int]:
        return divmod(k, self._nb)

    def mul_idx(self, i: int, j: int) -> int:
        ia, ib = self._unpack(i)
        ja, jb = self._unpack(j)
        return self._pack(self.a.mul_idx(ia, ja), self.b.mul_idx(ib, jb))

    def inv_idx(self, i: int) -> int:
        ia, ib = self._unpack(i)
        return self._pack(self.a.inv_idx(ia), self.b.inv_idx(ib))


def direct_product(a: GroupTable, b: GroupTable, cap: int = DEFAULT_GROUP_CAP) -> ProductGroupTable:
    if a.order * b.order > cap:
        raise EnumerationCapExceeded(f"product order {a.order * b.order} exceeds cap {cap}")
    return ProductGroupTable(a, b)


class ClassData:
    """Conjugacy classes with sizes, representatives and power maps."""

    def __init__(self, group: GroupTable):
        mul = group.mul_idx
        gen_pairs = [(x, group.inv_idx(x)) for x in group.generator_indices]
        class_of, orbits = orbit_partition(
            group.order,
            lambda level: (mul(mul(gi, x), gi_inv) for x in level for gi, gi_inv in gen_pairs),
        )
        reps = [members[0] for members in orbits]
        self.group = group
        self.class_reps = reps
        self.class_sizes = [len(members) for members in orbits]
        self.class_of = class_of
        self.num_classes = len(reps)
        orders = [group.element_order(r) for r in reps]
        self.rep_orders = orders
        self.exponent = lcm(*orders) if orders else 1
        # power_map[c][k] = class of rep_c^k for 0 <= k < order(rep_c)
        pm: list[list[int]] = []
        for rep, d in zip(reps, orders):
            row = []
            cur = group.identity_idx
            for _ in range(d):
                row.append(class_of[cur])
                cur = group.mul_idx(cur, rep)
            pm.append(row)
        self.power_map = pm
        self.inverse_class = [pm[c][(-1) % orders[c]] if orders[c] > 1 else class_of[group.identity_idx]
                              for c in range(len(reps))]

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
        raise RuntimeError(f"{name} closure has the wrong order")
    return g


@lru_cache(maxsize=8)
def gl_group(n: int, q: int, cap: int = DEFAULT_GROUP_CAP) -> MatrixGroupTable:
    return _classical_group("GL", gl_generators, n, q, gl_order(n, q), cap)


@lru_cache(maxsize=8)
def sl_group(n: int, q: int, cap: int = DEFAULT_GROUP_CAP) -> MatrixGroupTable:
    return _classical_group("SL", sl_generators, n, q, gl_order(n, q) // (q - 1), cap)
