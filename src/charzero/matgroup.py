"""The F_q matrix layer and the finite matrix-group engine built on it.

Matrices over F_q are flat row-major tuples of field element codes, which
hash in constant time.  This module owns every decision about them: the one
Gauss-Jordan row reduction (`rref`); the one batched matrix format,
`_MatrixKernel`, which alone fixes the base-q matrix code and owns its
inverse (`codes`, `decode`), the gather product, the F_p-linear maps and
the trace form; the one code index (`DenseKeys`) and the key it reads
(`_key_range`); and the one orbit routine (`orbit_labels`), which numbers
the orbits of a group acting on 0..N-1 through one permutation array per
generator.

A matrix group keeps its elements as one (|G|, n^2) numpy array of digits,
the entry codes in the smallest dtype that holds q - 1.  Every |G|- or
q^(n^2)-sized product has one fixed factor: a level of the enumeration
times a generator, the conjugation x -> g x g^-1 by a generator (classes
here, adjoint orbits in `liefourier`), the class rows u rep_j in `dixon`,
and the trace form.  A field element's code is its base-p digit vector, so
each of these is one F_p-linear map on the n^2 e base-p digits of the
matrix codes: built once from the gather product on the basis matrices
(`_MatrixKernel.linear_map`) and applied to whole digit arrays, several
maps side by side, as one float32 BLAS product per chunk of rows, exact
integers reduced mod p by a lookup (`_MatrixKernel.apply`).  The gather
product itself, from the field's add and mul tables, serves only the power
maps (about 2 tau e products in about log2 e batches, e the largest element
order) and the building of those maps.  A direct product of groups holds
pairs of factor indices and takes every product in its factors, so its
fixed-factor products are its factors' linear maps.
Products are found through one int32 key -> index array.  The key is the
base-q matrix code when q^(n^2) <= 4 |G| (every GL_n, where the ratio is
below 3.5, and every SL_n over F_2 and F_3).  Otherwise the group must lie
in SL_n with n <= 3, and the key is the code with one last-row entry left
out, the one that the determinant fixes (`_special_linear_key`); its range
q^(n^2 - 1) is at most 1.73 |SL_n|.  Any other group is refused.

`enumerate_group` is the one matrix-group closure: breadth-first from the
identity, a level of matrix codes at a time, with the generator list
sorted; each level keeps the first occurrences of unseen products in
(element, generator) order, so the element order is that of a BFS taking
one product at a time and two runs produce identical index maps.  The
closure fills the group's `DenseKeys` itself and sorts nothing: the unseen
products claim their slots by one reversed scatter of positions, checked
to leave each key's first occurrence.  The group decodes the concatenated
level codes once into its digit array.

Conjugacy classes are the `orbit_labels` of one conjugation permutation per
generator: every element is labelled by the least index of its orbit
(labels pulled along each permutation, then lowered by pointer jumping),
and classes are numbered by that least index, which is also the
representative.  The adjoint orbits of gl_n and the exceptional Weyl
classes use the same routine.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache
from math import lcm

import numpy as np

from .errors import ExactnessError
from .ffield import Field, field_for_order, to_digits


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


_CHUNK = 1 << 16  # rows per step of the gather product, bounding its temporaries
# Multiply-adds per BLAS call of `_MatrixKernel.apply`.  OpenBLAS threads a
# product above about 2^19 of them, and on these thin shapes (a few dozen
# columns) the threads cost about 100 times the product itself on a 2-CPU
# machine; below it the call stays single-threaded and its temporaries small.
_MACS = 1 << 18


def _check_float32_exact(width: int, p: int) -> None:
    """Every dot product of `width` pairs of residues mod p is at most
    width * (p-1)^2; float32 holds it exactly, and the residue table has
    that many entries, while it lies below 2^24.  Under the default
    enumeration caps it stays below 2^17 (SL_2(F_167): 4 * 166^2)."""
    if width * (p - 1) ** 2 >= 1 << 24:
        raise ExactnessError(f"F_{p}-linear products of width {width} are not exact in float32")


class _MatrixKernel:
    """The one owner of the F_q matrix format: (N, n*n) digit arrays, their
    base-q codes, batched products, F_p-linear maps and the trace form.

    Entries are field element codes in the smallest unsigned dtype holding
    q - 1.  A matrix's code is sum_t x_t q^t over its row-major entries x_t,
    entry 0 least significant, in int64.  Sums and products are gathers from
    the field's flattened add and mul tables at index x*q + y, built once
    per kernel.

    A field element's code is its base-p digit vector, so the base-p digits
    of a matrix code, coordinate c = t*e + i being digit i of entry t, are
    its `width` = n^2 e coordinates over F_p, and a map x -> a x b with fixed
    a and b is an F_p-linear map K on them, a (width, width) matrix over
    F_p (`linear_map`).  `apply` takes such maps to whole digit arrays by
    one float32 BLAS product, exact below the bound of `_check_float32_exact`.
    """

    def __init__(self, field: Field, n: int):
        q, p, e = field.q, field.p, field.e
        if q ** (n * n) > 1 << 63:
            raise ValueError(f"{n} x {n} matrices over F_{q} have codes beyond 64 bits")
        self.field, self.n, self.q = field, n, q
        self.dtype = np.min_scalar_type(q - 1)
        self._wide = np.min_scalar_type(q * q - 1)
        self._add = np.array(field.add, dtype=self.dtype).ravel()
        self._mul = np.array(field.mul, dtype=self.dtype).ravel()
        self.width = n * n * e
        _check_float32_exact(self.width, p)
        # each field element's e base-p digits as one record, for one gather per entry
        coords = np.array([to_digits(x, p, e) for x in range(q)], dtype=np.float32)
        self._coords = coords.view(np.dtype((np.void, coords.itemsize * e))).ravel()
        # the basis matrices: coordinate c = t*e + i is entry t = p^i
        self._basis = np.zeros((self.width, n * n), dtype=self.dtype)
        entries = np.arange(self.width)
        self._basis[entries, entries // e] = np.tile(p ** np.arange(e), n * n)
        self._powers = p ** np.arange(self.width, dtype=np.int64)
        # the residue mod p of every exact dot product, by lookup
        self._residue = (np.arange(self.width * (p - 1) ** 2 + 1) % p).astype(self.dtype)

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

    def linear_map(self, left: np.ndarray | None = None,
                   right: np.ndarray | None = None) -> np.ndarray:
        """K, the (width, width) matrix over F_p of x -> left x right (either
        factor may be left out) on coordinates: row c is the image of the
        c-th basis matrix, formed by the gather product."""
        images = self._basis
        if left is not None:
            images = self.product(np.broadcast_to(left, images.shape), images)
        if right is not None:
            images = self.product(images, np.broadcast_to(right, images.shape))
        return self._coordinates(images)

    def _coordinates(self, digits: np.ndarray) -> np.ndarray:
        """The (N, width) float array of the F_p coordinates of a digit
        array's rows: over a prime field the digits themselves."""
        if self.field.e == 1:
            return digits.astype(np.float32)
        return np.take(self._coords, digits).view(np.float32).reshape(len(digits), self.width)

    def apply(self, digits: np.ndarray, maps: list[np.ndarray]) -> np.ndarray:
        """The images of the rows of a digit array under F_p-linear maps, each
        a (width, w) matrix over F_p, as an (N, len(maps)) array of the values
        sum_c y_c p^c of the image coordinates y: the int64 matrix codes of
        the images when w is the width, the one residue when w is 1.

        The maps are stacked side by side for one float32 product per chunk
        of rows; its entries are exact integers, reduced mod p by a lookup,
        and the codes are one product by the powers p^c.  No maps give no
        columns (the closure of no generators is {I})."""
        if not maps:
            return np.empty((len(digits), 0), dtype=np.int64)
        w = maps[0].shape[1]
        stacked = np.concatenate(maps, axis=1).astype(np.float32)
        out = np.empty((len(digits), len(maps)), dtype=np.int64 if w > 1 else self.dtype)
        step = max(1, _MACS // stacked.size)
        for s in range(0, len(digits), step):
            dots = self._coordinates(digits[s : s + step]) @ stacked
            residues = np.take(self._residue, dots.astype(np.intp))
            if w > 1:
                residues = (residues.reshape(-1, w) @ self._powers[:w]).reshape(len(dots), -1)
            out[s : s + step] = residues
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

    def trace_forms(self, digits: np.ndarray, coeffs: list[list[int]]) -> np.ndarray:
        """Tr_{F_q/F_p}(sum_t c[t] * x_t) for every row x of a digit array and
        every coefficient list c, as an (N, len(coeffs)) array.  Each is
        F_p-linear in x, so together they are one `apply` of their values
        on the basis matrices."""
        F = self.field
        weights = [np.array([F.trace_to_prime(F.mul[ct][F.p**i]) for ct in c for i in range(F.e)])
                   for c in coeffs]
        return self.apply(digits, [wt[:, None] for wt in weights])


def _key_range(n: int, q: int, order: int) -> int:
    """The size of the dense code index of a group of `order` n x n matrices
    over F_q: q^(n^2) when the key is the matrix code, q^(n^2 - 1) when it
    is the `_special_linear_key`.  The code serves while q^(n^2) <= 4 |G|;
    past that the group must lie in SL_n with n <= 3, and the special linear
    key must stay within 4 |G| (for SL_n itself it is at most 1.73 |G|).
    Anything else raises `ValueError`, before any table is built."""
    if q ** (n * n) <= 4 * order:
        return q ** (n * n)
    if n > 3 or q ** (n * n - 1) > 4 * order:
        raise ValueError(
            f"no dense code index for a group of order {order} of {n} x {n} matrices "
            f"over F_{q}: its {q}^{n * n} codes exceed 4 |G|, and only subgroups of "
            "SL_n with n <= 3 have a shorter key")
    return q ** (n * n - 1)


def _special_linear_key(kernel: _MatrixKernel, generators: list[tuple[int, ...]]
                        ) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """`split(codes)`: the key of the matrices of determinant 1 (n <= 3)
    and the digit it leaves out.  The key is the code with the last-row
    entry (n, j) left out, j the first column whose last-row cofactor is
    nonzero.  That cofactor is the minor of rows 1..n-1 without column j,
    so j depends only on those rows, the low n(n-1) digits of the key, and
    then det = 1 fixes the entry left out: the key is injective on SL_n and
    ranges over [0, q^(n^2 - 1)).  Raises `ValueError` unless every
    generator has determinant 1.  A matrix of another determinant can share
    the key of an element, and differs from it exactly in the digit left
    out, so a lookup compares that digit (`DenseKeys.index_of`)."""
    F, n, q, mul = kernel.field, kernel.n, kernel.q, kernel._mul
    for g in generators:
        constant = mat_charpoly(F, n, g)[0]  # det(-g) = (-1)^n det(g)
        if (F.neg[constant] if n % 2 else constant) != 1:
            raise ValueError(f"generator {g} does not have determinant 1, and {n} x {n} "
                             f"matrices over F_{q} have no other key within 4 |G|")
    last = n * (n - 1)  # the entries of rows 1..n-1 are the digits below q^last

    def nonzero_cofactors(codes: np.ndarray) -> list[np.ndarray]:
        """Whether the last-row cofactors of columns 1..n-1 are nonzero."""
        if n == 1:
            return []
        if n == 2:  # the cofactor of (2, 1) is -b, and b != 0 exactly when a + bq >= q
            return [codes % (q * q) >= q]
        # n = 3: a cofactor is a 2 x 2 minor of rows 1 and 2, zero exactly
        # when its two products are equal
        x = [codes // q**t % q for t in range(last)]
        return [mul[x[a] * q + x[b]] != mul[x[c] * q + x[d]]
                for a, b, c, d in ((1, 5, 2, 4), (0, 5, 2, 3))]

    def split(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        low = q ** (n * n - 1)  # q^t, t the position left out: the top entry,
        for j, nonzero in reversed(list(enumerate(nonzero_cofactors(codes)))):
            low = np.where(nonzero, q ** (last + j), low)  # or the first column with a cofactor
        key = codes % low  # the digits below position t, for now
        high = codes // low
        left_out = np.remainder(high, q, out=np.empty(len(codes), dtype=kernel.dtype),
                                casting="unsafe")  # no int64 copy
        high //= q  # the digits above position t, moved down one place into the key
        high *= low
        key += high
        return key, left_out

    return split


class DenseKeys:
    """Positions of distinct matrix codes by one int32 array over the range
    [0, size) of their keys, -1 where a key is absent.  The key is the code
    itself, or the first part of `split(codes)` for a `_special_linear_key`,
    whose second part, the digit the key leaves out, is kept per key so
    that a lookup refuses a code that only shares a key.  `add_new` grows
    the key set, so a closure can fill the index as it goes."""

    def __init__(self, codes: np.ndarray, size: int,
                 split: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None):
        self.split = split
        self._position = np.full(size, -1, dtype=np.int32)
        self._left_out: np.ndarray | None = None  # per key, in the digits' dtype
        self._count = 0
        self._number(codes)

    def _keys_of(self, codes: np.ndarray) -> np.ndarray:
        return codes if self.split is None else self.split(codes)[0]

    def _number(self, codes: np.ndarray) -> None:
        """Give the keys of new codes the next positions, in order."""
        keys = codes
        if self.split is not None:
            keys, left_out = self.split(codes)
            if self._left_out is None:
                self._left_out = np.zeros(len(self._position), dtype=left_out.dtype)
            self._left_out[keys] = left_out
        self._position[keys] = np.arange(self._count, self._count + len(codes), dtype=np.int32)
        self._count += len(codes)

    def add_new(self, codes: np.ndarray) -> np.ndarray:
        """The codes whose keys are not yet present, each key once, in order
        of first occurrence; their keys take the next positions in that
        order.

        An absent key's slot holds -1, so it can carry a claim before the
        key is numbered: one reversed scatter writes -2 - i into the slot of
        the i-th absent code, so that where the last write wins each slot
        ends with its key's first claim, and the codes whose own claim
        survived are the new ones.  NumPy does not promise which write wins
        when indices repeat, so every surviving claim -2 - j is checked to
        be a first occurrence (j <= i), and anything else raises."""
        position = self._position
        absent = codes[position[self._keys_of(codes)] < 0]
        slots = self._keys_of(absent)
        claim = np.arange(-2, -2 - len(absent), -1, dtype=np.int32)
        position[slots[::-1]] = claim[::-1]
        survivor = position[slots]
        if (survivor < claim).any():
            raise ExactnessError("a scatter kept a later occurrence of a key")
        new = absent[survivor == claim]
        self._number(new)
        return new

    def index_of(self, codes: np.ndarray, missing: str) -> np.ndarray:
        """Positions of a 1-D array of codes; raises `ExactnessError(missing)`
        if one is absent: its key is, or it differs from the code there in
        the digit left out.  Split keys are taken 2^16 codes at a time, so
        their int64 temporaries stay small however many codes are asked."""
        if self.split is None:
            out = self._position[codes]
        else:
            out = np.empty(len(codes), dtype=np.int32)
            for s in range(0, len(codes), 1 << 16):
                keys, left_out = self.split(codes[s : s + (1 << 16)])
                found = self._position[keys]
                found[self._left_out[keys] != left_out] = -1
                out[s : s + (1 << 16)] = found
        if (out < 0).any():
            raise ExactnessError(missing)
        return out.astype(np.intp)  # numpy gathers faster by intp


class MatrixGroupTable:
    """A matrix group stored as `digits`, an (|G|, n*n) array of entry
    codes in element order, multiplied by `kernel`; element 0 is the
    identity.  Matrices are found by their base-q codes through `keys`, the
    index that `enumerate_group` filled.  A product with a fixed factor is
    one F_p-linear map; the right multiplication by an element is kept once
    built."""

    def __init__(self, kernel: _MatrixKernel, codes: np.ndarray, generators: np.ndarray,
                 keys: DenseKeys):
        """`codes` are the elements' matrix codes in element order, `keys`
        their index and `generators` the generators' codes."""
        self.field = kernel.field
        self.dim = kernel.n
        self.digits = kernel.decode(codes)
        self.order = len(codes)
        self.kernel = kernel
        self._keys = keys
        self.generator_indices = self._index_of(generators).tolist()
        self._right_maps: dict[int, np.ndarray] = {}

    def _index_of(self, codes: np.ndarray) -> np.ndarray:
        """Element indices of a 1-D array of matrix codes; a matrix outside
        the group is refused."""
        return self._keys.index_of(codes, "matrix is not an element of the group")

    def element(self, i: int) -> tuple[int, ...]:
        return tuple(self.digits[i].tolist())

    def mul_many(self, a, b) -> np.ndarray:
        """Indices of the products a[t] * b[t], with numpy broadcasting."""
        a, b = np.broadcast_arrays(np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp))
        prod = self.kernel.product(self.digits[a.ravel()], self.digits[b.ravel()])
        return self._index_of(self.kernel.codes(prod)).reshape(a.shape)

    def mul_right(self, xs: np.ndarray, rights: np.ndarray) -> np.ndarray:
        """The (len(xs), len(rights)) indices of the products x r."""
        maps = []
        for r in np.asarray(rights).tolist():
            if r not in self._right_maps:
                self._right_maps[r] = self.kernel.linear_map(right=self.digits[r])
            maps.append(self._right_maps[r])
        codes = self.kernel.apply(self.digits[xs], maps)
        return self._index_of(codes.ravel()).reshape(codes.shape)

    def conjugations(self) -> list[np.ndarray]:
        """One permutation of the element indices per generator g, x -> g x g^-1."""
        kernel, perms = self.kernel, []
        for g in self.generator_indices:
            conjugation = kernel.linear_map(self.digits[g], self.digits[self.inv_idx(g)])
            perms.append(self._index_of(kernel.apply(self.digits, [conjugation])[:, 0]))
        return perms

    def inv_idx(self, i: int) -> int:
        inverse = mat_inv(self.field, self.dim, self.element(i))
        return int(self._index_of(self.kernel.codes(self.kernel.digits([inverse])))[0])


def enumerate_group(generators: list[tuple[int, ...]], field: Field, dim: int, *,
                    order: int) -> MatrixGroupTable:
    """Breadth-first closure of the generators under multiplication, one
    level of matrix codes at a time: the level's products with the sorted
    generators, taken in (element, generator) order, contribute their first
    occurrences that are not yet known, in order of discovery.  The closure
    fills the group's `DenseKeys` as it goes, over the keys that
    `_key_range` sets for the expected `order`, and raises as soon as it
    holds more than `order` elements."""
    gens = sorted(set(generators))
    for g in gens:
        mat_inv(field, dim, g)  # raises on a singular generator
    kernel = _MatrixKernel(field, dim)
    size = _key_range(dim, field.q, order)
    split = _special_linear_key(kernel, gens) if size < field.q ** (dim * dim) else None
    gen_digits = kernel.digits(gens)
    right_maps = [kernel.linear_map(right=g) for g in gen_digits]
    level = kernel.codes(kernel.digits([mat_identity(dim)]))
    keys, levels, known = DenseKeys(level, size, split), [], 0
    while len(level):
        known += len(level)
        if known > order:
            raise ExactnessError(f"the group closure holds more than the expected {order} elements")
        levels.append(level)
        level = keys.add_new(kernel.apply(kernel.decode(level), right_maps).ravel())
    group = MatrixGroupTable(kernel, np.concatenate(levels), kernel.codes(gen_digits), keys)
    # closure under inverse is implied (finite order); spot-check a sample
    for i in range(min(group.order, 16)):
        group.inv_idx(i)
    return group


class ProductGroupTable:
    """Direct product; elements are pairs of factor indices (block-diagonal
    in spirit, but the factors may live over different fields), packed as
    i * |B| + j, so element 0 is the identity.  Every product is taken in
    the factors."""

    def __init__(self, a: Group, b: Group):
        self.a = a
        self.b = b
        self.order = a.order * b.order
        self._nb = b.order
        self.generator_indices = [self._pack(g, 0) for g in a.generator_indices]
        self.generator_indices += [self._pack(0, g) for g in b.generator_indices]

    def _pack(self, i, j):
        return i * self._nb + j

    def _unpack(self, k):
        return divmod(k, self._nb)

    def mul_many(self, i, j) -> np.ndarray:
        """Indices of the products i[t] * j[t], with numpy broadcasting."""
        ia, ib = self._unpack(np.asarray(i, dtype=np.intp))
        ja, jb = self._unpack(np.asarray(j, dtype=np.intp))
        return self._pack(self.a.mul_many(ia, ja), self.b.mul_many(ib, jb))

    def mul_right(self, xs: np.ndarray, rights: np.ndarray) -> np.ndarray:
        """The (len(xs), len(rights)) indices of the products x r."""
        xa, xb = self._unpack(np.asarray(xs, dtype=np.intp))
        ra, rb = self._unpack(np.asarray(rights, dtype=np.intp))
        return self._pack(self.a.mul_right(xa, ra), self.b.mul_right(xb, rb))

    def conjugations(self) -> list[np.ndarray]:
        """One permutation of the element indices per generator, in
        generator order: each factor's conjugations lifted to the pairs."""
        ia, ib = self._unpack(np.arange(self.order))
        return ([self._pack(p[ia], ib) for p in self.a.conjugations()]
                + [self._pack(ia, p[ib]) for p in self.b.conjugations()])


Group = MatrixGroupTable | ProductGroupTable


def direct_product(a: Group, b: Group) -> ProductGroupTable:
    if a.order * b.order > DEFAULT_GROUP_CAP:
        raise EnumerationCapExceeded(
            f"product order {a.order * b.order} exceeds cap {DEFAULT_GROUP_CAP}")
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

    def __init__(self, group: Group):
        reps, class_of = orbit_labels(group.order, group.conjugations())
        reps = reps.tolist()
        self.group = group
        self.class_reps = reps
        self.class_sizes = np.bincount(class_of).tolist()
        self.class_of = class_of
        self.num_classes = len(reps)
        # power_map[c][k] = class of rep_c^k for 0 <= k < order(rep_c).  The
        # powers rep^0 .. rep^(w-1) double to w columns more, [rep^0 .. rep^(w-1)]
        # * rep^w, and rep^w is squared, until every rep's order is below w
        identity = 0  # element 0 of either table
        powers, step = np.full((len(reps), 1), identity), np.array(reps)
        while True:
            powers = np.hstack([powers, group.mul_many(powers, step[:, None])])
            returns = powers[:, 1:] == identity
            if returns.any(axis=1).all():
                break
            step = group.mul_many(step, step)
        orders = returns.argmax(axis=1) + 1
        powers = class_of[powers]
        self.rep_orders = orders.tolist()
        self.exponent = lcm(*self.rep_orders)
        self.power_map = [powers[c, :d].tolist() for c, d in enumerate(self.rep_orders)]
        self.inverse_class = [row[-1] for row in self.power_map]

    def power_class(self, c: int, k: int) -> int:
        return self.power_map[c][k % self.rep_orders[c]]


def conjugacy_classes(group: Group) -> ClassData:
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
    if order > cap:  # refused before the field's q x q tables are built
        raise EnumerationCapExceeded(
            f"{name}_{n}(F_{q}) has order {order}, over the enumeration cap {cap}"
        )
    _key_range(n, q, order)  # refused, too, before the field's tables are built
    F = field_for_order(q)
    g = enumerate_group(generators(n, F), F, n, order=order)
    if g.order != order:
        raise ExactnessError(f"{name} closure has the wrong order")
    return g


@lru_cache(maxsize=8)
def gl_group(n: int, q: int, cap: int = DEFAULT_GROUP_CAP) -> MatrixGroupTable:
    return _classical_group("GL", gl_generators, n, q, gl_order(n, q), cap)


@lru_cache(maxsize=8)
def sl_group(n: int, q: int, cap: int = DEFAULT_GROUP_CAP) -> MatrixGroupTable:
    return _classical_group("SL", sl_generators, n, q, gl_order(n, q) // (q - 1), cap)
