"""Exact matrices over the coefficient rings, with deterministic elimination.

One elimination, `_row_reduce`, serves rank, pivots, solve_linear, kernel,
inverse, det and saturate.  Its pivots are the first units in column
order, then, over Z/p^k, Z_(p) and F_p[eps], the first entries of least
valuation: identical inputs give bit-identical outputs, and it is complete
over every field and local ring.  Every ring eliminates on its raw values
with its own arithmetic, and every product multiplies only the nonzero
entries, row by row.  The elimination refuses every other ring, such as
Z; `det` is Bareiss over Z, and otherwise the signed product of the
elimination's pivots.

Sparse maps {(row, col): raw} without zeros, such as the cochain
differentials, are the other format: `_summed`, `_nonzero_product` and
`_commutator` add and multiply them, `_dense` makes a Matrix of one, and
`_graded_kernel` and `_solve_by_blocks` eliminate one `_degree_blocks`
block at a time, as one elimination of the whole map would; `kernel` is
the one-block case.  `_span_vectors` gives a span of columns the basis
that `_kernel_vectors` gives it when it is a kernel.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

from .rings import (
    LieformError,
    PrimeField,
    QQ,
    Record,
    RingMismatch,
    RingSpec,
    Scalar,
    UnsupportedRing,
    convert_raw,
    is_prime,
    pvaluation,
)


class DimensionMismatch(LieformError):
    pass


class Singular(LieformError):
    pass


class NotASubspace(LieformError):
    pass


class Matrix(Record):
    """Immutable row-major matrix of raw ring values."""

    ring: RingSpec
    nrows: int
    ncols: int
    data: tuple

    def __init__(self, ring: RingSpec, nrows: int, ncols: int, data: tuple):
        put = object.__setattr__
        put(self, "ring", ring)
        put(self, "nrows", nrows)
        put(self, "ncols", ncols)
        put(self, "data", data)

    # -- construction ------------------------------------------------------
    @staticmethod
    def from_rows(ring: RingSpec, rows: Sequence[Sequence]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for row in rows:
            if len(row) != ncols:
                raise DimensionMismatch("ragged rows")
            for v in row:
                if isinstance(v, Scalar):
                    if v.ring != ring:
                        raise RingMismatch("entry from %r in %r matrix" % (v.ring, ring))
                    flat.append(v.value)
                else:
                    flat.append(ring.coerce(v))
        return Matrix(ring, nrows, ncols, tuple(flat))

    @staticmethod
    def zeros(ring: RingSpec, nrows: int, ncols: int) -> "Matrix":
        z = ring.zero()
        return Matrix(ring, nrows, ncols, (z,) * (nrows * ncols))

    @staticmethod
    def identity(ring: RingSpec, n: int) -> "Matrix":
        z, o = ring.zero(), ring.one()
        flat = [z] * (n * n)
        for i in range(n):
            flat[i * n + i] = o
        return Matrix(ring, n, n, tuple(flat))

    @staticmethod
    def column(ring: RingSpec, entries: Sequence) -> "Matrix":
        return Matrix.from_rows(ring, [[v] for v in entries])

    # -- access ------------------------------------------------------------
    def raw(self, i: int, j: int):
        return self.data[i * self.ncols + j]

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return Scalar(self.ring, self.raw(i, j))

    def row(self, i: int) -> tuple:
        return self.data[i * self.ncols:(i + 1) * self.ncols]

    def col(self, j: int) -> tuple:
        return self.data[j::self.ncols]

    def rows(self) -> list:
        return [list(self.row(i)) for i in range(self.nrows)]

    # -- arithmetic --------------------------------------------------------
    def _same_shape(self, other: "Matrix") -> None:
        if self.ring != other.ring:
            raise RingMismatch("%r vs %r" % (self.ring, other.ring))
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("%dx%d vs %dx%d" % (
                self.nrows, self.ncols, other.nrows, other.ncols))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        add = self.ring.add
        return Matrix(self.ring, self.nrows, self.ncols,
                      tuple(add(a, b) for a, b in zip(self.data, other.data)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        sub = self.ring.sub
        return Matrix(self.ring, self.nrows, self.ncols,
                      tuple(sub(a, b) for a, b in zip(self.data, other.data)))

    def __neg__(self) -> "Matrix":
        neg = self.ring.neg
        return Matrix(self.ring, self.nrows, self.ncols,
                      tuple(neg(a) for a in self.data))

    def scale(self, c) -> "Matrix":
        c = c.value if isinstance(c, Scalar) else self.ring.coerce(c)
        mul = self.ring.mul
        return Matrix(self.ring, self.nrows, self.ncols,
                      tuple(mul(c, a) for a in self.data))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ring != other.ring:
            raise RingMismatch("%r vs %r" % (self.ring, other.ring))
        if self.ncols != other.nrows:
            raise DimensionMismatch("%dx%d @ %dx%d" % (
                self.nrows, self.ncols, other.nrows, other.ncols))
        ring = self.ring
        # Row by row over the nonzero entries only: each zero test is made
        # once per entry, and every output entry still sums its nonzero
        # terms from `zero` in increasing l, so the values are the same.
        add, mul, zero = ring.add, ring.mul, ring.zero()
        n, m, k = self.nrows, other.ncols, self.ncols
        other_rows = [[(j, w) for j, w in enumerate(other.row(l)) if w != zero]
                      for l in range(k)]
        out = []
        for i in range(n):
            acc = [zero] * m
            for l, v in enumerate(self.row(i)):
                if v != zero:
                    for j, w in other_rows[l]:
                        acc[j] = add(acc[j], mul(v, w))
            out += acc
        return Matrix(ring, n, m, tuple(out))

    def transpose(self) -> "Matrix":
        return Matrix(self.ring, self.ncols, self.nrows,
                      tuple(chain.from_iterable(self.data[j::self.ncols]
                                                for j in range(self.ncols))))

    def hstack(self, *others: "Matrix") -> "Matrix":
        """self and the others side by side, built in one pass."""
        mats = (self,) + others
        if any(o.nrows != self.nrows or o.ring != self.ring for o in others):
            raise DimensionMismatch("hstack shape mismatch")
        data: list = []
        for i in range(self.nrows):
            for mt in mats:
                data += mt.row(i)
        return Matrix(self.ring, self.nrows, sum(mt.ncols for mt in mats), tuple(data))

    def is_zero(self) -> bool:
        z = self.ring.zero()
        return all(v == z for v in self.data)

    # -- conversions -------------------------------------------------------
    def map_to_ring(self, dst: RingSpec) -> "Matrix":
        src = self.ring
        return Matrix(dst, self.nrows, self.ncols,
                      tuple(convert_raw(v, src, dst) for v in self.data))

    def __str__(self) -> str:
        fmt = self.ring.fmt
        return "\n".join(" ".join(fmt(v) for v in self.row(i))
                         for i in range(self.nrows))


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def _row_reduce(m: Matrix, reduce_up: bool) -> tuple[list[list], list[int], object]:
    """Row echelon over a field or local ring: the rows, the pivot columns
    in the order found, and the product of the pivots times the sign of the
    row swaps.  The first pivots are the first units in column order, each
    scaled to 1 and cleared from the rows below, or all others if reduce_up.
    Over Z/p^k, Z_(p) and F_p[eps] the rows left hold only non-units; each
    further pivot is their first entry of least valuation, ties by column,
    then row.  It divides every entry left, so, left unscaled, it clears the
    rows below it, which makes the elimination complete (Howell 1986).
    Other rings, such as Z, raise UnsupportedRing."""
    ring = m.ring
    if not (ring.is_field or ring.is_local):
        raise UnsupportedRing("elimination needs a field-kind or local ring, got %r"
                              % (ring,))
    add, mul, neg, is_zero = ring.add, ring.mul, ring.neg, ring.is_zero
    rows = m.rows()
    nrows, ncols = m.nrows, m.ncols
    pivots = []
    scale = ring.one()

    def eliminate(pr: int, c: int) -> None:
        nonlocal scale
        r = len(pivots)
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            scale = neg(scale)
        pivot = rows[r][c]
        scale = mul(scale, pivot)
        unit = ring.is_unit(pivot)
        inv = ring.inv(pivot) if unit else ring.one()
        # a target row changes only where the pivot row is nonzero
        support = [(j, mul(inv, w)) for j, w in enumerate(rows[r]) if not is_zero(w)]
        for j, w in support:
            rows[r][j] = w
        for i in range(nrows) if reduce_up and unit else range(r + 1, nrows):
            if i != r and not is_zero(rows[i][c]):
                row, nf = rows[i], neg(rows[i][c] if unit else ring.divide(rows[i][c], pivot))
                for j, w in support:
                    row[j] = add(row[j], mul(nf, w))
        pivots.append(c)

    for c in range(ncols):
        if len(pivots) == nrows:
            break
        pr = next((i for i in range(len(pivots), nrows) if ring.is_unit(rows[i][c])), None)
        if pr is not None:
            eliminate(pr, c)
    while ring.is_local and not ring.is_field:
        least = min(((ring.valuation(rows[i][c]), c, i) for c in range(ncols)
                     for i in range(len(pivots), nrows) if not is_zero(rows[i][c])),
                    default=None)
        if least is None:
            break
        eliminate(least[2], least[1])
    return rows, pivots, scale


def _echelon(m: Matrix, reduce_up: bool) -> tuple[list[int], list[int], list[list]]:
    """The pivot columns, the non-pivot columns, and the pivot rows
    restricted to the non-pivot columns (raw ring values): with reduce_up,
    over a field, the reduced echelon form that kernel and saturate read.
    """
    rows, pivots, _ = _row_reduce(m, reduce_up)
    free = [c for c in range(m.ncols) if c not in pivots]
    return pivots, free, [[row[c] for c in free] for row in rows[:len(pivots)]]


def rank(m: Matrix) -> int:
    """Rank over a field-kind ring."""
    ring = m.ring
    if not ring.is_field:
        raise UnsupportedRing("rank needs a field-kind ring, got %r" % (ring,))
    return len(pivots(m))


def solve_linear(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """One exact solution of a x = b, or None when the system is inconsistent:
    exactly when the elimination of (a | b) pivots in b's block, over every
    field and local ring.  Free variables are set to zero, so the answer is
    deterministic.  Unit pivots are 1 and cleared from every other row, so
    back-substitution divides only at the non-unit pivots."""
    ring = a.ring
    if ring != b.ring:
        raise RingMismatch("%r vs %r" % (ring, b.ring))
    if a.nrows != b.nrows:
        raise DimensionMismatch("lhs has %d rows, rhs %d" % (a.nrows, b.nrows))
    n = a.ncols
    rows, pivots, _ = _row_reduce(a.hstack(b), reduce_up=True)
    if any(c >= n for c in pivots):
        return None
    units = sum(ring.is_unit(row[c]) for row, c in zip(rows, pivots))
    out = [[ring.zero()] * b.ncols for _ in range(n)]
    for k in reversed(range(len(pivots))):
        row, c = rows[k], pivots[k]
        x = row[n:]
        for j in pivots[max(k + 1, units):]:
            x = [ring.sub(v, ring.mul(row[j], w)) for v, w in zip(x, out[j])]
        out[c] = x if k < units else [ring.divide(v, row[c]) for v in x]
    return Matrix(ring, n, b.ncols, tuple(v for row in out for v in row))


def kernel(m: Matrix) -> Matrix:
    """Basis of the right null space over a field, as matrix columns.

    One column per free variable, ordered by free column index, with a 1
    in the free position; deterministic.  It is `_graded_kernel` with
    every column in one degree.
    """
    ring = m.ring
    if not ring.is_field:
        raise UnsupportedRing("kernel needs a field-kind ring")
    return _graded_kernel(ring, [()] * m.ncols, {
        divmod(t, m.ncols): v for t, v in enumerate(m.data) if not ring.is_zero(v)})


def inverse(m: Matrix) -> Matrix:
    """Exact inverse over a field or local ring.  A solution X of m X = I
    is a two-sided inverse over a commutative ring, so m is singular exactly
    when that system has none."""
    if m.nrows != m.ncols:
        raise DimensionMismatch("inverse of a %dx%d matrix" % (m.nrows, m.ncols))
    sol = solve_linear(m, Matrix.identity(m.ring, m.nrows))
    if sol is None:
        raise Singular("matrix is not invertible")
    return sol


def pivots(m: Matrix) -> list[int]:
    """Pivot columns of the row echelon form, in increasing order.  Over a
    field, column c is a pivot iff it is not in the span of the columns
    before it."""
    return sorted(_row_reduce(m, reduce_up=False)[1])


def _bareiss_det_int(rows: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det(m: Matrix):
    """Exact determinant as a raw ring value: Bareiss over Z, and otherwise
    the elimination's signed product of pivots, times the sign of the
    order in which the columns pivoted; zero if some column does not."""
    if m.nrows != m.ncols:
        raise DimensionMismatch("determinant of a %dx%d matrix" % (m.nrows, m.ncols))
    ring = m.ring
    if ring.kind == "integers":
        return _bareiss_det_int(m.rows())
    _, piv, scale = _row_reduce(m, reduce_up=False)
    if len(piv) < m.nrows:
        return ring.zero()
    odd = sum(x > y for i, x in enumerate(piv) for y in piv[i + 1:]) % 2
    return ring.neg(scale) if odd else scale


# ---------------------------------------------------------------------------
# sparse maps {(row, col): raw} and their degree blocks
# ---------------------------------------------------------------------------

def _summed(ring: RingSpec, terms) -> dict:
    """{key: sum of its values} over the (key, raw) terms, zeros dropped."""
    add, zero, out = ring.add, ring.zero(), {}
    for key, v in terms:
        out[key] = add(out.get(key, zero), v)
    return {key: v for key, v in out.items() if not ring.is_zero(v)}


def _nonzero_product(ring: RingSpec, left, right: dict) -> dict:
    """The nonzero entries of the product left·right of two sparse maps,
    left given by its ((row, col), raw) items, right as {(row, col): raw}."""
    by_row = defaultdict(list)
    for (m, c), w in right.items():
        by_row[m].append((c, w))
    return _summed(ring, (((r, c), ring.mul(v, w)) for (r, m), v in left
                          for c, w in by_row.get(m, ())))


def _commutator(ring: RingSpec, x: dict, y: dict) -> dict:
    """xy - yx for sparse matrices {(row, col): raw}, zeros dropped."""
    neg = ring.neg
    return _summed(ring, chain(_nonzero_product(ring, x.items(), y).items(),
                               _nonzero_product(ring, ((k, neg(v)) for k, v in y.items()),
                                                x).items()))


def _dense(ring: RingSpec, ncols: int, entries: dict, rows) -> Matrix:
    """A sparse map {(row, col): raw} as a Matrix on the given rows, in
    order; every row of entries must be among them."""
    at = {r: t for t, r in enumerate(rows)}
    flat = [ring.zero()] * (len(rows) * ncols)
    for (r, c), v in entries.items():
        flat[at[r] * ncols + c] = v
    return Matrix(ring, len(rows), ncols, tuple(flat))


def _degree_blocks(ring: RingSpec, degrees: list, entries: dict) -> tuple:
    """The diagonal blocks of the sparse map {(row, col): raw} whose column
    c has degree degrees[c]; every row must lie in one degree, and a column
    of degree None lies in no block and must be empty.  Returns
    {row: its degree} for the nonempty rows, and per degree, in order of
    first column, (its columns in increasing order, its nonempty rows in
    increasing order, the block on those rows and columns)."""
    blocks: dict = defaultdict(list)           # degree -> its columns
    local = {}                                 # column -> its place in its block
    for c, d in enumerate(degrees):
        if d is not None:
            local[c] = len(blocks[d])
            blocks[d].append(c)
    row_degree: dict = {}
    parts: dict = defaultdict(dict)            # degree -> {(row, local col): raw}
    for (r, c), v in entries.items():
        d = degrees[c]
        if row_degree.setdefault(r, d) != d:
            raise AssertionError("row %d has entries in degrees %r and %r"
                                 % (r, row_degree[r], d))
        parts[d][(r, local[c])] = v
    for d, cols in blocks.items():
        rows = sorted({r for r, _ in parts[d]})
        blocks[d] = (cols, rows, _dense(ring, len(cols), parts[d], rows))
    return row_degree, blocks


def _kernel_vectors(ring: RingSpec, blocks) -> list:
    """The reduced-echelon kernel basis of a map, taken one of its
    `_degree_blocks` blocks (cols, rows, block) at a time, as (f, {col: raw}).

    A column is a pivot of the whole map iff it is one of its block, and
    the reduced-echelon kernel basis is unique, so the free column f gives
    the vector of one whole elimination: 1 at f, minus the reduced row
    entries at the block's pivot columns.  f is its last nonzero slot."""
    one, neg = ring.one(), ring.neg
    vectors = []
    for cols, _, block in blocks:
        pivots, free, rest = _echelon(block, reduce_up=True)
        for t, f in enumerate(free):
            vec = {cols[f]: one}
            for pc, row in zip(pivots, rest):
                vec[cols[pc]] = neg(row[t])
            vectors.append((cols[f], vec))
    return vectors


def _span_vectors(ring: RingSpec, columns: dict) -> list:
    """The reduced basis of the span of the columns {col: {row: raw}}, as
    (f, {row: raw}): f is the last nonzero slot of its vector, and every
    other vector is zero there.  It is the reduced echelon form of the
    columns taken as rows, with the slot order reversed, so it depends only
    on the span: when the span is a kernel, it is `_kernel_vectors`' basis
    of it."""
    rows = sorted({r for col in columns.values() for r in col}, reverse=True)
    at = {r: t for t, r in enumerate(rows)}
    m = _dense(ring, len(rows), {(i, at[r]): v for i, col in enumerate(columns.values())
                                 for r, v in col.items()}, range(len(columns)))
    pivots, free, rest = _echelon(m, reduce_up=True)
    one = ring.one()
    return [(rows[pc], {rows[pc]: one, **{rows[f]: v for f, v in zip(free, row)}})
            for pc, row in zip(pivots, rest)]


def _columns(ring: RingSpec, nrows: int, vectors: list) -> Matrix:
    """The vectors (f, {row: raw}) as the columns of a Matrix with nrows
    rows, sorted by f."""
    vectors = sorted(vectors, key=lambda fv: fv[0])
    k = len(vectors)
    flat = [ring.zero()] * (nrows * k)
    for j, (_, vec) in enumerate(vectors):
        for c, v in vec.items():
            flat[c * k + j] = v
    return Matrix(ring, nrows, k, tuple(flat))


def _graded_kernel(ring: RingSpec, degrees: list, entries: dict) -> Matrix:
    """The kernel of the map {(row, col): raw} with len(degrees) columns,
    as one elimination of the whole map gives it: `_kernel_vectors`."""
    blocks = _degree_blocks(ring, degrees, entries)[1].values()
    return _columns(ring, len(degrees), _kernel_vectors(ring, blocks))


def _solve_by_blocks(ring: RingSpec, row_degree: dict, blocks: dict, ncols: int,
                     rhs: dict) -> Optional[Matrix]:
    """solve_linear(d, b) for the map d split by `_degree_blocks` into
    row_degree and blocks, b given as {row: raw} without zeros.

    d is block diagonal, so its pivot columns are those of its blocks, and
    the solution that is zero at every other column is found by solving
    only the blocks of the rows where b is nonzero, each on its own.
    """
    if any(r not in row_degree for r in rhs):
        return None
    y = [ring.zero()] * ncols
    for d in {row_degree[r] for r in rhs}:
        cols, rows, block = blocks[d]
        sol = solve_linear(block, Matrix(ring, len(rows), 1,
                                         tuple(rhs.get(r, ring.zero()) for r in rows)))
        if sol is None:
            return None
        for c, v in zip(cols, sol.data):
            y[c] = v
    return Matrix(ring, ncols, 1, tuple(y))


# ---------------------------------------------------------------------------
# lattice saturation at p
# ---------------------------------------------------------------------------

def saturate(lattice_basis: Matrix, subspace_basis: Matrix, p: int) -> Matrix:
    """Basis of {v in lattice : v in span of subspace} as a Z_(p)-module.

    Both inputs are rational matrices whose columns are the generating
    vectors; the result is a rational matrix whose columns generate the
    saturation.  Raises NotASubspace when the subspace does not sit inside
    the column span of the lattice, and ValueError unless p is prime.
    """
    if not is_prime(p):
        raise ValueError("%d is not prime" % p)
    return lattice_basis @ _saturation_coords(lattice_basis, subspace_basis, p)


def _saturation_coords(lattice_basis: Matrix, subspace_basis: Matrix, p: int) -> Matrix:
    """The basis `saturate` returns, in coordinates of the lattice basis:
    p-integral columns, since each is scaled to least valuation 0."""
    if lattice_basis.ring != QQ or subspace_basis.ring != QQ:
        raise UnsupportedRing("saturation works on rational matrices")
    if lattice_basis.nrows != subspace_basis.nrows:
        raise DimensionMismatch("ambient dimensions differ")
    n = lattice_basis.ncols
    coords = solve_linear(lattice_basis, subspace_basis)
    if coords is None:
        raise NotASubspace("subspace is not inside the lattice span")
    # subspace basis in lattice coordinates, one reduced echelon row each
    rows, pivots, _ = _row_reduce(coords.transpose(), reduce_up=True)
    if not pivots:
        return Matrix.zeros(QQ, n, 0)

    def normalize(row: list[Fraction]) -> list[Fraction]:
        v = min(pvaluation(x, p) for x in row if x != 0)
        f = Fraction(p) ** (-v)
        return [x * f for x in row]

    rows = [normalize(r) for r in rows[:len(pivots)]]
    # divide p out of a left dependency among the rows mod p until there is
    # none; each step enlarges the span inside the saturation
    fp = PrimeField(p)
    while True:
        deps = kernel(Matrix.from_rows(QQ, rows).map_to_ring(fp).transpose())
        if not deps.ncols:
            break
        c = deps.col(0)
        idx = next(i for i, ci in enumerate(c) if ci)
        w = [sum(ci * r[j] for ci, r in zip(c, rows)) for j in range(n)]
        rows[idx] = normalize([x / p for x in w])
    return Matrix.from_rows(QQ, rows).transpose()
