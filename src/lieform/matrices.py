"""Exact matrices over the coefficient rings, with deterministic elimination.

One elimination, `_echelon`, serves rank, pivots, solve_linear, kernel,
inverse and saturate: each reads its answer off the same echelon form.
Pivot choice is always "first usable entry in column order, scanning rows
top to bottom", so identical inputs give bit-identical outputs.  Every
ring, prime fields included, eliminates on its raw values with its own
arithmetic, and every product multiplies only the nonzero entries, row by
row.  `det` is exact over every ring: over a field it is the product of
the elimination's pivots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .rings import (
    PrimeField,
    QQ,
    RingMismatch,
    RingSpec,
    Scalar,
    UnsupportedRing,
    convert_raw,
    pvaluation,
)


class DimensionMismatch(Exception):
    pass


class Singular(Exception):
    pass


class NotASubspace(Exception):
    pass


@dataclass(frozen=True)
class Matrix:
    """Immutable row-major matrix of raw ring values."""

    ring: RingSpec
    nrows: int
    ncols: int
    data: tuple

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

    def to_numpy(self) -> np.ndarray:
        return np.array(self.data, dtype=np.int64).reshape(self.nrows, self.ncols)

    @staticmethod
    def from_numpy(ring: RingSpec, arr: np.ndarray) -> "Matrix":
        return Matrix(ring, arr.shape[0], arr.shape[1], tuple(arr.reshape(-1).tolist()))

    def __str__(self) -> str:
        fmt = self.ring.fmt
        return "\n".join(" ".join(fmt(v) for v in self.row(i))
                         for i in range(self.nrows))


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def _row_reduce(m: Matrix, reduce_up: bool) -> tuple[list[list], list[int], object]:
    """Row echelon over a field or local ring; unit pivots, first-hit order.
    Also returns the product of the pivots times the sign of the row swaps,
    which over a field is det(m) when every column of a square m pivots."""
    ring = m.ring
    add, mul, is_zero = ring.add, ring.mul, ring.is_zero
    rows = m.rows()
    nrows, ncols = m.nrows, m.ncols
    pivots = []
    scale = ring.one()
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if ring.is_unit(rows[i][c])), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            scale = ring.neg(scale)
        scale = mul(scale, rows[r][c])
        inv = ring.inv(rows[r][c])
        # a target row changes only where the pivot row is nonzero
        support = [(j, mul(inv, w)) for j, w in enumerate(rows[r]) if not is_zero(w)]
        for j, w in support:
            rows[r][j] = w
        targets = range(nrows) if reduce_up else range(r + 1, nrows)
        for i in targets:
            if i != r and not is_zero(rows[i][c]):
                row, nf = rows[i], ring.neg(rows[i][c])
                for j, w in support:
                    row[j] = add(row[j], mul(nf, w))
        pivots.append(c)
        r += 1
    return rows, pivots, scale


def _echelon(m: Matrix, reduce_up: bool) -> tuple[list[int], list[int], list[list], bool]:
    """The one elimination behind rank, solve, kernel, inverse and saturate.

    Returns the pivot columns, the non-pivot columns, the pivot rows
    restricted to the non-pivot columns (raw ring values), and whether
    every row below the pivot rows is zero: always over a field, where any
    nonzero entry can pivot, not always over Z/p^k, Z_(p) and F_p[eps].
    """
    ring = m.ring
    rows, pivots, _ = _row_reduce(m, reduce_up)
    free = [c for c in range(m.ncols) if c not in pivots]
    r = len(pivots)
    return (pivots, free, [[row[c] for c in free] for row in rows[:r]],
            ring.is_field or all(ring.is_zero(v) for row in rows[r:] for v in row))


def rank(m: Matrix) -> int:
    """Rank over a field-kind ring."""
    ring = m.ring
    if not ring.is_field:
        raise UnsupportedRing("rank needs a field-kind ring, got %r" % (ring,))
    return len(pivots(m))


def solve_linear(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """One exact solution of a x = b, or None when the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.  Over a
    local ring only unit pivots are used, which is complete whenever the
    column space is spanned with unit-pivot echelon form (always true for
    invertible systems).
    """
    ring = a.ring
    if ring != b.ring:
        raise RingMismatch("%r vs %r" % (ring, b.ring))
    if a.nrows != b.nrows:
        raise DimensionMismatch("lhs has %d rows, rhs %d" % (a.nrows, b.nrows))
    if not (ring.is_field or ring.is_local):
        raise UnsupportedRing("solve needs a field-kind or local ring")
    pivots, free, rest, below_zero = _echelon(a.hstack(b), reduce_up=True)
    # inconsistent: a pivot in the rhs block, or a nonzero row below the pivots
    if not below_zero or (pivots and pivots[-1] >= a.ncols):
        return None
    out = [[ring.zero()] * b.ncols for _ in range(a.ncols)]
    nfree = len(free) - b.ncols
    for c, row in zip(pivots, rest):
        out[c] = row[nfree:]
    return Matrix(ring, a.ncols, b.ncols, tuple(v for row in out for v in row))


def kernel(m: Matrix) -> Matrix:
    """Basis of the right null space over a field, as matrix columns.

    One column per free variable, ordered by free column index, with a 1
    in the free position; deterministic.
    """
    ring = m.ring
    if not ring.is_field:
        raise UnsupportedRing("kernel needs a field-kind ring")
    pivots, free, rest, _ = _echelon(m, reduce_up=True)
    out = [[ring.zero()] * len(free) for _ in range(m.ncols)]
    for j, c in enumerate(free):
        out[c][j] = ring.one()
    for pc, row in zip(pivots, rest):
        out[pc] = [ring.neg(v) for v in row]
    return Matrix(ring, m.ncols, len(free), tuple(v for row in out for v in row))


def inverse(m: Matrix) -> Matrix:
    """Exact inverse over a field or local ring (unit-pivot Gauss-Jordan).

    A solution X of m X = I is a two-sided inverse over a commutative ring,
    so m is singular exactly when that system has none."""
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
    return _echelon(m, reduce_up=False)[0]


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
    """Exact determinant as a raw ring value."""
    if m.nrows != m.ncols:
        raise DimensionMismatch("determinant of a %dx%d matrix" % (m.nrows, m.ncols))
    ring = m.ring
    n = m.nrows
    kind = ring.kind
    if kind == "integers":
        return _bareiss_det_int(m.rows())
    if kind == "integers_mod_pk":
        return _bareiss_det_int(m.rows()) % ring.modulus
    if kind == "localized_at_p":
        # the same value over QQ, whose pivots may be divisible by p
        return det(Matrix(QQ, n, n, m.data))
    if ring.is_field:
        _, piv, scale = _row_reduce(m, reduce_up=False)
        return scale if len(piv) == n else ring.zero()
    if kind == "dual_numbers":
        # det(A + eps B) = det(A) + eps * d1 with d1 = det(A) tr(A^-1 B)
        # (Jacobi's formula) when det(A) is a unit, and otherwise
        # d1 = sum_i det(A with row i replaced by B row i)
        base = ring.base
        arows = [[v[0] for v in m.row(i)] for i in range(n)]
        brows = [[v[1] for v in m.row(i)] for i in range(n)]
        a_m = Matrix.from_rows(base, arows)
        d0 = det(a_m)
        d1 = base.zero()
        if base.is_unit(d0):
            ainv = inverse(a_m)
            for k, row in enumerate(brows):
                for i, b in enumerate(row):
                    if not base.is_zero(b):
                        d1 = base.add(d1, base.mul(ainv.raw(i, k), b))
            return (d0, base.mul(d0, d1))
        for i in range(n):
            mixed = [list(brows[r]) if r == i else list(arows[r]) for r in range(n)]
            d1 = base.add(d1, det(Matrix.from_rows(base, mixed)))
        return (d0, d1)
    raise UnsupportedRing("determinant over %r" % (ring,))


# ---------------------------------------------------------------------------
# lattice saturation at p
# ---------------------------------------------------------------------------

def saturate(lattice_basis: Matrix, subspace_basis: Matrix, p: int) -> Matrix:
    """Basis of {v in lattice : v in span of subspace} as a Z_(p)-module.

    Both inputs are rational matrices whose columns are the generating
    vectors; the result is a rational matrix whose columns generate the
    saturation.  Raises NotASubspace when the subspace does not sit inside
    the column span of the lattice.
    """
    if lattice_basis.ring != QQ or subspace_basis.ring != QQ:
        raise UnsupportedRing("saturation works on rational matrices")
    if lattice_basis.nrows != subspace_basis.nrows:
        raise DimensionMismatch("ambient dimensions differ")
    n = lattice_basis.ncols
    coords = solve_linear(lattice_basis, subspace_basis)
    if coords is None:
        raise NotASubspace("subspace is not inside the lattice span")
    if (lattice_basis @ coords) != subspace_basis:
        raise NotASubspace("subspace is not inside the lattice span")
    # subspace basis in lattice coordinates, one reduced echelon row each
    pivots, free, rest, _ = _echelon(coords.transpose(), reduce_up=True)
    if not pivots:
        return Matrix.zeros(QQ, lattice_basis.nrows, 0)
    rows = [[Fraction(0)] * n for _ in pivots]
    for row, c, vals in zip(rows, pivots, rest):
        row[c] = Fraction(1)
        for f, v in zip(free, vals):
            row[f] = v

    def normalize(row: list[Fraction]) -> list[Fraction]:
        v = min(pvaluation(x, p) for x in row if x != 0)
        f = Fraction(p) ** (-v)
        return [x * f for x in row]

    rows = [normalize(r) for r in rows]
    # repeatedly divide p out of a dependency among the rows mod p until
    # they are independent mod p; each step enlarges the span inside the
    # saturation
    fp = PrimeField(p)
    while True:
        red = Matrix.from_rows(QQ, rows).map_to_ring(fp)
        if rank(red) == len(rows):
            break
        c = kernel(red.transpose()).col(0)
        idx = next(i for i, ci in enumerate(c) if ci)
        w = [sum(ci * r[j] for ci, r in zip(c, rows)) for j in range(n)]
        rows[idx] = normalize([x / p for x in w])
    basis_cols = Matrix.from_rows(QQ, rows).transpose()
    return lattice_basis @ basis_cols
