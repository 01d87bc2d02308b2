"""Structure-constant Lie algebras over any coefficient ring.

Brackets, adjoint maps, Killing and trace forms, perfectness, derivations,
the Casimir tensor and operator, base change, automorphism checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import (
    DimensionMismatch,
    Matrix,
    Singular,
    det,
    inverse,
    kernel,
    rank,
    solve_linear,
)
from .rings import RingMismatch, RingSpec, Scalar, UnsupportedRing, ZZ, convert_raw


class NotPerfect(Exception):
    pass


class LieAlgebra:
    """Free module of finite rank with a sparse bracket table.

    table maps (i, j) with i < j to ((k, c), ...) meaning
    [b_i, b_j] = sum_k c * b_k; antisymmetry is implicit in the storage.
    Jacobi is re-verified on construction for dim <= 20 unless the table
    comes from an already-verified source (check=False).
    """

    def __init__(self, ring: RingSpec, dim: int, table: dict,
                 dynkin=None, check=None):
        self.ring = ring
        self.dim = dim
        self.table = {}
        for (i, j), terms in table.items():
            if not (0 <= i < j < dim):
                raise DimensionMismatch("bad pair (%d, %d)" % (i, j))
            kept = tuple((k, c) for k, c in terms if not ring.is_zero(c))
            if kept:
                self.table[(i, j)] = kept
        self.dynkin = dynkin
        self._tensor = None
        if check is None:
            check = dim <= 20
        if check:
            self._check_jacobi()

    # -- bracket -----------------------------------------------------------
    def bracket_basis(self, i: int, j: int) -> tuple:
        if i == j:
            return ()
        if i < j:
            return self.table.get((i, j), ())
        return tuple((k, self.ring.neg(c)) for k, c in self.table.get((j, i), ()))

    def bracket_vectors(self, u, v) -> tuple:
        ring = self.ring
        uu = self._raws(u)
        vv = self._raws(v)
        out = [ring.zero()] * self.dim
        for (i, j), terms in self.table.items():
            coef = ring.sub(ring.mul(uu[i], vv[j]), ring.mul(uu[j], vv[i]))
            if ring.is_zero(coef):
                continue
            for k, c in terms:
                out[k] = ring.add(out[k], ring.mul(coef, c))
        return tuple(out)

    def _raws(self, v) -> list:
        ring = self.ring
        vals = [x.value if isinstance(x, Scalar) else ring.coerce(x) for x in v]
        if len(vals) != self.dim:
            raise DimensionMismatch("vector length %d, dim %d" % (len(vals), self.dim))
        return vals

    def ad_matrix(self, v) -> Matrix:
        ring = self.ring
        vals = self._raws(v)
        rows = [[ring.zero()] * self.dim for _ in range(self.dim)]
        for (i, j), terms in self.table.items():
            vi, vj = vals[i], vals[j]
            if not ring.is_zero(vi):
                for k, c in terms:
                    rows[k][j] = ring.add(rows[k][j], ring.mul(vi, c))
            if not ring.is_zero(vj):
                for k, c in terms:
                    rows[k][i] = ring.sub(rows[k][i], ring.mul(vj, c))
        return Matrix(ring, self.dim, self.dim,
                      tuple(v for row in rows for v in row))

    def basis_vector(self, i: int) -> tuple:
        z, o = self.ring.zero(), self.ring.one()
        return tuple(o if j == i else z for j in range(self.dim))

    # -- integer carriers --------------------------------------------------
    def dense_tensor(self) -> np.ndarray:
        """T[i,j,k] with [b_i,b_j] = sum T[i,j,k] b_k, int64 residues."""
        if self._tensor is None:
            if self.ring.kind not in ("integers", "prime_field"):
                raise UnsupportedRing("dense tensor needs integer-like entries")
            t = np.zeros((self.dim,) * 3, dtype=np.int64)
            for (i, j), terms in self.table.items():
                for k, c in terms:
                    t[i, j, k] = int(c)
                    t[j, i, k] = -int(c)
            self._tensor = t
        return self._tensor

    def ad_stack(self) -> np.ndarray:
        """A[i] = matrix of ad(b_i) (int64); A[i][m,k] = T[i,k,m]."""
        return self.dense_tensor().transpose(0, 2, 1)

    # -- validation --------------------------------------------------------
    def _bracket_dictvec(self, i: int, vec: dict) -> dict:
        ring = self.ring
        out: dict = {}
        for j, cj in vec.items():
            for k, c in self.bracket_basis(i, j):
                nv = ring.add(out.get(k, ring.zero()), ring.mul(cj, c))
                if ring.is_zero(nv):
                    out.pop(k, None)
                else:
                    out[k] = nv
        return out

    def _check_jacobi(self):
        ring = self.ring
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                bij = dict(self.bracket_basis(i, j))
                for k in range(j + 1, self.dim):
                    acc = self._bracket_dictvec(i, dict(self.bracket_basis(j, k)))
                    for m, c in self._bracket_dictvec(j, dict(self.bracket_basis(i, k))).items():
                        nv = ring.sub(acc.get(m, ring.zero()), c)
                        if ring.is_zero(nv):
                            acc.pop(m, None)
                        else:
                            acc[m] = nv
                    for m, c in self._bracket_dictvec(k, bij).items():
                        nv = ring.add(acc.get(m, ring.zero()), c)
                        if ring.is_zero(nv):
                            acc.pop(m, None)
                        else:
                            acc[m] = nv
                    if acc:
                        raise ValueError("Jacobi fails on triple (%d,%d,%d)"
                                         % (i, j, k))


@dataclass(frozen=True)
class BilinearForm:
    algebra: LieAlgebra
    gram: Matrix

    def __post_init__(self):
        assert self.gram.nrows == self.gram.ncols == self.algebra.dim
        assert self.gram.data == self.gram.transpose().data


@dataclass(frozen=True)
class CasimirTensor:
    """Omega = sum C[i,j] b_i (x) b_j with C the inverse Killing Gram."""
    algebra: LieAlgebra
    coefficients: Matrix


def killing_form(g: LieAlgebra) -> BilinearForm:
    """Gram[i][j] = trace(ad(b_i) ad(b_j)), by sparse index contraction."""
    ring = g.ring
    dim = g.dim
    if ring.kind in ("integers", "prime_field"):
        entries = []
        for (i, j), terms in g.table.items():
            for k, c in terms:
                entries.append((i, j, k, int(c)))
                entries.append((j, i, k, -int(c)))
        paired: dict = {}
        for a, b, kk, c in entries:
            paired.setdefault((b, kk), []).append((a, c))
        gram = [[0] * dim for _ in range(dim)]
        for a, b, kk, c in entries:
            for j, c2 in paired.get((kk, b), ()):
                gram[a][j] += c * c2
        if ring.kind == "prime_field":
            p = ring.p
            gram = [[v % p for v in row] for row in gram]
        return BilinearForm(g, Matrix.from_rows(ring, gram))
    ads = [g.ad_matrix(g.basis_vector(i)) for i in range(dim)]
    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            acc = ring.zero()
            for a in range(dim):
                for b in range(dim):
                    acc = ring.add(acc, ring.mul(ads[i].raw(a, b),
                                                 ads[j].raw(b, a)))
            row.append(acc)
        rows.append(row)
    return BilinearForm(g, Matrix.from_rows(ring, rows))


def trace_form(realization, ring: RingSpec) -> BilinearForm:
    """Gram[i][j] = trace(M_i M_j) for a matrix realization, over ring."""
    stack = realization.stack_numpy()
    gram_int = np.einsum('aij,bji->ab', stack, stack)
    alg = realization.presentation.to_lie_algebra(ring)
    gram = Matrix.from_numpy(ZZ, gram_int).map_to_ring(ring)
    return BilinearForm(alg, gram)


def is_perfect(f: BilinearForm) -> bool:
    """True iff the Gram determinant is a unit of the coefficient ring."""
    ring = f.gram.ring
    if ring.kind in ("prime_field", "rationals"):
        return rank(f.gram) == f.gram.nrows
    return ring.is_unit(det(f.gram))


def form_kernel(f: BilinearForm) -> Matrix:
    """Columns spanning the radical; empty iff the form is perfect."""
    if not f.gram.ring.is_field:
        raise UnsupportedRing("form kernel needs a field-kind ring")
    return kernel(f.gram)


def center_basis(g: LieAlgebra) -> Matrix:
    """Kernel of v -> ad(v), as columns."""
    if not g.ring.is_field:
        raise UnsupportedRing("center computation needs a field-kind ring")
    cols = []
    for i in range(g.dim):
        cols.append(g.ad_matrix(g.basis_vector(i)).data)
    stacked = Matrix(g.ring, g.dim * g.dim, g.dim,
                     tuple(cols[i][r] for r in range(g.dim * g.dim)
                           for i in range(g.dim)))
    return kernel(stacked)


def derivation_algebra(g: LieAlgebra) -> Matrix:
    """Basis of {D : D[x,y] = [Dx,y] + [x,Dy]} as columns in dim^2-space.

    Unknown D is flattened row-major: slot m*dim + k is the (m, k) entry
    (m the output coordinate).
    """
    ring = g.ring
    if not ring.is_field:
        raise UnsupportedRing("derivations need a field-kind ring")
    dim = g.dim
    n2 = dim * dim
    if ring.kind == "prime_field" and ring.p < (1 << 21):
        t = g.dense_tensor()
        idx = np.arange(dim)
        blocks = []
        for i in range(dim):
            for j in range(i + 1, dim):
                eq = np.zeros((dim, dim, dim), dtype=np.int64)
                eq[idx, idx, :] = np.broadcast_to(t[i, j], (dim, dim))
                eq[:, :, i] -= t[:, j, :].T
                eq[:, :, j] -= t[i, :, :].T
                blocks.append(eq.reshape(dim, n2))
        m = Matrix.from_numpy(ring, np.vstack(blocks) % ring.p)
        return kernel(m)
    rows = []
    zero = ring.zero()
    for i in range(dim):
        for j in range(i + 1, dim):
            tij = dict(g.bracket_basis(i, j))
            for m in range(dim):
                row = [zero] * n2
                for k, c in tij.items():
                    row[m * dim + k] = ring.add(row[m * dim + k], c)
                for l in range(dim):
                    for k, c in g.bracket_basis(l, j):
                        if k == m:
                            row[l * dim + i] = ring.sub(row[l * dim + i], c)
                    for k, c in g.bracket_basis(i, l):
                        if k == m:
                            row[l * dim + j] = ring.sub(row[l * dim + j], c)
                rows.append(row)
    return kernel(Matrix.from_rows(ring, rows))


def casimir(g: LieAlgebra) -> CasimirTensor:
    kf = killing_form(g)
    if not is_perfect(kf):
        raise NotPerfect("Killing form is not perfect over %r" % (g.ring,))
    return CasimirTensor(g, inverse(kf.gram))


def casimir_operator(ct: CasimirTensor) -> Matrix:
    """sum C[i,j] ad(b_i) ad(b_j); the identity when the form is perfect."""
    g = ct.algebra
    ring = g.ring
    if ring.kind == "prime_field" and ring.p < (1 << 21):
        a = g.ad_stack()
        c = ct.coefficients.to_numpy()
        # reduce between the contractions: entries stay below dim^2 * p^2
        m = np.tensordot(c, a, axes=([0], [0])) % ring.p
        op = np.einsum('jab,jbc->ac', m, a) % ring.p
        return Matrix.from_numpy(ring, op)
    op = Matrix.zeros(ring, g.dim, g.dim)
    ads = [g.ad_matrix(g.basis_vector(i)) for i in range(g.dim)]
    for i in range(g.dim):
        for j in range(g.dim):
            cij = ct.coefficients.raw(i, j)
            if not ring.is_zero(cij):
                op = op + (ads[i] @ ads[j]).scale(cij)
    return op


def apply_endo_to_casimir(ct: CasimirTensor, s: Matrix) -> Matrix:
    """Pushforward s C s^T of the tensor; equals C for automorphisms."""
    ring = s.ring
    if ring.is_field:
        if rank(s) != s.nrows:
            raise Singular("endomorphism is not invertible")
    else:
        inverse(s)
    return s @ ct.coefficients @ s.transpose()


def base_change(g: LieAlgebra, target: RingSpec) -> LieAlgebra:
    src = g.ring
    table = {}
    for key, terms in g.table.items():
        mapped = tuple((k, convert_raw(c, src, target)) for k, c in terms)
        table[key] = mapped
    return LieAlgebra(target, g.dim, table, dynkin=g.dynkin, check=False)


def is_lie_automorphism(g: LieAlgebra, s: Matrix) -> bool:
    """Invertible and bracket-preserving on all basis pairs."""
    ring = g.ring
    if s.ring != ring:
        raise RingMismatch("%r vs %r" % (s.ring, ring))
    if s.nrows != g.dim or s.ncols != g.dim:
        raise DimensionMismatch("endomorphism shape %dx%d on dim %d"
                                % (s.nrows, s.ncols, g.dim))
    if ring.is_field:
        if rank(s) != g.dim:
            return False
    elif not ring.is_unit(det(s)):
        return False
    if ring.kind == "prime_field" and ring.p < (1 << 21):
        t = g.dense_tensor()
        sm = s.to_numpy()
        p = ring.p
        lhs = np.tensordot(t, sm, axes=([2], [1])) % p     # [i,j,m]
        r1 = np.tensordot(sm, t, axes=([0], [0])) % p      # [i,b,k]
        rhs = np.tensordot(sm, r1, axes=([0], [1])) % p    # [j,i,k]
        return bool(np.array_equal(lhs, rhs.transpose(1, 0, 2) % p))
    cols = [s.col(j) for j in range(g.dim)]
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            image = [ring.zero()] * g.dim
            for k, c in g.bracket_basis(i, j):
                for a in range(g.dim):
                    image[a] = ring.add(image[a], ring.mul(c, cols[k][a]))
            if tuple(image) != g.bracket_vectors(cols[i], cols[j]):
                return False
    return True
