"""Structure-constant Lie algebras over any coefficient ring.

Brackets, adjoint maps, Killing and trace forms, perfectness, derivations,
the Casimir tensor and operator, base change, automorphism checks.

`_adjoint_complex` builds d0 and d1 of the Chevalley–Eilenberg complex of
g with coefficients in g, once, as sparse maps over any ring and with no
dimension cap.  The centre is ker d0, the derivations are ker d1, and
d1∘d0 = 0 is the Jacobi identity that the constructor checks;
`cohomology` builds d2 on top.  `ad_matrix` and `casimir_operator` read
the same sparse ad entries.  `_bracket_defect` is the one bracket defect
[s x, s y] - s[x, y] on basis pairs: `is_lie_automorphism` tests it for
zero, and it is the obstruction cocycle of `cohomology.lift_automorphism`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .matrices import (
    DimensionMismatch,
    Matrix,
    Singular,
    det,
    inverse,
    kernel,
    rank,
)
from .rings import RingMismatch, RingSpec, Scalar, UnsupportedRing, ZZ, convert_raw


class NotPerfect(Exception):
    pass


class NotAutomorphism(Exception):
    pass


class LieAlgebra:
    """Free module of finite rank with a sparse bracket table.

    table maps (i, j) with i < j to ((k, c), ...) meaning
    [b_i, b_j] = sum_k c * b_k (repeated k are summed); antisymmetry is
    implicit in the storage.  Jacobi is verified on construction, in any
    dimension, as d1∘d0 = 0 of the adjoint complex, unless the table comes
    from an already-verified source (check=False); a failure is a
    ValueError naming the first failing triple.

    Every invariant (Killing form, derivations, Casimir operator,
    automorphism check) is computed from this sparse table with the
    ring's own arithmetic, by one code path for every ring.
    """

    def __init__(self, ring: RingSpec, dim: int, table: dict,
                 dynkin=None, check: bool = True):
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
        ring, n = self.ring, self.dim
        vals = self._raws(v)
        return _dense(ring, n, _summed(ring, (((a, b), ring.mul(vals[i], c))
                                             for i, a, b, c in _ad_entries(self)
                                             if not ring.is_zero(vals[i]))), n)

    def basis_vector(self, i: int) -> tuple:
        z, o = self.ring.zero(), self.ring.one()
        return tuple(o if j == i else z for j in range(self.dim))

    # -- validation --------------------------------------------------------
    def _check_jacobi(self):
        """Raise ValueError naming the first failing triple (i, j, k)."""
        _adjoint_complex(self)


@dataclass(frozen=True)
class BilinearForm:
    algebra: LieAlgebra
    gram: Matrix

    def __post_init__(self):
        if not self.gram.nrows == self.gram.ncols == self.algebra.dim:
            raise AssertionError("Gram matrix is not dim x dim")
        if self.gram.data != self.gram.transpose().data:
            raise AssertionError("Gram matrix is not symmetric")


@dataclass(frozen=True)
class CasimirTensor:
    """Omega = sum C[i,j] b_i (x) b_j with C the inverse Killing Gram."""
    algebra: LieAlgebra
    coefficients: Matrix


def _ad_entries(g: LieAlgebra) -> list:
    """Every nonzero entry ad(b_i)[a, b] = v of the adjoint maps, as
    (i, a, b, v), read off the bracket table."""
    neg = g.ring.neg
    out = []
    for (i, j), terms in g.table.items():
        for k, c in terms:
            out.append((i, k, j, c))
            out.append((j, k, i, neg(c)))
    return out


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


def _adjoint_complex(g: LieAlgebra, twist: Optional[Matrix] = None) -> tuple:
    """(pairs, acts, d0, d1) of the Chevalley–Eilenberg complex of g with
    coefficients in g, x acting by bracketing with twist(x), over any ring
    and in any dimension.  acts[i] lists the nonzero entries (a, b, v) of
    the action of b_i; d0 and d1 are sparse maps {(row, col): raw}.  A
    1-cochain f sits at a*dim + i for the coefficient of b_a in f(b_i), a
    2-cochain at a*len(pairs) + q for the pair q = (i, j), i < j.

    (d1 d0 m)(x, y) = [x,[y,m]] - [y,[x,m]] - [[x,y],m]: a nonzero d1∘d0
    raises ValueError naming the first triple that breaks Jacobi, or, when
    twisted, NotAutomorphism naming the first failing (x, y, m), x < y.
    """
    ring, n, twisted = g.ring, g.dim, twist is not None
    mul, neg = ring.mul, ring.neg
    if twisted and (twist.nrows, twist.ncols) != (n, n):
        raise ValueError("twist must be a dim x dim matrix")
    # ad(twist b_i) = sum_k twist[k, i] ad(b_k)
    weights = [[(i, s) for i, s in enumerate(g._raws(twist.row(k)))
                if not ring.is_zero(s)] if twisted else [(k, ring.one())]
               for k in range(n)]
    entries = _summed(ring, (((i, a, b), mul(s, v))
                             for k, a, b, v in _ad_entries(g) for i, s in weights[k]))
    acts: list = [[] for _ in range(n)]
    for (i, a, b), v in entries.items():
        acts[i].append((a, b, v))
    pairs = tuple(combinations(range(n), 2))
    np_ = len(pairs)
    d0 = {(a * n + i, b): v for i in range(n) for a, b, v in acts[i]}

    def d1_terms():
        for q, (i, j) in enumerate(pairs):
            for a, b, v in acts[i]:
                yield (a * np_ + q, b * n + j), v
            for a, b, v in acts[j]:
                yield (a * np_ + q, b * n + i), neg(v)
            for k, c in g.table.get((i, j), ()):
                for a in range(n):
                    yield (a * np_ + q, a * n + k), neg(c)

    d1 = _summed(ring, d1_terms())
    bad = _nonzero_product(ring, d1.items(), d0)
    if bad:
        witnesses = [pairs[r % np_] + (m,) for r, m in bad]    # (x, y, m)
        if twisted:
            raise NotAutomorphism("the twist is not an automorphism: d1∘d0 is "
                                  "nonzero at (x, y, m) = (%d,%d,%d)" % min(witnesses))
        # J(x, y, m) is alternating, so the failing triple is sorted(x, y, m)
        raise ValueError("Jacobi fails on triple (%d,%d,%d)"
                         % min(tuple(sorted(w)) for w in witnesses))
    return pairs, acts, d0, d1


def _dense(ring: RingSpec, ncols: int, entries: dict, nrows=None) -> Matrix:
    """A sparse map {(row, col): raw} as a Matrix; without nrows, only its
    nonempty rows, in order (the kernel is the same)."""
    rows = range(nrows) if nrows is not None else sorted({r for r, _ in entries})
    at = {r: t for t, r in enumerate(rows)}
    flat = [ring.zero()] * (len(rows) * ncols)
    for (r, c), v in entries.items():
        flat[at[r] * ncols + c] = v
    return Matrix(ring, len(rows), ncols, tuple(flat))


def killing_form(g: LieAlgebra) -> BilinearForm:
    """Gram[i][j] = trace(ad(b_i) ad(b_j)), by sparse index contraction:
    each entry ad(b_i)[a, b] meets the entries ad(b_j)[b, a]."""
    ring = g.ring
    add, mul, n = ring.add, ring.mul, g.dim
    entries = _ad_entries(g)
    at: dict = {}
    for j, a, b, w in entries:
        at.setdefault((a, b), []).append((j, w))
    gram = [ring.zero()] * (n * n)
    for i, a, b, v in entries:
        for j, w in at.get((b, a), ()):
            gram[i * n + j] = add(gram[i * n + j], mul(v, w))
    return BilinearForm(g, Matrix(ring, n, n, tuple(gram)))


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
    """The centre, H^0 = ker d0 of the adjoint complex, as columns."""
    if not g.ring.is_field:
        raise UnsupportedRing("center computation needs a field-kind ring")
    return kernel(_dense(g.ring, g.dim, _adjoint_complex(g)[2]))


def derivation_algebra(g: LieAlgebra) -> Matrix:
    """Basis of {D : D[x,y] = [Dx,y] + [x,Dy]} as columns in dim^2-space:
    Z^1 = ker d1 of the adjoint complex.  Slot m*dim + k holds D[m, k]."""
    if not g.ring.is_field:
        raise UnsupportedRing("derivations need a field-kind ring")
    return kernel(_dense(g.ring, g.dim * g.dim, _adjoint_complex(g)[3]))


def casimir(g: LieAlgebra) -> CasimirTensor:
    kf = killing_form(g)
    if not is_perfect(kf):
        raise NotPerfect("Killing form is not perfect over %r" % (g.ring,))
    return CasimirTensor(g, inverse(kf.gram))


def casimir_operator(ct: CasimirTensor) -> Matrix:
    """sum C[i,j] ad(b_i) ad(b_j); the identity when the form is perfect.

    One sparse product on the shared index (j, b): ad(b_i)[a, b] weighted
    by each nonzero C[i, j] meets the entries ad(b_j)[b, c].
    """
    g = ct.algebra
    ring, n = g.ring, g.dim
    entries = _ad_entries(g)
    partners = [[(j, cij) for j, cij in enumerate(ct.coefficients.row(i))
                 if not ring.is_zero(cij)] for i in range(n)]
    left = (((a, (j, b)), ring.mul(cij, v))
            for i, a, b, v in entries for j, cij in partners[i])
    right = _summed(ring, ((((j, b), c), w) for j, b, c, w in entries))
    return _dense(ring, n, _nonzero_product(ring, left, right), n)


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


def _bracket_defect(g: LieAlgebra, s: Matrix):
    """Yield q and the nonzero entries {a: raw} of [s b_i, s b_j] - s[b_i, b_j]
    for each pair q = (i, j), i < j, in `combinations` order.  The bracket
    is summed over the supports of columns i and j of s: cheap for a
    monomial s (torus elements, triple flips), about dim^4 ring operations
    for a dense s.
    """
    ring = g.ring
    add, sub, mul, zero = ring.add, ring.sub, ring.mul, ring.zero()
    cols = [[(a, v) for a, v in enumerate(s.col(j)) if not ring.is_zero(v)]
            for j in range(g.dim)]
    for q, (i, j) in enumerate(combinations(range(g.dim), 2)):
        d: dict = {}
        for a, x in cols[i]:
            for b, y in cols[j]:
                xy = mul(x, y)
                for k, c in g.bracket_basis(a, b):
                    d[k] = add(d.get(k, zero), mul(xy, c))
        for k, c in g.table.get((i, j), ()):
            for a, v in cols[k]:
                d[a] = sub(d.get(a, zero), mul(c, v))
        yield q, {a: v for a, v in d.items() if not ring.is_zero(v)}


def is_lie_automorphism(g: LieAlgebra, s: Matrix) -> bool:
    """Invertible and bracket-preserving on all basis pairs: every
    `_bracket_defect` is zero.  Stops at the first failing pair."""
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
    return not any(d for _, d in _bracket_defect(g, s))
