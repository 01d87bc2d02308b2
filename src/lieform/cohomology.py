"""Lie algebra cohomology in adjoint-type coefficients, degrees 0 to 3,
and the square-zero lifting of automorphisms that it powers.

Cochain spaces are flattened: a 1-cochain f sits at index a*dim + i for
the coefficient of basis vector a in f(e_i); 2- and 3-cochains use the
lexicographic index of the argument pair or triple in the same way.

The differentials are built sparsely, as {(row, col): raw} maps with the
zeros dropped, from the bracket table and the matrices by which the basis
acts on the coefficients.  d1∘d0 = 0 and d2∘d1 = 0 are checked on those
sparse entries; `ce_complex` then densifies each map in one step.

The action on coefficients may be twisted through an automorphism σ,
x·m = [σx, m], which is what the obstruction calculus for lifting needs.
Since ad(σx) = σ ad(x) σ⁻¹, twisting is a conjugation:
d_σ = (σ⊗I)·d·(σ⁻¹⊗I), where σ⊗I acts on the coefficient index a of a
cochain index a*m + q.  `lift_automorphism` therefore never builds a
twisted complex.  It works against the untwisted dense d1, kernel(d1) and
sparse d2, which are built once per (quotient field, dim, bracket table)
and kept in an `lru_cache`, and transports its data through σ⊗I.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional, Sequence, Union

from .liealg import (LieAlgebra, NotPerfect, base_change, is_lie_automorphism,
                     is_perfect, killing_form)
from .matrices import Matrix, inverse, kernel, pivots, solve_linear
from .rings import PrimeField, RingSpec, UnsupportedRing


class DimensionTooLarge(Exception):
    pass


class NotACocycle(Exception):
    pass


class NotAutomorphism(Exception):
    pass


@dataclass(frozen=True)
class CochainComplex:
    algebra: LieAlgebra
    twist: Optional[Matrix]
    pairs: tuple
    triples: tuple
    d0: Matrix
    d1: Matrix
    d2: Matrix

    def cochain_dim(self, degree: int) -> int:
        n = self.algebra.dim
        return (n, n * n, n * len(self.pairs), n * len(self.triples))[degree]


def _composes_to_zero(ring: RingSpec, left: dict, right: dict) -> bool:
    """Whether the sparse product left·right vanishes."""
    add, mul, zero = ring.add, ring.mul, ring.zero()
    by_row = defaultdict(list)
    for (m, c), w in right.items():
        by_row[m].append((c, w))
    prod: dict = {}
    for (r, m), v in left.items():
        for c, w in by_row.get(m, ()):
            prod[(r, c)] = add(prod.get((r, c), zero), mul(v, w))
    return all(ring.is_zero(v) for v in prod.values())


def _sparse_complex(g: LieAlgebra, twist: Optional[Matrix]):
    """(pairs, triples, d0, d1, d2) with each differential a sparse map
    {(row, col): raw} without zeros; the action of x is bracketing with
    twist(x).  Raises AssertionError unless d1∘d0 = 0 and d2∘d1 = 0.
    """
    ring = g.ring
    if not ring.is_field:
        raise UnsupportedRing("cochain complexes need a field, got %r" % (ring,))
    n = g.dim
    if n > 20:
        raise DimensionTooLarge("dim %d exceeds the supported bound 20" % n)
    if twist is not None and (twist.nrows, twist.ncols) != (n, n):
        raise ValueError("twist must be a dim x dim matrix")

    pairs = tuple(combinations(range(n), 2))
    triples = tuple(combinations(range(n), 3))
    pidx = {pr: q for q, pr in enumerate(pairs)}
    np_, nt = len(pairs), len(triples)
    add, neg, zero = ring.add, ring.neg, ring.zero()

    acts = []                       # nonzero entries (a, b, v) of each action
    for i in range(n):
        m = g.ad_matrix(twist.col(i) if twist is not None else g.basis_vector(i))
        acts.append([(a, b, m.raw(a, b)) for a in range(n) for b in range(n)
                     if not ring.is_zero(m.raw(a, b))])

    def put(d, key, v):
        d[key] = add(d.get(key, zero), v)

    d0 = {(a * n + i, b): v for i in range(n) for a, b, v in acts[i]}

    d1: dict = {}
    for q, (i, j) in enumerate(pairs):
        for a, b, v in acts[i]:
            put(d1, (a * np_ + q, b * n + j), v)
        for a, b, v in acts[j]:
            put(d1, (a * np_ + q, b * n + i), neg(v))
        for k, c in g.bracket_basis(i, j):
            for a in range(n):
                put(d1, (a * np_ + q, a * n + k), neg(c))

    d2: dict = {}
    for tq, (i, j, k) in enumerate(triples):
        for act, pr, sign in ((acts[i], (j, k), 1), (acts[j], (i, k), -1),
                              (acts[k], (i, j), 1)):
            col = pidx[pr]
            for a, b, v in act:
                put(d2, (a * nt + tq, b * np_ + col), v if sign > 0 else neg(v))
        for sign, pr, m in ((-1, (i, j), k), (1, (i, k), j), (-1, (j, k), i)):
            for l, c in g.bracket_basis(*pr):
                if l == m:
                    continue
                # f(b_l, b_m) = -f(b_m, b_l): the stored pair is ordered
                col = pidx[(l, m)] if l < m else pidx[(m, l)]
                v = c if (sign > 0) == (l < m) else neg(c)
                for a in range(n):
                    put(d2, (a * nt + tq, a * np_ + col), v)

    d1 = {key: v for key, v in d1.items() if not ring.is_zero(v)}
    d2 = {key: v for key, v in d2.items() if not ring.is_zero(v)}
    if not _composes_to_zero(ring, d1, d0):
        raise AssertionError("d1∘d0 is nonzero")
    if not _composes_to_zero(ring, d2, d1):
        raise AssertionError("d2∘d1 is nonzero")
    return pairs, triples, d0, d1, d2


def _dense(ring: RingSpec, nrows: int, ncols: int, entries: dict) -> Matrix:
    flat = [ring.zero()] * (nrows * ncols)
    for (r, c), v in entries.items():
        flat[r * ncols + c] = v
    return Matrix(ring, nrows, ncols, tuple(flat))


def ce_complex(g: LieAlgebra, twist: Optional[Matrix] = None) -> CochainComplex:
    """Differentials d0, d1, d2 of the coefficient module g, the action of
    x being bracketing with twist(x).  Exact over the base field; the two
    compositions are checked to vanish on construction.
    """
    pairs, triples, d0, d1, d2 = _sparse_complex(g, twist)
    ring, n = g.ring, g.dim
    return CochainComplex(g, twist, pairs, triples,
                          _dense(ring, n * n, n, d0),
                          _dense(ring, n * len(pairs), n * n, d1),
                          _dense(ring, n * len(triples), n * len(pairs), d2))


@lru_cache(maxsize=None)
def _untwisted_complex(ring: RingSpec, dim: int, table: tuple):
    """(d1 dense, kernel(d1), d2 as a tuple of ((row, col), raw)) of the
    untwisted complex of the algebra with this sorted bracket table."""
    g = LieAlgebra(ring, dim, dict(table), check=False)
    pairs, _, _, d1, d2 = _sparse_complex(g, None)
    d1 = _dense(ring, dim * len(pairs), dim * dim, d1)
    return d1, kernel(d1), tuple(d2.items())


def cohomology_dim(cx: CochainComplex, degree: int) -> int:
    from .matrices import rank
    if degree == 0:
        return cx.cochain_dim(0) - rank(cx.d0)
    if degree == 1:
        return (cx.cochain_dim(1) - rank(cx.d1)) - rank(cx.d0)
    if degree == 2:
        return (cx.cochain_dim(2) - rank(cx.d2)) - rank(cx.d1)
    raise ValueError("degree must be 0, 1 or 2")


def _as_column(cx: CochainComplex, theta: Union[Matrix, Sequence], degree: int) -> Matrix:
    want = cx.cochain_dim(degree)
    if isinstance(theta, Matrix):
        if (theta.nrows, theta.ncols) != (want, 1):
            raise ValueError("expected a %d x 1 column" % want)
        return theta
    if len(theta) != want:
        raise ValueError("expected %d cochain coordinates" % want)
    return Matrix.column(cx.algebra.ring, list(theta))


def solve_coboundary(cx: CochainComplex, theta: Union[Matrix, Sequence]) -> Optional[Matrix]:
    """A 1-cochain delta with d1(delta) = theta, or None if none exists.

    Free coordinates pivot to zero, so the answer is deterministic; the
    zero cocycle always comes back as the zero cochain.
    """
    col = _as_column(cx, theta, 2)
    if not (cx.d2 @ col).is_zero():
        raise NotACocycle("d2 of the given 2-cochain is nonzero")
    return solve_linear(cx.d1, col)


# ---------------------------------------------------------------------------
# square-zero extensions and automorphism lifting

@dataclass(frozen=True)
class SquareZeroExtension:
    """A surjection of rings whose kernel J squares to zero, with a
    section on raw values and coordinates for J."""

    total_ring: RingSpec
    quotient_ring: RingSpec

    @property
    def _modsq(self) -> bool:
        return self.total_ring.kind == "integers_mod_pk"

    def reduce_raw(self, v):
        if self._modsq:
            return v % self.total_ring.p
        return v[0]

    def lift_raw(self, v):
        """Least non-negative representative section of the quotient."""
        if self._modsq:
            return v % (self.total_ring.p ** 2)
        return (v, self.quotient_ring.zero())

    def j_embed(self, u):
        if self._modsq:
            p = self.total_ring.p
            return (p * (u % p)) % (p * p)
        return (self.quotient_ring.zero(), u)

    def j_extract(self, v):
        if self._modsq:
            p = self.total_ring.p
            if v % p:
                raise ValueError("value not in the square-zero ideal")
            return (v // p) % p
        if not self.quotient_ring.is_zero(v[0]):
            raise ValueError("value not in the square-zero ideal")
        return v[1]


def square_zero_extension(total: RingSpec) -> SquareZeroExtension:
    if total.kind == "integers_mod_pk" and total.k == 2:
        return SquareZeroExtension(total, PrimeField(total.p))
    if total.kind == "dual_numbers":
        return SquareZeroExtension(total, total.base)
    raise UnsupportedRing(
        "square-zero extension needs Z/p^2 or dual numbers, got %r" % (total,))


def _transport(s: Matrix, v: Matrix) -> Matrix:
    """(s⊗I)·v: s acts on the coefficient index a of each row a*m + q."""
    n = s.nrows
    blocks = Matrix(v.ring, n, len(v.data) // n, v.data)
    return Matrix(v.ring, v.nrows, v.ncols, (s @ blocks).data)


def lift_automorphism(g: LieAlgebra, ext: SquareZeroExtension,
                      sigma_bar: Matrix) -> Matrix:
    """Lift an automorphism through the extension when the Killing form
    of the reduced algebra is perfect.

    The input algebra must live over the integers; it is reduced to both
    levels of the extension.  The defect theta of the naive entrywise lift
    is a 2-cocycle for the action twisted by sigma_bar; its primitive
    corrects the lift, and the result is re-verified exactly over the
    total ring.

    The primitive is the solution delta of d1_σ·delta = theta that is zero
    at the non-pivot columns F of d1_σ, found without building d1_σ: a
    solution is delta0 = (σ⊗I)·y with d1·y = (σ⁻¹⊗I)·theta, the kernel of
    d1_σ is K_σ = (σ⊗I)·kernel(d1), and c is a non-pivot column exactly
    when a kernel vector has its last nonzero entry at c.  So F is read
    from K_σ bottom up, and delta = delta0 - K_σ·x with K_σ[F]·x = delta0[F].
    """
    if g.ring.kind != "integers":
        raise UnsupportedRing("lifting starts from an integral table")
    gq = base_change(g, ext.quotient_ring)
    if sigma_bar.ring != ext.quotient_ring:
        raise NotAutomorphism("matrix is over %r, expected %r"
                              % (sigma_bar.ring, ext.quotient_ring))
    if not is_lie_automorphism(gq, sigma_bar):
        raise NotAutomorphism("the given matrix is not an automorphism "
                              "over the quotient field")
    if not is_perfect(killing_form(gq)):
        raise NotPerfect("Killing form is degenerate over the quotient; "
                         "the obstruction space need not vanish")

    total, quot = ext.total_ring, ext.quotient_ring
    n = g.dim
    d1, ker, d2 = _untwisted_complex(quot, n, tuple(sorted(gq.table.items())))
    gt = base_change(g, total)
    sigma0 = Matrix(total, n, n, tuple(ext.lift_raw(v) for v in sigma_bar.data))

    pairs = tuple(combinations(range(n), 2))
    np_ = len(pairs)
    theta = [quot.zero()] * (n * np_)
    for q, (i, j) in enumerate(pairs):
        w = gt.bracket_vectors(sigma0.col(i), sigma0.col(j))
        target = [total.zero()] * n
        for k, c in gt.bracket_basis(i, j):
            for a in range(n):
                target[a] = total.add(target[a], total.mul(sigma0.raw(a, k), c))
        for a in range(n):
            d = total.sub(w[a], target[a])
            if not quot.is_zero(ext.reduce_raw(d)):
                raise AssertionError("the naive lift is not an automorphism "
                                     "modulo J")
            theta[a * np_ + q] = ext.j_extract(d)

    # d2_σ·theta = (σ⊗I)·d2·theta_u, so the cocycle check runs untwisted
    theta_u = _transport(inverse(sigma_bar), Matrix.column(quot, theta))
    defect: dict = {}
    for (r, c), v in d2:
        t = theta_u.data[c]
        if not quot.is_zero(t):
            defect[r] = quot.add(defect.get(r, quot.zero()), quot.mul(v, t))
    if not all(quot.is_zero(v) for v in defect.values()):
        raise AssertionError("lift defect failed the cocycle identity")
    y = solve_linear(d1, theta_u)
    if y is None:
        raise AssertionError("no primitive despite a perfect Killing form")

    delta = _transport(sigma_bar, y)
    ker_s = _transport(sigma_bar, ker)
    last = ker_s.nrows - 1
    bottom_up = Matrix(quot, ker_s.ncols, ker_s.nrows,
                       tuple(ker_s.raw(last - r, t) for t in range(ker_s.ncols)
                             for r in range(ker_s.nrows)))
    free = [last - c for c in pivots(bottom_up)]
    x = solve_linear(Matrix.from_rows(quot, [ker_s.row(r) for r in free]),
                     Matrix.column(quot, [delta.data[r] for r in free]))
    if x is None:
        raise AssertionError("the kernel of d1_σ is singular on its "
                             "non-pivot columns")
    delta = delta - ker_s @ x

    lifted = tuple(
        total.sub(sigma0.raw(a, b), ext.j_embed(delta.raw(a * n + b, 0)))
        for a in range(n) for b in range(n))
    sigma = Matrix(total, n, n, lifted)

    if any(ext.reduce_raw(sigma.raw(a, b)) != sigma_bar.raw(a, b)
           for a in range(n) for b in range(n)):
        raise AssertionError("corrected lift does not reduce to sigma_bar")
    if not is_lie_automorphism(gt, sigma):
        raise AssertionError("corrected lift failed exact verification")
    return sigma
