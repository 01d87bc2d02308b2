"""Lie algebra cohomology in adjoint-type coefficients, degrees 0 to 3,
and the square-zero lifting of automorphisms that it powers.

Cochain spaces are flattened: a 1-cochain f sits at index a*dim + i for
the coefficient of basis vector a in f(e_i); 2- and 3-cochains use the
lexicographic index of the argument pair or triple in the same way.

The differentials are sparse {(row, col): raw} maps with the zeros
dropped.  d0 and d1 come from `liealg._adjoint_complex`, the one builder
that also gives the centre and the derivations and checks d1∘d0 = 0 (the
Jacobi identity, or the twist being an automorphism).  Only d2 is built
here, for dim <= 20, from the same action entries; d2∘d1 = 0 is checked
on the sparse entries, and `ce_complex` then densifies each map in one
step.

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

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional, Sequence, Union

from .liealg import (LieAlgebra, NotAutomorphism, NotPerfect, _adjoint_complex,
                     _bracket_defect, _dense, _nonzero_product, _summed,
                     base_change, is_lie_automorphism, is_perfect, killing_form)
from .matrices import Matrix, inverse, kernel, pivots, rank, solve_linear
from .rings import PrimeField, RingSpec, UnsupportedRing


class DimensionTooLarge(Exception):
    pass


class NotACocycle(Exception):
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


def _sparse_complex(g: LieAlgebra, twist: Optional[Matrix]):
    """(pairs, triples, d0, d1, d2) with each differential a sparse map
    {(row, col): raw} without zeros; the action of x is bracketing with
    twist(x).  d0 and d1 come from `liealg._adjoint_complex`, which checks
    d1∘d0 = 0; raises AssertionError unless d2∘d1 = 0.
    """
    ring = g.ring
    if not ring.is_field:
        raise UnsupportedRing("cochain complexes need a field, got %r" % (ring,))
    n = g.dim
    if n > 20:
        raise DimensionTooLarge("dim %d exceeds the supported bound 20" % n)
    pairs, acts, d0, d1 = _adjoint_complex(g, twist)
    triples = tuple(combinations(range(n), 3))
    pidx = {pr: q for q, pr in enumerate(pairs)}
    np_, nt = len(pairs), len(triples)
    neg = ring.neg

    def d2_terms():
        for tq, (i, j, k) in enumerate(triples):
            for act, pr, sign in ((acts[i], (j, k), 1), (acts[j], (i, k), -1),
                                  (acts[k], (i, j), 1)):
                col = pidx[pr]
                for a, b, v in act:
                    yield (a * nt + tq, b * np_ + col), v if sign > 0 else neg(v)
            for sign, pr, m in ((-1, (i, j), k), (1, (i, k), j), (-1, (j, k), i)):
                for l, c in g.bracket_basis(*pr):
                    if l == m:
                        continue
                    # f(b_l, b_m) = -f(b_m, b_l): the stored pair is ordered
                    col = pidx[(l, m)] if l < m else pidx[(m, l)]
                    v = c if (sign > 0) == (l < m) else neg(c)
                    for a in range(n):
                        yield (a * nt + tq, a * np_ + col), v

    d2 = _summed(ring, d2_terms())
    bad = _nonzero_product(ring, d2.items(), d1)
    if bad:
        raise AssertionError("d2∘d1 is nonzero at %s" % (min(bad),))
    return pairs, triples, d0, d1, d2


def ce_complex(g: LieAlgebra, twist: Optional[Matrix] = None) -> CochainComplex:
    """Differentials d0, d1, d2 of the coefficient module g, the action of
    x being bracketing with twist(x).  Exact over the base field; the two
    compositions are checked to vanish on construction.
    """
    pairs, triples, d0, d1, d2 = _sparse_complex(g, twist)
    ring, n = g.ring, g.dim
    return CochainComplex(g, twist, pairs, triples,
                          _dense(ring, n, d0, n * n),
                          _dense(ring, n * n, d1, n * len(pairs)),
                          _dense(ring, n * len(pairs), d2, n * len(triples)))


@lru_cache(maxsize=None)
def _untwisted_complex(ring: RingSpec, dim: int, table: tuple):
    """(d1 dense, kernel(d1), d2 as a tuple of ((row, col), raw)) of the
    untwisted complex of the algebra with this sorted bracket table."""
    g = LieAlgebra(ring, dim, dict(table), check=False)
    pairs, _, _, d1, d2 = _sparse_complex(g, None)
    d1 = _dense(ring, dim * dim, d1, dim * len(pairs))
    return d1, kernel(d1), tuple(d2.items())


def cohomology_dim(cx: CochainComplex, degree: int) -> int:
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
    (`liealg._bracket_defect`, as in `is_lie_automorphism`) lies in J and
    is a 2-cocycle for the action twisted by sigma_bar; its primitive
    corrects the lift, and the result is re-verified exactly.

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

    np_ = n * (n - 1) // 2
    theta = [quot.zero()] * (n * np_)
    for q, defect in _bracket_defect(gt, sigma0):
        for a, d in defect.items():
            if not quot.is_zero(ext.reduce_raw(d)):
                raise AssertionError("the naive lift is not an automorphism "
                                     "modulo J")
            theta[a * np_ + q] = ext.j_extract(d)

    # d2_σ·theta = (σ⊗I)·d2·theta_u, so the cocycle check runs untwisted
    theta_u = _transport(inverse(sigma_bar), Matrix.column(quot, theta))
    column = {(c, 0): t for c, t in enumerate(theta_u.data) if not quot.is_zero(t)}
    if _nonzero_product(quot, d2, column):
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
