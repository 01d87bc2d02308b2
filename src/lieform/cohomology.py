"""Lie algebra cohomology in adjoint-type coefficients, degrees 0 to 3,
and the square-zero lifting of automorphisms that it powers.

Cochain spaces are flattened: a 1-cochain f sits at index a*dim + i for
the coefficient of basis vector a in f(e_i); 2- and 3-cochains use the
lexicographic index of the argument pair or triple in the same way.

`CochainComplex` keeps d0, d1, d2 as sparse {(row, col): raw} maps with
the zeros dropped.  d0 and d1 come from `liealg._adjoint_complex`, the one
builder that also gives the centre and the derivations; only d2 is built
here, for dim <= 20, from the same action entries, and d2∘d1 = 0 is
checked on the sparse entries.  Untwisted, a Chevalley algebra's complex
is block diagonal by root-lattice degree: `cohomology_dim` sums block
ranks, and `solve_coboundary` tests d2 only on the columns where its
cochain is nonzero and solves only in the d1 blocks that it meets.  The
dense d0, d1, d2 are views, built only when read.

The action on coefficients may be twisted through an automorphism σ,
x·m = [σx, m], which is what the obstruction calculus for lifting needs.
Since ad(σx) = σ ad(x) σ⁻¹, twisting is a conjugation:
d_σ = (σ⊗I)·d·(σ⁻¹⊗I), where σ⊗I acts on the coefficient index a of a
cochain index a*m + q.  `lift_automorphism` therefore never builds a
twisted complex.  It calls `solve_coboundary` on the untwisted complex,
kept with kernel(d1) per (quotient field, dim, bracket table, `dynkin`
label) in an `lru_cache`, and transports its data through σ⊗I.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Optional, Sequence, Union

from .liealg import (LieAlgebra, NotAutomorphism, NotPerfect, _adjoint_complex,
                     _bracket_defect, _degree_blocks, _dense, _graded_kernel,
                     _nonzero_product, _slot_degrees, _summed, _weights,
                     base_change, is_lie_automorphism, is_perfect, killing_form)
from .matrices import Matrix, inverse, pivots, rank, solve_linear
from .rings import PrimeField, RingMismatch, RingSpec, UnsupportedRing


class DimensionTooLarge(Exception):
    pass


class NotACocycle(Exception):
    pass


@dataclass(frozen=True)
class CochainComplex:
    """d0, d1, d2 as sparse `maps` {(row, col): raw} without zeros, with
    the `degrees` of their columns.  The dense d0, d1, d2, the degree
    blocks and d2 by column are built on first use and kept."""

    algebra: LieAlgebra
    twist: Optional[Matrix]
    pairs: tuple
    triples: tuple
    maps: tuple = field(compare=False, repr=False)
    degrees: tuple = field(compare=False, repr=False)

    def cochain_dim(self, degree: int) -> int:
        n = self.algebra.dim
        return (n, n * n, n * len(self.pairs), n * len(self.triples))[degree]

    def _dense_view(self, k: int) -> Matrix:
        return _dense(self.algebra.ring, self.cochain_dim(k), self.maps[k],
                      range(self.cochain_dim(k + 1)))

    d0 = cached_property(lambda self: self._dense_view(0))
    d1 = cached_property(lambda self: self._dense_view(1))
    d2 = cached_property(lambda self: self._dense_view(2))

    @cached_property
    def _d2_columns(self) -> dict:
        out: dict = {}
        for (r, c), v in self.maps[2].items():
            out.setdefault(c, []).append((r, v))
        return out

    def _blocks(self, k: int) -> tuple:
        """`liealg._degree_blocks` of d_k: ({row: degree}, {degree: block})."""
        split = self.__dict__.setdefault("_split", {})
        if k not in split:
            split[k] = _degree_blocks(self.algebra.ring, self.degrees[k], self.maps[k])
        return split[k]


def _complex(g: LieAlgebra, twist: Optional[Matrix]) -> CochainComplex:
    """The complex behind `ce_complex`.  Untwisted, column degrees follow
    `liealg._weights`: wt(b) at column b of d0, `_slot_degrees` for d1,
    wt(a) - wt(i) - wt(j) at column (a, (i, j)) of d2.  A twisted complex
    is one block."""
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
    wt = _weights(g) if twist is None else [()] * n
    d2_degrees = [tuple(x - y - z for x, y, z in zip(wt[a], wt[i], wt[j]))
                  for a in range(n) for i, j in pairs]
    return CochainComplex(g, twist, pairs, triples, (d0, d1, d2),
                          (wt, _slot_degrees(wt), d2_degrees))


def ce_complex(g: LieAlgebra, twist: Optional[Matrix] = None) -> CochainComplex:
    """Differentials d0, d1, d2 of the coefficient module g, the action of
    x being bracketing with twist(x).  Exact over the base field; d2∘d1 = 0
    is checked on construction, and d1∘d0 = 0 for a twist (untwisted, it is
    the Jacobi identity that g's table was certified with).
    """
    return _complex(g, twist)


@lru_cache(maxsize=None)
def _untwisted_complex(ring: RingSpec, dim: int, table: tuple, dynkin):
    """(the untwisted complex, kernel(d1)) of the algebra with this sorted
    table and `dynkin` label."""
    cx = _complex(LieAlgebra(ring, dim, dict(table), dynkin=dynkin, check=False), None)
    return cx, _graded_kernel(ring, cx.degrees[1], cx.maps[1])


def _solve_by_blocks(ring: RingSpec, row_degree: dict, blocks: dict, ncols: int,
                     rhs: dict) -> Optional[Matrix]:
    """solve_linear(d, b) for the map d split by `liealg._degree_blocks`
    into row_degree and blocks, b given as {row: raw} without zeros.

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


def cohomology_dim(cx: CochainComplex, degree: int) -> int:
    """cochain_dim - rank d_degree - rank d_(degree-1), by degree blocks."""
    if degree not in (0, 1, 2):
        raise ValueError("degree must be 0, 1 or 2")
    return cx.cochain_dim(degree) - sum(
        rank(block) for k in range(max(degree - 1, 0), degree + 1)
        for _, _, block in cx._blocks(k)[1].values())


def solve_coboundary(cx: CochainComplex, theta: Union[Matrix, Sequence]) -> Optional[Matrix]:
    """A 1-cochain delta with d1(delta) = theta, or None if none exists.

    Free coordinates pivot to zero, so the answer is deterministic; the
    zero cocycle always comes back as the zero cochain.
    """
    ring, want = cx.algebra.ring, cx.cochain_dim(2)
    if isinstance(theta, Matrix):
        if (theta.nrows, theta.ncols) != (want, 1):
            raise ValueError("expected a %d x 1 column" % want)
        if theta.ring != ring:
            raise RingMismatch("%r vs %r" % (ring, theta.ring))
    elif len(theta) != want:
        raise ValueError("expected %d cochain coordinates" % want)
    else:
        theta = Matrix.column(ring, list(theta))
    rhs = {r: t for r, t in enumerate(theta.data) if not ring.is_zero(t)}
    # d2·theta sums the d2 columns in theta's support, and no others
    columns, mul = cx._d2_columns, ring.mul
    if _summed(ring, ((r, mul(v, t)) for c, t in rhs.items()
                      for r, v in columns.get(c, ()))):
        raise NotACocycle("d2 of the given 2-cochain is nonzero")
    row_degree, blocks = cx._blocks(1)
    return _solve_by_blocks(ring, row_degree, blocks, cx.cochain_dim(1), rhs)


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
    y comes from `solve_coboundary` on the cached untwisted complex, which
    also checks that (σ⁻¹⊗I)·theta is a cocycle.
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
    cx, ker = _untwisted_complex(quot, n, tuple(sorted(gq.table.items())), gq.dynkin)
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
    try:
        y = solve_coboundary(cx, theta_u)
    except NotACocycle:
        raise AssertionError("lift defect failed the cocycle identity") from None
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

    # delta's row a*n + b corrects entry (a, b)
    sigma = Matrix(total, n, n, tuple(total.sub(s, ext.j_embed(d))
                                      for s, d in zip(sigma0.data, delta.data)))

    if any(ext.reduce_raw(v) != w for v, w in zip(sigma.data, sigma_bar.data)):
        raise AssertionError("corrected lift does not reduce to sigma_bar")
    if not is_lie_automorphism(gt, sigma):
        raise AssertionError("corrected lift failed exact verification")
    return sigma
