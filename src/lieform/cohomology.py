"""Lie algebra cohomology in adjoint-type coefficients (cochains of degree
0 to 3, cohomology 0 to 2) and the square-zero lifting it powers.

Cochain spaces are flattened: a 1-cochain f sits at index a*dim + i for
the coefficient of basis vector a in f(e_i); 2- and 3-cochains use the
lexicographic index of the argument pair or triple in the same way.

d0, d1 and d2 come from `liealg._differential`, the one builder that also
gives the centre and the derivations; only the complex is capped, at
dim <= 20.  Untwisted, a Chevalley algebra's complex is block diagonal by
root-lattice degree, split and solved by the sparse-map helpers of
`matrices`; its kernel of d1 is `liealg.derivation_algebra`.

The action on coefficients may be twisted through an automorphism σ,
x·m = [σx, m], which is what the obstruction calculus for lifting needs.
Since ad(σx) = σ ad(x) σ⁻¹, twisting is a conjugation:
d_σ = (σ⊗I)·d·(σ⁻¹⊗I), where σ⊗I acts on the coefficient index a of a
cochain index a*m + q.  So every complex is read through the untwisted
one's degree blocks: `cohomology_dim` sums the ranks of the kept blocks
that `liealg._kept_blocks` builds (the others are acyclic), and one
solve, `_solve`, serves every σ, also for `lift_automorphism`.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations
from math import comb
from typing import Optional, Sequence, Union

from .liealg import (LieAlgebra, NotAutomorphism, NotPerfect, _bracket_defect,
                     _cochain_degrees, _differential, _kept_blocks, _weights, base_change,
                     derivation_algebra, is_lie_automorphism, is_perfect, killing_form)
from .matrices import (Matrix, _degree_blocks, _dense, _nonzero_product, _solve_by_blocks,
                       _summed, inverse, pivots, rank, solve_linear)
from .rings import (LieformError, PrimeField, Record, RingMismatch, RingSpec,
                    UnsupportedRing, convert_raw)


class DimensionTooLarge(LieformError):
    pass


class NotACocycle(LieformError):
    pass


class CochainComplex(Record):
    """d0, d1, d2 as sparse `maps` {(row, col): raw} without zeros, with
    the `degrees` of the untwisted columns; a twisted complex keeps the
    `untwisted` one that it conjugates.  The dense views d0, d1, d2, the
    degree blocks, d2 by column and kernel(d1), which is the derivation
    algebra, are built on first use."""

    algebra: LieAlgebra
    twist: Optional[Matrix]
    pairs: tuple
    triples: tuple
    maps: tuple
    degrees: tuple
    untwisted: Optional[CochainComplex] = None
    _hidden = ("maps", "degrees", "untwisted")

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
        """`matrices._degree_blocks` of d_k: ({row: degree}, {degree: block})."""
        split = self.__dict__.setdefault("_split", {})
        if k not in split:
            split[k] = _degree_blocks(self.algebra.ring, self.degrees[k], self.maps[k])
        return split[k]

    @cached_property
    def _d1_kernel(self) -> Matrix:
        return derivation_algebra(self.algebra)


def _automorphism_inverse(g: LieAlgebra, sigma: Matrix) -> Matrix:
    """σ⁻¹, refused unless σ is an automorphism of g.  For an invertible
    σ, (d1_σ d0_σ m)(x, y) = [[σx, σy] - σ[x, y], m]: the witness is the
    first (x, y, m) on which a `_bracket_defect` acts, else the first pair
    whose defect is nonzero, and so central."""
    ring, n = g.ring, g.dim
    if (sigma.nrows, sigma.ncols) != (n, n):
        raise ValueError("twist must be a dim x dim matrix")
    s_inv = solve_linear(sigma, Matrix.identity(ring, n))
    if s_inv is None:
        raise NotAutomorphism("the twist is not an automorphism: it is singular")
    pairs = tuple(combinations(range(n), 2))
    defects = [(pairs[q], d) for q, d in _bracket_defect(g, sigma) if d]
    acting = [xy + (m,) for xy, d in defects for m in range(n)
              if _summed(ring, ((k, ring.mul(v, c)) for a, v in d.items()
                                for k, c in g.bracket_basis(a, m)))]
    if defects:
        raise NotAutomorphism("the twist is not an automorphism: " + (
            "d1∘d0 is nonzero at (x, y, m) = (%d,%d,%d)" % acting[0] if acting else
            "[σx, σy] - σ[x, y] is central and nonzero at (x, y) = (%d,%d)" % defects[0][0]))
    return s_inv


def ce_complex(g: LieAlgebra, twist: Optional[Matrix] = None) -> CochainComplex:
    """Differentials d0, d1, d2 of the coefficient module g, the action of
    x being bracketing with twist(x), an automorphism over g's ring checked
    before anything is built.  Exact over the base field; d2∘d1 = 0 is
    checked on construction, and d1∘d0 = 0 is the Jacobi identity of g's
    table.  d0, d1, d2 come from `liealg._differential` and the untwisted
    column degrees from `liealg._cochain_degrees`; a twisted complex
    conjugates the cached `_untwisted_complex` of g's table."""
    ring = g.ring
    if not ring.is_field:
        raise UnsupportedRing("cochain complexes need a field, got %r" % (ring,))
    n = g.dim
    if n > 20:
        raise DimensionTooLarge("dim %d exceeds the supported bound 20" % n)
    if twist is None:
        d0, d1, d2 = (_differential(g, k) for k in range(3))
        bad = _nonzero_product(ring, d2.items(), d1)
        if bad:
            raise AssertionError("d2∘d1 is nonzero at %s" % (min(bad),))
        wt = _weights(g)
        pairs, triples = (tuple(combinations(range(n), k)) for k in (2, 3))
        return CochainComplex(g, None, pairs, triples, (d0, d1, d2),
                              tuple(_cochain_degrees(wt, k) for k in range(3)))
    s_inv = _automorphism_inverse(g, twist)
    plain = _untwisted_complex(ring, n, tuple(sorted(g.table.items())), g.dynkin)

    def kron(s, m):     # s⊗I_m: s[a2, a] at (a2*m + q, a*m + q)
        return {(k // n * m + q, k % n * m + q): v for k, v in enumerate(s.data)
                if not ring.is_zero(v) for q in range(m)}

    # d_k's rows are a*C(n, k+1) + q and its columns b*C(n, k) + q'
    maps = tuple(_nonzero_product(ring, kron(twist, comb(n, k + 1)).items(),
                                  _nonzero_product(ring, d.items(), kron(s_inv, comb(n, k))))
                 for k, d in enumerate(plain.maps))
    return plain._replace(algebra=g, twist=twist, maps=maps, untwisted=plain)


@lru_cache(maxsize=None)
def _untwisted_complex(ring: RingSpec, dim: int, table: tuple, dynkin) -> CochainComplex:
    """The untwisted complex of the algebra with this sorted table and
    `dynkin` label."""
    return ce_complex(LieAlgebra(ring, dim, dict(table), dynkin=dynkin, check=False))


def cohomology_dim(cx: CochainComplex, degree: int) -> int:
    """cochain_dim - rank d_degree - rank d_(degree-1), by the untwisted
    differentials of cx's algebra, as conjugation keeps rank.  Only their
    `liealg._kept_blocks` are counted, columns less ranks; every other
    block is acyclic, so its columns and ranks cancel."""
    if degree not in (0, 1, 2):
        raise ValueError("degree must be 0, 1 or 2")
    kept = {k: _kept_blocks(cx.algebra, k).values()
            for k in range(max(degree - 1, 0), degree + 1)}
    return sum(len(cols) for cols, _, _ in kept[degree]) - sum(
        rank(block) for blocks in kept.values() for _, _, block in blocks)


def _solve(cx: CochainComplex, sigma: Optional[Matrix], theta: Matrix) -> Optional[Matrix]:
    """solve_linear(d1_σ, theta), or None, on the untwisted complex cx,
    whose ker = kernel(d1) is read only for a twist σ.  theta is a cocycle iff
    (σ⁻¹⊗I)·theta is, and delta0 = (σ⊗I)·y solves d1_σ·delta0 = theta for
    d1·y = (σ⁻¹⊗I)·theta.  `solve_linear` answers zero at the non-pivot
    columns F of d1_σ, where the vectors of its kernel K_σ = (σ⊗I)·ker can
    end.  So F is read from K_σ bottom up, and delta = delta0 - K_σ·x with
    K_σ[F]·x = delta0[F]."""
    ring, n = cx.algebra.ring, cx.algebra.dim

    def transport(s, v):    # (s⊗I)·v: s acts on the index a of each row a*m + q
        return Matrix(ring, v.nrows, v.ncols,
                      (s @ Matrix(ring, n, len(v.data) // n, v.data)).data)

    if sigma is not None:
        theta = transport(inverse(sigma), theta)
    rhs = {r: t for r, t in enumerate(theta.data) if not ring.is_zero(t)}
    # d2·theta sums the d2 columns in theta's support, and no others
    columns, mul = cx._d2_columns, ring.mul
    if _summed(ring, ((r, mul(v, t)) for c, t in rhs.items()
                      for r, v in columns.get(c, ()))):
        raise NotACocycle("d2 of the given 2-cochain is nonzero")
    row_degree, blocks = cx._blocks(1)
    y = _solve_by_blocks(ring, row_degree, blocks, cx.cochain_dim(1), rhs)
    if y is None or sigma is None:
        return y
    delta, ker_s = transport(sigma, y), transport(sigma, cx._d1_kernel)
    k = ker_s.ncols
    free = [ker_s.nrows - 1 - c for c in pivots(Matrix(
        ring, k, ker_s.nrows, tuple(v for t in range(k) for v in ker_s.col(t)[::-1])))]
    x = solve_linear(Matrix(ring, len(free), k, tuple(v for r in free for v in ker_s.row(r))),
                     Matrix(ring, len(free), 1, tuple(delta.data[r] for r in free)))
    if x is None:
        raise AssertionError("the kernel of d1_σ is singular on its non-pivot columns")
    return delta - ker_s @ x


def solve_coboundary(cx: CochainComplex, theta: Union[Matrix, Sequence]) -> Optional[Matrix]:
    """A 1-cochain delta with d1(delta) = theta, or None if none exists:
    the one `solve_linear(cx.d1, theta)` gives, whose free coordinates
    pivot to zero, so the zero cocycle comes back as the zero cochain."""
    ring, want = cx.algebra.ring, cx.cochain_dim(2)
    if not isinstance(theta, Matrix):
        theta = Matrix.column(ring, list(theta))
    if (theta.nrows, theta.ncols) != (want, 1):
        raise ValueError("expected a %d x 1 column" % want)
    if theta.ring != ring:
        raise RingMismatch("%r vs %r" % (ring, theta.ring))
    return _solve(cx.untwisted or cx, cx.twist, theta)


# ---------------------------------------------------------------------------
# square-zero extensions and automorphism lifting

class SquareZeroExtension(Record):
    """A surjection total_ring -> quotient_ring whose kernel J squares to
    zero: Z/p^2 -> F_p with J = pZ/p^2, or F[eps] -> F with J = eps*F.
    J is free of rank one over the quotient on its generator pi (p or
    eps), so each map below is one call into the rings: reduce_raw is the
    canonical map, lift_raw the section on raw values, j_embed u -> u*pi
    and j_extract its inverse, a division by pi.  Any other pair of rings
    is refused on construction."""

    total_ring: RingSpec
    quotient_ring: RingSpec

    def __post_init__(self):
        total, quot = self.total_ring, self.quotient_ring
        if total.kind == "integers_mod_pk" and total.k == 2 and quot == PrimeField(total.p):
            pi = total.p
        elif total.kind == "dual_numbers" and quot == total.base:
            pi = total.coerce((0, 1))
        else:
            raise UnsupportedRing("square-zero extension needs Z/p^2 or dual numbers, "
                                  "got %r over %r" % (total, quot))
        object.__setattr__(self, "_pi", pi)

    def reduce_raw(self, v):
        return convert_raw(v, self.total_ring, self.quotient_ring)

    def lift_raw(self, v):
        """Least non-negative representative section of the quotient."""
        return self.total_ring.coerce(v)

    def j_embed(self, u):
        return self.total_ring.mul(self.lift_raw(u), self._pi)

    def j_extract(self, v):
        if not self.quotient_ring.is_zero(self.reduce_raw(v)):
            raise ValueError("value not in the square-zero ideal")
        return self.reduce_raw(self.total_ring.divide(v, self._pi))


def square_zero_extension(total: RingSpec) -> SquareZeroExtension:
    """Z/p^2 over F_p, or dual numbers over their base."""
    if total.kind == "integers_mod_pk":
        return SquareZeroExtension(total, PrimeField(total.p))
    return SquareZeroExtension(total, getattr(total, "base", total))


def lift_automorphism(g: LieAlgebra, ext: SquareZeroExtension,
                      sigma_bar: Matrix) -> Matrix:
    """Lift an automorphism through the extension when the Killing form
    of the reduced algebra is perfect.

    The input algebra must live over the integers; it is reduced to both
    levels of the extension.  The defect theta of the naive entrywise lift
    (`liealg._bracket_defect`) lies in J and is a 2-cocycle for the action
    twisted by sigma_bar; its primitive from `_solve` corrects the lift,
    and the result is re-verified exactly.
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
    cx = _untwisted_complex(quot, n, tuple(sorted(gq.table.items())), gq.dynkin)
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

    try:
        delta = _solve(cx, sigma_bar, Matrix(quot, len(theta), 1, tuple(theta)))
    except NotACocycle:
        raise AssertionError("lift defect failed the cocycle identity") from None
    if delta is None:
        raise AssertionError("no primitive despite a perfect Killing form")

    # delta's row a*n + b corrects entry (a, b)
    sigma = Matrix(total, n, n, tuple(total.sub(s, ext.j_embed(d))
                                      for s, d in zip(sigma0.data, delta.data)))

    if any(ext.reduce_raw(v) != w for v, w in zip(sigma.data, sigma_bar.data)):
        raise AssertionError("corrected lift does not reduce to sigma_bar")
    if not is_lie_automorphism(gt, sigma):
        raise AssertionError("corrected lift failed exact verification")
    return sigma
