"""Lie algebra cohomology in adjoint-type coefficients, degrees 0 to 3,
and the square-zero lifting of automorphisms that it powers.

Cochain spaces are flattened: a 1-cochain f sits at index a*dim + i for
the coefficient of basis vector a in f(e_i); 2- and 3-cochains use the
lexicographic index of the argument pair or triple in the same way.

d0 and d1 come from `liealg._adjoint_complex`, the one builder that also
gives the centre and the derivations; only d2 is built here, for
dim <= 20, from the same action entries.  Untwisted, a Chevalley
algebra's complex is block diagonal by root-lattice degree.

The action on coefficients may be twisted through an automorphism σ,
x·m = [σx, m], which is what the obstruction calculus for lifting needs.
Since ad(σx) = σ ad(x) σ⁻¹, twisting is a conjugation:
d_σ = (σ⊗I)·d·(σ⁻¹⊗I), where σ⊗I acts on the coefficient index a of a
cochain index a*m + q.  So every complex is read through the untwisted
one's degree blocks: `cohomology_dim` sums its block ranks, and one
solve, `_solve`, serves every σ, also for `lift_automorphism`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    the `degrees` of the untwisted columns; a twisted complex keeps the
    `untwisted` one that it conjugates.  The dense views d0, d1, d2, the
    degree blocks, d2 by column and kernel(d1) are built on first use."""

    algebra: LieAlgebra
    twist: Optional[Matrix]
    pairs: tuple
    triples: tuple
    maps: tuple = field(compare=False, repr=False)
    degrees: tuple = field(compare=False, repr=False)
    untwisted: Optional[CochainComplex] = field(default=None, compare=False, repr=False)

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

    @cached_property
    def _d1_kernel(self) -> Matrix:
        return _graded_kernel(self.algebra.ring, self.degrees[1], self.maps[1])


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


def _complex(g: LieAlgebra, twist: Optional[Matrix]) -> CochainComplex:
    """The complex behind `ce_complex`.  Untwisted, column degrees follow
    `liealg._weights`: wt(b) at column b of d0, `_slot_degrees` for d1,
    wt(a) - wt(i) - wt(j) at column (a, (i, j)) of d2."""
    ring = g.ring
    if not ring.is_field:
        raise UnsupportedRing("cochain complexes need a field, got %r" % (ring,))
    n = g.dim
    if n > 20:
        raise DimensionTooLarge("dim %d exceeds the supported bound 20" % n)
    if twist is not None:
        s_inv = _automorphism_inverse(g, twist)
    pairs, acts, d0, d1 = _adjoint_complex(g)
    triples = tuple(combinations(range(n), 3))
    pidx = {pr: q for q, pr in enumerate(pairs)}
    np_, nt = len(pairs), len(triples)
    neg = ring.neg

    def d2_terms():
        # sign·(b_m·f(pr) - f([pr], b_m)) for each m and the pair pr it leaves
        for tq, (i, j, k) in enumerate(triples):
            for m, pr, sign in ((i, (j, k), 1), (j, (i, k), -1), (k, (i, j), 1)):
                col = pidx[pr]
                for a, b, v in acts[m]:
                    yield (a * nt + tq, b * np_ + col), v if sign > 0 else neg(v)
                for l, c in g.bracket_basis(*pr):
                    if l != m:
                        # f(b_l, b_m) = -f(b_m, b_l): the stored pair is ordered
                        v = c if (sign < 0) == (l < m) else neg(c)
                        for a in range(n):
                            yield (a * nt + tq, a * np_ + pidx[min(l, m), max(l, m)]), v

    d2 = _summed(ring, d2_terms())
    bad = _nonzero_product(ring, d2.items(), d1)
    if bad:
        raise AssertionError("d2∘d1 is nonzero at %s" % (min(bad),))
    wt = _weights(g)
    d2_degrees = [tuple(x - y - z for x, y, z in zip(wt[a], wt[i], wt[j]))
                  for a in range(n) for i, j in pairs]
    plain = CochainComplex(g, None, pairs, triples, (d0, d1, d2),
                           (wt, _slot_degrees(wt), d2_degrees))
    if twist is None:
        return plain

    def kron(s, m):     # s⊗I_m: s[a2, a] at (a2*m + q, a*m + q)
        return {(k // n * m + q, k % n * m + q): v for k, v in enumerate(s.data)
                if not ring.is_zero(v) for q in range(m)}

    # d_k's rows are a*m_row + q and its columns b*m_col + q'
    maps = tuple(_nonzero_product(ring, kron(twist, m_row).items(),
                                  _nonzero_product(ring, d.items(), kron(s_inv, m_col)))
                 for d, m_row, m_col in zip((d0, d1, d2), (n, np_, nt), (1, n, np_)))
    return replace(plain, twist=twist, maps=maps, untwisted=plain)


def ce_complex(g: LieAlgebra, twist: Optional[Matrix] = None) -> CochainComplex:
    """Differentials d0, d1, d2 of the coefficient module g, the action of
    x being bracketing with twist(x), an automorphism over g's ring checked
    before anything is built.  Exact over the base field; d2∘d1 = 0 is
    checked on construction, and d1∘d0 = 0 is the Jacobi identity of g's
    table."""
    return _complex(g, twist)


@lru_cache(maxsize=None)
def _untwisted_complex(ring: RingSpec, dim: int, table: tuple, dynkin):
    """(the untwisted complex, kernel(d1)) of the algebra with this sorted
    table and `dynkin` label."""
    cx = _complex(LieAlgebra(ring, dim, dict(table), dynkin=dynkin, check=False), None)
    return cx, cx._d1_kernel


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
    """cochain_dim - rank d_degree - rank d_(degree-1), by the degree
    blocks of the untwisted complex: conjugation keeps rank."""
    if degree not in (0, 1, 2):
        raise ValueError("degree must be 0, 1 or 2")
    plain = cx.untwisted or cx
    return cx.cochain_dim(degree) - sum(
        rank(block) for k in range(max(degree - 1, 0), degree + 1)
        for _, _, block in plain._blocks(k)[1].values())


def _solve(cx: CochainComplex, ker: Optional[Matrix], sigma: Optional[Matrix],
           theta: Matrix) -> Optional[Matrix]:
    """solve_linear(d1_σ, theta), or None, on the untwisted complex cx,
    ker = kernel(d1) read only for a twist σ.  theta is a cocycle iff
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
    delta, ker_s = transport(sigma, y), transport(sigma, ker)
    free = [ker_s.nrows - 1 - c for c in pivots(Matrix.from_rows(
        ring, [ker_s.col(t)[::-1] for t in range(ker_s.ncols)]))]
    x = solve_linear(Matrix.from_rows(ring, [ker_s.row(r) for r in free]),
                     Matrix.column(ring, [delta.data[r] for r in free]))
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
    if cx.untwisted is None:
        return _solve(cx, None, None, theta)
    return _solve(cx.untwisted, cx.untwisted._d1_kernel, cx.twist, theta)


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

    try:
        delta = _solve(cx, ker, sigma_bar, Matrix.column(quot, theta))
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
