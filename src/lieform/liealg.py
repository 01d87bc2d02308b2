"""Structure-constant Lie algebras over any coefficient ring.

Brackets, adjoint maps, Killing and trace forms, perfectness, derivations,
the Casimir tensor and operator, base change, automorphism checks.

`_differential(g, k)` is d_k of the Chevalley–Eilenberg complex of g
with coefficients in g, for k = 0, 1, 2, by one formula, as a sparse map
over any ring and with no dimension cap.  The centre is ker d0, the
derivations are ker d1, the inner derivations are the columns of d0, and
`cohomology` reads d0, d1 and d2.  The one full Jacobi check, of the
constructor and of `chevalley.verify_jacobi`, is `_jacobi_defects`.
A Chevalley algebra (one carrying its
`dynkin` label) is graded by the root lattice: H_i has weight 0 and X_alpha
weight alpha, so every d_k is block diagonal by the degrees of
`_cochain_degrees`.  H_i acts on a cochain of degree d by the scalar
d(H_i) of `_torus`, so a block with some d(H_i) nonzero is acyclic.
`_kept_blocks` builds only the others, of d(H_i) = 0 for every i, and
every reader of the complex goes through it: `center_basis`,
`derivation_algebra` and `cohomology.cohomology_dim` eliminate them.  The
centre is zero on the acyclic blocks, and `derivation_algebra` reads them
off d0, as ker d1 = im d0 there; E8's derivations thus keep one block of
304 unknowns over F_7.  `_spans_inner_derivations` compares a basis with
the reduced basis of im d0.  The grading and the torus are checked
against the bracket table; a table the grading fails is one block of
degree 0, and one whose torus fails keeps every block.  The Killing
Gram is graded too: `is_perfect` and the integral oracle of `classify`
read its determinant one degree cell at a time (`_cell_det`), over every
ring.  `ad_matrix` and `casimir_operator` read the same sparse ad entries.  `_bracket_defect` is the one bracket
defect [s x, s y] - s[x, y] on basis pairs: `is_lie_automorphism` tests
it for zero, `cohomology` refuses a twist by it, and it is the
obstruction cocycle of `cohomology.lift_automorphism`.
"""

from __future__ import annotations

from bisect import bisect
from collections import defaultdict
from functools import reduce
from itertools import combinations
from math import comb

from .matrices import (
    DimensionMismatch,
    Matrix,
    Singular,
    _columns,
    _degree_blocks,
    _dense,
    _kernel_vectors,
    _nonzero_product,
    _span_vectors,
    _summed,
    det,
    inverse,
    kernel,
)
from .rings import (LieformError, Record, RingMismatch, RingSpec, Scalar, UnsupportedRing,
                    ZZ, convert_raw)
from .roots import DynkinType, build_root_system


class NotPerfect(LieformError):
    pass


class NotAutomorphism(LieformError):
    pass


class LieAlgebra:
    """Free module of finite rank with a sparse bracket table.

    table maps (i, j) with i < j to ((k, c), ...) meaning
    [b_i, b_j] = sum_k c * b_k (repeated k are summed); antisymmetry is
    implicit in the storage; an index outside [0, dim) is a
    DimensionMismatch.  Jacobi is verified on construction by
    `_jacobi_defects`, unless the table comes from an already-verified
    source (check=False); a failure is a ValueError naming the first
    failing triple.

    Every invariant (Killing form, derivations, Casimir operator,
    automorphism check) is computed from this sparse table with the
    ring's own arithmetic, by one code path for every ring.

    dynkin, when given, names the Chevalley basis order of
    `ChevalleyPresentation` ([H_1..H_rank], then X_alpha over the roots).
    It grades the derivation and centre kernels by the root lattice, and
    only after the table is checked to respect that grading, so a wrong
    label never changes an answer.
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
        bad = [key for key, terms in table.items() for k, _ in terms if not 0 <= k < dim]
        if bad:
            raise DimensionMismatch("bad output index in [b_%d, b_%d]" % bad[0])
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
        entries = _ad_entries(self.table, ring.neg)
        return _dense(ring, n, _summed(ring, (((a, b), ring.mul(vals[i], c))
                                             for i, a, b, c in entries
                                             if not ring.is_zero(vals[i]))), range(n))

    def basis_vector(self, i: int) -> tuple:
        z, o = self.ring.zero(), self.ring.one()
        return tuple(o if j == i else z for j in range(self.dim))

    # -- validation --------------------------------------------------------
    def _check_jacobi(self):
        """Raise ValueError naming the first failing triple (i, j, k)."""
        bad = sorted((a, b, c) for b, a, _, c in _jacobi_defects(self.ring, self.table))
        if bad:
            raise ValueError("Jacobi fails on triple (%d,%d,%d)" % bad[0])


class BilinearForm(Record):
    algebra: LieAlgebra
    gram: Matrix

    def __post_init__(self):
        if not self.gram.nrows == self.gram.ncols == self.algebra.dim:
            raise AssertionError("Gram matrix is not dim x dim")
        if self.gram.data != self.gram.transpose().data:
            raise AssertionError("Gram matrix is not symmetric")


class CasimirTensor(Record):
    """Omega = sum C[i,j] b_i (x) b_j with C the inverse Killing Gram."""
    algebra: LieAlgebra
    coefficients: Matrix


def _ad_entries(table: dict, neg) -> list:
    """Every nonzero entry ad(b_i)[a, b] = v of the adjoint maps, as
    (i, a, b, v), read off a bracket table with its ring's negation."""
    out = []
    for (i, j), terms in table.items():
        for k, c in terms:
            out.append((i, k, j, c))
            out.append((j, k, i, neg(c)))
    return out


def _jacobi_defects(ring: RingSpec, table: dict) -> dict:
    """The nonzero Jacobi sums {(b, a, l, c): J(a,b,c)_l}, entry (l, c) of
    [ad a, ad b] - ad[a, b], over the sorted triples a < b < c, which
    decide every triple as J is alternating.  One join on m: each stored
    term [y, z] ∋ w e_m, y < z, meets each ad entry [x, e_m] ∋ v e_l,
    x not in {y, z}, with sign -1 exactly when y < x < z."""
    mul, neg = ring.mul, ring.neg
    by_m = defaultdict(list)
    for (y, z), terms in table.items():
        for m, w in terms:
            by_m[m].append((y, z, w))

    def terms():
        for x, l, m, v in _ad_entries(table, neg):
            for y, z, w in by_m.get(m, ()):
                if x < y:
                    yield (y, x, l, z), mul(v, w)
                elif x > z:
                    yield (z, y, l, x), mul(v, w)
                elif x != y and x != z:
                    yield (x, y, l, z), neg(mul(v, w))

    return _summed(ring, terms())


def _differential(g: LieAlgebra, k: int, partners=None) -> dict:
    """d_k : C^k -> C^(k+1) of the Chevalley–Eilenberg complex of g with
    coefficients in g, as a sparse map {(row, col): raw}, in any dimension:
    (d f)(x_0..x_k) = sum_s (-1)^s [x_s, f(..x̂_s..)]
                    + sum_{s<t} (-1)^(s+t) f([x_s, x_t], ..x̂_s..x̂_t..).
    A k-cochain f sits at a*C(dim, k) + q for the coefficient of b_a in
    f(b_q), q indexing the sorted k-tuples in `combinations` order.

    With the row filter `partners` of `_kept_blocks`, only the rows
    a*C(dim, k+1) + r, r indexing the (k+1)-tuple xs, with a in
    partners(xs) are built; d_k is block diagonal by degree, so these are
    the rows of the kept blocks, whole."""
    ring, n, neg = g.ring, g.dim, g.ring.neg
    acts: list = [defaultdict(list) for _ in range(n)]   # acts[i][a]: (b, ad(b_i)[a, b])
    for i, a, b, v in _ad_entries(g.table, neg):
        acts[i][a].append((b, v))
    src = {q: c for c, q in enumerate(combinations(range(n), k))}
    m_src, m_dst = len(src), comb(n, k + 1)

    def terms():
        for row, xs in enumerate(combinations(range(n), k + 1)):
            kept = range(n) if partners is None else partners(xs)
            for s in range(k + 1):
                col = src[xs[:s] + xs[s + 1:]]
                act = acts[xs[s]]
                for a in act if partners is None else kept:
                    for b, v in act.get(a, ()):
                        yield (a * m_dst + row, b * m_src + col), neg(v) if s % 2 else v
            for s, t in combinations(range(k + 1), 2):
                rest = xs[:s] + xs[s + 1:t] + xs[t + 1:]
                for l, c in g.table.get((xs[s], xs[t]), ()):
                    if l in rest:
                        continue
                    # f(b_l, rest) = (-1)^at f(sorted), at the place of l in it
                    at = bisect(rest, l)
                    col = src[rest[:at] + (l,) + rest[at:]]
                    v = neg(c) if (s + t + at) % 2 else c
                    for a in kept:
                        yield (a * m_dst + row, a * m_src + col), v

    return _summed(ring, terms())


def _trace_gram(ring: RingSpec, entries: list) -> dict:
    """The nonzero traces {(i, j): trace(M_i M_j)} of matrices given by
    their nonzero entries (i, a, b, v), M_i[a, b] = v, by sparse index
    contraction: each entry M_i[a, b] meets the entries M_j[b, a]."""
    mul = ring.mul
    at: dict = {}
    for j, a, b, w in entries:
        at.setdefault((a, b), []).append((j, w))
    return _summed(ring, (((i, j), mul(v, w)) for i, a, b, v in entries
                          for j, w in at.get((b, a), ())))


def killing_form(g: LieAlgebra) -> BilinearForm:
    """Gram[i][j] = trace(ad(b_i) ad(b_j)), the trace form of ad."""
    kappa = _trace_gram(g.ring, _ad_entries(g.table, g.ring.neg))
    return BilinearForm(g, _dense(g.ring, g.dim, kappa, range(g.dim)))


def _realization_entries(realization) -> list:
    """The nonzero entries (i, a, b, v), M_i[a, b] = v, of a realization."""
    return [(i, *divmod(k, m.ncols), v) for i, m in enumerate(realization.matrices)
            for k, v in enumerate(m.data) if v]


def trace_form(realization, ring: RingSpec) -> BilinearForm:
    """Gram[i][j] = trace(M_i M_j) for a matrix realization, over ring:
    contracted over the integers, then mapped to ring."""
    n = len(realization.matrices)
    gram = _dense(ZZ, n, _trace_gram(ZZ, _realization_entries(realization)), range(n))
    return BilinearForm(realization.presentation.to_lie_algebra(ring), gram.map_to_ring(ring))


def _off_cells(wt: list, kappa: dict) -> list:
    """The keys (i, j) of kappa with wt(i) + wt(j) != 0."""
    return [(i, j) for i, j in kappa if wt[j] != tuple(-x for x in wt[i])]


def _cell_det(ring: RingSpec, wt: list, kappa: dict):
    """det of the form with nonzero entries kappa {(i, j): raw} on basis
    vectors of degrees wt, by cells: det = (-1)^m prod_d det kappa[D_d, D_-d],
    D_d the basis vectors of degree d and m half those of nonzero degree.
    The weights are a root system's or all (), so |D_d| = |D_-d|.  Every
    entry must lie in its cell, wt(i) + wt(j) = 0; the least one that does
    not raises AssertionError."""
    off = _off_cells(wt, kappa)
    if off:
        raise AssertionError("form entry %s lies off the degree cells" % (min(off),))
    blocks: dict = defaultdict(list)
    for i, w in enumerate(wt):
        blocks[w].append(i)
    zero = ring.zero()
    out = ring.one() if sum(map(any, wt)) // 2 % 2 == 0 else ring.neg(ring.one())
    for w, rows in blocks.items():
        cols = blocks.get(tuple(-x for x in w), ())
        cell = tuple(kappa.get((r, c), zero) for r in rows for c in cols)
        out = ring.mul(out, det(Matrix(ring, len(rows), len(cols), cell)))
    return out


def _discriminant(f: BilinearForm):
    """det(f.gram) as a raw ring value, by `_cell_det` on the degrees of
    `_weights`.  A Gram with an entry off those cells is one block, the
    whole Gram."""
    gram, ring, n = f.gram, f.gram.ring, f.gram.nrows
    zero = ring.zero()      # raw values are canonical: zeros are found by equality
    kappa = {divmod(k, n): v for k, v in enumerate(gram.data) if v != zero}
    wt = _weights(f.algebra)
    return _cell_det(ring, [()] * n if _off_cells(wt, kappa) else wt, kappa)


def is_perfect(f: BilinearForm) -> bool:
    """True iff the Gram determinant is a unit of the coefficient ring."""
    return f.gram.ring.is_unit(_discriminant(f))


def form_kernel(f: BilinearForm) -> Matrix:
    """Columns spanning the radical; empty iff the form is perfect."""
    if not f.gram.ring.is_field:
        raise UnsupportedRing("form kernel needs a field-kind ring")
    return kernel(f.gram)


def _weights(g: LieAlgebra) -> list:
    """The root-lattice weight of each basis vector, as a tuple: 0 for H_i
    and alpha for X_alpha when g carries a `dynkin` label whose Chevalley
    basis order grades its table, [b_i, b_j] ∋ c b_k only if
    wt(k) = wt(i) + wt(j); otherwise the empty tuple for every vector.
    The grading is checked on the root keys, which add as the weights do
    and are one-to-one on sums of two weights."""
    t = g.dynkin
    if isinstance(t, DynkinType):
        rs = build_root_system(t)
        if g.dim == t.rank + len(rs.roots):
            key = (0,) * t.rank + rs._keys
            if all(key[k] == key[i] + key[j]
                   for (i, j), terms in g.table.items() for k, _ in terms):
                return [(0,) * t.rank] * t.rank + list(rs.roots)
    return [()] * g.dim


def _torus(g: LieAlgebra) -> tuple:
    """The weights of `_weights`, and the function that gives a degree d
    its character (d(H_1)..d(H_r)): d(H_i) = sum_j d_j c_ij, with c_ij the
    coefficient of X_alpha_j in [H_i, X_alpha_j], is the scalar by which
    H_i acts on every cochain of degree d.  By Cartan's formula
    L_h = d∘ι_h + ι_h∘d, a degree block with some d(H_i) a unit is acyclic;
    over a field only the degrees of character zero, the kept degrees, can
    carry cohomology.

    The scalars are used only once the table shows each ad H_i diagonal,
    [H_i, H_j] = 0 and [H_i, X_alpha] = lambda_i(X_alpha) X_alpha with
    lambda_i(X_alpha) = sum_j alpha_j c_ij.  Otherwise every degree gets the
    empty character, so every degree is kept and each answer is that of
    the whole complex."""
    ring, wt = g.ring, _weights(g)
    r = len(wt[0]) if wt else 0
    ad_h = _summed(ring, (((i, j, k), c) for (i, j), terms in g.table.items() if i < r
                          for k, c in terms))
    if r and all(k == j >= r for i, j, k in ad_h):
        lam = [[ad_h.get((i, j, j), ring.zero()) for j in range(g.dim)] for i in range(r)]
        simple = [wt.index(tuple(int(j == s) for s in range(r))) for j in range(r)]
        add, mul, of = ring.add, ring.mul, ring.from_int

        def char(d):
            return tuple(reduce(add, (mul(of(x), li[s]) for x, s in zip(d, simple)))
                         for li in lam)

        if all(char(w) == tuple(li[b] for li in lam) for b, w in enumerate(wt)):
            return wt, char
    return wt, lambda d: ()


def _cochain_degrees(wt: list, k: int, partners=None) -> list:
    """The degree wt(b) - wt(i_1) - .. - wt(i_k) of each k-cochain column
    b*C(dim, k) + q, q = (i_1..i_k), for the weights wt of `_weights`; with
    the row filter of `_kept_blocks`, only on the columns of kept degree,
    and None on the others."""
    n, m = len(wt), comb(len(wt), k)
    out = [None] * (n * m)
    for c, q in enumerate(combinations(range(n), k)):
        for b in range(n) if partners is None else partners(q):
            out[b * m + c] = tuple(x - sum(ys) for x, *ys in zip(wt[b], *(wt[i] for i in q)))
    return out


def _kept_blocks(g: LieAlgebra, k: int) -> dict:
    """The kept degree blocks of d_k, as `_degree_blocks` gives them,
    {degree: (cols, rows, block)}: those of the degrees whose `_torus`
    character is zero, the only ones that can carry cohomology over a
    field.  Only they are built, each whole, through the row filter
    partners: the function from a tuple xs of basis indices to the a, in
    increasing order, whose cochain (a, xs) has kept degree, chars[a] the
    sum of chars over xs."""
    ring, (wt, char) = g.ring, _torus(g)
    chars = [char(w) for w in wt]
    by_char = defaultdict(list)
    for a, x in enumerate(chars):
        by_char[x].append(a)
    zero = tuple(ring.zero() for _ in chars[0]) if chars else ()
    add = ring.add

    def partners(xs):
        sums = tuple(reduce(add, col) for col in zip(zero, *(chars[x] for x in xs)))
        return by_char.get(sums, ())

    return _degree_blocks(ring, _cochain_degrees(wt, k, partners),
                          _differential(g, k, partners))[1]


def _inner_vectors(g: LieAlgebra, skip=()) -> list:
    """The reduced `_span_vectors` basis of the inner derivations, im d0,
    one degree at a time, over the degrees not in skip: column b of d0,
    -ad b_b, has degree wt(b)."""
    wt = _weights(g)
    inner: dict = defaultdict(lambda: defaultdict(dict))  # degree -> column b of d0
    for (s, b), v in _differential(g, 0).items():
        if wt[b] not in skip:
            inner[wt[b]][b][s] = v
    return [fv for columns in inner.values() for fv in _span_vectors(g.ring, columns)]


def center_basis(g: LieAlgebra) -> Matrix:
    """The centre, H^0 = ker d0 of the adjoint complex, as columns; column
    b of d0 has degree wt(b).  Only the kept blocks are eliminated: every
    other block of H^0 is zero."""
    if not g.ring.is_field:
        raise UnsupportedRing("center computation needs a field-kind ring")
    return _columns(g.ring, g.dim, _kernel_vectors(g.ring, _kept_blocks(g, 0).values()))


def derivation_algebra(g: LieAlgebra) -> Matrix:
    """Basis of {D : D[x,y] = [Dx,y] + [x,Dy]} as columns in dim^2-space:
    Z^1 = ker d1 of the adjoint complex.  Slot m*dim + k holds D[m, k], of
    degree wt(m) - wt(k).

    The kept blocks of d1 are eliminated.  Every other block is acyclic, so
    there ker d1 = im d0, whose reduced basis is read off the columns
    of d0 of that degree (for a root alpha, ad X_alpha alone); it is the
    basis one elimination of the block would give.  The kept degrees of d1
    name those of d0: wt(b) is the degree of the cochain (b, b_0), and
    wt(b_0) = 0."""
    ring = g.ring
    if not ring.is_field:
        raise UnsupportedRing("derivations need a field-kind ring")
    kept = _kept_blocks(g, 1)
    vectors = _kernel_vectors(ring, kept.values()) + _inner_vectors(g, skip=kept)
    del kept    # free the dense blocks before the dim^2 x k answer is laid out
    return _columns(ring, g.dim ** 2, vectors)


def _spans_inner_derivations(g: LieAlgebra, ders: Matrix) -> bool:
    """Whether the columns of ders are the reduced basis of the inner
    derivations, `_inner_vectors` over every degree sorted by last nonzero
    slot.  For ders = `derivation_algebra(g)`, the reduced basis of
    Z^1 ⊇ B^1, that holds exactly when every derivation is inner; outer
    derivations, as for G2 over F_2 (21 of them against dim 14), fail.  So
    does every other basis of the inner derivations.  ders is compared by
    its nonzero entries only: their number, and its values at the slots
    of the basis."""
    zero, want = g.ring.zero(), sorted(_inner_vectors(g), key=lambda fv: fv[0])
    k, data = ders.ncols, ders.data
    slots = [(s * k + j, v) for j, (_, vec) in enumerate(want)
             for s, v in vec.items() if v != zero]
    return ((ders.nrows, k) == (g.dim ** 2, len(want))
            and len(data) - data.count(zero) == len(slots)
            and all(data[t] == v for t, v in slots))


def _casimir(kf: BilinearForm, message: str) -> CasimirTensor:
    """The Casimir tensor of the Killing form kf; NotPerfect(message) when
    kf is not perfect."""
    if not is_perfect(kf):
        raise NotPerfect(message)
    return CasimirTensor(kf.algebra, inverse(kf.gram))


def casimir(g: LieAlgebra) -> CasimirTensor:
    return _casimir(killing_form(g), "Killing form is not perfect over %r" % (g.ring,))


def casimir_operator(ct: CasimirTensor) -> Matrix:
    """sum C[i,j] ad(b_i) ad(b_j); the identity when the form is perfect.

    One sparse product on the shared index (j, b): ad(b_i)[a, b] weighted
    by each nonzero C[i, j] meets the entries ad(b_j)[b, c].
    """
    g = ct.algebra
    ring, n = g.ring, g.dim
    entries = _ad_entries(g.table, ring.neg)
    partners = [[(j, cij) for j, cij in enumerate(ct.coefficients.row(i))
                 if not ring.is_zero(cij)] for i in range(n)]
    left = (((a, (j, b)), ring.mul(cij, v))
            for i, a, b, v in entries for j, cij in partners[i])
    right = _summed(ring, ((((j, b), c), w) for j, b, c, w in entries))
    return _dense(ring, n, _nonzero_product(ring, left, right), range(n))


def apply_endo_to_casimir(ct: CasimirTensor, s: Matrix) -> Matrix:
    """Pushforward s C s^T of the tensor; equals C for automorphisms."""
    if not s.ring.is_unit(det(s)):
        raise Singular("endomorphism is not invertible")
    return s @ ct.coefficients @ s.transpose()


def base_change(g: LieAlgebra, target: RingSpec) -> LieAlgebra:
    table = {key: tuple((k, convert_raw(c, g.ring, target)) for k, c in terms)
             for key, terms in g.table.items()}
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
    if not ring.is_unit(det(s)):
        return False
    return not any(d for _, d in _bracket_defect(g, s))
