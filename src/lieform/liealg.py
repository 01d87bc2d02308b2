"""Structure-constant Lie algebras over any coefficient ring.

Brackets, adjoint maps, Killing and trace forms, perfectness, derivations,
the Casimir tensor and operator, base change, automorphism checks.

`_adjoint_complex` builds d0 and d1 of the Chevalley–Eilenberg complex of
g with coefficients in g, once, as sparse maps over any ring and with no
dimension cap.  The centre is ker d0, the derivations are ker d1, and
d1∘d0 = 0 is the Jacobi identity that the constructor checks;
`cohomology` builds d2 on top.  A Chevalley algebra (one carrying its
`dynkin` label) is graded by the root lattice: H_i has weight 0 and X_alpha
weight alpha, so d0 and d1 are block diagonal by degree and
`_graded_kernel` takes both kernels one degree block at a time.  The
grading is checked against the bracket table; a table it does not grade
is one block of degree 0.  The Killing Gram is graded too, and
`is_perfect` reads its determinant one degree block at a time, over every
ring.  `ad_matrix` and `casimir_operator` read the same sparse ad
entries.  `_bracket_defect` is the one bracket defect [s x, s y] - s[x, y]
on basis pairs: `is_lie_automorphism` tests it for zero, `cohomology`
refuses a twist by it, and it is the obstruction cocycle of
`cohomology.lift_automorphism`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, combinations

from .matrices import (
    DimensionMismatch,
    Matrix,
    Singular,
    _echelon,
    det,
    inverse,
    kernel,
    rank,
)
from .rings import RingMismatch, RingSpec, Scalar, UnsupportedRing, ZZ, convert_raw
from .roots import DynkinType, build_root_system


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
                                             if not ring.is_zero(vals[i]))), range(n))

    def basis_vector(self, i: int) -> tuple:
        z, o = self.ring.zero(), self.ring.one()
        return tuple(o if j == i else z for j in range(self.dim))

    # -- validation --------------------------------------------------------
    def _check_jacobi(self):
        """Raise ValueError naming the first failing triple (i, j, k)."""
        pairs, _, d0, d1 = _adjoint_complex(self)
        bad = _nonzero_product(self.ring, d1.items(), d0)
        if bad:
            # J(x, y, m) is alternating, so the failing triple is sorted(x, y, m)
            raise ValueError("Jacobi fails on triple (%d,%d,%d)" % min(
                tuple(sorted(pairs[r % len(pairs)] + (m,))) for r, m in bad))


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


def _commutator(ring: RingSpec, x: dict, y: dict) -> dict:
    """xy - yx for sparse matrices {(row, col): raw}, zeros dropped."""
    neg = ring.neg
    return _summed(ring, chain(_nonzero_product(ring, x.items(), y).items(),
                               _nonzero_product(ring, ((k, neg(v)) for k, v in y.items()),
                                                x).items()))


def _adjoint_complex(g: LieAlgebra) -> tuple:
    """(pairs, acts, d0, d1) of the Chevalley–Eilenberg complex of g with
    coefficients in g, over any ring and in any dimension.  acts[i] lists
    the nonzero entries (a, b, v) of ad(b_i); d0 and d1 are sparse maps
    {(row, col): raw}.  A 1-cochain f sits at a*dim + i for the coefficient
    of b_a in f(b_i), a 2-cochain at a*len(pairs) + q for the pair
    q = (i, j), i < j.  d1∘d0 = 0 is `LieAlgebra._check_jacobi`."""
    ring, n, neg = g.ring, g.dim, g.ring.neg
    acts: list = [[] for _ in range(n)]
    for (i, a, b), v in _summed(ring, (((i, a, b), v)
                                       for i, a, b, v in _ad_entries(g))).items():
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

    return pairs, acts, d0, _summed(ring, d1_terms())


def _dense(ring: RingSpec, ncols: int, entries: dict, rows) -> Matrix:
    """A sparse map {(row, col): raw} as a Matrix on the given rows, in
    order; every row of entries must be among them."""
    at = {r: t for t, r in enumerate(rows)}
    flat = [ring.zero()] * (len(rows) * ncols)
    for (r, c), v in entries.items():
        flat[at[r] * ncols + c] = v
    return Matrix(ring, len(rows), ncols, tuple(flat))


def _trace_gram(ring: RingSpec, n: int, entries: list) -> Matrix:
    """Gram[i][j] = trace(M_i M_j) of n matrices given by their nonzero
    entries (i, a, b, v), M_i[a, b] = v, by sparse index contraction: each
    entry M_i[a, b] meets the entries M_j[b, a]."""
    add, mul = ring.add, ring.mul
    at: dict = {}
    for j, a, b, w in entries:
        at.setdefault((a, b), []).append((j, w))
    gram = [ring.zero()] * (n * n)
    for i, a, b, v in entries:
        for j, w in at.get((b, a), ()):
            gram[i * n + j] = add(gram[i * n + j], mul(v, w))
    return Matrix(ring, n, n, tuple(gram))


def killing_form(g: LieAlgebra) -> BilinearForm:
    """Gram[i][j] = trace(ad(b_i) ad(b_j)), the trace form of ad."""
    return BilinearForm(g, _trace_gram(g.ring, g.dim, _ad_entries(g)))


def trace_form(realization, ring: RingSpec) -> BilinearForm:
    """Gram[i][j] = trace(M_i M_j) for a matrix realization, over ring:
    contracted over the integers, then mapped to ring."""
    mats = realization.matrices
    entries = [(i, *divmod(k, m.ncols), v) for i, m in enumerate(mats)
               for k, v in enumerate(m.data) if v]
    alg = realization.presentation.to_lie_algebra(ring)
    return BilinearForm(alg, _trace_gram(ZZ, len(mats), entries).map_to_ring(ring))


def _discriminant(f: BilinearForm):
    """det(f.gram) as a raw ring value, one degree block at a time: when
    every nonzero Gram[i, j] has wt(i) + wt(j) = 0, det = (-1)^m prod_d
    det Gram[D_d, D_-d], D_d the basis vectors of degree d and m half those
    of nonzero degree (zero if some |D_d| != |D_-d|).  A Gram off that
    pattern is one block, the whole Gram."""
    gram, ring, n = f.gram, f.gram.ring, f.gram.nrows
    wt = _weights(f.algebra)
    blocks: dict = defaultdict(list)
    for i, w in enumerate(wt):
        blocks[w].append(i)
    cells = {w: tuple(gram.raw(r, c) for r in rows
                      for c in blocks.get(tuple(-x for x in w), ()))
             for w, rows in blocks.items()}
    # the pattern holds when every entry outside the cells D_d x D_-d is
    # zero; raw values are canonical, so zeros are counted by equality
    zero = ring.zero()
    zeros_in = sum(cell.count(zero) for cell in cells.values())
    if gram.data.count(zero) - zeros_in != n * n - sum(map(len, cells.values())):
        wt, blocks, cells = [()] * n, {(): range(n)}, {(): gram.data}
    out = ring.one() if sum(map(any, wt)) // 2 % 2 == 0 else ring.neg(ring.one())
    for w, rows in blocks.items():
        cols = blocks.get(tuple(-x for x in w), ())
        if len(cols) != len(rows):
            return ring.zero()
        out = ring.mul(out, det(Matrix(ring, len(rows), len(cols), cells[w])))
    return out


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


def _slot_degrees(wt: list) -> list:
    """The degree wt(m) - wt(k) of each 1-cochain slot m*dim + k: D[m, k]."""
    return [tuple(x - y for x, y in zip(wm, wk)) for wm in wt for wk in wt]


def _degree_blocks(ring: RingSpec, degrees: list, entries: dict) -> tuple:
    """The diagonal blocks of the sparse map {(row, col): raw} whose column
    c has degree degrees[c]; every row must lie in one degree.  Returns
    {row: its degree} for the nonempty rows, and per degree, in order of
    first column, (its columns in increasing order, its nonempty rows in
    increasing order, the block on those rows and columns)."""
    blocks: dict = defaultdict(list)           # degree -> its columns
    local = []                                 # column -> its place in its block
    for c, d in enumerate(degrees):
        local.append(len(blocks[d]))
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


def _graded_kernel(ring: RingSpec, degrees: list, entries: dict) -> Matrix:
    """The kernel of the map {(row, col): raw} with len(degrees) columns,
    entry for entry as `matrices.kernel` gives it, taken one
    `_degree_blocks` block at a time.

    A column is a pivot of the whole map iff it is one of its block, and
    the reduced-echelon kernel basis is unique, so the free column f gives
    the same vector: 1 at f, minus the reduced row entries at the block's
    pivot columns.  Columns are sorted by f.
    """
    one, neg = ring.one(), ring.neg
    vectors = []                               # (free column, {col: raw})
    for cols, _, block in _degree_blocks(ring, degrees, entries)[1].values():
        pivots, free, rest, _ = _echelon(block, reduce_up=True)
        for t, f in enumerate(free):
            vec = {cols[f]: one}
            for pc, row in zip(pivots, rest):
                vec[cols[pc]] = neg(row[t])
            vectors.append((cols[f], vec))
    vectors.sort(key=lambda fv: fv[0])
    k = len(vectors)
    flat = [ring.zero()] * (len(degrees) * k)
    for j, (_, vec) in enumerate(vectors):
        for c, v in vec.items():
            flat[c * k + j] = v
    return Matrix(ring, len(degrees), k, tuple(flat))


def center_basis(g: LieAlgebra) -> Matrix:
    """The centre, H^0 = ker d0 of the adjoint complex, as columns; column
    b of d0 has degree wt(b)."""
    if not g.ring.is_field:
        raise UnsupportedRing("center computation needs a field-kind ring")
    return _graded_kernel(g.ring, _weights(g), _adjoint_complex(g)[2])


def derivation_algebra(g: LieAlgebra) -> Matrix:
    """Basis of {D : D[x,y] = [Dx,y] + [x,Dy]} as columns in dim^2-space:
    Z^1 = ker d1 of the adjoint complex.  Slot m*dim + k holds D[m, k], of
    degree wt(m) - wt(k)."""
    if not g.ring.is_field:
        raise UnsupportedRing("derivations need a field-kind ring")
    return _graded_kernel(g.ring, _slot_degrees(_weights(g)), _adjoint_complex(g)[3])


def _spans_inner_derivations(g: LieAlgebra, ders: Matrix) -> bool:
    """Whether the columns of ders are a basis of the inner derivations:
    for the dim^2 x dim matrix `inner` whose column i is ad(b_i),
    rank(inner) == dim, inner lies in the span of ders and
    rank(ders | inner) == ders.ncols.  The last two hold iff the pivot
    columns of (ders | inner) are those of ders.

    Both eliminations run one `_degree_blocks` block at a time: ad(b_i)
    has degree wt(i), and each column that `derivation_algebra` returns
    lies in one degree, that of its slots.
    """
    ring, n, k = g.ring, g.dim, ders.ncols
    wt = _weights(g)
    degrees = _slot_degrees(wt)
    inner = _summed(ring, (((a * n + b, i), v) for i, a, b, v in _ad_entries(g)))
    both = {(s, k + i): v for (s, i), v in inner.items()}
    col_degrees = []
    for j in range(k):
        col = [(s, v) for s, v in enumerate(ders.col(j)) if not ring.is_zero(v)]
        both.update(((s, j), v) for s, v in col)
        col_degrees.append(degrees[col[0][0]])
    pivots = sorted(cols[c] for cols, _, block
                    in _degree_blocks(ring, col_degrees + wt, both)[1].values()
                    for c in _echelon(block, reduce_up=False)[0])
    return (pivots == list(range(k)) and n == sum(
        rank(block) for _, _, block in _degree_blocks(ring, wt, inner)[1].values()))


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
    return _dense(ring, n, _nonzero_product(ring, left, right), range(n))


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
