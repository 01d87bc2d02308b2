"""Chevalley integral bases: structure constants and classical realizations.

Basis order is [H_1..H_rank] followed by X_alpha over all roots, positives
first, each block in canonical root order.  Signs are pinned by the
extraspecial-pair convention: for each non-simple positive root gamma the
special pair (alpha, beta), alpha + beta = gamma with alpha minimal, gets
N = +(p+1) where p is the length of the alpha-string through beta; every
other constant follows from antisymmetry, the negation rule
N(-a,-b) = -N(a,b), the norm-ratio rotation rule for zero-sum triples, and
one Jacobi identity per remaining special pair.

Roots are named by their index in `RootSystem.roots`.  The root system
gives the index arrays: `root_matrix`, `neg_index` and `sum_index` (a + b,
or -1), the last from one searchsorted over the integer keys
sum_j coords_j * base**j of all sums.  `_root_data` derives norms, string
lengths, Cartan pairings and coroots as whole arrays; the sign recursion
runs on index pairs and raises on any inexact division; `_check_constants`
compares whole arrays (N != 0 exactly where a + b is a root, |N| = p + 1,
antisymmetry, negation rule); `verify_jacobi` then certifies the Jacobi
identity on every sorted triple of basis indices, chunked by output index.
All checks raise AssertionError (or its subclass JacobiFailure), so
`python -O` keeps them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import chain, combinations

import numpy as np

from .matrices import Matrix
from .rings import RingSpec, Scalar, ZZ
from .roots import DynkinType, InvalidRank, RootSystem, build_root_system


class NotClassical(Exception):
    pass


class JacobiFailure(AssertionError):
    """A bracket table that breaks the Jacobi identity; names a failing pair."""


@dataclass
class ChevalleyPresentation:
    dynkin: DynkinType
    root_system: RootSystem
    dim: int
    labels: tuple
    table: dict = field(repr=False)        # (i,j) i<j -> tuple of (k, int)

    @property
    def rank(self) -> int:
        return self.dynkin.rank

    @property
    def nconstants(self) -> dict:
        """N(alpha, beta) keyed by both roots, for every pair whose sum is
        a root, read off the table: [X_a, X_b] = N(a, b) X_(a+b)."""
        roots, r = self.root_system.roots, self.rank
        a, b = np.nonzero(self.root_system.sum_index >= 0)
        return {(roots[x], roots[y]): (self.table[(r + x, r + y)][0][1] if x < y
                                       else -self.table[(r + y, r + x)][0][1])
                for x, y in zip(a.tolist(), b.tolist())}

    def root_basis_index(self, coords: tuple) -> int:
        return self.rank + self.root_system.root_index(coords)

    def bracket(self, i: int, j: int) -> tuple:
        """[b_i, b_j] as ((k, coefficient), ...) over Integers."""
        if i == j:
            return ()
        if i < j:
            return self.table.get((i, j), ())
        return tuple((k, -c) for k, c in self.table.get((j, i), ()))

    def to_lie_algebra(self, ring: RingSpec):
        from .liealg import LieAlgebra
        # the constructor drops the constants that vanish in ring; the
        # integral table is certified by verify_jacobi and coercion of an
        # integer is a ring homomorphism, so Jacobi holds over ring too
        table = {key: tuple((k, ring.coerce(c)) for k, c in terms)
                 for key, terms in self.table.items()}
        return LieAlgebra(ring, self.dim, table, dynkin=self.dynkin, check=False)


def _special_pairs(rs: RootSystem) -> dict:
    """Per non-simple positive root index g, in increasing g: the index
    pairs (a, b) of positive roots with a + b = g and a < b, by a."""
    npos = len(rs.positive_roots)
    s = rs.sum_index[:npos, :npos]
    a, b = np.nonzero(np.triu(s >= 0, 1))
    out: dict = {}
    for g, x, y in sorted(zip(s[a, b].tolist(), a.tolist(), b.tolist())):
        out.setdefault(g, []).append((x, y))
    return out


def _root_data(rs: RootSystem) -> tuple:
    """Norms, string lengths p(a, b) (largest q with b - q a a root),
    Cartan pairings <root k, alpha_i^vee> and coroot coordinates."""
    r, s, neg = rs.root_matrix, rs.sum_index, rs.neg_index
    cartan = np.array(rs.cartan, dtype=np.int64)
    d = np.array(rs.symmetrizer, dtype=np.int64)
    norms = np.einsum("ki,ij,kj->k", r, d[:, None] * cartan, r)
    strings = np.zeros(s.shape, dtype=np.int64)
    cur = np.broadcast_to(np.arange(len(s)), s.shape)  # b - q a, or -1
    for _ in range(3):  # root strings have at most 4 roots
        cur = np.where(cur >= 0, s[neg[:, None], cur], -1)
        strings += cur >= 0
    coroots, rem = np.divmod(2 * d * r, norms[:, None])
    if rem.any():
        raise AssertionError("coroots of %s are not integral" % (rs.dynkin,))
    return norms, strings, r @ cartan.T, coroots


def _exact(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise AssertionError("structure constant %d/%d is not integral" % (num, den))
    return q


def _sign_constants(rs: RootSystem, norms, strings) -> dict:
    """N(a, b) for all root index pairs with a + b a root, by the
    extraspecial-pair recursion; keys in the order they are set."""
    s, neg, nrm = rs.sum_index.tolist(), rs.neg_index.tolist(), norms.tolist()
    nab: dict = {}

    def set_orbit(a, b, val):
        g = s[a][b]
        na, nb, ng = neg[a], neg[b], neg[g]
        ra, rb = _exact(val * nrm[a], nrm[g]), _exact(val * nrm[b], nrm[g])
        for key, v in (
            ((a, b), val), ((b, a), -val),
            ((na, nb), -val), ((nb, na), val),
            ((b, ng), ra), ((ng, b), -ra),
            ((g, nb), ra), ((nb, g), -ra),
            ((ng, a), rb), ((a, ng), -rb),
            ((g, na), -rb), ((na, g), rb),
        ):
            if key in nab:
                raise AssertionError("N%s of %s set twice" % (key, rs.dynkin))
            nab[key] = v

    for g, pairs in _special_pairs(rs).items():  # height-increasing
        a0, b0 = pairs[0]  # extraspecial
        set_orbit(a0, b0, int(strings[a0, b0]) + 1)
        na0 = neg[a0]
        for xi, eta in pairs[1:]:
            # Jacobi on (X_{-a0}, X_xi, X_eta); every term lands in the
            # root space of b0 and every referenced constant is already known
            acc = 0
            d1, d2 = s[na0][xi], s[na0][eta]
            if d1 >= 0:
                acc += nab[(na0, xi)] * nab[(d1, eta)]
            if d2 >= 0:
                acc += nab[(eta, na0)] * nab[(d2, xi)]
            set_orbit(xi, eta, _exact(-acc, nab[(g, na0)]))
    return nab


def _check_constants(rs: RootSystem, n: np.ndarray, strings: np.ndarray) -> None:
    """Whole-array checks of the constant matrix n[a, b] = N(a, b); each
    failure names the first failing pair of roots."""
    s, neg = rs.sum_index, rs.neg_index
    for bad, rule in (
        ((n != 0) != (s >= 0), "N != 0 exactly where a + b is a root"),
        ((np.abs(n) != strings + 1) & (s >= 0), "|N(a, b)| = p + 1"),
        (n != -n.T, "N(b, a) = -N(a, b)"),
        (n[np.ix_(neg, neg)] != -n, "N(-a, -b) = -N(a, b)"),
    ):
        if bad.any():
            a, b = np.argwhere(bad)[0]
            raise AssertionError("%s fails for %s at (%s, %s)" % (
                rule, rs.dynkin, rs.roots[a], rs.roots[b]))


@lru_cache(maxsize=None)
def chevalley_presentation(t: DynkinType) -> ChevalleyPresentation:
    if t.rank > 8:
        raise InvalidRank("structure constants capped at rank 8, got %s" % (t,))
    rs = build_root_system(t)
    rank, nroots, roots = t.rank, len(rs.roots), rs.roots
    norms, strings, pairings, coroots = _root_data(rs)
    nab = _sign_constants(rs, norms, strings)
    n = np.zeros((nroots, nroots), dtype=np.int64)
    ka, kb = np.array(list(nab), dtype=np.int64).reshape(-1, 2).T
    n[ka, kb] = list(nab.values())
    _check_constants(rs, n, strings)

    # assemble the full bracket table: [H_i, X_k], then [X_k1, X_k2], k1 < k2
    table: dict = {}
    hi, hk = np.nonzero(pairings.T)
    for i, k, c in zip(hi.tolist(), (hk + rank).tolist(), pairings[hk, hi].tolist()):
        table[(i, k)] = ((k, c),)
    cor = [tuple((m, c) for m, c in enumerate(row) if c) for row in coroots.tolist()]
    s = rs.sum_index
    zero_sum = rs.neg_index == np.arange(nroots)[:, None]
    k1, k2 = np.nonzero(np.triu((s >= 0) | zero_sum, 1))
    for a, b, g, v in zip(k1.tolist(), k2.tolist(), s[k1, k2].tolist(),
                          n[k1, k2].tolist()):
        # g < 0 is the zero sum, and a indexes the positive root of it
        table[(rank + a, rank + b)] = ((rank + g, v),) if g >= 0 else cor[a]
    labels = tuple("H%d" % (i + 1) for i in range(rank)) + tuple(
        "X[%s]" % ",".join(str(c) for c in rho) for rho in roots)
    pres = ChevalleyPresentation(t, rs, rank + nroots, labels, table)
    verify_jacobi(pres)
    return pres


def _join(ptr: np.ndarray, idx: np.ndarray) -> tuple:
    """All index pairs (q, t) with ptr[idx[q]] <= t < ptr[idx[q] + 1]."""
    lo = ptr[idx]
    cnt = ptr[idx + 1] - lo
    q = np.repeat(np.arange(len(idx)), cnt)
    return q, np.arange(len(q)) - np.repeat(np.cumsum(cnt) - cnt, cnt) + lo[q]


# products per chunk of the Jacobi check; bounds its working memory
_JACOBI_CHUNK = 8192


def verify_jacobi(pres: ChevalleyPresentation) -> int:
    """Check the Jacobi identity exactly over the integers on every sorted
    triple a < b < c of basis indices; returns dim*(dim-1)/2, the number of
    pairs that [ad a, ad b] = ad[a, b] would check.

    J(a,b,c)_l = sum_m C[b,c,m] C[a,m,l] - C[a,c,m] C[b,m,l]
    + C[a,b,m] C[c,m,l].  Each term is a stored table term [y, z] ∋ c e_m,
    y < z, times an ad entry [x, e_m] ∋ v e_l with x not in {y, z}, and
    its sign is -1 exactly when y < x < z.  Triples with a repeated index
    vanish by antisymmetry, so the sorted triples certify every pair.  The
    terms are one join on m, chunked by output index l (whole groups of l,
    at most _JACOBI_CHUNK products each), summed per key
    ((b*dim + a)*dim + l)*dim + c.  A nonzero sum raises JacobiFailure
    with the smallest failing key: pair (a, b) and entry (l, c) of the
    defect [ad a, ad b] - ad[a, b], whose value is J(a,b,c)_l.
    """
    dim = pres.dim
    ty, tz, tm, tc = np.array([(i, j, k, c) for (i, j), terms in pres.table.items()
                               for k, c in terms], dtype=np.int64).reshape(-1, 4).T
    # keys are below dim^4; a key sums at most 3*dim products of two
    # constants, and |c| <= 6 up to rank 8
    cmax = int(np.abs(tc).max(initial=0))
    if dim ** 4 >= 2 ** 63 or 3 * dim * cmax * cmax >= 2 ** 63:
        raise OverflowError("Jacobi check of %s exceeds int64" % (pres.dynkin.name,))
    order = np.argsort(tm, kind="stable")                # table terms by m
    ty, tz, tm, tc = ty[order], tz[order], tm[order], tc[order]
    tptr = np.searchsorted(tm, np.arange(dim + 1))
    # ad entries [x, e_m] ∋ v e_l, sorted by l
    ad = np.stack((np.r_[ty, tz], np.r_[tz, ty], np.r_[tm, tm], np.r_[tc, -tc]))
    ax, am, al, av = ad[:, np.argsort(ad[2], kind="stable")]
    lptr = np.searchsorted(al, np.arange(dim + 1))
    # products before each group of l; chunks end on those boundaries
    before = np.r_[0, np.cumsum(np.diff(tptr)[am])][lptr]
    best = None
    lo = 0
    while lo < dim:
        hi = max(lo + 1, int(np.searchsorted(before, before[lo] + _JACOBI_CHUNK,
                                             side="right")) - 1)
        s = slice(lptr[lo], lptr[hi])
        q, t = _join(tptr, am[s])
        x, y, z = ax[s][q], ty[t], tz[t]
        keep = (x != y) & (x != z)
        q, t, x, y, z = q[keep], t[keep], x[keep], y[keep], z[keep]
        vals = np.where((y < x) & (x < z), -1, 1) * av[s][q] * tc[t]
        lo3, hi3 = np.minimum(x, y), np.maximum(x, z)
        keys = (((x + y + z - lo3 - hi3) * dim + lo3) * dim + al[s][q]) * dim + hi3
        order = np.argsort(keys)
        keys, vals = keys[order], vals[order]
        first = np.flatnonzero(np.diff(keys, prepend=-1))  # keys are >= 0
        keys, sums = keys[first], np.add.reduceat(vals, first)
        bad = np.flatnonzero(sums)
        if bad.size and (best is None or keys[bad[0]] < best[0]):
            best = int(keys[bad[0]]), int(sums[bad[0]])
        lo = hi
    if best is not None:
        key, val = best
        b, a, l, c = key // dim ** 3, key // dim ** 2 % dim, key // dim % dim, key % dim
        x, y = pres.labels[a], pres.labels[b]
        raise JacobiFailure(
            "Jacobi fails at pair (%s, %s) of %s: entry (%s, %s) of "
            "[ad %s, ad %s] - ad[%s, %s] is %d" % (
                x, y, pres.dynkin.name, pres.labels[l], pres.labels[c],
                x, y, x, y, val))
    return dim * (dim - 1) // 2


# ---------------------------------------------------------------------------
# classical matrix realizations
# ---------------------------------------------------------------------------

def _simple_triples(t: DynkinType):
    """(x_i, y_i, h_i) dict-matrices for each node, plus the module rank."""
    n = t.rank
    s = t.series
    if s == "A":
        m = n + 1
        trip = [({(i, i + 1): 1}, {(i + 1, i): 1},
                 {(i, i): 1, (i + 1, i + 1): -1}) for i in range(n)]
    elif s == "B":
        # so(2n+1) for x_0^2 + x_1 x_{n+1} + ... + x_n x_{2n}
        m = 2 * n + 1
        trip = []
        for i in range(1, n):
            trip.append((
                {(i, i + 1): 1, (n + i + 1, n + i): -1},
                {(i + 1, i): 1, (n + i, n + i + 1): -1},
                {(i, i): 1, (i + 1, i + 1): -1,
                 (n + i, n + i): -1, (n + i + 1, n + i + 1): 1}))
        trip.append((
            {(n, 0): 2, (0, 2 * n): -1},
            {(0, n): 1, (2 * n, 0): -2},
            {(n, n): 2, (2 * n, 2 * n): -2}))
    elif s == "C":
        m = 2 * n
        trip = []
        for i in range(n - 1):
            trip.append((
                {(i, i + 1): 1, (n + i + 1, n + i): -1},
                {(i + 1, i): 1, (n + i, n + i + 1): -1},
                {(i, i): 1, (i + 1, i + 1): -1,
                 (n + i, n + i): -1, (n + i + 1, n + i + 1): 1}))
        trip.append((
            {(n - 1, 2 * n - 1): 1},
            {(2 * n - 1, n - 1): 1},
            {(n - 1, n - 1): 1, (2 * n - 1, 2 * n - 1): -1}))
    elif s == "D":
        m = 2 * n
        trip = []
        for i in range(n - 1):
            trip.append((
                {(i, i + 1): 1, (n + i + 1, n + i): -1},
                {(i + 1, i): 1, (n + i, n + i + 1): -1},
                {(i, i): 1, (i + 1, i + 1): -1,
                 (n + i, n + i): -1, (n + i + 1, n + i + 1): 1}))
        trip.append((
            {(n - 2, 2 * n - 1): 1, (n - 1, 2 * n - 2): -1},
            {(2 * n - 1, n - 2): 1, (2 * n - 2, n - 1): -1},
            {(n - 2, n - 2): 1, (n - 1, n - 1): 1,
             (2 * n - 2, 2 * n - 2): -1, (2 * n - 1, 2 * n - 1): -1}))
    else:
        raise NotClassical("no defining realization for series %s" % s)
    return trip, m


@dataclass
class MatrixRealization:
    presentation: ChevalleyPresentation
    module_rank: int
    matrices: tuple  # Matrix over Integers, one per basis label

    @property
    def ring(self) -> RingSpec:
        return ZZ

    def stack_numpy(self) -> np.ndarray:
        return np.array([m.rows() for m in self.matrices], dtype=np.int64)


@lru_cache(maxsize=None)
def matrix_realization(t: DynkinType) -> MatrixRealization:
    from .liealg import _nonzero_product, _summed

    def commutator(x: dict, y: dict) -> dict:
        """xy - yx for integer matrices {(row, col): int}, without zeros."""
        return _summed(ZZ, chain(_nonzero_product(ZZ, x.items(), y).items(),
                                 _nonzero_product(ZZ, ((k, -v) for k, v in y.items()),
                                                  x).items()))

    if t.series not in "ABCD":
        raise NotClassical("no defining realization for series %s" % t.series)
    pres = chevalley_presentation(t)
    rs = pres.root_system
    roots, neg = rs.roots, rs.neg_index.tolist()
    trip, m = _simple_triples(t)
    rank = t.rank
    imgs = [None] * len(roots)
    for i, (x, y, _) in enumerate(trip):
        k = rs.root_index(tuple(int(j == i) for j in range(rank)))
        imgs[k], imgs[neg[k]] = x, y
    for g, pairs in _special_pairs(rs).items():
        a, b = pairs[0]
        nval = pres.table[(rank + a, rank + b)][0][1]
        # X_g = [X_a, X_b] / N(a, b) and X_-g = -[X_-a, X_-b] / N(a, b)
        for x, y, z, sign in ((a, b, g, 1), (neg[a], neg[b], neg[g], -1)):
            prod = commutator(imgs[x], imgs[y])
            if any(v % nval for v in prod.values()):
                raise AssertionError("realization of %s: [X_a, X_b] is not "
                                     "divisible by N(a, b) at %s" % (t, roots[z]))
            imgs[z] = {k: sign * v // nval for k, v in prod.items()}
    mats = [trip[i][2] for i in range(rank)] + imgs
    # full bracket-compatibility check against the abstract constants
    for i, j in combinations(range(pres.dim), 2):
        expect = ((key, -c * v) for k, c in pres.bracket(i, j) for key, v in mats[k].items())
        if _summed(ZZ, chain(commutator(mats[i], mats[j]).items(), expect)):
            raise AssertionError("realization bracket mismatch at (%d,%d)" % (i, j))
    return MatrixRealization(pres, m, tuple(
        Matrix(ZZ, m, m, tuple(d.get((r, c), 0) for r in range(m) for c in range(m)))
        for d in mats))


# ---------------------------------------------------------------------------
# automorphism builders
# ---------------------------------------------------------------------------

def _monomial(pres: ChevalleyPresentation, ring: RingSpec, h, xs: list,
              swap: bool) -> Matrix:
    """The matrix of H_i -> h H_i and X_k -> xs[k] X_{-k} (swap) or
    xs[k] X_k, built from raw values."""
    rank, dim = pres.rank, pres.dim
    flat = [ring.zero()] * (dim * dim)
    for i in range(rank):
        flat[i * dim + i] = h
    to = pres.root_system.neg_index.tolist() if swap else range(len(xs))
    for k, (t, v) in enumerate(zip(to, xs)):
        flat[(rank + t) * dim + rank + k] = v
    return Matrix(ring, dim, dim, tuple(flat))


def chevalley_involution(pres: ChevalleyPresentation, ring: RingSpec) -> Matrix:
    """H_i -> -H_i, X_a -> -X_{-a}; an automorphism of any Chevalley form."""
    mone = ring.coerce(-1)
    return _monomial(pres, ring, mone, [mone] * len(pres.root_system.roots), True)


def torus_automorphism(pres: ChevalleyPresentation, ring: RingSpec, tval,
                       lam=None) -> Matrix:
    """H_i -> H_i, X_b -> t^(lam . coords(b)) X_b for a unit t."""
    tval = tval.value if isinstance(tval, Scalar) else ring.coerce(tval)
    if not ring.is_unit(tval):
        raise ValueError("torus parameter must be a unit")
    lam = (1,) * pres.rank if lam is None else lam
    tinv = ring.inv(tval)
    es = [sum(l * c for l, c in zip(lam, rho)) for rho in pres.root_system.roots]
    xs = [reduce(ring.mul, [tval if e >= 0 else tinv] * abs(e), ring.one()) for e in es]
    return _monomial(pres, ring, ring.one(), xs, False)


def triple_flip(pres: ChevalleyPresentation, ring: RingSpec,
                alpha: tuple) -> Matrix:
    """An automorphism sending (H_alpha, X_alpha, X_{-alpha}) to
    (-H_alpha, X_{-alpha}, X_alpha).

    Composition of the involution with the sign character that is odd on
    alpha: X_b -> -(-1)^(lam . b) X_{-b}.
    """
    odd = next((i for i, c in enumerate(alpha) if c % 2), None)
    if odd is None:
        raise ValueError("%s has no odd coordinate, so it is not a root" % (alpha,))
    mone, one = ring.coerce(-1), ring.one()
    return _monomial(pres, ring, mone, [one if rho[odd] % 2 else mone
                                        for rho in pres.root_system.roots], True)
