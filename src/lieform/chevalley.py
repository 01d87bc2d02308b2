"""Chevalley integral bases: structure constants and classical realizations.

Basis order is [H_1..H_rank] followed by X_alpha over all roots, positives
first, each block in canonical root order.  Signs are pinned by the
extraspecial-pair convention: for each non-simple positive root gamma the
special pair (alpha, beta), alpha + beta = gamma with alpha minimal, gets
N = +(p+1) where p is the length of the alpha-string through beta; every
other constant follows from antisymmetry, the negation rule
N(-a,-b) = -N(a,b), the norm-ratio rotation rule for zero-sum triples, and
one Jacobi identity per remaining special pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .matrices import Matrix
from .rings import RingSpec, Scalar, ZZ
from .roots import DynkinType, InvalidRank, RootSystem, build_root_system


class NotClassical(Exception):
    pass


class JacobiFailure(AssertionError):
    """A bracket table that breaks the Jacobi identity; names a failing pair."""


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vneg(a):
    return tuple(-x for x in a)


@dataclass
class ChevalleyPresentation:
    dynkin: DynkinType
    root_system: RootSystem
    dim: int
    labels: tuple
    table: dict = field(repr=False)        # (i,j) i<j -> tuple of (k, int)
    nconstants: dict = field(repr=False)   # (alpha, beta) -> int, both roots

    @property
    def rank(self) -> int:
        return self.dynkin.rank

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
        # the constructor drops the constants that vanish in ring
        table = {key: tuple((k, ring.coerce(c)) for k, c in terms)
                 for key, terms in self.table.items()}
        return LieAlgebra(ring, self.dim, table, dynkin=self.dynkin)


def _special_pairs(rs: RootSystem):
    """Per non-simple positive root: pairs (a, b), a+b = root, a before b."""
    pos = rs.positive_roots
    idx = {r: i for i, r in enumerate(pos)}
    out = {}
    for g in pos:
        if sum(g) == 1:
            continue
        pairs = []
        for i, a in enumerate(pos):
            b = tuple(x - y for x, y in zip(g, a))
            j = idx.get(b)
            if j is not None and j > i:
                pairs.append((a, b))
        out[g] = pairs  # already sorted by index of a
    return out


@lru_cache(maxsize=None)
def chevalley_presentation(t: DynkinType) -> ChevalleyPresentation:
    if t.rank > 8:
        raise InvalidRank("structure constants capped at rank 8, got %s" % (t,))
    rs = build_root_system(t)
    pos = rs.positive_roots
    specials = _special_pairs(rs)
    n_table: dict = {}

    def set_orbit(a, b, val):
        g = _vadd(a, b)
        na, nb, ng = _vneg(a), _vneg(b), _vneg(g)
        qa = Fraction(rs.norm2(a))
        qb = Fraction(rs.norm2(b))
        qg = Fraction(rs.norm2(g))
        ra = val * qa / qg
        rb = val * qb / qg
        for key, v in (
            ((a, b), val), ((b, a), -val),
            ((na, nb), -val), ((nb, na), val),
            ((b, ng), ra), ((ng, b), -ra),
            ((g, nb), ra), ((nb, g), -ra),
            ((ng, a), rb), ((a, ng), -rb),
            ((g, na), -rb), ((na, g), rb),
        ):
            frac = Fraction(v)
            assert frac.denominator == 1, (t, key, v)
            assert key not in n_table
            n_table[key] = int(frac)

    for g in pos:  # canonical order is height-increasing
        pairs = specials.get(g)
        if not pairs:
            continue
        a0, b0 = pairs[0]  # extraspecial
        set_orbit(a0, b0, rs.string_p(a0, b0) + 1)
        na0 = _vneg(a0)
        for xi, eta in pairs[1:]:
            # Jacobi on (X_{-a0}, X_xi, X_eta); every term lands in the
            # root space of b0 and every referenced constant is already known
            acc = 0
            d1 = tuple(x - y for x, y in zip(xi, a0))
            if rs.is_root(d1):
                acc += n_table[(na0, xi)] * n_table[(d1, eta)]
            d2 = tuple(x - y for x, y in zip(eta, a0))
            if rs.is_root(d2):
                acc += n_table[(eta, na0)] * n_table[(d2, xi)]
            val = Fraction(-acc, n_table[(g, na0)])
            set_orbit(xi, eta, val)

    # every constant must exhibit the root-string magnitude
    for (a, b), v in n_table.items():
        assert abs(v) == rs.string_p(a, b) + 1, (t, a, b, v)
        assert n_table[(b, a)] == -v
        assert n_table[(_vneg(a), _vneg(b))] == -v
    for a in rs.roots:
        for b in rs.roots:
            if rs.is_root(_vadd(a, b)):
                assert (a, b) in n_table

    # assemble the full bracket table
    rank = t.rank
    dim = rank + len(rs.roots)
    table: dict = {}
    for i in range(rank):
        for k, rho in enumerate(rs.roots):
            c = rs.pairing(rho, i)
            if c:
                table[(i, rank + k)] = ((rank + k, c),)
    nroots = len(rs.roots)
    npos = nroots // 2
    for k1 in range(nroots):
        rho = rs.roots[k1]
        for k2 in range(k1 + 1, nroots):
            sig = rs.roots[k2]
            s = _vadd(rho, sig)
            if all(v == 0 for v in s):
                # k1 indexes the positive root of the pair
                cor = rs.coroot_coords(rho)
                terms = tuple((m, cor[m]) for m in range(rank) if cor[m])
                table[(rank + k1, rank + k2)] = terms
            elif rs.is_root(s):
                table[(rank + k1, rank + k2)] = (
                    (rank + rs.root_index(s), n_table[(rho, sig)]),)
    labels = tuple("H%d" % (i + 1) for i in range(rank)) + tuple(
        "X[%s]" % ",".join(str(c) for c in rho) for rho in rs.roots)
    pres = ChevalleyPresentation(t, rs, dim, labels, table, n_table)
    verify_jacobi(pres)
    return pres


def _join(ptr: np.ndarray, idx: np.ndarray) -> tuple:
    """All index pairs (q, t) with ptr[idx[q]] <= t < ptr[idx[q] + 1]."""
    lo = ptr[idx]
    cnt = ptr[idx + 1] - lo
    q = np.repeat(np.arange(len(idx)), cnt)
    return q, np.arange(len(q)) - np.repeat(np.cumsum(cnt) - cnt, cnt) + lo[q]


def verify_jacobi(pres: ChevalleyPresentation) -> int:
    """Check ad([b_i, b_g]) = [ad b_i, ad b_g] exactly over the integers
    for all dim*(dim-1)/2 unordered pairs {i, g}; returns that count.

    One pair certifies the Jacobi identity for all dim triples (i, g, k),
    so the pairs cover the complete triple loop.  The check is batched
    over i: every ad map is one COO list ad_i[r, c] = v, and for each g the
    three terms ad_i ad_g, ad_g ad_i and sum_k c_(igk) ad_k are joins of
    that list on their shared index, summed per (i, r, c) with i < g.  A
    nonzero sum raises JacobiFailure naming the pair and the entry (r, c)
    of the defect.
    """
    dim = pres.dim
    i, j, k, c = np.array([(i, j, k, c) for (i, j), terms in pres.table.items()
                           for k, c in terms], dtype=np.int64).reshape(-1, 4).T
    coo = np.stack((np.r_[i, j], np.r_[k, k], np.r_[j, i], np.r_[c, -c]))
    # keys (i*dim + r)*dim + c are below dim^3; a key sums at most 3*dim
    # products of two constants, and |c| <= 6 up to rank 8
    cmax = int(np.abs(c).max(initial=0))
    if dim ** 3 >= 2 ** 63 or 3 * dim * cmax * cmax >= 2 ** 63:
        raise OverflowError("Jacobi check of %s exceeds int64" % (pres.dynkin.name,))
    ai, ar, ac, av = coo[:, np.lexsort(coo[2::-1])]         # by (i, r, c)
    bi, br, bc, bv = coo[:, np.argsort(coo[1], kind="stable")]  # by r
    span = np.arange(dim + 1)
    ptr, rowptr = np.searchsorted(ai, span), np.searchsorted(br, span)
    for g in range(dim):
        gr, gc, gv = (x[ptr[g]:ptr[g + 1]] for x in (ar, ac, av))
        q1, t1 = _join(np.searchsorted(gr, span), ac)        # ad_i[r, m] ad_g[m, c]
        q2, t2 = _join(rowptr, gc)                           # ad_g[r, m] ad_i[m, c]
        q3, t3 = _join(ptr, gr)                              # ad_g[k, i] ad_k[r, c]
        keys = np.concatenate(((ai[q1] * dim + ar[q1]) * dim + gc[t1],
                               (bi[t2] * dim + gr[q2]) * dim + bc[t2],
                               (gc[q3] * dim + ar[t3]) * dim + ac[t3]))
        vals = np.concatenate((av[q1] * gv[t1], -gv[q2] * bv[t2], gv[q3] * av[t3]))
        keep = keys < g * dim * dim                          # pairs i < g only
        keys, vals = keys[keep], vals[keep]
        keys, inv = np.unique(keys, return_inverse=True)
        sums = np.zeros(len(keys), dtype=np.int64)
        np.add.at(sums, inv, vals)
        bad = np.flatnonzero(sums)
        if bad.size:
            key, val = int(keys[bad[0]]), int(sums[bad[0]])
            i, r, c = key // (dim * dim), key // dim % dim, key % dim
            x, y = pres.labels[i], pres.labels[g]
            raise JacobiFailure(
                "Jacobi fails at pair (%s, %s) of %s: entry (%s, %s) of "
                "[ad %s, ad %s] - ad[%s, %s] is %d" % (
                    x, y, pres.dynkin.name, pres.labels[r], pres.labels[c],
                    x, y, x, y, val))
    return dim * (dim - 1) // 2


# ---------------------------------------------------------------------------
# classical matrix realizations
# ---------------------------------------------------------------------------

def _dmul(x: dict, y: dict, yrows=None) -> dict:
    if yrows is None:
        yrows = {}
        for (r, c), v in y.items():
            yrows.setdefault(r, []).append((c, v))
    out: dict = {}
    for (r, c), v in x.items():
        for c2, v2 in yrows.get(c, ()):
            k = (r, c2)
            nv = out.get(k, 0) + v * v2
            if nv:
                out[k] = nv
            elif k in out:
                del out[k]
    return out


def _dcomm(x: dict, y: dict) -> dict:
    out = dict(_dmul(x, y))
    for k, v in _dmul(y, x).items():
        nv = out.get(k, 0) - v
        if nv:
            out[k] = nv
        elif k in out:
            del out[k]
    return out


def _dsub(x: dict, y: dict) -> dict:
    out = dict(x)
    for k, v in y.items():
        nv = out.get(k, 0) - v
        if nv:
            out[k] = nv
        elif k in out:
            del out[k]
    return out


def _dscale(x: dict, c: int) -> dict:
    return {k: c * v for k, v in x.items()} if c else {}


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
    if t.series not in "ABCD":
        raise NotClassical("no defining realization for series %s" % t.series)
    pres = chevalley_presentation(t)
    rs = pres.root_system
    trip, m = _simple_triples(t)
    rank = t.rank
    nroots = len(rs.roots)
    imgs = [None] * nroots
    for i, (x, y, _) in enumerate(trip):
        simple = tuple(1 if j == i else 0 for j in range(rank))
        imgs[rs.root_index(simple)] = x
        imgs[rs.root_index(_vneg(simple))] = y
    specials = _special_pairs(rs)
    for g in rs.positive_roots:
        pairs = specials.get(g)
        if not pairs:
            continue
        a, b = pairs[0]
        nval = pres.nconstants[(a, b)]
        prod = _dcomm(imgs[rs.root_index(a)], imgs[rs.root_index(b)])
        assert all(v % nval == 0 for v in prod.values()), (t, g)
        imgs[rs.root_index(g)] = {k: v // nval for k, v in prod.items()}
        nprod = _dcomm(imgs[rs.root_index(_vneg(a))],
                       imgs[rs.root_index(_vneg(b))])
        assert all(v % nval == 0 for v in nprod.values()), (t, g)
        imgs[rs.root_index(_vneg(g))] = {k: -v // nval for k, v in nprod.items()}
    mats = [trip[i][2] for i in range(rank)] + imgs
    # full bracket-compatibility check against the abstract constants
    for i in range(pres.dim):
        for j in range(i + 1, pres.dim):
            expect: dict = {}
            for k, c in pres.bracket(i, j):
                expect = _dsub(expect, _dscale(mats[k], -c))
            if _dsub(_dcomm(mats[i], mats[j]), expect):
                raise AssertionError("realization bracket mismatch at (%d,%d)"
                                     % (i, j))

    def to_matrix(d: dict) -> Matrix:
        rows = [[0] * m for _ in range(m)]
        for (r, c), v in d.items():
            rows[r][c] = v
        return Matrix.from_rows(ZZ, rows)

    return MatrixRealization(pres, m, tuple(to_matrix(d) for d in mats))


# ---------------------------------------------------------------------------
# automorphism builders
# ---------------------------------------------------------------------------

def chevalley_involution(pres: ChevalleyPresentation, ring: RingSpec) -> Matrix:
    """H_i -> -H_i, X_a -> -X_{-a}; an automorphism of any Chevalley form."""
    rank, dim = pres.rank, pres.dim
    rows = [[ring.zero()] * dim for _ in range(dim)]
    mone = ring.coerce(-1)
    for i in range(rank):
        rows[i][i] = mone
    for k, rho in enumerate(pres.root_system.roots):
        rows[pres.root_basis_index(_vneg(rho))][rank + k] = mone
    return Matrix.from_rows(ring, rows)


def torus_automorphism(pres: ChevalleyPresentation, ring: RingSpec, tval,
                       lam=None) -> Matrix:
    """H_i -> H_i, X_b -> t^(lam . coords(b)) X_b for a unit t."""
    tval = tval.value if isinstance(tval, Scalar) else ring.coerce(tval)
    if not ring.is_unit(tval):
        raise ValueError("torus parameter must be a unit")
    rank, dim = pres.rank, pres.dim
    if lam is None:
        lam = (1,) * rank
    tinv = ring.inv(tval)
    rows = [[ring.zero()] * dim for _ in range(dim)]
    for i in range(rank):
        rows[i][i] = ring.one()
    for k, rho in enumerate(pres.root_system.roots):
        e = sum(l * c for l, c in zip(lam, rho))
        base, e = (tval, e) if e >= 0 else (tinv, -e)
        v = ring.one()
        for _ in range(e):
            v = ring.mul(v, base)
        rows[rank + k][rank + k] = v
    return Matrix.from_rows(ring, rows)


def triple_flip(pres: ChevalleyPresentation, ring: RingSpec,
                alpha: tuple) -> Matrix:
    """An automorphism sending (H_alpha, X_alpha, X_{-alpha}) to
    (-H_alpha, X_{-alpha}, X_alpha).

    Composition of the involution with the sign character that is odd on
    alpha: X_b -> -(-1)^(lam . b) X_{-b}.
    """
    odd = next((i for i, c in enumerate(alpha) if c % 2), None)
    assert odd is not None, "root has no odd coordinate"
    rank, dim = pres.rank, pres.dim
    rows = [[ring.zero()] * dim for _ in range(dim)]
    mone = ring.coerce(-1)
    one = ring.one()
    for i in range(rank):
        rows[i][i] = mone
    for k, rho in enumerate(pres.root_system.roots):
        sign = one if rho[odd] % 2 else mone
        rows[pres.root_basis_index(_vneg(rho))][rank + k] = sign
    return Matrix.from_rows(ring, rows)
