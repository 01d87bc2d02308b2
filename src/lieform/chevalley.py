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
gives the index tables: `neg_index` and `sum_index` (a + b, or -1), the
latter from integer keys sum_j coords_j * base**j of the roots, and the
pairs with a root sum.  `_root_data` derives norms, string lengths,
Cartan pairings and coroots; the sign recursion runs on index pairs and
raises on any inexact division; `_check_constants` checks the sparse
constants (N != 0 exactly where a + b is a root, |N| = p + 1,
antisymmetry, negation rule); `verify_jacobi` then certifies the Jacobi
identity by checking that ad x is a derivation for the 2*rank generators
x = X_{±alpha_i}; a table that fails the certificate goes to the one full
Jacobi join, `liealg._jacobi_defects`, which also checks user tables.
All checks are plain Python and raise AssertionError (or its subclass
JacobiFailure), so `python -O` keeps them.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache, reduce
from itertools import chain, product

from .liealg import LieAlgebra, _jacobi_defects
from .matrices import Matrix, _commutator, _summed
from .rings import LieformError, Record, RingSpec, Scalar, ZZ
from .roots import DynkinType, InvalidRank, RootSystem, build_root_system


class NotClassical(LieformError):
    pass


class JacobiFailure(AssertionError):
    """A bracket table that breaks the Jacobi identity; names a failing pair."""


class ChevalleyPresentation(Record):
    dynkin: DynkinType
    root_system: RootSystem
    dim: int
    labels: tuple
    table: dict                            # (i,j) i<j -> tuple of (k, int)
    _unprinted = ("table",)

    @property
    def rank(self) -> int:
        return self.dynkin.rank

    @property
    def nconstants(self) -> dict:
        """N(alpha, beta) keyed by both roots, for every pair whose sum is
        a root, read off the table: [X_a, X_b] = N(a, b) X_(a+b)."""
        roots, r = self.root_system.roots, self.rank
        return {(roots[x], roots[y]): (self.table[(r + x, r + y)][0][1] if x < y
                                       else -self.table[(r + y, r + x)][0][1])
                for x, ys in enumerate(self.root_system._partners) for y in ys}

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
    out = defaultdict(list)
    for a in range(npos):
        for b in rs._partners[a]:
            if a < b < npos:
                out[rs.sum_index[a][b]].append((a, b))
    return dict(sorted(out.items()))


def _root_data(rs: RootSystem) -> tuple:
    """Norms, string lengths p(a, b) (largest q with b - q a a root),
    Cartan pairings <root k, alpha_i^vee> and coroot coordinates, per root
    index; a root's negative has its norm and the negated pairings and
    coroot."""
    d, half = rs.symmetrizer, len(rs.positive_roots)
    pairings = [tuple(sum(c * x for c, x in zip(row, r)) for row in rs.cartan)
                for r in rs.positive_roots]
    norms = [sum(di * x * p for di, x, p in zip(d, r, pr))
             for r, pr in zip(rs.positive_roots, pairings)]
    coroots = []
    for r, nrm in zip(rs.positive_roots, norms):
        coroot = [divmod(2 * dj * x, nrm) for dj, x in zip(d, r)]
        if any(rem for _, rem in coroot):
            raise AssertionError("coroots of %s are not integral" % (rs.dynkin,))
        coroots.append(tuple(m for m, _ in coroot))
    pairings += [tuple(-x for x in p) for p in pairings]
    coroots += [tuple(-x for x in c) for c in coroots]
    # p(a, b) >= 1 exactly where b - a is a root; root strings have at
    # most 4 roots
    s, neg = rs.sum_index, rs.neg_index
    strings = [[0] * (2 * half) for _ in range(2 * half)]
    for a, row in enumerate(strings):
        down = s[neg[a]]                   # c -> the index of root c - a
        for b in rs._partners[neg[a]]:
            q, c = 0, down[b]
            while c >= 0:
                q, c = q + 1, down[c]
            row[b] = q
    return norms * 2, strings, pairings, coroots


def _exact(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise AssertionError("structure constant %d/%d is not integral" % (num, den))
    return q


def _sign_constants(rs: RootSystem, norms, strings) -> dict:
    """N(a, b) for all root index pairs with a + b a root, by the
    extraspecial-pair recursion; keys in the order they are set."""
    s, neg, nrm = rs.sum_index, rs.neg_index, norms
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
        set_orbit(a0, b0, strings[a0][b0] + 1)
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


def _check_constants(rs: RootSystem, nab: dict, strings: list) -> None:
    """The rules on the constants N(a, b) = nab.get((a, b), 0), in order;
    a failure names the least failing pair of root indices."""
    s, neg = rs.sum_index, rs.neg_index
    n = {key: v for key, v in nab.items() if v}

    def check(rule: str, bad: list) -> None:
        if bad:
            a, b = min(bad)
            raise AssertionError("%s fails for %s at (%s, %s)" % (
                rule, rs.dynkin, rs.roots[a], rs.roots[b]))

    extra = [(a, b) for a, b in n if s[a][b] < 0]
    # n holds every pair with a root sum iff it holds as many as there are
    missing = [] if len(n) - len(extra) == sum(map(len, rs._partners)) else [
        (a, b) for a, row in enumerate(rs._partners) for b in row if (a, b) not in n]
    check("N != 0 exactly where a + b is a root", extra + missing)
    # so the pairs of n are now those with a root sum
    check("|N(a, b)| = p + 1",
          [(a, b) for (a, b), v in n.items() if abs(v) != strings[a][b] + 1])
    check("N(b, a) = -N(a, b)",
          [key for (a, b), v in n.items() if n.get((b, a)) != -v
           for key in ((a, b), (b, a))])
    check("N(-a, -b) = -N(a, b)",
          [key for (a, b), v in n.items() if n.get((neg[a], neg[b])) != -v
           for key in ((a, b), (neg[a], neg[b]))])


def _build_presentation(t: DynkinType) -> ChevalleyPresentation:
    if t.rank > 8:
        raise InvalidRank("structure constants capped at rank 8, got %s" % (t,))
    rs = build_root_system(t)
    rank, roots = t.rank, rs.roots
    norms, strings, pairings, coroots = _root_data(rs)
    nab = _sign_constants(rs, norms, strings)
    _check_constants(rs, nab, strings)

    # assemble the full bracket table: [H_i, X_k], then [X_k1, X_k2], k1 < k2
    table: dict = {}
    for i in range(rank):
        for k, row in enumerate(pairings, rank):
            if row[i]:
                table[(i, k)] = ((k, row[i]),)
    for a, row in enumerate(rs._partners):
        na = rs.neg_index[a]
        # a < na: a is positive, and [X_a, X_-a] is the coroot H_a
        for b in sorted(row + (na,)) if a < na else row:
            if b > a:
                table[(rank + a, rank + b)] = (
                    ((rank + rs.sum_index[a][b], nab[(a, b)]),) if b != na
                    else tuple((m, c) for m, c in enumerate(coroots[a]) if c))
    labels = tuple("H%d" % (i + 1) for i in range(rank)) + tuple(
        "X[%s]" % ",".join(str(c) for c in rho) for rho in roots)
    pres = ChevalleyPresentation(t, rs, rank + len(roots), labels, table)
    verify_jacobi(pres)
    return pres


chevalley_presentation = lru_cache(maxsize=None)(_build_presentation)


def _generators(pres: ChevalleyPresentation):
    """The basis indices of the X_{alpha_i} and then the X_{-alpha_i}, if
    the table shows that they generate the algebra over Q, else None.

    The table must give [X_{alpha_i}, X_{-alpha_i}] as one nonzero term at
    H_i and, for each non-simple positive root g with first special pair
    (a, b), [X_a, X_b] and [X_-a, X_-b] as one nonzero term at X_g and
    X_-g.  a and b are lower than g, so by induction on height every
    basis vector is, over Q, a multiple of an iterated bracket of
    generators."""
    rs, r = pres.root_system, pres.rank
    neg = rs.neg_index
    simple = [rs.root_index(tuple(int(j == i) for j in range(r))) for i in range(r)]
    steps = [(r + a, r + neg[a], i) for i, a in enumerate(simple)]
    for g, ((a, b), *_) in _special_pairs(rs).items():
        steps += [(r + a, r + b, r + g), (r + neg[a], r + neg[b], r + neg[g])]
    for u, w, target in steps:
        terms = pres.bracket(u, w)
        if len(terms) != 1 or terms[0][0] != target or not terms[0][1]:
            return None
    return tuple(r + a for a in simple) + tuple(r + neg[a] for a in simple)


def _derivation_defect(x: int, rows: dict, by_output: dict) -> bool:
    """Whether ad x fails to be a derivation of the bracket, that is, some
    J(x, u, w) = [x, [u, w]] - [[x, u], w] + [[x, w], u], u < w, is
    nonzero.  rows[i] lists the (j, k, c) with [e_i, e_j] ∋ c e_k and
    by_output[m] the stored terms (u, w, c), [e_u, e_w] ∋ c e_m, u < w."""
    sums: dict = defaultdict(int)
    for m, l, v in rows.get(x, ()):                     # [x, e_m] ∋ v e_l
        for u, w, c in by_output.get(m, ()):            # [x, [e_u, e_w]]
            sums[u, w, l] += c * v
        for w, k, c in rows.get(l, ()):                 # [[x, e_m], e_w]
            if m < w:
                sums[m, w, k] -= v * c
            elif m > w:
                sums[w, m, k] += v * c
    return any(sums.values())


def verify_jacobi(pres: ChevalleyPresentation) -> int:
    """Check the Jacobi identity exactly over the integers; returns
    dim*(dim-1)/2, the number of pairs that [ad a, ad b] = ad[a, b] would
    check.

    The certificate is that ad x is a derivation of the bracket for each
    of the 2*rank generators x = X_{±alpha_i}.  That is enough: the x with
    ad x a derivation form a linear subspace D, closed under the bracket,
    since for x in D, ad[x, y] = [ad x, ad y], and a commutator of
    derivations is a derivation.  `_generators` reads off the table that
    the generators generate the algebra over Q, so D is all of it, and J
    vanishes over Q, hence over Z.  Both read the bracket as the
    antisymmetric extension of the stored terms [y, z], y < z.

    Where the table does not show generation, or a generator shows a
    defect, the full join `liealg._jacobi_defects` over every sorted
    triple decides, over the integers.  A nonzero sum raises
    JacobiFailure with the least failing key (b, a, l, c): pair (a, b)
    and entry (l, c) of the defect [ad a, ad b] - ad[a, b].
    """
    rows, by_output = defaultdict(list), defaultdict(list)
    for (i, j), ts in pres.table.items():
        for k, c in ts:
            rows[i].append((j, k, c))
            rows[j].append((i, k, -c))
            by_output[k].append((i, j, c))
    gens = _generators(pres)
    if gens is None or any(_derivation_defect(x, rows, by_output) for x in gens):
        bad = _jacobi_defects(ZZ, pres.table)
        if bad:
            (b, a, l, c), val = min(bad.items())
            x, y = pres.labels[a], pres.labels[b]
            raise JacobiFailure(
                "Jacobi fails at pair (%s, %s) of %s: entry (%s, %s) of "
                "[ad %s, ad %s] - ad[%s, %s] is %d" % (
                    x, y, pres.dynkin.name, pres.labels[l], pres.labels[c],
                    x, y, x, y, val))
    return pres.dim * (pres.dim - 1) // 2


# ---------------------------------------------------------------------------
# classical matrix realizations
# ---------------------------------------------------------------------------

def _simple_triples(t: DynkinType):
    """(x_i, y_i, h_i) dict-matrices for each node of the classical type t,
    plus the module rank."""
    n = t.rank
    s = t.series
    if s == "A":
        trip = [({(i, i + 1): 1}, {(i + 1, i): 1},
                 {(i, i): 1, (i + 1, i + 1): -1}) for i in range(n)]
        return trip, n + 1
    # the nodes e_i -> e_{i+1}: coordinates 1..2n for B, 0..2n-1 for C and D
    lo = 1 if s == "B" else 0
    trip = [({(i, i + 1): 1, (n + i + 1, n + i): -1},
             {(i + 1, i): 1, (n + i, n + i + 1): -1},
             {(i, i): 1, (i + 1, i + 1): -1,
              (n + i, n + i): -1, (n + i + 1, n + i + 1): 1})
            for i in range(lo, lo + n - 1)]
    if s == "B":
        # so(2n+1) for x_0^2 + x_1 x_{n+1} + ... + x_n x_{2n}
        trip.append((
            {(n, 0): 2, (0, 2 * n): -1},
            {(0, n): 1, (2 * n, 0): -2},
            {(n, n): 2, (2 * n, 2 * n): -2}))
        return trip, 2 * n + 1
    if s == "C":
        trip.append((
            {(n - 1, 2 * n - 1): 1},
            {(2 * n - 1, n - 1): 1},
            {(n - 1, n - 1): 1, (2 * n - 1, 2 * n - 1): -1}))
    else:
        trip.append((
            {(n - 2, 2 * n - 1): 1, (n - 1, 2 * n - 2): -1},
            {(2 * n - 1, n - 2): 1, (2 * n - 2, n - 1): -1},
            {(n - 2, n - 2): 1, (n - 1, n - 1): 1,
             (2 * n - 2, 2 * n - 2): -1, (2 * n - 1, 2 * n - 1): -1}))
    return trip, 2 * n


class MatrixRealization(Record):
    presentation: ChevalleyPresentation
    module_rank: int
    matrices: tuple  # Matrix over Integers, one per basis label

    @property
    def ring(self) -> RingSpec:
        return ZZ


@lru_cache(maxsize=None)
def matrix_realization(t: DynkinType) -> MatrixRealization:
    if t.series not in "ABCD":
        raise NotClassical("no defining realization for series %s" % t.series)
    pres = chevalley_presentation(t)
    rs = pres.root_system
    roots, neg = rs.roots, rs.neg_index
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
            prod = _commutator(ZZ, imgs[x], imgs[y])
            if any(v % nval for v in prod.values()):
                raise AssertionError("realization of %s: [X_a, X_b] is not "
                                     "divisible by N(a, b) at %s" % (t, roots[z]))
            imgs[z] = {k: sign * v // nval for k, v in prod.items()}
    mats = [trip[i][2] for i in range(rank)] + imgs
    # bracket compatibility [rho x, rho y] = rho[x, y] for the generators x
    # (every x if the table does not show generation) against every y:
    # with Jacobi certified, the x for which it holds form a subalgebra, so
    # it then holds for all of it
    for i, j in product(_generators(pres) or range(pres.dim), range(pres.dim)):
        expect = ((key, -c * v) for k, c in pres.bracket(i, j) for key, v in mats[k].items())
        if _summed(ZZ, chain(_commutator(ZZ, mats[i], mats[j]).items(), expect)):
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
    to = pres.root_system.neg_index if swap else range(len(xs))
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
    if len(lam) != pres.rank:
        raise ValueError("lam has length %d, the rank is %d" % (len(lam), pres.rank))
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
    if tuple(alpha) not in pres.root_system.roots:
        raise ValueError("%s is not a root of %s" % (tuple(alpha), pres.dynkin))
    mone, one = ring.coerce(-1), ring.one()
    return _monomial(pres, ring, mone, [one if rho[odd] % 2 else mone
                                        for rho in pres.root_system.roots], True)
