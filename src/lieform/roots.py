"""Dynkin types, root systems, center orders, and p-type classification.

Roots are integer coordinate vectors in the simple-root basis.  The Cartan
matrix convention is a[i][j] = <alpha_j, alpha_i^vee>, so the eigenvalue of
H_i on the root space of beta is the i-th entry of A @ coords(beta).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from typing import Iterable

from .matrices import Matrix, det
from .rings import LieformError, ZZ, Record, is_prime


class InvalidRank(LieformError):
    pass


_RANK_RULES = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 1,
    "C": lambda n: n >= 1,
    "D": lambda n: n >= 3,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}

_ROOT_COUNT = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
}


class DynkinType(Record):
    series: str
    rank: int

    def __post_init__(self):
        if self.series not in _RANK_RULES:
            raise InvalidRank("unknown series %r" % (self.series,))
        if not isinstance(self.rank, int) or not _RANK_RULES[self.series](self.rank):
            raise InvalidRank("no type %s%s" % (self.series, self.rank))

    @property
    def name(self) -> str:
        return "%s%d" % (self.series, self.rank)

    def __str__(self) -> str:
        return self.name


def cartan_matrix(t: DynkinType) -> tuple:
    """Cartan matrix as nested integer tuples."""
    n = t.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, vij=-1, vji=-1):
        a[i][j] = vij
        a[j][i] = vji

    if t.series in ("A", "B", "C"):
        for i in range(n - 1):
            bond(i, i + 1)
        if n >= 2 and t.series == "B":
            # last simple root short: <alpha_n, alpha_{n-1}^vee> = -1,
            # <alpha_{n-1}, alpha_n^vee> = -2
            bond(n - 2, n - 1, -1, -2)
        if n >= 2 and t.series == "C":
            bond(n - 2, n - 1, -2, -1)
    elif t.series == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif t.series == "E":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 4, n - 1)
    elif t.series == "F":
        bond(0, 1)
        bond(1, 2, -1, -2)
        bond(2, 3)
    elif t.series == "G":
        bond(0, 1, -1, -3)
    return tuple(tuple(row) for row in a)


def _symmetrizer(cartan: tuple) -> tuple:
    """Positive integers d_i with d_i*a_ij = d_j*a_ji, scaled to smallest."""
    n = len(cartan)
    d = [None] * n
    d[0] = Fraction(1)
    # connected diagram: propagate along bonds from node 0
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * cartan[i][j] / cartan[j][i]
                todo.append(j)
    if any(v is None for v in d):
        raise AssertionError("Cartan matrix %s is not connected" % (cartan,))
    denom = 1
    for v in d:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [int(v * denom) for v in d]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return tuple(v // g for v in ints)


class RootSystem(Record):
    dynkin: DynkinType
    cartan: tuple
    positive_roots: tuple      # canonical order: height, then lex
    roots: tuple               # positives then matching negatives
    symmetrizer: tuple
    _root_set: frozenset
    _index: dict
    _hidden = ("_index",)
    _unprinted = ("_root_set",)

    @property
    def rank(self) -> int:
        return self.dynkin.rank

    def is_root(self, coords: tuple) -> bool:
        return coords in self._root_set

    def root_index(self, coords: tuple) -> int:
        return self._index[coords]

    def height(self, coords: tuple) -> int:
        return sum(coords)

    def pairing(self, coords: tuple, i: int) -> int:
        """<beta, alpha_i^vee> for beta given by coords."""
        return sum(self.cartan[i][j] * coords[j] for j in range(self.rank))

    def inner(self, a: tuple, b: tuple) -> int:
        """(a, b) under the symmetrized form, integer-scaled."""
        d, c = self.symmetrizer, self.cartan
        n = self.rank
        return sum(a[i] * b[j] * d[i] * c[i][j] for i in range(n) for j in range(n))

    def norm2(self, coords: tuple) -> int:
        return self.inner(coords, coords)

    def coroot_coords(self, coords: tuple) -> tuple:
        """H_alpha = sum m_j H_j; the m_j are always integers for roots."""
        nrm = self.norm2(coords)
        out = []
        for j in range(self.rank):
            m, r = divmod(2 * self.symmetrizer[j] * coords[j], nrm)
            if r:
                raise AssertionError("coroot of %s is not integral" % (coords,))
            out.append(m)
        return tuple(out)

    def string_p(self, alpha: tuple, beta: tuple) -> int:
        """Largest q >= 0 with beta - q*alpha a root."""
        q = 0
        cur = tuple(b - a for a, b in zip(alpha, beta))
        while cur in self._root_set:
            q += 1
            cur = tuple(c - a for a, c in zip(alpha, cur))
        return q

    # -- index data, in `roots` order: roots named by their index

    @cached_property
    def neg_index(self) -> tuple:
        """neg_index[k] is the index of -roots[k]."""
        n = len(self.roots)
        return tuple((k + n // 2) % n for k in range(n))

    @cached_property
    def _keys(self) -> tuple:
        """sum_j coords_j * base**j for each root.  With base = 4*c + 1, c
        the largest root coordinate (6, in E8), the key is one-to-one on
        vectors with coordinates in [-2c, 2c], so on all sums of two roots,
        and the key of a sum is the sum of the keys."""
        base = 4 * max(max(r) for r in self.positive_roots) + 1
        powers = [base ** j for j in range(self.rank)]
        return tuple(sum(c * w for c, w in zip(r, powers)) for r in self.roots)

    @cached_property
    def sum_index(self) -> tuple:
        """sum_index[a][b] is the index of roots[a] + roots[b], or -1 when
        that sum is not a root (zero included).

        Rows of positive roots are key lookups; the row of -a is the row
        of a with both the columns and the entries negated."""
        keys = self._keys
        at = {k: i for i, k in enumerate(keys)}.get
        half = len(keys) // 2
        neg = (self.neg_index + (-1,)).__getitem__   # -1, no root, stays -1
        rows = [tuple([at(ka + kb, -1) for kb in keys]) for ka in keys[:half]]
        return tuple(rows + [tuple(map(neg, r[half:] + r[:half])) for r in rows])

    @cached_property
    def _partners(self) -> tuple:
        """Per root index a, the indices b with roots[a] + roots[b] a root,
        in increasing order."""
        half = len(self.roots) // 2
        pos = [tuple([b for b, g in enumerate(row) if g >= 0])
               for row in self.sum_index[:half]]
        neg = self.neg_index
        return tuple(pos + [tuple(sorted([neg[b] for b in row])) for row in pos])


def _reflect(cartan: tuple, i: int, coords: tuple) -> tuple:
    pair = sum(cartan[i][j] * coords[j] for j in range(len(coords)))
    out = list(coords)
    out[i] -= pair
    return tuple(out)


@lru_cache(maxsize=None)
def build_root_system(t: DynkinType) -> RootSystem:
    """Close the simple roots under simple reflections."""
    cartan = cartan_matrix(t)
    n = t.rank
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(n):
                r = _reflect(cartan, i, beta)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    expected = _ROOT_COUNT[t.series](n)
    positives = sorted((r for r in seen if sum(r) > 0),
                       key=lambda r: (sum(r), r))
    if not len(seen) == 2 * len(positives) == expected:
        raise AssertionError("%s has %d roots, %d positive; expected %d"
                             % (t, len(seen), len(positives), expected))
    if any(tuple(-c for c in r) not in seen for r in seen):
        raise AssertionError("roots of %s are not closed under negation" % (t,))
    roots = tuple(positives) + tuple(tuple(-c for c in r) for r in positives)
    index = {r: k for k, r in enumerate(roots)}
    return RootSystem(t, cartan, tuple(positives), roots,
                      _symmetrizer(cartan), frozenset(seen), index)


def center_order(t: DynkinType) -> int:
    return abs(det(Matrix.from_rows(ZZ, cartan_matrix(t))))


class PTypeReport(Record):
    set: tuple
    p: int
    is_type1: bool
    is_type2: bool
    is_type3: bool


def classify_p_type(s: Iterable[int], p: int) -> PTypeReport:
    """Which of the three weight-set conditions hold at p.

    type 1: elements pairwise distinct mod p; type 2: set inside
    [-p+1, p-1]; type 3: the doubled set inside [-p+1, p-1].  The types
    are independent; a set may satisfy several.
    """
    if not is_prime(p):
        raise ValueError("%r is not prime" % (p,))
    vals = tuple(sorted(set(int(v) for v in s)))
    t1 = len(set(v % p for v in vals)) == len(vals)
    t2 = all(-p < v < p for v in vals)
    t3 = all(-p < 2 * v < p for v in vals)
    return PTypeReport(vals, p, t1, t2, t3)
