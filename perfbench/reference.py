"""Independent reference for the perfectness table, from Cartan matrices.

Nothing here imports lieform.  The Cartan matrices use Bourbaki labels,
with A[i][j] = <alpha_j, alpha_i^vee>.  The roots are the orbit of the
simple roots under the simple reflections.  In a Chevalley basis the
Killing Gram is block-diagonal:

    kappa(H_i, H_j)     = sum over roots b of <b, alpha_i^vee> <b, alpha_j^vee>
    kappa(X_a, X_{-a})  = 1/2 sum over roots b of <b, a^vee>^2

so the form is perfect mod p exactly when p divides neither the
determinant of the H block nor any kappa(X_a, X_{-a}).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

TABLE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def cartan(series: str, n: int) -> list:
    """Cartan matrix of a Dynkin type, Bourbaki labelling."""
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, a_ij=-1, a_ji=-1):
        a[i][j], a[j][i] = a_ij, a_ji

    if series in "ABC":
        for i in range(n - 1):
            bond(i, i + 1)
        if series == "B" and n >= 2:      # alpha_n short
            bond(n - 2, n - 1, -1, -2)
        if series == "C" and n >= 2:      # alpha_n long
            bond(n - 2, n - 1, -2, -1)
    elif series == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif series == "E":                   # 1-3-4-5-...-n, 2 on 4
        bond(0, 2)
        bond(1, 3)
        for i in range(2, n - 1):
            bond(i, i + 1)
    elif series == "F":                   # alpha_1, alpha_2 long
        bond(0, 1)
        bond(1, 2, -2, -1)
        bond(2, 3)
    elif series == "G":                   # alpha_1 short
        bond(0, 1, -1, -3)
    else:
        raise ValueError("unknown series %r" % series)
    return a


def _symmetrizer(a: list) -> list:
    """Positive integers d_i with d_i a_ij = d_j a_ji: half the squared
    length of alpha_i, the shortest root having d = 1."""
    n = len(a)
    d = [None] * n
    d[0] = Fraction(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if a[i][j] and d[j] is None:
                d[j] = d[i] * a[i][j] / a[j][i]
                todo.append(j)
    low = min(d)
    return [int(x / low) for x in d]


@lru_cache(maxsize=None)
def roots(series: str, n: int) -> tuple:
    """All roots in simple-root coordinates."""
    a = cartan(series, n)
    simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    seen = set(simple)
    todo = list(simple)
    while todo:
        b = todo.pop()
        for i in range(n):
            c = sum(b[j] * a[i][j] for j in range(n))     # <b, alpha_i^vee>
            r = tuple(b[k] - (c if k == i else 0) for k in range(n))
            if r not in seen:
                seen.add(r)
                todo.append(r)
    return tuple(sorted(seen))


def dimension(series: str, n: int) -> int:
    return n + len(roots(series, n))


def _det(m: list) -> Fraction:
    m = [[Fraction(v) for v in row] for row in m]
    n, det = len(m), Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


@lru_cache(maxsize=None)
def killing_invariants(series: str, n: int) -> tuple:
    """(det of the H block, kappa(X_a, X_-a) for every positive root a)."""
    a = cartan(series, n)
    d = _symmetrizer(a)
    rs = roots(series, n)

    gram = [[d[i] * a[i][j] for j in range(n)] for i in range(n)]  # (alpha_i, alpha_j)
    cache = {}

    def pair(b, alpha):                                   # <b, alpha^vee>
        if alpha not in cache:
            v = [sum(gram[i][j] * alpha[j] for j in range(n)) for i in range(n)]
            cache[alpha] = (v, sum(x * y for x, y in zip(alpha, v)))
        v, norm = cache[alpha]
        q, r = divmod(2 * sum(x * y for x, y in zip(b, v)), norm)
        if r:
            raise ArithmeticError("non-integral Cartan integer")
        return q

    simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    hblock = [[sum(pair(b, si) * pair(b, sj) for b in rs) for sj in simple]
              for si in simple]
    xpairs = []
    for alpha in rs:
        if min(alpha) >= 0:
            xpairs.append(sum(pair(b, alpha) ** 2 for b in rs) // 2)
    return int(_det(hblock)), tuple(xpairs)


def perfect(series: str, n: int, p: int) -> bool:
    det, xpairs = killing_invariants(series, n)
    return det % p != 0 and all(x % p for x in xpairs)


def table_types(max_rank: int = 8) -> list:
    """The (series, rank) pairs of `lieform table`, B1 and C1 dropped."""
    out = [("A", r) for r in range(1, max_rank + 1)]
    out += [("B", r) for r in range(2, max_rank + 1)]
    out += [("C", r) for r in range(2, max_rank + 1)]
    out += [("D", r) for r in range(3, max_rank + 1)]
    out += [("E", r) for r in (6, 7, 8) if r <= max_rank]
    if max_rank >= 4:
        out.append(("F", 4))
    if max_rank >= 2:
        out.append(("G", 2))
    return out


def expected_table(max_rank: int, primes) -> dict:
    """(series, rank, p) -> perfect, for every cell of the table."""
    return {(s, r, p): perfect(s, r, p)
            for s, r in table_types(max_rank) for p in primes}


def killing_trace_ratio(series: str, n: int) -> int:
    """Killing form over trace form of the natural representation."""
    return {"A": 2 * (n + 1), "B": 2 * n - 1,
            "C": 2 * n + 2, "D": 2 * n - 2}[series]


def self_check() -> None:
    """Compare the reference with published values; raise on a mismatch."""
    dims = {("A", 1): 3, ("B", 2): 10, ("G", 2): 14, ("F", 4): 52,
            ("E", 6): 78, ("E", 7): 133, ("E", 8): 248, ("D", 4): 28}
    for (s, n), dim in dims.items():
        if dimension(s, n) != dim:
            raise AssertionError("dim %s%d is %d, expected %d"
                                 % (s, n, dimension(s, n), dim))
    bad = {"E8": {2, 3, 5}, "E7": {2, 3}, "E6": {2, 3}, "F4": {2, 3},
           "G2": {2, 3}, "A4": {2, 5}, "B3": {2, 5}, "C3": {2}, "C5": {2, 3},
           "D5": {2}, "B5": {2, 3}}
    for name, primes in bad.items():
        s, n = name[0], int(name[1:])
        got = {p for p in TABLE_PRIMES if not perfect(s, n, p)}
        if got != primes:
            raise AssertionError("%s degenerate at %s, expected %s"
                                 % (name, sorted(got), sorted(primes)))
