import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lieform import (DimensionMismatch, DualNumbers, IntegersModPk,
                     LocalizedAtP, Matrix, NotASubspace, PrimeField, QQ,
                     RingMismatch, Scalar, Singular, UnsupportedRing, ZZ, det,
                     inverse, kernel, rank, saturate, solve_linear)
from lieform.matrices import pivots

F5 = PrimeField(5)
F2 = PrimeField(2)


def M(ring, rows):
    return Matrix.from_rows(ring, rows)


def test_construction_and_access():
    m = M(ZZ, [[1, 2], [3, 4]])
    assert m.raw(1, 0) == 3
    assert m[0, 1].value == 2
    assert m.col(1) == (2, 4)
    with pytest.raises(DimensionMismatch):
        M(ZZ, [[1, 2], [3]])


def test_arithmetic_mod_p():
    a = M(F5, [[1, 2], [3, 4]])
    b = M(F5, [[2, 0], [1, 3]])
    assert (a @ b).rows() == [[4, 1], [0, 2]]
    assert (a + b).rows() == [[3, 2], [4, 2]]
    assert a.transpose().rows() == [[1, 3], [2, 4]]


def test_rank_and_kernel():
    m = M(F5, [[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    assert rank(m) == 2
    k = kernel(m)
    assert k.ncols == 1
    assert (m @ k).is_zero()
    assert rank(M(QQ, [[1, 2], [2, 4]])) == 1


def test_solve_deterministic_free_variables():
    # one equation, three unknowns: free coordinates pivot to zero
    a = M(QQ, [[1, 2, 3]])
    b = M(QQ, [[6]])
    sol = solve_linear(a, b)
    assert sol.col(0) == (Fraction(6), Fraction(0), Fraction(0))


def test_solve_inconsistent():
    a = M(QQ, [[1, 1], [1, 1]])
    b = M(QQ, [[1], [2]])
    assert solve_linear(a, b) is None


def test_solve_over_local_ring():
    z25 = IntegersModPk(5, 2)
    a = M(z25, [[2, 1], [1, 1]])
    b = M(z25, [[1], [0]])
    sol = solve_linear(a, b)
    assert (a @ sol) == b


@pytest.mark.parametrize("ring, a, b", [
    (IntegersModPk(5, 2), 5, 10),            # 5 x = 10 mod 25: x = 2
    (LocalizedAtP(5), 5, 10),                # 5 x = 10 in Z_(5): x = 2
    (DualNumbers(F5), (0, 1), (0, 1)),       # eps x = eps: x = 1
], ids=["Z/25", "Z_(5)", "F5[eps]"])
def test_solve_with_only_non_unit_pivots(ring, a, b):
    # no entry of a is a unit, yet each system has a solution
    a, b = M(ring, [[a]]), M(ring, [[b]])
    sol = solve_linear(a, b)
    assert sol is not None and a @ sol == b


def test_solve_localized_with_non_unit_columns():
    # b = a x for a p-integral x: the system has a solution by construction
    import random
    z5 = LocalizedAtP(5)
    rng = random.Random(5)
    for _ in range(40):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        a = M(z5, [[Fraction(5 * rng.randint(-9, 9), rng.choice((1, 2, 3)))
                    for _ in range(c)] for _ in range(r)])
        x = M(z5, [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 7)))] for _ in range(c)])
        sol = solve_linear(a, a @ x)
        assert sol is not None and a @ sol == a @ x


SMALL_CHAIN_RINGS = {"Z/4": IntegersModPk(2, 2), "Z/8": IntegersModPk(2, 3),
                     "Z/9": IntegersModPk(3, 2), "F2[eps]": DualNumbers(F2),
                     "F3[eps]": DualNumbers(PrimeField(3))}


def _leibniz_det(ring, a):
    from itertools import permutations
    total = ring.zero()
    for perm in permutations(range(a.nrows)):
        term = ring.one()
        for i, j in enumerate(perm):
            term = ring.mul(term, a.raw(i, j))
        odd = sum(x > y for i, x in enumerate(perm) for y in perm[i + 1:]) % 2
        total = ring.add(total, ring.neg(term) if odd else term)
    return total


@pytest.mark.parametrize("name", sorted(SMALL_CHAIN_RINGS))
def test_solve_and_det_agree_with_brute_force(name):
    # every system of at most 3 x 3 with one right-hand side, entries
    # biased to non-units: solve_linear finds a solution exactly when the
    # image of a, enumerated in full, contains b
    import random
    ring = SMALL_CHAIN_RINGS[name]
    if ring.kind == "integers_mod_pk":
        elements = list(range(ring.modulus))
    else:
        elements = [(x, y) for x in range(ring.base.p) for y in range(ring.base.p)]
    non_units = [v for v in elements if not ring.is_unit(v)]
    rng = random.Random(2)
    solvable = 0
    for _ in range(400):
        r, c = rng.randint(1, 3), rng.randint(1, 3)
        a, b = [M(ring, [[rng.choice(non_units if rng.random() < 0.75 else elements)
                          for _ in range(k)] for _ in range(r)]) for k in (c, 1)]
        image = {(ring.zero(),) * r}
        for j in range(c):
            multiples = {tuple(ring.mul(t, v) for v in a.col(j)) for t in elements}
            image = {tuple(map(ring.add, v, w)) for v in image for w in multiples}
        sol = solve_linear(a, b)
        assert (sol is not None) == (b.data in image)
        if sol is not None:
            solvable += 1
            assert a @ sol == b
        if r == c:
            assert det(a) == _leibniz_det(ring, a)
    assert 100 <= solvable < 350


def test_inverse_and_singular():
    m = M(F5, [[1, 1], [0, 2]])
    assert (m @ inverse(m)) == Matrix.identity(F5, 2)
    with pytest.raises(Singular):
        inverse(M(F5, [[1, 2], [2, 4]]))
    z25 = IntegersModPk(5, 2)
    u = M(z25, [[7, 1], [3, 1]])
    assert (u @ inverse(u)) == Matrix.identity(z25, 2)


def test_determinants_by_ring():
    assert det(M(ZZ, [[2, 1], [1, 2]])) == 3
    assert det(M(ZZ, [[0, 1], [1, 0]])) == -1
    assert det(M(QQ, [[Fraction(1, 2), 1], [1, Fraction(1, 3)]])) == Fraction(-5, 6)
    assert det(M(F5, [[2, 1], [1, 2]])) == 3
    assert det(M(IntegersModPk(3, 2), [[2, 1], [1, 2]])) == 3
    assert det(M(LocalizedAtP(3), [[Fraction(1, 2), 0], [0, 2]])) == 1


def test_dual_number_determinant():
    d = DualNumbers(F5)
    # det(A + eps B) = det A + eps * sum_i det(A with row i from B)
    m = M(d, [[(1, 1), (2, 0)], [(0, 0), (1, 3)]])
    # A = [[1,2],[0,1]], B = [[1,0],[0,3]]: detA = 1, correction = 1*1 + 3*1 = 4
    assert det(m) == (1, 4)


@pytest.mark.parametrize("p", [5, 7])
def test_dual_number_determinant_matches_the_row_replacement_sum(p):
    # det(A + eps B) = det A + eps * sum_i det(A with row i from B), for a
    # unit det A and for a singular A alike
    import random
    base = PrimeField(p)
    d = DualNumbers(base)
    rng = random.Random(p)
    singular = 0
    for trial in range(60):
        n = rng.randint(1, 6)
        a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        b = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if trial % 3 == 0 and n > 1:        # force a singular A
            a[-1] = [(x + 2 * y) % p for x, y in zip(a[0], a[1 % (n - 1)])]
        d0 = det(M(base, a))
        d1 = sum(det(M(base, [b[r] if r == i else a[r] for r in range(n)]))
                 for i in range(n)) % p
        singular += d0 == 0
        assert det(M(d, [[(x, y) for x, y in zip(ra, rb)]
                         for ra, rb in zip(a, b)])) == (d0, d1)
    assert 20 <= singular < 60


@pytest.mark.parametrize("ring", [F2, F5, PrimeField(2097143), QQ], ids=str)
def test_field_determinant_matches_integer_bareiss(ring):
    # over a field det is the product of the pivots times the sign of the
    # row swaps; fraction-free Bareiss on integer representatives (scaled
    # to integers over QQ) is the reference
    import random
    from lieform.matrices import _bareiss_det_int
    rng = random.Random(11)
    singular = 0
    for trial in range(80):
        n = rng.randint(0, 7)
        if ring == QQ:
            den = rng.randint(1, 4)
            ints = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            rows = [[Fraction(x, den) for x in r] for r in ints]
        else:
            ints = rows = [[rng.choice((0, 0, 1, ring.p - 1, rng.randrange(ring.p)))
                            for _ in range(n)] for _ in range(n)]
        if trial % 4 == 0 and n > 1:        # force a singular matrix
            k = rng.randrange(1, n)
            ints[k] = [2 * x for x in ints[0]]
            rows[k] = [2 * x for x in rows[0]]
        want = (Fraction(_bareiss_det_int(ints), den ** n) if ring == QQ
                else _bareiss_det_int(ints) % ring.p)
        got = det(M(ring, rows))
        assert got == want and type(got) is type(want)
        singular += got == 0
    assert 15 <= singular < 80


def test_localized_determinant_with_a_pivot_divisible_by_p():
    # the first unit of column 0 is in row 1; the value is a unit
    z5 = LocalizedAtP(5)
    m = M(z5, [[5, 1], [1, Fraction(1, 2)]])
    assert det(m) == Fraction(3, 2)
    assert det(M(z5, [[5, 10], [1, 2]])) == 0


def test_bareiss_on_larger_integer_matrix():
    m = M(ZZ, [[3, 1, 4, 1], [5, 9, 2, 6], [5, 3, 5, 8], [9, 7, 9, 3]])
    assert det(m) == 98


def test_elimination_refuses_the_integers():
    # over Z a unit pivot is +-1, so pivots would miss those of 2 and of
    # [[2, 1], [4, 3]]; det keeps Bareiss there
    for rows in ([[2, 1], [4, 3]], [[2]]):
        with pytest.raises(UnsupportedRing):
            pivots(M(ZZ, rows))
    with pytest.raises(UnsupportedRing):
        solve_linear(M(ZZ, [[2]]), M(ZZ, [[4]]))
    assert det(M(ZZ, [[2, 1], [4, 3]])) == 2


def test_saturate_divides_out_p():
    lat = Matrix.identity(QQ, 2)
    w = M(QQ, [[3], [3]])
    s = saturate(lat, w, 3)
    assert s.ncols == 1
    assert s.col(0) == (Fraction(1), Fraction(1))


def test_saturate_keeps_saturated_basis():
    lat = Matrix.identity(QQ, 2)
    w = M(QQ, [[1], [3]])
    s = saturate(lat, w, 3)
    assert s.ncols == 1
    # (1,3)/3 is not in the lattice, so nothing to divide
    v = s.col(0)
    assert v[0] != 0 and v[1] / v[0] == 3


def test_saturate_counterexample_lattice():
    # lattice containing (e0+e2)/2; the span of {e0, e2} meets it in a
    # rank-2 module containing that half-sum
    lat = M(QQ, [[Fraction(1, 2), 0, 0], [0, 1, 0], [Fraction(1, 2), 0, 1]])
    w = M(QQ, [[1, 0], [0, 0], [0, 1]])
    s = saturate(lat, w, 2)
    assert s.ncols == 2
    half = Matrix.column(QQ, [Fraction(1, 2), 0, Fraction(1, 2)])
    sol = solve_linear(s, half)
    assert sol is not None and all(x.denominator % 2 for x in sol.data)


_SATURATE_DEPENDENT_MOD_P = """
from fractions import Fraction
from lieform import Matrix, QQ, saturate
sub = Matrix.from_rows(QQ, [[1, 0], [0, 1], [Fraction(1, 3), Fraction(1, 3)]])
s = saturate(Matrix.identity(QQ, 3), sub, 3)
print([list(map(str, s.col(j))) for j in range(s.ncols)])
"""


def test_saturate_terminates_when_rows_are_dependent_mod_p(child_env):
    # the subspace rows (3, 0, 1) and (0, 3, 1) agree mod 3; the loop must
    # divide p out of their left dependency, not chase a right null vector
    out = subprocess.run([sys.executable, "-c", _SATURATE_DEPENDENT_MOD_P], env=child_env,
                         check=True, capture_output=True, text=True, timeout=30).stdout
    assert out.strip() == "[['2', '1', '1'], ['0', '3', '1']]"


def test_solve_with_no_unknowns_keeps_rhs_width():
    for ring in (F5, PrimeField(2097169), QQ, IntegersModPk(5, 2)):
        a = M(ring, [[], [], []])
        sol = solve_linear(a, Matrix.zeros(ring, 3, 2))
        assert (sol.nrows, sol.ncols) == (0, 2)
        assert solve_linear(a, M(ring, [[1], [0], [0]])) is None


def test_saturate_rejects_outside_span():
    lat = M(QQ, [[1], [0], [0]])
    w = M(QQ, [[0], [1], [0]])
    with pytest.raises(NotASubspace):
        saturate(lat, w, 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_mod_p_rank_bounded_by_rational_rank(seed):
    import random
    rng = random.Random(seed)
    rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
    rq = rank(M(QQ, rows))
    for p in (2, 3, 5):
        rp = rank(M(PrimeField(p), rows))
        assert rp <= rq


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_solve_roundtrip_mod_p(seed):
    import random
    rng = random.Random(seed)
    a = M(F5, [[rng.randrange(5) for _ in range(3)] for _ in range(4)])
    x = M(F5, [[rng.randrange(5)] for _ in range(3)])
    b = a @ x
    sol = solve_linear(a, b)
    assert sol is not None and (a @ sol) == b


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_kernel_times_matrix_is_zero(seed):
    import random
    rng = random.Random(seed)
    a = M(QQ, [[rng.randint(-5, 5) for _ in range(4)] for _ in range(2)])
    k = kernel(a)
    assert k.ncols == 4 - rank(a)
    if k.ncols:
        assert (a @ k).is_zero()


# ---------------------------------------------------------------------------
# pinned results of the elimination routines
#
# sha256 of repr() of every result below, taken before the elimination was
# folded into one echelon; the fold must not change a single output.  The
# Z/25, Z_(5) and F5[eps] digests were retaken when the elimination became
# complete on these rings: a record changed only where a None solve became
# a solution (which a @ sol == b checks) or pivots(a) gained the pivots of
# least valuation.

PINNED_RINGS = {
    "F3": PrimeField(3), "F7": PrimeField(7), "F65537": PrimeField(65537),
    "F2097143": PrimeField(2097143), "F2097169": PrimeField(2097169),
    "QQ": QQ, "Z/25": IntegersModPk(5, 2), "Z_(5)": LocalizedAtP(5),
    "F5[eps]": DualNumbers(F5),
}

PINNED_DIGESTS = {
    "F3": "bb5adc3dab019ef06be65f99e970f5697621a603abce50eafb4eb4aee03968b1",
    "F7": "fa45e4937fee91ce8da9cc3b56923b1d64ba46ffa75d20d1f991b10367685c0f",
    "F65537": "aaef123d04b7f8cd5c1dbfac8124b4506f6da28cb2cfa34e8ec2cc7170ddf67d",
    "F2097143": "ded4c2078d48e3d59c0b321e523e6569051ac1e25edfe9858f6af9d324d28028",
    "F2097169": "3e782b059b8b69791e73791ae8e171f3126b3b762a996aec308ffef76d1b0b37",
    "QQ": "fea1e1c53a96534daa8d713ef6de002653a131a09a8de162eb2a1400db56be17",
    "Z/25": "9913af14fcab782476beece57b4ac130a7b6f8b907dd4ae5514939586bcc3069",
    "Z_(5)": "aad9e2098dc1016273fd2d6d4d4987f5bcd27fc8e9cf7a3ba6851f9950266256",
    "F5[eps]": "ce1676c27aa990384462dc882f26d51ac63da76b6faf5622b9b410d52b41e9ee",
}


def _pinned_entry(ring, rng):
    kind = ring.kind
    if kind == "prime_field":
        return rng.choice((0, 0, 1, ring.p - 1, rng.randrange(ring.p)))
    if kind == "rationals":
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if kind == "integers_mod_pk":
        return rng.choice((0, 5, 10, 1, rng.randrange(25)))
    if kind == "localized_at_p":
        return Fraction(rng.choice((0, 5, 1, -2, rng.randint(-9, 9))), rng.choice((1, 2, 3)))
    return (rng.choice((0, 1, rng.randrange(5))), rng.choice((0, rng.randrange(5))))


def _pinned_cases(ring, rng):
    """(a, b) pairs: square, tall, wide, singular, inconsistent, empty."""
    def rand(r, c):
        return M(ring, [[_pinned_entry(ring, rng) for _ in range(c)] for _ in range(r)])

    cases = [(rand(r, c), rand(r, k))
             for r, c, k in ((1, 1, 1), (3, 3, 2), (4, 4, 1), (5, 5, 3),
                             (6, 3, 1), (5, 2, 2), (2, 5, 1), (3, 6, 2))]
    for n in (3, 5):
        # last row the sum of the first two: singular, and inconsistent
        # unless the right-hand side follows the same rule
        a = rand(n, n).rows()
        a[-1] = [ring.add(x, y) for x, y in zip(a[0], a[1])]
        b = rand(n, 2).rows()
        b[-1] = [ring.add(b[0][0], b[1][0]), ring.add(ring.one(), ring.add(b[0][1], b[1][1]))]
        cases.append((M(ring, a), M(ring, b)))
    cases.append((Matrix.zeros(ring, 0, 3), Matrix.zeros(ring, 0, 2)))
    cases.append((M(ring, [[], [], []]), rand(3, 1)))
    cases.append((Matrix.zeros(ring, 3, 3), rand(3, 1)))
    return cases


def _pinned_record(ring, a, b):
    def shape(x):
        return (x.nrows, x.ncols, x.data)

    def attempt(fn, *args):
        try:
            return fn(*args)
        except (Singular, UnsupportedRing) as exc:
            return type(exc).__name__

    sol = solve_linear(a, b)
    if sol is not None:
        assert a @ sol == b
    ker = attempt(kernel, a)
    if isinstance(ker, Matrix):
        assert (a @ ker).is_zero()
    # a @ sol == b fixes the shape of sol, so only its entries are recorded
    rec = [None if sol is None else sol.data,
           ker if isinstance(ker, str) else shape(ker),
           pivots(a), attempt(rank, a)]
    if a.nrows == a.ncols:
        inv = attempt(inverse, a)
        if isinstance(inv, Matrix):
            assert inv @ a == Matrix.identity(ring, a.nrows) == a @ inv
            inv = shape(inv)
        rec.append(inv)
    return rec


@pytest.mark.parametrize("name", sorted(PINNED_RINGS))
def test_elimination_results_match_pinned_digest(name):
    import hashlib
    import random
    ring = PINNED_RINGS[name]
    rng = random.Random(7)
    records = [_pinned_record(ring, a, b)
               for _ in range(6) for a, b in _pinned_cases(ring, rng)]
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == PINNED_DIGESTS[name]


@pytest.mark.parametrize("name", ["QQ", "Z/25", "Z_(5)", "F5[eps]", "F2097169",
                                  "F7", "F2097143"])
def test_generic_product_matches_triple_sum(name):
    """The product skips zero entries; it must equal the textbook sum
    over l, term by term from zero, in value and type."""
    import random
    ring = PINNED_RINGS[name]
    rng = random.Random(7)
    zero = ring.zero()

    def rand(r, c):
        return Matrix(ring, r, c, tuple(_pinned_entry(ring, rng) for _ in range(r * c)))

    for n, k, m in ((1, 1, 1), (3, 4, 2), (5, 5, 5), (2, 6, 3), (4, 0, 3), (0, 3, 2), (3, 2, 0)):
        a, b = rand(n, k), rand(k, m)
        want = []
        for i in range(n):
            for j in range(m):
                acc = zero
                for l in range(k):
                    acc = ring.add(acc, ring.mul(a.raw(i, l), b.raw(l, j)))
                want.append(acc)
        got = a @ b
        assert (got.nrows, got.ncols) == (n, m)
        assert list(got.data) == want
        assert [type(x) for x in got.data] == [type(x) for x in want]


Q2 = M(QQ, [[1, 2], [3, 4]])
Z25 = IntegersModPk(5, 2)

# (call, error class, message): every named error of the matrix layer
MATRIX_ERRORS = [
    (lambda: M(F5, [[1, 2], [3]]), DimensionMismatch, "ragged rows"),
    (lambda: Matrix(QQ, 2, 2, (1, 2, 3)), DimensionMismatch,
     "a 2x2 matrix takes 4 entries, not 3"),
    (lambda: M(F5, [[Scalar(QQ, Fraction(1))]]), RingMismatch,
     "entry from Rationals() in PrimeField(p=5) matrix"),
    (lambda: M(F5, [[1]]) + M(QQ, [[1]]), RingMismatch, "PrimeField(p=5) vs Rationals()"),
    (lambda: Q2 - M(QQ, [[1, 2]]), DimensionMismatch, "2x2 vs 1x2"),
    (lambda: Q2 @ M(F5, [[1], [2]]), RingMismatch, "Rationals() vs PrimeField(p=5)"),
    (lambda: Q2 @ M(QQ, [[1, 2, 3]]), DimensionMismatch, "2x2 @ 1x3"),
    (lambda: Q2.hstack(M(QQ, [[1]])), DimensionMismatch, "hstack shape mismatch"),
    (lambda: rank(M(ZZ, [[1]])), UnsupportedRing, "rank needs a field-kind ring, got Integers()"),
    (lambda: solve_linear(Q2, M(F5, [[1], [2]])), RingMismatch, "Rationals() vs PrimeField(p=5)"),
    (lambda: solve_linear(Q2, M(QQ, [[1]])), DimensionMismatch, "lhs has 2 rows, rhs 1"),
    (lambda: kernel(M(Z25, [[5]])), UnsupportedRing, "kernel needs a field-kind ring"),
    (lambda: inverse(M(QQ, [[1, 2]])), DimensionMismatch, "inverse of a 1x2 matrix"),
    (lambda: inverse(M(QQ, [[1, 2], [2, 4]])), Singular, "matrix is not invertible"),
    (lambda: det(M(QQ, [[1, 2]])), DimensionMismatch, "determinant of a 1x2 matrix"),
    (lambda: saturate(M(F5, [[1]]), M(QQ, [[1]]), 5), UnsupportedRing,
     "saturation works on rational matrices"),
    (lambda: saturate(Q2, M(QQ, [[1]]), 5), DimensionMismatch, "ambient dimensions differ"),
    (lambda: saturate(M(QQ, [[1], [0]]), M(QQ, [[0], [1]]), 5), NotASubspace,
     "subspace is not inside the lattice span"),
    (lambda: saturate(Q2, M(QQ, [[1], [0]]), 0), ValueError, "0 is not prime"),
    (lambda: saturate(Q2, Matrix.zeros(QQ, 2, 0), 4), ValueError, "4 is not prime"),
]


@pytest.mark.parametrize("call,error,message", MATRIX_ERRORS)
def test_matrix_named_errors(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("p", [1, -1])
def test_saturate_at_a_unit_is_an_error(p, child_env):
    # the valuation at p = ±1 once looped forever, so this runs in a child
    # with a timeout
    code = ("from lieform import Matrix, QQ, saturate\n"
            "try:\n    saturate(Matrix.identity(QQ, 2), Matrix.column(QQ, [3, 0]), %d)\n"
            "except ValueError as exc:\n    print(exc)\n" % p)
    out = subprocess.run([sys.executable, "-c", code], env=child_env, check=True,
                         capture_output=True, text=True, timeout=5).stdout
    assert out.strip() == "%d is not prime" % p


def test_from_rows_takes_scalars_of_its_ring():
    a = M(F5, [[Scalar(F5, 3), 7], [Scalar.of(F5, -1), 0]])
    assert a.data == (3, 2, 4, 0)


def test_negation_and_str():
    a = M(QQ, [[Fraction(1, 2), -3], [0, 4]])
    assert (-a).rows() == [[Fraction(-1, 2), 3], [0, -4]]
    assert -a + a == Matrix.zeros(QQ, 2, 2)
    assert str(a) == "1/2 -3\n0 4"
    assert str(M(F5, [[1, 2], [3, 4]])) == "1 2\n3 4"
    assert str(-M(Z25, [[1, 0]])) == "24 0"


def test_saturate_of_an_empty_subspace():
    lattice = M(QQ, [[1, 0], [0, 5]])
    for empty in (Matrix.zeros(QQ, 2, 0), Matrix.zeros(QQ, 2, 1)):
        sat = saturate(lattice, empty, 5)
        assert (sat.nrows, sat.ncols) == (2, 0)
