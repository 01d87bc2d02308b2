from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lieform import (DimensionMismatch, DualNumbers, IntegersModPk,
                     LocalizedAtP, Matrix, NotASubspace, PrimeField, QQ,
                     Singular, ZZ, det, inverse, kernel, rank, saturate,
                     solve_linear)
from lieform.matrices import rank_mod_p

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


def test_bareiss_on_larger_integer_matrix():
    m = M(ZZ, [[3, 1, 4, 1], [5, 9, 2, 6], [5, 3, 5, 8], [9, 7, 9, 3]])
    assert det(m) == 98


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


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_rank_mod_p_of_integer_array_matches_rank(seed):
    import random
    rng = random.Random(seed)
    # 2097169 is the first prime past the int64 elimination limit 2^21
    for p in (2, 3, 5, 2097143, 2097169):
        rows = [[rng.choice((0, 1, -1, p, 2 * p + 1, rng.randint(-10 ** 6, 10 ** 6)))
                 for _ in range(5)] for _ in range(4)]
        want = rank(M(ZZ, rows).map_to_ring(PrimeField(p)))
        assert rank_mod_p(np.array(rows, dtype=np.int64), p) == want
