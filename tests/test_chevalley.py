import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from lieform import (DynkinType, Matrix, NotClassical, PrimeField, QQ, ZZ,
                     chevalley_involution, chevalley_presentation,
                     is_lie_automorphism, kernel, matrix_realization,
                     torus_automorphism, triple_flip, verify_jacobi)
from lieform.chevalley import JacobiFailure

F5 = PrimeField(5)


def test_sl2_structure_constants_frozen():
    pres = chevalley_presentation(DynkinType("A", 1))
    assert pres.dim == 3
    assert pres.labels == ("H1", "X[1]", "X[-1]")
    assert dict(pres.table) == {
        (0, 1): ((1, 2),),
        (0, 2): ((2, -2),),
        (1, 2): ((0, 1),),
    }


def test_bracket_antisymmetry_and_diagonal():
    pres = chevalley_presentation(DynkinType("B", 2))
    assert pres.bracket(3, 3) == ()
    for i in range(pres.dim):
        for j in range(pres.dim):
            fwd = dict(pres.bracket(i, j))
            rev = dict(pres.bracket(j, i))
            assert fwd == {k: -c for k, c in rev.items()}


@pytest.mark.parametrize("t,bound", [
    (DynkinType("A", 3), 1), (DynkinType("D", 4), 1), (DynkinType("E", 6), 1),
    (DynkinType("B", 3), 2), (DynkinType("C", 3), 2), (DynkinType("F", 4), 2),
    (DynkinType("G", 2), 3),
], ids=str)
def test_structure_constant_bounds(t, bound):
    pres = chevalley_presentation(t)
    pairs = ((a, b) for (i, j) in pres.table for a, b in [(i, j)]
             if i >= pres.rank and j >= pres.rank)
    mx = 0
    for i, j in pairs:
        ra = pres.root_system.roots[i - pres.rank]
        rb = pres.root_system.roots[j - pres.rank]
        if tuple(x + y for x, y in zip(ra, rb)) in pres.root_system._root_set:
            mx = max(mx, max(abs(c) for _, c in pres.table[(i, j)]))
    assert mx == bound


@pytest.mark.parametrize("t", [DynkinType("A", 2), DynkinType("B", 3),
                               DynkinType("C", 4), DynkinType("D", 4),
                               DynkinType("F", 4), DynkinType("G", 2)], ids=str)
def test_jacobi_full_small(t):
    pres = chevalley_presentation(t)
    assert verify_jacobi(pres) > 0


@pytest.mark.parametrize("t", [DynkinType("E", 6), DynkinType("E", 7),
                               DynkinType("E", 8)], ids=str)
def test_jacobi_full_exceptional(t):
    pres = chevalley_presentation(t)
    n = pres.dim
    assert verify_jacobi(pres) == n * (n - 1) // 2


def test_jacobi_default_checks_all_pairs_at_every_rank():
    types = [DynkinType(s, r) for s, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
             for r in range(lo, 9)]
    types += [DynkinType("E", 6), DynkinType("E", 7), DynkinType("E", 8),
              DynkinType("F", 4), DynkinType("G", 2)]
    assert len(types) == 33
    for t in types:
        n = chevalley_presentation(t).dim
        assert verify_jacobi(chevalley_presentation(t)) == n * (n - 1) // 2


def test_jacobi_failure_names_its_witness():
    pres = chevalley_presentation(DynkinType("B", 3))
    # the two lowest root vectors in basis order: the check meets their
    # pair first, since every pair with a Cartan element still holds
    i, j = pres.root_basis_index((0, 0, 1)), pres.root_basis_index((0, 1, 0))
    assert (i, j) == (3, 4)
    (k, c), = pres.table[(i, j)]
    table = dict(pres.table)
    table[(i, j)] = ((k, c + 1),)
    bad = dataclasses.replace(pres, table=table)
    with pytest.raises(JacobiFailure) as err:
        verify_jacobi(bad)
    msg = str(err.value)
    assert "pair (X[0,0,1], X[0,1,0]) of B3" in msg
    assert "entry (H2, X[0,-1,-1])" in msg


@pytest.mark.parametrize("t,mrank", [
    (DynkinType("A", 1), 2), (DynkinType("A", 3), 4), (DynkinType("B", 3), 7),
    (DynkinType("C", 3), 6), (DynkinType("D", 4), 8),
], ids=str)
def test_realization_is_a_homomorphism(t, mrank):
    pres = chevalley_presentation(t)
    mr = matrix_realization(t)
    assert mr.module_rank == mrank
    mats = mr.stack_numpy()
    assert mats.shape == (pres.dim, mrank, mrank)
    for m in mats:
        assert m.trace() == 0
    for i in range(pres.dim):
        for j in range(i + 1, pres.dim):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            want = np.zeros_like(comm)
            for k, c in pres.bracket(i, j):
                want += c * mats[k]
            assert (comm == want).all()


def test_realization_fundamental_weights_sl2():
    mr = matrix_realization(DynkinType("A", 1))
    got = [m.rows() for m in mr.matrices]
    assert got == [[[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]]


@pytest.mark.parametrize("t,sym", [
    (DynkinType("A", 1), -1),   # sl2 preserves a symplectic form
    (DynkinType("B", 3), 1),
    (DynkinType("D", 4), 1),
    (DynkinType("C", 3), -1),
], ids=str)
def test_realization_invariant_form(t, sym):
    # solve X^T G + G X = 0 over Q for all basis matrices X; the space of
    # solutions must be one symmetric (orthogonal) or antisymmetric
    # (symplectic) nondegenerate form
    mr = matrix_realization(t)
    m = mr.module_rank
    rows = []
    for mat in mr.matrices:
        x = mat.rows()
        for a in range(m):
            for b in range(m):
                row = [Fraction(0)] * (m * m)
                for c in range(m):
                    row[c * m + b] += x[c][a]
                    row[a * m + c] += x[c][b]
                rows.append(row)
    ker = kernel(Matrix.from_rows(QQ, rows))
    assert ker.ncols == 1
    g = [[ker.col(0)[a * m + b] for b in range(m)] for a in range(m)]
    from lieform import det
    assert det(Matrix.from_rows(QQ, g)) != 0
    for a in range(m):
        for b in range(m):
            assert g[a][b] == sym * g[b][a]


def test_vector_rep_of_sl4_is_not_self_dual():
    mr = matrix_realization(DynkinType("A", 3))
    m = mr.module_rank
    rows = []
    for mat in mr.matrices:
        x = mat.rows()
        for a in range(m):
            for b in range(m):
                row = [Fraction(0)] * (m * m)
                for c in range(m):
                    row[c * m + b] += x[c][a]
                    row[a * m + c] += x[c][b]
                rows.append(row)
    assert kernel(Matrix.from_rows(QQ, rows)).ncols == 0


def test_realization_refuses_exceptional_types():
    for t in (DynkinType("E", 6), DynkinType("F", 4), DynkinType("G", 2)):
        with pytest.raises(NotClassical):
            matrix_realization(t)


def test_involution_frozen_and_squares_to_identity():
    pres = chevalley_presentation(DynkinType("A", 1))
    w = chevalley_involution(pres, ZZ)
    assert w.rows() == [[-1, 0, 0], [0, 0, -1], [0, -1, 0]]
    assert (w @ w) == Matrix.identity(ZZ, 3)
    g = pres.to_lie_algebra(QQ)
    wq = chevalley_involution(pres, QQ)
    assert is_lie_automorphism(g, wq)


def test_involution_is_automorphism_for_g2():
    pres = chevalley_presentation(DynkinType("G", 2))
    g = pres.to_lie_algebra(F5)
    assert is_lie_automorphism(g, chevalley_involution(pres, F5))


def test_torus_automorphism_frozen_and_multiplicative():
    pres = chevalley_presentation(DynkinType("A", 1))
    d2 = torus_automorphism(pres, F5, 2)
    assert d2.rows() == [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    d4 = torus_automorphism(pres, F5, 4)
    assert (d2 @ d2) == d4
    g = pres.to_lie_algebra(F5)
    assert is_lie_automorphism(g, d2)


def test_torus_automorphism_with_weight_vector():
    pres = chevalley_presentation(DynkinType("A", 2))
    g = pres.to_lie_algebra(F5)
    s = torus_automorphism(pres, F5, 2, lam=(1, 0))
    assert is_lie_automorphism(g, s)
    # lam = 0 gives the identity
    assert torus_automorphism(pres, F5, 2, lam=(0, 0)) == Matrix.identity(F5, 8)


def test_triple_flip_frozen_and_involutive():
    pres = chevalley_presentation(DynkinType("A", 1))
    f = triple_flip(pres, F5, (1,))
    assert f.rows() == [[4, 0, 0], [0, 0, 1], [0, 1, 0]]
    assert (f @ f) == Matrix.identity(F5, 3)
    g = pres.to_lie_algebra(F5)
    assert is_lie_automorphism(g, f)


def test_triple_flip_every_positive_root_b2():
    pres = chevalley_presentation(DynkinType("B", 2))
    g = pres.to_lie_algebra(F5)
    for alpha in pres.root_system.positive_roots:
        assert is_lie_automorphism(g, triple_flip(pres, F5, alpha))
