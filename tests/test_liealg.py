from fractions import Fraction

import pytest

from lieform import (DualNumbers, DynkinType, IntegersModPk, LieAlgebra,
                     LocalizedAtP, Matrix, NotPerfect, PrimeField, QQ, Singular,
                     ZZ, apply_endo_to_casimir, base_change, casimir,
                     casimir_operator, center_basis, chevalley_involution,
                     chevalley_presentation, derivation_algebra, det, inverse,
                     is_lie_automorphism, is_perfect, killing_form,
                     matrix_realization, rank, solve_linear, torus_automorphism,
                     trace_form, triple_flip)

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
SL2 = chevalley_presentation(DynkinType("A", 1))


def test_bracket_vectors_bilinear():
    g = SL2.to_lie_algebra(QQ)
    h, x, y = g.basis_vector(0), g.basis_vector(1), g.basis_vector(2)
    assert g.bracket_vectors(x, y) == h
    assert g.bracket_vectors(h, x) == (0, 2, 0)
    u = (Fraction(1, 2), 1, 0)
    assert g.bracket_vectors(u, y) == (1, 0, Fraction(-1))


def test_ad_matrix_of_vector():
    g = SL2.to_lie_algebra(QQ)
    adh = g.ad_matrix(g.basis_vector(0))
    assert adh.rows() == [[0, 0, 0], [0, 2, 0], [0, 0, -2]]
    adx = g.ad_matrix(g.basis_vector(1))
    assert adx.rows() == [[0, 0, 1], [-2, 0, 0], [0, 0, 0]]


def test_killing_form_sl2_over_z():
    kf = killing_form(SL2.to_lie_algebra(ZZ))
    assert kf.gram.rows() == [[8, 0, 0], [0, 0, 4], [0, 4, 0]]
    assert det(kf.gram) == -128
    assert not is_perfect(kf)             # -128 is not a unit in Z
    assert is_perfect(killing_form(SL2.to_lie_algebra(QQ)))


def test_killing_form_invariance():
    g = chevalley_presentation(DynkinType("B", 2)).to_lie_algebra(QQ)
    kf = killing_form(g).gram
    for i in range(g.dim):
        ad = g.ad_matrix(g.basis_vector(i))
        # K(ad_z x, y) + K(x, ad_z y) = 0
        assert ((ad.transpose() @ kf) + (kf @ ad)).is_zero()


def test_trace_form_sl2():
    tf = trace_form(matrix_realization(DynkinType("A", 1)), ZZ)
    assert tf.gram.rows() == [[2, 0, 0], [0, 0, 1], [0, 1, 0]]


def test_trace_form_c2_diagonal_entry():
    pres = chevalley_presentation(DynkinType("C", 2))
    tf = trace_form(matrix_realization(DynkinType("C", 2)), ZZ)
    assert tf.gram.raw(1, 1) == 2      # T(H_2, H_2) for the long root


def test_center_of_simple_algebra_is_zero():
    assert center_basis(SL2.to_lie_algebra(F5)).ncols == 0
    assert center_basis(SL2.to_lie_algebra(F3)).ncols == 0  # p | det survives


def test_center_of_abelian_algebra():
    ab = LieAlgebra(F5, 2, {}, check=False)
    assert center_basis(ab).ncols == 2


def test_derivations_sl2_f5_all_inner():
    g = SL2.to_lie_algebra(F5)
    der = derivation_algebra(g)
    assert der.ncols == 3
    # ad-images embed in the derivation space
    for i in range(3):
        col = Matrix.column(F5, g.ad_matrix(g.basis_vector(i)).data)
        assert solve_linear(der, col) is not None


def test_derivation_property_holds_for_columns():
    g = SL2.to_lie_algebra(F7)
    der = derivation_algebra(g)
    n = g.dim
    for c in range(der.ncols):
        dmat = Matrix.from_rows(
            F7, [[der.col(c)[m * n + k] for k in range(n)] for m in range(n)])
        for i in range(n):
            for j in range(n):
                lhs = dmat @ Matrix.column(
                    F7, g.bracket_vectors(g.basis_vector(i), g.basis_vector(j)))
                di = g.bracket_vectors(dmat.col(i), g.basis_vector(j))
                dj = g.bracket_vectors(g.basis_vector(i), dmat.col(j))
                rhs = Matrix.column(F7, [F7.add(a, b) for a, b in zip(di, dj)])
                assert lhs == rhs


def test_casimir_sl2_f3_frozen():
    g = SL2.to_lie_algebra(F3)
    ct = casimir(g)
    assert ct.coefficients.rows() == [[2, 0, 0], [0, 0, 1], [0, 1, 0]]
    assert casimir_operator(ct) == Matrix.identity(F3, 3)


def test_casimir_requires_perfect_form():
    with pytest.raises(NotPerfect):
        casimir(SL2.to_lie_algebra(ZZ))
    with pytest.raises(NotPerfect):
        # Killing form of sl2 vanishes identically mod 2
        casimir(SL2.to_lie_algebra(PrimeField(2)))


def test_casimir_operator_commutes_with_ad():
    g = chevalley_presentation(DynkinType("A", 2)).to_lie_algebra(F5)
    op = casimir_operator(casimir(g))
    for i in range(g.dim):
        ad = g.ad_matrix(g.basis_vector(i))
        assert (op @ ad) == (ad @ op)


def test_casimir_operator_identity_g2_f7():
    g = chevalley_presentation(DynkinType("G", 2)).to_lie_algebra(F7)
    assert casimir_operator(casimir(g)) == Matrix.identity(F7, 14)


def test_apply_endo_preserves_casimir_of_automorphism():
    g = SL2.to_lie_algebra(F5)
    ct = casimir(g)
    s = torus_automorphism(SL2, F5, 2)
    assert apply_endo_to_casimir(ct, s) == ct.coefficients
    w = chevalley_involution(SL2, F5)
    assert apply_endo_to_casimir(ct, w) == ct.coefficients


def test_apply_endo_moves_casimir_of_non_automorphism():
    g = SL2.to_lie_algebra(F5)
    ct = casimir(g)
    s = Matrix.from_rows(F5, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert apply_endo_to_casimir(ct, s) != ct.coefficients


def test_base_change_commutes_with_killing():
    gz = SL2.to_lie_algebra(ZZ)
    gf = base_change(gz, F5)
    assert gf.ring == F5
    kz = killing_form(gz).gram
    kf = killing_form(gf).gram
    assert kf.rows() == [[F5.from_int(v) for v in row] for row in kz.rows()]


def test_is_lie_automorphism_detects_failures():
    g = SL2.to_lie_algebra(F5)
    assert is_lie_automorphism(g, Matrix.identity(F5, 3))
    shear = Matrix.from_rows(F5, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    assert not is_lie_automorphism(g, shear)
    sing = Matrix.from_rows(F5, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    assert not is_lie_automorphism(g, sing)


def test_constructor_checks_jacobi():
    # [[e2,e0],e1] = -e2 is the only surviving Jacobi term
    bad = {(0, 1): ((2, 1),), (0, 2): ((0, 1),)}
    with pytest.raises(Exception):
        LieAlgebra(QQ, 3, bad)


def test_presentations_skip_the_second_jacobi_check(monkeypatch):
    # verify_jacobi certifies the integral table once; base change keeps it
    def refuse(self):
        raise AssertionError("Jacobi re-checked for a presentation")

    monkeypatch.setattr(LieAlgebra, "_check_jacobi", refuse)
    pres = chevalley_presentation(DynkinType("A", 3))
    for ring in (F7, QQ, DualNumbers(F5)):
        assert pres.to_lie_algebra(ring).dim == 15
    with pytest.raises(AssertionError):
        LieAlgebra(QQ, 3, dict(SL2.table))


def test_killing_rank_drops_at_bad_primes():
    g3 = chevalley_presentation(DynkinType("A", 2)).to_lie_algebra(F3)
    assert rank(killing_form(g3).gram) < 8   # p = 3 divides n + 1
    g5 = chevalley_presentation(DynkinType("A", 2)).to_lie_algebra(F5)
    assert rank(killing_form(g5).gram) == 8


# the largest prime below 2^21: int64 products of residues sit near 2^42
P21 = 2097143


def test_casimir_operator_identity_a3_near_int64_limit():
    fp = PrimeField(P21)
    g = chevalley_presentation(DynkinType("A", 3)).to_lie_algebra(fp)
    assert casimir_operator(casimir(g)) == Matrix.identity(fp, g.dim)


def test_is_lie_automorphism_dense_near_int64_limit():
    fp = PrimeField(P21)
    pres = chevalley_presentation(DynkinType("A", 3))
    g = pres.to_lie_algebra(fp)
    half = fp.inv(2)
    s = torus_automorphism(pres, fp, P21 - 3, lam=(1, 2, 5))
    for root in ((1, 0, 0), (0, -1, 0), (0, 0, 1), (-1, -1, -1), (0, 1, 1)):
        ad = g.ad_matrix(g.basis_vector(pres.root_basis_index(root)))
        assert (ad @ ad @ ad).is_zero()
        s = s @ (Matrix.identity(fp, g.dim) + ad + (ad @ ad).scale(half))
    assert sum(v != 0 for v in s.data) > g.dim * g.dim // 3
    assert is_lie_automorphism(g, s)
    assert not is_lie_automorphism(g, s.scale(2))


def test_e8_casimir_operator_and_triple_flip_f7():
    pres = chevalley_presentation(DynkinType("E", 8))
    g = pres.to_lie_algebra(F7)
    assert casimir_operator(casimir(g)) == Matrix.identity(F7, 248)
    s = triple_flip(pres, F7, pres.root_system.positive_roots[-1])
    assert is_lie_automorphism(g, s)
    assert not is_lie_automorphism(g, s.scale(2))


# -- differential tests: each invariant against its definition in Matrix ops

DIFF_RINGS = {"QQ": QQ, "F7": F7, "F2097143": PrimeField(P21),
              "F2097169": PrimeField(2097169), "Z25": IntegersModPk(5, 2),
              "Z(5)": LocalizedAtP(5), "F5[eps]": DualNumbers(F5)}
DIFF_TYPES = {"A2": DynkinType("A", 2), "B2": DynkinType("B", 2),
              "G2": DynkinType("G", 2)}


def _trace(m):
    acc = m.ring.zero()
    for i in range(m.nrows):
        acc = m.ring.add(acc, m.raw(i, i))
    return acc


def _exp_ad(g, i):
    """exp(ad b_i) for a nilpotent ad b_i, with k! a unit at every step."""
    ring = g.ring
    ad = g.ad_matrix(g.basis_vector(i))
    out = term = Matrix.identity(ring, g.dim)
    k = 1
    while True:
        term = (term @ ad).scale(ring.inv(ring.from_int(k)))
        if term.is_zero():
            return out
        out, k = out + term, k + 1


def _is_automorphism_by_definition(g, s):
    try:
        inverse(s)
    except Singular:
        return False
    ring = g.ring
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            image = s @ Matrix.column(
                ring, g.bracket_vectors(g.basis_vector(i), g.basis_vector(j)))
            if image.data != g.bracket_vectors(s.col(i), s.col(j)):
                return False
    return True


@pytest.mark.parametrize("tname", DIFF_TYPES)
@pytest.mark.parametrize("rname", DIFF_RINGS)
def test_invariants_match_their_definitions(rname, tname):
    ring, pres = DIFF_RINGS[rname], chevalley_presentation(DIFF_TYPES[tname])
    g = pres.to_lie_algebra(ring)
    ads = [g.ad_matrix(g.basis_vector(i)) for i in range(g.dim)]
    gram = killing_form(g).gram
    assert gram == Matrix.from_rows(ring, [[_trace(a @ b) for b in ads] for a in ads])
    ct = casimir(g)
    want = Matrix.zeros(ring, g.dim, g.dim)
    for i in range(g.dim):
        for j in range(g.dim):
            if not ring.is_zero(ct.coefficients.raw(i, j)):
                want = want + (ads[i] @ ads[j]).scale(ct.coefficients[i, j])
    assert casimir_operator(ct) == want == Matrix.identity(ring, g.dim)
    rank_ = pres.rank
    monomial = (torus_automorphism(pres, ring, 2, lam=tuple(range(1, rank_ + 1)))
                @ triple_flip(pres, ring, pres.root_system.positive_roots[-1]))
    dense = chevalley_involution(pres, ring)
    for root in pres.root_system.roots[:3] + pres.root_system.roots[-3:]:
        dense = dense @ _exp_ad(g, pres.root_basis_index(root))
    assert sum(not ring.is_zero(v) for v in dense.data) > g.dim * g.dim // 3
    shear = Matrix.identity(ring, g.dim) + Matrix.from_rows(
        ring, [[int((r, c) == (0, rank_)) for c in range(g.dim)]
               for r in range(g.dim)])
    singular = Matrix.from_rows(
        ring, [[v if c else 0 for c, v in enumerate(row)] for row in dense.rows()])
    for s, expected in ((monomial, True), (dense, True), (shear, False),
                        (monomial.scale(2), False), (dense.scale(2), False),
                        (singular, False)):
        assert _is_automorphism_by_definition(g, s) is expected
        assert is_lie_automorphism(g, s) is expected


@pytest.mark.parametrize("tname", DIFF_TYPES)
@pytest.mark.parametrize("rname", [r for r in DIFF_RINGS if DIFF_RINGS[r].is_field])
def test_derivations_match_their_definition(rname, tname):
    ring = DIFF_RINGS[rname]
    g = chevalley_presentation(DIFF_TYPES[tname]).to_lie_algebra(ring)
    n = g.dim
    der = derivation_algebra(g)
    assert der.ncols == n
    basis = [g.basis_vector(i) for i in range(n)]
    for c in range(der.ncols):
        d = Matrix(ring, n, n, der.col(c))
        for i in range(n):
            for j in range(i + 1, n):
                lhs = d @ Matrix.column(ring, g.bracket_vectors(basis[i], basis[j]))
                di = g.bracket_vectors(d.col(i), basis[j])
                dj = g.bracket_vectors(basis[i], d.col(j))
                assert lhs.data == tuple(ring.add(a, b) for a, b in zip(di, dj))
