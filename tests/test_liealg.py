import hashlib
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

import lieform.liealg
from lieform import (DimensionMismatch, DualNumbers, DynkinType, IntegersModPk,
                     LieAlgebra, LocalizedAtP, Matrix, NotPerfect, PrimeField, QQ, Singular,
                     ZZ, apply_endo_to_casimir, base_change, casimir,
                     casimir_operator, center_basis, chevalley_involution,
                     chevalley_presentation, derivation_algebra, det, form_kernel, inverse,
                     is_lie_automorphism, is_perfect, killing_form,
                     matrix_realization, rank, RingMismatch, solve_linear, torus_automorphism,
                     trace_form, triple_flip, UnsupportedRing)
from lieform.cli import _table_types

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


def test_constructor_checks_jacobi_in_any_dimension():
    # the same bad table with idle basis vectors: the check has no dimension cap
    bad = {(0, 1): ((2, 1),), (0, 2): ((0, 1),)}
    for dim in (20, 21, 40):
        with pytest.raises(ValueError, match=r"triple \(0,1,2\)$"):
            LieAlgebra(QQ, dim, bad)
    assert LieAlgebra(QQ, 21, bad, check=False).dim == 21


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


def test_certified_tables_skip_the_jacobi_join(monkeypatch):
    # the full Jacobi join runs once per table, in the constructor;
    # derivations, the centre and the cochain complex of a presentation's
    # algebra (check=False, certified by verify_jacobi) never run it
    from lieform import ce_complex
    g = chevalley_presentation(DynkinType("B", 2)).to_lie_algebra(F7)
    real, tables = lieform.liealg._jacobi_defects, []

    def spy(ring, table):
        tables.append(table)
        return real(ring, table)

    monkeypatch.setattr(lieform.liealg, "_jacobi_defects", spy)
    derivation_algebra(g)
    center_basis(g)
    ce_complex(g)
    assert tables == []
    LieAlgebra(F7, g.dim, g.table, dynkin=g.dynkin)
    assert tables == [g.table]


def test_checked_e7_construction_builds_no_cochain_map(monkeypatch):
    # the constructor's Jacobi check is the join alone: it builds no
    # differential of the adjoint complex, and its traced peak stays small
    g = chevalley_presentation(DynkinType("E", 7)).to_lie_algebra(F7)

    def refuse(*args):
        raise AssertionError("the Jacobi check built a differential")

    monkeypatch.setattr(lieform.liealg, "_differential", refuse)
    tracemalloc.start()
    try:
        LieAlgebra(F7, g.dim, g.table, dynkin=g.dynkin)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("check", [True, False], ids=["check", "nocheck"])
@pytest.mark.parametrize("k", [5, -1])
def test_output_index_out_of_range_is_refused(k, check):
    with pytest.raises(DimensionMismatch, match=r"bad output index in \[b_0, b_1\]"):
        LieAlgebra(QQ, 3, {(0, 1): ((k, 1),)}, check=check)


# -- the one differential against the textbook Chevalley–Eilenberg sum

def _random_raw(ring, rng):
    if ring.kind == "rationals":
        return Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
    if ring.kind == "dual_numbers":
        return (rng.randrange(5), rng.randrange(5))
    return rng.randrange(ring.p)


def _ce_sum(g, k, f):
    """d f for the k-cochain f = {sorted k-tuple: f(b_q) as a list}, as
    {sorted (k+1)-tuple: list}, by the sum
    sum_s (-1)^s [x_s, f(..x̂_s..)] + sum_{s<t} (-1)^(s+t) f([x_s, x_t], ..x̂_s..x̂_t..)
    read from `bracket_basis`."""
    ring, n = g.ring, g.dim
    add, mul, neg = ring.add, ring.mul, ring.neg

    def f_at(ys):             # f on any k-tuple: alternating
        if len(set(ys)) < k:
            return [ring.zero()] * n
        swaps = sum(a > b for a, b in combinations(ys, 2))
        v = f[tuple(sorted(ys))]
        return [neg(x) for x in v] if swaps % 2 else v

    out = {}
    for xs in combinations(range(n), k + 1):
        acc = [ring.zero()] * n
        for s in range(k + 1):
            for b, vb in enumerate(f_at(xs[:s] + xs[s + 1:])):
                for l, c in g.bracket_basis(xs[s], b):
                    term = mul(vb, c)
                    acc[l] = add(acc[l], neg(term) if s % 2 else term)
        for s, t in combinations(range(k + 1), 2):
            rest = xs[:s] + xs[s + 1:t] + xs[t + 1:]
            for l, c in g.bracket_basis(xs[s], xs[t]):
                for a, w in enumerate(f_at((l,) + rest)):
                    term = mul(c, w)
                    acc[a] = add(acc[a], neg(term) if (s + t) % 2 else term)
        out[xs] = acc
    return out


def _gl2_with_repeated_terms(ring):
    # h, e, f, c with [h, e] = e + e, [h, f] = -f - f, [e, f] = h + c
    one, minus = ring.coerce(1), ring.coerce(-1)
    return LieAlgebra(ring, 4, {(0, 1): ((1, one), (1, one)),
                                (0, 2): ((2, minus), (2, minus)),
                                (1, 2): ((0, one), (3, one))})


@pytest.mark.parametrize("rname", ["F5", "QQ", "F5[eps]"])
@pytest.mark.parametrize("tname", ["A1", "A2", "B2", "G2", "gl2"])
def test_differential_is_the_textbook_sum(tname, rname):
    ring = {"F5": F5, "QQ": QQ, "F5[eps]": DualNumbers(F5)}[rname]
    if tname == "gl2":
        g = _gl2_with_repeated_terms(ring)
    else:
        g = chevalley_presentation(DynkinType(tname[0], int(tname[1:]))).to_lie_algebra(ring)
    n = g.dim
    rng = random.Random(n)
    for k in range(3):
        d = lieform.liealg._differential(g, k)
        src, dst = list(combinations(range(n), k)), list(combinations(range(n), k + 1))
        for _ in range(2):
            f = {q: [_random_raw(ring, rng) for _ in range(n)] for q in src}
            flat = [f[q][a] for a in range(n) for q in src]
            got = [ring.zero()] * (n * len(dst))
            for (r, c), v in d.items():
                got[r] = ring.add(got[r], ring.mul(v, flat[c]))
            want = _ce_sum(g, k, f)
            assert got == [want[xs][a] for a in range(n) for xs in dst]


def test_killing_rank_drops_at_bad_primes():
    g3 = chevalley_presentation(DynkinType("A", 2)).to_lie_algebra(F3)
    assert rank(killing_form(g3).gram) < 8   # p = 3 divides n + 1
    g5 = chevalley_presentation(DynkinType("A", 2)).to_lie_algebra(F5)
    assert rank(killing_form(g5).gram) == 8


@pytest.mark.parametrize("name,p,dim", [("A2", 5, 0), ("A1", 2, 3), ("A3", 2, 15), ("G2", 3, 7)])
def test_form_kernel_spans_the_radical(name, p, dim):
    # empty for a perfect form; else independent columns v with Gram v = 0,
    # as many as the Gram matrix's corank
    g = chevalley_presentation(DynkinType(name[0], int(name[1:]))).to_lie_algebra(PrimeField(p))
    f = killing_form(g)
    k = form_kernel(f)
    assert (k.nrows, k.ncols) == (g.dim, dim)
    assert dim == g.dim - rank(f.gram)
    if dim:
        assert rank(k) == dim
        assert f.gram @ k == Matrix.zeros(f.gram.ring, g.dim, dim)


def test_form_kernel_refuses_the_integers():
    with pytest.raises(UnsupportedRing):
        form_kernel(killing_form(SL2.to_lie_algebra(ZZ)))


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
    monomial, dense, shear = _endomorphisms(pres, g)
    singular = Matrix.from_rows(
        ring, [[v if c else 0 for c, v in enumerate(row)] for row in dense.rows()])
    for s, expected in ((monomial, True), (dense, True), (shear, False),
                        (monomial.scale(2), False), (dense.scale(2), False),
                        (singular, False)):
        assert _is_automorphism_by_definition(g, s) is expected
        assert is_lie_automorphism(g, s) is expected


def _endomorphisms(pres, g):
    """(monomial, dense, shear): a torus element times a triple flip, a
    dense automorphism, and a shear that is not an automorphism."""
    ring, rank_ = g.ring, pres.rank
    monomial = (torus_automorphism(pres, ring, 2, lam=tuple(range(1, rank_ + 1)))
                @ triple_flip(pres, ring, pres.root_system.positive_roots[-1]))
    dense = chevalley_involution(pres, ring)
    for root in pres.root_system.roots[:3] + pres.root_system.roots[-3:]:
        dense = dense @ _exp_ad(g, pres.root_basis_index(root))
    assert sum(not ring.is_zero(v) for v in dense.data) > g.dim * g.dim // 3
    shear = Matrix.identity(ring, g.dim) + Matrix.from_rows(
        ring, [[int((r, c) == (0, rank_)) for c in range(g.dim)]
               for r in range(g.dim)])
    return monomial, dense, shear


@pytest.mark.parametrize("tname", DIFF_TYPES)
@pytest.mark.parametrize("rname", ["F7", "Z25", "F5[eps]"])
def test_bracket_defect_matches_bracket_vectors(rname, tname):
    ring, pres = DIFF_RINGS[rname], chevalley_presentation(DIFF_TYPES[tname])
    g = pres.to_lie_algebra(ring)
    pairs = list(combinations(range(g.dim), 2))
    for s in _endomorphisms(pres, g):
        want = {}                  # [s b_i, s b_j] - s[b_i, b_j], brute force
        for q, (i, j) in enumerate(pairs):
            image = s @ Matrix.column(
                ring, g.bracket_vectors(g.basis_vector(i), g.basis_vector(j)))
            full = g.bracket_vectors(s.col(i), s.col(j))
            want[q] = {a: ring.sub(x, y) for a, (x, y) in enumerate(zip(full, image.data))
                       if x != y}
        got = list(lieform.liealg._bracket_defect(g, s))
        assert [q for q, _ in got] == list(range(len(pairs)))
        assert all(not ring.is_zero(v) for _, d in got for v in d.values())
        assert dict(got) == want
        assert any(want.values()) is not is_lie_automorphism(g, s)


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


# -- pinned answers: sha256 of repr((nrows, ncols, data)) of each kernel
# basis, taken from the per-equation derivation rows and the dim^3 centre
# stack that the adjoint complex replaced

PIN_RINGS = {"F2": PrimeField(2), "F3": PrimeField(3), "F7": F7,
             "F2097169": PrimeField(2097169), "QQ": QQ}
USER_TABLES = {
    "abelian": (3, {}),
    "heisenberg": (3, {(0, 1): ((2, 1),)}),
    "gl2": (4, {(0, 1): ((2, 1),), (0, 2): ((0, -2),), (1, 2): ((1, 2),)}),
}

DERIVATION_DIGESTS = {
    ("A1", "F7"): (3, "2b2d1587efbdc0fea09b4792f60cd2a496879d53acd376efe9b0c747129d9d1c"),
    ("A2", "F7"): (8, "ea5614f961b0152b54201e1e8225ca1436871b56441ee40fdebba190e7efcdb7"),
    ("A3", "F7"): (15, "42dcbbb281bf106279769980c63de635d80757d2f609ac8b69a5752e7b1f60ea"),
    ("B2", "F7"): (10, "05074d92789b711e1c205ada6d00e5b9f1ca3c57449b4077f990b29f24387f24"),
    ("B3", "F7"): (21, "0e3c464c8793064d35f9fae345fc7acb161c302e027cc5ae85544fec627e2bc4"),
    ("C3", "F7"): (21, "c958d2084eb060fc763fa07a36d3c0727d784bb4cf591709088e02aeec448381"),
    ("D4", "F7"): (28, "92f8bd10decb3eab3417ba0c8399f1465e6ed85edb4b0dc1d46e60758711bb40"),
    ("G2", "F7"): (14, "5b5aacfb5745b4b3fb500dbda7131452f4b04ba5004fa2f87a2d62b65205ba8f"),
    ("A1", "F2097169"): (3, "7a713889e3046930d6f010080bb2427e90f7c623dc392c75cb41ffbc9412e059"),
    ("A2", "F2097169"): (8, "218d8aa3bc7be6e1122e1cf8d0d4af7478e44bef74ff655d388c9fc654ad10e0"),
    ("A3", "F2097169"): (15, "da29a6974b7596fb424b507e38ce4ced6623052ffc816ae9c3b3949190daf29e"),
    ("B2", "F2097169"): (10, "a2576c05d82fa4e45c7fef36a4674dfc4903ed531a1de9d98e38bdbbb7ef9ace"),
    ("G2", "F2097169"): (14, "1f2ea2eab526b476d83dc6ad6e690c10b97ada978082c5678846d8b9c991af58"),
    ("A1", "QQ"): (3, "342c9399669244ef72293be85dfe47632c131595ad9a05875eec673f7966ee7e"),
    ("A2", "QQ"): (8, "5491ca2db5d58c413448c8b57324e8ddb7ec3eea228d9f887d05d79229103389"),
    ("A3", "QQ"): (15, "d61eda6fd3615d64b5f67a47d794f4b40994ffeaff1b45d70056dcfb15af63b0"),
    ("B2", "QQ"): (10, "7c304eb9cbe0e7e5a385c49cfe8cf9b7de347675891e3a0a26c75fe98261ee7d"),
    ("G2", "QQ"): (14, "3662c55c509d79d11d211f51aebd8979f690450d719631c2a20bd183d3c0703a"),
    ("abelian", "F2"): (9, "25d24e10735fb329d2cdb31e61161743a9463cec883e6f3c82771d5602e91c5a"),
    ("abelian", "F7"): (9, "25d24e10735fb329d2cdb31e61161743a9463cec883e6f3c82771d5602e91c5a"),
    ("abelian", "QQ"): (9, "ad9dc8d0d71de3d341d9749a47b639c2b63dd9d9692c79226ed5b9d49839616e"),
    ("heisenberg", "F2"): (6, "526a3569cac39ff59e6523c8d03a7836b02d552c7ce5b0c70d9854222d5c1ee2"),
    ("heisenberg", "F7"): (6, "57dc59fa51a28f0ad4275a93532c58af2b7be14aa6201008c4ff4ebb23d156a9"),
    ("heisenberg", "QQ"): (6, "3752d6c1d01f362c98ba9e0800c41606120317de2256e678a91a8732729f7006"),
    ("gl2", "F2"): (10, "4f84c0e43d3658324f06208fe3b56476f842fbd71f79ccb14a4f4b94667d3598"),
    ("gl2", "F7"): (4, "abf636c8c8910767d561ea0d2cc34dc7159e57e7a2750603f533ec8aeface176"),
    ("gl2", "QQ"): (4, "a821b1dc2e313287f83fd93e8ced3df19a9192c6c7de37e5d12e7437bc3a8bbe"),
}
CENTRE_DIGESTS = {
    ("A1", "F7"): (0, "d096da3aaa270ac1072a36ccd3eeeac362954f6cdd210be59d09bec1ac0ccc4f"),
    ("A1", "F2"): (1, "152defa326e94a96655efdcd3f1ef588f9dae027e7448274646ff5d07e09cb1f"),
    ("A1", "F3"): (0, "d096da3aaa270ac1072a36ccd3eeeac362954f6cdd210be59d09bec1ac0ccc4f"),
    ("A2", "F7"): (0, "80a0c05ec493f0e29bec1fc2cd1a2232acf53294a1959721380c4b91eaded4c6"),
    ("A2", "F2"): (0, "80a0c05ec493f0e29bec1fc2cd1a2232acf53294a1959721380c4b91eaded4c6"),
    ("A2", "F3"): (1, "231cc482a5925d07ab667d4e80bdba16100c780b42a79057234a156e288c4bc9"),
    ("A3", "F7"): (0, "bd687bd256197d3e0d3542dfcee4bea94852ca1d84aea226fea05582ac1031d1"),
    ("A3", "F2"): (1, "e30401357a24ac677e662eb75e1acee7226d88e69819c634f25ecd9fe9488fbe"),
    ("A3", "F3"): (0, "bd687bd256197d3e0d3542dfcee4bea94852ca1d84aea226fea05582ac1031d1"),
    ("B2", "F7"): (0, "54c2ee88858be94a665d6678ec622ad4bf32dbfe92edd0f2d06f9fd39681649a"),
    ("B2", "F2"): (1, "cf0723dc87bf3802bc219e5d5be87d5cee3fce84f17c1e0395ffb779b296cd10"),
    ("B2", "F3"): (0, "54c2ee88858be94a665d6678ec622ad4bf32dbfe92edd0f2d06f9fd39681649a"),
    ("B3", "F7"): (0, "43e225bfd9b99cf1499c6a5856ec72e26a867159833b8dda99d15036dbdd5318"),
    ("B3", "F2"): (1, "ea3e284fa2f8df687c17713e3baafc7657b02cb0faa31ee648b66be67b214809"),
    ("B3", "F3"): (0, "43e225bfd9b99cf1499c6a5856ec72e26a867159833b8dda99d15036dbdd5318"),
    ("C3", "F7"): (0, "43e225bfd9b99cf1499c6a5856ec72e26a867159833b8dda99d15036dbdd5318"),
    ("C3", "F2"): (1, "85f831afcd9593b40ddb0ad34baca45dfadebeb32299b81a7bd5b66f08d52428"),
    ("C3", "F3"): (0, "43e225bfd9b99cf1499c6a5856ec72e26a867159833b8dda99d15036dbdd5318"),
    ("D4", "F7"): (0, "c076b11ced8025339fb65cdd2074ad591ab03223009e63bfd33c49fbbd14ea8e"),
    ("D4", "F2"): (2, "9e745f7972f2b36bba2d16aaca4dfce3ee95e0d6ffd1b52951ef86ca77b91fbd"),
    ("D4", "F3"): (0, "c076b11ced8025339fb65cdd2074ad591ab03223009e63bfd33c49fbbd14ea8e"),
    ("G2", "F7"): (0, "2a07956909127becc0e506f2f6271b9d03c30dd5c63f63c7e4f0b1c79016c259"),
    ("G2", "F2"): (0, "2a07956909127becc0e506f2f6271b9d03c30dd5c63f63c7e4f0b1c79016c259"),
    ("G2", "F3"): (0, "2a07956909127becc0e506f2f6271b9d03c30dd5c63f63c7e4f0b1c79016c259"),
    ("A1", "F2097169"): (0, "d096da3aaa270ac1072a36ccd3eeeac362954f6cdd210be59d09bec1ac0ccc4f"),
    ("A2", "F2097169"): (0, "80a0c05ec493f0e29bec1fc2cd1a2232acf53294a1959721380c4b91eaded4c6"),
    ("A3", "F2097169"): (0, "bd687bd256197d3e0d3542dfcee4bea94852ca1d84aea226fea05582ac1031d1"),
    ("B2", "F2097169"): (0, "54c2ee88858be94a665d6678ec622ad4bf32dbfe92edd0f2d06f9fd39681649a"),
    ("G2", "F2097169"): (0, "2a07956909127becc0e506f2f6271b9d03c30dd5c63f63c7e4f0b1c79016c259"),
    ("A1", "QQ"): (0, "d096da3aaa270ac1072a36ccd3eeeac362954f6cdd210be59d09bec1ac0ccc4f"),
    ("A2", "QQ"): (0, "80a0c05ec493f0e29bec1fc2cd1a2232acf53294a1959721380c4b91eaded4c6"),
    ("A3", "QQ"): (0, "bd687bd256197d3e0d3542dfcee4bea94852ca1d84aea226fea05582ac1031d1"),
    ("B2", "QQ"): (0, "54c2ee88858be94a665d6678ec622ad4bf32dbfe92edd0f2d06f9fd39681649a"),
    ("G2", "QQ"): (0, "2a07956909127becc0e506f2f6271b9d03c30dd5c63f63c7e4f0b1c79016c259"),
    ("abelian", "F2"): (3, "bd53cf9ac433cfe1e96a4a634ff61db17cd12cbb92f2bb71c4405588941b81d7"),
    ("abelian", "F7"): (3, "bd53cf9ac433cfe1e96a4a634ff61db17cd12cbb92f2bb71c4405588941b81d7"),
    ("abelian", "QQ"): (3, "51962478ee83c4caf5d4574ebba203b9a39efe046d864af9dd4291ab28d912a1"),
    ("heisenberg", "F2"): (1, "e2651b1fbd2ebb7364891ee96f37bb973aa6125cfba311338b0d1ce851504e10"),
    ("heisenberg", "F7"): (1, "e2651b1fbd2ebb7364891ee96f37bb973aa6125cfba311338b0d1ce851504e10"),
    ("heisenberg", "QQ"): (1, "00b176d4488cbb7c0d77f541b6c58197d169eff230678cd8c3a1c34155fa5a0f"),
    ("gl2", "F2"): (2, "25f7aa0899e0afb4049462a4c7b9d712bd4a0320223aa931c0457d20088c9560"),
    ("gl2", "F7"): (1, "4192adcae3ffdbf06c7f7c9da40d8cc0e83ea2586adb25c4f34ff6ec5448c12f"),
    ("gl2", "QQ"): (1, "afb25f9df1665a37ebdf83f52f95f2313c8a4641b3de6e644de372de670e605b"),
}


def _pinned_algebra(tname, rname):
    ring = PIN_RINGS[rname]
    if tname in USER_TABLES:
        dim, table = USER_TABLES[tname]
        return LieAlgebra(ring, dim, table)
    return chevalley_presentation(DynkinType(tname[0], int(tname[1:]))).to_lie_algebra(ring)


def _kernel_digest(m):
    return hashlib.sha256(repr((m.nrows, m.ncols, m.data)).encode()).hexdigest()


@pytest.mark.parametrize("tname, rname", DERIVATION_DIGESTS, ids="-".join)
def test_derivations_match_pinned_digest(tname, rname):
    der = derivation_algebra(_pinned_algebra(tname, rname))
    assert (der.ncols, _kernel_digest(der)) == DERIVATION_DIGESTS[(tname, rname)]


@pytest.mark.parametrize("tname, rname", CENTRE_DIGESTS, ids="-".join)
def test_centres_match_pinned_digest(tname, rname):
    centre = center_basis(_pinned_algebra(tname, rname))
    assert (centre.ncols, _kernel_digest(centre)) == CENTRE_DIGESTS[(tname, rname)]


# -- the root-lattice grading against the one-block system: the same table
# without its dynkin label is one block of degree 0

GRADED_CASES = ([(t, r) for r in ("F7", "F2097169")
                 for t in ("A1", "A2", "A3", "B2", "C3", "G2", "B3", "D4")]
                + [(t, "QQ") for t in ("A1", "A2", "B2", "G2")])


@pytest.mark.parametrize("tname, rname", GRADED_CASES)
def test_graded_kernels_match_one_block(tname, rname):
    g = _pinned_algebra(tname, rname)
    nroots = g.dim - g.dynkin.rank
    assert len(set(lieform.liealg._weights(g))) == nroots + 1
    one_block = LieAlgebra(g.ring, g.dim, g.table, check=False)
    assert derivation_algebra(g) == derivation_algebra(one_block)
    assert center_basis(g) == center_basis(one_block)


def _permuted(g, perm, dynkin):
    """g's table on the basis with b_i moved to position perm[i]."""
    neg, table = g.ring.neg, {}
    for (i, j), terms in g.table.items():
        moved = tuple((perm[k], c) for k, c in terms)
        if perm[i] < perm[j]:
            table[(perm[i], perm[j])] = moved
        else:
            table[(perm[j], perm[i])] = tuple((k, neg(c)) for k, c in moved)
    return LieAlgebra(g.ring, g.dim, table, dynkin=dynkin)


@pytest.mark.parametrize("tname", ["A2", "B2", "G2", "A3"])
def test_permuted_chevalley_table_keeps_one_block(tname):
    g = _pinned_algebra(tname, "F7")
    perm = list(range(g.dim))
    random.Random(3).shuffle(perm)
    labelled = _permuted(g, perm, g.dynkin)
    assert lieform.liealg._weights(labelled) == [()] * g.dim
    one_block = _permuted(g, perm, None)
    assert derivation_algebra(labelled) == derivation_algebra(one_block)
    assert center_basis(labelled) == center_basis(one_block)
    assert derivation_algebra(labelled).ncols == g.dim


# -- kept blocks: on a Chevalley table H_i acts on a cochain of degree d by
# d(H_i), so every block with some d(H_i) a unit is acyclic

def _contraction(ring, n, k, i):
    """ι_{b_i} : C^k -> C^(k-1), (ι f)(ys) = f(b_i, ys), as a sparse map:
    f(b_i, ys) is (-1)^at f at the sorted tuple, at the place of i in it."""
    src = {q: c for c, q in enumerate(combinations(range(n), k))}
    m_src, m_dst = len(src), len(list(combinations(range(n), k - 1)))
    out = {}
    for r, ys in enumerate(combinations(range(n), k - 1)):
        if i not in ys:
            at = sum(y < i for y in ys)
            col = src[ys[:at] + (i,) + ys[at:]]
            for a in range(n):
                out[(a * m_dst + r, a * m_src + col)] = ring.coerce((-1) ** at)
    return out


@pytest.mark.parametrize("rname", ["F7", "QQ"])
@pytest.mark.parametrize("tname", ["A2", "B2", "G2"])
def test_cartan_formula_makes_the_other_blocks_acyclic(tname, rname):
    # d∘ι_h + ι_h∘d = d(h)·I on C^k for h = H_i, with d(H_i) the torus
    # character that `_torus` reads off the table; each k has a block
    # where some d(H_i) is a unit, and there ι_h/d(H_i) contracts it
    from lieform.matrices import _nonzero_product, _summed
    g = _pinned_algebra(tname, rname)
    ring, n = g.ring, g.dim
    wt, char = lieform.liealg._torus(g)
    ds = [lieform.liealg._differential(g, k) for k in range(3)]
    for k in range(3):
        degrees = lieform.liealg._cochain_degrees(wt, k)
        assert not all(all(map(ring.is_zero, char(d))) for d in degrees)
        for i in range(g.dynkin.rank):
            parts = [_nonzero_product(ring, _contraction(ring, n, k + 1, i).items(), ds[k])]
            if k:
                parts.append(_nonzero_product(ring, ds[k - 1].items(),
                                              _contraction(ring, n, k, i)))
            lie = _summed(ring, (kv for part in parts for kv in part.items()))
            assert lie == {(c, c): char(d)[i] for c, d in enumerate(degrees)
                           if not ring.is_zero(char(d)[i])}


KEPT_RINGS = {"F2": PrimeField(2), "F3": F3, "F5": F5, "F7": F7,
              "F2097169": PrimeField(2097169), "QQ": QQ}


@pytest.mark.parametrize("rname", KEPT_RINGS)
@pytest.mark.parametrize("tname", ["A1", "A2", "A3", "B2", "C2", "G2", "B3", "C3", "D4"])
def test_kept_blocks_match_all_blocks(tname, rname):
    # the centre and the derivations eliminate the kept blocks and read the
    # acyclic ones off d0; the reference eliminates every block of d0, d1
    from lieform.matrices import _graded_kernel
    t = DynkinType(tname[0], int(tname[1:]))
    g = chevalley_presentation(t).to_lie_algebra(KEPT_RINGS[rname])
    wt, char = lieform.liealg._torus(g)
    assert len(char(wt[-1])) == t.rank
    for k, got in ((0, center_basis(g)), (1, derivation_algebra(g))):
        assert got == _graded_kernel(g.ring, lieform.liealg._cochain_degrees(wt, k),
                                     lieform.liealg._differential(g, k))


def _solvable_a1(ring):
    # [H, X] = X and [H, Y] = Y: graded as A1 is, but λ(Y) = 1, not -1
    one = ring.one()
    return LieAlgebra(ring, 3, {(0, 1): ((1, one),), (0, 2): ((2, one),)},
                      dynkin=DynkinType("A", 1))


def _torus_not_abelian(ring):
    # [H_1, H_2] = H_1 and the root vectors central: graded as A2 is
    return LieAlgebra(ring, 8, {(0, 1): ((0, ring.one()),)}, dynkin=DynkinType("A", 2))


@pytest.mark.parametrize("ring", [F3, F7, QQ], ids=repr)
@pytest.mark.parametrize("build", [_solvable_a1, _torus_not_abelian])
def test_table_without_a_checked_torus_keeps_every_block(build, ring):
    # the grading holds, so the blocks are split by degree, but the torus
    # check fails, so every degree is kept: the one-block answer
    g = build(ring)
    wt, char = lieform.liealg._torus(g)
    assert len(set(wt)) > 1 and {char(w) for w in wt} == {()}
    one_block = LieAlgebra(ring, g.dim, g.table)
    assert derivation_algebra(g) == derivation_algebra(one_block)
    assert center_basis(g) == center_basis(one_block)


def _dense_spans_inner(g, ders):
    """The dense check: inner is the dim^2 x dim matrix of the ad(b_i)."""
    ads = [g.ad_matrix(g.basis_vector(i)).data for i in range(g.dim)]
    inner = Matrix(g.ring, g.dim * g.dim, g.dim,
                   tuple(v for entries in zip(*ads) for v in entries))
    return (rank(inner) == ders.ncols and solve_linear(ders, inner) is not None
            and rank(ders.hstack(inner)) == ders.ncols)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("tname", ["A1", "A2", "A3", "B2", "C2", "G2", "B3"])
def test_inner_span_per_degree_matches_the_dense_check(tname, p):
    # besides the derivations themselves: one column short, the last column
    # replaced by the first (as many pivots, not the same ones), and a zero
    # column added.  The check compares with the reduced basis of the inner
    # derivations, so other bases of their span fail too: the first column
    # plus the last, of another degree, and the first column negated
    g = chevalley_presentation(DynkinType(tname[0], int(tname[1:]))).to_lie_algebra(PrimeField(p))
    ring, ders = g.ring, derivation_algebra(g)
    cols = [list(ders.col(j)) for j in range(ders.ncols)]

    def matrix(kept):
        return Matrix(ring, ders.nrows, len(kept), tuple(v for row in zip(*kept) for v in row))

    variants = [ders] + [matrix(kept) for kept in (cols[:-1], cols[:-1] + cols[:1])]
    variants.append(ders.hstack(Matrix.zeros(ring, ders.nrows, 1)))
    got = [lieform.liealg._spans_inner_derivations(g, d) for d in variants]
    assert got == [_dense_spans_inner(g, d) for d in variants]
    assert got[1:] == [False, False, False]
    other = [[ring.add(x, y) for x, y in zip(cols[0], cols[-1])]]
    if p > 2:
        other.append([ring.neg(x) for x in cols[0]])
    assert not any(lieform.liealg._spans_inner_derivations(g, matrix([first] + cols[1:]))
                   for first in other)


# -- perfectness: the graded discriminant against the dense determinant

PERFECT_RINGS = {"ZZ": ZZ, "QQ": QQ, "F2": PrimeField(2), "F3": F3, "F5": F5,
                 "F7": F7, "F2097169": PrimeField(2097169),
                 "Z25": IntegersModPk(5, 2), "Z49": IntegersModPk(7, 2),
                 "Z(5)": LocalizedAtP(5), "F5[eps]": DualNumbers(F5),
                 "F7[eps]": DualNumbers(F7)}


def _dense_is_perfect(f):
    """Full rank over F_p and QQ, a unit determinant over every other ring."""
    ring = f.gram.ring
    if ring.kind in ("prime_field", "rationals"):
        return rank(f.gram) == f.gram.nrows
    return ring.is_unit(det(f.gram))


@pytest.mark.parametrize("rname", PERFECT_RINGS)
@pytest.mark.parametrize("t", _table_types(4, dedup=False), ids=str)
def test_discriminant_is_the_gram_determinant(t, rname):
    g = chevalley_presentation(t).to_lie_algebra(PERFECT_RINGS[rname])
    kf = killing_form(g)
    assert lieform.liealg._discriminant(kf) == det(kf.gram)
    assert is_perfect(kf) == _dense_is_perfect(kf)


def _det_sizes(monkeypatch):
    """The sizes of the blocks that reach liealg.det, as they arrive."""
    sizes = []

    def spy(m):
        sizes.append(m.nrows)
        return det(m)

    monkeypatch.setattr(lieform.liealg, "det", spy)
    return sizes


@pytest.mark.parametrize("rname", ["ZZ", "F7", "Z25", "F5[eps]"])
def test_discriminant_of_a_permuted_table_is_one_block(rname, monkeypatch):
    g = chevalley_presentation(DynkinType("B", 2)).to_lie_algebra(PERFECT_RINGS[rname])
    perm = list(range(g.dim))
    random.Random(3).shuffle(perm)
    kf = killing_form(_permuted(g, perm, g.dynkin))
    sizes = _det_sizes(monkeypatch)
    assert lieform.liealg._discriminant(kf) == det(kf.gram)
    assert sizes == [g.dim]
    assert lieform.liealg._discriminant(killing_form(g)) == det(kf.gram)
    assert is_perfect(kf) == _dense_is_perfect(kf)


@pytest.mark.parametrize("entries", [[(0, 2)], [(0, 2), (0, 5)]])
def test_discriminant_of_a_gram_off_the_grading_is_one_block(entries, monkeypatch):
    # A2 weights: b_0, b_1 are 0, b_2 is (0, 1) and b_5 is (0, -1); one
    # entry leaves det unchanged, the two together change it
    g = chevalley_presentation(DynkinType("A", 2)).to_lie_algebra(F7)
    gram = [list(killing_form(g).gram.row(i)) for i in range(g.dim)]
    for i, j in entries:
        gram[i][j] = gram[j][i] = 1
    f = lieform.liealg.BilinearForm(g, Matrix.from_rows(F7, gram))
    sizes = _det_sizes(monkeypatch)
    assert lieform.liealg._discriminant(f) == det(f.gram)
    assert sizes == [g.dim]
    assert is_perfect(f) == _dense_is_perfect(f)
    if len(entries) == 2:
        assert det(f.gram) != det(killing_form(g).gram)


def test_discriminant_over_dual_numbers_stays_in_small_blocks(monkeypatch):
    t = DynkinType("F", 4)
    kf = killing_form(chevalley_presentation(t).to_lie_algebra(DualNumbers(F5)))
    sizes = _det_sizes(monkeypatch)
    assert is_perfect(kf)
    assert max(sizes) == t.rank


def test_row_across_two_degrees_raises_under_python_O(child_env):
    code = ("import lieform, lieform.matrices\n"
            "assert False  # stripped under -O\n"
            "try:\n"
            "    lieform.matrices._graded_kernel(lieform.PrimeField(7), [(0,), (1,)],\n"
            "                                    {(0, 0): 1, (0, 1): 1})\n"
            "except AssertionError as exc:\n"
            "    print(type(exc).__name__, exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], env=child_env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "AssertionError row 0 has entries in degrees (0,) and (1,)\n"


# -- pinned ad maps: sha256 of repr([(nrows, ncols, data), ...]) of ad(b_i)
# for every basis vector, then of ad(v) for a dense v, taken from the
# per-pair table walk that the sparse ad entries replaced

AD_RINGS = {"F7": F7, "QQ": QQ, "Z25": IntegersModPk(5, 2), "F5[eps]": DualNumbers(F5)}
AD_DIGESTS = {
    ("A2", "F7"): "2fb84f8e738b5a75f4b549245e27fe430cd19cd828d6e63a3645a9172090853a",
    ("A2", "QQ"): "9cbe5e0dbabe53944e75644e611f4a91229201a5849d34c19a5f85fc81bd687d",
    ("A2", "Z25"): "80aecc5a4218415e3e6e11984e8a3a22651f926a4359dee1bf0268f4018caaaa",
    ("A2", "F5[eps]"): "1e537b0f9109148d0262f8635cc6c8f2e6d0fae89cbb97d2585d28e6caf7634c",
    ("B2", "F7"): "a84edd9747a22d43f75e9620260cb482a20601858c3ea694b613d3da9658687d",
    ("B2", "QQ"): "32da108f0dfec28c64d6339dab55f1ebb796232b2c67d840d203a5345186e17c",
    ("B2", "Z25"): "3363c9af81691840a4c856948392446e9aafee91416c39fc11bc02f1d6f5d769",
    ("B2", "F5[eps]"): "0bd28854cb83cb19b621cf22d85ff95fad05cb98884cf6ad8c57c71cf48ac27b",
    ("G2", "F7"): "d0b327f5f69eb0003adec19e5e4d829e6bb96ca7c658776bc89b5dc346d91a1a",
    ("G2", "QQ"): "ac8112b11dccca21fd431e768d44ad9f542e10598ce00d16d9606f1fb5b25d90",
    ("G2", "Z25"): "a81c0f2a08065844519c0bdfbffbb3c1a8d737f128513b311c51a697df4933fd",
    ("G2", "F5[eps]"): "63ea72fda95f9fc6756ad2c12bac05b2f299612a30cd92d725b5ebd9ba52129a",
    ("B3", "F7"): "820b7c700e7c4d8e3f5383550dbe6fe80a758dfb4fdabf8b8fb4b8ea328b492f",
    ("B3", "QQ"): "def0479be5dc70896265be82d0c7634d601a84ae7e566f882c36e14c04562f0a",
    ("B3", "Z25"): "571f16c3e10ca1603bef37e334aa05be1092845071150412113c8fef0eb22ca7",
    ("B3", "F5[eps]"): "512f652846581d28bba3dc20ee15f1b3665dd63d211012b05e74e4c0a21e6040",
}


def _dense_vector(ring, n):
    return tuple(ring.coerce((3 * i - 7, i) if ring.kind == "dual_numbers" else 3 * i - 7)
                 for i in range(n))


@pytest.mark.parametrize("tname, rname", AD_DIGESTS, ids="-".join)
def test_ad_matrices_match_pinned_digest(tname, rname):
    ring = AD_RINGS[rname]
    g = chevalley_presentation(DynkinType(tname[0], int(tname[1:]))).to_lie_algebra(ring)
    ads = [g.ad_matrix(g.basis_vector(i)) for i in range(g.dim)]
    ads.append(g.ad_matrix(_dense_vector(ring, g.dim)))
    digest = hashlib.sha256(repr([(m.nrows, m.ncols, m.data) for m in ads]).encode())
    assert digest.hexdigest() == AD_DIGESTS[(tname, rname)]


# -- the Jacobi check against a brute-force Jacobiator

def _jacobi_holds(g, i, j, k):
    """[b_i, [b_j, b_k]] + [b_j, [b_k, b_i]] + [b_k, [b_i, b_j]] = 0, by
    bracket_vectors, which sums repeated indices of a term list."""
    e, br, ring = g.basis_vector, g.bracket_vectors, g.ring
    terms = (br(e(i), br(e(j), e(k))), br(e(j), br(e(k), e(i))),
             br(e(k), br(e(i), e(j))))
    return all(ring.is_zero(ring.add(ring.add(x, y), z)) for x, y, z in zip(*terms))


def _first_jacobi_failure(g):
    n = g.dim
    return next(((i, j, k) for i in range(n) for j in range(i + 1, n)
                 for k in range(j + 1, n) if not _jacobi_holds(g, i, j, k)), None)


B2 = chevalley_presentation(DynkinType("B", 2))


def _shift_b2(ring, i, j, k, delta):
    """The B2 table over ring with c_ij^k shifted by delta, as an extra
    term (k, delta) of the pair (i, j)."""
    table = {key: tuple((m, ring.coerce(c)) for m, c in terms)
             for key, terms in B2.table.items()}
    table[(i, j)] = table.get((i, j), ()) + ((k, ring.coerce(delta)),)
    return table


@pytest.mark.parametrize("ring, deltas", [
    (QQ, (1, 2, Fraction(1, 2), -3)),
    (ZZ, (1, 2, -3, 6)),
    (F7, (1, 2, 3, 6)),
    (IntegersModPk(5, 2), (1, 2, 5, 10)),
    (DualNumbers(F5), (1, 2, (0, 1), (3, 1))),
], ids=["QQ", "ZZ", "F7", "Z25", "F5[eps]"])
def test_jacobi_check_agrees_with_the_jacobiator(ring, deltas):
    rng = random.Random(2)
    for _ in range(12):
        i, j = sorted(rng.sample(range(B2.dim), 2))
        k, delta = rng.randrange(B2.dim), rng.choice(deltas)
        table = _shift_b2(ring, i, j, k, delta)
        first = _first_jacobi_failure(LieAlgebra(ring, B2.dim, table, check=False))
        if first is None:
            LieAlgebra(ring, B2.dim, table)
        else:
            with pytest.raises(ValueError, match="Jacobi fails on triple") as err:
                LieAlgebra(ring, B2.dim, table)
            assert str(err.value).endswith("(%d,%d,%d)" % first)
        # a second term -delta at the same index restores B2
        table[(i, j)] += ((k, ring.neg(ring.coerce(delta))),)
        LieAlgebra(ring, B2.dim, table)


def test_jacobi_check_survives_python_O(child_env):
    code = ("import lieform\n"
            "assert False  # stripped under -O\n"
            "try:\n"
            "    lieform.LieAlgebra(lieform.QQ, 3, {(0, 1): ((2, 1),), (0, 2): ((0, 1),)})\n"
            "except ValueError as exc:\n"
            "    print(type(exc).__name__, exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], env=child_env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "ValueError Jacobi fails on triple (0,1,2)\n"


def test_public_names_are_the_liealg_functions():
    # perfbench's tracer wraps these names in lieform.liealg
    for name in ("derivation_algebra", "center_basis", "killing_form",
                 "is_lie_automorphism", "casimir", "casimir_operator",
                 "base_change"):
        assert getattr(lieform.liealg, name) is getattr(lieform, name), name


# (call, error class, message): the named errors of the algebra layer that
# the tests above do not reach
LIEALG_ERRORS = [
    (lambda: LieAlgebra(QQ, 3, {(1, 0): ((2, 1),)}), DimensionMismatch, "bad pair (1, 0)"),
    (lambda: LieAlgebra(QQ, 3, {(0, 3): ((2, 1),)}), DimensionMismatch, "bad pair (0, 3)"),
    (lambda: SL2.to_lie_algebra(QQ).bracket_vectors((1, 0), (0, 1, 0)), DimensionMismatch,
     "vector length 2, dim 3"),
    (lambda: center_basis(SL2.to_lie_algebra(ZZ)), UnsupportedRing,
     "center computation needs a field-kind ring"),
    (lambda: derivation_algebra(SL2.to_lie_algebra(ZZ)), UnsupportedRing,
     "derivations need a field-kind ring"),
    (lambda: casimir(SL2.to_lie_algebra(PrimeField(2))), NotPerfect,
     "Killing form is not perfect over PrimeField(p=2)"),
    (lambda: apply_endo_to_casimir(casimir(SL2.to_lie_algebra(F5)), Matrix.zeros(F5, 3, 3)),
     Singular, "endomorphism is not invertible"),
    (lambda: is_lie_automorphism(SL2.to_lie_algebra(F5), Matrix.identity(F7, 3)),
     RingMismatch, "PrimeField(p=7) vs PrimeField(p=5)"),
    (lambda: is_lie_automorphism(SL2.to_lie_algebra(F5), Matrix.identity(F5, 2)),
     DimensionMismatch, "endomorphism shape 2x2 on dim 3"),
]


@pytest.mark.parametrize("call,error,message", LIEALG_ERRORS)
def test_liealg_named_errors(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
