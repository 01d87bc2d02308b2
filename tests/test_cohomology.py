import math
import random
import subprocess
import sys

import pytest

import lieform.cohomology as cohomology
import lieform.liealg as liealg
from lieform import (DimensionTooLarge, DualNumbers, DynkinType,
                     IntegersModPk, LieAlgebra, Matrix, NotACocycle,
                     NotAutomorphism, NotPerfect, PrimeField, QQ, RingMismatch,
                     UnsupportedRing, ZZ, base_change, ce_complex, center_basis,
                     chevalley_involution, chevalley_presentation, cohomology_dim,
                     derivation_algebra, inverse, is_lie_automorphism,
                     lift_automorphism, rank, solve_coboundary, solve_linear,
                     SquareZeroExtension, square_zero_extension, torus_automorphism,
                     triple_flip)

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
SL2 = chevalley_presentation(DynkinType("A", 1))
SL3 = chevalley_presentation(DynkinType("A", 2))


def test_complex_shapes_sl2():
    cx = ce_complex(SL2.to_lie_algebra(F5))
    assert (cx.cochain_dim(0), cx.cochain_dim(1), cx.cochain_dim(2),
            cx.cochain_dim(3)) == (3, 9, 9, 3)
    assert cx.d0.nrows == 9 and cx.d0.ncols == 3
    assert cx.d1.nrows == 9 and cx.d1.ncols == 9
    assert cx.d2.nrows == 3 and cx.d2.ncols == 9
    assert (cx.d1 @ cx.d0).is_zero()
    assert (cx.d2 @ cx.d1).is_zero()


@pytest.mark.parametrize("pres,p", [
    (SL2, 3), (SL2, 5), (SL2, 7), (SL3, 5), (SL3, 7)], ids=["sl2-3",
    "sl2-5", "sl2-7", "sl3-5", "sl3-7"])
def test_whitehead_vanishing(pres, p):
    cx = ce_complex(pres.to_lie_algebra(PrimeField(p)))
    assert cohomology_dim(cx, 0) == 0
    assert cohomology_dim(cx, 1) == 0
    assert cohomology_dim(cx, 2) == 0


def test_abelian_algebra_cohomology():
    # every differential is zero, so H^k is all of C^k, of dim C(n, k)·n;
    # dim 0 has no weight to read a degree from
    for n in range(4):
        cx = ce_complex(LieAlgebra(F5, n, {}, check=False))
        assert cx.d0.is_zero() and cx.d1.is_zero() and cx.d2.is_zero()
        assert [cohomology_dim(cx, k) for k in range(3)] == [
            math.comb(n, k) * n for k in range(3)]


def test_degree_bound():
    cx = ce_complex(SL2.to_lie_algebra(F5))
    with pytest.raises(ValueError):
        cohomology_dim(cx, 3)


def test_dimension_guard():
    big = LieAlgebra(F5, 21, {}, check=False)
    with pytest.raises(DimensionTooLarge):
        ce_complex(big)


def test_field_required():
    with pytest.raises(Exception):
        ce_complex(SL2.to_lie_algebra(ZZ))


def test_solve_coboundary_roundtrip():
    g = SL2.to_lie_algebra(F7)
    cx = ce_complex(g)
    rng = random.Random(11)
    for _ in range(10):
        delta = Matrix.column(F7, [rng.randrange(7) for _ in range(9)])
        theta = cx.d1 @ delta
        found = solve_coboundary(cx, theta)
        assert found is not None
        assert (cx.d1 @ found) == theta


def test_solve_coboundary_zero_gives_zero():
    cx = ce_complex(SL2.to_lie_algebra(F5))
    out = solve_coboundary(cx, [0] * 9)
    assert out is not None and out.is_zero()


def test_solve_coboundary_rejects_non_cocycles():
    # d2 of sl3 is nonzero, so some unit 2-cochain lies outside ker d2
    g = SL3.to_lie_algebra(F5)
    cx = ce_complex(g)
    # find a 2-cochain outside ker d2
    n2 = cx.cochain_dim(2)
    bad = None
    for k in range(n2):
        col = Matrix.column(F5, [1 if i == k else 0 for i in range(n2)])
        if not (cx.d2 @ col).is_zero():
            bad = col
            break
    assert bad is not None
    with pytest.raises(NotACocycle):
        solve_coboundary(cx, bad)


def test_twisted_complex_composes_to_zero():
    g = SL2.to_lie_algebra(F5)
    s = torus_automorphism(SL2, F5, 2)
    cx = ce_complex(g, twist=s)
    assert (cx.d1 @ cx.d0).is_zero()
    assert (cx.d2 @ cx.d1).is_zero()
    # twisting by the identity is no twist at all
    cid = ce_complex(g, twist=Matrix.identity(F5, 3))
    plain = ce_complex(g)
    assert cid.d1 == plain.d1 and cid.d2 == plain.d2


def test_square_zero_extension_mod_p2():
    ext = square_zero_extension(IntegersModPk(5, 2))
    assert ext.quotient_ring == F5
    assert ext.reduce_raw(17) == 2
    assert ext.lift_raw(2) == 2
    assert ext.j_embed(3) == 15
    assert ext.j_extract(15) == 3
    assert ext.j_extract(ext.j_embed(4)) == 4


def test_square_zero_extension_dual_numbers():
    ext = square_zero_extension(DualNumbers(F5))
    assert ext.quotient_ring == F5
    assert ext.reduce_raw((2, 3)) == 2
    assert ext.lift_raw(2) == (2, 0)
    assert ext.j_embed(3) == (0, 3)
    assert ext.j_extract((0, 3)) == 3


def test_square_zero_extension_rejects_other_rings():
    with pytest.raises(Exception):
        square_zero_extension(IntegersModPk(5, 3))
    with pytest.raises(Exception):
        square_zero_extension(PrimeField(5))


@pytest.mark.parametrize("total,quotient", [
    (IntegersModPk(5, 3), F5), (IntegersModPk(5, 2), F7),
    (DualNumbers(F5), F7), (F5, F5)], ids=repr)
def test_square_zero_extension_refuses_other_pairs(total, quotient):
    with pytest.raises(UnsupportedRing, match="square-zero extension needs"):
        SquareZeroExtension(total, quotient)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("kind", ["Z/p^2", "F_p[eps]"])
def test_square_zero_maps_round_trip(kind, p):
    fp = PrimeField(p)
    ext = square_zero_extension(IntegersModPk(p, 2) if kind == "Z/p^2" else DualNumbers(fp))
    for u in range(p):
        assert ext.j_extract(ext.j_embed(u)) == u
        assert ext.reduce_raw(ext.j_embed(u)) == 0
        assert ext.reduce_raw(ext.lift_raw(u)) == u


def test_lift_torus_automorphism_frozen():
    g = SL2.to_lie_algebra(ZZ)
    ext = square_zero_extension(IntegersModPk(5, 2))
    sigma_bar = torus_automorphism(SL2, F5, 2)
    lifted = lift_automorphism(g, ext, sigma_bar)
    assert lifted.rows() == [[1, 0, 0], [0, 17, 0], [0, 0, 3]]
    # lift reduces to the input
    z25 = IntegersModPk(5, 2)
    red = [[ext.reduce_raw(v) for v in row] for row in lifted.rows()]
    assert red == sigma_bar.rows()
    g25 = SL2.to_lie_algebra(z25)
    assert is_lie_automorphism(g25, lifted)


def test_alternative_diagonal_lift_also_works():
    # the entrywise-minimal lift is one of several valid lifts of the
    # same reduction; diag(1, 2, 13) is another
    z25 = IntegersModPk(5, 2)
    g25 = SL2.to_lie_algebra(z25)
    other = Matrix.from_rows(z25, [[1, 0, 0], [0, 2, 0], [0, 0, 13]])
    assert is_lie_automorphism(g25, other)


def test_lift_over_dual_numbers():
    g = SL2.to_lie_algebra(ZZ)
    ext = square_zero_extension(DualNumbers(F5))
    sigma_bar = triple_flip(SL2, F5, (1,))
    lifted = lift_automorphism(g, ext, sigma_bar)
    dual = DualNumbers(F5)
    gd = SL2.to_lie_algebra(dual)
    assert is_lie_automorphism(gd, lifted)
    assert [[v[0] for v in row] for row in lifted.rows()] == sigma_bar.rows()


def test_lift_composite_automorphism_sl3():
    g = SL3.to_lie_algebra(ZZ)
    ext = square_zero_extension(IntegersModPk(5, 2))
    s = torus_automorphism(SL3, F5, 3) @ chevalley_involution(SL3, F5)
    lifted = lift_automorphism(g, ext, s)
    g25 = SL3.to_lie_algebra(IntegersModPk(5, 2))
    assert is_lie_automorphism(g25, lifted)
    red = [[ext.reduce_raw(v) for v in row] for row in lifted.rows()]
    assert red == s.rows()


def test_lift_rejects_non_automorphism():
    g = SL2.to_lie_algebra(ZZ)
    ext = square_zero_extension(IntegersModPk(5, 2))
    shear = Matrix.from_rows(F5, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(NotAutomorphism):
        lift_automorphism(g, ext, shear)


def test_lift_needs_perfect_killing_form():
    g = SL2.to_lie_algebra(ZZ)
    ext = square_zero_extension(IntegersModPk(2, 2))
    sigma_bar = Matrix.identity(PrimeField(2), 3)
    with pytest.raises(NotPerfect):
        lift_automorphism(g, ext, sigma_bar)


# ---------------------------------------------------------------------------
# the twisted complex as a conjugate, and the lift against the cached
# untwisted complex

def _seeded_automorphism(pres, fp, rng):
    """A torus element and two triple flips, multiplied in seeded order."""
    lam = (0,) * pres.rank
    while not any(lam):
        lam = tuple(rng.randint(-2, 2) for _ in range(pres.rank))
    factors = [torus_automorphism(pres, fp, rng.randint(2, fp.p - 2), lam=lam)]
    factors += [triple_flip(pres, fp, rng.choice(pres.root_system.positive_roots))
                for _ in range(2)]
    rng.shuffle(factors)
    s = Matrix.identity(fp, pres.dim)
    for f in factors:
        s = s @ f
    return s


def _conjugate(d: Matrix, s: Matrix, s_inv: Matrix) -> Matrix:
    """(s⊗I)·d·(s⁻¹⊗I) entry by entry, s acting on the coefficient index
    a of the row index a*m + q and of the column index b*m' + q'."""
    ring, n = d.ring, s.nrows
    m_row, m_col = d.nrows // n, d.ncols // n
    out = [ring.zero()] * (d.nrows * d.ncols)
    for r in range(d.nrows):
        a, q = divmod(r, m_row)
        for c in range(d.ncols):
            v = d.raw(r, c)
            if ring.is_zero(v):
                continue
            b, q2 = divmod(c, m_col)
            for a2 in range(n):
                sv = ring.mul(s.raw(a2, a), v)
                if ring.is_zero(sv):
                    continue
                for b2 in range(n):
                    w = s_inv.raw(b, b2)
                    if not ring.is_zero(w):
                        k = (a2 * m_row + q) * d.ncols + b2 * m_col + q2
                        out[k] = ring.add(out[k], ring.mul(sv, w))
    return Matrix(ring, d.nrows, d.ncols, tuple(out))


@pytest.mark.parametrize("name", ["A1", "A2", "B2"])
@pytest.mark.parametrize("p", [5, 7, 2097169])
def test_twisted_complex_is_conjugate_of_untwisted(name, p):
    fp = PrimeField(p)
    pres = chevalley_presentation(DynkinType(name[0], int(name[1:])))
    g = pres.to_lie_algebra(fp)
    plain = ce_complex(g)
    rng = random.Random(p + pres.dim)
    twists = [chevalley_involution(pres, fp)]
    twists += [_seeded_automorphism(pres, fp, rng) for _ in range(2)]
    for s in twists:
        s_inv = inverse(s)
        cx = ce_complex(g, twist=s)
        # 0-cochains are coefficient vectors, so s⁻¹ acts on d0's columns
        for d, d_plain in ((cx.d0, plain.d0), (cx.d1, plain.d1), (cx.d2, plain.d2)):
            assert d == _conjugate(d_plain, s, s_inv)


def _lift_by_twisted_solve(g, ext, sigma_bar):
    """σ₀ − j(solve_linear(d1_σ, θ)), with θ the bracket defect of the
    entrywise lift σ₀, on the dense twisted complex."""
    quot, total, n = ext.quotient_ring, ext.total_ring, g.dim
    gt = base_change(g, total)
    s0 = Matrix(total, n, n, tuple(ext.lift_raw(v) for v in sigma_bar.data))
    cx = ce_complex(base_change(g, quot), twist=sigma_bar)
    np_ = len(cx.pairs)
    theta = [quot.zero()] * (n * np_)
    for q, (i, j) in enumerate(cx.pairs):
        lhs = gt.bracket_vectors(s0.col(i), s0.col(j))
        rhs = s0 @ Matrix.column(total, list(gt.bracket_vectors(
            gt.basis_vector(i), gt.basis_vector(j))))
        for a in range(n):
            theta[a * np_ + q] = ext.j_extract(total.sub(lhs[a], rhs.raw(a, 0)))
    delta = solve_linear(cx.d1, Matrix.column(quot, theta))
    return Matrix(total, n, n, tuple(
        total.sub(s0.raw(a, b), ext.j_embed(delta.raw(a * n + b, 0)))
        for a in range(n) for b in range(n)))


@pytest.mark.parametrize("total", [IntegersModPk(5, 2), IntegersModPk(7, 2),
                                   DualNumbers(F5), IntegersModPk(2097143, 2)],
                         ids=["Z25", "Z49", "F5eps", "Zp2-2097143"])
@pytest.mark.parametrize("name", ["A1", "A2", "B2"])
def test_lift_equals_twisted_solve(total, name):
    ext = square_zero_extension(total)
    fp = ext.quotient_ring
    pres = chevalley_presentation(DynkinType(name[0], int(name[1:])))
    g = pres.to_lie_algebra(ZZ)
    rng = random.Random(fp.p)
    sigmas = [Matrix.identity(fp, pres.dim), chevalley_involution(pres, fp)]
    sigmas += [_seeded_automorphism(pres, fp, rng) for _ in range(2)]
    for s in sigmas:
        assert lift_automorphism(g, ext, s) == _lift_by_twisted_solve(g, ext, s)


def test_lifts_share_one_untwisted_complex(monkeypatch):
    real, built = cohomology.ce_complex, []

    def untwisted_only(g, twist=None):
        if twist is not None:
            raise RuntimeError("lift_automorphism built a twisted cochain complex")
        built.append(g.dim)
        return real(g)

    monkeypatch.setattr(cohomology, "ce_complex", untwisted_only)
    pres = chevalley_presentation(DynkinType("B", 2))
    g = pres.to_lie_algebra(ZZ)
    ext = square_zero_extension(IntegersModPk(5, 2))
    rng = random.Random(10)
    cohomology._untwisted_complex.cache_clear()
    for _ in range(10):
        lift_automorphism(g, ext, _seeded_automorphism(pres, F5, rng))
    info = cohomology._untwisted_complex.cache_info()
    assert (info.misses, info.hits) == (1, 9)
    assert built == [10]    # the one untwisted complex, built on the cache miss


def test_twists_share_one_untwisted_complex():
    g = SL3.to_lie_algebra(F5)
    cohomology._untwisted_complex.cache_clear()
    a = ce_complex(g, twist=chevalley_involution(SL3, F5))
    b = ce_complex(g, twist=torus_automorphism(SL3, F5, 2))
    assert a.untwisted is b.untwisted
    assert a.algebra is g and b.algebra is g
    info = cohomology._untwisted_complex.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_block_solve_equals_the_dense_solve(name, p, monkeypatch):
    # the lift solves d1·y = theta_u one degree block of d1 at a time; each
    # system it meets, an rhs on a row d1 never reaches, rhs in the image
    # and random rhs must give what the dense solve on the whole d1 gives
    fp = PrimeField(p)
    pres = chevalley_presentation(DynkinType(name[0], int(name[1:])))
    n = pres.dim
    dense = ce_complex(pres.to_lie_algebra(fp)).d1
    real, seen = cohomology._solve_by_blocks, []

    def spy(ring, row_degree, blocks, ncols, rhs):
        seen.append((row_degree, blocks, rhs))
        return real(ring, row_degree, blocks, ncols, rhs)

    def both(row_degree, blocks, rhs):
        col = Matrix(fp, dense.nrows, 1, tuple(rhs.get(r, 0) for r in range(dense.nrows)))
        return real(fp, row_degree, blocks, n * n, rhs), solve_linear(dense, col)

    monkeypatch.setattr(cohomology, "_solve_by_blocks", spy)
    ext = square_zero_extension(IntegersModPk(p, 2))
    rng = random.Random(p)
    for _ in range(3):
        lift_automorphism(pres.to_lie_algebra(ZZ), ext,
                          _seeded_automorphism(pres, fp, rng))
    assert len(seen) == 3 and all(rhs for _, _, rhs in seen)
    row_degree, blocks = seen[0][:2]
    assert len(blocks) > 1
    unreached = next(r for r in range(dense.nrows) if r not in row_degree)
    image = dense @ Matrix(fp, n * n, 1, tuple(rng.randrange(p) for _ in range(n * n)))
    cases = [rhs for _, _, rhs in seen] + [
        {unreached: 1},
        {r: v for r, v in enumerate(image.data) if v},
        {r: rng.randrange(1, p) for r in rng.sample(sorted(row_degree), 3)}]
    results = [both(row_degree, blocks, rhs) for rhs in cases]
    assert all(got == want for got, want in results)
    assert [got is None for got, _ in results[:5]] == [False, False, False, True, False]


def test_lift_keeps_the_dimension_bound():
    pres = chevalley_presentation(DynkinType("B", 3))
    ext = square_zero_extension(IntegersModPk(7, 2))
    with pytest.raises(DimensionTooLarge):
        lift_automorphism(pres.to_lie_algebra(ZZ), ext, Matrix.identity(F7, 21))


def test_corrupted_d2_fails_the_cocycle_check(monkeypatch):
    # a unit added at (c, c) of d2 for every column c puts theta itself
    # into d2·theta, and theta is nonzero: the naive lift of t = 2 is not
    # an automorphism over Z/25
    real = cohomology._untwisted_complex

    def corrupted(ring, dim, table, dynkin):
        cx = real(ring, dim, table, dynkin)
        d0, d1, d2 = cx.maps
        entries = dict(d2)
        for c in range(dim * dim * (dim - 1) // 2):
            entries[(c, c)] = ring.add(entries.get((c, c), ring.zero()), 1)
        return cx._replace(maps=(d0, d1, entries))

    monkeypatch.setattr(cohomology, "_untwisted_complex", corrupted)
    g = SL3.to_lie_algebra(ZZ)
    ext = square_zero_extension(IntegersModPk(5, 2))
    with pytest.raises(AssertionError, match="cocycle identity"):
        lift_automorphism(g, ext, torus_automorphism(SL3, F5, 2))


# -- the block readers against the dense reference

@pytest.mark.parametrize("p", [2, 3, 5, 7, 2097169])
@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3"])
def test_block_readers_equal_the_dense_reference(name, p):
    fp = PrimeField(p)
    pres = chevalley_presentation(DynkinType(name[0], int(name[1:])))
    g = pres.to_lie_algebra(fp)
    rng = random.Random(p * pres.dim)
    plain = ce_complex(g)
    # d_σ = (σ⊗I)·d·(σ⁻¹⊗I) has the rank of d, so the dense ranks of the
    # untwisted complex are the reference for every twist
    ranks = [rank(plain.d0), rank(plain.d1), rank(plain.d2)]
    if p > 3:
        s = _seeded_automorphism(pres, fp, rng)
    else:    # F_2 and F_3 have no torus parameter t with 2 <= t <= p - 2
        roots = pres.root_system.positive_roots
        s = triple_flip(pres, fp, rng.choice(roots)) @ triple_flip(pres, fp, rng.choice(roots))
    for cx in (plain, ce_complex(g, twist=chevalley_involution(pres, fp)),
               ce_complex(g, twist=s)):
        assert [cohomology_dim(cx, k) for k in (0, 1, 2)] == [
            cx.cochain_dim(k) - ranks[k] - (ranks[k - 1] if k else 0) for k in (0, 1, 2)]
        n1, n2 = cx.cochain_dim(1), cx.cochain_dim(2)
        image = cx.d1 @ Matrix(fp, n1, 1, tuple(rng.randrange(p) for _ in range(n1)))
        for theta in (image, Matrix.zeros(fp, n2, 1)):
            assert solve_coboundary(cx, theta) == solve_linear(cx.d1, theta)
        # d2·(image + e_c) = d2·e_c, nonzero for a column c that d2's
        # map (the dense view's nonzero entries) reaches
        c = min(c for _, c in cx.maps[2])
        bad = image + Matrix(fp, n2, 1, tuple(int(r == c) for r in range(n2)))
        with pytest.raises(NotACocycle):
            solve_coboundary(cx, bad)


def test_block_readers_leave_the_dense_views_unbuilt():
    cohomology._untwisted_complex.cache_clear()
    g = SL3.to_lie_algebra(F5)
    for cx in (ce_complex(g), ce_complex(g, twist=chevalley_involution(SL3, F5))):
        assert [cohomology_dim(cx, k) for k in (0, 1, 2)] == [0, 0, 0]
        # only `_solve` splits d1 into all its degree blocks
        assert "_split" not in vars(cx.untwisted or cx)
        assert solve_coboundary(cx, [0] * cx.cochain_dim(2)).is_zero()
        assert not {"d0", "d1", "d2"} & set(vars(cx))
        # a twisted complex reads the blocks of the untwisted one it keeps
        assert not {"d0", "d1", "d2"} & set(vars(cx.untwisted or cx))
        assert cx.d1.nrows == cx.cochain_dim(2) and "d1" in vars(cx)


@pytest.mark.parametrize("ring", [PrimeField(2), F3, F5, F7, PrimeField(2097169), QQ],
                         ids=repr)
@pytest.mark.parametrize("tname", ["A1", "A2", "A3", "B2", "C2", "G2"])
def test_kept_blocks_give_the_cohomology_of_all_blocks(tname, ring):
    # cohomology_dim counts the kept blocks only; the reference ranks every
    # block of d0, d1 and d2 (B3, C3 and D4 are above the complex's bound)
    g = chevalley_presentation(DynkinType(tname[0], int(tname[1:]))).to_lie_algebra(ring)
    cx = ce_complex(g)
    want = [cx.cochain_dim(degree) - sum(rank(block)
                                         for k in range(max(degree - 1, 0), degree + 1)
                                         for _, _, block in cx._blocks(k)[1].values())
            for degree in (0, 1, 2)]
    assert [cohomology_dim(cx, degree) for degree in (0, 1, 2)] == want


def test_twisted_ranks_are_the_untwisted_blocks(monkeypatch):
    # d_σ = (σ⊗I)·d·(σ⁻¹⊗I) has the rank of d, so cohomology_dim of a
    # twisted complex ranks the degree blocks of the untwisted complex,
    # not one block of the whole d_σ; of those, only the kept ones, whose
    # torus character is zero, as every other block is acyclic
    pres = chevalley_presentation(DynkinType("A", 3))
    g = pres.to_lie_algebra(F5)
    blocks = ce_complex(g)._blocks
    _, char = liealg._torus(g)
    want = [(block.nrows, block.ncols) for degree in (0, 1, 2)
            for k in range(max(degree - 1, 0), degree + 1)
            for d, (_, _, block) in blocks(k)[1].items() if all(map(F5.is_zero, char(d)))]
    assert 0 < len(want) < sum(len(blocks(k)[1]) for k in (0, 0, 1, 1, 2))
    real, seen = cohomology.rank, []

    def spy(m):
        seen.append((m.nrows, m.ncols))
        return real(m)

    monkeypatch.setattr(cohomology, "rank", spy)
    for s in (chevalley_involution(pres, F5),
              _seeded_automorphism(pres, F5, random.Random(5))):
        cx = ce_complex(g, twist=s)
        seen.clear()
        assert [cohomology_dim(cx, k) for k in (0, 1, 2)] == [0, 0, 0]
        assert seen == want


def test_non_automorphism_twist_is_refused():
    # x·m = [2x, m] is not an action: d1∘d0 picks up 4[[x,y],m] - 2[[x,y],m]
    g = SL2.to_lie_algebra(F5)
    with pytest.raises(NotAutomorphism, match=r"d1∘d0 is nonzero at \(x, y, m\) = \(0,1,0\)"):
        ce_complex(g, twist=Matrix.identity(F5, 3).scale(2))


def test_twist_must_be_an_automorphism():
    g = SL2.to_lie_algebra(F5)
    with pytest.raises(NotAutomorphism, match="singular"):
        ce_complex(g, twist=Matrix.zeros(F5, 3, 3))
    with pytest.raises(NotAutomorphism, match="singular"):
        ce_complex(g, twist=Matrix.from_rows(F5, [[1, 0, 0], [0, 1, 0], [1, 0, 0]]))
    with pytest.raises(ValueError, match="dim x dim"):
        ce_complex(g, twist=Matrix.identity(F5, 2))
    with pytest.raises(RingMismatch):
        ce_complex(g, twist=Matrix.identity(F7, 3))
    # the Heisenberg algebra [x, y] = z has the centre F·z; for σ = diag(1, 1, 2),
    # [σx, σy] - σ[x, y] = z - 2z is central, so d1∘d0 = 0, yet σ is no automorphism
    heis = LieAlgebra(F5, 3, {(0, 1): ((2, 1),)})
    with pytest.raises(NotAutomorphism, match=r"central and nonzero at \(x, y\) = \(0,1\)"):
        ce_complex(heis, twist=Matrix.from_rows(F5, [[1, 0, 0], [0, 1, 0], [0, 0, 2]]))
    cx = ce_complex(heis, twist=Matrix.from_rows(F5, [[2, 0, 0], [0, 1, 0], [0, 0, 2]]))
    assert (cx.d1 @ cx.d0).is_zero() and (cx.d2 @ cx.d1).is_zero()


def test_twist_refusals_keep_their_order():
    # the ring, then the dimension, then the shape, then the automorphism
    with pytest.raises(UnsupportedRing):
        ce_complex(SL2.to_lie_algebra(ZZ), twist=Matrix.identity(ZZ, 2))
    with pytest.raises(DimensionTooLarge):
        ce_complex(LieAlgebra(F5, 21, {}, check=False), twist=Matrix.identity(F5, 2))
    with pytest.raises(ValueError):
        ce_complex(SL2.to_lie_algebra(F5), twist=Matrix.zeros(F5, 2, 3))


_REFUSALS = """
import lieform as L
assert False  # stripped under -O
F5 = L.PrimeField(5)
sl2 = L.chevalley_presentation(L.DynkinType("A", 1)).to_lie_algebra(F5)
heis = L.LieAlgebra(F5, 3, {(0, 1): ((2, 1),)})
for g, twist in ((sl2, L.Matrix.zeros(F5, 3, 3)),
                 (sl2, L.Matrix.from_rows(F5, [[1, 0, 0], [0, 1, 0], [1, 0, 0]])),
                 (sl2, L.Matrix.identity(F5, 3).scale(2)), (sl2, L.Matrix.identity(F5, 2)),
                 (heis, L.Matrix.from_rows(F5, [[1, 0, 0], [0, 1, 0], [0, 0, 2]]))):
    try:
        L.ce_complex(g, twist=twist)
    except (L.NotAutomorphism, ValueError) as exc:
        print(type(exc).__name__, exc)
"""


def test_twist_refusals_survive_python_O(child_env):
    out = subprocess.run([sys.executable, "-O", "-c", _REFUSALS],
                         env=dict(child_env, PYTHONIOENCODING="utf-8"), check=True,
                         capture_output=True, encoding="utf-8").stdout
    head = "NotAutomorphism the twist is not an automorphism: "
    assert out.splitlines() == [
        head + "it is singular",
        head + "it is singular",
        head + "d1∘d0 is nonzero at (x, y, m) = (0,1,0)",
        "ValueError twist must be a dim x dim matrix",
        head + "[σx, σy] - σ[x, y] is central and nonzero at (x, y) = (0,1)"]


def test_only_d2_has_the_dimension_bound():
    g = chevalley_presentation(DynkinType("B", 3)).to_lie_algebra(F7)
    assert derivation_algebra(g).ncols == 21
    assert center_basis(g).ncols == 0
    with pytest.raises(DimensionTooLarge):
        ce_complex(g)


# (call, error class, message): the named errors of the cohomology layer
# that the tests above do not reach
Z25_EXT = square_zero_extension(IntegersModPk(5, 2))
COHOMOLOGY_ERRORS = [
    (lambda: solve_coboundary(ce_complex(SL2.to_lie_algebra(F5)), [0] * 8), ValueError,
     "expected a 9 x 1 column"),
    (lambda: solve_coboundary(ce_complex(SL2.to_lie_algebra(F5)), Matrix.zeros(F7, 9, 1)),
     RingMismatch, "PrimeField(p=5) vs PrimeField(p=7)"),
    (lambda: Z25_EXT.j_extract(3), ValueError, "value not in the square-zero ideal"),
    (lambda: lift_automorphism(SL2.to_lie_algebra(F5), Z25_EXT, Matrix.identity(F5, 3)),
     UnsupportedRing, "lifting starts from an integral table"),
    (lambda: lift_automorphism(SL2.to_lie_algebra(ZZ), Z25_EXT, Matrix.identity(F7, 3)),
     NotAutomorphism, "matrix is over PrimeField(p=7), expected PrimeField(p=5)"),
]


@pytest.mark.parametrize("call,error,message", COHOMOLOGY_ERRORS)
def test_cohomology_named_errors(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
