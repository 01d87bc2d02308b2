"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
"ACCEPTANCE cN <name>: PASS" line when its assertions all hold.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from lieform import (DynkinType, EXPECTED_RATIO, IntegersModPk, LocalizedAtP,
                     Matrix, PrimeField, QQ, ZZ, apply_endo_to_casimir,
                     b_series_kernel_witness, base_change, casimir,
                     casimir_operator, ce_complex, center_basis,
                     chain_from_highest, chevalley_presentation,
                     classify_p_type, cohomology_dim, conjugate,
                     counterexample_module, derivation_algebra, direct_sum,
                     exp_nilpotent, extend_torus, inverse, is_lie_automorphism,
                     killing_form, lattice_closed_under_action,
                     lift_automorphism, module_from_json, module_to_json,
                     oracle_perfect, predict_perfect, ratio_check,
                     solve_linear, square_zero_extension, torus_automorphism,
                     triple_flip, verdict_with_oracle, weight_scaling)

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)

ALL_TYPES = tuple(
    [DynkinType(s, n) for s in "ABC" for n in range(1, 9)]
    + [DynkinType("D", n) for n in range(3, 9)]
    + [DynkinType("E", n) for n in (6, 7, 8)]
    + [DynkinType("F", 4), DynkinType("G", 2)]
)


def _passed(tag):
    print("ACCEPTANCE %s: PASS" % tag)


def test_c01_classification_table_matches_oracle():
    start = time.monotonic()
    cells = 0
    for t in ALL_TYPES:
        for p in PRIMES:
            v = verdict_with_oracle(t, p)
            assert v.oracle is not None
            assert v.agree, "mismatch at %s p=%d" % (t, p)
            cells += 1
    elapsed = time.monotonic() - start
    assert cells == 35 * 9
    assert elapsed < 60.0, "table took %.1f s" % elapsed
    _passed("c1 classification-table-oracle-agreement (315 cells, %.1f s)"
            % elapsed)


def test_c02_low_rank_identifications_agree():
    groups = (
        (DynkinType("A", 1), DynkinType("B", 1), DynkinType("C", 1)),
        (DynkinType("B", 2), DynkinType("C", 2)),
        (DynkinType("A", 3), DynkinType("D", 3)),
    )
    for p in PRIMES:
        for group in groups:
            verdicts = {predict_perfect(t, p).predicted for t in group}
            assert len(verdicts) == 1, "split verdicts %s p=%d" % (group, p)
    _passed("c2 isogenous-type-consistency")


def test_c03_killing_is_constant_multiple_of_trace_form():
    for series, ranks in (("A", range(1, 8)), ("B", range(1, 9)),
                          ("C", range(1, 9)), ("D", range(3, 9))):
        for n in ranks:
            t = DynkinType(series, n)
            assert ratio_check(t) == EXPECTED_RATIO[series](n), str(t)
    _passed("c3 killing-trace-ratio-identities")


def test_c04_casimir_suite():
    types = [DynkinType(s, n) for s in "ABC" for n in range(1, 5)]
    types += [DynkinType("D", 3), DynkinType("D", 4),
              DynkinType("F", 4), DynkinType("G", 2)]
    ran = 0
    for t in types:
        pres = chevalley_presentation(t)
        for p in (3, 5, 7, 11, 13):
            if not predict_perfect(t, p).predicted:
                continue
            fp = PrimeField(p)
            g = pres.to_lie_algebra(fp)
            ct = casimir(g)
            ident = Matrix.identity(fp, g.dim)
            op = casimir_operator(ct)
            assert op == ident, "operator != 1 for %s p=%d" % (t, p)
            for i in range(g.dim):
                ad = g.ad_matrix(g.basis_vector(i))
                assert (op @ ad) == (ad @ op)
            for alpha in pres.root_system.positive_roots:
                s = triple_flip(pres, fp, alpha)
                assert is_lie_automorphism(g, s)
                assert apply_endo_to_casimir(ct, s) == ct.coefficients
            tor = torus_automorphism(pres, fp, 2)
            assert is_lie_automorphism(g, tor)
            assert apply_endo_to_casimir(ct, tor) == ct.coefficients
            assert (killing_form(g).gram @ ct.coefficients) == ident
            ran += 1
    assert ran >= 40
    _passed("c4 casimir-invariance-suite (%d perfect cells)" % ran)


def test_c05_characteristic_two_degeneracy():
    for t in ALL_TYPES:
        assert oracle_perfect(t, 2) is False, str(t)
    for n in range(1, 9):
        w = b_series_kernel_witness(n)
        assert w.all_ok, "witness fails at rank %d" % n
    _passed("c5 characteristic-two-degeneracy-and-kernel-witnesses")


def test_c06_derivations_are_inner():
    types = [DynkinType(s, n) for s in "ABC" for n in range(1, 4)]
    types += [DynkinType("D", 3), DynkinType("G", 2)]
    ran = 0
    for t in types:
        pres = chevalley_presentation(t)
        for p in (3, 5, 7, 11, 13):
            if not predict_perfect(t, p).predicted:
                continue
            fp = PrimeField(p)
            g = pres.to_lie_algebra(fp)
            der = derivation_algebra(g)
            assert der.ncols == g.dim, "dim Der != dim at %s p=%d" % (t, p)
            assert center_basis(g).ncols == 0
            ads = None
            for i in range(g.dim):
                col = Matrix.column(fp, g.ad_matrix(g.basis_vector(i)).data)
                assert solve_linear(der, col) is not None
                ads = col if ads is None else ads.hstack(col)
            from lieform import rank as mat_rank
            assert mat_rank(ads) == g.dim
            ran += 1
    assert ran >= 30
    _passed("c6 derivations-equal-inner-derivations (%d cells)" % ran)


def test_c07_cohomology_vanishing():
    start = time.monotonic()
    cases = [(DynkinType("A", 1), p) for p in (3, 5, 7)]
    cases += [(DynkinType("A", 2), p) for p in (5, 7)]
    for t, p in cases:
        g = chevalley_presentation(t).to_lie_algebra(PrimeField(p))
        cx = ce_complex(g)
        assert (cx.d1 @ cx.d0).is_zero() and (cx.d2 @ cx.d1).is_zero()
        for degree in (0, 1, 2):
            assert cohomology_dim(cx, degree) == 0, \
                "H^%d != 0 for %s p=%d" % (degree, t, p)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, "cohomology took %.2f s" % elapsed
    _passed("c7 whitehead-vanishing (%.2f s)" % elapsed)


def _random_mod5_automorphism(pres, rng):
    fp = PrimeField(5)
    s = Matrix.identity(fp, pres.dim)
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            tval = rng.randint(1, 4)
            lam = tuple(rng.randint(-2, 2) for _ in range(pres.rank))
            s = s @ torus_automorphism(pres, fp, tval, lam=lam)
        else:
            alpha = rng.choice(pres.root_system.positive_roots)
            s = s @ triple_flip(pres, fp, alpha)
    return s


def _defect_cocycle_column(g, sigma_bar, ext):
    """theta of the entrywise lift, recomputed from first principles."""
    fp = ext.quotient_ring
    total = ext.total_ring
    gt = base_change(g, total)
    n = g.dim
    s0 = Matrix.from_rows(
        total, [[ext.lift_raw(sigma_bar.raw(a, b)) for b in range(n)]
                for a in range(n)])
    cx = ce_complex(base_change(g, fp), twist=sigma_bar)
    np_ = len(cx.pairs)
    entries = [fp.zero()] * (n * np_)
    for q, (i, j) in enumerate(cx.pairs):
        lhs = s0 @ Matrix.column(
            total, list(gt.bracket_vectors(gt.basis_vector(i),
                                           gt.basis_vector(j))))
        rhs = Matrix.column(
            total, list(gt.bracket_vectors(s0.col(i), s0.col(j))))
        for a in range(n):
            d = total.sub(lhs.raw(a, 0), rhs.raw(a, 0))
            assert fp.is_zero(ext.reduce_raw(d))
            entries[a * np_ + q] = ext.j_extract(d)
    return cx, Matrix.column(fp, entries)


def test_c08_automorphism_lifting_over_z25():
    rng = random.Random(2025)
    ext = square_zero_extension(IntegersModPk(5, 2))
    for t in (DynkinType("A", 1), DynkinType("A", 2)):
        pres = chevalley_presentation(t)
        g = pres.to_lie_algebra(ZZ)
        g25 = base_change(g, ext.total_ring)
        for _ in range(100):
            sigma_bar = _random_mod5_automorphism(pres, rng)
            lifted = lift_automorphism(g, ext, sigma_bar)
            assert is_lie_automorphism(g25, lifted)
            assert all(
                ext.reduce_raw(lifted.raw(a, b)) == sigma_bar.raw(a, b)
                for a in range(g.dim) for b in range(g.dim))
            cx, theta = _defect_cocycle_column(g, sigma_bar, ext)
            assert (cx.d2 @ theta).is_zero()
    _passed("c8 square-zero-automorphism-lifting (200 seeded lifts)")


def _check_projector_family(m, result):
    rp = LocalizedAtP(m.p)
    n = m.ambient_dim
    zero = Matrix(rp, n, n, tuple(rp.zero() for _ in range(n * n)))
    total = zero
    projs = result.projectors
    for w, pw in projs.items():
        assert (pw @ pw) == pw
        total = total + pw
        for w2, pw2 in projs.items():
            if w2 != w:
                assert (pw @ pw2) == zero
    assert total == Matrix.identity(rp, n)


def test_c09_sl2_module_suite():
    # chain modules: grading, raising and lowering exactly as stated
    for p in (2, 3, 5, 7):
        for j in range(1, p):
            c = chain_from_highest(j, p)
            n = j + 1
            h, x, y = (c.action[k] for k in "hxy")
            for i in range(n):
                ei = Matrix.column(QQ, [1 if r == i else 0 for r in range(n)])
                hv = h @ ei
                assert hv == ei.scale(Fraction(j - 2 * i))
                xv = x @ ei
                if i == 0:
                    assert xv.is_zero()
                else:
                    prev = Matrix.column(
                        QQ, [1 if r == i - 1 else 0 for r in range(n)])
                    assert xv == prev.scale(Fraction(j - i + 1))
                yv = y @ ei
                if i == n - 1:
                    assert yv.is_zero()
                else:
                    nxt = Matrix.column(
                        QQ, [1 if r == i + 1 else 0 for r in range(n)])
                    assert yv == nxt.scale(Fraction(i + 1))
            assert lattice_closed_under_action(c)
            r = extend_torus(c)
            assert r.success
            _check_projector_family(c, r)

    # seeded random direct sums with p-type-1 weight sets, shuffled by a
    # unimodular change of lattice basis
    rng = random.Random(9)
    done = 0
    while done < 50:
        p = rng.choice((3, 5, 7))
        parts = [chain_from_highest(rng.randint(1, p - 1), p)
                 for _ in range(rng.randint(2, 3))]
        m = parts[0]
        for extra in parts[1:]:
            m = direct_sum(m, extra)
        if not classify_p_type(m.weights, p).is_type1:
            continue
        n = m.ambient_dim
        rows = [[Fraction(1 if a == b else 0) for b in range(n)]
                for a in range(n)]
        for _ in range(2 * n):
            a, b = rng.sample(range(n), 2)
            coeff = rng.randint(-2, 2)
            for col in range(n):
                rows[a][col] += coeff * rows[b][col]
        mc = conjugate(m, Matrix.from_rows(QQ, rows))
        r = extend_torus(mc)
        assert r.success
        _check_projector_family(mc, r)
        done += 1

    # the enlarged-lattice module is closed yet indecomposable
    for p in (2, 3, 5):
        m = counterexample_module(p)
        assert lattice_closed_under_action(m)
        r = extend_torus(m)
        assert not r.success
        chain, vec = r.failure_witness
        assert any(v != 0 for v in vec)
        stacked = None
        for w in sorted(r.pieces):
            stacked = (r.pieces[w] if stacked is None
                       else stacked.hstack(r.pieces[w]))
        coords = solve_linear(stacked, Matrix.column(QQ, list(vec)))
        in_span = coords is not None and all(
            v.denominator % p != 0 for v in coords.data)
        assert not in_span, "witness lies in the direct sum at p=%d" % p
    _passed("c9 sl2-weight-decomposition-suite")


def test_c10_truncated_exponential_suite():
    for p in (3, 5, 7):
        fp = PrimeField(p)
        for j in range(1, p):
            c = chain_from_highest(j, p)
            u = c.action["x"].map_to_ring(fp)
            cache = {s: exp_nilpotent(u.scale(fp.from_int(s)), p)
                     for s in range(p)}
            for s in range(p):
                for t in range(p):
                    assert (cache[s] @ cache[t]) == cache[(s + t) % p]
            for t in range(1, p):
                d = weight_scaling(c, fp, t)
                lhs = d @ cache[1] @ inverse(d)
                assert lhs == exp_nilpotent(
                    u.scale(fp.from_int(t * t)), p)
    _passed("c10 exp-homomorphism-and-torus-conjugation")


def test_c11_table_output_is_deterministic(child_env):
    cmd = [sys.executable, "-m", "lieform", "table", "--max-rank", "8",
           "--primes", "2,3,5,7,11,13,17,19,23", "--oracle",
           "--format", "json"]
    first = subprocess.run(cmd, env=child_env, capture_output=True, check=True)
    second = subprocess.run(cmd, env=child_env, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout
    doc = json.loads(first.stdout)
    assert len(doc["results"]["rows"]) == 33 * 9
    _passed("c11 byte-identical-table-reruns")
