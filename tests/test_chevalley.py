import hashlib
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import lieform
from lieform import (DualNumbers, DynkinType, IntegersModPk, InvalidRank, Matrix, NotClassical,
                     PrimeField, QQ, ZZ, chevalley_involution, chevalley_presentation,
                     is_lie_automorphism, kernel, matrix_realization,
                     torus_automorphism, triple_flip, verify_jacobi)
from lieform.chevalley import JacobiFailure, _generators, _root_data
from lieform.cli import _table_types

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
    bad = pres._replace(table=table)
    with pytest.raises(JacobiFailure) as err:
        verify_jacobi(bad)
    msg = str(err.value)
    assert "pair (X[0,0,1], X[0,1,0]) of B3" in msg
    assert "entry (H2, X[0,-1,-1])" in msg


def _reference_jacobi(pres):
    """The JacobiFailure message verify_jacobi should raise, or None, from
    a loop over sorted triples a < b < c through pres.bracket: the failure
    with the least (b, a, l, c), J(a,b,c)_l the coefficient of b_l."""
    def bracket_sum(x, terms):
        out = {}
        for m, v in terms:
            for l, w in pres.bracket(x, m):
                out[l] = out.get(l, 0) + v * w
        return out

    for b in range(pres.dim):
        fails = []
        for a in range(b):
            for c in range(b + 1, pres.dim):
                jac = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    for l, v in bracket_sum(x, pres.bracket(y, z)).items():
                        jac[l] = jac.get(l, 0) + v
                fails += [(a, l, c, v) for l, v in jac.items() if v]
        if fails:
            a, l, c, v = min(fails)
            x, y, lab = pres.labels[a], pres.labels[b], pres.labels
            return ("Jacobi fails at pair (%s, %s) of %s: entry (%s, %s) of "
                    "[ad %s, ad %s] - ad[%s, %s] is %d" % (
                        x, y, pres.dynkin.name, lab[l], lab[c], x, y, x, y, v))
    return None


def _corrupted(pres, rng):
    """pres with one table entry changed: a coefficient, a target index,
    or a dropped term."""
    key = rng.choice(sorted(pres.table))
    terms = list(pres.table[key])
    n = rng.randrange(len(terms))
    k, c = terms[n]
    mode = rng.randrange(3)
    if mode == 0:
        terms[n] = (k, c + rng.choice((-2, -1, 1, 2)))
    elif mode == 1:
        terms[n] = (rng.randrange(pres.dim), c)
    else:
        del terms[n]
    return pres._replace(table={**pres.table, key: tuple(terms)})


def _full_join(monkeypatch):
    """Make verify_jacobi skip the generator certificate, so that the full
    join over every sorted triple decides."""
    monkeypatch.setattr(lieform.chevalley, "_generators", lambda pres: None)


@pytest.mark.parametrize("mode", ["certificate", "plain"], ids=str)
@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "C2", "G2", "B3", "D4"])
def test_jacobi_matches_the_triple_loop_reference(name, mode, monkeypatch):
    if mode == "plain":
        _full_join(monkeypatch)
    pres = chevalley_presentation(DynkinType(name[0], int(name[1:])))
    rng = random.Random(name)
    cases = [pres] + [_corrupted(pres, rng) for _ in range(6)]
    failed = 0
    for case in cases:
        want = _reference_jacobi(case)
        if want is None:
            assert verify_jacobi(case) == pres.dim * (pres.dim - 1) // 2
        else:
            failed += 1
            with pytest.raises(JacobiFailure) as err:
                verify_jacobi(case)
            assert str(err.value) == want
    assert _reference_jacobi(pres) is None and failed >= 3


@pytest.mark.parametrize("name", ["E6", "E7"])
def test_jacobi_joins_agree_on_large_tables(name, monkeypatch):
    # the generator certificate against the full join
    pres = chevalley_presentation(DynkinType(name[0], int(name[1:])))
    rng = random.Random(name)
    cases = [pres] + [_corrupted(pres, rng) for _ in range(4)]
    results = {}
    for mode in ("certificate", "plain"):
        if mode == "plain":
            _full_join(monkeypatch)
        results[mode] = []
        for case in cases:
            try:
                results[mode].append(verify_jacobi(case))
            except JacobiFailure as exc:
                results[mode].append(str(exc))
    assert results["certificate"] == results["plain"]
    assert results["plain"][0] == pres.dim * (pres.dim - 1) // 2
    assert sum(isinstance(r, str) for r in results["plain"]) >= 2


def test_generator_certificate_alone_accepts_every_table_type(monkeypatch):
    types = _table_types(8, dedup=True)
    assert len(types) == 33
    for t in types:
        pres = chevalley_presentation(t)
        assert len(_generators(pres)) == 2 * t.rank
        joins = []
        with monkeypatch.context() as m:
            m.setattr(lieform.chevalley, "_jacobi_defects",
                      lambda ring, table: joins.append(t))
            certified = verify_jacobi(pres)
        assert joins == []
        with monkeypatch.context() as m:
            _full_join(m)
            assert verify_jacobi(pres) == certified == pres.dim * (pres.dim - 1) // 2


@pytest.mark.parametrize("name", ["A2", "B3"])
def test_jacobi_fails_closed_without_generation(name):
    pres = chevalley_presentation(DynkinType(name[0], int(name[1:])))
    gens = _generators(pres)
    # [X_alpha1, X_alpha2] dropped: X_{alpha1+alpha2} is out of reach
    pair = tuple(sorted(gens[:2]))
    assert pair in pres.table
    dropped = {**pres.table, pair: ()}
    # every bracket with a generator dropped, so each ad x is 0, a
    # derivation; one remaining coefficient doubled, so that Jacobi fails
    central = {key: ts for key, ts in pres.table.items() if not set(key) & set(gens)}
    key = min(central)
    central[key] = tuple((k, 2 * c) for k, c in central[key])
    for table in (dropped, central):
        case = pres._replace(table=table)
        assert _generators(case) is None
        want = _reference_jacobi(case)
        assert want is not None
        with pytest.raises(JacobiFailure) as err:
            verify_jacobi(case)
        assert str(err.value) == want


def test_jacobi_certificate_needs_the_negative_generators():
    # [X[0,-1], X[-1,-1]] = X[1,1], off the root grading: each ad X_alpha_i
    # is still a derivation, but not each ad X_-alpha_i
    pres = chevalley_presentation(DynkinType("A", 2))
    u, w, theta = (pres.labels.index(s) for s in ("X[0,-1]", "X[-1,-1]", "X[1,1]"))
    assert (u, w) not in pres.table
    case = pres._replace(table={**pres.table, (u, w): ((theta, 1),)})
    assert _generators(case) is not None
    want = _reference_jacobi(case)
    assert want is not None
    with pytest.raises(JacobiFailure) as err:
        verify_jacobi(case)
    assert str(err.value) == want


def test_jacobi_certificate_survives_python_O(child_env):
    code = ("import lieform\n"
            "from lieform.chevalley import JacobiFailure\n"
            "assert False  # stripped under -O\n"
            "pres = lieform.chevalley_presentation(lieform.DynkinType('B', 3))\n"
            "(k, c), = pres.table[(3, 4)]\n"
            "bad = pres._replace(table={**pres.table, (3, 4): ((k, c + 1),)})\n"
            "try:\n"
            "    lieform.verify_jacobi(bad)\n"
            "except JacobiFailure as exc:\n"
            "    print(type(exc).__name__, exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], env=child_env, check=True,
                         capture_output=True, text=True).stdout
    assert out.startswith("JacobiFailure Jacobi fails at pair (X[0,0,1], X[0,1,0]) of B3")


def test_jacobi_check_memory_is_bounded():
    pres = chevalley_presentation(DynkinType("E", 8))
    tracemalloc.start()
    try:
        verify_jacobi(pres)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


@pytest.mark.parametrize("t,mrank", [
    (DynkinType("A", 1), 2), (DynkinType("A", 3), 4), (DynkinType("B", 3), 7),
    (DynkinType("C", 3), 6), (DynkinType("D", 4), 8),
], ids=str)
def test_realization_is_a_homomorphism(t, mrank):
    pres = chevalley_presentation(t)
    mr = matrix_realization(t)
    assert mr.module_rank == mrank
    mats = np.array([m.rows() for m in mr.matrices], dtype=np.int64)
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



# -- the monomial builders against dim x dim row lists through from_rows,
# the construction they replaced

def _from_rows_reference(pres, ring, kind, arg):
    rank, dim, rs = pres.rank, pres.dim, pres.root_system
    rows = [[ring.zero()] * dim for _ in range(dim)]
    mone, one = ring.coerce(-1), ring.one()
    if kind == "torus":
        tval, lam = arg
        for i in range(rank):
            rows[i][i] = one
        for k, rho in enumerate(rs.roots):
            e = sum(l * c for l, c in zip(lam, rho))
            base, e = (tval, e) if e >= 0 else (ring.inv(tval), -e)
            v = one
            for _ in range(e):
                v = ring.mul(v, base)
            rows[rank + k][rank + k] = v
        return Matrix.from_rows(ring, rows)
    for i in range(rank):
        rows[i][i] = mone
    odd = None if kind == "involution" else next(i for i, c in enumerate(arg) if c % 2)
    for k, (rho, nk) in enumerate(zip(rs.roots, rs.neg_index)):
        rows[rank + nk][rank + k] = one if odd is not None and rho[odd] % 2 else mone
    return Matrix.from_rows(ring, rows)


MONOMIAL_RINGS = [PrimeField(7), QQ, IntegersModPk(5, 2), DualNumbers(F5)]
SMALL_TYPES = [DynkinType(s, r) for s, r in (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2))]


@pytest.mark.parametrize("ring", MONOMIAL_RINGS, ids=str)
@pytest.mark.parametrize("t", SMALL_TYPES + [DynkinType("E", r) for r in (6, 7, 8)],
                         ids=str)
def test_monomial_builders_equal_the_from_rows_reference(t, ring):
    pres = chevalley_presentation(t)
    rng = random.Random(t.name)
    positive = pres.root_system.positive_roots
    roots = positive if t.series != "E" else rng.sample(positive, 3)
    tval = ring.coerce(2)
    lam = tuple(rng.randint(-2, 2) for _ in range(t.rank))
    cases = [(chevalley_involution(pres, ring), ("involution", None)),
             (torus_automorphism(pres, ring, 2, lam=lam), ("torus", (tval, lam))),
             (torus_automorphism(pres, ring, 2), ("torus", (tval, (1,) * t.rank)))]
    cases += [(triple_flip(pres, ring, alpha), ("flip", alpha)) for alpha in roots]
    for got, (kind, arg) in cases:
        assert got == _from_rows_reference(pres, ring, kind, arg)

# sha256 of repr((labels, sorted(table.items()), sorted(nconstants.items())))
# per table type, taken from the tuple-loop construction this one replaced
PRESENTATION_DIGESTS = {
    "A1": "7b20b1d8db8496445871e88dcfbb21b41c409dfec50b0fd27942a4471741ac1c",
    "A2": "470800d93df86d2c1e6fa65c44eed0a61368be414b22f3d21e16bac188ca86f7",
    "A3": "3fa4751cae87b014c7e5f390579d01e58793291c24e39dce34f6960f9b4e0ad9",
    "A4": "12cb1c76ed418f0173322773a3e8a2fc4fc2d0e0ac53bde78d778063ea05a9b4",
    "A5": "00bd53e2b182a4739fdb81a527f43f122c372e99e7d169f08e49ef768743c64e",
    "A6": "46bf9322298b74dba3cfc3aaef144fb226b30739111318e1b0fa1525def5ae37",
    "A7": "3c938fb92560dc34f96014367dfa1f2b2b8ed2451b0d8682f67de8f3a42e1b4b",
    "A8": "66f27d82752ccb12fdd3c2ef6650c45f9599bb36e5785fe43bc04604f6430e7f",
    "B2": "cd06009851e8e1ae6407482567958a1cd7e31eafb4c121b0213788a5a980d55c",
    "B3": "6ac51e908ea6d531793cfa4b8e165a391ef541cafdf4421e011557cbef001774",
    "B4": "989a028a93a90949c747cfa17b83ae1479e9d8a5022be4a9181245875cd20d6c",
    "B5": "72129d72763186a66615114281210e1242b7e8847255cbb0c331b0a95576e65a",
    "B6": "f9c8e4a9f315d696aa6b2eae394394650fe12cbdda0ef3c815269f063d9c29b9",
    "B7": "79d47364cec02ce405dd6c64a6ec48aab10d8c82f663a357c11d0047d99bdff7",
    "B8": "7099f21edb8876b29871b6d292bc6edd5c367271ea4b72fb2b3e1c377d23d598",
    "C2": "b86a9c747bf05f3bec050e47c06ff4d838dbd1a3359600b1d83db14ce2f32378",
    "C3": "0ae9eb7f98f7c8254a73eeebd05314c83e415615397b115d81cbbaece9b24ba3",
    "C4": "1f349206b872c60575b506c052a09e8663e2cd38a37084fb342f75bf0b9da602",
    "C5": "f693b88edec4071ebcfbddcb233a256e64694f823a277a9b8a97f5ea36eeab53",
    "C6": "6e0c8566d38a51da27b2ac2757029a65acb40b2eacd28936ee989250e4fe9681",
    "C7": "0684053aa227ee3f60b2b437a0f7b29ae2c4d44009cb9fd508c03b66ba6af941",
    "C8": "a3c9c4d9135969c7ad0a366205ce82e6e5e8bfd2d853b837af0c8ff7e1496523",
    "D3": "d79ded00a8b2ab4f388be2cd44afbf55fc091dae40ccaa562659900d9de15235",
    "D4": "a7ce724bfa80a8a17f7909e90e5fc352ee21bc6f02eacfb5ad74951d0cb25766",
    "D5": "95a4e486a1c0d22ef7afc331b3a1109f8e32ea1d2e11ff694a31da6443e8b0a2",
    "D6": "8818e3f9ba0cbc5dd15395be117578a0d4c053efdc822afd6abb35e332799c76",
    "D7": "b4a22cc73eb3556f0283e63ccabf90180c66cc6d2e84c48ac7ee10f8cf3b44e5",
    "D8": "325401eab91f383c76fbd8697fac60da489f2802da7d7c33c6428c0130aa9565",
    "E6": "7922409dbcb2ed8ef02c75ec58c21f6e98c7be5bf4d2a31ce2b0bfd1f5904731",
    "E7": "a53a8f1fb23699824eac4e598ef67342b1812df9c3ba3c85657dcb5c84d1a51d",
    "E8": "ffbe80415a39f1ce39e22d7ee947622a9b234d38e7109e533206beef00f7ac10",
    "F4": "ae74e2c4bd8bae3985ab53552eabdd3166f07a7611d0562e4f4c95c042d269eb",
    "G2": "61c4b8a87a5b9c102149bcdbad015dc8bf7428da877aa67d2a6f135703e75d9d",
}

# sha256 of repr((module_rank, tuple(m.rows() for m in matrices))), taken
# the same way
REALIZATION_DIGESTS = {
    "A3": "6d4a8fa3e4a45e86deccdd734934d5333e0f1efc9715d38510e568d98deca8c9",
    "B3": "954e3336701fabc8eaa368edea3134b0bd975cfcac9dfaa852333233c8e6d3aa",
    "C3": "9444bdda043639895a22999bcb6419c278517ec8d1c0c79c9a225a09ef023bd1",
    "D4": "72b27593002a710d3c32f8c1738752554dab4a78c301506514f12d9373b8f1cc",
}


def _types33():
    types = [DynkinType(s, r) for s, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
             for r in range(lo, 9)]
    return types + [DynkinType(s, r) for s, r in
                    (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))]


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@pytest.mark.parametrize("t", _types33(), ids=str)
def test_presentation_matches_pinned_digest(t):
    pres = chevalley_presentation(t)
    assert _sha((pres.labels, sorted(pres.table.items()),
                 sorted(pres.nconstants.items()))) == PRESENTATION_DIGESTS[t.name]


@pytest.mark.parametrize("name", sorted(REALIZATION_DIGESTS))
def test_matrix_realization_matches_pinned_digest(name):
    mr = matrix_realization(DynkinType(name[0], int(name[1:])))
    got = (mr.module_rank, tuple(m.rows() for m in mr.matrices))
    assert _sha(got) == REALIZATION_DIGESTS[name]


@pytest.mark.parametrize("t", [DynkinType("G", 2), DynkinType("B", 3),
                               DynkinType("C", 4), DynkinType("F", 4),
                               DynkinType("E", 6)], ids=str)
def test_root_data_arrays_match_tuple_definitions(t):
    rs = chevalley_presentation(t).root_system
    norms, strings, pairings, coroots = _root_data(rs)
    for a, alpha in enumerate(rs.roots):
        assert norms[a] == rs.norm2(alpha)
        assert tuple(coroots[a]) == rs.coroot_coords(alpha)
        assert tuple(pairings[a]) == tuple(rs.pairing(alpha, i) for i in range(rs.rank))
        for b, beta in enumerate(rs.roots):
            assert strings[a][b] == rs.string_p(alpha, beta)


# Fault injection in a `python -O` child: the construction checks are
# explicit raises, so they hold with assert statements stripped.
_FAULT = """
import lieform.chevalley as ch
from lieform import DynkinType
assert False  # stripped under -O
real = ch._sign_constants
def faulty(rs, norms, strings):
    nab = real(rs, norms, strings)
    key = next(iter(nab))
    {edit}
    return nab
ch._sign_constants = faulty
try:
    ch.chevalley_presentation(DynkinType("B", 3))
except AssertionError as exc:
    print(type(exc).__name__, exc)
"""


@pytest.mark.parametrize("edit,rule", [
    ("nab[key] *= 2", "|N(a, b)| = p + 1 fails for B3"),
    ("nab[key] = -nab[key]", "N(b, a) = -N(a, b) fails for B3"),
    ("del nab[key]", "N != 0 exactly where a + b is a root fails for B3"),
    ("nab[key] = -nab[key]; nab[key[::-1]] = -nab[key[::-1]]",
     "N(-a, -b) = -N(a, b) fails for B3"),
], ids=["doubled", "sign-flipped", "dropped", "pair-sign-flipped"])
def test_constant_checks_survive_python_O(edit, rule, child_env):
    out = subprocess.run([sys.executable, "-O", "-c", _FAULT.format(edit=edit)],
                         env=child_env, check=True, capture_output=True, text=True).stdout
    assert out.startswith("AssertionError " + rule)


A2 = DynkinType("A", 2)

# (call, error class, message): the named errors of the presentation layer
CHEVALLEY_ERRORS = [
    (lambda: chevalley_presentation(DynkinType("A", 9)), InvalidRank,
     "structure constants capped at rank 8, got A9"),
    (lambda: matrix_realization(DynkinType("G", 2)), NotClassical,
     "no defining realization for series G"),
    (lambda: torus_automorphism(chevalley_presentation(A2), F5, 10), ValueError,
     "torus parameter must be a unit"),
    (lambda: torus_automorphism(chevalley_presentation(A2), F5, 2, lam=(1,)), ValueError,
     "lam has length 1, the rank is 2"),
    (lambda: triple_flip(chevalley_presentation(A2), F5, (2, 0)), ValueError,
     "(2, 0) has no odd coordinate, so it is not a root"),
    (lambda: triple_flip(chevalley_presentation(A2), F5, (3, 0)), ValueError,
     "(3, 0) is not a root of A2"),
    (lambda: triple_flip(chevalley_presentation(A2), F5, (9,)), ValueError,
     "(9,) is not a root of A2"),
]


@pytest.mark.parametrize("call,error,message", CHEVALLEY_ERRORS)
def test_chevalley_named_errors(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_matrix_realization_is_integral():
    rl = matrix_realization(DynkinType("C", 2))
    assert rl.ring == ZZ and all(m.ring == ZZ for m in rl.matrices)
