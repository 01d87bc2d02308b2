import pytest

from lieform import (DynkinType, InvalidRank, build_root_system, cartan_matrix,
                     center_order, classify_p_type)

ALL_TYPES = (
    [DynkinType("A", n) for n in range(1, 9)]
    + [DynkinType("B", n) for n in range(1, 9)]
    + [DynkinType("C", n) for n in range(1, 9)]
    + [DynkinType("D", n) for n in range(3, 9)]
    + [DynkinType("E", n) for n in (6, 7, 8)]
    + [DynkinType("F", 4), DynkinType("G", 2)]
)


def expected_root_count(t: DynkinType) -> int:
    n = t.rank
    if t.series == "A":
        return n * (n + 1)
    if t.series in ("B", "C"):
        return 2 * n * n
    if t.series == "D":
        return 2 * n * (n - 1)
    if t.series == "E":
        return {6: 72, 7: 126, 8: 240}[n]
    return {"F": 48, "G": 12}[t.series]


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_root_counts(t):
    rs = build_root_system(t)
    assert len(rs.roots) == expected_root_count(t)
    assert len(rs.positive_roots) * 2 == len(rs.roots)


def test_invalid_ranks():
    for series, rank in [("A", 0), ("B", 0), ("D", 2), ("E", 5), ("E", 9),
                         ("F", 3), ("G", 1), ("G", 3), ("X", 2)]:
        with pytest.raises(InvalidRank):
            cartan_matrix(DynkinType(series, rank))


def test_cartan_matrices_frozen():
    assert cartan_matrix(DynkinType("G", 2)) == ((2, -1), (-3, 2))
    assert cartan_matrix(DynkinType("B", 2)) == ((2, -1), (-2, 2))
    assert cartan_matrix(DynkinType("C", 2)) == ((2, -2), (-1, 2))
    assert cartan_matrix(DynkinType("D", 4)) == (
        (2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))
    assert cartan_matrix(DynkinType("F", 4)) == (
        (2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2))


def test_b2_positive_roots_and_coroot():
    rs = build_root_system(DynkinType("B", 2))
    assert rs.positive_roots == ((0, 1), (1, 0), (1, 1), (1, 2))
    # short root alpha1 + alpha2: coroot picks up the length ratio
    assert rs.coroot_coords((1, 1)) == (2, 1)
    assert rs.coroot_coords((1, 0)) == (1, 0)


def test_g2_highest_root_and_symmetrizer():
    rs = build_root_system(DynkinType("G", 2))
    highest = max(rs.positive_roots, key=rs.height)
    assert highest == (2, 3)
    assert rs.symmetrizer == (3, 1)
    assert rs.norm2((1, 0)) == 6      # long simple root
    assert rs.norm2((0, 1)) == 2      # short simple root


def test_canonical_positive_order_is_height_then_lex():
    rs = build_root_system(DynkinType("A", 3))
    keys = [(rs.height(r), r) for r in rs.positive_roots]
    assert keys == sorted(keys)
    assert rs.positive_roots[0] == (0, 0, 1)
    assert rs.positive_roots[-1] == (1, 1, 1)


def test_roots_layout_negatives_mirror_positives():
    rs = build_root_system(DynkinType("C", 3))
    m = len(rs.positive_roots)
    for i, r in enumerate(rs.positive_roots):
        neg = tuple(-c for c in r)
        assert rs.roots[m + i] == neg
        assert rs.root_index(neg) == m + i


@pytest.mark.parametrize("t", [DynkinType("A", 3), DynkinType("B", 3),
                               DynkinType("G", 2), DynkinType("F", 4)], ids=str)
def test_simple_reflections_permute_roots(t):
    rs = build_root_system(t)
    for i in range(t.rank):
        imgs = set()
        for r in rs.roots:
            img = tuple(c - rs.pairing(r, i) * (1 if j == i else 0)
                        for j, c in enumerate(r))
            assert rs.is_root(img)
            imgs.add(img)
        assert len(imgs) == len(rs.roots)


def test_string_p_values():
    rs = build_root_system(DynkinType("G", 2))
    # alpha2-string through alpha1 has length 3 on the down side
    assert rs.string_p((0, 1), (1, 3)) == 3
    assert rs.string_p((0, 1), (1, 0)) == 0
    a2 = build_root_system(DynkinType("A", 2))
    assert a2.string_p((1, 0), (0, 1)) == 0
    assert a2.string_p((1, 0), (1, 1)) == 1


def test_center_orders():
    assert center_order(DynkinType("A", 4)) == 5
    assert center_order(DynkinType("A", 7)) == 8
    assert center_order(DynkinType("B", 5)) == 2
    assert center_order(DynkinType("C", 6)) == 2
    assert center_order(DynkinType("D", 6)) == 4
    assert center_order(DynkinType("E", 6)) == 3
    assert center_order(DynkinType("E", 7)) == 2
    assert center_order(DynkinType("E", 8)) == 1
    assert center_order(DynkinType("F", 4)) == 1
    assert center_order(DynkinType("G", 2)) == 1


def test_classify_p_type_frozen_cases():
    r = classify_p_type({0, 1}, 3)
    assert (r.is_type1, r.is_type2, r.is_type3) == (True, True, True)
    r = classify_p_type({2, 0, -2}, 3)
    assert (r.is_type1, r.is_type2, r.is_type3) == (True, True, False)
    r = classify_p_type({3, 1, -1, -3}, 3)
    assert (r.is_type1, r.is_type2, r.is_type3) == (False, False, False)
    # type 3 forces type 2: doubling shrinks the allowed window
    for s in [{0}, {1, -1}, {2, 1, 0}, {5, -5}, {1, 4}]:
        for p in (2, 3, 5, 7):
            rep = classify_p_type(s, p)
            assert not rep.is_type3 or rep.is_type2


def test_classify_p_type_normalizes_input():
    r = classify_p_type([3, 3, 1], 5)
    assert r.set == (1, 3)
    assert r.p == 5


def test_coroot_coords_are_integral_everywhere():
    for t in ALL_TYPES:
        rs = build_root_system(t)
        for r in rs.positive_roots:
            cr = rs.coroot_coords(r)
            assert all(isinstance(c, int) for c in cr)
    e8 = build_root_system(DynkinType("E", 8))
    assert max(max(abs(c) for c in e8.coroot_coords(r))
               for r in e8.positive_roots) == 6


def _check_index_tables(rs):
    for a, alpha in enumerate(rs.roots):
        assert rs.neg_index[a] == rs.root_index(tuple(-c for c in alpha))
        for b, beta in enumerate(rs.roots):
            s = tuple(x + y for x, y in zip(alpha, beta))
            assert rs.sum_index[a][b] == (rs.root_index(s) if rs.is_root(s) else -1)


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_index_arrays_match_tuple_arithmetic(t):
    _check_index_tables(build_root_system(t))


def test_sum_index_matches_tuple_arithmetic_beyond_int64_keys():
    # the root keys of A28 exceed int64 (5**28 > 2**63); integer keys in
    # plain Python have no such limit
    for rank in (27, 28):
        _check_index_tables(build_root_system(DynkinType("A", rank)))


# (call, error class, message): named errors of the root layer that the
# tests above do not reach
ROOTS_ERRORS = [
    (lambda: classify_p_type({0, 1}, 1), ValueError, "1 is not prime"),
    (lambda: classify_p_type({0, 1}, 4), ValueError, "4 is not prime"),
    (lambda: classify_p_type({0, 1}, 0), ValueError, "0 is not prime"),
]


@pytest.mark.parametrize("call,error,message", ROOTS_ERRORS)
def test_roots_named_errors(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
