import gc
import os
import subprocess
import sys
import tracemalloc

import pytest

import lieform
from lieform import (DynkinType, EXPECTED_RATIO, InvalidRank, NoConstantRatio,
                     PrimeField, b_series_kernel_witness, build_root_system,
                     chevalley_presentation, det, oracle_perfect, predict_perfect,
                     rank, ratio_check, verdict_with_oracle)
from lieform.classify import _integral_discriminant, integral_killing_gram
from lieform.cli import DEFAULT_PRIMES, _table_types
from lieform.rings import is_prime

ALL_TYPES = (
    [DynkinType(s, n) for s in "ABC" for n in range(1, 9)]
    + [DynkinType("D", n) for n in range(3, 9)]
    + [DynkinType("E", n) for n in (6, 7, 8)]
    + [DynkinType("F", 4), DynkinType("G", 2)]
)


@pytest.mark.parametrize("series,rank,p,predicted,reason", [
    ("A", 2, 3, False, "A_DIV"),      # 3 | rank + 1
    ("A", 2, 5, True, "PERFECT"),
    ("A", 1, 2, False, "P_EQ_2"),     # p = 2 wins over 2 | rank + 1
    ("B", 4, 7, False, "B_DIV"),      # 7 = 2*rank - 1
    ("B", 4, 5, True, "PERFECT"),
    ("C", 6, 7, False, "C_DIV"),      # 7 | rank + 1
    ("D", 7, 3, False, "D_DIV"),      # 3 | rank - 1
    ("D", 7, 5, True, "PERFECT"),
    ("G", 2, 3, False, "EXC_P3"),
    ("F", 4, 3, False, "EXC_P3"),
    ("E", 6, 3, False, "EXC_P3"),
    ("E", 7, 3, False, "EXC_P3"),
    ("E", 8, 3, False, "EXC_P3"),
    ("E", 8, 5, False, "E8_P5"),
    ("E", 8, 7, True, "PERFECT"),
    ("G", 2, 5, True, "PERFECT"),
    ("E", 6, 2, False, "P_EQ_2"),
])
def test_predictions_hand_checked(series, rank, p, predicted, reason):
    v = predict_perfect(DynkinType(series, rank), p)
    assert v.predicted is predicted
    assert v.reason == reason


def test_prediction_matches_oracle_spot_checks():
    for t, p in [(DynkinType("A", 4), 5), (DynkinType("B", 3), 5),
                 (DynkinType("C", 2), 3), (DynkinType("D", 5), 2),
                 (DynkinType("E", 6), 13), (DynkinType("G", 2), 7)]:
        v = verdict_with_oracle(t, p)
        assert v.oracle is not None
        assert v.agree


def test_oracle_false_for_every_type_at_two():
    for t in ALL_TYPES:
        assert oracle_perfect(t, 2) is False


def test_oracle_rank_cap():
    with pytest.raises(InvalidRank):
        oracle_perfect(DynkinType("A", 9), 5)


@pytest.mark.parametrize("series,ranks", [
    ("A", range(1, 8)), ("B", range(1, 9)), ("C", range(1, 9)),
    ("D", range(3, 9)),
])
def test_killing_to_trace_ratio(series, ranks):
    # the ratios read the sparse traces: no dense Gram is cached
    grams = integral_killing_gram.cache_info()
    for n in ranks:
        assert ratio_check(DynkinType(series, n)) == EXPECTED_RATIO[series](n)
    assert integral_killing_gram.cache_info() == grams


def test_ratio_undefined_for_exceptional_types():
    with pytest.raises(NoConstantRatio):
        ratio_check(DynkinType("G", 2))


def test_low_rank_ratio_degenerations():
    # B1 and C1 share sl2 structure but carry different modules
    assert ratio_check(DynkinType("B", 1)) == 1
    assert ratio_check(DynkinType("C", 1)) == 4
    assert ratio_check(DynkinType("A", 1)) == 4


def test_kernel_witness_b_series():
    for n in range(1, 9):
        w = b_series_kernel_witness(n)
        assert w.rank == n
        assert len(w.vectors) == 2 * n
        assert w.ideal_ok and w.nilpotent_ok and w.in_kernel
        assert w.all_ok


def test_kernel_witness_input_validation():
    with pytest.raises(InvalidRank):
        b_series_kernel_witness(0)
    with pytest.raises(InvalidRank):
        b_series_kernel_witness(9)
    with pytest.raises(ValueError):
        b_series_kernel_witness(2, p=3)


def test_isogenous_low_rank_types_agree():
    for p in (2, 3, 5, 7, 11):
        a1 = predict_perfect(DynkinType("A", 1), p).predicted
        assert predict_perfect(DynkinType("B", 1), p).predicted == a1
        assert predict_perfect(DynkinType("C", 1), p).predicted == a1
        b2 = predict_perfect(DynkinType("B", 2), p).predicted
        assert predict_perfect(DynkinType("C", 2), p).predicted == b2
        a3 = predict_perfect(DynkinType("A", 3), p).predicted
        assert predict_perfect(DynkinType("D", 3), p).predicted == a3


# -- the oracle reads the integral discriminant det(Killing Gram)

def test_discriminant_primes_are_the_predicted_bad_primes():
    primes = [p for p in range(2, 400) if is_prime(p)]
    for t in _table_types(8, dedup=False):
        disc = _integral_discriminant(t)
        assert disc != 0
        assert ({p for p in primes if disc % p == 0}
                == {p for p in primes if not predict_perfect(t, p).predicted}), t


@pytest.mark.parametrize("t", _table_types(8, dedup=True), ids=str)
def test_oracle_is_the_killing_gram_rank(t):
    gram = integral_killing_gram(t)
    primes = [int(p) for p in DEFAULT_PRIMES.split(",")]
    if gram.nrows <= 78:
        # on either side of 2^21, where int64 elimination stops
        primes += [2097143, 2097169]
    for p in primes:
        full_rank = rank(gram.map_to_ring(PrimeField(p))) == gram.nrows
        assert oracle_perfect(t, p) == full_rank, p


@pytest.mark.parametrize("t", _table_types(8, dedup=False), ids=str)
def test_cell_discriminant_is_the_dense_determinant(t):
    assert _integral_discriminant(t) == det(integral_killing_gram(t))


def test_oracle_refuses_a_killing_entry_off_its_cell_under_python_O():
    # [H1, X_(0,1)] gains a term at H2, so κ(H1, X_(0,1)) != 0 although the
    # weights 0 and (0, 1) do not cancel
    code = ("import lieform.classify as c\n"
            "assert False  # stripped under -O\n"
            "t = c.DynkinType('A', 2)\n"
            "pres = c._build_presentation(t)\n"
            "pres.table[(0, 2)] += ((1, 1),)\n"
            "c._build_presentation = lambda t: pres\n"
            "try:\n"
            "    c._integral_discriminant(t)\n"
            "except AssertionError as exc:\n"
            "    print(type(exc).__name__, exc)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(lieform.__file__))]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "AssertionError form entry (0, 2) lies off the degree cells\n"


def test_oracle_keeps_one_type_at_a_time():
    # the E8 discriminant leaves no presentation behind and retains little
    # beyond the root system, which is built first
    t = DynkinType("E", 8)
    build_root_system(t)
    _integral_discriminant.cache_clear()
    cached = chevalley_presentation.cache_info().currsize
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _integral_discriminant(t)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert chevalley_presentation.cache_info().currsize == cached
    assert retained < 2 * 2**20
