import subprocess
import sys
import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from lieform import (DualNumbers, Integers, IntegersModPk, LocalizedAtP, RingMismatch,
                     NoCanonicalMorphism, NonIntegralDenominator, NotAUnit,
                     PrimeField, QQ, Rationals, Scalar, ZZ, convert_raw,
                     format_rational, is_prime, parse_rational, pvaluation)

F5 = PrimeField(5)
Z25 = IntegersModPk(5, 2)
Z125 = IntegersModPk(5, 3)
L5 = LocalizedAtP(5)
D5 = DualNumbers(F5)


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_agrees_with_trial_division():
    for n in range(-2, 200000):
        assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))), n


def test_is_prime_on_strong_pseudoprimes_and_large_primes():
    # each composite passes Miller-Rabin on a run of the smallest prime bases
    for n in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    for p in (2**61 - 1, 10**18 + 3, 10**18 + 9):
        assert is_prime(p), p


@pytest.mark.parametrize("n", [3317044064679887385962123,       # the next prime
                               1287836182261 * 2575672364521],   # the bound itself
                         ids=["next-prime", "bound"])
def test_is_prime_refuses_strong_probable_primes_above_the_bound(n):
    # at and above the bound, passing every base proves nothing
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=str(n)):
        is_prime(n)
    assert time.perf_counter() - t0 < 1


def test_is_prime_answers_composites_above_the_bound():
    # a base witnesses this one; trial division would have run to 10^12
    t0 = time.perf_counter()
    assert not is_prime(1000000000039 * 10000000000037)
    assert time.perf_counter() - t0 < 1


def test_pvaluation():
    assert pvaluation(Fraction(12), 2) == 2
    assert pvaluation(Fraction(5, 8), 2) == -3
    assert pvaluation(Fraction(9, 7), 3) == 2


def test_rational_strings_roundtrip():
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(6, 3)) == "2"
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational(" 7 ") == Fraction(7)


def test_prime_field_inverses():
    for a in range(1, 5):
        assert F5.mul(a, F5.inv(a)) == 1
    with pytest.raises(NotAUnit):
        F5.inv(0)


def test_mod_pk_units():
    assert Z25.inv(7) == 18
    assert not Z25.is_unit(10)
    with pytest.raises(NotAUnit):
        Z25.inv(5)


def test_localized_denominators():
    assert L5.coerce(Fraction(7, 3)) == Fraction(7, 3)
    with pytest.raises(NonIntegralDenominator):
        L5.coerce(Fraction(1, 5))
    assert L5.is_unit(Fraction(3, 7))
    assert not L5.is_unit(Fraction(5, 7))


def test_dual_number_arithmetic():
    assert D5.mul((2, 3), (1, 4)) == (2, 1)
    assert D5.inv((2, 3)) == (3, 3)
    assert D5.mul((2, 3), (3, 3)) == (1, 0)
    assert not D5.is_unit((0, 1))
    # eps squares to zero
    assert D5.mul((0, 1), (0, 1)) == (0, 0)


CONVERSIONS = [
    (7, ZZ, F5, 2),
    (7, ZZ, D5, (2, 0)),
    (Fraction(1, 2), QQ, F5, 3),
    (Fraction(7, 3), QQ, L5, Fraction(7, 3)),
    (Fraction(7, 3), QQ, Z25, 19),
    (Fraction(7, 3), L5, F5, 4),
    (Fraction(7, 3), L5, Z25, 19),
    (17, Z25, F5, 2),
    (117, Z125, Z25, 17),
]


@pytest.mark.parametrize("value,src,dst,expected", CONVERSIONS)
def test_canonical_conversions(value, src, dst, expected):
    assert convert_raw(value, src, dst) == expected


def test_conversion_failures():
    with pytest.raises(NonIntegralDenominator):
        convert_raw(Fraction(1, 5), QQ, L5)
    with pytest.raises(NonIntegralDenominator):
        convert_raw(Fraction(1, 5), QQ, F5)
    for value, src, dst in [(Fraction(2), QQ, ZZ), (3, Z25, Z125),
                            (3, F5, ZZ), (3, F5, PrimeField(7))]:
        with pytest.raises(NoCanonicalMorphism):
            convert_raw(value, src, dst)


def test_dual_numbers_onto_their_base():
    assert convert_raw((2, 3), D5, F5) == 2
    assert convert_raw((Fraction(1, 2), Fraction(3)), DualNumbers(QQ), QQ) == Fraction(1, 2)
    for value, src, dst in [((2, 3), D5, PrimeField(7)), ((2, 3), D5, Z25), (2, F5, D5)]:
        with pytest.raises(NoCanonicalMorphism):
            convert_raw(value, src, dst)


RINGS = [ZZ, QQ, F5, PrimeField(2), Z25, L5, D5, Z125, DualNumbers(QQ),
         PrimeField(2097143)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RINGS), st.integers(-40, 40), st.integers(-40, 40),
       st.integers(-40, 40))
def test_ring_laws(ring, a, b, c):
    x, y, z = ring.from_int(a), ring.from_int(b), ring.from_int(c)
    assert ring.add(x, y) == ring.add(y, x)
    assert ring.mul(x, y) == ring.mul(y, x)
    assert ring.mul(x, ring.add(y, z)) == ring.add(ring.mul(x, y), ring.mul(x, z))
    assert ring.add(x, ring.neg(x)) == ring.zero()
    assert ring.sub(x, y) == ring.add(x, ring.neg(y))
    assert ring.mul(x, ring.one()) == x
    if ring.is_unit(x):
        assert ring.mul(x, ring.inv(x)) == ring.one()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(RINGS), st.integers(-15, 15), st.integers(-15, 15))
def test_scalar_operators(ring, a, b):
    x, y = Scalar(ring, ring.from_int(a)), Scalar(ring, ring.from_int(b))
    assert (x + y).value == ring.add(x.value, y.value)
    assert (x - y).value == ring.sub(x.value, y.value)
    assert (x * y).value == ring.mul(x.value, y.value)
    assert (-x).value == ring.neg(x.value)


def test_field_and_local_flags():
    assert QQ.is_field and F5.is_field
    assert not ZZ.is_field and not Z25.is_field and not L5.is_field
    assert F5.is_local and Z25.is_local and L5.is_local and D5.is_local
    assert not ZZ.is_local and not QQ.is_local


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_is_zero_is_equality_with_zero(ring):
    values = [ring.from_int(n) for n in (-26, -5, -1, 0, 1, 2, 5, 25, 125)]
    if ring.kind in ("rationals", "localized_at_p"):
        values += [Fraction(1, 3), Fraction(-7, 2), Fraction(0, 4)]
    if ring.kind == "dual_numbers":
        one, zero = ring.base.one(), ring.base.zero()
        values += [(zero, zero), (zero, one), (one, zero), (one, one)]
    assert any(ring.is_zero(v) for v in values)
    assert not all(ring.is_zero(v) for v in values)
    for v in values:
        assert ring.is_zero(v) == (v == ring.zero()), v


# (ring, an equal ring built anew, repr, kind)
IDENTITIES = [
    (ZZ, Integers(), "Integers()", "integers"),
    (QQ, Rationals(), "Rationals()", "rationals"),
    (F5, PrimeField(5), "PrimeField(p=5)", "prime_field"),
    (Z25, IntegersModPk(5, 2), "IntegersModPk(p=5, k=2)", "integers_mod_pk"),
    (IntegersModPk(5, 1), IntegersModPk(5, 1), "IntegersModPk(p=5, k=1)", "integers_mod_pk"),
    (L5, LocalizedAtP(5), "LocalizedAtP(p=5)", "localized_at_p"),
    (D5, DualNumbers(PrimeField(5)), "DualNumbers(base=PrimeField(p=5))", "dual_numbers"),
]


@pytest.mark.parametrize("ring,twin,text,kind", IDENTITIES,
                         ids=[text for _, _, text, _ in IDENTITIES])
def test_ring_repr_equality_and_hash(ring, twin, text, kind):
    assert repr(ring) == text and ring.kind == kind
    assert twin == ring and hash(twin) == hash(ring)
    assert all(other != ring for other, _, t, _ in IDENTITIES if t != text)


# (call, error class, message): every named error of the ring layer
RING_ERRORS = [
    (lambda: pvaluation(Fraction(0), 5), ValueError, "valuation of zero is undefined"),
    (lambda: pvaluation(Fraction(3), 0), ValueError, "valuation needs p >= 2, got 0"),
    (lambda: ZZ.coerce(True), TypeError, "bool is not an integer scalar"),
    (lambda: ZZ.coerce(Fraction(1, 2)), TypeError, "cannot coerce Fraction(1, 2) into Integers"),
    (lambda: ZZ.inv(2), NotAUnit, "2 is not a unit in Z"),
    (lambda: QQ.coerce(False), TypeError, "bool is not a rational scalar"),
    (lambda: QQ.coerce(0.5), TypeError, "cannot coerce 0.5 into Q"),
    (lambda: parse_rational("1/0"), ValueError, "malformed rational '1/0'"),
    (lambda: QQ.coerce("1/2/3"), ValueError, "malformed rational '1/2/3'"),
    (lambda: QQ.inv(Fraction(0)), NotAUnit, "0 is not invertible"),
    (lambda: F5.coerce(True), TypeError, "bool is not a scalar"),
    (lambda: F5.coerce("1"), TypeError, "cannot coerce '1' into Z/5"),
    (lambda: F5.coerce(Fraction(1, 5)), NonIntegralDenominator,
     "denominator of 1/5 is divisible by 5"),
    (lambda: Z25.divide(1, 5), NotAUnit, "5 does not divide 1 mod 25"),
    (lambda: PrimeField(4), ValueError, "4 is not prime"),
    (lambda: IntegersModPk(5, 0), ValueError, "exponent must be >= 1"),
    (lambda: LocalizedAtP(6), ValueError, "6 is not prime"),
    (lambda: L5.coerce(True), TypeError, "bool is not a scalar"),
    (lambda: L5.coerce(0.5), TypeError, "cannot coerce 0.5 into Z_(5)"),
    (lambda: L5.coerce("1/10"), NonIntegralDenominator, "denominator of 1/10 is divisible by 5"),
    (lambda: L5.inv(Fraction(10, 3)), NotAUnit, "10/3 is not a unit in Z_(5)"),
    (lambda: DualNumbers(ZZ), ValueError, "dual numbers need a field-kind base ring"),
    (lambda: D5.inv((0, 1)), NotAUnit, "(0, 1) has nilpotent constant term"),
    (lambda: D5.divide((1, 0), (0, 2)), NotAUnit, "0 + 2*eps does not divide 1 + 0*eps"),
    (lambda: Scalar(F5, 1) + 1, TypeError, "expected a Scalar, got 1"),
    (lambda: Scalar(F5, 1) * Scalar(QQ, Fraction(1)), RingMismatch,
     "PrimeField(p=5) vs Rationals()"),
    (lambda: convert_raw(Fraction(1), QQ, ZZ), NoCanonicalMorphism, "Q -> Integers()"),
    (lambda: convert_raw(Fraction(1), L5, PrimeField(7)), NoCanonicalMorphism,
     "Z_(5) -> PrimeField(p=7)"),
    (lambda: convert_raw(3, Z25, Z125), NoCanonicalMorphism, "Z/25 -> IntegersModPk(p=5, k=3)"),
    (lambda: convert_raw(3, F5, ZZ), NoCanonicalMorphism, "PrimeField(p=5) -> Integers()"),
]


@pytest.mark.parametrize("call,error,message", RING_ERRORS)
def test_ring_named_errors(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("p", [1, -1])
def test_pvaluation_at_a_unit_is_an_error(p, child_env):
    # dividing by p = ±1 once looped forever, so this runs in a child with
    # a timeout
    code = ("from fractions import Fraction\nfrom lieform import pvaluation\n"
            "try:\n    pvaluation(Fraction(3), %d)\n"
            "except ValueError as exc:\n    print(exc)\n" % p)
    out = subprocess.run([sys.executable, "-c", code], env=child_env, check=True,
                         capture_output=True, text=True, timeout=5).stdout
    assert out.strip() == "valuation needs p >= 2, got %d" % p


def test_coercions_from_strings_and_integral_fractions():
    assert ZZ.coerce(Fraction(6, 3)) == 2
    assert QQ.coerce("-3/4") == Fraction(-3, 4)
    assert L5.coerce("2/3") == Fraction(2, 3)
    assert ZZ.inv(1) == 1 and ZZ.inv(-1) == -1


def test_fmt_of_every_ring():
    assert ZZ.fmt(-3) == "-3" and F5.fmt(4) == "4" and Z25.fmt(17) == "17"
    assert QQ.fmt(Fraction(-3, 4)) == "-3/4" and QQ.fmt(Fraction(2)) == "2"
    assert L5.fmt(Fraction(2, 3)) == "2/3"
    assert D5.fmt((1, 2)) == "1 + 2*eps"
    assert DualNumbers(QQ).fmt((Fraction(1, 2), Fraction(0))) == "1/2 + 0*eps"


def test_dual_number_division():
    # by a unit: b * a^-1; by a multiple of eps: the eps parts divide
    assert D5.divide((2, 1), (1, 1)) == D5.mul((2, 1), D5.inv((1, 1)))
    assert D5.divide((0, 3), (0, 4)) == (2, 0)


@pytest.mark.parametrize("ring,value,unit,text", [
    (F5, 3, True, "3"), (F5, 0, False, "0"), (ZZ, -1, True, "-1"), (ZZ, 2, False, "2"),
    (QQ, Fraction(-2, 3), True, "-2/3"), (L5, Fraction(5, 3), False, "5/3"),
    (D5, (2, 1), True, "2 + 1*eps"), (D5, (0, 1), False, "0 + 1*eps"),
], ids=str)
def test_scalar_unit_inverse_and_str(ring, value, unit, text):
    x = Scalar.of(ring, value)
    assert x == Scalar(ring, ring.coerce(value))
    assert x.is_unit is unit and str(x) == text
    if unit:
        assert (x * x.inverse()).value == ring.one()
    else:
        with pytest.raises(NotAUnit):
            x.inverse()
