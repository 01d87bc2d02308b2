import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from lieform import (DualNumbers, Integers, IntegersModPk, LocalizedAtP,
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
