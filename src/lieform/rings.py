"""Exact coefficient rings and scalars.

Every computation in this package is exact.  Integers are arbitrary
precision, fractions are kept in lowest terms with positive denominator,
residues are kept in [0, modulus).  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any


class RingError(Exception):
    pass


class RingMismatch(RingError):
    """Two scalars from different rings were combined."""


class UnsupportedRing(RingError):
    """The requested operation is not defined over this ring."""


class NotAUnit(RingError):
    """Inversion of a non-unit was attempted."""


class NoCanonicalMorphism(RingError):
    """There is no canonical ring map between the given rings."""


class NonIntegralDenominator(RingError):
    """A denominator is not invertible in the target ring."""


def is_prime(p: int) -> bool:
    """Trial division; moduli in this package are small."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def pvaluation(q: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational; raises on zero."""
    if q == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def format_rational(q: Fraction) -> str:
    """Lowest-terms string "a/b", plain "a" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def parse_rational(s: str) -> Fraction:
    s = s.strip()
    if "/" in s:
        a, b = s.split("/")
        return Fraction(int(a), int(b))
    return Fraction(int(s))


@dataclass(frozen=True)
class RingSpec:
    """Base class for coefficient rings.

    Subclasses operate on raw values: Python ints for Integers and the
    finite rings, Fraction for Rationals and LocalizedAtP, and a pair of
    base-ring raw values for DualNumbers.
    """

    kind = "abstract"

    # -- structure ---------------------------------------------------------
    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, n: int):
        raise NotImplementedError

    def coerce(self, v):
        """Canonicalize arbitrary user input into a raw value."""
        raise NotImplementedError

    # -- arithmetic on raw values -----------------------------------------
    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a) -> bool:
        return not a

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    # -- presentation ------------------------------------------------------
    def fmt(self, a) -> str:
        return str(a)

    @property
    def is_field(self) -> bool:
        """Field-kind rings support rank/kernel via ordinary elimination."""
        return False

    @property
    def is_local(self) -> bool:
        """Local rings support elimination restricted to unit pivots."""
        return False


@dataclass(frozen=True)
class Integers(RingSpec):
    kind = "integers"

    def from_int(self, n: int):
        return int(n)

    def coerce(self, v):
        if isinstance(v, bool):
            raise TypeError("bool is not an integer scalar")
        if isinstance(v, int):
            return v
        if isinstance(v, Fraction) and v.denominator == 1:
            return v.numerator
        raise TypeError("cannot coerce %r into Integers" % (v,))

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_unit(self, a) -> bool:
        return a in (1, -1)

    def inv(self, a):
        if a in (1, -1):
            return a
        raise NotAUnit("%d is not a unit in Z" % a)


@dataclass(frozen=True)
class Rationals(RingSpec):
    kind = "rationals"

    def from_int(self, n: int):
        return Fraction(n)

    def coerce(self, v):
        if isinstance(v, bool):
            raise TypeError("bool is not a rational scalar")
        if isinstance(v, (int, Fraction)):
            return Fraction(v)
        if isinstance(v, str):
            return parse_rational(v)
        raise TypeError("cannot coerce %r into Q" % (v,))

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_unit(self, a) -> bool:
        return a != 0

    def inv(self, a):
        if a == 0:
            raise NotAUnit("0 is not invertible")
        return 1 / a

    def fmt(self, a) -> str:
        return format_rational(a)

    @property
    def is_field(self) -> bool:
        return True


@dataclass(frozen=True)
class PrimeField(RingSpec):
    p: int
    kind = "prime_field"

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError("%d is not prime" % self.p)

    def from_int(self, n: int):
        return n % self.p

    def coerce(self, v):
        if isinstance(v, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(v, int):
            return v % self.p
        if isinstance(v, Fraction):
            if v.denominator % self.p == 0:
                raise NonIntegralDenominator(
                    "denominator of %s is divisible by %d" % (v, self.p))
            return (v.numerator * pow(v.denominator, -1, self.p)) % self.p
        raise TypeError("cannot coerce %r into F_%d" % (v, self.p))

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def is_unit(self, a) -> bool:
        return a % self.p != 0

    def inv(self, a):
        if a % self.p == 0:
            raise NotAUnit("0 is not invertible in F_%d" % self.p)
        return pow(a, -1, self.p)

    @property
    def is_field(self) -> bool:
        return True

    @property
    def is_local(self) -> bool:
        return True


@dataclass(frozen=True)
class IntegersModPk(RingSpec):
    p: int
    k: int
    kind = "integers_mod_pk"

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError("%d is not prime" % self.p)
        if self.k < 1:
            raise ValueError("exponent must be >= 1")

    @property
    def modulus(self) -> int:
        return self.p ** self.k

    def from_int(self, n: int):
        return n % self.modulus

    def coerce(self, v):
        if isinstance(v, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(v, int):
            return v % self.modulus
        if isinstance(v, Fraction):
            if v.denominator % self.p == 0:
                raise NonIntegralDenominator(
                    "denominator of %s is divisible by %d" % (v, self.p))
            return (v.numerator * pow(v.denominator, -1, self.modulus)) % self.modulus
        raise TypeError("cannot coerce %r into Z/%d" % (v, self.modulus))

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def is_unit(self, a) -> bool:
        return a % self.p != 0

    def inv(self, a):
        if a % self.p == 0:
            raise NotAUnit("%d is not a unit mod %d" % (a, self.modulus))
        return pow(a, -1, self.modulus)

    @property
    def is_local(self) -> bool:
        return True


@dataclass(frozen=True)
class LocalizedAtP(RingSpec):
    """Rationals with denominator coprime to p (the localization Z_(p))."""

    p: int
    kind = "localized_at_p"

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError("%d is not prime" % self.p)

    def _check(self, q: Fraction) -> Fraction:
        if q.denominator % self.p == 0:
            raise NonIntegralDenominator(
                "denominator of %s is divisible by %d" % (q, self.p))
        return q

    def from_int(self, n: int):
        return Fraction(n)

    def coerce(self, v):
        if isinstance(v, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(v, (int, Fraction)):
            return self._check(Fraction(v))
        if isinstance(v, str):
            return self._check(parse_rational(v))
        raise TypeError("cannot coerce %r into Z_(%d)" % (v, self.p))

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_unit(self, a) -> bool:
        return a != 0 and a.numerator % self.p != 0

    def inv(self, a):
        if not self.is_unit(a):
            raise NotAUnit("%s is not a unit in Z_(%d)" % (a, self.p))
        return 1 / a

    def fmt(self, a) -> str:
        return format_rational(a)

    @property
    def is_local(self) -> bool:
        return True


@dataclass(frozen=True)
class DualNumbers(RingSpec):
    """base[eps] with eps^2 = 0; raw values are pairs (a, b) = a + b*eps."""

    base: RingSpec
    kind = "dual_numbers"

    def __post_init__(self):
        if not self.base.is_field:
            raise ValueError("dual numbers need a field-kind base ring")

    def from_int(self, n: int):
        return (self.base.from_int(n), self.base.zero())

    def coerce(self, v):
        if isinstance(v, tuple) and len(v) == 2:
            return (self.base.coerce(v[0]), self.base.coerce(v[1]))
        return (self.base.coerce(v), self.base.zero())

    def add(self, a, b):
        return (self.base.add(a[0], b[0]), self.base.add(a[1], b[1]))

    def neg(self, a):
        return (self.base.neg(a[0]), self.base.neg(a[1]))

    def mul(self, a, b):
        return (self.base.mul(a[0], b[0]),
                self.base.add(self.base.mul(a[0], b[1]),
                              self.base.mul(a[1], b[0])))

    def is_zero(self, a) -> bool:
        # a raw value is a pair, and a pair is always truthy
        return self.base.is_zero(a[0]) and self.base.is_zero(a[1])

    def is_unit(self, a) -> bool:
        return self.base.is_unit(a[0])

    def inv(self, a):
        if not self.base.is_unit(a[0]):
            raise NotAUnit("%s has nilpotent constant term" % (a,))
        ia = self.base.inv(a[0])
        return (ia, self.base.neg(self.base.mul(self.base.mul(ia, ia), a[1])))

    def fmt(self, a) -> str:
        return "%s + %s*eps" % (self.base.fmt(a[0]), self.base.fmt(a[1]))

    @property
    def is_local(self) -> bool:
        return True


ZZ = Integers()
QQ = Rationals()


@dataclass(frozen=True)
class Scalar:
    """An exact scalar tagged with its ring; arithmetic enforces same-ring."""

    ring: RingSpec
    value: Any

    @staticmethod
    def of(ring: RingSpec, v) -> "Scalar":
        return Scalar(ring, ring.coerce(v))

    def _match(self, other: "Scalar") -> None:
        if not isinstance(other, Scalar):
            raise TypeError("expected a Scalar, got %r" % (other,))
        if other.ring != self.ring:
            raise RingMismatch("%r vs %r" % (self.ring, other.ring))

    def __add__(self, other):
        self._match(other)
        return Scalar(self.ring, self.ring.add(self.value, other.value))

    def __sub__(self, other):
        self._match(other)
        return Scalar(self.ring, self.ring.sub(self.value, other.value))

    def __mul__(self, other):
        self._match(other)
        return Scalar(self.ring, self.ring.mul(self.value, other.value))

    def __neg__(self):
        return Scalar(self.ring, self.ring.neg(self.value))

    @property
    def is_unit(self) -> bool:
        return self.ring.is_unit(self.value)

    def inverse(self) -> "Scalar":
        return Scalar(self.ring, self.ring.inv(self.value))

    def __str__(self) -> str:
        return self.ring.fmt(self.value)


def convert_raw(v, src: RingSpec, dst: RingSpec):
    """Move a raw value along the canonical map src -> dst, if one exists.

    Canonical maps: identity; Integers into anything; Rationals into
    Rationals, LocalizedAtP(p) or PrimeField(p) when denominators permit;
    LocalizedAtP(p) into PrimeField(p) or IntegersModPk(p, k);
    IntegersModPk(p, k) onto PrimeField(p).
    """
    if src == dst:
        return v
    if src.kind == "integers":
        return dst.from_int(v)
    if src.kind == "rationals":
        if dst.kind in ("rationals", "localized_at_p", "prime_field", "integers_mod_pk"):
            return dst.coerce(v)
        raise NoCanonicalMorphism("Q -> %r" % (dst,))
    if src.kind == "localized_at_p":
        if dst.kind in ("prime_field", "integers_mod_pk") and dst.p == src.p:
            return dst.coerce(v)
        raise NoCanonicalMorphism("Z_(%d) -> %r" % (src.p, dst))
    if src.kind == "integers_mod_pk":
        if dst.kind == "prime_field" and dst.p == src.p:
            return v % dst.p
        if dst.kind == "integers_mod_pk" and dst.p == src.p and dst.k <= src.k:
            return v % dst.modulus
        raise NoCanonicalMorphism("Z/%d -> %r" % (src.modulus, dst))
    raise NoCanonicalMorphism("%r -> %r" % (src, dst))
