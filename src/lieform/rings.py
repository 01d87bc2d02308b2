"""Exact coefficient rings and scalars.

Every computation in this package is exact.  Integers are arbitrary
precision, fractions are kept in lowest terms with positive denominator,
residues are kept in [0, modulus).  No floating point anywhere.

Each arithmetic is written once: Integers, Rationals and LocalizedAtP
share Python's own +, - and * (`_Numbers`); PrimeField and IntegersModPk
share the residue arithmetic mod p^k (`_Residues`, PrimeField being
k = 1); DualNumbers works through its base ring.  `convert_raw` holds
the canonical maps between them.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Any


class LieformError(Exception):
    """Base of every named error lieform raises; an internal check that
    fails raises AssertionError instead."""


class RingError(LieformError):
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


# Miller-Rabin on these bases is exact below _MR_BOUND (Sorenson and Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin below _MR_BOUND.  At or above it a base
    that witnesses compositeness still answers False, but a number that
    passes every base is only a strong probable prime: ValueError."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    if p >= _MR_BOUND:
        raise ValueError("cannot decide whether %d is prime: it passes Miller-Rabin "
                         "on the bases 2 to 41, which is exact only below %d"
                         % (p, _MR_BOUND))
    return True


def pvaluation(q: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational; raises on zero and on p < 2."""
    if p < 2:
        raise ValueError("valuation needs p >= 2, got %d" % p)
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
    """The rational "a/b" or "a"; a ValueError naming s for any other
    string, or a zero denominator."""
    a, slash, b = s.partition("/")
    try:
        return Fraction(int(a), int(b) if slash else 1)
    except (ValueError, ZeroDivisionError):
        raise ValueError("malformed rational %r" % (s,)) from None


def _key_getter(names: tuple):
    """A function from a record to the tuple of its fields `names`."""
    if len(names) > 1:
        return operator.attrgetter(*names)
    if names:
        get = operator.attrgetter(names[0])
        return lambda record: (get(record),)
    return lambda record: ()


class Record:
    """Base of lieform's immutable records.  Its methods are written out
    once here, not generated per class: generating them, with the imports
    that takes, cost every lieform process about 20 ms at start-up.
    `Matrix`, built thousands of times a job, writes its own `__init__`,
    which sets the same attributes without the generic loop.
    Attributes are set one at a time: replacing an instance's `__dict__`
    whole makes every later attribute read slower.

    A subclass's fields are its annotated names, after those of its
    bases, and a class attribute of the same name is a field's default.
    Fields named in `_hidden` are left out of repr, == and hash; those in
    `_unprinted` out of repr only.  An instance takes its fields
    positionally or by keyword, then runs `__post_init__`.  Its key is
    the tuple of its compared fields, read by the class's `_keyof`: two
    records are equal when they are of one class with equal keys, and a
    record hashes as its key.  Assignment and deletion raise AttributeError;
    `_replace(**changes)` makes a changed copy, through `__init__` and its
    checks.
    """

    _fields = ()
    _hidden = ()
    _unprinted = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = fields = cls._fields + tuple(n for n in own if n not in cls._fields)
        cls._defaults = {n: getattr(cls, n) for n in fields if hasattr(cls, n)}
        cls._compared = tuple(n for n in fields if n not in cls._hidden)
        cls._shown = tuple(n for n in cls._compared if n not in cls._unprinted)
        cls._keyof = staticmethod(_key_getter(cls._compared))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        put = object.__setattr__
        for name, value in zip(fields, args):
            put(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> tuple:
        """The values of every field, in order, from a call's arguments and
        the defaults; TypeError unless they give each field exactly once."""
        fields = cls._fields
        given = dict(zip(fields, args))
        values = {**cls._defaults, **given, **kwargs}
        if len(args) > len(fields) or given.keys() & kwargs.keys() or values.keys() != set(fields):
            raise TypeError("%s() takes the fields %s, not %d positional arguments and the keywords %s"
                            % (cls.__name__, ", ".join(fields), len(args), ", ".join(kwargs) or "none"))
        return tuple(values[n] for n in fields)

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._keyof(self) == self._keyof(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._keyof(self))

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (n, getattr(self, n)) for n in self._shown))

    def _replace(self, **changes):
        return type(self)(**{**{n: getattr(self, n) for n in self._fields}, **changes})


class RingSpec(Record):
    """Base class for coefficient rings.

    Subclasses operate on raw values: Python ints for Integers and the
    finite rings, Fraction for Rationals and LocalizedAtP, and a pair of
    base-ring raw values for DualNumbers.  Each concrete ring defines
    from_int, coerce (canonicalize arbitrary user input into a raw value),
    add, neg, mul, is_unit and inv.
    """

    kind = "abstract"

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a) -> bool:
        return not a

    # -- presentation ------------------------------------------------------
    def fmt(self, a) -> str:
        return str(a)

    # field-kind rings support rank/kernel via ordinary elimination
    is_field = False
    # local rings eliminate on units, then, unless fields, on least `valuation`
    is_local = False


class _Numbers(RingSpec):
    """Rings whose raw values are Python numbers under Python's own
    +, - and *: Integers, Rationals and LocalizedAtP."""

    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)


class Integers(_Numbers):
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

    def is_unit(self, a) -> bool:
        return a in (1, -1)

    def inv(self, a):
        if a in (1, -1):
            return a
        raise NotAUnit("%d is not a unit in Z" % a)


class Rationals(_Numbers):
    kind = "rationals"
    is_field = True

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

    def is_unit(self, a) -> bool:
        return a != 0

    def inv(self, a):
        if a == 0:
            raise NotAUnit("0 is not invertible")
        return 1 / a

    def fmt(self, a) -> str:
        return format_rational(a)


class _Residues(RingSpec):
    """Z/p^k on residues in [0, modulus), for a prime p and k >= 1; the
    subclasses are records with the field p, and k a field or a class
    attribute."""

    is_local = True

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError("%d is not prime" % self.p)
        if self.k < 1:
            raise ValueError("exponent must be >= 1")
        object.__setattr__(self, "modulus", self.p ** self.k)

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

    def sub(self, a, b):
        return (a - b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def is_unit(self, a) -> bool:
        return a % self.p != 0

    def inv(self, a):
        if a % self.p == 0:
            raise NotAUnit("%d is not a unit mod %d" % (a, self.modulus))
        return pow(a, -1, self.modulus)


class PrimeField(_Residues):
    p: int
    kind = "prime_field"
    k = 1
    is_field = True


class IntegersModPk(_Residues):
    p: int
    k: int
    kind = "integers_mod_pk"

    def valuation(self, a) -> int:
        return pvaluation(a, self.p)

    def divide(self, b, a):
        """A quotient b / a, for a nonzero a that divides b."""
        pv = self.p ** pvaluation(a, self.p)
        if b % pv:
            raise NotAUnit("%d does not divide %d mod %d" % (a, b, self.modulus))
        return b // pv * self.inv(a // pv) % self.modulus


class LocalizedAtP(_Numbers):
    """Rationals with denominator coprime to p (the localization Z_(p))."""

    p: int
    kind = "localized_at_p"
    is_local = True

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

    def is_unit(self, a) -> bool:
        return a != 0 and a.numerator % self.p != 0

    def inv(self, a):
        if not self.is_unit(a):
            raise NotAUnit("%s is not a unit in Z_(%d)" % (a, self.p))
        return 1 / a

    def valuation(self, a) -> int:
        return pvaluation(a, self.p)

    def divide(self, b, a):
        """b / a, for a nonzero a that divides b."""
        return self._check(b / a)

    def fmt(self, a) -> str:
        return format_rational(a)


class DualNumbers(RingSpec):
    """base[eps] with eps^2 = 0; raw values are pairs (a, b) = a + b*eps."""

    base: RingSpec
    kind = "dual_numbers"
    is_local = True

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

    def valuation(self, a) -> int:
        """0 on the units, 1 on the nonzero multiples of eps."""
        return 0 if self.is_unit(a) else 1

    def divide(self, b, a):
        """A quotient b / a, for a nonzero a that divides b; eps part 0 if a is not a unit."""
        if self.is_unit(a):
            return self.mul(b, self.inv(a))
        if not self.base.is_zero(b[0]):
            raise NotAUnit("%s does not divide %s" % (self.fmt(a), self.fmt(b)))
        return (self.base.mul(b[1], self.base.inv(a[1])), self.base.zero())

    def fmt(self, a) -> str:
        return "%s + %s*eps" % (self.base.fmt(a[0]), self.base.fmt(a[1]))


ZZ = Integers()
QQ = Rationals()


class Scalar(Record):
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
    IntegersModPk(p, k) onto PrimeField(p) and IntegersModPk(p, j), j <= k;
    DualNumbers(base) onto base, a + b*eps -> a.
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
        if dst.kind in ("prime_field", "integers_mod_pk") and dst.p == src.p and dst.k <= src.k:
            return v % dst.modulus
        raise NoCanonicalMorphism("Z/%d -> %r" % (src.modulus, dst))
    if src.kind == "dual_numbers" and dst == src.base:
        return v[0]
    raise NoCanonicalMorphism("%r -> %r" % (src, dst))
