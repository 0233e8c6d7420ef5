"""Exact arithmetic in real quadratic fields Q(sqrt(D)).

A QuadExact holds a + b*sqrt(d) with Fraction a, b and squarefree-ish
integer d >= 0 (square factors of d are absorbed into b, so two values
are comparable iff their d match or one of them is rational).  Signs,
floors and equalities are decided exactly; this is what lets inner
products <k, alpha> be certified as exactly zero or nonzero for
rational and quadratic-irrational direction entries.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .precision import iroot


def _primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p, is_prime in enumerate(sieve) if is_prime]


_TRIAL_PRIMES = _primes_upto(10_000)


def _extract_square(d: int) -> tuple[int, int]:
    """d = s*s*m with small square factors removed from m.

    Trial division by the primes up to 10^4 (a composite square cannot
    divide once its prime squares are gone), plus perfect-square checks,
    so m is not guaranteed squarefree for huge radicands; that only weakens the
    cross-field compatibility test (values fall back to interval
    arithmetic), never the exactness of sign/floor within one field.
    """
    if d < 0:
        raise ValueError("need d >= 0")
    r = math.isqrt(d)
    if r * r == d:
        return r, 1
    s, m = 1, d
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        while m % (p * p) == 0:
            m //= p * p
            s *= p
    r = math.isqrt(m)
    if r * r == m:
        return s * r, 1
    return s, m


class QuadExact:
    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=0):
        a, b = Fraction(a), Fraction(b)
        d = int(d)
        if b == 0:
            d = 0
        elif d == 0:
            b = Fraction(0)
        else:
            s, m = _extract_square(d)
            if m == 1:
                a, b, d = a + b * s, Fraction(0), 0
            else:
                b, d = b * s, m
        self.a, self.b, self.d = a, b, d

    # -- predicates ----------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("not a rational value")
        return self.a

    def _coerce(self, other):
        if isinstance(other, QuadExact):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExact(other)
        return None

    def _compatible(self, other: "QuadExact") -> bool:
        return self.d == 0 or other.d == 0 or self.d == other.d

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None or not self._compatible(other):
            return NotImplemented
        d = self.d or other.d
        return QuadExact(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExact(-self.a, -self.b, self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None or not self._compatible(other):
            return NotImplemented
        d = self.d or other.d
        a = self.a * other.a + self.b * other.b * d
        b = self.a * other.b + self.b * other.a
        return QuadExact(a, b, d)

    __rmul__ = __mul__

    def conjugate(self) -> "QuadExact":
        return QuadExact(self.a, -self.b, self.d)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None or not self._compatible(other):
            return NotImplemented
        if other.sign() == 0:
            raise ZeroDivisionError("division by exact zero")
        conj = other.conjugate()
        norm = other.a * other.a - other.b * other.b * other.d
        num = self * conj
        return QuadExact(num.a / norm, num.b / norm, num.d)

    def __rtruediv__(self, other):
        return QuadExact(other) / self

    # -- exact decisions -------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}."""
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        sa = 1 if a > 0 else -1
        sb = 1 if b > 0 else -1
        if sa == sb:
            return sa
        # opposite signs: compare a^2 vs b^2 d
        lhs, rhs = a * a, b * b * d
        if lhs == rhs:
            return 0  # impossible for squarefree d > 1, kept for safety
        return sa if lhs > rhs else sb

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self._compatible(other):
            return False
        return (self - other).sign() == 0

    def __hash__(self):
        # a rational value equals its Fraction, so it must hash like one
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def floor(self) -> int:
        if self.b == 0:
            return math.floor(self.a)
        # bracket b*sqrt(d) with integer sqrt bounds, then tighten
        lo, hi = self.enclosure(30)
        flo, fhi = math.floor(lo), math.floor(hi)
        digits = 30
        while flo != fhi:
            digits *= 2
            lo, hi = self.enclosure(digits)
            flo, fhi = math.floor(lo), math.floor(hi)
            if digits > 10_000:  # value is irrational, so this terminates
                raise RuntimeError("floor did not resolve")
        return flo

    # -- enclosure -------------------------------------------------------

    def enclosure(self, digits: int) -> tuple[Fraction, Fraction]:
        """Rigorous interval with ~digits decimal accuracy."""
        if self.b == 0:
            return (self.a, self.a)
        s = 10 ** digits
        r = iroot(self.d * s * s, 2)
        slo, shi = Fraction(r, s), Fraction(r + 1, s)  # sqrt(d) in [slo, shi]
        if self.b > 0:
            return (self.a + self.b * slo, self.a + self.b * shi)
        return (self.a + self.b * shi, self.a + self.b * slo)

    def __float__(self):
        lo, hi = self.enclosure(25)
        return float((lo + hi) / 2)

    def __repr__(self):
        if self.b == 0:
            return f"QuadExact({self.a})"
        return f"QuadExact({self.a} + {self.b}*sqrt({self.d}))"


GOLDEN_RATIO = QuadExact(Fraction(1, 2), Fraction(1, 2), 5)
SQRT2 = QuadExact(0, 1, 2)
