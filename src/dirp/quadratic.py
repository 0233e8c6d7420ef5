"""Exact arithmetic in real quadratic fields Q(sqrt(D)).

A QuadExact holds a + b*sqrt(d) with Fraction a, b and a non-square
integer d >= 0 (d = 0 exactly when b = 0; a perfect-square radicand
collapses to a rational).  d is kept as written: square factors are
not factored out, because the field test needs none.  Two values are
comparable iff one is rational or d1*d2 is a perfect square, and then
the larger radicand is rebased onto the smaller.  Signs and equalities
are decided exactly; this is what lets inner products
<k, alpha> be certified as exactly zero or nonzero for rational and
quadratic-irrational direction entries.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .precision import iroot


class QuadExact:
    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=0):
        if isinstance(a, float) or isinstance(b, float) or isinstance(d, float):
            raise TypeError("floats are rejected: pass int, Fraction or str")
        if type(a) is not Fraction:     # a Fraction is immutable: keep it
            a = Fraction(a)
        if type(b) is not Fraction:
            b = Fraction(b)
        d = int(d)
        if b == 0:
            d = 0
        elif d == 0:
            b = Fraction(0)
        else:
            if d < 0:
                raise ValueError("need d >= 0")
            r = math.isqrt(d)
            if r * r == d:
                a, b, d = a + b * r, Fraction(0), 0
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

    def _pair(self, other):
        """(d, a1, b1, a2, b2) with self = a1 + b1 sqrt(d) and other =
        a2 + b2 sqrt(d), or None when other is not a rational or a value of
        the same field.  Q(sqrt d1) = Q(sqrt d2) iff d1*d2 is a square r^2;
        the larger radicand is then rebased onto the smaller one through
        sqrt(d_big) = (r / d_small) sqrt(d_small)."""
        other = self._coerce(other)
        if other is None:
            return None
        d1, d2 = self.d, other.d
        b1, b2 = self.b, other.b
        if d1 and d2 and d1 != d2:
            r = math.isqrt(d1 * d2)
            if r * r != d1 * d2:
                return None
            if d1 < d2:
                b2 = b2 * r / d1
            else:
                b1, d1 = b1 * r / d2, d2
        return d1 or d2, self.a, b1, other.a, b2

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        p = self._pair(other)
        if p is None:
            return NotImplemented
        d, a1, b1, a2, b2 = p
        return QuadExact(a1 + a2, b1 + b2, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExact(-self.a, -self.b, self.d)

    def __sub__(self, other):
        p = self._pair(other)
        if p is None:
            return NotImplemented
        d, a1, b1, a2, b2 = p
        return QuadExact(a1 - a2, b1 - b2, d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        p = self._pair(other)
        if p is None:
            return NotImplemented
        d, a1, b1, a2, b2 = p
        return QuadExact(a1 * a2 + b1 * b2 * d, a1 * b2 + b1 * a2, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        p = self._pair(other)
        if p is None:
            return NotImplemented
        d, a1, b1, a2, b2 = p
        norm = a2 * a2 - b2 * b2 * d
        if norm == 0:
            raise ZeroDivisionError("division by exact zero")
        return QuadExact((a1 * a2 - b1 * b2 * d) / norm, (b1 * a2 - a1 * b2) / norm, d)

    def __rtruediv__(self, other):
        return QuadExact(other) / self

    # -- exact decisions -------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}."""
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return (a > 0) - (a < 0)
        sb = 1 if b > 0 else -1
        if a == 0 or (a > 0) == (b > 0):
            return sb
        # opposite signs: a^2 != b^2 d because d is not a square
        return sb if b * b * d > a * a else -sb

    def __eq__(self, other):
        p = self._pair(other)
        if p is None:
            return NotImplemented if self._coerce(other) is None else False
        return p[1:3] == p[3:]  # sqrt(d) is irrational: equal values, equal parts

    def __hash__(self):
        # a rational value equals its Fraction, so it must hash like one;
        # (a, b^2 d, sign b) does not depend on the radicand chosen
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b * self.b * self.d, self.b > 0))

    # outside one field these give NotImplemented, so Python raises its own
    # "'<' not supported" TypeError; CertifiedReal.compare decides such pairs
    def __lt__(self, other):
        diff = self.__sub__(other)
        return diff if diff is NotImplemented else diff.sign() < 0

    def __le__(self, other):
        diff = self.__sub__(other)
        return diff if diff is NotImplemented else diff.sign() <= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

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


def common_field(values) -> tuple[int, int, list[int], list[int]] | None:
    """(D, Q, x, y) with integers and value_i = (x_i + y_i sqrt D) / Q, D the
    smallest radicand among them; None unless every value is a QuadExact
    (an entry may be None) and all lie in one field."""
    unit = QuadExact(0, 1, min((q.d for q in values if q is not None and q.d), default=0))
    pairs = [unit._pair(q) for q in values]  # None for a None entry or another field
    if any(p is None for p in pairs):
        return None
    coords = [(a, b) for _, _, _, a, b in pairs]
    Q = math.lcm(*(c.denominator for ab in coords for c in ab))
    return unit.d, Q, [int(a * Q) for a, _ in coords], [int(b * Q) for _, b in coords]
