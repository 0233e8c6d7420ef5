"""Certified real numbers: a rigorous enclosure plus a refinement hook.

A CertifiedReal either wraps an exact QuadExact (rational or quadratic
irrational: signs and zeros decidable outright) or an enclosure
function digits -> (lo, hi).  Arithmetic composes enclosures with
outward rounding; exactness is preserved whenever the operands live in
a common quadratic field.  Refinement doubles the digit count until a
sign is resolved or the context cap is hit, which is the toolkit's
defense against the catastrophic cancellation that inner products
<k, alpha> can exhibit.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Optional

from .errors import PrecisionExhausted
from .precision import (
    DEFAULT_CONTEXT,
    PrecisionContext,
    fraction_to_decimal_str,
    fraction_to_decimal_str_up,
    mul_interval,
    pow_interval,
    round_out,
)
from .quadratic import QuadExact

Interval = tuple[Fraction, Fraction]
_GUARD = 10  # extra digits requested from operands of a composite


class CertifiedReal:
    __slots__ = ("exact", "_fn", "refinable", "_best", "_best_digits")

    def __init__(self, exact: Optional[QuadExact] = None,
                 fn: Optional[Callable[[int], Interval]] = None,
                 refinable: bool = True):
        if (exact is None) == (fn is None):
            raise ValueError("need exactly one of exact / fn")
        self.exact = exact
        self._fn = fn
        self.refinable = refinable if exact is None else True
        self._best: Optional[Interval] = None
        self._best_digits = 0

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_rational(cls, x) -> "CertifiedReal":
        return cls(exact=QuadExact(Fraction(x)))

    @classmethod
    def from_quad(cls, q: QuadExact) -> "CertifiedReal":
        return cls(exact=q)

    @classmethod
    def from_decimal_literal(cls, text: str) -> "CertifiedReal":
        """Literal correctly rounded to its last digit; the interval is
        one unit in the last place on each side and never shrinks.  Text
        that is not a finite decimal raises an ArithmeticError or ValueError."""
        literal = Decimal(text)
        value = Fraction(literal)
        ulp = Fraction(10) ** literal.as_tuple().exponent
        iv = (value - ulp, value + ulp)
        return cls(fn=lambda digits: iv, refinable=False)

    @classmethod
    def from_fn(cls, fn: Callable[[int], Interval]) -> "CertifiedReal":
        return cls(fn=fn)

    # -- enclosure ---------------------------------------------------------

    def enclosure(self, digits: int) -> Interval:
        if self.exact is not None:
            return self.exact.enclosure(digits)
        if self._best is not None and digits <= self._best_digits:
            return self._best
        lo, hi = self._fn(digits)
        if self._best is not None:
            nlo, nhi = max(lo, self._best[0]), min(hi, self._best[1])
            if nlo <= nhi:  # intersection stays valid
                lo, hi = nlo, nhi
        self._best = (lo, hi)
        self._best_digits = digits
        return self._best

    def width(self, digits: int) -> Fraction:
        lo, hi = self.enclosure(digits)
        return hi - lo

    # -- sign resolution ---------------------------------------------------

    def sign(self, ctx: PrecisionContext = DEFAULT_CONTEXT) -> int:
        """Exact sign, refining as needed.  Raises PrecisionExhausted if the
        enclosure keeps straddling 0 and no exact decision is available."""
        if self.exact is not None:
            return self.exact.sign()
        digits = ctx.working_digits
        prev_width = None
        while True:
            lo, hi = self.enclosure(digits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            if lo == 0 and hi == 0:
                return 0
            width = hi - lo
            if (prev_width is not None and width >= prev_width) or not self.refinable:
                raise PrecisionExhausted(
                    "enclosure straddles 0 and cannot be refined further", offending=self)
            prev_width = width
            digits *= 2
            if digits > ctx.max_digits:
                raise PrecisionExhausted(
                    f"sign not resolved within max_digits={ctx.max_digits}", offending=self)

    def sign_soft(self, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Optional[int]:
        try:
            return self.sign(ctx)
        except PrecisionExhausted:
            return None

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _wrap(x) -> "CertifiedReal":
        if isinstance(x, CertifiedReal):
            return x
        if isinstance(x, QuadExact):
            return CertifiedReal(exact=x)
        if isinstance(x, (int, Fraction)):
            return CertifiedReal.from_rational(x)
        raise TypeError(f"cannot interpret {type(x).__name__} as CertifiedReal "
                        "(floats are rejected: pass int, Fraction or str)")

    def _combine(self, other, exact_op, interval_op) -> "CertifiedReal":
        other = self._wrap(other)
        if self.exact is not None and other.exact is not None:
            res = exact_op(self.exact, other.exact)
            if res is not NotImplemented:
                return CertifiedReal(exact=res)
        a, b = self, other
        refinable = a.refinable and b.refinable

        def fn(digits):
            ia = a.enclosure(digits + _GUARD)
            ib = b.enclosure(digits + _GUARD)
            return round_out(*interval_op(ia, ib), digits)

        return CertifiedReal(fn=fn, refinable=refinable)

    def __add__(self, other):
        return self._combine(other, lambda x, y: x.__add__(y),
                             lambda ia, ib: (ia[0] + ib[0], ia[1] + ib[1]))

    __radd__ = __add__

    def __neg__(self):
        if self.exact is not None:
            return CertifiedReal(exact=-self.exact)
        src = self
        return CertifiedReal(fn=lambda d: (-src.enclosure(d)[1], -src.enclosure(d)[0]),
                             refinable=src.refinable)

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        return self._combine(other, lambda x, y: x.__mul__(y), mul_interval)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._wrap(other)
        if self.exact is not None and other.exact is not None:
            res = self.exact.__truediv__(other.exact)
            if res is not NotImplemented:
                return CertifiedReal(exact=res)
        s = other.sign()  # raises on unresolvable denominator
        if s == 0:
            raise ZeroDivisionError("division by certified zero")
        a, b = self, other
        refinable = a.refinable and b.refinable

        def fn(digits):
            d = digits + _GUARD
            ia, ib = a.enclosure(d), b.enclosure(d)
            while ib[0] <= 0 <= ib[1]:
                d *= 2
                ib = b.enclosure(d)
            inv = (Fraction(1) / ib[1], Fraction(1) / ib[0])
            return round_out(*mul_interval(ia, inv), digits)

        return CertifiedReal(fn=fn, refinable=refinable)

    def __rtruediv__(self, other):
        return self._wrap(other) / self

    def __abs__(self):
        if self.exact is not None:
            return CertifiedReal(exact=abs(self.exact))
        src = self

        def fn(digits):
            lo, hi = src.enclosure(digits)
            if lo >= 0:
                return (lo, hi)
            if hi <= 0:
                return (-hi, -lo)
            return (Fraction(0), max(-lo, hi))

        return CertifiedReal(fn=fn, refinable=src.refinable)

    def sqrt(self) -> "CertifiedReal":
        """Square root of a nonnegative value; exact when the operand is an
        exact nonnegative rational (the result lives in Q(sqrt(num*den)))."""
        if self.exact is not None and self.exact.is_rational:
            v = self.exact.as_fraction()
            if v < 0:
                raise ValueError("sqrt of negative exact value")
            if v == 0:
                return CertifiedReal.from_rational(0)
            return CertifiedReal(exact=QuadExact(
                0, Fraction(1, v.denominator), v.numerator * v.denominator))
        return self.pow_frac(Fraction(1, 2))

    def pow_frac(self, exponent) -> "CertifiedReal":
        """self ** exponent for nonnegative self and exponent >= 0."""
        exponent = Fraction(exponent)
        if exponent < 0:
            raise ValueError("pow_frac needs exponent >= 0")
        if exponent == 0:
            return CertifiedReal.from_rational(1)
        if exponent == 1:
            return self
        if self.exact is not None and exponent.denominator == 1:
            res = self.exact
            out = QuadExact(1)
            for _ in range(exponent.numerator):
                out = out * res
            return CertifiedReal(exact=out)
        if (self.exact is not None and self.exact.is_rational
                and exponent.denominator == 2):
            # half-integer power of a rational stays exact in Q(sqrt(num*den))
            v = self.exact.as_fraction() ** exponent.numerator
            return CertifiedReal.from_rational(v).sqrt()
        src = self

        def fn(digits):
            lo, hi = src.enclosure(digits + _GUARD)
            return round_out(*pow_interval(lo, hi, exponent, digits + _GUARD), digits)

        return CertifiedReal(fn=fn, refinable=src.refinable)

    def pow_int(self, n: int) -> "CertifiedReal":
        return self.pow_frac(Fraction(n))

    # -- comparisons (certified) --------------------------------------------

    def compare(self, other, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Optional[int]:
        """Sign of self - other, or None when not resolvable (a genuine tie
        or precision exhaustion on inexact operands)."""
        return (self - self._wrap(other)).sign_soft(ctx)

    # -- conversions ------------------------------------------------------

    def midpoint(self, digits: int = 40) -> Fraction:
        lo, hi = self.enclosure(digits)
        return (lo + hi) / 2

    def __float__(self):
        return float(self.midpoint(30))

    def to_json(self, digits: int = DEFAULT_CONTEXT.working_digits) -> dict:
        lo, hi = self.enclosure(digits)
        mid, rad = (lo + hi) / 2, (hi - lo) / 2
        return {
            "value": fraction_to_decimal_str(mid, digits),
            "radius": fraction_to_decimal_str_up(rad, 3),
            "digits": digits,
        }

    def __repr__(self):
        lo, hi = self.enclosure(30)
        return f"CertifiedReal({float((lo + hi) / 2)!r} +/- {float((hi - lo) / 2):.2e})"

