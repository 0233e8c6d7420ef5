"""Certified real numbers: a rigorous enclosure plus a refinement hook.

A CertifiedReal either wraps an exact QuadExact (rational or quadratic
irrational: signs and zeros decidable outright) or an enclosure
function digits -> (lo, hi).  Every composite value is one node
(CertifiedReal.node): exact when its operands are exact and the exact
operation stays in one field, else it asks each operand for digits +
guard digits and applies one interval operation that rounds outward.
Refinement doubles the digit count until a sign is resolved or the
context cap is hit, which is the toolkit's defense against the
catastrophic cancellation that inner products <k, alpha> can exhibit.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import reduce
from typing import Callable, Iterable, Optional

from .errors import PrecisionExhausted
from .precision import (
    DEFAULT_CONTEXT,
    PrecisionContext,
    fraction_to_decimal_str,
    fraction_to_decimal_str_up,
    iroot,
    mul_interval,
    nth_root_interval,
    round_out,
    sum_interval,
    to_fraction,
)
from .quadratic import QuadExact

Interval = tuple[Fraction, Fraction]
GUARD = 10  # extra digits requested from operands of a composite


def _sign_of(lo: Fraction, hi: Fraction) -> Optional[int]:
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    if lo == 0 and hi == 0:
        return 0
    return None


def _exact_sum(*values: QuadExact):
    """The exact total, or NotImplemented once the values span two fields."""
    return reduce(lambda t, v: t if t is NotImplemented else t.__add__(v), values, QuadExact(0))


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
        return cls(exact=QuadExact(x))

    @classmethod
    def from_quad(cls, q: QuadExact) -> "CertifiedReal":
        return cls(exact=q)

    @classmethod
    def from_decimal_literal(cls, text: str) -> "CertifiedReal":
        """Literal correctly rounded to its last digit; the interval is
        one unit in the last place on each side and never shrinks.  Text
        that is not a finite decimal raises an ArithmeticError or ValueError.
        The value is read by read_ratio; Decimal gives only the last place."""
        value = to_fraction(text)
        if "/" in text:
            raise ValueError("a decimal literal has no '/'")
        ulp = Fraction(10) ** Decimal(text).as_tuple().exponent
        iv = (value - ulp, value + ulp)
        return cls(fn=lambda digits: iv, refinable=False)

    @classmethod
    def from_fn(cls, fn: Callable[[int], Interval]) -> "CertifiedReal":
        return cls(fn=fn)

    @classmethod
    def node(cls, operands: Iterable, guard: int,
             interval_op: Callable[[list[Interval], int], Interval],
             exact_op: Optional[Callable[..., QuadExact]] = None) -> "CertifiedReal":
        """One composite value: exact_op(*exact operands) when every operand
        is exact and it does not return NotImplemented, else an enclosure
        interval_op(operand enclosures at digits + guard, digits), which
        rounds its own result.  Refinable when every operand is."""
        operands = [cls._wrap(o) for o in operands]
        if exact_op is not None and all(o.exact is not None for o in operands):
            res = exact_op(*(o.exact for o in operands))
            if res is not NotImplemented:
                return cls(exact=res)

        def fn(digits):
            return interval_op([o.enclosure(digits + guard) for o in operands], digits)

        return cls(fn=fn, refinable=all(o.refinable for o in operands))

    @classmethod
    def sum(cls, terms: Iterable) -> "CertifiedReal":
        """One node for the whole sum: exact when every term is exact and
        all fold in one field, else an enclosure that asks each of the n
        terms for digits + GUARD + len(str(n)) digits, adds the endpoints
        exactly and rounds once (a chain of n additions would ask its first
        term for digits + GUARD * n)."""
        terms = list(terms)
        return cls.node(terms, GUARD + len(str(len(terms))), sum_interval, _exact_sum)

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

    # -- sign resolution ---------------------------------------------------

    def sign(self, ctx: PrecisionContext = DEFAULT_CONTEXT) -> int:
        """Exact sign, refining as needed.  Raises PrecisionExhausted if the
        enclosure keeps straddling 0 and no exact decision is available."""
        if self.exact is not None:
            return self.exact.sign()
        return self._refine(_sign_of, "enclosure straddles 0", "sign", ctx)

    def significant(self, sig: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Decimal:
        """The value rounded to `sig` significant digits, refining as sign()
        does until both ends of the enclosure round to it.  Raises
        PrecisionExhausted rather than return digits the enclosure leaves open."""
        def decide(lo, hi):
            rounded = Decimal(fraction_to_decimal_str(hi, sig))
            return rounded if Decimal(fraction_to_decimal_str(lo, sig)) == rounded else None
        return self._refine(decide, f"enclosure does not fix {sig} significant digits",
                            f"{sig} significant digits", ctx)

    def _refine(self, decide, stuck: str, goal: str, ctx: PrecisionContext):
        """decide(lo, hi) on enclosures along ctx.digit_schedule(), up to and
        including ctx.max_digits, until it returns something other than None.
        Only a value that is not refinable or the cap stops it: an enclosure
        that holds still for one doubling (a Liouville series between two
        terms) may still shrink at the next."""
        for digits in ctx.digit_schedule():
            lo, hi = self.enclosure(digits)
            result = decide(lo, hi)
            if result is not None:
                return result
            if not self.refinable:
                raise PrecisionExhausted(
                    f"{stuck} and cannot be refined further", offending=self)
        raise PrecisionExhausted(
            f"{goal} not resolved within max_digits={ctx.max_digits}", offending=self)

    def sign_soft(self, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Optional[int]:
        try:
            return self.sign(ctx)
        except PrecisionExhausted:
            return None

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _wrap(x) -> "CertifiedReal":
        return x if isinstance(x, CertifiedReal) else CertifiedReal(exact=QuadExact.of(x))

    def __add__(self, other):
        return CertifiedReal.node((self, other), GUARD, sum_interval, QuadExact.__add__)

    __radd__ = __add__

    def __neg__(self):
        return CertifiedReal.node((self,), 0, lambda ivs, digits: (-ivs[0][1], -ivs[0][0]),
                                  QuadExact.__neg__)

    def __sub__(self, other):
        def op(ivs, digits):
            (a0, a1), (b0, b1) = ivs
            return round_out(a0 - b1, a1 - b0, digits)
        return CertifiedReal.node((self, other), GUARD, op, QuadExact.__sub__)

    def __rsub__(self, other):
        return self._wrap(other) - self

    def __mul__(self, other):
        return CertifiedReal.node((self, other), GUARD,
                                  lambda ivs, digits: mul_interval(*ivs, digits),
                                  QuadExact.__mul__)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._wrap(other)
        # two exact operands divide in QuadExact, which raises on 0; otherwise
        # other.sign() decides, and raises on an unresolvable denominator
        if (self.exact is None or other.exact is None) and other.sign() == 0:
            raise ZeroDivisionError("division by certified zero")

        def op(ivs, digits):
            ia, ib = ivs
            d = digits + GUARD
            while ib[0] <= 0 <= ib[1]:
                d *= 2
                ib = other.enclosure(d)
            return mul_interval(ia, (Fraction(1) / ib[1], Fraction(1) / ib[0]), digits)

        return CertifiedReal.node((self, other), GUARD, op, QuadExact.__truediv__)

    def __rtruediv__(self, other):
        return self._wrap(other) / self

    def __abs__(self):
        def op(ivs, digits):
            lo, hi = ivs[0]
            if lo >= 0:
                return (lo, hi)
            if hi <= 0:
                return (-hi, -lo)
            return (Fraction(0), max(-lo, hi))
        return CertifiedReal.node((self,), 0, op, QuadExact.__abs__)

    def sqrt(self) -> "CertifiedReal":
        return self.pow_frac(Fraction(1, 2))

    def pow_frac(self, exponent) -> "CertifiedReal":
        """self ** exponent for nonnegative self and exponent >= 0; exact for
        an integer power of an exact value, and for p/q of an exact rational
        x >= 0 with a rational h-th root, h = q/2 for even q else q: with
        r = x^(p/h) the value is r, or sqrt(r) in Q(sqrt(num*den)) for even q."""
        exponent = to_fraction(exponent)
        if exponent < 0:
            raise ValueError("pow_frac needs exponent >= 0")
        if exponent == 0:
            return CertifiedReal.from_rational(1)
        if exponent == 1:
            return self
        p, q = exponent.numerator, exponent.denominator

        def exact_op(x):
            if q == 1:
                return reduce(QuadExact.__mul__, [x] * p, QuadExact(1))
            if not x.is_rational:
                return NotImplemented
            v = x.as_fraction()
            h = q // 2 if q % 2 == 0 else q
            if v < 0 and h < q:  # for odd q, iroot raises on v < 0
                raise ValueError("sqrt of negative exact value")
            # gcd(p, h) = 1: v^p has a rational h-th root iff v has one
            r = Fraction(iroot(v.numerator, h), iroot(v.denominator, h))
            if r ** h != v:
                return NotImplemented
            r **= p
            return QuadExact(r) if h == q else QuadExact(0, Fraction(1, r.denominator),
                                                         r.numerator * r.denominator)

        def op(ivs, digits):
            lo, hi = ivs[0]
            lo, hi = max(lo, 0) ** p, hi ** p  # the true value is >= 0
            return round_out(lo, hi, digits) if q == 1 else nth_root_interval(lo, hi, q, digits)

        return CertifiedReal.node((self,), GUARD, op, exact_op)

    # -- comparisons (certified) --------------------------------------------

    def compare(self, other, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Optional[int]:
        """Sign of self - other, or None when not resolvable (a genuine tie
        or precision exhaustion on inexact operands)."""
        return (self - other).sign_soft(ctx)

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

