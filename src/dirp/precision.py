"""Precision policy and exact interval helpers on top of Fraction.

All rigorous enclosures in the toolkit are pairs of Fractions (lo, hi)
with the true value guaranteed inside.  Endpoints are rounded outward to
a decimal grid after each operation so denominators stay bounded.
read_ratio is the one reader of rational text, and to_fraction reads
with it any str argument that a library function takes as a number.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from decimal import (MAX_EMAX, MIN_EMIN, ROUND_CEILING, ROUND_HALF_EVEN, Decimal,
                     localcontext)
from fractions import Fraction
from typing import Iterable, Iterator


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision (decimal digits) and the hard cap for refinement."""

    working_digits: int = 80
    max_digits: int = 100_000

    def __post_init__(self):
        if self.working_digits < 30 or self.max_digits < 30:
            raise ValueError("working_digits and max_digits must be >= 30")
        if self.working_digits > self.max_digits:
            raise ValueError("working_digits must not exceed max_digits")

    def digit_schedule(self) -> Iterator[int]:
        """The precisions a refinement asks for: working_digits, doubling
        while below max_digits, then max_digits itself."""
        digits = self.working_digits
        while digits < self.max_digits:
            yield digits
            digits *= 2
        yield self.max_digits


DEFAULT_CONTEXT = PrecisionContext()


def round_out(lo: Fraction, hi: Fraction, digits: int) -> tuple[Fraction, Fraction]:
    """Round an interval outward onto the 10^-digits grid."""
    s = 10 ** digits
    return (Fraction(lo.numerator * s // lo.denominator, s),
            Fraction(-(-hi.numerator * s // hi.denominator), s))


def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, by Newton iteration on ints."""
    if n < 0:
        raise ValueError("iroot of negative number")
    if k < 1:
        raise ValueError("root order must be >= 1")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    # start just above the float root; Newton from above returns the floor
    t = math.log2(n) / k
    e = max(0, math.floor(t) - 52)
    x = (int(math.exp2(t - e) * (1 + 2 ** -30)) + 1) << e
    if x ** k <= n:
        x = 1 << -(-n.bit_length() // k)  # > true root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    return x


def nth_root_interval(lo: Fraction, hi: Fraction, k: int, digits: int) -> tuple[Fraction, Fraction]:
    """Enclosure of [lo, hi] ** (1/k) for 0 <= lo <= hi, rounded outward
    onto the 10^-digits grid."""
    s = 10 ** digits
    sk = s ** k
    a = iroot((lo.numerator * sk) // lo.denominator, k)
    t = -((-hi.numerator * sk) // hi.denominator)  # ceil(hi * s^k)
    b = iroot(t, k)
    if b ** k < t:
        b += 1
    return (Fraction(a, s), Fraction(b, s))


def mul_interval(a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction],
                 digits: int) -> tuple[Fraction, Fraction]:
    """[a] * [b] rounded outward onto the 10^-digits grid: the least floor
    and the greatest ceiling of the four endpoint products."""
    s = 10 ** digits
    grid = [(x.numerator * y.numerator * s, x.denominator * y.denominator)
            for x in a for y in b]
    return (Fraction(min(n // d for n, d in grid), s),
            Fraction(max(-(-n // d) for n, d in grid), s))


def sum_interval(intervals: Iterable[tuple[Fraction, Fraction]],
                 digits: int) -> tuple[Fraction, Fraction]:
    """The exact sum of the intervals, rounded outward onto the 10^-digits
    grid once."""
    lo = hi = Fraction(0)
    for term_lo, term_hi in intervals:
        lo, hi = lo + term_lo, hi + term_hi
    return round_out(lo, hi, digits)


def fraction_to_decimal_str(x: Fraction, sig: int, rounding=ROUND_HALF_EVEN) -> str:
    """Deterministic decimal string with `sig` significant digits."""
    with localcontext() as dctx:
        dctx.prec = max(sig, 1)
        dctx.rounding = rounding
        d = Decimal(x.numerator) / Decimal(x.denominator)
    return str(d)


def short_str(x: Fraction) -> str:
    """str(x) when its numerator and denominator have at most 20 digits,
    else about 20 significant digits of x as a Decimal string, from its
    leading 100 bits: a message that quotes a number never meets the integer digit
    limit, and costs about the same at any size."""
    n, d = x.numerator, x.denominator
    if abs(n) < 10 ** 20 and d < 10 ** 20:
        return str(x)
    e = abs(n).bit_length() - d.bit_length() - 100
    q = (n >> e) // d if e >= 0 else (n << -e) // d     # x = q * 2**e to 2**-98
    with localcontext() as dctx:
        dctx.prec, dctx.Emax, dctx.Emin = 30, MAX_EMAX, MIN_EMIN
        v = Decimal(q) * Decimal(2) ** e
        dctx.prec = 20
        return str(+v)


def fraction_to_decimal_str_up(x: Fraction, sig: int) -> str:
    """Decimal string rounded away from zero (for radii: never understate)."""
    if x < 0:
        raise ValueError("radius must be nonnegative")
    return fraction_to_decimal_str(x, sig, rounding=ROUND_CEILING)


# the shapes to_json writes: an ASCII decimal without exponent, or p/q
_PLAIN = re.compile(r"(-?)([0-9]+)(?:\.([0-9]+)|/([0-9]+))?")
# the exponent of an E-form, of which Fraction forms 10**|exponent|
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")


def read_ratio(text: str) -> tuple[int, int]:
    """Rational text as (numerator, denominator) in lowest terms, in the
    grammar of Fraction(text) and with its errors.  The shapes to_json
    writes are read in integers, and an exponent above
    sys.get_int_max_str_digits() (0 sets no bound) raises ValueError before
    any power of ten is formed."""
    m = _PLAIN.fullmatch(text)
    if m is None:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        e = _EXPONENT.search(text) if limit else None
        if e is not None and abs(int(e[1])) > limit:
            raise ValueError(f"exponent magnitude exceeds the integer digit limit {limit}")
        f = Fraction(text)
        return f.numerator, f.denominator
    sign, whole, frac, den = m.groups()
    if den is not None:
        n, d = int(whole), int(den)
        if d == 0:
            raise ZeroDivisionError(f"Fraction({n}, 0)")
    elif frac is not None:
        d = 10 ** len(frac)
        n = int(whole) * d + int(frac)
    else:
        n = int(whole)
        return (-n if sign else n), 1
    g = math.gcd(n, d)
    return (-n if sign else n) // g, d // g


def to_fraction(x) -> Fraction:
    """x as a Fraction: a str is read by read_ratio, with its exponent
    bound, and anything else goes through Fraction(x)."""
    if isinstance(x, str):
        return Fraction(*read_ratio(x))
    return Fraction(x)
