"""Certified reals and exact quadratic arithmetic."""

import itertools
import math
import random
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirp import certified
from dirp.certified import GUARD, CertifiedReal
from dirp.constants import e_cr
from dirp.diophantine import cf_expand
from dirp.directions import liouville_constant, parse_direction
from dirp.errors import PrecisionExhausted
from dirp.precision import PrecisionContext, iroot, nth_root_interval, round_out
from dirp.quadratic import GOLDEN_RATIO, SQRT2, QuadExact, common_field
from dirp.spectral import TrigPoly, freq_norm_cr, multiplier_norm, poincare_ratio

POLY60 = Path(__file__).resolve().parent / "data" / "poly60.json"


def _extract_square_reference(d: int) -> tuple[int, int]:
    """Square extraction by trial division with every integer up to 10^4."""
    r = math.isqrt(d)
    if r * r == d:
        return r, 1
    s, m = 1, d
    f = 2
    while f * f <= m and f <= 10_000:
        while m % (f * f) == 0:
            m //= f * f
            s *= f
        f += 1
    r = math.isqrt(m)
    if r * r == m:
        return s * r, 1
    return s, m


rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=997)


class TestQuadExact:
    def test_golden_ratio_identity(self):
        assert GOLDEN_RATIO * GOLDEN_RATIO == GOLDEN_RATIO + 1

    def test_sqrt2_square(self):
        assert SQRT2 * SQRT2 == QuadExact(2)

    def test_square_extraction(self):
        assert QuadExact(0, 1, 8) == QuadExact(0, 2, 2)
        assert QuadExact(0, 1, 49) == QuadExact(7)
        assert QuadExact(0, 1, 49).is_rational

    def test_sign_with_cancellation(self):
        # 1 - phi < 0 even though both components are positive/negative mixes
        assert (QuadExact(1) - GOLDEN_RATIO).sign() == -1
        assert (GOLDEN_RATIO - 1).sign() == 1
        assert (SQRT2 - QuadExact(Fraction(141421356, 10 ** 8))).sign() == 1
        assert (SQRT2 - QuadExact(Fraction(141421357, 10 ** 8))).sign() == -1

    def test_floor(self):
        assert cf_expand(SQRT2, 1).quotients[0] == 1
        assert cf_expand(SQRT2 * 100, 1).quotients[0] == 141
        assert cf_expand(GOLDEN_RATIO, 1).quotients[0] == 1
        assert cf_expand(-SQRT2, 1).quotients[0] == -2

    def test_floor_brackets_exactly(self):
        # f <= x < f + 1, decided through sign() rather than the floor itself
        rng = random.Random(29)
        for _ in range(500):
            x = QuadExact(Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 4)),
                          Fraction(rng.randint(-999, 999), rng.randint(1, 999)),
                          rng.choice([2, 3, 5, 8, 12, 10007 ** 2 * 2, rng.randrange(2, 10 ** 30)]))
            f = cf_expand(x, 1).quotients[0]
            assert (x - f).sign() >= 0 and (x - (f + 1)).sign() < 0, x
        # 99 sqrt2 - 140 = 0.00714..., 70 sqrt2 = 98.9949...
        assert cf_expand(SQRT2 * 99 - 140, 1).quotients[0] == 0
        assert cf_expand(140 - SQRT2 * 99, 1).quotients[0] == -1
        assert cf_expand(SQRT2 * 70, 1).quotients[0] == 98

    def test_division(self):
        x = (QuadExact(1) + SQRT2) / (QuadExact(3) - SQRT2)
        assert x * (QuadExact(3) - SQRT2) == QuadExact(1) + SQRT2

    def test_hashable_state(self):
        seen = {GOLDEN_RATIO: 0}
        assert (QuadExact(Fraction(1, 2), Fraction(1, 2), 5)) in seen

    def test_rational_value_hashes_like_its_fraction(self):
        for q, x in ((QuadExact(3), 3), (QuadExact(Fraction(1, 2)), Fraction(1, 2)),
                     (QuadExact(0, 1, 49), 7), (QuadExact(0, Fraction(1, 2), 4), 1)):
            assert q == x
            assert hash(q) == hash(x)
        assert {Fraction(1, 2): "half"}[QuadExact(Fraction(1, 2))] == "half"
        assert QuadExact(3) in {3}
        assert len({QuadExact(Fraction(3, 4)), Fraction(3, 4)}) == 1

    def test_square_factors_give_one_field(self):
        # d1, d2 name one field iff d1*d2 is a square; nothing is factored,
        # so square factors far above any trial-division bound are seen too
        rng = random.Random(1504)
        big_primes = [10007, 99991, 1000003, 2 ** 61 - 1]
        cases = [(rng.choice([-3, -1, 1, Fraction(2, 7), 5]),
                  rng.choice(big_primes + [rng.randrange(2, 10 ** 6)]),
                  rng.randrange(2, 10 ** 5)) for _ in range(200)]
        cases += [(1, 10007, 2), (Fraction(-1, 3), 9973 * 10007, 6)]
        for b, s, m in cases:
            x, y = QuadExact(0, b, s * s * m), QuadExact(0, b * s, m)
            assert x == y and y == x, (b, s, m)
            assert hash(x) == hash(y), (b, s, m)
            assert (CertifiedReal.from_quad(x) - CertifiedReal.from_quad(y)).sign() == 0
            # the trial-division oracle's reduction names the same value
            r, rest = _extract_square_reference(s * s * m)
            assert x == QuadExact(0, b * r, rest), (b, s, m)
            assert x != QuadExact(0, b * s + 1, m)
        assert SQRT2.__add__(QuadExact(0, 1, 3)) is NotImplemented

    def test_rebase_onto_the_smaller_radicand(self):
        sqrt8, sqrt18 = QuadExact(0, 1, 8), QuadExact(0, 1, 18)
        assert (sqrt8.d, sqrt8.b) == (8, 1)
        total = sqrt8 + SQRT2
        assert (total.d, total.b) == (2, 3)
        assert sqrt8 * SQRT2 == 4 and (sqrt8 * SQRT2).is_rational
        assert sqrt18 / sqrt8 == Fraction(3, 2)
        assert (sqrt18 - sqrt8 - SQRT2).sign() == 0
        assert (sqrt18 - QuadExact(Fraction(42426, 10 ** 4))).sign() == 1
        assert len({sqrt8, QuadExact(0, 2, 2), QuadExact(0, -2, 2)}) == 2
        # 1, sqrt18 = (3/2) sqrt8 and 3 + 5 sqrt8, over the common denominator 2
        assert common_field([QuadExact(1), sqrt18, QuadExact(3, 5, 8)]) == (
            8, 2, [2, 0, 6], [0, 3, 10])
        assert common_field([sqrt8, QuadExact(0, 1, 12)]) is None
        assert common_field([SQRT2, None]) is None and common_field([None]) is None
        with pytest.raises(ValueError):
            QuadExact(0, 1, -2)

    def test_enclosure_brackets_true_value(self):
        mpmath.mp.dps = 60
        lo, hi = SQRT2.enclosure(40)
        s = mpmath.sqrt(2)
        assert mpmath.mpf(lo.numerator) / lo.denominator <= s
        assert mpmath.mpf(hi.numerator) / hi.denominator >= s

    def test_incompatible_fields_fall_back(self):
        assert SQRT2.__add__(QuadExact(0, 1, 3)) is NotImplemented

    @pytest.mark.parametrize("op", ["<", "<="])
    def test_cross_field_ordering_is_not_supported(self, op):
        with pytest.raises(TypeError, match=f"'{op}' not supported"):
            eval(f"a {op} b", {"a": SQRT2, "b": QuadExact(0, 1, 3)})
        assert eval(f"a {op} b", {"a": SQRT2, "b": QuadExact(0, 1, 8)})  # sqrt8 = 2 sqrt2


class TestCertifiedReal:
    @given(a=rationals, b=rationals)
    @settings(max_examples=60, deadline=None)
    def test_rational_field_ops_match_fraction(self, a, b):
        x = CertifiedReal.from_rational(a)
        y = CertifiedReal.from_rational(b)
        assert (x + y).exact.as_fraction() == a + b
        assert (x - y).exact.as_fraction() == a - b
        assert (x * y).exact.as_fraction() == a * b
        if b != 0:
            assert (x / y).exact.as_fraction() == a / b

    @given(a=st.fractions(min_value=Fraction(0), max_value=Fraction(10 ** 6),
                          max_denominator=10 ** 4))
    @settings(max_examples=40, deadline=None)
    def test_sqrt_squares_back(self, a):
        r = CertifiedReal.from_rational(a).sqrt()
        sq = r * r
        diff = sq - a
        lo, hi = diff.enclosure(60)
        assert -Fraction(1, 10 ** 55) <= lo and hi <= Fraction(1, 10 ** 55)

    def test_sqrt_exact_rational(self):
        r = CertifiedReal.from_rational(Fraction(9, 4)).sqrt()
        assert r.exact == QuadExact(Fraction(3, 2))

    def test_sqrt_exact_quadratic(self):
        r = CertifiedReal.from_rational(2).sqrt()
        assert r.exact == SQRT2

    def test_half_integer_power_exact(self):
        v = CertifiedReal.from_rational(Fraction(9, 4)).pow_frac(Fraction(3, 2))
        assert v.exact == QuadExact(Fraction(27, 8))

    def test_integer_power_exact(self):
        v = CertifiedReal.from_quad(SQRT2).pow_frac(4)
        assert v.exact == QuadExact(4)

    @given(r=st.fractions(min_value=Fraction(0), max_value=Fraction(50), max_denominator=50),
           p=st.integers(0, 5), q=st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_rational_root_of_a_perfect_power_is_exact(self, r, p, q):
        assert CertifiedReal.from_rational(r ** q).pow_frac(Fraction(p, q)).exact == r ** p

    def test_higher_roots_exact_only_when_rational_or_quadratic(self):
        def root(x, exponent):
            return CertifiedReal.from_rational(x).pow_frac(exponent).exact
        assert root(16, Fraction(1, 4)) == 2 and root(1, Fraction(1, 4)) == 1
        assert root(4, Fraction(1, 4)) == SQRT2
        assert root(Fraction(27, 8), Fraction(2, 3)) == Fraction(9, 4)
        assert root(2, Fraction(1, 3)) is None
        assert root(Fraction(1, 2), Fraction(1, 4)) is None  # sqrt(1/sqrt2) is not quadratic

    def test_root_test_takes_the_root_of_the_base_not_of_its_power(self, monkeypatch):
        # |(30, 40)|^(9999/10000) = 2500^(9999/20000): the 10000th root is
        # taken of 2500, never of 2500^9999, a number of some 34000 digits
        seen = []
        monkeypatch.setattr(certified, "iroot", lambda n, k: seen.append(n) or iroot(n, k))
        assert freq_norm_cr((30, 40), Fraction(9999, 10000)).exact is None
        assert seen and max(seen) == 2500

    def test_high_order_root_takes_a_few_newton_steps(self):
        # 25^(999/2000) roots an 80000-digit integer at order 1000; Newton
        # from a power of two above the root took some 26 s, from the float
        # root a fraction of a second
        start = time.perf_counter()
        value = freq_norm_cr((3, 4), Fraction(999, 1000)).to_json(80)
        assert time.perf_counter() - start < 2
        mpmath.mp.dps = 100
        assert abs(mpmath.mpf(value["value"]) - mpmath.mpf(5) ** (mpmath.mpf(999) / 1000)) < 1e-79

    def test_sign_refinement_resolves_tiny_values(self):
        tiny = Fraction(1, 10 ** 50)

        def fn(digits):
            pad = Fraction(1, 10 ** digits)
            return (tiny - pad, tiny + pad)

        x = CertifiedReal.from_fn(fn)
        assert x.sign(PrecisionContext(working_digits=30, max_digits=1000)) == 1

    def test_sign_exhaustion_on_frozen_interval(self):
        x = CertifiedReal.from_decimal_literal("0.0")
        with pytest.raises(PrecisionExhausted):
            x.sign()
        assert x.sign_soft() is None

    def test_sign_exhaustion_respects_cap(self):
        tiny = Fraction(1, 10 ** 200)

        def fn(digits):
            pad = Fraction(1, 10 ** digits)
            return (tiny - pad, tiny + pad)

        x = CertifiedReal.from_fn(fn)
        with pytest.raises(PrecisionExhausted):
            x.sign(PrecisionContext(working_digits=30, max_digits=100))

    def test_sign_refines_to_max_digits_itself(self):
        # decided at 1000 digits but not at 640: doubling from 80 must end on
        # max_digits, not stop at the last doubling below it
        asked = []
        x = _rounded_leaf(Fraction(1, 10 ** 900), asked)
        assert x.sign(PrecisionContext(working_digits=80, max_digits=1000)) == 1
        assert asked == [80, 160, 320, 640, 1000]

    @pytest.mark.parametrize("working,cap,schedule", [
        (80, 1000, [80, 160, 320, 640, 1000]),
        (80, 640, [80, 160, 320, 640]),
        (80, 80, [80]),
        (30, 100_000, [30 * 2 ** k for k in range(12)] + [100_000]),
    ])
    def test_digit_schedule_ends_on_max_digits(self, working, cap, schedule):
        ctx = PrecisionContext(working_digits=working, max_digits=cap)
        assert list(ctx.digit_schedule()) == schedule

    def test_decimal_literal_interval_is_one_ulp(self):
        x = CertifiedReal.from_decimal_literal("1.414")
        lo, hi = x.enclosure(80)
        assert lo == Fraction("1.413") and hi == Fraction("1.415")

    def test_compare_and_min(self):
        a = CertifiedReal.from_quad(SQRT2)
        b = CertifiedReal.from_rational(Fraction(3, 2))
        assert a.compare(b) == -1

    def test_float_rejection(self):
        with pytest.raises(TypeError, match="int, Fraction, QuadExact or CertifiedReal"):
            CertifiedReal.from_rational(1) + 0.5
        with pytest.raises(TypeError):
            CertifiedReal.from_rational(1) + "0.5"

    @pytest.mark.parametrize("build", [
        lambda: CertifiedReal.from_rational(0.1),
        lambda: CertifiedReal.from_rational(np.float64(0.5)),
        lambda: QuadExact(0.1),
        lambda: QuadExact(0, 0.5, 2),
        lambda: QuadExact(0, 1, 2.5),
        lambda: multiplier_norm(TrigPoly(2, {(1, 0): 1}), lambda k: 0.1),
    ], ids=["from_rational", "from_rational-float64", "quad-a", "quad-b", "quad-d",
            "multiplier_norm"])
    def test_binary_floats_never_become_exact_values(self, build):
        with pytest.raises(TypeError, match="floats are rejected"):
            build()

    def test_exact_values_still_take_int_fraction_and_str(self):
        assert CertifiedReal.from_rational("0.1").exact == Fraction(1, 10)
        assert CertifiedReal.from_rational(Fraction(1, 10)).exact == QuadExact("1/10")
        assert QuadExact(3, 1, 2) == QuadExact(3, Fraction(1), 2)

    def test_division_by_certified_zero(self):
        with pytest.raises(ZeroDivisionError):
            CertifiedReal.from_rational(1) / CertifiedReal.from_rational(0)

    def test_composite_enclosure_vs_mpmath(self):
        # (sqrt2 + sqrt5/3)^2 checked against an independent evaluation
        mpmath.mp.dps = 80
        x = (CertifiedReal.from_quad(SQRT2)
             + CertifiedReal.from_quad(QuadExact(0, Fraction(1, 3), 5)))
        y = x * x
        lo, hi = y.enclosure(60)
        ref = (mpmath.sqrt(2) + mpmath.sqrt(5) / 3) ** 2
        assert mpmath.mpf(lo.numerator) / lo.denominator <= ref
        assert mpmath.mpf(hi.numerator) / hi.denominator >= ref
        assert hi - lo < Fraction(1, 10 ** 55)


def _rounded_leaf(x: Fraction, asked: list | None = None) -> CertifiedReal:
    """A refinable inexact leaf for x: [x] rounded out to the 10^-digits grid."""
    def fn(digits):
        if asked is not None:
            asked.append(digits)
        return round_out(x, x, digits)
    return CertifiedReal.from_fn(fn)


# (kind, value): exact rational, refinable leaf, or a decimal literal m * 10^-e
_sum_terms = st.one_of(
    st.tuples(st.just("exact"), rationals),
    st.tuples(st.just("refinable"), rationals),
    st.tuples(st.just("dec"), st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(0, 120))),
)


class TestCertifiedSum:
    @given(terms=st.lists(_sum_terms, max_size=40), digits=st.sampled_from([30, 80, 150]))
    @settings(max_examples=80, deadline=None)
    def test_enclosure_contains_the_exact_sum(self, terms, digits):
        parts, total, frozen = [], Fraction(0), Fraction(0)
        for kind, value in terms:
            if kind == "exact":
                parts.append(CertifiedReal.from_rational(value))
            elif kind == "refinable":
                parts.append(_rounded_leaf(value))
            else:
                m, e = value
                parts.append(CertifiedReal.from_decimal_literal(f"{m}E-{e}"))
                value = Fraction(m, 10 ** e)
                frozen += 2 * Fraction(1, 10 ** e)   # a literal is 2 ulp wide
            total += value
        s = CertifiedReal.sum(parts)
        lo, hi = s.enclosure(digits)
        assert lo <= total <= hi
        assert hi - lo <= 2 * Fraction(1, 10 ** digits) + frozen
        assert s.refinable == all(kind != "dec" for kind, _ in terms)
        assert (s.exact is not None) == all(kind == "exact" for kind, _ in terms)

    def test_exact_in_one_field(self):
        s = CertifiedReal.sum([SQRT2, 1, QuadExact(0, 3, 8), Fraction(1, 2)])
        assert s.exact == QuadExact(Fraction(3, 2), 7, 2)
        assert CertifiedReal.sum([]).exact == QuadExact(0)

    def test_inexact_across_two_fields(self):
        s = CertifiedReal.sum([SQRT2, QuadExact(0, 1, 3), 1])
        assert s.exact is None
        mpmath.mp.dps = 100
        ref = mpmath.sqrt(2) + mpmath.sqrt(3) + 1
        lo, hi = s.enclosure(80)
        assert mpmath.mpf(lo.numerator) / lo.denominator <= ref
        assert mpmath.mpf(hi.numerator) / hi.denominator >= ref
        assert hi - lo <= Fraction(2, 10 ** 80)

    def test_decimal_straddle_still_raises(self):
        s = CertifiedReal.sum([CertifiedReal.from_decimal_literal("1.5"),
                               _rounded_leaf(Fraction(1, 3)), Fraction(-11, 6)])
        assert not s.refinable
        with pytest.raises(PrecisionExhausted):
            s.sign()

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_leaves_are_asked_for_log_n_guard_digits(self, n):
        asked = []
        s = CertifiedReal.sum(_rounded_leaf(Fraction(1, 3), asked) for _ in range(n))
        lo, hi = s.enclosure(80)
        assert lo <= Fraction(n, 3) <= hi
        assert len(asked) == n
        assert max(asked) <= 80 + GUARD + 4

    def test_long_poincare_ratio_stays_near_working_precision(self, monkeypatch):
        # a chain of 60 additions asked e for ~750 digits at 80
        poly = TrigPoly.from_json(POLY60.read_text())
        asked = []
        enclosure = CertifiedReal.enclosure

        def recording(self, digits):
            asked.append(digits)
            return enclosure(self, digits)

        monkeypatch.setattr(CertifiedReal, "enclosure", recording)
        ratio = poincare_ratio(poly, parse_direction("dir:[1, const:e]"), 1, 1)
        ratio.to_json(80)
        assert 80 <= max(asked) <= 200


# -- every composite is one node ------------------------------------------------
#
# The oracles are the closures that negation, abs, division and pow_frac
# built for themselves before CertifiedReal.node, and addition as _combine
# built it; subtraction was the addition of a negation.  Each operator must
# give the same enclosure at every precision and the same refinable flag,
# and pow_frac the same exact values as its former exact branches.

def _closure(fn, *operands) -> CertifiedReal:
    return CertifiedReal(fn=fn, refinable=all(o.refinable for o in operands))


def neg_oracle(a):
    def fn(digits):
        lo, hi = a.enclosure(digits)
        return (-hi, -lo)
    return _closure(fn, a)


def add_oracle(a, b):
    def fn(digits):
        ia, ib = a.enclosure(digits + GUARD), b.enclosure(digits + GUARD)
        return round_out(ia[0] + ib[0], ia[1] + ib[1], digits)
    return _closure(fn, a, b)


def abs_oracle(a):
    def fn(digits):
        lo, hi = a.enclosure(digits)
        if lo >= 0:
            return (lo, hi)
        if hi <= 0:
            return (-hi, -lo)
        return (Fraction(0), max(-lo, hi))
    return _closure(fn, a)


def div_oracle(a, b):
    def fn(digits):
        d = digits + GUARD
        ia, ib = a.enclosure(d), b.enclosure(d)
        while ib[0] <= 0 <= ib[1]:
            d *= 2
            ib = b.enclosure(d)
        inv = (Fraction(1) / ib[1], Fraction(1) / ib[0])
        products = [x * y for x in ia for y in inv]
        return round_out(min(products), max(products), digits)
    return _closure(fn, a, b)


def pow_oracle(a, exponent):
    # the power and its root onto the digits + GUARD grid, then rounded
    # again to digits: the same endpoints as one rounding to digits
    p, q = exponent.numerator, exponent.denominator

    def fn(digits):
        lo, hi = a.enclosure(digits + GUARD)
        lo, hi = max(lo, 0) ** p, hi ** p
        if q > 1:
            lo, hi = nth_root_interval(lo, hi, q, digits + GUARD)
        return round_out(lo, hi, digits)
    return _closure(fn, a)


def exact_pow_oracle(x: QuadExact, exponent: Fraction) -> QuadExact:
    if exponent.denominator == 1:
        out = QuadExact(1)
        for _ in range(exponent.numerator):
            out = out * x
        return out
    v = x.as_fraction() ** exponent.numerator
    return QuadExact(0, Fraction(1, v.denominator), v.numerator * v.denominator)


def _nodes_made(monkeypatch, build) -> int:
    """How many CertifiedReal objects build() constructs."""
    made = []
    init = CertifiedReal.__init__

    def counting(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CertifiedReal, "__init__", counting)
    build()
    return len(made)


def _padded_leaf(x: Fraction) -> CertifiedReal:
    """A refinable leaf [x - 10^-digits, x + 10^-digits]."""
    return CertifiedReal.from_fn(lambda digits: (x - Fraction(1, 10 ** digits),
                                                 x + Fraction(1, 10 ** digits)))


# sqrt2 less its first 50 decimals: in (0, 10^-50), and its enclosure at
# 30 + GUARD digits straddles 0, so a division refines the divisor
_P = math.isqrt(2 * 10 ** 100)
TINY = QuadExact(Fraction(-_P, 10 ** 50), 1, 2)

# fresh operands for each side, so no enclosure cache is shared
OPERANDS = {
    "rational": lambda: CertifiedReal.from_rational(Fraction(-7, 3)),
    "quadratic": lambda: CertifiedReal.from_quad(QuadExact(Fraction(1, 3), -2, 5)),
    "leaf": lambda: _rounded_leaf(Fraction(22, 7)),
    "negative leaf": lambda: _rounded_leaf(Fraction(-5, 11)),
    "e": e_cr,
    "liouville": lambda: liouville_constant(3),
    "decimal": lambda: CertifiedReal.from_decimal_literal("-1.25"),
    "decimal across 0": lambda: CertifiedReal.from_decimal_literal("0.0"),
    "leaf across 0": lambda: _padded_leaf(Fraction(1, 10 ** 60)),
}
EXACT = {"rational", "quadratic"}
EXACT_POWER_BASES = (QuadExact(Fraction(-7, 3)), QuadExact(Fraction(1, 3), -2, 5),
                     GOLDEN_RATIO, SQRT2, QuadExact(0), TINY)
INEXACT = sorted(set(OPERANDS) - EXACT)
NODE_DIGITS = (30, 80, 150)
POWERS = [Fraction(2), Fraction(3, 2), Fraction(1, 3), Fraction(7, 2),
          Fraction(1, 4), Fraction(5, 6), Fraction(999, 1000)]
# an order-1000 root at 150 digits divides integers of 300000 digits, a
# second or two a side, so 999/1000 runs on a refinable constant and on a
# leaf across 0 (the clip) only
POWER_CASES = [(a, x) for a in ("leaf", "e", "liouville", "decimal across 0", "leaf across 0")
               for x in POWERS if x.denominator < 1000 or a in ("e", "leaf across 0")]


def _assert_same(node, oracle):
    assert node.exact is None and node.refinable == oracle.refinable
    for digits in NODE_DIGITS:
        assert node.enclosure(digits) == oracle.enclosure(digits), digits


class TestNodeOperators:
    @pytest.mark.parametrize("a, b", [(a, b) for a, b in itertools.product(OPERANDS, repeat=2)
                                      if not {a, b} <= EXACT])
    def test_subtraction_adds_the_negation(self, a, b):
        x, y = OPERANDS[a](), OPERANDS[b]()
        _assert_same(x - y, add_oracle(OPERANDS[a](), neg_oracle(OPERANDS[b]())))

    @pytest.mark.parametrize("a", INEXACT)
    def test_reflected_subtraction(self, a):
        three_sevenths = CertifiedReal.from_rational(Fraction(3, 7))
        _assert_same(Fraction(3, 7) - OPERANDS[a](),
                     add_oracle(neg_oracle(OPERANDS[a]()), three_sevenths))

    def test_subtraction_makes_one_node(self, monkeypatch):
        x, y = e_cr(), _rounded_leaf(Fraction(1, 3))
        assert _nodes_made(monkeypatch, lambda: x - y) == 1

    @pytest.mark.parametrize("a", INEXACT)
    def test_negation(self, a):
        _assert_same(-OPERANDS[a](), neg_oracle(OPERANDS[a]()))

    @pytest.mark.parametrize("a", INEXACT)
    def test_abs_on_both_signs_and_across_zero(self, a):
        _assert_same(abs(OPERANDS[a]()), abs_oracle(OPERANDS[a]()))

    def test_abs_operands_cover_every_branch(self):
        signs = {name: OPERANDS[name]().enclosure(NODE_DIGITS[0]) for name in INEXACT}
        assert any(lo >= 0 for lo, _ in signs.values())
        assert any(hi <= 0 for _, hi in signs.values())
        assert any(lo < 0 < hi for lo, hi in signs.values())

    @pytest.mark.parametrize("a, b", [
        (a, b) for a in INEXACT + ["rational"]
        for b in ("tiny", "negative leaf", "e", "decimal", "quadratic")
        if a in INEXACT or b not in ("tiny", "quadratic")])
    def test_division(self, a, b):
        def divisor():
            return CertifiedReal.from_quad(TINY) if b == "tiny" else OPERANDS[b]()
        _assert_same(OPERANDS[a]() / divisor(), div_oracle(OPERANDS[a](), divisor()))

    @pytest.mark.parametrize("a, exponent", POWER_CASES,
                             ids=[f"{a}-exponent{POWERS.index(x)}" for a, x in POWER_CASES])
    def test_inexact_power(self, a, exponent):
        _assert_same(OPERANDS[a]().pow_frac(exponent), pow_oracle(OPERANDS[a](), exponent))

    @pytest.mark.parametrize("x, exponent", [
        *((x, Fraction(p)) for x in EXACT_POWER_BASES for p in (2, 5)),
        *((QuadExact(v), Fraction(p, 2)) for v in (Fraction(9, 4), 0, 2, Fraction(1, 3))
          for p in (1, 3))])
    def test_exact_power(self, x, exponent):
        got = CertifiedReal.from_quad(x).pow_frac(exponent).exact
        want = exact_pow_oracle(x, exponent)
        assert (got.a, got.b, got.d) == (want.a, want.b, want.d)

    @pytest.mark.parametrize("x, exponent", [(GOLDEN_RATIO, Fraction(1, 2)),
                                             (SQRT2, Fraction(3, 2)),
                                             (QuadExact(Fraction(9, 4)), Fraction(1, 3))])
    def test_exact_operand_inexact_power(self, x, exponent):
        _assert_same(CertifiedReal.from_quad(x).pow_frac(exponent),
                     pow_oracle(CertifiedReal.from_quad(x), exponent))

    def test_power_shortcuts_and_negative_square_root(self):
        x = e_cr()
        assert x.pow_frac(0).exact == 1 and x.pow_frac(1) is x
        with pytest.raises(ValueError, match="sqrt of negative exact value"):
            CertifiedReal.from_rational(Fraction(-7, 3)).pow_frac(Fraction(3, 2))
        with pytest.raises(ValueError, match="exponent >= 0"):
            x.pow_frac(-1)

    def test_power_makes_one_node(self, monkeypatch):
        x = e_cr()
        assert _nodes_made(monkeypatch, lambda: x.pow_frac(Fraction(3, 2))) == 1

    def test_tiny_divisor_straddles_zero_at_the_guard(self):
        lo, hi = TINY.enclosure(NODE_DIGITS[0] + GUARD)
        assert lo <= 0 <= hi
        assert 0 < TINY.sign()


class TestSignificant:
    def test_rounds_to_nearest(self):
        assert _rounded_leaf(Fraction(2, 3)).significant(5) == Decimal("0.66667")
        assert CertifiedReal.from_rational(Fraction(1, 2)).significant(20) == Decimal("0.5")

    def test_refines_past_the_working_precision(self):
        tiny = Fraction(10 ** 20 + 1, 3 * 10 ** 520)
        assert _rounded_leaf(tiny).significant(4) == Decimal("3.333E-501")
        with pytest.raises(PrecisionExhausted):
            _rounded_leaf(tiny).significant(4, PrecisionContext(max_digits=400))

    def test_liouville_refines_through_a_still_enclosure(self):
        # sum 3^-n! adds no term between 80 and 320 digits, yet it refines
        mpmath.mp.dps = 1200
        exact = mpmath.fsum(mpmath.mpf(3) ** -math.factorial(n) for n in range(1, 8))
        value = liouville_constant(3).significant(400)
        assert len(value.as_tuple().digits) == 400 and value.adjusted() == -1
        assert abs(mpmath.mpf(str(value)) - exact) <= mpmath.mpf(10) ** -400 / 2

    def test_frozen_interval_raises(self):
        with pytest.raises(PrecisionExhausted):
            CertifiedReal.from_decimal_literal("1.5").significant(5)
        assert CertifiedReal.from_decimal_literal("1.55").significant(1) == Decimal("2")
