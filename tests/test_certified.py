"""Certified reals and exact quadratic arithmetic."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirp.certified import CertifiedReal, cr_min
from dirp.errors import PrecisionExhausted
from dirp.precision import PrecisionContext
from dirp.quadratic import GOLDEN_RATIO, SQRT2, QuadExact, _extract_square

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
        assert SQRT2.floor() == 1
        assert (SQRT2 * 100).floor() == 141
        assert GOLDEN_RATIO.floor() == 1
        assert (-SQRT2).floor() == -2

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

    def test_extract_square_matches_trial_division_by_every_integer(self):
        rng = random.Random(1504)
        radicands = list(range(3000))
        radicands += [rng.randrange(1, 10 ** 5) ** 2 * rng.randrange(1, 10 ** 4)
                      for _ in range(300)]
        radicands += [rng.randrange(1, 10 ** 40) for _ in range(50)]
        radicands += [9973 ** 2 * 6, 10007 ** 2 * 6, (2 * 3 * 5 * 7) ** 4 * 11]
        for d in radicands:
            assert _extract_square(d) == _extract_square_reference(d), d

    def test_enclosure_brackets_true_value(self):
        mpmath.mp.dps = 60
        lo, hi = SQRT2.enclosure(40)
        s = mpmath.sqrt(2)
        assert mpmath.mpf(lo.numerator) / lo.denominator <= s
        assert mpmath.mpf(hi.numerator) / hi.denominator >= s

    def test_incompatible_fields_fall_back(self):
        assert SQRT2.__add__(QuadExact(0, 1, 3)) is NotImplemented


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
        v = CertifiedReal.from_quad(SQRT2).pow_int(4)
        assert v.exact == QuadExact(4)

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

    def test_decimal_literal_interval_is_one_ulp(self):
        x = CertifiedReal.from_decimal_literal("1.414")
        lo, hi = x.enclosure(80)
        assert lo == Fraction("1.413") and hi == Fraction("1.415")

    def test_compare_and_min(self):
        a = CertifiedReal.from_quad(SQRT2)
        b = CertifiedReal.from_rational(Fraction(3, 2))
        assert a.compare(b) == -1
        assert cr_min(a, b) is a

    def test_float_rejection(self):
        with pytest.raises(TypeError):
            CertifiedReal.from_rational(1) + 0.5

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
