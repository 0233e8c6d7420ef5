"""Direction grammar, constants and inner products."""

from fractions import Fraction

import mpmath
import pytest

from dirp.constants import e_cr, log2_cr, pi_cr
from dirp.directions import (inner_product, liouville_constant, make_direction,
                             parse_direction, parse_entry)
from dirp.errors import DimensionMismatch, ParseError
from dirp.quadratic import GOLDEN_RATIO, SQRT2, QuadExact


def mpf_to_frac(v) -> Fraction:
    from mpmath.libmp import to_rational
    p, q = to_rational(v._mpf_)
    return Fraction(int(p), int(q))


def contains_mp(cr, mp_value, digits=50):
    lo, hi = cr.enclosure(digits)
    v = mpf_to_frac(mp_value)
    # pad by the binary representation error of mp_value itself
    pad = Fraction(1, 10 ** (mpmath.mp.dps - 2))
    return lo - pad <= v <= hi + pad


class TestGrammar:
    def test_rational(self):
        assert parse_entry("rat:3/2").exact.as_fraction() == Fraction(3, 2)
        assert parse_entry("7").exact.as_fraction() == 7

    def test_quadratic(self):
        assert parse_entry("quad:(1+sqrt5)/2").exact == GOLDEN_RATIO
        assert parse_entry("quad:sqrt2").exact == SQRT2
        assert parse_entry("quad:(3-2*sqrt2)/1").exact.sign() == 1

    @pytest.mark.parametrize("token, value", [
        ("quad:-sqrt2", -SQRT2),
        ("quad:-3*sqrt2/2", QuadExact(0, Fraction(-3, 2), 2)),
        ("quad:(0-sqrt2)", -SQRT2),
        ("quad:sqrt2/-1", -SQRT2),
    ])
    def test_quadratic_negative_b(self, token, value):
        # a leading minus needs no (a- prefix
        assert parse_entry(token).exact == value

    def test_decimal(self):
        x = parse_entry("dec:1.41421356")
        lo, hi = x.enclosure(40)
        assert lo == Fraction("1.41421355") and hi == Fraction("1.41421357")

    def test_finite_cf(self):
        # [1;2,2,2] = 17/12, the fourth convergent of sqrt2
        assert parse_entry("cf:[1,2,2,2]").exact.as_fraction() == Fraction(17, 12)

    def test_constants(self):
        mpmath.mp.dps = 80
        assert contains_mp(parse_entry("const:pi"), mpmath.pi)
        assert contains_mp(parse_entry("const:e"), mpmath.e)
        assert contains_mp(parse_entry("const:log2"), mpmath.log(2))

    def test_vector_form(self):
        a = parse_direction("dir:[1, quad:(1+sqrt5)/2]")
        assert a.dim == 2
        assert a.entries[0].exact.as_fraction() == 1
        assert a.entries[1].exact == GOLDEN_RATIO

    def test_single_entry_is_dim_1(self):
        assert parse_direction("quad:sqrt2").dim == 1

    @pytest.mark.parametrize("bad", [
        "dir:[1,", "quad:sqrt(-2)", "unknown:3", "dec:abc", "cf:[1,x]",
        "const:gamma", "dir:(1,2)", "3.5x", "rat:abc", "rat:1/0", "liouville:x",
        "dec:1/2", "dec:1/0", "quad:--sqrt2", "quad:+sqrt2", "quad:(1 sqrt5)",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_direction(bad)

    def test_bare_binary_float_rejected_in_make_direction(self):
        with pytest.raises(ParseError):
            make_direction([1.5])


class TestConstants:
    @pytest.mark.parametrize("digits", [30, 80, 1000, 3000])
    def test_series_enclosures_match_mpmath(self, digits):
        mpmath.mp.dps = digits + 30
        for cr, ref in ((pi_cr(), mpmath.pi), (e_cr(), mpmath.e),
                        (log2_cr(), mpmath.log(2))):
            lo, hi = cr.enclosure(digits)
            assert contains_mp(cr, ref, digits)
            assert hi - lo < Fraction(1, 10 ** digits)

    def test_constant_enclosures(self):
        mpmath.mp.dps = 120
        assert contains_mp(pi_cr(), mpmath.pi, 100)
        assert contains_mp(e_cr(), mpmath.e, 100)
        assert contains_mp(log2_cr(), mpmath.log(2), 100)


class TestLiouvilleConstant:
    def test_matches_direct_series(self):
        mpmath.mp.dps = 300
        ref = mpmath.fsum(mpmath.mpf(10) ** -mpmath.factorial(n)
                          for n in range(1, 8))
        assert contains_mp(liouville_constant(10), ref, 200)

    def test_other_base(self):
        mpmath.mp.dps = 120
        ref = mpmath.fsum(mpmath.mpf(2) ** -mpmath.factorial(n)
                          for n in range(1, 9))
        assert contains_mp(liouville_constant(2), ref, 80)

    @pytest.mark.parametrize("base", [2, 3, 10, 100])
    def test_resolved_to_the_asked_digits_in_every_base(self, base):
        # the series runs until base^(-n!) drops below 10^-(digits+20)
        mpmath.mp.dps = 200
        ref = mpmath.fsum(mpmath.mpf(base) ** -mpmath.factorial(n) for n in range(1, 7))
        x = liouville_constant(base)
        assert x.width(80) <= Fraction(2, 10 ** 80)
        assert contains_mp(x, ref, 80)

    def test_base_below_two_rejected(self):
        with pytest.raises(ParseError):
            liouville_constant(1)


class TestInnerProduct:
    def test_exact_zero(self):
        a = make_direction([1, 0])
        assert inner_product((0, 5), a).sign() == 0

    def test_quadratic_exact(self):
        a = make_direction([SQRT2, 1])
        ip = inner_product((1, -1), a)
        assert ip.exact == SQRT2 - 1

    def test_skips_zero_components(self):
        a = make_direction([1, "const:e", GOLDEN_RATIO])
        ip = inner_product((2, 0, -1), a)
        assert ip.exact == 2 - GOLDEN_RATIO  # the inexact entry is never touched

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            inner_product((1, 2, 3), make_direction([1, 2]))
