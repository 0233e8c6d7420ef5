"""The exact interval kernels of dirp.precision against Fraction oracles.

round_out rounds from integer numerators and denominators, mul_interval
takes the least floor and the greatest ceiling of the four endpoint products
on the grid, and sum_interval rounds the exact sum once.  The oracles below
round the exact Fraction result instead: every endpoint must be the same
rational, so every printed digit stays put.  iroot starts Newton at a float
estimate of the root; its oracle starts at a power of two above the root.
"""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirp.precision import (iroot, mul_interval, nth_root_interval, round_out, short_str,
                            sum_interval)


def round_out_oracle(lo, hi, digits):
    s = 10 ** digits
    return (Fraction(math.floor(lo * s), s), Fraction(math.ceil(hi * s), s))


def mul_oracle(a, b, digits):
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return round_out_oracle(min(products), max(products), digits)


def sum_oracle(intervals, digits):
    lo = hi = Fraction(0)
    for tlo, thi in intervals:
        lo += tlo
        hi += thi
    return round_out_oracle(lo, hi, digits)


def iroot_oracle(n, k):
    """floor(n ** (1/k)) by Newton from 2^ceil(bits/k), above the root."""
    if n == 0 or k == 1:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    return x


def _same(got, want):
    """Equal rationals, returned as Fractions (so in lowest terms)."""
    assert all(type(x) is Fraction for x in got)
    assert got == want


# signed, zero, integer, off-grid (3, 7, 21) and on-grid (powers of 2 and 5)
# denominators, and numerators as long as those of an 80-digit enclosure
endpoints = st.one_of(
    st.just(Fraction(0)),
    st.integers(-10 ** 6, 10 ** 6).map(Fraction),
    st.builds(Fraction, st.integers(-10 ** 100, 10 ** 100),
              st.sampled_from([3, 7, 21, 2 ** 7, 5 ** 9, 10 ** 5, 10 ** 90, 3 * 10 ** 90])),
    st.fractions(min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=10 ** 6),
)
intervals = st.one_of(
    st.tuples(endpoints, endpoints).map(lambda p: tuple(sorted(p))),
    endpoints.map(lambda x: (x, x)),                 # degenerate
)
digit_counts = st.integers(0, 120)

# n below 2^20000 at root orders up to 1000, and the neighbours r^k - 1,
# r^k, r^k + 1 of perfect powers, where the float root lands closest to
# an integer
perfect_powers = st.integers(1, 60).flatmap(lambda k: st.tuples(
    st.integers(0, 2 ** (20000 // k)).map(lambda r: r ** k), st.just(k)))
root_cases = st.one_of(
    st.tuples(st.integers(0, 20000).flatmap(lambda bits: st.integers(0, 2 ** bits)),
              st.integers(1, 1000)),
    st.tuples(perfect_powers, st.sampled_from([-1, 0, 1])).map(
        lambda c: (max(c[0][0] + c[1], 0), c[0][1])),
)


class TestOracles:
    @given(a=intervals, digits=digit_counts)
    @settings(max_examples=300, deadline=None)
    def test_round_out(self, a, digits):
        _same(round_out(*a, digits), round_out_oracle(*a, digits))

    @given(a=intervals, b=intervals, digits=digit_counts)
    @settings(max_examples=500, deadline=None)
    def test_mul_interval(self, a, b, digits):
        _same(mul_interval(a, b, digits), mul_oracle(a, b, digits))

    @given(terms=st.lists(intervals, max_size=30), digits=digit_counts)
    @settings(max_examples=200, deadline=None)
    def test_sum_interval(self, terms, digits):
        _same(sum_interval(terms, digits), sum_oracle(terms, digits))

    @given(case=root_cases)
    @settings(max_examples=300, deadline=None)
    def test_iroot(self, case):
        assert iroot(*case) == iroot_oracle(*case)

    @given(a=st.tuples(endpoints, endpoints).map(lambda p: tuple(sorted(map(abs, p)))),
           k=st.integers(1, 12), digits=st.integers(0, 60))
    @settings(max_examples=300, deadline=None)
    def test_nth_root_interval(self, a, k, digits):
        # the greatest grid point whose k-th power is <= lo and the least
        # whose k-th power is >= hi
        lo, hi = nth_root_interval(*a, k, digits)
        ulp = Fraction(1, 10 ** digits)
        assert (lo / ulp).denominator == 1 and (hi / ulp).denominator == 1
        assert lo ** k <= a[0] < (lo + ulp) ** k
        assert a[1] <= hi ** k and (hi == 0 or (hi - ulp) ** k < a[1])


def test_a_low_float_start_falls_back_to_the_power_of_two(monkeypatch):
    # math.log2 reading 0 puts the float start at 2, at or below each root
    cases = [(3 ** 300, 3), (10 ** 500 + 7, 7), (2 ** 20000 - 1, 1000),
             (12345678901234567890 ** 5, 5), (12345678901234567890 ** 5 - 1, 5)]
    assert all(2 ** k <= n for n, k in cases)
    monkeypatch.setattr(math, "log2", lambda n: 0.0)
    for n, k in cases:
        assert iroot(n, k) == iroot_oracle(n, k)


F = Fraction
POS, NEG, ACROSS = (F(1, 3), F(2)), (F(-5, 7), F(-1, 21)), (F(-3, 7), F(5, 3))

# one case per sign pattern of [a] and [b] (the rows of the classical sign
# table of interval multiplication), with zero endpoints on the boundaries
# between patterns
SIGN_CASES = {
    "a >= 0, b >= 0": (POS, POS),
    "a >= 0, b <= 0": (POS, NEG),
    "a >= 0, b across 0": (POS, ACROSS),
    "a <= 0, b >= 0": (NEG, POS),
    "a <= 0, b <= 0": (NEG, NEG),
    "a <= 0, b across 0": (NEG, ACROSS),
    "a across 0, b >= 0": (ACROSS, POS),
    "a across 0, b <= 0": (ACROSS, NEG),
    "both across 0, a0*b1 low, a1*b1 high": (ACROSS, (F(-1, 21), F(2))),
    "both across 0, a1*b0 low, a0*b0 high": (ACROSS, (F(-2), F(1, 21))),
    "[0, x] times b across 0": ((F(0), F(2, 3)), ACROSS),
    "[x, 0] times b >= 0": ((F(-2, 3), F(0)), POS),
    "[0, 0] times b across 0": ((F(0), F(0)), ACROSS),
    "a across 0 times [0, x]": (ACROSS, (F(0), F(1, 7))),
    "a across 0 times [x, 0]": (ACROSS, (F(-1, 7), F(0))),
    "degenerate times degenerate": ((F(-2, 3), F(-2, 3)), (F(3, 7), F(3, 7))),
}


@pytest.mark.parametrize("name", SIGN_CASES)
@pytest.mark.parametrize("digits", [0, 1, 5, 80, 120])
def test_each_sign_branch_matches_the_oracle(name, digits):
    a, b = SIGN_CASES[name]
    _same(mul_interval(a, b, digits), mul_oracle(a, b, digits))
    _same(mul_interval(b, a, digits), mul_oracle(b, a, digits))


def test_both_across_zero_picks_each_candidate():
    # the low end is a0*b1 or a1*b0, the high end a0*b0 or a1*b1; integer
    # products are exact at 0 digits
    a = (F(-2), F(3))
    assert mul_interval(a, (F(-1), F(5)), 0) == (F(-10), F(15))   # a0*b1, a1*b1
    assert mul_interval(a, (F(-5), F(1)), 0) == (F(-15), F(10))   # a1*b0, a0*b0


def test_rounding_is_outward_on_the_grid():
    third = F(1, 3)
    assert round_out(-third, third, 2) == (F(-34, 100), F(34, 100))
    assert mul_interval((third, third), (F(1), F(1)), 3) == (F(333, 1000), F(334, 1000))
    assert sum_interval([(third, third)] * 3, 4) == (F(1), F(1))
    assert sum_interval([], 7) == (F(0), F(0))


@settings(max_examples=300, deadline=None)
@given(st.integers(-10 ** 60, 10 ** 60).filter(bool), st.integers(1, 10 ** 60),
       st.integers(-5000, 5000))
def test_short_str_is_str_or_twenty_digits_of_the_value(n, d, e):
    x = Fraction(n, d) * Fraction(10) ** e
    text = short_str(x)
    if abs(x.numerator) < 10 ** 20 and x.denominator < 10 ** 20:
        assert text == str(x)
    else:
        assert len(text.replace("-", "").split("E")[0]) <= 21   # 20 digits and a point
        assert abs(Fraction(text) - x) <= abs(x) / 10 ** 18


def test_short_str_of_a_million_digit_value_is_quick():
    big = 10 ** 1_000_001
    start = time.process_time()
    assert short_str(Fraction(-big, 3)) == "-3.3333333333333333333E+1000000"
    assert short_str(Fraction(3, big)) == "3.0000000000000000000E-1000001"
    assert time.process_time() - start < 0.5
