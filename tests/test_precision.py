"""The exact interval kernels of dirp.precision against Fraction oracles.

round_out rounds from integer numerators and denominators, mul_interval
takes the least floor and the greatest ceiling of the four endpoint products
on the grid, and sum_interval rounds the exact sum once.  The oracles below
round the exact Fraction result instead: every endpoint must be the same
rational, so every printed digit stays put.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirp.precision import mul_interval, round_out, sum_interval


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
