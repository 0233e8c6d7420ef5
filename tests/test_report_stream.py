"""The seeded integer stream of criteria 5-6: report._Integers draws what
numpy's Generator.integers draws, and _random_poly builds the same
polynomials as the earlier Generator-based body."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirp import report
from dirp.spectral import TrigPoly

# the first 12 draws of default_rng(1234).integers(lo, hi) under numpy 2.x;
# a numpy release that changed Generator.integers or PCG64 fails here
PINNED = {
    (1, 101): [98, 98, 99, 39, 18, 93, 11, 27, 14, 32, 54, 12],
    (-128, 129): [123, 123, 125, -31, -84, 109, -102, -61, -93, -46, 9, -98],
    (-8, 9): [8, 8, 8, -2, -6, 7, -7, -4, -6, -3, 1, -6],
    (0, 4): [3, 3, 3, 1, 0, 3, 0, 1, 0, 1, 2, 0],
}


def _generator_random_poly(rng: np.random.Generator) -> TrigPoly:
    """Oracle: the earlier _random_poly body, on numpy's Generator."""
    n_terms = int(rng.integers(1, 101))
    terms = {}
    while len(terms) < n_terms:
        k = tuple(int(c) for c in rng.integers(-128, 129, size=2))
        if k == (0, 0) or k[0] * k[0] + k[1] * k[1] > 128 * 128:
            continue
        num_re = int(rng.integers(-8, 9))
        num_im = int(rng.integers(-8, 9))
        den = 2 ** int(rng.integers(0, 4))
        if num_re == 0 and num_im == 0:
            continue
        terms[k] = (Fraction(num_re, den), Fraction(num_im, den))
    return TrigPoly(2, terms)


@pytest.mark.parametrize("bounds", sorted(PINNED))
def test_first_draws_are_pinned(bounds):
    draw = report._Integers(1234)
    assert [draw(*bounds) for _ in range(12)] == PINNED[bounds]


ranges = st.tuples(st.integers(-2 ** 40, 2 ** 40),
                   st.one_of(st.integers(1, 300), st.integers(1, 2 ** 32 - 1),
                             st.just(2 ** 31 + 1)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 64), st.lists(ranges, min_size=1, max_size=40))
def test_draws_equal_generator_integers(seed, bounds):
    rng = np.random.default_rng(seed)
    draw = report._Integers(seed)
    for lo, n in bounds:
        assert draw(lo, lo + n) == int(rng.integers(lo, lo + n))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 64))
def test_rejection_heavy_range(seed):
    # n = 2**31 + 1 rejects about half of all 32-bit words
    n = 2 ** 31 + 1
    rng = np.random.default_rng(seed)
    draw = report._Integers(seed)
    assert [draw(0, n) for _ in range(700)] == rng.integers(0, n, size=700).tolist()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 64), st.integers(-300, 300), st.integers(1, 2 ** 32 - 1))
def test_two_scalar_draws_equal_one_size_two_draw(seed, lo, n):
    draw = report._Integers(seed)
    pair = np.random.default_rng(seed).integers(lo, lo + n, size=2).tolist()
    assert [draw(lo, lo + n), draw(lo, lo + n)] == pair


@pytest.mark.parametrize("n", [0, -1, 2 ** 32])
def test_range_outside_32_bits_raises(n):
    with pytest.raises(ValueError):
        report._Integers(0)(5, 5 + n)


@pytest.mark.parametrize("seed", [1234, 0, 7])
def test_random_poly_equals_generator_oracle(seed):
    rng = np.random.default_rng(seed)
    draw = report._Integers(seed)
    for _ in range(1000):
        want = _generator_random_poly(rng)
        got = report._random_poly(draw)
        assert list(got.terms.items()) == list(want.terms.items())
