"""The seeded integer stream of criteria 5-6: report._Integers draws what
numpy's Generator.integers draws, and _random_poly, which reads its draws
off _Integers' word blocks, builds the same polynomials as the earlier
Generator-based body."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirp import report
from dirp.spectral import TrigPoly

# the first raw 64-bit words of PCG64(1234), which NEP 19 keeps stable
PINNED_RAW = [18016930633132456890, 7013373421822782593, 17030886991259909300,
              4827373169039523470]

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


class _GeneratorIntegers:
    """Oracle: report._Integers before it read word blocks, drawing word by
    word from a Python generator over any bit generator's raw words, with
    Generator.integers' signature so that _generator_random_poly runs on it.
    `zeros` counts the zero words it reads, by range size."""

    def __init__(self, bits):
        self._words = self._uint32s(bits)
        self.zeros = {}

    @staticmethod
    def _uint32s(bits):
        while True:
            raw = bits.random_raw(512)
            yield from np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel().tolist()

    def _word(self, n):
        w = next(self._words)
        if w == 0:
            self.zeros[n] = self.zeros.get(n, 0) + 1
        return w

    def __call__(self, lo, hi):
        n = hi - lo
        m = self._word(n) * n
        if m & 0xFFFFFFFF < n:
            threshold = ((1 << 32) - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._word(n) * n
        return lo + (m >> 32)

    def integers(self, lo, hi, size=None):
        return self(lo, hi) if size is None else [self(lo, hi) for _ in range(size)]


_PCG64 = np.random.PCG64


class _ZeroSpliced:
    """PCG64(seed)'s raw words with the 32-bit words at the indices in
    `zeros` set to 0 (index 2r is the low half of raw word r)."""

    def __init__(self, seed, zeros):
        self._bits, self._zeros, self._read = _PCG64(seed), np.array(sorted(zeros)), 0

    def random_raw(self, size):
        raw = self._bits.random_raw(size)
        r = np.arange(self._read, self._read + size)
        raw[np.isin(2 * r, self._zeros)] &= np.uint64(0xFFFFFFFF00000000)
        raw[np.isin(2 * r + 1, self._zeros)] &= np.uint64(0xFFFFFFFF)
        self._read += size
        return raw


def test_first_raw_words_are_pinned():
    assert np.random.PCG64(1234).random_raw(len(PINNED_RAW)).tolist() == PINNED_RAW


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


def test_generator_oracle_equals_generator_integers():
    draw = _GeneratorIntegers(np.random.PCG64(99))
    rng = np.random.default_rng(99)
    for lo, hi in [(1, 101), (-128, 129), (-8, 9), (0, 4), (0, 2 ** 31 + 1)] * 200:
        assert draw(lo, hi) == int(rng.integers(lo, hi))


@pytest.mark.parametrize("seed", [1234, 5])
def test_random_poly_on_zero_spliced_words(seed, monkeypatch):
    # Lemire rejects a zero word at n = 257, 17 and 100 but never at n = 4;
    # the zeros come singly, in pairs and in runs, the first one on n_terms
    rng = np.random.default_rng(seed)
    zeros = {0} | set(rng.integers(0, 60_000, size=1500).tolist())
    zeros |= {z + 1 for z in list(zeros)[:300]} | set(range(4000, 4012))
    monkeypatch.setattr(np.random, "PCG64", lambda s: _ZeroSpliced(s, zeros))
    draw = report._Integers(seed)
    oracle = _GeneratorIntegers(_ZeroSpliced(seed, zeros))
    for _ in range(200):
        want = _generator_random_poly(oracle)
        got = report._random_poly(draw)
        assert list(got.terms.items()) == list(want.terms.items())
    assert all(oracle.zeros.get(n, 0) > 0 for n in (100, 257, 17, 4)), oracle.zeros
    assert draw(0, 2 ** 32 - 1) == oracle(0, 2 ** 32 - 1)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_random_poly_across_tiny_blocks(block, monkeypatch):
    # blocks of 2 to 6 words: most terms straddle a refill
    monkeypatch.setattr(report._Integers, "_BLOCK", block)
    rng = np.random.default_rng(block)
    draw = report._Integers(block)
    for _ in range(150):
        want = _generator_random_poly(rng)
        got = report._random_poly(draw)
        assert list(got.terms.items()) == list(want.terms.items())
    assert draw(1, 101) == int(rng.integers(1, 101))


def test_population_reads_blocks_not_scalar_draws(monkeypatch):
    # seed 1234's population: one scalar draw of n_terms per polynomial, and
    # the two or three draws of a term's stage that meets a block's end or a
    # rejected word
    calls, refills, rejected = [0], [0], [0]
    call, refill = report._Integers.__call__, report._Integers._refill

    def counted_call(self, lo, hi):
        calls[0] += 1
        return call(self, lo, hi)

    def counted_refill(self):
        refill(self)
        refills[0] += 1
        rejected[0] += sum(d[:-self.LOOKAHEAD].count(-1) for d in self.lemire)

    monkeypatch.setattr(report._Integers, "__call__", counted_call)
    monkeypatch.setattr(report._Integers, "_refill", counted_refill)
    draw = report._Integers(1234)
    for _ in range(1000):
        report._random_poly(draw)
    assert 1000 <= calls[0] <= 1000 + 3 * (refills[0] + rejected[0])
