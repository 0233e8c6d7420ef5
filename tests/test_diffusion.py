"""Grid diffusion model: discretization, convolution, contraction."""

import math
import os
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirp import diffusion
from dirp.diffusion import (DEFAULT_SEED, GridFunction, GridMeasure, RVSpec,
                            _convolver, _witness_functions,
                            apply_markov, cesaro_average, contraction_factor,
                            convolution_power, convolve, density_floor_check,
                            measure_from_rv, parse_rv, scaling_fit,
                            taylor_limit_check)
from dirp.errors import GridMismatch, ParseError, UnderResolved, ZeroDrift

DRIFT = RVSpec.uniform(0, Fraction(1, 2))
SYM = RVSpec.uniform(Fraction(-1, 2), Fraction(1, 2))
MIX = parse_rv("mix:[(1/2,uniform;-1/4;1/4),(1/2,atoms;[(1/3,1)])]")
FIT_T_GRID = [Fraction(1, n) for n in (10, 20, 50, 100, 200)]
PERIODIC = RVSpec.from_atoms([(Fraction(1, 2), 1)])   # t = 1: mu_hat(n) = (-1)^n


@st.composite
def _laws(draw, starts=st.fractions(-1, 1, max_denominator=12),
          widths=st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1)])) -> RVSpec:
    """A mixture of up to three uniform parts at least 1/4 wide and atoms at
    small-denominator positions, which put periodic orbits in reach."""
    parts = draw(st.lists(st.tuples(st.integers(1, 4), st.booleans(), starts, widths),
                          min_size=1, max_size=3))
    total = sum(w for w, _, _, _ in parts)
    uniforms = tuple((Fraction(w, total), x, x + width)
                     for w, is_atom, x, width in parts if not is_atom)
    atoms = tuple((x, Fraction(w, total)) for w, is_atom, x, _ in parts if is_atom)
    return RVSpec(uniforms=uniforms, atoms=atoms)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _python_exit_code(code: str, timeout: float) -> int:
    """Exit code of `python -c code` in a fresh process that imports this dirp."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=timeout).returncode


def _direct_conv(a, b):
    """_convolver's direct branch, which it takes up to _DIRECT_CONV_MAX cells."""
    assert len(b) <= diffusion._DIRECT_CONV_MAX
    return _convolver(b)(a)


def _fft_conv(a, b):
    """_convolver's FFT branch, taken at any size once the switch is 0 cells."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diffusion, "_DIRECT_CONV_MAX", 0)
        return _convolver(b)(a)


def _arc_kernel(M: int, s: int, W: int, seed: int, holes: float = 0.0) -> np.ndarray:
    """A kernel on the cells s, ..., s + W - 1 (mod M), both ends nonzero, a
    share `holes` of the cells between them exact zeros."""
    rng = np.random.default_rng(seed)
    cells = (s + np.arange(W)) % M
    b = np.zeros(M)
    b[cells] = (rng.random(W) + 0.1) * (rng.random(W) >= holes)
    b[cells[[0, -1]]] = 0.5
    return b


def _assert_window_kernel_bytes(b: np.ndarray, rng: np.random.Generator) -> None:
    """_convolver(b) gives the bytes of np.correlate's full-length dots for a
    nonnegative, a signed and a zero-holding a, each at every 8-byte offset
    mod 64."""
    M = len(b)
    doubled = np.concatenate([b[1:], b])
    step = _convolver(b)
    zeros = rng.standard_normal(M + 8)
    zeros[rng.random(M + 8) < 0.4] = 0.0
    zeros[rng.random(M + 8) < 0.2] = -0.0
    for big in (rng.random(M + 8), rng.standard_normal(M + 8), zeros):
        for offset in range(8):
            a = big[offset:offset + M]
            assert (step(a).tobytes()
                    == np.correlate(doubled, a[::-1].copy(), "valid").tobytes()), offset


def _squaring_power(a: GridMeasure, n: int) -> GridMeasure:
    """Oracle: the earlier convolution_power loop, written out."""
    result = None
    sq = a
    while n:
        if n & 1:
            result = sq if result is None else convolve(result, sq)
        n >>= 1
        if n:
            sq = convolve(sq, sq)
    return result


def _running_fft_cesaro(mu: GridMeasure, n: int) -> np.ndarray:
    """Oracle: the earlier Cesaro average above the switch, a running loop
    of n - 1 FFT convolutions with fft(mu) prepared once."""
    bhat = np.fft.fft(mu.weights)
    acc = mu.weights.copy()
    power = mu.weights
    for _ in range(n - 1):
        power = np.real(np.fft.ifft(np.fft.fft(power) * bhat))
        acc += power
    return GridMeasure(mu.M, acc / n).weights


def _exact_cesaro(w: np.ndarray, ns) -> dict:
    """Oracle: {n: (1/n) sum_{k=1..n} mu^k} in exact rationals.  Every float
    mass is an integer over 2^e, so mu^k is an integer vector over 2^(ke)
    and the running sum T_k = 2^e T_(k-1) + mu^k * 2^(ke) stays integral."""
    fr = [Fraction(float(x)) for x in w]
    e = max(f.denominator for f in fr).bit_length() - 1
    ints = [int(f * 2 ** e) for f in fr]
    M = len(ints)
    support = [(j, m) for j, m in enumerate(ints) if m]
    power, total, out = ints, list(ints), {}
    for k in range(1, max(ns) + 1):
        if k > 1:
            nxt = [0] * M
            for i, p in enumerate(power):
                if p:
                    for j, m in support:
                        nxt[(i + j) % M] += p * m
            power = nxt
            total = [(t << e) + p for t, p in zip(total, power)]
        if k in ns:
            out[k] = [Fraction(t, k << (k * e)) for t in total]
    return out


def _fft_cesaro_bound(M: int, n: int) -> float:
    """Elementwise error allowed for the FFT pair powering of a probability
    vector.  It runs at most 4 bit_length(n) convolutions, each of two
    vectors of mass <= 1 once S_m is scaled by 1/m.  Each is off by at most
    3 log2(M) eta in the 2-norm, eta = 7u (Higham 2002, section 24.1, with
    twiddle factors good to u), and convolving with a probability vector
    does not grow an earlier error."""
    return 4 * n.bit_length() * 3 * math.log2(M) * 7 * 2.0 ** -53


def _per_t_contraction(Y: RVSpec, t_grid, p, M: int, seed: int = DEFAULT_SEED) -> list:
    """Oracle: the earlier contraction_factor, run once per t, which
    discretizes t, then rebuilds, transforms and norms every witness."""
    out = []
    for t in t_grid:
        mhat = np.fft.fft(measure_from_rv(Y, t, M).weights)
        if p == 2:
            out.append(float(np.abs(1 - mhat[1:]).min()))
            continue
        multiplier = 1 - np.conj(mhat)
        rng = np.random.default_rng(seed)
        best = math.inf
        for f in _witness_functions(M, rng):
            diff = GridFunction(M, np.real(np.fft.ifft(np.fft.fft(f.values) * multiplier)))
            denom = f.lp_norm(p)
            if denom > 0:
                best = min(best, diff.lp_norm(p) / denom)
        out.append(best)
    return out


def _turn_unit_masses(Y: RVSpec, t, M: int) -> np.ndarray:
    """Oracle: cell masses of tY from an independent loop in turn units,
    which shifts each uniform part into [0, 1), spreads its whole turns
    evenly and integrates the remainder from cell j0 to cell j1."""
    t = Fraction(t)
    mass = [Fraction(0)] * M
    half_cell = Fraction(1, 2 * M)
    for w, lo, hi in Y.uniforms:
        a, b = t * lo + half_cell, t * hi + half_cell
        length = b - a
        shift = math.floor(a)
        a -= shift
        b -= shift
        full = math.floor(length)
        if full:
            per_cell = w * full / (length * M)
            for j in range(M):
                mass[j] += per_cell
        a2 = a + full
        rem = length - full
        if rem > 0:
            dens = w / length
            j0 = math.floor(a2 * M)
            j1 = math.floor(b * M) if b * M != math.floor(b * M) else int(b * M) - 1
            for j in range(j0, j1 + 1):
                left = max(a2, Fraction(j, M))
                right = min(b, Fraction(j + 1, M))
                if right > left:
                    mass[j % M] += dens * (right - left)
    for p, m in Y.atoms:
        x = t * p
        x -= math.floor(x)
        j = math.floor(x * M)
        frac = x * M - j
        mass[j % M] += m * (1 - frac)
        if frac:
            mass[(j + 1) % M] += m * frac
    return GridMeasure(M, np.array([float(v) for v in mass])).weights


class TestGridMeasure:
    def test_mass_off_one_raises(self):
        # no silent renormalization: a vector off by more than _MASS_TOL is a bug
        with pytest.raises(ValueError, match="sum to"):
            GridMeasure(4, [0.5, 0.5, 0.5, 0.5])
        with pytest.raises(ValueError, match="sum to"):
            GridMeasure(4, [0.25, 0.25, 0.25, 0.25 - 1e-9])

    def test_mass_within_tolerance_is_kept_as_given(self):
        w = np.array([0.25, 0.25, 0.25, 0.25 + 1e-13])
        assert GridMeasure(4, w).weights.tobytes() == w.tobytes()

    def test_fft_rounding_is_clamped_to_zero(self):
        w = np.array([0.5, -7e-18, 0.5, 0.0])
        assert GridMeasure(4, w).weights.tolist() == [0.5, 0.0, 0.5, 0.0]

    def test_negative_mass_raises(self):
        with pytest.raises(ValueError, match="negative"):
            GridMeasure(4, [0.5, -1e-12, 0.5, 1e-12])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mass_raises(self, bad):
        # every comparison with NaN is false, so no other check catches it
        with pytest.raises(ValueError, match="non-finite"):
            GridMeasure(64, np.full(64, bad))
        w = np.full(64, 1 / 64)
        w[5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            GridMeasure(64, w)


class TestGridFunction:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("mean_zero", [False, True])
    def test_non_finite_value_raises(self, bad, mean_zero):
        # the direct kernel skips products with b's zeros, which is exact for
        # finite values only: 0 * inf is NaN
        v = np.zeros(64)
        v[5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            GridFunction(64, v, mean_zero=mean_zero)

    def test_finite_values_are_kept_as_given(self):
        v = np.random.default_rng(5).standard_normal(64)
        assert GridFunction(64, v).values.tobytes() == v.tobytes()


class TestRVSpec:
    def test_parse_uniform(self):
        Y = parse_rv("uniform:0:0.5")
        assert Y.uniforms == ((Fraction(1), Fraction(0), Fraction(1, 2)),)
        assert Y.mean == Fraction(1, 4)

    def test_parse_atoms(self):
        Y = parse_rv("atoms:[(0.25,0.5),(0.75,0.5)]")
        assert Y.atoms == ((Fraction(1, 4), Fraction(1, 2)),
                           (Fraction(3, 4), Fraction(1, 2)))
        assert Y.mean == Fraction(1, 2)

    def test_parse_mix_with_nested_brackets(self):
        Y = parse_rv("mix:[(0.5,uniform;0;1),(0.5,atoms;[(0.25,1)])]")
        assert Y.uniforms == ((Fraction(1, 2), Fraction(0), Fraction(1)),)
        assert Y.atoms == ((Fraction(1, 4), Fraction(1, 2)),)

    def test_mass_must_be_one(self):
        with pytest.raises(ValueError):
            RVSpec.from_atoms([(0, Fraction(1, 2))])

    @pytest.mark.parametrize("bad", ["uniform:1:0", "atoms:[(0.5)]",
                                     "junk:1", "atoms:(0.5,1)",
                                     "atoms:[(0,1/2),,(1/3,1/2)]", "atoms:[(1,2,3)]",
                                     "atoms:[(0.5,1]", "atoms:[(0,1)x]"])
    def test_rejects_malformed(self, bad):
        with pytest.raises((ParseError, ValueError)):
            parse_rv(bad)


def _cell_loop_masses(Y: RVSpec, t, M: int) -> np.ndarray:
    """Oracle: cell masses of tY from measure_from_rv's former loop, which
    visits every unwrapped cell a uniform part covers, whole turns included."""
    t = Fraction(t)
    mass: dict[int, Fraction] = defaultdict(Fraction)
    for w, lo, hi in Y.uniforms:
        a, b = t * lo * M + Fraction(1, 2), t * hi * M + Fraction(1, 2)
        dens = w / (b - a)
        for c in range(math.floor(a), math.ceil(b)):
            mass[c % M] += dens * (min(b, c + 1) - max(a, c))
    for p, m in Y.atoms:
        x = t * p
        x -= math.floor(x)
        j = math.floor(x * M)
        frac = x * M - j
        mass[j % M] += m * (1 - frac)
        if frac:
            mass[(j + 1) % M] += m * frac
    weights = np.zeros(M)
    weights[list(mass)] = [float(v) for v in mass.values()]
    return weights


class TestDiscretization:
    def test_point_mass_at_zero(self):
        mu = measure_from_rv(RVSpec.from_atoms([(0, 1)]), Fraction(1, 2), 128)
        assert mu.weights[0] == 1.0 and mu.weights[1:].sum() == 0.0

    def test_atom_split_between_cells(self):
        # t*p = 1/2 * 1/3 = 1/6 lands between cells at M = 64
        mu = measure_from_rv(RVSpec.from_atoms([(Fraction(1, 3), 1)]),
                             Fraction(1, 2), 64)
        nz = np.nonzero(mu.weights)[0]
        assert list(nz) == [10, 11]
        assert abs(mu.weights.sum() - 1) < 1e-15

    def test_full_circle_uniform(self):
        mu = measure_from_rv(RVSpec.uniform(-1, 1), Fraction(1, 2), 256)
        assert np.allclose(mu.weights, 1 / 256, atol=1e-15)

    def test_arc_density_twenty(self):
        mu = measure_from_rv(DRIFT, Fraction(1, 10), 1024)
        # tY ~ uniform(0, 0.05): interior cells carry density 20
        assert abs(mu.weights.max() * 1024 - 20.0) < 1e-12
        full_cells = np.count_nonzero(
            np.abs(mu.weights * 1024 - 20.0) < 1e-12)
        support = np.count_nonzero(mu.weights)
        assert full_cells >= 49  # two boundary cells may carry partial mass
        assert 51 <= support <= 53
        assert abs(mu.weights.sum() - 1) < 1e-12

    def test_symmetric_law_gives_real_spectrum(self):
        mu = measure_from_rv(SYM, Fraction(1, 10), 512)
        mhat = np.fft.fft(mu.weights)
        assert np.abs(mhat.imag).max() < 1e-12

    @pytest.mark.parametrize("M", [64, 1000, 4096])
    @pytest.mark.parametrize("spec,t", [
        ("uniform:-7/3:11/5", Fraction(1)),          # 4.5 turns, start off-grid
        ("uniform:-7/3:11/5", Fraction(3, 7)),
        ("uniform:-1:1", Fraction(1, 2)),            # exactly one turn
        ("uniform:0:1/2", Fraction(1, 5)),
        ("mix:[(1/3,uniform;-2;3/7),(1/3,atoms;[(1/5,1)]),(1/3,uniform;5/11;6/11)]",
         Fraction(1)),
        ("mix:[(1/2,uniform;-3/2;-1/4),(1/2,uniform;1/3;2)]", Fraction(2, 3)),
    ])
    def test_cell_masses_match_turn_unit_oracle_bit_for_bit(self, spec, t, M):
        Y = parse_rv(spec)
        assert np.array_equal(measure_from_rv(Y, t, M).weights,
                              _turn_unit_masses(Y, t, M))

    # uniform parts up to six turns wide, starting anywhere in [-3, 3]
    @given(Y=_laws(st.fractions(-3, 3, max_denominator=12),
                   st.fractions(Fraction(1, 4), 6, max_denominator=12)),
           t=st.sampled_from([Fraction(1), Fraction(2, 3), Fraction(1, 2), Fraction(3, 7),
                              Fraction(1, 3)]),
           M=st.sampled_from([64, 100, 257, 1000]))
    @settings(max_examples=80, deadline=None)
    def test_whole_turns_give_the_cell_loop_masses(self, Y, t, M):
        assert np.array_equal(measure_from_rv(Y, t, M).weights, _cell_loop_masses(Y, t, M))

    def test_wide_uniform_law_costs_one_pass_over_the_grid(self):
        # the loop over unwrapped cells visits 4 * 10**7 of them at this width
        start = time.process_time()
        flat = measure_from_rv(RVSpec.uniform(0, 100000), Fraction(1, 10), 4096).weights
        Y = RVSpec.uniform(Fraction(-1, 3), 100000)
        wide = measure_from_rv(Y, Fraction(1, 10), 4096).weights
        assert time.process_time() - start < 0.5
        assert np.array_equal(flat, np.full(4096, 1 / 4096))
        assert np.array_equal(wide, _turn_unit_masses(Y, Fraction(1, 10), 4096))

    def test_under_resolved(self):
        with pytest.raises(UnderResolved):
            measure_from_rv(DRIFT, Fraction(1, 1000), 128)
        with pytest.raises(UnderResolved):
            measure_from_rv(DRIFT, Fraction(1, 10), 32)

    def test_t_range(self):
        with pytest.raises(ValueError):
            measure_from_rv(DRIFT, Fraction(3, 2), 128)
        with pytest.raises(ValueError):
            measure_from_rv(DRIFT, 0, 128)


class TestConvolution:
    def test_delta_is_identity(self):
        mu = measure_from_rv(DRIFT, Fraction(1, 10), 256)
        out = convolve(mu, GridMeasure(256, np.eye(256)[0]))
        assert np.abs(out.weights - mu.weights).max() < 1e-15

    def test_uniform_is_absorbing(self):
        u = GridMeasure(128, np.full(128, 1 / 128))
        mu = measure_from_rv(DRIFT, Fraction(1, 10), 128)
        out = convolve(mu, u)
        assert np.abs(out.weights - 1 / 128).max() < 1e-15

    def test_direct_matches_fft(self):
        rng = np.random.default_rng(7)
        a = rng.random(512); a /= a.sum()
        b = rng.random(512); b /= b.sum()
        assert np.abs(_direct_conv(a, b) - _fft_conv(a, b)).max() < 1e-12

    def test_direct_equals_full_mode_slice_bit_for_bit(self):
        def full_mode_slice(a, b):  # the earlier implementation, as the oracle
            M = len(a)
            return np.convolve(a, np.concatenate([b, b]))[M:2 * M]

        rng = np.random.default_rng(11)
        for M in (64, 4096, *rng.integers(65, 4096, 30)):
            a, b = rng.random(M), rng.random(M)
            assert np.array_equal(_direct_conv(a, b), full_mode_slice(a, b))

    @pytest.mark.parametrize("M", [64, 2048, 4096])
    def test_direct_kernel_bytes_at_every_input_offset(self, M):
        # the aligned buffer changes speed only: a at each 8-byte offset
        # mod 64 gives numpy's own valid-mode bytes
        rng = np.random.default_rng(M)
        b = rng.random(M)
        doubled = np.concatenate([b[1:], b])
        step = _convolver(b)
        big = rng.random(M + 8)
        for offset in range(8):
            a = big[offset:offset + M]
            assert step(a).tobytes() == np.convolve(a, doubled, "valid").tobytes()

    @pytest.mark.parametrize("b", [np.random.default_rng(3).random(256),
                                   _arc_kernel(2048, 100, 1, seed=4),
                                   measure_from_rv(DRIFT, Fraction(1, 20), 4096).weights],
                             ids=["one-dot", "windows", "gapped"])
    def test_direct_kernel_outputs_do_not_alias(self, b):
        # and the kernel's buffers, the gapped ones too, are refreshed each step
        rng = np.random.default_rng(3)
        M = len(b)
        step = _convolver(b)
        first = step(rng.random(M))
        kept = first.copy()
        a = rng.standard_normal(M)
        second = step(a)
        assert first.tobytes() == kept.tobytes()
        assert not np.shares_memory(first, second)
        assert second.tobytes() == _convolver(b)(a).tobytes()

    @pytest.mark.parametrize("b, gapped", [
        (_arc_kernel(1000, 990, 20, seed=1), True),          # wraps across cell 0
        (_arc_kernel(257, 256, 1, seed=2), False),           # a single cell
        (_arc_kernel(64, 0, 1, seed=3), False),
        (_arc_kernel(2048, 100, 300, seed=4, holes=0.3), True),   # interior zeros
        (_arc_kernel(4096, 4000, 500, seed=5, holes=0.5), True),
        (_arc_kernel(100, 0, 100, seed=6), False),           # full support
        (_arc_kernel(1035, 56, 7, seed=7), True),            # an 11-cell hull [1024, 1035)
        (_arc_kernel(2049, 2020, 64, seed=8), True),         # W = 64 across cell 0
        (_arc_kernel(1035, 1000, 65, seed=9, holes=0.3), True),
        (_arc_kernel(4096, 4060, 63, seed=10), True),
        (_arc_kernel(257, 200, 120, seed=11), False),        # a gap under 64 cells
        (measure_from_rv(DRIFT, Fraction(1, 20), 2048).weights, True),   # criterion 13's mu
        (measure_from_rv(DRIFT, Fraction(1, 20), 4096).weights, True),
    ], ids=["wrap", "single-257", "single-64", "holes-2048", "holes-4096", "full",
            "narrow-hull", "w64-2049", "w65-1035", "w63-4096", "small-gap",
            "mu-2048", "mu-4096"])
    def test_window_kernel_bytes_equal_full_dots(self, b, gapped):
        runs = diffusion._windows(b)
        assert any(G < H for _, _, _, G, H, _ in runs) == gapped
        _assert_window_kernel_bytes(b, np.random.default_rng(len(b)))

    @given(M=st.sampled_from([64, 100, 257, 1000, 1035, 2048, 2049, 4096]),
           s=st.integers(0, 4095),
           W=st.integers(1, 128) | st.integers(56, 72) | st.integers(1, 4096),
           across=st.booleans(), signed=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_window_kernel_bytes_property(self, M, s, W, across, signed, seed):
        # most arcs leave gapped runs: every arc longer than one cell has
        # outputs whose products wrap past M
        rng = np.random.default_rng(seed)
        W = min(W, M)
        if across and W > 1:    # the arc crosses cell 0: s + W - 1 >= M
            s = M - 1 - s % (W - 1)
        b = _arc_kernel(M, s % M, W, seed=seed, holes=rng.choice([0, 0.3]))
        if signed:   # negative cells, and -0 among the zeros
            b *= rng.choice([-1.0, 1.0], M)
        _assert_window_kernel_bytes(b, rng)

    def test_dense_or_zero_kernel_is_one_full_dot(self):
        # one np.correlate over every cell, as before windows
        assert diffusion._windows(np.random.default_rng(8).random(333)) == [(0, 333, 0, 333, 333, 333)]
        assert diffusion._windows(np.zeros(64)) == [(0, 64, 0, 64, 64, 64)]

    @pytest.mark.parametrize("b, W", [
        (measure_from_rv(DRIFT, Fraction(1, 20), 4096).weights, 103),   # criterion 13's mu
        (_arc_kernel(1000, 990, 20, seed=1), 20),                       # an arc across cell 0
        (_arc_kernel(2048, 100, 300, seed=4, holes=0.3), 300),
    ], ids=["mu-4096", "wrap", "holes"])
    def test_window_plan_work(self, b, W):
        # no timing: full-length dots would plan M^2 multiply-adds per step.
        # Each run of at most 64 outputs dots at most W + 189 cells: the
        # 64-aligned hull of its products, or for outputs whose products wrap
        # past M, [0, M) less the gap between the two ends.
        M = len(b)
        runs = diffusion._windows(b)
        assert [r[0] for r in runs] == [0] + [r[1] for r in runs[:-1]] and runs[-1][1] == M
        assert all(A % 64 == 0 and A <= G <= H <= E and (H - G) % 64 == 0
                   for _, _, A, G, H, E in runs)
        assert max(E - A - H + G for _, _, A, G, H, E in runs) <= W + 189
        work = sum((i1 - i0) * (E - A - H + G) for i0, i1, A, G, H, E in runs)
        assert work <= M * (W + 189)
        if M == 4096:   # criterion 13's mu: 0.79M against 1.18M with full
            assert work <= M * (W + 96)    # wrapped dots, 16.8M for all full

    def test_criterion_13_process_exits(self):
        # and runs on the calling thread alone
        code = ("import threading; from dirp.report import criterion_13; criterion_13(); "
                "assert threading.active_count() == 1, threading.enumerate()")
        assert _python_exit_code(code, timeout=300) == 0

    def test_direct_matches_exact_cyclic_convolution(self):
        M = 64
        rng = np.random.default_rng(5)
        a = rng.integers(1, 1000, M) / 1024
        b = rng.random(M)
        fa = [Fraction(float(x)) for x in a]
        fb = [Fraction(float(x)) for x in b]
        exact = [sum(fa[i] * fb[(n - i) % M] for i in range(M)) for n in range(M)]
        got = _direct_conv(a, b)
        for n in range(M):
            assert abs(Fraction(float(got[n])) - exact[n]) <= exact[n] * Fraction(M, 2 ** 52)

    def test_arc_self_convolution_is_triangular(self):
        mu = measure_from_rv(DRIFT, Fraction(2, 5), 512)  # uniform(0, 0.2)
        out = convolve(mu, mu)
        peak = int(np.argmax(out.weights))
        assert abs(peak - int(0.2 * 512)) <= 2  # peak at the arc-sum midpoint
        assert abs(out.weights.sum() - 1) < 1e-12

    def test_convolution_power_matches_sequential(self):
        mu = measure_from_rv(DRIFT, Fraction(1, 10), 128)
        seq = mu
        for _ in range(4):
            seq = convolve(seq, mu)
        fast = convolution_power(mu, 5)
        assert np.abs(fast.weights - seq.weights).max() < 1e-13

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            convolve(GridMeasure(64, np.full(64, 1 / 64)), GridMeasure(128, np.full(128, 1 / 128)))

    @pytest.mark.parametrize("M", [2048, 4096])
    def test_cesaro_equals_running_direct_conv_bytes(self, M):
        # one prepared kernel per loop on the direct side of the switch,
        # whose bytes the report pins
        mu = measure_from_rv(DRIFT, Fraction(1, 20), M)
        n = 48
        acc = mu.weights.copy()
        power = mu.weights
        for _ in range(n - 1):
            power = _convolver(mu.weights)(power)
            acc += power
        expected = GridMeasure(M, acc / n).weights
        assert cesaro_average(mu, n).weights.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("M", [256, 8192])
    def test_convolution_power_equals_squaring_loop_bytes(self, M):
        mu = measure_from_rv(DRIFT, Fraction(1, 20), M)
        for n in (1, 2, 3, 64, 1280):
            assert (convolution_power(mu, n).weights.tobytes()
                    == _squaring_power(mu, n).weights.tobytes())

    def test_fft_cesaro_matches_exact_sum(self, monkeypatch):
        monkeypatch.setattr(diffusion, "_DIRECT_CONV_MAX", 0)
        M, ns = 64, (1, 2, 3, 5, 8, 48, 64)
        mu = measure_from_rv(MIX, Fraction(1, 2), M)
        exact = _exact_cesaro(mu.weights, ns)
        for n in ns:
            got = cesaro_average(mu, n).weights
            bound = Fraction(_fft_cesaro_bound(M, n))
            assert all(abs(Fraction(float(g)) - x) <= bound
                       for g, x in zip(got, exact[n])), n

    @pytest.mark.parametrize("Y", [DRIFT, MIX, RVSpec.from_atoms([(Fraction(1, 3), 1)])],
                             ids=["drift", "mix", "atom"])
    def test_fft_cesaro_matches_running_fft_loop(self, Y):
        mu = measure_from_rv(Y, Fraction(1, 20), 8192)
        got = cesaro_average(mu, 1280).weights
        assert np.abs(got - _running_fft_cesaro(mu, 1280)).max() <= 1e-15

    @pytest.mark.parametrize("M", [64, 2 * diffusion._DIRECT_CONV_MAX])
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 16))
    @settings(max_examples=25, deadline=None)
    def test_mass_conserved(self, M, seed, n):
        rng = np.random.default_rng(seed)
        w = rng.random(M)
        mu = GridMeasure(M, w / w.sum())
        assert abs(convolution_power(mu, n).weights.sum() - 1) < 1e-12
        assert abs(cesaro_average(mu, n).weights.sum() - 1) < 1e-12


class TestMarkovOperator:
    def test_delta_leaves_function_unchanged(self):
        f = GridFunction.harmonic(256, 3)
        g = apply_markov(f, GridMeasure(256, np.eye(256)[0]))
        assert np.abs(g.values - f.values).max() < 1e-15

    def test_uniform_annihilates_mean_zero(self):
        f = GridFunction.harmonic(256, 1)
        g = apply_markov(f, GridMeasure(256, np.full(256, 1 / 256)))
        assert np.abs(g.values).max() <= 1e-10

    def test_arc_average_multiplier(self):
        # E f(x + tY) for f = cos(2 pi x), tY ~ uniform(-t, t):
        # amplitude shrinks by sin(2 pi t)/(2 pi t)
        M, t = 2048, 0.1
        f = GridFunction.harmonic(M, 1)
        mu = measure_from_rv(RVSpec.uniform(-1, 1), Fraction(1, 10), M)
        g = apply_markov(f, mu)
        target = math.sin(2 * math.pi * t) / (2 * math.pi * t)
        assert abs(np.abs(g.values).max() - target) < 5e-4

    @given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 32))
    @settings(max_examples=20, deadline=None)
    def test_young_telescoping_cesaro(self, seed, n):
        M = 64
        rng = np.random.default_rng(seed)
        f = GridFunction.random_mean_zero(M, rng)
        w = rng.random(M)
        mu = GridMeasure(M, w / w.sum())
        g1 = apply_markov(f, mu)
        gn = apply_markov(f, convolution_power(mu, n))
        gc = apply_markov(f, cesaro_average(mu, n))
        for p in (1, 2, math.inf):
            nf = f.lp_norm(p)
            d1 = GridFunction(M, f.values - g1.values).lp_norm(p)
            assert g1.lp_norm(p) <= nf + 1e-9
            assert GridFunction(M, f.values - gn.values).lp_norm(p) <= n * d1 + 1e-9
            assert GridFunction(M, f.values - gc.values).lp_norm(p) <= n * d1 + 1e-9


class TestContractionFactor:
    def test_symmetric_quadratic_value(self):
        h = contraction_factor(SYM, Fraction(1, 100), 2, 4096)
        target = (math.pi * 0.01) ** 2 / 6
        assert abs(h.value - target) / target < 0.05
        assert not h.is_upper_bound and h.method == "spectral-exact"

    def test_drift_linear_value(self):
        h = contraction_factor(DRIFT, Fraction(1, 100), 2, 4096)
        target = math.pi * 0.01 / 2
        assert abs(h.value - target) / target < 0.05

    def test_point_mass_no_contraction(self):
        h = contraction_factor(RVSpec.from_atoms([(0, 1)]), Fraction(1, 2), 2, 128)
        assert h.value < 1e-14

    def test_witness_family_is_labeled_upper_bound(self):
        h = contraction_factor(DRIFT, Fraction(1, 10), 1, 256)
        assert h.is_upper_bound and "witness-family" in h.method
        hi = contraction_factor(DRIFT, Fraction(1, 10), math.inf, 256)
        assert hi.is_upper_bound

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            contraction_factor(DRIFT, Fraction(1, 10), 3, 256)

    @pytest.mark.parametrize("M", [256, 8192])
    @pytest.mark.parametrize("p", [1, math.inf])
    @pytest.mark.parametrize("Y", [
        DRIFT, parse_rv("mix:[(1/2,uniform;-1/4;1/4),(1/2,atoms;[(1/3,1)])]")])
    def test_witness_family_matches_markov_loop(self, Y, p, M):
        # the same witnesses pushed through apply_markov one at a time
        t = Fraction(1, 8)
        mu = measure_from_rv(Y, t, M)
        best = math.inf
        for f in _witness_functions(M, np.random.default_rng(7)):
            diff = GridFunction(M, f.values - apply_markov(f, mu).values)
            best = min(best, diff.lp_norm(p) / f.lp_norm(p))
        h = contraction_factor(Y, t, p, M, seed=7)
        assert abs(h.value - best) <= 1e-9 * best

    def test_spectral_matches_harmonic_scan(self):
        M = 256
        mu = measure_from_rv(DRIFT, Fraction(1, 20), M)
        h2 = contraction_factor(DRIFT, Fraction(1, 20), 2, M).value
        best = math.inf
        for n in range(1, M // 2 + 1):
            f = GridFunction.harmonic(M, n)
            g = apply_markov(f, mu)
            diff = GridFunction(M, f.values - g.values)
            best = min(best, diff.lp_norm(2) / f.lp_norm(2))
        assert abs(best - h2) < 1e-9


class TestScalingFit:
    @pytest.mark.parametrize("M", [2048, 8192])
    @pytest.mark.parametrize("p", [1, 2, math.inf])
    @pytest.mark.parametrize("Y", [SYM, DRIFT, MIX], ids=["sym", "drift", "mix"])
    def test_h_values_equal_per_t_loop(self, Y, p, M):
        assert scaling_fit(Y, p, FIT_T_GRID, M).h_values == _per_t_contraction(
            Y, FIT_T_GRID, p, M)

    # skipped transforms must leave every bit, down to the periodic law's
    # h ~ 1e-16, where the lower bound and the ratios are rounding noise
    @given(Y=_laws(), M=st.sampled_from([64, 128, 200, 2048]), p=st.sampled_from([1, math.inf]),
           ts=st.lists(st.sampled_from([Fraction(1), Fraction(3, 4), Fraction(1, 2),
                                        Fraction(1, 3), Fraction(1, 4)]),
                       min_size=2, max_size=3, unique=True),
           seed=st.integers(0, 10 ** 6))
    @example(Y=PERIODIC, M=64, p=1, ts=[Fraction(1)], seed=DEFAULT_SEED)
    @example(Y=PERIODIC, M=128, p=math.inf, ts=[Fraction(1)], seed=DEFAULT_SEED)
    @example(Y=PERIODIC, M=2048, p=1, ts=[Fraction(1)], seed=7)
    @example(Y=PERIODIC, M=2048, p=math.inf, ts=[Fraction(1)], seed=DEFAULT_SEED)
    @settings(max_examples=40, deadline=None)
    def test_skipped_transforms_leave_h_values_property(self, Y, M, p, ts, seed):
        ts = sorted(ts, reverse=True)
        assert scaling_fit(Y, p, ts, M, seed).h_values == _per_t_contraction(Y, ts, p, M, seed)

    @pytest.mark.parametrize("M", [64, 128])
    @pytest.mark.parametrize("eps", [Fraction(1, 3), Fraction(1, 4), Fraction(1, 8), Fraction(1, 1000)])
    def test_tight_bound_ties_are_transformed(self, M, eps):
        # 1 - eps of the mass on the even cells, eps on the odd ones: only the
        # Nyquist multiplier 2 eps is below 1, and for the Nyquist harmonics
        # the lower bound is the ratio itself, so they differ only by rounding
        half = M // 2
        Y = RVSpec.from_atoms([(Fraction(j, M), (1 - eps if j % 2 == 0 else eps) / half)
                               for j in range(M)])
        for p in (1, math.inf):
            got = contraction_factor(Y, 1, p, M).value
            assert [got] == _per_t_contraction(Y, [Fraction(1)], p, M)

    def test_lower_bound_skips_most_inverse_transforms(self, monkeypatch):
        calls = []
        ifft = np.fft.ifft
        monkeypatch.setattr(np.fft, "ifft", lambda *args, **kw: calls.append(1) or ifft(*args, **kw))
        scaling_fit(DRIFT, 1, FIT_T_GRID, 8192)
        assert len(calls) <= 120      # 47 when written; 208 per t without the bound
        # the error bound is Higham's for radix-2 transforms, so other M run them all
        calls.clear()
        scaling_fit(DRIFT, 1, FIT_T_GRID, 2000)
        assert len(calls) == 208 * len(FIT_T_GRID)

    def test_witness_memory_stays_one_dimensional(self):
        # one multiplier per t plus one witness at a time; a (t x M) complex
        # batch of the five-t grid at M = 8192 would pass 2 MiB
        scaling_fit(DRIFT, 1, FIT_T_GRID, 8192)
        tracemalloc.start()
        try:
            scaling_fit(DRIFT, 1, FIT_T_GRID, 8192)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20

    def test_every_t_checked_before_witness_work(self, monkeypatch):
        calls = []
        monkeypatch.setattr(diffusion, "_witness_functions",
                            lambda *args: calls.append(args) or iter(()))
        with pytest.raises(UnderResolved):
            scaling_fit(DRIFT, 1, [Fraction(1, 2), Fraction(1, 1000)], 256)
        assert calls == []

    def test_periodic_orbit_verdict(self):
        est = scaling_fit(RVSpec.from_atoms([(Fraction(1, 2), 1)]), 2,
                          [Fraction(1)], 128)
        assert est.regime == "no contraction: periodic orbit"

    def test_t_grid_must_decrease(self):
        with pytest.raises(ValueError):
            scaling_fit(SYM, 2, [Fraction(1, 100), Fraction(1, 10)], 512)

    @pytest.mark.parametrize("ts", [[], [Fraction(1, 10)]])
    def test_fit_needs_two_t_values(self, ts):
        with pytest.raises(ValueError, match="two or more t values"):
            scaling_fit(SYM, 2, ts, 512)

    def test_step_function_drift_is_linear_in_l1(self):
        # the sign step chi_[0,1/2) - chi_[1/2,1) loses Theta(t) of its
        # L1 mass under the drifted average
        M = 1024
        x = np.arange(M) / M
        f = GridFunction(M, np.where(x < 0.5, 1.0, -1.0), mean_zero=True)
        for t in (Fraction(1, 10), Fraction(1, 20), Fraction(1, 50)):
            mu = measure_from_rv(DRIFT, t, M)
            g = apply_markov(f, mu)
            ratio = GridFunction(M, f.values - g.values).lp_norm(1) / f.lp_norm(1)
            assert 0.2 <= ratio / float(t) <= 5


class TestDensityFloor:
    def test_drifted_uniform_floor_positive(self):
        n, floor = density_floor_check(DRIFT, Fraction(1, 20), 16, 2048)
        assert n == 1280 and floor > 0

    def test_singular_atom_reports_honestly(self):
        n, floor = density_floor_check(RVSpec.from_atoms([(Fraction(1, 4), 1)]),
                                       Fraction(1, 20), 4, 128)
        assert floor >= 0.0  # may legitimately be 0: no AC component

    def test_zero_drift_rejected(self):
        with pytest.raises(ZeroDrift):
            density_floor_check(SYM, Fraction(1, 20), 16, 256)

    def test_bad_constant(self):
        with pytest.raises(ValueError):
            density_floor_check(DRIFT, Fraction(1, 20), 0, 256)


class TestCesaro:
    def test_n_one_is_identity(self):
        mu = measure_from_rv(DRIFT, Fraction(1, 10), 128)
        out = cesaro_average(mu, 1)
        assert np.abs(out.weights - mu.weights).max() < 1e-15

    def test_half_shift_two_step_orbit(self):
        mu = GridMeasure(128, np.eye(128)[64])
        out = cesaro_average(mu, 2)
        assert abs(out.weights[64] - 0.5) < 1e-15
        assert abs(out.weights[0] - 0.5) < 1e-15


class TestLemmaCheck:
    """Pointwise-density contraction ||f * mu||_p <= (1 - c) ||f||_p + 1e-9,
    c = min(1, M * min cell mass), on random mean-zero f and p in {1, 2, inf}."""

    @staticmethod
    def _worst_margin(mu: GridMeasure, c: float, trials: int = 8) -> float:
        rng = np.random.default_rng(DEFAULT_SEED)
        worst = -math.inf
        for _ in range(trials):
            f = GridFunction.random_mean_zero(mu.M, rng)
            g = apply_markov(f, mu)
            for p in (1, 2, math.inf):
                worst = max(worst, g.lp_norm(p) - (1 - c) * f.lp_norm(p))
        return worst

    def test_uniform_full_averaging(self):
        mu = GridMeasure(128, np.full(128, 1 / 128))
        c = min(1.0, mu.density_floor())
        assert c == 1.0 and self._worst_margin(mu, c) <= 1e-9

    def test_mixture_with_uniform_floor(self):
        M = 128
        w = 0.5 * np.full(M, 1 / M)
        w[0] += 0.5
        mu = GridMeasure(M, w)
        c = min(1.0, mu.density_floor())
        assert abs(c - 0.5) < 1e-12 and self._worst_margin(mu, c) <= 1e-9

    def test_singular_degenerates_to_young(self):
        mu = GridMeasure(128, np.eye(128)[64])
        c = min(1.0, mu.density_floor())
        assert c == 0.0 and self._worst_margin(mu, c) <= 1e-9


class TestTaylorLimit:
    def test_single_harmonic(self):
        r = taylor_limit_check([(1, 1.0)],
                               (Fraction(1, 50), Fraction(1, 100), Fraction(1, 200)),
                               4096)
        assert r["relative_error"] <= 0.02
        assert abs(r["closed_form"] - (2 * math.pi) ** 2 / (6 * math.sqrt(2))) < 1e-12

    def test_two_harmonics_closed_form(self):
        r = taylor_limit_check([(1, 1.0), (3, 1 / 9)],
                               (Fraction(1, 50), Fraction(1, 100), Fraction(1, 200)),
                               4096)
        assert r["relative_error"] <= 0.02

    def test_rejects_constant_component(self):
        with pytest.raises(ValueError):
            taylor_limit_check([(0, 1.0)], (Fraction(1, 50), Fraction(1, 100)), 256)

    def test_rejects_coarse_grid(self):
        with pytest.raises(UnderResolved):
            taylor_limit_check([(1, 1.0)], (Fraction(1, 50), Fraction(1, 100)), 32)
