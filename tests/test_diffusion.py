"""Grid diffusion model: discretization, convolution, contraction."""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirp import diffusion
from dirp.diffusion import (DEFAULT_SEED, GridFunction, GridMeasure, RVSpec,
                            _convolver, _cyclic_conv, _witness_functions,
                            apply_markov, cesaro_average, contraction_factor,
                            convolution_power, convolve, density_floor_check,
                            measure_from_rv, parse_rv, scaling_fit,
                            taylor_limit_check)
from dirp.errors import GridMismatch, ParseError, UnderResolved, ZeroDrift

DRIFT = RVSpec.uniform(0, Fraction(1, 2))
SYM = RVSpec.uniform(Fraction(-1, 2), Fraction(1, 2))
MIX = parse_rv("mix:[(1/2,uniform;-1/4;1/4),(1/2,atoms;[(1/3,1)])]")
FIT_T_GRID = [Fraction(1, n) for n in (10, 20, 50, 100, 200)]


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _python_exit_code(code: str, timeout: float) -> int:
    """Exit code of `python -c code` in a fresh process that imports this dirp."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=timeout).returncode


def _cyclic_conv_direct(a, b):
    """_convolver's direct branch, which it takes up to _DIRECT_CONV_MAX cells."""
    assert len(b) <= diffusion._DIRECT_CONV_MAX
    return _convolver(b)(a)


def _cyclic_conv_fft(a, b):
    """_convolver's FFT branch, taken at any size once the switch is 0 cells."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diffusion, "_DIRECT_CONV_MAX", 0)
        return _convolver(b)(a)


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
        out = convolve(mu, GridMeasure.delta(256))
        assert np.abs(out.weights - mu.weights).max() < 1e-15

    def test_uniform_is_absorbing(self):
        u = GridMeasure.uniform(128)
        mu = measure_from_rv(DRIFT, Fraction(1, 10), 128)
        out = convolve(mu, u)
        assert np.abs(out.weights - 1 / 128).max() < 1e-15

    def test_direct_matches_fft(self):
        rng = np.random.default_rng(7)
        a = rng.random(512); a /= a.sum()
        b = rng.random(512); b /= b.sum()
        assert np.abs(_cyclic_conv_direct(a, b)
                      - _cyclic_conv_fft(a, b)).max() < 1e-12

    def test_direct_equals_full_mode_slice_bit_for_bit(self):
        def full_mode_slice(a, b):  # the earlier implementation, as the oracle
            M = len(a)
            return np.convolve(a, np.concatenate([b, b]))[M:2 * M]

        rng = np.random.default_rng(11)
        for M in (64, 4096, *rng.integers(65, 4096, 30)):
            a, b = rng.random(M), rng.random(M)
            assert np.array_equal(_cyclic_conv_direct(a, b), full_mode_slice(a, b))

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

    def test_direct_kernel_outputs_do_not_alias(self):
        rng = np.random.default_rng(3)
        step = _convolver(rng.random(256))
        first = step(rng.random(256))
        kept = first.copy()
        second = step(rng.random(256))
        assert first.tobytes() == kept.tobytes()
        assert not np.shares_memory(first, second)

    @pytest.mark.parametrize("M", [2049, 4095, 4096])
    def test_split_kernel_bytes_equal_one_call(self, M):
        # above _ONE_THREAD_CONV_MAX the two output halves run on two threads;
        # each output is the same dot as in one np.correlate call
        assert diffusion._ONE_THREAD_CONV_MAX < M <= diffusion._DIRECT_CONV_MAX
        rng = np.random.default_rng(M)
        b = rng.random(M)
        doubled = np.concatenate([b[1:], b])
        step = _convolver(b)
        for _ in range(3):
            a = rng.random(M)
            assert (step(a).tobytes()
                    == np.correlate(doubled, a[::-1].copy(), "valid").tobytes())

    def test_split_kernels_used_alternately_do_not_alias(self):
        rng = np.random.default_rng(4)
        M = 4096
        bs = [rng.random(M), rng.random(M)]
        steps = [_convolver(b) for b in bs]
        outs = []
        for i in range(4):
            a = rng.random(M)
            out = steps[i % 2](a)
            doubled = np.concatenate([bs[i % 2][1:], bs[i % 2]])
            assert out.tobytes() == np.correlate(doubled, a[::-1].copy(), "valid").tobytes()
            outs.append((out, out.copy()))
        for out, kept in outs:
            assert out.tobytes() == kept.tobytes()
        for i, (first, _) in enumerate(outs):
            assert not any(np.shares_memory(first, later) for later, _ in outs[i + 1:])

    def test_split_kernel_in_a_forked_child(self):
        # the child cannot use the parent's worker thread; it makes its own,
        # and both processes exit without waiting on a stale thread
        script = """if True:
            import os, numpy as np
            from dirp.diffusion import _convolver
            rng = np.random.default_rng(1)
            b, a = rng.random(4096), rng.random(4096)
            step = _convolver(b)
            want = step(a).tobytes()
            pid = os.fork()
            if pid == 0:
                os._exit(0 if step(a).tobytes() == want else 3)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            assert step(a).tobytes() == want
        """
        assert _python_exit_code(script, timeout=120) == 0

    def test_criterion_13_process_exits(self):
        code = "from dirp.report import criterion_13; criterion_13()"
        assert _python_exit_code(code, timeout=300) == 0

    def test_direct_matches_exact_cyclic_convolution(self):
        M = 64
        rng = np.random.default_rng(5)
        a = rng.integers(1, 1000, M) / 1024
        b = rng.random(M)
        fa = [Fraction(float(x)) for x in a]
        fb = [Fraction(float(x)) for x in b]
        exact = [sum(fa[i] * fb[(n - i) % M] for i in range(M)) for n in range(M)]
        got = _cyclic_conv_direct(a, b)
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
            convolve(GridMeasure.uniform(64), GridMeasure.uniform(128))

    @pytest.mark.parametrize("M", [2048, 4096])
    def test_cesaro_equals_running_cyclic_conv_bytes(self, M):
        # one prepared kernel per loop on the direct side of the switch,
        # whose bytes the report pins
        mu = measure_from_rv(DRIFT, Fraction(1, 20), M)
        n = 48
        acc = mu.weights.copy()
        power = mu.weights
        for _ in range(n - 1):
            power = _cyclic_conv(power, mu.weights)
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
        g = apply_markov(f, GridMeasure.delta(256))
        assert np.abs(g.values - f.values).max() < 1e-15

    def test_uniform_annihilates_mean_zero(self):
        f = GridFunction.harmonic(256, 1)
        g = apply_markov(f, GridMeasure.uniform(256))
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
        mu = GridMeasure.delta(128, 64)
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
        mu = GridMeasure.uniform(128)
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
        mu = GridMeasure.delta(128, 64)
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
