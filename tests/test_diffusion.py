"""Grid diffusion model: discretization, convolution, contraction."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirp.diffusion import (GridFunction, GridMeasure, RVSpec, _witness_functions,
                            apply_markov, cesaro_average, contraction_factor,
                            contraction_lemma_check, convolution_power,
                            convolve, density_floor_check, measure_from_rv,
                            parse_rv, scaling_fit, taylor_limit_check)
from dirp.errors import GridMismatch, ParseError, UnderResolved, ZeroDrift

DRIFT = RVSpec.uniform(0, Fraction(1, 2))
SYM = RVSpec.uniform(Fraction(-1, 2), Fraction(1, 2))


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


class TestRVSpec:
    def test_parse_uniform(self):
        Y = parse_rv("uniform:0:0.5")
        assert Y.uniforms == ((Fraction(1), Fraction(0), Fraction(1, 2)),)
        assert Y.mean == Fraction(1, 4) and Y.ac_width == Fraction(1, 2)

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
        from dirp.diffusion import _cyclic_conv_direct, _cyclic_conv_fft
        rng = np.random.default_rng(7)
        a = rng.random(512); a /= a.sum()
        b = rng.random(512); b /= b.sum()
        assert np.abs(_cyclic_conv_direct(a, b)
                      - _cyclic_conv_fft(a, b)).max() < 1e-12

    def test_direct_equals_full_mode_slice_bit_for_bit(self):
        from dirp.diffusion import _cyclic_conv_direct

        def full_mode_slice(a, b):  # the earlier implementation, as the oracle
            M = len(a)
            return np.convolve(a, np.concatenate([b, b]))[M:2 * M]

        rng = np.random.default_rng(11)
        for M in (64, 4096, *rng.integers(65, 4096, 30)):
            a, b = rng.random(M), rng.random(M)
            assert np.array_equal(_cyclic_conv_direct(a, b), full_mode_slice(a, b))

    def test_direct_matches_exact_cyclic_convolution(self):
        from dirp.diffusion import _cyclic_conv_direct
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

    @given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 16))
    @settings(max_examples=25, deadline=None)
    def test_mass_conserved(self, seed, n):
        rng = np.random.default_rng(seed)
        w = rng.random(64)
        mu = GridMeasure(64, w / w.sum())
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
    def test_uniform_full_averaging(self):
        rep = contraction_lemma_check(GridMeasure.uniform(128), 8)
        assert rep.c == 1.0 and rep.holds

    def test_mixture_with_uniform_floor(self):
        M = 128
        w = 0.5 * np.full(M, 1 / M)
        w[0] += 0.5
        rep = contraction_lemma_check(GridMeasure(M, w), 8)
        assert abs(rep.c - 0.5) < 1e-12 and rep.holds

    def test_singular_degenerates_to_young(self):
        rep = contraction_lemma_check(GridMeasure.delta(128, 64), 8)
        assert rep.c == 0.0 and rep.holds


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
