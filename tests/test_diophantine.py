"""Continued fractions, lattice minima and classical constants."""

import itertools
import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirp import diophantine
from dirp.certified import CertifiedReal
from dirp.cli import main
from dirp.constants import e_cr, pi_cr
from dirp.diophantine import (LinearFormSystem, bounded_quotient_report,
                              cf_expand, delta_from_sigma, hurwitz_witnesses,
                              lattice_min, lattice_min_profile, markov_bounds,
                              roth_exponents, system_lattice_min)
from dirp.directions import make_direction, parse_direction
from dirp.errors import (NonpositiveSigma, PrecisionExhausted, RationalRatio,
                         UnsupportedLevel)
from dirp.quadratic import GOLDEN_RATIO, SQRT2, QuadExact

mpmath.mp.dps = 80

PHI = make_direction([1, GOLDEN_RATIO])


def known_e_quotients(depth):
    """[2; 1, 2, 1, 1, 4, 1, 1, 6, 1, 1, 8, ...] from the classical pattern."""
    out = [2]
    m = 2
    while len(out) < depth:
        out += [1, m, 1]
        m += 2
    return out[:depth]


class TestContinuedFractions:
    def test_rational_terminates(self):
        cf = cf_expand(Fraction(355, 113), 10)
        assert cf.quotients == [3, 7, 16]
        assert cf.finite and cf.exact
        assert cf.convergents[-1] == (355, 113)

    def test_golden_ratio_all_ones(self):
        cf = cf_expand(GOLDEN_RATIO, 30)
        assert cf.quotients == [1] * 30
        assert cf.exact and cf.period is not None
        assert cf.period[1] == [1]

    def test_sqrt2_periodic_twos(self):
        cf = cf_expand(SQRT2, 30)
        assert cf.quotients == [1] + [2] * 29
        assert cf.exact
        pre, cycle = cf.period
        assert cycle == [2]

    def test_sqrt2_convergents_are_pell(self):
        cf = cf_expand(SQRT2, 8)
        assert cf.convergents[:6] == [(1, 1), (3, 2), (7, 5), (17, 12),
                                      (41, 29), (99, 70)]

    def test_e_matches_classical_pattern(self):
        cf = cf_expand(e_cr(), 25)
        assert cf.certified_depth >= 25
        assert cf.quotients[:25] == known_e_quotients(25)

    def test_e_matches_mpmath_interval_oracle(self):
        # independent: run plain floor/invert on a 100-digit numeric e
        mpmath.mp.dps = 100
        x = mpmath.e
        quotients = []
        for _ in range(20):
            a = int(mpmath.floor(x))
            quotients.append(a)
            x = 1 / (x - a)
        cf = cf_expand(e_cr(), 20)
        assert cf.quotients[:20] == quotients

    def test_pi_to_depth_1200_matches_mpmath(self):
        # the series refine past any fixed literal: 1200 quotients need
        # about 1230 digits of pi
        mpmath.mp.dps = 1400
        x, quotients = +mpmath.pi, []
        for _ in range(1200):
            a = int(mpmath.floor(x))
            quotients.append(a)
            x = 1 / (x - a)
        cf = cf_expand(pi_cr(), 1200)
        assert cf.certified_depth == 1200
        assert cf.quotients == quotients

    def test_short_literal_reports_partial_depth(self):
        x = CertifiedReal.from_decimal_literal("2.718")
        cf = cf_expand(x, 25)
        assert not cf.exact
        assert cf.certified_depth < 25
        assert "certified only" in cf.note

    @given(x=st.fractions(min_value=Fraction(-50), max_value=Fraction(50),
                          max_denominator=9973))
    @settings(max_examples=80, deadline=None)
    def test_convergent_determinant_is_unit(self, x):
        cf = cf_expand(x, 40)
        cs = cf.convergents
        for (p1, q1), (p2, q2) in zip(cs, cs[1:]):
            assert abs(p2 * q1 - p1 * q2) == 1

    @given(x=st.fractions(min_value=Fraction(0), max_value=Fraction(50),
                          max_denominator=9973))
    @settings(max_examples=60, deadline=None)
    def test_rational_cf_reconstructs_value(self, x):
        cf = cf_expand(x, 64)
        assert cf.finite
        p, q = cf.convergents[-1]
        assert Fraction(p, q) == x

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            cf_expand(SQRT2, 0)


class TestBoundedQuotients:
    def test_golden_never_exceeds(self):
        rep = bounded_quotient_report(cf_expand(GOLDEN_RATIO, 30), 10)
        assert rep.max_quotient == 1 and not rep.exceeded
        assert "not a proof" in rep.verdict

    def test_sqrt2_max_two(self):
        rep = bounded_quotient_report(cf_expand(SQRT2, 30), 10)
        assert rep.max_quotient == 2 and not rep.exceeded

    def test_e_exceeds_ten(self):
        rep = bounded_quotient_report(cf_expand(e_cr(), 25), 10)
        assert rep.max_quotient >= 10 and rep.exceeded
        assert "inadmissible" in rep.verdict


def brute_force_min(alpha_mp, R, sigma=1.0, norm="euclidean"):
    """Independent float oracle at mpmath precision: min |k|^sigma |<k,alpha>|."""
    best, best_k = None, None
    for k1, k2 in itertools.product(range(-R, R + 1), repeat=2):
        if (k1, k2) == (0, 0) or (norm == "euclidean" and k1 * k1 + k2 * k2 > R * R):
            continue
        size = mpmath.sqrt(k1 * k1 + k2 * k2) if norm == "euclidean" else max(abs(k1), abs(k2))
        v = mpmath.mpf(size) ** sigma * abs(k1 * alpha_mp[0] + k2 * alpha_mp[1])
        if best is None or v < best:
            best, best_k = v, (k1, k2)
    return best, best_k


class TestLatticeMin:
    def test_sqrt2_floor_small_radius_vs_oracle(self):
        mpmath.mp.dps = 60
        res = lattice_min(make_direction([SQRT2, 1]), 25, 1)
        ref, ref_k = brute_force_min((mpmath.sqrt(2), mpmath.mpf(1)), 25)
        assert abs(float(res.minimum) - float(ref)) < 1e-12
        assert res.argmin in (ref_k, tuple(-c for c in ref_k))

    def test_sqrt2_min_is_exact_two_minus_sqrt2(self):
        res = lattice_min(make_direction([SQRT2, 1]), 200, 1)
        assert res.minimum.exact == QuadExact(2, -1, 2)
        assert res.argmin == (1, -1)
        assert (res.minimum - Fraction(1, 3)).sign() == 1

    def test_golden_ratio_vs_oracle(self):
        mpmath.mp.dps = 60
        res = lattice_min(PHI, 25, 1)
        phi = (1 + mpmath.sqrt(5)) / 2
        ref, ref_k = brute_force_min((mpmath.mpf(1), phi), 25)
        assert abs(float(res.minimum) - float(ref)) < 1e-12
        assert res.argmin in (ref_k, tuple(-c for c in ref_k))

    def test_golden_argmin_at_r100(self):
        res = lattice_min(PHI, 100, 1)
        assert res.argmin == (55, -34)
        assert abs(float(res.minimum) - 0.850654) < 1e-5

    def test_rational_dependence_zero_witness(self):
        res = lattice_min(make_direction([1, 0]), 50, 1)
        assert res.exact_zero_witness == (0, 1)
        assert res.minimum.sign() == 0

    def test_dimension_one(self):
        res = lattice_min(make_direction([Fraction(3, 7)]), 10, 1)
        assert res.argmin == (1,)
        assert res.minimum.exact.as_fraction() == Fraction(3, 7)

    def test_dimension_one_negative_sigma(self):
        # |k|^-3 * |3k/2| falls with k, so the minimum sits on the sphere
        res = lattice_min(make_direction([Fraction(3, 2)]), 10, -3)
        assert res.argmin == (10,) and res.enumerated == 10
        assert res.minimum.exact.as_fraction() == Fraction(3, 200)

    def test_negative_sigma_cli_vs_brute_force(self, capsys):
        assert main(["lattice", "--direction", "dir:[1, quad:sqrt2]", "--radius", "10",
                     "--sigma=-1/2"]) == 0
        got = json.loads(capsys.readouterr().out)["result"]
        mpmath.mp.dps = 60
        alpha = (mpmath.mpf(1), mpmath.sqrt(2))
        ref, ref_k = brute_force_min(alpha, 10, sigma=-0.5)
        assert tuple(got["argmin"]) in (ref_k, tuple(-c for c in ref_k))
        assert abs(mpmath.mpf(got["minimum"]["value"]) - ref) < mpmath.mpf(10) ** -40
        for norm in ("euclidean", "max"):
            res = lattice_min(make_direction([1, SQRT2]), 20, Fraction(-1, 2), norm)
            ref, ref_k = brute_force_min(alpha, 20, sigma=-0.5, norm=norm)
            assert res.argmin in (ref_k, tuple(-c for c in ref_k))
            assert abs(mpmath.mpf(res.minimum.to_json(50)["value"]) - ref) < mpmath.mpf(10) ** -40
            records = lattice_min_profile(make_direction([1, SQRT2]), 20, Fraction(-1, 2), norm)
            assert records[-1][1] == res.argmin

    def test_max_norm_never_exceeds_euclidean(self):
        r_e = lattice_min(PHI, 50, 1, norm="euclidean")
        r_m = lattice_min(PHI, 50, 1, norm="max")
        assert (r_m.minimum - r_e.minimum).sign_soft() in (-1, 0)

    def test_monotone_nonincreasing_in_radius(self):
        vals = [lattice_min(PHI, R, 1).minimum for R in (5, 20, 80)]
        for a, b in zip(vals, vals[1:]):
            assert (a - b).sign_soft() in (0, 1)

    def test_profile_agrees_with_direct_minima(self):
        records = lattice_min_profile(PHI, 40, 1)
        for R in (5, 12, 40):
            last = None
            for ns, k, v in records:
                if ns <= R * R:
                    last = (k, v)
            direct = lattice_min(PHI, R, 1)
            assert last[0] == direct.argmin
            lo, hi = (last[1] - direct.minimum).enclosure(40)
            assert -Fraction(1, 10 ** 30) <= lo and hi <= Fraction(1, 10 ** 30)

    def test_unresolvable_direction_raises(self):
        # a frozen 1-ulp literal cannot separate <(1,-2), (1, 0.5)> from 0
        a = make_direction([1, "dec:0.5000"])
        with pytest.raises(PrecisionExhausted):
            lattice_min(a, 5, 1)

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            lattice_min(PHI, 0, 1)

    def test_profile_bad_radius(self):
        with pytest.raises(ValueError, match="R must be"):
            lattice_min_profile(PHI, 0, 1)

    def test_profile_bad_norm(self):
        with pytest.raises(ValueError, match="norm must be"):
            lattice_min_profile(PHI, 10, 1, norm="bogus")

    def test_zero_direction_witness(self):
        res = lattice_min(make_direction([0, 0]), 3, 1)
        assert res.exact_zero_witness == (0, 1) and res.enumerated == 14

    def test_golden_radius_1e5(self):
        res = lattice_min(PHI, 100_000, 1)
        assert res.argmin == (75025, -46368)
        assert res.enumerated == 15_707_962_728


# ---------------------------------------------------------------------------
# the column-window kernel against full enumeration
# ---------------------------------------------------------------------------

def _full_enumeration(d, R, norm):
    """Every frequency of the ball whose first nonzero coordinate is positive."""
    K = np.array([k for k in itertools.product(range(-R, R + 1), repeat=d)
                  if next((c for c in k if c), 0) > 0
                  and (norm == "max" or sum(c * c for c in k) <= R * R)],
                 dtype=np.int64).reshape(-1, d)
    return K, (K * K).sum(axis=1)


def _oracle_brackets(a, R, sigma, norm):
    """The float prefilter over the whole ball: (K, |K|^2, lo, hi)."""
    K, normsq = _full_enumeration(a.dim, R, norm)
    alpha = np.array(a.floats(), dtype=np.float64)
    err = np.array(a.float_radii(), dtype=np.float64) + 1e-15 * (np.abs(alpha) + 1.0)
    inner = K @ alpha
    ierr = np.abs(K).astype(np.float64) @ err
    if norm == "euclidean":
        w = normsq.astype(np.float64) ** (float(sigma) / 2)
    else:
        w = np.abs(K).max(axis=1).astype(np.float64) ** float(sigma)
    val = w * np.abs(inner)
    verr = w * ierr * 1.01 + val * 1e-12 + 1e-290
    return K, normsq, val - verr, val + verr


def _shell_sorted(K, normsq, idx):
    return sorted((int(normsq[i]), tuple(int(c) for c in K[i])) for i in idx)


def _oracle_candidates(a, R, sigma, norm):
    K, normsq, lo, hi = _oracle_brackets(a, R, sigma, norm)
    return _shell_sorted(K, normsq, np.nonzero(lo <= hi.min())[0])


def _oracle_lattice_min(a, R, sigma, norm):
    best, best_k, witness = None, None, None
    for _, k in _oracle_candidates(a, R, sigma, norm):
        value = diophantine._certified_value(k, a, sigma, norm, diophantine.DEFAULT_CONTEXT)
        if value is None:
            best, best_k, witness = CertifiedReal.from_rational(0), k, k
            break
        if best is None or (value.compare(best) or 0) < 0:
            best, best_k = value, k
    return (best.to_json(40), best_k, witness, len(_full_enumeration(a.dim, R, norm)[0]))


def _oracle_profile(a, R, sigma, norm):
    K, normsq, lo, hi = _oracle_brackets(a, R, sigma, norm)
    order = [i for _, _, i in sorted((int(normsq[i]), tuple(K[i]), i) for i in range(len(K)))]
    records, best, run_hi = [], None, np.inf
    for i in order:
        candidate = lo[i] <= run_hi
        run_hi = min(run_hi, hi[i])
        if not candidate:
            continue
        k = tuple(int(c) for c in K[i])
        value = diophantine._certified_value(k, a, sigma, norm, diophantine.DEFAULT_CONTEXT)
        if value is None:
            records.append((int(normsq[i]), k, CertifiedReal.from_rational(0)))
            break
        if best is None or (value.compare(best) or 0) < 0:
            best = value
            records.append((int(normsq[i]), k, value))
    return [(ns, k, v.to_json(40)) for ns, k, v in records]


def _oracle_system(S, R):
    """Both variants of system_lattice_min by the float prefilter over the whole box."""
    X, _ = _full_enumeration(S.nvars, R, "max")
    A = np.array([f.floats() for f in S.forms], dtype=np.float64)
    Aerr = np.array([f.float_radii() for f in S.forms], dtype=np.float64) \
        + 1e-15 * (np.abs(A) + 1.0)
    L = X @ A.T
    emax = (np.abs(X).astype(np.float64) @ Aerr.T).max(axis=1)
    maxn = np.abs(X).max(axis=1)
    expo = Fraction(S.nvars, S.ell)
    out = []
    for e, mag, use_dist in ((expo, np.abs(L - np.rint(L)).max(axis=1), True),
                             (max(expo - 1, Fraction(0)), np.abs(L).max(axis=1), False)):
        w = maxn.astype(np.float64) ** float(e)
        val = mag * w
        verr = w * emax * 1.01 + val * 1e-12 + 1e-290
        best, best_x, witness = None, None, None
        for _, x in _shell_sorted(X, maxn, np.nonzero(val - verr <= (val + verr).min())[0]):
            parts = [abs(ip) if not use_dist else
                     diophantine._dist_to_int_cr(ip, diophantine.DEFAULT_CONTEXT)
                     for ip in (diophantine.inner_product(x, f) for f in S.forms)]
            if all(v.sign() == 0 for v in parts):
                best, best_x, witness = CertifiedReal.from_rational(0), x, x
                break
            m = parts[0]
            for v in parts[1:]:
                if (v.compare(m) or 0) > 0:
                    m = v
            value = m * CertifiedReal.from_rational(max(abs(c) for c in x)).pow_frac(e)
            if best is None or (value.compare(best) or 0) < 0:
                best, best_x = value, x
        out.append((best, best_x, witness))
    (m1, x1, w1), (m2, x2, _) = out
    return m1.to_json(40), x1, w1, len(X), m2.to_json(40), x2


def _random_directions(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        D = int(rng.choice([2, 3, 5, 6, 7]))
        quad = f"quad:({int(rng.integers(-3, 4))}+sqrt{D})/{int(rng.integers(1, 5))}"
        rat = f"rat:{int(rng.integers(-5, 6))}/{int(rng.integers(1, 4))}"
        entries = [quad, rat] if i % 2 else [rat, quad]
        if i % 3 == 2:
            entries.append(f"quad:sqrt{D}")
        out.append("dir:[" + ", ".join(entries) + "]")
    return out


KERNEL_DIRECTIONS = _random_directions(2024, 6) + [
    "dir:[1, 0]", "dir:[0, quad:sqrt2, 1]", "dir:[0, 0]"]
SIGMAS = (Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1))


class TestColumnWindowKernel:
    @pytest.mark.parametrize("spec", KERNEL_DIRECTIONS)
    def test_lattice_min_and_profile_match_full_enumeration(self, spec):
        a = parse_direction(spec)
        R = 12 if a.dim == 2 else 5
        for sigma, norm in itertools.product(SIGMAS, ("euclidean", "max")):
            K, normsq, lo, hi, _ = diophantine._column_windows(a, R, sigma, norm)
            kernel = _shell_sorted(K, normsq, np.nonzero(lo <= hi.min())[0])
            assert kernel == _oracle_candidates(a, R, sigma, norm)

            def search():
                res = lattice_min(a, R, sigma, norm)
                return (res.minimum.to_json(40), res.argmin, res.exact_zero_witness,
                        res.enumerated)

            # every case certifies, negative sigma included
            assert search() == _oracle_lattice_min(a, R, sigma, norm)
            profile = [(ns, k, v.to_json(40))
                       for ns, k, v in lattice_min_profile(a, R, sigma, norm)]
            assert profile == _oracle_profile(a, R, sigma, norm)

    def test_windows_beyond_the_nearest_integer(self):
        # at small radii and large sigma a column's minimum can sit off its
        # nearest integer, so only the window width keeps these candidates
        for spec in _random_directions(7, 40):
            a = parse_direction(spec)
            for R, sigma, norm in itertools.product((1, 2, 3), (2, 3), ("euclidean", "max")):
                K, normsq, lo, hi, _ = diophantine._column_windows(a, R, Fraction(sigma), norm)
                kernel = _shell_sorted(K, normsq, np.nonzero(lo <= hi.min())[0])
                assert kernel == _oracle_candidates(a, R, sigma, norm), (spec, R, sigma, norm)

    @pytest.mark.parametrize("forms,R", [
        (["dir:[quad:sqrt2]"], 40), (["dir:[rat:2/7]"], 30),
        (["dir:[quad:(1+sqrt5)/2, quad:sqrt5]"], 7), (["dir:[0, quad:sqrt3]"], 6),
        (["dir:[quad:sqrt2, quad:sqrt3]", "dir:[quad:sqrt5, rat:1/3]"], 6)])
    def test_system_matches_full_enumeration(self, forms, R):
        S = LinearFormSystem(tuple(parse_direction(f) for f in forms))
        res = system_lattice_min(S, R)
        got = (res.minimum.to_json(40), res.argmin, res.exact_zero_witness,
               res.enumerated, res.improved_minimum.to_json(40), res.improved_argmin)
        assert got == _oracle_system(S, R)

    def test_zero_direction_is_searched_whole(self):
        a = make_direction([0, 0])
        K, normsq, lo, hi, enumerated = diophantine._column_windows(a, 3, Fraction(1), "euclidean")
        assert enumerated == len(K) == 14


class TestSystemLatticeMin:
    def test_single_form_golden_vs_brute_force(self):
        mpmath.mp.dps = 60
        S = LinearFormSystem((make_direction([GOLDEN_RATIO]),))
        res = system_lattice_min(S, 100)
        phi = (1 + mpmath.sqrt(5)) / 2
        best, best_q = None, None
        for q in range(1, 101):
            v = q * phi
            val = abs(v - mpmath.nint(v)) * q
            if best is None or val < best:
                best, best_q = val, q
        # the small-q value ||phi|| * 1 = 2 - phi beats the 1/sqrt5 liminf
        assert best_q == 1 and res.argmin == (1,)
        assert abs(float(res.minimum) - float(best)) < 1e-12
        assert res.dirichlet_envelope_ok

    def test_single_form_sqrt2(self):
        S = LinearFormSystem((make_direction([SQRT2]),))
        res = system_lattice_min(S, 100)
        # ||2 sqrt2|| * 2 = 2(3 - 2 sqrt2) ~ 0.3431
        assert abs(float(res.minimum) - float(2 * (3 - 2 * math.sqrt(2)))) < 1e-12
        assert res.argmin == (2,)

    def test_two_variable_form_vs_brute_force(self):
        mpmath.mp.dps = 60
        s2, s3 = mpmath.sqrt(2), mpmath.sqrt(3)
        S = LinearFormSystem((make_direction([SQRT2, "quad:sqrt3"]),))
        R = 8
        res = system_lattice_min(S, R)
        best = None
        for x1, x2 in itertools.product(range(-R, R + 1), repeat=2):
            if (x1, x2) == (0, 0):
                continue
            v = x1 * s2 + x2 * s3
            dist = abs(v - mpmath.nint(v))
            val = dist * max(abs(x1), abs(x2)) ** 2
            if best is None or val < best:
                best = val
        assert float(res.minimum) <= float(best) + 1e-12
        assert float(res.minimum) >= float(best) - 1e-12

    def test_rational_form_zero_witness(self):
        S = LinearFormSystem((make_direction([Fraction(1, 3)]),))
        res = system_lattice_min(S, 10)
        assert res.exact_zero_witness == (3,)
        assert res.minimum.sign() == 0

    def test_too_many_forms_rejected(self):
        with pytest.raises(ValueError):
            LinearFormSystem((make_direction([1]), make_direction([2])))


class TestExponentTables:
    def test_delta_values(self):
        assert delta_from_sigma(1) == (Fraction(1, 2), Fraction(1, 2))
        assert delta_from_sigma(7) == (Fraction(7, 8), Fraction(1, 8))
        assert delta_from_sigma(Fraction(13, 5)) == (Fraction(13, 18), Fraction(5, 18))

    def test_delta_pairs_sum_to_one(self):
        for sigma in (Fraction(1, 3), 2, Fraction(9, 4)):
            eg, ed = delta_from_sigma(sigma)
            assert eg + ed == 1 and ed == Fraction(1) / (Fraction(sigma) + 1)

    def test_nonpositive_sigma(self):
        with pytest.raises(NonpositiveSigma):
            delta_from_sigma(0)

    def test_roth(self):
        assert roth_exponents(Fraction(1, 10)) == (Fraction(3, 5), Fraction(2, 5))
        with pytest.raises(ValueError):
            roth_exponents(Fraction(1, 2))

    def test_markov_constants(self):
        assert markov_bounds(1).exact == QuadExact(0, 1, 5)
        assert markov_bounds(2).exact == QuadExact(0, 1, 8)
        assert markov_bounds(3).exact == QuadExact(0, Fraction(1, 5), 221)
        mpmath.mp.dps = 60
        assert abs(float(markov_bounds(3)) - float(mpmath.sqrt(221) / 5)) < 1e-12

    def test_markov_unsupported(self):
        with pytest.raises(UnsupportedLevel):
            markov_bounds(4)


class TestHurwitz:
    def test_golden_witnesses_approach_floor(self):
        ws = hurwitz_witnesses(PHI, 8)
        assert len(ws) == 8
        products = [float(w.product) for w in ws]
        assert all(0.84 < p < 1.0 for p in products)
        limit = math.sqrt(1 + ((1 + math.sqrt(5)) / 2) ** 2) / math.sqrt(5)
        assert abs(products[-1] - limit) < 1e-3

    def test_sqrt2_witnesses(self):
        ws = hurwitz_witnesses(make_direction([SQRT2, 1]), 5)
        assert len(ws) == 5
        # every witness satisfies the Hurwitz inequality by construction
        sqrt5 = CertifiedReal.from_quad(QuadExact(0, 1, 5))
        for w in ws:
            p, q = w.convergent
            ratio = make_direction([SQRT2, 1]).entries[0]
            test = abs(ratio * q - p) * q * sqrt5 - 1
            assert test.sign() <= 0

    def test_rational_slope_rejected(self):
        with pytest.raises(RationalRatio):
            hurwitz_witnesses(make_direction([1, 2]), 3)
