"""Continued fractions, lattice minima and classical constants."""

import itertools
import json
import math
import random
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dirp import diophantine
from dirp.certified import CertifiedReal
from dirp.cli import main
from dirp.constants import e_cr, pi_cr
from dirp.diophantine import (CFExpansion, LinearFormSystem, bounded_quotient_report,
                              cf_expand, delta_from_sigma,
                              lattice_min, lattice_min_profile, markov_bounds,
                              system_lattice_min)
from dirp.directions import (liouville_constant, make_direction, parse_direction,
                             parse_entry)
from dirp.errors import NonpositiveSigma, PrecisionExhausted
from dirp.precision import DEFAULT_CONTEXT, PrecisionContext
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


def mpmath_quotients(x, depth):
    """Plain floor/invert on an mpmath number at the current precision."""
    quotients = []
    for _ in range(depth):
        a = int(mpmath.floor(x))
        quotients.append(a)
        x = 1 / (x - a)
    return quotients


def _quad_floor(x):
    # x = (P + B sqrt d) / n with n > 0, and sqrt(B^2 d) is irrational
    n = math.lcm(x.a.denominator, x.b.denominator)
    P, B = int(x.a * n), int(x.b * n)
    r = math.isqrt(B * B * x.d)
    return (P + (r if B >= 0 else -r - 1)) // n


def quad_exact_cf(x, depth):
    """Floor, subtract and invert in QuadExact arithmetic, keying the period
    on the complete quotient itself: the reference for the integer loop."""
    seen = {}
    quotients = []
    cur = QuadExact(x) if isinstance(x, (int, Fraction)) else x
    period = None
    while len(quotients) < depth:
        if cur in seen:
            start = seen[cur]
            period = (start, quotients[start:])
            break
        seen[cur] = len(quotients)
        a = _quad_floor(cur)
        quotients.append(a)
        frac = cur - a
        if frac.sign() == 0:  # rational
            return CFExpansion(quotients, certified_depth=len(quotients), exact=True,
                               finite=True, note="rational termination")
        cur = 1 / frac
    if period is not None:
        start, cycle = period
        while len(quotients) < depth:
            quotients.append(cycle[(len(quotients) - start) % len(cycle)])
    return CFExpansion(quotients, certified_depth=depth, exact=True, period=period)


def _exact_cf_inputs(seed, count):
    """Rationals of both signs (0 included) and a + b sqrt d with negative
    and fractional b over square-free and non-reduced radicands."""
    rng = random.Random(seed)
    out = [0, 5, -7, Fraction(355, 113), Fraction(-7, 3), Fraction(1, 7),
           Fraction(-355, 113), SQRT2, -SQRT2, GOLDEN_RATIO,
           QuadExact(Fraction(1, 2), Fraction(-1, 2), 5), QuadExact(0, 1, 100000000004)]
    for _ in range(count):
        a = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 3))
        if rng.random() < 0.2:
            out.append(a)
            continue
        b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 999), rng.randint(1, 99))
        d = rng.choice([2, 3, 5, 8, 12, 10007 ** 2 * 2, rng.randrange(2, 10 ** 12)])
        out.append(QuadExact(a, b, d))
    return out


def fraction_cf_interval(x, depth, ctx):
    """The interval expansion in Fraction arithmetic: the reference for the
    integer pairs of diophantine._cf_interval."""
    best = []
    for digits in ctx.digit_schedule():
        lo, hi = x.enclosure(digits)
        quotients = []
        while len(quotients) < depth:
            flo, fhi = math.floor(lo), math.floor(hi)
            if flo != fhi:
                break
            quotients.append(flo)
            lo, hi = lo - flo, hi - flo
            if lo <= 0:  # cannot certify the next inversion
                if lo == 0 and hi == 0:
                    return CFExpansion(quotients, certified_depth=len(quotients),
                                       exact=True, finite=True,
                                       note="rational termination")
                break
            lo, hi = 1 / hi, 1 / lo
        if len(quotients) > len(best):
            best = quotients
        if len(best) >= depth:
            return CFExpansion(best, certified_depth=len(best), exact=False)
        if not x.refinable:
            break
    return CFExpansion(best, certified_depth=len(best), exact=False,
                       note=f"certified only {len(best)} of {depth} quotients "
                            f"from a {digits}-digit enclosure")


def _entry_ratio(spec, j):
    a = parse_direction(spec)
    return a.entries[1 - j] / a.entries[j]


def mpmath_liouville(base):
    """sum base^-n! for n <= 9; the next term is below 10^-3628800."""
    return mpmath.fsum(mpmath.mpf(base) ** -math.factorial(n) for n in range(1, 10))


class TestContinuedFractions:
    def test_rational_terminates(self):
        cf = cf_expand(Fraction(355, 113), 10)
        assert cf.quotients == [3, 7, 16]
        assert cf.finite and cf.exact
        assert cf.convergents[-1] == (355, 113)

    def test_rational_stops_at_depth(self):
        cf = cf_expand(Fraction(355, 113), 2)
        assert cf.quotients == [3, 7] and cf.certified_depth == 2
        assert cf.exact and not cf.finite

    @pytest.mark.parametrize("x, value", [
        (7, Fraction(7)), (Fraction(-22, 7), Fraction(-22, 7)),
        (QuadExact(Fraction(5, 3)), Fraction(5, 3)),
        (CertifiedReal.from_rational(Fraction(13, 8)), Fraction(13, 8))])
    def test_exact_rationals_terminate(self, x, value):
        cf = cf_expand(x, 10)
        assert cf.finite and cf.note == "rational termination"
        assert Fraction(*cf.convergents[-1]) == value

    @pytest.mark.parametrize("base, depth", [(2, 60), (3, 40), (10, 60)])
    def test_liouville_matches_mpmath(self, base, depth):
        # refinement goes on through enclosures that hold still between two
        # series terms; q_60 of liouville:2 has ~1300 digits, so 6000 digits
        # leave the floor/invert oracle more than twice the precision it needs
        mpmath.mp.dps = 6000
        cf = cf_expand(liouville_constant(base), depth)
        assert cf.certified_depth == depth and cf.note == ""
        assert cf.quotients == mpmath_quotients(mpmath_liouville(base), depth)

    def test_secretly_rational_value_refines_to_max_digits(self):
        ctx = PrecisionContext(max_digits=1000)
        cf = cf_expand(pi_cr() / pi_cr(), 5, ctx)
        assert cf.certified_depth == 0
        assert cf.note == "certified only 0 of 5 quotients from a 1000-digit enclosure"

    def test_long_period_needs_no_state_cap(self):
        # period 129678: the expansion is bounded by depth alone
        cf = cf_expand(QuadExact(0, 1, 100000000004), 129688)
        start, cycle = cf.period
        assert (start, len(cycle)) == (1, 129678)
        assert cf.certified_depth == len(cf.quotients) == 129688
        assert cycle[-1] == 2 * math.isqrt(100000000004)
        assert cf.quotients[1 + len(cycle):] == cycle[:9]

    def test_exact_path_matches_quad_exact_oracle(self):
        for x in _exact_cf_inputs(13, 150):
            assert cf_expand(x, 300) == quad_exact_cf(x, 300), x

    def test_exact_path_builds_no_quad_exact(self, monkeypatch):
        x = QuadExact(0, 1, 100000000004)
        built = []
        init = QuadExact.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(QuadExact, "__init__", counted)
        cf = cf_expand(x, 129688)
        assert len(cf.period[1]) == 129678
        assert len(built) == 0

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

    @pytest.mark.parametrize("make", [
        e_cr, pi_cr, lambda: parse_entry("const:log2"), lambda: parse_entry("liouville:10"),
        lambda: parse_entry("liouville:2"), lambda: parse_entry("dec:2.718281828459045"),
        lambda: parse_entry("dec:-0.000123456789"), lambda: parse_entry("dec:1.5"),
        lambda: _entry_ratio("dir:[1, const:e]", 0), lambda: _entry_ratio("dir:[1, const:e]", 1),
        lambda: _entry_ratio("dir:[const:pi, quad:sqrt2]", 0),
        lambda: _entry_ratio("dir:[1, liouville:10]", 0),
        lambda: _entry_ratio("dir:[1, dec:2.718281828459045]", 0),
        lambda: pi_cr() / pi_cr(), lambda: e_cr() - e_cr() + Fraction(7, 3)],
        ids=["e", "pi", "log2", "liouville10", "liouville2", "dec_e", "dec_negative",
             "dec_rational", "e_over_1", "1_over_e", "sqrt2_over_pi", "liouville_over_1",
             "dec_over_1", "pi_over_pi", "secretly_7_3"])
    @pytest.mark.parametrize("depth", [1, 2, 25, 300])
    def test_integer_interval_steps_match_the_fraction_oracle(self, make, depth):
        # fresh values on both sides, so neither reads the other's cached enclosures
        ctx = PrecisionContext(max_digits=2000)
        assert diophantine._cf_interval(make(), depth, ctx) == fraction_cf_interval(make(), depth, ctx)

    @given(lo=st.fractions(min_value=Fraction(-30), max_value=Fraction(30), max_denominator=40),
           width=st.fractions(min_value=Fraction(0), max_value=Fraction(1, 4), max_denominator=40))
    @example(lo=Fraction(17, 5), width=Fraction(1, 10))  # [3; 2, ...]: the low end lands on 2
    @example(lo=Fraction(-7, 3), width=Fraction(0))
    @settings(max_examples=200, deadline=None)
    def test_integer_steps_on_rational_enclosures(self, lo, width):
        # small denominators put endpoints on integers within a few steps,
        # where only the lower end stops the expansion
        ctx = PrecisionContext(working_digits=30, max_digits=60)

        def make():
            return CertifiedReal.from_fn(lambda digits: (lo, lo + width))
        assert diophantine._cf_interval(make(), 40, ctx) == fraction_cf_interval(make(), 40, ctx)

    def test_interval_steps_on_exact_rational_enclosures(self):
        # a value whose enclosure is its exact rational terminates like the oracle
        for x in [Fraction(355, 113), Fraction(-22, 7), Fraction(5), Fraction(0), Fraction(1, 7)]:
            def make(x=x):
                return CertifiedReal.from_fn(lambda digits: (x, x))
            got = diophantine._cf_interval(make(), 30, DEFAULT_CONTEXT)
            assert got == fraction_cf_interval(make(), 30, DEFAULT_CONTEXT)
            assert got.finite and Fraction(*got.convergents[-1]) == x


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

    @pytest.mark.parametrize("entries, sigma, norm, radii", [
        ([1, GOLDEN_RATIO], 1, "euclidean", (5, 12, 40)),
        ([1, "const:e"], Fraction(1, 2), "euclidean", (5, 12, 40)),
        ([1, SQRT2, "quad:sqrt3"], Fraction(1, 2), "euclidean", (3, 7, 12)),
        ([1, SQRT2], Fraction(-1, 2), "euclidean", (5, 12, 40)),
        ([1, "const:e"], 1, "max", (3, 19, 20)),
        ([1, "const:pi"], 1, "max", (3, 22, 23)),
        ([1, SQRT2], 1, "max", (1, 12)),
        ([1, SQRT2, "quad:sqrt3"], 1, "max", tuple(range(1, 10))),
    ], ids=["phi", "e-half", "sqrt2-sqrt3-half", "sqrt2-negative", "e-max", "pi-max",
            "sqrt2-max", "sqrt2-sqrt3-max"])
    def test_profile_agrees_with_direct_minima(self, entries, sigma, norm, radii):
        """lattice_min(R) is the last profile record with shell <= R^2, the
        shell being the search norm squared."""
        a = make_direction(entries)
        records = lattice_min_profile(a, radii[-1], sigma, norm)
        for R in radii:
            last = None
            for ns, k, v in records:
                if ns <= R * R:
                    last = (k, v)
            direct = lattice_min(a, R, sigma, norm)
            assert last[0] == direct.argmin
            # to_json(40) bytes depend on how far each value's comparisons
            # refined it, so the values are compared as certified digits
            assert last[1].significant(40) == direct.minimum.significant(40)

    def test_exact_tie_under_a_quarter_power_weight(self):
        # |k|^(1/2) = (k.k)^(1/4) is exactly 1 at k = (0, 1) and (1, 0), so the
        # two values are exactly sqrt2 and compare without refining to max_digits
        a = parse_direction("dir:[quad:sqrt2, quad:sqrt2]")
        values = [diophantine._certified_value(k, a, Fraction(1, 2), "euclidean",
                                               DEFAULT_CONTEXT) for k in ((0, 1), (1, 0))]
        assert values[0].compare(values[1], PrecisionContext(max_digits=1000)) == 0
        records = lattice_min_profile(a, 2, Fraction(1, 2))
        assert [(ns, k) for ns, k, _ in records] == [(1, (0, 1)), (2, (1, -1))]

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
    """Every frequency of the ball whose first nonzero coordinate is
    positive, and its squared search norm (the shell)."""
    K = np.array([k for k in itertools.product(range(-R, R + 1), repeat=d)
                  if next((c for c in k if c), 0) > 0
                  and (norm == "max" or sum(c * c for c in k) <= R * R)],
                 dtype=np.int64).reshape(-1, d)
    shell = [max(c * c for c in k) if norm == "max" else sum(c * c for c in k) for k in K.tolist()]
    return K, np.array(shell, dtype=np.int64)


def _oracle_floats(form):
    """Float midpoints of the entries' enclosures at 30 digits, and their
    widths padded by 1e-300 so each float is inside its own radius."""
    ivs = [e.enclosure(30) for e in form.entries]
    return [float((lo + hi) / 2) for lo, hi in ivs], [float(hi - lo) + 1e-300 for lo, hi in ivs]


def _oracle_brackets(a, R, sigma, norm):
    """The float prefilter over the whole ball: (K, shell, lo, hi)."""
    K, shell = _full_enumeration(a.dim, R, norm)
    alpha, err = (np.array(v, dtype=np.float64) for v in _oracle_floats(a))
    err = err + 1e-15 * (np.abs(alpha) + 1.0)
    inner = K @ alpha
    ierr = np.abs(K).astype(np.float64) @ err
    if norm == "euclidean":
        w = (K * K).sum(axis=1).astype(np.float64) ** (float(sigma) / 2)
    else:
        w = np.abs(K).max(axis=1).astype(np.float64) ** float(sigma)
    val = w * np.abs(inner)
    verr = w * ierr * 1.01 + val * 1e-12 + 1e-290
    return K, shell, val - verr, val + verr


def _window_pool(a, R, sigma, norm):
    """(K, shell, lo, hi, enumerated) of every block _column_windows yields."""
    blocks, enumerated, _ = diophantine._column_windows(a, R, sigma, norm)
    K, shell, lo, hi = (np.concatenate(parts) for parts in zip(*blocks))
    return K, shell, lo, hi, enumerated


def _shell_sorted(K, shell, idx):
    return sorted((int(shell[i]), tuple(int(c) for c in K[i])) for i in idx)


def _oracle_candidates(a, R, sigma, norm):
    K, shell, lo, hi = _oracle_brackets(a, R, sigma, norm)
    return _shell_sorted(K, shell, np.nonzero(lo <= hi.min())[0])


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
    K, shell, lo, hi = _oracle_brackets(a, R, sigma, norm)
    order = [i for _, _, i in sorted((int(shell[i]), tuple(K[i]), i) for i in range(len(K)))]
    records, best, run_hi = [], None, np.inf
    for i in order:
        candidate = lo[i] <= run_hi
        run_hi = min(run_hi, hi[i])
        if not candidate:
            continue
        k = tuple(int(c) for c in K[i])
        value = diophantine._certified_value(k, a, sigma, norm, diophantine.DEFAULT_CONTEXT)
        if value is None:
            records.append((int(shell[i]), k, CertifiedReal.from_rational(0)))
            break
        if best is None or (value.compare(best) or 0) < 0:
            best = value
            records.append((int(shell[i]), k, value))
    return [(ns, k, v.to_json(40)) for ns, k, v in records]


def _oracle_system(S, R):
    """Both variants of system_lattice_min by the float prefilter over the whole box."""
    X, shell = _full_enumeration(S.nvars, R, "max")
    A, Aerr = (np.array(v, dtype=np.float64) for v in zip(*map(_oracle_floats, S.forms)))
    Aerr = Aerr + 1e-15 * (np.abs(A) + 1.0)
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
        for _, x in _shell_sorted(X, shell, np.nonzero(val - verr <= (val + verr).min())[0]):
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
SYSTEM_CASES = [
    (["dir:[quad:sqrt2]"], 40), (["dir:[rat:2/7]"], 30),
    (["dir:[quad:(1+sqrt5)/2, quad:sqrt5]"], 7), (["dir:[0, quad:sqrt3]"], 6),
    (["dir:[quad:sqrt2, quad:sqrt3]", "dir:[quad:sqrt5, rat:1/3]"], 6)]


class TestColumnWindowKernel:
    @pytest.mark.parametrize("spec", KERNEL_DIRECTIONS)
    def test_lattice_min_and_profile_match_full_enumeration(self, spec):
        a = parse_direction(spec)
        R = 12 if a.dim == 2 else 5
        for sigma, norm in itertools.product(SIGMAS, ("euclidean", "max")):
            K, shell, lo, hi, _ = _window_pool(a, R, sigma, norm)
            kernel = _shell_sorted(K, shell, np.nonzero(lo <= hi.min())[0])
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
                K, shell, lo, hi, _ = _window_pool(a, R, Fraction(sigma), norm)
                kernel = _shell_sorted(K, shell, np.nonzero(lo <= hi.min())[0])
                assert kernel == _oracle_candidates(a, R, sigma, norm), (spec, R, sigma, norm)

    @pytest.mark.parametrize("forms,R", SYSTEM_CASES)
    def test_system_matches_full_enumeration(self, forms, R):
        S = LinearFormSystem(tuple(parse_direction(f) for f in forms))
        res = system_lattice_min(S, R)
        got = (res.minimum.to_json(40), res.argmin, res.exact_zero_witness,
               res.enumerated, res.improved_minimum.to_json(40), res.improved_argmin)
        assert got == _oracle_system(S, R)

    @pytest.mark.parametrize("spec", ["dir:[rat:1e308, rat:1.5e308]", "dir:[1, rat:1e308]",
                                      "dir:[rat:-1.7e308, rat:1e-300]"])
    def test_overflowing_float_brackets_raise(self, spec):
        # <(3, -2), alpha> = 0 for the first, but its float products with k
        # overflow: inf - inf brackets once kept (1, -1) and dropped (3, -2)
        a = parse_direction(spec)
        with pytest.raises(ValueError, match="overflows"):
            lattice_min(a, 5, 1)
        with pytest.raises(ValueError, match="overflows"):
            lattice_min_profile(a, 5, 1, "max")
        with pytest.raises(ValueError, match="overflows"):
            system_lattice_min(LinearFormSystem((a,)), 5)

    def test_overflow_is_an_input_error_on_the_cli(self, capsys):
        assert main(["lattice", "--direction", "dir:[rat:1e308, rat:1.5e308]", "--radius", "5"]) == 2
        assert "overflows" in capsys.readouterr().err

    def test_large_finite_brackets_still_certify(self):
        res = lattice_min(parse_direction("dir:[rat:1e300, rat:1.5e300]"), 5, 1)
        assert res.exact_zero_witness == (3, -2) == res.argmin

    def test_zero_direction_is_searched_whole(self):
        a = make_direction([0, 0])
        K, shell, lo, hi, enumerated = _window_pool(a, 3, Fraction(1), "euclidean")
        assert enumerated == len(K) == 14


def _axis_one_shell(K, norm):
    """The row reductions the kernel once ran along axis 1."""
    K2 = K * K
    return K2.sum(axis=1) if norm == "euclidean" else K2.max(axis=1, initial=0)


def _axis_one_lead_sign(K):
    return np.sign(K[np.arange(len(K)), (K != 0).argmax(axis=1)])


# up to 4 coordinates of at most 2^30 keep |k|^2 inside int64; zeros are common
_COORDS = st.one_of(st.just(0), st.integers(-2, 2), st.integers(-2 ** 30, 2 ** 30))
_BLOCKS = st.integers(1, 4).flatmap(lambda d: hnp.arrays(
    np.int64, st.tuples(st.integers(0, 30), st.just(d)), elements=_COORDS))


class TestColumnwiseReductions:
    """_shell and _lead_sign reduce column by column; they equal the axis-1
    reductions exactly, in either memory layout."""

    @given(K=_BLOCKS)
    @example(K=np.zeros((0, 3), np.int64))
    @example(K=np.zeros((4, 2), np.int64))
    @example(K=np.array([[0, 0, -5, 1], [0, 3, -1, 0], [-2, 0, 0, 0]], np.int64))
    @settings(max_examples=300, deadline=None)
    def test_equal_the_axis_one_reductions(self, K):
        for block in (K, np.asfortranarray(K)):
            for norm in ("euclidean", "max"):
                got, want = diophantine._shell(block, norm), _axis_one_shell(K, norm)
                assert got.dtype == want.dtype and np.array_equal(got, want)
            got, want = diophantine._lead_sign(block), _axis_one_lead_sign(K)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_shell_of_no_coordinates(self):
        # the k' = 0 column of a d = 1 search has no coordinates
        for norm in ("euclidean", "max"):
            assert diophantine._shell(np.zeros((1, 0), np.int64), norm).tolist() == [0]


# radicands in [0, 2^52), with the squares k^2 and k^2 - 1 the float root rounds across
_RADICANDS = st.one_of(st.integers(0, 2 ** 52 - 1),
                       st.integers(0, 2 ** 26 - 1).map(lambda k: k * k),
                       st.integers(1, 2 ** 26).map(lambda k: k * k - 1))


class TestIsqrt:
    """_isqrt, which caps the euclidean columns and indexes the radius
    table, is math.isqrt entry by entry."""

    @given(n=hnp.arrays(np.int64, st.integers(0, 30), elements=_RADICANDS))
    @example(n=np.zeros(0, np.int64))
    @example(n=np.array([0, 1, 2, 3, 4, 2 ** 52 - 1, (2 ** 26 - 1) ** 2, 2 ** 52 - 2 ** 27],
                        np.int64))
    @settings(max_examples=300, deadline=None)
    def test_equals_math_isqrt(self, n):
        got = diophantine._isqrt(n)
        assert got.dtype == np.int64
        assert got.tolist() == [math.isqrt(int(v)) for v in n]


BLOCK_SIZES = (1, 5, 64)


def _searches(a, R, sigma, norm):
    res = lattice_min(a, R, sigma, norm)
    profile = [(ns, k, v.to_json(40)) for ns, k, v in lattice_min_profile(a, R, sigma, norm)]
    return res.to_json(40), res.argmin, res.enumerated, profile


def _system_search(S, R):
    res = system_lattice_min(S, R)
    return res.to_json(40), res.argmin, res.enumerated, res.improved_argmin


class TestBlockBoundaries:
    """The searches stream their windows in blocks of at most _BLOCK rows; a
    block boundary, anywhere in a column, changes no result."""

    @pytest.mark.parametrize("spec", KERNEL_DIRECTIONS)
    def test_lattice_searches_do_not_see_the_block_size(self, spec, monkeypatch):
        a = parse_direction(spec)
        R = 12 if a.dim == 2 else 5
        for sigma, norm in itertools.product(SIGMAS, ("euclidean", "max")):
            expected = _searches(a, R, sigma, norm)
            K, shell, lo, hi, enumerated = _window_pool(a, R, sigma, norm)
            keep = lo <= hi.min()
            for size in BLOCK_SIZES:
                monkeypatch.setattr(diophantine, "_BLOCK", size)
                assert _searches(a, R, sigma, norm) == expected, (size, sigma, norm)
                blocks, count, _ = diophantine._column_windows(a, R, sigma, norm)
                blocks = list(blocks)
                assert count == enumerated
                assert all(0 < len(block[0]) <= size for block in blocks)
                survivors, keys = diophantine._prune(iter(blocks))
                # the survivors come in the pool's order
                assert np.array_equal(survivors, K[keep]) and np.array_equal(keys, shell[keep])
                monkeypatch.undo()

    @pytest.mark.parametrize("forms,R", SYSTEM_CASES)
    def test_system_search_does_not_see_the_block_size(self, forms, R, monkeypatch):
        S = LinearFormSystem(tuple(parse_direction(f) for f in forms))
        expected = _system_search(S, R)
        for size in BLOCK_SIZES:
            monkeypatch.setattr(diophantine, "_BLOCK", size)
            assert _system_search(S, R) == expected, size
            monkeypatch.undo()

    def test_a_long_column_spans_blocks(self, monkeypatch):
        # the k' = 0 column of a d = 2 search is R rows long and has no window
        monkeypatch.setattr(diophantine, "_BLOCK", 5)
        blocks, *_ = diophantine._column_windows(PHI, 12, Fraction(1), "euclidean")
        head = [block[0] for block in itertools.islice(blocks, 3)]
        assert [len(K) for K in head] == [5, 5, 2]
        assert np.concatenate(head).tolist() == [[0, k] for k in range(1, 13)]


class TestLatticeMemory:
    """Warmed-up tracemalloc peaks: the prefilter holds one block of rows,
    the survivors and one number per integer radius, never the whole pool
    nor a number per column."""

    @staticmethod
    def _peak(run):
        run()
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_three_dimensional_search(self):
        # the whole pool of windows held at once peaked at 104 MiB, and two
        # numbers per column at 9.6 MiB
        a = parse_direction("dir:[1, quad:sqrt2, quad:sqrt3]")
        assert self._peak(lambda: lattice_min(a, 400, Fraction(1, 2))) <= 6 * 2 ** 20

    def test_long_column_search(self):
        # the k' = 0 column alone is R rows; in one piece the search peaked at 62 MiB
        assert self._peak(lambda: lattice_min(PHI, 10 ** 5, 1)) <= 16 * 2 ** 20

    def test_profile_search(self):
        # the profile once held every window row before its cut: 39.5 MiB,
        # and two numbers per column: 9.6 MiB
        a = parse_direction("dir:[1, quad:sqrt2, quad:sqrt3]")
        assert self._peak(lambda: lattice_min_profile(a, 400, Fraction(1, 2))) <= 6 * 2 ** 20

    def test_one_dimensional_search(self):
        # one column, so no radius table of R + 2 numbers (7.6 MiB here)
        a = make_direction([SQRT2])
        assert self._peak(lambda: lattice_min_profile(a, 10 ** 6, Fraction(1, 2))) <= 4 * 2 ** 20

    def test_system_search(self):
        S = LinearFormSystem((parse_direction("dir:[quad:sqrt2, quad:sqrt3]"),))
        assert self._peak(lambda: system_lattice_min(S, 200)) <= 4 * 2 ** 20


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
        with pytest.raises(NonpositiveSigma, match=r"got -1\.0000000000000000000E\+4300$"):
            delta_from_sigma("-1e4300")

    @pytest.mark.parametrize("search", [lattice_min, lattice_min_profile, delta_from_sigma],
                             ids=lambda f: f.__name__)
    def test_str_sigma_exponent_is_bounded(self, search):
        args = () if search is delta_from_sigma else (make_direction([1, SQRT2]), 3)
        start = time.process_time()
        with pytest.raises(ValueError, match="digit limit"):
            search(*args, "1e2000000")
        assert time.process_time() - start < 0.25

    def test_str_sigma_is_read_as_a_ratio(self):
        a = make_direction([1, SQRT2])
        assert lattice_min(a, 20, "1/2").to_json(30) == lattice_min(a, 20, Fraction(1, 2)).to_json(30)
        by_text, by_ratio = (lattice_min_profile(a, 20, s) for s in ("0.5", Fraction(1, 2)))
        assert ([(shell, k, v.to_json(30)) for shell, k, v in by_text]
                == [(shell, k, v.to_json(30)) for shell, k, v in by_ratio])

    def test_markov_constants(self):
        assert markov_bounds(1).exact == QuadExact(0, 1, 5)
        assert markov_bounds(2).exact == QuadExact(0, 1, 8)
        assert markov_bounds(3).exact == QuadExact(0, Fraction(1, 5), 221)
        mpmath.mp.dps = 60
        assert abs(float(markov_bounds(3)) - float(mpmath.sqrt(221) / 5)) < 1e-12

    def test_markov_constants_against_brute_force(self):
        # Markov numbers <= 610 from a^2 + b^2 + c^2 = 3abc by brute force
        # over a <= b, with no Markov tree: for fixed a, b the equation is a
        # quadratic in c with roots (3ab -+ r)/2, r^2 its discriminant
        found = set()
        for a in range(1, 611):
            for b in range(a, 611):
                disc = 9 * a * a * b * b - 4 * (a * a + b * b)
                r = math.isqrt(disc)
                if r * r == disc and (3 * a * b + r) % 2 == 0:
                    found.update(c for c in ((3 * a * b - r) // 2, (3 * a * b + r) // 2)
                                 if b <= c <= 610)
        markov = sorted(found)
        assert markov == [1, 2, 5, 13, 29, 34, 89, 169, 194, 233, 433, 610]
        with mpmath.workdps(60):
            for level, m in enumerate(markov, start=1):
                value = markov_bounds(level)
                assert value.exact == QuadExact(0, Fraction(1, m), 9 * m * m - 4)
                mid = value.midpoint(55)
                ref = mpmath.sqrt(9 * m * m - 4) / m
                assert abs(mpmath.mpf(mid.numerator) / mid.denominator - ref) < mpmath.mpf(10) ** -50

    def test_markov_level_rejections(self):
        with pytest.raises(ValueError):
            markov_bounds(0)
        with pytest.raises(TypeError):
            markov_bounds(2.5)

