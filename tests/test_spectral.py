"""Parseval norms, multipliers and weighted ratios on trigonometric polynomials."""

import fractions
import json
import math
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirp import report
from dirp.certified import CertifiedReal
from dirp.constants import e_cr
from dirp.diophantine import delta_from_sigma
from dirp.directions import inner_product, make_direction, parse_direction
from dirp.errors import DimensionMismatch, ParseError, ZeroFunction
from dirp.extremizers import fibonacci_waves, liouville_family
from dirp.precision import read_number, read_ratio
from dirp.quadratic import GOLDEN_RATIO, SQRT2, QuadExact, common_field
from dirp.spectral import (TrigPoly, directional_norm,
                           freq_norm_cr, freq_norm_sq, grad_norm, half_mass_cutoff, l2_norm,
                           multi_directional_functional, multiplier_norm,
                           parseval_sums, poincare_ratio)

mpmath.mp.dps = 80
POLY60 = Path(__file__).resolve().parent / "data" / "poly60.json"


def mpf_to_frac(v) -> Fraction:
    from mpmath.libmp import to_rational
    p, q = to_rational(v._mpf_)
    return Fraction(int(p), int(q))


def assert_close_mp(cr, mp_value, tol_exp=40):
    lo, hi = cr.enclosure(tol_exp + 20)
    v = mpf_to_frac(mpmath.mpf(mp_value))
    tol = Fraction(1, 10 ** tol_exp)
    assert lo - tol <= v <= hi + tol, (float(lo), float(v), float(hi))


frequencies = st.tuples(st.integers(-40, 40), st.integers(-40, 40)).filter(
    lambda k: k != (0, 0))
coefficients = st.tuples(
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=16),
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=16),
).filter(lambda c: c != (Fraction(0), Fraction(0)))
polys = st.dictionaries(frequencies, coefficients, min_size=1, max_size=12).map(
    lambda terms: TrigPoly(2, terms))


class TestTrigPoly:
    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            TrigPoly(2, {(0, 0): 1})

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            TrigPoly(2, {(1, 0, 0): 1})

    def test_binary_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            TrigPoly(2, {(1, 0): 0.5})

    def test_fraction_coefficients_are_stored_as_given(self):
        re, im = Fraction(3, 8), Fraction(-1, 2)
        stored = TrigPoly(2, {(1, 0): (re, im)}).terms[(1, 0)]
        assert stored == (re, im) and all(type(c) is Fraction for c in stored)
        with pytest.raises(TypeError):
            TrigPoly(2, {(1, 0): (re, 0.5)})

    def test_json_round_trip(self):
        p = TrigPoly(2, {(3, -4): (Fraction(1, 2), Fraction(-1, 4)), (1, 1): 2})
        q = TrigPoly.from_json(p.to_json())
        assert q.terms == p.terms == {(3, -4): (Fraction(1, 2), Fraction(-1, 4)),
                                      (1, 1): (Fraction(2), Fraction(0))}

    @given(terms=st.dictionaries(
        frequencies,
        st.tuples(*[st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                              st.sampled_from([1, 3, 7, 2 ** 70, 10 ** 40, 3 * 2 ** 70]))] * 2),
        min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip_is_lossless(self, terms):
        p = TrigPoly(2, terms)
        q = TrigPoly.from_json(json.dumps(p.to_json()))
        assert q.dim == p.dim and q.terms == p.terms

    def test_json_prints_exact_decimals_and_fractions(self):
        p = TrigPoly(1, {(1,): (Fraction(1, 8), Fraction(-1, 3)), (2,): (Fraction(1, 2 ** 70), 40)})
        assert [(t["re"], t["im"]) for t in p.to_json()["terms"]] == [
            ("0.125", "-1/3"), ("8.470329472543003390683225006796419620513916015625E-22", "40")]

    def test_json_float_coefficient_rejected(self):
        with pytest.raises(ParseError):
            TrigPoly.from_json({"dim": 1, "terms": [{"k": [1], "re": 0.5, "im": "0"}]})


class TestNorms:
    def test_zero_poly_norms_are_zero(self):
        p = TrigPoly(2, {})
        assert l2_norm(p).sign() == 0
        assert grad_norm(p).sign() == 0

    def test_single_unit_coefficient(self):
        # one unit exponential in d = 2: squared norm (2 pi)^2
        p = TrigPoly(2, {(3, 4): 1})
        assert_close_mp(l2_norm(p), 2 * mpmath.pi, 60)

    def test_two_term_sine_norm_is_pi_sqrt2(self):
        f = fibonacci_waves(range(5, 6))[0].poly
        assert_close_mp(l2_norm(f), mpmath.pi * mpmath.sqrt(2), 60)

    @given(k=frequencies)
    @settings(max_examples=40, deadline=None)
    def test_grad_is_freq_norm_times_l2_single_frequency(self, k):
        p = TrigPoly(2, {k: (Fraction(1, 2), Fraction(1, 3))})
        ratio = grad_norm(p) / l2_norm(p)
        target = mpmath.sqrt(k[0] ** 2 + k[1] ** 2)
        assert_close_mp(ratio, target, 40)

    def test_liouville_gradient_ratio_integer_oracle(self):
        f = liouville_family(3).poly
        ratio = grad_norm(f) / l2_norm(f)
        # exact integer oracle for |k|^2
        target_sq = 110001 ** 2 + 10 ** 12
        diff = ratio * ratio - target_sq
        lo, hi = diff.enclosure(60)
        assert -Fraction(1, 10 ** 40) <= lo and hi <= Fraction(1, 10 ** 40)

    def test_fibonacci_gradient_ratio(self):
        f = fibonacci_waves(range(10, 11))[0].poly  # sin(89 x - 55 y)
        ratio = grad_norm(f) / l2_norm(f)
        assert_close_mp(ratio, mpmath.sqrt(10946), 40)

    def test_directional_exact_zero(self):
        a = make_direction([1, 0])
        p = TrigPoly(2, {(0, 7): 1})
        assert directional_norm(p, a).sign() == 0

    def test_directional_quadratic_value(self):
        a = make_direction([SQRT2, 1])
        p = TrigPoly(2, {(1, -1): 1})
        ratio = directional_norm(p, a) / l2_norm(p)
        assert_close_mp(ratio, mpmath.sqrt(2) - 1, 50)

    def test_directional_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            directional_norm(TrigPoly(2, {(1, 0): 1}), make_direction([1, 2, 3]))


class TestMultiplier:
    def test_identity_symbol(self):
        p = TrigPoly(2, {(2, 1): (1, 2), (5, -3): 1})
        diff = multiplier_norm(p, lambda k: 1) - l2_norm(p)
        lo, hi = diff.enclosure(60)
        assert -Fraction(1, 10 ** 50) <= lo and hi <= Fraction(1, 10 ** 50)

    def test_freq_norm_symbol_is_gradient(self):
        p = TrigPoly(2, {(2, 1): (1, 2), (5, -3): 1})
        diff = multiplier_norm(p, freq_norm_cr) - grad_norm(p)
        lo, hi = diff.enclosure(60)
        assert -Fraction(1, 10 ** 50) <= lo and hi <= Fraction(1, 10 ** 50)

    @pytest.mark.parametrize("spec", ["dir:[1, quad:sqrt2]", "dir:[1, const:e]",
                                      "dir:[1, quad:(1+sqrt5)/2]"])
    def test_inner_product_symbol_is_directional_norm(self, spec):
        # the general symbol path against directional_norm's Parseval sums
        a = parse_direction(spec)
        p = TrigPoly(2, {(2, 1): (1, 2), (5, -3): 1, (-4, 7): (0, Fraction(1, 3))})
        diff = multiplier_norm(p, lambda k: inner_product(k, a)) - directional_norm(p, a)
        lo, hi = diff.enclosure(60)
        assert -Fraction(1, 10 ** 50) <= lo and hi <= Fraction(1, 10 ** 50)

    def test_quadratic_irrational_symbol(self):
        # a QuadExact value goes through CertifiedReal arithmetic like any other
        p = TrigPoly(2, {(2, 1): (1, 2), (5, -3): 1})
        diff = multiplier_norm(p, lambda k: SQRT2) - SQRT2 * l2_norm(p)
        lo, hi = diff.enclosure(60)
        assert -Fraction(1, 10 ** 50) <= lo and hi <= Fraction(1, 10 ** 50)

    def test_quadratic_symbol_agrees_with_its_certified_form(self):
        p = TrigPoly(2, {(2, 1): (1, 2), (5, -3): 1, (-4, 7): (0, Fraction(1, 3))})
        sym = lambda k: QuadExact(k[0], Fraction(k[1], 3), 5)  # k_1 + (k_2/3) sqrt5
        diff = (multiplier_norm(p, sym)
                - multiplier_norm(p, lambda k: CertifiedReal.from_quad(sym(k))))
        lo, hi = diff.enclosure(60)
        assert -Fraction(1, 10 ** 50) <= lo and hi <= Fraction(1, 10 ** 50)

    def test_fibonacci_symbol_products(self):
        # <k,alpha>|k| at Fibonacci frequencies approaches the golden floor
        a = make_direction([1, GOLDEN_RATIO])
        sym = lambda k: inner_product(k, a) * freq_norm_cr(k)
        phi = (1 + mpmath.sqrt(5)) / 2
        limit = mpmath.sqrt(1 + phi * phi) / mpmath.sqrt(5)
        for n, tol in ((10, 1e-3), (15, 1e-5)):
            m = fibonacci_waves(range(n, n + 1))[0]
            p = TrigPoly(2, {m.frequency: 1})
            val = multiplier_norm(p, sym) / l2_norm(p)
            assert abs(float(val) - float(limit)) < tol


class TestPoincareRatio:
    def test_single_frequency_rational_oracle(self):
        a = make_direction([1, Fraction(2, 7)])
        k = (3, -5)
        p = TrigPoly(2, {k: 1})
        val = poincare_ratio(p, a, 2, 1)
        # |k|^2 * |<k, alpha>| exactly, by hand
        target = Fraction(34) * abs(Fraction(3) - 5 * Fraction(2, 7))
        lo, hi = val.enclosure(60)
        assert lo <= target <= hi and hi - lo < Fraction(1, 10 ** 50)

    @given(p=polys, c=st.fractions(min_value=Fraction(1, 8),
                                   max_value=Fraction(8), max_denominator=64))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance(self, p, c):
        a = make_direction([1, GOLDEN_RATIO])
        r1 = poincare_ratio(p, a, 1, 1)
        scaled = TrigPoly(2, {k: (re * c, im * c) for k, (re, im) in p.terms.items()})
        r2 = poincare_ratio(scaled, a, 1, 1)
        diff = r1 - r2
        lo, hi = diff.enclosure(40)
        assert -Fraction(1, 10 ** 30) <= lo and hi <= Fraction(1, 10 ** 30)

    def test_zero_poly_rejected(self):
        with pytest.raises(ZeroFunction):
            poincare_ratio(TrigPoly(2, {}), make_direction([1, 2]), 1, 1)

    def test_bad_exponents(self):
        p = TrigPoly(2, {(1, 0): 1})
        with pytest.raises(ValueError):
            poincare_ratio(p, make_direction([1, 2]), 0, 0)

    def test_multi_directional_single_reduces(self):
        a = make_direction([1, GOLDEN_RATIO])
        p = TrigPoly(2, {(2, -1): 1, (8, -5): (0, Fraction(1, 2))})
        r1 = poincare_ratio(p, a, 1, 1)
        r2 = multi_directional_functional(p, [a], 1, 1)
        diff = r1 - r2
        lo, hi = diff.enclosure(40)
        assert -Fraction(1, 10 ** 30) <= lo and hi <= Fraction(1, 10 ** 30)

    def test_multi_directional_single_frequency_oracle(self):
        dirs = [make_direction([1, Fraction(1, 3), Fraction(1, 7)]),
                make_direction([0, 1, Fraction(2, 5)])]
        k = (2, -3, 5)
        p = TrigPoly(3, {k: 1})
        val = multi_directional_functional(p, dirs, 2, 2)
        ip1 = abs(2 - 1 + Fraction(5, 7))
        ip2 = abs(-3 + 2)
        target = mpmath.mpf(38) * mpmath.mpf(float(ip1 + ip2)) ** 2
        assert abs(float(val) - float(target)) < 1e-10

    def test_multi_directional_ell_bounds(self):
        p = TrigPoly(2, {(1, 0): 1})
        dirs = [make_direction([1, 2]), make_direction([1, 3])]
        with pytest.raises(DimensionMismatch):
            multi_directional_functional(p, dirs)


class TestHalfMass:
    def test_single_frequency(self):
        p = TrigPoly(2, {(3, 4): 1})
        radius, tail = half_mass_cutoff(p)
        lo, hi = radius.enclosure(40)
        assert lo <= 10 <= hi  # 2|k| = 10
        assert tail.exact.as_fraction() == 0

    def test_two_frequencies_equal_mass(self):
        p = TrigPoly(2, {(1, 0): 1, (10, 0): 1})
        radius, tail = half_mass_cutoff(p)
        # radius = 2 sqrt(101/2) ~ 14.2: both frequencies lie strictly below
        assert abs(float(radius) - 2 * math.sqrt(101 / 2)) < 1e-12
        assert tail.exact.as_fraction() == 0

    def test_boundary_counts_as_tail(self):
        # equal mass at |k| = 1 and |k| = 3: radius = 2 sqrt(5) < 3? no:
        # 2 sqrt(5) ~ 4.47 > 3, tail 0; push mass outward instead
        p = TrigPoly(2, {(1, 0): (1, 0), (20, 0): (Fraction(1, 100), 0)})
        radius, tail = half_mass_cutoff(p)
        assert tail.exact.as_fraction() <= Fraction(1, 2)

    @given(p=polys)
    @settings(max_examples=60, deadline=None)
    def test_tail_at_most_half(self, p):
        _, tail = half_mass_cutoff(p)
        assert tail.exact is not None
        assert tail.exact.as_fraction() <= Fraction(1, 2)


# -- exact integer kernel against the general CertifiedReal path -------------

PHI = make_direction([1, GOLDEN_RATIO])
FIELD_DIRECTIONS = [
    make_direction([1, Fraction(2, 7)]),                        # Q
    make_direction(["quad:(1+sqrt2)/3", "rat:5/2"]),            # Q(sqrt2)
    make_direction(["quad:sqrt5", "quad:(3-sqrt20)/7"]),        # Q(sqrt5), 20 = 4*5
    PHI,
]


def _dyadic_terms(rng: random.Random, dim: int = 2, radius: int = 60) -> dict:
    terms = {}
    while len(terms) < rng.randint(1, 40):
        k = tuple(rng.randint(-radius, radius) for _ in range(dim))
        re = Fraction(rng.randint(-8, 8), 2 ** rng.randint(0, 3))
        im = Fraction(rng.randint(-8, 8), 2 ** rng.randint(0, 3))
        if any(k) and (re or im):
            terms[k] = (re, im)
    return terms


def _raw_sum(p: TrigPoly, weight_sq=None) -> CertifiedReal:
    """Sum over terms of |a_k|^2 * w(k)^2 (w == 1 when weight_sq is None),
    one CertifiedReal product per term."""
    def term(k, re, im):
        contrib = CertifiedReal.from_rational(re * re + im * im)
        return contrib if weight_sq is None else contrib * weight_sq(k)
    return CertifiedReal.sum(term(k, re, im) for k, (re, im) in sorted(p.terms.items()))


def _general_sums(p: TrigPoly, a):
    """(s0, sg, sd) through CertifiedReal arithmetic term by term."""
    return (_raw_sum(p), _raw_sum(p, freq_norm_sq),
            _raw_sum(p, lambda k: inner_product(k, a) * inner_product(k, a)))


def _state(x):
    q = x.exact
    return (q.a, q.b, q.d)


def _assert_encloses(x, value, digits=40):
    lo, hi = x.enclosure(digits)
    tol = Fraction(1, 10 ** (digits - 5))
    assert lo - tol <= value <= hi + tol, (float(lo), float(value), float(hi))


class TestExactKernel:
    @pytest.mark.parametrize("a", FIELD_DIRECTIONS, ids=["Q", "Q(sqrt2)", "Q(sqrt5)", "phi"])
    def test_matches_general_path_on_random_dyadic_polys(self, a):
        rng = random.Random(2015)
        for _ in range(25):
            p = TrigPoly(2, _dyadic_terms(rng))
            fast = parseval_sums(p, a)
            slow = _general_sums(p, a)
            for x, y in zip(fast, slow):
                assert x.exact is not None and y.exact is not None
                assert _state(x) == _state(y)

    def test_three_dimensional_field_direction(self):
        a = make_direction([1, SQRT2, QuadExact(0, 3, 8)])  # sqrt8 = 2 sqrt2
        rng = random.Random(7)
        for _ in range(10):
            p = TrigPoly(3, _dyadic_terms(rng, dim=3, radius=20))
            for x, y in zip(parseval_sums(p, a), _general_sums(p, a)):
                assert _state(x) == _state(y)

    def test_square_factor_above_trial_division_shares_the_field(self):
        # 200280098 = 2 * 10007^2, so the second entry is 10007 sqrt2
        a = parse_direction("dir:[quad:sqrt2, quad:sqrt200280098]")
        assert common_field([e.exact for e in a.entries]) == (2, 1, [0, 0], [1, 10007])
        rng = random.Random(10007)
        for _ in range(10):
            p = TrigPoly(2, _dyadic_terms(rng))
            for x, y in zip(parseval_sums(p, a), _general_sums(p, a)):
                assert x.exact is not None
                assert _state(x) == _state(y)

    def test_public_functionals_use_exact_sums(self):
        p = TrigPoly(2, {(3, -2): (Fraction(1, 2), 1), (-5, 8): (0, Fraction(3, 4))})
        s0, sg, sd = (x.exact for x in _general_sums(p, PHI))
        assert poincare_ratio(p, PHI, 2, 2).exact == sg * sd / (s0 * s0)
        assert parseval_sums(p)[2] is None

    def test_mixed_field_direction_falls_back(self):
        a = make_direction([SQRT2, "quad:sqrt3"])
        p = TrigPoly(2, {(3, -2): (Fraction(1, 2), 1), (-5, 8): (0, Fraction(3, 4))})
        s0, sg, sd = parseval_sums(p, a)
        assert s0.exact == Fraction(5, 4) + Fraction(9, 16)
        assert sd.exact is None
        mpmath.mp.dps = 80
        oracle = (Fraction(5, 4) * (3 * mpmath.sqrt(2) - 2 * mpmath.sqrt(3)) ** 2
                  + Fraction(9, 16) * (-5 * mpmath.sqrt(2) + 8 * mpmath.sqrt(3)) ** 2)
        _assert_encloses(sd, mpf_to_frac(oracle))

    def test_const_e_direction_falls_back(self):
        a = make_direction([1, "const:e"])
        p = TrigPoly(2, {(2, -1): 1, (-3, 1): (0, Fraction(1, 2))})
        _, _, sd = parseval_sums(p, a)
        assert sd.exact is None
        mpmath.mp.dps = 80
        oracle = (2 - mpmath.e) ** 2 + Fraction(1, 4) * (-3 + mpmath.e) ** 2
        _assert_encloses(sd, mpf_to_frac(oracle))

    def test_inexact_coefficients_rejected(self):
        with pytest.raises(TypeError):
            TrigPoly(2, {(3, -2): e_cr()})
        with pytest.raises(TypeError):
            TrigPoly(2, {(3, -2): (1, e_cr())})

    @pytest.mark.parametrize("seed", range(5))
    def test_half_mass_tail_against_fraction_oracle(self, seed):
        rng = random.Random(seed)
        for _ in range(20):
            terms = _dyadic_terms(rng)
            mass = {k: re * re + im * im for k, (re, im) in terms.items()}
            s0 = sum(mass.values())
            sg = sum(m * freq_norm_sq(k) for k, m in mass.items())
            oracle = sum((m for k, m in mass.items() if freq_norm_sq(k) >= 4 * sg / s0),
                         Fraction(0)) / s0
            radius, tail = half_mass_cutoff(TrigPoly(2, terms))
            assert tail.exact.as_fraction() == oracle
            assert (radius.exact * radius.exact).as_fraction() == 4 * sg / s0

    def test_half_mass_boundary_frequency_is_tail(self):
        # masses 4 at |k| = 1 and 1 at |k| = 4: radius^2 = 4*20/5 = 16 exactly
        radius, tail = half_mass_cutoff(TrigPoly(2, {(1, 0): 2, (4, 0): 1}))
        assert radius.exact == 4
        assert tail.exact == Fraction(1, 5)

    def test_certified_zero_coefficients_rejected(self):
        p = TrigPoly(2, {(1, 2): 0, (3, 4): (0, Fraction(0))})
        with pytest.raises(ZeroFunction):
            half_mass_cutoff(p)
        with pytest.raises(ZeroFunction):
            poincare_ratio(p, PHI, 1, 1)


# -- the moment matrix against brute force and the per-term loop it replaced --

def _loop_sd(p: TrigPoly, a) -> QuadExact:
    """Oracle: sd as _sd's exact branch summed it before TrigPoly.moments,
    one pair of inner products per term; an entry no frequency uses is 0."""
    scale, terms = p.masses
    entries = [e.exact if any(k[i] for k, _ in terms) else QuadExact(0)
               for i, e in enumerate(a.entries)]
    D, Q, x, y = common_field(entries)
    rat = irr = 0
    for k, A in terms:
        P = sum(c * xi for c, xi in zip(k, x))
        R = sum(c * yi for c, yi in zip(k, y))
        rat += A * (P * P + R * R * D)
        irr += A * P * R
    den = scale * Q * Q
    return QuadExact(Fraction(rat, den), Fraction(2 * irr, den), D)


SQRT5_FIELD = [1, Fraction(-2, 3), "quad:sqrt5", "quad:(1+sqrt5)/2", "quad:(3-sqrt20)/7"]
ELSEWHERE = ["quad:sqrt2", "quad:sqrt3", "const:e"]     # only at a coordinate no k uses


@st.composite
def moment_cases(draw):
    d = draw(st.integers(1, 3))
    unused = draw(st.sets(st.integers(0, d - 1), max_size=d - 1))
    entries = [draw(st.sampled_from(SQRT5_FIELD + ELSEWHERE if i in unused else SQRT5_FIELD))
               for i in range(d)]
    freqs = st.tuples(*[st.just(0) if i in unused else st.integers(-40, 40)
                        for i in range(d)]).filter(any)
    return d, entries, draw(st.dictionaries(freqs, coefficients, min_size=1, max_size=12))


class TestMoments:
    @given(case=moment_cases())
    @settings(max_examples=100, deadline=None)
    def test_moments_trace_and_exact_sd(self, case):
        d, entries, terms = case
        p = TrigPoly(d, terms)
        masses = p.masses[1]
        assert p.moments == tuple(tuple(sum(A * k[i] * k[j] for k, A in masses)
                                        for j in range(d)) for i in range(d))
        assert sum(p.moments[i][i] for i in range(d)) == p.mass_totals[1]
        a = make_direction(entries)
        sd = parseval_sums(p, a)[2]
        want = _loop_sd(p, a)
        assert sd.exact is not None
        assert _state(sd) == (want.a, want.b, want.d)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_zero_polynomial_has_zero_moments(self, dim):
        assert TrigPoly(dim, {}).moments == ((0,) * dim,) * dim


# -- the Parseval node against the CertifiedReal tree it replaced -------------
#
# Off one quadratic field, sd is one node over the direction's entries.  Its
# oracle is the tree of _general_sums: per term a from_rational leaf times the
# product of two inner_product nodes, and one CertifiedReal.sum.  Both
# round the same exact bounds outward, the tree at each of its five levels and
# the node once, so an end can differ only when the exact bound sits on a grid
# point of the printed precision, and then by one cell: a base-10 Liouville
# entry is a short decimal that the tree cuts and the node keeps, and an exact
# term such as (sqrt2)^2 = 2 is exact in the tree but gridded in the node.
# Where every term folds exactly in one field the tree is exact, and so is the
# node when the entries it uses share that field.

ENTRY_VALUES = {
    "1": lambda: mpmath.mpf(1),
    "rat:-2/3": lambda: mpmath.mpf(-2) / 3,
    "quad:sqrt2": lambda: mpmath.sqrt(2),
    "quad:sqrt3": lambda: mpmath.sqrt(3),
    "quad:(1+sqrt5)/2": lambda: (1 + mpmath.sqrt(5)) / 2,
    "const:e": lambda: mpmath.e,
    "const:pi": lambda: mpmath.pi,
    "liouville:10": lambda: mpmath.fsum(mpmath.mpf(10) ** -math.factorial(n)
                                        for n in range(1, 7)),
    "dec:2.718281828459045": lambda: mpmath.mpf("2.718281828459045"),
    "dec:0.5": lambda: mpmath.mpf("0.5"),
    "dec:0.0": lambda: mpmath.mpf(0),       # the literal's interval [-0.1, 0.1]
    "dec:-0.01": lambda: mpmath.mpf("-0.01"),  # [-0.02, 0]
}
component = st.one_of(st.just(0), st.integers(-40, 40))


@st.composite
def node_cases(draw):
    d = draw(st.sampled_from([2, 3]))
    specs = draw(st.lists(st.sampled_from(sorted(ENTRY_VALUES)), min_size=d, max_size=d))
    freqs = st.tuples(*[component] * d).filter(any)
    return specs, draw(st.dictionaries(freqs, coefficients, min_size=1, max_size=12))


def _mp_sd(p: TrigPoly, specs) -> Fraction:
    with mpmath.workdps(60):
        alpha = [ENTRY_VALUES[s]() for s in specs]
        total = mpmath.fsum((mpmath.mpf(m.numerator) / m.denominator)
                            * mpmath.fsum(c * x for c, x in zip(k, alpha)) ** 2
                            for k, (re, im) in p.terms.items() for m in [re * re + im * im])
        return mpf_to_frac(total)


def _assert_node_matches_tree(p: TrigPoly, text: str, same_bytes: bool,
                              digits=(30, 80, 150)) -> CertifiedReal:
    """sd against the tree at each precision: the same exact state, an
    enclosure of the tree's exact value, or ends within one grid cell of the
    tree's (the same bytes where same_bytes)."""
    sd = parseval_sums(p, parse_direction(text))[2]
    tree = _general_sums(p, parse_direction(text))[2]
    assert sd.refinable == tree.refinable
    for n in digits:
        lo, hi = sd.enclosure(n)
        if sd.exact is not None:
            assert _state(sd) == _state(tree)
        elif tree.exact is not None:
            assert (tree.exact - lo).sign() >= 0 and (hi - tree.exact).sign() >= 0
            assert hi - lo <= Fraction(2, 10 ** n)
        else:
            tlo, thi = tree.enclosure(n)
            cell = Fraction(1, 10 ** n)
            assert abs(lo - tlo) <= cell and abs(hi - thi) <= cell, n
            if same_bytes:
                assert sd.to_json(n) == tree.to_json(n), n
    return sd


class TestParsevalNode:
    @given(case=node_cases())
    @settings(max_examples=100, deadline=None)
    def test_node_is_within_a_cell_of_the_tree_and_encloses_mpmath(self, case):
        specs, terms = case
        p = TrigPoly(len(specs), terms)
        sd = _assert_node_matches_tree(p, "dir:[" + ", ".join(specs) + "]", False)
        lo, hi = sd.enclosure(40)
        tol = Fraction(1, 10 ** 45)
        assert lo - tol <= _mp_sd(p, specs) <= hi + tol
        used = {i for k in terms for i, c in enumerate(k) if c}
        assert sd.refinable == (sd.exact is not None
                                or not any(specs[i].startswith("dec:") for i in used))

    @pytest.mark.parametrize("text, same_bytes", [
        ("dir:[1, const:e]", True), ("dir:[const:pi, 1]", True),
        ("dir:[1, dec:0.5]", True), ("dir:[dec:0.0, 1]", True),
        ("dir:[quad:sqrt2, quad:sqrt3]", True), ("dir:[const:e, quad:sqrt2]", True),
        # at 80 digits the tree's inner sums cut the 120-digit Liouville
        # partial sum at 112 digits; the node keeps it and is one cell tighter
        ("dir:[1, liouville:10]", False)])
    def test_poly60_along_inexact_directions(self, text, same_bytes):
        sd = _assert_node_matches_tree(TrigPoly.from_json(POLY60.read_text()), text, same_bytes)
        assert sd.exact is None
        assert sd.refinable == ("dec:" not in text)

    def test_where_the_node_and_the_tree_part(self):
        poly = TrigPoly.from_json(POLY60.read_text())
        text = "dir:[1, liouville:10]"
        (lo, hi), (tlo, thi) = (x.enclosure(80) for x in (
            parseval_sums(poly, parse_direction(text))[2],
            _general_sums(poly, parse_direction(text))[2]))
        assert (lo, hi) != (tlo, thi) and tlo <= lo and hi <= thi
        # (sqrt2)^2 = 2 is an exact term of the tree; dec:-0.01 squares to [0, 4e-4]
        p = TrigPoly(3, {(0, 0, 1): (0, 1), (0, 1, 0): (0, 1)})
        text = "dir:[1, dec:-0.01, quad:sqrt2]"
        (lo, _), (tlo, _) = (x.enclosure(30) for x in (
            parseval_sums(p, parse_direction(text))[2],
            _general_sums(p, parse_direction(text))[2]))
        assert tlo == 2 and lo == 2 - Fraction(1, 10 ** 30)
        # each term in one field and its square rational: the tree folds to 5
        p = TrigPoly(2, {(1, 0): 1, (0, 1): 1})
        text = "dir:[quad:sqrt2, quad:sqrt3]"
        sd = parseval_sums(p, parse_direction(text))[2]
        assert _general_sums(p, parse_direction(text))[2].exact == 5 and sd.exact is None
        lo, hi = sd.enclosure(80)
        assert lo < 5 < hi and hi - lo <= Fraction(2, 10 ** 80)

    def test_entries_are_asked_where_the_tree_asked_them(self):
        # the guard keeps the entries' enclosure caches as the tree left them
        def recording(asked):
            e = e_cr()

            def fn(digits):
                asked.append(digits)
                return e.enclosure(digits)
            return CertifiedReal.from_fn(fn)

        poly = TrigPoly.from_json(POLY60.read_text())
        node_asked, tree_asked = [], []
        parseval_sums(poly, make_direction([1, recording(node_asked)]))[2].to_json(80)
        _general_sums(poly, make_direction([1, recording(tree_asked)]))[2].to_json(80)
        assert node_asked == [133] and set(tree_asked) == {133}

    def test_decimal_entry_leaves_the_sum_non_refinable(self):
        p = TrigPoly(2, {(3, -2): 1, (1, 4): (0, Fraction(1, 2))})
        assert not parseval_sums(p, parse_direction("dir:[const:e, dec:0.5]"))[2].refinable
        # an entry no frequency uses is not an operand of the node
        p = TrigPoly(2, {(3, 0): 1, (-1, 0): (0, Fraction(1, 2))})
        sd = parseval_sums(p, parse_direction("dir:[const:e, dec:0.5]"))[2]
        assert sd.refinable and sd.exact is None


class TestLazySums:
    """Spectral sums are enclosures; precision is chosen where they are printed."""

    def test_terms_are_read_only(self):
        p = TrigPoly(2, {(1, 2): 3})
        with pytest.raises(TypeError):
            p.terms[(1, 2)] = (Fraction(1), Fraction(0))
        with pytest.raises(TypeError):
            p.terms[(3, 4)] = (Fraction(1), Fraction(0))

    def test_masses_follow_the_terms(self):
        p = TrigPoly(2, {(1, 2): (Fraction(1, 2), Fraction(1, 3)), (0, 5): 2})
        scale, masses = p.masses
        assert scale == 36
        assert dict(masses) == {(1, 2): 3 ** 2 + 2 ** 2, (0, 5): 12 ** 2}

    def test_inner_product_leaf_is_asked_at_one_precision(self):
        e, asked = e_cr(), set()

        def fn(digits):
            asked.add(digits)
            return e.enclosure(digits)

        poly = TrigPoly.from_json(POLY60.read_text())
        a = make_direction([1, CertifiedReal.from_fn(fn)])
        poincare_ratio(poly, a, 1, 1).to_json(80)
        assert len(asked) == 1

    @pytest.mark.parametrize("alpha2", ["0.4999", "0.5", "0.5001"])
    def test_undecided_inner_product_still_encloses_sd(self, alpha2):
        # <(1, -2), (1, 0.5000)> straddles 0 across the literal's one-ulp interval
        p = TrigPoly(2, {(1, -2): (Fraction(1, 2), 1), (1, 0): (0, Fraction(3, 4))})
        sd = parseval_sums(p, parse_direction("dir:[1, dec:0.5000]"))[2]
        exact = Fraction(5, 4) * (1 - 2 * Fraction(alpha2)) ** 2 + Fraction(9, 16)
        lo, hi = sd.enclosure(80)
        assert lo <= exact <= hi

    def test_true_zero_inner_products_enclose_zero(self):
        p = TrigPoly(2, {(1, -1): 1, (2, -2): (0, Fraction(1, 2))})
        sd = parseval_sums(p, parse_direction("dir:[const:pi, const:pi]"))[2]
        lo, hi = sd.enclosure(80)
        assert lo <= 0 <= hi and hi - lo <= Fraction(1, 10 ** 78)


# -- the best constant: the infimum over single frequencies ------------------
#
# With w_k = |a_k|^2 / sum |a|^2, weighted Hoelder gives
# (sum w |k|^2)^(eg/2) (sum w <k,alpha>^2)^(ed/2) >= min_k |k|^eg |<k,alpha>|^ed,
# with equality for a single frequency (up to its conjugate).  Both sides are
# raised to an even power t that makes every exponent an integer, so they
# compare exactly in Q(sqrt D).

EXACT_DIRECTIONS = [PHI, make_direction([SQRT2, 1]), make_direction([1, -SQRT2])]
EXPONENT_PAIRS = [(Fraction(1), Fraction(1))] + [
    delta_from_sigma(s) for s in (1, 2, 3, Fraction(3, 2), Fraction(1, 2))]
dyadics = st.builds(lambda n, e: Fraction(n, 2 ** e), st.integers(-8, 8), st.integers(0, 3))
dyadic_polys = st.dictionaries(
    st.tuples(st.integers(-12, 12), st.integers(-12, 12)).filter(any),
    st.tuples(dyadics, dyadics).filter(any), min_size=1, max_size=10,
).map(lambda terms: TrigPoly(2, terms))


def _power(x, n: int) -> QuadExact:
    out = QuadExact(1)
    for _ in range(n):
        out = out * x
    return out


def _integer_exponents(eg: Fraction, ed: Fraction) -> tuple[int, int, int]:
    """(t, eg t/2, ed t/2) for the least even t making both integers."""
    t = 2 * math.lcm(eg.denominator, ed.denominator)
    return t, int(eg * t / 2), int(ed * t / 2)


def _ratio_to_the_t(p: TrigPoly, a, g: int, e: int) -> QuadExact:
    """poincare_ratio(p, a, eg, ed)^t from the coefficients, exactly."""
    s0 = sg = sd = QuadExact(0)
    for k, (re, im) in p.terms.items():
        w = re * re + im * im
        ip = inner_product(k, a).exact
        s0, sg, sd = s0 + w, sg + w * freq_norm_sq(k), sd + w * ip * ip
    return _power(sg, g) * _power(sd, e) / _power(s0, g + e)


def _single_to_the_t(k, a, g: int, e: int) -> QuadExact:
    """(|k|^eg |<k,alpha>|^ed)^t = (|k|^2)^g (<k,alpha>^2)^e."""
    ip = inner_product(k, a).exact
    return _power(QuadExact(freq_norm_sq(k)), g) * _power(ip * ip, e)


def _assert_ratio_encloses(p, a, eg, ed, value_t):
    t = _integer_exponents(eg, ed)[0]
    lo, hi = poincare_ratio(p, a, eg, ed).enclosure(60)
    assert 0 <= lo and QuadExact(lo ** t) <= value_t <= QuadExact(hi ** t)


class TestBestConstant:
    @given(p=dyadic_polys)
    @settings(max_examples=40, deadline=None)
    def test_ratio_is_at_least_the_best_frequency_of_its_support(self, p):
        for a in EXACT_DIRECTIONS:
            for eg, ed in EXPONENT_PAIRS:
                _, g, e = _integer_exponents(eg, ed)
                ratio_t = _ratio_to_the_t(p, a, g, e)
                assert min(_single_to_the_t(k, a, g, e) for k in p.terms) <= ratio_t
                _assert_ratio_encloses(p, a, eg, ed, ratio_t)

    @pytest.mark.parametrize("a", EXACT_DIRECTIONS, ids=["(1,phi)", "(sqrt2,1)", "(1,-sqrt2)"])
    @pytest.mark.parametrize("k", [(1, 0), (3, -5), (-7, 12), (89, -55)])
    def test_a_single_sine_wave_attains_it(self, a, k):
        p = TrigPoly(2, {k: (0, Fraction(-1, 2)), tuple(-c for c in k): (0, Fraction(1, 2))})
        for eg, ed in EXPONENT_PAIRS:
            _, g, e = _integer_exponents(eg, ed)
            single_t = _single_to_the_t(k, a, g, e)
            assert _ratio_to_the_t(p, a, g, e) == single_t
            _assert_ratio_encloses(p, a, eg, ed, single_t)


# -- one |k|^sigma and stored Parseval totals ----------------------------------

SIGMAS = [Fraction(s) for s in ("-3/2", "-1/2", "0", "1/3", "1/2", "1", "3/2", "2", "7/3")]


def _weight_oracle(k, sigma: Fraction, norm: str) -> CertifiedReal:
    """The lattice search's former private |k|^sigma, kept as written."""
    if norm == "euclidean":
        base, expo = sum(c * c for c in k), sigma / 2
    else:
        base, expo = max(abs(c) for c in k), sigma
    if expo < 0:
        base, expo = Fraction(1, base), -expo
    return CertifiedReal.from_rational(base).pow_frac(expo)


def _seeded_frequencies(dim: int, count: int = 6) -> list[tuple[int, ...]]:
    rng = random.Random(100 + dim)
    out = [(1,) * dim]
    while len(out) < count:
        k = tuple(rng.randint(-30, 30) for _ in range(dim))
        if any(k):
            out.append(k)
    return out


def _same_value(x: CertifiedReal, y: CertifiedReal) -> bool:
    if (x.exact is None) != (y.exact is None):
        return False
    if x.exact is not None and _state(x) != _state(y):
        return False
    return x.enclosure(80) == y.enclosure(80)


class TestFreqNorm:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("norm", ["euclidean", "max"])
    def test_matches_the_former_weight(self, dim, norm):
        for k in _seeded_frequencies(dim):
            for sigma in SIGMAS:
                assert _same_value(freq_norm_cr(k, sigma, norm), _weight_oracle(k, sigma, norm)), \
                    (k, sigma, norm)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_default_is_the_exact_euclidean_norm(self, dim):
        for k in _seeded_frequencies(dim):
            assert _same_value(freq_norm_cr(k),
                               CertifiedReal.from_rational(freq_norm_sq(k)).sqrt())

    def test_other_norms_are_rejected(self):
        with pytest.raises(ValueError):
            freq_norm_cr((1, 2), 1, "taxicab")

    @pytest.mark.parametrize("k", [(1.5, 2), (2, -0.5), (np.float64(1), 2),
                                   (Fraction(3, 2), 2), ("1", 2)])
    def test_non_integer_component_is_rejected(self, k):
        # truncating (1.5, 2) to (1, 2) would give |k|^2 = 5, not 6.25
        with pytest.raises(TypeError):
            freq_norm_sq(k)
        for norm in ("euclidean", "max"):
            with pytest.raises(TypeError):
                freq_norm_cr(k, 1, norm)

    def test_integer_like_components_are_accepted(self):
        k = (np.int64(-3), np.uint8(4))
        assert freq_norm_sq(k) == 25 and type(freq_norm_sq(k)) is int
        assert freq_norm_cr(k).exact == QuadExact(5)
        assert freq_norm_cr(k, 2, "max").exact == QuadExact(16)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_stored_totals_match_the_oracles(self, dim):
        rng = random.Random(40 + dim)
        a = make_direction([1, SQRT2, QuadExact(0, 3, 8)][:dim])
        for _ in range(10):
            terms = _dyadic_terms(rng, dim=dim, radius=20)
            p = TrigPoly(dim, terms)
            mass = {k: re * re + im * im for k, (re, im) in terms.items()}
            s0 = sum(mass.values())
            sg = sum(m * freq_norm_sq(k) for k, m in mass.items())
            assert Fraction(p.mass_totals[0], p.masses[0]) == s0
            assert Fraction(p.mass_totals[1], p.masses[0]) == sg
            for x, y in zip(parseval_sums(p, a), _general_sums(p, a)):
                assert _state(x) == _state(y)
            radius, tail = half_mass_cutoff(p)
            oracle = sum((m for k, m in mass.items() if freq_norm_sq(k) >= 4 * sg / s0),
                         Fraction(0)) / s0
            assert tail.exact.as_fraction() == oracle
            assert (radius.exact * radius.exact).as_fraction() == 4 * sg / s0


class _Pairs:
    """A terms argument whose keys need not be hashable: TrigPoly reads only items()."""

    def __init__(self, pairs):
        self.pairs = pairs

    def items(self):
        return self.pairs


scalar_coefficients = (
    st.integers(-20, 20)
    | st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=24)
    | st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=24).map(str)
    | st.builds(lambda n, e: f"{n}e-{e}", st.integers(-99, 99), st.integers(0, 3)))
mixed_coefficients = scalar_coefficients | st.tuples(scalar_coefficients, scalar_coefficients)


class TestSinglePassMasses:
    """TrigPoly builds its keys, masses and totals in one pass over the terms."""

    @pytest.mark.parametrize("terms", [
        {(np.int64(3), np.int64(-2)): 1, (np.int64(0), np.int64(5)): 2},
        _Pairs([([3, -2], 1), (np.array([0, 5]), 2)]),
        _Pairs([((np.int16(3), -2), 1), ([0, np.int32(5)], 2)]),
    ], ids=["np.int64", "lists", "mixed"])
    def test_keys_are_python_int_tuples(self, terms):
        p = TrigPoly(2, terms)
        assert set(p.terms) == {(3, -2), (0, 5)}
        assert all(type(k) is tuple and all(type(c) is int for c in k) for k in p.terms)
        assert p.mass_totals == (1 + 4, 13 + 4 * 25)

    @pytest.mark.parametrize("key", [(1,), (1, 2, 3), [np.int64(1)]])
    def test_dimension_mismatch(self, key):
        with pytest.raises(DimensionMismatch):
            TrigPoly(2, _Pairs([((1, 1), 1), (key, 1)]))
        with pytest.raises(DimensionMismatch):
            TrigPoly(0, {})

    @pytest.mark.parametrize("zero", [(0, 0), (np.int64(0), np.int64(0)), [0, 0], (np.uint8(0), 0)])
    def test_zero_frequency(self, zero):
        with pytest.raises(ValueError, match="zero frequency"):
            TrigPoly(2, _Pairs([((1, 0), 1), (zero, 1)]))

    @pytest.mark.parametrize("key", [(1.5, 2), (3.0, -2), (-0.0, 1), (np.float64(1), 2),
                                     (Fraction(1, 1), 2), ("1", 2)])
    def test_non_integer_frequency_is_rejected(self, key):
        # truncating (1.5, 2) would land it on the term at (1, 2)
        with pytest.raises(TypeError):
            TrigPoly(2, _Pairs([(key, 1), ((1, 2), 3)]))
        with pytest.raises(ParseError):
            TrigPoly.from_json({"dim": 2, "terms": [{"k": list(key), "re": "1", "im": "0"}]})

    @pytest.mark.parametrize("coeff", [0.5, (0.5, 1), (1, 0.25), e_cr(), (1, e_cr()),
                                       (e_cr(), Fraction(1, 2))])
    def test_float_and_certified_coefficients_rejected(self, coeff):
        with pytest.raises(TypeError, match="rejected"):
            TrigPoly(2, {(1, 2): 1, (3, 4): coeff})

    @given(terms=st.dictionaries(frequencies, mixed_coefficients, min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_masses_and_sums_equal_fraction_oracles(self, terms):
        exact = {}
        for k, c in terms.items():
            re, im = c if isinstance(c, tuple) else (c, 0)
            re, im = Fraction(re), Fraction(im)
            if re or im:
                exact[k] = (re, im)
        p = TrigPoly(2, terms)
        assert dict(p.terms) == exact
        mass = {k: re * re + im * im for k, (re, im) in exact.items()}
        L = math.lcm(*(c.denominator for coeff in exact.values() for c in coeff))
        scale, masses = p.masses
        assert scale == L * L
        assert [k for k, _ in masses] == list(exact)
        assert {k: Fraction(A, scale) for k, A in masses} == mass
        s0 = sum(mass.values(), Fraction(0))
        sg = sum((m * freq_norm_sq(k) for k, m in mass.items()), Fraction(0))
        assert (Fraction(p.mass_totals[0], scale), Fraction(p.mass_totals[1], scale)) == (s0, sg)
        sums = parseval_sums(p, PHI)
        assert (sums[0].exact.as_fraction(), sums[1].exact.as_fraction()) == (s0, sg)
        assert [_state(x) for x in sums] == [_state(y) for y in _general_sums(p, PHI)]
        if not exact:
            with pytest.raises(ZeroFunction):
                half_mass_cutoff(p)
            return
        radius, tail = half_mass_cutoff(p)
        oracle = sum((m for k, m in mass.items() if freq_norm_sq(k) >= 4 * sg / s0),
                     Fraction(0)) / s0
        assert tail.exact.as_fraction() == oracle
        assert (radius.exact * radius.exact).as_fraction() == 4 * sg / s0


def _integer_rows(dim):
    """{k: (rn, rd, jn, jd)} as TrigPoly stores it: k a nonzero int tuple of
    length dim, each part in lowest terms, and no row zero."""
    keys = st.tuples(*[st.integers(-30, 30)] * dim).filter(any)
    part = st.builds(lambda n, d: Fraction(n, d).as_integer_ratio(),
                     st.integers(-10 ** 6, 10 ** 6), st.integers(1, 96))
    row = st.tuples(part, part).map(lambda parts: parts[0] + parts[1]).filter(
        lambda r: r[0] or r[2])
    return st.dictionaries(keys, row, max_size=14)


class TestFromRows:
    """TrigPoly._from_rows, which checks nothing, builds what the checking
    constructor builds from the same terms."""

    @staticmethod
    def _same(p, q):
        assert list(p._rows.items()) == list(q._rows.items())
        _same_poly(p, q)

    @given(dim_rows=st.integers(1, 3).flatmap(lambda d: st.tuples(st.just(d), _integer_rows(d))))
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_public_constructor(self, dim_rows):
        dim, rows = dim_rows
        p = TrigPoly._from_rows(dim, dict(rows))
        assert p._rows == rows
        self._same(p, TrigPoly(dim, p.terms))

    @pytest.mark.parametrize("seed", [1234, 0, 7])
    def test_random_poly_equals_public_constructor(self, seed):
        draw = report._Integers(seed)
        for _ in range(1000):
            p = report._random_poly(draw)
            self._same(p, TrigPoly(2, p.terms))


def _fraction_ratio(text):
    """(numerator, denominator) of Fraction(text), or the type of its error;
    ValueError, without forming the power, for a text in Fraction's grammar
    whose exponent exceeds the interpreter's digit limit."""
    limit = sys.get_int_max_str_digits()
    m = fractions._RATIONAL_FORMAT.match(text)
    try:
        if limit and m and m["exp"] and abs(int(m["exp"])) > limit:
            raise ValueError("exponent beyond the digit limit")
        f = Fraction(text)
    except Exception as exc:
        return type(exc)
    return f.numerator, f.denominator


def _ratio_or_error(reader, text):
    try:
        return reader(text)
    except Exception as exc:
        return type(exc)


def _fraction_oracle(data):
    """A valid to_json dict read with Fraction alone, never through TrigPoly:
    (dim, {k: (re, im)}, L^2, [(k, |a_k|^2)], (sum |a_k|^2, sum |a_k|^2 |k|^2)),
    where of two terms with one k the later wins, zero terms are dropped
    and L is the lcm of the kept denominators."""
    parts = {tuple(t["k"]): (t["re"], t["im"]) for t in data["terms"]}
    terms = {k: (Fraction(x), Fraction(y)) for k, (x, y) in parts.items()}
    terms = {k: c for k, c in terms.items() if c != (0, 0)}
    L = math.lcm(*(x.denominator for c in terms.values() for x in c))
    masses = [(k, re * re + im * im) for k, (re, im) in terms.items()]
    totals = (sum(m for _, m in masses), sum(m * sum(c * c for c in k) for k, m in masses))
    return data["dim"], terms, L * L, masses, totals


def _matches_oracle(p, data):
    dim, terms, scale, masses, totals = _fraction_oracle(data)
    assert p.dim == dim
    assert list(p.terms.items()) == list(terms.items())
    assert p.masses[0] == scale
    assert [(k, Fraction(A, scale)) for k, A in p.masses[1]] == masses
    assert tuple(Fraction(S, scale) for S in p.mass_totals) == totals


def _same_poly(p, q):
    assert p.dim == q.dim
    assert p.masses == q.masses and p.mass_totals == q.mass_totals and p.moments == q.moments
    assert list(p.terms.items()) == list(q.terms.items())
    assert json.dumps(p.to_json()) == json.dumps(q.to_json())


# pieces of coefficient text, joined at random: digits of several scripts,
# signs, separators, exponents, whitespace and words
_TEXT_PIECES = ["0", "1", "2", "4", "7", "10", "007", "-", "+", ".", "/", "_", "e", "E",
                " ", "\t", "\n", "\u00b2", "\u0663", "\uff11", "nan", "inf", "Infinity"]
coefficient_texts = (
    st.sampled_from(["5.", ".5", "+5", "-0", "+0", "-0.0", "0/7", "1_000", "1__0", "2/4",
                     "3/-4", "-3/4", "+3/4", " 3/4", "3 / 4", "3/4 ", "\u00b2", "\u0663",
                     "\u0663/\u0664", "1e3", "1E-3", "-1.25E-3", "2.5e+2", "1e", "e1", "nan",
                     "-inf", "Infinity", "", "-", ".", "/", "1/", "/2", "1.2.3", "1/2/3",
                     "0.125", "-3.5", "8.470329472543003390683225006796419620513916015625E-22",
                     "1e4300", "-2.5E-4300 ", "1e4301", "1e-3000000", "1e007007007", "0e1_0_000",
                     "1" * 4300, "1" * 4301, "1" * 3000 + "." + "1" * 3000,
                     "1" * 3000 + "/" + "7" * 3000, "1/0", "-0/0", "0.0/1", "1/00"])
    | st.lists(st.sampled_from(_TEXT_PIECES), max_size=6).map("".join)
    | st.fractions(max_denominator=10 ** 6).map(str)
    | st.builds(lambda n, d: f"{n}.{d}", st.integers(-10 ** 20, 10 ** 20),
                st.integers(0, 10 ** 20).map(str).map(lambda t: t.zfill(25)))
    | st.text(alphabet="0123456789-+./_eE \u00b2\u0663", max_size=12))


class TestJsonIngestion:
    """from_json reads coefficient text in integers, in one pass with the masses."""

    @pytest.mark.parametrize("reader", [read_number, read_ratio], ids=lambda f: f.__name__)
    @given(text=coefficient_texts)
    @settings(max_examples=400, deadline=None)
    def test_coefficient_parser_is_fractions_grammar(self, reader, text):
        assert _ratio_or_error(reader, text) == _fraction_ratio(text)

    @pytest.mark.parametrize("text", ["1e10000000", "1e007007007", "1e-3000000", "-2.5E+4301"])
    def test_exponent_beyond_the_digit_limit_is_rejected_at_once(self, text):
        # Fraction(text) forms 10**|exponent|: seconds at these texts
        start = time.process_time()
        with pytest.raises(ValueError, match="digit limit"):
            read_number(text)
        with pytest.raises(ParseError, match="digit limit"):
            TrigPoly.from_json({"dim": 2, "terms": [{"k": [1, 0], "re": "1", "im": text}]})
        assert time.process_time() - start < 0.25

    def test_exponent_at_the_digit_limit_is_read(self):
        limit = sys.get_int_max_str_digits()
        assert read_number(f"1e{limit}") == (10 ** limit, 1)
        assert read_number(f" -3E-{limit}") == (-3, 10 ** limit)
        assert read_number("8.470329472543003390683225006796419620513916015625E-22") == (1, 2 ** 70)

    def test_no_digit_limit_sets_no_exponent_bound(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert read_number(f"1e-{limit + 1}") == (1, 10 ** (limit + 1))
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("value", [0, 7, -12, True, Fraction(-3, 6), 10 ** 40,
                                       Decimal("-0.125"), Decimal("4E+2"),
                                       np.int64(5_000_000_000)])
    def test_non_text_coefficients_are_read_as_given(self, value):
        f = Fraction(value)
        assert read_number(value) == (f.numerator, f.denominator)
        assert all(type(part) is int for part in read_number(value))

    def test_numpy_integer_parts_do_not_overflow_the_masses(self):
        # (5 * 10**9)**2 exceeds the int64 range
        p = TrigPoly(1, {(1,): (np.int64(5_000_000_000), np.int32(-3))})
        assert p.masses == TrigPoly(1, {(1,): (5_000_000_000, -3)}).masses

    @given(terms=st.dictionaries(frequencies, st.tuples(st.integers(-10 ** 30, 10 ** 30),
                                                         st.integers(-9, 9)), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_int_parts_give_the_rows_of_fraction_parts(self, terms):
        p = TrigPoly(2, terms)
        q = TrigPoly(2, {k: (Fraction(re), Fraction(im)) for k, (re, im) in terms.items()})
        assert p._rows == q._rows
        assert all(type(x) is int for row in p._rows.values() for x in row)
        _same_poly(p, q)

    @pytest.mark.parametrize("value", [0.5, 1.0, float("nan"), np.float64(0.5), e_cr(), None,
                                       [1], 1j])
    def test_rejected_coefficients_keep_their_errors(self, value):
        with pytest.raises(TypeError):
            read_number(value)

    @given(terms=st.dictionaries(
        frequencies,
        st.tuples(*[st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                              st.sampled_from([1, 2, 8, 3, 7, 2 ** 70, 10 ** 40, 3 * 2 ** 70]))] * 2),
        max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_equals_the_constructor(self, terms):
        p = TrigPoly(2, dict(sorted(terms.items())))    # to_json's order
        text = json.dumps(p.to_json())
        _same_poly(TrigPoly.from_json(text), TrigPoly(2, p.terms))
        _matches_oracle(TrigPoly.from_json(text), json.loads(text))
        q = TrigPoly.from_json(text)      # terms read before masses
        assert dict(q.terms) == dict(p.terms)
        _same_poly(q, p)

    @given(rows=st.lists(st.tuples(
        st.sampled_from([(1, 0), (0, 1), (2, -3), (-1, 0), (5, 5)]),
        st.sampled_from(["0", "-0", "0/5", "0.00", "1", "-7/3", "0.125", "3/4", "2.50", "1e-2"]),
        st.sampled_from(["0", "1/2", "-4", "9.75"]) | st.integers(-3, 3)), max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_duplicate_keys_resolve_as_the_constructor_does(self, rows):
        data = {"dim": 2, "terms": [{"k": list(k), "re": x, "im": y} for k, x, y in rows]}
        text = json.dumps(data)
        _matches_oracle(TrigPoly.from_json(text), json.loads(text))

    @pytest.mark.parametrize("data, expected", [
        ([], ParseError), ({"terms": []}, ParseError), ({"dim": 2}, ParseError),
        ({"dim": 2, "terms": [{"k": [1, 0], "re": "1"}]}, ParseError),
        ({"dim": 2, "terms": [{"k": [1, 0], "im": "1"}]}, ParseError),
        ({"dim": 2, "terms": [[1, 0]]}, ParseError),
        ({"dim": "x", "terms": []}, ParseError), ({"dim": None, "terms": []}, ParseError),
        ({"dim": 0, "terms": []}, DimensionMismatch),
        ({"dim": 2, "terms": [{"k": [1], "re": "1", "im": "0"}]}, DimensionMismatch),
        ({"dim": 2, "terms": [{"k": [0, 0], "re": "1", "im": "0"}]}, ParseError),
        ({"dim": 2, "terms": [{"k": [0.5, 1], "re": "1", "im": "0"}]}, ParseError),
        ({"dim": 2, "terms": [{"k": [[1], 1], "re": "1", "im": "0"}]}, ParseError),
        ({"dim": 2, "terms": [{"k": 3, "re": "1", "im": "0"}]}, ParseError),
        ({"dim": 2, "terms": [{"k": [1, 0], "re": "abc", "im": "0"}]}, ParseError),
        ({"dim": 2, "terms": [{"k": [1, 0], "re": "1", "im": 0.25}]}, ParseError),
        ({"dim": 2, "terms": [{"k": [1, 0], "re": None, "im": "0"}]}, ParseError),
        ({"dim": 2, "terms": [{"k": [1, 0], "re": "1\u00b2", "im": "0"}]}, ParseError),
        # the later term replaces the malformed one before it is read
        ({"dim": 2, "terms": [{"k": [1, 0], "re": "bad", "im": "0"},
                              {"k": [1, 0], "re": "1", "im": "0"}]}, None),
    ])
    def test_rejections_keep_their_exception_types(self, data, expected):
        if expected is None:
            _matches_oracle(TrigPoly.from_json(data), data)
        else:
            with pytest.raises(expected):
                TrigPoly.from_json(data)

    @pytest.mark.parametrize("dim", [2.9, 2.0, "2", True, False])
    def test_dim_must_be_a_json_integer(self, dim):
        # int() would read these as 2, 2, 2, 1 and 0
        data = {"dim": dim, "terms": [{"k": [1] * int(dim or 1), "re": "1", "im": "0"}]}
        with pytest.raises(ParseError, match="dim"):
            TrigPoly.from_json(data)
        with pytest.raises(ParseError, match="dim"):
            TrigPoly.from_json(json.dumps(data))

    @pytest.mark.parametrize("re, im", [("1/0", "0"), ("0", "-3/0"), (" 1/0", "1"),
                                        ("1/00", "0"), ("0/0", "0")])
    def test_zero_denominator_is_a_parse_error(self, re, im):
        data = {"dim": 2, "terms": [{"k": [1, 2], "re": "1", "im": "0"},
                                    {"k": [3, -4], "re": re, "im": im}]}
        with pytest.raises(ParseError, match=r"zero denominator .*k=\[3, -4\]"):
            TrigPoly.from_json(data)
        terms = {tuple(t["k"]): (t["re"], t["im"]) for t in data["terms"]}
        with pytest.raises(ZeroDivisionError, match=r"zero denominator .*k=\[3, -4\]"):
            TrigPoly(2, terms)

    def test_zero_denominator_exits_2_on_the_cli(self, tmp_path, capsys):
        from dirp.cli import main
        path = tmp_path / "poly.json"
        path.write_text('{"dim": 1, "terms": [{"k": [1], "re": "1/0", "im": "0"}]}')
        assert main(["norms", "@" + str(path), "--direction", "dir:[1]"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed TrigPoly JSON: zero denominator") and "k=[1]" in err

    def test_terms_are_built_on_first_read(self):
        direction = parse_direction("dir:[1, const:e]")
        q = TrigPoly.from_json(POLY60.read_text())
        p = TrigPoly(2, {tuple(t["k"]): (Fraction(t["re"]), Fraction(t["im"]))
                         for t in json.loads(POLY60.read_text())["terms"]})
        ratios = [poincare_ratio(f, direction, 1, 1).to_json(30) for f in (q, p)]
        assert ratios[0] == ratios[1]
        for f in (q, p):
            assert f._terms is None
            with pytest.raises(TypeError):
                f.terms[(1, 2)] = (Fraction(1), Fraction(0))
            assert f.terms is f.terms
        assert q.terms == p.terms

    def test_all_zero_file_is_the_zero_function(self):
        q = TrigPoly.from_json({"dim": 2, "terms": [{"k": [1, 0], "re": "0", "im": "-0/3"}]})
        assert q.masses == (1, ()) and dict(q.terms) == {}
        with pytest.raises(ZeroFunction):
            poincare_ratio(q, PHI, 1, 1)
