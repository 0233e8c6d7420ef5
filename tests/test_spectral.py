"""Parseval norms, multipliers and weighted ratios on trigonometric polynomials."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirp.certified import CertifiedReal
from dirp.constants import e_cr
from dirp.diophantine import delta_from_sigma
from dirp.directions import inner_product, make_direction, parse_direction
from dirp.errors import DimensionMismatch, ParseError, ZeroFunction
from dirp.extremizers import fibonacci_family, liouville_family
from dirp.quadratic import GOLDEN_RATIO, SQRT2, QuadExact
from dirp.spectral import (TrigPoly, _quadratic_field, _raw_sum, directional_norm, directional_symbol,
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

    def test_drop_mean(self):
        p = TrigPoly(2, {(0, 0): 1, (1, 0): 1}, drop_mean=True)
        assert len(p) == 1

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            TrigPoly(2, {(1, 0, 0): 1})

    def test_binary_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            TrigPoly(2, {(1, 0): 0.5})

    def test_fraction_coefficients_are_stored_as_given(self):
        re, im = Fraction(3, 8), Fraction(-1, 2)
        stored = TrigPoly(2, {(1, 0): (re, im)}).terms[(1, 0)]
        assert stored[0] is re and stored[1] is im
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
        f = fibonacci_family(5).poly
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
        f = fibonacci_family(10).poly  # sin(89 x - 55 y)
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

    def test_directional_symbol_fibonacci_products(self):
        # <k,alpha>|k| at Fibonacci frequencies approaches the golden floor
        a = make_direction([1, GOLDEN_RATIO])
        sym = directional_symbol(a, s_power=1)
        phi = (1 + mpmath.sqrt(5)) / 2
        limit = mpmath.sqrt(1 + phi * phi) / mpmath.sqrt(5)
        for n, tol in ((10, 1e-3), (15, 1e-5)):
            m = fibonacci_family(n)
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
        r2 = poincare_ratio(p.scale(c), a, 1, 1)
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
        assert _quadratic_field(a) == (2, 1, [0, 0], [1, 10007])
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
        with pytest.raises(TypeError):
            TrigPoly(2, {(3, -2): (Fraction(1, 2), 1)}).scale(e_cr())

    def test_scale_is_exact(self):
        p = TrigPoly(2, {(3, -2): (Fraction(1, 2), 1), (1, 1): 2}).scale((0, Fraction(1, 3)))
        assert p.terms == {(3, -2): (Fraction(-1, 3), Fraction(1, 6)), (1, 1): (0, Fraction(2, 3))}
        assert p.scale(0).is_zero()

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
        p = TrigPoly(2, {(1, 2): 3}).scale(0)
        with pytest.raises(ZeroFunction):
            half_mass_cutoff(p)
        with pytest.raises(ZeroFunction):
            poincare_ratio(p, PHI, 1, 1)


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

    @pytest.mark.parametrize("spec", ["dir:[1, quad:(1+sqrt5)/2]", "dir:[1, const:e]"])
    @pytest.mark.parametrize("s_power", [0, 1, 2, 3])
    def test_directional_symbol_matches_the_inline_weight(self, spec, s_power):
        a = parse_direction(spec)
        sym = directional_symbol(a, s_power)
        for k in _seeded_frequencies(2):
            ip = inner_product(k, a)
            want = ip if s_power == 0 else ip * CertifiedReal.from_rational(
                freq_norm_sq(k)).pow_frac(Fraction(s_power, 2))
            assert _same_value(sym(k), want), (k, s_power)

    def test_directional_symbol_rejects_a_negative_power(self):
        with pytest.raises(ValueError):
            directional_symbol(PHI, -1)((3, -5))

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
