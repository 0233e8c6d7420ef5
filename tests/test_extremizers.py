"""Extremizer families and sharpness tables."""

import math
from fractions import Fraction

import mpmath
import pytest

from dirp import diophantine, directions, extremizers, report
from dirp.certified import CertifiedReal
from dirp.directions import inner_product, make_direction
from dirp.errors import ParseError, PrecisionCapExceeded, RationalRatio
from dirp.extremizers import (convergent_waves, fibonacci_waves, liouville_cap,
                              liouville_family, parse_family_token, sharpness_table)
from dirp.precision import DEFAULT_CONTEXT, PrecisionContext, fraction_to_decimal_str
from dirp.quadratic import GOLDEN_RATIO, SQRT2
from dirp.spectral import poincare_ratio
from dirp.constants import e_cr

mpmath.mp.dps = 80

PHI = make_direction([1, GOLDEN_RATIO])


def fibonacci_numbers(n: int) -> tuple[int, int]:
    """(F_n, F_{n+1}) with F_1 = F_2 = 1, by the recurrence: the oracle for
    fibonacci_waves, which reads them off the convergents of phi."""
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a, b


class TestFibonacci:
    def test_numbers(self):
        assert fibonacci_numbers(1) == (1, 1)
        assert fibonacci_numbers(10) == (55, 89)

    def test_frequencies(self):
        assert parse_family_token("fib:1").frequency == (1, -1)
        assert parse_family_token("fib:10").frequency == (89, -55)

    def test_ratio_matches_independent_oracle(self):
        # sqrt(r^2+1) |r - phi| F^2 recomputed with mpmath from scratch
        phi = (1 + mpmath.sqrt(5)) / 2
        for n in (3, 10, 14):
            fn, fn1 = fibonacci_numbers(n)
            r = mpmath.mpf(fn1) / fn
            ref = mpmath.sqrt(r * r + 1) * abs(r - phi) * fn * fn
            m = parse_family_token(f"fib:{n}")
            direct = poincare_ratio(m.poly, PHI, 1, 1)
            assert abs(float(direct) - float(ref)) < 1e-12
            closed = m.metadata["closed_form_ratio"]
            assert abs(float(closed) - float(ref)) < 1e-12

    def test_value_at_n10(self):
        m = parse_family_token("fib:10")
        assert abs(float(m.metadata["closed_form_ratio"]) - 0.8506508090620) < 1e-12

    def test_limit_value(self):
        limit = parse_family_token("fib:1").metadata["expected_limit"]
        ref = mpmath.sqrt((5 + mpmath.sqrt(5)) / 10)
        assert abs(float(limit) - float(ref)) < 1e-15

    def test_bad_index(self):
        with pytest.raises(ValueError):
            fibonacci_waves(range(0, 1))


class TestLiouville:
    def test_small_frequencies(self):
        assert liouville_family(1).frequency == (1, -10)
        assert liouville_family(2).frequency == (11, -100)
        assert liouville_family(3).frequency == (110001, -10 ** 6)

    def test_coefficient_mass_is_exactly_one_half(self):
        for N in (1, 2, 3, 4):
            terms = liouville_family(N).poly.terms.values()
            assert sum(re * re + im * im for re, im in terms) == Fraction(1, 2)

    def test_directional_ratio_exact_tail_oracle(self):
        # against (1, sum 10^-n!) the inner product is the exact series
        # tail sum_{n>=4} 10^(6-n!); recompute it as a Fraction directly
        from dirp.spectral import directional_norm, l2_norm
        L = make_direction([1, "liouville:10"])
        m = liouville_family(3)
        ratio = directional_norm(m.poly, L) / l2_norm(m.poly)
        tail = sum(Fraction(1, 10 ** (math.factorial(n) - 6)) for n in (4, 5, 6))
        lo, hi = ratio.enclosure(200)
        assert lo <= tail <= hi or abs(float(ratio) / float(tail) - 1) < 1e-150
        assert Fraction(999, 1000) * Fraction(1, 10 ** 18) <= lo
        assert hi <= Fraction(1001, 1000) * Fraction(1, 10 ** 18)

    def test_index_bounds(self):
        # |k_N| ~ 10^(N!) and <k_N, alpha> ~ 10^(N! - (N+1)!), so alpha is
        # needed to (N+1)! digits: 720 at N = 5, 40320 at N = 7 and 362880
        # at N = 8, against the default max_digits = 100000
        assert liouville_cap() == 7
        assert liouville_family(7).frequency[1] == -10 ** 5040
        with pytest.raises(PrecisionCapExceeded):
            liouville_family(8)
        with pytest.raises(PrecisionCapExceeded):
            liouville_family(0)
        assert liouville_family(5, ctx=PrecisionContext(max_digits=721)).index == 5
        with pytest.raises(PrecisionCapExceeded):
            liouville_family(5, ctx=PrecisionContext(max_digits=720))
        assert liouville_cap(2) == 7  # 9! * log10(2) ~ 109238 digits at N = 8

    def test_first_index_past_the_old_cap_certifies(self):
        # <k_5, alpha> = -sum_{n>=6} 10^(120-n!), within 1e-4320 of -10^-600;
        # the sign resolves at 800 digits
        ctx = PrecisionContext(working_digits=100, max_digits=1000)
        L = make_direction([1, "liouville:10"])
        ip = inner_product(liouville_family(5, ctx=ctx).frequency, L)
        assert ip.sign(ctx) == -1
        lo, hi = (-ip).enclosure(800)
        assert Fraction(999, 1000) / 10 ** 600 <= lo
        assert hi <= Fraction(1001, 1000) / 10 ** 600

    def test_other_base(self):
        m = liouville_family(2, base=2)
        assert m.frequency == (3, -4)


class TestConvergentWave:
    def test_golden_reproduces_fibonacci(self):
        m = convergent_waves(PHI, range(4, 5))[0]
        k = m.frequency
        fibs = {fibonacci_numbers(n) for n in range(1, 8)}
        assert (abs(k[1]), abs(k[0])) in fibs or (abs(k[0]), abs(k[1])) in fibs

    def test_sqrt2_sixth_convergent_in_liouville_window(self):
        a = make_direction([1, SQRT2])
        m = convergent_waves(a, range(6, 7))[0]
        product = float(m.metadata["abs_k"]) * float(m.metadata["abs_inner"])
        assert 1 / 3 <= product <= 0.62

    def test_e_products_collapse_below_golden_floor(self):
        a = make_direction([1, e_cr()])
        running = math.inf
        for m in convergent_waves(a, range(1, 21)):
            running = min(running, float(m.metadata["abs_k"])
                          * float(m.metadata["abs_inner"]))
        assert running < 0.2  # strictly below the golden floor 0.85

    def test_is_the_fibonacci_wave_on_golden_direction(self):
        # k_n = (p_n, -q_n) with p_n/q_n = F_{n+1}/F_n, the n-th convergent of
        # phi: the fib:n wave, checked against the recurrence
        for n in range(1, 41):
            fn, fn1 = fibonacci_numbers(n)
            fib = parse_family_token(f"fib:{n}")
            assert (fib.index, fib.family, fib.frequency) == (n, "fibonacci", (fn1, -fn))
            assert dict(fib.poly.terms) == {(fn1, -fn): (0, Fraction(-1, 2)),
                                            (-fn1, fn): (0, Fraction(1, 2))}
            cwave = parse_family_token(f"cwave:{n}", PHI)
            assert (cwave.frequency, cwave.metadata["convergent"]) == ((fn1, -fn), (fn1, fn))
            assert dict(cwave.poly.terms) == dict(fib.poly.terms)

    def test_rational_slope_rejected(self):
        with pytest.raises(RationalRatio):
            convergent_waves(make_direction([1, 2]), range(3, 4))

    def test_needs_dim_two(self):
        with pytest.raises(ValueError):
            convergent_waves(make_direction([1, 2, 3]), range(3, 4))


class TestParseToken:
    def test_tokens(self):
        assert parse_family_token("fib:7").frequency == (21, -13)
        assert parse_family_token("liouville:2").frequency == (11, -100)
        assert parse_family_token("liouville:2:2").frequency == (3, -4)
        assert parse_family_token("cwave:3", PHI).family == "convergent_wave"

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_family_token("fib:x")
        with pytest.raises(ParseError):
            parse_family_token("cwave:3")  # no direction
        with pytest.raises(ParseError):
            parse_family_token("nope:1")
        for token in ("fib:7:2", "cwave:3:1", "liouville:2:3:4"):  # no stray fields
            with pytest.raises(ParseError):
                parse_family_token(token, PHI)
        with pytest.raises(ParseError):
            sharpness_table(PHI, "nope", 3)


class TestSharpnessTable:
    def test_fibonacci_floor_holds(self):
        table = sharpness_table(PHI, "fibonacci", 20)
        assert table.verdict.startswith("no failure detected")
        assert "every dyadic annulus is hit" in table.annulus_note
        ratios = [float(r.ratio) for r in table.rows]
        assert min(ratios) > 0.85
        assert abs(ratios[-1] - 0.8506508) < 1e-6

    def test_liouville_collapses(self):
        L = make_direction([1, "liouville:10"])
        table = sharpness_table(L, "liouville", 5)
        assert len(table.rows) == 5
        assert table.verdict.startswith("inequality fails")
        with pytest.raises(PrecisionCapExceeded):
            sharpness_table(L, "liouville", 6, ctx=PrecisionContext(max_digits=5040))

    def test_liouville_rows_print_their_true_values(self):
        # rows 4 and 5 are about 1e-72 and 1e-480, far below the absolute
        # width of a working-precision enclosure
        ctx = DEFAULT_CONTEXT
        table = sharpness_table(make_direction([1, "liouville:10"]), "liouville", 5, ctx=ctx)
        for row in table.rows[3:]:
            for value in (row.abs_inner, row.ratio):
                lo, hi = value.enclosure(2000)
                printed = Fraction(value.significant(20, ctx))
                assert 0 < lo and printed > 0
                # 20 significant digits, rounded to nearest
                assert max(abs(printed - lo), abs(hi - printed)) <= printed / 10 ** 19
        assert Fraction(table.rows[4].ratio.significant(20, ctx)) < Fraction(1, 10 ** 479)
        lo, hi = table.rows[4].ratio.enclosure(2000)
        minimum = table.verdict.partition("running minimum ")[2].rstrip(")")
        assert Fraction(minimum) == Fraction(fraction_to_decimal_str((lo + hi) / 2, 4))

    def test_convergent_wave_on_e_collapses(self):
        table = sharpness_table(make_direction([1, e_cr()]),
                                "convergent_wave", 20)
        assert table.verdict.startswith("inequality fails")


def _counting(monkeypatch, module, name):
    """Count the calls to module.name, which keeps working."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(a) or original(*a, **kw))
    return calls


class TestOneWalk:
    """Criterion 1 reads the Fibonacci waves, their closed forms and the limit
    off the one convergent walk behind its sharpness table."""

    def test_fibonacci_waves_extend_the_walks_members(self, monkeypatch):
        made = _counting(monkeypatch, extremizers.FamilyMember, "__init__")
        members = fibonacci_waves(range(1, 21))
        assert len(made) == 20      # the walk's own members, none rebuilt
        waves = convergent_waves(PHI, range(1, 21))
        phi = CertifiedReal.from_quad(GOLDEN_RATIO)
        for m, wave in zip(members, waves):
            assert (m.index, m.family, m.frequency) == (wave.index, "fibonacci", wave.frequency)
            assert m.metadata["convergent"] == wave.metadata["convergent"]
            for key in ("abs_k", "abs_inner"):
                assert m.metadata[key].enclosure(80) == wave.metadata[key].enclosure(80)
            fn1, fn = m.metadata["convergent"]
            r = Fraction(fn1, fn)    # the closed form as a rational-first expression
            closed = (CertifiedReal.from_rational(r * r + 1).sqrt()
                      * abs(CertifiedReal.from_rational(r) - phi) * (fn * fn))
            assert m.metadata["closed_form_ratio"].enclosure(80) == closed.enclosure(80)
        assert len({id(m.metadata["expected_limit"]) for m in members}) == 1
        limit = members[0].metadata["expected_limit"]
        assert abs(float(limit) - math.sqrt((5 + math.sqrt(5)) / 10)) < 1e-15

    def test_sharpness_table_keeps_its_members(self):
        table = sharpness_table(PHI, "fibonacci", 20)
        assert [(m.index, m.frequency) for m in table.members] == \
            [(r.index, r.k) for r in table.rows]
        assert {m.family for m in table.members} == {"fibonacci"}

    def test_criterion_1_walks_once(self, monkeypatch):
        walks = _counting(monkeypatch, extremizers, "convergent_waves")
        products = [_counting(monkeypatch, module, "inner_product")
                    for module in (diophantine, directions, extremizers, report)]
        assert report.criterion_1()["pass"]
        assert len(walks) == 1
        # 20 along the walk and 20 for the table's rows
        assert sum(map(len, products)) == 40

    def test_criterion_3_takes_the_gradient_norm_once(self, monkeypatch):
        grads = _counting(monkeypatch, report, "grad_norm")
        assert report.criterion_3()["pass"]
        assert len(grads) == 1
