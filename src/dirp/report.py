"""One-shot verification report: every release gate in one place.

Each `criterion_*` function returns a JSON-ready dict with a boolean
"pass" plus the measured values, so the CLI `report` command and the
test suite share one implementation.  Serialization is deterministic
(sorted keys, no timestamps, decimal strings for certified values), so
two runs with the same config produce byte-identical artifacts.
"""

from __future__ import annotations

import bisect
import json
import math
from fractions import Fraction

import numpy as np

from . import __version__
from .certified import CertifiedReal
from .constants import e_cr
from .diffusion import (DEFAULT_SEED, GridFunction, GridMeasure, RVSpec, apply_markov,
                        cesaro_average, convolution_power, density_floor_check,
                        scaling_fit, taylor_limit_check)
from .diophantine import (cf_expand, delta_from_sigma, lattice_min,
                          lattice_min_profile, markov_bounds)
from .directions import inner_product, make_direction
from .extremizers import PHI, liouville_family, sharpness_table
from .precision import DEFAULT_CONTEXT, PrecisionContext, fraction_to_decimal_str
from .quadratic import GOLDEN_RATIO, SQRT2, QuadExact
from .spectral import (TrigPoly, directional_norm, grad_norm, half_mass_cutoff, l2_norm,
                       parseval_sums)


def _dec(x: CertifiedReal, digits: int = 40) -> str:
    return fraction_to_decimal_str(x.midpoint(digits), digits)


def _leq(x: CertifiedReal, bound, digits: int = 60) -> bool:
    """Certified x <= bound (true only if provable from the enclosure)."""
    return x.enclosure(digits)[1] <= Fraction(bound)


def _abs_leq(x: CertifiedReal, bound, digits: int = 120) -> bool:
    lo, hi = x.enclosure(digits)
    return -Fraction(bound) <= lo and hi <= Fraction(bound)


# ---------------------------------------------------------------------------

def criterion_1(ctx: PrecisionContext = DEFAULT_CONTEXT) -> dict:
    """Fibonacci waves against (1, phi): ratios converge to |alpha|/sqrt5,
    and the closed-form and direct evaluations agree to 1e-30."""
    table = sharpness_table(PHI, "fibonacci", 20, ctx=ctx)
    r20 = table.rows[-1].ratio
    limit = table.members[-1].metadata["expected_limit"]
    close = _abs_leq(r20 - limit, Fraction(1, 10 ** 6))
    agree = True
    worst = Fraction(0)
    for n in (1, 5, 10, 20):
        diff = table.rows[n - 1].ratio - table.members[n - 1].metadata["closed_form_ratio"]
        lo, hi = diff.enclosure(max(80, ctx.working_digits))
        worst = max(worst, abs(lo), abs(hi))
        agree = agree and max(abs(lo), abs(hi)) <= Fraction(1, 10 ** 30)
    return {
        "criterion": 1,
        "name": "fibonacci-sharpness",
        "ratio_20": _dec(r20),
        "limit": _dec(limit),
        "limit_gap_ok": close,
        "closed_form_agreement": fraction_to_decimal_str(worst, 3),
        "closed_form_ok": agree,
        "pass": close and agree,
    }


def criterion_2(ctx: PrecisionContext = DEFAULT_CONTEXT) -> dict:
    """Lattice minimum for (1, phi) at sigma = 1: value window at R = 1000
    and monotonicity in R."""
    mins = {R: lattice_min(PHI, R, 1, ctx=ctx).minimum for R in (10, 100, 1000)}
    lo, hi = mins[1000].enclosure(60)
    in_window = Fraction("0.8506508") <= lo and hi <= Fraction("0.8507")
    monotone = all((mins[a] - mins[b]).sign_soft(ctx) in (1, 0)
                   for a, b in ((10, 100), (100, 1000)))
    return {
        "criterion": 2,
        "name": "lattice-min-window",
        "minima": {str(R): _dec(v) for R, v in mins.items()},
        "window_ok": in_window,
        "monotone_ok": monotone,
        "pass": in_window and monotone,
    }


def criterion_3() -> dict:
    """Liouville wave N = 3: directional collapse ~1e-18 and metadata bounds."""
    m = liouville_family(3)
    L = make_direction([1, "liouville:10"])
    l2 = l2_norm(m.poly)
    dir_ratio = directional_norm(m.poly, L) / l2
    grad_ratio = grad_norm(m.poly) / l2
    thm1 = grad_ratio * dir_ratio
    # window [0.999e-18, 1.001e-18]
    lo, hi = dir_ratio.enclosure(80)
    window = (Fraction(999, 10 ** 3) / 10 ** 18 <= lo
              and hi <= Fraction(1001, 10 ** 3) / 10 ** 18)
    thm1_ok = _leq(thm1, Fraction(1, 10 ** 11), 80)
    # ||f_3|| = pi*sqrt2 exactly <=> raw coefficient mass is exactly 1/2
    mass, _, _ = parseval_sums(m.poly)
    l2_exact = mass.exact is not None and mass.exact == QuadExact(Fraction(1, 2))
    grad_ok = _leq(grad_ratio, 6 * 10 ** 6, 60)
    return {
        "criterion": 3,
        "name": "liouville-failure",
        "directional_ratio": _dec(dir_ratio, 30),
        "window_ok": window,
        "thm1_ratio_ok": thm1_ok,
        "l2_is_pi_sqrt2": l2_exact,
        "grad_bound_ok": grad_ok,
        "pass": window and thm1_ok and l2_exact and grad_ok,
    }


def criterion_4(ctx: PrecisionContext = DEFAULT_CONTEXT) -> dict:
    """sqrt2 floor: min |k| |<k,(sqrt2,1)>| over 0 < |k| <= 200 equals
    2 - sqrt2 exactly and exceeds 1/3."""
    a = make_direction([SQRT2, 1])
    res = lattice_min(a, 200, 1, ctx=ctx)
    target = QuadExact(2, -1, 2)
    exact_ok = (res.minimum.exact is not None and res.minimum.exact == target)
    tight = _abs_leq(res.minimum - CertifiedReal.from_quad(target), Fraction(1, 10 ** 20))
    floor_ok = (res.minimum - Fraction(1, 3)).sign_soft(ctx) == 1
    return {
        "criterion": 4,
        "name": "sqrt2-floor",
        "minimum": _dec(res.minimum, 30),
        "argmin": list(res.argmin),
        "exact_value_ok": exact_ok and tight,
        "above_one_third": floor_ok,
        "pass": exact_ok and tight and floor_ok,
    }


class _Integers:
    """draw(lo, hi) is default_rng(seed).integers(lo, hi) of numpy 2.x for
    1 <= hi - lo < 2**32, the same stream at a fraction of the cost per call.
    numpy draws from 32-bit words, which PCG64 hands out low half first from
    each raw 64-bit output, by Lemire's method (ACM TOMACS 29(1), 2019); a
    range of one value draws nothing.  NEP 19 pins PCG64's raw words, not
    this algorithm, which tests/test_report_stream.py pins.  Words are read
    a block at a time, the next at `pos`; lemire[j][i] is the draw from
    [0, RANGES[j]) that words[i] alone gives, -1 where Lemire rejects
    words[i] and at the LOOKAHEAD places past the block's end."""

    _BLOCK = 512    # raw words read at a time
    RANGES = (257, 17, 4)
    LOOKAHEAD = 3

    def __init__(self, seed: int):
        self._bits = np.random.PCG64(seed)
        self._refill()

    def _refill(self) -> None:
        raw = self._bits.random_raw(self._BLOCK)
        words = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()
        self.words, self.pos, self.lemire = words.tolist(), 0, []
        for n in self.RANGES:
            m = words * n   # < 2**41: no uint64 wraps
            draws = (m >> 32).astype(np.int64)  # -1 as uint64 would wrap to 2**64 - 1
            draws[(m & 0xFFFFFFFF) < ((1 << 32) - n) % n] = -1
            self.lemire.append(draws.tolist() + [-1] * self.LOOKAHEAD)

    def __call__(self, lo: int, hi: int) -> int:
        n = hi - lo
        if not 1 < n < 1 << 32:
            if n == 1:
                return lo
            raise ValueError(f"range size {n} is outside [1, 2**32)")
        threshold = ((1 << 32) - n) % n
        while True:
            if self.pos == len(self.words):
                self._refill()
            m = self.words[self.pos] * n
            self.pos += 1
            if m & 0xFFFFFFFF >= threshold:
                return lo + (m >> 32)


# every coefficient _random_poly can draw: num / 2**e in lowest terms, as the
# (numerator, denominator) int pair at [e][num + 8]; a sum of two pairs is a
# TrigPoly row
_COEFFS = [[Fraction(num, 2 ** e).as_integer_ratio() for num in range(-8, 9)] for e in range(4)]


def _random_poly(draw: _Integers) -> TrigPoly:
    """<= 100 terms, d = 2, |k| <= 128 (euclidean), dyadic rational coeffs;
    every term kept is nonzero, so the polynomial is never zero; the draws
    come off draw.lemire where no -1 stands, else from draw itself."""
    n_terms = draw(1, 101)
    terms = {}
    i, (d257, d17, d4) = draw.pos, draw.lemire
    while len(terms) < n_terms:
        if d257[i] >= 0 and d257[i + 1] >= 0:
            k = (d257[i] - 128, d257[i + 1] - 128)
            i += 2
        else:   # the block ends or a word is rejected
            draw.pos = i
            k = (draw(-128, 129), draw(-128, 129))
            i, (d257, d17, d4) = draw.pos, draw.lemire
        if k == (0, 0) or k[0] * k[0] + k[1] * k[1] > 128 * 128:
            continue
        if d17[i] >= 0 and d17[i + 1] >= 0 and d4[i + 2] >= 0:
            num_re, num_im, coeffs = d17[i] - 8, d17[i + 1] - 8, _COEFFS[d4[i + 2]]
            i += 3
        else:
            draw.pos = i
            num_re, num_im, coeffs = draw(-8, 9), draw(-8, 9), _COEFFS[draw(0, 4)]
            i, (d257, d17, d4) = draw.pos, draw.lemire
        if num_re == 0 and num_im == 0:
            continue
        terms[k] = coeffs[num_re + 8] + coeffs[num_im + 8]
    draw.pos = i
    return TrigPoly._from_rows(2, terms)


def criteria_5_6(seed: int = DEFAULT_SEED,
                 ctx: PrecisionContext = DEFAULT_CONTEXT) -> tuple[dict, dict]:
    """Half-mass bound and the frequency-cutoff chain
    ratio >= (1/(2 sqrt2)) * lattice_min(R_f) on one random population
    of 1000 polynomials.

    Both checks run in exact arithmetic: the half-mass tail is an exact
    rational, and the chain is compared after squaring inside Q(sqrt5).
    """
    samples = 1000
    draw = _Integers(seed)
    # running-minimum records cover every cutoff radius R_f <= 2*128*sqrt2
    records = lattice_min_profile(PHI, 363, 1, ctx=ctx)
    shells, rec = [], []
    for ns, k, _ in records:
        ip = inner_product(k, PHI).exact
        shells.append(ns)
        rec.append(ip * ip * ns)    # the lattice-min value squared
    half_fail = 0
    chain_fail = 0
    for _ in range(samples):
        p = _random_poly(draw)
        # s0 = S0 / L^2 and sg = SG / L^2 (parseval_sums), so the chain's
        # 8 sg / s0^2 and R_f^2 = 4 sg / s0 are integer ratios
        (S0, SG), scale = p.mass_totals, p.masses[0]
        sd = parseval_sums(p, PHI)[2].exact
        # half-mass: tail fraction at radius 2*sqrt(sg/s0) is <= 1/2
        _, tail = half_mass_cutoff(p)
        if tail.exact.as_fraction() > Fraction(1, 2):
            half_fail += 1
        # chain: 8 ratio^2 = 8 sg sd / s0^2 >= minsq with minsq over the shells
        # |k|^2 <= R_f^2, the closed ball: |k|^2 is an integer, so <= floor(R_f^2)
        i = bisect.bisect_right(shells, 4 * SG // S0)
        minsq = rec[i - 1] if i else None
        if minsq is None or (sd * Fraction(8 * SG * scale, S0 * S0) - minsq).sign() < 0:
            chain_fail += 1
    c5 = {
        "criterion": 5,
        "name": "half-mass-population",
        "samples": samples,
        "seed": seed,
        "failures": half_fail,
        "pass": half_fail == 0,
    }
    c6 = {
        "criterion": 6,
        "name": "cutoff-chain-population",
        "samples": samples,
        "seed": seed,
        "failures": chain_fail,
        "pass": chain_fail == 0,
    }
    return c5, c6


def criterion_7() -> dict:
    table = {
        "1": delta_from_sigma(1),
        "7": delta_from_sigma(7),
        "13/5": delta_from_sigma(Fraction(13, 5)),
    }
    expected = {
        "1": (Fraction(1, 2), Fraction(1, 2)),
        "7": (Fraction(7, 8), Fraction(1, 8)),
        "13/5": (Fraction(13, 18), Fraction(5, 18)),
    }
    ok = table == expected
    return {
        "criterion": 7,
        "name": "delta-exponent-table",
        "pairs": {k: [str(v[0]), str(v[1])] for k, v in table.items()},
        "pass": ok,
    }


def criterion_8() -> dict:
    values = {level: markov_bounds(level) for level in (1, 2, 3)}
    # the Lagrange value sqrt(9m^2 - 4)/m of the Markov numbers m = 1, 2, 5
    ok = all(values[i].exact == QuadExact(0, Fraction(1, m), 9 * m * m - 4)
             for i, m in ((1, 1), (2, 2), (3, 5)))
    return {
        "criterion": 8,
        "name": "markov-constants",
        "values": {str(i): _dec(v, 30) for i, v in values.items()},
        "pass": ok,
    }


def criterion_9(ctx: PrecisionContext = DEFAULT_CONTEXT) -> dict:
    cf_phi = cf_expand(GOLDEN_RATIO, 30, ctx)
    phi_ok = cf_phi.exact and all(q == 1 for q in cf_phi.quotients)
    cf_s2 = cf_expand(SQRT2, 30, ctx)
    s2_ok = (cf_s2.exact and cf_s2.quotients[0] == 1
             and all(q == 2 for q in cf_s2.quotients[1:])
             and cf_s2.period is not None)
    cf_e = cf_expand(e_cr(), 25, ctx)
    mq, idx = cf_e.max_quotient()
    e_ok = cf_e.certified_depth >= 20 and mq >= 10
    return {
        "criterion": 9,
        "name": "cf-diagnostics",
        "phi_all_ones": bool(phi_ok),
        "sqrt2_periodic_twos": bool(s2_ok),
        "e_certified_depth": cf_e.certified_depth,
        "e_max_quotient": mq,
        "pass": bool(phi_ok and s2_ok and e_ok),
    }


_T_GRID = (Fraction(1, 10), Fraction(1, 20), Fraction(1, 50),
           Fraction(1, 100), Fraction(1, 200))


def criterion_10(seed: int = DEFAULT_SEED) -> dict:
    sym = scaling_fit(RVSpec.uniform(Fraction(-1, 2), Fraction(1, 2)),
                      2, _T_GRID, 4096, seed=seed)
    drift = scaling_fit(RVSpec.uniform(0, Fraction(1, 2)),
                        2, _T_GRID, 4096, seed=seed)
    ok = (1.9 <= sym.slope <= 2.1) and (0.9 <= drift.slope <= 1.1)
    return {
        "criterion": 10,
        "name": "diffusion-scaling",
        "symmetric": sym.to_json(),
        "drifted": drift.to_json(),
        "pass": ok,
    }


def criterion_11() -> dict:
    r = taylor_limit_check([(1, 1.0)],
                           (Fraction(1, 50), Fraction(1, 100), Fraction(1, 200)),
                           4096)
    # the closed form is ||f''||_2/6 in the same grid norm; relative to
    # ||f||_2 = 1/sqrt2 this is (2 pi)^2/6 ~ 6.5797
    rel_limit = r["extrapolated_limit"] * math.sqrt(2)
    ok = r["relative_error"] <= 0.02
    return {
        "criterion": 11,
        "name": "taylor-limit",
        "limit_per_unit_l2": rel_limit,
        "target_per_unit_l2": (2 * math.pi) ** 2 / 6,
        "relative_error": r["relative_error"],
        "pass": ok,
    }


def _random_measure(M: int, rng: np.random.Generator) -> GridMeasure:
    kind = rng.integers(0, 3)
    if kind == 0:       # smooth-ish density
        w = rng.random(M) + 0.05
    elif kind == 1:     # sparse support
        w = np.zeros(M)
        idx = rng.integers(0, M, size=int(rng.integers(2, 12)))
        w[idx] = rng.random(len(idx)) + 0.1
    else:               # mixture with a uniform floor
        w = np.full(M, 1.0) + 0.0
        w[rng.integers(0, M)] += M * rng.random()
    return GridMeasure(M, w / w.sum())


def criterion_12(seed: int = DEFAULT_SEED) -> dict:
    """Young, telescoping, Cesaro and pointwise-density contraction bounds
    on 200 random (f, mu, n) triples, all three p at once, 1e-9 slack."""
    rng = np.random.default_rng(seed)
    triples = 200
    M = 256
    slack = 1e-9
    worst = -math.inf
    failures = 0
    for _ in range(triples):
        f = GridFunction.random_mean_zero(M, rng)
        mu = _random_measure(M, rng)
        n = int(rng.integers(1, 65))
        g1 = apply_markov(f, mu)
        gn = apply_markov(f, convolution_power(mu, n))
        gc = apply_markov(f, cesaro_average(mu, n))
        c = min(1.0, mu.density_floor())
        ok = True
        for p in (1, 2, math.inf):
            nf = f.lp_norm(p)
            d1 = GridFunction(M, f.values - g1.values).lp_norm(p)
            young = g1.lp_norm(p) - nf
            tele = GridFunction(M, f.values - gn.values).lp_norm(p) - n * d1
            ces = GridFunction(M, f.values - gc.values).lp_norm(p) - n * d1
            lemma = g1.lp_norm(p) - (1 - c) * nf
            m = max(young, tele, ces, lemma)
            worst = max(worst, m)
            ok = ok and m <= slack
        failures += 0 if ok else 1
    return {
        "criterion": 12,
        "name": "contraction-properties",
        "triples": triples,
        "seed": seed,
        "worst_margin": worst,
        "failures": failures,
        "pass": failures == 0,
    }


def criterion_13() -> dict:
    n, floor_2048 = density_floor_check(RVSpec.uniform(0, Fraction(1, 2)),
                                        Fraction(1, 20), 16, 2048)
    _, floor_4096 = density_floor_check(RVSpec.uniform(0, Fraction(1, 2)),
                                        Fraction(1, 20), 16, 4096)
    change = abs(floor_4096 - floor_2048) / floor_2048 if floor_2048 else math.inf
    ok = floor_2048 > 0 and change < 0.05
    return {
        "criterion": 13,
        "name": "density-floor",
        "n_used": n,
        "floor_M2048": floor_2048,
        "floor_M4096": floor_4096,
        "relative_change": change,
        "pass": ok,
    }


def _determinism_probe(seed: int) -> bytes:
    """A cross-module sample of the report pipeline, serialized."""
    payload = {
        "delta": criterion_7(),
        "markov": criterion_8(),
        "cf": criterion_9(),
        "fit": scaling_fit(RVSpec.uniform(0, Fraction(1, 2)), 2,
                           (Fraction(1, 10), Fraction(1, 20), Fraction(1, 50)),
                           512, seed=seed).to_json(),
    }
    return json.dumps(payload, sort_keys=True).encode()


def criterion_14(seed: int = DEFAULT_SEED) -> dict:
    ok = _determinism_probe(seed) == _determinism_probe(seed)
    return {
        "criterion": 14,
        "name": "determinism",
        "probe_bytes_equal": ok,
        "pass": ok,
    }


def build_report(seed: int = DEFAULT_SEED,
                 ctx: PrecisionContext = DEFAULT_CONTEXT) -> dict:
    rows = [
        criterion_1(ctx), criterion_2(ctx), criterion_3(), criterion_4(ctx),
    ]
    rows += list(criteria_5_6(seed, ctx=ctx))
    rows += [
        criterion_7(), criterion_8(), criterion_9(ctx),
        criterion_10(seed), criterion_11(), criterion_12(seed),
        criterion_13(), criterion_14(seed),
    ]
    return {
        "version": __version__,
        "seed": seed,
        "precision_digits": ctx.working_digits,
        "max_digits": ctx.max_digits,
        "rows": rows,
        "all_pass": all(r["pass"] for r in rows),
    }


def report_to_bytes(report: dict) -> bytes:
    """The canonical JSON bytes (sorted keys, indent 1) of a report and of
    every CLI output; REPORT_SHA256 and the golden digests pin them."""
    return json.dumps(report, sort_keys=True, indent=1).encode()
