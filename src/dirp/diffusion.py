"""Discrete circle model for averaging operators f(x) -> E f(x + tY).

Everything lives on a grid of M cells over T = R/Z: measures are
cell-mass vectors, functions are cell samples, and the averaging
operator is cyclic convolution with the law of tY.  All claims made
here are grid-level statements about float64 arithmetic, not
enclosures: the p = 2 contraction factor is read off a float FFT of the
exact cell masses, while p in {1, inf} values are upper bounds from
witness families and are labeled as such.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .directions import split_top_level
from .errors import GridMismatch, ParseError, UnderResolved, ZeroDrift

_DIRECT_CONV_MAX = 4096   # direct sums, running Cesaro loops up to here; FFT, powering above
_ONE_THREAD_CONV_MAX = 2048  # direct steps on one thread up to here, two above
_MASS_TOL = 1e-12
DEFAULT_SEED = 1234


# ---------------------------------------------------------------------------
# random variable specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RVSpec:
    """Law of Y as a mixture of uniform densities and atoms.

    uniforms: (weight, lo, hi) triples; atoms: (position, mass) pairs;
    all exact Fractions, total mass 1.  Supports wider than [-1/2, 1/2]
    are allowed and wrap around the circle when discretized.
    """

    uniforms: tuple[tuple[Fraction, Fraction, Fraction], ...] = ()
    atoms: tuple[tuple[Fraction, Fraction], ...] = ()

    def __post_init__(self):
        total = sum((w for w, _, _ in self.uniforms), Fraction(0))
        total += sum((m for _, m in self.atoms), Fraction(0))
        if total != 1:
            raise ValueError(f"total mass must be 1, got {total}")
        for w, lo, hi in self.uniforms:
            if w <= 0 or lo >= hi:
                raise ValueError("uniform parts need weight > 0 and lo < hi")
        for _, m in self.atoms:
            if m <= 0:
                raise ValueError("atoms need positive mass")

    @classmethod
    def uniform(cls, lo, hi) -> "RVSpec":
        return cls(uniforms=((Fraction(1), Fraction(lo), Fraction(hi)),))

    @classmethod
    def from_atoms(cls, pairs) -> "RVSpec":
        return cls(atoms=tuple((Fraction(p), Fraction(m)) for p, m in pairs))

    @classmethod
    def mixture(cls, parts) -> "RVSpec":
        """parts: (weight, RVSpec) pairs; weights sum to 1."""
        uniforms, atoms = [], []
        for w, spec in parts:
            w = Fraction(w)
            for wu, lo, hi in spec.uniforms:
                uniforms.append((w * wu, lo, hi))
            for p, m in spec.atoms:
                atoms.append((p, w * m))
        return cls(uniforms=tuple(uniforms), atoms=tuple(atoms))

    @property
    def mean(self) -> Fraction:
        """E Y, exact."""
        out = sum((w * (lo + hi) / 2 for w, lo, hi in self.uniforms), Fraction(0))
        return out + sum((p * m for p, m in self.atoms), Fraction(0))


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad number {text!r}") from exc


def _parse_pairs(body: str) -> list[tuple[str, str]]:
    body = body.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ParseError(f"expected [..], got {body!r}")
    pairs = []
    for item in split_top_level(body[1:-1]):
        item = item.strip()
        fields = split_top_level(item[1:-1])
        if not (item.startswith("(") and item.endswith(")")) or len(fields) != 2:
            raise ParseError(f"expected (a,b) pair, got {item!r} in {body!r}")
        pairs.append((fields[0], fields[1]))
    return pairs


def parse_rv(text: str) -> RVSpec:
    """Grammar: uniform:lo:hi | atoms:[(pos,mass),...] |
    mix:[(weight,<spec-with-;-for-:>),...]."""
    text = text.strip()
    tag, _, body = text.partition(":")
    tag = tag.strip().lower()
    if tag == "uniform":
        lo, _, hi = body.partition(":")
        return RVSpec.uniform(_frac(lo), _frac(hi))
    if tag == "atoms":
        return RVSpec.from_atoms((_frac(p), _frac(m)) for p, m in _parse_pairs(body))
    if tag == "mix":
        parts = []
        for w, sub in _parse_pairs(body):
            parts.append((_frac(w), parse_rv(sub.strip().replace(";", ":"))))
        return RVSpec.mixture(parts)
    raise ParseError(f"unknown RV spec {text!r}")


# ---------------------------------------------------------------------------
# grid objects
# ---------------------------------------------------------------------------

@dataclass
class GridMeasure:
    M: int
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if len(self.weights) != self.M:
            raise GridMismatch("weight vector length != M")
        if self.weights.min() < -1e-13:
            raise ValueError("negative cell mass")
        # absorbs FFT rounding: an FFT convolution of nonnegative masses
        # comes out as low as -7e-18 where the exact mass is 0
        self.weights = np.maximum(self.weights, 0.0)
        total = float(self.weights.sum())
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"cell masses sum to {total!r}, not 1")

    @classmethod
    def delta(cls, M: int, cell: int = 0) -> "GridMeasure":
        w = np.zeros(M)
        w[cell % M] = 1.0
        return cls(M, w)

    @classmethod
    def uniform(cls, M: int) -> "GridMeasure":
        return cls(M, np.full(M, 1.0 / M))

    def density_floor(self) -> float:
        """Minimum cell density (cell mass times M)."""
        return float(self.weights.min()) * self.M


@dataclass
class GridFunction:
    M: int
    values: np.ndarray
    mean_zero: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if len(self.values) != self.M:
            raise GridMismatch("value vector length != M")
        if self.mean_zero and abs(float(self.values.mean())) > _MASS_TOL:
            raise ValueError("mean_zero flag set but mean is not ~0")

    def lp_norm(self, p) -> float:
        if p == math.inf or p == "inf":
            return float(np.abs(self.values).max())
        p = float(p)
        return float((np.abs(self.values) ** p).mean() ** (1 / p))

    @classmethod
    def harmonic(cls, M: int, n: int, phase: float = 0.0) -> "GridFunction":
        x = np.arange(M) / M
        v = np.cos(2 * np.pi * n * x + phase)
        v -= v.mean()
        return cls(M, v, mean_zero=True)

    @classmethod
    def random_mean_zero(cls, M: int, rng: np.random.Generator) -> "GridFunction":
        v = rng.standard_normal(M)
        v -= v.mean()
        return cls(M, v, mean_zero=True)


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def measure_from_rv(Y: RVSpec, t, M: int) -> GridMeasure:
    """Cell-exact law of tY on the M-cell grid.

    Uniform parts are integrated analytically cell by cell (wrapping
    around the circle as needed); atoms are split proportionally between
    the two neighboring cells.  Requires every uniform part to span at
    least 4 cells after scaling.
    """
    if M < 64:
        raise UnderResolved(f"M={M} < 64")
    t = Fraction(t)
    if not 0 < t <= 1:
        raise ValueError(f"t must be in (0, 1], got {t}")
    for w, lo, hi in Y.uniforms:
        if t * (hi - lo) < Fraction(4, M):
            raise UnderResolved(
                f"uniform part ({lo},{hi}) scaled by t={t} spans fewer than "
                f"4 of {M} cells; increase M")
    mass: dict[int, Fraction] = defaultdict(Fraction)   # touched cells only
    for w, lo, hi in Y.uniforms:
        # in cell units, with cells centered on the grid points j/M (as in
        # the atom interpolation below) so symmetric laws stay spectrally
        # symmetric; unwrapped cell c overlaps [a, b] and wraps to c mod M
        a, b = t * lo * M + Fraction(1, 2), t * hi * M + Fraction(1, 2)
        dens = w / (b - a)
        for c in range(math.floor(a), math.ceil(b)):
            mass[c % M] += dens * (min(b, c + 1) - max(a, c))
    for p, m in Y.atoms:
        x = t * p
        x -= math.floor(x)        # wrap to [0,1)
        scaled = x * M
        j = math.floor(scaled)
        frac = scaled - j
        mass[j % M] += m * (1 - frac)
        if frac:
            mass[(j + 1) % M] += m * frac
    weights = np.zeros(M)
    weights[list(mass)] = [float(v) for v in mass.values()]
    return GridMeasure(M, weights)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _convolver(b: np.ndarray):
    """a -> the cyclic convolution a * b, with b prepared once: direct
    float64 summation up to _DIRECT_CONV_MAX cells, FFT above.  Direct is
    np.correlate([b[1:], b], a[::-1]), as np.convolve computes it, with a[::-1]
    in one 64-byte-aligned buffer per kernel, where each BLAS dot runs ~25%
    faster.  Above _ONE_THREAD_CONV_MAX cells the outputs [M//2, M) go to a worker
    thread while the caller computes [0, M//2): numpy releases the GIL in
    np.correlate, and each output is the same dot over the same addresses as
    in one call.  So speed moves, bytes never."""
    M = len(b)
    if M <= _DIRECT_CONV_MAX:
        # the M outputs of the full product with [b, b] at M..2M-1, nothing else
        doubled = np.concatenate([b[1:], b])
        raw = np.empty(M + 7)
        rev = raw[-raw.ctypes.data % 64 // 8:][:M]
        h = M // 2
        lower, upper = doubled[:h + M - 1], doubled[h:]
        def direct(a):
            rev[:] = a[::-1]
            if M <= _ONE_THREAD_CONV_MAX:
                return np.correlate(doubled, rev, "valid")
            top = _worker().submit(np.correlate, upper, rev, "valid")
            return np.concatenate([np.correlate(lower, rev, "valid"), top.result()])
        return direct
    bhat = np.fft.fft(b)
    # fft(a) * bhat in this order: with FMA a complex product need not be
    # bitwise commutative
    return lambda a: np.real(np.fft.ifft(np.fft.fft(a) * bhat))


_pool = None    # (pid, executor): the worker thread of split direct steps


def _worker():
    """This process's one-thread executor, made on first use: importing dirp
    starts no thread, and a forked child, where the parent's thread does not
    run, makes its own.  Two threads racing here at most make one executor
    each, and each gets its result back from its own future."""
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor
        _pool = (os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="dirp-conv"))
    return _pool[1]


def _cyclic_conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _convolver(b)(a)


def convolve(a: GridMeasure, b: GridMeasure) -> GridMeasure:
    if a.M != b.M:
        raise GridMismatch(f"grid sizes differ: {a.M} vs {b.M}")
    return GridMeasure(a.M, _cyclic_conv(a.weights, b.weights))


def _binary_power(x, n: int, mul):
    """x^n (n >= 1) under an associative mul, low bit first: mul(result, square)."""
    result = None
    while n:
        if n & 1:
            result = x if result is None else mul(result, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return result


def convolution_power(a: GridMeasure, n: int) -> GridMeasure:
    """n-fold self-convolution by binary powering; each convolve takes the
    direct or FFT path from the grid size, as _convolver does."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _binary_power(a, n, convolve)


def apply_markov(f: GridFunction, mu: GridMeasure) -> GridFunction:
    """(f * mu)(x) = sum_y f(x + y) mu(y): cyclic correlation, mean
    preserving, non-expansive in every L^p (Young)."""
    if f.M != mu.M:
        raise GridMismatch(f"grid sizes differ: {f.M} vs {mu.M}")
    mu_rev = np.roll(mu.weights[::-1], 1)   # mu_rev[k] = mu[(-k) mod M]
    return GridFunction(f.M, _cyclic_conv(f.values, mu_rev),
                        mean_zero=f.mean_zero)


def cesaro_average(mu: GridMeasure, n: int) -> GridMeasure:
    """(1/n) * sum_{k=1..n} mu^k.  Up to _DIRECT_CONV_MAX cells a running loop
    of n - 1 direct convolutions, whose bytes the report pins (each split over
    two threads above _ONE_THREAD_CONV_MAX cells, as _convolver does); above it the
    n-th power of (S_1, P_1) = (mu, mu) under (S_a, P_a)(S_b, P_b) =
    (S_a + P_a * S_b, P_a * P_b), at most 4 log2(n) FFT convolutions."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if mu.M > _DIRECT_CONV_MAX:
        def mul(x, y):    # x = (S_a, P_a), y = (S_b, P_b); P_a prepared once
            step = _convolver(x[1])
            return x[0] + step(y[0]), step(y[1])
        total, _ = _binary_power((mu.weights, mu.weights), n, mul)
    else:
        step = _convolver(mu.weights)
        total = mu.weights.copy()
        power = mu.weights
        for _ in range(n - 1):
            power = step(power)
            total += power
    return GridMeasure(mu.M, total / n)


# ---------------------------------------------------------------------------
# contraction factors
# ---------------------------------------------------------------------------

@dataclass
class ContractionValue:
    p: object
    t: float
    value: float
    method: str
    M: int
    is_upper_bound: bool

    def __float__(self):
        return self.value


def _witness_functions(M: int, rng: np.random.Generator):
    n_max = min(M // 2, 64)
    for n in range(1, n_max + 1):
        for phase in (0.0, np.pi / 4, np.pi / 2):
            yield GridFunction.harmonic(M, n, phase)
    for _ in range(16):
        yield GridFunction.random_mean_zero(M, rng)


def _contraction_factors(Y: RVSpec, ts: Sequence, p, M: int,
                         seed: int) -> list[ContractionValue]:
    """contraction_factor at every t in ts.  Every t is discretized before
    any witness work; each witness is transformed and normed once, and only
    the multiplier changes with t."""
    # f * mu is a correlation, so f - f * mu has multiplier 1 - conj(mhat),
    # and |1 - conj(mhat)| = |1 - mhat| bit for bit
    multipliers = [1 - np.conj(np.fft.fft(measure_from_rv(Y, t, M).weights))
                   for t in ts]
    if p == 2:
        return [ContractionValue(2, float(t), float(np.abs(m[1:]).min()),
                                 "spectral-exact", M, False)
                for t, m in zip(ts, multipliers)]
    if p not in (1, math.inf, "inf"):
        raise ValueError("p must be 1, 2 or inf")
    best = [math.inf] * len(ts)
    for f in _witness_functions(M, np.random.default_rng(seed)):
        denom = f.lp_norm(p)
        if denom > 0:
            fhat = np.fft.fft(f.values)
            for i, multiplier in enumerate(multipliers):
                diff = GridFunction(M, np.real(np.fft.ifft(fhat * multiplier)))
                best[i] = min(best[i], diff.lp_norm(p) / denom)
    return [ContractionValue(p, float(t), h, f"witness-family (seed={seed})", M, True)
            for t, h in zip(ts, best)]


def contraction_factor(Y: RVSpec, t, p, M: int,
                       seed: int = DEFAULT_SEED) -> ContractionValue:
    """h_p(t) on the grid: inf over mean-zero f of ||f - f*mu_t||_p/||f||_p.

    p = 2 uses the spectral characterization min_{n != 0} |1 - mu_hat(n)|
    over grid frequencies, evaluated by a float64 FFT of the exact cell
    masses: a float value, not an enclosure (the "spectral-exact" label
    names the characterization).  p in {1, inf} report the minimum over a
    witness family (harmonics plus 16 seeded random functions), which is
    an upper bound on the true infimum.
    """
    return _contraction_factors(Y, [t], p, M, seed)[0]


@dataclass
class ContractionEstimate:
    p: object
    t_grid: list[float]
    h_values: list[float]
    slope: float
    intercept: float
    residual: float
    regime: str
    M: int
    seed: int
    methods: list[str]

    def to_json(self) -> dict:
        return {
            "p": "inf" if self.p in (math.inf, "inf") else self.p,
            "t_grid": self.t_grid,
            "h": self.h_values,
            "slope": self.slope,
            "intercept": self.intercept,
            "residual": self.residual,
            "regime": self.regime,
            "M": self.M,
            "seed": self.seed,
        }


def scaling_fit(Y: RVSpec, p, t_grid: Sequence, M: int,
                seed: int = DEFAULT_SEED) -> ContractionEstimate:
    """Least-squares slope of log h_p(t) against log t.

    Verdicts: "quadratic regime" for slope in [1.9, 2.1] (symmetric Y,
    h ~ t^2), "linear regime" for slope in [0.9, 1.1]
    (drifted Y, h ~ t), "no contraction: periodic orbit"
    when some h vanishes on the grid, else "indeterminate".  Every t is
    discretized with measure_from_rv, and so checked, before any witness
    work starts.
    """
    ts = [Fraction(t) for t in t_grid]
    if any(b >= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t_grid must be strictly decreasing")
    factors = _contraction_factors(Y, ts, p, M, seed)
    values = [cv.value for cv in factors]
    methods = [cv.method for cv in factors]
    tf = [float(t) for t in ts]
    if min(values) <= 1e-14:
        return ContractionEstimate(p, tf, values, 0.0, 0.0, 0.0,
                                   "no contraction: periodic orbit", M, seed, methods)
    logs_t = np.log(tf)
    logs_h = np.log(values)
    slope, intercept = np.polyfit(logs_t, logs_h, 1)
    residual = float(np.abs(slope * logs_t + intercept - logs_h).max())
    if 1.9 <= slope <= 2.1:
        regime = "quadratic regime"
    elif 0.9 <= slope <= 1.1:
        regime = "linear regime"
    else:
        regime = "indeterminate"
    return ContractionEstimate(p, tf, values, float(slope), float(intercept),
                               residual, regime, M, seed, methods)


# ---------------------------------------------------------------------------
# density floors
# ---------------------------------------------------------------------------

def density_floor_check(Y: RVSpec, t, C, M: int) -> tuple[int, float]:
    """Cesaro-averaged density floor after n ~ C / (t |E Y|) steps.

    Returns (n_used, minimum cell density of the Cesaro average).  A
    positive floor is the grid analogue of the renewal-theoretic
    absolutely-continuous component; purely singular Y may honestly
    report 0.
    """
    t, C = Fraction(t), Fraction(C)
    if C <= 0:
        raise ValueError("C must be > 0")
    drift = Y.mean
    if drift == 0:
        raise ZeroDrift("E Y = 0: the density-floor mechanism needs drift")
    n = math.ceil(C / (t * abs(drift)))
    mu = measure_from_rv(Y, t, M)
    ces = cesaro_average(mu, n)
    return n, ces.density_floor()


# ---------------------------------------------------------------------------
# Taylor limit of the arc average
# ---------------------------------------------------------------------------

def taylor_limit_check(harmonics: Sequence[tuple[int, float]],
                       t_grid: Sequence, M: int) -> dict:
    """For f = sum_i a_i cos(2 pi n_i x) and the arc average A_t over
    uniform(-t, t), tabulate ||f - A_t f||_2 / t^2 and extrapolate
    t -> 0; the limit should match the closed form ||f''||_2 / 6."""
    if M < 64:
        raise UnderResolved(f"M={M} < 64")
    if any(n == 0 for n, _ in harmonics) or not harmonics:
        raise ValueError("harmonics must be nonempty with n != 0 (mean zero)")
    ts = [Fraction(t) for t in t_grid]
    if any(b >= a for a, b in zip(ts, ts[1:])) or len(ts) < 2:
        raise ValueError("t_grid must be strictly decreasing, length >= 2")
    x = np.arange(M) / M
    f = np.zeros(M)
    for n, a_ in harmonics:
        f += float(a_) * np.cos(2 * np.pi * n * x)
    f -= f.mean()
    gf = GridFunction(M, f, mean_zero=True)
    arc = RVSpec.uniform(-1, 1)     # tY ~ uniform(-t, t)
    rows = []
    for t in ts:
        mu = measure_from_rv(arc, t, M)
        g = apply_markov(gf, mu)
        diff = GridFunction(M, gf.values - g.values)
        rows.append((float(t), diff.lp_norm(2) / float(t) ** 2))
    # Richardson step assuming r(t) = L + b t^2 + O(t^4)
    (t1, r1), (t2, r2) = rows[-2], rows[-1]
    limit = (r2 * t1 * t1 - r1 * t2 * t2) / (t1 * t1 - t2 * t2)
    # closed form ||f''||_2 / 6 via Parseval on the harmonics
    fpp_sq = sum((float(a_) * (2 * np.pi * n) ** 2) ** 2 / 2 for n, a_ in harmonics)
    target = math.sqrt(fpp_sq) / 6
    return {
        "rows": rows,
        "extrapolated_limit": limit,
        "closed_form": target,
        "relative_error": abs(limit - target) / target,
        "M": M,
    }
