"""Discrete circle model for averaging operators f(x) -> E f(x + tY).

Everything lives on a grid of M cells over T = R/Z: measures are
cell-mass vectors, functions are cell samples, and the averaging
operator is cyclic convolution with the law of tY.  All claims made
here are grid-level statements about float64 arithmetic, not
enclosures: the p = 2 contraction factor is read off a float FFT of the
exact cell masses, while p in {1, inf} values are upper bounds from
witness families and are labeled as such.  The witness minimum skips
every inverse FFT that a spectral lower bound with an a priori error
margin proves cannot lower it, which changes no value.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .directions import split_top_level
from .errors import GridMismatch, ParseError, UnderResolved, ZeroDrift
from .precision import short_str, to_fraction

_DIRECT_CONV_MAX = 4096   # direct sums, running Cesaro loops up to here; FFT, powering above
_MASS_TOL = 1e-12
DEFAULT_SEED = 1234       # the report's seed and the witness family's default


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
            raise ValueError(f"total mass must be 1, got {short_str(total)}")
        for w, lo, hi in self.uniforms:
            if w <= 0 or lo >= hi:
                raise ValueError("uniform parts need weight > 0 and lo < hi")
        for _, m in self.atoms:
            if m <= 0:
                raise ValueError("atoms need positive mass")

    @classmethod
    def uniform(cls, lo, hi) -> "RVSpec":
        """Uniform on [lo, hi]; every number here and in from_atoms and
        mixture is read by precision.to_fraction."""
        return cls(uniforms=((Fraction(1), to_fraction(lo), to_fraction(hi)),))

    @classmethod
    def from_atoms(cls, pairs) -> "RVSpec":
        return cls(atoms=tuple((to_fraction(p), to_fraction(m)) for p, m in pairs))

    @classmethod
    def mixture(cls, parts) -> "RVSpec":
        """parts: (weight, RVSpec) pairs; weights sum to 1."""
        uniforms, atoms = [], []
        for w, spec in parts:
            w = to_fraction(w)
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
    mix:[(weight,<spec-with-;-for-:>),...]; every number is read by
    read_ratio."""
    text = text.strip()
    tag, _, body = text.partition(":")
    tag = tag.strip().lower()
    if tag == "uniform":
        lo, _, hi = body.partition(":")
        return RVSpec.uniform(lo, hi)
    if tag == "atoms":
        return RVSpec.from_atoms(_parse_pairs(body))
    if tag == "mix":
        return RVSpec.mixture([(w, parse_rv(sub.strip().replace(";", ":")))
                               for w, sub in _parse_pairs(body)])
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
        if not np.isfinite(self.weights).all():
            raise ValueError("non-finite cell mass")
        if self.weights.min() < -1e-13:
            raise ValueError("negative cell mass")
        # absorbs FFT rounding: an FFT convolution of nonnegative masses
        # comes out as low as -7e-18 where the exact mass is 0
        self.weights = np.maximum(self.weights, 0.0)
        total = float(self.weights.sum())
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"cell masses sum to {total!r}, not 1")

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
        if not np.isfinite(self.values).all():   # the direct kernel needs finite a
            raise ValueError("non-finite function value")
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
    t = to_fraction(t)
    if not 0 < t <= 1:
        raise ValueError(f"t must be in (0, 1], got {short_str(t)}")
    for w, lo, hi in Y.uniforms:
        if t * (hi - lo) * M < 4:
            raise UnderResolved(
                f"uniform part ({short_str(lo)},{short_str(hi)}) scaled by "
                f"t={short_str(t)} spans fewer than 4 of {M} cells; increase M")
    mass: dict[int, Fraction] = defaultdict(Fraction)   # touched cells only
    for w, lo, hi in Y.uniforms:
        # in cell units, with cells centered on the grid points j/M (as in
        # the atom interpolation below) so symmetric laws stay spectrally
        # symmetric; unwrapped cell c overlaps [a, b] and wraps to c mod M.
        # Each of the n whole turns in [a, b] gives every cell dens; the
        # loop covers the rest, which is shorter than one turn
        a, b = t * lo * M + Fraction(1, 2), t * hi * M + Fraction(1, 2)
        dens = w / (b - a)
        n = math.floor((b - a) / M)
        if n:
            whole = dens * n
            for c in range(M):
                mass[c] += whole
            a += n * M
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

def _windows(b: np.ndarray) -> list[tuple[int, int, int, int, int, int]]:
    """Runs (i0, i1, A, G, H, E): outputs [i0, i1) of np.correlate([b[1:], b],
    rev, "valid") hold every nonzero product at j in [A, G) or [H, E), G = H
    meaning no gap.  [A, E) is the 64-aligned hull of the products over b's
    shortest support arc, or [0, M) for a run whose products wrap past M; such
    a run skips the zero gap [G, H) between their two ends when it holds 64
    cells or more.  A, and G and H of a gap, are multiples of 64, so each kept
    product keeps its SIMD lane, and E = M or a multiple of 64 keeps the
    scalar tail.  Equal windows merge.  One full dot when the windows save
    less than their calls cost."""
    M = len(b)
    if not 0 < np.count_nonzero(b) <= M - 64:    # zero b, or windows would save
        return [(0, M, 0, M, M, M)]               # under 64 products an output
    nz = np.flatnonzero(b)
    gaps = np.concatenate([nz[1:], nz[:1] + M]) - nz    # from each nonzero to the next
    k = int(gaps.argmax())
    s, W = int(nz[(k + 1) % len(nz)]), M + 1 - int(gaps[k])    # arc s..s+W-1 mod M
    cuts = sorted({*range(0, M, 64), s, (s + W - 1) % M, M})
    runs = []
    for i0, i1 in zip(cuts, cuts[1:]):
        j0 = (s - 1 - i0) % M    # output i's nonzero products: j in (s-1-i) mod M + [0, W)
        if j0 + W <= M:
            A, E = (j0 + i0 + 1 - i1) // 64 * 64, min(M, -(-(j0 + W) // 64) * 64)
            if E - A < 12:   # np.correlate sums <= 11 cells itself, not by BLAS
                A = max(0, A - 64)
            G = H = E
        else:    # j in [0, j0 + W - M) or [(s - i1) % M, M) over the run
            A, G, H, E = 0, -(-(j0 + W - M) // 64) * 64, (s - i1) % M // 64 * 64, M
            if H - G < 64:
                G = H = E
        if runs and runs[-1][2:] == (A, G, H, E):
            i0 = runs.pop()[0]
        runs.append((i0, i1, A, G, H, E))
    # an np.correlate call costs about as much as 2^14 multiply-adds (~1.5 us)
    work = sum((i1 - i0) * (E - A - H + G) for i0, i1, A, G, H, E in runs)
    if M * M - work < (len(runs) - 1) << 14:
        return [(0, M, 0, M, M, M)]
    return runs


def _aligned(n: int) -> np.ndarray:
    """An uninitialized float64 vector of n cells on a 64-byte boundary."""
    raw = np.empty(n + 7)
    return raw[-raw.ctypes.data % 64 // 8:][:n]


def _convolver(b: np.ndarray):
    """a -> the cyclic convolution a * b, with b prepared once: direct
    float64 summation up to _DIRECT_CONV_MAX cells, FFT above.  Direct is
    np.correlate([b[1:], b], a[::-1]), as np.convolve computes it, with a[::-1]
    in one 64-byte-aligned buffer per kernel (each BLAS dot runs ~25% faster),
    over each output's window from _windows(b) only.  A skipped product is a
    zero of b times a finite a, so +-0, which leaves a BLAS sum as it was (it
    starts at +0 and never becomes -0): bytes never move.

    A gapped run of R outputs dots rev[A:G] ++ rev[H:E], copied each step
    into its own aligned buffer, against doubled with the H - G cells
    [i0 + G + R - 1, i0 + H + R - 1) taken out: doubled is zero on
    [i0 + G, i0 + H + R - 1), so the products that pair across the cut are
    +-0 as well."""
    M = len(b)
    if M <= _DIRECT_CONV_MAX:
        # the M outputs of the full product with [b, b] at M..2M-1, nothing else
        doubled = np.concatenate([b[1:], b])
        rev = _aligned(M)
        dots, copies = [], []
        for i0, i1, A, G, H, E in _windows(b):
            if G == H:
                dots.append((doubled[i0 + A:i1 + E - 1], rev[A:E]))
                continue
            n = i1 - i0 - 1
            kernel = _aligned(E - A - H + G)
            copies += [(kernel[:G - A], rev[A:G]), (kernel[G - A:], rev[H:E])]
            dots.append((np.concatenate([doubled[i0 + A:i0 + G + n],
                                         doubled[i0 + H + n:i1 + E - 1]]), kernel))
        def direct(a):
            rev[:] = a[::-1]
            for dst, src in copies:
                dst[:] = src
            parts = [np.correlate(d, r, "valid") for d, r in dots]
            return parts[0] if len(parts) == 1 else np.concatenate(parts)
        return direct
    bhat = np.fft.fft(b)
    # fft(a) * bhat in this order: with FMA a complex product need not be
    # bitwise commutative
    return lambda a: np.real(np.fft.ifft(np.fft.fft(a) * bhat))


def convolve(a: GridMeasure, b: GridMeasure) -> GridMeasure:
    if a.M != b.M:
        raise GridMismatch(f"grid sizes differ: {a.M} vs {b.M}")
    return GridMeasure(a.M, _convolver(b.weights)(a.weights))


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
    return GridFunction(f.M, _convolver(mu_rev)(f.values),
                        mean_zero=f.mean_zero)


def cesaro_average(mu: GridMeasure, n: int) -> GridMeasure:
    """(1/n) * sum_{k=1..n} mu^k.  Up to _DIRECT_CONV_MAX cells a running loop
    of n - 1 direct convolutions, whose bytes the report pins (each over the
    windows of mu's support only, as _convolver does); above it the
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
    # A witness's inverse FFT at t is skipped when a lower bound proves that
    # its ratio cannot go below best[i]; min(best[i], ratio) would then return
    # best[i], so no value moves.  With z = fhat * m and g = Re ifft(z), for
    # any frequency k, |DFT(g)_k| <= sum|g_j| <= M max|g_j|, so M ||g||_p >=
    # |DFT(g)_k| for p = 1 (a mean) and p = inf.  DFT(g)_k differs from the
    # float z_k by at most E:
    #   - the inverse FFT's error, eps ||z||_2 <= eps ||fhat||_2 ||m||_inf
    #     (Higham 2002, Thm 24.2: eps = L eta / (1 - L eta), L = log2 M,
    #     eta = mu + gamma_4 (sqrt2 + mu), twiddles good to mu = 4u);
    #   - Re keeps (z_k + conj z_-k) / 2, and z is Hermitian only up to the
    #     forward FFTs' errors: eps ||fhat||_2 ||m||_inf for fhat, and
    #     |fhat_k| eps sqrt(M) for m, as the weights have ||w||_2 <= 1;
    #   - 4u |z_k| for rounding the product and 1 - conj(w_hat).
    # The two halves of the Hermitian defect are each bounded by a whole 2-norm,
    # a factor sqrt2 of slack that covers the second-order and u-order terms.
    # delta = 1e-9 covers the pairwise mean and the division, at most
    # (log2 M + 2) u.  The theorem is for radix-2 transforms, whose stages
    # pocketfft's radix-4 passes group in pairs, so other M skip nothing.
    # The first witness per t always runs, as best starts at inf.
    u = 2.0 ** -53
    L = M.bit_length() - 1
    eta = 4 * u + 4 * u / (1 - 4 * u) * (math.sqrt(2) + 4 * u)
    eps = L * eta / (1 - L * eta) if M & (M - 1) == 0 else math.inf
    m_max = [float(np.abs(m).max()) for m in multipliers]
    best = [math.inf] * len(ts)
    for f in _witness_functions(M, np.random.default_rng(seed)):
        denom = f.lp_norm(p)
        if denom > 0:
            fhat = np.fft.fft(f.values)
            mag = np.abs(fhat)
            k = int(mag.argmax())
            fk, spread, l2 = complex(fhat[k]), math.sqrt(M) * mag[k], math.sqrt(mag @ mag)
            for i, multiplier in enumerate(multipliers):
                zk = abs(fk * complex(multiplier[k]))
                if (zk - eps * (spread + 2 * l2 * m_max[i]) - 4 * u * zk
                        > (1 + 1e-9) * M * denom * best[i]):
                    continue
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
    an upper bound on the true infimum.  A witness whose ratio a lower
    bound, |DFT(f - f*mu)_k| / M at the peak k of f's spectrum less an
    a priori FFT error margin, proves to be no smaller than the running
    minimum skips its inverse FFT; the minimum, and so every output bit,
    stays as it was.
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
    work starts.  A fit needs two or more t values: a one-point grid
    raises ValueError unless h vanishes there.
    """
    ts = [to_fraction(t) for t in t_grid]
    if any(b >= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t_grid must be strictly decreasing")
    factors = _contraction_factors(Y, ts, p, M, seed)
    values = [cv.value for cv in factors]
    methods = [cv.method for cv in factors]
    tf = [float(t) for t in ts]
    if values and min(values) <= 1e-14:
        return ContractionEstimate(p, tf, values, 0.0, 0.0, 0.0,
                                   "no contraction: periodic orbit", M, seed, methods)
    if len(ts) < 2:     # a vanishing h needs no fit, but a slope needs two points
        raise ValueError("a scaling fit needs two or more t values")
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
    t, C = to_fraction(t), to_fraction(C)
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
    ts = [to_fraction(t) for t in t_grid]
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
