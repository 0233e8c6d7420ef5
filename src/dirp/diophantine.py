"""Continued fractions, badly-approximable diagnostics, and lattice minima.

The lattice searches split the ball into columns along the largest
entry of alpha.  A float64 prefilter with rigorous error margins keeps,
in each column, only the window of frequencies that can reach the best
bracket (O(R^(d-1)) work), and one certified running-minimum loop
re-evaluates the survivors, so results are exact-grade.  The same
columns cover d = 1 (a single column k_1 = 1..R) and any weight exponent
sigma, negative ones included.  Every finite-depth verdict is reported
with its certification radius/depth and never as a theorem.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, reduce
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .certified import CertifiedReal
from .directions import Direction, inner_product
from .errors import (
    DepthNotCertified,
    NonpositiveSigma,
    PrecisionExhausted,
    RationalRatio,
)
from .precision import DEFAULT_CONTEXT, PrecisionContext, short_str, to_fraction
from .quadratic import QuadExact
from .spectral import freq_norm_cr


# ---------------------------------------------------------------------------
# continued fractions
# ---------------------------------------------------------------------------

@dataclass
class CFExpansion:
    quotients: list[int]
    certified_depth: int
    exact: bool = False          # quotients certified to unlimited depth
    finite: bool = False         # the value is rational; expansion terminates
    period: Optional[tuple[int, list[int]]] = None  # (preperiod_len, period)
    note: str = ""

    @property
    def convergents(self) -> list[tuple[int, int]]:
        """(p_n, q_n) for each quotient, built on each access: the last of n
        has about n digits, so expansions read only for their quotients and
        period never pay for them."""
        out = []
        p_prev, p = 1, None
        q_prev, q = 0, None
        for a in self.quotients:
            if p is None:
                p, q = a, 1
            else:
                p, p_prev = a * p + p_prev, p
                q, q_prev = a * q + q_prev, q
            out.append((p, q))
        return out

    def max_quotient(self) -> tuple[int, int]:
        """(max certified quotient after a0, its index)."""
        if self.certified_depth < 2:
            raise DepthNotCertified("need at least one certified quotient after a0")
        tail = self.quotients[1:self.certified_depth]
        m = max(tail)
        return m, 1 + tail.index(m)


def _cf_exact(x: int | Fraction | QuadExact, depth: int) -> CFExpansion:
    """Rational or quadratic x, in integers only.

    x = (A + B sqrt d)/n with integers A, B and n > 0 is written as
    (P + sqrt D)/Q with P = A n, Q = n^2 and D = B^2 d n^2, P and Q
    negated when B < 0, so Q divides D - P^2; a rational is D = 0.  Each
    step emits a = floor((P + sqrt D)/Q) = (P + r) // Q with r = isqrt(D),
    or (P + r + 1) // Q when Q < 0 and D > 0 (sqrt D is irrational, so it
    lies strictly between r and r + 1); then P <- aQ - P, and
    Q <- (D - P^2)/Q keeps Q | D - P^2.  P^2 = D is a rational
    termination.  D never changes and sqrt D is irrational, so the value
    (P + sqrt D)/Q fixes the pair (P, Q): the pair repeats exactly when the
    complete quotient does, which gives the preperiod and the period.
    Stops there or at depth, whichever comes first.
    """
    u, v, d = (x.a, x.b, x.d) if isinstance(x, QuadExact) else (Fraction(x), Fraction(0), 0)
    n = math.lcm(u.denominator, v.denominator)  # A = u n, B = v n
    P, Q, D = int(u * n) * n, n * n, int(v * n) ** 2 * d * n * n
    if v < 0:
        P, Q = -P, -Q
    r = math.isqrt(D)
    seen: dict[tuple[int, int], int] = {}
    quotients: list[int] = []
    period = None
    while len(quotients) < depth:
        if (P, Q) in seen:
            start = seen[P, Q]
            period = (start, quotients[start:])
            break
        seen[P, Q] = len(quotients)
        a = (P + r + 1 if Q < 0 and D else P + r) // Q
        quotients.append(a)
        P = a * Q - P
        if P * P == D:
            return CFExpansion(quotients, certified_depth=len(quotients), exact=True,
                               finite=True, note="rational termination")
        Q = (D - P * P) // Q
    if period is not None:
        start, cycle = period
        while len(quotients) < depth:
            quotients.append(cycle[(len(quotients) - start) % len(cycle)])
    return CFExpansion(quotients, certified_depth=depth, exact=True, period=period)


def _cf_interval(x: CertifiedReal, depth: int, ctx: PrecisionContext) -> CFExpansion:
    """Quotients whose floor is constant across the enclosure [a/b, c/d].
    The steps run on the integer pairs, b and d > 0: subtracting the floor
    and inverting are Euclid's steps, so each pair keeps its gcd and needs
    no reduction."""
    best: list[int] = []
    for digits in ctx.digit_schedule():
        lo, hi = x.enclosure(digits)
        a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        quotients: list[int] = []
        while len(quotients) < depth:
            q = a // b
            if c // d != q:
                break
            quotients.append(q)
            a -= q * b
            c -= q * d
            if a <= 0:  # cannot certify the next inversion
                if a == 0 and c == 0:
                    return CFExpansion(quotients, certified_depth=len(quotients),
                                       exact=True, finite=True,
                                       note="rational termination")
                break
            a, b, c, d = d, c, b, a  # [a/b, c/d] -> [d/c, b/a]
        if len(quotients) > len(best):
            best = quotients
        if len(best) >= depth:
            return CFExpansion(best, certified_depth=len(best), exact=False)
        if not x.refinable:
            break
    return CFExpansion(best, certified_depth=len(best), exact=False,
                       note=f"certified only {len(best)} of {depth} quotients "
                            f"from a {digits}-digit enclosure")


def cf_expand(x, depth: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> CFExpansion:
    """Continued fraction of x to the requested depth.

    Exact inputs (int, Fraction, rational or quadratic QuadExact) run the
    integer (P, Q) recurrence of _cf_exact and give exactly `depth`
    quotients, fewer only when a rational terminates, with period
    detection for quadratics.  Anything else runs the interval
    algorithm: a quotient is emitted only while the floor is constant
    across the whole enclosure, doubling the digits up to ctx.max_digits
    (only a non-refinable value stops sooner); falling short is reported
    softly through certified_depth and note.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if isinstance(x, CertifiedReal) and x.exact is not None:
        x = x.exact
    if isinstance(x, (int, Fraction, QuadExact)):
        return _cf_exact(x, depth)
    if isinstance(x, CertifiedReal):
        return _cf_interval(x, depth, ctx)
    raise TypeError(f"cannot expand {type(x).__name__}")


def convergent_frequencies(a: Direction, depth: int,
                           ctx: PrecisionContext = DEFAULT_CONTEXT, start: int = 1
                           ) -> Iterator[tuple[tuple[int, int], tuple[int, int], CertifiedReal]]:
    """The certified convergents p/q of the slope x = a_2 / a_1 of a d = 2
    direction a, from one cf_expand(x, depth, ctx) call, as an iterator of
    ((p, q), k, <k, alpha>) with k = (p, -q), from the start-th convergent
    on; the ones before it cost no inner product.  Then
    <k, alpha> = a_1 p - a_2 q = -a_1 (q x - p) is the small quantity.
    Raises at the call, not at the first step: ValueError unless d = 2 and
    a_1 is nonzero, RationalRatio when x is rational or its expansion
    terminates."""
    if a.dim != 2:
        raise ValueError("convergent frequencies need d = 2")
    if a.entries[0].sign_soft(ctx) == 0:
        raise ValueError("a1 must be nonzero")
    x = a.entries[1] / a.entries[0]
    if x.exact is not None and x.exact.is_rational:
        raise RationalRatio("a2/a1 is rational")
    cf = cf_expand(x, depth, ctx)
    if cf.finite:
        raise RationalRatio("a2/a1 terminated as a rational expansion")
    return (((p, q), (p, -q), inner_product((p, -q), a))
            for p, q in cf.convergents[start - 1:])


@dataclass
class BoundedQuotientReport:
    max_quotient: int
    index: int
    certified_depth: int
    bound: int
    exceeded: bool
    verdict: str


def bounded_quotient_report(cf: CFExpansion, bound_window: int) -> BoundedQuotientReport:
    """Finite-depth evidence about quotient boundedness.  Never a proof:
    the verdict is labeled with the certified depth it rests on."""
    m, idx = cf.max_quotient()
    if m > bound_window:
        verdict = (f"quotient {m} > {bound_window} at index {idx}: "
                   "unbounded-pattern evidence; direction expected inadmissible")
    else:
        verdict = (f"no quotient above {bound_window} within certified depth "
                   f"{cf.certified_depth} (evidence only, not a proof)")
    return BoundedQuotientReport(m, idx, cf.certified_depth, bound_window,
                                 m > bound_window, verdict)


# ---------------------------------------------------------------------------
# lattice minima
# ---------------------------------------------------------------------------

def _search_json(res, digits: int) -> dict:
    """The fields LatticeSearchResult and SystemLatticeResult share."""
    return {
        "radius": res.radius,
        "weight_exponent": str(res.weight_exponent),
        "minimum": res.minimum.to_json(digits),
        "argmin": list(res.argmin),
        "digits_used": res.digits_used,
        "exact_zero_witness": list(res.exact_zero_witness) if res.exact_zero_witness else None,
        "enumerated": res.enumerated,
    }


@dataclass
class LatticeSearchResult:
    direction: str
    radius: int
    weight_exponent: Fraction
    norm_used: str
    minimum: CertifiedReal
    argmin: tuple[int, ...]
    digits_used: int
    exact_zero_witness: Optional[tuple[int, ...]]
    enumerated: int

    def to_json(self, digits: int = DEFAULT_CONTEXT.working_digits) -> dict:
        return {"direction": self.direction, "norm": self.norm_used,
                **_search_json(self, digits)}


_BLOCK = 1 << 13  # frequencies per numpy block


def _lead_sign(K: np.ndarray) -> np.ndarray:
    """Sign of each row's first nonzero coordinate (0 for a zero row),
    carried right to left over the columns."""
    lead = np.zeros(len(K), np.int64)
    for col in K.T[::-1]:
        lead = np.where(col, col, lead)
    return np.sign(lead)


def _shell(K: np.ndarray, norm: str) -> np.ndarray:
    """Each row's squared search norm: |k|^2, or max_i k_i^2 under the max
    norm, so R^2 bounds the ball under both; reduced column by column."""
    out = np.zeros(len(K), np.int64)
    combine = np.add if norm == "euclidean" else np.maximum
    for col in K.T:
        combine(out, col * col, out=out)
    return out


def _isqrt(n: np.ndarray) -> np.ndarray:
    """math.isqrt of each entry of an int64 array in [0, 2^52): the float
    root, corrected by one either way for its rounding."""
    r = np.sqrt(n).astype(np.int64)
    return r + ((r + 1) * (r + 1) <= n) - (r * r > n)


def _half_ball(m: int, R: int, norm: str) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Points of Z^m with 0 < |k| <= R whose first nonzero coordinate is
    positive (one representative per +/- pair), in nonempty blocks (K, shell)."""
    if m == 0:
        return
    side = np.arange(-R, R + 1, dtype=np.int64)
    step = max(1, _BLOCK // len(side) ** (m - 1))
    for start in range(0, R + 1, step):
        firsts = np.arange(start, min(start + step, R + 1), dtype=np.int64)
        grids = np.meshgrid(firsts, *[side] * (m - 1), indexing="ij")
        K = np.stack([g.reshape(-1) for g in grids], axis=1)
        if start == 0:  # later blocks have first coordinate >= 1
            K = K[_lead_sign(K) > 0]
        shell = _shell(K, norm)
        if norm == "euclidean":
            inside = shell <= R * R
            K, shell = K[inside], shell[inside]
        if len(K):
            yield K, shell


def _float_entries(forms: Sequence[Direction]) -> tuple[np.ndarray, np.ndarray]:
    """Float entries of each form (one row per form) and a rigorous bound on
    their error, padded for the rounding of the float arithmetic on them.
    An entry outside the float range raises ValueError."""
    A, err = [], []
    for f in forms:
        for e, spec in zip(f.entries, f.specs):
            lo, hi = e.enclosure(30)
            try:  # the 1e-300 keeps the float itself inside the radius
                A.append(float((lo + hi) / 2))
                err.append(float(hi - lo) + 1e-300)
            except OverflowError:
                raise ValueError(f"entry {spec} of {f.key()} is outside "
                                 "the float range") from None
    A = np.array(A, dtype=np.float64).reshape(len(forms), -1)
    err = np.array(err, dtype=np.float64).reshape(A.shape)
    return A, err + 1e-15 * (np.abs(A) + 1.0)


def _bracket(w: np.ndarray, mag: np.ndarray, err: np.ndarray, name: str
             ) -> tuple[np.ndarray, np.ndarray]:
    """Rigorous float bracket [lo, hi] of w * mag, given a bound err on mag's
    error.  A bracket that overflowed raises ValueError: with inf or NaN in
    it the search would certify the wrong survivors."""
    val = w * mag
    rad = w * err * 1.01 + val * 1e-12 + 1e-290
    lo, hi = val - rad, val + rad
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError(f"the float prefilter of {name} overflows")
    return lo, hi


def _column_windows(a: Direction, R: int, sigma: Fraction, norm: str
                    ) -> tuple[Iterator[tuple[np.ndarray, ...]], int, np.ndarray]:
    """(blocks, enumerated, bound): the frequencies a lattice search must
    look at, as blocks (K, shell, lo, hi) of at most _BLOCK rows with the
    float bracket [lo, hi] of shell^(sigma/2) |<k,alpha>| at each row, the
    number of half-ball frequencies covered, and pass 1's envelope as a
    table over the integer radius: bound.take(_isqrt(s), mode="clip") is
    the least hi pass 1 saw at radii below isqrt(s), so at shells below s
    (inf if none).

    The window coordinate j holds the largest float |alpha_j|; the others
    form a column k' centred at x* = -<k',alpha'>/alpha_j.  Pass 1 sets B to
    the least hi at the nearest integers to the centres over the radii
    below that of k' (a running envelope, so the windows hold every record
    of lattice_min_profile); pass 2 keeps each column's window
    |k_j - x*| <= h(k'), outside which lo > B, or the whole column if h = inf.
    Pass 1 runs here and folds each column's nearest integer into the
    table, R + 2 numbers (3 for d = 1); pass 2 regenerates the columns as
    the blocks are drawn, so one block of rows is held at a time.  Rows are
    built and reduced column by column: numpy reduces a (rows, d) block
    along its short axis many times slower.
    """
    (alpha,), (err,) = _float_entries([a])
    sig = float(sigma)
    j = int(np.argmax(np.abs(alpha)))
    # W * E bounds w * ierr on the ball: once in verr, once as ierr / alpha_j in |k_j - x*|
    slack = 2.02 * (float(R) ** sig if sig >= 0 else 1.0) * R * float(err.sum()) + 1e-290
    scale = (1 - 1e-12) * (abs(alpha[j]) - err[j])
    slope = np.delete(alpha, j) / -(alpha[j] or 1.0)  # all-zero floats: centres 0

    def columns():
        """(k', its shell, lowest k_j, highest k_j); k' = 0 comes first, with k_j >= 1"""
        yield (np.zeros((1, a.dim - 1), np.int64), np.zeros(1, np.int64),
               np.ones(1, np.int64), np.full(1, R))
        for C, shell in _half_ball(a.dim - 1, R, norm):
            cap = _isqrt(R * R - shell) if norm == "euclidean" else np.full(len(C), R)
            yield C, shell, -cap, cap

    def evaluate(X, kj):
        """(K, shell, lo, hi) of the frequencies with coordinate j kj and
        the others the rows of X, one row per coordinate"""
        T = np.empty((a.dim, len(kj)), np.int64)
        T[:j], T[j], T[j + 1:] = X[:j], kj, X[j:]
        sign = _lead_sign(T.T)
        K = np.empty((len(kj), a.dim), np.int64)
        for i, coord in enumerate(T):
            np.multiply(coord, sign, out=K[:, i])
        shell = _shell(T.T, norm)
        with np.errstate(over="ignore", invalid="ignore"):
            lo, hi = _bracket(shell.astype(np.float64) ** (sig / 2), np.abs(K @ alpha),
                              np.abs(K).astype(np.float64) @ err, a.key())
        return K, shell, lo, hi

    # bound[r]: the least hi at radii below r (d = 1: pass 1's one row is k = 1)
    bound = np.full((R if a.dim > 1 else 1) + 2, np.inf)
    enumerated = 0
    for C, _, lower, upper in columns():
        enumerated += int((upper - lower + 1).sum())
        kj = np.clip(np.rint(C @ slope), lower, upper).astype(np.int64)
        _, shell, _, hi = evaluate(C.T, kj)
        np.minimum.at(bound, _isqrt(shell) + 1, hi)
    np.minimum.accumulate(bound, out=bound)

    def blocks():
        for C, shell, lower, upper in columns():
            B = bound.take(_isqrt(shell), mode="clip")
            rho = shell.astype(np.float64) ** (sig / 2) if sig >= 0 else float(R) ** sig
            with np.errstate(divide="ignore", invalid="ignore"):
                h = np.where(scale * rho > 0, (B + slack) / (scale * rho) + 1, np.inf)
            centre = C @ slope
            p1 = np.clip(np.rint(centre), lower, upper)
            first = np.minimum(np.maximum(lower, np.ceil(centre - h)), p1).astype(np.int64)
            last = np.maximum(np.minimum(upper, np.floor(centre + h)), p1).astype(np.int64)
            counts = last - first + 1
            ends = np.cumsum(counts)  # the windows laid end to end, one row each
            starts = ends - counts
            shift = first - starts  # k_j at row r of a column's window is r + shift
            for start in range(0, int(ends[-1]), _BLOCK):  # a long column spans blocks
                stop = min(start + _BLOCK, int(ends[-1]))
                # the block's first and last column, and how many of its rows each holds
                c0, c1 = np.searchsorted(ends, (start, stop - 1), side="right")
                span = slice(c0, c1 + 1)
                reps = np.minimum(ends[span], stop) - np.maximum(starts[span], start)
                kj = np.repeat(shift[span], reps) + np.arange(start, stop)
                yield evaluate(np.repeat(C[span].T, reps, axis=1), kj)

    return blocks(), enumerated, bound


def _prune(blocks: Iterable[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """(K, key) of the rows of blocks (K, key, lo, hi) whose lo reaches the
    least hi of all rows, in the order they came.  A block keeps the rows
    whose lo reaches the least hi seen so far, a cut at or above the final
    one, and the final cut is applied once more, so only the survivors are
    ever held together."""
    kept, cut = [], np.inf
    for K, key, lo, hi in blocks:
        cut = min(cut, float(hi.min()))
        keep = lo <= cut
        kept.append((K[keep], key[keep], lo[keep]))
    K, key, lo = (np.concatenate(parts) for parts in zip(*kept))
    keep = lo <= cut
    return K[keep], key[keep]


def _certified_value(k: tuple[int, ...], a: Direction, sigma: Fraction,
                     norm: str, ctx: PrecisionContext) -> Optional[CertifiedReal]:
    """|k|^sigma * |<k,alpha>|, or None when the inner product is certified
    exactly zero."""
    ip = inner_product(k, a)
    if ip.sign(ctx) == 0:
        return None
    return abs(ip) * freq_norm_cr(k, sigma, norm)


def _running_min(rows: Iterable[np.ndarray],
                 certify: Callable[[tuple[int, ...]], Optional[CertifiedReal]],
                 ctx: PrecisionContext) -> list[tuple[int, tuple[int, ...], CertifiedReal]]:
    """Certify the rows in their given order and record (index, row, value)
    each time the minimum strictly improves, so ties keep the earlier row.
    ``certify`` returns None for a certified exact zero, which is recorded
    as value 0 and ends the search."""
    records: list[tuple[int, tuple[int, ...], CertifiedReal]] = []
    for i, row in enumerate(rows):
        k = tuple(int(c) for c in row)
        try:
            value = certify(k)
        except PrecisionExhausted as exc:
            raise PrecisionExhausted(
                f"the value at k={k} cannot be separated from 0 within "
                f"max_digits={ctx.max_digits}", offending=k) from exc
        if value is None:
            records.append((i, k, CertifiedReal.from_rational(0)))
            break
        if not records or (value.compare(records[-1][2], ctx) or 0) < 0:
            records.append((i, k, value))
    return records


def _check_search(R: int, norm: str) -> None:
    if R < 1:
        raise ValueError("R must be >= 1")
    if norm not in ("euclidean", "max"):
        raise ValueError("norm must be euclidean or max")


def _shell_order(K: np.ndarray, shell: np.ndarray) -> np.ndarray:
    """Row order by shell, then lexicographic."""
    return np.lexsort(tuple(K[:, i] for i in reversed(range(K.shape[1]))) + (shell,))


def lattice_min(a: Direction, R: int, sigma, norm: str = "euclidean",
                ctx: PrecisionContext = DEFAULT_CONTEXT) -> LatticeSearchResult:
    """Minimum of |k|^sigma * |<k, alpha>| over 0 < |k| <= R, for any d >= 1
    and any rational sigma (a negative one weights large |k| down).

    Candidates come from the column windows of ``_column_windows``: a
    frequency survives when its float bracket reaches the least upper
    bracket in the ball, so the true argmin always survives.  The windows
    are pruned as their blocks arrive, so one block of rows, the
    survivors and one number per radius are held at once.  They are
    certified in order of the search norm's shells (its exact square),
    then lexicographic; one representative per +/- pair (the one whose first
    nonzero coordinate is positive) since the value is symmetric.  A
    certified exact zero of the inner product short-circuits the search
    and is reported as exact_zero_witness.  ``enumerated`` counts the
    half-ball frequencies the search covers, each either evaluated or
    excluded by its column's window; for d = 1 that is k_1 = 1..R.
    """
    _check_search(R, norm)
    sigma = to_fraction(sigma)
    blocks, enumerated, _ = _column_windows(a, R, sigma, norm)
    K, shell = _prune(blocks)
    _, argmin, minimum = _running_min(K[_shell_order(K, shell)],
                                      lambda k: _certified_value(k, a, sigma, norm, ctx), ctx)[-1]
    witness = argmin if minimum.exact is not None and minimum.exact.sign() == 0 else None
    return LatticeSearchResult(a.key(), R, sigma, norm, minimum, argmin,
                               ctx.working_digits, witness, enumerated)


def lattice_min_profile(a: Direction, R: int, sigma, norm: str = "euclidean",
                        ctx: PrecisionContext = DEFAULT_CONTEXT
                        ) -> list[tuple[int, tuple[int, ...], CertifiedReal]]:
    """Running-minimum records: (shell, k, value) at every radius where the
    ball minimum improves, shell being |k|^2, or max_i k_i^2 under the max
    norm.  lattice_min(R') for any R' <= R is the last record with
    shell <= R'^2.  Certified exact zeros appear as value 0.

    A frequency is a candidate when its float bracket reaches the least
    upper bracket of the frequencies before it.  That cut follows shell
    order, so it waits for the whole pool; as each block arrives, the pool
    keeps only the rows whose lo reaches pass 1's radius table at their own
    integer radius, the least hi at the radii below it.  That is a cut at
    or above the final one, so the pool holds about the candidates rather
    than every window."""
    _check_search(R, norm)
    sigma = to_fraction(sigma)
    blocks, _, bound = _column_windows(a, R, sigma, norm)
    pool = []
    for K, shell, lo, hi in blocks:
        keep = lo <= bound.take(_isqrt(shell), mode="clip")
        pool.append((K[keep], shell[keep], lo[keep], hi[keep]))
    K, shell, lo, hi = (np.concatenate(parts) for parts in zip(*pool))
    order = _shell_order(K, shell)
    prev_hi = np.concatenate(([np.inf], np.minimum.accumulate(hi[order])[:-1]))
    keep = order[lo[order] <= prev_hi]
    return [(int(shell[keep[i]]), k, value) for i, k, value in
            _running_min(K[keep], lambda k: _certified_value(k, a, sigma, norm, ctx), ctx)]


# ---------------------------------------------------------------------------
# systems of linear forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearFormSystem:
    """ell linear forms on Z^(d-1), each given by a Direction of length d-1."""

    forms: tuple[Direction, ...]

    def __post_init__(self):
        if not self.forms:
            raise ValueError("need at least one form")
        nvars = self.forms[0].dim
        for f in self.forms:
            if f.dim != nvars:
                raise ValueError("forms must share the variable count")
        if len(self.forms) > nvars:
            raise ValueError("need ell <= d-1")

    @property
    def nvars(self) -> int:
        return self.forms[0].dim

    @property
    def ell(self) -> int:
        return len(self.forms)


def _by_value(ctx: PrecisionContext):
    """Sort key ordering certified values; an unresolved compare is a tie,
    so min and max keep the first of tied values."""
    return cmp_to_key(lambda x, y: x.compare(y, ctx) or 0)


def _dist_to_int_cr(ip: CertifiedReal, ctx: PrecisionContext) -> CertifiedReal:
    """Distance to the nearest integer as a certified value."""
    lo, hi = ip.enclosure(ctx.working_digits)
    candidates = {math.floor(lo + Fraction(1, 2)), math.floor(hi + Fraction(1, 2))}
    return min((abs(ip - m) for m in sorted(candidates)), key=_by_value(ctx))


@dataclass
class SystemLatticeResult:
    system: str
    radius: int
    weight_exponent: Fraction
    minimum: CertifiedReal
    argmin: tuple[int, ...]
    digits_used: int
    exact_zero_witness: Optional[tuple[int, ...]]
    enumerated: int
    dirichlet_envelope_ok: bool
    improved_exponent: Fraction
    improved_minimum: CertifiedReal
    improved_argmin: tuple[int, ...]

    def to_json(self, digits: int = DEFAULT_CONTEXT.working_digits) -> dict:
        return {
            "system": self.system,
            **_search_json(self, digits),
            "dirichlet_envelope_ok": self.dirichlet_envelope_ok,
            "improved_variant": {
                "exponent": str(self.improved_exponent),
                "minimum": self.improved_minimum.to_json(digits),
                "argmin": list(self.improved_argmin),
            },
        }


def system_lattice_min(S: LinearFormSystem, R: int,
                       ctx: PrecisionContext = DEFAULT_CONTEXT) -> SystemLatticeResult:
    """Minimize max_i ||L_i(x)|| * (max|x_j|)^((d-1)/ell) over 0 < max|x| <= R,
    where ||.|| is distance to the nearest integer.

    Also reports the variant that replaces ||L_i|| by the plain absolute
    value |L_i| with exponent (d-1)/ell - 1 (floored at 0), and a sanity
    flag that the observed minimum does not exceed the Dirichlet
    pigeonhole envelope (weighted value 1) beyond the certified radius.
    """
    _check_search(R, "max")
    nvars, ell = S.nvars, S.ell
    expo = Fraction(nvars, ell)  # nvars = d - 1
    expo_abs = max(expo - 1, Fraction(0))
    A, Aerr = _float_entries(S.forms)
    name = "forms:[" + "; ".join(f.key() for f in S.forms) + "]"

    def blocks(exponent, use_dist):
        """The whole max ball: the nearest integer is each column's window."""
        for X, shell in _half_ball(nvars, R, "max"):
            with np.errstate(over="ignore", invalid="ignore"):
                L = X @ A.T
                mag = reduce(np.maximum, np.abs(L - np.rint(L) if use_dist else L).T)
                lo, hi = _bracket(shell.astype(np.float64) ** float(exponent / 2), mag,
                                  reduce(np.maximum, (np.abs(X).astype(np.float64) @ Aerr.T).T),
                                  name)
            yield X, shell, lo, hi

    def search(candidates, exponent, use_dist):
        """The last running-minimum record over one variant's candidates."""
        X, shell = candidates

        def certify(x):
            parts, zero_all = [], True
            for form in S.forms:
                ip = inner_product(x, form)
                v = _dist_to_int_cr(ip, ctx) if use_dist else abs(ip)
                if v.sign(ctx) != 0:
                    zero_all = False
                parts.append(v)
            m = max(parts, key=_by_value(ctx))
            return None if zero_all else m * freq_norm_cr(x, exponent, "max")

        return _running_min(X[_shell_order(X, shell)], certify, ctx)[-1][1:]

    # both prefilters run, and may raise, before anything is certified
    candidates = _prune(blocks(expo, True)), _prune(blocks(expo_abs, False))
    argmin, minimum = search(candidates[0], expo, use_dist=True)
    imp_arg, imp_min = search(candidates[1], expo_abs, use_dist=False)
    witness = argmin if minimum.exact is not None and minimum.exact.sign() == 0 else None
    lo, hi = minimum.enclosure(ctx.working_digits)
    dirichlet_ok = lo <= 1 + (hi - lo)
    enumerated = ((2 * R + 1) ** nvars - 1) // 2  # the half of the max ball
    return SystemLatticeResult(name, R, expo, minimum, argmin,
                               ctx.working_digits, witness, enumerated,
                               dirichlet_ok, expo_abs, imp_min, imp_arg)


# ---------------------------------------------------------------------------
# exponent tables and classical constants
# ---------------------------------------------------------------------------

def delta_from_sigma(sigma) -> tuple[Fraction, Fraction]:
    """Map a polynomial lower-bound exponent sigma (so |<k,alpha>| is
    assumed >= c|k|^-sigma) to the exponent pair (1-delta, delta) with
    delta = 1/(sigma+1)."""
    sigma = to_fraction(sigma)
    if sigma <= 0:
        raise NonpositiveSigma(f"sigma must be > 0, got {short_str(sigma)}")
    delta = 1 / (sigma + 1)
    return (1 - delta, delta)


def markov_bounds(level: int) -> CertifiedReal:
    """The level-th Lagrange/Markov constant sqrt(9m^2 - 4)/m, exactly, for
    the level-th Markov number m = 1, 2, 5, 13, 29, ...; c_alpha <= |alpha| / L
    outside the corresponding exceptional classes.  In the Markov tree of the
    triples a <= b <= c with a^2 + b^2 + c^2 = 3abc, rooted at (1, 1, 1),
    (a, b, c) has the children (b, c, 3bc - a) and, if a != b, (a, c, 3ac - b),
    each with a larger c, so a heap keyed by c pops each m in increasing order."""
    level = operator.index(level)
    if level < 1:
        raise ValueError(f"need level >= 1, got {level}")
    heap, m = [(1, 1, 1)], 0  # (c, b, a)
    while level:
        c, b, a = heapq.heappop(heap)
        if c != m:
            level, m = level - 1, c
        heapq.heappush(heap, (3 * b * c - a, c, b))
        if a != b:
            heapq.heappush(heap, (3 * a * c - b, c, a))
    return CertifiedReal.from_quad(QuadExact(0, Fraction(1, m), 9 * m * m - 4))
