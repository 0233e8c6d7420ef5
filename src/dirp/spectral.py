"""Sparse mean-zero trigonometric polynomials on T^d and their norms.

Everything is evaluated through Parseval on the coefficients: no
sampling anywhere.  The L2 normalization carries the (2*pi)^d factor of
the side-2*pi torus, so a two-term sine has squared norm 2*pi^2.
Dimensionless ratios are computed from the raw coefficient sums, where
the (2*pi)^d factors cancel identically.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from operator import index, mul
from types import MappingProxyType
from typing import Callable, Mapping, Sequence
from weakref import WeakKeyDictionary

from .certified import GUARD, CertifiedReal
from .constants import pi_cr
from .directions import Direction
from .errors import DimensionMismatch, ParseError, ZeroFunction
from .precision import fraction_to_decimal_str, read_number, round_out, to_fraction
from .quadratic import QuadExact, common_field

FreqVector = tuple[int, ...]
# (L^2, [(k, A_k)]) with |a_k|^2 = A_k / L^2 and integer A_k
IntegerMasses = tuple[int, tuple[tuple[FreqVector, int], ...]]


def freq_norm_sq(k: Sequence[int]) -> int:
    """k.k; a non-integer component raises TypeError."""
    return sum(c * c for c in map(index, k))


def freq_norm_cr(k: Sequence[int], sigma=1, norm: str = "euclidean") -> CertifiedReal:
    """|k|^sigma in the euclidean or max norm (a negative sigma raises 1/|k|
    to -sigma); the default, euclidean |k|, is the exact value sqrt(k.k)."""
    sigma = to_fraction(sigma)
    if norm == "euclidean":
        base, expo = freq_norm_sq(k), sigma / 2
    elif norm == "max":
        base, expo = max(abs(c) for c in map(index, k)), sigma
    else:
        raise ValueError("norm must be euclidean or max")
    if expo < 0:
        base, expo = Fraction(1, base), -expo
    return CertifiedReal.from_rational(base).pow_frac(expo)


def _exact_text(x: Fraction) -> str:
    """x as a decimal when its expansion terminates, else as p/q.  The
    division is exact at this precision, so no digit is lost or padded."""
    den = x.denominator
    if den // math.gcd(den, 10 ** den.bit_length()) != 1:  # a prime factor besides 2 and 5
        return str(x)
    return fraction_to_decimal_str(x, len(str(abs(x.numerator))) + den.bit_length())


class TrigPoly:
    """Finite map from integer frequency vectors to exact Gaussian-rational
    coefficients (re, im).  A term is a (re, im) pair or a bare real part,
    each part a number that precision.read_number reads; zero terms are
    not stored.  Every polynomial, built here or by from_json, keeps its
    parts as integer numerators and denominators in lowest terms; the
    read-only `terms` maps k to (re, im) Fractions and is built when it is
    first read.  `masses` holds the
    IntegerMasses: A_k = (L re_k)^2 + (L im_k)^2 over the lcm L of the
    coefficient denominators; `mass_totals` holds the integers sum A_k and
    sum A_k |k|^2, and `moments` the d x d integer matrix M = sum A_k k k',
    whose trace is the second total.  The constructor checks and coerces
    every term; the private _from_rows takes rows already in that integer
    form and checks nothing.  Its one caller is report._random_poly, whose
    coefficients come from its own table.

    The zero frequency is always rejected: every polynomial is mean zero.
    """

    def __init__(self, dim: int, terms: Mapping[Sequence[int], object]):
        if dim < 1:
            raise DimensionMismatch("dim must be >= 1")
        self.dim = dim
        rows: dict[FreqVector, tuple[int, int, int, int]] = {}  # k -> (rn, rd, jn, jd)
        for k, value in terms.items():
            kt = tuple(map(index, k))    # a non-integer component raises TypeError
            if len(kt) != dim:
                raise DimensionMismatch(f"frequency {kt} has length != dim={dim}")
            if not any(kt):
                raise ValueError("zero frequency present (mean != 0)")
            if isinstance(value, tuple) and len(value) == 2:
                re, im = value
            else:
                re, im = value, 0
            try:
                row = read_number(re) + read_number(im)
            except ZeroDivisionError:
                raise ZeroDivisionError("zero denominator in the coefficient at "
                                        f"k={list(kt)}") from None
            if row[0] or row[2]:
                rows[kt] = row
        self._set_rows(rows)

    @classmethod
    def _from_rows(cls, dim: int, rows: dict[FreqVector, tuple[int, int, int, int]]
                   ) -> "TrigPoly":
        """The polynomial whose _rows are `rows`, taken as they are: each k a
        nonzero int tuple of length dim, each row four ints in lowest terms
        with positive denominators and a nonzero part.  Nothing is checked."""
        self = cls.__new__(cls)
        self.dim = dim
        self._set_rows(rows)
        return self

    def _set_rows(self, rows: dict[FreqVector, tuple[int, int, int, int]]) -> None:
        """Store the rows and compute masses, moments and mass_totals."""
        self._rows, self._terms = rows, None
        L = math.lcm(*(row[1] for row in rows.values()), *(row[3] for row in rows.values()))
        As = [(rn * (L // rd)) ** 2 + (jn * (L // jd)) ** 2 for rn, rd, jn, jd in rows.values()]
        self.masses: IntegerMasses = (L * L, tuple(zip(rows, As)))
        cols = list(zip(*rows)) or [()] * self.dim     # cols[i][t] = k_i of term t
        weighted = [list(map(mul, As, c)) for c in cols]
        self.moments = tuple(tuple(sum(map(mul, w, c)) for c in cols) for w in weighted)
        self.mass_totals = (sum(As), sum(self.moments[i][i] for i in range(self.dim)))

    @property
    def terms(self) -> Mapping[FreqVector, tuple[Fraction, Fraction]]:
        if self._terms is None:
            self._terms = MappingProxyType({k: (Fraction(rn, rd), Fraction(jn, jd))
                                            for k, (rn, rd, jn, jd) in self._rows.items()})
        return self._terms

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        """Lossless: from_json(to_json(p)) has the same terms as p."""
        return {
            "dim": self.dim,
            "terms": [
                {"k": list(k), "re": _exact_text(re), "im": _exact_text(im)}
                for k, (re, im) in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json(cls, data) -> "TrigPoly":
        """The polynomial of a to_json dict or its JSON text, built by the
        constructor from its {k: (re, im)} terms, so of two terms with one k
        the later wins.  dim must be an integer: a float, a string or a bool
        is a ParseError, as is a missing key, a malformed frequency or
        coefficient, or a zero denominator."""
        if isinstance(data, str):
            data = json.loads(data)
        try:
            parts = {tuple(t["k"]): (t["re"], t["im"]) for t in data["terms"]}
            dim = data["dim"]
            if isinstance(dim, bool) or not hasattr(dim, "__index__"):  # index(True) is 1
                raise TypeError(f"dim must be an integer, got {dim!r}")
            return cls(index(dim), parts)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"malformed TrigPoly JSON: {exc}") from exc


# -- coefficient sums ------------------------------------------------------
#
# The three Parseval sums s0 = sum |a_k|^2, sg = sum |a_k|^2 |k|^2 and
# sd = sum |a_k|^2 <k,alpha>^2 are integers over L^2 from TrigPoly's
# mass_totals and moments: sd = alpha' M alpha, quadratic forms in integers,
# when the entries of alpha share one field Q(sqrt D).  For other directions
# sd is one CertifiedReal node over the entries alpha_i that the frequencies
# use: it bounds each <k,alpha> in integers on one decimal grid and rounds
# the weighted sum of squares once.  Nothing here decides a precision:
# inexact sums are lazy enclosures, refined by whoever prints or compares them.


def _form(M, u, v) -> int:
    """u'Mv in integers."""
    return sum(ui * sum(map(mul, row, v)) for ui, row in zip(u, M))


# common_field of a direction's used entries, per direction and per tuple of
# used flags.  Keyed by the entry objects, not their values: equal entries
# written with different radicands enclose differently.
_FIELDS: WeakKeyDictionary = WeakKeyDictionary()
_ZERO = QuadExact(0)


def _sd(f: TrigPoly, a: Direction) -> CertifiedReal:
    if f.dim != a.dim:
        raise DimensionMismatch(f"poly dim {f.dim} vs direction dim {a.dim}")
    (scale, terms), M = f.masses, f.moments
    # an entry that no frequency uses (M_ii = 0) counts as an exact 0: it
    # neither keeps the sum from being exact nor is asked for an enclosure
    used = tuple(M[i][i] != 0 for i in range(f.dim))
    fields = _FIELDS.setdefault(a, {})
    if used not in fields:
        fields[used] = common_field([e.exact if u else _ZERO
                                     for e, u in zip(a.entries, used)])
    field = fields[used]
    if field is not None:
        # alpha Q = x + y sqrt D, so sum A_k <k,alpha>^2 Q^2 = x'Mx + D y'My + 2 x'My sqrt D
        D, Q, x, y = field
        rat, irr = _form(M, x, x) + D * _form(M, y, y), 2 * _form(M, x, y)
        den = scale * Q * Q
        return CertifiedReal.from_quad(QuadExact(Fraction(rat, den), Fraction(irr, den), D))
    # One node over the entries: their enclosures on the 10^-(digits+guard) grid
    # as integers, each <k,alpha> bounded by the signs of k_i and squared as
    # ip * ip would be, one rounding.  The guard is what a tree of per-term sum
    # and product nodes would ask the entries for, so their caches match it.
    entries = [e if u else CertifiedReal.from_rational(0) for e, u in zip(a.entries, used)]
    guard = 5 * GUARD + len(str(len(terms))) + len(str(len(entries)))

    def op(ivs, digits):
        s = 10 ** (digits + guard)
        los = [lo.numerator * s // lo.denominator for lo, _ in ivs]
        his = [-(-hi.numerator * s // hi.denominator) for _, hi in ivs]
        total_lo = total_hi = 0
        for k, A in terms:
            lo = hi = 0
            for c, x, y in zip(k, los, his):
                if c > 0:
                    lo += c * x
                    hi += c * y
                else:  # c = 0 adds 0 either way
                    lo += c * y
                    hi += c * x
            if hi <= 0:  # [lo, hi]^2 = [-hi, -lo]^2
                lo, hi = -hi, -lo
            total_lo += A * (lo * lo if lo >= 0 else lo * hi)
            total_hi += A * max(lo * lo, hi * hi)
        den = scale * s * s
        return round_out(Fraction(total_lo, den), Fraction(total_hi, den), digits)

    return CertifiedReal.node(entries, guard, op)


def parseval_sums(f: TrigPoly, a: Direction | None = None
                  ) -> tuple[CertifiedReal, CertifiedReal, CertifiedReal | None]:
    """(s0, sg, sd): sum |a_k|^2, sum |a_k|^2 |k|^2 and, when a direction is
    given, sum |a_k|^2 <k,alpha>^2 (else None).  s0 and sg are exact, and
    so is sd wherever the direction allows it."""
    (S0, SG), scale = f.mass_totals, f.masses[0]
    return (CertifiedReal.from_rational(Fraction(S0, scale)),
            CertifiedReal.from_rational(Fraction(SG, scale)),
            None if a is None else _sd(f, a))


def _two_pi_pow(d: int) -> CertifiedReal:
    return (pi_cr() * 2).pow_frac(d)


def _require_nonzero(f: TrigPoly) -> None:
    """Every stored term is nonzero, so s0 > 0 unless f is the zero polynomial."""
    if not f.masses[1]:
        raise ZeroFunction("operation needs a nonzero polynomial")


# -- norms -----------------------------------------------------------------

def l2_norm(f: TrigPoly) -> CertifiedReal:
    """sqrt((2*pi)^d * sum |a_k|^2)."""
    return (_two_pi_pow(f.dim) * parseval_sums(f)[0]).sqrt()


def grad_norm(f: TrigPoly) -> CertifiedReal:
    """sqrt((2*pi)^d * sum |k|^2 |a_k|^2)."""
    return (_two_pi_pow(f.dim) * parseval_sums(f)[1]).sqrt()


def directional_norm(f: TrigPoly, a: Direction) -> CertifiedReal:
    """sqrt((2*pi)^d * sum |a_k|^2 <k,alpha>^2), with cancellation-safe
    evaluation of the inner products."""
    return (_two_pi_pow(f.dim) * parseval_sums(f, a)[2]).sqrt()


def multiplier_norm(f: TrigPoly, symbol: Callable[[FreqVector], object]) -> CertifiedReal:
    """sqrt((2*pi)^d * sum |a_k|^2 |P(k)|^2) for a diagonal symbol P whose
    values are int, Fraction, QuadExact or CertifiedReal; a float raises
    TypeError."""
    scale, terms = f.masses

    def term(k, A):
        p = symbol(k)
        return Fraction(A, scale) * (p * p)
    return (_two_pi_pow(f.dim) * CertifiedReal.sum(term(k, A) for k, A in terms)).sqrt()


# -- functionals -----------------------------------------------------------

def poincare_ratio(f: TrigPoly, a: Direction, exp_grad, exp_dir) -> CertifiedReal:
    """grad^eg * dir^ed / l2^(eg+ed); dimensionless and scale invariant.
    Computed from the raw coefficient sums so the (2*pi)^d factors cancel
    identically.  By weighted Hoelder it is at least the minimum of
    |k|^eg |<k,alpha>|^ed over the support, with equality for one frequency,
    so the best constant is inf_{k != 0} |k|^eg |<k,alpha>|^ed; its minimum
    over the ball |k| <= R (diophantine.lattice_min) is an upper bound."""
    exp_grad, exp_dir = to_fraction(exp_grad), to_fraction(exp_dir)
    if exp_grad < 0 or exp_dir < 0 or exp_grad + exp_dir == 0:
        raise ValueError("exponents must be >= 0 and not both 0")
    _require_nonzero(f)
    s0, sg, sd = parseval_sums(f, a)
    num = sg.pow_frac(exp_grad / 2) * sd.pow_frac(exp_dir / 2)
    den = s0.pow_frac((exp_grad + exp_dir) / 2)
    return num / den


def multi_directional_functional(f: TrigPoly, dirs: Sequence[Direction],
                                 exp_grad=None, exp_sum=None) -> CertifiedReal:
    """grad^eg * (sum_i dir_i)^es / l2^(eg+es) for several directions.
    Defaults: eg = d-1, es = ell; the improved variant uses (d-ell, ell)."""
    ell = len(dirs)
    d = f.dim
    if not 1 <= ell <= max(d - 1, 1):
        raise DimensionMismatch(f"need 1 <= ell <= d-1, got ell={ell}, d={d}")
    for a in dirs:
        if a.dim != d:
            raise DimensionMismatch("direction dimension mismatch")
    exp_grad = to_fraction(d - 1 if exp_grad is None else exp_grad)
    exp_sum = to_fraction(ell if exp_sum is None else exp_sum)
    _require_nonzero(f)
    s0, sg, _ = parseval_sums(f)
    dir_sum = CertifiedReal.sum(parseval_sums(f, a)[2].sqrt() for a in dirs)
    num = sg.pow_frac(exp_grad / 2) * dir_sum.pow_frac(exp_sum)
    den = s0.pow_frac((exp_grad + exp_sum) / 2)
    return num / den


def half_mass_cutoff(f: TrigPoly) -> tuple[CertifiedReal, CertifiedReal]:
    """radius = 2*grad/l2 and the coefficient-mass fraction at |k| >= radius.
    The tail fraction is <= 1/2 for every nonzero polynomial."""
    _require_nonzero(f)
    S0, SG = f.mass_totals
    SG4 = 4 * SG
    radius = CertifiedReal.from_rational(Fraction(SG4, S0)).sqrt()
    # |k| >= radius  <=>  |k|^2 * S0 >= 4 * SG, all in integers
    tail = sum(A for k, A in f.masses[1] if sum(map(mul, k, k)) * S0 >= SG4)
    return radius, CertifiedReal.from_rational(Fraction(tail, S0))
