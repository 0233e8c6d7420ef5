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
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .certified import CertifiedReal
from .constants import pi_cr
from .directions import Direction, inner_product
from .errors import DimensionMismatch, ParseError, ZeroFunction
from .precision import fraction_to_decimal_str
from .quadratic import QuadExact, common_field

FreqVector = tuple[int, ...]
# (L^2, [(k, A_k)]) with |a_k|^2 = A_k / L^2 and integer A_k
IntegerMasses = tuple[int, tuple[tuple[FreqVector, int], ...]]


def freq_norm_sq(k: Sequence[int]) -> int:
    return sum(int(c) * int(c) for c in k)


def freq_norm_cr(k: Sequence[int], sigma=1, norm: str = "euclidean") -> CertifiedReal:
    """|k|^sigma in the euclidean or max norm (a negative sigma raises 1/|k|
    to -sigma); the default, euclidean |k|, is the exact value sqrt(k.k)."""
    if norm == "euclidean":
        base, expo = freq_norm_sq(k), Fraction(sigma, 2)
    elif norm == "max":
        base, expo = max(abs(c) for c in k), Fraction(sigma)
    else:
        raise ValueError("norm must be euclidean or max")
    if expo < 0:
        base, expo = Fraction(1, base), -expo
    return CertifiedReal.from_rational(base).pow_frac(expo)


def _coerce_coeff(value) -> tuple[Fraction, Fraction]:
    if isinstance(value, tuple) and len(value) == 2:
        re, im = value
    else:
        re, im = value, 0
    def conv(x):
        if type(x) is Fraction:     # immutable: no copy needed
            return x
        if isinstance(x, (float, CertifiedReal)):
            raise TypeError(f"{type(x).__name__} coefficients are rejected; "
                            "pass int, Fraction or a decimal or p/q str")
        return Fraction(x)
    return conv(re), conv(im)


def _exact_text(x: Fraction) -> str:
    """x as a decimal when its expansion terminates, else as p/q.  The
    division is exact at this precision, so no digit is lost or padded."""
    den = x.denominator
    if den // math.gcd(den, 10 ** den.bit_length()) != 1:  # a prime factor besides 2 and 5
        return str(x)
    return fraction_to_decimal_str(x, len(str(abs(x.numerator))) + den.bit_length())


class TrigPoly:
    """Finite map from integer frequency vectors to exact Gaussian-rational
    coefficients (re, im), both Fractions; zero terms are not stored.
    `terms` is read-only, and `masses` holds its IntegerMasses: A_k =
    (L re_k)^2 + (L im_k)^2 over the lcm L of the coefficient denominators;
    `mass_totals` holds the integers sum A_k and sum A_k |k|^2.

    The zero frequency is rejected unless drop_mean=True, in which case
    it is stripped (the polynomial is mean zero by construction).
    """

    def __init__(self, dim: int,
                 terms: Mapping[Sequence[int], object],
                 drop_mean: bool = False):
        if dim < 1:
            raise DimensionMismatch("dim must be >= 1")
        self.dim = dim
        store: dict[FreqVector, tuple[Fraction, Fraction]] = {}
        for k, coeff in terms.items():
            kt = tuple(int(c) for c in k)
            if len(kt) != dim:
                raise DimensionMismatch(f"frequency {kt} has length != dim={dim}")
            if all(c == 0 for c in kt):
                if drop_mean:
                    continue
                raise ValueError("zero frequency present (mean != 0); "
                                 "pass drop_mean=True to strip it")
            re, im = _coerce_coeff(coeff)
            if re or im:
                store[kt] = (re, im)
        self.terms = MappingProxyType(store)
        L = math.lcm(*(c.denominator for coeff in store.values() for c in coeff))
        self.masses: IntegerMasses = (L * L, tuple(
            (k, (re.numerator * (L // re.denominator)) ** 2
                + (im.numerator * (L // im.denominator)) ** 2)
            for k, (re, im) in store.items()))
        self.mass_totals = (sum(A for _, A in self.masses[1]),
                            sum(A * freq_norm_sq(k) for k, A in self.masses[1]))

    def __len__(self):
        return len(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def scale(self, factor) -> "TrigPoly":
        fr, fi = _coerce_coeff(factor)
        return TrigPoly(self.dim, {k: (re * fr - im * fi, re * fi + im * fr)
                                   for k, (re, im) in self.terms.items()})

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
        if isinstance(data, str):
            data = json.loads(data)
        try:
            terms = {tuple(t["k"]): (t["re"], t["im"]) for t in data["terms"]}
            return cls(int(data["dim"]), terms)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed TrigPoly JSON: {exc}") from exc


# -- coefficient sums ------------------------------------------------------
#
# The three Parseval sums s0 = sum |a_k|^2, sg = sum |a_k|^2 |k|^2 and
# sd = sum |a_k|^2 <k,alpha>^2 are accumulated as Python integers from
# TrigPoly.masses (the exact kernel below); sd too, when the entries of alpha
# share one field Q(sqrt D).  Other directions go through CertifiedReal
# arithmetic (_raw_sum), which gives the same canonical Fraction / QuadExact
# wherever both apply.  Nothing here decides a precision: inexact sums are
# lazy enclosures, refined by whoever prints or compares them.


def _raw_sum(f: TrigPoly,
             weight_sq: Callable[[FreqVector], object] | None = None) -> CertifiedReal:
    """Sum over terms of |a_k|^2 * w(k)^2 (w == 1 when weight_sq is None)."""
    def term(k, re, im):
        contrib = CertifiedReal.from_rational(re * re + im * im)
        return contrib if weight_sq is None else contrib * weight_sq(k)
    return CertifiedReal.sum(term(k, re, im) for k, (re, im) in sorted(f.terms.items()))


def _quadratic_field(a: Direction) -> tuple[int, int, list[int], list[int]] | None:
    """(D, Q, x, y) with integers and alpha_i = (x_i + y_i sqrt D) / Q;
    None unless every entry is exact and all lie in one field."""
    qs = [e.exact for e in a.entries]
    field = None if any(q is None for q in qs) else common_field(qs)
    if field is None:
        return None
    D, coords = field
    Q = math.lcm(*(c.denominator for ab in coords for c in ab))
    return D, Q, [int(x * Q) for x, _ in coords], [int(y * Q) for _, y in coords]


def _sd(f: TrigPoly, a: Direction) -> CertifiedReal:
    if f.dim != a.dim:
        raise DimensionMismatch(f"poly dim {f.dim} vs direction dim {a.dim}")
    field = _quadratic_field(a)
    if field is None:
        # ip * ip encloses <k,alpha>^2 even when its sign is undecided
        def weight_sq(k):
            ip = inner_product(k, a)
            return ip * ip
        return _raw_sum(f, weight_sq)
    # <k,alpha> Q = P + R sqrt D, so <k,alpha>^2 Q^2 = P^2 + R^2 D + 2 P R sqrt D
    D, Q, x, y = field
    scale, terms = f.masses
    rat = irr = 0
    for k, A in terms:
        P = sum(ki * xi for ki, xi in zip(k, x))
        R = sum(ki * yi for ki, yi in zip(k, y))
        rat += A * (P * P + R * R * D)
        irr += A * P * R
    den = scale * Q * Q
    return CertifiedReal.from_quad(QuadExact(Fraction(rat, den), Fraction(2 * irr, den), D))


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
    return (pi_cr() * 2).pow_int(d)


def _require_nonzero(f: TrigPoly) -> None:
    """Every stored term is nonzero, so s0 > 0 unless f is the zero polynomial."""
    if f.is_zero():
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
    """sqrt((2*pi)^d * sum |a_k|^2 |P(k)|^2) for a diagonal symbol P."""
    def weight_sq(k):
        p = symbol(k)
        if not isinstance(p, CertifiedReal):
            p = CertifiedReal.from_rational(p)
        return p * p
    s = _raw_sum(f, weight_sq)
    return (_two_pi_pow(f.dim) * s).sqrt()


def directional_symbol(a: Direction, s_power: int = 0) -> Callable[[FreqVector], CertifiedReal]:
    """Symbol k -> <k,alpha> * |k|^s_power (s_power = d-1 gives the
    substantial-fluctuation variant of the directional derivative)."""
    if s_power < 0:
        raise ValueError("s_power must be >= 0")
    def symbol(k):
        ip = inner_product(k, a)
        return ip if s_power == 0 else ip * freq_norm_cr(k, s_power)
    return symbol


# -- functionals -----------------------------------------------------------

def poincare_ratio(f: TrigPoly, a: Direction, exp_grad, exp_dir) -> CertifiedReal:
    """grad^eg * dir^ed / l2^(eg+ed); dimensionless and scale invariant.
    Computed from the raw coefficient sums so the (2*pi)^d factors cancel
    identically.  By weighted Hoelder it is at least the minimum of
    |k|^eg |<k,alpha>|^ed over the support, with equality for one frequency,
    so the best constant is inf_{k != 0} |k|^eg |<k,alpha>|^ed; its minimum
    over the ball |k| <= R (diophantine.lattice_min) is an upper bound."""
    exp_grad, exp_dir = Fraction(exp_grad), Fraction(exp_dir)
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
    exp_grad = Fraction(exp_grad) if exp_grad is not None else Fraction(d - 1)
    exp_sum = Fraction(exp_sum) if exp_sum is not None else Fraction(ell)
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
    radius = CertifiedReal.from_rational(Fraction(SG, S0)).sqrt() * 2
    # |k| >= radius  <=>  |k|^2 * S0 >= 4 * SG, all in integers
    tail = sum(A for k, A in f.masses[1] if freq_norm_sq(k) * S0 >= 4 * SG)
    return radius, CertifiedReal.from_rational(Fraction(tail, S0))
