"""pi, e and log 2 as certified reals that refine to any precision.

Each enclosure sums an integer fixed-point series at the requested
precision: pi = 16 atan(1/5) - 4 atan(1/239) (Machin), e = sum of 1/k!,
log 2 = 2 atanh(1/3).  Every term is a floor, less than one unit off, a
series stops once its term floors to 0, and the enclosure counts one unit
per term plus a bound on the tail.
"""

from fractions import Fraction

from .certified import CertifiedReal

_GUARD = 10  # fixed-point digits beyond those requested, absorbing the error count


def _atan_inv(m: int, scale: int, hyperbolic: bool = False) -> tuple[int, int]:
    """Integers lo <= scale * atan(1/m) <= hi (atanh(1/m) if hyperbolic), m >= 2."""
    total, n, p, sign = 0, 1, scale // m, 1
    while p:
        total += sign * (p // n)
        n += 2
        p //= m * m
        if not hyperbolic:
            sign = -sign
    err = (n - 1) // 2 + 2  # each term under one unit off; the tail under 2 units
    return total - err, total + err


def _fixed_point(series) -> CertifiedReal:
    """CertifiedReal from series(scale) -> integer bounds on scale * x."""
    def fn(digits):
        scale = 10 ** (digits + _GUARD)
        lo, hi = series(scale)
        return Fraction(lo, scale), Fraction(hi, scale)

    return CertifiedReal.from_fn(fn)


def _pi(scale: int) -> tuple[int, int]:
    lo5, hi5 = _atan_inv(5, scale)
    lo239, hi239 = _atan_inv(239, scale)
    return 16 * lo5 - 4 * hi239, 16 * hi5 - 4 * lo239


def _e(scale: int) -> tuple[int, int]:
    total, k, t = 0, 0, scale
    while t:
        total += t
        k += 1
        t //= k
    # k terms, each under one unit low; the tail is below 2 units
    return total, total + k + 2


def _log2(scale: int) -> tuple[int, int]:
    lo, hi = _atan_inv(3, scale, hyperbolic=True)
    return 2 * lo, 2 * hi


def pi_cr() -> CertifiedReal:
    return _fixed_point(_pi)


def e_cr() -> CertifiedReal:
    return _fixed_point(_e)


def log2_cr() -> CertifiedReal:
    return _fixed_point(_log2)
