"""Independent oracles for the benchmark's correctness checks.

Nothing here imports dirp.  Real numbers are integer intervals scaled by
10**P (``lo <= x * 10**P <= hi``), built from integer square roots and
fixed-point series, so the checks share no code with the certified
arithmetic they check.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction

P = 60                      # digits of every oracle enclosure
SCALE = 10 ** P

_QUAD = re.compile(r"^\(?\s*(-?\d+)?\s*([+-])?\s*(\d+)?\*?sqrt(\d+)\s*\)?(?:/(\d+))?$")


def _sqrt_scaled(n: Fraction) -> tuple[int, int]:
    """Interval for sqrt(n) * SCALE."""
    num = n.numerator * SCALE * SCALE
    r = math.isqrt(num // n.denominator)
    return r, r + 1


def _e_scaled(scale: int = SCALE) -> tuple[int, int]:
    total, term, n = 0, scale, 0
    while term:
        total += term
        n += 1
        term //= n
    return total, total + n + 2          # one floor error per term, plus the tail


def _atan_inv_scaled(x: int, scale: int) -> tuple[int, int]:
    """arctan(1/x) * scale for an integer x > 1 (alternating series)."""
    total, power, n, sign = 0, scale // x, 0, 1
    while power:
        total += sign * (power // (2 * n + 1))
        power //= x * x
        n += 1
        sign = -sign
    return total - 2 * n - 2, total + 2 * n + 2    # two floor errors per term


def _pi_scaled(scale: int = SCALE) -> tuple[int, int]:
    a_lo, a_hi = _atan_inv_scaled(5, scale)
    b_lo, b_hi = _atan_inv_scaled(239, scale)
    return 16 * a_lo - 4 * b_hi, 16 * a_hi - 4 * b_lo      # Machin


def entry_interval(token: str) -> tuple[int, int]:
    """Scaled interval of one direction entry in the grammar the
    benchmark uses: integers, dec:, quad:, const:e|pi, liouville:B."""
    token = token.strip()
    tag, _, body = token.partition(":")
    if not body:
        v = Fraction(token) * SCALE
        return math.floor(v), math.ceil(v)
    if tag == "dec":
        v = Fraction(body) * SCALE
        return math.floor(v), math.ceil(v)
    if tag == "const":
        return {"e": _e_scaled, "pi": _pi_scaled}[body.strip()]()
    if tag == "liouville":
        base = int(body)
        total, n, fact = Fraction(0), 1, 1
        while base ** fact <= SCALE * SCALE:
            total += Fraction(1, base ** fact)
            n += 1
            fact *= n
        v = total * SCALE
        return math.floor(v), math.ceil(v) + 1
    if tag == "quad":
        m = _QUAD.match(body.replace(" ", ""))
        if not m:
            raise ValueError(f"oracle cannot read {token!r}")
        a = int(m.group(1) or 0)
        b = int(m.group(3) or 1) * (-1 if m.group(2) == "-" else 1)
        c = int(m.group(5) or 1)
        r_lo, r_hi = _sqrt_scaled(Fraction(int(m.group(4))))
        lo, hi = (b * r_lo, b * r_hi) if b > 0 else (b * r_hi, b * r_lo)
        return (a * SCALE + lo) // c, -((-(a * SCALE + hi)) // c)
    raise ValueError(f"oracle cannot read {token!r}")


def direction_intervals(spec: str) -> list[tuple[int, int]]:
    """Intervals of the entries of ``dir:[e1, e2, ...]``."""
    body = spec.strip()[len("dir:["):-1]
    parts, depth, cur = [], 0, ""
    for ch in body:
        depth += ch in "(["
        depth -= ch in ")]"
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    parts.append(cur)
    return [entry_interval(p) for p in parts]


def linear_interval(k, alpha) -> tuple[int, int]:
    """Scaled interval of <k, alpha>."""
    lo = hi = 0
    for c, (a_lo, a_hi) in zip(k, alpha):
        if c > 0:
            lo, hi = lo + c * a_lo, hi + c * a_hi
        elif c < 0:
            lo, hi = lo + c * a_hi, hi + c * a_lo
    return lo, hi


def _abs(lo: int, hi: int) -> tuple[int, int]:
    if lo >= 0:
        return lo, hi
    if hi <= 0:
        return -hi, -lo
    return 0, max(-lo, hi)


def _weight(base: int, exponent: Fraction) -> tuple[int, int]:
    """Scaled interval of base ** exponent for exponent 1/2 or 1/4."""
    if exponent == Fraction(1, 2):
        return _sqrt_scaled(Fraction(base))
    if exponent == Fraction(1, 4):
        r = math.isqrt(math.isqrt(base * SCALE ** 4))
        return r, r + 1
    raise ValueError(f"oracle has no weight for exponent {exponent}")


def _halfspace(d: int, R: int, euclidean: bool):
    """Integer points with 0 < |k| <= R whose first nonzero entry is positive."""
    def rec(prefix, positive_seen):
        if len(prefix) == d:
            if positive_seen and (not euclidean or sum(c * c for c in prefix) <= R * R):
                yield tuple(prefix)
            return
        for c in range(0 if not positive_seen else -R, R + 1):
            yield from rec(prefix + [c], positive_seen or c > 0)
    yield from rec([], False)


def _candidates(values: dict) -> dict:
    """Brute-force minimum over scaled value intervals: the best upper end,
    the lowest lower end, and every point that could still be the argmin."""
    best_hi = min(hi for _, hi in values.values())
    best_lo = min(lo for lo, _ in values.values())
    cands = {k for k, (lo, _) in values.items() if lo <= best_hi}
    return {"lo": best_lo, "hi": best_hi, "argmins": cands}


def lattice_min_brute(spec: str, R: int, sigma) -> dict:
    """Minimum of |k|^sigma |<k, alpha>| over the euclidean ball, by
    evaluating every point with interval arithmetic."""
    alpha = direction_intervals(spec)
    half = Fraction(sigma) / 2
    values = {}
    for k in _halfspace(len(alpha), R, True):
        i_lo, i_hi = _abs(*linear_interval(k, alpha))
        w_lo, w_hi = _weight(sum(c * c for c in k), half)
        values[k] = (i_lo * w_lo // SCALE, -((-i_hi * w_hi) // SCALE))
    return _candidates(values)


def lattice_value(spec: str, k, sigma) -> tuple[int, int]:
    """Scaled interval of |k|^sigma |<k, alpha>| at one point."""
    alpha = direction_intervals(spec)
    i_lo, i_hi = _abs(*linear_interval(k, alpha))
    w_lo, w_hi = _weight(sum(c * c for c in k), Fraction(sigma) / 2)
    return i_lo * w_lo // SCALE, -((-i_hi * w_hi) // SCALE)


def _dist_to_int(lo: int, hi: int) -> tuple[int, int]:
    m_lo, m_hi = (lo + SCALE // 2) // SCALE, (hi + SCALE // 2) // SCALE
    if m_lo != m_hi:
        return 0, SCALE // 2
    return _abs(lo - m_lo * SCALE, hi - m_lo * SCALE)


def system_min_brute(spec: str, R: int, exponent: int, use_dist: bool) -> dict:
    """Single linear form L on Z^n: minimum of ||L(x)|| (or |L(x)|) times
    max|x|^exponent over 0 < max|x| <= R."""
    alpha = direction_intervals(spec)
    values = {}
    for x in _halfspace(len(alpha), R, False):
        lo, hi = linear_interval(x, alpha)
        v_lo, v_hi = _dist_to_int(lo, hi) if use_dist else _abs(lo, hi)
        w = max(abs(c) for c in x) ** exponent
        values[x] = (v_lo * w, v_hi * w)
    return _candidates(values)


def decimal_interval(value: str, radius: str) -> tuple[int, int]:
    """Scaled interval of a certified ``{"value", "radius"}`` pair, widened
    by half a unit in the last printed digit of the value."""
    half_ulp = Fraction(10) ** Decimal(value).as_tuple().exponent / 2
    v, r = Fraction(value) * SCALE, (Fraction(radius) + half_ulp) * SCALE
    return math.floor(v - r), math.ceil(v + r)


def overlaps(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


def cf_quotients(name: str, digits: int = 700) -> list[int]:
    """Continued-fraction quotients certified by a ``digits``-digit oracle
    enclosure of the constant ``e`` or ``pi``."""
    scale = 10 ** digits
    lo, hi = {"e": _e_scaled, "pi": _pi_scaled}[name](scale)
    lo, hi = Fraction(lo, scale), Fraction(hi, scale)
    out = []
    while math.floor(lo) == math.floor(hi):
        a = math.floor(lo)
        out.append(a)
        lo, hi = lo - a, hi - a
        if lo <= 0:
            break
        lo, hi = 1 / hi, 1 / lo
    return out


def e_quotient(i: int) -> int:
    """The i-th quotient of e = [2; 1, 2, 1, 1, 4, 1, 1, 6, ...]."""
    if i == 0:
        return 2
    return 2 * (i + 1) // 3 if i % 3 == 2 else 1
