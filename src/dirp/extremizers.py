"""Named extremizer/counterexample families and sharpness tables.

All families are single real waves sin(<k, x>) stored as two-term
polynomials with exact rational coefficients +/-1/(2i), so every norm
and ratio downstream is reproducible bit-for-bit.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .certified import CertifiedReal
from .diophantine import cf_expand
from .directions import Direction, inner_product, make_direction
from .errors import DepthNotCertified, ParseError, PrecisionCapExceeded, RationalRatio
from .precision import DEFAULT_CONTEXT, PrecisionContext
from .quadratic import GOLDEN_RATIO, QuadExact
from .spectral import TrigPoly, freq_norm_cr, poincare_ratio


@dataclass
class FamilyMember:
    poly: TrigPoly
    index: int
    family: str  # fibonacci | liouville | convergent_wave
    metadata: dict = field(default_factory=dict)

    @property
    def frequency(self) -> tuple[int, ...]:
        return self.metadata["k"]


def _sine_wave(k: tuple[int, int]) -> TrigPoly:
    """sin(<k, x>) = (e^{i<k,x>} - e^{-i<k,x>}) / (2i)."""
    neg = tuple(-c for c in k)
    return TrigPoly(2, {k: (0, Fraction(-1, 2)), neg: (0, Fraction(1, 2))})


def fibonacci_numbers(n: int) -> tuple[int, int]:
    """(F_n, F_{n+1}) with F_1 = F_2 = 1."""
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a, b


def fibonacci_family(n: int) -> FamilyMember:
    """sin(F_{n+1} x - F_n y): near-extremizers for the direction (1, phi).

    The weighted product |k| * |<k, alpha>| has the closed form
    sqrt(F_{n+1}^2/F_n^2 + 1) * |F_{n+1}/F_n - phi| * F_n^2 and converges
    to |alpha|/sqrt5 = sqrt((5+sqrt5)/10).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    fn, fn1 = fibonacci_numbers(n)
    k = (fn1, -fn)
    phi = CertifiedReal.from_quad(GOLDEN_RATIO)
    ratio = Fraction(fn1, fn)
    closed_form = (CertifiedReal.from_rational(ratio * ratio + 1).sqrt()
                   * abs(CertifiedReal.from_rational(ratio) - phi)
                   * (fn * fn))
    # sqrt((1 + phi^2)/5) = sqrt((5 + sqrt5)/10)
    limit = (CertifiedReal.from_quad(QuadExact(Fraction(5, 2), Fraction(1, 2), 5))
             / 5).sqrt()
    return FamilyMember(_sine_wave(k), n, "fibonacci", {
        "k": k,
        "closed_form_ratio": closed_form,
        "expected_limit": limit,
    })


def liouville_cap(base: int = 10, ctx: PrecisionContext = DEFAULT_CONTEXT) -> int:
    """Largest N whose wave ctx can evaluate against (1, sum_n b^{-n!}).
    The inner product is about b^{N! - (N+1)!} with |k| about b^{N!}, so
    the constant is needed to b^{-(N+1)!}: more than (N+1)! log10(b)
    digits, which must stay below ctx.max_digits."""
    if base < 2:
        raise ValueError("base must be >= 2")
    N = 0
    while math.factorial(N + 2) * math.log10(base) < ctx.max_digits:
        N += 1
    return N


def liouville_family(N: int, base: int = 10,
                     ctx: PrecisionContext = DEFAULT_CONTEXT) -> FamilyMember:
    """sin(b^{N!} (sum_{n<=N} x / b^{n!} - y)), frequency
    (sum_{n<=N} b^{N!-n!}, -b^{N!}).

    Against the direction (1, sum_n b^{-n!}) the inner product is minus the
    series tail sum_{n>N} b^{N!-n!}, which collapses super-exponentially;
    these waves defeat any polynomially weighted directional inequality.
    N runs from 1 to liouville_cap(base, ctx).
    """
    cap = liouville_cap(base, ctx)
    if not 1 <= N <= cap:
        raise PrecisionCapExceeded(
            f"N={N} outside 1..{cap}: evaluating the inner-product tail would "
            f"need more than max_digits={ctx.max_digits}")
    factorials = []
    f = 1
    for i in range(1, N + 1):
        f *= i
        factorials.append(f)
    top = factorials[-1]
    k = (sum(base ** (top - fi) for fi in factorials), -base ** top)
    # two certified-tail digits of the expected directional collapse
    tail_exp = math.factorial(N + 1) - top
    return FamilyMember(_sine_wave(k), N, "liouville", {
        "k": k,
        "base": base,
        "l2_norm_sq_over_pi_sq": Fraction(2),   # ||f_N||^2 = 2*pi^2 exactly
        "grad_bound": 6 * base ** top,           # ||grad f_N|| <= 6 b^{N!}
        "directional_ratio_leading": Fraction(1, base ** tail_exp),
    })


def convergent_wave(a: Direction, n: int,
                    ctx: PrecisionContext = DEFAULT_CONTEXT) -> FamilyMember:
    """The real wave at k_n = (p_n, -q_n) where p_n/q_n is the n-th
    continued-fraction convergent of the slope beta = a2/a1, oriented so
    <k_n, alpha> = a1 (p_n - beta q_n) is the small quantity."""
    if a.dim != 2:
        raise ValueError("convergent_wave needs d = 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    if a.entries[0].sign_soft(ctx) == 0:
        raise ValueError("a1 must be nonzero")
    beta = a.entries[1] / a.entries[0]
    if beta.exact is not None and beta.exact.is_rational:
        raise RationalRatio("slope a2/a1 is rational")
    cf = cf_expand(beta, n + 1, ctx)
    if cf.finite:
        raise RationalRatio("slope expansion terminated as rational")
    if cf.certified_depth < n:
        raise DepthNotCertified(
            f"only {cf.certified_depth} convergents certified, need {n}")
    p, q = cf.convergents[n - 1]
    k = (p, -q)
    ip = inner_product(k, a)
    return FamilyMember(_sine_wave(k), n, "convergent_wave", {
        "k": k,
        "convergent": (p, q),
        "abs_k": freq_norm_cr(k),
        "abs_inner": abs(ip),
    })


def parse_family_token(token: str, a: Optional[Direction] = None,
                       ctx: PrecisionContext = DEFAULT_CONTEXT) -> FamilyMember:
    """CLI addressing: fib:n | liouville:N[:base] | cwave:n."""
    tag, _, body = token.partition(":")
    tag = tag.strip().lower()
    try:
        if tag == "fib":
            return fibonacci_family(int(body))
        if tag == "liouville":
            parts = body.split(":")
            return liouville_family(int(parts[0]),
                                    int(parts[1]) if len(parts) > 1 else 10, ctx)
        if tag == "cwave":
            if a is None:
                raise ParseError("cwave:n needs a direction")
            return convergent_wave(a, int(body), ctx)
    except ValueError as exc:
        raise ParseError(f"bad family token {token!r}: {exc}") from exc
    raise ParseError(f"unknown family token {token!r}")


@dataclass
class SharpnessRow:
    index: int
    k: tuple[int, int]
    abs_k: CertifiedReal
    abs_inner: CertifiedReal
    ratio: CertifiedReal
    limit: Optional[CertifiedReal]


@dataclass
class SharpnessTable:
    family: str
    direction: str
    rows: list[SharpnessRow]
    verdict: str
    annulus_note: str = ""

    def to_csv(self, digits: int = 20) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["family", "index", "k", "abs_k", "inner", "ratio", "limit"])
        for r in self.rows:
            w.writerow([
                self.family, r.index, " ".join(str(c) for c in r.k),
                f"{float(r.abs_k):.{digits}g}",
                f"{float(r.abs_inner):.{digits}g}",
                f"{float(r.ratio):.{digits}g}",
                f"{float(r.limit):.{digits}g}" if r.limit is not None else "",
            ])
        return buf.getvalue()


def _member_for(family: str, a: Direction, n: int,
                ctx: PrecisionContext) -> FamilyMember:
    if family == "fibonacci":
        return fibonacci_family(n)
    if family == "liouville":
        return liouville_family(n, ctx=ctx)
    if family == "convergent_wave":
        return convergent_wave(a, n, ctx)
    raise ParseError(f"unknown family {family!r}")


def sharpness_table(a: Direction, family: str, n_max: int,
                    ctx: PrecisionContext = DEFAULT_CONTEXT) -> SharpnessTable:
    """Weighted-ratio table for one family against one direction, with the
    exponent pair (1, 1).

    The verdict reports finite-range evidence only: "inequality fails"
    when the running minimum of the ratios keeps collapsing (at the end
    of the table it is below 3/4 of its value a quarter of the way in, or
    below 1e-6), otherwise the observed floor.  For the Fibonacci family the
    dyadic-annulus diagnostic checks that consecutive frequency norms
    have ratio below 2, so every dyadic scale beyond the first few
    contains a row.
    """
    if family == "liouville" and n_max > (cap := liouville_cap(ctx=ctx)):
        raise PrecisionCapExceeded(
            f"liouville rows run to N={cap} at max_digits={ctx.max_digits}, not {n_max}")
    rows: list[SharpnessRow] = []
    for n in range(1, n_max + 1):
        m = _member_for(family, a, n, ctx)
        k = m.metadata["k"]
        abs_k = freq_norm_cr(k)
        abs_inner = abs(inner_product(k, a))
        ratio = poincare_ratio(m.poly, a, Fraction(1), Fraction(1), ctx)
        limit = m.metadata.get("expected_limit")
        rows.append(SharpnessRow(n, k, abs_k, abs_inner, ratio, limit))

    ratios = [float(r.ratio) for r in rows]
    running = []
    cur = math.inf
    for v in ratios:
        cur = min(cur, v)
        running.append(cur)
    base = running[max(1, len(running) // 4)]
    collapsing = running[-1] < 1e-6 or (base > 0 and running[-1] < 0.75 * base)
    if collapsing:
        verdict = ("inequality fails: weighted ratios are not bounded below "
                   f"in the certified range (running minimum {running[-1]:.3e})")
    else:
        verdict = (f"no failure detected up to n={n_max}: observed floor "
                   f"{running[-1]:.6g} (finite-range evidence, not a proof)")

    annulus_note = ""
    if family == "fibonacci" and len(rows) >= 4:
        growth = [float(rows[i + 1].abs_k) / float(rows[i].abs_k)
                  for i in range(2, len(rows) - 1)]
        worst = max(growth)
        ok = worst < 2
        annulus_note = (f"consecutive frequency-norm ratios max {worst:.6f} "
                        f"{'< 2: every dyadic annulus is hit' if ok else '>= 2'}")
    return SharpnessTable(family, a.key(), rows, verdict, annulus_note)
