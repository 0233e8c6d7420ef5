"""Named extremizer/counterexample families and sharpness tables.

All families are single real waves sin(<k, x>) stored as two-term
polynomials with exact rational coefficients +/-1/(2i), so every norm
and ratio downstream is reproducible bit-for-bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .certified import CertifiedReal
from .diophantine import convergent_frequencies
from .directions import Direction, inner_product, make_direction
from .errors import DepthNotCertified, ParseError, PrecisionCapExceeded
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


PHI = make_direction([1, GOLDEN_RATIO])


def fibonacci_waves(ns: range, ctx: PrecisionContext = DEFAULT_CONTEXT) -> list[FamilyMember]:
    """sin(F_{n+1} x - F_n y) for n in ns, near-extremizers for (1, phi): the
    convergent waves of PHI, whose n-th convergent is F_{n+1}/F_n, relabelled
    "fibonacci" with two more metadata entries.

    The weighted product |k| * |<k, alpha>| has the closed form
    sqrt(F_{n+1}^2/F_n^2 + 1) * |F_{n+1}/F_n - phi| * F_n^2 and converges
    to |alpha|/sqrt5 = sqrt((5+sqrt5)/10), one object for all members.
    """
    phi = CertifiedReal.from_quad(GOLDEN_RATIO)
    # sqrt((1 + phi^2)/5) = sqrt((5 + sqrt5)/10)
    limit = (CertifiedReal.from_quad(QuadExact(Fraction(5, 2), Fraction(1, 2), 5)) / 5).sqrt()
    members = convergent_waves(PHI, ns, ctx)
    for m in members:
        fn1, fn = m.metadata["convergent"]
        x = CertifiedReal.from_rational(Fraction(fn1, fn))
        m.family = "fibonacci"
        m.metadata.update(closed_form_ratio=(x * x + 1).sqrt() * abs(x - phi) * (fn * fn),
                          expected_limit=limit)
    return members


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
    return FamilyMember(_sine_wave(k), N, "liouville", {"k": k})


def convergent_waves(a: Direction, ns: range,
                     ctx: PrecisionContext = DEFAULT_CONTEXT) -> list[FamilyMember]:
    """The real waves at k_n = (p_n, -q_n) for n in ns (a range from 1 up),
    where p_n/q_n is the n-th continued-fraction convergent of the slope
    beta = a2/a1, oriented so <k_n, alpha> = a1 (p_n - beta q_n) is the small
    quantity.  They come from one convergent_frequencies walk, to depth
    max(ns) + 1."""
    if ns.start < 1:
        raise ValueError("n must be >= 1")
    walk = list(itertools.islice(convergent_frequencies(a, ns.stop, ctx, ns.start), len(ns)))
    if len(walk) < len(ns):
        raise DepthNotCertified(
            f"only {ns.start - 1 + len(walk)} convergents certified, need {ns.stop - 1}")
    return [FamilyMember(_sine_wave(k), n, "convergent_wave", {
        "k": k, "convergent": pq, "abs_k": freq_norm_cr(k), "abs_inner": abs(ip)})
        for n, (pq, k, ip) in zip(ns, walk)]


# family -> (token tag, its members n in a range against a direction)
_FAMILIES = {
    "fibonacci": ("fib", lambda a, ns, ctx: fibonacci_waves(ns, ctx)),
    "liouville": ("liouville",
                  lambda a, ns, ctx, base=10: [liouville_family(N, base, ctx) for N in ns]),
    "convergent_wave": ("cwave", convergent_waves),
}


def parse_family_token(token: str, a: Optional[Direction] = None,
                       ctx: PrecisionContext = DEFAULT_CONTEXT) -> FamilyMember:
    """CLI addressing: fib:n | liouville:N[:base] | cwave:n."""
    tag, _, body = token.partition(":")
    tag = tag.strip().lower()
    family = next((f for f, (t, _) in _FAMILIES.items() if t == tag), None)
    if family is None:
        raise ParseError(f"unknown family token {token!r}")
    if family == "convergent_wave" and a is None:
        raise ParseError("cwave:n needs a direction")
    try:
        n, *base = map(int, body.split(":", 1) if family == "liouville" else [body])
        return _FAMILIES[family][1](a, range(n, n + 1), ctx, *base)[0]
    except ValueError as exc:
        raise ParseError(f"bad family token {token!r}: {exc}") from exc


@dataclass
class SharpnessRow:
    index: int
    k: tuple[int, int]
    abs_k: CertifiedReal
    abs_inner: CertifiedReal
    ratio: CertifiedReal


@dataclass
class SharpnessTable:
    family: str
    direction: str
    rows: list[SharpnessRow]
    members: list[FamilyMember]  # one behind each row
    verdict: str
    annulus_note: str = ""


def sharpness_table(a: Direction, family: str, n_max: int,
                    ctx: PrecisionContext = DEFAULT_CONTEXT) -> SharpnessTable:
    """Weighted-ratio table for one family against one direction, with the
    exponent pair (1, 1).

    The verdict reports finite-range evidence only: "inequality fails"
    when the running minimum of the ratios keeps collapsing (at the end
    of the table it is below 3/4 of its value a quarter of the way in, or
    below 1e-6), otherwise the observed floor.  Ratios are compared at the
    20 significant digits their enclosures fix.  For the Fibonacci family the
    dyadic-annulus diagnostic checks that consecutive frequency norms
    have ratio below 2, so every dyadic scale beyond the first few
    contains a row.
    """
    if family not in _FAMILIES:
        raise ParseError(f"unknown family {family!r}")
    members = _FAMILIES[family][1](a, range(1, n_max + 1), ctx)
    rows = [SharpnessRow(m.index, m.frequency, freq_norm_cr(m.frequency),
                         abs(inner_product(m.frequency, a)),
                         poincare_ratio(m.poly, a, Fraction(1), Fraction(1)))
            for m in members]
    ratios = [Fraction(r.ratio.significant(20, ctx)) for r in rows]
    running = list(itertools.accumulate(ratios, min))
    base = running[max(1, len(running) // 4)]
    lowest = rows[ratios.index(running[-1])].ratio
    collapsing = (running[-1] < Fraction(1, 10 ** 6)
                  or (base > 0 and running[-1] < Fraction(3, 4) * base))
    if collapsing:
        verdict = ("inequality fails: weighted ratios are not bounded below "
                   f"in the certified range (running minimum {lowest.significant(4, ctx)})")
    else:
        verdict = (f"no failure detected up to n={n_max}: observed floor "
                   f"{lowest.significant(6, ctx)} (finite-range evidence, not a proof)")

    annulus_note = ""
    if family == "fibonacci" and len(rows) >= 4:
        growth = [float(rows[i + 1].abs_k) / float(rows[i].abs_k)
                  for i in range(2, len(rows) - 1)]
        worst = max(growth)
        ok = worst < 2
        annulus_note = (f"consecutive frequency-norm ratios max {worst:.6f} "
                        f"{'< 2: every dyadic annulus is hit' if ok else '>= 2'}")
    return SharpnessTable(family, a.key(), rows, members, verdict, annulus_note)
