"""Direction vectors on the torus and their textual spec grammar.

Grammar (CLI and JSON):

    rat:3/2                     exact rational
    quad:(1+sqrt5)/2            quadratic irrational (a+b*sqrtD)/c
    quad:-3*sqrt2/2             the same with a = 0 and a signed b
    dec:1.41421356              decimal literal (interval = +/- 1 ulp)
    cf:[1,2,2,2]                value of a finite continued fraction
    liouville:10                sum over n of base^(-n!)
    const:e | const:pi | const:log2
    dir:[1, quad:(1+sqrt5)/2]   vector form; bare entries are rationals
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import constants
from .certified import CertifiedReal
from .errors import DimensionMismatch, ParseError
from .precision import to_fraction
from .quadratic import QuadExact

_QUAD_RE = re.compile(
    r"^(?:\(\s*(?P<a>-?\d+(?:/\d+)?)\s*)?(?P<sign>(?(a)[+-]|-?))\s*"
    r"(?P<b>\d+(?:/\d+)?)?\s*\*?\s*sqrt\(?(?P<d>\d+)\)?\s*\)?"
    r"(?:\s*/\s*(?P<c>-?\d+))?$"
)


def liouville_constant(base: int = 10) -> CertifiedReal:
    """Sum of base^(-n!), refinable to arbitrary depth with an exact
    geometric tail bound."""
    if base < 2:
        raise ParseError("liouville base must be >= 2")

    def fn(digits):
        partial = Fraction(0)
        n, fact, cap = 1, 1, 10 ** (digits + 20)
        while (power := base ** fact) <= cap:
            partial += Fraction(1, power)
            n += 1
            fact *= n
        tail = Fraction(2, power)
        return (partial, partial + tail)

    return CertifiedReal.from_fn(fn)


def _finite_cf_value(quotients: Sequence[int]) -> Fraction:
    if not quotients:
        raise ParseError("empty continued fraction")
    value = Fraction(quotients[-1])
    for a in reversed(quotients[:-1]):
        if value == 0:
            raise ParseError("continued fraction hit a zero tail")
        value = a + 1 / value
    return value


def parse_quad(body: str) -> QuadExact:
    m = _QUAD_RE.match(body.strip())
    if not m:
        raise ParseError(f"cannot parse quadratic spec {body!r}")
    a = to_fraction(m.group("a")) if m.group("a") else Fraction(0)
    b = to_fraction(m.group("b")) if m.group("b") else Fraction(1)
    if m.group("sign") == "-":
        b = -b
    d = int(m.group("d"))
    c = int(m.group("c")) if m.group("c") else 1
    if c == 0:
        raise ParseError("quadratic spec with zero denominator")
    # (a+b*sqrtD)/c with square D collapses to a rational; allowed
    return QuadExact(a / c, b / c, d)


def parse_entry(token: str) -> CertifiedReal:
    token = token.strip()
    if ":" not in token:
        try:
            return CertifiedReal.from_rational(to_fraction(token))
        except ValueError as exc:
            raise ParseError(f"bare entry {token!r} is not rational ({exc}); "
                             "use dec:/quad:/const:") from exc
    tag, _, body = token.partition(":")
    tag = tag.strip().lower()
    try:
        if tag == "rat":
            return CertifiedReal.from_rational(to_fraction(body))
        if tag == "quad":
            return CertifiedReal.from_quad(parse_quad(body))
        if tag == "dec":
            return CertifiedReal.from_decimal_literal(body.strip())
        if tag == "cf":
            return CertifiedReal.from_rational(_finite_cf_value(_parse_int_list(body)))
        if tag == "liouville":
            return liouville_constant(int(body))
    except (ValueError, ArithmeticError) as exc:
        raise ParseError(f"bad {tag}: entry {body!r} ({exc})") from exc
    if tag == "const":
        name = body.strip().lower()
        table = {"e": constants.e_cr, "pi": constants.pi_cr, "log2": constants.log2_cr}
        if name not in table:
            raise ParseError(f"unknown constant {name!r}")
        return table[name]()
    raise ParseError(f"unknown entry tag {tag!r}")


def _parse_int_list(body: str) -> list[int]:
    body = body.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ParseError(f"expected [..] list, got {body!r}")
    return [int(s) for s in body[1:-1].split(",") if s.strip()]


def split_top_level(body: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return parts


@dataclass(frozen=True)
class Direction:
    """A d-vector of certified-precision reals plus the spec it came from."""

    entries: tuple[CertifiedReal, ...]
    specs: tuple[str, ...]

    @property
    def dim(self) -> int:
        return len(self.entries)

    def key(self) -> str:
        return "dir:[" + ", ".join(self.specs) + "]"


def make_direction(values: Sequence) -> Direction:
    """Programmatic constructor: ints, Fractions, QuadExact, CertifiedReal
    or grammar tokens."""
    entries, specs = [], []
    for v in values:
        if isinstance(v, CertifiedReal):
            entries.append(v)
            specs.append("<certified>")
        elif isinstance(v, QuadExact):
            entries.append(CertifiedReal.from_quad(v))
            specs.append(repr(v))
        elif isinstance(v, (int, Fraction)):
            entries.append(CertifiedReal.from_rational(v))
            specs.append(str(v))
        elif isinstance(v, str):
            entries.append(parse_entry(v))
            specs.append(v.strip())
        else:
            raise ParseError(f"cannot build direction entry from {v!r}")
    if not entries:
        raise ParseError("empty direction")
    return Direction(tuple(entries), tuple(specs))


def parse_direction(text: str) -> Direction:
    text = text.strip()
    if text.startswith("dir:"):
        body = text[4:].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ParseError(f"dir: expects [..], got {body!r}")
        tokens = split_top_level(body[1:-1])
        return make_direction([t.strip() for t in tokens])
    # single entry, dimension 1
    return make_direction([text])


def inner_product(k: Sequence[int], direction: Direction) -> CertifiedReal:
    """<k, alpha> with exactness preserved for rational/quadratic entries."""
    if len(k) != direction.dim:
        raise DimensionMismatch(f"frequency dim {len(k)} vs direction dim {direction.dim}")
    return CertifiedReal.sum(entry * ki for ki, entry in zip(k, direction.entries) if ki)
