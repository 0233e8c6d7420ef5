"""The d = 2 convergent walker against the two walks it replaced.

The oracles below are the bodies of `convergent_wave` and
`hurwitz_witnesses` as they were before both became
`diophantine.convergent_frequencies` walks (one at j = 0, one at j = 1).
Each run parses its direction afresh, so the enclosures compared at 80
digits start from the same refinement state on both sides.
"""

import pytest

from dirp import diophantine
from dirp.certified import CertifiedReal
from dirp.diophantine import cf_expand, convergent_frequencies, hurwitz_witnesses
from dirp.directions import inner_product, parse_direction
from dirp.errors import DepthNotCertified, PrecisionExhausted, RationalRatio
from dirp.extremizers import convergent_wave, convergent_waves, sharpness_table
from dirp.precision import DEFAULT_CONTEXT
from dirp.quadratic import QuadExact
from dirp.spectral import freq_norm_cr

DIGITS = 80


def oracle_convergent_wave(a, n, ctx=DEFAULT_CONTEXT):
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
    return {"k": k, "convergent": (p, q), "abs_k": freq_norm_cr(k), "abs_inner": abs(ip)}


def oracle_hurwitz_witnesses(a, count, ctx=DEFAULT_CONTEXT):
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if a.dim != 2:
        raise ValueError("hurwitz_witnesses needs d = 2")
    if a.entries[0].sign_soft(ctx) == 0 or a.entries[1].sign_soft(ctx) == 0:
        raise ValueError("both entries must be nonzero")
    ratio = a.entries[0] / a.entries[1]
    if ratio.exact is not None and ratio.exact.is_rational:
        raise RationalRatio("a1/a2 is rational")
    cf = cf_expand(ratio, 3 * count, ctx)
    if cf.finite:
        raise RationalRatio("a1/a2 terminated as a rational expansion")
    sqrt5 = CertifiedReal.from_quad(QuadExact(0, 1, 5))
    out = []
    for p, q in cf.convergents:
        test = abs(ratio * q - p) * q * sqrt5 - 1
        s = test.sign_soft(ctx)
        if s is None or s > 0:
            continue
        k = (q, -p)
        ip = inner_product(k, a)
        product = abs(ip) * CertifiedReal.from_rational(p * p + q * q).sqrt()
        out.append((k, (p, q), product))
        if len(out) == count:
            return out
    raise DepthNotCertified(
        f"only {cf.certified_depth} convergents certified; "
        f"{len(out)} of {count} witnesses found")


DIRECTIONS = [
    "dir:[1, quad:sqrt2]",
    "dir:[quad:sqrt2, 1]",
    "dir:[1, quad:-sqrt2]",
    "dir:[1, quad:(-2+sqrt7)]",          # slope in (0, 1)
    "dir:[1, quad:(3+sqrt13)/2]",        # slope > 1
    "dir:[2, quad:-3*sqrt2/2]",          # negative slope in (-1, 0)
    "dir:[1, const:e]",
    "dir:[const:pi, 1]",
    "dir:[1, liouville:10]",
    "dir:[1, dec:1.41421356]",
    "dir:[1, quad:sqrt1000003]",         # radicand >= 10^6
]


def outcome(fn, spec, *args):
    """fn(parsed spec, *args), or the class of what it raised."""
    try:
        return fn(parse_direction(spec), *args)
    except Exception as exc:  # the class is what is compared
        return type(exc)


def enclosure(x):
    return x.enclosure(DIGITS)


@pytest.mark.parametrize("spec", DIRECTIONS)
def test_convergent_wave_matches_oracle(spec):
    assert not isinstance(outcome(oracle_convergent_wave, spec, 1), type)
    for n in range(1, 31):
        want = outcome(oracle_convergent_wave, spec, n)
        got = outcome(convergent_wave, spec, n)
        if isinstance(want, type):
            assert got is want, (spec, n)
            continue
        assert got.frequency == want["k"], (spec, n)
        assert got.metadata["convergent"] == want["convergent"]
        for key in ("abs_k", "abs_inner"):
            assert enclosure(got.metadata[key]) == enclosure(want[key]), (spec, n, key)


@pytest.mark.parametrize("spec", DIRECTIONS)
def test_hurwitz_witnesses_match_oracle(spec):
    assert not isinstance(outcome(oracle_hurwitz_witnesses, spec, 1), type)
    for count in range(1, 21):
        want = outcome(oracle_hurwitz_witnesses, spec, count)
        got = outcome(hurwitz_witnesses, spec, count)
        if isinstance(want, type):
            assert got is want, (spec, count)
            continue
        assert [(w.k, w.convergent) for w in got] == [(k, pq) for k, pq, _ in want]
        assert ([enclosure(w.product) for w in got]
                == [enclosure(product) for _, _, product in want]), (spec, count)


@pytest.mark.parametrize("spec, cwave_exc, hurwitz_exc", [
    ("dir:[1, 2, 3]", ValueError, ValueError),
    ("dir:[0, quad:sqrt2]", ValueError, ValueError),
    ("dir:[quad:sqrt2, 0]", RationalRatio, ValueError),
    ("dir:[1, 2]", RationalRatio, RationalRatio),
    ("dir:[dec:0.0000001, 1]", PrecisionExhausted, DepthNotCertified),
])
def test_edge_cases_raise_as_before(spec, cwave_exc, hurwitz_exc):
    assert outcome(oracle_convergent_wave, spec, 3) is cwave_exc
    assert outcome(convergent_wave, spec, 3) is cwave_exc
    assert outcome(oracle_hurwitz_witnesses, spec, 3) is hurwitz_exc
    assert outcome(hurwitz_witnesses, spec, 3) is hurwitz_exc


@pytest.mark.parametrize("j, ks", [
    (0, [(-2, -1), (-1, -1), (-3, -2), (-7, -5)]),   # convergent_wave's k = (p, -q) of a2/a1
    (1, [(1, 1), (3, 2), (7, 5), (17, 12)]),          # hurwitz_witnesses' k = (q, -p) of a1/a2
])
def test_orientation_on_a_negative_slope(j, ks):
    walk = convergent_frequencies(parse_direction("dir:[1, quad:sqrt2/-1]"), j, 4)
    items = list(walk)
    assert [k for _, k, _ in items] == ks
    for (p, q), k, ip in items:
        c = [0, 0]
        c[j], c[1 - j] = p, q
        assert k == (c[0], -c[1])
        assert ip.exact == k[0] + k[1] * QuadExact(0, -1, 2)


def test_waves_come_from_one_walk():
    a = parse_direction("dir:[1, const:e]")
    many = list(convergent_waves(a, range(1, 13)))
    assert [m.index for m in many] == list(range(1, 13))
    assert [m.frequency for m in many] == [convergent_wave(a, n).frequency for n in range(1, 13)]


def test_sharpness_table_expands_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return cf_expand(*args, **kwargs)

    monkeypatch.setattr(diophantine, "cf_expand", counted)
    table = sharpness_table(parse_direction("dir:[1, const:e]"), "convergent_wave", 20)
    assert len(table.rows) == 20
    assert calls == [21]
