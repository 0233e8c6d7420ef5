"""The d = 2 convergent walker against the walk it replaced.

`oracle_wave` is the body of the one-wave builder (now a one-element
`convergent_waves` call) as it was before it became a
`diophantine.convergent_frequencies` walk over the convergents of a2/a1.
The walk's own triples are checked against the identities that
continued-fraction convergents obey.  Each run parses its direction afresh, so the enclosures compared at 80
digits start from the same refinement state on both sides.
"""

import pytest

from dirp import diophantine
from dirp.diophantine import cf_expand, convergent_frequencies
from dirp.directions import inner_product, parse_direction
from dirp.errors import DepthNotCertified, PrecisionExhausted, RationalRatio
from dirp.extremizers import convergent_waves, sharpness_table
from dirp.precision import DEFAULT_CONTEXT
from dirp.quadratic import QuadExact
from dirp.spectral import freq_norm_cr

DIGITS = 80


def oracle_wave(a, n, ctx=DEFAULT_CONTEXT):
    if a.dim != 2:
        raise ValueError("a convergent wave needs d = 2")
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
def test_convergent_waves_match_oracle(spec):
    assert not isinstance(outcome(oracle_wave, spec, 1), type)
    for n in range(1, 31):
        want = outcome(oracle_wave, spec, n)
        got = outcome(convergent_waves, spec, range(n, n + 1))
        if isinstance(want, type):
            assert got is want, (spec, n)
            continue
        got = got[0]
        assert got.frequency == want["k"], (spec, n)
        assert got.metadata["convergent"] == want["convergent"]
        for key in ("abs_k", "abs_inner"):
            assert enclosure(got.metadata[key]) == enclosure(want[key]), (spec, n, key)


@pytest.mark.parametrize("spec", DIRECTIONS)
def test_walk_obeys_convergent_identities(spec):
    """Each k = (p, -q) of the walk is a convergent p/q of x = a2/a1: the
    q grow, p_n q_{n-1} - p_{n-1} q_n = (-1)^(n-1), and
    <k, alpha> = a1 (p - q x) takes the sign of a1 (-1)^(n+1), as x - p/q
    alternates in sign."""
    a = parse_direction(spec)
    items = list(convergent_frequencies(a, 60))
    assert len(items) >= 10, spec
    lead = a.entries[0].sign_soft()
    for n, ((p, q), k, ip) in enumerate(items):
        assert k == (p, -q), (spec, n)
        assert enclosure(ip) == enclosure(inner_product(k, a)), (spec, n)
        assert ip.sign_soft() == lead * (-1) ** (n + 1), (spec, n)
        if n:
            (p0, q0), _, _ = items[n - 1]
            assert q > q0 or (n, q0, q) == (1, 1, 1), (spec, n)
            assert p * q0 - p0 * q == (-1) ** (n - 1), (spec, n)


@pytest.mark.parametrize("spec, cwave_exc", [
    ("dir:[1, 2, 3]", ValueError),
    ("dir:[0, quad:sqrt2]", ValueError),
    ("dir:[quad:sqrt2, 0]", RationalRatio),
    ("dir:[1, 2]", RationalRatio),
    ("dir:[dec:0.0000001, 1]", PrecisionExhausted),
])
def test_edge_cases_raise_as_before(spec, cwave_exc):
    assert outcome(oracle_wave, spec, 3) is cwave_exc
    assert outcome(convergent_waves, spec, range(3, 4)) is cwave_exc


def test_orientation_on_a_negative_slope():
    walk = convergent_frequencies(parse_direction("dir:[1, quad:sqrt2/-1]"), 4)
    items = list(walk)
    assert [k for _, k, _ in items] == [(-2, -1), (-1, -1), (-3, -2), (-7, -5)]
    for (p, q), k, ip in items:  # k = (p, -q) of the convergents of a2/a1
        assert k == (p, -q)
        assert ip.exact == k[0] + k[1] * QuadExact(0, -1, 2)


def test_waves_come_from_one_walk():
    a = parse_direction("dir:[1, const:e]")
    many = list(convergent_waves(a, range(1, 13)))
    assert [m.index for m in many] == list(range(1, 13))
    assert [m.frequency for m in many] == [convergent_waves(a, range(n, n + 1))[0].frequency
                                           for n in range(1, 13)]


def test_sharpness_table_expands_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return cf_expand(*args, **kwargs)

    monkeypatch.setattr(diophantine, "cf_expand", counted)
    table = sharpness_table(parse_direction("dir:[1, const:e]"), "convergent_wave", 20)
    assert len(table.rows) == 20
    assert calls == [21]


def test_convergents_before_the_range_cost_no_inner_product(monkeypatch):
    calls = []

    def counted(k, a):
        calls.append(k)
        return inner_product(k, a)

    monkeypatch.setattr(diophantine, "inner_product", counted)
    a = parse_direction("dir:[1, quad:(1+sqrt5)/2]")
    (wave,) = convergent_waves(a, range(30, 31))
    assert calls == [wave.frequency] == [(1346269, -832040)]
    assert [k for _, k, _ in convergent_frequencies(a, 6, start=4)] == [(5, -3), (8, -5), (13, -8)]
