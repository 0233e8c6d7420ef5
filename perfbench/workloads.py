"""The four benchmark workloads: inputs made from the seed, the operations
run on them, and the checks applied to every result.

Each workload is built by a function ``<name>_ops(seed, size, ref, workdir)``
that returns a list of :class:`Op`.  Building is the set-up the benchmark
times as ``setup_s``; running the ops is the timed pass.  Calls go through
the ``dirp`` module attributes (``diophantine.lattice_min``, ``cli.main``),
so a tracer that rebinds those attributes sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from dirp import cli, diffusion, diophantine, directions, report, spectral

import oracles

REL_TOL = 1e-9            # relative tolerance for every float compared
REFERENCE_SEED = 1234     # seeded outputs are recorded for this seed only

SIZES = {
    "full": {
        "phi_R": 4000, "sqrt2_R": 2000, "d3_R": 150, "e_R": 1000, "quad_R": 1000,
        "profile_R": 1000, "system_R": 200, "quad_count": 3,
        "fit_M": 2048, "fit_big_M": 8192, "atoms_M": 4096, "triples": 200,
        "t_grid": ("1/10", "1/20", "1/50", "1/100", "1/200"),
        "polys": 6, "poly_terms": 60, "cli_lattice_R": 500,
    },
    "small": {
        "phi_R": 200, "sqrt2_R": 100, "d3_R": 20, "e_R": 100, "quad_R": 100,
        "profile_R": 100, "system_R": 20, "quad_count": 1,
        "fit_M": 512, "fit_big_M": 1024, "atoms_M": 512, "triples": 10,
        "t_grid": ("1/10", "1/20", "1/50"),
        "polys": 1, "poly_terms": 8, "cli_lattice_R": 60,
    },
}

ORACLE_R = {2: 40, 3: 12}          # brute-force radius by dimension
SYSTEM_ORACLE_R = 10
TRIPLE_M = 256
TRIPLE_SLACK = 1e-9


@dataclass
class Op:
    """One operation: ``run`` returns a JSON-ready payload; ``check`` maps
    the payload to {sub-operation name: [problems]} (empty list = pass)."""
    name: str
    run: Callable[[], object]
    check: Callable[[object], dict]
    seeded: bool


class Reference:
    """Recorded outputs: fixed operations for any seed, seeded ones only
    for REFERENCE_SEED.  An empty reference (while recording) expects
    nothing, so only the oracles apply."""

    def __init__(self, data: dict, seed: int, size: str):
        self.data, self.seed, self.size = data, seed, size

    def get(self, name: str, seeded: bool):
        if not seeded:
            return self.data.get("fixed", {}).get(name)
        if self.seed != REFERENCE_SEED:
            return None
        return self.data.get("seed_1234", {}).get(self.size, {}).get(name)


def normalize(payload):
    return json.loads(json.dumps(payload))


def mismatches(expected, actual, path: str = "") -> list[str]:
    """Differences between two JSON values; floats compare at REL_TOL."""
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(expected, (int, float)) and isinstance(actual, (int, float)) \
                and not isinstance(expected, bool) and not isinstance(actual, bool) \
                and (expected == actual or math.isclose(expected, actual, rel_tol=REL_TOL)):
            return []
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(expected)} != {sorted(actual)}"]
        return [m for k in expected for m in mismatches(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in mismatches(e, a, f"{path}[{i}]")]
    return [] if expected == actual else [f"{path}: expected {expected!r}, got {actual!r}"]


def make_op(name: str, run, ref: Reference, seeded: bool,
            oracle: Optional[Callable[[object], dict]] = None) -> Op:
    """An op checked against its reference entry (if any) and an oracle,
    which returns {sub-operation name: [problems]} of its own."""
    expected = ref.get(name, seeded)

    def check(payload):
        out = {name: [] if expected is None else mismatches(expected, payload)}
        if oracle is not None:
            for sub, problems in oracle(payload).items():
                out.setdefault(sub, []).extend(problems)
        return out

    return Op(name, run, check, seeded)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

# rows whose content does not depend on the report seed
SEED_FREE_ROWS = (1, 2, 3, 4, 7, 8, 9, 11, 13)


def report_ops(seed: int, size: str, ref: Reference, workdir: str) -> list[Op]:
    """build_report(seed) and report_to_bytes; one sub-operation per row
    plus one for the bytes (sha256 at the reference seed, all_pass else)."""
    name = "build_report"
    recorded = ref.data.get("seed_1234", {}).get("full", {}).get(name)   # one size only
    expected = recorded if seed == REFERENCE_SEED else None
    ref_rows = {r["criterion"]: r for r in (recorded or {}).get("rows", [])}

    def run():
        rep = report.build_report(seed=seed)
        raw = report.report_to_bytes(rep)
        return {"sha256": hashlib.sha256(raw).hexdigest(), "all_pass": rep["all_pass"],
                "rows": json.loads(raw)["rows"]}

    def check(payload):
        out = {}
        for row in payload["rows"]:
            c = row["criterion"]
            problems = [] if row["pass"] is True else [f"criterion {c} does not pass"]
            if c in SEED_FREE_ROWS and c in ref_rows:
                problems += mismatches(ref_rows[c], row, f"criterion {c}")
            out[f"report criterion {c:02d}"] = problems
        problems = [] if payload["all_pass"] is True else ["all_pass is false"]
        if len(payload["rows"]) != 14:
            problems.append(f"{len(payload['rows'])} rows, expected 14")
        if expected is not None and payload["sha256"] != expected["sha256"]:
            problems.append(f"sha256 {payload['sha256']} != {expected['sha256']}")
        out["report bytes"] = problems
        return out

    return [Op(name, run, check, True)]


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------

PHI = "dir:[1, quad:(1+sqrt5)/2]"
SQRT2_1 = "dir:[quad:sqrt2, 1]"
D3 = "dir:[1, quad:sqrt2, quad:sqrt3]"
E_DIR = "dir:[1, const:e]"
SYSTEM_FORM = "dir:[quad:sqrt2, quad:sqrt3]"
_SQUAREFREE = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30)


def seeded_quadratic_specs(rng: np.random.Generator, count: int) -> list[str]:
    """Directions (1, (a + sqrt D)/b) with small a, b and squarefree D."""
    out = []
    while len(out) < count:
        D = int(rng.choice(_SQUAREFREE))
        a, b = int(rng.integers(-3, 4)), int(rng.integers(1, 6))
        spec = f"dir:[1, quad:({a}+sqrt{D})/{b}]"
        if spec not in out:
            out.append(spec)
    return out


def _cert_interval(cert: dict) -> tuple[int, int]:
    return oracles.decimal_interval(cert["value"], cert["radius"])


def _lattice_oracle(spec: str, direction, R: int, sigma: Fraction, label: str):
    """Cross-checks of a lattice_min result: the value at the reported
    argmin, monotonicity against a brute-force minimum over a small ball,
    and lattice_min itself on that small ball against the brute force."""
    R_o = ORACLE_R[direction.dim]

    def oracle(payload):
        brute = oracles.lattice_min_brute(spec, R_o, sigma)
        got = _cert_interval(payload["minimum"])
        main = []
        k = tuple(payload["argmin"])
        if sum(c * c for c in k) > R * R:
            main.append(f"argmin {k} outside radius {R}")
        if not oracles.overlaps(got, oracles.lattice_value(spec, k, sigma)):
            main.append(f"minimum does not match the value at argmin {k}")
        if got[0] > brute["hi"]:
            main.append(f"minimum exceeds the brute-force minimum at R={R_o}")
        small = diophantine.lattice_min(direction, R_o, sigma).to_json(40)
        side = []
        if tuple(small["argmin"]) not in brute["argmins"]:
            side.append(f"R={R_o} argmin {small['argmin']} not among {sorted(brute['argmins'])}")
        if not oracles.overlaps(_cert_interval(small["minimum"]), (brute["lo"], brute["hi"])):
            side.append(f"R={R_o} minimum disagrees with brute force")
        return {label: main, f"brute force R={R_o} {spec} sigma={sigma}": side}

    return oracle


def lattice_ops(seed: int, size: str, ref: Reference, workdir: str) -> list[Op]:
    s = SIZES[size]
    rng = np.random.default_rng(seed)
    cases = [(PHI, 1, s["phi_R"], False), (SQRT2_1, 1, s["sqrt2_R"], False),
             (D3, Fraction(1, 2), s["d3_R"], False), (E_DIR, 1, s["e_R"], False)]
    cases += [(spec, 1, s["quad_R"], True)
              for spec in seeded_quadratic_specs(rng, s["quad_count"])]
    ops = []
    for spec, sigma, R, seeded in cases:
        sigma = Fraction(sigma)
        direction = directions.parse_direction(spec)
        name = f"lattice_min {spec} sigma={sigma} R={R}"

        def run(direction=direction, R=R, sigma=sigma):
            res = diophantine.lattice_min(direction, R, sigma)
            out = res.to_json(40)
            out["exact"] = None if res.minimum.exact is None else repr(res.minimum.exact)
            return out

        oracle = _lattice_oracle(spec, direction, R, sigma, name)
        if spec == SQRT2_1:
            oracle = _sqrt2_floor(oracle, name)
        ops.append(make_op(name, run, ref, seeded, oracle))

    phi = directions.parse_direction(PHI)
    profile_R = s["profile_R"]

    def profile():
        return [[ns, list(k), v.to_json(40)]
                for ns, k, v in diophantine.lattice_min_profile(phi, profile_R, 1)]

    name = f"lattice_min_profile {PHI} sigma=1 R={profile_R}"
    ops.append(make_op(name, profile, ref, False, _profile_oracle(name)))

    system = diophantine.LinearFormSystem((directions.parse_direction(SYSTEM_FORM),))
    system_R = s["system_R"]
    name = f"system_lattice_min {SYSTEM_FORM} R={system_R}"
    ops.append(make_op(name, lambda: diophantine.system_lattice_min(system, system_R).to_json(40),
                       ref, False, _system_oracle(system, name)))
    return ops


def _sqrt2_floor(oracle, name):
    def checked(payload):
        out = oracle(payload)
        if payload["argmin"] != [1, -1] or payload["exact"] != "QuadExact(2 + -1*sqrt(2))":
            out[name].append(f"expected exactly 2 - sqrt2 at (1, -1), got "
                             f"{payload['exact']} at {payload['argmin']}")
        return out
    return checked


def _profile_oracle(name):
    R_o = ORACLE_R[2]

    def oracle(payload):
        problems = []
        prev = None
        for ns, k, cert in payload:
            got = _cert_interval(cert)
            if sum(c * c for c in k) != ns:
                problems.append(f"record {k} has |k|^2 {ns}")
            if not oracles.overlaps(got, oracles.lattice_value(PHI, k, 1)):
                problems.append(f"record value at {k} disagrees with the oracle")
            if prev is not None and got[0] >= prev[1]:
                problems.append(f"record at {k} does not improve on the previous one")
            prev = got
        inside = [k for ns, k, _ in payload if ns <= R_o * R_o]
        brute = oracles.lattice_min_brute(PHI, R_o, 1)
        if not inside or tuple(inside[-1]) not in brute["argmins"]:
            problems.append(f"last record within R={R_o} is not the brute-force argmin")
        return {name: problems}

    return oracle


def _system_oracle(system, name):
    R_o = SYSTEM_ORACLE_R

    def oracle(payload):
        small = diophantine.system_lattice_min(system, R_o).to_json(40)
        problems, side = [], []
        for key, exponent, use_dist in (("minimum", 2, True), ("improved", 1, False)):
            brute = oracles.system_min_brute(SYSTEM_FORM, R_o, exponent, use_dist)
            big = payload if key == "minimum" else payload["improved_variant"]
            little = small if key == "minimum" else small["improved_variant"]
            if _cert_interval(big["minimum"])[0] > brute["hi"]:
                problems.append(f"{key} exceeds the brute-force minimum at R={R_o}")
            if tuple(little["argmin"]) not in brute["argmins"]:
                side.append(f"R={R_o} {key} argmin {little['argmin']} not among "
                            f"{sorted(brute['argmins'])}")
            if not oracles.overlaps(_cert_interval(little["minimum"]), (brute["lo"], brute["hi"])):
                side.append(f"R={R_o} {key} disagrees with brute force")
        return {name: problems, f"brute force R={R_o} {SYSTEM_FORM}": side}

    return oracle


# ---------------------------------------------------------------------------
# diffusion
# ---------------------------------------------------------------------------

SYMMETRIC = "uniform:-0.5:0.5"
DRIFTED = "uniform:0:0.5"
ATOMIC = "atoms:[(0,1/2),(1/3,1/2)]"


def _regime_oracle(name, regime):
    def oracle(payload):
        problems = [] if payload["regime"] == regime else [
            f"regime {payload['regime']!r}, expected {regime!r}"]
        if not all(h > 0 for h in payload["h"]):
            problems.append("non-positive contraction factor")
        return {name: problems}
    return oracle


def _random_measure(M: int, rng: np.random.Generator):
    kind = int(rng.integers(0, 3))
    if kind == 0:
        w = rng.random(M) + 0.05
    elif kind == 1:
        w = np.zeros(M)
        w[rng.integers(0, M, size=int(rng.integers(2, 12)))] = rng.random() + 0.1
    else:
        w = np.ones(M)
        w[rng.integers(0, M)] += M * rng.random()
    return diffusion.GridMeasure(M, w / w.sum())


def diffusion_ops(seed: int, size: str, ref: Reference, workdir: str) -> list[Op]:
    s = SIZES[size]
    t_grid = [Fraction(t) for t in s["t_grid"]]
    laws = {spec: diffusion.parse_rv(spec) for spec in (SYMMETRIC, DRIFTED, ATOMIC)}
    ops = []

    def fit(spec, p, M):
        p_name = "inf" if p == math.inf else p
        name = f"scaling_fit p={p_name} {spec} M={M}"
        run = lambda: diffusion.scaling_fit(laws[spec], p, t_grid, M).to_json()
        return name, run

    for spec, regime in ((SYMMETRIC, "quadratic regime"), (DRIFTED, "linear regime")):
        for p in (1, math.inf):
            name, run = fit(spec, p, s["fit_M"])
            ops.append(make_op(name, run, ref, False, _regime_oracle(name, regime)))
    name, run = fit(DRIFTED, 1, s["fit_big_M"])
    ops.append(make_op(name, run, ref, False, _regime_oracle(name, "linear regime")))

    for M in (s["fit_M"], s["fit_big_M"]):
        name = f"density_floor_check {DRIFTED} t=1/20 C=16 M={M}"

        def floor(M=M):
            return list(diffusion.density_floor_check(laws[DRIFTED], Fraction(1, 20), 16, M))

        def floor_oracle(payload, name=name):
            n, value = payload
            ok = n == 1280 and 0 < value <= 1
            return {name: [] if ok else [f"n={n}, floor={value}: expected n=1280, 0 < floor <= 1"]}

        ops.append(make_op(name, floor, ref, False, floor_oracle))

    name, run = fit(ATOMIC, 2, s["atoms_M"])

    def atoms_oracle(payload, name=name):
        ok = len(payload["h"]) == len(t_grid) and all(h >= 0 for h in payload["h"])
        return {name: [] if ok else ["malformed contraction factors"]}

    ops.append(make_op(name, run, ref, False, atoms_oracle))

    rng = np.random.default_rng(seed)
    triples = [(diffusion.GridFunction.random_mean_zero(TRIPLE_M, rng),
                _random_measure(TRIPLE_M, rng), int(rng.integers(1, 65)))
               for _ in range(s["triples"])]
    name = f"contraction triples x{len(triples)} M={TRIPLE_M}"
    ops.append(make_op(name, lambda: _triple_margins(triples), ref, True, _triples_oracle(name)))
    return ops


def _triple_margins(triples) -> list[list[float]]:
    """Per triple: the largest of the Young, telescoping, Cesaro and
    density-lemma margins, and the Cesaro average's total mass."""
    out = []
    for f, mu, n in triples:
        M = f.M
        g1 = diffusion.apply_markov(f, mu)
        gn = diffusion.apply_markov(f, diffusion.convolution_power(mu, n))
        ces = diffusion.cesaro_average(mu, n)
        gc = diffusion.apply_markov(f, ces)
        c = min(1.0, mu.density_floor())
        worst = -math.inf
        for p in (1, 2, math.inf):
            nf = f.lp_norm(p)
            d1 = diffusion.GridFunction(M, f.values - g1.values).lp_norm(p)
            worst = max(worst,
                        g1.lp_norm(p) - nf,
                        diffusion.GridFunction(M, f.values - gn.values).lp_norm(p) - n * d1,
                        diffusion.GridFunction(M, f.values - gc.values).lp_norm(p) - n * d1,
                        g1.lp_norm(p) - (1 - c) * nf)
        out.append([worst, float(ces.weights.sum())])
    return out


def _triples_oracle(name):
    def oracle(payload):
        problems = [f"triple {i}: margin {m:.3e} > {TRIPLE_SLACK}"
                    for i, (m, _) in enumerate(payload) if m > TRIPLE_SLACK]
        problems += [f"triple {i}: Cesaro mass {mass!r}"
                     for i, (_, mass) in enumerate(payload) if abs(mass - 1) > 1e-12]
        return {name: problems}
    return oracle


# ---------------------------------------------------------------------------
# interval (the CLI on non-quadratic directions)
# ---------------------------------------------------------------------------

CLI_DIRECTIONS = ("dir:[1, const:e]", "dir:[const:pi, quad:sqrt2]",
                  "dir:[1, liouville:10]", "dir:[1, dec:2.718281828459045]")


def run_cli(argv: list[str]) -> dict:
    """cli.main in-process; returns its exit code and parsed JSON output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:          # argparse rejects the command line
            code = exc.code
    text = out.getvalue()
    return {"exit": code, "out": json.loads(text) if text.strip() else None}


def random_poly_json(rng: np.random.Generator, n_terms: int) -> dict:
    """A two-dimensional polynomial with dyadic coefficients, |k_i| <= 40."""
    terms = {}
    while len(terms) < n_terms:
        k = tuple(int(c) for c in rng.integers(-40, 41, size=2))
        re_, im_ = (Fraction(int(rng.integers(-8, 9)), 2 ** int(rng.integers(0, 4)))
                    for _ in range(2))
        if k != (0, 0) and (re_ or im_):
            terms[k] = (re_, im_)
    return spectral.TrigPoly(2, terms).to_json()


def _poly_sums(poly: dict, spec: str) -> tuple[float, float, float]:
    """(sum |a|^2, sum |a|^2 |k|^2, sum |a|^2 <k, alpha>^2), independently."""
    alpha = oracles.direction_intervals(spec)
    s0 = sg = sd = Fraction(0)
    for t in poly["terms"]:
        a2 = Fraction(t["re"]) ** 2 + Fraction(t["im"]) ** 2
        lo, hi = oracles.linear_interval(t["k"], alpha)
        ip = Fraction(lo + hi, 2 * oracles.SCALE)
        s0 += a2
        sg += a2 * sum(c * c for c in t["k"])
        sd += a2 * ip * ip
    return float(s0), float(sg), float(sd)


def _cli_poly_oracle(name, poly, spec, command):
    s0, sg, sd = _poly_sums(poly, spec)
    two_pi = 2 * math.pi
    if command == "norms":
        expected = {"l2": two_pi * math.sqrt(s0), "grad": two_pi * math.sqrt(sg),
                    "directional": two_pi * math.sqrt(sd)}
    elif command == "thm1":
        expected = {"ratio": math.sqrt(sg * sd) / s0}
    else:                                   # delta:2 gives exponents (2/3, 1/3)
        expected = {"ratio": sg ** (1 / 3) * sd ** (1 / 6) / math.sqrt(s0)}

    def oracle(payload):
        if payload["exit"] != 0:
            return {name: [f"exit code {payload['exit']}"]}
        problems = []
        for key, value in expected.items():
            cert = payload["out"]["result"][key]
            got = float(Fraction(cert["value"]))
            if not math.isclose(got, value, rel_tol=REL_TOL):
                problems.append(f"{key} = {got!r}, oracle {value!r}")
            if Fraction(cert["radius"]) > REL_TOL * abs(Fraction(cert["value"])):
                problems.append(f"{key} radius {cert['radius']} is wider than {REL_TOL}")
        return {name: problems}

    return oracle


def _cf_oracle(name, const, depth, bound=None):
    def oracle(payload):
        if payload["exit"] != 0:
            return {name: [f"exit code {payload['exit']}"]}
        res = payload["out"]["result"]
        problems = []
        if res["certified_depth"] != depth:
            problems.append(f"certified depth {res['certified_depth']} != {depth}")
        truth = ([oracles.e_quotient(i) for i in range(depth)] if const == "e"
                 else oracles.cf_quotients(const)[:depth])
        if res["quotients"][:len(truth)] != truth:
            problems.append("quotients disagree with the oracle expansion")
        if bound is not None:
            tail = truth[1:depth]
            m = max(tail)
            rep = res["bound_report"]
            if (rep["max_quotient"], rep["index"], rep["exceeded"]) != (m, 1 + tail.index(m), m > bound):
                problems.append(f"bound report {rep} disagrees with max quotient {m}")
        return {name: problems}
    return oracle


def _cli_lattice_oracle(name, spec, R):
    direction = directions.parse_direction(spec)
    lattice_oracle = _lattice_oracle(spec, direction, R, Fraction(1), name)

    def oracle(payload):
        if payload["exit"] != 0:
            return {name: [f"exit code {payload['exit']}"]}
        return lattice_oracle(payload["out"]["result"])

    return oracle


def _exit_zero(name):
    def oracle(payload):
        return {name: [] if payload["exit"] == 0 else [f"exit code {payload['exit']}"]}
    return oracle


def interval_ops(seed: int, size: str, ref: Reference, workdir: str) -> list[Op]:
    s = SIZES[size]
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(s["polys"]):
        poly = random_poly_json(rng, s["poly_terms"])
        path = os.path.join(workdir, f"poly{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(poly, fh)
        for spec in CLI_DIRECTIONS:
            for command, argv in (
                    ("thm1", ["ratio", "@" + path, "--direction", spec, "--preset", "thm1"]),
                    ("delta:2", ["ratio", "@" + path, "--direction", spec, "--preset", "delta:2"]),
                    ("norms", ["norms", "@" + path, "--direction", spec])):
                name = f"cli {argv[0]} {command} poly{i} {spec}"
                ops.append(make_op(name, lambda argv=argv: run_cli(argv), ref, True,
                                   _cli_poly_oracle(name, poly, spec, command)))
    R = s["cli_lattice_R"]
    fixed = [
        (["cf", "const:e", "--depth", "300"], _cf_oracle, ("e", 300)),
        (["cf", "const:pi", "--depth", "300", "--bound", "100"], _cf_oracle, ("pi", 300, 100)),
        (["lattice", "--direction", E_DIR, "--radius", str(R)], _cli_lattice_oracle, (E_DIR, R)),
        (["ratio", "liouville:4", "--direction", "dir:[1, liouville:10]", "--preset", "delta:2"],
         _exit_zero, ()),
    ]
    for argv, make_oracle, args in fixed:
        name = "cli " + " ".join(argv)
        ops.append(make_op(name, lambda argv=argv: run_cli(argv), ref, False,
                           make_oracle(name, *args)))
    return ops


WORKLOADS = {
    "report": report_ops,
    "lattice": lattice_ops,
    "diffusion": diffusion_ops,
    "interval": interval_ops,
}
