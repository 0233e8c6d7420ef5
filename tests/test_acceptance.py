"""Release gate: every criterion of the verification report, at its stated
tolerance, with one pass/fail line per criterion.

The heavy rows (seeded populations, M = 4096 scaling fits) are computed
once per module through build_report; each test asserts its own row and
re-checks the headline numbers independently where that is cheap.
"""

import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dirp.diffusion import DEFAULT_SEED
from dirp.report import build_report, report_to_bytes

# sha256 of report_to_bytes(build_report(seed=1234)) with default precision
REPORT_SHA256 = "46638ff74c1bdaaba2b1a7bbf48a0c1dd37d225f97197f48d922de23d7101b86"


@pytest.fixture(scope="module")
def fresh_process():
    """The report built in a new interpreter under another hash seed.  It is
    started before the in-process build of `report`, so the two overlap."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONHASHSEED="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import hashlib; from dirp.report import build_report, report_to_bytes; "
            f"print(hashlib.sha256(report_to_bytes(build_report({DEFAULT_SEED})))"
            ".hexdigest())")
    proc = subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    yield proc
    proc.kill()
    proc.communicate()


@pytest.fixture(scope="module")
def report(fresh_process):
    return build_report(seed=DEFAULT_SEED)


def row(report, n):
    r = next(r for r in report["rows"] if r["criterion"] == n)
    status = "PASS" if r["pass"] else "FAIL"
    print(f"criterion {n:2d} {r['name']:<28} {status}")
    return r


def test_criterion_01_fibonacci_ratios_converge_to_golden_floor(report):
    r = row(report, 1)
    assert r["limit_gap_ok"], "ratio at n=20 must be within 1e-6 of the limit"
    assert r["closed_form_ok"], "closed form and direct evaluation must agree to 1e-30"
    assert abs(float(r["ratio_20"]) - 0.8506508) < 1e-6
    assert r["pass"]


def test_criterion_02_lattice_minimum_window_and_monotonicity(report):
    r = row(report, 2)
    assert Fraction("0.8506508") <= Fraction(r["minima"]["1000"]) <= Fraction("0.8507")
    assert r["monotone_ok"]
    assert r["pass"]


def test_criterion_03_liouville_directional_collapse(report):
    r = row(report, 3)
    assert r["window_ok"], "directional ratio must lie in [0.999, 1.001]e-18"
    assert r["thm1_ratio_ok"], "weighted ratio must be <= 1e-11"
    assert r["l2_is_pi_sqrt2"], "the two-term sine norm must be exactly pi sqrt2"
    assert r["grad_bound_ok"], "gradient ratio must be <= 6e6"
    assert r["pass"]


def test_criterion_04_sqrt2_exhaustive_floor(report):
    r = row(report, 4)
    assert r["argmin"] == [1, -1]
    assert abs(float(r["minimum"]) - (2 - math.sqrt(2))) < 1e-12
    assert r["exact_value_ok"] and r["above_one_third"]
    assert r["pass"]


def test_criterion_05_half_mass_population(report):
    r = row(report, 5)
    assert r["samples"] == 1000 and r["failures"] == 0
    assert r["pass"]


def test_criterion_06_cutoff_chain_population(report):
    r = row(report, 6)
    assert r["samples"] == 1000 and r["failures"] == 0
    assert r["pass"]


def test_criterion_07_delta_exponent_table(report):
    r = row(report, 7)
    assert r["pairs"] == {"1": ["1/2", "1/2"], "7": ["7/8", "1/8"],
                          "13/5": ["13/18", "5/18"]}
    assert r["pass"]


def test_criterion_08_markov_constants(report):
    r = row(report, 8)
    assert r["values"]["1"].startswith("2.2360679")
    assert r["values"]["2"].startswith("2.8284271")
    assert r["values"]["3"].startswith("2.9732137")
    assert r["pass"]


def test_criterion_09_continued_fraction_diagnostics(report):
    r = row(report, 9)
    assert r["phi_all_ones"] and r["sqrt2_periodic_twos"]
    assert r["e_certified_depth"] >= 20 and r["e_max_quotient"] >= 10
    assert r["pass"]


def test_criterion_10_diffusion_scaling_slopes(report):
    r = row(report, 10)
    assert 1.9 <= r["symmetric"]["slope"] <= 2.1
    assert 0.9 <= r["drifted"]["slope"] <= 1.1
    assert r["symmetric"]["M"] == 4096
    assert r["pass"]


def test_criterion_11_taylor_limit_within_two_percent(report):
    r = row(report, 11)
    assert r["relative_error"] <= 0.02
    assert abs(r["target_per_unit_l2"] - 6.5797) < 1e-3
    assert r["pass"]


def test_criterion_12_contraction_inequalities_population(report):
    r = row(report, 12)
    assert r["triples"] == 200 and r["failures"] == 0
    assert r["worst_margin"] <= 1e-9
    assert r["pass"]


def test_criterion_13_density_floor_refinement_stable(report):
    r = row(report, 13)
    assert r["floor_M2048"] > 0
    assert r["relative_change"] < 0.05
    assert r["pass"]


def test_criterion_14_byte_identical_reports(report):
    r = row(report, 14)
    assert r["probe_bytes_equal"]
    # the full artifact, rebuilt from scratch with the same config, must be
    # byte-identical to the fixture's serialization
    again = build_report(seed=DEFAULT_SEED)
    assert report_to_bytes(again) == report_to_bytes(report)
    assert hashlib.sha256(report_to_bytes(report)).hexdigest() == REPORT_SHA256
    assert r["pass"]


def test_report_bytes_are_golden_in_a_fresh_process(fresh_process):
    # a different hash seed in a new interpreter must give the same artifact
    stdout, stderr = fresh_process.communicate(timeout=600)
    assert fresh_process.returncode == 0, stderr
    assert stdout.strip() == REPORT_SHA256
