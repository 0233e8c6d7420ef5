"""Golden CLI outputs: fixed `dirp` commands must print the same bytes in
fresh processes under different hash seeds.

The `dirp lattice` digests were recorded before the lattice search moved
to column windows, the others (and the d = 1 lattice command) before the
lattice searches shared one certification loop, and the four 60-term
polynomial commands before certified sums became one n-ary node, and the
three exact `cf` commands (a negative rational, a quadratic with negative
b, a finite `cf:` literal) before the exact expansion became an integer
(P, Q) recurrence, and the three 60-term commands on (1, e), (1, Liouville)
and (1, dec:0.5) before the interval kernels rounded from integer
numerators, and the three p = 1 and p = inf `diffusion` fits before the
witness loop skipped the inverse FFTs that a spectral lower bound rules
out; a change to one needs a CHANGES.md line that says why.
"""

import hashlib
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
# 60 terms, |k_i| <= 40, dyadic coefficients; drawn from
# numpy.random.default_rng(60) the way perfbench's interval workload draws
POLY60 = "@" + str(Path(__file__).resolve().parent / "data" / "poly60.json")

GOLDEN = {
    "phi R=2000": (
        ["--direction", "dir:[1, quad:(1+sqrt5)/2]", "--radius", "2000"],
        "fb080abbc6863f4340d97d335b782f7b894eb66a22a1fb301613d44415a503eb"),
    "(1,sqrt2,sqrt3) sigma=1/2 R=60": (
        ["--direction", "dir:[1, quad:sqrt2, quad:sqrt3]", "--sigma", "1/2", "--radius", "60"],
        "6fd2b69c47b9ce3ac5833f3a2e60e4bb91cd3c68ee8d344c89b11a668515c446"),
    "(1,e) R=500": (
        ["--direction", "dir:[1, const:e]", "--radius", "500"],
        "c06bfa37b6a453c80159c898ed8c3c824dbba60b56f00eafe0550240bf15f380"),
    "phi max norm R=300": (
        ["--direction", "dir:[1, quad:(1+sqrt5)/2]", "--radius", "300", "--norm", "max"],
        "34549a62d91e77a4759da1e6f063290b1da4dc034e6f1cf7e338866641aa8bd7"),
    "system (sqrt2,sqrt3) R=40": (
        ["--system", "dir:[quad:sqrt2, quad:sqrt3]", "--radius", "40"],
        "b3dd3c07c7062334232835b3b43daa999ea4e00c8e4de310225761cb062d0667"),
    "rat:3/7 R=10 (d = 1)": (
        ["--direction", "rat:3/7", "--radius", "10"],
        "d4027e85d629997066854c58561dfd95a95bad9738fb3579280177a87b5ba116"),
}

SUBCOMMANDS = {
    "cf golden ratio": (
        ["cf", "quad:(1+sqrt5)/2", "--depth", "30"],
        "9c4acf58a8f2af8909a148387279df8124955bcc998f9a906e306796b92682ea"),
    "cf rat:-355/113": (
        ["cf", "rat:-355/113", "--depth", "10"],
        "657e548dec9eff55d7aa5d47f6102c9f16936a3a58a53ba26ec8f64e62fbb1d1"),
    "cf (1-sqrt5)/2 (negative b, preperiod 2)": (
        ["cf", "quad:(1-sqrt5)/2", "--depth", "30"],
        "e8f173e9f098e1b6867b5537f33a0673b242eeeed0a37ca388209b560b79aacd"),
    "cf cf:[1,2,2,2]": (
        ["cf", "cf:[1,2,2,2]"],
        "27861df874e86817f91be83f46d8f5b4011c7a5cf51e13e9149b5e3c941eea9c"),
    "cf pi bound 50": (
        ["cf", "const:pi", "--depth", "100", "--bound", "50"],
        "8340546a2f1c15b06217fe105e4aa9e9ae980542c2bb605d2c6ba62d76a7cc0f"),
    "norms fib:10": (
        ["norms", "fib:10", "--direction", "dir:[1, quad:(1+sqrt5)/2]"],
        "fc2c163a6d9c4c1fa181572e0b52a40b8e81d37791b8205d54f97d03f952fda0"),
    "ratio liouville delta:2": (
        ["ratio", "liouville:3", "--direction", "dir:[1, liouville:10]", "--preset", "delta:2"],
        "e929840ef79824874ae4cbf06422f8470aa0c109858246aa5acddc0a3318dbc9"),
    "ratio cwave (1,e)": (
        ["ratio", "cwave:6", "--direction", "dir:[1, const:e]"],
        "f507ec1f4f576b7d2aca3c1942c66e4088afce9433537f2ee1ce7c4ccead8f5c"),
    "diffusion uniform p=2": (
        ["diffusion", "uniform:0:1/2", "--p", "2"],
        "11fd477aa531f17f08dcc3285b7b0679c0eb41563391f1ffb69f960b0310edad"),
    "ratio thm1 poly60 (pi,sqrt2)": (
        ["ratio", POLY60, "--direction", "dir:[const:pi, quad:sqrt2]", "--preset", "thm1"],
        "f3d47406ebeb968257fd4ade10964937f25f04ffbbdd1acebf2deb42a24aa8b1"),
    "ratio thm1 poly60 (1,dec e)": (
        ["ratio", POLY60, "--direction", "dir:[1, dec:2.718281828459045]", "--preset", "thm1"],
        "52d643d609479eba90d2ddc99f729ef0a06d39f282e44b2e0e61e69444b15281"),
    "norms poly60 (pi,sqrt2)": (
        ["norms", POLY60, "--direction", "dir:[const:pi, quad:sqrt2]"],
        "f1971b69c08eeba4385e2dab23616f3a58253cef2c70d82ef20a10e5da7f4ee2"),
    "norms poly60 (1,dec e)": (
        ["norms", POLY60, "--direction", "dir:[1, dec:2.718281828459045]"],
        "72e67bb789bc96e9ee238dd26a5db7a0005ffcd6488afc05ea4e7d808e4bf613"),
    # a refinable constant, and pow_frac through nth_root_interval
    "ratio delta:2 poly60 (1,e)": (
        ["ratio", POLY60, "--direction", "dir:[1, const:e]", "--preset", "delta:2"],
        "52b1faa510487e5f3167bf7d9540fc9bef06512155ff330108f41cca93e5c4b2"),
    "norms poly60 (1,liouville:10)": (
        ["norms", POLY60, "--direction", "dir:[1, liouville:10]"],
        "a98687f499f8ec3fcbff4012c5093b7eafb9e5ff570747c51cc4882b32c38c64"),
    # <k, alpha> straddles 0 at k = (-22, 38) and (20, -39), since dec:0.5 is
    # only known to +-0.1: its square multiplies two intervals across 0
    "norms poly60 (1,dec:0.5)": (
        ["norms", POLY60, "--direction", "dir:[1, dec:0.5]"],
        "bbadf1a7c207a167d29c28dc62b3f5c4b47526a9b38f3a0c6c8ca5077120be0d"),
    # the p = 1 and p = inf witness families: a drifted law, a symmetric law,
    # and M = 8192 under another witness seed
    "diffusion drifted p=1": (
        ["diffusion", "uniform:0:1/2", "--p", "1"],
        "d1d9da248e5d50f92be53c2203e9c7636b0dc4fc2a7cd4bbdf3dd879cca8e989"),
    "diffusion symmetric p=inf": (
        ["diffusion", "uniform:-1/2:1/2", "--p", "inf"],
        "0adf781e5c627a636638ac3e14fb7ddfeb52410ee129231765e9a7511b5a4a33"),
    "diffusion drifted p=inf M=8192 seed=7": (
        ["diffusion", "uniform:0:1/2", "--p", "inf", "--grid", "8192", "--seed", "7"],
        "43380fa86b7a55eb0b5913499a2ca1aed31985874f1ed99c96be12adfe28f4d4"),
}


def _second_seed() -> int:
    """The outer PYTHONHASHSEED when it is an integer other than 0, else 1:
    a suite run under PYTHONHASHSEED=777 runs dirp under 0 and 777."""
    outer = os.environ.get("PYTHONHASHSEED", "")
    return int(outer) if outer.isdigit() and int(outer) != 0 else 1


SEEDS = (0, _second_seed())


def _run(argv, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed),
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "dirp.cli", *argv],
                         env=env, capture_output=True, check=True, timeout=300)
    return hashlib.sha256(out.stdout).hexdigest()


def _run_both(argv):
    """_run under the two SEEDS, the two processes side by side."""
    with ThreadPoolExecutor(2) as pool:
        return list(pool.map(lambda seed: _run(argv, seed), SEEDS))


@pytest.mark.parametrize("name", GOLDEN)
def test_lattice_output_is_golden_across_processes(name):
    args, digest = GOLDEN[name]
    assert _run_both(["lattice", *args]) == [digest, digest]


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_subcommand_output_is_golden_across_processes(name):
    argv, digest = SUBCOMMANDS[name]
    assert _run_both(argv) == [digest, digest]
