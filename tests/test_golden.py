"""Golden CLI outputs: fixed `dirp lattice` commands must print the same
bytes in fresh processes under different hash seeds.

The digests were recorded before the lattice search moved to column
windows; a change to one needs a CHANGES.md line that says why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

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
}


def _run(args, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed),
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "dirp.cli", "lattice", *args],
                         env=env, capture_output=True, check=True, timeout=300)
    return hashlib.sha256(out.stdout).hexdigest()


@pytest.mark.parametrize("name", GOLDEN)
def test_lattice_output_is_golden_across_processes(name):
    args, digest = GOLDEN[name]
    assert [_run(args, seed) for seed in (0, 1)] == [digest, digest]
