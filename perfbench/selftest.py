"""Self-test of the benchmark (not part of the repository's test suite).

    python3 perfbench/selftest.py        # from the repository root, ~3 minutes

Runs every workload at its smallest size, untraced and traced, and checks
that each metric BENCHMARK.json names is printed with its unit; that a
perturbed reference value makes operations fail; that the traced work
counts repeat exactly; and that the launcher refuses to run without the
dirp sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)

EXACT_COUNTS = ("diophantine.enumerated", "diophantine.certified_candidates", "spectral.terms",
                "quadratic.constructed", "certified.max_enclosure_digits",
                "diffusion.apply_markov_calls", "diffusion.cesaro_steps")


def bench(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", str(trace), "--size", "small", *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in (w["name"] for w in BENCH["workloads"]):
            for trace, declared in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    out = result(bench(workload, trace))
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertGreaterEqual(out["attempted"], 1)
                    self.assertEqual(out["failed"], 0)
                    self.assertEqual({m["name"]: m["unit"] for m in declared},
                                     {k: v["unit"] for k, v in out["metrics"].items()})
                    for m in out["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))

    def test_perturbed_reference_fails_operations(self):
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            ref = json.load(fh)
        key = "lattice_min dir:[quad:sqrt2, 1] sigma=1 R=100"
        ref["fixed"][key]["argmin"] = [2, -1]
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            path = os.path.join(tmp, "reference.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(ref, fh)
            out = result(bench("lattice", 0, "--reference", path))
        self.assertFalse(out["correct"])
        self.assertGreater(out["failed"], 0)

    def test_traced_counts_repeat_exactly(self):
        for workload in ("lattice", "diffusion", "interval"):
            with self.subTest(workload=workload):
                first, second = (result(bench(workload, 1))["metrics"] for _ in range(2))
                for name in EXACT_COUNTS:
                    self.assertEqual(first[name]["value"], second[name]["value"], name)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lattice",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
