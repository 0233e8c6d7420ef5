"""Benchmark launcher for dirp.

    python3 perfbench/run.py --workload report|lattice|diffusion|interval \\
        --seed N --seconds S --trace 0|1 [--out result.json]

Run from the repository root.  Every pass runs in a fresh worker process
(``worker.py``) with ``src`` on PYTHONPATH and one BLAS/OpenMP thread,
so ``setup_s`` and ``peak_rss_mb`` belong to that pass alone.  With ``--trace 0`` passes repeat until ``--seconds`` have gone
(at least one), and the end-to-end metrics are medians over passes; a
few extra set-up-only processes add samples to ``setup_s``.  With
``--trace 1`` one untraced and one traced pass run, and the per-layer
metrics come from the traced one.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DEADLINE_S = 170            # every run ends well inside 180 s
SETUP_SAMPLES = 3           # set-up-only processes per untraced run
BLAS_THREADS = 1            # at most nproc; see worker_env

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


class BenchError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    """Worker environment: dirp's sources on the path and one BLAS/OpenMP
    thread.  On a small shared machine a second BLAS thread made the
    lattice passes 10-25% noisier without making them faster."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": nproc(), "blas_threads": BLAS_THREADS,
            "cpu_model": cpu_model,
            "git_commit": git_commit(), "src_lines": src_lines}


def run_worker(args, started: float, *extra: str) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--reference", args.reference, *extra]
    remaining = DEADLINE_S - (time.perf_counter() - started)
    if remaining <= 0:
        raise BenchError("out of time before the next pass")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("report", "lattice", "diffusion", "interval"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", help="also write the full result, with environment, here")
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small: reduced inputs, for the self-test")
    ap.add_argument("--reference", default=os.path.join(HERE, "reference.json"))
    args = ap.parse_args(argv)
    args.reference = os.path.abspath(args.reference)

    if not os.path.isfile(os.path.join(ROOT, "src", "dirp", "__init__.py")):
        print(f"error: no dirp sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        if args.trace:
            untraced = run_worker(args, started)
            traced = run_worker(args, started, "--trace", "1",
                                "--untraced-wall", repr(untraced["wall_s"]))
            passes = [untraced, traced]
            metrics = {name: {"value": traced["layers"][name], "unit": unit}
                       for name, unit in tracing.LAYER_METRICS}
        else:
            passes = []
            while not passes or time.perf_counter() - started < args.seconds:
                passes.append(run_worker(args, started))
            setups = [p["setup_s"] for p in passes]
            setups += [run_worker(args, started, "--setup-only")["setup_s"]
                       for _ in range(SETUP_SAMPLES)]
            values = {key: statistics.median(p[key] for p in passes)
                      for key in ("wall_s", "cpu_s", "peak_rss_mb")}
            values["setup_s"] = statistics.median(setups)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [q for p in passes for q in p["problems"]]
    for q in problems[:20]:
        print(f"FAILED {q}", file=sys.stderr)
    env = environment()
    if args.out:
        spans = passes[-1].pop("spans", None) if args.trace else None
        result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "size": args.size, "environment": env,
                  "attempted": attempted, "failed": failed,
                  "ops_failed_ratio": failed / attempted, "metrics": metrics,
                  "passes": passes, "spans": spans}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"environment={json.dumps(env, sort_keys=True)}")
    print(f"# ops_failed_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
