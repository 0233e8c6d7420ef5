"""One benchmark pass in a fresh process.

Run by ``run.py`` with ``src`` on PYTHONPATH.  Imports dirp and builds the
workload's inputs (timed together as ``setup_s``), runs every operation
once (``wall_s``, ``cpu_s``), then checks every result against the
reference file and the oracles.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(ops, tracer=None):
    """Run every op once; returns (payloads or exception texts, wall, cpu,
    seconds per op)."""
    results, op_seconds = [], {}
    if tracer is not None:
        tracer.enabled = True
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    for op in ops:
        start = time.perf_counter()
        try:
            results.append((op.run(), None))
        except Exception as exc:     # an op that raises is a failed op, not a crash
            results.append((None, f"{type(exc).__name__}: {exc}"))
        op_seconds[op.name] = time.perf_counter() - start
    wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
    if tracer is not None:
        tracer.enabled = False
    return results, wall, cpu, op_seconds


def check_results(ops, results, normalize):
    """(attempted, failed, problems) over every sub-operation."""
    attempted = failed = 0
    problems = []
    for op, (payload, error) in zip(ops, results):
        if error is not None:
            checked = {op.name: [f"raised {error}"]}
        else:
            try:
                checked = op.check(normalize(payload))
            except Exception as exc:   # a malformed payload fails its op
                checked = {op.name: [f"check raised {type(exc).__name__}: {exc}"]}
        for sub, found in checked.items():
            attempted += 1
            if found:
                failed += 1
                problems.append(f"{sub}: {'; '.join(found[:3])}")
    return attempted, failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--reference", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--untraced-wall", type=float, default=0.0,
                    help="wall_s of the untraced pass, for trace.overhead_s")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    with open(args.reference, encoding="utf-8") as fh:
        reference = json.load(fh)

    start = time.perf_counter()
    import workloads                  # imports dirp
    import_s = time.perf_counter() - start

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=os.getcwd())
    try:
        start = time.perf_counter()
        ref = workloads.Reference(reference, args.seed, args.size)
        ops = workloads.WORKLOADS[args.workload](args.seed, args.size, ref, workdir)
        setup_s = import_s + time.perf_counter() - start
        out = {"setup_s": setup_s}
        if not args.setup_only:
            tracer = None
            if args.trace:
                import tracing
                tracer = tracing.Tracer()
                tracing.install(tracer)
            results, wall, cpu, op_seconds = run_pass(ops, tracer)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            attempted, failed, problems = check_results(ops, results, workloads.normalize)
            out.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=peak_kb / 1024,
                       attempted=attempted, failed=failed, problems=problems[:20],
                       op_seconds=op_seconds)
            if tracer is not None:
                out["layers"] = tracing.layer_metrics(tracer, wall - args.untraced_wall)
                out["spans"] = tracer.spans
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
