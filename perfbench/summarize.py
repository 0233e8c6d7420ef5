"""Summarize result files written by ``run.py --out`` into one BENCH file.

    python3 perfbench/summarize.py OUT.json RESULT.json [RESULT.json ...]

Groups results by workload.  For each end-to-end metric of the untraced
runs it records every value, the median and the quartiles (Python's
``statistics.quantiles(n=4)``), and the spread: the inter-quartile
distance as a share of the median.  It also gives the median seconds of
each operation over the untraced passes.  Traced runs contribute their
per-layer metrics (median over runs).  Prints one line per workload and
metric.
"""

from __future__ import annotations

import json
import statistics
import sys


def summarize(paths: list[str]) -> dict:
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            runs.append(json.load(fh))
    out = {"environment": runs[0]["environment"], "workloads": {}}
    for run in runs:
        w = out["workloads"].setdefault(run["workload"], {
            "seeds": [], "attempted": 0, "failed": 0, "end_to_end": {}, "per_layer": {},
            "op_seconds": {}})
        w["attempted"] += run["attempted"]
        w["failed"] += run["failed"]
        key = "per_layer" if run["trace"] else "end_to_end"
        if not run["trace"]:
            w["seeds"].append(run["seed"])
            for p in run["passes"]:
                for op, sec in p["op_seconds"].items():
                    w["op_seconds"].setdefault(op, []).append(sec)
        for name, m in run["metrics"].items():
            w[key].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for w in out["workloads"].values():
        w["ops_failed_ratio"] = w["failed"] / w["attempted"] if w["attempted"] else None
        for m in w["end_to_end"].values():
            v = m["values"]
            m["median"] = statistics.median(v)
            if len(v) >= 2:
                q1, _, q3 = statistics.quantiles(v, n=4)
                m["q1"], m["q3"] = q1, q3
                m["spread"] = (q3 - q1) / m["median"] if m["median"] else None
        for m in w["per_layer"].values():
            m["median"] = statistics.median(m["values"])
        w["op_seconds"] = {op: statistics.median(v) for op, v in w["op_seconds"].items()}
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    out = summarize(argv[1:])
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for name, w in out["workloads"].items():
        print(f"{name}: {len(w['seeds'])} untraced runs; "
              f"{w['failed']}/{w['attempted']} operations failed over all runs")
        for metric, m in w["end_to_end"].items():
            spread = m.get("spread")
            print(f"  {metric:12s} median {m['median']:10.4f} {m['unit']:3s} "
                  f"spread {'-' if spread is None else f'{spread:.4f}'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
