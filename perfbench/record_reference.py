"""Record perfbench/reference.json: every operation's output at seed 1234,
for both sizes.  Run from the repository root at a commit whose outputs
are trusted:

    python3 perfbench/record_reference.py

Recording stops without writing if any oracle check fails.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from worker import check_results, run_pass  # noqa: E402


def main() -> int:
    seed = workloads.REFERENCE_SEED
    data = {"fixed": {}, "seed_1234": {size: {} for size in workloads.SIZES}}
    problems = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=os.getcwd()) as workdir:
        for size in workloads.SIZES:
            for name, build in workloads.WORKLOADS.items():
                if name == "report" and size != "full":
                    continue                    # the report has one size
                ops = build(seed, size, workloads.Reference({}, seed, size), workdir)
                results, wall, _, _ = run_pass(ops)
                _, failed, found = check_results(ops, results, workloads.normalize)
                print(f"{size:5s} {name:9s} {wall:7.2f} s  {failed} failed", file=sys.stderr)
                problems += found
                for op, (payload, _) in zip(ops, results):
                    target = data["seed_1234"][size] if op.seeded else data["fixed"]
                    target[op.name] = workloads.normalize(payload)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
