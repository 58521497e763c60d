"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py

Runs ``run.py --trace 0`` for seeds 0-9 on every workload, interleaving
the workloads, each run as long as ``run_seconds`` in BENCHMARK.json,
and prints for every end-to-end metric its median and the
distance between the first and third quartile as a share of the median,
next to the metric's bound from BENCHMARK.json.  A benchmark is steady
when every spread except setup_s is below a third of its bound.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(10)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = str(bench["run_seconds"])

    values = {w: {} for w in workloads.NAMES}
    for seed in SEEDS:
        for w in workloads.NAMES:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"seed {seed} {w}: " + " ".join(
                f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()),
                flush=True)

    for w, metrics in values.items():
        for name, vals in metrics.items():
            med = statistics.median(vals)
            q1, _q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]
            flag = "" if name == "setup_s" or spread < bound / 3 else "  WIDE"
            print(f"{w:14s} {name:20s} median {med:12.6g}  spread {spread:7.2%}"
                  f"  bound {bound:.0%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
