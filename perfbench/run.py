"""Benchmark of the onebit-tracking CLI.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run prints the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md in this
directory for the workloads and the meaning of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 7
TIME_LIMIT_S = 170.0

# (metric, unit) of the untraced run; failed operations are reported as
# ok_frac = 1 - failed_frac, because the benchmark's metrics must never be 0
END_TO_END = [
    ("wall_s", "s"),
    ("block_updates_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
]


def _env() -> dict:
    env = dict(os.environ)
    env.update(workloads.THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _worker(args: list, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + args,
                          cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {args[:3]} exited with {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "onebit_tracking", "__init__.py")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2

    start = time.perf_counter()

    def worker(worker_args):
        return _worker(worker_args, TIME_LIMIT_S - (time.perf_counter() - start))

    def probe_setup(count):
        return [worker(["setup", "--workload", args.workload])["setup_s"]
                for _ in range(0 if args.trace else count)]

    outdir = os.path.join(ROOT, ".bench_run", f"{args.workload}-{os.getpid()}")
    try:
        # set-up probes before and after the workload, so that their median
        # sees the same machine as the workload does
        setup = probe_setup(SETUP_PROBES // 2)
        res = worker(["run", "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--outdir", outdir])
        setup += probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    v = res["versions"]
    print(f"workload {args.workload}  seed {args.seed}  nproc {os.cpu_count()}  "
          f"python {v['python']}  numpy {v['numpy']}  scipy {v['scipy']}  "
          + " ".join(f"{k}={val}" for k, val in workloads.THREAD_ENV.items()))
    for name, ok, detail in res["checks"]:
        print(f"check {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    for line in res["info"]:
        print(f"info: {line}")
    failed_frac = res["failed"] / res["attempted"]
    print(f"failed_frac = {failed_frac:.6g} ({res['failed']} of {res['attempted']} "
          f"operations: one iteration's commands and trials, and the checks)")

    if args.trace:
        table, values = tracer.LAYER_METRICS, res["layers"]
        print(f"traced iterations: {len(res['traced_walls'])}, "
              f"untraced: {len(res['walls'])}")
    else:
        walls = res["walls"]
        wall = statistics.median(walls)
        updates = workloads.block_updates(args.workload, res.get("blocks", 0))
        table = END_TO_END
        values = {"wall_s": wall, "block_updates_per_s": updates / wall,
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": res["maxrss_kb"] / 1024.0,
                  "ok_frac": 1.0 - failed_frac}
        print(f"iterations: {len(walls)}  wall_s min {min(walls):.4f} "
              f"max {max(walls):.4f}  setup probes {len(setup)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in table}
    for name, unit in table:
        print(f"{name} = {values[name]:.6g} {unit}")
    correct = all(ok for _name, ok, _detail in res["checks"]) and res["exit_codes"] == [0]
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
