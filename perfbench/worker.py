"""Workload process of the benchmark; ``run.py`` starts it.

    worker.py setup --workload W
        Import the package and build the workload's scenarios; print the
        seconds this took.
    worker.py run --workload W --seed S --seconds T --trace 0|1 --outdir D
        Run the workload's CLI commands in this process, repeatedly, for
        about T seconds, then check the outputs; print one JSON result.
        With --trace 1 untraced and traced iterations alternate, and the
        per-layer metrics come from the traced ones.

Only light modules are imported at the top, so that ``setup`` times the
package import from a cold interpreter.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

import workloads

MIN_ITERATIONS = 3


def setup(workload: str) -> dict:
    start = time.perf_counter()
    import onebit_tracking
    for name in workloads.SCENARIOS[workload]:
        onebit_tracking.builtin_scenario(name)
    return {"setup_s": time.perf_counter() - start}


def _call_cli(main, argv) -> int:
    """Exit code of one CLI command; a traceback counts as exit code 1."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def _discarded(track_csv: str) -> int:
    """Discarded trials reported by a track CSV; 0 if it was not written."""
    if not os.path.exists(track_csv):
        return 0
    with open(track_csv, encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        first = fh.readline().strip().split(",")
    return int(first[header.index("discarded")])


def tally(exit_codes, trials_attempted, trials_discarded, checks_run):
    """(attempted, failed) operations of one iteration plus the output checks.

    The operations are the iteration's CLI commands and Monte-Carlo
    trials, and every check.  Counting one iteration, not all of them,
    keeps the weight of a failed check independent of how many
    iterations fit in the run.
    """
    attempted = len(exit_codes) + trials_attempted + len(checks_run)
    failed = (sum(code != 0 for code in exit_codes) + trials_discarded
              + sum(not c.ok for c in checks_run))
    return attempted, failed


def run(workload: str, seed: int, seconds: float, trace: bool, outdir: str) -> dict:
    import numpy
    import scipy
    from onebit_tracking import builtin_scenario, cli

    import checks
    import tracer

    os.makedirs(outdir, exist_ok=True)
    cmds = workloads.commands(workload, seed, outdir)
    paths = [os.path.join(outdir, fname) for fname, _ in cmds]
    originals = tracer.site_objects()

    walls, traced_walls, layers, digests = [], [], [], set()
    # (exit codes, trials attempted, trials discarded) of every iteration
    operations = []

    def iteration(traced: bool) -> None:
        tr = tracer.Tracer() if traced else None
        if traced:
            tracer.install(tr)
        exit_codes = []
        try:
            start = time.perf_counter()
            for _fname, argv in cmds:
                with tr.span("cli") if traced else contextlib.nullcontext():
                    exit_codes.append(_call_cli(cli.main, argv))
            wall = time.perf_counter() - start
        finally:
            if traced:
                tr.remove()
        digest = hashlib.sha256()
        for path in paths:
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    digest.update(fh.read())
        digests.add(digest.hexdigest())
        trials, discarded = 0, 0
        if workload in workloads.TRACK_SCALE:
            processes, realizations = workloads.TRACK_SCALE[workload]
            trials = processes * realizations
            discarded = _discarded(paths[0])
        operations.append((exit_codes, trials, discarded))
        if traced:
            traced_walls.append(wall)
            written = sum(os.path.getsize(p) for p in paths if os.path.exists(p))
            layers.append(tracer.layer_metrics(tr, written))
        else:
            walls.append(wall)

    # Stop before the next round would run past the time budget, so that a
    # run never measures much longer than `seconds`.
    t0 = time.perf_counter()
    rounds = []
    while True:
        start = time.perf_counter()
        iteration(False)
        if trace:
            iteration(True)
        rounds.append(time.perf_counter() - start)
        elapsed = time.perf_counter() - t0
        if (len(rounds) >= (1 if trace else MIN_ITERATIONS)
                and elapsed + statistics.median(rounds) > seconds):
            break

    checks_run, info = checks.output_checks(workload, seed, outdir)
    checks_run.append(checks.Check("outputs identical across iterations",
                                   len(digests) == 1, f"{len(digests)} distinct"))
    result = {}
    if trace:
        restored = all(a is b for a, b in zip(tracer.site_objects(), originals))
        checks_run.append(checks.Check("wrappers removed after traced run", restored))
        counts = [tuple(lm[name] for name in tracer.DETERMINISTIC) for lm in layers]
        checks_run.append(checks.Check("deterministic counters repeat",
                                       len(set(counts)) == 1,
                                       f"{len(counts)} traced iterations"))
        metrics = {name: statistics.median(lm[name] for lm in layers)
                   for name in layers[0]}
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(walls))
        result["layers"] = metrics

    # every iteration does the same work, so the one with the most failed
    # operations stands for all of them
    worst = max(operations, key=lambda op: sum(c != 0 for c in op[0]) + op[2])
    attempted, failed = tally(*worst, checks_run)
    if workload not in workloads.TRACK_SCALE:
        # the blocks of `bound --scenario mobile`
        result["blocks"] = builtin_scenario("mobile").blocks
    elif os.path.exists(paths[0]):
        _header, rows = checks.read_csv(paths[0])
        result["blocks"] = len(rows) - 1
    result.update({
        "walls": walls,
        "traced_walls": traced_walls,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": attempted,
        "failed": failed,
        "exit_codes": sorted({c for codes, _t, _d in operations for c in codes}),
        "checks": [[c.name, c.ok, c.detail] for c in checks_run],
        "info": info,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    })
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = setup(args.workload)
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.outdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
