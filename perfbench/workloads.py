"""The benchmark workloads: CLI commands, scale and pinned environment.

Each workload is a list of ``onebit-tracking`` command lines.  Only the
track workloads use the seed; the analytic commands are deterministic.
"""

from __future__ import annotations

import os

# Thread pools of numpy's BLAS/FFT back ends, pinned for every workload
# process.  The CLI runs with --workers 1, so one thread per pool is the
# configuration that is measured (and it is at most nproc on any host).
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# (trials, realizations) of the reduced track runs
TRACK_SCALE = {
    "track-ranging": (2, 4),
    "track-mobile": (4, 5),
}

# scenarios each workload builds; setup_s times importing the package and
# building these in a fresh process
SCENARIOS = {
    "track-ranging": ("ranging",),
    "track-mobile": ("mobile",),
    "bounds-mobile": ("mobile", "ranging"),
}

NAMES = tuple(SCENARIOS)

# blocks and beta points of bounds-mobile's `sweep --finite-k` command
FINITE_K = 1000
SWEEP_POINTS = 3


def commands(workload: str, seed: int, outdir: str) -> list[tuple[str, list[str]]]:
    """(output file name, CLI argv) for every command of one iteration."""
    def out(name):
        return ["--output", os.path.join(outdir, name)]

    if workload in TRACK_SCALE:
        trials, realizations = TRACK_SCALE[workload]
        scenario = workload.split("-", 1)[1]
        return [("track.csv",
                 ["track", "--scenario", scenario, "--trials", str(trials),
                  "--realizations", str(realizations), "--seed", str(seed),
                  "--workers", "1"] + out("track.csv"))]
    if workload == "bounds-mobile":
        return [
            ("bound.csv", ["bound", "--scenario", "mobile"] + out("bound.csv")),
            ("sweep_finite_k.csv",
             ["sweep", "--scenario", "mobile", "--finite-k", str(FINITE_K),
              "--beta-min", "1e-3", "--beta-max", "1e-1",
              "--points", str(SWEEP_POINTS)]
             + out("sweep_finite_k.csv")),
            ("sweep.csv", ["sweep", "--scenario", "mobile"] + out("sweep.csv")),
            ("transient.csv",
             ["transient", "--scenario", "ranging"] + out("transient.csv")),
            ("fisher.csv",
             ["fisher", "--scenario", "mobile", "--bayes"] + out("fisher.csv")),
        ]
    raise ValueError(f"unknown workload {workload!r}; known: {NAMES}")


def block_updates(workload: str, blocks: int) -> int:
    """Block updates of one iteration; `blocks` is the scenario's block count.

    Track workloads: particle-filter updates, 2 receivers x P x R x K,
    with K the blocks of the track CSV.
    bounds-mobile: bound-recursion updates of both receivers over the
    mobile scenario's blocks (`bound`) and over FINITE_K blocks for each
    beta of `sweep --finite-k`; each 1-bit update has its own expected
    Fisher quadrature.
    """
    if workload in TRACK_SCALE:
        trials, realizations = TRACK_SCALE[workload]
        return 2 * trials * realizations * blocks
    return 2 * (blocks + SWEEP_POINTS * FINITE_K)
