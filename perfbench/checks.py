"""Output checks for the benchmark workloads, and the reference recorder.

No check depends on how the package lays out its random streams, so a
change that legitimately moves the Monte-Carlo RMSE bytes still passes:

* the track CSVs must be well formed (K + 1 finite rows, RMSE >= 0,
  bounds > 0); the RMSE values themselves are not gated, because at the
  reduced scale their ratio to the bound scatters widely;
* the bound columns are seed-independent and are compared with a
  reference recorded from the package (relative tolerance RTOL);
* on the mobile pilot the ideal bound must equal an independent scalar
  Riccati (Kalman-variance) recursion written here;
* the fast delay likelihoods, on fixed particles, must agree with a
  direct scan of ``channel.loglik_onebit`` / ``loglik_ideal`` within
  LIK_TOL_NATS (the cubic interpolation of the oversampled correlation
  is accurate to about 5e-3 nats over the 30-100 nat range that
  +-1.5 chips around the true delay spans);
* the analytic CSVs of bounds-mobile are compared with the reference.

Whether the RMSE bytes equal the recorded ones is reported as
information only.

Record the reference (only when the package's outputs are meant to
change) with:

    PYTHONPATH=src python3 perfbench/checks.py --record
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

import workloads

RTOL = 1e-9
ATOL = 1e-12
LIK_TOL_NATS = 1e-2
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
REFERENCE_SEEDS = range(16)      # seeds whose RMSE digest is recorded

TRACK_HEADER = ["k", "rmse_onebit", "rmse_ideal", "bound_onebit",
                "bound_ideal", "discarded"]
BOUND_COLUMNS = ["k", "bound_onebit", "bound_ideal"]


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def read_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        table = list(csv.reader(fh))
    return table[0], table[1:]


def column(header, rows, name) -> np.ndarray:
    j = header.index(name)
    return np.array([float(r[j]) for r in rows])


def _kept_rows(n: int) -> list[int]:
    """Row indices stored in a reference: all of a short table, else every 10th and the last."""
    if n <= 40:
        return list(range(n))
    return sorted(set(range(0, n, 10)) | {n - 1})


def reference_table(header, rows, columns=None) -> dict:
    columns = header if columns is None else columns
    idx = [header.index(c) for c in columns]
    return {"header": list(columns),
            "rows": {str(i): [rows[i][j] for j in idx] for i in _kept_rows(len(rows))}}


def _same(a: str, b: str) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    return math.isclose(x, y, rel_tol=RTOL, abs_tol=ATOL)


def compare_reference(name, header, rows, ref) -> Check:
    """Every reference row and column must be present and equal within RTOL."""
    missing = [c for c in ref["header"] if c not in header]
    if missing:
        return Check(name, False, f"missing columns {missing}")
    idx = [header.index(c) for c in ref["header"]]
    for i, expected in ref["rows"].items():
        i = int(i)
        if i >= len(rows):
            return Check(name, False, f"row {i} missing ({len(rows)} rows)")
        got = [rows[i][j] if j < len(rows[i]) else "" for j in idx]
        for col, a, b in zip(ref["header"], got, expected):
            if not _same(a, b):
                return Check(name, False, f"row {i} {col}: {a} != reference {b}")
    return Check(name, True, f"{len(ref['rows'])} rows within rtol {RTOL:g}")


def check_track_csv(name, header, rows) -> Check:
    if header != TRACK_HEADER:
        return Check(name, False, f"header {header}")
    try:
        values = np.array([[float(x) for x in r] for r in rows])
    except ValueError as exc:
        return Check(name, False, f"unparsable value: {exc}")
    if values.ndim != 2 or values.shape[0] < 2 or values.shape[1] != len(TRACK_HEADER):
        return Check(name, False, f"shape {values.shape}")
    if not np.array_equal(values[:, 0], np.arange(len(rows))):
        return Check(name, False, "k column is not 0..K")
    if not np.all(np.isfinite(values)):
        return Check(name, False, "non-finite value")
    if np.any(values[:, 1:3] < 0) or np.any(values[:, 3:5] <= 0):
        return Check(name, False, "negative RMSE or non-positive bound")
    return Check(name, True, f"{len(rows) - 1} blocks")


def riccati_bound_ideal(num_blocks: int) -> np.ndarray:
    """Ideal-receiver bound of the mobile scenario from its definition.

    Mobile: SNR 6 dB, alpha = 1 - 1e-3, sigma^2 = (1 - alpha^2) SNR, a
    20-sample pilot of unit average power seen with unit gain (Fisher
    information 20 per block) and sigma0^2 = 1/20.  The posterior
    variance of the Kalman filter obeys the scalar Riccati recursion
    P_k = 1 / (1 / (alpha^2 P_{k-1} + sigma^2) + F), and the bound is
    sqrt(P_k).
    """
    snr = 10.0 ** (6.0 / 10.0)
    alpha = 1.0 - 1e-3
    sigma2 = (1.0 - alpha**2) * snr
    fisher = 20.0
    p = np.empty(num_blocks + 1)
    p[0] = 1.0 / fisher
    for k in range(1, num_blocks + 1):
        p[k] = 1.0 / (1.0 / (alpha**2 * p[k - 1] + sigma2) + fisher)
    return np.sqrt(p)


def check_riccati(header, rows) -> Check:
    name = "bound_ideal equals scalar Riccati recursion"
    got = column(header, rows, "bound_ideal")
    want = riccati_bound_ideal(len(rows) - 1)
    err = float(np.max(np.abs(got - want) / want))
    return Check(name, err <= RTOL, f"max relative deviation {err:.2e}")


def check_delay_likelihoods(seed: int) -> list[Check]:
    """Fast delay likelihoods against a direct scan on fixed particles."""
    from onebit_tracking import (builtin_scenario, loglik_ideal,
                                 loglik_onebit, make_likelihood)
    sc = builtin_scenario("ranging")
    wf, gamma, tc = sc.waveform, sc.likelihood_gamma, sc.chip_duration
    rng = np.random.default_rng(seed)
    theta_true = sc.state.mu0 + 0.25 * tc * rng.standard_normal()
    y = gamma * wf.eval(theta_true).s + rng.standard_normal(wf.samples_per_block)
    r = np.where(y >= 0, 1.0, -1.0)
    thetas = sc.state.mu0 + tc * np.linspace(-1.5, 1.5, 61)
    evals = [wf.eval(t) for t in thetas]
    out = []
    for receiver, obs, direct in (("onebit", r, loglik_onebit),
                                  ("ideal", y, loglik_ideal)):
        fast = make_likelihood(wf, gamma, receiver)(obs, thetas)
        scan = np.array([direct(obs, ev, gamma) for ev in evals])
        dev = float(np.max(np.abs(fast - scan)))
        out.append(Check(f"{receiver} delay likelihood matches direct scan",
                         dev <= LIK_TOL_NATS,
                         f"max deviation {dev:.2e} nats over a "
                         f"{float(np.ptp(scan)):.2f} nat range"))
    return out


def rmse_digest(header, rows) -> str:
    cols = [header.index("rmse_onebit"), header.index("rmse_ideal")]
    text = "\n".join(",".join(r[j] for j in cols) for r in rows)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def load_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), encoding="ascii") as fh:
        return json.load(fh)


def output_checks(workload: str, seed: int, outdir: str):
    """(checks, information lines) for the outputs of one iteration."""
    ref = load_reference(workload)
    out, info = [], []
    for fname, _argv in workloads.commands(workload, seed, outdir):
        path = os.path.join(outdir, fname)
        try:
            header, rows = read_csv(path)
        except (OSError, IndexError, UnicodeDecodeError) as exc:
            out.append(Check(f"{fname} readable", False, str(exc)))
            continue
        if workload in workloads.TRACK_SCALE:
            wellformed = check_track_csv(f"{fname} well formed", header, rows)
            out.append(wellformed)
            if not wellformed.ok:
                continue
            out.append(compare_reference(f"{fname} bounds match reference",
                                            header, rows, ref["files"][fname]))
            if workload == "track-mobile":
                out.append(check_riccati(header, rows))
            recorded = ref["rmse_sha256"].get(str(seed))
            digest = rmse_digest(header, rows)
            if recorded is None:
                info.append(f"rmse bytes: no reference for seed {seed}")
            else:
                info.append("rmse bytes: " + ("match" if digest == recorded else "differ from")
                            + f" the reference for seed {seed}")
        else:
            out.append(compare_reference(f"{fname} matches reference",
                                            header, rows, ref["files"][fname]))
    if workload == "track-ranging":
        out.extend(check_delay_likelihoods(seed))
    return out, info


def record(outdir: str) -> None:
    """Run every workload at this commit and write reference/*.json."""
    from onebit_tracking import cli
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for workload in workloads.NAMES:
        seeds = REFERENCE_SEEDS if workload in workloads.TRACK_SCALE else [0]
        ref = {"files": {}, "rmse_sha256": {}}
        for seed in seeds:
            for fname, argv in workloads.commands(workload, seed, outdir):
                if cli.main(argv) != 0:
                    raise SystemExit(f"{workload}: {argv} failed")
                header, rows = read_csv(os.path.join(outdir, fname))
                if workload in workloads.TRACK_SCALE:
                    ref["rmse_sha256"][str(seed)] = rmse_digest(header, rows)
                    ref["files"][fname] = reference_table(header, rows, BOUND_COLUMNS)
                else:
                    ref["files"][fname] = reference_table(header, rows)
        with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), "w",
                  encoding="ascii", newline="\n") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded {workload}", file=sys.stderr)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: PYTHONPATH=src python3 perfbench/checks.py --record")
    scratch = os.path.join(os.getcwd(), ".bench_run", "record")
    os.makedirs(scratch, exist_ok=True)
    record(scratch)
