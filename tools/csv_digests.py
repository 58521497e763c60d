"""Write the CLI's reference CSVs and their SHA-256 digests.

    PYTHONPATH=src python tools/csv_digests.py OUTDIR
    PYTHONPATH=src python tools/csv_digests.py --record
    PYTHONPATH=src python tools/csv_digests.py --diff OLDDIR NEWDIR

The first form runs the fixed command list below through ``cli.main``,
writes each CSV into OUTDIR and writes ``OUTDIR/SHA256SUMS`` in
``sha256sum`` format; running it on two trees (``PYTHONPATH`` selects
the package) and comparing the two SHA256SUMS files, e.g. with
``diff``, shows which outputs a change moved.  ``--record`` runs the
same commands in a temporary directory and rewrites the committed
reference ``tests/reference/SHA256SUMS``, headed by the numpy and scipy
versions and the CPU kernels the digests depend on;
``tests/test_reference_csvs.py`` compares every run of the test suite
with it.  Exits 1 if a command exits with a code other than 0 or 3 (3:
completed with discarded trials).  ``--diff`` compares the CSVs of two
OUTDIRs number by number and prints, per file and column, the worst
relative move |new - old| / max(|old|, |new|) of every column that
moved (inf where a cell is not a finite number in both, or where the
files differ in shape); it exits 1 if anything moved.

numpy's exp and log loops and OpenBLAS's dot and gemv kernels are
chosen by the CPU at run time and round differently, so both forms run
the commands with the kernels that PINNED_ENV selects, numpy's AVX2
loops and OpenBLAS's Haswell kernels, which every x86-64-v3 CPU can
run.  numpy reads its setting at import, so a process started without
PINNED_ENV runs the tool again in a child process that has it.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import scipy

from onebit_tracking import cli

REFERENCE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests", "reference", "SHA256SUMS")

# the CPU kernels of every digest run (see the module docstring)
PINNED_ENV = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
              "OPENBLAS_CORETYPE": "Haswell"}

_TRACK_SMALL = ["--trials", "2", "--realizations", "2", "--blocks", "40",
                "--seed", "0"]


def commands() -> list:
    """(file name, CLI argument list) for every reference CSV."""
    runs = []
    for name in ("ranging", "uwb", "mobile"):
        scenario = ["--scenario", name]
        runs += [
            (f"fisher_{name}", ["fisher", *scenario]),
            (f"fisher_bayes_{name}", ["fisher", *scenario, "--bayes"]),
            (f"bound_{name}", ["bound", *scenario]),
            (f"bound_k0_{name}", ["bound", *scenario, "--blocks", "0"]),
            (f"transient_{name}", ["transient", *scenario]),
        ]
        runs += [(f"track_{name}_w{w}",
                  ["track", *scenario, *_TRACK_SMALL, "--workers", str(w)])
                 for w in (1, 2)]
    runs += [
        ("sweep_mobile", ["sweep", "--scenario", "mobile"]),
        ("sweep_mobile_finite_k",
         ["sweep", "--scenario", "mobile", "--finite-k", "1000",
          "--beta-min", "1e-3", "--beta-max", "1e-1", "--points", "3"]),
        ("sweep_uwb_finite_k", ["sweep", "--scenario", "uwb", "--finite-k", "300"]),
        ("bound_ranging_chips",
         ["bound", "--scenario", "ranging", "--unit", "chips", "--blocks", "5"]),
        ("track_ranging",
         ["track", "--scenario", "ranging", "--trials", "2",
          "--realizations", "3", "--seed", "5"]),
        ("track_uwb_r5",
         ["track", "--scenario", "uwb", "--trials", "1", "--realizations", "5",
          "--blocks", "40", "--seed", "3"]),
    ]
    return runs


def versions() -> str:
    """The header line of the reference: the builds and the CPU kernels
    the digests depend on."""
    pinned = " ".join(f"{key}={value!r}" for key, value in PINNED_ENV.items())
    return f"# numpy {np.__version__} scipy {scipy.__version__} {pinned}\n"


def digests(outdir: str, log) -> dict:
    """Run every command into outdir, logging each exit code to log;
    {CSV name: SHA-256 hex digest, or None for a command that exited
    with a code other than 0 or 3}."""
    sums = {}
    for stem, args in commands():
        path = os.path.join(outdir, stem + ".csv")
        code = cli.main([*args, "--output", path])
        print(f"{code}  {' '.join(args)}", file=log)
        sums[stem + ".csv"] = None
        if code in (0, 3):
            with open(path, "rb") as fh:
                sums[stem + ".csv"] = hashlib.sha256(fh.read()).hexdigest()
    return sums


def _write(path: str, sums: dict, header: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header)
        fh.writelines(f"{digest}  {name}\n" for name, digest in sums.items()
                      if digest is not None)


def _move(old: str, new: str) -> float:
    """Relative move of one cell; inf unless both are finite numbers."""
    if old == new:
        return 0.0
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(b - a) / max(abs(a), abs(b)) if a != b else 0.0


def _read(path: str) -> list:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.reader(fh))


def relative_moves(old_dir: str, new_dir: str) -> list:
    """(CSV name, column, worst relative move) for every column that moved
    between the CSVs of two directories; a file present in only one of
    them, or whose header or row count differs, is one ("shape", inf)
    entry."""
    moves = []
    names = sorted({f for d in (old_dir, new_dir) for f in os.listdir(d)
                    if f.endswith(".csv")})
    for name in names:
        paths = [os.path.join(d, name) for d in (old_dir, new_dir)]
        if not all(os.path.exists(p) for p in paths):
            moves.append((name, "shape", math.inf))
            continue
        old, new = (_read(p) for p in paths)
        if old[:1] != new[:1] or [len(r) for r in old] != [len(r) for r in new]:
            moves.append((name, "shape", math.inf))
            continue
        for j, column in enumerate(old[0]):
            worst = max((_move(a[j], b[j]) for a, b in zip(old[1:], new[1:])),
                        default=0.0)
            if worst:
                moves.append((name, column, worst))
    return moves


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "--diff":
        moves = relative_moves(argv[1], argv[2])
        for name, column, worst in moves:
            print(f"{name}  {column}  {worst:.3g}")
        return 1 if moves else 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
        return subprocess.run([sys.executable, os.path.abspath(__file__), *argv],
                              env={**os.environ, **PINNED_ENV},
                              check=False).returncode
    print(f"package: {os.path.dirname(cli.__file__)}", file=sys.stderr)
    if argv[0] == "--record":
        with tempfile.TemporaryDirectory() as outdir:
            sums = digests(outdir, sys.stderr)
        if None not in sums.values():
            _write(REFERENCE, sums, versions())
            print(f"recorded {len(sums)} digests in {REFERENCE}", file=sys.stderr)
    else:
        os.makedirs(argv[0], exist_ok=True)
        sums = digests(argv[0], sys.stderr)
        _write(os.path.join(argv[0], "SHA256SUMS"), sums, "")
    return 1 if None in sums.values() else 0


if __name__ == "__main__":
    sys.exit(main())
