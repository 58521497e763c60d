"""Write the CLI's reference CSVs and their SHA-256 digests.

    PYTHONPATH=src python tools/csv_digests.py OUTDIR

runs the fixed command list below through ``cli.main``, writes each CSV
into OUTDIR and writes ``OUTDIR/SHA256SUMS`` in ``sha256sum`` format.  A
change that must leave the outputs byte-identical runs this once on
each tree (``PYTHONPATH`` selects the package) and compares the two
SHA256SUMS files, e.g. with ``diff``.  Exits 1 if a command exits with a
code other than 0 or 3 (3: completed with discarded trials).
"""

from __future__ import annotations

import hashlib
import os
import sys

from onebit_tracking import cli

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
    ]
    return runs


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = argv[0]
    os.makedirs(outdir, exist_ok=True)
    print(f"package: {os.path.dirname(cli.__file__)}", file=sys.stderr)
    sums, failed = [], False
    for stem, args in commands():
        path = os.path.join(outdir, stem + ".csv")
        code = cli.main([*args, "--output", path])
        print(f"{code}  {' '.join(args)}", file=sys.stderr)
        if code not in (0, 3):
            failed = True
            continue
        with open(path, "rb") as fh:
            sums.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {stem}.csv\n")
    with open(os.path.join(outdir, "SHA256SUMS"), "w", encoding="ascii",
              newline="\n") as fh:
        fh.writelines(sums)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
