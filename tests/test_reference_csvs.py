"""Golden-output gate: the 27 reference CSVs of tools/csv_digests.py,
run in one child process with the tool's pinned CPU kernels, against
the digests committed in tests/reference/SHA256SUMS.

A change that moves an output on purpose re-records the file with
``PYTHONPATH=src python tools/csv_digests.py --record`` and names each
moved file and row in CHANGES.md.  The digests depend on the numpy and
scipy builds (FFT and log_ndtr rounding, Generator streams), so a run on
other versions than the recorded ones is skipped, not compared.  They
also depend on the CPU kernels numpy and OpenBLAS choose at run time;
the child runs with the tool's PINNED_ENV (numpy's AVX2 loops,
OpenBLAS's Haswell kernels), the same kernels on every x86-64-v3 CPU.
"""

import importlib.util
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "csv_digests.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("csv_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_sums(path):
    """({CSV name: digest}, first line) of a sha256sum-format file."""
    with open(path, encoding="ascii") as fh:
        lines = fh.readlines()
    return {name: digest for digest, name in
            (line.split() for line in lines if not line.startswith("#"))}, lines[0]


def test_reference_csvs_are_byte_identical(tmp_path):
    tool = load_tool()
    expected, header = read_sums(tool.REFERENCE)
    if header != tool.versions():
        pytest.skip(f"digests recorded with {header[2:].strip()}, "
                    f"this run has {tool.versions()[2:].strip()}")
    path = os.pathsep.join([os.path.join(ROOT, "src"),
                            *filter(None, [os.environ.get("PYTHONPATH")])])
    run = subprocess.run([sys.executable, TOOL, str(tmp_path)],
                         env={**os.environ, **tool.PINNED_ENV, "PYTHONPATH": path},
                         capture_output=True, text=True, check=False)
    assert run.returncode == 0, run.stderr
    got, _ = read_sums(tmp_path / "SHA256SUMS")
    assert list(got) == list(expected), "the command list no longer matches"
    moved = [name for name in expected if got[name] != expected[name]]
    assert not moved, (f"{len(moved)} of {len(expected)} reference CSVs moved "
                       f"with the CPU kernels {tool.PINNED_ENV}: "
                       f"{', '.join(moved)}")


def test_diff_names_the_worst_move_per_column(tmp_path, capsys):
    tool = load_tool()
    old, new = tmp_path / "old", tmp_path / "new"
    files = {  # name: (old text, new text); None where the file is missing
        "a.csv": ("k,x,y\n0,1.0,2\nsteady,4.0,5\n",
                  "k,x,y\n0,1.0,2.000000001\nsteady,4.000004,5\n"),
        "b.csv": ("quantity,value\nchi,0.5\n", "quantity,value\nchi,0.5\n"),
        "c.csv": ("k,x\n0,1\n", "k,x\n0,1\n1,2\n"),
        "d.csv": (None, "k\n"),
        "e.csv": ("k,x\nsteady,1\n", "k,x\nsteady,nan\n"),
    }
    for directory, i in ((old, 0), (new, 1)):
        directory.mkdir()
        for name, texts in files.items():
            if texts[i] is not None:
                (directory / name).write_text(texts[i])
    assert tool.relative_moves(str(old), str(new)) == [
        ("a.csv", "x", pytest.approx(1e-6, rel=1e-5)),
        ("a.csv", "y", pytest.approx(5e-10, rel=1e-5)),
        ("c.csv", "shape", math.inf), ("d.csv", "shape", math.inf),
        ("e.csv", "x", math.inf)]
    assert tool.main(["--diff", str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "a.csv  x  1e-06"
    assert tool.main(["--diff", str(old), str(old)]) == 0
    assert capsys.readouterr().out == ""
