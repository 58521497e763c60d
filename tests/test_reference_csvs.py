"""Golden-output gate: the 27 reference CSVs of tools/csv_digests.py,
run in-process, against the digests committed in
tests/reference/SHA256SUMS.

A change that moves an output on purpose re-records the file with
``PYTHONPATH=src python tools/csv_digests.py --record`` and names each
moved file and row in CHANGES.md.  The digests depend on the numpy and
scipy builds (FFT and log_ndtr rounding, Generator streams), so a run on
other versions than the recorded ones is skipped, not compared.
"""

import importlib.util
import io
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "csv_digests.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("csv_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reference_csvs_are_byte_identical(tmp_path):
    tool = load_tool()
    with open(tool.REFERENCE, encoding="ascii") as fh:
        header, *lines = fh.readlines()
    if header != tool.versions():
        pytest.skip(f"digests recorded with {header[2:].strip()}, "
                    f"this run has {tool.versions()[2:].strip()}")
    expected = {name: digest for digest, name in map(str.split, lines)}
    got = tool.digests(str(tmp_path), log=io.StringIO())
    assert list(got) == list(expected), "the command list no longer matches"
    moved = [name for name in expected if got[name] != expected[name]]
    assert not moved, (f"{len(moved)} of {len(expected)} reference CSVs moved: "
                       f"{', '.join(moved)}")
