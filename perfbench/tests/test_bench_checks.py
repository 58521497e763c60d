"""Self-tests of the benchmark's output checks and failure accounting."""

import json
import os

import numpy as np

import checks
import workloads
import worker


def _write_from_reference(workload, outdir):
    """CSV files whose reference rows equal the recorded ones."""
    ref = checks.load_reference(workload)
    for fname, table in ref["files"].items():
        rows = table["rows"]
        last = max(int(i) for i in rows)
        lines = [",".join(table["header"])]
        fill = rows[str(last)]
        lines += [",".join(rows.get(str(i), fill)) for i in range(last + 1)]
        with open(os.path.join(outdir, fname), "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")


def _corrupt(path, row, col, value):
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = value
    lines[row + 1] = ",".join(cells)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def test_reference_outputs_pass(tmp_path):
    _write_from_reference("bounds-mobile", tmp_path)
    result, _info = checks.output_checks("bounds-mobile", 0, str(tmp_path))
    assert len(result) == 5
    assert all(c.ok for c in result), result


def test_corrupted_output_fails_its_check_and_raises_failed_frac(tmp_path):
    _write_from_reference("bounds-mobile", tmp_path)
    good, _ = checks.output_checks("bounds-mobile", 0, str(tmp_path))
    attempted, failed = worker.tally([0] * 5, 0, 0, good)
    assert failed == 0

    header, rows = checks.read_csv(tmp_path / "bound.csv")
    value = float(rows[500][1]) * (1 + 1e-6)
    _corrupt(tmp_path / "bound.csv", 500, 1, format(value, ".17g"))
    bad, _ = checks.output_checks("bounds-mobile", 0, str(tmp_path))
    failing = [c.name for c in bad if not c.ok]
    assert failing == ["bound.csv matches reference"]
    attempted2, failed2 = worker.tally([0] * 5, 0, 0, bad)
    assert failed2 / attempted2 > failed / attempted


def _write_track_mobile(outdir):
    """A track-mobile CSV that passes every check: the recorded bound_onebit
    rows, the Riccati bound_ideal, and RMSE equal to the bounds."""
    table = checks.load_reference("track-mobile")["files"]["track.csv"]
    j = table["header"].index("bound_onebit")
    ideal = checks.riccati_bound_ideal(1000)
    lines = [",".join(checks.TRACK_HEADER)]
    for k in range(ideal.size):
        onebit = table["rows"][str(k)][j] if str(k) in table["rows"] else "1.0"
        b = format(ideal[k], ".17g")
        lines.append(f"{k},{onebit},{b},{onebit},{b},0")
    with open(os.path.join(outdir, "track.csv"), "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def test_one_failed_check_on_a_track_workload_moves_ok_frac_past_its_bound(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="ascii") as fh:
        bound = {m["name"]: m["bound"]
                 for m in json.load(fh)["end_to_end"]}["ok_frac"]
    processes, realizations = workloads.TRACK_SCALE["track-mobile"]

    def ok_frac():
        result, _ = checks.output_checks("track-mobile", 0, str(tmp_path))
        result.append(checks.Check("outputs identical across iterations", True))
        attempted, failed = worker.tally([0], processes * realizations, 0, result)
        return [c.name for c in result if not c.ok], 1 - failed / attempted

    _write_track_mobile(tmp_path)
    assert ok_frac() == ([], 1.0)
    # row 505 is not in the reference, so only the Riccati check sees it
    header, rows = checks.read_csv(tmp_path / "track.csv")
    j = header.index("bound_ideal")
    _corrupt(tmp_path / "track.csv", 505, j,
             format(float(rows[505][j]) * (1 + 1e-6), ".17g"))
    failing, frac = ok_frac()
    assert failing == ["bound_ideal equals scalar Riccati recursion"]
    assert 1.0 - frac > bound


def test_roundoff_stays_within_tolerance(tmp_path):
    _write_from_reference("bounds-mobile", tmp_path)
    header, rows = checks.read_csv(tmp_path / "bound.csv")
    value = float(rows[500][1]) * (1 + 1e-12)
    _corrupt(tmp_path / "bound.csv", 500, 1, format(value, ".17g"))
    result, _ = checks.output_checks("bounds-mobile", 0, str(tmp_path))
    assert all(c.ok for c in result)


def test_missing_output_and_failed_command_count_as_failures(tmp_path):
    result, _ = checks.output_checks("bounds-mobile", 0, str(tmp_path))
    assert not any(c.ok for c in result)
    attempted, failed = worker.tally([0, 2], 8, 1, [])
    assert (attempted, failed) == (10, 2)


def test_track_csv_shape_check():
    header = checks.TRACK_HEADER
    rows = [[str(k), "1.5", "1.2", "2.0", "1.8", "0"] for k in range(4)]
    assert checks.check_track_csv("t", header, rows).ok
    rows[2][1] = "nan"
    assert not checks.check_track_csv("t", header, rows).ok
    rows[2][1] = "-1"
    assert not checks.check_track_csv("t", header, rows).ok


def test_riccati_oracle_matches_recorded_ideal_bound():
    table = checks.load_reference("track-mobile")["files"]["track.csv"]
    j = table["header"].index("bound_ideal")
    want = checks.riccati_bound_ideal(1000)
    for k, row in table["rows"].items():
        assert np.isclose(float(row[j]), want[int(k)], rtol=1e-12, atol=0)


def test_delay_likelihood_check_detects_a_shifted_likelihood(monkeypatch):
    assert all(c.ok for c in checks.check_delay_likelihoods(0))
    from onebit_tracking import fastlik
    original = fastlik.OneBitDelayLikelihood.__call__
    monkeypatch.setattr(fastlik.OneBitDelayLikelihood, "__call__",
                        lambda self, r, th: original(self, r, np.asarray(th) + 1e-8))
    result = checks.check_delay_likelihoods(0)
    assert [c.ok for c in result] == [False, True]


def test_every_workload_has_a_reference():
    for name in workloads.NAMES:
        ref = checks.load_reference(name)
        assert {f for f, _ in workloads.commands(name, 0, "out")} == set(ref["files"])
