import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import onebit_tracking
from onebit_tracking.cli import (_COMMANDS, _PARAMS, _build_parser,
                                 _merged_config, main)
from onebit_tracking.experiments import builtin_scenario, steady_fbar

import mobius


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = text.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestFisher:
    def test_low_snr_limit(self, capsys):
        code, out, _ = run(capsys, "fisher", "--scenario", "ranging",
                           "--snr-db", "-60")
        assert code == 0
        values = dict(line.split(",") for line in out.strip().split("\n")[1:])
        assert float(values["chi"]) == pytest.approx(2 / np.pi, abs=1e-4)

    def test_bayes_psi(self, capsys):
        code, out, _ = run(capsys, "fisher", "--scenario", "uwb",
                           "--snr-db", "6", "--bayes")
        assert code == 0
        values = dict(line.split(",") for line in out.strip().split("\n")[1:])
        assert float(values["psi_db"]) == pytest.approx(-5.73, abs=0.05)

    def test_writes_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "fisher.csv"
        code, out, _ = run(capsys, "fisher", "--scenario", "uwb",
                           "--output", str(out_file))
        assert code == 0 and out == ""
        assert out_file.read_bytes().endswith(b"\n")
        assert b"\r" not in out_file.read_bytes()


class TestBound:
    def test_ranging_steady_footer(self, capsys):
        code, out, _ = run(capsys, "bound", "--scenario", "ranging")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["k", "u_inv_sqrt_onebit", "u_inv_sqrt_ideal", "rho_db"]
        assert rows[-1][0] == "steady"
        assert float(rows[-1][3]) == pytest.approx(-0.93, abs=0.05)

    def test_uwb_steady_footer(self, capsys):
        code, out, _ = run(capsys, "bound", "--scenario", "uwb")
        _, rows = csv_rows(out)
        assert float(rows[-1][3]) == pytest.approx(-1.02, abs=0.05)

    def test_zero_blocks_emits_initial_row_only(self, capsys):
        code, out, _ = run(capsys, "bound", "--scenario", "uwb", "--blocks", "0")
        assert code == 0
        _, rows = csv_rows(out)
        assert [r[0] for r in rows] == ["0", "steady"]
        assert float(rows[0][1]) == pytest.approx(0.05, rel=1e-10)
        assert float(rows[0][2]) == pytest.approx(0.05, rel=1e-10)

    @pytest.mark.parametrize("name", ["ranging", "uwb", "mobile"])
    def test_zero_blocks_on_every_scenario(self, capsys, name):
        code, out, _ = run(capsys, "bound", "--scenario", name, "--blocks", "0")
        assert code == 0
        _, rows = csv_rows(out)
        assert [r[0] for r in rows] == ["0", "steady"]
        # the initialization row and the steady footer of a longer run
        _, longer = csv_rows(run(capsys, "bound", "--scenario", name,
                                 "--blocks", "3")[1])
        assert rows == [longer[0], longer[-1]]
        s = builtin_scenario(name)
        assert float(rows[0][1]) == pytest.approx(
            s.report_scale * s.state.sigma0, rel=1e-12)

    @pytest.mark.parametrize("argv", [
        ("fisher", "--scenario", "ranging"),
        ("transient", "--scenario", "uwb"),
        ("sweep", "--scenario", "mobile", "--points", "2"),
        ("sweep", "--scenario", "mobile", "--points", "2", "--finite-k", "3"),
    ], ids=["fisher", "transient", "sweep", "sweep-finite-k"])
    def test_commands_without_blocks_accept_zero(self, capsys, argv):
        code, zero, _ = run(capsys, *argv, "--blocks", "0")
        assert code == 0
        assert zero == run(capsys, *argv)[1]

    def test_unit_conversion(self, capsys):
        _, sec, _ = run(capsys, "bound", "--scenario", "ranging",
                        "--blocks", "1", "--unit", "seconds")
        _, met, _ = run(capsys, "bound", "--scenario", "ranging",
                        "--blocks", "1", "--unit", "meters")
        _, sec_rows = csv_rows(sec)
        _, met_rows = csv_rows(met)
        ratio = float(met_rows[0][1]) / float(sec_rows[0][1])
        assert ratio == pytest.approx(299792458.0, rel=1e-12)


class TestTrack:
    ARGS = ("track", "--scenario", "uwb", "--blocks", "15", "--trials", "2",
            "--realizations", "2", "--particles", "50", "--seed", "7")

    def test_runs_and_reports(self, tmp_path, capsys):
        out_file = tmp_path / "track.csv"
        code, _, _ = run(capsys, *self.ARGS, "--output", str(out_file))
        assert code == 0
        header, rows = csv_rows(out_file.read_text())
        assert header == ["k", "rmse_onebit", "rmse_ideal", "bound_onebit",
                          "bound_ideal", "discarded"]
        assert len(rows) == 16

    def test_seed_repeat_identical_hash(self, tmp_path, capsys):
        digests = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            run(capsys, *self.ARGS, "--output", str(path))
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_zero_realizations_is_config_error(self, capsys):
        code, _, err = run(capsys, "track", "--scenario", "uwb",
                           "--realizations", "0")
        assert code == 2
        assert "realizations" in err


class TestSweep:
    def test_endpoints_present(self, capsys):
        code, out, _ = run(capsys, "sweep", "--scenario", "mobile",
                           "--beta-min", "1e-7", "--beta-max", "1",
                           "--points", "9")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["beta", "rho_db", "psi_db"]
        assert float(rows[0][0]) == 1e-7
        assert float(rows[-1][0]) == 1.0

    def test_finite_k_mode(self, capsys):
        code, out, _ = run(capsys, "sweep", "--scenario", "mobile",
                           "--beta-min", "1e-3", "--beta-max", "1e-1",
                           "--points", "2", "--finite-k", "10")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["beta", "k", "rho_k_db"]
        assert len(rows) == 2 * 11

    def test_invalid_range(self, capsys):
        code, _, err = run(capsys, "sweep", "--scenario", "mobile",
                           "--beta-min", "0.5", "--beta-max", "0.1")
        assert code == 2


class TestTransient:
    def test_report_fields(self, capsys):
        code, out, _ = run(capsys, "transient", "--scenario", "ranging",
                           "--lambda", "3")
        assert code == 0
        values = dict(line.split(",") for line in out.strip().split("\n")[1:])
        assert float(values["delta"]) > 1.0
        assert int(values["nu"]) == 1
        assert float(values["xi"]) < 1.0

    def test_threshold_beyond_the_old_scan_cap(self, capsys):
        # 10^-14.5 |U_0 - U| lies just above the roundoff of U: iterating
        # the recursion does not meet it, the closed form answers exactly
        code, out, _ = run(capsys, "transient", "--scenario", "ranging",
                           "--lambda", "14.5")
        assert code == 0
        values = dict(line.split(",") for line in out.strip().split("\n")[1:])
        scenario = builtin_scenario("ranging")
        for key, fbar in zip(("k_lambda", "k_lambda_ideal"),
                             steady_fbar(scenario)):
            assert int(values[key]) == mobius.k_lambda(scenario.state, fbar, 14.5)

    @pytest.mark.parametrize("argv", [
        ("--scenario", "uwb", "--sigma", "1e150"),
        ("--scenario", "mobile", "--alpha", "0"),
    ], ids=["sigma-squared-u-overflow", "alpha-0"])
    def test_zero_convergence_factor_settles_in_one_block(self, tmp_path, capfd,
                                                          argv):
        # xi = 0: at alpha = 0 U_1 = U exactly; at sigma 1e150 sigma^2 U
        # overflows.  A fresh interpreter, so a numpy warning would reach
        # fd 2 as it does from the command line.
        src = os.path.dirname(os.path.dirname(onebit_tracking.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("PYTHONWARNINGS", None)
        out_file = tmp_path / "out.csv"
        proc = subprocess.run([sys.executable, "-m", "onebit_tracking.cli",
                               "transient", *argv, "--output", str(out_file)],
                              env=env)
        out, err = capfd.readouterr()
        assert proc.returncode == 0
        assert out == "" and err == ""
        rows = out_file.read_text().splitlines()
        for row in ("xi,0", "k_lambda,1", "k_lambda_ideal,1",
                    "k_lambda_analytic,0"):
            assert row in rows


class TestConfigHandling:
    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = uwb\nsnr_db = 6  # medium quality\n")
        code, out, _ = run(capsys, "fisher", "--config", str(cfg), "--bayes")
        assert code == 0
        values = dict(line.split(",") for line in out.strip().split("\n")[1:])
        assert float(values["psi_db"]) == pytest.approx(-5.73, abs=0.05)

    def test_flag_overrides_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = uwb\nblocks = 100\n")
        code, out, _ = run(capsys, "bound", "--config", str(cfg),
                           "--blocks", "2")
        _, rows = csv_rows(out)
        assert [r[0] for r in rows] == ["0", "1", "2", "steady"]

    def test_unknown_key_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = uwb\nsnr_bd = 6\n")
        code, _, err = run(capsys, "fisher", "--config", str(cfg))
        assert code == 2
        assert "snr_bd" in err

    def test_bad_value_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = uwb\nblocks = many\n")
        code, _, err = run(capsys, "fisher", "--config", str(cfg))
        assert code == 2
        assert "blocks" in err

    def test_missing_scenario(self, capsys):
        code, _, err = run(capsys, "fisher")
        assert code == 2
        assert "scenario" in err

    def test_unknown_scenario_name(self, capsys):
        code, _, err = run(capsys, "bound", "--scenario", "ranging",
                           "--blocks", "-3")
        assert code == 2

    def test_bayes_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = uwb\nbayes = true\n")
        code, out, _ = run(capsys, "fisher", "--config", str(cfg))
        assert code == 0
        keys = [line.split(",")[0] for line in out.strip().split("\n")[1:]]
        assert keys[-4:] == ["bayes_onebit", "bayes_ideal", "psi", "psi_db"]

    def test_bad_bayes_value_names_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = uwb\nbayes = maybe\n")
        code, out, err = run(capsys, "fisher", "--config", str(cfg))
        assert code == 2 and out == ""
        assert "'bayes'" in err

    def test_non_ascii_file_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("scenario = uwb # r\u00e9glage\n".encode("utf-8"))
        code, out, err = run(capsys, "fisher", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read config file {cfg}: ")
        assert err.count("\n") == 1


class TestParameterTable:
    SAMPLES = {int: "3", float: "0.25", str: "auto"}

    @pytest.mark.parametrize("key,kind,commands",
                             [row[:3] for row in _PARAMS],
                             ids=[row[0] for row in _PARAMS])
    def test_flag_and_config_key_agree(self, tmp_path, key, kind, commands):
        parser = _build_parser()
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            text, flag_args = "true", [flag]
        else:
            text = kind[-1] if isinstance(kind, tuple) else self.SAMPLES[kind]
            flag_args = [flag, text]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n")
        for command in commands or _COMMANDS:
            from_flag = _merged_config(parser.parse_args([command] + flag_args))
            from_file = _merged_config(
                parser.parse_args([command, "--config", str(cfg)]))
            assert from_flag == from_file
            assert list(from_flag) == [key]

    @pytest.mark.parametrize("argv", [
        ("track", "--scenario", "ranging", "--unit", "chips"),
        ("bound", "--scenario", "uwb", "--seed", "1"),
        ("track", "--scenario", "uwb", "--lambda", "5"),
    ], ids=["track-unit", "bound-seed", "track-lambda"])
    def test_flag_a_command_never_reads_is_rejected(self, tmp_path, argv):
        out_file = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--output", str(out_file)])
        assert exc.value.code == 2
        assert not out_file.exists()


class TestParserReuse:
    """main builds its parser once per process; a call leaves nothing
    behind for the next one."""

    def test_one_parser_per_process(self):
        assert _build_parser() is _build_parser()

    def test_bayes_rows_do_not_carry_over(self, capsys):
        code, out, _ = run(capsys, "fisher", "--scenario", "mobile", "--bayes")
        assert code == 0 and "bayes_onebit" in out
        code, out, _ = run(capsys, "fisher", "--scenario", "mobile")
        assert code == 0
        assert [row[0] for row in csv_rows(out)[1]] == [
            "fisher_onebit", "fisher_ideal", "chi", "chi_db"]

    @pytest.mark.parametrize("bad", [
        ("fisher", "--scenario", "mobile", "--bayes", "--blocks", "x"),
        ("bound", "--scenario", "uwb", "--seed", "1"),
        ("fisher", "--scenario", "nowhere", "--bayes"),
    ], ids=["bayes-then-bad-int", "flag-of-another-command", "bad-choice"])
    def test_argparse_exit_then_valid_call(self, tmp_path, capsys, bad):
        with pytest.raises(SystemExit) as exc:
            main([*bad, "--output", str(tmp_path / "bad.csv")])
        capsys.readouterr()
        assert exc.value.code == 2
        code, out, err = run(capsys, "fisher", "--scenario", "mobile")
        assert code == 0 and err == ""
        assert "bayes_" not in out
        assert os.listdir(tmp_path) == []


class TestBadNumbers:
    """Bad input stops at the boundary: exit 2, an error line, no CSV."""

    @pytest.mark.parametrize("argv", [
        ("bound", "--scenario", "mobile", "--sigma", "nan"),
        ("fisher", "--scenario", "ranging", "--snr-db", "nan"),
        ("track", "--scenario", "uwb", "--snr-db", "inf"),
        ("transient", "--scenario", "ranging", "--lambda", "20"),
        ("transient", "--scenario", "ranging", "--lambda", "nan"),
        ("bound", "--scenario", "uwb", "--unit", "chips"),
        ("fisher", "--scenario", "ranging", "--snr-db", "1e308"),
        ("fisher", "--scenario", "ranging", "--snr-db=-1e308"),
        ("fisher", "--scenario", "ranging", "--snr-db", "6000"),
        ("track", "--scenario", "uwb", "--seed", "-1"),
        ("sweep", "--scenario", "mobile", "--finite-k", "0"),
        ("fisher", "--scenario", "ranging", "--snr-db", "3000"),
        ("bound", "--scenario", "ranging", "--snr-db", "3000"),
        ("track", "--scenario", "ranging", "--snr-db", "3000", "--trials", "1",
         "--realizations", "1", "--blocks", "2"),
        ("transient", "--scenario", "ranging", "--snr-db=-3230"),
        ("fisher", "--scenario", "ranging", "--snr-db=-3200"),
        ("sweep", "--scenario", "uwb", "--snr-db", "3078", "--points", "2"),
        ("track", "--scenario", "uwb", "--blocks", "0"),
        ("bound", "--scenario", "uwb", "--blocks", "-1"),
        ("bound", "--scenario", "uwb", "--sigma", "1e-200", "--blocks", "3"),
        ("transient", "--scenario", "mobile", "--sigma", "1e-200"),
        ("bound", "--scenario", "uwb", "--sigma", "1e-100", "--blocks", "2"),
        ("bound", "--scenario", "ranging", "--sigma", "1e-100", "--blocks", "2"),
        ("bound", "--scenario", "mobile", "--sigma", "1e-100", "--blocks", "2"),
        ("bound", "--scenario", "mobile", "--blocks", "1000000000000000"),
        ("track", "--scenario", "mobile", "--blocks", "1000000000000000"),
        ("sweep", "--scenario", "mobile", "--beta-min", "1e-320", "--points", "2"),
        ("fisher", "--scenario", "ranging", "--snr-db", "60"),
    ], ids=["sigma-nan", "snr-nan", "snr-inf", "lambda-20", "lambda-nan",
            "unit-chips-on-gain", "snr-overflow", "snr-underflow",
            "snr-squared-overflow", "seed-negative", "finite-k-0",
            "fisher-info-overflow", "bound-info-overflow",
            "track-info-overflow", "transient-snr-subnormal",
            "fisher-snr-subnormal", "sweep-info-overflow", "track-blocks-0",
            "bound-blocks-negative", "bound-sigma-squared-underflow",
            "transient-sigma-squared-underflow", "uwb-steady-overflow",
            "ranging-steady-overflow", "mobile-steady-overflow",
            "bound-blocks-unallocatable", "track-blocks-unallocatable",
            "sweep-alpha-rounds-to-one", "ranging-delay-average-unresolved"])
    def test_exit_2_without_output(self, tmp_path, capsys, argv):
        out_file = tmp_path / "out.csv"
        code, out, err = run(capsys, *argv, "--output", str(out_file))
        assert code == 2
        assert err.startswith("error: ")
        assert out == "" and not out_file.exists()

    @pytest.mark.parametrize("target", ["missing/out.csv", "."],
                             ids=["output-in-missing-directory",
                                  "output-is-a-directory"])
    def test_unopenable_output_is_exit_2(self, tmp_path, capsys, target):
        path = tmp_path / target
        code, out, err = run(capsys, "bound", "--scenario", "uwb",
                             "--blocks", "2", "--output", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == []

    @pytest.mark.parametrize("argv", [
        ("fisher", "--scenario", "ranging", "--snr-db", "3000"),
        ("sweep", "--scenario", "uwb", "--snr-db", "3078", "--points", "2"),
        ("bound", "--scenario", "mobile", "--sigma", "1e-100", "--blocks", "2"),
    ], ids=["fisher-info-overflow", "sweep-info-overflow", "mobile-steady-overflow"])
    def test_overflow_leaves_only_the_error_line_on_stderr(self, tmp_path, capfd,
                                                            argv):
        # a fresh interpreter, so numpy's warnings reach fd 2 as they would
        # from the command line instead of pytest's warning capture
        src = os.path.dirname(os.path.dirname(onebit_tracking.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("PYTHONWARNINGS", None)
        out_file = tmp_path / "out.csv"
        proc = subprocess.run([sys.executable, "-m", "onebit_tracking.cli",
                               *argv, "--output", str(out_file)], env=env)
        out, err = capfd.readouterr()
        assert proc.returncode == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert out == "" and not out_file.exists()
