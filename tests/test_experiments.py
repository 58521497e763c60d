from dataclasses import replace

import numpy as np
import pytest

from onebit_tracking import experiments
from onebit_tracking.bounds import bound_recursion, db, steady_state
from onebit_tracking.channel import NoiseModel, sign_bit
from onebit_tracking.experiments import (RECEIVERS, SPEED_OF_LIGHT,
                                         _simulate_trial, builtin_scenario,
                                         finite_k_loss, run_bounds,
                                         run_montecarlo, steady_fbar,
                                         sweep_beta)
from onebit_tracking.fastlik import make_likelihood
from onebit_tracking.filters import pf_init, pf_step
from onebit_tracking.info import bayes_report, expected_fisher
from onebit_tracking.state_space import marginal_moments, sample_trajectory

BETA_MESSAGE = r"beta values must lie in \(0, 1\]"


class TestBuiltinScenarios:
    def test_ranging_parameters(self):
        s = builtin_scenario("ranging")
        tc = s.chip_duration
        assert s.waveform.samples_per_block == 2046
        assert s.blocks == 250
        assert s.snr_db == -15.0
        assert s.state.alpha == 1 - 1e-3
        assert s.state.sigma == pytest.approx(1e-3 * tc)
        assert s.state.mu0 == pytest.approx(398.7342 * tc)
        assert s.state.sigma0 == pytest.approx(0.1 * tc)
        assert s.pf.num_particles == 100
        assert s.pf.resample_threshold == 0.66
        assert s.report_unit == "meters"

    def test_uwb_parameters(self):
        s = builtin_scenario("uwb")
        assert s.state.alpha == 1 - 1e-4
        assert s.state.sigma0 == 0.05
        snr = 10.0 ** (-1.5)
        assert s.state.mu0 == pytest.approx(np.sqrt(snr))
        assert s.state.sigma == pytest.approx(np.sqrt((1 - s.state.alpha**2) * snr))
        assert s.state.stationary_variance == pytest.approx(snr)

    def test_mobile_parameters(self):
        s = builtin_scenario("mobile")
        assert s.snr_db == 6.0
        assert s.blocks == 1000
        # initial uncertainty set by the ideal-receiver information
        assert s.state.sigma0 == pytest.approx(1 / np.sqrt(20.0))

    def test_overrides(self):
        s = builtin_scenario("ranging", snr_db=-10.0, blocks=5, particles=7)
        assert s.gamma == pytest.approx(10.0 ** (-0.5))
        assert s.blocks == 5
        assert s.pf.num_particles == 7

    def test_fields_derived_from_waveform_and_snr(self):
        s = replace(builtin_scenario("ranging"), snr_db=-10.0)
        assert s.gamma == 10 ** -0.5
        assert s.snr == 10 ** -1.0
        expected = {"ranging": ("delay", "meters"),
                    "uwb": ("linear", "native"),
                    "mobile": ("linear", "native")}
        for name, (kind, unit) in expected.items():
            s = builtin_scenario(name)
            assert (s.kind, s.report_unit) == (kind, unit)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_scenario("terrestrial")

    def test_unit_round_trip(self):
        s = builtin_scenario("ranging")
        chips = 398.7342
        seconds = chips / s.unit_scale("chips")
        meters = seconds * s.unit_scale("meters")
        back = meters / SPEED_OF_LIGHT * s.unit_scale("chips")
        assert back == pytest.approx(chips, rel=1e-12)

    def test_unit_rejected_for_gain_scenarios(self):
        with pytest.raises(ValueError):
            builtin_scenario("uwb").unit_scale("meters")


class TestBounds:
    def test_initialization_row(self):
        s = builtin_scenario("uwb", blocks=10)
        bt = run_bounds(s)
        assert bt.u.shape == (2, 11)
        np.testing.assert_allclose(bt.u[:, 0], 1 / 0.05**2)

    def test_onebit_loses_information(self):
        s = builtin_scenario("ranging", blocks=30)
        bt = run_bounds(s)
        assert np.all(bt.u[0, 1:] < bt.u[1, 1:])
        assert 0 < bt.rho_steady < 1

    @pytest.mark.parametrize("name", ["ranging", "uwb", "mobile"])
    def test_steady_fields_and_ratio(self, name):
        s = builtin_scenario(name, blocks=100)
        bt = run_bounds(s)
        assert list(bt.steady) == [steady_state(s.state, f)
                                   for f in steady_fbar(s)]
        assert bt.rho[0] == 1.0
        # one-bit carries less information throughout
        assert np.all(bt.u[0] <= bt.u[1])

    def test_mobile_rows_against_recursion_oracle(self):
        # 1-bit: per-block information of the gain's block marginals;
        # ideal: the one stationary value on every block
        s = builtin_scenario("mobile", blocks=60)
        k = s.blocks
        mean, var = np.transpose([marginal_moments(s.state, j)
                                  for j in range(1, k + 1)])
        fbar = expected_fisher(s.waveform, s.likelihood_gamma, mean, var)
        bt = run_bounds(s)
        np.testing.assert_array_equal(bt.u[0], bound_recursion(s.state, fbar))
        np.testing.assert_array_equal(
            bt.u[1], bound_recursion(s.state, np.full(k, steady_fbar(s)[1])))

    def test_steady_fbar_positive_and_ordered(self):
        for name in ("ranging", "uwb", "mobile"):
            s = builtin_scenario(name)
            fb, fbi = steady_fbar(s)
            assert 0 < fb < fbi


class TestSweep:
    def test_memoryless_limit_matches_psi(self):
        s = builtin_scenario("mobile")
        rows = sweep_beta(s, [1.0])
        beta, rho_db, psi_db = rows[0]
        assert beta == 1.0
        assert abs(rho_db - psi_db) < 0.1

    def test_monotone_in_beta(self):
        s = builtin_scenario("mobile")
        grid = np.logspace(-7, 0, 15)
        rho = [row[1] for row in sweep_beta(s, grid)]
        # faster evolution (larger beta) deepens the loss
        assert all(a >= b - 1e-12 for a, b in zip(rho, rho[1:]))

    def test_psi_value(self):
        s = builtin_scenario("mobile")
        report = bayes_report(*steady_fbar(s), 1.0 / s.state.stationary_variance)
        assert db(report.psi) == pytest.approx(-5.73, abs=0.05)

    def test_rejects_bad_beta(self):
        s = builtin_scenario("mobile")
        for grid in ([0.0, 0.5], [0.5, 1.5], [0.5, np.nan]):
            with pytest.raises(ValueError, match=BETA_MESSAGE):
                sweep_beta(s, grid)
        with pytest.raises(ValueError):
            sweep_beta(builtin_scenario("ranging"), [0.5])

    def test_kind_check_runs_before_any_information(self, monkeypatch):
        def reached(*args):
            raise AssertionError("expected_fisher ran on a delay scenario")

        monkeypatch.setattr(experiments, "expected_fisher", reached)
        with pytest.raises(ValueError, match="gain-tracking"):
            sweep_beta(builtin_scenario("ranging"), [0.5])


class TestFiniteK:
    def test_rejects_what_the_sweep_rejects(self):
        # both sweeps take the kind check and the beta check from one helper
        with pytest.raises(ValueError, match=BETA_MESSAGE):
            finite_k_loss(builtin_scenario("mobile"), [0.0], 3)
        with pytest.raises(ValueError, match="gain-tracking"):
            finite_k_loss(builtin_scenario("ranging"), [0.5], 3)

    def test_starts_at_zero_db(self):
        s = builtin_scenario("mobile")
        rows = finite_k_loss(s, [1e-2], 20)
        assert rows[0][1] == 0
        assert rows[0][2] == pytest.approx(0.0, abs=1e-12)

    def test_flattens_for_fast_evolution(self):
        s = builtin_scenario("mobile")
        rows = finite_k_loss(s, [1e-1], 1000)
        tail = [r[2] for r in rows[-10:]]
        assert np.ptp(tail) < 1e-6

    def test_slower_beta_settles_later(self):
        s = builtin_scenario("mobile")
        rows = finite_k_loss(s, [1e-1, 1e-3], 400)
        by_beta = {}
        for beta, k, rho_db in rows:
            by_beta.setdefault(beta, []).append(rho_db)
        def settle(values):
            final = values[-1]
            for k, v in enumerate(values):
                if abs(v - final) < 0.05:
                    return k
        assert settle(by_beta[1e-1]) < settle(by_beta[1e-3])


class TestMonteCarlo:
    def small(self, **kwargs):
        s = builtin_scenario("uwb", blocks=25)
        return run_montecarlo(s, processes=3, realizations=2, master_seed=5,
                              **kwargs)

    def test_shapes_and_sanity(self):
        r = self.small()
        assert r.rmse.shape == r.bound.shape == (2, 26)
        assert np.all(r.rmse >= 0)
        assert np.all(r.bound > 0)

    def test_deterministic_per_seed(self):
        a = self.small()
        b = self.small()
        np.testing.assert_array_equal(a.rmse, b.rmse)

    def test_worker_count_does_not_change_results(self):
        a = self.small(workers=1)
        b = self.small(workers=2)
        np.testing.assert_array_equal(a.rmse, b.rmse)

    def test_pool_has_at_most_one_worker_per_trajectory(self, monkeypatch):
        sizes = []

        class RecordingPool:
            """Records the pool size and maps in this process: no fork."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        pooled = self.small(workers=64)
        assert sizes == [3]
        np.testing.assert_array_equal(pooled.rmse, self.small().rmse)

    def test_ranging_reports_meters(self):
        s = builtin_scenario("ranging", blocks=3)
        r = run_montecarlo(s, processes=1, realizations=1, master_seed=1)
        # initial uncertainty is sigma0 = 0.1 chip, i.e. about 29 m
        assert np.all((5.0 < r.bound[:, 0]) & (r.bound[:, 0] < 50.0))

    def test_rejects_empty_run(self):
        s = builtin_scenario("uwb", blocks=5)
        with pytest.raises(ValueError):
            run_montecarlo(s, processes=0, realizations=1)
        with pytest.raises(ValueError):
            run_montecarlo(s, processes=1, realizations=0)

    def test_rejects_negative_seed(self):
        s = builtin_scenario("uwb", blocks=5)
        with pytest.raises(ValueError, match="seed"):
            run_montecarlo(s, processes=1, realizations=1, master_seed=-1)


def trial_oracle(scenario, theta, signals, likelihoods, noise, p, r):
    """The trial loop written plainly: a fresh standard_normal(n) per block
    from generator (p, r + 1, 0), y = signal + noise, then one pf_step per
    receiver with its own generator (p, r + 1, i + 1); only receiver 0
    sees the sample signs."""
    model, config = scenario.state, scenario.pf
    rng_obs = noise.generator((p, r + 1, 0))
    rngs = [noise.generator((p, r + 1, i + 1)) for i in range(len(likelihoods))]
    clouds = [pf_init(config, model.mu0, model.sigma0, rng) for rng in rngs]
    est = np.empty((len(clouds), theta.size))
    est[:, 0] = [np.dot(w, x) for x, w in clouds]
    for k in range(1, theta.size):
        y = signals[k - 1] + rng_obs.standard_normal(signals.shape[1])
        for i, obs in enumerate((sign_bit(y), y)):
            x, w, est[i, k] = pf_step(*clouds[i], model, obs, likelihoods[i],
                                      config, rngs[i])
            clouds[i] = x, w
    return (est - theta)**2


class TestStreamLayout:
    @pytest.mark.parametrize("name", ["ranging", "uwb", "mobile"])
    def test_each_row_is_a_single_receiver_filter(self, name):
        # bit for bit, so the harness must reproduce the oracle's
        # per-block noise draws and per-receiver generators exactly
        s = builtin_scenario(name, blocks=5 if name == "ranging" else 60)
        noise, p, r = NoiseModel(11), 2, 1
        theta = sample_trajectory(s.state, s.blocks, noise.generator((p,)))
        signals = np.stack([s.likelihood_gamma * s.waveform.signal(t)
                            for t in theta[1:]])
        liks = [make_likelihood(s.waveform, s.likelihood_gamma, rx)
                for rx in RECEIVERS]
        sq = _simulate_trial(s, theta, signals, liks, noise, p, r)
        assert sq.shape == (2, s.blocks + 1)
        np.testing.assert_array_equal(
            sq, trial_oracle(s, theta, signals, liks, noise, p, r))
