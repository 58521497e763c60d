import warnings

import numpy as np
import pytest

from onebit_tracking.channel import NoiseModel
from onebit_tracking.fastlik import IdealLinearLikelihood
from onebit_tracking.filters import (DegenerateCloudError,
                                     ParticleFilterConfig, pf_init, pf_step,
                                     systematic_resample)
from onebit_tracking.signals import CodeSequence, make_pilot_waveform
from onebit_tracking.state_space import StateSpaceModel

from kalman import kalman_step


def pilot_waveform():
    code = CodeSequence(np.array([1, -1, 1, -1, 1, -1, 1, -1, 1, 1],
                                 dtype=float), 1e-6)
    return make_pilot_waveform(code)


class TestConfig:
    def test_defaults(self):
        cfg = ParticleFilterConfig()
        assert cfg.num_particles == 100
        assert cfg.resample_threshold == 0.66

    @pytest.mark.parametrize("kwargs", [
        {"num_particles": 1}, {"resample_threshold": 0.0},
        {"resample_threshold": 1.1}, {"resample_threshold": float("nan")},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ParticleFilterConfig(**kwargs)


class TestInit:
    def test_prior_draw(self):
        cfg = ParticleFilterConfig(num_particles=5000)
        particles, weights = pf_init(cfg, 2.0, 0.3, np.random.default_rng(0))
        assert particles.shape == weights.shape == (5000,)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.dot(weights, particles) == pytest.approx(2.0, abs=0.02)
        assert 1.0 / np.dot(weights, weights) == pytest.approx(5000.0)


class TestResampling:
    def test_systematic_counts_within_one_of_expectation(self):
        rng = np.random.default_rng(1)
        w = rng.random(50)
        w /= w.sum()
        idx = systematic_resample(w, rng)
        counts = np.bincount(idx, minlength=50)
        assert np.all(np.abs(counts - 50 * w) < 1.0 + 1e-12)

    def test_index_in_range_when_cumsum_ends_below_one(self):
        class TopDraw:
            def random(self):
                return np.nextafter(1.0, 0.0)     # largest double below 1

        w = np.random.default_rng(2).random(100)
        w /= w.sum()
        assert np.cumsum(w)[-1] < 1.0
        idx = systematic_resample(w, TopDraw())
        assert idx.max() == 99

    def test_resampling_unbiased_for_the_mean(self):
        rng = np.random.default_rng(8)
        particles = rng.standard_normal(100)
        w = rng.random(100)
        w /= w.sum()
        target = float(np.dot(w, particles))
        reps = 10_000
        total = 0.0
        for _ in range(reps):
            total += particles[systematic_resample(w, rng)].mean()
        wstd = np.sqrt(np.dot(w, (particles - target) ** 2))
        assert abs(total / reps - target) < 4 * wstd / np.sqrt(100 * reps)

    def test_degenerate_weight_resamples_to_single_particle(self):
        rng = np.random.default_rng(3)
        w = np.zeros(10)
        w[7] = 1.0
        assert set(systematic_resample(w, rng)) == {7}


class TestPfStep:
    def test_weight_normalization(self):
        model = StateSpaceModel(0.9, 0.1, 0.0, 1.0)
        cfg = ParticleFilterConfig(num_particles=200, resample_threshold=0.01)
        rng = np.random.default_rng(0)
        particles, weights = pf_init(cfg, 0.0, 1.0, rng)
        loglik = lambda obs, th: -0.5 * (obs - th) ** 2
        for obs in (0.3, -0.5, 1.1):
            particles, weights, _ = pf_step(particles, weights, model, obs,
                                            loglik, cfg, rng)
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(weights >= 0)

    def test_flat_likelihood_leaves_weights_uniform(self):
        model = StateSpaceModel(0.9, 0.1, 0.0, 1.0)
        cfg = ParticleFilterConfig(num_particles=50, resample_threshold=0.01)
        rng = np.random.default_rng(1)
        particles, weights = pf_init(cfg, 0.5, 0.2, rng)
        particles, weights, estimate = pf_step(
            particles, weights, model, None, lambda obs, th: np.zeros(th.size),
            cfg, rng)
        np.testing.assert_allclose(weights, 1 / 50, atol=1e-14)
        assert estimate == pytest.approx(particles.mean())

    def test_resampling_triggered_by_low_ess(self):
        model = StateSpaceModel(0.9, 0.1, 0.0, 1.0)
        cfg = ParticleFilterConfig(num_particles=100, resample_threshold=0.99)
        rng = np.random.default_rng(0)
        particles, weights = pf_init(cfg, 0.0, 1.0, rng)
        # sharply peaked likelihood collapses the ESS, forcing a resample
        _, weights, _ = pf_step(particles, weights, model, 0.0,
                                lambda obs, th: -500.0 * th**2, cfg, rng)
        assert 1.0 / np.dot(weights, weights) == pytest.approx(cfg.num_particles)

    def test_ess_bounds(self):
        # a flat likelihood keeps ESS = L, above kappa L; one surviving
        # particle gives ESS = 1 and every particle resamples onto it
        model = StateSpaceModel(0.9, 0.1, 0.0, 1.0)
        cfg = ParticleFilterConfig(num_particles=4, resample_threshold=0.5)
        rng = np.random.default_rng(2)
        particles, weights = pf_init(cfg, 0.0, 1.0, rng)
        particles, weights, _ = pf_step(particles, weights, model, None,
                                        lambda obs, th: np.zeros(th.size),
                                        cfg, rng)
        assert 1.0 / np.dot(weights, weights) == pytest.approx(4.0)
        survivor = lambda obs, th: np.where(np.arange(th.size) == 2, 0.0, -np.inf)
        particles, weights, estimate = pf_step(particles, weights, model, None,
                                               survivor, cfg, rng)
        np.testing.assert_array_equal(particles, np.full(4, estimate))
        np.testing.assert_array_equal(weights, np.full(4, 0.25))

    def test_zero_input_weights_stay_zero_and_inputs_unchanged(self):
        model = StateSpaceModel(0.9, 0.1, 0.0, 1.0)
        cfg = ParticleFilterConfig(num_particles=10, resample_threshold=0.01)
        rng = np.random.default_rng(4)
        particles, _ = pf_init(cfg, 0.0, 1.0, rng)
        weights = np.where(np.arange(10) % 3 == 0, 0.0, 1.0 / 6)
        inputs = particles.copy(), weights.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # log(0) must not warn
            _, new_weights, _ = pf_step(particles, weights, model, None,
                                        lambda obs, th: -0.5 * th**2, cfg, rng)
        # ESS 1/sum(w^2) >= 1 stays above kappa L = 0.1: no resample
        np.testing.assert_array_equal(new_weights == 0, weights == 0)
        assert new_weights.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(particles, inputs[0])
        np.testing.assert_array_equal(weights, inputs[1])

    def test_degenerate_cloud_raises(self):
        model = StateSpaceModel(0.9, 0.1, 0.0, 1.0)
        cfg = ParticleFilterConfig(num_particles=10)
        rng = np.random.default_rng(0)
        particles, weights = pf_init(cfg, 0.0, 1.0, rng)
        with pytest.raises(DegenerateCloudError):
            pf_step(particles, weights, model, 0.0,
                    lambda obs, th: np.full_like(th, -np.inf), cfg, rng)

    def test_tracks_kalman_posterior_on_linear_model(self):
        # with the exact Gaussian likelihood the particle posterior mean
        # must approach the Kalman mean as the cloud grows
        wf = pilot_waveform()
        model = StateSpaceModel(0.95, 0.1, 0.5, 0.2)
        cfg = ParticleFilterConfig(num_particles=20000)
        noise = NoiseModel(9)
        rng = noise.generator((0,))
        particles, weights = pf_init(cfg, model.mu0, model.sigma0, rng)
        lik = IdealLinearLikelihood(wf, 1.0)
        state = (model.mu0, model.sigma0**2)
        theta = 0.6
        for k in range(10):
            theta = model.alpha * theta + model.sigma * rng.standard_normal()
            y = theta * wf.pilot + rng.standard_normal(wf.pilot.size)
            particles, weights, estimate = pf_step(particles, weights, model,
                                                   y, lik, cfg, rng)
            state = kalman_step(state, model, y, wf.pilot, 1.0)
            assert estimate == pytest.approx(
                state[0], abs=5 * np.sqrt(state[1] / cfg.num_particles) + 1e-3)


class TestKalman:
    def test_variance_contracts_for_static_state(self):
        wf = pilot_waveform()
        model = StateSpaceModel(1 - 1e-12, 1e-9, 0.0, 1.0)
        state = (0.0, 1.0)
        variances = []
        for _ in range(10):
            y = np.zeros(wf.pilot.size)
            state = kalman_step(state, model, y, wf.pilot, 1.0)
            variances.append(state[1])
        assert all(b < a for a, b in zip(variances, variances[1:]))

    def test_zero_pilot_is_pure_prediction(self):
        model = StateSpaceModel(0.9, 0.1, 0.0, 1.0)
        mean, var = kalman_step((1.0, 0.5), model, np.zeros(4), np.zeros(4), 1.0)
        assert mean == pytest.approx(0.9)
        assert var == pytest.approx(0.81 * 0.5 + 0.01)

    def test_matches_manual_scalar_update(self):
        model = StateSpaceModel(0.8, 0.2, 0.0, 1.0)
        pilot = np.array([1.0, -1.0, 2.0])
        y = np.array([0.5, -0.4, 1.3])
        mean, var = kalman_step((0.3, 0.1), model, y, pilot, 0.7)
        pred_mean, pred_var = 0.24, 0.64 * 0.1 + 0.04
        h = 0.7 * pilot
        k_gain = pred_var * h / (1.0 + pred_var * np.dot(h, h))
        exp_mean = pred_mean + np.dot(k_gain, y - h * pred_mean)
        exp_var = pred_var * (1 - np.dot(k_gain, h))
        assert mean == pytest.approx(exp_mean, rel=1e-10)
        assert var == pytest.approx(exp_var, rel=1e-10)

    def test_rejects_bad_variance(self):
        model = StateSpaceModel(0.8, 0.2, 0.0, 1.0)
        with pytest.raises(ValueError):
            kalman_step((0.0, 0.0), model, np.zeros(2), np.ones(2), 1.0)

