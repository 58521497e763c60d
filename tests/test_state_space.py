import numpy as np
import pytest

from onebit_tracking.state_space import (StateSpaceModel, marginal_moments,
                                         sample_trajectory)


class TestModelValidation:
    def test_valid(self):
        m = StateSpaceModel(0.999, 0.001, 1.0, 0.1)
        assert m.stationary_variance == pytest.approx(0.001**2 / (1 - 0.999**2))

    @pytest.mark.parametrize("alpha", [-0.1, 1.0, 1.5])
    def test_alpha_range(self, alpha):
        with pytest.raises(ValueError):
            StateSpaceModel(alpha, 0.1, 0.0, 1.0)

    @pytest.mark.parametrize("sigma,sigma0", [(0.0, 1.0), (-1.0, 1.0),
                                              (1.0, 0.0), (1.0, -2.0),
                                              (1e-160, 1.0), (1.0, 1e-200),
                                              (1e200, 1.0), (np.nan, 1.0)])
    def test_positive_scales(self, sigma, sigma0):
        with pytest.raises(ValueError):
            StateSpaceModel(0.5, sigma, 0.0, sigma0)


class TestMarginalMoments:
    def iterate(self, model, k):
        mean, var = model.mu0, model.sigma0**2
        for _ in range(k):
            mean = model.alpha * mean
            var = model.alpha**2 * var + model.sigma**2
        return mean, var

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.99, 1 - 1e-7])
    @pytest.mark.parametrize("k", [0, 1, 7, 200])
    def test_matches_iteration(self, alpha, k):
        model = StateSpaceModel(alpha, 0.05, 2.0, 0.4)
        mean, var = marginal_moments(model, k)
        mean_it, var_it = self.iterate(model, k)
        assert mean == pytest.approx(mean_it, rel=1e-12, abs=1e-300)
        assert var == pytest.approx(var_it, rel=1e-12)

    def test_limits_to_stationary(self):
        model = StateSpaceModel(0.9, 0.1, 5.0, 1.0)
        mean, var = marginal_moments(model, 2000)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert var == pytest.approx(model.stationary_variance, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.99, 1 - 1e-7])
    def test_array_matches_iteration(self, alpha):
        model = StateSpaceModel(alpha, 0.05, 2.0, 0.4)
        k = np.arange(201)
        mean, var = marginal_moments(model, k)
        assert mean.shape == var.shape == (201,)
        mean_it, var_it = np.transpose([self.iterate(model, j) for j in k])
        np.testing.assert_allclose(mean, mean_it, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(var, var_it, rtol=1e-12)

    def test_scalar_index_gives_scalars(self):
        mean, var = marginal_moments(StateSpaceModel(0.5, 0.1, 1.0, 1.0), 3)
        assert np.ndim(mean) == np.ndim(var) == 0
        assert (mean, var) == pytest.approx(self.iterate(
            StateSpaceModel(0.5, 0.1, 1.0, 1.0), 3), rel=1e-12)

    def test_negative_index(self):
        with pytest.raises(ValueError):
            marginal_moments(StateSpaceModel(0.5, 0.1, 0.0, 1.0), -1)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_negative_entry_in_array(self, alpha):
        with pytest.raises(ValueError):
            marginal_moments(StateSpaceModel(alpha, 0.1, 0.0, 1.0),
                             np.array([0, 3, -2, 5]))


class TestSampleTrajectory:
    def test_shape_and_determinism(self):
        model = StateSpaceModel(0.95, 0.3, 1.0, 0.2)
        a = sample_trajectory(model, 50, np.random.default_rng(3))
        b = sample_trajectory(model, 50, np.random.default_rng(3))
        assert a.shape == (51,)
        np.testing.assert_array_equal(a, b)

    def test_marginal_statistics(self):
        model = StateSpaceModel(0.8, 0.5, 2.0, 0.1)
        rng = np.random.default_rng(0)
        k = 30
        draws = np.array([sample_trajectory(model, k, rng)[k]
                          for _ in range(4000)])
        mean, var = marginal_moments(model, k)
        assert draws.mean() == pytest.approx(mean, abs=4 * np.sqrt(var / 4000))
        assert draws.var() == pytest.approx(var, rel=0.1)

    def test_needs_one_block(self):
        with pytest.raises(ValueError):
            sample_trajectory(StateSpaceModel(0.5, 0.1, 0.0, 1.0), 0,
                              np.random.default_rng(0))


    def test_near_noiseless_follows_decay(self):
        model = StateSpaceModel(0.9, 1e-12, 2.0, 1e-12)
        theta = sample_trajectory(model, 20, np.random.default_rng(1))
        np.testing.assert_allclose(theta, 2.0 * 0.9 ** np.arange(21),
                                   atol=1e-9)


class TestTransitionLogpdf:
    """Moments of the score of log p(theta_k | theta_{k-1})."""

    def test_score_second_moments(self):
        # the squared-score expectations that feed the tracking recursion
        model = StateSpaceModel(0.8, 0.4, 0.0, 1.0)
        rng = np.random.default_rng(6)
        prev = rng.standard_normal(1_000_000)
        cur = model.alpha * prev + model.sigma * rng.standard_normal(prev.size)
        resid = cur - model.alpha * prev
        score_cur = -resid / model.sigma**2
        score_prev = model.alpha * resid / model.sigma**2
        assert np.mean(score_cur**2) == pytest.approx(1 / model.sigma**2,
                                                      rel=5e-3)
        assert np.mean(score_prev**2) == pytest.approx(
            model.alpha**2 / model.sigma**2, rel=5e-3)
