import numpy as np
import pytest

from onebit_tracking.bounds import (bound_recursion, bound_trajectory,
                                    convergence_factor, db,
                                    slow_evolution_conditions,
                                    slow_evolution_loss, steady_state,
                                    transient_report)
from onebit_tracking.experiments import builtin_scenario, steady_fbar
from onebit_tracking.state_space import StateSpaceModel

import mobius


def dmatrix_recursion(model, fbar, num_blocks):
    """Oracle: the recursion in its defining Schur-complement form.

    U_k = D22 - D21 (U_{k-1} + D11)^-1 D12 with the transition-score
    moments D11 = alpha^2/sigma^2, D12 = D21 = -alpha/sigma^2 and
    D22 = 1/sigma^2 + Fbar.
    """
    d11 = model.alpha**2 / model.sigma**2
    d12 = -model.alpha / model.sigma**2
    u = np.empty(num_blocks + 1)
    u[0] = 1.0 / model.sigma0**2
    for k in range(1, num_blocks + 1):
        d22 = 1.0 / model.sigma**2 + fbar
        u[k] = d22 - d12 * d12 / (u[k - 1] + d11)
    return u


def random_model(rng):
    return StateSpaceModel(alpha=rng.uniform(0.0, 0.999999),
                           sigma=10.0 ** rng.uniform(-4, 1),
                           mu0=rng.normal(), sigma0=10.0 ** rng.uniform(-2, 1))


class TestRecursion:
    def test_initialization(self):
        model = StateSpaceModel(0.9, 0.1, 0.0, 0.5)
        u = bound_recursion(model, 3.0, 10)
        assert u[0] == pytest.approx(1.0 / 0.25)

    def test_assemblies_agree(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            model = random_model(rng)
            if model.alpha == 0.0:
                continue
            fbar = 10.0 ** rng.uniform(-2, 3)
            a = bound_recursion(model, fbar, 30)
            b = dmatrix_recursion(model, fbar, 30)
            np.testing.assert_allclose(a, b, rtol=1e-9)

    def test_per_block_sequence(self):
        model = StateSpaceModel(0.9, 0.1, 0.0, 0.5)
        fbar = np.array([1.0, 2.0, 3.0])
        u = bound_recursion(model, fbar, 3)
        manual = [1.0 / 0.25]
        for f in fbar:
            manual.append(1.0 / (0.01 + 0.81 / manual[-1]) + f)
        np.testing.assert_allclose(u, manual, rtol=1e-14)

    def test_no_measurement_matches_prior_prediction(self):
        model = StateSpaceModel(0.9, 0.1, 0.0, 0.5)
        u = bound_recursion(model, 0.0, 20)
        var = 0.25
        for k in range(1, 21):
            var = 0.81 * var + 0.01
            assert 1.0 / u[k] == pytest.approx(var, rel=1e-12)

    def test_memoryless_recursion(self):
        model = StateSpaceModel(0.0, 0.5, 0.0, 1.0)
        u = bound_recursion(model, 3.0, 5)
        np.testing.assert_allclose(u[1:], 1 / 0.25 + 3.0, rtol=1e-14)

    def test_monotone_when_started_below_steady(self):
        model = StateSpaceModel(0.99, 0.05, 0.0, 2.0)
        u = bound_recursion(model, 7.0, 200)
        u_star = steady_state(model, 7.0)
        assert u[0] < u_star
        # nondecreasing (strict until roundoff convergence) toward U
        assert np.all(np.diff(u) >= 0)
        assert np.all(np.diff(u[:50]) > 0)
        assert u[-1] == pytest.approx(u_star, rel=1e-12)

    def test_more_information_never_hurts(self):
        model = StateSpaceModel(0.95, 0.1, 0.0, 0.7)
        a = bound_recursion(model, 2.0, 50)
        b = bound_recursion(model, 5.0, 50)
        assert np.all(a <= b + 1e-12)

    def test_bad_inputs(self):
        model = StateSpaceModel(0.9, 0.1, 0.0, 0.5)
        with pytest.raises(ValueError):
            bound_recursion(model, [1.0, 2.0], 3)
        with pytest.raises(ValueError):
            bound_recursion(model, -1.0, 3)


class TestSteadyState:
    def test_fixed_point_over_random_draws(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            model = random_model(rng)
            fbar = 10.0 ** rng.uniform(-3, 4)
            u = steady_state(model, fbar)
            rhs = 1.0 / (model.sigma**2 + model.alpha**2 / u) + fbar
            assert u == pytest.approx(rhs, rel=1e-9)

    def test_recursion_converges_to_it(self):
        model = StateSpaceModel(0.99, 0.05, 0.0, 1.0)
        u = bound_recursion(model, 7.0, 3000)
        assert u[-1] == pytest.approx(steady_state(model, 7.0), rel=1e-10)

    def test_memoryless_case(self):
        model = StateSpaceModel(0.0, 0.5, 0.0, 1.0)
        assert steady_state(model, 3.0) == pytest.approx(1 / 0.25 + 3.0)

    def test_no_measurement_gives_stationary_information(self):
        model = StateSpaceModel(0.9, 0.5, 0.0, 1.0)
        assert steady_state(model, 0.0) == pytest.approx(
            1.0 / model.stationary_variance, rel=1e-12)

    def test_slow_regime_square_root_approximation(self):
        model = StateSpaceModel(1 - 1e-6, 1e-4, 0.0, 0.1)
        fbar = 181.0
        u = steady_state(model, fbar)
        approx = np.sqrt(model.alpha**2 * fbar / model.sigma**2)
        assert u == pytest.approx(approx, rel=0.01)


class TestSlowEvolution:
    def setup_method(self):
        # slowly evolving state, weak measurements
        self.model = StateSpaceModel(1 - 1e-6, 1e-4, 0.0, 0.1)
        self.fbar = 181.0
        self.fbar_inf = 287.0

    def test_conditions_satisfied(self):
        cond = slow_evolution_conditions(self.model, self.fbar, self.fbar_inf)
        assert cond["satisfied"]

    def test_conditions_fail_for_fast_state(self):
        fast = StateSpaceModel(0.5, 1.0, 0.0, 0.1)
        assert not slow_evolution_conditions(fast, self.fbar, self.fbar_inf)["satisfied"]

    def test_loss_approximation(self):
        loss = slow_evolution_loss(self.fbar, self.fbar_inf, self.model)
        assert loss.conditions_ok
        assert loss.rho_approx == pytest.approx(np.sqrt(self.fbar / self.fbar_inf))
        assert abs(db(loss.rho) - db(loss.rho_approx)) < 0.02

    def test_rejects_zero_information(self):
        with pytest.raises(ValueError):
            slow_evolution_loss(0.0, 1.0, self.model)


class TestTransient:
    def test_convergence_factor_is_fixed_point_derivative(self):
        model = StateSpaceModel(0.999, 0.01, 0.0, 0.5)
        fbar = 50.0
        u = steady_state(model, fbar)
        h = u * 1e-7
        step = lambda x: 1.0 / (model.sigma**2 + model.alpha**2 / x) + fbar
        numeric = (step(u + h) - step(u - h)) / (2 * h)
        assert convergence_factor(model, fbar) == pytest.approx(numeric, rel=1e-5)

    def test_empirical_duration_matches_direct_scan(self):
        model = StateSpaceModel(0.999, 0.001, 0.0, 0.5)
        fbar, fbar_inf = 20.0, 30.0
        report = transient_report(model, fbar, fbar_inf, quality=3.0)
        u_star = steady_state(model, fbar)
        u = bound_recursion(model, fbar, 5 * report.k_lambda)
        inside = np.abs(u - u_star) <= 1e-3 * abs(u[0] - u_star)
        assert report.k_lambda == np.argmax(inside[1:]) + 1

    @pytest.mark.parametrize("name", ["ranging", "uwb", "mobile"])
    def test_duration_equals_mobius_closed_form(self, name):
        scenario = builtin_scenario(name)
        fbar = steady_fbar(scenario, "onebit")
        fbar_inf = steady_fbar(scenario, "ideal")
        for quality in (1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0):
            report = transient_report(scenario.state, fbar, fbar_inf, quality)
            assert report.k_lambda == mobius.k_lambda(
                scenario.state, fbar, quality)
            assert report.k_lambda_ideal == mobius.k_lambda(
                scenario.state, fbar_inf, quality)

    def test_delta_ordering(self):
        model = StateSpaceModel(1 - 1e-6, 1e-4, 0.0, 0.1)
        report = transient_report(model, 181.0, 287.0, quality=3.0)
        # the weaker receiver needs more blocks to settle
        assert report.delta > 1.0

    def test_quality_must_exceed_one(self):
        model = StateSpaceModel(0.9, 0.1, 0.0, 0.5)
        with pytest.raises(ValueError):
            transient_report(model, 1.0, 2.0, quality=1.0)


class TestBoundTrajectory:
    def test_ratio_fields(self):
        model = StateSpaceModel(0.99, 0.05, 0.0, 1.0)
        bt = bound_trajectory(model, 5.0, 8.0, 100)
        assert bt.rho[0] == pytest.approx(1.0)
        assert bt.rho_steady == pytest.approx(
            steady_state(model, 5.0) / steady_state(model, 8.0))
        # one-bit carries less information throughout
        assert np.all(bt.u_onebit[1:] <= bt.u_ideal[1:])


class TestDb:
    def test_values(self):
        assert db(1.0) == 0.0
        assert db(np.sqrt(2 / np.pi)) == pytest.approx(-0.9806, abs=1e-4)
