import numpy as np
import pytest

from onebit_tracking import bounds
from onebit_tracking.bounds import (MUCH_LESS_RATIO, bound_recursion, db,
                                    steady_state, transient_report)
from onebit_tracking.cli import main
from onebit_tracking.experiments import builtin_scenario, steady_fbar
from onebit_tracking.info import expected_fisher
from onebit_tracking.state_space import StateSpaceModel, marginal_moments

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


def scanned_k_lambda(model, fbar, quality, max_blocks=1_000_000):
    """Oracle: run the recursion until |U_k - U| <= 10^-quality |U_0 - U|."""
    u_star = steady_state(model, fbar)
    u = 1.0 / model.sigma0**2
    threshold = 10.0 ** (-quality) * abs(u - u_star)
    for k in range(1, max_blocks + 1):
        u = 1.0 / (model.sigma**2 + model.alpha**2 / u) + fbar
        if abs(u - u_star) <= threshold:
            return k
    raise AssertionError(f"no steady-state entry within {max_blocks} blocks")


def numpy_scalar_recursion(model, fbar, num_blocks):
    """Oracle: the recursion element by element on a numpy array."""
    fbar = np.broadcast_to(np.asarray(fbar, dtype=float), (num_blocks,))
    alpha, sigma = model.alpha, model.sigma
    u = np.empty(num_blocks + 1)
    u[0] = 1.0 / model.sigma0**2
    for k in range(1, num_blocks + 1):
        u[k] = 1.0 / (sigma**2 + alpha**2 / u[k - 1]) + fbar[k - 1]
    return u


def ratio_conditions(model, fbar, fbar_inf):
    """Oracle: the slow-evolution regime as three ratios, each at most
    MUCH_LESS_RATIO (the cross term dominates the 1-bit steady state;
    alpha^2/sigma^2 exceeds both expected Fisher values)."""
    a2s2 = model.alpha**2 / model.sigma**2
    ratios = [(1.0 - model.alpha**2) ** 2 / (model.alpha**2 * model.sigma**2 * fbar),
              fbar / a2s2, fbar_inf / a2s2]
    return ratios, all(r <= MUCH_LESS_RATIO for r in ratios)


def random_model(rng):
    return StateSpaceModel(alpha=rng.uniform(0.0, 0.999999),
                           sigma=10.0 ** rng.uniform(-4, 1),
                           mu0=rng.normal(), sigma0=10.0 ** rng.uniform(-2, 1))


class TestRecursion:
    def test_initialization(self):
        model = StateSpaceModel(0.9, 0.1, 0.0, 0.5)
        u = bound_recursion(model, np.full(10, 3.0))
        assert u[0] == pytest.approx(1.0 / 0.25)

    def test_assemblies_agree(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            model = random_model(rng)
            if model.alpha == 0.0:
                continue
            fbar = 10.0 ** rng.uniform(-2, 3)
            a = bound_recursion(model, np.full(30, fbar))
            b = dmatrix_recursion(model, fbar, 30)
            np.testing.assert_allclose(a, b, rtol=1e-9)

    def test_per_block_sequence(self):
        model = StateSpaceModel(0.9, 0.1, 0.0, 0.5)
        fbar = np.array([1.0, 2.0, 3.0])
        u = bound_recursion(model, fbar)
        manual = [1.0 / 0.25]
        for f in fbar:
            manual.append(1.0 / (0.01 + 0.81 / manual[-1]) + f)
        np.testing.assert_allclose(u, manual, rtol=1e-14)

    def test_no_measurement_matches_prior_prediction(self):
        model = StateSpaceModel(0.9, 0.1, 0.0, 0.5)
        u = bound_recursion(model, np.zeros(20))
        var = 0.25
        for k in range(1, 21):
            var = 0.81 * var + 0.01
            assert 1.0 / u[k] == pytest.approx(var, rel=1e-12)

    def test_memoryless_recursion(self):
        model = StateSpaceModel(0.0, 0.5, 0.0, 1.0)
        u = bound_recursion(model, np.full(5, 3.0))
        np.testing.assert_allclose(u[1:], 1 / 0.25 + 3.0, rtol=1e-14)

    def test_monotone_when_started_below_steady(self):
        model = StateSpaceModel(0.99, 0.05, 0.0, 2.0)
        u = bound_recursion(model, np.full(200, 7.0))
        u_star = steady_state(model, 7.0)
        assert u[0] < u_star
        # nondecreasing (strict until roundoff convergence) toward U
        assert np.all(np.diff(u) >= 0)
        assert np.all(np.diff(u[:50]) > 0)
        assert u[-1] == pytest.approx(u_star, rel=1e-12)

    def test_more_information_never_hurts(self):
        model = StateSpaceModel(0.95, 0.1, 0.0, 0.7)
        a = bound_recursion(model, np.full(50, 2.0))
        b = bound_recursion(model, np.full(50, 5.0))
        assert np.all(a <= b + 1e-12)

    def test_equals_numpy_scalar_recursion(self):
        # mobile's per-block 1-bit row and its stationary ideal value
        s = builtin_scenario("mobile")
        k = s.blocks
        mean, var = marginal_moments(s.state, np.arange(1, k + 1))
        fbar_k = expected_fisher(s.waveform, s.likelihood_gamma, mean, var)
        for fbar in (fbar_k, np.full(k, steady_fbar(s)[1])):
            u = bound_recursion(s.state, fbar)
            assert u.dtype == np.float64 and u.shape == (k + 1,)
            np.testing.assert_array_equal(
                u, numpy_scalar_recursion(s.state, fbar, k))

    def test_bad_inputs(self):
        model = StateSpaceModel(0.9, 0.1, 0.0, 0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            bound_recursion(model, [1.0, -1.0, 2.0])

    @pytest.mark.parametrize("fbar", [3.0, np.full((2, 3), 3.0)],
                             ids=["scalar", "2-d"])
    def test_takes_only_per_block_values(self, fbar):
        model = StateSpaceModel(0.9, 0.1, 0.0, 0.5)
        with pytest.raises(ValueError, match="1-d"):
            bound_recursion(model, fbar)


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
        u = bound_recursion(model, np.full(3000, 7.0))
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

    @pytest.mark.parametrize("fbar", [0.0, np.float64(5.0)])
    def test_overflow_raises_without_warning(self, fbar, recwarn):
        # sigma^2 = 1e-200 is a normal double, but t^2 overflows
        model = StateSpaceModel(0.9, 1e-100, 0.0, 1.0)
        with pytest.raises(ValueError, match="not finite"):
            steady_state(model, fbar)
        assert not recwarn.list


class TestSlowEvolution:
    def setup_method(self):
        # slowly evolving state, weak measurements
        self.model = StateSpaceModel(1 - 1e-6, 1e-4, 0.0, 0.1)
        self.fbar = 181.0
        self.fbar_inf = 287.0

    def report(self, model):
        return transient_report(model, self.fbar, self.fbar_inf, quality=3.0)

    def test_conditions_satisfied(self):
        assert self.report(self.model).conditions_ok

    def test_conditions_fail_for_fast_state(self):
        fast = StateSpaceModel(0.5, 1.0, 0.0, 0.1)
        assert not self.report(fast).conditions_ok

    def test_loss_approximation(self):
        report = self.report(self.model)
        assert report.conditions_ok
        assert report.rho_approx == pytest.approx(np.sqrt(self.fbar / self.fbar_inf))
        assert abs(db(report.rho) - db(report.rho_approx)) < 0.02

    def test_rejects_zero_information(self):
        with pytest.raises(ValueError):
            transient_report(self.model, 0.0, 1.0, quality=3.0)

    def test_products_equal_ratio_oracle(self):
        # draws around the regime's boundary, both outcomes, away from ties
        rng = np.random.default_rng(7)
        seen = set()
        for _ in range(1000):
            model = StateSpaceModel(alpha=1.0 - 10.0 ** rng.uniform(-7, -1),
                                    sigma=10.0 ** rng.uniform(-5, -1),
                                    mu0=0.0, sigma0=1.0)
            fbar = 10.0 ** rng.uniform(-1, 4)
            fbar_inf = fbar * 10.0 ** rng.uniform(0, 1)
            ratios, satisfied = ratio_conditions(model, fbar, fbar_inf)
            if any(abs(r / MUCH_LESS_RATIO - 1.0) < 1e-9 for r in ratios):
                continue
            report = transient_report(model, fbar, fbar_inf, quality=2.0)
            assert report.conditions_ok == satisfied
            seen.add(satisfied)
        assert seen == {False, True}


class TestTransient:
    def test_convergence_factor_is_fixed_point_derivative(self):
        model = StateSpaceModel(0.999, 0.01, 0.0, 0.5)
        fbar = 50.0
        u = steady_state(model, fbar)
        h = u * 1e-7
        step = lambda x: 1.0 / (model.sigma**2 + model.alpha**2 / x) + fbar
        numeric = (step(u + h) - step(u - h)) / (2 * h)
        xi = transient_report(model, fbar, fbar, quality=3.0).xi
        assert xi == pytest.approx([numeric, numeric], rel=1e-5)

    def test_xi_over_random_draws(self):
        # the test-side expression, squared with **; mobius.multiplier is
        # no oracle at this tolerance (its own cancellation is ~1e-10)
        rng = np.random.default_rng(11)
        for _ in range(1000):
            model = random_model(rng)
            fbar = 10.0 ** rng.uniform(-3, 4, size=2)
            report = transient_report(model, *fbar, quality=2.0)
            for xi, u in zip(report.xi, report.steady):
                expected = model.alpha**2 / (model.sigma**2 * u + model.alpha**2) ** 2
                assert xi == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_one_steady_state_solve_per_receiver(self, monkeypatch, capsys):
        calls = []

        def counted(model, fbar):
            calls.append(fbar)
            return steady_state(model, fbar)

        monkeypatch.setattr(bounds, "steady_state", counted)
        assert main(["transient", "--scenario", "ranging"]) == 0
        assert len(calls) == 2

    def test_empirical_duration_matches_direct_scan(self):
        model = StateSpaceModel(0.999, 0.001, 0.0, 0.5)
        fbar, fbar_inf = 20.0, 30.0
        report = transient_report(model, fbar, fbar_inf, quality=3.0)
        u_star = steady_state(model, fbar)
        u = bound_recursion(model, np.full(5 * report.k_lambda[0], fbar))
        inside = np.abs(u - u_star) <= 1e-3 * abs(u[0] - u_star)
        assert report.k_lambda[0] == np.argmax(inside[1:]) + 1

    @pytest.mark.parametrize("name", ["ranging", "uwb", "mobile"])
    def test_duration_equals_mobius_closed_form(self, name):
        # and equals the direct scan of the recursion
        scenario = builtin_scenario(name)
        fbar, fbar_inf = steady_fbar(scenario)
        for quality in (1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0):
            report = transient_report(scenario.state, fbar, fbar_inf, quality)
            for k, f in zip(report.k_lambda, (fbar, fbar_inf)):
                assert k == mobius.k_lambda(scenario.state, f, quality)
                assert k == scanned_k_lambda(scenario.state, f, quality)

    def test_threshold_below_roundoff_rejected(self):
        # 10^-20 |U_0 - U| is far below the spacing of doubles near U
        model = StateSpaceModel(0.999, 0.001, 0.0, 0.5)
        with pytest.raises(ValueError, match="roundoff"):
            transient_report(model, 20.0, 30.0, quality=20.0)

    def test_delta_ordering(self):
        model = StateSpaceModel(1 - 1e-6, 1e-4, 0.0, 0.1)
        report = transient_report(model, 181.0, 287.0, quality=3.0)
        # the weaker receiver needs more blocks to settle
        assert report.delta > 1.0

    def test_quality_must_exceed_one(self):
        model = StateSpaceModel(0.9, 0.1, 0.0, 0.5)
        with pytest.raises(ValueError):
            transient_report(model, 1.0, 2.0, quality=1.0)


class TestDb:
    def test_values(self):
        assert db(1.0) == 0.0
        assert db(np.sqrt(2 / np.pi)) == pytest.approx(-0.9806, abs=1e-4)
