import itertools

import mpmath
import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.stats import norm

from onebit_tracking.experiments import builtin_scenario, steady_fbar
from onebit_tracking.info import (bayes_report, expected_fisher, fisher_ideal,
                                  fisher_onebit, log_q_pair, onebit_summands)
from onebit_tracking.signals import (CodeSequence, LinearGainWaveform,
                                     WaveformEval, generate_gps_ca_code,
                                     make_delay_waveform, make_pilot_waveform)
from onebit_tracking.state_space import marginal_moments

TWO_OVER_PI = 2.0 / np.pi


def per_node_expected_fisher(waveform, gamma, mean, var, nodes=33):
    """Oracle: Gauss-Hermite quadrature of fisher_onebit, one node at a time.

    Evaluates the waveform and the per-sample closed form at every node,
    so nothing here relies on grouping the pilot by magnitude.
    """
    x, w = np.polynomial.hermite.hermgauss(nodes)
    thetas = mean + np.sqrt(2.0 * var) * x
    values = [fisher_onebit(waveform.eval(t), gamma) for t in thetas]
    return float(np.dot(w, values) / np.sqrt(np.pi))


def delay_average_fisher(scenario, points=64):
    """Oracle: the 1-bit information averaged over equally spaced
    fractional delays of one chip, one waveform evaluation per delay."""
    thetas = np.arange(points) / points * scenario.chip_duration
    return float(np.mean([fisher_onebit(scenario.waveform.eval(t),
                                        scenario.gamma) for t in thetas]))


def brute_force_fisher(s, ds, gamma, h=1e-5):
    """Exhaustive-enumeration Fisher information at the working point.

    Locally s(t) = s + t*ds; p(r|t) is a product of Gaussian tails and
    F = sum_r p'(r)^2 / p(r) with a central-difference derivative.
    """
    total = 0.0
    for r in itertools.product((-1.0, 1.0), repeat=s.size):
        r = np.array(r)
        def prob(t):
            return float(np.prod(norm.sf(-gamma * r * (s + t * ds))))
        p = prob(0.0)
        dp = (prob(h) - prob(-h)) / (2 * h)
        total += dp * dp / p
    return total


class TestFisherClosedForm:
    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = rng.integers(2, 11)
            s = rng.standard_normal(n)
            ds = rng.standard_normal(n)
            gamma = rng.uniform(0.05, 1.5)
            ev = WaveformEval(s, ds)
            closed = fisher_onebit(ev, gamma)
            assert closed == pytest.approx(
                brute_force_fisher(s, ds, gamma), rel=1e-6)

    def test_data_processing_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = rng.integers(2, 40)
            ev = WaveformEval(rng.standard_normal(n), rng.standard_normal(n))
            gamma = rng.uniform(0.01, 3.0)
            assert fisher_onebit(ev, gamma) <= fisher_ideal(ev, gamma)

    def test_zero_signal_closed_form(self):
        # at a zero crossing each summand carries the full 2/pi factor
        rng = np.random.default_rng(3)
        ds = rng.standard_normal(6)
        ev = WaveformEval(np.zeros(6), ds)
        expected = (2 / np.pi) * 0.8**2 * np.dot(ds, ds)
        assert fisher_onebit(ev, 0.8) == pytest.approx(expected, rel=1e-12)

    def test_amplitude_scaling_of_ideal(self):
        ev = WaveformEval(np.ones(5), np.arange(5.0))
        assert fisher_ideal(ev, 2.0) == pytest.approx(4 * fisher_ideal(ev, 1.0))

    def test_zero_gamma_gives_zero(self):
        ev = WaveformEval(np.ones(4), np.ones(4))
        assert fisher_onebit(ev, 0.0) == 0.0
        with pytest.raises(ValueError):
            fisher_onebit(ev, -1.0)

    def test_deep_tail_samples_stay_finite(self):
        # large gamma*s would overflow a naive Q-product denominator
        ev = WaveformEval(np.array([30.0, -25.0]), np.ones(2))
        assert np.isfinite(fisher_onebit(ev, 1.0))


def mp_summand(x):
    """exp(-x^2) / (2 pi Q(x) Q(-x)) in 50-digit arithmetic."""
    x = mpmath.mpf(x)
    q = mpmath.erfc(x / mpmath.sqrt(2)) * mpmath.erfc(-x / mpmath.sqrt(2)) / 4
    return mpmath.exp(-x * x) / (2 * mpmath.pi * q)


def mp_log_q_pair(x):
    """log Q(|x|) and log Q(-|x|) = log(1 - Q(|x|)) in 50-digit arithmetic;
    log1p keeps the second exact where Q(|x|) is below 1e-50."""
    q = mpmath.erfc(abs(mpmath.mpf(x)) / mpmath.sqrt(2)) / 2
    return mpmath.log(q), mpmath.log1p(-q)


class TestQProduct:
    """onebit_summands and log_q_pair (one log Q call per point) against
    mpmath."""

    @pytest.fixture(scope="class")
    def grid(self):
        rng = np.random.default_rng(5)
        return np.concatenate([[0.0, 1e-8, -1e-8, 3e-9, 1e-300],
                               np.linspace(-40.0, 40.0, 801),
                               rng.uniform(-40.0, 40.0, 500),
                               rng.uniform(-3.0, 3.0, 200)])

    @pytest.fixture(scope="class")
    def points(self, grid):
        x = grid
        with mpmath.workdps(50):
            want = np.array([float(mp_summand(v)) for v in x])
        return x, want, onebit_summands(x, np.ones_like(x), 1.0)

    def test_pair_is_both_tails(self, grid):
        # log Q(|x|) and log Q(-|x|) = log1p(-e^a): the second is about
        # -Q(|x|) = -e^a, whose relative error grows as |a| * eps like the
        # summand's (test_deep_tail_on_the_log_scale), so past |x| = 5 it
        # is compared on the log scale, where it is a normal double
        with mpmath.workdps(50):
            tail, body = np.array([[float(t) for t in mp_log_q_pair(v)]
                                   for v in grid]).T
        got_tail, got_body = log_q_pair(grid)
        np.testing.assert_allclose(got_tail, tail, rtol=1e-14, atol=0)
        near = np.abs(grid) <= 5
        np.testing.assert_allclose(got_body[near], body[near], rtol=1e-14,
                                   atol=0)
        normal = np.abs(body) >= np.finfo(float).tiny
        np.testing.assert_allclose(np.log(-got_body[normal]),
                                   np.log(-body[normal]), rtol=1e-14, atol=0)
        assert np.all(np.abs(got_body[~normal]) < np.finfo(float).tiny)
        np.testing.assert_array_equal(log_q_pair(-grid)[0], got_tail)

    def test_near_zero_and_the_body(self, points):
        x, want, got = points
        body = np.abs(x) <= 5
        np.testing.assert_allclose(got[body], want[body], rtol=1e-14, atol=0)

    def test_deep_tail_on_the_log_scale(self, points):
        # exp(-x^2 - log(Q Q)) rounds its exponent at the scale of x^2, up
        # to 1600 here, so the value's relative error grows as x^2 * eps
        # (5e-13 at |x| = 38, for the two-call form too); the exponent
        # itself stays within 1e-14 relative
        x, want, got = points
        normal = want >= np.finfo(float).tiny
        np.testing.assert_allclose(np.log(got[normal]), np.log(want[normal]),
                                   rtol=1e-14, atol=0)
        assert np.all(got[want == 0] == 0)

    def test_gamma_scales_the_argument(self):
        s, ds = np.array([0.3, -2.0, 7.5]), np.array([1.0, -0.5, 2.0])
        gamma = 1.7
        with mpmath.workdps(50):
            want = [float(mp_summand(gamma * v)) * gamma**2 * d * d
                    for v, d in zip(s, ds)]
        np.testing.assert_allclose(onebit_summands(s, ds, gamma), want,
                                   rtol=1e-14, atol=0)


def chi(ev, gamma):
    """Block-wise 1-bit information loss F / F_inf."""
    return fisher_onebit(ev, gamma) / fisher_ideal(ev, gamma)


class TestLowSnrLimit:
    def test_chi_on_delay_waveform(self):
        wf = make_delay_waveform(generate_gps_ca_code(5))
        ev = wf.eval(0.37 * wf.code.chip_duration)
        assert chi(ev, 1e-3) == pytest.approx(TWO_OVER_PI, abs=1e-4)

    def test_chi_on_pilot_waveform(self):
        code = CodeSequence(np.array([1, -1, 1, -1, 1, -1, 1, -1, 1, 1],
                                     dtype=float), 1e-6)
        wf = make_pilot_waveform(code)
        assert chi(wf.eval(1e-3), 1.0) == pytest.approx(TWO_OVER_PI, abs=1e-4)


class TestExpectedFisher:
    def setup_method(self):
        code = CodeSequence(np.array([1, -1, 1, -1, 1, -1, 1, -1, 1, 1],
                                     dtype=float), 1e-6)
        self.wf = make_pilot_waveform(code)

    def test_zero_variance_is_point_evaluation(self):
        point = fisher_onebit(self.wf.eval(0.4), 1.0)
        assert expected_fisher(self.wf, 1.0, 0.4, 0.0) == pytest.approx(point)

    def test_quadrature_matches_dense_numerical_integral(self):
        # the second input is the one the 33- and 66-node rules once
        # compared; the dense integral checks it without a second rule
        for mean, var in ((0.2, 0.3), (0.0, 0.5)):
            thetas = np.linspace(mean - 8 * np.sqrt(var),
                                 mean + 8 * np.sqrt(var), 4001)
            pdf = norm.pdf(thetas, mean, np.sqrt(var))
            values = [fisher_onebit(self.wf.eval(t), 1.0) for t in thetas]
            direct = trapezoid(pdf * np.asarray(values), thetas)
            gh = expected_fisher(self.wf, 1.0, mean, var)
            assert gh == pytest.approx(direct, rel=1e-6)

    def test_quadrature_node_doubling_converged(self):
        # the 33-node array rule against the per-node rule with twice the nodes
        a = expected_fisher(self.wf, 1.0, 0.0, 0.5)
        b = per_node_expected_fisher(self.wf, 1.0, 0.0, 0.5, nodes=66)
        assert a == pytest.approx(b, rel=1e-6)

    def test_array_matches_per_node_quadrature(self):
        # mobile's block marginals for k = 1..1000, then point evaluations
        mobile = builtin_scenario("mobile")
        moments = [marginal_moments(mobile.state, k) for k in range(1, 1001)]
        moments += [(0.0, 0.0), (0.4, 0.0), (-2.5, 0.0), (30.0, 0.0)]
        mean, var = np.transpose(moments)
        got = expected_fisher(mobile.waveform, mobile.likelihood_gamma,
                              mean, var)
        want = [per_node_expected_fisher(mobile.waveform, 1.0, m, v)
                for m, v in moments[:1000]]
        want += [fisher_onebit(mobile.waveform.eval(m), 1.0)
                 for m, _ in moments[1000:]]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_pilot_with_several_magnitudes(self):
        # groups of equal magnitude, both signs, and zeros
        pilot = np.array([0.0, 1.0, -1.0, 2.0, -0.5, 0.5, 0.0, -2.0, 1.0, 0.5])
        wf = LinearGainWaveform(pilot / np.sqrt(np.mean(pilot**2)))
        mean, var = np.array([0.0, 0.3, -1.2]), np.array([0.5, 2.0, 0.01])
        got = expected_fisher(wf, 0.7, mean, var)
        want = [per_node_expected_fisher(wf, 0.7, m, v)
                for m, v in zip(mean, var)]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_a_point_does_not_depend_on_the_call(self):
        # fixed-order sums: a block's value alone is bit-equal to the same
        # block inside a 1001-point call
        mobile = builtin_scenario("mobile")
        mean, var = marginal_moments(mobile.state, np.arange(1, 1002))
        together = expected_fisher(mobile.waveform, 1.0, mean, var)
        alone = [expected_fisher(mobile.waveform, 1.0, m, v)
                 for m, v in zip(mean, var)]
        assert together.tolist() == alone

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            expected_fisher(self.wf, 1.0, 0.0, -1.0)
        with pytest.raises(ValueError):
            expected_fisher(self.wf, 1.0, np.nan, 1.0)


class TestSteadyIdeal:
    def test_ideal_information_is_one_theta_free_value(self):
        # gain pilots: gamma^2 p.p, exactly
        for name in ("uwb", "mobile"):
            s = builtin_scenario(name)
            pilot = s.waveform.pilot
            assert steady_fbar(s)[1] == (s.likelihood_gamma**2
                                         * np.dot(pilot, pilot))
        # delay waveform: Parseval, gamma^2 sum |2 pi f X_f|^2 / N
        s = builtin_scenario("ranging")
        wf = s.waveform
        parseval = (s.likelihood_gamma**2
                    * np.sum(np.abs(2 * np.pi * wf.frequencies * wf.spectrum)**2)
                    / wf.samples_per_block)
        assert steady_fbar(s)[1] == pytest.approx(parseval, rel=1e-14, abs=0)


@pytest.fixture(scope="module")
def finest_table():
    """The ranging waveform's 2048x-oversampled table, whose average is
    the delay average to roundoff up to about 49 dB."""
    return builtin_scenario("ranging").waveform.baseband_table(2048)


class TestSteadyOnebitDelay:
    @pytest.mark.parametrize("snr_db", [-15.0, 0.0, 10.0, 20.0, 25.0, 30.0,
                                        35.0, 40.0, 45.0])
    def test_delay_average_matches_the_finest_table(self, snr_db, finest_table):
        s = builtin_scenario("ranging", snr_db=snr_db)
        oracle = fisher_onebit(finest_table, s.gamma) / 2048
        assert steady_fbar(s)[0] == pytest.approx(oracle, rel=1e-12, abs=0)

    def test_delay_average_matches_direct_evaluation(self):
        # at the default SNR, against waveform evaluations without a table
        s = builtin_scenario("ranging")
        assert steady_fbar(s)[0] == pytest.approx(delay_average_fisher(s),
                                                  rel=1e-14, abs=0)

    def test_information_has_the_sample_period(self):
        # F(theta + T_s) = F(theta), so the 64 delays per chip are two
        # copies of the 32 sampling phases of the table
        s = builtin_scenario("ranging", snr_db=20.0)
        t_s = 1.0 / s.waveform.sample_rate
        for theta in np.array([0.0, 0.13, 0.5, 0.77]) * t_s:
            a = fisher_onebit(s.waveform.eval(theta), s.gamma)
            b = fisher_onebit(s.waveform.eval(theta + t_s), s.gamma)
            assert b == pytest.approx(a, rel=1e-12, abs=0)


class TestBayesReport:
    def test_psi_ratio(self):
        report = bayes_report(6.0, 10.0, 2.0)
        assert report.psi == pytest.approx(8.0 / 12.0)

    def test_prior_only(self):
        assert bayes_report(0.0, 0.0, 3.0).psi == 1.0

    def test_rejects_negative_terms(self):
        with pytest.raises(ValueError):
            bayes_report(-1.0, 1.0, 1.0)

    def test_no_information_at_all(self):
        with pytest.raises(ZeroDivisionError):
            bayes_report(0.0, 0.0, 0.0)
