from types import SimpleNamespace

import numpy as np
import pytest

from onebit_tracking.channel import (NoiseModel, log_q, loglik_ideal,
                                     loglik_onebit, sign_bit)
from onebit_tracking.fastlik import (DEFAULT_OVERSAMPLING,
                                     IdealDelayLikelihood,
                                     IdealLinearLikelihood,
                                     OneBitDelayLikelihood,
                                     OneBitLinearLikelihood, _DelayCorrelator,
                                     make_likelihood, periodic_cubic_interp)
from onebit_tracking.signals import (CodeSequence, LinearGainWaveform,
                                     generate_gps_ca_code, make_delay_waveform,
                                     make_pilot_waveform)


def observe(ev, gamma, noise, position):
    """One block y = gamma*s + eta and its signs, drawn as the harness does."""
    y = gamma * ev.s + noise.generator(position).standard_normal(ev.s.size)
    return SimpleNamespace(onebit=sign_bit(y), ideal=y)


@pytest.fixture(scope="module")
def delay_setup():
    wf = make_delay_waveform(generate_gps_ca_code(5))
    gamma = 10.0 ** (-15.0 / 20.0)
    noise = NoiseModel(13)
    theta = 398.5137 * wf.code.chip_duration
    obs = observe(wf.eval(theta), gamma, noise, (0, 1))
    return wf, gamma, theta, obs


@pytest.fixture(scope="module")
def pilot_setup():
    code = CodeSequence(np.array([1, -1, 1, -1, 1, -1, 1, -1, 1, 1],
                                 dtype=float), 1e-6)
    wf = make_pilot_waveform(code)
    obs = observe(wf.eval(0.3), 1.0, NoiseModel(13), (1, 1))
    return wf, obs


@pytest.fixture(scope="module")
def two_magnitude_setup():
    """A unit-power pilot with two nonzero magnitudes of unequal counts
    and no zero sample."""
    pilot = np.array([1.0, -2.0, 2.0, 1.0, -1.0, -1.0, 1.0, 2.0, -1.0, 1.0])
    wf = LinearGainWaveform(pilot * np.sqrt(pilot.size / np.sum(pilot**2)))
    assert np.unique(np.abs(wf.pilot)).size == 2
    obs = observe(wf.eval(0.3), 1.0, NoiseModel(13), (1, 1))
    return wf, obs


class TestInterpolation:
    def test_exact_on_grid(self):
        table = np.sin(np.linspace(0, 2 * np.pi, 64, endpoint=False))
        pos = np.arange(64, dtype=float)
        np.testing.assert_allclose(periodic_cubic_interp(table, pos), table,
                                   atol=1e-14)

    def test_smooth_function_between_nodes(self):
        x = np.linspace(0, 2 * np.pi, 256, endpoint=False)
        table = np.sin(x)
        pos = np.linspace(0, 256, 1000, endpoint=False)
        exact = np.sin(pos * 2 * np.pi / 256)
        assert np.max(np.abs(periodic_cubic_interp(table, pos) - exact)) < 1e-6

    def test_wraps_periodically(self):
        table = np.array([1.0, 2.0, 3.0, 4.0])
        a = periodic_cubic_interp(table, np.array([0.5]))
        b = periodic_cubic_interp(table, np.array([4.5]))
        c = periodic_cubic_interp(table, np.array([-3.5]))
        assert a == pytest.approx(b)
        assert a == pytest.approx(c)


class TestDelayLikelihoods:
    def test_onebit_matches_exact(self, delay_setup):
        wf, gamma, theta, obs = delay_setup
        lik = OneBitDelayLikelihood(wf, gamma)
        rng = np.random.default_rng(0)
        thetas = theta + wf.code.chip_duration * rng.uniform(-2, 2, 40)
        exact = np.array([loglik_onebit(obs.onebit, wf.eval(t), gamma)
                          for t in thetas])
        fast = lik(obs.onebit, thetas)
        # absolute tolerance covers the interpolation error of the
        # oversampled tables; likelihood swings are tens of units
        np.testing.assert_allclose(fast, exact, atol=0.01)

    def test_ideal_matches_exact(self, delay_setup):
        wf, gamma, theta, obs = delay_setup
        lik = IdealDelayLikelihood(wf, gamma)
        rng = np.random.default_rng(1)
        thetas = theta + wf.code.chip_duration * rng.uniform(-2, 2, 40)
        exact = np.array([loglik_ideal(obs.ideal, wf.eval(t), gamma)
                          for t in thetas])
        np.testing.assert_allclose(lik(obs.ideal, thetas), exact, atol=0.01)

    def test_periodic_in_code_period(self, delay_setup):
        wf, gamma, theta, obs = delay_setup
        lik = OneBitDelayLikelihood(wf, gamma)
        thetas = np.array([theta])
        a = lik(obs.onebit, thetas)
        b = lik(obs.onebit, thetas + wf.code.length * wf.code.chip_duration)
        np.testing.assert_allclose(a, b, atol=1e-8)

    def test_peak_near_true_delay(self, delay_setup):
        wf, gamma, theta, obs = delay_setup
        lik = IdealDelayLikelihood(wf, gamma)
        tc = wf.code.chip_duration
        grid = theta + tc * np.linspace(-5, 5, 201)
        values = lik(obs.ideal, grid)
        assert abs(grid[np.argmax(values)] - theta) < 0.5 * tc


def correlation_sum(block, table, lags):
    """Oracle: C(j) = sum_n b_n table[(n*M - j) mod MN], one lag at a time."""
    n_m = np.arange(block.size) * DEFAULT_OVERSAMPLING
    return np.array([sum(b * t for b, t in
                         zip(block, table[(n_m - j) % table.size]))
                     for j in lags])


def tiled_fft_correlation(block, table):
    """Oracle for all M*N lags: the length-N block spectrum tiled M times
    (the spectrum of the zero-stuffed block) against the length-MN table
    spectrum, and one length-MN inverse FFT."""
    spec = np.tile(np.fft.fft(block), DEFAULT_OVERSAMPLING)
    return np.fft.ifft(spec * np.conj(np.fft.fft(table))).real


class TestDelayCorrelator:
    """The polyphase correlator against its definition and the tiled FFT."""

    @pytest.fixture(scope="class", params=["onebit-odd", "ideal"])
    def case(self, request, delay_setup):
        wf, gamma, _, obs = delay_setup
        fine = wf.baseband_table(DEFAULT_OVERSAMPLING).s
        if request.param == "onebit-odd":
            table = 0.5 * (log_q(-gamma * fine) - log_q(gamma * fine))
            block = obs.onebit
        else:
            table, block = fine, obs.ideal
        corr = _DelayCorrelator(wf, table)
        return table, block, corr.correlate(block)

    def test_returns_every_fine_lag(self, case, delay_setup):
        table, block, out = case
        assert block.size == delay_setup[0].samples_per_block
        assert out.shape == (DEFAULT_OVERSAMPLING * block.size,) == table.shape

    def test_matches_direct_sum(self, case):
        table, block, out = case
        m, mn = DEFAULT_OVERSAMPLING, table.size
        rng = np.random.default_rng(5)
        lags = np.concatenate([[0, 1, m - 1, m, mn - 1],
                               rng.integers(0, mn, 32)])
        np.testing.assert_allclose(out[lags], correlation_sum(block, table, lags),
                                   rtol=0, atol=1e-12)

    def test_matches_tiled_length_mn_fft(self, case):
        table, block, out = case
        np.testing.assert_allclose(out, tiled_fft_correlation(block, table),
                                   rtol=0, atol=1e-12)


class TestLinearLikelihoods:
    @pytest.mark.parametrize("setup", ["pilot_setup", "two_magnitude_setup"])
    def test_onebit_matches_exact(self, request, setup):
        wf, obs = request.getfixturevalue(setup)
        lik = OneBitLinearLikelihood(wf, 1.0)
        thetas = np.linspace(-0.8, 0.9, 23)
        exact = [loglik_onebit(obs.onebit, wf.eval(t), 1.0) for t in thetas]
        np.testing.assert_allclose(lik(obs.onebit, thetas), exact, atol=1e-10)

    @pytest.mark.parametrize("setup", ["pilot_setup", "two_magnitude_setup"])
    def test_onebit_accumulates_group_by_group(self, request, setup):
        # bit for bit: zero_const + sum_g (pos_g log Q(-v_g th)
        # + neg_g log Q(v_g th)), the groups in increasing magnitude
        wf, obs = request.getfixturevalue(setup)
        thetas = np.linspace(-0.8, 0.9, 23)
        magnitudes = np.abs(wf.pilot)
        expected = np.full(thetas.shape,
                           np.log(0.5) * int(np.sum(magnitudes == 0)))
        for v in np.unique(magnitudes[magnitudes > 0]):
            group = magnitudes == v
            pos = float(np.sum(obs.onebit[group] == np.sign(wf.pilot[group])))
            neg = float(np.sum(group)) - pos
            expected += pos * log_q(-v * thetas) + neg * log_q(v * thetas)
        lik = OneBitLinearLikelihood(wf, 1.0)
        np.testing.assert_array_equal(lik(obs.onebit, thetas), expected)

    def test_ideal_matches_exact(self, pilot_setup):
        wf, obs = pilot_setup
        lik = IdealLinearLikelihood(wf, 1.0)
        thetas = np.linspace(-0.8, 0.9, 23)
        exact = [loglik_ideal(obs.ideal, wf.eval(t), 1.0) for t in thetas]
        np.testing.assert_allclose(lik(obs.ideal, thetas), exact, atol=1e-10)

    def test_gamma_scaling(self, pilot_setup):
        wf, obs = pilot_setup
        lik = OneBitLinearLikelihood(wf, gamma=2.0)
        exact = [loglik_onebit(obs.onebit, wf.eval(2.0 * t), 1.0)
                 for t in (0.1, 0.25)]
        np.testing.assert_allclose(lik(obs.onebit, np.array([0.1, 0.25])),
                                   exact, atol=1e-10)


class TestFactory:
    def test_dispatch(self, delay_setup, pilot_setup):
        wf_delay = delay_setup[0]
        wf_pilot = pilot_setup[0]
        assert isinstance(make_likelihood(wf_delay, 0.2, "onebit"),
                          OneBitDelayLikelihood)
        assert isinstance(make_likelihood(wf_delay, 0.2, "ideal"),
                          IdealDelayLikelihood)
        assert isinstance(make_likelihood(wf_pilot, 1.0, "onebit"),
                          OneBitLinearLikelihood)
        assert isinstance(make_likelihood(wf_pilot, 1.0, "ideal"),
                          IdealLinearLikelihood)
        with pytest.raises(TypeError):
            make_likelihood(object(), 1.0, "onebit")
