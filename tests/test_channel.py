import itertools

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

from onebit_tracking.channel import (NoiseModel, log_q, loglik_ideal,
                                     loglik_onebit, sign_bit)
from onebit_tracking.signals import WaveformEval


class TestLogQ:
    def test_matches_direct_tail(self):
        x = np.linspace(-6, 6, 41)
        np.testing.assert_allclose(log_q(x), np.log(norm.sf(x)),
                                   rtol=1e-9, atol=1e-12)

    def test_deep_tail_stays_finite(self):
        assert np.isfinite(log_q(40.0))
        assert log_q(40.0) == pytest.approx(-804.608, rel=1e-4)

    def test_symmetry_at_zero(self):
        assert log_q(0.0) == pytest.approx(np.log(0.5))


class TestSignBit:
    def test_zero_maps_to_plus_one(self):
        np.testing.assert_array_equal(sign_bit([-2.0, 0.0, 3.0]), [-1, 1, 1])


class TestNoiseModel:
    def test_same_position_reproduces(self):
        noise = NoiseModel(42)
        a = noise.generator((3, 1)).standard_normal(8)
        b = noise.generator((3, 1)).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_positions_are_independent_streams(self):
        noise = NoiseModel(42)
        a = noise.generator((3, 1)).standard_normal(8)
        b = noise.generator((3, 2)).standard_normal(8)
        assert not np.array_equal(a, b)


class TestOneBitLikelihood:
    @pytest.mark.parametrize("n,gamma", [(4, 0.3), (8, 1.2), (12, 0.05)])
    def test_normalizes_over_all_sign_patterns(self, n, gamma):
        rng = np.random.default_rng(n)
        ev = WaveformEval(rng.standard_normal(n), rng.standard_normal(n))
        total = sum(np.exp(loglik_onebit(np.array(r, dtype=float), ev, gamma))
                    for r in itertools.product((-1, 1), repeat=n))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_zero_gamma_is_coin_flips(self):
        ev = WaveformEval(np.ones(8), np.zeros(8))
        r = np.array([1, -1, 1, 1, -1, -1, 1, -1], dtype=float)
        assert loglik_onebit(r, ev, 0.0) == pytest.approx(8 * np.log(0.5))

    def test_single_sample_value(self):
        ev = WaveformEval(np.array([1.0]), np.zeros(1))
        assert loglik_onebit(np.array([1.0]), ev, 1.0) == pytest.approx(
            np.log(0.841344746), abs=1e-9)

    def test_sign_symmetry(self):
        rng = np.random.default_rng(4)
        s = rng.standard_normal(9)
        r = np.where(rng.random(9) < 0.5, 1.0, -1.0)
        a = loglik_onebit(r, WaveformEval(s, np.zeros(9)), 0.9)
        b = loglik_onebit(-r, WaveformEval(-s, np.zeros(9)), 0.9)
        assert a == pytest.approx(b, rel=1e-12)

    def test_finite_deep_into_the_tail(self):
        ev = WaveformEval(np.array([1000.0, -1000.0]), np.zeros(2))
        assert np.isfinite(loglik_onebit(np.array([-1.0, 1.0]), ev, 1.0))

    def test_length_check(self):
        ev = WaveformEval(np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError):
            loglik_onebit(np.ones(5), ev, 1.0)

    def test_matches_per_sample_tail_probabilities(self):
        s = np.array([0.5, -1.0, 2.0])
        ev = WaveformEval(s, np.zeros(3))
        r = np.array([1.0, -1.0, 1.0])
        expected = np.sum(np.log(norm.sf(-0.7 * r * s)))
        assert loglik_onebit(r, ev, 0.7) == pytest.approx(expected, rel=1e-12)


class TestIdealLikelihood:
    def test_matches_gaussian_density(self):
        rng = np.random.default_rng(5)
        s = rng.standard_normal(6)
        y = rng.standard_normal(6)
        ev = WaveformEval(s, np.zeros(6))
        expected = multivariate_normal(mean=0.8 * s, cov=np.eye(6)).logpdf(y)
        assert loglik_ideal(y, ev, 0.8) == pytest.approx(expected, rel=1e-12)
