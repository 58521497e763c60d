"""Noise substreams and the exact receiver log-likelihoods.

The ideal receiver sees y_k = gamma * s(theta_k) + eta_k with unit
variance white Gaussian noise; the 1-bit receiver sees only the sample
signs r_k = sign(y_k), with sign(0) = +1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from .signals import WaveformEval


def log_q(x):
    """log of the Gaussian tail probability Q(x), stable far into the tail.

    Q(x) = 1 - Phi(x) = Phi(-x); scipy's log_ndtr switches to a scaled
    erfc evaluation in the tail, so log Q(40) is finite (about -804.6)
    instead of underflowing to -inf.
    """
    return log_ndtr(-np.asarray(x, dtype=float))


def sign_bit(x):
    """Elementwise hard limiter: +1 for x >= 0, -1 otherwise."""
    return np.where(np.asarray(x) >= 0, 1.0, -1.0)


@dataclass(frozen=True)
class NoiseModel:
    """Unit-variance white Gaussian noise with a reproducible substream layout.

    Streams are counter-based (Philox): a stream position tuple selects an
    independent substream of the master seed, so concurrent samplers with
    disjoint positions produce reproducible, non-overlapping noise no
    matter how work is scheduled.
    """

    seed: int

    def generator(self, stream_position: tuple) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=tuple(stream_position))
        return np.random.Generator(np.random.Philox(ss))


def loglik_onebit(r: np.ndarray, ev: WaveformEval, gamma: float) -> float:
    """Exact 1-bit log-likelihood sum_n log Q(-gamma r_n s_n)."""
    r = np.asarray(r, dtype=float)
    if r.shape != ev.s.shape:
        raise ValueError(f"observation length {r.shape} != signal length {ev.s.shape}")
    return float(np.sum(log_q(-gamma * r * ev.s)))


def loglik_ideal(y: np.ndarray, ev: WaveformEval, gamma: float) -> float:
    """Gaussian log-density of the unquantized block observation."""
    y = np.asarray(y, dtype=float)
    if y.shape != ev.s.shape:
        raise ValueError(f"observation length {y.shape} != signal length {ev.s.shape}")
    resid = y - gamma * ev.s
    n = y.size
    return float(-0.5 * n * np.log(2.0 * np.pi) - 0.5 * np.dot(resid, resid))
