"""Block-recursive SIR particle filter.

The filter uses the state transition density as importance density,
updates weights with the observation likelihood in the log domain,
estimates by the weighted particle mean, and resamples when the
effective sample size 1/sum(w^2) drops to kappa * L or below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .state_space import StateSpaceModel


class DegenerateCloudError(RuntimeError):
    """All particle weights underflowed to zero; the trial is unusable."""


@dataclass(frozen=True)
class ParticleFilterConfig:
    num_particles: int = 100
    resample_threshold: float = 0.66     # kappa, fraction of L

    def __post_init__(self):
        if self.num_particles < 2:
            raise ValueError("need at least 2 particles")
        if not 0.0 < self.resample_threshold <= 1.0:
            raise ValueError(f"kappa must be in (0, 1], got {self.resample_threshold}")


def pf_init(config: ParticleFilterConfig, mu0: float, sigma0: float,
            rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw L particles from the initial prior; returns (particles, weights)
    with uniform weights."""
    if sigma0 < 0:
        raise ValueError("sigma0 must be nonnegative")
    ell = config.num_particles
    particles = mu0 + sigma0 * rng.standard_normal(ell)
    return particles, np.full(ell, 1.0 / ell)


def systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Systematic resampling: one uniform offset, L evenly spaced positions."""
    ell = weights.size
    positions = (rng.random() + np.arange(ell)) / ell
    # a cumsum that rounds to just below 1 leaves the top position past it
    return np.minimum(weights.cumsum().searchsorted(positions), ell - 1)


def pf_step(particles: np.ndarray, weights: np.ndarray,
            model: StateSpaceModel, observation, loglik,
            config: ParticleFilterConfig, rng: np.random.Generator
            ) -> tuple[np.ndarray, np.ndarray, float]:
    """One SIR block update; returns (particles, weights, estimate).

    loglik(observation, particles) must return per-particle block
    log-likelihoods (an additive constant is irrelevant).  The estimate
    is the weighted mean formed before any resampling.
    """
    # propagate through the transition prior
    particles = (model.alpha * particles
                 + model.sigma * rng.standard_normal(particles.size))
    with np.errstate(divide="ignore"):     # a zero weight stays -inf
        logw = np.log(weights)
    logw += loglik(observation, particles)
    shift = logw.max()
    if not math.isfinite(shift):
        raise DegenerateCloudError("all particle weights vanished")
    logw -= shift
    w = np.exp(logw, out=logw)
    w /= w.sum()
    estimate = float(np.dot(w, particles))
    ess = 1.0 / float(np.dot(w, w))
    if ess <= config.resample_threshold * config.num_particles:
        particles = particles[systematic_resample(w, rng)]
        w = np.full(w.size, 1.0 / w.size)
    return particles, w, estimate
