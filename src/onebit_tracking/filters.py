"""Block-recursive estimators: SIR particle filter and a Kalman oracle.

The particle filter uses the state transition density as importance
density, updates weights with the observation likelihood in the log
domain, estimates by the weighted particle mean, and resamples when the
effective sample size 1/sum(w^2) drops to kappa * L or below.  The
Kalman filter is exact for the linear-Gaussian pilot model and serves
as a test oracle.
"""

from __future__ import annotations

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


@dataclass
class ParticleCloud:
    particles: np.ndarray
    weights: np.ndarray

    def ess(self) -> float:
        """Effective number of particles, 1 / sum(w^2)."""
        return 1.0 / float(np.dot(self.weights, self.weights))

    def mean(self) -> float:
        return float(np.dot(self.weights, self.particles))


def pf_init(config: ParticleFilterConfig, mu0: float, sigma0: float,
            rng: np.random.Generator) -> ParticleCloud:
    """Draw L particles from the initial prior with uniform weights."""
    if sigma0 < 0:
        raise ValueError("sigma0 must be nonnegative")
    ell = config.num_particles
    particles = mu0 + sigma0 * rng.standard_normal(ell)
    return ParticleCloud(particles, np.full(ell, 1.0 / ell))


def systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Systematic resampling: one uniform offset, L evenly spaced positions."""
    ell = weights.size
    positions = (rng.random() + np.arange(ell)) / ell
    # a cumsum that rounds to just below 1 leaves the top position past it
    return np.minimum(np.searchsorted(np.cumsum(weights), positions), ell - 1)


def pf_step(cloud: ParticleCloud, model: StateSpaceModel, observation,
            loglik, config: ParticleFilterConfig,
            rng: np.random.Generator) -> tuple[ParticleCloud, float]:
    """One SIR block update; returns the new cloud and the block estimate.

    loglik(observation, particles) must return per-particle block
    log-likelihoods (an additive constant is irrelevant).  The estimate
    is the weighted mean formed before any resampling.
    """
    # propagate through the transition prior
    particles = (model.alpha * cloud.particles
                 + model.sigma * rng.standard_normal(cloud.particles.size))
    logw = np.log(cloud.weights, out=np.full_like(cloud.weights, -np.inf),
                  where=cloud.weights > 0)
    logw = logw + loglik(observation, particles)
    shift = np.max(logw)
    if not np.isfinite(shift):
        raise DegenerateCloudError("all particle weights vanished")
    w = np.exp(logw - shift)
    w /= w.sum()
    new_cloud = ParticleCloud(particles, w)
    estimate = new_cloud.mean()
    if new_cloud.ess() <= config.resample_threshold * config.num_particles:
        idx = systematic_resample(w, rng)
        new_cloud = ParticleCloud(particles[idx],
                                  np.full(w.size, 1.0 / w.size))
    return new_cloud, estimate


def kalman_step(state: tuple[float, float], model: StateSpaceModel,
                y: np.ndarray, pilot: np.ndarray,
                gamma: float) -> tuple[float, float]:
    """Exact posterior update for y = gamma * theta * pilot + noise.

    state is the previous posterior (mean, variance); the predict stage
    applies the AR(1) transition, the update stage the linear
    measurement with unit noise covariance.
    """
    mean, var = state
    if var <= 0:
        raise ValueError("posterior variance must be positive")
    mean = model.alpha * mean
    var = model.alpha**2 * var + model.sigma**2
    h = gamma * np.asarray(pilot, dtype=float)
    s = float(np.dot(h, h))
    if s == 0.0:
        return mean, var          # zero-information block: pure prediction
    # information-form update avoids the explicit gain vector
    post_var = 1.0 / (1.0 / var + s)
    post_mean = post_var * (mean / var + float(np.dot(h, y)))
    return post_mean, post_var
