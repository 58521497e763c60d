"""First-order autoregressive channel evolution model.

theta_k = alpha * theta_{k-1} + z_k with z_k ~ N(0, sigma^2) and an
initial prior theta_0 ~ N(mu0, sigma0^2).  alpha is restricted to
[0, 1) so the marginal variance converges to sigma^2 / (1 - alpha^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StateSpaceModel:
    alpha: float
    sigma: float
    mu0: float
    sigma0: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")
        for name in ("sigma", "sigma0"):
            value = float(getattr(self, name))
            # the bounds divide by the square: it must be a finite normal double
            if not (value > 0 and np.finfo(float).tiny <= value * value < np.inf):
                raise ValueError(f"{name} must be positive with a finite normal "
                                 f"square, got {value}")

    @property
    def stationary_variance(self) -> float:
        return self.sigma**2 / (1.0 - self.alpha**2)


def marginal_moments(model: StateSpaceModel, k):
    """Closed-form (mean, variance) of theta_k; k may be an array of indices.

    mean = alpha^k mu0; var = alpha^(2k) sigma0^2 + sigma^2 (1 - alpha^(2k))
    / (1 - alpha^2).  The geometric sum uses expm1 so that alpha close to
    one (e.g. 1 - 1e-7) keeps full precision.
    """
    k = np.asarray(k)
    if np.any(k < 0):
        raise ValueError(f"block indices must be nonnegative, got {k.min()}")
    if model.alpha == 0.0:
        # alpha^k is 1 at k = 0 and 0 after; the geometric sum is 1 - alpha^(2k)
        ak = a2k = (k == 0) * 1.0
        innov = model.sigma**2 * (1.0 - a2k)
    else:
        log_alpha = np.log(model.alpha)
        ak = np.exp(k * log_alpha)
        a2k = np.exp(2.0 * k * log_alpha)
        # (1 - alpha^(2k)) / (1 - alpha^2), via expm1 of the log
        innov = model.sigma**2 * -np.expm1(2.0 * k * log_alpha) / -np.expm1(2.0 * log_alpha)
    return model.mu0 * ak, a2k * model.sigma0**2 + innov


def sample_trajectory(model: StateSpaceModel, num_blocks: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Draw theta_0 .. theta_K (length K+1) from the state-space model."""
    if num_blocks < 1:
        raise ValueError(f"need at least one block, got {num_blocks}")
    theta = np.empty(num_blocks + 1)
    theta[0] = model.mu0 + model.sigma0 * rng.standard_normal()
    innovations = model.sigma * rng.standard_normal(num_blocks)
    for k in range(1, num_blocks + 1):
        theta[k] = model.alpha * theta[k - 1] + innovations[k - 1]
    return theta
