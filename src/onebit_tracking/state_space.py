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
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if not (np.isfinite(self.sigma0) and self.sigma0 > 0):
            raise ValueError(f"sigma0 must be finite and positive, got {self.sigma0}")

    @property
    def stationary_variance(self) -> float:
        return self.sigma**2 / (1.0 - self.alpha**2)

    def scaled(self, factor: float) -> "StateSpaceModel":
        """Model for theta expressed in units scaled by the given factor."""
        return StateSpaceModel(self.alpha, self.sigma * factor,
                               self.mu0 * factor, self.sigma0 * factor)


def marginal_moments(model: StateSpaceModel, k: int) -> tuple[float, float]:
    """Closed-form (mean, variance) of theta_k.

    mean = alpha^k mu0; var = alpha^(2k) sigma0^2 + sigma^2 (1 - alpha^(2k))
    / (1 - alpha^2).  The geometric sum uses expm1 so that alpha close to
    one (e.g. 1 - 1e-7) keeps full precision.
    """
    if k < 0:
        raise ValueError(f"block index must be nonnegative, got {k}")
    a2k = np.exp(2.0 * k * np.log(model.alpha)) if model.alpha > 0 else (1.0 if k == 0 else 0.0)
    mean = model.mu0 * np.exp(k * np.log(model.alpha)) if model.alpha > 0 else (model.mu0 if k == 0 else 0.0)
    if model.alpha == 0.0:
        innov = model.sigma**2 if k >= 1 else 0.0
    else:
        # (1 - alpha^(2k)) / (1 - alpha^2), via expm1 of the log
        num = -np.expm1(2.0 * k * np.log(model.alpha))
        den = -np.expm1(2.0 * np.log(model.alpha))
        innov = model.sigma**2 * num / den
    return float(mean), float(a2k * model.sigma0**2 + innov)


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


def transition_logpdf(model: StateSpaceModel, theta_k, theta_prev):
    """log p(theta_k | theta_{k-1}), elementwise over arrays."""
    resid = np.asarray(theta_k) - model.alpha * np.asarray(theta_prev)
    return (-0.5 * np.log(2.0 * np.pi) - np.log(model.sigma)
            - 0.5 * (resid / model.sigma) ** 2)
