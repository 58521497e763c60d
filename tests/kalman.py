"""Kalman oracle for the linear-Gaussian pilot model.

For y = gamma * theta * pilot + noise with unit-variance Gaussian noise
and the AR(1) state model, the Kalman filter gives the exact posterior,
so its variance is the ideal receiver's tracking bound and its mean is
what a large particle cloud must approach.
"""

import numpy as np


def kalman_step(state: tuple[float, float], model, y: np.ndarray,
                pilot: np.ndarray, gamma: float) -> tuple[float, float]:
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
