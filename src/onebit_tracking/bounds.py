"""Recursive Bayesian Cramer-Rao tracking bound and its asymptotics.

The tracking information measure obeys

    U_k = (sigma^2 + alpha^2 / U_{k-1})^{-1} + Fbar_k,   U_0 = 1/sigma0^2,

equivalently assembled from the transition-score moment terms
D11 = alpha^2/sigma^2, D12 = D21 = -alpha/sigma^2,
D22 = 1/sigma^2 + Fbar_k.  1/U_k lower-bounds the filtering MSE at
block k.  This module provides the recursion, the closed-form steady
state, the steady-state 1-bit loss rho, and the transient-phase report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .state_space import StateSpaceModel

# Numeric reading of "much smaller than" for the asymptotic-regime checks.
MUCH_LESS_RATIO = 0.01


def db(ratio) -> float:
    """Information ratio in decibels."""
    return 10.0 * np.log10(ratio)


@dataclass(frozen=True)
class BoundTrajectory:
    """Per-block tracking information U_0 .. U_K and its steady state,
    one row per receiver: 1-bit first, ideal second."""

    u: np.ndarray               # (2, K+1)
    steady: np.ndarray          # (2,)

    @property
    def rho(self) -> np.ndarray:
        return self.u[0] / self.u[1]

    @property
    def rho_steady(self) -> float:
        return float(self.steady[0] / self.steady[1])


@dataclass(frozen=True)
class TransientReport:
    """Transient-phase durations and steady state, one entry per receiver:
    1-bit first, ideal second."""

    xi: np.ndarray                  # (2,) asymptotic convergence factor
    k_lambda: np.ndarray            # (2,) exact, from the closed-form solution
    k_lambda_analytic: np.ndarray   # (2,) -lambda / log10(xi), without the offset D
    steady: np.ndarray              # (2,) steady-state information U
    k_lambda_approx: float          # lambda / (2 log(sqrt(sigma^2 Fbar) + alpha))
    rho_approx: float               # sqrt(Fbar / Fbar_inf)
    conditions_ok: bool             # the slow-evolution regime holds

    @property
    def delta(self) -> float:
        """Relative transient-phase delay of the 1-bit receiver."""
        return float(self.k_lambda[0] / self.k_lambda[1])

    @property
    def rho(self) -> float:
        """Exact steady-state loss U / U_inf."""
        return float(self.steady[0] / self.steady[1])


def bound_recursion(model: StateSpaceModel, fbar) -> np.ndarray:
    """Run the information recursion over the per-block expected Fisher
    information Fbar_1 .. Fbar_K (a 1-d sequence); returns U_0 .. U_K."""
    fbar = np.asarray(fbar, dtype=float)
    if fbar.ndim != 1:
        raise ValueError(f"Fbar must be 1-d, got shape {fbar.shape}")
    if np.any(fbar < 0):
        raise ValueError("Fbar must be nonnegative")
    # Python floats: the same IEEE operations as on numpy scalars, without
    # their per-element overhead
    alpha2, sigma2 = float(model.alpha**2), float(model.sigma**2)
    u = [float(1.0 / model.sigma0**2)]
    for f in fbar.tolist():
        u.append(1.0 / (sigma2 + alpha2 / u[-1]) + f)
    return np.array(u)


def steady_state(model: StateSpaceModel, fbar: float) -> float:
    """Closed-form fixed point U of the recursion for constant Fbar; a U
    that is not finite (a sigma too small for it) raises ValueError."""
    if fbar < 0:
        raise ValueError("Fbar must be nonnegative")
    # on Python floats an overflowing product is inf, without a warning
    alpha, sigma, fbar = float(model.alpha), float(model.sigma), float(fbar)
    t = 0.5 * (1.0 - alpha**2) / sigma**2 + 0.5 * fbar
    u = float(t + np.sqrt(t * t + alpha**2 * fbar / sigma**2))
    if not np.isfinite(u):
        raise ValueError(f"steady-state information is not finite at sigma {sigma}")
    return u


def transient_report(model: StateSpaceModel, fbar_onebit: float,
                     fbar_ideal: float, quality: float) -> TransientReport:
    """Transient-phase duration K_lambda, steady state and the
    slow-evolution regime for both receivers, one steady-state solve each.

    quality is the exponent lambda > 1 in the threshold 10^-lambda.  The
    recursion is a linear fractional map with fixed points U > 0 > U' =
    -Fbar alpha^2 / (sigma^2 U) and multiplier xi = alpha^2 (sigma^2 U +
    alpha^2)^-2, and solves exactly to (U_k - U)/(U_k - U') =
    xi^k (U_0 - U)/(U_0 - U') (Anderson & Moore, Optimal Filtering,
    1979), so K_lambda is the smallest k >= 1 with xi^k <= eps (U_0 - U')
    / (U - U' + eps (U_0 - U)), eps = 10^-lambda; a threshold below the
    roundoff of U is rejected.  The estimate -lambda / log10(xi) leaves
    out the lambda-free offset D = ln|(U - U')/(U_0 - U')| / |ln xi|.
    xi = 0 (alpha = 0, where U_1 = U, or sigma^2 U overflowing) gives
    K_lambda = 1 and the estimate 0, the limit of -lambda / log10(xi).
    Each "much less than" of the regime is a ratio of at most r =
    MUCH_LESS_RATIO, compared as products: (1 - alpha^2)^2 <= r alpha^2
    sigma^2 Fbar and sigma^2 max(Fbar, Fbar_inf) <= r alpha^2.
    """
    if not (np.isfinite(quality) and quality > 1):
        raise ValueError(f"quality exponent must be finite and exceed 1, got {quality}")
    if fbar_onebit <= 0 or fbar_ideal <= 0:
        raise ValueError("expected Fisher information must be positive")
    # Python floats: an overflowing product is inf, without a warning
    fbar = (float(fbar_onebit), float(fbar_ideal))
    alpha2, sigma2 = float(model.alpha) ** 2, float(model.sigma) ** 2
    u0 = 1.0 / model.sigma0**2
    eps = 10.0 ** (-quality)
    steady, xi, k_lambda, analytic = [], [], [], []
    for f in fbar:
        u = steady_state(model, f)
        if eps * abs(u0 - u) < np.finfo(float).eps * u:
            raise ValueError(f"no steady-state entry at quality {quality}: the "
                             "threshold is below the roundoff of the steady state")
        w = sigma2 * u + alpha2
        u_neg = -f * alpha2 / (sigma2 * u)
        x_max = eps * (u0 - u_neg) / (u - u_neg + eps * (u0 - u))
        steady.append(u)
        xi.append(alpha2 / (w * w))
        with np.errstate(divide="ignore"):     # log(0) = -inf at xi = 0
            k_lambda.append(max(1, int(np.ceil(np.log(x_max) / np.log(xi[-1])))))
            analytic.append(float(-quality / np.log10(xi[-1])))
    root = np.sqrt(sigma2 * fbar[0]) + model.alpha
    r = MUCH_LESS_RATIO
    return TransientReport(
        xi=np.array(xi), k_lambda=np.array(k_lambda),
        k_lambda_analytic=np.array(analytic), steady=np.array(steady),
        k_lambda_approx=float(quality / (2.0 * np.log(root)) if root > 1 else np.inf),
        rho_approx=float(np.sqrt(fbar[0] / fbar[1])),
        conditions_ok=bool((1.0 - alpha2) ** 2 <= r * alpha2 * sigma2 * fbar[0]
                           and sigma2 * max(fbar) <= r * alpha2))
