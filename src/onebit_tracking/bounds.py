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
    xi: float                   # asymptotic convergence factor
    k_lambda: int               # exact, from the closed-form solution
    k_lambda_ideal: int
    k_lambda_analytic: float    # -lambda / log10(xi), without the offset D
    k_lambda_ideal_analytic: float
    k_lambda_approx: float      # lambda / (2 log(sqrt(sigma^2 Fbar) + alpha))
    quality: float              # lambda
    conditions_ok: bool

    @property
    def delta(self) -> float:
        """Relative transient-phase delay of the 1-bit receiver."""
        return self.k_lambda / self.k_lambda_ideal


def bound_recursion(model: StateSpaceModel, fbar,
                    num_blocks: int) -> np.ndarray:
    """Run the information recursion; returns U_0 .. U_K (length K+1).

    fbar may be a scalar (stationary expected Fisher information) or a
    length-K sequence of per-block values Fbar_k for k = 1..K.
    """
    if np.ndim(fbar) == 0:
        fbar = np.full(num_blocks, fbar, dtype=float)
    fbar = np.asarray(fbar, dtype=float)
    if fbar.shape != (num_blocks,):
        raise ValueError(f"need {num_blocks} Fbar values, got {fbar.size}")
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


def slow_evolution_conditions(model: StateSpaceModel, fbar_onebit: float,
                              fbar_ideal: float) -> dict:
    """Numeric check of the slow-evolution regime.

    Each "much less than" is read as a ratio of at most MUCH_LESS_RATIO.
    Ratios cover the dominance of the cross term in the steady state
    (for the 1-bit receiver) and the requirement that the state-space
    information alpha^2/sigma^2 exceeds both expected Fisher values.
    """
    alpha, sigma = model.alpha, model.sigma
    a2s2 = alpha**2 / sigma**2
    ratios = {
        "cross_term_dominates": (1.0 - alpha**2) ** 2
                                / (alpha**2 * sigma**2 * max(fbar_onebit, np.finfo(float).tiny)),
        "state_space_dominates_onebit": fbar_onebit / a2s2,
        "state_space_dominates_ideal": fbar_ideal / a2s2,
    }
    return {"ratios": ratios,
            "satisfied": all(r <= MUCH_LESS_RATIO for r in ratios.values())}


@dataclass(frozen=True)
class SlowEvolutionLoss:
    rho: float                  # exact steady-state ratio U / U_inf
    rho_approx: float           # sqrt(Fbar / Fbar_inf)
    conditions_ok: bool


def slow_evolution_loss(fbar_onebit: float, fbar_ideal: float,
                        model: StateSpaceModel) -> SlowEvolutionLoss:
    """Exact steady-state loss rho and its slow-evolution approximation."""
    if fbar_onebit <= 0 or fbar_ideal <= 0:
        raise ValueError("expected Fisher information must be positive")
    rho = steady_state(model, fbar_onebit) / steady_state(model, fbar_ideal)
    approx = float(np.sqrt(fbar_onebit / fbar_ideal))
    cond = slow_evolution_conditions(model, fbar_onebit, fbar_ideal)
    return SlowEvolutionLoss(rho=rho, rho_approx=approx,
                             conditions_ok=cond["satisfied"])


def convergence_factor(model: StateSpaceModel, fbar: float) -> float:
    """Derivative of the recursion at its fixed point: alpha^2 (sigma^2 U + alpha^2)^-2."""
    u = steady_state(model, fbar)
    return float(model.alpha**2 / (model.sigma**2 * u + model.alpha**2) ** 2)


def _k_lambda(model: StateSpaceModel, fbar: float, quality: float) -> int:
    """Smallest k >= 1 with |U_k - U| <= eps |U_0 - U|, eps = 10^-quality.

    By the exact solution (see transient_report) that holds once
    xi^k <= eps (U_0 - U') / (U - U' + eps (U_0 - U)).
    """
    u = steady_state(model, fbar)
    u_neg = -fbar * model.alpha**2 / (model.sigma**2 * u)
    u0 = 1.0 / model.sigma0**2
    eps = 10.0 ** (-quality)
    if eps * abs(u0 - u) < np.finfo(float).eps * u:
        raise ValueError(f"no steady-state entry at quality {quality}: the "
                         "threshold is below the roundoff of the steady state")
    x_max = eps * (u0 - u_neg) / (u - u_neg + eps * (u0 - u))
    k = np.ceil(np.log(x_max) / np.log(convergence_factor(model, fbar)))
    return max(1, int(k))


def transient_report(model: StateSpaceModel, fbar_onebit: float,
                     fbar_ideal: float, quality: float) -> TransientReport:
    """Transient-phase duration K_lambda for both receivers.

    quality is the exponent lambda > 1 in the threshold 10^-lambda;
    matching that base-10 threshold, the asymptotic estimate of the
    duration is -lambda / log10(xi), i.e. -1/log10(xi) blocks per decade
    of error.  The recursion is a linear fractional map with fixed points
    U > 0 > U' = -Fbar alpha^2 / (sigma^2 U) and solves exactly to
    (U_k - U)/(U_k - U') = xi^k (U_0 - U)/(U_0 - U') (Anderson & Moore,
    Optimal Filtering, 1979), which gives K_lambda in closed form; a
    threshold below the roundoff of U is rejected.  K_lambda exceeds the
    estimate by a lambda-independent offset
    D = ln|(U - U')/(U_0 - U')| / |ln xi| plus less than one block of
    rounding; the estimate leaves D out.  The convergence order is
    linear (nu = 1) because the fixed-point derivative xi is nonzero.
    """
    if not (np.isfinite(quality) and quality > 1):
        raise ValueError(f"quality exponent must be finite and exceed 1, got {quality}")
    xi = convergence_factor(model, fbar_onebit)
    xi_ideal = convergence_factor(model, fbar_ideal)
    root = np.sqrt(model.sigma**2 * fbar_onebit) + model.alpha
    approx = quality / (2.0 * np.log(root)) if root > 1 else np.inf
    cond = slow_evolution_conditions(model, fbar_onebit, fbar_ideal)
    return TransientReport(
        xi=xi,
        k_lambda=_k_lambda(model, fbar_onebit, quality),
        k_lambda_ideal=_k_lambda(model, fbar_ideal, quality),
        k_lambda_analytic=float(-quality / np.log10(xi)),
        k_lambda_ideal_analytic=float(-quality / np.log10(xi_ideal)),
        k_lambda_approx=float(approx),
        quality=quality,
        conditions_ok=cond["satisfied"],
    )

