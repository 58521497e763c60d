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
    """Per-block tracking information for the 1-bit and ideal receivers."""

    u_onebit: np.ndarray
    u_ideal: np.ndarray
    steady_onebit: float
    steady_ideal: float

    @property
    def rho(self) -> np.ndarray:
        return self.u_onebit / self.u_ideal

    @property
    def rho_steady(self) -> float:
        return self.steady_onebit / self.steady_ideal


@dataclass(frozen=True)
class TransientReport:
    xi: float                   # asymptotic convergence factor
    k_lambda: int               # empirical, recursion until threshold
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
                    num_blocks: int = None) -> np.ndarray:
    """Run the information recursion; returns U_0 .. U_K (length K+1).

    fbar may be a scalar (stationary expected Fisher information) or a
    length-K sequence of per-block values Fbar_k for k = 1..K.
    """
    fbar = np.atleast_1d(np.asarray(fbar, dtype=float))
    if num_blocks is None:
        num_blocks = fbar.size
    if fbar.size == 1:
        fbar = np.full(num_blocks, fbar[0])
    if fbar.size != num_blocks:
        raise ValueError(f"need {num_blocks} Fbar values, got {fbar.size}")
    if np.any(fbar < 0):
        raise ValueError("Fbar must be nonnegative")
    alpha, sigma = model.alpha, model.sigma
    u = np.empty(num_blocks + 1)
    u[0] = 1.0 / model.sigma0**2
    for k in range(1, num_blocks + 1):
        u[k] = 1.0 / (sigma**2 + alpha**2 / u[k - 1]) + fbar[k - 1]
    return u


def steady_state(model: StateSpaceModel, fbar: float) -> float:
    """Closed-form fixed point U of the recursion for constant Fbar."""
    if fbar < 0:
        raise ValueError("Fbar must be nonnegative")
    alpha, sigma = model.alpha, model.sigma
    t = 0.5 * (1.0 - alpha**2) / sigma**2 + 0.5 * fbar
    return float(t + np.sqrt(t * t + alpha**2 * fbar / sigma**2))


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

    @property
    def gap(self) -> float:
        return self.rho - self.rho_approx


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


def _empirical_k_lambda(model: StateSpaceModel, fbar: float, quality: float,
                        max_blocks: int = 20_000_000) -> int:
    """Smallest k >= 1 with |U_k - U| <= 10^-quality |U_0 - U|."""
    u_star = steady_state(model, fbar)
    u0 = 1.0 / model.sigma0**2
    threshold = 10.0 ** (-quality) * abs(u0 - u_star)
    u = u0
    alpha2, sigma2 = model.alpha**2, model.sigma**2
    for k in range(1, max_blocks + 1):
        u = 1.0 / (sigma2 + alpha2 / u) + fbar
        if abs(u - u_star) <= threshold:
            return k
    raise ValueError(f"no steady-state entry within {max_blocks} blocks "
                     f"at quality {quality}")


def transient_report(model: StateSpaceModel, fbar_onebit: float,
                     fbar_ideal: float, quality: float) -> TransientReport:
    """Transient-phase duration K_lambda for both receivers.

    quality is the exponent lambda > 1 in the threshold 10^-lambda;
    matching that base-10 threshold, the asymptotic estimate of the
    duration is -lambda / log10(xi), i.e. -1/log10(xi) blocks per decade
    of error.  The recursion is a linear fractional map with fixed points
    U > 0 > U' and solves exactly to (U_k - U)/(U_k - U') =
    xi^k (U_0 - U)/(U_0 - U'), so the empirical K_lambda exceeds the
    estimate by a lambda-independent offset
    D = ln|(U - U')/(U_0 - U')| / |ln xi| plus less than one block of
    rounding; the estimate leaves D out.  The convergence order is
    linear (nu = 1) because the fixed-point derivative xi is nonzero.
    """
    if not (np.isfinite(quality) and quality > 1):
        raise ValueError(f"quality exponent must be finite and exceed 1, got {quality}")
    xi = convergence_factor(model, fbar_onebit)
    xi_ideal = convergence_factor(model, fbar_ideal)
    k_emp = _empirical_k_lambda(model, fbar_onebit, quality)
    k_emp_ideal = _empirical_k_lambda(model, fbar_ideal, quality)
    root = np.sqrt(model.sigma**2 * fbar_onebit) + model.alpha
    approx = quality / (2.0 * np.log(root)) if root > 1 else np.inf
    cond = slow_evolution_conditions(model, fbar_onebit, fbar_ideal)
    return TransientReport(
        xi=xi,
        k_lambda=k_emp, k_lambda_ideal=k_emp_ideal,
        k_lambda_analytic=float(-quality / np.log10(xi)),
        k_lambda_ideal_analytic=float(-quality / np.log10(xi_ideal)),
        k_lambda_approx=float(approx),
        quality=quality,
        conditions_ok=cond["satisfied"],
    )


def bound_trajectory(model: StateSpaceModel, fbar_onebit, fbar_ideal,
                     num_blocks: int) -> BoundTrajectory:
    """Bound recursion for both receivers plus their steady states."""
    fb1 = np.atleast_1d(np.asarray(fbar_onebit, dtype=float))
    fbi = np.atleast_1d(np.asarray(fbar_ideal, dtype=float))
    return BoundTrajectory(
        u_onebit=bound_recursion(model, fb1, num_blocks),
        u_ideal=bound_recursion(model, fbi, num_blocks),
        steady_onebit=steady_state(model, float(fb1[-1])),
        steady_ideal=steady_state(model, float(fbi[-1])),
    )
