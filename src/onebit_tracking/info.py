"""Fisher and Bayesian information for the 1-bit and ideal receivers.

The closed-form 1-bit Fisher information is

    F(theta) = (gamma^2 / 2 pi) * sum_n (s'_n)^2 exp(-gamma^2 s_n^2)
                                        / (Q(gamma s_n) Q(-gamma s_n)),

against the ideal-receiver reference F_inf(theta) = gamma^2 ||s'||^2.
Expectations over a Gaussian parameter distribution use Gauss-Hermite
quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import log_q
from .signals import WaveformEval

# Gauss-Hermite nodes of the expectation over a Gaussian parameter
QUADRATURE_NODES = 33


@dataclass(frozen=True)
class BayesReport:
    jbar_onebit: float      # F-bar + J_p
    jbar_ideal: float       # F-bar_inf + J_p

    @property
    def psi(self) -> float:
        """Bayesian 1-bit information loss J / J_inf."""
        return self.jbar_onebit / self.jbar_ideal


def log_q_pair(x):
    """(log Q(|x|), log Q(-|x|)) from one log_q call.

    With a = log Q(|x|) <= log 1/2, the other tail is log(1 - e^a) =
    log1p(-e^a), accurate for every a <= -log 2 (Maechler 2012).
    """
    a = log_q(np.abs(x))
    return a, np.log1p(-np.exp(a))


def onebit_summands(s, ds, gamma):
    """Per-sample contributions to the 1-bit Fisher information.

    Each term is evaluated as exp(-g^2 s^2 - log(Q(g s) Q(-g s))) so the
    Q-product in the denominator survives |gamma * s| well beyond 8; both
    factors come from one log_q call (log_q_pair).
    """
    gs = gamma * s
    tail, body = log_q_pair(gs)
    log_term = -gs * gs - tail - body
    del tail, body      # not held through the products below
    return (gamma**2 / (2.0 * np.pi)) * ds * ds * np.exp(log_term)


def fisher_onebit(ev: WaveformEval, gamma: float) -> float:
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    return float(np.sum(onebit_summands(ev.s, ev.ds_dtheta, gamma)))


def fisher_ideal(ev: WaveformEval, gamma: float) -> float:
    return float(gamma**2 * np.dot(ev.ds_dtheta, ev.ds_dtheta))


def expected_fisher(waveform, gamma: float, mean, var) -> np.ndarray:
    """1-bit E[F(theta)] for theta ~ N(mean, var) on a linear-gain pilot.

    mean and var hold one entry per block; the Gauss-Hermite nodes of all
    blocks form one array.  With s = theta p, the 1-bit summands see the
    pilot only through its distinct nonzero magnitudes and their counts.
    """
    mean, var = np.asarray(mean, dtype=float), np.asarray(var, dtype=float)
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(var))):
        raise ValueError("distribution moments must be finite")
    if np.any(var < 0):
        raise ValueError("variance must be nonnegative")
    pilot = waveform.pilot
    values, counts = np.unique(np.abs(pilot[pilot != 0]), return_counts=True)
    x, w = np.polynomial.hermite.hermgauss(QUADRATURE_NODES)
    thetas = mean[..., None] + np.sqrt(2.0 * var)[..., None] * x
    # elementwise products and numpy's pairwise sums, not BLAS products: a
    # point's value is then the same whatever other points share the call
    fisher = (onebit_summands(thetas[..., None] * values, values, gamma)
              * counts).sum(-1)
    return (fisher * w).sum(-1) / np.sqrt(np.pi)


def bayes_report(fbar_onebit: float, fbar_ideal: float, j_prior: float) -> BayesReport:
    """Assemble J = F-bar + J_p for both receivers."""
    if min(fbar_onebit, fbar_ideal, j_prior) < 0:
        raise ValueError("information terms must be nonnegative")
    j = fbar_onebit + j_prior
    j_inf = fbar_ideal + j_prior
    if j == 0.0 and j_inf == 0.0:
        raise ZeroDivisionError("both receivers carry zero information; psi undefined")
    return BayesReport(jbar_onebit=j, jbar_ideal=j_inf)
