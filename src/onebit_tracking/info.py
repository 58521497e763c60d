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

DEFAULT_QUADRATURE_NODES = 33


@dataclass(frozen=True)
class InfoReport:
    fisher_onebit: float
    fisher_ideal: float

    @property
    def chi(self) -> float:
        """Block-wise 1-bit information loss F / F_inf."""
        return self.fisher_onebit / self.fisher_ideal


@dataclass(frozen=True)
class BayesReport:
    jbar_onebit: float      # F-bar + J_p
    jbar_ideal: float       # F-bar_inf + J_p
    j_prior: float

    @property
    def psi(self) -> float:
        """Bayesian 1-bit information loss J / J_inf."""
        return self.jbar_onebit / self.jbar_ideal


def onebit_summands(s, ds, gamma):
    """Per-sample contributions to the 1-bit Fisher information.

    Each term is evaluated as exp(-g^2 s^2 - log Q(g s) - log Q(-g s)) so
    the Q-product in the denominator survives |gamma * s| well beyond 8.
    """
    gs = gamma * s
    log_term = -gs * gs - log_q(gs) - log_q(-gs)
    return (gamma**2 / (2.0 * np.pi)) * ds * ds * np.exp(log_term)


def fisher_onebit(ev: WaveformEval, gamma: float) -> float:
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    return float(np.sum(onebit_summands(ev.s, ev.ds_dtheta, gamma)))


def fisher_ideal(ev: WaveformEval, gamma: float) -> float:
    return float(gamma**2 * np.dot(ev.ds_dtheta, ev.ds_dtheta))


def info_report(ev: WaveformEval, gamma: float) -> InfoReport:
    return InfoReport(fisher_onebit(ev, gamma), fisher_ideal(ev, gamma))


def expected_fisher(waveform, gamma: float, mean: float, var: float,
                    receiver: str = "onebit",
                    nodes: int = DEFAULT_QUADRATURE_NODES) -> float:
    """E[F(theta)] for theta ~ N(mean, var), by Gauss-Hermite quadrature.

    var = 0 degenerates to a point evaluation at the mean.
    """
    if not (np.isfinite(mean) and np.isfinite(var)):
        raise ValueError("distribution moments must be finite")
    if var < 0:
        raise ValueError(f"variance must be nonnegative, got {var}")
    if receiver == "onebit":
        fisher = fisher_onebit
    elif receiver == "ideal":
        fisher = fisher_ideal
    else:
        raise ValueError(f"unknown receiver {receiver!r}")
    if var == 0.0:
        return fisher(waveform.eval(mean), gamma)
    x, w = np.polynomial.hermite.hermgauss(nodes)
    thetas = mean + np.sqrt(2.0 * var) * x
    values = [fisher(waveform.eval(t), gamma) for t in thetas]
    return float(np.dot(w, values) / np.sqrt(np.pi))


def bayes_report(fbar_onebit: float, fbar_ideal: float, j_prior: float) -> BayesReport:
    """Assemble J = F-bar + J_p for both receivers."""
    if min(fbar_onebit, fbar_ideal, j_prior) < 0:
        raise ValueError("information terms must be nonnegative")
    j = fbar_onebit + j_prior
    j_inf = fbar_ideal + j_prior
    if j == 0.0 and j_inf == 0.0:
        raise ZeroDivisionError("both receivers carry zero information; psi undefined")
    return BayesReport(jbar_onebit=j, jbar_ideal=j_inf, j_prior=j_prior)
