"""Tracking-performance bounds and simulations for 1-bit quantized receivers.

The package computes Fisher/Bayesian information measures and recursive
tracking bounds for receivers that observe only the sign of each sample,
and verifies them by Monte-Carlo particle-filter simulation on built-in
satellite-ranging and channel-gain scenarios.  Everything else is
imported from its submodule.
"""

from .bounds import (BoundTrajectory, TransientReport, bound_recursion,
                     bound_trajectory, db, slow_evolution_loss, steady_state,
                     transient_report)
from .channel import loglik_ideal, loglik_onebit
from .experiments import (MonteCarloResult, Scenario, builtin_scenario,
                          finite_k_loss, run_bounds, run_montecarlo,
                          steady_fbar, sweep_beta)
from .fastlik import make_likelihood
from .filters import (DegenerateCloudError, ParticleCloud,
                      ParticleFilterConfig, kalman_step, pf_init, pf_step)
from .info import bayes_report, expected_fisher, fisher_ideal, fisher_onebit
from .signals import (CodeSequence, generate_gps_ca_code, make_delay_waveform,
                      make_pilot_waveform)
from .state_space import StateSpaceModel

__version__ = "0.1.0"

__all__ = [
    "BoundTrajectory", "CodeSequence", "DegenerateCloudError",
    "MonteCarloResult", "ParticleCloud", "ParticleFilterConfig", "Scenario",
    "StateSpaceModel", "TransientReport", "bayes_report", "bound_recursion",
    "bound_trajectory", "builtin_scenario", "db", "expected_fisher",
    "finite_k_loss", "fisher_ideal", "fisher_onebit", "generate_gps_ca_code",
    "kalman_step", "loglik_ideal", "loglik_onebit", "make_delay_waveform",
    "make_likelihood", "make_pilot_waveform", "pf_init", "pf_step",
    "run_bounds", "run_montecarlo", "slow_evolution_loss", "steady_fbar",
    "steady_state", "sweep_beta", "transient_report",
]
