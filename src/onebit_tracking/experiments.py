"""Built-in scenarios, bound evaluation, and the Monte-Carlo harness.

Three scenarios are provided:

* "ranging": delay tracking of a 1023-chip satellite spreading code at
  SNR -15 dB, reported in meters,
* "uwb": gain tracking of a short wideband pilot at SNR -15 dB,
* "mobile": gain tracking of the same pilot at SNR 6 dB, used for the
  steady-state loss sweep over the evolution rate beta = 1 - alpha.

The Monte-Carlo runner simulates both receivers' particle filters over
P state trajectories times R noise realizations.  Every random draw
comes from a counter-based substream addressed by (trajectory,
realization, role), so results are bit-identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .bounds import BoundTrajectory, bound_trajectory, db, steady_state
from .channel import NoiseModel, sign_bit
from .fastlik import make_likelihood
from .filters import (DegenerateCloudError, ParticleFilterConfig, pf_init,
                      pf_step)
from .info import bayes_report, expected_fisher, fisher_ideal, fisher_onebit
from .signals import (CodeSequence, generate_gps_ca_code, make_delay_waveform,
                      make_pilot_waveform)
from .state_space import StateSpaceModel, marginal_moments, sample_trajectory

SPEED_OF_LIGHT = 299_792_458.0

# fractional delays per chip used to average the delay-dependent Fisher
# information (exactly periodic in one chip by code cyclicity)
DELAY_AVERAGE_POINTS = 64

# pilot symbols for the gain-tracking scenarios; the circular pair of
# equal adjacent symbols keeps the Nyquist-pulse midpoint samples active
_PILOT_SYMBOLS = (1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0)

SCENARIO_NAMES = ("ranging", "uwb", "mobile")


@dataclass(frozen=True)
class Scenario:
    """Fully-populated experiment definition."""

    name: str
    kind: str                   # "delay" or "linear"
    waveform: object
    snr_db: float
    gamma: float                # amplitude, 10^(snr_db/20)
    state: StateSpaceModel      # in theta_unit
    blocks: int
    theta_unit: str             # "seconds" or "dimensionless"
    report_unit: str            # "meters" or "native"
    chip_duration: float
    pf: ParticleFilterConfig
    default_processes: int = 20
    default_realizations: int = 50

    def __post_init__(self):
        if not np.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")
        if self.blocks < 1:
            raise ValueError(f"need at least one block, got {self.blocks}")
        if abs(self.gamma - 10.0 ** (self.snr_db / 20.0)) > 1e-12 * self.gamma:
            raise ValueError("gamma inconsistent with snr_db")

    @property
    def snr(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)

    @property
    def likelihood_gamma(self) -> float:
        """Amplitude seen by the likelihood; the gain scenarios carry it in theta."""
        return self.gamma if self.kind == "delay" else 1.0

    def unit_scale(self, unit: str) -> float:
        """Multiplier taking theta-unit values to the requested unit."""
        if self.theta_unit == "seconds":
            scales = {"seconds": 1.0,
                      "chips": 1.0 / self.chip_duration,
                      "meters": SPEED_OF_LIGHT,
                      "native": 1.0}
        else:
            scales = {"native": 1.0, "dimensionless": 1.0}
        if unit not in scales:
            raise ValueError(f"unit {unit!r} not applicable to scenario {self.name!r}")
        return scales[unit]

    @property
    def report_scale(self) -> float:
        return self.unit_scale(self.report_unit)


def builtin_scenario(name: str, snr_db: float = None, alpha: float = None,
                     sigma: float = None, blocks: int = None,
                     particles: int = None, kappa: float = None) -> Scenario:
    """Construct a named scenario, optionally overriding key parameters.

    For the gain scenarios the innovation scale, initial mean and
    amplitude are re-derived from snr_db / alpha unless sigma is given
    explicitly.
    """
    pf = ParticleFilterConfig(
        num_particles=100 if particles is None else particles,
        resample_threshold=0.66 if kappa is None else kappa)
    if name == "ranging":
        snr_db = -15.0 if snr_db is None else snr_db
        alpha = 1.0 - 1e-3 if alpha is None else alpha
        code = generate_gps_ca_code(5)
        tc = code.chip_duration
        sigma = 1e-3 * tc if sigma is None else sigma
        state = StateSpaceModel(alpha=alpha, sigma=sigma,
                                mu0=398.7342 * tc, sigma0=0.1 * tc)
        return Scenario(
            name=name, kind="delay", waveform=make_delay_waveform(code),
            snr_db=snr_db, gamma=10.0 ** (snr_db / 20.0), state=state,
            blocks=250 if blocks is None else blocks, pf=pf,
            theta_unit="seconds", report_unit="meters", chip_duration=tc,
        )
    if name in ("uwb", "mobile"):
        if name == "uwb":
            snr_db = -15.0 if snr_db is None else snr_db
            alpha = 1.0 - 1e-4 if alpha is None else alpha
            tc = 1.0 / 528e6
            sigma0 = 0.05
            num_blocks = 250
        else:
            snr_db = 6.0 if snr_db is None else snr_db
            alpha = 1.0 - 1e-3 if alpha is None else alpha
            tc = 1.0 / 2.5e6
            sigma0 = None       # derived from the ideal Fisher information
            num_blocks = 1000
        waveform = make_pilot_waveform(CodeSequence(np.array(_PILOT_SYMBOLS), tc))
        snr = 10.0 ** (snr_db / 10.0)
        if sigma is None:
            sigma = np.sqrt((1.0 - alpha**2) * snr)
        if sigma0 is None:
            sigma0 = 1.0 / np.sqrt(fisher_ideal(waveform.eval(0.0), 1.0))
        state = StateSpaceModel(alpha=alpha, sigma=sigma,
                                mu0=np.sqrt(snr), sigma0=sigma0)
        return Scenario(
            name=name, kind="linear", waveform=waveform,
            snr_db=snr_db, gamma=10.0 ** (snr_db / 20.0), state=state,
            blocks=num_blocks if blocks is None else blocks,
            theta_unit="dimensionless", report_unit="native",
            chip_duration=tc, pf=pf,
        )
    raise ValueError(f"unknown scenario {name!r}; known: {SCENARIO_NAMES}")


def _delay_average_fbar(scenario: Scenario, receiver: str) -> float:
    """Fisher information averaged over fractional delays within one chip."""
    fisher = fisher_onebit if receiver == "onebit" else fisher_ideal
    thetas = (np.arange(DELAY_AVERAGE_POINTS) / DELAY_AVERAGE_POINTS
              * scenario.chip_duration)
    values = [fisher(scenario.waveform.eval(t), scenario.gamma) for t in thetas]
    return float(np.mean(values))


def steady_fbar(scenario: Scenario, receiver: str) -> float:
    """Stationary expected Fisher information per block.

    Delay scenarios average over the fractional delay (the information
    is exactly chip-periodic in the delay); gain scenarios integrate
    over the stationary gain distribution N(0, SNR).
    """
    if scenario.kind == "delay":
        return _delay_average_fbar(scenario, receiver)
    return expected_fisher(scenario.waveform, scenario.likelihood_gamma,
                           0.0, scenario.state.stationary_variance, receiver)


def blockwise_fbar(scenario: Scenario, receiver: str,
                   num_blocks: int) -> np.ndarray:
    """Per-block expected Fisher information Fbar_k for k = 1..K."""
    if scenario.kind == "delay":
        return np.full(num_blocks, _delay_average_fbar(scenario, receiver))
    if receiver == "ideal":
        # the ideal-receiver information is gain-independent
        value = fisher_ideal(scenario.waveform.eval(0.0),
                             scenario.likelihood_gamma)
        return np.full(num_blocks, value)
    out = np.empty(num_blocks)
    for k in range(1, num_blocks + 1):
        mean, var = marginal_moments(scenario.state, k)
        out[k - 1] = expected_fisher(scenario.waveform,
                                     scenario.likelihood_gamma,
                                     mean, var, receiver)
    return out


def run_bounds(scenario: Scenario, num_blocks: int = None) -> BoundTrajectory:
    """Tracking-bound trajectories for both receivers, in theta units."""
    k = scenario.blocks if num_blocks is None else num_blocks
    bt = bound_trajectory(scenario.state,
                          blockwise_fbar(scenario, "onebit", k),
                          blockwise_fbar(scenario, "ideal", k), k)
    # replace the last-block steady proxy by the true stationary value
    return replace(bt,
                   steady_onebit=steady_state(scenario.state,
                                              steady_fbar(scenario, "onebit")),
                   steady_ideal=steady_state(scenario.state,
                                             steady_fbar(scenario, "ideal")))


def bayes_psi(scenario: Scenario) -> float:
    """Steady-state Bayesian loss psi with prior information 1/var(theta)."""
    if scenario.kind != "linear":
        raise ValueError("psi is defined for the gain-tracking scenarios")
    j_prior = 1.0 / scenario.state.stationary_variance
    report = bayes_report(steady_fbar(scenario, "onebit"),
                          steady_fbar(scenario, "ideal"), j_prior)
    return report.psi


@dataclass(frozen=True)
class MonteCarloResult:
    """Aggregated filter errors against the tracking bound, in report_unit."""

    k: np.ndarray
    rmse_onebit: np.ndarray
    rmse_ideal: np.ndarray
    bound_onebit: np.ndarray     # U_k^{-1/2}
    bound_ideal: np.ndarray
    rho_db: np.ndarray
    trials: int                  # trajectory count P
    realizations: int            # noise realizations per trajectory R
    discarded: int
    unit: str

    @property
    def per_block(self):
        return list(zip(self.k, self.rmse_onebit, self.rmse_ideal,
                        self.bound_onebit, self.bound_ideal, self.rho_db))


def _simulate_trial(scenario: Scenario, theta: np.ndarray,
                    signals: np.ndarray, lik_onebit, lik_ideal,
                    pf_config: ParticleFilterConfig, noise: NoiseModel,
                    p: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """One (trajectory, realization) trial; returns squared errors per block."""
    model = scenario.state
    rng_obs = noise.generator((p, r + 1, 0))
    rng_onebit = noise.generator((p, r + 1, 1))
    rng_ideal = noise.generator((p, r + 1, 2))
    cloud1 = pf_init(pf_config, model.mu0, model.sigma0, rng_onebit)
    cloud2 = pf_init(pf_config, model.mu0, model.sigma0, rng_ideal)
    num_blocks = theta.size - 1
    err_onebit = np.empty(num_blocks + 1)
    err_ideal = np.empty(num_blocks + 1)
    err_onebit[0] = cloud1.mean() - theta[0]
    err_ideal[0] = cloud2.mean() - theta[0]
    n = signals.shape[1]
    for k in range(1, num_blocks + 1):
        y = signals[k - 1] + rng_obs.standard_normal(n)
        cloud1, est1 = pf_step(cloud1, model, sign_bit(y), lik_onebit,
                               pf_config, rng_onebit)
        cloud2, est2 = pf_step(cloud2, model, y, lik_ideal,
                               pf_config, rng_ideal)
        err_onebit[k] = est1 - theta[k]
        err_ideal[k] = est2 - theta[k]
    return err_onebit**2, err_ideal**2


def _trajectory_worker(scenario: Scenario, pf_config: ParticleFilterConfig,
                       master_seed: int, p: int, realizations: int):
    """All realizations for one sampled trajectory; the pool work unit."""
    noise = NoiseModel(master_seed)
    model = scenario.state
    num_blocks = scenario.blocks
    theta = sample_trajectory(model, num_blocks, noise.generator((p,)))
    if scenario.kind == "delay":
        signals = np.stack([scenario.gamma * scenario.waveform.eval(t).s
                            for t in theta[1:]])
    else:
        signals = theta[1:, None] * scenario.waveform.pilot[None, :]
    lik_onebit = make_likelihood(scenario.waveform,
                                 scenario.likelihood_gamma, "onebit")
    lik_ideal = make_likelihood(scenario.waveform,
                                scenario.likelihood_gamma, "ideal")
    sse_onebit = np.zeros(num_blocks + 1)
    sse_ideal = np.zeros(num_blocks + 1)
    completed = 0
    discarded = 0
    for r in range(realizations):
        try:
            sq1, sq2 = _simulate_trial(scenario, theta, signals, lik_onebit,
                                       lik_ideal, pf_config, noise, p, r)
        except DegenerateCloudError:
            discarded += 1
            continue
        sse_onebit += sq1
        sse_ideal += sq2
        completed += 1
    return p, sse_onebit, sse_ideal, completed, discarded


def run_montecarlo(scenario: Scenario, processes: int = None,
                   realizations: int = None,
                   pf_config: ParticleFilterConfig = None,
                   master_seed: int = 0, workers: int = 1) -> MonteCarloResult:
    """Particle-filter RMSE vs the tracking bound over P x R trials.

    Degenerate trials (all particle weights vanished) are dropped from
    both receivers' averages and counted.  The result is deterministic
    for a given master_seed, independent of the worker count.
    """
    processes = scenario.default_processes if processes is None else processes
    realizations = (scenario.default_realizations if realizations is None
                    else realizations)
    if processes < 1 or realizations < 1:
        raise ValueError("need at least one trajectory and one realization")
    pf_config = scenario.pf if pf_config is None else pf_config
    args = [(scenario, pf_config, master_seed, p, realizations)
            for p in range(processes)]
    if workers <= 1:
        results = [_trajectory_worker(*a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_trajectory_worker_star, args))
    results.sort(key=lambda item: item[0])

    num_blocks = scenario.blocks
    sse_onebit = np.zeros(num_blocks + 1)
    sse_ideal = np.zeros(num_blocks + 1)
    completed = 0
    discarded = 0
    for _, sq1, sq2, done, dropped in results:
        sse_onebit += sq1
        sse_ideal += sq2
        completed += done
        discarded += dropped
    if completed == 0:
        raise RuntimeError("every Monte-Carlo trial degenerated")

    scale = scenario.report_scale
    bt = run_bounds(scenario)
    return MonteCarloResult(
        k=np.arange(num_blocks + 1),
        rmse_onebit=scale * np.sqrt(sse_onebit / completed),
        rmse_ideal=scale * np.sqrt(sse_ideal / completed),
        bound_onebit=scale / np.sqrt(bt.u_onebit),
        bound_ideal=scale / np.sqrt(bt.u_ideal),
        rho_db=db(bt.rho),
        trials=processes, realizations=realizations,
        discarded=discarded, unit=scenario.report_unit,
    )


def _trajectory_worker_star(args):
    return _trajectory_worker(*args)


def sweep_beta(scenario_base: Scenario, beta_grid) -> list:
    """Steady-state loss rho and no-tracking loss psi per beta = 1 - alpha.

    The expected Fisher values are taken over the stationary gain
    distribution N(0, SNR), which the innovation scaling sigma^2 =
    (1 - alpha^2) SNR keeps fixed across the sweep, so only the
    steady-state fixed points depend on beta.
    """
    if scenario_base.kind != "linear":
        raise ValueError("the beta sweep applies to the gain-tracking scenarios")
    beta_grid = np.asarray(beta_grid, dtype=float)
    if np.any((beta_grid <= 0) | (beta_grid > 1)):
        raise ValueError("beta values must lie in (0, 1]")
    snr = scenario_base.snr
    fb_onebit = expected_fisher(scenario_base.waveform, 1.0, 0.0, snr, "onebit")
    fb_ideal = expected_fisher(scenario_base.waveform, 1.0, 0.0, snr, "ideal")
    psi_db = db(bayes_report(fb_onebit, fb_ideal, 1.0 / snr).psi)
    rows = []
    for beta in beta_grid:
        alpha = 1.0 - beta
        sigma = np.sqrt((1.0 - alpha**2) * snr)
        model = StateSpaceModel(alpha=alpha, sigma=sigma,
                                mu0=scenario_base.state.mu0,
                                sigma0=scenario_base.state.sigma0)
        rho = (steady_state(model, fb_onebit)
               / steady_state(model, fb_ideal))
        rows.append((float(beta), float(db(rho)), float(psi_db)))
    return rows


def finite_k_loss(scenario_base: Scenario, beta_list, num_blocks: int) -> list:
    """Finite-block loss rho_k = U_k / U_{inf,k} per beta; rows (beta, k, dB).

    Fbar_k follows the exact block marginal of the gain, so each curve
    starts at 0 dB (equal initialization) and relaxes toward the
    steady-state loss of its beta.
    """
    if scenario_base.kind != "linear":
        raise ValueError("the finite-block sweep applies to the gain-tracking scenarios")
    if num_blocks < 1:
        raise ValueError("need at least one block")
    snr = scenario_base.snr
    rows = []
    for beta in np.asarray(beta_list, dtype=float):
        alpha = 1.0 - beta
        sigma = np.sqrt((1.0 - alpha**2) * snr)
        model = StateSpaceModel(alpha=alpha, sigma=sigma,
                                mu0=scenario_base.state.mu0,
                                sigma0=scenario_base.state.sigma0)
        scenario = replace(scenario_base, snr_db=scenario_base.snr_db,
                           state=model, blocks=num_blocks)
        bt = run_bounds(scenario)
        rho_db = db(bt.rho)
        rows.extend((float(beta), int(k), float(rho_db[k]))
                    for k in range(num_blocks + 1))
    return rows
