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

from . import bounds
from .bounds import BoundTrajectory, db, steady_state
from .channel import NoiseModel, sign_bit
from .fastlik import make_likelihood
from .filters import (DegenerateCloudError, ParticleFilterConfig, pf_init,
                      pf_step)
from .info import bayes_report, expected_fisher, fisher_ideal, fisher_onebit
from .signals import (CodeSequence, DelayWaveform, generate_gps_ca_code,
                      make_delay_waveform, make_pilot_waveform)
from .state_space import StateSpaceModel, marginal_moments, sample_trajectory

SPEED_OF_LIGHT = 299_792_458.0

# pilot symbols for the gain-tracking scenarios; the circular pair of
# equal adjacent symbols keeps the Nyquist-pulse midpoint samples active
_PILOT_SYMBOLS = (1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0)

SCENARIO_NAMES = ("ranging", "uwb", "mobile")

# the receiver axis of every per-receiver array: row 0 sees only the
# sample signs, row 1 the unquantized samples
RECEIVERS = ("onebit", "ideal")

# desk-scale Monte-Carlo size: trajectories P x noise realizations R
DEFAULT_PROCESSES = 20
DEFAULT_REALIZATIONS = 50


def _linear_snr(snr_db: float) -> float:
    """SNR 10^(snr_db/10); it must be a finite positive normal double."""
    try:
        snr = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        snr = np.inf
    if not (np.isfinite(snr) and snr >= np.finfo(float).tiny):    # NaN fails too
        raise ValueError(f"snr_db must give a finite normal positive SNR, got {snr_db}")
    return snr


@dataclass(frozen=True)
class Scenario:
    """Fully-populated experiment definition; the waveform type fixes the
    parameter: a delay in seconds (DelayWaveform) or a dimensionless gain."""

    name: str
    waveform: object
    snr_db: float
    state: StateSpaceModel      # in seconds (delay) or dimensionless (gain)
    blocks: int
    pf: ParticleFilterConfig

    def __post_init__(self):
        _linear_snr(self.snr_db)
        if self.blocks < 0:
            raise ValueError(f"block count must be nonnegative, got {self.blocks}")

    @property
    def kind(self) -> str:
        return "delay" if isinstance(self.waveform, DelayWaveform) else "linear"

    @property
    def report_unit(self) -> str:
        return "meters" if self.kind == "delay" else "native"

    @property
    def snr(self) -> float:
        return _linear_snr(self.snr_db)

    @property
    def chip_duration(self) -> float:
        """Chip duration T_c of the delay waveform's code, in seconds."""
        return self.waveform.code.chip_duration

    @property
    def gamma(self) -> float:
        """Amplitude 10^(snr_db/20)."""
        return 10.0 ** (self.snr_db / 20.0)

    @property
    def likelihood_gamma(self) -> float:
        """Amplitude seen by the likelihood; the gain scenarios carry it in theta."""
        return self.gamma if self.kind == "delay" else 1.0

    def unit_scale(self, unit: str) -> float:
        """Multiplier taking theta-unit values to the requested unit."""
        if self.kind == "delay":
            scales = {"seconds": 1.0,
                      "chips": 1.0 / self.chip_duration,
                      "meters": SPEED_OF_LIGHT,
                      "native": 1.0}
        else:
            scales = {"native": 1.0}
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
            name=name, waveform=make_delay_waveform(code), snr_db=snr_db,
            state=state, blocks=250 if blocks is None else blocks, pf=pf,
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
        snr = _linear_snr(snr_db)
        if sigma is None:
            sigma = np.sqrt((1.0 - alpha**2) * snr)
        if sigma0 is None:
            sigma0 = 1.0 / np.sqrt(fisher_ideal(waveform.eval(0.0), 1.0))
        state = StateSpaceModel(alpha=alpha, sigma=sigma,
                                mu0=np.sqrt(snr), sigma0=sigma0)
        return Scenario(
            name=name, waveform=waveform, snr_db=snr_db, state=state,
            blocks=num_blocks if blocks is None else blocks, pf=pf,
        )
    raise ValueError(f"unknown scenario {name!r}; known: {SCENARIO_NAMES}")


def _fisher_columns(scenario: Scenario, blocks: int) -> np.ndarray:
    """Expected Fisher information, 1-bit row then ideal row: column k - 1
    for block k = 1 .. blocks, and a last column for the stationary
    distribution.

    The ideal information gamma^2 ||ds/dtheta||^2 is theta-free on both
    waveform families (gamma^2 p.p; by Parseval gamma^2 sum |2 pi f X_f|^2
    / N), so one evaluation gives every column.  On a gain scenario the
    1-bit information integrates over each block's marginal and over the
    stationary N(0, sigma^2 / (1 - alpha^2)), all in one quadrature with
    the stationary moments as its last point.  On the delay scenario it
    is the average over the fractional delay: F(theta) has period T_s,
    and the blocks at the 32 delays q T_s / 32 hold each point of the
    32x-oversampled table once, so the average is one evaluation on that
    table, divided by 32, for every column.  Information that overflows
    (an SNR too large for the waveform) raises ValueError.
    """
    state = scenario.state
    fbar = np.empty((len(RECEIVERS), blocks + 1))
    # overflow is reported by the finiteness check below, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        if scenario.kind == "delay":
            fbar[0] = fisher_onebit(scenario.waveform.baseband_table(32),
                                    scenario.gamma) / 32
        else:
            mean, var = marginal_moments(state, np.arange(1, blocks + 1))
            fbar[0] = expected_fisher(
                scenario.waveform, scenario.likelihood_gamma,
                np.append(mean, 0.0), np.append(var, state.stationary_variance))
        fbar[1] = fisher_ideal(scenario.waveform.eval(0.0),
                               scenario.likelihood_gamma)
    if not np.all(np.isfinite(fbar)):
        raise ValueError("Fisher information is not finite "
                         f"at snr_db {scenario.snr_db}")
    return fbar


def steady_fbar(scenario: Scenario) -> np.ndarray:
    """Stationary expected Fisher information per block, 1-bit then ideal."""
    return _fisher_columns(scenario, 0)[:, 0]


def run_bounds(scenario: Scenario) -> BoundTrajectory:
    """Tracking-bound trajectories for both receivers, in theta units.

    U_0 .. U_K over the scenario's K >= 0 blocks, and the steady states
    of the stationary information.  Every block takes the stationary
    information except the 1-bit receiver's on a gain scenario, which
    follows the gain's block marginals.
    """
    state = scenario.state
    fbar = _fisher_columns(scenario, scenario.blocks)
    # looked up on the module, where the benchmark tracer wraps it
    return BoundTrajectory(
        u=np.stack([bounds.bound_recursion(state, row[:-1]) for row in fbar]),
        steady=np.array([steady_state(state, f) for f in fbar[:, -1]]))


@dataclass(frozen=True)
class MonteCarloResult:
    """Aggregated filter errors against the tracking bound, in report_unit;
    rmse and bound have one row per receiver in RECEIVERS order."""

    rmse: np.ndarray             # (2, K+1)
    bound: np.ndarray            # U_k^{-1/2}, (2, K+1)
    discarded: int               # degenerate trials dropped from the averages


def _trajectory_worker(scenario: Scenario, master_seed: int, p: int,
                       realizations: int):
    """The pool work unit: all realizations of trajectory p, as
    (p, sse_onebit, sse_ideal, completed, discarded).

    Realization r draws its observation noise from generator
    (p, r + 1, 0), one standard_normal(n) per block in block order, and
    receiver i filters with its own generator (p, r + 1, i + 1).  The
    loop is block-major: each block's signal is synthesized once and
    every live realization steps both filters on it, so memory is
    O(N + R (L + K)) for N samples per block, R realizations, L
    particles and K blocks.  At very large R the R term dominates: on
    ranging a realization holds about 11 KB, 4 KB of it its (2, K+1)
    estimates and the rest its two clouds and three generators, so
    R = 10^5 takes about 1.1 GB.  A realization whose cloud
    degenerates is dropped at that block and left out of the sums.
    """
    model, config = scenario.state, scenario.pf
    noise = NoiseModel(master_seed)
    theta = sample_trajectory(model, scenario.blocks, noise.generator((p,)))
    likelihoods = [make_likelihood(scenario.waveform,
                                   scenario.likelihood_gamma, rx)
                   for rx in RECEIVERS]
    rngs = [[noise.generator((p, r + 1, role)) for role in range(3)]
            for r in range(realizations)]
    clouds = [[pf_init(config, model.mu0, model.sigma0, rng) for rng in row[1:]]
              for row in rngs]
    est = np.empty((realizations, len(RECEIVERS), theta.size))
    est[:, :, 0] = [[np.dot(w, x) for x, w in row] for row in clouds]
    live = list(range(realizations))
    y = np.empty(scenario.waveform.samples_per_block)
    for k in range(1, theta.size):
        signal = scenario.likelihood_gamma * scenario.waveform.signal(theta[k])
        for r in live.copy():
            rngs[r][0].standard_normal(out=y)
            y += signal
            try:
                for i, obs in enumerate((sign_bit(y), y)):
                    x, w, est[r, i, k] = pf_step(*clouds[r][i], model, obs,
                                                 likelihoods[i], config,
                                                 rngs[r][i + 1])
                    clouds[r][i] = x, w
            except DegenerateCloudError:
                live.remove(r)
    sse = np.zeros((len(RECEIVERS), theta.size))
    for r in live:
        sse += (est[r] - theta)**2
    return p, sse[0], sse[1], len(live), realizations - len(live)


def run_montecarlo(scenario: Scenario, processes: int = DEFAULT_PROCESSES,
                   realizations: int = DEFAULT_REALIZATIONS,
                   master_seed: int = 0, workers: int = 1) -> MonteCarloResult:
    """Particle-filter RMSE vs the tracking bound over P x R trials.

    Degenerate trials (all particle weights vanished) are dropped from
    both receivers' averages and counted.  The result is deterministic
    for a given master_seed, independent of the worker count; the pool
    has at most one worker per trajectory.
    """
    if processes < 1 or realizations < 1 or scenario.blocks < 1:
        raise ValueError("trials, realizations and blocks must each be "
                         "at least 1")
    if master_seed < 0:
        raise ValueError(f"seed must be nonnegative, got {master_seed}")
    bt = run_bounds(scenario)      # before the trials: bad input fails fast
    args = [(scenario, master_seed, p, realizations)
            for p in range(processes)]
    workers = min(workers, processes)
    if workers <= 1:
        results = [_trajectory_worker(*a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_trajectory_worker, *zip(*args)))

    sse = np.zeros_like(bt.u)
    completed = discarded = 0
    for _, *rows, done, dropped in results:
        sse += rows
        completed += done
        discarded += dropped
    if completed == 0:
        raise RuntimeError("every Monte-Carlo trial degenerated")

    scale = scenario.report_scale
    return MonteCarloResult(rmse=scale * np.sqrt(sse / completed),
                            bound=scale / np.sqrt(bt.u), discarded=discarded)


def _beta_states(scenario: Scenario, betas) -> list:
    """(beta, state) per beta = 1 - alpha on a gain scenario, with sigma^2 =
    (1 - alpha^2) SNR keeping the stationary gain N(0, SNR) fixed; a list,
    so that every check runs before the caller computes anything."""
    if scenario.kind != "linear":
        raise ValueError("the beta sweeps apply to the gain-tracking scenarios")
    betas = np.asarray(betas, dtype=float)
    alphas = 1.0 - betas
    # alpha < 1 holds for beta > 0 except below about 5.6e-17, where 1 - beta
    # rounds to 1; NaN fails too
    if not np.all((alphas < 1) & (betas <= 1)):
        raise ValueError("beta values must lie in (0, 1], large enough "
                         "that 1 - beta rounds below 1")
    snr = scenario.snr
    return [(beta, replace(scenario.state, alpha=alpha,
                           sigma=np.sqrt((1.0 - alpha**2) * snr)))
            for beta, alpha in zip(betas, alphas)]


def sweep_beta(scenario_base: Scenario, beta_grid) -> list:
    """Steady-state loss rho and no-tracking loss psi per beta = 1 - alpha.

    The expected Fisher values are taken over the stationary gain
    distribution N(0, SNR), which stays fixed across the sweep, so only
    the steady-state fixed points depend on beta.
    """
    states = _beta_states(scenario_base, beta_grid)
    snr = scenario_base.snr
    # overflow is reported by the finiteness check below, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        fb_onebit = expected_fisher(scenario_base.waveform, 1.0, 0.0, snr)
        fb_ideal = fisher_ideal(scenario_base.waveform.eval(0.0), 1.0)
        psi_db = db(bayes_report(fb_onebit, fb_ideal, 1.0 / snr).psi)
    if not np.isfinite(psi_db):
        raise ValueError("Fisher information is not finite at snr_db "
                         f"{scenario_base.snr_db}")
    rows = []
    for beta, model in states:
        rho = steady_state(model, fb_onebit) / steady_state(model, fb_ideal)
        rows.append((float(beta), float(db(rho)), float(psi_db)))
    return rows


def finite_k_loss(scenario_base: Scenario, beta_list, num_blocks: int) -> list:
    """Finite-block loss rho_k = U_k / U_{inf,k} per beta; rows (beta, k, dB).

    Fbar_k follows the exact block marginal of the gain, so each curve
    starts at 0 dB (equal initialization) and relaxes toward the
    steady-state loss of its beta.
    """
    if num_blocks < 1:
        raise ValueError("need at least one block")
    rows = []
    for beta, model in _beta_states(scenario_base, beta_list):
        scenario = replace(scenario_base, state=model, blocks=num_blocks)
        rho_db = db(run_bounds(scenario).rho).tolist()
        rows.extend((float(beta), k, r) for k, r in enumerate(rho_db))
    return rows
