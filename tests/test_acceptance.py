"""Acceptance suite: one test and one printed pass/fail line per criterion.

Each test prints its verdict directly to the terminal (bypassing
capture) so a full run shows one line per criterion regardless of
pytest's capture settings.
"""

import itertools
import os

import numpy as np
import pytest
from scipy.stats import norm

from onebit_tracking.bounds import (bound_recursion, db, steady_state,
                                    transient_report)
from onebit_tracking.cli import main
from onebit_tracking.experiments import (builtin_scenario, run_bounds,
                                         run_montecarlo, steady_fbar)
from onebit_tracking.filters import ParticleFilterConfig, pf_init
from onebit_tracking.info import bayes_report, fisher_ideal, fisher_onebit
from onebit_tracking.signals import WaveformEval
from onebit_tracking.state_space import StateSpaceModel

import mobius
from kalman import kalman_step

TWO_OVER_PI = 2.0 / np.pi


def verdict(capsys, number, ok, text):
    with capsys.disabled():
        print(f"criterion {number:>3}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


@pytest.fixture(scope="module")
def ranging():
    return builtin_scenario("ranging")


@pytest.fixture(scope="module")
def uwb():
    return builtin_scenario("uwb")


@pytest.fixture(scope="module")
def ranging_fbar(ranging):
    return steady_fbar(ranging)


def _chi(ev, gamma):
    return fisher_onebit(ev, gamma) / fisher_ideal(ev, gamma)


def test_criterion_01_low_snr_fisher_loss(capsys, ranging, uwb):
    chi_delay = _chi(ranging.waveform.eval(0.37 * ranging.chip_duration), 1e-3)
    chi_pilot = _chi(uwb.waveform.eval(1e-3), 1.0)
    err = max(abs(chi_delay - TWO_OVER_PI), abs(chi_pilot - TWO_OVER_PI))
    verdict(capsys, 1, err < 1e-4,
            f"chi at vanishing SNR equals 2/pi on both waveforms "
            f"(max deviation {err:.2e}, tol 1e-4)")


def _enumerated_fisher(s, ds, gamma, h=1e-5):
    """Independent oracle: exhaustive sum over all sign patterns with a
    finite-difference score, F = sum_r p'(r)^2 / p(r)."""
    patterns = np.array(list(itertools.product((-1.0, 1.0), repeat=s.size)))
    def probs(t):
        return np.prod(norm.sf(-gamma * patterns * (s + t * ds)), axis=1)
    p = probs(0.0)
    dp = (probs(h) - probs(-h)) / (2 * h)
    return float(np.sum(dp * dp / p))


def test_criterion_02_brute_force_fisher_oracle(capsys):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 11))
        s = rng.standard_normal(n)
        ds = rng.standard_normal(n)
        gamma = rng.uniform(0.05, 1.5)
        closed = fisher_onebit(WaveformEval(s, ds), gamma)
        exact = _enumerated_fisher(s, ds, gamma)
        worst = max(worst, abs(closed - exact) / exact)
    verdict(capsys, 2, worst < 1e-6,
            f"closed-form Fisher matches exhaustive enumeration on 50 "
            f"instances (worst rel err {worst:.2e}, tol 1e-6)")


def test_criterion_03_kalman_bcrb_tightness(capsys, uwb):
    model = uwb.state
    pilot = uwb.waveform.pilot
    fbar_inf = fisher_ideal(uwb.waveform.eval(0.0), 1.0)
    u = bound_recursion(model, np.full(500, fbar_inf))
    state = (model.mu0, model.sigma0**2)
    worst = abs(1.0 / u[0] - state[1]) / state[1]
    for k in range(1, 501):
        state = kalman_step(state, model, np.zeros(pilot.size), pilot, 1.0)
        worst = max(worst, abs(1.0 / u[k] - state[1]) / state[1])
    verdict(capsys, 3, worst < 1e-10,
            f"ideal-receiver bound equals Kalman posterior variance for "
            f"k <= 500 (worst rel err {worst:.2e}, tol 1e-10)")


def test_criterion_04_steady_state_fixed_point(capsys):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        model = StateSpaceModel(alpha=rng.uniform(0.0, 0.999999),
                                sigma=10.0 ** rng.uniform(-4, 1),
                                mu0=0.0, sigma0=1.0)
        fbar = 10.0 ** rng.uniform(-3, 4)
        u = steady_state(model, fbar)
        rhs = 1.0 / (model.sigma**2 + model.alpha**2 / u) + fbar
        worst = max(worst, abs(u - rhs) / u)
    verdict(capsys, 4, worst < 1e-9,
            f"closed-form steady state satisfies the recursion on 1000 "
            f"draws (worst rel err {worst:.2e}, tol 1e-9)")


@pytest.fixture(scope="module")
def slow_model(ranging):
    # slow evolution regime at SNR -15 dB on the ranging waveform
    tc = ranging.chip_duration
    return StateSpaceModel(alpha=1 - 1e-6, sigma=1e-4 * tc,
                           mu0=0.0, sigma0=0.1 * tc)


def test_criterion_05_slow_evolution_loss(capsys, slow_model, ranging_fbar):
    fbar, fbar_inf = ranging_fbar
    report = transient_report(slow_model, fbar, fbar_inf, quality=3.0)
    dev = abs(db(report.rho) - db(np.sqrt(TWO_OVER_PI)))
    ok = report.conditions_ok and dev < 0.02
    verdict(capsys, 5, ok,
            f"slow-evolution steady loss {db(report.rho):.4f} dB vs "
            f"-0.9806 dB (deviation {dev:.4f} dB, tol 0.02; regime "
            f"conditions satisfied: {report.conditions_ok})")


def test_criterion_06a_transient_delay_ratio(capsys, slow_model, ranging_fbar):
    fbar, fbar_inf = ranging_fbar
    report = transient_report(slow_model, fbar, fbar_inf, quality=3.0)
    target = np.sqrt(np.pi / 2.0)
    rel = abs(report.delta - target) / target
    verdict(capsys, "6a", rel < 0.02,
            f"transient delay ratio {report.delta:.4f} vs sqrt(pi/2) "
            f"(rel dev {rel:.4f}, tol 0.02)")


def test_criterion_06b_transient_duration_analytic(capsys, ranging,
                                                   ranging_fbar):
    # The recursion solves exactly to (U_k - U)/(U_k - U') =
    # xi^k (U0 - U)/(U0 - U'), so K_lambda = -lambda/log10(xi) + D up to
    # block rounding, with the lambda-independent offset
    # D = ln|(U - U')/(U0 - U')| / |ln xi| (about 28 blocks here).
    # Asserted, each within +-2 blocks: the empirical K_lambda grows at
    # the analytic rate of -1/log10(xi) blocks per decade (the gap to
    # the analytic estimate varies by at most 2 over the lambda grid),
    # and it equals the analytic estimate plus D, with D computed from
    # the closed-form fixed points, not from the recursion.
    fbar, _ = ranging_fbar
    offset = mobius.transient_offset(ranging.state, fbar)
    gaps, deviations = [], []
    for quality in (2.0, 3.0, 4.0, 6.0, 8.0):
        report = transient_report(ranging.state, fbar, fbar, quality)
        gaps.append(report.k_lambda[0] - report.k_lambda_analytic[0])
        deviations.append(abs(gaps[-1] - offset))
    spread = max(gaps) - min(gaps)
    worst = max(deviations)
    verdict(capsys, "6b", spread <= 2.0 and worst <= 2.0,
            f"K_lambda - (-lambda/log10 xi) over lambda in 2..8 spans "
            f"[{min(gaps):.2f}, {max(gaps):.2f}] (spread {spread:.2f}, "
            f"tol 2) vs offset D = {offset:.2f} (worst dev {worst:.2f} "
            f"blocks, tol 2)")


def test_criterion_07_figure_endpoints(capsys, ranging, uwb):
    bt = run_bounds(ranging)
    rho1 = db(bt.rho[1])
    rho15 = db(bt.rho[15])
    rho_ss = db(bt.rho_steady)
    rho_uwb = db(run_bounds(uwb).rho_steady)
    mobile = builtin_scenario("mobile")
    psi = db(bayes_report(*steady_fbar(mobile),
                          1.0 / mobile.state.stationary_variance).psi)
    checks = [(rho1, -1.38), (rho15, -1.90), (rho_ss, -0.93),
              (rho_uwb, -1.02), (psi, -5.73)]
    worst = max(abs(got - want) for got, want in checks)
    verdict(capsys, 7, worst < 0.05,
            f"analytic endpoints rho_1={rho1:.3f}, rho_15={rho15:.3f}, "
            f"rho_ss={rho_ss:.3f}, rho_uwb={rho_uwb:.3f}, psi={psi:.3f} dB "
            f"(worst dev {worst:.3f} dB, tol 0.05)")


def _steady_ratio(result, tail=50):
    sl = slice(-tail, None)
    ratios = []
    for rmse, bound in zip(result.rmse, result.bound):
        ratios.append(np.sqrt(np.mean(rmse[sl] ** 2))
                      / np.sqrt(np.mean(bound[sl] ** 2)))
    return ratios


def test_criterion_08_filter_efficiency_desk_scale(capsys, ranging, uwb):
    ratios = []
    for scenario in (ranging, uwb):
        assert scenario.pf == ParticleFilterConfig(num_particles=100,
                                                   resample_threshold=0.66)
        # the result does not depend on the worker count (criterion 9)
        result = run_montecarlo(scenario, processes=20, realizations=50,
                                master_seed=0, workers=os.cpu_count() or 1)
        ratios += _steady_ratio(result)
    ok = all(0.95 <= r <= 1.15 for r in ratios)
    verdict(capsys, 8, ok,
            "steady-state RMSE/bound ratios (ranging 1bit/ideal, uwb "
            f"1bit/ideal) = {[round(float(r), 3) for r in ratios]}, "
            "required within [0.95, 1.15]")


def test_criterion_09_determinism_across_workers(capsys, tmp_path):
    digests = set()
    import hashlib
    for workers in (1, 4, 8):
        path = tmp_path / f"track_w{workers}.csv"
        code = main(["track", "--scenario", "uwb", "--blocks", "20",
                     "--trials", "8", "--realizations", "3", "--seed", "99",
                     "--workers", str(workers), "--output", str(path)])
        assert code == 0
        digests.add(hashlib.sha256(path.read_bytes()).hexdigest())
    verdict(capsys, 9, len(digests) == 1,
            f"track CSV byte-identical for worker counts 1, 4, 8 "
            f"({len(digests)} distinct digest(s))")


def test_criterion_10_property_suites(capsys, ranging, uwb):
    rng = np.random.default_rng(77)
    failures = []

    # waveform gradient vs central finite differences
    tc = ranging.chip_duration
    for frac in (0.21, 1.68):
        theta, h = frac * tc, 1e-6 * tc
        ds = ranging.waveform.eval(theta).ds_dtheta
        num = (ranging.waveform.eval(theta + h).s
               - ranging.waveform.eval(theta - h).s) / (2 * h)
        if np.max(np.abs(ds - num)) / np.max(np.abs(ds)) >= 1e-4:
            failures.append("gradient")

    # 1-bit likelihood normalizes over all 2^N sign patterns
    from onebit_tracking.channel import loglik_onebit
    n = 12
    ev = WaveformEval(rng.standard_normal(n), rng.standard_normal(n))
    total = sum(np.exp(loglik_onebit(np.array(r, dtype=float), ev, 0.4))
                for r in itertools.product((-1, 1), repeat=n))
    if abs(total - 1.0) >= 1e-10:
        failures.append("normalization")

    # particle weights stay normalized through updates
    from onebit_tracking.filters import pf_step
    model = StateSpaceModel(0.9, 0.1, 0.0, 1.0)
    cfg = ParticleFilterConfig(num_particles=300, resample_threshold=0.1)
    gen = np.random.default_rng(0)
    particles, weights = pf_init(cfg, 0.0, 1.0, gen)
    for obs in (0.2, -0.7, 1.4, 0.0):
        particles, weights, _ = pf_step(particles, weights, model, obs,
                                        lambda o, th: -0.5 * (o - th) ** 2,
                                        cfg, gen)
        if abs(weights.sum() - 1.0) >= 1e-12:
            failures.append("weights")

    # hard limiting never gains information
    for _ in range(100):
        m = int(rng.integers(2, 40))
        ev = WaveformEval(rng.standard_normal(m), rng.standard_normal(m))
        g = rng.uniform(0.01, 3.0)
        if fisher_onebit(ev, g) > fisher_ideal(ev, g):
            failures.append("data-processing")

    verdict(capsys, 10, not failures,
            "property suites (gradient, likelihood normalization, weight "
            "normalization, data-processing inequality)"
            + (f"; failed: {sorted(set(failures))}" if failures else ""))
