"""Command-line front end: config parsing, scenario execution, CSV output.

Commands:

    fisher     per-block information measures F, F_inf, chi (and psi)
    bound      tracking-bound trajectory CSV with steady-state footer
    track      Monte-Carlo particle-filter RMSE against the bound
    sweep      steady-state loss over the evolution rate beta = 1 - alpha
    transient  transient-phase duration report

Configuration is a flat key=value text file; CLI flags override file
keys, unknown keys are rejected.  All CSV output uses a header row, '.'
decimals, LF line endings, and 17 significant digits, so identical
inputs give byte-identical files.  Exit codes: 0 ok, 2 configuration
error, 3 completed with discarded trials.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .bounds import db, slow_evolution_loss, transient_report
from .experiments import (SCENARIO_NAMES, Scenario, builtin_scenario,
                          finite_k_loss, run_bounds, run_montecarlo,
                          steady_fbar, sweep_beta)
from .info import bayes_report


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2."""


# One row per parameter: (config key, type, commands, help).  The config
# file accepts every key; the flag is the key with '-' for '_' and goes
# on the listed commands (None: all).  A tuple type lists the accepted
# values; a bool is a switch on the command line and true/false in a file.
_PARAMS = (
    ("scenario", SCENARIO_NAMES, None, None),
    ("output", str, None, "output CSV path (default stdout)"),
    ("seed", int, None, None),
    ("workers", str, None, "worker count or 'auto'"),
    ("snr_db", float, None, None),
    ("alpha", float, None, None),
    ("sigma", float, None, None),
    ("blocks", int, None, None),
    ("particles", int, None, None),
    ("kappa", float, None, None),
    ("trials", int, None, None),
    ("realizations", int, None, None),
    ("lambda", float, None, None),
    ("unit", ("chips", "seconds", "meters", "native"), None, None),
    ("bayes", bool, ("fisher",), None),
    ("beta_min", float, ("sweep",), None),
    ("beta_max", float, ("sweep",), None),
    ("points", int, ("sweep",), None),
    ("finite_k", int, ("sweep",), None),
)
_KEY_TYPES = {key: kind for key, kind, _, _ in _PARAMS}


def _convert(kind, text: str):
    """A config-file value as the command-line flag of that type gives it."""
    if kind is bool:
        if text not in ("true", "false"):
            raise ValueError(text)
        return text == "true"
    if isinstance(kind, tuple):
        if text not in kind:
            raise ValueError(text)
        return text
    return kind(text)


def _parse_config_file(path: str) -> dict:
    """Flat key=value file; '#' starts a comment; unknown keys rejected."""
    values = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        try:
            values[key] = _convert(_KEY_TYPES[key], value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}: line {lineno}: bad value for {key!r}: {value.strip()!r}") from exc
    return values


def _merged_config(args: argparse.Namespace) -> dict:
    """File keys first, then CLI flags on top."""
    cfg = {}
    if getattr(args, "config", None):
        cfg.update(_parse_config_file(args.config))
    for key in _KEY_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    return cfg


def _build_scenario(cfg: dict) -> Scenario:
    name = cfg.get("scenario")
    if name is None:
        raise ConfigError("no scenario selected (use --scenario)")
    try:
        return builtin_scenario(
            name, snr_db=cfg.get("snr_db"), alpha=cfg.get("alpha"),
            sigma=cfg.get("sigma"), blocks=cfg.get("blocks"),
            particles=cfg.get("particles"), kappa=cfg.get("kappa"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _workers(cfg: dict) -> int:
    spec = cfg.get("workers", "1")
    if spec == "auto":
        return os.cpu_count() or 1
    try:
        count = int(spec)
    except ValueError as exc:
        raise ConfigError(f"bad value for 'workers': {spec!r}") from exc
    if count < 1:
        raise ConfigError(f"worker count must be positive, got {count}")
    return count


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _emit(lines: list, output: str = None) -> None:
    text = "\n".join(lines) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def cmd_fisher(cfg: dict) -> int:
    scenario = _build_scenario(cfg)
    fbar = steady_fbar(scenario, "onebit")
    fbar_inf = steady_fbar(scenario, "ideal")
    lines = ["quantity,value",
             f"fisher_onebit,{_fmt(fbar)}",
             f"fisher_ideal,{_fmt(fbar_inf)}",
             f"chi,{_fmt(fbar / fbar_inf)}",
             f"chi_db,{_fmt(db(fbar / fbar_inf))}"]
    if cfg.get("bayes"):
        bayes = bayes_report(fbar, fbar_inf,
                             1.0 / scenario.state.stationary_variance)
        lines += [f"bayes_onebit,{_fmt(bayes.jbar_onebit)}",
                  f"bayes_ideal,{_fmt(bayes.jbar_ideal)}",
                  f"psi,{_fmt(bayes.psi)}",
                  f"psi_db,{_fmt(db(bayes.psi))}"]
    _emit(lines, cfg.get("output"))
    return 0


def cmd_bound(cfg: dict) -> int:
    # blocks = 0 is allowed here and emits the initialization row only
    num_blocks = cfg.get("blocks")
    if num_blocks is not None and num_blocks == 0:
        cfg = dict(cfg, blocks=1)
    scenario = _build_scenario(cfg)
    if num_blocks is None:
        num_blocks = scenario.blocks
    try:
        scale = scenario.unit_scale(cfg.get("unit", scenario.report_unit))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    bt = run_bounds(scenario)
    lines = ["k,u_inv_sqrt_onebit,u_inv_sqrt_ideal,rho_db"]
    rho_db = db(bt.rho)
    for k in range(num_blocks + 1):
        lines.append(f"{k},{_fmt(scale / np.sqrt(bt.u_onebit[k]))},"
                     f"{_fmt(scale / np.sqrt(bt.u_ideal[k]))},{_fmt(rho_db[k])}")
    lines.append(f"steady,{_fmt(scale / np.sqrt(bt.steady_onebit))},"
                 f"{_fmt(scale / np.sqrt(bt.steady_ideal))},"
                 f"{_fmt(db(bt.rho_steady))}")
    _emit(lines, cfg.get("output"))
    return 0


def cmd_track(cfg: dict) -> int:
    scenario = _build_scenario(cfg)
    trials = cfg.get("trials", scenario.default_processes)
    realizations = cfg.get("realizations", scenario.default_realizations)
    if trials < 1 or realizations < 1:
        raise ConfigError("trials and realizations must be at least 1")
    result = run_montecarlo(scenario, processes=trials,
                            realizations=realizations,
                            master_seed=cfg.get("seed", 0),
                            workers=_workers(cfg))
    lines = ["k,rmse_onebit,rmse_ideal,bound_onebit,bound_ideal,discarded"]
    for k in range(result.k.size):
        lines.append(f"{k},{_fmt(result.rmse_onebit[k])},"
                     f"{_fmt(result.rmse_ideal[k])},"
                     f"{_fmt(result.bound_onebit[k])},"
                     f"{_fmt(result.bound_ideal[k])},{result.discarded}")
    _emit(lines, cfg.get("output"))
    return 3 if result.discarded > 0 else 0


def cmd_sweep(cfg: dict) -> int:
    scenario = _build_scenario(cfg)
    beta_min = cfg.get("beta_min", 1e-7)
    beta_max = cfg.get("beta_max", 1.0)
    points = cfg.get("points", 29)
    if not 0.0 < beta_min <= beta_max <= 1.0:
        raise ConfigError("need 0 < beta_min <= beta_max <= 1")
    if points < 2:
        raise ConfigError("need at least 2 sweep points")
    grid = np.logspace(np.log10(beta_min), np.log10(beta_max), points)
    grid[0], grid[-1] = beta_min, beta_max    # endpoints exactly
    try:
        if cfg.get("finite_k"):
            rows = finite_k_loss(scenario, grid, cfg["finite_k"])
            lines = ["beta,k,rho_k_db"]
            lines += [f"{_fmt(b)},{k},{_fmt(r)}" for b, k, r in rows]
        else:
            rows = sweep_beta(scenario, grid)
            lines = ["beta,rho_db,psi_db"]
            lines += [f"{_fmt(b)},{_fmt(r)},{_fmt(p)}" for b, r, p in rows]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _emit(lines, cfg.get("output"))
    return 0


def cmd_transient(cfg: dict) -> int:
    scenario = _build_scenario(cfg)
    quality = cfg.get("lambda", 3.0)
    fbar = steady_fbar(scenario, "onebit")
    fbar_inf = steady_fbar(scenario, "ideal")
    try:
        report = transient_report(scenario.state, fbar, fbar_inf, quality)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    loss = slow_evolution_loss(fbar, fbar_inf, scenario.state)
    lines = ["quantity,value",
             f"xi,{_fmt(report.xi)}",
             "nu,1",                 # order of convergence (linear)
             f"k_lambda,{report.k_lambda}",
             f"k_lambda_ideal,{report.k_lambda_ideal}",
             f"k_lambda_analytic,{_fmt(report.k_lambda_analytic)}",
             f"k_lambda_ideal_analytic,{_fmt(report.k_lambda_ideal_analytic)}",
             f"k_lambda_approx,{_fmt(report.k_lambda_approx)}",
             f"delta,{_fmt(report.delta)}",
             f"rho_db,{_fmt(db(loss.rho))}",
             f"rho_approx_db,{_fmt(db(loss.rho_approx))}",
             f"conditions_ok,{int(report.conditions_ok)}"]
    _emit(lines, cfg.get("output"))
    return 0


_COMMANDS = {
    "fisher": cmd_fisher,
    "bound": cmd_bound,
    "track": cmd_track,
    "sweep": cmd_sweep,
    "transient": cmd_transient,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onebit-tracking",
        description="Tracking-performance bounds and simulations for "
                    "1-bit quantized receivers.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value configuration file")
        for key, kind, commands, help_ in _PARAMS:
            if commands is not None and name not in commands:
                continue
            flag = "--" + key.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, dest=key, action="store_true",
                               default=None, help=help_)
            elif isinstance(kind, tuple):
                p.add_argument(flag, dest=key, choices=kind, help=help_)
            else:
                p.add_argument(flag, dest=key, type=kind, help=help_)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](_merged_config(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
