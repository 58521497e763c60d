"""Span recorder that times the package's layers from outside.

The package is not changed.  Instead, every place where the CLI path
looks up a layer's public function is replaced by a wrapper that
records a span (name, parent, start, end, error) and, for some layers,
a work counter.  Names imported with ``from .x import name`` are looked
up in the importing module, methods in their class, and numpy's
``hermgauss`` in ``numpy.polynomial.hermite`` at call time, so each of
those places is patched (see ``patch_sites``).  ``Tracer.remove``
restores every original object.

Self time of a span is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# span fields
NAME, PARENT, START, END, ERROR = range(5)

# (metric, unit); the traced run reports exactly these, in this order
LAYER_METRICS = [
    ("fastlik.onebit_delay.calls", "count"),
    ("fastlik.onebit_delay.time_s", "s"),
    ("fastlik.onebit_delay.p50_us", "us"),
    ("fastlik.onebit_delay.p99_us", "us"),
    ("fastlik.ideal_delay.calls", "count"),
    ("fastlik.ideal_delay.time_s", "s"),
    ("fastlik.ideal_delay.p50_us", "us"),
    ("fastlik.ideal_delay.p99_us", "us"),
    ("fastlik.delay.lags_evaluated", "lags"),
    ("fastlik.delay.lags_spanned", "lags"),
    ("fastlik.delay.lag_utilization", "ratio"),
    ("fastlik.delay.bytes_computed", "B"),
    ("fastlik.correlate.time_s", "s"),
    ("fastlik.interp.calls", "count"),
    ("fastlik.interp.time_s", "s"),
    ("fastlik.build.count", "count"),
    ("fastlik.build.time_s", "s"),
    ("fastlik.linear.calls", "count"),
    ("fastlik.linear.time_s", "s"),
    ("filters.pf_step.count", "count"),
    ("filters.pf_step.self_s", "s"),
    ("filters.pf_step.p50_us", "us"),
    ("filters.pf_step.p99_us", "us"),
    ("filters.resample.count", "count"),
    ("filters.resample_rate", "ratio"),
    ("filters.degenerate.count", "count"),
    ("experiments.trajectory.count", "count"),
    ("experiments.trajectory.self_s", "s"),
    ("experiments.trials.attempted", "count"),
    ("experiments.trials.discarded", "count"),
    ("experiments.run_bounds.time_s", "s"),
    ("signals.eval.count", "count"),
    ("signals.eval.synthesis_s", "s"),
    ("signals.eval.quadrature_s", "s"),
    ("channel.generator.count", "count"),
    ("channel.generator.time_s", "s"),
    ("channel.log_q.calls", "count"),
    ("channel.log_q.time_s", "s"),
    ("channel.sign_bit.time_s", "s"),
    ("info.expected_fisher.count", "count"),
    ("info.expected_fisher.time_s", "s"),
    ("info.expected_fisher.self_s", "s"),
    ("info.fisher_onebit.count", "count"),
    ("info.fisher_onebit.time_s", "s"),
    ("info.fisher_ideal.count", "count"),
    ("info.quadrature_rule.count", "count"),
    ("info.quadrature_rule.time_s", "s"),
    ("state_space.sample_trajectory.time_s", "s"),
    ("state_space.marginal_moments.count", "count"),
    ("state_space.marginal_moments.time_s", "s"),
    ("bounds.bound_recursion.count", "count"),
    ("bounds.bound_recursion.time_s", "s"),
    ("bounds.recursion_blocks", "count"),
    ("bounds.transient_report.time_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("trace.overhead_s", "s"),
]

# counters that must repeat exactly for a fixed seed
DETERMINISTIC = (
    "filters.pf_step.count", "filters.resample.count",
    "filters.degenerate.count", "info.quadrature_rule.count",
    "info.fisher_onebit.count", "channel.generator.count",
    "fastlik.delay.lags_evaluated", "fastlik.delay.lags_spanned",
)


class Tracer:
    """In-memory span list plus named work counters."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name):
        """Record the body as a span, child of the innermost open span."""
        span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span[START] = time.perf_counter()
        try:
            yield
        except BaseException as exc:
            span[ERROR] = type(exc).__name__
            raise
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, note=None):
        """fn with a span around every call; note(args, result) counts work."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if note is not None:
                note(args, result)
            return result
        return traced

    def patch(self, owner, attr, name, note=None):
        original = _lookup(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, note))

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _lookup(owner, attr):
    # a class attribute is read from __dict__ so that restoring it puts
    # back the plain function, not a bound or inherited object
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def site_objects() -> list:
    """The objects currently at every patch site, for identity checks."""
    return [_lookup(owner, attr) for owner, attr, _ in patch_sites()]


def patch_sites():
    """(owner, attribute, span name) for every lookup site on the CLI path."""
    import numpy.polynomial.hermite as hermite
    from onebit_tracking import (bounds, channel, cli, experiments, fastlik,
                                 filters, info, signals, state_space)
    return [
        (experiments, "_trajectory_worker", "experiments.trajectory"),
        (experiments, "run_bounds", "experiments.run_bounds"),
        (cli, "run_bounds", "experiments.run_bounds"),
        (experiments, "pf_step", "filters.pf_step"),
        (filters, "pf_step", "filters.pf_step"),
        (filters, "systematic_resample", "filters.resample"),
        (experiments, "make_likelihood", "fastlik.build"),
        (fastlik, "make_likelihood", "fastlik.build"),
        (fastlik.OneBitDelayLikelihood, "__call__", "fastlik.onebit_delay"),
        (fastlik.IdealDelayLikelihood, "__call__", "fastlik.ideal_delay"),
        (fastlik._DelayCorrelator, "correlate", "fastlik.correlate"),
        (fastlik.OneBitLinearLikelihood, "__call__", "fastlik.linear"),
        (fastlik.IdealLinearLikelihood, "__call__", "fastlik.linear"),
        (fastlik, "periodic_cubic_interp", "fastlik.interp"),
        (signals.DelayWaveform, "eval", "signals.eval"),
        (signals.LinearGainWaveform, "eval", "signals.eval"),
        (channel.NoiseModel, "generator", "channel.generator"),
        (fastlik, "log_q", "channel.log_q"),
        (info, "log_q", "channel.log_q"),
        (channel, "log_q", "channel.log_q"),
        (experiments, "sign_bit", "channel.sign_bit"),
        (channel, "sign_bit", "channel.sign_bit"),
        (experiments, "expected_fisher", "info.expected_fisher"),
        (info, "expected_fisher", "info.expected_fisher"),
        (experiments, "fisher_onebit", "info.fisher_onebit"),
        (info, "fisher_onebit", "info.fisher_onebit"),
        (experiments, "fisher_ideal", "info.fisher_ideal"),
        (info, "fisher_ideal", "info.fisher_ideal"),
        (hermite, "hermgauss", "info.quadrature_rule"),
        (experiments, "sample_trajectory", "state_space.sample_trajectory"),
        (state_space, "sample_trajectory", "state_space.sample_trajectory"),
        (experiments, "marginal_moments", "state_space.marginal_moments"),
        (state_space, "marginal_moments", "state_space.marginal_moments"),
        (bounds, "bound_recursion", "bounds.bound_recursion"),
        (cli, "transient_report", "bounds.transient_report"),
        (bounds, "transient_report", "bounds.transient_report"),
    ]


def install(tracer: Tracer) -> None:
    """Patch every site in patch_sites(), with the work counters attached."""
    from onebit_tracking import fastlik, signals

    # fine lags per unit of delay of each delay likelihood, recorded when
    # the harness builds it
    pos_scale = weakref.WeakKeyDictionary()
    counters = tracer.counters

    def note_build(args, lik):
        waveform = args[0]
        if isinstance(waveform, signals.DelayWaveform):
            pos_scale[lik] = fastlik.DEFAULT_OVERSAMPLING * waveform.sample_rate

    def note_delay_call(args, _result):
        scale = pos_scale.get(args[0])
        if scale is not None:
            counters["fastlik.delay.lags_spanned"] += float(np.ptp(args[2])) * scale

    def note_correlate(args, lags):
        # the lags the correlator returns, and the bytes of the block it
        # reads plus those of the array it returns (the whole complex
        # buffer when the lags are its real part)
        counters["fastlik.delay.lags_evaluated"] += lags.size
        buffer = lags if lags.base is None else lags.base
        counters["fastlik.delay.bytes_computed"] += args[1].nbytes + buffer.nbytes

    def note_trajectory(_args, result):
        _p, _sse1, _sse2, completed, discarded = result
        counters["experiments.trials.attempted"] += completed + discarded
        counters["experiments.trials.discarded"] += discarded

    def note_recursion(_args, u):
        counters["bounds.recursion_blocks"] += u.size - 1

    notes = {
        "fastlik.build": note_build,
        "fastlik.onebit_delay": note_delay_call,
        "fastlik.ideal_delay": note_delay_call,
        "fastlik.correlate": note_correlate,
        "experiments.trajectory": note_trajectory,
        "bounds.bound_recursion": note_recursion,
    }
    for owner, attr, name in patch_sites():
        tracer.patch(owner, attr, name, notes.get(name))


def self_times(spans) -> tuple[np.ndarray, np.ndarray]:
    """(duration, self time) per span; self excludes direct children."""
    dur = np.array([s[END] - s[START] for s in spans], dtype=float)
    parent = np.array([s[PARENT] for s in spans], dtype=np.int64)
    children = np.zeros(dur.size)
    nested = parent >= 0
    np.add.at(children, parent[nested], dur[nested])
    return dur, dur - children


def _has_ancestor(spans, idx, name) -> bool:
    idx = spans[idx][PARENT]
    while idx >= 0:
        if spans[idx][NAME] == name:
            return True
        idx = spans[idx][PARENT]
    return False


def layer_metrics(tracer: Tracer, bytes_written: float) -> dict:
    """Per-layer metrics of one traced iteration (trace.overhead_s excluded)."""
    spans = tracer.spans
    dur, self_ = self_times(spans) if spans else (np.zeros(0), np.zeros(0))
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def count(name):
        return len(by_name[name])

    def total(name):
        return float(dur[by_name[name]].sum())

    def self_total(name):
        return float(self_[by_name[name]].sum())

    def pct_us(name, q):
        d = dur[by_name[name]]
        return float(np.percentile(d, q) * 1e6) if d.size else 0.0

    c = tracer.counters
    out = {}
    for layer in ("onebit_delay", "ideal_delay"):
        name = f"fastlik.{layer}"
        out[f"{name}.calls"] = count(name)
        out[f"{name}.time_s"] = total(name)
        out[f"{name}.p50_us"] = pct_us(name, 50)
        out[f"{name}.p99_us"] = pct_us(name, 99)
    evaluated = c["fastlik.delay.lags_evaluated"]
    out["fastlik.delay.lags_evaluated"] = evaluated
    out["fastlik.delay.lags_spanned"] = c["fastlik.delay.lags_spanned"]
    out["fastlik.delay.lag_utilization"] = (
        c["fastlik.delay.lags_spanned"] / evaluated if evaluated else 0.0)
    out["fastlik.delay.bytes_computed"] = c["fastlik.delay.bytes_computed"]
    out["fastlik.correlate.time_s"] = total("fastlik.correlate")
    out["fastlik.interp.calls"] = count("fastlik.interp")
    out["fastlik.interp.time_s"] = total("fastlik.interp")
    out["fastlik.build.count"] = count("fastlik.build")
    out["fastlik.build.time_s"] = total("fastlik.build")
    out["fastlik.linear.calls"] = count("fastlik.linear")
    out["fastlik.linear.time_s"] = total("fastlik.linear")

    steps = count("filters.pf_step")
    out["filters.pf_step.count"] = steps
    out["filters.pf_step.self_s"] = self_total("filters.pf_step")
    out["filters.pf_step.p50_us"] = pct_us("filters.pf_step", 50)
    out["filters.pf_step.p99_us"] = pct_us("filters.pf_step", 99)
    out["filters.resample.count"] = count("filters.resample")
    out["filters.resample_rate"] = count("filters.resample") / steps if steps else 0.0
    out["filters.degenerate.count"] = sum(
        spans[i][ERROR] == "DegenerateCloudError" for i in by_name["filters.pf_step"])

    out["experiments.trajectory.count"] = count("experiments.trajectory")
    out["experiments.trajectory.self_s"] = self_total("experiments.trajectory")
    out["experiments.trials.attempted"] = c["experiments.trials.attempted"]
    out["experiments.trials.discarded"] = c["experiments.trials.discarded"]
    out["experiments.run_bounds.time_s"] = total("experiments.run_bounds")

    evals = by_name["signals.eval"]
    synthesis = [i for i in evals if _has_ancestor(spans, i, "experiments.trajectory")]
    out["signals.eval.count"] = len(evals)
    out["signals.eval.synthesis_s"] = float(dur[synthesis].sum())
    out["signals.eval.quadrature_s"] = total("signals.eval") - out["signals.eval.synthesis_s"]

    out["channel.generator.count"] = count("channel.generator")
    out["channel.generator.time_s"] = total("channel.generator")
    out["channel.log_q.calls"] = count("channel.log_q")
    out["channel.log_q.time_s"] = total("channel.log_q")
    out["channel.sign_bit.time_s"] = total("channel.sign_bit")

    out["info.expected_fisher.count"] = count("info.expected_fisher")
    out["info.expected_fisher.time_s"] = total("info.expected_fisher")
    out["info.expected_fisher.self_s"] = self_total("info.expected_fisher")
    out["info.fisher_onebit.count"] = count("info.fisher_onebit")
    out["info.fisher_onebit.time_s"] = total("info.fisher_onebit")
    out["info.fisher_ideal.count"] = count("info.fisher_ideal")
    out["info.quadrature_rule.count"] = count("info.quadrature_rule")
    out["info.quadrature_rule.time_s"] = total("info.quadrature_rule")

    out["state_space.sample_trajectory.time_s"] = total("state_space.sample_trajectory")
    out["state_space.marginal_moments.count"] = count("state_space.marginal_moments")
    out["state_space.marginal_moments.time_s"] = total("state_space.marginal_moments")

    out["bounds.bound_recursion.count"] = count("bounds.bound_recursion")
    out["bounds.bound_recursion.time_s"] = total("bounds.bound_recursion")
    out["bounds.recursion_blocks"] = c["bounds.recursion_blocks"]
    out["bounds.transient_report.time_s"] = total("bounds.transient_report")

    out["cli.self_s"] = self_total("cli")
    out["cli.bytes_written"] = float(bytes_written)
    return out
