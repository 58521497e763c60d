"""Self-tests of the benchmark's span recorder.

Run with:  python3 -m pytest perfbench/tests -q
"""

import json
import os

import pytest

import run
import tracer
from tracer import END, NAME, PARENT, START

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _span(name, parent, start, end):
    s = [None] * 5
    s[NAME], s[PARENT], s[START], s[END] = name, parent, start, end
    return s


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    spans = [_span("root", -1, 0.0, 10.0), _span("a", 0, 1.0, 4.0),
             _span("b", 0, 5.0, 9.0), _span("c", 2, 6.0, 7.0)]
    dur, self_ = tracer.self_times(spans)
    assert list(dur) == [10.0, 3.0, 4.0, 1.0]
    assert list(self_) == [3.0, 3.0, 3.0, 1.0]


def test_span_records_parent_and_error():
    tr = tracer.Tracer()
    f = tr.wrap("inner", lambda x: 1 / x)
    with tr.span("outer"):
        f(1.0)
        with pytest.raises(ZeroDivisionError):
            f(0.0)
    assert [s[NAME] for s in tr.spans] == ["outer", "inner", "inner"]
    assert [s[PARENT] for s in tr.spans] == [-1, 0, 0]
    assert tr.spans[2][tracer.ERROR] == "ZeroDivisionError"


def _traced(argvs):
    from onebit_tracking import cli
    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        for argv in argvs:
            with tr.span("cli"):
                assert cli.main(argv) == 0
    finally:
        tr.remove()
    return tracer.layer_metrics(tr, 0)


def test_wrappers_removed_after_traced_run(tmp_path):
    before = tracer.site_objects()
    metrics = _traced([["bound", "--scenario", "mobile", "--blocks", "5",
                        "--output", str(tmp_path / "b.csv")]])
    assert metrics["info.quadrature_rule.count"] > 0
    after = tracer.site_objects()
    assert len(after) == len(tracer.patch_sites())
    assert all(a is b for a, b in zip(before, after))


def test_deterministic_counters_repeat_at_fixed_seed(tmp_path):
    argvs = [
        ["track", "--scenario", "ranging", "--trials", "1", "--realizations", "2",
         "--blocks", "30", "--seed", "7", "--output", str(tmp_path / "r.csv")],
        ["track", "--scenario", "mobile", "--trials", "1", "--realizations", "2",
         "--blocks", "30", "--seed", "7", "--output", str(tmp_path / "m.csv")],
    ]
    first = _traced(argvs)
    second = _traced(argvs)
    for name in tracer.DETERMINISTIC:
        assert first[name] == second[name], name
    for name in ("filters.pf_step.count", "channel.generator.count",
                 "info.quadrature_rule.count", "info.fisher_onebit.count",
                 "fastlik.delay.lags_evaluated", "fastlik.delay.lags_spanned"):
        assert first[name] > 0, name
    # 2 receivers x 2 trials x 30 blocks on each scenario
    assert first["filters.pf_step.count"] == 240
    # 120 delay calls; each correlates N = 2046 samples over M*N fine lags
    assert first["fastlik.delay.lags_evaluated"] == 120 * 8 * 2046
    assert first["fastlik.delay.bytes_computed"] == 120 * (8 * 2046 + 16 * 8 * 2046)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == tracer.LAYER_METRICS
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert set(tracer.DETERMINISTIC) <= dict(tracer.LAYER_METRICS).keys()


def test_run_refuses_a_checkout_without_the_package(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", os.path.join(ROOT, "perfbench", "no-such-src"))
    code = run.main(["--workload", "bounds-mobile", "--seed", "0",
                     "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
