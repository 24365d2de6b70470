"""Tests of the benchmark's own pieces; they run without the program.

    python3 -m pytest bench/tests -q
"""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import worker  # noqa: E402
from workloads import CHECK_IDS, WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_metric_names_are_valid_and_match_the_spec():
    specs = spans.per_layer_specs(CHECK_IDS)
    names = ([m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert all(spans.METRIC_NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        [(name, unit) for name, unit, _ in specs]
    outputs = {"traj_steps": 10, "sample_trajs": 2, "clamp_count": 0,
               "ledger_bytes": 5}
    computed = spans.op_layer_values([], outputs, CHECK_IDS)
    assert set(computed) | {"trace.overhead_frac"} == {n for n, _, _ in specs}


def test_workloads_match_the_spec():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]


def _span(id, name, start, end, parent=-1, work=0):
    return spans.Span(id, 0, name, start, end, parent, work)


def test_self_time_on_a_synthetic_nesting():
    nest = [_span(0, "outer", 0.0, 10.0),
            _span(1, "child", 1.0, 3.0, parent=0),
            _span(2, "child", 4.0, 8.0, parent=0),
            _span(3, "leaf", 5.0, 6.0, parent=2, work=7),
            _span(4, "other", 20.0, 21.0)]
    assert spans.self_times(nest) == [4.0, 2.0, 3.0, 1.0, 1.0]
    # a filtered list keeps the nesting: parents are ids, not positions
    assert spans.self_times([nest[2], nest[3]]) == [3.0, 1.0]
    t = spans.totals(nest)
    assert t["child"] == {"calls": 2, "s": 6.0, "self_s": 5.0, "work": 0}
    assert t["leaf"]["work"] == 7


def test_recorder_links_nested_calls():
    ticks = iter(range(100))
    recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap("inner", lambda n: n + 1, work=lambda n: n)
    outer = recorder.wrap("outer", lambda n: inner(n) * 2)
    assert outer(3) == 8
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["inner"].work == 3
    assert spans.self_times(recorder.spans) == [2.0, 1.0]


def test_missing_hook_is_reported_unmeasured_not_zero(monkeypatch):
    module = types.ModuleType("fake_lib")
    module.present = lambda: 1
    monkeypatch.setitem(sys.modules, "fake_lib", module)
    patches = spans.Patches(spans.SpanRecorder())
    patches.install([spans.Hook("grid.advance", "fake_lib", "advance_values"),
                     spans.Hook("metrics.assemble", "fake_lib", "present"),
                     spans.Hook("report.write", "no_such_module", "f")])
    assert patches.unmeasured == {"grid.advance", "report.write"}
    assert module.present() == 1 and patches.recorder.spans
    patches.restore()
    assert not hasattr(module.present, "__wrapped__")

    ops = [worker.Op(1, True, 2.0), worker.Op(1, False, 1.0)]
    outputs = {"traj_steps": 4, "sample_trajs": 2, "clamp_count": 0,
               "ledger_bytes": 9}
    row = spans.op_layer_values([], outputs, CHECK_IDS)
    layers = worker.aggregate_layers([row], ops, patches.unmeasured)
    for name, _, layer in spans.per_layer_specs(CHECK_IDS):
        if layer in patches.unmeasured:
            assert layers[name] is None, name
    assert layers["grid.advance.calls"] is None
    assert layers["metrics.assemble.s"] == 0.0
    assert layers["trace.overhead_frac"] == pytest.approx(1.0)


class _Ledger:
    def __init__(self, all_pass=True):
        self.times = [0.0, 0.05]
        self._all_pass = all_pass

    def all_finite(self):
        return True

    def invariant_report(self):
        return {"S_rate_nonneg": self._all_pass, "all_pass": self._all_pass}

    def column(self, name):
        return [1.0, 2.0]


def _fake_run(workload):
    import numpy as np
    n, s, m = workload.n_trajectories, workload.n_samples, workload.n_cells
    return types.SimpleNamespace(
        states=np.zeros((s, n)), prior_fp=np.zeros((s, m)),
        times=workload.dt * workload.stride * np.arange(s),
        config=types.SimpleNamespace(dt=workload.dt))


def test_forced_invariant_failure_counts_in_failed_frac():
    workload = WORKLOADS["dw_filter"]
    run = _fake_run(workload)
    verdicts = iter([True, False, True, True])

    def run_op(seed, traced):
        ledger = _Ledger(all_pass=next(verdicts))
        op = worker.Op(seed, traced, 0.5)
        op.failures += worker.ensemble_failures(
            workload, types.SimpleNamespace(ledger=ledger), run, b"x",
            None, b"x")
        return op

    ops = worker.measure(run_op, iter([(1, False)] * 4), seconds=0.0,
                         min_ops=4)
    assert worker.tally(ops) == (4, 1)
    assert ops[1].failures == ["invariants violated: S_rate_nonneg"]


def test_output_checks_catch_wrong_work_reference_and_bytes():
    workload = WORKLOADS["dw_filter"]
    run = _fake_run(workload)
    controlled = types.SimpleNamespace(ledger=_Ledger())
    ok = worker.ensemble_failures(workload, controlled, run, b"a",
                                  {"H": [1.0, 2.0]}, b"a")
    assert ok == []
    run.states = run.states[:, :-1]                      # one trajectory short
    bad = worker.ensemble_failures(workload, controlled, run, b"b",
                                   {"H": [1.0, 2.0 + 1e-6]}, b"a")
    assert len(bad) == 3
    assert "work done" in bad[0] and "reference" in bad[1] and "bytes" in bad[2]


def test_measure_stops_when_the_next_operation_would_overrun():
    clock = iter(range(0, 1000, 3))
    now = [0.0]

    def tick():
        now[0] = float(next(clock))
        return now[0]

    ops = worker.measure(lambda seed, traced: worker.Op(seed, traced, 3.0),
                         iter([(0, False)] * 50), seconds=10.0, min_ops=2,
                         clock=tick)
    assert 2 <= len(ops) < 50
