"""Tests of the benchmark's own machinery: tracer, gate and metric names."""
import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
from tracer import Hook, Tracer, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_spans():
    clock = FakeClock()
    tracer = Tracer(phases=("outer",), clock=clock)

    def leaf(dt):
        clock.now += dt

    def inner():
        clock.now += 1.0
        tracer.call("leaf", leaf, (0.5,), {})
        tracer.call("leaf", leaf, (0.25,), {})

    def outer():
        clock.now += 2.0
        tracer.call("inner", inner, (), {})
        tracer.call("leaf", leaf, (4.0,), {})

    tracer.call("outer", outer, (), {})
    out, mid = tracer.total("outer"), tracer.total("inner")
    assert (out.calls, out.total_s, out.self_s) == (1, 7.75, 2.0)
    assert (mid.total_s, mid.self_s) == (1.75, 1.0)
    assert tracer.total("leaf").total_s == tracer.total("leaf").self_s == 4.75
    # every leaf ran inside the phase "outer"; the outermost call has no phase
    assert tracer.total("leaf", "outer").calls == 3
    assert tracer.total("outer", "").calls == 1
    assert tracer.self_sum() == 7.75


def test_self_time_survives_an_exception():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError("inner failure")

    def outer():
        clock.now += 1.0
        with pytest.raises(ValueError):
            tracer.call("boom", boom, (), {})

    tracer.call("outer", outer, (), {})
    assert tracer.total("outer").self_s == 1.0
    assert tracer.total("boom").calls == 1


class Widget:
    def size(self, n):
        return list(range(n))


def test_absent_hooks_are_reported_and_present_ones_restored():
    module = __name__
    tracer = Tracer()
    hooks = (
        Hook("widget.size", f"{module}:Widget", "size", lambda a, k, r: len(r)),
        Hook("gone.module", "no_such_module_anywhere", "f"),
        Hook("gone.class", f"{module}:NoSuchClass", "f"),
        Hook("gone.attr", f"{module}:Widget", "no_such_method"),
    )
    absent, restore = install(hooks, tracer)
    assert absent == ["gone.module", "gone.class", "gone.attr"]
    assert Widget().size(3) == [0, 1, 2]
    stat = tracer.total("widget.size")
    assert (stat.calls, stat.units, stat.peak_units) == (1, 3, 3)
    restore()
    Widget().size(5)
    assert tracer.total("widget.size").calls == 1


def test_failing_counter_does_not_fail_the_call():
    tracer = Tracer()
    assert tracer.call("f", lambda: 7, (), {}, count=lambda a, k, r: r.missing) == 7
    assert tracer.count_errors == {"f"}


def _write_run(out: Path, rows, fisher=None, batch_size=10):
    out.mkdir(parents=True)
    artifacts = {"metrics": "metrics.csv", "checkpoint": "checkpoint.json"}
    if fisher:
        artifacts["fisher"] = [[f"fisher_ck_{ep}.csv", f"fisher_ck_{ep}.json"] for ep in fisher]
        for ep, eigen in fisher.items():
            (out / f"fisher_ck_{ep}.json").write_text(
                json.dumps({"trace": sum(eigen), "k": len(eigen), "checkpoint_episode": ep}))
            (out / f"fisher_ck_{ep}.csv").write_text(
                "eigenvalue\n" + "".join(f"{v!r}\n" for v in eigen))
    (out / "manifest.json").write_text(
        json.dumps({"config": {"batch_size": batch_size}, "artifacts": artifacts}))
    (out / "checkpoint.json").write_text(json.dumps({"theta": [0.1, 0.2], "beta": 1.0}))
    with open(out / "metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(gate.COLUMNS + ("elapsed_ms",))
        for i, row in enumerate(rows):
            writer.writerow([i] + [repr(v) for v in row] + ["0"])


ROWS = [(10.0 + i, 9.5 + i, 0.98, 7.97460489261545) for i in range(20)]


def _reference(rows, fisher=None):
    ref = {"metrics": {c: [r[j] for r in rows] for j, c in enumerate(gate.EXACT + gate.CLOSE)}}
    if fisher:
        ref["fisher"] = {str(ep): {"trace": sum(e), "k": len(e), "eigenvalues": e}
                         for ep, e in fisher.items()}
    return ref


def test_gate_accepts_rounding_noise_in_grad_norm(tmp_path):
    noisy = [r[:3] + (r[3] + 1e-14,) for r in ROWS]
    _write_run(tmp_path / "run", noisy)
    assert gate.failed_batches(tmp_path / "run", 20, 10, _reference(ROWS)) == set()


def test_gate_rejects_a_changed_total_reward(tmp_path):
    changed = list(ROWS)
    changed[13] = (changed[13][0] + 1.0,) + changed[13][1:]
    _write_run(tmp_path / "run", changed)
    assert gate.failed_batches(tmp_path / "run", 20, 10, _reference(ROWS)) == {1}


def test_gate_charges_missing_episodes_and_files(tmp_path):
    _write_run(tmp_path / "short", ROWS[:15])
    assert gate.failed_batches(tmp_path / "short", 20, 10) == {0, 1}
    _write_run(tmp_path / "nan", ROWS[:9] + [(float("nan"),) + ROWS[9][1:]] + ROWS[10:])
    assert gate.failed_batches(tmp_path / "nan", 20, 10) == {0}
    (tmp_path / "short" / "checkpoint.json").unlink()
    assert gate.failed_batches(tmp_path / "short", 20, 10) == {0, 1}


def test_gate_scales_eigenvalue_tolerance_by_the_largest(tmp_path):
    eigen = [2.0, 1e-3, 1e-15]
    _write_run(tmp_path / "close", ROWS, {10: [2.0 + 3e-14, 1e-3 - 3e-14, 0.0]})
    _write_run(tmp_path / "far", ROWS, {10: [2.0, 1e-3 + 1e-6, 1e-15]})
    ref = _reference(ROWS, {10: eigen})
    assert gate.failed_batches(tmp_path / "close", 20, 10, ref) == set()
    assert gate.failed_batches(tmp_path / "far", 20, 10, ref) == {0}


def test_zero_advantage_counter():
    capped = [np.array([86.6, 85.5, 84.4])] * 10
    baseline = sum(capped) / 10
    assert child.is_zero_advantage(capped, baseline) == 1
    ragged = [np.array([3.0, 2.0]), np.array([1.0])]
    assert child.is_zero_advantage(ragged, np.array([2.0, 2.0])) == 0


def test_printed_metric_names_are_declared_in_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}

    rep = run.Rep(wall_s=2.0, steps=10, time_to_solve_s=1.0, setups=[0.1])
    assert set(run.summarize(rep, [rep], trace=False)) == set(run.END_TO_END)
    traced = run.Rep(wall_s=2.2, main_s=2.0, trace=Tracer(), trace_cost_s=0.1)
    assert set(run.summarize(rep, [traced], trace=True)) == set(run.PER_LAYER)


def test_traced_call_cost_is_measured_and_the_hook_removed():
    plain = child._Noop.call
    assert child.traced_call_cost(calls=2000, rounds=2) >= 0.0
    assert child._Noop.call is plain
