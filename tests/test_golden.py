"""Golden runs: training replayed against committed reference outputs.

The first 100 episodes of cartpole-quantum, seed 0, replay the reference run
in `cp_s0/`; the benchmark's recorded runs in `perfbench/reference/` (read
here, never written) and the shot-mode runs in `tests/reference/shots.json`
(written by `tests/reference/record.py`) replay through `qpolgrad run`. The
rule is the benchmark gate's: `total_reward` and `discounted_return` match
exactly, `beta` and `grad_norm` within abs 1e-9 + rel 1e-9, because batches
whose advantages are zero give a gradient norm of about 1e-14 that is pure
rounding noise, and Fisher eigenvalues within 1e-9 of the largest one.
`tests/reference/record.py --check` replays all of them by that rule (the
shot runs it records exactly), and its comparison is tested here.
"""
import csv
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from qpolgrad import cli
from qpolgrad import config as cfg
from qpolgrad import reinforce, tools

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "cp_s0" / "metrics.csv"
RECORDED = ROOT / "perfbench" / "reference"
SHOTS = Path(__file__).resolve().parent / "reference" / "shots.json"
EPISODES = 100
TOL = 1e-9


def test_cartpole_quantum_seed0_replays_reference_run():
    with open(REFERENCE, newline="") as fh:
        reference = list(csv.DictReader(fh))[:EPISODES]
    run = cfg.preset_config("cartpole-quantum", {"seed": 0, "episodes": EPISODES})
    records = list(reinforce.train(run))
    assert [r.episode for r in records] == [int(row["episode"]) for row in reference]
    for column in ("total_reward", "discounted_return"):
        np.testing.assert_array_equal([getattr(r, column) for r in records],
                                      [float(row[column]) for row in reference])
    for column in ("beta", "grad_norm"):
        np.testing.assert_allclose([getattr(r, column) for r in records],
                                   [float(row[column]) for row in reference],
                                   rtol=TOL, atol=TOL)


def replay(out: Path, ref: dict, args: list[str]) -> None:
    """Run a recorded run again with its extra `args` and check its metrics
    and Fisher files by the golden rule."""
    assert cli.main(["run", "--preset", ref["preset"], "--seed", str(ref["seed"]),
                     "--episodes", str(ref["episodes"]), "--out", str(out), *args]) == 0
    got = tools.read_metrics(out / "metrics.csv")
    for column in ("total_reward", "discounted_return"):
        np.testing.assert_array_equal(got[column], ref["metrics"][column])
    for column in ("beta", "grad_norm"):
        np.testing.assert_allclose(got[column], ref["metrics"][column], rtol=TOL, atol=TOL)
    for episode, want in ref.get("fisher", {}).items():
        info = json.loads((out / f"fisher_ck_{episode}.json").read_text())
        with open(out / f"fisher_ck_{episode}.csv", newline="") as fh:
            eigenvalues = [float(row["eigenvalue"]) for row in csv.DictReader(fh)]
        assert info["k"] == want["k"] == len(eigenvalues)
        np.testing.assert_allclose(info["trace"], want["trace"], rtol=TOL, atol=TOL)
        scale = TOL * max(abs(v) for v in want["eigenvalues"])
        np.testing.assert_allclose(eigenvalues, want["eigenvalues"], rtol=0, atol=scale)


@pytest.mark.parametrize("workload", ["acrobot-quantum", "cartpole-classical",
                                      "qcontrol-fisher"])
def test_recorded_benchmark_runs_replay(tmp_path, workload):
    runs = json.loads((RECORDED / f"{workload}.json").read_text())["runs"]
    for i, ref in enumerate(runs):
        replay(tmp_path / str(i), ref, ["--fisher"] if "fisher" in ref else [])


def test_recorded_shot_runs_replay(tmp_path):
    runs = json.loads(SHOTS.read_text())["runs"]
    assert [ref["preset"] for ref in runs] == ["cartpole-quantum", "qcontrol-quantum"]
    for i, ref in enumerate(runs):
        assert "--shots" in ref["args"] and ref["fisher"]
        replay(tmp_path / str(i), ref, ref["args"])


def load_record():
    """`tests/reference/record.py` as a module (it is a script, not a package)."""
    spec = importlib.util.spec_from_file_location("record", SHOTS.parent / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reference_check_reports_deviations_and_applies_each_rule():
    # `record.py --check` reports each column's largest deviations and first
    # differing episode and each spectrum's eigenvalue deviation over the
    # largest eigenvalue; the golden rule forgives last-bit noise in beta,
    # grad_norm and the spectra, the exact rule of the shot runs nothing.
    record = load_record()
    metrics = {name: [1.0, 2.0, 4.0] for name in record.COLUMNS}
    spectrum = {"trace": 3.0, "k": 2, "eigenvalues": [2.0, 1.0]}
    recorded = {"metrics": metrics, "fisher": {"10": spectrum}}

    def fresh(column=None, episode=0, value=0.0, eigenvalue=0.0):
        run = json.loads(json.dumps(recorded))
        if column:
            run["metrics"][column][episode] += value
        run["fisher"]["10"]["eigenvalues"][1] += eigenvalue
        return run

    lines, ok = record.compare(recorded, fresh(), exact=True)
    assert ok and lines[2].endswith(" beta              max abs 0, max rel 0, first differing "
                                    "episode none")
    lines, ok = record.compare(recorded, fresh("beta", 2, 4e-12), exact=False)
    assert ok and lines[2].endswith("max abs 4e-12, max rel 1e-12, first differing episode 2")
    assert not record.compare(recorded, fresh("beta", 2, 4e-12), exact=True)[1]
    assert not record.compare(recorded, fresh("beta", 1, 1e-6), exact=False)[1]
    assert not record.compare(recorded, fresh("total_reward", 1, 1e-12), exact=False)[1]
    lines, ok = record.compare(recorded, fresh(eigenvalue=1e-12), exact=False)
    assert ok and "eigenvalue deviation / largest eigenvalue 5e-13" in lines[-1]
    assert not record.compare(recorded, fresh(eigenvalue=1e-8), exact=False)[1]
    missing = fresh()
    missing["fisher"] = {}
    lines, ok = record.compare(recorded, missing, exact=False)
    assert not ok and lines[-1] == "  Fisher 10: recorded only"
    short = fresh()
    short["metrics"]["grad_norm"].pop()
    assert not record.compare(recorded, short, exact=False)[1]
