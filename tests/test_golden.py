"""Golden runs: training replayed against committed reference outputs.

The first 100 episodes of cartpole-quantum, seed 0, replay the reference run
in `cp_s0/`; the benchmark's recorded runs in `perfbench/reference/` (read
here, never written) and the shot-mode runs in `tests/reference/shots.json`
(written by `tests/reference/record.py`) replay through `qpolgrad run`. The
rule is the benchmark gate's: `total_reward` and `discounted_return` match
exactly, `beta` and `grad_norm` within abs 1e-9 + rel 1e-9, because batches
whose advantages are zero give a gradient norm of about 1e-14 that is pure
rounding noise, and Fisher eigenvalues within 1e-9 of the largest one.
"""
import csv
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
