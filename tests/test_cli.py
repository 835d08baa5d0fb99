import csv
import json

import numpy as np

from qpolgrad import cli, envs, reinforce
from qpolgrad import config as cfg


def test_fisher_checkpoints_leave_training_unchanged(tmp_path):
    # Fisher rollouts run on a normalizer snapshot, so a run that collects
    # spectra trains exactly like one that does not.
    plain, observed = tmp_path / "plain", tmp_path / "fisher"
    args = ["run", "--preset", "cartpole-quantum", "--seed", "0", "--episodes", "60"]
    assert cli.main(args + ["--out", str(plain)]) == 0
    assert cli.main(args + ["--out", str(observed), "--fisher"]) == 0
    want = cli.read_metrics(plain / "metrics.csv")
    got = cli.read_metrics(observed / "metrics.csv")
    for column in ("total_reward", "discounted_return", "beta", "grad_norm"):
        np.testing.assert_array_equal(got[column], want[column])

    manifest = json.loads((observed / "manifest.json").read_text())
    promised = {name for pair in manifest["artifacts"]["fisher"] for name in pair}
    assert promised == {path.name for path in observed.glob("fisher_ck_*")}
    assert len(promised) == 20


def test_dump_trajectories_has_one_row_per_step_and_replays_rollout(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["run", "--preset", "qcontrol-quantum", "--seed", "0", "--episodes", "20",
                     "--dump-trajectories", "--out", str(out)]) == 0
    with open(out / "trajectories.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    features = [f"feature_{i}" for i in range(envs.ENV_SPECS["qcontrol"].n_features)]
    assert list(rows[0]) == ["episode", "step", *features, "action", "reward", "done"]

    # Steps run 0..T-1 within each episode and `done` marks only the last one;
    # the rewards of an episode add up to its metrics row.
    metrics = cli.read_metrics(out / "metrics.csv")
    episodes = [[row for row in rows if int(row["episode"]) == ep] for ep in range(20)]
    assert sum(len(ep) for ep in episodes) == len(rows)
    for ep, ep_rows in enumerate(episodes):
        assert [int(row["step"]) for row in ep_rows] == list(range(len(ep_rows)))
        assert [int(row["done"]) for row in ep_rows] == [0] * (len(ep_rows) - 1) + [1]
        assert (np.sum([float(row["reward"]) for row in ep_rows])
                == metrics["total_reward"][ep])

    # Episode 0 replayed directly on its seeded stream gives the same rows.
    config = cfg.preset_config("qcontrol-quantum", {"seed": 0, "episodes": 20})
    stream = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(1, 0)))
    traj = reinforce.rollout(envs.make_env("qcontrol"), reinforce.prepare(config).policy,
                             stream, config.gamma)
    assert len(episodes[0]) == len(traj)
    for row, obs, action, reward in zip(episodes[0], traj.observations, traj.actions,
                                        traj.rewards):
        assert [float(row[f]) for f in features] == list(obs)
        assert int(row["action"]) == action
        assert float(row["reward"]) == reward
