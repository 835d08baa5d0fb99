import json

import numpy as np

from qpolgrad import cli


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
