import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import QControl, rollout, side_stream, trained_policy
from qpolgrad import cli, envs, reinforce, tools
from qpolgrad import config as cfg

REFERENCE_RUN = Path(__file__).resolve().parent.parent / "cp_s0"


def test_fisher_checkpoints_leave_training_unchanged(tmp_path):
    # Fisher rollouts run on a normalizer snapshot, so a run that collects
    # spectra trains exactly like one that does not.
    plain, observed = tmp_path / "plain", tmp_path / "fisher"
    args = ["run", "--preset", "cartpole-quantum", "--seed", "0", "--episodes", "60"]
    assert cli.main(args + ["--out", str(plain)]) == 0
    assert cli.main(args + ["--out", str(observed), "--fisher"]) == 0
    want = tools.read_metrics(plain / "metrics.csv")
    got = tools.read_metrics(observed / "metrics.csv")
    for column in ("total_reward", "discounted_return", "beta", "grad_norm"):
        np.testing.assert_array_equal(got[column], want[column])

    manifest = json.loads((observed / "manifest.json").read_text())
    promised = {name for pair in manifest["artifacts"]["fisher"] for name in pair}
    assert promised == {path.name for path in observed.glob("fisher_ck_*")}
    assert len(promised) == 20


def test_fisher_checkpoints_fire_every_ten_percent(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["run", "--preset", "qcontrol-quantum", "--seed", "2", "--episodes", "50",
                     "--fisher", "--out", str(out)]) == 0
    labels = [5, 10, 15, 20, 25, 30, 35, 40, 45, 50]
    assert {path.name for path in out.glob("fisher_ck_*")} == {
        f"fisher_ck_{label}.{ext}" for label in labels for ext in ("csv", "json")}
    for label in labels:
        sidecar = json.loads((out / f"fisher_ck_{label}.json").read_text())
        assert sidecar["checkpoint_episode"] == label


def test_mid_batch_fisher_checkpoints_see_the_policy_after_their_batch(tmp_path):
    # A 25-episode budget puts the 10% boundaries 3, 5 and 8 inside the
    # first batch of 10. Each spectrum is the one of the policy after that
    # batch's Adam step, on its own checkpoint's side stream.
    out = tmp_path / "run"
    assert cli.main(["run", "--preset", "cartpole-quantum", "--seed", "0", "--episodes", "25",
                     "--fisher", "--out", str(out)]) == 0
    config, policy = trained_policy("cartpole-quantum", 10)
    for label in (3, 5, 8):
        want = cli.fisher_spectrum(policy, config.environment, config.batch_size,
                                   side_stream(0, label), include_beta=True)
        with open(out / f"fisher_ck_{label}.csv", newline="") as fh:
            got = [float(row["eigenvalue"]) for row in csv.DictReader(fh)]
        assert got == want.eigenvalues.tolist()
        sidecar = json.loads((out / f"fisher_ck_{label}.json").read_text())
        assert sidecar["trace"] == want.trace


def test_shot_mode_fisher_run_writes_every_spectrum(tmp_path):
    # Shot-mode Fisher gradients read out on the spectrum's side stream.
    out = tmp_path / "shots"
    assert cli.main(["run", "--preset", "qcontrol-quantum", "--seed", "0", "--episodes", "20",
                     "--shots", "100", "--fisher", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    promised = {name for pair in manifest["artifacts"]["fisher"] for name in pair}
    assert promised == {path.name for path in out.glob("fisher_ck_*")}
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
    metrics = tools.read_metrics(out / "metrics.csv")
    episodes = [[row for row in rows if int(row["episode"]) == ep] for ep in range(20)]
    assert sum(len(ep) for ep in episodes) == len(rows)
    for ep, ep_rows in enumerate(episodes):
        assert [int(row["step"]) for row in ep_rows] == list(range(len(ep_rows)))
        assert [int(row["done"]) for row in ep_rows] == [0] * (len(ep_rows) - 1) + [1]
        assert (np.sum([float(row["reward"]) for row in ep_rows])
                == metrics["total_reward"][ep])

    # Episode 0 replayed on its seeded stream by the sequential reference
    # gives the same rows.
    config = cfg.preset_config("qcontrol-quantum", {"seed": 0, "episodes": 20})
    stream = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(1, 0)))
    traj, _ = rollout(QControl(), reinforce.prepare(config).policy, stream, config.gamma)
    assert len(episodes[0]) == len(traj)
    for row, obs, action, reward in zip(episodes[0], traj.observations, traj.actions,
                                        traj.rewards):
        assert [float(row[f]) for f in features] == list(obs)
        assert int(row["action"]) == action
        assert float(row["reward"]) == reward


def test_a_network_with_no_hidden_layer_runs_from_a_config(tmp_path):
    # `hidden_sizes: []` leaves one linear layer from the features to the
    # preferences; its gradient pass and Fisher samples hold no hidden array.
    config, out = tmp_path / "config.json", tmp_path / "run"
    config.write_text(json.dumps({"environment": "cartpole", "policy": "classical",
                                  "learning_rate": 0.01, "hidden_sizes": [], "episodes": 20}))
    assert cli.main(["run", "--config", str(config), "--fisher", "--out", str(out)]) == 0
    checkpoint = json.loads((out / "checkpoint.json").read_text())
    assert checkpoint["spec"]["layer_sizes"] == [4, 2]
    assert [np.shape(w) for w in checkpoint["weights"]] == [(2, 4)]
    assert len(tools.read_metrics(out / "metrics.csv")["total_reward"]) == 20
    assert len(list(out.glob("fisher_ck_*.csv"))) == 10


def test_plot_of_a_zero_episode_run_fails_without_output(tmp_path):
    run_dir, svg = tmp_path / "run", tmp_path / "plot" / "chart.svg"
    assert cli.main(["run", "--preset", "qcontrol-quantum", "--episodes", "0",
                     "--out", str(run_dir)]) == 0
    assert cli.main(["plot", str(run_dir / "metrics.csv"), "--out", str(svg)]) == 1
    assert not svg.parent.exists()


def test_compare_and_fisher_read_both_checkpoint_kinds(tmp_path):
    # parameter counts: the circuit angles plus the inverse temperature, or
    # every network weight
    runs = {}
    for preset in ("qcontrol-quantum", "qcontrol-classical"):
        runs[preset] = tmp_path / preset
        assert cli.main(["run", "--preset", preset, "--episodes", "10",
                         "--out", str(runs[preset])]) == 0
        assert cli.main(["fisher", "--checkpoint", str(runs[preset] / "checkpoint.json"),
                         "--env", "qcontrol", "--rollouts", "2",
                         "--out", str(tmp_path / f"fisher-{preset}")]) == 0
    summary = tools.compare(runs["qcontrol-quantum"], runs["qcontrol-classical"])
    assert summary["run_a"]["parameter_count"] == 3 + 1
    assert summary["run_b"]["parameter_count"] == 4 * 16 + 16 * 2


def test_compare_and_fisher_reject_bad_checkpoints(tmp_path, capsys):
    # A checkpoint without a spec, one that is not JSON and one that is not
    # an object each fail with an error line naming the file, not a traceback.
    good = tmp_path / "good"
    assert cli.main(["run", "--preset", "qcontrol-quantum", "--episodes", "10",
                     "--out", str(good)]) == 0
    for name, text in (("no-spec", json.dumps({"theta": [0.1, 0.2, 0.3], "beta": 1.0})),
                       ("not-json", "{theta: 0.1"), ("not-object", "[1, 2]")):
        bad = tmp_path / name
        bad.mkdir()
        for artifact in ("manifest.json", "metrics.csv"):
            (bad / artifact).write_text((good / artifact).read_text())
        checkpoint = bad / "checkpoint.json"
        checkpoint.write_text(text)
        capsys.readouterr()
        assert cli.main(["compare", str(good), str(bad)]) == 1
        assert str(checkpoint) in capsys.readouterr().err
        out = tmp_path / f"fisher-{name}"
        assert cli.main(["fisher", "--checkpoint", str(checkpoint), "--env", "qcontrol",
                         "--rollouts", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: checkpoint {checkpoint}")
        assert not out.exists()


def test_compare_and_plot_reject_malformed_run_files(tmp_path, capsys):
    # A manifest, metrics cell or Fisher sidecar that cannot be read fails
    # with an error line naming the file, not a traceback.
    good = tmp_path / "good"
    assert cli.main(["run", "--preset", "qcontrol-quantum", "--episodes", "10", "--fisher",
                     "--out", str(good)]) == 0
    metrics = (good / "metrics.csv").read_text()
    sidecar = json.loads((good / "fisher_ck_10.json").read_text())
    del sidecar["trace"]
    cases = (("manifest.json", "{oops"), ("manifest.json", "[1]"),
             ("metrics.csv", metrics.replace("\n1,", "\nabc,", 1)),
             ("fisher_ck_10.json", json.dumps(sidecar)))
    for i, (artifact, text) in enumerate(cases):
        bad = tmp_path / f"bad{i}"
        bad.mkdir()
        for path in good.iterdir():
            (bad / path.name).write_text(path.read_text())
        (bad / artifact).write_text(text)
        capsys.readouterr()
        assert cli.main(["compare", str(good), str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad / artifact) in err
    svg = tmp_path / "plot" / "chart.svg"
    assert cli.main(["plot", str(tmp_path / "bad2" / "metrics.csv"), "--out", str(svg)]) == 1
    assert str(tmp_path / "bad2" / "metrics.csv") in capsys.readouterr().err
    assert not svg.parent.exists()
    # plot names a series by its manifest and falls back to the file name
    assert cli.main(["plot", str(tmp_path / "bad1" / "metrics.csv"), "--out", str(svg)]) == 0


def test_undecodable_config_and_metrics_fail_with_an_error_line(tmp_path, capsys):
    # A config file that starts with a UTF-16 byte-order mark and a metrics
    # CSV holding byte 0xFF are not UTF-8: each fails with an error line
    # naming the file, not a traceback, and writes nothing.
    config = tmp_path / "config.json"
    config.write_bytes(b"\xff\xfe{\x00}\x00")
    metrics = tmp_path / "metrics.csv"
    metrics.write_bytes(",".join(cli.METRICS_COLUMNS).encode() + b"\n0,1\xff,0,1,0,0\n")
    out, svg = tmp_path / "run", tmp_path / "plot" / "chart.svg"
    for argv, path in ((["run", "--config", str(config), "--out", str(out)], config),
                       (["plot", str(metrics), "--out", str(svg)], metrics)):
        capsys.readouterr()
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
    assert not out.exists() and not svg.parent.exists()


def test_manifest_records_provenance(tmp_path):
    assert cli.main(["run", "--preset", "qcontrol-quantum", "--episodes", "0",
                     "--out", str(tmp_path)]) == 0
    provenance = json.loads((tmp_path / "manifest.json").read_text())["provenance"]
    assert provenance["numpy"] == np.__version__
    # OpenBLAS reports the one thread pinned at import; another BLAS records null
    assert provenance["blas_threads"] == (1 if "openblas" in provenance["blas"] else None)
    assert set(provenance) == {"python", "numpy", "blas", "blas_threads", "platform"}


def test_plot_escapes_markup_in_series_names(tmp_path):
    # Text nodes escape &, < and >; quotes stay as they are.
    run_dir = tmp_path / "run"
    assert cli.main(["run", "--preset", "qcontrol-quantum", "--episodes", "10",
                     "--out", str(run_dir)]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    manifest["name"] = """a<b & "c" 'd'>"""
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    svg = tmp_path / "chart.svg"
    assert cli.main(["plot", str(run_dir / "metrics.csv"), "--out", str(svg)]) == 0
    assert """>a&lt;b &amp; "c" 'd'&gt;</text>""" in svg.read_text()


def test_importing_the_cli_loads_no_network_modules():
    # The standard library's XML helpers pull in urllib.request and with it
    # http.client, email and ssl, tens of milliseconds in every process.
    code = ("import sys, qpolgrad.cli; print(' '.join(m for m in ('urllib.request', "
            "'http.client', 'ssl', 'email') if m in sys.modules))")
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


@pytest.mark.parametrize("command", ["run", "fisher", "validate-hoeffding"])
def test_a_negative_seed_fails_with_an_error_line_and_writes_nothing(tmp_path, capsys, command):
    # numpy's seed sequences take integers >= 0; a negative seed used to
    # fail with a traceback, after `run` had written its manifest.
    out = tmp_path / "out"
    argv = {"run": ["run", "--preset", "qcontrol-quantum", "--episodes", "2", "--out", str(out)],
            "fisher": ["fisher", "--checkpoint", str(REFERENCE_RUN / "checkpoint.json"),
                       "--env", "cartpole", "--rollouts", "2", "--out", str(out)],
            "validate-hoeffding": ["validate-hoeffding", "--trials", "2"]}[command]
    assert cli.main(argv + ["--seed", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "seed" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_non_finite_normalizer_maxima_in_a_checkpoint_fail_with_an_error_line(tmp_path, capsys):
    # NaN and inf pass through the maxima's floor; the Fisher eigen-solve then
    # did not converge, and `compare` read the file without a word. A maximum
    # of |x| cannot be negative, but the floor lifted -5 to 1e-8 and both
    # commands ran on.
    bad = tmp_path / "bad"
    bad.mkdir()
    for artifact in ("manifest.json", "metrics.csv"):
        (bad / artifact).write_text((REFERENCE_RUN / artifact).read_text())
    checkpoint = json.loads((REFERENCE_RUN / "checkpoint.json").read_text())
    out = tmp_path / "fisher"
    for maxima in ([float("nan"), 1.0, float("inf"), 2.0], [-5, 1, 1, 1]):
        checkpoint["norm_abs_max"] = maxima
        (bad / "checkpoint.json").write_text(json.dumps(checkpoint))
        for argv in (["fisher", "--checkpoint", str(bad / "checkpoint.json"), "--env",
                      "cartpole", "--rollouts", "2", "--out", str(out)],
                     ["compare", str(REFERENCE_RUN), str(bad)]):
            capsys.readouterr()
            assert cli.main(argv) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and "finite" in captured.err
            assert captured.out == ""
        assert not out.exists()


def test_fisher_refuses_a_checkpoint_that_cannot_act_in_the_env(tmp_path, capsys):
    # Cartpole policies of 4 features and 2 actions on acrobot's 6 and 3: the
    # circuit died in a numpy broadcast after its rollouts had drawn.
    classical = tmp_path / "classical"
    assert cli.main(["run", "--preset", "cartpole-classical", "--episodes", "2",
                     "--out", str(classical)]) == 0
    out = tmp_path / "fisher"
    for checkpoint in (REFERENCE_RUN / "checkpoint.json", classical / "checkpoint.json"):
        capsys.readouterr()
        assert cli.main(["fisher", "--checkpoint", str(checkpoint), "--env", "acrobot",
                         "--rollouts", "2", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "acrobot" in captured.err
        assert captured.out == ""
        assert not out.exists()


def test_fisher_refuses_a_checkpoint_trained_on_another_env(tmp_path, capsys):
    # A qcontrol policy reads 4 floats as a 1-qubit state's amplitudes, as
    # many as cartpole's features: the width check passed, and a spectrum of
    # cartpole states read as amplitudes was printed.
    run_dir, out = tmp_path / "run", tmp_path / "fisher"
    assert cli.main(["run", "--preset", "qcontrol-quantum", "--episodes", "10",
                     "--out", str(run_dir)]) == 0
    checkpoint = run_dir / "checkpoint.json"
    assert json.loads(checkpoint.read_text())["environment"] == "qcontrol"
    capsys.readouterr()
    assert cli.main(["fisher", "--checkpoint", str(checkpoint), "--env", "cartpole",
                     "--rollouts", "2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: checkpoint {checkpoint}")
    assert "qcontrol" in captured.err and "cartpole" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_fisher_reads_a_checkpoint_that_records_no_env(tmp_path, capsys):
    # `cp_s0` predates the recorded environment; it loads as before.
    assert "environment" not in json.loads((REFERENCE_RUN / "checkpoint.json").read_text())
    out = tmp_path / "fisher"
    assert cli.main(["fisher", "--checkpoint", str(REFERENCE_RUN / "checkpoint.json"),
                     "--env", "cartpole", "--rollouts", "2", "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["k"] == len(list(
        (out / "fisher_ck_0.csv").read_text().splitlines())) - 1


@pytest.mark.parametrize("argv", [
    ["bounds", "--epsilon", "1e-300", "--delta", "0.1", "--k", "4"],
    ["validate-hoeffding", "--epsilon", "1e-300", "--trials", "2"],
    ["validate-hoeffding", "--epsilon", "1e-150", "--trials", "1"],
    ["bounds", "--epsilon", "1", "--delta", "0.1", "--k", "4", "--beta", "1e200"],
    ["validate-hoeffding", "--delta", "1e-320", "--trials", "2"],
    ["bounds", "--epsilon", "0.1", "--delta", "0.1", "--k", "4", "--n-samples", "1e308"],
    ["fisher", "--checkpoint", str(REFERENCE_RUN / "checkpoint.json"), "--env", "cartpole",
     "--rollouts", "2", "--episode-label", "-5"],
])
def test_overflowing_bounds_and_a_negative_fisher_label_fail_with_an_error_line(
        tmp_path, capsys, argv):
    # The bounds raised ZeroDivisionError or OverflowError, or printed
    # Infinity, which is not JSON; a finite shot bound of about 4e300 asked
    # the generator for more draws than an int64 holds; the label named a
    # file fisher_ck_-5.csv.
    out = tmp_path / "out"
    assert cli.main(argv + (["--out", str(out)] if argv[0] == "fisher" else [])) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["bounds", "--epsilon", "nan", "--delta", "0.1", "--k", "4"],
    ["bounds", "--epsilon", "inf", "--delta", "0.1", "--k", "4"],
    ["bounds", "--epsilon", "0.1", "--delta", "0.1", "--k", "4", "--beta", "inf"],
    ["bounds", "--epsilon", "0.1", "--delta", "0.1", "--k", "4", "--r-max", "nan"],
    ["bounds", "--epsilon", "0.1", "--delta", "0.1", "--k", "4", "--n-samples", "-5"],
    ["bounds", "--epsilon", "0.1", "--delta", "0.1", "--k", "4", "--n-samples", "nan"],
    ["bounds", "--epsilon", "0.1", "--delta", "0.1", "--k", "4", "--n-samples", "inf"],
    ["validate-hoeffding", "--epsilon", "nan", "--trials", "2"],
])
def test_non_finite_or_negative_bound_inputs_fail_with_an_error_line(capsys, argv):
    # These printed NaN or Infinity, which are not JSON, or a negative shot
    # total, and exited 0; validate-hoeffding died converting NaN to an int.
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""
