"""Fail-fast configuration: a key the chosen policy would ignore, or a circuit
width the environment cannot feed, is rejected before `qpolgrad run` writes
any artifact. The config hash covers only the fields that determine results."""
import json
from pathlib import Path

import pytest

from qpolgrad import cli
from qpolgrad import config as cfg
from qpolgrad.errors import ConfigError

REFERENCE_MANIFEST = Path(__file__).resolve().parent.parent / "cp_s0" / "manifest.json"


def assert_rejected_before_any_artifact(tmp_path, preset, overrides):
    data = {**cfg.PRESETS[preset], "episodes": 10, **overrides}
    with pytest.raises(ConfigError):
        cfg.from_dict(data)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert not out.exists()


def test_shots_on_classical_policy_rejected(tmp_path):
    assert_rejected_before_any_artifact(tmp_path, "cartpole-classical", {"shots": 100})
    out = tmp_path / "flag"
    assert cli.main(["run", "--preset", "cartpole-classical", "--episodes", "10",
                     "--shots", "100", "--out", str(out)]) == 1
    assert not out.exists()


def test_hidden_sizes_on_quantum_policy_rejected(tmp_path):
    assert_rejected_before_any_artifact(tmp_path, "cartpole-quantum", {"hidden_sizes": [8]})


def test_dropout_on_quantum_policy_rejected(tmp_path):
    assert_rejected_before_any_artifact(tmp_path, "cartpole-quantum", {"dropout_p": 0.2})


@pytest.mark.parametrize("preset, n_qubits", [("cartpole-quantum", 6),
                                              ("acrobot-quantum", 4),
                                              ("qcontrol-quantum", 2),
                                              ("cartpole-classical", 7),
                                              ("qcontrol-classical", 1),
                                              ("qcontrol-quantum", True),
                                              ("cartpole-quantum", "4")])
def test_n_qubits_other_than_circuit_width_rejected(tmp_path, preset, n_qubits):
    assert_rejected_before_any_artifact(tmp_path, preset, {"n_qubits": n_qubits})


# init and beta_init keys that nothing reads, and initial settings that a
# classical network does not use
@pytest.mark.parametrize("preset, overrides", [
    pytest.param("cartpole-quantum", {"init": {"kind": "normal", "sgima": 0.5}}, id="init0"),
    pytest.param("cartpole-quantum", {"init": {"kind": "glorot_normal", "gain": 1.0, "a": -1.0}},
                 id="init1"),
    pytest.param("cartpole-quantum", {"init": {"kind": "uniform", "a": -1.0, "b": 1.0, "mu": 0.0}},
                 id="init2"),
    pytest.param("cartpole-quantum", {"beta_init": {"mean": 1.0, "stdd": 0.5}},
                 id="beta_init-quantum"),
    pytest.param("qcontrol-quantum", {"beta_init": {"mu": 1.0}}, id="beta_init-single-u3"),
    pytest.param("cartpole-classical", {"beta_init": {"mean": 1.0, "stdd": 0.5}},
                 id="beta_init-classical"),
    pytest.param("cartpole-classical", {"beta_init": {"mean": 2.0, "std": 0.1}},
                 id="beta_init-classical-value"),
    pytest.param("cartpole-classical", {"n_layers": 5}, id="n_layers-classical"),
    pytest.param("qcontrol-quantum", {"n_layers": 5}, id="n_layers-single-u3"),
])
def test_init_keys_unused_by_kind_rejected(tmp_path, preset, overrides):
    assert_rejected_before_any_artifact(tmp_path, preset, overrides)


# values of the wrong type: each once crashed in validation or after the
# manifest was written
@pytest.mark.parametrize("preset, overrides", [
    pytest.param("cartpole-quantum", {"learning_rate": "0.1"}, id="learning_rate-str"),
    pytest.param("cartpole-quantum", {"init": {"kind": "glorot_normal", "gain": "x"}},
                 id="init-gain-str"),
    pytest.param("cartpole-quantum", {"beta_init": {"mean": "a"}}, id="beta_init-mean-str"),
    pytest.param("cartpole-quantum", {"batch_size": True}, id="batch_size-bool"),
    pytest.param("cartpole-quantum", {"init": {"kind": "normal", "sigma": "1"}},
                 id="init-sigma-str"),
    pytest.param("qcontrol-quantum", {"beta_init": {"std": None}}, id="beta_init-std-null"),
    pytest.param("cartpole-classical", {"hidden_sizes": ["a"]}, id="hidden_sizes-str"),
    pytest.param("cartpole-classical", {"hidden_sizes": [0]}, id="hidden_sizes-zero"),
    pytest.param("cartpole-classical", {"hidden_sizes": [True]}, id="hidden_sizes-bool"),
    pytest.param("cartpole-classical", {"hidden_sizes": [8.0]}, id="hidden_sizes-float"),
    pytest.param("cartpole-classical", {"hidden_sizes": 8}, id="hidden_sizes-int"),
    pytest.param("cartpole-quantum", {"init": {"kind": "glorot_normal", "gain": -1}},
                 id="init-gain-negative"),
    pytest.param("cartpole-classical", {"init": {"kind": "glorot_normal", "gain": 0.0}},
                 id="init-gain-zero"),
    pytest.param("qcontrol-quantum", {"seed": -1}, id="seed-negative"),
])
def test_wrongly_typed_values_rejected(tmp_path, preset, overrides):
    assert_rejected_before_any_artifact(tmp_path, preset, overrides)


# reporting fields: a non-string name or output directory once raised a
# TypeError traceback, and a non-boolean switch was read as truthy; the
# legacy `timing` takes only false
@pytest.mark.parametrize("key, value", [
    ("name", 5), ("output_dir", 7), ("name", ["a"]), ("fisher_checkpoints", "no"),
    ("fisher_theta_only", 1), ("dump_trajectories", "yes"), ("timing", None), ("timing", True),
])
def test_wrongly_typed_reporting_fields_rejected(tmp_path, monkeypatch, key, value):
    data = {**cfg.PRESETS["qcontrol-quantum"], "episodes": 10, key: value}
    with pytest.raises(ConfigError):
        cfg.from_dict(data)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    # no --out, which would replace output_dir: the run would write under runs/
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QPG_OUT_DIR", raising=False)
    assert cli.main(["run", "--config", str(path)]) == 1
    assert list(tmp_path.iterdir()) == [path]


def test_default_and_matching_values_still_accepted():
    cfg.preset_config("cartpole-classical", {"shots": 0})
    cfg.preset_config("cartpole-quantum", {"hidden_sizes": None, "dropout_p": 0.0,
                                           "n_qubits": 4})
    cfg.preset_config("acrobot-quantum", {"n_qubits": 6})
    cfg.preset_config("qcontrol-quantum", {"n_qubits": 1})
    cfg.preset_config("cartpole-classical", {"hidden_sizes": [8], "dropout_p": 0.2})
    cfg.preset_config("cartpole-classical", {"n_qubits": None, "n_layers": 1,
                                             "beta_init": {"mean": 1.0, "std": 0.1}})
    cfg.preset_config("cartpole-quantum", {"beta_init": {"mean": 0.5}})
    cfg.preset_config("qcontrol-quantum", {"beta_init": {"mean": 2.0, "std": 0.0}})
    for init in ({"kind": "glorot_normal", "gain": 2.0},
                 {"kind": "normal", "mu": 0.0, "sigma": 0.5},
                 {"kind": "uniform", "a": -0.5, "b": 0.5}):
        cfg.preset_config("cartpole-quantum", {"init": init})


def test_legacy_n_qubits_is_accepted_and_dropped():
    # The circuit width follows from the environment; a manifest's null
    # `n_qubits`, or the width itself, loads to the same config without it.
    data = json.loads(REFERENCE_MANIFEST.read_text())["config"]
    assert data["n_qubits"] is None
    reference = cfg.from_dict(data)
    assert reference == cfg.from_dict({k: v for k, v in data.items() if k != "n_qubits"})
    assert reference == cfg.from_dict({**data, "n_qubits": 4})
    assert "n_qubits" not in reference.to_dict()
    assert reference.circuit_spec().n_qubits == 4


def test_legacy_timing_false_is_accepted_and_dropped():
    # metrics.csv records no wall time; a manifest's `false` loads to the
    # same config without the key.
    data = json.loads(REFERENCE_MANIFEST.read_text())["config"]
    assert data["timing"] is False
    reference = cfg.from_dict(data)
    assert reference == cfg.from_dict({k: v for k, v in data.items() if k != "timing"})
    assert "timing" not in reference.to_dict()


def test_config_hash_covers_result_fields_only():
    data = json.loads(REFERENCE_MANIFEST.read_text())["config"]
    reference = cfg.config_hash(cfg.from_dict(data))
    elsewhere = {**data, "output_dir": "elsewhere", "name": "rerun", "dump_trajectories": True}
    assert cfg.config_hash(cfg.from_dict(elsewhere)) == reference
    assert cfg.config_hash(cfg.from_dict({**data, "seed": 1})) != reference
