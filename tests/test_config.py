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
                                              ("qcontrol-classical", 1)])
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
])
def test_init_keys_unused_by_kind_rejected(tmp_path, preset, overrides):
    assert_rejected_before_any_artifact(tmp_path, preset, overrides)


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


def test_config_hash_covers_result_fields_only():
    data = json.loads(REFERENCE_MANIFEST.read_text())["config"]
    reference = cfg.config_hash(cfg.from_dict(data))
    elsewhere = {**data, "output_dir": "elsewhere", "name": "rerun", "timing": True,
                 "dump_trajectories": True}
    assert cfg.config_hash(cfg.from_dict(elsewhere)) == reference
    assert cfg.config_hash(cfg.from_dict({**data, "seed": 1})) != reference
