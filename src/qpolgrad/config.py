"""Experiment configuration: declarative run descriptions and frozen presets.

Configs are plain JSON objects with strict key checking; command-line flags
override file values. The six named presets pin the hyperparameters used
for the benchmark comparisons (learning rate, layer count, batch size) and
the matching classical network shapes.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

from .classical import MlpSpec, preset as mlp_preset
from .envs import ENV_SPECS
from .errors import ConfigError
from .reinforce import BETA_INIT_DEFAULT, INIT_DEFAULTS
from .vqpolicy import CircuitSpec

POLICY_KINDS = ("quantum", "classical")
INIT_KEYS = {kind: {"kind", *defaults} for kind, defaults in INIT_DEFAULTS.items()}
INIT_KINDS = tuple(INIT_KEYS)
# Fields that say where and how a run reports, not what it computes.
REPORTING_FIELDS = ("output_dir", "name", "dump_trajectories")


def _circuit_width(environment: str) -> int:
    """Qubits of the quantum policy: qcontrol's single U3 acts on one, the
    layered ansatz angle-encodes one feature per qubit."""
    return 1 if environment == "qcontrol" else ENV_SPECS[environment].n_features


@dataclass
class ExperimentConfig:
    """Everything one training run needs; `seed` pins it exactly in exact mode."""

    environment: str
    policy: str
    learning_rate: float
    n_layers: int = 1
    batch_size: int = 10
    episodes: int = 1000
    gamma: float = 0.99
    seed: int = 0
    shots: int = 0  # 0 = exact expectations
    hidden_sizes: tuple[int, ...] | None = None
    dropout_p: float = 0.0
    init: dict = field(default_factory=lambda: {"kind": "glorot_normal",
                                                **INIT_DEFAULTS["glorot_normal"]})
    beta_init: dict = field(default_factory=lambda: dict(BETA_INIT_DEFAULT))
    output_dir: str | None = None
    fisher_checkpoints: bool = False
    fisher_theta_only: bool = False
    dump_trajectories: bool = False
    name: str | None = None

    # -- derived views --------------------------------------------------------
    @property
    def env_spec(self):
        return ENV_SPECS[self.environment]

    @property
    def architecture(self) -> str:
        return "single_u3" if self.environment == "qcontrol" else "layered"

    def circuit_spec(self) -> CircuitSpec:
        if self.policy != "quantum":
            raise ConfigError("circuit_spec is only defined for quantum policies")
        if self.architecture == "single_u3":
            return CircuitSpec(1, self.n_layers, 2, "single_u3", "none")
        return CircuitSpec(_circuit_width(self.environment), self.n_layers,
                           self.env_spec.n_actions, "layered", "angle_rx")

    def mlp_spec(self) -> MlpSpec:
        if self.policy != "classical":
            raise ConfigError("mlp_spec is only defined for classical policies")
        if self.hidden_sizes is None:
            base = mlp_preset(self.environment)
            return MlpSpec(base.layer_sizes, self.dropout_p)
        sizes = (self.env_spec.n_features, *self.hidden_sizes, self.env_spec.n_actions)
        return MlpSpec(sizes, self.dropout_p)

    def label(self) -> str:
        return self.name or f"{self.environment}-{self.policy}-seed{self.seed}"

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        if d["hidden_sizes"] is not None:
            d["hidden_sizes"] = list(d["hidden_sizes"])
        return d


_FIELD_NAMES = {f.name for f in dataclasses.fields(ExperimentConfig)}

PRESETS: dict[str, dict] = {
    "cartpole-quantum": {
        "environment": "cartpole", "policy": "quantum", "learning_rate": 0.1,
        "n_layers": 3, "batch_size": 10, "episodes": 1000,
    },
    "cartpole-classical": {
        "environment": "cartpole", "policy": "classical", "learning_rate": 0.01,
        "batch_size": 10, "episodes": 1000,
    },
    "acrobot-quantum": {
        "environment": "acrobot", "policy": "quantum", "learning_rate": 0.1,
        "n_layers": 4, "batch_size": 10, "episodes": 1000,
    },
    "acrobot-classical": {
        "environment": "acrobot", "policy": "classical", "learning_rate": 0.01,
        "batch_size": 10, "episodes": 1000,
    },
    "qcontrol-quantum": {
        "environment": "qcontrol", "policy": "quantum", "learning_rate": 0.01,
        "n_layers": 1, "batch_size": 10, "episodes": 500,
    },
    "qcontrol-classical": {
        "environment": "qcontrol", "policy": "classical", "learning_rate": 0.01,
        "batch_size": 10, "episodes": 500,
    },
}


def _is_number(value) -> bool:
    """A finite int or float; bools, strings and NaN are not."""
    return not isinstance(value, bool) and (
        isinstance(value, int) or isinstance(value, float) and math.isfinite(value))


def _validate(data: dict) -> list[str]:
    errors = []
    unknown = sorted(set(data) - _FIELD_NAMES)
    if unknown:
        errors.append(f"unknown keys: {', '.join(unknown)}")
    for key in ("environment", "policy", "learning_rate"):
        if key not in data:
            errors.append(f"missing required field '{key}'")
    env = data.get("environment")
    if env is not None and env not in ENV_SPECS:
        errors.append(f"environment must be one of {sorted(ENV_SPECS)}, got {env!r}")
    pol = data.get("policy")
    if pol is not None and pol not in POLICY_KINDS:
        errors.append(f"policy must be one of {POLICY_KINDS}, got {pol!r}")

    def check_range(key, ok, message):
        value = data.get(key)
        if value is not None and not (_is_number(value) and ok(value)):
            errors.append(f"{key}: {message} (got {value!r})")

    check_range("learning_rate", lambda v: v > 0, "must be a positive number")
    check_range("gamma", lambda v: 0 < v <= 1, "must be a number in (0, 1]")
    check_range("batch_size", lambda v: isinstance(v, int) and v >= 1, "must be an integer >= 1")
    check_range("episodes", lambda v: isinstance(v, int) and v >= 0, "must be an integer >= 0")
    check_range("n_layers", lambda v: isinstance(v, int) and v >= 1, "must be an integer >= 1")
    check_range("shots", lambda v: isinstance(v, int) and v >= 0, "must be an integer >= 0")
    check_range("seed", lambda v: isinstance(v, int) and v >= 0, "must be an integer >= 0")
    check_range("dropout_p", lambda v: 0 <= v < 1, "must be a number in [0, 1)")
    for key in ("name", "output_dir"):
        if not isinstance(data.get(key), (str, type(None))):
            errors.append(f"{key}: must be a string or null (got {data[key]!r})")
    for key in ("fisher_checkpoints", "fisher_theta_only", "dump_trajectories"):
        if not isinstance(data.get(key, False), bool):
            errors.append(f"{key}: must be true or false (got {data[key]!r})")

    if pol == "classical":
        if data.get("shots"):
            errors.append("shots: only a quantum policy is read out with shots")
        if data.get("n_layers") not in (None, 1):
            errors.append("n_layers: a classical policy's layers are set by hidden_sizes")
        if data.get("beta_init") not in (None, BETA_INIT_DEFAULT):
            errors.append("beta_init: a classical policy has no inverse temperature")
    if pol == "quantum":
        if data.get("hidden_sizes") is not None:
            errors.append("hidden_sizes: a quantum policy has no hidden layers")
        if data.get("dropout_p"):
            errors.append("dropout_p: a quantum policy has no dropout")
        if env == "qcontrol" and data.get("n_layers") not in (None, 1):
            errors.append("n_layers: the qcontrol circuit is a single U3 gate, without layers")

    hidden = data.get("hidden_sizes")
    if hidden is not None and not (isinstance(hidden, (list, tuple)) and all(
            _is_number(h) and isinstance(h, int) and h >= 1 for h in hidden)):
        errors.append(f"hidden_sizes: must be a list of integers >= 1 (got {hidden!r})")

    init = data.get("init")
    if init is not None:
        kind = init.get("kind") if isinstance(init, dict) else None
        if kind not in INIT_KINDS:
            errors.append(f"init.kind must be one of {INIT_KINDS}")
        elif set(init) - INIT_KEYS[kind]:
            unused = ", ".join(sorted(set(init) - INIT_KEYS[kind]))
            errors.append(f"init: {kind} takes no key(s) {unused}")
        elif not all(_is_number(v) for k, v in init.items() if k != "kind"):
            errors.append(f"init: {kind}'s values must be finite numbers")
        else:
            filled = {**INIT_DEFAULTS[kind], **init}
            if kind == "normal" and not filled["sigma"] > 0:
                errors.append("init.sigma: must be positive")
            elif kind == "glorot_normal" and not filled["gain"] > 0:
                errors.append("init.gain: must be positive")
            elif kind == "uniform" and not filled["a"] < filled["b"]:
                errors.append("init: uniform bounds need a < b")
    beta_init = data.get("beta_init")
    if beta_init is not None and (not isinstance(beta_init, dict)
                                  or set(beta_init) - set(BETA_INIT_DEFAULT)
                                  or not all(_is_number(v) for v in beta_init.values())
                                  or not {**BETA_INIT_DEFAULT, **beta_init}["std"] >= 0):
        errors.append("beta_init: expected {'mean': m, 'std': s >= 0}")
    return errors


def from_dict(data: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Build a validated config; raises ConfigError listing every problem."""
    merged = dict(data)
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})
    # Legacy keys: episodes run one after another, so `parallel_rollouts`
    # selects nothing; a quantum policy's width is `_circuit_width`, so
    # `n_qubits` has one legal value; and `metrics.csv` records no wall
    # time, so `timing` has one too. Older manifests and config files carry
    # them, so a valid value is still accepted and dropped.
    legacy = merged.pop("parallel_rollouts", 1)
    n_qubits = merged.pop("n_qubits", None)
    timing = merged.pop("timing", False)
    errors = _validate(merged)
    if not (isinstance(legacy, int) and legacy >= 1):
        errors.append(f"parallel_rollouts: must be an integer >= 1 (got {legacy!r})")
    width = (_circuit_width(merged["environment"]) if merged.get("policy") == "quantum"
             and merged.get("environment") in ENV_SPECS else None)
    if isinstance(n_qubits, bool) or n_qubits not in (None, width):
        allowed = "null" if width is None else f"null or the circuit width {width}"
        errors.append(f"n_qubits: must be {allowed} (got {n_qubits!r})")
    if timing is not False:
        errors.append(f"timing: must be false, metrics.csv records no wall time "
                      f"(got {timing!r})")
    if errors:
        raise ConfigError("invalid configuration: " + "; ".join(errors))
    if "hidden_sizes" in merged and merged["hidden_sizes"] is not None:
        merged["hidden_sizes"] = tuple(merged["hidden_sizes"])
    return ExperimentConfig(**merged)


def preset_config(name: str, overrides: dict | None = None) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}")
    data = dict(PRESETS[name])
    data.setdefault("name", name)
    return from_dict(data, overrides)


def config_hash(config: ExperimentConfig) -> str:
    """SHA-256 over the fields that determine a run's results; the reporting
    fields are left out, so a rerun elsewhere or under another name matches."""
    result_fields = {k: v for k, v in config.to_dict().items() if k not in REPORTING_FIELDS}
    canonical = json.dumps(result_fields, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()
