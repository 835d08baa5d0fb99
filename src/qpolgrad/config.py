"""Experiment configuration: declarative run descriptions, frozen presets,
and the one module that builds the policy a run trains.

Configs are plain JSON objects with strict key checking; command-line flags
override file values. The six named presets pin the hyperparameters used
for the benchmark comparisons (learning rate, layer count, batch size).
`POLICY_SHAPES` gives each environment its circuit and its classical
network; `ExperimentConfig.build_policy` builds one and draws its initial
vector, and `reinforce` trains it.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .classical import MlpPolicy, MlpSpec
from .envs import ENV_SPECS
from .errors import ConfigError
from .vqpolicy import CircuitSpec, QuantumPolicy

POLICY_KINDS = ("quantum", "classical")
# Fields that say where and how a run reports, not what it computes.
REPORTING_FIELDS = ("output_dir", "name", "dump_trajectories")

# What each environment trains: its circuit's qubits, architecture and
# encoding, and the classical network's default hidden sizes. The layered
# ansatz angle-encodes one feature per qubit; qcontrol's single U3 acts on
# one qubit. Both read the environment's actions, and the network its
# features, from `ENV_SPECS`.
POLICY_SHAPES = {
    "cartpole": (4, "layered", "angle_rx", (128,)),
    "acrobot": (6, "layered", "angle_rx", (32,)),
    "qcontrol": (1, "single_u3", "none", (16,)),
}

# Each init kind's parameters and their defaults; `_validate` checks against them.
INIT_DEFAULTS = {
    "glorot_normal": {"gain": 1.0},
    "normal": {"mu": 0.0, "sigma": 1.0},
    "uniform": {"a": -1.0, "b": 1.0},
}
BETA_INIT_DEFAULT = {"mean": 1.0, "std": 0.1}
INIT_KEYS = {kind: {"kind", *defaults} for kind, defaults in INIT_DEFAULTS.items()}
INIT_KINDS = tuple(INIT_KEYS)


def sample_initial_weights(strategy: dict, size: int, fan_in: int, fan_out: int,
                           rng: np.random.Generator) -> np.ndarray:
    """`size` draws of an init strategy: "normal" N(mu, sigma), "uniform"
    U(a, b), or "glorot_normal"; a parameter left out takes its
    `INIT_DEFAULTS` value.

    "glorot_normal" draws from a normal whose standard deviation is
    gain * sqrt(6 / (fan_in + fan_out)). That is the limit of Glorot's
    uniform initializer; Glorot-normal's standard deviation is
    sqrt(2 / (fan_in + fan_out)), so these draws have 3x its variance.
    Every recorded run was drawn this way.
    """
    kind = strategy.get("kind")
    if kind not in INIT_DEFAULTS:
        raise ConfigError(f"unknown init strategy {kind!r}")
    p = {**INIT_DEFAULTS[kind], **strategy}
    if kind == "glorot_normal":
        return rng.normal(0.0, p["gain"] * np.sqrt(6.0 / (fan_in + fan_out)), size=size)
    if kind == "normal":
        return rng.normal(p["mu"], p["sigma"], size=size)
    return rng.uniform(p["a"], p["b"], size=size)


def init_params(strategy: dict, spec: CircuitSpec, rng: np.random.Generator,
                beta_init: dict | None = None) -> np.ndarray:
    """Initial trainable vector: the circuit angles, then the inverse
    temperature.

    For the layered circuit a "layer" maps n wires to n wires, so the
    initializer fans are n_in = n_out = n_qubits.
    """
    theta = sample_initial_weights(strategy, spec.n_params, spec.n_qubits, spec.n_qubits, rng)
    beta_init = {**BETA_INIT_DEFAULT, **(beta_init or {})}
    return np.append(theta, rng.normal(beta_init["mean"], beta_init["std"]))


def init_mlp_params(strategy: dict, spec, rng: np.random.Generator) -> np.ndarray:
    """Initial trainable vector of an MLP: each layer's (n_out, n_in) weights
    drawn in one call, flattened, layer after layer."""
    return np.concatenate([
        sample_initial_weights(strategy, (n_out, n_in), n_in, n_out, rng).ravel()
        for n_in, n_out in zip(spec.layer_sizes, spec.layer_sizes[1:])])


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

    def build_policy(self, rng: np.random.Generator):
        """The policy this run trains, the environment's circuit or network
        in `POLICY_SHAPES`, with its initial vector drawn from `rng`."""
        qubits, architecture, encoding, hidden = POLICY_SHAPES[self.environment]
        env = self.env_spec
        if self.policy == "quantum":
            spec = CircuitSpec(qubits, self.n_layers, env.n_actions, architecture, encoding)
            return QuantumPolicy(spec, init_params(self.init, spec, rng, self.beta_init),
                                 shots=self.shots)
        if self.hidden_sizes is not None:
            hidden = self.hidden_sizes
        spec = MlpSpec((env.n_features, *hidden, env.n_actions), self.dropout_p)
        return MlpPolicy(spec, init_mlp_params(self.init, spec, rng))

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
    check_range("shots", lambda v: isinstance(v, int) and 0 <= v <= np.iinfo(np.int64).max,
                "must be an integer in [0, 2**63 - 1], as a binomial draw takes")
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
    # selects nothing; a quantum policy's width sits in `POLICY_SHAPES`, so
    # `n_qubits` has one legal value; and `metrics.csv` records no wall
    # time, so `timing` has one too. Older manifests and config files carry
    # them, so a valid value is still accepted and dropped.
    legacy = merged.pop("parallel_rollouts", 1)
    n_qubits = merged.pop("n_qubits", None)
    timing = merged.pop("timing", False)
    errors = _validate(merged)
    if not (isinstance(legacy, int) and legacy >= 1):
        errors.append(f"parallel_rollouts: must be an integer >= 1 (got {legacy!r})")
    width = (POLICY_SHAPES[merged["environment"]][0] if merged.get("policy") == "quantum"
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
