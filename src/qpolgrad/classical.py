"""Bias-free fully connected ReLU policies with manual backpropagation.

These networks produce action preferences that feed the same softmax used by
the quantum policy, but with the inverse temperature fixed at 1 (their
outputs are unbounded, so no extra scale is trained). Hidden layers apply
ReLU and, optionally, inverted dropout; the output layer is linear.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .vqpolicy import softmax_policy


@dataclass(frozen=True)
class MlpSpec:
    """Network shape: (input, hidden..., output); every layer is bias-free."""

    layer_sizes: tuple[int, ...]
    dropout_p: float = 0.0

    def __post_init__(self):
        if len(self.layer_sizes) < 2:
            raise ContractError("an MLP needs at least input and output layers")
        if any(s < 1 for s in self.layer_sizes):
            raise ContractError("layer sizes must be positive")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ContractError("dropout_p must be in [0, 1)")

    @property
    def n_params(self) -> int:
        total = 0
        for n_in, n_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            total += n_in * n_out
        return total

    def to_dict(self) -> dict:
        return {
            "layer_sizes": list(self.layer_sizes),
            "dropout_p": self.dropout_p,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MlpSpec":
        return cls(tuple(d["layer_sizes"]), d.get("dropout_p", 0.0))


def preset(name: str) -> MlpSpec:
    """The winning baseline architecture for each environment."""
    shapes = {"cartpole": (4, 128, 2), "acrobot": (6, 32, 3), "qcontrol": (4, 16, 2)}
    if name not in shapes:
        raise ConfigError(f"no classical preset named {name!r}")
    return MlpSpec(shapes[name])


class MlpParams:
    """Per-layer weight matrices, each of shape (n_out, n_in)."""

    def __init__(self, weights: list[np.ndarray]):
        self.weights = [np.asarray(w, dtype=float) for w in weights]

    @classmethod
    def glorot(cls, spec: MlpSpec, rng: np.random.Generator, gain: float = 1.0) -> "MlpParams":
        """Draw each weight from N(0, std^2), std = gain*sqrt(6/(fan_in+fan_out))."""
        weights = []
        for n_in, n_out in zip(spec.layer_sizes, spec.layer_sizes[1:]):
            std = gain * np.sqrt(6.0 / (n_in + n_out))
            weights.append(rng.normal(0.0, std, size=(n_out, n_in)))
        return cls(weights)

    def flatten(self) -> np.ndarray:
        return np.concatenate([w.ravel() for w in self.weights])

    @classmethod
    def from_flat(cls, spec: MlpSpec, flat: np.ndarray) -> "MlpParams":
        flat = np.asarray(flat, dtype=float)
        if len(flat) != spec.n_params:
            raise ContractError(f"expected {spec.n_params} weights, got {len(flat)}")
        weights, pos = [], 0
        for n_in, n_out in zip(spec.layer_sizes, spec.layer_sizes[1:]):
            weights.append(flat[pos:pos + n_in * n_out].reshape(n_out, n_in).copy())
            pos += n_in * n_out
        return cls(weights)


def _check_input(spec: MlpSpec, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=float)
    if features.shape[-1] != spec.layer_sizes[0]:
        raise ContractError(
            f"expected {spec.layer_sizes[0]} input features, got {features.shape[-1]}"
        )
    return features


def _forward_cached(spec, params, x, train, rng):
    """Batched forward pass keeping pre-activations and dropout masks."""
    acts = [x]
    pre, masks = [], []
    a = x
    n_layers = len(params.weights)
    for i, w in enumerate(params.weights):
        h = a @ w.T
        if i < n_layers - 1:
            pre.append(h)
            a = np.maximum(h, 0.0)
            if train and spec.dropout_p > 0.0:
                keep = 1.0 - spec.dropout_p
                mask = (rng.random(a.shape) < keep) / keep
                a = a * mask
                masks.append(mask)
            else:
                masks.append(None)
            acts.append(a)
        else:
            a = h
    return a, acts, pre, masks


def forward(spec: MlpSpec, params: MlpParams, features, mode: str = "eval",
            rng: np.random.Generator | None = None) -> np.ndarray:
    """Action preferences for one feature vector (or a batch of rows)."""
    if mode not in ("eval", "train"):
        raise ContractError(f"mode must be 'eval' or 'train', got {mode!r}")
    if mode == "train" and spec.dropout_p > 0.0 and rng is None:
        raise ContractError("train-mode dropout requires an rng")
    x = np.atleast_2d(_check_input(spec, features))
    out, _, _, _ = _forward_cached(spec, params, x, mode == "train", rng)
    return out[0] if np.asarray(features).ndim == 1 else out


def grad_log_policy(spec: MlpSpec, params: MlpParams, features, action: int,
                    mode: str = "eval", rng: np.random.Generator | None = None) -> np.ndarray:
    """Exact gradient of log pi(action | features) over all weights, flattened.

    In train mode the dropout masks are drawn once in the internal forward
    pass and reused by the backward pass.
    """
    g = grad_log_policy_batch(spec, params, np.atleast_2d(_check_input(spec, features)),
                              np.array([action]), mode=mode, rng=rng)
    return g[0]


def grad_log_policy_batch(spec: MlpSpec, params: MlpParams, features, actions,
                          mode: str = "eval", rng: np.random.Generator | None = None) -> np.ndarray:
    """Row-stacked log-policy gradients, shape (T, n_params)."""
    if mode == "train" and spec.dropout_p > 0.0 and rng is None:
        raise ContractError("train-mode dropout requires an rng")
    x = np.atleast_2d(_check_input(spec, features))
    actions = np.asarray(actions, dtype=int)
    t = x.shape[0]
    n_actions = spec.layer_sizes[-1]
    if np.any(actions < 0) or np.any(actions >= n_actions):
        raise ContractError("action index out of range")
    prefs, acts, pre, masks = _forward_cached(spec, params, x, mode == "train", rng)
    probs = softmax_policy(prefs, 1.0)
    delta = -probs
    delta[np.arange(t), actions] += 1.0  # d log pi / d prefs = onehot - pi
    grads = [None] * len(params.weights)
    for i in range(len(params.weights) - 1, -1, -1):
        grads[i] = np.einsum("to,ti->toi", delta, acts[i])
        if i > 0:
            delta = delta @ params.weights[i]
            if masks[i - 1] is not None:
                delta = delta * masks[i - 1]
            delta = delta * (pre[i - 1] > 0)
    return np.concatenate([g.reshape(t, -1) for g in grads], axis=1)


class MlpPolicy:
    """Trainable classical policy: softmax over bias-free ReLU-net preferences."""

    kind = "classical"

    def __init__(self, spec: MlpSpec, params: MlpParams):
        self.spec = spec
        self.params = params

    @property
    def n_trainable(self) -> int:
        return self.spec.n_params

    @property
    def n_actions(self) -> int:
        return self.spec.layer_sizes[-1]

    def get_vector(self) -> np.ndarray:
        return self.params.flatten()

    def set_vector(self, vec: np.ndarray) -> None:
        self.params = MlpParams.from_flat(self.spec, vec)

    def probabilities(self, obs, rng: np.random.Generator | None = None) -> np.ndarray:
        # action sampling uses the eval-mode (mean) network
        return softmax_policy(forward(self.spec, self.params, obs), 1.0)

    def grad_log(self, obs, action: int, rng: np.random.Generator | None = None) -> np.ndarray:
        mode = "train" if self.spec.dropout_p > 0.0 else "eval"
        return grad_log_policy(self.spec, self.params, obs, action, mode=mode, rng=rng)

    def grad_log_batch(self, observations, actions, rng: np.random.Generator | None = None) -> np.ndarray:
        mode = "train" if self.spec.dropout_p > 0.0 else "eval"
        return grad_log_policy_batch(self.spec, self.params, observations, actions, mode=mode,
                                     rng=rng)

    # -- persistence ----------------------------------------------------------
    def to_checkpoint(self) -> dict:
        return {
            "weights": [w.tolist() for w in self.params.weights],
            "spec": self.spec.to_dict(),
        }

    @classmethod
    def from_checkpoint(cls, data: dict) -> "MlpPolicy":
        spec = MlpSpec.from_dict(data["spec"])
        return cls(spec, MlpParams([np.asarray(w, dtype=float) for w in data["weights"]]))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_checkpoint(), fh, indent=1)

    @classmethod
    def load(cls, path) -> "MlpPolicy":
        with open(path) as fh:
            return cls.from_checkpoint(json.load(fh))
