"""Bias-free fully connected ReLU policies with manual backpropagation.

These networks produce action preferences that feed the same softmax used by
the quantum policy, but with the inverse temperature fixed at 1 (their
outputs are unbounded, so no extra scale is trained). Hidden layers apply
ReLU and, optionally, inverted dropout; the output layer is linear.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .vqpolicy import checked_vector, serial_matmul, softmax_policy


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


def _check_input(spec: MlpSpec, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=float)
    if features.shape[-1] != spec.layer_sizes[0]:
        raise ContractError(
            f"expected {spec.layer_sizes[0]} input features, got {features.shape[-1]}"
        )
    return features


def _forward_cached(weights, x, dropout_p, rng):
    """Batched forward pass keeping each layer's input activation and dropout
    mask (rate `dropout_p`). A hidden activation is > 0 exactly where its
    pre-activation is, unless dropped, so the backward pass reads its ReLU mask there."""
    acts, masks = [x], []
    a = x
    n_layers = len(weights)
    for i, w in enumerate(weights):
        a = np.einsum("ti,oi->to", a, w)  # unlike BLAS, rounds a row alike in any batch
        if i < n_layers - 1:
            np.maximum(a, 0.0, out=a)
            if dropout_p > 0.0:
                keep = 1.0 - dropout_p
                mask = (rng.random(a.shape) < keep) / keep
                a *= mask
                masks.append(mask)
            else:
                masks.append(None)
            acts.append(a)
    return a, acts, masks


def forward(spec: MlpSpec, weights: list[np.ndarray], features) -> np.ndarray:
    """Eval-mode (dropout-free) action preferences for one feature row or many."""
    x = np.atleast_2d(_check_input(spec, features))
    out, _, _ = _forward_cached(weights, x, 0.0, None)
    return out[0] if np.asarray(features).ndim == 1 else out


def _backward(spec: MlpSpec, weights: list[np.ndarray], features, actions,
              rng: np.random.Generator | None, scale=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per layer, the rows' (output delta, input activation) of the backward
    pass of log pi(a_t | x_t) through the training forward (dropout draws
    from `rng`); `scale` multiplies each row's delta."""
    if spec.dropout_p > 0.0 and rng is None:
        raise ContractError("train-mode dropout requires an rng")
    x = np.atleast_2d(_check_input(spec, features))
    actions = np.asarray(actions, dtype=int)
    if np.any(actions < 0) or np.any(actions >= spec.layer_sizes[-1]):
        raise ContractError("action index out of range")
    prefs, acts, masks = _forward_cached(weights, x, spec.dropout_p, rng)
    delta = -softmax_policy(prefs, 1.0)
    delta[np.arange(x.shape[0]), actions] += 1.0  # d log pi / d prefs = onehot - pi
    if scale is not None:
        delta *= scale[:, None]
    layers = []
    for i in range(len(weights) - 1, -1, -1):
        layers.append((delta, acts[i]))
        if i > 0:
            delta = serial_matmul(delta, weights[i])
            if masks[i - 1] is not None:
                delta *= masks[i - 1]
            delta *= acts[i] > 0
    return layers[::-1]


class MlpPolicy:
    """Trainable classical policy: softmax over bias-free ReLU-net preferences.

    Its state is the per-layer weight matrices, each of shape (n_out, n_in),
    which `set_vector` splits from the flat trainable vector layer by layer.
    """

    beta = 1.0  # the softmax's inverse temperature, fixed
    normalizer = None  # the features enter the network unscaled

    def __init__(self, spec: MlpSpec, vector: np.ndarray):
        self.spec = spec
        self.set_vector(vector)

    @property
    def n_trainable(self) -> int:
        return self.spec.n_params

    @property
    def n_actions(self) -> int:
        return self.spec.layer_sizes[-1]

    def get_vector(self) -> np.ndarray:
        return np.concatenate([w.ravel() for w in self.weights])

    def set_vector(self, vec: np.ndarray) -> None:
        vec, pos = checked_vector(vec, self.spec.n_params), 0
        self.weights = []
        for n_in, n_out in zip(self.spec.layer_sizes, self.spec.layer_sizes[1:]):
            self.weights.append(vec[pos:pos + n_in * n_out].reshape(n_out, n_in).copy())
            pos += n_in * n_out

    def probabilities(self, obs, rng=None, abs_max=None) -> np.ndarray:
        """(|A|,) for one feature row or (m, |A|) for m rows, from the eval-mode
        network (`rng`, `abs_max` unused); a row's bits do not depend on the others."""
        return softmax_policy(forward(self.spec, self.weights, obs), self.beta)

    def grad_log_batch(self, observations, actions, rng: np.random.Generator | None = None) -> np.ndarray:
        """Row-stacked log-policy gradients, shape (T, n_params)."""
        layers = _backward(self.spec, self.weights, observations, actions, rng)
        return np.concatenate([np.einsum("to,ti->toi", delta, act).reshape(len(act), -1)
                               for delta, act in layers], axis=1)

    def weighted_grad_log(self, observations, actions, weights,
                          rng: np.random.Generator | None = None) -> np.ndarray:
        """sum_t weights[t] * grad log pi(a_t | s_t), shape (n_params,), from
        `grad_log_batch`'s passes (and dropout draws) on weighted deltas."""
        layers = _backward(self.spec, self.weights, observations, actions, rng, weights)
        return np.concatenate([serial_matmul(delta.T, act).ravel() for delta, act in layers])

    # -- persistence ----------------------------------------------------------
    def to_checkpoint(self) -> dict:
        return {
            "weights": [w.tolist() for w in self.weights],
            "spec": self.spec.to_dict(),
        }

    @classmethod
    def from_checkpoint(cls, data: dict) -> "MlpPolicy":
        spec = MlpSpec.from_dict(data["spec"])
        weights = [np.asarray(w, dtype=float) for w in data["weights"]]
        if [w.shape for w in weights] != list(zip(spec.layer_sizes[1:], spec.layer_sizes)):
            raise ContractError("checkpoint weights do not match the layer sizes")
        return cls(spec, np.concatenate([w.ravel() for w in weights]))
