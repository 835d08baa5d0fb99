"""Bias-free fully connected ReLU policies with manual backpropagation.

These networks produce action preferences that feed the same softmax used by
the quantum policy, but with the inverse temperature fixed at 1 (their
outputs are unbounded, so no extra scale is trained). Hidden layers apply
ReLU and, optionally, inverted dropout; the output layer is linear.

`_forward_cached` is the one forward for inference and training; it gives a
row the same bits in any batch, and it writes into arrays its caller
allocated. A gradient makes one pass over its batch, `vqpolicy.CHUNK_ROWS`
rows at a time as the circuit's does. The pass allocates its chunk arrays
once: an activation per hidden layer, which each hidden delta overwrites, a
dropout mask per hidden layer if dropout is on, and one boolean ReLU mask.
So no (T, hidden) array is held, and no chunk allocates a hidden array.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .vqpolicy import CHUNK_ROWS, checked_batch, checked_vector, serial_matmul, softmax_policy


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


def _hidden_arrays(weights, rows: int) -> list[np.ndarray]:
    """One uninitialised (rows, width) float array per hidden layer."""
    return [np.empty((rows, len(w))) for w in weights[:-1]]


def _forward_cached(weights, x, dropout_p, rng, hidden, drops):
    """Batched forward pass over len(x) rows: writes each hidden layer's
    activation into the leading rows of its array in `hidden` and, at
    dropout rate `dropout_p` > 0, its inverted-dropout mask (drawn from
    `rng`) into the one in `drops`. Allocates only the (rows, |A|)
    preferences; returns them and each layer's input activation, x first.
    A hidden activation is > 0 exactly where its pre-activation is, unless
    dropped, so the backward pass reads its ReLU mask there.

    Each layer gives a row the same bits in any batch. The input layer is
    only n_features (4 or 6) wide, and one-thread gemm (`serial_matmul`)
    rounds a row of so short a product alike in any batch, so it runs there.
    Every later layer is an einsum: gemm rounds a row of a 16- to 128-term
    product by where it sits in the batch.
    """
    acts = [h[:len(x)] for h in hidden]
    outs = acts + [None]  # the output layer's preferences are a new array
    a = serial_matmul(x, weights[0].T, out=outs[0])
    for i, w in enumerate(weights[1:]):
        np.maximum(a, 0.0, out=a)
        if dropout_p > 0.0:
            keep = 1.0 - dropout_p
            mask = rng.random(out=drops[i][:len(x)])
            np.less(mask, keep, out=mask)
            mask /= keep
            a *= mask
        a = np.einsum("ti,oi->to", a, w, out=outs[i + 1])
    return a, [x] + acts


def _backward(weights, x, actions, dropout_p, rng, scale, hidden, drops, relu):
    """Per layer from the output down, yields the rows' (output delta, input
    activation) of the backward pass of log pi(a_t | x_t) through the
    training forward (`_forward_cached` into `hidden` and `drops`, dropout
    drawing from `rng`); `scale`, if not None, multiplies each row's delta.
    Once the caller asks for the next pair, the ReLU mask of the activation
    just handed out goes into the flat boolean `relu`, and the next hidden
    delta is written over that activation: a chunk holds one hidden array
    per layer, not two. So a caller is done with a pair before it asks for
    the next, and with a chunk before the next chunk's forward."""
    prefs, acts = _forward_cached(weights, x, dropout_p, rng, hidden, drops)
    delta = -softmax_policy(prefs, 1.0)
    delta[np.arange(len(x)), actions] += 1.0  # d log pi / d prefs = onehot - pi
    if scale is not None:
        delta *= scale[:, None]
    for i in range(len(weights) - 1, -1, -1):
        yield delta, acts[i]
        if i > 0:
            active = np.greater(acts[i], 0.0, out=relu[:acts[i].size].reshape(acts[i].shape))
            delta = serial_matmul(delta, weights[i], out=acts[i])
            if dropout_p > 0.0:
                delta *= drops[i - 1][:len(x)]
            delta *= active


class MlpPolicy:
    """The classical policy, under the policy contract of `reinforce`'s
    docstring: softmax over bias-free ReLU-net preferences.

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
    def n_features(self) -> int:
        return self.spec.layer_sizes[0]

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

    def probabilities(self, obs, rngs, abs_max) -> np.ndarray:
        """(m, |A|) for m feature rows, from the eval-mode (dropout-free)
        network (`rngs`, `abs_max` unused); a row's bits do not depend on the others."""
        prefs, _ = _forward_cached(self.weights, obs, 0.0, None,
                                   _hidden_arrays(self.weights, len(obs)), None)
        return softmax_policy(prefs, self.beta)

    def _batch(self, observations, actions, rng, weights=None):
        """A gradient's `checked_batch`, and dropout's rng checked."""
        if self.spec.dropout_p > 0.0 and rng is None:
            raise ContractError("train-mode dropout requires an rng")
        return checked_batch(self, observations, actions, weights)

    def _backward_chunks(self, x, actions, rng, scale=None):
        """One pass over a checked batch's T rows and actions, CHUNK_ROWS rows
        at a time from row 0, like `QuantumPolicy._score_chunks`. Yields each
        chunk's row slice and `_backward`'s pairs of its rows, output layer
        first, with row t's delta scaled by scale[t]; dropout draws each
        chunk's masks from `rng`, layer by layer. The chunk arrays are allocated once per pass, for
        min(CHUNK_ROWS, T) rows: an activation per hidden layer, a dropout
        mask per hidden layer if dropout is on, and one boolean ReLU mask."""
        rows, p = min(CHUNK_ROWS, len(x)), self.spec.dropout_p
        hidden = _hidden_arrays(self.weights, rows)
        drops = _hidden_arrays(self.weights, rows) if p > 0.0 else None
        relu = np.empty(rows * max(self.spec.layer_sizes[1:-1], default=0), dtype=bool)
        for lo in range(0, len(x), CHUNK_ROWS):
            chunk = slice(lo, lo + CHUNK_ROWS)
            yield chunk, _backward(self.weights, x[chunk], actions[chunk], p, rng,
                                   None if scale is None else scale[chunk], hidden, drops, relu)

    def grad_log_batch(self, observations, actions, rng: np.random.Generator | None = None) -> np.ndarray:
        """Row-stacked log-policy gradients, shape (T, n_params), written chunk
        by chunk into (T, n_out, n_in) views of the one result."""
        x, actions, _ = self._batch(observations, actions, rng)
        grads, blocks, lo = np.empty((len(actions), self.spec.n_params)), [], 0
        for w in self.weights:
            blocks.append(grads[:, lo:lo + w.size].reshape(len(grads), *w.shape))
            lo += w.size
        for rows, layers in self._backward_chunks(x, actions, rng):
            for block, (delta, act) in zip(reversed(blocks), layers):
                np.einsum("to,ti->toi", delta, act, out=block[rows])
        return grads

    def weighted_grad_log(self, observations, actions, weights,
                          rng: np.random.Generator | None = None) -> np.ndarray:
        """sum_t weights[t] * grad log pi(a_t | s_t), shape (n_params,), from
        `grad_log_batch`'s pass (and dropout draws) on weighted deltas: each
        chunk adds delta^T act into its layer's sum."""
        x, actions, weights = self._batch(observations, actions, rng, weights)
        sums = [np.zeros(w.shape) for w in self.weights]
        for _, layers in self._backward_chunks(x, actions, rng, weights):
            for total, (delta, act) in zip(reversed(sums), layers):
                total += serial_matmul(delta.T, act)
        return np.concatenate([total.ravel() for total in sums])

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
