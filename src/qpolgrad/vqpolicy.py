"""Variational softmax policy over a shallow quantum circuit.

The policy pipeline: classical features are angle-encoded into qubits (or a
quantum state, given as its `qsim.amplitude_features` row, is consumed
directly), a layered hardware-efficient ansatz (or a single U3 gate) is
applied, per-action preferences are read out as Pauli-Z expectations, and a
trainable inverse temperature sharpens the softmax.

There is one engine for exact and shot mode alike: a batch of input states
is stacked as rows and pushed through the ansatz's 2**n x 2**n row operator,
and the rows are read out exactly or with a finite number of shots.

Every trainable angle sits in exactly one Pauli rotation (the U3 gate is a
Z-Y-Z chain, so its three angles qualify). Gradients with respect to them
come from one of two places:

- Exact mode (shots = 0) uses the adjoint method (Jones & Gacon 2020): the
  log-policy gradient of a row needs only d<O>/d(theta) for the weighted
  observable O = sum_a w_a Z_a, so one co-state lambda = O psi per row is
  walked back through the circuit next to psi, and each rotation
  exp(-i theta P / 2) contributes Im<lambda|P psi>.
- Shot mode uses the two-term parameter-shift rule,
  d<a>/d(theta_j) = (<a>(theta_j + pi/2) - <a>(theta_j - pi/2)) / 2, which
  needs only measured expectations. It is also the tests' exact oracle for
  the adjoint sweep.

The inverse-temperature gradient is analytic.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import qsim
from .errors import ContractError

ARCHITECTURES = ("layered", "single_u3")
ENCODINGS = ("angle_rx", "none")

NORM_FLOOR = 1e-8


@dataclass(frozen=True)
class CircuitSpec:
    """Static description of the policy circuit."""

    n_qubits: int
    n_layers: int
    n_actions: int
    architecture: str = "layered"
    encoding: str = "angle_rx"

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ContractError(f"unknown architecture {self.architecture!r}")
        if self.encoding not in ENCODINGS:
            raise ContractError(f"unknown encoding {self.encoding!r}")
        if not 1 <= self.n_qubits <= qsim.MAX_QUBITS:
            raise ContractError(f"n_qubits must be in [1, {qsim.MAX_QUBITS}]")
        if self.architecture == "layered":
            if self.n_layers < 1:
                raise ContractError("layered ansatz needs n_layers >= 1")
            if self.n_actions > self.n_qubits:
                raise ContractError("qubit-efficient measurement needs n_actions <= n_qubits")
        else:
            if self.n_qubits != 1 or self.n_actions != 2:
                raise ContractError("single_u3 requires exactly 1 qubit and 2 actions")

    @property
    def n_params(self) -> int:
        """Circuit angle count (excludes the inverse temperature)."""
        if self.architecture == "single_u3":
            return 3
        return 2 * self.n_qubits * self.n_layers

    def to_dict(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "n_layers": self.n_layers,
            "n_actions": self.n_actions,
            "architecture": self.architecture,
            "encoding": self.encoding,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CircuitSpec":
        return cls(**d)


@dataclass
class PolicyParams:
    """Trainable state: flat angle vector plus inverse temperature."""

    theta: np.ndarray
    beta: float

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.ndim != 1 or not np.all(np.isfinite(self.theta)):
            raise ContractError("theta must be a finite 1-d vector")
        if not np.isfinite(self.beta):
            raise ContractError("beta must be finite")

    def vector(self) -> np.ndarray:
        """Full trainable vector; beta is the last entry."""
        return np.append(self.theta, self.beta)

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "PolicyParams":
        vec = np.asarray(vec, dtype=float)
        return cls(theta=vec[:-1].copy(), beta=float(vec[-1]))


class FeatureNormalizer:
    """Online L-infinity feature scaling onto [-pi, pi].

    Keeps a per-feature running absolute maximum (floored at a small
    constant) that never decreases over a run.
    """

    def __init__(self, n_features: int, running_abs_max=None):
        if running_abs_max is None:
            self.running_abs_max = np.full(n_features, NORM_FLOOR)
        else:
            self.running_abs_max = np.maximum(np.asarray(running_abs_max, dtype=float), NORM_FLOOR)
            if self.running_abs_max.shape != (n_features,):
                raise ContractError("running_abs_max length must equal n_features")

    @property
    def n_features(self) -> int:
        return len(self.running_abs_max)

    def observe(self, features: np.ndarray) -> None:
        features = np.asarray(features, dtype=float)
        if features.shape[-1] != self.n_features:
            raise ContractError("feature count mismatch in normalizer")
        absmax = np.abs(features) if features.ndim == 1 else np.abs(features).max(axis=0)
        self.running_abs_max = np.maximum(self.running_abs_max, absmax)

    def rescale(self, features: np.ndarray) -> np.ndarray:
        """Scale already-observed features to angles in [-pi, pi]."""
        return np.asarray(features, dtype=float) * (np.pi / self.running_abs_max)

    def normalize(self, features: np.ndarray) -> np.ndarray:
        self.observe(features)
        return self.rescale(features)

    def copy(self) -> "FeatureNormalizer":
        return FeatureNormalizer(self.n_features, self.running_abs_max.copy())

    def merge(self, other: "FeatureNormalizer") -> None:
        self.running_abs_max = np.maximum(self.running_abs_max, other.running_abs_max)


def encoded_rows(angles: np.ndarray) -> np.ndarray:
    """Product states for a batch of RX-encoding angle rows, shape (T, 2**n).

    RX(a)|0> = [cos(a/2), -i sin(a/2)]; the full register state is the
    tensor product over qubits with qubit 0 as the most significant factor.
    """
    angles = np.atleast_2d(np.asarray(angles, dtype=float))
    t = angles.shape[0]
    rows = np.ones((t, 1), dtype=complex)
    for q in range(angles.shape[1]):
        half = angles[:, q] / 2
        factor = np.stack([np.cos(half), -1j * np.sin(half)], axis=1)
        rows = (rows[:, :, None] * factor[:, None, :]).reshape(t, -1)
    return rows


def build_ansatz(spec: CircuitSpec, params: PolicyParams) -> list[qsim.Gate]:
    """Gate list of the trainable block.

    Layered: per layer, RY then RZ on each qubit (parameters consumed in
    layer-major, qubit-major order), then the entangling cascade
    CNOT(control=i, target=(i+l) mod n) for i = 0..n-1 in layer l (1-based),
    skipping self-loops. single_u3: one U3 on qubit 0, no entanglers.
    """
    theta = params.theta
    if len(theta) != spec.n_params:
        raise ContractError(
            f"{spec.architecture} spec needs {spec.n_params} parameters, got {len(theta)}"
        )
    if spec.architecture == "single_u3":
        return [qsim.Gate("U3", (float(theta[0]), float(theta[1]), float(theta[2])), 0)]
    gates: list[qsim.Gate] = []
    n = spec.n_qubits
    idx = 0
    for layer in range(1, spec.n_layers + 1):
        for q in range(n):
            gates.append(qsim.Gate("RY", (float(theta[idx]),), q))
            gates.append(qsim.Gate("RZ", (float(theta[idx + 1]),), q))
            idx += 2
        for q in range(n):
            tgt = (q + layer) % n
            if tgt != q:
                gates.append(qsim.Gate("CNOT", (), tgt, q))
    return gates


def _measured_qubits(spec: CircuitSpec) -> range:
    return range(spec.n_actions if spec.architecture == "layered" else 1)


def _readout(spec: CircuitSpec, rows: np.ndarray, shots: int,
             rng: np.random.Generator | None) -> np.ndarray:
    """Preferences of ansatz-output rows, shape (T, |A|); the single_u3 pair
    is one measurement with its sign flipped."""
    z = qsim.measure_z_array(rows, _measured_qubits(spec), spec.n_qubits, shots, rng)
    if spec.architecture == "single_u3":
        return np.concatenate([z, -z], axis=1)
    return z


def row_preferences(spec: CircuitSpec, params: PolicyParams, enc: np.ndarray,
                    shots: int = 0, rng: np.random.Generator | None = None) -> np.ndarray:
    """Per-action preferences <a_i> of row-stacked input states, shape (T, |A|).

    shots = 0 gives exact expectations; shots > 0 draws finite-shot
    estimates, one per measured qubit and row.
    """
    rowop = qsim.circuit_row_operator(build_ansatz(spec, params), spec.n_qubits)
    return _readout(spec, enc @ rowop, shots, rng)


def softmax_policy(prefs: np.ndarray, beta: float) -> np.ndarray:
    """Action probabilities exp(beta * pref) / sum, computed in log-space."""
    z = beta * np.asarray(prefs, dtype=float)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def shift_gradients(spec: CircuitSpec, params: PolicyParams, enc: np.ndarray,
                    shots: int = 0, rng: np.random.Generator | None = None) -> np.ndarray:
    """Parameter-shift gradients d<a>/d(theta) of every action preference for
    row-stacked input states, shape (T, k, |A|).

    Each of the 2k shifted circuits is built once for the whole batch; in
    shot mode the plus and minus evaluations of each angle draw in turn.
    """
    grads = np.empty((enc.shape[0], spec.n_params, spec.n_actions))
    for j in range(spec.n_params):
        shifted = params.theta.copy()
        shifted[j] += np.pi / 2
        plus = row_preferences(spec, PolicyParams(shifted, params.beta), enc, shots, rng)
        shifted[j] -= np.pi
        minus = row_preferences(spec, PolicyParams(shifted, params.beta), enc, shots, rng)
        grads[:, j, :] = 0.5 * (plus - minus)
    return grads


ADJOINT_CHUNK_ROWS = 256  # rows per sweep; bounds the co-state memory and stays cache-sized


def _rotation_steps(gates: list[qsim.Gate]) -> list[tuple[qsim.Gate, int | None]]:
    """Circuit as (gate, angle index) in application order, each U3 split into
    its RZ(lam) RY(theta) RZ(phi) chain; CNOTs carry no angle index."""
    steps: list[tuple[qsim.Gate, int | None]] = []
    idx = 0
    for gate in gates:
        if gate.kind == "U3":
            theta, phi, lam = gate.angles
            steps += [(qsim.Gate("RZ", (lam,), gate.target), idx + 2),
                      (qsim.Gate("RY", (theta,), gate.target), idx),
                      (qsim.Gate("RZ", (phi,), gate.target), idx + 1)]
        else:
            steps.append((gate, idx if gate.angles else None))
        idx += len(gate.angles)
    return steps


def _generator_overlap(psi: np.ndarray, lam: np.ndarray, gate: qsim.Gate) -> np.ndarray:
    """Im<lam|P psi> per row for the Pauli P (Z or Y) of a rotation gate."""
    shape = (psi.shape[0], 2**gate.target, 2, -1)
    x, c = psi.reshape(shape), lam.reshape(shape)
    if gate.kind == "RZ":
        im = (c.conj() * x).imag
        return im[:, :, 0].sum(axis=(1, 2)) - im[:, :, 1].sum(axis=(1, 2))
    # Y x = (-i x_1, i x_0), so Im<c|Y x> = Re sum(conj(c_1) x_0 - conj(c_0) x_1)
    return (c[:, :, 1].conj() * x[:, :, 0] - c[:, :, 0].conj() * x[:, :, 1]).real.sum(axis=(1, 2))


def adjoint_gradients(spec: CircuitSpec, params: PolicyParams, rows: np.ndarray,
                      weights: np.ndarray) -> np.ndarray:
    """d/d(theta) of sum_a weights[t, a] * <a>_t for ansatz-output rows, shape (T, k).

    `rows` are the circuit's output states (input rows @ row operator). Each
    row's co-state lambda = O_t psi, with O_t = sum_a weights[t, a] Z_a, is
    walked back through the gates next to psi: at a rotation the angle's
    derivative is Im<lambda|P psi>, then both states are uncomputed with the
    gate's inverse. Rows are processed ADJOINT_CHUNK_ROWS at a time and no
    per-gate state is kept.
    """
    n = spec.n_qubits
    qubits = _measured_qubits(spec)
    coeff = weights if spec.architecture == "layered" else weights[:, :1] - weights[:, 1:]
    basis = np.arange(2**n)
    z_signs = np.stack([1.0 - 2.0 * (basis >> (n - 1 - q) & 1) for q in qubits])
    steps = _rotation_steps(build_ansatz(spec, params))[::-1]
    inverses = [g.matrix().conj().T if j is not None else None for g, j in steps]
    grads = np.empty((rows.shape[0], spec.n_params))
    for lo in range(0, rows.shape[0], ADJOINT_CHUNK_ROWS):
        psi = rows[lo:lo + ADJOINT_CHUNK_ROWS]
        pair = np.stack([psi, psi * (coeff[lo:lo + ADJOINT_CHUNK_ROWS] @ z_signs)])
        for (gate, j), inverse in zip(steps, inverses):
            if j is None:  # a CNOT is its own inverse
                pair = qsim.apply_cnot_array(pair, gate.control, gate.target, n)
                continue
            grads[lo:lo + ADJOINT_CHUNK_ROWS, j] = _generator_overlap(pair[0], pair[1], gate)
            pair = qsim.apply_1q_array(pair, inverse, gate.target, n)
    return grads


class QuantumPolicy:
    """Trainable policy bundling circuit spec, parameters, and normalizer.

    Exact mode (shots = 0) is the training default; shot mode reads the same
    batched rows out with `shots` measurements. The ansatz is a fixed unitary
    per parameter vector, so inference reuses a cached 2**n x 2**n operator.
    """

    kind = "quantum"

    def __init__(self, spec: CircuitSpec, params: PolicyParams,
                 normalizer: FeatureNormalizer | None = None, shots: int = 0):
        if spec.encoding == "angle_rx" and normalizer is None:
            normalizer = FeatureNormalizer(spec.n_qubits)
        self.spec = spec
        self.params = params
        self.normalizer = normalizer
        self.shots = shots
        self._rowop_theta: np.ndarray | None = None
        self._rowop: np.ndarray | None = None

    # -- trainable vector ---------------------------------------------------
    @property
    def n_trainable(self) -> int:
        return self.spec.n_params + 1

    def get_vector(self) -> np.ndarray:
        return self.params.vector()

    def set_vector(self, vec: np.ndarray) -> None:
        self.params = PolicyParams.from_vector(vec)
        self._rowop = None

    @property
    def n_actions(self) -> int:
        return self.spec.n_actions

    # -- evaluation ---------------------------------------------------------
    def row_operator(self) -> np.ndarray:
        """The ansatz's row operator for the current theta, built once and cached."""
        if self._rowop is None or not np.array_equal(self._rowop_theta, self.params.theta):
            self._rowop = qsim.circuit_row_operator(build_ansatz(self.spec, self.params),
                                                    self.spec.n_qubits)
            self._rowop_theta = self.params.theta.copy()
        return self._rowop

    def _encode_batch(self, observations) -> np.ndarray:
        """Row-stacked input states, shape (T, 2**n), from one feature row or a
        (T, n_features) array. Updates the normalizer."""
        feats = np.atleast_2d(np.asarray(observations, dtype=float))
        if self.spec.encoding == "none":
            if feats.shape[-1] != 2 ** (self.spec.n_qubits + 1):
                raise ContractError("input state qubit count does not match the circuit")
            return qsim.feature_amplitudes(feats)
        self.normalizer.observe(feats)
        return encoded_rows(feats * (np.pi / self.normalizer.running_abs_max))

    def probabilities(self, obs, rng: np.random.Generator | None = None) -> np.ndarray:
        enc = self._encode_batch([obs])
        prefs = _readout(self.spec, enc @ self.row_operator(), self.shots, rng)[0]
        return softmax_policy(prefs, self.params.beta)

    def grad_log(self, obs, action: int, rng: np.random.Generator | None = None) -> np.ndarray:
        return self.grad_log_batch([obs], [action], rng)[0]

    def grad_log_batch(self, observations, actions, rng: np.random.Generator | None = None) -> np.ndarray:
        """Log-policy gradients for T (observation, action) pairs: (T, k+1).

        theta block: sum_a w_a d<a>/d(theta) with w = beta * (onehot(a_t) - pi),
        from the adjoint sweep in exact mode and parameter shift in shot mode;
        beta entry (analytic): <a> - sum_b pi_b <b>. Observations are assumed
        already seen by the normalizer (true after a rollout); unseen features
        are folded in before scaling.
        """
        actions = np.asarray(actions, dtype=int)
        if np.any(actions < 0) or np.any(actions >= self.spec.n_actions):
            raise ContractError("action index out of range")
        enc = self._encode_batch(observations)
        out_rows = enc @ self.row_operator()
        prefs = _readout(self.spec, out_rows, self.shots, rng)
        probs = softmax_policy(prefs, self.params.beta)
        rows = np.arange(enc.shape[0])
        weights = -self.params.beta * probs
        weights[rows, actions] += self.params.beta
        if self.shots:
            grads = shift_gradients(self.spec, self.params, enc, self.shots, rng)
            gtheta = np.einsum("tka,ta->tk", grads, weights)
        else:
            gtheta = adjoint_gradients(self.spec, self.params, out_rows, weights)
        gbeta = prefs[rows, actions] - np.einsum("ta,ta->t", prefs, probs)
        return np.concatenate([gtheta, gbeta[:, None]], axis=1)

    # -- persistence ----------------------------------------------------------
    def to_checkpoint(self) -> dict:
        return {
            "theta": self.params.theta.tolist(),
            "beta": self.params.beta,
            "norm_abs_max": (self.normalizer.running_abs_max.tolist()
                             if self.normalizer is not None else []),
            "spec": self.spec.to_dict(),
        }

    @classmethod
    def from_checkpoint(cls, data: dict, shots: int = 0) -> "QuantumPolicy":
        spec = CircuitSpec.from_dict(data["spec"])
        params = PolicyParams(np.asarray(data["theta"], dtype=float), float(data["beta"]))
        normalizer = None
        if spec.encoding == "angle_rx":
            stored = data.get("norm_abs_max") or None
            normalizer = FeatureNormalizer(spec.n_qubits, stored)
        return cls(spec, params, normalizer, shots=shots)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_checkpoint(), fh, indent=1)

    @classmethod
    def load(cls, path, shots: int = 0) -> "QuantumPolicy":
        with open(path) as fh:
            return cls.from_checkpoint(json.load(fh), shots=shots)
