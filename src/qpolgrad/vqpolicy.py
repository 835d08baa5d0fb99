"""Variational softmax policy over a shallow quantum circuit.

The policy pipeline: classical features are angle-encoded into qubits (or a
quantum state, given as its `qsim.amplitude_features` row, is consumed
directly), a layered hardware-efficient ansatz (or a single U3 gate) is
applied, per-action preferences are read out as Pauli-Z expectations, and a
trainable inverse temperature sharpens the softmax.

There is one engine for exact and shot mode alike: a batch of input states
is stacked as rows and pushed through the ansatz's 2**n x 2**n row operator,
and the rows are read out exactly or with a finite number of shots. An
angle-encoded row is gathered from one (cos, sin) pair per qubit through a
cached table of basis-state bits. The exact readout contracts the rows'
probabilities with a cached (2**n, |A|) table of +-1 signs, the same table
that gives the adjoint sweep its co-states; shot mode draws each row from
the measured qubits' marginals (`qsim.measure_z_array`) on its own
generator. A policy builds the operator at first use after `set_vector`.

Every trainable angle sits in exactly one Pauli rotation (the U3 gate is a
Z-Y-Z chain, so its three angles qualify). Gradients with respect to them
take one of two routes:

- Exact mode (shots = 0) uses one adjoint sweep (Jones & Gacon 2020),
  `adjoint_gradients`: row pairs (psi, lambda) at the circuit's output are
  walked back through the gates together, and a rotation exp(-i theta P / 2)
  contributes Im<lambda|P psi>. The co-state of row psi_t is
  lambda_t = O_t psi_t, where O_t = sum_a w_ta Z_a. A gradient makes one
  pass over its batch, ADJOINT_CHUNK_ROWS rows at a time: each chunk is
  encoded, pushed through the row operator, read out and turned into
  co-state weights, so no (T, 2**n) array is ever held. Per-sample gradients
  (the Fisher matrix) sweep each chunk's pairs (psi_t, lambda_t). Training
  needs only the advantage-weighted sum over the batch, so it folds each
  chunk into the 2**n x 2**n operator M = sum_t |psi_t><lambda_t| and
  sweeps M's 2**n rows against the identity's once, after the pass.
- Shot mode uses the two-term parameter-shift rule per sample, d<a>/d(theta_j)
  = (<a>(theta_j + pi/2) - <a>(theta_j - pi/2)) / 2, the tests' exact oracle.

The inverse-temperature gradient is analytic.
"""
from __future__ import annotations

import functools
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


def checked_vector(vec, size: int) -> np.ndarray:
    """A policy's trainable vector: a private, read-only float copy of `vec`,
    which must be `size` finite numbers."""
    vec = np.array(vec, dtype=float)
    if vec.shape != (size,) or not np.all(np.isfinite(vec)):
        raise ContractError(f"a trainable vector must be {size} finite numbers, "
                            f"got shape {vec.shape}")
    vec.flags.writeable = False
    return vec


class FeatureNormalizer:
    """Online L-infinity feature scaling onto [-pi, pi].

    Keeps a per-feature running absolute maximum (floored at a small
    constant) that never decreases over a run. Rollouts record what they
    observe; inference and gradients only read it.
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

    def widened(self, features: np.ndarray) -> np.ndarray:
        """The maxima widened to cover a row or (T, n) array, not recorded."""
        features = np.asarray(features, dtype=float)
        if features.shape[-1] != self.n_features:
            raise ContractError("feature count mismatch in normalizer")
        absmax = np.abs(features) if features.ndim == 1 else np.abs(features).max(axis=0)
        return np.maximum(self.running_abs_max, absmax)

    def observe(self, features: np.ndarray) -> None:
        self.running_abs_max = self.widened(features)

    def copy(self) -> "FeatureNormalizer":
        return FeatureNormalizer(self.n_features, self.running_abs_max.copy())


def serial_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-D operands, on the one BLAS thread pinned at import
    (`qpolgrad`). A lone row is doubled: gemv rounds differently from gemm by
    about 1e-16, and a policy's row keeps the bits it has in any batch."""
    if len(a) == 1:
        return (np.concatenate([a, a]) @ b)[:1]
    return a @ b


# Rows per chunk of a gradient's one pass over its batch (encode, product,
# readout, co-states and sweep), so its temporaries are (256, 2**n) whatever T.
ADJOINT_CHUNK_ROWS = 256


@functools.cache
def _basis_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """For n qubits: the (n, 2**n) position of each basis state's qubit-q
    factor in a row of n (cos, sin) pairs, and the (2**n,) phase row
    (-i)**(number of 1 bits). Read-only, built once per n."""
    bits = np.arange(2**n) >> np.arange(n - 1, -1, -1)[:, None] & 1
    index, phase = 2 * np.arange(n)[:, None] + bits, (-1j) ** bits.sum(axis=0)
    index.flags.writeable = phase.flags.writeable = False
    return index, phase


def encoded_rows(angles: np.ndarray) -> np.ndarray:
    """Product states for a (T, n) array of RX-encoding angles, shape (T, 2**n).

    RX(a)|0> = [cos(a/2), -i sin(a/2)]; the full register state is the
    tensor product over qubits with qubit 0 as the most significant factor.
    Amplitude j is the product, from qubit 0 on, of cos or sin of each half
    angle as bit q of j is 0 or 1, times (-i)**(number of 1 bits). That is
    the complex kron's arithmetic on the one nonzero part of each factor, so
    the rows carry its bits; only the sign of a zero part can differ. Rows
    are gathered ADJOINT_CHUNK_ROWS at a time, bounding the (rows, n, 2**n)
    gather.
    """
    half = angles / 2
    t, n = half.shape
    index, phase = _basis_tables(n)
    rows = np.empty((t, 2**n), dtype=complex)
    for lo in range(0, t, ADJOINT_CHUNK_ROWS):
        chunk = half[lo:lo + ADJOINT_CHUNK_ROWS]
        pairs = np.empty(chunk.shape + (2,))
        np.cos(chunk, out=pairs[:, :, 0])
        np.sin(chunk, out=pairs[:, :, 1])
        factors = pairs.reshape(len(chunk), 2 * n).take(index, axis=1)  # (rows, n, 2**n)
        np.multiply(np.multiply.reduce(factors, axis=1), phase,
                    out=rows[lo:lo + ADJOINT_CHUNK_ROWS])
    return rows


def build_ansatz(spec: CircuitSpec, theta: np.ndarray) -> list[qsim.Gate]:
    """Gate list of the trainable block.

    Layered: per layer, RY then RZ on each qubit (parameters consumed in
    layer-major, qubit-major order), then the entangling cascade
    CNOT(control=i, target=(i+l) mod n) for i = 0..n-1 in layer l (1-based),
    skipping self-loops. single_u3: one U3 on qubit 0, no entanglers.
    """
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


@functools.cache
def _sign_table(spec: CircuitSpec) -> np.ndarray:
    """(2**n, |A|) table S of the eigenvalue of each action's observable on
    each basis state: +1 where its measured qubit is 0, -1 where it is 1. The
    single_u3 pair reads (Z, -Z) on its one qubit. Read-only, built once per
    spec."""
    n = spec.n_qubits
    qubits = np.array(_measured_qubits(spec))
    signs = 1.0 - 2.0 * (np.arange(2**n)[:, None] >> (n - 1 - qubits) & 1)
    if spec.architecture == "single_u3":
        signs = np.concatenate([signs, -signs], axis=1)
    signs.flags.writeable = False
    return signs


def _readout(spec: CircuitSpec, rows: np.ndarray, shots: int,
             rng: np.random.Generator | None) -> np.ndarray:
    """Preferences of ansatz-output rows, shape (T, |A|).

    Exact: |rows|**2 contracted with the sign table, by einsum, which gives
    a row the same bits wherever it sits in the batch (a dgemm does not).
    Shot mode: one finite-shot <Z> per measured qubit, the single_u3 pair
    being one measurement with its sign flipped.
    """
    if not shots:
        return np.einsum("tj,ja->ta", np.abs(rows) ** 2, _sign_table(spec))
    z = qsim.measure_z_array(rows, _measured_qubits(spec), spec.n_qubits, shots, rng)
    if spec.architecture == "single_u3":
        return np.concatenate([z, -z], axis=1)
    return z


def row_preferences(spec: CircuitSpec, theta: np.ndarray, enc: np.ndarray,
                    shots: int = 0, rng: np.random.Generator | None = None) -> np.ndarray:
    """Per-action preferences <a_i> of row-stacked input states, shape (T, |A|).

    shots = 0 gives exact expectations; shots > 0 draws finite-shot
    estimates, one per measured qubit and row.
    """
    rowop = qsim.circuit_row_operator(build_ansatz(spec, theta), spec.n_qubits)
    return _readout(spec, serial_matmul(enc, rowop), shots, rng)


def softmax_policy(prefs: np.ndarray, beta: float) -> np.ndarray:
    """Action probabilities exp(beta * pref) / sum, computed in log-space, in
    place on the one new array beta * prefs."""
    z = beta * np.asarray(prefs, dtype=float)
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def shift_gradients(spec: CircuitSpec, theta: np.ndarray, enc: np.ndarray,
                    shots: int = 0, rng: np.random.Generator | None = None) -> np.ndarray:
    """Parameter-shift gradients d<a>/d(theta) of every action preference for
    row-stacked input states, shape (T, k, |A|).

    Each of the 2k shifted circuits is built once for the whole batch; in
    shot mode the plus and minus evaluations of each angle draw in turn.
    """
    grads = np.empty((enc.shape[0], spec.n_params, spec.n_actions))
    for j in range(spec.n_params):
        shifted = np.array(theta, dtype=float)
        shifted[j] += np.pi / 2
        plus = row_preferences(spec, shifted, enc, shots, rng)
        shifted[j] -= np.pi
        minus = row_preferences(spec, shifted, enc, shots, rng)
        grads[:, j, :] = 0.5 * (plus - minus)
    return grads


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


def _observable_diagonals(spec: CircuitSpec, weights: np.ndarray) -> np.ndarray:
    """Diagonals of O_t = sum_a weights[t, a] O_a in the computational basis,
    shape (T, 2**n), where O_a is action a's observable (Z_a; single_u3's
    pair is Z and -Z): weights @ S.T with the readout's sign table S."""
    return serial_matmul(weights, _sign_table(spec).T)


def adjoint_gradients(spec: CircuitSpec, theta: np.ndarray, psi: np.ndarray,
                      lam: np.ndarray) -> np.ndarray:
    """Im<lam_r|P psi_r> at every rotation for R row pairs, shape (R, k).

    `psi` and `lam` are (R, 2**n) states at the circuit's output. Each pair is
    walked back through the gates together: at a rotation exp(-i theta P / 2)
    the angle's entry is Im<lam|P psi>, then both states are uncomputed with
    the gate's inverse. With lam = O psi the entry is d<psi|O|psi>/d(theta).
    No per-gate state is kept; the pair is one (2, R, 2**n) array, and the
    gradient pass bounds R by sending ADJOINT_CHUNK_ROWS rows at a time.
    """
    n = spec.n_qubits
    grads = np.empty((psi.shape[0], spec.n_params))
    pair = np.stack([psi, lam])
    for gate, j in _rotation_steps(build_ansatz(spec, theta))[::-1]:
        if j is None:  # a CNOT is its own inverse
            pair = qsim.apply_cnot_array(pair, gate.control, gate.target, n)
            continue
        grads[:, j] = _generator_overlap(pair[0], pair[1], gate)
        pair = qsim.apply_1q_array(pair, gate.matrix().conj().T, gate.target, n)
    return grads


class QuantumPolicy:
    """Trainable policy bundling circuit spec, parameters, and normalizer.

    `set_vector` is the one place its state is set: `theta` and `beta` are
    read from a private, read-only copy of the trainable vector (the angles,
    then beta). The ansatz is a fixed unitary per vector, so inference reuses
    its 2**n x 2**n row operator, built at first use after each `set_vector`.
    Exact mode (shots = 0) is the training default; shot mode reads the same
    batched rows out with `shots` measurements.
    """

    def __init__(self, spec: CircuitSpec, vector: np.ndarray,
                 normalizer: FeatureNormalizer | None = None, shots: int = 0):
        if spec.encoding == "angle_rx" and normalizer is None:
            normalizer = FeatureNormalizer(spec.n_qubits)
        self.spec = spec
        self.normalizer = normalizer
        self.shots = shots
        self.set_vector(vector)

    # -- trainable vector ---------------------------------------------------
    @property
    def n_trainable(self) -> int:
        return self.spec.n_params + 1

    def get_vector(self) -> np.ndarray:
        return np.append(self.theta, self.beta)

    def set_vector(self, vec: np.ndarray) -> None:
        vec = checked_vector(vec, self.n_trainable)
        self.theta, self.beta = vec[:-1], float(vec[-1])
        self._rowop: np.ndarray | None = None  # `row_operator` builds it at first use

    @property
    def n_actions(self) -> int:
        return self.spec.n_actions

    # -- evaluation ---------------------------------------------------------
    def row_operator(self) -> np.ndarray:
        """The ansatz's row operator for the current theta, built at its first
        use after `set_vector` and kept until the next."""
        if self._rowop is None:
            self._rowop = qsim.circuit_row_operator(build_ansatz(self.spec, self.theta),
                                                    self.spec.n_qubits)
        return self._rowop

    def _encode_batch(self, observations, abs_max=None) -> np.ndarray:
        """Row-stacked input states, shape (T, 2**n), from one feature row or a
        (T, n_features) array. Angle encoding divides by per-row maxima
        `abs_max`, by default the normalizer's `widened` to cover the rows."""
        feats = np.atleast_2d(np.asarray(observations, dtype=float))
        if self.spec.encoding == "none":
            if feats.shape[-1] != 2 ** (self.spec.n_qubits + 1):
                raise ContractError("input state qubit count does not match the circuit")
            return qsim.feature_amplitudes(feats)
        if abs_max is None:
            abs_max = self.normalizer.widened(feats)
        return encoded_rows(feats * (np.pi / abs_max))

    def probabilities(self, obs, rng=None, abs_max=None) -> np.ndarray:
        """(|A|,) for one feature row or (m, |A|) for m rows, from one
        `serial_matmul`; `abs_max` as in `_encode_batch`. `rng` is one
        generator or a sequence of m: shot mode reads row i out on the i-th,
        exact mode draws from none, so a rollout passes them in either mode."""
        single = np.ndim(obs) == 1
        out = serial_matmul(self._encode_batch(obs, abs_max), self.row_operator())
        if self.shots:
            rngs = [rng] if single else rng
            prefs = np.concatenate([_readout(self.spec, row[None], self.shots, r)
                                    for row, r in zip(out, rngs, strict=True)])
        else:
            prefs = _readout(self.spec, out, 0, None)
        probs = softmax_policy(prefs, self.beta)
        return probs[0] if single else probs

    def _score_chunks(self, observations, actions, rng):
        """One pass over T (observation, action) pairs, ADJOINT_CHUNK_ROWS rows
        at a time from row 0; shot mode takes all T as one chunk, so its
        readout draws in batch order. Yields each chunk's row slice, input
        rows, output rows, readout weights w = beta * (onehot(a_t) - pi_t) and
        beta entries <a_t> - sum_b pi_b <b>. The angle encoding scales every
        chunk by the normalizer's maxima widened to cover all T observations,
        which after a rollout are the normalizer's own."""
        feats = np.atleast_2d(np.asarray(observations, dtype=float))
        actions = np.asarray(actions, dtype=int)
        if actions.shape != (len(feats),):
            raise ContractError(f"{len(feats)} observations need as many actions, "
                                f"got shape {actions.shape}")
        if np.any(actions < 0) or np.any(actions >= self.spec.n_actions):
            raise ContractError("action index out of range")
        abs_max = self.normalizer.widened(feats) if self.spec.encoding == "angle_rx" else None
        size = max(len(feats), 1) if self.shots else ADJOINT_CHUNK_ROWS
        for lo in range(0, len(feats), size):
            rows = slice(lo, lo + size)
            enc = self._encode_batch(feats[rows], abs_max)
            out = serial_matmul(enc, self.row_operator())
            prefs = _readout(self.spec, out, self.shots, rng)
            probs = softmax_policy(prefs, self.beta)
            taken = np.arange(len(out)), actions[rows]
            weights = -self.beta * probs
            weights[taken] += self.beta
            yield rows, enc, out, weights, prefs[taken] - np.einsum("ta,ta->t", prefs, probs)

    def grad_log_batch(self, observations, actions, rng: np.random.Generator | None = None) -> np.ndarray:
        """Log-policy gradients for T (observation, action) pairs: (T, k+1).

        theta block: sum_a w_a d<a>/d(theta) with w = beta * (onehot(a_t) - pi),
        from the adjoint sweep of each chunk in exact mode and parameter shift
        in shot mode; beta entry (analytic): <a> - sum_b pi_b <b>.
        """
        grads = np.empty((len(actions), self.n_trainable))
        for rows, enc, out, weights, gbeta in self._score_chunks(observations, actions, rng):
            if self.shots:
                shifts = shift_gradients(self.spec, self.theta, enc, self.shots, rng)
                grads[rows, :-1] = np.einsum("tka,ta->tk", shifts, weights)
            else:
                grads[rows, :-1] = adjoint_gradients(
                    self.spec, self.theta, out, out * _observable_diagonals(self.spec, weights))
            grads[rows, -1] = gbeta
        return grads

    def weighted_grad_log(self, observations, actions, weights,
                          rng: np.random.Generator | None = None) -> np.ndarray:
        """sum_t weights[t] * grad log pi(a_t | s_t), shape (k+1,); shot mode
        draws as `grad_log_batch` does.

        Exact mode sweeps 2**n row pairs whatever T: each chunk's rows fold
        into M = sum_t |psi_t><O_t psi_t|, whose row j is M e_j, and Im Tr(P M)
        is the sum over j of Im<e_j|P M e_j>; walking both back keeps
        G^dag M G = sum_j |G^dag M e_j><G^dag e_j| exact.
        """
        if self.shots:
            return weights @ self.grad_log_batch(observations, actions, rng)
        dim = 2**self.spec.n_qubits
        m = np.zeros((dim, dim), dtype=complex)
        gbeta = np.empty(len(actions))  # so `weights @ gbeta` checks the length of weights
        for rows, _, out, readout, chunk_gbeta in self._score_chunks(observations, actions, rng):
            gbeta[rows] = chunk_gbeta
            lam = out * _observable_diagonals(self.spec, readout * weights[rows, None])
            m += serial_matmul(lam.conj().T, out)
        gtheta = adjoint_gradients(self.spec, self.theta, m, np.eye(dim)).sum(axis=0)
        return np.append(gtheta, weights @ gbeta)

    # -- persistence ----------------------------------------------------------
    def to_checkpoint(self) -> dict:
        return {
            "theta": self.theta.tolist(),
            "beta": self.beta,
            "norm_abs_max": (self.normalizer.running_abs_max.tolist()
                             if self.normalizer is not None else []),
            "spec": self.spec.to_dict(),
        }

    @classmethod
    def from_checkpoint(cls, data: dict) -> "QuantumPolicy":
        spec = CircuitSpec.from_dict(data["spec"])
        normalizer = None
        if spec.encoding == "angle_rx":
            stored = data.get("norm_abs_max") or None
            normalizer = FeatureNormalizer(spec.n_qubits, stored)
        return cls(spec, [*data["theta"], data["beta"]], normalizer)
