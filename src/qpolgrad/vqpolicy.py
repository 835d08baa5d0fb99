"""Variational softmax policy over a shallow quantum circuit.

The policy pipeline: classical features are angle-encoded into qubits (or a
quantum state, given as its `qsim.amplitude_features` row, is consumed
directly), a layered hardware-efficient ansatz (or a single U3 gate) is
applied, per-action preferences are read out as Pauli-Z expectations, and a
trainable inverse temperature sharpens the softmax.

There is one engine for exact and shot mode alike: a batch of input states
is stacked as rows and pushed through the ansatz's 2**n x 2**n row operator,
and the rows are read out one way. An angle-encoded row is gathered from one
(cos, sin) pair per qubit through a cached table of basis-state bits. The
readout contracts the rows' probabilities with a cached (2**n, |A|) table of
+-1 signs, the same table that gives the adjoint sweep its co-states, into
each measured qubit's exact <Z>. Shot mode only adds a draw on top: the
qubit reads 0 with probability (1 + <Z>) / 2, so `_draw_shots` draws a
Binomial count of zeros and estimates <Z> as 2 * zeros / shots - 1. A
policy builds the operator at first use after `set_vector`.

The circuit is one cached gate program per spec (`gate_program`): RY, RZ
and CNOT steps, so every trainable angle sits in exactly one Pauli rotation
(the single U3 is written as its Z-Y-Z chain RZ RY RZ). The row operator and
the adjoint sweep walk the same program, forwards and backwards. Gradients
with respect to the angles take one of two routes:

- Exact mode (shots = 0) uses one adjoint sweep (Jones & Gacon 2020),
  `adjoint_gradients`: row pairs (psi, lambda) at the circuit's output are
  walked back through the program together, and a rotation
  exp(-i theta P / 2) contributes Im<lambda|P psi>. The co-state of row psi_t is
  lambda_t = O_t psi_t, where O_t = sum_a w_ta Z_a. A gradient makes one
  pass over its batch, CHUNK_ROWS rows at a time (a lone last row joins
  the chunk before it, as in `row_blocks`): each chunk is encoded,
  pushed through the row operator, read out and turned into co-state
  weights, so no (T, 2**n) array is ever held. Per-sample gradients
  (the Fisher matrix) sweep each chunk's pairs (psi_t, lambda_t). Training
  needs only the advantage-weighted sum over the batch, so it folds each
  chunk into the 2**n x 2**n operator M = sum_t |psi_t><lambda_t| and
  sweeps M's 2**n rows against the identity's once, after the pass.
  The working set is bounded by amplitudes, not rows: a sub-block
  temporary holds at most BLOCK_NUMBERS (2**15) numbers. The encode's
  (rows, n, 2**n) gather and the sweep's (2, rows, 2**n) pairs take
  `row_blocks`, a power of two rows at a time that never leaves a lone
  row, so every bit is the whole chunk's: 64 rows of the encode at 6
  qubits and of the sweep at 8, whole chunks up to 4 and 6 qubits.
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
    if vec.shape != (size,):
        raise ContractError(f"a trainable vector must be {size} finite numbers, "
                            f"got shape {vec.shape}")
    bad = np.flatnonzero(~np.isfinite(vec))
    if bad.size:
        raise ContractError(f"a trainable vector must be {size} finite numbers, got "
                            f"{bad.size} non-finite, the first at index {bad[0]}")
    vec.flags.writeable = False
    return vec


def checked_batch(policy, observations, actions, weights=None):
    """A gradient's batch for `policy`: T >= 1 rows of its `n_features`
    features as a (T, n_features) float array, T whole-number action indices
    in [0, n_actions) as ints and T float weights, or None if none are given.
    Anything else raises ContractError; a fractional action is refused, not
    truncated; so is a lone 1-D row. The one width check of a gradient's batch."""
    feats = np.asarray(observations, dtype=float)
    actions = np.asarray(actions)
    weights = None if weights is None else np.asarray(weights, dtype=float)
    shapes = [np.shape(v) for v in (actions, weights) if v is not None]
    if (feats.size == 0 or feats.shape[1:] != (policy.n_features,)
            or any(shape != (len(feats),) for shape in shapes)):
        raise ContractError(f"a batch needs T >= 1 rows of {policy.n_features} features and "
                            f"T actions and weights, got shapes {[feats.shape, *shapes]}")
    valid = (actions >= 0) & (actions < policy.n_actions)
    if actions.dtype.kind not in "biu":
        valid &= np.floor(actions) == actions
    if not np.all(valid):
        raise ContractError(f"an action index must be a whole number in [0, {policy.n_actions})")
    return feats, actions.astype(int, copy=False), weights


class FeatureNormalizer:
    """Online L-infinity feature scaling onto [-pi, pi].

    Keeps a per-feature running absolute maximum (floored at a small
    constant) that never decreases over a run. A training batch records its
    rows (`reinforce.collect_batch`); everything else only reads it. It
    takes rows of its own width: `run_episodes` and `checked_batch` check
    them before they get here.
    """

    def __init__(self, n_features: int, running_abs_max=None):
        if running_abs_max is None:
            self.running_abs_max = np.full(n_features, NORM_FLOOR)
        else:
            self.running_abs_max = np.maximum(np.asarray(running_abs_max, dtype=float), NORM_FLOOR)
            if self.running_abs_max.shape != (n_features,) or not np.all(
                    np.isfinite(self.running_abs_max)):
                raise ContractError(f"running_abs_max must be {n_features} finite numbers, "
                                    f"got {self.running_abs_max.tolist()}")

    def widened(self, features: np.ndarray) -> np.ndarray:
        """The maxima widened to cover a (T, n) array of rows, not recorded."""
        return np.maximum(self.running_abs_max, np.abs(features).max(axis=0))

    def observe(self, features: np.ndarray) -> None:
        self.running_abs_max = self.widened(features)


def serial_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b for 2-D operands, on the one BLAS thread pinned at import
    (`qpolgrad`), written into `out` if given. A lone row is doubled: gemv
    rounds differently from gemm by about 1e-16, and a policy's row keeps the
    bits it has in any batch."""
    if len(a) > 1:
        return np.matmul(a, b, out=out)
    pair = np.concatenate([a, a]) @ b
    if out is None:
        return pair[:1]
    out[...] = pair[:1]
    return out


# Rows per chunk of a gradient's one pass over its batch, for this circuit
# (encode, product, readout, co-states and sweep) and `classical.MlpPolicy`
# (forward and backward), so its temporaries are (256, width) whatever T.
CHUNK_ROWS = 256
# Numbers a sub-block temporary may hold: the encode's (rows, n, 2**n)
# gather and the adjoint sweep's (2, rows, 2**n) pairs take `row_blocks`.
BLOCK_NUMBERS = 2**15


@functools.lru_cache(maxsize=1024)
def row_blocks(rows: int, row_numbers: int) -> tuple[slice, ...]:
    """Slices of `rows` rows in blocks of a power of two rows, at least 2 and
    at most BLOCK_NUMBERS // row_numbers if that is 2 or more, in order from
    row 0. A lone last row joins the block before it: the adjoint sweep
    rounds a row alone apart from the same row among others in the last
    bits, while any split into blocks of 2 or more rows keeps every bit.
    Cached, since every rollout step's encode asks."""
    size = 1 << max(1, (BLOCK_NUMBERS // row_numbers).bit_length() - 1)
    stops = [*range(size, rows - 1, size), rows]
    return tuple(map(slice, [0, *stops], stops))


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
    are gathered in `row_blocks`, so the (rows, n, 2**n) gather holds at most
    BLOCK_NUMBERS numbers (one row more where a lone last row joins).
    """
    half = angles / 2
    t, n = half.shape
    index, phase = _basis_tables(n)
    rows = np.empty((t, 2**n), dtype=complex)
    for block in row_blocks(t, n * 2**n):
        chunk = half[block]
        pairs = np.empty(chunk.shape + (2,))
        np.cos(chunk, out=pairs[:, :, 0])
        np.sin(chunk, out=pairs[:, :, 1])
        factors = pairs.reshape(len(chunk), 2 * n).take(index, axis=1)  # (rows, n, 2**n)
        np.multiply(np.multiply.reduce(factors, axis=1), phase, out=rows[block])
    return rows


@functools.cache
def gate_program(spec: CircuitSpec) -> tuple[tuple[str, int, int], ...]:
    """The circuit as `qsim` steps (kind, target, angle index or CNOT
    control), in application order; built once per spec.

    Layered: per layer, RY then RZ on each qubit (angles consumed in
    layer-major, qubit-major order), then the entangling cascade
    CNOT(control=i, target=(i+l) mod n) for i = 0..n-1 in layer l (1-based),
    skipping self-loops. single_u3: U3(theta[0], theta[1], theta[2]) on
    qubit 0 as RZ(theta[2]), then RY(theta[0]), then RZ(theta[1]).
    """
    if spec.architecture == "single_u3":
        return (("RZ", 0, 2), ("RY", 0, 0), ("RZ", 0, 1))
    n, steps = spec.n_qubits, []
    for layer in range(1, spec.n_layers + 1):
        first = 2 * n * (layer - 1)
        for q in range(n):
            steps += [("RY", q, first + 2 * q), ("RZ", q, first + 2 * q + 1)]
        steps += [("CNOT", (q + layer) % n, q) for q in range(n) if (q + layer) % n != q]
    return tuple(steps)


def _check_angles(spec: CircuitSpec, theta: np.ndarray) -> None:
    if len(theta) != spec.n_params:
        raise ContractError(
            f"{spec.architecture} spec needs {spec.n_params} parameters, got {len(theta)}"
        )


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


def _draw_shots(spec: CircuitSpec, prefs: np.ndarray, shots: int,
                rng: np.random.Generator | None) -> np.ndarray:
    """Finite-shot estimates around exact preferences `prefs`, shape (T, |A|).

    A measured qubit with exact <Z> = z reads 0 with probability (1 + z) / 2;
    one Binomial count of zeros is drawn per row and measured qubit, in
    row-major order, and the estimate is 2 * zeros / shots - 1. The single_u3
    pair is one measurement with its sign flipped.
    """
    if shots < 1:
        raise ContractError(f"a shot readout draws shots >= 1, got {shots}")
    if rng is None:
        raise ContractError("shot mode needs an rng")
    z = prefs[:, :len(_measured_qubits(spec))]
    z = 2.0 * rng.binomial(shots, np.clip((1.0 + z) / 2, 0.0, 1.0)) / shots - 1.0
    return np.concatenate([z, -z], axis=1) if spec.architecture == "single_u3" else z


def _readout(spec: CircuitSpec, rows: np.ndarray, shots: int = 0,
             rng: np.random.Generator | None = None) -> np.ndarray:
    """Preferences of ansatz-output rows, shape (T, |A|).

    Always the exact preferences first: |rows|**2, squared in place,
    contracted with the sign table, by einsum, which gives a row the same
    bits wherever it sits in the batch (a dgemm does not). Shot mode
    (shots != 0) then draws around them with `_draw_shots` on `rng`.
    """
    probs = np.abs(rows)
    prefs = np.einsum("tj,ja->ta", np.square(probs, out=probs), _sign_table(spec))
    return _draw_shots(spec, prefs, shots, rng) if shots else prefs


def row_preferences(spec: CircuitSpec, theta: np.ndarray, enc: np.ndarray,
                    shots: int = 0, rng: np.random.Generator | None = None) -> np.ndarray:
    """Per-action preferences <a_i> of row-stacked input states, shape (T, |A|).

    shots = 0 gives exact expectations; shots > 0 draws finite-shot
    estimates, one per measured qubit and row.
    """
    _check_angles(spec, theta)
    rowop = qsim.circuit_row_operator(gate_program(spec), theta, spec.n_qubits)
    return _readout(spec, serial_matmul(enc, rowop), shots, rng)


def softmax_policy(prefs: np.ndarray, beta: float) -> np.ndarray:
    """Action probabilities exp(beta * pref) / sum of (T, |A|) float
    preferences, computed in log-space, in place on the one new array
    beta * prefs."""
    z = beta * prefs
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
    _check_angles(spec, theta)
    grads = np.empty((enc.shape[0], spec.n_params, spec.n_actions))
    for j in range(spec.n_params):
        shifted = np.array(theta, dtype=float)
        shifted[j] += np.pi / 2
        plus = row_preferences(spec, shifted, enc, shots, rng)
        shifted[j] -= np.pi
        minus = row_preferences(spec, shifted, enc, shots, rng)
        grads[:, j, :] = 0.5 * (plus - minus)
    return grads


def _generator_overlap(psi: np.ndarray, lam: np.ndarray, kind: str, target: int) -> np.ndarray:
    """Im<lam|P psi> per row for the Pauli P (Z or Y) of an RZ or RY on `target`."""
    shape = (psi.shape[0], 2**target, 2, -1)
    x, c = psi.reshape(shape), lam.reshape(shape)
    if kind == "RZ":
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
    walked back through `gate_program` together: at a rotation
    exp(-i theta P / 2) the angle's entry is Im<lam|P psi>, then both states
    are uncomputed with the step's inverse. With lam = O psi the entry is
    d<psi|O|psi>/d(theta).
    No per-gate state is kept: the pairs are walked in `row_blocks`, each one
    (2, rows, 2**n) array of at most BLOCK_NUMBERS numbers, into the one
    (R, k) result, which has the bits of the whole (2, R, 2**n) walk.
    """
    _check_angles(spec, theta)
    n = spec.n_qubits
    grads = np.empty((psi.shape[0], spec.n_params))
    for block in row_blocks(len(psi), 2 * 2**n):
        pair = np.stack([psi[block], lam[block]])
        for kind, target, arg in reversed(gate_program(spec)):
            if kind == "CNOT":  # its own inverse; arg is the control
                pair = qsim.apply_cnot_array(pair, arg, target, n)
                continue
            grads[block, arg] = _generator_overlap(pair[0], pair[1], kind, target)
            pair = qsim.apply_1q_array(pair, qsim.ROTATIONS[kind](theta[arg]).conj().T,
                                       target, n)
    return grads


class QuantumPolicy:
    """The circuit policy, under the policy contract of `reinforce`'s docstring.

    `theta` and `beta` are read from a private, read-only copy of the
    trainable vector (the angles, then beta). The ansatz is a fixed unitary
    per vector, so inference reuses its 2**n x 2**n row operator, built at
    first use after each `set_vector`.
    Every mode reads the rows' exact preferences out of the sign table; exact
    mode (shots = 0) is the training default and stops there, and shot mode
    draws `shots` measurements around them.
    """

    def __init__(self, spec: CircuitSpec, vector: np.ndarray,
                 normalizer: FeatureNormalizer | None = None, shots: int = 0):
        if spec.encoding == "angle_rx" and normalizer is None:
            normalizer = FeatureNormalizer(spec.n_qubits)
        self.spec = spec
        self.normalizer = normalizer
        self.shots = shots
        self.set_vector(vector)

    @property
    def n_features(self) -> int:  # an angle per qubit, or 2**n amplitudes as 2**(n+1) floats
        return 2 ** (self.spec.n_qubits + 1) if self.spec.encoding == "none" else self.spec.n_qubits

    @property
    def n_actions(self) -> int:
        return self.spec.n_actions

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

    # -- evaluation ---------------------------------------------------------
    def row_operator(self) -> np.ndarray:
        """The ansatz's row operator for the current theta, built at its first
        use after `set_vector` and kept until the next."""
        if self._rowop is None:
            self._rowop = qsim.circuit_row_operator(gate_program(self.spec), self.theta,
                                                    self.spec.n_qubits)
        return self._rowop

    def _encode_batch(self, feats: np.ndarray, abs_max: np.ndarray | None) -> np.ndarray:
        """Row-stacked input states, shape (T, 2**n), from a (T, n_features)
        float array. Angle encoding divides by the maxima `abs_max`, (T, n)
        per row or (n,) for all rows; amplitude input reads none (None)."""
        if self.spec.encoding == "none":
            return qsim.feature_amplitudes(feats)
        return encoded_rows(feats * (np.pi / abs_max))

    def probabilities(self, obs, rngs, abs_max) -> np.ndarray:
        """(m, |A|) for m feature rows, from one `serial_matmul` and one
        readout; `abs_max` as in `_encode_batch`. `rngs` holds m generators:
        shot mode draws row i's counts on the i-th, exact mode draws from
        none, so a rollout passes them in either mode."""
        prefs = _readout(self.spec, serial_matmul(self._encode_batch(obs, abs_max),
                                                  self.row_operator()))
        if self.shots:
            if rngs is None or len(rngs) != len(prefs):  # zip would drop rows silently
                raise ContractError(f"a shot readout of {len(prefs)} rows needs a sequence "
                                    f"of {len(prefs)} generators, one per row")
            prefs = np.concatenate([_draw_shots(self.spec, row[None], self.shots, r)
                                    for row, r in zip(prefs, rngs)])
        return softmax_policy(prefs, self.beta)

    def _score_chunks(self, feats, actions, rng):
        """One pass over a `checked_batch`'s T rows and actions, CHUNK_ROWS
        rows at a time from row 0 by `row_blocks`' rule, so a lone last row
        joins the chunk before it; shot mode takes all T as one chunk, so its
        readout draws in batch order. Yields each chunk's row slice, input
        rows (None in exact mode, whose sweep starts from the output rows, so
        they are dropped once those exist), output rows, readout weights
        w = beta * (onehot(a_t) - pi_t) and beta entries
        <a_t> - sum_b pi_b <b>. The angle encoding scales every
        chunk by the normalizer's maxima widened to cover all T observations,
        which after a training batch are the normalizer's own."""
        abs_max = self.normalizer.widened(feats) if self.spec.encoding == "angle_rx" else None
        chunks = ([slice(None)] if self.shots  # else blocks of CHUNK_ROWS rows
                  else row_blocks(len(feats), BLOCK_NUMBERS // CHUNK_ROWS))
        for rows in chunks:
            enc = self._encode_batch(feats[rows], abs_max)
            out = serial_matmul(enc, self.row_operator())
            if not self.shots:
                enc = None
            prefs = _readout(self.spec, out, self.shots, rng)
            probs = softmax_policy(prefs, self.beta)
            taken = np.arange(len(out)), actions[rows]
            weights = -self.beta * probs
            weights[taken] += self.beta
            yield rows, enc, out, weights, prefs[taken] - np.einsum("ta,ta->t", prefs, probs)
            del enc, out, prefs, probs, weights  # before the next chunk is formed

    def grad_log_batch(self, observations, actions, rng: np.random.Generator | None = None) -> np.ndarray:
        """Log-policy gradients for T (observation, action) pairs: (T, k+1).

        theta block: sum_a w_a d<a>/d(theta) with w = beta * (onehot(a_t) - pi),
        from the adjoint sweep of each chunk in exact mode and parameter shift
        in shot mode; beta entry (analytic): <a> - sum_b pi_b <b>.
        """
        feats, actions, _ = checked_batch(self, observations, actions)
        grads = np.empty((len(actions), self.n_trainable))
        for rows, enc, out, weights, gbeta in self._score_chunks(feats, actions, rng):
            if self.shots:
                shifts = shift_gradients(self.spec, self.theta, enc, self.shots, rng)
                grads[rows, :-1] = np.einsum("tka,ta->tk", shifts, weights)
            else:
                grads[rows, :-1] = adjoint_gradients(
                    self.spec, self.theta, out, out * _observable_diagonals(self.spec, weights))
            grads[rows, -1] = gbeta
            del enc, out, weights, gbeta  # before the next chunk is formed
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
        feats, actions, weights = checked_batch(self, observations, actions, weights)
        if self.shots:
            return weights @ self.grad_log_batch(feats, actions, rng)
        dim = 2**self.spec.n_qubits
        m = np.zeros((dim, dim), dtype=complex)
        gbeta = np.empty(len(actions))
        for rows, enc, out, readout, chunk_gbeta in self._score_chunks(feats, actions, rng):
            gbeta[rows] = chunk_gbeta
            lam = out * _observable_diagonals(self.spec, readout * weights[rows, None])
            m += serial_matmul(np.conjugate(lam, out=lam).T, out)
            del enc, out, readout, chunk_gbeta, lam  # before the next chunk is formed
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
