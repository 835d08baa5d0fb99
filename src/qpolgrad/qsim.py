"""Dense statevector simulator for small qubit registers (n <= 8).

Conventions, fixed once for the whole package:

- Basis index i encodes qubit 0 as the MOST significant bit of i, so for
  two qubits the amplitude order is |00>, |01>, |10>, |11>.
- Rotation gates use the halved-angle convention
  R_P(theta) = exp(-i * theta * sigma_P / 2).
- U3(theta, phi, lam) is the Z-Y-Z Euler gate RZ(phi) @ RY(theta) @ RZ(lam)
  (matrix product, rightmost factor acts first).

Array helpers (suffix ``_array``) operate on raw complex arrays whose last
axis has length 2**n; leading axes are treated as a batch. The policy engine
runs on them alone: it pushes row-stacked states through one circuit row
operator, reads them out with `measure_z_array`, and walks them back gate by
gate for its adjoint gradient. The row-operator build and that sweep share
one single-qubit kernel, `apply_1q_array`. The gate-by-gate `Statevector` API
is the tests' independent reference for the batched path and builds the
shot-bound probe state; `hamiltonian_propagator` gives the control
environment its fixed one-step propagators.

A state travels outside the simulator as a float feature row: its amplitudes
as interleaved (re, im) pairs. `amplitude_features` and `feature_amplitudes`
own that format and convert both ways bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError

MAX_QUBITS = 8

GATE_KINDS = ("RX", "RY", "RZ", "U3", "CNOT")
_N_ANGLES = {"RX": 1, "RY": 1, "RZ": 1, "U3": 3, "CNOT": 0}


def rx_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_matrix(theta: float) -> np.ndarray:
    e = np.exp(-1j * theta / 2)
    return np.array([[e, 0], [0, np.conj(e)]], dtype=complex)


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    return rz_matrix(phi) @ ry_matrix(theta) @ rz_matrix(lam)


@dataclass(frozen=True)
class Gate:
    """One circuit element: a Pauli rotation, a U3, or a CNOT."""

    kind: str
    angles: tuple[float, ...] = ()
    target: int = 0
    control: int | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ContractError(f"unknown gate kind {self.kind!r}")
        if len(self.angles) != _N_ANGLES[self.kind]:
            raise ContractError(
                f"{self.kind} takes {_N_ANGLES[self.kind]} angle(s), got {len(self.angles)}"
            )
        if not all(np.isfinite(a) for a in self.angles):
            raise ContractError(f"{self.kind} angles must be finite")
        if self.kind == "CNOT":
            if self.control is None or self.control == self.target:
                raise ContractError("CNOT needs a control distinct from its target")
        elif self.control is not None:
            raise ContractError(f"{self.kind} does not take a control qubit")

    def matrix(self) -> np.ndarray:
        """2x2 unitary of a single-qubit gate (CNOT has no 2x2 matrix)."""
        if self.kind == "RX":
            return rx_matrix(*self.angles)
        if self.kind == "RY":
            return ry_matrix(*self.angles)
        if self.kind == "RZ":
            return rz_matrix(*self.angles)
        if self.kind == "U3":
            return u3_matrix(*self.angles)
        raise ContractError("CNOT is not a single-qubit gate")


@dataclass
class Statevector:
    """Pure n-qubit state as a complex amplitude vector of length 2**n."""

    n_qubits: int
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))


@dataclass(frozen=True)
class TwoLevelHamiltonian:
    """H = coeff_z * sigma_z + coeff_x * sigma_x on a single qubit."""

    coeff_z: float
    coeff_x: float

    def __post_init__(self):
        if not (np.isfinite(self.coeff_z) and np.isfinite(self.coeff_x)):
            raise ContractError("Hamiltonian coefficients must be finite")


def init_zero(n_qubits: int) -> Statevector:
    """The all-zeros computational basis state |0...0>."""
    if not isinstance(n_qubits, (int, np.integer)) or not 1 <= n_qubits <= MAX_QUBITS:
        raise ConfigError(f"n_qubits must be an integer in [1, {MAX_QUBITS}], got {n_qubits!r}")
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = 1.0
    return Statevector(int(n_qubits), amps)


def _check_qubit(qubit: int, n_qubits: int) -> None:
    if not 0 <= qubit < n_qubits:
        raise ContractError(f"qubit index {qubit} out of range for {n_qubits} qubits")


# ---------------------------------------------------------------------------
# Array-level primitives. `amps` has shape (..., 2**n); leading axes = batch.
# ---------------------------------------------------------------------------

def apply_1q_array(amps: np.ndarray, matrix: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """Apply a 2x2 matrix to `qubit` of every row.

    On the (B, 2**q, 2, 2**(n-q-1)) view of the rows the gate mixes only the
    two halves of the middle axis, so each output half is written directly as
    m[i, 0] * half_0 + m[i, 1] * half_1.
    """
    x = amps.reshape(-1, 2**qubit, 2, 2 ** (n_qubits - qubit - 1))
    out = np.empty(x.shape, dtype=np.result_type(amps, matrix))
    x0, x1 = x[:, :, 0], x[:, :, 1]
    np.add(matrix[0, 0] * x0, matrix[0, 1] * x1, out=out[:, :, 0])
    np.add(matrix[1, 0] * x0, matrix[1, 1] * x1, out=out[:, :, 1])
    return out.reshape(amps.shape)


def apply_cnot_array(amps: np.ndarray, control: int, target: int, n_qubits: int) -> np.ndarray:
    """CNOT as a gather: basis states with the control bit set take the
    amplitude of their target-flipped partner."""
    index = np.arange(2**n_qubits)
    flipped = index ^ (1 << (n_qubits - 1 - target))
    return amps[..., np.where(index >> (n_qubits - 1 - control) & 1, flipped, index)]


def apply_gate_array(amps: np.ndarray, gate: Gate, n_qubits: int) -> np.ndarray:
    if gate.kind == "CNOT":
        return apply_cnot_array(amps, gate.control, gate.target, n_qubits)
    return apply_1q_array(amps, gate.matrix(), gate.target, n_qubits)


def apply_circuit_array(amps: np.ndarray, gates, n_qubits: int) -> np.ndarray:
    for gate in gates:
        amps = apply_gate_array(amps, gate, n_qubits)
    return amps


def circuit_row_operator(gates, n_qubits: int) -> np.ndarray:
    """Matrix M such that rows_out = rows_in @ M for batched row states.

    M equals U.T where U is the circuit unitary; built by pushing the
    identity's rows through the circuit, so it agrees with gate-by-gate
    application by construction.
    """
    dim = 2**n_qubits
    return apply_circuit_array(np.eye(dim, dtype=complex), gates, n_qubits)


def measure_z_array(rows: np.ndarray, qubits, n_qubits: int, shots: int = 0,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """<sigma_z> of each listed qubit for row-stacked states, shape (T, len(qubits)).

    shots = 0 gives the exact value P(0) - P(1). shots > 0 draws one
    Binomial(shots, P(0)) count of zeros per row and qubit, in row-major
    order, and returns the estimate 2 * zeros / shots - 1.
    """
    if shots < 0:
        raise ContractError(f"shots must be >= 0 (0 = exact), got {shots}")
    if shots and rng is None:
        raise ContractError("shot mode needs an rng")
    probs = (np.abs(rows) ** 2).reshape(rows.shape[0], *([2] * n_qubits))
    margs = []
    for q in qubits:
        other = tuple(i for i in range(1, n_qubits + 1) if i != 1 + q)
        margs.append(probs.sum(axis=other) if other else probs)
    if not shots:
        return np.stack([m[:, 0] - m[:, 1] for m in margs], axis=1)
    p0 = np.stack([m[:, 0] for m in margs], axis=1)
    return 2.0 * rng.binomial(shots, np.clip(p0, 0.0, 1.0)) / shots - 1.0


def amplitude_features(amps: np.ndarray) -> np.ndarray:
    """Amplitudes as a float row of interleaved (re, im) pairs, twice as long."""
    return np.array(amps, dtype=complex).view(float)


def feature_amplitudes(features: np.ndarray) -> np.ndarray:
    """Complex amplitudes from rows of interleaved (re, im) pairs; the inverse
    of `amplitude_features`."""
    # a fresh C-ordered copy, so the complex view is aligned; an odd width raises ValueError
    return np.array(features, dtype=float, order="C").view(complex)


# ---------------------------------------------------------------------------
# Statevector API
# ---------------------------------------------------------------------------

def apply_gate(state: Statevector, gate: Gate) -> Statevector:
    """Apply one gate, returning a new state (input untouched)."""
    _check_qubit(gate.target, state.n_qubits)
    if gate.control is not None:
        _check_qubit(gate.control, state.n_qubits)
    return Statevector(state.n_qubits, apply_gate_array(state.amplitudes, gate, state.n_qubits))


def apply_circuit(state: Statevector, gates) -> Statevector:
    for gate in gates:
        state = apply_gate(state, gate)
    return state


def expectation_z(state: Statevector, qubit: int) -> float:
    """Exact <sigma_z> on one qubit: P(bit=0) - P(bit=1)."""
    _check_qubit(qubit, state.n_qubits)
    return float(measure_z_array(state.amplitudes[None], [qubit], state.n_qubits)[0, 0])


def hamiltonian_propagator(h: TwoLevelHamiltonian, dt: float) -> np.ndarray:
    """Closed-form 2x2 exp(-i H dt) for H = a*sigma_z + b*sigma_x.

    exp(-i (a sz + b sx) t) = cos(wt) I - i sin(wt) (a sz + b sx)/w with
    w = sqrt(a^2 + b^2); the w = 0 limit is the identity.
    """
    a, b = h.coeff_z, h.coeff_x
    omega = np.hypot(a, b)
    if omega == 0.0:
        return np.eye(2, dtype=complex)
    c, s = np.cos(omega * dt), np.sin(omega * dt)
    return np.array([[c - 1j * s * a / omega, -1j * s * b / omega],
                     [-1j * s * b / omega, c + 1j * s * a / omega]], dtype=complex)


def evolve_hamiltonian(state: Statevector, h: TwoLevelHamiltonian, dt: float) -> Statevector:
    """One qubit evolved for `dt` under H (see `hamiltonian_propagator`)."""
    if state.n_qubits != 1:
        raise ContractError("evolve_hamiltonian acts on single-qubit states only")
    return Statevector(1, hamiltonian_propagator(h, dt) @ state.amplitudes)


def fidelity(state_a: Statevector, state_b: Statevector) -> float:
    """|<a|b>|^2, the squared overlap of two pure states."""
    if state_a.n_qubits != state_b.n_qubits:
        raise ContractError("fidelity requires states of equal qubit count")
    return float(np.abs(np.vdot(state_a.amplitudes, state_b.amplitudes)) ** 2)
