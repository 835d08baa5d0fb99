"""Dense statevector simulator for small qubit registers (n <= 8).

Conventions, fixed once for the whole package:

- Basis index i encodes qubit 0 as the MOST significant bit of i, so for
  two qubits the amplitude order is |00>, |01>, |10>, |11>.
- Rotation gates use the halved-angle convention
  R_P(theta) = exp(-i * theta * sigma_P / 2).
- U3(theta, phi, lam) is the Z-Y-Z Euler gate RZ(phi) @ RY(theta) @ RZ(lam)
  (matrix product, rightmost factor acts first).

Array helpers (suffix ``_array``) operate on raw complex arrays whose last
axis has length 2**n; leading axes are treated as a batch. The simulator is
batched only: the policy engine pushes row-stacked states through one circuit
row operator, reads them out, and walks them back gate by gate for its
adjoint gradient. The row-operator build and that sweep share one
single-qubit kernel, `apply_1q_array`. The exact readout is the policy's
own: the rows' probabilities contracted with a table of +-1 signs
(`vqpolicy._readout`). `measure_z_array` draws the finite-shot readout from
the measured qubits' marginals.

A state travels outside the simulator as a float feature row: its amplitudes
as interleaved (re, im) pairs. `amplitude_features` and `feature_amplitudes`
own that format and convert both ways bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError

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


def circuit_row_operator(gates, n_qubits: int) -> np.ndarray:
    """Matrix M such that rows_out = rows_in @ M for batched row states.

    M equals U.T where U is the circuit unitary; built by pushing the
    identity's rows through the circuit one gate at a time.
    """
    rows = np.eye(2**n_qubits, dtype=complex)
    for gate in gates:
        if gate.kind == "CNOT":
            rows = apply_cnot_array(rows, gate.control, gate.target, n_qubits)
        else:
            rows = apply_1q_array(rows, gate.matrix(), gate.target, n_qubits)
    return rows


def measure_z_array(rows: np.ndarray, qubits, n_qubits: int, shots: int,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """Finite-shot <sigma_z> of each listed qubit for row-stacked states,
    shape (T, len(qubits)).

    Draws one Binomial(shots, P(0)) count of zeros per row and qubit, in
    row-major order, with P(0) the qubit's marginal, and returns the
    estimate 2 * zeros / shots - 1.
    """
    if shots < 1:
        raise ContractError(f"measure_z_array draws shots >= 1, got {shots}")
    if rng is None:
        raise ContractError("shot mode needs an rng")
    probs = (np.abs(rows) ** 2).reshape(rows.shape[0], *([2] * n_qubits))
    p0 = []
    for q in qubits:
        other = tuple(i for i in range(1, n_qubits + 1) if i != 1 + q)
        p0.append((probs.sum(axis=other) if other else probs)[:, 0])
    return 2.0 * rng.binomial(shots, np.clip(np.stack(p0, axis=1), 0.0, 1.0)) / shots - 1.0


def amplitude_features(amps: np.ndarray) -> np.ndarray:
    """Amplitudes as a float row of interleaved (re, im) pairs, twice as long."""
    return np.array(amps, dtype=complex).view(float)


def feature_amplitudes(features: np.ndarray) -> np.ndarray:
    """Complex amplitudes from rows of interleaved (re, im) pairs; the inverse
    of `amplitude_features`."""
    # a fresh C-ordered copy, so the complex view is aligned; an odd width raises ValueError
    return np.array(features, dtype=float, order="C").view(complex)
