"""Dense statevector simulator for small qubit registers (n <= 8).

Conventions, fixed once for the whole package:

- Basis index i encodes qubit 0 as the MOST significant bit of i, so for
  two qubits the amplitude order is |00>, |01>, |10>, |11>.
- Rotation gates use the halved-angle convention
  R_P(theta) = exp(-i * theta * sigma_P / 2).
- A circuit is a gate program: a tuple of steps (kind, target, arg), applied
  in order. A rotation step ("RY" or "RZ") reads angle theta[arg]; a "CNOT"
  step's arg is its control qubit. Every angle of the policy's circuits sits
  in exactly one rotation, so RY, RZ and CNOT are the only kinds: the
  single-U3 policy is the chain RZ RY RZ (`vqpolicy.gate_program`), and a U3
  matrix exists only in the tests' kron oracle.

Array helpers (suffix ``_array``) operate on raw complex arrays whose last
axis has length 2**n; leading axes are treated as a batch. The simulator is
batched only: the policy engine pushes row-stacked states through one circuit
row operator, reads them out, and walks them back step by step for its
adjoint gradient. The row-operator build and that sweep share one
single-qubit kernel, `apply_1q_array`, and the rotation matrices in
`ROTATIONS`. The kernels take the rows they are given; the policy bounds
them (`vqpolicy.BLOCK_NUMBERS`, 2**15 numbers), so the sweep hands them
blocks of 64 row pairs at 8 qubits. The readout is the policy's own
(`vqpolicy._readout`): the rows' probabilities contracted with a table of
+-1 signs give each measured qubit's exact <Z>, and shot mode draws its
counts around those.

A state travels outside the simulator as a float feature row: its amplitudes
as interleaved (re, im) pairs. `amplitude_features` and `feature_amplitudes`
own that format and convert both ways bit for bit.
"""
from __future__ import annotations

import numpy as np

MAX_QUBITS = 8


def ry_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_matrix(theta: float) -> np.ndarray:
    e = np.exp(-1j * theta / 2)
    return np.array([[e, 0], [0, np.conj(e)]], dtype=complex)


ROTATIONS = {"RY": ry_matrix, "RZ": rz_matrix}


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


def circuit_row_operator(program, theta: np.ndarray, n_qubits: int) -> np.ndarray:
    """Matrix M such that rows_out = rows_in @ M for batched row states.

    M equals U.T where U is the unitary of the gate program at angles
    `theta`; built by pushing the identity's rows through the program one
    step at a time.
    """
    rows = np.eye(2**n_qubits, dtype=complex)
    for kind, target, arg in program:
        if kind == "CNOT":
            rows = apply_cnot_array(rows, arg, target, n_qubits)
        else:
            rows = apply_1q_array(rows, ROTATIONS[kind](theta[arg]), target, n_qubits)
    return rows


def amplitude_features(amps: np.ndarray) -> np.ndarray:
    """Amplitudes as a float row of interleaved (re, im) pairs, twice as long."""
    return np.array(amps, dtype=complex).view(float)


def feature_amplitudes(features: np.ndarray) -> np.ndarray:
    """Complex amplitudes from rows of interleaved (re, im) pairs; the inverse
    of `amplitude_features`."""
    # a fresh C-ordered copy, so the complex view is aligned; an odd width raises ValueError
    return np.array(features, dtype=float, order="C").view(complex)
