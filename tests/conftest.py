"""Shared test helpers: independent oracles and random circuit draws.

The matrix oracles build full 2**n x 2**n unitaries with np.kron and explicit
basis-state permutation, deliberately avoiding the package's gate-application
code path. The preference oracle evaluates the policy gate by gate through
the `Statevector` API, independently of the batched row-operator engine.
"""
import numpy as np

from qpolgrad import qsim
from qpolgrad.vqpolicy import build_ansatz

I2 = np.eye(2, dtype=complex)


def kron_single(mat: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Embed a 2x2 matrix on `qubit` (qubit 0 = most significant factor)."""
    ops = [I2] * n
    ops[qubit] = mat
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def cnot_full(control: int, target: int, n: int) -> np.ndarray:
    """CNOT as an explicit basis permutation matrix."""
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        if (i >> (n - 1 - control)) & 1:
            j = i ^ (1 << (n - 1 - target))
        else:
            j = i
        out[j, i] = 1.0
    return out


def gate_full(gate: qsim.Gate, n: int) -> np.ndarray:
    if gate.kind == "CNOT":
        return cnot_full(gate.control, gate.target, n)
    return kron_single(gate.matrix(), gate.target, n)


def circuit_full(gates, n: int) -> np.ndarray:
    """Full unitary of a gate list as an explicit matrix product."""
    out = np.eye(2**n, dtype=complex)
    for gate in gates:
        out = gate_full(gate, n) @ out
    return out


def random_gates(rng: np.random.Generator, n: int, length: int):
    """A random circuit over the package's gate set."""
    gates = []
    for _ in range(length):
        kind = rng.choice(["RX", "RY", "RZ", "U3", "CNOT"] if n > 1 else ["RX", "RY", "RZ", "U3"])
        target = int(rng.integers(n))
        if kind == "CNOT":
            control = int(rng.integers(n - 1))
            if control >= target:
                control += 1
            gates.append(qsim.Gate("CNOT", (), target, control))
        else:
            n_angles = 3 if kind == "U3" else 1
            angles = tuple(rng.uniform(-np.pi, np.pi, size=n_angles))
            gates.append(qsim.Gate(kind, angles, target))
    return gates


def random_state(rng: np.random.Generator, n: int) -> qsim.Statevector:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    return qsim.Statevector(n, amps)


def encode_gates(features, normalizer) -> qsim.Statevector:
    """Angle-encode one feature vector gate by gate: RX(normalized feature) per qubit."""
    angles = normalizer.normalize(np.asarray(features, dtype=float))
    state = qsim.init_zero(len(angles))
    for i, angle in enumerate(angles):
        state = qsim.apply_gate(state, qsim.Gate("RX", (float(angle),), i))
    return state


def oracle_preferences(spec, params, x, normalizer=None) -> np.ndarray:
    """Per-action preferences gate by gate: encode (or take the input state),
    apply the ansatz, then read <sigma_z> of each measured qubit."""
    state = encode_gates(x, normalizer) if spec.encoding == "angle_rx" else x
    out = qsim.apply_circuit(state, build_ansatz(spec, params))
    if spec.architecture == "single_u3":
        z = qsim.expectation_z(out, 0)
        return np.array([z, -z])
    return np.array([qsim.expectation_z(out, q) for q in range(spec.n_actions)])
