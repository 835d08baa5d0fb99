"""The batched engine (`qsim`) and the tests' gate-by-gate `Statevector`
oracle (`conftest`): the oracle's own cases come first, then the engine's
kernels, row operator and feature rows against it and against kron-built
matrices. The readout, exact and finite-shot, is the policy's and is tested in
`test_vqpolicy`."""
import numpy as np
import pytest

from qpolgrad import qsim
from qpolgrad.errors import ConfigError, ContractError

import conftest as oracle
from conftest import Gate, circuit_full, kron_single, random_gates, random_program, random_state


def test_init_zero_single_qubit():
    state = oracle.init_zero(1)
    np.testing.assert_allclose(state.amplitudes, [1, 0])


def test_init_zero_two_qubits():
    state = oracle.init_zero(2)
    np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0])


@pytest.mark.parametrize("n", [0, 9, -1])
def test_init_zero_rejects_bad_counts(n):
    with pytest.raises(ConfigError):
        oracle.init_zero(n)


def test_rx_pi_is_bit_flip_up_to_phase():
    state = oracle.apply_gate(oracle.init_zero(1), Gate("RX", (np.pi,), 0))
    np.testing.assert_allclose(state.amplitudes, [0, -1j], atol=1e-12)


def test_ry_half_pi_equal_superposition():
    # 2x2 product by hand: RY(pi/2) |0> = [cos(pi/4), sin(pi/4)]
    state = oracle.apply_gate(oracle.init_zero(1), Gate("RY", (np.pi / 2,), 0))
    np.testing.assert_allclose(state.amplitudes, [0.7071067811865476, 0.7071067811865476], atol=1e-12)


def test_cnot_truth_table_on_superposition():
    # (|00> + |10>)/sqrt(2) --CNOT(0->1)--> (|00> + |11>)/sqrt(2)
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[2] = 1 / np.sqrt(2)
    state = oracle.apply_gate(oracle.Statevector(2, amps), Gate("CNOT", (), 1, 0))
    expected = np.zeros(4, dtype=complex)
    expected[0] = expected[3] = 1 / np.sqrt(2)
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


def test_expectation_z_eigenstate():
    assert oracle.expectation_z(oracle.init_zero(1), 0) == pytest.approx(1.0)


def test_expectation_z_equator():
    state = oracle.apply_gate(oracle.init_zero(1), Gate("RX", (np.pi / 2,), 0))
    assert oracle.expectation_z(state, 0) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("theta", [0.3, 1.1, 2.9])
def test_expectation_z_closed_form(theta):
    # <sigma_z> after RX(theta) on |0> is cos(theta); check against the
    # amplitudes RX(theta)|0> = [cos(theta/2), -i sin(theta/2)] as well.
    state = oracle.apply_gate(oracle.init_zero(1), Gate("RX", (theta,), 0))
    got = oracle.expectation_z(state, 0)
    amp = np.array([np.cos(theta / 2), -1j * np.sin(theta / 2)])
    by_hand = abs(amp[0]) ** 2 - abs(amp[1]) ** 2
    assert got == pytest.approx(np.cos(theta), abs=1e-12)
    assert got == pytest.approx(by_hand, abs=1e-12)


def test_evolve_rabi_flip():
    state = oracle.evolve_hamiltonian(oracle.init_zero(1), 0.0, 1.0, np.pi / 2)
    one = oracle.Statevector(1, np.array([0, 1], dtype=complex))
    assert oracle.fidelity(state, one) == pytest.approx(1.0, abs=1e-12)


def test_evolve_zero_time_is_identity():
    state = random_state(np.random.default_rng(3), 1)
    out = oracle.evolve_hamiltonian(state, 4.0, 1.0, 0.0)
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-14)


def test_evolve_zero_hamiltonian_is_identity():
    state = random_state(np.random.default_rng(4), 1)
    out = oracle.evolve_hamiltonian(state, 0.0, 0.0, 1.7)
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-14)


def test_evolve_small_angle_fidelity():
    # exp(-i sigma_x t)|0> has |<1|psi>|^2 = sin(t)^2; t = pi/20.
    state = oracle.evolve_hamiltonian(oracle.init_zero(1), 0.0, 1.0, np.pi / 20)
    one = oracle.Statevector(1, np.array([0, 1], dtype=complex))
    expected = np.sin(np.pi / 20) ** 2
    assert expected == pytest.approx(0.02447174185242318, abs=1e-14)
    assert oracle.fidelity(state, one) == pytest.approx(expected, abs=1e-12)


def test_evolve_rejects_multiqubit():
    with pytest.raises(ContractError):
        oracle.evolve_hamiltonian(oracle.init_zero(2), 0.0, 1.0, 0.1)


def test_evolve_time_additivity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b = rng.normal(), rng.normal()
        dt1, dt2 = rng.uniform(0, 2, size=2)
        state = random_state(rng, 1)
        split = oracle.evolve_hamiltonian(oracle.evolve_hamiltonian(state, a, b, dt1), a, b, dt2)
        joint = oracle.evolve_hamiltonian(state, a, b, dt1 + dt2)
        np.testing.assert_allclose(split.amplitudes, joint.amplitudes, atol=1e-10)


def test_fidelity_trivial_cases():
    zero = oracle.init_zero(1)
    one = oracle.Statevector(1, np.array([0, 1], dtype=complex))
    plus = oracle.Statevector(1, np.array([1, 1], dtype=complex) / np.sqrt(2))
    assert oracle.fidelity(zero, zero) == pytest.approx(1.0)
    assert oracle.fidelity(zero, one) == pytest.approx(0.0)
    assert oracle.fidelity(zero, plus) == pytest.approx(0.5)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ContractError):
        oracle.fidelity(oracle.init_zero(1), oracle.init_zero(2))


def test_fidelity_symmetric_and_phase_invariant():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a, b = random_state(rng, 2), random_state(rng, 2)
        phi = rng.uniform(0, 2 * np.pi)
        a_phase = oracle.Statevector(2, a.amplitudes * np.exp(1j * phi))
        f = oracle.fidelity(a, b)
        assert f == pytest.approx(oracle.fidelity(b, a), abs=1e-12)
        assert f == pytest.approx(oracle.fidelity(a_phase, b), abs=1e-12)
        assert 0.0 <= f <= 1.0 + 1e-12


def test_norm_preserved_over_random_sequences():
    rng = np.random.default_rng(123)
    for n in (1, 2, 4, 8):
        for _ in range(5):
            state = random_state(rng, n)
            gates = random_gates(rng, n, int(rng.integers(1, 51)))
            out = oracle.apply_circuit(state, gates)
            assert abs(out.norm() - 1.0) < 1e-9


def test_gate_application_matches_matrix_product_oracle():
    # For 1-2 qubit circuits, gate-by-gate application must equal the
    # explicit kron-built matrix product, elementwise.
    rng = np.random.default_rng(2024)
    for n in (1, 2):
        for _ in range(30):
            state = random_state(rng, n)
            gates = random_gates(rng, n, int(rng.integers(1, 20)))
            via_gates = oracle.apply_circuit(state, gates)
            via_matrix = circuit_full(gates, n) @ state.amplitudes
            np.testing.assert_allclose(via_gates.amplitudes, via_matrix, atol=1e-10)


def test_circuit_row_operator_is_transposed_unitary():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        program, theta, gates = random_program(rng, n, 12)
        rowop = qsim.circuit_row_operator(program, theta, n)
        np.testing.assert_allclose(rowop, circuit_full(gates, n).T, atol=1e-10)


def test_batched_application_matches_single():
    rng = np.random.default_rng(6)
    n = 3
    program, theta, gates = random_program(rng, n, 15)
    states = [random_state(rng, n) for _ in range(9)]
    batch = np.stack([s.amplitudes for s in states])
    out_batch = batch @ qsim.circuit_row_operator(program, theta, n)
    for row, s in zip(out_batch, states):
        np.testing.assert_allclose(row, oracle.apply_circuit(s, gates).amplitudes, atol=1e-12)


def test_expectation_z_array_batched():
    # the oracle's marginal readout against <psi| Z_q |psi> with a kron-built Z_q
    rng = np.random.default_rng(8)
    n = 3
    z = np.diag([1.0, -1.0]).astype(complex)
    states = [random_state(rng, n) for _ in range(6)]
    batch = np.stack([s.amplitudes for s in states])
    vals = oracle.marginal_z(batch, range(n), n)
    assert vals.shape == (6, n)
    for row, s in zip(vals, states):
        for q in range(n):
            want = np.vdot(s.amplitudes, kron_single(z, q, n) @ s.amplitudes).real
            assert row[q] == pytest.approx(want, abs=1e-12)


def test_amplitude_features_roundtrip_bit_for_bit():
    # A state leaves the simulator as interleaved (re, im) floats and comes
    # back unchanged, row by row, including signed zeros.
    rng = np.random.default_rng(9)
    batch = np.stack([random_state(rng, 2).amplitudes for _ in range(5)])
    batch[0, 1] = complex(-0.0, 0.0)
    feats = qsim.amplitude_features(batch)
    assert feats.shape == (5, 8) and feats.dtype == np.float64
    np.testing.assert_array_equal(feats[:, 0::2], batch.real)
    np.testing.assert_array_equal(feats[:, 1::2], batch.imag)
    back = qsim.feature_amplitudes(feats)
    assert back.tobytes() == batch.tobytes()
    assert qsim.feature_amplitudes(feats[3]).tobytes() == batch[3].tobytes()
    with pytest.raises(ValueError):
        qsim.feature_amplitudes(np.zeros(3))
