import numpy as np
import pytest

from qpolgrad import qsim
from qpolgrad.errors import ConfigError, ContractError

from conftest import circuit_full, kron_single, random_gates, random_state


def test_init_zero_single_qubit():
    state = qsim.init_zero(1)
    np.testing.assert_allclose(state.amplitudes, [1, 0])


def test_init_zero_two_qubits():
    state = qsim.init_zero(2)
    np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0])


@pytest.mark.parametrize("n", [0, 9, -1])
def test_init_zero_rejects_bad_counts(n):
    with pytest.raises(ConfigError):
        qsim.init_zero(n)


def test_rx_pi_is_bit_flip_up_to_phase():
    state = qsim.apply_gate(qsim.init_zero(1), qsim.Gate("RX", (np.pi,), 0))
    np.testing.assert_allclose(state.amplitudes, [0, -1j], atol=1e-12)


def test_ry_half_pi_equal_superposition():
    # 2x2 product by hand: RY(pi/2) |0> = [cos(pi/4), sin(pi/4)]
    state = qsim.apply_gate(qsim.init_zero(1), qsim.Gate("RY", (np.pi / 2,), 0))
    np.testing.assert_allclose(state.amplitudes, [0.7071067811865476, 0.7071067811865476], atol=1e-12)


def test_cnot_truth_table_on_superposition():
    # (|00> + |10>)/sqrt(2) --CNOT(0->1)--> (|00> + |11>)/sqrt(2)
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[2] = 1 / np.sqrt(2)
    state = qsim.apply_gate(qsim.Statevector(2, amps), qsim.Gate("CNOT", (), 1, 0))
    expected = np.zeros(4, dtype=complex)
    expected[0] = expected[3] = 1 / np.sqrt(2)
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


def test_gate_contract_checks():
    with pytest.raises(ContractError):
        qsim.Gate("RX", (0.1, 0.2), 0)
    with pytest.raises(ContractError):
        qsim.Gate("U3", (0.1,), 0)
    with pytest.raises(ContractError):
        qsim.Gate("CNOT", (), 1, 1)
    with pytest.raises(ContractError):
        qsim.Gate("HADAMARD", (), 0)
    with pytest.raises(ContractError):
        qsim.apply_gate(qsim.init_zero(1), qsim.Gate("RX", (0.3,), 3))


def test_expectation_z_eigenstate():
    assert qsim.expectation_z(qsim.init_zero(1), 0) == pytest.approx(1.0)


def test_expectation_z_equator():
    state = qsim.apply_gate(qsim.init_zero(1), qsim.Gate("RX", (np.pi / 2,), 0))
    assert qsim.expectation_z(state, 0) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("theta", [0.3, 1.1, 2.9])
def test_expectation_z_closed_form(theta):
    # <sigma_z> after RX(theta) on |0> is cos(theta); check against a direct
    # 2x2 matrix evaluation as well.
    state = qsim.apply_gate(qsim.init_zero(1), qsim.Gate("RX", (theta,), 0))
    got = qsim.expectation_z(state, 0)
    amp = qsim.rx_matrix(theta) @ np.array([1, 0], dtype=complex)
    oracle = abs(amp[0]) ** 2 - abs(amp[1]) ** 2
    assert got == pytest.approx(np.cos(theta), abs=1e-12)
    assert got == pytest.approx(oracle, abs=1e-12)


# Shot readout: measure_z_array with shots > 0.

def test_sample_z_deterministic_on_eigenstates():
    rng = np.random.default_rng(0)
    rows = np.array([[1, 0], [0, 1]], dtype=complex)  # |0>, |1>
    for shots in (1, 7, 1000):
        np.testing.assert_array_equal(qsim.measure_z_array(rows, [0], 1, shots, rng),
                                      [[1.0], [-1.0]])


def test_sample_z_converges_at_high_shots():
    state = qsim.apply_gate(qsim.init_zero(1), qsim.Gate("RX", (np.pi / 2,), 0))
    for seed in range(8):
        rng = np.random.default_rng(seed)
        est = qsim.measure_z_array(state.amplitudes[None], [0], 1, 10**5, rng)[0, 0]
        assert abs(est - 0.0) < 0.02


def test_sample_z_rejects_zero_shots():
    # shots = 0 selects the exact readout, so only negative counts are invalid
    rows = qsim.init_zero(1).amplitudes[None]
    with pytest.raises(ContractError):
        qsim.measure_z_array(rows, [0], 1, -1, np.random.default_rng(0))
    with pytest.raises(ContractError):
        qsim.measure_z_array(rows, [0], 1, 10)  # shot mode without an rng


def test_sample_z_matches_expectation_within_binomial_band():
    # 3-sigma band around the exact value at 1e5 shots, one row per angle.
    rng = np.random.default_rng(42)
    shots = 10**5
    states = [qsim.apply_gate(qsim.init_zero(1), qsim.Gate("RX", (theta,), 0))
              for theta in (0.4, 1.3, 2.0)]
    rows = np.stack([s.amplitudes for s in states])
    estimates = qsim.measure_z_array(rows, [0], 1, shots, rng)[:, 0]
    for state, est in zip(states, estimates):
        exact = qsim.expectation_z(state, 0)
        p0 = (1 + exact) / 2
        sigma = 2 * np.sqrt(p0 * (1 - p0) / shots)
        assert abs(est - exact) < 3 * sigma


def test_evolve_rabi_flip():
    h = qsim.TwoLevelHamiltonian(coeff_z=0.0, coeff_x=1.0)
    state = qsim.evolve_hamiltonian(qsim.init_zero(1), h, np.pi / 2)
    one = qsim.Statevector(1, np.array([0, 1], dtype=complex))
    assert qsim.fidelity(state, one) == pytest.approx(1.0, abs=1e-12)


def test_evolve_zero_time_is_identity():
    h = qsim.TwoLevelHamiltonian(coeff_z=4.0, coeff_x=1.0)
    state = random_state(np.random.default_rng(3), 1)
    out = qsim.evolve_hamiltonian(state, h, 0.0)
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-14)


def test_evolve_zero_hamiltonian_is_identity():
    h = qsim.TwoLevelHamiltonian(coeff_z=0.0, coeff_x=0.0)
    state = random_state(np.random.default_rng(4), 1)
    out = qsim.evolve_hamiltonian(state, h, 1.7)
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-14)


def test_evolve_small_angle_fidelity():
    # exp(-i sigma_x t)|0> has |<1|psi>|^2 = sin(t)^2; t = pi/20.
    h = qsim.TwoLevelHamiltonian(coeff_z=0.0, coeff_x=1.0)
    state = qsim.evolve_hamiltonian(qsim.init_zero(1), h, np.pi / 20)
    one = qsim.Statevector(1, np.array([0, 1], dtype=complex))
    expected = np.sin(np.pi / 20) ** 2
    assert expected == pytest.approx(0.02447174185242318, abs=1e-14)
    assert qsim.fidelity(state, one) == pytest.approx(expected, abs=1e-12)


def test_evolve_rejects_multiqubit():
    h = qsim.TwoLevelHamiltonian(0.0, 1.0)
    with pytest.raises(ContractError):
        qsim.evolve_hamiltonian(qsim.init_zero(2), h, 0.1)


def test_evolve_time_additivity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        h = qsim.TwoLevelHamiltonian(rng.normal(), rng.normal())
        dt1, dt2 = rng.uniform(0, 2, size=2)
        state = random_state(rng, 1)
        split = qsim.evolve_hamiltonian(qsim.evolve_hamiltonian(state, h, dt1), h, dt2)
        joint = qsim.evolve_hamiltonian(state, h, dt1 + dt2)
        np.testing.assert_allclose(split.amplitudes, joint.amplitudes, atol=1e-10)


def test_fidelity_trivial_cases():
    zero = qsim.init_zero(1)
    one = qsim.Statevector(1, np.array([0, 1], dtype=complex))
    plus = qsim.Statevector(1, np.array([1, 1], dtype=complex) / np.sqrt(2))
    assert qsim.fidelity(zero, zero) == pytest.approx(1.0)
    assert qsim.fidelity(zero, one) == pytest.approx(0.0)
    assert qsim.fidelity(zero, plus) == pytest.approx(0.5)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ContractError):
        qsim.fidelity(qsim.init_zero(1), qsim.init_zero(2))


def test_fidelity_symmetric_and_phase_invariant():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a, b = random_state(rng, 2), random_state(rng, 2)
        phi = rng.uniform(0, 2 * np.pi)
        a_phase = qsim.Statevector(2, a.amplitudes * np.exp(1j * phi))
        f = qsim.fidelity(a, b)
        assert f == pytest.approx(qsim.fidelity(b, a), abs=1e-12)
        assert f == pytest.approx(qsim.fidelity(a_phase, b), abs=1e-12)
        assert 0.0 <= f <= 1.0 + 1e-12


def test_norm_preserved_over_random_sequences():
    rng = np.random.default_rng(123)
    for n in (1, 2, 4, 8):
        for _ in range(5):
            state = random_state(rng, n)
            gates = random_gates(rng, n, int(rng.integers(1, 51)))
            out = qsim.apply_circuit(state, gates)
            assert abs(out.norm() - 1.0) < 1e-9


def test_gate_application_matches_matrix_product_oracle():
    # For 1-2 qubit circuits, gate-by-gate application must equal the
    # explicit kron-built matrix product, elementwise.
    rng = np.random.default_rng(2024)
    for n in (1, 2):
        for _ in range(30):
            state = random_state(rng, n)
            gates = random_gates(rng, n, int(rng.integers(1, 20)))
            via_gates = qsim.apply_circuit(state, gates)
            via_matrix = circuit_full(gates, n) @ state.amplitudes
            np.testing.assert_allclose(via_gates.amplitudes, via_matrix, atol=1e-10)


def test_circuit_row_operator_is_transposed_unitary():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        gates = random_gates(rng, n, 12)
        rowop = qsim.circuit_row_operator(gates, n)
        np.testing.assert_allclose(rowop, circuit_full(gates, n).T, atol=1e-10)


def test_batched_application_matches_single():
    rng = np.random.default_rng(6)
    n = 3
    gates = random_gates(rng, n, 15)
    states = [random_state(rng, n) for _ in range(9)]
    batch = np.stack([s.amplitudes for s in states])
    out_batch = qsim.apply_circuit_array(batch, gates, n)
    for row, s in zip(out_batch, states):
        np.testing.assert_allclose(row, qsim.apply_circuit(s, gates).amplitudes, atol=1e-12)


def test_expectation_z_array_batched():
    # exact batched readout against <psi| Z_q |psi> with a kron-built Z_q
    rng = np.random.default_rng(8)
    n = 3
    z = np.diag([1.0, -1.0]).astype(complex)
    states = [random_state(rng, n) for _ in range(6)]
    batch = np.stack([s.amplitudes for s in states])
    vals = qsim.measure_z_array(batch, range(n), n)
    assert vals.shape == (6, n)
    for row, s in zip(vals, states):
        for q in range(n):
            oracle = np.vdot(s.amplitudes, kron_single(z, q, n) @ s.amplitudes).real
            assert row[q] == pytest.approx(oracle, abs=1e-12)


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
