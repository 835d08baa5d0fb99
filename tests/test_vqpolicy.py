import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpolgrad import envs, qsim, vqpolicy
from qpolgrad.classical import MlpPolicy, MlpSpec
from qpolgrad.errors import ContractError
from qpolgrad.reinforce import run_episodes
from qpolgrad.vqpolicy import (
    CircuitSpec,
    FeatureNormalizer,
    QuantumPolicy,
    encoded_rows,
    gate_program,
    row_preferences,
    serial_matmul,
    shift_gradients,
    softmax_policy,
)

import conftest as oracle
from conftest import (
    Gate,
    ansatz_gates,
    circuit_full,
    encode_gates,
    grad_log,
    kron_encoded_rows,
    kron_single,
    marginal_z,
    oracle_preferences,
    random_state,
    rescale,
)


def layered(n_qubits, n_layers, n_actions):
    return CircuitSpec(n_qubits, n_layers, n_actions, "layered", "angle_rx")


U3_SPEC = CircuitSpec(1, 1, 2, "single_u3", "none")


def random_vector(spec, rng, beta=None):
    """A trainable vector: random circuit angles, then beta."""
    theta = rng.uniform(-np.pi, np.pi, size=spec.n_params)
    return np.append(theta, beta if beta is not None else rng.normal(1.0, 0.1))


def input_rows(spec, x, normalizer):
    """One already-observed input as a 1-row batch for the row-operator engine."""
    if spec.encoding == "angle_rx":
        return encoded_rows(rescale(normalizer, x)[None])
    return x.amplitudes[None]


def feature_row(spec, x):
    """One input as the policy observes it: features, or a state's amplitude row."""
    return x if spec.encoding == "angle_rx" else qsim.amplitude_features(x.amplitudes)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def test_encode_zero_features_is_ground_state():
    rows = encoded_rows(np.zeros((1, 3)))
    expected = np.zeros(8)
    expected[0] = 1.0
    np.testing.assert_allclose(rows[0], expected, atol=1e-12)


def test_encode_full_scale_feature_hits_pi():
    norm = FeatureNormalizer(1)
    norm.observe(np.array([[1.0]]))
    rows = encoded_rows(rescale(norm, np.array([[1.0]])))
    assert oracle.expectation_z(oracle.Statevector(1, rows[0]), 0) == pytest.approx(-1.0, abs=1e-12)


def test_encode_two_features_product_state():
    norm = FeatureNormalizer(2)
    norm.observe(np.array([[1.0, 1.0]]))
    state = oracle.Statevector(2, encoded_rows(rescale(norm, np.array([[1.0, -1.0]])))[0])
    assert oracle.expectation_z(state, 0) == pytest.approx(-1.0, abs=1e-12)
    assert oracle.expectation_z(state, 1) == pytest.approx(-1.0, abs=1e-12)


def test_normalizer_keeps_angles_in_range_and_is_monotone():
    rng = np.random.default_rng(0)
    norm = FeatureNormalizer(4)
    prev = norm.running_abs_max.copy()
    for _ in range(200):
        feats = rng.normal(scale=rng.uniform(0.01, 50), size=4)
        norm.observe(feats[None])
        angles = rescale(norm, feats)
        assert np.all(np.abs(angles) <= np.pi + 1e-12)
        assert np.all(norm.running_abs_max >= prev)
        prev = norm.running_abs_max.copy()


def test_encoded_rows_match_gate_encoding():
    rng = np.random.default_rng(1)
    norm = FeatureNormalizer(3)
    feats = rng.normal(size=(5, 3))
    norm.observe(feats)
    rows = vqpolicy.encoded_rows(feats * (np.pi / norm.running_abs_max))
    for row, f in zip(rows, feats):
        np.testing.assert_allclose(row, encode_gates(f, norm).amplitudes, atol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 8), t=st.sampled_from([1, 10, vqpolicy.CHUNK_ROWS + 7, 2000]),
       seed=st.integers(0, 2**32 - 1))
def test_encoded_rows_match_the_kron_oracle_bit_for_bit(n, t, seed):
    # Every nonzero part carries the kron's bits. The kron's zero parts take
    # signs from its own arithmetic, so zeros are compared as values: adding
    # +0 makes every zero +0 and leaves every other bit.
    rng = np.random.default_rng(seed)
    angles = rng.uniform(-np.pi, np.pi, size=(t, n))
    angles[0, 0] = 0.0
    angles[-1, -1] = np.pi
    got, want = encoded_rows(angles), kron_encoded_rows(angles)
    assert got.shape == (t, 2**n) and got.dtype == complex
    assert (got + 0).tobytes() == (want + 0).tobytes()


def test_encode_rejects_length_mismatch():
    # The width is checked where rows enter: a gradient's batch
    # (`checked_batch`) and a rollout (`run_episodes`, on 4-feature cartpole).
    spec = layered(2, 1, 2)
    policy = QuantumPolicy(spec, np.append(np.zeros(spec.n_params), 1.0))
    assert policy.n_features == 2
    with pytest.raises(ContractError):
        policy.grad_log_batch(np.zeros((2, 3)), [0, 1])
    with pytest.raises(ContractError):
        policy.weighted_grad_log(np.zeros((2, 3)), [0, 1], [1.0, 1.0])
    with pytest.raises(ContractError):
        run_episodes(envs.make_env("cartpole"), policy, [np.random.default_rng(0)], 0.99)
    # an `encoding: none` policy reads a 1-qubit state as 4 floats
    u3_policy = QuantumPolicy(U3_SPEC, [0.0, 0.0, 0.0, 1.0])
    assert u3_policy.n_features == 4
    for width in (2, 3, 8):
        with pytest.raises(ContractError):
            u3_policy.grad_log_batch(np.eye(width)[:1], [0])
        with pytest.raises(ContractError):
            u3_policy.weighted_grad_log(np.eye(width)[:1], [0], [1.0])
    with pytest.raises(ContractError):
        run_episodes(envs.make_env("acrobot"), u3_policy, [np.random.default_rng(0)], 0.99)


def test_a_gradient_batch_refuses_a_lone_row():
    # A batch is a (T, n_features) array; one 1-D row is refused, not promoted.
    spec = layered(2, 1, 2)
    for policy in (QuantumPolicy(spec, np.append(np.zeros(spec.n_params), 1.0)),
                   MlpPolicy(MlpSpec((2, 3, 2)), np.zeros(12))):
        with pytest.raises(ContractError):
            vqpolicy.checked_batch(policy, np.ones(2), [0])
        with pytest.raises(ContractError):
            policy.grad_log_batch(np.ones(2), [0])
        with pytest.raises(ContractError):
            policy.weighted_grad_log(np.ones(2), [0], [1.0])
        assert vqpolicy.checked_batch(policy, np.ones((1, 2)), [0])[0].shape == (1, 2)


# ---------------------------------------------------------------------------
# ansatz layout
# ---------------------------------------------------------------------------

def test_ansatz_gate_counts_and_cascade():
    # steps are (kind, target, angle index) or ("CNOT", target, control)
    program = gate_program(layered(4, 3, 2))
    rotations = [step for step in program if step[0] in ("RY", "RZ")]
    cnots = [step for step in program if step[0] == "CNOT"]
    assert len(rotations) == 24
    assert len(cnots) == 12
    # layer 1: targets are controls shifted by 1 mod 4
    layer1 = [(control, target) for _, target, control in cnots[:4]]
    assert layer1 == [(0, 1), (1, 2), (2, 3), (3, 0)]
    # parameters consumed in layer-major, qubit-major, RY-then-RZ order
    assert rotations[:3] == [("RY", 0, 0), ("RZ", 0, 1), ("RY", 1, 2)]
    assert [j for _, _, j in rotations] == list(range(24))


def test_ansatz_single_qubit_has_no_entanglers():
    program = gate_program(CircuitSpec(1, 5, 1, "layered", "angle_rx"))
    assert all(kind != "CNOT" for kind, _, _ in program)
    assert len(program) == 10


def test_ansatz_skips_self_loop_layers():
    # layer index equal to n modulo n would entangle a qubit with itself
    program = gate_program(layered(2, 2, 2))
    cnots = [(control, target) for kind, target, control in program if kind == "CNOT"]
    assert cnots == [(0, 1), (1, 0)]


def test_single_u3_zero_angles_is_identity():
    rowop = qsim.circuit_row_operator(gate_program(U3_SPEC), np.zeros(3), 1)
    np.testing.assert_allclose(rowop, np.eye(2), atol=1e-12)


def test_ansatz_rejects_wrong_parameter_count():
    spec, theta = layered(4, 3, 2), np.zeros(7)
    enc = encoded_rows(np.zeros((1, 4)))
    with pytest.raises(ContractError):
        row_preferences(spec, theta, enc)
    with pytest.raises(ContractError):
        shift_gradients(spec, theta, enc)
    with pytest.raises(ContractError):
        vqpolicy.adjoint_gradients(spec, theta, enc, enc)


@pytest.mark.parametrize("n_qubits", [*range(1, 9), "single_u3"])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_gate_program_matches_the_oracle_layout(n_qubits, data):
    # The cached program at random angles against the transposed kron-built
    # unitary of the oracle's own layout (single_u3 as one U3 matrix), at
    # every width, L = 1..5 and |A| = 1..min(n, 3).
    if n_qubits == "single_u3":
        spec = U3_SPEC
    else:
        spec = layered(n_qubits, data.draw(st.integers(1, 5), label="n_layers"),
                       data.draw(st.integers(1, min(n_qubits, 3)), label="n_actions"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    theta = rng.uniform(-np.pi, np.pi, size=spec.n_params)
    got = qsim.circuit_row_operator(gate_program(spec), theta, spec.n_qubits)
    want = circuit_full(ansatz_gates(spec, theta), spec.n_qubits).T
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# preferences and softmax
# ---------------------------------------------------------------------------

def test_preferences_identity_circuit():
    spec = layered(4, 3, 2)
    prefs = row_preferences(spec, np.zeros(spec.n_params), encoded_rows(np.zeros((1, 4))))
    np.testing.assert_allclose(prefs, [[1.0, 1.0]], atol=1e-12)


def test_preferences_single_u3_equator():
    theta = np.array([np.pi / 2, 0.0, 0.0])
    prefs = row_preferences(U3_SPEC, theta, oracle.init_zero(1).amplitudes[None])
    np.testing.assert_allclose(prefs, [[0.0, 0.0]], atol=1e-12)


def test_preferences_single_u3_sign_pair():
    one = np.array([[0, 1]], dtype=complex)
    prefs = row_preferences(U3_SPEC, np.zeros(3), one)
    np.testing.assert_allclose(prefs, [[-1.0, 1.0]], atol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 8), n_actions=st.integers(1, 3), t=st.sampled_from([1, 7, 64]),
       seed=st.integers(0, 2**32 - 1))
def test_sign_table_readout_matches_the_marginals(n, n_actions, t, seed):
    # One contraction with the sign table against the per-qubit marginals,
    # and each row's bits whatever rows share its batch. A shot readout hands
    # its one draw P(0) = (1 + <Z>) / 2 of the same marginals.
    spec = layered(n, 1, min(n_actions, n))
    rng = np.random.default_rng(seed)
    rows = np.stack([random_state(rng, n).amplitudes for _ in range(t)])
    got = vqpolicy._readout(spec, rows, 0, None)
    exact = marginal_z(rows, range(spec.n_actions), n)
    np.testing.assert_allclose(got, exact, rtol=0, atol=1e-15)
    for i in range(t):
        assert vqpolicy._readout(spec, rows[i:i + 1], 0, None).tobytes() == got[i].tobytes()
    stub = RecordingRng()
    shot = vqpolicy._readout(spec, rows, 9, stub)
    assert len(stub.draws) == 1
    n_shots, p = stub.draws[0]
    assert n_shots == 9 and p.shape == (t, spec.n_actions)
    np.testing.assert_allclose(p, np.clip((1 + exact) / 2, 0, 1), rtol=0, atol=1e-15)
    np.testing.assert_array_equal(shot, 2 * stub.counts[0] / 9 - 1)


def test_sign_table_is_the_measured_observables_diagonal():
    # Column a is the diagonal of Z on qubit a, built with kron; the single_u3
    # pair is (Z, -Z). The co-state diagonals read the same table.
    z = np.diag([1.0, -1.0])
    rng = np.random.default_rng(43)
    for spec in (layered(1, 1, 1), layered(4, 2, 2), layered(6, 1, 3), U3_SPEC):
        n = spec.n_qubits
        table = vqpolicy._sign_table(spec)
        if spec.architecture == "single_u3":
            cols = [np.diag(z), -np.diag(z)]
        else:
            cols = [np.diag(kron_single(z, q, n)).real for q in range(spec.n_actions)]
        np.testing.assert_array_equal(table, np.stack(cols, axis=1))
        assert not table.flags.writeable
        weights = rng.normal(size=(9, spec.n_actions))
        np.testing.assert_array_equal(vqpolicy._observable_diagonals(spec, weights),
                                      weights @ table.T)
    rows = np.stack([random_state(rng, 1).amplitudes for _ in range(5)])
    z0 = marginal_z(rows, [0], 1)
    np.testing.assert_array_equal(vqpolicy._readout(U3_SPEC, rows, 0, None),
                                  np.concatenate([z0, -z0], axis=1))
    # In shot mode the pair is one measured qubit: one draw, its sign flipped.
    stub = RecordingRng()
    shot = vqpolicy._readout(U3_SPEC, rows, 11, stub)
    assert len(stub.draws) == 1 and stub.draws[0][1].shape == (5, 1)
    np.testing.assert_allclose(stub.draws[0][1], (1 + z0) / 2, rtol=0, atol=1e-15)
    z_hat = 2 * stub.counts[0] / 11 - 1
    np.testing.assert_array_equal(shot, np.concatenate([z_hat, -z_hat], axis=1))


class RecordingRng:
    """Stands in for a generator in a shot readout: records each
    binomial(n, p) call and answers with the counts floor(n * p)."""

    def __init__(self):
        self.draws, self.counts = [], []

    def binomial(self, n, p):
        self.draws.append((n, np.array(p)))
        self.counts.append(np.floor(n * np.asarray(p)).astype(np.int64))
        return self.counts[-1]


def rx_rows(angles):
    """One row RX(angle)|0> per angle, through the gate-by-gate oracle."""
    return np.stack([oracle.apply_gate(oracle.init_zero(1), Gate("RX", (a,), 0)).amplitudes
                     for a in angles])


# Shot readout: the exact preferences with a Binomial draw on top.

def test_sample_z_deterministic_on_eigenstates():
    rng = np.random.default_rng(0)
    rows = np.array([[1, 0], [0, 1]], dtype=complex)  # |0>, |1>
    for spec in (layered(1, 1, 1), U3_SPEC):
        for shots in (1, 7, 1000):
            z = row_preferences(spec, np.zeros(spec.n_params), rows, shots, rng)
            np.testing.assert_array_equal(z[:, 0], [1.0, -1.0])


def test_sample_z_converges_at_high_shots():
    rows = rx_rows([np.pi / 2])
    for seed in range(8):
        rng = np.random.default_rng(seed)
        est = vqpolicy._readout(layered(1, 1, 1), rows, 10**5, rng)[0, 0]
        assert abs(est - 0.0) < 0.02


def test_sample_z_rejects_zero_shots():
    # A draw needs shots >= 1 and an rng, through the readout and through a
    # shot-mode policy alike; zero shots is the exact readout
    # (test_zero_shots_is_the_exact_readout).
    spec = layered(1, 1, 1)
    rows = oracle.init_zero(1).amplitudes[None]
    with pytest.raises(ContractError):
        row_preferences(spec, np.zeros(2), rows, -1, np.random.default_rng(0))
    with pytest.raises(ContractError):
        row_preferences(spec, np.zeros(2), rows, 10)  # shot mode without an rng
    vector = np.zeros(spec.n_params + 1)
    row = np.ones((1, 1))
    with pytest.raises(ContractError):
        QuantumPolicy(spec, vector, shots=-1).probabilities(row, [np.random.default_rng(0)], row)
    with pytest.raises(ContractError):
        QuantumPolicy(spec, vector, shots=10).probabilities(row, None, row)


def test_shot_probabilities_of_many_rows_need_one_generator_each():
    # m rows draw on a sequence of m generators; no rng or too few of them
    # is refused, and a lone generator, which has no length, too.
    spec = layered(2, 1, 2)
    policy = QuantumPolicy(spec, np.zeros(spec.n_params + 1), shots=10)
    obs = np.ones((3, 2))
    for rng in (None, [np.random.default_rng(0)] * 2):
        with pytest.raises(ContractError, match="3 generators"):
            policy.probabilities(obs, rng, obs)
    with pytest.raises(TypeError):
        policy.probabilities(obs, np.random.default_rng(0), obs)
    rngs = [np.random.default_rng(i) for i in range(3)]
    assert policy.probabilities(obs, rngs, obs).shape == (3, 2)


def test_zero_shots_is_the_exact_readout():
    # Zero shots draws nothing, even when handed a generator; the draw itself
    # refuses it.
    rows = rx_rows([0.4, 1.3])
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    exact = vqpolicy._readout(U3_SPEC, rows)
    assert vqpolicy._readout(U3_SPEC, rows, 0, rng).tobytes() == exact.tobytes()
    assert rng.bit_generator.state == state
    with pytest.raises(ContractError):
        vqpolicy._draw_shots(U3_SPEC, exact, 0, rng)


def test_sample_z_matches_expectation_within_binomial_band():
    # 3-sigma band around the oracle's exact value at 1e5 shots, one row per angle.
    rng = np.random.default_rng(42)
    shots = 10**5
    angles = (0.4, 1.3, 2.0)
    rows = rx_rows(angles)
    estimates = vqpolicy._readout(layered(1, 1, 1), rows, shots, rng)[:, 0]
    for row, est in zip(rows, estimates):
        exact = oracle.expectation_z(oracle.Statevector(1, row), 0)
        p0 = (1 + exact) / 2
        sigma = 2 * np.sqrt(p0 * (1 - p0) / shots)
        assert abs(est - exact) < 3 * sigma


def test_softmax_policy_reference_values():
    np.testing.assert_allclose(
        softmax_policy(np.array([-1.0, 1.0]), 1.0), [0.11920292, 0.88079708], atol=1e-8
    )
    p5 = softmax_policy(np.array([-1.0, 1.0]), 5.0)
    assert p5[0] == pytest.approx(4.5397868702434395e-05, rel=1e-10)
    assert p5.sum() == pytest.approx(1.0, abs=1e-12)


def test_softmax_policy_symmetry_and_overflow_safety():
    for c in (-3.0, 0.0, 7.5):
        np.testing.assert_allclose(softmax_policy(np.array([c, c]), 4.2), [0.5, 0.5])
    huge = softmax_policy(np.array([1.0, -1.0]), 1e6)
    assert np.all(np.isfinite(huge)) and huge.sum() == pytest.approx(1.0)


def test_softmax_constant_shift_invariance():
    rng = np.random.default_rng(2)
    for _ in range(30):
        prefs = rng.uniform(-1, 1, size=3)
        beta = rng.uniform(0.1, 8)
        c = rng.uniform(-5, 5)
        np.testing.assert_allclose(
            softmax_policy(prefs, beta), softmax_policy(prefs + c, beta), atol=1e-12
        )


def test_softmax_beta_monotone_for_unique_argmax():
    prefs = np.array([0.3, -0.2, 0.9])
    last = 0.0
    for beta in (0.5, 1.0, 2.0, 4.0, 8.0):
        p = softmax_policy(prefs, beta)[2]
        assert p >= last
        last = p


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def fd_preference(spec, theta, x, action, normalizer, h=1e-5):
    g = np.empty(spec.n_params)
    for j in range(spec.n_params):
        th = theta.copy()
        th[j] += h
        up = oracle_preferences(spec, th, x, normalizer)[action]
        th[j] -= 2 * h
        dn = oracle_preferences(spec, th, x, normalizer)[action]
        g[j] = (up - dn) / (2 * h)
    return g


def fd_log_policy(spec, vec, x, action, normalizer, h=1e-5):
    g = np.empty(len(vec))
    for j in range(len(vec)):
        for sign in (+1, -1):
            v = vec.copy()
            v[j] += sign * h
            prefs = oracle_preferences(spec, v[:-1], x, normalizer)
            logp = np.log(softmax_policy(prefs, v[-1])[action])
            if sign > 0:
                up = logp
            else:
                dn = logp
        g[j] = (up - dn) / (2 * h)
    return g


def test_grad_single_rotation_closed_form():
    # <z> = cos(theta_ry) for a 1-qubit layered circuit; RZ leaves it unchanged.
    spec = CircuitSpec(1, 1, 1, "layered", "angle_rx")
    enc = encoded_rows(np.zeros((1, 1)))
    g0 = shift_gradients(spec, np.array([0.0, 0.3]), enc)
    assert g0[0, 0, 0] == pytest.approx(0.0, abs=1e-12)
    g1 = shift_gradients(spec, np.array([np.pi / 2, 0.3]), enc)
    assert g1[0, 0, 0] == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("spec", [layered(2, 2, 2), layered(3, 2, 3), U3_SPEC])
def test_parameter_shift_matches_finite_differences(spec):
    rng = np.random.default_rng(31)
    for _ in range(25):
        theta = random_vector(spec, rng)[:-1]
        if spec.encoding == "angle_rx":
            norm = FeatureNormalizer(spec.n_qubits)
            x = rng.normal(size=spec.n_qubits)
            norm.observe(x[None])
        else:
            norm, x = None, random_state(rng, 1)
        action = int(rng.integers(spec.n_actions))
        got = shift_gradients(spec, theta, input_rows(spec, x, norm))[0, :, action]
        want = fd_preference(spec, theta, x, action, norm)
        np.testing.assert_allclose(got, want, atol=1e-6)


@pytest.mark.parametrize("spec", [layered(2, 2, 2), U3_SPEC])
def test_grad_log_policy_matches_finite_differences(spec):
    rng = np.random.default_rng(32)
    for _ in range(20):
        vec = random_vector(spec, rng)
        if spec.encoding == "angle_rx":
            norm = FeatureNormalizer(spec.n_qubits)
            x = rng.normal(size=spec.n_qubits)
            norm.observe(x[None])
        else:
            norm, x = None, random_state(rng, 1)
        action = int(rng.integers(spec.n_actions))
        got = grad_log(QuantumPolicy(spec, vec, norm), feature_row(spec, x), action)
        want = fd_log_policy(spec, vec, x, action, norm)
        np.testing.assert_allclose(got, want, atol=1e-6)


@pytest.mark.parametrize("spec", [layered(3, 2, 2), U3_SPEC])
def test_score_identity(spec):
    # sum_a pi(a) * grad log pi(a) = 0 for every component.
    rng = np.random.default_rng(33)
    for _ in range(25):
        vec = random_vector(spec, rng)
        if spec.encoding == "angle_rx":
            norm = FeatureNormalizer(spec.n_qubits)
            x = rng.normal(size=spec.n_qubits)
            norm.observe(x[None])
        else:
            norm, x = None, random_state(rng, 1)
        probs = softmax_policy(oracle_preferences(spec, vec[:-1], x, norm), vec[-1])
        glogs = QuantumPolicy(spec, vec, norm).grad_log_batch(
            np.stack([feature_row(spec, x)] * spec.n_actions), np.arange(spec.n_actions))
        np.testing.assert_allclose(probs @ glogs, 0.0, atol=1e-8)


def test_grad_log_beta_entry_zero_under_symmetry():
    # identical preferences across actions make the beta derivative vanish
    policy = QuantumPolicy(U3_SPEC, np.append(np.zeros(U3_SPEC.n_params), 1.3))
    plus = oracle.Statevector(1, np.array([1, 1], dtype=complex) / np.sqrt(2))
    g = grad_log(policy, feature_row(U3_SPEC, plus), 0)
    assert g[-1] == pytest.approx(0.0, abs=1e-12)


def adjoint_case(spec, rng, t):
    """Random angles, T input rows and per-row observable weights."""
    theta = random_vector(spec, rng)[:-1]
    if spec.encoding == "angle_rx":
        enc = encoded_rows(rng.uniform(-np.pi, np.pi, size=(t, spec.n_qubits)))
    else:
        enc = np.stack([random_state(rng, spec.n_qubits).amplitudes for _ in range(t)])
    return theta, enc, rng.normal(size=(t, spec.n_actions))


def output_rows(spec, theta, enc):
    """The circuit's output rows, applied gate by gate in the oracle's layout."""
    return oracle.apply_circuit(oracle.Statevector(spec.n_qubits, enc),
                                ansatz_gates(spec, theta)).amplitudes


@pytest.mark.parametrize("spec, t", [(layered(1, 2, 1), 9), (layered(4, 3, 2), 40),
                                     (layered(6, 4, 3), 30), (layered(8, 1, 2), 3),
                                     (U3_SPEC, 20)])
def test_adjoint_matches_parameter_shift(spec, t):
    # The adjoint theta block is the shift gradient contracted with the same weights.
    theta, enc, weights = adjoint_case(spec, np.random.default_rng(40), t)
    rows = output_rows(spec, theta, enc)
    lam = rows * vqpolicy._observable_diagonals(spec, weights)
    got = vqpolicy.adjoint_gradients(spec, theta, rows, lam)
    want = np.einsum("tka,ta->tk", shift_gradients(spec, theta, enc), weights)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_adjoint_chunks_match_single_rows():
    spec = layered(3, 2, 2)
    t = vqpolicy.CHUNK_ROWS + 7
    theta, enc, weights = adjoint_case(spec, np.random.default_rng(41), t)
    rows = output_rows(spec, theta, enc)
    lam = rows * vqpolicy._observable_diagonals(spec, weights)
    batch = vqpolicy.adjoint_gradients(spec, theta, rows, lam)
    assert batch.shape == (t, spec.n_params)
    for i in range(t):
        single = vqpolicy.adjoint_gradients(spec, theta, rows[i:i + 1], lam[i:i + 1])
        np.testing.assert_allclose(batch[i], single[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("spec, t", [(U3_SPEC, 20), (layered(8, 4, 2), 12),
                                     (layered(3, 2, 2), vqpolicy.CHUNK_ROWS + 7)])
def test_weighted_grad_log_matches_contracted_batch(spec, t):
    # The operator sweep equals the advantage-weighted sum of the per-row
    # adjoint gradients, across chunk boundaries and without an encoding.
    rng = np.random.default_rng(42)
    policy = QuantumPolicy(spec, random_vector(spec, rng))
    if spec.encoding == "angle_rx":
        obs = rng.normal(size=(t, spec.n_qubits))
        policy.normalizer.observe(obs)
    else:
        obs = np.stack([qsim.amplitude_features(random_state(rng, spec.n_qubits).amplitudes)
                        for _ in range(t)])
    actions = rng.integers(spec.n_actions, size=t)
    adv = rng.normal(size=t)
    want = adv @ policy.grad_log_batch(obs, actions)
    got = policy.weighted_grad_log(obs, actions, adv)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_shot_weighted_grad_log_is_the_contracted_batch():
    # Shot mode draws what `grad_log_batch` draws, in the same order.
    rng = np.random.default_rng(43)
    spec = layered(2, 2, 2)
    policy = QuantumPolicy(spec, random_vector(spec, rng), shots=100)
    obs = rng.normal(size=(15, 2))
    policy.normalizer.observe(obs)
    actions = rng.integers(spec.n_actions, size=15)
    adv = rng.normal(size=15)
    want = adv @ policy.grad_log_batch(obs, actions, np.random.default_rng(5))
    got = policy.weighted_grad_log(obs, actions, adv, np.random.default_rng(5))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("row_numbers, size", [(1, 2**15), (64, 512), (384, 64), (512, 64),
                                               (2048, 16), (2**15, 2), (2**16, 2)])
def test_row_blocks_are_capped_powers_of_two_that_leave_no_lone_row(row_numbers, size):
    # 384 numbers a row is the encode's gather at 6 qubits, 512 the sweep's
    # pair at 8; a lone last row joins the block before it.
    for rows in range(1, 600):
        blocks = vqpolicy.row_blocks(rows, row_numbers)
        stops = [block.stop for block in blocks]
        assert [block.start for block in blocks] == [0, *stops[:-1]] and stops[-1] == rows
        sizes = np.diff([0, *stops])
        assert np.all(sizes[:-1] == size) and sizes[-1] <= size + 1
        assert sizes[-1] >= 2 or rows == 1


def chunk_specs():
    """Layered circuits of 1-8 qubits, and single_u3 on input states."""
    layered_specs = st.integers(1, 8).flatmap(
        lambda n: st.builds(layered, st.just(n), st.integers(1, 3), st.integers(1, n)))
    return st.one_of(layered_specs, st.just(U3_SPEC))


@pytest.mark.parametrize("t", [1, 65, 255, 256, 257, 321, 513])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(spec=chunk_specs(), seed=st.integers(0, 2**32 - 1))
@example(spec=layered(8, 2, 3), seed=0)
def test_streamed_gradients_give_the_whole_batch_bits(t, spec, seed):
    # The gradients take one pass over row chunks and hold no (T, 2**n)
    # array, yet give every bit of the terms formed over the whole batch. The
    # normalizer has seen only the first rows and the last row is the widest,
    # so the encode scale must be widened over all T rows, not per chunk. At
    # 7 and 8 qubits the sweep walks its pairs in blocks of 128 or 64 rows,
    # and T = 65 or 321 would leave a lone row after the last full block;
    # T = 257 or 513 would leave a lone last chunk, so it joins the chunk
    # before it, and each row keeps the bits of one sweep over all T.
    rng = np.random.default_rng(seed)
    policy = QuantumPolicy(spec, random_vector(spec, rng))
    if spec.encoding == "angle_rx":
        obs = rng.normal(size=(t, spec.n_qubits))
        policy.normalizer.observe(obs[: (t + 1) // 2])
        obs[-1] = 2 * np.abs(obs).max(axis=0)
    else:
        obs = np.stack([qsim.amplitude_features(random_state(rng, spec.n_qubits).amplitudes)
                        for _ in range(t)])
    actions = rng.integers(spec.n_actions, size=t)
    adv = rng.normal(size=t)
    got = policy.grad_log_batch(obs, actions)
    assert got.tobytes() == oracle.batch_grad_log(policy, obs, actions).tobytes()
    got = policy.weighted_grad_log(obs, actions, adv)
    assert got.tobytes() == oracle.batch_weighted_grad_log(policy, obs, actions, adv).tobytes()


def test_gradients_reject_an_action_count_mismatch():
    spec = layered(2, 1, 2)
    policy = QuantumPolicy(spec, random_vector(spec, np.random.default_rng(44)))
    obs = np.ones((3, 2))
    for actions in ([0, 1], [0, 1, 1, 0], [[0, 1, 1]]):
        with pytest.raises(ContractError):
            policy.grad_log_batch(obs, actions)
        with pytest.raises(ContractError):
            policy.weighted_grad_log(obs, actions, np.ones(3))
    for adv in (np.ones(2), np.ones(4)):
        with pytest.raises(ValueError):
            policy.weighted_grad_log(obs, [0, 1, 1], adv)


# ---------------------------------------------------------------------------
# QuantumPolicy wrapper
# ---------------------------------------------------------------------------

def test_policy_batch_grads_match_single():
    rng = np.random.default_rng(34)
    spec = layered(3, 2, 3)
    policy = QuantumPolicy(spec, random_vector(spec, rng))
    obs = [rng.normal(size=3) for _ in range(7)]
    for o in obs:
        policy.normalizer.observe(o[None])
    actions = rng.integers(spec.n_actions, size=7)
    batch = policy.grad_log_batch(obs, actions)
    for i, (o, a) in enumerate(zip(obs, actions)):
        np.testing.assert_allclose(batch[i], grad_log(policy, o, int(a)), atol=1e-10)


def test_policy_probabilities_match_direct_evaluation():
    rng = np.random.default_rng(35)
    spec = layered(4, 3, 2)
    vec = random_vector(spec, rng)
    policy = QuantumPolicy(spec, vec)
    x = rng.normal(size=4)
    probs = policy.probabilities(x[None], None, policy.normalizer.widened(x[None]))[0]
    direct = softmax_policy(oracle_preferences(spec, vec[:-1], x, policy.normalizer), vec[-1])
    np.testing.assert_allclose(probs, direct, atol=1e-12)


def test_final_rotations_on_unmeasured_qubits_are_irrelevant():
    # Preferences read only qubits 0..|A|-1, so rotations appended after the
    # ansatz on any unmeasured qubit must leave them unchanged.
    spec = layered(4, 2, 2)
    rng = np.random.default_rng(36)
    theta = random_vector(spec, rng)[:-1]
    norm = FeatureNormalizer(4)
    x = rng.normal(size=4)
    norm.observe(x[None])
    base = row_preferences(spec, theta, input_rows(spec, x, norm))[0]
    state = oracle.apply_circuit(encode_gates(x, norm), ansatz_gates(spec, theta))
    for q in (2, 3):
        state = oracle.apply_gate(state, Gate("RY", (0.7,), q))
        state = oracle.apply_gate(state, Gate("RZ", (-0.4,), q))
    perturbed = np.array([oracle.expectation_z(state, q) for q in range(spec.n_actions)])
    np.testing.assert_allclose(perturbed, base, atol=1e-10)


def test_shot_mode_converges_to_exact():
    rng = np.random.default_rng(37)
    spec = layered(2, 2, 2)
    theta = random_vector(spec, rng)[:-1]
    norm = FeatureNormalizer(2)
    x = rng.normal(size=2)
    norm.observe(x[None])
    enc = input_rows(spec, x, norm)
    exact = row_preferences(spec, theta, enc)
    for seed in range(8):
        est = row_preferences(spec, theta, enc, shots=10**5, rng=np.random.default_rng(seed))
        assert np.max(np.abs(est - exact)) < 0.02


def test_shot_grad_log_batch_converges_to_exact():
    # Batched shot-mode gradients scatter around the exact ones; averaged over
    # 100 seeds at 1e4 shots the standard error is about 1e-3 per entry.
    rng = np.random.default_rng(39)
    spec = layered(2, 2, 2)
    vec = random_vector(spec, rng)
    obs = [rng.normal(size=2) for _ in range(4)]
    actions = rng.integers(spec.n_actions, size=4)
    exact_policy = QuantumPolicy(spec, vec)
    exact = exact_policy.grad_log_batch(obs, actions)
    shot_policy = QuantumPolicy(spec, vec, exact_policy.normalizer, shots=10**4)
    draws = np.stack([shot_policy.grad_log_batch(obs, actions, np.random.default_rng(seed))
                      for seed in range(100)])
    assert np.all(np.abs(draws[0] - exact) > 0)  # every entry carries shot noise
    np.testing.assert_allclose(draws.mean(axis=0), exact, atol=5e-3)


def test_row_operator_cache_follows_theta(monkeypatch):
    # The row operator is built at the first use after construction or
    # `set_vector`, once however often it is used, and never by `set_vector`
    # itself: a vector replaced before any use costs no build.
    builds = []
    build = qsim.circuit_row_operator
    monkeypatch.setattr(qsim, "circuit_row_operator",
                        lambda *args: builds.append(1) or build(*args))
    rng = np.random.default_rng(44)
    spec = layered(3, 2, 2)
    policy = QuantumPolicy(spec, random_vector(spec, rng))
    x = rng.normal(size=3)

    def probabilities():  # as a fresh normalizer's maxima widened over x
        return policy.probabilities(x[None], None, policy.normalizer.widened(x[None]))[0]

    assert not builds
    first = probabilities()
    probabilities()
    assert len(builds) == 1
    source = random_vector(spec, rng)
    policy.set_vector(source)
    source[0] += 1.0  # the policy holds its own copy
    assert len(builds) == 1
    replaced = probabilities()
    policy.grad_log_batch([x], [0])
    policy.weighted_grad_log(np.array([x]), [1], np.ones(1))
    assert len(builds) == 2
    want = softmax_policy(oracle_preferences(spec, policy.theta, x, policy.normalizer),
                          policy.beta)
    np.testing.assert_allclose(replaced, want, atol=1e-12)
    assert not np.allclose(first, replaced)
    policy.set_vector(random_vector(spec, rng))
    policy.set_vector(random_vector(spec, rng))
    probabilities()
    probabilities()
    assert len(builds) == 3


def test_theta_is_a_read_only_part_of_the_vector():
    # theta cannot be written in place, so only `set_vector` changes the
    # angles the cached operator was built for.
    rng = np.random.default_rng(45)
    spec = layered(2, 1, 2)
    vec = random_vector(spec, rng)
    policy = QuantumPolicy(spec, vec)
    assert policy.theta.tobytes() == vec[:-1].tobytes() and policy.beta == vec[-1]
    with pytest.raises(ValueError):
        policy.theta[0] += 0.1
    got = policy.get_vector()
    got[0] += 1.0  # a copy: the policy is unchanged
    assert policy.get_vector().tobytes() == vec.tobytes()


@pytest.mark.parametrize("bad", [
    [0.0, 0.0, 0.0, 0.0, np.nan], [np.inf, 0.0, 0.0, 0.0, 1.0],  # not finite
    np.zeros((5, 1)), np.zeros((1, 5)),  # not 1-d
    np.zeros(4), np.zeros(6),  # wrong length: 4 angles and beta make 5
])
def test_set_vector_rejects_bad_vectors(bad):
    spec = layered(2, 1, 2)
    with pytest.raises(ContractError):
        QuantumPolicy(spec, bad)
    policy = QuantumPolicy(spec, np.arange(5.0))
    with pytest.raises(ContractError):
        policy.set_vector(bad)
    assert policy.get_vector().tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_a_non_finite_vector_is_named_by_its_entries_not_its_shape():
    # A wrong shape is named; a right shape with non-finite entries names
    # how many there are and the first one's index.
    with pytest.raises(ContractError, match=r"must be 5 finite numbers, got shape \(4,\)"):
        vqpolicy.checked_vector(np.zeros(4), 5)
    vec = np.zeros(9)
    vec[[3, 7]] = np.inf, np.nan
    with pytest.raises(ContractError, match="2 non-finite, the first at index 3$") as refused:
        vqpolicy.checked_vector(vec, 9)
    assert "shape" not in str(refused.value)


def test_checkpoint_roundtrip():
    # through JSON text, as `qpolgrad run` writes checkpoint.json; a resumed
    # run needs the very bits back
    rng = np.random.default_rng(38)
    spec = layered(4, 3, 2)
    policy = QuantumPolicy(spec, random_vector(spec, rng))
    policy.normalizer.observe(rng.normal(size=(5, 4)))
    text = json.dumps(policy.to_checkpoint(), indent=1)
    loaded = QuantumPolicy.from_checkpoint(json.loads(text))
    assert loaded.get_vector().tobytes() == policy.get_vector().tobytes()
    assert (loaded.normalizer.running_abs_max.tobytes()
            == policy.normalizer.running_abs_max.tobytes())
    assert loaded.spec == policy.spec
    x = rng.normal(size=(3, 4))
    assert (loaded.probabilities(x, None, loaded.normalizer.widened(x)).tobytes()
            == policy.probabilities(x, None, policy.normalizer.widened(x)).tobytes())


def test_checkpoint_field_names():
    policy = QuantumPolicy(U3_SPEC, [0.0, 0.0, 0.0, 1.0])
    assert set(policy.to_checkpoint()) == {"theta", "beta", "norm_abs_max", "spec"}


def test_spec_validation():
    with pytest.raises(ContractError):
        CircuitSpec(2, 1, 3, "layered", "angle_rx")  # more actions than qubits
    with pytest.raises(ContractError):
        CircuitSpec(2, 1, 2, "single_u3", "none")  # single_u3 is one qubit
    with pytest.raises(ContractError):
        CircuitSpec(1, 1, 2, "ring", "angle_rx")


def assert_written_into_out(a, b, want):
    """`serial_matmul(a, b, out=)` returns `out`, the leading rows of a
    larger C-ordered array as the MLP's chunk arrays are, holding `want`'s
    bytes, and writes no other row."""
    buffer = np.full((len(a) + 3, want.shape[1]), np.nan, dtype=want.dtype)
    out = buffer[:len(a)]
    assert serial_matmul(a, b, out=out) is out and out.tobytes() == want.tobytes()
    assert np.isnan(buffer[len(a):]).all()


def assert_rows_keep_their_bits(a, b, rng):
    """Each row of `serial_matmul(a, b)` has the bits it has in any batch:
    alone, in a pair with another row, in sub-batches, shuffled, with `a`
    in Fortran order and written into `out`."""
    full = serial_matmul(a, b)
    assert_written_into_out(a, b, full)
    for i in rng.choice(len(a), size=min(len(a), 5), replace=False):
        lone, pair = a[i:i + 1], np.concatenate([a[i:i + 1], a[i:i + 1, ::-1]])
        assert serial_matmul(lone, b).tobytes() == full[i:i + 1].tobytes()
        assert serial_matmul(lone, b).tobytes() == serial_matmul(pair, b)[:1].tobytes()
        assert_written_into_out(lone, b, full[i:i + 1])
    for size in {2, 3, 10, len(a)}:
        index = rng.permutation(len(a))[:size]
        assert serial_matmul(a[index], b).tobytes() == full[index].tobytes()
    assert serial_matmul(np.asfortranarray(a), b).tobytes() == full.tobytes()


@pytest.mark.parametrize("m, k, n", [(1, 16, 16), (2, 64, 64), (37, 64, 64), (5000, 64, 64),
                                     (64, 256, 64), (5, 256, 256),
                                     (10, 2, 2), (10, 16, 16), (10, 64, 64)])
def test_serial_matmul_keeps_every_complex_row_bit(m, k, n):
    # Inference multiplies (B, 2**n) encoded rows by the (2**n, 2**n) row
    # operator; the presets run B = 10 at n = 1, 4 and 6.
    rng = np.random.default_rng(m)
    a = rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))
    b = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
    assert_rows_keep_their_bits(a, b, rng)


@pytest.mark.parametrize("m, k, n", [(2000, 2, 128), (5000, 3, 32), (100, 2, 16),
                                     (1, 4, 128), (10, 4, 128), (2000, 4, 128), (10, 6, 32),
                                     (5000, 6, 32), (10, 4, 16), (100, 4, 16)])
def test_serial_matmul_keeps_every_real_row_bit(m, k, n):
    # One row per step of a batch, at the cartpole-, acrobot- and
    # qcontrol-classical widths, 10-row rollout steps and batch lengths: the
    # MLP backward pass's delta @ W (k = |A|) and its input layer x @ W0.T
    # (k = n_features), whose right operand is a transposed (n, k) weight.
    rng = np.random.default_rng(m)
    a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
    assert_rows_keep_their_bits(a, b, rng)
    assert_rows_keep_their_bits(a, np.asfortranarray(b), rng)


@pytest.mark.parametrize("m, k, n", [(128, 2000, 4), (2, 2000, 128), (3, 2000, 128),
                                     (5000, 2, 128), (49, 5000, 49), (1, 3, 5)])
def test_serial_matmul_matches_the_real_product(m, k, n):
    # Against a long-double product, which numpy computes without BLAS, within
    # the error bound of a k-term float64 dot product.
    rng = np.random.default_rng(k)
    a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
    got = serial_matmul(a, b)
    assert got.shape == (m, n) and got.dtype == np.float64
    exact = a.astype(np.longdouble) @ b.astype(np.longdouble)
    bound = k * np.finfo(float).eps * (np.abs(a) @ np.abs(b))
    assert np.all(np.abs(got - exact) <= bound)
