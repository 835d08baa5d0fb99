import numpy as np
import pytest

from qpolgrad import qsim, vqpolicy
from qpolgrad.errors import ContractError
from qpolgrad.vqpolicy import (
    CircuitSpec,
    FeatureNormalizer,
    PolicyParams,
    QuantumPolicy,
    build_ansatz,
    encoded_rows,
    row_preferences,
    shift_gradients,
    softmax_policy,
)

from conftest import encode_gates, oracle_preferences, random_state


def layered(n_qubits, n_layers, n_actions):
    return CircuitSpec(n_qubits, n_layers, n_actions, "layered", "angle_rx")


U3_SPEC = CircuitSpec(1, 1, 2, "single_u3", "none")


def random_params(spec, rng, beta=None):
    theta = rng.uniform(-np.pi, np.pi, size=spec.n_params)
    return PolicyParams(theta, float(beta if beta is not None else rng.normal(1.0, 0.1)))


def input_rows(spec, x, normalizer):
    """One already-observed input as a 1-row batch for the row-operator engine."""
    if spec.encoding == "angle_rx":
        return encoded_rows(normalizer.rescale(x)[None])
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
    norm.observe(np.array([1.0]))
    rows = encoded_rows(norm.rescale(np.array([[1.0]])))
    assert qsim.expectation_z(qsim.Statevector(1, rows[0]), 0) == pytest.approx(-1.0, abs=1e-12)


def test_encode_two_features_product_state():
    norm = FeatureNormalizer(2)
    norm.observe(np.array([1.0, 1.0]))
    state = qsim.Statevector(2, encoded_rows(norm.rescale(np.array([[1.0, -1.0]])))[0])
    assert qsim.expectation_z(state, 0) == pytest.approx(-1.0, abs=1e-12)
    assert qsim.expectation_z(state, 1) == pytest.approx(-1.0, abs=1e-12)


def test_normalizer_keeps_angles_in_range_and_is_monotone():
    rng = np.random.default_rng(0)
    norm = FeatureNormalizer(4)
    prev = norm.running_abs_max.copy()
    for _ in range(200):
        feats = rng.normal(scale=rng.uniform(0.01, 50), size=4)
        angles = norm.normalize(feats)
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


def test_encode_rejects_length_mismatch():
    spec = layered(2, 1, 2)
    policy = QuantumPolicy(spec, PolicyParams(np.zeros(spec.n_params), 1.0))
    with pytest.raises(ContractError):
        policy.probabilities(np.zeros(3))
    with pytest.raises(ContractError):
        policy.grad_log_batch(np.zeros((2, 3)), [0, 1])
    # an `encoding: none` policy reads a 1-qubit state as 4 floats
    u3_policy = QuantumPolicy(U3_SPEC, PolicyParams(np.zeros(3), 1.0))
    for width in (2, 3, 8):
        with pytest.raises(ContractError):
            u3_policy.probabilities(np.eye(width)[0])


# ---------------------------------------------------------------------------
# ansatz layout
# ---------------------------------------------------------------------------

def test_ansatz_gate_counts_and_cascade():
    spec = layered(4, 3, 2)
    params = PolicyParams(np.arange(spec.n_params, dtype=float), 1.0)
    gates = build_ansatz(spec, params)
    rotations = [g for g in gates if g.kind in ("RY", "RZ")]
    cnots = [g for g in gates if g.kind == "CNOT"]
    assert len(rotations) == 24
    assert len(cnots) == 12
    # layer 1: targets are controls shifted by 1 mod 4
    layer1 = cnots[:4]
    assert [(g.control, g.target) for g in layer1] == [(0, 1), (1, 2), (2, 3), (3, 0)]
    # parameters consumed in layer-major, qubit-major, RY-then-RZ order
    assert rotations[0].kind == "RY" and rotations[0].angles == (0.0,)
    assert rotations[1].kind == "RZ" and rotations[1].angles == (1.0,)
    assert rotations[2].target == 1


def test_ansatz_single_qubit_has_no_entanglers():
    spec = CircuitSpec(1, 5, 1, "layered", "angle_rx")
    gates = build_ansatz(spec, PolicyParams(np.zeros(10), 1.0))
    assert all(g.kind != "CNOT" for g in gates)
    assert len(gates) == 10


def test_ansatz_skips_self_loop_layers():
    # layer index equal to n modulo n would entangle a qubit with itself
    spec = layered(2, 2, 2)
    gates = build_ansatz(spec, PolicyParams(np.zeros(8), 1.0))
    cnots = [g for g in gates if g.kind == "CNOT"]
    assert [(g.control, g.target) for g in cnots] == [(0, 1), (1, 0)]


def test_single_u3_zero_angles_is_identity():
    gates = build_ansatz(U3_SPEC, PolicyParams(np.zeros(3), 1.0))
    assert len(gates) == 1
    np.testing.assert_allclose(gates[0].matrix(), np.eye(2), atol=1e-12)


def test_ansatz_rejects_wrong_parameter_count():
    with pytest.raises(ContractError):
        build_ansatz(layered(4, 3, 2), PolicyParams(np.zeros(7), 1.0))


# ---------------------------------------------------------------------------
# preferences and softmax
# ---------------------------------------------------------------------------

def test_preferences_identity_circuit():
    spec = layered(4, 3, 2)
    params = PolicyParams(np.zeros(spec.n_params), 1.0)
    prefs = row_preferences(spec, params, encoded_rows(np.zeros((1, 4))))
    np.testing.assert_allclose(prefs, [[1.0, 1.0]], atol=1e-12)


def test_preferences_single_u3_equator():
    params = PolicyParams(np.array([np.pi / 2, 0.0, 0.0]), 1.0)
    prefs = row_preferences(U3_SPEC, params, qsim.init_zero(1).amplitudes[None])
    np.testing.assert_allclose(prefs, [[0.0, 0.0]], atol=1e-12)


def test_preferences_single_u3_sign_pair():
    one = np.array([[0, 1]], dtype=complex)
    params = PolicyParams(np.zeros(3), 1.0)
    prefs = row_preferences(U3_SPEC, params, one)
    np.testing.assert_allclose(prefs, [[-1.0, 1.0]], atol=1e-12)


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

def fd_preference(spec, params, x, action, normalizer, h=1e-5):
    g = np.empty(spec.n_params)
    for j in range(spec.n_params):
        th = params.theta.copy()
        th[j] += h
        up = oracle_preferences(spec, PolicyParams(th, params.beta), x, normalizer)[action]
        th[j] -= 2 * h
        dn = oracle_preferences(spec, PolicyParams(th, params.beta), x, normalizer)[action]
        g[j] = (up - dn) / (2 * h)
    return g


def fd_log_policy(spec, params, x, action, normalizer, h=1e-5):
    vec = params.vector()
    g = np.empty(len(vec))
    for j in range(len(vec)):
        for sign in (+1, -1):
            v = vec.copy()
            v[j] += sign * h
            p = PolicyParams.from_vector(v)
            prefs = oracle_preferences(spec, p, x, normalizer)
            logp = np.log(softmax_policy(prefs, p.beta)[action])
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
    g0 = shift_gradients(spec, PolicyParams(np.array([0.0, 0.3]), 1.0), enc)
    assert g0[0, 0, 0] == pytest.approx(0.0, abs=1e-12)
    g1 = shift_gradients(spec, PolicyParams(np.array([np.pi / 2, 0.3]), 1.0), enc)
    assert g1[0, 0, 0] == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("spec", [layered(2, 2, 2), layered(3, 2, 3), U3_SPEC])
def test_parameter_shift_matches_finite_differences(spec):
    rng = np.random.default_rng(31)
    for _ in range(25):
        params = random_params(spec, rng)
        if spec.encoding == "angle_rx":
            norm = FeatureNormalizer(spec.n_qubits)
            x = rng.normal(size=spec.n_qubits)
            norm.observe(x)
        else:
            norm, x = None, random_state(rng, 1)
        action = int(rng.integers(spec.n_actions))
        got = shift_gradients(spec, params, input_rows(spec, x, norm))[0, :, action]
        want = fd_preference(spec, params, x, action, norm)
        np.testing.assert_allclose(got, want, atol=1e-6)


@pytest.mark.parametrize("spec", [layered(2, 2, 2), U3_SPEC])
def test_grad_log_policy_matches_finite_differences(spec):
    rng = np.random.default_rng(32)
    for _ in range(20):
        params = random_params(spec, rng)
        if spec.encoding == "angle_rx":
            norm = FeatureNormalizer(spec.n_qubits)
            x = rng.normal(size=spec.n_qubits)
            norm.observe(x)
        else:
            norm, x = None, random_state(rng, 1)
        action = int(rng.integers(spec.n_actions))
        got = QuantumPolicy(spec, params, norm).grad_log(feature_row(spec, x), action)
        want = fd_log_policy(spec, params, x, action, norm)
        np.testing.assert_allclose(got, want, atol=1e-6)


@pytest.mark.parametrize("spec", [layered(3, 2, 2), U3_SPEC])
def test_score_identity(spec):
    # sum_a pi(a) * grad log pi(a) = 0 for every component.
    rng = np.random.default_rng(33)
    for _ in range(25):
        params = random_params(spec, rng)
        if spec.encoding == "angle_rx":
            norm = FeatureNormalizer(spec.n_qubits)
            x = rng.normal(size=spec.n_qubits)
            norm.observe(x)
        else:
            norm, x = None, random_state(rng, 1)
        probs = softmax_policy(oracle_preferences(spec, params, x, norm), params.beta)
        glogs = QuantumPolicy(spec, params, norm).grad_log_batch(
            np.stack([feature_row(spec, x)] * spec.n_actions), np.arange(spec.n_actions))
        np.testing.assert_allclose(probs @ glogs, 0.0, atol=1e-8)


def test_grad_log_beta_entry_zero_under_symmetry():
    # identical preferences across actions make the beta derivative vanish
    params = PolicyParams(np.zeros(U3_SPEC.n_params), 1.3)
    plus = qsim.Statevector(1, np.array([1, 1], dtype=complex) / np.sqrt(2))
    g = QuantumPolicy(U3_SPEC, params).grad_log(feature_row(U3_SPEC, plus), 0)
    assert g[-1] == pytest.approx(0.0, abs=1e-12)


def adjoint_case(spec, rng, t):
    """Random angles, T input rows and per-row observable weights."""
    params = random_params(spec, rng)
    if spec.encoding == "angle_rx":
        enc = encoded_rows(rng.uniform(-np.pi, np.pi, size=(t, spec.n_qubits)))
    else:
        enc = np.stack([random_state(rng, spec.n_qubits).amplitudes for _ in range(t)])
    return params, enc, rng.normal(size=(t, spec.n_actions))


def output_rows(spec, params, enc):
    return enc @ qsim.circuit_row_operator(build_ansatz(spec, params), spec.n_qubits)


@pytest.mark.parametrize("spec, t", [(layered(1, 2, 1), 9), (layered(4, 3, 2), 40),
                                     (layered(6, 4, 3), 30), (layered(8, 1, 2), 3),
                                     (U3_SPEC, 20)])
def test_adjoint_matches_parameter_shift(spec, t):
    # The adjoint theta block is the shift gradient contracted with the same weights.
    params, enc, weights = adjoint_case(spec, np.random.default_rng(40), t)
    got = vqpolicy.adjoint_gradients(spec, params, output_rows(spec, params, enc), weights)
    want = np.einsum("tka,ta->tk", shift_gradients(spec, params, enc), weights)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_adjoint_chunks_match_single_rows():
    spec = layered(3, 2, 2)
    t = vqpolicy.ADJOINT_CHUNK_ROWS + 7
    params, enc, weights = adjoint_case(spec, np.random.default_rng(41), t)
    rows = output_rows(spec, params, enc)
    batch = vqpolicy.adjoint_gradients(spec, params, rows, weights)
    assert batch.shape == (t, spec.n_params)
    for i in range(t):
        single = vqpolicy.adjoint_gradients(spec, params, rows[i:i + 1], weights[i:i + 1])
        np.testing.assert_allclose(batch[i], single[0], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# QuantumPolicy wrapper
# ---------------------------------------------------------------------------

def test_policy_batch_grads_match_single():
    rng = np.random.default_rng(34)
    spec = layered(3, 2, 3)
    policy = QuantumPolicy(spec, random_params(spec, rng))
    obs = [rng.normal(size=3) for _ in range(7)]
    for o in obs:
        policy.normalizer.observe(o)
    actions = rng.integers(spec.n_actions, size=7)
    batch = policy.grad_log_batch(obs, actions)
    for i, (o, a) in enumerate(zip(obs, actions)):
        np.testing.assert_allclose(batch[i], policy.grad_log(o, int(a)), atol=1e-10)


def test_policy_probabilities_match_direct_evaluation():
    rng = np.random.default_rng(35)
    spec = layered(4, 3, 2)
    params = random_params(spec, rng)
    policy = QuantumPolicy(spec, params)
    x = rng.normal(size=4)
    probs = policy.probabilities(x)
    direct = softmax_policy(oracle_preferences(spec, params, x, policy.normalizer), params.beta)
    np.testing.assert_allclose(probs, direct, atol=1e-12)


def test_final_rotations_on_unmeasured_qubits_are_irrelevant():
    # Preferences read only qubits 0..|A|-1, so rotations appended after the
    # ansatz on any unmeasured qubit must leave them unchanged.
    spec = layered(4, 2, 2)
    rng = np.random.default_rng(36)
    params = random_params(spec, rng)
    norm = FeatureNormalizer(4)
    x = rng.normal(size=4)
    norm.observe(x)
    base = row_preferences(spec, params, input_rows(spec, x, norm))[0]
    state = qsim.apply_circuit(encode_gates(x, norm), build_ansatz(spec, params))
    for q in (2, 3):
        state = qsim.apply_gate(state, qsim.Gate("RY", (0.7,), q))
        state = qsim.apply_gate(state, qsim.Gate("RZ", (-0.4,), q))
    perturbed = np.array([qsim.expectation_z(state, q) for q in range(spec.n_actions)])
    np.testing.assert_allclose(perturbed, base, atol=1e-10)


def test_shot_mode_converges_to_exact():
    rng = np.random.default_rng(37)
    spec = layered(2, 2, 2)
    params = random_params(spec, rng)
    norm = FeatureNormalizer(2)
    x = rng.normal(size=2)
    norm.observe(x)
    enc = input_rows(spec, x, norm)
    exact = row_preferences(spec, params, enc)
    for seed in range(8):
        est = row_preferences(spec, params, enc, shots=10**5, rng=np.random.default_rng(seed))
        assert np.max(np.abs(est - exact)) < 0.02


def test_shot_grad_log_batch_converges_to_exact():
    # Batched shot-mode gradients scatter around the exact ones; averaged over
    # 100 seeds at 1e4 shots the standard error is about 1e-3 per entry.
    rng = np.random.default_rng(39)
    spec = layered(2, 2, 2)
    params = random_params(spec, rng)
    obs = [rng.normal(size=2) for _ in range(4)]
    actions = rng.integers(spec.n_actions, size=4)
    exact_policy = QuantumPolicy(spec, params)
    exact = exact_policy.grad_log_batch(obs, actions)
    shot_policy = QuantumPolicy(spec, params, exact_policy.normalizer, shots=10**4)
    draws = np.stack([shot_policy.grad_log_batch(obs, actions, np.random.default_rng(seed))
                      for seed in range(100)])
    assert np.all(np.abs(draws[0] - exact) > 0)  # every entry carries shot noise
    np.testing.assert_allclose(draws.mean(axis=0), exact, atol=5e-3)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(38)
    spec = layered(4, 3, 2)
    policy = QuantumPolicy(spec, random_params(spec, rng))
    policy.normalizer.observe(rng.normal(size=(5, 4)))
    path = tmp_path / "checkpoint.json"
    policy.save(path)
    loaded = QuantumPolicy.load(path)
    np.testing.assert_allclose(loaded.params.theta, policy.params.theta)
    assert loaded.params.beta == policy.params.beta
    np.testing.assert_allclose(loaded.normalizer.running_abs_max,
                               policy.normalizer.running_abs_max)
    assert loaded.spec == policy.spec
    x = rng.normal(size=4)
    np.testing.assert_allclose(loaded.probabilities(x), policy.probabilities(x), atol=1e-12)


def test_checkpoint_field_names(tmp_path):
    import json

    policy = QuantumPolicy(U3_SPEC, PolicyParams(np.zeros(3), 1.0))
    path = tmp_path / "ck.json"
    policy.save(path)
    data = json.loads(path.read_text())
    assert set(data) == {"theta", "beta", "norm_abs_max", "spec"}


def test_spec_validation():
    with pytest.raises(ContractError):
        CircuitSpec(2, 1, 3, "layered", "angle_rx")  # more actions than qubits
    with pytest.raises(ContractError):
        CircuitSpec(2, 1, 2, "single_u3", "none")  # single_u3 is one qubit
    with pytest.raises(ContractError):
        CircuitSpec(1, 1, 2, "ring", "angle_rx")
