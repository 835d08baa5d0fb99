import json

import numpy as np
import pytest

from qpolgrad import classical
from qpolgrad.classical import MlpPolicy, MlpSpec, preset
from qpolgrad.errors import ConfigError, ContractError
from qpolgrad.reinforce import init_mlp_params
from qpolgrad.vqpolicy import CHUNK_ROWS, softmax_policy

from conftest import (allocating_mlp_grad_log_batch, allocating_mlp_weighted_grad_log, grad_log,
                      traced_peak)


def glorot(spec, rng):
    """A Glorot-normal trainable vector, as the presets initialize it."""
    return init_mlp_params({"kind": "glorot_normal"}, spec, rng)


def eval_preferences(weights, x):
    """The eval-mode (dropout-free) forward's preferences of (T, n) rows, as
    `MlpPolicy.probabilities` forms them."""
    hidden = classical._hidden_arrays(weights, len(x))
    return classical._forward_cached(weights, x, 0.0, None, hidden, None)[0]


def test_preset_shapes_and_parameter_counts():
    assert preset("cartpole").layer_sizes == (4, 128, 2)
    assert preset("acrobot").layer_sizes == (6, 32, 3)
    assert preset("qcontrol").layer_sizes == (4, 16, 2)
    assert preset("cartpole").n_params == 768
    assert preset("acrobot").n_params == 288
    assert preset("qcontrol").n_params == 96


def test_preset_unknown_name():
    with pytest.raises(ConfigError):
        preset("lunarlander")


def test_spec_validation():
    with pytest.raises(ContractError):
        MlpSpec((4,))
    with pytest.raises(ContractError):
        MlpSpec((4, 2), dropout_p=1.0)


def test_zero_weights_give_uniform_policy():
    spec = MlpSpec((4, 8, 3))
    weights = MlpPolicy(spec, np.zeros(spec.n_params)).weights
    prefs = eval_preferences(weights, np.array([[1.0, -2.0, 0.5, 3.0]]))[0]
    np.testing.assert_allclose(prefs, np.zeros(3))
    np.testing.assert_allclose(softmax_policy(prefs, 1.0), np.full(3, 1 / 3))


def test_scalar_chain_hand_evaluation():
    # 1-1-1 net, hidden weight 2, output weight w: input 3 -> relu(6) -> 6w
    spec = MlpSpec((1, 1, 1))
    for w_out in (0.5, -1.25):
        out = eval_preferences([np.array([[2.0]]), np.array([[w_out]])], np.array([[3.0]]))[0]
        assert out[0] == pytest.approx(6.0 * w_out)


def test_flatten_roundtrip():
    # `set_vector` splits the flat vector layer by layer into (n_out, n_in)
    # matrices, and `get_vector` flattens them back
    rng = np.random.default_rng(0)
    spec = preset("acrobot")
    vec = glorot(spec, rng)
    policy = MlpPolicy(spec, vec)
    assert [w.shape for w in policy.weights] == [(32, 6), (3, 32)]
    np.testing.assert_array_equal(policy.weights[1], vec[6 * 32:].reshape(3, 32))
    flat = policy.get_vector()
    assert flat.shape == (288,) and flat.tobytes() == vec.tobytes()
    vec[0] += 1.0  # the policy holds its own copy
    assert policy.get_vector().tobytes() == flat.tobytes()


@pytest.mark.parametrize("bad", [
    np.full(20, np.nan), np.append(np.zeros(19), -np.inf),  # not finite
    np.zeros((20, 1)), np.zeros((4, 5)),  # not 1-d
    np.zeros(19), np.zeros(21),  # wrong length: 3 * 4 + 4 * 2 weights
])
def test_set_vector_rejects_bad_vectors(bad):
    spec = MlpSpec((3, 4, 2))
    with pytest.raises(ContractError):
        MlpPolicy(spec, bad)
    policy = MlpPolicy(spec, np.arange(20.0))
    with pytest.raises(ContractError):
        policy.set_vector(bad)
    assert policy.get_vector().tolist() == list(range(20))


def fd_log_policy(spec, flat, x, action, h=1e-5):
    g = np.empty_like(flat)
    for j in range(len(flat)):
        up = flat.copy()
        up[j] += h
        dn = flat.copy()
        dn[j] -= h
        lp_up = np.log(MlpPolicy(spec, up).probabilities(x[None], None, None)[0, action])
        lp_dn = np.log(MlpPolicy(spec, dn).probabilities(x[None], None, None)[0, action])
        g[j] = (lp_up - lp_dn) / (2 * h)
    return g


def test_backward_matches_finite_differences_small_net():
    # (4, 2) has no hidden layer.
    rng = np.random.default_rng(1)
    for spec in (MlpSpec((4, 3, 2)), MlpSpec((4, 2))):
        for _ in range(100):
            vec = glorot(spec, rng)
            x = rng.normal(size=4)
            action = int(rng.integers(2))
            got = grad_log(MlpPolicy(spec, vec), x, action)
            want = fd_log_policy(spec, vec, x, action)
            assert np.max(np.abs(got - want)) < 1e-6


@pytest.mark.parametrize("name", ["cartpole", "acrobot", "qcontrol"])
def test_backward_matches_finite_differences_presets(name):
    rng = np.random.default_rng(2)
    spec = preset(name)
    for _ in range(3):
        vec = glorot(spec, rng)
        x = rng.normal(size=spec.layer_sizes[0])
        action = int(rng.integers(spec.layer_sizes[-1]))
        got = grad_log(MlpPolicy(spec, vec), x, action)
        want = fd_log_policy(spec, vec, x, action)
        assert np.max(np.abs(got - want)) < 1e-6


def test_no_hidden_layer_matches_finite_differences_across_a_chunk_boundary():
    # (4, 2) has no hidden layer, as `hidden_sizes: []` configures: its
    # forward is x @ W.T, and its pass has no hidden array to write.
    rng = np.random.default_rng(12)
    spec = MlpSpec((4, 2))
    vec = glorot(spec, rng)
    policy = MlpPolicy(spec, vec)
    t = CHUNK_ROWS + 7
    obs, actions, adv = rng.normal(size=(t, 4)), rng.integers(2, size=t), rng.normal(size=t)
    np.testing.assert_allclose(eval_preferences(policy.weights, obs), obs @ policy.weights[0].T,
                               rtol=1e-14, atol=1e-15)

    def log_pi(v):
        return np.log(MlpPolicy(spec, v).probabilities(obs, None, None)[np.arange(t), actions])

    h, fd = 1e-5, np.empty((t, spec.n_params))
    for j in range(spec.n_params):
        step = np.zeros(spec.n_params)
        step[j] = h
        fd[:, j] = (log_pi(vec + step) - log_pi(vec - step)) / (2 * h)
    np.testing.assert_allclose(policy.grad_log_batch(obs, actions), fd, rtol=0, atol=1e-6)
    np.testing.assert_allclose(policy.weighted_grad_log(obs, actions, adv), adv @ fd,
                               rtol=0, atol=1e-6 * np.abs(adv).sum())


def test_symmetric_output_rows_give_opposite_output_gradients():
    # identical output rows -> pi = (1/2, 1/2); the output-layer block of
    # grad log pi(a0) is the negative of grad log pi(a1)
    rng = np.random.default_rng(3)
    spec = MlpSpec((3, 5, 2))
    w1 = rng.normal(size=(5, 3))
    row = rng.normal(size=5)
    policy = MlpPolicy(spec, np.concatenate([w1.ravel(), row, row]))
    x = rng.normal(size=3)
    g0 = grad_log(policy, x, 0)[-10:].reshape(2, 5)
    g1 = grad_log(policy, x, 1)[-10:].reshape(2, 5)
    np.testing.assert_allclose(g0, -g1, atol=1e-12)


def test_zero_input_zeroes_first_layer_gradient():
    rng = np.random.default_rng(4)
    spec = MlpSpec((4, 6, 2))
    g = grad_log(MlpPolicy(spec, glorot(spec, rng)), np.zeros(4), 1)
    np.testing.assert_array_equal(g[: 4 * 6], np.zeros(24))


def test_eval_mode_is_deterministic_with_dropout_configured():
    rng = np.random.default_rng(5)
    spec = MlpSpec((4, 16, 2), dropout_p=0.2)
    weights = MlpPolicy(spec, glorot(spec, rng)).weights
    x = rng.normal(size=4)
    a = eval_preferences(weights, x[None])
    b = eval_preferences(weights, x[None])
    np.testing.assert_array_equal(a, b)


def test_dropout_expectation_matches_eval_forward():
    # inverted dropout is mean-preserving: averaging many outputs of the
    # training forward approaches the eval output, per output coordinate,
    # within 3 sigma
    rng = np.random.default_rng(6)
    spec = MlpSpec((4, 16, 2), dropout_p=0.2)
    weights = MlpPolicy(spec, glorot(spec, rng)).weights
    x = rng.normal(size=4)
    exact = eval_preferences(weights, x[None])[0]
    n = 10**4
    hidden, drops = classical._hidden_arrays(weights, 1), classical._hidden_arrays(weights, 1)
    draws = np.stack([classical._forward_cached(weights, x[None], spec.dropout_p, rng, hidden,
                                                drops)[0][0] for _ in range(n)])
    mean = draws.mean(axis=0)
    sem = draws.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(mean - exact) <= 3 * sem + 1e-12)


def test_train_mode_requires_rng_with_dropout():
    spec = MlpSpec((2, 3, 2), dropout_p=0.5)
    policy = MlpPolicy(spec, glorot(spec, np.random.default_rng(7)))
    with pytest.raises(ContractError):
        policy.grad_log_batch(np.zeros((1, 2)), [0])


def test_policy_batch_grads_match_single():
    rng = np.random.default_rng(8)
    spec = preset("qcontrol")
    policy = MlpPolicy(spec, glorot(spec, rng))
    obs = [rng.normal(size=4) for _ in range(6)]
    actions = rng.integers(2, size=6)
    batch = policy.grad_log_batch(obs, actions)
    for i, (o, a) in enumerate(zip(obs, actions)):
        np.testing.assert_allclose(batch[i], grad_log(policy, o, int(a)), atol=1e-12)


def chunk_pass_bytes(hidden, dropout_p) -> int:
    """What a gradient's pass may hold beside its result, whatever T: one
    (CHUNK_ROWS, hidden) array, which holds the activation and then the
    hidden delta written over it, the dropout mask if any, the boolean ReLU
    mask (an eighth of a float array), and (CHUNK_ROWS, |A|) arrays and
    einsum buffers (128 kB). No pre-activations, no delta beside its
    activation, no masked copies of the delta, nothing of the previous chunk
    and no (T, hidden) array."""
    arrays = 1 + (dropout_p > 0) + 1 / 8
    return int(arrays * CHUNK_ROWS * hidden * 8) + 2**17


def cartpole_net_inputs(t, dropout_p):
    spec = MlpSpec((4, 128, 2), dropout_p)
    rng = np.random.default_rng(9)
    policy = MlpPolicy(spec, glorot(spec, rng))
    return policy, rng.normal(size=(t, 4)), rng.integers(2, size=t), rng.normal(size=t)


@pytest.mark.parametrize("dropout_p", [0.0, 0.2])
def test_weighted_backward_holds_few_hidden_arrays(dropout_p):
    # The bound (0.43 or 0.69 MB) does not grow with T; one (2000, 128)
    # hidden array alone is 2 MB.
    for t in (2000, 20000):
        policy, obs, actions, adv = cartpole_net_inputs(t, dropout_p)
        stream = np.random.default_rng(1)
        peak = traced_peak(lambda: policy.weighted_grad_log(obs, actions, adv, stream))
        assert peak <= chunk_pass_bytes(128, dropout_p)


@pytest.mark.parametrize("dropout_p", [0.0, 0.2])
def test_per_sample_backward_holds_its_result_and_a_few_chunk_arrays(dropout_p):
    t = 2000
    policy, obs, actions, _ = cartpole_net_inputs(t, dropout_p)
    stream = np.random.default_rng(1)
    peak = traced_peak(lambda: policy.grad_log_batch(obs, actions, stream))
    assert peak <= t * policy.n_trainable * 8 + chunk_pass_bytes(128, dropout_p)


@pytest.mark.parametrize("sizes", [(4, 128, 2), (6, 32, 3), (4, 16, 16, 3)])
@pytest.mark.parametrize("dropout_p", [0.0, 0.3])
def test_pass_over_chunk_arrays_keeps_the_allocating_pass_bits(sizes, dropout_p):
    # Writing into arrays allocated once, each hidden delta over its
    # activation, runs every product and ufunc of the pass that allocates
    # per chunk, in the same order, and draws the same dropout masks.
    rng = np.random.default_rng(13)
    spec = MlpSpec(sizes, dropout_p)
    policy = MlpPolicy(spec, glorot(spec, rng))
    for t in (1, CHUNK_ROWS, CHUNK_ROWS + 7, 2000):
        obs, actions = rng.normal(size=(t, sizes[0])), rng.integers(sizes[-1], size=t)
        adv = rng.normal(size=t)
        streams = [np.random.default_rng(14) for _ in range(4)]
        got = policy.grad_log_batch(obs, actions, streams[0])
        assert got.tobytes() == allocating_mlp_grad_log_batch(policy, obs, actions,
                                                              streams[1]).tobytes()
        got = policy.weighted_grad_log(obs, actions, adv, streams[2])
        assert got.tobytes() == allocating_mlp_weighted_grad_log(policy, obs, actions, adv,
                                                                 streams[3]).tobytes()
        assert len({str(stream.bit_generator.state) for stream in streams}) == 1


def test_chunks_of_one_pass_share_their_arrays():
    policy, obs, actions, _ = cartpole_net_inputs(CHUNK_ROWS + 7, 0.2)
    chunks = [list(layers) for _, layers in policy._backward_chunks(obs, actions,
                                                                    np.random.default_rng(1))]
    assert [len(delta) for (delta, _), _ in chunks] == [CHUNK_ROWS, 7]
    (_, first_act), (first_delta, _) = chunks[0]
    (_, second_act), (second_delta, _) = chunks[1]
    assert np.shares_memory(first_act, second_act)
    # The hidden delta is written over the activation it came from.
    assert np.shares_memory(first_delta, first_act)
    assert np.shares_memory(second_delta, second_act)


def test_weighted_grad_log_matches_contracted_batch_with_dropout():
    # The weighted backward pass shares the forward pass and dropout masks:
    # on equal streams it draws the same masks (both streams end in the same
    # state) and contracts the same per-sample gradients, across a chunk
    # boundary.
    t = CHUNK_ROWS + 7
    rng = np.random.default_rng(10)
    spec = MlpSpec((4, 16, 16, 3), dropout_p=0.3)
    policy = MlpPolicy(spec, glorot(spec, rng))
    obs = rng.normal(size=(t, 4))
    actions = rng.integers(3, size=t)
    adv = rng.normal(size=t)
    stream, weighted_stream = np.random.default_rng(11), np.random.default_rng(11)
    want = adv @ policy.grad_log_batch(obs, actions, stream)
    got = policy.weighted_grad_log(obs, actions, adv, weighted_stream)
    assert stream.bit_generator.state == weighted_stream.bit_generator.state
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
    with pytest.raises(ContractError):
        policy.weighted_grad_log(obs, actions, adv)
    # A chunk would slice a longer action or weight vector short unseen.
    for bad_actions, bad_adv in ((actions, np.append(adv, 1.0)), (actions[:-1], adv[:-1])):
        with pytest.raises(ContractError):
            policy.weighted_grad_log(obs, bad_actions, bad_adv, np.random.default_rng(0))


def test_score_identity_classical():
    rng = np.random.default_rng(9)
    spec = MlpSpec((4, 8, 3))
    for _ in range(25):
        policy = MlpPolicy(spec, glorot(spec, rng))
        x = rng.normal(size=4)
        probs = policy.probabilities(x[None], None, None)[0]
        total = np.zeros(spec.n_params)
        for a in range(3):
            total += probs[a] * grad_log(policy, x, a)
        np.testing.assert_allclose(total, 0.0, atol=1e-8)


def test_checkpoint_roundtrip():
    # through JSON text, as `qpolgrad run` writes checkpoint.json
    rng = np.random.default_rng(10)
    spec = preset("cartpole")
    policy = MlpPolicy(spec, glorot(spec, rng))
    data = json.loads(json.dumps(policy.to_checkpoint(), indent=1))
    loaded = MlpPolicy.from_checkpoint(data)
    assert loaded.spec == policy.spec
    assert loaded.get_vector().tobytes() == policy.get_vector().tobytes()
    x = rng.normal(size=(3, 4))
    assert (loaded.probabilities(x, None, None).tobytes()
            == policy.probabilities(x, None, None).tobytes())
    assert set(data) == {"weights", "spec"}


def test_checkpoint_with_use_bias_key_still_loads():
    # Checkpoints written before MlpSpec dropped its never-supported
    # use_bias field carry "use_bias": false in their spec.
    rng = np.random.default_rng(11)
    spec = preset("qcontrol")
    policy = MlpPolicy(spec, glorot(spec, rng))
    data = policy.to_checkpoint()
    data["spec"]["use_bias"] = False
    loaded = MlpPolicy.from_checkpoint(json.loads(json.dumps(data)))
    assert loaded.spec == spec
    x = rng.normal(size=(1, 4))
    np.testing.assert_array_equal(loaded.probabilities(x, None, None),
                                  policy.probabilities(x, None, None))


def test_checkpoint_with_misshapen_weights_is_rejected():
    # transposed layers hold the right number of weights in the wrong places
    spec = MlpSpec((3, 4, 2))
    data = MlpPolicy(spec, np.arange(20.0)).to_checkpoint()
    data["weights"] = [np.transpose(w).tolist() for w in data["weights"]]
    with pytest.raises(ContractError):
        MlpPolicy.from_checkpoint(data)
