import json
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    SCALAR_ENVS,
    batch_of,
    grad_log,
    init_zero,
    loop_baseline,
    normalizer_copy,
    rollout,
    sequential_batch,
    side_stream,
    traced_peak,
    trained_policy,
)
from qpolgrad import config as cfg
from qpolgrad import analysis, classical, cli, envs, qsim, reinforce, vqpolicy
from qpolgrad.envs import discounted_returns
from qpolgrad.errors import ConfigError, ContractError
from qpolgrad.reinforce import (
    AdamState,
    Batch,
    Trajectory,
    adam_step,
    baseline,
    init_params,
    policy_gradient,
    prepare,
    run_episodes,
    sample_actions,
    train,
)
from qpolgrad.vqpolicy import CircuitSpec, QuantumPolicy, softmax_policy

REFERENCE_MANIFEST = Path(__file__).resolve().parent.parent / "cp_s0" / "manifest.json"

def make_traj(rewards, gamma=1.0, actions=None, observations=None):
    rewards = np.asarray(rewards, dtype=float)
    n = len(rewards)
    return Trajectory(
        np.asarray(observations) if observations is not None else np.zeros((n, 2)),
        np.asarray(actions if actions is not None else np.zeros(n, dtype=int)),
        rewards,
        discounted_returns(rewards, gamma),
    )


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------

def test_baseline_single_trajectory_zeroes_advantages():
    traj = make_traj([1, 2, 3])
    np.testing.assert_allclose(baseline(batch_of([traj])), traj.returns)


def test_baseline_is_mean_over_trajectories():
    b = baseline(batch_of([make_traj([2.0]), make_traj([4.0])]))
    np.testing.assert_allclose(b, [3.0])


def test_baseline_ragged_lengths():
    short = make_traj([1, 1, 1])
    long = make_traj([1, 1, 1, 1, 1])
    b = baseline(batch_of([short, long]))
    # positions 0-2 average both, positions 3-4 only the longer one
    np.testing.assert_allclose(b[:3], (short.returns + long.returns[:3]) / 2)
    np.testing.assert_allclose(b[3:], long.returns[3:])


def test_empty_trajectory_rejected():
    # `Batch` checks its arrays once; its trajectories are views it built.
    traj = make_traj([1.0, 2.0, 3.0])
    arrays = (traj.observations, traj.actions, traj.rewards, traj.returns)
    with pytest.raises(ContractError):  # a batch of one empty episode
        Batch(np.empty((0, 2)), np.empty(0, int), np.empty(0), np.empty(0), np.array([0]))
    for short in range(4):  # one array a row short of the others
        with pytest.raises(ContractError):
            Batch(*(a[:-1] if i == short else a for i, a in enumerate(arrays)), np.array([3]))
    with pytest.raises(ContractError):  # one feature row per step
        Batch(np.zeros(3), *arrays[1:], np.array([3]))
    assert [len(t) for t in Batch(*arrays, np.array([1, 2]))] == [1, 2]


@pytest.mark.parametrize("seed", range(4))
def test_baseline_gives_the_per_trajectory_loop_bits_on_ragged_batches(seed):
    rng = np.random.default_rng(seed)
    trajs = [make_traj(rng.normal(size=n), gamma=0.9) for n in rng.integers(1, 40, size=7)]
    assert baseline(batch_of(trajs)).tobytes() == loop_baseline(trajs).tobytes()
    config = cfg.preset_config("cartpole-quantum", {"seed": seed})
    batch = reinforce.collect_batch(config, prepare(config).policy, 0, config.batch_size)
    assert len(set(batch.lengths)) > 1
    assert baseline(batch).tobytes() == loop_baseline(list(batch)).tobytes()


def test_batch_lengths_must_cover_its_rows():
    traj = make_traj([1.0, 2.0, 3.0])
    with pytest.raises(ContractError):
        Batch(traj.observations, traj.actions, traj.rewards, traj.returns, np.array([2]))
    with pytest.raises(ContractError):
        Batch(traj.observations, traj.actions, traj.rewards, traj.returns, np.array([], int))
    with pytest.raises(ContractError):  # an episode cannot be empty
        Batch(traj.observations, traj.actions, traj.rewards, traj.returns, np.array([3, 0]))


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_keeps_params():
    state = AdamState.fresh(3, 0.05)
    params = np.array([1.0, -2.0, 0.5])
    out = adam_step(params, np.zeros(3), state)
    np.testing.assert_array_equal(out, params)
    assert state.step_count == 1


def test_adam_first_step_is_learning_rate():
    state = AdamState.fresh(1, 0.01)
    out = adam_step(np.array([0.0]), np.array([1.0]), state)
    assert out[0] == pytest.approx(0.01, rel=1e-6)  # ascent, bias-corrected ratio ~ 1


def test_adam_second_identical_step_still_near_learning_rate():
    state = AdamState.fresh(1, 0.01)
    p1 = adam_step(np.array([0.0]), np.array([1.0]), state)
    p2 = adam_step(p1, np.array([1.0]), state)
    assert (p2 - p1)[0] == pytest.approx(0.01, rel=0.01)


def test_adam_hand_computed_recursion():
    state = AdamState.fresh(1, 0.1)
    g1, g2 = 0.5, -0.25
    p = adam_step(np.array([0.0]), np.array([g1]), state)
    m = 0.1 * g1
    v = 0.001 * g1**2
    expected1 = 0.1 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
    assert p[0] == pytest.approx(expected1, rel=1e-9)
    p = adam_step(p, np.array([g2]), state)
    m = 0.9 * m + 0.1 * g2
    v = 0.999 * v + 0.001 * g2**2
    m_hat = m / (1 - 0.9**2)
    v_hat = v / (1 - 0.999**2)
    assert p[0] == pytest.approx(expected1 + 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8), rel=1e-9)


def test_adam_shape_mismatch():
    state = AdamState.fresh(2, 0.1)
    with pytest.raises(ContractError):
        adam_step(np.zeros(3), np.zeros(3), state)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_glorot_std_matches_formula():
    spec = CircuitSpec(4, 3, 2)
    draws = np.stack([
        init_params({"kind": "glorot_normal", "gain": 1.0}, spec,
                    np.random.default_rng(seed))[:-1]
        for seed in range(400)
    ])
    assert np.sqrt(6.0 / 8.0) == pytest.approx(0.8660254, abs=1e-6)
    assert draws.std() == pytest.approx(np.sqrt(6.0 / 8.0), rel=0.05)


def test_uniform_init_support():
    spec = CircuitSpec(4, 2, 2)
    vec = init_params({"kind": "uniform", "a": -1.0, "b": 1.0}, spec,
                      np.random.default_rng(0))
    assert vec.shape == (spec.n_params + 1,)
    assert np.all(np.abs(vec[:-1]) < 1.0)


def test_init_deterministic_under_seed():
    spec = CircuitSpec(4, 3, 2)
    a = init_params({"kind": "normal", "mu": 0.0, "sigma": 0.2}, spec, np.random.default_rng(9))
    b = init_params({"kind": "normal", "mu": 0.0, "sigma": 0.2}, spec, np.random.default_rng(9))
    assert a.tobytes() == b.tobytes()


def test_beta_initialization_distribution():
    spec = CircuitSpec(1, 1, 2, "single_u3", "none")
    betas = np.array([
        init_params({"kind": "glorot_normal"}, spec, np.random.default_rng(s))[-1]
        for s in range(500)
    ])
    assert betas.mean() == pytest.approx(1.0, abs=0.02)
    assert betas.std() == pytest.approx(0.1, abs=0.02)


# ---------------------------------------------------------------------------
# estimator
# ---------------------------------------------------------------------------

def bandit_policy(beta=1.2):
    spec = CircuitSpec(1, 1, 2, "single_u3", "none")
    return QuantumPolicy(spec, [0.4, 0.2, -0.3, beta])


def bandit_obs():
    return qsim.amplitude_features(init_zero(1).amplitudes)


def test_single_step_no_baseline_gradient_shape():
    # a 1-step trajectory against a zero baseline contributes G_0 * grad log pi
    policy = bandit_policy()
    obs = bandit_obs()
    traj = make_traj([2.0], actions=[1], observations=[obs])
    other = make_traj([0.0], actions=[0], observations=[obs])
    g = policy_gradient(batch_of([traj, other]), policy)
    glog1 = grad_log(policy, obs, 1)
    glog0 = grad_log(policy, obs, 0)
    np.testing.assert_allclose(g, ((2.0 - 1.0) * glog1 + (0.0 - 1.0) * glog0) / 2, atol=1e-12)


def test_zero_advantages_give_zero_gradient():
    policy = bandit_policy()
    traj = make_traj([1.0, 1.0], actions=[0, 1], observations=[bandit_obs()] * 2)
    g = policy_gradient(batch_of([traj]), policy)
    np.testing.assert_allclose(g, np.zeros(policy.n_trainable), atol=1e-12)


def test_baseline_invariance_under_return_shift():
    # adding a constant to every return leaves the baselined gradient unchanged
    rng = np.random.default_rng(1)
    policy = bandit_policy()
    obs = bandit_obs()
    batch = [
        make_traj(rng.uniform(0, 1, size=4), actions=rng.integers(2, size=4),
                  observations=[obs] * 4)
        for _ in range(3)
    ]
    g1 = policy_gradient(batch_of(batch), policy)
    shifted = [Trajectory(t.observations, t.actions, t.rewards, t.returns + 7.5) for t in batch]
    g2 = policy_gradient(batch_of(shifted), policy)
    np.testing.assert_allclose(g1, g2, atol=1e-10)


def test_policy_gradient_matches_finite_difference_surrogate():
    # FD of sum_t (G_t - b_t) log pi on a frozen batch, per trainable coordinate
    cfg_run = cfg.preset_config("qcontrol-quantum", {"seed": 3})
    state = prepare(cfg_run)
    policy = state.policy
    batch = reinforce.collect_batch(cfg_run, policy, 0, 4)
    got = policy_gradient(batch, policy)

    b = baseline(batch)
    vec0 = policy.get_vector()

    def surrogate(vec):
        policy.set_vector(vec)
        total = 0.0
        for traj in batch:
            adv = traj.returns - b[: len(traj)]
            for obs, action, a_t in zip(traj.observations, traj.actions, adv):
                total += a_t * np.log(policy.probabilities(obs[None], None, None)[0, action])
        return total / len(batch)

    h = 1e-4
    fd = np.empty_like(vec0)
    for j in range(len(vec0)):
        up, dn = vec0.copy(), vec0.copy()
        up[j] += h
        dn[j] -= h
        fd[j] = (surrogate(up) - surrogate(dn)) / (2 * h)
    policy.set_vector(vec0)
    np.testing.assert_allclose(got, fd, atol=1e-5)


def test_estimator_direction_on_synthetic_bandit():
    # one-step bandit with rewards (1, 0): the averaged estimator must align
    # with the analytic gradient sum_a pi_a r_a grad log pi_a
    rng = np.random.default_rng(7)
    policy = bandit_policy()
    obs = bandit_obs()
    probs = policy.probabilities(obs[None], None, None)[0]
    rewards = np.array([1.0, 0.0])
    analytic = sum(probs[a] * rewards[a] * grad_log(policy, obs, a) for a in range(2))
    glogs = np.stack([grad_log(policy, obs, a) for a in range(2)])
    draws = rng.choice(2, size=10**4, p=probs)
    estimate = (rewards[draws, None] * glogs[draws]).mean(axis=0)
    assert np.dot(estimate, analytic) > 0
    np.testing.assert_allclose(estimate, analytic, atol=0.05)


def test_sample_action_inverse_cdf():
    rng = np.random.default_rng(0)
    probs = np.array([0.2, 0.5, 0.3])
    draws = sample_actions(np.tile(probs, (20000, 1)), rng.random(20000))
    np.testing.assert_allclose(np.bincount(draws, minlength=3) / 20000, probs, atol=0.02)

    # a uniform exactly on a cumulative boundary goes past it, as
    # searchsorted(side="right") counts
    cum = np.cumsum(probs)
    uniforms = np.array([0.0, cum[0], cum[1], np.nextafter(cum[0], 0.0)])
    want = [int(np.searchsorted(cum, u, side="right")) for u in uniforms]
    assert want == [0, 1, 2, 0]
    assert sample_actions(np.tile(probs, (4, 1)), uniforms).tolist() == want

    # probabilities summing to just under 1 leave a gap above the last
    # cumulative value; a uniform in it takes the last action
    short = np.array([[0.5, 0.5 - 1e-12]])
    assert sample_actions(short, np.array([1.0 - 1e-13])).tolist() == [1]
    assert sample_actions(np.array([[0.25, 0.25, 0.25, 0.25 - 1e-9]]),
                          np.array([0.9999999999])).tolist() == [3]


def test_sample_actions_matches_the_capped_full_cumsum_at_the_edges():
    # Probabilities summing to just under or over 1, zero-probability actions,
    # and uniforms exactly on every cumulative value: the draws equal the
    # capped searchsorted over all |A| cumulative sums, row by row.
    for row in ([0.5, 0.5 - 1e-12], [0.3, 0.3, 0.4 + 1e-12], [0.0, 0.5, 0.5],
                [0.25, 0.25, 0.25, 0.25 - 1e-9], [1 / 3, 1 / 3, 1 / 3], [1.0, 0.0]):
        cum = np.cumsum(row)
        uniforms = np.concatenate([[0.0], cum, np.nextafter(cum, 0.0), [1.0 - 2**-53]])
        want = [min(int(np.searchsorted(cum, u, side="right")), len(row) - 1) for u in uniforms]
        got = sample_actions(np.tile(row, (len(uniforms), 1)), uniforms)
        assert got.tolist() == want


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_zero_episode_budget_yields_nothing():
    cfg_run = cfg.preset_config("qcontrol-quantum", {"episodes": 0})
    assert list(train(cfg_run)) == []


def test_train_is_deterministic_for_fixed_seed():
    cfg_run = cfg.preset_config("qcontrol-quantum", {"episodes": 40, "seed": 11})
    records = list(train(cfg_run))
    rows_a = [(r.episode, r.total_reward, r.discounted_return, r.beta, r.grad_norm)
              for r in records]
    rows_b = [(r.episode, r.total_reward, r.discounted_return, r.beta, r.grad_norm)
              for r in train(cfg_run)]
    assert rows_a == rows_b
    # One record per episode, in order: perfbench/run.py stamps each record
    # as it arrives and reads the time to solve at the solve episode's stamp.
    assert [r.episode for r in records] == list(range(40))
    for r in records:
        assert r.total_reward == r.trajectory.total_reward
        assert r.discounted_return == r.trajectory.returns[0]


def test_parallel_rollouts_match_sequential():
    # `parallel_rollouts` is a legacy key: a valid value still loads and
    # changes nothing, because episodes always run one after another.
    manifest = json.loads(REFERENCE_MANIFEST.read_text())
    assert cfg.from_dict(manifest["config"]) == cfg.from_dict(
        {k: v for k, v in manifest["config"].items() if k != "parallel_rollouts"})
    base = cfg.preset_config("cartpole-quantum", {"episodes": 20, "seed": 5})
    par = cfg.preset_config("cartpole-quantum",
                            {"episodes": 20, "seed": 5, "parallel_rollouts": 4})
    rows_seq = [(r.episode, r.total_reward, r.discounted_return, r.beta, r.grad_norm)
                for r in train(base)]
    rows_par = [(r.episode, r.total_reward, r.discounted_return, r.beta, r.grad_norm)
                for r in train(par)]
    assert rows_seq == rows_par
    with pytest.raises(ConfigError):
        cfg.preset_config("cartpole-quantum", {"parallel_rollouts": 0})


def test_shot_mode_training_is_finite_and_deterministic():
    def rows(shots):
        cfg_run = cfg.preset_config("cartpole-quantum",
                                    {"episodes": 20, "seed": 3, "shots": shots})
        return [(r.total_reward, r.discounted_return, r.beta, r.grad_norm)
                for r in train(cfg_run)]

    shot_rows = rows(200)
    assert len(shot_rows) == 20
    assert np.all(np.isfinite(shot_rows))
    assert rows(200) == shot_rows
    assert rows(0) != shot_rows


def test_one_row_operator_build_per_batch(monkeypatch):
    # The lockstep rollout builds the operator at its first inference, and
    # the batch gradient reuses it: theta is unchanged until Adam.
    build, gradient = qsim.circuit_row_operator, reinforce.policy_gradient
    builds, gradient_builds = [], []

    def counting_build(*args, **kwargs):
        builds.append(1)
        return build(*args, **kwargs)

    def watched_gradient(*args, **kwargs):
        before = len(builds)
        result = gradient(*args, **kwargs)
        gradient_builds.append(len(builds) - before)
        return result

    monkeypatch.setattr(qsim, "circuit_row_operator", counting_build)
    monkeypatch.setattr(reinforce, "policy_gradient", watched_gradient)
    cfg_run = cfg.preset_config("cartpole-quantum", {"episodes": 10, "seed": 0})
    assert len(list(train(cfg_run))) == cfg_run.batch_size
    assert len(builds) == 1
    assert gradient_builds == [0]


def test_exact_training_batch_draws_no_shots(monkeypatch):
    # Exact mode stops at the sign table's preferences: rollouts and the
    # gradient never reach the shot draw, which a shot-mode batch does reach.
    def refuse(*args, **kwargs):
        raise AssertionError("the readout drew shots")

    monkeypatch.setattr(vqpolicy, "_draw_shots", refuse)
    cfg_run = cfg.preset_config("cartpole-quantum", {"episodes": 10, "seed": 0})
    assert len(list(train(cfg_run))) == cfg_run.batch_size
    with pytest.raises(AssertionError, match="drew shots"):
        list(train(cfg.preset_config("cartpole-quantum", {"episodes": 10, "seed": 0, "shots": 50})))


def batch_inputs(preset):
    """A seed-0 batch of `preset`, its prepared policy and its advantages."""
    config = cfg.preset_config(preset, {"seed": 0})
    policy = prepare(config).policy
    batch = reinforce.collect_batch(config, policy, 0, config.batch_size)
    b = baseline(batch)
    observations = np.concatenate([traj.observations for traj in batch])
    actions = np.concatenate([traj.actions for traj in batch])
    adv = np.concatenate([traj.returns - b[: len(traj)] for traj in batch])
    return batch, policy, observations, actions, adv


@pytest.mark.parametrize("preset", sorted(cfg.PRESETS))
def test_weighted_grad_log_matches_contracted_batch_over_presets(preset):
    # Advantages plus noise, so that every row carries weight.
    _, policy, observations, actions, adv = batch_inputs(preset)
    adv = adv + np.random.default_rng(0).normal(size=len(adv))
    want = adv @ policy.grad_log_batch(observations, actions)
    got = policy.weighted_grad_log(observations, actions, adv)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("preset", ["cartpole-quantum", "cartpole-classical"])
def test_training_forms_no_per_sample_gradients(monkeypatch, preset):
    # The quantum batch gradient is one adjoint sweep of the 2**n rows of the
    # folded operator, never of the batch's T rows.
    def refuse(*args, **kwargs):
        raise AssertionError("training built per-sample gradients")

    swept = []
    sweep = vqpolicy.adjoint_gradients

    def folded_sweep(spec, params, psi, lam):
        swept.append((psi.shape, lam.shape, 2**spec.n_qubits))
        return sweep(spec, params, psi, lam)

    monkeypatch.setattr(vqpolicy, "adjoint_gradients", folded_sweep)
    monkeypatch.setattr(classical.MlpPolicy, "grad_log_batch", refuse)
    config = cfg.preset_config(preset, {"episodes": 10, "seed": 0})
    assert all(np.isfinite(record.grad_norm) for record in train(config))
    if preset.endswith("quantum"):
        assert swept
    assert all(psi == lam == (dim, dim) for psi, lam, dim in swept)


def streamed_pass_bytes(policy, rows, sweep=False) -> int:
    """What a gradient's pass over T rows may hold beside its result: one
    block's encode gather of BLOCK_NUMBERS reals and three (CHUNK_ROWS, 2**n)
    complex arrays, nothing of the previous chunk, plus O(T) reals (one
    (T, n) array, the widened maxima's `abs` temporary, and a few (T,)
    vectors), never a (T, 2**n) array. A `sweep` of per-sample gradients
    adds a block's (2, rows, 2**n) row pairs and their update,
    BLOCK_NUMBERS complex numbers each."""
    n, chunk = policy.spec.n_qubits, vqpolicy.CHUNK_ROWS
    blocks = vqpolicy.BLOCK_NUMBERS * (8 + 2 * 16 * sweep)
    return 3 * chunk * 2**n * 16 + blocks + rows * (n + 8) * 8


def test_policy_gradient_memory_stays_within_chunks():
    # At acrobot-quantum's T = 5,000 rows one (T, 2**n) complex array is
    # 5.1 MB, above the bound (1.61 MB); holding the whole batch's rows took
    # 13 MB, and a whole chunk's (256, 6, 64) encode gather 1.93 MB.
    batch, policy, *_ = batch_inputs("acrobot-quantum")
    rows = sum(len(traj) for traj in batch)
    assert traced_peak(lambda: policy_gradient(batch, policy)) <= streamed_pass_bytes(policy, rows)


def test_per_sample_gradient_memory_stays_within_chunks():
    # The Fisher's exact (T, k+1) gradients hold their result beside the pass.
    _, policy, observations, actions, _ = batch_inputs("acrobot-quantum")
    rows = len(actions)
    peak = traced_peak(lambda: policy.grad_log_batch(observations, actions))
    assert peak <= rows * policy.n_trainable * 8 + streamed_pass_bytes(policy, rows, sweep=True)


def test_eight_qubit_passes_stay_within_blocks():
    # At 8 qubits M, the fold's product, a chunk's output rows and its
    # co-states are 1 MiB each; the weighted pass holds those and at most
    # half a MiB more (4.06 MiB). Sweeping M's 256 rows against the
    # identity's as one (2, 256, 256) pair peaked at 7.92 MiB, and the
    # per-sample pass's whole-chunk pairs at 11.88 MiB.
    spec = CircuitSpec(8, 4, 3)
    rng = np.random.default_rng(12)
    policy = QuantumPolicy(spec, rng.uniform(-np.pi, np.pi, spec.n_params + 1))
    rows = 5000
    observations = rng.normal(size=(rows, 8))
    policy.normalizer.observe(observations)
    actions, adv = rng.integers(3, size=rows), rng.normal(size=rows)
    policy.row_operator()
    peak = traced_peak(lambda: policy.weighted_grad_log(observations, actions, adv))
    assert peak <= 4 * 2**16 * 16 + 2**19
    peak = traced_peak(lambda: policy.grad_log_batch(observations, actions))
    assert peak <= rows * policy.n_trainable * 8 + streamed_pass_bytes(policy, rows, sweep=True)


def test_dropout_training_is_finite_and_deterministic():
    # Dropout masks come from the batch's gradient stream.
    config = cfg.preset_config("cartpole-classical", {"dropout_p": 0.2, "episodes": 20})
    rows = [(r.total_reward, r.discounted_return, r.grad_norm) for r in train(config)]
    assert len(rows) == 20
    assert np.all(np.isfinite(rows))
    assert [(r.total_reward, r.discounted_return, r.grad_norm) for r in train(config)] == rows


@pytest.mark.parametrize("preset", ["cartpole-quantum", "cartpole-classical",
                                    "qcontrol-quantum", "qcontrol-classical"])
def test_gradient_norms_finite_over_presets(preset):
    cfg_run = cfg.preset_config(preset, {"episodes": 60, "seed": 1})
    for record in train(cfg_run):
        assert np.isfinite(record.grad_norm)
        assert np.isfinite(record.total_reward)


def test_surrogate_ascent_after_one_small_adam_step():
    cfg_run = cfg.preset_config("qcontrol-quantum", {"seed": 6})
    state = prepare(cfg_run)
    policy = state.policy
    batch = reinforce.collect_batch(cfg_run, policy, 0, 6)
    b = baseline(batch)

    def surrogate():
        total = 0.0
        for traj in batch:
            adv = traj.returns - b[: len(traj)]
            for obs, action, a_t in zip(traj.observations, traj.actions, adv):
                total += a_t * np.log(policy.probabilities(obs[None], None, None)[0, action])
        return total / len(batch)

    before = surrogate()
    grad = policy_gradient(batch, policy)
    adam = AdamState.fresh(policy.n_trainable, 1e-3)
    policy.set_vector(adam_step(policy.get_vector(), grad, adam))
    assert surrogate() > before


BATCH_ARRAYS = ("observations", "actions", "rewards", "returns")


@pytest.mark.parametrize("preset", ["cartpole-quantum", "cartpole-classical"])
def test_run_episodes_returns_one_flat_batch_of_trajectory_views(preset):
    config = cfg.preset_config(preset, {"seed": 5})
    rngs = [reinforce.keyed_stream(config.seed, 1, i) for i in range(10)]
    batch = run_episodes(envs.make_env(config.environment), prepare(config).policy, rngs,
                         config.gamma)
    assert len(batch) == 10 and len(set(batch.lengths)) > 1
    assert all(a is b for a, b in zip(batch, [batch[i] for i in range(10)]))
    assert {len(getattr(batch, name)) for name in BATCH_ARRAYS} == {batch.lengths.sum()}
    start = 0
    for traj, steps in zip(batch, batch.lengths):
        for name in BATCH_ARRAYS:
            view, flat = getattr(traj, name), getattr(batch, name)
            assert np.shares_memory(view, flat)
            np.testing.assert_array_equal(view, flat[start:start + steps])
        np.testing.assert_array_equal(traj.returns, discounted_returns(traj.rewards, config.gamma))
        np.testing.assert_array_equal(batch.steps()[start:start + steps], np.arange(steps))
        start += steps


@pytest.mark.parametrize("preset", ["cartpole-quantum", "cartpole-classical"])
def test_gradients_read_the_batch_arrays_in_place(monkeypatch, preset):
    # Training and the Fisher spectrum hand the batch's own feature and
    # action arrays to the policy, not concatenated copies.
    config = cfg.preset_config(preset, {"seed": 0})
    policy = prepare(config).policy
    batch = reinforce.collect_batch(config, policy, 0, config.batch_size)
    handed, batches = [], []
    weighted, run, fisher = (type(policy).weighted_grad_log, reinforce.run_episodes,
                             analysis.fisher_matrix)

    def recording_weighted(self, observations, actions, *args, **kwargs):
        handed.append((batch, observations, actions))
        return weighted(self, observations, actions, *args, **kwargs)

    def recording_run(*args, **kwargs):
        batches.append(run(*args, **kwargs))
        return batches[-1]

    def recording_fisher(policy, states, actions, **kwargs):
        handed.append((batches[-1], states, actions))
        return fisher(policy, states, actions, **kwargs)

    monkeypatch.setattr(type(policy), "weighted_grad_log", recording_weighted)
    monkeypatch.setattr(reinforce, "run_episodes", recording_run)
    monkeypatch.setattr(analysis, "fisher_matrix", recording_fisher)
    policy_gradient(batch, policy)
    cli.fisher_spectrum(policy, config.environment, 3, side_stream(0, 10), include_beta=True)
    assert len(handed) == 2
    for source, observations, actions in handed:
        assert np.shares_memory(observations, source.observations)
        assert np.shares_memory(actions, source.actions)


def test_rollout_respects_episode_caps():
    for preset, cap in (("qcontrol-quantum", 10), ("cartpole-classical", 200)):
        state = prepare(cfg.preset_config(preset, {"seed": 4}))
        rngs = [np.random.default_rng(seed) for seed in range(8)]
        batch = run_episodes(envs.make_env(preset.split("-")[0]), state.policy, rngs, 0.99)
        assert len(batch) == 8
        for traj in batch:
            assert 1 <= len(traj) <= cap
            np.testing.assert_array_equal(traj.returns, discounted_returns(traj.rewards, 0.99))


@pytest.mark.parametrize("preset", ["cartpole-quantum", "acrobot-quantum"])
def test_rollouts_only_read_the_policy(preset):
    # A fresh angle-encoded policy's maxima are at the floor, so every
    # rollout widens its own running maxima, and none of that is written
    # back. `collect_batch` then records the batch's rows, which gives the
    # maxima the rollouts reached.
    config = cfg.preset_config(preset, {"seed": 3})
    policy = prepare(config).policy
    vector, maxima = policy.get_vector().tobytes(), policy.normalizer.running_abs_max.copy()
    rngs = [reinforce.keyed_stream(config.seed, 1, i) for i in range(10)]
    batch = run_episodes(envs.make_env(config.environment), policy, rngs, config.gamma)
    assert policy.get_vector().tobytes() == vector
    assert policy.normalizer.running_abs_max.tobytes() == maxima.tobytes()
    reached = np.abs(np.concatenate([traj.observations for traj in batch])).max(axis=0)
    assert np.all(reached > maxima)
    recorded = reinforce.collect_batch(config, policy, 0, 10)
    assert list(map(trajectory_bits, recorded)) == list(map(trajectory_bits, batch))
    assert policy.get_vector().tobytes() == vector
    np.testing.assert_array_equal(policy.normalizer.running_abs_max, reached)


# ---------------------------------------------------------------------------
# lockstep rollouts against the sequential reference
# ---------------------------------------------------------------------------

def lockstep_probabilities(policy, monkeypatch):
    """Record every (m, |A|) inference of a lockstep rollout."""
    calls, probabilities = [], type(policy).probabilities

    def recording(self, obs, rng=None, abs_max=None):
        result = probabilities(self, obs, rng, abs_max)
        calls.append(result)
        return result

    monkeypatch.setattr(type(policy), "probabilities", recording)
    return calls


def per_episode(calls, lengths):
    """Step-major rows of the recorded inferences, split by episode: at step
    t the rows belong to the episodes still running, in batch order."""
    out = [[] for _ in lengths]
    for t, rows in enumerate(calls):
        running = [i for i, n in enumerate(lengths) if n > t]
        assert len(rows) == len(running)
        for i, row in zip(running, rows):
            out[i].append(row)
    return [np.stack(rows) for rows in out]


@pytest.mark.parametrize("preset, overrides", [
    ("cartpole-quantum", {}), ("acrobot-quantum", {}), ("qcontrol-quantum", {}),
    ("cartpole-classical", {}), ("acrobot-classical", {}), ("qcontrol-classical", {}),
    ("cartpole-quantum", {"shots": 200}), ("qcontrol-quantum", {"shots": 200}),
    ("acrobot-quantum", {"shots": 50}),
])
def test_lockstep_batch_matches_sequential_reference(monkeypatch, preset, overrides):
    # Bit for bit the episodes that run one after another on scalar envs
    # with 1-row inference, on the same per-episode streams and normalizer
    # snapshots. In shot mode the readout draws from each episode's stream
    # after its uniforms, and its finite-shot probabilities move some actions
    # off the exact readout's; the shot cases cover a 2-action, a 3-action
    # and the amplitude-encoded single_u3 readout.
    config = cfg.preset_config(preset, {"seed": 7, **overrides})
    policy, reference_policy = prepare(config).policy, prepare(config).policy
    calls = lockstep_probabilities(policy, monkeypatch)
    batch = reinforce.collect_batch(config, policy, 30, 10)
    monkeypatch.undo()
    rngs = [reinforce.keyed_stream(config.seed, 1, 30 + i) for i in range(10)]
    reference, reference_probs = sequential_batch(config.environment, reference_policy, rngs,
                                                  config.gamma)
    lockstep_probs = per_episode(calls, [len(traj) for traj in batch])
    for traj, ref, probs, ref_probs in zip(batch, reference, lockstep_probs, reference_probs):
        np.testing.assert_array_equal(traj.actions, ref.actions)
        np.testing.assert_array_equal(traj.rewards, ref.rewards)
        np.testing.assert_array_equal(traj.returns, ref.returns)
        np.testing.assert_array_equal(traj.observations, ref.observations)
        np.testing.assert_array_equal(probs, ref_probs)
    if policy.normalizer is not None:
        np.testing.assert_array_equal(policy.normalizer.running_abs_max,
                                      reference_policy.normalizer.running_abs_max)
    if overrides.get("shots"):
        exact_policy = prepare(cfg.preset_config(preset, {"seed": 7})).policy
        exact_batch = reinforce.collect_batch(config, exact_policy, 30, 10)
        assert any(len(a) != len(b) or np.any(a.actions != b.actions)
                   for a, b in zip(batch, exact_batch))


def trajectory_bits(traj):
    return [traj.observations.tobytes(), traj.actions.tobytes(), traj.rewards.tobytes(),
            traj.returns.tobytes()]


@pytest.mark.parametrize("preset, overrides", [
    ("cartpole-quantum", {}), ("acrobot-quantum", {"n_layers": 1}), ("cartpole-classical", {}),
    ("qcontrol-quantum", {}), ("cartpole-quantum", {"shots": 100}), ("acrobot-classical", {}),
    ("qcontrol-classical", {}),
])
def test_lockstep_batch_independent_of_order_and_size(preset, overrides):
    # Inference's `serial_matmul` (one thread, a lone row doubled), complex
    # for a circuit and real for the MLP's input layer, and the MLP's later
    # einsum layers round every row alike, so an episode's bits do not depend
    # on which episodes share its batch, or in what order.
    config = cfg.preset_config(preset, {"seed": 2, **overrides})
    env = envs.make_env(config.environment)
    policy = prepare(config).policy
    normalizer = policy.normalizer

    def run(seeds):
        rngs = [reinforce.keyed_stream(config.seed, 1, s) for s in seeds]
        batch = run_episodes(env, policy, rngs, config.gamma)
        merged = None
        if normalizer is not None:  # what `collect_batch` would record
            merged = normalizer.widened(np.concatenate([traj.observations for traj in batch]))
        return [trajectory_bits(traj) for traj in batch], merged

    seeds = list(range(10))
    together, merged = run(seeds)
    order = np.random.default_rng(0).permutation(10)
    permuted, merged_permuted = run([seeds[i] for i in order])
    assert permuted == [together[i] for i in order]
    for i in seeds:
        assert run([i])[0] == [together[i]]
    if normalizer is not None:
        np.testing.assert_array_equal(merged, merged_permuted)


class SilentPolicy:
    """Stub with row-dependent probabilities that draws nothing, as an
    exact readout or an MLP does."""

    n_features, n_actions = 4, 2  # cartpole's
    normalizer = None

    def probabilities(self, obs, rng=None, abs_max=None):
        right = 0.5 + 0.4 * np.tanh(20.0 * obs[:, 2])  # lean with the pole
        return np.stack([1.0 - right, right], axis=1)


class DrawingPolicy(SilentPolicy):
    """The same probabilities, drawing from each row's generator as a shot
    readout does. It carries `shots` as a shot-mode policy does; the rollout
    must not read it."""

    shots = 3

    def probabilities(self, obs, rng=None, abs_max=None):
        assert len(rng) == len(obs)
        for stream in rng:
            stream.random(self.shots)
        return super().probabilities(obs, rng, abs_max)


def test_rollout_draws_one_schedule_whatever_the_readout():
    # Every episode draws its reset and its max_steps uniforms first, so a
    # readout that draws from the episode's generator afterwards cannot move
    # an action. The readout gets the running episodes' own generators: each
    # stream ends right after its episode's 3 draws per step.
    env = envs.make_env("cartpole")

    def run(policy):
        rngs = [reinforce.keyed_stream(5, 1, i) for i in range(6)]
        return run_episodes(env, policy, rngs, 0.99), rngs

    silent, _ = run(SilentPolicy())
    drawing, streams = run(DrawingPolicy())
    assert len({len(traj) for traj in silent}) > 1
    for i, (a, b, stream) in enumerate(zip(silent, drawing, streams)):
        assert trajectory_bits(a) == trajectory_bits(b)
        replay = reinforce.keyed_stream(5, 1, i)
        env.reset([replay])
        replay.random(env.spec.max_steps + 3 * len(b))
        assert stream.random() == replay.random()


class RowForm:
    """A policy whose `probabilities` asserts the one input form and records
    each call's row count: m float rows of its width, m generators, and m
    rows of maxima if it has a normalizer, else None."""

    def probabilities(self, obs, rngs, abs_max):
        m = len(obs)
        assert type(obs) is np.ndarray and obs.dtype == float
        assert obs.shape == (m, self.n_features) and m >= 1
        assert len(rngs) == m and all(isinstance(r, np.random.Generator) for r in rngs)
        if self.normalizer is None:
            assert abs_max is None
        else:
            assert type(abs_max) is np.ndarray and abs_max.dtype == float
            assert abs_max.shape == (m, self.n_features)
        self.rows.append(m)
        return super().probabilities(obs, rngs, abs_max)


class RowFormQuantum(RowForm, QuantumPolicy):
    pass


class RowFormMlp(RowForm, classical.MlpPolicy):
    pass


@pytest.mark.parametrize("preset, overrides", [
    ("cartpole-quantum", {}), ("acrobot-quantum", {"n_layers": 1}), ("qcontrol-quantum", {}),
    ("cartpole-quantum", {"shots": 100}), ("qcontrol-quantum", {"shots": 100}),
    ("cartpole-classical", {}), ("qcontrol-classical", {}),
])
def test_rollout_hands_probabilities_only_the_row_form(preset, overrides):
    # Each lockstep step passes the running episodes' rows, generators and
    # maxima, for every policy kind; one call per step, one row per episode
    # still running, and the batch is the plain policy's.
    config = cfg.preset_config(preset, {"seed": 4, **overrides})
    plain = prepare(config).policy
    if isinstance(plain, QuantumPolicy):
        policy = RowFormQuantum(plain.spec, plain.get_vector(),
                                normalizer_copy(plain.normalizer), plain.shots)
    else:
        policy = RowFormMlp(plain.spec, plain.get_vector())
    policy.rows = []
    batch = reinforce.collect_batch(config, policy, 0, 10)
    lengths = [len(traj) for traj in batch]
    assert policy.rows == [sum(n > t for n in lengths) for t in range(max(lengths))]
    expected = reinforce.collect_batch(config, plain, 0, 10)
    assert list(map(trajectory_bits, batch)) == list(map(trajectory_bits, expected))


@pytest.mark.parametrize("preset", ["cartpole-quantum", "qcontrol-quantum",
                                    "cartpole-classical", None])
def test_rollout_refuses_a_mismatched_policy_before_any_draw(preset):
    # An angle circuit, the single-U3 circuit and an MLP of 4 features and 2
    # actions, and a 6-qubit circuit of 2 actions, on acrobot's 6 features
    # and 3 actions: refused before the reset draws from any stream.
    if preset is None:
        policy = QuantumPolicy(CircuitSpec(6, 1, 2), np.ones(13))
    else:
        policy = prepare(cfg.preset_config(preset)).policy
    rngs = [reinforce.keyed_stream(0, 1, i) for i in range(3)]
    states = [rng.bit_generator.state for rng in rngs]
    with pytest.raises(ContractError, match="cannot act in acrobot"):
        run_episodes(envs.make_env("acrobot"), policy, rngs, 0.99)
    assert [rng.bit_generator.state for rng in rngs] == states


def test_train_counts_steps_through_module_collect_batch(monkeypatch):
    # The benchmark counts trained env steps by replacing
    # `reinforce.collect_batch`; `train` must call it through the module, and
    # the trajectories it returns must hold every step the envs took.
    collect, step = reinforce.collect_batch, envs.CartPole.step
    counted, stepped = [], []

    def counting_collect(*args, **kwargs):
        batch = collect(*args, **kwargs)
        counted.append(sum(len(traj) for traj in batch))
        return batch

    def counting_step(self, states, actions):
        stepped.append(len(actions))
        return step(self, states, actions)

    monkeypatch.setattr(reinforce, "collect_batch", counting_collect)
    monkeypatch.setattr(envs.CartPole, "step", counting_step)
    config = cfg.preset_config("cartpole-quantum", {"episodes": 25, "seed": 1})
    records = list(train(config))
    assert len(counted) == 3  # batches of 10, 10 and 5
    assert sum(counted) == sum(stepped) == sum(r.total_reward for r in records) > 0


# ---------------------------------------------------------------------------
# Fisher rollouts: one lockstep batch on the spectrum's side stream
# ---------------------------------------------------------------------------

def fisher_rollouts(monkeypatch, config, policy, rollouts, rng):
    """The spectrum's `run_episodes` batches and the inferences made in them."""
    batches, calls = [], []
    run, probabilities = reinforce.run_episodes, type(policy).probabilities

    def recording_probabilities(self, obs, rng=None, abs_max=None):
        calls.append(probabilities(self, obs, rng, abs_max))
        return calls[-1]

    def recording_run(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(type(policy), "probabilities", recording_probabilities)
            batches.append(run(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(reinforce, "run_episodes", recording_run)
    cli.fisher_spectrum(policy, config.environment, rollouts, rng, include_beta=True)
    monkeypatch.undo()
    return batches, calls


@pytest.mark.parametrize("rollouts", [1, 10])
def test_fisher_spectrum_rolls_out_in_one_lockstep_batch(monkeypatch, rollouts):
    config, policy = trained_policy("cartpole-quantum", 0)
    batches, _ = fisher_rollouts(monkeypatch, config, policy, rollouts, side_stream(0, 0))
    assert [len(batch) for batch in batches] == [rollouts]


@pytest.mark.parametrize("preset, episodes", [
    ("cartpole-quantum", 20), ("acrobot-classical", 0), ("qcontrol-quantum", 60),
])
def test_fisher_rollouts_match_sequential_reference(monkeypatch, preset, episodes):
    # Rollout i is the lone episode that starts at the i-th block of the
    # side stream (its reset, then max_steps uniforms) and scales by a copy
    # of the policy's own normalizer, whatever the earlier rollouts did.
    # Cartpole rollouts differ in length, and at checkpoint 60 of seed 0 a
    # qcontrol-quantum rollout ends before its 10th step.
    config, policy = trained_policy(preset, episodes)
    normalizer = policy.normalizer
    before = None if normalizer is None else normalizer.running_abs_max.copy()
    (batch,), calls = fisher_rollouts(monkeypatch, config, policy, config.batch_size,
                                      side_stream(0, episodes))
    if normalizer is not None:
        np.testing.assert_array_equal(normalizer.running_abs_max, before)
    max_steps = config.env_spec.max_steps
    lockstep_probs = per_episode(calls, [len(traj) for traj in batch])
    for i, (traj, probs) in enumerate(zip(batch, lockstep_probs)):
        stream = side_stream(0, episodes)
        for _ in range(i):
            SCALAR_ENVS[config.environment]().reset(stream)
            stream.random(max_steps)
        ref, ref_probs = rollout(SCALAR_ENVS[config.environment](), policy, stream,
                                 config.gamma, normalizer_copy(normalizer))
        np.testing.assert_array_equal(traj.observations, ref.observations)
        np.testing.assert_array_equal(traj.actions, ref.actions)
        np.testing.assert_array_equal(traj.rewards, ref.rewards)
        np.testing.assert_array_equal(probs, ref_probs)


def test_fisher_rollouts_do_not_depend_on_how_many_follow(monkeypatch):
    config, policy = trained_policy("cartpole-quantum", 20)

    def bits(rollouts):
        batches, _ = fisher_rollouts(monkeypatch, config, policy, rollouts, side_stream(0, 20))
        return [trajectory_bits(traj) for batch in batches for traj in batch]

    assert bits(10)[:3] == bits(3)
