import json
from pathlib import Path

import numpy as np
import pytest

from qpolgrad import config as cfg
from qpolgrad import qsim, reinforce, vqpolicy
from qpolgrad.envs import discounted_returns
from qpolgrad.errors import ConfigError, ContractError
from qpolgrad.reinforce import (
    AdamState,
    Trajectory,
    adam_step,
    baseline,
    init_params,
    policy_gradient,
    prepare,
    rollout,
    sample_action,
    train,
)
from qpolgrad.vqpolicy import CircuitSpec, PolicyParams, QuantumPolicy, softmax_policy

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
    np.testing.assert_allclose(baseline([traj]), traj.returns)


def test_baseline_is_mean_over_trajectories():
    b = baseline([make_traj([2.0]), make_traj([4.0])])
    np.testing.assert_allclose(b, [3.0])


def test_baseline_ragged_lengths():
    short = make_traj([1, 1, 1])
    long = make_traj([1, 1, 1, 1, 1])
    b = baseline([short, long])
    # positions 0-2 average both, positions 3-4 only the longer one
    np.testing.assert_allclose(b[:3], (short.returns + long.returns[:3]) / 2)
    np.testing.assert_allclose(b[3:], long.returns[3:])


def test_empty_trajectory_rejected():
    with pytest.raises(ContractError):
        Trajectory([], np.array([]), np.array([]), np.array([]))
    with pytest.raises(ContractError):  # one feature row per step
        Trajectory(np.zeros(2), np.zeros(2, dtype=int), np.zeros(2), np.zeros(2))


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
                    np.random.default_rng(seed)).theta
        for seed in range(400)
    ])
    assert np.sqrt(6.0 / 8.0) == pytest.approx(0.8660254, abs=1e-6)
    assert draws.std() == pytest.approx(np.sqrt(6.0 / 8.0), rel=0.05)


def test_uniform_init_support():
    spec = CircuitSpec(4, 2, 2)
    params = init_params({"kind": "uniform", "a": -1.0, "b": 1.0}, spec,
                         np.random.default_rng(0))
    assert np.all(np.abs(params.theta) < 1.0)


def test_init_deterministic_under_seed():
    spec = CircuitSpec(4, 3, 2)
    a = init_params({"kind": "normal", "mu": 0.0, "sigma": 0.2}, spec, np.random.default_rng(9))
    b = init_params({"kind": "normal", "mu": 0.0, "sigma": 0.2}, spec, np.random.default_rng(9))
    np.testing.assert_array_equal(a.theta, b.theta)
    assert a.beta == b.beta


def test_beta_initialization_distribution():
    spec = CircuitSpec(1, 1, 2, "single_u3", "none")
    betas = np.array([
        init_params({"kind": "glorot_normal"}, spec, np.random.default_rng(s)).beta
        for s in range(500)
    ])
    assert betas.mean() == pytest.approx(1.0, abs=0.02)
    assert betas.std() == pytest.approx(0.1, abs=0.02)


# ---------------------------------------------------------------------------
# estimator
# ---------------------------------------------------------------------------

def bandit_policy(beta=1.2):
    spec = CircuitSpec(1, 1, 2, "single_u3", "none")
    return QuantumPolicy(spec, PolicyParams(np.array([0.4, 0.2, -0.3]), beta))


def bandit_obs():
    return qsim.amplitude_features(qsim.init_zero(1).amplitudes)


def test_single_step_no_baseline_gradient_shape():
    # a 1-step trajectory against a zero baseline contributes G_0 * grad log pi
    policy = bandit_policy()
    obs = bandit_obs()
    traj = make_traj([2.0], actions=[1], observations=[obs])
    other = make_traj([0.0], actions=[0], observations=[obs])
    g = policy_gradient([traj, other], policy)
    glog1 = policy.grad_log(obs, 1)
    glog0 = policy.grad_log(obs, 0)
    np.testing.assert_allclose(g, ((2.0 - 1.0) * glog1 + (0.0 - 1.0) * glog0) / 2, atol=1e-12)


def test_zero_advantages_give_zero_gradient():
    policy = bandit_policy()
    traj = make_traj([1.0, 1.0], actions=[0, 1], observations=[bandit_obs()] * 2)
    g = policy_gradient([traj], policy)
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
    g1 = policy_gradient(batch, policy)
    shifted = [Trajectory(t.observations, t.actions, t.rewards, t.returns + 7.5) for t in batch]
    g2 = policy_gradient(shifted, policy)
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
                total += a_t * np.log(policy.probabilities(obs)[action])
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
    probs = policy.probabilities(obs)
    rewards = np.array([1.0, 0.0])
    analytic = sum(probs[a] * rewards[a] * policy.grad_log(obs, a) for a in range(2))
    glogs = np.stack([policy.grad_log(obs, a) for a in range(2)])
    draws = rng.choice(2, size=10**4, p=probs)
    estimate = (rewards[draws, None] * glogs[draws]).mean(axis=0)
    assert np.dot(estimate, analytic) > 0
    np.testing.assert_allclose(estimate, analytic, atol=0.05)


def test_sample_action_inverse_cdf():
    rng = np.random.default_rng(0)
    probs = np.array([0.2, 0.5, 0.3])
    counts = np.bincount([sample_action(probs, rng) for _ in range(20000)], minlength=3)
    np.testing.assert_allclose(counts / 20000, probs, atol=0.02)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_zero_episode_budget_yields_nothing():
    cfg_run = cfg.preset_config("qcontrol-quantum", {"episodes": 0})
    assert list(train(cfg_run)) == []


def test_train_is_deterministic_for_fixed_seed():
    cfg_run = cfg.preset_config("qcontrol-quantum", {"episodes": 40, "seed": 11})
    rows_a = [(r.episode, r.total_reward, r.discounted_return, r.beta, r.grad_norm)
              for r in train(cfg_run)]
    rows_b = [(r.episode, r.total_reward, r.discounted_return, r.beta, r.grad_norm)
              for r in train(cfg_run)]
    assert rows_a == rows_b
    assert len(rows_a) == 40


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
    # The rollouts' episode views share one operator built before they are
    # taken, and the batch gradient reuses it: theta is unchanged until Adam.
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
                total += a_t * np.log(policy.probabilities(obs)[action])
        return total / len(batch)

    before = surrogate()
    grad = policy_gradient(batch, policy)
    adam = AdamState.fresh(policy.n_trainable, 1e-3)
    policy.set_vector(adam_step(policy.get_vector(), grad, adam))
    assert surrogate() > before


def test_checkpoint_hook_fires_every_ten_percent():
    cfg_run = cfg.preset_config("qcontrol-quantum", {"episodes": 50, "seed": 2})
    seen = []
    for _ in train(cfg_run, checkpoint_hook=lambda ep, st: seen.append(ep)):
        pass
    assert seen == [5, 10, 15, 20, 25, 30, 35, 40, 45, 50]


def test_rollout_respects_episode_caps():
    cfg_run = cfg.preset_config("qcontrol-quantum", {"seed": 4})
    state = prepare(cfg_run)
    from qpolgrad.envs import make_env

    traj = rollout(make_env("qcontrol"), state.policy, np.random.default_rng(0), 0.99)
    assert 1 <= len(traj) <= 10
    np.testing.assert_allclose(traj.returns, discounted_returns(traj.rewards, 0.99))
