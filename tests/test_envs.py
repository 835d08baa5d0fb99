import numpy as np
import pytest

from qpolgrad import envs, qsim
from qpolgrad.errors import ConfigError, ContractError
from qpolgrad.envs import Acrobot, CartPole, QControl, discounted_returns, make_env


def test_env_specs_match_frozen_table():
    assert (envs.ENV_SPECS["cartpole"].n_features, envs.ENV_SPECS["cartpole"].n_actions,
            envs.ENV_SPECS["cartpole"].max_steps) == (4, 2, 200)
    assert (envs.ENV_SPECS["acrobot"].n_features, envs.ENV_SPECS["acrobot"].n_actions,
            envs.ENV_SPECS["acrobot"].max_steps) == (6, 3, 500)
    assert (envs.ENV_SPECS["qcontrol"].n_features, envs.ENV_SPECS["qcontrol"].n_actions,
            envs.ENV_SPECS["qcontrol"].max_steps) == (4, 2, 10)


def test_make_env_rejects_unknown_name():
    with pytest.raises(ConfigError):
        make_env("mountaincar")


# ---------------------------------------------------------------------------
# discounted returns
# ---------------------------------------------------------------------------

def test_discounted_returns_basic():
    np.testing.assert_allclose(discounted_returns([1, 1, 1], 0.9), [2.71, 1.9, 1.0])


def test_discounted_returns_undiscounted_suffix_sums():
    np.testing.assert_allclose(discounted_returns([-1, -1, 0], 1.0), [-2, -1, 0])


def test_discounted_returns_edge_cases():
    np.testing.assert_allclose(discounted_returns([3.5], 0.5), [3.5])
    assert discounted_returns([], 0.9).size == 0
    with pytest.raises(ContractError):
        discounted_returns([1.0], 0.0)


# ---------------------------------------------------------------------------
# CartPole
# ---------------------------------------------------------------------------

def test_cartpole_reset_range_and_determinism():
    env = CartPole()
    obs = env.reset(np.random.default_rng(5))
    assert obs.shape == (4,)
    assert np.all(np.abs(obs) < 0.05)
    obs2 = CartPole().reset(np.random.default_rng(5))
    np.testing.assert_array_equal(obs, obs2)


def test_cartpole_first_step_from_rest():
    # Hand evaluation of the standard equations from (0,0,0,0), force +10:
    # temp = 10/1.1, thetaacc = -temp / (0.5*(4/3 - 0.1/1.1)) = -600/41,
    # xacc = temp + 0.05*(600/41)/1.1 = 400/41; Euler leaves positions at 0.
    env = CartPole()
    env.reset(np.random.default_rng(0))
    env.state = np.zeros(4)
    (x, x_dot, theta, theta_dot), reward, done = env.step(1)
    assert (x, theta) == (0.0, 0.0)
    assert x_dot == pytest.approx(8 / 41, abs=1e-12)
    assert theta_dot == pytest.approx(-12 / 41, abs=1e-12)
    assert reward == 1.0
    assert not done


def test_cartpole_reward_is_one_every_step():
    env = CartPole()
    env.reset(np.random.default_rng(1))
    rng = np.random.default_rng(2)
    done = False
    while not done:
        _, reward, done = env.step(int(rng.integers(2)))
        assert reward == 1.0


def test_cartpole_out_of_bounds_terminates():
    env = CartPole()
    env.reset(np.random.default_rng(0))
    env.state = np.array([2.39, 50.0, 0.0, 0.0])  # will cross x = 2.4
    _, _, done = env.step(1)
    assert done


def test_cartpole_episode_cap_200():
    env = CartPole()
    env.reset(np.random.default_rng(3))
    steps = 0
    done = False
    while not done:
        env.state[2] = 0.0  # hold the pole upright to force the cap
        env.state[3] = 0.0
        _, _, done = env.step(steps % 2)
        steps += 1
    assert steps == 200
    with pytest.raises(ContractError):
        env.step(0)


def test_cartpole_survives_at_least_eight_steps_under_constant_push():
    # Regression value from simulating the frozen dynamics: a constant force
    # from any near-zero start keeps the pole up for >= 8 steps.
    rng = np.random.default_rng(7)
    for _ in range(50):
        for action in (0, 1):
            env = CartPole()
            env.reset(rng)
            steps = 0
            done = False
            while not done and steps < 20:
                _, _, done = env.step(action)
                steps += 1
            assert steps >= 8


def test_cartpole_determinism_bitwise():
    rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
    env_a, env_b = CartPole(), CartPole()
    env_a.reset(rng_a)
    env_b.reset(rng_b)
    actions = np.random.default_rng(10).integers(2, size=50)
    for a in actions:
        (obs_a, _, done), (obs_b, _, _) = env_a.step(int(a)), env_b.step(int(a))
        assert np.array_equal(obs_a, obs_b)
        if done:
            break


# ---------------------------------------------------------------------------
# Acrobot
# ---------------------------------------------------------------------------

def test_acrobot_reset_observation_bounds():
    obs = Acrobot().reset(np.random.default_rng(4))
    assert obs.shape == (6,)
    assert np.all(np.abs(obs) <= np.array([1, 1, 1, 1, 0.1, 0.1]) + 1e-12)


def test_acrobot_hanging_rest_is_equilibrium():
    env = Acrobot()
    env.reset(np.random.default_rng(0))
    env.state = np.zeros(4)
    _, reward, done = env.step(1)  # zero torque
    np.testing.assert_allclose(env.state, np.zeros(4), atol=1e-12)
    assert reward == -1.0
    assert not done


def test_acrobot_goal_gives_zero_reward_and_done():
    env = Acrobot()
    env.reset(np.random.default_rng(0))
    # place the system so the next step keeps the tip above the bar:
    # theta1 = pi (first link straight up), theta2 = 0, at rest
    env.state = np.array([np.pi, 0.0, 0.0, 0.0])
    _, reward, done = env.step(1)
    height = -np.cos(env.state[0]) - np.cos(env.state[0] + env.state[1])
    assert height > 1.0
    assert reward == 0.0
    assert done


def test_acrobot_nongoal_reward_minus_one():
    env = Acrobot()
    env.reset(np.random.default_rng(11))
    _, reward, _ = env.step(0)
    assert reward == -1.0


def test_acrobot_velocity_clipping():
    env = Acrobot()
    env.reset(np.random.default_rng(0))
    env.state = np.array([0.0, 0.0, 12.0, 28.0])
    env.step(2)
    assert abs(env.state[2]) <= 4 * np.pi + 1e-12
    assert abs(env.state[3]) <= 9 * np.pi + 1e-12


def test_acrobot_episode_cap_500():
    env = Acrobot()
    env.reset(np.random.default_rng(12))
    steps = 0
    done = False
    while not done:
        _, _, done = env.step(1)
        steps += 1
        assert steps <= 500
    assert steps == 500  # zero torque never reaches the goal


def test_acrobot_determinism_bitwise():
    actions = np.random.default_rng(13).integers(3, size=80)
    trajs = []
    for _ in range(2):
        env = Acrobot()
        env.reset(np.random.default_rng(14))
        feats = []
        for a in actions:
            obs, _, done = env.step(int(a))
            feats.append(obs)
            if done:
                break
        trajs.append(np.array(feats))
    assert np.array_equal(trajs[0], trajs[1])


# ---------------------------------------------------------------------------
# QControl
# ---------------------------------------------------------------------------

def test_qcontrol_reset_is_ground_state():
    obs = QControl().reset(np.random.default_rng(0))
    np.testing.assert_array_equal(obs, [1, 0, 0, 0])
    np.testing.assert_array_equal(qsim.feature_amplitudes(obs), [1, 0])


def test_qcontrol_first_pulse_free_step_reward():
    env = QControl()
    env.reset(np.random.default_rng(0))
    _, reward, _ = env.step(0)
    assert reward == pytest.approx(np.sin(np.pi / 20) ** 2, abs=1e-12)
    assert reward == pytest.approx(0.02447174185242318, abs=1e-12)


def test_qcontrol_ten_free_steps_reach_target():
    env = QControl()
    env.reset(np.random.default_rng(0))
    for _ in range(10):
        _, reward, done = env.step(0)
    assert reward == pytest.approx(1.0, abs=1e-12)
    assert done


def test_qcontrol_rotating_off_target_lowers_fidelity():
    env = QControl()
    env.reset(np.random.default_rng(0))
    env.qubit = qsim.Statevector(1, np.array([0, 1], dtype=complex))
    _, reward, _ = env.step(0)
    assert reward < 1.0


def test_qcontrol_view_consistency_and_norm():
    env = QControl()
    env.reset(np.random.default_rng(1))
    rng = np.random.default_rng(2)
    done = False
    while not done:
        obs, _, done = env.step(int(rng.integers(2)))
        amps = env.qubit.amplitudes
        np.testing.assert_array_equal(obs, [amps[0].real, amps[0].imag,
                                            amps[1].real, amps[1].imag])
        # the row rebuilds the qubit's amplitudes bit for bit
        np.testing.assert_array_equal(qsim.feature_amplitudes(obs), amps)
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-10


def test_qcontrol_episode_cap_ten():
    env = QControl()
    env.reset(np.random.default_rng(3))
    rng = np.random.default_rng(4)
    steps = 0
    done = False
    while not done:
        _, _, done = env.step(int(rng.integers(2)))
        steps += 1
    assert steps <= 10


def test_qcontrol_exhaustive_best_sequence_total():
    # Independent oracle for the optimum: evolve with an eigendecomposition
    # of H over all 2^10 pulse sequences. The best total reward is 5.5,
    # from the pulse-free sequence.
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)

    def propagator(j):
        ham = 4 * j * sz + sx
        w, v = np.linalg.eigh(ham)
        return v @ np.diag(np.exp(-1j * w * np.pi / 20)) @ v.conj().T

    u = [propagator(0), propagator(1)]
    best = -1.0
    for m in range(1024):
        psi = np.array([1, 0], dtype=complex)
        total = 0.0
        for b in range(10):
            psi = u[(m >> b) & 1] @ psi
            total += abs(psi[1]) ** 2
        best = max(best, total)
    assert best == pytest.approx(5.5, abs=1e-9)

    # the environment reproduces the oracle's optimal episode
    env = QControl()
    env.reset(np.random.default_rng(0))
    total = 0.0
    for _ in range(10):
        total += env.step(0)[1]
    assert total == pytest.approx(best, abs=1e-9)


def test_step_before_reset_raises():
    for env in (CartPole(), Acrobot(), QControl()):
        with pytest.raises(ContractError):
            env.step(0)
