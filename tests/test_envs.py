"""Environments. The dynamics tests run on the scalar reference classes in
conftest; the batched environments the rollout steps must agree with them
bit for bit from the same states."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    Acrobot,
    CartPole,
    QControl,
    Statevector,
    acrobot_array_features,
    loop_discounted_returns,
)
from qpolgrad import envs, qsim
from qpolgrad.errors import ConfigError, ContractError
from qpolgrad.envs import discounted_returns, make_env


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


@pytest.mark.parametrize("gamma", [0.5, 0.99, 1.0])
@pytest.mark.parametrize("length", [0, 1, 200])
def test_discounted_returns_match_the_numpy_scalar_loop(length, gamma):
    # The Python-float pass does the numpy-scalar loop's operations in its order.
    rewards = np.random.default_rng(length).normal(size=length)
    got, want = discounted_returns(rewards, gamma), loop_discounted_returns(rewards, gamma)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


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


def test_hamiltonian_propagator_matches_matrix_exponential():
    # independent oracle: exp(-i dt H) for H = a Z + b X from the
    # eigendecomposition of H, including the zero Hamiltonian and both pulse
    # settings of QControl
    def expm_hermitian(h, dt):
        w, v = np.linalg.eigh(h)
        return (v * np.exp(-1j * dt * w)) @ v.conj().T

    z, x = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    rng = np.random.default_rng(17)
    cases = [(0.0, 0.0, 0.7), (0.0, 1.0, np.pi / 20), (4.0, 1.0, np.pi / 20)]
    cases += [tuple(rng.normal(size=2)) + (rng.uniform(0, 3),) for _ in range(50)]
    for a, b, dt in cases:
        want = expm_hermitian(a * z + b * x, dt)
        np.testing.assert_allclose(envs.hamiltonian_propagator(a, b, dt), want, rtol=0,
                                   atol=1e-12)


def test_qcontrol_rotating_off_target_lowers_fidelity():
    env = QControl()
    env.reset(np.random.default_rng(0))
    env.qubit = Statevector(1, np.array([0, 1], dtype=complex))
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


# ---------------------------------------------------------------------------
# array environments against the scalar reference
# ---------------------------------------------------------------------------

def random_states(name, rng, n):
    """Start states spread over (and a little past) what episodes visit."""
    if name == "cartpole":
        return rng.uniform(-1, 1, size=(n, 4)) * [2.5, 3.0, 0.25, 3.5]
    if name == "acrobot":
        return rng.uniform(-1, 1, size=(n, 4)) * [np.pi, np.pi, 4 * np.pi, 9 * np.pi]
    amps = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


def scalar_env(name, state):
    """The scalar reference environment, reset and then put in `state`."""
    env = {"cartpole": CartPole, "acrobot": Acrobot, "qcontrol": QControl}[name]()
    env.reset(np.random.default_rng(0))
    if name == "qcontrol":
        env.qubit = Statevector(1, state.copy())
    else:
        env.state = state.copy()
    return env


@pytest.mark.parametrize("name", ["cartpole", "acrobot", "qcontrol"])
def test_array_step_matches_scalar_step(name):
    # All three agree bit for bit: the scalar references square by x * x, as
    # the batched steps do.
    rng = np.random.default_rng(21)
    env = make_env(name)
    n = 2000
    states = random_states(name, rng, n)
    actions = rng.integers(env.spec.n_actions, size=n)
    features = env.features(states)
    assert features.shape == (n, env.spec.n_features)
    new_states, rewards, done = env.step(states.copy(), actions)
    new_features = env.features(new_states)
    for i in range(n):
        obs, reward, finished = scalar_env(name, states[i]).step(int(actions[i]))
        np.testing.assert_array_equal(new_features[i], obs)
        assert rewards[i] == reward
        assert done[i] == finished


# Pole velocities whose square by libm pow (a Python float's `**`) misses the
# correctly rounded x * x, fast enough that the miss reaches CartPole's bits.
POW_MISSES = [x for x in np.random.default_rng(3).uniform(5, 60, 20_000).tolist()
              if x**2 != x * x][:4]


def edge_rows(name, rng, n):
    """Rows whose entries sit where a comparison, the angle wrap or a square's
    rounding decides: signed zeros, the cart and pole limits (with zero
    velocities, so a step keeps them) and one ulp past them, `POW_MISSES`,
    angles at and just inside +-pi, and velocities at, one ulp past and well
    past the acrobot clips."""
    env = make_env(name)

    def signed(*values):
        return [v for x in values for v in (x, -x)]

    if name == "cartpole":
        x, th = env.X_LIMIT, env.THETA_LIMIT
        columns = [signed(x, np.nextafter(x, np.inf), 0.0), signed(0.0),
                   signed(th, np.nextafter(th, np.inf), 0.0), signed(0.0, *POW_MISSES)]
    else:
        angles = signed(np.pi, np.nextafter(np.pi, 0), 0.0)
        v1, v2 = env.MAX_VEL_1, env.MAX_VEL_2
        columns = [angles, angles, signed(v1, np.nextafter(v1, np.inf), 1.5 * v1, 0.0),
                   signed(v2, np.nextafter(v2, np.inf), 1.5 * v2, 0.0)]
    return np.array([[rng.choice(column) for column in columns] for _ in range(n)]).reshape(n, 4)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(name=st.sampled_from(["cartpole", "acrobot"]), b=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
def test_step_matches_the_scalar_reference_row_by_row(name, b, seed):
    # Every output bit of every row, edge rows included, and a row's bits do
    # not depend on its batch: shuffled or cut to a sub-batch, each row
    # steps to the same bits.
    rng = np.random.default_rng(seed)
    env = make_env(name)
    states = random_states(name, rng, b)
    on_edge = rng.random(b) < 1 / 3
    states[on_edge] = edge_rows(name, rng, int(on_edge.sum()))
    actions = rng.integers(env.spec.n_actions, size=b)
    new_states, rewards, done = env.step(states.copy(), actions)
    assert (new_states.shape, rewards.shape, done.shape) == ((b, 4), (b,), (b,))
    assert (new_states.dtype, rewards.dtype, done.dtype) == (np.float64, np.float64, np.bool_)
    for i in range(b):
        scalar = scalar_env(name, states[i])
        _, reward, finished = scalar.step(int(actions[i]))
        assert new_states[i].tobytes() == scalar.state.tobytes()
        assert (rewards[i], done[i]) == (reward, finished)
    order = rng.permutation(b)
    for index in (order, order[:rng.integers(1, b + 1)]):
        for got, want in zip(env.step(states[index], actions[index]), (new_states, rewards, done)):
            assert got.tobytes() == want[index].tobytes()


@settings(max_examples=50, deadline=None, derandomize=True)
@given(b=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_acrobot_features_match_the_array_oracle(b, seed):
    # Per-row Python floats give every bit of numpy's array features, edge
    # rows (signed zeros, +-pi, clipped velocities) included.
    rng = np.random.default_rng(seed)
    states = random_states("acrobot", rng, b)
    on_edge = rng.random(b) < 1 / 3
    states[on_edge] = edge_rows("acrobot", rng, int(on_edge.sum()))
    got = make_env("acrobot").features(states)
    assert (got.shape, got.dtype) == ((b, 6), np.float64)
    assert got.tobytes() == acrobot_array_features(states).tobytes()


def test_math_cos_and_sin_give_the_bits_of_numpy_on_arrays():
    # The steps and the acrobot features call math.cos and math.sin per row,
    # where the array code that recorded the golden runs called np.cos and
    # np.sin on float64 arrays. Acrobot's arguments include theta1 + theta2 - pi/2
    # (|x| <= 2 pi + pi/2 after the wrap) and RK4's stages, which step angles
    # past the wrap (|x| up to about 30); far beyond that the libraries must
    # still agree.
    rng = np.random.default_rng(29)
    reach = 2 * np.pi + np.pi / 2
    angles = np.concatenate([
        rng.uniform(-reach, reach, 150_000),
        rng.uniform(-50.0, 50.0, 40_000),
        np.exp(rng.uniform(-700.0, 700.0, 10_000)) * rng.choice([-1.0, 1.0], 10_000),
        [0.0, -0.0, np.pi, -np.pi, np.pi / 2, -np.pi / 2, 2 * np.pi, 5e-324],
    ])
    for np_fn, math_fn in ((np.cos, math.cos), (np.sin, math.sin)):
        want = np_fn(angles)
        got = np.array([math_fn(x) for x in angles.tolist()])
        differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert differ.size == 0, (f"math.{math_fn.__name__} differs from np.{np_fn.__name__} on "
                                  f"{differ.size} angles, the first {angles[differ[0]]!r}")


def test_cartpole_step_ends_only_past_the_limits():
    # With zero velocity a step leaves x and theta unchanged, so these states
    # stay exactly on a limit, which does not end the episode, or one ulp
    # past it, which does.
    env = make_env("cartpole")
    x_lim, th_lim = env.X_LIMIT, env.THETA_LIMIT
    past = [np.nextafter(x_lim, np.inf), np.nextafter(th_lim, np.inf)]
    positions = [(x_lim, 0.0), (-x_lim, 0.0), (0.0, th_lim), (0.0, -th_lim), (x_lim, th_lim),
                 (past[0], 0.0), (-past[0], 0.0), (0.0, past[1]), (0.0, -past[1])]
    states = np.array([[x, 0.0, theta, 0.0] for x, theta in positions])
    for action in (0, 1):
        actions = np.full(len(states), action)
        new_states, rewards, done = env.step(states.copy(), actions)
        np.testing.assert_array_equal(new_states[:, ::2], states[:, ::2])
        assert done.tolist() == [False] * 5 + [True] * 4
        for i, state in enumerate(states):
            obs, reward, finished = scalar_env("cartpole", state).step(action)
            np.testing.assert_array_equal(new_states[i], obs)
            assert (rewards[i], done[i]) == (reward, finished)


@pytest.mark.parametrize("name", ["cartpole", "acrobot", "qcontrol"])
def test_array_reset_matches_scalar_reset(name):
    env = make_env(name)
    states = env.reset([np.random.default_rng(seed) for seed in range(5)])
    for seed, row in enumerate(env.features(states)):
        scalar = {"cartpole": CartPole, "acrobot": Acrobot, "qcontrol": QControl}[name]()
        np.testing.assert_array_equal(row, scalar.reset(np.random.default_rng(seed)))
