"""Shared test helpers: independent oracles and random circuit draws.

The matrix oracles build full 2**n x 2**n unitaries with np.kron and explicit
basis-state permutation, deliberately avoiding the package's gate-application
code path. The gate-by-gate `Statevector` oracle applies one gate at a time
to one state and reads <sigma_z> qubit by qubit from its marginals; the
preference oracle evaluates the policy through it, independently of the
batched row-operator engine. The kron encoding, the marginal readout, the
numpy-scalar discounted returns and the numpy-array acrobot features are the
references for the package's gathered encode, sign-table readout and
Python-float returns and features. The whole-batch score terms are the
reference for the gradients' streamed pass over row chunks. The scalar
environments step one episode at a time with numpy scalars and evolve a
`Statevector` under the control Hamiltonian, and the sequential rollout runs
one episode after another with one 1-row inference per step: together they
are the reference for the array environments and the lockstep rollout.
"""
import tracemalloc
from dataclasses import dataclass

import numpy as np

from qpolgrad import config as cfg
from qpolgrad import envs, qsim, vqpolicy
from qpolgrad.errors import ConfigError, ContractError
from qpolgrad.reinforce import Trajectory, prepare, train
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


# ---------------------------------------------------------------------------
# gate-by-gate Statevector oracle
# ---------------------------------------------------------------------------

@dataclass
class Statevector:
    """Pure n-qubit state as a complex amplitude vector of length 2**n."""

    n_qubits: int
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))


def init_zero(n_qubits: int) -> Statevector:
    """The all-zeros computational basis state |0...0>."""
    if not isinstance(n_qubits, (int, np.integer)) or not 1 <= n_qubits <= qsim.MAX_QUBITS:
        raise ConfigError(f"n_qubits must be an integer in [1, {qsim.MAX_QUBITS}], "
                          f"got {n_qubits!r}")
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = 1.0
    return Statevector(int(n_qubits), amps)


def _check_qubit(qubit: int, n_qubits: int) -> None:
    if not 0 <= qubit < n_qubits:
        raise ContractError(f"qubit index {qubit} out of range for {n_qubits} qubits")


def apply_gate(state: Statevector, gate: qsim.Gate) -> Statevector:
    """Apply one gate to one state, returning a new state (input untouched)."""
    _check_qubit(gate.target, state.n_qubits)
    if gate.control is not None:
        _check_qubit(gate.control, state.n_qubits)
        amps = qsim.apply_cnot_array(state.amplitudes, gate.control, gate.target,
                                     state.n_qubits)
    else:
        amps = qsim.apply_1q_array(state.amplitudes, gate.matrix(), gate.target,
                                   state.n_qubits)
    return Statevector(state.n_qubits, amps)


def apply_circuit(state: Statevector, gates) -> Statevector:
    for gate in gates:
        state = apply_gate(state, gate)
    return state


def marginal_z(rows: np.ndarray, qubits, n_qubits: int) -> np.ndarray:
    """Exact <sigma_z> of each listed qubit for row-stacked states, shape
    (T, len(qubits)): P(0) - P(1) of each qubit's marginal."""
    probs = (np.abs(rows) ** 2).reshape(rows.shape[0], *([2] * n_qubits))
    margs = []
    for q in qubits:
        other = tuple(i for i in range(1, n_qubits + 1) if i != 1 + q)
        margs.append(probs.sum(axis=other) if other else probs)
    return np.stack([m[:, 0] - m[:, 1] for m in margs], axis=1)


def kron_encoded_rows(angles: np.ndarray) -> np.ndarray:
    """RX(a)|0> = [cos(a/2), -i sin(a/2)] per qubit, multiplied out as complex
    krons one qubit at a time, qubit 0 the most significant factor."""
    half = np.atleast_2d(np.asarray(angles, dtype=float)) / 2
    factors = np.stack([np.cos(half), -1j * np.sin(half)], axis=2)  # (T, n, 2)
    rows = factors[:, 0]
    for q in range(1, half.shape[1]):
        rows = (rows[:, :, None] * factors[:, q, None, :]).reshape(len(half), -1)
    return rows


def expectation_z(state: Statevector, qubit: int) -> float:
    """Exact <sigma_z> on one qubit: P(bit=0) - P(bit=1)."""
    _check_qubit(qubit, state.n_qubits)
    return float(marginal_z(state.amplitudes[None], [qubit], state.n_qubits)[0, 0])


def evolve_hamiltonian(state: Statevector, coeff_z: float, coeff_x: float,
                       dt: float) -> Statevector:
    """One qubit evolved for `dt` under H = coeff_z*sigma_z + coeff_x*sigma_x."""
    if state.n_qubits != 1:
        raise ContractError("evolve_hamiltonian acts on single-qubit states only")
    return Statevector(1, envs.hamiltonian_propagator(coeff_z, coeff_x, dt) @ state.amplitudes)


def fidelity(state_a: Statevector, state_b: Statevector) -> float:
    """|<a|b>|^2, the squared overlap of two pure states."""
    if state_a.n_qubits != state_b.n_qubits:
        raise ContractError("fidelity requires states of equal qubit count")
    return float(np.abs(np.vdot(state_a.amplitudes, state_b.amplitudes)) ** 2)


def random_state(rng: np.random.Generator, n: int) -> Statevector:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    return Statevector(n, amps)


def rescale(normalizer, features) -> np.ndarray:
    """Scale features the normalizer has observed to angles in [-pi, pi]."""
    return np.asarray(features, dtype=float) * (np.pi / normalizer.running_abs_max)


def encode_gates(features, normalizer) -> Statevector:
    """Angle-encode one feature vector gate by gate: RX(normalized feature) per qubit."""
    features = np.asarray(features, dtype=float)
    normalizer.observe(features)
    angles = rescale(normalizer, features)
    state = init_zero(len(angles))
    for i, angle in enumerate(angles):
        state = apply_gate(state, qsim.Gate("RX", (float(angle),), i))
    return state


def oracle_preferences(spec, theta, x, normalizer=None) -> np.ndarray:
    """Per-action preferences gate by gate: encode (or take the input state),
    apply the ansatz, then read <sigma_z> of each measured qubit."""
    state = encode_gates(x, normalizer) if spec.encoding == "angle_rx" else x
    out = apply_circuit(state, build_ansatz(spec, theta))
    if spec.architecture == "single_u3":
        z = expectation_z(out, 0)
        return np.array([z, -z])
    return np.array([expectation_z(out, q) for q in range(spec.n_actions)])


def grad_log(policy, obs, action: int, rng=None) -> np.ndarray:
    """Log-policy gradient of one (observation, action) pair."""
    return policy.grad_log_batch([obs], [action], rng)[0]


def batch_score_terms(policy, observations, actions):
    """Input rows, output rows, readout weights and beta entries of T pairs
    under an exact-mode quantum policy, each formed over the whole batch at
    once."""
    actions = np.asarray(actions, dtype=int)
    enc = policy._encode_batch(observations)
    out_rows = vqpolicy.serial_matmul(enc, policy.row_operator())
    prefs = vqpolicy._readout(policy.spec, out_rows, 0, None)
    probs = vqpolicy.softmax_policy(prefs, policy.beta)
    rows = np.arange(enc.shape[0])
    weights = -policy.beta * probs
    weights[rows, actions] += policy.beta
    gbeta = prefs[rows, actions] - np.einsum("ta,ta->t", prefs, probs)
    return enc, out_rows, weights, gbeta


def batch_grad_log(policy, observations, actions) -> np.ndarray:
    """Exact-mode (T, k+1) log-policy gradients from the whole-batch terms:
    the T output rows with their co-states are swept ADJOINT_CHUNK_ROWS at a
    time from row 0. The chunks keep the bits of a lone last row, which the
    sweep rounds apart from a row among others (by about 1e-33 on near-zero
    entries)."""
    _, out_rows, weights, gbeta = batch_score_terms(policy, observations, actions)
    lam = out_rows * vqpolicy._observable_diagonals(policy.spec, weights)
    step = vqpolicy.ADJOINT_CHUNK_ROWS
    gtheta = np.concatenate([
        vqpolicy.adjoint_gradients(policy.spec, policy.theta, out_rows[lo:lo + step],
                                   lam[lo:lo + step])
        for lo in range(0, len(out_rows), step)])
    return np.concatenate([gtheta, gbeta[:, None]], axis=1)


def batch_weighted_grad_log(policy, observations, actions, weights) -> np.ndarray:
    """Exact-mode sum_t weights[t] * grad log pi(a_t | s_t) from the
    whole-batch terms: the output rows fold into M = sum_t |psi_t><O_t psi_t|
    ADJOINT_CHUNK_ROWS rows at a time from row 0, and M's rows are swept
    against the identity's."""
    spec = policy.spec
    _, out_rows, readout, gbeta = batch_score_terms(policy, observations, actions)
    w = readout * weights[:, None]
    dim, step = 2**spec.n_qubits, vqpolicy.ADJOINT_CHUNK_ROWS
    m = np.zeros((dim, dim), dtype=complex)
    for lo in range(0, len(out_rows), step):
        psi = out_rows[lo:lo + step]
        lam = psi * vqpolicy._observable_diagonals(spec, w[lo:lo + step])
        m += vqpolicy.serial_matmul(lam.conj().T, psi)
    gtheta = vqpolicy.adjoint_gradients(spec, policy.theta, m, np.eye(dim)).sum(axis=0)
    return np.append(gtheta, weights @ gbeta)


# ---------------------------------------------------------------------------
# scalar environments and the sequential rollout
# ---------------------------------------------------------------------------

class _EpisodicEnv:
    """One episode at a time; subclasses implement _reset and _step and take
    their constants from the array environment of the same name.

    Squares are written x * x: on a numpy scalar `x**2` calls libm pow, which
    differs from the correctly rounded x * x (what an array `x**2` computes)
    in the last bit on about 1 input in 1,200.
    """

    spec: envs.EnvSpec

    def __init__(self):
        self._step_index = 0
        self._done = True

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        self._step_index = 0
        self._done = False
        return self._reset(rng)

    def step(self, action: int) -> tuple[np.ndarray, float, bool]:
        """(features, reward, done) after one action; done also at the step cap."""
        if self._done:
            raise ContractError(f"{self.spec.name}: step() on a finished episode")
        if not 0 <= action < self.spec.n_actions:
            raise ContractError(f"{self.spec.name}: action {action} out of range")
        self._step_index += 1
        obs, reward, done = self._step(int(action))
        if self._step_index >= self.spec.max_steps:
            done = True
        self._done = done
        return obs, reward, done


class CartPole(_EpisodicEnv, envs.CartPole):
    def __init__(self):
        super().__init__()
        self.state = np.zeros(4)

    def _reset(self, rng):
        self.state = rng.uniform(-0.05, 0.05, size=4)
        return self.state.copy()

    def _step(self, action):
        x, x_dot, theta, theta_dot = self.state
        force = self.FORCE_MAG if action == 1 else -self.FORCE_MAG
        costheta, sintheta = np.cos(theta), np.sin(theta)
        temp = (force + self.POLEMASS_LENGTH * (theta_dot * theta_dot) * sintheta) / self.TOTAL_MASS
        thetaacc = (self.GRAVITY * sintheta - costheta * temp) / (
            self.LENGTH * (4.0 / 3.0 - self.MASS_POLE * (costheta * costheta) / self.TOTAL_MASS)
        )
        xacc = temp - self.POLEMASS_LENGTH * thetaacc * costheta / self.TOTAL_MASS
        x = x + self.TAU * x_dot
        x_dot = x_dot + self.TAU * xacc
        theta = theta + self.TAU * theta_dot
        theta_dot = theta_dot + self.TAU * thetaacc
        self.state = np.array([x, x_dot, theta, theta_dot])
        done = bool(abs(x) > self.X_LIMIT or abs(theta) > self.THETA_LIMIT)
        return self.state.copy(), 1.0, done


def acrobot_array_features(states: np.ndarray) -> np.ndarray:
    """Acrobot's feature rows by numpy ufuncs on the (B, 4) state array."""
    t1, t2, d1, d2 = states.T
    return np.stack([np.cos(t1), np.sin(t1), np.cos(t2), np.sin(t2), d1, d2], axis=1)


def _wrap(x: float, low: float, high: float) -> float:
    return (x - low) % (high - low) + low


class Acrobot(_EpisodicEnv, envs.Acrobot):
    def __init__(self):
        super().__init__()
        self.state = np.zeros(4)  # theta1, theta2, dtheta1, dtheta2

    def _reset(self, rng):
        self.state = rng.uniform(-0.1, 0.1, size=4)
        return self._observation()

    def _observation(self):
        t1, t2, d1, d2 = self.state
        return np.array([np.cos(t1), np.sin(t1), np.cos(t2), np.sin(t2), d1, d2])

    def _dsdt(self, s, torque):
        m1, m2 = self.LINK_MASS_1, self.LINK_MASS_2
        l1 = self.LINK_LENGTH_1
        lc1, lc2 = self.LINK_COM_1, self.LINK_COM_2
        i1 = i2 = self.LINK_MOI
        g = self.GRAVITY
        theta1, theta2, dtheta1, dtheta2 = s
        d1 = m1 * lc1**2 + m2 * (l1**2 + lc2**2 + 2 * l1 * lc2 * np.cos(theta2)) + i1 + i2
        d2 = m2 * (lc2**2 + l1 * lc2 * np.cos(theta2)) + i2
        phi2 = m2 * lc2 * g * np.cos(theta1 + theta2 - np.pi / 2)
        phi1 = (
            -m2 * l1 * lc2 * (dtheta2 * dtheta2) * np.sin(theta2)
            - 2 * m2 * l1 * lc2 * dtheta2 * dtheta1 * np.sin(theta2)
            + (m1 * lc1 + m2 * l1) * g * np.cos(theta1 - np.pi / 2)
            + phi2
        )
        ddtheta2 = (
            torque + d2 / d1 * phi1 - m2 * l1 * lc2 * (dtheta1 * dtheta1) * np.sin(theta2) - phi2
        ) / (m2 * lc2**2 + i2 - (d2 * d2) / d1)
        ddtheta1 = -(d2 * ddtheta2 + phi1) / d1
        return np.array([dtheta1, dtheta2, ddtheta1, ddtheta2])

    def _step(self, action):
        torque = self.TORQUES[action]
        s = self.state
        h = self.DT
        k1 = self._dsdt(s, torque)
        k2 = self._dsdt(s + h / 2 * k1, torque)
        k3 = self._dsdt(s + h / 2 * k2, torque)
        k4 = self._dsdt(s + h * k3, torque)
        s = s + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        s[0] = _wrap(s[0], -np.pi, np.pi)
        s[1] = _wrap(s[1], -np.pi, np.pi)
        s[2] = np.clip(s[2], -self.MAX_VEL_1, self.MAX_VEL_1)
        s[3] = np.clip(s[3], -self.MAX_VEL_2, self.MAX_VEL_2)
        self.state = s
        at_goal = bool(-np.cos(s[0]) - np.cos(s[1] + s[0]) > 1.0)
        reward = 0.0 if at_goal else -1.0
        return self._observation(), reward, at_goal


class QControl(_EpisodicEnv, envs.QControl):
    def __init__(self):
        super().__init__()
        self.qubit = init_zero(1)
        self._target = Statevector(1, np.array([0, 1], dtype=complex))

    def _reset(self, rng):
        self.qubit = init_zero(1)
        return self._observation()

    def _observation(self):
        return qsim.amplitude_features(self.qubit.amplitudes)

    def _step(self, action):
        self.qubit = evolve_hamiltonian(self.qubit, self.PULSE_SCALE * action, self.H_FIELD,
                                        self.DT)
        reward = fidelity(self.qubit, self._target)
        return self._observation(), reward, bool(reward <= self.MIN_FIDELITY)


SCALAR_ENVS = {"cartpole": CartPole, "acrobot": Acrobot, "qcontrol": QControl}


def loop_discounted_returns(rewards, gamma: float) -> np.ndarray:
    """G_t = r_t + gamma * G_{t+1}, one reverse pass on numpy scalars."""
    rewards = np.asarray(rewards, dtype=float)
    out = np.empty_like(rewards)
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def sample_action(probs: np.ndarray, uniform: float) -> int:
    """Inverse-CDF draw from a probability vector."""
    cum = np.cumsum(probs)
    return int(min(np.searchsorted(cum, uniform, side="right"), len(probs) - 1))


def rollout(env, policy, rng, gamma, normalizer=None):
    """One episode on a scalar env, one 1-row inference per step.

    `rng` draws the reset, then `max_steps` action uniforms; a shot readout
    draws from it after them, step by step. With a `normalizer`, each
    observed row is recorded in it before the row is scaled by it. Returns
    the trajectory and the probabilities of every step, (T, |A|).
    """
    obs = env.reset(rng)
    uniforms = rng.random(env.spec.max_steps)
    observations, actions, rewards, probabilities = [], [], [], []
    done = False
    while not done:
        abs_max = None
        if normalizer is not None:
            normalizer.observe(obs)
            abs_max = normalizer.running_abs_max
        probs = policy.probabilities(obs, rng, abs_max)
        action = sample_action(probs, uniforms[len(actions)])
        observations.append(obs)
        actions.append(action)
        probabilities.append(probs)
        obs, reward, done = env.step(action)
        rewards.append(reward)
    rewards = np.asarray(rewards, dtype=float)
    traj = Trajectory(np.stack(observations), np.asarray(actions), rewards,
                      envs.discounted_returns(rewards, gamma))
    return traj, np.stack(probabilities)


def sequential_batch(environment, policy, rngs, gamma):
    """Episodes one after another, each on its own stream and its own copy of
    the policy's normalizer; the copies are merged into it afterwards.
    Returns the trajectories and each one's per-step probabilities."""
    master = policy.normalizer
    copies = [master.copy() if master is not None else None for _ in rngs]
    results = [rollout(SCALAR_ENVS[environment](), policy, rng, gamma, copy)
               for rng, copy in zip(rngs, copies)]
    for copy in copies:
        if copy is not None:
            master.observe(copy.running_abs_max)
    return [r[0] for r in results], [r[1] for r in results]


def trained_policy(preset, episodes):
    """A preset's config at seed 0 and its policy after `episodes` episodes."""
    config = cfg.preset_config(preset, {"seed": 0, "episodes": episodes})
    state = prepare(config)
    for _ in train(config, state):
        pass
    return config, state.policy


def traced_peak(fn) -> int:
    """Peak bytes that numpy and Python allocate while `fn()` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def side_stream(seed, episodes_done):
    """The side stream of `qpolgrad run`'s spectrum at a checkpoint."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2, episodes_done)))
