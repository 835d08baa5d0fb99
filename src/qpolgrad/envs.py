"""Episodic environments: CartPole, Acrobot, and single-qubit pulse control.

CartPole and Acrobot follow the canonical Gym/Sutton dynamics with every
constant frozen here so no external library is needed. The control task
(QControl) evolves one qubit under H = 4*J*sigma_z + h*sigma_x, where the
agent's binary action sets the pulse J per step; the reward is the fidelity
to the target state |1>.

An observation is a plain float feature row of length `spec.n_features`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qsim
from .errors import ConfigError, ContractError


@dataclass(frozen=True)
class EnvSpec:
    name: str
    n_features: int
    n_actions: int
    max_steps: int


ENV_SPECS = {
    "cartpole": EnvSpec("cartpole", 4, 2, 200),
    "acrobot": EnvSpec("acrobot", 6, 3, 500),
    "qcontrol": EnvSpec("qcontrol", 4, 2, 10),
}


def discounted_returns(rewards, gamma: float) -> np.ndarray:
    """Suffix-discounted sums G_t = sum_{t'} gamma^t' r_{t+t'}, one reverse pass."""
    if not 0 < gamma <= 1:
        raise ContractError(f"gamma must be in (0, 1], got {gamma}")
    rewards = np.asarray(rewards, dtype=float)
    out = np.empty_like(rewards)
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


class _EpisodicEnv:
    """Shared episode bookkeeping; subclasses implement _reset and _step."""

    spec: EnvSpec

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


class CartPole(_EpisodicEnv):
    """Pole balancing on a force-driven cart; +1 reward per surviving step."""

    GRAVITY = 9.8
    MASS_CART = 1.0
    MASS_POLE = 0.1
    TOTAL_MASS = MASS_CART + MASS_POLE
    LENGTH = 0.5  # half the pole length
    POLEMASS_LENGTH = MASS_POLE * LENGTH
    FORCE_MAG = 10.0
    TAU = 0.02
    X_LIMIT = 2.4
    THETA_LIMIT = 12 * np.pi / 180

    spec = ENV_SPECS["cartpole"]

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
        temp = (force + self.POLEMASS_LENGTH * theta_dot**2 * sintheta) / self.TOTAL_MASS
        thetaacc = (self.GRAVITY * sintheta - costheta * temp) / (
            self.LENGTH * (4.0 / 3.0 - self.MASS_POLE * costheta**2 / self.TOTAL_MASS)
        )
        xacc = temp - self.POLEMASS_LENGTH * thetaacc * costheta / self.TOTAL_MASS
        x = x + self.TAU * x_dot
        x_dot = x_dot + self.TAU * xacc
        theta = theta + self.TAU * theta_dot
        theta_dot = theta_dot + self.TAU * thetaacc
        self.state = np.array([x, x_dot, theta, theta_dot])
        done = bool(abs(x) > self.X_LIMIT or abs(theta) > self.THETA_LIMIT)
        return self.state.copy(), 1.0, done


def _wrap(x: float, low: float, high: float) -> float:
    return (x - low) % (high - low) + low


class Acrobot(_EpisodicEnv):
    """Two-link underactuated swing-up; -1 per step until the tip clears the bar."""

    LINK_LENGTH_1 = 1.0
    LINK_MASS_1 = 1.0
    LINK_MASS_2 = 1.0
    LINK_COM_1 = 0.5
    LINK_COM_2 = 0.5
    LINK_MOI = 1.0
    GRAVITY = 9.8
    DT = 0.2
    MAX_VEL_1 = 4 * np.pi
    MAX_VEL_2 = 9 * np.pi
    TORQUES = (-1.0, 0.0, 1.0)

    spec = ENV_SPECS["acrobot"]

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
            -m2 * l1 * lc2 * dtheta2**2 * np.sin(theta2)
            - 2 * m2 * l1 * lc2 * dtheta2 * dtheta1 * np.sin(theta2)
            + (m1 * lc1 + m2 * l1) * g * np.cos(theta1 - np.pi / 2)
            + phi2
        )
        ddtheta2 = (
            torque + d2 / d1 * phi1 - m2 * l1 * lc2 * dtheta1**2 * np.sin(theta2) - phi2
        ) / (m2 * lc2**2 + i2 - d2**2 / d1)
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


class QControl(_EpisodicEnv):
    """Prepare |1> from |0> by choosing, per step, whether to apply a Z pulse.

    Action a sets J = a in H = 4*J*sigma_z + sigma_x; the state evolves for
    a fixed slice pi/20, so ten pulse-free steps realize an exact pi
    rotation onto the target. The per-step reward is the fidelity to |1>, and
    the features are the qubit's amplitudes (`qsim.amplitude_features`).
    The spec'd terminal rule (fidelity <= 1e-4) is implemented as written;
    with this slice length it essentially never fires before the step cap.
    """

    H_FIELD = 1.0
    PULSE_SCALE = 4.0
    DT = np.pi / 20
    MIN_FIDELITY = 1e-4

    spec = ENV_SPECS["qcontrol"]

    def __init__(self):
        super().__init__()
        self.qubit = qsim.init_zero(1)
        self._target = qsim.Statevector(1, np.array([0, 1], dtype=complex))

    def _reset(self, rng):
        self.qubit = qsim.init_zero(1)
        return self._observation()

    def _observation(self):
        return qsim.amplitude_features(self.qubit.amplitudes)

    def _step(self, action):
        h = qsim.TwoLevelHamiltonian(self.PULSE_SCALE * action, self.H_FIELD)
        self.qubit = qsim.evolve_hamiltonian(self.qubit, h, self.DT)
        reward = qsim.fidelity(self.qubit, self._target)
        return self._observation(), reward, bool(reward <= self.MIN_FIDELITY)


def make_env(name: str) -> _EpisodicEnv:
    envs = {"cartpole": CartPole, "acrobot": Acrobot, "qcontrol": QControl}
    if name not in envs:
        raise ConfigError(f"unknown environment {name!r}; expected one of {sorted(envs)}")
    return envs[name]()
