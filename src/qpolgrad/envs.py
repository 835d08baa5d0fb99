"""Episodic environments as batched array dynamics: CartPole, Acrobot, and
single-qubit pulse control.

An environment holds no state: `reset` draws one start state per generator,
`step` takes (B, state) arrays and B actions to (states, rewards,
terminated), and `features` gives the rows the policies read, of length
`spec.n_features`. The caller owns the arrays and the step cap.

CartPole and Acrobot follow the canonical Gym/Sutton dynamics with every
constant frozen here so no external library is needed; arrays square by
x*x, where numpy scalar code calls libm pow. The control task (QControl)
evolves one qubit under H = 4*J*sigma_z + h*sigma_x, where the agent's
binary action sets the pulse J per step; the reward is the fidelity to the
target state |1>.
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
    """Suffix-discounted sums G_t = sum_{t'} gamma^t' r_{t+t'}, one reverse
    pass of G_t = r_t + gamma * G_{t+1} over Python floats: the same IEEE
    double operations as on numpy scalars, without their per-element cost."""
    if not 0 < gamma <= 1:
        raise ContractError(f"gamma must be in (0, 1], got {gamma}")
    out = np.asarray(rewards, dtype=float).tolist()
    acc = 0.0
    for t in range(len(out) - 1, -1, -1):
        acc = out[t] = out[t] + gamma * acc
    return np.array(out, dtype=float)


class CartPole:
    """Pole balancing on a force-driven cart; +1 reward per surviving step.
    A state row, (x, x_dot, theta, theta_dot), is also its feature row."""

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
    FORCES = np.array([-FORCE_MAG, FORCE_MAG])  # by action
    LIMITS = np.array([X_LIMIT, THETA_LIMIT])  # on |x| and |theta|

    spec = ENV_SPECS["cartpole"]

    def reset(self, rngs) -> np.ndarray:
        return np.stack([rng.uniform(-0.05, 0.05, size=4) for rng in rngs])

    def features(self, states: np.ndarray) -> np.ndarray:
        return states

    def step(self, states: np.ndarray, actions: np.ndarray):
        """One Euler step: each state entry s becomes s + TAU * (its rate),
        the rates (x_dot, xacc, theta_dot, thetaacc) filled in as a (B, 4)
        array; the episode ends once |x| or |theta| passes its limit."""
        theta, theta_dot = states[:, 2], states[:, 3]
        force = self.FORCES[actions]
        costheta, sintheta = np.cos(theta), np.sin(theta)
        temp = (force + self.POLEMASS_LENGTH * theta_dot**2 * sintheta) / self.TOTAL_MASS
        rates = np.empty_like(states)
        rates[:, ::2] = states[:, 1::2]
        thetaacc = rates[:, 3] = (self.GRAVITY * sintheta - costheta * temp) / (
            self.LENGTH * (4.0 / 3.0 - self.MASS_POLE * costheta**2 / self.TOTAL_MASS)
        )
        rates[:, 1] = temp - self.POLEMASS_LENGTH * thetaacc * costheta / self.TOTAL_MASS
        states = states + self.TAU * rates
        done = (np.abs(states[:, ::2]) > self.LIMITS).any(axis=1)
        return states, np.ones(len(states)), done


def _wrap(x, low: float, high: float):
    return (x - low) % (high - low) + low


class Acrobot:
    """Two-link underactuated swing-up; -1 per step until the tip clears the bar.
    State rows are (theta1, theta2, dtheta1, dtheta2), features their cos/sin
    and the two velocities."""

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

    def reset(self, rngs) -> np.ndarray:
        return np.stack([rng.uniform(-0.1, 0.1, size=4) for rng in rngs])

    def features(self, states: np.ndarray) -> np.ndarray:
        t1, t2, d1, d2 = states.T
        return np.stack([np.cos(t1), np.sin(t1), np.cos(t2), np.sin(t2), d1, d2], axis=1)

    def _dsdt(self, s, torque):
        m1, m2 = self.LINK_MASS_1, self.LINK_MASS_2
        l1 = self.LINK_LENGTH_1
        lc1, lc2 = self.LINK_COM_1, self.LINK_COM_2
        i1 = i2 = self.LINK_MOI
        g = self.GRAVITY
        theta1, theta2, dtheta1, dtheta2 = s.T
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
        return np.stack([dtheta1, dtheta2, ddtheta1, ddtheta2], axis=1)

    def step(self, states: np.ndarray, actions: np.ndarray):
        torque = np.asarray(self.TORQUES)[actions]
        s = states
        h = self.DT
        k1 = self._dsdt(s, torque)
        k2 = self._dsdt(s + h / 2 * k1, torque)
        k3 = self._dsdt(s + h / 2 * k2, torque)
        k4 = self._dsdt(s + h * k3, torque)
        s = s + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        s[:, 0] = _wrap(s[:, 0], -np.pi, np.pi)
        s[:, 1] = _wrap(s[:, 1], -np.pi, np.pi)
        s[:, 2] = np.clip(s[:, 2], -self.MAX_VEL_1, self.MAX_VEL_1)
        s[:, 3] = np.clip(s[:, 3], -self.MAX_VEL_2, self.MAX_VEL_2)
        at_goal = -np.cos(s[:, 0]) - np.cos(s[:, 1] + s[:, 0]) > 1.0
        return s, np.where(at_goal, 0.0, -1.0), at_goal


def hamiltonian_propagator(coeff_z: float, coeff_x: float, dt: float) -> np.ndarray:
    """Closed-form 2x2 exp(-i H dt) for H = a*sigma_z + b*sigma_x.

    exp(-i (a sz + b sx) t) = cos(wt) I - i sin(wt) (a sz + b sx)/w with
    w = sqrt(a^2 + b^2); the w = 0 limit is the identity.
    """
    a, b = coeff_z, coeff_x
    omega = np.hypot(a, b)
    if omega == 0.0:
        return np.eye(2, dtype=complex)
    c, s = np.cos(omega * dt), np.sin(omega * dt)
    return np.array([[c - 1j * s * a / omega, -1j * s * b / omega],
                     [-1j * s * b / omega, c + 1j * s * a / omega]], dtype=complex)


class QControl:
    """Prepare |1> from |0> by choosing, per step, whether to apply a Z pulse.

    Action a sets J = a in H = 4*J*sigma_z + sigma_x; the state evolves for
    a fixed slice pi/20, so ten pulse-free steps realize an exact pi
    rotation onto the target. A state row holds the two amplitudes, the
    features are `qsim.amplitude_features`, the reward is |amp_1|^2. The
    spec'd terminal rule (fidelity <= 1e-4) is implemented as written; it
    ends 0.7% of uniformly random episodes, all at step 9.
    """

    H_FIELD = 1.0
    PULSE_SCALE = 4.0
    DT = np.pi / 20
    MIN_FIDELITY = 1e-4

    spec = ENV_SPECS["qcontrol"]

    def __init__(self):
        self.propagators = np.stack([
            hamiltonian_propagator(self.PULSE_SCALE * a, self.H_FIELD, self.DT)
            for a in range(self.spec.n_actions)])

    def reset(self, rngs) -> np.ndarray:
        return np.tile(np.array([1, 0], dtype=complex), (len(rngs), 1))

    def features(self, states: np.ndarray) -> np.ndarray:
        return qsim.amplitude_features(states)

    def step(self, states: np.ndarray, actions: np.ndarray):
        # per entry, which rounds like u @ amps on one state; a batched matmul does not
        u = self.propagators[actions]
        x0, x1 = states[:, 0], states[:, 1]
        states = np.stack([u[:, 0, 0] * x0 + u[:, 0, 1] * x1,
                           u[:, 1, 0] * x0 + u[:, 1, 1] * x1], axis=1)
        # libm pow on each modulus: x*x differs on some reachable states
        rewards = np.array([mod ** 2 for mod in np.abs(states[:, 1]).tolist()])
        return states, rewards, rewards <= self.MIN_FIDELITY


def make_env(name: str):
    envs = {"cartpole": CartPole, "acrobot": Acrobot, "qcontrol": QControl}
    if name not in envs:
        raise ConfigError(f"unknown environment {name!r}; expected one of {sorted(envs)}")
    return envs[name]()
