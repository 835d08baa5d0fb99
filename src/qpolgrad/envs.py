"""Episodic environments stepped in batches: CartPole, Acrobot, and
single-qubit pulse control.

An environment holds no state: `reset` draws one start state per generator,
`step` takes (B, state) arrays and B actions to (states, rewards,
terminated), and `features` gives the rows the policies read, of length
`spec.n_features`. The caller owns the arrays and the step cap.

CartPole and Acrobot follow the canonical Gym/Sutton dynamics with every
constant frozen here so no external library is needed. They step (and
Acrobot forms its features) row by row on Python floats, in the operation
order of the formulas as numpy would run them on arrays. Squares are written
x * x: a Python float's `x**2` calls libm pow, as a numpy scalar's does, and
pow misses the correctly rounded x * x (what an array's `x**2` computes) in
the last bit on about 1 input in 1,200. `math.cos` and `math.sin` give the
bits of `np.cos` and `np.sin` on float64 arrays. The control task (QControl)
evolves one qubit under H = 4*J*sigma_z + h*sigma_x, where the agent's
binary action sets the pulse J per step; the reward is the fidelity to the
target state |1>.
"""
from __future__ import annotations

import math
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

    spec = ENV_SPECS["cartpole"]

    def reset(self, rngs) -> np.ndarray:
        return np.stack([rng.uniform(-0.05, 0.05, size=4) for rng in rngs])

    def features(self, states: np.ndarray) -> np.ndarray:
        return states

    def step(self, states: np.ndarray, actions: np.ndarray):
        """One Euler step per row: each state entry s becomes s + TAU * (its
        rate), the rates being (x_dot, xacc, theta_dot, thetaacc); the episode
        ends once |x| or |theta| passes its limit. On Python floats a row
        costs about 1.4 us (2-vCPU Xeon, Python 3.11), where numpy ufuncs on
        the (B, 4) array took about 35 us at any B up to 100: rows are cheaper
        up to B ~ 25, and rollouts step 10 rows or fewer."""
        g, mp, tm, length = self.GRAVITY, self.MASS_POLE, self.TOTAL_MASS, self.LENGTH
        pml, tau, x_lim, th_lim = self.POLEMASS_LENGTH, self.TAU, self.X_LIMIT, self.THETA_LIMIT
        forces = (-self.FORCE_MAG, self.FORCE_MAG)  # by action
        out, done = [], []
        for (x, x_dot, theta, theta_dot), action in zip(states.tolist(), actions.tolist()):
            costheta, sintheta = math.cos(theta), math.sin(theta)
            temp = (forces[action] + pml * (theta_dot * theta_dot) * sintheta) / tm
            thetaacc = (g * sintheta - costheta * temp) / (
                length * (4.0 / 3.0 - mp * (costheta * costheta) / tm))
            xacc = temp - pml * thetaacc * costheta / tm
            x, theta = x + tau * x_dot, theta + tau * theta_dot
            out.append((x, x_dot + tau * xacc, theta, theta_dot + tau * thetaacc))
            done.append(abs(x) > x_lim or abs(theta) > th_lim)
        return np.array(out).reshape(states.shape), np.ones(len(out)), np.array(done, dtype=bool)


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
        """(cos t1, sin t1, cos t2, sin t2, d1, d2) per row, on Python floats
        as the step is: about 9 us at 10 rows and 2 us at one, where numpy
        ufuncs and a stack took 13 us at either (2-vCPU Xeon, Python 3.11)."""
        cos, sin, flat = math.cos, math.sin, []
        for t1, t2, d1, d2 in states.tolist():
            flat += (cos(t1), sin(t1), cos(t2), sin(t2), d1, d2)
        return np.array(flat, dtype=float).reshape(len(states), 6)

    def _dsdt(self, theta1, theta2, dtheta1, dtheta2, torque):
        """The time derivative of one state row."""
        cos2, sin2 = math.cos(theta2), math.sin(theta2)
        d1 = _M1_LC1SQ + _m2 * (_L1SQ_LC2SQ + _TWO_L1_LC2 * cos2) + _i1 + _i2
        d2 = _m2 * (_LC2SQ + _L1_LC2 * cos2) + _i2
        phi2 = _M2_LC2_G * math.cos(theta1 + theta2 - _HALF_PI)
        phi1 = (_NEG_M2_L1_LC2 * (dtheta2 * dtheta2) * sin2
                - _TWO_M2_L1_LC2 * dtheta2 * dtheta1 * sin2
                + _PHI1_G * math.cos(theta1 - _HALF_PI) + phi2)
        ddtheta2 = (torque + d2 / d1 * phi1 - _M2_L1_LC2 * (dtheta1 * dtheta1) * sin2 - phi2) / (
            _M2_LC2SQ_I2 - d2 * d2 / d1)
        return dtheta1, dtheta2, -(d2 * ddtheta2 + phi1) / d1, ddtheta2

    def step(self, states: np.ndarray, actions: np.ndarray):
        """One RK4 step of length DT per row, angles wrapped to [-pi, pi) and
        velocities clipped. On Python floats a row costs about 6.5 us (2-vCPU
        Xeon, Python 3.11), where numpy ufuncs on the (B, 4) arrays took 220
        to 330 us at B = 1 to 100: rows are cheaper up to B ~ 40, and
        rollouts step 10 rows or fewer."""
        dsdt, torques, h = self._dsdt, self.TORQUES, self.DT
        h2, h6, hi1, hi2 = h / 2, h / 6, self.MAX_VEL_1, self.MAX_VEL_2
        lo1, lo2 = -hi1, -hi2
        out, done = [], []
        for (t1, t2, v1, v2), action in zip(states.tolist(), actions.tolist()):
            torque = torques[action]
            a1, a2, a3, a4 = dsdt(t1, t2, v1, v2, torque)
            b1, b2, b3, b4 = dsdt(t1 + h2 * a1, t2 + h2 * a2, v1 + h2 * a3, v2 + h2 * a4, torque)
            c1, c2, c3, c4 = dsdt(t1 + h2 * b1, t2 + h2 * b2, v1 + h2 * b3, v2 + h2 * b4, torque)
            d1, d2, d3, d4 = dsdt(t1 + h * c1, t2 + h * c2, v1 + h * c3, v2 + h * c4, torque)
            t1 = (t1 + h6 * (a1 + 2.0 * b1 + 2.0 * c1 + d1) + math.pi) % _TWO_PI - math.pi
            t2 = (t2 + h6 * (a2 + 2.0 * b2 + 2.0 * c2 + d2) + math.pi) % _TWO_PI - math.pi
            v1 = v1 + h6 * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
            v2 = v2 + h6 * (a4 + 2.0 * b4 + 2.0 * c4 + d4)
            out.append((t1, t2, hi1 if v1 > hi1 else lo1 if v1 < lo1 else v1,
                        hi2 if v2 > hi2 else lo2 if v2 < lo2 else v2))
            done.append(-math.cos(t1) - math.cos(t2 + t1) > 1.0)
        done = np.array(done, dtype=bool)
        return np.array(out).reshape(states.shape), np.where(done, 0.0, -1.0), done


# `Acrobot._dsdt` reads its constants as module globals, which a row on
# Python floats reads faster than class attributes. Each product of constants
# is formed as the formula it stands in associates it, so it rounds alike.
_m1, _m2, _l1 = Acrobot.LINK_MASS_1, Acrobot.LINK_MASS_2, Acrobot.LINK_LENGTH_1
_lc1, _lc2, _g = Acrobot.LINK_COM_1, Acrobot.LINK_COM_2, Acrobot.GRAVITY
_i1 = _i2 = Acrobot.LINK_MOI
_M1_LC1SQ, _L1SQ_LC2SQ, _TWO_L1_LC2 = _m1 * _lc1**2, _l1**2 + _lc2**2, 2 * _l1 * _lc2
_LC2SQ, _L1_LC2, _M2_LC2_G = _lc2**2, _l1 * _lc2, _m2 * _lc2 * _g
_NEG_M2_L1_LC2, _M2_L1_LC2 = -_m2 * _l1 * _lc2, _m2 * _l1 * _lc2
_TWO_M2_L1_LC2, _PHI1_G = 2 * _m2 * _l1 * _lc2, (_m1 * _lc1 + _m2 * _l1) * _g
_M2_LC2SQ_I2 = _m2 * _lc2**2 + _i2
_HALF_PI, _TWO_PI = math.pi / 2, 2 * math.pi


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
