"""Trainability diagnostics and sample-complexity calculators.

The empirical Fisher information matrix of a policy is the average outer
product of its log-policy gradients over visited state-action pairs; a
spectrum concentrated at zero signals a flat (barren) optimization
landscape. Eigenvalues come from LAPACK's symmetric solver
(`numpy.linalg.eigvalsh`), on the one BLAS thread pinned at import.

The closed-form calculators bound (a) how many sampled trajectories make
the policy-gradient estimate epsilon-accurate with probability 1 - delta,
and (b) how many circuit repetitions the shot-based gradient needs; both
grow only logarithmically in the parameter count, and inputs whose bound
overflows a float raise ContractError. `hoeffding_validate`
checks bound (b) empirically against exact expectations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import envs
from .errors import ContractError
from .vqpolicy import CircuitSpec, serial_matmul, shift_gradients


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray  # sorted descending
    trace: float


def fisher_matrix(policy, states, actions, include_beta: bool = True, rng=None) -> np.ndarray:
    """Empirical Fisher matrix (1/T) sum_t g_t g_t^T from (state, action) pairs.

    `include_beta=False` keeps the first `policy.spec.n_params` coordinates:
    a quantum policy's angles, every weight of an MLP. `rng` feeds shot-mode
    readouts and dropout masks. The policy's `grad_log_batch` checks the
    batch (`vqpolicy.checked_batch`).
    """
    g = policy.grad_log_batch(states, actions, rng)
    if not include_beta:
        g = g[:, :policy.spec.n_params]
    f = serial_matmul(g.T, g) / g.shape[0]
    return (f + f.T) / 2


def spectrum(f: np.ndarray) -> SpectrumReport:
    """Eigenvalues of a Fisher matrix, largest first, and its trace."""
    return SpectrumReport(np.linalg.eigvalsh(f)[::-1], float(np.trace(f)))


# ---------------------------------------------------------------------------
# sample-complexity bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundInputs:
    """Quantities entering the gradient-estimation bounds."""

    beta: float
    r_max: float
    horizon: int
    gamma: float
    epsilon: float
    delta: float
    k: int
    n_actions: int = 2

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.beta, self.r_max, self.epsilon)):
            raise ContractError("beta, r_max and epsilon must be finite")
        if self.epsilon <= 0:
            raise ContractError("epsilon must be positive")
        if not 0 < self.delta < 1:
            raise ContractError("delta must be in (0, 1)")
        if not 0 < self.gamma <= 1:
            raise ContractError("gamma must be in (0, 1]")
        if self.horizon < 1 or self.k < 1 or self.n_actions < 1:
            raise ContractError("horizon, k, and n_actions must be >= 1")


def _finite(bound: str, formula) -> float:
    """`formula()`, or ContractError if that bound overflows a float."""
    try:
        value = formula()
        if math.isfinite(value):
            return value
    except (OverflowError, ZeroDivisionError):  # a Python float raises where numpy gives inf
        pass
    raise ContractError(f"the {bound} overflows a float for these inputs")


def lemma1_samples(b: BoundInputs) -> tuple[float, float]:
    """(trajectory bound N, sample bound N*T) for an epsilon-accurate gradient.

    N = 8 beta^2 R_max^2 T^2 / (eps^2 (gamma-1)^4) * ln(2k/delta); each
    trajectory contributes T visited states.
    """
    if b.gamma == 1.0:
        raise ContractError("the trajectory bound diverges at gamma = 1")
    n = _finite("trajectory bound", lambda: (
        8.0 * b.beta**2 * b.r_max**2 * b.horizon**2
        / (b.epsilon**2 * (b.gamma - 1.0) ** 4) * math.log(2.0 * b.k / b.delta)))
    return n, _finite("sample bound", lambda: n * b.horizon)


def lemma2_shots(b: BoundInputs, n_samples: float) -> tuple[float, float]:
    """(shots per observable-gradient, total shots over the whole estimator).

    One parameter's preference gradient needs n = (4/eps^2) ln(2k/delta)
    shots (two shifted evaluations of n/2 each); the full estimator repeats
    this for |A| observables at each of `n_samples` visited states.
    """
    per_observable = _finite("shot bound", lambda: 4.0 / b.epsilon**2
                             * math.log(2.0 * b.k / b.delta))
    return per_observable, _finite("shot total", lambda: b.n_actions * n_samples * per_observable)


# ---------------------------------------------------------------------------
# Monte-Carlo validation of the shot bound
# ---------------------------------------------------------------------------

@dataclass
class HoeffdingReport:
    trials: int
    failures: int
    failure_rate: float
    epsilon: float
    delta: float
    shots_per_observable: int
    max_deviation: float
    passed: bool


def _default_probe():
    """Fixed small configuration: the state-preparation policy three
    pulse-free steps into an episode, with frozen circuit angles."""
    spec = CircuitSpec(1, 1, 2, "single_u3", "none")
    theta = np.array([0.8, -0.4, 0.3])
    env = envs.QControl()
    states = env.reset([None])  # every episode starts in |0>; no draw
    for _ in range(3):
        states = env.step(states, np.zeros(1, dtype=int))[0]
    return spec, theta, states[0]


def hoeffding_validate(b: BoundInputs, trials: int,
                       rng: np.random.Generator) -> HoeffdingReport:
    """Estimate the preference gradient with Lemma-prescribed shots, repeatedly.

    The reference is the exact parameter-shift gradient (the true mean of
    the shot estimator). A trial fails when any coordinate of the
    shot-based estimate deviates from the reference by more than epsilon;
    the bound promises a failure rate at most delta. The probe is
    `_default_probe`'s state and its action 0. A bound of more shots per
    side than an int64 holds raises ContractError before any draw.
    """
    if trials < 0:
        raise ContractError(f"trials must be >= 0, got {trials}")
    spec, theta, state = _default_probe()
    enc = state[None, :]
    per_observable, _ = lemma2_shots(b, 1.0)
    shots_total = int(math.ceil(per_observable))
    shots_side = max(1, int(math.ceil(shots_total / 2)))
    if shots_side > np.iinfo(np.int64).max:  # the most a binomial draw takes
        raise ContractError(f"the shot bound asks {shots_side:.3g} shots per side, "
                            "more than a generator can draw")
    reference = shift_gradients(spec, theta, enc)[0, :, 0]

    failures = 0
    max_dev = 0.0
    for _ in range(trials):
        estimate = shift_gradients(spec, theta, enc, shots_side, rng)[0, :, 0]
        dev = float(np.max(np.abs(estimate - reference)))
        max_dev = max(max_dev, dev)
        if dev > b.epsilon:
            failures += 1
    rate = failures / trials if trials else 0.0
    return HoeffdingReport(trials, failures, rate, b.epsilon, b.delta,
                           shots_total, max_dev, rate <= b.delta)

