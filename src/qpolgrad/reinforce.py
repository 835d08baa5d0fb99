"""Monte-Carlo policy-gradient training: rollouts, baseline, Adam ascent.

One training iteration collects a batch of trajectories under the current
policy, subtracts the per-timestep mean return as a baseline, averages
(G_t - b_t) * grad log pi(a_t | s_t) over everything, and takes one Adam
step uphill. A batch's episodes run in lockstep on an array environment,
one policy inference per step for all of them. Each episode runs on its own
seeded stream and its own snapshot of the feature normalizer, so an episode
does not depend on which other episodes share its batch or in what order.
Observations travel as float feature rows, and a trajectory holds them as
one (T, n_features) array. `train` yields one record per episode, with its
trajectory.

A policy's state is its flat trainable vector: Adam reads it with
`get_vector` and writes it with `set_vector`, the one place a policy
unpacks it. So a run's state (`RunState`) is that vector, inside the
policy with its feature normalizer, and the Adam moments.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import MlpPolicy
from .envs import discounted_returns, make_env
from .errors import ConfigError, ContractError
from .vqpolicy import CircuitSpec, QuantumPolicy


@dataclass
class Trajectory:
    """One episode: decision-time feature rows (T, n_features), actions,
    rewards, cached returns."""

    observations: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    returns: np.ndarray

    def __post_init__(self):
        if len(self.observations) == 0:
            raise ContractError("a trajectory cannot be empty")
        if np.ndim(self.observations) != 2:
            raise ContractError("trajectory observations must be one feature row per step")
        if not (len(self.observations) == len(self.actions) == len(self.rewards)
                == len(self.returns)):
            raise ContractError("trajectory fields must have equal length")

    def __len__(self):
        return len(self.actions)

    @property
    def total_reward(self) -> float:
        return float(self.rewards.sum())


@dataclass
class MetricsRecord:
    """One episode as `train` yields it, after its batch's Adam step."""

    episode: int
    total_reward: float
    discounted_return: float
    beta: float
    grad_norm: float
    trajectory: Trajectory


ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8  # the standard decay rates and floor


@dataclass
class AdamState:
    """Standard bias-corrected Adam moments for one flat parameter vector."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int
    learning_rate: float

    @classmethod
    def fresh(cls, dim: int, learning_rate: float) -> "AdamState":
        return cls(np.zeros(dim), np.zeros(dim), 0, learning_rate)


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState) -> np.ndarray:
    """One Adam step of gradient ASCENT; updates `state` in place."""
    grad = np.asarray(grad, dtype=float)
    if grad.shape != state.first_moment.shape or grad.shape != np.shape(params):
        raise ContractError("gradient/parameter shape mismatch in adam_step")
    state.step_count += 1
    state.first_moment = ADAM_BETA1 * state.first_moment + (1 - ADAM_BETA1) * grad
    state.second_moment = ADAM_BETA2 * state.second_moment + (1 - ADAM_BETA2) * grad**2
    m_hat = state.first_moment / (1 - ADAM_BETA1**state.step_count)
    v_hat = state.second_moment / (1 - ADAM_BETA2**state.step_count)
    return params + state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def sample_initial_weights(strategy: dict, size: int, fan_in: int, fan_out: int,
                           rng: np.random.Generator) -> np.ndarray:
    kind = strategy.get("kind")
    if kind == "glorot_normal":
        std = strategy.get("gain", 1.0) * np.sqrt(6.0 / (fan_in + fan_out))
        return rng.normal(0.0, std, size=size)
    if kind == "normal":
        return rng.normal(strategy.get("mu", 0.0), strategy.get("sigma", 1.0), size=size)
    if kind == "uniform":
        return rng.uniform(strategy.get("a", -1.0), strategy.get("b", 1.0), size=size)
    raise ConfigError(f"unknown init strategy {kind!r}")


def init_params(strategy: dict, spec: CircuitSpec, rng: np.random.Generator,
                beta_init: dict | None = None) -> np.ndarray:
    """Initial trainable vector: the circuit angles, then the inverse
    temperature.

    For the layered circuit a "layer" maps n wires to n wires, so the
    initializer fans are n_in = n_out = n_qubits.
    """
    theta = sample_initial_weights(strategy, spec.n_params, spec.n_qubits, spec.n_qubits, rng)
    beta_init = beta_init or {"mean": 1.0, "std": 0.1}
    return np.append(theta, rng.normal(beta_init.get("mean", 1.0), beta_init.get("std", 0.1)))


def init_mlp_params(strategy: dict, spec, rng: np.random.Generator) -> np.ndarray:
    """Initial trainable vector of an MLP: each layer's (n_out, n_in) weights
    drawn in one call, flattened, layer after layer."""
    return np.concatenate([
        sample_initial_weights(strategy, (n_out, n_in), n_in, n_out, rng).ravel()
        for n_in, n_out in zip(spec.layer_sizes, spec.layer_sizes[1:])])


def build_policy(config, rng: np.random.Generator):
    if config.policy == "quantum":
        spec = config.circuit_spec()
        return QuantumPolicy(spec, init_params(config.init, spec, rng, config.beta_init),
                             shots=config.shots)
    spec = config.mlp_spec()
    return MlpPolicy(spec, init_mlp_params(config.init, spec, rng))


# ---------------------------------------------------------------------------
# estimator
# ---------------------------------------------------------------------------

def baseline(batch: list[Trajectory]) -> np.ndarray:
    """Per-timestep mean return across the batch, length max(T_i).

    Trajectories shorter than t simply do not contribute at t (ragged mean).
    """
    if not batch:
        raise ContractError("baseline needs a non-empty batch")
    t_max = max(len(traj) for traj in batch)
    sums = np.zeros(t_max)
    counts = np.zeros(t_max)
    for traj in batch:
        sums[: len(traj)] += traj.returns
        counts[: len(traj)] += 1
    return sums / counts


def policy_gradient(batch: list[Trajectory], policy,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """REINFORCE-with-baseline estimate of grad J, (1/B) sum_t A_t grad log
    pi(a_t | s_t), contracted by the policy without per-sample gradients."""
    b = baseline(batch)
    observations = np.concatenate([traj.observations for traj in batch])
    actions = np.concatenate([traj.actions for traj in batch])
    adv = np.concatenate([traj.returns - b[: len(traj)] for traj in batch])
    return policy.weighted_grad_log(observations, actions, adv, rng) / len(batch)


def sample_actions(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws for rows of (m, |A|) probabilities: the count of
    cumulative sums <= u (searchsorted side="right"), capped at |A| - 1.
    Only the first |A| - 1 sums are formed: they never decrease, so the last
    one counts only where all the others do, and the cap cuts it there."""
    cum = np.cumsum(probs[:, :-1], axis=1)
    return (cum <= uniforms[:, None]).sum(axis=1)


def run_episodes(env, policy, rngs, gamma: float, normalizer=None) -> list[Trajectory]:
    """Roll out one episode per generator in `rngs`, all of them in lockstep.

    Each step is one inference over the rows of the running episodes, one
    vectorised action draw and one array `env` step. Episode i draws from
    rngs[i]: its reset, then all `max_steps` action uniforms as one block
    before the first step; a shot readout then draws from it step by step.
    One generator may stand in several places of `rngs`: episode i then
    takes its i-th consecutive block, whatever the earlier episodes'
    lengths, and the readouts of the episodes interleave after all blocks.
    With a `normalizer`, each episode scales by its own snapshot of it, a
    row of a (B, n) running-max array, merged into it afterwards, so no
    episode sees what another observed.
    """
    spec = env.spec
    n = len(rngs)
    starts, blocks = zip(*[(env.reset([rng]), rng.random(spec.max_steps)) for rng in rngs])
    states, uniforms = np.concatenate(starts), np.stack(blocks)
    abs_max = None if normalizer is None else np.tile(normalizer.running_abs_max, (n, 1))
    observations = np.empty((n, spec.max_steps, spec.n_features))
    actions = np.zeros((n, spec.max_steps), dtype=int)
    rewards = np.zeros((n, spec.max_steps))
    lengths = np.full(n, spec.max_steps)
    running = np.arange(n)  # the episodes still running
    active = slice(None)  # indexes them in the per-episode arrays, all until one ends
    streams = list(rngs)  # their generators, for a shot readout
    for t in range(spec.max_steps):
        rows = env.features(states)
        scale = None
        if abs_max is not None:
            scale = abs_max[active] = np.maximum(abs_max[active], np.abs(rows))
        chosen = sample_actions(policy.probabilities(rows, streams, scale), uniforms[active, t])
        observations[active, t] = rows
        actions[active, t] = chosen
        states, rewards[active, t], done = env.step(states, chosen)
        if done.any():
            lengths[running[done]] = t + 1
            keep = ~done
            states = states[keep]
            running = active = running[keep]
            if not running.size:
                break
            streams = [rngs[i] for i in running]
    if normalizer is not None:
        normalizer.observe(abs_max)
    return [Trajectory(observations[i, :steps], actions[i, :steps], rewards[i, :steps],
                       discounted_returns(rewards[i, :steps], gamma))
            for i, steps in enumerate(lengths)]


def _episode_rng(seed: int, episode: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, episode)))


def collect_batch(config, policy, first_episode: int, n_episodes: int) -> list[Trajectory]:
    """Roll out `n_episodes` episodes in lockstep, each on its own seeded
    stream and normalizer snapshot. A quantum policy builds its row operator
    once, at the first step, and the batch's gradient reuses it."""
    rngs = [_episode_rng(config.seed, first_episode + i) for i in range(n_episodes)]
    return run_episodes(make_env(config.environment), policy, rngs, config.gamma,
                        policy.normalizer)


@dataclass
class RunState:
    """Everything `train` mutates, exposed so callers can persist the result."""

    policy: object
    adam: AdamState


def prepare(config) -> RunState:
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,)))
    policy = build_policy(config, rng)
    return RunState(policy, AdamState.fresh(policy.n_trainable, config.learning_rate))


def train(config, state: RunState | None = None):
    """Generator: runs the full budget, yielding one MetricsRecord per episode,
    in episode order. All of a batch's records come after its Adam step, so
    at each of them `state.policy` is the policy the next batch rolls out
    under.
    """
    if state is None:
        state = prepare(config)
    policy, adam = state.policy, state.adam
    for batch_index, first in enumerate(range(0, config.episodes, config.batch_size)):
        n = min(config.batch_size, config.episodes - first)
        batch = collect_batch(config, policy, first, n)
        grad_rng = np.random.default_rng(np.random.SeedSequence(config.seed,
                                                                spawn_key=(3, batch_index)))
        grad = policy_gradient(batch, policy, grad_rng)
        policy.set_vector(adam_step(policy.get_vector(), grad, adam))
        grad_norm = float(np.linalg.norm(grad))
        for i, traj in enumerate(batch):
            yield MetricsRecord(first + i, traj.total_reward, float(traj.returns[0]),
                                policy.beta, grad_norm, traj)
