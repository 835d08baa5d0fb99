"""Monte-Carlo policy-gradient training: rollouts, baseline, Adam ascent.

One training iteration collects a batch of trajectories under the current
policy, subtracts the per-timestep mean return as a baseline, averages
(G_t - b_t) * grad log pi(a_t | s_t) over everything, and takes one Adam
step uphill. Each episode runs on its own seeded stream and its own
snapshot of the feature normalizer, so an episode does not depend on the
order in which a batch's episodes run. Observations travel as float feature
rows, and a trajectory holds them as one (T, n_features) array.
"""
from __future__ import annotations

import copy
import time
from dataclasses import dataclass

import numpy as np

from .classical import MlpParams, MlpPolicy
from .envs import discounted_returns, make_env
from .errors import ConfigError, ContractError
from .vqpolicy import CircuitSpec, PolicyParams, QuantumPolicy


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
    episode: int
    total_reward: float
    discounted_return: float
    beta: float
    grad_norm: float
    elapsed_ms: float


@dataclass
class AdamState:
    """Standard bias-corrected Adam moments for one flat parameter vector."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def fresh(cls, dim: int, learning_rate: float) -> "AdamState":
        return cls(np.zeros(dim), np.zeros(dim), 0, learning_rate)


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState) -> np.ndarray:
    """One Adam step of gradient ASCENT; updates `state` in place."""
    grad = np.asarray(grad, dtype=float)
    if grad.shape != state.first_moment.shape or grad.shape != np.shape(params):
        raise ContractError("gradient/parameter shape mismatch in adam_step")
    state.step_count += 1
    state.first_moment = state.beta1 * state.first_moment + (1 - state.beta1) * grad
    state.second_moment = state.beta2 * state.second_moment + (1 - state.beta2) * grad**2
    m_hat = state.first_moment / (1 - state.beta1**state.step_count)
    v_hat = state.second_moment / (1 - state.beta2**state.step_count)
    return params + state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)


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
                beta_init: dict | None = None) -> PolicyParams:
    """Initial circuit angles plus inverse temperature.

    For the layered circuit a "layer" maps n wires to n wires, so the
    initializer fans are n_in = n_out = n_qubits.
    """
    theta = sample_initial_weights(strategy, spec.n_params, spec.n_qubits, spec.n_qubits, rng)
    beta_init = beta_init or {"mean": 1.0, "std": 0.1}
    beta = float(rng.normal(beta_init.get("mean", 1.0), beta_init.get("std", 0.1)))
    return PolicyParams(theta, beta)


def init_mlp_params(strategy: dict, spec, rng: np.random.Generator) -> MlpParams:
    kind = strategy.get("kind")
    if kind == "glorot_normal":
        return MlpParams.glorot(spec, rng, strategy.get("gain", 1.0))
    weights = []
    for n_in, n_out in zip(spec.layer_sizes, spec.layer_sizes[1:]):
        weights.append(sample_initial_weights(strategy, (n_out, n_in), n_in, n_out, rng))
    return MlpParams(weights)


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
    """REINFORCE-with-baseline estimate of grad J over the trainable vector."""
    b = baseline(batch)
    observations = np.concatenate([traj.observations for traj in batch])
    actions = np.concatenate([traj.actions for traj in batch])
    adv = np.concatenate([traj.returns - b[: len(traj)] for traj in batch])
    glog = policy.grad_log_batch(observations, actions, rng)
    return adv @ glog / len(batch)


def sample_action(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw from a probability vector."""
    cum = np.cumsum(probs)
    return int(min(np.searchsorted(cum, rng.random(), side="right"), len(probs) - 1))


def rollout(env, policy, rng: np.random.Generator, gamma: float) -> Trajectory:
    """Run one episode to termination under the current policy."""
    obs = env.reset(rng)
    observations, actions, rewards = [], [], []
    done = False
    while not done:
        action = sample_action(policy.probabilities(obs, rng), rng)
        observations.append(obs)
        actions.append(action)
        obs, reward, done = env.step(action)
        rewards.append(reward)
    rewards = np.asarray(rewards, dtype=float)
    return Trajectory(np.stack(observations), np.asarray(actions), rewards,
                      discounted_returns(rewards, gamma))


def _episode_rng(seed: int, episode: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, episode)))


def episode_view(policy):
    """Per-episode policy view with its own normalizer copy (if any)."""
    normalizer = getattr(policy, "normalizer", None)
    if normalizer is None:
        return policy
    view = copy.copy(policy)
    view.normalizer = normalizer.copy()
    return view


def collect_batch(config, policy, first_episode: int, n_episodes: int) -> list[Trajectory]:
    """Roll out `n_episodes` episodes one after another, each on its own
    seeded stream.

    Every episode scales its features with a snapshot of the policy's
    normalizer taken before the batch, and the snapshots are merged back
    afterwards, so no episode sees what another one observed and the batch
    does not depend on the order its episodes run in. A quantum policy
    builds its row operator once, before the views copy it, and the batch's
    gradient reuses it because theta does not change during the rollouts.
    """
    if policy.kind == "quantum":
        policy.row_operator()
    views = [episode_view(policy) for _ in range(n_episodes)]
    batch = [rollout(make_env(config.environment), view,
                     _episode_rng(config.seed, first_episode + i), config.gamma)
             for i, view in enumerate(views)]
    master = getattr(policy, "normalizer", None)
    if master is not None:
        for view in views:
            master.merge(view.normalizer)
    return batch


@dataclass
class RunState:
    """Everything `train` mutates, exposed so callers can persist the result."""

    config: object
    policy: object
    adam: AdamState


def prepare(config) -> RunState:
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,)))
    policy = build_policy(config, rng)
    return RunState(config, policy, AdamState.fresh(policy.n_trainable, config.learning_rate))


def checkpoint_episodes(episodes: int) -> list[int]:
    """Episode counts at which each further 10% of a budget completes."""
    return sorted({int(np.ceil(episodes * f / 10)) for f in range(1, 11)}) if episodes else []


def train(config, state: RunState | None = None, checkpoint_hook=None,
          trajectory_sink=None):
    """Generator: runs the full budget, yielding one MetricsRecord per episode.

    `checkpoint_hook(episodes_done, state)` fires each time another 10% of
    the episode budget completes (used for Fisher-spectrum collection);
    `trajectory_sink(episode_index, trajectory)` receives every rollout.
    """
    if state is None:
        state = prepare(config)
    policy, adam = state.policy, state.adam
    boundaries = checkpoint_episodes(config.episodes) if checkpoint_hook else []
    episodes_done = 0
    batch_index = 0
    while episodes_done < config.episodes:
        started = time.perf_counter()
        n = min(config.batch_size, config.episodes - episodes_done)
        batch = collect_batch(config, policy, episodes_done, n)
        if trajectory_sink is not None:
            for i, traj in enumerate(batch):
                trajectory_sink(episodes_done + i, traj)
        grad_rng = (np.random.default_rng(np.random.SeedSequence(config.seed,
                                                                 spawn_key=(3, batch_index)))
                    if config.shots else None)
        grad = policy_gradient(batch, policy, grad_rng)
        policy.set_vector(adam_step(policy.get_vector(), grad, adam))
        grad_norm = float(np.linalg.norm(grad))
        beta = float(getattr(policy, "params").beta) if policy.kind == "quantum" else 1.0
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        for i, traj in enumerate(batch):
            yield MetricsRecord(episodes_done + i, traj.total_reward,
                                float(traj.returns[0]), beta, grad_norm, elapsed_ms)
        episodes_done += n
        batch_index += 1
        while boundaries and episodes_done >= boundaries[0]:
            checkpoint_hook(boundaries.pop(0), state)
