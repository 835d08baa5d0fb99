"""Monte-Carlo policy-gradient training: rollouts, baseline, Adam ascent.

One training iteration collects a batch of trajectories under the current
policy, subtracts the per-timestep mean return as a baseline, averages
(G_t - b_t) * grad log pi(a_t | s_t) over everything, and takes one Adam
step uphill. A batch's episodes run in lockstep on an array environment,
one policy inference per step for all of them. Rollouts only read the
policy: each episode runs on its own keyed stream (`keyed_stream`) and its
own running maxima, started from the feature normalizer's, so an episode
does not depend on which other episodes share its batch or in what order;
the batch then records its rows in the normalizer. A `Batch` holds its
rows once, flat in episode order, where every consumer reads them; each
episode is a `Trajectory` of views into them. `train` yields one record
per episode, with its trajectory.

A policy (`QuantumPolicy` or `MlpPolicy`) offers: `n_features` and
`n_actions`, the feature-row width it reads and its action count;
`n_trainable`, the length of its flat trainable vector, which Adam reads
with `get_vector` and writes with `set_vector`, the one place a policy
unpacks it; `normalizer`, its `FeatureNormalizer` or None; `beta`, its
softmax inverse temperature; `probabilities(obs, rngs, abs_max)`, the
(m, n_actions) action probabilities of the m running episodes, which takes
one form: their (m, n_features) float rows, their m generators, and the
(m, n_features) per-row maxima that scale angle encoding, or None without a
normalizer; and the gradients `grad_log_batch` (T, n_trainable) and
`weighted_grad_log` (n_trainable,) of a batch's (T, n_features) float rows
and T actions. Its width and action count are checked
once where data enters: `run_episodes` against the environment's, and
`vqpolicy.checked_batch` against a gradient's batch. A run's state
(`RunState`) is the policy and the Adam moments.
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
    rewards, cached returns; a `Batch`'s views, which it checks."""

    observations: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    returns: np.ndarray

    def __len__(self):
        return len(self.actions)

    @property
    def total_reward(self) -> float:
        return float(self.rewards.sum())


@dataclass
class Batch:
    """A batch's episodes, flat in episode order: feature rows (T, n_features), actions,
    rewards and returns (T,), and each episode's length, all checked once here: one or
    more nonempty episodes whose lengths sum to T. Indexing or iterating a batch gives
    its episodes as `Trajectory` views into these arrays, built once."""

    observations: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    returns: np.ndarray
    lengths: np.ndarray

    def __post_init__(self):
        rows = len(self.observations)
        if not (len(self.lengths) and np.min(self.lengths) > 0 and np.sum(self.lengths) == rows
                and np.ndim(self.observations) == 2
                and len(self.actions) == len(self.rewards) == len(self.returns) == rows):
            raise ContractError("a batch needs one or more nonempty episodes whose lengths sum "
                                "to its T rows of features, actions, rewards and returns")
        ends = np.cumsum(self.lengths).tolist()
        self._trajectories = tuple(
            Trajectory(self.observations[start:end], self.actions[start:end],
                       self.rewards[start:end], self.returns[start:end])
            for start, end in zip([0, *ends[:-1]], ends))

    def __len__(self):
        return len(self.lengths)

    def __getitem__(self, index) -> Trajectory:
        return self._trajectories[index]

    def __iter__(self):
        return iter(self._trajectories)

    def steps(self) -> np.ndarray:
        """Each row's step within its episode, (T,) ints."""
        ends = np.cumsum(self.lengths)
        return np.arange(ends[-1]) - np.repeat(ends - self.lengths, self.lengths)


@dataclass
class MetricsRecord:
    """One episode as `train` yields it, after its batch's Adam step."""

    episode: int
    total_reward: float
    discounted_return: float
    beta: float
    grad_norm: float
    trajectory: Trajectory


def keyed_stream(seed: int, *key: int) -> np.random.Generator:
    """The generator of stream `key` of a run's `seed`. The streams:
    (0,)    initial parameters (`prepare`)
    (1, e)  episode e: reset, action uniforms, shot readouts (`collect_batch`)
    (2, e)  the Fisher spectrum after e episodes of `qpolgrad run`, and (2, 0)
            `qpolgrad fisher`'s: rollouts, then shot readouts and dropout masks
    (3, b)  batch b's gradient: shot readouts and dropout masks (`train`)
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


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

# Each init kind's parameters and their defaults; `config` validates against them.
INIT_DEFAULTS = {
    "glorot_normal": {"gain": 1.0},
    "normal": {"mu": 0.0, "sigma": 1.0},
    "uniform": {"a": -1.0, "b": 1.0},
}
BETA_INIT_DEFAULT = {"mean": 1.0, "std": 0.1}


def sample_initial_weights(strategy: dict, size: int, fan_in: int, fan_out: int,
                           rng: np.random.Generator) -> np.ndarray:
    """`size` draws of an init strategy: "normal" N(mu, sigma), "uniform"
    U(a, b), or "glorot_normal"; a parameter left out takes its
    `INIT_DEFAULTS` value.

    "glorot_normal" draws from a normal whose standard deviation is
    gain * sqrt(6 / (fan_in + fan_out)). That is the limit of Glorot's
    uniform initializer; Glorot-normal's standard deviation is
    sqrt(2 / (fan_in + fan_out)), so these draws have 3x its variance.
    Every recorded run was drawn this way.
    """
    kind = strategy.get("kind")
    if kind not in INIT_DEFAULTS:
        raise ConfigError(f"unknown init strategy {kind!r}")
    p = {**INIT_DEFAULTS[kind], **strategy}
    if kind == "glorot_normal":
        return rng.normal(0.0, p["gain"] * np.sqrt(6.0 / (fan_in + fan_out)), size=size)
    if kind == "normal":
        return rng.normal(p["mu"], p["sigma"], size=size)
    return rng.uniform(p["a"], p["b"], size=size)


def init_params(strategy: dict, spec: CircuitSpec, rng: np.random.Generator,
                beta_init: dict | None = None) -> np.ndarray:
    """Initial trainable vector: the circuit angles, then the inverse
    temperature.

    For the layered circuit a "layer" maps n wires to n wires, so the
    initializer fans are n_in = n_out = n_qubits.
    """
    theta = sample_initial_weights(strategy, spec.n_params, spec.n_qubits, spec.n_qubits, rng)
    beta_init = {**BETA_INIT_DEFAULT, **(beta_init or {})}
    return np.append(theta, rng.normal(beta_init["mean"], beta_init["std"]))


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

def baseline(batch: Batch) -> np.ndarray:
    """Per-timestep mean return across the batch, length max(T_i).

    Episodes shorter than t do not contribute at t (ragged mean); each step
    sums its episodes' returns in episode order, as `np.bincount` adds rows.
    """
    steps = batch.steps()
    ones = np.ones(len(steps))  # float counts: a first int-to-float cast costs 64 KB of RSS
    return np.bincount(steps, weights=batch.returns) / np.bincount(steps, weights=ones)


def policy_gradient(batch: Batch, policy, rng: np.random.Generator | None = None) -> np.ndarray:
    """REINFORCE-with-baseline estimate of grad J, (1/B) sum_t A_t grad log
    pi(a_t | s_t), contracted by the policy without per-sample gradients.
    The policy reads the batch's own feature and action arrays."""
    advantages = batch.returns - baseline(batch)[batch.steps()]
    return policy.weighted_grad_log(batch.observations, batch.actions, advantages,
                                    rng) / len(batch)


def sample_actions(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws for rows of (m, |A|) probabilities: the count of
    cumulative sums <= u (searchsorted side="right"), capped at |A| - 1.
    Only the first |A| - 1 sums are formed: they never decrease, so the last
    one counts only where all the others do, and the cap cuts it there."""
    cum = probs[:, :-1].cumsum(axis=1)
    return np.add.reduce(cum <= uniforms[:, None], axis=1)  # the bools count as int


def run_episodes(env, policy, rngs, gamma: float) -> Batch:
    """Roll out one episode per generator in `rngs`, in lockstep, only reading the policy.

    Each step is one inference over the rows of the running episodes, one
    vectorised action draw and one array `env` step. Episode i draws from
    rngs[i]: its reset, then all `max_steps` action uniforms as one block
    before the first step; a shot readout then draws from it step by step.
    One generator may stand in several places of `rngs`: episode i then
    takes its i-th consecutive block, whatever the earlier episodes'
    lengths, and the readouts of the episodes interleave after all blocks.
    With a feature normalizer, each episode scales by its own running
    maxima, a row of a (B, n) array that starts from the normalizer's, so
    no episode sees what another observed. The padded (B, max_steps) arrays
    are compacted once, in place: the returned `Batch`'s arrays are their
    leading rows. A policy that reads another width or action count than the
    env's is refused before anything is drawn.
    """
    spec = env.spec
    if (policy.n_features, policy.n_actions) != (spec.n_features, spec.n_actions):
        raise ContractError(f"a policy of {policy.n_features} features and {policy.n_actions} "
                            f"actions cannot act in {spec.name}")
    n = len(rngs)
    starts, blocks = zip(*[(env.reset([rng]), rng.random(spec.max_steps)) for rng in rngs])
    states, uniforms = np.concatenate(starts), np.stack(blocks)
    norm = policy.normalizer
    abs_max = None if norm is None else np.tile(norm.running_abs_max, (n, 1))
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
    # In place, each episode's rows moving forward into its view: fresh (T, n) copies,
    # a new size every batch, left cartpole-classical's peak RSS about 0.1 MB higher.
    rows = int(lengths.sum())
    batch = Batch(*(array.reshape(n * spec.max_steps, *array.shape[2:])[:rows]
                    for array in (observations, actions, rewards)), np.empty(rows), lengths)
    for i, traj in enumerate(batch):
        traj.observations[:] = observations[i, :len(traj)]
        traj.actions[:] = actions[i, :len(traj)]
        traj.rewards[:] = rewards[i, :len(traj)]
        traj.returns[:] = discounted_returns(traj.rewards, gamma)
    return batch


def collect_batch(config, policy, first_episode: int, n_episodes: int) -> Batch:
    """`run_episodes` on the episodes' keyed streams, then the normalizer widened
    over the batch's rows: the maxima the rollouts reached, as a max is exact.
    The row operator a quantum policy builds at the first step serves the gradient."""
    rngs = [keyed_stream(config.seed, 1, first_episode + i) for i in range(n_episodes)]
    batch = run_episodes(make_env(config.environment), policy, rngs, config.gamma)
    if policy.normalizer is not None:
        policy.normalizer.observe(batch.observations)
    return batch


@dataclass
class RunState:
    """Everything `train` mutates, exposed so callers can persist the result."""

    policy: object
    adam: AdamState


def prepare(config) -> RunState:
    policy = build_policy(config, keyed_stream(config.seed, 0))
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
        grad = policy_gradient(batch, policy, keyed_stream(config.seed, 3, batch_index))
        policy.set_vector(adam_step(policy.get_vector(), grad, adam))
        grad_norm = float(np.linalg.norm(grad))
        for i, traj in enumerate(batch):
            yield MetricsRecord(first + i, traj.total_reward, float(traj.returns[0]),
                                policy.beta, grad_norm, traj)
