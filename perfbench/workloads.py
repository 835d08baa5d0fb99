"""The benchmark's workloads: which `qpolgrad run` invocations make up one repetition.

Timed repetitions always train the workload's reference seeds, so every
repetition does the same work and is checked against recorded outputs. Across
seeds the work of a fixed episode budget is not comparable: cartpole-quantum
first solves at episodes 126 to 479 over seeds 0-9, so its budget and its
time to solve would follow the seed, not the code. The benchmark's --seed
instead picks the seeds of the short set-up probes, which are checked only
for complete, finite artifacts.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Run:
    """One `qpolgrad run --preset ...`; `seed` is the timed and reference seed."""

    preset: str
    episodes: int
    seed: int = 0
    fisher: bool = False

    def argv(self, seed: int, episodes: int | None = None) -> list[str]:
        args = ["run", "--preset", self.preset, "--seed", str(seed),
                "--episodes", str(self.episodes if episodes is None else episodes)]
        return args + (["--fisher"] if self.fisher else [])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    runs: tuple[Run, ...]
    # 50-episode running mean of total_reward that counts as solved; None: the
    # workload has no solve rule and its time to solve is its wall time.
    solve_threshold: float | None = None


SOLVE_WINDOW = 50

WORKLOADS = {w.name: w for w in (
    Workload(
        "cartpole-quantum",
        "headline 4-qubit policy; passes the solve point into capped zero-advantage "
        "batches, so inference, the parameter-shift gradient and gradient skips show",
        (Run("cartpole-quantum", 300),), solve_threshold=195.0),
    Workload(
        "acrobot-quantum",
        "widest circuit (6 qubits, 48 angles, 500-step episodes); row-operator builds "
        "and the gradient dominate, so qsim-kernel and adjoint changes show",
        (Run("acrobot-quantum", 20),)),
    Workload(
        "cartpole-classical",
        "MLP baseline with no quantum code; rollout loop, env steps and MLP inference "
        "dominate, so qsim/vqpolicy changes must read no change here",
        (Run("cartpole-classical", 500),), solve_threshold=195.0),
    Workload(
        "qcontrol-fisher",
        "1-qubit single_u3 and MLP with --fisher on consecutive seeds; the only Fisher "
        "spectra and 10-step episodes, so per-call fixed costs show",
        (Run("qcontrol-quantum", 500, fisher=True),
         Run("qcontrol-classical", 500, seed=1, fisher=True))),
)}
