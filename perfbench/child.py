"""Run one `qpolgrad run` in this fresh interpreter and report what it cost.

Usage (from the root of a checkout):

    python3 perfbench/child.py SPAWN_TIME RESULT_JSON TRACE qpolgrad-args...

SPAWN_TIME is the parent's `time.monotonic()` just before it started this
process; on Linux that clock is shared between processes. The program is
driven through its real entry point, `qpolgrad.cli.main`. Two light
wrappers always run: one on `reinforce.train`, which marks the end of
set-up and stamps each episode record as the CLI receives it, and one on
`reinforce.collect_batch`, which counts the env steps trained. With TRACE=1
the layer hooks below are installed as well, and after the run the cost of
one traced call is measured on a no-op, so the parent can work out what
tracing added without comparing against an untraced run on a machine whose
speed drifts.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from qpolgrad import cli, reinforce  # noqa: E402
from tracer import Hook, Tracer, install  # noqa: E402

PHASES = ("reinforce.collect_batch", "reinforce.policy_gradient", "analysis.fisher_matrix")


def _rows(args, kwargs, result) -> int:
    return len(result)


def _states(args, kwargs, result) -> int:
    return len(args[1])


def _spectrum_k(args, kwargs, result) -> int:
    return len(result.eigenvalues)


def is_zero_advantage(returns, baseline) -> int:
    """1 if every advantage G_t - b_t is zero up to rounding."""
    worst = max(float(np.max(np.abs(r - baseline[: len(r)]))) for r in returns)
    return int(worst <= 1e-12 * max(1.0, float(np.max(np.abs(baseline)))))


def _zero_advantage(args, kwargs, result) -> int:
    batch = args[0]
    return is_zero_advantage([t.returns for t in batch], reinforce.baseline(batch))


HOOKS = (
    Hook("cli.run", "qpolgrad.cli", "run"),
    Hook("reinforce.collect_batch", "qpolgrad.reinforce", "collect_batch"),
    Hook("reinforce.rollout", "qpolgrad.reinforce", "rollout", _rows),
    Hook("reinforce.policy_gradient", "qpolgrad.reinforce", "policy_gradient", _zero_advantage),
    Hook("reinforce.adam_step", "qpolgrad.reinforce", "adam_step"),
    Hook("envs.step", "qpolgrad.envs:_EpisodicEnv", "step"),
    Hook("vqpolicy.probabilities", "qpolgrad.vqpolicy:QuantumPolicy", "probabilities"),
    Hook("vqpolicy.grad_log_batch", "qpolgrad.vqpolicy:QuantumPolicy", "grad_log_batch", _rows),
    Hook("classical.probabilities", "qpolgrad.classical:MlpPolicy", "probabilities"),
    Hook("classical.grad_log_batch", "qpolgrad.classical:MlpPolicy", "grad_log_batch", _rows),
    Hook("qsim.circuit_row_operator", "qpolgrad.qsim", "circuit_row_operator"),
    Hook("qsim.evolve_hamiltonian", "qpolgrad.qsim", "evolve_hamiltonian"),
    Hook("analysis.fisher_matrix", "qpolgrad.analysis", "fisher_matrix", _states),
    Hook("analysis.spectrum", "qpolgrad.analysis", "spectrum", _spectrum_k),
)


class _Noop:
    def call(self):
        return None


def traced_call_cost(calls: int = 20000, rounds: int = 5) -> float:
    """Seconds one call through a tracer hook adds, on a no-op method with
    no counter; the fastest of several rounds, wrapped against bare."""
    noop = _Noop()
    bare = min(timeit.repeat(noop.call, number=calls, repeat=rounds))
    _, restore = install((Hook("noop", f"{__name__}:_Noop", "call"),), Tracer(PHASES))
    try:
        wrapped = min(timeit.repeat(noop.call, number=calls, repeat=rounds))
    finally:
        restore()
    return max(wrapped - bare, 0.0) / calls


def main(argv: list[str]) -> int:
    spawn, result_path, traced, cli_args = float(argv[0]), Path(argv[1]), argv[2] == "1", argv[3:]
    tracer = absent = None
    if traced:
        tracer = Tracer(PHASES)
        absent, _ = install(HOOKS, tracer)

    marks = {"setup_end": None, "stamps": [], "steps": 0}
    train, collect_batch = reinforce.train, reinforce.collect_batch

    def timed_train(*args, **kwargs):
        marks["setup_end"] = time.monotonic()
        for record in train(*args, **kwargs):
            marks["stamps"].append(time.monotonic())
            yield record

    def counted_collect_batch(*args, **kwargs):
        batch = collect_batch(*args, **kwargs)
        marks["steps"] += sum(len(traj) for traj in batch)
        return batch

    reinforce.train, reinforce.collect_batch = timed_train, counted_collect_batch

    started = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(cli_args)
    end = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "rc": rc, "spawn": spawn, "end": end, "main_s": end - started, **marks,
        "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = {
            "absent": absent,
            "count_errors": sorted(tracer.count_errors),
            "stats": tracer.export(),
            "call_cost_s": traced_call_cost(),
        }
    result_path.write_text(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
