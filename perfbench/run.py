"""Training benchmark: what one `qpolgrad run` costs, per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: each `qpolgrad run` starts in a fresh
interpreter (perfbench/child.py) only after the previous one has ended.
The workload's fixed training budget is repeated on its reference seeds for
about --seconds seconds, and every repetition is checked against the
reference outputs. Between repetitions run set-up probes on seeds drawn from
--seed: they time set-up, and the first also trains one episode and must
leave complete, finite artifacts.

--trace 0 reports the end-to-end metrics: set-up time as the median over
every process, the others as means over repetitions. --trace 1 traces every
repetition and reports the per-layer metrics, with the tracing overhead as
the traced calls times the measured cost of one traced call.
The last line of stdout is the result as JSON; the line before it holds
provenance and every sample; stderr gets a readable table.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gate
from tracer import Tracer
from workloads import SOLVE_WINDOW, WORKLOADS, Run, Workload

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
REFERENCE_DIR = HERE / "reference"
BATCH_SIZE = 10  # every preset's batch size; the gate checks it against the manifest
# Share of a run's time spent on set-up probes. They run between repetitions,
# so like the repetitions they sample every spell of the machine's speed.
PROBE_SHARE = 0.2
# The machine's speed changes in spells about as long as a repetition, so a
# median of three repetitions jumps between spells; the mean weighs them by
# how often they occurred and spread less from run to run. Set-up time has
# many samples, some slowed by a first import, and keeps the median.
MEAN_OVER_REPETITIONS = {"wall_s", "steps_per_s", "time_to_solve_s", "cpu_s", "peak_rss_mb"}
DEADLINE_S = 150.0  # no repetition starts that would likely end after this

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "steps_per_s": "1/s", "time_to_solve_s": "s",
    "cpu_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "qsim.circuit_row_operator.calls": "count",
    "qsim.circuit_row_operator.self_s": "s",
    "qsim.evolve_hamiltonian.calls": "count",
    "qsim.evolve_hamiltonian.self_s": "s",
    "vqpolicy.probabilities.calls": "count",
    "vqpolicy.probabilities.us_per_call": "us",
    "vqpolicy.grad_log_batch.samples": "count",
    "vqpolicy.grad_log_batch.self_s": "s",
    "vqpolicy.grad_log_batch.us_per_sample": "us",
    "vqpolicy.inference_rowop_builds_per_batch": "count",
    "vqpolicy.grad_rowop_builds_per_batch": "count",
    "classical.probabilities.calls": "count",
    "classical.probabilities.us_per_call": "us",
    "classical.grad_log_batch.samples": "count",
    "classical.grad_log_batch.us_per_sample": "us",
    "envs.step.calls": "count",
    "envs.step.us_per_call": "us",
    "reinforce.rollout.us_per_step": "us",
    "reinforce.collect_batch.share": "ratio",
    "reinforce.policy_gradient.share": "ratio",
    "reinforce.adam_step.self_s": "s",
    "reinforce.zero_adv_batch_share": "ratio",
    "analysis.fisher_matrix.samples": "count",
    "analysis.fisher_matrix.self_s": "s",
    "analysis.spectrum.calls": "count",
    "analysis.spectrum.k": "count",
    "analysis.spectrum.self_s": "s",
    "cli.run.self_s": "s",
    "trace.overhead_pct": "%",
    "trace.unattributed_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here (wrong directory, missing reference)."""


@dataclass
class Rep:
    """One repetition of a workload: every run in it, summed or maxed."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    steps: int = 0
    time_to_solve_s: float | None = None
    main_s: float = 0.0
    setups: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    trace: Tracer | None = None
    trace_cost_s: float = 0.0  # estimated time the tracer's wrappers added
    absent: set = field(default_factory=set)
    complete: bool = True  # every run finished, so the timings cover the whole budget


class Bench:
    def __init__(self, root: Path, workload: Workload, seed: int, seconds: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.work = HERE / ".work"
        self.references = self._load_references()

    def _load_references(self) -> list[dict]:
        w = self.workload
        if w.name == "cartpole-quantum":
            return [gate.golden_reference(self.root, w.runs[0].episodes)]
        path = REFERENCE_DIR / f"{w.name}.json"
        if not path.is_file():
            raise BenchError(f"missing reference outputs {path}")
        runs = gate.recorded_reference(path)
        for run, ref in zip(w.runs, runs):
            if (ref["preset"], ref["episodes"], ref["seed"]) != (
                    run.preset, run.episodes, run.seed):
                raise BenchError(f"{path} does not match workload {w.name}")
        return runs

    def spawn(self, run: Run, seed: int, episodes: int, traced: bool, reference):
        """Run one `qpolgrad run` in a child; returns (child result or None,
        batches attempted, failed batch indices). A run that trains no
        episode is charged as one batch."""
        attempted = max(1, math.ceil(episodes / BATCH_SIZE))
        timeout = DEADLINE_S + 20.0 - (time.monotonic() - self.started)
        if timeout <= 0:
            return None, attempted, set(range(attempted))
        self.work.mkdir(exist_ok=True)
        out = Path(tempfile.mkdtemp(dir=self.work))
        result_path = out / "result.json"
        try:
            spawn = time.monotonic()
            cmd = [sys.executable, str(CHILD), repr(spawn), str(result_path),
                   "1" if traced else "0", *run.argv(seed, episodes), "--out", str(out / "run")]
            proc = subprocess.run(cmd, cwd=self.root, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=timeout)
            if proc.returncode != 0:
                print(f"{run.preset} seed {seed} exited {proc.returncode}:\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
            result = json.loads(result_path.read_text()) if proc.returncode == 0 else None
            if result is not None and result["setup_end"] is None:
                print(f"{run.preset} seed {seed}: reinforce.train was never entered",
                      file=sys.stderr)
                result = None
            if result is not None and episodes and not result["steps"]:
                print(f"{run.preset} seed {seed}: no env step was counted", file=sys.stderr)
                result = None
            failed = gate.failed_batches(out / "run", episodes, BATCH_SIZE, reference)
            if result is not None:
                try:
                    metrics = gate.read_metrics(out / "run" / "metrics.csv")
                    result["total_reward"] = metrics["total_reward"]
                except gate.ArtifactError:
                    result["total_reward"] = []
        except subprocess.TimeoutExpired:
            print(f"{run.preset} seed {seed} timed out after {timeout:.0f} s", file=sys.stderr)
            result = None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if result is None:
            failed = set(range(attempted))
        return result, attempted, failed

    def probes(self, probe: Rep, rng: random.Random) -> None:
        """Runs on fresh seeds that time set-up, until probes have taken
        PROBE_SHARE of the run's time so far. The first trains one episode
        and must leave complete, finite artifacts; the others stop after
        set-up, because one training step of the widest circuit costs
        seconds. Each probe is one attempted batch."""
        while (probe.wall_s < PROBE_SHARE * (time.monotonic() - self.started)
               and time.monotonic() - self.started < DEADLINE_S):
            i = probe.attempted
            run = self.workload.runs[i % len(self.workload.runs)]
            seed = rng.randrange(2**31)
            started = time.monotonic()
            result, attempted, failed = self.spawn(run, seed, int(i == 0), False, None)
            probe.wall_s += time.monotonic() - started
            probe.attempted += attempted
            probe.failed += len(failed)
            if result is not None:
                probe.setups.append(result["setup_end"] - result["spawn"])

    def repetition(self, traced: bool) -> Rep:
        w = self.workload
        rep = Rep(trace=Tracer() if traced else None)
        for run, reference in zip(w.runs, self.references):
            result, attempted, failed = self.spawn(run, run.seed, run.episodes, traced, reference)
            rep.attempted += attempted
            if result is None:
                rep.failed += attempted
                rep.complete = False
                continue
            wall = result["end"] - result["spawn"]
            rep.wall_s += wall
            rep.cpu_s += result["cpu_s"]
            rep.peak_rss_mb = max(rep.peak_rss_mb, result["maxrss_kb"] / 1024)
            rep.steps += result["steps"]
            rep.main_s += result["main_s"]
            rep.setups.append(result["setup_end"] - result["spawn"])
            if w.solve_threshold is not None:
                solved = solve_episode(result["total_reward"], w.solve_threshold)
                if solved is None or solved >= len(result["stamps"]):
                    print(f"{run.preset}: never reached {w.solve_threshold}", file=sys.stderr)
                    failed = set(range(attempted))
                    rep.complete = False
                else:
                    rep.time_to_solve_s = result["stamps"][solved] - result["spawn"]
            rep.failed += len(failed)
            if traced:
                rep.trace.merge(result["trace"]["stats"])
                calls = sum(row[2] for row in result["trace"]["stats"])
                rep.trace_cost_s += calls * result["trace"]["call_cost_s"]
                rep.absent.update(result["trace"]["absent"])
                for name in result["trace"]["count_errors"]:
                    print(f"trace: counting failed for {name}", file=sys.stderr)
        if w.solve_threshold is None:
            rep.time_to_solve_s = rep.wall_s
        return rep

    def measure(self, trace: bool) -> tuple[Rep, list[Rep]]:
        """Repetitions with set-up probes after each; returns (probes, repetitions)."""
        rng = random.Random(self.seed)
        probe = Rep()
        reps: list[Rep] = []
        while True:
            reps.append(self.repetition(traced=trace))
            self.probes(probe, rng)
            elapsed = time.monotonic() - self.started
            per_rep = elapsed / len(reps)
            if elapsed + per_rep / 2 >= self.seconds or elapsed + per_rep >= DEADLINE_S:
                return probe, reps


def solve_episode(total_reward: list[float], threshold: float) -> int | None:
    """First episode whose running mean reaches `threshold`, by the rule
    `qpolgrad compare --threshold` applies."""
    from qpolgrad.cli import running_mean

    crossed = np.nonzero(running_mean(total_reward, SOLVE_WINDOW) >= threshold)[0]
    return int(crossed[0]) if crossed.size else None


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(t: Tracer, main_s: float, trace_cost_s: float) -> dict[str, float]:
    s = t.total
    batches = s("reinforce.collect_batch")
    gradient = s("reinforce.policy_gradient")
    quantum_batches = s("vqpolicy.grad_log_batch", "reinforce.policy_gradient").calls
    rowop = "qsim.circuit_row_operator"
    m = {
        "qsim.circuit_row_operator.calls": s(rowop).calls,
        "qsim.circuit_row_operator.self_s": s(rowop).self_s,
        "qsim.evolve_hamiltonian.calls": s("qsim.evolve_hamiltonian").calls,
        "qsim.evolve_hamiltonian.self_s": s("qsim.evolve_hamiltonian").self_s,
        "vqpolicy.inference_rowop_builds_per_batch":
            _per(s(rowop, "reinforce.collect_batch").calls, quantum_batches),
        "vqpolicy.grad_rowop_builds_per_batch":
            _per(s(rowop, "reinforce.policy_gradient").calls, quantum_batches),
        "reinforce.rollout.us_per_step":
            _per(s("reinforce.rollout").self_s, s("reinforce.rollout").units, 1e6),
        "reinforce.collect_batch.share": _per(batches.total_s, main_s),
        "reinforce.policy_gradient.share": _per(gradient.total_s, main_s),
        "reinforce.adam_step.self_s": s("reinforce.adam_step").self_s,
        "reinforce.zero_adv_batch_share": _per(gradient.units, gradient.calls),
        "analysis.fisher_matrix.samples": s("analysis.fisher_matrix").units,
        "analysis.fisher_matrix.self_s": s("analysis.fisher_matrix").self_s,
        "analysis.spectrum.calls": s("analysis.spectrum").calls,
        "analysis.spectrum.k": s("analysis.spectrum").peak_units,
        "analysis.spectrum.self_s": s("analysis.spectrum").self_s,
        "cli.run.self_s": s("cli.run").self_s,
        "trace.unattributed_s": main_s - t.self_sum(),
        "trace.overhead_pct": _per(trace_cost_s, main_s - trace_cost_s, 100.0),
    }
    for name in ("vqpolicy.probabilities", "classical.probabilities", "envs.step"):
        stat = s(name)
        m[f"{name}.calls"] = stat.calls
        m[f"{name}.us_per_call"] = _per(stat.total_s, stat.calls, 1e6)
    for name in ("vqpolicy.grad_log_batch", "classical.grad_log_batch"):
        stat = s(name)
        m[f"{name}.samples"] = stat.units
        m[f"{name}.self_s"] = stat.self_s
        m[f"{name}.us_per_sample"] = _per(stat.total_s, stat.units, 1e6)
    return {name: m[name] for name in PER_LAYER if name in m}


def summarize(probe: Rep, reps: list[Rep], trace: bool) -> dict[str, list[float]]:
    """Every sample of every reported metric."""
    done = [r for r in reps if r.complete]
    if not trace:
        return {
            "setup_s": probe.setups + [s for r in done for s in r.setups],
            "wall_s": [r.wall_s for r in done],
            "steps_per_s": [_per(r.steps, r.wall_s) for r in done],
            "time_to_solve_s": [r.time_to_solve_s for r in done],
            "cpu_s": [r.cpu_s for r in done],
            "peak_rss_mb": [r.peak_rss_mb for r in done],
        }
    if not done:
        return {}
    per_rep = [layer_metrics(r.trace, r.main_s, r.trace_cost_s) for r in done]
    return {name: [m[name] for m in per_rep] for name in PER_LAYER}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout if it is a git work tree; read, not run, so no
    enclosing repository is consulted."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(root: Path) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    src_lines = sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {k: os.environ.get(k, "unset (library default)")
                         for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": _git_commit(root),
        "src_lines": src_lines,
    }


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return "n=1"
    q = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q[0]:.6g} q3={q[2]:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        for needed in ("src/qpolgrad/cli.py", "cp_s0/metrics.csv"):
            if not (root / needed).is_file():
                raise BenchError(f"{needed} not found: run from the root of a qpolgrad checkout")
        sys.path.insert(0, str(root / "src"))
        bench = Bench(root, WORKLOADS[args.workload], args.seed, args.seconds)
        probe, reps = bench.measure(bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    samples = summarize(probe, reps, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    # a metric with no sample means no repetition completed; the result then
    # reads incorrect, and 0 stands in for the missing value
    metrics = {}
    for name, unit in units.items():
        values = samples.get(name)
        center = statistics.mean if name in MEAN_OVER_REPETITIONS else statistics.median
        metrics[name] = {"value": center(values) if values else 0.0, "unit": unit}
    attempted = probe.attempted + sum(r.attempted for r in reps)
    failed = probe.failed + sum(r.failed for r in reps)
    absent = sorted(set().union(*(r.absent for r in reps)))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "repetitions": len(reps), "absent_hooks": absent,
                      "provenance": provenance(root), "samples": samples}))
    for name, values in samples.items():
        print(f"{args.workload:20s} {name:44s} {metrics[name]['value']:14.6g} "
              f"{units[name]:6s} {_spread(values)}", file=sys.stderr)
    print(f"{args.workload:20s} batches failed {failed} of {attempted}"
          + (f"; absent hooks: {', '.join(absent)}" if absent else ""), file=sys.stderr)
    complete = all(samples.get(name) for name in units)
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
