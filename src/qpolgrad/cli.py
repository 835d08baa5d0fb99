"""Command line: the parser of every subcommand, and `run`.

Subcommands, and the module that serves each:

- run                this module: train one configuration, persisting
                     manifest, metrics CSV, checkpoint, and (optionally)
                     trajectories and Fisher spectra, all from
                     `reinforce.train`'s records
- plot               `tools`: running-mean reward chart (SVG) from metrics CSVs
- compare            `tools`: side-by-side summary JSON of two completed runs
- bounds             `tools`: sample/shot-complexity calculators as JSON
- fisher             `tools`: Fisher spectrum from a checkpoint plus fresh
                     rollouts
- validate-hoeffding `tools`: Monte-Carlo check of the shot bound

Every experiment is many short `qpolgrad run` processes, and each compiles
the modules it imports from source when no bytecode is cached, which raises
its peak memory. So `run` imports only what training runs: `main` imports
`tools` only to serve another subcommand, and `analysis` is imported only by
a run that collects Fisher spectra.

Exit codes: 0 success, 1 validation/contract failure, 2 I/O failure.
All artifacts are plain JSON/CSV/SVG. `QPG_OUT_DIR` supplies the output
directory when neither the config nor --out does.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import blas_threads, config as cfg, envs, reinforce
from .errors import ConfigError, ContractError

METRICS_COLUMNS = ("episode", "total_reward", "discounted_return",
                   "beta", "grad_norm", "elapsed_ms")


# ---------------------------------------------------------------------------
# small shared helpers
# ---------------------------------------------------------------------------

def running_mean(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing mean over up to `window` points (partial windows at the start)."""
    if window < 1:
        raise ContractError("window must be >= 1")
    values = np.asarray(values, dtype=float)
    sums = np.cumsum(values)
    out = np.empty_like(values)
    out[:window] = sums[:window] / np.arange(1, min(window, len(values)) + 1)
    if len(values) > window:
        out[window:] = (sums[window:] - sums[:-window]) / window
    return out


def _read_json_object(path, kind: str) -> dict:
    """The JSON object in the `kind` file `path`; anything else raises
    ContractError naming the file."""
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:  # json.JSONDecodeError, or bytes that are not UTF-8
        raise ContractError(f"{kind} {path} is not JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ContractError(f"{kind} {path} holds a {type(data).__name__}, not a JSON object")
    return data


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def fisher_spectrum(policy, environment: str, rollouts: int, rng: np.random.Generator,
                    include_beta: bool):
    """`analysis.SpectrumReport` of the Fisher matrix over fresh on-policy
    rollouts on a side stream.

    The rollouts run as one lockstep batch of `run_episodes`, all on the
    one stream `rng`: rollout i draws its i-th consecutive block, its reset
    and then `max_steps` uniforms, and shot readouts draw after all blocks.
    Rollouts only read the policy, so observing it leaves it unchanged; the
    gradients scale by the policy's maxima widened to cover every visited
    state. The Fisher matrix reads the batch's own feature and action
    arrays; shot-mode gradients draw from the same stream after the rollouts.
    """
    if rollouts < 1:
        raise ContractError(f"a Fisher spectrum needs at least one rollout, got {rollouts}")
    from . import analysis

    # gamma 1.0: it only sets the batch's returns, which no spectrum reads
    batch = reinforce.run_episodes(envs.make_env(environment), policy, [rng] * rollouts, 1.0)
    return analysis.spectrum(analysis.fisher_matrix(policy, batch.observations, batch.actions,
                                                    include_beta=include_beta, rng=rng))


def _write_spectrum(report, out: Path, label: int) -> None:
    """`fisher_ck_{label}.csv`, the eigenvalues of `fisher_spectrum`'s
    report, and its `.json` sidecar."""
    with open(out / f"fisher_ck_{label}.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["eigenvalue"])
        for value in report.eigenvalues:
            writer.writerow([_fmt(value)])
    (out / f"fisher_ck_{label}.json").write_text(json.dumps({
        "trace": report.trace,
        "k": int(len(report.eigenvalues)),
        "checkpoint_episode": label,
    }, indent=1))


def provenance() -> dict:
    """What produced a run besides its config: interpreter, numpy and its
    BLAS, the BLAS thread count pinned at import and the platform."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
    }


def resolve_output_dir(config) -> Path:
    if config.output_dir:
        return Path(config.output_dir)
    env_dir = os.environ.get("QPG_OUT_DIR")
    if env_dir:
        return Path(env_dir) / config.label()
    return Path("runs") / config.label()


def checkpoint_episodes(episodes: int) -> list[int]:
    """Episode counts at which each further 10% of a budget completes."""
    return sorted({int(np.ceil(episodes * f / 10)) for f in range(1, 11)}) if episodes else []


def run(config) -> int:
    """Execute one training run and persist every artifact it promises.

    One pass over `reinforce.train`'s per-episode records writes them all:
    each record's metrics row, its trajectory's rows with
    `dump_trajectories`, and with `fisher_checkpoints` a spectrum at each
    record that completes another 10% of the budget. `checkpoint.json`
    records the environment beside the policy.
    """
    if config.fisher_checkpoints:
        from . import analysis  # noqa: F401  loaded before training allocates
    out = resolve_output_dir(config)
    out.mkdir(parents=True, exist_ok=True)
    boundaries = checkpoint_episodes(config.episodes) if config.fisher_checkpoints else []
    artifacts = {"metrics": "metrics.csv", "checkpoint": "checkpoint.json"}
    if config.dump_trajectories:
        artifacts["trajectories"] = "trajectories.csv"
    if config.fisher_checkpoints:
        artifacts["fisher"] = [[f"fisher_ck_{ep}.csv", f"fisher_ck_{ep}.json"]
                               for ep in boundaries]
    manifest = {
        "name": config.label(),
        "config": config.to_dict(),
        "config_hash": cfg.config_hash(config),
        "started_at": datetime.now(timezone.utc).isoformat(),
        "artifacts": artifacts,
        "provenance": provenance(),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))

    state = reinforce.prepare(config)
    with contextlib.ExitStack() as files:
        metrics = csv.writer(files.enter_context(open(out / "metrics.csv", "w", newline="")),
                             lineterminator="\n")
        metrics.writerow(METRICS_COLUMNS)
        if config.dump_trajectories:
            trajectories = csv.writer(
                files.enter_context(open(out / "trajectories.csv", "w", newline="")),
                lineterminator="\n")
            trajectories.writerow(["episode", "step"]
                                  + [f"feature_{i}" for i in range(config.env_spec.n_features)]
                                  + ["action", "reward", "done"])
        for record in reinforce.train(config, state):
            metrics.writerow([record.episode, _fmt(record.total_reward),
                              _fmt(record.discounted_return), _fmt(record.beta),
                              _fmt(record.grad_norm), "0"])
            if config.dump_trajectories:
                traj = record.trajectory
                last = len(traj) - 1
                for step, (obs, action, reward) in enumerate(
                        zip(traj.observations, traj.actions, traj.rewards)):
                    trajectories.writerow([record.episode, step] + [_fmt(f) for f in obs]
                                          + [int(action), _fmt(reward), int(step == last)])
            # `train` yields a batch's records after its Adam step, and nothing
            # changes the policy between them, so a boundary that falls
            # mid-batch sees the same policy as the batch's last record.
            episodes_done = record.episode + 1
            if episodes_done in boundaries:
                report = fisher_spectrum(state.policy, config.environment, config.batch_size,
                                         reinforce.keyed_stream(config.seed, 2, episodes_done),
                                         include_beta=not config.fisher_theta_only)
                _write_spectrum(report, out, episodes_done)
    with open(out / "checkpoint.json", "w") as fh:
        json.dump({"environment": config.environment, **state.policy.to_checkpoint()}, fh,
                  indent=1)
    print(out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qpolgrad",
                                     description="Quantum policy-gradient experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train one configuration")
    p_run.add_argument("--preset", choices=sorted(cfg.PRESETS))
    p_run.add_argument("--config", dest="config_path")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--episodes", type=int)
    p_run.add_argument("--out")
    p_run.add_argument("--shots", type=int)
    p_run.add_argument("--batch-size", type=int)
    p_run.add_argument("--fisher", action="store_true",
                       help="collect Fisher spectra every 10%% of the budget")
    p_run.add_argument("--dump-trajectories", action="store_true")

    p_plot = sub.add_parser("plot", help="running-mean reward chart from metrics CSVs")
    p_plot.add_argument("metrics", nargs="+")
    p_plot.add_argument("--out", required=True, help="output SVG path")
    p_plot.add_argument("--window", type=int, default=50)

    p_cmp = sub.add_parser("compare", help="summarize two completed runs")
    p_cmp.add_argument("run_a")
    p_cmp.add_argument("run_b")
    p_cmp.add_argument("--threshold", type=float)
    p_cmp.add_argument("--window", type=int, default=50)
    p_cmp.add_argument("--out")

    p_bounds = sub.add_parser("bounds", help="sample/shot complexity calculators")
    p_bounds.add_argument("--beta", type=float, default=1.0)
    p_bounds.add_argument("--r-max", type=float, default=1.0)
    p_bounds.add_argument("--horizon", type=int, default=10)
    p_bounds.add_argument("--gamma", type=float, default=0.99)
    p_bounds.add_argument("--epsilon", type=float, required=True)
    p_bounds.add_argument("--delta", type=float, required=True)
    p_bounds.add_argument("--k", type=int, required=True)
    p_bounds.add_argument("--n-actions", type=int, default=2)
    p_bounds.add_argument("--n-samples", type=float,
                          help="override the Lemma-1 sample count in the shot total")

    p_fisher = sub.add_parser("fisher", help="Fisher spectrum from a checkpoint")
    p_fisher.add_argument("--checkpoint", required=True)
    p_fisher.add_argument("--env", required=True, choices=sorted(envs.ENV_SPECS))
    p_fisher.add_argument("--rollouts", type=int, default=10)
    p_fisher.add_argument("--seed", type=int, default=0)
    p_fisher.add_argument("--out", required=True, help="output directory")
    p_fisher.add_argument("--theta-only", action="store_true")
    p_fisher.add_argument("--episode-label", type=int, default=0,
                          help="checkpoint episode recorded in the sidecar")

    p_hoeff = sub.add_parser("validate-hoeffding",
                             help="Monte-Carlo validation of the shot bound")
    p_hoeff.add_argument("--epsilon", type=float, default=0.2)
    p_hoeff.add_argument("--delta", type=float, default=0.1)
    p_hoeff.add_argument("--trials", type=int, default=500)
    p_hoeff.add_argument("--seed", type=int, default=0)
    p_hoeff.add_argument("--k", type=int, default=4)
    return parser


def _run_command(args) -> int:
    if bool(args.preset) == bool(args.config_path):
        raise ConfigError("run needs exactly one of --preset or --config")
    overrides = {
        "seed": args.seed,
        "episodes": args.episodes,
        "output_dir": args.out,
        "shots": args.shots,
        "batch_size": args.batch_size,
        "fisher_checkpoints": True if args.fisher else None,
        "dump_trajectories": True if args.dump_trajectories else None,
    }
    if args.preset:
        configuration = cfg.preset_config(args.preset, overrides)
    else:
        configuration = cfg.from_dict(_read_json_object(args.config_path, "config file"),
                                      overrides)
    return run(configuration)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if (getattr(args, "seed", None) or 0) < 0:  # numpy seeds only take integers >= 0
            raise ConfigError(f"--seed must be an integer >= 0, got {args.seed}")
        if args.command == "run":
            return _run_command(args)
        from . import tools

        return tools.main(args)
    except (ConfigError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
