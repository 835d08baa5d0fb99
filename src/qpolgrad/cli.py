"""Command line: run experiments, plot reward curves, compare runs, bounds.

Subcommands:

- run                train one configuration, persisting manifest, metrics
                     CSV, checkpoint, and (optionally) Fisher spectra
- plot               running-mean reward chart (SVG) from metrics CSVs
- compare            side-by-side summary JSON of two completed runs
- bounds             sample/shot-complexity calculators as a JSON object
- fisher             Fisher spectrum from a checkpoint plus fresh rollouts
- validate-hoeffding Monte-Carlo check of the shot bound

Exit codes: 0 success, 1 validation/contract failure, 2 I/O failure.
All artifacts are plain JSON/CSV/SVG. `QPG_OUT_DIR` supplies the output
directory when neither the config nor --out does.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np

from . import analysis, config as cfg, envs, reinforce
from .classical import MlpPolicy
from .errors import ConfigError, ContractError
from .vqpolicy import QuantumPolicy

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


def read_metrics(path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in METRICS_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise ContractError(f"{path}: metrics CSV missing column(s) {', '.join(missing)}")
        rows = list(reader)
    return {c: np.array([float(r[c]) for r in rows]) for c in METRICS_COLUMNS}


def _series_name(csv_path: Path) -> str:
    manifest = csv_path.parent / "manifest.json"
    if manifest.exists():
        try:
            return json.loads(manifest.read_text()).get("name") or csv_path.parent.name
        except json.JSONDecodeError:
            pass
    return csv_path.stem


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def fisher_spectrum(policy, environment: str, rollouts: int, rng: np.random.Generator,
                    gamma: float, include_beta: bool) -> analysis.SpectrumReport:
    """Fisher spectrum over fresh on-policy rollouts on a side stream.

    Rollouts and gradients run on a normalizer snapshot, as a training
    episode does, so observing a policy leaves it unchanged.
    """
    if rollouts < 1:
        raise ContractError(f"a Fisher spectrum needs at least one rollout, got {rollouts}")
    view = reinforce.episode_view(policy)
    trajs = [reinforce.rollout(envs.make_env(environment), view, rng, gamma)
             for _ in range(rollouts)]
    states = np.concatenate([traj.observations for traj in trajs])
    actions = np.concatenate([traj.actions for traj in trajs])
    return analysis.spectrum(analysis.fisher_matrix(view, states, actions,
                                                    include_beta=include_beta))


def _write_spectrum(report: analysis.SpectrumReport, csv_path: Path, json_path: Path,
                    checkpoint_episode: int) -> None:
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["eigenvalue"])
        for value in report.eigenvalues:
            writer.writerow([_fmt(value)])
    json_path.write_text(json.dumps({
        "trace": report.trace,
        "k": int(len(report.eigenvalues)),
        "checkpoint_episode": checkpoint_episode,
    }, indent=1))


def resolve_output_dir(config) -> Path:
    if config.output_dir:
        return Path(config.output_dir)
    env_dir = os.environ.get("QPG_OUT_DIR")
    if env_dir:
        return Path(env_dir) / config.label()
    return Path("runs") / config.label()


def run(config) -> int:
    """Execute one training run and persist every artifact it promises."""
    out = resolve_output_dir(config)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = {"metrics": "metrics.csv", "checkpoint": "checkpoint.json"}
    if config.dump_trajectories:
        artifacts["trajectories"] = "trajectories.csv"
    if config.fisher_checkpoints:
        artifacts["fisher"] = [
            [f"fisher_ck_{ep}.csv", f"fisher_ck_{ep}.json"]
            for ep in reinforce.checkpoint_episodes(config.episodes)
        ]
    manifest = {
        "name": config.label(),
        "config": config.to_dict(),
        "config_hash": cfg.config_hash(config),
        "started_at": datetime.now(timezone.utc).isoformat(),
        "artifacts": artifacts,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))

    state = reinforce.prepare(config)

    def fisher_hook(episodes_done, run_state):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed,
                                                           spawn_key=(2, episodes_done)))
        report = fisher_spectrum(run_state.policy, config.environment, config.batch_size, rng,
                                 config.gamma, include_beta=not config.fisher_theta_only)
        _write_spectrum(report, out / f"fisher_ck_{episodes_done}.csv",
                        out / f"fisher_ck_{episodes_done}.json", episodes_done)

    traj_file = traj_writer = None
    if config.dump_trajectories:
        traj_file = open(out / "trajectories.csv", "w", newline="")
        traj_writer = csv.writer(traj_file, lineterminator="\n")
        n_feats = config.env_spec.n_features
        traj_writer.writerow(["episode", "step"]
                             + [f"feature_{i}" for i in range(n_feats)]
                             + ["action", "reward", "done"])

    def traj_sink(episode, traj):
        last = len(traj) - 1
        for step, (obs, action, reward) in enumerate(
                zip(traj.observations, traj.actions, traj.rewards)):
            traj_writer.writerow([episode, step]
                                 + [_fmt(f) for f in obs]
                                 + [int(action), _fmt(reward), int(step == last)])

    try:
        with open(out / "metrics.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(METRICS_COLUMNS)
            stream = reinforce.train(
                config, state,
                checkpoint_hook=fisher_hook if config.fisher_checkpoints else None,
                trajectory_sink=traj_sink if config.dump_trajectories else None,
            )
            for record in stream:
                writer.writerow([
                    record.episode, _fmt(record.total_reward),
                    _fmt(record.discounted_return), _fmt(record.beta),
                    _fmt(record.grad_norm),
                    _fmt(record.elapsed_ms) if config.timing else "0",
                ])
        state.policy.save(out / "checkpoint.json")
    finally:
        if traj_file is not None:
            traj_file.close()
    print(out)
    return 0


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_line_chart(series, xlabel: str, ylabel: str) -> str:
    width, height = 880, 520
    left, right, top, bottom = 70, 190, 20, 50
    plot_w, plot_h = width - left - right, height - top - bottom
    xs_all = np.concatenate([s[1] for s in series])
    ys_all = np.concatenate([s[2] for s in series])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" '
        'stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(f'<line x1="{sx(xv):.1f}" y1="{top + plot_h}" x2="{sx(xv):.1f}" '
                     f'y2="{top + plot_h + 5}" stroke="black"/>')
        parts.append(f'<text x="{sx(xv):.1f}" y="{top + plot_h + 20}" font-size="12" '
                     f'text-anchor="middle">{xv:.4g}</text>')
        parts.append(f'<line x1="{left - 5}" y1="{sy(yv):.1f}" x2="{left}" '
                     f'y2="{sy(yv):.1f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8}" y="{sy(yv) + 4:.1f}" font-size="12" '
                     f'text-anchor="end">{yv:.5g}</text>')
    parts.append(f'<text x="{left + plot_w / 2:.1f}" y="{height - 12}" font-size="14" '
                 f'text-anchor="middle">{escape(xlabel)}</text>')
    parts.append(f'<text x="18" y="{top + plot_h / 2:.1f}" font-size="14" '
                 f'text-anchor="middle" transform="rotate(-90 18 {top + plot_h / 2:.1f})">'
                 f'{escape(ylabel)}</text>')
    for i, (name, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"/>')
        ly = top + 16 + 18 * i
        lx = left + plot_w + 12
        parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 24}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 30}" y="{ly + 4}" font-size="12">{escape(name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def plot(metrics_paths, out_svg, window: int = 50) -> int:
    """Emit the smoothed reward chart plus the smoothed series as CSV."""
    series = []
    for path in metrics_paths:
        path = Path(path)
        data = read_metrics(path)
        smoothed = running_mean(data["total_reward"], window)
        series.append((_series_name(path), data["episode"], smoothed))
    out_svg = Path(out_svg)
    out_svg.parent.mkdir(parents=True, exist_ok=True)
    out_svg.write_text(_svg_line_chart(series, "episode",
                                       f"running-mean total reward (window {window})"))
    smoothed_csv = out_svg.with_suffix("").parent / (out_svg.stem + "_smoothed.csv")
    with open(smoothed_csv, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["series", "episode", "smoothed_total_reward"])
        for name, xs, ys in series:
            for x, y in zip(xs, ys):
                writer.writerow([name, int(x), _fmt(y)])
    print(out_svg)
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _parameter_count_from_checkpoint(path: Path) -> int:
    data = json.loads(path.read_text())
    if "theta" in data:
        return len(data["theta"]) + 1  # circuit angles plus inverse temperature
    return sum(np.asarray(w).size for w in data["weights"])


def _run_summary(run_dir: Path, threshold, window: int) -> dict:
    metrics_path = run_dir / "metrics.csv"
    checkpoint_path = run_dir / "checkpoint.json"
    manifest_path = run_dir / "manifest.json"
    for required in (metrics_path, checkpoint_path, manifest_path):
        if not required.exists():
            raise ContractError(f"incomplete run: {required} is missing")
    manifest = json.loads(manifest_path.read_text())
    data = read_metrics(metrics_path)
    smoothed = running_mean(data["total_reward"], window)
    episodes_to_threshold = None
    if threshold is not None:
        crossed = np.nonzero(smoothed >= threshold)[0]
        if crossed.size:
            episodes_to_threshold = int(data["episode"][crossed[0]])
    fisher_series = []
    for sidecar in sorted(run_dir.glob("fisher_ck_*.json"),
                          key=lambda p: int(p.stem.split("_")[-1])):
        info = json.loads(sidecar.read_text())
        fisher_series.append({"episode": info["checkpoint_episode"], "trace": info["trace"]})
    return {
        "name": manifest.get("name"),
        "final_running_mean": float(smoothed[-1]) if smoothed.size else None,
        "episodes_to_threshold": episodes_to_threshold,
        "parameter_count": _parameter_count_from_checkpoint(checkpoint_path),
        "fisher_trace_series": fisher_series or None,
    }


def compare(run_a, run_b, threshold=None, window: int = 50) -> dict:
    return {
        "window": window,
        "threshold": threshold,
        "run_a": _run_summary(Path(run_a), threshold, window),
        "run_b": _run_summary(Path(run_b), threshold, window),
    }


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
    p_run.add_argument("--timing", action="store_true",
                       help="record wall time in metrics.csv (breaks byte determinism)")

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
    p_fisher.add_argument("--gamma", type=float, default=0.99)
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
    p_hoeff.add_argument("--horizon", type=int, default=10)
    p_hoeff.add_argument("--also-bernoulli", action="store_true",
                         help="include the textbook coin-estimation self-test")
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
        "timing": True if args.timing else None,
    }
    if args.preset:
        configuration = cfg.preset_config(args.preset, overrides)
    else:
        configuration = cfg.load_config(args.config_path, overrides)
    return run(configuration)


def _fisher_command(args) -> int:
    data = json.loads(Path(args.checkpoint).read_text())
    policy = (QuantumPolicy.from_checkpoint(data) if "theta" in data
              else MlpPolicy.from_checkpoint(data))
    rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(2, 0)))
    report = fisher_spectrum(policy, args.env, args.rollouts, rng, args.gamma,
                             include_beta=not args.theta_only)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    label = args.episode_label
    _write_spectrum(report, out / f"fisher_ck_{label}.csv",
                    out / f"fisher_ck_{label}.json", label)
    print(json.dumps({"trace": report.trace, "k": int(len(report.eigenvalues)),
                      "nonzero_eigenvalues": int(np.sum(report.eigenvalues > 1e-12))}))
    return 0


def _bounds_command(args) -> int:
    inputs = analysis.BoundInputs(args.beta, args.r_max, args.horizon, args.gamma,
                                  args.epsilon, args.delta, args.k, args.n_actions)
    n_traj, n_samples = analysis.lemma1_samples(inputs)
    effective_samples = args.n_samples if args.n_samples is not None else n_samples
    per_obs, total = analysis.lemma2_shots(inputs, effective_samples)
    print(json.dumps({
        "inputs": {"beta": args.beta, "r_max": args.r_max, "horizon": args.horizon,
                   "gamma": args.gamma, "epsilon": args.epsilon, "delta": args.delta,
                   "k": args.k, "n_actions": args.n_actions},
        "lemma1": {"n_trajectories": n_traj, "n_samples": n_samples},
        "lemma2": {"shots_per_observable": per_obs, "total_shots": total,
                   "n_samples_used": effective_samples},
    }))
    return 0


def _hoeffding_command(args) -> int:
    inputs = analysis.BoundInputs(1.0, 1.0, args.horizon, 0.99,
                                  args.epsilon, args.delta, args.k)
    rng = np.random.default_rng(args.seed)
    report = analysis.hoeffding_validate(inputs, args.trials, rng)
    payload = report.to_dict()
    if args.also_bernoulli:
        payload["bernoulli_selftest_failure_rate"] = (
            analysis.bernoulli_hoeffding_failure_rate(0.5, 0.1, 0.05, 2000, rng))
    print(json.dumps(payload))
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _run_command(args)
        if args.command == "plot":
            return plot(args.metrics, args.out, args.window)
        if args.command == "compare":
            result = compare(args.run_a, args.run_b, args.threshold, args.window)
            text = json.dumps(result, indent=1)
            if args.out:
                Path(args.out).write_text(text)
            print(text)
            return 0
        if args.command == "bounds":
            return _bounds_command(args)
        if args.command == "fisher":
            return _fisher_command(args)
        if args.command == "validate-hoeffding":
            return _hoeffding_command(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
