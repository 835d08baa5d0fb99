"""Command line: run experiments, plot reward curves, compare runs, bounds.

Subcommands:

- run                train one configuration, persisting manifest, metrics
                     CSV, checkpoint, and (optionally) trajectories and
                     Fisher spectra, all from `reinforce.train`'s records
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
import contextlib
import csv
import dataclasses
import json
import os
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import analysis, blas_threads, config as cfg, envs, reinforce
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
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            columns, rows = reader.fieldnames or [], list(reader)
    except (UnicodeDecodeError, csv.Error) as exc:  # bytes that are not UTF-8, or bad CSV
        raise ContractError(f"{path}: metrics CSV is not readable text: {exc}") from exc
    missing = [c for c in METRICS_COLUMNS if c not in columns]
    if missing:
        raise ContractError(f"{path}: metrics CSV missing column(s) {', '.join(missing)}")
    try:
        return {c: np.array([float(r[c]) for r in rows]) for c in METRICS_COLUMNS}
    except (TypeError, ValueError) as exc:  # a short row gives None, a text cell ValueError
        raise ContractError(f"{path}: metrics CSV holds a non-numeric cell: {exc}") from exc


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


def _series_name(csv_path: Path) -> str:
    manifest = csv_path.parent / "manifest.json"
    if manifest.exists():
        try:
            return _read_json_object(manifest, "manifest").get("name") or csv_path.parent.name
        except ContractError:
            pass
    return csv_path.stem


def _fmt(x: float) -> str:
    return repr(float(x))


def policy_from_checkpoint(path):
    """The quantum or classical policy that a `checkpoint.json` file holds; a
    file that holds none raises ContractError naming it."""
    data = _read_json_object(path, "checkpoint")
    try:
        return (QuantumPolicy if "theta" in data else MlpPolicy).from_checkpoint(data)
    except KeyError as exc:
        raise ContractError(f"checkpoint {path} is missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ContractError(f"checkpoint {path} holds no policy: {exc}") from exc


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def fisher_spectrum(policy, environment: str, rollouts: int, rng: np.random.Generator,
                    include_beta: bool) -> analysis.SpectrumReport:
    """Fisher spectrum over fresh on-policy rollouts on a side stream.

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
    # gamma 1.0: it only sets the batch's returns, which no spectrum reads
    batch = reinforce.run_episodes(envs.make_env(environment), policy, [rng] * rollouts, 1.0)
    return analysis.spectrum(analysis.fisher_matrix(policy, batch.observations, batch.actions,
                                                    include_beta=include_beta, rng=rng))


def _write_spectrum(report: analysis.SpectrumReport, out: Path, label: int) -> None:
    """`fisher_ck_{label}.csv`, the eigenvalues, and its `.json` sidecar."""
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
    record that completes another 10% of the budget.
    """
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
        json.dump(state.policy.to_checkpoint(), fh, indent=1)
    print(out)
    return 0


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_line_chart(series, xlabel: str, ylabel: str) -> str:
    import html  # here, not at the top: `qpolgrad run` never loads html.entities

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
                 f'text-anchor="middle">{html.escape(xlabel, quote=False)}</text>')
    parts.append(f'<text x="18" y="{top + plot_h / 2:.1f}" font-size="14" '
                 f'text-anchor="middle" transform="rotate(-90 18 {top + plot_h / 2:.1f})">'
                 f'{html.escape(ylabel, quote=False)}</text>')
    for i, (name, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"/>')
        ly = top + 16 + 18 * i
        lx = left + plot_w + 12
        parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 24}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 30}" y="{ly + 4}" font-size="12">'
                     f'{html.escape(name, quote=False)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def plot(metrics_paths, out_svg, window: int = 50) -> int:
    """Emit the smoothed reward chart plus the smoothed series as CSV."""
    series = []
    for path in metrics_paths:
        path = Path(path)
        data = read_metrics(path)
        if not data["episode"].size:
            raise ContractError(f"{path}: metrics CSV has no episodes to plot")
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

def _run_summary(run_dir: Path, threshold, window: int) -> dict:
    metrics_path = run_dir / "metrics.csv"
    checkpoint_path = run_dir / "checkpoint.json"
    manifest_path = run_dir / "manifest.json"
    for required in (metrics_path, checkpoint_path, manifest_path):
        if not required.exists():
            raise ContractError(f"incomplete run: {required} is missing")
    manifest = _read_json_object(manifest_path, "manifest")
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
        info = _read_json_object(sidecar, "Fisher sidecar")
        try:
            fisher_series.append({"episode": info["checkpoint_episode"], "trace": info["trace"]})
        except KeyError as exc:
            raise ContractError(f"Fisher sidecar {sidecar} is missing {exc}") from exc
    return {
        "name": manifest.get("name"),
        "final_running_mean": float(smoothed[-1]) if smoothed.size else None,
        "episodes_to_threshold": episodes_to_threshold,
        "parameter_count": policy_from_checkpoint(checkpoint_path).n_trainable,
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
    }
    if args.preset:
        configuration = cfg.preset_config(args.preset, overrides)
    else:
        configuration = cfg.from_dict(_read_json_object(args.config_path, "config file"),
                                      overrides)
    return run(configuration)


def _fisher_command(args) -> int:
    if args.episode_label < 0:  # it names the spectrum's files
        raise ConfigError(f"--episode-label must be an integer >= 0, got {args.episode_label}")
    policy = policy_from_checkpoint(args.checkpoint)
    report = fisher_spectrum(policy, args.env, args.rollouts,
                             reinforce.keyed_stream(args.seed, 2, 0),
                             include_beta=not args.theta_only)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_spectrum(report, out, args.episode_label)
    print(json.dumps({"trace": report.trace, "k": int(len(report.eigenvalues)),
                      "nonzero_eigenvalues": int(np.sum(report.eigenvalues > 1e-12))}))
    return 0


def _bounds_command(args) -> int:
    inputs = analysis.BoundInputs(args.beta, args.r_max, args.horizon, args.gamma,
                                  args.epsilon, args.delta, args.k, args.n_actions)
    if args.n_samples is not None and not (np.isfinite(args.n_samples) and args.n_samples >= 0):
        raise ContractError(f"--n-samples must be a finite number >= 0, got {args.n_samples}")
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
    # the shot bound reads only epsilon, delta and k; the rest fill Lemma 1's slots
    inputs = analysis.BoundInputs(1.0, 1.0, 1, 0.99, args.epsilon, args.delta, args.k)
    rng = np.random.default_rng(args.seed)
    report = analysis.hoeffding_validate(inputs, args.trials, rng)
    payload = dataclasses.asdict(report)
    if args.also_bernoulli:
        payload["bernoulli_selftest_failure_rate"] = (
            analysis.bernoulli_hoeffding_failure_rate(0.5, 0.1, 0.05, 2000, rng))
    print(json.dumps(payload))
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if (getattr(args, "seed", None) or 0) < 0:  # numpy seeds only take integers >= 0
            raise ConfigError(f"--seed must be an integer >= 0, got {args.seed}")
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
