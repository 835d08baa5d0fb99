"""Every `qpolgrad` subcommand but `run`: charts, run summaries, Fisher
spectra of checkpoints and the sample and shot bounds.

- plot               running-mean reward chart (SVG) from metrics CSVs
- compare            side-by-side summary JSON of two completed runs
- bounds             sample/shot-complexity calculators as a JSON object
- fisher             Fisher spectrum from a checkpoint plus fresh rollouts
- validate-hoeffding Monte-Carlo check of the shot bound

`cli.main` parses every command line and imports this module only to serve
one of these, so a training run never compiles it. Errors propagate as
ConfigError, ContractError or OSError, which `cli.main` turns into exit
codes.
"""
from __future__ import annotations

import csv
import dataclasses
import html
import json
from pathlib import Path

import numpy as np

from . import analysis, reinforce
from .classical import MlpPolicy
from .cli import (METRICS_COLUMNS, _fmt, _read_json_object, _write_spectrum, fisher_spectrum,
                  running_mean)
from .errors import ConfigError, ContractError
from .vqpolicy import QuantumPolicy


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


def _series_name(csv_path: Path) -> str:
    manifest = csv_path.parent / "manifest.json"
    if manifest.exists():
        try:
            return _read_json_object(manifest, "manifest").get("name") or csv_path.parent.name
        except ContractError:
            pass
    return csv_path.stem


def policy_from_checkpoint(path, environment: str | None = None):
    """The quantum or classical policy that a `checkpoint.json` file holds; a
    file that holds none, or that records an environment other than
    `environment`, raises ContractError naming it. A checkpoint written
    before runs recorded their environment is not checked."""
    data = _read_json_object(path, "checkpoint")
    trained_on = data.get("environment")
    if environment is not None and trained_on is not None and trained_on != environment:
        raise ContractError(f"checkpoint {path} was trained on {trained_on}, not {environment}")
    try:
        return (QuantumPolicy if "theta" in data else MlpPolicy).from_checkpoint(data)
    except KeyError as exc:
        raise ContractError(f"checkpoint {path} is missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ContractError(f"checkpoint {path} holds no policy: {exc}") from exc


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
# command handlers
# ---------------------------------------------------------------------------

def _fisher_command(args) -> int:
    if args.episode_label < 0:  # it names the spectrum's files
        raise ConfigError(f"--episode-label must be an integer >= 0, got {args.episode_label}")
    policy = policy_from_checkpoint(args.checkpoint, args.env)
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


def main(args) -> int:
    """Serve the parsed arguments of any subcommand but `run`."""
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
