"""Correctness gate: one run's artifacts against its reference outputs.

The golden rule: `total_reward` and `discounted_return` match exactly, `beta`
and `grad_norm` within abs 1e-9 + rel 1e-9. Fisher eigenvalues match within
1e-9 of the largest reference eigenvalue, so an eigen-solver that differs
only by rounding (eigvalsh against Jacobi: 3e-14 at k = 768) still passes.
Without a reference, a run must still leave complete, finite artifacts.
A failure is charged to the training batch it belongs to.

The gate parses the artifacts itself rather than through `qpolgrad.cli`, so
a change to the program's own reader cannot make the program's output pass.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

EXACT = ("total_reward", "discounted_return")
CLOSE = ("beta", "grad_norm")
COLUMNS = ("episode",) + EXACT + CLOSE
ATOL = RTOL = 1e-9
EIGEN_RTOL = 1e-9


class ArtifactError(Exception):
    """A run directory is missing a file or holds one that does not parse."""


def read_columns(path: Path, columns) -> dict[str, list[float]]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        return {c: [float(r[c]) for r in rows] for c in columns}
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{path}: {exc}") from exc


def read_metrics(path: Path) -> dict[str, list[float]]:
    return read_columns(path, COLUMNS)


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"{path}: {exc}") from exc


def read_fisher(out: Path, episode: int) -> dict:
    info = _read_json(out / f"fisher_ck_{episode}.json")
    eigen = read_columns(out / f"fisher_ck_{episode}.csv", ("eigenvalue",))["eigenvalue"]
    return {"trace": info["trace"], "k": info["k"], "eigenvalues": eigen}


def fisher_episodes(manifest: dict) -> list[int]:
    """Checkpoint episodes the run promised in its manifest."""
    return [int(Path(pair[1]).stem.rsplit("_", 1)[1])
            for pair in manifest.get("artifacts", {}).get("fisher", [])]


def _finite(value) -> bool:
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return math.isfinite(value)
    return True


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ATOL + RTOL * abs(b)


def failed_batches(out: Path, episodes: int, batch_size: int,
                   reference: dict | None = None) -> set[int]:
    """Indices of the batches whose output is missing, non-finite or wrong."""
    every_batch = set(range(math.ceil(episodes / batch_size)))
    try:
        manifest = _read_json(out / "manifest.json")
        metrics = read_metrics(out / "metrics.csv")
        checkpoint = _read_json(out / "checkpoint.json")
        fisher = {ep: read_fisher(out, ep) for ep in fisher_episodes(manifest)}
    except (ArtifactError, KeyError, IndexError, ValueError):
        return every_batch
    if manifest.get("config", {}).get("batch_size") != batch_size or not _finite(checkpoint):
        return every_batch

    failed = set()
    for i in range(episodes):
        row = {c: metrics[c][i] for c in COLUMNS} if i < len(metrics["episode"]) else None
        ok = (row is not None and row["episode"] == i and _finite(list(row.values())))
        if ok and reference is not None:
            ref = reference["metrics"]
            ok = (all(row[c] == ref[c][i] for c in EXACT)
                  and all(_close(row[c], ref[c][i]) for c in CLOSE))
        if not ok:
            failed.add(i // batch_size)
    if len(metrics["episode"]) != episodes:
        failed |= every_batch

    expected = (reference or {}).get("fisher")
    promised = sorted(fisher) if expected is None else sorted(int(ep) for ep in expected)
    for ep in promised:
        got = fisher.get(ep)
        ok = got is not None and _finite(got) and got["k"] == len(got["eigenvalues"])
        if ok and expected is not None:
            want = expected[str(ep)]
            scale = EIGEN_RTOL * max(abs(v) for v in want["eigenvalues"])
            ok = (got["k"] == want["k"] and _close(got["trace"], want["trace"])
                  and all(abs(a - b) <= scale
                          for a, b in zip(got["eigenvalues"], want["eigenvalues"])))
        if not ok:
            failed.add(max(math.ceil(ep / batch_size) - 1, 0))
    return failed


def golden_reference(root: Path, episodes: int) -> dict:
    """The committed cartpole-quantum seed-0 run, cut to the first `episodes` rows."""
    full = read_metrics(root / "cp_s0" / "metrics.csv")
    return {"metrics": {c: v[:episodes] for c, v in full.items()}}


def recorded_reference(path: Path) -> list[dict]:
    return _read_json(path)["runs"]
