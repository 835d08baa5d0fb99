"""Record the reference outputs that timed repetitions are checked against.

Usage, from the root of a checkout:

    python3 perfbench/record_reference.py [WORKLOAD ...]

Run it only on a commit whose numerics are accepted as correct, and record in
the change log which commit and command regenerated the files. cartpole-quantum
needs no file: it is checked against the committed cp_s0 run.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import gate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def record(name: str, root: Path) -> Path:
    workload = WORKLOADS[name]
    runs = []
    for run in workload.runs:
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            out = Path(tmp) / "run"
            subprocess.run(
                [sys.executable, "-m", "qpolgrad", *run.argv(run.seed), "--out", str(out)],
                cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")}, check=True,
                stdout=subprocess.DEVNULL)
            metrics = gate.read_metrics(out / "metrics.csv")
            manifest = json.loads((out / "manifest.json").read_text())
            fisher = {str(ep): gate.read_fisher(out, ep) for ep in gate.fisher_episodes(manifest)}
        entry = {"preset": run.preset, "seed": run.seed, "episodes": run.episodes,
                 "metrics": {c: metrics[c] for c in gate.EXACT + gate.CLOSE}}
        if fisher:
            entry["fisher"] = fisher
        runs.append(entry)
    path = HERE / "reference" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"workload": name, "runs": runs}) + "\n")
    return path


def main(argv: list[str]) -> int:
    names = argv or [n for n in WORKLOADS if n != "cartpole-quantum"]
    for name in names:
        print(record(name, Path.cwd()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
