"""Record the shot-mode reference runs that `tests/test_golden.py` replays.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 tests/reference/record.py

Each run goes through `qpolgrad run` in this process and is written to
`tests/reference/shots.json` in the layout of `perfbench/reference/*.json`
(preset, seed, episodes, the exact and close metric columns and the Fisher
spectra), plus the run's extra command-line arguments. Run it only on a commit
whose numerics are accepted as correct, and record in the change log which
commit regenerated the file.
"""
from __future__ import annotations

import csv
import json
import sys
import tempfile
from pathlib import Path

from qpolgrad import cli

HERE = Path(__file__).resolve().parent
COLUMNS = ("total_reward", "discounted_return", "beta", "grad_norm")
RUNS = (
    ("cartpole-quantum", 0, 20, ["--shots", "50", "--fisher"]),
    ("qcontrol-quantum", 0, 23, ["--batch-size", "4", "--shots", "50", "--fisher"]),
)


def _column(path: Path, name: str) -> list[float]:
    with open(path, newline="") as fh:
        return [float(row[name]) for row in csv.DictReader(fh)]


def record_run(preset: str, seed: int, episodes: int, args: list[str], out: Path) -> dict:
    argv = ["run", "--preset", preset, "--seed", str(seed), "--episodes", str(episodes),
            "--out", str(out), *args]
    if cli.main(argv) != 0:
        raise RuntimeError(f"qpolgrad {' '.join(argv)} failed")
    fisher = {}
    for info_path in sorted(out.glob("fisher_ck_*.json"), key=lambda p: int(p.stem[10:])):
        info = json.loads(info_path.read_text())
        fisher[info_path.stem[10:]] = {
            "trace": info["trace"], "k": info["k"],
            "eigenvalues": _column(info_path.with_suffix(".csv"), "eigenvalue")}
    return {"preset": preset, "seed": seed, "episodes": episodes, "args": args,
            "metrics": {c: _column(out / "metrics.csv", c) for c in COLUMNS},
            "fisher": fisher}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        runs = [record_run(*run, Path(tmp) / str(i)) for i, run in enumerate(RUNS)]
    path = HERE / "shots.json"
    path.write_text(json.dumps({"workload": "shots", "runs": runs}) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
