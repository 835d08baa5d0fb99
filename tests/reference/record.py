"""Record the shot-mode reference runs that `tests/test_golden.py` replays.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 tests/reference/record.py [--check]

Each run goes through `qpolgrad run` in this process, in a temporary
directory, and is written to `tests/reference/shots.json` in the layout of
`perfbench/reference/*.json` (preset, seed, episodes, the exact and close
metric columns and the Fisher spectra), plus the run's extra command-line
arguments. Run it only on a commit whose numerics are accepted as correct,
and record in the change log which commit regenerated the file.

`--check` re-runs the references and writes nothing: it exits 0 when every
number equals `shots.json`, and otherwise exits 1 and names the run and the
first column and episode (or Fisher spectrum) that differ.
"""
from __future__ import annotations

import argparse
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


def first_in(old: list, new: list) -> str | None:
    """The first index at which two lists differ, with both values, or None."""
    for i, (a, b) in enumerate(zip(old, new)):
        if a != b:
            return f"{i}: {a!r} recorded, {b!r} now"
    return None if len(old) == len(new) else f"{len(old)} recorded, {len(new)} now"


def first_difference(recorded: dict, fresh: dict) -> str | None:
    """Where a re-run `fresh` first departs from its `recorded` entry, or None."""
    for name in COLUMNS:
        where = first_in(recorded["metrics"][name], fresh["metrics"][name])
        if where:
            return f"column {name}, episode {where}"
    for label in sorted(set(recorded["fisher"]) | set(fresh["fisher"]), key=int):
        old, new = recorded["fisher"].get(label, {}), fresh["fisher"].get(label, {})
        where = first_in([old.get("trace"), old.get("k")], [new.get("trace"), new.get("k")])
        if where:
            return f"Fisher spectrum {label}, (trace, k) entry {where}"
        where = first_in(old.get("eigenvalues", []), new.get("eigenvalues", []))
        if where:
            return f"Fisher spectrum {label}, eigenvalue {where}"
    if recorded != fresh:
        return "its preset, seed, episodes or arguments"
    return None


def check(path: Path, runs: list[dict]) -> int:
    """0 if `runs` equal the runs recorded in `path`, else 1, naming the first
    difference of each run that differs."""
    recorded = json.loads(path.read_text())["runs"]
    if len(recorded) != len(runs):
        print(f"{path}: {len(recorded)} runs recorded, {len(runs)} now")
        return 1
    status = 0
    for old, new in zip(recorded, runs):
        difference = first_difference(old, json.loads(json.dumps(new)))
        if difference:
            print(f"{new['preset']} seed {new['seed']}: {difference}")
            status = 1
    print(f"{path}: {'differs' if status else 'every number matches'}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record or check the shot references")
    parser.add_argument("--check", action="store_true",
                        help="compare fresh runs with shots.json and write nothing")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        runs = [record_run(*run, Path(tmp) / str(i)) for i, run in enumerate(RUNS)]
    path = HERE / "shots.json"
    if args.check:
        return check(path, runs)
    path.write_text(json.dumps({"workload": "shots", "runs": runs}) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
