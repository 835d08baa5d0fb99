"""Record the shot-mode reference runs that `tests/test_golden.py` replays, or
check every committed reference run against a fresh one.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 tests/reference/record.py [--check]

Each run goes through `qpolgrad run` in this process, in a temporary
directory, and is written to `tests/reference/shots.json` in the layout of
`perfbench/reference/*.json` (preset, seed, episodes, the exact and close
metric columns and the Fisher spectra), plus the run's extra command-line
arguments. Run it only on a commit whose numerics are accepted as correct,
and record in the change log which commit regenerated the file.

`--check` writes nothing but its temporary run directory. It replays every
committed reference: the shot runs of `shots.json`, the `cp_s0/` run
(cartpole-quantum, seed 0, 1000 episodes, as its manifest says) and each run
of `perfbench/reference/*.json`. For every run and metric column it prints
the largest absolute and relative deviation and the first episode that
differs, and for every Fisher checkpoint the largest eigenvalue deviation
divided by the largest reference eigenvalue. It exits 1 when any number
breaks its run's rule, else 0. `shots.json`, which this script records, must
match exactly; the other references follow the golden rule of
`tests/test_golden.py` and `perfbench/gate.py`: `total_reward` and
`discounted_return` exactly, `beta`, `grad_norm` and a spectrum's trace
within abs 1e-9 + rel 1e-9, a spectrum's size exactly and its eigenvalues
within 1e-9 of the largest.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
import tempfile
from pathlib import Path

from qpolgrad import cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SHOTS = HERE / "shots.json"
COLUMNS = ("total_reward", "discounted_return", "beta", "grad_norm")
EXACT = ("total_reward", "discounted_return")
TOL = 1e-9
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
    with contextlib.redirect_stdout(sys.stderr):  # the run prints its directory
        status = cli.main(argv)
    if status != 0:
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


def references() -> list[tuple[str, dict, bool]]:
    """Every committed reference run as (source, entry with its `args`,
    whether it must match exactly), in a fixed order."""
    refs = [("tests/reference/shots.json", run, True)
            for run in json.loads(SHOTS.read_text())["runs"]]
    config = json.loads((ROOT / "cp_s0" / "manifest.json").read_text())["config"]
    refs.append(("cp_s0", {
        "preset": config["name"], "seed": config["seed"], "episodes": config["episodes"],
        "args": ["--fisher"] if config["fisher_checkpoints"] else [],
        "metrics": {c: _column(ROOT / "cp_s0" / "metrics.csv", c) for c in COLUMNS},
        "fisher": {}}, False))
    for path in sorted((ROOT / "perfbench" / "reference").glob("*.json")):
        for run in json.loads(path.read_text())["runs"]:
            refs.append((path.relative_to(ROOT).as_posix(),
                         {"args": ["--fisher"] if "fisher" in run else [], "fisher": {}, **run},
                         False))
    return refs


def deviations(old: list[float], new: list[float]) -> tuple[float, float, int | None]:
    """The largest absolute and relative deviation of `new` from `old`, and
    the first index at which they differ (None if none); lists of different
    lengths deviate without bound from the shorter one's end."""
    worst_abs = worst_rel = 0.0
    first = None
    for i, (a, b) in enumerate(zip(old, new)):
        if a != b:
            first = i if first is None else first
            worst_abs = max(worst_abs, abs(b - a))
            worst_rel = max(worst_rel, abs(b - a) / abs(a) if a else float("inf"))
    if len(old) != len(new):
        first = min(len(old), len(new)) if first is None else first
        worst_abs = worst_rel = float("inf")
    return worst_abs, worst_rel, first


def within(old: list[float], new: list[float], tol: float) -> bool:
    """Every entry within abs `tol` + rel `tol`, and as many entries."""
    return len(old) == len(new) and all(abs(b - a) <= tol + tol * abs(a)
                                        for a, b in zip(old, new))


def compare(recorded: dict, fresh: dict, exact: bool) -> tuple[list[str], bool]:
    """Report lines of a fresh run against its recorded entry, and whether it
    keeps the rule: the golden rule, or with `exact` every recorded field."""
    lines, ok = [], True
    for name in COLUMNS:
        old, new = recorded["metrics"][name], fresh["metrics"][name]
        worst_abs, worst_rel, first = deviations(old, new)
        ok &= old == new if name in EXACT else within(old, new, TOL)
        lines.append(f"  {name:<17} max abs {worst_abs:.2g}, max rel {worst_rel:.2g}, "
                     f"first differing episode {'none' if first is None else first}")
    for label in sorted(set(recorded["fisher"]) | set(fresh["fisher"]), key=int):
        old, new = recorded["fisher"].get(label), fresh["fisher"].get(label)
        if old is None or new is None:
            lines.append(f"  Fisher {label}: {'recorded' if new is None else 'fresh'} only")
            ok = False
            continue
        largest = max(abs(v) for v in old["eigenvalues"])
        worst_abs, _, _ = deviations(old["eigenvalues"], new["eigenvalues"])
        trace_abs, _, _ = deviations([old["trace"]], [new["trace"]])
        ok &= (old["k"] == new["k"] == len(new["eigenvalues"])
               and within([old["trace"]], [new["trace"]], TOL) and worst_abs <= TOL * largest)
        lines.append(f"  Fisher {label}: k {old['k']} recorded, {new['k']} now; largest "
                     f"eigenvalue deviation / largest eigenvalue {worst_abs / largest:.2g}; "
                     f"trace max abs {trace_abs:.2g}")
    return lines, ok and (recorded == fresh or not exact)


def check() -> int:
    """Replay every reference, print the report, and return 0 if every number
    keeps its rule, else 1."""
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (source, ref, exact) in enumerate(references()):
            fresh = record_run(ref["preset"], ref["seed"], ref["episodes"], ref["args"],
                               Path(tmp) / str(i))
            lines, ok = compare(ref, json.loads(json.dumps(fresh)), exact)
            rule = "exact" if exact else "golden rule"
            print(f"{source}: {ref['preset']} seed {ref['seed']}, {ref['episodes']} episodes "
                  f"{' '.join(ref['args'])} ({rule}): {'keeps' if ok else 'BREAKS'} the rule")
            print("\n".join(lines))
            status |= not ok
    print("every reference keeps its rule" if not status else "a reference breaks its rule")
    return int(status)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record the shot references, or check "
                                                 "every committed reference")
    parser.add_argument("--check", action="store_true",
                        help="compare fresh runs with every committed reference and "
                             "write nothing")
    args = parser.parse_args(argv)
    if args.check:
        return check()
    with tempfile.TemporaryDirectory() as tmp:
        runs = [record_run(*run, Path(tmp) / str(i)) for i, run in enumerate(RUNS)]
    SHOTS.write_text(json.dumps({"workload": "shots", "runs": runs}) + "\n")
    print(SHOTS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
