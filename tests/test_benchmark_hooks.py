"""The benchmark's layer hooks still reach the code they time.

`perfbench/child.py` times layers by wrapping named functions, and a hook
whose target is gone is only reported as absent: its metric then reads
nothing. Two short runs under those hooks show which hooks lost their
target, whether every counter still reads its call's result, and whether
every hook that resolves is called. The benchmark's parent and child also
import and patch package names directly, and a name moved out of its module
would break them; every such name must still resolve. This reads perfbench
and changes nothing in it.
"""
import ast
import importlib
import sys
from pathlib import Path

import pytest

from qpolgrad import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import child  # noqa: E402
from tracer import Tracer, install  # noqa: E402

# hooks whose targets are gone from `qpolgrad`; the benchmark reports them as
# absent
KNOWN_ABSENT = {"envs.step", "qsim.evolve_hamiltonian", "reinforce.rollout"}


def test_benchmark_hooks_reach_the_code_they_time(tmp_path, capsys):
    tracer = Tracer(child.PHASES)
    absent, restore = install(child.HOOKS, tracer)
    try:
        for name, episodes in (("qcontrol-quantum", "4"), ("cartpole-classical", "2")):
            assert cli.main(["run", "--preset", name, "--episodes", episodes, "--fisher",
                             "--seed", "0", "--out", str(tmp_path / name)]) == 0
    finally:
        restore()
    assert set(absent) <= KNOWN_ABSENT
    assert not tracer.count_errors
    called = {name for name, _ in tracer.stats}
    assert called == {hook.name for hook in child.HOOKS} - set(absent)


def qpolgrad_names(source: str) -> set[str]:
    """Dotted `qpolgrad` names a file imports, anywhere in it, and the
    attributes it reads or sets on a `qpolgrad` module it imported."""
    tree = ast.parse(source)
    names, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qpolgrad":
            for alias in node.names:
                names.add(f"{node.module}.{alias.name}")
                modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "qpolgrad":
                    names.add(alias.name)
                    modules[alias.asname or "qpolgrad"] = alias.name if alias.asname else "qpolgrad"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add(f"{modules[node.value.id]}.{node.attr}")
    return names


def resolve(dotted: str):
    """The object `dotted` names, importing each submodule on the way."""
    parts = dotted.split(".")
    found = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        try:
            found = getattr(found, part)
        except AttributeError:
            found = importlib.import_module(".".join(parts[:i]))
    return found


def test_qpolgrad_names_are_found():
    source = ("import qpolgrad.cli as c\nfrom qpolgrad import cli\ncli.main\nc.run = 1\n"
              "def f():\n    from qpolgrad.cli import running_mean\n")
    assert qpolgrad_names(source) == {"qpolgrad.cli", "qpolgrad.cli.main", "qpolgrad.cli.run",
                                      "qpolgrad.cli.running_mean"}


@pytest.mark.parametrize("script", ["run.py", "child.py"])
def test_every_package_name_perfbench_uses_resolves(script):
    names = qpolgrad_names((PERFBENCH / script).read_text())
    assert names >= {"run.py": {"qpolgrad.cli.running_mean"},
                     "child.py": {"qpolgrad.cli.main", "qpolgrad.reinforce.train",
                                  "qpolgrad.reinforce.collect_batch"}}[script]
    unresolved = []
    for name in sorted(names):
        try:
            resolve(name)
        except (ImportError, AttributeError):
            unresolved.append(name)
    assert unresolved == []
