"""Import hygiene: every top-level import in the package is used, the
training loop imports no policy module, and `qpolgrad run` loads no module
that only another subcommand needs."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qpolgrad

PACKAGE = Path(qpolgrad.__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """Names bound by a module's top-level imports (not `__future__`) that
    no name in the module reads and `__all__` does not export."""
    tree = ast.parse(source)
    imported, exported = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            exported |= {element.value for element in node.value.elts}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read - exported)


def test_unused_imports_are_found():
    source = "import math\nimport os.path\nfrom json import dumps as d, loads\nos.sep\nloads\n"
    assert unused_imports(source) == ["d", "math"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


def package_imports(source: str) -> set[str]:
    """The `qpolgrad` modules that a module's imports name anywhere in its
    source: `from . import a` and `import qpolgrad.a` name a, and so does
    `from .a import b`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".", "qpolgrad"):
                names |= {f"qpolgrad.{alias.name}" for alias in node.names}
            else:
                names.add(module)
    return {name.removeprefix("qpolgrad.").removeprefix(".") for name in names
            if name.startswith(("qpolgrad.", "."))}


def test_package_imports_are_found():
    source = ("from . import a, b as c\nfrom .d import e\nimport qpolgrad.f\nimport numpy\n"
              "from qpolgrad import g\nfrom qpolgrad.h import i\nfrom json import j\n"
              "def f():\n    from .k import m\n")
    assert package_imports(source) == {"a", "b", "d", "f", "g", "h", "k"}


def test_the_training_loop_imports_no_policy_and_config_no_training_loop():
    # `config` builds the policy a run trains; `reinforce` trains any policy
    # that keeps the contract in its docstring.
    reinforce = package_imports((PACKAGE / "reinforce.py").read_text())
    assert reinforce & {"classical", "vqpolicy"} == set()
    assert "reinforce" not in package_imports((PACKAGE / "config.py").read_text())


def loaded_modules(code: str, prefix: str) -> list[str]:
    """Modules named `prefix`... that a fresh interpreter holds after `code`."""
    code += f"\nimport sys; print(' '.join(m for m in sys.modules if m.startswith({prefix!r})))"
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_importing_the_cli_leaves_plot_modules_unloaded():
    # html (and its html.entities table, 0.35 MB of Python objects) only
    # escapes the SVG chart's labels; `qpolgrad run` imports this module.
    assert loaded_modules("import qpolgrad.cli", "html") == []


def test_importing_the_cli_leaves_analysis_and_tools_unloaded():
    # Without bytecode caches every module a run imports is compiled from
    # source, and the compiler's memory counts in the run's peak.
    loaded = loaded_modules("import qpolgrad.cli", "qpolgrad.")
    assert "qpolgrad.analysis" not in loaded and "qpolgrad.tools" not in loaded


@pytest.mark.parametrize("fisher", [False, True], ids=["plain", "fisher"])
def test_a_run_loads_analysis_only_for_fisher_spectra(tmp_path, fisher):
    argv = ["run", "--preset", "cartpole-quantum", "--episodes", "1", "--seed", "0",
            "--out", str(tmp_path / "run")] + (["--fisher"] if fisher else [])
    loaded = loaded_modules(f"from qpolgrad import cli\nassert cli.main({argv!r}) == 0",
                            "qpolgrad.")
    assert ("qpolgrad.analysis" in loaded) == fisher
    assert "qpolgrad.tools" not in loaded


@pytest.mark.parametrize("command", [[], ["run"], ["plot"], ["compare"], ["bounds"], ["fisher"],
                                     ["validate-hoeffding"]],
                         ids=lambda command: " ".join(command) or "qpolgrad")
def test_every_help_exits_zero(command):
    proc = subprocess.run([sys.executable, "-m", "qpolgrad", *command, "--help"],
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: qpolgrad")
