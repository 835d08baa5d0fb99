"""Import hygiene: every top-level import in the package is used, and
importing the command line loads no module that only `qpolgrad plot` needs."""
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


def test_importing_the_cli_leaves_plot_modules_unloaded():
    # html (and its html.entities table, 0.35 MB of Python objects) only
    # escapes the SVG chart's labels; `qpolgrad run` imports this module.
    code = "import sys, qpolgrad.cli; print(' '.join(m for m in sys.modules if m.startswith('html')))"
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
