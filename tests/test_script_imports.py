"""Every ``repro`` name the examples and benchmark scripts import exists.

No test runs ``examples/`` or the ``benchmarks/bench_*.py`` scripts, so a
name removed from ``src/`` could leave one of them importing nothing.
This parses each script with :mod:`ast` (it runs none of them) and
resolves every ``from repro… import name`` and ``import repro…`` it
contains, nested imports included.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = sorted(ROOT.glob("examples/*.py")) + sorted(ROOT.glob("benchmarks/bench_*.py"))


def _repro_imports(path: pathlib.Path):
    """``(line, module, name)`` of every repro import; ``name`` is None for
    a plain ``import repro.x``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "repro":
                for alias in node.names:
                    yield node.lineno, node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield node.lineno, alias.name, None


def test_the_scripts_are_found():
    names = {path.name for path in SCRIPTS}
    assert {"quickstart.py", "bench_headline.py"} <= names


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_repro_import_resolves(path):
    missing = []
    for line, module_name, name in _repro_imports(path):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(f"{path.name}:{line}: no module {module_name}")
            continue
        if name is None or name == "*" or hasattr(module, name):
            continue
        try:
            importlib.import_module(f"{module_name}.{name}")
        except ImportError:
            missing.append(f"{path.name}:{line}: {module_name} has no {name}")
    assert not missing, "\n".join(missing)
