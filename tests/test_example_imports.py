"""Examples and benchmarks import only names that exist.

Walks the AST of ``examples/*.py`` and ``benchmarks/**/*.py`` without
running anything, and resolves every ``import repro…`` and
``from repro… import name`` through :mod:`importlib`.  A deleted or
renamed library name then fails here instead of stranding a script that
tier-1 never executes.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted([*REPO.glob("examples/*.py"), *REPO.glob("benchmarks/**/*.py")])


def repro_imports(tree: ast.Module) -> list[tuple[int, str, str | None]]:
    """``(line, module, name)`` of every absolute import from ``repro``;
    ``name`` is ``None`` for a plain ``import repro.x``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name, None) for alias in node.names
                      if alias.name.split(".")[0] == "repro"]
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and node.module.split(".")[0] == "repro"):
            found += [(node.lineno, node.module, alias.name)
                      for alias in node.names]
    return found


def unresolved(imports) -> list[str]:
    missing = []
    for line, module_name, name in imports:
        try:
            module = importlib.import_module(module_name)
        except ImportError as error:
            missing.append(f"line {line}: {module_name} ({error})")
            continue
        if name is None or name == "*" or hasattr(module, name):
            continue
        try:
            importlib.import_module(f"{module_name}.{name}")
        except ImportError:
            missing.append(f"line {line}: {module_name}.{name}")
    return missing


def test_scripts_were_found():
    names = {path.name for path in SCRIPTS}
    assert {"quickstart.py", "test_perf_serve.py", "bench.py"} <= names


@pytest.mark.parametrize("path", SCRIPTS,
                         ids=[str(p.relative_to(REPO)) for p in SCRIPTS])
def test_repro_imports_resolve(path):
    imports = repro_imports(ast.parse(path.read_text(), filename=str(path)))
    assert unresolved(imports) == []


def test_guard_detects_missing_names():
    tree = ast.parse("from repro.core import run_pretrain, no_such_name\n"
                     "from repro.serve import ServingGateway\n"
                     "import repro.no_such_module\n")
    assert unresolved(repro_imports(tree)) == [
        "line 1: repro.core.no_such_name",
        "line 3: repro.no_such_module (No module named "
        "'repro.no_such_module')"]
