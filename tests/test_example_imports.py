"""Examples, benchmarks and CI scripts import only names that exist.

Walks the AST of ``examples/*.py``, ``benchmarks/**/*.py`` and every
``python - <<'EOF'`` block of ``.github/workflows/ci.yml`` without
running anything, and resolves every ``import repro…`` and
``from repro… import name`` through :mod:`importlib`.  A deleted or
renamed library name then fails here instead of stranding a script that
tier-1 never executes.
"""

from __future__ import annotations

import ast
import importlib
import pathlib
import textwrap

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted([*REPO.glob("examples/*.py"), *REPO.glob("benchmarks/**/*.py")])
CI = REPO / ".github" / "workflows" / "ci.yml"
HEREDOC = "python - <<'EOF'"


def heredocs(text: str) -> list[tuple[int, str]]:
    """``(line, source)`` of every ``python - <<'EOF'`` block in a
    workflow file; ``line`` is the block's first source line."""
    lines = text.splitlines()
    blocks = []
    for number, line in enumerate(lines):
        if line.rstrip().endswith(HEREDOC):
            end = next(i for i in range(number + 1, len(lines))
                       if lines[i].strip() == "EOF")
            blocks.append((number + 2, textwrap.dedent(
                "\n".join(lines[number + 1:end]))))
    return blocks


CI_BLOCKS = heredocs(CI.read_text())


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


def test_every_ci_heredoc_was_found():
    assert len(CI_BLOCKS) == CI.read_text().count(HEREDOC) > 0


@pytest.mark.parametrize("line, source", CI_BLOCKS,
                         ids=[f"ci.yml:{line}" for line, __ in CI_BLOCKS])
def test_ci_heredoc_imports_resolve(line, source):
    imports = repro_imports(ast.parse(source, filename=f"ci.yml:{line}"))
    assert unresolved(imports) == []


def test_guard_detects_missing_names():
    tree = ast.parse("from repro.core import run_pretrain, no_such_name\n"
                     "from repro.serve import ServingGateway\n"
                     "import repro.no_such_module\n")
    assert unresolved(repro_imports(tree)) == [
        "line 1: repro.core.no_such_name",
        "line 3: repro.no_such_module (No module named "
        "'repro.no_such_module')"]
