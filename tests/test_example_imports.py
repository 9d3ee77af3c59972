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
import re
import textwrap

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted([*REPO.glob("examples/*.py"), *REPO.glob("benchmarks/**/*.py")])
CI = REPO / ".github" / "workflows" / "ci.yml"
HEREDOC = "python - <<'EOF'"


def _slug(name: str) -> str:
    """The first four words of a step name, lower case, joined by ``-``
    (short enough that a ``-2`` suffix survives in test reports)."""
    return "-".join(re.findall(r"[a-z0-9]+", name.lower())[:4])


def heredocs(text: str) -> list[tuple[str, str]]:
    """``(id, source)`` of every ``python - <<'EOF'`` block in a
    workflow file.  ``id`` is ``job/step``, from the job key and the
    enclosing step's ``name`` (see :func:`_slug`), with ``-2``, ``-3``...
    on later blocks of the same step, so adding a line to the file
    renames no case."""
    lines = text.splitlines()
    blocks = []
    job = step = ""
    for number, line in enumerate(lines):
        if re.fullmatch(r"  [\w-]+:", line):
            job = line.strip()[:-1]
        elif line.lstrip().startswith("- name:"):
            step = _slug(line.split(":", 1)[1])
        elif line.rstrip().endswith(HEREDOC):
            end = next(i for i in range(number + 1, len(lines))
                       if lines[i].strip() == "EOF")
            blocks.append((f"{job}/{step}", textwrap.dedent(
                "\n".join(lines[number + 1:end]))))
    seen: dict[str, int] = {}
    named = []
    for name, source in blocks:
        seen[name] = seen.get(name, 0) + 1
        named.append((name if seen[name] == 1 else f"{name}-{seen[name]}",
                      source))
    return named


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


def test_ci_heredoc_ids_are_unique_and_line_free():
    ids = [name for name, __ in CI_BLOCKS]
    assert len(set(ids)) == len(ids)
    text = CI.read_text()
    shifted = text.replace("jobs:\n", "jobs:\n# a line above every block\n", 1)
    assert [name for name, __ in heredocs(shifted)] == ids
    assert heredocs("jobs:\n  a:\n    steps:\n      - name: Smoke `x` -> y\n"
                    f"        run: |\n          {HEREDOC}\n          pass\n"
                    f"          EOF\n          {HEREDOC}\n          pass\n"
                    "          EOF\n") == [("a/smoke-x-y", "pass"),
                                           ("a/smoke-x-y-2", "pass")]


@pytest.mark.parametrize("name, source", CI_BLOCKS,
                         ids=[name for name, __ in CI_BLOCKS])
def test_ci_heredoc_imports_resolve(name, source):
    imports = repro_imports(ast.parse(source, filename=f"ci.yml:{name}"))
    assert unresolved(imports) == []


def test_guard_detects_missing_names():
    tree = ast.parse("from repro.core import run_pretrain, no_such_name\n"
                     "from repro.serve import ServingGateway\n"
                     "import repro.no_such_module\n")
    assert unresolved(repro_imports(tree)) == [
        "line 1: repro.core.no_such_name",
        "line 3: repro.no_such_module (No module named "
        "'repro.no_such_module')"]
