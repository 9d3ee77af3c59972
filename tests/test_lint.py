"""Tier-1 enforcement of the library lints.

* no bare ``print`` in library code (CI also runs the script directly);
* no ``scipy`` import in the engine (``repro.nn``) or the compiled
  forward (``repro.compile``): their erf is ``repro.nn.erf``, and scipy
  stays a reference for tests, scripts and evaluation code only.
"""

import ast
import pathlib
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "scripts"))

from check_print import check_tree, main, print_calls  # noqa: E402


class TestNoPrintInLibrary:
    def test_library_code_has_no_bare_print(self):
        violations = check_tree(REPO / "src" / "repro")
        assert violations == [], "\n".join(violations)

    def test_serve_subsystem_has_no_bare_print(self):
        # The serving stack reports through latency histograms and
        # telemetry events; console output belongs to the CLI only.
        violations = check_tree(REPO / "src" / "repro" / "serve")
        assert violations == [], "\n".join(violations)

    def test_obs_subsystem_has_no_bare_print(self):
        # Observability especially: a metrics layer that printed would
        # corrupt the exposition output it exists to produce.
        violations = check_tree(REPO / "src" / "repro" / "obs")
        assert violations == [], "\n".join(violations)

    def test_multiple_roots_deduplicate(self, capsys):
        code = main(["check_print", str(REPO / "src" / "repro"),
                     str(REPO / "src" / "repro" / "serve"),
                     str(REPO / "src" / "repro" / "obs")])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_missing_root_fails(self, capsys):
        code = main(["check_print", str(REPO / "no-such-tree")])
        assert code == 1
        assert "does not exist" in capsys.readouterr().out

    def test_detects_actual_call(self):
        assert print_calls("print('hi')\n") == [1]
        assert print_calls("def f():\n    print(x)\n") == [2]

    def test_ignores_docstrings_and_strings(self):
        # The profiler docstring contains a usage example with print( —
        # an AST walk must not flag text that merely mentions it.
        assert print_calls('"""example:\n    print(table)\n"""\n') == []
        assert print_calls("s = 'print(x)'\n") == []

    def test_ignores_attribute_named_print(self):
        assert print_calls("logger.print('hi')\n") == []


def scipy_imports(source: str) -> list[int]:
    """Line numbers of every ``import scipy...`` / ``from scipy... import``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            lines.append(node.lineno)
    return sorted(lines)


class TestNoScipyInEngine:
    @pytest.mark.parametrize("package", ["nn", "compile"])
    def test_package_does_not_import_scipy(self, package):
        root = REPO / "src" / "repro" / package
        violations = [f"{path}:{line}: scipy import"
                      for path in sorted(root.rglob("*.py"))
                      for line in scipy_imports(path.read_text(encoding="utf-8"))]
        assert violations == [], "\n".join(violations)

    def test_detects_every_import_form(self):
        source = ("import scipy\n"
                  "import numpy, scipy.special as sp\n"
                  "def f():\n    from scipy.special import erf\n"
                  "from scipy import linalg\n")
        assert scipy_imports(source) == [1, 2, 4, 5]

    def test_ignores_lookalikes_and_text(self):
        source = ('"""uses scipy.special.erf as the reference"""\n'
                  "import scipyx\n"
                  "from .scipy import erf\n"
                  "s = 'import scipy'\n")
        assert scipy_imports(source) == []
