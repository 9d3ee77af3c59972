"""Tier-1 enforcement of the library lints.

* no bare ``print`` in library code (CI also runs the script directly);
* no ``scipy`` import in the engine (``repro.nn``) or the compiled
  forward (``repro.compile``): their erf is ``repro.nn.erf``, and scipy
  stays a reference for tests, scripts and evaluation code only;
* no training step in ``repro.distributed``: its ranks run the one
  pre-training loop of ``repro.core.pretrain``, so no module there may
  call ``.backward(`` or ``.pretraining_losses(``;
* one training loop in ``repro``: ``.backward(`` is called once in the
  loop's module (``core/pretrain.py``, which every method trains
  through) and once in the softmax probe
  (``evaluation/classification.py``, full-batch with best-on-val
  selection), and nowhere else.
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


TRAINING_STEP_CALLS = ("backward", "pretraining_losses")

# The only modules of ``repro`` that run backward, once each.
BACKWARD_CALLS = {"core/pretrain.py": 1, "evaluation/classification.py": 1}


def training_step_calls(source: str,
                        names: tuple[str, ...] = TRAINING_STEP_CALLS
                        ) -> list[int]:
    """Line numbers of every ``<expr>.<name>(...)`` call, by default
    ``.backward(`` and ``.pretraining_losses(``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in names)


class TestNoTrainingStepInDistributed:
    def test_distributed_does_not_run_a_training_step(self):
        root = REPO / "src" / "repro" / "distributed"
        violations = [f"{path}:{line}: training-step call"
                      for path in sorted(root.rglob("*.py"))
                      for line in training_step_calls(
                          path.read_text(encoding="utf-8"))]
        assert violations == [], "\n".join(violations)

    def test_detects_both_calls(self):
        source = ("losses = model.pretraining_losses(x)\n"
                  "losses['total'].backward()\n"
                  "def f(self):\n    self.model.pretraining_losses(x).backward()\n")
        assert training_step_calls(source) == [1, 2, 4, 4]

    def test_ignores_names_and_text(self):
        source = ('"""calls .backward( on the loss"""\n'
                  "backward(x)\n"
                  "fn = model.pretraining_losses\n"
                  "s = 'x.backward()'\n")
        assert training_step_calls(source) == []


class TestOneTrainingLoop:
    def test_backward_only_in_the_loop_and_the_softmax_probe(self):
        root = REPO / "src" / "repro"
        calls = {}
        for path in sorted(root.rglob("*.py")):
            lines = training_step_calls(path.read_text(encoding="utf-8"),
                                        ("backward",))
            if lines:
                calls[path.relative_to(root).as_posix()] = len(lines)
        assert calls == BACKWARD_CALLS
