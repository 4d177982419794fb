"""Source hygiene checks that need no linter installed."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "fltop").glob("*.py"))
SCANNED = SOURCES + sorted((ROOT / "tests").glob("*.py"))
# The benchmark's own modules count as callers; its tests do not.
CALLERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source):
    """Names a module imports but never references. A module's `__all__`
    entries count as references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_detected():
    source = ("import os\nimport numpy as np\nfrom a.b import c, d as e\n"
              "import x.y\n__all__ = ['c']\nprint(np.pi, x.y)\n")
    assert unused_imports(source) == [(1, "os"), (3, "e")]


def test_no_unused_imports():
    # __init__.py is skipped: its imports are the package's re-exports.
    found = {f"{p.parent.name}/{p.name}": unused_imports(p.read_text())
             for p in SCANNED if p.name != "__init__.py"}
    assert {name: unused for name, unused in found.items() if unused} == {}


def public_functions(source):
    """Names of a module's public top-level functions."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def referenced_names(source):
    """Every name a module reads, reads as an attribute, or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_reference_detection():
    source = ("from .nn import gradient\nimport numpy as np\n"
              "def used():\n    return np.mean(gradient)\n"
              "def unused():\n    return used()\ndef _private():\n    pass\n")
    assert public_functions(source) == {"used", "unused"}
    assert {"gradient", "np", "numpy", "mean", "used"} <= referenced_names(source)
    assert "unused" not in referenced_names(source)


def test_every_public_function_has_a_caller_outside_the_tests():
    # A function only tests call belongs in tests/oracles.py, not in src/.
    used = set().union(*(referenced_names(p.read_text()) for p in CALLERS))
    found = {f"{p.stem}.{name}" for p in SOURCES
             for name in public_functions(p.read_text()) if name not in used}
    assert found == set()


def backprop_sites(source):
    """`delta @ <matrix>.T` expressions: one per backprop loop."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            and isinstance(node.left, ast.Name) and node.left.id == "delta"
            and isinstance(node.right, ast.Attribute) and node.right.attr == "T"]


def test_backprop_site_detection():
    source = ("def f(delta, mat, acts):\n    d = delta @ mat.T\n"
              "    g = acts.T @ delta\n    return delta @ mat[:, 1].T, d, g\n")
    assert backprop_sites(source) == [2, 4]


def test_nn_has_one_backward_pass():
    # A second backprop loop (say, one for a sparse path) must instead be
    # an option of `_backward`.
    source = (ROOT / "src" / "fltop" / "nn.py").read_text()
    assert len(backprop_sites(source)) == 1
