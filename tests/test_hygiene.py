"""Source hygiene checks that need no linter installed."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted((ROOT / "src" / "fltop").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


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
