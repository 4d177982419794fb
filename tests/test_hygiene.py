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


def top_level_functions(source, private=False):
    """Names of a module's public top-level functions, or with `private`
    its private ones."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("_") == private}


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


def uncalled_functions(sources, callers, private=False):
    """`module.name` for each public (or private) top-level function of the
    `sources` (module name -> text) that no text in `callers` references."""
    used = set().union(*(referenced_names(text) for text in callers))
    return {f"{module}.{name}" for module, text in sources.items()
            for name in top_level_functions(text, private) if name not in used}


def test_reference_detection():
    source = ("from .nn import gradient\nimport numpy as np\n"
              "def used():\n    return np.mean(gradient)\n"
              "def unused():\n    return used()\ndef _private():\n    pass\n")
    assert top_level_functions(source) == {"used", "unused"}
    assert top_level_functions(source, private=True) == {"_private"}
    assert {"gradient", "np", "numpy", "mean", "used"} <= referenced_names(source)
    assert "unused" not in referenced_names(source)


def test_private_helper_detection():
    # `_old` is called by no caller; only the tests, which are not callers,
    # would reach it.
    nn = ("def _step(x):\n    return x\ndef _old(n):\n    pass\n"
          "def train(x):\n    return _step(x)\n")
    other = "from . import nn\nnn.train(1)\n"
    assert uncalled_functions({"nn": nn}, [nn, other], private=True) == {"nn._old"}
    assert uncalled_functions({"nn": nn}, [nn, other]) == set()
    assert uncalled_functions({"nn": nn}, [nn, other + "nn._old(2)\n"],
                              private=True) == set()


def sources_and_callers():
    return ({p.stem: p.read_text() for p in SOURCES},
            [p.read_text() for p in CALLERS])


def test_every_public_function_has_a_caller_outside_the_tests():
    # A function only tests call belongs in tests/oracles.py, not in src/.
    assert uncalled_functions(*sources_and_callers()) == set()


def test_every_private_function_has_a_caller_outside_the_tests():
    # The same for private helpers: one left behind for the tests alone is
    # dead code in src/.
    assert uncalled_functions(*sources_and_callers(), private=True) == set()


def is_transpose(node):
    """`<matrix>.T`, or `<matrix>.swapaxes(-1, -2)` for a stack of them."""
    if isinstance(node, ast.Attribute):
        return node.attr == "T"
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "swapaxes" and not node.keywords
            and [ast.unparse(arg) for arg in node.args] == ["-1", "-2"])


def backprop_sites(source):
    """`delta @ <matrix>.T` expressions, stacked or not: one per backprop loop."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                  and isinstance(node.left, ast.Name) and node.left.id == "delta"
                  and is_transpose(node.right))


def test_backprop_site_detection():
    source = ("def f(delta, mat, acts):\n    d = delta @ mat.T\n"
              "    g = acts.T @ delta\n    return delta @ mat[:, 1].T, d, g\n"
              "def h(delta, mat, acts):\n    d = delta @ mat.swapaxes(-1, -2)\n"
              "    g = acts.swapaxes(-1, -2) @ delta\n"
              "    return delta @ mat.swapaxes(0, 1), delta @ mat[0].swapaxes(-1, -2)\n")
    assert backprop_sites(source) == [2, 4, 6, 8]


def test_nn_has_one_backward_pass():
    # A second backprop loop (say, one for a sparse path) must instead be
    # an option of `_backward`.
    source = (ROOT / "src" / "fltop" / "nn.py").read_text()
    assert len(backprop_sites(source)) == 1
