"""Source hygiene checks that need no linter installed."""

import ast
import subprocess
import sys
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


def private_attributes_set(source):
    """(line, name) of each private attribute a module assigns (`run._x = …`)
    or monkeypatches (`monkeypatch.setattr(run, "_x", …)`) on a name it does
    not import: on an object such as a run, not on a module or class."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            found += [(target.value, target.attr) for target in node.targets
                      if isinstance(target, ast.Attribute)]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "setattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            found.append((node.args[0], node.args[1].value))
    return sorted((owner.lineno, name) for owner, name in found
                  if isinstance(owner, ast.Name) and owner.id not in imported
                  and isinstance(name, str) and name.startswith("_")
                  and not name.startswith("__"))


def test_private_attribute_detection():
    source = ("from fltop import nn\nfrom fltop.federation import FederatedRun\n"
              "def test(monkeypatch, run):\n    run._ahead = None\n"
              "    run.codec = None\n    monkeypatch.setattr(run, '_old', 1)\n"
              "    monkeypatch.setattr(nn, '_backward', 2)\n"
              "    monkeypatch.setattr(FederatedRun, '_plan', 3)\n"
              "    run.__dict__ = {}\n    x = run._next\n")
    assert private_attributes_set(source) == [(4, "_ahead"), (6, "_old")]


def test_tests_set_only_private_attributes_the_run_has():
    # A test that sets a run's private attribute which `FederatedRun` no
    # longer has passes without testing anything: the code never reads it.
    run_names = referenced_names((ROOT / "src" / "fltop" / "federation.py").read_text())
    stale = {f"{p.name}:{line}: {name}" for p in sorted((ROOT / "tests").glob("*.py"))
             for line, name in private_attributes_set(p.read_text())
             if name not in run_names}
    assert stale == set()


def private_names_used(source, module):
    """(line, name) of each private name of the sibling module `module` that
    a module reads: `module._x`, or `from .module import _x`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == module):
            found.append((node.lineno, node.attr))
        elif (isinstance(node, ast.ImportFrom) and node.level == 1
              and node.module == module):
            found += [(node.lineno, alias.name) for alias in node.names]
    return sorted((line, name) for line, name in found
                  if name.startswith("_") and not name.startswith("__"))


def test_private_name_detection():
    source = ("from . import nn, privacy\nfrom .nn import _sub_model, gradient\n"
              "a = nn._index_set(1)\nb = nn.layer0_view\nc = nn.__name__\n"
              "d = privacy._noise\nfrom .privacy import _factors\n")
    assert private_names_used(source, "nn") == [(2, "_sub_model"), (3, "_index_set")]
    assert private_names_used(source, "privacy") == [(6, "_noise"), (7, "_factors")]


def test_federation_reads_no_private_nn_name():
    # `nn` alone decides where a layer-0 view pays and what a client's model
    # row holds under one; federation asks it through public names.
    source = (ROOT / "src" / "fltop" / "federation.py").read_text()
    assert private_names_used(source, "nn") == []


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


def methods_reading(source, cls, attr):
    """The methods of class `cls` whose code, nested functions included,
    names the attribute `attr`, `__init__` aside."""
    body = next(node for node in ast.parse(source).body
                if isinstance(node, ast.ClassDef) and node.name == cls).body
    return sorted(f.name for f in body
                  if isinstance(f, ast.FunctionDef) and f.name != "__init__"
                  and any(isinstance(node, ast.Attribute) and node.attr == attr
                          for node in ast.walk(f)))


def test_methods_reading_detection():
    source = ("class Run:\n    def __init__(self):\n        self.on = True\n"
              "    def later(self):\n        return self.on\n"
              "    def plan(self):\n        def draw():\n            return self.on\n"
              "        return draw\n    def other(self):\n        return self.off\n")
    assert methods_reading(source, "Run", "on") == ["later", "plan"]


def test_run_chooses_inline_or_worker_in_one_place():
    # Whether a job runs on the worker or inline is `_later`'s choice
    # alone; no other method branches on it.
    source = (ROOT / "src" / "fltop" / "federation.py").read_text()
    assert methods_reading(source, "FederatedRun", "_on_worker") == ["_later"]


def test_failing_property_test_reports_its_example(tmp_path):
    # Under the repo's pytest settings, where a DeprecationWarning is an
    # error, a failing hypothesis test must still fail as a test, with its
    # falsifying example, rather than abort the run (exit 3) while
    # hypothesis builds its report.
    (tmp_path / "test_failing.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None)\n@given(st.integers())\n"
        "def test_small(n):\n    assert n < 5\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_failing.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
