"""Every name a pilab module imports is referenced in that module, every
private helper pilab defines has a caller, and every name the benchmark's
tracer wraps exists."""

import ast
import collections
import importlib
import importlib.util
import inspect
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pilab"


def unused_imports(source):
    """Imported names the source never references, in import order.

    `from __future__` imports and names on a line marked `# noqa: F401`
    are exempt.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_finds_and_exempts():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "import scipy.sparse\n"
        "from math import (\n"
        "    inf,\n"
        "    pi,  # noqa: F401\n"
        ")\n"
        "x = np.zeros(3) + scipy.sparse.eye(3)\n"
    )
    assert unused_imports(source) == ["os", "inf"]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def uncalled_private_defs(sources):
    """`_name` functions and classes defined in the module texts `sources`
    that no name, attribute or import in them references outside the
    definition itself.  Dunder methods are exempt."""
    trees = [ast.parse(source) for source in sources]

    def refs(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.alias):
                yield sub.name

    total = collections.Counter(name for tree in trees for name in refs(tree))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, defs)
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and total[node.name] == sum(name == node.name for name in refs(node))
    ]


def test_uncalled_private_defs_finds_and_exempts():
    helpers = (
        "def _used():\n    return 1\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "class _Box:\n    def __len__(self):\n        return _used()\n"
        "    def _method(self):\n        return 0\n"
    )
    caller = "from helpers import _Box\nbox = _Box()\nbox._method()\n"
    assert uncalled_private_defs([helpers, caller]) == ["_recursive"]
    assert uncalled_private_defs([helpers]) == ["_recursive", "_Box", "_method"]


def test_every_private_helper_has_a_caller():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert uncalled_private_defs(sources) == []


def test_tracer_targets_resolve():
    # The tracer skips a target it cannot find, and that layer's metric
    # then reads 0: a renamed function must fail here instead.  It counts
    # swept functions from each check's `family` argument.
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr, name in tracer.TARGETS:
        fn = getattr(importlib.import_module(module), attr, None)
        assert callable(fn), f"{module}.{attr}"
        if name == "verify.check":
            assert "family" in inspect.signature(fn).parameters, f"{module}.{attr}"
    module, cls, attr, _ = tracer.DIST_TARGET
    assert callable(getattr(getattr(importlib.import_module(module), cls), attr, None))
