"""Every name a pilab module imports is referenced in that module, and
every name the benchmark's tracer wraps exists."""

import ast
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
