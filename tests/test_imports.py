"""Every name a pilab module imports is referenced in that module, every
private helper pilab defines has a caller, every public function and class
is reached from the package, the demos or the benchmark, only `verify` draws
random numbers, only `verify.Profile` reads truncated distance rows, and
every name the benchmark's tracer wraps exists."""

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


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def refs(node):
    """Every name, attribute, imported name and string constant (the name
    `getattr` would read) under the AST node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def uncalled_private_defs(sources):
    """`_name` functions and classes defined in the module texts `sources`
    that no name, attribute, import or string in them references outside
    the definition itself.  Dunder methods are exempt."""
    trees = [ast.parse(source) for source in sources]
    total = collections.Counter(name for tree in trees for name in refs(tree))
    return [
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, DEFS)
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


def unreached_public_defs(modules, readers, kept=()):
    """Public module-level functions and classes of the module texts
    `modules` that no reader reaches.

    A name is reached when it is in `kept`, is referenced in a `readers`
    text or in a top-level statement of a module other than an import, or
    is referenced in the body of a definition that is itself reached; so a
    function whose only callers are unreached is unreached too.
    """
    bodies = collections.defaultdict(list)
    todo = list(kept) + [name for source in readers for name in refs(ast.parse(source))]
    for source in modules:
        for node in ast.parse(source).body:
            if isinstance(node, DEFS):
                bodies[node.name].append(node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                todo.extend(refs(node))
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(ref for node in bodies.get(name, ()) for ref in refs(node))
    return [name for name in bodies if not name.startswith("_") and name not in reached]


def test_unreached_public_defs_finds_and_exempts():
    module = (
        "import os\n"
        "def kept():\n    return helper()\n"
        "def helper():\n    return 1\n"
        "def dead():\n    return chained()\n"
        "def chained():\n    return dead()\n"
        "def os_only():\n    return 0\n"
        "def run():\n    return 2\n"
        "if __name__ == '__main__':\n    run()\n"
    )
    reader = "from module import kept\nkept()\n"
    assert unreached_public_defs([module], [reader]) == ["dead", "chained", "os_only"]
    assert unreached_public_defs([module], [], kept=["dead"]) == ["kept", "helper", "os_only"]
    assert unreached_public_defs([module], ["getattr(module, 'os_only')"]) == [
        "kept", "helper", "dead", "chained",
    ]


# Library API kept on purpose although only the tests call it, and what it
# reaches: the energy that `lip` measures, the Hardy–Littlewood maximal
# function beside the Riesz potential, the equality of two spaces that a
# save/load round trip keeps, and the paper's RCA scale factor (raising
# EtaNotAboveP), whose value the acceptance constants pin.
PUBLIC_API = ["cheeger_energy", "maximal_function", "spaces_equal", "rca_kappa"]


def test_every_public_def_is_reached_outside_the_tests():
    # pilab/__init__.py only re-exports, so it reaches nothing
    modules = [p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    readers = [p.read_text() for d in ("demos", "perfbench") for p in sorted((ROOT / d).glob("*.py"))]
    assert unreached_public_defs(modules, readers, kept=PUBLIC_API) == []


def private_imports(source):
    """The `_`-prefixed names a module text imports from a sibling module,
    each as (sibling, name)."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_private_imports_finds_and_exempts():
    source = "from . import _mod\nfrom .space import _rows, rows\nfrom numpy import _c\n"
    assert private_imports(source) == [(None, "_mod"), ("space", "_rows")]


# Private names one pilab module imports from another, kept on purpose, by
# importing module: riesz chains balls with the C1 that constants assembles
# for the local Sobolev constant.
PRIVATE_IMPORTS = {"riesz": [("constants", "_chain_C1")]}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_import_across_modules(path):
    assert private_imports(path.read_text()) == PRIVATE_IMPORTS.get(path.stem, [])


def random_draws(source):
    """Lines of a module text that reach `np.random` or `numpy.random`, or
    import from `numpy.random`."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
        or isinstance(node, ast.ImportFrom)
        and (node.module or "").startswith("numpy.random")
    )


def test_random_draws_finds_and_exempts():
    source = (
        "import numpy as np\n"
        "from numpy.random import default_rng\n"
        "rng = np.random.default_rng(0)\n"
        "x = rng.random()\n"
        "y = numpy.random.rand()\n"
        "z = np.linalg.norm\n"
    )
    assert random_draws(source) == [2, 3, 5]


# The family's seeded draws are pilab's only randomness, so no other result
# depends on a hidden seed.
@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.stem != "verify"), ids=lambda p: p.name
)
def test_no_random_draws_outside_verify(path):
    assert random_draws(path.read_text()) == []


def truncated_row_reads(source):
    """(class, line) of every `dist_from` call in a module text that passes a
    `limit`, by keyword or as a second argument; the class is the top-level
    class the call sits in, "" when none."""
    return [
        (top.name if isinstance(top, ast.ClassDef) else "", node.lineno)
        for top in ast.parse(source).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "dist_from"
        and (len(node.args) > 1 or any(k.arg == "limit" for k in node.keywords))
    ]


def test_truncated_row_reads_finds_and_exempts():
    source = (
        "class Profile:\n    def rows(self):\n        return self.space.dist_from(0, limit=2.0)\n"
        "def full(sp):\n    return sp.dist_from(0)\n"
        "def cut(sp):\n    return sp.dist_from(0, 2.0)\n"
    )
    assert truncated_row_reads(source) == [("Profile", 3), ("", 7)]


# The profile grid decides how far a truncated row reaches, so the Profile
# that owns the grid is the only reader of such rows.
def test_only_the_profile_reads_truncated_rows():
    reads = [
        (path.stem, cls)
        for path in sorted(SRC.glob("*.py"))
        for cls, _ in truncated_row_reads(path.read_text())
    ]
    assert reads == [("verify", "Profile")]


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
