"""The module layering of ``src/fedkit``, read from the source with ``ast``.

Every import sits at module level, relative imports form no cycle, and the
library layers (values, schema, codec, checkpoint file, reports) reach
neither the network nor the runtimes built on them. Nothing is left over:
every private name the package defines is used somewhere in it, and every
name a module imports is used in that module.
"""
import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fedkit"
LIBRARY = ("params", "aggregation", "training", "config", "metrics", "protocol", "checkpoint")
RUNTIMES = {"server", "client", "simulator", "cli"}
NETWORK = {"socket", "selectors"}

MODULES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def imports(tree) -> tuple:
    """(absolute top-level module names, sibling module names) of every
    import in ``tree``, nested ones included."""
    absolute, relative = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            absolute.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            absolute.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            # "from .x import y" depends on x; "from . import x" on x itself.
            relative.update([node.module] if node.module else
                            [alias.name for alias in node.names])
    return absolute, relative


def test_every_import_is_at_module_level():
    nested = []
    for name, tree in MODULES.items():
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                nested += [f"{name}.py:{node.lineno}" for node in ast.walk(scope)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


def test_relative_imports_form_no_cycle():
    graph = {name: imports(tree)[1] for name, tree in MODULES.items()}
    done, path = set(), []

    def visit(name):
        if name in path:
            pytest.fail("import cycle: " + " -> ".join(path[path.index(name):] + [name]))
        if name in done:
            return
        path.append(name)
        for target in sorted(graph.get(name, ())):
            visit(target)
        path.pop()
        done.add(name)

    for name in graph:
        visit(name)


@pytest.mark.parametrize("name", LIBRARY)
def test_library_layer_reaches_no_network_or_runtime(name):
    absolute, relative = imports(MODULES[name])
    assert absolute & NETWORK == set()
    assert relative & RUNTIMES == set()


SOURCE = "\n".join(path.read_text() for path in sorted(PACKAGE.glob("*.py")))


def uses(name: str, text: str) -> int:
    return len(re.findall(rf"\b{re.escape(name)}\b", text))


def private_definitions(tree) -> list:
    """Single-underscore names a module defines: module-level functions,
    classes and assignments, and methods."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_name_is_used():
    unused = [f"{module}.{name}" for module, tree in MODULES.items()
              for name in private_definitions(tree) if uses(name, SOURCE) < 2]
    assert unused == []


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"__init__"}))
def test_every_import_is_used(name):
    """The package's ``__init__`` is left out: its imports are its exports."""
    text = (PACKAGE / f"{name}.py").read_text()
    imported = [(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(MODULES[name]) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    assert [alias for alias in imported if uses(alias, text) < 2] == []
