"""The module layering of ``src/fedkit``, read from the source with ``ast``.

Every import sits at module level, relative imports form no cycle, and the
library layers (values, schema, codec, checkpoint file, reports) reach
neither the network nor the runtimes built on them.
"""
import ast
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
