"""The modules of petrialign import one another at their top only, and no
chain of those imports leads back to the module it starts from."""

import ast
from pathlib import Path

import petrialign

PACKAGE = Path(petrialign.__file__).parent


def _imports(tree):
    """(import node, module of the package it reads) for each intra-package
    import anywhere in `tree`; `from . import errors` reads errors."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for name in ([node.module] if node.module else [a.name for a in node.names]):
                yield node, name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("petrialign."):
            yield node, node.module.split(".")[1]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("petrialign."):
                    yield node, a.name.split(".")[1]


def _header(tree):
    """The module's leading statements: its docstring, then its imports."""
    head = []
    for i, node in enumerate(tree.body):
        docstring = i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        if not (docstring or isinstance(node, (ast.Import, ast.ImportFrom))):
            break
        head.append(node)
    return head


def _graph():
    """Module name -> {module name: line of its first import}, and the
    places of the imports that are not at the module's top."""
    graph, misplaced = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        head = _header(tree)
        edges = graph[path.stem] = {}
        for node, target in _imports(tree):
            edges.setdefault(target, node.lineno)
            if not any(node is h for h in head):
                misplaced.append(f"{path.name}:{node.lineno}")
    return graph, misplaced


def test_intra_package_imports_sit_at_module_top():
    _, misplaced = _graph()
    assert misplaced == []


def test_intra_package_imports_form_no_cycle():
    graph, _ = _graph()
    assert "petri" in graph["engine"]
    done: set[str] = set()

    def visit(module, path):
        if module in path:
            cycle = path[path.index(module):] + [module]
            raise AssertionError(" -> ".join(cycle))
        if module in done:
            return
        for target in graph.get(module, ()):
            visit(target, path + [module])
        done.add(module)

    for module in graph:
        visit(module, [])
