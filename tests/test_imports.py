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


def _reads(node):
    """The names that `node` reads, leaving out its annotations."""
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.Name):
                yield child.id
            elif isinstance(child, ast.AST):
                yield from _reads(child)


def test_the_tree_reference_reads_nothing_of_petri_or_engine():
    """tree_language_member is the reference that membership in the
    translated net is checked against, so neither it nor any module-level
    name of trees.py that it reaches reads a name imported from petri or
    engine."""
    tree = ast.parse((PACKAGE / "trees.py").read_text())
    foreign = {a.asname or a.name for node, module in _imports(tree)
               if module in ("petri", "engine") for a in node.names}
    assert "is_token" in foreign
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node
    reached, todo = set(), ["tree_language_member"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [n for n in _reads(defined[name]) if n in defined]
    assert "_Terms" in reached
    assert {n for name in reached for n in _reads(defined[name])} & foreign == set()


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
