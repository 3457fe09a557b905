"""No dead public or private names at the top level of fibcat, and no
unread imports.

Every function, class and constant that a module of `src/fibcat` defines
at its top level must be referenced in `src/fibcat`, `tests` or
`perfbench` somewhere other than its own definition: as a name, an
attribute or an imported name.  Dunder names such as `__version__` are
module metadata and are exempt.  Every name that a module of
`src/fibcat` imports must be read somewhere in that module; `__future__`
imports are compiler directives and are exempt.
"""

import ast
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "fibcat")


def _python_files(*parts):
    for top in parts:
        for dirpath, _, names in os.walk(os.path.join(ROOT, *top)):
            for name in sorted(names):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def _definitions(tree):
    """(name, defining statement) for each top-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _references(node):
    """The identifiers a statement reads: names, attributes, imports."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.alias):
            refs.add(sub.name.rsplit(".", 1)[-1])
    return refs


def dead_names():
    """Sorted "module.name" of every top-level definition of fibcat that
    no other top-level statement references."""
    trees = {path: _parse(path) for path in _python_files(
        ("src", "fibcat"), ("tests",), ("perfbench",))}
    statements = [(node, _references(node))
                  for tree in trees.values() for node in tree.body]
    dead = []
    for path in _python_files(("src", "fibcat")):
        module = os.path.basename(path)[:-3]
        for name, definition in _definitions(trees[path]):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(name in refs for node, refs in statements
                       if node is not definition):
                dead.append(f"{module}.{name}")
    return sorted(dead)


def test_every_top_level_name_is_referenced():
    assert dead_names() == []


def _imported_names(tree):
    """The names that a module's import statements bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def unread_imports():
    """Sorted "module.name" of every name that a module of fibcat
    imports and never reads."""
    unread = []
    for path in _python_files(("src", "fibcat")):
        tree = _parse(path)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        module = os.path.basename(path)[:-3]
        unread += [f"{module}.{name}" for name in _imported_names(tree)
                   if name not in read]
    return sorted(unread)


def test_every_imported_name_is_read():
    assert unread_imports() == []
