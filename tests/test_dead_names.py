"""No dead public or private names at the top level of fibcat, no dead
methods, and no unread imports.

Every function, class and constant that a module of `src/fibcat` defines
at its top level must be referenced in `src/fibcat`, `tests` or
`perfbench` somewhere other than its own definition: as a name, an
attribute or an imported name.  Dunder names such as `__version__` are
module metadata and are exempt.  So must every method of a top-level
class, somewhere outside its own body, unless the class subclasses a
library class, whose methods the library calls.  Every name that a
module of `src/fibcat` imports must be read somewhere in that module;
`__future__` imports are compiler directives and are exempt.

The public functions that nothing in `src/fibcat` itself calls are
reached only from tests; they may shrink but not grow past a pinned list.
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


def _scanned(*parts):
    """The parsed files under parts, and (statement, its references) for
    each of their top-level statements."""
    trees = {path: _parse(path) for path in _python_files(*parts)}
    return trees, [(node, _references(node))
                   for tree in trees.values() for node in tree.body]


def dead_names():
    """Sorted "module.name" of every top-level definition of fibcat that
    no other top-level statement references."""
    trees, statements = _scanned(("src", "fibcat"), ("tests",),
                                 ("perfbench",))
    dead = []
    for path in _python_files(("src", "fibcat")):
        module = os.path.basename(path)[:-3]
        for name, definition in _definitions(trees[path]):
            if _dunder(name):
                continue
            if not any(name in refs for node, refs in statements
                       if node is not definition):
                dead.append(f"{module}.{name}")
    return sorted(dead)


def test_every_top_level_name_is_referenced():
    assert dead_names() == []


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def dead_methods():
    """Sorted "module.Class.method" of every non-dunder method of a
    top-level class of fibcat that nothing outside its own body
    references.  A class with a base defined outside fibcat is skipped."""
    trees, statements = _scanned(("src", "fibcat"), ("tests",),
                                 ("perfbench",))
    classes = [(os.path.basename(path)[:-3], node)
               for path in _python_files(("src", "fibcat"))
               for node in trees[path].body if isinstance(node, ast.ClassDef)]
    own = {node.name for _, node in classes}
    dead = []
    for module, cls in classes:
        if not all(isinstance(base, ast.Name) and base.id in own
                   for base in cls.bases):
            continue
        outside = [refs for node, refs in statements if node is not cls]
        for method in cls.body:
            if (not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or _dunder(method.name)):
                continue
            siblings = [_references(node) for node in cls.body
                        if node is not method]
            if not any(method.name in refs for refs in outside + siblings):
                dead.append(f"{module}.{cls.name}.{method.name}")
    return sorted(dead)


def test_every_method_is_referenced():
    assert dead_methods() == []


# public functions of fibcat that no other top-level statement of
# src/fibcat references: only tests reach them
CALLED_ONLY_FROM_OUTSIDE = {
    "core.coslice_category", "core.slice_category", "core.twisted_arrows",
    "correspondences.associativity_iso", "correspondences.empty_profunctor",
    "correspondences.is_left_final_corr",
    "correspondences.is_right_initial_corr", "correspondences.left_unit_iso",
    "correspondences.product_corr", "correspondences.right_unit_iso",
    "correspondences.transpose_profunctor",
    "fibrations.check_section_restriction",
    "fibrations.fiber_inclusion_over_arrow",
    "fibrations.is_cartesian_morphism", "fibrations.is_left_adjoint",
    "fibrations.is_right_adjoint", "fibrations.is_right_fibration",
    "fibrations.is_strict_discrete_fibration",
    "homology.all_set_valued_functors", "homology.check_final_closure",
    "homology.colimit_comparison_is_bijective",
    "homology.quillenB_pi0_square", "homology.theoremB_hypothesis",
    "randgen.random_two_handed_fibration",
    "transport.kan_extend_along_fibration",
    "transport.maximal_right_subfibration",
    "transport.relative_classifying_space", "transport.straighten_cocart",
    "transport.straighten_discrete_opfib", "transport.unstraighten_cat",
}


def called_only_from_outside():
    """Sorted "module.name" of every public top-level function of fibcat
    that no other top-level statement of src/fibcat references."""
    trees, statements = _scanned(("src", "fibcat"))
    return sorted(
        f"{os.path.basename(path)[:-3]}.{node.name}"
        for path, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and not any(node.name in refs for other, refs in statements
                    if other is not node))


def test_no_new_public_function_is_called_only_from_outside():
    assert set(called_only_from_outside()) <= CALLED_ONLY_FROM_OUTSIDE


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
