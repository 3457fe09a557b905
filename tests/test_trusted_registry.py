"""Every builder that skips its check is registered with an oracle.

A function of `src/fibcat` that builds a `Profunctor(...)` or a
`TwoSidedDiscreteFibration(...)` without calling `.validate()` on it, or
a category through `FiniteCategory._derived` or
`bifib_squares._ComposedOnRead` (whose composition table is built
unchecked on first read), trusts its inputs.  Each
such function must be listed in `test_trusted_builders.TRUSTED`, whose
oracle runs the skipped check on its output.  A private helper is covered
through its callers, which must be listed in its place.
"""

import ast
import os

from test_dead_names import PACKAGE
from test_trusted_builders import TRUSTED

BUILDERS = {"Profunctor", "TwoSidedDiscreteFibration"}
DERIVED = {"_derived", "_ComposedOnRead"}


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _unchecked_calls(function):
    """The names of the trusting constructions in a function's body."""
    checked = set()
    for node in ast.walk(function):
        # Builder(...).validate()
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "validate"
                and isinstance(node.func.value, ast.Call)):
            checked.add(node.func.value)
    return {_called_name(node) for node in ast.walk(function)
            if isinstance(node, ast.Call) and node not in checked
            and _called_name(node) in BUILDERS | DERIVED}


def unchecked_builders(sources):
    """Sorted "module.function" of the top-level functions that build
    without a check, from {module: source text}; a private function's
    callers stand in for it."""
    functions = {}
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef):
                functions[f"{module}.{node.name}"] = node
    trusting = {name for name, fn in functions.items()
                if _unchecked_calls(fn)}
    while True:
        private = {name.rsplit(".", 1)[1] for name in trusting
                   if name.rsplit(".", 1)[1].startswith("_")}
        callers = {name for name, fn in functions.items()
                   if any(isinstance(node, ast.Call)
                          and _called_name(node) in private
                          for node in ast.walk(fn))}
        if callers <= trusting:
            break
        trusting |= callers
    return sorted(name for name in trusting
                  if not name.rsplit(".", 1)[1].startswith("_"))


def _package_sources():
    sources = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                sources[name[:-3]] = fh.read()
    return sources


def test_every_trusting_builder_has_an_oracle():
    listed = {name for name, _ in TRUSTED}
    assert set(unchecked_builders(_package_sources())) - listed == set()


def test_every_listed_builder_exists():
    sources = _package_sources()
    for name, _ in TRUSTED:
        module, function = name.split(".")
        assert any(isinstance(node, ast.FunctionDef) and node.name == function
                   for node in ast.parse(sources[module]).body), name


def test_the_scan_finds_planted_builders():
    planted = '''
def checked(A, B):
    return Profunctor(A, B, {}, {}, {}).validate()

def unchecked(A, B):
    P = Profunctor(A, B, {}, {}, {})
    return P

def _helper(X, f, g):
    return TwoSidedDiscreteFibration(X, f, g)

def through_helper(X, f, g):
    return _helper(X, f, g)

def derived(C):
    return FiniteCategory._derived(C.objects)

def composed_on_read(C, compose):
    return bifib_squares._ComposedOnRead(C.objects, C.morphisms, C.src,
                                         C.tgt, C.identity, compose)
'''
    assert unchecked_builders({"m": planted}) == [
        "m.composed_on_read", "m.derived", "m.through_helper", "m.unchecked"]
