"""No functoriality check scans all pairs of morphisms.

A loop over `X.morphisms` nested inside another loop over `X.morphisms`
of the same `X`, in statements or in one comprehension, visits every
pair of morphisms to find the composable ones.  Composable pairs are
walked through the by-source index instead: `for g in X._from[X.tgt[f]]`.
The scan reports each function of `src/fibcat` that still nests such
loops.
"""

import ast

from test_trusted_registry import _package_sources

COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def _morphisms_of(iterable):
    """The category expression X when iterable is X.morphisms, else
    None."""
    if isinstance(iterable, ast.Attribute) and iterable.attr == "morphisms":
        return ast.dump(iterable.value)
    return None


def _loops(node):
    """(category, body) for each loop over X.morphisms under node: a for
    statement's body, or the rest of a comprehension after the clause."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.For):
            X = _morphisms_of(sub.iter)
            if X is not None:
                yield X, sub.body
        elif isinstance(sub, COMPREHENSIONS):
            result = ([sub.key, sub.value] if isinstance(sub, ast.DictComp)
                      else [sub.elt])
            for i, clause in enumerate(sub.generators):
                X = _morphisms_of(clause.iter)
                if X is not None:
                    inner = sub.generators[i + 1:]
                    yield X, clause.ifs + [c.iter for c in inner] + [
                        cond for c in inner for cond in c.ifs] + result


def _nests_all_pairs(function):
    # a later clause of the same comprehension is a bare X.morphisms
    return any(_morphisms_of(node) == X
               or any(inner == X for inner, _ in _loops(node))
               for X, body in _loops(function) for node in body)


def all_pairs_scans(sources):
    """Sorted "module.function" (or "module.Class.method") of the
    functions that nest a loop over X.morphisms in another over the same
    X, from {module: source text}."""
    found = []
    for module, text in sources.items():
        for node in ast.parse(text).body:
            methods = ([(f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, ast.FunctionDef)]
                       if isinstance(node, ast.ClassDef) else
                       [(node.name, node)]
                       if isinstance(node, ast.FunctionDef) else [])
            found += [f"{module}.{name}" for name, fn in methods
                      if _nests_all_pairs(fn)]
    return sorted(found)


def test_no_function_scans_all_pairs_of_morphisms():
    assert all_pairs_scans(_package_sources()) == []


def test_the_scan_finds_planted_loops():
    planted = '''
def statements(K):
    for f in K.morphisms:
        for g in K.morphisms:
            if K.tgt[f] == K.src[g]:
                yield g, f

def comprehension(C):
    return all(C.compose(g, f) for f in C.morphisms for g in C.morphisms
               if C.tgt[f] == C.src[g])

def nested_deeper(C):
    for f in C.morphisms:
        if f:
            return [g for g in C.morphisms]

def two_categories(C, D):
    return [(f, g) for f in C.morphisms for g in D.morphisms]

def by_source(C):
    return [(g, f) for f in C.morphisms for g in C._from[C.tgt[f]]]

def one_after_another(C):
    a = [f for f in C.morphisms]
    return a + [g for g in C.morphisms]

class Diagram:
    def validate(self):
        K = self.base
        for f in K.morphisms:
            for g in K.morphisms:
                pass
'''
    assert all_pairs_scans({"m": planted}) == [
        "m.Diagram.validate", "m.comprehension", "m.nested_deeper",
        "m.statements"]
