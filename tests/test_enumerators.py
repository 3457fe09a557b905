"""The four backtracking enumerators against brute force.

`core.all_functors`, `core.natural_transformations`, `homology.set_limit`
and `homology.all_set_valued_functors` check each law once, at the step
that assigns the last thing it reads (`core._due`).  Each is compared,
list and order, with an oracle that tries every assignment in
lexicographic order and keeps those that pass plain validation.  The
caps count partial assignments explored; on fixed inputs the counts must
not exceed those of the former pruning, which checked a composable pair
only when its last factor was assigned and diagrams only when complete.
"""

import itertools
import random

import pytest

from fibcat import core, homology, randgen
from fibcat.homology import SetValuedFunctor


def brute_functors(C, D):
    objects = list(C.objects)
    non_id = [m for m in C.morphisms if not C.is_identity(m)]
    found = []
    for images in itertools.product(D.objects, repeat=len(objects)):
        ob_map = dict(zip(objects, images))
        homs = [D.hom(ob_map[C.src[m]], ob_map[C.tgt[m]]) for m in non_id]
        for chosen in itertools.product(*homs):
            mor_map = {C.identity[x]: D.identity[ob_map[x]] for x in objects}
            mor_map.update(zip(non_id, chosen))
            try:
                found.append(core.Functor(C, D, ob_map, mor_map))
            except core.FunctorError:
                pass
    return found


def brute_transformations(F, G):
    C, D = F.source, F.target
    objects = list(C.objects)
    found = []
    for comps in itertools.product(
            *(D.hom(F.ob_map[x], G.ob_map[x]) for x in objects)):
        eta = dict(zip(objects, comps))
        if all(D.compose(eta[C.tgt[m]], F.mor_map[m])
               == D.compose(G.mor_map[m], eta[C.src[m]])
               for m in C.morphisms):
            found.append(eta)
    return found


def brute_limit(S):
    K = S.base
    objects = list(K.objects)
    found = []
    for elements in itertools.product(*(S.values[x] for x in objects)):
        fam = dict(zip(objects, elements))
        if all(S.transports[m][fam[K.src[m]]] == fam[K.tgt[m]]
               for m in K.morphisms):
            found.append(tuple(sorted(fam.items())))
    return sorted(found)


def brute_diagrams(K, max_size):
    objects = list(K.objects)
    non_id = [m for m in K.morphisms if not K.is_identity(m)]
    found = []
    for sizes in itertools.product(range(max_size + 1), repeat=len(objects)):
        values = {x: tuple(f"{x}#{j}" for j in range(n))
                  for x, n in zip(objects, sizes)}
        maps = [[dict(zip(values[K.src[m]], images))
                 for images in itertools.product(
                     values[K.tgt[m]], repeat=len(values[K.src[m]]))]
                for m in non_id]
        for chosen in itertools.product(*maps):
            transports = {K.identity[x]: {a: a for a in values[x]}
                          for x in objects}
            transports.update(zip(non_id, chosen))
            try:
                found.append(SetValuedFunctor(K, values, transports).validate())
            except core.PreconditionError:
                pass
    return found


def graph(F):
    return sorted(F.ob_map.items()), sorted(F.mor_map.items())


def test_enumerators_match_brute_force_on_random_pairs():
    rng = random.Random(19)
    functors = diagrams = 0
    for i in range(400):
        C = randgen.random_category(rng, 4, 9, prefix="c.")
        D = randgen.random_category(rng, 3, 9, prefix="d.")
        found = core.all_functors(C, D)
        assert list(map(graph, found)) == list(map(graph, brute_functors(C, D)))
        functors += len(found)
        for F, G in itertools.product(found[:4], repeat=2):
            assert (core.natural_transformations(F, G)
                    == brute_transformations(F, G))
        if i % 2 == 0:
            size = 2 if i % 4 == 0 else 1
            found = homology.all_set_valued_functors(C, max_size=size)
            assert found == brute_diagrams(C, size)
            diagrams += len(found)
            for S in found[::5]:
                assert homology.set_limit(S) == brute_limit(S)
    # the sample reaches the pruning, not only empty lists
    assert functors > 2000 and diagrams > 3000


class CountingCap:
    """A cap that never trips and counts the partial assignments charged
    to it."""

    def __init__(self):
        self.explored = 0

    def __sub__(self, n):
        self.explored += n
        return self

    def __lt__(self, other):
        return False


def explored(monkeypatch, enumerate):
    cap = CountingCap()
    with monkeypatch.context() as patch:
        patch.setattr(core, "enumeration_cap", lambda: cap)
        enumerate()
    return cap.explored


# interval(2) with the composite 0->2 renamed to sort after both factors,
# so a pair can only be checked when its composite is assigned
LATE = core.relabel(core.interval(2), morphism_map={"0->2": "z"})

# (input, partial assignments explored by the former pruning)
FUNCTOR_CASES = [
    ((LATE, core.cyclic_group_category(3)), 44),
    ((core.interval(2), core.interval(2)), 60),
    ((core.retract_category(), core.idempotent_category()), 10),
    ((core.retract_category(), core.retract_category()), 27),
]
DIAGRAM_CASES = [
    (core.interval(2), 214),
    (LATE, 218),
    (core.retract_category(), 129),
    (core.idempotent_category(), 9),
]


@pytest.mark.parametrize("pair, before", FUNCTOR_CASES)
def test_functor_enumeration_explores_no_more(monkeypatch, pair, before):
    assert explored(monkeypatch, lambda: core.all_functors(*pair)) <= before


def test_a_late_composite_prunes_at_its_own_step(monkeypatch):
    (C, D), before = FUNCTOR_CASES[0]
    assert explored(monkeypatch, lambda: core.all_functors(C, D)) < before


@pytest.mark.parametrize("K, before", DIAGRAM_CASES)
def test_diagram_enumeration_explores_fewer(monkeypatch, K, before):
    assert explored(
        monkeypatch, lambda: homology.all_set_valued_functors(K, 2)) < before


def test_cap_counts_explored_assignments(monkeypatch):
    (C, D), _ = FUNCTOR_CASES[0]
    n = explored(monkeypatch, lambda: core.all_functors(C, D))
    everything = core.all_functors(C, D)
    monkeypatch.setenv("FIBCAT_ENUM_CAP", str(n))
    assert core.all_functors(C, D) == everything
    monkeypatch.setenv("FIBCAT_ENUM_CAP", str(n - 1))
    with pytest.raises(core.EnumerationCapExceeded):
        core.all_functors(C, D)
    n = explored(monkeypatch, lambda: homology.all_set_valued_functors(C, 2))
    monkeypatch.setenv("FIBCAT_ENUM_CAP", str(n))
    homology.all_set_valued_functors(C, 2)
    monkeypatch.setenv("FIBCAT_ENUM_CAP", str(n - 1))
    with pytest.raises(core.EnumerationCapExceeded):
        homology.all_set_valued_functors(C, 2)


def test_keys_are_kept_apart_from_payloads():
    # the payload "a" names a morphism; its keys are the objects a and b
    assert core._due(["a", "b"], [(("a", "b"), "a")]) == [[], ["a"]]


def test_a_morphism_named_like_an_object():
    # the morphism "a": a -> b shares its id with its source, so its
    # square is due only once b has a component too
    C = core.FiniteCategory(
        ["a", "b"], [("id_a", "a", "a"), ("id_b", "b", "b"), ("a", "a", "b")],
        {"a": "id_a", "b": "id_b"},
        {("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b",
         ("a", "id_a"): "a", ("id_b", "a"): "a"})
    D = core.cyclic_group_category(2)
    found = core.all_functors(C, D)
    assert list(map(graph, found)) == list(map(graph, brute_functors(C, D)))
    for F, G in itertools.product(found, repeat=2):
        assert core.natural_transformations(F, G) == brute_transformations(F, G)
    S = SetValuedFunctor(
        C, {"a": ("x", "y"), "b": ("u", "v")},
        {"id_a": {"x": "x", "y": "y"}, "id_b": {"u": "u", "v": "v"},
         "a": {"x": "u", "y": "u"}}).validate()
    assert homology.set_limit(S) == brute_limit(S) == [
        (("a", "x"), ("b", "u")), (("a", "y"), ("b", "u"))]
    assert homology.all_set_valued_functors(C, 2) == brute_diagrams(C, 2)
