"""`Functor.over` and `Functor.lifts` against brute-force scans.

A functor's source grouped over its target is built once per functor and
read through `over(x)` (the objects over x) and `lifts(e, phi)` (the
morphisms out of e over phi).  Over seeded draws, on posets, free
categories, Z/2, Z/3, the walking isomorphism, the idempotent and the
retraction, and on the opposites of every draw, both must equal the scans
they replaced.  The oracles below are `core.fiber` and
`fibrations._edge_index` from before the index: `core.fiber` must give
the same category on every draw, and the oracle's fibers of all draws are
pinned by a SHA-256 digest.
"""

import random

from fibcat import core, documents as docs, fibrations as fib, randgen
from fibcat.core import FiniteCategory
from test_grothendieck import _digest, _is_poset


# -- the oracles ----------------------------------------------------------------


def oracle_fiber(pi, x):
    E, K = pi.source, pi.target
    objects = [e for e in E.objects if pi.ob_map[e] == x]
    idx = K.identity[x]
    keep = set(objects)
    morphisms = [(m, E.src[m], E.tgt[m]) for m in E.morphisms
                 if pi.mor_map[m] == idx and E.src[m] in keep and E.tgt[m] in keep]
    mor_keep = {m for m, _, _ in morphisms}
    identities = {e: E.identity[e] for e in objects}
    composition = {(g2, f2): h for (g2, f2), h in E._comp.items()
                   if g2 in mor_keep and f2 in mor_keep}
    return FiniteCategory(objects, morphisms, identities, composition,
                          _validate=False)


def oracle_edge_index(pi):
    """E grouped over K: fibers[x] lists the objects over x, and
    edges[(e, phi)] the morphisms out of e over phi, in sorted order."""
    E = pi.source
    fibers = {x: [] for x in pi.target.objects}
    for e in E.objects:
        fibers[pi.ob_map[e]].append(e)
    edges = {}
    for f in E.morphisms:
        edges.setdefault((E.src[f], pi.mor_map[f]), []).append(f)
    return fibers, edges


def oracle_composable_lifts(pi):
    """Each composable pair (phi, psi) of non-identity arrows, in sorted
    order, with the sorted lifts of psi∘phi, read from the oracle index."""
    K = pi.target
    fibers, edges = oracle_edge_index(pi)
    for phi in K.morphisms:
        if K.is_identity(phi):
            continue
        for psi in K.morphisms_from(K.tgt[phi]):
            if K.is_identity(psi):
                continue
            comp = K.compose(psi, phi)
            yield phi, psi, sorted(f for e in fibers[K.src[phi]]
                                   for f in edges.get((e, comp), ()))


# -- the draws --------------------------------------------------------------------


def random_base(rng, i):
    """A poset, a free category, a random category, or one of Z/2, Z/3,
    the walking isomorphism, the idempotent and the retraction."""
    kind = i % 4
    if kind == 0:
        return randgen.random_poset(rng, 3, prefix="k")
    if kind == 1:
        for _ in range(20):
            K = randgen.random_free_category(rng, 3, 3, 8, prefix="k")
            if K is not None:
                return K
        return core.interval(2)
    if kind == 2:
        return core.prefix_relabel(rng.choice([
            lambda: core.cyclic_group_category(2),
            lambda: core.cyclic_group_category(3),
            core.walking_isomorphism, core.idempotent_category,
            core.retract_category])(), "k.")
    return randgen.random_category(rng, 2, 5, prefix="k.")


DRAWS = 320


def draws():
    """Each draw, then its opposite."""
    for i in range(DRAWS):
        rng = random.Random(f"index:{i}")
        if i % 10 == 9:
            pi = (randgen.random_functor_over_1 if i % 20 == 9
                  else randgen.random_functor_over_2)(rng)
        elif i % 3 == 2:
            pi = randgen.random_functor_between(
                rng, randgen.random_category(rng, 3, 7, prefix="j."),
                random_base(rng, i))
        else:
            pi = randgen.random_functor_over(rng, random_base(rng, i))
        yield pi
        yield core.opposite_functor(pi)


FIBERS_DIGEST = (
    "e07a6e1e8f8bf96c9898cda235166f0e98362925debd32f5e87c7027de339a6a")


class TestOverIndex:
    def test_over_and_lifts_are_the_scans(self):
        non_posets = 0
        for pi in draws():
            E, K = pi.source, pi.target
            non_posets += not _is_poset(K)
            for x in K.objects:
                got = pi.over(x)
                assert type(got) is tuple
                assert got == tuple(e for e in E.objects
                                    if pi.ob_map[e] == x)
            for e in E.objects:
                for phi in K.morphisms:
                    got = pi.lifts(e, phi)
                    assert type(got) is tuple
                    assert got == tuple(f for f in E.morphisms_from(e)
                                        if pi.mor_map[f] == phi)
        assert non_posets >= DRAWS

    def test_the_oracle_index_reads_the_same(self):
        for pi in draws():
            fibers, edges = oracle_edge_index(pi)
            assert {x: list(pi.over(x)) for x in fibers} == fibers
            assert {key: list(pi.lifts(*key)) for key in edges} == edges
            assert list(fib._composable_lifts(pi)) == list(
                oracle_composable_lifts(pi))

    def test_fiber_matches_its_oracle(self):
        texts = []
        for pi in draws():
            for x in pi.target.objects:
                want = oracle_fiber(pi, x)
                assert core.fiber(pi, x) == want
                texts.append(docs.dumps(docs.category_to_doc(want)))
        assert _digest(texts) == FIBERS_DIGEST

    def test_outside_the_image_is_empty(self):
        pi = core.constant_functor(core.interval(2), core.interval(1), "0")
        assert pi.over("1") == ()
        assert pi.lifts("0", "0->1") == ()
        assert pi.lifts("1", "0->0") == ("1->1", "1->2")
        assert pi.over("0") == ("0", "1", "2")

    def test_the_index_is_built_once(self):
        pi = core.identity_functor(core.interval(2))
        assert pi.lifts("0", "0->1") is pi.lifts("0", "0->1")
        assert pi.over("1") is pi.over("1")
