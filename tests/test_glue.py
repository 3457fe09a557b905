"""`correspondences.glue` against the hand-built gluings it replaced.

The three oracles below are the bodies of `collage`,
`glue_over_triangle` and `randgen.category_over_2` from before they
became calls to `glue`: each assembles its table by hand and validates
it.  Over `randgen` draws and the bundled fixtures the new builders must
return equal categories, projections and `cross_class`; the canonical
documents of a few seeded draws are pinned by SHA-256 digests.
"""

import hashlib
import random

import pytest

from fibcat import core, correspondences as corrs, documents as docs
from fibcat import fixtures, randgen
from fibcat.core import FiniteCategory, Functor, PreconditionError


def oracle_collage(P):
    A, B = P.source, P.target
    if set(A.objects) & set(B.objects) or set(A.morphisms) & set(B.morphisms):
        raise PreconditionError("collage requires disjoint ids; relabel first")
    objects = list(A.objects) + list(B.objects)
    morphisms = list(A.morphism_triples()) + list(B.morphism_triples())
    cross = {}
    for (a, b), xs in P.elements.items():
        for x in xs:
            m = corrs.collage_cross_id(a, b, x)
            morphisms.append((m, a, b))
            cross[m] = (a, b, x)
    identities = {**A.identity, **B.identity}
    composition = {**A.composition_table(), **B.composition_table()}
    for m, (a, b, x) in cross.items():
        for alpha in A.morphisms_to(a):
            a1 = A.src[alpha]
            composition[(m, alpha)] = corrs.collage_cross_id(
                a1, b, P.lact[(alpha, b)][x])
        for beta in B.morphisms_from(b):
            b1 = B.tgt[beta]
            composition[(beta, m)] = corrs.collage_cross_id(
                a, b1, P.ract[(a, beta)][x])
    total = FiniteCategory(objects, morphisms, identities, composition)
    return corrs.correspondence_from_total(total, A.objects)


def oracle_glue_over_triangle(c01, c12):
    # classes whose ids print alike are merged here, without a refusal
    B = c01.fiber_t
    if c12.fiber_s != B:
        raise PreconditionError("middle fibers differ; relabel first")
    E01, E12 = c01.total, c12.total
    shared_obj = set(E01.objects) & set(E12.objects)
    if shared_obj != set(B.objects):
        raise PreconditionError("object ids must overlap exactly in the middle")
    shared_mor = set(E01.morphisms) & set(E12.morphisms)
    if shared_mor != set(B.morphisms):
        raise PreconditionError("morphism ids must overlap exactly in the middle")
    A, C = c01.fiber_s, c12.fiber_t
    P01 = corrs.corr_to_profunctor(c01)
    P12 = corrs.corr_to_profunctor(c12)
    objects = list(E01.objects) + [o for o in E12.objects if o not in shared_obj]
    morphisms = list(E01.morphism_triples()) + \
        [t for t in E12.morphism_triples() if t[0] not in shared_mor]
    identities = {**E01.identity, **E12.identity}
    composition = {**E01.composition_table(), **E12.composition_table()}

    def class_id(uf, triple):
        b, p, q = uf.find(triple)
        return f"[{p}|{q}]"

    cross_class = {}
    for a in A.objects:
        for cobj in C.objects:
            uf = corrs.coend_pairs(P01, P12, a, cobj)
            reps = {}
            for triple in uf.parent:
                cid = class_id(uf, triple)
                cross_class[(triple[1], triple[2])] = cid
                reps[cid] = True
            for cid in sorted(reps):
                morphisms.append((cid, a, cobj))
    for (p, q), cid in cross_class.items():
        a = E01.src[p]
        cobj = E12.tgt[q]
        composition[(q, p)] = cid
        for alpha in A.morphisms_to(a):
            p2 = E01.compose(p, alpha)
            composition.setdefault((cid, alpha), cross_class[(p2, q)])
        for gamma in C.morphisms_from(cobj):
            q2 = E12.compose(gamma, q)
            composition.setdefault((gamma, cid), cross_class[(p, q2)])
    total = FiniteCategory(objects, morphisms, identities, composition)
    side = {}
    for o in objects:
        if o in set(A.objects):
            side[o] = "0"
        elif o in shared_obj:
            side[o] = "1"
        else:
            side[o] = "2"
    mor_map = {m: f"{side[total.src[m]]}->{side[total.tgt[m]]}"
               for m in total.morphisms}
    proj = Functor(total, core.interval(2), side, mor_map)
    return corrs.GluedTriangle(total, proj, cross_class)


def oracle_category_over_2(P01, P12, P02, pairing):
    A, B = P01.source, P01.target
    C = P12.target
    objects = list(A.objects) + list(B.objects) + list(C.objects)
    morphisms = (list(A.morphism_triples()) + list(B.morphism_triples())
                 + list(C.morphism_triples()))
    cross01 = {}
    for (a, b), els in P01.elements.items():
        for x in els:
            m = corrs.collage_cross_id(a, b, x)
            morphisms.append((m, a, b))
            cross01[m] = (a, b, x)
    cross12 = {}
    for (b, c), els in P12.elements.items():
        for y in els:
            m = corrs.collage_cross_id(b, c, y)
            morphisms.append((m, b, c))
            cross12[m] = (b, c, y)
    cross02 = {}
    for (a, c), els in P02.elements.items():
        for z in els:
            m = f"{z}::{a}>{c}"
            morphisms.append((m, a, c))
            cross02[m] = (a, c, z)
    identities = {**A.identity, **B.identity, **C.identity}
    composition = {**A.composition_table(), **B.composition_table(),
                   **C.composition_table()}
    for m, (a, b, x) in cross01.items():
        for alpha in A.morphisms_to(a):
            composition[(m, alpha)] = corrs.collage_cross_id(
                A.src[alpha], b, P01.lact[(alpha, b)][x])
        for beta in B.morphisms_from(b):
            composition[(beta, m)] = corrs.collage_cross_id(
                a, B.tgt[beta], P01.ract[(a, beta)][x])
    for m, (b, c, y) in cross12.items():
        for beta in B.morphisms_to(b):
            composition[(m, beta)] = corrs.collage_cross_id(
                B.src[beta], c, P12.lact[(beta, c)][y])
        for gamma in C.morphisms_from(c):
            composition[(gamma, m)] = corrs.collage_cross_id(
                b, C.tgt[gamma], P12.ract[(b, gamma)][y])
    for m, (a, c, z) in cross02.items():
        for alpha in A.morphisms_to(a):
            composition[(m, alpha)] = \
                f"{P02.lact[(alpha, c)][z]}::{A.src[alpha]}>{c}"
        for gamma in C.morphisms_from(c):
            composition[(gamma, m)] = \
                f"{P02.ract[(a, gamma)][z]}::{a}>{C.tgt[gamma]}"
    for m1, (a, b, x) in cross01.items():
        for m2, (b2, c, y) in cross12.items():
            if b2 == b:
                composition[(m2, m1)] = f"{pairing(a, c, b, x, y)}::{a}>{c}"
    total = FiniteCategory(objects, morphisms, identities, composition)
    side = {}
    for o in A.objects:
        side[o] = "0"
    for o in B.objects:
        side[o] = "1"
    for o in C.objects:
        side[o] = "2"
    return Functor(total, core.interval(2), side,
                   {m: f"{side[total.src[m]]}->{side[total.tgt[m]]}"
                    for m in total.morphisms})


# -- inputs --------------------------------------------------------------------


def random_bimodule(seed):
    rng = random.Random(seed)
    A = randgen.random_category(rng, 3, 7, prefix="a.")
    B = randgen.random_category(rng, 3, 7, prefix="b.")
    return randgen.random_profunctor(rng, A, B)


def random_pair(seed):
    return randgen.random_composable_profunctors(random.Random(seed))


def over_2_inputs(seed):
    """The three flavors of random_functor_over_2's (P01, P12, P02,
    pairing), all from one draw."""
    rng = random.Random(seed)
    P01, P12 = randgen.random_composable_profunctors(rng, 2, 5, 2)
    coend, class_of = corrs.compose_prof(P01, P12)

    def by_class(a, c, b, x, y):
        return class_of[(a, c, b, x, y)]

    extra = randgen._with_extra_outer(rng, coend)
    quotient, collapse = randgen.quotient_profunctor(
        rng, coend, max_relations=1, with_classmap=True)
    return [(P01, P12, coend, by_class), (P01, P12, extra, by_class),
            (P01, P12, quotient,
             lambda a, c, b, x, y: collapse[(a, c, class_of[(a, c, b, x, y)])])]


def fixture_values(kind):
    return [(name, docs.parse_any(docs.dumps(doc))[1])
            for name, doc in sorted(fixtures.build_fixtures().items())
            if doc["type"] == kind]


def fixture_triangles():
    """Composable correspondences among the fixtures: the two-step pair
    and the collages of every composable pair of fixture bimodules."""
    by_name = dict(fixture_values("correspondence"))
    pairs = [(by_name["two_step_left.json"], by_name["two_step_right.json"])]
    bimodules = [P for _, P in fixture_values("profunctor")]
    for P01 in bimodules:
        for P12 in bimodules:
            if P01.target == P12.source:
                pairs.append((P01, P12))
    return pairs


def relabeled(P, left, right):
    """P with its source ids prefixed by left and its target ids by right
    (None leaves a side as it is)."""
    def renaming(C, prefix):
        return prefix and ({x: prefix + x for x in C.objects},
                           {m: prefix + m for m in C.morphisms})
    return corrs.relabel_profunctor(P, source=renaming(P.source, left),
                                    target=renaming(P.target, right))


def collages(pair):
    """Glue-ready correspondences of a pair of bimodules or correspondences;
    the outer ids of a pair of bimodules, which may collide, are relabeled
    first."""
    c01, c12 = pair
    if isinstance(c01, corrs.Profunctor):
        c01 = corrs.collage(relabeled(c01, "l.", None))
        c12 = corrs.collage(relabeled(c12, None, "r."))
    return c01, c12


# -- oracles -------------------------------------------------------------------


def assert_same_correspondence(new, old):
    assert new.total == old.total
    assert new.projection == old.projection
    assert new.fiber_s == old.fiber_s and new.fiber_t == old.fiber_t


def assert_same_triangle(new, old):
    assert new.total == old.total
    assert new.projection == old.projection
    assert new.cross_class == old.cross_class
    assert list(new.cross_class) == list(old.cross_class)


class TestGlueAgainstHandBuiltGluings:
    def test_collage_on_random_bimodules(self):
        for seed in range(200):
            P = random_bimodule(seed)
            assert_same_correspondence(corrs.collage(P), oracle_collage(P))

    def test_collage_on_fixtures(self):
        # the fixture bimodules share ids between their sides, so both
        # refuse them as they are and glue them once the source is
        # relabeled; the fixture correspondences glue their cross-homs
        bimodules = [P for _, P in fixture_values("profunctor")]
        for P in bimodules:
            with pytest.raises(PreconditionError) as old:
                oracle_collage(P)
            with pytest.raises(PreconditionError) as new:
                corrs.collage(P)
            assert str(new.value) == str(old.value)
        inputs = [relabeled(P, "l.", None) for P in bimodules]
        inputs += [corrs.corr_to_profunctor(c)
                   for _, c in fixture_values("correspondence")]
        assert len(inputs) >= 6
        for P in inputs:
            assert_same_correspondence(corrs.collage(P), oracle_collage(P))

    def test_glue_over_triangle_on_random_pairs(self):
        for seed in range(150):
            c01, c12 = collages(random_pair(seed))
            assert_same_triangle(corrs.glue_over_triangle(c01, c12),
                                 oracle_glue_over_triangle(c01, c12))

    def test_glue_over_triangle_on_fixtures(self):
        triangles = fixture_triangles()
        assert len(triangles) >= 3
        for pair in triangles:
            c01, c12 = collages(pair)
            assert_same_triangle(corrs.glue_over_triangle(c01, c12),
                                 oracle_glue_over_triangle(c01, c12))

    def test_category_over_2_on_random_draws(self):
        for seed in range(150):
            for args in over_2_inputs(seed):
                assert randgen.category_over_2(*args) == \
                    oracle_category_over_2(*args)

    def test_identity_gluing_over_3(self):
        # C x [3] is the gluing of four copies of C along hom bimodules
        C = core.retract_category()
        K = core.interval(3)
        copies = {x: core.prefix_relabel(C, f"{x}.") for x in K.objects}

        def hom(x, y):
            return corrs.hom_profunctor_along(
                core.Functor(copies[x], C, {f"{x}.{o}": o for o in C.objects},
                             {f"{x}.{m}": m for m in C.morphisms}),
                core.Functor(copies[y], C, {f"{y}.{o}": o for o in C.objects},
                             {f"{y}.{m}": m for m in C.morphisms}))

        arrows = [phi for phi in K.morphisms if not K.is_identity(phi)]
        edges = {phi: (hom(K.src[phi], K.tgt[phi]),
                       lambda a, b, e, phi=phi: f"{e}@{phi}")
                 for phi in arrows}
        pairings = {(phi, psi): lambda a, c, b, e, f: C.compose(f, e)
                    for phi in arrows for psi in arrows
                    if K.tgt[phi] == K.src[psi]}
        proj = corrs.glue(K, copies, edges, pairings)
        prism = core.product(C, K)
        assert len(proj.source.objects) == len(prism.objects)
        assert len(proj.source.morphisms) == len(prism.morphisms)
        for x in K.objects:
            assert core.fiber(proj, x) == copies[x]
        proj._validate()


# -- pinned canonical documents --------------------------------------------------


def _digest(parts):
    h = hashlib.sha256()
    for total, proj, *extra in parts:
        h.update(docs.dumps(docs.category_to_doc(total)).encode())
        h.update(docs.dumps({"ob": proj.ob_map, "mor": proj.mor_map}).encode())
        for x in extra:
            h.update(docs.dumps(sorted([p, q, cid] for (p, q), cid
                                       in x.items())).encode())
    return h.hexdigest()


def _collages():
    for seed in range(8):
        c = corrs.collage(random_bimodule(seed))
        yield c.total, c.projection


def _triangles():
    pairs = [random_pair(seed) for seed in range(8)] + fixture_triangles()
    for pair in pairs:
        glued = corrs.glue_over_triangle(*collages(pair))
        yield glued.total, glued.projection, glued.cross_class


def _over_2():
    for seed in range(8):
        for args in over_2_inputs(seed):
            pi = randgen.category_over_2(*args)
            yield pi.source, pi


GLUINGS = {
    "collage": (
        _collages,
        "a679a2238296486b57b7a803a753c87f4224882f796ebb087193c0a1dba2d784"),
    "glue_over_triangle": (
        _triangles,
        "e1dda6d75944ecd144006a7a520ef70f25d023f679037ab1874f1a495afcfb86"),
    "category_over_2": (
        _over_2,
        "390f35a93cb45fe9478e223564d37e301c406b5128403bcd18fbba478531fe39"),
}


class TestGluingIds:
    @pytest.mark.parametrize("name", sorted(GLUINGS))
    def test_documents_are_pinned(self, name):
        build, expected = GLUINGS[name]
        assert _digest(build()) == expected


# -- the collage guards -------------------------------------------------------


def _planted(A_morphisms, elements, ract_image=None):
    """A bimodule from A (objects a, a2) to the terminal category on b, with elements at (a, b) acted on trivially, except that
    the identity of b sends each element to ract_image when given."""
    ids = {m for m, _, _ in A_morphisms}
    A = FiniteCategory(["a", "a2"], A_morphisms, {"a": "id_a", "a2": "id_a2"},
                       {(g, f): h for g, f, h in (
                           ("id_a", "id_a", "id_a"), ("id_a2", "id_a2", "id_a2"),
                           ("x:a>b", "id_a", "x:a>b"),
                           ("id_a2", "x:a>b", "x:a>b"))
                        if g in ids and f in ids})
    B = core.relabel(core.terminal(), {"*": "b"}, {"id": "id_b"})
    lact = {(alpha, "b"): {} for alpha in A.morphisms}
    lact[("id_a", "b")] = {x: x for x in elements}
    ract = {("a", "id_b"): {x: ract_image or x for x in elements},
            ("a2", "id_b"): {}}
    return corrs.Profunctor(A, B, {("a", "b"): elements, ("a2", "b"): ()},
                            lact, ract)


OBJECTS_A = [("id_a", "a", "a"), ("id_a2", "a2", "a2")]


class TestCollageGuards:
    """A collage is not validated in full unless one of its guards fails,
    and then the full validator's report is raised: the messages below
    are those of the collage that validated every total."""

    def test_cross_id_equal_to_a_fiber_morphism_id(self):
        with pytest.raises(core.CategoryError) as err:
            corrs.collage(_planted(OBJECTS_A + [("x:a>b", "a", "a2")], ("x",)))
        assert str(err.value) == (
            "duplicate morphism ids; composition defined on non-composable "
            "pair (id_a2,x:a>b)")

    def test_repeated_element_id(self):
        with pytest.raises(core.CategoryError) as err:
            corrs.collage(_planted(OBJECTS_A, ("x", "x")))
        assert str(err.value) == "duplicate morphism ids"

    def test_action_escaping_the_elements(self):
        with pytest.raises(core.CategoryError) as err:
            corrs.collage(_planted(OBJECTS_A, ("x",), ract_image="y"))
        assert str(err.value) == "composite of (id_b,x:a>b) is unknown: y:a>b"

    def test_a_collage_that_passes_the_guards_is_not_validated(
            self, monkeypatch):
        P = _planted(OBJECTS_A, ("x",))
        calls = []
        real = core.validate_category
        monkeypatch.setattr(core, "validate_category",
                            lambda *a: calls.append(a) or real(*a))
        c = corrs.collage(P)
        assert calls == []
        assert real(c.total.objects, c.total.morphism_triples(),
                    c.total.identity, c.total.composition_table()) == []
