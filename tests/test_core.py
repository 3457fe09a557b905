import gc
import hashlib
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from fibcat import core, correspondences as corrs, documents as docs
from fibcat import fibrations, fixtures, randgen, transport
from fibcat.core import CategoryError, FiniteCategory


def table_of(C):
    return (C.objects, C.morphism_triples(), C.identity, C.composition_table())


def assert_valid(C):
    assert core.validate_category(*table_of(C)) == []


class TestValidation:
    def test_interval_is_valid(self):
        assert_valid(core.interval(1))

    def test_planted_bad_composite_is_reported(self):
        C = core.interval(2)
        comp = C.composition_table()
        comp[("1->2", "0->1")] = "0->1"  # wrong endpoints
        report = core.validate_category(C.objects, C.morphism_triples(),
                                        C.identity, comp)
        assert any("1->2" in line and "0->1" in line for line in report)

    def test_missing_composite_is_reported(self):
        C = core.interval(2)
        comp = C.composition_table()
        del comp[("1->2", "0->1")]
        report = core.validate_category(C.objects, C.morphism_triples(),
                                        C.identity, comp)
        assert any("missing composite" in line for line in report)

    def test_retract_category_validates(self):
        # handwritten 5-morphism table: s, r with r∘s = id
        assert_valid(core.retract_category())

    def test_constructor_rejects_broken_unit(self):
        with pytest.raises(CategoryError):
            FiniteCategory(
                ["x"], [("id", "x", "x"), ("f", "x", "x")], {"x": "id"},
                {("id", "id"): "id", ("id", "f"): "id",
                 ("f", "id"): "f", ("f", "f"): "f"})


# -- all-pairs oracles for the structural validators --------------------------
#
# validate_category and Functor._validate walk composable pairs and triples
# through a by-source index.  These are the all-pairs loops they replaced:
# every pair (f, g), and for each composable pair every h, is scanned and
# the non-composable ones are skipped.  Their report order follows set
# iteration, so reports are compared sorted.


def all_pairs_validate_category(objects, morphisms, identities, composition):
    report = []
    obj_set = set(objects)
    if len(obj_set) != len(objects):
        report.append("duplicate object ids")
    mor_ids = [m for m, _, _ in morphisms]
    if len(set(mor_ids)) != len(mor_ids):
        report.append("duplicate morphism ids")
    src = {m: s for m, s, _ in morphisms}
    tgt = {m: t for m, _, t in morphisms}
    for m, s, t in morphisms:
        if s not in obj_set:
            report.append(f"morphism {m} has unknown source {s}")
        if t not in obj_set:
            report.append(f"morphism {m} has unknown target {t}")
    for x in objects:
        i = identities.get(x)
        if i is None:
            report.append(f"object {x} has no identity")
        elif i not in src:
            report.append(f"identity of {x} is not a morphism: {i}")
        elif not (src[i] == x and tgt[i] == x):
            report.append(f"identity of {x} is not an endomorphism: {i}")
    mor_set = set(src)
    for (g, f), h in composition.items():
        if g not in mor_set or f not in mor_set:
            report.append(f"composition of unknown morphisms ({g},{f})")
            continue
        if tgt[f] != src[g]:
            report.append(f"composition defined on non-composable pair ({g},{f})")
            continue
        if h not in mor_set:
            report.append(f"composite of ({g},{f}) is unknown: {h}")
        elif not (src[h] == src[f] and tgt[h] == tgt[g]):
            report.append(f"composite of ({g},{f}) has wrong endpoints: {h}")
    for f in mor_set:
        for g in mor_set:
            if tgt.get(f) == src.get(g) and (g, f) not in composition:
                report.append(f"missing composite for pair ({g},{f})")
    if report:
        return report
    for f in mor_set:
        if composition[(identities[tgt[f]], f)] != f:
            report.append(f"left unit law fails at {f}")
        if composition[(f, identities[src[f]])] != f:
            report.append(f"right unit law fails at {f}")
    for f in mor_set:
        for g in mor_set:
            if tgt[f] != src[g]:
                continue
            gf = composition[(g, f)]
            for h in mor_set:
                if tgt[g] != src[h]:
                    continue
                hg = composition[(h, g)]
                if composition[(h, gf)] != composition[(hg, f)]:
                    report.append(f"associativity fails on ({h},{g},{f})")
    return report


def all_pairs_functor_error(F):
    """The text of the FunctorError that F's first violation raises, or
    None when F is a functor."""
    C, D = F.source, F.target
    for x in C.objects:
        if F.ob_map.get(x) not in D.identity:
            return f"object {x} not mapped to an object: {F.ob_map.get(x)}"
    for m in C.morphisms:
        fm = F.mor_map.get(m)
        if fm not in D.src:
            return f"morphism {m} not mapped to a morphism: {fm}"
        if D.src[fm] != F.ob_map[C.src[m]] or D.tgt[fm] != F.ob_map[C.tgt[m]]:
            return f"morphism {m} has incompatible image {fm}"
    for x in C.objects:
        if F.mor_map[C.identity[x]] != D.identity[F.ob_map[x]]:
            return f"identity of {x} not preserved"
    for f in C.morphisms:
        for g in C.morphisms:
            if C.tgt[f] != C.src[g]:
                continue
            if F.mor_map[C.compose(g, f)] != D.compose(F.mor_map[g],
                                                        F.mor_map[f]):
                return f"composition not preserved on ({g},{f})"
    return None


def functor_error(F):
    try:
        F._validate()
    except core.FunctorError as exc:
        return str(exc)
    return None


def assert_reports_agree(table):
    report = core.validate_category(*table)
    assert sorted(report) == sorted(all_pairs_validate_category(*table))
    return report


def table_of_doc(doc):
    """The raw table of a category document, defects included."""
    return (doc["objects"],
            [(m["id"], m["src"], m["tgt"]) for m in doc["morphisms"]],
            dict(doc["identities"]),
            {(g, f): h for g, f, h in doc["compose"]})


def docs_of_type(doc, kind):
    """Every sub-document of the given type, depth first."""
    if isinstance(doc, dict):
        if doc.get("type") == kind:
            yield doc
        for value in doc.values():
            yield from docs_of_type(value, kind)
    elif isinstance(doc, list):
        for value in doc:
            yield from docs_of_type(value, kind)


def redirected(F, m, image):
    mor_map = dict(F.mor_map)
    mor_map[m] = image
    return core.Functor(F.source, F.target, F.ob_map, mor_map, _validate=False)


class TestIndexedValidationOracle:
    def test_fixture_categories(self):
        seen = defects = 0
        for name, doc in sorted(fixtures.build_fixtures().items()):
            for cat in docs_of_type(doc, "category"):
                seen += 1
                if assert_reports_agree(table_of_doc(cat)):
                    defects += 1
        assert (seen, defects) == (33, 2)

    def test_fixture_functors(self):
        seen = 0
        for name, doc in sorted(fixtures.build_fixtures().items()):
            for fdoc in docs_of_type(doc, "functor"):
                F = core.Functor(docs.category_from_doc(fdoc["source"]),
                                 docs.category_from_doc(fdoc["target"]),
                                 fdoc["object_map"], fdoc["morphism_map"],
                                 _validate=False)
                assert functor_error(F) == all_pairs_functor_error(F) is None
                seen += 1
        assert seen == 7

    @pytest.mark.parametrize("seed", range(8))
    def test_random_categories_and_functors(self, seed):
        rng = random.Random(seed)
        C = randgen.random_category(rng, 4, 12, prefix="c.")
        D = randgen.random_category(rng, 3, 10, prefix="d.")
        for cat in (C, D, core.product(C, D)):
            assert assert_reports_agree(table_of(cat)) == []
        F = randgen.random_functor_between(rng, C, D)
        assert functor_error(F) == all_pairs_functor_error(F) is None
        # one redirected morphism image
        for F in (F, core.identity_functor(C), core.identity_functor(D)):
            for m in F.source.non_identity_morphisms():
                for other in F.target.morphisms:
                    if other != F.mor_map[m]:
                        G = redirected(F, m, other)
                        assert functor_error(G) == all_pairs_functor_error(G)

    def test_dropped_composite(self):
        C = core.interval(3)
        comp = C.composition_table()
        del comp[("1->2", "0->1")]
        report = assert_reports_agree(
            (C.objects, C.morphism_triples(), C.identity, comp))
        assert report == ["missing composite for pair (1->2,0->1)"]

    def test_composite_with_wrong_endpoints(self):
        C = core.interval(3)
        comp = C.composition_table()
        comp[("1->3", "0->1")] = "0->2"
        report = assert_reports_agree(
            (C.objects, C.morphism_triples(), C.identity, comp))
        assert report == ["composite of (1->3,0->1) has wrong endpoints: 0->2"]

    def test_broken_unit_law(self):
        C = core.cyclic_group_category(4)
        comp = C.composition_table()
        comp[("g0", "g1")] = "g2"
        report = assert_reports_agree(
            (C.objects, C.morphism_triples(), C.identity, comp))
        assert "left unit law fails at g1" in report

    def test_broken_associativity(self):
        C = core.cyclic_group_category(5)
        comp = C.composition_table()
        comp[("g1", "g2")], comp[("g1", "g3")] = \
            comp[("g1", "g3")], comp[("g1", "g2")]
        report = assert_reports_agree(
            (C.objects, C.morphism_triples(), C.identity, comp))
        assert report and all(line.startswith("associativity fails on ")
                              for line in report)

    # validate_category walks the composable pairs for a missing
    # composite only when the table has fewer keys than there are such
    # pairs, or has a fault already

    def test_missing_composite_beside_a_stray_key(self):
        C = core.interval(3)
        for stray in [("0->1", "1->2"), ("nope", "0->1")]:
            comp = C.composition_table()
            del comp[("1->2", "0->1")]
            comp[stray] = "0->2"
            pairs = sum(C.tgt[f] == C.src[g]
                        for f in C.morphisms for g in C.morphisms)
            assert len(comp) == pairs
            report = assert_reports_agree(
                (C.objects, C.morphism_triples(), C.identity, comp))
            assert report == [
                "composition defined on non-composable pair (0->1,1->2)"
                if stray[0] == "0->1" else
                "composition of unknown morphisms (nope,0->1)",
                "missing composite for pair (1->2,0->1)"]

    @pytest.mark.parametrize("name", ["thin", "dense"])
    def test_one_composite_missing(self, name):
        # Ar([3]) has at most one morphism per hom-set; Z/4 x [1] has
        # four in most and a composite for nearly every pair
        C = (core.arrow_category(core.interval(3))[0] if name == "thin"
             else core.product(core.cyclic_group_category(4),
                               core.interval(1)))
        comp = C.composition_table()
        for g, f in sorted(comp)[::7]:
            if f in C.identity.values() or g in C.identity.values():
                continue
            missing = dict(comp)
            del missing[(g, f)]
            report = assert_reports_agree(
                (C.objects, C.morphism_triples(), C.identity, missing))
            assert report == [f"missing composite for pair ({g},{f})"]

    def test_redirected_morphism_image(self):
        Z = core.cyclic_group_category(4)
        F = redirected(core.identity_functor(Z), "g1", "g3")
        assert functor_error(F) == all_pairs_functor_error(F) == \
            "composition not preserved on (g2,g1)"
        I2 = core.interval(2)
        inc = core.inclusion_functor(core.full_subcategory(I2, ["0", "2"]), I2)
        G = redirected(inc, "0->2", "0->1")
        assert functor_error(G) == all_pairs_functor_error(G) == \
            "morphism 0->2 has incompatible image 0->1"


# -- the law loops that thin tables skip, kept as oracles ---------------------
#
# A thin category has at most one morphism per hom-set, so once endpoints
# are right its unit and associativity laws cannot fail: validate_category
# and Functor._validate skip their law loops there.  These are the indexed
# validators as they were before, law loops included on every table.  The
# report order is the same, so reports are compared as they are.


def law_walking_validate_category(objects, morphisms, identities,
                                  composition):
    report = []
    obj_set = set(objects)
    if len(obj_set) != len(objects):
        report.append("duplicate object ids")
    mor_ids = [m for m, _, _ in morphisms]
    if len(set(mor_ids)) != len(mor_ids):
        report.append("duplicate morphism ids")
    src = {m: s for m, s, _ in morphisms}
    tgt = {m: t for m, _, t in morphisms}
    for m, s, t in morphisms:
        if s not in obj_set:
            report.append(f"morphism {m} has unknown source {s}")
        if t not in obj_set:
            report.append(f"morphism {m} has unknown target {t}")
    for x in objects:
        i = identities.get(x)
        if i is None:
            report.append(f"object {x} has no identity")
        elif i not in src:
            report.append(f"identity of {x} is not a morphism: {i}")
        elif not (src[i] == x and tgt[i] == x):
            report.append(f"identity of {x} is not an endomorphism: {i}")
    for (g, f), h in composition.items():
        if g not in src or f not in src:
            report.append(f"composition of unknown morphisms ({g},{f})")
            continue
        if tgt[f] != src[g]:
            report.append(f"composition defined on non-composable pair ({g},{f})")
            continue
        if h not in src:
            report.append(f"composite of ({g},{f}) is unknown: {h}")
        elif not (src[h] == src[f] and tgt[h] == tgt[g]):
            report.append(f"composite of ({g},{f}) has wrong endpoints: {h}")
    mors = sorted(src)
    out_of = {}
    for m in mors:
        out_of.setdefault(src[m], []).append(m)
    for f in mors:
        for g in out_of.get(tgt[f], ()):
            if (g, f) not in composition:
                report.append(f"missing composite for pair ({g},{f})")
    if report:
        return report
    for f in mors:
        if composition[(identities[tgt[f]], f)] != f:
            report.append(f"left unit law fails at {f}")
        if composition[(f, identities[src[f]])] != f:
            report.append(f"right unit law fails at {f}")
    for f in mors:
        for g in out_of[tgt[f]]:
            gf = composition[(g, f)]
            for h in out_of[tgt[g]]:
                if composition[(h, gf)] != composition[(composition[(h, g)], f)]:
                    report.append(f"associativity fails on ({h},{g},{f})")
    return report


def law_walking_functor_error(F):
    """As functor_error, with the composition loop run on every target."""
    C, D = F.source, F.target
    try:
        core.Functor._validate(F)
    except core.FunctorError as exc:
        return str(exc)
    for f in C.morphisms:
        for g in C._from[C.tgt[f]]:
            if F.mor_map[C.compose(g, f)] != D.compose(F.mor_map[g],
                                                       F.mor_map[f]):
                return f"composition not preserved on ({g},{f})"
    return None


def is_thin(C):
    return len(C._hom) == len(C.morphisms)


def assert_law_walk_agrees(table):
    report = core.validate_category(*table)
    assert report == law_walking_validate_category(*table)
    return report


def planted_poset_defects(P):
    """(label, table) for each planted defect of the poset P: a composite
    with wrong endpoints, a missing composite, and an identity that is
    not an endomorphism."""
    comp = P.composition_table()
    for (g, f), h in sorted(comp.items()):
        if not (P.is_identity(g) or P.is_identity(f)):
            bad = dict(comp)
            bad[(g, f)] = f
            yield "wrong endpoints", (P.objects, P.morphism_triples(),
                                      P.identity, bad)
            missing = dict(comp)
            del missing[(g, f)]
            yield "missing", (P.objects, P.morphism_triples(), P.identity,
                              missing)
    for m in P.non_identity_morphisms():
        identities = dict(P.identity)
        identities[P.src[m]] = m
        yield "not an endomorphism", (P.objects, P.morphism_triples(),
                                      identities, comp)


class TestThinTablesSkipOnlyLawsThatCannotFail:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_thin_and_dense_categories_and_functors(self, seed):
        rng = random.Random(seed)
        P = randgen.random_poset(rng, 5, prefix="p")
        C = randgen.random_category(rng, 4, 12, prefix="c.")
        Z = core.cyclic_group_category(rng.randint(2, 4))
        assert is_thin(P) and not is_thin(Z)
        for cat in (P, C, Z, core.product(P, C), core.arrow_category(P)[0]):
            assert assert_law_walk_agrees(table_of(cat)) == []
        for source in (P, C, Z):
            for target in (P, C, Z):
                F = randgen.random_functor_between(rng, source, target)
                assert functor_error(F) == law_walking_functor_error(F) is None
                for m in source.non_identity_morphisms():
                    for image in target.morphisms:
                        G = redirected(F, m, image)
                        assert functor_error(G) == law_walking_functor_error(G)

    @pytest.mark.parametrize("seed", range(6))
    def test_planted_defects_in_posets(self, seed):
        rng = random.Random(seed)
        P = randgen.random_poset(rng, 4, edge_p=0.8, prefix="p")
        P = core.disjoint_union(P, core.interval(2))
        kinds = set()
        for label, table in planted_poset_defects(P):
            report = assert_law_walk_agrees(table)
            assert report, label
            kinds.add(label)
        assert kinds == {"wrong endpoints", "missing", "not an endomorphism"}

    def test_thin_target_still_checks_endpoints_and_identities(self):
        I2 = core.interval(2)
        inc = core.inclusion_functor(core.full_subcategory(I2, ["0", "2"]), I2)
        assert functor_error(redirected(inc, "0->0", "0->2")) == \
            law_walking_functor_error(redirected(inc, "0->0", "0->2")) == \
            "morphism 0->0 has incompatible image 0->2"


class TestBuilders:
    def test_interval_shape(self):
        for n in range(4):
            C = core.interval(n)
            assert len(C.objects) == n + 1
            assert len(C.morphisms) == (n + 1) * (n + 2) // 2

    def test_retract_relations(self):
        R = core.retract_category()
        assert R.compose("r", "s") == "id_x"
        assert R.compose("s", "r") == "e"
        assert R.compose("e", "e") == "e"

    def test_walking_iso_is_groupoid(self):
        W = core.walking_isomorphism()
        assert set(W.isomorphisms()) == set(W.morphisms)

    def test_idempotent_category(self):
        I = core.idempotent_category()
        assert I.compose("e", "e") == "e"
        assert not I.is_iso("e")

    def test_fixed_builders_are_shared(self):
        assert core.terminal() is core.terminal()
        for n in range(4):
            assert core.interval(n) is core.interval(n)
            assert core.interval(n) == core.poset_from_order(
                [str(i) for i in range(n + 1)], lambda a, b: int(a) <= int(b))


class TestDuality:
    @given(st.integers(min_value=0, max_value=3))
    def test_opposite_interval_is_interval(self, n):
        C = core.interval(n)
        assert len(core.opposite(C).morphisms) == len(C.morphisms)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_opposite_is_an_involution(self, seed):
        C = randgen.random_category(random.Random(seed))
        assert core.opposite(core.opposite(C)) == C

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_opposite_of_product_is_product_of_opposites(self, seed):
        rng = random.Random(seed)
        C = randgen.random_category(rng, max_objects=2, max_morphisms=5)
        D = randgen.random_category(rng, max_objects=2, max_morphisms=5,
                                    prefix="d.")
        assert core.opposite(core.product(C, D)) == \
            core.product(core.opposite(C), core.opposite(D))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_opposite_slice_is_coslice_of_opposite(self, seed):
        # isomorphic by the explicit direction swap on morphism encodings
        rng = random.Random(seed)
        C = randgen.random_category(rng, max_objects=3, max_morphisms=8)
        x = rng.choice(list(C.objects))
        sl, sl_forget = core.slice_category(C, x)
        op_sl = core.opposite(sl)
        co, _ = core.coslice_category(core.opposite(C), x)
        ob_map = {f: f for f in op_sl.objects}
        mor_map = {}
        for m in op_sl.morphisms:
            f, g = op_sl.src[m], op_sl.tgt[m]  # m was g -> f in the slice
            u = sl_forget.mor_map[m]
            mor_map[m] = core._square_id(u, "id", f, g)
        iso = core.Functor(op_sl, co, ob_map, mor_map)
        assert iso.is_isomorphism()


    def test_an_opposite_does_not_keep_its_functor_alive(self):
        # F keeps F^op, and F^op refers back to F weakly: without the
        # cyclic collector, dropping F frees it
        I1 = core.interval(1)
        pi = core.Functor(I1, I1, {"0": "0", "1": "1"},
                          {m: m for m in I1.morphisms})
        assert core.opposite_functor(core.opposite_functor(pi)) is pi
        gc.disable()
        try:
            dead = weakref.ref(pi)
            del pi
            assert dead() is None
        finally:
            gc.enable()


class TestProductsAndPullbacks:
    def test_product_of_intervals(self):
        P = core.product(core.interval(1), core.interval(1))
        assert len(P.objects) == 4
        assert len(P.morphisms) == 9
        assert_valid(P)

    def test_pullback_along_identity_is_diagonal(self):
        C = core.interval(2)
        sq = core.pullback(core.identity_functor(C), core.identity_functor(C))
        assert len(sq.total.objects) == len(C.objects)
        assert len(sq.total.morphisms) == len(C.morphisms)

    def test_middle_fiber_of_outer_inclusion_is_empty(self):
        I2 = core.interval(2)
        sub = core.full_subcategory(I2, ["0", "2"])
        inc = core.inclusion_functor(sub, I2)
        sq = core.pullback(core.point(I2, "1"), inc)
        assert sq.total.objects == ()

    def test_fiber_of_arrow_evaluation(self):
        Ar, ev_s, ev_t = core.arrow_category(core.interval(1))
        fib = core.fiber(ev_t, "1")
        assert len(fib.objects) == 2
        assert len(fib.non_identity_morphisms()) == 1

    def test_projections_of_unbalanced_ids_map_every_object(self):
        # the one object is the pair id "((x,y))"
        A = core.discrete_category(["(x"])
        B = core.discrete_category(["y)"])
        T = core.terminal()
        sq = core.pullback(core.constant_functor(A, T, "*"),
                           core.constant_functor(B, T, "*"))
        _, pr1, pr2 = core.product_projections(A, B)
        for proj, target in ((sq.to_left, A), (sq.to_right, B),
                             (pr1, A), (pr2, B)):
            assert proj.target == target
            assert len(proj.ob_map) == len(proj.source.objects) == 1
            proj._validate()

    def test_colliding_object_ids_are_refused(self):
        # ("a", "b,c") and ("a,b", "c") both print as "(a,b,c)": the product
        # listed 4 objects of which only 3 were distinct
        with pytest.raises(core.PreconditionError) as exc:
            core.product(core.discrete_category(["a", "a,b"]),
                         core.discrete_category(["c", "b,c"]))
        assert exc.value.witness == [("a", "b,c"), ("a,b", "c")]
        assert "share the object id (a,b,c)" in str(exc.value)

    def test_colliding_morphism_ids_are_refused(self):
        # the object pairs are distinct, the identity pairs are not
        A = core.relabel(core.discrete_category(["x", "y"]),
                         morphism_map={"id_x": "a", "id_y": "a,b"})
        B = core.relabel(core.discrete_category(["w", "z"]),
                         morphism_map={"id_w": "c", "id_z": "b,c"})
        with pytest.raises(core.PreconditionError) as exc:
            core.product(A, B)
        assert exc.value.witness == [("a", "b,c"), ("a,b", "c")]
        assert "share the morphism id (a,b,c)" in str(exc.value)

    def test_pullback_universal_property(self):
        # cones from every small test category factor uniquely
        rng = random.Random(5)
        I2 = core.interval(2)
        F = core.point(I2, "1")
        Ar, ev_s, ev_t = core.arrow_category(I2)
        sq = core.pullback(F, ev_t)
        for J in [core.terminal(), core.interval(1), core.interval(3),
                  core.discrete_category(["j0", "j1"]),
                  core.disjoint_union(core.prefix_relabel(core.interval(1),
                                                          "u."),
                                      core.discrete_category(["j2", "j3"]))]:
            for u in core.all_functors(J, F.source):
                for v in core.all_functors(J, ev_t.source):
                    if {x: F.ob_map[u.ob_map[x]] for x in J.objects} != \
                            {x: ev_t.ob_map[v.ob_map[x]] for x in J.objects}:
                        continue
                    if any(F.mor_map[u.mor_map[m]] != ev_t.mor_map[v.mor_map[m]]
                           for m in J.morphisms):
                        continue
                    cones = [w for w in core.all_functors(J, sq.total)
                             if w.then(sq.to_left) == u and
                             w.then(sq.to_right) == v]
                    assert len(cones) == 1


class TestSlicesAndCommas:
    def test_slice_at_top_is_whole_interval(self):
        sl, _ = core.slice_category(core.interval(2), "2")
        assert len(sl.objects) == 3
        assert len(sl.morphisms) == 6

    def test_coslice_in_the_middle(self):
        co, _ = core.coslice_category(core.interval(2), "1")
        assert co.objects == ("1->1", "1->2")

    def test_comma_specializes_to_coslice(self):
        I1 = core.interval(1)
        cm, _, _ = core.comma(core.point(I1, "1"), core.identity_functor(I1))
        assert len(cm.objects) == 1

    def test_colliding_comma_object_ids_are_refused(self):
        # ("a", "b,c", "id") and ("a,b", "c", "id") both print as
        # "(a,b,c,id)": the comma had 3 objects where 4 are distinct
        T = core.terminal()
        F = core.constant_functor(core.discrete_category(["a", "a,b"]), T, "*")
        G = core.constant_functor(core.discrete_category(["b,c", "c"]), T, "*")
        with pytest.raises(core.PreconditionError) as exc:
            core.comma(F, G)
        assert exc.value.witness == [("a", "b,c", "id"), ("a,b", "c", "id")]
        assert "share the object id (a,b,c,id)" in str(exc.value)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_slice_and_comma_outputs_validate(self, seed):
        rng = random.Random(seed)
        C = randgen.random_category(rng, max_objects=3, max_morphisms=8)
        x = rng.choice(list(C.objects))
        sl, forget = core.slice_category(C, x)
        assert_valid(sl)
        cm, _, _ = core.comma(core.identity_functor(C), core.point(C, x))
        assert_valid(cm)


# -- the hand-built slices that square_category replaced, kept as oracles ----


def _tri_id(u, a, b):
    return f"({u}:{a}>{b})"


def oracle_slice_category(C, x):
    objects = sorted(C.morphisms_to(x))
    morphisms = []
    composition = {}
    homs = {}
    for f in objects:
        for g in objects:
            for u in C.hom(C.src[f], C.src[g]):
                if C.compose(g, u) == f:
                    m = _tri_id(u, f, g)
                    morphisms.append((m, f, g))
                    homs[m] = u
    identities = {f: _tri_id(C.identity[C.src[f]], f, f) for f in objects}
    for m, f, g in morphisms:
        for m2, g2, h in morphisms:
            if g == g2:
                composition[(m2, m)] = _tri_id(C.compose(homs[m2], homs[m]),
                                               f, h)
    cat = FiniteCategory(objects, morphisms, identities, composition,
                         _validate=False)
    forget = core.Functor(cat, C, {f: C.src[f] for f in objects},
                          {m: homs[m] for m, _, _ in morphisms},
                          _validate=False)
    return cat, forget


def oracle_coslice_category(C, x):
    objects = sorted(C.morphisms_from(x))
    morphisms = []
    composition = {}
    homs = {}
    for f in objects:
        for g in objects:
            for u in C.hom(C.tgt[f], C.tgt[g]):
                if C.compose(u, f) == g:
                    m = _tri_id(u, f, g)
                    morphisms.append((m, f, g))
                    homs[m] = u
    identities = {f: _tri_id(C.identity[C.tgt[f]], f, f) for f in objects}
    for m, f, g in morphisms:
        for m2, g2, h in morphisms:
            if g == g2:
                composition[(m2, m)] = _tri_id(C.compose(homs[m2], homs[m]),
                                               f, h)
    cat = FiniteCategory(objects, morphisms, identities, composition,
                         _validate=False)
    forget = core.Functor(cat, C, {f: C.tgt[f] for f in objects},
                          {m: homs[m] for m, _, _ in morphisms},
                          _validate=False)
    return cat, forget


def assert_isomorphic_by_leg(old, old_forget, new, new_forget):
    """old ≅ new by the identity on objects and m |-> (u,id):f>g on
    morphisms, u the leg of m in the common base; the forgetful functors
    agree along it."""
    assert_valid(new)
    mor_map = {m: core._square_id(old_forget.mor_map[m], "id", old.src[m],
                                  old.tgt[m]) for m in old.morphisms}
    iso = core.Functor(old, new, {o: o for o in old.objects}, mor_map)
    assert iso.is_isomorphism()
    assert iso.then(new_forget) == old_forget


class TestSlicesMatchTheirOracles:
    def test_slices_and_coslices_over_random_draws(self):
        seen = 0
        for i in range(200):
            rng = random.Random(f"slices:{i}")
            C = randgen.random_category(rng, 4, 10)
            for x in C.objects:
                for build, oracle in ((core.slice_category,
                                       oracle_slice_category),
                                      (core.coslice_category,
                                       oracle_coslice_category)):
                    new, new_forget = build(C, x)
                    old, old_forget = oracle(C, x)
                    assert_isomorphic_by_leg(old, old_forget, new, new_forget)
                    seen += len(new.non_identity_morphisms())
        assert seen > 500


class TestArrowCategories:
    def test_arrow_category_of_point(self):
        Ar, _, _ = core.arrow_category(core.terminal())
        assert len(Ar.objects) == 1 and len(Ar.morphisms) == 1

    def test_arrow_category_of_interval(self):
        Ar, ev_s, ev_t = core.arrow_category(core.interval(1))
        assert len(Ar.objects) == 3
        assert len(Ar.non_identity_morphisms()) == 3
        assert_valid(Ar)

    def test_twisted_arrows_of_interval(self):
        Tw, proj = core.twisted_arrows(core.interval(1))
        assert len(Tw.objects) == 3
        non_id = Tw.non_identity_morphisms()
        assert len(non_id) == 2
        assert {Tw.tgt[m] for m in non_id} == {"0->1"}

    def test_twisted_projection_lands_in_op_times_id(self):
        C = core.interval(2)
        Tw, proj = core.twisted_arrows(C)
        assert proj.target == core.product(core.opposite(C), C)


def _replacement(build):
    # on the functor of fixtures/ev_t_arrow_1.json
    rep = build(core.arrow_category(core.interval(1))[2])
    return rep.projection.source, rep.projection, rep.unit


def _pairing():
    C = core.retract_category()
    Ar, ev_s, ev_t = core.arrow_category(C)
    F = core.pairing_functor(ev_s, ev_t)
    return F.target, F


def _base_change_over_arrow():
    Ar, ev_s, ev_t = core.arrow_category(core.interval(3))
    proj, to_E, total = fibrations.base_change_over_arrow(ev_t, "0->2")
    return total, proj, to_E


def _identity_correspondence():
    c = corrs.identity_correspondence(core.retract_category())
    return c.total, c.projection


def _bifibration(build):
    c = corrs.identity_correspondence(core.interval(1))
    X = build(c)
    return X.total, core.pairing_functor(X.to_left, X.to_right)


def _compose_bifib():
    # a pair whose composite has 10 objects and 36 morphisms
    P01, P12 = randgen.random_composable_profunctors(random.Random(2))
    X, _ = corrs.compose_bifib(corrs.profunctor_to_bifib(P01),
                               corrs.profunctor_to_bifib(P12))
    return X.total, core.pairing_functor(X.to_left, X.to_right)


# Ids of the square-category and pair constructions reach the reports, so
# each construction's category, functor maps and extra data are pinned byte
# for byte: (builder returning (category, *functors or dicts), SHA-256).
SQUARE_CONSTRUCTIONS = {
    "arrow_category": (
        lambda: core.arrow_category(core.interval(2)),
        "ca4a6e5f997fae440556bffa24e002e589d8f0deafb038231fb12cb5b4b417ab"),
    "twisted_arrows": (
        lambda: core.twisted_arrows(core.interval(2)),
        "c765a1475be12deaec207fc76388236d2019fa5a042fda0bd440df8da655cab3"),
    "comma_with_data": (
        lambda: core.comma_with_data(core.point(core.interval(2), "1"),
                                     core.identity_functor(core.interval(2))),
        "624dd07ab03aad976f5b7a77c030713146db33ea79b19c6b91e5845cf90d1f5d"),
    "cocart_replacement": (
        lambda: _replacement(transport.cocart_replacement),
        "2ab4cb27955f186a55c9270da8b284ed4d2a505545186c21cd964cf28e6df32d"),
    "cart_replacement": (
        lambda: _replacement(transport.cart_replacement),
        "594f80a341120738650883a76895c73e914b53f6c4bb0e1412c838fca2c90600"),
    "corr_to_bifib": (
        lambda: _bifibration(corrs.corr_to_bifib),
        "d2e14c218490f9cb77395cdc1a11c07ebeb9ee81fe78243c2c950d7393251044"),
    "profunctor_to_bifib": (
        lambda: _bifibration(lambda c: corrs.profunctor_to_bifib(
            corrs.corr_to_profunctor(c))),
        "bb07859ce051c39579eca80d3730ca90c97d5a7eb2a86a740697c80b35f6b81d"),
    "compose_bifib": (
        _compose_bifib,
        "4ddbb758efb730e6711c08f1de69ac9602a6a420d185b78d58e7176afff1f3f2"),
    "product": (
        lambda: (core.product(core.interval(2), core.retract_category()),),
        "13badb4a5438c87c87ba6c7277a2e26871649e795460653cbe7becbe4bca665f"),
    "product_projections": (
        lambda: core.product_projections(core.retract_category(),
                                         core.interval(2)),
        "961097fe0b48af03daa882cba1728b521f0e0c237a918532bbce1aba47f84b6e"),
    "pairing_functor": (
        _pairing,
        "e2c99a42aed2ff262bacf17067a50b36c4cba7ffcef97ee1c077aa7d9f858d9f"),
    "base_change_over_arrow": (
        _base_change_over_arrow,
        "e683407487afdc1a7c890f79baefdfd4449846242afd7b2728b79bb1d5e40202"),
    "identity_correspondence": (
        _identity_correspondence,
        "26f4806f070144cd1555919b7365aca781463654b11d80118cd4d67af7fcb476"),
}


class TestSquareCategoryIds:
    @pytest.mark.parametrize("name", sorted(SQUARE_CONSTRUCTIONS))
    def test_ids_are_pinned(self, name):
        build, expected = SQUARE_CONSTRUCTIONS[name]
        cat, *rest = build()
        h = hashlib.sha256(docs.dumps(docs.category_to_doc(cat)).encode())
        for x in rest:
            if isinstance(x, core.Functor):
                x = {"ob": x.ob_map, "mor": x.mor_map}
            h.update(docs.dumps(x).encode())
        assert h.hexdigest() == expected


def _named_squares(A, B, ends, commutes):
    """The table of squares as square_category names it, built without
    its guards: each identity and composite id is formatted from its
    legs, in square_category's order, and never looked up."""
    name = "({},{}):{}>{}".format
    morphisms, parts, out = [], {}, {}
    for o1, (a1, b1, d1) in ends.items():
        out[o1] = []
        for u in A.morphisms_from(a1):
            for v in B.morphisms_from(b1):
                for o2, (a2, b2, d2) in ends.items():
                    if (a2, b2) == (A.tgt[u], B.tgt[v]) and \
                            commutes(d1, u, v, d2):
                        m = name(u, v, o1, o2)
                        morphisms.append((m, o1, o2))
                        parts[m] = (u, v)
                        out[o1].append((m, o2))
    identities = {o: name(A.identity[a], B.identity[b], o, o)
                  for o, (a, b, _) in ends.items()}
    composition = {}
    for m, o1, o2 in morphisms:
        u, v = parts[m]
        for m2, o3 in out[o2]:
            u2, v2 = parts[m2]
            composition[(m2, m)] = name(A.compose(u2, u), B.compose(v2, v),
                                        o1, o3)
    return list(ends), morphisms, identities, composition


def _short_steps():
    # the one-step squares of [2] over the point: (1->2)∘(0->1) is missing
    A, T = core.interval(2), core.terminal()
    ends = {x: (x, "*", None) for x in A.objects}
    return A, T, ends, lambda d, u, v, d2: u != "0->2", "composite of"


def _no_identities():
    A, T = core.interval(1), core.terminal()
    ends = {x: (x, "*", None) for x in A.objects}
    return (A, T, ends, lambda d, u, v, d2: not A.is_identity(u),
            "identity of 0 is not a morphism: (0->0,id):0>0")


def _colliding_ids():
    # "(id,id):a>b>c" names both a -> "b>c" and "a>b" -> c
    T = core.terminal()
    ends = {o: ("*", "*", None) for o in ("a", "a>b", "b>c", "c")}
    return T, T, ends, lambda d, u, v, d2: True, "duplicate morphism ids"


class TestSquareCategoryGuards:
    """square_category checks three guards instead of validating; a
    failing guard reports what validate_category says of its table."""

    @pytest.mark.parametrize("planted", [_short_steps, _no_identities,
                                         _colliding_ids])
    def test_planted_defect_raises_the_validation_report(self, planted):
        A, B, ends, commutes, expected = planted()
        report = core.validate_category(
            *_named_squares(A, B, ends, commutes))
        assert any(line.startswith(expected) for line in report)
        with pytest.raises(CategoryError) as exc:
            core.square_category(A, B, ends, commutes)
        assert str(exc.value) == "; ".join(report[:8])

    def test_every_output_is_a_category_over_random_draws(self, monkeypatch):
        # validate_category and Functor._validate stay the oracle for
        # every category of squares the constructions build, whether
        # square_category tests the squares or _bifibration enumerates
        # them from its transports
        built = []

        def check(A, B, ends, commutes, cat, to_A, to_B):
            table = _named_squares(A, B, ends, commutes)
            assert core.validate_category(*table_of(cat)) == []
            assert table_of(cat) == (tuple(sorted(table[0])),
                                     tuple(sorted(table[1])), *table[2:])
            to_A._validate()
            to_B._validate()
            built.append(cat)

        real_squares = core.square_category

        def squares(A, B, ends, commutes):
            cat, to_A, to_B = real_squares(A, B, ends, commutes)
            check(A, B, ends, commutes, cat, to_A, to_B)
            return cat, to_A, to_B

        real_bifibration = corrs._bifibration

        def bifibration(A, B, ends, rho, lam):
            X = real_bifibration(A, B, ends, rho, lam)
            check(A, B, ends,
                  lambda x, alpha, beta, y: rho[(x, beta)] == lam[(y, alpha)],
                  X.total, X.to_left, X.to_right)
            return X

        monkeypatch.setattr(core, "square_category", squares)
        monkeypatch.setattr(corrs, "_bifibration", bifibration)
        draws = 200
        for i in range(draws):
            rng = random.Random(f"squares:{i}")
            C = randgen.random_category(rng, 3, 6)
            core.arrow_category(C)
            core.twisted_arrows(C)
            core.comma(core.point(C, rng.choice(C.objects)),
                       core.identity_functor(C))
            pi = randgen.random_functor_over(
                rng, randgen.random_poset(rng, 3, prefix="k"))
            transport.cocart_replacement(pi)
            transport.cart_replacement(pi)
            P01, P12 = randgen.random_composable_profunctors(rng)
            corrs.compose_bifib(corrs.profunctor_to_bifib(P01),
                                corrs.profunctor_to_bifib(P12))
            corrs.corr_to_bifib(corrs.collage(P01))
        assert len(built) == 9 * draws


class TestFunctorEnumeration:
    def test_functors_interval_to_interval(self):
        I1 = core.interval(1)
        assert len(core.all_functors(I1, I1)) == 3

    def test_sections_of_product_projection_form_arrow_category(self):
        # sections of the identity correspondence are the arrows
        C = core.interval(1)
        P, pr1, pr2 = core.product_projections(C, core.interval(1))
        secs, ids, comps = core.sections_category(
            core.identity_functor(core.interval(1)), pr2)
        Ar, _, _ = core.arrow_category(C)
        assert len(secs.objects) == len(Ar.objects)
        assert len(secs.morphisms) == len(Ar.morphisms)

    def test_enumeration_cap_failure_is_loud(self, monkeypatch):
        monkeypatch.setenv("FIBCAT_ENUM_CAP", "10")
        big = core.discrete_category([f"x{i}" for i in range(8)])
        with pytest.raises(core.EnumerationCapExceeded):
            core.all_functors(big, big)

    def test_enumeration_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("FIBCAT_ENUM_CAP", "10")
        big = core.discrete_category([f"x{i}" for i in range(8)])
        with pytest.raises(core.EnumerationCapExceeded):
            core.all_functors(big, big)
        monkeypatch.delenv("FIBCAT_ENUM_CAP")
        assert core.enumeration_cap() == 10 ** 6

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
    def test_enumeration_cap_must_be_a_positive_integer(self, monkeypatch,
                                                        value):
        monkeypatch.setenv("FIBCAT_ENUM_CAP", value)
        with pytest.raises(core.PreconditionError, match="FIBCAT_ENUM_CAP"):
            core.enumeration_cap()


def discrete_named(ids):
    """The discrete category on the keys of ids, whose identities are
    named by its values."""
    return core.relabel(core.discrete_category(list(ids)), morphism_map={
        f"id_{x}": i for x, i in ids.items()})


class TestFunctorCategoryIds:
    def test_colliding_functor_ids_are_refused(self):
        # (p, q) |-> (a;q:b, c) and (a, b;q:c) both print as
        # <p:a;q:b;q:c|ip:x;iq:y;iq:z>: 16 functors were 15 objects
        C = discrete_named({"p": "ip", "q": "iq"})
        D = discrete_named({"a;q:b": "x;iq:y", "c": "z", "a": "x",
                            "b;q:c": "y;iq:z"})
        T = core.terminal()
        with pytest.raises(core.PreconditionError) as exc:
            core.sections_category(core.constant_functor(C, T, "*"),
                                   core.constant_functor(D, T, "*"))
        first = ({"p": "a", "q": "b;q:c"}, {"ip": "x", "iq": "y;iq:z"})
        second = ({"p": "a;q:b", "q": "c"}, {"ip": "x;iq:y", "iq": "z"})
        assert exc.value.witness == [first, second]
        assert str(exc.value) == (
            f"functors {first} and {second} share the object id "
            "<p:a;q:b;q:c|ip:x;iq:y;iq:z>")

    def test_colliding_transformation_ids_are_refused(self):
        # (p, q) |-> (f;q:g, h) and (f, g;q:h) both print as
        # [p:f;q:g;q:h]: two morphisms of the functor category were one
        C = discrete_named({"p": "ip", "q": "iq"})
        # a left-zero monoid: one object, so every pair is a transformation
        D = core.monoid_category(["1", "f", "f;q:g", "h", "g;q:h"], "1",
                                 lambda x, y: y if x == "1" else x)
        T = core.terminal()
        with pytest.raises(core.PreconditionError) as exc:
            core.sections_category(core.constant_functor(C, T, "*"),
                                   core.constant_functor(D, T, "*"))
        (_, _, first), (_, _, second) = exc.value.witness
        assert (first, second) == ({"p": "f", "q": "g;q:h"},
                                   {"p": "f;q:g", "q": "h"})
        assert "share the morphism id [p:f;q:g;q:h]:<p:*;q:*|" in \
            str(exc.value)


class TestConePoint:
    """core._cone_point against has_initial_object/has_final_object."""

    def test_against_initial_and_final_objects(self):
        found = {True: 0, False: 0}
        for i in range(300):
            rng = random.Random(f"cone:{i}")
            C = randgen.random_category(rng, 4, 9)
            x = core._cone_point(C)
            exists = (fibrations.has_initial_object(C).ok
                      or fibrations.has_final_object(C).ok)
            assert (x is not None) == exists
            if x is not None:
                assert (all(len(C.hom(x, y)) == 1 for y in C.objects)
                        or all(len(C.hom(y, x)) == 1 for y in C.objects))
            found[exists] += 1
        assert min(found.values()) > 20

    def test_examples(self):
        assert core._cone_point(core.interval(3)) == "0"
        assert core._cone_point(core.discrete_category([])) is None
        assert core._cone_point(core.discrete_category(["a", "b"])) is None
        # one object, but two endomorphisms: neither initial nor terminal
        assert core._cone_point(core.cyclic_group_category(2)) is None
        assert core._cone_point(core.walking_isomorphism()) == "a"
