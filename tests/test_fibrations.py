import collections
import contextlib
import io
import random

import pytest

from fibcat import cli, core, documents as docs, fibrations as fib, fixtures
from fibcat import homology, randgen
from fibcat.core import PreconditionError
from test_index import oracle_composable_lifts


def separating_functor_over_2():
    """Locally coCartesian but not exponentiable: fibers {a}, {b}, (c->d),
    step transports a|->b|->d, outer transport a|->c."""
    return functor_from_arrows(
        core.interval(2), {"a": "0", "b": "1", "c": "2", "d": "2"},
        [("w", "c", "d", "2->2"), ("p", "a", "b", "0->1"),
         ("q", "b", "d", "1->2"), ("m", "a", "c", "0->2"),
         ("n", "a", "d", "0->2")],
        # the composite across the outer edge; chosen lifts do not
        # compose to m
        {("w", "m"): "n", ("q", "p"): "n"})


def functor_from_arrows(K, over, arrows, composites=()):
    """A category over K: objects over[e], non-identity arrows
    (id, src, tgt, image) and the composites {(g, f): h} of the composable
    non-identity pairs."""
    identities = {e: f"id_{e}" for e in over}
    morphisms = [(i, e, e) for e, i in identities.items()]
    morphisms += [(m, s, t) for m, s, t, _ in arrows]
    composition = dict(composites)
    for m, s, t in morphisms:
        composition[(m, identities[s])] = m
        composition[(identities[t], m)] = m
    E = core.FiniteCategory(list(over), morphisms, identities, composition)
    mor_map = {i: K.identity[over[e]] for e, i in identities.items()}
    mor_map.update({m: image for m, _, _, image in arrows})
    return core.Functor(E, K, dict(over), mor_map)


class TestCocartesianMorphisms:
    def test_product_lift_with_identity_component(self):
        C = core.interval(1)
        P, pr1, pr2 = core.product_projections(C, core.interval(1))
        f = core.pair_id("0->0", "0->1")
        assert fib.is_cocartesian_morphism(pr2, f).ok

    def test_arrow_evaluation_cocartesian_squares(self):
        K = core.interval(1)
        Ar, ev_s, ev_t = core.arrow_category(K)
        # a square over s->t with identity source component
        good = "(0->0,0->1):0->0>0->1"
        assert fib.is_cocartesian_morphism(ev_t, good).ok
        # the square with non-identity source component is not
        bad = "(0->1,0->1):0->0>1->1"
        assert not fib.is_cocartesian_morphism(ev_t, bad).ok

    def test_witness_names_the_unliftable_pair(self):
        K = core.interval(1)
        Ar, ev_s, ev_t = core.arrow_category(K)
        v = fib.is_cocartesian_morphism(ev_t, "(0->1,0->1):0->0>1->1")
        assert v.witness is not None and "g" in v.witness

    def test_cartesian_morphisms_are_the_dual_notion(self):
        K = core.interval(1)
        Ar, ev_s, ev_t = core.arrow_category(K)
        # squares with identity target component are ev_s-Cartesian
        assert fib.is_cartesian_morphism(ev_s, "(0->1,1->1):0->1>1->1").ok
        assert not fib.is_cartesian_morphism(ev_s, "(0->1,0->1):0->0>1->1").ok

    def test_parallel_cross_morphisms_are_not_cocartesian(self):
        # a non-invertible element with a 2-element comparison set
        from fibcat import correspondences as corrs
        T1 = core.relabel(core.terminal(), {"*": "s*"}, {"id": "s.id"})
        T2 = core.relabel(core.terminal(), {"*": "t*"}, {"id": "t.id"})
        P = corrs.Profunctor(T1, T2, {("s*", "t*"): ("u", "v")},
                             {("s.id", "t*"): {"u": "u", "v": "v"}},
                             {("s*", "t.id"): {"u": "u", "v": "v"}}).validate()
        c = corrs.collage(P)
        for cross in c.cross_morphisms():
            verdict = fib.is_cocartesian_morphism(c.projection, cross)
            assert not verdict.ok
            assert verdict.witness["lifts"] == 0


class TestFibrationCheckers:
    def test_arrow_evaluation_is_cocartesian(self):
        for n in (1, 2):
            Ar, ev_s, ev_t = core.arrow_category(core.interval(n))
            assert fib.is_cocartesian_fibration(ev_t).ok
            assert fib.is_cartesian_fibration(ev_s).ok

    def test_everything_over_a_point_is_cocartesian(self):
        E = core.retract_category()
        pi = core.constant_functor(E, core.terminal(), "*")
        assert fib.is_cocartesian_fibration(pi).ok

    def test_arrow_evaluation_is_not_discrete(self):
        Ar, ev_s, ev_t = core.arrow_category(core.interval(1))
        assert not fib.is_strict_discrete_opfibration(ev_t).ok
        assert not fib.is_left_fibration(ev_t).ok

    def test_identity_is_discrete_both_ways(self):
        C = core.retract_category()
        ident = core.identity_functor(C)
        assert fib.is_strict_discrete_opfibration(ident).ok
        assert fib.is_strict_discrete_fibration(ident).ok

    def test_grothendieck_constructions_are_discrete(self):
        from fibcat import transport
        rng = random.Random(0)
        for _ in range(5):
            K = randgen.random_poset(rng, 3)
            F = randgen.random_set_valued(rng, K)
            assert fib.is_strict_discrete_opfibration(
                transport.unstraighten(F)).ok

    def test_conservativity(self):
        Ar, ev_s, ev_t = core.arrow_category(core.interval(1))
        assert not fib.is_conservative(ev_s).ok
        W = core.walking_isomorphism()
        pi = core.constant_functor(W, core.terminal(), "*")
        assert fib.is_conservative(pi).ok


class TestExponentiability:
    def test_outer_inclusion_rejected_with_empty_factorization(self):
        I2 = core.interval(2)
        inc = core.inclusion_functor(core.full_subcategory(I2, ["0", "2"]), I2)
        v = fib.is_exponentiable(inc)
        assert not v.ok
        assert v.witness["factorizations"] == 0
        assert v.witness["lift"] == "0->2"

    def test_everything_over_the_1_cell(self):
        rng = random.Random(4)
        for _ in range(6):
            pi = randgen.random_functor_over_1(rng)
            assert fib.is_exponentiable(pi).ok

    @pytest.mark.parametrize("n", range(1, 6))
    def test_consecutive_segments(self, n):
        In = core.interval(n)
        for i in range(n + 1):
            for j in range(i, n + 1):
                seg = core.full_subcategory(In, [str(k) for k in range(i, j + 1)])
                assert fib.is_exponentiable(core.inclusion_functor(seg, In)).ok

    def test_functors_to_groupoids(self):
        targets = [core.walking_isomorphism(), core.cyclic_group_category(2)]
        sources = [core.retract_category(), core.interval(2),
                   core.idempotent_category()]
        rng = random.Random(1)
        for G in targets:
            for E in sources:
                F = randgen.random_functor_between(rng, E, G)
                assert fib.is_exponentiable(F).ok

    def test_factorization_category_is_inspectable(self):
        I2 = core.interval(2)
        cat = fib.factorization_category(
            core.identity_functor(I2), "0->1", "1->2", "0->2")
        assert len(cat.objects) == 1

    def test_colliding_factorization_ids_are_refused(self):
        # ("a,b", "c") and ("a", "b,c") both print as "(a,b,c)"
        I2 = core.interval(2)
        over = {"x": "0", "m1": "1", "m2": "1", "y": "2"}
        arrows = [("a,b", "x", "m1", "0->1"), ("a", "x", "m2", "0->1"),
                  ("c", "m1", "y", "1->2"), ("b,c", "m2", "y", "1->2"),
                  ("n", "x", "y", "0->2")]
        composites = {("c", "a,b"): "n", ("b,c", "a"): "n"}
        # disconnected, they fail the coend, which builds no category, in
        # both modes
        pi = functor_from_arrows(I2, over, arrows, composites)
        v = fib.is_exponentiable(pi)
        assert v.witness["factorizations"] == 2
        assert fib.is_exponentiable(pi, certify_dim=2).witness == v.witness
        # joined by a middle-fiber map they pass the coend; merged, the two
        # factorizations would certify as one object
        joined = functor_from_arrows(
            I2, over, arrows + [("w", "m1", "m2", "1->1")],
            {**composites, ("w", "a,b"): "a", ("b,c", "w"): "c"})
        assert fib.is_exponentiable(joined).ok
        with pytest.raises(PreconditionError) as err:
            fib.is_exponentiable(joined, certify_dim=2)
        assert "share the object id (a,b,c)" in str(err.value)
        assert err.value.witness == [("a", "b,c"), ("a,b", "c")]

    def test_homology_certificate_mode(self):
        rng = random.Random(2)
        pi = randgen.random_functor_over_1(rng)
        assert fib.is_exponentiable(pi, certify_dim=2).ok

    def test_certificate_separates_the_connected_from_the_contractible(self):
        # middle fiber a 2-element group acting trivially on singleton
        # cross-homs: every factorization category is that group, which is
        # connected but has nontrivial first homology
        from fibcat import correspondences as corrs
        from fibcat.randgen import category_over_2
        A = core.relabel(core.terminal(), {"*": "a*"}, {"id": "a.id"})
        B = core.prefix_relabel(core.cyclic_group_category(2), "b.")
        C = core.relabel(core.terminal(), {"*": "c*"}, {"id": "c.id"})
        P01 = corrs.Profunctor(
            A, B, {("a*", "b.*"): ("p",)},
            {("a.id", "b.*"): {"p": "p"}},
            {("a*", "b.g0"): {"p": "p"}, ("a*", "b.g1"): {"p": "p"}}
        ).validate()
        P12 = corrs.Profunctor(
            B, C, {("b.*", "c*"): ("q",)},
            {("b.g0", "c*"): {"q": "q"}, ("b.g1", "c*"): {"q": "q"}},
            {("b.*", "c.id"): {"q": "q"}}).validate()
        coend, class_of = corrs.compose_prof(P01, P12)
        pi = category_over_2(P01, P12, coend,
                             lambda a, c, b, x, y: class_of[(a, c, b, x, y)])
        assert fib.is_exponentiable(pi).ok
        v = fib.is_exponentiable(pi, certify_dim=1)
        assert not v.ok
        assert v.witness["certificate_degree"] == 1
        assert v.witness["torsion"][1] == [2]

    def test_certificate_separates_finality_from_contractible_commas(self):
        # connected commas with nontrivial loops: exact at the level of
        # set-valued colimits, refused by the degree-1 certificate
        Z2 = core.cyclic_group_category(2)
        collapse = core.constant_functor(Z2, core.terminal(), "*")
        assert homology.is_final(collapse).ok
        assert not homology.is_final(collapse, certify_dim=1).ok

    def test_composition_closure(self):
        rng = random.Random(8)
        for _ in range(5):
            pi = randgen.random_functor_over_2(rng, max_objects=2,
                                               max_morphisms=4,
                                               max_generators=1)
            if not fib.is_exponentiable(pi).ok:
                continue
            to_1 = core.Functor(core.interval(2), core.interval(1),
                                {"0": "0", "1": "0", "2": "1"},
                                {"0->0": "0->0", "1->1": "0->0",
                                 "2->2": "1->1", "0->1": "0->0",
                                 "0->2": "0->1", "1->2": "0->1"})
            assert fib.is_exponentiable(pi.then(to_1)).ok

    def test_base_change_closure(self):
        rng = random.Random(12)
        for _ in range(5):
            pi = randgen.random_functor_over_2(rng, max_objects=2,
                                               max_morphisms=4,
                                               max_generators=1)
            exp = fib.is_exponentiable(pi).ok
            arrow = fib._arrow_functor(core.interval(2), "0->2")
            proj, _, _ = core.base_change(pi, arrow)
            if exp:
                assert fib.is_exponentiable(proj).ok


class TestSeparatingExample:
    def test_locally_cocartesian_without_exponentiable(self):
        pi = separating_functor_over_2()
        assert fib.is_locally_cocartesian(pi).ok
        v = fib.is_exponentiable(pi)
        assert not v.ok and v.witness["factorizations"] == 0
        assert not fib.is_cocartesian_fibration(pi).ok

    def test_profile_closure_still_holds(self):
        profile = fib.classify(separating_functor_over_2())
        assert profile["locally_cocartesian"] and not profile["cocartesian"]


class TestAdjoints:
    def test_intervals_have_endpoints(self):
        I3 = core.interval(3)
        assert fib.has_initial_object(I3).witness == {"object": "0"}
        assert fib.has_final_object(I3).witness == {"object": "3"}

    def test_tail_inclusion_is_right_adjoint_only(self):
        I2 = core.interval(2)
        inc = core.inclusion_functor(core.full_subcategory(I2, ["1", "2"]), I2)
        r = fib.is_right_adjoint(inc)
        assert r.ok
        assert r.witness["universal"]["0"]["value"] == "1"
        assert not fib.is_left_adjoint(inc).ok

    def test_point_at_final_object_is_final_and_certified(self):
        I2 = core.interval(2)
        pt = core.point(I2, "2")
        assert fib.is_right_adjoint(pt).ok
        assert homology.is_final(pt, certify_dim=2).ok


class TestSectionRestriction:
    def test_identity_restriction(self):
        I1 = core.interval(1)
        P, pr1, pr2 = core.product_projections(I1, I1)
        res = fib.check_section_restriction(
            pr2, core.identity_functor(I1), core.identity_functor(I1))
        assert res["bijective_on_sections"]
        assert res["isomorphism_of_section_categories"]

    def test_discrete_opfibration_against_initial_point(self):
        from fibcat import transport
        from fibcat.homology import SetValuedFunctor
        I1 = core.interval(1)
        F = SetValuedFunctor(I1, {"0": ("a",), "1": ("b", "c")},
                             {"0->0": {"a": "a"},
                              "1->1": {"b": "b", "c": "c"},
                              "0->1": {"a": "c"}}).validate()
        pi = transport.unstraighten(F)
        T = core.terminal()
        sigma = core.point(I1, "0")      # initial object of [1]
        res = fib.check_section_restriction(
            pi, sigma, core.identity_functor(I1))
        assert res["bijective_on_sections"]

    def test_noninjective_restriction_at_the_target_point(self):
        from fibcat import transport
        from fibcat.homology import SetValuedFunctor
        I1 = core.interval(1)
        F = SetValuedFunctor(I1, {"0": ("a", "b"), "1": ("c",)},
                             {"0->0": {"a": "a", "b": "b"},
                              "1->1": {"c": "c"},
                              "0->1": {"a": "c", "b": "c"}}).validate()
        pi = transport.unstraighten(F)
        res = fib.check_section_restriction(
            pi, core.point(I1, "1"), core.identity_functor(I1))
        assert not res["bijective_on_sections"]


class TestClassify:
    def test_arrow_evaluation_profile(self):
        Ar, ev_s, ev_t = core.arrow_category(core.interval(2))
        profile = fib.classify(ev_t)
        assert profile["cocartesian"]
        assert not profile["discrete_opfib"]
        assert profile["exponentiable"]
        assert profile["left_final"]

    def test_product_projection_profile(self):
        C = core.interval(1)
        P, pr1, pr2 = core.product_projections(C, core.interval(1))
        profile = fib.classify(pr2)
        assert profile["cocartesian"] and profile["cartesian"]
        assert profile["left_final"] and profile["right_initial"]
        assert not profile["discrete_opfib"]  # fibers have a non-identity

    def test_collage_of_empty_profunctor_profile(self):
        from fibcat import correspondences as corrs
        A = core.prefix_relabel(core.interval(1), "a.")
        B = core.prefix_relabel(core.terminal(), "b.")
        c = corrs.collage(corrs.empty_profunctor(A, B))
        profile = fib.classify(c.projection)
        assert profile["exponentiable"]
        assert not profile["locally_cocartesian"]

    def test_implication_closure_on_random_suite(self):
        rng = random.Random(42)
        for i in range(30):
            n = rng.choice([1, 2, 3])
            if n == 1:
                pi = randgen.random_functor_over_1(rng)
            elif n == 2:
                pi = randgen.random_functor_over_2(
                    rng, max_objects=2, max_morphisms=4, max_generators=1)
            else:
                pi = randgen.random_functor_over(rng, core.interval(3))
            if len(pi.source.morphisms) > 12:
                continue
            fib.classify(pi)  # raises InternalInvariantError on violation

    def test_cocartesian_checks_run_once_per_side(self, monkeypatch):
        Ar, ev_s, ev_t = core.arrow_category(core.interval(2))
        cases = [ev_t, ev_s, separating_functor_over_2()]
        original = fib.is_cocartesian_fibration
        calls = []
        monkeypatch.setattr(fib, "is_cocartesian_fibration",
                            lambda pi: calls.append(pi) or original(pi))
        profiles = []
        for pi in cases:
            calls.clear()
            profiles.append(fib.classify(pi))
            # one check on pi and one on op(pi)
            assert [c.source for c in calls] == [
                pi.source, core.opposite(pi.source)]
        monkeypatch.undo()
        for pi, profile in zip(cases, profiles):
            for key, check in (("discrete_opfib", fib.is_left_fibration),
                               ("discrete_fib", fib.is_right_fibration)):
                v = check(pi)
                assert profile[key] == v.ok
                assert profile.witnesses.get(key) == v.witness

    def test_cartesian_checks_share_one_opposite(self, monkeypatch):
        Ar, ev_s, ev_t = core.arrow_category(core.interval(2))
        # the right-initial end check reads the same opposite; the collage
        # of an empty bimodule is exponentiable but not right initial
        from fibcat import correspondences as corrs
        empty = corrs.collage(corrs.empty_profunctor(
            core.prefix_relabel(core.interval(1), "a."),
            core.prefix_relabel(core.terminal(), "b."))).projection
        cases = [ev_t, ev_s, separating_functor_over_2(), empty]
        original = core.opposite
        calls = []
        monkeypatch.setattr(core, "opposite",
                            lambda C: calls.append(C) or original(C))
        profiles = []
        for pi in cases:
            calls.clear()
            profiles.append(fib.classify(pi))
            # op(pi), once: its source and its target
            assert calls == [pi.source, pi.target]
            calls.clear()
            assert fib.classify(pi).verdicts == profiles[-1].verdicts
            assert calls == []
            assert core.opposite_functor(core.opposite_functor(pi)) is pi
        monkeypatch.undo()
        for pi, profile in zip(cases, profiles):
            for key, check in (
                    ("cartesian", fib.is_cartesian_fibration),
                    ("locally_cartesian", fib.is_locally_cartesian),
                    ("right_initial", fib.is_right_initial_fibration)):
                v = check(pi)
                assert profile[key] == v.ok
                assert profile.witnesses.get(key) == v.witness

    def test_op_duality_of_profiles(self):
        rng = random.Random(43)
        swap = {"conservative": "conservative",
                "discrete_opfib": "discrete_fib",
                "discrete_fib": "discrete_opfib",
                "cocartesian": "cartesian", "cartesian": "cocartesian",
                "locally_cocartesian": "locally_cartesian",
                "locally_cartesian": "locally_cocartesian",
                "exponentiable": "exponentiable",
                "left_final": "right_initial",
                "right_initial": "left_final"}
        for _ in range(10):
            pi = randgen.random_functor_over_1(rng)
            a = fib.classify(pi).verdicts
            b = fib.classify(core.opposite_functor(pi)).verdicts
            assert all(a[k] == b[swap[k]] for k in a)


class TestEquivalenceMenus:
    """Independently computed sides of the classifier menus must agree."""

    def _menu_over_1(self, pi):
        # coCartesian iff the target-fiber inclusion is a right adjoint
        total = pi.source
        fib_t = core.fiber(pi, "1")
        inc = core.inclusion_functor(fib_t, total)
        return fib.is_cocartesian_fibration(pi).ok, fib.is_right_adjoint(inc).ok

    def test_fiber_inclusion_adjoint_menu(self):
        rng = random.Random(77)
        for _ in range(25):
            pi = randgen.random_functor_over_1(rng)
            a, b = self._menu_over_1(pi)
            assert a == b

    def test_locally_cocartesian_menu(self):
        rng = random.Random(78)
        for _ in range(15):
            pi = randgen.random_functor_over_1(rng)
            a = fib.is_locally_cocartesian(pi).ok
            # per-object comma form: fiber into the comma over the object
            b = True
            K = pi.target
            for y in K.objects:
                cm, to_E, _ = core.comma(pi, core.point(K, y))
                fib_y = core.fiber(pi, y)
                ob_map = {e: core.comma_object_id(e, "*", K.identity[y])
                          for e in fib_y.objects}
                mor_map = {}
                for m in fib_y.morphisms:
                    o1 = ob_map[fib_y.src[m]]
                    o2 = ob_map[fib_y.tgt[m]]
                    mor_map[m] = core._square_id(m, "id", o1, o2)
                inc = core.Functor(fib_y, cm, ob_map, mor_map)
                b = b and fib.is_right_adjoint(inc).ok
            assert a == b

    def test_left_fibration_menu(self):
        # the section-restriction and per-lift conditions quantify over
        # every morphism of the base, identities included
        rng = random.Random(79)
        for _ in range(20):
            pi = randgen.random_functor_over_1(rng)
            K = pi.target
            cons = fib.is_conservative(pi).ok
            b = cons and fib.is_cocartesian_fibration(pi).ok
            c = cons and fib.is_locally_cocartesian(pi).ok
            d = True
            e = True
            for phi in K.morphisms:
                secs, ev_s, ev_t, fs, ft, proj, total = \
                    fib.sections_over_arrow(pi, phi)
                d = d and ev_s.is_equivalence()
                # every lift exists and is coCartesian in the base change
                e = e and fib.is_cocartesian_fibration(proj).ok and all(
                    fib.is_cocartesian_morphism(proj, m).ok
                    for m in proj.source.morphisms
                    if proj.mor_map[m] == "0->1")
            f = fib.is_left_fibration(pi).ok
            assert b == c == d == e == f

    def test_finality_menu(self):
        rng = random.Random(80)
        for _ in range(15):
            pi = randgen.random_functor_over_1(rng)
            if not fib.is_exponentiable(pi).ok:
                continue
            a = homology.is_final(
                fib.fiber_inclusion_over_arrow(pi, "0->1", "1")).ok
            secs, ev_s, ev_t, fs, ft, proj, total = fib.sections_over_arrow(
                pi, "0->1")
            b = homology.is_final(ev_s).ok
            fib_t = core.fiber(pi, "1")
            inc = core.inclusion_functor(fib_t, pi.source)
            c = homology.is_final(inc).ok
            assert a == b == c


class TestSectionsLocalization:
    def test_restriction_of_sections_is_surjective_with_connected_fibers(self):
        # for exponentiable functors over [2], restricting full sections to
        # the outer edge is onto, and each preimage is connected by
        # transformations fixing the endpoints
        rng = random.Random(90)
        checked = 0
        while checked < 6:
            pi = randgen.random_functor_over_2(rng, max_objects=1,
                                               max_morphisms=3,
                                               max_generators=1)
            if not fib.is_exponentiable(pi).ok:
                continue
            I2 = core.interval(2)
            full, ids_f, comps_f = core.sections_category(
                core.identity_functor(I2), pi)
            sub = core.full_subcategory(I2, ["0", "2"])
            outer, ids_o, comps_o = core.sections_category(
                core.inclusion_functor(sub, I2), pi)
            if not outer.objects:
                checked += 1
                continue

            def restrict(o):
                F = ids_f[o]
                ob = {x: F.ob_map[x] for x in sub.objects}
                mo = {m: F.mor_map[m] for m in sub.morphisms}
                return core.functor_object_id(
                    core.Functor(sub, pi.source, ob, mo, _validate=False))

            image = {}
            for o in full.objects:
                image.setdefault(restrict(o), []).append(o)
            assert set(image) == set(outer.objects)  # surjective
            for o_out, fiber_objs in image.items():
                # connectivity under transformations with identity
                # components at the endpoints
                from fibcat.unionfind import UnionFind
                uf = UnionFind(fiber_objs)
                fiber_set = set(fiber_objs)
                for m in full.morphisms:
                    if full.src[m] in fiber_set and full.tgt[m] in fiber_set:
                        eta = comps_f.get(m)
                        if eta is None:
                            continue
                        E = pi.source
                        if E.is_identity(eta["0"]) and E.is_identity(eta["2"]):
                            uf.union(full.src[m], full.tgt[m])
                assert len(set(uf.class_map().values())) == 1
            checked += 1


class TestClosureLaws:
    def test_cocartesian_composition_closure(self):
        rng = random.Random(91)
        checked = 0
        while checked < 6:
            K = randgen.random_poset(rng, 2)
            F = randgen.random_set_valued(rng, K, empty_p=0)
            pi = transport_mod().unstraighten(F)
            E = pi.source
            G = randgen.random_set_valued(rng, E, empty_p=0)
            rho = transport_mod().unstraighten(G)
            assert fib.is_cocartesian_fibration(rho.then(pi)).ok
            checked += 1

    def test_cocartesian_base_change_closure(self):
        rng = random.Random(92)
        for _ in range(6):
            K = randgen.random_poset(rng, 3)
            F = randgen.random_set_valued(rng, K, empty_p=0)
            pi = transport_mod().unstraighten(F)
            J = randgen.random_category(rng, 2, 5, prefix="j.")
            g = randgen.random_functor_between(rng, J, K)
            proj, _, _ = core.base_change(pi, g)
            assert fib.is_cocartesian_fibration(proj).ok


def transport_mod():
    from fibcat import transport
    return transport


class TestPrecondition:
    def test_refusals_carry_witnesses(self):
        from fibcat import transport
        I2 = core.interval(2)
        inc = core.inclusion_functor(core.full_subcategory(I2, ["0", "2"]), I2)
        with pytest.raises(PreconditionError) as err:
            transport.pushforward_exponentiable(
                inc, core.identity_functor(inc.source))
        assert err.value.witness["factorizations"] == 0


# -- the routes the edge-bimodule engine replaced, kept as oracles -----------


def oracle_is_exponentiable(pi, certify_dim=None):
    """Conduché's criterion on every factorization category, one lift at a
    time, over a scan of all of E's morphisms."""
    K0 = pi.target
    if any(not K0.is_identity(f) for f in K0.isomorphisms()):
        pi = fib.isofibration_replacement(pi)
    E, K = pi.source, pi.target
    for phi in sorted(K.morphisms):
        if K.is_identity(phi):
            continue
        for psi in sorted(K.morphisms_from(K.tgt[phi])):
            if K.is_identity(psi):
                continue
            comp = K.compose(psi, phi)
            for lift in sorted(E.morphisms):
                if pi.mor_map[lift] != comp:
                    continue
                cat = fib.factorization_category(pi, phi, psi, lift)
                if len(set(homology.pi0_map(cat).values())) != 1:
                    return fib.Verdict(False, {
                        "first": phi, "second": psi, "lift": lift,
                        "factorizations": len(cat.objects)})
                if certify_dim is not None:
                    rep = homology.homology(cat, certify_dim)
                    if not rep.reduced_trivial_up_to(certify_dim):
                        return fib.Verdict(False, {
                            "first": phi, "second": psi, "lift": lift,
                            "certificate_degree": certify_dim,
                            "betti": rep.betti, "torsion": rep.torsion})
    return fib.Verdict(True)


def oracle_end_fibration(pi, exponentiable, end, certify_dim):
    """Finality (end "1") or initiality (end "0") of the end-fiber
    inclusion of every base change over an arrow, identities included, on
    the comma at every object."""
    if not exponentiable.ok:
        return fib.Verdict(False, {"exponentiable": exponentiable.witness})
    check = homology.is_final if end == "1" else homology.is_initial
    for phi in sorted(pi.target.morphisms):
        fv = check(fib.fiber_inclusion_over_arrow(pi, phi, end), certify_dim)
        if not fv.ok:
            return fib.Verdict(False, {"base_morphism": phi,
                                       "inner": fv.witness})
    return fib.Verdict(True)


def oracle_is_locally_cocartesian(pi):
    """The coCartesian-fibration check on every base change over [1]."""
    K = pi.target
    for phi in sorted(K.morphisms):
        if K.is_identity(phi):
            continue
        proj, _, _ = fib.base_change_over_arrow(pi, phi)
        v = fib.is_cocartesian_fibration(proj)
        if not v.ok:
            return fib.Verdict(False, {"base_morphism": phi,
                                       "inner": v.witness})
    return fib.Verdict(True)


def oracle_is_cocartesian_morphism(pi, f):
    """The (g, h) scan the bijection test replaced: for every g out of
    src(f) and every h with h∘pi(f) = pi(g), exactly one u over h in E's
    hom-set from tgt(f) to tgt(g) with u∘f = g."""
    E, K = pi.source, pi.target
    e_s, e_t = E.src[f], E.tgt[f]
    phi = pi.mor_map[f]
    y = K.tgt[phi]
    for g in E.morphisms_from(e_s):
        pg = pi.mor_map[g]
        for h in K.hom(y, K.tgt[pg]):
            if K.compose(h, phi) != pg:
                continue
            lifts = [u for u in E.hom(e_t, E.tgt[g])
                     if pi.mor_map[u] == h and E.compose(u, f) == g]
            if len(lifts) != 1:
                return fib.Verdict(False,
                                   {"g": g, "h": h, "lifts": len(lifts)})
    return fib.Verdict(True)


def oracle_is_cocartesian_fibration(pi):
    """A coCartesian lift, by the scan, of every non-identity arrow out of
    every object's image, found among all of E's morphisms."""
    E, K = pi.source, pi.target
    for e in sorted(E.objects):
        for phi in sorted(K.morphisms_from(pi.ob_map[e])):
            if K.is_identity(phi):
                continue
            if not any(oracle_is_cocartesian_morphism(pi, f).ok
                       for f in E.morphisms_from(e)
                       if pi.mor_map[f] == phi):
                return fib.Verdict(False, {"object": e, "morphism": phi})
    return fib.Verdict(True)


ORACLE_BASES = {
    "I1": lambda: core.interval(1),
    "I2": lambda: core.interval(2),
    "I3": lambda: core.interval(3),
    "iso": core.walking_isomorphism,
    "Z2": lambda: core.cyclic_group_category(2),
    "retract": core.retract_category,
    "idempotent": core.idempotent_category,
}


def oracle_factorization_category(pi, phi, psi, lift):
    """The hand-built factorization category square_category replaced,
    with the middle-fiber map w of each morphism."""
    E, K = pi.source, pi.target
    e0, e2 = E.src[lift], E.tgt[lift]
    objects = []
    legs = {}
    for u in E.morphisms_from(e0):
        if pi.mor_map[u] != phi:
            continue
        m = E.tgt[u]
        for v in E.hom(m, e2):
            if pi.mor_map[v] == psi and E.compose(v, u) == lift:
                o = core.pair_id(u, v)
                objects.append(o)
                legs[o] = (u, v)
    mid_id = K.identity[K.tgt[phi]]
    morphisms = []
    parts = {}
    for o1 in objects:
        u1, v1 = legs[o1]
        for o2 in objects:
            u2, v2 = legs[o2]
            for w in E.hom(E.tgt[u1], E.tgt[u2]):
                if pi.mor_map[w] != mid_id:
                    continue
                if E.compose(w, u1) == u2 and E.compose(v2, w) == v1:
                    m = f"({w}):{o1}>{o2}"
                    morphisms.append((m, o1, o2))
                    parts[m] = w
    identities = {o: f"({E.identity[E.tgt[legs[o][0]]]}):{o}>{o}"
                  for o in objects}
    composition = {}
    by_src = {}
    for m, o1, o2 in morphisms:
        by_src.setdefault(o1, []).append((m, o2))
    for m, o1, o2 in morphisms:
        for m2, o3 in by_src.get(o2, ()):
            composition[(m2, m)] = \
                f"({E.compose(parts[m2], parts[m])}):{o1}>{o3}"
    cat = core.FiniteCategory(objects, morphisms, identities, composition,
                              _validate=False)
    return cat, parts


def oracle_sample(name, count):
    """count random functors into the base name, with their opposites."""
    K = ORACLE_BASES[name]()
    rng = random.Random(f"edge-oracle:{name}")
    for i in range(count):
        if i % 3 == 1 and name == "I1":
            pi = randgen.random_functor_over_1(rng)
        elif i % 3 == 1 and name == "I2":
            pi = randgen.random_functor_over_2(rng, max_objects=2,
                                               max_morphisms=4,
                                               max_generators=1)
        elif i % 3 == 2:
            J = randgen.random_category(rng, 3, 7, prefix="j.")
            pi = randgen.random_functor_between(rng, J, K)
        else:
            pi = randgen.random_functor_over(rng, K)
        yield pi
        yield core.opposite_functor(pi)


def assert_engine_matches_oracles(pi, certify_dim=None):
    """Equal verdicts and witnesses from the engine and the old routes;
    returns the names of the negative verdicts.  The end checks run with
    an exponentiable verdict assumed, so that they are compared on every
    functor."""
    negative = set()
    pairs = [("exponentiable", fib.is_exponentiable(pi, certify_dim),
              oracle_is_exponentiable(pi, certify_dim))]
    assumed = fib.Verdict(True)
    for name, end in (("left_final", "1"), ("right_initial", "0")):
        pairs.append((name, fib._end_fibration(pi, assumed, end, certify_dim),
                      oracle_end_fibration(pi, assumed, end, certify_dim)))
    if certify_dim is None:
        pairs.append(("locally_cocartesian", fib.is_locally_cocartesian(pi),
                      oracle_is_locally_cocartesian(pi)))
        pairs.append(("locally_cartesian", fib.is_locally_cartesian(pi),
                      oracle_is_locally_cocartesian(
                          core.opposite_functor(pi))))
    for name, new, old in pairs:
        assert (new.ok, new.witness) == (old.ok, old.witness), name
        if not new.ok:
            negative.add(name)
    return negative


def two_lifts_over_1():
    """E_phi(a, -) = {f1, f2} over a discrete target fiber: disconnected,
    with no initial element."""
    return functor_from_arrows(
        core.interval(1), {"a": "0", "b1": "1", "b2": "1"},
        [("f1", "a", "b1", "0->1"), ("f2", "a", "b2", "0->1")])


class TestEdgeEngineOracles:
    """The edge-bimodule engine against the factorization-category,
    base-change and comma routes it replaced."""

    @pytest.mark.parametrize("name", sorted(ORACLE_BASES))
    def test_random_functors_and_opposites(self, name):
        negative, factorizations = {}, set()
        for pi in oracle_sample(name, 100):
            for key in assert_engine_matches_oracles(pi):
                negative[key] = negative.get(key, 0) + 1
                if key == "exponentiable":
                    factorizations.add(
                        fib.is_exponentiable(pi).witness["factorizations"])
        # the sample reaches the failure branches of every local check
        for key in ("left_final", "right_initial", "locally_cocartesian",
                    "locally_cartesian"):
            assert negative.get(key, 0) > 0, key
        if name in ("I2", "retract"):
            assert negative.get("exponentiable", 0) > 0
        if name == "I2":
            # empty and disconnected factorization categories both fail
            # with the oracle's witness, factorization count included
            assert factorizations == {0, 2}

    @pytest.mark.parametrize("n", range(1, 6))
    def test_arrow_evaluations(self, n):
        Ar, ev_s, ev_t = core.arrow_category(core.interval(n))
        for pi in (ev_s, ev_t):
            for p in (pi, core.opposite_functor(pi)):
                assert_engine_matches_oracles(p)

    def test_empty_factorization_category(self):
        I2 = core.interval(2)
        inc = core.inclusion_functor(core.full_subcategory(I2, ["0", "2"]), I2)
        for pi in (inc, separating_functor_over_2()):
            assert "exponentiable" in assert_engine_matches_oracles(pi)
            assert fib.is_exponentiable(pi).witness["factorizations"] == 0

    def test_disconnected_factorization_category(self):
        pi = functor_from_arrows(
            core.interval(2), {"a": "0", "b1": "1", "b2": "1", "c": "2"},
            [("u1", "a", "b1", "0->1"), ("u2", "a", "b2", "0->1"),
             ("v1", "b1", "c", "1->2"), ("v2", "b2", "c", "1->2"),
             ("n", "a", "c", "0->2")],
            {("v1", "u1"): "n", ("v2", "u2"): "n"})
        assert "exponentiable" in assert_engine_matches_oracles(pi)
        assert fib.is_exponentiable(pi).witness == {
            "first": "0->1", "second": "1->2", "lift": "n",
            "factorizations": 2}

    @pytest.mark.parametrize("collapsed", (True, False))
    def test_middle_fiber_with_an_idempotent(self, collapsed):
        # the factorizations of n through b are (u, v) with u in {u, eu}
        # and v in {v, ve}; only the non-identity middle map e identifies
        # them.  With v∘e = v they form one class; with ve = v∘e apart
        # from v, (u, v) stays alone
        arrows = [("e", "b", "b", "1->1"), ("u", "a", "b", "0->1"),
                  ("eu", "a", "b", "0->1"), ("v", "b", "c", "1->2"),
                  ("n", "a", "c", "0->2")]
        composites = {("e", "e"): "e", ("e", "u"): "eu", ("e", "eu"): "eu",
                      ("v", "u"): "n", ("v", "eu"): "n"}
        if collapsed:
            composites[("v", "e")] = "v"
        else:
            arrows.append(("ve", "b", "c", "1->2"))
            composites.update({("v", "e"): "ve", ("ve", "e"): "ve",
                               ("ve", "u"): "n", ("ve", "eu"): "n"})
        pi = functor_from_arrows(core.interval(2),
                                 {"a": "0", "b": "1", "c": "2"},
                                 arrows, composites)
        negative = assert_engine_matches_oracles(pi)
        assert ("exponentiable" in negative) is not collapsed
        if not collapsed:
            assert fib.is_exponentiable(pi).witness == {
                "first": "0->1", "second": "1->2", "lift": "n",
                "factorizations": 4}
        # a product with the idempotent category: every middle fiber has
        # the endomorphism, and the projection is exponentiable
        _, pr1, _ = core.product_projections(core.interval(2),
                                             core.idempotent_category())
        for p in (pr1, core.opposite_functor(pr1)):
            assert "exponentiable" not in assert_engine_matches_oracles(p)

    def test_empty_edge_bimodule(self):
        from fibcat import correspondences as corrs
        A = core.prefix_relabel(core.interval(1), "a.")
        B = core.prefix_relabel(core.terminal(), "b.")
        pi = corrs.collage(corrs.empty_profunctor(A, B)).projection
        assert "left_final" in assert_engine_matches_oracles(pi)
        v = fib.is_left_final_fibration(pi)
        assert v.witness["inner"][1] == {"nonempty": False,
                                         "connected": False}

    def test_witnesses_follow_the_order_of_base_change_ids(self):
        # "(0,x#)" sorts before "(0,x)" although "x" sorts before "x#"
        pi = functor_from_arrows(core.interval(1),
                                 {"x": "0", "x#": "0", "y": "1"}, [])
        negative = assert_engine_matches_oracles(pi)
        assert {"left_final", "locally_cocartesian"} <= negative
        assert fib.is_left_final_fibration(pi).witness["inner"][0] == "(0,x#)"
        assert fib.is_locally_cocartesian(pi).witness["inner"]["object"] == \
            "(0,x#)"

    def test_disconnected_edge_bimodule_and_incomparable_lifts(self):
        pi = two_lifts_over_1()
        negative = assert_engine_matches_oracles(pi)
        assert negative == {"left_final", "locally_cocartesian"}
        assert fib.is_left_final_fibration(pi).witness == {
            "base_morphism": "0->1",
            "inner": ("(0,a)", {"nonempty": True, "connected": False})}
        assert fib.is_locally_cocartesian(pi).witness == {
            "base_morphism": "0->1",
            "inner": {"object": "(0,a)", "morphism": "0->1"}}

    def test_certified_mode_against_the_full_comma_route(self):
        planted = z2_comma_collage()
        assert "left_final" not in assert_engine_matches_oracles(planted)
        assert "left_final" in assert_engine_matches_oracles(planted, 2)
        inner = fib.is_left_final_fibration(planted, 2).witness["inner"]
        assert inner[1]["homology_ok"] is False
        negative = 0
        for name in sorted(ORACLE_BASES):
            for pi in oracle_sample(name, 15):
                negative += len(assert_engine_matches_oracles(pi, 2))
        assert negative > 0


def assert_every_morphism_matches(pi):
    """every_morphism_cocartesian names the first failing morphism, by id,
    with the scan's witness."""
    old = next(({"morphism": f, "inner": v.witness}
                for f in sorted(pi.source.morphisms)
                for v in [oracle_is_cocartesian_morphism(pi, f)]
                if not v.ok), None)
    v = fib.every_morphism_cocartesian(pi)
    assert (v.ok, v.witness) == (old is None, old)


class TestCocartesianKernelOracle:
    """The bijection test of coCartesian morphisms, over the edge
    bimodules, against the (g, h) scan it replaced."""

    @pytest.mark.parametrize("name", sorted(ORACLE_BASES))
    def test_every_morphism_of_random_functors(self, name):
        failing = counts_agree = 0
        for pi in oracle_sample(name, 40):
            E, K = pi.source, pi.target
            for f in E.morphisms:
                old = oracle_is_cocartesian_morphism(pi, f)
                assert fib._cocartesian(pi, f) == old.ok, f
                new = fib.is_cocartesian_morphism(pi, f)
                assert (new.ok, new.witness) == (old.ok, old.witness), f
                if old.ok:
                    continue
                failing += 1
                phi = pi.mor_map[f]
                # a failure that only injectivity catches: every pair of
                # lift sets has equal counts
                counts_agree += all(
                    len(pi.lifts(E.tgt[f], h))
                    == len(pi.lifts(E.src[f], K.compose(h, phi)))
                    for h in K.morphisms_from(K.tgt[phi]))
            v, old = fib.is_cocartesian_fibration(pi), \
                oracle_is_cocartesian_fibration(pi)
            assert (v.ok, v.witness) == (old.ok, old.witness)
            assert_every_morphism_matches(pi)
            for e in E.objects:
                for phi in K.morphisms_from(pi.ob_map[e]):
                    assert fib.cocartesian_lifts(pi, e, phi) == [
                        f for f in pi.lifts(e, phi)
                        if oracle_is_cocartesian_morphism(pi, f).ok]
        assert failing > counts_agree > 0


class TestFactorizationCategoryOracle:
    """factorization_category, a category of squares over the point,
    against the hand-built construction it replaced."""

    def test_random_functors_and_arrow_evaluations(self):
        sample = [pi for name in sorted(ORACLE_BASES)
                  for pi in oracle_sample(name, 20)]
        for n in (2, 3):
            _, ev_s, ev_t = core.arrow_category(core.interval(n))
            sample += [ev_s, ev_t, core.opposite_functor(ev_t)]
        sizes = set()
        for pi in sample:
            E, K = pi.source, pi.target
            for phi in K.morphisms:
                for psi in K.morphisms_from(K.tgt[phi]):
                    over = K.compose(psi, phi)
                    for lift in E.morphisms:
                        if pi.mor_map[lift] != over:
                            continue
                        new = fib.factorization_category(pi, phi, psi, lift)
                        old, w_of = oracle_factorization_category(
                            pi, phi, psi, lift)
                        assert core.validate_category(
                            new.objects, new.morphism_triples(), new.identity,
                            new.composition_table()) == []
                        iso = core.Functor(
                            old, new, {o: o for o in old.objects},
                            {m: core._square_id(w_of[m], "id", old.src[m],
                                                old.tgt[m])
                             for m in old.morphisms})
                        assert iso.is_isomorphism()
                        sizes.add(len(new.objects))
        # empty, single and multi-object factorization categories all occur
        assert {0, 1} <= sizes and max(sizes) > 2


# -- cone points: certificates without nerves --------------------------------


def parent_finality(F, d, kind, objects):
    """homology.is_final before cone points and categories of elements:
    every comma gets its components and, with a degree d (None for no
    certificate), a nerve certificate."""
    per_object, witness = {}, None
    for x in objects:
        point = core.point(F.target, x)
        cat = (core.comma(point, F) if kind == "final"
               else core.comma(F, point))[0]
        nonempty = len(cat.objects) > 0
        connected = len(set(homology.pi0_map(cat).values())) == 1
        entry = {"nonempty": nonempty, "connected": connected}
        good = nonempty and connected
        if good and d is not None:
            entry["homology_ok"] = homology.homology(
                cat, d).reduced_trivial_up_to(d)
            good = entry["homology_ok"]
        per_object[x] = entry
        if not good and witness is None:
            witness = (x, entry)
    return per_object, witness


def parent_certified_is_exponentiable(pi, d):
    """is_exponentiable(pi, certify_dim=d) before cone points."""
    K0 = pi.target
    if any(not K0.is_identity(f) for f in K0.isomorphisms()):
        pi = fib.isofibration_replacement(pi)
    for phi, psi, lifts in oracle_composable_lifts(pi):
        for lift in lifts:
            cat = fib.factorization_category(pi, phi, psi, lift)
            if len(set(homology.pi0_map(cat).values())) != 1:
                return fib.Verdict(False, {
                    "first": phi, "second": psi, "lift": lift,
                    "factorizations": len(cat.objects)})
            rep = homology.homology(cat, d)
            if not rep.reduced_trivial_up_to(d):
                return fib.Verdict(False, {
                    "first": phi, "second": psi, "lift": lift,
                    "certificate_degree": d,
                    "betti": rep.betti, "torsion": rep.torsion})
    return fib.Verdict(True)


def parent_certified_end_fibration(pi, exponentiable, end, d):
    """_end_fibration(pi, exponentiable, end, d) before cone points and
    shared base changes: one base change per arrow and end."""
    if not exponentiable.ok:
        return fib.Verdict(False, {"exponentiable": exponentiable.witness})
    kind = "final" if end == "1" else "initial"
    K = pi.target
    for phi in K.morphisms:
        if K.is_identity(phi):
            continue
        F = fib.fiber_inclusion_over_arrow(pi, phi, end)
        in_end = set(F.source.objects)
        near = [x for x in F.target.objects if x not in in_end]
        _, witness = parent_finality(F, d, kind, near)
        if witness is not None:
            return fib.Verdict(False, {"base_morphism": phi,
                                       "inner": witness})
    return fib.Verdict(True)


def z2_comma_collage():
    """A connected edge bimodule whose comma is Z/2: only certificates of
    degree >= 1 refuse it."""
    from fibcat import correspondences as corrs
    A = core.relabel(core.terminal(), {"*": "a*"}, {"id": "a.id"})
    B = core.prefix_relabel(core.cyclic_group_category(2), "b.")
    P = corrs.Profunctor(
        A, B, {("a*", "b.*"): ("p",)}, {("a.id", "b.*"): {"p": "p"}},
        {("a*", "b.g0"): {"p": "p"}, ("a*", "b.g1"): {"p": "p"}}
    ).validate()
    return corrs.collage(P).projection


class TestConePointCertificates:
    """Certificates settled by an initial or terminal object, against the
    nerve route they skip."""

    def test_cone_point_implies_trivial_reduced_homology(self):
        # the categories of squares that classify certifies: the
        # factorization categories that pass the coend and the connected
        # categories of elements of the edge bimodules, at both ends
        built = []
        for n in (2, 3, 4):
            ev_t = core.arrow_category(core.interval(n))[2]
            assert fib.classify(ev_t, certify_dim=3)["left_final"]
            for phi, psi, lifts in fib._composable_lifts(ev_t):
                built += [fib.factorization_category(ev_t, phi, psi, lift)
                          for lift in lifts]
            for pi in (ev_t, core.opposite_functor(ev_t)):
                built += [C for C in (elements_category(*elements)
                                      for elements in edge_elements(pi))
                          if len(set(homology.pi0_map(C).values())) == 1]
        assert len(built) > 100
        built += [randgen.random_category(random.Random(f"cone-hom:{i}"),
                                          4, 9) for i in range(200)]
        coned = 0
        for C in built:
            if core._cone_point(C) is not None:
                assert homology.homology(C, 3).reduced_trivial_up_to(3)
                coned += 1
        assert coned > 150

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_classify_matches_the_nerve_route(self, d):
        sample = [pi for name in sorted(ORACLE_BASES)
                  for pi in oracle_sample(name, 12)]
        for n in (2, 3):
            _, ev_s, ev_t = core.arrow_category(core.interval(n))
            sample += [ev_s, ev_t, core.opposite_functor(ev_t)]
        planted = z2_comma_collage()
        sample += [planted, core.opposite_functor(planted)]
        negative = {}
        for pi in sample:
            exp = fib.is_exponentiable(pi, d)
            old_exp = parent_certified_is_exponentiable(pi, d)
            assert (exp.ok, exp.witness) == (old_exp.ok, old_exp.witness)
            for assumed in {exp.ok: exp, True: fib.Verdict(True)}.values():
                new = [fib._end_fibration(pi, assumed, end, d)
                       for end in ("1", "0")]
                old = [parent_certified_end_fibration(pi, assumed, end, d)
                       for end in ("1", "0")]
                assert [(v.ok, v.witness) for v in new] == \
                    [(v.ok, v.witness) for v in old]
                for key, v in zip(("left_final", "right_initial"), new):
                    negative[key] = negative.get(key, 0) + (not v.ok)
            negative["exponentiable"] = (negative.get("exponentiable", 0)
                                         + (not exp.ok))
        assert all(negative[key] > 0 for key in
                   ("exponentiable", "left_final", "right_initial"))

    def test_homology_failures_keep_their_witnesses(self):
        planted = z2_comma_collage()
        for pi, end in ((planted, "1"), (core.opposite_functor(planted), "0")):
            new = fib._end_fibration(pi, fib.Verdict(True), end, 1)
            assert new.witness["inner"][1] == {
                "nonempty": True, "connected": True, "homology_ok": False}
            old = parent_certified_end_fibration(pi, fib.Verdict(True),
                                                 end, 1)
            assert (new.ok, new.witness) == (old.ok, old.witness)

    @pytest.mark.parametrize("d", [None, 0, 1, 2])
    def test_finality_per_object_matches_the_nerve_route(self, d):
        bundled = fixtures.build_fixtures()
        # posets over the point whose commas have no cone point
        sample = [docs.functor_from_doc(bundled[name]) for name in
                  ("zigzag_to_point.json", "circle_to_point.json")]
        for i in range(60):
            rng = random.Random(f"cone-final:{i}")
            sample.append(randgen.random_final_functor(rng) if i % 2 else
                          randgen.random_functor_between(
                              rng,
                              randgen.random_category(rng, 3, 7, prefix="j."),
                              randgen.random_category(rng, 3, 7, prefix="k.")))
        for F in sample:
            for kind, check in (("final", homology.is_final),
                                ("initial", homology.is_initial)):
                fv = check(F, certify_dim=d)
                per_object, witness = parent_finality(
                    F, d, kind, F.target.objects)
                assert fv.per_object == per_object
                assert fv.witness == witness and fv.ok == (witness is None)

    def test_classify_builds_no_base_change_and_no_comma(self, monkeypatch,
                                                         tmp_path):
        _, _, ev_t = core.arrow_category(core.interval(4))
        path = tmp_path / "ev_t_Ar4.json"
        path.write_text(docs.dumps(docs.functor_to_doc(ev_t)))
        calls = []
        for name in ("base_change", "pullback", "comma_with_data"):
            real = getattr(core, name)
            monkeypatch.setattr(core, name, lambda *a, name=name, real=real:
                                calls.append(name) or real(*a))
        for certify in ([], ["--certify-dim", "2"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["classify", "--functor", str(path)]
                                + certify) == 0
        # both modes read the edge bimodules from pi's index
        assert calls == []


# -- cone points read off the squares the π0 passes walk ----------------------


def edge_elements(pi):
    """(C, over, act) of each E_phi(e, -) over a non-identity phi, as
    _end_fibration reads it: the f out of e over phi, over the fiber C
    over tgt phi, moved by its maps w to w∘f."""
    E, K = pi.source, pi.target
    for phi, _, elements in fib._edge_elements(pi, "0"):
        yield (core.fiber(pi, K.tgt[phi]), {f: E.tgt[f] for f in elements},
               E.compose)


def comma_elements(F):
    """(C, over, act) of the comma under each object d of F's target, as
    homology.is_final reads it."""
    C, D = F.source, F.target
    for d in D.objects:
        yield (C, {(c, k): c for c in C.objects
                   for k in D.hom(d, F.ob_map[c])},
               lambda u, ck: (C.tgt[u], D.compose(F.mor_map[u], ck[1])))


def elements_category(C, over, act):
    """The category of elements, built as homology._elements_verdict
    builds it when it has no cone point."""
    return core.square_category(
        core.terminal(), C, {x: ("*", c, x) for x, c in over.items()},
        lambda x, _, u, x2: act(u, x) == x2)[0]


def relabeled(pi, name):
    """pi with every id of its source renamed by the injection name."""
    E = pi.source
    ob = {x: name(x) for x in E.objects}
    mo = {m: name(m) for m in E.morphisms}
    return core.Functor(core.relabel(E, ob, mo), pi.target,
                        {ob[x]: y for x, y in pi.ob_map.items()},
                        {mo[m]: f for m, f in pi.mor_map.items()})


def element_squares_that_print_alike():
    """E_phi(e, -) = {a, a>b, b>c, c} over the fiber m -> n with maps
    s: m -> m, u, t: m -> n.  The element a is initial, but the squares
    u: a -> b>c and u: a>b -> c both print "(id,u):a>b>c"."""
    return functor_from_arrows(
        core.interval(1), {"e": "0", "m": "1", "n": "1"},
        [("a", "e", "m", "0->1"), ("a>b", "e", "m", "0->1"),
         ("b>c", "e", "n", "0->1"), ("c", "e", "n", "0->1"),
         ("s", "m", "m", "1->1"), ("u", "m", "n", "1->1"),
         ("t", "m", "n", "1->1")],
        {("s", "a"): "a>b", ("s", "a>b"): "a>b", ("u", "a"): "b>c",
         ("u", "a>b"): "c", ("t", "a"): "c", ("t", "a>b"): "c",
         ("s", "s"): "s", ("u", "s"): "t", ("t", "s"): "t"})


def cone_oracle_sample():
    """The evaluations of Ar([2..4]) and their opposites, the oracle
    draws, the Z/2 comma collage (no cone point), and functors whose ids
    contain ')', ',' and '>'."""
    sample = []
    for n in (2, 3, 4):
        _, ev_s, ev_t = core.arrow_category(core.interval(n))
        sample += [ev_s, ev_t, core.opposite_functor(ev_s),
                   core.opposite_functor(ev_t)]
    sample += [pi for name in sorted(ORACLE_BASES)
               for pi in oracle_sample(name, 12)]
    planted = z2_comma_collage()
    sample += [planted, core.opposite_functor(planted)]
    _, _, ev_t = core.arrow_category(core.interval(2))
    for name in (lambda i: f"{i}),(>", lambda i: f",>{i})"):
        sample += [relabeled(ev_t, name), relabeled(planted, name)]
    return sample


class TestConePointCountsOracle:
    """Certificates decide cone points from the squares that the coend and
    the union-find of a category of elements walk; only a category
    without one is built.  The decision against core._cone_point of the
    category square_category builds."""

    def test_factorization_categories(self):
        decided = {True: 0, False: 0}
        for pi in cone_oracle_sample():
            for phi, psi, lifts in fib._composable_lifts(pi):
                certified = fib._coend_classes(pi, phi, psi, True)
                plain = fib._coend_classes(pi, phi, psi)
                # both walks count the same classes
                assert certified[:2] == plain[:2], (phi, psi)
                coned = certified[2]
                assert plain[2] == ()
                for lift in lifts:
                    cat = fib.factorization_category(pi, phi, psi, lift)
                    cone = core._cone_point(cat) is not None
                    assert (lift in coned) == cone, (phi, psi, lift)
                    decided[cone] += 1
        assert min(decided.values()) > 20

    def test_categories_of_elements(self):
        decided = {True: 0, False: 0}
        for pi in cone_oracle_sample():
            commas = list(comma_elements(pi))
            for C, over, act in (commas + list(edge_elements(pi))
                                 + list(edge_elements(
                                     core.opposite_functor(pi)))):
                squares = []
                uf = homology._element_classes(C, over, act, squares)
                # the squares change no class
                assert uf.class_map() == \
                    homology._element_classes(C, over, act).class_map()
                if not over or len({uf.find(x) for x in over}) != 1:
                    continue
                cone = core._squares_have_cone(list(over), squares,
                                               lambda x: x)
                cat = elements_category(C, over, act)
                assert cone == (core._cone_point(cat) is not None)
                decided[cone] += 1
        assert min(decided.values()) > 20

    def test_element_squares_that_print_alike_are_refused(self, tmp_path):
        pi = element_squares_that_print_alike()
        (C, over, act), = edge_elements(pi)
        squares = []
        homology._element_classes(C, over, act, squares)
        # the hom-set sizes alone show the initial element a ...
        sizes = collections.Counter((x, y) for _, _, x, y in squares)
        assert core._cone(list(over), sizes.items()) == "a"
        # ... but the ids collide, so the category is built and refused
        assert not core._squares_have_cone(list(over), squares, lambda x: x)
        message = ("duplicate morphism ids; composition defined on "
                   "non-composable pair ((id,u):a>b>c,(id,id_m):a>a); "
                   "composition defined on non-composable pair "
                   "((id,id_n):b>c>b>c,(id,u):a>b>c)")
        with pytest.raises(core.CategoryError) as err:
            fib.classify(pi, certify_dim=1)
        assert str(err.value) == message
        path = tmp_path / "squares.json"
        path.write_text(docs.dumps(docs.functor_to_doc(pi)))
        for certify in ("0", "2"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(["classify", "--functor", str(path),
                                 "--certify-dim", certify])
            assert (code, out.getvalue(), err.getvalue()) == (
                3, "", f"validation error: {message}\n")
        # without a certificate nothing is built, and classify answers
        assert fib.classify(pi)["exponentiable"]
