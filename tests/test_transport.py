import random

import pytest

from fibcat import core, correspondences as corrs, fibrations as fib
from fibcat import homology, randgen, transport
from fibcat.core import PreconditionError
from fibcat.homology import SetValuedFunctor


def small_diagram():
    I1 = core.interval(1)
    return SetValuedFunctor(
        I1, {"0": ("a",), "1": ("b", "c")},
        {"0->0": {"a": "a"}, "1->1": {"b": "b", "c": "c"},
         "0->1": {"a": "b"}}).validate()


class TestCocartReplacement:
    def test_point_at_target(self):
        rep = transport.cocart_replacement(core.point(core.interval(1), "1"))
        assert len(rep.projection.source.objects) == 1

    def test_point_at_source_covers_the_base(self):
        rep = transport.cocart_replacement(core.point(core.interval(1), "0"))
        assert len(rep.projection.source.objects) == 2
        assert set(rep.projection.ob_map.values()) == {"0", "1"}

    def test_output_is_cocartesian_on_random_inputs(self):
        rng = random.Random(31)
        for _ in range(8):
            K = randgen.random_poset(rng, 3)
            pi = randgen.random_functor_over(rng, K)
            rep = transport.cocart_replacement(pi)
            assert fib.is_cocartesian_fibration(rep.projection).ok
            assert rep.unit.is_fully_faithful()

    def test_unit_is_right_adjoint_when_already_cocartesian(self):
        rng = random.Random(32)
        for _ in range(6):
            K = randgen.random_poset(rng, 2)
            F = randgen.random_set_valued(rng, K, empty_p=0)
            pi = transport.unstraighten(F)
            rep = transport.cocart_replacement(pi)
            assert fib.is_right_adjoint(rep.unit).ok

    def test_cart_replacement_dual(self):
        rep = transport.cart_replacement(core.point(core.interval(1), "1"))
        assert len(rep.projection.source.objects) == 2
        assert fib.is_cartesian_fibration(rep.projection).ok

    def test_cart_projection_keeps_no_opposite(self):
        _, _, ev_t = core.arrow_category(core.interval(2))
        proj = transport.cart_replacement(ev_t).projection
        # the opposite of the self-check went with it
        assert proj._op is None
        assert core.opposite_functor(core.opposite_functor(proj)) is proj

    def test_cart_unit_is_left_adjoint_when_already_cartesian(self):
        C = core.interval(1)
        P, pr1, pr2 = core.product_projections(C, core.interval(1))
        rep = transport.cart_replacement(pr2)
        assert fib.is_left_adjoint(rep.unit).ok


class TestSetValuedStraightening:
    def test_grothendieck_total_shape(self):
        proj = transport.unstraighten(small_diagram())
        assert len(proj.source.objects) == 3
        crosses = [m for m in proj.source.morphisms
                   if proj.mor_map[m] == "0->1"]
        assert len(crosses) == 1

    def test_round_trip_on_random_diagrams(self):
        rng = random.Random(33)
        for _ in range(100):
            K = randgen.random_poset(rng, 3)
            F = randgen.random_set_valued(rng, K)
            G = transport.straighten_discrete_opfib(transport.unstraighten(F))
            # round trip relabels elements by their total-category encoding
            assert {x: len(v) for x, v in F.values.items()} == \
                {x: len(v) for x, v in G.values.items()}
            for m in K.morphisms:
                for a in F.values[K.src[m]]:
                    enc = core.pair_id(K.src[m], a)
                    assert G.transports[m][enc] == \
                        core.pair_id(K.tgt[m], F.transports[m][a])

    def test_unstraighten_refuses_pairs_that_print_alike(self):
        # (a, b,c) and (a,b, c) both print as (a,b,c): unstraighten and
        # unstraighten_cat raised a bare KeyError
        K = core.discrete_category(["a", "a,b"])
        F = SetValuedFunctor(K, {"a": ("b,c",), "a,b": ("c",)},
                             {"id_a": {"b,c": "b,c"}, "id_a,b": {"c": "c"}})
        values = {x: core.discrete_category(v) for x, v in F.values.items()}
        F_cat = transport.CatValuedFunctor(
            K, values, {f"id_{x}": core.identity_functor(C)
                        for x, C in values.items()})
        for build, data in ((transport.unstraighten, F),
                            (transport.unstraighten_cat, F_cat)):
            with pytest.raises(PreconditionError) as err:
                build(data)
            assert err.value.witness == [("a", "b,c"), ("a,b", "c")]
            assert str(err.value) == ("pairs ('a', 'b,c') and ('a,b', 'c') "
                                      "share the object id (a,b,c)")

    def test_unstraighten_refuses_lifts_that_print_alike(self):
        # the identities of (x, a) and (y, g@a), over f@g and f, were both
        # named (f@g@a), and unstraighten failed its own functor check
        K = core.relabel(core.discrete_category(["x", "y"]),
                         morphism_map={"id_x": "f@g", "id_y": "f"})
        F = SetValuedFunctor(K, {"x": ("a",), "y": ("g@a",)},
                             {"f@g": {"a": "a"}, "f": {"g@a": "g@a"}})
        with pytest.raises(PreconditionError) as err:
            transport.unstraighten(F)
        assert err.value.witness == [("f", "g@a", "id_g@a"),
                                     ("f@g", "a", "id_a")]
        assert str(err.value) == (
            "lifts ('f', 'g@a', 'id_g@a') and ('f@g', 'a', 'id_a') share "
            "the morphism id (f@g@a)")

    def test_straighten_requires_discreteness(self):
        Ar, ev_s, ev_t = core.arrow_category(core.interval(1))
        with pytest.raises(PreconditionError):
            transport.straighten_discrete_opfib(ev_t)


class TestCatValuedStraightening:
    def make_constant(self, C, K):
        return transport.CatValuedFunctor(
            K, {x: C for x in K.objects},
            {m: core.identity_functor(C) for m in K.morphisms})

    def test_constant_functor_gives_a_product(self):
        C = core.interval(1)
        K = core.interval(1)
        proj = transport.unstraighten_cat(self.make_constant(C, K))
        assert len(proj.source.objects) == 4
        assert len(proj.source.morphisms) == 9

    def test_split_round_trip_is_strict(self):
        C = core.interval(1)
        K = core.interval(1)
        F = self.make_constant(C, K)
        proj = transport.unstraighten_cat(F)
        G, report = transport.straighten_cocart(proj)
        assert report.split and G is not None
        for x in K.objects:
            assert sorted(G.values[x].objects) == \
                sorted(core.pair_id(x, e) for e in C.objects)
        for m in K.morphisms:
            x, y = K.src[m], K.tgt[m]
            for e in C.objects:
                assert G.transports[m].ob_map[core.pair_id(x, e)] == \
                    core.pair_id(y, F.transports[m].ob_map[e])

    def test_nonconstant_split_round_trip(self):
        C = core.interval(1)
        K = core.interval(1)
        collapse = core.constant_functor(C, C, "1")
        F = transport.CatValuedFunctor(
            K, {"0": C, "1": C},
            {"0->0": core.identity_functor(C),
             "1->1": core.identity_functor(C),
             "0->1": collapse})
        proj = transport.unstraighten_cat(F)
        assert fib.is_cocartesian_fibration(proj).ok
        G, report = transport.straighten_cocart(proj)
        assert report.split
        assert G.transports["0->1"].ob_map[core.pair_id("0", "0")] == \
            core.pair_id("1", "1")

    def test_involution_over_a_group(self):
        # Z/2 swaps the two objects of the walking isomorphism: g1∘g1 is
        # the identity of the base, so the lifts of g1 are invertible
        K = core.cyclic_group_category(2)
        W = core.walking_isomorphism()
        swap = core.Functor(W, W, {"a": "b", "b": "a"},
                            {"id_a": "id_b", "id_b": "id_a", "i": "j", "j": "i"})
        F = transport.CatValuedFunctor(
            K, {"*": W}, {"g0": core.identity_functor(W), "g1": swap})
        proj = transport.unstraighten_cat(F)
        total = proj.source
        a, b = core.pair_id("*", "a"), core.pair_id("*", "b")
        assert total.objects == (a, b)
        assert len(total.morphisms) == 8
        assert total.src["(g1@a)"] == a and total.tgt["(g1@a)"] == b
        assert total.tgt["(g1@a;j)"] == a
        assert total.compose("(g1@b)", "(g1@a)") == total.identity[a]
        assert total.compose("(g1@a;j)", "(g1@a;j)") == total.identity[a]
        assert total.compose("(g1@b)", "(g0@a;i)") == "(g1@a;j)"
        assert all(total.is_iso(m) for m in total.morphisms)
        G, report = transport.straighten_cocart(proj)
        assert report.split
        assert report.chosen_lifts[(a, "g1")] == "(g1@a)"
        assert G.transports["g1"].ob_map == {a: b, b: a}
        assert G.transports["g1"].mor_map["(g0@a;i)"] == "(g0@b;j)"

    def test_cleavage_report_on_grothendieck_construction(self):
        proj = transport.unstraighten(small_diagram())
        G, report = transport.straighten_cocart(proj)
        assert report.split
        assert all(lift in proj.source.morphisms
                   for lift in report.chosen_lifts.values())

    def test_nonsplit_cleavage_yields_comparison_isos(self):
        # twist the morphism naming so the least coCartesian lift of the
        # long arrow disagrees with the composite of the chosen short lifts
        W = core.walking_isomorphism()
        K = core.interval(2)
        F = transport.CatValuedFunctor(
            K, {x: W for x in K.objects},
            {m: core.identity_functor(W) for m in K.morphisms})
        proj = transport.unstraighten_cat(F)
        total = proj.source
        twisted = core.relabel(total, {}, {"(0->2@a)": "z(0->2@a)"})
        mor_map = {("z(0->2@a)" if m == "(0->2@a)" else m): proj.mor_map[m]
                   for m in total.morphisms}
        proj2 = core.Functor(twisted, K, dict(proj.ob_map), mor_map)
        G, report = transport.straighten_cocart(proj2)
        assert G is None and not report.split
        assert any(not twisted.is_identity(w)
                   for w in report.comparisons.values())
        assert all(twisted.is_iso(w) for w in report.comparisons.values())


class TestLfibReplacement:
    def test_corepresented_values(self):
        lr = transport.lfib_replacement(core.point(core.interval(1), "0"))
        assert {x: len(v) for x, v in lr.straightened.values.items()} == \
            {"0": 1, "1": 1}

    def test_already_discrete_gives_isomorphic_replacement(self):
        rng = random.Random(34)
        for _ in range(6):
            K = randgen.random_poset(rng, 3)
            F = randgen.random_set_valued(rng, K)
            pi = transport.unstraighten(F)
            lr = transport.lfib_replacement(pi)
            assert {x: len(v) for x, v in lr.straightened.values.items()} == \
                {x: len(v) for x, v in F.values.items()}
            assert fib.is_strict_discrete_opfibration(lr.projection).ok

    def test_universal_property_against_discrete_targets(self):
        rng = random.Random(35)
        for _ in range(5):
            K = randgen.random_poset(rng, 2)
            pi = randgen.random_functor_over(rng, K)
            lr = transport.lfib_replacement(pi)
            for Z_data in [randgen.random_set_valued(rng, K) for _ in range(3)]:
                Z = transport.unstraighten(Z_data)
                before = core.functors_over(lr.projection, Z)
                after = core.functors_over(pi, Z)
                restricted = {core.functor_object_id(lr.unit.then(F))
                              for F in before}
                assert len(restricted) == len(before)
                assert restricted == {core.functor_object_id(F) for F in after}

    def test_rfib_replacement_is_discrete_fibration(self):
        rng = random.Random(36)
        pi = randgen.random_functor_over(rng, randgen.random_poset(rng, 3))
        rr = transport.rfib_replacement(pi)
        assert fib.is_strict_discrete_fibration(rr.projection).ok
        assert homology.is_final(rr.unit).ok


class TestRelativeClassifyingSpace:
    def test_refusal_outside_the_contract(self):
        I2 = core.interval(2)
        inc = core.inclusion_functor(core.full_subcategory(I2, ["0", "2"]), I2)
        with pytest.raises(PreconditionError) as err:
            transport.relative_classifying_space(inc)
        assert "left_final" in err.value.witness

    def test_cocartesian_input_gives_discrete_opfibration(self):
        rng = random.Random(37)
        for _ in range(5):
            K = randgen.random_poset(rng, 3)
            F = randgen.random_set_valued(rng, K, empty_p=0)
            pi = transport.unstraighten(F)
            rcs = transport.relative_classifying_space(pi)
            assert rcs.handed == "left"
            assert fib.is_strict_discrete_opfibration(rcs.projection).ok

    def test_identity_collapses_to_components(self):
        C = core.interval(2)
        rcs = transport.relative_classifying_space(core.identity_functor(C))
        assert len(rcs.projection.source.objects) == len(C.objects)

    def test_connected_fiber_collapses_to_a_point(self):
        C = core.interval(1)
        P, pr1, pr2 = core.product_projections(C, core.interval(1))
        rcs = transport.relative_classifying_space(pr2)
        for x in ("0", "1"):
            assert len(core.fiber(rcs.projection, x).objects) == 1

    def test_fibers_are_component_sets(self):
        rng = random.Random(38)
        pi = randgen.random_two_handed_fibration(rng)
        rcs = transport.relative_classifying_space(pi)
        for x in pi.target.objects:
            assert len(core.fiber(rcs.projection, x).objects) == \
                len(set(homology.pi0_map(core.fiber(pi, x)).values()))

    def test_right_initial_only_input_takes_the_contravariant_branch(self):
        from fibcat import correspondences as corrs
        A = core.relabel(core.terminal(), {"*": "a*"}, {"id": "a.id"})
        B = core.interval(1)
        cyl = corrs.collage(corrs.hom_profunctor_along(
            core.constant_functor(A, B, "1"), core.identity_functor(B)))
        flipped = corrs.correspondence_from_total(
            core.opposite(cyl.total), B.objects)
        pi = flipped.projection
        assert not fib.is_left_final_fibration(pi).ok
        assert fib.is_right_initial_fibration(pi).ok
        rcs = transport.relative_classifying_space(pi)
        assert rcs.handed == "right"
        assert fib.is_strict_discrete_fibration(rcs.projection).ok
        for x in pi.target.objects:
            assert len(core.fiber(rcs.projection, x).objects) == \
                len(set(homology.pi0_map(core.fiber(pi, x)).values()))

    def test_base_change_compatibility(self):
        # collapsing then restricting agrees with restricting then collapsing
        C = core.interval(1)
        K = core.interval(2)
        P, pr1, pr2 = core.product_projections(C, K)
        rcs = transport.relative_classifying_space(pr2)
        arrow = fib._arrow_functor(K, "0->2")
        proj_restr, _, _ = core.base_change(pr2, arrow)
        rcs_restr = transport.relative_classifying_space(proj_restr)
        big_restr, _, _ = core.base_change(rcs.projection, arrow)
        for i in ("0", "1"):
            assert len(core.fiber(rcs_restr.projection, i).objects) == \
                len(core.fiber(big_restr, i).objects)

    def test_product_compatibility(self):
        # the collapse of a fiber product is the fiber product of collapses
        K = core.interval(1)
        F1 = SetValuedFunctor(K, {"0": ("a", "b"), "1": ("c",)},
                              {"0->0": {"a": "a", "b": "b"},
                               "1->1": {"c": "c"},
                               "0->1": {"a": "c", "b": "c"}}).validate()
        pi1 = transport.unstraighten(F1)
        C = core.interval(1)
        P, pr1, pi2 = core.product_projections(C, K)
        sq = core.pullback(pi1, pi2)
        both = core.Functor(sq.total, K,
                            {o: pi1.ob_map[sq.to_left.ob_map[o]]
                             for o in sq.total.objects},
                            {m: pi1.mor_map[sq.to_left.mor_map[m]]
                             for m in sq.total.morphisms})
        rcs_prod = transport.relative_classifying_space(both)
        r1 = transport.relative_classifying_space(pi1)
        r2 = transport.relative_classifying_space(pi2)
        for x in K.objects:
            assert len(core.fiber(rcs_prod.projection, x).objects) == \
                len(core.fiber(r1.projection, x).objects) * \
                len(core.fiber(r2.projection, x).objects)


def oracle_relative_classifying_space(pi):
    """The collapse as built before: the left-handed branch through
    unstraighten, the right-handed one by hand on the contravariant data.
    Takes only inputs that relative_classifying_space accepts."""
    from fibcat.core import pair_id
    left = fib.is_left_final_fibration(pi)
    E, K = pi.source, pi.target
    comp = {x: homology.pi0_map(core.fiber(pi, x)) for x in K.objects}
    values = {x: tuple(sorted(set(comp[x].values()))) for x in K.objects}
    if left.ok:
        transports = {}
        for phi in K.morphisms:
            t = {}
            for rep in values[K.src[phi]]:
                (t[rep],) = {comp[K.tgt[phi]][E.tgt[u]]
                             for u in E.morphisms_from(rep)
                             if pi.mor_map[u] == phi}
            transports[phi] = t
        F = SetValuedFunctor(K, values, transports).validate()
        proj = transport.unstraighten(F)
        quotient = core.Functor(
            E, proj.source,
            {e: pair_id(pi.ob_map[e], comp[pi.ob_map[e]][e])
             for e in E.objects},
            {u: f"({pi.mor_map[u]}@{comp[pi.ob_map[E.src[u]]][E.src[u]]})"
             for u in E.morphisms})
        return proj, quotient, F
    back = {}
    for phi in K.morphisms:
        back[phi] = {}
        for rep in values[K.tgt[phi]]:
            (back[phi][rep],) = {comp[K.src[phi]][E.src[u]]
                                 for u in E.morphisms_to(rep)
                                 if pi.mor_map[u] == phi}
    objects = [pair_id(x, r) for x in K.objects for r in values[x]]
    morphisms = []
    base_of = {}
    for phi in K.morphisms:
        x, y = K.src[phi], K.tgt[phi]
        for r in values[y]:
            m = f"({phi}@{r})"
            morphisms.append((m, pair_id(x, back[phi][r]), pair_id(y, r)))
            base_of[m] = phi
    identities = {pair_id(x, r): f"({K.identity[x]}@{r})"
                  for x in K.objects for r in values[x]}
    composition = {}
    for phi in K.morphisms:
        for psi in K.morphisms:
            if K.tgt[phi] != K.src[psi]:
                continue
            comp_m = K.compose(psi, phi)
            for r in values[K.tgt[psi]]:
                composition[(f"({psi}@{r})", f"({phi}@{back[psi][r]})")] = \
                    f"({comp_m}@{r})"
    total = core.FiniteCategory(objects, morphisms, identities, composition)
    proj = core.Functor(total, K,
                        {pair_id(x, r): x for x in K.objects
                         for r in values[x]}, base_of)
    quotient = core.Functor(
        E, total,
        {e: pair_id(pi.ob_map[e], comp[pi.ob_map[e]][e]) for e in E.objects},
        {u: f"({pi.mor_map[u]}@{comp[pi.ob_map[E.tgt[u]]][E.tgt[u]]})"
         for u in E.morphisms})
    straightened = SetValuedFunctor(core.opposite(K), values, {
        phi: dict(back[phi]) for phi in K.morphisms}).validate()
    return proj, quotient, straightened


class TestCollapseMatchesItsOracle:
    def test_documents_are_byte_identical(self):
        from fibcat import documents as docs
        draws = (
            lambda rng: core.opposite_functor(
                randgen.random_final_functor(rng)),
            lambda rng: core.opposite_functor(
                randgen.random_functor_over_1(rng)),
            lambda rng: core.opposite_functor(transport.unstraighten(
                randgen.random_set_valued(rng, randgen.random_poset(rng, 3)))),
            lambda rng: randgen.random_two_handed_fibration(rng),
        )
        handed = {"left": 0, "right": 0}
        for i in range(200):
            rng = random.Random(f"collapse:{i}")
            pi = draws[i % len(draws)](rng)
            try:
                rcs = transport.relative_classifying_space(pi)
            except PreconditionError:
                continue
            proj, quotient, straightened = \
                oracle_relative_classifying_space(pi)
            assert docs.dumps(docs.functor_to_doc(rcs.projection)) == \
                docs.dumps(docs.functor_to_doc(proj))
            assert docs.dumps(docs.functor_to_doc(rcs.quotient)) == \
                docs.dumps(docs.functor_to_doc(quotient))
            assert docs.dumps(docs.set_valued_to_doc(rcs.straightened)) == \
                docs.dumps(docs.set_valued_to_doc(straightened))
            assert rcs.straightened == straightened
            handed[rcs.handed] += 1
        assert handed["right"] >= 40 and handed["left"] >= 40


class TestMaximalSubfibrations:
    def test_product_projection_keeps_invertible_components(self):
        C = core.retract_category()
        P, pr1, pr2 = core.product_projections(C, core.interval(1))
        sub = transport.maximal_left_subfibration(pr2)
        # morphisms (gamma, f) with gamma invertible: only identities here
        vertical = [m for m in sub.source.morphisms
                    if sub.mor_map[m] == "0->0"]
        assert all(sub.source.is_identity(m) or
                   C.is_iso(pr1.mor_map[m])
                   for m in vertical)

    def test_discrete_opfibration_is_its_own_maximal_left_part(self):
        proj = transport.unstraighten(small_diagram())
        sub = transport.maximal_left_subfibration(proj)
        assert len(sub.source.morphisms) == len(proj.source.morphisms)

    def test_arrow_evaluation_fiber_becomes_discrete(self):
        Ar, ev_s, ev_t = core.arrow_category(core.interval(2))
        sub = transport.maximal_left_subfibration(ev_t)
        fiber2 = core.fiber(sub, "2")
        assert len(fiber2.objects) == 3
        assert fiber2.non_identity_morphisms() == ()

    def test_maximal_right_subfibration_dual(self):
        Ar, ev_s, ev_t = core.arrow_category(core.interval(1))
        sub = transport.maximal_right_subfibration(ev_s)
        assert fib.is_strict_discrete_fibration(sub).ok or \
            fib.is_right_fibration(sub).ok


class TestPushforward:
    def test_identity_pushforward_recovers_the_input(self):
        I1 = core.interval(1)
        Z = core.prefix_relabel(I1, "z.")
        zeta = core.Functor(Z, I1, {"z.0": "0", "z.1": "1"},
                            {"z.0->0": "0->0", "z.0->1": "0->1",
                             "z.1->1": "1->1"})
        push = transport.pushforward_exponentiable(
            core.identity_functor(I1), zeta)
        assert len(push.projection.source.objects) == len(Z.objects)
        assert len(push.projection.source.morphisms) == len(Z.morphisms)

    def test_global_sections_over_a_point(self):
        E = core.interval(1)
        ptE = core.constant_functor(E, core.terminal(), "*")
        Z = core.prefix_relabel(core.interval(1), "w.")
        zeta = core.Functor(Z, E, {"w.0": "0", "w.1": "1"},
                            {"w.0->0": "0->0", "w.0->1": "0->1",
                             "w.1->1": "1->1"})
        push = transport.pushforward_exponentiable(ptE, zeta)
        sections = core.functors_over(core.identity_functor(E), zeta)
        assert len(push.projection.source.objects) == len(sections)

    def test_sections_identify_with_relative_functors(self):
        rng = random.Random(40)
        pi = randgen.random_functor_over_1(rng, max_objects=1,
                                           max_morphisms=3, max_generators=1)
        E = pi.source
        Z, z1, z2 = core.product_projections(core.interval(1), E)
        spot = transport.pushforward_adjunction_check(
            pi, z2, core.identity_functor(pi.target))
        assert spot["bijective"]

    def test_adjunction_with_multi_object_fibers(self):
        from fibcat import correspondences as corrs
        rng = random.Random(41)
        done = 0
        while done < 2:
            P01, P12 = randgen.random_composable_profunctors(
                rng, max_objects=2, max_morphisms=4, max_generators=1)
            glued = corrs.glue_over_triangle(corrs.collage(P01),
                                             corrs.collage(P12))
            pi = glued.projection
            E = pi.source
            if len(E.objects) > 5 or len(E.morphisms) > 10:
                continue
            if all(len(core.fiber(pi, x).objects) <= 1
                   for x in pi.target.objects):
                continue
            Zt, zpr1, zeta = core.product_projections(core.interval(1), E)
            push = transport.pushforward_exponentiable(pi, zeta)
            for p in core.all_functors(core.interval(1), pi.target):
                assert transport.pushforward_adjunction_check(
                    pi, zeta, p, push=push)["bijective"]
            done += 1

    def test_refuses_sections_that_print_alike(self):
        # over the point, the sections (p, q) |-> (a;q:b, c) and
        # (a, b;q:c) both print as <p:a;q:b;q:c|ip:x;iq:y;iq:z>@*
        E = core.relabel(core.discrete_category(["p", "q"]),
                         morphism_map={"id_p": "ip", "id_q": "iq"})
        Z = core.relabel(
            core.discrete_category(["a;q:b", "c", "a", "b;q:c"]),
            morphism_map={"id_a": "x", "id_a;q:b": "x;iq:y", "id_c": "z",
                          "id_b;q:c": "y;iq:z"})
        over = {"a;q:b": "p", "a": "p", "c": "q", "b;q:c": "q"}
        zeta = core.Functor(Z, E, over, {Z.identity[z]: E.identity[e]
                                         for z, e in over.items()})
        pi = core.constant_functor(E, core.terminal(), "*")
        with pytest.raises(PreconditionError) as err:
            transport.pushforward_exponentiable(pi, zeta)
        assert err.value.witness == [
            ({"p": "a", "q": "b;q:c"}, {"ip": "x", "iq": "y;iq:z"}),
            ({"p": "a;q:b", "q": "c"}, {"ip": "x;iq:y", "iq": "z"})]
        assert "share the object id <p:a;q:b;q:c|ip:x;iq:y;iq:z>@*" in \
            str(err.value)

    def test_refusal_with_conduche_witness(self):
        I2 = core.interval(2)
        inc = core.inclusion_functor(core.full_subcategory(I2, ["0", "2"]), I2)
        with pytest.raises(PreconditionError) as err:
            transport.pushforward_exponentiable(
                inc, core.identity_functor(inc.source))
        assert err.value.witness["factorizations"] == 0


class TestKanExtension:
    def test_identity_direction_left(self):
        F = small_diagram()
        G = transport.kan_extend_along_fibration(
            core.identity_functor(core.interval(1)), F, "left")
        assert {x: len(v) for x, v in G.values.items()} == {"0": 1, "1": 2}

    def test_constant_diagram_with_connected_fibers(self):
        C = core.interval(1)
        P, pr1, pr2 = core.product_projections(C, core.interval(1))
        Fc = SetValuedFunctor(P, {x: ("u",) for x in P.objects},
                              {m: {"u": "u"} for m in P.morphisms}).validate()
        for direction in ("left", "right"):
            G = transport.kan_extend_along_fibration(pr2, Fc, direction)
            assert all(len(v) == 1 for v in G.values.values())

    def test_two_component_fiber_gives_two_classes(self):
        K = core.interval(1)
        F2 = SetValuedFunctor(
            K, {"0": ("a", "b"), "1": ("c", "d")},
            {"0->0": {"a": "a", "b": "b"},
             "1->1": {"c": "c", "d": "d"},
             "0->1": {"a": "c", "b": "d"}}).validate()
        pi = transport.unstraighten(F2)
        diag = SetValuedFunctor(
            pi.source, {e: ("u",) for e in pi.source.objects},
            {m: {"u": "u"} for m in pi.source.morphisms}).validate()
        G = transport.kan_extend_along_fibration(pi, diag, "left")
        assert {x: len(v) for x, v in G.values.items()} == {"0": 2, "1": 2}

    def test_right_direction_computes_compatible_families(self):
        K = core.interval(1)
        C = core.discrete_category(["u", "v"])
        P, pr1, pr2 = core.product_projections(C, K)
        diag = SetValuedFunctor(
            P, {e: ("s", "t") for e in P.objects},
            {m: {"s": "s", "t": "t"} for m in P.morphisms}).validate()
        G = transport.kan_extend_along_fibration(pr2, diag, "right")
        # two independent objects per fiber, two values each: 4 families
        assert {x: len(v) for x, v in G.values.items()} == {"0": 4, "1": 4}

    def test_left_refuses_colimit_classes_that_print_alike(self):
        # the two classes (p, q|r) and (p|q, r) were both named [p|q|r],
        # merged, and then failed the comma cross-check
        E = core.discrete_category(["p", "p|q"])
        pi = core.constant_functor(E, core.terminal(), "*")
        diag = SetValuedFunctor(
            E, {"p": ("q|r",), "p|q": ("r",)},
            {"id_p": {"q|r": "q|r"}, "id_p|q": {"r": "r"}}).validate()
        with pytest.raises(PreconditionError) as err:
            transport.kan_extend_along_fibration(pi, diag, "left")
        assert err.value.witness == [("p", "q|r"), ("p|q", "r")]
        assert "share the class id [p|q|r]" in str(err.value)

    def test_right_refuses_families_that_print_alike(self):
        # the families (a:x, b:y;b:z) and (a:x;b:y, b:z) were both named
        # {a:x;b:y;b:z}: 4 values of which 3 were distinct
        E = core.discrete_category(["a", "b"])
        pi = core.constant_functor(E, core.terminal(), "*")
        diag = SetValuedFunctor(
            E, {"a": ("x", "x;b:y"), "b": ("z", "y;b:z")},
            {"id_a": {"x": "x", "x;b:y": "x;b:y"},
             "id_b": {"z": "z", "y;b:z": "y;b:z"}}).validate()
        with pytest.raises(PreconditionError) as err:
            transport.kan_extend_along_fibration(pi, diag, "right")
        first, second = (("a", "x"), ("b", "y;b:z")), (("a", "x;b:y"),
                                                       ("b", "z"))
        assert err.value.witness == [first, second]
        assert str(err.value) == (f"families {first} and {second} share the "
                                  "family id {a:x;b:y;b:z}")

    def test_precondition_refusal(self):
        I2 = core.interval(2)
        inc = core.inclusion_functor(core.full_subcategory(I2, ["0", "2"]), I2)
        diag = SetValuedFunctor(
            inc.source, {e: ("u",) for e in inc.source.objects},
            {m: {"u": "u"} for m in inc.source.morphisms}).validate()
        with pytest.raises(PreconditionError):
            transport.kan_extend_along_fibration(inc, diag, "left")

    @pytest.mark.parametrize("direction, check", [
        ("left", "is_left_final_fibration"),
        ("right", "is_right_initial_fibration")])
    def test_refusal_runs_the_end_check_once(self, monkeypatch, direction,
                                             check):
        I2 = core.interval(2)
        inc = core.inclusion_functor(core.full_subcategory(I2, ["0", "2"]), I2)
        diag = SetValuedFunctor(
            inc.source, {e: ("u",) for e in inc.source.objects},
            {m: {"u": "u"} for m in inc.source.morphisms}).validate()
        calls = []
        original = getattr(fib, check)
        monkeypatch.setattr(fib, check,
                            lambda pi: calls.append(pi) or original(pi))
        with pytest.raises(PreconditionError) as err:
            transport.kan_extend_along_fibration(inc, diag, direction)
        assert len(calls) == 1
        assert err.value.witness == original(inc).witness
