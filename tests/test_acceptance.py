"""Acceptance suite.

Each test implements one exit criterion exactly, at its stated instance
count, and prints a single pass/fail line.  Everything here is exact
integer/set arithmetic; there are no tolerances to tune.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from fibcat import cli, core, correspondences as corrs, documents as docs
from fibcat import fibrations as fib, homology, randgen, transport
from fibcat.homology import SetValuedFunctor


def criterion(number, description, ok):
    print(f"criterion {number:2d} ({description}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {description}"


# -- small-category catalog used where a criterion quantifies over "all"
#    categories of bounded size ------------------------------------------------


def parallel_pair():
    return core.FiniteCategory(
        ["v0", "v1"],
        [("iv0", "v0", "v0"), ("iv1", "v1", "v1"),
         ("e0", "v0", "v1"), ("e1", "v0", "v1")],
        {"v0": "iv0", "v1": "iv1"},
        {("iv0", "iv0"): "iv0", ("iv1", "iv1"): "iv1",
         ("e0", "iv0"): "e0", ("iv1", "e0"): "e0",
         ("e1", "iv0"): "e1", ("iv1", "e1"): "e1"})


def span_poset():
    return core.poset_from_order(
        ["l", "m", "r"], lambda a, b: a == b or (a == "m" and b in ("l", "r")))


def cospan_poset():
    return core.poset_from_order(
        ["l", "m", "r"], lambda a, b: a == b or (b == "m" and a in ("l", "r")))


def catalog():
    return [
        core.terminal(),
        core.interval(1),
        core.interval(2),
        core.discrete_category(["d0", "d1"]),
        parallel_pair(),
        span_poset(),
        cospan_poset(),
        core.idempotent_category(),
        core.walking_isomorphism(),
    ]


def test_criterion_1_equivalence_triangle():
    rng = random.Random(1001)
    for i in range(200):
        A = randgen.random_category(rng, 4, 10, prefix="a.")
        B = randgen.random_category(rng, 4, 10, prefix="b.")
        P = randgen.random_profunctor(rng, A, B)
        c = corrs.collage(P)
        X = corrs.profunctor_to_bifib(P)
        corrs.roundtrip_prof_corr(P)
        corrs.roundtrip_prof_bifib(P)
        corrs.roundtrip_corr_prof(c)
        corrs.roundtrip_corr_bifib(c)
        corrs.roundtrip_bifib_prof(X)
        corrs.roundtrip_bifib_corr(X)
    criterion(1, "all six presentation round trips on 200 random bimodules",
              True)


def test_criterion_2_composition_route_coherence():
    rng = random.Random(1002)
    for i in range(100):
        P01, P12 = randgen.random_composable_profunctors(rng)
        corrs.composition_routes(P01, P12)
    criterion(2, "three composition routes agree on 100 random pairs", True)


def test_criterion_3_reference_examples():
    ok = True
    # the standard non-example, with its empty-factorization witness
    I2 = core.interval(2)
    inc = core.inclusion_functor(core.full_subcategory(I2, ["0", "2"]), I2)
    v = fib.is_exponentiable(inc)
    ok &= (not v.ok and v.witness["factorizations"] == 0
           and v.witness["lift"] == "0->2")
    # every functor to [1] (sampled exhaustively over the collage family)
    rng = random.Random(1003)
    for _ in range(25):
        ok &= fib.is_exponentiable(randgen.random_functor_over_1(rng)).ok
    # every consecutive segment inclusion for n <= 5
    for n in range(1, 6):
        In = core.interval(n)
        for i in range(n + 1):
            for j in range(i, n + 1):
                seg = core.full_subcategory(
                    In, [str(k) for k in range(i, j + 1)])
                ok &= fib.is_exponentiable(
                    core.inclusion_functor(seg, In)).ok
    # every functor to a finite groupoid
    for G in (core.walking_isomorphism(), core.cyclic_group_category(2)):
        for E in (core.retract_category(), core.interval(2), parallel_pair()):
            for _ in range(3):
                F = randgen.random_functor_between(rng, E, G)
                ok &= fib.is_exponentiable(F).ok
    # arrow-category evaluations: coCartesian and left final for n <= 3
    for n in range(1, 4):
        Ar, ev_s, ev_t = core.arrow_category(core.interval(n))
        ok &= fib.is_cocartesian_fibration(ev_t).ok
        ok &= fib.is_left_final_fibration(ev_t).ok
    criterion(3, "reference examples and counterexamples reproduced", ok)


def test_criterion_4_idempotent_retraction_bimodules():
    Idem = core.idempotent_category()
    Ret = core.retract_category()
    inc = core.Functor(Idem, Ret, {"*": "y"}, {"id": "id_y", "e": "e"})
    P = corrs.hom_profunctor_along(inc, core.identity_functor(Ret))
    Q = corrs.hom_profunctor_along(core.identity_functor(Ret), inc)
    over_ret, cls1 = corrs.compose_prof(P, Q)
    hom_inverse = {"id_y": "id", "e": "e"}
    corrs._iso_on_classes(
        over_ret, corrs.hom_profunctor(Idem), cls1,
        lambda a, c, b, x, y: hom_inverse[Ret.compose(y, x)],
        "composite over the retraction")
    over_idem, cls2 = corrs.compose_prof(Q, P)
    corrs._iso_on_classes(
        over_idem, corrs.hom_profunctor(Ret), cls2,
        lambda a, c, b, x, y: Ret.compose(y, x),
        "composite over the idempotent")
    criterion(4, "both composite bimodules are identity bimodules, exactly",
              True)


# -- criterion 5: classifier equivalence menus ---------------------------------


def _menu_firsthalf(pi):
    """Over [1]: coCartesian iff the target-fiber inclusion is a right
    adjoint (and dually)."""
    results = []
    for phi in pi.target.morphisms:
        if pi.target.is_identity(phi):
            continue
        proj, _, total = core.base_change(pi, fib._arrow_functor(
            pi.target, phi))
        a = fib.is_cocartesian_fibration(proj).ok
        inc = core.inclusion_functor(core.fiber(proj, "1"), proj.source)
        b = fib.is_right_adjoint(inc).ok
        results.append(a == b)
        a_c = fib.is_cartesian_fibration(proj).ok
        inc_s = core.inclusion_functor(core.fiber(proj, "0"), proj.source)
        b_c = fib.is_left_adjoint(inc_s).ok
        results.append(a_c == b_c)
    return all(results)


def _fiber_into_slice(pi, y):
    """The inclusion of the fiber over y into the pulled-back slice."""
    K = pi.target
    sl, forget = core.slice_category(K, y)
    sq = core.pullback(pi, forget)
    fib_y = core.fiber(pi, y)
    idy = K.identity[y]
    ob_map = {e: core.pair_id(e, idy) for e in fib_y.objects}
    slice_id = core._square_id(idy, "id", idy, idy)
    mor_map = {m: core.pair_id(m, slice_id) for m in fib_y.morphisms}
    return core.Functor(fib_y, sq.total, ob_map, mor_map)


def _fiber_into_coslice(pi, x):
    K = pi.target
    co, forget = core.coslice_category(K, x)
    sq = core.pullback(pi, forget)
    fib_x = core.fiber(pi, x)
    idx = K.identity[x]
    ob_map = {e: core.pair_id(e, idx) for e in fib_x.objects}
    mor_map = {m: core.pair_id(m, core._square_id(idx, "id", idx, idx))
               for m in fib_x.morphisms}
    return core.Functor(fib_x, sq.total, ob_map, mor_map)


def _menu_locally_cocartesian(pi):
    K = pi.target
    a = fib.is_locally_cocartesian(pi).ok
    b = all(fib.is_right_adjoint(_fiber_into_slice(pi, y)).ok
            for y in K.objects)
    c = True
    for phi in K.morphisms:
        secs, ev_s, ev_t, fs, ft, proj, total = fib.sections_over_arrow(
            pi, phi)
        c = c and fib.is_right_adjoint(ev_s).ok
    return a == b == c


def _menu_left_fibration(pi):
    K = pi.target
    cons = fib.is_conservative(pi).ok
    b = cons and fib.is_cocartesian_fibration(pi).ok
    c = cons and fib.is_locally_cocartesian(pi).ok
    d = True
    e = True
    for phi in K.morphisms:
        secs, ev_s, ev_t, fs, ft, proj, total = fib.sections_over_arrow(
            pi, phi)
        d = d and ev_s.is_equivalence()
        e = e and fib.is_cocartesian_fibration(proj).ok and all(
            fib.is_cocartesian_morphism(proj, m).ok
            for m in proj.source.morphisms if proj.mor_map[m] == "0->1")
    f = fib.is_left_fibration(pi).ok
    return b == c == d == e == f


def _menu_finality(pi):
    if not fib.is_exponentiable(pi).ok:
        return True
    K = pi.target
    a = b = True
    for phi in K.morphisms:
        a = a and homology.is_final(
            fib.fiber_inclusion_over_arrow(pi, phi, "1")).ok
        secs, ev_s, ev_t, fs, ft, proj, total = fib.sections_over_arrow(
            pi, phi)
        b = b and homology.is_final(ev_s).ok
    c = all(homology.is_final(_fiber_into_slice(pi, y)).ok
            for y in K.objects)
    return a == b == c


def test_criterion_5_classifier_menus():
    rng = random.Random(1005)
    checked = 0
    while checked < 300:
        if checked % 2 == 0:
            pi = randgen.random_functor_over_1(rng)
        else:
            pi = randgen.random_functor_over_2(rng, max_objects=2,
                                               max_morphisms=4,
                                               max_generators=1)
        if len(pi.source.morphisms) > 12:
            continue
        assert _menu_firsthalf(pi), f"first-half menu disagrees, case {checked}"
        assert _menu_locally_cocartesian(pi), \
            f"locally-coCartesian menu disagrees, case {checked}"
        assert _menu_left_fibration(pi), \
            f"left-fibration menu disagrees, case {checked}"
        assert _menu_finality(pi), f"finality menu disagrees, case {checked}"
        checked += 1
    criterion(5, "equivalence menus agree pairwise on 300 random functors",
              True)


def test_criterion_6_replacement_universal_properties():
    rng = random.Random(1006)
    ok = True
    for i in range(8):
        K = randgen.random_poset(rng, 3)
        pi = randgen.random_functor_over(rng, K)
        rep = transport.cocart_replacement(pi)
        ok &= fib.is_cocartesian_fibration(rep.projection).ok
        lrep = transport.lfib_replacement(pi)
        for F in homology.all_set_valued_functors(K, max_size=2):
            Z = transport.unstraighten(F)
            before = core.functors_over(lrep.projection, Z)
            after = core.functors_over(pi, Z)
            restricted = {core.functor_object_id(lrep.unit.then(S))
                          for S in before}
            ok &= len(restricted) == len(before)
            ok &= restricted == {core.functor_object_id(S) for S in after}
    criterion(6, "replacement universal properties on random bases", ok)


def test_criterion_7_pushforward_adjunction():
    rng = random.Random(1007)
    K = core.interval(2)
    js = []
    for J in [core.terminal(), core.interval(1),
              core.discrete_category(["d0", "d1"]), core.interval(2)]:
        js.extend(core.all_functors(J, K))
    ok = True
    for i in range(50):
        pi = randgen.random_functor_over_2(rng, max_objects=1,
                                           max_morphisms=3, max_generators=1)
        if not fib.is_exponentiable(pi).ok:
            pi = corrs.glue_over_triangle(
                corrs.collage(randgen.random_profunctor(
                    rng, core.prefix_relabel(core.terminal(), "a."),
                    core.prefix_relabel(core.terminal(), "b."),
                    max_generators=1)),
                corrs.collage(randgen.random_profunctor(
                    rng, core.prefix_relabel(core.terminal(), "b."),
                    core.prefix_relabel(core.terminal(), "c."),
                    max_generators=1))).projection
        E = pi.source
        M = core.interval(1) if rng.random() < 0.5 else core.terminal()
        Zt, zpr1, zeta = core.product_projections(M, E)
        push = transport.pushforward_exponentiable(pi, zeta)
        for p in js:
            res = transport.pushforward_adjunction_check(
                pi, zeta, p, push=push)
            ok &= res["bijective"]
        if not ok:
            break
    criterion(7, "pushforward adjunction bijection on 50 random instances",
              ok)


def test_criterion_8_finality_exactness():
    cats = [C for C in catalog() if len(C.objects) <= 3]
    ok = True
    checked = 0
    for C in cats:
        for D in cats:
            if len(D.morphisms) > 6 or len(C.morphisms) > 6:
                continue
            diagrams = homology.all_set_valued_functors(D, max_size=2)
            for F in core.all_functors(C, D):
                verdict = homology.is_final(F).ok
                exact = all(homology.colimit_comparison_is_bijective(F, G)
                            for G in diagrams)
                ok &= verdict == exact
                checked += 1
    assert checked > 100
    criterion(8, "pi0-exact finality matches the set-colimit oracle "
                 f"({checked} functors)", ok)


def test_criterion_9_finality_calculus():
    rng = random.Random(1009)
    ok = True
    # two-out-of-three, both directions
    for _ in range(100):
        f = randgen.random_final_functor(rng)
        to_point = core.constant_functor(f.target, core.terminal(), "*")
        g = transport.rfib_replacement(to_point).unit
        ok &= homology.is_final(g).ok
        ok &= homology.is_final(f.then(g)).ok          # law: composites
        h = f.then(g)
        if homology.is_final(f).ok and homology.is_final(h).ok:
            ok &= homology.is_final(g).ok              # law: right cancel
    # product closure
    for _ in range(100):
        f = randgen.random_final_functor(rng, max_objects=2)
        g = randgen.random_final_functor(rng, max_objects=2)
        ok &= homology.is_final(_product_functor(f, g)).ok
    # the localization family: projections off a product with [1]
    for _ in range(100):
        C = randgen.random_category(rng, 3, 7)
        P, pr1, pr2 = core.product_projections(C, core.interval(1))
        ok &= homology.is_final(pr1).ok
        ok &= homology.is_initial(pr1).ok
    # pullback stability along a coCartesian fibration
    for _ in range(100):
        f = randgen.random_final_functor(rng, max_objects=2)
        C = randgen.random_category(rng, 2, 5, prefix="z.")
        P, pr1, pr2 = core.product_projections(C, f.target)
        sq = core.pullback(f, pr2)
        ok &= homology.is_final(sq.to_right).ok
    criterion(9, "two-out-of-three, products, localizations, pullback "
                 "stability (100 instances each)", ok)


def _pf(f, g):
    P, p1, p2 = core.product_projections(f.source, g.source)
    return p1.then(f), p2.then(g)


def _product_functor(f, g):
    left, right = _pf(f, g)
    return core.pairing_functor(left, right)


def test_criterion_10_homology_engine():
    ok = True
    for n in range(5):
        ok &= homology.homology(core.interval(n), 3).reduced_trivial_up_to(3)
    ok &= homology.homology(core.walking_isomorphism(),
                            3).reduced_trivial_up_to(3)
    rep = homology.homology(core.cyclic_group_category(2), 3)
    ok &= rep.degree(1) == (0, (2,))
    ok &= rep.degree(2) == (0, ())
    ok &= rep.degree(3) == (0, (2,))
    # against the independent dense-matrix oracle
    from test_homology import oracle_homology
    for C in [core.cyclic_group_category(2), core.retract_category(),
              core.walking_isomorphism(), core.interval(3)]:
        mine = homology.homology(C, 3)
        betti, torsion = oracle_homology(C, 3)
        ok &= mine.betti == betti
        ok &= [list(t) for t in mine.torsion] == torsion
    criterion(10, "homology certificates exact against the boundary oracle",
              ok)


def test_criterion_11_pi0_pullback_squares():
    rng = random.Random(1011)
    ok = True
    for i in range(50):
        pi = randgen.random_two_handed_fibration(rng)
        K = pi.target
        Yp = randgen.random_category(rng, 3, 6, prefix="y.")
        f = randgen.random_functor_between(rng, Yp, K)
        ok &= homology.quillenB_pi0_square(f, pi)["pullback"]
    criterion(11, "pi0 squares over two-handed fibrations are pullbacks "
                  "(50 instances)", ok)


def test_criterion_12_determinism_across_thread_counts():
    outputs = []
    for jobs in ("1", "4"):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["suite", "--seed", "12", "--size", "2",
                             "--jobs", jobs])
        assert code == 0
        outputs.append(buf.getvalue())
    ok = outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    ok &= report["verdicts"]["all_passed"]
    criterion(12, "suite reports byte-identical across thread counts", ok)


def _category_state(C):
    C.isomorphisms()
    return {slot: getattr(C, slot) for slot in core.FiniteCategory.__slots__}


def test_shared_builders_survive_the_cli_workflows(tmp_path):
    """terminal() and interval(n) hand one instance to every caller, so no
    workflow may change them: after the suite workflow of criterion 12 and
    every subcommand on the bundled fixtures, each equals a fresh build."""
    from fibcat import fixtures
    shared = {n: core.interval(n) for n in range(6)}
    terminal = core.terminal()
    fixtures.write_fixtures(str(tmp_path))
    test_criterion_12_determinism_across_thread_counts()
    from test_documents_cli import fixture_commands
    for argv in fixture_commands(str(tmp_path)):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            cli.main(argv)
    assert core.terminal() is terminal
    fresh = core.FiniteCategory(["*"], [("id", "*", "*")], {"*": "id"},
                                {("id", "id"): "id"})
    assert _category_state(terminal) == _category_state(fresh)
    for n, C in shared.items():
        assert core.interval(n) is C
        assert _category_state(C) == _category_state(core.poset_from_order(
            [str(i) for i in range(n + 1)], lambda a, b: int(a) <= int(b)))
