import contextlib
import io
import random

import pytest

from fibcat import bifib_squares, cli, core, correspondences as corrs
from fibcat import documents as docs
from fibcat import fibrations as fib, fixtures, homology, randgen
from fibcat.core import CategoryError, FiniteCategory, PreconditionError


def idem_ret_bimodules():
    Idem = core.idempotent_category()
    Ret = core.retract_category()
    inc = core.Functor(Idem, Ret, {"*": "y"}, {"id": "id_y", "e": "e"})
    P = corrs.hom_profunctor_along(inc, core.identity_functor(Ret))
    Q = corrs.hom_profunctor_along(core.identity_functor(Ret), inc)
    return Idem, Ret, inc, P, Q


class TestProfunctors:
    def test_hom_profunctor_validates(self):
        corrs.hom_profunctor(core.retract_category())

    def test_bad_action_is_rejected(self):
        T1 = core.relabel(core.terminal(), {"*": "s"}, {"id": "i"})
        T2 = core.relabel(core.terminal(), {"*": "t"}, {"id": "j"})
        with pytest.raises(PreconditionError):
            corrs.Profunctor(T1, T2, {("s", "t"): ("u",)},
                             {("i", "t"): {"u": "missing"}},
                             {("s", "j"): {"u": "u"}}).validate()

    def test_transpose_is_an_involution_on_elements(self):
        rng = random.Random(1)
        A = randgen.random_category(rng, 2, 5, prefix="a.")
        B = randgen.random_category(rng, 2, 5, prefix="b.")
        P = randgen.random_profunctor(rng, A, B)
        Pt = corrs.transpose_profunctor(P)
        assert {(b, a): v for (a, b), v in P.elements.items()} == Pt.elements


class TestCollage:
    def test_empty_profunctor_gives_disjoint_union(self):
        A = core.prefix_relabel(core.interval(1), "a.")
        B = core.prefix_relabel(core.terminal(), "b.")
        c = corrs.collage(corrs.empty_profunctor(A, B))
        assert len(c.total.objects) == 3
        assert len(c.cross_morphisms()) == 0
        assert len(set(homology.pi0_map(c.total).values())) == 2

    def test_two_element_collage_has_two_cross_morphisms(self):
        T1 = core.relabel(core.terminal(), {"*": "s*"}, {"id": "s.id"})
        T2 = core.relabel(core.terminal(), {"*": "t*"}, {"id": "t.id"})
        P = corrs.Profunctor(T1, T2, {("s*", "t*"): ("u", "v")},
                             {("s.id", "t*"): {"u": "u", "v": "v"}},
                             {("s*", "t.id"): {"u": "u", "v": "v"}}).validate()
        c = corrs.collage(P)
        assert len(c.cross_morphisms()) == 2

    def test_sections_of_identity_collage_are_arrows(self):
        C = core.retract_category()
        # relabel one side so ids stay disjoint
        P = corrs.relabel_profunctor(
            corrs.hom_profunctor(C),
            source=({x: f"s.{x}" for x in C.objects},
                    {m: f"s.{m}" for m in C.morphisms}))
        c = corrs.collage(P)
        secs, ids, comps = core.sections_category(
            core.identity_functor(core.interval(1)), c.projection)
        Ar, _, _ = core.arrow_category(C)
        assert len(secs.objects) == len(Ar.objects)
        assert len(secs.morphisms) == len(Ar.morphisms)

    def test_identity_correspondence_reads_back_the_hom_bimodule(self):
        C = core.retract_category()
        idc = corrs.identity_correspondence(C)
        P = corrs.corr_to_profunctor(idc)
        # relabel the hom bimodule along the pair encodings of C x [1] and
        # exhibit the canonical iso: a cross morphism is (m, s->t)
        H = corrs.relabel_profunctor(
            corrs.hom_profunctor(C),
            source=({x: core.pair_id(x, "0") for x in C.objects},
                    {m: core.pair_id(m, "0->0") for m in C.morphisms}),
            target=({x: core.pair_id(x, "1") for x in C.objects},
                    {m: core.pair_id(m, "1->1") for m in C.morphisms}))
        corrs.profunctor_iso_from_map(
            H, P, lambda a, b, x: core.pair_id(x, "0->1"))

    def test_collage_between_groupoids_is_conservative(self):
        rng = random.Random(15)
        G1 = core.prefix_relabel(core.walking_isomorphism(), "g.")
        G2 = core.prefix_relabel(core.cyclic_group_category(2), "h.")
        for _ in range(5):
            P = randgen.random_profunctor(rng, G1, G2)
            c = corrs.collage(P)
            assert fib.is_conservative(c.projection).ok


class TestBifibrations:
    def test_identity_correspondence_sections_are_arrows(self):
        C = core.interval(1)
        X = corrs.corr_to_bifib(corrs.identity_correspondence(C))
        Ar, _, _ = core.arrow_category(C)
        assert len(X.total.objects) == len(Ar.objects)
        assert len(X.total.morphisms) == len(Ar.morphisms)

    def test_two_sidedness_failure_is_rejected_with_witness(self):
        A = core.relabel(core.terminal(), {"*": "a"}, {"id": "ia"})
        B = core.relabel(core.terminal(), {"*": "b"}, {"id": "ib"})
        # several objects in one fiber are fine
        X = core.discrete_category(["x", "y"])
        assert corrs.check_two_sided_discrete(
            X, core.constant_functor(X, A, "a"),
            core.constant_functor(X, B, "b")).ok
        # a non-identity vertical morphism breaks lift uniqueness
        X2 = core.interval(1)
        to_A = core.constant_functor(X2, A, "a")
        to_B = core.constant_functor(X2, B, "b")
        check = corrs.check_two_sided_discrete(X2, to_A, to_B)
        assert not check.ok
        assert check.witness["kind"] == "source-fixed lift"
        with pytest.raises(PreconditionError) as exc:
            corrs.TwoSidedDiscreteFibration(X2, to_A, to_B).validate()
        assert exc.value.witness == check.witness

    def test_ret_fiber_of_the_inclusion_correspondence(self):
        # cross-homs of the collage of the idempotent/retraction bimodule
        Idem, Ret, inc, P, Q = idem_ret_bimodules()
        P2 = corrs.relabel_profunctor(
            P, source=({"*": "a*"}, {"id": "a.id", "e": "a.e"}))
        X = corrs.profunctor_to_bifib(P2)
        assert X.fiber_elements("a*", "y") == (core.comma_object_id(
            "a*", "y", "e"), core.comma_object_id("a*", "y", "id_y"))
        assert len(X.fiber_elements("a*", "x")) == 1


def _transports(ends, moves):
    """rho or lam on ends: each end to itself along the identities of the
    given side, and moves[(x, arrow)] along the other arrows."""
    return lambda C, side: {
        **{(x, C.identity[e[side]]): x for x, e in ends.items()}, **moves}


def _not_functorial():
    # rho(x0, 0->2) = y2, but rho(rho(x0, 0->1), 1->2) = x2
    T, B = core.terminal(), core.interval(2)
    ends = {x: ("*", x[1], x) for x in ("x0", "x1", "x2", "y2")}
    rho = _transports(ends, {("x0", "0->1"): "x1", ("x1", "1->2"): "x2",
                             ("x0", "0->2"): "y2"})(B, 1)
    return T, B, ends, rho, _transports(ends, {})(T, 0), "composite of"


def _not_commuting():
    # rho(lam(x10, 0->1), 0->1) = x01, but lam(rho(x10, 0->1), 0->1) = y01
    I = core.interval(1)
    ends = {x: (x[1], x[2], x) for x in ("x00", "x01", "y01", "x10", "x11")}
    rho = _transports(ends, {("x00", "0->1"): "x01",
                             ("x10", "0->1"): "x11"})(I, 1)
    lam = _transports(ends, {("x10", "0->1"): "x00",
                             ("x11", "0->1"): "y01"})(I, 0)
    return I, I, ends, rho, lam, "composite of"


def _no_identity_square():
    # rho(x, id) = z, while lam(x, id) = x
    T = core.terminal()
    ends = {x: ("*", "*", x) for x in ("x", "z")}
    rho = {("x", "id"): "z", ("z", "id"): "z"}
    return (T, T, ends, rho, _transports(ends, {})(T, 0),
            "identity of x is not a morphism")


def _not_unital_yet_closed():
    # rho(x, id) = lam(x, id) = z: not unital, yet every pair of ends has
    # one square, and the squares form the indiscrete category on {x, z}
    T = core.terminal()
    ends = {x: ("*", "*", x) for x in ("x", "z")}
    rho = {("x", "id"): "z", ("z", "id"): "z"}
    return T, T, ends, rho, dict(rho), None


class TestBifibrationsFromTransports:
    """_bifibration enumerates its squares from lawful transports and
    composes them on first read; on unlawful ones it is square_category."""

    def assert_as_square_category(self, A, B, ends, rho, lam, error):
        def commutes(x, alpha, beta, y):
            return rho[(x, beta)] == lam[(y, alpha)]

        if error is not None:
            with pytest.raises(CategoryError) as expected:
                core.square_category(A, B, ends, commutes)
            assert str(expected.value).startswith(error)
            with pytest.raises(CategoryError) as got:
                corrs._bifibration(A, B, ends, rho, lam)
            assert str(got.value) == str(expected.value)
            return
        total, to_A, to_B = core.square_category(A, B, ends, commutes)
        X = corrs._bifibration(A, B, ends, rho, lam)
        assert X.total == total
        assert (X.total._from, X.total._to, X.total._hom) == \
            (total._from, total._to, total._hom)
        assert (X.to_left, X.to_right) == (to_A, to_B)
        assert X.transports == (rho, lam)

    @pytest.mark.parametrize("planted", [_not_functorial, _not_commuting,
                                         _no_identity_square,
                                         _not_unital_yet_closed])
    def test_unlawful_transports_give_what_square_category_gives(
            self, planted):
        A, B, ends, rho, lam, error = planted()
        assert not bifib_squares._transports_lawful(A, B, ends, rho, lam)
        self.assert_as_square_category(A, B, ends, rho, lam, error)

    def test_colliding_square_ids_give_what_square_category_gives(self):
        # lawful transports whose squares x -> y>z and x>y -> z over
        # (id, 0->1) both print as (id,0->1):x>y>z
        T, I = core.terminal(), core.interval(1)
        ends = {x: ("*", b, x) for x, b in (("x", "0"), ("x>y", "0"),
                                            ("z", "1"), ("y>z", "1"))}
        rho = _transports(ends, {("x", "0->1"): "y>z",
                                 ("x>y", "0->1"): "z"})(I, 1)
        lam = _transports(ends, {})(T, 0)
        assert bifib_squares._transports_lawful(T, I, ends, rho, lam)
        assert bifib_squares._squares(T, I, ends, rho, lam) is None
        self.assert_as_square_category(T, I, ends, rho, lam,
                                       "duplicate morphism ids")

    def test_lawful_transports_compose_on_first_read(self):
        X = corrs.profunctor_to_bifib(corrs.hom_profunctor(core.interval(2)))
        assert isinstance(X.total, bifib_squares._ComposedOnRead)
        assert X.total._compose is not None
        assert X.total.compose("(0->0,1->2):(0,1,0->1)>(0,2,0->2)",
                               "(0->0,0->1):(0,0,0->0)>(0,1,0->1)") == \
            "(0->0,0->2):(0,0,0->0)>(0,2,0->2)"
        # the table is kept, and the closure that built it dropped
        assert X.total._compose is None

    def hom_documents(self, tmp_path, n):
        """Hom_[n] twice, composable, as bimodules and as collages."""
        C = core.interval(n)
        H = corrs.hom_profunctor(C)

        def rename(prefix):
            return ({x: prefix + x for x in C.objects},
                    {m: prefix + m for m in C.morphisms})

        pair = (corrs.relabel_profunctor(H, source=rename("a.")),
                corrs.relabel_profunctor(H, target=rename("c.")))
        paths = {}
        for kind, to_doc in (("hom", docs.profunctor_to_doc),
                             ("collage", lambda P: docs.correspondence_to_doc(
                                 corrs.collage(P)))):
            paths[kind] = [str(tmp_path / f"{kind}_{side}.json")
                           for side in ("left", "right")]
            for path, P in zip(paths[kind], pair):
                with open(path, "w") as fh:
                    fh.write(docs.dumps(to_doc(P)))
        return paths

    def test_compose_builds_no_table_and_roundtrip_does(self, tmp_path,
                                                        monkeypatch):
        made, composed = [], []

        class Counted(bifib_squares._ComposedOnRead):
            __slots__ = ()

            def __init__(self, *tables):
                super().__init__(*tables)
                made.append(self)

            def __getattr__(self, name):
                if name in self._ON_READ and self._compose is not None:
                    composed.append(self)
                return super().__getattr__(name)

        monkeypatch.setattr(bifib_squares, "_ComposedOnRead", Counted)
        paths = self.hom_documents(tmp_path, 5)

        def run(*argv):
            made.clear()
            composed.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(list(argv)) == 0
            return len(made), len(composed)

        for mode, kind in (("prof", "hom"), ("bifib", "hom"),
                           ("corr", "collage")):
            # two bifibrations of elements and their composite
            assert run("compose", "--mode", mode, *paths[kind]) == (3, 0)
        built, read = run("roundtrip", paths["collage"][0])
        # the round-trip isos read the tables of some totals
        assert 0 < read < built


def old_check_two_sided_discrete(X, to_A, to_B):
    """check_two_sided_discrete as it was before its indexes: lifts found
    by scanning, hom-discreteness counted by one sum per (alpha, gamma)."""
    A, B = to_A.target, to_B.target
    legs = {m: (to_A.mor_map[m], to_B.mor_map[m]) for m in X.morphisms}
    over = {x: (to_A.ob_map[x], to_B.ob_map[x]) for x in X.objects}
    rho, lam = {}, {}
    for x in X.objects:
        a, b = over[x]
        for beta in B.morphisms_from(b):
            lifts = [m for m in X.morphisms_from(x)
                     if legs[m] == (A.identity[a], beta)]
            if len(lifts) != 1:
                return False, {"kind": "source-fixed lift", "object": x,
                               "morphism": beta, "lifts": len(lifts)}
            rho[(x, beta)] = X.tgt[lifts[0]]
        for alpha in A.morphisms_to(a):
            lifts = [m for m in X.morphisms_to(x)
                     if legs[m] == (alpha, B.identity[b])]
            if len(lifts) != 1:
                return False, {"kind": "target-fixed lift", "object": x,
                               "morphism": alpha, "lifts": len(lifts)}
            lam[(x, alpha)] = X.src[lifts[0]]
    for x in X.objects:
        for y in X.objects:
            for alpha in A.hom(over[x][0], over[y][0]):
                for gamma in B.hom(over[x][1], over[y][1]):
                    count = sum(1 for m in X.hom(x, y)
                                if legs[m] == (alpha, gamma))
                    expected = 1 if rho[(x, gamma)] == lam[(y, alpha)] else 0
                    if count != expected:
                        return False, {
                            "kind": "hom discreteness", "from": x, "to": y,
                            "over": (alpha, gamma), "count": count,
                            "expected": expected}
    return True, {"rho": rho, "lam": lam}


def doubled_diagonal():
    """A square over [1] x [1] with two diagonals p -> s: every lift is
    unique, but p -> s has two morphisms over (0->1, 0->1)."""
    I1 = core.interval(1)
    legs = {"a": ("0->1", "0->0"), "b": ("0->0", "0->1"),
            "c": ("1->1", "0->1"), "d": ("0->1", "1->1"),
            "e1": ("0->1", "0->1"), "e2": ("0->1", "0->1")}
    ends = {"p": ("0", "0"), "q": ("1", "0"), "r": ("0", "1"), "s": ("1", "1")}
    morphisms = [(f"id_{x}", x, x) for x in ends] + [
        ("a", "p", "q"), ("b", "p", "r"), ("c", "q", "s"), ("d", "r", "s"),
        ("e1", "p", "s"), ("e2", "p", "s")]
    identities = {x: f"id_{x}" for x in ends}
    composition = {("c", "a"): "e1", ("d", "b"): "e1"}
    for m, x, y in morphisms:
        composition[(m, identities[x])] = m
        composition[(identities[y], m)] = m
    X = FiniteCategory(list(ends), morphisms, identities, composition)
    for x, e in ends.items():
        legs[identities[x]] = tuple(f"{i}->{i}" for i in e)
    return X, *(core.Functor(X, I1, {x: e[k] for x, e in ends.items()},
                             {m: lg[k] for m, lg in legs.items()})
                for k in (0, 1))


class TestTwoSidedDiscreteness:
    def test_indexed_check_matches_the_scanning_check(self):
        spans = [doubled_diagonal()]
        rng = random.Random(12)
        for _ in range(150):
            X = randgen.random_category(rng, 3, 6, prefix="x.")
            A = randgen.random_category(rng, 2, 4, prefix="a.")
            B = randgen.random_category(rng, 2, 4, prefix="b.")
            spans.append((X, randgen.random_functor_between(rng, X, A),
                          randgen.random_functor_between(rng, X, B)))
        for _ in range(30):
            Y = corrs.profunctor_to_bifib(
                randgen.random_composable_profunctors(rng)[0])
            spans.append((Y.total, Y.to_left, Y.to_right))
        kinds = set()
        for X, to_A, to_B in spans:
            check = corrs.check_two_sided_discrete(X, to_A, to_B)
            assert (check.ok, check.witness) == \
                old_check_two_sided_discrete(X, to_A, to_B)
            kinds.add(check.witness.get("kind", "ok"))
        assert kinds == {"ok", "source-fixed lift", "target-fixed lift",
                         "hom discreteness"}

    def test_doubled_diagonal_is_rejected_with_witness(self):
        check = corrs.check_two_sided_discrete(*doubled_diagonal())
        assert check.witness == {
            "kind": "hom discreteness", "from": "p", "to": "s",
            "over": ("0->1", "0->1"), "count": 2, "expected": 1}

    def test_validate_keeps_the_transports(self, monkeypatch):
        rng = random.Random(3)
        P = randgen.random_composable_profunctors(rng)[0]
        X = corrs.profunctor_to_bifib(P)
        check = corrs.check_two_sided_discrete(X.total, X.to_left, X.to_right)
        assert X.transports == (check.witness["rho"], check.witness["lam"])
        calls = []
        real = corrs.check_two_sided_discrete
        monkeypatch.setattr(corrs, "check_two_sided_discrete",
                            lambda *a: calls.append(a) or real(*a))
        Q = corrs.bifib_to_profunctor(X)
        assert calls == []
        # a span nobody validated is checked once, on the way
        fresh = corrs.TwoSidedDiscreteFibration(X.total, X.to_left,
                                                X.to_right)
        assert fresh == X and fresh.transports is None
        assert corrs.bifib_to_profunctor(fresh).elements == Q.elements
        assert len(calls) == 1 and fresh.transports == X.transports

    def test_colliding_class_ids_are_refused(self):
        # classes of ("p", "q|r") and ("p|q", "r") both print "[p|q|r]"
        A, B, C = (core.relabel(core.terminal(), {"*": x}, {"id": f"1{x}"})
                   for x in "abc")

        def discrete_span(objects, L, R):
            X = core.discrete_category(objects)
            return corrs.TwoSidedDiscreteFibration(
                X, core.constant_functor(X, L, L.objects[0]),
                core.constant_functor(X, R, R.objects[0])).validate()

        with pytest.raises(PreconditionError) as exc:
            corrs.compose_bifib(discrete_span(["p", "p|q"], A, B),
                                discrete_span(["q|r", "r"], B, C))
        assert exc.value.witness == [("p", "q|r"), ("p|q", "r")]
        assert "[p|q|r]" in str(exc.value)


class TestRoundTrips:
    def assert_all_six(self, P):
        c = corrs.collage(P)
        X = corrs.profunctor_to_bifib(P)
        corrs.roundtrip_prof_corr(P)
        corrs.roundtrip_prof_bifib(P)
        corrs.roundtrip_corr_prof(c)
        corrs.roundtrip_corr_bifib(c)
        corrs.roundtrip_bifib_prof(X)
        corrs.roundtrip_bifib_corr(X)
        assert corrs.corr_to_profunctor(c) == corrs.bifib_to_profunctor(
            corrs.corr_to_bifib(c))

    def test_on_hand_built_profunctors(self):
        Idem, Ret, inc, P, Q = idem_ret_bimodules()
        self.assert_all_six(corrs.relabel_profunctor(
            P, source=({"*": "a*"}, {"id": "a.id", "e": "a.e"})))

    def test_on_random_profunctors(self):
        rng = random.Random(100)
        for _ in range(20):
            A = randgen.random_category(rng, 3, 7, prefix="a.")
            B = randgen.random_category(rng, 3, 7, prefix="b.")
            self.assert_all_six(randgen.random_profunctor(rng, A, B))


class TestComposition:
    def test_actions_that_do_not_commute_break_an_internal_invariant(self):
        # alpha: a0 -> a1 and beta: b0 -> b1 act on x in P(a1, b0) as
        # beta·(x·alpha) = w and (beta·x)·alpha = v, so the class of x
        # through the middle goes to the classes of both w and v
        A = core.relabel(core.interval(1), {"0": "a0", "1": "a1"},
                         {"0->0": "a0.id", "1->1": "a1.id", "0->1": "alpha"})
        B = core.relabel(core.interval(1), {"0": "b0", "1": "b1"},
                         {"0->0": "b0.id", "1->1": "b1.id", "0->1": "beta"})
        C = core.relabel(core.terminal(), {"*": "c*"}, {"id": "c.id"})
        elements = {("a0", "b0"): ("u",), ("a0", "b1"): ("v", "w"),
                    ("a1", "b0"): ("x",), ("a1", "b1"): ("y",)}
        identity = {key: {e: e for e in es} for key, es in elements.items()}
        P01 = corrs.Profunctor(
            A, B, elements,
            {**{(f"{a}.id", b): t for (a, b), t in identity.items()},
             ("alpha", "b0"): {"x": "u"}, ("alpha", "b1"): {"y": "v"}},
            {**{(a, f"{b}.id"): t for (a, b), t in identity.items()},
             ("a0", "beta"): {"u": "w"}, ("a1", "beta"): {"x": "y"}})
        with pytest.raises(PreconditionError, match="do not commute"):
            P01.validate()
        P12 = corrs.Profunctor(
            B, C, {("b0", "c*"): ("p",), ("b1", "c*"): ("q",)},
            {("b0.id", "c*"): {"p": "p"}, ("b1.id", "c*"): {"q": "q"},
             ("beta", "c*"): {"q": "p"}},
            {("b0", "c.id"): {"p": "p"}, ("b1", "c.id"): {"q": "q"}}
        ).validate()
        with pytest.raises(fib.InternalInvariantError) as err:
            corrs.compose_prof(P01, P12)
        assert str(err.value) == (
            "left action on coend classes not well-defined at "
            "(alpha,c*,[b0:x|p]): ['[b0:u|p]', '[b1:v|q]']")

    def test_two_free_elements_through_a_point(self):
        # middle and outer categories are points; sets {p,q} and {r}
        S = core.relabel(core.terminal(), {"*": "s*"}, {"id": "s.id"})
        M = core.relabel(core.terminal(), {"*": "m*"}, {"id": "m.id"})
        T = core.relabel(core.terminal(), {"*": "t*"}, {"id": "t.id"})
        P01 = corrs.Profunctor(S, M, {("s*", "m*"): ("p", "q")},
                               {("s.id", "m*"): {"p": "p", "q": "q"}},
                               {("s*", "m.id"): {"p": "p", "q": "q"}}).validate()
        P12 = corrs.Profunctor(M, T, {("m*", "t*"): ("r",)},
                               {("m.id", "t*"): {"r": "r"}},
                               {("m*", "t.id"): {"r": "r"}}).validate()
        composite, _ = corrs.compose_prof(P01, P12)
        assert len(composite.elements[("s*", "t*")]) == 2

    def test_unit_laws(self):
        rng = random.Random(5)
        for _ in range(8):
            A = randgen.random_category(rng, 2, 6, prefix="a.")
            B = randgen.random_category(rng, 2, 6, prefix="b.")
            P = randgen.random_profunctor(rng, A, B)
            corrs.left_unit_iso(P)
            corrs.right_unit_iso(P)

    def test_associativity_coherence(self):
        rng = random.Random(6)
        for _ in range(6):
            A = randgen.random_category(rng, 2, 4, prefix="a.")
            B = randgen.random_category(rng, 2, 4, prefix="b.")
            C = randgen.random_category(rng, 2, 4, prefix="c.")
            D = randgen.random_category(rng, 2, 4, prefix="d.")
            P01 = randgen.random_profunctor(rng, A, B, max_generators=1)
            P12 = randgen.random_profunctor(rng, B, C, max_generators=1)
            P23 = randgen.random_profunctor(rng, C, D, max_generators=1)
            corrs.associativity_iso(P01, P12, P23)

    def test_three_routes_agree_on_random_pairs(self):
        rng = random.Random(7)
        for _ in range(15):
            P01, P12 = randgen.random_composable_profunctors(rng)
            corrs.composition_routes(P01, P12)

    def test_given_pair_is_the_glued_route(self):
        from fibcat import documents as docs
        rng = random.Random(9)
        pairs = [randgen.random_composable_profunctors(rng) for _ in range(10)]
        inputs = [(corrs.collage(P01), corrs.collage(P12))
                  for P01, P12 in pairs]
        built = fixtures.build_fixtures()
        inputs.append(tuple(
            docs.parse_any(docs.dumps(built[f"two_step_{side}.json"]))[1]
            for side in ("left", "right")))
        for c01, c12 in inputs:
            P01, P12 = corrs.corr_to_profunctor(c01), corrs.corr_to_profunctor(c12)
            routes = corrs.composition_routes(P01, P12, (c01, c12))
            composite, _ = corrs.compose_corr(c01, c12)
            assert docs.dumps(docs.correspondence_to_doc(
                routes["composite_corr"])) == docs.dumps(
                docs.correspondence_to_doc(composite))
            assert docs.profunctor_to_doc(routes["via_corr"]) == \
                docs.profunctor_to_doc(corrs.corr_to_profunctor(composite))

    def test_glue_restricts_to_its_inputs(self):
        rng = random.Random(8)
        for _ in range(6):
            P01, P12 = randgen.random_composable_profunctors(rng)
            c01 = corrs.collage(P01)
            c12 = corrs.collage(P12)
            glued = corrs.glue_over_triangle(c01, c12)
            left = corrs.restrict_triangle(glued, "0", "1")
            right = corrs.restrict_triangle(glued, "1", "2")
            assert left.total == c01.total
            assert right.total == c12.total

    def test_identity_gluing_is_a_prism(self):
        # gluing two identity correspondences on C gives C x [2]
        C = core.retract_category()
        P01 = corrs.relabel_profunctor(
            corrs.hom_profunctor(C),
            source=({x: f"s.{x}" for x in C.objects},
                    {m: f"s.{m}" for m in C.morphisms}))
        P12 = corrs.relabel_profunctor(
            corrs.hom_profunctor(C),
            target=({x: f"t.{x}" for x in C.objects},
                    {m: f"t.{m}" for m in C.morphisms}))
        glued = corrs.glue_over_triangle(corrs.collage(P01),
                                         corrs.collage(P12))
        prism = core.product(C, core.interval(2))
        assert len(glued.total.objects) == len(prism.objects)
        assert len(glued.total.morphisms) == len(prism.morphisms)
        # and every fiber is C again
        for i in ("0", "1", "2"):
            fiber = core.fiber(glued.projection, i)
            assert len(fiber.objects) == len(C.objects)
            assert len(fiber.morphisms) == len(C.morphisms)

    def test_glued_triangle_is_exponentiable(self):
        rng = random.Random(9)
        for _ in range(5):
            P01, P12 = randgen.random_composable_profunctors(rng)
            glued = corrs.glue_over_triangle(corrs.collage(P01),
                                             corrs.collage(P12))
            assert fib.is_exponentiable(glued.projection).ok

    def test_bifib_route_output_is_two_sided_discrete(self):
        rng = random.Random(10)
        for _ in range(8):
            P01, P12 = randgen.random_composable_profunctors(rng)
            X, _ = corrs.compose_bifib(corrs.profunctor_to_bifib(P01),
                                       corrs.profunctor_to_bifib(P12))
            # validated on construction; re-run the checker explicitly
            check = corrs.check_two_sided_discrete(
                X.total, X.to_left, X.to_right)
            assert check.ok


class TestIdemRet:
    def test_composite_over_ret_is_the_identity_bimodule_of_idem(self):
        Idem, Ret, inc, P, Q = idem_ret_bimodules()
        composite, class_of = corrs.compose_prof(P, Q)
        H = corrs.hom_profunctor(Idem)
        assert len(composite.elements[("*", "*")]) == 2
        # canonical identification: compose in Ret, pull back along the
        # fully faithful inclusion
        hom_inverse = {"id_y": "id", "e": "e"}
        iso = corrs._iso_on_classes(
            composite, H, class_of,
            lambda a, c, b, x, y: hom_inverse[Ret.compose(y, x)],
            "composite vs identity bimodule of the idempotent")

    def test_composite_over_idem_is_the_identity_bimodule_of_ret(self):
        Idem, Ret, inc, P, Q = idem_ret_bimodules()
        composite, class_of = corrs.compose_prof(Q, P)
        H = corrs.hom_profunctor(Ret)
        iso = corrs._iso_on_classes(
            composite, H, class_of,
            lambda a, c, b, x, y: Ret.compose(y, x),
            "composite vs identity bimodule of the retraction")

    def test_both_orders_through_all_three_routes(self):
        Idem, Ret, inc, P, Q = idem_ret_bimodules()
        P2 = corrs.relabel_profunctor(
            P, source=({"*": "a*"}, {"id": "a.id", "e": "a.e"}))
        Q2 = corrs.relabel_profunctor(
            Q, target=({"*": "c*"}, {"id": "c.id", "e": "c.e"}))
        corrs.composition_routes(P2, Q2)
        Q3 = corrs.relabel_profunctor(
            Q, source=({"x": "a.x", "y": "a.y"},
                       {m: f"a.{m}" for m in Ret.morphisms}))
        P3 = corrs.relabel_profunctor(
            P, target=({"x": "c.x", "y": "c.y"},
                       {m: f"c.{m}" for m in Ret.morphisms}))
        corrs.composition_routes(Q3, P3)


class TestProductsAndHandedness:
    def test_product_of_identity_correspondences(self):
        c1 = corrs.identity_correspondence(core.interval(1))
        c2 = corrs.identity_correspondence(core.terminal())
        pc = corrs.product_corr(c1, c2)
        prod = core.product(core.interval(1), core.terminal())
        assert len(pc.fiber_s.objects) == len(prod.objects)
        assert len(pc.total.objects) == 2 * len(prod.objects)

    def test_corepresented_collages_are_left_final(self):
        rng = random.Random(11)
        for _ in range(6):
            A = randgen.random_category(rng, 2, 5, prefix="a.")
            B = randgen.random_category(rng, 2, 5, prefix="b.")
            F = randgen.random_functor_between(rng, A, B)
            P = corrs.hom_profunctor_along(F, core.identity_functor(B))
            c = corrs.collage(P)
            assert corrs.is_left_final_corr(c).ok

    def test_right_initial_is_the_mirror_notion(self):
        c1 = corrs.identity_correspondence(core.interval(1))
        assert corrs.is_right_initial_corr(c1).ok
        # a cylinder on a non-initial functor is left final only
        A = core.relabel(core.terminal(), {"*": "a*"}, {"id": "a.id"})
        B = core.interval(1)
        cyl = corrs.collage(corrs.hom_profunctor_along(
            core.constant_functor(A, B, "1"), core.identity_functor(B)))
        assert corrs.is_left_final_corr(cyl).ok
        assert not corrs.is_right_initial_corr(cyl).ok
        assert homology.is_initial(fib.fiber_inclusion_over_arrow(
            cyl.projection, "0->1", "0")).ok is False

    def test_cocartesian_correspondences_are_left_final(self):
        rng = random.Random(12)
        for _ in range(8):
            pi = randgen.random_functor_over_1(rng)
            if not fib.is_cocartesian_fibration(pi).ok:
                continue
            c = corrs.correspondence_from_total(
                pi.source, [o for o in pi.source.objects
                            if pi.ob_map[o] == "0"])
            assert corrs.is_left_final_corr(c).ok

    def test_left_final_composites_are_left_final(self):
        rng = random.Random(13)
        checked = 0
        while checked < 8:
            A = randgen.random_category(rng, 2, 4, prefix="a.")
            B = randgen.random_category(rng, 2, 4, prefix="b.")
            C = randgen.random_category(rng, 2, 4, prefix="c.")
            F = randgen.random_functor_between(rng, A, B)
            G = randgen.random_functor_between(rng, B, C)
            c01 = corrs.collage(corrs.hom_profunctor_along(
                F, core.identity_functor(B)))
            c12 = corrs.collage(corrs.hom_profunctor_along(
                G, core.identity_functor(C)))
            comp, _ = corrs.compose_corr(c01, c12)
            assert corrs.is_left_final_corr(comp).ok
            checked += 1

    def test_duality_with_the_transpose(self):
        rng = random.Random(14)
        for _ in range(6):
            A = randgen.random_category(rng, 2, 5, prefix="a.")
            B = randgen.random_category(rng, 2, 5, prefix="b.")
            P = randgen.random_profunctor(rng, A, B)
            c = corrs.collage(P)
            # the opposite total over the reversed interval reads back as
            # the transpose bimodule
            op_total = core.opposite(c.total)
            c_op = corrs.correspondence_from_total(op_total, B.objects)
            P_op = corrs.corr_to_profunctor(c_op)
            Pt = corrs.transpose_profunctor(P)
            corrs.profunctor_iso_from_map(
                Pt, P_op,
                lambda b, a, x: corrs.collage_cross_id(a, b, x))
