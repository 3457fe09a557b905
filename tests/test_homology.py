import contextlib
import io
import json
import os
import random

import pytest
import sympy
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from fibcat import cli, core, documents as docs, homology, randgen, transport

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def oracle_homology(C, d):
    """Independent dense-matrix boundary oracle for reduced checks.

    Ranks over the rationals via sympy, torsion via sympy's Smith normal
    form; shares nothing with the production engine beyond the nerve.
    """
    nrv = homology.nerve(C, d)
    counts = nrv.counts()
    betti, torsion = [], []
    mats = {k: Matrix(homology.boundary_matrix(nrv, k))
            for k in range(1, d + 2)}
    for k in range(d + 1):
        rank_out = mats[k].rank() if k >= 1 and mats[k].rows and mats[k].cols \
            else 0
        nxt = mats[k + 1]
        rank_in = nxt.rank() if nxt.rows and nxt.cols else 0
        betti.append(counts[k] - rank_out - rank_in)
        if nxt.rows and nxt.cols:
            diag = sympy_snf(nxt, domain=sympy.ZZ)
            divs = [abs(int(diag[i, i])) for i in range(min(diag.shape))]
            torsion.append(sorted(v for v in divs if v > 1))
        else:
            torsion.append([])
    return betti, torsion


class TestNerve:
    def test_point(self):
        assert homology.nerve(core.terminal(), 2).counts() == [1, 0, 0, 0]

    def test_interval_1(self):
        assert homology.nerve(core.interval(1), 2).counts() == [2, 1, 0, 0]

    def test_idempotent_chains(self):
        # one identity-free chain in each dimension: (e), (e,e), ...
        assert homology.nerve(core.idempotent_category(), 2).counts() == \
            [1, 1, 1, 1]

    def test_face_relations_hold(self):
        homology.nerve(core.retract_category(), 2)  # raises on violation

    def test_face_relation_violation_raises(self, monkeypatch):
        # g1∘g1 := g0 breaks associativity: (g1∘g1)∘g2 = g2 but
        # g1∘(g1∘g2) = g1, so d1 d2 != d1 d1 on the chain (g2, g1, g1)
        C = core.cyclic_group_category(3)
        monkeypatch.setitem(C._comp, ("g1", "g1"), "g0")
        with pytest.raises(AssertionError, match="face relation fails"):
            homology.nerve(C, 2)


class TestSmithNormalForm:
    def test_diagonal_divisibility(self):
        M = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        divisors = homology.smith_normal_form(M)
        # product of invariant factors is |det| = 624
        assert divisors[0] * divisors[1] * divisors[2] == 624
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0

    def test_matches_sympy_on_random_matrices(self):
        rng = random.Random(0)
        for _ in range(25):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            M = [[rng.randint(-6, 6) for _ in range(cols)]
                 for _ in range(rows)]
            mine = homology.smith_normal_form(M)
            diag = sympy_snf(Matrix(M), domain=sympy.ZZ)
            theirs = sorted(abs(int(diag[i, i]))
                            for i in range(min(diag.shape))
                            if diag[i, i] != 0)
            assert sorted(mine) == theirs


def _sympy_divisors(M):
    if not M or not M[0]:
        return []
    diag = sympy_snf(Matrix(M), domain=sympy.ZZ)
    return sorted(abs(int(diag[i, i])) for i in range(min(diag.shape))
                  if diag[i, i] != 0)


def _assert_divisor_chain(divisors):
    assert all(v > 0 for v in divisors)
    for a, b in zip(divisors, divisors[1:]):
        assert b % a == 0


def _torus():
    circle = core.poset_from_order(
        ["a0", "a1", "b0", "b1"],
        lambda p, q: p == q or (p[0] == "a" and q[0] == "b"))
    return core.product(circle, circle)


class TestSparseSmithNormalForm:
    """The sparse unit-pivot engine against sympy and the dense routine."""

    def test_random_sparse_matrices_match_both_oracles(self):
        rng = random.Random(5)
        values = [1, -1, 1, -1, 2, -2, 3, -4, 6]
        for _ in range(120):
            rows, cols = rng.randint(1, 12), rng.randint(1, 20)
            density = rng.choice([0.1, 0.25, 0.5])
            M = [[rng.choice(values) if rng.random() < density else 0
                  for _ in range(cols)] for _ in range(rows)]
            mine = homology.smith_normal_form(M)
            _assert_divisor_chain(mine)
            assert mine == homology._dense_smith_normal_form(M)
            assert sorted(mine) == _sympy_divisors(M)

    @pytest.mark.parametrize("M, expected", [
        ([], []),                                  # 0 x n
        ([[], [], []], []),                        # n x 0
        ([[0, 0, 0], [0, 0, 0]], []),              # all zero
        ([[2, 4], [6, 8]], [2, 4]),                # no unit entry
        ([[2, 0, 0], [0, 3, 0], [0, 0, 0]], [1, 6]),
        ([[1, 0], [0, 4], [0, 6]], [1, 2]),        # unit plus residual
    ])
    def test_edge_cases(self, M, expected):
        assert homology.smith_normal_form(M) == expected
        assert sorted(expected) == _sympy_divisors(M)

    @pytest.mark.parametrize("name, C, d", [
        ("Z/4", core.cyclic_group_category(4), 3),
        ("Z/5", core.cyclic_group_category(5), 3),
        ("torus", _torus(), 3),
        ("Ar([3])", core.arrow_category(core.interval(3))[0], 3),
    ])
    def test_every_nerve_boundary_matches_dense(self, name, C, d):
        nrv = homology.nerve(C, d)
        for k in range(1, d + 2):
            M = homology.boundary_matrix(nrv, k)
            mine = homology.smith_normal_form(M)
            _assert_divisor_chain(mine)
            assert mine == homology._dense_smith_normal_form(M), (name, k)

    def test_torus_homology(self):
        rep = homology.homology(_torus(), 3)
        assert rep.betti == [1, 2, 1, 0]
        assert rep.torsion == [[], [], [], []]

    def test_cyclic_group_eight_closed_form(self):
        rep = homology.homology(core.cyclic_group_category(8), 3)
        assert rep.betti == [1, 0, 0, 0]
        assert rep.torsion == [[], [8], [], [8]]

    def test_arrow_category_of_interval_four_is_contractible(self):
        Ar4 = core.arrow_category(core.interval(4))[0]
        rep = homology.homology(Ar4, 2)
        assert rep.reduced_trivial_up_to(2)


class TestHomology:
    @pytest.mark.parametrize("n", range(5))
    def test_intervals_are_contractible(self, n):
        rep = homology.homology(core.interval(n), 3)
        assert rep.reduced_trivial_up_to(3)

    def test_walking_iso_is_contractible(self):
        rep = homology.homology(core.walking_isomorphism(), 3)
        assert rep.reduced_trivial_up_to(3)

    def test_cyclic_group_two(self):
        rep = homology.homology(core.cyclic_group_category(2), 3)
        assert rep.degree(0) == (1, ())
        assert rep.degree(1) == (0, (2,))
        assert rep.degree(2) == (0, ())
        assert rep.degree(3) == (0, (2,))

    def test_cyclic_group_three(self):
        rep = homology.homology(core.cyclic_group_category(3), 3)
        assert rep.degree(1) == (0, (3,))
        assert rep.degree(3) == (0, (3,))

    def test_against_boundary_oracle(self):
        rng = random.Random(11)
        cats = [core.retract_category(), core.idempotent_category(),
                core.cyclic_group_category(2), core.walking_isomorphism()]
        cats += [randgen.random_category(rng, 3, 8) for _ in range(8)]
        for C in cats:
            rep = homology.homology(C, 3)
            betti, torsion = oracle_homology(C, 3)
            assert rep.betti == betti
            assert [list(t) for t in rep.torsion] == torsion

    def test_relabeling_invariance(self):
        rng = random.Random(3)
        for _ in range(6):
            C = randgen.random_category(rng, 3, 8)
            D = core.prefix_relabel(C, "zz.")
            a = homology.homology(C, 2)
            b = homology.homology(D, 2)
            assert a.betti == b.betti and a.torsion == b.torsion

    def test_degree_zero_counts_components(self):
        A = core.prefix_relabel(core.interval(1), "a.")
        B = core.prefix_relabel(core.cyclic_group_category(2), "b.")
        rep = homology.homology(core.disjoint_union(A, B), 1)
        assert rep.betti[0] == 2

    def test_certificates_are_monotone(self):
        rng = random.Random(9)
        for _ in range(6):
            C = randgen.random_category(rng, 3, 7)
            r3 = homology.homology(C, 3)
            if r3.reduced_trivial_up_to(3):
                assert r3.reduced_trivial_up_to(2)


class TestGuards:
    def test_matrix_cap_failure_is_loud(self, monkeypatch):
        monkeypatch.setattr(homology, "_MATRIX_CAP", 2)
        with pytest.raises(homology.MatrixCapExceeded):
            homology.homology(core.interval(2), 2)


class TestPi0:
    def test_interval(self):
        assert len(homology.pi0(core.interval(3))) == 1

    def test_disjoint_union_adds(self):
        A = core.prefix_relabel(core.interval(2), "a.")
        B = core.prefix_relabel(core.interval(1), "b.")
        assert len(homology.pi0(core.disjoint_union(A, B))) == 2


class TestFinality:
    def test_point_at_final_object_is_final(self):
        for n in range(3):
            In = core.interval(n)
            assert homology.is_final(core.point(In, str(n))).ok
            assert homology.is_initial(core.point(In, "0")).ok

    def test_point_at_bottom_is_not_final(self):
        assert not homology.is_final(core.point(core.interval(1), "0")).ok

    def test_right_adjoint_inclusion_is_final(self):
        I2 = core.interval(2)
        sub = core.full_subcategory(I2, ["1", "2"])
        inc = core.inclusion_functor(sub, I2)
        assert homology.is_final(inc).ok
        assert not homology.is_initial(inc).ok

    def test_product_projection_is_final_and_initial(self):
        C = core.interval(1)
        P, pr1, _ = core.product_projections(C, core.interval(1))
        assert homology.is_final(pr1).ok
        assert homology.is_initial(pr1).ok

    def test_certified_mode_refines_pi0(self):
        I2 = core.interval(2)
        sub = core.full_subcategory(I2, ["1", "2"])
        inc = core.inclusion_functor(sub, I2)
        v = homology.is_final(inc, mode=("certified", 2))
        assert v.ok

    def test_finality_induces_pi0_bijection(self):
        rng = random.Random(21)
        for _ in range(10):
            f = randgen.random_final_functor(rng)
            assert len(homology.pi0(f.source)) == len(homology.pi0(f.target))


def colliding_comma_ids():
    """discrete{a, "a,b"} -> the walking isomorphism x ≅ y, with id_x named
    "c" and i: x -> y named "b,c": the comma objects (a, i) and ("a,b", id_x)
    under x both print "(*,a,b,c)"."""
    W = core.relabel(core.walking_isomorphism(), {"a": "x", "b": "y"},
                     {"id_a": "c", "i": "b,c", "id_b": "id_y"})
    S = core.discrete_category(["a", "a,b"])
    return core.Functor(S, W, {"a": "y", "a,b": "x"},
                        {S.identity["a"]: "id_y", S.identity["a,b"]: "c"})


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class TestCategoriesOfElements:
    """Finality reads the category of elements of D(d, F-) at each object
    d; the category is built only for a certificate."""

    def test_pi0_mode_builds_no_category(self, monkeypatch):
        calls = []
        for name in ("comma_with_data", "square_category"):
            real = getattr(core, name)
            monkeypatch.setattr(core, name, lambda *a, name=name, real=real:
                                calls.append(name) or real(*a))
        functors = []
        for name in sorted(os.listdir(FIXTURES)):
            path = os.path.join(FIXTURES, name)
            with open(path, encoding="utf-8") as fh:
                if json.load(fh)["type"] == "functor":
                    functors.append(path)
        assert len(functors) > 4
        for path in functors:
            for command in ("final", "initial"):
                assert run_main([command, "--functor", path])[0] == 0
        assert calls == []

    @pytest.mark.parametrize("check", [homology.is_final,
                                       homology.is_initial])
    def test_certificates_build_only_connected_categories(self, check,
                                                           monkeypatch):
        built = []
        real = core.square_category

        def record(*args):
            squares = real(*args)
            built.append(squares[0])
            return squares

        monkeypatch.setattr(core, "square_category", record)
        connected = disconnected = 0
        for i in range(40):
            rng = random.Random(f"elements-built:{i}")
            F = randgen.random_functor_between(
                rng, randgen.random_category(rng, 3, 7, prefix="j."),
                randgen.random_category(rng, 3, 7, prefix="k."))
            del built[:]
            fv = check(F, ("certified", 1))
            entries = list(fv.per_object.values())
            assert len(built) == sum(e["connected"] for e in entries)
            assert all(core.is_nonempty_connected(C) for C in built)
            connected += len(built)
            disconnected += len(entries) - len(built)
        assert connected > 20 and disconnected > 20

    @pytest.mark.parametrize("certify", [[], ["--certify-dim", "2"]])
    def test_comma_ids_that_print_alike_get_a_verdict(self, certify,
                                                      tmp_path):
        F = colliding_comma_ids()
        path = tmp_path / "colliding.json"
        path.write_text(docs.dumps(docs.functor_to_doc(F)))
        for command, ok in (("final", False), ("initial", False)):
            code, out, err = run_main([command, "--functor", str(path)]
                                      + certify)
            assert (code, err) == (0, ""), err
            report = json.loads(out)
            assert report["verdicts"] == {command: ok}
        # two elements and no morphism between them under x
        entry = homology.is_final(F).per_object["x"]
        assert entry == {"nonempty": True, "connected": False}


class TestColimitExactness:
    def test_final_functor_preserves_all_set_colimits(self):
        I1 = core.interval(1)
        inc = core.point(I1, "1")
        for G in homology.all_set_valued_functors(I1, max_size=2):
            assert homology.colimit_comparison_is_bijective(inc, G)

    def test_non_final_functor_fails_on_some_diagram(self):
        I1 = core.interval(1)
        bad = core.point(I1, "0")
        assert not homology.is_final(bad).ok
        assert any(not homology.colimit_comparison_is_bijective(bad, G)
                   for G in homology.all_set_valued_functors(I1, max_size=2))


class TestTheoremBStyleChecks:
    def test_pi0_square_with_constant_fibers(self):
        # a product projection with connected base: components multiply
        rng = random.Random(50)
        for _ in range(5):
            pi = randgen.random_two_handed_fibration(rng)
            Yp = randgen.random_category(rng, 2, 5, prefix="y.")
            f = randgen.random_functor_between(rng, Yp, pi.target)
            assert homology.quillenB_pi0_square(f, pi)["pullback"]

    def test_point_base_reduces_to_fiber_components(self):
        C = core.interval(1)
        K = core.interval(1)
        P, pr1, pr2 = core.product_projections(C, K)
        f = core.point(K, "0")
        res = homology.quillenB_pi0_square(f, pr2)
        assert res["pullback"]
        assert res["corner_components"] == 1

    def test_empty_corner_is_a_pullback_of_empty_sets(self):
        K = core.interval(1)
        empty = core.FiniteCategory([], [], {}, {})
        f = core.Functor(empty, K, {}, {})
        C = core.terminal()
        P, pr1, pr2 = core.product_projections(C, K)
        assert homology.quillenB_pi0_square(f, pr2)["pullback"]

    def test_refusal_when_the_leg_is_one_handed_only(self):
        # the mapping cylinder of a non-initial functor: left final only
        from fibcat import correspondences as corrs, fibrations as fib
        A = core.relabel(core.terminal(), {"*": "a*"}, {"id": "a.id"})
        B = core.interval(1)
        cyl = corrs.collage(corrs.hom_profunctor_along(
            core.constant_functor(A, B, "1"), core.identity_functor(B)))
        assert fib.is_left_final_fibration(cyl.projection).ok
        assert not fib.is_right_initial_fibration(cyl.projection).ok
        f = core.point(core.interval(1), "0")
        with pytest.raises(core.PreconditionError) as err:
            homology.quillenB_pi0_square(f, cyl.projection)
        assert str(err.value) == "right leg is not a right initial fibration"
        assert err.value.witness == \
            fib.is_right_initial_fibration(cyl.projection).witness

    def test_exponentiability_is_checked_once(self, monkeypatch):
        from fibcat import fibrations as fib
        calls = []
        original = fib.is_exponentiable

        def counting(pi, *args, **kwargs):
            calls.append(pi)
            return original(pi, *args, **kwargs)

        monkeypatch.setattr(fib, "is_exponentiable", counting)
        K = core.interval(1)
        P, pr1, pr2 = core.product_projections(core.interval(1), K)
        assert homology.quillenB_pi0_square(core.point(K, "0"), pr2)["pullback"]
        assert calls == [pr2]

    def test_slice_comparison_hypothesis(self):
        # a left adjoint has contractible slices, so the certificate holds
        I2 = core.interval(2)
        inc = core.inclusion_functor(
            core.full_subcategory(I2, ["0", "1"]), I2)
        ok, witness = homology.theoremB_hypothesis(inc, 1)
        assert ok
        # two points over different ends: component counts of the slices
        # jump along the base arrow
        C = core.discrete_category(["a", "b"])
        bad = core.Functor(C, core.interval(1), {"a": "0", "b": "1"},
                           {"id_a": "0->0", "id_b": "1->1"})
        ok2, witness2 = homology.theoremB_hypothesis(bad, 1)
        assert not ok2 and witness2["base_morphism"] == "0->1"

    def test_final_closure_driver_reports_no_violations(self):
        rng = random.Random(51)
        assert homology.check_final_closure(rng, rounds=10) == []


class TestChainMapCertificates:
    def test_identity_is_an_iso(self):
        assert homology.chain_map_induces_homology_iso(
            core.identity_functor(core.interval(2)), 2)

    def test_adjoint_collapse_is_an_iso(self):
        W = core.walking_isomorphism()
        assert homology.chain_map_induces_homology_iso(core.point(W, "a"), 2)

    def test_group_point_is_not_an_iso(self):
        Z2 = core.cyclic_group_category(2)
        assert not homology.chain_map_induces_homology_iso(
            core.point(Z2, "*"), 2)
