import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from fibcat import cli, core, correspondences as corrs, documents as docs
from fibcat import fixtures, randgen
from fibcat.homology import SetValuedFunctor

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def run_cli(*argv, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "fibcat.cli", *argv],
        capture_output=True, text=True, env={**os.environ, **(env or {})})
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    if os.path.isdir(FIXTURES):
        return FIXTURES
    path = tmp_path_factory.mktemp("fixtures")
    fixtures.write_fixtures(str(path))
    return str(path)


class TestDocuments:
    def test_category_round_trip_is_byte_identical(self):
        for C in [core.interval(2), core.retract_category(),
                  core.walking_isomorphism()]:
            text = docs.dumps(docs.category_to_doc(C))
            parsed = docs.category_from_doc(docs.loads(text))
            assert docs.dumps(docs.category_to_doc(parsed)) == text
            assert parsed == C

    def test_functor_round_trip(self):
        Ar, ev_s, ev_t = core.arrow_category(core.interval(1))
        text = docs.dumps(docs.functor_to_doc(ev_t))
        parsed = docs.functor_from_doc(docs.loads(text))
        assert parsed == ev_t

    def test_profunctor_round_trip(self):
        rng = random.Random(0)
        A = randgen.random_category(rng, 2, 5, prefix="a.")
        B = randgen.random_category(rng, 2, 5, prefix="b.")
        P = randgen.random_profunctor(rng, A, B)
        text = docs.dumps(docs.profunctor_to_doc(P))
        parsed = docs.profunctor_from_doc(docs.loads(text))
        assert docs.dumps(docs.profunctor_to_doc(parsed)) == text

    def test_correspondence_round_trip(self):
        c = corrs.identity_correspondence(core.interval(1))
        text = docs.dumps(docs.correspondence_to_doc(c))
        parsed = docs.correspondence_from_doc(docs.loads(text))
        assert docs.dumps(docs.correspondence_to_doc(parsed)) == text

    def test_set_valued_round_trip(self):
        F = SetValuedFunctor(
            core.interval(1), {"0": ("a",), "1": ("b", "c")},
            {"0->0": {"a": "a"}, "1->1": {"b": "b", "c": "c"},
             "0->1": {"a": "b"}}).validate()
        text = docs.dumps(docs.set_valued_to_doc(F))
        parsed = docs.set_valued_from_doc(docs.loads(text))
        assert docs.dumps(docs.set_valued_to_doc(parsed)) == text

    def test_schema_violation_raises_document_error(self):
        with pytest.raises(docs.DocumentError):
            docs.category_from_doc({"format_version": "1", "type": "category",
                                    "objects": "oops", "morphisms": [],
                                    "identities": {}, "compose": []})

    def test_missing_composite_is_a_validation_failure(self):
        doc = docs.category_to_doc(core.interval(2))
        doc["compose"] = [e for e in doc["compose"]
                          if e != ["1->2", "0->1", "0->2"]]
        with pytest.raises(docs.ValidationFailure) as err:
            docs.category_from_doc(doc)
        assert any("missing composite" in line for line in err.value.report)


class TestCliExitContract:
    def test_parse_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, err = run_cli("homology", str(bad))
        assert code == 2

    def test_validation_error_is_3(self, fixture_dir):
        code, out, err = run_cli(
            "homology", os.path.join(fixture_dir, "defect_missing_composite.json"))
        assert code == 3
        assert "missing composite" in err

    def test_violation_order_is_independent_of_the_hash_seed(self, tmp_path):
        # every composite of two non-identities in [7] is dropped: 56
        # missing composites, more than the 20 lines stderr shows
        doc = docs.category_to_doc(core.interval(7))
        doc["compose"] = [[g, f, h] for g, f, h in doc["compose"]
                          if g.split("->")[0] == g.split("->")[1]
                          or f.split("->")[0] == f.split("->")[1]]
        path = tmp_path / "missing.json"
        path.write_text(docs.dumps(doc))
        runs = []
        for seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "fibcat.cli", "homology", str(path)],
                capture_output=True, text=True,
                env=dict(os.environ, PYTHONHASHSEED=seed))
            assert proc.returncode == 3
            runs.append(proc.stderr)
        assert runs[0] == runs[1]
        # (g, f) pairs in sorted order of f, then of g
        shown = runs[0].splitlines()[1:]
        pairs = sorted((f, g) for f in core.interval(7).non_identity_morphisms()
                       for g in core.interval(7).non_identity_morphisms()
                       if f.split("->")[1] == g.split("->")[0])
        assert shown == [f"  missing composite for pair ({g},{f})"
                         for f, g in pairs[:20]]

    def test_correspondence_with_a_backward_morphism_is_3(self, tmp_path):
        # declaring the t-side of C x [1] as the s-side turns every cross
        # morphism into one from the t-side to the s-side
        doc = docs.correspondence_to_doc(
            corrs.identity_correspondence(core.interval(1)))
        s_side = set(doc["fiber_s_objects"])
        doc["fiber_s_objects"] = sorted(set(doc["total"]["objects"]) - s_side)
        path = tmp_path / "backward.json"
        path.write_text(docs.dumps(doc))
        code, out, err = run_cli("roundtrip", str(path))
        assert code == cli.EXIT_VALIDATION, err
        assert out == "" and "Traceback" not in err
        assert "goes from the t-side to the s-side" in err

    def test_bad_composite_is_3(self, fixture_dir):
        code, out, err = run_cli(
            "homology", os.path.join(fixture_dir, "defect_bad_composite.json"))
        assert code == 3

    def test_precondition_refusal_is_4(self, fixture_dir, tmp_path):
        ident = docs.dumps(docs.functor_to_doc(
            core.identity_functor(core.full_subcategory(core.interval(2),
                                                        ["0", "2"]))))
        z = tmp_path / "z.json"
        z.write_text(ident)
        code, out, err = run_cli(
            "pushforward",
            "--fibration", os.path.join(fixture_dir, "inclusion_02_in_2.json"),
            "--over", str(z))
        assert code == 4
        assert "precondition" in err

    def test_non_string_id_is_a_parse_error(self, tmp_path):
        doc = docs.category_to_doc(core.interval(1))
        doc["objects"] = [["x"]]
        bad = tmp_path / "list_id.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli("homology", str(bad))
        assert code == 2
        assert "parse error" in err and "Traceback" not in err

    @pytest.mark.parametrize("kind, path, value", [
        ("profunctor", ("left_action", "0->1", "1"), "x"),
        ("profunctor", ("left_action", "0->1"), []),
        ("profunctor", ("elements", "0"), []),
        ("profunctor", ("elements", "0", "1"), ["0->1", 1]),
        ("profunctor", ("elements", "0", "1"), [["0->1"]]),
        ("profunctor", ("right_action", "0", "0->1"), {"0->0": ["0->1"]}),
        ("correspondence", ("fiber_s_objects",), [["0"]]),
        ("set_valued_functor", ("transports", "0->1"), "ab"),
        ("set_valued_functor", ("values", "0"), "ab"),
        ("set_valued_functor", ("type",), ["set_valued_functor"]),
    ], ids=["action_cell_string", "action_row_list", "elements_row_list",
            "mixed_element_types", "nested_element", "nested_action_image",
            "non_string_fiber_object", "transport_string", "values_string",
            "type_list"])
    def test_malformed_document_is_a_parse_error(self, tmp_path, kind, path,
                                                 value):
        doc = self._well_formed(kind)
        where = doc
        for key in path[:-1]:
            where = where[key]
        where[path[-1]] = value
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli("homology", str(bad))
        assert code == 2
        assert "parse error" in err and "Traceback" not in err

    @staticmethod
    def _well_formed(kind):
        I1 = core.interval(1)
        if kind == "profunctor":
            return docs.profunctor_to_doc(corrs.hom_profunctor(I1))
        if kind == "correspondence":
            return docs.correspondence_to_doc(
                corrs.identity_correspondence(I1))
        return docs.set_valued_to_doc(SetValuedFunctor(
            I1, {"0": ("a",), "1": ("b",)},
            {"0->0": {"a": "a"}, "1->1": {"b": "b"}, "0->1": {"a": "b"}}))

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_suite_rejects_fewer_than_one_job(self, jobs):
        code, out, err = run_cli("suite", "--jobs", jobs)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("command", ["classify", "final"])
    def test_negative_certificate_degree_is_4(self, fixture_dir, command):
        code, out, err = run_cli(
            command, "--functor",
            os.path.join(fixture_dir, "inclusion_02_in_2.json"),
            "--certify-dim", "-1")
        assert code == 4
        assert out == ""
        assert "certificate degree must be >= 0, got -1" in err

    def test_enumeration_over_its_cap_is_4(self, fixture_dir):
        code, out, err = run_cli(
            "replace", "--kind", "lfib", "--functor",
            os.path.join(fixture_dir, "ev_t_arrow_2.json"),
            env={"FIBCAT_ENUM_CAP": "3"})
        assert code == 4
        assert out == ""
        assert err == ("enumeration refused: functor enumeration exceeded "
                       "cap 3; FIBCAT_ENUM_CAP sets the cap\n")

    def test_a_cap_that_is_not_a_positive_integer_is_4(self, fixture_dir):
        code, out, err = run_cli(
            "replace", "--kind", "lfib", "--functor",
            os.path.join(fixture_dir, "ev_t_arrow_2.json"),
            env={"FIBCAT_ENUM_CAP": "abc"})
        assert code == 4
        assert out == ""
        assert err == ("precondition failed: FIBCAT_ENUM_CAP must be a "
                       "positive integer, got 'abc'\n")

    def test_success_is_0_even_with_negative_verdicts(self, fixture_dir):
        code, out, err = run_cli(
            "classify", "--functor",
            os.path.join(fixture_dir, "inclusion_02_in_2.json"))
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"]["exponentiable"] is False
        assert report["witnesses"]["exponentiable"]["factorizations"] == 0


class TestCliCommands:
    def test_classify_arrow_evaluation(self, fixture_dir):
        code, out, err = run_cli(
            "classify", "--functor",
            os.path.join(fixture_dir, "ev_t_arrow_2.json"))
        assert code == 0
        verdicts = json.loads(out)["verdicts"]
        assert verdicts["cocartesian"] and verdicts["left_final"]
        assert not verdicts["discrete_opfib"]

    def test_compose_prof_idem_ret(self, fixture_dir):
        code, out, err = run_cli(
            "compose", "--mode", "prof",
            os.path.join(fixture_dir, "idem_to_ret_bimodule.json"),
            os.path.join(fixture_dir, "ret_to_idem_bimodule.json"))
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"]["route_coherence_checked"]
        elements = report["composite"]["elements"]["*"]["*"]
        assert len(elements) == 2

    def test_compose_corr_mode(self, fixture_dir):
        code, out, err = run_cli(
            "compose", "--mode", "corr",
            os.path.join(fixture_dir, "two_step_left.json"),
            os.path.join(fixture_dir, "two_step_right.json"))
        assert code == 0, err
        report = json.loads(out)
        assert report["verdicts"]["route_coherence_checked"]
        total = report["composite"]["total"]
        assert sorted(report["composite"]["fiber_s_objects"]) == ["a*"]

    def test_compose_bifib_matches_prof(self, fixture_dir):
        a = os.path.join(fixture_dir, "idem_to_ret_bimodule.json")
        b = os.path.join(fixture_dir, "ret_to_idem_bimodule.json")
        _, out_prof, _ = run_cli("compose", "--mode", "prof", a, b)
        _, out_bifib, _ = run_cli("compose", "--mode", "bifib", a, b)
        sizes = lambda o: {k: len(v) for k, v in
                           json.loads(o)["composite"]["elements"]["*"].items()}
        assert sizes(out_prof) == sizes(out_bifib)

    def test_roundtrip_identity_correspondence(self, fixture_dir):
        code, out, err = run_cli(
            "roundtrip",
            os.path.join(fixture_dir, "identity_corr_interval_1.json"))
        assert code == 0
        assert all(json.loads(out)["verdicts"].values())

    def test_final_on_product_projection(self, fixture_dir):
        code, out, err = run_cli(
            "final", "--functor",
            os.path.join(fixture_dir, "product_proj_1x1.json"),
            "--certify-dim", "2")
        assert code == 0
        assert json.loads(out)["verdicts"]["final"]

    def test_replace_lfib_emits_a_diagram(self, fixture_dir):
        code, out, err = run_cli(
            "replace", "--kind", "lfib", "--functor",
            os.path.join(fixture_dir, "ev_t_arrow_1.json"))
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"]["discrete_opfibration"]
        assert report["verdicts"]["universal_property_spot_check"]

    def test_initial_on_product_projection(self, fixture_dir):
        code, out, err = run_cli(
            "initial", "--functor",
            os.path.join(fixture_dir, "product_proj_1x1.json"))
        assert code == 0
        assert json.loads(out)["verdicts"]["initial"]

    @pytest.mark.parametrize("certify_dim", ["0", "2", "3"])
    def test_zigzag_certificate_goes_through_the_nerve(self, fixture_dir,
                                                       monkeypatch,
                                                       certify_dim):
        # a -> b <- c -> d has no initial or terminal object, but it is
        # contractible
        from fibcat import homology
        nerves = []
        real = homology.nerve
        monkeypatch.setattr(homology, "nerve", lambda C, d:
                            nerves.append(d) or real(C, d))
        code, out = run_in_process([
            "final", "--functor",
            os.path.join(fixture_dir, "zigzag_to_point.json"),
            "--certify-dim", certify_dim])
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"] == {"final": True}
        assert report["per_object"] == {"*": {
            "nonempty": True, "connected": True, "homology_ok": True}}
        assert nerves == [int(certify_dim)]

    def test_circle_fails_the_degree_one_certificate(self, fixture_dir):
        # a0, a1 < b0, b1 is connected with H_1 = Z
        path = os.path.join(fixture_dir, "circle_to_point.json")
        entry = {"nonempty": True, "connected": True}
        for argv, ok, extra in (([], True, {}),
                                (["--certify-dim", "0"], True,
                                 {"homology_ok": True}),
                                (["--certify-dim", "1"], False,
                                 {"homology_ok": False})):
            code, out, err = run_cli("final", "--functor", path, *argv)
            assert code == 0
            report = json.loads(out)
            assert report["verdicts"] == {"final": ok}
            assert report["per_object"] == {"*": {**entry, **extra}}
            assert report["witnesses"]["failing_object"] == (
                None if ok else ["*", {**entry, **extra}])

    def test_replace_cart_and_rfib(self, fixture_dir):
        path = os.path.join(fixture_dir, "ev_t_arrow_1.json")
        code, out, err = run_cli("replace", "--kind", "cart",
                                 "--functor", path)
        assert code == 0 and json.loads(out)["verdicts"]["cartesian"]
        code, out, err = run_cli("replace", "--kind", "rfib",
                                 "--functor", path)
        assert code == 0
        assert json.loads(out)["verdicts"]["discrete_fibration"]

    def test_pushforward_success_path(self, fixture_dir, tmp_path):
        I1 = core.interval(1)
        Z = core.prefix_relabel(I1, "z.")
        zeta = core.Functor(Z, I1, {"z.0": "0", "z.1": "1"},
                            {"z.0->0": "0->0", "z.0->1": "0->1",
                             "z.1->1": "1->1"})
        fib_path = tmp_path / "pi.json"
        fib_path.write_text(docs.dumps(docs.functor_to_doc(
            core.identity_functor(I1))))
        z_path = tmp_path / "zeta.json"
        z_path.write_text(docs.dumps(docs.functor_to_doc(zeta)))
        code, out, err = run_cli("pushforward", "--fibration", str(fib_path),
                                 "--over", str(z_path))
        assert code == 0, err
        report = json.loads(out)
        assert report["verdicts"]["adjunction_spot_check"]
        assert len(report["pushforward"]["source"]["objects"]) == 2

    def test_homology_reports_exact_groups(self, fixture_dir):
        code, out, err = run_cli(
            "homology", os.path.join(fixture_dir, "cyclic_2.json"),
            "--max-dim", "3")
        assert code == 0
        report = json.loads(out)
        assert report["betti"] == [1, 0, 0, 0]
        assert report["torsion"] == [[], [2], [], [2]]

    def test_reports_are_deterministic(self, fixture_dir):
        path = os.path.join(fixture_dir, "ev_t_arrow_1.json")
        _, out1, _ = run_cli("classify", "--functor", path)
        _, out2, _ = run_cli("classify", "--functor", path)
        assert out1 == out2


def colliding_profunctor(element=None):
    """discrete{a, "a,b"} -> discrete{"b,c", c} with one element per pair.

    The pairs (a, "b,c") and ("a,b", c) both print as "(a,b,c)"; the
    element names differ from pair to pair, or are all `element`.
    """
    A = core.discrete_category(["a", "a,b"])
    B = core.discrete_category(["b,c", "c"])
    elements = {(a, b): (element or f"x{i}",) for i, (a, b) in enumerate(
        (a, b) for a in A.objects for b in B.objects)}
    lact = {(A.identity[a], b): {x: x for x in xs}
            for (a, b), xs in elements.items()}
    ract = {(a, B.identity[b]): {x: x for x in xs}
            for (a, b), xs in elements.items()}
    return corrs.Profunctor(A, B, elements, lact, ract).validate()


class TestCollidingPairIds:
    def test_compose_and_roundtrip_accept_colliding_pairs(self, tmp_path):
        P = colliding_profunctor()
        paths = {}
        for name, doc in (
                ("P", docs.profunctor_to_doc(P)),
                ("H", docs.profunctor_to_doc(corrs.hom_profunctor(P.target))),
                ("C", docs.correspondence_to_doc(corrs.collage(P)))):
            paths[name] = str(tmp_path / f"{name}.json")
            with open(paths[name], "w") as fh:
                fh.write(docs.dumps(doc))
        for mode in ("prof", "bifib"):
            code, out, err = run_cli("compose", "--mode", mode,
                                     paths["P"], paths["H"])
            assert code == 0, err
            composite = json.loads(out)["composite"]["elements"]
            # P composed with the hom bimodule of B is P again
            assert all(len(composite[a][b]) == 1
                       for a in P.source.objects for b in P.target.objects)
        code, out, err = run_cli("roundtrip", paths["C"])
        assert code == 0, err
        assert all(json.loads(out)["verdicts"].values())

    def test_composition_routes_accept_colliding_pairs(self):
        P = colliding_profunctor()
        B = P.target
        H = corrs.relabel_profunctor(
            corrs.hom_profunctor(B),
            target=({b: f"c.{b}" for b in B.objects},
                    {m: f"c.{m}" for m in B.morphisms}))
        routes = corrs.composition_routes(P, H)
        assert routes["iso_corr"].source is routes["coend"]
        assert routes["iso_bifib"].target is routes["via_bifib"]

    def test_colliding_element_ids_are_refused(self):
        with pytest.raises(core.PreconditionError) as exc:
            corrs.profunctor_to_bifib(colliding_profunctor("x"))
        assert exc.value.witness == [("a", "b,c", "x"), ("a,b", "c", "x")]
        assert "(a,b,c,x)" in str(exc.value)

    def test_compose_refuses_colliding_element_ids(self, tmp_path):
        # with the element x at every pair, two elements print as
        # "(a,b,c,x)"
        P = colliding_profunctor("x")
        paths = []
        for name, Q in (("P", P), ("H", corrs.hom_profunctor(P.target))):
            paths.append(str(tmp_path / f"{name}.json"))
            with open(paths[-1], "w") as fh:
                fh.write(docs.dumps(docs.profunctor_to_doc(Q)))
        for mode in ("bifib", "prof"):
            code, out, err = run_cli("compose", "--mode", mode, *paths)
            assert code == cli.EXIT_PRECONDITION, err
            assert out == "" and "Traceback" not in err
            assert "share the object id (chk0.a,b,c,x)" in err


    def test_compose_corr_refuses_glued_classes_that_print_alike(
            self, tmp_path):
        # the coend at (a, c) has two classes, through b1 and through b2;
        # both used to be named [u|v|w] and were merged into one morphism
        def corr(objects, cross, s_objects):
            ids = {o: f"1{o}" for o in objects}
            composition = {(i, i): i for i in ids.values()}
            for m, a, b in cross:
                composition[(ids[b], m)] = composition[(m, ids[a])] = m
            total = core.FiniteCategory(
                objects, [(i, o, o) for o, i in ids.items()] + cross, ids,
                composition)
            return corrs.correspondence_from_total(total, s_objects)

        c01 = corr(["a", "b1", "b2"],
                   [("u|v", "a", "b1"), ("u", "a", "b2")], ["a"])
        c12 = corr(["b1", "b2", "c"],
                   [("w", "b1", "c"), ("v|w", "b2", "c")], ["b1", "b2"])
        paths = []
        for name, c in (("E01", c01), ("E12", c12)):
            paths.append(str(tmp_path / f"{name}.json"))
            with open(paths[-1], "w") as fh:
                fh.write(docs.dumps(docs.correspondence_to_doc(c)))
        code, out, err = run_cli("compose", "--mode", "corr", *paths)
        assert code == cli.EXIT_PRECONDITION, err
        assert out == "" and "Traceback" not in err
        assert ("classes of ('b1', 'u|v', 'w') and ('b2', 'u', 'v|w') share "
                "the class id [u|v|w]") in err

    def test_classify_refuses_colliding_replacement_ids(self, tmp_path):
        # over a base with isomorphisms classify reads the isofibration
        # replacement, a pullback whose pairs ("a", "b,c") and ("a,b", "c")
        # both print as "(a,b,c)"; they were merged silently
        K = core.relabel(core.walking_isomorphism(),
                         morphism_map={"id_a": "c", "id_b": "b,c"})
        E = core.discrete_category(["a", "a,b"])
        pi = core.Functor(E, K, {"a": "b", "a,b": "a"},
                          {"id_a": "b,c", "id_a,b": "c"})
        path = tmp_path / "colliding.json"
        path.write_text(docs.dumps(docs.functor_to_doc(pi)))
        code, out, err = run_cli("classify", "--functor", str(path))
        assert code == cli.EXIT_PRECONDITION, err
        assert out == "" and "Traceback" not in err
        assert ("pairs ('a', 'b,c') and ('a,b', 'c') share the object id "
                "(a,b,c)") in err

    @pytest.mark.parametrize("kind", ["cocart", "cart"])
    def test_replace_refuses_colliding_end_ids(self, tmp_path, kind):
        # the ends (a, "b,c") and ("a,b", c) of the coCartesian
        # replacement, or (a, "b,c") and ("a,b", c) of the Cartesian one,
        # both print as "(a,b,c)"; they were merged silently
        if kind == "cocart":
            K = core.relabel(core.walking_isomorphism(),
                             morphism_map={"id_a": "c", "id_b": "b,c"})
            E = core.discrete_category(["a", "a,b"])
            pi = core.Functor(E, K, {"a": "b", "a,b": "a"},
                              {"id_a": "b,c", "id_a,b": "c"})
        else:
            K = core.relabel(core.walking_isomorphism(),
                             morphism_map={"id_a": "a", "id_b": "a,b"})
            E = core.discrete_category(["b,c", "c"])
            pi = core.Functor(E, K, {"b,c": "a", "c": "b"},
                              {"id_b,c": "a", "id_c": "a,b"})
        path = tmp_path / "colliding.json"
        path.write_text(docs.dumps(docs.functor_to_doc(pi)))
        code, out, err = run_cli("replace", "--kind", kind,
                                 "--functor", str(path))
        assert code == cli.EXIT_PRECONDITION, err
        assert out == "" and "Traceback" not in err
        assert ("pairs ('a', 'b,c') and ('a,b', 'c') share the object id "
                "(a,b,c)") in err


def run_in_process(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def old_compose_report(argv, mode, P01, P12):
    """The report compose printed when it ran its own route after the
    coherence check: the route is run again, on the inputs as given."""
    if mode == "prof":
        composite, _ = corrs.compose_prof(P01, P12)
    else:
        X, _ = corrs.compose_bifib(corrs.profunctor_to_bifib(P01),
                                   corrs.profunctor_to_bifib(P12))
        composite = corrs.bifib_to_profunctor(X)
    return docs.dumps({
        "format_version": docs.FORMAT_VERSION, "command": argv,
        "verdicts": {"route_coherence_checked": True}, "witnesses": {},
        "certificate_degree": None, "timing_s": None,
        "composite": cli._json_safe(docs.profunctor_to_doc(composite))})


class TestComposeReusesItsRoute:
    """compose prints the composite its coherence check computed; only
    the relabeled fallback runs the mode's route on its own."""

    def inputs(self, fixture_dir, tmp_path, overlap):
        if overlap:  # Idem -> Ret -> Idem: the outer ids meet
            names = ("idem_to_ret_bimodule", "ret_to_idem_bimodule")
            return [os.path.join(fixture_dir, f"{n}.json") for n in names]
        paths = []
        for name in ("two_step_left", "two_step_right"):
            with open(os.path.join(fixture_dir, f"{name}.json")) as fh:
                _, c = docs.parse_any(fh.read())
            paths.append(str(tmp_path / f"{name}_bimodule.json"))
            with open(paths[-1], "w") as fh:
                fh.write(docs.dumps(docs.profunctor_to_doc(
                    corrs.corr_to_profunctor(c))))
        return paths

    @pytest.mark.parametrize("mode", ["prof", "bifib"])
    @pytest.mark.parametrize("overlap", [False, True])
    def test_report_matches_the_route_run_alone(self, fixture_dir, tmp_path,
                                                monkeypatch, mode, overlap):
        paths = self.inputs(fixture_dir, tmp_path, overlap)
        P01, P12 = (cli._load(p, "profunctor") for p in paths)
        argv = ["compose", "--mode", mode, *paths]
        expected = old_compose_report(argv, mode, P01, P12)
        calls = {"relabel": 0, "compose_prof": 0, "compose_bifib": 0}

        def counted(module, name, key):
            real = getattr(module, name)

            def wrapper(*args):
                calls[key] += 1
                return real(*args)
            monkeypatch.setattr(module, name, wrapper)

        counted(cli, "_relabel_for_check", "relabel")
        counted(corrs, "compose_prof", "compose_prof")
        counted(corrs, "compose_bifib", "compose_bifib")
        assert run_in_process(argv) == (0, expected)
        route = "compose_prof" if mode == "prof" else "compose_bifib"
        # the check runs each route once; the fallback runs the mode's
        # route again on the inputs as given, the reuse path never does
        assert calls == {"relabel": int(overlap), "compose_prof": 1,
                         "compose_bifib": 1, route: 1 + overlap}


    def test_corr_glues_its_inputs_once(self, fixture_dir, monkeypatch):
        paths = [os.path.join(fixture_dir, f"{n}.json")
                 for n in ("two_step_left", "two_step_right")]
        c01, c12 = (cli._load(p, "correspondence") for p in paths)
        argv = ["compose", "--mode", "corr", *paths]
        expected = docs.dumps({
            "format_version": docs.FORMAT_VERSION, "command": argv,
            "verdicts": {"route_coherence_checked": True}, "witnesses": {},
            "certificate_degree": None, "timing_s": None,
            "composite": docs.correspondence_to_doc(
                corrs.compose_corr(c01, c12)[0])})
        calls = {"compose_corr": 0, "collage": 0, "corr_to_profunctor": 0}
        for name in calls:
            real = getattr(corrs, name)
            monkeypatch.setattr(
                corrs, name,
                lambda *args, real=real, name=name:
                    calls.__setitem__(name, calls[name] + 1) or real(*args))
        assert run_in_process(argv) == (0, expected)
        # each input's cross-hom bimodule is read once, and the composite's
        # once by the glued route
        assert calls == {"compose_corr": 1, "collage": 0,
                         "corr_to_profunctor": 3}

    def test_corr_fallback_prints_the_pair_glued(self, tmp_path,
                                                 monkeypatch):
        # the elements (b, c, d,e) and (b,c, d, e) of P12 both print as
        # "(b,c,d,e)", so the routes refuse the inputs as given and run
        # again on relabeled outer ids; the report shows the pair glued
        def corr(objects, cross, s_objects):
            ids = {o: f"1{o}" for o in objects}
            composition = {(i, i): i for i in ids.values()}
            for m, a, b in cross:
                composition[(ids[b], m)] = composition[(m, ids[a])] = m
            total = core.FiniteCategory(
                objects, [(i, o, o) for o, i in ids.items()] + cross, ids,
                composition)
            return corrs.correspondence_from_total(total, s_objects)

        c01 = corr(["a", "b", "b,c"],
                   [("f", "a", "b"), ("g", "a", "b,c")], ["a"])
        c12 = corr(["b", "b,c", "c", "d"],
                   [("d,e", "b", "c"), ("e", "b,c", "d")], ["b", "b,c"])
        paths = []
        for name, c in (("E01", c01), ("E12", c12)):
            paths.append(str(tmp_path / f"{name}.json"))
            with open(paths[-1], "w") as fh:
                fh.write(docs.dumps(docs.correspondence_to_doc(c)))
        argv = ["compose", "--mode", "corr", *paths]
        composite = corrs.compose_corr(c01, c12)[0]
        assert sorted(composite.total.morphisms)[-2:] == ["[f|d,e]", "[g|e]"]
        expected = docs.dumps({
            "format_version": docs.FORMAT_VERSION, "command": argv,
            "verdicts": {"route_coherence_checked": True}, "witnesses": {},
            "certificate_degree": None, "timing_s": None,
            "composite": docs.correspondence_to_doc(composite)})
        relabeled = []
        real = cli._relabel_for_check
        monkeypatch.setattr(cli, "_relabel_for_check",
                            lambda *args: relabeled.append(1) or real(*args))
        assert run_in_process(argv) == (0, expected)
        assert relabeled == [1]


class TestSuiteRunner:
    def test_importing_the_cli_leaves_out_thread_pools(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, fibcat.cli; "
             "print('concurrent.futures' in sys.modules)"],
            capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr

    def test_suite_passes_and_is_thread_invariant(self, tmp_path):
        code1, out1, err1 = run_cli("suite", "--seed", "5", "--size", "1")
        assert code1 == 0, err1
        report = json.loads(out1)
        assert report["verdicts"]["all_passed"], report
        code2, out2, _ = run_cli("suite", "--seed", "5", "--size", "1",
                                 "--jobs", "4")
        assert out1 == out2

    def test_failure_artifacts_are_written(self, tmp_path, monkeypatch):
        # force a failing case by running a size-0 suite with a stubbed case
        from fibcat import cli as cli_mod
        art = tmp_path / "artifacts"
        cases = [("planted", lambda: (False, {
            "instance.json": docs.category_to_doc(core.interval(1))}))]
        monkeypatch.setattr(cli_mod, "_suite_cases", lambda seed, size: cases)
        parser = cli_mod.build_parser()
        args = parser.parse_args(["suite", "--seed", "0", "--size", "1",
                                  "--artifacts", str(art)])
        args._echo = ["suite"]
        args._t0 = 0.0
        import io
        import contextlib
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = args.func(args)
        assert (art / "planted__instance.json").exists()

    def test_failure_records_name_the_innermost_fibcat_frame(self,
                                                             monkeypatch):
        cases = [("passes", lambda: (True, {})),
                 ("planted", lambda: core.point(core.terminal(), "nope"))]
        monkeypatch.setattr(cli, "_suite_cases", lambda seed, size: cases)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["suite", "--size", "1"]) == 0
        passed, failed = json.loads(out.getvalue())["results"]
        assert passed == {"name": "passes", "ok": True, "error": None}
        assert re.fullmatch(r"PreconditionError: unknown object nope "
                            r"\(at fibcat/core\.py:\d+ in point\)",
                            failed["error"]), failed


def old_json_safe(value):
    """cli._json_safe before strings and lists of strings were passed
    through as they are: the oracle for the conversion."""
    if isinstance(value, dict):
        return {str(k): old_json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [old_json_safe(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return items
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def fixture_commands(fixture_dir):
    """Every subcommand on every bundled fixture it accepts."""
    by_type = {}
    for name in sorted(os.listdir(fixture_dir)):
        path = os.path.join(fixture_dir, name)
        with open(path, encoding="utf-8") as fh:
            by_type.setdefault(json.load(fh).get("type"), []).append(path)
    for path in by_type["functor"]:
        for command in ("classify", "final", "initial"):
            yield [command, "--functor", path]
            yield [command, "--functor", path, "--certify-dim", "2"]
        for kind in ("cocart", "cart", "lfib", "rfib"):
            yield ["replace", "--kind", kind, "--functor", path]
    for path in by_type["category"]:
        yield ["homology", path, "--max-dim", "2"]
    for path in by_type["correspondence"]:
        yield ["roundtrip", path]
    for a in by_type["profunctor"]:
        for b in by_type["profunctor"]:
            for mode in ("prof", "bifib"):
                yield ["compose", "--mode", mode, a, b]
    yield ["compose", "--mode", "corr",
           os.path.join(fixture_dir, "two_step_left.json"),
           os.path.join(fixture_dir, "two_step_right.json")]


_hashable = st.none() | st.booleans() | st.integers() | st.text(max_size=3)
_values = st.recursive(
    _hashable | st.floats(allow_nan=False)
    | st.sampled_from([core.interval(1), core.PreconditionError("x")]),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(st.text(max_size=3), max_size=4)
        | st.tuples(children, children)
        | st.sets(_hashable, max_size=4)
        | st.frozensets(st.tuples(_hashable, _hashable), max_size=3)
        | st.dictionaries(_hashable | st.tuples(st.integers(), _hashable),
                          children, max_size=3)),
    max_leaves=12)


class TestJsonSafe:
    def test_fixture_reports_convert_as_before(self, fixture_dir,
                                               monkeypatch):
        real = cli._json_safe
        checked = []

        def compare(value):
            new = real(value)
            old = old_json_safe(value)
            assert new == old
            assert json.dumps(new, sort_keys=True) == \
                json.dumps(old, sort_keys=True)
            checked.append(type(value))
            return new

        monkeypatch.setattr(cli, "_json_safe", compare)
        for argv in fixture_commands(fixture_dir):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(argv) in (0, cli.EXIT_VALIDATION,
                                          cli.EXIT_PRECONDITION), argv
        assert {dict, list, str, bool} <= set(checked)

    @settings(max_examples=150, deadline=None)
    @given(_values)
    def test_values_convert_as_before(self, value):
        assert cli._json_safe(value) == old_json_safe(value)


# -- the canonical emitter against json's own --------------------------------


def stdlib_dumps(doc):
    """The canonical text as json writes it: the oracle for docs.dumps."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def outcome(dump, value):
    try:
        return dump(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# quotes, backslashes, control characters, a non-BMP character and a
# separator-like pair inside the strings
_text = st.text(alphabet=st.sampled_from(
    ['a', 'b', ',', ' ', ':', '"', '\\', '\n', '\t', '\x00', '\x1f', '\x7f',
     'é', ' ', '\U0001f600']), max_size=5)
_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.sampled_from([float("nan"), float("inf"), float("-inf"),
                               -0.0, 0.0, 1e300]) | _text)
_documents = st.recursive(
    _scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(_text, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(_text, children, max_size=4)
        | st.dictionaries(st.integers(), children, max_size=3)
        | st.dictionaries(st.floats(allow_nan=False), children, max_size=3)
        | st.dictionaries(st.booleans() | st.none(), children, max_size=2)
        | st.dictionaries(_text | st.integers(), children, max_size=3)),
    max_leaves=16)


class TestCanonicalEmitter:
    @settings(max_examples=400, deadline=None)
    @given(_documents)
    def test_values_emit_as_json_does(self, value):
        assert outcome(docs.dumps, value) == outcome(stdlib_dumps, value)

    @pytest.mark.parametrize("value", [
        {}, [], (), "", {"": {}}, [[], {}, ()], {"a": [[]]}, -0.0,
        {"b": 1, "a": {"d": [1.5, None, True], "c": ("x", "y")}},
        [["a", "b"], ["c", 1], [["d"]]], {2: "x", 10: "y"},
        {"k": {2: [{"a": "b"}], 10: None}}, {"x": {2: "a", "1": "b"}}])
    def test_edge_values(self, value):
        assert outcome(docs.dumps, value) == outcome(stdlib_dumps, value)

    def test_every_fixture_document(self):
        for name, doc in sorted(fixtures.build_fixtures().items()):
            assert docs.dumps(doc) == stdlib_dumps(doc), name

    def test_every_report_of_a_fixture_sweep(self, fixture_dir, monkeypatch):
        real = docs.dumps
        seen = []

        def compare(doc):
            text = real(doc)
            assert text == stdlib_dumps(doc)
            seen.append(len(text))
            return text

        monkeypatch.setattr(docs, "dumps", compare)
        for argv in fixture_commands(fixture_dir):
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assert (code == 0) == bool(out.getvalue()), argv
        assert len(seen) > 70


# -- the one-subcommand parser against the full one ----------------------------


def parse_outcome(parse, argv):
    """(stdout, stderr, exit status or the parsed namespace) of parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return out.getvalue(), err.getvalue(), result


# argv on which argparse prints or exits, then argv that parse
ARGV_EXITS = [
    [], ["-h"], ["--help"], ["classify", "-h"], ["suite", "--help"],
    ["nope"], ["classify"], ["classify", "--functor"],
    ["suite", "--jobs", "0"], ["suite", "--jobs", "x"],
    ["classify", "--functor", "f.json", "--certify-dim", "two"],
    ["classify", "--functor", "f.json", "extra"],
    ["--timings=1", "classify", "--functor", "f.json"],
    ["-x", "classify", "--functor", "f.json"],
    ["--", "classify", "--functor", "f.json"],
    ["compose", "--mode", "corr", "a.json"],
    ["compose", "--mode", "nope", "a.json", "b.json"],
    ["replace", "--functor", "f.json"],
]
ARGV_PARSES = [
    ["--timings", "classify", "--functor", "f.json"],
    ["--tim", "classify", "--functor", "f.json"],
    ["classify", "--fun", "f.json", "--certify-dim", "2"],
    ["homology", "c.json", "--max-dim", "3"],
    ["suite", "--jobs", "2", "--size", "1", "--seed", "7"],
]


class TestSubcommandParser:
    @pytest.mark.parametrize("argv", ARGV_EXITS + ARGV_PARSES, ids=" ".join)
    def test_parses_as_the_full_parser(self, argv):
        full = parse_outcome(lambda a: cli.build_parser().parse_args(a), argv)
        assert parse_outcome(cli._parse_args, argv) == full
        assert isinstance(full[2], tuple) == (argv in ARGV_EXITS)

    @pytest.mark.parametrize("argv", ARGV_EXITS, ids=" ".join)
    def test_main_prints_and_exits_as_the_full_parser(self, argv):
        full = parse_outcome(lambda a: cli.build_parser().parse_args(a), argv)
        assert parse_outcome(cli.main, argv) == full

    @pytest.mark.parametrize("argv", [
        ["--timings", "homology", "FX/cyclic_2.json"],
        ["--tim", "homology", "FX/cyclic_2.json"]])
    def test_timings_before_the_subcommand(self, argv, fixture_dir):
        argv = [a.replace("FX", fixture_dir) for a in argv]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0
        assert json.loads(buf.getvalue())["timing_s"] is not None
