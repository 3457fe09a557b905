import argparse
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
PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


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

    def test_every_parsed_fixture_is_emitted_again_byte_for_byte(
            self, fixture_dir):
        to_doc = TO_DOC
        kinds = []
        for name in sorted(os.listdir(fixture_dir)):
            with open(os.path.join(fixture_dir, name), encoding="utf-8") as fh:
                text = fh.read()
            try:
                kind, value = docs.parse_any(text)
            except docs.ValidationFailure:
                assert name.startswith("defect_"), name
                continue
            assert docs.dumps(to_doc[kind](value)) == text, name
            kinds.append(kind)
        assert len(kinds) == 22 and set(kinds) == set(to_doc)

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


TO_DOC = {"category": docs.category_to_doc,
          "functor": docs.functor_to_doc,
          "profunctor": docs.profunctor_to_doc,
          "correspondence": docs.correspondence_to_doc,
          "set_valued_functor": docs.set_valued_to_doc}


def random_value(rng, kind):
    """A random value of a document type, built by randgen."""
    A = randgen.random_category(rng, 3, 8, prefix="a.")
    if kind == "category":
        return A
    if kind == "set_valued_functor":
        return randgen.random_set_valued(rng, A)
    B = randgen.random_category(rng, 3, 8, prefix="b.")
    if kind == "functor":
        return randgen.random_functor_between(rng, A, B)
    P = randgen.random_profunctor(rng, A, B)
    return P if kind == "profunctor" else corrs.collage(P)


def scrambled(rng, doc, kind):
    """doc written another way with the same meaning: every list and
    every object's keys in a random order (the entries of a compose
    triple keep theirs), and a profunctor's empty rows left out."""
    def shuffled(value, fixed=False):
        if isinstance(value, dict):
            items = [(k, shuffled(v)) for k, v in value.items()]
        elif isinstance(value, list) and not fixed:
            items = [shuffled(v, fixed=True) for v in value]
        else:
            return value
        rng.shuffle(items)
        return dict(items) if isinstance(value, dict) else items

    def pruned(value):
        if not isinstance(value, dict):
            return value
        kept = {k: pruned(v) for k, v in value.items()}
        return {k: v for k, v in kept.items() if v not in ({}, [])}

    doc = shuffled(doc)
    if kind == "profunctor":
        for table in ("elements", "left_action", "right_action"):
            doc[table] = pruned(doc[table])
    return doc


def document_rows(value, path=()):
    """The rows of a document: (path of keys, entry) for each entry of a
    list, wherever it stands, and for each other leaf."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from document_rows(v, path + (k,))
    elif isinstance(value, list):
        for v in value:
            yield path, json.dumps(v, sort_keys=True)
    else:
        yield path, json.dumps(value)


class TestParseEmitProperty:
    """For every document type D: parse(emit(parse(D))) == parse(D), and
    every row of an accepted D is in emit(parse(D)), on documents
    randgen builds and on the committed fixtures, each also scrambled."""

    @pytest.mark.parametrize("kind", sorted(TO_DOC))
    def test_random_and_fixture_documents(self, kind, fixture_dir):
        rng = random.Random(f"parse-emit:{kind}")
        sources = [TO_DOC[kind](random_value(rng, kind)) for _ in range(12)]
        for name in sorted(os.listdir(fixture_dir)):
            if name.startswith("defect_"):
                continue
            with open(os.path.join(fixture_dir, name),
                      encoding="utf-8") as fh:
                doc = json.load(fh)
            if doc["type"] == kind:
                sources.append(doc)
        assert len(sources) > 12
        for doc in sources:
            for D in (doc, scrambled(rng, doc, kind)):
                got, value = docs.parse_any(json.dumps(D))
                assert got == kind
                emitted = docs.dumps(TO_DOC[kind](value))
                assert docs.parse_any(emitted) == (kind, value)
                assert set(document_rows(D)) <= set(
                    document_rows(json.loads(emitted)))


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

    def test_repeated_element_id_is_refused_with_3(self, fixture_dir,
                                                   tmp_path):
        # ("r", "r") at (*, x) was read as a two-element set, and the
        # document emitted again differed from the input
        with open(os.path.join(fixture_dir, "idem_to_ret_bimodule.json"),
                  encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["elements"]["*"]["x"] = ["r", "r"]
        with pytest.raises(docs.ValidationFailure) as failure:
            docs.profunctor_from_doc(doc)
        assert failure.value.report == ["duplicate ids in elements at (*,x)"]
        path = tmp_path / "repeated.json"
        path.write_text(docs.dumps(doc))
        code, out, err = run_cli(
            "compose", "--mode", "prof", str(path),
            os.path.join(fixture_dir, "ret_to_idem_bimodule.json"))
        assert code == cli.EXIT_VALIDATION, err
        assert out == "" and "Traceback" not in err
        assert "duplicate ids in elements at (*,x)" in err

    @pytest.mark.parametrize("field, row, column, message", [
        ("elements", "zzz", None,
         "elements row zzz names no object of the source"),
        ("elements", "*", "zzz",
         "elements row * column zzz names no object of the target"),
        ("left_action", "zzz", None,
         "left_action row zzz names no morphism of the source"),
        ("left_action", "e", "zzz",
         "left_action row e column zzz names no object of the target"),
        ("right_action", "zzz", None,
         "right_action row zzz names no object of the source"),
        ("right_action", "*", "zzz",
         "right_action row * column zzz names no morphism of the target"),
    ])
    def test_profunctor_row_keyed_by_nothing_is_refused(
            self, fixture_dir, field, row, column, message):
        # such a row was dropped, and the document emitted again differed
        with open(os.path.join(fixture_dir, "idem_to_ret_bimodule.json"),
                  encoding="utf-8") as fh:
            doc = json.load(fh)
        if column is None:
            doc[field][row] = {}
        else:
            doc[field][row][column] = [] if field == "elements" else {}
        with pytest.raises(docs.ValidationFailure) as failure:
            docs.profunctor_from_doc(doc)
        assert failure.value.report == [message]

    def test_first_key_naming_nothing_in_document_order_is_refused(
            self, fixture_dir):
        with open(os.path.join(fixture_dir, "idem_to_ret_bimodule.json"),
                  encoding="utf-8") as fh:
            doc = json.load(fh)
        # a column inside the first row comes before the rows after it;
        # "b" sorts before "zzz" but comes after it in the document
        doc["elements"] = {"*": dict(doc["elements"]["*"], zzz=[]),
                           "b": {}, "a": {}}
        with pytest.raises(docs.ValidationFailure) as failure:
            docs.profunctor_from_doc(doc)
        assert failure.value.report == [
            "elements row * column zzz names no object of the target"]
        del doc["elements"]["*"]["zzz"]
        with pytest.raises(docs.ValidationFailure) as failure:
            docs.profunctor_from_doc(doc)
        assert failure.value.report == [
            "elements row b names no object of the source"]

    def test_compose_refuses_a_row_keyed_by_nothing_with_3(self, fixture_dir,
                                                          tmp_path):
        with open(os.path.join(fixture_dir, "idem_to_ret_bimodule.json"),
                  encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["elements"]["zzz"] = {"x": ["r"]}
        path = tmp_path / "unknown_row.json"
        path.write_text(docs.dumps(doc))
        code, out, err = run_cli(
            "compose", "--mode", "prof", str(path),
            os.path.join(fixture_dir, "ret_to_idem_bimodule.json"))
        assert code == cli.EXIT_VALIDATION, err
        assert out == "" and "Traceback" not in err
        assert "elements row zzz names no object of the source" in err

    @pytest.mark.parametrize("field, key, entry, message", [
        ("values", "zzz", ["a"], "values key zzz names no object of the base"),
        ("transports", "zzz", {"a": "a"},
         "transports key zzz names no morphism of the base"),
    ])
    def test_set_valued_key_naming_nothing_is_refused(self, field, key,
                                                      entry, message):
        # such a key was kept, and emitted again
        doc = docs.set_valued_to_doc(SetValuedFunctor(
            core.interval(0), {"0": ("a",)}, {"0->0": {"a": "a"}}))
        doc[field] = {key: entry, **doc[field], "yyy": entry}
        with pytest.raises(docs.ValidationFailure) as err:
            docs.set_valued_from_doc(doc)
        assert err.value.report == [message]
        with pytest.raises(docs.ValidationFailure):
            docs.parse_any(docs.dumps(doc))

    @pytest.mark.parametrize("field, entry, message", [
        ("object_map", "0",
         "object_map key zzz names no object of the source"),
        ("morphism_map", "0->0",
         "morphism_map key zzz names no morphism of the source"),
    ])
    def test_functor_key_naming_nothing_is_refused(self, fixture_dir, field,
                                                   entry, message):
        with open(os.path.join(fixture_dir, "ev_t_arrow_1.json"),
                  encoding="utf-8") as fh:
            doc = json.load(fh)
        doc[field] = {"zzz": entry, **doc[field], "yyy": entry}
        with pytest.raises(docs.ValidationFailure) as err:
            docs.functor_from_doc(doc)
        assert err.value.report == [message]

    def test_functor_keys_naming_nothing_are_refused_in_document_order(
            self, fixture_dir):
        with open(os.path.join(fixture_dir, "ev_t_arrow_1.json"),
                  encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["object_map"]["zzz"] = "0"
        doc["morphism_map"]["yyy"] = "0->0"
        with pytest.raises(docs.ValidationFailure) as err:
            docs.parse_any(docs.dumps(doc))
        assert err.value.report == [
            "morphism_map key yyy names no morphism of the source"]

    def test_identity_key_naming_nothing_is_refused(self, fixture_dir):
        with open(os.path.join(fixture_dir, "interval_1.json"),
                  encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["identities"] = {"zzz": "0->0", **doc["identities"],
                             "yyy": "0->0"}
        with pytest.raises(docs.ValidationFailure) as err:
            docs.category_from_doc(doc)
        assert err.value.report == ["identities key zzz names no object"]

    def test_classify_refuses_a_functor_key_naming_nothing_with_3(
            self, fixture_dir, tmp_path):
        with open(os.path.join(fixture_dir, "ev_t_arrow_1.json"),
                  encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["object_map"]["zzz"] = "0"
        path = tmp_path / "unknown_object.json"
        path.write_text(docs.dumps(doc))
        code, out, err = run_cli("classify", "--functor", str(path))
        assert code == cli.EXIT_VALIDATION, err
        assert out == "" and "Traceback" not in err
        assert "object_map key zzz names no object of the source" in err

    def test_repeated_value_is_refused_as_a_validation_failure(self):
        doc = docs.set_valued_to_doc(SetValuedFunctor(
            core.interval(0), {"0": ("a",)}, {"0->0": {"a": "a"}}))
        doc["values"]["0"] = ["a", "a"]
        with pytest.raises(docs.ValidationFailure) as err:
            docs.set_valued_from_doc(doc)
        assert err.value.report == ["duplicate ids in values at 0"]

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
        # contractible: its nerve's homology is computed, once
        from fibcat import homology
        degrees = []
        real = homology.homology
        monkeypatch.setattr(homology, "homology", lambda C, d:
                            degrees.append(d) or real(C, d))
        code, out = run_in_process([
            "final", "--functor",
            os.path.join(fixture_dir, "zigzag_to_point.json"),
            "--certify-dim", certify_dim])
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"] == {"final": True}
        assert report["per_object"] == {"*": {
            "nonempty": True, "connected": True, "homology_ok": True}}
        assert degrees == [int(certify_dim)]

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

    @pytest.mark.parametrize("A", [core.interval(1),
                                   core.discrete_category(["0", "1"])])
    def test_compose_refuses_coend_classes_that_print_alike(self, tmp_path,
                                                             A):
        # at (1, c) the classes of (p, q:r, y) and (p:q, r, y) were both
        # named [p:q:r|y]: over [1] the left action then looked
        # ill-defined (a traceback), over a discrete A the routes disagreed
        B = core.discrete_category(["p", "p:q"])
        C = core.discrete_category(["c"])
        elements = {("1", "p"): ("q:r",), ("1", "p:q"): ("r",),
                    ("0", "p"): ("s",), ("0", "p:q"): ("t",)}
        alpha = {"q:r": "s", "r": "t"}
        P01 = corrs.Profunctor(
            A, B, elements,
            {(m, b): {x: x if A.is_identity(m) else alpha[x]
                      for x in elements[(A.tgt[m], b)]}
             for m in A.morphisms for b in B.objects},
            {(a, m): {x: x for x in elements[(a, B.src[m])]}
             for a in A.objects for m in B.morphisms}).validate()
        P12 = corrs.Profunctor(
            B, C, {("p", "c"): ("y",), ("p:q", "c"): ("y",)},
            {(m, "c"): {"y": "y"} for m in B.morphisms},
            {(b, "id_c"): {"y": "y"} for b in B.objects}).validate()
        paths = []
        for name, P in (("P01", P01), ("P12", P12)):
            paths.append(str(tmp_path / f"{name}.json"))
            with open(paths[-1], "w") as fh:
                fh.write(docs.dumps(docs.profunctor_to_doc(P)))
        for mode in ("prof", "bifib"):
            code, out, err = run_cli("compose", "--mode", mode, *paths)
            assert code == cli.EXIT_PRECONDITION, err
            assert out == "" and "Traceback" not in err
            assert ("classes of ('p', 'q:r', 'y') and ('p:q', 'r', 'y') "
                    "share the class id [p:q:r|y]") in err

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

    def test_pushforward_refuses_sections_that_print_alike(self, tmp_path):
        # over the point, the sections (p, q) |-> (a;q:b, c) and
        # (a, b;q:c) both print as <p:a;q:b;q:c|ip:x;iq:y;iq:z>@*
        E = core.relabel(core.discrete_category(["p", "q"]),
                         morphism_map={"id_p": "ip", "id_q": "iq"})
        Z = core.relabel(
            core.discrete_category(["a;q:b", "c", "a", "b;q:c"]),
            morphism_map={"id_a": "x", "id_a;q:b": "x;iq:y", "id_c": "z",
                          "id_b;q:c": "y;iq:z"})
        over = {"a;q:b": "p", "a": "p", "c": "q", "b;q:c": "q"}
        paths = []
        for name, F in (
                ("pi", core.constant_functor(E, core.terminal(), "*")),
                ("zeta", core.Functor(Z, E, over, {
                    Z.identity[z]: E.identity[e] for z, e in over.items()}))):
            paths.append(str(tmp_path / f"{name}.json"))
            with open(paths[-1], "w") as fh:
                fh.write(docs.dumps(docs.functor_to_doc(F)))
        code, out, err = run_cli("pushforward", "--fibration", paths[0],
                                 "--over", paths[1])
        assert code == cli.EXIT_PRECONDITION, err
        assert out == "" and "Traceback" not in err
        assert ("functors ({'p': 'a', 'q': 'b;q:c'}, {'ip': 'x', 'iq': "
                "'y;iq:z'}) and ({'p': 'a;q:b', 'q': 'c'}, {'ip': 'x;iq:y', "
                "'iq': 'z'}) share the object id "
                "<p:a;q:b;q:c|ip:x;iq:y;iq:z>@*") in err

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

    def test_importing_the_cli_leaves_out_dataclasses_typing_and_traceback(
            self):
        # -S: no site, which may import typing itself; the package is
        # found on PYTHONPATH, which -S keeps
        package = os.path.dirname(os.path.dirname(os.path.abspath(
            cli.__file__)))
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             "import sys; before = set(sys.modules); import fibcat.cli; "
             "print(sorted({'dataclasses', 'inspect', 'typing', 'traceback'}"
             " & (set(sys.modules) - before)))"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": package})
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

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
        F = core.identity_functor(core.interval(1))

        def planted(inputs):
            inputs["instance.json"] = F
            return False

        monkeypatch.setattr(cli_mod, "_suite_cases",
                            lambda seed, size: [("planted", planted)])
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
        assert (art / "planted__instance.json").read_text("utf-8") == \
            docs.dumps(docs.functor_to_doc(F))

    def test_a_raising_case_writes_its_inputs(self, tmp_path, monkeypatch):
        rng = random.Random(3)
        A = randgen.random_category(rng, 2, 5, prefix="a.")
        B = randgen.random_category(rng, 2, 5, prefix="b.")
        P = randgen.random_profunctor(rng, A, B)

        def raises(inputs):
            inputs["profunctor.json"] = P
            core.point(core.terminal(), "nope")

        def passes(inputs):
            inputs["unwritten.json"] = P
            return True

        cases = [("passes", passes), ("raises", raises)]
        monkeypatch.setattr(cli, "_suite_cases", lambda seed, size: cases)
        art = tmp_path / "artifacts"
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["suite", "--size", "1",
                             "--artifacts", str(art)]) == 0
        assert json.loads(out.getvalue())["verdicts"]["failures"] == 1
        assert sorted(os.listdir(art)) == ["raises__profunctor.json"]
        assert (art / "raises__profunctor.json").read_text("utf-8") == \
            docs.dumps(docs.profunctor_to_doc(P))

    def test_passing_cases_build_no_documents(self, monkeypatch):
        built = []
        for name in ("functor_to_doc", "profunctor_to_doc"):
            real = getattr(docs, name)
            monkeypatch.setattr(docs, name, lambda x, real=real: (
                built.append(x), real(x))[1])
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["suite", "--seed", "5", "--size", "1"]) == 0
        assert json.loads(out.getvalue())["verdicts"]["all_passed"]
        assert built == []

    def test_failure_records_name_the_innermost_fibcat_frame(self,
                                                             monkeypatch):
        cases = [("passes", lambda inputs: True),
                 ("planted", lambda inputs: core.point(core.terminal(),
                                                       "nope"))]
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
        yield ["homology", path, "--max-dim", "5"]
    for path in by_type["correspondence"]:
        yield ["roundtrip", path]
    for a in by_type["profunctor"]:
        for b in by_type["profunctor"]:
            for mode in ("prof", "bifib"):
                yield ["compose", "--mode", mode, a, b]
    yield ["compose", "--mode", "corr",
           os.path.join(fixture_dir, "two_step_left.json"),
           os.path.join(fixture_dir, "two_step_right.json")]
    yield ["pushforward", "--fibration",
           os.path.join(fixture_dir, "interval_1_to_point.json"),
           "--over", os.path.join(fixture_dir, "ev_t_arrow_1.json")]


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

# cells json writes as they are: docs.dumps takes its row path on tables
# of these, and falls back on tables with a cell of _text that needs
# escaping
_plain_text = st.text(alphabet=st.sampled_from(
    ['a', 'b', ',', ' ', ':', '%', 'é', '\U0001f600']), max_size=4)
_non_strings = st.none() | st.booleans() | st.integers() | st.just([])
# table lengths, mostly at or past the row path's least length
_lengths = st.sampled_from([0, 1, 7, 8, 9, 12])


@st.composite
def _string_tables(draw):
    """A table of equal-length string rows, shorter and longer than the
    row path's least length, of plain cells or of cells that may need
    escaping; now and then one row is empty or has one non-string cell."""
    cells = draw(st.sampled_from([_plain_text, _text]))
    width = draw(st.integers(1, 4))
    rows = [draw(st.lists(cells, min_size=width, max_size=width))
            for _ in range(draw(_lengths))]
    odd = draw(st.sampled_from([None, None, None, "empty", "non-string"]))
    if rows and odd:
        i = draw(st.integers(0, len(rows) - 1))
        if odd == "empty":
            rows[i] = []
        else:
            rows[i][draw(st.integers(0, width - 1))] = draw(_non_strings)
    if draw(st.booleans()):
        rows = tuple(tuple(row) for row in rows)
    return rows


@st.composite
def _records(draw):
    """A list of dicts with the same keys (one to three, which may need
    escaping) and string values; now and then one record lacks a key,
    has another, or has a non-string value."""
    keys = draw(st.lists(_plain_text | _text, min_size=1, max_size=3,
                         unique=True))
    cells = draw(st.sampled_from([_plain_text, _text]))
    records = [{k: draw(cells) for k in keys}
               for _ in range(draw(_lengths))]
    odd = draw(st.sampled_from([None, None, None, "lacks", "extra",
                                 "non-string"]))
    if records and odd:
        record = records[draw(st.integers(0, len(records) - 1))]
        key = draw(st.sampled_from(keys))
        if odd == "lacks":
            del record[key]
        elif odd == "extra":
            record[key + "+"] = draw(cells)
        else:
            record[key] = draw(_non_strings)
    return records


@st.composite
def _string_maps(draw):
    """A dict of strings to strings, keys or values or both of which may
    need escaping, now and then with one non-string value."""
    either = st.sampled_from([_plain_text, _text])
    keys, cells = draw(st.tuples(either, either))
    n = draw(_lengths)
    table = draw(st.dictionaries(keys, cells, min_size=n, max_size=n))
    if table and draw(st.integers(0, 3)) == 0:
        table[draw(st.sampled_from(sorted(table)))] = draw(_non_strings)
    return table


_tables = _string_tables() | _records() | _string_maps()


class TestCanonicalEmitter:
    @settings(max_examples=400, deadline=None)
    @given(_tables, st.sampled_from(["bare", "in a dict", "in a list"]))
    def test_tables_emit_as_json_does(self, table, where):
        value = {"bare": table, "in a dict": {"t": table, "u": [table]},
                 "in a list": [table, "x"]}[where]
        assert outcome(docs.dumps, value) == outcome(stdlib_dumps, value)

    @pytest.mark.parametrize("value", [
        [{"a%": f"{i}%s", "b": "%"} for i in range(9)],
        [{"%s": f"{i}", "%%": "%d"} for i in range(9)],
        [{"one": f"{i}"} for i in range(9)],
        [{'"k"\n': f"{i}", "\\": "\U0001f600"} for i in range(9)],
        [{"a": "x", "b": "y"}] * 8 + [{"a": "x", "c": "y"}],
        [{"a": "x", "b": "y"}] * 8 + [{"a": "x"}],
        [{"a": "x"}] * 8 + [{"a": 1}],
        [["a", "b"]] * 8 + [[]], [["a", "b"]] * 8 + [["a", None]],
        [("a", "b")] * 8 + [["c", '"']], [["é"]] * 7 + [["\x00"]],
        {f"%{i}": f'{i}"' for i in range(8)},
        {f'"{i}': f"{i}" for i in range(8)}])
    def test_edge_tables(self, value):
        assert outcome(docs.dumps, value) == outcome(stdlib_dumps, value)

    @pytest.mark.parametrize("value", [
        [[f"{i}->{j}", "a", f"{j}->{i}"] for i in range(100)
         for j in range(100)],
        [[f"{i}", "a\U0001f600b", "é"] for i in range(10_000)]
        + [["\x1f", "\\", '"']],
        [{"id": f"m{i}", "src": "x", "tgt": f"y{i % 7}"}
         for i in range(10_000)],
        {f"k{i}": f"v{i}%s" for i in range(10_000)}])
    def test_ten_thousand_rows(self, value):
        assert docs.dumps(value) == stdlib_dumps(value)
        assert docs.dumps({"t": value}) == stdlib_dumps({"t": value})

    def test_category_tables_take_the_row_path(self, monkeypatch):
        real = docs._bulk
        written = []

        def spy(value, kind, newline):
            table = real(value, kind, newline)
            if table:
                written.append(len(value))
            return table

        monkeypatch.setattr(docs, "_bulk", spy)
        Ar = core.arrow_category(core.interval(3))[0]
        doc = docs.category_to_doc(Ar)
        assert docs.dumps(doc) == stdlib_dumps(doc)
        # compose rows, morphism records and identities
        assert written == [len(doc["compose"]), len(doc["identities"]),
                           len(doc["morphisms"])]

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

    @pytest.mark.parametrize("value", [
        0, -1, 7, 2 ** 64, -(10 ** 30), True, False, None,
        [0, 1, -2, 2 ** 70], (3, 4), [5], [True, False], [None],
        [1, True, 0, False], [True, 1], [1, None, 2], [[1, 2], [3], []],
        [[[1], [2, 3]], [[], []]], [], [[]], [[], [], []],
        {"betti": [1, 0, 0, 0], "torsion": [[], [2], [], [2]],
         "simplex_counts": [2, 3, 4, 5], "ok": True, "witness": None},
        [[i, i + 1] for i in range(9)], [list(range(9))] * 9,
        [[1, 2]] * 8 + [[True, 2]], {"a": 1, "b": [1, 2], "c": [False]},
        [1, "a", 2], [1, 1.5, 2], [1.0, 2.0]])
    def test_ints_booleans_and_none(self, value):
        assert docs.dumps(value) == stdlib_dumps(value)
        assert docs.dumps({"t": value}) == stdlib_dumps({"t": value})
        assert docs.dumps([value, [value]]) == stdlib_dumps([value, [value]])

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(
        st.integers() | st.booleans() | st.none(),
        lambda rows: st.lists(rows, max_size=10) | st.lists(
            st.integers(), min_size=0, max_size=10), max_leaves=40))
    def test_rows_of_ints_emit_as_json_does(self, value):
        assert docs.dumps(value) == stdlib_dumps(value)

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


# -- the command-table parser against argparse --------------------------------


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
    ["suite", "--size", "0"], ["suite", "--size", "-1"],
]
ARGV_PARSES = [
    ["--timings", "classify", "--functor", "f.json"],
    ["--tim", "classify", "--functor", "f.json"],
    ["classify", "--fun", "f.json", "--certify-dim", "2"],
    ["homology", "c.json", "--max-dim", "3"],
    ["suite", "--jobs", "2", "--size", "1", "--seed", "7"],
]

# values with which int, a choice or argparse's reading of a leading -
# can go either way
ODD_VALUES = ["-1", " 2", "2_0", "+3", "", "x", "-", "--", "-h", "0", "٣",
              "--functor", "a b", "k=v"]


def option_tokens(rng, flag, keywords):
    """One option of the command table, now and then misspelled."""
    if "choices" in keywords:
        value = rng.choice(keywords["choices"])
    elif "type" in keywords:
        value = rng.choice(["1", "2", "3", "7"])
    else:
        value = rng.choice(["f.json", "out/", "a b.json"])
    if rng.random() < 0.2:
        value = rng.choice(ODD_VALUES)
    r = rng.random()
    if r < 0.1:
        flag = flag[:rng.randint(3, len(flag) - 1)]
    elif r < 0.15:
        return [flag]  # no value
    if rng.random() < 0.1:
        return [f"{flag}={value}"]
    return [flag, value]


def random_argv(rng, table):
    """An argv drawn from the command table: mostly in its plain grammar,
    with abbreviations, = forms, repeats, odd values, split or miscounted
    positionals, --timings after the subcommand, unknown subcommands and
    options, help and -- mixed in."""
    argv = []
    r = rng.random()
    if r < 0.3:
        argv.append("--timings")
    elif r < 0.36:
        argv.append(rng.choice(["--tim", "--timings=1", "-x", "--", "-h",
                                "--t"]))
    r = rng.random()
    if r < 0.04:
        return argv
    name = (rng.choice(list(table)) if r < 0.94
            else rng.choice(["nope", "clas", "Suite"]))
    argv.append(name)
    if name not in table:
        return argv + ["--functor", "f.json"] * rng.randint(0, 1)
    _, positionals, options, _ = table[name]
    pieces = [option_tokens(rng, flag, keywords)
              for flag, keywords in options.items()
              if rng.random() < (0.9 if keywords.get("required") else 0.5)]
    if options and rng.random() < 0.1:
        flag = rng.choice(list(options))
        pieces.append(option_tokens(rng, flag, options[flag]))
    if rng.random() < 0.08:
        pieces.append([rng.choice(["--timings", "-h", "--help", "--nope",
                                   "-x", "--"])])
    rng.shuffle(pieces)
    count = sum(nargs or 1 for _, nargs in positionals)
    if rng.random() < 0.1:
        count = max(0, count + rng.choice([-1, 1]))
    words = [rng.choice(["a.json", "b.json", "c d.json"]
                        if rng.random() < 0.9 else ODD_VALUES)
             for _ in range(count)]
    if len(words) > 1 and rng.random() < 0.2:
        for word in words:  # split among the options
            pieces.insert(rng.randint(0, len(pieces)), [word])
    elif words:
        pieces.insert(rng.randint(0, len(pieces)), words)
    return argv + [token for piece in pieces for token in piece]


class TestSubcommandParser:
    @pytest.mark.parametrize("argv", ARGV_EXITS + ARGV_PARSES, ids=" ".join)
    def test_parses_as_the_full_parser(self, argv):
        full = parse_outcome(lambda a: cli.build_parser().parse_args(a), argv)
        assert parse_outcome(cli._parse_args, argv) == full
        assert isinstance(full[2], tuple) == (argv in ARGV_EXITS)

    def test_random_argv_parse_as_argparse_does(self):
        rng = random.Random("fibcat:argv")
        table = cli._subcommands()
        parser = cli.build_parser()
        plain = exits = 0
        for _ in range(3000):
            argv = random_argv(rng, table)
            full = parse_outcome(parser.parse_args, argv)
            assert parse_outcome(cli._parse_args, argv) == full, argv
            if isinstance(full[2], tuple):
                assert parse_outcome(cli.main, argv) == full, argv
                exits += 1
            plain += cli._parse_plain(argv) is not None
        # both routes are well exercised
        assert plain > 1000 and exits > 500, (plain, exits)

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

    def test_known_command_lines_build_no_argparse_parser(self,
                                                          monkeypatch):
        """Every golden and benchmark command line parses by the table."""
        with open(os.path.join(os.path.dirname(__file__), "golden_cli.json"),
                  encoding="utf-8") as fh:
            argvs = [key.split(" ") for key in json.load(fh)]
        monkeypatch.syspath_prepend(PERFBENCH)
        import workloads
        for workload in workloads.WORKLOADS:
            files, jobs = workloads.build(workload, 0)
            paths = workloads.input_paths(files, "inputs")
            argvs += [workloads.resolve_argv(job.argv, paths) for job in jobs]
        expected = [cli.build_parser().parse_args(argv) for argv in argvs]

        def refuse(*args, **kwargs):
            raise AssertionError("an argparse parser was built")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        assert [cli._parse_args(argv) for argv in argvs] == expected
        assert len(argvs) > 150

    @pytest.mark.parametrize("argv", [["homology", "c.json"],
                                      ["homology", "c.json", "--max=3"]])
    def test_main_calls_the_command_it_finds_in_the_module(self, argv,
                                                            monkeypatch):
        # a tracer rebinds cli.cmd_* and must see its own function called
        called = []
        monkeypatch.setattr(cli, "cmd_homology",
                            lambda args: called.append(args.category) or 0)
        assert cli.main(argv) == 0
        assert called == ["c.json"]

    @pytest.mark.parametrize("variant", [
        ["--jobs", "4"], ["--jo", "4"], ["--j=1"], ["--jobs=2"],
        ["--job", "3"]])
    def test_the_echo_leaves_out_jobs_in_any_spelling(self, variant,
                                                      monkeypatch):
        monkeypatch.setattr(cli, "_suite_cases", lambda seed, size: [])
        reports = []
        for argv in (["suite", "--seed", "5", *variant],
                     ["suite", "--seed", "5"]):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.main(argv) == 0
            reports.append(out.getvalue())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["command"] == ["suite", "--seed", "5"]

    @pytest.mark.parametrize("argv, echo", [
        (["--tim", "homology", "c"], ["--timings", "homology", "c"]),
        (["homology", "--", "--max-dim=3"], ["homology", "--", "--max-dim=3"]),
        (["homology", "--", "--jobs"], ["homology", "--", "--jobs"])])
    def test_the_echo_spells_options_as_the_parse_read_them(self, argv, echo):
        ns = cli.build_parser().parse_args(argv)
        assert cli._echo(argv, ns.command) == echo

    def test_equals_and_space_spellings_report_the_same_bytes(self,
                                                              fixture_dir):
        path = os.path.join(fixture_dir, "cyclic_2.json")
        reports = []
        for argv in (["homology", path, "--max-dim", "3"],
                     ["homology", path, "--max-dim=3"],
                     ["homology", "--max", "3", path]):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.main(argv) == 0
            reports.append(out.getvalue())
        assert reports[1] == reports[0]
        assert json.loads(reports[2])["command"] == [
            "homology", "--max-dim", "3", path]
