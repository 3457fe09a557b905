"""The CLI exit contract under mutated fixtures.

Each example takes one committed fixture, mutates it once (a deleted key,
a value of the wrong JSON type, a dangling id, a key renamed to one that
names nothing, a key that names nothing added to a keyed table, a
duplicated list entry, or an id renamed everywhere to itself with ",(x)"
appended, which makes compound ids print alike) and runs it through every
subcommand that reads its document type, pushforward with the fixture's
partner.  Whatever the mutant, the exit status is 0, 2, 3 or 4; a
non-zero exit writes nothing to stdout, and no exception escapes
`cli.main`, so a console run prints no traceback.  A renamed or added
key that names nothing is refused.
"""

import contextlib
import copy
import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from fibcat import cli, documents as docs

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def _load_fixtures():
    docs = {}
    for name in sorted(os.listdir(FIXTURES)):
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
            docs[name] = json.load(fh)
    return docs


DOCS = _load_fixtures()

# the composable partner of each bimodule and correspondence fixture
PARTNERS = {
    "idem_to_ret_bimodule.json": "ret_to_idem_bimodule.json",
    "ret_to_idem_bimodule.json": "idem_to_ret_bimodule.json",
    "two_step_left.json": "two_step_right.json",
    "two_step_right.json": "two_step_left.json",
    "interval_1_to_point.json": "ev_t_arrow_1.json",
    "ev_t_arrow_1.json": "interval_1_to_point.json",
}
# the pushforward option each functor fixture with a partner is read as;
# the partner is read as the other
PUSHFORWARD = {"interval_1_to_point.json": ("--fibration", "--over"),
               "ev_t_arrow_1.json": ("--over", "--fibration")}


def commands(name, mutant):
    """Every subcommand that reads the fixture's document type, on the
    mutant at path mutant; None when no subcommand reads it."""
    kind = DOCS[name].get("type")
    partner = os.path.join(FIXTURES, PARTNERS.get(name, name))
    if kind == "functor":
        push = ([["pushforward", PUSHFORWARD[name][0], mutant,
                  PUSHFORWARD[name][1], partner]] if name in PUSHFORWARD
                else [])
        return ([[c, "--functor", mutant] for c in
                 ("classify", "final", "initial")]
                + [["replace", "--kind", k, "--functor", mutant]
                   for k in ("cocart", "cart", "lfib", "rfib")] + push)
    if kind == "category":
        return [["homology", mutant, "--max-dim", "2"]]
    if kind == "profunctor":
        return [["compose", "--mode", "prof", mutant, partner],
                ["compose", "--mode", "bifib", partner, mutant]]
    if kind == "correspondence":
        return [["roundtrip", mutant],
                ["compose", "--mode", "corr", mutant, partner]]
    return None


READ = sorted(name for name in DOCS if commands(name, "") is not None)


def nodes(tree, path=()):
    """Every (path, value) of a JSON tree, the root included."""
    yield path, tree
    if isinstance(tree, dict):
        for k, v in tree.items():
            yield from nodes(v, path + (k,))
    elif isinstance(tree, list):
        for i, v in enumerate(tree):
            yield from nodes(v, path + (i,))


def parent_of(tree, path):
    for step in path[:-1]:
        tree = tree[step]
    return tree


def renamed(tree, old, new):
    """tree with every string old, as a value or a key, replaced by new."""
    if isinstance(tree, dict):
        return {(new if k == old else k): renamed(v, old, new)
                for k, v in tree.items()}
    if isinstance(tree, list):
        return [renamed(v, old, new) for v in tree]
    return new if tree == old else tree


# values of every JSON type; a wrong-type mutation picks one whose type
# differs from the value it replaces
JSON_VALUES = [None, True, 0, 1.5, "x", [], {}]
# the header fields say what a document is, not what it holds
HEADER = {"type", "format_version"}
# tables keyed by ids, and those whose rows are keyed by ids too
KEYED = {"object_map", "morphism_map", "identities", "elements",
         "left_action", "right_action", "values", "transports"}
ROWS_KEYED = {"elements", "left_action", "right_action"}


def keyed_tables(doc):
    """The path of every nonempty table of doc keyed by ids."""
    return [p for p, v in nodes(doc) if isinstance(v, dict) and v and p
            and (p[-1] in KEYED or len(p) > 1 and p[-2] in ROWS_KEYED)]


def add_key(doc, path, draw):
    """doc with a key "dangling" added to the table at path, holding a
    copy of one of the table's entries."""
    doc = copy.deepcopy(doc)
    table = parent_of(doc, path)[path[-1]]
    table["dangling"] = copy.deepcopy(table[draw(sorted(table))])
    return doc


def mutate(doc, kind, draw):
    doc = copy.deepcopy(doc)
    leaves = [(p, v) for p, v in nodes(doc)
              if p and p[-1] not in HEADER and isinstance(v, str)]
    if kind == "delete_key":
        path = draw([p for p, _ in nodes(doc) if p and isinstance(p[-1], str)])
        del parent_of(doc, path)[path[-1]]
    elif kind == "wrong_type":
        path = draw([p for p, _ in nodes(doc) if p])
        value = parent_of(doc, path)[path[-1]]
        parent_of(doc, path)[path[-1]] = draw(
            [v for v in JSON_VALUES if type(v) is not type(value)])
    elif kind == "dangling_id":
        path, _ = draw(leaves)
        parent_of(doc, path)[path[-1]] = "dangling"
    elif kind == "dangling_key":
        path = draw([p for p, _ in nodes(doc)
                     if p and isinstance(p[-1], str) and p[-1] not in HEADER])
        parent = parent_of(doc, path)
        parent["dangling"] = parent.pop(path[-1])
    elif kind == "added_key":
        doc = add_key(doc, draw(keyed_tables(doc)), draw)
    elif kind == "duplicate":
        path = draw([p for p, v in nodes(doc) if isinstance(v, list) and v])
        entries = parent_of(doc, path)[path[-1]]
        entries.insert(0, copy.deepcopy(draw(entries)))
    else:
        _, old = draw(leaves)
        doc = renamed(doc, old, old + ",(x)")
    return doc


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def mutant_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("mutants") / "mutant.json")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(READ),
       kind=st.sampled_from(["delete_key", "wrong_type", "dangling_id",
                             "dangling_key", "added_key", "duplicate",
                             "suffix"]),
       data=st.data())
def test_mutated_fixtures_keep_the_exit_contract(mutant_path, name, kind,
                                                 data):
    doc = mutate(DOCS[name], kind,
                 lambda options: data.draw(st.sampled_from(options)))
    with open(mutant_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    for argv in commands(name, mutant_path):
        code, out, err = run(argv)
        assert code in (0, 2, 3, 4), (argv, code, err)
        assert code == 0 or out == "", (argv, code)
        assert "Traceback" not in err, (argv, err)
        # every key of a fixture names something: renamed, or added
        # naming nothing, it is refused
        assert kind not in ("dangling_key", "added_key") or code != 0, (
            argv, err)


SET_VALUED = sorted(name for name, doc in DOCS.items()
                    if doc.get("type") == "set_valued_functor")


@pytest.mark.parametrize("name", SET_VALUED)
def test_a_key_added_to_a_set_valued_table_is_refused(name):
    # no subcommand reads a set-valued document, so it is parsed directly
    for path in keyed_tables(DOCS[name]):
        doc = add_key(DOCS[name], path, lambda options: options[0])
        with pytest.raises(docs.ValidationFailure):
            docs.set_valued_from_doc(doc)
