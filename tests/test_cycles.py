"""fibcat builds no reference cycles, and `cli.main` runs each command
with the cyclic collector off.

Reference counting frees everything a command drops only while nothing
it builds refers back to itself; the collector is then pure overhead,
walking the live composition tables again and again.  So every command
line here (each fixture command, the `replace` and `pushforward` runs on
mutated fixtures, `suite` runs, every benchmark job and an enumeration
refused at its cap),
and each backtracking enumerator called directly, must leave nothing for
`gc.collect()`.  A failure names the `__qualname__` of each function in
the leaked objects.  A static rule keeps nested functions from reaching
themselves through their closures, the way every cycle found so far was
made.  `cli.main` must give back the collector state it found on every
exit path.
"""

import ast
import gc
import json
import os
import random
import types

import pytest

from fibcat import cli, core, homology
from test_documents_cli import (  # noqa: F401
    PERFBENCH, fixture_commands, fixture_dir)
import test_exit_contract_fuzz as fuzz

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src", "fibcat")


def assert_freed(run, what):
    """run(), with the collector off, leaves nothing for gc.collect(); a
    failure names the functions among the objects it leaves.  Objects
    made before run() are frozen out of the count (and out of the walk)."""
    enabled = gc.isenabled()
    gc.disable()
    gc.freeze()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        found = gc.collect()
        names = sorted({o.__qualname__ for o in gc.garbage
                        if isinstance(o, types.FunctionType)})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.unfreeze()
        if enabled:
            gc.enable()
    assert found == 0, f"{what} left {found} objects in cycles: {names}"


def assert_no_cycles(argv, statuses=(0,)):
    status = []
    assert_freed(lambda: status.append(fuzz.run(argv)[0]), " ".join(argv))
    assert status[0] in statuses, (argv, status)


class TestCommandsMakeNoCycles:
    def test_fixture_commands(self, fixture_dir):
        argvs = list(fixture_commands(fixture_dir))
        for argv in argvs:
            assert_no_cycles(argv, (0, cli.EXIT_VALIDATION,
                                    cli.EXIT_PRECONDITION))
        # the commands that reach all_functors are among them
        assert sum(argv[:3] == ["replace", "--kind", "lfib"]
                   for argv in argvs) == 7

    @pytest.mark.parametrize("kind", ["delete_key", "wrong_type",
                                      "dangling_id", "dangling_key",
                                      "added_key", "duplicate", "suffix"])
    @pytest.mark.parametrize("name", sorted(fuzz.PUSHFORWARD))
    def test_replace_and_pushforward_on_mutants(self, name, kind, tmp_path):
        rng = random.Random(f"cycles:{name}:{kind}")
        doc = fuzz.mutate(fuzz.DOCS[name], kind, rng.choice)
        path = tmp_path / "mutant.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argvs = [argv for argv in fuzz.commands(name, str(path))
                 if argv[0] in ("replace", "pushforward")]
        assert len(argvs) == 5
        for argv in argvs:
            assert_no_cycles(argv, (0, 2, 3, 4))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_suite(self, seed):
        assert_no_cycles(["suite", "--seed", str(seed), "--size", "2",
                          "--jobs", "2"])

    def test_benchmark_jobs(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(PERFBENCH)
        import workloads
        count = 0
        for workload in workloads.WORKLOADS:
            files, jobs = workloads.build(workload, 0)
            paths = workloads.input_paths(files, str(tmp_path))
            for key, (builder, *args) in files.items():
                with open(paths[key], "w", encoding="utf-8") as fh:
                    fh.write(workloads.dumps(builder(*args)))
            for job in jobs:
                assert_no_cycles(workloads.resolve_argv(job.argv, paths))
                count += 1
        assert count == 81

    def test_an_enumeration_refused_at_its_cap(self, fixture_dir,
                                               monkeypatch):
        monkeypatch.setenv("FIBCAT_ENUM_CAP", "3")
        assert_no_cycles(
            ["replace", "--kind", "lfib", "--functor",
             os.path.join(fixture_dir, "ev_t_arrow_2.json")],
            (cli.EXIT_PRECONDITION,))


class TestEnumeratorsMakeNoCycles:
    def test_all_functors_and_natural_transformations(self):
        C, D = core.interval(2), core.walking_isomorphism()
        found = []
        assert_freed(lambda: found.extend(core.all_functors(C, D)),
                     "all_functors")
        # the walking isomorphism is chaotic: any map of objects extends
        assert len(found) == 2 ** 3
        F, G = found[0], found[-1]
        assert_freed(lambda: found.append(core.natural_transformations(F, G)),
                     "natural_transformations")
        assert len(found[-1]) == 1

    def test_functors_over(self):
        ev_t = core.arrow_category(core.interval(2))[2]
        found = []
        assert_freed(lambda: found.extend(core.functors_over(ev_t, ev_t)),
                     "functors_over")
        assert core.identity_functor(ev_t.source) in found

    def test_all_set_valued_functors_and_set_limit(self):
        K = core.interval(1)
        found = []
        assert_freed(lambda: found.extend(
            homology.all_set_valued_functors(K, max_size=2)),
            "all_set_valued_functors")
        assert len(found) == 11
        for G in found:
            limit = []
            assert_freed(lambda: limit.extend(homology.set_limit(G)),
                         "set_limit")
            # 0 is initial in [1], so the limit is the value at 0
            assert len(limit) == len(G.values["0"])


# -- the static rule -----------------------------------------------------


def self_reaching_closures(package=PACKAGE):
    """"module:function" of each nested function that its own body, or
    the body of a sibling it names, names again: each call of the
    enclosing function then leaves a function <-> closure-cell cycle."""
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nested = {node.name: node for node in ast.walk(scope)
                      if node is not scope and isinstance(
                          node, (ast.FunctionDef, ast.AsyncFunctionDef))}
            names = {fn: {n.id for n in ast.walk(node)
                          if isinstance(n, ast.Name) and n.id in nested
                          and isinstance(n.ctx, ast.Load)}
                     for fn, node in nested.items()}
            for fn in nested:
                reached, todo = set(), list(names[fn])
                while todo:
                    other = todo.pop()
                    if other not in reached:
                        reached.add(other)
                        todo.extend(names[other])
                if fn in reached:
                    found.append(f"{name[:-3]}:{scope.name}.{fn}")
    return sorted(set(found))


def test_no_nested_function_reaches_itself():
    assert self_reaching_closures() == []


def test_the_rule_sees_a_self_call_and_a_mutual_one(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def outer():\n"
        "    def walk(i):\n"
        "        return walk(i - 1) if i else 0\n"
        "    def even(i):\n"
        "        return odd(i - 1) if i else True\n"
        "    def odd(i):\n"
        "        return even(i - 1) if i else False\n"
        "    def leaf():\n"
        "        return walk(3)\n"
        "    return leaf\n", encoding="utf-8")
    assert self_reaching_closures(str(tmp_path)) == [
        "mod:outer.even", "mod:outer.odd", "mod:outer.walk"]


# -- the collector around cli.main -------------------------------------------


def exit_case(name, monkeypatch, fixture_dir):
    """(argv, exit status or exception) of one exit path of cli.main."""
    cyclic = os.path.join(fixture_dir, "cyclic_2.json")
    if name == "ok":
        return ["homology", cyclic], 0
    if name == "parse":
        return (["homology", os.path.join(fixture_dir, "missing.json")],
                cli.EXIT_PARSE)
    if name == "validation":
        return (["homology",
                 os.path.join(fixture_dir, "defect_bad_composite.json")],
                cli.EXIT_VALIDATION)
    if name == "precondition":
        monkeypatch.setenv("FIBCAT_ENUM_CAP", "3")
        return (["replace", "--kind", "lfib", "--functor",
                 os.path.join(fixture_dir, "ev_t_arrow_2.json")],
                cli.EXIT_PRECONDITION)
    if name == "unmapped":
        monkeypatch.setattr(homology, "_MATRIX_CAP", 1)
        return (["homology", os.path.join(fixture_dir, "walking_iso.json")],
                homology.MatrixCapExceeded)
    return ["--help"], SystemExit


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("exit_path", ["ok", "parse", "validation",
                                       "precondition", "unmapped", "help"])
def test_main_gives_the_collector_back(exit_path, enabled, monkeypatch,
                                       fixture_dir):
    argv, expected = exit_case(exit_path, monkeypatch, fixture_dir)
    seen = []
    for command in ("cmd_homology", "cmd_replace"):
        monkeypatch.setattr(cli, command, lambda args, real=getattr(
            cli, command): seen.append(gc.isenabled()) or real(args))
    (gc.enable if enabled else gc.disable)()
    try:
        if isinstance(expected, int):
            assert fuzz.run(argv)[0] == expected
        else:
            with pytest.raises(expected):
                fuzz.run(argv)
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
    # the command itself ran with the collector off; --help never got there
    assert seen == ([] if exit_path == "help" else [False])
