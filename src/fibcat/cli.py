"""Command-line surface.

Subcommands wrap the checkers and constructions and emit canonical JSON
reports on stdout.  Reports are byte-deterministic for identical inputs
and flags; timing is only included under --timings, which deliberately
opts out of determinism.

Exit status: 0 success (verdicts, even negative ones, are data), 2 parse
error, 3 validation error, 4 precondition refusal (an enumeration over
its cap included), 5 violated internal invariant.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import threading
import time

from . import core, correspondences as corrs, documents as docs
from . import fibrations, homology, randgen, transport

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_PRECONDITION = 4
EXIT_INTERNAL = 5


_PLAIN = (str, int)


def _json_safe(value):
    # strings, and lists of strings or ints (homology rows), are most of a
    # report: they pass as they are
    if type(value) is str:
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if type(value) is list and all(type(v) in _PLAIN for v in value):
        return value
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_json_safe(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return items
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _report(args, verdicts, witnesses=None, extra=None, certificate=None,
            documents=None):
    """Write the report.  verdicts, witnesses and extra are made JSON-safe;
    documents maps report keys to subtrees built by documents.*_to_doc,
    which are JSON already and are passed through as they are."""
    doc = {
        "format_version": docs.FORMAT_VERSION,
        "command": list(args._echo),
        "verdicts": _json_safe(verdicts),
        "witnesses": _json_safe(witnesses or {}),
        "certificate_degree": certificate,
        "timing_s": round(time.perf_counter() - args._t0, 6)
        if args.timings else None,
    }
    if extra:
        doc.update(_json_safe(extra))
    if documents:
        doc.update(documents)
    sys.stdout.write(docs.dumps(doc))


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise docs.DocumentError(f"cannot read {path}: {exc}") from exc


def _load(path, kind):
    text = _read(path)
    got, value = docs.parse_any(text)
    if got != kind:
        raise docs.DocumentError(f"{path}: expected a {kind} document, got {got}")
    return value


# -- subcommands -----------------------------------------------------------


def cmd_classify(args):
    pi = _load(args.functor, "functor")
    profile = fibrations.classify(pi, certify_dim=args.certify_dim)
    _report(args, profile.verdicts, profile.witnesses,
            certificate=args.certify_dim)
    return 0


def cmd_final(args, kind="final"):
    pi = _load(args.functor, "functor")
    verdict = (homology.is_final if kind == "final" else homology.is_initial)(
        pi, certify_dim=args.certify_dim)
    _report(args, {kind: verdict.ok},
            {"failing_object": verdict.witness},
            extra={"per_object": verdict.per_object},
            certificate=args.certify_dim)
    return 0


def cmd_initial(args):
    return cmd_final(args, kind="initial")


def _relabel_for_check(P01, P12):
    ren_a = ({a: f"chk0.{a}" for a in P01.source.objects},
             {m: f"chk0.{m}" for m in P01.source.morphisms})
    ren_c = ({c: f"chk2.{c}" for c in P12.target.objects},
             {m: f"chk2.{m}" for m in P12.target.morphisms})
    return (corrs.relabel_profunctor(P01, source=ren_a),
            corrs.relabel_profunctor(P12, target=ren_c))


def _checked_routes(P01, P12, pair=None):
    """Run the three composition routes and check their canonical isos;
    the glued route composes pair when it is given (see
    composition_routes).

    Returns the routes when they ran on P01, P12 as given.  When outer
    ids had to be relabeled first, their composites carry the relabeled
    ids, so only the pair's glued composite is returned, or None when
    there is no pair."""
    try:
        return corrs.composition_routes(P01, P12, pair)
    except core.PreconditionError:
        # a refusal to glue the pair itself is the command's refusal
        routes = (None if pair is None
                  else {"composite_corr": corrs.compose_corr(*pair)[0]})
        Q01, Q12 = _relabel_for_check(P01, P12)
        corrs.composition_routes(Q01, Q12)
        return routes


def cmd_compose(args):
    if args.mode == "corr":
        c01 = _load(args.inputs[0], "correspondence")
        c12 = _load(args.inputs[1], "correspondence")
        if c12.fiber_s != c01.fiber_t:
            raise core.PreconditionError(
                "middle fibers differ; relabel so they agree on the nose")
        routes = _checked_routes(c01.bimodule(), c12.bimodule(), (c01, c12))
        out = docs.correspondence_to_doc(routes["composite_corr"])
    else:
        P01 = _load(args.inputs[0], "profunctor")
        P12 = _load(args.inputs[1], "profunctor")
        if P01.target != P12.source:
            raise core.PreconditionError(
                "middle categories differ; relabel so they agree on the nose")
        routes = _checked_routes(P01, P12)
        if args.mode == "prof":
            composite = (routes["coend"] if routes
                         else corrs.compose_prof(P01, P12)[0])
        elif routes:  # bifib
            composite = routes["via_bifib"]
        else:
            X, _ = corrs.compose_bifib(corrs.profunctor_to_bifib(P01),
                                       corrs.profunctor_to_bifib(P12))
            composite = corrs.bifib_to_profunctor(X)
        out = docs.profunctor_to_doc(composite)
    _report(args, {"route_coherence_checked": True},
            documents={"composite": out})
    return 0


def cmd_roundtrip(args):
    c = _load(args.correspondence, "correspondence")
    P = corrs.corr_to_profunctor(c)
    X = corrs.corr_to_bifib(c)
    results = {}
    for name, fn, arg in [
        ("prof_corr_prof", corrs.roundtrip_prof_corr, P),
        ("prof_bifib_prof", corrs.roundtrip_prof_bifib, P),
        ("corr_prof_corr", corrs.roundtrip_corr_prof, c),
        ("corr_bifib_corr", corrs.roundtrip_corr_bifib, c),
        ("bifib_prof_bifib", corrs.roundtrip_bifib_prof, X),
        ("bifib_corr_bifib", corrs.roundtrip_bifib_corr, X),
    ]:
        fn(arg)
        results[name] = True
    _report(args, results)
    return 0


def cmd_replace(args):
    pi = _load(args.functor, "functor")
    if args.kind == "cocart":
        # cocart_replacement has checked both and raises
        # InternalInvariantError (exit 5) when either fails
        rep = transport.cocart_replacement(pi)
        check = {"cocartesian": True, "unit_fully_faithful": True}
        out = docs.functor_to_doc(rep.projection)
    elif args.kind == "cart":
        # cart_replacement has checked both and raises
        # InternalInvariantError (exit 5) when either fails
        rep = transport.cart_replacement(pi)
        check = {"cartesian": True, "unit_fully_faithful": True}
        out = docs.functor_to_doc(rep.projection)
    elif args.kind == "lfib":
        # unstraighten has checked that the projection is a strict
        # discrete opfibration (exit 5 when it is not)
        rep = transport.lfib_replacement(pi)
        check = {"discrete_opfibration": True,
                 "universal_property_spot_check":
                 _lfib_spot_check(pi, rep)}
        out = docs.set_valued_to_doc(rep.straightened)
    else:
        # the opposite of a checked discrete opfibration
        rep = transport.rfib_replacement(pi)
        check = {"discrete_fibration": True}
        out = docs.set_valued_to_doc(rep.straightened)
    _report(args, check, documents={"replacement": out})
    return 0


def _lfib_spot_check(pi, rep):
    # restriction along the unit is a bijection against one discrete
    # target: the replacement itself
    Z = rep.projection
    before = core.functors_over(rep.projection, Z)
    after = core.functors_over(pi, Z)
    restricted = {core.functor_object_id(rep.unit.then(F)) for F in before}
    return (len(restricted) == len(before)
            and restricted == {core.functor_object_id(F) for F in after})


def cmd_pushforward(args):
    pi = _load(args.fibration, "functor")
    zeta = _load(args.over, "functor")
    if zeta.target != pi.source:
        raise core.PreconditionError(
            "the --over functor must land in the fibration's total category")
    push = transport.pushforward_exponentiable(pi, zeta)
    spot = transport.pushforward_adjunction_check(
        pi, zeta, core.identity_functor(pi.target))
    _report(args, {"adjunction_spot_check": spot["bijective"]},
            extra={"sections": spot},
            documents={"pushforward": docs.functor_to_doc(push.projection)})
    return 0


def cmd_homology(args):
    C = _load(args.category, "category")
    rep = homology.homology(C, args.max_dim)
    _report(args, {"reduced_trivial": rep.reduced_trivial_up_to(args.max_dim)},
            extra={"betti": rep.betti, "torsion": rep.torsion,
                   "simplex_counts": rep.simplex_counts},
            certificate=args.max_dim)
    return 0


# -- the randomized property suite -------------------------------------------


def _suite_cases(seed, size):
    """A deterministic list of (name, thunk) pairs.  A thunk takes an
    empty dict, puts each input it draws there under the file name of its
    failure artifact (a Functor or a Profunctor) as soon as it has it,
    and returns whether the case holds; its documents are built only if
    the case fails or raises."""
    cases = []

    def triangle(i):
        def run(inputs):
            rng = random.Random(f"{seed}:triangle:{i}")
            A = randgen.random_category(rng, 3, 7, prefix="a.")
            B = randgen.random_category(rng, 3, 7, prefix="b.")
            P = inputs["profunctor.json"] = randgen.random_profunctor(
                rng, A, B)
            c = corrs.collage(P)
            X = corrs.profunctor_to_bifib(P)
            corrs.roundtrip_prof_corr(P)
            corrs.roundtrip_prof_bifib(P)
            corrs.roundtrip_corr_prof(c)
            corrs.roundtrip_corr_bifib(c)
            corrs.roundtrip_bifib_prof(X)
            corrs.roundtrip_bifib_corr(X)
            return True
        return run

    def routes(i):
        def run(inputs):
            rng = random.Random(f"{seed}:routes:{i}")
            P01, P12 = randgen.random_composable_profunctors(rng)
            inputs["p01.json"], inputs["p12.json"] = P01, P12
            corrs.composition_routes(P01, P12)
            return True
        return run

    def profile(i):
        def run(inputs):
            rng = random.Random(f"{seed}:profile:{i}")
            n = rng.choice([1, 2, 3])
            if n == 1:
                pi = randgen.random_functor_over_1(rng)
            elif n == 2:
                pi = randgen.random_functor_over_2(rng, max_objects=2,
                                                   max_morphisms=4,
                                                   max_generators=1)
            else:
                pi = randgen.random_functor_over(rng, core.interval(3))
            inputs["functor.json"] = pi
            prof = fibrations.classify(pi)
            dual = fibrations.classify(core.opposite_functor(pi))
            swap = {
                "conservative": "conservative",
                "discrete_opfib": "discrete_fib",
                "discrete_fib": "discrete_opfib",
                "cocartesian": "cartesian", "cartesian": "cocartesian",
                "locally_cocartesian": "locally_cartesian",
                "locally_cartesian": "locally_cocartesian",
                "exponentiable": "exponentiable",
                "left_final": "right_initial",
                "right_initial": "left_final",
            }
            return all(prof.verdicts[k] == dual.verdicts[swap[k]]
                       for k in prof.verdicts)
        return run

    def finality(i):
        def run(inputs):
            rng = random.Random(f"{seed}:finality:{i}")
            f = inputs["functor.json"] = randgen.random_final_functor(rng)
            ok = homology.is_final(f).ok
            # compose with the component collapse, itself final; the
            # composite must come out final (two-out-of-three)
            to_point = core.constant_functor(f.target, core.terminal(), "*")
            g = transport.rfib_replacement(to_point).unit
            ok = ok and homology.is_final(g).ok
            return ok and homology.is_final(f.then(g)).ok
        return run

    def replacement(i):
        def run(inputs):
            rng = random.Random(f"{seed}:replacement:{i}")
            K = randgen.random_poset(rng, 3, prefix="k")
            pi = inputs["functor.json"] = randgen.random_functor_over(rng, K)
            # each replacement checks its projection (coCartesian, strict
            # discrete opfibration) and raises InternalInvariantError, a
            # failed case, when it is not
            transport.cocart_replacement(pi)
            transport.lfib_replacement(pi)
            return True
        return run

    for i in range(size):
        cases.append((f"triangle_{i}", triangle(i)))
        cases.append((f"routes_{i}", routes(i)))
        cases.append((f"profile_{i}", profile(i)))
        cases.append((f"finality_{i}", finality(i)))
        cases.append((f"replacement_{i}", replacement(i)))
    return cases


def _failure(exc):
    """Type: message (at fibcat/module.py:line in function), at the
    innermost frame in this package, named relative to the package.
    traceback is imported here, once a case has failed: no passing run
    needs it."""
    import traceback
    package = os.path.dirname(os.path.abspath(__file__))
    at = [f for f in traceback.extract_tb(exc.__traceback__)
          if os.path.dirname(os.path.abspath(f.filename)) == package][-1]
    return (f"{type(exc).__name__}: {exc} (at fibcat/"
            f"{os.path.basename(at.filename)}:{at.lineno} in {at.name})")


_INPUT_DOCS = {core.Functor: docs.functor_to_doc,
               corrs.Profunctor: docs.profunctor_to_doc}


def cmd_suite(args):
    cases = _suite_cases(args.seed, args.size)
    results = [None] * len(cases)

    def run_cases(first, step):
        for i in range(first, len(cases), step):
            name, thunk = cases[i]
            inputs = {}
            try:
                ok, err = thunk(inputs), None
            except Exception as exc:  # property failure with context
                ok, err = False, _failure(exc)
            results[i] = name, ok, err, None if ok else inputs

    # plain threads: concurrent.futures would import logging and queue on
    # every such run, and under the GIL no pool runs the cases faster
    step = min(args.jobs, len(cases))
    if step > 1:
        threads = [threading.Thread(target=run_cases, args=(k, step))
                   for k in range(step)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    else:
        run_cases(0, 1)
    failures = [(n, err, inputs) for (n, ok, err, inputs) in results
                if not ok]
    if failures and args.artifacts:
        os.makedirs(args.artifacts, exist_ok=True)
        for name, err, inputs in failures:
            for fname, value in inputs.items():
                path = os.path.join(args.artifacts, f"{name}__{fname}")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(docs.dumps(_INPUT_DOCS[type(value)](value)))
    _report(args, {
        "cases": len(results),
        "failures": len(failures),
        "all_passed": not failures,
    }, extra={"results": [{"name": n, "ok": ok, "error": err}
                          for (n, ok, err, _) in results]})
    return 0


# -- entry point ----------------------------------------------------------------


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _subcommands():
    """The command table: name -> (help, positionals, options, command).

    Positionals are (dest, nargs) pairs, in order; options map each flag
    to its add_argument keywords.  build_parser builds argparse from this
    table and _parse_plain parses by it, so the grammar is written once.
    The table is built on each call, so that every cmd_* is read from the
    module when a command line is parsed: a tracer that rebinds them sees
    its own functions called."""
    functor = {"--functor": {"required": True},
               "--certify-dim": {"type": int}}
    return {
        "classify": ("full fibration profile of a functor", (), functor,
                     cmd_classify),
        "final": ("finality of a functor", (), functor, cmd_final),
        "initial": ("initiality of a functor", (), functor, cmd_initial),
        "compose": ("compose two correspondences", (("inputs", 2),),
                    {"--mode": {"choices": ("corr", "prof", "bifib"),
                                "required": True}},
                    cmd_compose),
        "roundtrip": ("triangle of presentations of a correspondence",
                      (("correspondence", None),), {}, cmd_roundtrip),
        "replace": ("fibration replacements", (),
                    {"--kind": {"choices": ("cocart", "cart", "lfib", "rfib"),
                                "required": True},
                     "--functor": {"required": True}},
                    cmd_replace),
        "pushforward": ("push a category over the total down to the base",
                        (), {"--fibration": {"required": True},
                             "--over": {"required": True}},
                        cmd_pushforward),
        "homology": ("truncated nerve homology", (("category", None),),
                     {"--max-dim": {"type": int, "default": 2}},
                     cmd_homology),
        "suite": ("randomized property suite", (),
                  {"--seed": {"type": int, "default": 0},
                   "--size": {"type": _positive_int, "default": 3},
                   "--jobs": {"type": _positive_int, "default": 1},
                   "--artifacts": {
                       "help": "directory for failure artifacts"}},
                  cmd_suite),
    }


def build_parser():
    """The CLI's argument parser, built from the command table."""
    parser = argparse.ArgumentParser(
        prog="fibcat",
        description="Exact workbench for finite categories: fibration "
                    "classifiers, the correspondence calculus, and "
                    "homology certificates.")
    parser.add_argument("--timings", action="store_true",
                        help="include wall-clock timing in reports "
                             "(breaks byte determinism)")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (summary, positionals, options, command) in \
            _subcommands().items():
        p = subparsers.add_parser(name, help=summary)
        # options first: argparse names missing required arguments in the
        # order they were added
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
        for dest, nargs in positionals:
            p.add_argument(dest, nargs=nargs)
        p.set_defaults(func=command)
    return parser


def _parse_plain(argv):
    """argv's namespace by the command table, or None when argv leaves the
    plain grammar: an optional leading --timings, the subcommand, each
    option at most once as its exact flag followed by a value that does
    not start with -, and the positionals as one block.

    On this grammar argparse reads each token the same way, so the
    namespace is the one build_parser would give; where a value fails its
    type or choices, or an argument is missing or extra, None leaves the
    message to argparse."""
    timings = argv[:1] == ["--timings"]
    table = _subcommands()
    if len(argv) <= timings or argv[timings] not in table:
        return None
    name = argv[timings]
    _, positionals, options, command = table[name]
    tokens = argv[timings + 1:]
    given, words, end = {}, [], None
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if token.startswith("-"):
            if (token not in options or token in given or i + 1 == len(tokens)
                    or tokens[i + 1].startswith("-")):
                return None
            given[token] = tokens[i + 1]
            i += 2
        elif words and end != i:
            return None  # positionals split by an option
        else:
            words.append(token)
            i += 1
            end = i
    if len(words) != sum(nargs or 1 for _, nargs in positionals):
        return None
    values = {"timings": timings, "command": name, "func": command}
    at = 0
    for dest, nargs in positionals:
        values[dest] = words[at] if nargs is None else words[at:at + nargs]
        at += nargs or 1
    for flag, keywords in options.items():
        dest = flag[2:].replace("-", "_")
        if flag not in given:
            if keywords.get("required"):
                return None
            values[dest] = keywords.get("default")
            continue
        convert = keywords.get("type")
        try:
            value = given[flag] if convert is None else convert(given[flag])
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        values[dest] = value
    return argparse.Namespace(**values)


def _parse_args(argv):
    """Parse argv by the command table; argparse parses only what leaves
    the plain grammar (abbreviations, = spellings, repeats, help, --, and
    every error), so that all such output is its own."""
    args = _parse_plain(argv)
    return build_parser().parse_args(argv) if args is None else args


def _echo(argv, command):
    """argv as the parse read it, for the report: each option spelled in
    full with its value as a token of its own, and --jobs left out, since
    the thread count is an execution detail and must not break report
    determinism.  Only for an argv that parsed."""
    flags = [*_subcommands()[command][2], "--help"]
    echo = []
    tokens = iter(argv)
    for token in tokens:
        if token == command:
            break
        echo.append("--timings")  # the one option before the subcommand
    echo.append(command)
    for token in tokens:
        if token == "--":  # everything after it is a positional
            echo.append(token)
            echo.extend(tokens)
            break
        flag, eq, value = token.partition("=")
        # argparse reads a token as an option when it is a flag, or the
        # prefix of exactly one flag, before any =
        matches = ([flag] if flag in flags
                   else [f for f in flags if f.startswith(flag)]
                   if flag.startswith("--") else [])
        if len(matches) != 1:
            echo.append(token)
            continue
        if not eq:
            value = next(tokens)
        if matches[0] != "--jobs":
            echo += [matches[0], value]
    return echo


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parse_args(argv)
    args._echo = _echo(argv, args.command)
    args._t0 = time.perf_counter()
    try:
        return args.func(args)
    except docs.DocumentError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except docs.ValidationFailure as exc:
        sys.stderr.write("validation error:\n")
        for line in exc.report[:20]:
            sys.stderr.write(f"  {line}\n")
        return EXIT_VALIDATION
    except (core.CategoryError, core.FunctorError) as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_VALIDATION
    except core.PreconditionError as exc:
        sys.stderr.write(f"precondition failed: {exc}\n")
        if exc.witness is not None:
            sys.stderr.write(f"  witness: {_json_safe(exc.witness)}\n")
        return EXIT_PRECONDITION
    except core.EnumerationCapExceeded as exc:
        sys.stderr.write(f"enumeration refused: {exc}; FIBCAT_ENUM_CAP "
                         "sets the cap\n")
        return EXIT_PRECONDITION
    except fibrations.InternalInvariantError as exc:
        sys.stderr.write(f"internal invariant violated: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
