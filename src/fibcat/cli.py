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
import traceback

from . import core, correspondences as corrs, documents as docs
from . import fibrations, homology, randgen, transport

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_PRECONDITION = 4
EXIT_INTERNAL = 5


def _json_safe(value):
    # strings, and lists of them, are most of a report: they pass as they are
    if type(value) is str:
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if type(value) is list and all(type(v) is str for v in value):
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
    """A deterministic list of (name, thunk) pairs; each thunk returns
    (ok, artifacts) where artifacts maps filename -> document."""
    cases = []

    def triangle(i):
        def run():
            rng = random.Random(f"{seed}:triangle:{i}")
            A = randgen.random_category(rng, 3, 7, prefix="a.")
            B = randgen.random_category(rng, 3, 7, prefix="b.")
            P = randgen.random_profunctor(rng, A, B)
            art = {"profunctor.json": docs.profunctor_to_doc(P)}
            c = corrs.collage(P)
            X = corrs.profunctor_to_bifib(P)
            corrs.roundtrip_prof_corr(P)
            corrs.roundtrip_prof_bifib(P)
            corrs.roundtrip_corr_prof(c)
            corrs.roundtrip_corr_bifib(c)
            corrs.roundtrip_bifib_prof(X)
            corrs.roundtrip_bifib_corr(X)
            return True, art
        return run

    def routes(i):
        def run():
            rng = random.Random(f"{seed}:routes:{i}")
            P01, P12 = randgen.random_composable_profunctors(rng)
            art = {"p01.json": docs.profunctor_to_doc(P01),
                   "p12.json": docs.profunctor_to_doc(P12)}
            corrs.composition_routes(P01, P12)
            return True, art
        return run

    def profile(i):
        def run():
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
            art = {"functor.json": docs.functor_to_doc(pi)}
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
            ok = all(prof.verdicts[k] == dual.verdicts[swap[k]]
                     for k in prof.verdicts)
            return ok, art
        return run

    def finality(i):
        def run():
            rng = random.Random(f"{seed}:finality:{i}")
            f = randgen.random_final_functor(rng)
            art = {"functor.json": docs.functor_to_doc(f)}
            ok = homology.is_final(f).ok
            # compose with the component collapse, itself final; the
            # composite must come out final (two-out-of-three)
            to_point = core.constant_functor(f.target, core.terminal(), "*")
            g = transport.rfib_replacement(to_point).unit
            ok = ok and homology.is_final(g).ok
            ok = ok and homology.is_final(f.then(g)).ok
            return ok, art
        return run

    def replacement(i):
        def run():
            rng = random.Random(f"{seed}:replacement:{i}")
            K = randgen.random_poset(rng, 3, prefix="k")
            pi = randgen.random_functor_over(rng, K)
            art = {"functor.json": docs.functor_to_doc(pi)}
            # each replacement checks its projection (coCartesian, strict
            # discrete opfibration) and raises InternalInvariantError, a
            # failed case, when it is not
            transport.cocart_replacement(pi)
            transport.lfib_replacement(pi)
            return True, art
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
    innermost frame in this package, named relative to the package."""
    package = os.path.dirname(os.path.abspath(__file__))
    at = [f for f in traceback.extract_tb(exc.__traceback__)
          if os.path.dirname(os.path.abspath(f.filename)) == package][-1]
    return (f"{type(exc).__name__}: {exc} (at fibcat/"
            f"{os.path.basename(at.filename)}:{at.lineno} in {at.name})")


def cmd_suite(args):
    cases = _suite_cases(args.seed, args.size)
    results = [None] * len(cases)

    def run_cases(first, step):
        for i in range(first, len(cases), step):
            name, thunk = cases[i]
            try:
                ok, artifacts = thunk()
                results[i] = name, ok, None, artifacts
            except Exception as exc:  # property failure with context
                results[i] = name, False, _failure(exc), {}

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
    failures = [(n, err, art) for (n, ok, err, art) in results if not ok]
    if failures and args.artifacts:
        os.makedirs(args.artifacts, exist_ok=True)
        for name, err, art in failures:
            for fname, doc in art.items():
                path = os.path.join(args.artifacts, f"{name}__{fname}")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(docs.dumps(doc))
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


class _Fallback(Exception):
    """Raised where argparse would print or exit."""


class _QuietParser(argparse.ArgumentParser):
    """A parser that raises _Fallback instead of printing or exiting, so
    that the full parser can produce the exact output instead."""

    def _print_message(self, message, file=None):
        raise _Fallback

    def exit(self, status=0, message=None):
        raise _Fallback


class _Skipped:
    """Stands in for a subcommand parser that a parse does not need."""

    def add_argument(self, *args, **kwargs):
        pass

    set_defaults = add_argument


def build_parser(_only=None):
    """The CLI's argument parser.  With _only, a quiet parser that has
    only the subcommand named _only (see _parse_args)."""
    parser = (argparse.ArgumentParser if _only is None else _QuietParser)(
        prog="fibcat",
        description="Exact workbench for finite categories: fibration "
                    "classifiers, the correspondence calculus, and "
                    "homology certificates.")
    parser.add_argument("--timings", action="store_true",
                        help="include wall-clock timing in reports "
                             "(breaks byte determinism)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        if _only is None or name == _only:
            return subparsers.add_parser(name, **kwargs)
        return _Skipped()

    p = add_parser("classify", help="full fibration profile of a functor")
    p.add_argument("--functor", required=True)
    p.add_argument("--certify-dim", type=int, default=None)
    p.set_defaults(func=cmd_classify)

    for kind in ("final", "initial"):
        p = add_parser(kind, help=f"{kind}ity of a functor")
        p.add_argument("--functor", required=True)
        p.add_argument("--certify-dim", type=int, default=None)
        p.set_defaults(func=cmd_final if kind == "final" else cmd_initial)

    p = add_parser("compose", help="compose two correspondences")
    p.add_argument("--mode", choices=["corr", "prof", "bifib"], required=True)
    p.add_argument("inputs", nargs=2)
    p.set_defaults(func=cmd_compose)

    p = add_parser("roundtrip",
                   help="triangle of presentations of a correspondence")
    p.add_argument("correspondence")
    p.set_defaults(func=cmd_roundtrip)

    p = add_parser("replace", help="fibration replacements")
    p.add_argument("--kind", choices=["cocart", "cart", "lfib", "rfib"],
                   required=True)
    p.add_argument("--functor", required=True)
    p.set_defaults(func=cmd_replace)

    p = add_parser("pushforward",
                   help="push a category over the total down to the base")
    p.add_argument("--fibration", required=True)
    p.add_argument("--over", required=True)
    p.set_defaults(func=cmd_pushforward)

    p = add_parser("homology", help="truncated nerve homology")
    p.add_argument("category")
    p.add_argument("--max-dim", type=int, default=2)
    p.set_defaults(func=cmd_homology)

    p = add_parser("suite", help="randomized property suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=3)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--artifacts", default=None,
                   help="directory for failure artifacts")
    p.set_defaults(func=cmd_suite)

    return parser


def _parse_args(argv):
    """Parse argv with a parser that has only the invoked subcommand.

    Whatever that parser accepts, the full one parses to the same
    namespace: its one choice of subcommand sits where the full parser
    reads the subcommand, and is defined by the same lines.  Whenever
    argparse would print or exit (help, usage, any error), argv is parsed
    again by the full parser, so all such output is its own.
    """
    name = next((token for token in argv if not token.startswith("-")), None)
    if name is not None:
        try:
            return build_parser(_only=name).parse_args(argv)
        except _Fallback:
            pass
    return build_parser().parse_args(argv)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parse_args(argv)
    # the echo records the logical command; thread count is an execution
    # detail and must not break report determinism
    echo = []
    skip = False
    for token in argv:
        if skip:
            skip = False
            continue
        if token == "--jobs":
            skip = True
            continue
        if token.startswith("--jobs="):
            continue
        echo.append(token)
    args._echo = echo
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
