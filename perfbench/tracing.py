"""Outside-in tracing of fibcat's layers.

`Tracer.install` wraps the public functions of each fibcat module, plus
`FiniteCategory.__init__` and `Functor._validate`, from outside the
package: every module-level name bound to a wrapped function is rebound,
and `uninstall` restores the originals.  A wrapper records one span
(name, start, end, parent, job, thread) and the work counters of its
call; spans stay in memory until `write_spans`.

Self time is a span's duration minus the part of it that its child spans
cover.  Spans opened on a thread with no open span (the `suite --jobs`
pool) take the current job as their parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import statistics
import threading
import time

LAYERS = ("cli", "documents", "core", "fibrations", "homology",
          "correspondences", "transport", "randgen")

# Id formatters called once per element of every construction: a span
# around each would cost more than the work it measures.
UNTRACED = {"core.pair_id", "core.tri_id", "core.comma_object_id",
            "correspondences.collage_cross_id",
            "correspondences.elt_object_id"}

METHODS = (("core", "FiniteCategory", "__init__", "core.FiniteCategory"),
           ("core", "Functor", "_validate", "core.Functor.validate"))


def _composable_triples(morphisms):
    into, out = {}, {}
    for _, s, t in morphisms:
        out[s] = out.get(s, 0) + 1
        into[t] = into.get(t, 0) + 1
    return sum(into.get(s, 0) * out.get(t, 0) for _, s, t in morphisms)


def _snf_counts(args, result):
    M = args[0]
    cols = len(M[0]) if M else 0
    return {"entries": len(M) * cols,
            "nnz": sum(len(row) - row.count(0) for row in M),
            "rank": len(result)}


def _coend_counts(args, uf):
    return {"elements": len(uf.parent),
            "classes": sum(1 for x, p in uf.parent.items() if x == p)}


# name -> counts(args, result): work done by one call, read from its
# arguments and result without changing either
COUNTERS = {
    "core.validate_category":
        lambda a, r: {"triples": _composable_triples(a[1])},
    "core.pullback": lambda a, r: {
        "pairs_tried": len(a[0].source.morphisms) * len(a[1].source.morphisms),
        "pairs_kept": len(r.total.morphisms)},
    "core.comma_with_data": lambda a, r: {"objects": len(r[0].objects)},
    "fibrations.factorization_category":
        lambda a, r: {"objects": len(r.objects)},
    "homology.nerve": lambda a, r: {"simplices": sum(r.counts())},
    "homology.smith_normal_form": _snf_counts,
    "correspondences.coend_pairs": _coend_counts,
    "documents.parse_any": lambda a, r: {"bytes": len(a[0].encode())},
    "documents.dumps": lambda a, r: {"bytes": len(r.encode())},
}

CHECKERS = ("is_conservative", "is_left_fibration", "is_right_fibration",
            "is_cocartesian_fibration", "is_cartesian_fibration",
            "is_locally_cocartesian", "is_locally_cartesian",
            "is_exponentiable", "is_left_final_fibration",
            "is_right_initial_fibration")

# (metric, unit, span name, measure); measure is calls, self_s, total_s
# or a counter name.  A module name alone sums the module's spans.
PER_LAYER = (
    [(f"homology.smith_normal_form.{m}", u, "homology.smith_normal_form", m)
     for m, u in (("calls", "count"), ("self_s", "s"), ("entries", "count"),
                  ("nnz", "count"), ("rank", "count"))]
    + [(f"homology.nerve.{m}", u, "homology.nerve", m)
       for m, u in (("calls", "count"), ("self_s", "s"),
                    ("simplices", "count"))]
    + [(f"core.validate_category.{m}", u, "core.validate_category", m)
       for m, u in (("calls", "count"), ("self_s", "s"),
                    ("triples", "count"))]
    + [("core.FiniteCategory.calls", "count", "core.FiniteCategory", "calls"),
       ("core.FiniteCategory.self_s", "s", "core.FiniteCategory", "self_s"),
       ("core.Functor.validate_s", "s", "core.Functor.validate", "self_s")]
    + [(f"core.pullback.{m}", u, "core.pullback", m)
       for m, u in (("calls", "count"), ("self_s", "s"),
                    ("pairs_tried", "count"), ("pairs_kept", "count"))]
    + [(f"core.comma_with_data.{m}", u, "core.comma_with_data", m)
       for m, u in (("calls", "count"), ("self_s", "s"),
                    ("objects", "count"))]
    + [(f"fibrations.factorization_category.{m}", u,
        "fibrations.factorization_category", m)
       for m, u in (("calls", "count"), ("self_s", "s"),
                    ("objects", "count"))]
    + [("fibrations.is_exponentiable.calls", "count",
        "fibrations.is_exponentiable", "calls")]
    + [(f"fibrations.{c}.total_s", "s", f"fibrations.{c}", "total_s")
       for c in CHECKERS]
    + [(f"correspondences.coend_pairs.{m}", u, "correspondences.coend_pairs",
        m)
       for m, u in (("calls", "count"), ("self_s", "s"),
                    ("elements", "count"), ("classes", "count"))]
    + [(f"correspondences.{f}.self_s", "s", f"correspondences.{f}", "self_s")
       for f in ("compose_prof", "compose_bifib", "glue_over_triangle",
                 "profunctor_to_bifib", "collage")]
    + [(f"transport.{k}_replacement.total_s", "s",
        f"transport.{k}_replacement", "total_s")
       for k in ("cocart", "cart", "lfib", "rfib")]
    + [("documents.parse_any.self_s", "s", "documents.parse_any", "self_s"),
       ("documents.parse_any.total_s", "s", "documents.parse_any", "total_s"),
       ("documents.parse_any.bytes", "count", "documents.parse_any", "bytes"),
       ("documents.dumps.self_s", "s", "documents.dumps", "self_s"),
       ("documents.dumps.bytes", "count", "documents.dumps", "bytes")]
    # cmd_suite waits on the --jobs pool, whose spans hang off the job
    + [("cli.cmd_suite.self_s", "s", "cli.cmd_suite", "self_s")]
    + [(f"{layer}.self_s", "s", layer, "self_s") for layer in LAYERS]
)


SPAN_FIELDS = ("id", "name", "start", "end", "parent", "job", "thread",
               "counts")


class Tracer:
    """Spans and counters of one process; install once, read at the end."""

    def __init__(self):
        self.spans = []  # tuples of SPAN_FIELDS
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._job = None      # (job name, span id) while a job runs
        self._job_start = None
        self._restore = []    # (namespace, attribute, original)

    # -- recording ----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        spans = self.spans
        ids = self._ids
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            job = tracer._job
            parent = stack[-1] if stack else (job[1] if job else None)
            sid = next(ids)
            stack.append(sid)
            start = clock()
            counts = None
            try:
                result = fn(*args, **kwargs)
                if counter:
                    counts = counter(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent,
                              job[0] if job else None,
                              threading.get_ident(), counts))

        return traced

    def begin_job(self, name):
        sid = next(self._ids)
        self._job = (name, sid)
        self._job_start = time.perf_counter()

    def end_job(self):
        name, sid = self._job
        self.spans.append((sid, "job", self._job_start, time.perf_counter(),
                           None, name, threading.get_ident(), None))
        self._job = None

    # -- installing -----------------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"fibcat.{layer}")
                   for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or f"{layer}.{attr}" in UNTRACED):
                    continue
                wrapped[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(mod, attr, wrapped[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in wrapped:
                            self._restore.append((value, key, item))
                            value[key] = wrapped[item]
        for layer, cls, attr, name in METHODS:
            owner = getattr(modules[layer], cls)
            self._set(owner, attr, self._wrap(name, getattr(owner, attr)))

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore = []

    # -- reading --------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(SPAN_FIELDS) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_totals(self):
        """{span name: {calls, self_s, total_s, <counter>...}} over all
        spans recorded so far, plus one entry per layer with its self_s."""
        children = {}
        links = {}  # span id -> (name, parent id)
        for sid, name, start, end, parent, *_ in self.spans:
            links[sid] = (name, parent)
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        totals = {}
        for sid, name, start, end, parent, _job, _thread, counts in \
                self.spans:
            if name == "job":
                continue
            covered = _covered(start, end, children.get(sid, ()))
            entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0,
                                             "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - covered
            if not _nested_in_same(sid, links):
                entry["total_s"] += end - start
            for key, value in (counts or {}).items():
                entry[key] = entry.get(key, 0) + value
            layer = totals.setdefault(name.split(".")[0], {"self_s": 0.0})
            layer["self_s"] += (end - start) - covered
        return totals


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cursor = start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def _nested_in_same(sid, links):
    """Whether an enclosing span has the same name as this one."""
    name, parent = links[sid]
    while parent is not None:
        parent_name, parent = links.get(parent, (None, None))
        if parent_name == name:
            return True
    return False


def scaled_sum(totals_and_scales):
    """Sum of `layer_totals` results, each with its times (self_s,
    total_s) multiplied by its factor; counts are summed as they are."""
    out = {}
    for totals, scale in totals_and_scales:
        for name, entry in totals.items():
            acc = out.setdefault(name, {})
            for key, value in entry.items():
                if key in ("self_s", "total_s"):
                    value *= scale
                acc[key] = acc.get(key, 0) + value
    return out


def per_layer_metrics(totals_per_pass):
    """Median over traced passes of every PER_LAYER metric; 0 where a
    workload never enters the function."""
    out = {}
    for metric, unit, span, measure in PER_LAYER:
        values = [totals.get(span, {}).get(measure, 0)
                  for totals in totals_per_pass]
        out[metric] = {"value": statistics.median(values), "unit": unit}
    return out
