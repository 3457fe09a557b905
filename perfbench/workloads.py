"""Workloads of the fibcat benchmark: inputs, jobs and known answers.

A job is one `fibcat` command-line invocation (`fibcat.cli.main(argv)`) on
documents written by `write_inputs`.  The fixed families (intervals,
arrow categories, cyclic groups, the torus poset, hom bimodules) are built
here from their closed-form definitions, without calling fibcat.  The
collages used by `compose --mode corr` and `roundtrip` are produced
through fibcat, by `run.py` before the first pass and never in a job's
process; every input file is pinned by the SHA-256 digest of its bytes,
so a change to a builder cannot silently change a workload.

Each job carries a checker that compares the parsed report against an
answer known in closed form, and returns an error string or None.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Callable, NamedTuple

WORKLOADS = ("classify-arrows", "homology-nerves", "compose-bimodules",
             "suite")

SUITE_JOBS = 40


def dumps(doc):
    """Canonical document bytes, as fibcat's own emitter writes them."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# -- closed-form categories ---------------------------------------------------


def category_doc(objects, morphisms, identities, compose):
    """morphisms: (id, src, tgt) triples; compose: {(g, f): g∘f}."""
    return {
        "format_version": "1",
        "type": "category",
        "objects": sorted(objects),
        "morphisms": [{"id": m, "src": s, "tgt": t}
                      for m, s, t in sorted(morphisms)],
        "identities": {x: identities[x] for x in sorted(objects)},
        "compose": sorted([g, f, h] for (g, f), h in compose.items()),
    }


def poset_doc(elements, leq):
    """The category of a finite poset; the morphism a <= b is "a->b"."""
    morphisms = [(f"{a}->{b}", a, b)
                 for a in elements for b in elements if leq(a, b)]
    compose = {(f"{b}->{c}", f"{a}->{b}"): f"{a}->{c}"
               for _, a, b in morphisms for _, b2, c in morphisms if b == b2}
    return category_doc(elements, morphisms,
                        {a: f"{a}->{a}" for a in elements}, compose)


def interval_doc(n):
    """[n] = {0 < 1 < ... < n}."""
    return poset_doc([str(i) for i in range(n + 1)], lambda a, b: a <= b)


def cyclic_doc(n):
    """Z/n as a one-object groupoid; g_i∘g_j = g_{(i+j) mod n}."""
    gs = [f"g{i}" for i in range(n)]
    return category_doc(
        ["*"], [(g, "*", "*") for g in gs], {"*": "g0"},
        {(f"g{i}", f"g{j}"): f"g{(i + j) % n}"
         for i in range(n) for j in range(n)})


def arrow_ev_doc(n, end):
    """ev_s or ev_t: Ar([n]) -> [n].

    Ar([n]) is the poset of pairs i <= j ordered componentwise; the object
    (i, j) is "i_j" and evaluation takes it to i (end "s") or j (end "t").
    """
    pairs = [(i, j) for i in range(n + 1) for j in range(i, n + 1)]
    name = {p: f"{p[0]}_{p[1]}" for p in pairs}
    elements = [name[p] for p in pairs]
    ev = {name[p]: str(p[0] if end == "s" else p[1]) for p in pairs}
    order = {(name[p], name[q]) for p in pairs for q in pairs
             if p[0] <= q[0] and p[1] <= q[1]}
    source = poset_doc(elements, lambda a, b: (a, b) in order)
    return {
        "format_version": "1",
        "type": "functor",
        "source": source,
        "target": interval_doc(n),
        "object_map": {x: ev[x] for x in sorted(elements)},
        "morphism_map": {m["id"]: f"{ev[m['src']]}->{ev[m['tgt']]}"
                         for m in source["morphisms"]},
    }


def torus_doc():
    """The product of two copies of the 4-point circle poset
    {a0, a1 < b0, b1}; its nerve is a torus."""
    circle = ["a0", "a1", "b0", "b1"]

    def leq1(p, q):
        return p == q or (p[0] == "a" and q[0] == "b")

    elements = [p + q for p in circle for q in circle]
    return poset_doc(elements, lambda x, y: leq1(x[:2], y[:2])
                     and leq1(x[2:], y[2:]))


def relabel_doc(doc, prefix):
    """A copy of a category document with every id prefixed."""
    return category_doc(
        [prefix + x for x in doc["objects"]],
        [(prefix + m["id"], prefix + m["src"], prefix + m["tgt"])
         for m in doc["morphisms"]],
        {prefix + x: prefix + i for x, i in doc["identities"].items()},
        {(prefix + g, prefix + f): prefix + h for g, f, h in doc["compose"]})


def hom_doc(C, left=None, right=None):
    """The hom bimodule of the category document C, with the source copy
    prefixed by `left` or the target copy by `right`.

    Elements at (x, y) are the morphisms x -> y of C; alpha acts on the
    left by precomposition and beta on the right by postcomposition.
    """
    lp, rp = left or "", right or ""
    src = {m["id"]: m["src"] for m in C["morphisms"]}
    tgt = {m["id"]: m["tgt"] for m in C["morphisms"]}
    comp = {(g, f): h for g, f, h in C["compose"]}
    objects = C["objects"]
    hom = {(x, y): sorted(m for m in src if src[m] == x and tgt[m] == y)
           for x in objects for y in objects}
    elements = {lp + x: {rp + y: hom[(x, y)] for y in objects}
                for x in objects}
    left_action = {lp + alpha: {rp + y: {e: comp[(e, alpha)]
                                         for e in hom[(tgt[alpha], y)]}
                                for y in objects}
                   for alpha in src}
    right_action = {lp + x: {rp + beta: {e: comp[(beta, e)]
                                         for e in hom[(x, src[beta])]}
                             for beta in src}
                    for x in objects}
    return {
        "format_version": "1",
        "type": "profunctor",
        "source": relabel_doc(C, lp) if lp else C,
        "target": relabel_doc(C, rp) if rp else C,
        "elements": elements,
        "left_action": left_action,
        "right_action": right_action,
    }


def collage_doc(profunctor_doc):
    """The collage correspondence of a bimodule, built through fibcat."""
    from fibcat import correspondences, documents

    _, P = documents.parse_any(dumps(profunctor_doc))
    return documents.correspondence_to_doc(correspondences.collage(P))


# -- known answers ------------------------------------------------------------

# Ar([n]) -> [n] by either end is a cocartesian and cartesian fibration
# with non-discrete fibers, hence every derived verdict below.
ARROW_PROFILE = {
    "conservative": False, "discrete_opfib": False, "discrete_fib": False,
    "cocartesian": True, "cartesian": True,
    "locally_cocartesian": True, "locally_cartesian": True,
    "exponentiable": True, "left_final": True, "right_initial": True,
}

REPLACE_CHECKS = {
    "cocart": ("cocartesian", "unit_fully_faithful"),
    "cart": ("cartesian", "unit_fully_faithful"),
    "lfib": ("discrete_opfibration", "universal_property_spot_check"),
    "rfib": ("discrete_fibration",),
}

ROUNDTRIPS = ("bifib_corr_bifib", "bifib_prof_bifib", "corr_bifib_corr",
              "corr_prof_corr", "prof_bifib_prof", "prof_corr_prof")


def expect_verdicts(expected, certificate=None):
    def check(report):
        if report.get("verdicts") != expected:
            return f"verdicts {report.get('verdicts')} != {expected}"
        if report.get("certificate_degree") != certificate:
            return f"certificate_degree {report.get('certificate_degree')}"
        return None
    return check


def expect_homology(d, betti, torsion):
    expected = {"reduced_trivial": betti[0] == 1 and not any(betti[1:])
                and not any(torsion)}

    def check(report):
        if report.get("verdicts") != expected:
            return f"verdicts {report.get('verdicts')} != {expected}"
        if report.get("betti") != betti:
            return f"betti {report.get('betti')} != {betti}"
        if report.get("torsion") != torsion:
            return f"torsion {report.get('torsion')} != {torsion}"
        if report.get("certificate_degree") != d:
            return f"certificate_degree {report.get('certificate_degree')}"
        return None
    return check


def cyclic_homology(n, d):
    """H_k(BZ/n) is Z, then Z/n in odd degrees and 0 in even degrees."""
    return ([1] + [0] * d,
            [[n] if k % 2 else [] for k in range(d + 1)])


def expect_composite(C, mode):
    """Hom_C ∘ Hom_C ≅ Hom_C (the unit law), relabelled a./c. outside."""
    objects = C["objects"]
    nmor = len(C["morphisms"])
    hom_size = {(x, y): 0 for x in objects for y in objects}
    for m in C["morphisms"]:
        hom_size[(m["src"], m["tgt"])] += 1
    verdicts = expect_verdicts({"route_coherence_checked": True})

    def check(report):
        err = verdicts(report)
        if err:
            return err
        out = report.get("composite") or {}
        if mode == "corr":
            total = out.get("total") or {}
            got = len(total.get("morphisms", ()))
            if got != 3 * nmor:
                return f"composite total has {got} morphisms, not {3 * nmor}"
            want = sorted(["a." + x for x in objects]
                          + ["c." + x for x in objects])
            if total.get("objects") != want:
                return f"composite objects {total.get('objects')}"
            if out.get("fiber_s_objects") != sorted("a." + x for x in objects):
                return f"fiber_s_objects {out.get('fiber_s_objects')}"
            return None
        elements = out.get("elements") or {}
        got = {(a, c): len(xs) for a, row in elements.items()
               for c, xs in row.items()}
        want = {("a." + x, "c." + y): k for (x, y), k in hom_size.items()}
        if got != want:
            bad = sorted(k for k in set(got) | set(want)
                         if got.get(k) != want.get(k))
            return f"composite element counts differ at {bad[:3]}"
        return None
    return check


SUITE_ANSWER = {"all_passed": True, "cases": 20, "failures": 0}


# -- jobs ---------------------------------------------------------------------


class Job(NamedTuple):
    """One CLI invocation.  `argv` names input files by their key in the
    workload's files, which map key -> (builder, *args) of the document;
    `check(report)` returns a failure message or None."""
    name: str
    argv: list
    check: Callable


def _classify_arrows():
    files = {}
    jobs = []
    for n in range(4, 8):
        for end in ("s", "t"):
            key = f"ev_{end}_Ar{n}"
            files[key] = (arrow_ev_doc, n, end)
            jobs.append(Job(f"classify.{key}", ["classify", "--functor", key],
                            expect_verdicts(ARROW_PROFILE)))
    for n in range(4, 7):
        jobs.append(Job(f"classify-cert2.ev_t_Ar{n}",
                        ["classify", "--functor", f"ev_t_Ar{n}",
                         "--certify-dim", "2"],
                        expect_verdicts(ARROW_PROFILE, certificate=2)))
    for kind, keys in REPLACE_CHECKS.items():
        jobs.append(Job(f"replace.{kind}.ev_t_Ar4",
                        ["replace", "--kind", kind, "--functor", "ev_t_Ar4"],
                        expect_verdicts({k: True for k in keys})))
    files["ev_t_Ar3"] = (arrow_ev_doc, 3, "t")
    jobs.append(Job("final-cert2.ev_t_Ar3",
                    ["final", "--functor", "ev_t_Ar3", "--certify-dim", "2"],
                    expect_verdicts({"final": True}, certificate=2)))
    return files, jobs


def _arrow_category(n):
    return arrow_ev_doc(n, "t")["source"]


def _homology_nerves():
    files = {}
    jobs = []

    def add(key, builder, d, betti, torsion):
        files[key] = builder
        jobs.append(Job(f"homology.{key}.d{d}",
                        ["homology", key, "--max-dim", str(d)],
                        expect_homology(d, betti, torsion)))

    for n, d in ((4, 3), (5, 3), (6, 3), (3, 6), (2, 9)):
        add(f"Z{n}", (cyclic_doc, n), d, *cyclic_homology(n, d))
    add("Ar3", (_arrow_category, 3), 3, [1, 0, 0, 0], [[]] * 4)
    add("Ar4", (_arrow_category, 4), 2, [1, 0, 0], [[]] * 3)
    add("torus", (torus_doc,), 3, [1, 2, 1, 0], [[]] * 4)
    return files, jobs


def _compose_bimodules():
    files = {}
    jobs = []
    bases = [(f"I{n}", (interval_doc, n)) for n in (4, 5, 6)] + \
            [(f"Z{m}", (cyclic_doc, m)) for m in (4, 5)]
    for name, (fn, arg) in bases:
        C = fn(arg)
        left, right = hom_doc(C, left="a."), hom_doc(C, right="c.")
        files[f"hom_{name}_left"] = (lambda doc: doc, left)
        files[f"hom_{name}_right"] = (lambda doc: doc, right)
        files[f"collage_{name}_left"] = (collage_doc, left)
        files[f"collage_{name}_right"] = (collage_doc, right)
        for mode in ("prof", "corr", "bifib"):
            kind = "collage" if mode == "corr" else "hom"
            jobs.append(Job(f"compose.{mode}.{name}",
                            ["compose", "--mode", mode,
                             f"{kind}_{name}_left", f"{kind}_{name}_right"],
                            expect_composite(C, mode)))
    for name in ("I5", "Z5"):
        jobs.append(Job(f"roundtrip.collage_{name}",
                        ["roundtrip", f"collage_{name}_left"],
                        expect_verdicts({k: True for k in ROUNDTRIPS})))
    return files, jobs


# The per-job `suite --seed` values are fixed: drawn from the benchmark
# seed, they changed the suite's work by about 10% from one seed to the
# next, more than the spread the bounds of BENCHMARK.json allow.
SUITE_SEEDS = tuple(random.Random("perfbench:suite").sample(range(1_000_000),
                                                            SUITE_JOBS))


def _suite():
    jobs = [Job(f"suite.{s}",
                ["suite", "--seed", str(s), "--size", "4", "--jobs", "2"],
                expect_verdicts(SUITE_ANSWER))
            for s in SUITE_SEEDS]
    return {}, jobs


def build(workload, seed):
    """(files, jobs) of a workload; the seed fixes the job order."""
    if workload == "classify-arrows":
        files, jobs = _classify_arrows()
    elif workload == "homology-nerves":
        files, jobs = _homology_nerves()
    elif workload == "compose-bimodules":
        files, jobs = _compose_bimodules()
    elif workload == "suite":
        files, jobs = _suite()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"perfbench:order:{workload}:{seed}").shuffle(jobs)
    return files, jobs


# -- inputs on disk -----------------------------------------------------------


class PinMismatch(RuntimeError):
    pass


def digest(data):
    return hashlib.sha256(data).hexdigest()


def write_inputs(files, directory, pins):
    """Write every input document and check it against its pinned digest.

    Returns {key: path}.  Raises PinMismatch naming every file whose bytes
    differ from the pin, or that has no pin.
    """
    os.makedirs(directory, exist_ok=True)
    paths = input_paths(files, directory)
    bad = []
    for key, (builder, *args) in sorted(files.items()):
        data = dumps(builder(*args)).encode("utf-8")
        if pins.get(key) != digest(data):
            bad.append(f"{key}: {digest(data)}")
        with open(paths[key], "wb") as fh:
            fh.write(data)
    if bad:
        raise PinMismatch("input digests differ from their pins: "
                          + "; ".join(bad))
    return paths


def input_paths(files, directory):
    """{key: path} of the workload's input files under `directory`."""
    return {key: os.path.join(directory, f"{key}.json") for key in files}


def resolve_argv(argv, paths):
    return [paths.get(token, token) for token in argv]


def randgen_canary():
    """Bytes of a fixed sample of the generators `suite` draws from.

    `suite` builds its cases inside fibcat from per-job seeds, so its inputs
    cannot be pinned file by file; this sample pins the generators instead.
    """
    from fibcat import core, documents, randgen

    rng = random.Random("perfbench:canary")
    docs = [
        documents.category_to_doc(randgen.random_category(rng, 3, 7,
                                                          prefix="a.")),
        *(documents.profunctor_to_doc(P)
          for P in randgen.random_composable_profunctors(rng)),
        documents.functor_to_doc(randgen.random_functor_over_1(rng)),
        documents.functor_to_doc(
            randgen.random_functor_over(rng, core.interval(3))),
        documents.functor_to_doc(randgen.random_final_functor(rng)),
        documents.functor_to_doc(randgen.random_functor_over(
            rng, randgen.random_poset(rng, 3, prefix="k"))),
    ]
    return "".join(dumps(doc) for doc in docs).encode("utf-8")
