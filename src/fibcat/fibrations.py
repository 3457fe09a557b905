"""Decision procedures for fibration classes of a functor pi: E -> K.

Each checker is exact at the 1-truncated level.  Wherever a notion demands
a contractible classifying space, the decidable core is "nonempty and
connected" (the classical Giraud-Conduché reading), with an opt-in
homology certificate up to a chosen degree.  Negative verdicts carry a
minimal witness found by lexicographic search.

Exponentiability, local (co)Cartesianness and the left-final/right-initial
checks read the edge bimodules of pi: for an arrow phi: x -> y of K, the
morphisms of E over phi, acted on by the fibers over x and y.  Conduché's
criterion is then one union-find per composable pair of arrows (the coend
E_psi ⊗ E_phi must match E_{psi∘phi}), and the end checks one union-find
per arrow and object.  Homology certificates, which need the categories
themselves, build only the factorization categories and the categories of
elements of E_phi(e, -) that passed that test.  The right-handed checks
are the left-handed ones on the opposite functor, which each functor
builds once and keeps.

classify() runs every checker and asserts the implication closure between
them; a violated implication is reported as an internal defect, never
repaired.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import core, homology
from .core import Functor, PreconditionError
from .unionfind import UnionFind


class InternalInvariantError(RuntimeError):
    """An implication between independently computed verdicts failed."""


@dataclass
class Verdict:
    ok: bool
    witness: object = None

    def __bool__(self):
        return self.ok


def _arrow_functor(K, phi):
    """The functor [1] -> K selecting the morphism phi."""
    I1 = core.interval(1)
    x, y = K.src[phi], K.tgt[phi]
    return Functor(I1, K,
                   {"0": x, "1": y},
                   {"0->0": K.identity[x], "1->1": K.identity[y], "0->1": phi},
                   _validate=False)


def base_change_over_arrow(pi, phi):
    """Base change of pi: E -> K along the arrow [1] -> K selecting phi.

    Returns (projection to [1], functor to E, total category).
    """
    return core.base_change(pi, _arrow_functor(pi.target, phi))


# -- (co)Cartesian morphisms and fibrations --------------------------------


def is_cocartesian_morphism(pi, f):
    """Is f initial among morphisms out of its source over factorizations?

    Concretely: for every g out of src(f) and every factorization
    pi(g) = h ∘ pi(f), there must be a unique lift u over h with
    u∘f = g.  The witness on failure is the pair (g, h) with the number
    of compatible lifts found.
    """
    E, K = pi.source, pi.target
    e_s, e_t = E.src[f], E.tgt[f]
    phi = pi.mor_map[f]
    y = K.tgt[phi]
    for g in E.morphisms_from(e_s):
        pg = pi.mor_map[g]
        for h in K.hom(y, K.tgt[pg]):
            if K.compose(h, phi) != pg:
                continue
            lifts = [u for u in E.hom(e_t, E.tgt[g])
                     if pi.mor_map[u] == h and E.compose(u, f) == g]
            if len(lifts) != 1:
                return Verdict(False, {"g": g, "h": h, "lifts": len(lifts)})
    return Verdict(True)


def is_cartesian_morphism(pi, f):
    return is_cocartesian_morphism(core.opposite_functor(pi), f)


def cocartesian_lifts(pi, e, phi):
    """All coCartesian morphisms out of e over phi, sorted by id."""
    return [f for f in pi.lifts(e, phi) if is_cocartesian_morphism(pi, f).ok]


def is_cocartesian_fibration(pi):
    """Every (object over the source, base morphism) pair admits a
    coCartesian lift."""
    E, K = pi.source, pi.target
    for e in sorted(E.objects):
        x = pi.ob_map[e]
        for phi in sorted(K.morphisms_from(x)):
            if K.is_identity(phi):
                continue  # identity lifts are always coCartesian
            if not any(is_cocartesian_morphism(pi, f).ok
                       for f in pi.lifts(e, phi)):
                return Verdict(False, {"object": e, "morphism": phi})
    return Verdict(True)


def is_cartesian_fibration(pi):
    return is_cocartesian_fibration(core.opposite_functor(pi))


def is_locally_cocartesian(pi):
    """Every base change over [1] is a coCartesian fibration.

    Over a non-identity phi: x -> y this says that for every e over x,
    E_phi(e, -) has an initial element: an f such that w |-> w∘f is a
    bijection from the fiber maps out of tgt f onto E_phi(e, -).
    """
    E, K = pi.source, pi.target
    for phi, obj, elements in _edge_elements(pi, "0"):
        far = K.identity[K.tgt[phi]]
        acts = {f: pi.lifts(E.tgt[f], far) for f in elements}
        if not any(len(acts[f]) == len(elements)
                   == len({E.compose(w, f) for w in acts[f]})
                   for f in elements):
            return Verdict(False, {"base_morphism": phi,
                                   "inner": {"object": obj, "morphism": "0->1"}})
    return Verdict(True)


def is_locally_cartesian(pi):
    return is_locally_cocartesian(core.opposite_functor(pi))


def every_morphism_cocartesian(pi):
    E = pi.source
    for f in sorted(E.morphisms):
        v = is_cocartesian_morphism(pi, f)
        if not v.ok:
            return Verdict(False, {"morphism": f, "inner": v.witness})
    return Verdict(True)


def is_left_fibration(pi):
    """CoCartesian with every morphism coCartesian (groupoid-fibered)."""
    return _left_fibration(pi, is_cocartesian_fibration(pi))


def _left_fibration(pi, cocartesian):
    """Given pi's coCartesian verdict: is every morphism coCartesian?"""
    if not cocartesian.ok:
        return cocartesian
    return every_morphism_cocartesian(pi)


def is_right_fibration(pi):
    return is_left_fibration(core.opposite_functor(pi))


def is_strict_discrete_opfibration(pi):
    """Unique lifts on the nose: for each e over x and each phi: x -> y
    there is exactly one morphism out of e over phi.

    Strictly finer than is_left_fibration: groupoid fibers fail here.
    Straightening to set-valued data requires this strict form.
    """
    E, K = pi.source, pi.target
    for e in sorted(E.objects):
        x = pi.ob_map[e]
        for phi in sorted(K.morphisms_from(x)):
            lifts = pi.lifts(e, phi)
            if len(lifts) != 1:
                return Verdict(False, {"object": e, "morphism": phi,
                                       "lifts": len(lifts)})
    return Verdict(True)


def is_strict_discrete_fibration(pi):
    return is_strict_discrete_opfibration(core.opposite_functor(pi))


def is_conservative(pi):
    """Every morphism over an isomorphism of the base is an isomorphism."""
    E, K = pi.source, pi.target
    base_isos = K.isomorphisms()
    for f in sorted(E.morphisms):
        if pi.mor_map[f] in base_isos and not E.is_iso(f):
            return Verdict(False, {"morphism": f})
    return Verdict(True)


# -- exponentiability ------------------------------------------------------


def factorization_category(pi, phi, psi, lift):
    """Factorizations of a lift of psi∘phi through the middle fiber.

    Objects are pairs (u over phi, v over psi) with v∘u = lift; morphisms
    are middle-fiber maps w with w∘u1 = u2 and v2∘w = v1, as squares over
    the point.  Two factorizations whose pair ids print alike are refused,
    never merged.
    """
    E, K = pi.source, pi.target
    if K.tgt[phi] != K.src[psi]:
        raise PreconditionError("phi and psi are not composable")
    if pi.mor_map[lift] != K.compose(psi, phi):
        raise PreconditionError("lift does not lie over the composite")
    e0, e2 = E.src[lift], E.tgt[lift]
    ends = core._ends_by_id("factorizations", (
        (core.pair_id(u, v), (u, v), (E.tgt[u], "*", (u, v)))
        for u in pi.lifts(e0, phi) for v in pi.lifts(E.tgt[u], psi)
        if E.compose(v, u) == lift))
    mid_id = K.identity[K.tgt[phi]]

    def commutes(uv1, w, _, uv2):
        (u1, v1), (u2, v2) = uv1, uv2
        return (pi.mor_map[w] == mid_id and E.compose(w, u1) == u2
                and E.compose(v2, w) == v1)

    return core.square_category(E, core.terminal(), ends, commutes)[0]


def isofibration_replacement(pi):
    """Replace pi: E -> K by the equivalent isofibration on pairs
    (e, iso out of pi(e)).

    On a gaunt base (no non-identity isomorphisms) this is the identity
    construction up to pair relabeling.
    """
    K = pi.target
    ArK, ev_s, ev_t = core.arrow_category(K)
    iso_objs = [f for f in ArK.objects if K.is_iso(f)]
    IsoK = core.full_subcategory(ArK, iso_objs)
    ev_s_iso = Functor(IsoK, K, {o: ev_s.ob_map[o] for o in IsoK.objects},
                       {m: ev_s.mor_map[m] for m in IsoK.morphisms},
                       _validate=False)
    sq = core.pullback(pi, ev_s_iso)
    tilde = sq.to_right.then(
        Functor(IsoK, K, {o: ev_t.ob_map[o] for o in IsoK.objects},
                {m: ev_t.mor_map[m] for m in IsoK.morphisms}, _validate=False))
    return Functor(sq.total, K, tilde.ob_map, tilde.mor_map, _validate=False)


def is_exponentiable(pi, certify_dim=None):
    """Conduché criterion, 1-exact: every factorization category through a
    middle fiber is nonempty and connected.

    That is decided by a coend per composable pair (phi, psi): the
    factorizations (u over phi, v over psi) are identified along the
    middle-fiber maps w by (u, v∘w) ~ (w∘u, v), which are exactly the
    morphisms of the factorization categories, and each lift of psi∘phi
    must meet exactly one class.  Degenerate pairs (either leg an
    identity) always pass: the factorization category then has an initial
    or final object.  With certify_dim=d, the factorization category of
    each lift that passes is built, and its reduced homology must vanish
    up to degree d; that is a bounded certificate toward contractibility,
    not a proof.  A factorization category with an initial or a terminal
    object is contractible, so it passes without a nerve.

    Over a base with non-identity isomorphisms, strict fibers misrepresent
    the invariant content unless pi is an isofibration, so the check runs
    on the isofibration replacement; over gaunt bases (every poset, every
    interval) the two checks coincide and the direct one keeps witnesses in
    the caller's ids.
    """
    homology._refuse_negative_degree(certify_dim)
    K0 = pi.target
    if any(not K0.is_identity(f) for f in K0.isomorphisms()):
        pi = isofibration_replacement(pi)
    E, K = pi.source, pi.target
    for phi, psi, lifts in _composable_lifts(pi):
        mid = K.identity[K.tgt[phi]]
        uf = UnionFind()
        for e in pi.over(K.src[phi]):
            for u in pi.lifts(e, phi):
                m = E.tgt[u]
                for v in pi.lifts(m, psi):
                    uf.add((u, v))
                for w in pi.lifts(m, mid):
                    wu = E.compose(w, u)
                    for v in pi.lifts(E.tgt[w], psi):
                        uf.union((u, E.compose(v, w)), (wu, v))
        count, classes = {}, {}
        for (u, v), rep in uf.class_map().items():
            lift = E.compose(v, u)
            count[lift] = count.get(lift, 0) + 1
            classes.setdefault(lift, set()).add(rep)
        for lift in lifts:
            if len(classes.get(lift, ())) != 1:
                return Verdict(False, {"first": phi, "second": psi,
                                       "lift": lift,
                                       "factorizations": count.get(lift, 0)})
            if certify_dim is None:
                continue
            rep = homology._failed_certificate(
                factorization_category(pi, phi, psi, lift), certify_dim)
            if rep is not None:
                return Verdict(False, {
                    "first": phi, "second": psi, "lift": lift,
                    "certificate_degree": certify_dim,
                    "betti": rep.betti, "torsion": rep.torsion})
    return Verdict(True)


def _composable_lifts(pi):
    """Each composable pair (phi, psi) of non-identity arrows, in sorted
    order, with the sorted lifts of psi∘phi."""
    K = pi.target
    for phi in K.morphisms:
        if K.is_identity(phi):
            continue
        for psi in K.morphisms_from(K.tgt[phi]):
            if K.is_identity(psi):
                continue
            comp = K.compose(psi, phi)
            yield phi, psi, sorted(f for e in pi.over(K.src[phi])
                                   for f in pi.lifts(e, comp))


def _edge_elements(pi, near):
    """The edge bimodules of pi, one element set at a time.

    For each non-identity phi: x -> y and each e over x, in the order of
    e's id pair_id(near, e) in the base change over phi: (phi, that id,
    the morphisms out of e over phi).
    """
    K = pi.target
    for phi in K.morphisms:
        if K.is_identity(phi):
            continue
        near_ids = {e: core.pair_id(near, e) for e in pi.over(K.src[phi])}
        for e in sorted(near_ids, key=near_ids.get):
            yield phi, near_ids[e], pi.lifts(e, phi)


# -- adjoints and initial/final objects ------------------------------------


def has_initial_object(C):
    for x in sorted(C.objects):
        if all(len(C.hom(x, y)) == 1 for y in C.objects):
            return Verdict(True, {"object": x})
    return Verdict(False)


def has_final_object(C):
    for x in sorted(C.objects):
        if all(len(C.hom(y, x)) == 1 for y in C.objects):
            return Verdict(True, {"object": x})
    return Verdict(False)


def is_right_adjoint(F):
    """F: C -> D is a right adjoint iff every comma C^{d/} has an initial
    object.  The verdict carries the chosen universal arrows, which are the
    unit components and the object part of the left adjoint."""
    C, D = F.source, F.target
    universal = {}
    for d in sorted(D.objects):
        cat, _, to_C = core.comma(core.point(D, d), F)
        v = has_initial_object(cat)
        if not v.ok:
            return Verdict(False, {"object": d})
        o = v.witness["object"]
        universal[d] = {"value": to_C.ob_map[o], "unit": o}
    return Verdict(True, {"universal": universal})


def is_left_adjoint(F):
    """F: C -> D is a left adjoint iff every comma C_{/d} has a final
    object."""
    C, D = F.source, F.target
    universal = {}
    for d in sorted(D.objects):
        cat, to_C, _ = core.comma(F, core.point(D, d))
        v = has_final_object(cat)
        if not v.ok:
            return Verdict(False, {"object": d})
        o = v.witness["object"]
        universal[d] = {"value": to_C.ob_map[o], "counit": o}
    return Verdict(True, {"universal": universal})


# -- section categories and their restrictions ------------------------------


def sections_over_arrow(pi, phi):
    """Fun_{/[1]}([1], E_{|phi}) with its two evaluation functors.

    Returns (sections category, ev_s, ev_t, fiber over source, fiber over
    target) for the base change of pi along phi.
    """
    proj, _, total = base_change_over_arrow(pi, phi)
    I1 = core.interval(1)
    secs, ids, comps = core.sections_category(core.identity_functor(I1), proj)
    fib_s = core.fiber(proj, "0")
    fib_t = core.fiber(proj, "1")
    ev_s = core.evaluation_functor(secs, ids, comps, "0", total)
    ev_t = core.evaluation_functor(secs, ids, comps, "1", total)
    # evaluations land in the fibers
    ev_s = Functor(secs, fib_s, ev_s.ob_map, ev_s.mor_map, _validate=False)
    ev_t = Functor(secs, fib_t, ev_t.ob_map, ev_t.mor_map, _validate=False)
    return secs, ev_s, ev_t, fib_s, fib_t, proj, total


def check_section_restriction(pi, sigma, p):
    """Restriction of sections along sigma: J0 -> J, both over K via p.

    Computes Fun_{/K}(J, E) and Fun_{/K}(J0, E) by exhaustive functor
    enumeration and reports whether restriction is a bijection on sections
    and an isomorphism of section categories.
    """
    p0 = sigma.then(p)
    secs1, ids1, comps1 = core.sections_category(p, pi)
    secs0, ids0, comps0 = core.sections_category(p0, pi)
    ob_map = {}
    for o in secs1.objects:
        F = ids1[o]
        restricted = sigma.then(F)
        ob_map[o] = core.functor_object_id(restricted)
    mor_map = {}
    for m in secs1.morphisms:
        eta = comps1.get(m)
        o1, o2 = secs1.src[m], secs1.tgt[m]
        restricted = {x0: eta[sigma.ob_map[x0]] for x0 in sigma.source.objects}
        enc = ";".join(f"{x}:{restricted[x]}" for x in sorted(restricted))
        mor_map[m] = f"[{enc}]:{ob_map[o1]}>{ob_map[o2]}"
    restriction = Functor(secs1, secs0, ob_map, mor_map)
    return {
        "bijective_on_sections": (len(set(ob_map.values())) == len(secs1.objects)
                                  and set(ob_map.values()) == set(secs0.objects)),
        "isomorphism_of_section_categories": restriction.is_isomorphism(),
        "sections": len(secs1.objects),
        "restricted_sections": len(secs0.objects),
    }


# -- left final / right initial fibrations ----------------------------------


def is_left_final_fibration(pi, certify_dim=None):
    """Exponentiable, and each target-fiber inclusion over an arrow is
    final."""
    return _end_fibration(pi, is_exponentiable(pi, certify_dim=certify_dim),
                          "1", certify_dim)


def is_right_initial_fibration(pi, certify_dim=None):
    """Exponentiable, and each source-fiber inclusion over an arrow is
    initial."""
    return _end_fibration(pi, is_exponentiable(pi, certify_dim=certify_dim),
                          "0", certify_dim)


def _end_fibration(pi, exponentiable, end, certify_dim):
    """Given pi's exponentiability verdict: is the inclusion of the fiber
    over end of each arrow final (end "1") or initial (end "0")?

    Over an identity arrow, and at the objects of the end fiber, every
    comma has an initial (resp. final) object, so only the objects of the
    other fiber over non-identity arrows are checked.  For end "1" and e
    over the source of phi, the comma is the category of elements of
    E_phi(e, -): the f out of e over phi, which the maps w of the fiber
    over tgt phi move to w∘f (see homology._elements_verdict).  End "0"
    is the dual, read in op(pi).
    """
    homology._refuse_negative_degree(certify_dim)
    if not exponentiable.ok:
        return Verdict(False, {"exponentiable": exponentiable.witness})
    near = "0"
    if end == "0":
        pi, near = core.opposite_functor(pi), "1"
    E, K = pi.source, pi.target
    fibers = {}
    for phi, obj, elements in _edge_elements(pi, near):
        y = K.tgt[phi]
        if y not in fibers:
            fibers[y] = core.fiber(pi, y)
        good, entry = homology._elements_verdict(
            fibers[y], {f: E.tgt[f] for f in elements}, E.compose,
            certify_dim)
        if not good:
            return Verdict(False, {"base_morphism": phi,
                                   "inner": (obj, entry)})
    return Verdict(True)


def fiber_inclusion_over_arrow(pi, phi, end):
    """The inclusion of the fiber over end ("0" or "1") into the base
    change of pi over phi."""
    proj, _, _ = base_change_over_arrow(pi, phi)
    return core.inclusion_functor(core.fiber(proj, end), proj.source)


# -- the profile -------------------------------------------------------------


@dataclass
class FibrationProfile:
    verdicts: dict
    witnesses: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.verdicts[key]


_IMPLICATIONS = [
    # (name, hypothesis keys, conclusion keys): all hypotheses -> all conclusions
    ("left=>cocartesian", ("discrete_opfib",), ("cocartesian",)),
    ("right=>cartesian", ("discrete_fib",), ("cartesian",)),
    ("cocartesian=>locally+exp", ("cocartesian",),
     ("locally_cocartesian", "exponentiable")),
    ("cartesian=>locally+exp", ("cartesian",),
     ("locally_cartesian", "exponentiable")),
    ("locally+exp=>cocartesian", ("locally_cocartesian", "exponentiable"),
     ("cocartesian",)),
    ("locally+exp=>cartesian", ("locally_cartesian", "exponentiable"),
     ("cartesian",)),
    ("cons+locally=>left", ("conservative", "locally_cocartesian"),
     ("discrete_opfib",)),
    ("cons+locally=>right", ("conservative", "locally_cartesian"),
     ("discrete_fib",)),
    ("left=>cons", ("discrete_opfib",), ("conservative",)),
    ("right=>cons", ("discrete_fib",), ("conservative",)),
    ("cocartesian=>left_final", ("cocartesian",), ("left_final",)),
    ("cartesian=>right_initial", ("cartesian",), ("right_initial",)),
    ("left_final=>exp", ("left_final",), ("exponentiable",)),
    ("right_initial=>exp", ("right_initial",), ("exponentiable",)),
]


def classify(pi, certify_dim=None):
    """Run all checkers, assert the implication closure, attach witnesses."""
    cocartesian = is_cocartesian_fibration(pi)
    cartesian = is_cartesian_fibration(pi)
    checks = {
        "conservative": is_conservative(pi),
        # "discrete_opfib" and "discrete_fib" are is_left_fibration and
        # is_right_fibration: groupoid fibers are allowed.  They are not
        # the strict unique-lift is_strict_discrete_(op)fibration.
        "discrete_opfib": _left_fibration(pi, cocartesian),
        "discrete_fib": _left_fibration(core.opposite_functor(pi), cartesian),
        "cocartesian": cocartesian,
        "cartesian": cartesian,
        "locally_cocartesian": is_locally_cocartesian(pi),
        "locally_cartesian": is_locally_cartesian(pi),
        "exponentiable": is_exponentiable(pi, certify_dim=certify_dim),
    }
    # one exponentiability verdict serves both end checks
    checks["left_final"], checks["right_initial"] = (
        _end_fibration(pi, checks["exponentiable"], end, certify_dim)
        for end in ("1", "0"))
    verdicts = {k: v.ok for k, v in checks.items()}
    witnesses = {k: v.witness for k, v in checks.items() if not v.ok}
    for name, hyps, concs in _IMPLICATIONS:
        if all(verdicts[h] for h in hyps):
            for c in concs:
                if not verdicts[c]:
                    raise InternalInvariantError(
                        f"implication {name} violated: {hyps} hold but {c} fails "
                        f"(witness: {witnesses.get(c)})")
    return FibrationProfile(verdicts, witnesses)
