"""Replacement and (un)straightening constructions.

CoCartesian/Cartesian replacement by arrows out of/into the image,
left/right fibration replacement by fiberwise components of the comma,
relative classifying spaces for left-final/right-initial fibrations (the
right-handed one by duality), one Grothendieck construction (a set-valued
functor is one with discrete values) with cleavage extraction, maximal
sub-left/right fibrations, pushforward along exponentiable fibrations,
and fiberwise Kan extension of set-valued diagrams.

Choices (cleavages, class representatives, factorizations) are always the
lexicographically least candidate, so outputs are reproducible.
"""

from __future__ import annotations

from collections import namedtuple

from . import core, fibrations, homology
from .core import FiniteCategory, Functor, PreconditionError, pair_id
from .fibrations import InternalInvariantError
from .homology import SetValuedFunctor
from .records import Record


class CatValuedFunctor(Record):
    """A strictly functorial assignment of categories and functors.

    Models split fibrations only: transports[m] for composable pairs must
    compose on the nose.
    """
    __slots__ = ("base", "values", "transports")

    def __init__(self, base, values, transports):
        self.base = base
        self.values = values            # object -> FiniteCategory
        self.transports = transports    # morphism -> Functor

    def validate(self):
        K = self.base
        for x in K.objects:
            if x not in self.values:
                raise PreconditionError(f"missing fiber at {x}")
        for m in K.morphisms:
            t = self.transports.get(m)
            if t is None:
                raise PreconditionError(f"missing transport at {m}")
            if t.source != self.values[K.src[m]] or t.target != self.values[K.tgt[m]]:
                raise PreconditionError(f"transport at {m} has wrong endpoints")
        for x in K.objects:
            if self.transports[K.identity[x]] != core.identity_functor(self.values[x]):
                raise PreconditionError(f"identity transport fails at {x}")
        for f in K.morphisms:
            for g in K._from[K.tgt[f]]:
                if self.transports[K.compose(g, f)] != \
                        self.transports[f].then(self.transports[g]):
                    raise PreconditionError(
                        f"strict functoriality fails on ({g},{f})")
        return self


class CleavageReport(Record):
    __slots__ = ("chosen_lifts", "comparisons", "split")

    def __init__(self, chosen_lifts, comparisons, split):
        self.chosen_lifts = chosen_lifts  # (object, base morphism) -> morphism
        self.comparisons = comparisons    # (phi, psi, object) -> iso in a fiber
        self.split = split


# projection: the replaced fibration over K; unit: from the input total
# category
Replacement = namedtuple("Replacement", "projection unit")
# quotient: from the input total category; straightened: a SetValuedFunctor
# (covariant or contravariant data); handed: "left" or "right"
RelativeClassifyingSpace = namedtuple(
    "RelativeClassifyingSpace", "projection quotient straightened handed")


# -- coCartesian / Cartesian replacement -----------------------------------


def cocart_replacement(pi):
    """Arrows of the base out of the image: objects (e, phi: pi(e) -> y),
    projected by the arrow target.

    The output is verified coCartesian; the unit e |-> (e, id) is verified
    fully faithful, and a right adjoint when pi was already coCartesian.
    """
    E, K = pi.source, pi.target
    ends = core._named("pairs", "object", (
        (pair_id(e, phi), (e, phi), (e, K.tgt[phi], phi))
        for e in E.objects for phi in K.morphisms_from(pi.ob_map[e])))
    total, _, proj = core.square_category(
        E, K, ends,
        lambda phi, u, v, phi2: K.compose(phi2, pi.mor_map[u]) == K.compose(v, phi))
    unit_ob = {e: pair_id(e, K.identity[pi.ob_map[e]]) for e in E.objects}
    unit = Functor(E, total, unit_ob,
                   {u: core._square_id(u, pi.mor_map[u], unit_ob[E.src[u]],
                                       unit_ob[E.tgt[u]])
                    for u in E.morphisms})
    if not fibrations.is_cocartesian_fibration(proj).ok:
        raise InternalInvariantError("replacement is not coCartesian")
    if not unit.is_fully_faithful():
        raise InternalInvariantError("replacement unit is not fully faithful")
    return Replacement(proj, unit)


def cart_replacement(pi):
    """Arrows of the base into the image, projected by the arrow source."""
    E, K = pi.source, pi.target
    ends = core._named("pairs", "object", (
        (pair_id(phi, e), (phi, e), (K.src[phi], e, phi))
        for e in E.objects for phi in K.morphisms_to(pi.ob_map[e])))
    total, proj, _ = core.square_category(
        K, E, ends,
        lambda phi, v, u, phi2: K.compose(pi.mor_map[u], phi) == K.compose(phi2, v))
    unit_ob = {e: pair_id(K.identity[pi.ob_map[e]], e) for e in E.objects}
    unit = Functor(E, total, unit_ob,
                   {u: core._square_id(pi.mor_map[u], u, unit_ob[E.src[u]],
                                       unit_ob[E.tgt[u]])
                    for u in E.morphisms})
    cartesian = fibrations.is_cartesian_fibration(proj).ok
    proj._op = None  # the check cached op(proj); the result need not keep it
    if not cartesian:
        raise InternalInvariantError("replacement is not Cartesian")
    if not unit.is_fully_faithful():
        raise InternalInvariantError("replacement unit is not fully faithful")
    return Replacement(proj, unit)


# -- the Grothendieck construction --------------------------------------------


def _lift_id(phi, e):
    """The morphism over phi out of (src phi, e) whose fiber part is an
    identity."""
    return f"({phi}@{e})"


def _cat_mor_id(phi, e, rho, identity_rho):
    # canonical lifts sort before every other lift of the same (phi, e)
    return _lift_id(phi, e) if rho == identity_rho else f"({phi}@{e};{rho})"


def _grothendieck(F, _validate):
    """Total category and projection of strictly functorial fiber data F.

    Objects are pairs (x, e) with e in F(x); a morphism (x,e) -> (y,e')
    is a pair (phi: x -> y, rho: F(phi)(e) -> e'), and (psi, sigma) after
    (phi, rho) is (psi∘phi, sigma∘F(psi)(rho)), composed through an index
    of the morphisms out of each object.  Two pairs or two lifts whose ids
    print alike are refused, never merged.
    """
    K, fibers, transports = F.base, F.values, F.transports
    objects = core._named("pairs", "object", (
        (pair_id(x, e), (x, e), (x, e))
        for x in K.objects for e in fibers[x].objects))
    identities = {o: _lift_id(K.identity[x], e)
                  for o, (x, e) in objects.items()}

    def lifts():  # (morphism, (phi, e, rho), (phi, e, rho, source, target))
        for phi in K.morphisms:
            x, y = K.src[phi], K.tgt[phi]
            T, fib_y = transports[phi], fibers[y]
            for e in fibers[x].objects:
                o, te = pair_id(x, e), T.ob_map[e]
                for rho in fib_y.morphisms_from(te):
                    yield (_cat_mor_id(phi, e, rho, fib_y.identity[te]),
                           (phi, e, rho),
                           (phi, e, rho, o, pair_id(y, fib_y.tgt[rho])))

    data = core._named("lifts", "morphism", lifts())
    out_of = {o: [] for o in objects}  # the morphisms out of each object
    for m, d in data.items():
        out_of[d[3]].append(m)
    composition = {}
    for m, (phi, e, rho, _, o2) in data.items():
        for m2 in out_of[o2]:
            psi, _, sigma, _, _ = data[m2]
            comp, fib_z = K.compose(psi, phi), fibers[K.tgt[psi]]
            composition[(m2, m)] = _cat_mor_id(
                comp, e, fib_z.compose(sigma, transports[psi].mor_map[rho]),
                fib_z.identity[transports[comp].ob_map[e]])
    total = FiniteCategory(
        list(objects), [(m, d[3], d[4]) for m, d in data.items()],
        identities, composition, _validate=_validate)
    return Functor(total, K, {o: x for o, (x, _) in objects.items()},
                   {m: d[0] for m, d in data.items()})


def unstraighten(F):
    """Total category of a set-valued functor: the Grothendieck
    construction on its values taken as discrete categories, a discrete
    opfibration."""
    F.validate()
    K = F.base
    fibers = {x: core.discrete_category(F.values[x]) for x in K.objects}
    transports = {}
    for m in K.morphisms:
        A, B, t = fibers[K.src[m]], fibers[K.tgt[m]], F.transports[m]
        transports[m] = Functor(A, B, t, {A.identity[a]: B.identity[b]
                                          for a, b in t.items()},
                                _validate=False)
    proj = _grothendieck(CatValuedFunctor(K, fibers, transports),
                         _validate=False)
    v = fibrations.is_strict_discrete_opfibration(proj)
    if not v.ok:
        raise InternalInvariantError(f"unstraightening not discrete: {v.witness}")
    return proj


def straighten_discrete_opfib(pi):
    """Fiber objects and unique-lift targets; requires strict unique lifts."""
    v = fibrations.is_strict_discrete_opfibration(pi)
    if not v.ok:
        raise PreconditionError("not a discrete opfibration", v.witness)
    E, K = pi.source, pi.target
    values = {x: pi.over(x) for x in K.objects}
    transports = {m: {e: E.tgt[pi.lifts(e, m)[0]] for e in values[K.src[m]]}
                  for m in K.morphisms}
    return SetValuedFunctor(K, values, transports).validate()


def unstraighten_cat(F):
    """Classical total category of a category-valued functor.

    Objects are pairs (x, fiber object); a morphism (x,e) -> (y,e') is a
    pair (phi: x -> y, rho: F(phi)(e) -> e').  The projection is a split
    coCartesian fibration whose canonical cleavage is recovered by
    straighten_cocart.
    """
    F.validate()
    proj = _grothendieck(F, _validate=True)
    v = fibrations.is_cocartesian_fibration(proj)
    if not v.ok:
        raise InternalInvariantError(f"unstraightening not coCartesian: {v.witness}")
    return proj


def _vertical_filler(pi, lift, want, message):
    """The unique w over an identity with w∘lift = want."""
    E, K = pi.source, pi.target
    vertical = K.identity[pi.ob_map[E.tgt[want]]]
    fillers = [w for w in pi.lifts(E.tgt[lift], vertical)
               if E.compose(w, lift) == want]
    if len(fillers) != 1:
        raise InternalInvariantError(message)
    return fillers[0]


def straighten_cocart(pi):
    """Choose a cleavage (lexicographically least coCartesian lift, with
    identities at identity morphisms) and extract the transport data.

    Returns (CatValuedFunctor or None, CleavageReport): strict data only
    when the cleavage is split; otherwise the comparison isomorphisms are
    the output.
    """
    v = fibrations.is_cocartesian_fibration(pi)
    if not v.ok:
        raise PreconditionError("not a coCartesian fibration", v.witness)
    E, K = pi.source, pi.target
    fibers = {x: core.fiber(pi, x) for x in K.objects}
    chosen = {}
    for e in E.objects:
        x = pi.ob_map[e]
        for phi in K.morphisms_from(x):
            if K.is_identity(phi):
                chosen[(e, phi)] = E.identity[e]
            else:
                chosen[(e, phi)] = fibrations.cocartesian_lifts(pi, e, phi)[0]

    def transport_of(phi):
        fib_x, fib_y = fibers[K.src[phi]], fibers[K.tgt[phi]]
        ob_map = {e: E.tgt[chosen[(e, phi)]] for e in fib_x.objects}
        mor_map = {
            vmor: _vertical_filler(
                pi, chosen[(fib_x.src[vmor], phi)],
                E.compose(chosen[(fib_x.tgt[vmor], phi)], vmor),
                f"coCartesian filler not unique for {vmor} over {phi}")
            for vmor in fib_x.morphisms}
        return Functor(fib_x, fib_y, ob_map, mor_map)

    transports = {phi: transport_of(phi) for phi in K.morphisms}
    comparisons = {}
    split = True
    for phi in K.morphisms:
        for psi in K.morphisms_from(K.tgt[phi]):
            comp = K.compose(psi, phi)
            for e in fibers[K.src[phi]].objects:
                via = E.compose(chosen[(E.tgt[chosen[(e, phi)]], psi)],
                                chosen[(e, phi)])
                direct = chosen[(e, comp)]
                w = comparisons[(phi, psi, e)] = _vertical_filler(
                    pi, direct, via,
                    f"comparison not unique over ({psi},{phi}) at {e}")
                if not E.is_iso(w):
                    raise InternalInvariantError(
                        f"comparison over ({psi},{phi}) at {e} is not invertible")
                if w != E.identity[E.tgt[direct]]:
                    split = False
    _check_cleavage_cocycle(K, E, fibers, transports, comparisons)
    report = CleavageReport(chosen, comparisons, split)
    if not split:
        return None, report
    F = CatValuedFunctor(K, fibers, transports).validate()
    return F, report


def _check_cleavage_cocycle(K, E, fibers, transports, comparisons):
    # the two regroupings of a triple composite agree up to the recorded
    # isos; a comparison over psi is pushed along chi by the transport
    for phi in K.morphisms:
        for psi in K.morphisms_from(K.tgt[phi]):
            for chi in K.morphisms_from(K.tgt[psi]):
                psiphi = K.compose(psi, phi)
                chipsi = K.compose(chi, psi)
                for e in fibers[K.src[phi]].objects:
                    one = E.compose(
                        transports[chi].mor_map[comparisons[(phi, psi, e)]],
                        comparisons[(psiphi, chi, e)])
                    other = E.compose(
                        comparisons[(psi, chi, transports[phi].ob_map[e])],
                        comparisons[(phi, chipsi, e)])
                    if one != other:
                        raise InternalInvariantError(
                            f"cleavage cocycle fails on ({chi},{psi},{phi}) at {e}")


# -- left/right fibration replacement ----------------------------------------


# projection: the unstraightened discrete opfibration; unit: the canonical
# functor from the input total
LfibReplacement = namedtuple("LfibReplacement", "straightened projection unit")


def lfib_replacement(pi):
    """Value at x: components of the comma over x; transports by
    postcomposition."""
    J, K = pi.source, pi.target
    reps = {}
    ends = {}  # x -> comma object -> (j, phi: pi j -> x)
    for x in K.objects:
        cat, to_J, _, data = core.comma_with_data(pi, core.point(K, x))
        reps[x] = homology.pi0_map(cat)
        ends[x] = {o: (to_J.ob_map[o], data[o]) for o in cat.objects}
    values = {x: tuple(sorted(set(reps[x].values()))) for x in K.objects}

    def comma_obj(j, phi):
        return core.comma_object_id(j, "*", phi)

    transports = {}
    for xi in K.morphisms:
        x, y = K.src[xi], K.tgt[xi]
        t = {}
        for rep in values[x]:
            j, phi = ends[x][rep]
            t[rep] = reps[y][comma_obj(j, K.compose(xi, phi))]
        transports[xi] = t
    F = SetValuedFunctor(K, values, transports).validate()
    proj = unstraighten(F)
    unit_ob = {}
    unit_mor = {}
    for j in J.objects:
        x = pi.ob_map[j]
        unit_ob[j] = pair_id(x, reps[x][comma_obj(j, K.identity[x])])
    for u in J.morphisms:
        phi = pi.mor_map[u]
        j = J.src[u]
        x = pi.ob_map[j]
        unit_mor[u] = _lift_id(phi, reps[x][comma_obj(j, K.identity[x])])
    unit = Functor(J, proj.source, unit_ob, unit_mor)
    return LfibReplacement(F, proj, unit)


def rfib_replacement(pi):
    """Dual construction: components of the comma under x, transports by
    precomposition; packaged on the opposite so the output is a discrete
    fibration over K."""
    op = core.opposite_functor(pi)
    rep = lfib_replacement(op)
    proj = core.opposite_functor(rep.projection)
    unit = Functor(pi.source, proj.source, rep.unit.ob_map, rep.unit.mor_map)
    return LfibReplacement(rep.straightened, proj, unit)


# -- relative classifying space ----------------------------------------------


def relative_classifying_space(pi):
    """Fiberwise component collapse, defined when pi is left final or right
    initial (otherwise the localization may leave the finite world; the
    refusal carries the failing finality witness).  The right-handed
    collapse is the opposite of the left-handed collapse of the opposite,
    with contravariant straightened data."""
    left = fibrations.is_left_final_fibration(pi)
    if left.ok:
        return _left_collapse(pi)
    right = fibrations.is_right_initial_fibration(pi)
    if not right.ok:
        raise PreconditionError(
            "relative classifying space needs a left-final or "
            "right-initial fibration",
            {"left_final": left.witness, "right_initial": right.witness})
    op = _left_collapse(core.opposite_functor(pi))
    proj = core.opposite_functor(op.projection)
    quotient = Functor(pi.source, proj.source, op.quotient.ob_map,
                       op.quotient.mor_map, _validate=False)
    return RelativeClassifyingSpace(proj, quotient, op.straightened, "right")


def _left_collapse(pi):
    E, K = pi.source, pi.target
    comp = {x: homology.pi0_map(core.fiber(pi, x)) for x in K.objects}
    values = {x: tuple(sorted(set(comp[x].values()))) for x in K.objects}

    def transport(phi, e):
        targets = {comp[K.tgt[phi]][E.tgt[u]] for u in pi.lifts(e, phi)}
        if len(targets) != 1:
            raise InternalInvariantError(
                f"component transport along {phi} not single-valued at {e}")
        return targets.pop()

    straightened = SetValuedFunctor(K, values, {
        phi: {rep: transport(phi, rep) for rep in values[K.src[phi]]}
        for phi in K.morphisms})
    proj = unstraighten(straightened)
    # u goes to the collapsed morphism over pi(u) at the component of its
    # source
    quotient = Functor(
        E, proj.source,
        {e: pair_id(pi.ob_map[e], comp[pi.ob_map[e]][e]) for e in E.objects},
        {u: _lift_id(pi.mor_map[u], comp[pi.ob_map[E.src[u]]][E.src[u]])
         for u in E.morphisms})
    if not fibrations.is_conservative(proj).ok:
        raise InternalInvariantError("relative classifying space not conservative")
    for x in K.objects:
        if list(proj.over(x)) != sorted(pair_id(x, r) for r in values[x]):
            raise InternalInvariantError("fiber of the collapse is wrong")
    return RelativeClassifyingSpace(proj, quotient, straightened, "left")


# -- maximal sub-left/right fibrations ----------------------------------------


def maximal_left_subfibration(pi):
    """Wide subcategory on the pi-coCartesian morphisms, same projection."""
    v = fibrations.is_cocartesian_fibration(pi)
    if not v.ok:
        raise PreconditionError("not a coCartesian fibration", v.witness)
    E, K = pi.source, pi.target
    keep = [f for f in E.morphisms if fibrations._cocartesian(pi, f)]
    keep_set = set(keep)
    for f in keep:
        for g in E._from[E.tgt[f]]:
            if g in keep_set and E.compose(g, f) not in keep_set:
                raise InternalInvariantError(
                    f"coCartesian morphisms do not compose: ({g},{f})")
    morphisms = [(m, E.src[m], E.tgt[m]) for m in keep]
    composition = {(g, f): h for (g, f), h in E.composition_table().items()
                   if g in keep_set and f in keep_set}
    total = FiniteCategory(E.objects, morphisms, dict(E.identity), composition)
    proj = Functor(total, K, dict(pi.ob_map),
                   {m: pi.mor_map[m] for m in keep})
    if not fibrations.is_left_fibration(proj).ok:
        raise InternalInvariantError("maximal subfibration is not a left fibration")
    return proj


def maximal_right_subfibration(pi):
    v = fibrations.is_cartesian_fibration(pi)
    if not v.ok:
        raise PreconditionError("not a Cartesian fibration", v.witness)
    op = maximal_left_subfibration(core.opposite_functor(pi))
    total = core.opposite(op.source)
    return Functor(total, pi.target, op.ob_map, op.mor_map)


# -- pushforward along an exponentiable fibration ------------------------------


# projection: pi_* Z -> K; obj_functors: object id -> Functor (fiber -> Z);
# mor_functors: morphism id -> Functor (base-changed arrow -> Z)
Pushforward = namedtuple("Pushforward",
                         "projection obj_functors mor_functors")


def pushforward_exponentiable(pi, zeta):
    """Objects over x are functors from the fiber to Z over E; morphisms
    over phi are functors from the base change over phi to Z over E;
    composition glues along the middle fiber through a factorization,
    well-defined because factorization categories are nonempty and
    connected.  Two functors whose ids print alike are refused.
    """
    v = fibrations.is_exponentiable(pi)
    if not v.ok:
        raise PreconditionError("pushforward needs an exponentiable fibration",
                                v.witness)
    E, K = pi.source, pi.target
    Z = zeta.source
    fibers = {x: core.fiber(pi, x) for x in K.objects}
    arrow_data = {phi: fibrations.base_change_over_arrow(pi, phi)
                  for phi in K.morphisms}
    over = core._named("functors", "object", (
        (f"{core.functor_object_id(F)}@{x}", (F.ob_map, F.mor_map), (x, F))
        for x in K.objects for F in core.functors_over(
            core.inclusion_functor(fibers[x], E), zeta)))
    arrows = core._named("functors", "morphism", (
        (f"{core.functor_object_id(H)}@{phi}", (H.ob_map, H.mor_map),
         (phi, H))
        for phi in K.morphisms
        for H in core.functors_over(arrow_data[phi][1], zeta)))
    obj_functors = {oid: F for oid, (_, F) in over.items()}
    base_of_obj = {oid: x for oid, (x, _) in over.items()}
    mor_functors = {mid: H for mid, (_, H) in arrows.items()}
    base_of_mor = {mid: phi for mid, (phi, _) in arrows.items()}
    morphisms = []
    for mid, (phi, H) in arrows.items():
        x, y = K.src[phi], K.tgt[phi]
        src = _restrict_end(H, fibers[x], "0")
        tgt = _restrict_end(H, fibers[y], "1")
        morphisms.append((mid, f"{core.functor_object_id(src)}@{x}",
                          f"{core.functor_object_id(tgt)}@{y}"))
    objects = sorted(obj_functors)
    identities = {oid: _degenerate_morphism_id(K, x, F, arrow_data)
                  for oid, (x, F) in over.items()}
    composition = {}
    by_src = {}
    for mid, s, t in morphisms:
        by_src.setdefault(s, []).append(mid)
    for mid, s, t in morphisms:
        for mid2 in by_src.get(t, ()):
            composition[(mid2, mid)] = _glue_morphisms(
                pi, zeta, arrow_data, mor_functors[mid], mor_functors[mid2],
                base_of_mor[mid], base_of_mor[mid2])
    total_cat = FiniteCategory(objects, morphisms, identities, composition)
    proj = Functor(total_cat, K, base_of_obj, base_of_mor)
    return Pushforward(proj, obj_functors, mor_functors)


def _restrict_end(H, fiber_cat, end):
    """Restriction of a base-changed-arrow functor to one end fiber."""
    ob_map = {e: H.ob_map[pair_id(end, e)] for e in fiber_cat.objects}
    mor_map = {m: H.mor_map[pair_id(f"{end}->{end}", m)]
               for m in fiber_cat.morphisms}
    return Functor(fiber_cat, H.target, ob_map, mor_map, _validate=False)


def _degenerate_morphism_id(K, x, F, arrow_data):
    """The identity morphism of F: the arrow functor with identity
    components over id_x."""
    phi = K.identity[x]
    _, to_E, total = arrow_data[phi]
    # to_E lands in the fiber over x, the source of F
    H = Functor(total, F.target,
                {o: F.ob_map[e] for o, e in to_E.ob_map.items()},
                {m: F.mor_map[u] for m, u in to_E.mor_map.items()},
                _validate=False)
    return f"{core.functor_object_id(H)}@{phi}"


def _glue_morphisms(pi, zeta, arrow_data, H1, H2, phi, psi):
    """Composite over psi∘phi: agree on fibers, transport cross morphisms
    through the lexicographically least factorization."""
    E, K = pi.source, pi.target
    Z = zeta.source
    comp = K.compose(psi, phi)
    proj_c, to_E_c, total_c = arrow_data[comp]
    ob_map = {}
    mor_map = {}
    for o in total_c.objects:
        end, e = proj_c.ob_map[o], to_E_c.ob_map[o]
        if end == "0":
            ob_map[o] = H1.ob_map[pair_id("0", e)]
        else:
            ob_map[o] = H2.ob_map[pair_id("1", e)]
    for m in total_c.morphisms:
        iv, u = proj_c.mor_map[m], to_E_c.mor_map[m]
        if iv == "0->0":
            mor_map[m] = H1.mor_map[pair_id("0->0", u)]
        elif iv == "1->1":
            mor_map[m] = H2.mor_map[pair_id("1->1", u)]
        else:
            # u: e -> e'' over psi∘phi; factor through the middle fiber
            fact = _least_factorization(pi, phi, psi, u)
            u1, u2 = fact
            mor_map[m] = Z.compose(H2.mor_map[pair_id("0->1", u2)],
                                   H1.mor_map[pair_id("0->1", u1)])
    H = Functor(total_c, Z, ob_map, mor_map)
    return f"{core.functor_object_id(H)}@{comp}"


def _least_factorization(pi, phi, psi, lift):
    E = pi.source
    # the first is the least: both lift lists are sorted
    for u in pi.lifts(E.src[lift], phi):
        for v in pi.lifts(E.tgt[u], psi):
            if E.compose(v, u) == lift:
                return u, v
    raise InternalInvariantError(
        f"no factorization of {lift} over ({phi},{psi})")


def pushforward_adjunction_check(pi, zeta, p, push=None):
    """The bijection between maps into the pushforward over K and maps of
    the pulled-back total into Z over E, verified by enumeration."""
    if push is None:
        push = pushforward_exponentiable(pi, zeta)
    J, K = p.source, p.target
    lhs = core.functors_over(p, push.projection)
    sq = core.pullback(p, pi)
    q = sq.to_right  # J x_K E -> E
    rhs = core.functors_over(q, zeta)
    rhs_ids = {core.functor_object_id(S) for S in rhs}

    def transpose(T):
        ob_map = {}
        mor_map = {}
        JE = sq.total
        for o in JE.objects:
            j, e = sq.to_left.ob_map[o], q.ob_map[o]
            ob_map[o] = push.obj_functors[T.ob_map[j]].ob_map[e]
        for m in JE.morphisms:
            w, u = sq.to_left.mor_map[m], q.mor_map[m]
            H = push.mor_functors[T.mor_map[w]]
            mor_map[m] = H.mor_map[pair_id("0->1", u)]
        return Functor(JE, zeta.source, ob_map, mor_map)

    images = set()
    for T in lhs:
        S = transpose(T)
        images.add(core.functor_object_id(S))
    return {
        "lhs": len(lhs), "rhs": len(rhs),
        "injective": len(images) == len(lhs),
        "bijective": images == rhs_ids,
    }


# -- fiberwise Kan extension of set-valued diagrams ---------------------------


def kan_extend_along_fibration(pi, F, direction):
    """Left case: fiberwise set-colimits; right case: fiberwise limits.

    Requires pi left-final (or coCartesian) for "left", right-initial (or
    Cartesian) for "right"; each value is cross-checked against the comma
    formula.  Two colimit classes, or two limit families, of one fiber
    whose ids print alike are refused, never merged.
    """
    E, K = pi.source, pi.target
    F.validate()
    if F.base != E:
        raise PreconditionError("diagram must live on the total category")
    if direction == "left":
        if not fibrations.is_cocartesian_fibration(pi).ok:
            final = fibrations.is_left_final_fibration(pi)
            if not final.ok:
                raise PreconditionError(
                    "left Kan extension along this functor is not fiberwise",
                    final.witness)
        return _kan_left(pi, F)
    if direction == "right":
        if not fibrations.is_cartesian_fibration(pi).ok:
            initial = fibrations.is_right_initial_fibration(pi)
            if not initial.ok:
                raise PreconditionError(
                    "right Kan extension along this functor is not fiberwise",
                    initial.witness)
        return _kan_right(pi, F)
    raise PreconditionError("direction must be 'left' or 'right'")


def _kan_left(pi, F):
    E, K = pi.source, pi.target
    class_maps = {}
    values = {}
    for x in K.objects:
        _, cls = homology.set_colimit(homology.restrict_diagram(
            core.inclusion_functor(core.fiber(pi, x), E), F))
        class_maps[x] = cls
        values[x] = tuple(sorted(core._named("classes of", "class", (
            (core._class_id(*rep), rep, rep) for rep in cls.values()))))

    def class_id(x, e, a):
        return core._class_id(*class_maps[x][(e, a)])

    transports = {}
    for phi in K.morphisms:
        x, y = K.src[phi], K.tgt[phi]
        t = {}
        for (e, a), rep in class_maps[x].items():
            targets = {class_id(y, E.tgt[u], F.transports[u][a])
                       for u in pi.lifts(e, phi)}
            if len(targets) != 1:
                raise InternalInvariantError(
                    f"colimit transport along {phi} not single-valued at ({e},{a})")
            cid = core._class_id(*rep)
            if cid in t and t[cid] != targets.copy().pop():
                raise InternalInvariantError(
                    f"colimit transport along {phi} disagrees on a class")
            t[cid] = targets.pop()
        transports[phi] = t
    G = SetValuedFunctor(K, values, transports).validate()
    _check_kan_left_against_comma(pi, F, G, class_maps)
    return G


def _check_kan_left_against_comma(pi, F, G, class_maps):
    K = pi.target
    for x in K.objects:
        _, to_E, _ = core.comma(pi, core.point(K, x))
        _, cls = homology.set_colimit(homology.restrict_diagram(to_E, F))
        # the fiber inclusion induces a bijection of colimit classes
        fiber_reps = {}
        for (e, a), rep in class_maps[x].items():
            o = core.comma_object_id(e, "*", K.identity[x])
            fiber_reps[core._class_id(*rep)] = cls[(o, a)]
        if len(set(fiber_reps.values())) != len(fiber_reps) or \
                set(fiber_reps.values()) != set(cls.values()):
            raise InternalInvariantError(
                f"fiber colimit differs from the comma colimit at {x}")


def _kan_right(pi, F):
    E, K = pi.source, pi.target
    fams = {}
    values = {}
    for x in K.objects:
        fam = homology.set_limit(homology.restrict_diagram(
            core.inclusion_functor(core.fiber(pi, x), E), F))
        fams[x] = fam
        values[x] = tuple(core._named("families", "family", (
            (_family_id(f), f, f) for f in fam)))

    def transport(phi, fam):
        images = {e2: set() for e2 in pi.over(K.tgt[phi])}
        for e, a in fam:
            for u in pi.lifts(e, phi):
                images[E.tgt[u]].add(F.transports[u][a])
        out = {}
        for e2, vals in images.items():
            if len(vals) != 1:
                raise InternalInvariantError(
                    f"limit transport along {phi} not single-valued at {e2}")
            out[e2] = vals.pop()
        return tuple(sorted(out.items()))

    transports = {}
    for phi in K.morphisms:
        x = K.src[phi]
        t = {}
        for fam in fams[x]:
            t[_family_id(fam)] = _family_id(transport(phi, fam))
        transports[phi] = t
    G = SetValuedFunctor(K, values, transports).validate()
    _check_kan_right_against_comma(pi, F, fams)
    return G


def _family_id(fam):
    return "{" + ";".join(f"{e}:{a}" for e, a in fam) + "}"


def _check_kan_right_against_comma(pi, F, fams):
    K = pi.target
    for x in K.objects:
        _, _, to_E = core.comma(core.point(K, x), pi)
        comma_fams = homology.set_limit(homology.restrict_diagram(to_E, F))
        # restriction to the fiber (objects with identity leg) is a bijection
        restricted = set()
        for fam in comma_fams:
            lookup = dict(fam)
            entries = []
            for e in pi.over(x):
                o = core.comma_object_id("*", e, K.identity[x])
                entries.append((e, lookup[o]))
            restricted.add(_family_id(tuple(sorted(entries))))
        want = {_family_id(f) for f in fams[x]}
        if restricted != want or len(comma_fams) != len(fams[x]):
            raise InternalInvariantError(
                f"fiber limit differs from the comma limit at {x}")
