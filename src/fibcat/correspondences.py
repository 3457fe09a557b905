"""The correspondence calculus over the 1-cell.

A correspondence between finite categories A and B is presented three
ways: as a category over [1] with identified strict fibers, as a
set-valued bimodule (profunctor) with commuting two-sided actions, and as
a two-sided discrete fibration, a span A <- X -> B.  This module
implements the conversions between the presentations, the three
composition rules (gluing over [2] then restricting, the set-level coend,
and fiberwise components of the pulled-back bifibration), and identity
and product operations.

A category over [n] is the same thing as its fibers, the edge bimodules
between them and the composition of their elements; `glue` builds it
from exactly that data.  A collage is the gluing over [1] of one
bimodule, and `glue_over_triangle` the gluing over [2] of two
correspondences and their coend.

Profunctors are compared only up to explicit ProfunctorIso; coend classes
have no canonical representatives, so the isomorphism object is the proof
artifact.  Quotients are taken by union-find over the zigzag-generated
relation, with lexicographically least representatives.
"""

from __future__ import annotations

from collections import namedtuple

from . import bifib_squares, core, fibrations, homology
from .core import FiniteCategory, Functor, PreconditionError
from .records import Record
from .unionfind import UnionFind


# -- profunctors ------------------------------------------------------------


class Profunctor(Record):
    """A finite-set-valued bimodule between finite categories.

    elements[(a, b)] is a sorted tuple of element ids.  For alpha: a' -> a,
    lact[(alpha, b)] maps elements(a, b) to elements(a', b); for
    beta: b -> b', ract[(a, beta)] maps elements(a, b) to elements(a, b').
    Both actions are functorial and commute.
    """
    __slots__ = ("source", "target", "elements", "lact", "ract")

    def __init__(self, source, target, elements, lact, ract):
        self.source, self.target = source, target
        self.elements, self.lact, self.ract = elements, lact, ract

    def validate(self):
        A, B = self.source, self.target
        for a in A.objects:
            for b in B.objects:
                if (a, b) not in self.elements:
                    raise PreconditionError(f"missing element set at ({a},{b})")
        for alpha in A.morphisms:
            a1, a0 = A.src[alpha], A.tgt[alpha]  # alpha: a1 -> a0 acts from a0
            for b in B.objects:
                t = self.lact.get((alpha, b))
                if t is None or set(t) != set(self.elements[(a0, b)]):
                    raise PreconditionError(f"bad left action at ({alpha},{b})")
                if not set(t.values()) <= set(self.elements[(a1, b)]):
                    raise PreconditionError(f"left action at ({alpha},{b}) "
                                            "escapes its codomain")
        for beta in B.morphisms:
            b0, b1 = B.src[beta], B.tgt[beta]
            for a in A.objects:
                t = self.ract.get((a, beta))
                if t is None or set(t) != set(self.elements[(a, b0)]):
                    raise PreconditionError(f"bad right action at ({a},{beta})")
                if not set(t.values()) <= set(self.elements[(a, b1)]):
                    raise PreconditionError(f"right action at ({a},{beta}) "
                                            "escapes its codomain")
        # identities act as identities
        for a in A.objects:
            for b in B.objects:
                for x in self.elements[(a, b)]:
                    if self.lact[(A.identity[a], b)][x] != x:
                        raise PreconditionError(f"left identity action fails at {x}")
                    if self.ract[(a, B.identity[b])][x] != x:
                        raise PreconditionError(f"right identity action fails at {x}")
        # contravariant functoriality on the left, covariant on the right
        for alpha in A.morphisms:
            for alpha2 in A.morphisms_to(A.src[alpha]):
                comp = A.compose(alpha, alpha2)  # a'' -> a
                for b in B.objects:
                    for x in self.elements[(A.tgt[alpha], b)]:
                        if self.lact[(comp, b)][x] != \
                                self.lact[(alpha2, b)][self.lact[(alpha, b)][x]]:
                            raise PreconditionError(
                                f"left functoriality fails on ({alpha},{alpha2})")
        for beta in B.morphisms:
            for beta2 in B.morphisms_from(B.tgt[beta]):
                comp = B.compose(beta2, beta)
                for a in A.objects:
                    for x in self.elements[(a, B.src[beta])]:
                        if self.ract[(a, comp)][x] != \
                                self.ract[(a, beta2)][self.ract[(a, beta)][x]]:
                            raise PreconditionError(
                                f"right functoriality fails on ({beta2},{beta})")
        # the two actions commute
        for alpha in A.morphisms:
            a1, a0 = A.src[alpha], A.tgt[alpha]
            for beta in B.morphisms:
                b0, b1 = B.src[beta], B.tgt[beta]
                for x in self.elements[(a0, b0)]:
                    if self.ract[(a1, beta)][self.lact[(alpha, b0)][x]] != \
                            self.lact[(alpha, b1)][self.ract[(a0, beta)][x]]:
                        raise PreconditionError(
                            f"actions do not commute on ({alpha},{beta},{x})")
        return self


def hom_profunctor(C):
    """The hom bimodule of C: elements(a, b) = Hom_C(a, b)."""
    return hom_profunctor_along(core.identity_functor(C), core.identity_functor(C))


def hom_profunctor_along(F, G):
    """Elements(a, b) = Hom_C(F a, G b) for F: A -> C and G: B -> C."""
    if F.target != G.target:
        raise PreconditionError("hom bimodule needs a common target")
    A, B, C = F.source, G.source, F.target
    elements = {(a, b): tuple(sorted(C.hom(F.ob_map[a], G.ob_map[b])))
                for a in A.objects for b in B.objects}
    lact = {}
    for alpha in A.morphisms:
        a1, a0 = A.src[alpha], A.tgt[alpha]
        for b in B.objects:
            lact[(alpha, b)] = {x: C.compose(x, F.mor_map[alpha])
                                for x in elements[(a0, b)]}
    ract = {}
    for beta in B.morphisms:
        b0, b1 = B.src[beta], B.tgt[beta]
        for a in A.objects:
            ract[(a, beta)] = {x: C.compose(G.mor_map[beta], x)
                               for x in elements[(a, b0)]}
    return Profunctor(A, B, elements, lact, ract)


def empty_profunctor(A, B):
    elements = {(a, b): () for a in A.objects for b in B.objects}
    lact = {(alpha, b): {} for alpha in A.morphisms for b in B.objects}
    ract = {(a, beta): {} for a in A.objects for beta in B.morphisms}
    return Profunctor(A, B, elements, lact, ract)


def relabel_profunctor(P, source=None, target=None, elements=None):
    """Rename the underlying categories (and optionally elements) of P.

    source/target are (object_map, morphism_map) pairs as for relabel;
    elements maps (a, b, x) -> new id.  Used to meet the on-the-nose
    middle-fiber matching demanded by the composition operations.
    """
    so, sm = source or ({}, {})
    to, tm = target or ({}, {})
    A2 = core.relabel(P.source, so, sm)
    B2 = core.relabel(P.target, to, tm)
    ob_s = lambda a: so.get(a, a)
    ob_t = lambda b: to.get(b, b)
    mo_s = lambda m: sm.get(m, m)
    mo_t = lambda m: tm.get(m, m)
    elt = elements or (lambda a, b, x: x)
    new_elements = {}
    for (a, b), xs in P.elements.items():
        new_elements[(ob_s(a), ob_t(b))] = tuple(
            sorted(elt(a, b, x) for x in xs))
    new_lact = {}
    for (alpha, b), t in P.lact.items():
        a0 = P.source.tgt[alpha]
        a1 = P.source.src[alpha]
        new_lact[(mo_s(alpha), ob_t(b))] = {
            elt(a0, b, x): elt(a1, b, y) for x, y in t.items()}
    new_ract = {}
    for (a, beta), t in P.ract.items():
        b0 = P.target.src[beta]
        b1 = P.target.tgt[beta]
        new_ract[(ob_s(a), mo_t(beta))] = {
            elt(a, b0, x): elt(a, b1, y) for x, y in t.items()}
    return Profunctor(A2, B2, new_elements, new_lact, new_ract)


def transpose_profunctor(P):
    """The same data read as a bimodule between the opposites."""
    Aop = core.opposite(P.source)
    Bop = core.opposite(P.target)
    elements = {(b, a): P.elements[(a, b)]
                for (a, b) in P.elements}
    lact = {}
    for (a, beta), t in P.ract.items():
        # beta: b -> b' in B is beta: b' -> b in B^op, acting from (b, a)
        lact[(beta, a)] = dict(t)
    ract = {}
    for (alpha, b), t in P.lact.items():
        ract[(b, alpha)] = dict(t)
    return Profunctor(Bop, Aop, elements, lact, ract)


class ProfunctorIso(Record):
    """A family of bijections between element sets, natural on both sides."""
    __slots__ = ("source", "target", "components")

    def __init__(self, source, target, components):
        self.source, self.target = source, target
        self.components = components  # (a, b) -> dict x -> y

    def validate(self):
        P, Q = self.source, self.target
        A, B = P.source, P.target
        if A != Q.source or B != Q.target:
            raise PreconditionError("iso endpoints live over different categories")
        for key in P.elements:
            comp = self.components.get(key)
            if comp is None or set(comp) != set(P.elements[key]):
                raise PreconditionError(f"component at {key} has wrong domain")
            if sorted(comp.values()) != sorted(Q.elements[key]):
                raise PreconditionError(f"component at {key} is not a bijection")
        for alpha in A.morphisms:
            a1, a0 = A.src[alpha], A.tgt[alpha]
            for b in B.objects:
                for x in P.elements[(a0, b)]:
                    if self.components[(a1, b)][P.lact[(alpha, b)][x]] != \
                            Q.lact[(alpha, b)][self.components[(a0, b)][x]]:
                        raise PreconditionError(
                            f"left naturality fails at ({alpha},{b},{x})")
        for beta in B.morphisms:
            b0, b1 = B.src[beta], B.tgt[beta]
            for a in A.objects:
                for x in P.elements[(a, b0)]:
                    if self.components[(a, b1)][P.ract[(a, beta)][x]] != \
                            Q.ract[(a, beta)][self.components[(a, b0)][x]]:
                        raise PreconditionError(
                            f"right naturality fails at ({a},{beta},{x})")
        return self


def profunctor_iso_from_map(P, Q, mapping):
    """Build the ProfunctorIso with components mapping(a, b, x); validated."""
    comps = {}
    for (a, b), xs in P.elements.items():
        comps[(a, b)] = {x: mapping(a, b, x) for x in xs}
    return ProfunctorIso(P, Q, comps).validate()


# -- correspondences ---------------------------------------------------------


class Correspondence(Record):
    """A finite category over the 1-cell with identified strict fibers."""
    __slots__ = ("total", "projection", "fiber_s", "fiber_t", "_bimodule")
    _hidden = ("_bimodule",)

    def __init__(self, total, projection, fiber_s, fiber_t):
        self.total, self.projection = total, projection
        self.fiber_s, self.fiber_t = fiber_s, fiber_t
        self._bimodule = None

    def bimodule(self):
        """The cross-hom bimodule, corr_to_profunctor(self), read once."""
        if self._bimodule is None:
            self._bimodule = corr_to_profunctor(self)
        return self._bimodule

    def cross_morphisms(self):
        p = self.projection
        return tuple(m for m in self.total.morphisms
                     if p.mor_map[m] == "0->1")


def correspondence_from_total(total, fiber_s_objects):
    """Assemble a correspondence from a total category and its s-objects."""
    I1 = core.interval(1)
    s_objs = set(fiber_s_objects)
    ob_map = {x: ("0" if x in s_objs else "1") for x in total.objects}
    mor_map = {}
    for m in total.morphisms:
        a, b = ob_map[total.src[m]], ob_map[total.tgt[m]]
        if (a, b) == ("1", "0"):
            raise PreconditionError(f"morphism {m} goes from the t-side to the "
                                    "s-side; not a functor to the 1-cell")
        mor_map[m] = f"{a}->{b}"
    proj = Functor(total, I1, ob_map, mor_map)
    return Correspondence(total, proj, core.fiber(proj, "0"),
                          core.fiber(proj, "1"))


def identity_correspondence(C):
    """The projection C x [1] -> [1]."""
    P, pr1, pr2 = core.product_projections(C, core.interval(1))
    return Correspondence(P, pr2, core.fiber(pr2, "0"), core.fiber(pr2, "1"))


# -- gluing over [n] -----------------------------------------------------------


def glue(K, fibers, edges, pairings):
    """The category over K = interval(n) presented by its fibers, its edge
    bimodules and the composition of their elements; returns the
    projection to K.

    fibers[x] is the fiber over the object x; fiber ids must be disjoint.
    For each non-identity arrow phi, edges[phi] = (P, name): the element
    e of P at (a, b) is the morphism name(a, b, e) over phi, and it
    composes with the fibers through P's actions.  For each composable
    pair of non-identity arrows, pairings[(phi, psi)](a, c, b, e, f) is
    the element over psi∘phi that the composite f∘e is.

    With pairings the total is validated in full, so pairings that are
    not compatible with the actions are refused as CategoryError.
    Without them (every collage) the laws are those of the fibers and
    bimodules, and guards are checked instead: the ids are injective, no
    two edges compose, and each composite is a cross morphism with the
    right ends.  If a guard fails, the total is validated in full, and
    CategoryError reports it.
    """
    side, mor_map, cross, composites = {}, {}, {}, []
    objects, morphisms, identities, composition = [], [], {}, {}
    for x in K.objects:
        F = fibers[x]
        objects += F.objects
        morphisms += F.morphism_triples()
        identities.update(F.identity)
        composition.update(F.composition_table())
        side.update(dict.fromkeys(F.objects, x))
        mor_map.update(dict.fromkeys(F.morphisms, K.identity[x]))
    for phi, (P, name) in edges.items():
        A, B = fibers[K.src[phi]], fibers[K.tgt[phi]]
        for (a, b), es in P.elements.items():
            into, out_of = A.morphisms_to(a), B.morphisms_from(b)
            for e in es:
                m = name(a, b, e)
                morphisms.append((m, a, b))
                mor_map[m], cross[m] = phi, (a, b)
                for alpha in into:
                    h = composition[(m, alpha)] = name(
                        A.src[alpha], b, P.lact[(alpha, b)][e])
                    composites.append((h, (A.src[alpha], b)))
                for beta in out_of:
                    h = composition[(beta, m)] = name(
                        a, B.tgt[beta], P.ract[(a, beta)][e])
                    composites.append((h, (a, B.tgt[beta])))
    for (phi, psi), pairing in pairings.items():
        (P, name_phi), (Q, name_psi) = edges[phi], edges[psi]
        name_psi_phi = edges[K.compose(psi, phi)][1]
        ends = fibers[K.tgt[psi]].objects
        for (a, b), es in P.elements.items():
            for c in ends:
                for f in Q.elements[(b, c)]:
                    g = name_psi(b, c, f)
                    for e in es:
                        composition[(g, name_phi(a, b, e))] = name_psi_phi(
                            a, c, pairing(a, c, b, e, f))
    guarded = (not pairings and len(side) == len(objects)
               and len(mor_map) == len(morphisms)
               and not any(K.tgt[phi] == K.src[psi]
                           for phi in edges for psi in edges)
               and all(cross.get(h) == hs for h, hs in composites))
    total = FiniteCategory(objects, morphisms, identities, composition,
                           _validate=not guarded)
    # a functor by construction: every morphism lies over the arrow
    # between its ends' fibers, and K is a poset
    return Functor(total, K, side, mor_map, _validate=False)


def collage_cross_id(a, b, x):
    return f"{x}:{a}>{b}"


def collage(P):
    """The category A ⊔ B with cross-homs the element sets of P: the
    gluing over [1] of the fibers A and B along the edge P.

    Object and morphism ids of A and B must be disjoint.
    """
    A, B = P.source, P.target
    if set(A.objects) & set(B.objects) or set(A.morphisms) & set(B.morphisms):
        raise PreconditionError("collage requires disjoint ids; relabel first")
    proj = glue(core.interval(1), {"0": A, "1": B},
                {"0->1": (P, collage_cross_id)}, {})
    return Correspondence(proj.source, proj, A, B)


def corr_to_profunctor(c):
    """Elements(a, b) = cross-homs of the total category, with
    pre/post-composition actions: the hom bimodule along the two fiber
    inclusions, which are subcategories by construction."""
    E = c.total

    def inclusion(F):
        return Functor(F, E, {x: x for x in F.objects},
                       {m: m for m in F.morphisms}, _validate=False)

    return hom_profunctor_along(inclusion(c.fiber_s), inclusion(c.fiber_t))


# -- two-sided discrete fibrations -------------------------------------------


class TwoSidedDiscreteFibration(Record):
    """A span A <- X -> B with unique source-fixed lifts in the
    B-direction, unique target-fixed lifts in the A-direction, and
    discrete homs over each base pair."""
    __slots__ = ("total", "to_left", "to_right", "transports")
    _hidden = ("transports",)

    def __init__(self, total, to_left, to_right, transports=None):
        self.total = total
        self.to_left, self.to_right = to_left, to_right  # X -> A, X -> B
        # (rho, lam): the transports along the unique lifts, kept by validate
        self.transports = transports

    @property
    def left(self):
        return self.to_left.target

    @property
    def right(self):
        return self.to_right.target

    def validate(self):
        check = check_two_sided_discrete(self.total, self.to_left,
                                         self.to_right)
        if not check.ok:
            raise PreconditionError("two-sided discreteness fails",
                                    check.witness)
        self.transports = (check.witness["rho"], check.witness["lam"])
        return self

    def fiber_elements(self, a, b):
        R = self.to_right.ob_map
        return tuple(x for x in self.to_left.over(a) if R[x] == b)


def _over_pairs(X, to_A, to_B):
    """The (to_A, to_B) images of each object and each morphism of X."""
    return ({x: (to_A.ob_map[x], to_B.ob_map[x]) for x in X.objects},
            {m: (to_A.mor_map[m], to_B.mor_map[m]) for m in X.morphisms})


def _by_legs(morphisms, legs):
    """The morphisms grouped by their legs, in the order given."""
    groups = {}
    for m in morphisms:
        groups.setdefault(legs[m], []).append(m)
    return groups


def check_two_sided_discrete(X, to_A, to_B):
    """Exhaustive two-sided discreteness check with witnesses.

    Conditions: (i) unique lifts with fixed source over (id, beta);
    (ii) unique lifts with fixed target over (alpha, id); (iii) between
    any two objects there is exactly one morphism over (alpha, gamma) when
    the induced transports match, none otherwise.
    """
    A, B = to_A.target, to_B.target
    over, legs = _over_pairs(X, to_A, to_B)
    rho = {}
    lam = {}
    for x in X.objects:
        a, b = over[x]
        out_of = _by_legs(X.morphisms_from(x), legs)
        for beta in B.morphisms_from(b):
            lifts = out_of.get((A.identity[a], beta), ())
            if len(lifts) != 1:
                return fibrations.Verdict(False, {
                    "kind": "source-fixed lift", "object": x,
                    "morphism": beta, "lifts": len(lifts)})
            rho[(x, beta)] = X.tgt[lifts[0]]
        into = _by_legs(X.morphisms_to(x), legs)
        for alpha in A.morphisms_to(a):
            lifts = into.get((alpha, B.identity[b]), ())
            if len(lifts) != 1:
                return fibrations.Verdict(False, {
                    "kind": "target-fixed lift", "object": x,
                    "morphism": alpha, "lifts": len(lifts)})
            lam[(x, alpha)] = X.src[lifts[0]]
    for x in X.objects:
        ax, bx = over[x]
        for y in X.objects:
            ay, by = over[y]
            alphas = A.hom(ax, ay)
            if not alphas:
                continue
            count = {}
            for m in X.hom(x, y):
                count[legs[m]] = count.get(legs[m], 0) + 1
            for alpha in alphas:
                for gamma in B.hom(bx, by):
                    got = count.get((alpha, gamma), 0)
                    expected = 1 if rho[(x, gamma)] == lam[(y, alpha)] else 0
                    if got != expected:
                        return fibrations.Verdict(False, {
                            "kind": "hom discreteness", "from": x, "to": y,
                            "over": (alpha, gamma), "count": got,
                            "expected": expected})
    return fibrations.Verdict(True, {"rho": rho, "lam": lam})


def _bifibration(A, B, ends, rho, lam):
    """The square category over A x B on ends[x] = (a, b, x) whose
    builder knows its transports: a morphism x -> y over (alpha, beta)
    exists, uniquely, exactly when rho(x, beta) = lam(y, alpha).  It is
    two-sided discrete by construction, with rho and lam as its
    transports, so check_two_sided_discrete is not run to recover them.

    When the transports are lawful, the squares are closed under
    identities and composition, and bifib_squares enumerates them
    without testing any.  If their ids are injective, the total is
    core.square_category's, in the same order, with its composition
    table and index built the first time they are read: composing
    bifibrations reads only the objects, morphisms and legs.  Otherwise
    the total is core.square_category's, which raises the same
    CategoryError."""
    squares = (bifib_squares._transports_lawful(A, B, ends, rho, lam)
               and bifib_squares._squares(A, B, ends, rho, lam))
    if squares:
        total, to_A, to_B = bifib_squares._composed_on_read(A, B, ends,
                                                            *squares)
    else:
        total, to_A, to_B = core.square_category(
            A, B, ends,
            lambda x, alpha, beta, y: rho[(x, beta)] == lam[(y, alpha)])
    return TwoSidedDiscreteFibration(total, to_A, to_B, transports=(rho, lam))


def corr_to_bifib(c):
    """Sections of the correspondence: objects are cross-morphisms,
    morphisms are commutative squares, projected to A x B by endpoints.
    The transports are rho(x, beta) = beta∘x and lam(x, alpha) = x∘alpha."""
    A, B, E = c.fiber_s, c.fiber_t, c.total
    ends = {x: (E.src[x], E.tgt[x], x) for x in c.cross_morphisms()}
    rho = {(x, beta): E.compose(beta, x) for x, (_, b, _) in ends.items()
           for beta in B.morphisms_from(b)}
    lam = {(x, alpha): E.compose(x, alpha) for x, (a, _, _) in ends.items()
           for alpha in A.morphisms_to(a)}
    return _bifibration(A, B, ends, rho, lam)


def profunctor_to_bifib(P):
    """The category of elements of P over A x B.

    A morphism (a,b,x) -> (a',b',x') over (alpha, beta) exists, uniquely,
    exactly when x'·alpha = beta·x: when the transports
    rho((a,b,x), beta) = (a,b',beta·x) and lam((a',b',x'), alpha) =
    (a,b',x'·alpha) agree.  For P = Hom(F-, G-) it is the comma F/G, with
    the comma's object ids.
    """
    A, B = P.source, P.target
    items, rho, lam = [], {}, {}
    for (a, b), xs in P.elements.items():
        for x in xs:
            o = core.comma_object_id(a, b, x)
            items.append((o, (a, b, x), (a, b, o)))
            for beta in B.morphisms_from(b):
                rho[(o, beta)] = core.comma_object_id(
                    a, B.tgt[beta], P.ract[(a, beta)][x])
            for alpha in A.morphisms_to(a):
                lam[(o, alpha)] = core.comma_object_id(
                    A.src[alpha], b, P.lact[(alpha, b)][x])
    return _bifibration(A, B, core._named("elements", "object", items), rho,
                        lam)


def bifib_to_profunctor(X):
    """Read fibers over (a, b) as element sets, transports as actions.

    The transports are those X was built with or X.validate kept; an X
    with none is validated here.  The bimodule of a two-sided discrete
    fibration is one by construction, so it is not validated again."""
    A, B = X.left, X.right
    if X.transports is None:
        X.validate()
    rho, lam = X.transports
    elements = {(a, b): X.fiber_elements(a, b)
                for a in A.objects for b in B.objects}
    lact = {}
    for alpha in A.morphisms:
        a1, a0 = A.src[alpha], A.tgt[alpha]
        for b in B.objects:
            lact[(alpha, b)] = {x: lam[(x, alpha)] for x in elements[(a0, b)]}
    ract = {}
    for beta in B.morphisms:
        b0, b1 = B.src[beta], B.tgt[beta]
        for a in A.objects:
            ract[(a, beta)] = {x: rho[(x, beta)] for x in elements[(a, b0)]}
    return Profunctor(A, B, elements, lact, ract)


def bifib_to_corr(X):
    """The direct route back to a correspondence, via the read-off bimodule."""
    return collage(bifib_to_profunctor(X))


# -- canonical round-trip isomorphisms ---------------------------------------


def roundtrip_prof_corr(P):
    """P -> collage -> cross-homs: the canonical identity on elements."""
    c = collage(P)
    Q = corr_to_profunctor(c)
    return profunctor_iso_from_map(P, Q, lambda a, b, x: collage_cross_id(a, b, x))


def roundtrip_prof_bifib(P):
    Q = bifib_to_profunctor(profunctor_to_bifib(P))
    return profunctor_iso_from_map(P, Q, core.comma_object_id)


def iso_over_interval(c1, c2, ob_map, mor_map):
    """An isomorphism of correspondences over [1]; validated strictly."""
    F = Functor(c1.total, c2.total, ob_map, mor_map)
    if not F.is_isomorphism():
        raise PreconditionError("not bijective on objects and morphisms")
    for x in c1.total.objects:
        if c2.projection.ob_map[F.ob_map[x]] != c1.projection.ob_map[x]:
            raise PreconditionError(f"not over the 1-cell at {x}")
    return F


def _iso_onto_collage(c, c2):
    """The iso over [1] from c onto a collage of its cross-homs: fibers
    fixed, each cross morphism sent to its collage cross id."""
    E = c.total
    cross = set(c.cross_morphisms())
    mor_map = {m: collage_cross_id(E.src[m], E.tgt[m], m) if m in cross else m
               for m in E.morphisms}
    return iso_over_interval(c, c2, {x: x for x in E.objects}, mor_map)


def roundtrip_corr_prof(c):
    """c -> cross-hom bimodule -> collage: iso over [1] fixing the fibers."""
    return _iso_onto_collage(c, collage(corr_to_profunctor(c)))


def iso_over_product(X1, X2, ob_map, mor_map):
    F = Functor(X1.total, X2.total, ob_map, mor_map)
    if not F.is_isomorphism():
        raise PreconditionError("not bijective on objects and morphisms")
    legs = ((X1.to_left, X2.to_left), (X1.to_right, X2.to_right))
    for x in X1.total.objects:
        if any(G.ob_map[F.ob_map[x]] != G1.ob_map[x] for G1, G in legs):
            raise PreconditionError(f"not over the product at {x}")
    for m in X1.total.morphisms:
        if any(G.mor_map[F.mor_map[m]] != G1.mor_map[m] for G1, G in legs):
            raise PreconditionError(f"not over the product at {m}")
    return F


def _iso_onto_squares(X, X2, object_id):
    """The iso over A x B from X onto a square category: x over (a, b)
    goes to object_id(a, b, x), a morphism to the square of its legs."""
    L, R, src, tgt = X.to_left, X.to_right, X.total.src, X.total.tgt
    ob_map = {x: object_id(L.ob_map[x], R.ob_map[x], x)
              for x in X.total.objects}
    mor_map = {m: core._square_id(L.mor_map[m], R.mor_map[m],
                                  ob_map[src[m]], ob_map[tgt[m]])
               for m in X.total.morphisms}
    return iso_over_product(X, X2, ob_map, mor_map)


def roundtrip_bifib_prof(X):
    """X -> bimodule -> category of elements: iso over A x B."""
    return _iso_onto_squares(X, profunctor_to_bifib(bifib_to_profunctor(X)),
                             core.comma_object_id)


def roundtrip_corr_bifib(c):
    """c -> sections bifibration -> collage: iso over [1]."""
    return _iso_onto_collage(c, bifib_to_corr(corr_to_bifib(c)))


def roundtrip_bifib_corr(X):
    """X -> collage of its bimodule -> sections: iso over A x B."""
    return _iso_onto_squares(X, corr_to_bifib(bifib_to_corr(X)),
                             collage_cross_id)


# -- gluing over the triangle and the three composition rules -----------------


# projection: to interval(2); cross_class: (p, q) -> morphism id of the
# glued cross class
GluedTriangle = namedtuple("GluedTriangle", "total projection cross_class")


def coend_pairs(P01, P12, a, c):
    """The disjuncts (b, x, y) over a middle object b, with the
    zigzag-generated union-find and its classes."""
    B = P01.target
    uf = UnionFind()
    for b in B.objects:
        for x in P01.elements[(a, b)]:
            for y in P12.elements[(b, c)]:
                uf.add((b, x, y))
    for beta in B.morphisms:
        b0, b1 = B.src[beta], B.tgt[beta]
        for x in P01.elements[(a, b0)]:
            pushed = P01.ract[(a, beta)][x]
            for y in P12.elements[(b1, c)]:
                pulled = P12.lact[(beta, c)][y]
                uf.union((b1, pushed, y), (b0, x, pulled))
    return uf


def _as_named(a, b, e):
    """The cross-homs of a correspondence, read as a bimodule, are
    elements named by their own morphism ids."""
    return e


def glue_over_triangle(c01, c12):
    """The pushout of two correspondences along their shared middle fiber,
    as a category over [2].

    Homs within each input are unchanged; cross-homs from the 0-side to
    the 2-side are coend classes of composable pairs through the middle,
    computed by union-find over the zigzag relation and named
    [p|q] after their least pair.  Requires the middle fiber to match on
    the nose and ids away from it to be disjoint; two classes whose names
    print alike are refused.
    """
    B = c01.fiber_t
    if c12.fiber_s != B:
        raise PreconditionError("middle fibers differ; relabel first")
    E01, E12 = c01.total, c12.total
    if set(E01.objects) & set(E12.objects) != set(B.objects):
        raise PreconditionError("object ids must overlap exactly in the middle")
    if set(E01.morphisms) & set(E12.morphisms) != set(B.morphisms):
        raise PreconditionError("morphism ids must overlap exactly in the middle")
    A, C = c01.fiber_s, c12.fiber_t
    P01, P12 = c01.bimodule(), c12.bimodule()
    classes = {}      # (a, c) -> [(class id, least triple)], by class id
    cross_class = {}  # (p, q) -> class id

    def named_classes():  # (class id, least triple (b, p, q)), all (a, c)
        for a in A.objects:
            for c in C.objects:
                uf, reps = coend_pairs(P01, P12, a, c), {}
                for triple in uf.parent:
                    rep = uf.find(triple)
                    cid = cross_class[triple[1:]] = core._class_id(*rep[1:])
                    reps[cid] = rep
                    yield cid, rep, rep
                classes[(a, c)] = sorted(reps.items())

    core._named("classes of", "class", named_classes())
    # the A- and C-actions on a class, read off its least triple: the
    # zigzag relation is stable under both, and the full validation of
    # the glued total would catch any failure as an associativity defect
    lact = {(alpha, c): {cid: cross_class[(P01.lact[(alpha, b)][p], q)]
                         for cid, (b, p, q) in classes[(A.tgt[alpha], c)]}
            for alpha in A.morphisms for c in C.objects}
    ract = {(a, gamma): {cid: cross_class[(p, P12.ract[(b, gamma)][q])]
                         for cid, (b, p, q) in classes[(a, C.src[gamma])]}
            for a in A.objects for gamma in C.morphisms}
    elements = {key: tuple(cid for cid, _ in reps)
                for key, reps in classes.items()}
    P02 = Profunctor(A, C, elements, lact, ract)
    proj = glue(core.interval(2), {"0": A, "1": B, "2": C},
                {"0->1": (P01, _as_named), "1->2": (P12, _as_named),
                 "0->2": (P02, _as_named)},
                {("0->1", "1->2"): lambda a, c, b, p, q: cross_class[(p, q)]})
    return GluedTriangle(proj.source, proj, cross_class)


def restrict_triangle(glued, lower, upper):
    """Base change of a category over [2] along a subinterval {lower<upper}."""
    keep = [o for o in glued.total.objects
            if glued.projection.ob_map[o] in (lower, upper)]
    total = core.full_subcategory(glued.total, keep)
    s_objects = [o for o in keep if glued.projection.ob_map[o] == lower]
    return correspondence_from_total(total, s_objects)


def compose_corr(c01, c12):
    """Glue over the triangle, then base change along the outer edge."""
    glued = glue_over_triangle(c01, c12)
    return restrict_triangle(glued, "0", "2"), glued


def compose_prof(P01, P12):
    """The set-level coend: pairs through the middle modulo the zigzag
    relation, with induced actions verified well-defined.  Two classes at
    one (a, c) whose names print alike are refused, never merged."""
    if P01.target != P12.source:
        raise PreconditionError("middle categories differ; relabel first")
    A, B, C = P01.source, P01.target, P12.target

    def class_id(triple):
        # element names are only unique per object pair, so the middle
        # object is part of the representative
        b, x, y = triple
        return f"[{b}:{x}|{y}]"

    elements = {}
    class_of = {}
    for a in A.objects:
        for c in C.objects:
            reps = coend_pairs(P01, P12, a, c).class_map()
            elements[(a, c)] = tuple(sorted(core._named(
                "classes of", "class",
                ((class_id(rep), rep, rep) for rep in reps.values()))))
            for triple, rep in reps.items():
                class_of[(a, c) + triple] = class_id(rep)
    members = _class_members(class_of)

    def act_on_class(side, at, here, there, cid, move):
        # the class at there of move(b, x, y), for every member at here
        images = {class_of[there + move(*triple)]
                  for triple in members[here + (cid,)]}
        if len(images) != 1:
            raise fibrations.InternalInvariantError(
                f"{side} action on coend classes not well-defined at "
                f"({at[0]},{at[1]},{cid}): {sorted(images)}")
        return images.pop()

    lact = {}
    for alpha in A.morphisms:
        a1, a0 = A.src[alpha], A.tgt[alpha]
        for c in C.objects:
            lact[(alpha, c)] = {
                cid: act_on_class(
                    "left", (alpha, c), (a0, c), (a1, c), cid,
                    lambda b, x, y: (b, P01.lact[(alpha, b)][x], y))
                for cid in elements[(a0, c)]}
    ract = {}
    for gamma in C.morphisms:
        c0, c1 = C.src[gamma], C.tgt[gamma]
        for a in A.objects:
            ract[(a, gamma)] = {
                cid: act_on_class(
                    "right", (a, gamma), (a, c0), (a, c1), cid,
                    lambda b, x, y: (b, x, P12.ract[(b, gamma)][y]))
                for cid in elements[(a, c0)]}
    return Profunctor(A, C, elements, lact, ract), class_of


def compose_bifib(X01, X12):
    """Pull back over the middle, then collapse each (a, c)-fiber to its
    components under morphisms lying over identities on both outer sides."""
    if X01.right != X12.left:
        raise PreconditionError("middle categories differ; relabel first")
    A, B, C = X01.left, X01.right, X12.right
    X1, X2 = X01.total, X12.total
    over1, mor1 = _over_pairs(X1, X01.to_left, X01.to_right)
    over2, mor2 = _over_pairs(X2, X12.to_left, X12.to_right)
    # objects of the pullback: pairs agreeing over B
    pairs = [(x, y) for x in X1.objects for y in X2.objects
             if over1[x][1] == over2[y][0]]
    uf = UnionFind(pairs)
    # X1 morphisms over (identity, beta) meet X2 morphisms over
    # (beta, identity) through beta; the first X1 morphism over
    # (alpha, identity) into x, and the first X2 morphism over
    # (identity, gamma) out of y, are the lifts of the transports
    vertical1 = {}
    lift_into1 = {}
    for m in X1.morphisms:
        alpha, beta = mor1[m]
        if A.is_identity(alpha):
            vertical1.setdefault(beta, []).append(m)
        if B.is_identity(beta):
            lift_into1.setdefault((X1.tgt[m], alpha), X1.src[m])
    lift_out_of2 = {}
    for n in X2.morphisms:
        beta, gamma = mor2[n]
        if B.is_identity(beta):
            lift_out_of2.setdefault((X2.src[n], gamma), X2.tgt[n])
        if C.is_identity(gamma):
            for m in vertical1.get(beta, ()):
                uf.union((X1.src[m], X2.src[n]), (X1.tgt[m], X2.tgt[n]))

    reps = {pair: uf.find(pair) for pair in pairs}
    component = {pair: core._class_id(*rep) for pair, rep in reps.items()}
    ends = core._named("classes of", "class", (
        (component[pair], (x, y), (over1[x][0], over2[y][1], component[pair]))
        for pair, (x, y) in reps.items()))
    members = {}  # class id -> the pairs of its class
    for pair, cid in component.items():
        members.setdefault(cid, []).append(pair)

    # induced transports on classes, each verified single-valued
    def transport(cid, arrow, move):
        images = {component[move(x, y)] for x, y in members[cid]}
        if len(images) != 1:
            raise fibrations.InternalInvariantError(
                f"component transport not well-defined at ({cid},{arrow}): "
                f"{sorted(images)}")
        return images.pop()

    rho_tab = {}
    lam_tab = {}
    for cid in sorted(ends):
        a, c, _ = ends[cid]
        for gamma in C.morphisms_from(c):
            rho_tab[(cid, gamma)] = transport(
                cid, gamma, lambda x, y: (x, lift_out_of2[(y, gamma)]))
        for alpha in A.morphisms_to(a):
            lam_tab[(cid, alpha)] = transport(
                cid, alpha, lambda x, y: (lift_into1[(x, alpha)], y))

    return _bifibration(A, C, ends, rho_tab, lam_tab), component


def _class_members(class_of):
    members = {}
    for (a, c, b, x, y), cid in class_of.items():
        members.setdefault((a, c, cid), []).append((b, x, y))
    return members


def _iso_on_classes(coend, other, class_of, image_of_member, label):
    """The canonical map from coend classes, verified constant on members
    and a natural bijection."""
    members = _class_members(class_of)

    def mapping(a, c, cid):
        images = {image_of_member(a, c, b, x, y)
                  for (b, x, y) in members[(a, c, cid)]}
        if len(images) != 1:
            raise fibrations.InternalInvariantError(
                f"{label}: class {cid} at ({a},{c}) maps to {sorted(images)}")
        return images.pop()

    return profunctor_iso_from_map(coend, other, mapping)


def composition_routes(P01, P12, pair=None):
    """Compose by all three rules and exhibit the canonical isomorphisms.

    Returns a dict with the three composite bimodules (coend, through the
    glued correspondence, through the pulled-back bifibration) and the
    isos from the coend to each.  Ids of the outer categories must not
    collide with each other or the middle; relabel first if they do.

    The glued route composes pair = (c01, c12), correspondences whose
    cross-hom bimodules are P01 and P12 with the element x naming the
    cross morphism x, as corr_to_profunctor reads them.  By default it
    composes the collages of P01 and P12, built first, so colliding ids
    are refused before any composite is computed.
    """
    if pair is None:
        c01, c12, cross = collage(P01), collage(P12), collage_cross_id
    else:
        (c01, c12), cross = pair, _as_named
    comp_c, glued = compose_corr(c01, c12)
    via_corr = corr_to_profunctor(comp_c)
    coend, class_of = compose_prof(P01, P12)
    X02, component = compose_bifib(profunctor_to_bifib(P01),
                                   profunctor_to_bifib(P12))
    via_bifib = bifib_to_profunctor(X02)
    iso_corr = _iso_on_classes(
        coend, via_corr, class_of,
        lambda a, c, b, x, y: glued.cross_class[
            (cross(a, b, x), cross(b, c, y))],
        "coend vs glued-correspondence route")
    iso_bifib = _iso_on_classes(
        coend, via_bifib, class_of,
        lambda a, c, b, x, y: component[
            (core.comma_object_id(a, b, x), core.comma_object_id(b, c, y))],
        "coend vs bifibration route")
    return {
        "coend": coend, "via_corr": via_corr, "via_bifib": via_bifib,
        "iso_corr": iso_corr, "iso_bifib": iso_bifib,
        "composite_corr": comp_c, "composite_bifib": X02,
    }


def left_unit_iso(P):
    """compose_prof(Hom_A, P) collapses onto P by acting with the hom leg."""
    H = hom_profunctor(P.source)
    composite, class_of = compose_prof(H, P)
    return _iso_on_classes(
        composite, P, class_of,
        lambda a, b2, mid, alpha, x: P.lact[(alpha, b2)][x],
        "left unit collapse")


def right_unit_iso(P):
    """compose_prof(P, Hom_B) collapses onto P."""
    H = hom_profunctor(P.target)
    composite, class_of = compose_prof(P, H)
    return _iso_on_classes(
        composite, P, class_of,
        lambda a, b2, mid, x, beta: P.ract[(a, beta)][x],
        "right unit collapse")


def associativity_iso(P01, P12, P23):
    """Coherence iso between the two bracketings of a triple coend."""
    left_first, cls_l = compose_prof(P01, P12)
    left, cls_left = compose_prof(left_first, P23)
    right_first, cls_r = compose_prof(P12, P23)
    right, cls_right = compose_prof(P01, right_first)

    members_r = _class_members(cls_right)

    # map ((x*y)*z) -> (x*(y*z)) through representatives of raw triples
    def mapping(a, d, cid):
        images = set()
        for (c, xy, z) in _class_members(cls_left)[(a, d, cid)]:
            # xy is a class id of left_first at (a, c): take its members
            for (b, x, y) in _class_members(cls_l)[(a, c, xy)]:
                yz = cls_r[(b, d, c, y, z)]
                images.add(cls_right[(a, d, b, x, yz)])
        if len(images) != 1:
            raise fibrations.InternalInvariantError(
                f"associativity collapse not constant at ({a},{d},{cid})")
        return images.pop()

    return profunctor_iso_from_map(left, right, mapping)


# -- products and handedness ---------------------------------------------


def product_corr(c1, c2):
    """Fiber product over [1] of the totals: fibers are products."""
    sq = core.pullback(c1.projection, c2.projection)
    s_objects = [o for o in sq.total.objects
                 if c1.projection.ob_map[sq.to_left.ob_map[o]] == "0"]
    return correspondence_from_total(sq.total, s_objects)


def is_left_final_corr(c, certify_dim=None):
    """Is the target-fiber inclusion final?  Cross-checks two equivalent
    conditions: finality of the inclusion and finality of ev_s on the
    sections category."""
    inc = core.inclusion_functor(c.fiber_t, c.total)
    direct = homology.is_final(inc, certify_dim)
    secs, ev_s, ev_t, fs, ft, proj, total = fibrations.sections_over_arrow(
        c.projection, "0->1")
    via_sections = homology.is_final(ev_s, certify_dim)
    if direct.ok != via_sections.ok:
        raise fibrations.InternalInvariantError(
            "finality of the fiber inclusion and of ev_s disagree")
    return fibrations.Verdict(direct.ok, {
        "fiber_inclusion": direct.ok, "sections_ev_s": via_sections.ok,
        "witness": direct.witness})


def is_right_initial_corr(c, certify_dim=None):
    inc = core.inclusion_functor(c.fiber_s, c.total)
    direct = homology.is_initial(inc, certify_dim)
    secs, ev_s, ev_t, fs, ft, proj, total = fibrations.sections_over_arrow(
        c.projection, "0->1")
    via_sections = homology.is_initial(ev_t, certify_dim)
    if direct.ok != via_sections.ok:
        raise fibrations.InternalInvariantError(
            "initiality of the fiber inclusion and of ev_t disagree")
    return fibrations.Verdict(direct.ok, {
        "fiber_inclusion": direct.ok, "sections_ev_t": via_sections.ok,
        "witness": direct.witness})
