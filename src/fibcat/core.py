"""Finite categories and functors, given by explicit composition tables.

Everything downstream (fibration checkers, the correspondence calculus,
homology certificates) consumes the two types defined here.  A
FiniteCategory stores its objects, morphisms, identities and the *total*
composition table; validity is checked exhaustively at construction,
except where a builder guarantees it: square_category checks guards, and
categories derived from a valid one, or read from a document that passed
its checks, are built by FiniteCategory._derived from sorted tables.
Object and morphism ids are opaque strings, and every construction orders
its output lexicographically so that results are reproducible.  Compound
ids (pairs, comma objects, coend classes, functors, lifts) are named
through one helper, _named, which refuses an id that would name two
things rather than merge them.
"""

from __future__ import annotations

import weakref
from collections import Counter
from .records import FrozenRecord


class CategoryError(ValueError):
    """Raised when a composition table violates the category axioms."""


class FunctorError(ValueError):
    """Raised when a map of categories fails to preserve structure."""


class PreconditionError(ValueError):
    """Raised when an operation is invoked outside its contract."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class EnumerationCapExceeded(RuntimeError):
    """Raised when an exhaustive enumeration would exceed the configured cap."""


def pair_id(a, b):
    return f"({a},{b})"


def _class_id(p, q):
    """A quotient class named after its least pair (p, q)."""
    return f"[{p}|{q}]"


def _named(what, kind, items):
    """{id: value} from (id, key, value) items, in first-seen order.

    Every compound id is named through here.  A key may repeat under its
    id; a second key under one id is refused, never merged, and the
    refusal names the first key first."""
    named, key_of = {}, {}
    for i, key, value in items:
        if i not in key_of:
            key_of[i], named[i] = key, value
        elif key_of[i] != key:
            raise PreconditionError(
                f"{what} {key_of[i]} and {key} share the {kind} id {i}",
                witness=[key_of[i], key])
    return named


def validate_category(objects, morphisms, identities, composition):
    """Check the category axioms on raw table data: the violations, as
    strings naming witnesses, are data, not errors (planted defects are
    inspected through this), and none are found exactly on a category."""
    report = []
    obj_set = set(objects)
    if len(obj_set) != len(objects):
        report.append("duplicate object ids")
    src = {m: s for m, s, _ in morphisms}
    tgt = {m: t for m, _, t in morphisms}
    if len(src) != len(morphisms):
        report.append("duplicate morphism ids")
    for m, s, t in morphisms:
        if s not in obj_set:
            report.append(f"morphism {m} has unknown source {s}")
        if t not in obj_set:
            report.append(f"morphism {m} has unknown target {t}")
    for x in objects:
        i = identities.get(x)
        if i is None:
            report.append(f"object {x} has no identity")
        elif i not in src:
            report.append(f"identity of {x} is not a morphism: {i}")
        elif not (src[i] == x and tgt[i] == x):
            report.append(f"identity of {x} is not an endomorphism: {i}")
    for (g, f), h in composition.items():
        if g not in src or f not in src:
            report.append(f"composition of unknown morphisms ({g},{f})")
        elif tgt[f] != src[g]:
            report.append(f"composition defined on non-composable pair ({g},{f})")
        elif h not in src:
            report.append(f"composite of ({g},{f}) is unknown: {h}")
        elif not (src[h] == src[f] and tgt[h] == tgt[g]):
            report.append(f"composite of ({g},{f}) has wrong endpoints: {h}")
    # composable pairs and triples are walked through a by-source index,
    # in sorted morphism order so that the report order is fixed
    mors = sorted(src)
    out_of = {}
    for m in mors:
        out_of.setdefault(src[m], []).append(m)
    # with no fault so far, every key is a composable pair and every
    # object has its identity in out_of, so a composite is missing
    # exactly when there are fewer keys than composable pairs: the pairs
    # are walked only then, to name it, or when a fault is already found
    if report or len(composition) < sum(
            map(len, map(out_of.__getitem__, tgt.values()))):
        for f in mors:
            for g in out_of.get(tgt[f], ()):
                if (g, f) not in composition:
                    report.append(f"missing composite for pair ({g},{f})")
    if report:
        return report
    # in a thin category (at most one morphism per hom-set) both sides of
    # a unit or associativity law lie in the same hom-set of size one, so
    # the laws hold once the endpoints above are right
    if len({(src[m], tgt[m]) for m in mors}) == len(mors):
        return report
    return _law_faults(mors, src, tgt, identities, composition, out_of)


def _law_faults(mors, src, tgt, identities, composition, out_of):
    """Unit and associativity faults of a table total on composable pairs."""
    report = []
    # after[f] lists g∘f for g in out_of[tgt f], so rows of morphisms with
    # the same target line up
    after = {f: [composition[(g, f)] for g in out_of[tgt[f]]] for f in mors}
    # unit laws, then associativity on every composable triple
    for f in mors:
        if composition[(identities[tgt[f]], f)] != f:
            report.append(f"left unit law fails at {f}")
        if composition[(f, identities[src[f]])] != f:
            report.append(f"right unit law fails at {f}")
    for f in mors:
        after_f = dict(zip(out_of[tgt[f]], after[f]))
        compose_f = after_f.__getitem__
        for g, gf in after_f.items():
            # h∘(g∘f) against (h∘g)∘f for every h in out_of[tgt g]
            hgf = after[gf]
            if hgf == list(map(compose_f, after[g])):
                continue
            for h, h_gf, hg in zip(out_of[tgt[g]], hgf, after[g]):
                if h_gf != after_f[hg]:
                    report.append(f"associativity fails on ({h},{g},{f})")
    return report


class FiniteCategory:
    """A category with finitely many objects and morphisms.

    The composition table is total on composable pairs and validated
    exhaustively, unless a builder guarantees it; instances are immutable
    after construction, so derived categories may share their tables.
    """

    __slots__ = (
        "objects", "morphisms", "src", "tgt", "identity", "_comp",
        "_from", "_to", "_hom", "_isos",
    )

    def __init__(self, objects, morphisms, identities, composition, _validate=True):
        morphisms = [tuple(m) for m in morphisms]
        if _validate:
            report = validate_category(objects, morphisms, identities, composition)
            if report:
                raise CategoryError("; ".join(report[:8]))
        self._adopt(tuple(sorted(objects)),
                    tuple(sorted(m for m, _, _ in morphisms)),
                    {m: s for m, s, _ in morphisms},
                    {m: t for m, _, t in morphisms},
                    dict(identities), dict(composition))

    @classmethod
    def _derived(cls, *tables):
        """A category on tables derived from a valid category's, as
        _adopt takes them: nothing is checked, sorted or copied, so the
        tables may be shared with categories that nothing mutates."""
        C = cls.__new__(cls)
        C._adopt(*tables)
        return C

    def _adopt(self, objects, morphisms, src, tgt, identity, comp, index=None):
        """Keep sorted object and morphism tuples, the src, tgt, identity
        and composition dicts, and index = (_from, _to, _hom) when the
        caller has it; otherwise the index is built here."""
        self.objects, self.morphisms = objects, morphisms
        self.src, self.tgt, self.identity, self._comp = src, tgt, identity, comp
        self._from, self._to, self._hom = index or _index(objects, morphisms,
                                                          src, tgt)
        self._isos = None

    # -- basic queries ---------------------------------------------------

    def compose(self, g, f):
        """The composite g∘f; defined exactly when tgt(f) = src(g)."""
        return self._comp[(g, f)]

    def hom(self, a, b):
        return tuple(self._hom.get((a, b), ()))

    def morphisms_from(self, a):
        return tuple(self._from[a])

    def morphisms_to(self, b):
        return tuple(self._to[b])

    def is_identity(self, m):
        return self.identity[self.src[m]] == m

    def non_identity_morphisms(self):
        return tuple(m for m in self.morphisms if not self.is_identity(m))

    def isomorphisms(self):
        """The set of invertible morphisms."""
        if self._isos is None:
            isos = set()
            for f in self.morphisms:
                a, b = self.src[f], self.tgt[f]
                for g in self.hom(b, a):
                    if (self.compose(g, f) == self.identity[a]
                            and self.compose(f, g) == self.identity[b]):
                        isos.add(f)
                        break
            self._isos = frozenset(isos)
        return self._isos

    def is_iso(self, m):
        return m in self.isomorphisms()

    def composition_table(self):
        return dict(self._comp)

    def morphism_triples(self):
        return tuple((m, self.src[m], self.tgt[m]) for m in self.morphisms)

    def __eq__(self, other):
        if not isinstance(other, FiniteCategory):
            return NotImplemented
        return (self.objects == other.objects
                and self.morphisms == other.morphisms
                and self.src == other.src and self.tgt == other.tgt
                and self.identity == other.identity
                and self._comp == other._comp)

    def __hash__(self):
        return hash((self.objects, self.morphisms))

    def __repr__(self):
        return (f"FiniteCategory({len(self.objects)} objects, "
                f"{len(self.morphisms)} morphisms)")


def _index(objects, morphisms, src, tgt):
    """(_from, _to, _hom): the morphisms out of and into each object, and
    in each hom-set, in the order of morphisms."""
    _from, _to, _hom = {x: [] for x in objects}, {x: [] for x in objects}, {}
    for m in morphisms:
        _from[src[m]].append(m)
        _to[tgt[m]].append(m)
        _hom.setdefault((src[m], tgt[m]), []).append(m)
    return _from, _to, _hom


class Functor:
    """A structure-preserving map between finite categories.

    The source grouped over the target (the objects over each object, the
    morphisms out of each object over each morphism) and the opposite
    functor are built on first use and kept; instances are immutable
    after construction.
    """

    __slots__ = ("source", "target", "ob_map", "mor_map", "_index", "_op",
                 "__weakref__")

    def __init__(self, source, target, ob_map, mor_map, _validate=True):
        self.source = source
        self.target = target
        self.ob_map = dict(ob_map)
        self.mor_map = dict(mor_map)
        self._index = self._op = None
        if _validate:
            self._validate()

    def over(self, x):
        """The objects over x, in sorted order."""
        return self._grouped()[0].get(x, ())

    def lifts(self, e, phi):
        """The morphisms out of e over phi, in sorted order."""
        return self._grouped()[1].get((e, phi), ())

    def _grouped(self):
        if self._index is None:
            C, over, lifts = self.source, {}, {}
            for x in C.objects:
                over.setdefault(self.ob_map[x], []).append(x)
            for m in C.morphisms:
                lifts.setdefault((C.src[m], self.mor_map[m]), []).append(m)
            self._index = ({x: tuple(es) for x, es in over.items()},
                           {k: tuple(fs) for k, fs in lifts.items()})
        return self._index

    def _validate(self):
        C, D = self.source, self.target
        for x in C.objects:
            if self.ob_map.get(x) not in D.identity:
                raise FunctorError(f"object {x} not mapped to an object: "
                                   f"{self.ob_map.get(x)}")
        for m in C.morphisms:
            fm = self.mor_map.get(m)
            if fm not in D.src:
                raise FunctorError(f"morphism {m} not mapped to a morphism: {fm}")
            if D.src[fm] != self.ob_map[C.src[m]] or D.tgt[fm] != self.ob_map[C.tgt[m]]:
                raise FunctorError(f"morphism {m} has incompatible image {fm}")
        for x in C.objects:
            if self.mor_map[C.identity[x]] != D.identity[self.ob_map[x]]:
                raise FunctorError(f"identity of {x} not preserved")
        if len(D._hom) == len(D.morphisms):
            # thin target: both images of a composite share a hom-set of
            # size one, since endpoints are preserved
            return
        mor_map, comp_C, comp_D = self.mor_map, C._comp, D._comp
        for f in C.morphisms:
            image_f = mor_map[f]
            for g in C._from[C.tgt[f]]:
                if mor_map[comp_C[(g, f)]] != comp_D[(mor_map[g], image_f)]:
                    raise FunctorError(f"composition not preserved on ({g},{f})")

    def then(self, other):
        """Composite functor (self first, then other)."""
        if other.source is not self.target and other.source != self.target:
            raise FunctorError("composition of non-composable functors")
        return Functor(
            self.source, other.target,
            {x: other.ob_map[y] for x, y in self.ob_map.items()},
            {m: other.mor_map[n] for m, n in self.mor_map.items()},
            _validate=False,
        )

    def is_fully_faithful(self):
        C, D = self.source, self.target
        for a in C.objects:
            for b in C.objects:
                image = [self.mor_map[m] for m in C.hom(a, b)]
                if len(set(image)) != len(image):
                    return False
                if set(image) != set(D.hom(self.ob_map[a], self.ob_map[b])):
                    return False
        return True

    def is_isomorphism(self):
        C, D = self.source, self.target
        return (len(set(self.ob_map.values())) == len(C.objects) == len(D.objects)
                and len(set(self.mor_map.values())) == len(C.morphisms) == len(D.morphisms))

    def is_essentially_surjective(self):
        C, D = self.source, self.target
        image = set(self.ob_map.values())
        hit = set()
        for d in D.objects:
            for c in image:
                if any(D.is_iso(m) for m in D.hom(c, d)):
                    hit.add(d)
                    break
        return hit == set(D.objects)

    def is_equivalence(self):
        return self.is_fully_faithful() and self.is_essentially_surjective()

    def __eq__(self, other):
        if not isinstance(other, Functor):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.ob_map == other.ob_map and self.mor_map == other.mor_map)

    def __hash__(self):
        return hash((tuple(sorted(self.ob_map.items())),
                     tuple(sorted(self.mor_map.items()))))

    def __repr__(self):
        return f"Functor({self.source!r} -> {self.target!r})"


def identity_functor(C):
    return Functor(C, C, {x: x for x in C.objects},
                   {m: m for m in C.morphisms}, _validate=False)


def constant_functor(C, D, d):
    return Functor(C, D, {x: d for x in C.objects},
                   {m: D.identity[d] for m in C.morphisms}, _validate=False)


# -- builders -----------------------------------------------------------


_TERMINAL = FiniteCategory(["*"], [("id", "*", "*")], {"*": "id"},
                           {("id", "id"): "id"}, _validate=False)
_INTERVALS = {}  # n -> interval(n); categories are immutable, so shared


def terminal():
    """The category with one object and one morphism (one shared
    instance)."""
    return _TERMINAL


def point(C, x):
    """The functor from the terminal category selecting the object x."""
    if x not in C.identity:
        raise PreconditionError(f"unknown object {x}")
    return Functor(terminal(), C, {"*": x}, {"id": C.identity[x]}, _validate=False)


def interval(n):
    """The poset [n] = {0 < 1 < ... < n} as a category.

    Morphism i -> j is named "i->j"; identities are "i->i".  Each n is
    built once and the instance is shared.
    """
    if n < 0:
        raise PreconditionError("interval requires n >= 0")
    if n not in _INTERVALS:
        _INTERVALS[n] = poset_from_order([str(i) for i in range(n + 1)],
                                         lambda a, b: int(a) <= int(b))
    return _INTERVALS[n]


def poset_from_order(elements, leq):
    """The category of a poset given by a reflexive transitive leq predicate."""
    elements = sorted(elements)
    morphisms = []
    identities = {}
    for a in elements:
        for b in elements:
            if leq(a, b):
                m = f"{a}->{b}"
                morphisms.append((m, a, b))
                if a == b:
                    identities[a] = m
    composition = {}
    for m, a, b in morphisms:
        for m2, b2, c in morphisms:
            if b == b2:
                composition[(m2, m)] = f"{a}->{c}"
    return FiniteCategory(elements, morphisms, identities, composition)


def monoid_category(elements, unit, mul):
    """One-object category on * from a monoid multiplication table.

    mul(g, f) is the composite g∘f.
    """
    morphisms = [(e, "*", "*") for e in elements]
    composition = {(g, f): mul(g, f) for g in elements for f in elements}
    return FiniteCategory(["*"], morphisms, {"*": unit}, composition)


def discrete_category(objects):
    identities = {x: f"id_{x}" for x in objects}
    ends = {i: x for x, i in identities.items()}
    return FiniteCategory._derived(
        tuple(sorted(identities)), tuple(sorted(ends)), ends, ends,
        identities, {(i, i): i for i in ends})


def walking_isomorphism():
    """Two objects, a mutually inverse pair of morphisms between them."""
    morphisms = [("id_a", "a", "a"), ("id_b", "b", "b"),
                 ("i", "a", "b"), ("j", "b", "a")]
    identities = {"a": "id_a", "b": "id_b"}
    composition = {
        ("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b",
        ("i", "id_a"): "i", ("id_b", "i"): "i",
        ("j", "id_b"): "j", ("id_a", "j"): "j",
        ("j", "i"): "id_a", ("i", "j"): "id_b",
    }
    return FiniteCategory(["a", "b"], morphisms, identities, composition)


def idempotent_category():
    """One object with a single non-identity idempotent endomorphism e."""
    return monoid_category(["id", "e"], "id",
                           lambda g, f: "id" if (g, f) == ("id", "id") else "e")


def retract_category():
    """Two objects x, y with s: x->y, r: y->x, r∘s = id_x.

    The fifth morphism is the induced idempotent e = s∘r on y.
    """
    morphisms = [("id_x", "x", "x"), ("id_y", "y", "y"),
                 ("s", "x", "y"), ("r", "y", "x"), ("e", "y", "y")]
    identities = {"x": "id_x", "y": "id_y"}
    composition = {}
    names = {m: (s, t) for m, s, t in morphisms}

    def mult(g, f):
        # normalize diagrammatic words in s, r using r∘s = id_x
        word = {"id_x": "", "id_y": "", "s": "s", "r": "r", "e": "rs"}
        w = word[f] + word[g]  # diagrammatic order: f first
        while "sr" in w:
            w = w.replace("sr", "")
        return {"": f"id_{names[f][0]}", "s": "s", "r": "r", "rs": "e"}[w]

    for g, gs, gt in morphisms:
        for f, fs, ft in morphisms:
            if ft == gs:
                composition[(g, f)] = mult(g, f)
    return FiniteCategory(["x", "y"], morphisms, identities, composition)


def cyclic_group_category(n):
    """One-object groupoid on the cyclic group Z/n."""
    elements = [f"g{i}" for i in range(n)]
    return monoid_category(
        elements, "g0", lambda g, f: f"g{(int(g[1:]) + int(f[1:])) % n}")


def relabel(C, object_map=None, morphism_map=None):
    """A copy of C with object/morphism ids renamed by the given injections."""
    omap = object_map or {}
    mmap = morphism_map or {}
    ob = {x: omap.get(x, x) for x in C.objects}
    mo = {m: mmap.get(m, m) for m in C.morphisms}
    return FiniteCategory._derived(
        tuple(sorted(ob.values())), tuple(sorted(mo.values())),
        {mo[m]: ob[x] for m, x in C.src.items()},
        {mo[m]: ob[x] for m, x in C.tgt.items()},
        {ob[x]: mo[i] for x, i in C.identity.items()},
        {(mo[g], mo[f]): mo[h] for (g, f), h in C._comp.items()})


def prefix_relabel(C, prefix):
    return relabel(C,
                   {x: prefix + x for x in C.objects},
                   {m: prefix + m for m in C.morphisms})


def disjoint_union(C, D):
    """Coproduct; ids must already be disjoint."""
    if set(C.objects) & set(D.objects) or set(C.morphisms) & set(D.morphisms):
        raise PreconditionError("disjoint_union requires disjoint ids")
    return FiniteCategory._derived(
        tuple(sorted(C.objects + D.objects)),
        tuple(sorted(C.morphisms + D.morphisms)),
        {**C.src, **D.src}, {**C.tgt, **D.tgt}, {**C.identity, **D.identity},
        {**C._comp, **D._comp},
        ({**C._from, **D._from}, {**C._to, **D._to}, {**C._hom, **D._hom}))


def full_subcategory(C, objects):
    objects = tuple(sorted(objects))
    keep = set(objects)
    _from = {x: [m for m in C._from[x] if C.tgt[m] in keep] for x in objects}
    morphisms = tuple(sorted(m for ms in _from.values() for m in ms))
    return FiniteCategory._derived(
        objects, morphisms, {m: C.src[m] for m in morphisms},
        {m: C.tgt[m] for m in morphisms}, {x: C.identity[x] for x in objects},
        {(g, f): C._comp[(g, f)] for f in morphisms for g in _from[C.tgt[f]]},
        (_from, {x: [m for m in C._to[x] if C.src[m] in keep] for x in objects},
         {k: ms for k, ms in C._hom.items() if k[0] in keep and k[1] in keep}))


def inclusion_functor(C, D):
    """The inclusion of a subcategory C of D (ids shared)."""
    return Functor(C, D, {x: x for x in C.objects},
                   {m: m for m in C.morphisms})


# -- duality and products ------------------------------------------------


def opposite(C):
    """Sources and targets swapped, composition reversed.  Ids unchanged."""
    return FiniteCategory._derived(
        C.objects, C.morphisms, C.tgt, C.src, C.identity,
        {(f, g): h for (g, f), h in C._comp.items()},
        (C._to, C._from, {(b, a): ms for (a, b), ms in C._hom.items()}))


def opposite_functor(F):
    """F^op, built once per functor and kept; the opposite of F^op is F
    itself while F lives.  F^op refers back to F weakly, so that no
    reference cycle keeps either from being freed."""
    op = F._op
    if type(op) is weakref.ref:
        op = op()
    if op is None:
        op = F._op = Functor(opposite(F.source), opposite(F.target),
                             F.ob_map, F.mor_map, _validate=False)
        op._op = weakref.ref(F)
    return op


def product(C, D):
    """Pairs of objects and morphisms with componentwise composition."""
    return product_projections(C, D)[0]


def product_projections(C, D):
    """The product as the pullback of C -> terminal() <- D, with its two
    projections."""
    T = terminal()
    sq = pullback(constant_functor(C, T, "*"), constant_functor(D, T, "*"))
    return sq.total, sq.to_left, sq.to_right


def pairing_functor(F, G):
    """The functor (F, G): X -> product(target F, target G)."""
    if F.source != G.source:
        raise PreconditionError("pairing requires a common source")
    P = product(F.target, G.target)
    return Functor(F.source, P,
                   {x: pair_id(F.ob_map[x], G.ob_map[x]) for x in F.source.objects},
                   {m: pair_id(F.mor_map[m], G.mor_map[m]) for m in F.source.morphisms},
                   _validate=False)


class PullbackSquare(FrozenRecord):
    __slots__ = ("total", "to_left", "to_right")  # to the sources of F, G

    def __init__(self, total, to_left, to_right):
        self._fill(total, to_left, to_right)


def pullback(F, G):
    """Strict fiber product of F: A -> C and G: B -> C.

    Objects are pairs (a,b) with F(a) = G(b); morphisms are pairs of
    morphisms with equal images, composed componentwise.  Each pair is
    built once, together with its images under both projections;
    composable pairs are looked up by (src m, src n).  Two pairs whose ids
    print alike are refused, never merged.
    """
    if F.target != G.target:
        raise PreconditionError("pullback requires a common target")
    A, B = F.source, G.source
    n_over = {}
    for n in B.morphisms:
        n_over.setdefault(G.mor_map[n], []).append(n)
    obs = _named("pairs", "object", (
        (pair_id(a, b), (a, b), (a, b))
        for a in A.objects for b in G.over(F.ob_map[a])))
    mors = _named("pairs", "morphism", (
        (pair_id(m, n), (m, n), (m, n))
        for m in A.morphisms for n in n_over.get(F.mor_map[m], ())))
    identities = {p: pair_id(A.identity[a], B.identity[b])
                  for p, (a, b) in obs.items()}
    morphisms = []
    by_src = {}  # (src m, src n) -> [(id, m, n)]
    for p, (m, n) in mors.items():
        morphisms.append((p, pair_id(A.src[m], B.src[n]),
                          pair_id(A.tgt[m], B.tgt[n])))
        by_src.setdefault((A.src[m], B.src[n]), []).append((p, m, n))
    composition = {}
    for p, (m, n) in mors.items():
        for p2, m2, n2 in by_src.get((A.tgt[m], B.tgt[n]), ()):
            composition[(p2, p)] = pair_id(A.compose(m2, m), B.compose(n2, n))
    P = FiniteCategory(list(obs), morphisms, identities, composition,
                       _validate=False)
    return PullbackSquare(
        P, Functor(P, A, {p: a for p, (a, _) in obs.items()},
                   {p: m for p, (m, _) in mors.items()}, _validate=False),
        Functor(P, B, {p: b for p, (_, b) in obs.items()},
                {p: n for p, (_, n) in mors.items()}, _validate=False))


def base_change(pi, g):
    """Pullback of pi: E -> K along g: J -> K, as a fibration over J.

    Returns (projection to J, functor to E, total category).
    """
    sq = pullback(g, pi)
    return sq.to_left, sq.to_right, sq.total


def fiber(pi, x):
    """The strict fiber of pi: E -> K over the object x, as a subcategory."""
    E, idx, objects = pi.source, pi.target.identity[x], pi.over(x)
    morphisms = tuple(sorted(m for e in objects for m in pi.lifts(e, idx)))
    return FiniteCategory._derived(
        objects, morphisms, {m: E.src[m] for m in morphisms},
        {m: E.tgt[m] for m in morphisms}, {e: E.identity[e] for e in objects},
        {(g, f): E._comp[(g, f)] for f in morphisms
         for g in pi.lifts(E.tgt[f], idx)})


# -- slices, commas, arrows ----------------------------------------------


def slice_category(C, x):
    """C_{/x}: objects are morphisms f into x, a morphism f -> g is a
    u: src f -> src g with g∘u = f.  Returns the category with its
    forgetful functor to C."""
    if x not in C.identity:
        raise PreconditionError(f"unknown object {x}")
    cat, forget, _ = square_category(
        C, terminal(), {f: (C.src[f], "*", f) for f in C.morphisms_to(x)},
        lambda f, u, v, g: C.compose(g, u) == f)
    return cat, forget


def coslice_category(C, x):
    """C^{x/}: objects are morphisms f out of x, a morphism f -> g is a
    u: tgt f -> tgt g with u∘f = g."""
    if x not in C.identity:
        raise PreconditionError(f"unknown object {x}")
    cat, forget, _ = square_category(
        C, terminal(), {f: (C.tgt[f], "*", f) for f in C.morphisms_from(x)},
        lambda f, u, v, g: C.compose(u, f) == g)
    return cat, forget


def comma_object_id(a, b, k):
    return f"({a},{b},{k})"


def comma(F, G):
    """The comma category F/G for F: A -> C and G: B -> C.

    Objects are triples (a, b, k: F(a) -> G(b)); a morphism to
    (a', b', k') is a pair (u: a -> a', v: b -> b') with k'∘F(u) = G(v)∘k.
    Returns the category with its two forgetful functors.
    """
    cat, to_A, to_B, _ = comma_with_data(F, G)
    return cat, to_A, to_B


def _square_id(u, v, o1, o2):
    return f"({u},{v}):{o1}>{o2}"


def square_category(A, B, ends, commutes):
    """A category of squares with legs in A and B.

    Each object o has ends[o] = (a, b, d): an object of A, an object of B
    and the data d connecting them.  A morphism o1 -> o2 is a pair
    (u: a1 -> a2 in A, v: b1 -> b2 in B) with commutes(d1, u, v, d2), named
    "(u,v):o1>o2"; pairs compose componentwise.  Candidate targets are
    looked up by (tgt u, tgt v), not by trying every pair of objects.
    Returns the category with its projections to A and B.

    The result is a category by construction: every square is keyed by
    the tuple (u, v, o1, o2), and three guards are checked, namely that
    the ids are injective, that each identity square is a morphism and
    that each componentwise composite is one.  The unit and associativity
    laws then follow from those of A and B.  If a guard fails, the table
    the ids name is validated in full and CategoryError reports it.

    Two-sided discrete fibrations whose builder knows lawful transports
    are not built here but by correspondences._bifibration, which finds
    the same squares without testing any and composes them on first
    read; it falls back to this function when a transport law fails.
    Most of the time here goes into the composition table, not into
    commutes: over the bimodule compositions it measured 67-85 ms for
    the table against 22-37 ms for the candidate loop.
    """
    over = {}
    for o, (a, b, d) in ends.items():
        over.setdefault((a, b), []).append((o, d))
    a_out = _legs_between(A, {a for a, _ in over})
    b_out = _legs_between(B, {b for _, b in over})
    morphisms = []
    parts = {}
    key_of = {}  # (u, v, o1, o2) -> id
    out = {}  # o1 -> the morphisms out of o1, as (id, target, u, v)
    for o1, (a1, b1, d1) in ends.items():
        out[o1] = arrows = []
        for u, a2 in a_out[a1]:
            for v, b2 in b_out[b1]:
                for o2, d2 in over.get((a2, b2), ()):
                    if commutes(d1, u, v, d2):
                        m = key_of[(u, v, o1, o2)] = _square_id(u, v, o1, o2)
                        morphisms.append((m, o1, o2))
                        parts[m] = (u, v)
                        arrows.append((m, o2, u, v))
    # the guards; a failing one still names its square, as the table
    # that validate_category then reports on
    closed = len(parts) == len(key_of)
    identities = {}
    for o, (a, b, _) in ends.items():
        key = (A.identity[a], B.identity[b], o, o)
        closed = closed and key in key_of
        identities[o] = _square_id(*key)
    composition = {}
    comp_A, comp_B = A._comp, B._comp
    for m, o1, o2 in morphisms:
        u, v = parts[m]
        for m2, o3, u2, v2 in out[o2]:
            key = (comp_A[(u2, u)], comp_B[(v2, v)], o1, o3)
            h = key_of.get(key)
            if h is None:
                closed = False
                h = _square_id(*key)
            composition[(m2, m)] = h
    if not closed:
        report = validate_category(list(ends), morphisms, identities,
                                   composition)
        raise CategoryError("; ".join(report[:8]) or
                            "squares are not closed under identities and "
                            "composition")
    cat = FiniteCategory(list(ends), morphisms, identities, composition,
                         _validate=False)
    to_A = Functor(cat, A, {o: e[0] for o, e in ends.items()},
                   {m: uv[0] for m, uv in parts.items()}, _validate=False)
    to_B = Functor(cat, B, {o: e[1] for o, e in ends.items()},
                   {m: uv[1] for m, uv in parts.items()}, _validate=False)
    return cat, to_A, to_B


def _squares_have_cone(objects, squares, name):
    """Would square_category, on objects, the object o named name(o), and
    with the squares (u, v, o1, o2) as morphisms, identities included,
    build a category with an initial or a terminal object?

    Read off the hom-set sizes, without building anything.  Ids are
    formatted only once a cone point is found, and the answer is False
    when two objects or two squares print alike: a caller then builds the
    category, and the building route refuses such ids.
    """
    if _cone(objects, Counter(
            (o1, o2) for _, _, o1, o2 in squares).items()) is None:
        return False
    names = {o: name(o) for o in objects}
    return len(set(names.values())) == len(names) and len(
        {_square_id(u, v, names[o1], names[o2])
         for u, v, o1, o2 in squares}) == len(squares)


def _legs_between(C, xs):
    """{x: [(m, tgt m) for m out of x with tgt m in xs]} for x in xs, in
    the order of morphisms_from(x).  Only such legs can join two ends of
    a square, and the others are most of C when the ends are few."""
    return {x: [(m, C.tgt[m]) for m in C._from[x] if C.tgt[m] in xs]
            for x in xs}


def comma_with_data(F, G):
    """As comma, but also returns the map object -> connecting morphism."""
    if F.target != G.target:
        raise PreconditionError("comma requires a common target")
    A, B, C = F.source, G.source, F.target
    ends = _named("triples", "object", (
        (comma_object_id(a, b, k), (a, b, k), (a, b, k))
        for a in A.objects for b in B.objects
        for k in C.hom(F.ob_map[a], G.ob_map[b])))
    Fu, Gv = F.mor_map, G.mor_map
    cat, to_A, to_B = square_category(
        A, B, ends, lambda k, u, v, k2: C.compose(k2, Fu[u]) == C.compose(Gv[v], k))
    return cat, to_A, to_B, {o: k for o, (_, _, k) in ends.items()}


def arrow_category(C):
    """Ar(C): objects are morphisms, morphisms are commutative squares.

    Returns (Ar(C), ev_s, ev_t).
    """
    return square_category(
        C, C, {f: (C.src[f], C.tgt[f], f) for f in C.morphisms},
        lambda f, u, v, g: C.compose(v, f) == C.compose(g, u))


def twisted_arrows(C):
    """TwAr(C): a morphism f -> g is a factorization g = v∘f∘u.

    Returns (TwAr(C), projection to opposite(C) x C).
    """
    # u: src g -> src f is a morphism src f -> src g of opposite(C)
    cat, to_op, to_C = square_category(
        opposite(C), C, {f: (C.src[f], C.tgt[f], f) for f in C.morphisms},
        lambda f, u, v, g: C.compose(v, C.compose(f, u)) == g)
    return cat, pairing_functor(to_op, to_C)


# -- functor categories --------------------------------------------------


_DEFAULT_ENUM_CAP = 10 ** 6


def enumeration_cap():
    import os
    value = os.environ.get("FIBCAT_ENUM_CAP")
    if not value:
        return _DEFAULT_ENUM_CAP
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap < 1:
        raise PreconditionError(
            f"FIBCAT_ENUM_CAP must be a positive integer, got {value!r}")
    return cap


def _due(order, constraints):
    """Schedule each law where the last key it reads is assigned.

    order is the sequence in which a backtracking search assigns keys, and
    constraints are (keys, payload) pairs.  Returns one list per position
    i of order: the payloads whose last key is order[i].  Keys come apart
    from the payload because ids are opaque: an object and a morphism may
    share one."""
    position = {k: i for i, k in enumerate(order)}
    due = [[] for _ in order]
    for keys, payload in constraints:
        due[max(map(position.__getitem__, keys))].append(payload)
    return due


def _pair_laws(C):
    """Each composable pair (g, f) of non-identity morphisms, keyed by the
    non-identity ones among g, f and g∘f; pairs with an identity hold in
    any map that keeps identities and endpoints."""
    identities = set(C.identity.values())
    return (({g, f, C._comp[(g, f)]} - identities, (g, f))
            for f in C.morphisms if f not in identities
            for g in C._from[C.tgt[f]] if g not in identities)


def _explorer(what):
    """Charge one partial assignment explored per call; passing the
    configured cap raises EnumerationCapExceeded."""
    cap = enumeration_cap()
    budget = [cap]

    def explore():
        budget[0] -= 1
        if budget[0] < 0:
            raise EnumerationCapExceeded(f"{what} enumeration exceeded cap {cap}")
    return explore


def _depth_first(state, keys, candidates, holds, leaf, explore=lambda: None):
    """Backtrack on an explicit stack: state[keys[i]] takes each of
    candidates(i) in turn, going deeper where holds(i), with leaf() at
    each complete assignment and explore() on entering each partial one,
    the empty one first; state ends as it began.  No recursion, no cycle."""
    explore()
    if not keys:
        return leaf()
    stack = [iter(candidates(0))]
    while stack:
        i = len(stack) - 1
        for value in stack[i]:
            state[keys[i]] = value
            if holds(i):
                break
        else:
            state.pop(keys[i], None)
            stack.pop()
            continue
        explore()
        if i + 1 == len(keys):
            leaf()
        else:
            stack.append(iter(candidates(i + 1)))


def all_functors(C, D, ob_constraint=None, mor_constraint=None):
    """Every functor C -> D, by backtracking over generators: objects,
    then non-identity morphisms, each over its candidates in sorted order,
    so the functors come in that depth-first order.  Each law (a nonempty
    hom goes to a nonempty hom; a composable pair is preserved) is checked
    once, when the last thing it reads is assigned (see _due).

    ob_constraint(x) and mor_constraint(m) restrict candidate images.  The
    enumeration cap counts the partial assignments explored.
    """
    objects = list(C.objects)
    non_id = C.non_identity_morphisms()
    homs_due = _due(objects, ((xy, xy) for xy in C._hom if xy[0] != xy[1]))
    pairs_due = _due(non_id, _pair_laws(C))
    results, ob_map, mor_map = [], {}, {}
    explore = _explorer("functor")
    ob_constraint = ob_constraint or (lambda x: D.objects)

    def images(i):
        m = non_id[i]
        found = D.hom(ob_map[C.src[m]], ob_map[C.tgt[m]])
        if mor_constraint:
            allowed = set(mor_constraint(m))
            found = [n for n in found if n in allowed]
        return found

    def extend_morphisms():
        mor_map.update((C.identity[x], D.identity[ob_map[x]]) for x in objects)
        _depth_first(mor_map, non_id, images,
                     lambda i: all(mor_map[C._comp[(g, f)]]
                                   == D._comp[(mor_map[g], mor_map[f])]
                                   for g, f in pairs_due[i]),
                     lambda: results.append(Functor(
                         C, D, dict(ob_map), dict(mor_map), _validate=False)),
                     explore)

    _depth_first(ob_map, objects, lambda i: ob_constraint(objects[i]),
                 lambda i: all(D.hom(ob_map[a], ob_map[b])
                               for a, b in homs_due[i]),
                 extend_morphisms, explore)
    return results


def functors_over(p, q):
    """All functors F: J -> E with pi∘F = p, for p: J -> K and q: E -> K."""
    J, E = p.source, q.source
    by_image_mor = {}
    for m in E.morphisms:
        by_image_mor.setdefault(q.mor_map[m], []).append(m)
    return all_functors(
        J, E,
        ob_constraint=lambda x: q.over(p.ob_map[x]),
        mor_constraint=lambda m: by_image_mor.get(p.mor_map[m], []))


def functor_object_id(F):
    """Deterministic id for a functor, from its graph."""
    ob = ";".join(f"{x}:{F.ob_map[x]}" for x in sorted(F.ob_map))
    mo = ";".join(f"{m}:{F.mor_map[m]}" for m in sorted(F.mor_map))
    return f"<{ob}|{mo}>"


def natural_transformations(F, G, component_filter=None):
    """All natural transformations F => G as component dicts, in the
    depth-first order of sorted objects and components.  The square of a
    morphism is checked once, when both its ends have components."""
    C, D = F.source, F.target
    objects = list(C.objects)
    squares_due = _due(objects, (((C.src[m], C.tgt[m]), m)
                                 for m in C.morphisms))
    results, comps = [], {}
    keep = component_filter or (lambda x, eta: True)
    _depth_first(comps, objects,
                 lambda i: D.hom(F.ob_map[objects[i]], G.ob_map[objects[i]]),
                 lambda i: keep(objects[i], comps[objects[i]]) and all(
                     D.compose(comps[C.tgt[m]], F.mor_map[m])
                     == D.compose(G.mor_map[m], comps[C.src[m]])
                     for m in squares_due[i]),
                 lambda: results.append(dict(comps)))
    return results


def sections_category(p, q):
    """Fun_{/K}(J, E): functors over K and transformations over K.

    Natural transformation components are required to project to
    identities in K.  Two functors or two transformations whose ids print
    alike are refused, never merged.
    """
    identity = p.target.identity
    return _functor_category_from(
        functors_over(p, q), p.source, q.source,
        component_filter=lambda x, eta: q.mor_map[eta] == identity[p.ob_map[x]])


def _functor_category_from(funs, C, D, component_filter=None):
    ids = _named("functors", "object", (
        (functor_object_id(F), (F.ob_map, F.mor_map), F) for F in funs))
    objects = sorted(ids)
    arrows = _named("transformations", "morphism", (
        (_transformation_id(eta, o1, o2), (o1, o2, eta), (o1, o2, eta))
        for o1 in objects for o2 in objects
        for eta in natural_transformations(
            ids[o1], ids[o2], component_filter=component_filter)))
    morphisms = [(m, o1, o2) for m, (o1, o2, _) in arrows.items()]
    comps = {m: eta for m, (_, _, eta) in arrows.items()}
    identities = {o: _transformation_id(
        {x: D.identity[ids[o].ob_map[x]] for x in C.objects}, o, o)
        for o in objects}
    composition = {}
    by_src = {}
    for m, o1, o2 in morphisms:
        by_src.setdefault(o1, []).append((m, o2))
    for m, o1, o2 in morphisms:
        eta = comps[m]
        for m2, o3 in by_src.get(o2, ()):
            eta2 = comps[m2]
            composition[(m2, m)] = _transformation_id(
                {x: D.compose(eta2[x], eta[x]) for x in eta}, o1, o3)
    cat = FiniteCategory(objects, morphisms, identities, composition,
                         _validate=False)
    return cat, ids, comps


def _transformation_id(eta, o1, o2):
    """[x:η_x;…]:o1>o2, the components in the order of sorted x."""
    enc = ";".join(f"{x}:{eta[x]}" for x in sorted(eta))
    return f"[{enc}]:{o1}>{o2}"


def evaluation_functor(sections, ids, comps, at_object, E):
    """Evaluate a category of functors at a fixed source object."""
    ob_map = {o: ids[o].ob_map[at_object] for o in sections.objects}
    mor_map = {m: comps[m][at_object] for m in sections.morphisms
               if m in comps}
    for o in sections.objects:
        mor_map[sections.identity[o]] = E.identity[ob_map[o]]
    return Functor(sections, E, ob_map, mor_map, _validate=False)


# -- connectivity --------------------------------------------------------


def _cone_point(C):
    """An initial object of C (exactly one morphism to every object) or a
    terminal one (exactly one from every object), or None (see _cone).
    Certificates read the same decision off squares before building
    anything (_squares_have_cone); this is its oracle on a built C."""
    return _cone(C.objects, ((ab, len(ms)) for ab, ms in C._hom.items()))


def _cone(objects, hom_sizes):
    """The first of objects with exactly one morphism to every object or
    exactly one from every object, or None, read off hom_sizes: the pairs
    ((a, b), |C(a, b)|) of a category C on objects, a pair left out
    meaning C(a, b) is empty.  The one definition of a cone point.

    A category with a cone point has a contractible nerve (Quillen), so
    its reduced homology vanishes in every degree.
    """
    n = len(objects)
    unique_out, unique_in = {}, {}
    for (a, b), k in hom_sizes:
        if k == 1:
            unique_out[a] = unique_out.get(a, 0) + 1
            unique_in[b] = unique_in.get(b, 0) + 1
    for x in objects:
        if unique_out.get(x) == n or unique_in.get(x) == n:
            return x
    return None
