"""Seeded random generators for categories, diagrams and fibrations.

Everything is driven by a random.Random instance, so suites are
reproducible from a seed.  Categories are produced from families that are
valid by construction (posets, free categories on acyclic graphs, small
standard pieces and their sums/products); profunctors and set-valued
diagrams are quotients of coproducts of representables, closed under the
action-generated relation by union-find.
"""

from __future__ import annotations

from . import core, correspondences as corrs, transport
from .core import FiniteCategory, Functor, FunctorError
from .correspondences import Profunctor
from .homology import SetValuedFunctor
from .unionfind import UnionFind


# -- categories --------------------------------------------------------------


def random_poset(rng, max_objects=4, edge_p=0.5, prefix="o"):
    n = rng.randint(1, max_objects)
    leq = {(i, j): False for i in range(n) for j in range(n)}
    for i in range(n):
        leq[(i, i)] = True
        for j in range(i + 1, n):
            leq[(i, j)] = rng.random() < edge_p
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if leq[(i, k)] and leq[(k, j)]:
                    leq[(i, j)] = True
    names = [f"{prefix}{i}" for i in range(n)]
    return core.poset_from_order(
        names, lambda a, b: leq[(int(a[len(prefix):]), int(b[len(prefix):]))])


def random_free_category(rng, max_objects=4, max_edges=4, max_morphisms=12,
                         prefix="n"):
    """Free category on a random acyclic multigraph: morphisms are paths."""
    n = rng.randint(1, max_objects)
    edges = []
    for _ in range(rng.randint(0, max_edges)):
        i = rng.randint(0, n - 1)
        if i == n - 1:
            continue
        j = rng.randint(i + 1, n - 1)
        edges.append((f"e{len(edges)}", i, j))
    paths = {i: [((), i, i)] for i in range(n)}  # by source
    all_paths = [((), i, i) for i in range(n)]
    frontier = list(all_paths)
    while frontier:
        new = []
        for (word, i, j) in frontier:
            for (e, a, b) in edges:
                if a == j:
                    p = (word + (e,), i, b)
                    new.append(p)
        all_paths.extend(new)
        frontier = new
        if len(all_paths) > max_morphisms:
            return None
    objects = [f"{prefix}{i}" for i in range(n)]

    def mor_id(word, i, j):
        if not word:
            return f"{prefix}{i}.id"
        return f"{prefix}." + ".".join(word) + f":{i}>{j}"

    morphisms = [(mor_id(w, i, j), f"{prefix}{i}", f"{prefix}{j}")
                 for (w, i, j) in all_paths]
    identities = {f"{prefix}{i}": mor_id((), i, i) for i in range(n)}
    composition = {}
    for (w1, i1, j1) in all_paths:
        for (w2, i2, j2) in all_paths:
            if j1 == i2:
                composition[(mor_id(w2, i2, j2), mor_id(w1, i1, j1))] = \
                    mor_id(w1 + w2, i1, j2)
    return FiniteCategory(objects, morphisms, identities, composition)


_STANDARD = {
    "terminal": core.terminal,
    "interval1": lambda: core.interval(1),
    "iso": core.walking_isomorphism,
    "idem": core.idempotent_category,
    "z2": lambda: core.cyclic_group_category(2),
}


def random_category(rng, max_objects=4, max_morphisms=10, prefix=""):
    """A small random category; occasionally contains isomorphisms or
    idempotents so degenerate branches of the checkers get exercised."""
    for _ in range(60):
        kind = rng.random()
        if kind < 0.45:
            C = random_poset(rng, max_objects, prefix=f"{prefix}p")
        elif kind < 0.75:
            C = random_free_category(rng, max_objects,
                                     max_morphisms=max_morphisms,
                                     prefix=f"{prefix}n")
        elif kind < 0.9:
            a = random_poset(rng, max(1, max_objects - 1), prefix=f"{prefix}q")
            b = _STANDARD[rng.choice(["terminal", "idem"])]()
            C = core.disjoint_union(a, core.prefix_relabel(b, f"{prefix}s."))
        else:
            C = core.prefix_relabel(
                _STANDARD[rng.choice(["iso", "z2", "idem"])](), f"{prefix}g.")
        if C is not None and len(C.morphisms) <= max_morphisms and C.objects:
            return C
    return core.prefix_relabel(core.terminal(), prefix)


def random_functor_between(rng, C, D):
    """A random functor C -> D: random images, kept when the Functor
    validates, else tried again, up to 200 times."""
    objects = list(C.objects)
    non_id = [m for m in C.morphisms if not C.is_identity(m)]

    def attempt():
        ob_map = {}
        for x in objects:
            choices = list(D.objects)
            rng.shuffle(choices)
            ob_map[x] = choices[0]
        mor_map = {C.identity[x]: D.identity[ob_map[x]] for x in objects}
        for m in non_id:
            choices = list(D.hom(ob_map[C.src[m]], ob_map[C.tgt[m]]))
            if not choices:
                return None
            rng.shuffle(choices)
            mor_map[m] = choices[0]
        try:
            return Functor(C, D, ob_map, mor_map)
        except FunctorError:
            return None

    for _ in range(200):
        F = attempt()
        if F is not None:
            return F
    # constant functors always exist
    d = rng.choice(list(D.objects))
    return core.constant_functor(C, D, d)


# -- set-valued diagrams and profunctors ---------------------------------------


def _quotient_closure(uf, seeds, one_step_actions):
    """Close a relation under all one-step actions."""
    queue = list(seeds)
    for pair in queue:
        uf.union(*pair)
    while queue:
        x, y = queue.pop()
        for act in one_step_actions:
            for (x2, y2) in act(x, y):
                if uf.find(x2) != uf.find(y2):
                    uf.union(x2, y2)
                    queue.append((x2, y2))


def random_set_valued(rng, K, max_generators=3, quotient_p=0.4,
                      empty_p=0.15):
    """Coproduct of corepresentables with a random functorial quotient."""
    gens = []
    if rng.random() > empty_p:
        k = rng.randint(1, max_generators)
        gens = [rng.choice(list(K.objects)) for _ in range(k)]
    # element (i, m) for m a morphism out of gens[i]
    values = {x: [] for x in K.objects}
    for i, g in enumerate(gens):
        for m in K.morphisms_from(g):
            values[K.tgt[m]].append((i, m))
    keys = {x: {e: f"{e[0]}.{e[1]}" for e in values[x]} for x in K.objects}
    transports = {}
    for phi in K.morphisms:
        x, y = K.src[phi], K.tgt[phi]
        transports[phi] = {keys[x][(i, m)]: keys[y][(i, K.compose(phi, m))]
                           for (i, m) in values[x]}
    F = SetValuedFunctor(
        K, {x: tuple(sorted(keys[x].values())) for x in K.objects},
        transports).validate()
    if rng.random() < quotient_p:
        F = quotient_set_valued(rng, F)
    return F


def quotient_set_valued(rng, F):
    K = F.base
    pool = [(x, a, b) for x in K.objects
            for a in F.values[x] for b in F.values[x] if a < b]
    if not pool:
        return F
    uf = UnionFind((x, a) for x in K.objects for a in F.values[x])
    seeds = []
    for _ in range(rng.randint(1, 2)):
        x, a, b = rng.choice(pool)
        seeds.append(((x, a), (x, b)))

    def act(p, q):
        (x, a), (_, b) = p, q
        out = []
        for m in K.morphisms_from(x):
            y = K.tgt[m]
            out.append(((y, F.transports[m][a]), (y, F.transports[m][b])))
        return out

    _quotient_closure(uf, seeds, [act])
    cls = uf.class_map()
    rep = {x: {} for x in K.objects}
    for x in K.objects:
        for a in F.values[x]:
            rep[x][a] = cls[(x, a)][1]
    values = {x: tuple(sorted(set(rep[x].values()))) for x in K.objects}
    transports = {}
    for m in K.morphisms:
        x, y = K.src[m], K.tgt[m]
        transports[m] = {rep[x][a]: rep[y][F.transports[m][a]]
                         for a in F.values[x]}
    return SetValuedFunctor(K, values, transports).validate()


def random_profunctor(rng, A, B, max_generators=3, quotient_p=0.4,
                      empty_p=0.1):
    """Random bimodule: quotient of a coproduct of representables
    Hom_A(-, a0) x Hom_B(b0, -)."""
    gens = []
    if rng.random() > empty_p:
        for i in range(rng.randint(1, max_generators)):
            gens.append((rng.choice(list(A.objects)),
                         rng.choice(list(B.objects))))
    elements = {(a, b): [] for a in A.objects for b in B.objects}
    for i, (a0, b0) in enumerate(gens):
        for alpha in A.morphisms_to(a0):
            for beta in B.morphisms_from(b0):
                elements[(A.src[alpha], B.tgt[beta])].append((i, alpha, beta))
    key = {}
    for (a, b), els in elements.items():
        for e in els:
            key[(a, b, e)] = f"{e[0]}.{e[1]}.{e[2]}"
    lact = {}
    for gamma in A.morphisms:
        a1, a0 = A.src[gamma], A.tgt[gamma]
        for b in B.objects:
            lact[(gamma, b)] = {
                key[(a0, b, e)]: key[(a1, b, (e[0], A.compose(e[1], gamma), e[2]))]
                for e in elements[(a0, b)]}
    ract = {}
    for delta in B.morphisms:
        b0, b1 = B.src[delta], B.tgt[delta]
        for a in A.objects:
            ract[(a, delta)] = {
                key[(a, b0, e)]: key[(a, b1, (e[0], e[1], B.compose(delta, e[2])))]
                for e in elements[(a, b0)]}
    P = Profunctor(
        A, B,
        {(a, b): tuple(sorted(key[(a, b, e)] for e in els))
         for (a, b), els in elements.items()},
        lact, ract).validate()
    if rng.random() < quotient_p:
        P = quotient_profunctor(rng, P)
    return P


def quotient_profunctor(rng, P, max_relations=2, with_classmap=False):
    A, B = P.source, P.target
    pool = [(a, b, x, y) for (a, b), els in P.elements.items()
            for x in els for y in els if x < y]
    if not pool:
        return (P, {(a, b, x): x for (a, b), els in P.elements.items()
                    for x in els}) if with_classmap else P
    uf = UnionFind((a, b, x) for (a, b), els in P.elements.items() for x in els)
    seeds = []
    for _ in range(rng.randint(1, max_relations)):
        a, b, x, y = rng.choice(pool)
        seeds.append((((a, b, x)), ((a, b, y))))

    def act(p, q):
        (a, b, x), (_, _, y) = p, q
        out = []
        for alpha in A.morphisms_to(a):
            a1 = A.src[alpha]
            out.append(((a1, b, P.lact[(alpha, b)][x]),
                        (a1, b, P.lact[(alpha, b)][y])))
        for beta in B.morphisms_from(b):
            b1 = B.tgt[beta]
            out.append(((a, b1, P.ract[(a, beta)][x]),
                        (a, b1, P.ract[(a, beta)][y])))
        return out

    _quotient_closure(uf, seeds, [act])
    cls = uf.class_map()
    rep = {(a, b, x): cls[(a, b, x)][2] for (a, b, x) in uf.parent}
    elements = {}
    for (a, b), els in P.elements.items():
        elements[(a, b)] = tuple(sorted({rep[(a, b, x)] for x in els}))
    lact = {}
    for (alpha, b), t in P.lact.items():
        a0, a1 = P.source.tgt[alpha], P.source.src[alpha]
        lact[(alpha, b)] = {rep[(a0, b, x)]: rep[(a1, b, y)]
                            for x, y in t.items()}
    ract = {}
    for (a, beta), t in P.ract.items():
        b0, b1 = P.target.src[beta], P.target.tgt[beta]
        ract[(a, beta)] = {rep[(a, b0, x)]: rep[(a, b1, y)]
                           for x, y in t.items()}
    Q = Profunctor(A, B, elements, lact, ract).validate()
    return (Q, rep) if with_classmap else Q


def random_composable_profunctors(rng, max_objects=2, max_morphisms=6,
                                  max_generators=2):
    """(P01, P12) over disjointly named small categories, glue-ready."""
    A = random_category(rng, max_objects, max_morphisms, prefix="a.")
    B = random_category(rng, max_objects, max_morphisms, prefix="b.")
    C = random_category(rng, max_objects, max_morphisms, prefix="c.")
    P01 = random_profunctor(rng, A, B, max_generators=max_generators)
    P12 = random_profunctor(rng, B, C, max_generators=max_generators)
    return P01, P12


# -- categories over small bases ------------------------------------------------


def category_over_2(P01, P12, P02, pairing):
    """The category over [2] presented by two side bimodules, an outer
    bimodule, and an action-bilinear pairing (b, x01, x12) -> P02 element.

    With P02 the coend and the class pairing this is the glued pushout;
    other choices realize non-exponentiable functors over [2].
    """
    return corrs.glue(
        core.interval(2),
        {"0": P01.source, "1": P01.target, "2": P12.target},
        {"0->1": (P01, corrs.collage_cross_id),
         "1->2": (P12, corrs.collage_cross_id),
         "0->2": (P02, lambda a, c, z: f"{z}::{a}>{c}")},
        {("0->1", "1->2"): pairing})


def random_functor_over_1(rng, max_objects=2, max_morphisms=5,
                          max_generators=2):
    """Every category over [1] is a collage; sample one."""
    A = random_category(rng, max_objects, max_morphisms, prefix="a.")
    B = random_category(rng, max_objects, max_morphisms, prefix="b.")
    P = random_profunctor(rng, A, B, max_generators=max_generators)
    c = corrs.collage(P)
    return c.projection


def random_functor_over_2(rng, max_objects=2, max_morphisms=5,
                          max_generators=2):
    """A category over [2]: glued coend (exponentiable), or the coend with
    extra outer elements (empty factorizations), or with collapsed outer
    classes (disconnected factorizations)."""
    P01, P12 = random_composable_profunctors(
        rng, max_objects, max_morphisms, max_generators)
    coend, class_of = corrs.compose_prof(P01, P12)
    flavor = rng.random()
    if flavor < 0.45:
        P02 = coend
        return category_over_2(P01, P12, P02,
                               lambda a, c, b, x, y: class_of[(a, c, b, x, y)])
    if flavor < 0.75:
        P02 = _with_extra_outer(rng, coend)
        return category_over_2(P01, P12, P02,
                               lambda a, c, b, x, y: class_of[(a, c, b, x, y)])
    P02q, collapse = quotient_profunctor(rng, coend, max_relations=1,
                                         with_classmap=True)
    return category_over_2(
        P01, P12, P02q,
        lambda a, c, b, x, y: collapse[(a, c, class_of[(a, c, b, x, y)])])


def _with_extra_outer(rng, P02):
    """Disjointly add a free corepresentable part to the outer bimodule."""
    A, C = P02.source, P02.target
    extra = random_profunctor(rng, A, C, max_generators=1, quotient_p=0,
                              empty_p=0)
    elements = {}
    for key in P02.elements:
        elements[key] = tuple(sorted(
            P02.elements[key] + tuple(f"x.{e}" for e in extra.elements[key])))
    lact = {}
    for (alpha, c), t in P02.lact.items():
        merged = dict(t)
        for x, y in extra.lact[(alpha, c)].items():
            merged[f"x.{x}"] = f"x.{y}"
        lact[(alpha, c)] = merged
    ract = {}
    for (a, gamma), t in P02.ract.items():
        merged = dict(t)
        for x, y in extra.ract[(a, gamma)].items():
            merged[f"x.{x}"] = f"x.{y}"
        ract[(a, gamma)] = merged
    return Profunctor(A, C, elements, lact, ract).validate()


def random_functor_over(rng, K):
    """A random functor into an arbitrary small base: the Grothendieck
    construction of a random set-valued diagram, a product projection, or
    a fiberwise-relabelled mix."""
    kind = rng.random()
    if kind < 0.5:
        F = random_set_valued(rng, K, max_generators=2, empty_p=0.1)
        return transport.unstraighten(F)
    if kind < 0.8:
        C = random_category(rng, 2, 4, prefix="f.")
        P, pr1, pr2 = core.product_projections(C, K)
        return pr2
    J = random_category(rng, 3, 7, prefix="j.")
    return random_functor_between(rng, J, K)


# -- final functors and two-handed fibrations -----------------------------------


def random_final_functor(rng, max_objects=3):
    """A functor final by construction: the point at an adjoined top
    element (a right adjoint), a tail inclusion into a chain (reflective),
    or the projection off a product with [1] (a localization, so final and
    initial at once)."""
    kind = rng.random()
    if kind < 0.4:
        D = _adjoin_top(random_poset(rng, max_objects, prefix="d"), "dtop")
        return core.point(D, "dtop")
    if kind < 0.7:
        C = random_category(rng, max_objects, 7, prefix="c.")
        P, pr1, pr2 = core.product_projections(C, core.interval(1))
        return pr1
    n = rng.randint(1, max_objects)
    i = rng.randint(0, n)
    In = core.interval(n)
    tail = core.full_subcategory(In, [str(k) for k in range(i, n + 1)])
    return core.inclusion_functor(tail, In)


def _adjoin_top(D, top):
    objects = list(D.objects) + [top]
    morphisms = list(D.morphism_triples()) + [(f"{top}.id", top, top)]
    for x in D.objects:
        morphisms.append((f"{x}>{top}", x, top))
    identities = {**D.identity, top: f"{top}.id"}
    composition = dict(D.composition_table())
    composition[(f"{top}.id", f"{top}.id")] = f"{top}.id"
    for x in D.objects:
        composition[(f"{top}.id", f"{x}>{top}")] = f"{x}>{top}"
        for m in D.morphisms_to(x):
            composition[(f"{x}>{top}", m)] = f"{D.src[m]}>{top}"
    for x in D.objects:
        composition[(f"{x}>{top}", D.identity[x])] = f"{x}>{top}"
    return FiniteCategory(objects, morphisms, identities, composition)


def random_two_handed_fibration(rng):
    """A fibration that is both left final and right initial: a product
    projection or the Grothendieck construction of a diagram with
    bijective transports."""
    K = random_poset(rng, 3, prefix="k")
    if rng.random() < 0.5:
        C = random_category(rng, 2, 5, prefix="f.")
        P, pr1, pr2 = core.product_projections(C, K)
        return pr2
    # discarded, but drawn so that rng stays where seeded samples expect it
    random_set_valued(rng, K, max_generators=2, quotient_p=0, empty_p=0)
    # bijective transports: value sets of one size, matched by index
    n = rng.randint(1, 2)
    values = {x: tuple(f"{x}#{i}" for i in range(n)) for x in K.objects}
    transports = {m: {f"{K.src[m]}#{i}": f"{K.tgt[m]}#{i}" for i in range(n)}
                  for m in K.morphisms}
    return transport.unstraighten(
        SetValuedFunctor(K, values, transports).validate())
