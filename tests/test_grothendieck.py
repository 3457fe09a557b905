"""`transport`'s Grothendieck constructions against the ones they replaced.

The oracles below are the bodies of `unstraighten`, `unstraighten_cat`
and `straighten_cocart` from before the set- and category-valued
constructions became one kernel: each builds its own table (the
category-valued one composes by a loop over all pairs of morphisms) and
`straighten_cocart` searches its fillers three times.  Over seeded
draws, on posets and on bases with isomorphisms, idempotents and
cyclic groups, the new constructions must give byte-identical
documents; the documents of all draws are pinned by SHA-256 digests.
"""

import hashlib
import random

from fibcat import core, documents as docs, fibrations, randgen, transport
from fibcat.core import FiniteCategory, Functor, PreconditionError, pair_id
from fibcat.fibrations import InternalInvariantError
from fibcat.transport import CatValuedFunctor, CleavageReport


# -- the oracles ----------------------------------------------------------------


def oracle_unstraighten(F):
    F.validate()
    K = F.base
    objects = []
    for x in K.objects:
        for a in F.values[x]:
            objects.append(pair_id(x, a))
    morphisms = []
    for m in K.morphisms:
        x, y = K.src[m], K.tgt[m]
        for a in F.values[x]:
            morphisms.append((f"({m}@{a})", pair_id(x, a),
                              pair_id(y, F.transports[m][a])))
    identities = {pair_id(x, a): f"({K.identity[x]}@{a})"
                  for x in K.objects for a in F.values[x]}
    composition = {}
    for m in K.morphisms:
        for m2 in K.morphisms:
            if K.tgt[m] != K.src[m2]:
                continue
            comp = K.compose(m2, m)
            for a in F.values[K.src[m]]:
                composition[(f"({m2}@{F.transports[m][a]})", f"({m}@{a})")] = \
                    f"({comp}@{a})"
    total = FiniteCategory(objects, morphisms, identities, composition,
                           _validate=False)
    ob_map = {}
    mor_map = {}
    for x in K.objects:
        for a in F.values[x]:
            ob_map[pair_id(x, a)] = x
    for m in K.morphisms:
        for a in F.values[K.src[m]]:
            mor_map[f"({m}@{a})"] = m
    proj = Functor(total, K, ob_map, mor_map)
    v = fibrations.is_strict_discrete_opfibration(proj)
    if not v.ok:
        raise InternalInvariantError(f"unstraightening not discrete: {v.witness}")
    return proj


def oracle_cat_mor_id(phi, e, rho, identity_rho):
    return f"({phi}@{e})" if rho == identity_rho else f"({phi}@{e};{rho})"


def oracle_unstraighten_cat(F):
    F.validate()
    K = F.base
    objects = []
    for x in K.objects:
        for e in F.values[x].objects:
            objects.append(pair_id(x, e))
    morphisms = []
    data = {}
    for phi in K.morphisms:
        x, y = K.src[phi], K.tgt[phi]
        T = F.transports[phi]
        fib_y = F.values[y]
        for e in F.values[x].objects:
            te = T.ob_map[e]
            for rho in fib_y.morphisms_from(te):
                m = oracle_cat_mor_id(phi, e, rho, fib_y.identity[te])
                morphisms.append((m, pair_id(x, e), pair_id(y, fib_y.tgt[rho])))
                data[m] = (phi, e, rho)
    identities = {}
    for x in K.objects:
        fib = F.values[x]
        for e in fib.objects:
            identities[pair_id(x, e)] = oracle_cat_mor_id(
                K.identity[x], e, fib.identity[e], fib.identity[e])
    composition = {}
    for m, o1, o2 in morphisms:
        phi, e, rho = data[m]
        y = K.tgt[phi]
        for m2, o2b, o3 in morphisms:
            if o2b != o2:
                continue
            psi, e2, sigma = data[m2]
            if K.src[psi] != y:
                continue
            comp = K.compose(psi, phi)
            z = K.tgt[psi]
            T_psi = F.transports[psi]
            fib_z = F.values[z]
            rho_pushed = T_psi.mor_map[rho]
            total_rho = fib_z.compose(sigma, rho_pushed)
            te = F.transports[comp].ob_map[e]
            composition[(m2, m)] = oracle_cat_mor_id(
                comp, e, total_rho, fib_z.identity[te])
    total = FiniteCategory(objects, morphisms, identities, composition)
    proj = Functor(total, K,
                   {o: o_x for o, o_x in
                    ((pair_id(x, e), x) for x in K.objects
                     for e in F.values[x].objects)},
                   {m: data[m][0] for m, _, _ in morphisms})
    v = fibrations.is_cocartesian_fibration(proj)
    if not v.ok:
        raise InternalInvariantError(f"unstraightening not coCartesian: {v.witness}")
    return proj


def oracle_straighten_cocart(pi):
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
        x, y = K.src[phi], K.tgt[phi]
        fib_x, fib_y = fibers[x], fibers[y]
        ob_map = {e: E.tgt[chosen[(e, phi)]] for e in fib_x.objects}
        mor_map = {}
        for vmor in fib_x.morphisms:
            e, e2 = fib_x.src[vmor], fib_x.tgt[vmor]
            want = E.compose(chosen[(e2, phi)], vmor)
            fillers = [w for w in E.hom(ob_map[e], ob_map[e2])
                       if pi.mor_map[w] == K.identity[y]
                       and E.compose(w, chosen[(e, phi)]) == want]
            if len(fillers) != 1:
                raise InternalInvariantError(
                    f"coCartesian filler not unique for {vmor} over {phi}")
            mor_map[vmor] = fillers[0]
        return Functor(fib_x, fib_y, ob_map, mor_map)

    transports = {phi: transport_of(phi) for phi in K.morphisms}
    comparisons = {}
    split = True
    for phi in K.morphisms:
        for psi in K.morphisms:
            if K.tgt[phi] != K.src[psi]:
                continue
            comp = K.compose(psi, phi)
            z = K.tgt[psi]
            for e in fibers[K.src[phi]].objects:
                via = E.compose(chosen[(E.tgt[chosen[(e, phi)]], psi)],
                                chosen[(e, phi)])
                direct = chosen[(e, comp)]
                fillers = [w for w in E.hom(E.tgt[direct], E.tgt[via])
                           if pi.mor_map[w] == K.identity[z]
                           and E.compose(w, direct) == via]
                if len(fillers) != 1:
                    raise InternalInvariantError(
                        f"comparison not unique over ({psi},{phi}) at {e}")
                w = fillers[0]
                comparisons[(phi, psi, e)] = w
                if not E.is_iso(w):
                    raise InternalInvariantError(
                        f"comparison over ({psi},{phi}) at {e} is not invertible")
                if w != E.identity[E.tgt[direct]]:
                    split = False
    _oracle_check_cleavage_cocycle(pi, K, E, fibers, chosen, transports,
                                   comparisons)
    report = CleavageReport(chosen, comparisons, split)
    if not split:
        return None, report
    F = CatValuedFunctor(K, fibers, transports).validate()
    return F, report


def _oracle_check_cleavage_cocycle(pi, K, E, fibers, chosen, transports,
                                   comparisons):
    for phi in K.morphisms:
        for psi in K.morphisms:
            if K.tgt[phi] != K.src[psi]:
                continue
            for chi in K.morphisms:
                if K.tgt[psi] != K.src[chi]:
                    continue
                psiphi = K.compose(psi, phi)
                chipsi = K.compose(chi, psi)
                for e in fibers[K.src[phi]].objects:
                    one = E.compose(
                        _oracle_push_vertical(pi, E, K, chosen, chi,
                                              comparisons[(phi, psi, e)]),
                        comparisons[(psiphi, chi, e)])
                    other = E.compose(
                        comparisons[(psi, chi, transports[phi].ob_map[e])],
                        comparisons[(phi, chipsi, e)])
                    if one != other:
                        raise InternalInvariantError(
                            f"cleavage cocycle fails on ({chi},{psi},{phi}) at {e}")


def _oracle_push_vertical(pi, E, K, chosen, chi, w):
    e, e2 = E.src[w], E.tgt[w]
    z = K.tgt[chi]
    want = E.compose(chosen[(e2, chi)], w)
    fillers = [u for u in E.hom(E.tgt[chosen[(e, chi)]], E.tgt[chosen[(e2, chi)]])
               if pi.mor_map[u] == K.identity[z]
               and E.compose(u, chosen[(e, chi)]) == want]
    if len(fillers) != 1:
        raise InternalInvariantError("transport of a vertical morphism not unique")
    return fillers[0]


# -- draws ----------------------------------------------------------------------


def random_base(rng, i):
    """A poset one time in four; otherwise a random category (free,
    mixed, or with isomorphisms or idempotents) or one of Z/2, Z/3, the
    walking isomorphism, the idempotent and the retraction."""
    kind = i % 4
    if kind == 0:
        return randgen.random_poset(rng, 3, prefix="k")
    if kind == 1:
        return randgen.random_category(rng, 3, 7, prefix="k.")
    if kind == 2:
        return core.prefix_relabel(rng.choice([
            lambda: core.cyclic_group_category(2),
            lambda: core.cyclic_group_category(3),
            core.walking_isomorphism, core.idempotent_category,
            core.retract_category])(), "k.")
    return randgen.random_category(rng, 2, 5, prefix="k.")


def codiscrete_times(C, S):
    """C times the codiscrete category on the set S: one morphism a>b
    for every pair of elements."""
    objects = [f"{c}/{a}" for c in C.objects for a in S]
    morphisms = [(f"{u}/{a}>{b}", f"{C.src[u]}/{a}", f"{C.tgt[u]}/{b}")
                 for u in C.morphisms for a in S for b in S]
    identities = {f"{c}/{a}": f"{C.identity[c]}/{a}>{a}"
                  for c in C.objects for a in S}
    composition = {(f"{v}/{b}>{d}", f"{u}/{a}>{b}"): f"{C.compose(v, u)}/{a}>{d}"
                   for u in C.morphisms for v in C.morphisms_from(C.tgt[u])
                   for a in S for b in S for d in S}
    return FiniteCategory(objects, morphisms, identities, composition)


def random_cat_valued(rng, K):
    """C times the codiscrete category on a random set-valued G, with
    transports id_C times G: over a cyclic group the generator permutes
    the copies of C, an automorphism of the fiber."""
    G = randgen.random_set_valued(rng, K, max_generators=2, empty_p=0.1)
    C = randgen.random_category(rng, 2, 4, prefix="c.")
    values = {x: codiscrete_times(C, G.values[x]) for x in K.objects}
    transports = {}
    for m in K.morphisms:
        t = G.transports[m]
        transports[m] = Functor(
            values[K.src[m]], values[K.tgt[m]],
            {f"{c}/{a}": f"{c}/{t[a]}" for c in C.objects for a in t},
            {f"{u}/{a}>{b}": f"{u}/{t[a]}>{t[b]}"
             for u in C.morphisms for a in t for b in t})
    return CatValuedFunctor(K, values, transports)


def shuffled_names(rng, pi):
    """pi with a random letter before each morphism id, so that the least
    coCartesian lifts need not compose to least lifts: non-split
    cleavages."""
    E = pi.source
    names = {m: rng.choice("xyz") + m for m in E.morphisms}
    total = core.relabel(E, {}, names)
    return Functor(total, pi.target, pi.ob_map,
                   {names[m]: phi for m, phi in pi.mor_map.items()})


def _doc(F):
    return docs.dumps(docs.functor_to_doc(F))


def _cleavage_doc(result):
    G, report = result
    doc = {"chosen": sorted([*key, w] for key, w in report.chosen_lifts.items()),
           "comparisons": sorted([*key, w]
                                 for key, w in report.comparisons.items()),
           "split": report.split}
    if G is not None:
        doc["values"] = {x: docs.category_to_doc(C)
                         for x, C in sorted(G.values.items())}
        doc["transports"] = {m: docs.functor_to_doc(T)
                             for m, T in sorted(G.transports.items())}
    return docs.dumps(doc)


DRAWS = 300


def _set_valued_draws():
    for i in range(DRAWS):
        rng = random.Random(f"grothendieck:set:{i}")
        K = random_base(rng, i)
        yield K, randgen.random_set_valued(rng, K)


def _cat_valued_draws():
    for i in range(DRAWS):
        rng = random.Random(f"grothendieck:cat:{i}")
        K = random_base(rng, i)
        yield K, random_cat_valued(rng, K)


def _is_poset(K):
    return all(len(K.hom(a, b)) <= 1 and (a == b or not K.hom(b, a))
               for a in K.objects for b in K.objects)


def _digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


DIGESTS = {
    "set": "43622920f4c193b12405c1ab053f46cf3f8c35205bbe0bfc0c5423cdd10a58a6",
    "cat": "b1a07e4b86a81b8f5d5f768f60773fa8cf5ced2d9b89981192ff85cf4ba802be",
    "cleavage": "9a2f4aca1fb6b66a6b3f7214f8486b9aace99d098abdd55d233e63fb4c7e1002",
}


class TestOneGrothendieckKernel:
    def test_set_valued_matches_its_oracle(self):
        texts, non_posets = [], 0
        for K, F in _set_valued_draws():
            got = _doc(transport.unstraighten(F))
            assert got == _doc(oracle_unstraighten(F))
            texts.append(got)
            non_posets += not _is_poset(K)
        assert non_posets >= DRAWS // 2
        assert _digest(texts) == DIGESTS["set"]

    def test_cat_valued_matches_its_oracle(self):
        texts, non_posets = [], 0
        for K, F in _cat_valued_draws():
            got = _doc(transport.unstraighten_cat(F))
            assert got == _doc(oracle_unstraighten_cat(F))
            texts.append(got)
            non_posets += not _is_poset(K)
        assert non_posets >= DRAWS // 2
        assert _digest(texts) == DIGESTS["cat"]

    def test_set_valued_is_cat_valued_on_discrete_values(self):
        for i, (K, F) in enumerate(_set_valued_draws()):
            if i % 3:
                continue
            values = {x: core.discrete_category(F.values[x])
                      for x in K.objects}
            transports = {
                m: Functor(values[K.src[m]], values[K.tgt[m]], t,
                           {f"id_{a}": f"id_{b}" for a, b in t.items()})
                for m, t in F.transports.items()}
            assert _doc(transport.unstraighten(F)) == _doc(
                transport.unstraighten_cat(CatValuedFunctor(K, values,
                                                            transports)))

    def test_cleavages_match_their_oracle(self):
        texts, split = [], {True: 0, False: 0}
        for i, (K, F) in enumerate(_cat_valued_draws()):
            proj = shuffled_names(random.Random(f"grothendieck:names:{i}"),
                                  transport.unstraighten_cat(F))
            result = transport.straighten_cocart(proj)
            got = _cleavage_doc(result)
            assert got == _cleavage_doc(oracle_straighten_cocart(proj))
            texts.append(got)
            split[result[1].split] += 1
        assert split[True] >= 100 and split[False] >= 20
        for i in range(60):
            rng = random.Random(f"grothendieck:cleavage:{i}")
            pi = randgen.random_functor_over(rng, random_base(rng, i))
            if not fibrations.is_cocartesian_fibration(pi).ok:
                pi = transport.cocart_replacement(pi).projection
            got = _cleavage_doc(transport.straighten_cocart(pi))
            assert got == _cleavage_doc(oracle_straighten_cocart(pi))
            texts.append(got)
        assert _digest(texts) == DIGESTS["cleavage"]
