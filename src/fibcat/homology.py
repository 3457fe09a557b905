"""Truncated nerves, integral homology, and finality certificates.

The nerve of a finite category is truncated at a chosen dimension and its
normalized (identity-free) chain complex is reduced by Smith normal form
over exact integers.  Cofinality, the end checks of fibrations and
set-valued colimits all read categories of elements, decided by one
union-find: exact π0-level verdicts (nonempty and connected), and
bounded-degree contractibility certificates on the categories that pass.
A certificate up to degree d never claims anything beyond degree d.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import compress

from . import core
from .core import PreconditionError
from .unionfind import UnionFind


class MatrixCapExceeded(RuntimeError):
    pass


_MATRIX_CAP = 4_000_000  # entries per boundary matrix


# -- truncated nerve ------------------------------------------------------


@dataclass
class TruncatedNerve:
    category: object
    max_dim: int
    # simplices[k] for k in 0..max_dim+1; a k-simplex is a tuple of k
    # composable non-identity morphisms (objects in dimension 0)
    simplices: list
    # faces[k][i] = tuple of row indices into simplices[k-1], or -1 when the
    # face is degenerate (an inner composition produced an identity)
    faces: list

    def counts(self):
        return [len(s) for s in self.simplices]


def _chain_faces(C, chain):
    """All faces of a composable chain (a tuple), as raw chains (before
    normalizing)."""
    out = [chain[1:]]
    for i in range(1, len(chain)):
        comp = C.compose(chain[i], chain[i - 1])
        out.append(chain[:i - 1] + (comp,) + chain[i + 1:])
    out.append(chain[:-1])
    return out


def nerve(C, d):
    """Identity-free composable chains of length <= d+1, with face maps."""
    if d < 0:
        raise PreconditionError("nerve requires d >= 0")
    non_id = C.non_identity_morphisms()
    leaving = {}  # object -> non-identity morphisms out of it
    for m in non_id:
        leaving.setdefault(C.src[m], []).append(m)
    simplices = [tuple(sorted(C.objects))]
    for k in range(1, d + 2):
        if k == 1:
            chains = [(m,) for m in sorted(non_id)]
        else:
            chains = [chain + (m,) for chain in simplices[k - 1]
                      for m in leaving.get(C.tgt[chain[-1]], ())]
            chains.sort()
        simplices.append(tuple(chains))
    index = [{s: i for i, s in enumerate(level)} for level in simplices]
    faces = [None]
    for k in range(1, d + 2):
        level_faces = []
        for chain in simplices[k]:
            row = []
            for i, face in enumerate(_chain_faces(C, chain)):
                if k == 1:
                    # faces of a 1-simplex are its endpoint objects
                    target = C.tgt[chain[0]] if i == 0 else C.src[chain[0]]
                    row.append(index[0][target])
                    continue
                # a chain holds no identities, so only the composite made
                # by an inner face can be one
                if 0 < i < k and C.is_identity(face[i - 1]):
                    row.append(-1)
                else:
                    row.append(index[k - 1][face])
            level_faces.append(tuple(row))
        faces.append(level_faces)
    nrv = TruncatedNerve(C, d, simplices, faces)
    _check_face_relations(C, nrv)
    return nrv


def _check_face_relations(C, nrv):
    # d_i d_j = d_{j-1} d_i (i < j), verified on raw chains so that the
    # identities hold before normalization
    for k in range(2, nrv.max_dim + 2):
        for chain in nrv.simplices[k]:
            ffs = [_faces_of_face(C, face) for face in _chain_faces(C, chain)]
            for j in range(1, k + 1):
                for i in range(j):
                    if ffs[j][i] != ffs[i][j - 1]:
                        raise AssertionError(
                            f"face relation fails on {chain} (i={i}, j={j})")


def _faces_of_face(C, chain):
    if len(chain) == 1:
        return [C.tgt[chain[0]], C.src[chain[0]]]
    return _chain_faces(C, chain)


def boundary_matrix(nrv, k):
    """The k-th boundary of the normalized complex, rows = (k-1)-simplices."""
    rows = len(nrv.simplices[k - 1])
    cols = len(nrv.simplices[k])
    if rows * cols > _MATRIX_CAP:
        raise MatrixCapExceeded(f"boundary matrix {rows}x{cols} exceeds cap")
    M = [[0] * cols for _ in range(rows)]
    for j in range(cols):
        for i, r in enumerate(nrv.faces[k][j]):
            if r >= 0:
                M[r][j] += -1 if i % 2 else 1
    return M


# -- Smith normal form over the integers ----------------------------------


def smith_normal_form(M):
    """Invariant factors of an integer matrix (d1 | d2 | ...), all positive.

    The matrix is read into sparse columns and reduced on unit pivots
    first.  Each ±1 entry, taken in order of least Markowitz cost (the
    other entries of its column times the other entries of its row), is
    eliminated from the other columns of its row; its row and column are
    then dropped and contribute an invariant factor 1.  The block left when
    no unit entry remains, which carries all the torsion, goes to a dense
    Smith normal form.  All arithmetic is exact.
    """
    cols = {}  # column -> {row: nonzero value}
    rows = {}  # row -> columns with a nonzero entry in that row
    indices = list(range(len(M[0]) if M else 0))
    for i, row in enumerate(M):
        support = list(compress(indices, row))
        if support:
            rows[i] = set(support)
            for j in support:
                cols.setdefault(j, {})[i] = row[j]
    units = 0
    while True:
        # unit entries created by fill-in wait for the next scan
        heap = [((len(col) - 1) * (len(rows[i]) - 1), i, j)
                for j, col in cols.items() for i, v in col.items()
                if v == 1 or v == -1]
        if not heap:
            break
        heapify(heap)
        while heap:
            cost, p, q = heappop(heap)
            pivot_col = cols.get(q)
            u = pivot_col.get(p) if pivot_col is not None else None
            if u != 1 and u != -1:
                continue  # eliminated or changed since it was queued
            now = (len(pivot_col) - 1) * (len(rows[p]) - 1)
            if now > cost:
                heappush(heap, (now, p, q))
                continue
            _eliminate_unit(cols, rows, p, q)
            units += 1
    residual_rows = sorted(set().union(*cols.values()))
    residual = [[col.get(r, 0) for col in cols.values()]
                for r in residual_rows]
    return [1] * units + _dense_smith_normal_form(residual)


def _eliminate_unit(cols, rows, p, q):
    """Clear row p outside the unit pivot (p, q), then drop row p and
    column q."""
    pivot_col = cols.pop(q)
    u = pivot_col.pop(p)
    pivot_row = rows.pop(p)
    pivot_row.discard(q)
    for r in pivot_col:
        rows[r].discard(q)
    entries = pivot_col.items()
    for j in pivot_row:
        col = cols[j]
        f = col.pop(p) * u
        for r, v in entries:
            old = col.get(r)
            if old is None:
                col[r] = -f * v
                rows[r].add(j)
            else:
                w = old - f * v
                if w:
                    col[r] = w
                else:
                    del col[r]
                    rows[r].discard(j)
        if not col:
            del cols[j]


def _dense_smith_normal_form(M):
    """Invariant factors of a dense integer matrix (d1 | d2 | ...).

    Pivots are chosen by minimal absolute value; all arithmetic is exact.
    """
    A = [row[:] for row in M]
    m = len(A)
    n = len(A[0]) if m else 0
    divisors = []
    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = A[i][j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        i0, j0 = pivot
        A[t], A[i0] = A[i0], A[t]
        for row in A:
            row[t], row[j0] = row[j0], row[t]
        while True:
            # clear the pivot column
            done = True
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    for j in range(t, n):
                        A[i][j] -= q * A[t][j]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        done = False
            if not done:
                continue
            # clear the pivot row
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    for i in range(t, m):
                        A[i][j] -= q * A[i][t]
                    if A[t][j]:
                        for row in A:
                            row[t], row[j] = row[j], row[t]
                        done = False
            if done:
                break
        # enforce divisibility of the remaining block by the pivot
        p = A[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(t, n):
                A[t][j] += A[offender][j]
            continue  # redo this pivot
        divisors.append(abs(p))
        t += 1
    return divisors


# -- homology reports ------------------------------------------------------


@dataclass
class HomologyReport:
    max_dim: int
    betti: list
    torsion: list  # per degree, sorted list of invariant factors > 1
    simplex_counts: list

    def reduced_trivial_up_to(self, d):
        """Reduced integral homology vanishes in degrees <= d."""
        if self.betti[0] != 1:
            return False
        for k in range(1, min(d, self.max_dim) + 1):
            if self.betti[k] != 0 or self.torsion[k]:
                return False
        return True

    def degree(self, k):
        return self.betti[k], tuple(self.torsion[k])


def homology(C, d):
    """Integral homology of the normalized nerve complex in degrees <= d."""
    nrv = nerve(C, d)
    return homology_of_nerve(nrv)


def homology_of_nerve(nrv):
    d = nrv.max_dim
    counts = nrv.counts()
    ranks = [0] * (d + 2)      # ranks[k] = rank of boundary_k
    tors = [[] for _ in range(d + 1)]
    for k in range(1, d + 2):
        divisors = smith_normal_form(boundary_matrix(nrv, k))
        ranks[k] = len(divisors)
        if k - 1 <= d:
            tors[k - 1] = sorted(v for v in divisors if v > 1)
    betti = []
    for k in range(d + 1):
        betti.append(counts[k] - ranks[k] - ranks[k + 1])
    return HomologyReport(d, betti, tors, counts[:d + 1])


def pi0(C):
    """Connected components as sorted tuples of object ids."""
    return core.connected_components(C)


def pi0_map(C):
    """Map each object to the least object of its component."""
    return _element_classes(C, {x: x for x in C.objects},
                            lambda u, x: C.tgt[u]).class_map()


# -- categories of elements and finality ---------------------------------


def _failed_certificate(C, d):
    """None when C passes the certificate up to degree d: it has an initial
    or a terminal object (so it is contractible), or its reduced homology
    vanishes up to d.  Otherwise the HomologyReport that fails."""
    if core._cone_point(C) is not None:
        return None
    rep = homology(C, d)
    return None if rep.reduced_trivial_up_to(d) else rep


def _element_classes(C, over, act):
    """Components of a category of elements, as a UnionFind: each element
    x lies over the object over[x] of C, and u out of over[x] takes x to
    act(u, x)."""
    uf = UnionFind(over)
    for x, c in over.items():
        for u in C._from[c]:
            uf.union(x, act(u, x))
    return uf


def _elements_verdict(C, over, act, cert_dim):
    """Is the category of elements (see _element_classes) nonempty and
    connected, and with cert_dim=d, does it pass the certificate up to d?
    Returns the verdict and its entry, with homology_ok when a certificate
    ran; only a certificate builds the category, x -> act(u, x) for each u.
    """
    uf = _element_classes(C, over, act)
    nonempty = len(over) > 0
    connected = nonempty and len({uf.find(x) for x in over}) == 1
    entry = {"nonempty": nonempty, "connected": connected}
    if not connected or cert_dim is None:
        return connected, entry
    cat = core.square_category(
        core.terminal(), C, {x: ("*", c, x) for x, c in over.items()},
        lambda x, _, u, x2: act(u, x) == x2)[0]
    entry["homology_ok"] = _failed_certificate(cat, cert_dim) is None
    return entry["homology_ok"], entry


@dataclass
class FinalityVerdict:
    per_object: dict     # object -> dict(nonempty, connected, homology_ok)
    ok: bool
    witness: object = None


def is_final(F, mode="pi0"):
    """Cofinality of F: C -> D.

    In pi0 mode the verdict is exact for set-valued colimits: at every
    object d, the category of elements of D(d, F-), which is the comma
    C^{d/}, must be nonempty and connected.  In certified(d) mode, each
    must additionally have trivial reduced homology up to degree d; the
    stronger verdict is a bounded certificate, not a proof of
    contractibility.
    """
    return _finality(F, mode)


def is_initial(F, mode="pi0"):
    """Finality of F^op: each comma C_{/d} is the opposite of the comma of
    F^op under d, with the same components, homology and cone points."""
    return _finality(core.opposite_functor(F), mode)


def _refuse_negative_degree(d):
    """Refuse a negative certificate degree; None means no certificate."""
    if d is not None and d < 0:
        raise PreconditionError(f"certificate degree must be >= 0, got {d}")


def _finality(F, mode):
    """Check the category of elements of D(d, F-) at every object d: the
    pairs (c, k: d -> F c), where u: c -> c' takes (c, k) to
    (c', F(u)∘k)."""
    cert_dim = mode[1] if isinstance(mode, tuple) else None
    _refuse_negative_degree(cert_dim)
    C, D, Fu = F.source, F.target, F.mor_map
    act = lambda u, ck: (C.tgt[u], D.compose(Fu[u], ck[1]))
    per_object, witness = {}, None
    for d in D.objects:
        over = {(c, k): c for c in C.objects
                for k in D.hom(d, F.ob_map[c])}
        good, per_object[d] = _elements_verdict(C, over, act, cert_dim)
        if not good and witness is None:
            witness = (d, per_object[d])
    return FinalityVerdict(per_object, witness is None, witness)


# -- set-valued diagrams and the colimit oracle ----------------------------


@dataclass
class SetValuedFunctor:
    """A functor from a finite category to finite sets.

    values[x] is a tuple of element ids; transports[m] maps values at the
    source of m to values at its target.
    """
    base: object
    values: dict
    transports: dict

    def validate(self):
        K = self.base
        for x in K.objects:
            if x not in self.values:
                raise PreconditionError(f"missing value set at {x}")
        for m in K.morphisms:
            t = self.transports.get(m)
            if t is None:
                raise PreconditionError(f"missing transport at {m}")
            if set(t) != set(self.values[K.src[m]]):
                raise PreconditionError(f"transport at {m} has wrong domain")
            if not set(t.values()) <= set(self.values[K.tgt[m]]):
                raise PreconditionError(f"transport at {m} has wrong codomain")
        for x in K.objects:
            i = K.identity[x]
            for a in self.values[x]:
                if self.transports[i][a] != a:
                    raise PreconditionError(f"identity transport fails at {x}")
        for f in K.morphisms:
            for g in K.morphisms:
                if K.tgt[f] != K.src[g]:
                    continue
                gf = K.compose(g, f)
                for a in self.values[K.src[f]]:
                    if self.transports[gf][a] != \
                            self.transports[g][self.transports[f][a]]:
                        raise PreconditionError(
                            f"functoriality fails on ({g},{f}) at {a}")
        return self

    def __eq__(self, other):
        if not isinstance(other, SetValuedFunctor):
            return NotImplemented
        return (self.base == other.base
                and {k: tuple(sorted(v)) for k, v in self.values.items()}
                == {k: tuple(sorted(v)) for k, v in other.values.items()}
                and self.transports == other.transports)


def set_colimit(G):
    """Set-level colimit: elements glued along all transports.

    Returns (classes, class_of) where class_of maps (object, element) to
    the representative of its class.
    """
    K = G.base
    uf = _element_classes(
        K, {(x, a): x for x in K.objects for a in G.values[x]},
        lambda m, xa: (K.tgt[m], G.transports[m][xa[1]]))
    return uf.classes(), uf.class_map()


def restrict_diagram(F, G):
    """G∘F for F: C -> D and G a set-valued diagram on D."""
    C = F.source
    return SetValuedFunctor(
        C,
        {x: tuple(G.values[F.ob_map[x]]) for x in C.objects},
        {m: dict(G.transports[F.mor_map[m]]) for m in C.morphisms},
    )


def colimit_comparison_is_bijective(F, G):
    """Is colim(G∘F) -> colim(G) a bijection?  Exact, set level."""
    _, cls_C = set_colimit(restrict_diagram(F, G))
    _, cls_D = set_colimit(G)
    image = {}
    for (x, a), rep in cls_C.items():
        target = cls_D[(F.ob_map[x], a)]
        if rep in image and image[rep] != target:
            return False  # not well-defined would be a bug; classes refine
        image[rep] = target
    if len(set(image.values())) != len(image):
        return False
    reps_D = set(cls_D.values())
    return set(image.values()) == reps_D


def set_limit(G):
    """Set-level limit: compatible families, as sorted tuples of pairs."""
    K = G.base
    objects = list(K.objects)
    families = []

    def backtrack(i, fam):
        if i == len(objects):
            families.append(tuple(sorted(fam.items())))
            return
        x = objects[i]
        for a in G.values[x]:
            fam[x] = a
            ok = True
            for m in K.morphisms:
                s, t = K.src[m], K.tgt[m]
                if s in fam and t in fam and G.transports[m][fam[s]] != fam[t]:
                    ok = False
                    break
            if ok:
                backtrack(i + 1, fam)
            del fam[x]

    backtrack(0, {})
    return sorted(families)


def all_set_valued_functors(K, max_size=2, include_empty=True, cap=None):
    """Every set-valued functor on K with value sets of size <= max_size."""
    cap = cap or core.enumeration_cap()
    sizes = range(0 if include_empty else 1, max_size + 1)
    objects = list(K.objects)
    non_id = [m for m in K.morphisms if not K.is_identity(m)]
    results = []
    budget = [cap]

    def assign_transports(values):
        transports = {K.identity[x]: {a: a for a in values[x]}
                      for x in objects}

        def backtrack(i):
            budget[0] -= 1
            if budget[0] < 0:
                raise core.EnumerationCapExceeded(
                    f"diagram enumeration exceeded cap {cap}")
            if i == len(non_id):
                cand = SetValuedFunctor(
                    K, {x: tuple(values[x]) for x in objects},
                    {m: dict(t) for m, t in transports.items()})
                try:
                    cand.validate()
                except PreconditionError:
                    return
                results.append(cand)
                return
            m = non_id[i]
            dom = values[K.src[m]]
            cod = values[K.tgt[m]]
            if dom and not cod:
                return
            for assignment in _all_maps(dom, cod):
                transports[m] = assignment
                backtrack(i + 1)
                del transports[m]

        backtrack(0)

    def assign_values(i, values):
        if i == len(objects):
            assign_transports(values)
            return
        x = objects[i]
        for n in sizes:
            values[x] = tuple(f"{x}#{j}" for j in range(n))
            assign_values(i + 1, values)
        del values[x]

    assign_values(0, {})
    return results


def _all_maps(dom, cod):
    if not dom:
        yield {}
        return
    import itertools
    for images in itertools.product(cod, repeat=len(dom)):
        yield dict(zip(dom, images))


# -- chain maps and Theorem B style checks ---------------------------------


def induced_chain_map(F, nrv_C, nrv_D):
    """Matrices of the map of normalized complexes induced by F: C -> D.

    A simplex whose image contains an identity maps to zero.
    """
    D = F.target
    maps = []
    for k in range(nrv_C.max_dim + 2):
        rows = {s: i for i, s in enumerate(nrv_D.simplices[k])}
        cols = nrv_C.simplices[k]
        M = [[0] * len(cols) for _ in range(len(rows))]
        for j, s in enumerate(cols):
            if k == 0:
                M[rows[F.ob_map[s]]][j] = 1
                continue
            image = tuple(F.mor_map[m] for m in s)
            if any(D.is_identity(m) for m in image):
                continue
            M[rows[image]][j] = 1
        maps.append(M)
    return maps


def theoremB_hypothesis(F, d):
    """For every base morphism, the induced map of slice categories is a
    homology isomorphism up to degree d.

    This certifies that slices are carried to equivalent classifying
    spaces; the conclusion above connected components is out of decidable
    reach and is not claimed.
    """
    C, D = F.source, F.target
    point_id = core.terminal().identity["*"]
    for phi in sorted(D.morphisms):
        if D.is_identity(phi):
            continue
        x, y = D.src[phi], D.tgt[phi]
        over_x, to_C_x, _, conn_x = core.comma_with_data(F, core.point(D, x))
        over_y, to_C_y, _ = core.comma(F, core.point(D, y))
        ob_map = {}
        mor_map = {}
        for o in over_x.objects:
            c = to_C_x.ob_map[o]
            ob_map[o] = core.comma_object_id(
                c, "*", D.compose(phi, conn_x[o]))
        for m in over_x.morphisms:
            u = to_C_x.mor_map[m]
            o1, o2 = over_x.src[m], over_x.tgt[m]
            mor_map[m] = core._square_id(u, point_id, ob_map[o1], ob_map[o2])
        post = core.Functor(over_x, over_y, ob_map, mor_map)
        if not chain_map_induces_homology_iso(post, d):
            return False, {"base_morphism": phi}
    return True, None


def quillenB_pi0_square(f, pi):
    """Is π0 of the pulled-back square a pullback of sets?

    Preconditions: pi must be both a left final and a right initial
    fibration, refused otherwise with the failing finality witness.
    """
    from . import fibrations
    # one exponentiability verdict serves both end checks, as in classify
    exponentiable = fibrations.is_exponentiable(pi)
    left = fibrations._end_fibration(pi, exponentiable, "1", None)
    if not left.ok:
        raise PreconditionError("right leg is not a left final fibration",
                                left.witness)
    right = fibrations._end_fibration(pi, exponentiable, "0", None)
    if not right.ok:
        raise PreconditionError("right leg is not a right initial fibration",
                                right.witness)
    if f.target != pi.target:
        raise PreconditionError("square legs have different targets")
    sq = core.pullback(f, pi)
    cls_Xp = pi0_map(sq.total)
    cls_X = pi0_map(pi.source)
    cls_Y = pi0_map(pi.target)
    cls_Yp = pi0_map(f.source)
    yp_of, x_of = sq.to_left.ob_map, sq.to_right.ob_map
    # both projections are functors, so each is constant on components
    corner = {}
    for o in sq.total.objects:
        corner[cls_Xp[o]] = (cls_Yp[yp_of[o]], cls_X[x_of[o]])
    matching = {(cls_Yp[yp], cls_X[x])
                for yp in f.source.objects for x in pi.source.objects
                if cls_Y[f.ob_map[yp]] == cls_Y[pi.ob_map[x]]}
    injective = len(set(corner.values())) == len(corner)
    surjective = set(corner.values()) == matching
    return {"pullback": injective and surjective,
            "corner_components": len(corner),
            "fiber_product_size": len(matching)}


def check_final_closure(rng, rounds=20):
    """Random-instance driver for the finality calculus laws.

    Verifies closure under composition (both cancellation directions),
    closure under products, and stability under pullback along the
    projection off a product.  Violations are reported with the instance.
    """
    from . import randgen, transport
    violations = []
    for i in range(rounds):
        f = randgen.random_final_functor(rng, max_objects=2)
        to_point = core.constant_functor(f.target, core.terminal(), "*")
        g = transport.rfib_replacement(to_point).unit
        if not is_final(f.then(g)).ok:
            violations.append(("composition", i))
        g2 = randgen.random_final_functor(rng, max_objects=2)
        P, p1, p2 = core.product_projections(f.source, g2.source)
        prod = core.pairing_functor(p1.then(f), p2.then(g2))
        if not is_final(prod).ok:
            violations.append(("product", i))
        C = randgen.random_category(rng, 2, 5, prefix="z.")
        Q, q1, q2 = core.product_projections(C, f.target)
        sq = core.pullback(f, q2)
        if not is_final(sq.to_right).ok:
            violations.append(("pullback", i))
    return violations


def _cone_boundary(nrv_C, nrv_D, fmaps, k):
    """Boundary of the mapping cone, cone_k = C_{k-1} + D_k."""
    counts_C = nrv_C.counts()
    counts_D = nrv_D.counts()
    nC1 = counts_C[k - 1] if k >= 1 else 0
    nD = counts_D[k] if k < len(counts_D) else 0
    nC2 = counts_C[k - 2] if k >= 2 else 0
    nD1 = counts_D[k - 1] if k >= 1 else 0
    M = [[0] * (nC1 + nD) for _ in range(nC2 + nD1)]
    if k >= 2:
        dC = boundary_matrix(nrv_C, k - 1)
        for i in range(nC2):
            for j in range(nC1):
                M[i][j] = -dC[i][j]
    if k >= 1:
        dD = boundary_matrix(nrv_D, k)
        for i in range(nD1):
            for j in range(nD):
                M[nC2 + i][nC1 + j] = dD[i][j]
        fm = fmaps[k - 1]
        for i in range(nD1):
            for j in range(nC1):
                M[nC2 + i][j] = -fm[i][j]
    return M


def chain_map_induces_homology_iso(F, d):
    """Certificate that F: C -> D is a homology isomorphism up to degree d.

    Checked via the mapping cone: the verdict is True when the cone has
    trivial homology in degrees <= d+1, which by the long exact sequence
    forces isomorphisms on H_k for k <= d.  The criterion is sound; it
    additionally demands surjectivity in degree d+1.
    """
    nrv_C = nerve(F.source, d + 1)
    nrv_D = nerve(F.target, d + 1)
    fmaps = induced_chain_map(F, nrv_C, nrv_D)
    counts_C = nrv_C.counts()
    counts_D = nrv_D.counts()
    top = d + 2
    divisors = {k: smith_normal_form(_cone_boundary(nrv_C, nrv_D, fmaps, k))
                for k in range(1, top + 1)}
    for k in range(0, d + 2):
        n_k = (counts_C[k - 1] if k >= 1 else 0) + counts_D[k]
        rank_out = len(divisors[k]) if k >= 1 else 0
        rank_in = len(divisors[k + 1]) if k + 1 <= top else 0
        betti = n_k - rank_out - rank_in
        torsion = [v for v in divisors.get(k + 1, ()) if v > 1]
        if betti != 0 or torsion:
            return False
    return True
