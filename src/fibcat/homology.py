"""Integral homology of nerves, and finality certificates.

The homology of a finite category is that of its nerve, truncated at a
chosen degree d, with integer coefficients.  It is computed on the Morse
complex of the normalized nerve (see `morse`): only the cells that survive
a matching by shortlex normal forms are built, and the Morse boundary
follows the gradient flow between them.  The nerve's own cells are only
counted, as walks of composable non-identity morphisms; these counts are
the reported simplex counts, and the matrix cap is checked against the
nerve's full boundaries before any work is done, so the same inputs are
refused with the same message.  The face relations are checked on the
nerve's 2- and 3-chains.  The boundaries are reduced by Smith normal form
over exact integers, on coboundaries from degree 0 upward with clearing
(Chen-Kerber, "Persistent homology computation with a twist", 2011), in
the cohomology direction (de Silva-Morozov-Vejdemo-Johansson, "Dualities
in persistent (co)homology", 2011): a cell that was the row of a unit
pivot one degree down names a column that is an integral combination of
the others, so it is left out, and every invariant factor stays the same.
The truncated nerve (`nerve`) is the Morse complex with every
non-identity morphism a generator, so that no chain is matched.  The
mapping cone of the chain-map certificates checks its caps on the walk
counts of two nerves, then builds them and reduces the cone, a sparse
complex of the same shape, by the same `_reduce_with_clearing`.  The
tests reduce the nerve as the Morse route's oracle, and check it against
chains and faces that they enumerate themselves.

Cofinality, the end checks of fibrations and set-valued colimits all read
categories of elements, decided by one union-find: exact π0-level
verdicts (nonempty and connected), and bounded-degree contractibility
certificates on the categories that pass.  A certificate up to degree d
never claims anything beyond degree d.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import compress, product

from . import core, morse
from .core import PreconditionError
from .records import Record
from .unionfind import UnionFind


class MatrixCapExceeded(RuntimeError):
    pass


_MATRIX_CAP = 4_000_000  # entries per boundary matrix


# -- truncated nerve ------------------------------------------------------


class TruncatedNerve(Record):
    __slots__ = ("max_dim", "simplices", "boundaries")

    def __init__(self, max_dim, simplices, boundaries):
        self.max_dim = max_dim
        # simplices[k] for k in 0..max_dim+1; a k-simplex is a tuple of k
        # composable non-identity morphisms (objects in dimension 0)
        self.simplices = simplices
        # boundaries[k][j], for 1 <= k <= max_dim+1, maps the index in
        # simplices[k-1] of each face of simplices[k][j] to its nonzero
        # coefficient; degenerate faces are dropped (as morse.morse_complex
        # returns them, with every chain critical)
        self.boundaries = boundaries

    def counts(self):
        return [len(s) for s in self.simplices]


def nerve(C, d):
    """Identity-free composable chains of length <= d+1, in sorted order,
    with the boundaries of the normalized complex: the Morse complex in
    which every non-identity morphism is a generator, so every chain is
    critical.  The face relations are checked first, as in homology."""
    if d < 0:
        raise PreconditionError("nerve requires d >= 0")
    _check_face_relations(C, d)
    simplices, boundaries = morse.morse_complex(C, d + 1, every_generator=True)
    return TruncatedNerve(d, [tuple(s) for s in simplices], boundaries)


def _walk_counts(C, top):
    """The number of k-simplices of C's nerve for k <= top: the chains of
    k composable non-identity morphisms, counted as walks, unbuilt."""
    ending = dict.fromkeys(C.objects, 1)  # walks of length k ending at x
    counts = [len(ending)]
    non_id = C.non_identity_morphisms()
    for _ in range(top):
        longer = dict.fromkeys(C.objects, 0)
        for m in non_id:
            longer[C.tgt[m]] += ending[C.src[m]]
        ending = longer
        counts.append(sum(ending.values()))
    return counts


def _check_face_relations(C, d):
    # d_i d_j = d_{j-1} d_i (i < j) on the raw chains, before normalizing,
    # of the nerve truncated at d; its chains are enumerated here in the
    # nerve's sorted order.
    # On the nerve of a category only four of these relations can fail.
    # They are checked here in the order a check of every relation in every
    # dimension meets them, by dimension, by chain, then by j and by i:
    #   - on a 2-chain (f, g), the endpoints: tgt(g∘f) = tgt g (i=0, j=1),
    #     tgt f = src g (i=0, j=2) and src(g∘f) = src f (i=1, j=2);
    #   - on a 3-chain (f, g, h), associativity (h∘g)∘f = h∘(g∘f) (i=1, j=2).
    # Every other relation, on a k-chain c = (c_0, ..., c_{k-1}), compares
    # two tuples, each made from c by twice dropping an end member or
    # composing an adjacent pair.  Where the two sides touch disjoint
    # positions, or drop an end, they make the same tuple.  Otherwise
    # 0 < i, j = i+1 < k, and one side holds (c_{i+1}∘c_i)∘c_{i-1} where
    # the other holds c_{i+1}∘(c_i∘c_{i-1}): associativity of the
    # identity-free 3-chain (c_{i-1}, c_i, c_{i+1}), a simplex of the nerve
    # checked before any chain of dimension 4 or more.  So this check fails
    # exactly when the full one does, with the same first message.
    src, tgt, comp = C.src, C.tgt, C._comp
    if d < 1:
        return
    non_id = sorted(C.non_identity_morphisms())
    leaving = {}
    for m in non_id:
        leaving.setdefault(src[m], []).append(m)
    pairs = [(f, g) for f in non_id for g in leaving.get(tgt[f], ())]
    for chain in pairs:
        f, g = chain
        gf = comp[(g, f)]
        for i, j, holds in ((0, 1, tgt[gf] == tgt[g]),
                            (0, 2, tgt[f] == src[g]),
                            (1, 2, src[gf] == src[f])):
            if not holds:
                raise AssertionError(
                    f"face relation fails on {chain} (i={i}, j={j})")
    if d < 2:
        return
    for f, g in pairs:
        gf = comp[(g, f)]
        for h in leaving.get(tgt[g], ()):
            if comp[(h, gf)] != comp[(comp[(h, g)], f)]:
                raise AssertionError(
                    f"face relation fails on {(f, g, h)} (i=1, j=2)")


def _check_cap(counts, k):
    """Refuse the nerve's k-th boundary when its full size, from the
    simplex counts, exceeds the cap."""
    rows, cols = counts[k - 1], counts[k]
    if rows * cols > _MATRIX_CAP:
        raise MatrixCapExceeded(f"boundary matrix {rows}x{cols} exceeds cap")


# -- Smith normal form over the integers ----------------------------------


def smith_normal_form(M, unit_rows=None):
    """Invariant factors of an integer matrix (d1 | d2 | ...), all positive.

    The matrix is read into sparse columns and reduced on unit pivots
    first.  Each ±1 entry, taken in order of least Markowitz cost (the
    other entries of its column times the other entries of its row), is
    eliminated from the other columns of its row; its row and column are
    then dropped and contribute an invariant factor 1.  The block left when
    no unit entry remains, which carries all the torsion, goes to a dense
    Smith normal form.  All arithmetic is exact.

    With a list unit_rows, the row of each of these unit pivots is appended
    to it in elimination order; the pivots of the dense block are not.
    Until its pivot is taken, a column changes only by integral multiples
    of other columns, which zero each earlier pivot's row in it exactly.
    So when row p is recorded, its pivot's column is an integral
    combination of M's columns with ±1 on row p and 0 on the rows
    recorded before p.
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
            if unit_rows is not None:
                unit_rows.append(p)
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


class HomologyReport(Record):
    __slots__ = ("max_dim", "betti", "torsion", "simplex_counts")

    def __init__(self, max_dim, betti, torsion, simplex_counts):
        self.max_dim, self.betti = max_dim, betti
        self.torsion = torsion  # per degree, sorted invariant factors > 1
        self.simplex_counts = simplex_counts

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
    """Integral homology of C's nerve in degrees <= d, reduced on its
    Morse complex; the simplex counts are the nerve's."""
    if d < 0:
        raise PreconditionError("nerve requires d >= 0")
    counts = _walk_counts(C, d + 1)
    _check_face_relations(C, d)
    for k in range(1, d + 2):
        _check_cap(counts, k)
    critical, boundaries = morse.morse_complex(C, d + 1)
    betti, torsion = _reduce_with_clearing(
        [len(cells) for cells in critical], boundaries)
    return HomologyReport(d, betti, torsion, counts[:d + 1])


def _reduce_with_clearing(counts, boundaries):
    """Betti numbers and torsion in degrees below top = len(counts) - 1 of
    a complex with counts[k] cells in degree k, where boundaries[k][j]
    maps each (k-1)-cell to its coefficient in the boundary of k-cell j.

    Step k reduces δ_{k-1} = ∂_kᵀ, whose invariant factors are those of
    ∂_k, without the columns of the rows of step k-1's unit pivots.  Each
    such pivot's column is a coboundary z with ±1 on its row p and 0 on
    the rows of the pivots before it, and δz = 0 writes column p of δ_{k-1}
    as an integral combination of the other columns.  Taken from the last
    pivot back, the cleared columns are combinations of the kept ones, so
    leaving them out is a unimodular column operation: rank and torsion are
    unchanged.  Clearing runs upward so that the top matrix, the largest,
    is the one cleared.
    """
    top = len(counts) - 1
    ranks = [0] * (top + 1)    # ranks[k] = rank of boundary_k
    torsion = []
    cleared = set()
    for k in range(1, top + 1):
        column = [-1] * counts[k - 1]
        width = 0
        for r in range(counts[k - 1]):
            if r not in cleared:
                column[r] = width
                width += 1
        M = []
        for entries in boundaries[k]:
            row = [0] * width
            for r, v in entries.items():
                if column[r] >= 0:
                    row[column[r]] = v
            M.append(row)
        pivots = []
        divisors = smith_normal_form(M, pivots)
        cleared = set(pivots)
        ranks[k] = len(divisors)
        torsion.append(sorted(v for v in divisors if v > 1))
    betti = [counts[k] - ranks[k] - ranks[k + 1] for k in range(top)]
    return betti, torsion


def pi0_map(C):
    """Map each object to the least object of its component."""
    return _element_classes(C, {x: x for x in C.objects},
                            lambda u, x: C.tgt[u]).class_map()


# -- categories of elements and finality ---------------------------------


def _failed_certificate(C, d):
    """None when the reduced homology of C vanishes up to degree d,
    otherwise the HomologyReport that fails.  Its callers have already
    passed every C with an initial or a terminal object, read off the
    squares they walk (see core._squares_have_cone)."""
    rep = homology(C, d)
    return None if rep.reduced_trivial_up_to(d) else rep


def _element_classes(C, over, act, squares=None):
    """Components of a category of elements, as a UnionFind: each element
    x lies over the object over[x] of C, and u out of over[x] takes x to
    act(u, x).  The one walk over the pairs (x, u) joins x and act(u, x);
    with a list squares, it also appends (id, u, x, act(u, x)) to it, the
    square over the point that square_category would build."""
    uf = UnionFind(over)
    if squares is not None:
        point = core.terminal().identity["*"]
    for x, c in over.items():
        for u in C._from[c]:
            y = act(u, x)
            uf.union(x, y)
            if squares is not None:
                squares.append((point, u, x, y))
    return uf


def _elements_verdict(C, over, act, cert_dim):
    """Is the category of elements (see _element_classes) nonempty and
    connected, and with cert_dim=d, does it pass the certificate up to d?
    Returns the verdict and its entry, with homology_ok when a certificate
    ran.  A connected category of elements with an initial or a terminal
    object, read off the squares the union-find walks, passes without
    being built; only the others are built, x -> act(u, x) for each u,
    and certified through _failed_certificate.
    """
    squares = None if cert_dim is None else []
    uf = _element_classes(C, over, act, squares)
    nonempty = len(over) > 0
    connected = nonempty and len({uf.find(x) for x in over}) == 1
    entry = {"nonempty": nonempty, "connected": connected}
    if not connected or cert_dim is None:
        return connected, entry
    if core._squares_have_cone(list(over), squares, lambda x: x):
        entry["homology_ok"] = True
        return True, entry
    cat = core.square_category(
        core.terminal(), C, {x: ("*", c, x) for x, c in over.items()},
        lambda x, _, u, x2: act(u, x) == x2)[0]
    entry["homology_ok"] = _failed_certificate(cat, cert_dim) is None
    return entry["homology_ok"], entry


class FinalityVerdict(Record):
    __slots__ = ("per_object", "ok", "witness")

    def __init__(self, per_object, ok, witness=None):
        # object -> dict(nonempty, connected, homology_ok)
        self.per_object = per_object
        self.ok, self.witness = ok, witness


def is_final(F, certify_dim=None):
    """Cofinality of F: C -> D.

    The verdict is exact for set-valued colimits: at every object d, the
    category of elements of D(d, F-), which is the comma C^{d/}, must be
    nonempty and connected.  With certify_dim=d, each must additionally
    have trivial reduced homology up to degree d; the stronger verdict is
    a bounded certificate, not a proof of contractibility.  The category
    of elements has the pairs (c, k: d -> F c) as objects, and u: c -> c'
    takes (c, k) to (c', F(u)∘k).
    """
    _refuse_negative_degree(certify_dim)
    C, D, Fu = F.source, F.target, F.mor_map
    act = lambda u, ck: (C.tgt[u], D.compose(Fu[u], ck[1]))
    per_object, witness = {}, None
    for d in D.objects:
        over = {(c, k): c for c in C.objects
                for k in D.hom(d, F.ob_map[c])}
        good, per_object[d] = _elements_verdict(C, over, act, certify_dim)
        if not good and witness is None:
            witness = (d, per_object[d])
    return FinalityVerdict(per_object, witness is None, witness)


def is_initial(F, certify_dim=None):
    """Finality of F^op: each comma C_{/d} is the opposite of the comma of
    F^op under d, with the same components, homology and cone points."""
    return is_final(core.opposite_functor(F), certify_dim)


def _refuse_negative_degree(d):
    """Refuse a negative certificate degree; None means no certificate."""
    if d is not None and d < 0:
        raise PreconditionError(f"certificate degree must be >= 0, got {d}")


# -- set-valued diagrams and the colimit oracle ----------------------------


class SetValuedFunctor(Record):
    """A functor from a finite category to finite sets.

    values[x] is a tuple of element ids; transports[m] maps values at the
    source of m to values at its target.
    """
    __slots__ = ("base", "values", "transports")

    def __init__(self, base, values, transports):
        self.base, self.values, self.transports = base, values, transports

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
            for g in K._from[K.tgt[f]]:
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
    """Set-level limit: compatible families, as sorted tuples of pairs.
    A morphism is checked once, when both its ends are assigned."""
    K = G.base
    objects = list(K.objects)
    due = core._due(objects, (((K.src[m], K.tgt[m]), m) for m in K.morphisms))
    families = []

    def backtrack(i, fam):
        if i == len(objects):
            families.append(tuple(sorted(fam.items())))
            return
        x = objects[i]
        for a in G.values[x]:
            fam[x] = a
            if all(G.transports[m][fam[K.src[m]]] == fam[K.tgt[m]]
                   for m in due[i]):
                backtrack(i + 1, fam)
            del fam[x]

    backtrack(0, {})
    return sorted(families)


def all_set_valued_functors(K, max_size=2):
    """Every set-valued functor on K with value sets of size <= max_size,
    in the depth-first order of value sizes over the sorted objects, then
    transports of the sorted non-identity morphisms.  A composable pair is
    checked once, when the last of g, f and g∘f has its transport.  The
    enumeration cap counts the partial assignments of transports explored.
    """
    explore = core._explorer("diagram")
    objects = list(K.objects)
    non_id = K.non_identity_morphisms()
    pairs_due = core._due(non_id, core._pair_laws(K))
    results = []

    def assign_transports(values):
        transports = {K.identity[x]: {a: a for a in values[x]}
                      for x in objects}

        def backtrack(i):
            explore()
            if i == len(non_id):
                results.append(SetValuedFunctor(
                    K, {x: tuple(values[x]) for x in objects},
                    {m: dict(t) for m, t in transports.items()}))
                return
            m = non_id[i]
            dom = values[K.src[m]]
            cod = values[K.tgt[m]]
            if dom and not cod:
                return
            for assignment in _all_maps(dom, cod):
                transports[m] = assignment
                if all(transports[K._comp[(g, f)]][a]
                       == transports[g][transports[f][a]]
                       for g, f in pairs_due[i] for a in values[K.src[f]]):
                    backtrack(i + 1)
                del transports[m]

        backtrack(0)

    def assign_values(i, values):
        if i == len(objects):
            assign_transports(values)
            return
        x = objects[i]
        for n in range(max_size + 1):
            values[x] = tuple(f"{x}#{j}" for j in range(n))
            assign_values(i + 1, values)
        del values[x]

    assign_values(0, {})
    return results


def _all_maps(dom, cod):
    if not dom:
        yield {}
        return
    for images in product(cod, repeat=len(dom)):
        yield dict(zip(dom, images))


# -- chain maps and Theorem B style checks ---------------------------------


def induced_chain_map(F, nrv_C, nrv_D):
    """The map of normalized complexes induced by F: C -> D: for each
    degree, the index in nrv_D of each simplex's image, or None for a
    simplex whose image contains an identity, which maps to zero."""
    D = F.target
    maps = []
    for k, level in enumerate(nrv_C.simplices):
        at = {s: i for i, s in enumerate(nrv_D.simplices[k])}
        if k == 0:
            maps.append([at[F.ob_map[x]] for x in level])
            continue
        images = [tuple(F.mor_map[m] for m in s) for s in level]
        maps.append([None if any(D.is_identity(m) for m in image)
                     else at[image] for image in images])
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


def chain_map_induces_homology_iso(F, d):
    """Certificate that F: C -> D is a homology isomorphism up to degree d.

    Checked via the mapping cone: the verdict is True when the cone has
    trivial homology in degrees <= d+1, which by the long exact sequence
    forces isomorphisms on H_k for k <= d.  The criterion is sound; it
    additionally demands surjectivity in degree d+1.  The cone has
    cone_k = C_{k-1} + D_k, C's cells first, and ∂(c, y) = (-∂c, ∂y - Fc);
    it is a chain complex, so _reduce_with_clearing reduces it exactly.
    The cap is checked on both nerves' boundaries, from their walk counts,
    before either nerve is built: in degree order, and D's after C's in
    each degree.
    """
    counts_C = _walk_counts(F.source, d + 1)
    counts_D = _walk_counts(F.target, d + 2)
    top = d + 2
    for k in range(1, top + 1):
        if k >= 2:
            _check_cap(counts_C, k - 1)
        _check_cap(counts_D, k)
    nrv_C = nerve(F.source, d + 1)
    nrv_D = nerve(F.target, d + 1)
    fmaps = induced_chain_map(F, nrv_C, nrv_D)
    counts = [counts_D[0]] + [counts_C[k - 1] + counts_D[k]
                              for k in range(1, top + 1)]
    boundaries = [None]
    for k in range(1, top + 1):
        shift = counts_C[k - 2] if k >= 2 else 0  # rows of C_{k-2} first
        level = []
        for j, image in enumerate(fmaps[k - 1]):
            col = ({} if k == 1 else
                   {r: -v for r, v in nrv_C.boundaries[k - 1][j].items()})
            if image is not None:
                col[shift + image] = -1
            level.append(col)
        level += [{shift + r: v for r, v in col.items()}
                  for col in nrv_D.boundaries[k]]
        boundaries.append(level)
    betti, torsion = _reduce_with_clearing(counts, boundaries)
    return not any(betti) and not any(torsion)
