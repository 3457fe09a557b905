"""The squares of a two-sided discrete fibration, found from its
transports.

correspondences._bifibration builds the total over A x B on ends
{x: (a, b, x)} whose morphisms x -> y over (alpha, beta) are the squares
rho(x, beta) = lam(y, alpha).  When rho and lam are lawful, those
squares are enumerated here without testing any, and the total composes
them the first time its table is read.

This lives apart from correspondences.py and core.py to keep the
largest module small: a process that imports fibcat without cached
bytecode compiles every module, and the compiler's peak memory, which
follows the largest module, stays in the process's peak RSS.
"""

from __future__ import annotations

from . import core
from .core import Functor


class _ComposedOnRead(core.FiniteCategory):
    """A category whose composition table and index are built by
    compose() the first time one of them is read; its builder vouches
    for the laws, as _derived's callers do.

    __getattr__ runs only for an unset slot, so it lives here and not on
    FiniteCategory: a type with __getattr__ loses CPython's specialized
    attribute loads, which measured 12-13% slower on workloads that read
    categories in tight loops."""

    __slots__ = ("_compose",)
    _ON_READ = frozenset(("_comp", "_from", "_to", "_hom"))

    def __init__(self, objects, morphisms, src, tgt, identity, compose):
        self.objects, self.morphisms = objects, morphisms
        self.src, self.tgt, self.identity = src, tgt, identity
        self._isos = None
        self._compose = compose

    def __getattr__(self, name):
        if name not in self._ON_READ:
            raise AttributeError(name)
        compose = self._compose
        if compose is not None:
            # every slot is set before the builder's closure is dropped,
            # so a thread that finds it dropped finds the slots set
            self._comp = compose()
            self._from, self._to, self._hom = core._index(
                self.objects, self.morphisms, self.src, self.tgt)
            self._compose = None
        return object.__getattribute__(self, name)


def _transports_lawful(A, B, ends, rho, lam):
    """Whether rho and lam act on ends = {x: (a, b, x)}: defined on every
    (x, beta) out of b and (x, alpha) into a, landing over (a, tgt beta)
    and (src alpha, b), unital, functorial, and commuting, i.e.
    rho(lam(y, alpha), beta) = lam(rho(y, beta), alpha).

    Then the squares rho(x, beta) = lam(y, alpha) contain the identities,
    as rho(x, id) = x = lam(x, id), and compose: given x -> y over
    (alpha, beta) and y -> z over (alpha', beta'),
    rho(x, beta'∘beta) = rho(lam(y, alpha), beta')
    = lam(rho(y, beta'), alpha) = lam(z, alpha'∘alpha)."""
    comp_A, comp_B = A._comp, B._comp
    for x, (a, b, d) in ends.items():
        if d != x:
            return False
        for beta in B._from[b]:
            y = rho.get((x, beta))
            if y not in ends or ends[y][:2] != (a, B.tgt[beta]):
                return False
        for alpha in A._to[a]:
            w = lam.get((x, alpha))
            if w not in ends or ends[w][:2] != (A.src[alpha], b):
                return False
    for x, (a, b, _) in ends.items():
        if rho[(x, B.identity[b])] != x or lam[(x, A.identity[a])] != x:
            return False
        for beta in B._from[b]:
            y = rho[(x, beta)]
            for beta2 in B._from[B.tgt[beta]]:
                if rho[(y, beta2)] != rho[(x, comp_B[(beta2, beta)])]:
                    return False
        for alpha in A._to[a]:
            w = lam[(x, alpha)]
            for alpha2 in A._to[A.src[alpha]]:
                if lam[(w, alpha2)] != lam[(x, comp_A[(alpha, alpha2)])]:
                    return False
            for beta in B._from[b]:
                if rho[(w, beta)] != lam[(rho[(x, beta)], alpha)]:
                    return False
    return True


def _squares(A, B, ends, rho, lam):
    """The squares rho(x, beta) = lam(y, alpha) of lawful transports, in
    square_category's order, found without testing any: the ends y are
    grouped by (alpha, lam(y, alpha)), and each rho(x, beta) is looked
    up there.  Returns (src, tgt, to_a, to_b, out), out[x] listing
    (m, y, alpha, beta) for the squares m: x -> y, or None when two
    squares share an id."""
    landing = {}  # alpha -> {lam(y, alpha): [y, ...]}, in ends order
    for y, (a, _, _) in ends.items():
        for alpha in A._to[a]:
            landing.setdefault(alpha, {}).setdefault(
                lam[(y, alpha)], []).append(y)
    square_id = core._square_id
    src, tgt, to_a, to_b, out = {}, {}, {}, {}, {}
    for x, (a, b, _) in ends.items():
        out[x] = arrows = []
        row = [(beta, rho[(x, beta)]) for beta in B._from[b]]
        for alpha in A._from[a]:
            ys_of = landing.get(alpha)
            if ys_of is None:
                continue
            for beta, r in row:
                for y in ys_of.get(r, ()):
                    m = square_id(alpha, beta, x, y)
                    src[m], tgt[m], to_a[m], to_b[m] = x, y, alpha, beta
                    arrows.append((m, y, alpha, beta))
    if sum(map(len, out.values())) != len(src):
        return None
    return src, tgt, to_a, to_b, out


def _composed_on_read(A, B, ends, src, tgt, to_a, to_b, out):
    """The total of _squares and its legs to A and B, as square_category
    returns them; the composition table is built when first read."""
    def compose():
        # as square_category's table: componentwise, in the same order
        comp_A, comp_B = A._comp, B._comp
        key_of = {(u, v, x, y): m for x, arrows in out.items()
                  for m, y, u, v in arrows}
        return {(m2, m): key_of[(comp_A[(u2, u)], comp_B[(v2, v)], x, z)]
                for x, arrows in out.items() for m, y, u, v in arrows
                for m2, z, u2, v2 in out[y]}

    identity = {x: core._square_id(A.identity[a], B.identity[b], x, x)
                for x, (a, b, _) in ends.items()}
    total = _ComposedOnRead(tuple(sorted(ends)), tuple(sorted(src)),
                                 src, tgt, identity, compose)
    return (total,
            Functor(total, A, {x: e[0] for x, e in ends.items()}, to_a,
                    _validate=False),
            Functor(total, B, {x: e[1] for x, e in ends.items()}, to_b,
                    _validate=False))
