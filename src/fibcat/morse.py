"""The Morse complex of a finite category's normalized nerve.

Algebraic discrete Morse theory on a complete rewriting system (K. S.
Brown, "The geometry of rewriting systems", 1992; E. Sköldberg, "Morse
theory from an algebraic viewpoint", 2006).  The generators are the
indecomposable non-identity morphisms, then, in sorted-id order, each
morphism that those chosen do not yet reach.  Each morphism gets its
shortlex-least path of generators, found by breadth-first search, so
every prefix and every suffix of a normal form is again a normal form.

A chain [m1|...|mk] of composable non-identity morphisms is matched by
reading it from the left:

- if m1 is not a generator, its first letter is split off, and the chain
  is matched with one in the degree above;
- otherwise the Anick prefix grows while the shortest prefix p of an
  entry's normal form for which (previous entry)·p is not a normal form
  is the whole entry.  At the first entry where this fails, the entry is
  composed with the previous one when their concatenation is a normal
  form (matched with a chain in the degree below), and split at its
  shortest reducing prefix otherwise (matched up).

Chains that pass every entry are critical: the objects, the generators,
and the Anick chains, grown prefix by prefix.  The matching is acyclic
and each matched pair has incidence ±1, so the critical cells span a
complex with the nerve's integral homology.  Its boundary follows the
gradient flow from each face of a critical cell, memoized; the flow
checks both conditions as it goes.

With every_generator, each non-identity morphism is a generator and its
own one-letter normal form.  No two-letter word is then a normal form, so
every chain is an Anick chain, no chain is matched, and the complex is the
normalized nerve itself, in sorted order: `homology.nerve` builds it so.
Its boundaries read the faces directly, with no matching and no flow.
"""

from __future__ import annotations


def morse_complex(C, top, every_generator=False):
    """The critical cells in degrees 0..top (top >= 1) and the Morse
    boundaries.

    Returns (critical, boundaries): critical[k] lists the critical
    k-cells in sorted order (the objects in degree 0, chains as tuples of
    morphisms above it), and boundaries[k][j], for 1 <= k <= top, maps the
    index in critical[k-1] of each cell to its nonzero coefficient in the
    Morse boundary of critical[k][j].  With every_generator, every
    non-identity morphism is a generator: no chain is matched, and this is
    the normalized nerve itself.
    """
    rw = _Rewriting(C, every_generator)
    if every_generator:
        # every chain is critical: it extends by each morphism leaving its
        # end, and the flow of each of its faces is that face itself
        leaving, tgt = rw.leaving, C.tgt
        tails = lambda a: leaving[tgt[a]]
    else:
        tails = rw.tails
    critical = [list(C.objects), [(s,) for s in rw.generators]]
    for _ in range(2, top + 1):
        critical.append([cell + (b,) for cell in critical[-1]
                         for b in tails(cell[-1])])
    at = {x: i for i, x in enumerate(critical[0])}
    boundaries = [None, [_endpoints(at[C.tgt[s]], at[C.src[s]])
                         for (s,) in critical[1]]]
    for k in range(2, top + 1):
        at = {cell: i for i, cell in enumerate(critical[k - 1])}
        level = []
        for cell in critical[k]:
            total = {}
            for face, sign in rw.faces(cell):
                for c, v in (((face, 1),) if every_generator
                             else rw.flow(face).items()):
                    i = at[c]
                    total[i] = total.get(i, 0) + sign * v
            level.append({i: v for i, v in total.items() if v})
        boundaries.append(level)
    return critical, boundaries


def _endpoints(t, s):
    """The boundary t - s of a generator, zero on a loop."""
    return {} if t == s else {t: 1, s: -1}


def _invariant_error(message):
    from .fibrations import InternalInvariantError
    return InternalInvariantError(message)


class _Rewriting:
    """Shortlex normal forms of C's morphisms over its generators, the
    matching they define on the nerve's chains, and the gradient flow."""

    def __init__(self, C, every_generator=False):
        self.comp = comp = C._comp
        self.identities = set(C.identity.values())
        non_id = sorted(C.non_identity_morphisms())
        leaving = {x: [] for x in C.objects}
        for m in non_id:
            leaving[C.src[m]].append(m)
        self.leaving = leaving
        self.tgt = C.tgt
        if every_generator:
            # each morphism is its own one-letter normal form, read off no
            # composite: no two-letter word is one, so no chain is matched
            self.nf = self.prefixes = {m: (m,) for m in non_id}
            self.generators = non_id
        else:
            composites = {comp[(g, f)] for f in non_id
                          for g in leaving[C.tgt[f]]}
            chosen = {m for m in non_id if m not in composites}
            while True:
                self._shortlex(C, chosen)
                missing = [m for m in non_id if m not in self.nf]
                if not missing:
                    break
                chosen.add(missing[0])
            self.generators = [m for m in non_id if m in chosen]
        # the morphism each normal form names, then memos of reducing
        # prefixes, Anick tails and flows
        self.named = {w: m for m, w in self.nf.items()}
        self._reducing = {}
        self._tails = {}
        self._flows = {}

    def _shortlex(self, C, chosen):
        """Breadth-first search over the chosen generators from each
        object, each level in lexicographic order: the first path found
        to a morphism is its shortlex-least one.  nf[m] is that path,
        prefixes[m] the morphisms its nonempty prefixes name."""
        comp, tgt, leaving = self.comp, C.tgt, self.leaving
        self.nf, self.prefixes = nf, prefixes = {}, {}
        for x in C.objects:
            start = C.identity[x]
            seen = {start}
            level = [(start, (), ())]
            while level:
                deeper = []
                for m, word, named in level:
                    for s in leaving[tgt[m]]:
                        if s not in chosen:
                            continue
                        t = comp[(s, m)]
                        if t in seen:
                            continue
                        seen.add(t)
                        nf[t] = word + (s,)
                        prefixes[t] = named + (t,)
                        deeper.append((t, nf[t], prefixes[t]))
                level = deeper

    def reducing_prefix(self, a, b):
        """The length of the shortest prefix p of nf[b] for which nf[a]·p
        is not a normal form, or 0 when nf[a]·nf[b] is one."""
        key = (a, b)
        j = self._reducing.get(key)
        if j is None:
            nf, comp, wa = self.nf, self.comp, self.nf[a]
            j = 0
            for i, c in enumerate(self.prefixes[b], 1):
                if nf.get(comp[(c, a)]) != wa + nf[c]:
                    j = i
                    break
            self._reducing[key] = j
        return j

    def tails(self, a):
        """The b that extend an Anick chain ending in a: nf[a]·nf[b] is
        reduced by the whole of nf[b] and by no shorter prefix."""
        out = self._tails.get(a)
        if out is None:
            out = self._tails[a] = [
                b for b in self.leaving[self.tgt[a]]
                if self.reducing_prefix(a, b) == len(self.nf[b])]
        return out

    def match(self, cell):
        """None for a critical cell, otherwise (up, partner): the cell it
        is matched with, one degree up or one degree down."""
        nf, named = self.nf, self.named
        word = nf[cell[0]]
        if len(word) > 1:
            return True, (word[0], named[word[1:]]) + cell[1:]
        for i in range(1, len(cell)):
            b = cell[i]
            j = self.reducing_prefix(cell[i - 1], b)
            if j == len(nf[b]):
                continue
            if j == 0:
                return False, (cell[:i - 1] + (self.comp[(b, cell[i - 1])],)
                               + cell[i + 1:])
            return True, (cell[:i] + (self.prefixes[b][j - 1],
                                      named[nf[b][j:]]) + cell[i + 1:])
        return None

    def faces(self, cell):
        """The nonzero faces of a chain of two or more morphisms, with the
        sign of each: a face whose inner composite is an identity is
        degenerate, zero in the normalized complex."""
        comp, identities = self.comp, self.identities
        out = [(cell[1:], 1)]
        for i in range(1, len(cell)):
            m = comp[(cell[i], cell[i - 1])]
            if m not in identities:
                out.append((cell[:i - 1] + (m,) + cell[i + 1:],
                            -1 if i % 2 else 1))
        out.append((cell[:-1], -1 if len(cell) % 2 else 1))
        return out

    def flow(self, cell):
        """The critical cells, with coefficients, that the gradient flow
        takes cell to: cell itself when critical, nothing when it is
        matched down, and otherwise -ε times the flow of the other faces
        of its partner, where ε = ±1 is cell's incidence in the partner.
        Computed depth-first on an explicit stack; a cell met again while
        its own flow is open would be a cycle of the matching."""
        flows = self._flows
        if cell in flows:
            return flows[cell]
        stack, open_ = [cell], {}
        while stack:
            x = stack[-1]
            if x in flows:
                stack.pop()
                continue
            faces = open_.get(x)
            if faces is None:
                match = self.match(x)
                if match is None or not match[0]:
                    flows[x] = {} if match else {x: 1}
                    stack.pop()
                    continue
                faces = self.faces(match[1])
                pending = [z for z, _ in faces if z != x and z not in flows]
                if pending:
                    if any(z in open_ for z in pending):
                        raise _invariant_error(
                            f"Morse matching has a cycle through {x}")
                    open_[x] = faces
                    stack.extend(pending)
                    continue
            else:
                del open_[x]
            eps = sum(sign for z, sign in faces if z == x)
            if eps != 1 and eps != -1:
                raise _invariant_error(
                    f"matched pair {x} has incidence {eps}, not ±1")
            total = {}
            for z, sign in faces:
                if z != x:
                    for c, v in flows[z].items():
                        total[c] = total.get(c, 0) - eps * sign * v
            flows[x] = {c: v for c, v in total.items() if v}
            stack.pop()
        return flows[cell]
