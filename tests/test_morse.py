"""homology.homology reduces the Morse complex of shortlex normal forms
(fibcat.morse).  The nerve routes are its oracles: the whole normalized
nerve reduced with clearing (homology_of_nerve), without it
(oracle_homology_of_nerve), and by sympy (oracle_homology).  Every report,
every refusal and every face-relation message must be the same."""

import itertools
import random

import pytest

from fibcat import core, fibrations, homology, morse, randgen

from test_homology import (_torus, fixture_categories, homology_of_nerve,
                           oracle_homology, oracle_homology_of_nerve,
                           planted_defects)

# sympy checks a nerve whose boundaries hold at most this many entries
SYMPY_ENTRIES = 1000


def nerve_outcome(C, d):
    """The report of both nerve routes, which must agree, or the message
    of the cap they refuse with."""
    try:
        nrv = homology.nerve(C, d)
        rep = homology_of_nerve(nrv)
    except homology.MatrixCapExceeded as exc:
        return str(exc)
    assert rep == oracle_homology_of_nerve(nrv)
    return rep


def morse_outcome(C, d):
    try:
        return homology.homology(C, d)
    except homology.MatrixCapExceeded as exc:
        return str(exc)


def assert_routes_agree(C, d):
    """The Morse route against the nerve routes, and against sympy on a
    small nerve; returns the report, or the cap message."""
    rep = morse_outcome(C, d)
    assert rep == nerve_outcome(C, d)
    if isinstance(rep, homology.HomologyReport):
        counts = rep.simplex_counts + [homology._walk_counts(C, d + 1)[-1]]
        if sum(a * b for a, b in zip(counts, counts[1:])) <= SYMPY_ENTRIES:
            assert (rep.betti, rep.torsion) == oracle_homology(C, d)
    return rep


def valid_fixture_categories():
    """The fixture categories whose nerve builds: the two defect fixtures
    are left to TestBrokenTables."""
    for C in fixture_categories():
        try:
            homology.nerve(C, 2)
        except (KeyError, AssertionError):
            continue
        yield C


def monoid_tables():
    """Every associative multiplication on {e, a, b, c} with unit e."""
    rest = "abc"
    pairs = list(itertools.product(rest, repeat=2))
    tables = []
    for values in itertools.product("eabc", repeat=len(pairs)):
        table = dict(zip(pairs, values))

        def mul(g, f, table=table):
            return f if g == "e" else g if f == "e" else table[(g, f)]

        if all(mul(mul(h, g), f) == mul(h, mul(g, f))
               for h, g, f in itertools.product(rest, repeat=3)):
            tables.append(mul)
    return tables


def symmetric_group_three():
    perms = sorted(itertools.permutations(range(3)))
    name = {p: "p" + "".join(map(str, p)) for p in perms}
    perm = {v: p for p, v in name.items()}
    return core.monoid_category(
        sorted(name.values()), "p012",
        lambda g, f: name[tuple(perm[g][i] for i in perm[f])])


def cyclic_product(*orders):
    C = core.cyclic_group_category(orders[0])
    for n in orders[1:]:
        C = core.product(C, core.cyclic_group_category(n))
    return C


def critical_counts(C, top):
    critical, _ = morse.morse_complex(C, top)
    return [len(cells) for cells in critical]


class TestRoutesAgree:
    @pytest.mark.parametrize("d", range(6))
    def test_fixture_categories(self, d):
        compared = refused = 0
        for C in valid_fixture_categories():
            if isinstance(assert_routes_agree(C, d), str):
                refused += 1
            else:
                compared += 1
        assert compared + refused == 31 and compared >= 28

    def test_random_categories(self):
        rng = random.Random(27)
        for i in range(300):
            assert_routes_agree(randgen.random_category(rng, 4, 10),
                                1 + i % 3)

    def test_order_four_monoids(self):
        tables = monoid_tables()
        assert len(tables) == 156
        for mul in tables:
            C = core.monoid_category(list("eabc"), "e", mul)
            for d in range(5):
                assert_routes_agree(C, d)

    @pytest.mark.parametrize("name, make, torsion", [
        ("S3", symmetric_group_three, [[], [2], [], [6]]),
        ("(Z/2)^3", lambda: cyclic_product(2, 2, 2),
         [[], [2, 2, 2], [2, 2, 2], [2] * 7]),
        ("Z/2 x Z/4", lambda: cyclic_product(2, 4),
         [[], [2, 4], [2], [2, 2, 4]]),
        ("Z/3 x Z/3", lambda: cyclic_product(3, 3),
         [[], [3, 3], [3], [3, 3, 3]]),
    ])
    def test_finite_groups(self, name, make, torsion):
        rep = assert_routes_agree(make(), 3)
        assert rep.betti == [1, 0, 0, 0] and rep.torsion == torsion


class TestWalkCounts:
    def test_counts_are_the_nerves(self):
        rng = random.Random(4)
        cases = [(C, d) for C in valid_fixture_categories()
                 for d in range(4)]
        cases += [(randgen.random_category(rng, 3, 8), d)
                  for d in range(4) for _ in range(10)]
        for C, d in cases:
            assert homology._walk_counts(C, d + 1) == \
                homology.nerve(C, d).counts()


class TestCap:
    """The cap counts the nerve's full boundaries, from the walk counts,
    before any work: both routes refuse the same (C, d) with the same
    message."""

    @pytest.mark.parametrize("cap", [1, 2, 8, 30, 200, 1000, 10_000])
    def test_same_refusals(self, cap, monkeypatch):
        monkeypatch.setattr(homology, "_MATRIX_CAP", cap)
        rng = random.Random(cap)
        cases = [(core.cyclic_group_category(n), d)
                 for n in range(2, 6) for d in range(5)]
        cases += [(core.arrow_category(core.interval(3))[0], d)
                  for d in range(3)]
        cases += [(_torus(), d) for d in range(3)]
        cases += [(randgen.random_category(rng, 3, 8), d)
                  for d in range(4) for _ in range(4)]
        refused = [isinstance(assert_routes_agree(C, d), str)
                   for C, d in cases]
        assert any(refused) and not all(refused)

    def test_refusals_at_the_real_cap(self):
        # refused before any chain is built, with exit 1 from the CLI
        for n, d, shape in ((8, 4, "2401x16807"), (5, 5, "1024x4096")):
            with pytest.raises(homology.MatrixCapExceeded,
                               match=f"^boundary matrix {shape} exceeds cap$"):
                homology.homology(core.cyclic_group_category(n), d)


def nerve_counts(C, d):
    return homology.nerve(C, d).counts()[:d + 1]


def homology_counts(C, d):
    return homology.homology(C, d).simplex_counts


class TestBrokenTables:
    """The nerve checks the face relations before it builds, as homology
    does: a table that breaks one gives the same first message from both,
    and one that breaks none up to d (at d <= 1 no associativity is
    checked) gets an answer from both, with the same simplex counts."""

    def outcome(self, compute, C, d):
        """The message of the face relation that fails, or the counts."""
        try:
            return compute(C, d)
        except AssertionError as exc:
            return str(exc)

    def test_planted_defects(self):
        rng = random.Random(3)
        pool = [randgen.random_category(rng, 4, 10) for _ in range(60)]
        pool += [make() for make in (
            lambda: core.cyclic_group_category(3),
            lambda: core.cyclic_group_category(4), core.retract_category,
            core.idempotent_category, core.walking_isomorphism)
            for _ in range(4)]
        failed = answered = 0
        for C in pool:
            for pair, composite in planted_defects(rng, C):
                real = C._comp[pair]
                C._comp[pair] = composite
                try:
                    for d in range(5):
                        found = self.outcome(nerve_counts, C, d)
                        assert found == self.outcome(homology_counts, C, d)
                        if isinstance(found, str):
                            failed += 1
                        else:
                            answered += 1
                finally:
                    C._comp[pair] = real
        assert (failed, answered) == (105, 125)

    def test_associativity_break(self, monkeypatch):
        C = core.cyclic_group_category(3)
        monkeypatch.setitem(C._comp, ("g1", "g1"), "g0")
        for d in (2, 3):
            with pytest.raises(AssertionError, match=(
                    r"^face relation fails on \('g1', 'g1', 'g2'\) "
                    r"\(i=1, j=2\)$")):
                homology.homology(C, d)


class TestCriticalCells:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_one_per_degree_for_cyclic_groups(self, n):
        assert critical_counts(core.cyclic_group_category(n), 5) == [1] * 6

    @pytest.mark.parametrize("name, make, top, counts", [
        ("Ar([3])", lambda: core.arrow_category(core.interval(3))[0], 4,
         [10, 12, 3, 0, 0]),
        ("Ar([4])", lambda: core.arrow_category(core.interval(4))[0], 3,
         [15, 20, 6, 0]),
        ("torus", _torus, 4, [16, 32, 16, 0, 0]),
    ])
    def test_pinned_counts(self, name, make, top, counts):
        assert critical_counts(make(), top) == counts

    @pytest.mark.parametrize("n, d", [(2, 9), (3, 9)]
                             + [(n, 3) for n in range(2, 9)])
    def test_classifying_spaces_of_cyclic_groups(self, n, d):
        # H_k(BZ/n) is Z/n in odd degrees and 0 in positive even ones
        rep = homology.homology(core.cyclic_group_category(n), d)
        assert rep.betti == [1] + [0] * d
        assert rep.torsion == [[n] if k % 2 else [] for k in range(d + 1)]

    @pytest.mark.parametrize("name, C, d", [
        ("Z/4", core.cyclic_group_category(4), 3),
        ("retract", core.retract_category(), 3),
        ("idempotent", core.idempotent_category(), 3),
        ("walking iso", core.walking_isomorphism(), 3),
        ("Ar([3])", core.arrow_category(core.interval(3))[0], 3),
        ("torus", _torus(), 2),
        ("S3", symmetric_group_three(), 2),
    ])
    def test_matching_is_an_involution_with_unit_incidences(self, name, C,
                                                            d):
        rw = morse._Rewriting(C)
        critical, _ = morse.morse_complex(C, d + 1)
        nrv = homology.nerve(C, d)
        for k in range(1, d + 2):
            kept = []
            for cell in nrv.simplices[k]:
                match = rw.match(cell)
                if match is None:
                    kept.append(cell)
                    continue
                up, partner = match
                assert len(partner) == k + (1 if up else -1)
                assert rw.match(partner) == (not up, cell)
                if up:
                    assert sum(sign for face, sign in rw.faces(partner)
                               if face == cell) in (1, -1)
            assert kept == critical[k], (name, k)


class TestFlowChecks:
    def patch_match(self, monkeypatch, pairs):
        real = morse._Rewriting.match
        monkeypatch.setattr(morse._Rewriting, "match", lambda self, cell: (
            (True, pairs[cell]) if cell in pairs else real(self, cell)))

    def test_incidence_other_than_a_unit_is_refused(self, monkeypatch):
        # both outer faces of [g1|g1] are [g1]; the inner one is degenerate
        self.patch_match(monkeypatch, {("g1",): ("g1", "g1")})
        with pytest.raises(fibrations.InternalInvariantError,
                           match=r"incidence 2, not ±1"):
            homology.homology(core.cyclic_group_category(2), 2)

    def test_a_cycle_is_refused(self, monkeypatch):
        # [g2] is matched with [g1|g1], which has the face [g1], and [g1]
        # with [g2|g2], which has the face [g2]
        self.patch_match(monkeypatch, {("g1",): ("g2", "g2"),
                                       ("g2",): ("g1", "g1")})
        with pytest.raises(fibrations.InternalInvariantError,
                           match="Morse matching has a cycle"):
            homology.homology(core.cyclic_group_category(3), 2)


class TestEveryGenerator:
    def test_the_nerve_reads_faces_without_the_matching(self, monkeypatch):
        # every chain is critical, so the flow of a face is the face itself
        def unused(*args):
            raise AssertionError("the nerve ran the matching")

        for name in ("match", "reducing_prefix", "tails", "flow"):
            monkeypatch.setattr(morse._Rewriting, name, unused)
        C = core.product(core.cyclic_group_category(3), core.interval(1))
        nrv = homology.nerve(C, 3)
        assert nrv.counts() == homology._walk_counts(C, 4)
