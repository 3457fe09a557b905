import ast
import contextlib
import io
import itertools
import json
import os
import random

import pytest
import sympy
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from fibcat import cli, core, documents as docs, fixtures, homology, randgen
from fibcat import transport

from test_core import docs_of_type, table_of_doc

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def dense_boundary(nrv, k):
    """The k-th boundary of the normalized nerve as a dense matrix, rows =
    (k-1)-simplices, read off nrv.boundaries.  Like the dense route it
    stands for, it refuses a matrix larger than the cap."""
    rows, cols = nrv.counts()[k - 1], nrv.counts()[k]
    if rows * cols > homology._MATRIX_CAP:
        raise homology.MatrixCapExceeded(
            f"boundary matrix {rows}x{cols} exceeds cap")
    M = [[0] * cols for _ in range(rows)]
    for j, column in enumerate(nrv.boundaries[k]):
        for r, v in column.items():
            M[r][j] = v
    return M


def oracle_homology(C, d):
    """Independent dense-matrix boundary oracle for reduced checks.

    Ranks over the rationals via sympy, torsion via sympy's Smith normal
    form; shares nothing with the production engine beyond the nerve.
    """
    nrv = homology.nerve(C, d)
    counts = nrv.counts()
    betti, torsion = [], []
    mats = {k: Matrix(dense_boundary(nrv, k))
            for k in range(1, d + 2)}
    for k in range(d + 1):
        rank_out = mats[k].rank() if k >= 1 and mats[k].rows and mats[k].cols \
            else 0
        nxt = mats[k + 1]
        rank_in = nxt.rank() if nxt.rows and nxt.cols else 0
        betti.append(counts[k] - rank_out - rank_in)
        if nxt.rows and nxt.cols:
            diag = sympy_snf(nxt, domain=sympy.ZZ)
            divs = [abs(int(diag[i, i])) for i in range(min(diag.shape))]
            torsion.append(sorted(v for v in divs if v > 1))
        else:
            torsion.append([])
    return betti, torsion


class TestNerve:
    def test_point(self):
        assert homology.nerve(core.terminal(), 2).counts() == [1, 0, 0, 0]

    def test_interval_1(self):
        assert homology.nerve(core.interval(1), 2).counts() == [2, 1, 0, 0]

    def test_idempotent_chains(self):
        # one identity-free chain in each dimension: (e), (e,e), ...
        assert homology.nerve(core.idempotent_category(), 2).counts() == \
            [1, 1, 1, 1]

    def test_face_relations_hold(self):
        homology.nerve(core.retract_category(), 2)  # raises on violation

    @pytest.mark.parametrize("name", [
        "Z/3", "Z/4", "idempotent", "retract", "walking iso", "[3]",
        "fixtures", "random"])
    def test_boundaries_are_alternating_sums_of_faces(self, name):
        # the nerve comes from morse.morse_complex; the chains are
        # enumerated here, and each boundary recomputed from raw faces
        categories = nerve_oracle_categories(name)
        for C in categories:
            assert_nerve_from_raw_faces(C, 3)
        assert len(categories) == {"fixtures": 31, "random": 100}.get(name, 1)

    def test_face_relation_violation_raises(self, monkeypatch):
        # g1∘g1 := g0 breaks associativity: (g1∘g1)∘g2 = g2 but
        # g1∘(g1∘g2) = g1, so d1 d2 != d1 d1 on the chain (g2, g1, g1)
        C = core.cyclic_group_category(3)
        monkeypatch.setitem(C._comp, ("g1", "g1"), "g0")
        with pytest.raises(AssertionError, match="face relation fails"):
            homology.nerve(C, 2)


def nerve_oracle_categories(name):
    named = {"Z/3": lambda: core.cyclic_group_category(3),
             "Z/4": lambda: core.cyclic_group_category(4),
             "idempotent": core.idempotent_category,
             "retract": core.retract_category,
             "walking iso": core.walking_isomorphism,
             "[3]": lambda: core.interval(3)}
    if name == "fixtures":
        return [C for C in fixture_categories() if nerve_builds(C, 3)]
    if name == "random":
        rng = random.Random(30)
        return [randgen.random_category(rng, 3, 8) for _ in range(100)]
    return [named[name]()]


def nerve_builds(C, d):
    """False for the two defect fixtures, whose nerve fails to build."""
    try:
        homology.nerve(C, d)
    except (KeyError, AssertionError):
        return False
    return True


def identity_free_chains(C, k):
    """The k-simplices of C's normalized nerve, sorted: the objects for
    k = 0, otherwise every chain of k composable non-identity morphisms,
    grown one morphism at a time."""
    if k == 0:
        return sorted(C.objects)
    non_id = [m for m in C.morphisms if not C.is_identity(m)]
    chains = [(m,) for m in non_id]
    for _ in range(k - 1):
        chains = [chain + (m,) for chain in chains for m in non_id
                  if C.src[m] == C.tgt[chain[-1]]]
    return sorted(chains)


def assert_nerve_from_raw_faces(C, d):
    # face i of a chain composes its entries i-1 and i, or drops an end; a
    # face that holds an identity is degenerate and dropped
    nrv = homology.nerve(C, d)
    assert len(nrv.simplices) == d + 2
    for k in range(d + 2):
        assert list(nrv.simplices[k]) == identity_free_chains(C, k), k
    for k in range(1, d + 2):
        at = {s: i for i, s in enumerate(nrv.simplices[k - 1])}
        for j, chain in enumerate(nrv.simplices[k]):
            if k == 1:
                faces = [C.tgt[chain[0]], C.src[chain[0]]]
            else:
                faces = chain_faces(C, chain)
            total = {}
            for i, face in enumerate(faces):
                if k == 1 or not any(map(C.is_identity, face)):
                    total[at[face]] = total.get(at[face], 0) + (-1) ** i
            assert nrv.boundaries[k][j] == \
                {r: v for r, v in total.items() if v}, (k, chain)


# -- the nerve's face check against every relation in every dimension -------


def chain_faces(C, chain):
    """All faces of a composable chain (a tuple), as raw chains (before
    normalizing)."""
    out = [chain[1:]]
    for i in range(1, len(chain)):
        comp = C.compose(chain[i], chain[i - 1])
        out.append(chain[:i - 1] + (comp,) + chain[i + 1:])
    out.append(chain[:-1])
    return out


def raw_face_relations(C, nrv):
    # d_i d_j = d_{j-1} d_i (i < j), verified on raw chains so that the
    # identities hold before normalization
    for k in range(2, nrv.max_dim + 2):
        for chain in nrv.simplices[k]:
            ffs = [faces_of_face(C, face)
                   for face in chain_faces(C, chain)]
            for j in range(1, k + 1):
                for i in range(j):
                    if ffs[j][i] != ffs[i][j - 1]:
                        raise AssertionError(
                            f"face relation fails on {chain} (i={i}, j={j})")


def faces_of_face(C, chain):
    if len(chain) == 1:
        return [C.tgt[chain[0]], C.src[chain[0]]]
    return chain_faces(C, chain)


def unchecked_nerve(C, d, monkeypatch):
    """The nerve as built, before any face relation is checked; None when
    building it fails, which it does before either check runs."""
    with monkeypatch.context() as m:
        m.setattr(homology, "_check_face_relations", lambda C, d: None)
        try:
            return homology.nerve(C, d)
        except KeyError:
            return None


def face_failure(check, *args):
    """The message check raises on args, or None."""
    try:
        check(*args)
    except AssertionError as exc:
        return str(exc)
    return None


def failing_dimension(message):
    """The dimension of the chain a face failure message names."""
    head = "face relation fails on "
    return len(ast.literal_eval(message[len(head):message.rindex(" (i=")]))


def fixture_categories():
    """Every category document of the fixture corpus, nested ones
    included, built as it is: the two defect fixtures fail validation."""
    for _, doc in sorted(fixtures.build_fixtures().items()):
        for cat in docs_of_type(doc, "category"):
            yield core.FiniteCategory(*table_of_doc(cat), _validate=False)


def planted_defects(rng, C):
    """(pair, composite) replacements of one composite of a pair of
    non-identity morphisms: by a parallel morphism, which may break
    associativity, and by one with a wrong endpoint."""
    pairs = [(g, f) for (g, f) in sorted(C._comp)
             if not C.is_identity(g) and not C.is_identity(f)]
    if not pairs:
        return []
    g, f = rng.choice(pairs)
    h = C._comp[(g, f)]
    parallel = [m for m in C.morphisms if m != h
                and (C.src[m], C.tgt[m]) == (C.src[h], C.tgt[h])]
    skew = [m for m in C.morphisms
            if (C.src[m], C.tgt[m]) != (C.src[h], C.tgt[h])]
    return [((g, f), rng.choice(ms)) for ms in (parallel, skew) if ms]


class TestFaceRelationOracle:
    """The nerve checks dimensions 2 and 3 only; the full check of every
    relation in every dimension is its oracle: both raise the same message
    on the same inputs."""

    def assert_checks_agree(self, C, d, monkeypatch):
        nrv = unchecked_nerve(C, d, monkeypatch)
        if nrv is None:
            return None
        failure = face_failure(raw_face_relations, C, nrv)
        assert face_failure(homology._check_face_relations, C, d) == failure
        return failure

    @pytest.mark.parametrize("d", range(5))
    def test_fixture_categories(self, d, monkeypatch):
        seen = 0
        for C in fixture_categories():
            self.assert_checks_agree(C, d, monkeypatch)
            seen += 1
        assert seen == 33

    @pytest.mark.parametrize("d", range(5))
    def test_random_categories(self, d, monkeypatch):
        rng = random.Random(21 + d)
        for _ in range(25):
            C = randgen.random_category(rng, 3, 8)
            assert self.assert_checks_agree(C, d, monkeypatch) is None

    @pytest.mark.parametrize("C, pair, composite, failure", [
        # the associativity break of test_face_relation_violation_raises
        (core.cyclic_group_category(3), ("g1", "g1"), "g0",
         "face relation fails on ('g1', 'g1', 'g2') (i=1, j=2)"),
        # 1->2 ∘ 0->1 := 0->1 has the wrong target
        (core.interval(2), ("1->2", "0->1"), "0->1",
         "face relation fails on ('0->1', '1->2') (i=0, j=1)"),
        # 1->2 ∘ 0->1 := 1->2 has the wrong source
        (core.interval(2), ("1->2", "0->1"), "1->2",
         "face relation fails on ('0->1', '1->2') (i=1, j=2)"),
    ])
    def test_planted_defects(self, C, pair, composite, failure, monkeypatch):
        monkeypatch.setitem(C._comp, pair, composite)
        for d in range(5):
            found = self.assert_checks_agree(C, d, monkeypatch)
            assert found == (failure if d >= failing_dimension(failure) - 1
                             else None)
        assert failing_dimension(failure) in (2, 3)

    def test_random_planted_defects(self, monkeypatch):
        rng = random.Random(3)
        pool = [randgen.random_category(rng, 4, 10) for _ in range(100)]
        # categories with loops and parallel morphisms, where a planted
        # composite can break associativity
        pool += [make() for make in (
            lambda: core.cyclic_group_category(3),
            lambda: core.cyclic_group_category(4), core.retract_category,
            core.idempotent_category, core.walking_isomorphism)
            for _ in range(6)]
        compared, first_failures = 0, []
        for C in pool:
            for pair, composite in planted_defects(rng, C):
                with monkeypatch.context() as m:
                    m.setitem(C._comp, pair, composite)
                    for d in range(5):
                        found = self.assert_checks_agree(C, d, monkeypatch)
                    if unchecked_nerve(C, 4, monkeypatch) is None:
                        continue
                    compared += 1
                    if found is not None:
                        first_failures.append(failing_dimension(found))
        assert compared >= 50
        assert set(first_failures) == {2, 3}
        assert min(first_failures.count(2), first_failures.count(3)) >= 10


class TestSmithNormalForm:
    def test_diagonal_divisibility(self):
        M = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        divisors = homology.smith_normal_form(M)
        # product of invariant factors is |det| = 624
        assert divisors[0] * divisors[1] * divisors[2] == 624
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0

    def test_matches_sympy_on_random_matrices(self):
        rng = random.Random(0)
        for _ in range(25):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            M = [[rng.randint(-6, 6) for _ in range(cols)]
                 for _ in range(rows)]
            mine = homology.smith_normal_form(M)
            diag = sympy_snf(Matrix(M), domain=sympy.ZZ)
            theirs = sorted(abs(int(diag[i, i]))
                            for i in range(min(diag.shape))
                            if diag[i, i] != 0)
            assert sorted(mine) == theirs


def _sympy_divisors(M):
    if not M or not M[0]:
        return []
    diag = sympy_snf(Matrix(M), domain=sympy.ZZ)
    return sorted(abs(int(diag[i, i])) for i in range(min(diag.shape))
                  if diag[i, i] != 0)


def _assert_divisor_chain(divisors):
    assert all(v > 0 for v in divisors)
    for a, b in zip(divisors, divisors[1:]):
        assert b % a == 0


def random_sparse_matrices(rng, count):
    """count integer matrices of up to 12x20, with unit and non-unit
    entries at densities 0.1 to 0.5."""
    values = [1, -1, 1, -1, 2, -2, 3, -4, 6]
    for _ in range(count):
        rows, cols = rng.randint(1, 12), rng.randint(1, 20)
        density = rng.choice([0.1, 0.25, 0.5])
        yield [[rng.choice(values) if rng.random() < density else 0
                for _ in range(cols)] for _ in range(rows)]


def _torus():
    circle = core.poset_from_order(
        ["a0", "a1", "b0", "b1"],
        lambda p, q: p == q or (p[0] == "a" and q[0] == "b"))
    return core.product(circle, circle)


class TestSparseSmithNormalForm:
    """The sparse unit-pivot engine against sympy and the dense routine."""

    def test_random_sparse_matrices_match_both_oracles(self):
        for M in random_sparse_matrices(random.Random(5), 120):
            mine = homology.smith_normal_form(M)
            _assert_divisor_chain(mine)
            assert mine == homology._dense_smith_normal_form(M)
            assert sorted(mine) == _sympy_divisors(M)

    @pytest.mark.parametrize("M, expected", [
        ([], []),                                  # 0 x n
        ([[], [], []], []),                        # n x 0
        ([[0, 0, 0], [0, 0, 0]], []),              # all zero
        ([[2, 4], [6, 8]], [2, 4]),                # no unit entry
        ([[2, 0, 0], [0, 3, 0], [0, 0, 0]], [1, 6]),
        ([[1, 0], [0, 4], [0, 6]], [1, 2]),        # unit plus residual
    ])
    def test_edge_cases(self, M, expected):
        assert homology.smith_normal_form(M) == expected
        assert sorted(expected) == _sympy_divisors(M)

    @pytest.mark.parametrize("name, C, d", [
        ("Z/4", core.cyclic_group_category(4), 3),
        ("Z/5", core.cyclic_group_category(5), 3),
        ("torus", _torus(), 3),
        ("Ar([3])", core.arrow_category(core.interval(3))[0], 3),
    ])
    def test_every_nerve_boundary_matches_dense(self, name, C, d):
        nrv = homology.nerve(C, d)
        for k in range(1, d + 2):
            M = dense_boundary(nrv, k)
            mine = homology.smith_normal_form(M)
            _assert_divisor_chain(mine)
            assert mine == homology._dense_smith_normal_form(M), (name, k)

    def test_torus_homology(self):
        rep = homology.homology(_torus(), 3)
        assert rep.betti == [1, 2, 1, 0]
        assert rep.torsion == [[], [], [], []]

    def test_cyclic_group_eight_closed_form(self):
        rep = homology.homology(core.cyclic_group_category(8), 3)
        assert rep.betti == [1, 0, 0, 0]
        assert rep.torsion == [[], [8], [], [8]]

    def test_arrow_category_of_interval_four_is_contractible(self):
        Ar4 = core.arrow_category(core.interval(4))[0]
        rep = homology.homology(Ar4, 2)
        assert rep.reduced_trivial_up_to(2)


# -- coboundaries with clearing against the boundary route -------------------


def oracle_homology_of_nerve(nrv):
    """The boundary route: smith_normal_form(dense_boundary(nrv, k)) for
    every k, with no clearing."""
    d = nrv.max_dim
    counts = nrv.counts()
    ranks = [0] * (d + 2)
    torsion = []
    for k in range(1, d + 2):
        divisors = homology.smith_normal_form(dense_boundary(nrv, k))
        ranks[k] = len(divisors)
        torsion.append(sorted(v for v in divisors if v > 1))
    betti = [counts[k] - ranks[k] - ranks[k + 1] for k in range(d + 1)]
    return homology.HomologyReport(d, betti, torsion, counts[:d + 1])


def cleared_coboundary(nrv, k, cleared):
    """δ_{k-1} = ∂_kᵀ, one row per k-simplex and one column per
    (k-1)-simplex not in cleared (a set of indices into simplices[k-1]).
    The cap is checked against the full boundary ∂_k."""
    homology._check_cap(nrv.counts(), k)
    kept = [r for r in range(nrv.counts()[k - 1]) if r not in cleared]
    return [[entries.get(r, 0) for r in kept]
            for entries in nrv.boundaries[k]]


def homology_of_nerve(nrv):
    """The nerve route: the whole normalized complex of the nerve, reduced
    by homology._reduce_with_clearing.  The cap counts each full boundary
    before any is reduced."""
    d = nrv.max_dim
    counts = nrv.counts()
    for k in range(1, d + 2):
        homology._check_cap(counts, k)
    betti, torsion = homology._reduce_with_clearing(counts, nrv.boundaries)
    return homology.HomologyReport(d, betti, torsion, counts[:d + 1])


def reduction_steps(nrv, monkeypatch):
    """homology_of_nerve(nrv), with the (matrix, divisors, unit rows) of
    each smith_normal_form call it makes, in order."""
    steps = []
    real = homology.smith_normal_form

    def record(M, unit_rows=None):
        divisors = real(M, unit_rows)
        steps.append((M, divisors, list(unit_rows or ())))
        return divisors

    with monkeypatch.context() as m:
        m.setattr(homology, "smith_normal_form", record)
        rep = homology_of_nerve(nrv)
    return rep, steps


def cleared_columns(nrv, k, M):
    """How many (k-1)-simplices the coboundary M of step k leaves out."""
    if not M:
        return None  # no k-simplex: the width is not seen
    return nrv.counts()[k - 1] - len(M[0])


def torsion_with_clearing():
    """Z/2 × [1]: torsion Z/2 in degree 3, read off the cleared δ_3."""
    return core.product(core.cyclic_group_category(2), core.interval(1))


CLEARING_CASES = (
    [(f"Z/{n}", lambda n=n: core.cyclic_group_category(n), 3)
     for n in range(2, 8)]
    + [("Z/2 d=9", lambda: core.cyclic_group_category(2), 9),
       ("Z/3 d=6", lambda: core.cyclic_group_category(3), 6),
       ("torus", _torus, 3),
       ("Ar([3])", lambda: core.arrow_category(core.interval(3))[0], 3),
       ("Z/2 x [1]", torsion_with_clearing, 3),
       # torsion in every degree above 0, and residual blocks beside units
       ("Z/2 x Z/2", lambda: core.product(core.cyclic_group_category(2),
                                          core.cyclic_group_category(2)), 3)])


class TestClearing:
    """homology_of_nerve reduces coboundaries upward with clearing; the
    boundary route is its oracle, and sympy checks each step."""

    def assert_routes_agree(self, C, d):
        nrv = homology.nerve(C, d)
        assert homology_of_nerve(nrv) == oracle_homology_of_nerve(nrv)

    def test_random_categories(self):
        rng = random.Random(25)
        for i in range(150):
            C = randgen.random_category(rng, 4, 10)
            self.assert_routes_agree(C, i % 4)

    @pytest.mark.parametrize("d", range(4))
    def test_fixture_categories(self, d):
        compared = 0
        for C in fixture_categories():
            try:
                homology.nerve(C, d)
            except (KeyError, AssertionError):
                continue  # a defect fixture: no nerve on either route
            self.assert_routes_agree(C, d)
            compared += 1
        assert compared >= 31

    @pytest.mark.parametrize("name, make, d", CLEARING_CASES,
                             ids=[c[0] for c in CLEARING_CASES])
    def test_named_categories(self, name, make, d):
        self.assert_routes_agree(make(), d)

    def test_torsion_beside_cleared_columns(self, monkeypatch):
        nrv = homology.nerve(torsion_with_clearing(), 3)
        rep, steps = reduction_steps(nrv, monkeypatch)
        assert rep.torsion == [[], [2], [], [2]]
        M, divisors, _ = steps[3]   # δ_3, for H_3
        assert cleared_columns(nrv, 4, M) > 0
        assert 2 in divisors

    @pytest.mark.parametrize("name, C, d", [
        ("[3]", core.interval(3), 3),
        ("Z/3", core.cyclic_group_category(3), 4),
        ("retract", core.retract_category(), 3),
        ("idempotent", core.idempotent_category(), 3),
        ("walking iso", core.walking_isomorphism(), 3),
        ("torus", _torus(), 2),
        ("Z/2 x [1]", torsion_with_clearing(), 3),
        ("Z/2 x Z/2", core.product(core.cyclic_group_category(2),
                                   core.cyclic_group_category(2)), 3),
    ])
    def test_each_step_matches_sympy_on_the_full_boundary(self, name, C, d,
                                                          monkeypatch):
        nrv = homology.nerve(C, d)
        _, steps = reduction_steps(nrv, monkeypatch)
        assert len(steps) == d + 1
        cleared = 0
        for k, (M, divisors, _) in enumerate(steps, 1):
            assert len(M) == nrv.counts()[k], (name, k)
            full = _sympy_divisors(dense_boundary(nrv, k))
            assert sorted(divisors) == full, (name, k)
            assert _sympy_divisors(M) == full, (name, k)
            cleared += cleared_columns(nrv, k, M) or 0
        assert cleared > 0, name

    def test_unit_pivot_rows_are_cleared_at_the_next_step(self, monkeypatch):
        nrv = homology.nerve(core.cyclic_group_category(3), 4)
        _, steps = reduction_steps(nrv, monkeypatch)
        for k in range(2, len(steps) + 1):
            M = steps[k - 1][0]
            rows = steps[k - 2][2]
            assert cleared_columns(nrv, k, M) == len(rows)
            assert M == cleared_coboundary(nrv, k, set(rows))


def _unit_rows_cases():
    yield from random_sparse_matrices(random.Random(7), 80)
    for C, d in ((core.cyclic_group_category(4), 3), (_torus(), 3),
                 (core.arrow_category(core.interval(3))[0], 3)):
        nrv = homology.nerve(C, d)
        for k in range(1, d + 2):
            yield dense_boundary(nrv, k)
            yield cleared_coboundary(nrv, k, set())


class TestUnitRows:
    def test_the_list_changes_no_divisor(self):
        for M in _unit_rows_cases():
            unit_rows = []
            assert homology.smith_normal_form(M, unit_rows) == \
                homology.smith_normal_form(M)

    def test_rows_are_distinct_and_at_most_the_leading_ones(self):
        recorded = 0
        for M in _unit_rows_cases():
            unit_rows = []
            divisors = homology.smith_normal_form(M, unit_rows)
            ones = len(divisors) - len([v for v in divisors if v > 1])
            assert len(set(unit_rows)) == len(unit_rows) <= ones
            assert all(0 <= p < len(M) for p in unit_rows)
            recorded += len(unit_rows)
        assert recorded > 0

    def test_residual_pivots_are_not_recorded(self):
        # no unit entry: every pivot is the dense block's, a 1 included
        unit_rows = []
        assert homology.smith_normal_form([[2, 3], [3, 2]], unit_rows) == \
            [1, 5]
        assert unit_rows == []


class TestHomology:
    @pytest.mark.parametrize("n", range(5))
    def test_intervals_are_contractible(self, n):
        rep = homology.homology(core.interval(n), 3)
        assert rep.reduced_trivial_up_to(3)

    def test_walking_iso_is_contractible(self):
        rep = homology.homology(core.walking_isomorphism(), 3)
        assert rep.reduced_trivial_up_to(3)

    def test_cyclic_group_two(self):
        rep = homology.homology(core.cyclic_group_category(2), 3)
        assert rep.degree(0) == (1, ())
        assert rep.degree(1) == (0, (2,))
        assert rep.degree(2) == (0, ())
        assert rep.degree(3) == (0, (2,))

    def test_cyclic_group_three(self):
        rep = homology.homology(core.cyclic_group_category(3), 3)
        assert rep.degree(1) == (0, (3,))
        assert rep.degree(3) == (0, (3,))

    def test_against_boundary_oracle(self):
        rng = random.Random(11)
        cats = [core.retract_category(), core.idempotent_category(),
                core.cyclic_group_category(2), core.walking_isomorphism()]
        cats += [randgen.random_category(rng, 3, 8) for _ in range(8)]
        for C in cats:
            rep = homology.homology(C, 3)
            betti, torsion = oracle_homology(C, 3)
            assert rep.betti == betti
            assert [list(t) for t in rep.torsion] == torsion

    def test_relabeling_invariance(self):
        rng = random.Random(3)
        for _ in range(6):
            C = randgen.random_category(rng, 3, 8)
            D = core.prefix_relabel(C, "zz.")
            a = homology.homology(C, 2)
            b = homology.homology(D, 2)
            assert a.betti == b.betti and a.torsion == b.torsion

    def test_degree_zero_counts_components(self):
        A = core.prefix_relabel(core.interval(1), "a.")
        B = core.prefix_relabel(core.cyclic_group_category(2), "b.")
        rep = homology.homology(core.disjoint_union(A, B), 1)
        assert rep.betti[0] == 2

    def test_certificates_are_monotone(self):
        rng = random.Random(9)
        for _ in range(6):
            C = randgen.random_category(rng, 3, 7)
            r3 = homology.homology(C, 3)
            if r3.reduced_trivial_up_to(3):
                assert r3.reduced_trivial_up_to(2)


class TestGuards:
    def test_matrix_cap_failure_is_loud(self, monkeypatch):
        monkeypatch.setattr(homology, "_MATRIX_CAP", 2)
        with pytest.raises(homology.MatrixCapExceeded):
            homology.homology(core.interval(2), 2)

    def test_cap_counts_the_full_boundary(self, monkeypatch):
        # Z/3 at d=3: the boundaries are 1x2, 2x4, 4x8 and 8x16; δ_3 drops
        # the columns of step 3's unit pivots, so it is smaller than 8x16
        nrv = homology.nerve(core.cyclic_group_category(3), 3)
        _, steps = reduction_steps(nrv, monkeypatch)
        top = steps[-1][0]
        cleared_size = len(top) * len(top[0])
        assert 4 * 8 <= cleared_size < 8 * 16
        monkeypatch.setattr(homology, "_MATRIX_CAP", cleared_size)
        with pytest.raises(homology.MatrixCapExceeded,
                           match="^boundary matrix 8x16 exceeds cap$"):
            homology_of_nerve(nrv)


class TestPi0:
    def test_interval(self):
        assert len(set(homology.pi0_map(core.interval(3)).values())) == 1

    def test_disjoint_union_adds(self):
        for A, B in ((core.interval(2), core.interval(1)),
                     (core.interval(1), core.terminal())):
            union = core.disjoint_union(core.prefix_relabel(A, "a."),
                                        core.prefix_relabel(B, "b."))
            assert len(set(homology.pi0_map(union).values())) == 2


class TestFinality:
    def test_point_at_final_object_is_final(self):
        for n in range(3):
            In = core.interval(n)
            assert homology.is_final(core.point(In, str(n))).ok
            assert homology.is_initial(core.point(In, "0")).ok

    def test_point_at_bottom_is_not_final(self):
        assert not homology.is_final(core.point(core.interval(1), "0")).ok

    def test_right_adjoint_inclusion_is_final(self):
        I2 = core.interval(2)
        sub = core.full_subcategory(I2, ["1", "2"])
        inc = core.inclusion_functor(sub, I2)
        assert homology.is_final(inc).ok
        assert not homology.is_initial(inc).ok

    def test_product_projection_is_final_and_initial(self):
        C = core.interval(1)
        P, pr1, _ = core.product_projections(C, core.interval(1))
        assert homology.is_final(pr1).ok
        assert homology.is_initial(pr1).ok

    def test_certified_mode_refines_pi0(self):
        I2 = core.interval(2)
        sub = core.full_subcategory(I2, ["1", "2"])
        inc = core.inclusion_functor(sub, I2)
        v = homology.is_final(inc, certify_dim=2)
        assert v.ok

    def test_finality_induces_pi0_bijection(self):
        rng = random.Random(21)
        for _ in range(10):
            f = randgen.random_final_functor(rng)
            assert (len(set(homology.pi0_map(f.source).values()))
                    == len(set(homology.pi0_map(f.target).values())))


def colliding_comma_ids():
    """discrete{a, "a,b"} -> the walking isomorphism x ≅ y, with id_x named
    "c" and i: x -> y named "b,c": the comma objects (a, i) and ("a,b", id_x)
    under x both print "(*,a,b,c)"."""
    W = core.relabel(core.walking_isomorphism(), {"a": "x", "b": "y"},
                     {"id_a": "c", "i": "b,c", "id_b": "id_y"})
    S = core.discrete_category(["a", "a,b"])
    return core.Functor(S, W, {"a": "y", "a,b": "x"},
                        {S.identity["a"]: "id_y", S.identity["a,b"]: "c"})


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class TestCategoriesOfElements:
    """Finality reads the category of elements of D(d, F-) at each object
    d; the category is built only for a certificate."""

    def test_pi0_mode_builds_no_category(self, monkeypatch):
        calls = []
        for name in ("comma_with_data", "square_category"):
            real = getattr(core, name)
            monkeypatch.setattr(core, name, lambda *a, name=name, real=real:
                                calls.append(name) or real(*a))
        functors = []
        for name in sorted(os.listdir(FIXTURES)):
            path = os.path.join(FIXTURES, name)
            with open(path, encoding="utf-8") as fh:
                if json.load(fh)["type"] == "functor":
                    functors.append(path)
        assert len(functors) > 4
        for path in functors:
            for command in ("final", "initial"):
                assert run_main([command, "--functor", path])[0] == 0
        assert calls == []

    @pytest.mark.parametrize("check", [homology.is_final,
                                       homology.is_initial])
    def test_certificates_build_only_connected_categories(self, check,
                                                           monkeypatch):
        # exactly the connected categories of elements without an initial
        # or a terminal object are built; the others are decided unbuilt
        built = []
        real = core.square_category

        def record(*args):
            squares = real(*args)
            built.append(squares[0])
            return squares

        monkeypatch.setattr(core, "square_category", record)
        counts = {"connected": 0, "disconnected": 0, "coned": 0}
        for i in range(40):
            rng = random.Random(f"elements-built:{i}")
            F = randgen.random_functor_between(
                rng, randgen.random_category(rng, 3, 7, prefix="j."),
                randgen.random_category(rng, 3, 7, prefix="k."))
            G = F if check is homology.is_final else core.opposite_functor(F)
            C, D = G.source, G.target
            connected, expected = 0, []
            for d in D.objects:
                cat = real(core.terminal(), C, {
                    (c, k): ("*", c, (c, k)) for c in C.objects
                    for k in D.hom(d, G.ob_map[c])},
                    lambda x, _, u, x2: x2 == (
                        C.tgt[u], D.compose(G.mor_map[u], x[1])))[0]
                if len(set(homology.pi0_map(cat).values())) != 1:
                    counts["disconnected"] += 1
                    continue
                connected += 1
                if core._cone_point(cat) is None:
                    expected.append(cat)
                else:
                    counts["coned"] += 1
            del built[:]
            fv = check(F, certify_dim=1)
            assert sum(e["connected"] for e in fv.per_object.values()) == \
                connected
            assert [(C.objects, C.composition_table()) for C in built] == \
                [(C.objects, C.composition_table()) for C in expected]
            counts["connected"] += connected
        assert counts["connected"] > 20 and counts["disconnected"] > 20
        assert counts["coned"] > 0 and counts["connected"] > counts["coned"]

    @pytest.mark.parametrize("certify", [[], ["--certify-dim", "2"]])
    def test_comma_ids_that_print_alike_get_a_verdict(self, certify,
                                                      tmp_path):
        F = colliding_comma_ids()
        path = tmp_path / "colliding.json"
        path.write_text(docs.dumps(docs.functor_to_doc(F)))
        for command, ok in (("final", False), ("initial", False)):
            code, out, err = run_main([command, "--functor", str(path)]
                                      + certify)
            assert (code, err) == (0, ""), err
            report = json.loads(out)
            assert report["verdicts"] == {command: ok}
        # two elements and no morphism between them under x
        entry = homology.is_final(F).per_object["x"]
        assert entry == {"nonempty": True, "connected": False}


class TestColimitExactness:
    def test_final_functor_preserves_all_set_colimits(self):
        I1 = core.interval(1)
        inc = core.point(I1, "1")
        for G in homology.all_set_valued_functors(I1, max_size=2):
            assert homology.colimit_comparison_is_bijective(inc, G)

    def test_non_final_functor_fails_on_some_diagram(self):
        I1 = core.interval(1)
        bad = core.point(I1, "0")
        assert not homology.is_final(bad).ok
        assert any(not homology.colimit_comparison_is_bijective(bad, G)
                   for G in homology.all_set_valued_functors(I1, max_size=2))


class TestTheoremBStyleChecks:
    def test_pi0_square_with_constant_fibers(self):
        # a product projection with connected base: components multiply
        rng = random.Random(50)
        for _ in range(5):
            pi = randgen.random_two_handed_fibration(rng)
            Yp = randgen.random_category(rng, 2, 5, prefix="y.")
            f = randgen.random_functor_between(rng, Yp, pi.target)
            assert homology.quillenB_pi0_square(f, pi)["pullback"]

    def test_point_base_reduces_to_fiber_components(self):
        C = core.interval(1)
        K = core.interval(1)
        P, pr1, pr2 = core.product_projections(C, K)
        f = core.point(K, "0")
        res = homology.quillenB_pi0_square(f, pr2)
        assert res["pullback"]
        assert res["corner_components"] == 1

    def test_empty_corner_is_a_pullback_of_empty_sets(self):
        K = core.interval(1)
        empty = core.FiniteCategory([], [], {}, {})
        f = core.Functor(empty, K, {}, {})
        C = core.terminal()
        P, pr1, pr2 = core.product_projections(C, K)
        assert homology.quillenB_pi0_square(f, pr2)["pullback"]

    def test_refusal_when_the_leg_is_one_handed_only(self):
        # the mapping cylinder of a non-initial functor: left final only
        from fibcat import correspondences as corrs, fibrations as fib
        A = core.relabel(core.terminal(), {"*": "a*"}, {"id": "a.id"})
        B = core.interval(1)
        cyl = corrs.collage(corrs.hom_profunctor_along(
            core.constant_functor(A, B, "1"), core.identity_functor(B)))
        assert fib.is_left_final_fibration(cyl.projection).ok
        assert not fib.is_right_initial_fibration(cyl.projection).ok
        f = core.point(core.interval(1), "0")
        with pytest.raises(core.PreconditionError) as err:
            homology.quillenB_pi0_square(f, cyl.projection)
        assert str(err.value) == "right leg is not a right initial fibration"
        assert err.value.witness == \
            fib.is_right_initial_fibration(cyl.projection).witness

    def test_exponentiability_is_checked_once(self, monkeypatch):
        from fibcat import fibrations as fib
        calls = []
        original = fib.is_exponentiable

        def counting(pi, *args, **kwargs):
            calls.append(pi)
            return original(pi, *args, **kwargs)

        monkeypatch.setattr(fib, "is_exponentiable", counting)
        K = core.interval(1)
        P, pr1, pr2 = core.product_projections(core.interval(1), K)
        assert homology.quillenB_pi0_square(core.point(K, "0"), pr2)["pullback"]
        assert calls == [pr2]

    def test_slice_comparison_hypothesis(self):
        # a left adjoint has contractible slices, so the certificate holds
        I2 = core.interval(2)
        inc = core.inclusion_functor(
            core.full_subcategory(I2, ["0", "1"]), I2)
        ok, witness = homology.theoremB_hypothesis(inc, 1)
        assert ok
        # two points over different ends: component counts of the slices
        # jump along the base arrow
        C = core.discrete_category(["a", "b"])
        bad = core.Functor(C, core.interval(1), {"a": "0", "b": "1"},
                           {"id_a": "0->0", "id_b": "1->1"})
        ok2, witness2 = homology.theoremB_hypothesis(bad, 1)
        assert not ok2 and witness2["base_morphism"] == "0->1"

    def test_final_closure_driver_reports_no_violations(self):
        rng = random.Random(51)
        assert homology.check_final_closure(rng, rounds=10) == []


class TestChainMapCertificates:
    def test_identity_is_an_iso(self):
        assert homology.chain_map_induces_homology_iso(
            core.identity_functor(core.interval(2)), 2)

    def test_adjoint_collapse_is_an_iso(self):
        W = core.walking_isomorphism()
        assert homology.chain_map_induces_homology_iso(core.point(W, "a"), 2)

    def test_group_point_is_not_an_iso(self):
        Z2 = core.cyclic_group_category(2)
        assert not homology.chain_map_induces_homology_iso(
            core.point(Z2, "*"), 2)


# -- the mapping cone against the dense route ------------------------------


def dense_chain_map(F, nrv_C, nrv_D):
    """The matrices of the map of normalized complexes induced by F, rows =
    D's simplices: a simplex whose image contains an identity maps to
    zero."""
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


def oracle_cone_boundary(nrv_C, nrv_D, fmaps, k):
    """Boundary of the mapping cone, cone_k = C_{k-1} + D_k, dense."""
    counts_C = nrv_C.counts()
    counts_D = nrv_D.counts()
    nC1 = counts_C[k - 1]
    nD = counts_D[k]
    nC2 = counts_C[k - 2] if k >= 2 else 0
    nD1 = counts_D[k - 1]
    M = [[0] * (nC1 + nD) for _ in range(nC2 + nD1)]
    if k >= 2:
        dC = dense_boundary(nrv_C, k - 1)
        for i in range(nC2):
            for j in range(nC1):
                M[i][j] = -dC[i][j]
    dD = dense_boundary(nrv_D, k)
    for i in range(nD1):
        for j in range(nD):
            M[nC2 + i][nC1 + j] = dD[i][j]
    fm = fmaps[k - 1]
    for i in range(nD1):
        for j in range(nC1):
            M[nC2 + i][j] = -fm[i][j]
    return M


def oracle_chain_map_induces_homology_iso(F, d):
    """The dense route: every boundary of the cone in full, each reduced
    by smith_normal_form without clearing."""
    nrv_C = homology.nerve(F.source, d + 1)
    nrv_D = homology.nerve(F.target, d + 1)
    fmaps = dense_chain_map(F, nrv_C, nrv_D)
    counts_C = nrv_C.counts()
    counts_D = nrv_D.counts()
    top = d + 2
    divisors = {k: homology.smith_normal_form(
        oracle_cone_boundary(nrv_C, nrv_D, fmaps, k))
        for k in range(1, top + 1)}
    for k in range(0, d + 2):
        n_k = (counts_C[k - 1] if k >= 1 else 0) + counts_D[k]
        rank_out = len(divisors[k]) if k >= 1 else 0
        rank_in = len(divisors[k + 1])
        betti = n_k - rank_out - rank_in
        torsion = [v for v in divisors[k + 1] if v > 1]
        if betti != 0 or torsion:
            return False
    return True


def cone_outcome(check, F, d):
    """check(F, d), or the message of the cap it refuses with."""
    try:
        return check(F, d)
    except homology.MatrixCapExceeded as exc:
        return str(exc)


def random_functor_cases():
    """One functor drawn from all_functors per pair of random categories:
    400 pairs of posets, then 300 of categories, each at d = 0, 1, 2."""
    for seed, draws, make in (
            (11, 400, lambda rng: randgen.random_poset(rng, 4)),
            (7, 300, lambda rng: randgen.random_category(rng, 3, 6))):
        rng = random.Random(seed)
        for _ in range(draws):
            C, D = make(rng), make(rng)
            F = rng.choice(core.all_functors(C, D))
            for d in range(3):
                yield F, d


def group_inclusion(m):
    """Z/m -> Z/m × [1] at the object 0."""
    Z = core.cyclic_group_category(m)
    return core.pairing_functor(
        core.identity_functor(Z), core.constant_functor(Z, core.interval(1),
                                                        "0"))


def group_retraction(m):
    """The projection Z/m × [1] -> Z/m: its source's nerve is the larger,
    so the cap meets C's boundaries first."""
    return core.product_projections(core.cyclic_group_category(m),
                                    core.interval(1))[1]


class TestConeOracle:
    """chain_map_induces_homology_iso reduces a sparse cone with clearing;
    the dense cone, reduced without clearing, is its oracle."""

    def test_random_functors(self):
        verdicts = []
        for F, d in random_functor_cases():
            mine = homology.chain_map_induces_homology_iso(F, d)
            assert mine == oracle_chain_map_induces_homology_iso(F, d)
            verdicts.append(mine)
        assert (verdicts.count(True), verdicts.count(False)) == (800, 1300)

    @pytest.mark.parametrize("m", [3, 4, 5])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("make", [group_inclusion, group_retraction])
    def test_group_inclusions_and_retractions(self, make, m, d):
        F = make(m)
        assert homology.chain_map_induces_homology_iso(F, d)
        assert oracle_chain_map_induces_homology_iso(F, d)

    @pytest.mark.parametrize("cap", [10, 30, 100, 400])
    def test_same_refusals(self, cap, monkeypatch):
        monkeypatch.setattr(homology, "_MATRIX_CAP", cap)
        cases = [(make(m), d) for make in (group_inclusion, group_retraction)
                 for m in (3, 4, 5) for d in (1, 2)]
        cases += list(itertools.islice(random_functor_cases(), 1200, 1500))
        refused = []
        for F, d in cases:
            mine = cone_outcome(homology.chain_map_induces_homology_iso, F, d)
            assert mine == cone_outcome(oracle_chain_map_induces_homology_iso,
                                        F, d)
            refused.append(isinstance(mine, str))
        assert refused[1] and refused[3]  # Z/3 and Z/4 at d = 2
        assert any(refused) and not all(refused)

    @pytest.mark.parametrize("m, d, shape", [
        (5, 3, "1792x8448"), (6, 3, "4250x25000"), (4, 4, "2106x7290"),
        (8, 2, "1862x15778")])
    def test_refused_before_either_nerve_is_built(self, m, d, shape,
                                                  monkeypatch):
        # the caps are read off the walk counts, at the real cap
        def refuse_to_build(C, d):
            raise AssertionError("a nerve was built before the cap check")

        monkeypatch.setattr(homology, "nerve", refuse_to_build)
        with pytest.raises(homology.MatrixCapExceeded,
                           match=f"^boundary matrix {shape} exceeds cap$"):
            homology.chain_map_induces_homology_iso(group_inclusion(m), d)


# -- perfbench's work counters on real calls --------------------------------


PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


class TestPerfbenchCounters:
    """perfbench's tracer reads these counters off each call's arguments
    and result; no benchmark job reaches the nerve, so they are pinned
    here against closed forms."""

    @pytest.fixture
    def counters(self, monkeypatch):
        monkeypatch.syspath_prepend(PERFBENCH)
        import tracing
        return tracing.COUNTERS

    @pytest.mark.parametrize("n, d", [(2, 4), (3, 3), (4, 2)])
    def test_nerve_simplices(self, counters, n, d):
        # Z/n has n-1 non-identity morphisms, all composable
        C = core.cyclic_group_category(n)
        nrv = homology.nerve(C, d)
        assert counters["homology.nerve"]((C, d), nrv) == \
            {"simplices": sum((n - 1) ** k for k in range(d + 2))}

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_smith_normal_form_on_a_nerve_boundary(self, counters, n,
                                                   monkeypatch):
        # Z/n at d = 1: δ_0 is (n-1)x1 and zero; δ_1 = ∂_2ᵀ has (n-1)^2
        # rows, n-1 columns (nothing cleared), and (n-1)(3n-5) nonzeros:
        # (a, b) has faces b, a+b and a, where a+b = 0 is degenerate
        calls = []
        real = homology.smith_normal_form

        def record(M, unit_rows=None):
            result = real(M, unit_rows)
            calls.append(counters["homology.smith_normal_form"](
                (M, unit_rows), result))
            return result

        monkeypatch.setattr(homology, "smith_normal_form", record)
        nrv = homology.nerve(core.cyclic_group_category(n), 1)
        assert homology._reduce_with_clearing(nrv.counts(), nrv.boundaries) \
            == ([1, 0], [[], [n]])
        assert calls == [
            {"entries": n - 1, "nnz": 0, "rank": 0},
            {"entries": (n - 1) ** 3, "nnz": (n - 1) * (3 * n - 5),
             "rank": n - 1}]
