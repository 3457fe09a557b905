"""Trusted builders against the validators they do not call.

A trusted builder derives its output from inputs that were validated
already, so the output is valid by construction and is not checked again
at run time.  TRUSTED lists each such builder of `src/fibcat` with its
oracle, which runs on the builder's output the full check it skips:

* `Profunctor.validate` on every derived bimodule;
* `check_two_sided_discrete` on every bifibration: it must pass, and its
  transports must equal the ones the builder kept, dict for dict; its
  total, which is composed on first read, must equal, index and legs
  included, the one `square_category` builds by testing each square;
* `validate_category` on the table of every collage total;
* each derived category equals, index included, the `FiniteCategory`
  built and validated from its table.

The oracles run over `randgen` draws and over the hom bimodules of [4],
[5], [6], Z/4 and Z/5.  `test_trusted_registry.py` fails when a builder
that skips its check is not listed here.
"""

import functools
import random

import pytest

from fibcat import bifib_squares, core, correspondences as corrs, randgen

DRAWS = 200

HOM_BASES = (core.interval(4), core.interval(5), core.interval(6),
             core.cyclic_group_category(4), core.cyclic_group_category(5))


def _hom_pair(C):
    """Hom_C twice, its outer ends renamed so that the two compose."""
    H = corrs.hom_profunctor(C).validate()

    def rename(prefix):
        return ({x: prefix + x for x in C.objects},
                {m: prefix + m for m in C.morphisms})

    return (corrs.relabel_profunctor(H, source=rename("a.")).validate(),
            corrs.relabel_profunctor(H, target=rename("c.")).validate())


@functools.lru_cache(maxsize=None)
def samples():
    """Composable pairs (P01, P12): the seeded draws, then the homs."""
    rng = random.Random(16)
    pairs = [randgen.random_composable_profunctors(rng) for _ in range(DRAWS)]
    return tuple(pairs + [_hom_pair(C) for C in HOM_BASES])


# -- the checks ------------------------------------------------------------


def _bimodule(P):
    assert P.validate() is P


def _two_sided(X):
    check = corrs.check_two_sided_discrete(X.total, X.to_left, X.to_right)
    assert check.ok, check.witness
    assert X.transports == (check.witness["rho"], check.witness["lam"])
    rho, lam = X.transports
    L, R = X.to_left, X.to_right
    assert isinstance(X.total, bifib_squares._ComposedOnRead)
    total, to_A, to_B = core.square_category(
        L.target, R.target,
        {x: (L.ob_map[x], R.ob_map[x], x) for x in X.total.objects},
        lambda x, alpha, beta, y: rho[(x, beta)] == lam[(y, alpha)])
    assert X.total == total
    assert (X.total._from, X.total._to, X.total._hom) == \
        (total._from, total._to, total._hom)
    assert (L.ob_map, L.mor_map, R.ob_map, R.mor_map) == \
        (to_A.ob_map, to_A.mor_map, to_B.ob_map, to_B.mor_map)


def _category(C):
    built = core.FiniteCategory(C.objects, C.morphism_triples(), C.identity,
                                C.composition_table())
    assert C == built
    assert (C._from, C._to, C._hom) == (built._from, built._to, built._hom)


def _reversing(C, prefix):
    """Renamings of C's ids that reverse their sorted order."""
    def rename(ids):
        return {x: f"{prefix}{len(ids) - i:04d}" for i, x in enumerate(ids)}
    return rename(C.objects), rename(C.morphisms)


# -- one oracle per trusted builder ------------------------------------------


def _hom_profunctor_along(P01, P12):
    _bimodule(corrs.hom_profunctor(P01.target))
    _bimodule(corrs.corr_to_profunctor(corrs.collage(P12)))


def _empty_profunctor(P01, P12):
    _bimodule(corrs.empty_profunctor(P01.source, P12.target))


def _relabel_profunctor(P01, P12):
    Q = corrs.relabel_profunctor(
        P01, source=_reversing(P01.source, "r."),
        target=_reversing(P01.target, "s."),
        elements=lambda a, b, x: f"e.{x}")
    _bimodule(Q)
    _category(Q.source)


def _transpose_profunctor(P01, P12):
    _bimodule(corrs.transpose_profunctor(P12))


def _profunctor_to_bifib(P01, P12):
    _two_sided(corrs.profunctor_to_bifib(P01))


def _corr_to_bifib(P01, P12):
    _two_sided(corrs.corr_to_bifib(corrs.collage(P12)))


def _compose_bifib(P01, P12):
    X, _ = corrs.compose_bifib(corrs.profunctor_to_bifib(P01),
                               corrs.profunctor_to_bifib(P12))
    _two_sided(X)


def _bifib_to_profunctor(P01, P12):
    X = corrs.corr_to_bifib(corrs.collage(P01))
    # kept transports, and a span that nobody validated
    fresh = corrs.TwoSidedDiscreteFibration(X.total, X.to_left, X.to_right)
    for Y in (X, corrs.profunctor_to_bifib(P12), fresh):
        _bimodule(corrs.bifib_to_profunctor(Y))


def _compose_prof(P01, P12):
    _bimodule(corrs.compose_prof(P01, P12)[0])


def _glue_over_triangle(P01, P12):
    # the outer bimodule is the 0-to-2 cross-homs of the glued total
    glued = corrs.glue_over_triangle(corrs.collage(P01), corrs.collage(P12))
    _category(glued.total)
    _bimodule(corrs.corr_to_profunctor(
        corrs.restrict_triangle(glued, "0", "2")))


def _glue(P01, P12):
    for P in (P01, P12):
        E = corrs.collage(P).total
        assert core.validate_category(E.objects, E.morphism_triples(),
                                      E.identity, E.composition_table()) == []
        _category(E)


def _opposite(P01, P12):
    for C in (P01.source, corrs.collage(P01).total):
        op = core.opposite(C)
        _category(op)
        assert core.opposite(op) == C


def _fiber(P01, P12):
    proj = corrs.collage(P12).projection
    for x in proj.target.objects:
        _category(core.fiber(proj, x))


def _full_subcategory(P01, P12):
    E = corrs.collage(P01).total
    for keep in (E.objects[::2], E.objects[1::2], E.objects):
        _category(core.full_subcategory(E, keep))


def _relabel(P01, P12):
    E = corrs.collage(P01).total
    _category(core.relabel(E, *_reversing(E, "r.")))
    _category(core.prefix_relabel(E, "p."))


def _disjoint_union(P01, P12):
    _category(core.disjoint_union(P01.source, P12.target))


def _discrete_category(P01, P12):
    _category(core.discrete_category(
        list(reversed(corrs.collage(P01).total.objects))))


TRUSTED = (
    ("correspondences.hom_profunctor_along", _hom_profunctor_along),
    ("correspondences.empty_profunctor", _empty_profunctor),
    ("correspondences.relabel_profunctor", _relabel_profunctor),
    ("correspondences.transpose_profunctor", _transpose_profunctor),
    ("correspondences.profunctor_to_bifib", _profunctor_to_bifib),
    ("correspondences.corr_to_bifib", _corr_to_bifib),
    ("correspondences.compose_bifib", _compose_bifib),
    ("correspondences.bifib_to_profunctor", _bifib_to_profunctor),
    ("correspondences.compose_prof", _compose_prof),
    ("correspondences.glue_over_triangle", _glue_over_triangle),
    ("correspondences.glue", _glue),
    ("core.opposite", _opposite),
    ("core.fiber", _fiber),
    ("core.full_subcategory", _full_subcategory),
    ("core.relabel", _relabel),
    ("core.disjoint_union", _disjoint_union),
    ("core.discrete_category", _discrete_category),
)


@pytest.mark.parametrize("name, oracle", TRUSTED, ids=[n for n, _ in TRUSTED])
def test_trusted_builder_passes_its_oracle(name, oracle):
    for P01, P12 in samples():
        oracle(P01, P12)


def test_samples_cover_the_draws_and_the_homs():
    pairs = samples()
    assert len(pairs) == DRAWS + len(HOM_BASES)
    # the draws reach non-thin categories and empty and nonempty homs
    assert any(len(P.source._hom) < len(P.source.morphisms)
               for pair in pairs[:DRAWS] for P in pair)
    assert any(not xs for P01, _ in pairs for xs in P01.elements.values())
    assert any(xs for P01, _ in pairs for xs in P01.elements.values())
