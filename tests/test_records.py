"""The result records: construction, defaults, equality, hashing, repr
and tuple unpacking, pinned field by field."""

import pytest

from fibcat import core, correspondences as corrs, fibrations as fib
from fibcat import homology, transport

# (class, its fields in order): every record takes each field by position
# and by keyword; the values here are stand-ins, as no record validates
# on construction
RECORDS = [
    (core.PullbackSquare, ("total", "to_left", "to_right")),
    (corrs.Profunctor, ("source", "target", "elements", "lact", "ract")),
    (corrs.ProfunctorIso, ("source", "target", "components")),
    (corrs.Correspondence, ("total", "projection", "fiber_s", "fiber_t")),
    (corrs.TwoSidedDiscreteFibration,
     ("total", "to_left", "to_right", "transports")),
    (fib.Verdict, ("ok", "witness")),
    (fib.FibrationProfile, ("verdicts", "witnesses")),
    (homology.TruncatedNerve, ("max_dim", "simplices", "boundaries")),
    (homology.HomologyReport,
     ("max_dim", "betti", "torsion", "simplex_counts")),
    (homology.FinalityVerdict, ("per_object", "ok", "witness")),
    (homology.SetValuedFunctor, ("base", "values", "transports")),
    (transport.CatValuedFunctor, ("base", "values", "transports")),
    (transport.CleavageReport, ("chosen_lifts", "comparisons", "split")),
]
MUTABLE = [cls for cls, _ in RECORDS if cls is not core.PullbackSquare]

TUPLES = [
    (corrs.GluedTriangle, ("total", "projection", "cross_class")),
    (transport.Replacement, ("projection", "unit")),
    (transport.RelativeClassifyingSpace,
     ("projection", "quotient", "straightened", "handed")),
    (transport.LfibReplacement, ("straightened", "projection", "unit")),
    (transport.Pushforward, ("projection", "obj_functors", "mor_functors")),
]


def stand_in(field, tag=None):
    """A stand-in value; SetValuedFunctor sorts its value sets to compare
    them, so a "values" field stands in as one such set."""
    tag = tag or f"<{field}>"
    return {"x": (tag,)} if field == "values" else tag


def values(names):
    return [stand_in(field) for field in names]


def name(param):
    return getattr(param, "__name__", None)


@pytest.mark.parametrize("cls, names", RECORDS, ids=name)
def test_position_and_keyword_build_the_same_record(cls, names):
    by_position = cls(*values(names))
    by_keyword = cls(**dict(zip(names, values(names))))
    for field, value in zip(names, values(names)):
        assert getattr(by_position, field) == value
        assert getattr(by_keyword, field) == value
    assert by_position == by_keyword
    assert not by_position != by_keyword


@pytest.mark.parametrize("cls, names", RECORDS, ids=name)
def test_equality_is_by_class_and_each_compared_field(cls, names):
    record = cls(*values(names))
    assert record != tuple(values(names))
    assert record != object()
    compared = [n for n in names
                if (cls, n) != (corrs.TwoSidedDiscreteFibration, "transports")]
    for i, field in enumerate(names):
        other = values(names)
        other[i] = stand_in(field, "<other>")
        assert (cls(*other) == record) is (field not in compared), field


def test_records_of_other_classes_with_equal_fields_differ():
    args = ("<base>", {}, {})
    assert homology.SetValuedFunctor(*args) != transport.CatValuedFunctor(*args)
    assert homology.SetValuedFunctor(*args) == homology.SetValuedFunctor(*args)


def test_set_valued_functors_compare_their_value_sets_unordered():
    G = homology.SetValuedFunctor("<base>", {"x": ("b", "a")}, {})
    assert G == homology.SetValuedFunctor("<base>", {"x": ("a", "b")}, {})
    assert G != homology.SetValuedFunctor("<base>", {"x": ("a",)}, {})


def test_defaults():
    assert fib.Verdict(True).witness is None
    assert homology.FinalityVerdict({}, True).witness is None
    assert corrs.TwoSidedDiscreteFibration("X", "f", "g").transports is None
    assert corrs.Correspondence("E", "p", "A", "B")._bimodule is None
    first, second = fib.FibrationProfile({}), fib.FibrationProfile({})
    assert first.witnesses == {} and first.witnesses is not second.witnesses
    first.witnesses["cartesian"] = "w"
    assert second.witnesses == {}


def test_verdicts_are_truthy_by_ok():
    assert fib.Verdict(True, "w") and not fib.Verdict(False, "w")
    assert fib.FibrationProfile({"left": fib.Verdict(True)})["left"].ok


def test_equality_ignores_the_two_cache_fields():
    c1, c2 = (corrs.Correspondence("E", "p", "A", "B") for _ in range(2))
    c1._bimodule = "cached"
    assert c1 == c2 and c1.bimodule() == "cached"
    t1 = corrs.TwoSidedDiscreteFibration("X", "f", "g", ("rho", "lam"))
    t2 = corrs.TwoSidedDiscreteFibration("X", "f", "g")
    assert t1 == t2
    assert t1 != corrs.TwoSidedDiscreteFibration("Y", "f", "g", t1.transports)


def test_correspondence_takes_no_cache_argument():
    with pytest.raises(TypeError):
        corrs.Correspondence("E", "p", "A", "B", "cached")


def test_repr_names_each_field_but_the_caches():
    assert repr(fib.Verdict(False, {"m": "f"})) == \
        "Verdict(ok=False, witness={'m': 'f'})"
    c = corrs.Correspondence("E", "p", "A", "B")
    c._bimodule = "cached"
    assert repr(c) == ("Correspondence(total='E', projection='p', "
                       "fiber_s='A', fiber_t='B')")
    t = corrs.TwoSidedDiscreteFibration("X", "f", "g", ("rho", "lam"))
    assert repr(t) == ("TwoSidedDiscreteFibration(total='X', to_left='f', "
                       "to_right='g')")


def test_the_pullback_square_hashes_and_cannot_be_assigned_to():
    square = core.PullbackSquare("P", "l", "r")
    assert hash(square) == hash(core.PullbackSquare("P", "l", "r"))
    assert {square: 1}[core.PullbackSquare("P", "l", "r")] == 1
    with pytest.raises(AttributeError):
        square.total = "Q"
    with pytest.raises(AttributeError):
        del square.to_left
    assert square.total == "P" and square.to_left == "l"


def test_a_real_pullback_square_hashes():
    I1 = core.interval(1)
    F = core.identity_functor(I1)
    square = core.pullback(F, F)
    assert hash(square) == hash(square)
    assert square == core.PullbackSquare(square.total, square.to_left,
                                         square.to_right)


@pytest.mark.parametrize("cls", MUTABLE, ids=name)
def test_the_other_records_are_unhashable(cls):
    names = dict(RECORDS)[cls]
    assert cls.__hash__ is None
    with pytest.raises(TypeError):
        hash(cls(*values(names)))


@pytest.mark.parametrize("cls", MUTABLE, ids=name)
def test_the_other_records_can_be_assigned_to(cls):
    names = dict(RECORDS)[cls]
    record = cls(*values(names))
    setattr(record, names[0], "<new>")
    assert getattr(record, names[0]) == "<new>"


@pytest.mark.parametrize("cls, names", TUPLES, ids=name)
def test_the_tuple_results_unpack_as_tuples(cls, names):
    values = [f"<{field}>" for field in names]
    result = cls(*values)
    assert isinstance(result, tuple) and len(result) == len(names)
    assert tuple(result) == tuple(values)
    assert result == tuple(values)
    assert cls._fields == names
    assert cls(**dict(zip(names, values))) == result
    *head, last = result
    assert head == values[:-1] and last == values[-1]
    for field, value in zip(names, values):
        assert getattr(result, field) == value
    assert hash(result) == hash(tuple(values))


def test_replacements_unpack_where_they_are_built():
    projection, unit = transport.cocart_replacement(
        core.point(core.interval(1), "1"))
    assert projection.target == core.interval(1)
    assert unit.target == projection.source
