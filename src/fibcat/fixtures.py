"""The bundled document corpus.

Run as `python -m fibcat.fixtures <directory>` to (re)write the canonical
example documents: intervals, the idempotent and retraction categories,
the walking isomorphism, arrow categories with their evaluations, [1]
over the point (a fibration to push ev_t forward along), the standard
non-example inclusion, the bimodules of the idempotent/retraction
inclusion, an identity correspondence, two posets over the point whose
finality certificates need a nerve, and two documents with planted
defects for the exit-status contract.
"""

from __future__ import annotations

import os
import sys

from . import core, correspondences as corrs, documents as docs
from .homology import SetValuedFunctor


def build_fixtures():
    out = {}
    for n in (1, 2, 3):
        out[f"interval_{n}.json"] = docs.category_to_doc(core.interval(n))
    out["idem.json"] = docs.category_to_doc(core.idempotent_category())
    out["ret.json"] = docs.category_to_doc(core.retract_category())
    out["walking_iso.json"] = docs.category_to_doc(core.walking_isomorphism())
    out["cyclic_2.json"] = docs.category_to_doc(core.cyclic_group_category(2))

    I1, I2 = core.interval(1), core.interval(2)
    Ar2, ev_s2, ev_t2 = core.arrow_category(I2)
    out["arrow_interval_2.json"] = docs.category_to_doc(Ar2)
    out["ev_t_arrow_2.json"] = docs.functor_to_doc(ev_t2)
    Ar1, ev_s1, ev_t1 = core.arrow_category(I1)
    out["ev_t_arrow_1.json"] = docs.functor_to_doc(ev_t1)

    sub02 = core.full_subcategory(I2, ["0", "2"])
    out["inclusion_02_in_2.json"] = docs.functor_to_doc(
        core.inclusion_functor(sub02, I2))

    # a fibration over the point whose total is ev_t's base: pushing
    # ev_t forward along it gives the sections of ev_t
    out["interval_1_to_point.json"] = docs.functor_to_doc(
        core.constant_functor(I1, core.terminal(), "*"))

    P, pr1, pr2 = core.product_projections(I1, I1)
    out["product_proj_1x1.json"] = docs.functor_to_doc(pr2)

    Idem = core.idempotent_category()
    Ret = core.retract_category()
    inc = core.Functor(Idem, Ret, {"*": "y"}, {"id": "id_y", "e": "e"})
    out["idem_to_ret_bimodule.json"] = docs.profunctor_to_doc(
        corrs.hom_profunctor_along(inc, core.identity_functor(Ret)))
    out["ret_to_idem_bimodule.json"] = docs.profunctor_to_doc(
        corrs.hom_profunctor_along(core.identity_functor(Ret), inc))

    out["identity_corr_interval_1.json"] = docs.correspondence_to_doc(
        corrs.identity_correspondence(I1))

    two_cross = corrs.Profunctor(
        core.relabel(core.terminal(), {"*": "s*"}, {"id": "s.id"}),
        core.relabel(core.terminal(), {"*": "t*"}, {"id": "t.id"}),
        {("s*", "t*"): ("u", "v")},
        {("s.id", "t*"): {"u": "u", "v": "v"}},
        {("s*", "t.id"): {"u": "u", "v": "v"}}).validate()
    out["two_element_collage.json"] = docs.correspondence_to_doc(
        corrs.collage(two_cross))

    out["diagram_on_interval_1.json"] = docs.set_valued_to_doc(
        SetValuedFunctor(I1, {"0": ("a",), "1": ("b", "c")},
                         {"0->0": {"a": "a"}, "1->1": {"b": "b", "c": "c"},
                          "0->1": {"a": "b"}}).validate())

    # a glue-ready composable pair of correspondences
    A = core.relabel(core.terminal(), {"*": "a*"}, {"id": "a.id"})
    B = core.relabel(core.interval(1), {"0": "b0", "1": "b1"},
                     {"0->0": "b00", "0->1": "b01", "1->1": "b11"})
    Cc = core.relabel(core.terminal(), {"*": "c*"}, {"id": "c.id"})
    left = corrs.hom_profunctor_along(
        core.constant_functor(A, B, "b0"), core.identity_functor(B))
    right = corrs.hom_profunctor_along(
        core.identity_functor(B), core.constant_functor(Cc, B, "b1"))
    out["two_step_left.json"] = docs.correspondence_to_doc(
        corrs.collage(left))
    out["two_step_right.json"] = docs.correspondence_to_doc(
        corrs.collage(right))

    # posets over the point with neither an initial nor a terminal
    # object, so that finality certificates need their nerves: the
    # contractible zigzag a -> b <- c -> d, and the circle a0, a1 < b0, b1
    # (H_1 = Z)
    T = core.terminal()
    zigzag = core.poset_from_order(
        ["a", "b", "c", "d"],
        lambda x, y: x == y or (x, y) in {("a", "b"), ("c", "b"), ("c", "d")})
    out["zigzag_to_point.json"] = docs.functor_to_doc(
        core.constant_functor(zigzag, T, "*"))
    circle = core.poset_from_order(
        ["a0", "a1", "b0", "b1"], lambda x, y: x == y or x < "b" <= y)
    out["circle_to_point.json"] = docs.functor_to_doc(
        core.constant_functor(circle, T, "*"))

    # planted defects: a missing composite, and a broken associativity
    broken = docs.category_to_doc(I2)
    broken["compose"] = [entry for entry in broken["compose"]
                         if entry != ["1->2", "0->1", "0->2"]]
    out["defect_missing_composite.json"] = broken

    assoc = docs.category_to_doc(core.interval(3))
    fixed = []
    for g, f, h in assoc["compose"]:
        if (g, f) == ("1->3", "0->1"):
            fixed.append([g, f, "0->2"])  # wrong target: breaks typing
        else:
            fixed.append([g, f, h])
    assoc["compose"] = fixed
    out["defect_bad_composite.json"] = assoc
    return out


def write_fixtures(directory):
    os.makedirs(directory, exist_ok=True)
    for name, doc in sorted(build_fixtures().items()):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(docs.dumps(doc))


if __name__ == "__main__":
    write_fixtures(sys.argv[1] if len(sys.argv) > 1 else "fixtures")
