"""JSON documents for categories, functors, bimodules and correspondences.

Emission always canonicalizes: sorted keys, two-space indent, a trailing
newline, UTF-8 text.  parse -> emit is therefore byte-stable, and two
documents describing the same value serialize identically.

Schema errors (shape, types) raise DocumentError; axiom violations are
surfaced through validate_category so the caller can report witnesses.
Repeated ids, and keys of an identity table, a functor's maps or a
bimodule or set-valued table that name nothing, raise ValidationFailure.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter

from . import core, correspondences as corrs
from .core import FiniteCategory, Functor
from .correspondences import Profunctor
from .homology import SetValuedFunctor

FORMAT_VERSION = "1"


class DocumentError(ValueError):
    pass


class ValidationFailure(ValueError):
    def __init__(self, report):
        super().__init__("; ".join(report[:8]))
        self.report = report


def dumps(doc):
    """Canonical text: exactly json.dumps(doc, sort_keys=True, indent=2,
    ensure_ascii=False) plus a newline.

    With an indent, json encodes in pure Python, node by node.  Strings,
    lists, tuples and dicts with str keys, nearly all of a document, are
    written here by joins instead, and three shapes of table are written
    whole, in one join over their rows:

    - a list or tuple of non-empty lists or tuples of strings (a
      category's compose rows), one join per row inside one join;
    - a list of dicts with the same str keys and only str values (its
      morphism entries), through itemgetter and one % pattern;
    - a dict of str to str (identities, a functor's maps, actions).

    A table is written so only when json would write each of its strings
    as it is, between quotes.  That is checked once per table: the
    table's distinct strings are joined, and encode_basestring must
    lengthen the text by its two quotes alone.  A table of fewer than
    eight entries is written entry by entry, which is quicker for it.  A
    row of strings, or of ints, is one join too.  Ints, booleans and None
    are written here as json writes them; every other value is handed to
    json, whose encoder is built the first time one needs it.
    """
    parts = []
    _dump(doc, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


_encode_str = json.encoder.encode_basestring
_encode = None  # json's canonical encoder, once a value has needed it
_INT = {int}
_ROWS = {list, tuple}
_STR = {str}
_ENTRIES = {list, tuple, dict}
_MIN_ROWS = 8


def _plain(text):
    """Whether json writes each string whose characters text holds as it
    is, between quotes: no quote, backslash or control character."""
    return len(_encode_str(text)) == len(text) + 2


def _bulk(value, kind, newline):
    """(head, body, tail): the canonical text of value, a table of plain
    strings, with its body written in one join; None when value, a
    non-empty list, tuple or dict, is no such table."""
    inner = newline + "  "
    try:
        if kind is dict:
            if not (_plain("".join(value))
                    and _plain("".join(value.values()))):
                return None
            return ("{" + inner + '"',
                    ('",' + inner + '"').join(
                        map('": "'.join, sorted(value.items()))),
                    '"' + newline + "}")
        kinds = set(map(type, value))
        if kinds <= _ROWS:
            if not (all(value) and type(value[0][0]) is str
                    and _plain("".join(set(chain.from_iterable(value))))):
                return None
            cell = inner + "  "
            return ("[" + inner + "[" + cell + '"',
                    ('"' + inner + "]," + inner + "[" + cell + '"').join(
                        map(('",' + cell + '"').join, value)),
                    '"' + inner + "]" + newline + "]")
        first = value[0]
        if (kinds != {dict} or not first
                or set(map(type, first.values())) != _STR
                or len(set(map(len, value))) != 1):
            return None
        keys = sorted(first)
        rows = list(map(itemgetter(*keys), value))
        if not _plain("".join(set(
                chain.from_iterable(rows) if len(keys) > 1 else rows))):
            return None
        field = inner + "  "
        record = ("{" + field + ("," + field).join(
            _encode_str(k).replace("%", "%%") + ': "%s"' for k in keys)
            + inner + "}")
        return "[" + inner, ("," + inner).join(map(record.__mod__, rows)), \
            newline + "]"
    except (TypeError, KeyError):  # a non-str key or cell, or a key missing
        return None


def _dump(value, newline, out):
    """Write value's canonical text through out.  newline is a line break
    and the indent of the line that value starts on."""
    global _encode
    kind = type(value)
    if kind is str:
        out(_encode_str(value))
        return
    if kind is int:  # a bool is no int here: json writes it true or false
        out(int.__repr__(value))
        return
    if kind is list or kind is tuple or kind is dict:
        if not value:
            out("{}" if kind is dict else "[]")
            return
        # a short table is quicker entry by entry, and a glance at the
        # types turns most other values away before _bulk
        if len(value) >= _MIN_ROWS and (
                set(map(type, value.values())) == _STR if kind is dict
                else type(value[0]) in _ENTRIES):
            table = _bulk(value, kind, newline)
            if table:
                head, body, tail = table
                out(head)
                out(body)
                out(tail)
                return
    inner = newline + "  "
    sep = "," + inner
    if kind is list or kind is tuple:
        try:  # a row of strings; _encode_str raises TypeError on others
            out("[" + inner + sep.join(map(_encode_str, value)) + newline
                + "]")
            return
        except TypeError:
            pass
        if _INT.issuperset(map(type, value)):  # a row of ints
            out("[" + inner + sep.join(map(int.__repr__, value)) + newline
                + "]")
            return
        head = "[" + inner
        for item in value:
            out(head)
            head = sep
            _dump(item, inner, out)
        out(newline + "]")
        return
    if kind is dict:
        try:  # str keys only; json sorts and converts any others
            items = sorted(value.items())
            keys = [_encode_str(k) for k, _ in items]
        except TypeError:
            pass
        else:
            head = "{" + inner
            for key, (_, item) in zip(keys, items):
                out(head + key + ": ")
                head = sep
                _dump(item, inner, out)
            out(newline + "}")
            return
    if kind is bool:
        out("true" if value else "false")
        return
    if value is None:
        out("null")
        return
    if _encode is None:
        _encode = json.JSONEncoder(sort_keys=True, indent=2,
                                   ensure_ascii=False).encode
    # json's text starts at indent 0; its raw newlines are separators only,
    # never inside a string, so the indent is added after each of them
    out(_encode(value).replace("\n", newline))


def loads(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc


def _expect(doc, kind):
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise DocumentError(f"format_version must be {FORMAT_VERSION!r}")
    if doc.get("type") != kind:
        raise DocumentError(f"expected a {kind} document, got {doc.get('type')!r}")


def _require(doc, field, typ):
    value = doc.get(field)
    if not isinstance(value, typ):
        raise DocumentError(f"field {field!r} missing or of wrong type")
    return value


def _require_ids(ids, where):
    for x in ids:
        if not isinstance(x, str):
            raise DocumentError(f"{where}: ids must be strings, got {x!r}")


def _distinct(ids, where):
    """ids as a tuple of strings; a repeated id fails validation, as it
    does in a category."""
    _require_ids(ids, where)
    if len(set(ids)) != len(ids):
        raise ValidationFailure([f"duplicate ids in {where}"])
    return tuple(ids)


def _known(key, known, where):
    """A key of a document must name one of the ids of known, an
    (ids, kind) pair."""
    ids, kind = known
    if key not in ids:
        raise ValidationFailure([f"{where} {key} names no {kind}"])


def _table(doc, field, rows, columns):
    """doc[field], a JSON object of rows that are JSON objects.  Its keys
    must name rows and its rows' keys columns, each an (ids, kind) pair;
    the first key in document order that names nothing is refused."""
    table = _require(doc, field, dict)
    for r, row in table.items():
        _known(r, rows, f"{field} row")
        if not isinstance(row, dict):
            raise DocumentError(f"{field} row {r!r} must be a JSON object")
        for c in row:
            _known(c, columns, f"{field} row {r} column")
    return table


def _id_map(table, where):
    """A JSON object mapping ids to ids."""
    if not isinstance(table, dict):
        raise DocumentError(f"{where} must be a JSON object")
    _require_ids(table.values(), where)
    return dict(table)


# -- categories ---------------------------------------------------------------


def category_to_doc(C):
    return {
        "format_version": FORMAT_VERSION,
        "type": "category",
        "objects": sorted(C.objects),
        "morphisms": [{"id": m, "src": C.src[m], "tgt": C.tgt[m]}
                      for m in sorted(C.morphisms)],
        "identities": {x: C.identity[x] for x in C.objects},
        "compose": sorted([g, f, h] for (g, f), h in
                          C.composition_table().items()),
    }


def category_from_doc(doc):
    _expect(doc, "category")
    objects = _require(doc, "objects", list)
    _require_ids(objects, "objects")
    raw_morphisms = _require(doc, "morphisms", list)
    morphisms = []
    for entry in raw_morphisms:
        if not isinstance(entry, dict) or not {"id", "src", "tgt"} <= set(entry):
            raise DocumentError(f"bad morphism entry: {entry!r}")
        m, x, y = triple = (entry["id"], entry["src"], entry["tgt"])
        if not (isinstance(m, str) and isinstance(x, str)
                and isinstance(y, str)):
            _require_ids(triple, "morphisms")
        morphisms.append(triple)
    identities = _require(doc, "identities", dict)
    _require_ids(identities.values(), "identities")
    known_objects = (set(objects), "object")
    for x in identities:
        _known(x, known_objects, "identities key")
    compose_list = _require(doc, "compose", list)
    composition = {}
    for entry in compose_list:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise DocumentError(f"bad compose entry: {entry!r}")
        g, f, h = entry
        if not (isinstance(g, str) and isinstance(f, str)
                and isinstance(h, str)):
            _require_ids(entry, "compose")
        if (g, f) in composition:
            raise DocumentError(f"composable pair listed twice: ({g},{f})")
        composition[(g, f)] = h
    report = core.validate_category(objects, morphisms, identities, composition)
    if report:
        raise ValidationFailure(report)
    return FiniteCategory(objects, morphisms, identities, composition,
                          _validate=False)


# -- functors -------------------------------------------------------------------


def functor_to_doc(F):
    return {
        "format_version": FORMAT_VERSION,
        "type": "functor",
        "source": category_to_doc(F.source),
        "target": category_to_doc(F.target),
        "object_map": dict(sorted(F.ob_map.items())),
        "morphism_map": dict(sorted(F.mor_map.items())),
    }


def functor_from_doc(doc):
    _expect(doc, "functor")
    source = category_from_doc(_require(doc, "source", dict))
    target = category_from_doc(_require(doc, "target", dict))
    ob_map = _require(doc, "object_map", dict)
    mor_map = _require(doc, "morphism_map", dict)
    _require_ids(ob_map.values(), "object_map")
    _require_ids(mor_map.values(), "morphism_map")
    # in the order of a canonical document: morphism_map, then object_map
    for m in mor_map:
        _known(m, (source.src, "morphism of the source"), "morphism_map key")
    for x in ob_map:
        _known(x, (source.identity, "object of the source"), "object_map key")
    try:
        return Functor(source, target, ob_map, mor_map)
    except core.FunctorError as exc:
        raise ValidationFailure([str(exc)]) from exc


# -- profunctors ----------------------------------------------------------------


def profunctor_to_doc(P):
    elements = {}
    for (a, b), xs in sorted(P.elements.items()):
        elements.setdefault(a, {})[b] = sorted(xs)
    left_action = {}
    for (alpha, b), t in sorted(P.lact.items()):
        left_action.setdefault(alpha, {})[b] = dict(sorted(t.items()))
    right_action = {}
    for (a, beta), t in sorted(P.ract.items()):
        right_action.setdefault(a, {})[beta] = dict(sorted(t.items()))
    return {
        "format_version": FORMAT_VERSION,
        "type": "profunctor",
        "source": category_to_doc(P.source),
        "target": category_to_doc(P.target),
        "elements": elements,
        "left_action": left_action,
        "right_action": right_action,
    }


def profunctor_from_doc(doc):
    _expect(doc, "profunctor")
    source = category_from_doc(_require(doc, "source", dict))
    target = category_from_doc(_require(doc, "target", dict))
    objects_A = (set(source.objects), "object of the source")
    objects_B = (set(target.objects), "object of the target")
    raw_elements = _table(doc, "elements", objects_A, objects_B)
    elements = {}
    for a in source.objects:
        row = raw_elements.get(a, {})
        for b in target.objects:
            xs = row.get(b, [])
            if not isinstance(xs, list):
                raise DocumentError(f"element set at ({a},{b}) must be a list")
            elements[(a, b)] = tuple(sorted(_distinct(
                xs, f"elements at ({a},{b})")))
    raw_left = _table(doc, "left_action",
                      (set(source.morphisms), "morphism of the source"),
                      objects_B)
    lact = {}
    for alpha in source.morphisms:
        row = raw_left.get(alpha, {})
        for b in target.objects:
            lact[(alpha, b)] = _id_map(row.get(b, {}),
                                       f"left_action at ({alpha},{b})")
    raw_right = _table(doc, "right_action", objects_A,
                       (set(target.morphisms), "morphism of the target"))
    ract = {}
    for a in source.objects:
        row = raw_right.get(a, {})
        for beta in target.morphisms:
            ract[(a, beta)] = _id_map(row.get(beta, {}),
                                      f"right_action at ({a},{beta})")
    try:
        return Profunctor(source, target, elements, lact, ract).validate()
    except core.PreconditionError as exc:
        raise ValidationFailure([str(exc)]) from exc


# -- correspondences -------------------------------------------------------------


def correspondence_to_doc(c):
    return {
        "format_version": FORMAT_VERSION,
        "type": "correspondence",
        "total": category_to_doc(c.total),
        "fiber_s_objects": sorted(c.fiber_s.objects),
    }


def correspondence_from_doc(doc):
    _expect(doc, "correspondence")
    total = category_from_doc(_require(doc, "total", dict))
    s_objects = _require(doc, "fiber_s_objects", list)
    _require_ids(s_objects, "fiber_s_objects")
    unknown = [o for o in s_objects if o not in total.identity]
    if unknown:
        raise DocumentError(f"unknown fiber objects: {unknown}")
    try:
        return corrs.correspondence_from_total(total, s_objects)
    except core.PreconditionError as exc:
        raise ValidationFailure([str(exc)]) from exc


# -- set-valued diagrams -----------------------------------------------------------


def set_valued_to_doc(F):
    return {
        "format_version": FORMAT_VERSION,
        "type": "set_valued_functor",
        "base": category_to_doc(F.base),
        "values": {x: sorted(v) for x, v in sorted(F.values.items())},
        "transports": {m: dict(sorted(t.items()))
                       for m, t in sorted(F.transports.items())},
    }


def set_valued_from_doc(doc):
    _expect(doc, "set_valued_functor")
    base = category_from_doc(_require(doc, "base", dict))
    objects = (set(base.objects), "object of the base")
    morphisms = (set(base.morphisms), "morphism of the base")
    raw_values = _require(doc, "values", dict)
    values = {}
    for x in raw_values:
        _known(x, objects, "values key")
        values[x] = _distinct(_require(raw_values, x, list), f"values at {x}")
    transports = {}
    for m, t in _require(doc, "transports", dict).items():
        _known(m, morphisms, "transports key")
        transports[m] = _id_map(t, f"transports at {m}")
    try:
        return SetValuedFunctor(base, values, transports).validate()
    except core.PreconditionError as exc:
        raise ValidationFailure([str(exc)]) from exc


_PARSERS = {
    "category": category_from_doc,
    "functor": functor_from_doc,
    "profunctor": profunctor_from_doc,
    "correspondence": correspondence_from_doc,
    "set_valued_functor": set_valued_from_doc,
}


def parse_any(text):
    doc = loads(text)
    if not isinstance(doc, dict) or "type" not in doc:
        raise DocumentError("document must be an object with a 'type' field")
    kind = doc["type"]
    if not isinstance(kind, str) or kind not in _PARSERS:
        raise DocumentError(f"unknown document type {kind!r}")
    return kind, _PARSERS[kind](doc)
