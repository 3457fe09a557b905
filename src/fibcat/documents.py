"""JSON documents for categories, functors, bimodules and correspondences.

Emission always canonicalizes: sorted keys, two-space indent, a trailing
newline, UTF-8 text.  parse -> emit is therefore byte-stable, and two
documents describing the same value serialize identically.  Parsed ids
are shared objects: one str per id, held by every table, map and action
that names it, so lookups match keys by identity.  Canonical tables are
emitted in index order: written from the sorted index, never sorted.

Schema errors (shape, types) raise DocumentError; axiom violations are
reported as validate_category words them, with their witnesses.
Repeated ids, and keys of an identity table, a functor's maps or a
bimodule or set-valued table that name nothing, raise ValidationFailure.
"""

from __future__ import annotations

import json
from collections import Counter
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

    Strings, rows and str-keyed dicts are written by joins, a table of at
    least eight plain-string entries in one join over its rows (_bulk),
    and other values by json's encoder (README, "Documents").
    """
    parts = []
    _dump(doc, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


_encode_str = json.encoder.encode_basestring
_encode = None  # json's canonical encoder, once a value has needed it
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
                for part in table:  # head, body and tail
                    out(part)
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


def _shared(ids):
    """{id: the one str object kept for it} over ids."""
    return dict(zip(ids, ids))


def _known(key, known, where):
    """The shared object of key, which must name one of the ids of known,
    an ({id: shared object}, kind) pair."""
    ids, kind = known
    if key not in ids:
        raise ValidationFailure([f"{where} {key} names no {kind}"])
    return ids[key]


def _grid(doc, field, rows, columns, read, default):
    """{(r, c): read(r, c, cell or default)} in index order; doc[field] is
    a JSON object of JSON objects keyed by rows and columns (see _known),
    and the first key in document order that names nothing is refused."""
    table = _require(doc, field, dict)
    for r, row in table.items():
        _known(r, rows, f"{field} row")
        if not isinstance(row, dict):
            raise DocumentError(f"{field} row {r!r} must be a JSON object")
        for c in row:
            _known(c, columns, f"{field} row {r} column")
    return {(r, c): read(r, c, table.get(r, {}).get(c, default))
            for r in rows[0] for c in columns[0]}


def _id_map(table, where, keys, values):
    """A JSON object of ids to ids, put onto their objects in keys, values."""
    if not isinstance(table, dict):
        raise DocumentError(f"{where} must be a JSON object")
    _require_ids(table.values(), where)
    keys, values = _shared(keys), _shared(values)
    return {keys.get(k, k): values.get(v, v) for k, v in table.items()}


# -- categories ---------------------------------------------------------------


def category_to_doc(C):
    # C._to follows the sorted C.morphisms, so rows come sorted by (g, f)
    src, comp = C.src, C._comp
    return {
        "format_version": FORMAT_VERSION,
        "type": "category",
        "objects": list(C.objects),
        "morphisms": [{"id": m, "src": src[m], "tgt": C.tgt[m]}
                      for m in C.morphisms],
        "identities": {x: C.identity[x] for x in C.objects},
        "compose": [[g, f, comp[g, f]] for g in C.morphisms
                    for f in C._to[src[g]]],
    }


def category_from_doc(doc):
    """Each table is read once: ids go onto shared objects, endpoints are
    checked by identity and pairs counted.  A clean table is kept (a
    non-thin one walks its laws); validate_category reports a fault."""
    _expect(doc, "category")
    objects = _require(doc, "objects", list)
    _require_ids(objects, "objects")
    obj = _shared(objects)
    fault = len(obj) != len(objects)
    ends, src, tgt, triples = {}, {}, {}, []
    for entry in _require(doc, "morphisms", list):
        try:
            m, x, y = triple = entry["id"], entry["src"], entry["tgt"]
        except (TypeError, KeyError):
            raise DocumentError(f"bad morphism entry: {entry!r}") from None
        if {type(m), type(x), type(y)} != _STR:
            _require_ids(triple, "morphisms")
        triples.append(triple)
        s, t = obj.get(x), obj.get(y)
        fault = fault or m in ends or s is None or t is None
        src[m], tgt[m], ends[m] = s, t, (m, s, t)
    identities = _require(doc, "identities", dict)
    _require_ids(identities.values(), "identities")
    get = ends.get
    identity = {_known(x, (obj, "object"), "identities key"): get(i, (i,))[0]
                for x, i in identities.items()}
    fault = fault or len(identity) != len(obj) or not all(
        src.get(i) is x is tgt.get(i) for x, i in identity.items())
    out_of, comp = Counter(src.values()), {}
    for entry in _require(doc, "compose", list):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise DocumentError(f"bad compose entry: {entry!r}")
        g, f, h = entry
        try:
            (g, sg, tg), (f, sf, tf), (h, sh, th) = get(g), get(f), get(h)
        except TypeError:  # an id that is no str, or names no morphism
            _require_ids(entry, "compose")
            g, f, h = [get(k, (k,))[0] for k in entry]
            fault = True
        else:
            fault = fault or not (tf is sg and sh is sf and th is tg)
        n = len(comp)
        comp[g, f] = h
        if len(comp) == n:
            raise DocumentError(f"composable pair listed twice: ({g},{f})")
    if fault or len(comp) != sum(map(out_of.__getitem__, tgt.values())):
        raise ValidationFailure(
            core.validate_category(objects, triples, identities, comp))
    C = FiniteCategory._derived(tuple(sorted(obj)), tuple(sorted(ends)),
                                src, tgt, identity, comp)
    report = len(C._hom) != len(C.morphisms) and core._law_faults(
        C.morphisms, C.src, C.tgt, identity, comp, C._from)
    if report:
        raise ValidationFailure(report)
    return C


# -- functors -------------------------------------------------------------------


def functor_to_doc(F):
    return {
        "format_version": FORMAT_VERSION,
        "type": "functor",
        "source": category_to_doc(F.source),
        "target": category_to_doc(F.target),
        "object_map": {x: F.ob_map[x] for x in F.source.objects},
        "morphism_map": {m: F.mor_map[m] for m in F.source.morphisms},
    }


def functor_from_doc(doc):
    _expect(doc, "functor")
    source = category_from_doc(_require(doc, "source", dict))
    target = category_from_doc(_require(doc, "target", dict))
    s_obj, s_mor = _shared(source.objects), _shared(source.morphisms)
    t_obj, t_mor = _shared(target.objects), _shared(target.morphisms)
    ob_map = _require(doc, "object_map", dict)
    mor_map = _require(doc, "morphism_map", dict)
    _require_ids(ob_map.values(), "object_map")
    _require_ids(mor_map.values(), "morphism_map")
    # in the order of a canonical document: morphism_map, then object_map
    known = (s_mor, "morphism of the source")
    mor_map = {_known(m, known, "morphism_map key"): t_mor.get(n, n)
               for m, n in mor_map.items()}
    known = (s_obj, "object of the source")
    ob_map = {_known(x, known, "object_map key"): t_obj.get(y, y)
              for x, y in ob_map.items()}
    try:
        return Functor(source, target, ob_map, mor_map)
    except core.FunctorError as exc:
        raise ValidationFailure([str(exc)]) from exc


# -- profunctors ----------------------------------------------------------------


def profunctor_to_doc(P):
    A, B = P.source, P.target
    return {
        "format_version": FORMAT_VERSION,
        "type": "profunctor",
        "source": category_to_doc(A),
        "target": category_to_doc(B),
        "elements": {a: {b: sorted(P.elements[a, b]) for b in B.objects}
                     for a in A.objects if B.objects},
        "left_action": {alpha: {b: dict(P.lact[alpha, b]) for b in B.objects}
                        for alpha in A.morphisms if B.objects},
        "right_action": {a: {beta: dict(P.ract[a, beta])
                             for beta in B.morphisms}
                         for a in A.objects if B.morphisms},
    }


def profunctor_from_doc(doc):
    _expect(doc, "profunctor")
    A = category_from_doc(_require(doc, "source", dict))
    B = category_from_doc(_require(doc, "target", dict))
    objects_A = (_shared(A.objects), "object of the source")
    objects_B = (_shared(B.objects), "object of the target")

    def element_set(a, b, xs):
        if not isinstance(xs, list):
            raise DocumentError(f"element set at ({a},{b}) must be a list")
        return tuple(sorted(_distinct(xs, f"elements at ({a},{b})")))

    elements = _grid(doc, "elements", objects_A, objects_B, element_set, [])
    lact = _grid(doc, "left_action",
                 (_shared(A.morphisms), "morphism of the source"), objects_B,
                 lambda alpha, b, t: _id_map(
                     t, f"left_action at ({alpha},{b})",
                     elements[A.tgt[alpha], b], elements[A.src[alpha], b]),
                 {})
    ract = _grid(doc, "right_action", objects_A,
                 (_shared(B.morphisms), "morphism of the target"),
                 lambda a, beta, t: _id_map(
                     t, f"right_action at ({a},{beta})",
                     elements[a, B.src[beta]], elements[a, B.tgt[beta]]), {})
    try:
        return Profunctor(A, B, elements, lact, ract).validate()
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
        "values": {x: sorted(v) for x, v in F.values.items()},
        "transports": {m: dict(t) for m, t in F.transports.items()},
    }


def set_valued_from_doc(doc):
    _expect(doc, "set_valued_functor")
    base = category_from_doc(_require(doc, "base", dict))
    objects = (_shared(base.objects), "object of the base")
    morphisms = (_shared(base.morphisms), "morphism of the base")
    raw_values = _require(doc, "values", dict)
    # a key is checked before its value: a dict display evaluates it first
    values = {_known(x, objects, "values key"):
              _distinct(_require(raw_values, x, list), f"values at {x}")
              for x in raw_values}
    transports = {_known(m, morphisms, "transports key"): _id_map(
        t, f"transports at {m}", values.get(base.src[m], ()),
        values.get(base.tgt[m], ())) for m, t in
        _require(doc, "transports", dict).items()}
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
