"""JSON input formats and report serialization.

Input schemas:

* groupoid: ``{"objects": n, "morphisms": [{"dom": i, "cod": j}, ...],
  "compose": [[g, f, gf], ...], "identity": [...], "inverse": [...]}``,
  or the shorthands ``{"pair": n}``, ``{"group": {"table": [[...]]}}``,
  ``{"group": {"perm_gens": [[...], ...]}}``, and the combinators
  ``{"disjoint_union": [...]}`` / ``{"product": [...]}``.
* G-set: ``{"fibers": {"0": 2, ...}, "action": {"3": [1, 0], ...}}`` with
  per-morphism image lists; identity morphisms may be omitted.
* G-monoid: a G-set body plus ``{"monoids": {"0": {"table": [[...]],
  "unit": u}, ...}}``, or the shorthands ``{"conjugation": true}`` and
  ``{"trivial": true}``.
* crossed set: a G-set body plus ``{"labels": {"0": [...], ...}}``.

A groupoid, ``group`` or G-monoid object names exactly one form: one with
fields of two (``{"pair": 2, "group": ...}``) is refused, naming them.
Object and morphism id keys are canonical decimals: ``"00"`` is refused.

Reports are written by ``write_json`` exactly as ``json.dumps(report,
indent=2, sort_keys=True)`` renders them, one piece at a time: each
element of a list the report holds (a ring-table row, a basis entry, a
matrix row, an axiom check) is rendered and written before the next.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii

from .crossed import CrossedGSet
from .errors import NotNatural
from .groupoid import (
    SENTINEL,
    FiniteGroupoid,
    direct_product,
    disjoint_union,
    from_group,
    group_table_from_perm_gens,
    pair_groupoid,
    validate_groupoid,
)
from .gsets import GMonoid, GSet, Monoid, conjugation_action, trivial_gmonoid


class ParseError(ValueError):
    """Malformed input data; the message names the offending field."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ParseError(message)


def _is_int(value) -> bool:
    """A JSON integer; ``true`` and ``false`` are not, although Python's
    bool is an int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _ints(value, what: str) -> list[int]:
    """A JSON list of integers, checked before anything is built from it."""
    _expect(isinstance(value, list) and all(map(_is_int, value)), f"{what} must be a list of integers")
    return value


def _int_rows(value, what: str) -> list[list[int]]:
    _expect(isinstance(value, list), f"{what} must be a list of integer lists")
    return [_ints(row, f"{what} row {k}") for k, row in enumerate(value)]


def _id_key(key: str, n: int, what: str, kind: str) -> int:
    """An object or morphism id below n from a JSON object key, spelled as
    a canonical decimal, so that no two keys of one field name the same id
    (``"00"`` and ``" 0"`` would otherwise overwrite ``"0"``)."""
    try:
        k = int(key)
    except ValueError:
        k = None
    _expect(k is not None and str(k) == key, f"{what} key {key!r} is not {kind} id")
    _expect(0 <= k < n, f"{what} key {key!r} is not {kind} of the groupoid")
    return k


def _one_form(obj: dict, forms: tuple[str, ...], what: str) -> str | None:
    """The first field that ``obj`` names of the one form it uses, each
    form given as its fields separated by spaces, or None if it names none.
    An object naming fields of two forms is ambiguous and refused."""
    named = [[f for f in form.split() if f in obj] for form in forms]
    used = [fields for fields in named if fields]
    conflict = ", ".join(repr(f) for fields in used for f in fields)
    _expect(len(used) < 2, f"{what} names more than one form: {conflict}")
    return used[0][0] if used else None


_EXPLICIT = "objects morphisms compose identity inverse"


def parse_groupoid(obj) -> FiniteGroupoid:
    _expect(isinstance(obj, dict), "groupoid input must be a JSON object")
    forms = ("pair", "group", "disjoint_union", "product", _EXPLICIT)
    form = _one_form(obj, forms, "groupoid input")
    if form == "pair":
        _expect(_is_int(obj["pair"]), "field 'pair' must be an integer")
        return pair_groupoid(obj["pair"])
    if form == "group":
        spec = obj["group"]
        _expect(isinstance(spec, dict), "field 'group' must be an object")
        form = _one_form(spec, ("table", "perm_gens"), "field 'group'")
        if form == "table":
            return from_group(_int_rows(spec["table"], "field 'group.table'"))
        if form == "perm_gens":
            gens = _int_rows(spec["perm_gens"], "field 'group.perm_gens'")
            return from_group(group_table_from_perm_gens(gens))
        raise ParseError("field 'group' needs 'table' or 'perm_gens'")
    if form in ("disjoint_union", "product"):
        parts = obj[form]
        _expect(isinstance(parts, list) and parts, f"field '{form}' must be a non-empty list")
        out, *rest = [parse_groupoid(p) for p in parts]
        if form == "disjoint_union":
            return disjoint_union([out, *rest])[0]
        for part in rest:
            out = direct_product(out, part)
        return out
    for field in _EXPLICIT.split():
        _expect(field in obj, f"groupoid input is missing field '{field}'")
    _expect(_is_int(obj["objects"]), "field 'objects' must be an integer")
    morphisms = obj["morphisms"]
    _expect(isinstance(morphisms, list), "field 'morphisms' must be a list")
    dom, cod = [], []
    for k, m in enumerate(morphisms):
        _expect(
            isinstance(m, dict) and _is_int(m.get("dom")) and _is_int(m.get("cod")),
            f"morphism {k} needs integer 'dom' and 'cod'",
        )
        dom.append(m["dom"])
        cod.append(m["cod"])
    n_mor = len(morphisms)
    table = [[SENTINEL] * n_mor for _ in range(n_mor)]
    for entry in _int_rows(obj["compose"], "field 'compose'"):
        _expect(len(entry) == 3, f"compose entry {entry!r} must be [g, f, gf]")
        g, f, gf = entry
        _expect(
            0 <= g < n_mor and 0 <= f < n_mor and 0 <= gf < n_mor,
            f"compose entry {entry!r} references unknown morphisms",
        )
        table[g][f] = gf
    identity = _ints(obj["identity"], "field 'identity'")
    inverse = _ints(obj["inverse"], "field 'inverse'")
    return validate_groupoid(FiniteGroupoid(obj["objects"], dom, cod, table, identity, inverse))


def _parse_fiber_sizes(obj, g: FiniteGroupoid) -> list[int]:
    fibers = obj["fibers"]
    _expect(isinstance(fibers, dict), "field 'fibers' must be an object")
    sizes = [0] * g.n_objects
    for key, val in fibers.items():
        x = _id_key(key, g.n_objects, "fiber", "an object")
        _expect(_is_int(val) and val >= 0, f"fiber size at {key!r} must be a non-negative integer")
        sizes[x] = val
    return sizes


def _parse_action(obj, g: FiniteGroupoid, sizes: list[int]) -> list[list[int]]:
    action_spec = obj.get("action", {})
    _expect(isinstance(action_spec, dict), "field 'action' must be an object")
    action: list[list[int] | None] = [None] * g.n_morphisms
    for key, img in action_spec.items():
        m = _id_key(key, g.n_morphisms, "action", "a morphism")
        action[m] = _ints(img, f"action of morphism {m}")
        # before any fiber of the declared sizes is built
        if len(img) != sizes[g.dom[m]]:
            raise NotNatural(f"action of morphism {m} has wrong domain size")
    identities = set(g.identity)
    for m in g.morphisms:
        if action[m] is None:
            _expect(
                m in identities,
                f"action of non-identity morphism {m} is missing",
            )
            action[m] = list(range(sizes[g.dom[m]]))
    return action  # type: ignore[return-value]


def parse_gset(obj, g: FiniteGroupoid) -> GSet:
    _expect(isinstance(obj, dict), "G-set input must be a JSON object")
    _expect("fibers" in obj, "G-set input is missing field 'fibers'")
    sizes = _parse_fiber_sizes(obj, g)
    action = _parse_action(obj, g, sizes)
    return GSet(g, sizes, action).validate()


def parse_gmonoid(obj, g: FiniteGroupoid) -> GMonoid:
    _expect(isinstance(obj, dict), "G-monoid input must be a JSON object")
    form = _one_form(obj, ("conjugation", "trivial", "monoids fibers action"), "G-monoid input")
    if form in ("conjugation", "trivial"):
        _expect(obj[form] is True, f"field '{form}' must be true")
        return conjugation_action(g) if form == "conjugation" else trivial_gmonoid(g)
    _expect("monoids" in obj, "G-monoid input is missing field 'monoids'")
    monoid_spec = obj["monoids"]
    _expect(isinstance(monoid_spec, dict), "field 'monoids' must be an object")
    monoids: list[Monoid | None] = [None] * g.n_objects
    for key, val in monoid_spec.items():
        x = _id_key(key, g.n_objects, "monoid", "an object")
        _expect(
            isinstance(val, dict) and "table" in val and _is_int(val.get("unit")),
            f"monoid at {key!r} needs 'table' and an integer 'unit'",
        )
        monoids[x] = Monoid(_int_rows(val["table"], f"monoid table at {key!r}"), val["unit"])
    for x in g.objects:
        _expect(monoids[x] is not None, f"monoid at object {x} is missing")
    sizes = [m.size for m in monoids]  # type: ignore[union-attr]
    if "fibers" in obj:
        _expect(
            _parse_fiber_sizes(obj, g) == sizes,
            "field 'fibers' disagrees with the monoid tables",
        )
    action = _parse_action(obj, g, sizes)
    return GMonoid(g, monoids, action).validate()


def parse_crossed(obj, g: FiniteGroupoid, weight: GMonoid) -> CrossedGSet:
    _expect(isinstance(obj, dict), "crossed-set input must be a JSON object")
    carrier = parse_gset(obj, g)
    _expect("labels" in obj, "crossed-set input is missing field 'labels'")
    labels_spec = obj["labels"]
    _expect(isinstance(labels_spec, dict), "field 'labels' must be an object")
    labels = [[0] * carrier.size(x) for x in g.objects]
    seen = set()
    for key, val in labels_spec.items():
        x = _id_key(key, g.n_objects, "label", "an object")
        _expect(
            len(_ints(val, f"labels at {key!r}")) == carrier.size(x),
            f"labels at {key!r} must list one weight element per carrier element",
        )
        labels[x] = val
        seen.add(x)
    for x in g.objects:
        _expect(
            carrier.size(x) == 0 or x in seen, f"labels at object {x} are missing"
        )
    return CrossedGSet(carrier, weight, labels).validate()


# -- output ----------------------------------------------------------------------

def groupoid_to_obj(g: FiniteGroupoid) -> dict:
    """A valid groupoid's input form; compose lists its composable pairs."""
    compose = [
        [gg, f, g.compose_table[gg][f]]
        for gg in g.morphisms
        for f in g.by_cod(g.dom[gg])
    ]
    return {
        "objects": g.n_objects,
        "morphisms": [{"dom": g.dom[m], "cod": g.cod[m]} for m in g.morphisms],
        "compose": compose,
        "identity": list(g.identity),
        "inverse": list(g.inverse),
    }


def ring_to_obj(ring) -> dict:
    """A ring's report; its table is the sparse rows, whose tuples render as lists."""
    return {
        "dim": ring.dim,
        "basis": ring.basis_info,
        "unit": list(ring.unit_vector),
        "table": ring.structure_constants,
    }


def hom_to_obj(hom) -> dict:
    return {
        "matrix": hom.matrix,
        "verified": dict(hom.verified),
        "source_dim": hom.source.dim,
        "target_dim": hom.target.dim,
    }


def write_json(obj, write) -> None:
    """Pass ``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, to
    ``write`` a piece at a time: a top-level str-keyed dict key by key, and
    each list or tuple it holds element by element, so no more than one
    element's text exists at once.  Each tuple object met again at the same
    depth is rendered once (a ring's equal rows are one object, see
    ``rings._ring``).  The memo is keyed by identity, not value: (1,),
    (True,) and (1.0,) are equal with three texts.  Values other than str,
    exact int, list, tuple and str-keyed dict go to ``json``, re-indented to
    their depth: every newline it writes is layout."""
    memo: dict[tuple[int, int], str] = {}

    def text(v, pad: str) -> str:  # pad: a newline and the indent of v's line
        t = type(v)
        if t is str:
            return encode_basestring_ascii(v)
        if t is int:
            return str(v)
        if t is tuple:
            key = (id(v), len(pad))
            if key not in memo:
                memo[key] = array(v, pad)
            return memo[key]
        if t is list:
            return array(v, pad)
        if t is dict and all(type(k) is str for k in v):
            if not v:
                return "{}"
            inner = pad + "  "
            items = [encode_basestring_ascii(k) + ": " + text(v[k], inner) for k in sorted(v)]
            return "{" + inner + ("," + inner).join(items) + pad + "}"
        return json.dumps(v, indent=2, sort_keys=True).replace("\n", pad)

    def array(v, pad: str) -> str:
        if not v:
            return "[]"
        inner = pad + "  "
        kinds = set(map(type, v))
        if kinds == {int}:
            items = map(str, v)
        elif kinds == {list} and all(v) and set(map(type, chain.from_iterable(v))) == {int}:
            # non-empty integer lists, such as compose triples: no call per item
            sep = "," + inner + "  "
            head, tail = "[" + sep[1:], inner + "]"
            items = [head + sep.join(map(str, x)) + tail for x in v]
        else:
            items = [text(x, inner) for x in v]
        return "[" + inner + ("," + inner).join(items) + pad + "]"

    if type(obj) is not dict or not obj or not all(type(k) is str for k in obj):
        write(text(obj, "\n"))
        return
    head = "{\n  "
    for k in sorted(obj):
        v = obj[k]
        write(head + encode_basestring_ascii(k) + ": ")
        head = ",\n  "
        if type(v) in (list, tuple) and v:
            sep = "[\n    "
            for x in v:
                write(sep + text(x, "\n    "))
                sep = ",\n    "
            write("\n  ]")
        else:
            write(text(v, "\n  "))
    write("\n}")
