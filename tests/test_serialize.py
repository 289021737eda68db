"""JSON input parsing: shorthands, the full groupoid form, functor data,
and error reporting with field context."""

from __future__ import annotations

import json
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import gburnside as gb
from gburnside.errors import DomCodMismatch, MissingInverse, NotAGroup, NotNatural
from gburnside.serialize import (
    ParseError,
    groupoid_to_obj,
    parse_crossed,
    parse_gmonoid,
    parse_groupoid,
    parse_gset,
    ring_to_obj,
    write_json,
)

from conftest import cyclic_table, s3_table


class TestParseGroupoid:
    def test_pair_shorthand(self):
        g = parse_groupoid({"pair": 3})
        assert (g.n_objects, g.n_morphisms) == (3, 9)

    def test_group_table(self):
        g = parse_groupoid({"group": {"table": cyclic_table(2)}})
        assert g.n_morphisms == 2

    def test_group_perm_gens(self):
        g = parse_groupoid({"group": {"perm_gens": [[1, 0, 2], [1, 2, 0]]}})
        assert g.n_morphisms == 6

    def test_disjoint_union_combinator(self):
        g = parse_groupoid(
            {
                "disjoint_union": [
                    {"group": {"table": cyclic_table(2)}},
                    {"group": {"perm_gens": [[1, 0, 2], [1, 2, 0]]}},
                ]
            }
        )
        assert (g.n_objects, g.n_morphisms) == (2, 8)

    def test_product_combinator(self):
        g = parse_groupoid(
            {"product": [{"group": {"table": cyclic_table(2)}}, {"pair": 2}]}
        )
        assert (g.n_objects, g.n_morphisms) == (2, 8)

    def test_full_form_round_trip(self, corpus):
        for name in ("C2", "Pair(3)", "C2+S3"):
            g = corpus[name]
            parsed = parse_groupoid(groupoid_to_obj(g))
            assert parsed == g

    def test_missing_field(self):
        with pytest.raises(ParseError, match="identity"):
            parse_groupoid(
                {"objects": 1, "morphisms": [], "compose": [], "inverse": []}
            )

    def test_bad_group_table(self):
        with pytest.raises(NotAGroup):
            parse_groupoid({"group": {"table": [[0, 1], [1, 1]]}})

    def test_corrupt_full_form_rejected(self, c2):
        obj = groupoid_to_obj(c2)
        obj["inverse"] = [1, 1]
        with pytest.raises(MissingInverse):
            parse_groupoid(obj)

    def test_non_object_input(self):
        with pytest.raises(ParseError):
            parse_groupoid([1, 2, 3])

    @pytest.mark.parametrize("flag", [True, False])
    def test_pair_boolean_rejected(self, flag):
        with pytest.raises(ParseError, match="'pair'"):
            parse_groupoid({"pair": flag})

    def test_entry_on_non_composable_pair_rejected(self):
        # Pair(2): morphism 1 is 0 -> 1, so 1 after 1 is not composable
        obj = groupoid_to_obj(gb.pair_groupoid(2))
        obj["compose"].append([1, 1, 1])
        with pytest.raises(DomCodMismatch, match="non-composable"):
            parse_groupoid(obj)

    @pytest.mark.parametrize("obj, fields", [
        ({"pair": 2, "group": {"table": [[0]]}}, "'pair', 'group'"),
        ({"product": [{"pair": 1}], "disjoint_union": [{"pair": 1}]}, "'disjoint_union', 'product'"),
        ({"pair": 1, "objects": 1, "identity": [0]}, "'pair', 'objects', 'identity'"),
    ])
    def test_two_forms_refused(self, obj, fields):
        with pytest.raises(ParseError, match=f"groupoid input names more than one form: {fields}$"):
            parse_groupoid(obj)

    def test_group_with_table_and_perm_gens_refused(self):
        obj = {"group": {"table": [[0, 1], [1, 0]], "perm_gens": [[1, 0, 2], [1, 2, 0]]}}
        with pytest.raises(ParseError, match="field 'group' names more than one form: 'table', 'perm_gens'$"):
            parse_groupoid(obj)

    def test_objects_boolean_rejected(self):
        with pytest.raises(ParseError, match="'objects'"):
            parse_groupoid(
                {"objects": True, "morphisms": [{"dom": 0, "cod": 0}],
                 "compose": [[0, 0, 0]], "identity": [0], "inverse": [0]}
            )


class TestParseGSet:
    def test_regular_c2(self, c2):
        x = parse_gset({"fibers": {"0": 2}, "action": {"1": [1, 0]}}, c2)
        assert x.size(0) == 2

    def test_identity_defaults(self, c2):
        x = parse_gset({"fibers": {"0": 3}, "action": {"1": [2, 1, 0]}}, c2)
        assert x.action[0] == [0, 1, 2]

    def test_missing_non_identity_action(self, s3):
        with pytest.raises(ParseError, match="non-identity"):
            parse_gset({"fibers": {"0": 1}}, gb.from_group(s3_table()))

    def test_invalid_action_rejected(self, c2):
        with pytest.raises(NotNatural):
            parse_gset({"fibers": {"0": 2}, "action": {"1": [0, 0]}}, c2)

    def test_action_length_checked_before_fibers_are_built(self, c2):
        # a million-point fiber must not be allocated to find out that the
        # empty action list of morphism 1 cannot act on it
        tracemalloc.start()
        try:
            with pytest.raises(NotNatural, match="action of morphism 1 has wrong domain size"):
                parse_gset({"fibers": {"0": 1000000}, "action": {"1": []}}, c2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_unknown_object_key(self, c2):
        with pytest.raises(ParseError, match="fiber key"):
            parse_gset({"fibers": {"7": 1}, "action": {}}, c2)

    def test_boolean_fiber_size_rejected(self, c2):
        with pytest.raises(ParseError, match="fiber size"):
            parse_gset({"fibers": {"0": True}, "action": {}}, c2)


class TestParseGMonoid:
    def test_conjugation_shorthand(self, s3):
        w = parse_gmonoid({"conjugation": True}, s3)
        assert w == gb.conjugation_action(s3)

    def test_trivial_shorthand(self, s3):
        w = parse_gmonoid({"trivial": True}, s3)
        assert w == gb.trivial_gmonoid(s3)

    @pytest.mark.parametrize("obj, fields", [
        ({"conjugation": True, "trivial": True}, "'conjugation', 'trivial'"),
        ({"conjugation": True, "monoids": {"0": {"table": [[0]], "unit": 0}}}, "'conjugation', 'monoids'"),
        ({"trivial": True, "fibers": {"0": 1}, "action": {}}, "'trivial', 'fibers', 'action'"),
    ])
    def test_two_forms_refused(self, s3, obj, fields):
        with pytest.raises(ParseError, match=f"G-monoid input names more than one form: {fields}$"):
            parse_gmonoid(obj, s3)

    @pytest.mark.parametrize("form", ["conjugation", "trivial"])
    def test_shorthand_must_be_true(self, s3, form):
        with pytest.raises(ParseError, match=f"field '{form}' must be true"):
            parse_gmonoid({form: False}, s3)

    def test_explicit_monoid(self, c2):
        w = parse_gmonoid(
            {
                "monoids": {"0": {"table": cyclic_table(2), "unit": 0}},
                "action": {"1": [0, 1]},
            },
            c2,
        )
        assert w.size(0) == 2

    def test_fiber_disagreement(self, c2):
        with pytest.raises(ParseError, match="disagrees"):
            parse_gmonoid(
                {
                    "fibers": {"0": 3},
                    "monoids": {"0": {"table": cyclic_table(2), "unit": 0}},
                    "action": {"1": [0, 1]},
                },
                c2,
            )

    def test_missing_monoid(self, corpus):
        g = corpus["C2+S3"]
        with pytest.raises(ParseError, match="missing"):
            parse_gmonoid(
                {
                    "monoids": {"0": {"table": cyclic_table(2), "unit": 0}},
                    "action": {},
                },
                g,
            )


class TestParseCrossed:
    def test_valid_crossed(self, c2):
        conj = gb.conjugation_action(c2)
        c = parse_crossed(
            {
                "fibers": {"0": 2},
                "action": {"1": [1, 0]},
                "labels": {"0": [1, 1]},
            },
            c2,
            conj,
        )
        assert c.label == [[1, 1]]

    def test_unnatural_labels_rejected(self, c2):
        conj = gb.conjugation_action(c2)
        with pytest.raises(NotNatural):
            parse_crossed(
                {
                    "fibers": {"0": 2},
                    "action": {"1": [1, 0]},
                    "labels": {"0": [0, 1]},
                },
                c2,
                conj,
            )

    def test_missing_labels(self, c2):
        conj = gb.conjugation_action(c2)
        with pytest.raises(ParseError, match="labels"):
            parse_crossed(
                {"fibers": {"0": 2}, "action": {"1": [1, 0]}}, c2, conj
            )


class TestFieldTypes:
    """Functor data of the wrong JSON type is a ParseError, raised before
    anything is built, never a TypeError."""

    def test_action_image_of_strings(self, c2):
        with pytest.raises(ParseError, match="action of morphism 1"):
            parse_gset({"fibers": {"0": 2}, "action": {"1": [0, "a"]}}, c2)

    @pytest.mark.parametrize(
        "monoid", [{"table": "x", "unit": 0}, {"table": [[0, "a"], [1, 0]], "unit": 0},
                   {"table": [[0, 1], [1, 0]], "unit": "0"}],
    )
    def test_monoid_table_and_unit(self, c2, monoid):
        with pytest.raises(ParseError, match="monoid"):
            parse_gmonoid({"monoids": {"0": monoid}, "action": {"1": [0, 1]}}, c2)

    def test_labels_of_strings(self, c2):
        with pytest.raises(ParseError, match="labels at '0'"):
            parse_crossed(
                {"fibers": {"0": 2}, "action": {"1": [1, 0]}, "labels": {"0": [1, "a"]}},
                c2,
                gb.conjugation_action(c2),
            )


class TestKeySpelling:
    """An id key must be its canonical decimal spelling: ``int`` reads
    "00", " 0" and "+0" as 0, and a second spelling of one id would
    silently overwrite the first."""

    @pytest.mark.parametrize("spelling", ["00", " 0", "0 ", "+0", "-0"])
    def test_fiber_key(self, spelling):
        c1 = gb.from_group([[0]])
        with pytest.raises(ParseError, match="fiber key"):
            parse_gset({"fibers": {"0": 2, spelling: 1}}, c1)

    def test_action_key(self, c2):
        with pytest.raises(ParseError, match="action key"):
            parse_gset({"fibers": {"0": 2}, "action": {"1": [1, 0], "01": [0, 1]}}, c2)

    def test_monoid_key(self, c2):
        monoid = {"table": cyclic_table(2), "unit": 0}
        with pytest.raises(ParseError, match="monoid key"):
            parse_gmonoid({"monoids": {"0": monoid, "00": monoid}, "action": {"1": [0, 1]}}, c2)

    def test_label_key(self, c2):
        with pytest.raises(ParseError, match="label key"):
            parse_crossed(
                {"fibers": {"0": 2}, "action": {"1": [1, 0]}, "labels": {"0": [1, 1], "00": [0, 0]}},
                c2,
                gb.conjugation_action(c2),
            )


# -- report rendering ------------------------------------------------------------

def _pieces(obj) -> list[str]:
    parts: list[str] = []
    write_json(obj, parts.append)
    return parts


def render_json(obj) -> str:
    return "".join(_pieces(obj))


# One tuple object that the examples place at several depths, and equal
# tuples whose texts differ: a memo keyed by value would mix them up.
SHARED = ((3, 1), (5, 2))
ALIKE = [(1,), (True,), (1.0,), (0.0,), (-0.0,)]

json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
        st.sampled_from([SHARED, (), *ALIKE]),
    ),
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(st.text(), inner),
        st.dictionaries(st.integers(), inner),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
@example([SHARED, [SHARED, {"row": SHARED}], SHARED[0]])
@example([*ALIKE, [ALIKE, tuple(ALIKE)], {"a": ALIKE[0], "b": ALIKE[1], "c": ALIKE[2]}])
@example({"nan": float("nan"), "inf": [float("inf"), -float("inf")], "x": (float("nan"),)})
@example({"\u00e9\x00\n\"\\": ["\u00fc\x1f\u2028\ud800\U0001f600", "\t"], "\x7f": "\u00e9"})
@example([[], (), {}, [[], ()], {"a": {}, "b": []}, ((),)])
@example({2: "b", 10: (1,), -1: {3: True, 0: SHARED}})
@example(SHARED)
@example("plain")
@example({"rows": [[[1, 2], [3]], [[]], [[1, True]], [[1], []]], "t": (SHARED, [SHARED])})
@example({"a": [], "b": (), "c": {}, "d": [[], ()], "e": [SHARED, (SHARED,)]})
def test_render_json_is_json_dumps(obj):
    assert render_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_write_json_passes_one_element_at_a_time(s3):
    # a ring's equal rows are one tuple; here one of them is also met as an
    # element of a streamed list and one level deeper, so the memo sees it
    # at three depths
    ring = gb.burnside_ring(s3)
    shared = ring.structure_constants[1][1]
    report = {"command": "burnside", **ring_to_obj(ring), "again": [shared, [shared]]}
    parts = _pieces(report)
    assert "".join(parts) == json.dumps(report, indent=2, sort_keys=True)
    # a piece per key, per scalar value or list close, per list element, and
    # the closing brace; each element's piece is its separator and its text
    lists = [v for v in report.values() if isinstance(v, (list, tuple)) and v]
    assert len(parts) == 2 * len(report) + sum(map(len, lists)) + 1
    elements = {
        sep + json.dumps(x, indent=2, sort_keys=True).replace("\n", "\n    ")
        for v in lists for x in v for sep in ("[\n    ", ",\n    ")
    }
    assert sum(p in elements for p in parts) == sum(map(len, lists))
    assert all(p in elements or len(p) < 30 for p in parts)


def test_write_json_renders_a_top_level_non_dict_whole():
    for obj in ([1, [2, 3]], (SHARED,), {1: [2]}, {}, "plain"):
        assert _pieces(obj) == [json.dumps(obj, indent=2, sort_keys=True)]
