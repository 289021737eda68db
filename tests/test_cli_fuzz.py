"""Random small JSON inputs to ``cli.main``: whatever a groupoid, G-set or
G-monoid file holds, the CLI exits 0, 1 or 2, and an exit 2 writes
``input error:`` with no traceback.

Inputs start from valid ones (at most 3 objects and 6 morphisms), which
are then edited at random: a value replaced by any small JSON value, a
field dropped or a field added.  Counts stay small, so that no input is
large to build."""

from __future__ import annotations

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

import gburnside as gb
from gburnside.cli import main
from gburnside.serialize import groupoid_to_obj, parse_groupoid

from conftest import cyclic_table

S3_GENS = [[1, 0, 2], [1, 2, 0]]
GROUPOIDS = [
    {"group": {"table": cyclic_table(1)}},
    {"group": {"table": cyclic_table(2)}},
    {"group": {"table": cyclic_table(3)}},
    {"group": {"perm_gens": S3_GENS}},
    {"pair": 1},
    {"pair": 2},
    {"disjoint_union": [{"group": {"table": cyclic_table(2)}}, {"group": {"table": cyclic_table(3)}}]},
    {"disjoint_union": [{"pair": 2}, {"group": {"table": cyclic_table(1)}}]},
    {"product": [{"group": {"table": cyclic_table(2)}}, {"pair": 1}]},
]
GROUPOIDS += [groupoid_to_obj(parse_groupoid(obj)) for obj in GROUPOIDS]


def _action_fields(g: gb.FiniteGroupoid, x) -> dict:
    return {
        "fibers": {str(o): x.size(o) for o in g.objects},
        "action": {str(m): list(x.action[m]) for m in g.morphisms},
    }


def _functor_data(obj) -> tuple[list[dict], list[dict]]:
    """Valid G-set and G-monoid inputs over the groupoid of ``obj``."""
    g = parse_groupoid(obj)
    conj = gb.conjugation_action(g)
    gsets = [
        _action_fields(g, conj),
        {**_action_fields(g, conj), "labels": {str(o): list(range(conj.size(o))) for o in g.objects}},
        {"fibers": {str(o): 1 for o in g.objects}},
        {"fibers": {}},
    ]
    monoids = {str(o): {"table": [list(r) for r in conj.monoids[o].table], "unit": conj.unit(o)} for o in g.objects}
    weights = [
        {"conjugation": True},
        {"trivial": True},
        {"monoids": monoids, "action": _action_fields(g, conj)["action"]},
    ]
    return gsets, weights


FUNCTOR_DATA = [_functor_data(obj) for obj in GROUPOIDS]

leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4), st.sampled_from(["", "0", "00", "x", "-1"])
)
json_values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["0", "1", "2", "pair", "table", "fibers"]), inner, max_size=3),
    ),
    max_leaves=6,
)


@st.composite
def edited(draw, value, depth: int = 0):
    """``value`` unchanged, or with one value somewhere in it replaced, one
    field or item dropped, or one field added."""
    if depth == 0 and draw(st.integers(0, 3)) == 0:
        return value  # a valid input, to reach the commands' own checks
    if not value or not isinstance(value, (dict, list)) or draw(st.integers(0, 4)) == 0:
        return draw(json_values)
    keys = sorted(value) if isinstance(value, dict) else list(range(len(value)))
    key = draw(st.sampled_from(keys))
    out = dict(value) if isinstance(value, dict) else list(value)
    action = draw(st.sampled_from(["edit", "edit", "drop", "add"]))
    if action == "edit":
        out[key] = draw(edited(value[key], depth + 1))
    elif action == "drop":
        del out[key]
    elif isinstance(out, dict):
        out[draw(st.sampled_from(["0", "3", "objects", "labels", "unit", "pair"]))] = draw(json_values)
    else:
        out.append(draw(json_values))
    return out


COMMANDS = {
    "validate": ["gset?", "weight?"],
    "components": [],
    "isotropy": ["object"],
    "hadamard": ["gset"],
    "crossed-burnside": ["weight?"],
    "action-groupoid": ["gset"],
}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), command=st.sampled_from(sorted(COMMANDS)))
def test_cli_exits_0_1_or_2_without_a_traceback(tmp_path, data, command):
    k = data.draw(st.integers(0, len(GROUPOIDS) - 1))
    gsets, weights = FUNCTOR_DATA[k]
    files = {
        "groupoid": data.draw(edited(GROUPOIDS[k])),
        "gset": data.draw(st.sampled_from(gsets).flatmap(edited)),
        "weight": data.draw(st.sampled_from(weights).flatmap(edited)),
    }
    argv = [command]
    for name, obj in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        if name == "groupoid" or name in COMMANDS[command] or (
            f"{name}?" in COMMANDS[command] and data.draw(st.booleans())
        ):
            given = str(path)
            if name == "weight":
                given = data.draw(st.sampled_from([given, given, "conjugation", "trivial"]))
            argv += [f"--{name}", given]
    if "object" in COMMANDS[command]:
        argv += ["--object", str(data.draw(st.integers(-1, 3)))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, files, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert "input error:" in err.getvalue(), (argv, files, err.getvalue())
    else:
        assert json.loads(out.getvalue())["command"] == command
