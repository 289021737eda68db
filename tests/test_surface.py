"""The package surface: what ``__init__.py`` exports, and the names that
moved to ``tests/oracles.py`` because only tests call them."""

from __future__ import annotations

import ast

import pytest

import gburnside
import gburnside.classify
import gburnside.crossed
import gburnside.errors
import gburnside.groupoid
import gburnside.gsets
from gburnside.groupoid import FiniteGroupoid, GroupoidFunctor

MOVED_TO_ORACLES = [
    "connected_structure_iso",
    "EquivalenceData",
    "inclusion_equivalence",
    "SubgroupoidSpec",
    "is_normal_subgroupoid",
    "transports",
    "TransportData",
    "transport_induce",
    "transport_connected",
    "NotSubgroupoid",
    "NotWide",
    "marks",
    "check_subgroup",
    "NotSubgroup",
    "all_subgroups",
    "left_unitor",
    "right_unitor",
    "trivial_label_embed",
]


@pytest.mark.parametrize(
    "module",
    [gburnside, gburnside.groupoid, gburnside.gsets, gburnside.crossed, gburnside.classify,
     gburnside.errors],
    ids=lambda m: m.__name__,
)
def test_moved_names_are_not_in_the_package(module):
    assert [name for name in MOVED_TO_ORACLES if hasattr(module, name)] == []


def test_moved_methods_are_not_in_the_package():
    assert not hasattr(GroupoidFunctor, "is_isomorphism")
    assert not hasattr(FiniteGroupoid, "compose")


def test_all_lists_every_public_name_init_binds():
    with open(gburnside.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    bound = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(gburnside.__all__) == len(set(gburnside.__all__))
    assert set(gburnside.__all__) == {name for name in bound if not name.startswith("_")}
