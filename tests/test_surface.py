"""The package surface: what ``__init__.py`` exports, and the names that
moved to ``tests/oracles.py`` because only tests call them."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gburnside
import gburnside as gb
import gburnside.classify
import gburnside.crossed
import gburnside.errors
import gburnside.groupoid
import gburnside.gsets
from gburnside.classify import BasisCatalog
from gburnside.cli import JobSpec
from gburnside.crossed import CrossedGSet, CrossedMap
from gburnside.groupoid import ComponentData, FiniteGroupoid, GroupoidFunctor
from gburnside.gsets import ActionGroupoid, GMap, GMonoid, GSet, Monoid
from gburnside.rings import RingHom, RingPresentation

from oracles import identity_crossed_map

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
    "subgroup_conjugacy_classes",
    "left_unitor",
    "right_unitor",
    "trivial_label_embed",
    "identity_crossed_map",
    "compose_crossed_maps",
    "tensor_map",
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


def test_cli_import_loads_no_dataclasses_or_logging():
    """Every command starts with ``import gburnside.cli``; it must not load
    ``dataclasses`` (which brings ``inspect``, ``ast`` and ``dis``),
    ``logging``, or ``argparse`` with the ``gettext`` and ``locale`` it
    brings, which only help and errors need.  Prints the modules the
    import added."""
    result = _run_python(
        "import sys; before = set(sys.modules); import gburnside.cli; "
        "print(' '.join(sorted(set(sys.modules) - before))); print(' '.join(sys.modules))"
    )
    added, modules = result.stdout.splitlines()
    print("import gburnside.cli loaded:", added)
    unwanted = ("dataclasses", "inspect", "ast", "dis", "logging", "argparse", "gettext", "locale")
    assert [m for m in unwanted if m in modules.split()] == []


def test_a_plain_command_loads_no_argparse(tmp_path):
    """A plain command line is read without argparse; ``--help`` still
    builds it and prints argparse's usage."""
    c2 = tmp_path / "c2.json"
    c2.write_text('{"group": {"table": [[0, 1], [1, 0]]}}')
    result = _run_python(
        "import sys, gburnside.cli as cli; "
        "code = cli.main(['burnside', '--groupoid', sys.argv[1], '--out', sys.argv[2]]); "
        "print(code, *(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules)); "
        "print(cli.main(['--help']))",
        str(c2), str(tmp_path / "ring.json"),
    )
    first, *help_lines, last = result.stdout.splitlines()
    assert first == "0"
    assert help_lines[0].startswith("usage: gburnside")
    assert last == "0"
    assert '"dim": 2' in (tmp_path / "ring.json").read_text()


def _run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """``python -c code args`` in a fresh process that imports the package from src/."""
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result


def _plain_classes() -> dict:
    """For each data class: two instances with equal fields and one that
    differs from them in one field.  The second instance is built from
    equal but separate parts where it can be, so ``==`` compares values."""
    c2 = gb.from_group([[0, 1], [1, 0]])
    fresh = _fresh_groupoid(c2)
    ag = gb.action_groupoid(c2, gb.terminal_gset(c2))
    conj = gb.conjugation_action(c2)
    catalog = gb.enumerate_basis(c2, conj)
    ring = gb.burnside_ring(c2)
    rows = [list(ri) for ri in ring.structure_constants]
    point = gb.terminal_gset(c2)
    unit = gb.unit_object(c2, conj)

    def job(**options):
        return JobSpec("burnside", groupoid="c2.json", **options)

    def monoid():
        return Monoid([[0, 1], [1, 0]], 0)

    return {
        "FiniteGroupoid": [
            c2, fresh, FiniteGroupoid(1, [0, 0], [0, 0], [[0, 1], [1, 0]], [0], [0, 0]),
        ],
        "GSet": [GSet(g, [1], [[0], [0]]) for g in (c2, fresh)] + [GSet(c2, [2], [[0], [0]])],
        "GMonoid": [
            GMonoid(c2, [monoid()], [[0, 1], [0, 1]]),
            GMonoid(fresh, [monoid()], [[0, 1], [0, 1]]),
            GMonoid(c2, [monoid()], [[0, 1], [1, 0]]),
        ],
        "GMap": [GMap(point, point, [[0]]), GMap(point, gb.terminal_gset(fresh), [[0]]),
                 GMap(point, gb.gset_coproduct(point, point), [[0]])],
        "CrossedGSet": [CrossedGSet(point, w, [[0]])
                        for w in (conj, gb.conjugation_action(fresh), gb.trivial_gmonoid(c2))],
        "CrossedMap": [identity_crossed_map(unit), identity_crossed_map(unit),
                       CrossedMap(unit, gb.crossed_coproduct(unit, unit), [[0]])],
        "GroupoidFunctor": [GroupoidFunctor(c2, c2, [0], m) for m in ([0, 1], [0, 1], [1, 0])],
        "ComponentData": [ComponentData([[0]], r) for r in ([0], [0], [1])],
        "Monoid": [Monoid([[0, 1], [1, 0]], u) for u in (0, 0, 1)],
        "ActionGroupoid": [
            ActionGroupoid(ag.groupoid, ag.projection, list(ag.object_tags), t)
            for t in (list(ag.morphism_tags), list(ag.morphism_tags), [])
        ],
        "BasisCatalog": [BasisCatalog(c2, catalog.weight, e)
                         for e in (list(catalog.entries), list(catalog.entries), catalog.entries[1:])],
        "RingPresentation": [
            RingPresentation(2, rows, [1, 0]),
            RingPresentation(2, rows, [1, 0], None, []),
            RingPresentation(2, rows, [1, 0], basis_info=[{}, {}]),
        ],
        "RingHom": [RingHom(ring, ring, [[1, 0], [0, 1]], *v) for v in ((), ({},), ({"u": 1},))],
        "JobSpec": [job(), job(seed=0), job(seed=1)],
    }


def _fresh_groupoid(g: FiniteGroupoid) -> FiniteGroupoid:
    """A new groupoid, with no cache filled, from copies of g's tables."""
    return FiniteGroupoid(g.n_objects, list(g.dom), list(g.cod),
                          [list(r) for r in g.compose_table], list(g.identity), list(g.inverse))


def _assert_field_wise(name: str) -> None:
    a, b, c = _plain_classes()[name]
    assert a is not b
    assert a == b
    assert a != c
    assert a != (a, b)
    with pytest.raises(TypeError):
        hash(a)


@pytest.mark.parametrize("name", [
    "GroupoidFunctor", "ComponentData", "Monoid", "ActionGroupoid", "BasisCatalog",
    "RingPresentation", "RingHom", "JobSpec",
])
def test_former_dataclasses_compare_field_by_field(name):
    _assert_field_wise(name)


@pytest.mark.parametrize("name", [
    "FiniteGroupoid", "GSet", "GMonoid", "GMap", "CrossedGSet", "CrossedMap",
])
def test_structures_compare_field_by_field(name):
    _assert_field_wise(name)


def test_caches_take_no_part_in_equality():
    g = gb.from_group([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    fresh = _fresh_groupoid(g)
    assert g == fresh
    gb.validate_groupoid(g)
    g.by_dom(0)
    g.by_cod(0)
    gb.isotropy_group(g, 0)
    weight = gb.conjugation_action(g)  # fills g's conjugation cache
    assert g == fresh
    fresh_weight = GMonoid(fresh, list(weight.monoids), list(weight.action))
    assert weight == fresh_weight
    gb.unit_object(g, weight)
    assert weight._unit_object is not None
    assert weight == fresh_weight


def test_only_record_defines_eq():
    """Every class of the package compares through ``groupoid.Record``."""
    package = Path(gburnside.__file__).parent
    defining = [
        f"{path.name}:{node.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "__eq__" for f in node.body)
    ]
    assert defining == ["groupoid.py:Record"]


def test_former_dataclass_defaults():
    cases = _plain_classes()
    catalog, same, _ = cases["BasisCatalog"]
    catalog.marks()  # the cache takes no part in ==
    assert catalog == same
    ring, hom = cases["RingPresentation"][0], cases["RingHom"][0]
    assert (ring.basis, ring.basis_info, hom.verified) == (None, [], {})
    # each instance gets a list and a dict of its own
    assert ring.basis_info is not RingPresentation(0, [], []).basis_info
    assert hom.verified is not RingHom(ring, ring, []).verified
    job = cases["JobSpec"][0]
    assert (job.object_id, job.samples, job.seed, job.format) == (0, 20, 0, "json")
    assert job.verify_target is job.gset is job.weight is job.out is None
    with pytest.raises(TypeError, match="samplez"):
        JobSpec("burnside", samplez=3)
