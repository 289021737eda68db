"""Acceptance gate: one test per criterion, each printing a pass/fail line
with its runtime.  Run with ``pytest tests/test_acceptance.py -v -s``."""

from __future__ import annotations

import copy
import itertools
import json
import time
from contextlib import contextmanager

import pytest

import gburnside as gb
from gburnside.classify import (
    brute_force_basis,
    enumerate_basis,
    induced_crossed,
    transitive_decomposition,
)
from gburnside.cli import main as cli_main
from gburnside.errors import GBError
from gburnside.gsets import GMap, GMonoid, GSet
from gburnside.rings import (
    RingHom,
    action_groupoid_iso_check,
    connected_reduction_hom,
    crossed_burnside_ring,
    decomposition_hom,
    embedding_hom,
)
from gburnside.sampling import sample_many

from conftest import (
    GROUP_TABLES_LEQ8,
    build_corpus,
    cyclic_table,
    dense_constants,
    editable_tables,
    fixed_points_gset,
    regular_gset,
)
from oracles import connected_structure_iso, functor_is_isomorphism, underlying_gset

CORPUS = build_corpus()

_AXIOM_REPORTS: dict[tuple[str, str], list[dict]] = {}
_BC_RINGS: dict[str, object] = {}


@contextmanager
def criterion(number: int, description: str, budget: float | None = None):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"PASS criterion {number}: {description} ({elapsed:.1f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s"


def _weight(g, kind: str) -> GMonoid:
    return gb.conjugation_action(g) if kind == "conjugation" else gb.trivial_gmonoid(g)


def _axiom_reports() -> dict[tuple[str, str], list[dict]]:
    if not _AXIOM_REPORTS:
        from gburnside.crossed import check_monoidal_axioms

        for name, g in CORPUS.items():
            for kind in ("conjugation", "trivial"):
                samples = sample_many(g, _weight(g, kind), 100, seed=0)
                _AXIOM_REPORTS[(name, kind)] = check_monoidal_axioms(samples)
    return _AXIOM_REPORTS


def _bc_rings() -> dict[str, object]:
    if not _BC_RINGS:
        for name, g in CORPUS.items():
            _BC_RINGS[name] = crossed_burnside_ring(g, gb.conjugation_action(g))
    return _BC_RINGS


def _status_of(reports, name, kind, axiom):
    report = reports[(name, kind)]
    return next(r["status"] for r in report if r["axiom"] == axiom)


def test_criterion_01_validation_suites():
    with criterion(1, "validation suites accept the corpus and reject mutants", 5.0):
        for name, g in CORPUS.items():
            gb.validate_groupoid(g)
            conj = gb.conjugation_action(g)
            conj.validate()
            triv = gb.trivial_gmonoid(g)
            triv.validate()
            bar = underlying_gset(conj)
            terminal = gb.terminal_gset(g)
            collapse = GMap(
                bar, terminal, [[0] * bar.size(x) for x in g.objects]
            ).validate()

            mutants = []
            if g.n_morphisms > 1:  # one-morphism tables have no wrong value in range
                pair = next(
                    (gg, f)
                    for gg in g.morphisms
                    for f in g.morphisms
                    if g.compose_table[gg][f] != -1
                )
                # each mutant is a new instance built from edited tables
                m1 = editable_tables(g)
                m1["compose_table"][pair[0]][pair[1]] = (
                    g.compose_table[pair[0]][pair[1]] + 1
                ) % g.n_morphisms
                mutants.append(gb.FiniteGroupoid(g.n_objects, **m1))
                m2 = editable_tables(g)
                m2["inverse"][0] = (g.inverse[0] + 1) % g.n_morphisms
                mutants.append(gb.FiniteGroupoid(g.n_objects, **m2))
                m3 = editable_tables(g)
                m3["identity"][0] = (g.identity[0] + 1) % g.n_morphisms
                mutants.append(gb.FiniteGroupoid(g.n_objects, **m3))
            if g.n_objects > 1:
                m4 = editable_tables(g)
                m4["dom"][0] = (g.dom[0] + 1) % g.n_objects
                mutants.append(gb.FiniteGroupoid(g.n_objects, **m4))
            for mutant in mutants:
                with pytest.raises(GBError):
                    gb.validate_groupoid(mutant)

            rep = max(g.objects, key=bar.size)
            if bar.size(rep) > 1:
                loud = GSet(
                    g,
                    list(bar.sizes),
                    [list(a) for a in bar.action],
                )
                loud.action[g.identity[rep]] = list(
                    reversed(loud.action[g.identity[rep]])
                )
                with pytest.raises(GBError):
                    loud.validate()

                broken_monoid = GMonoid(
                    g,
                    [copy.deepcopy(m) for m in conj.monoids],
                    [list(a) for a in conj.action],
                )
                broken_monoid.monoids[rep].table[0] = list(
                    reversed(broken_monoid.monoids[rep].table[0])
                )
                with pytest.raises(GBError):
                    broken_monoid.validate()

                # collapsing two elements of a free orbit is never natural:
                # natural self-maps of a free orbit are right translations
                free = induced_crossed(
                    g, triv, rep, frozenset({g.identity[rep]}), [0]
                )[0].carrier
                broken_map = GMap(
                    free, free, [list(range(free.size(x))) for x in g.objects]
                )
                broken_map.components[rep][0] = broken_map.components[rep][1]
                with pytest.raises(GBError):
                    broken_map.validate()
            del collapse


def test_criterion_02_monoidal_axioms():
    with criterion(
        2, "pentagon and triangle on 100 seeded windows per corpus groupoid and weight", 60.0
    ):
        reports = _axiom_reports()
        for name in CORPUS:
            for kind in ("conjugation", "trivial"):
                assert _status_of(reports, name, kind, "pentagon") == "ok", (name, kind)
                assert _status_of(reports, name, kind, "triangle") == "ok", (name, kind)


def test_criterion_03_symmetry():
    with criterion(
        3,
        "braiding involution, hexagon, unitor diagrams, and commutative B^c tables",
        60.0,
    ):
        reports = _axiom_reports()
        for name, g in CORPUS.items():
            for axiom in ("symmetry", "hexagon", "unitor-braiding"):
                assert _status_of(reports, name, "conjugation", axiom) == "ok", (
                    name,
                    axiom,
                )
        for name, ring in _bc_rings().items():
            d = ring.dim
            c = ring.structure_constants
            for i, j in itertools.product(range(d), repeat=2):
                assert c[i][j] == c[j][i], (name, i, j)


def test_criterion_04_distributivity():
    with criterion(4, "explicit distributivity isomorphism on 100 seeded windows"):
        reports = _axiom_reports()
        for name in CORPUS:
            for kind in ("conjugation", "trivial"):
                assert _status_of(reports, name, kind, "distributivity") == "ok", (
                    name,
                    kind,
                )


def test_criterion_05_basis_oracle():
    with criterion(
        5, "enumerate_basis matches brute force for all groups of order <= 8", 300.0
    ):
        for name, table in GROUP_TABLES_LEQ8.items():
            g = gb.from_group(table)
            for kind in ("conjugation", "trivial"):
                weight = _weight(g, kind)
                catalog = enumerate_basis(g, weight)
                brute = brute_force_basis(g, weight)
                assert len(brute) == catalog.dim, (name, kind)
                hits = []
                for crossed in brute:
                    ((piece, _),) = transitive_decomposition(crossed)
                    hit = catalog.find(piece)
                    assert hit is not None, (name, kind)
                    hits.append(hit)
                assert sorted(hits) == list(range(catalog.dim)), (name, kind)
        assert enumerate_basis(
            gb.from_group(GROUP_TABLES_LEQ8["C2"]),
            gb.conjugation_action(gb.from_group(GROUP_TABLES_LEQ8["C2"])),
        ).dim == 4
        assert _bc_rings()["C3"].dim == 6
        assert _bc_rings()["S3"].dim == 8
        assert enumerate_basis(
            CORPUS["S3"], gb.trivial_gmonoid(CORPUS["S3"])
        ).dim == 4
        assert _bc_rings()["trivial"].dim == 1


def test_criterion_06_embedding():
    with criterion(
        6, "Burnside ring embeds in the crossed Burnside ring on every corpus groupoid"
    ):
        for name, g in CORPUS.items():
            hom = embedding_hom(g, gb.conjugation_action(g))
            v = hom.verified
            assert v["unital"], name
            assert v["multiplicative"], name
            assert v["injective"], name
            for c in range(hom.source.dim):
                col = [hom.matrix[r][c] for r in range(hom.target.dim)]
                assert sum(col) == 1 and set(col) <= {0, 1}, name


def _permutation_of(hom: RingHom) -> list[int]:
    perm = []
    for c in range(hom.source.dim):
        col = [hom.matrix[r][c] for r in range(hom.target.dim)]
        assert sum(col) == 1 and set(col) <= {0, 1}
        perm.append(col.index(1))
    assert sorted(perm) == list(range(hom.target.dim))
    return perm


def _assert_constants_match(hom: RingHom) -> None:
    perm = _permutation_of(hom)
    cs, ct = dense_constants(hom.source), dense_constants(hom.target)
    d = hom.source.dim
    for i, j, k in itertools.product(range(d), repeat=3):
        assert cs[i][j][k] == ct[perm[i]][perm[j]][perm[k]]


def test_criterion_07_connected_reduction():
    with criterion(
        7, "connected reduction is a constant-preserving bijective ring hom"
    ):
        cases = [
            CORPUS["C2xPair(2)"],
            gb.direct_product(CORPUS["C2"], gb.pair_groupoid(3)),
            CORPUS["Pair(4)"],
        ]
        for g in cases:
            hom = connected_reduction_hom(g, gb.conjugation_action(g), 0)
            v = hom.verified
            assert v["unital"] and v["multiplicative"] and v["bijective"]
            _assert_constants_match(hom)


def test_criterion_08_decomposition():
    with criterion(
        8, "component decomposition is a constant-preserving bijective ring hom"
    ):
        expectations = [("C2+S3", 12, [4, 8]), ("(C2xPair(2))+C3", 10, [4, 6])]
        for name, total, blocks in expectations:
            g = CORPUS[name]
            hom = decomposition_hom(g, gb.conjugation_action(g))
            assert hom.source.dim == total, name
            block_counts = [0] * len(blocks)
            for info in hom.target.basis_info:
                block_counts[info["block"]] += 1
            assert block_counts == blocks, name
            v = hom.verified
            assert v["unital"] and v["multiplicative"] and v["bijective"], name
            _assert_constants_match(hom)


def test_criterion_09_action_groupoid_corollary():
    with criterion(
        9, "Burnside ring of the action groupoid matches the Hadamard ring"
    ):
        c2 = CORPUS["C2"]
        s3 = CORPUS["S3"]
        u, _ = gb.disjoint_union([CORPUS["C2"], CORPUS["C3"]])
        gens = [[1, 0, 2], [1, 2, 0]]
        ident = tuple(range(3))
        elems = [ident]
        index = {ident: 0}
        frontier = [ident]
        while frontier:
            fresh = []
            for p in frontier:
                for q in gens:
                    r = tuple(q[p[i]] for i in range(3))
                    if r not in index:
                        index[r] = len(elems)
                        elems.append(r)
                        fresh.append(r)
            frontier = fresh
        natural = GSet(
            s3, [3], [[p[i] for i in range(3)] for p in elems]
        ).validate()
        cases = [
            (c2, regular_gset(c2)),
            (c2, fixed_points_gset(c2, 1)),
            (s3, natural),
            (u, gb.terminal_gset(u)),
        ]
        for g, x in cases:
            report = action_groupoid_iso_check(g, x)
            assert report["status"] == "ok", report


def test_criterion_10_structure_iso():
    with criterion(
        10, "connected structure isomorphism is bijective and functorial"
    ):
        for name in ("Pair(3)", "C2xPair(2)", "S3"):
            g = CORPUS[name]
            phi = connected_structure_iso(g, 0)
            assert functor_is_isomorphism(phi), name
            t = phi.target
            mm = phi.morphism_map
            for a in g.morphisms:
                for b in g.morphisms:
                    ab = g.compose_table[a][b]
                    if ab == -1:
                        assert t.compose_table[mm[a]][mm[b]] == -1
                    else:
                        assert t.compose_table[mm[a]][mm[b]] == mm[ab]


def test_criterion_11_cli_determinism(tmp_path, capsys):
    with criterion(11, "every CLI command is byte-identical across repeat runs"):
        paths = {}

        def write(name, obj):
            p = tmp_path / name
            p.write_text(json.dumps(obj))
            paths[name] = str(p)

        write("c2.json", {"group": {"table": cyclic_table(2)}})
        write("s3.json", {"group": {"perm_gens": [[1, 0, 2], [1, 2, 0]]}})
        write(
            "u.json",
            {
                "disjoint_union": [
                    {"group": {"table": cyclic_table(2)}},
                    {"group": {"perm_gens": [[1, 0, 2], [1, 2, 0]]}},
                ]
            },
        )
        write("pr.json", {"product": [{"group": {"table": cyclic_table(2)}}, {"pair": 2}]})
        write("reg.json", {"fibers": {"0": 2}, "action": {"1": [1, 0]}})

        invocations = [
            ["validate", "--groupoid", paths["c2.json"]],
            ["components", "--groupoid", paths["u.json"]],
            ["isotropy", "--groupoid", paths["pr.json"], "--object", "1"],
            ["action-groupoid", "--groupoid", paths["c2.json"], "--gset", paths["reg.json"]],
            ["burnside", "--groupoid", paths["s3.json"]],
            ["hadamard", "--groupoid", paths["c2.json"], "--gset", paths["reg.json"]],
            ["crossed-burnside", "--groupoid", paths["c2.json"], "--weight", "conjugation"],
            ["verify", "axioms", "--groupoid", paths["c2.json"], "--samples", "15", "--seed", "0"],
            ["verify", "embedding", "--groupoid", paths["c2.json"]],
            ["verify", "reduction", "--groupoid", paths["pr.json"], "--object", "0"],
            ["verify", "decomposition", "--groupoid", paths["u.json"]],
            ["verify", "action-groupoid-iso", "--groupoid", paths["c2.json"], "--gset", paths["reg.json"]],
            ["verify", "basis-oracle", "--groupoid", paths["s3.json"]],
        ]
        for argv in invocations:
            code1 = cli_main(list(argv))
            out1 = capsys.readouterr().out
            code2 = cli_main(list(argv))
            out2 = capsys.readouterr().out
            assert code1 == code2 == 0, argv
            assert out1 == out2, argv
