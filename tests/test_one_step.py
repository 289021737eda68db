"""Components and orbits are one-step images, and a table row whose -1
entries are accounted for is walked on its composable pairs only.

``connected_components``, ``orbit_decomposition`` and ``is_transitive``
are compared with a breadth-first closure that assumes nothing of its
pairs (``oracles.closure_classes``), and every table mutant must fail
``validate_groupoid`` with the first witness of a scan of all |M|^2
entries (``oracles.first_table_fault``)."""

from __future__ import annotations

import pytest

import gburnside as gb
from gburnside.crossed import tensor
from gburnside.errors import AllFibersEmpty, DomCodMismatch, GBError, MissingIdentity
from gburnside.groupoid import SENTINEL, FiniteGroupoid
from gburnside.gsets import GSet
from gburnside.sampling import sample_many

from conftest import build_corpus, editable_tables, regular_gset
from oracles import closure_components, closure_orbits, first_table_fault

CORPUS = build_corpus()
SMALL = ["C2", "S3", "Pair(2)", "C2+S3"]
ACTED_ON = ["S3", "Pair(3)", "C2xPair(2)", "C2+S3", "(C2xPair(2))+C3"]


def _groupoids() -> dict[str, gb.FiniteGroupoid]:
    """The corpus, the products of its small members, a union of four
    parts, and the action groupoids of the conjugation and the regular
    G-sets."""
    out = dict(CORPUS)
    for a in SMALL:
        for b in SMALL:
            out[f"{a} x {b}"] = gb.direct_product(CORPUS[a], CORPUS[b])
    parts = [CORPUS["Pair(2)"], CORPUS["C3"], CORPUS["Pair(1)"], CORPUS["C2xPair(2)"]]
    out["Pair(2)+C3+Pair(1)+C2xPair(2)"] = gb.disjoint_union(parts)[0]
    for name in ACTED_ON:
        g = CORPUS[name]
        conj = gb.conjugation_action(g).underlying()
        out[f"{name} by conjugation"] = gb.action_groupoid(g, conj).groupoid
        out[f"{name} regular"] = gb.action_groupoid(g, regular_gset(g)).groupoid
    return out


def _emptied(x: GSet, objects: set[int]) -> GSet:
    """x with empty fibers at the given objects, a union of components."""
    g = x.base
    sizes = [0 if o in objects else n for o, n in enumerate(x.sizes)]
    action = [[] if g.dom[m] in objects else a for m, a in enumerate(x.action)]
    return GSet(g, sizes, action).validate()


def _gsets() -> dict[str, GSet]:
    """Sampled carriers, tensor products, products, coproducts, the
    conjugation and regular G-sets, and G-sets with empty fibers."""
    out = {}
    for name in ACTED_ON + ["Pair(2)", "C2"]:
        g = CORPUS[name]
        weight = gb.conjugation_action(g)
        conj = weight.underlying()
        samples = [c.carrier for c in sample_many(g, weight, 4, seed=7)]
        out[f"{name} conjugation"] = conj
        out[f"{name} regular"] = regular_gset(g)
        for k, y in enumerate(samples):
            out[f"{name} sample {k}"] = y
        pair = sample_many(g, weight, 2, seed=8)
        out[f"{name} tensor"] = tensor(pair[0], pair[1]).carrier
        out[f"{name} product"] = gb.gset_product(conj, samples[0])
        out[f"{name} coproduct"] = gb.gset_coproduct(samples[1], regular_gset(g))
        out[f"{name} empty"] = gb.empty_gset(g)
        comps = gb.connected_components(g).classes
        if len(comps) > 1:
            out[f"{name} conjugation, first component empty"] = _emptied(conj, set(comps[0]))
            out[f"{name} regular, last component empty"] = _emptied(regular_gset(g), set(comps[-1]))
    return out


GROUPOIDS = _groupoids()
GSETS = _gsets()


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_components_are_the_closure(name):
    g = GROUPOIDS[name]
    classes = closure_components(g)
    comps = gb.connected_components(g)
    assert comps.classes == classes
    assert comps.representatives == [c[0] for c in classes]
    assert gb.is_connected(g) == (len(classes) == 1)


@pytest.mark.parametrize("name", sorted(GSETS))
def test_orbits_are_the_closure(name):
    x = GSETS[name]
    g = x.base
    orbits = closure_orbits(x)
    pieces = gb.orbit_decomposition(g, x)
    assert [embed.components for _, embed in pieces] == orbits
    for piece, embed in pieces:
        piece.validate()
        embed.validate()
        assert gb.is_transitive(g, piece)
    if x.total_size == 0:
        with pytest.raises(AllFibersEmpty):
            gb.is_transitive(g, x)
    else:
        assert gb.is_transitive(g, x) == (len(orbits) == 1)


def test_the_inputs_cover_several_orbits_and_empty_fibers():
    assert any(len(closure_orbits(x)) > 2 for x in GSETS.values())
    assert any(0 in x.sizes and x.total_size > 0 for x in GSETS.values())
    assert any(len(closure_components(g)) > 2 for g in GROUPOIDS.values())


# -- the row walk of validate_groupoid ----------------------------------------

WALKED = ["Pair(2)", "Pair(3)", "C2xPair(2)", "C2+S3", "(C2xPair(2))+C3"]


def _mutant(g: FiniteGroupoid, entries: dict[tuple[int, int], int]) -> FiniteGroupoid:
    tables = editable_tables(g)
    for (gg, f), value in entries.items():
        tables["compose_table"][gg][f] = value
    return FiniteGroupoid(g.n_objects, **tables)


def _faults(g: FiniteGroupoid, gg: int, f: int):
    """Values that make the composable entry (gg, f) missing, out of range
    and, where some morphism has other ends, inconsistent."""
    yield SENTINEL
    yield g.n_morphisms + 2
    other = [h for h in g.morphisms if g.dom[h] != g.dom[f] or g.cod[h] != g.cod[gg]]
    yield from other[:1]


def _two_fault_rows(g: FiniteGroupoid):
    """Mutants with a faulty composable entry in one row and a spurious
    entry on a non-composable pair of that row, before it and after it."""
    for gg in g.morphisms:
        pairs = g.by_cod(g.dom[gg])
        others = [s for s in g.morphisms if s not in pairs]
        for f in pairs:
            before = [s for s in others if s < f][:1]
            after = [s for s in others if s > f][-1:]
            for s in before + after:
                for value in _faults(g, gg, f):
                    yield _mutant(g, {(gg, f): value, (gg, s): f})


@pytest.mark.parametrize("name", WALKED)
def test_two_faults_in_a_row_name_the_full_scan_witness(name):
    g = CORPUS[name]
    count = 0
    for mutant in _two_fault_rows(g):
        witness = first_table_fault(mutant)
        assert witness is not None
        with pytest.raises(DomCodMismatch) as err:
            gb.validate_groupoid(mutant)
        assert str(err.value) == witness
        count += 1
    assert count > 0


@pytest.mark.parametrize("name", WALKED)
def test_every_single_entry_is_checked(name):
    # a value that keeps the table's ends right still breaks a group law,
    # so every single-entry mutant is refused
    g = CORPUS[name]
    for gg in g.morphisms:
        for f in g.morphisms:
            for value in range(SENTINEL, g.n_morphisms + 1):
                if value == g.compose_table[gg][f]:
                    continue
                mutant = _mutant(g, {(gg, f): value})
                witness = first_table_fault(mutant)
                with pytest.raises(DomCodMismatch if witness else GBError) as err:
                    gb.validate_groupoid(mutant)
                if witness:
                    assert str(err.value) == witness


def test_an_unbounded_object_count_builds_nothing_per_object(monkeypatch):
    # the object count is input: until the identity list is checked, no
    # list per object may be made, so a huge count is refused at once
    def no_buckets(self, ends):
        raise AssertionError("a list per object was built")

    monkeypatch.setattr(FiniteGroupoid, "_bucket", no_buckets)
    g = FiniteGroupoid(10**9, [0], [0], [[0]], [0], [0])
    with pytest.raises(MissingIdentity, match="identity list"):
        gb.validate_groupoid(g)
