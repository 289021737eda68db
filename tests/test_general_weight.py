"""Crossed sets and rings over a weight that is a genuine monoid, not a
group: the two-element semilattice with trivial action.  Exercises label
multiplication without inverses through validation, classification, the
brute-force oracle, ring construction, the embedding, transport along the
isotropy equivalence, and the reduction and decomposition homs, which a
property test also checks on random small groupoids under the trivial,
conjugation, semilattice and left-zero weights.  The left-zero band is not
commutative, and neither is its crossed Burnside ring: it is built on the
whole product table, where a commutative weight builds half."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import gburnside as gb
from gburnside.classify import MarkTable, brute_force_basis, enumerate_basis
from gburnside.crossed import check_monoidal_axioms, unit_object
from gburnside.gsets import GMonoid, Monoid
from gburnside.rings import (
    RingPresentation,
    connected_reduction_hom,
    crossed_burnside_ring,
    crossed_burnside_ring_by_decomposition,
    decomposition_hom,
    embedding_hom,
    product_ring,
)
from gburnside.sampling import sample_many

from conftest import dense_constants
from oracles import transport_connected, whole_table_verdict


def semilattice(g: gb.FiniteGroupoid) -> GMonoid:
    # join semilattice on {1, a}: a * a = a; the only bijective
    # unit-preserving endomorphism is the identity, so every morphism acts
    # trivially
    return GMonoid(
        g,
        [Monoid([[0, 1], [1, 1]], 0) for _ in g.objects],
        [[0, 1] for _ in g.morphisms],
    ).validate()


def left_zero(g: gb.FiniteGroupoid) -> GMonoid:
    # the left-zero band {a, b} with a unit 1 adjoined: x * y = x for x != 1,
    # so a * b = a but b * a = b; every morphism acts trivially
    return GMonoid(
        g,
        [Monoid([[0, 1, 2], [1, 1, 1], [2, 2, 2]], 0) for _ in g.objects],
        [[0, 1, 2] for _ in g.morphisms],
    ).validate()


@pytest.fixture
def semilattice_weight(c2) -> GMonoid:
    return semilattice(c2)


def test_weight_validates(semilattice_weight):
    assert semilattice_weight.monoids[0].table[1][1] == 1


def test_swap_action_rejected(c2):
    with pytest.raises(gb.errors.NotNatural):
        GMonoid(
            c2,
            [Monoid([[0, 1], [1, 1]], 0)],
            [[0, 1], [1, 0]],
        ).validate()


def test_basis_and_oracle_agree(c2, semilattice_weight):
    catalog = enumerate_basis(c2, semilattice_weight)
    assert catalog.dim == 4
    pairs = [
        (sorted(e.standard_pair[0]), e.standard_pair[1]) for e in catalog.entries
    ]
    assert pairs == [([0], 0), ([0], 1), ([0, 1], 0), ([0, 1], 1)]
    brute = brute_force_basis(c2, semilattice_weight)
    assert len(brute) == 4


def test_ring_has_idempotent_label_class(c2, semilattice_weight):
    ring = crossed_burnside_ring(c2, semilattice_weight)
    assert ring.dim == 4
    assert ring.unit_vector == [0, 0, 1, 0]
    # the a-labeled point is idempotent: a * a = a, unlike any group label
    c = dense_constants(ring)
    assert c[3][3] == [0, 0, 0, 1]
    assert c[2][3] == [0, 0, 0, 1]


def test_embedding_still_injective(c2, semilattice_weight):
    hom = embedding_hom(c2, semilattice_weight)
    assert hom.verified["unital"]
    assert hom.verified["multiplicative"]
    assert hom.verified["injective"]


def test_axioms_hold_without_braiding(c2, semilattice_weight):
    samples = sample_many(c2, semilattice_weight, 40, seed=0)
    report = check_monoidal_axioms(samples)
    assert {r["axiom"] for r in report} == {"pentagon", "triangle", "distributivity"}
    assert all(r["status"] == "ok" for r in report)


def test_transport_round_trips_over_semilattice_weight(corpus):
    g = corpus["C2xPair(2)"]
    weight = semilattice(g)
    for z in g.objects:
        for entry in enumerate_basis(g, weight).entries:
            data = transport_connected(entry.crossed, z)
            assert data.restricted.weight == semilattice(gb.isotropy_group(g, z)[0])
            assert data.round_trip_iso.is_isomorphism()
        data = transport_connected(unit_object(g, weight), z)
        assert data.induced == unit_object(g, weight)


@pytest.fixture
def product_calls(monkeypatch) -> list:
    """Records (i, j) for every ``MarkTable.product`` call."""
    calls = []
    product = MarkTable.product

    def counted(self, i, j, combine):
        calls.append((i, j))
        return product(self, i, j, combine)

    monkeypatch.setattr(MarkTable, "product", counted)
    return calls


@pytest.mark.parametrize("name", ["trivial", "C2", "Pair(2)"])
def test_left_zero_ring_is_built_on_the_whole_table(corpus, name, product_calls):
    g = corpus[name]
    ring = crossed_burnside_ring(g, left_zero(g))
    d, rows = ring.dim, ring.structure_constants
    assert len(product_calls) == d * d
    assert any(rows[i][j] != rows[j][i] for i in range(d) for j in range(i))
    if name == "C2":
        assert d == 6 and rows[1][2] != rows[2][1]
    ref = crossed_burnside_ring_by_decomposition(g, left_zero(g))
    assert (rows, ring.unit_vector, ring.basis_info) == (
        ref.structure_constants, ref.unit_vector, ref.basis_info
    )


def test_left_zero_ring_of_two_components_is_built_by_blocks(corpus, product_calls):
    # not commutative: every pair (i, j) inside one component, in both
    # orders, and no pair across two, whose tensor is empty
    g = corpus["C2+S3"]
    ring = crossed_burnside_ring(g, left_zero(g))
    d, reps = ring.dim, [e.component_rep for e in ring.basis.entries]
    assert sorted(product_calls) == [
        (i, j) for i in range(d) for j in range(d) if reps[i] == reps[j]
    ]
    assert ring._blocks == reps
    ref = crossed_burnside_ring_by_decomposition(g, left_zero(g))
    assert (ring.structure_constants, ring.unit_vector) == (ref.structure_constants, ref.unit_vector)


def test_left_zero_ring_validates_on_both_packed_tables(c2, lincomb_calls):
    # associative but not commutative: the check builds e_i p and p e_k
    # separately
    ring = crossed_burnside_ring(c2, left_zero(c2))
    rows = [list(row) for row in ring.structure_constants]
    lincomb_calls.clear()
    RingPresentation(ring.dim, rows, list(ring.unit_vector)).validate()
    assert len(lincomb_calls) == 2 * len({r for row in rows for r in row})


def test_product_with_a_left_zero_block_is_built_on_the_whole_table(c2):
    # one block is not commutative, so neither is the product: row (j, i) is
    # its block's own row moved, not the mirror of row (i, j)
    blocks = [crossed_burnside_ring(c2, gb.conjugation_action(c2)), crossed_burnside_ring(c2, left_zero(c2))]
    prod = product_ring(blocks)
    o, rows = blocks[0].dim, prod.structure_constants
    for i, j in [(1, 2), (2, 1)]:
        assert rows[o + i][o + j] == tuple((o + k, v) for k, v in blocks[1].structure_constants[i][j])
    assert rows[o + 1][o + 2] != rows[o + 2][o + 1]
    assert whole_table_verdict(prod) is None


@pytest.mark.parametrize("weight", ["conjugation", "trivial"])
def test_commutative_weight_builds_half_the_table(corpus, weight, product_calls):
    make = gb.conjugation_action if weight == "conjugation" else gb.trivial_gmonoid
    for name, g in corpus.items():
        product_calls.clear()
        ring = crossed_burnside_ring(g, make(g))
        d = ring.dim
        reps = [e.component_rep for e in ring.basis.entries]
        # only the pairs i <= j inside one component: across two, the tensor is empty
        assert sorted(product_calls) == [
            (i, j) for i in range(d) for j in range(i, d) if reps[i] == reps[j]
        ], name


WEIGHTS = {
    "trivial": gb.trivial_gmonoid,
    "conjugation": gb.conjugation_action,
    "semilattice": semilattice,
    "left-zero": left_zero,
}

# generators of C1, C2, C3 and S3 on three points
GROUP_GENS = [[[0, 1, 2]], [[1, 0, 2]], [[1, 2, 0]], [[1, 0, 2], [1, 2, 0]]]


@st.composite
def small_groupoids(draw):
    """A small permutation group times Pair(n), or a disjoint union of two
    such groupoids."""
    def piece():
        group = gb.from_group(gb.group_table_from_perm_gens(draw(st.sampled_from(GROUP_GENS))))
        n = draw(st.integers(1, 2))
        return group if n == 1 else gb.direct_product(group, gb.pair_groupoid(n))

    if draw(st.booleans()):
        return piece()
    return gb.disjoint_union([piece(), piece()])[0]


def test_homs_over_semilattice_weight(corpus):
    for name in ("C2xPair(2)", "C2+S3", "(C2xPair(2))+C3"):
        g = corpus[name]
        homs = [decomposition_hom(g, semilattice(g))]
        if gb.is_connected(g):
            homs.append(connected_reduction_hom(g, semilattice(g), g.n_objects - 1))
        for hom in homs:
            assert hom.source.dim == hom.target.dim >= 4, name
            assert all(hom.verified[k] for k in ("unital", "multiplicative", "bijective"))


@settings(max_examples=25, deadline=None)
@given(g=small_groupoids(), weight=st.sampled_from(sorted(WEIGHTS)), data=st.data())
def test_reduction_and_decomposition_verify(g, weight, data):
    w = WEIGHTS[weight](g)
    homs = [decomposition_hom(g, w)]
    if gb.is_connected(g):
        z = data.draw(st.sampled_from(list(g.objects)))
        homs.append(connected_reduction_hom(g, w, z))
    for hom in homs:
        assert hom.source.dim == hom.target.dim
        assert all(hom.verified[k] for k in ("unital", "multiplicative", "bijective"))
