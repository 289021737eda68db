"""Ring presentations, ring arithmetic, and the theorem witnesses."""

from __future__ import annotations

import copy
import itertools

import pytest

import gburnside as gb
from gburnside.errors import NotConnected, NotNatural, RingMismatch
from gburnside.rings import (
    RingElement,
    RingPresentation,
    action_groupoid_iso_check,
    burnside_ring,
    connected_reduction_hom,
    crossed_burnside_ring,
    decomposition_hom,
    embedding_hom,
    hadamard_ring,
    product_ring,
    ring_add,
    ring_eq,
    ring_mul,
    _int_det,
)
from gburnside.gsets import GSet

from conftest import cyclic_table, fixed_points_gset, regular_gset


@pytest.fixture(scope="module")
def b_c2(c2):
    return burnside_ring(c2)


@pytest.fixture(scope="module")
def bc_c2(c2):
    return crossed_burnside_ring(c2, gb.conjugation_action(c2))


@pytest.fixture
def s3_natural(s3, s3_perms) -> GSet:
    return GSet(
        s3, [[0, 1, 2]], [[p[i] for i in range(3)] for p in s3_perms]
    ).validate()


class TestPresentationValidation:
    def test_negative_constant_rejected(self, b_c2):
        bad = RingPresentation(
            b_c2.dim,
            copy.deepcopy(b_c2.structure_constants),
            list(b_c2.unit_vector),
        )
        bad.structure_constants[0][0][1] = -1
        with pytest.raises(NotNatural):
            bad.validate()

    def test_broken_unit_rejected(self, b_c2):
        bad = RingPresentation(
            b_c2.dim,
            copy.deepcopy(b_c2.structure_constants),
            [1, 1],
        )
        with pytest.raises(NotNatural):
            bad.validate()

    def test_broken_associativity_rejected(self, bc_c2):
        bad = RingPresentation(
            bc_c2.dim,
            copy.deepcopy(bc_c2.structure_constants),
            list(bc_c2.unit_vector),
        )
        bad.structure_constants[0][1][0] += 1
        with pytest.raises(NotNatural):
            bad.validate()


class TestBurnsideRing:
    def test_trivial_group_is_z(self):
        ring = burnside_ring(gb.from_group(cyclic_table(1)))
        assert ring.dim == 1
        assert ring.structure_constants == [[[1]]]
        assert ring.unit_vector == [1]

    def test_c2_table(self, b_c2):
        assert b_c2.dim == 2
        # basis order: [C2/1], [C2/C2]
        assert b_c2.structure_constants[0][0] == [2, 0]
        assert b_c2.structure_constants[0][1] == [1, 0]
        assert b_c2.structure_constants[1][1] == [0, 1]
        assert b_c2.unit_vector == [0, 1]

    def test_s3_dim(self, s3):
        assert burnside_ring(s3).dim == 4

    def test_matches_trivially_weighted_crossed_ring(self, corpus):
        for name in ("C2", "S3", "C2xPair(2)", "C2+S3"):
            g = corpus[name]
            plain = burnside_ring(g)
            crossed = crossed_burnside_ring(g, gb.trivial_gmonoid(g))
            assert plain.dim == crossed.dim
            assert plain.structure_constants == crossed.structure_constants
            assert plain.unit_vector == crossed.unit_vector


class TestCrossedBurnsideRing:
    def test_trivial_group(self):
        ring = crossed_burnside_ring(
            gb.from_group(cyclic_table(1)),
            gb.conjugation_action(gb.from_group(cyclic_table(1))),
        )
        assert ring.dim == 1

    def test_c2_sample_relation(self, bc_c2):
        assert bc_c2.dim == 4
        # [C2, sigma] * [C2, sigma] = [C2, e]
        assert bc_c2.structure_constants[3][3] == [0, 0, 1, 0]

    def test_c2_plus_c3_dim(self, c2, c3):
        u, _ = gb.disjoint_union([c2, c3])
        ring = crossed_burnside_ring(u, gb.conjugation_action(u))
        assert ring.dim == 10

    def test_commutative_for_conjugation(self, corpus):
        for name in ("C2", "C3", "S3", "C2xPair(2)"):
            g = corpus[name]
            ring = crossed_burnside_ring(g, gb.conjugation_action(g))
            d = ring.dim
            for i, j, k in itertools.product(range(d), repeat=3):
                assert (
                    ring.structure_constants[i][j][k]
                    == ring.structure_constants[j][i][k]
                )

    def test_dim_additivity_over_components(self, corpus):
        g = corpus["(C2xPair(2))+C3"]
        total = crossed_burnside_ring(g, gb.conjugation_action(g)).dim
        parts = 0
        for rep in gb.connected_components(g).representatives:
            iso, _ = gb.isotropy_group(g, rep)
            parts += crossed_burnside_ring(iso, gb.conjugation_action(iso)).dim
        assert total == parts == 10


class TestRingArithmetic:
    def test_add_zero(self, b_c2):
        a = b_c2.element([3, 1])
        zero = b_c2.element([0, 0])
        assert ring_eq(ring_add(a, zero), a)

    def test_unit_multiplication(self, bc_c2):
        a = bc_c2.element([1, 2, 3, 4])
        assert ring_eq(ring_mul(bc_c2.unit(), a), a)
        assert ring_eq(ring_mul(a, bc_c2.unit()), a)

    def test_square_of_sum_in_b_c2(self, b_c2):
        total = b_c2.element([1, 1])  # [C2/1] + [C2/C2]
        square = ring_mul(total, total)
        assert square.coords == [4, 1]

    def test_ring_mismatch(self, b_c2, bc_c2):
        with pytest.raises(RingMismatch):
            ring_add(b_c2.element([1, 0]), bc_c2.element([1, 0, 0, 0]))

    def test_wrong_length(self, b_c2):
        with pytest.raises(RingMismatch):
            RingElement(b_c2, [1, 2, 3])


class TestEmbedding:
    def test_trivial_group_identity(self):
        g = gb.from_group(cyclic_table(1))
        hom = embedding_hom(g, gb.conjugation_action(g))
        assert hom.matrix == [[1]]
        assert hom.verified["injective"]

    def test_c2_column_targets(self, c2):
        hom = embedding_hom(c2, gb.conjugation_action(c2))
        # [C2/1] -> (1, e) class at index 0; [C2/C2] -> (C2, e) at index 2
        cols = [[hom.matrix[r][c] for r in range(4)] for c in range(2)]
        assert cols == [[1, 0, 0, 0], [0, 0, 1, 0]]
        assert hom.verified["unital"] and hom.verified["multiplicative"]

    def test_s3_hits_unit_labeled_classes(self, s3):
        hom = embedding_hom(s3, gb.conjugation_action(s3))
        crossed = hom.target
        for c in range(hom.source.dim):
            col = [hom.matrix[r][c] for r in range(hom.target.dim)]
            assert sum(col) == 1
            target_entry = crossed.basis.entries[col.index(1)]
            rep = target_entry.component_rep
            assert target_entry.standard_pair[1] == gb.conjugation_action(
                s3
            ).unit(rep)
        assert hom.verified["injective"]

    def test_columns_distinct_standard_vectors(self, corpus):
        for name in ("C2", "S3", "C2xPair(2)", "C2+S3"):
            g = corpus[name]
            hom = embedding_hom(g, gb.conjugation_action(g))
            cols = {
                tuple(hom.matrix[r][c] for r in range(hom.target.dim))
                for c in range(hom.source.dim)
            }
            assert len(cols) == hom.source.dim
            for col in cols:
                assert sum(col) == 1 and set(col) <= {0, 1}


class TestHadamard:
    def test_terminal_slice_recovers_burnside(self, s3):
        ring = hadamard_ring(s3, gb.terminal_gset(s3))
        plain = burnside_ring(s3)
        assert ring.dim == plain.dim
        assert ring.structure_constants == plain.structure_constants
        assert ring.unit_vector == plain.unit_vector

    def test_c2_regular_slice(self, c2):
        ring = hadamard_ring(c2, regular_gset(c2))
        assert ring.dim == 1

    def test_s3_natural_slice(self, s3, s3_natural):
        ring = hadamard_ring(s3, s3_natural)
        assert ring.dim == 2

    def test_unit_need_not_be_a_basis_vector(self, c2):
        x = fixed_points_gset(c2, 2)
        ring = hadamard_ring(c2, x)
        assert sum(ring.unit_vector) == 2  # (X, id) splits into two pieces


class TestReduction:
    def test_one_object_is_identity(self, s3):
        hom = connected_reduction_hom(s3, 0)
        assert hom.matrix == [
            [1 if i == j else 0 for j in range(hom.source.dim)]
            for i in range(hom.target.dim)
        ]
        assert hom.verified["bijective"]

    @pytest.mark.parametrize("name,z", [("C2xPair(2)", 0), ("C2xPair(2)", 1)])
    def test_c2_pair2(self, corpus, name, z):
        hom = connected_reduction_hom(corpus[name], z)
        assert hom.source.dim == hom.target.dim == 4
        assert all(hom.verified[k] for k in ("unital", "multiplicative", "bijective"))

    def test_pair4_reduces_to_z(self, corpus):
        hom = connected_reduction_hom(corpus["Pair(4)"], 2)
        assert hom.source.dim == hom.target.dim == 1
        assert hom.matrix == [[1]]

    def test_not_connected(self, corpus):
        with pytest.raises(NotConnected):
            connected_reduction_hom(corpus["C2+S3"], 0)


class TestDecomposition:
    def test_connected_case(self, s3):
        hom = decomposition_hom(s3)
        assert hom.source.dim == hom.target.dim == 8
        assert all(hom.verified[k] for k in ("unital", "multiplicative", "bijective"))

    def test_c2_plus_s3(self, corpus):
        hom = decomposition_hom(corpus["C2+S3"])
        assert hom.source.dim == 12
        assert hom.target.dim == 12
        assert [b["block"] for b in hom.target.basis_info].count(0) == 4
        assert [b["block"] for b in hom.target.basis_info].count(1) == 8
        assert all(hom.verified[k] for k in ("unital", "multiplicative", "bijective"))

    def test_mixed_components(self, corpus):
        hom = decomposition_hom(corpus["(C2xPair(2))+C3"])
        assert hom.source.dim == 10
        assert all(hom.verified[k] for k in ("unital", "multiplicative", "bijective"))

    def test_product_ring_blocks(self, b_c2):
        prod = product_ring([b_c2, b_c2])
        assert prod.dim == 4
        assert prod.unit_vector == [0, 1, 0, 1]
        assert prod.structure_constants[0][2] == [0, 0, 0, 0]


class TestActionGroupoidIso:
    def test_c2_regular(self, c2):
        report = action_groupoid_iso_check(c2, regular_gset(c2))
        assert report["status"] == "ok"
        assert report["dim_hadamard"] == 1

    def test_c2_fixed_point(self, c2):
        report = action_groupoid_iso_check(c2, fixed_points_gset(c2, 1))
        assert report["status"] == "ok"
        assert report["dim_hadamard"] == 2

    def test_s3_natural(self, s3, s3_natural):
        report = action_groupoid_iso_check(s3, s3_natural)
        assert report["status"] == "ok"
        assert report["dim_hadamard"] == 2

    def test_union_terminal(self, c2, c3):
        u, _ = gb.disjoint_union([c2, c3])
        report = action_groupoid_iso_check(u, gb.terminal_gset(u))
        assert report["status"] == "ok"
        assert report["dim_hadamard"] == 4

    @pytest.mark.parametrize(
        "gens, dim",
        [
            ([[1, 2, 3, 0], [0, 3, 2, 1]], 29),  # D4
            ([[1, 2, 0, 3], [0, 2, 3, 1]], 14),  # A4
        ],
    )
    def test_conjugation_gset(self, gens, dim):
        g = gb.from_group(gb.group_table_from_perm_gens(gens))
        report = action_groupoid_iso_check(g, gb.conjugation_action(g).underlying())
        assert report["status"] == "ok"
        assert report["dim_hadamard"] == report["dim_action_groupoid_burnside"] == dim
        assert sorted(report["bijection"]) == list(range(dim))


class TestIntDet:
    def test_known_values(self):
        assert _int_det([[2, 0], [0, 3]]) == 6
        assert _int_det([[0, 1], [1, 0]]) == -1
        assert _int_det([[1, 2], [2, 4]]) == 0
        assert _int_det([[2, 3, 1], [4, 1, 3], [1, 5, 2]]) == -22
