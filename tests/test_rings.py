"""Ring presentations, ring arithmetic, and the theorem witnesses."""

from __future__ import annotations

import copy
import itertools
import json
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

import gburnside as gb
from gburnside import rings
from gburnside.cli import main
from gburnside.crossed import restrict
from gburnside.errors import NotConnected, NotNatural, RingMismatch, UnknownObject
from gburnside.rings import (
    RingHom,
    RingPresentation,
    action_groupoid_iso_check,
    burnside_ring,
    connected_reduction_hom,
    crossed_burnside_ring,
    decomposition_hom,
    embedding_hom,
    hadamard_ring,
    product_ring,
    _int_det,
    _combine,
)
from gburnside.classify import subgroup_closure
from gburnside.gsets import GSet
from gburnside.serialize import parse_gset
from gburnside.sampling import sample_many

from conftest import (
    cyclic_table,
    d4_table,
    dense_constants,
    fixed_points_gset,
    regular_gset,
    s3_table,
    sparse_rows,
)
from oracles import (
    RingElement,
    closure_components,
    closure_orbits,
    pushforward_matrix,
    ring_add,
    ring_eq,
    ring_mul,
    ring_unit,
    whole_table_verdict,
)


@pytest.fixture(scope="module")
def b_c2(c2):
    return burnside_ring(c2)


@pytest.fixture(scope="module")
def bc_c2(c2):
    return crossed_burnside_ring(c2, gb.conjugation_action(c2))


@pytest.fixture
def scans(monkeypatch) -> list[str]:
    """The name of every ``FiniteGroupoid.by_dom`` and ``hom`` call."""
    calls = []
    for name in ("by_dom", "hom"):
        def counted(self, *args, _name=name, _original=getattr(gb.FiniteGroupoid, name)):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(gb.FiniteGroupoid, name, counted)
    return calls


def conjugation_reduction(g, z):
    return connected_reduction_hom(g, gb.conjugation_action(g), z)


def conjugation_decomposition(g):
    return decomposition_hom(g, gb.conjugation_action(g))


def _c2_s3_d4() -> gb.FiniteGroupoid:
    """A new C2 + S3 + D4, whose kept facts no earlier test has filled."""
    return gb.disjoint_union([gb.from_group(t) for t in (cyclic_table(2), s3_table(), d4_table())])[0]


@pytest.fixture
def s3_natural(s3, s3_perms) -> GSet:
    return GSet(
        s3, [3], [[p[i] for i in range(3)] for p in s3_perms]
    ).validate()


class TestPresentationValidation:
    def test_negative_constant_rejected(self, b_c2):
        c = dense_constants(b_c2)
        c[0][0][1] = -1
        bad = RingPresentation(b_c2.dim, sparse_rows(c), list(b_c2.unit_vector))
        with pytest.raises(NotNatural):
            bad.validate()

    @pytest.mark.parametrize(
        "row, message",
        [
            (((0, 1), (1, 0)), "structure constants at (0, 1) are not a sparse row"),
            (((1, 1), (0, 1)), "structure constants at (0, 1) are not a sparse row"),
            (((0, 1), (0, 1)), "structure constants at (0, 1) are not a sparse row"),
            (((0, 1), (2, 1)), "structure constants at (0, 1) are not a sparse row"),
            (((0, 1), (1, -1)), "negative structure constant at (0, 1, 1)"),
        ],
        ids=["zero", "descending", "duplicate", "key-beyond-dim", "negative"],
    )
    def test_malformed_row_rejected(self, b_c2, row, message):
        bad = RingPresentation(
            b_c2.dim, copy.deepcopy(b_c2.structure_constants), list(b_c2.unit_vector)
        )
        bad.structure_constants[0][1] = row
        with pytest.raises(NotNatural, match=re.escape(message)):
            bad.validate()

    @pytest.mark.parametrize(
        "rows, unit, message",
        [
            ([[((0, 1),), ()]], [1], "structure constants are not a dim x dim table of rows"),
            ([[((0, 1),)]], [1, 0], "unit vector has wrong length"),
        ],
        ids=["table-shape", "unit-length"],
    )
    def test_malformed_shape_rejected(self, rows, unit, message):
        with pytest.raises(NotNatural) as refused:
            RingPresentation(1, rows, unit).validate()
        assert str(refused.value) == message

    def test_broken_unit_rejected(self, b_c2):
        bad = RingPresentation(
            b_c2.dim,
            copy.deepcopy(b_c2.structure_constants),
            [1, 1],
        )
        with pytest.raises(NotNatural):
            bad.validate()

    def test_broken_associativity_rejected(self, bc_c2):
        c = dense_constants(bc_c2)
        c[0][1][0] += 1
        bad = RingPresentation(bc_c2.dim, sparse_rows(c), list(bc_c2.unit_vector))
        with pytest.raises(NotNatural):
            bad.validate()


class TestBurnsideRing:
    def test_trivial_group_is_z(self):
        ring = burnside_ring(gb.from_group(cyclic_table(1)))
        assert ring.dim == 1
        assert dense_constants(ring) == [[[1]]]
        assert ring.unit_vector == [1]

    def test_c2_table(self, b_c2):
        assert b_c2.dim == 2
        # basis order: [C2/1], [C2/C2]
        c = dense_constants(b_c2)
        assert c[0][0] == [2, 0]
        assert c[0][1] == [1, 0]
        assert c[1][1] == [0, 1]
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
        assert dense_constants(bc_c2)[3][3] == [0, 0, 1, 0]

    def test_c2_plus_c3_dim(self, c2, c3):
        u, _ = gb.disjoint_union([c2, c3])
        ring = crossed_burnside_ring(u, gb.conjugation_action(u))
        assert ring.dim == 10

    def test_commutative_for_conjugation(self, corpus):
        for name in ("C2", "C3", "S3", "C2xPair(2)"):
            g = corpus[name]
            ring = crossed_burnside_ring(g, gb.conjugation_action(g))
            d, c = ring.dim, dense_constants(ring)
            for i, j, k in itertools.product(range(d), repeat=3):
                assert c[i][j][k] == c[j][i][k]

    def test_dim_additivity_over_components(self, corpus):
        g = corpus["(C2xPair(2))+C3"]
        total = crossed_burnside_ring(g, gb.conjugation_action(g)).dim
        parts = 0
        for rep in gb.connected_components(g).representatives:
            iso, _ = gb.isotropy_group(g, rep)
            parts += crossed_burnside_ring(iso, gb.conjugation_action(iso)).dim
        assert total == parts == 10

    def test_equal_product_rows_are_one_object(self, corpus):
        """A ring's table holds each distinct product row once, so that its
        report renders each distinct row once."""
        g = corpus["D4"]
        ring = crossed_burnside_ring(g, gb.conjugation_action(g))
        rows = [rij for ri in ring.structure_constants for rij in ri]
        assert len({id(r) for r in rows}) == len(set(rows)) < len(rows)


class TestRingArithmetic:
    def test_add_zero(self, b_c2):
        a = RingElement(b_c2, [3, 1])
        zero = RingElement(b_c2, [0, 0])
        assert ring_eq(ring_add(a, zero), a)

    def test_unit_multiplication(self, bc_c2):
        a = RingElement(bc_c2, [1, 2, 3, 4])
        assert ring_eq(ring_mul(ring_unit(bc_c2), a), a)
        assert ring_eq(ring_mul(a, ring_unit(bc_c2)), a)

    def test_square_of_sum_in_b_c2(self, b_c2):
        total = RingElement(b_c2, [1, 1])  # [C2/1] + [C2/C2]
        square = ring_mul(total, total)
        assert square.coords == [4, 1]

    def test_ring_mismatch(self, b_c2, bc_c2):
        with pytest.raises(RingMismatch):
            ring_add(RingElement(b_c2, [1, 0]), RingElement(bc_c2, [1, 0, 0, 0]))

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

    def test_column_summing_to_one_is_not_a_basis_image(self, c2, monkeypatch):
        # (1, 1, -1, 0) has sum 1 and max 1 and is distinct from (1, 0, 0, 0),
        # but it is not a basis element, so the embedding is not injective
        express = gb.classify.MarkTable.express_fiber
        calls = []

        def second_column_corrupted(self, *args):
            calls.append(args)
            return [1, 1, -1, 0] if len(calls) == 2 else express(self, *args)

        monkeypatch.setattr(gb.classify.MarkTable, "express_fiber", second_column_corrupted)
        hom = embedding_hom(c2, gb.conjugation_action(c2))
        assert len(calls) == 2
        assert [list(col) for col in zip(*hom.matrix)] == [[1, 0, 0, 0], [1, 1, -1, 0]]
        assert hom.verified["injective"] is False


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

    @pytest.mark.parametrize("build", [hadamard_ring, rings.hadamard_ring_by_decomposition])
    def test_gmonoid_target_is_a_ring_mismatch(self, c2, build):
        # a G-monoid is not a G-set: the slice is over its underlying() G-set
        conj = gb.conjugation_action(c2)
        with pytest.raises(RingMismatch, match="over a G-set"):
            build(c2, conj)
        assert build(c2, conj.underlying()).dim == 4

    def test_gset_over_another_groupoid_is_a_ring_mismatch(self, c2, c3):
        with pytest.raises(RingMismatch) as refused:
            hadamard_ring(c3, gb.terminal_gset(c2))
        assert str(refused.value) == "G-set does not live over this groupoid"

    def test_unit_need_not_be_a_basis_vector(self, c2):
        x = fixed_points_gset(c2, 2)
        ring = hadamard_ring(c2, x)
        assert sum(ring.unit_vector) == 2  # (X, id) splits into two pieces

    @pytest.mark.parametrize(
        "gens",
        [[[1, 0, 2], [1, 2, 0]], [[1, 2, 0, 3], [0, 2, 3, 1]]],  # S3, A4
        ids=["S3", "A4"],
    )
    @pytest.mark.parametrize("over", ["conjugation", "regular"])
    def test_identity_not_least_loop(self, gens, over):
        table = gb.group_table_from_perm_gens(gens)
        n = len(table)
        new_id = [(a + 1) % n for a in range(n)]  # the identity 0 becomes 1
        old_id = sorted(range(n), key=new_id.__getitem__)
        renumbered = [
            [new_id[table[old_id[a]][old_id[b]]] for b in range(n)] for a in range(n)
        ]
        standard, g = gb.from_group(table), gb.from_group(renumbered)
        assert g.identity[0] != min(g.loops(0))

        def target(h):
            if over == "conjugation":
                return gb.conjugation_action(h).underlying()
            return regular_gset(h)

        ring, ref = hadamard_ring(g, target(g)), hadamard_ring(standard, target(standard))
        assert ring.dim == ref.dim
        assert sorted(ring.unit_vector) == sorted(ref.unit_vector)
        assert action_groupoid_iso_check(g, target(g))["status"] == "ok"


class TestReduction:
    def test_one_object_is_identity(self, s3):
        hom = conjugation_reduction(s3, 0)
        assert hom.matrix == [
            [1 if i == j else 0 for j in range(hom.source.dim)]
            for i in range(hom.target.dim)
        ]
        assert hom.verified["bijective"]

    @pytest.mark.parametrize("name,z", [("C2xPair(2)", 0), ("C2xPair(2)", 1)])
    def test_c2_pair2(self, corpus, name, z):
        hom = conjugation_reduction(corpus[name], z)
        assert hom.source.dim == hom.target.dim == 4
        assert all(hom.verified[k] for k in ("unital", "multiplicative", "bijective"))

    def test_pair4_reduces_to_z(self, corpus):
        hom = conjugation_reduction(corpus["Pair(4)"], 2)
        assert hom.source.dim == hom.target.dim == 1
        assert hom.matrix == [[1]]

    def test_not_connected(self, corpus):
        with pytest.raises(NotConnected):
            conjugation_reduction(corpus["C2+S3"], 0)

    def test_unknown_object_is_refused_before_any_ring(self, corpus, tmp_path, capsys, monkeypatch):
        built = TestDecomposition.count_crossed_rings(monkeypatch)
        with pytest.raises(UnknownObject, match=r"object 7 not in 0\.\.1"):
            conjugation_reduction(corpus["C2xPair(2)"], 7)
        assert built == []
        path = tmp_path / "c2_pair2.json"
        c2_pair2 = {"product": [{"group": {"table": cyclic_table(2)}}, {"pair": 2}]}
        path.write_text(json.dumps(c2_pair2))
        argv = ["verify", "reduction", "--object", "7", "--weight", "conjugation",
                "--groupoid", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "input error: UnknownObject: object 7 not in 0..1\n"
        assert built == []
        with pytest.raises(NotConnected):  # connectedness is checked first
            conjugation_reduction(corpus["C2+S3"], 7)

    def test_reads_kept_loops_and_transports(self, scans):
        # the loops and transports of each object are scanned out of by_dom
        # once; 28 by_dom and 13 hom calls when every read rescanned it
        g = gb.direct_product(gb.from_group(s3_table()), gb.pair_groupoid(3))
        weight = gb.conjugation_action(g)
        scans.clear()
        connected_reduction_hom(g, weight, 1)
        assert scans.count("by_dom") <= 4
        assert scans.count("hom") <= 1

    def test_one_transport_per_reduction(self, monkeypatch):
        # the transport rep -> z is fixed for the reduction: one lookup for
        # rep, one for t, whatever the number of entries
        calls = []
        original = rings.component_transports

        def counted(g, x):
            calls.append(x)
            return original(g, x)

        monkeypatch.setattr(rings, "component_transports", counted)
        g = gb.direct_product(gb.from_group(s3_table()), gb.pair_groupoid(3))
        hom = conjugation_reduction(g, 1)
        assert hom.source.dim == 8
        assert all(hom.verified[k] for k in ("unital", "multiplicative", "bijective"))
        assert len(calls) == 2

    @pytest.mark.parametrize("name", ["C2", "S3", "D4", "Q8"])
    def test_one_object_builds_one_ring(self, corpus, name, monkeypatch):
        built = TestDecomposition.count_crossed_rings(monkeypatch)
        hom = conjugation_reduction(corpus[name], 0)
        assert built == [corpus[name]]
        assert hom.target is hom.source
        assert all(hom.verified[k] for k in ("unital", "multiplicative", "bijective"))


class TestDecomposition:
    def test_connected_case(self, s3):
        hom = conjugation_decomposition(s3)
        assert hom.source.dim == hom.target.dim == 8
        assert all(hom.verified[k] for k in ("unital", "multiplicative", "bijective"))

    def test_c2_plus_s3(self, corpus):
        hom = conjugation_decomposition(corpus["C2+S3"])
        assert hom.source.dim == 12
        assert hom.target.dim == 12
        assert [b["block"] for b in hom.target.basis_info].count(0) == 4
        assert [b["block"] for b in hom.target.basis_info].count(1) == 8
        assert all(hom.verified[k] for k in ("unital", "multiplicative", "bijective"))

    def test_reads_kept_loops_and_transports(self, scans):
        # 91 by_dom and 42 hom calls when every read rescanned by_dom
        g = _c2_s3_d4()
        weight = gb.conjugation_action(g)
        scans.clear()
        decomposition_hom(g, weight)
        assert scans.count("by_dom") <= 9
        assert scans.count("hom") <= 3

    @staticmethod
    def count_crossed_rings(monkeypatch) -> list:
        """Record the groupoid of every crossed Burnside ring built."""
        built = []
        original = rings.crossed_burnside_ring

        def counted(g, weight):
            built.append(g)
            return original(g, weight)

        monkeypatch.setattr(rings, "crossed_burnside_ring", counted)
        return built

    @pytest.mark.parametrize("name", ["C2", "S3", "D4", "Q8"])
    def test_one_object_builds_one_ring(self, corpus, name, monkeypatch):
        built = self.count_crossed_rings(monkeypatch)
        hom = conjugation_decomposition(corpus[name])
        assert built == [corpus[name]]
        d = hom.source.dim
        assert hom.matrix == [[int(r == c) for c in range(d)] for r in range(d)]
        assert hom.target.structure_constants == hom.source.structure_constants
        assert all(hom.verified[k] for k in ("unital", "multiplicative", "bijective"))

    def test_two_components_build_three_rings(self, corpus, monkeypatch):
        built = self.count_crossed_rings(monkeypatch)
        conjugation_decomposition(corpus["C2+S3"])
        assert len(built) == 3
        assert built[0] is corpus["C2+S3"]
        assert [g.n_morphisms for g in built[1:]] == [2, 6]

    @pytest.mark.parametrize("weight", ["conjugation", "trivial"])
    @pytest.mark.parametrize("name", ["C2+S3+D4", "(C2xPair(2))+C3"])
    def test_product_ring_is_proved_not_checked(self, corpus, name, weight, associativity_keys):
        # the source is checked by its component blocks and each isotropy ring
        # whole; their product is proved from them, so no check runs on it
        g = _c2_s3_d4() if name == "C2+S3+D4" else corpus[name]
        w = gb.conjugation_action(g) if weight == "conjugation" else gb.trivial_gmonoid(g)
        associativity_keys.clear()
        hom = decomposition_hom(g, w)
        components = gb.connected_components(g).count
        assert components > 1 and hom.source._blocks
        assert associativity_keys == [hom.source._blocks] + [None] * components
        assert all(hom.verified[k] for k in ("unital", "multiplicative", "bijective"))

    def test_components_are_built_once_per_groupoid(self, monkeypatch):
        # 9 builds over the 4 groupoids when every call rebuilt them
        built = []
        component_data = gb.groupoid.ComponentData
        monkeypatch.setattr(gb.groupoid, "ComponentData",
                            lambda **kw: built.append(kw) or component_data(**kw))
        g = _c2_s3_d4()
        decomposition_hom(g, gb.conjugation_action(g))
        assert len(built) == 4

    @pytest.mark.parametrize("weight", ["conjugation", "trivial"])
    def test_connected_decomposition_is_the_reduction(self, corpus, weight):
        make = gb.conjugation_action if weight == "conjugation" else gb.trivial_gmonoid
        connected = [(name, g) for name, g in corpus.items() if gb.is_connected(g)]
        assert len(connected) == 11
        for name, g in connected:
            w = make(g)
            hom, red = decomposition_hom(g, w), connected_reduction_hom(g, w, 0)
            assert hom.matrix == red.matrix, name
            assert hom.verified == red.verified, name

    @pytest.mark.parametrize("weight", ["conjugation", "trivial"])
    def test_disconnected_decomposition_is_block_diagonal(self, corpus, weight):
        make = gb.conjugation_action if weight == "conjugation" else gb.trivial_gmonoid
        disconnected = [g for g in corpus.values() if not gb.is_connected(g)]
        assert len(disconnected) == 2
        for g in disconnected:
            w = make(g)
            hom = decomposition_hom(g, w)
            reps = gb.connected_components(g).representatives
            dims = [crossed_burnside_ring(gb.isotropy_group(g, rep)[0], restrict(w, rep)).dim
                    for rep in reps]
            # block k: the target rows of factor k, the source entries of component k
            row_block = [k for k, d in enumerate(dims) for _ in range(d)]
            col_block = [reps.index(e.component_rep) for e in hom.source.basis.entries]
            assert row_block == col_block == [b["block"] for b in hom.target.basis_info]
            for r, row in enumerate(hom.matrix):
                assert all(v == 0 for v, c in zip(row, col_block) if c != row_block[r])
            assert all(hom.verified[k] for k in ("unital", "multiplicative", "bijective"))

    def test_mixed_components(self, corpus):
        hom = conjugation_decomposition(corpus["(C2xPair(2))+C3"])
        assert hom.source.dim == 10
        assert all(hom.verified[k] for k in ("unital", "multiplicative", "bijective"))

    def test_product_ring_blocks(self, b_c2, s3):
        prod = product_ring([b_c2, b_c2])
        assert prod.dim == 4
        assert prod.unit_vector == [0, 1, 0, 1]
        assert dense_constants(prod)[0][2] == [0, 0, 0, 0]
        # blocks of unequal dims (2 and 4), so that an offset taken from the
        # wrong block cannot go unseen
        b_s3 = burnside_ring(s3)
        prod = product_ring([b_c2, b_s3])
        assert prod.dim == 6
        assert prod.unit_vector == b_c2.unit_vector + b_s3.unit_vector
        blocks = [(0, b_c2), (2, b_s3)]
        for (oi, bi), (oj, bj) in itertools.product(blocks, repeat=2):
            for i, j in itertools.product(range(bi.dim), range(bj.dim)):
                row = prod.structure_constants[oi + i][oj + j]
                if bi is bj:
                    assert row == tuple((oi + k, v) for k, v in bi.structure_constants[i][j])
                else:
                    assert row == ()

    def test_product_ring_keeps_interned_rows(self, c2, s3):
        blocks = [crossed_burnside_ring(g, gb.conjugation_action(g)) for g in (c2, s3)]
        prod = product_ring(blocks)
        rows = [r for row in prod.structure_constants for r in row]
        # equal rows are one object, as in the blocks
        assert len({id(r) for r in rows}) == len(set(rows)) < len(rows)
        offset = 0
        for block in blocks:
            for i, ri in enumerate(block.structure_constants):
                for j, rij in enumerate(ri):
                    assert prod.structure_constants[offset + i][offset + j] == tuple(
                        (offset + k, v) for k, v in rij
                    )
            offset += block.dim
        assert prod.dim == offset


@pytest.fixture
def isotropy_calls(monkeypatch) -> list[tuple[gb.FiniteGroupoid, int]]:
    """The (groupoid, object) of every ``isotropy_group`` call made through
    any gburnside module that binds the name."""
    calls = []
    original = gb.groupoid.isotropy_group

    def counted(g, x):
        calls.append((g, x))
        return original(g, x)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gburnside" and getattr(module, "isotropy_group", None) is original:
            monkeypatch.setattr(module, "isotropy_group", counted)
    return calls


class TestIsotropyGroupCalls:
    """Subgroups are named by loop ids on the groupoid's own table, so an
    isotropy groupoid is built only where a one-object base is needed."""

    @staticmethod
    def s3_pair2():
        return gb.direct_product(gb.from_group(s3_table()), gb.pair_groupoid(2))

    def test_rings_comparison_and_sampler_build_none(self, isotropy_calls):
        g = self.s3_pair2()
        conj = gb.conjugation_action(g)
        crossed_burnside_ring(g, conj)
        burnside_ring(g)
        hadamard_ring(g, conj.underlying())
        assert action_groupoid_iso_check(g, conj.underlying())["status"] == "ok"
        assert len(sample_many(g, conj, 5, seed=0)) == 5
        assert isotropy_calls == []

    def test_decomposition_builds_its_one_block_base(self, isotropy_calls):
        # one component: the base of its block and the weight restricted to it
        g = self.s3_pair2()
        hom = decomposition_hom(g, gb.conjugation_action(g))
        assert hom.verified["bijective"]
        assert isotropy_calls == [(g, 0), (g, 0)]


class TestActionGroupoidIso:
    def test_c2_regular(self, c2):
        report = action_groupoid_iso_check(c2, regular_gset(c2))
        assert report["status"] == "ok"
        assert report["dim_hadamard"] == 1

    def test_dimension_mismatch(self, c2, monkeypatch):
        # the Hadamard ring doubled: 1 dim against 2, compared no further
        hadamard = rings.hadamard_ring
        monkeypatch.setattr(rings, "hadamard_ring", lambda g, x: product_ring([hadamard(g, x)] * 2))
        assert action_groupoid_iso_check(c2, regular_gset(c2)) == {
            "dim_action_groupoid_burnside": 1, "dim_hadamard": 2,
            "status": {"witness": "dimension mismatch"},
        }

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
            ([[1, 0, 2, 3, 4, 5], [0, 1, 3, 2, 4, 5], [0, 1, 2, 3, 5, 4]], 128),  # C2^3
        ],
    )
    def test_conjugation_gset(self, gens, dim):
        g = gb.from_group(gb.group_table_from_perm_gens(gens))
        report = action_groupoid_iso_check(g, gb.conjugation_action(g).underlying())
        assert report["status"] == "ok"
        assert report["dim_hadamard"] == report["dim_action_groupoid_burnside"] == dim
        assert sorted(report["bijection"]) == list(range(dim))


@st.composite
def groups_with_gsets(draw):
    """A disjoint union of one or two groups, each generated by one or two
    random permutations of at most 4 points, and a G-set that is at each
    object one or two coset spaces G/H, with H trivial (the regular G-set),
    the whole group (a point) or generated by a random element."""
    groups = []
    for _ in range(draw(st.integers(1, 2))):
        gens = draw(st.lists(st.permutations(range(draw(st.integers(1, 4)))),
                             min_size=1, max_size=2))
        groups.append(gb.from_group(gb.group_table_from_perm_gens(gens)))
    g = gb.disjoint_union(groups)[0] if len(groups) > 1 else groups[0]
    table = g.compose_table
    sizes, action = [], [None] * g.n_morphisms
    for o in g.objects:
        loops = g.loops(o)
        cosets = []  # (piece, left coset a H)
        for piece in range(draw(st.integers(1, 2))):
            sub = draw(st.sampled_from(["regular", "point", "cyclic"]))
            if sub == "regular":
                h = {g.identity[o]}
            elif sub == "point":
                h = set(loops)
            else:
                h = subgroup_closure(table, [draw(st.sampled_from(loops))])
            for a in loops:
                coset = frozenset(table[a][k] for k in h)
                if (piece, coset) not in cosets:
                    cosets.append((piece, coset))
        pos = {c: i for i, c in enumerate(cosets)}
        sizes.append(len(cosets))
        for m in loops:
            action[m] = [pos[p, frozenset(table[m][k] for k in c)] for p, c in cosets]
    return g, GSet(g, sizes, action).validate()


@settings(max_examples=60, deadline=None)
@given(groups_with_gsets())
def test_pushforward_is_a_verified_permutation(case):
    g, x = case
    ag = gb.action_groupoid(g, x)
    left, right = burnside_ring(ag.groupoid), hadamard_ring(g, x)
    hom = rings._ring_bijection(ag, x, left, right)
    assert hom.verified == {"unital": True, "multiplicative": True, "bijective": True}
    assert hom.matrix == pushforward_matrix(hom, ag, x)
    cols = list(zip(*hom.matrix))
    assert all(sum(map(abs, col)) == 1 == max(col) for col in cols)
    perm = [col.index(1) for col in cols]
    assert sorted(perm) == list(range(left.dim))
    report = action_groupoid_iso_check(g, x)
    assert report["status"] == "ok" and report["bijection"] == perm


def _corrupt_hadamard(monkeypatch, edit):
    """Make ``action_groupoid_iso_check`` meet a Hadamard ring whose dense
    structure constants and unit ``edit(c, unit)`` has changed.  The basis
    is kept, so every basis element is still pushed into it."""
    hadamard = rings.hadamard_ring

    def corrupted(g, x):
        ring = hadamard(g, x)
        c, unit = dense_constants(ring), list(ring.unit_vector)
        edit(c, unit)
        return RingPresentation(ring.dim, sparse_rows(c), unit, basis=ring.basis)

    monkeypatch.setattr(rings, "hadamard_ring", corrupted)


def _not_an_iso(**verified) -> dict:
    return {"witness": "pushforward is not a ring isomorphism", "verified": verified}


class TestRingBijection:
    """The pushforward along the projection (``_ring_bijection``) on the
    corpus, and against Hadamard rings corrupted with their basis kept."""

    @pytest.mark.parametrize("name", ["S3", "C2+S3", "(C2xPair(2))+C3"])
    def test_finds_a_structure_preserving_relabeling(self, corpus, name):
        g = corpus[name]
        x = gb.conjugation_action(g).underlying()
        report = action_groupoid_iso_check(g, x)
        assert report["status"] == "ok"
        perm = report["bijection"]
        a = burnside_ring(gb.action_groupoid(g, x).groupoid)
        b = hadamard_ring(g, x)
        assert sorted(perm) == list(range(a.dim)) and b.dim == a.dim
        ca, cb = dense_constants(a), dense_constants(b)
        for p, q, r in itertools.product(range(a.dim), repeat=3):
            assert ca[p][q][r] == cb[perm[p]][perm[q]][perm[r]]
        assert [b.unit_vector[perm[i]] for i in range(a.dim)] == a.unit_vector

    def test_every_returned_bijection_preserves_every_constant(self, s3, monkeypatch):
        # Move one unit of a product e_p e_q (p != q) to another output
        # coordinate: row sums, diagonal constants and the unit stay the
        # same.  The map is built, not searched, so no corrupted ring gets a
        # bijection: multiplicativity fails at exactly the preimage of (p, q).
        x = gb.conjugation_action(s3).underlying()
        perm = action_groupoid_iso_check(s3, x)["bijection"]
        inv = {k: i for i, k in enumerate(perm)}
        d, ca = len(perm), dense_constants(hadamard_ring(s3, x))
        moves = [
            (p, q, k, t)
            for p, q, k, t in itertools.product(range(d), repeat=4)
            if p != q and ca[p][q][k] and t != k
        ]
        for p, q, k, t in random.Random("moves").sample(moves, 40):
            def edit(c, unit):
                c[p][q][k] -= 1
                c[p][q][t] += 1

            _corrupt_hadamard(monkeypatch, edit)
            report = action_groupoid_iso_check(s3, x)
            monkeypatch.undo()
            assert "bijection" not in report
            assert report["status"] == _not_an_iso(
                unital=True, multiplicative=False, bijective=True, witness=(inv[p], inv[q])
            ), (p, q, k, t)

    def test_rejects_a_changed_constant(self, c2, monkeypatch):
        # [C2/1]^2 = 2 [C2/1] in each factor of B(C2) x B(C2); make one 3
        x = fixed_points_gset(c2, 2)
        perm = action_groupoid_iso_check(c2, x)["bijection"]

        def edit(c, unit):
            c[0][0][0] = 3

        _corrupt_hadamard(monkeypatch, edit)
        report = action_groupoid_iso_check(c2, x)
        i = perm.index(0)
        assert report["status"] == _not_an_iso(
            unital=True, multiplicative=False, bijective=True, witness=(i, i)
        )


class TestIntDet:
    def test_known_values(self):
        assert _int_det([[2, 0], [0, 3]]) == 6
        assert _int_det([[0, 1], [1, 0]]) == -1
        assert _int_det([[1, 2], [2, 4]]) == 0
        assert _int_det([[2, 3, 1], [4, 1, 3], [1, 5, 2]]) == -22

    def test_empty_matrix_is_invertible(self, c2):
        # the Hadamard ring over the empty G-set has dim 0: its identity hom
        # is the empty matrix, whose determinant is 1
        ring = hadamard_ring(c2, parse_gset({"fibers": {"0": 0}, "action": {"1": []}}, c2))
        hom = RingHom(ring, ring, []).verify()
        assert hom.verified == {"unital": True, "multiplicative": True, "bijective": True}


# -- exact sparse arithmetic --------------------------------------------------------

def test_combine_drops_cancelled_coordinates():
    # sparse vectors are compared as tuples, so a sum that cancels must not
    # leave a (k, 0) entry behind
    vecs = [((0, 2), (1, 1)), ((0, 2),)]
    assert _combine(((0, 1), (1, -1)), vecs) == ((1, 1),)
    assert _combine(((0, 1), (1, -1)), [((0, 2),), ((0, 2),)]) == ()


# -- exact checks on constants beyond any fixed-width integer ----------------------

class TestLargeConstants:
    def test_two_dim_ring_with_huge_constant_validates(self):
        # basis {1, x} with x^2 = 2^40 x
        n = 2**40
        c = [[[1, 0], [0, 1]], [[0, 1], [0, n]]]
        ring = RingPresentation(2, sparse_rows(c), [1, 0]).validate()
        x = RingElement(ring, [0, 1])
        assert ring_mul(x, ring_mul(x, x)).coords == [0, n * n]

    def test_huge_constants_associativity_witness(self):
        # basis {1, x, y}: x^2 = n y, y^2 = n x, xy = yx = 0, so that
        # (x x) y = n^2 x while x (x y) = 0
        n = 2**40
        c = [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, n], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [0, n, 0]],
        ]
        assert oracle_unit_failure(c, [1, 0, 0]) is None
        assert oracle_associativity_failure(c) == (1, 1, 2, 1)
        with pytest.raises(
            NotNatural, match=re.escape("(i, j, k, l) = (1, 1, 2, 1)")
        ):
            RingPresentation(3, sparse_rows(c), [1, 0, 0]).validate()


# -- differential tests against a dense oracle --------------------------------------
#
# The oracle is the definition, written as plain loops over every coordinate;
# the production checks visit only non-zero constants and must agree with it
# on the verdict and on the witness.

def oracle_unit_failure(c, u):
    """The first basis element j with u e_j != e_j or e_j u != e_j."""
    d = len(c)
    for j in range(d):
        expected = [1 if k == j else 0 for k in range(d)]
        left = [sum(u[i] * c[i][j][k] for i in range(d)) for k in range(d)]
        right = [sum(u[i] * c[j][i][k] for i in range(d)) for k in range(d)]
        if left != expected or right != expected:
            return j
    return None


def oracle_associativity_failure(c):
    """The lexicographically first (i, j, k, l) where the coordinate l of
    (e_i e_j) e_k and of e_i (e_j e_k) differ."""
    d = len(c)
    for i, j, k, l in itertools.product(range(d), repeat=4):
        lhs = sum(c[i][j][m] * c[m][k][l] for m in range(d))
        rhs = sum(c[j][k][m] * c[i][m][l] for m in range(d))
        if lhs != rhs:
            return (i, j, k, l)
    return None


def oracle_hom_failure(src, tgt, matrix):
    """The first (i, j), row-major, with phi(e_i e_j) != phi(e_i) phi(e_j)."""
    ds, dt = src.dim, tgt.dim
    cs, ct = dense_constants(src), dense_constants(tgt)

    def image(v):
        return [sum(matrix[r][m] * v[m] for m in range(ds)) for r in range(dt)]

    def product(x, y):
        return [
            sum(x[r] * y[s] * ct[r][s][t] for r in range(dt) for s in range(dt))
            for t in range(dt)
        ]

    basis = [[1 if m == i else 0 for m in range(ds)] for i in range(ds)]
    for i, j in itertools.product(range(ds), repeat=2):
        if image(cs[i][j]) != product(
            image(basis[i]), image(basis[j])
        ):
            return (i, j)
    return None


def _corpus_rings(corpus, max_dim=14):
    """Crossed Burnside rings of the corpus under both weights, and the
    block-diagonal target of the C2+S3 decomposition."""
    for name, g in corpus.items():
        for weight in ("conjugation", "trivial"):
            m = gb.conjugation_action(g) if weight == "conjugation" else gb.trivial_gmonoid(g)
            ring = crossed_burnside_ring(g, m)
            if ring.dim <= max_dim:
                yield f"{name}/{weight}", ring
    yield "C2+S3/product", conjugation_decomposition(corpus["C2+S3"]).target


def _corruptions(name, ring, count=6):
    """A fixed sample of single-constant changes: half add 1 anywhere, half
    zero out a non-zero constant."""
    rng = random.Random(name)
    d, c = ring.dim, dense_constants(ring)
    nonzero = [
        (i, j, k) for i, j, k in itertools.product(range(d), repeat=3) if c[i][j][k]
    ]
    for n in range(count):
        if n % 2 == 0:
            pos = tuple(rng.randrange(d) for _ in range(3))
            yield pos, c[pos[0]][pos[1]][pos[2]] + 1
        else:
            yield rng.choice(nonzero), 0


class TestDenseOracle:
    def test_corpus_rings_pass_both(self, corpus):
        for name, ring in _corpus_rings(corpus):
            c = dense_constants(ring)
            assert oracle_unit_failure(c, ring.unit_vector) is None, name
            assert oracle_associativity_failure(c) is None, name

    def test_corrupted_constants_same_verdict_and_witness(self, corpus):
        rejected = {"unit": 0, "associativity": 0}
        for name, ring in _corpus_rings(corpus):
            for (i, j, k), value in _corruptions(name, ring):
                c = dense_constants(ring)
                c[i][j][k] = value
                bad = RingPresentation(ring.dim, sparse_rows(c), list(ring.unit_vector))
                case = f"{name} c[{i}][{j}][{k}] = {value}"

                unit_failure = oracle_unit_failure(c, bad.unit_vector)
                assoc_failure = oracle_associativity_failure(c)
                if assoc_failure is None:
                    bad._check_associativity()
                else:
                    rejected["associativity"] += 1
                    with pytest.raises(NotNatural) as err:
                        bad._check_associativity()
                    assert str(err.value) == (
                        f"associativity fails at (i, j, k, l) = {assoc_failure}"
                    ), case

                if unit_failure is not None:
                    rejected["unit"] += 1
                    expected = f"unit law fails at basis element {unit_failure}"
                elif assoc_failure is not None:
                    expected = f"associativity fails at (i, j, k, l) = {assoc_failure}"
                else:
                    bad.validate()
                    continue
                with pytest.raises(NotNatural) as err:
                    bad.validate()
                assert str(err.value) == expected, case
        assert rejected["unit"] > 0 and rejected["associativity"] > 0

    def test_corrupted_hom_same_witness(self, corpus):
        hom = conjugation_decomposition(corpus["C2+S3"])
        src, tgt = hom.source, hom.target
        assert oracle_hom_failure(src, tgt, hom.matrix) is None
        assert hom.verified["multiplicative"] and "witness" not in hom.verified
        rng = random.Random("C2+S3 hom")
        caught = 0
        for _ in range(8):
            r, m = rng.randrange(tgt.dim), rng.randrange(src.dim)
            matrix = [list(row) for row in hom.matrix]
            matrix[r][m] += 1
            expected = oracle_hom_failure(src, tgt, matrix)
            verified = RingHom(src, tgt, matrix).verify().verified
            assert verified["multiplicative"] == (expected is None), (r, m)
            assert verified.get("witness") == expected, (r, m)
            caught += expected is not None
        assert caught > 0

    def test_corrupted_hom_unit_witness(self, corpus):
        hom = conjugation_decomposition(corpus["C2+S3"])
        src, tgt = hom.source, hom.target
        assert hom.verified["unital"] and "unit_witness" not in hom.verified
        m = next(m for m, u in enumerate(src.unit_vector) if u)
        for r in (0, tgt.dim // 2, tgt.dim - 1):
            matrix = [list(row) for row in hom.matrix]
            matrix[r][m] += 1
            # phi(1) changes in coordinate r only, by the unit's coordinate m
            image = [sum(row[c] * src.unit_vector[c] for c in range(src.dim)) for row in matrix]
            assert [k for k in range(tgt.dim) if image[k] != tgt.unit_vector[k]] == [r]
            verified = RingHom(src, tgt, matrix).verify().verified
            assert not verified["unital"]
            assert verified["unit_witness"] == r

    def test_corrupted_hom_determinant(self, corpus):
        hom = conjugation_decomposition(corpus["C2+S3"])
        src, tgt = hom.source, hom.target
        assert hom.verified["bijective"] and "determinant" not in hom.verified
        det = _int_det(hom.matrix)
        assert abs(det) == 1
        for m in (0, src.dim - 1):
            r = next(r for r in range(tgt.dim) if hom.matrix[r][m])
            # one column doubled doubles the determinant; one zeroed kills it
            for scale, expected in ((2, 2 * det), (0, 0)):
                matrix = [list(row) for row in hom.matrix]
                matrix[r][m] *= scale
                verified = RingHom(src, tgt, matrix).verify().verified
                assert not verified["bijective"]
                assert verified["determinant"] == expected

    def test_embedding_report_has_no_determinant(self, corpus):
        hom = embedding_hom(corpus["C2+S3"], gb.conjugation_action(corpus["C2+S3"]))
        assert hom.source.dim != hom.target.dim
        assert not hom.verified["bijective"]
        assert "determinant" not in hom.verified and "unit_witness" not in hom.verified

    def test_hom_with_cancelling_entries(self, b_c2):
        # On B(C2) with a = [C2/1], a^2 = 2a, the map a -> 2 - a, 1 -> 1 is
        # a ring automorphism; phi(a) a = -a^2 + 2a = 0 cancels to zero.
        hom = RingHom(b_c2, b_c2, [[-1, 0], [2, 1]])
        assert oracle_hom_failure(b_c2, b_c2, hom.matrix) is None
        assert hom.verify().verified == {
            "unital": True, "multiplicative": True, "bijective": True,
        }


# -- the packed kernel against the dense oracle, on generated rings -----------------
#
# Constants come from small values and from values beyond 2^64, of both signs;
# the checks take them as they are, without ``validate``.

CONSTANTS = st.one_of(
    st.integers(-3, 3), st.integers(2**64, 2**70), st.integers(-(2**70), -(2**64))
)


def _unimodular(draw, d):
    """A random integer matrix P with integer inverse, as a product of
    elementary row operations, and its inverse."""
    p = [[int(r == c) for c in range(d)] for r in range(d)]
    p_inv = [list(row) for row in p]
    if d < 2:
        return p, p_inv
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.permutations(range(d)))[:2]
        t = draw(st.integers(-2, 2))
        for row in p:  # P <- P (I + t E_ab)
            row[b] += t * row[a]
        p_inv[a] = [x - t * y for x, y in zip(p_inv[a], p_inv[b])]  # (I - t E_ab) P^-1
    return p, p_inv


def _change_basis(c, p, p_inv):
    """The constants of the same ring in the basis e'_j = sum_a P_aj e_a."""
    d = len(c)
    return [
        [
            [
                sum(
                    p_inv[l][k] * p[a][i] * p[b][j] * c[a][b][k]
                    for a in range(d) for b in range(d) for k in range(d)
                )
                for l in range(d)
            ]
            for j in range(d)
        ]
        for i in range(d)
    ]


@st.composite
def tables(draw, max_dim=5):
    """A dense d x d x d table: either arbitrary constants (mostly zero) or
    an associative ring, a sum of scaled idempotents e^2 = n e in a random
    unimodular basis, with at most one constant changed afterwards."""
    d = draw(st.integers(1, max_dim))
    if draw(st.booleans()):
        entry = st.one_of(st.just(0), st.just(0), CONSTANTS)
        return [[[draw(entry) for _ in range(d)] for _ in range(d)] for _ in range(d)]
    c = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        c[i][i][i] = draw(CONSTANTS)
    c = _change_basis(c, *_unimodular(draw, d))
    if draw(st.booleans()):
        i, j, k = (draw(st.integers(0, d - 1)) for _ in range(3))
        c[i][j][k] += draw(CONSTANTS)
    return c


def _presentation(c):
    return RingPresentation(len(c), sparse_rows(c), [0] * len(c))


class TestPackedKernel:
    @settings(max_examples=300, deadline=None)
    @given(tables(), st.booleans())
    def test_associativity_matches_oracle(self, c, symmetric):
        # a symmetric table (c_ij = c_ji) shares one packed table between
        # both sides of every triple; the verdict and witness must not move
        if symmetric:
            c = [[c[min(i, j)][max(i, j)] for j in range(len(c))] for i in range(len(c))]
        expected = oracle_associativity_failure(c)
        ring = _presentation(c)
        if expected is None:
            ring._check_associativity()
        else:
            with pytest.raises(NotNatural) as err:
                ring._check_associativity()
            assert str(err.value) == f"associativity fails at (i, j, k, l) = {expected}"

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_multiplicativity_matches_oracle(self, data):
        c = data.draw(tables(max_dim=4))
        src = _presentation(c)
        if data.draw(st.booleans()):
            # an isomorphism onto the same ring in another basis, maybe broken
            p, p_inv = _unimodular(data.draw, src.dim)
            tgt = _presentation(_change_basis(c, p, p_inv))
            matrix = [list(row) for row in p_inv]
            if data.draw(st.booleans()):
                r, m = (data.draw(st.integers(0, src.dim - 1)) for _ in range(2))
                matrix[r][m] += data.draw(CONSTANTS)
        else:
            tgt = _presentation(data.draw(tables(max_dim=4)))
            entry = st.one_of(st.just(0), CONSTANTS)
            matrix = [[data.draw(entry) for _ in range(src.dim)] for _ in range(tgt.dim)]
        expected = oracle_hom_failure(src, tgt, matrix)
        verified = RingHom(src, tgt, matrix).verify().verified
        assert verified["multiplicative"] == (expected is None)
        assert verified.get("witness") == expected

    def test_symmetric_table_with_unit_not_associative(self, lincomb_calls):
        # basis {1, x, y, z}, commutative with unit 1: x^2 = y, xy = z,
        # y^2 = x, every other product of x, y, z zero; so (x x) x = y x = z
        # while x (x x) = x y = z agree, but (x x) y = y y = x while
        # x (x y) = x z = 0
        c = [[[0] * 4 for _ in range(4)] for _ in range(4)]
        for j in range(4):
            c[0][j][j] = c[j][0][j] = 1
        c[1][1][2] = c[2][2][1] = 1
        c[1][2][3] = c[2][1][3] = 1
        assert all(c[i][j] == c[j][i] for i in range(4) for j in range(4))
        assert oracle_unit_failure(c, [1, 0, 0, 0]) is None
        expected = oracle_associativity_failure(c)
        assert expected == (1, 1, 2, 1)
        ring = RingPresentation(4, sparse_rows(c), [1, 0, 0, 0])
        with pytest.raises(NotNatural) as err:
            ring.validate()
        assert str(err.value) == f"associativity fails at (i, j, k, l) = {expected}"
        # one packed table for both sides
        assert len(lincomb_calls) == len({r for row in ring.structure_constants for r in row})

    def test_commutative_hom_compares_each_pair_once(self, corpus, lincomb_calls):
        # both tables commutative: column j compares the pairs i <= j only
        hom = conjugation_decomposition(corpus["C2+S3"])
        src, tgt = hom.source, hom.target
        lincomb_calls.clear()
        assert RingHom(src, tgt, hom.matrix).verify().verified["multiplicative"]
        d = src.dim
        assert [length for *_, length in lincomb_calls] == [tgt.dim] * d + list(range(1, d + 1))

    def test_non_commutative_hom_compares_every_pair(self, lincomb_calls):
        # e0 e1 = e1 but e1 e0 = 0: the identity map compares all d^2 pairs
        c = [[[0, 0], [0, 1]], [[0, 0], [0, 0]]]
        ring = _presentation(c)
        lincomb_calls.clear()
        assert RingHom(ring, ring, [[1, 0], [0, 1]]).verify().verified["multiplicative"]
        assert [length for *_, length in lincomb_calls] == [2, 2, 2, 2]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_commutative_multiplicativity_matches_oracle(self, data):
        # the witness of a hom between commutative tables, found on i <= j,
        # is the row-major first failure over all pairs
        def symmetric(c):
            return [[c[min(i, j)][max(i, j)] for j in range(len(c))] for i in range(len(c))]

        c = symmetric(data.draw(tables(max_dim=4)))
        src = _presentation(c)
        if data.draw(st.booleans()):
            p, p_inv = _unimodular(data.draw, src.dim)
            tgt = _presentation(_change_basis(c, p, p_inv))
            matrix = [list(row) for row in p_inv]
            if data.draw(st.booleans()):
                r, m = (data.draw(st.integers(0, src.dim - 1)) for _ in range(2))
                matrix[r][m] += data.draw(CONSTANTS)
        else:
            tgt = _presentation(symmetric(data.draw(tables(max_dim=4))))
            entry = st.one_of(st.just(0), CONSTANTS)
            matrix = [[data.draw(entry) for _ in range(src.dim)] for _ in range(tgt.dim)]
        expected = oracle_hom_failure(src, tgt, matrix)
        verified = RingHom(src, tgt, matrix).verify().verified
        assert verified["multiplicative"] == (expected is None)
        assert verified.get("witness") == expected

    def test_difference_that_aliases_at_the_constants_width(self):
        # x = e0 with x^2 = e1 + e4, e1 x = e4 x = 2^h e2 and x e1 = e3, so
        # (x x) x - x (x x) = 2^(h+1) e2 - e3.  With the width w0 = h + 1
        # given by the bits of the largest constant, 2^w0 in field 2 and -1
        # in field 3 pack to zero; the checks must still reject it.
        h = 70
        c = [[[0] * 5 for _ in range(5)] for _ in range(5)]
        c[0][0][1] = c[0][0][4] = 1
        c[1][0][2] = c[4][0][2] = 2**h
        c[0][1][3] = 1
        w0 = max(v for ci in c for cij in ci for v in cij).bit_length()
        assert (2**w0 << (2 * w0)) - (1 << (3 * w0)) == 0
        expected = oracle_associativity_failure(c)
        assert expected == (0, 0, 0, 2)
        with pytest.raises(NotNatural) as err:
            _presentation(c)._check_associativity()
        assert str(err.value) == f"associativity fails at (i, j, k, l) = {expected}"

    def test_hom_difference_that_aliases_at_the_entries_width(self):
        # x^2 = y in the source; phi(x) = 2 t0 + 2 t1 and phi(y) = t3 with
        # t0^2 = t1^2 = 2^h t2 in the target, so that phi(x^2) - phi(x)^2 =
        # t3 - 2^(h+3) t2.  At the width w = h + 3 that the largest matrix
        # entry and the largest target constant give, 2^w in field 2 and -1
        # in field 3 pack to zero; the l1-norms of the images must count.
        h = 70
        src = _presentation([[[0, 1], [0, 0]], [[0, 0], [0, 0]]])
        t = [[[0] * 4 for _ in range(4)] for _ in range(4)]
        t[0][0][2] = t[1][1][2] = 2**h
        tgt = _presentation(t)
        matrix = [[2, 0], [2, 0], [0, 0], [0, 1]]
        w = (h + 1) + 2
        assert (1 << (3 * w)) - (2 ** (h + 3) << (2 * w)) == 0
        assert oracle_hom_failure(src, tgt, matrix) == (0, 0)
        verified = RingHom(src, tgt, matrix).verify().verified
        assert not verified["multiplicative"] and verified["witness"] == (0, 0)


# -- the witness of a failed action-groupoid comparison ------------------------------

class TestIsoWitness:
    """The Hadamard ring of C2 over two fixed points is B(C2) x B(C2): e0, e1
    are [C2/1] and e2, e3 the units of the two factors.  The left ring has
    [C2/1] at e0, e2 and the units at e1, e3, and the pushforward sends
    e0, e1, e2, e3 to e0, e2, e1, e3."""

    PERM = [0, 2, 1, 3]

    def _status(self, c2, monkeypatch, edit):
        x = fixed_points_gset(c2, 2)
        assert action_groupoid_iso_check(c2, x)["bijection"] == self.PERM
        _corrupt_hadamard(monkeypatch, edit)
        report = action_groupoid_iso_check(c2, x)
        assert "bijection" not in report
        return report["status"]

    def test_squared_units_are_witnessed(self, c2, monkeypatch):
        # both units now square to twice themselves; e1 e1 is the first
        # product of the left ring whose image changed
        def edit(c, unit):
            c[2][2][2] = c[3][3][3] = 2

        assert self._status(c2, monkeypatch, edit) == _not_an_iso(
            unital=True, multiplicative=False, bijective=True, witness=(1, 1)
        )

    @pytest.mark.parametrize("p, q", [(0, 1), (1, 0)])
    def test_changed_product_is_witnessed(self, c2, monkeypatch, p, q):
        # e_p e_(p+2) = e_q instead of e_p keeps every row sum and the unit
        def edit(c, unit):
            c[p][p + 2][p], c[p][p + 2][q] = 0, 1

        inv = self.PERM  # an involution
        assert self._status(c2, monkeypatch, edit) == _not_an_iso(
            unital=True, multiplicative=False, bijective=True, witness=(inv[p], inv[p + 2])
        )

    def test_changed_unit_is_witnessed(self, c2, monkeypatch):
        # the unit loses e3: the image of the left unit differs there first
        def edit(c, unit):
            unit[3] = 0

        assert self._status(c2, monkeypatch, edit) == _not_an_iso(
            unital=False, multiplicative=True, bijective=True, unit_witness=3
        )

    def test_image_not_a_basis_element(self, c2, monkeypatch):
        # a column that is twice a basis element is named by its index,
        # before the hom's verdict is consulted
        pushforward = rings._ring_bijection

        def doubled_second(*args):
            hom = pushforward(*args)
            for row in hom.matrix:
                row[1] *= 2
            return hom

        monkeypatch.setattr(rings, "_ring_bijection", doubled_second)
        report = action_groupoid_iso_check(c2, fixed_points_gset(c2, 2))
        assert report["status"] == {
            "witness": "pushforward of a basis element is not a basis element",
            "basis_index": 1,
        }


# -- block-diagonal presentations ---------------------------------------------------
#
# Lemma 1: entries on two components, or over two G-orbits of X, multiply to
# 0, so the rings solve only the products inside one block.  Lemma 2: with
# every row across blocks empty and every row inside a block supported
# there, the table is associative exactly when each block is.  The oracle
# is the whole-table check (``whole_table_verdict``).

def _partition(keys) -> list[list[int]]:
    """The positions of each key, in order of first appearance."""
    return [[k for k, x in enumerate(keys) if x == key] for key in dict.fromkeys(keys)]


def _blocks_of(ring) -> list[list[int]]:
    """The blocks ``validate`` checks one by one; [] for the whole table."""
    blocks = _partition(ring._blocks or ())
    return blocks if len(blocks) > 1 else []


def _component_blocks(ring, g) -> list[list[int]]:
    """The entries of a crossed ring by component, closed from (dom, cod)."""
    comp = {x: n for n, cls in enumerate(closure_components(g)) for x in cls}
    blocks = _partition([comp[e.component_rep] for e in ring.basis.entries])
    return blocks if len(blocks) > 1 else []


def _orbit_blocks(ring, x) -> list[list[int]]:
    """The entries of a Hadamard ring by the orbit of X that holds the base
    label at their representative, closed from the action."""
    orbit = {
        (o, i): n
        for n, members in enumerate(closure_orbits(x))
        for o, ids in enumerate(members)
        for i in ids
    }
    blocks = _partition([orbit[e.component_rep, e.standard_pair[1]] for e in ring.basis.entries])
    return blocks if len(blocks) > 1 else []


def _conjugation_set(g) -> GSet:
    return gb.conjugation_action(g).underlying()


@pytest.fixture
def associativity_keys(monkeypatch) -> list:
    """Records the ``keys`` argument of every associativity check: None is
    the whole table."""
    calls = []
    check = RingPresentation._check_associativity

    def recorded(self, keys=None):
        calls.append(keys)
        return check(self, keys)

    monkeypatch.setattr(RingPresentation, "_check_associativity", recorded)
    return calls


def _every_pair(ring, combine) -> list[list[tuple]]:
    """The table built by ``MarkTable.product`` on every pair (i, j)."""
    marks = ring.basis.marks()
    return [[marks.product(i, j, combine) for j in range(ring.dim)] for i in range(ring.dim)]


def _assert_blocks_annihilate(ring, combine, blocks) -> None:
    table = _every_pair(ring, combine)
    assert table == ring.structure_constants
    block_of = {k: n for n, b in enumerate(blocks) for k in b}
    for i, j in itertools.product(range(ring.dim), repeat=2):
        if block_of[i] != block_of[j]:
            assert table[i][j] == (), (i, j)


def _mutant(ring, rows) -> RingPresentation:
    return RingPresentation(ring.dim, rows, list(ring.unit_vector), blocks=ring._blocks)


def _outside_unit(ring) -> list[int]:
    return [k for k, u in enumerate(ring.unit_vector) if not u]


def _block_rings(corpus) -> dict[str, RingPresentation]:
    """Rings with two or more blocks: crossed rings of disconnected
    groupoids, Hadamard rings over several orbits, and a product ring."""
    out = {}
    for name in ("C2+S3", "(C2xPair(2))+C3"):
        g = corpus[name]
        out[f"crossed {name}"] = crossed_burnside_ring(g, gb.conjugation_action(g))
    for name in ("S3", "D4", "C2xPair(2)"):
        g = corpus[name]
        out[f"hadamard {name}"] = hadamard_ring(g, _conjugation_set(g))
    out["B(C2) x B(S3)"] = product_ring([burnside_ring(corpus["C2"]), burnside_ring(corpus["S3"])])
    return out


class TestBlocks:
    @pytest.mark.parametrize("weight", ["conjugation", "trivial"])
    def test_crossed_blocks_are_components(self, corpus, weight, associativity_keys):
        make = gb.conjugation_action if weight == "conjugation" else gb.trivial_gmonoid
        for name, g in corpus.items():
            associativity_keys.clear()
            ring = crossed_burnside_ring(g, make(g))
            blocks = _component_blocks(ring, g)
            assert _blocks_of(ring) == blocks, name
            if not blocks:  # a connected ring carries no keys and scans no premise
                assert ring._blocks is None, name
            assert associativity_keys == [ring._blocks if blocks else None], name
            assert whole_table_verdict(ring) is None, name

    def test_hadamard_blocks_are_orbits(self, corpus, associativity_keys):
        for name, g in corpus.items():
            x = _conjugation_set(g)
            associativity_keys.clear()
            ring = hadamard_ring(g, x)
            blocks = _orbit_blocks(ring, x)
            assert _blocks_of(ring) == blocks, name
            assert associativity_keys == [ring._blocks if blocks else None], name
            assert whole_table_verdict(ring) is None, name

    def test_product_ring_blocks_are_factors(self, corpus):
        ring = product_ring([burnside_ring(corpus["C2"]), burnside_ring(corpus["S3"])])
        assert _blocks_of(ring) == [[0, 1], [2, 3, 4, 5]]
        assert whole_table_verdict(ring) is None

    def test_empty_gset_has_no_blocks(self, c2):
        x = parse_gset({"fibers": {"0": 0}, "action": {"1": []}}, c2)
        ring = hadamard_ring(c2, x)
        assert ring.dim == 0 and not ring._blocks
        assert ring.structure_constants == [] and ring.unit_vector == []

    def test_block_counts(self, corpus):
        # D4 by conjugation: orbits {1}, {r^2}, {r, r^3}, {s, sr^2}, {sr, sr^3}
        d4 = corpus["D4"]
        ring = hadamard_ring(d4, _conjugation_set(d4))
        assert len(_blocks_of(ring)) == 5
        assert [len(b) for b in _blocks_of(burnside_ring(corpus["C2+S3"]))] == [2, 4]

    @pytest.mark.parametrize("name", ["C2+S3", "(C2xPair(2))+C3"])
    @pytest.mark.parametrize("weight", ["conjugation", "trivial"])
    def test_tensor_across_components_is_empty(self, corpus, name, weight):
        g = corpus[name]
        w = gb.conjugation_action(g) if weight == "conjugation" else gb.trivial_gmonoid(g)
        ring = crossed_burnside_ring(g, w)
        _assert_blocks_annihilate(ring, rings._convolution(w), _component_blocks(ring, g))

    def test_fiber_product_across_orbits_is_empty(self, corpus):
        for name, g in corpus.items():
            x = _conjugation_set(g)
            ring = hadamard_ring(g, x)
            _assert_blocks_annihilate(ring, rings._meet, _orbit_blocks(ring, x) or [range(ring.dim)])

    # the Hadamard ring over C2xPair(2) is left out here: each of its blocks
    # is Z[e]/(e^2 - 2e) x Z, and raising a constant there keeps it associative
    @pytest.mark.parametrize("case", sorted(["crossed C2+S3", "crossed (C2xPair(2))+C3",
                                             "hadamard S3", "hadamard D4", "B(C2) x B(S3)"]))
    def test_in_block_mutant_fails_as_the_whole_check(self, corpus, case, associativity_keys):
        ring = _block_rings(corpus)[case]
        blocks = _blocks_of(ring)
        assert blocks
        free = set(_outside_unit(ring))
        rng = random.Random(case)
        candidates = [
            (i, j, k)
            for b in blocks
            for i in b if i in free
            for j in b if j in free
            for k in b
        ]
        failed = 0
        for i, j, k in rng.sample(candidates, min(8, len(candidates))):
            rows = [list(r) for r in ring.structure_constants]
            row = dict(rows[i][j])
            row[k] = row.get(k, 0) + 1
            rows[i][j] = tuple(sorted(row.items()))
            mutant = _mutant(ring, rows)
            expected = whole_table_verdict(mutant)
            associativity_keys.clear()
            if expected is None:
                mutant.validate()
            else:
                failed += 1
                with pytest.raises(NotNatural) as err:
                    mutant.validate()
                assert str(err.value) == expected
            assert associativity_keys == [ring._blocks]  # checked by blocks
        assert failed

    @pytest.mark.parametrize("case", sorted(["crossed C2+S3", "crossed (C2xPair(2))+C3",
                                             "hadamard S3", "hadamard D4",
                                             "hadamard C2xPair(2)", "B(C2) x B(S3)"]))
    @pytest.mark.parametrize("where", ["across", "outside"])
    def test_cross_block_row_falls_back_to_the_whole_check(
        self, corpus, case, where, associativity_keys
    ):
        # "across": a non-empty row e_i e_j with i and j in two blocks;
        # "outside": a row inside a block with support in another
        ring = _block_rings(corpus)[case]
        blocks = _blocks_of(ring)
        block_of = {k: n for n, b in enumerate(blocks) for k in b}
        free = _outside_unit(ring)
        rng = random.Random(f"{case}:{where}")
        pairs = [
            (i, j) for i in free for j in free
            if (block_of[i] != block_of[j]) == (where == "across")
        ]
        for i, j in rng.sample(pairs, min(6, len(pairs))):
            k = rng.choice([k for k in range(ring.dim)
                            if (where == "across") or block_of[k] != block_of[i]])
            rows = [list(r) for r in ring.structure_constants]
            row = dict(rows[i][j])
            row[k] = row.get(k, 0) + 1
            rows[i][j] = tuple(sorted(row.items()))
            mutant = _mutant(ring, rows)
            expected = whole_table_verdict(mutant)
            assert expected is not None
            associativity_keys.clear()
            with pytest.raises(NotNatural) as err:
                mutant.validate()
            assert str(err.value) == expected
            assert associativity_keys == [None]  # the premise failed: the whole table

    def test_keys_of_the_wrong_length_check_the_whole_table(self, corpus, associativity_keys):
        ring = _block_rings(corpus)["hadamard D4"]
        short = RingPresentation(ring.dim, ring.structure_constants, list(ring.unit_vector),
                                 blocks=ring._blocks[:-1])
        associativity_keys.clear()
        short.validate()
        assert associativity_keys == [None]


class TestProductProof:
    """``product_ring`` proves its table from its blocks instead of checking
    it: each refusal below edits the table ``_ring`` built before the proof
    reads it.  B(C2) x B(S3) has blocks 0..1 (offset 0) and 2..5 (offset 2)."""

    @staticmethod
    def edited_product(corpus, monkeypatch, edit) -> RingPresentation:
        blocks = [burnside_ring(corpus["C2"]), burnside_ring(corpus["S3"])]
        build = rings._ring

        def edited(*args, **kwargs):
            ring = build(*args, **kwargs)
            edit(ring)
            return ring

        monkeypatch.setattr(rings, "_ring", edited)
        return product_ring(blocks)

    @staticmethod
    def raise_constant(ring, i, j, k) -> None:
        row = dict(ring.structure_constants[i][j])
        row[k] = row.get(k, 0) + 1
        ring.structure_constants[i][j] = tuple(sorted(row.items()))

    def test_unedited_product_is_proved(self, corpus, monkeypatch, associativity_keys):
        associativity_keys.clear()
        ring = self.edited_product(corpus, monkeypatch, lambda ring: None)
        assert associativity_keys == [None, None]  # B(C2) and B(S3), not their product
        assert whole_table_verdict(ring) is None

    @pytest.mark.parametrize("edits, message", [
        # two rows edited: the first in row-major order is named
        ([(5, 5, 5), (3, 4, 2)], "product row (3, 4) is not block 1's row moved by 2"),
        ([(1, 0, 0)], "product row (1, 0) is not block 0's row moved by 0"),
        ([(0, 3, 2)], "product row (0, 3) across two blocks is not empty"),
        ([(5, 1, 2)], "product row (5, 1) across two blocks is not empty"),
    ])
    def test_edited_row_is_refused(self, corpus, monkeypatch, edits, message):
        def edit(ring):
            for i, j, k in edits:
                self.raise_constant(ring, i, j, k)

        with pytest.raises(NotNatural) as err:
            self.edited_product(corpus, monkeypatch, edit)
        assert str(err.value) == message

    def test_block_with_fewer_reports_than_its_dim(self, corpus):
        # validate reads no basis report, so such a block passes it; the
        # product would have 5 entries for a 6-coordinate unit
        b = burnside_ring(corpus["C2"])
        short = RingPresentation(b.dim, b.structure_constants, list(b.unit_vector), b.basis,
                                 b.basis_info[:-1]).validate()
        with pytest.raises(NotNatural) as err:
            product_ring([short, burnside_ring(corpus["S3"])])
        assert str(err.value) == "product unit is not the blocks' units concatenated"

    def test_unit_that_is_not_the_concatenation(self, corpus, monkeypatch):
        def edit(ring):
            ring.unit_vector[2] += 1

        with pytest.raises(NotNatural) as err:
            self.edited_product(corpus, monkeypatch, edit)
        assert str(err.value) == "product unit is not the blocks' units concatenated"


@settings(max_examples=60, deadline=None)
@given(groups_with_gsets())
def test_hadamard_blocks_on_drawn_gsets(case):
    g, x = case
    ring = hadamard_ring(g, x)
    blocks = _orbit_blocks(ring, x)
    assert _blocks_of(ring) == blocks
    _assert_blocks_annihilate(ring, rings._meet, blocks or [range(ring.dim)])
    assert whole_table_verdict(ring) is None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_blockwise_associativity_matches_oracle(data):
    # two tables interleaved into one block-diagonal table, each maybe with
    # one constant changed: the check by blocks gives the whole check's
    # verdict and witness
    parts = [data.draw(tables(max_dim=4)) for _ in range(2)]
    d = sum(map(len, parts))
    where = data.draw(st.permutations(range(d)))
    keys = [None] * d
    c = [[[0] * d for _ in range(d)] for _ in range(d)]
    start = 0
    for n, part in enumerate(parts):
        pos = where[start:start + len(part)]
        start += len(part)
        for a, i in enumerate(pos):
            keys[i] = n
            for b, j in enumerate(pos):
                for e, k in enumerate(pos):
                    c[i][j][k] = part[a][b][e]
    expected = oracle_associativity_failure(c)
    ring = RingPresentation(d, sparse_rows(c), [0] * d, blocks=keys)
    if expected is None:
        ring._check_associativity(keys)
    else:
        with pytest.raises(NotNatural) as err:
            ring._check_associativity(keys)
        assert str(err.value) == f"associativity fails at (i, j, k, l) = {expected}"
