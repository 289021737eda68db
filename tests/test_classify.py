"""Isomorphism search, transitive decomposition, basis enumeration, and
the brute-force oracle agreement."""

from __future__ import annotations

import itertools
import random

import pytest

import gburnside as gb
from gburnside.classify import (
    BasisCatalog,
    all_subgroups,
    are_isomorphic,
    brute_force_basis,
    crossed_fingerprint,
    enumerate_basis,
    express_in_basis,
    subgroup_conjugacy_classes,
    transitive_decomposition,
)
from gburnside.crossed import crossed_coproduct, tensor, unit_object, validate_crossed
from gburnside.errors import BoundTooSmall, UnmatchedPiece, WeightMismatch
from gburnside.sampling import sample_many, shuffle_fibers

from conftest import GROUP_TABLES_LEQ8, cyclic_table, regular_gset


def exhaustive_iso_exists(c1, c2) -> bool:
    """Try every per-object bijection; the independent oracle for
    are_isomorphic on small carriers."""
    g = c1.carrier.base
    if any(c1.carrier.size(x) != c2.carrier.size(x) for x in g.objects):
        return False
    pools = [
        itertools.permutations(range(c1.carrier.size(x))) for x in g.objects
    ]
    for combo in itertools.product(*pools):
        ok = True
        for x in g.objects:
            for i in range(c1.carrier.size(x)):
                if c1.label[x][i] != c2.label[x][combo[x][i]]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        for m in g.morphisms:
            dx, cx = g.dom[m], g.cod[m]
            for i in range(c1.carrier.size(dx)):
                if combo[cx][c1.carrier.action[m][i]] != c2.carrier.action[m][combo[dx][i]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


class TestAreIsomorphic:
    def test_self_iso_is_identity_like(self, c2):
        conj = gb.conjugation_action(c2)
        c = enumerate_basis(c2, conj).entries[0].crossed
        witness = are_isomorphic(c, c)
        assert witness is not None
        assert witness.components == [[0, 1]]

    def test_fixed_points_with_different_labels(self, c2):
        conj = gb.conjugation_action(c2)
        e = validate_crossed(gb.terminal_gset(c2), conj, [[0]])
        s = validate_crossed(gb.terminal_gset(c2), conj, [[1]])
        assert are_isomorphic(e, s) is None

    def test_s3_points_with_distinct_central_values(self, s3):
        # one-point carriers force exact label equality; conjugate labels
        # do not identify because the carrier map is unique
        conj = gb.conjugation_action(s3)
        basis = enumerate_basis(s3, conj)
        points = [e for e in basis.entries if e.crossed.total_size == 1]
        for a, b in itertools.combinations(points, 2):
            assert are_isomorphic(a.crossed, b.crossed) is None

    def test_shuffle_preserves_class(self, corpus):
        g = corpus["C2+S3"]
        conj = gb.conjugation_action(g)
        rng = random.Random(3)
        for c in sample_many(g, conj, 10, seed=11):
            witness = are_isomorphic(c, shuffle_fibers(c, rng).validate())
            assert witness is not None
            witness.validate()

    def test_witnesses_invertible(self, s3):
        conj = gb.conjugation_action(s3)
        rng = random.Random(5)
        for c in sample_many(s3, conj, 8, seed=2):
            other = shuffle_fibers(c, rng).validate()
            fwd = are_isomorphic(c, other)
            back = are_isomorphic(other, c)
            assert (fwd is None) == (back is None)
            if fwd is not None:
                for x in c.carrier.base.objects:
                    inverted = [0] * len(fwd.components[x])
                    for i, j in enumerate(fwd.components[x]):
                        inverted[j] = i
                    composed = [fwd.components[x][k] for k in back.components[x]]
                    # back then fwd is a permutation; both are label-preserving
                    assert sorted(composed) == list(range(len(composed)))

    def test_agrees_with_exhaustive_search(self, corpus):
        g = corpus["C2+S3"]
        conj = gb.conjugation_action(g)
        samples = sample_many(g, conj, 14, seed=23, max_fiber=3, max_orbits=2)
        small = [c for c in samples if c.total_size <= 6]
        assert len(small) >= 6
        checked = 0
        for a, b in itertools.combinations(small, 2):
            expected = exhaustive_iso_exists(a, b)
            assert (are_isomorphic(a, b) is not None) == expected
            checked += 1
        assert checked >= 10

    def test_weight_mismatch(self, c2):
        conj = gb.conjugation_action(c2)
        triv = gb.trivial_gmonoid(c2)
        with pytest.raises(WeightMismatch):
            are_isomorphic(unit_object(c2, conj), unit_object(c2, triv))


class TestTransitiveDecomposition:
    def test_unit_over_disconnected_base(self, c2, c3):
        u, _ = gb.disjoint_union([c2, c3])
        conj = gb.conjugation_action(u)
        pieces = transitive_decomposition(unit_object(u, conj))
        assert [p.component_rep for p in pieces] == [0, 1]

    def test_regular_with_unit_labels(self, c2):
        conj = gb.conjugation_action(c2)
        c = validate_crossed(regular_gset(c2), conj, [[0, 0]])
        (piece,) = transitive_decomposition(c)
        subgroup, label = piece.standard_pair
        assert subgroup == frozenset({c2.identity[0]})
        assert label == 0

    def test_empty_carrier(self, c2):
        conj = gb.conjugation_action(c2)
        from gburnside.crossed import empty_crossed

        assert transitive_decomposition(empty_crossed(c2, conj)) == []

    def test_standard_pair_label_is_invariant(self, s3):
        conj = gb.conjugation_action(s3)
        for c in sample_many(s3, conj, 12, seed=9):
            for piece in transitive_decomposition(c):
                subgroup, label = piece.standard_pair
                for h in subgroup:
                    assert conj.action[h][label] == label


class TestEnumerateBasis:
    def test_trivial_group(self):
        g = gb.from_group(cyclic_table(1))
        assert enumerate_basis(g, gb.conjugation_action(g)).dim == 1

    def test_c2_pairs(self, c2):
        catalog = enumerate_basis(c2, gb.conjugation_action(c2))
        pairs = [
            (sorted(e.standard_pair[0]), e.standard_pair[1])
            for e in catalog.entries
        ]
        assert pairs == [([0], 0), ([0], 1), ([0, 1], 0), ([0, 1], 1)]

    def test_s3_class_profile(self, s3):
        catalog = enumerate_basis(s3, gb.conjugation_action(s3))
        assert catalog.dim == 8
        by_subgroup_order = {}
        for e in catalog.entries:
            by_subgroup_order.setdefault(len(e.standard_pair[0]), 0)
            by_subgroup_order[len(e.standard_pair[0])] += 1
        assert by_subgroup_order == {1: 3, 2: 2, 3: 2, 6: 1}

    def test_entries_pairwise_non_isomorphic(self, corpus):
        g = corpus["C2+S3"]
        catalog = enumerate_basis(g, gb.conjugation_action(g))
        for a, b in itertools.combinations(catalog.entries, 2):
            assert are_isomorphic(a.crossed, b.crossed) is None

    def test_trivial_weight_counts_subgroup_classes(self, corpus):
        for name in ("C2", "S3", "C2+S3", "C2xPair(2)"):
            g = corpus[name]
            catalog = enumerate_basis(g, gb.trivial_gmonoid(g))
            expected = 0
            for rep in gb.connected_components(g).representatives:
                loops = g.loops(rep)
                pos = {m: k for k, m in enumerate(loops)}
                table = [
                    [pos[g.compose_table[a][b]] for b in loops] for a in loops
                ]
                expected += len(subgroup_conjugacy_classes(table))
            assert catalog.dim == expected

    def test_deterministic(self, s3):
        conj = gb.conjugation_action(s3)
        a = enumerate_basis(s3, conj)
        b = enumerate_basis(s3, conj)
        assert [e.standard_pair for e in a.entries] == [
            e.standard_pair for e in b.entries
        ]


class TestBruteForce:
    def test_c2_conjugation(self, c2):
        found = brute_force_basis(c2, gb.conjugation_action(c2), 2)
        assert len(found) == 4

    def test_trivial_group_trivial_weight(self):
        g = gb.from_group(cyclic_table(1))
        assert len(brute_force_basis(g, gb.trivial_gmonoid(g), 1)) == 1

    def test_c3_conjugation(self, c3):
        assert len(brute_force_basis(c3, gb.conjugation_action(c3), 3)) == 6

    def test_bound_too_small(self, s3):
        with pytest.raises(BoundTooSmall):
            brute_force_basis(s3, gb.conjugation_action(s3), 5)

    def test_matches_enumerate_small_orders(self):
        # the G-set targets cross-check the Hadamard basis
        for name in ("trivial", "C2", "C3", "C4", "V4", "S3", "D4", "Q8"):
            g = gb.from_group(GROUP_TABLES_LEQ8[name])
            conj = gb.conjugation_action(g)
            targets = (conj, gb.trivial_gmonoid(g), conj.underlying(), regular_gset(g))
            for weight in targets:
                catalog = enumerate_basis(g, weight)
                brute = brute_force_basis(g, weight, g.n_morphisms)
                assert len(brute) == catalog.dim
                for crossed in brute:
                    (piece,) = transitive_decomposition(crossed)
                    assert catalog.find(piece) is not None

    def test_works_on_disconnected_groupoid(self, c2, c3):
        u, _ = gb.disjoint_union([c2, c3])
        weight = gb.conjugation_action(u)
        brute = brute_force_basis(u, weight, 3)
        assert len(brute) == enumerate_basis(u, weight).dim == 10

    def test_identity_not_at_index_zero(self):
        # relabel C3 so its identity sits at index 2
        base = cyclic_table(3)
        perm = [2, 0, 1]
        inv = [1, 2, 0]
        table = [
            [perm[base[inv[i]][inv[j]]] for j in range(3)] for i in range(3)
        ]
        g = gb.from_group(table)
        assert g.identity[0] == 2
        conj = gb.conjugation_action(g)
        for weight, dim in ((conj, 6), (conj.underlying(), 6), (regular_gset(g), 1)):
            catalog = enumerate_basis(g, weight)
            brute = brute_force_basis(g, weight, 3)
            assert catalog.dim == len(brute) == dim
            for crossed in brute:
                (piece,) = transitive_decomposition(crossed)
                assert catalog.find(piece) is not None


class TestExpressInBasis:
    def test_basis_entries_are_indicators(self, c2):
        catalog = enumerate_basis(c2, gb.conjugation_action(c2))
        for k, e in enumerate(catalog.entries):
            coords = express_in_basis(e.crossed, catalog)
            assert coords == [1 if i == k else 0 for i in range(catalog.dim)]

    def test_additivity(self, s3):
        conj = gb.conjugation_action(s3)
        catalog = enumerate_basis(s3, conj)
        for c in sample_many(s3, conj, 6, seed=4):
            doubled = crossed_coproduct(c, c)
            lhs = express_in_basis(doubled, catalog)
            single = express_in_basis(c, catalog)
            assert lhs == [2 * v for v in single]

    def test_free_square_over_c2(self, c2):
        catalog = enumerate_basis(c2, gb.conjugation_action(c2))
        free_e = catalog.entries[0].crossed
        coords = express_in_basis(tensor(free_e, free_e), catalog)
        assert coords == [2, 0, 0, 0]

    def test_unmatched_piece(self, c2):
        conj = gb.conjugation_action(c2)
        catalog = enumerate_basis(c2, conj)
        truncated = BasisCatalog(c2, conj, catalog.entries[:3], {})
        for k, e in enumerate(truncated.entries):
            truncated.index.setdefault(e.fingerprint, []).append(k)
        missing = catalog.entries[3].crossed
        with pytest.raises(UnmatchedPiece):
            express_in_basis(missing, truncated)

    def test_fingerprint_is_iso_invariant(self, corpus):
        g = corpus["C2+S3"]
        conj = gb.conjugation_action(g)
        rng = random.Random(0)
        for c in sample_many(g, conj, 10, seed=6):
            assert crossed_fingerprint(c) == crossed_fingerprint(
                shuffle_fibers(c, rng)
            )


class TestSubgroupHelpers:
    def test_s3_subgroups(self, s3):
        loops = s3.loops(0)
        pos = {m: k for k, m in enumerate(loops)}
        table = [[pos[s3.compose_table[a][b]] for b in loops] for a in loops]
        subs = all_subgroups(table)
        assert [len(h) for h in subs] == [1, 2, 2, 2, 3, 6]
        classes = subgroup_conjugacy_classes(table)
        assert [len(cls[0]) for cls in classes] == [1, 2, 3, 6]
        assert [len(cls) for cls in classes] == [1, 3, 1, 1]

    def test_d4_subgroup_count(self):
        table = GROUP_TABLES_LEQ8["D4"]
        assert len(all_subgroups(table)) == 10
        assert len(subgroup_conjugacy_classes(table)) == 8
