"""Isomorphism search, transitive decomposition, basis enumeration, and
the brute-force oracle agreement."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import gburnside as gb
from gburnside import classify
from gburnside.classify import (
    BasisCatalog,
    are_isomorphic,
    brute_force_basis,
    crossed_fingerprint,
    enumerate_basis,
    express_by_decomposition,
    express_in_basis,
    transitive_decomposition,
)
from gburnside.crossed import CrossedGSet, crossed_coproduct, tensor, unit_object
from gburnside.errors import BaseMismatch, UnmatchedPiece, WeightMismatch
from gburnside.gsets import GSet, is_transitive
from gburnside.sampling import sample_many, shuffle_fibers

from conftest import GROUP_TABLES_LEQ8, cyclic_table, regular_gset, table_product
from oracles import all_subgroups, subgroup_conjugacy_classes, validate_crossed


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

    def test_same_fingerprint_different_orbit_count(self, c2):
        # two fixed points against one free orbit: both have two elements
        # labeled 0, and they split into two pieces against one
        weight = gb.trivial_gmonoid(c2)
        fixed = validate_crossed(GSet(c2, [2], [[0, 1], [0, 1]]), weight, [[0, 0]])
        free = validate_crossed(GSet(c2, [2], [[0, 1], [1, 0]]), weight, [[0, 0]])
        assert crossed_fingerprint(fixed) == crossed_fingerprint(free)
        assert are_isomorphic(fixed, free) is None

    def test_s3_points_with_distinct_central_values(self, s3):
        # one-point carriers force exact label equality; conjugate labels
        # do not identify because the carrier map is unique
        conj = gb.conjugation_action(s3)
        basis = enumerate_basis(s3, conj)
        points = [e for e in basis.entries if e.crossed.carrier.total_size == 1]
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
        small = [c for c in samples if c.carrier.total_size <= 6]
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
        assert [members for _, members in pieces] == [[[0], []], [[], [0]]]

    def test_regular_with_unit_labels(self, c2):
        conj = gb.conjugation_action(c2)
        c = validate_crossed(regular_gset(c2), conj, [[0, 0]])
        ((piece, members),) = transitive_decomposition(c)
        assert piece == c
        assert members == [[0, 1]]

    def test_empty_carrier(self, c2):
        conj = gb.conjugation_action(c2)
        from gburnside.crossed import empty_crossed

        assert transitive_decomposition(empty_crossed(c2, conj)) == []

    def test_pieces_relabel_their_input(self, s3):
        conj = gb.conjugation_action(s3)
        for c in sample_many(s3, conj, 12, seed=9):
            pieces = transitive_decomposition(c)
            for piece, members in pieces:
                assert is_transitive(s3, piece.carrier)
                assert piece.label == [[c.label[x][i] for i in members[x]] for x in s3.objects]
            for x in s3.objects:
                ids = sorted(i for _, members in pieces for i in members[x])
                assert ids == list(range(c.carrier.size(x)))


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
        found = brute_force_basis(c2, gb.conjugation_action(c2))
        assert len(found) == 4

    def test_trivial_group_trivial_weight(self):
        g = gb.from_group(cyclic_table(1))
        assert len(brute_force_basis(g, gb.trivial_gmonoid(g))) == 1

    def test_c3_conjugation(self, c3):
        assert len(brute_force_basis(c3, gb.conjugation_action(c3))) == 6

    def test_matches_enumerate_small_orders(self):
        # the G-set targets cross-check the Hadamard basis
        for name in ("trivial", "C2", "C3", "C4", "V4", "S3", "D4", "Q8"):
            g = gb.from_group(GROUP_TABLES_LEQ8[name])
            conj = gb.conjugation_action(g)
            targets = (conj, gb.trivial_gmonoid(g), conj.underlying(), regular_gset(g))
            for weight in targets:
                catalog = enumerate_basis(g, weight)
                brute = brute_force_basis(g, weight)
                assert len(brute) == catalog.dim
                for crossed in brute:
                    assert catalog.find(crossed) is not None

    def test_works_on_disconnected_groupoid(self, c2, c3):
        u, _ = gb.disjoint_union([c2, c3])
        weight = gb.conjugation_action(u)
        brute = brute_force_basis(u, weight)
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
            brute = brute_force_basis(g, weight)
            assert catalog.dim == len(brute) == dim
            for crossed in brute:
                assert catalog.find(crossed) is not None


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
            doubled = crossed_coproduct(c, c).validate()
            lhs = express_in_basis(doubled, catalog)
            single = express_in_basis(c, catalog)
            assert lhs == [2 * v for v in single]

    def test_free_square_over_c2(self, c2):
        catalog = enumerate_basis(c2, gb.conjugation_action(c2))
        free_e = catalog.entries[0].crossed
        coords = express_in_basis(tensor(free_e, free_e).validate(), catalog)
        assert coords == [2, 0, 0, 0]

    def test_unmatched_piece(self, c2):
        conj = gb.conjugation_action(c2)
        catalog = enumerate_basis(c2, conj)
        truncated = BasisCatalog(c2, conj, catalog.entries[:3])
        missing = catalog.entries[3].crossed
        with pytest.raises(UnmatchedPiece):
            express_in_basis(missing, truncated)

    def test_piece_missing_from_the_catalog(self, c2):
        # the catalog keeps the free orbit and lacks the fixed point
        weight = gb.trivial_gmonoid(c2)
        catalog = enumerate_basis(c2, weight)
        truncated = BasisCatalog(c2, weight, catalog.entries[:1])
        missing = catalog.entries[1].crossed
        assert truncated.find(missing) is None
        with pytest.raises(UnmatchedPiece) as raised:
            express_by_decomposition(missing, truncated)
        assert str(raised.value) == "piece with fingerprint ((1, (0,)),) matched no catalog entry"

    def test_find_leaves_equality_unchanged(self, c2):
        catalog = enumerate_basis(c2, gb.conjugation_action(c2))
        fresh = BasisCatalog(c2, catalog.weight, list(catalog.entries))
        assert catalog == fresh
        piece, _ = transitive_decomposition(catalog.entries[1].crossed)[0]
        assert catalog.find(piece) == 1
        assert catalog == fresh

    @pytest.mark.parametrize("name", ["C2+S3", "(C2xPair(2))+C3"])
    def test_find_matches_a_shuffled_entry_in_its_component(self, corpus, name):
        # find compares no component: the components share no objects, so an
        # entry's fingerprint alone keeps every other component's entries out
        g = corpus[name]
        rng = random.Random(3)
        for weight in (gb.conjugation_action(g), gb.trivial_gmonoid(g)):
            catalog = enumerate_basis(g, weight)
            for k, e in enumerate(catalog.entries):
                assert catalog.find(shuffle_fibers(e.crossed, rng).validate()) == k

    def test_fingerprint_is_iso_invariant(self, corpus):
        g = corpus["C2+S3"]
        conj = gb.conjugation_action(g)
        rng = random.Random(0)
        for c in sample_many(g, conj, 10, seed=6):
            assert crossed_fingerprint(c) == crossed_fingerprint(
                shuffle_fibers(c, rng)
            )


# the three ways to read a crossed set against a catalog
ENTRY_POINTS = pytest.mark.parametrize(
    "entry", [express_in_basis, express_by_decomposition, lambda c, catalog: catalog.find(c)],
    ids=["express_in_basis", "express_by_decomposition", "find"],
)


class TestForeignInputs:
    """A catalog refuses a crossed set over another groupoid or labeled in
    another target, instead of answering with coordinates of nothing."""

    def test_enumerate_basis_refuses_a_weight_over_another_groupoid(self, c2, s3, monkeypatch):
        walked = []
        monkeypatch.setattr(classify, "subgroup_classes", lambda *args: walked.append(args))
        with pytest.raises(BaseMismatch) as refused:
            enumerate_basis(c2, gb.conjugation_action(s3))
        assert str(refused.value) == "weight does not live over this groupoid"
        assert walked == []

    @ENTRY_POINTS
    def test_entry_points_refuse_another_groupoid(self, c2, s3, entry):
        catalog = enumerate_basis(c2, gb.conjugation_action(c2))
        with pytest.raises(BaseMismatch) as refused:
            entry(unit_object(s3, gb.conjugation_action(s3)), catalog)
        assert str(refused.value) == "crossed set does not live over the catalog's groupoid"

    @ENTRY_POINTS
    @pytest.mark.parametrize("target", ["trivial", "underlying"])
    def test_entry_points_refuse_another_target(self, s3, entry, target):
        conj = gb.conjugation_action(s3)
        catalog = enumerate_basis(s3, conj)
        if target == "trivial":
            c = unit_object(s3, gb.trivial_gmonoid(s3))
        else:  # the same labels, but in the G-set under the weight
            c = CrossedGSet(gb.terminal_gset(s3), conj.underlying(), [[conj.unit(0)]])
        with pytest.raises(WeightMismatch) as refused:
            entry(c, catalog)
        assert str(refused.value) == "crossed set is not labeled in the catalog's target"

    def test_an_equal_target_is_admitted(self, s3):
        conj = gb.conjugation_action(s3)
        catalog = enumerate_basis(s3, conj)
        twin = gb.GMonoid(s3, list(conj.monoids), list(conj.action))
        unit = CrossedGSet(gb.terminal_gset(s3), twin, [[conj.unit(0)]])
        assert express_in_basis(unit, catalog) == express_by_decomposition(unit, catalog)


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


def brute_force_subgroups(table) -> list[frozenset[int]]:
    """Every subset that holds the identity and is closed under the table,
    in the order ``all_subgroups`` promises; the independent oracle for the
    lattice (finite and closed under products makes a subset a subgroup)."""
    n = len(table)
    e = next(a for a in range(n) if all(table[a][b] == b for b in range(n)))
    others = [a for a in range(n) if a != e]
    subs = []
    for r in range(len(others) + 1):
        for rest in itertools.combinations(others, r):
            sub = frozenset((e, *rest))
            if all(table[a][b] in sub for a in sub for b in sub):
                subs.append(sub)
    return sorted(subs, key=lambda h: (len(h), sorted(h)))


def renumbered(table, perm) -> list[list[int]]:
    """The Cayley table with element a renamed perm[a]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


def s4_table():
    return gb.group_table_from_perm_gens([[1, 0, 2, 3], [1, 2, 3, 0]])


def a4_table():
    return gb.group_table_from_perm_gens([[1, 2, 0, 3], [0, 2, 3, 1]])


def d8_table():
    """The dihedral group of order 16, the symmetries of an octagon."""
    return gb.group_table_from_perm_gens(
        [[(i + 1) % 8 for i in range(8)], [(-i) % 8 for i in range(8)]]
    )


def c2_4_table():
    c2 = cyclic_table(2)
    return table_product(table_product(table_product(c2, c2), c2), c2)


class TestSubgroupLattice:
    @pytest.mark.parametrize("name", ["C2", "C3", "S3", "D4", "Q8"])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force_under_renumbering(self, name, data):
        table = GROUP_TABLES_LEQ8[name]
        perm = data.draw(st.permutations(range(len(table))))
        t = renumbered(table, perm)
        assert all_subgroups(t) == brute_force_subgroups(t)

    @pytest.mark.parametrize(
        "build, order, subgroups, classes",
        [(s4_table, 24, 30, 11), (a4_table, 12, 10, 5), (d8_table, 16, 19, 11),
         (c2_4_table, 16, 67, 67)],
        ids=["S4", "A4", "D8", "C2^4"],
    )
    def test_published_counts(self, build, order, subgroups, classes):
        table = build()
        assert len(table) == order
        assert len(all_subgroups(table)) == subgroups
        assert len(subgroup_conjugacy_classes(table)) == classes


def a5_table():
    return gb.group_table_from_perm_gens([[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]])


def s5_table():
    return gb.group_table_from_perm_gens([[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]])


def c2_5_table():
    return table_product(c2_4_table(), cyclic_table(2))


def classes_from_lattice(table) -> list[list[frozenset[int]]]:
    """The conjugacy classes of ``all_subgroups`` under conjugation, in the
    order ``subgroup_conjugacy_classes`` promises: the oracle for the
    class-wise construction."""
    n = len(table)
    e = next(a for a in range(n) if all(table[a][b] == b for b in range(n)))
    inv = [next(b for b in range(n) if table[a][b] == e) for a in range(n)]
    remaining = set(all_subgroups(table))
    classes = []
    while remaining:
        sub = min(remaining, key=lambda h: (len(h), sorted(h)))
        orbit = {frozenset(table[table[a][h]][inv[a]] for h in sub) for a in range(n)}
        classes.append(sorted(orbit, key=sorted))
        remaining -= orbit
    return classes


class TestSubgroupClasses:
    @pytest.mark.parametrize(
        "build, classes",
        [(lambda: GROUP_TABLES_LEQ8["S3"], 4), (lambda: GROUP_TABLES_LEQ8["D4"], 8),
         (lambda: GROUP_TABLES_LEQ8["Q8"], 6), (a4_table, 5), (s4_table, 11), (d8_table, 11),
         (c2_4_table, 67), (c2_5_table, 374), (a5_table, 9), (s5_table, 19)],
        ids=["S3", "D4", "Q8", "A4", "S4", "D8", "C2^4", "C2^5", "A5", "S5"],
    )
    def test_matches_the_classes_of_the_lattice(self, build, classes):
        table = build()
        found = subgroup_conjugacy_classes(table)
        assert found == classes_from_lattice(table)
        assert len(found) == classes

    @pytest.mark.parametrize(
        "build", [s4_table, a4_table, d8_table, lambda: GROUP_TABLES_LEQ8["Q8"]],
        ids=["S4", "A4", "D8", "Q8"],
    )
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_matches_the_lattice_under_renumbering(self, build, data):
        table = build()
        t = renumbered(table, data.draw(st.permutations(range(len(table)))))
        assert subgroup_conjugacy_classes(t) == classes_from_lattice(t)

    def test_s5_closes_one_extension_per_class_and_coset(self, monkeypatch):
        # the found member R of each class is extended by one element per
        # left coset aR other than R: sum over the 19 classes of
        # 120 / |R| - 1 = 496 closures, against 1,971 for one per element
        # outside R and 17,509 for the whole lattice of 156 subgroups
        calls = []
        closure = classify.subgroup_closure

        def counted(table, seed):
            calls.append(seed)
            return closure(table, seed)

        monkeypatch.setattr(classify, "subgroup_closure", counted)
        classes = subgroup_conjugacy_classes(s5_table())
        assert len(classes) == 19
        assert len(calls) == sum(120 // len(cls[0]) - 1 for cls in classes) == 496

    def test_s6_published_counts(self):
        # 56 classes (OEIS A000638) of 1,455 subgroups (A005432)
        table = gb.group_table_from_perm_gens([[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]])
        assert len(table) == 720
        classes = subgroup_conjugacy_classes(table)
        assert len(classes) == 56
        assert sum(len(cls) for cls in classes) == 1455

    @pytest.mark.parametrize(
        "build", [s4_table, a4_table, d8_table, lambda: GROUP_TABLES_LEQ8["Q8"]],
        ids=["S4", "A4", "D8", "Q8"],
    )
    def test_recorded_normalizer_of_the_canonical_member(self, build):
        table = build()
        n = len(table)
        e = next(a for a in range(n) if all(table[a][b] == b for b in range(n)))
        inv = [next(b for b in range(n) if table[a][b] == e) for a in range(n)]
        found = classify.subgroup_classes(table, range(n), e, inv)
        assert [cls for cls, _ in found] == subgroup_conjugacy_classes(table)
        for cls, normalizer in found:
            canon = cls[0]
            assert sorted(normalizer) == [
                a for a in range(n)
                if {table[table[a][h]][inv[a]] for h in canon} == canon
            ]


def conjugation_action_groupoid(g: gb.FiniteGroupoid) -> gb.FiniteGroupoid:
    return gb.action_groupoid(g, gb.conjugation_action(g).underlying()).groupoid


def s3_pair2() -> gb.FiniteGroupoid:
    return gb.direct_product(gb.from_group(GROUP_TABLES_LEQ8["S3"]), gb.pair_groupoid(2))


class TestWalkOnLoopIds:
    """The class walk on a groupoid's own table, over the loops at a
    component representative, is the walk on the table of its isotropy
    group, whose elements are loop positions, renamed by the inclusion:
    the same classes in the same order, each listing the same members in
    the same order, with the same normalizers."""

    @staticmethod
    def assert_walks_agree(g: gb.FiniteGroupoid) -> None:
        for rep in gb.connected_components(g).representatives:
            iso, inclusion = gb.isotropy_group(g, rep)
            loop = inclusion.morphism_map
            by_position = classify.subgroup_classes(
                iso.compose_table, iso.morphisms, iso.identity[0], iso.inverse
            )
            by_loop = classify.subgroup_classes(
                g.compose_table, g.loops(rep), g.identity[rep], g.inverse
            )
            assert [cls for cls, _ in by_loop] == [
                [frozenset(loop[h] for h in sub) for sub in cls] for cls, _ in by_position
            ]
            assert [set(normalizer) for _, normalizer in by_loop] == [
                {loop[h] for h in normalizer} for _, normalizer in by_position
            ]

    def test_corpus(self, corpus):
        for g in corpus.values():
            self.assert_walks_agree(g)

    @pytest.mark.parametrize(
        "build",
        [s3_pair2, lambda: conjugation_action_groupoid(s3_pair2()),
         lambda: conjugation_action_groupoid(gb.from_group(a4_table()))],
        ids=["S3xPair(2)", "S3xPair(2)-conjugation", "A4-conjugation"],
    )
    def test_loop_ids_that_are_not_positions(self, build):
        g = build()
        reps = gb.connected_components(g).representatives
        assert any(g.loops(rep) != list(range(len(g.loops(rep)))) for rep in reps)
        self.assert_walks_agree(g)
