"""Groupoid validation, constructors, and the structural results."""

from __future__ import annotations

import copy
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import gburnside as gb
from gburnside.errors import (
    DomCodMismatch,
    EmptyObjectSet,
    MissingIdentity,
    MissingInverse,
    NonAssociative,
    NotAGroup,
    NotConnected,
    UnknownObject,
)
from gburnside.groupoid import SENTINEL, FiniteGroupoid, check_group_table, component_transports
from gburnside.gsets import conjugation_loops

from conftest import (
    NON_ASSOCIATIVE_LOOP,
    build_corpus,
    cyclic_table,
    editable_tables,
    s3_table,
)
from oracles import (
    NotSubgroupoid,
    NotWide,
    SubgroupoidSpec,
    compose_functors,
    connected_structure_iso,
    functor_is_isomorphism,
    identity_functor,
    inclusion_equivalence,
    is_normal_subgroupoid,
)


class TestValidateGroupoid:
    def test_c2_cayley_table(self):
        g = gb.from_group(cyclic_table(2))
        assert g.n_objects == 1
        assert g.n_morphisms == 2

    def test_dropped_compose_entry(self, c2):
        tables = editable_tables(c2)
        tables["compose_table"][1][1] = SENTINEL
        bad = FiniteGroupoid(c2.n_objects, **tables)
        with pytest.raises(DomCodMismatch):
            gb.validate_groupoid(bad)

    def test_corrupted_inverse_in_pair_groupoid(self):
        g = gb.pair_groupoid(3)
        tables = editable_tables(g)
        # (0,1) has inverse (1,0); point it at a loop instead
        tables["inverse"][1] = 0
        bad = FiniteGroupoid(g.n_objects, **tables)
        with pytest.raises(MissingInverse):
            gb.validate_groupoid(bad)

    def test_wrong_identity(self, c2):
        tables = editable_tables(c2)
        tables["identity"][0] = 1
        bad = FiniteGroupoid(c2.n_objects, **tables)
        with pytest.raises(MissingIdentity):
            gb.validate_groupoid(bad)

    def test_nonassociative_table(self):
        # corrupt one compose entry of S3 so a triple fails before the
        # unit/inverse checks would notice
        g = gb.from_group(s3_table())
        tables = editable_tables(g)
        tables["compose_table"][4][5] = (g.compose_table[4][5] + 1) % 6
        bad = FiniteGroupoid(g.n_objects, **tables)
        with pytest.raises(gb.errors.GBError):
            gb.validate_groupoid(bad)

    def test_empty_rejected(self):
        with pytest.raises(EmptyObjectSet):
            gb.validate_groupoid(FiniteGroupoid(0, [], [], [], [], []))


C2 = gb.from_group(cyclic_table(2))
C3 = gb.from_group(cyclic_table(3))
PAIR2 = gb.pair_groupoid(2)

# each shape refusal of a validator, with the exact message it names
REFUSALS = [
    (lambda: gb.validate_groupoid(FiniteGroupoid(1, [0, 0], [0], [[0, 1], [1, 0]], [0], [0, 1])),
     DomCodMismatch, "dom and cod lists have different lengths"),
    (lambda: gb.validate_groupoid(FiniteGroupoid(1, [0, 1], [0, 0], [[0, 1], [1, 0]], [0], [0, 1])),
     DomCodMismatch, "morphism 1 has dom/cod outside 0..0"),
    (lambda: gb.validate_groupoid(FiniteGroupoid(1, [0, 0], [0, 0], [[0, 1]], [0], [0, 1])),
     DomCodMismatch, "compose table is not |M| x |M|"),
    (lambda: check_group_table([]), NotAGroup, "empty table"),
    (lambda: check_group_table([[0, 1], [1, 2]]), NotAGroup, "table is not n x n over 0..n-1"),
    (lambda: check_group_table([[1, 0], [0, 0]]), NotAGroup, "no identity element"),
    (lambda: gb.group_table_from_perm_gens([]), NotAGroup, "no generators"),
    (lambda: gb.group_table_from_perm_gens([[0, 0]]), NotAGroup,
     "[0, 0] is not a permutation of 0..1"),
    (lambda: gb.GroupoidFunctor(C2, C2, [], [0, 1]).validate(),
     DomCodMismatch, "object map does not cover every object"),
    (lambda: gb.GroupoidFunctor(C2, C2, [0], [0]).validate(),
     DomCodMismatch, "morphism map does not cover every morphism"),
    (lambda: gb.GroupoidFunctor(C2, C2, [1], [0, 1]).validate(),
     UnknownObject, "object image 1 out of range"),
    (lambda: gb.GroupoidFunctor(C2, C2, [0], [0, 2]).validate(),
     DomCodMismatch, "morphism image 2 out of range"),
    (lambda: gb.GroupoidFunctor(PAIR2, PAIR2, [0, 1], [0, 2, 2, 3]).validate(),
     DomCodMismatch, "dom/cod not preserved at morphism 1"),
    (lambda: gb.GroupoidFunctor(C3, C3, [0], [0, 2, 2]).validate(),
     NonAssociative, "composition not preserved at pair (1, 1)"),
    (lambda: component_transports(C2, 1), UnknownObject, "object 1 not in 0..0"),
]


@pytest.mark.parametrize("build,error,message", REFUSALS, ids=[case[2] for case in REFUSALS])
def test_shape_refusals_name_their_error(build, error, message):
    with pytest.raises(error) as refused:
        build()
    assert str(refused.value) == message


class TestImmutable:
    """Tables are frozen at construction, so every cache answers from the
    instance's own data; a mutant is a new instance."""

    def test_deepcopy_tables_reject_assignment(self, s3):
        gb.conjugation_action(s3)
        gb.isotropy_group(s3, 0)
        dup = copy.deepcopy(s3)
        with pytest.raises(TypeError):
            dup.compose_table[0][0] = 1
        with pytest.raises(TypeError):
            dup.compose_table[0] = [0] * 6
        for field in ("dom", "cod", "identity", "inverse"):
            with pytest.raises(TypeError):
                getattr(dup, field)[0] = 1
        assert dup == s3

    @pytest.mark.parametrize(
        "field", ["n_objects", "dom", "cod", "compose_table", "identity", "inverse",
                  "n_morphisms", "objects", "morphisms"]
    )
    def test_table_fields_reject_rebinding(self, s3, field):
        # a pass recorded by validate_groupoid must not outlive the tables
        g = gb.validate_groupoid(FiniteGroupoid(1, **editable_tables(s3)))
        before = getattr(g, field)
        with pytest.raises(AttributeError, match=field):
            setattr(g, field, before)
        assert getattr(g, field) is before
        with pytest.raises(AttributeError, match=field):
            delattr(g, field)  # else a later setattr would bind a new table
        assert getattr(g, field) is before
        dup = copy.deepcopy(g)
        with pytest.raises(AttributeError):
            setattr(dup, field, before)

    def test_cached_buckets_are_frozen(self):
        g = gb.pair_groupoid(3)
        with pytest.raises(TypeError):
            g.by_cod(1)[0] = 4
        with pytest.raises(TypeError):
            g.by_dom(1)[0] = 4

    def test_mutant_by_cod_from_own_data(self):
        g = gb.pair_groupoid(3)
        assert list(g.by_cod(1)) == [1, 4, 7]
        tables = editable_tables(g)
        tables["cod"][1] = 0
        mutant = FiniteGroupoid(g.n_objects, **tables)
        assert list(mutant.by_cod(1)) == [4, 7]
        assert list(mutant.by_cod(0)) == [0, 1, 3, 6]
        assert list(g.by_cod(1)) == [1, 4, 7]

    def test_mutant_isotropy_and_conjugation_from_own_data(self, s3):
        conj = gb.conjugation_action(s3)
        iso, _ = gb.isotropy_group(s3, 0)
        # relabel two non-identity elements: a valid group, a different table
        swap = list(range(6))
        a, b = [m for m in range(6) if m != s3.identity[0]][:2]
        swap[a], swap[b] = b, a
        tables = editable_tables(s3)
        tables["compose_table"] = [
            [swap[s3.compose_table[swap[x]][swap[y]]] for y in range(6)] for x in range(6)
        ]
        tables["inverse"] = [swap[s3.inverse[swap[x]]] for x in range(6)]
        relabeled = gb.validate_groupoid(FiniteGroupoid(1, **tables))
        assert relabeled.compose_table != s3.compose_table
        r_iso, _ = gb.isotropy_group(relabeled, 0)
        assert r_iso is not iso
        assert r_iso.compose_table == relabeled.compose_table
        r_conj = gb.conjugation_action(relabeled)
        assert r_conj is not conj
        assert [list(r) for r in relabeled.compose_table] == r_conj.monoids[0].table
        # a corrupted table is rejected, not answered from the original
        tables = editable_tables(s3)
        tables["compose_table"][4][5] = (s3.compose_table[4][5] + 1) % 6
        corrupted = FiniteGroupoid(1, **tables)
        with pytest.raises(gb.errors.GBError):
            gb.isotropy_group(corrupted, 0)
        with pytest.raises(gb.errors.GBError):
            gb.conjugation_action(corrupted)


class TestFromGroup:
    def test_trivial(self):
        g = gb.from_group(cyclic_table(1))
        assert (g.n_objects, g.n_morphisms) == (1, 1)

    def test_s3(self):
        assert gb.from_group(s3_table()).n_morphisms == 6

    def test_semilattice_rejected(self):
        with pytest.raises(NotAGroup):
            gb.from_group([[0, 1], [1, 1]])

    def test_non_associative_loop_rejected(self):
        with pytest.raises(NonAssociative, match=r"\(1, 1, 2\)"):
            gb.from_group(NON_ASSOCIATIVE_LOOP)

    def test_perm_gens_closure(self):
        table = gb.group_table_from_perm_gens([[1, 2, 3, 0]])
        assert len(table) == 4
        g = gb.from_group(table)
        assert g.n_morphisms == 4


class TestPairGroupoid:
    def test_single_object_is_trivial_group(self):
        g = gb.pair_groupoid(1)
        assert (g.n_objects, g.n_morphisms) == (1, 1)

    def test_three_objects(self):
        g = gb.pair_groupoid(3)
        assert (g.n_objects, g.n_morphisms) == (3, 9)

    def test_trivial_isotropy(self):
        g = gb.pair_groupoid(2)
        for x in g.objects:
            assert g.loops(x) == [g.identity[x]]

    def test_zero_rejected(self):
        with pytest.raises(EmptyObjectSet):
            gb.pair_groupoid(0)

    @given(st.integers(min_value=1, max_value=5), st.data())
    def test_isotropy_always_trivial(self, n, data):
        g = gb.pair_groupoid(n)
        x = data.draw(st.integers(min_value=0, max_value=n - 1))
        iso, _ = gb.isotropy_group(g, x)
        assert iso.n_morphisms == 1

    def test_tabulate_holds_the_table_once(self):
        """Each row is frozen as it is filled, so the table never exists both
        as lists and as tuples: the peak stays near the groupoid it returns."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            g = gb.pair_groupoid(24)  # 576 morphisms, a 576 x 576 table
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.n_morphisms == 576
        assert peak - before < 1.25 * (kept - before), (peak - before, kept - before)


class TestDisjointUnion:
    def test_c2_plus_s3(self, c2, s3):
        u, injections = gb.disjoint_union([c2, s3])
        assert (u.n_objects, u.n_morphisms) == (2, 8)
        assert gb.connected_components(u).count == 2
        assert len(injections) == 2

    def test_single_part_identity_reindexing(self, c2):
        u, (inj,) = gb.disjoint_union([c2])
        assert u == c2
        assert inj.morphism_map == [0, 1]

    def test_pair2_twice(self):
        u, _ = gb.disjoint_union([gb.pair_groupoid(2), gb.pair_groupoid(2)])
        assert (u.n_objects, u.n_morphisms) == (4, 8)
        assert gb.connected_components(u).count == 2

    def test_empty_rejected(self):
        with pytest.raises(EmptyObjectSet):
            gb.disjoint_union([])

    def test_component_count_additivity(self, corpus):
        parts = [corpus["C2+S3"], corpus["Pair(3)"], corpus["C3"]]
        expected = sum(gb.connected_components(p).count for p in parts)
        union, _ = gb.disjoint_union(parts)
        assert gb.connected_components(union).count == expected


class TestDirectProduct:
    def test_c2_times_pair2(self, c2):
        p = gb.direct_product(c2, gb.pair_groupoid(2))
        assert (p.n_objects, p.n_morphisms) == (2, 8)
        assert gb.is_connected(p)

    def test_pair1_is_unit(self, s3):
        p = gb.direct_product(s3, gb.pair_groupoid(1))
        assert (p.n_objects, p.n_morphisms) == (1, 6)
        assert p.compose_table == s3.compose_table

    def test_trivial_square(self):
        t = gb.from_group(cyclic_table(1))
        p = gb.direct_product(t, t)
        assert (p.n_objects, p.n_morphisms) == (1, 1)


class TestComponents:
    def test_pair5_connected(self):
        assert gb.connected_components(gb.pair_groupoid(5)).count == 1

    def test_union_two(self, corpus):
        comps = gb.connected_components(corpus["C2+S3"])
        assert comps.count == 2
        assert comps.representatives == [0, 1]

    def test_one_object(self, s3):
        assert gb.connected_components(s3).count == 1

    def test_per_object_facts_are_kept(self, corpus):
        # loops and transports are derived once per groupoid and object, and
        # the conjugation weight names its elements by the groupoid's own loops
        for name, g in corpus.items():
            loops = conjugation_loops(gb.conjugation_action(g))
            for x in g.objects:
                assert g.loops(x) is g.loops(x), name
                assert component_transports(g, x) is component_transports(g, x), name
                assert loops[x] is g.loops(x), name


class TestIsotropy:
    def test_pair3_trivial(self):
        g = gb.pair_groupoid(3)
        for x in g.objects:
            iso, inc = gb.isotropy_group(g, x)
            assert iso.n_morphisms == 1
            assert inc.morphism_map == [g.identity[x]]

    def test_c2_pair2_gives_c2(self, corpus):
        g = corpus["C2xPair(2)"]
        for x in g.objects:
            iso, _ = gb.isotropy_group(g, x)
            assert iso.n_morphisms == 2

    def test_s3_is_its_own_isotropy(self, s3):
        iso, _ = gb.isotropy_group(s3, 0)
        assert iso.compose_table == s3.compose_table

    def test_unknown_object(self, s3):
        with pytest.raises(UnknownObject):
            gb.isotropy_group(s3, 5)

    def test_built_once_per_object(self, corpus):
        g = corpus["C2xPair(2)"]
        assert gb.isotropy_group(g, 0) is gb.isotropy_group(g, 0)
        assert gb.isotropy_group(g, 1)[0] is not gb.isotropy_group(g, 0)[0]

    def test_one_object_groupoid_is_its_own_isotropy_group(self):
        g = gb.from_group(s3_table())
        iso, inclusion = gb.isotropy_group(g, 0)
        assert iso is g
        assert inclusion.object_map == [0]
        assert inclusion.morphism_map == list(g.morphisms)

    def test_axioms_checked_once_per_instance(self, monkeypatch):
        from gburnside import groupoid

        checked = []
        original = groupoid._check_axioms

        def counted(g):
            checked.append(g)
            original(g)

        monkeypatch.setattr(groupoid, "_check_axioms", counted)
        s4 = gb.from_group(gb.group_table_from_perm_gens([[1, 0, 2, 3], [1, 2, 3, 0]]))
        ring = gb.crossed_burnside_ring(s4, gb.conjugation_action(s4))
        assert ring.dim == 29
        assert checked == [s4]
        assert gb.validate_groupoid(s4) is s4
        assert checked == [s4]


# every object of each of the 11 connected corpus groupoids
CONNECTED_OBJECTS = [
    (name, x) for name, g in build_corpus().items() if gb.is_connected(g) for x in g.objects
]


class TestStructureIso:
    @pytest.mark.parametrize("name,x", CONNECTED_OBJECTS)
    def test_bijective_functor(self, corpus, name, x):
        g = corpus[name]
        phi = connected_structure_iso(g, x)
        assert functor_is_isomorphism(phi)
        assert phi.target.n_morphisms == g.n_morphisms

    def test_idempotent_shape(self, corpus):
        g = corpus["C2xPair(2)"]
        phi = connected_structure_iso(g, 0)
        # target is (isotropy) x Pair(2): same shape as g itself
        assert (phi.target.n_objects, phi.target.n_morphisms) == (2, 8)

    def test_not_connected(self, corpus):
        with pytest.raises(NotConnected):
            connected_structure_iso(corpus["C2+S3"], 0)


class TestInclusionEquivalence:
    def test_one_object_group(self, s3):
        eq = inclusion_equivalence(s3, 0)
        assert eq.retraction.morphism_map == list(s3.morphisms)
        assert eq.eta == [s3.identity[0]]
        assert eq.epsilon == [0]

    def test_pair2_collapse(self):
        g = gb.pair_groupoid(2)
        eq = inclusion_equivalence(g, 0)
        assert eq.retraction.object_map == [0, 0]
        # eta components are the transports 0 -> y
        assert eq.eta[0] == g.identity[0]
        assert g.dom[eq.eta[1]] == 0 and g.cod[eq.eta[1]] == 1

    def test_c2_pair2(self, corpus):
        g = corpus["C2xPair(2)"]
        eq = inclusion_equivalence(g, 0)
        assert sorted(set(eq.retraction.morphism_map)) == [0, 1]

    def test_not_connected(self, corpus):
        with pytest.raises(NotConnected):
            inclusion_equivalence(corpus["C2+S3"], 0)


class TestNormalSubgroupoid:
    def test_identity_only_wide_subgroupoid(self, corpus):
        for name in ("S3", "Pair(3)", "C2+S3"):
            g = corpus[name]
            sub = SubgroupoidSpec(g, frozenset(g.identity))
            assert is_normal_subgroupoid(g, sub) is True

    def test_a3_inside_s3(self, s3, s3_perms):
        a3 = frozenset(
            k for k, p in enumerate(s3_perms) if _parity(p) == 0
        )
        assert len(a3) == 3
        assert is_normal_subgroupoid(s3, SubgroupoidSpec(s3, a3)) is True

    def test_c2_inside_s3_not_normal(self, s3, s3_perms):
        transposition = next(
            k for k, p in enumerate(s3_perms) if _parity(p) == 1 and _order(s3, k) == 2
        )
        sub = frozenset({s3.identity[0], transposition})
        assert is_normal_subgroupoid(s3, SubgroupoidSpec(s3, sub)) is False

    def test_not_wide(self, corpus):
        g = corpus["C2+S3"]
        sub = SubgroupoidSpec(g, frozenset({g.identity[0]}))
        with pytest.raises(NotWide):
            is_normal_subgroupoid(g, sub)

    def test_not_closed(self, s3):
        three_cycle = next(m for m in s3.morphisms if _order(s3, m) == 3)
        sub = SubgroupoidSpec(s3, frozenset({s3.identity[0], three_cycle}))
        with pytest.raises(NotSubgroupoid):
            sub.validate()


def _parity(perm: tuple[int, ...]) -> int:
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return inversions % 2


def _order(g: gb.FiniteGroupoid, m: int) -> int:
    e = g.identity[g.dom[m]]
    k, acc = 1, m
    while acc != e:
        acc = g.compose_table[m][acc]
        k += 1
    return k


class TestFunctors:
    def test_identity_and_composition(self, c2, s3):
        u, (inj1, inj2) = gb.disjoint_union([c2, s3])
        ident = identity_functor(u)
        again = compose_functors(ident, inj2)
        assert again.morphism_map == inj2.morphism_map

    def test_broken_functor_rejected(self, c2):
        f = identity_functor(c2)
        f.morphism_map = [1, 0]  # swaps identity and sigma
        with pytest.raises(gb.errors.GBError):
            f.validate()
