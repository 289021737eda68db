"""G-sets, G-monoids, G-maps, the conjugation action, action groupoids,
orbits, products, and marks."""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings, strategies as st

import gburnside as gb
from gburnside.crossed import unit_object
from gburnside.errors import AllFibersEmpty, BaseMismatch, NotNatural
from gburnside.gsets import GMap, GMonoid, GSet, Monoid, conjugation_loops
from gburnside.sampling import sample_many

from conftest import cyclic_table, fixed_points_gset, regular_gset
from oracles import NotSubgroup, marks, underlying_gset


@pytest.fixture
def s3_natural(s3, s3_perms) -> GSet:
    return GSet(
        s3, [3], [[p[i] for i in range(3)] for p in s3_perms]
    ).validate()


class TestGSetValidation:
    def test_regular_valid(self, c2):
        regular_gset(c2)

    def test_corrupt_action_entry(self, c2):
        x = regular_gset(c2)
        bad = GSet(c2, list(x.sizes), [list(a) for a in x.action])
        bad.action[1][0] = 0  # sigma no longer a bijection
        with pytest.raises(NotNatural):
            bad.validate()

    def test_corrupt_identity_action(self, c2):
        x = fixed_points_gset(c2, 2)
        bad = GSet(c2, list(x.sizes), [list(a) for a in x.action])
        bad.action[0] = [1, 0]
        with pytest.raises(NotNatural):
            bad.validate()

    def test_functoriality_catch(self, s3):
        x = regular_gset(s3)
        bad = GSet(s3, list(x.sizes), [list(a) for a in x.action])
        a = bad.action[2]
        a[0], a[1] = a[1], a[0]
        with pytest.raises(NotNatural):
            bad.validate()

    def test_empty_fibers_accepted(self, corpus):
        g = corpus["C2+S3"]
        GSet(
            g,
            [1, 0],
            [[0], [0]] + [[] for _ in range(6)],
        ).validate()


class TestGMonoid:
    def test_conjugation_c2_trivial(self, c2):
        conj = gb.conjugation_action(c2)
        assert [m.size for m in conj.monoids] == [2]
        assert conj.action[1] == [0, 1]  # abelian: conjugation fixes all

    def test_conjugation_pair2(self):
        conj = gb.conjugation_action(gb.pair_groupoid(2))
        assert [m.size for m in conj.monoids] == [1, 1]

    def test_conjugation_s3_permutes_transpositions(self, s3, s3_perms):
        conj = gb.conjugation_action(s3)
        transpositions = {
            k for k, p in enumerate(s3_perms) if sorted(p) == [0, 1, 2] and p != tuple(range(3)) and _is_transposition(p)
        }
        assert len(transpositions) == 3
        reached = set()
        for t in transpositions:
            for m in s3.morphisms:
                reached.add(conj.action[m][t])
        assert reached == transpositions

    def test_conjugation_built_once(self, corpus):
        for g in corpus.values():
            assert gb.conjugation_action(g) is gb.conjugation_action(g)

    def test_conjugation_loops_structural(self, corpus):
        for name in ("S3", "C2+S3", "C2xPair(2)"):
            g = corpus[name]
            conj = gb.conjugation_action(g)
            loops = [g.loops(x) for x in g.objects]
            assert conjugation_loops(conj) == loops
            assert conjugation_loops(conj) is conjugation_loops(conj)
            copy = GMonoid(
                g,
                [Monoid([list(r) for r in m.table], m.unit) for m in conj.monoids],
                [list(a) for a in conj.action],
            )
            assert copy is not conj
            assert conjugation_loops(copy) == loops
            assert conjugation_loops(gb.trivial_gmonoid(g)) is None
            m = next(m for m in g.morphisms if len(copy.action[m]) > 1)
            act = copy.action[m]
            act[0], act[1] = act[1], act[0]
            assert conjugation_loops(copy) is None
            assert gb.conjugation_action(g).action == conj.action

    def test_underlying_gset(self, s3):
        bar = underlying_gset(gb.conjugation_action(s3))
        assert bar.size(0) == 6

    def test_trivial_gmonoid_terminal_underlying(self, corpus):
        g = corpus["C2+S3"]
        bar = underlying_gset(gb.trivial_gmonoid(g))
        assert [bar.size(x) for x in g.objects] == [1, 1]

    def test_monoid_not_associative(self):
        table = [[0, 1, 2], [1, 2, 1], [2, 1, 1]]
        # (1*1)*2 = 1 but 1*(1*2) = 2
        with pytest.raises(NotNatural):
            Monoid(table, 0).validate()

    def test_monoid_bad_unit(self):
        with pytest.raises(NotNatural):
            Monoid([[0, 1], [0, 0]], 0).validate()

    def test_action_not_homomorphism(self, c2):
        conj = gb.conjugation_action(c2)
        bad = GMonoid(c2, conj.monoids, [list(a) for a in conj.action])
        bad.action[1] = [1, 0]  # swaps unit and sigma: not unit-preserving
        with pytest.raises(NotNatural):
            bad.validate()

    @pytest.mark.parametrize("field", ["base", "monoids", "action"])
    def test_fields_reject_rebinding(self, c2, field):
        # the unit object cached on the weight must not outlive its monoids
        s = GMonoid(c2, [Monoid([[0, 1], [1, 0]], 0)], [[0, 1], [0, 1]]).validate()
        assert unit_object(c2, s).label == [[0]]
        before = getattr(s, field)
        with pytest.raises(AttributeError, match=field):
            setattr(s, field, [Monoid([[0, 1], [1, 1]], 1)])
        with pytest.raises(AttributeError, match=field):
            delattr(s, field)
        assert getattr(s, field) is before
        assert unit_object(c2, s).label == [[s.unit(0)]]
        with pytest.raises(AttributeError):
            setattr(copy.deepcopy(s), field, before)

    def test_unit_object_cache_stays_writable(self, c2):
        s = gb.trivial_gmonoid(c2)
        s._unit_object = None
        assert unit_object(c2, s).label == [[0]]

    @pytest.mark.parametrize("field", ["table", "unit"])
    def test_monoid_is_frozen(self, field):
        mon = Monoid([[0, 1], [1, 0]], 0)
        with pytest.raises(AttributeError):
            setattr(mon, field, 1)
        with pytest.raises(AttributeError):
            delattr(mon, field)
        assert mon == Monoid([[0, 1], [1, 0]], 0)


def _is_transposition(p: tuple[int, ...]) -> bool:
    return sum(1 for i, v in enumerate(p) if v != i) == 2


class TestGMap:
    def test_identity_natural(self, c2):
        x = regular_gset(c2)
        GMap(x, x, [[0, 1]]).validate()

    def test_broken_naturality(self, c2):
        x = regular_gset(c2)
        y = fixed_points_gset(c2, 2)
        # elementwise map regular -> fixed points cannot be natural unless
        # constant on the orbit; [0, 1] breaks the sigma square
        with pytest.raises(NotNatural):
            GMap(x, y, [[0, 1]]).validate()
        GMap(x, y, [[0, 0]]).validate()

    def test_base_mismatch(self, c2, c3):
        with pytest.raises(BaseMismatch):
            GMap(regular_gset(c2), regular_gset(c3), [[0, 1]]).validate()


C2 = gb.from_group(cyclic_table(2))
C3 = gb.from_group(cyclic_table(3))
POINT = gb.terminal_gset(C2)

# each shape and base refusal, with the exact message it names
REFUSALS = [
    (lambda: GSet(C2, [1, 1], [[0], [0]]).validate(), NotNatural,
     "size list does not cover every object"),
    (lambda: GSet(C2, [1], [[0]]).validate(), NotNatural,
     "action list does not cover every morphism"),
    (lambda: GSet(C2, [1], [[0], [0, 0]]).validate(), NotNatural,
     "action of morphism 1 has wrong domain size"),
    (lambda: Monoid([[0, 1], [1, 2]], 0).validate(), NotNatural,
     "monoid table is not n x n over 0..n-1"),
    (lambda: Monoid([[0]], 1).validate(), NotNatural, "monoid unit out of range"),
    (lambda: GMonoid(C2, [], [[0], [0]]).validate(), NotNatural,
     "monoid list does not cover every object"),
    (lambda: GMap(POINT, POINT, []).validate(), NotNatural,
     "component list does not cover every object"),
    (lambda: GMap(POINT, POINT, [[0, 0]]).validate(), NotNatural,
     "component at 0 has wrong domain size"),
    (lambda: GMap(POINT, POINT, [[1]]).validate(), NotNatural,
     "component at 0 maps outside the target fiber"),
    (lambda: gb.is_transitive(C3, POINT), BaseMismatch, "G-set does not live over this groupoid"),
    (lambda: gb.orbit_decomposition(C3, POINT), BaseMismatch,
     "G-set does not live over this groupoid"),
    (lambda: gb.gset_product(POINT, gb.terminal_gset(C3)), BaseMismatch,
     "product of G-sets over different groupoids"),
    (lambda: gb.gset_coproduct(POINT, gb.terminal_gset(C3)), BaseMismatch,
     "coproduct of G-sets over different groupoids"),
]


@pytest.mark.parametrize("build,error,message", REFUSALS, ids=[case[2] for case in REFUSALS])
def test_refusals_name_their_error(build, error, message):
    with pytest.raises(error) as refused:
        build()
    assert str(refused.value) == message


class TestActionGroupoid:
    def test_c2_left_translation(self, c2):
        ag = gb.action_groupoid(c2, regular_gset(c2))
        assert (ag.groupoid.n_objects, ag.groupoid.n_morphisms) == (2, 4)
        assert gb.is_connected(ag.groupoid)
        assert all(len(ag.groupoid.loops(x)) == 1 for x in ag.groupoid.objects)

    def test_c2_fixed_point(self, c2):
        ag = gb.action_groupoid(c2, fixed_points_gset(c2, 1))
        assert (ag.groupoid.n_objects, ag.groupoid.n_morphisms) == (1, 2)

    def test_s3_natural(self, s3, s3_natural):
        ag = gb.action_groupoid(s3, s3_natural)
        assert gb.is_connected(ag.groupoid)
        assert len(ag.groupoid.loops(0)) == 2

    def test_projection_is_functor_with_label_identity(self, c2):
        x = regular_gset(c2)
        ag = gb.action_groupoid(c2, x)
        assert ag.projection.object_map == [0, 0]
        for t, (m, i) in enumerate(ag.morphism_tags):
            assert ag.projection.morphism_map[t] == m

    def test_base_mismatch(self, c2, c3):
        with pytest.raises(BaseMismatch):
            gb.action_groupoid(c2, regular_gset(c3))


class TestTransitivity:
    def test_regular_transitive(self, c2):
        assert gb.is_transitive(c2, regular_gset(c2))

    def test_fixed_points_not_transitive(self, c2):
        assert not gb.is_transitive(c2, fixed_points_gset(c2, 2))

    def test_one_sided_fiber_over_union(self, c2, c3):
        u, _ = gb.disjoint_union([c2, c3])
        x = GSet(
            u,
            [1, 0],
            [[0], [0]] + [[] for _ in range(3)],
        ).validate()
        assert gb.is_transitive(u, x)

    def test_empty_flagged(self, c2):
        with pytest.raises(AllFibersEmpty):
            gb.is_transitive(c2, gb.empty_gset(c2))


class TestOrbits:
    def test_regular_plus_fixed(self, c2):
        x = gb.gset_coproduct(regular_gset(c2), fixed_points_gset(c2, 1)).validate()
        pieces = gb.orbit_decomposition(c2, x)
        assert sorted(p.total_size for p, _ in pieces) == [1, 2]

    def test_pair2_linked_fibers(self):
        g = gb.pair_groupoid(2)
        x = GSet(g, [1, 1], [[0], [0], [0], [0]]).validate()
        assert len(gb.orbit_decomposition(g, x)) == 1

    def test_s3_natural_plus_point(self, s3, s3_natural):
        x = gb.gset_coproduct(s3_natural, fixed_points_gset(s3, 1)).validate()
        assert len(gb.orbit_decomposition(s3, x)) == 2

    def test_embeddings_natural_and_partition(self, s3, s3_natural):
        x = gb.gset_coproduct(s3_natural, fixed_points_gset(s3, 2)).validate()
        pieces = gb.orbit_decomposition(s3, x)
        for piece, embed in pieces:
            embed.validate()
        assert sum(p.total_size for p, _ in pieces) == x.total_size


class TestProductsCoproducts:
    def test_regular_squared_two_free_orbits(self, c2):
        prod = gb.gset_product(regular_gset(c2), regular_gset(c2)).validate()
        pieces = gb.orbit_decomposition(c2, prod)
        assert [p.total_size for p, _ in pieces] == [2, 2]

    def test_product_with_terminal(self, s3, s3_natural):
        prod = gb.gset_product(s3_natural, gb.terminal_gset(s3)).validate()
        assert prod.size(0) == 3
        assert [prod.action[m] for m in s3.morphisms] == [
            s3_natural.action[m] for m in s3.morphisms
        ]

    def test_product_action_is_the_pair_formula(self, corpus):
        for name in ("C2", "S3", "C2+S3", "(C2xPair(2))+C3"):
            g = corpus[name]
            x = gb.conjugation_action(g).underlying()
            for c in sample_many(g, gb.conjugation_action(g), 4, seed=1):
                y = c.carrier
                explicit = [
                    [i * y.size(g.cod[m]) + j for i in x.action[m] for j in y.action[m]]
                    for m in g.morphisms
                ]
                sizes = [x.size(o) * y.size(o) for o in g.objects]
                eager = GSet(g, sizes, explicit)
                assert gb.gset_product(x, y) == eager
                assert eager == gb.gset_product(x, y)
                built = gb.gset_product(x, y)
                assert type(built) is GSet and vars(built)["action"] == explicit
                assert built.validate() is built

    def test_coproduct_with_empty(self, c2):
        x = regular_gset(c2)
        z = gb.gset_coproduct(x, gb.empty_gset(c2)).validate()
        assert z.action == x.action

    @given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_size_laws(self, a, b):
        g = gb.pair_groupoid(2)
        x = fixed_points_gset(g, a)
        y = fixed_points_gset(g, b)
        assert gb.gset_product(x, y).validate().size(0) == a * b
        assert gb.gset_coproduct(x, y).validate().size(1) == a + b


class TestMarks:
    def test_regular_c2(self, c2):
        x = regular_gset(c2)
        assert marks(c2, x, 0, {0}) == 2
        assert marks(c2, x, 0, {0, 1}) == 0

    def test_terminal_always_one(self, corpus):
        for name in ("C2", "S3", "C2+S3"):
            g = corpus[name]
            t = gb.terminal_gset(g)
            for rep in gb.connected_components(g).representatives:
                full = frozenset(g.loops(rep))
                assert marks(g, t, rep, full) == 1

    def test_s3_natural_transposition(self, s3, s3_perms, s3_natural):
        t = next(k for k, p in enumerate(s3_perms) if _is_transposition(p))
        assert marks(s3, s3_natural, 0, {s3.identity[0], t}) == 1

    def test_conjugate_subgroups_same_marks(self, s3, s3_perms, s3_natural):
        transpositions = [k for k, p in enumerate(s3_perms) if _is_transposition(p)]
        values = {
            marks(s3, s3_natural, 0, {s3.identity[0], t}) for t in transpositions
        }
        assert len(values) == 1

    def test_not_a_subgroup(self, s3, s3_perms):
        t = next(k for k, p in enumerate(s3_perms) if _is_transposition(p))
        with pytest.raises(NotSubgroup):
            marks(s3, regular_gset(s3), 0, {t})

    def test_invariant_under_isomorphism(self, s3, s3_perms, s3_natural):
        # relabel the natural 3-point set and compare all mark values
        perm = [2, 0, 1]
        relabeled = GSet(
            s3,
            [3],
            [
                [perm[s3_natural.action[m][i]] for i in _inverse(perm)]
                for m in s3.morphisms
            ],
        ).validate()
        t = next(k for k, p in enumerate(s3_perms) if _is_transposition(p))
        for sub in ({s3.identity[0]}, {s3.identity[0], t}, set(s3.morphisms)):
            assert marks(s3, s3_natural, 0, sub) == marks(
                s3, relabeled, 0, sub
            )


def _inverse(perm: list[int]) -> list[int]:
    out = [0] * len(perm)
    for i, v in enumerate(perm):
        out[v] = i
    return out
