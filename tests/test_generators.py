"""Generator certificates: the greedy generating set is proved by its
closure, and checking a law on it (associativity, functoriality, the
G-monoid hom property) gives the same verdict, error type and message as
checking it on every element."""

from __future__ import annotations

import copy
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import gburnside as gb
from gburnside import groupoid, gsets
from gburnside.classify import subgroup_closure
from gburnside.errors import GBError
from gburnside.groupoid import FiniteGroupoid, generating_set, loop_table
from gburnside.gsets import GMonoid, GSet, Monoid

from conftest import build_corpus, editable_tables, regular_gset
from oracles import all_subgroups

CORPUS = build_corpus()


@contextmanager
def full_loops():
    """Every law checked on every element: the generating set is replaced
    by all ids, which is the check before generator certificates."""
    def everything(table, starts, elements=None):
        return tuple(range(len(table)))

    with mock.patch.object(groupoid, "generating_set", everything), \
            mock.patch.object(gsets, "generating_set", everything):
        yield


def verdict(validate):
    try:
        validate()
    except GBError as exc:
        return type(exc).__name__, str(exc)
    return "ok"


def left_closure(g: FiniteGroupoid, gens) -> set[int]:
    reached = set(g.identity)
    frontier = list(reached)
    while frontier:
        frontier = [
            g.compose_table[s][r] for r in frontier for s in gens
            if g.dom[s] == g.cod[r] and g.compose_table[s][r] not in reached
        ]
        reached.update(frontier)
    return reached


class TestGeneratingSet:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_closure_reaches_every_morphism(self, name):
        g = CORPUS[name]
        gens = g._generators
        assert list(gens) == sorted(gens)
        assert left_closure(g, gens) == set(g.morphisms)
        # greedy: no generator is reached by the ones before it
        for k, s in enumerate(gens):
            assert s not in left_closure(g, gens[:k])

    def test_few_generators_for_a_big_group(self):
        s4 = gb.from_group(gb.group_table_from_perm_gens([[1, 0, 2, 3], [1, 2, 3, 0]]))
        assert s4.n_morphisms == 24
        assert len(s4._generators) <= 3

    def test_unvalidated_groupoid_keeps_every_morphism(self):
        g = FiniteGroupoid(1, **editable_tables(CORPUS["S3"]))
        assert g._generators == g.morphisms
        gb.validate_groupoid(g)
        assert g._generators == CORPUS["S3"]._generators

    @pytest.mark.parametrize("name", ["S3", "D4", "Q8"])
    def test_subgroup_generators_match_the_closure_greedy(self, name):
        g = CORPUS[name]
        e = g.identity[0]
        for sub in all_subgroups(g.compose_table):
            current, expected = frozenset({e}), []
            for m in sorted(sub):
                if m not in current:
                    expected.append(m)
                    current = subgroup_closure(g.compose_table, expected)
            assert list(generating_set(g.compose_table, [e], sorted(sub))) == expected

    def test_monoid_generators(self):
        # {0, 1, a = 2} with a*a = 0 and 1 the unit: ids are walked in order,
        # so the zero joins before a, which would have reached it
        table = [[0, 0, 0], [0, 1, 2], [0, 2, 0]]
        assert generating_set(table, [1]) == (0, 2)
        Monoid(table, 1).validate()

    def test_one_sided_unit_runs_the_full_loop(self):
        # 0 is a right unit only (0*1 = 0), so b = 0 is not trivial in
        # (ab)c = a(bc): the generators pass, and (2*0)*1 = 1, 2*(0*1) = 2
        table = [[0, 0, 0], [1, 1, 1], [2, 1, 1]]
        mon = Monoid(table, 0)
        assert mon.unit_failure() == 1
        assert mon._non_associative(generating_set(table, [0])) is None
        assert mon.associativity_failure() == (2, 0, 1)


# -- the generator route against the full loops ----------------------------------

SMALL = [name for name, g in CORPUS.items() if 1 < g.n_morphisms <= 16]

# the transformations of two points, f = (f(0), f(1)), composed right to left
T2 = [(0, 1), (0, 0), (1, 1), (1, 0)]
T2_TABLE = [[T2.index((a[b[0]], a[b[1]])) for b in T2] for a in T2]


def _mutant_tables(g: FiniteGroupoid, data) -> dict:
    """One composite replaced, by a morphism with the same dom and cod when
    there is another, so that most mutants get past the dom/cod checks."""
    pairs = [(a, b) for a in g.morphisms for b in g.morphisms if g.compose_table[a][b] != -1]
    a, b = data.draw(st.sampled_from(pairs))
    old = g.compose_table[a][b]
    same = [m for m in g.hom(g.dom[old], g.cod[old]) if m != old]
    tables = editable_tables(g)
    tables["compose_table"][a][b] = data.draw(
        st.sampled_from(same) if same else st.integers(-1, g.n_morphisms)
    )
    return tables


def _swap_one_action(action, data) -> list[list[int]]:
    """One morphism's action composed with a transposition, so it stays a
    bijection and the identity and functoriality checks are reached."""
    out = [list(a) for a in action]
    m = data.draw(st.sampled_from([m for m, a in enumerate(out) if len(a) > 1]))
    i, j = data.draw(
        st.lists(st.integers(0, len(out[m]) - 1), min_size=2, max_size=2, unique=True)
    )
    out[m][i], out[m][j] = out[m][j], out[m][i]
    return out


def _unchecked_copy(g: FiniteGroupoid) -> FiniteGroupoid:
    """g validated with every morphism as its generating set."""
    with full_loops():
        return gb.validate_groupoid(FiniteGroupoid(g.n_objects, **editable_tables(g)))


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(SMALL),
    kind=st.sampled_from(["compose", "monoid", "gset", "gmonoid", "relabel"]),
    data=st.data(),
)
def test_generator_route_equals_full_loop(name, kind, data):
    g = CORPUS[name]
    if kind == "compose":
        tables = _mutant_tables(g, data)
        fast = verdict(lambda: gb.validate_groupoid(FiniteGroupoid(g.n_objects, **tables)))
        with full_loops():
            slow = verdict(lambda: gb.validate_groupoid(FiniteGroupoid(g.n_objects, **tables)))
    elif kind == "monoid":
        _, pos, loops_table = loop_table(g, 0)
        table, unit = data.draw(
            st.sampled_from([(loops_table, pos[g.identity[0]]), (T2_TABLE, 0)])
        )
        table = [list(row) for row in table]
        n = len(table)
        table[data.draw(st.integers(0, n - 1))][data.draw(st.integers(0, n - 1))] = (
            data.draw(st.integers(0, n - 1))
        )
        # the mutant may break the unit law; associativity is still decided
        fast = verdict(lambda: Monoid(copy.deepcopy(table), unit).validate())
        fast = fast, Monoid(table, unit).associativity_failure()
        with full_loops():
            slow = verdict(lambda: Monoid(copy.deepcopy(table), unit).validate())
            slow = slow, Monoid(table, unit).associativity_failure()
    elif kind == "gset":
        x = regular_gset(g)
        action = _swap_one_action(x.action, data)
        fast = verdict(lambda: GSet(g, list(x.sizes), action).validate())
        base = _unchecked_copy(g)
        slow = verdict(lambda: GSet(base, list(x.sizes), action).validate())
    elif kind == "gmonoid":
        conj = gb.conjugation_action(g)
        if all(len(a) < 2 for a in conj.action):
            return
        action = _swap_one_action(conj.action, data)
        fast = verdict(lambda: GMonoid(g, conj.monoids, action).validate())
        base = _unchecked_copy(g)
        slow = verdict(lambda: GMonoid(base, conj.monoids, action).validate())
    else:
        # one monoid relabeled by a transposition of two non-units: still a
        # monoid and a functorial action, but maybe no longer acting by homs
        conj = gb.conjugation_action(g)
        big = [x for x in g.objects if conj.size(x) > 2]
        if not big:
            return
        x = data.draw(st.sampled_from(big))
        mon = conj.monoids[x]
        others = [a for a in range(mon.size) if a != mon.unit]
        i, j = data.draw(st.lists(st.sampled_from(others), min_size=2, max_size=2, unique=True))
        p = list(range(mon.size))
        p[i], p[j] = j, i
        monoids = list(conj.monoids)
        n = mon.size
        table = [[p[mon.table[p[a]][p[b]]] for b in range(n)] for a in range(n)]
        monoids[x] = Monoid(table, mon.unit)
        fast = verdict(lambda: GMonoid(g, monoids, conj.action).validate())
        base = _unchecked_copy(g)
        slow = verdict(lambda: GMonoid(base, monoids, conj.action).validate())
    assert fast == slow


def test_the_oracle_runs_every_morphism():
    g = CORPUS["S3"]
    assert len(g._generators) < g.n_morphisms
    assert _unchecked_copy(g)._generators == tuple(g.morphisms)
    x = regular_gset(g)
    action = [list(a) for a in x.action]
    action[1][0], action[1][1] = action[1][1], action[1][0]
    fast = verdict(lambda: GSet(g, list(x.sizes), action).validate())
    base = _unchecked_copy(g)
    assert fast == verdict(lambda: GSet(base, list(x.sizes), action).validate())
    assert fast[0] == "NotNatural"
