"""Numbering oracle for the derived groupoids.

Pair(n), the direct product, the disjoint union and the action groupoid
are rebuilt here from the id formulas their docstrings state, without the
library's table builder, and compared with the library entry by entry:
objects, dom/cod, identities, inverses and the composite of every pair
(-1 on every non-composable pair).
"""

from __future__ import annotations

from itertools import product

from hypothesis import assume, given, settings, strategies as st

import gburnside as gb
from gburnside.gsets import GSet

MAX_MORPHISMS = 192  # keeps a drawn construction's full table small


def assert_numbering(built, n_objects, dom, cod, identity, inverse, composites):
    """``built`` has exactly these ids, and its table holds ``composites``
    (a dict from (g, f) to g*f) and -1 on every other pair."""
    m = len(dom)
    assert (built.n_objects, built.n_morphisms) == (n_objects, m)
    assert list(built.dom) == dom
    assert list(built.cod) == cod
    assert list(built.identity) == identity
    assert list(built.inverse) == inverse
    expected = [[composites.get((g, f), -1) for f in range(m)] for g in range(m)]
    assert [list(row) for row in built.compose_table] == expected


def composable(g):
    """Every pair (g2, g1) with g2 after g1 defined, by dom and cod alone."""
    return [(g2, g1) for g2 in g.morphisms for g1 in g.morphisms if g.dom[g2] == g.cod[g1]]


def check_pair(n):
    ids = {(x, y): x * n + y for x in range(n) for y in range(n)}
    dom, cod, inverse = [0] * n * n, [0] * n * n, [0] * n * n
    for (x, y), m in ids.items():
        dom[m], cod[m], inverse[m] = x, y, ids[y, x]
    composites = {
        (ids[y, z], ids[x, y]): ids[x, z] for x, y, z in product(range(n), repeat=3)
    }
    identity = [ids[x, x] for x in range(n)]
    assert_numbering(gb.pair_groupoid(n), n, dom, cod, identity, inverse, composites)


def check_product(g, h):
    obj = {(a, b): a * h.n_objects + b for a in g.objects for b in h.objects}
    mor = {(p, q): p * h.n_morphisms + q for p in g.morphisms for q in h.morphisms}
    dom, cod, inverse = [0] * len(mor), [0] * len(mor), [0] * len(mor)
    for (p, q), m in mor.items():
        dom[m] = obj[g.dom[p], h.dom[q]]
        cod[m] = obj[g.cod[p], h.cod[q]]
        inverse[m] = mor[g.inverse[p], h.inverse[q]]
    identity = [0] * len(obj)
    for (a, b), o in obj.items():
        identity[o] = mor[g.identity[a], h.identity[b]]
    composites = {
        (mor[p2, q2], mor[p1, q1]): mor[g.compose_table[p2][p1], h.compose_table[q2][q1]]
        for p2, p1 in composable(g)
        for q2, q1 in composable(h)
    }
    built = gb.direct_product(g, h)
    assert_numbering(built, len(obj), dom, cod, identity, inverse, composites)


def check_union(parts):
    dom, cod, identity, inverse, composites = [], [], [], [], {}
    obj_offsets, mor_offsets = [], []
    for p in parts:
        oo, mo = len(identity), len(dom)
        obj_offsets.append(oo)
        mor_offsets.append(mo)
        dom += [oo + x for x in p.dom]
        cod += [oo + x for x in p.cod]
        identity += [mo + e for e in p.identity]
        inverse += [mo + i for i in p.inverse]
        for g2, g1 in composable(p):
            composites[mo + g2, mo + g1] = mo + p.compose_table[g2][g1]
    union, injections = gb.disjoint_union(parts)
    assert_numbering(union, len(identity), dom, cod, identity, inverse, composites)
    for p, inj, oo, mo in zip(parts, injections, obj_offsets, mor_offsets):
        assert (inj.source, inj.target) == (p, union)
        assert inj.object_map == [oo + x for x in p.objects]
        assert inj.morphism_map == [mo + m for m in p.morphisms]


def check_action_groupoid(g, x):
    object_tags = [(o, a) for o in g.objects for a in range(x.size(o))]
    morphism_tags = [(m, a) for m in g.morphisms for a in range(x.size(g.dom[m]))]
    obj = {t: k for k, t in enumerate(object_tags)}
    mor = {t: k for k, t in enumerate(morphism_tags)}
    dom, cod, inverse = [0] * len(mor), [0] * len(mor), [0] * len(mor)
    for (m, a), t in mor.items():
        b = x.action[m][a]
        dom[t] = obj[g.dom[m], a]
        cod[t] = obj[g.cod[m], b]
        inverse[t] = mor[g.inverse[m], b]
    identity = [mor[g.identity[o], a] for o, a in object_tags]
    # <g2, g1.a> after <g1, a> is <g2 g1, a>
    composites = {
        (mor[g2, x.action[g1][a]], mor[g1, a]): mor[g.compose_table[g2][g1], a]
        for g2, g1 in composable(g)
        for a in range(x.size(g.dom[g1]))
    }
    ag = gb.action_groupoid(g, x)
    assert_numbering(ag.groupoid, len(obj), dom, cod, identity, inverse, composites)
    assert ag.object_tags == object_tags
    assert ag.morphism_tags == morphism_tags
    assert ag.projection.object_map == [o for o, _ in object_tags]
    assert ag.projection.morphism_map == [m for m, _ in morphism_tags]


def conjugation_gset(g):
    """Loops at each object, in ascending id order; m sends l to m l m^-1."""
    loops = [g.loops(o) for o in g.objects]
    ct = g.compose_table
    action = [
        [loops[g.cod[m]].index(ct[ct[m][l]][g.inverse[m]]) for l in loops[g.dom[m]]]
        for m in g.morphisms
    ]
    return GSet(g, [len(ls) for ls in loops], action).validate()


def hom_gset(g, z):
    """hom(z, -), in ascending id order; m sends f to m f."""
    homs = [g.hom(z, o) for o in g.objects]
    action = [
        [homs[g.cod[m]].index(g.compose_table[m][f]) for f in homs[g.dom[m]]]
        for m in g.morphisms
    ]
    return GSet(g, [len(h) for h in homs], action).validate()


perm_groups = st.integers(1, 4).flatmap(
    lambda d: st.lists(st.permutations(range(d)), min_size=1, max_size=2)
).map(lambda gens: gb.from_group(gb.group_table_from_perm_gens(gens)))
pairs = st.integers(1, 4).map(gb.pair_groupoid)
bases = st.one_of(perm_groups, pairs)


@st.composite
def products(draw, factors=bases):
    g, h = draw(factors), draw(factors)
    assume(g.n_morphisms * h.n_morphisms <= MAX_MORPHISMS)
    return gb.direct_product(g, h)


@st.composite
def unions(draw, parts=st.one_of(bases, products())):
    ps = draw(st.lists(parts, min_size=1, max_size=3))
    assume(sum(p.n_morphisms for p in ps) <= MAX_MORPHISMS)
    return gb.disjoint_union(ps)[0]


groupoids = st.one_of(bases, products(), unions())


@given(st.integers(1, 4))
def test_pair_numbering(n):
    check_pair(n)


@settings(deadline=None)
@given(groupoids, groupoids)
def test_product_numbering(g, h):
    assume(g.n_morphisms * h.n_morphisms <= MAX_MORPHISMS)
    check_product(g, h)


@settings(deadline=None)
@given(st.lists(groupoids, min_size=1, max_size=3))
def test_union_numbering(parts):
    assume(sum(p.n_morphisms for p in parts) <= MAX_MORPHISMS)
    check_union(parts)


@settings(deadline=None)
@given(groupoids, st.data())
def test_action_groupoid_numbering(g, data):
    kind = data.draw(st.sampled_from(["conjugation", "hom"]))
    if kind == "conjugation":
        x = conjugation_gset(g)
    else:
        x = hom_gset(g, data.draw(st.integers(0, g.n_objects - 1)))
    assume(sum(x.size(g.dom[m]) for m in g.morphisms) <= MAX_MORPHISMS)
    check_action_groupoid(g, x)
