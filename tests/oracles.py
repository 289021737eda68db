"""Constructions that only tests call, kept out of the package so that the
checks built on them stay independent of the code they check."""

from __future__ import annotations

from dataclasses import dataclass

from gburnside.crossed import CrossedGSet, CrossedMap, associator, left_unitor, right_unitor
from gburnside.errors import DomCodMismatch, NotNatural
from gburnside.groupoid import FiniteGroupoid, GroupoidFunctor
from gburnside.gsets import GMonoid, GSet


def identity_functor(g: FiniteGroupoid) -> GroupoidFunctor:
    return GroupoidFunctor(g, g, list(g.objects), list(g.morphisms)).validate()


def compose_functors(f2: GroupoidFunctor, f1: GroupoidFunctor) -> GroupoidFunctor:
    """f2 after f1."""
    if f1.target is not f2.source and f1.target != f2.source:
        raise DomCodMismatch("functors are not composable")
    return GroupoidFunctor(
        f1.source,
        f2.target,
        [f2.object_map[x] for x in f1.object_map],
        [f2.morphism_map[m] for m in f1.morphism_map],
    ).validate()


def underlying_gset(s: GMonoid) -> GSet:
    """Forget the monoid structure, keeping fiber sizes and action."""
    return s.underlying().validate()


def validate_crossed(x: GSet, s: GMonoid, theta) -> CrossedGSet:
    """Assemble and validate a crossed G-set from raw label component maps."""
    return CrossedGSet(x, s, theta).validate()


def invert_crossed_map(m: CrossedMap) -> CrossedMap:
    inv = []
    for x in m.source.carrier.base.objects:
        comp = m.components[x]
        back = [0] * len(comp)
        for i, j in enumerate(comp):
            back[j] = i
        inv.append(back)
    return CrossedMap(m.target, m.source, inv)


@dataclass
class CoherenceIsos:
    associator: CrossedMap
    left_unitor: CrossedMap
    right_unitor: CrossedMap


def coherence_isos(cx: CrossedGSet, cy: CrossedGSet, cz: CrossedGSet) -> CoherenceIsos:
    """The associator for (x, y, z) and both unitors for x; each map is a
    validated crossed isomorphism."""
    a = associator(cx, cy, cz)
    l = left_unitor(cx)
    r = right_unitor(cx)
    for m in (a, l, r):
        if not m.is_isomorphism():
            raise NotNatural("coherence map is not bijective")
    return CoherenceIsos(a, l, r)
