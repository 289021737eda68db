"""Constructions that only tests call, kept out of the package so that the
checks built on them stay independent of the code they check."""

from __future__ import annotations

from dataclasses import dataclass

from gburnside.classify import MarkTable
from gburnside.crossed import (
    CrossedGSet,
    CrossedMap,
    associator,
    compose_crossed_maps,
    identity_crossed_map,
    left_unitor,
    right_unitor,
    tensor,
    tensor_map,
    unit_object,
)
from gburnside.errors import DomCodMismatch, NotNatural, RingMismatch
from gburnside.groupoid import FiniteGroupoid, GroupoidFunctor
from gburnside.gsets import GMonoid, GSet
from gburnside.rings import RingPresentation


def mark_solve(marks: MarkTable, phi: list[int]) -> list[int]:
    """The coordinates with the row marks ``phi``, as a dense vector; the
    back-substitution runs over the non-zero marks only."""
    return marks._dense(marks._solve({k: v for k, v in enumerate(phi) if v}))


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
    a = associator(cx, cy, cz).validate()
    l = left_unitor(cx).validate()
    r = right_unitor(cx).validate()
    for m in (a, l, r):
        if not m.is_isomorphism():
            raise NotNatural("coherence map is not bijective")
    return CoherenceIsos(a, l, r)


def pentagon_composites(cw: CrossedGSet, cx: CrossedGSet, cy: CrossedGSet, cz: CrossedGSet):
    """The two sides of the pentagon for (w, x, y, z), composed from
    associators that are each checked to be crossed maps (NotNatural if
    one is not)."""
    top = compose_crossed_maps(
        associator(cw, cx, tensor(cy, cz)).validate(),
        associator(tensor(cw, cx), cy, cz).validate(),
    )
    first = tensor_map(associator(cw, cx, cy).validate(), identity_crossed_map(cz))
    mid = associator(cw, tensor(cx, cy), cz).validate()
    last = tensor_map(identity_crossed_map(cw), associator(cx, cy, cz).validate())
    return top, compose_crossed_maps(last, compose_crossed_maps(mid, first))


def triangle_composites(cx: CrossedGSet, cy: CrossedGSet):
    """The two sides of the triangle for (x, y), composed from an
    associator and unitors that are each checked to be crossed maps."""
    unit = unit_object(cx.carrier.base, cx.weight)
    via = compose_crossed_maps(
        tensor_map(identity_crossed_map(cx), left_unitor(cy).validate()),
        associator(cx, unit, cy).validate(),
    )
    return via, tensor_map(right_unitor(cx).validate(), identity_crossed_map(cy))


def _sides_agree(sides, window) -> bool:
    try:
        lhs, rhs = sides(*window)
    except NotNatural:
        return False
    return lhs.components == rhs.components


def sampled_pentagon_and_triangle(samples: list[CrossedGSet]) -> dict[str, bool]:
    """Whether the pentagon and the triangle hold on every cyclic window of
    the samples, by the composites above: the sampled reference for the
    axiom checker's exhaustive check on the weight."""
    n = len(samples)
    return {
        name: all(
            _sides_agree(sides, [samples[(i + j) % n] for j in range(arity)])
            for i in range(n)
        )
        for name, arity, sides in (
            ("pentagon", 4, pentagon_composites),
            ("triangle", 2, triangle_composites),
        )
    }


@dataclass
class RingElement:
    ring: RingPresentation
    coords: list[int]

    def __post_init__(self):
        if len(self.coords) != self.ring.dim:
            raise RingMismatch("coordinate vector has wrong length")


def ring_unit(ring: RingPresentation) -> RingElement:
    return RingElement(ring, list(ring.unit_vector))


def ring_add(a: RingElement, b: RingElement) -> RingElement:
    if a.ring is not b.ring:
        raise RingMismatch("elements of different rings")
    return RingElement(a.ring, [x + y for x, y in zip(a.coords, b.coords)])


def ring_mul(a: RingElement, b: RingElement) -> RingElement:
    if a.ring is not b.ring:
        raise RingMismatch("elements of different rings")
    rows = a.ring.structure_constants
    out = [0] * a.ring.dim
    for i, ai in enumerate(a.coords):
        if ai == 0:
            continue
        for j, bj in enumerate(b.coords):
            if bj == 0:
                continue
            prod = ai * bj
            for k, v in rows[i][j]:
                out[k] += prod * v
    return RingElement(a.ring, out)


def ring_eq(a: RingElement, b: RingElement) -> bool:
    if a.ring is not b.ring:
        raise RingMismatch("elements of different rings")
    return a.coords == b.coords
