"""Seeded random crossed G-sets for axiom fuzzing.

Uniform-naive sampling would almost never produce naturality-consistent
labels, so samples are assembled orbit-by-orbit: pick a component, a
subgroup of its isotropy group, and a subgroup-invariant base label, then
induce the transitive piece and take coproducts.  Fibers are randomly
reordered afterwards so downstream code never sees only canonical forms.
"""

from __future__ import annotations

import random

from .classify import induced_crossed, subgroup_classes
from .crossed import CrossedGSet, crossed_coproduct, empty_crossed
from .groupoid import FiniteGroupoid, connected_components
from .gsets import GMonoid, GSet, fixed_points


def _orbit_options(g: FiniteGroupoid, weight: GMonoid):
    """Every (component rep, subgroup as loop ids, invariant labels, piece
    fiber size, component objects, induced pieces by label) available to
    the sampler, subgroups by (order, sorted elements).  A cached piece is
    only read: every sample gets fresh lists from shuffle_fibers."""
    options = []
    comps = connected_components(g)
    for rep, cls in zip(comps.representatives, comps.classes):
        loops = g.loops(rep)
        walk = subgroup_classes(g.compose_table, loops, g.identity[rep], g.inverse)
        subs = [h for members, _ in walk for h in members]
        for sub in sorted(subs, key=lambda h: (len(h), sorted(h))):
            invariant = fixed_points(weight, rep, sub)
            if invariant:
                options.append((rep, sub, invariant, len(loops) // len(sub), cls, {}))
    return options


def shuffle_fibers(c: CrossedGSet, rng: random.Random) -> CrossedGSet:
    """Apply a random permutation to every fiber, rewiring actions and
    labels accordingly; the result is isomorphic to the input."""
    g = c.carrier.base
    perms = []
    labels = []
    for x in g.objects:
        p = list(range(c.carrier.size(x)))
        rng.shuffle(p)
        perms.append(p)  # p[i] = new position of old element i
        lab = [0] * len(p)
        for i, v in enumerate(c.label[x]):
            lab[p[i]] = v
        labels.append(lab)
    action = []
    for m in g.morphisms:
        x, y = g.dom[m], g.cod[m]
        old = c.carrier.action[m]
        img = [0] * len(old)
        for i in range(len(old)):
            img[perms[x][i]] = perms[y][old[i]]
        action.append(img)
    return CrossedGSet(GSet(g, list(c.carrier.sizes), action), c.weight, labels)


def sample_crossed(
    g: FiniteGroupoid,
    weight: GMonoid,
    rng: random.Random,
    max_fiber: int,
    max_orbits: int,
    options,
) -> CrossedGSet:
    """One random crossed G-set with every fiber at most max_fiber, drawn
    from ``options``, the result of _orbit_options for g and weight."""
    budget = [max_fiber] * g.n_objects
    out = None
    for _ in range(rng.randint(0, max_orbits)):
        rep, sub, invariant, size, cls, pieces = rng.choice(options)
        if any(budget[x] < size for x in cls):
            continue
        v = rng.choice(invariant)
        if v not in pieces:
            (pieces[v],) = induced_crossed(g, weight, rep, sub, [v])
        piece = pieces[v]
        for x in cls:
            budget[x] -= size
        out = piece if out is None else crossed_coproduct(out, piece)
    if out is None:
        out = empty_crossed(g, weight)
    return shuffle_fibers(out, rng).validate()


def sample_many(
    g: FiniteGroupoid,
    weight: GMonoid,
    count: int,
    seed: int,
    max_fiber: int = 5,
    max_orbits: int = 3,
) -> list[CrossedGSet]:
    """A reproducible list of samples for a fixed seed."""
    rng = random.Random(seed)
    options = _orbit_options(g, weight)
    return [
        sample_crossed(g, weight, rng, max_fiber, max_orbits, options)
        for _ in range(count)
    ]
