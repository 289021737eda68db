"""Seeded random crossed G-sets for axiom fuzzing.

Uniform-naive sampling would almost never produce naturality-consistent
labels, so samples are assembled orbit-by-orbit: pick a component, a
subgroup of its isotropy group, and a subgroup-invariant base label, then
induce the transitive piece and take coproducts.  Fibers are randomly
reordered afterwards so downstream code never sees only canonical forms.
"""

from __future__ import annotations

import random

from .classify import classes_at, induced_crossed
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
        subs = [h for members, _ in classes_at(g, rep) for h in members]
        for sub in sorted(subs, key=lambda h: (len(h), sorted(h))):
            invariant = fixed_points(weight, rep, sub)
            if invariant:
                options.append((rep, sub, invariant, len(g.loops(rep)) // len(sub), cls, {}))
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


def sample_many(
    g: FiniteGroupoid,
    weight: GMonoid,
    count: int,
    seed: int,
    max_fiber: int = 5,
    max_orbits: int = 3,
) -> list[CrossedGSet]:
    """A reproducible list of samples for a fixed seed.  Each is a
    coproduct of pieces drawn from _orbit_options, with every fiber at
    most max_fiber, or the empty crossed set (built once) if none is."""
    rng = random.Random(seed)
    options = _orbit_options(g, weight)
    empty = empty_crossed(g, weight)
    samples = []
    for _ in range(count):
        budget = [max_fiber] * g.n_objects
        out = empty
        for _ in range(rng.randint(0, max_orbits)):
            rep, sub, invariant, size, cls, pieces = rng.choice(options)
            if any(budget[x] < size for x in cls):
                continue
            v = rng.choice(invariant)
            if v not in pieces:
                (pieces[v],) = induced_crossed(g, weight, rep, sub, [v])
            for x in cls:
                budget[x] -= size
            out = pieces[v] if out is empty else crossed_coproduct(out, pieces[v])
        samples.append(shuffle_fibers(out, rng).validate())
    return samples
