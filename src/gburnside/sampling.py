"""Seeded random crossed G-sets for axiom fuzzing.

Uniform-naive sampling would almost never produce naturality-consistent
labels, so samples are assembled orbit-by-orbit: pick a component, a
subgroup of its isotropy group, and a subgroup-invariant base label, then
induce the transitive piece and take coproducts.  Fibers are randomly
reordered afterwards so downstream code never sees only canonical forms.
"""

from __future__ import annotations

import random

from .classify import all_subgroups, induced_crossed
from .crossed import CrossedGSet, crossed_coproduct, empty_crossed
from .groupoid import FiniteGroupoid, connected_components, loop_table
from .gsets import GMonoid, GSet


def _orbit_options(g: FiniteGroupoid, weight: GMonoid):
    """Every (component rep, subgroup as loop ids, invariant labels, piece
    fiber size, component objects) available to the sampler."""
    options = []
    comps = connected_components(g)
    for rep, cls in zip(comps.representatives, comps.classes):
        loops, _, table = loop_table(g, rep)
        for sub in all_subgroups(table):
            sub_loops = frozenset(loops[h] for h in sub)
            invariant = [
                v
                for v in range(weight.size(rep))
                if all(weight.action[m][v] == v for m in sub_loops)
            ]
            if invariant:
                options.append(
                    (rep, sub_loops, invariant, len(loops) // len(sub), cls)
                )
    return options


def shuffle_fibers(c: CrossedGSet, rng: random.Random) -> CrossedGSet:
    """Apply a random permutation to every fiber, rewiring actions and
    labels accordingly; the result is isomorphic to the input."""
    g = c.carrier.base
    perms = []
    for x in g.objects:
        p = list(range(c.carrier.size(x)))
        rng.shuffle(p)
        perms.append(p)  # p[i] = new position of old element i
    fibers = []
    labels = []
    for x in g.objects:
        n = c.carrier.size(x)
        fib = [None] * n
        lab = [0] * n
        for i in range(n):
            fib[perms[x][i]] = c.carrier.fibers[x][i]
            lab[perms[x][i]] = c.label[x][i]
        fibers.append(fib)
        labels.append(lab)
    action = []
    for m in g.morphisms:
        x, y = g.dom[m], g.cod[m]
        old = c.carrier.action[m]
        img = [0] * len(old)
        for i in range(len(old)):
            img[perms[x][i]] = perms[y][old[i]]
        action.append(img)
    return CrossedGSet(GSet(g, fibers, action), c.weight, labels)


def sample_crossed(
    g: FiniteGroupoid,
    weight: GMonoid,
    rng: random.Random,
    max_fiber: int = 5,
    max_orbits: int = 3,
    options=None,
) -> CrossedGSet:
    """One random crossed G-set with every fiber at most max_fiber.

    Pass the result of _orbit_options as ``options`` when sampling many
    times over the same base and weight.
    """
    if options is None:
        options = _orbit_options(g, weight)
    budget = [max_fiber] * g.n_objects
    out = None
    for _ in range(rng.randint(0, max_orbits)):
        rep, sub_loops, invariant, size, cls = rng.choice(options)
        if any(budget[x] < size for x in cls):
            continue
        v = rng.choice(invariant)
        piece = induced_crossed(g, weight, rep, sub_loops, v)
        for x in cls:
            budget[x] -= size
        out = piece if out is None else crossed_coproduct(out, piece, check=False)
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
