"""Seeded input generation for the gburnside CLI benchmark.

Every group is written out as a Cayley table under a random renumbering
of its elements chosen by the workload seed, so the program sees an
isomorphic but differently numbered table on every seed.  G-sets are
written as ``{"fibers", "action"}`` over the same renumbering.  Input
sizes never depend on the seed, and every reference invariant (ring rank,
multiset of structure constants, multiset of unit coordinates, verdict) is
unchanged by a renumbering.

This module does not import gburnside: the program only ever sees the
JSON files written here.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass


# -- groups as permutation lists -----------------------------------------------------

def perm_closure(gens: list[list[int]]) -> list[tuple[int, ...]]:
    """Every element of the permutation group generated by gens."""
    deg = len(gens[0])
    ident = tuple(range(deg))
    elems = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for p in frontier:
            for q in gens:
                r = tuple(q[p[i]] for i in range(deg))
                if r not in seen:
                    seen.add(r)
                    elems.append(r)
                    fresh.append(r)
        frontier = fresh
    return elems


def cyclic_perms(n: int) -> list[tuple[int, ...]]:
    return [tuple((i + k) % n for i in range(n)) for k in range(n)]


def direct_perms(a: list[tuple[int, ...]], b: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Direct product acting on the disjoint union of the two point sets."""
    shift = len(a[0])
    return [pa + tuple(shift + i for i in pb) for pa in a for pb in b]


def q8_perms() -> list[tuple[int, ...]]:
    """Q8 as its regular representation on {±1, ±i, ±j, ±k}."""
    units = ["1", "i", "j", "k"]
    table = {
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
    }
    for u in units:
        table[("1", u)] = (1, u)
        table[(u, "1")] = (1, u)
    elems = [(s, u) for u in units for s in (1, -1)]
    idx = {e: k for k, e in enumerate(elems)}

    def mul(a, b):
        s, u = table[(a[1], b[1])]
        return (a[0] * b[0] * s, u)

    return [tuple(idx[mul(a, b)] for b in elems) for a in elems]


GROUPS = {
    "trivial": lambda: cyclic_perms(1),
    "C2": lambda: cyclic_perms(2),
    "C3": lambda: cyclic_perms(3),
    "S3": lambda: perm_closure([[1, 0, 2], [1, 2, 0]]),
    "D4": lambda: perm_closure([[1, 2, 3, 0], [0, 3, 2, 1]]),
    "Q8": q8_perms,
    "A4": lambda: perm_closure([[1, 2, 0, 3], [0, 2, 3, 1]]),
    "S4": lambda: perm_closure([[1, 0, 2, 3], [1, 2, 3, 0]]),
    "D8": lambda: perm_closure([[1, 2, 3, 4, 5, 6, 7, 0], [0, 7, 6, 5, 4, 3, 2, 1]]),
    "C2^4": lambda: direct_perms(
        direct_perms(cyclic_perms(2), cyclic_perms(2)),
        direct_perms(cyclic_perms(2), cyclic_perms(2)),
    ),
}


class NumberedGroup:
    """A permutation group with its elements numbered by a permutation."""

    def __init__(self, perms: list[tuple[int, ...]], rng: random.Random):
        n = len(perms)
        order = list(range(n))
        rng.shuffle(order)
        self.perm_of = [None] * n  # element id -> permutation
        for k, p in enumerate(perms):
            self.perm_of[order[k]] = p
        self.index = {p: i for i, p in enumerate(self.perm_of)}
        deg = len(perms[0])
        # compose entry [g, f, gf]: gf is "g after f"
        self.table = [
            [self.index[tuple(a[b[i]] for i in range(deg))] for b in self.perm_of]
            for a in self.perm_of
        ]
        ident = self.index[tuple(range(deg))]
        self.inverse = [row.index(ident) for row in self.table]

    def groupoid_obj(self) -> dict:
        return {"group": {"table": self.table}}

    def conjugation_gset(self) -> dict:
        n = len(self.table)
        t = self.table
        return {
            "fibers": {"0": n},
            "action": {
                str(g): [t[t[g][x]][self.inverse[g]] for x in range(n)]
                for g in range(n)
            },
        }

    def natural_gset(self) -> dict:
        deg = len(self.perm_of[0])
        return {
            "fibers": {"0": deg},
            "action": {str(g): list(p) for g, p in enumerate(self.perm_of)},
        }


# -- operations -----------------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    """One CLI invocation of a workload; perfbench/README.md says why each
    one is there.

    ``groupoid`` is a spec string: a group name, ``pair:<n>``,
    ``<spec>*<spec>`` for a direct product or ``<spec>+<spec>+...`` for a
    disjoint union (products bind tighter than unions).  ``gset`` names a
    G-set of a one-object groupoid: ``conjugation`` or ``natural``.
    ``kind`` selects the reference check: ``ring``, ``hom``, ``iso`` or
    ``axioms``.
    """

    name: str
    args: tuple[str, ...]
    groupoid: str
    kind: str
    gset: str | None = None


CROSSED = ("crossed-burnside", "--weight", "conjugation")
ISO = ("verify", "action-groupoid-iso")

WORKLOADS: dict[str, list[Op]] = {
    "products": [
        *(Op(f"crossed-burnside:{g}", CROSSED, g, "ring")
          for g in ("S4", "D8", "A4", "S3*pair:2", "S3*pair:3", "S3*pair:4")),
        Op("hadamard:S4", ("hadamard",), "S4", "ring", "conjugation"),
        Op("hadamard:D8", ("hadamard",), "D8", "ring", "conjugation"),
        Op("action-groupoid-iso:D4", ISO, "D4", "iso", "conjugation"),
        Op("action-groupoid-iso:A4", ISO, "A4", "iso", "conjugation"),
        Op("action-groupoid-iso:S3-natural", ISO, "S3", "iso", "natural"),
    ],
    "ring_core": [
        Op("decomposition:C2+S3+D4", ("verify", "decomposition"), "C2+S3+D4", "hom"),
        Op("embedding:D4", ("verify", "embedding"), "D4", "hom"),
        Op("reduction:S3xPair(3)", ("verify", "reduction", "--object", "1"), "S3*pair:3", "hom"),
    ],
    "axioms": [
        Op(f"axioms:{weight}:{name}",
           ("verify", "axioms", "--weight", weight, "--samples", "100"), spec, "axioms")
        for weight in ("conjugation", "trivial")
        for name, spec in (
            ("trivial", "trivial"), ("C2", "C2"), ("C3", "C3"), ("S3", "S3"),
            ("D4", "D4"), ("Q8", "Q8"), ("Pair(1)", "pair:1"), ("Pair(2)", "pair:2"),
            ("Pair(3)", "pair:3"), ("Pair(4)", "pair:4"), ("C2xPair(2)", "C2*pair:2"),
            ("C2+S3", "C2+S3"), ("(C2xPair(2))+C3", "C2*pair:2+C3"),
        )
    ],
}

# Ops that fail on the seed for a reason recorded in perfbench/README.md.
# They stay in the workload and are counted in `failed`; the benchmark
# reports `correct: false` only for a failure not predicted here.
KNOWN_DEFECTS = {
    "action-groupoid-iso:D4": "no structure-preserving basis bijection",
    "action-groupoid-iso:A4": "no structure-preserving basis bijection",
}


class InputSet:
    """Renumbered groups for one seed, shared by all ops of a workload."""

    def __init__(self, seed: int):
        self.seed = seed
        self.groups: dict[str, NumberedGroup] = {}

    def group(self, name: str) -> NumberedGroup:
        if name not in self.groups:
            rng = random.Random(f"{self.seed}:{name}")
            self.groups[name] = NumberedGroup(GROUPS[name](), rng)
        return self.groups[name]

    def groupoid_obj(self, spec: str) -> dict:
        if "+" in spec:
            return {"disjoint_union": [self.groupoid_obj(p) for p in spec.split("+")]}
        if "*" in spec:
            return {"product": [self.groupoid_obj(p) for p in spec.split("*")]}
        if spec.startswith("pair:"):
            return {"pair": int(spec[5:])}
        return self.group(spec).groupoid_obj()

    def gset_obj(self, group: str, kind: str) -> dict:
        g = self.group(group)
        return g.conjugation_gset() if kind == "conjugation" else g.natural_gset()


def sampler_seed(seed: int) -> int:
    """The sampler's --seed for the axioms workload, chosen by the benchmark seed."""
    return random.Random(f"{seed}:sampler").randrange(2**31)


def write_inputs(workload: str, seed: int, directory: str) -> list[tuple[Op, list[str]]]:
    """Write every input file of a workload; return each op with its argv."""
    os.makedirs(directory, exist_ok=True)
    inputs = InputSet(seed)
    out = []
    for k, op in enumerate(WORKLOADS[workload]):
        gpath = os.path.join(directory, f"op{k:02d}-groupoid.json")
        with open(gpath, "w", encoding="utf-8") as fh:
            json.dump(inputs.groupoid_obj(op.groupoid), fh)
        argv = [*op.args, "--groupoid", gpath]
        if op.gset is not None:
            spath = os.path.join(directory, f"op{k:02d}-gset.json")
            with open(spath, "w", encoding="utf-8") as fh:
                json.dump(inputs.gset_obj(op.groupoid, op.gset), fh)
            argv += ["--gset", spath]
        if op.kind == "axioms":
            argv += ["--seed", str(sampler_seed(seed))]
        argv += ["--out", os.path.join(directory, f"op{k:02d}-out.json")]
        out.append((op, argv))
    return out
