"""Write perfbench/reference.json from the program at hand.

Usage (from the root of a source checkout):

    python3 perfbench/make_reference.py [--seeds 0,1,2]

Every operation of every workload runs once per seed.  The renumbering-
invariant part of each output (ring rank, multiset of structure constants,
multiset of unit coordinates, homomorphism dims and matrix entries, axiom
list) must agree across the seeds.  Each rank is cross-checked against an
independent count made here from the permutation groups of inputs.py:
conjugacy classes of subgroups for Burnside rings, and conjugacy classes
of pairs (H, x) with x fixed by H for crossed Burnside, Hadamard and
action-groupoid rings.  The true verdict of every verify operation is "ok":
the four theorems and the six axioms hold, so a command that reports a
counterexample is wrong, and the reference says so whatever the program
printed when this file was made.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from inputs import GROUPS, WORKLOADS, write_inputs  # noqa: E402
from run import ROOT, output_invariants, run_op, verdict  # noqa: E402


# -- independent rank counts ---------------------------------------------------------

def _compose(a, b):
    return tuple(a[b[i]] for i in range(len(a)))


def _inverse(a):
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def _closure(elems, gens):
    group = set(gens) | {tuple(range(len(next(iter(elems)))))}
    frontier = list(group)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(group):
                for c in (_compose(a, b), _compose(b, a)):
                    if c not in group:
                        group.add(c)
                        fresh.append(c)
        frontier = fresh
    return frozenset(group)


def subgroups(elems) -> set[frozenset]:
    found = {_closure(elems, [])}
    frontier = list(found)
    while frontier:
        fresh = []
        for h in frontier:
            for g in elems:
                if g not in h:
                    k = _closure(elems, list(h) + [g])
                    if k not in found:
                        found.add(k)
                        fresh.append(k)
        frontier = fresh
    return found


def pair_classes(elems, points, act) -> int:
    """Conjugacy classes of (H, x) with H a subgroup and x a point fixed by H,
    for the action act(g, x)."""
    seen = set()
    classes = 0
    for h in subgroups(elems):
        for x in points:
            if (h, x) in seen or any(act(a, x) != x for a in h):
                continue
            classes += 1
            for g in elems:
                gi = _inverse(g)
                seen.add((frozenset(_compose(_compose(g, a), gi) for a in h), act(g, x)))
    return classes


def conj(g, x):
    return _compose(_compose(g, x), _inverse(g))


@functools.cache
def burnside_rank(group: str) -> int:
    elems = GROUPS[group]()
    return pair_classes(elems, [None], lambda g, x: x)


@functools.cache
def crossed_rank(group: str) -> int:
    elems = GROUPS[group]()
    return pair_classes(elems, elems, conj)


@functools.cache
def natural_rank(group: str) -> int:
    elems = GROUPS[group]()
    return pair_classes(elems, range(len(elems[0])), lambda g, x: g[x])


def components(spec: str) -> list[str]:
    """Isotropy group of each component of a groupoid spec (see inputs.Op)."""
    out = []
    for part in spec.split("+"):
        groups = [p for p in part.split("*") if not p.startswith("pair:")]
        out.append(groups[0] if groups else "trivial")
    return out


def expected(op) -> dict | None:
    comps = components(op.groupoid)
    crossed = sum(crossed_rank(c) for c in comps)
    command = op.args[0] if op.args[0] != "verify" else op.args[1]
    if command == "crossed-burnside":
        return {"dim": crossed}
    if command == "burnside":
        return {"dim": sum(burnside_rank(c) for c in comps)}
    if command == "hadamard":
        return {"dim": crossed}  # conjugation G-set: the fixed points of H are C_G(H)
    if command == "action-groupoid-iso":
        d = crossed if op.gset == "conjugation" else natural_rank(comps[0])
        return {"dims": [d, d]}
    if command == "embedding":
        return {"source_dim": sum(burnside_rank(c) for c in comps), "target_dim": crossed}
    if command in ("reduction", "decomposition"):
        return {"source_dim": crossed, "target_dim": crossed}
    return None


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"make_reference: {message}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0,1,2")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    # published counts the independent enumerator must reproduce
    require(burnside_rank("S4") == 11, "S4 has 11 conjugacy classes of subgroups")
    require(burnside_rank("C2^4") == 67, "C2^4 has 67 subgroups")
    reference = {}
    work = os.path.join(ROOT, ".perfbench_run", "reference")
    for workload in WORKLOADS:
        for seed in seeds:
            for k, (op, argv) in enumerate(write_inputs(workload, seed, work)):
                res = run_op(argv, f"ref{k:02d}", work, 600, False)
                out_path = argv[argv.index("--out") + 1]
                out = None
                if os.path.exists(out_path):
                    with open(out_path, encoding="utf-8") as fh:
                        out = json.load(fh)
                    os.remove(out_path)
                got = verdict(op.kind, res["code"], out)
                inv = output_invariants(op.kind, out)
                want = expected(op)
                require(want is None or all(inv[key] == v for key, v in want.items()),
                        f"{op.name}: rank {inv} disagrees with the independent count {want}")
                entry = {"verdict": "ok", "invariants": inv}
                require(reference.setdefault(op.name, entry) == entry,
                        f"{op.name}: seed {seed} changes a renumbering invariant")
                print(f"{workload:9s} seed {seed} {op.name:36s} {got:40s} {want}", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
