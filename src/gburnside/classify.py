"""Isomorphism testing for crossed G-sets, decomposition into transitive
pieces, and enumeration of the transitive basis underlying the Grothendieck
rings.

Coordinates over the basis come from the table of marks (``MarkTable``):
a labeled G-set is determined up to isomorphism by how many of its
elements each (subgroup, label) pair fixes, and the marks of the basis
form a triangular integer matrix.  The marks of a labeled G-set come
from its fixed points, and those of a transitive one from its fiber of
cosets (``CosetFiber``), which is how the basis and the columns of the
theorem homs in ``rings`` are read.  ``express_by_decomposition`` is the
reference route: ``transitive_decomposition`` splits a crossed set into
its orbits, each a plain ``CrossedGSet`` paired with its member ids, and
``BasisCatalog.find`` matches each to its entry by transporter search.
A basis entry is a ``TransitivePiece`` and nothing else.

Labels live in a target G-set: the weight G-monoid of the crossed
Burnside ring, or any G-set for the Hadamard ring of a slice.  Nothing
here uses a monoid product, so one catalog serves both rings.

Two independent enumeration routes are provided.  ``enumerate_basis``
classifies transitive crossed sets by pairs (subgroup of an isotropy group,
invariant label) up to simultaneous conjugacy and realizes each class as an
induced crossed set; subgroup classes are built class by class (Neubuser,
1960), extending one member by one element per coset, once per component
representative (``classes_at`` keeps the walk on the groupoid), and the label
values of one class share one coset fiber, which gives their marks and names
their row.  A basis carrier is built only when something reads it: the
reference routes, the brute-force comparison and the sampler.  The plain
subgroup lattice, the oracle of the class walk, is kept outside the package.
``brute_force_basis`` instead enumerates invariant partitions of the
morphisms out of a component representative (every transitive carrier
arises as such a quotient), attaches every consistent label, and
deduplicates with the generic isomorphism search; it exists to
cross-validate the classification and must stay independent of it.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, partial
from heapq import heapify, heappop, heappush
from itertools import groupby

from .errors import MarksNotTriangular, UnmatchedPiece, WeightMismatch
from .crossed import CrossedGSet, CrossedMap, induce, same_weight
from .groupoid import FiniteGroupoid, Record, component_transports, connected_components
from .gsets import (GMonoid, GSet, fixed_points, is_transitive, orbit_decomposition,
                    require_same_base)


# -- small-group helpers (tables on dense ids) --------------------------------

def subgroup_closure(table: list[list[int]], seed) -> frozenset[int]:
    """The subgroup generated by a non-empty seed: every product of seed
    elements, found by multiplying each new element on the right by each
    seed element, so O(|K| |seed|) table lookups.  In a finite group these
    products already hold the identity and all inverses."""
    gens = list(dict.fromkeys(seed))
    elems = set(gens)
    frontier = gens
    while frontier:
        fresh = []
        for a in frontier:
            row = table[a]
            for b in gens:
                c = row[b]
                if c not in elems:
                    elems.add(c)
                    fresh.append(c)
        frontier = fresh
    return frozenset(elems)


def subgroup_classes(table, elements, e, inv) -> list[tuple[list[frozenset[int]], list[int]]]:
    """Conjugacy classes of subgroups of the group of ``elements``
    (ascending ids, identity e, inverses inv) in ``table``, each with the
    normalizer of its canonical member: classes sorted by (order, least
    member), each class listing its canonical (least) member first.  On a
    groupoid's table, the loops at x name the subgroups of the isotropy
    group by loop ids; ``classes_at`` keeps that walk on the groupoid.

    Built class by class, without the full lattice: in the extension walk
    each new subgroup registers its whole conjugacy orbit, so only the
    first member R found of each class is extended, and by one element a
    per left coset aR, since <R, a> = <R, ah> for h in R.  This finds every
    class: any K != 1 is <M, a> for a maximal subgroup M of K and any a in
    K \\ M, and if M = c R c^-1 for the found member R of its class, then
    c^-1 K c = <R, c^-1 a c> is the extension of R by its coset of c^-1 a c.

    The orbit pass conjugates a new subgroup R by every element.  If
    b R b^-1 is the canonical member C, then a C a^-1 = C exactly when
    (ab) R (ab)^-1 = C, so N(C) = {c b^-1 : c R c^-1 = C} is read off the
    same pass."""

    def orbit(sub):
        conj = [frozenset(table[table[a][h]][inv[a]] for h in sub) for a in elements]
        members = sorted(set(conj), key=sorted)
        onto = [c for c, k in zip(elements, conj) if k == members[0]]
        return members, [table[c][inv[onto[0]]] for c in onto]

    trivial = frozenset({e})
    gens: dict[frozenset[int], tuple[int, ...]] = {trivial: ()}
    found = [orbit(trivial)]
    seen = set(found[0][0])
    frontier = [trivial]
    while frontier:
        fresh = []
        for sub in frontier:
            covered = set(sub)
            for a in elements:
                if a in covered:
                    continue
                covered.update(table[a][h] for h in sub)  # the coset a R
                seed = gens[sub] + (a,)
                grown = subgroup_closure(table, seed)
                if grown not in seen:
                    found.append(orbit(grown))
                    seen.update(found[-1][0])
                    gens[grown] = seed
                    fresh.append(grown)
        frontier = fresh
    found.sort(key=lambda c: (len(c[0][0]), sorted(c[0][0])))
    return found


def classes_at(g: FiniteGroupoid, rep: int) -> list[tuple[list[frozenset[int]], list[int]]]:
    """``subgroup_classes`` at rep on g's table, walked once and kept on g: do not change it."""
    if rep not in g._classes:
        g._classes[rep] = subgroup_classes(g.compose_table, g.loops(rep),
                                           g.identity[rep], g.inverse)
    return g._classes[rep]


# -- fingerprints and transitive pieces ----------------------------------------

def crossed_fingerprint(c: CrossedGSet) -> tuple:
    """An isomorphism invariant: per object, fiber size and sorted labels."""
    return tuple(
        (c.carrier.size(x), tuple(sorted(c.label[x])))
        for x in c.carrier.base.objects
    )


class TransitivePiece:
    """A basis entry: the transitive crossed set induced at the component
    representative from the (stabilizer subgroup, base label) pair
    ``standard_pair``, held as the ``CosetFiber`` of its subgroup class and
    its label's position there.  ``crossed`` reads the fiber's carriers,
    which are built on first read."""

    def __init__(self, component_rep: int, standard_pair: tuple[frozenset[int], int],
                 fiber: CosetFiber, index: int):
        self.component_rep, self.standard_pair = component_rep, standard_pair
        self.fiber, self.index = fiber, index

    @property
    def crossed(self) -> CrossedGSet:
        return self.fiber.crossed[self.index]


def transitive_decomposition(c: CrossedGSet) -> list[tuple[CrossedGSet, list[list[int]]]]:
    """The orbits of c, each a transitive crossed set with restricted labels
    paired with its member ids in c per object; the coproduct of the pieces
    is a relabeling of c."""
    g = c.carrier.base
    pieces = []
    for piece, embed in orbit_decomposition(g, c.carrier):
        members = embed.components
        label = [[c.label[x][i] for i in members[x]] for x in g.objects]
        pieces.append((CrossedGSet(piece, c.weight, label), members))
    return pieces


def _transitive_iso(p1: CrossedGSet, p2: CrossedGSet) -> list[list[int]] | None:
    """Base-point transporter search between transitive pieces.

    Fix the first element of p1 at the least object where it has elements;
    try each label-compatible image in p2 in ascending order; propagate
    along all morphisms out of that object and fail on any conflict.
    Success gives a full natural label-preserving bijection.  Callers must
    already have matched fingerprints (equal fiber sizes force any
    conflict-free propagation to be bijective).
    """
    g = p1.carrier.base
    rep = next(x for x in g.objects if p1.carrier.size(x))
    base_label = p1.label[rep][0]
    for cand in range(p2.carrier.size(rep)):
        if p2.label[rep][cand] != base_label:
            continue
        mapping = [[-1] * p1.carrier.size(x) for x in g.objects]
        ok = True
        for f in g.by_dom(rep):
            y = g.cod[f]
            src = p1.carrier.action[f][0]
            dst = p2.carrier.action[f][cand]
            seen = mapping[y][src]
            if seen == -1:
                mapping[y][src] = dst
            elif seen != dst:
                ok = False
                break
        if ok and all(-1 not in row for row in mapping):
            return mapping
    return None


def are_isomorphic(c1: CrossedGSet, c2: CrossedGSet) -> CrossedMap | None:
    """A label-preserving natural bijection, or None.

    Fingerprints prune, then pieces are matched greedily (isomorphism is an
    equivalence, so greedy matching within fingerprint classes is exact)
    and the per-piece witnesses are assembled into one crossed map.
    """
    same_weight(c1, c2)
    if crossed_fingerprint(c1) != crossed_fingerprint(c2):
        return None
    g = c1.carrier.base
    pieces1, pieces2 = transitive_decomposition(c1), transitive_decomposition(c2)
    if len(pieces1) != len(pieces2):
        return None
    used = [False] * len(pieces2)
    components = [[-1] * c1.carrier.size(x) for x in g.objects]
    for piece, members1 in pieces1:
        fp = crossed_fingerprint(piece)
        for l, (other, members2) in enumerate(pieces2):
            if used[l] or crossed_fingerprint(other) != fp:
                continue
            witness = _transitive_iso(piece, other)
            if witness is None:
                continue
            used[l] = True
            for x in g.objects:
                for i, w in enumerate(witness[x]):
                    components[x][members1[x][i]] = members2[x][w]
            break
        else:
            return None
    return CrossedMap(c1, c2, components).validate()


# -- induced transitive crossed sets --------------------------------------------

class CosetFiber:
    """The fiber at rep of the crossed sets induced from (H, v), for a
    subgroup H of the isotropy group at rep and each H-invariant value v of
    ``label_values``: the left cosets cH, each named by its least loop c,
    in loop order.  A loop u moves cH to (uc)H, and cH carries the label
    S(c)v (``labels``, one list per v), well defined because H fixes v.
    ``total`` is the size of the induced carrier, |G_rep : H| times the
    size of the component.  Marks need only the fiber (``fixed_by``).
    ``crossed`` spreads the fiber over the component with ``induce`` when
    first read: one carrier, validated once, and each labeling validated."""

    def __init__(self, g: FiniteGroupoid, weight: GMonoid | GSet, rep: int,
                 subgroup: frozenset[int], label_values):
        ct, inv = g.compose_table, g.inverse
        coset_of: dict[int, int] = {}
        coset_reps: list[int] = []
        for m in g.loops(rep):
            if m not in coset_of:
                k = len(coset_reps)
                coset_reps.append(m)
                for h in subgroup:
                    coset_of[ct[m][h]] = k
        self.g, self.weight, self.rep, self.subgroup = g, weight, rep, subgroup
        self.coset_of, self.coset_reps = coset_of, coset_reps
        self.stabilizers = [frozenset(ct[ct[c][h]][inv[c]] for h in subgroup) for c in coset_reps]
        self.labels = [[weight.action[c][v] for c in coset_reps] for v in label_values]
        self.total = len(coset_reps) * len(component_transports(g, rep))

    def fixed_by(self, sub: frozenset[int]) -> list[int]:
        """The cosets that the subgroup ``sub`` fixes: ucH = cH exactly when
        u lies in cHc^-1, the stabilizer of cH."""
        return [i for i, stab in enumerate(self.stabilizers) if sub <= stab]

    @cached_property
    def crossed(self) -> list[CrossedGSet]:
        ct, coset_of, reps = self.g.compose_table, self.coset_of, self.coset_reps
        loop_action = [[coset_of[ct[u][c]] for c in reps] for u in self.g.loops(self.rep)]
        return induce(self.weight, self.rep, len(reps), loop_action, self.labels)


def induced_crossed(
    g: FiniteGroupoid,
    weight: GMonoid | GSet,
    rep: int,
    subgroup: frozenset[int],
    label_values,
) -> list[CrossedGSet]:
    """The transitive crossed sets induced from (subgroup, invariant label)
    at a component representative, one per label value, all on one
    carrier: the ``CosetFiber`` spread over the component by ``induce``."""
    return CosetFiber(g, weight, rep, subgroup, label_values).crossed


# -- the table of marks ------------------------------------------------------------

def dense(coords, dim: int) -> list[int]:
    """The length-dim vector with the sparse coordinates ((k, c), ...)."""
    out = [0] * dim
    for k, c in coords:
        out[k] = c
    return out


class MarkTable:
    """The marks of a catalog's entries, and coordinates from marks.

    Each entry is a ``TransitivePiece``: a transitive labeled G-set at
    component representative rep, by the ``CosetFiber`` of its carrier and
    its label's position there, with the (stabilizer, label) pair (K, u)
    of one of its elements there.  Row k of the table is the mark
    phi_(K_k, u_k).  A transitive X has phi_(K, u)(X) > 0 only if
    K fixes an element x of X with label u, so |K| <= |Stab(x)|; with
    equality (K, u) is the (stabilizer, label) pair of x, which makes X
    isomorphic to the entry of that row.  With the entries pairwise
    non-isomorphic and ordered by ascending |K| within each component, the
    table is upper-triangular with diagonal |Stab_N(K)(u) : K| > 0; the
    constructor checks this.  Coordinates then follow from marks by exact
    integer back-substitution over the non-zero marks.  The marks of an
    entry are read off its fiber at rep, and consecutive entries on one
    fiber share one scan per row subgroup; no carrier is built.
    """

    def __init__(self, entries):
        d = len(entries)
        self.dim = d
        self.reps = [e.component_rep for e in entries]
        self.names = [f"(component {e.component_rep}, subgroup {sorted(e.standard_pair[0])}, "
                      f"label {e.standard_pair[1]})" for e in entries]
        self.totals = [e.fiber.total for e in entries]
        # one row subgroup (rep, K) per distinct fiber, and per fiber the row of each label
        ids = {f: s for s, f in enumerate(dict.fromkeys(e.fiber for e in entries))}
        self.subgroups = [(f.rep, f.subgroup) for f in ids]
        self.row_of: list[dict[int, int]] = [{} for _ in ids]
        for k, e in enumerate(entries):
            self.row_of[ids[e.fiber]][e.standard_pair[1]] = k
        self.at_rep: dict[int, list[int]] = {}
        for s, (rep, _) in enumerate(self.subgroups):
            self.at_rep.setdefault(rep, []).append(s)
        # fixed[j][s]: label -> mark of entry j under subgroup s, every label
        # (the tensor convolution sums over all factorizations of a label),
        # from one scan per run of entries on one fiber
        self.fixed: list[dict[int, dict[int, int]]] = []
        for fiber, run in groupby(entries, key=lambda e: e.fiber):
            labels = [fiber.labels[e.index] for e in run]
            self.fixed += self._fixed(fiber.fixed_by, labels, fiber.rep)
        self.diag = [0] * d
        self.above: list[list[tuple[int, int]]] = [[] for _ in range(d)]
        for j in range(d):
            column = self._marks(self.fixed[j])
            for k in sorted(column):
                m = column[k]
                if k > j:
                    raise MarksNotTriangular(
                        f"mark of row {k} {self.names[k]} is {m} on basis entry "
                        f"{j} {self.names[j]} below the diagonal"
                    )
                if k < j:
                    self.above[j].append((k, m))
            self.diag[j] = column.get(j, 0)
            if self.diag[j] <= 0:
                raise MarksNotTriangular(
                    f"diagonal mark of basis entry {j} {self.names[j]} is not positive"
                )

    def _fixed(self, fixed_by, labels, rep: int) -> list[dict[int, dict[int, int]]]:
        out: list[dict[int, dict[int, int]]] = [{} for _ in labels]
        for s in self.at_rep.get(rep, ()):
            points = fixed_by(self.subgroups[s][1])
            if points:
                for fixed, label in zip(out, labels):
                    fixed[s] = Counter(map(label.__getitem__, points))
        return out

    def _marks(self, fixed: dict[int, dict[int, int]]) -> dict[int, int]:
        """The non-zero row marks, by row, of per-subgroup label counts."""
        phi = {}
        for s, counts in fixed.items():
            row_of = self.row_of[s]
            for u, m in counts.items():
                k = row_of.get(u)
                if k is not None:
                    phi[k] = m
        return phi

    def _solve(self, phi: dict[int, int]) -> tuple[tuple[int, int], ...]:
        """The non-zero coordinates ((j, c_j), ...), j ascending, with the
        non-zero row marks ``phi`` (consumed), by back-substitution over
        those columns alone, highest first.  Every ``above[j]`` entry has
        k < j, so a column filled in by a subtraction is still below the
        ones already done and joins the max-heap in order."""
        diag, above, names = self.diag, self.above, self.names
        heap = [-k for k in phi]
        heapify(heap)
        coords = []
        while heap:
            j = -heappop(heap)
            v = phi[j]
            if v == 0:
                continue
            q, r = divmod(v, diag[j])
            if r or q < 0:
                raise UnmatchedPiece(
                    f"coordinate {v}/{diag[j]} of basis entry {j} {names[j]} "
                    f"is not a non-negative integer"
                )
            coords.append((j, q))
            for k, m in above[j]:
                if k in phi:
                    phi[k] -= m * q
                else:
                    phi[k] = -m * q
                    heappush(heap, -k)
        coords.reverse()
        return tuple(coords)

    def express(self, carrier: GSet, label) -> list[int]:
        """Coordinates of a labeled G-set from its marks; every element must
        be accounted for by the solution."""
        fixed: dict[int, dict[int, int]] = {}
        for rep in self.at_rep:
            fixed.update(self._fixed(partial(fixed_points, carrier, rep), [label[rep]], rep)[0])
        return self._covering(fixed, carrier.total_size)

    def express_fiber(self, rep: int, fixed_by, labels: list[int], total: int) -> list[int]:
        """Coordinates of a transitive labeled G-set of ``total`` elements
        from its fiber at the component representative rep: ``fixed_by(K)``
        lists the fiber points that K fixes, and ``labels`` labels them."""
        return self._covering(self._fixed(fixed_by, [labels], rep)[0], total)

    def _covering(self, fixed: dict[int, dict[int, int]], total: int) -> list[int]:
        coords = dense(self._solve(self._marks(fixed)), self.dim)
        covered = sum(n * t for n, t in zip(coords, self.totals))
        if covered != total:
            raise UnmatchedPiece(
                f"coordinates account for {covered} of {total} "
                f"elements; a transitive piece matched no catalog entry"
            )
        return coords

    def product(self, i: int, j: int, combine) -> tuple[tuple[int, int], ...]:
        """The sparse coordinates ((k, c), ...) of a product of entries i
        and j whose marks are ``combine(rep, marks_i, marks_j)`` per
        subgroup, each a dict from label to mark; no carrier and no dense
        vector is built.  Entries on two components share no subgroup row,
        so their product is the empty row."""
        rep = self.reps[i]
        fixed_j = self.fixed[j]
        prod = {}
        for s, a in self.fixed[i].items():
            b = fixed_j.get(s)
            if b:
                prod[s] = combine(rep, a, b)
        return self._solve(self._marks(prod))


# -- the catalog -----------------------------------------------------------------

class BasisCatalog(Record):
    """Ordered, pairwise non-isomorphic transitive representatives, with a
    fingerprint index for candidate lookup, which reads every carrier, and
    a table of marks, which reads only coset fibers; both are caches built on
    first use, so neither takes part in ``==``.  The labels live in ``weight``."""

    def __init__(self, base: FiniteGroupoid, weight: GMonoid | GSet,
                 entries: list[TransitivePiece]):
        self.base, self.weight, self.entries = base, weight, entries
        self._index: dict[tuple, list[int]] | None = None
        self._marks: MarkTable | None = None

    @property
    def dim(self) -> int:
        return len(self.entries)

    def marks(self) -> MarkTable:
        if self._marks is None:
            self._marks = MarkTable(self.entries)
        return self._marks

    def _admit(self, c: CrossedGSet) -> None:
        """Refuse a crossed set over another groupoid (BaseMismatch) or
        labeled in another target (WeightMismatch) than the catalog's."""
        require_same_base(c.carrier.base, self.base,
                          "crossed set does not live over the catalog's groupoid")
        if not (c.weight is self.weight or c.weight == self.weight):
            raise WeightMismatch("crossed set is not labeled in the catalog's target")

    def find(self, piece: CrossedGSet) -> int | None:
        """The index of the entry isomorphic to the transitive crossed set
        ``piece``, or None.  No component is compared: an entry with the
        piece's fingerprint has its fiber sizes, so it has elements on the
        same objects, which are the piece's component."""
        self._admit(piece)
        if self._index is None:
            self._index = {}
            for k, entry in enumerate(self.entries):
                self._index.setdefault(crossed_fingerprint(entry.crossed), []).append(k)
        for k in self._index.get(crossed_fingerprint(piece), []):
            if _transitive_iso(piece, self.entries[k].crossed) is not None:
                return k
        return None


def enumerate_basis(g: FiniteGroupoid, weight: GMonoid | GSet) -> BasisCatalog:
    """Classify transitive crossed sets per component by pairs (H, s), H a
    subgroup of the isotropy group up to conjugacy, named by its loop ids
    (``subgroup_classes`` on the table of g), and s an H-invariant label
    up to the action of the normalizer of H (recorded by the class walk),
    realized as induced crossed sets.  The labels live in ``weight``: a
    G-monoid, or any G-set (the transitive objects of the slice over it).

    The carrier depends on H alone: the entries of one subgroup class share
    one ``CosetFiber``, which gives their marks, and build one carrier
    from it when one of them is first read.  Entry order is (component,
    subgroup class by ascending order then elements, label class by least
    label id), components in representative order, so each component's
    entries are consecutive; the catalog is bit-for-bit reproducible.
    """
    require_same_base(g, weight.base, "weight does not live over this groupoid")
    entries = []
    for rep in connected_components(g).representatives:
        for cls, normalizer in classes_at(g, rep):
            remaining = set(fixed_points(weight, rep, cls[0]))
            if not remaining:
                continue  # no entry, so no fiber
            label_reps = []
            while remaining:
                v = min(remaining)
                label_reps.append(v)
                remaining -= {weight.action[a][v] for a in normalizer}
            fiber = CosetFiber(g, weight, rep, cls[0], label_reps)
            entries += [
                TransitivePiece(rep, (cls[0], v), fiber, k) for k, v in enumerate(label_reps)
            ]
    return BasisCatalog(g, weight, entries)


def express_in_basis(c: CrossedGSet, catalog: BasisCatalog) -> list[int]:
    """Multiplicity of each catalog entry in the transitive decomposition,
    from the marks of c by back-substitution in the catalog's table of
    marks."""
    catalog._admit(c)
    return catalog.marks().express(c.carrier, c.label)


def express_by_decomposition(c: CrossedGSet, catalog: BasisCatalog) -> list[int]:
    """Reference route for ``express_in_basis``: split c into orbits and
    match every piece to its catalog entry by transporter search."""
    catalog._admit(c)
    coords = [0] * catalog.dim
    for piece, _ in transitive_decomposition(c):
        k = catalog.find(piece)
        if k is None:
            raise UnmatchedPiece(
                f"piece with fingerprint {crossed_fingerprint(piece)} matched no catalog entry"
            )
        coords[k] += 1
    return coords


# -- brute-force oracle ------------------------------------------------------------

def _set_partitions(items: list[int]):
    """All partitions of items as lists of blocks, by restricted growth."""
    n = len(items)
    if n == 0:
        yield []
        return
    assignment = [0] * n

    def rec(i: int, n_blocks: int):
        if i == n:
            blocks: list[list[int]] = [[] for _ in range(n_blocks)]
            for j, b in enumerate(assignment):
                blocks[b].append(items[j])
            yield blocks
            return
        for b in range(n_blocks + 1):
            assignment[i] = b
            yield from rec(i + 1, max(n_blocks, b + 1))

    yield from rec(0, 0)


def brute_force_basis(g: FiniteGroupoid, weight: GMonoid | GSet) -> list[CrossedGSet]:
    """Independent oracle: enumerate every transitive crossed set and
    deduplicate with the generic isomorphism search.

    Transitive carriers are exactly the quotients of the morphisms out of a
    component representative by a partition invariant under
    post-composition; labels are then every assignment consistent with
    naturality, checked element by element.  No subgroup or conjugacy
    computation is involved.
    """
    reps = connected_components(g).representatives
    found: list[CrossedGSet] = []
    for rep in reps:
        for blocks in _set_partitions(g.by_dom(rep)):
            block_of = _block_map(g, blocks)
            if block_of is None:
                continue
            for labels in _consistent_labels(weight, rep, blocks):
                crossed = _partition_crossed(g, weight, blocks, block_of, labels)
                if not is_transitive(g, crossed.carrier):
                    continue  # unreachable; kept as an honesty check
                if all(are_isomorphic(crossed, seen) is None for seen in found):
                    found.append(crossed)
    return found


def _block_map(g, blocks) -> dict[int, int] | None:
    """The block of each morphism when the partition is invariant, else
    None: blocks must be cod-homogeneous and map into blocks under
    post-composition by every morphism."""
    block_of = {}
    for b, block in enumerate(blocks):
        cods = {g.cod[f] for f in block}
        if len(cods) != 1:
            return None
        for f in block:
            block_of[f] = b
    for block in blocks:
        y = g.cod[block[0]]
        for m in g.by_dom(y):
            first = block_of[g.compose_table[m][block[0]]]
            for f in block[1:]:
                if block_of[g.compose_table[m][f]] != first:
                    return None
    return block_of


def _consistent_labels(weight, rep, blocks):
    """Every weight value at rep whose propagation along the partition is
    well defined, yielding per-block label assignments."""
    out = []
    for v in range(weight.size(rep)):
        assignment = []
        ok = True
        for block in blocks:
            vals = {weight.action[f][v] for f in block}
            if len(vals) != 1:
                ok = False
                break
            assignment.append(vals.pop())
        if ok:
            out.append(assignment)
    return out


def _partition_crossed(g, weight, blocks, block_of, labels) -> CrossedGSet:
    per_object: list[list[int]] = [[] for _ in g.objects]
    position: dict[int, int] = {}
    for b, block in enumerate(blocks):
        y = g.cod[block[0]]
        position[b] = len(per_object[y])
        per_object[y].append(b)
    action = [[position[block_of[g.compose_table[m][blocks[b][0]]]] for b in per_object[g.dom[m]]]
              for m in g.morphisms]
    label = [[labels[b] for b in per_object[y]] for y in g.objects]
    sizes = [len(blocks_at) for blocks_at in per_object]
    return CrossedGSet(GSet(g, sizes, action), weight, label).validate()
