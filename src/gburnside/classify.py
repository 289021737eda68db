"""Isomorphism testing for crossed G-sets, decomposition into transitive
pieces, and enumeration of the transitive basis underlying the Grothendieck
rings.

Coordinates over the basis come from the table of marks (``MarkTable``):
a labeled G-set is determined up to isomorphism by how many of its
elements each (subgroup, label) pair fixes, and the marks of the basis
form a triangular integer matrix.  ``express_by_decomposition`` is the
reference route, by orbit decomposition and transporter search.

Two independent enumeration routes are provided.  ``enumerate_basis``
classifies transitive crossed sets by pairs (subgroup of an isotropy group,
invariant label) up to simultaneous conjugacy and realizes each class as an
induced crossed set.  ``brute_force_basis`` instead enumerates invariant
partitions of the morphisms out of a component representative (every
transitive carrier arises as such a quotient), attaches every consistent
label, and deduplicates with the generic isomorphism search; it exists to
cross-validate the classification and must stay independent of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BoundTooSmall, MarksNotTriangular, UnmatchedPiece
from .crossed import CrossedGSet, CrossedMap, same_weight
from .groupoid import FiniteGroupoid, component_transports, connected_components
from .gsets import GMonoid, GSet, fixed_points, is_transitive, orbit_decomposition


# -- small-group helpers (tables on dense ids) --------------------------------

def group_identity(table: list[list[int]]) -> int:
    n = len(table)
    for e in range(n):
        if all(table[e][a] == a for a in range(n)):
            return e
    raise ValueError("table has no identity")


def group_inverses(table: list[list[int]]) -> list[int]:
    e = group_identity(table)
    n = len(table)
    return [next(b for b in range(n) if table[a][b] == e) for a in range(n)]


def subgroup_closure(table: list[list[int]], seed) -> frozenset[int]:
    e = group_identity(table)
    elems = {e} | set(seed)
    frontier = list(elems)
    while frontier:
        fresh = []
        for a in list(elems):
            for b in frontier:
                for c in (table[a][b], table[b][a]):
                    if c not in elems:
                        elems.add(c)
                        fresh.append(c)
        frontier = fresh
    return frozenset(elems)


def all_subgroups(table: list[list[int]]) -> list[frozenset[int]]:
    """Every subgroup, by closing element-by-element extensions; sorted by
    (order, sorted elements)."""
    e = group_identity(table)
    n = len(table)
    subs = {frozenset({e})}
    frontier = [frozenset({e})]
    while frontier:
        fresh = []
        for sub in frontier:
            for a in range(n):
                if a not in sub:
                    grown = subgroup_closure(table, sub | {a})
                    if grown not in subs:
                        subs.add(grown)
                        fresh.append(grown)
        frontier = fresh
    return sorted(subs, key=lambda h: (len(h), sorted(h)))


def conjugate_subgroup(table, inv, a: int, sub: frozenset[int]) -> frozenset[int]:
    return frozenset(table[table[a][h]][inv[a]] for h in sub)


def subgroup_conjugacy_classes(table) -> list[list[frozenset[int]]]:
    """Conjugacy classes of subgroups; classes sorted by (order, least
    member), each class listing its canonical (least) representative first."""
    inv = group_inverses(table)
    n = len(table)
    remaining = set(all_subgroups(table))
    classes = []
    while remaining:
        seed = min(remaining, key=lambda h: (len(h), sorted(h)))
        orbit = {conjugate_subgroup(table, inv, a, seed) for a in range(n)}
        classes.append(
            sorted(orbit, key=lambda h: sorted(h))
        )
        remaining -= orbit
    classes.sort(key=lambda cls: (len(cls[0]), sorted(cls[0])))
    return classes


# -- fingerprints and transitive pieces ----------------------------------------

def crossed_fingerprint(c: CrossedGSet) -> tuple:
    """An isomorphism invariant: per object, fiber size and sorted labels."""
    return tuple(
        (c.carrier.size(x), tuple(sorted(c.label[x])))
        for x in c.carrier.base.objects
    )


@dataclass
class TransitivePiece:
    """A transitive crossed set supported on a single component, optionally
    with (stabilizer subgroup, base label) coordinates."""

    component_rep: int
    crossed: CrossedGSet
    standard_pair: tuple[frozenset[int], int] | None = None

    @property
    def fingerprint(self) -> tuple:
        return crossed_fingerprint(self.crossed)


def _decompose_with_embeddings(c: CrossedGSet):
    g = c.carrier.base
    pieces = []
    embeds = []
    for piece_carrier, embed in orbit_decomposition(g, c.carrier):
        label = [
            [c.label[x][i] for i in embed.components[x]] for x in g.objects
        ]
        crossed = CrossedGSet(piece_carrier, c.weight, label)
        rep = min(x for x in g.objects if piece_carrier.size(x) > 0)
        base_elt = 0
        stab = frozenset(
            h for h in g.loops(rep) if piece_carrier.action[h][base_elt] == base_elt
        )
        pieces.append(
            TransitivePiece(rep, crossed, (stab, label[rep][base_elt]))
        )
        embeds.append(embed)
    return pieces, embeds


def transitive_decomposition(c: CrossedGSet) -> list[TransitivePiece]:
    """Orbit pieces of the carrier with restricted labels; the coproduct of
    the pieces is a relabeling of c."""
    return _decompose_with_embeddings(c)[0]


def _transitive_iso(p1: CrossedGSet, p2: CrossedGSet, rep: int) -> list[list[int]] | None:
    """Base-point transporter search between transitive pieces.

    Fix the first element of p1 at rep; try each label-compatible image in
    p2 in ascending order; propagate along all morphisms out of rep and
    fail on any conflict.  Success gives a full natural label-preserving
    bijection.  Callers must already have matched fingerprints (equal fiber
    sizes force any conflict-free propagation to be bijective).
    """
    g = p1.carrier.base
    base_label = p1.label[rep][0]
    n_rep = p2.carrier.size(rep)
    for cand in range(n_rep):
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
    pieces1, embeds1 = _decompose_with_embeddings(c1)
    pieces2, embeds2 = _decompose_with_embeddings(c2)
    if len(pieces1) != len(pieces2):
        return None
    used = [False] * len(pieces2)
    components = [[-1] * c1.carrier.size(x) for x in g.objects]
    for k, piece in enumerate(pieces1):
        fp = piece.fingerprint
        matched = False
        for l, other in enumerate(pieces2):
            if used[l] or other.fingerprint != fp:
                continue
            witness = _transitive_iso(piece.crossed, other.crossed, piece.component_rep)
            if witness is None:
                continue
            used[l] = True
            matched = True
            for x in g.objects:
                e1 = embeds1[k].components[x]
                e2 = embeds2[l].components[x]
                for i, w in enumerate(witness[x]):
                    components[x][e1[i]] = e2[w]
            break
        if not matched:
            return None
    return CrossedMap(c1, c2, components).validate()


# -- induced transitive crossed sets --------------------------------------------

def induced_crossed(
    g: FiniteGroupoid,
    weight: GMonoid,
    rep: int,
    subgroup: frozenset[int],
    label_value: int,
) -> CrossedGSet:
    """The transitive crossed set induced from (subgroup, invariant label)
    at a component representative, spread over the component via the fixed
    transports.

    The fiber at every component object is the set of left cosets of the
    subgroup in the isotropy group at rep; a morphism m : y -> w acts by
    left multiplication with t_w^-1 m t_y, and labels are transported by
    conjugation of the weight.
    """
    t = component_transports(g, rep)
    loops = g.loops(rep)
    coset_of: dict[int, int] = {}
    coset_reps: list[int] = []
    for m in loops:
        if m not in coset_of:
            k = len(coset_reps)
            coset_reps.append(m)
            for h in subgroup:
                coset_of[g.compose_table[m][h]] = k
    n_cosets = len(coset_reps)
    fibers = [
        list(range(n_cosets)) if x in t else [] for x in g.objects
    ]
    action = []
    for m in g.morphisms:
        y, w = g.dom[m], g.cod[m]
        if y not in t:
            action.append([])
            continue
        u = g.compose_table[g.inverse[t[w]]][g.compose_table[m][t[y]]]
        action.append(
            [coset_of[g.compose_table[u][coset_reps[k]]] for k in range(n_cosets)]
        )
    base_labels = [
        weight.action[coset_reps[k]][label_value] for k in range(n_cosets)
    ]
    label = [
        [weight.action[t[x]][v] for v in base_labels] if x in t else []
        for x in g.objects
    ]
    return CrossedGSet(GSet(g, fibers, action), weight, label).validate()


# -- the table of marks ------------------------------------------------------------

def label_marks(carrier: GSet, label: list[list[int]], rep: int, subgroup) -> dict[int, int]:
    """Per label value u, the mark phi_(K, u): how many elements of the
    fiber at rep every loop of the subgroup K fixes and carry label u.
    Labels without such an element are absent."""
    counts: dict[int, int] = {}
    lab = label[rep]
    for i in fixed_points(carrier, rep, subgroup):
        counts[lab[i]] = counts.get(lab[i], 0) + 1
    return counts


class MarkTable:
    """The marks of a catalog's entries, and coordinates from marks.

    Each entry is ``(rep, K, u, carrier, label)``: a transitive labeled
    G-set at component representative rep together with the (stabilizer,
    label) pair (K, u) of one of its elements there.  Row k of the table is
    the mark phi_(K_k, u_k).  A transitive X has phi_(K, u)(X) > 0 only if
    K fixes an element x of X with label u, so |K| <= |Stab(x)|; with
    equality (K, u) is the (stabilizer, label) pair of x, which makes X
    isomorphic to the entry of that row.  With the entries pairwise
    non-isomorphic and ordered by ascending |K| within each component, the
    table is upper-triangular with diagonal |Stab_N(K)(u) : K| > 0; the
    constructor checks this.  Coordinates then follow from marks by exact
    integer back-substitution.
    """

    def __init__(self, entries):
        d = len(entries)
        self.dim = d
        self.reps = [e[0] for e in entries]
        self.names = [
            f"(component {rep}, subgroup {sorted(sub)}, label {u})"
            for rep, sub, u, _, _ in entries
        ]
        self.totals = [carrier.total_size for _, _, _, carrier, _ in entries]
        # distinct (rep, K) over the rows, and the rows using each
        ids: dict[tuple[int, frozenset[int]], int] = {}
        self.subgroups: list[tuple[int, frozenset[int]]] = []
        self.rows_of: list[list[int]] = []
        self.row_label: list[int] = []
        for k, (rep, sub, u, _, _) in enumerate(entries):
            key = (rep, frozenset(sub))
            if key not in ids:
                ids[key] = len(self.subgroups)
                self.subgroups.append(key)
                self.rows_of.append([])
            self.rows_of[ids[key]].append(k)
            self.row_label.append(u)
        self.at_rep: dict[int, list[int]] = {}
        for s, (rep, _) in enumerate(self.subgroups):
            self.at_rep.setdefault(rep, []).append(s)
        # fixed[j][s]: label -> mark of entry j under subgroup s, every label
        # (the tensor convolution sums over all factorizations of a label)
        self.fixed = [
            self._fixed(carrier, label, [rep]) for rep, _, _, carrier, label in entries
        ]
        self.diag = [0] * d
        self.above: list[list[tuple[int, int]]] = [[] for _ in range(d)]
        for j in range(d):
            column = self._phi(self.fixed[j])
            for k, m in enumerate(column):
                if m and k > j:
                    raise MarksNotTriangular(
                        f"mark of row {k} {self.names[k]} is {m} on basis entry "
                        f"{j} {self.names[j]} below the diagonal"
                    )
                if m and k < j:
                    self.above[j].append((k, m))
            self.diag[j] = column[j]
            if self.diag[j] <= 0:
                raise MarksNotTriangular(
                    f"diagonal mark of basis entry {j} {self.names[j]} is not positive"
                )

    def _fixed(self, carrier: GSet, label, reps) -> dict[int, dict[int, int]]:
        out = {}
        for rep in reps:
            if carrier.size(rep) == 0:
                continue
            for s in self.at_rep.get(rep, ()):
                counts = label_marks(carrier, label, rep, self.subgroups[s][1])
                if counts:
                    out[s] = counts
        return out

    def _phi(self, fixed: dict[int, dict[int, int]]) -> list[int]:
        phi = [0] * self.dim
        for s, counts in fixed.items():
            for k in self.rows_of[s]:
                phi[k] = counts.get(self.row_label[k], 0)
        return phi

    def solve(self, phi: list[int]) -> list[int]:
        """The coordinates with these row marks, by back-substitution over
        the columns, skipping zero coordinates."""
        phi = list(phi)
        coords = [0] * self.dim
        for j in range(self.dim - 1, -1, -1):
            v = phi[j]
            if v == 0:
                continue
            q, r = divmod(v, self.diag[j])
            if r or q < 0:
                raise UnmatchedPiece(
                    f"coordinate {v}/{self.diag[j]} of basis entry {j} {self.names[j]} "
                    f"is not a non-negative integer"
                )
            coords[j] = q
            for k, m in self.above[j]:
                phi[k] -= m * q
        return coords

    def express(self, carrier: GSet, label) -> list[int]:
        """Coordinates of a labeled G-set from its marks; every element must
        be accounted for by the solution."""
        coords = self.solve(self._phi(self._fixed(carrier, label, self.at_rep)))
        covered = sum(n * t for n, t in zip(coords, self.totals))
        if covered != carrier.total_size:
            raise UnmatchedPiece(
                f"coordinates account for {covered} of {carrier.total_size} "
                f"elements; a transitive piece matched no catalog entry"
            )
        return coords

    def product(self, i: int, j: int, combine) -> list[int]:
        """Coordinates of a product of entries i and j whose marks are
        ``combine(rep, marks_i, marks_j)`` per subgroup, each a dict from
        label to mark; no carrier is built."""
        rep = self.reps[i]
        if self.reps[j] != rep:
            return [0] * self.dim
        fixed_j = self.fixed[j]
        prod = {}
        for s, a in self.fixed[i].items():
            b = fixed_j.get(s)
            if b:
                prod[s] = combine(rep, a, b)
        return self.solve(self._phi(prod))


# -- the catalog -----------------------------------------------------------------

@dataclass
class BasisCatalog:
    """Ordered, pairwise non-isomorphic transitive representatives, with a
    fingerprint index for candidate lookup and a table of marks built on
    first use."""

    base: FiniteGroupoid
    weight: GMonoid
    entries: list[TransitivePiece]
    index: dict[tuple, list[int]]
    _marks: MarkTable | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def marks(self) -> MarkTable:
        if self._marks is None:
            self._marks = MarkTable(
                [
                    (e.component_rep, *e.standard_pair, e.crossed.carrier, e.crossed.label)
                    for e in self.entries
                ]
            )
        return self._marks

    def find(self, piece: TransitivePiece) -> int | None:
        for k in self.index.get(piece.fingerprint, []):
            entry = self.entries[k]
            if (
                entry.component_rep == piece.component_rep
                and _transitive_iso(
                    piece.crossed, entry.crossed, piece.component_rep
                )
                is not None
            ):
                return k
        return None


def enumerate_basis(g: FiniteGroupoid, weight: GMonoid) -> BasisCatalog:
    """Classify transitive crossed sets per component by pairs (H, s), H a
    subgroup of the isotropy group up to conjugacy and s an H-invariant
    label up to simultaneous conjugacy, realized as induced crossed sets.

    Entry order is (component, subgroup class by ascending order then
    elements, label class by least label id); the catalog is bit-for-bit
    reproducible.
    """
    entries = []
    for rep in connected_components(g).representatives:
        loops = g.loops(rep)
        pos = {m: k for k, m in enumerate(loops)}
        table = [
            [pos[g.compose_table[a][b]] for b in loops] for a in loops
        ]
        inv = group_inverses(table)
        weight_act = [weight.action[m] for m in loops]  # by loop index
        for cls in subgroup_conjugacy_classes(table):
            canon = cls[0]
            invariant = [
                v
                for v in range(weight.size(rep))
                if all(weight_act[h][v] == v for h in canon)
            ]
            normalizer = [
                a
                for a in range(len(loops))
                if conjugate_subgroup(table, inv, a, canon) == canon
            ]
            remaining = set(invariant)
            label_reps = []
            while remaining:
                v = min(remaining)
                orbit = {weight_act[a][v] for a in normalizer}
                label_reps.append(v)
                remaining -= orbit
            for v in label_reps:
                subgroup_loops = frozenset(loops[h] for h in canon)
                crossed = induced_crossed(g, weight, rep, subgroup_loops, v)
                entries.append(
                    TransitivePiece(rep, crossed, (subgroup_loops, v))
                )
    index: dict[tuple, list[int]] = {}
    for k, entry in enumerate(entries):
        index.setdefault(entry.fingerprint, []).append(k)
    return BasisCatalog(g, weight, entries, index)


def express_in_basis(c: CrossedGSet, catalog: BasisCatalog) -> list[int]:
    """Multiplicity of each catalog entry in the transitive decomposition,
    from the marks of c by back-substitution in the catalog's table of
    marks."""
    return catalog.marks().express(c.carrier, c.label)


def express_by_decomposition(c: CrossedGSet, catalog: BasisCatalog) -> list[int]:
    """Reference route for ``express_in_basis``: split c into orbits and
    match every piece to its catalog entry by transporter search."""
    coords = [0] * catalog.dim
    for piece in transitive_decomposition(c):
        k = catalog.find(piece)
        if k is None:
            raise UnmatchedPiece(
                f"piece at component {piece.component_rep} with fingerprint "
                f"{piece.fingerprint} matched no catalog entry"
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


def brute_force_basis(
    g: FiniteGroupoid, weight: GMonoid, size_bound: int
) -> list[CrossedGSet]:
    """Independent oracle: enumerate every transitive crossed set with
    carrier size up to the bound and deduplicate with the generic
    isomorphism search.

    Transitive carriers are exactly the quotients of the morphisms out of a
    component representative by a partition invariant under
    post-composition; labels are then every assignment consistent with
    naturality, checked element by element.  No subgroup or conjugacy
    computation is involved.
    """
    reps = connected_components(g).representatives
    required = max(len(g.by_dom(rep)) for rep in reps)
    if size_bound < required:
        raise BoundTooSmall(
            f"size bound {size_bound} below the largest transitive carrier {required}"
        )
    found: list[CrossedGSet] = []
    for rep in reps:
        out = list(g.by_dom(rep))
        for blocks in _set_partitions(out):
            if not _invariant_partition(g, blocks):
                continue
            candidate_labels = _consistent_labels(g, weight, rep, blocks)
            for labels in candidate_labels:
                crossed = _partition_crossed(g, weight, rep, blocks, labels)
                if not is_transitive(g, crossed.carrier):
                    continue  # unreachable; kept as an honesty check
                if all(are_isomorphic(crossed, seen) is None for seen in found):
                    found.append(crossed)
    return found


def _invariant_partition(g, blocks) -> bool:
    """Blocks must be cod-homogeneous and map into blocks under
    post-composition by every morphism."""
    block_of = {}
    for b, block in enumerate(blocks):
        cods = {g.cod[f] for f in block}
        if len(cods) != 1:
            return False
        for f in block:
            block_of[f] = b
    for block in blocks:
        y = g.cod[block[0]]
        for m in g.by_dom(y):
            first = block_of[g.compose_table[m][block[0]]]
            for f in block[1:]:
                if block_of[g.compose_table[m][f]] != first:
                    return False
    return True


def _consistent_labels(g, weight, rep, blocks):
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


def _partition_crossed(g, weight, rep, blocks, labels) -> CrossedGSet:
    block_of = {}
    for b, block in enumerate(blocks):
        for f in block:
            block_of[f] = b
    per_object: list[list[int]] = [[] for _ in g.objects]
    position: dict[int, int] = {}
    for b, block in enumerate(blocks):
        y = g.cod[block[0]]
        position[b] = len(per_object[y])
        per_object[y].append(b)
    fibers = [list(per_object[y]) for y in g.objects]
    action = []
    for m in g.morphisms:
        action.append(
            [
                position[block_of[g.compose_table[m][blocks[b][0]]]]
                for b in per_object[g.dom[m]]
            ]
        )
    label = [[labels[b] for b in per_object[y]] for y in g.objects]
    return CrossedGSet(GSet(g, fibers, action), weight, label).validate()
