"""Finite groupoids as validated composition tables, plus the basic
constructions: one-object groups, pair groupoids, disjoint unions, direct
products, connected components, isotropy groups, the structure isomorphism
of a connected groupoid, and the inclusion equivalence onto an isotropy
group.

Objects and morphisms are dense integers.  Composition is stored as a flat
table indexed by (g, f) with -1 marking non-composable pairs; all axioms
are checked exhaustively at validation time, which is cheap at the scales
this package targets and makes corrupted tables fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DomCodMismatch,
    EmptyObjectSet,
    MissingIdentity,
    MissingInverse,
    NonAssociative,
    NotAGroup,
    NotConnected,
    NotSubgroupoid,
    NotWide,
    UnknownObject,
)

SENTINEL = -1


class FiniteGroupoid:
    """A finite groupoid on dense integer ids.

    Objects are ``0..n_objects-1``.  Morphism ``m`` runs ``dom[m] -> cod[m]``.
    ``compose_table[g][f]`` is the composite ``g*f`` (apply f, then g) when
    ``dom[g] == cod[f]`` and -1 otherwise.  Instances are immutable by
    convention once validated; no operation mutates them.
    """

    def __init__(self, n_objects, dom, cod, compose_table, identity, inverse):
        self.n_objects = int(n_objects)
        self.dom = list(dom)
        self.cod = list(cod)
        self.compose_table = [list(row) for row in compose_table]
        self.identity = list(identity)
        self.inverse = list(inverse)
        self._by_dom: list[list[int]] | None = None
        self._by_cod: list[list[int]] | None = None

    # -- basic accessors ---------------------------------------------------

    @property
    def n_morphisms(self) -> int:
        return len(self.dom)

    @property
    def objects(self) -> range:
        return range(self.n_objects)

    @property
    def morphisms(self) -> range:
        return range(self.n_morphisms)

    def compose(self, g: int, f: int) -> int:
        """Composite g*f; raises if the pair is not composable."""
        gf = self.compose_table[g][f]
        if gf == SENTINEL:
            raise DomCodMismatch(f"morphisms ({g}, {f}) are not composable")
        return gf

    def by_dom(self, x: int) -> list[int]:
        """Morphism ids with dom == x, ascending."""
        if self._by_dom is None:
            out: list[list[int]] = [[] for _ in range(self.n_objects)]
            for m in self.morphisms:
                out[self.dom[m]].append(m)
            self._by_dom = out
        return self._by_dom[x]

    def by_cod(self, x: int) -> list[int]:
        """Morphism ids with cod == x, ascending."""
        if self._by_cod is None:
            out: list[list[int]] = [[] for _ in range(self.n_objects)]
            for m in self.morphisms:
                out[self.cod[m]].append(m)
            self._by_cod = out
        return self._by_cod[x]

    def hom(self, x: int, y: int) -> list[int]:
        """Morphism ids x -> y, ascending."""
        return [m for m in self.by_dom(x) if self.cod[m] == y]

    def loops(self, x: int) -> list[int]:
        """Morphism ids x -> x, ascending (the isotropy group at x)."""
        return self.hom(x, x)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteGroupoid):
            return NotImplemented
        return (
            self.n_objects == other.n_objects
            and self.dom == other.dom
            and self.cod == other.cod
            and self.compose_table == other.compose_table
            and self.identity == other.identity
            and self.inverse == other.inverse
        )

    def __repr__(self) -> str:
        return (
            f"FiniteGroupoid(objects={self.n_objects}, "
            f"morphisms={self.n_morphisms})"
        )


def validate_groupoid(g: FiniteGroupoid) -> FiniteGroupoid:
    """Check every groupoid axiom exhaustively and return ``g``.

    Raises a named error pointing at the first offending entry:
    EmptyObjectSet, DomCodMismatch, MissingIdentity, MissingInverse, or
    NonAssociative.
    """
    n, m = g.n_objects, g.n_morphisms
    if n < 1:
        raise EmptyObjectSet("the empty groupoid is excluded")
    if len(g.cod) != m:
        raise DomCodMismatch("dom and cod lists have different lengths")
    for f in range(m):
        if not (0 <= g.dom[f] < n and 0 <= g.cod[f] < n):
            raise DomCodMismatch(f"morphism {f} has dom/cod outside 0..{n-1}")
    if len(g.compose_table) != m or any(len(row) != m for row in g.compose_table):
        raise DomCodMismatch("compose table is not |M| x |M|")
    for gg in range(m):
        for f in range(m):
            gf = g.compose_table[gg][f]
            composable = g.dom[gg] == g.cod[f]
            if not composable:
                if gf != SENTINEL:
                    raise DomCodMismatch(
                        f"compose({gg}, {f}) defined on a non-composable pair"
                    )
                continue
            if gf == SENTINEL:
                raise DomCodMismatch(f"compose({gg}, {f}) missing")
            if not 0 <= gf < m:
                raise DomCodMismatch(f"compose({gg}, {f}) = {gf} out of range")
            if g.dom[gf] != g.dom[f] or g.cod[gf] != g.cod[gg]:
                raise DomCodMismatch(
                    f"compose({gg}, {f}) = {gf} has inconsistent dom/cod"
                )
    if len(g.identity) != n:
        raise MissingIdentity("identity list does not cover every object")
    for x in range(n):
        e = g.identity[x]
        if not (0 <= e < m) or g.dom[e] != x or g.cod[e] != x:
            raise MissingIdentity(f"identity({x}) = {e} is not a loop at {x}")
    for f in range(m):
        if g.compose_table[g.identity[g.cod[f]]][f] != f:
            raise MissingIdentity(
                f"identity({g.cod[f]}) is not a left unit for morphism {f}"
            )
        if g.compose_table[f][g.identity[g.dom[f]]] != f:
            raise MissingIdentity(
                f"identity({g.dom[f]}) is not a right unit for morphism {f}"
            )
    if len(g.inverse) != m:
        raise MissingInverse("inverse list does not cover every morphism")
    for f in range(m):
        fi = g.inverse[f]
        if not (0 <= fi < m) or g.dom[fi] != g.cod[f] or g.cod[fi] != g.dom[f]:
            raise MissingInverse(f"inverse({f}) = {fi} has wrong dom/cod")
        if g.compose_table[fi][f] != g.identity[g.dom[f]]:
            raise MissingInverse(f"inverse({f}) * {f} is not identity({g.dom[f]})")
        if g.compose_table[f][fi] != g.identity[g.cod[f]]:
            raise MissingInverse(f"{f} * inverse({f}) is not identity({g.cod[f]})")
    # associativity over composable triples only
    for h in range(m):
        for gg in g.by_cod(g.dom[h]):
            hg = g.compose_table[h][gg]
            for f in g.by_cod(g.dom[gg]):
                if g.compose_table[hg][f] != g.compose_table[h][g.compose_table[gg][f]]:
                    raise NonAssociative(f"triple ({h}, {gg}, {f})")
    return g


# -- groups ----------------------------------------------------------------

def check_group_table(table: list[list[int]]) -> int:
    """Verify a multiplication table is a group table; return the identity."""
    n = len(table)
    if n == 0:
        raise NotAGroup("empty table")
    for row in table:
        if len(row) != n or any(not (0 <= v < n) for v in row):
            raise NotAGroup("table is not n x n over 0..n-1")
    e = None
    for cand in range(n):
        if all(table[cand][b] == b and table[b][cand] == b for b in range(n)):
            e = cand
            break
    if e is None:
        raise NotAGroup("no identity element")
    for a in range(n):
        if not any(table[a][b] == e and table[b][a] == e for b in range(n)):
            raise NotAGroup(f"element {a} has no inverse")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise NotAGroup(f"non-associative triple ({a}, {b}, {c})")
    return e


def from_group(table: list[list[int]]) -> FiniteGroupoid:
    """One-object groupoid whose morphism group is the given Cayley table."""
    e = check_group_table(table)
    n = len(table)
    inv = [next(b for b in range(n) if table[a][b] == e) for a in range(n)]
    return validate_groupoid(
        FiniteGroupoid(
            n_objects=1,
            dom=[0] * n,
            cod=[0] * n,
            compose_table=[list(row) for row in table],
            identity=[e],
            inverse=inv,
        )
    )


def group_table_from_perm_gens(gens: list[list[int]]) -> list[list[int]]:
    """Cayley table of the permutation group generated by image lists.

    Elements are enumerated by breadth-first closure starting from the
    identity, so the numbering is deterministic for a fixed generator list.
    """
    if not gens:
        raise NotAGroup("no generators")
    deg = len(gens[0])
    for p in gens:
        if sorted(p) != list(range(deg)):
            raise NotAGroup(f"{p} is not a permutation of 0..{deg-1}")
    ident = tuple(range(deg))
    elems = [ident]
    index = {ident: 0}
    frontier = [ident]
    while frontier:
        new_frontier = []
        for p in frontier:
            for q in gens:
                r = tuple(q[p[i]] for i in range(deg))  # q after p
                if r not in index:
                    index[r] = len(elems)
                    elems.append(r)
                    new_frontier.append(r)
        frontier = new_frontier
    n = len(elems)
    table = [
        [index[tuple(a[b[i]] for i in range(deg))] for b in elems] for a in elems
    ]
    return table


# -- pair groupoid, coproduct, product --------------------------------------

def pair_groupoid(n: int) -> FiniteGroupoid:
    """Groupoid on n objects with exactly one morphism per ordered pair.

    Morphism (x, y) : x -> y has id x*n + y; the composite of (x, y) and
    (y, z) is (x, z).
    """
    if n < 1:
        raise EmptyObjectSet("pair groupoid needs at least one object")
    dom = [x for x in range(n) for _ in range(n)]
    cod = [y for _ in range(n) for y in range(n)]
    table = [[SENTINEL] * (n * n) for _ in range(n * n)]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                table[y * n + z][x * n + y] = x * n + z
    identity = [x * n + x for x in range(n)]
    inverse = [y * n + x for x in range(n) for y in range(n)]
    return validate_groupoid(
        FiniteGroupoid(n, dom, cod, table, identity, inverse)
    )


@dataclass
class GroupoidFunctor:
    """A functor between finite groupoids as explicit object/morphism maps."""

    source: FiniteGroupoid
    target: FiniteGroupoid
    object_map: list[int]
    morphism_map: list[int]

    def validate(self) -> "GroupoidFunctor":
        s, t = self.source, self.target
        if len(self.object_map) != s.n_objects:
            raise DomCodMismatch("object map does not cover every object")
        if len(self.morphism_map) != s.n_morphisms:
            raise DomCodMismatch("morphism map does not cover every morphism")
        om, mm = self.object_map, self.morphism_map
        for x in s.objects:
            if not 0 <= om[x] < t.n_objects:
                raise UnknownObject(f"object image {om[x]} out of range")
            if mm[s.identity[x]] != t.identity[om[x]]:
                raise MissingIdentity(f"identity at object {x} not preserved")
        for f in s.morphisms:
            if not 0 <= mm[f] < t.n_morphisms:
                raise DomCodMismatch(f"morphism image {mm[f]} out of range")
            if t.dom[mm[f]] != om[s.dom[f]] or t.cod[mm[f]] != om[s.cod[f]]:
                raise DomCodMismatch(f"dom/cod not preserved at morphism {f}")
        for g in s.morphisms:
            for f in s.by_cod(s.dom[g]):
                if mm[s.compose_table[g][f]] != t.compose_table[mm[g]][mm[f]]:
                    raise NonAssociative(
                        f"composition not preserved at pair ({g}, {f})"
                    )
        return self

    def is_isomorphism(self) -> bool:
        return (
            len(set(self.object_map)) == self.target.n_objects
            and len(self.object_map) == self.target.n_objects
            and len(set(self.morphism_map)) == self.target.n_morphisms
            and len(self.morphism_map) == self.target.n_morphisms
        )

    def __call__(self, morphism: int) -> int:
        return self.morphism_map[morphism]


def identity_functor(g: FiniteGroupoid) -> GroupoidFunctor:
    return GroupoidFunctor(
        g, g, list(g.objects), list(g.morphisms)
    ).validate()


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


def disjoint_union(
    parts: list[FiniteGroupoid],
) -> tuple[FiniteGroupoid, list[GroupoidFunctor]]:
    """Coproduct groupoid with parts reindexed in order; returns injections."""
    if not parts:
        raise EmptyObjectSet("disjoint union of no parts")
    obj_off, mor_off = [], []
    n_obj = n_mor = 0
    for p in parts:
        obj_off.append(n_obj)
        mor_off.append(n_mor)
        n_obj += p.n_objects
        n_mor += p.n_morphisms
    dom = [0] * n_mor
    cod = [0] * n_mor
    table = [[SENTINEL] * n_mor for _ in range(n_mor)]
    identity = [0] * n_obj
    inverse = [0] * n_mor
    for k, p in enumerate(parts):
        oo, mo = obj_off[k], mor_off[k]
        for m in p.morphisms:
            dom[mo + m] = oo + p.dom[m]
            cod[mo + m] = oo + p.cod[m]
            inverse[mo + m] = mo + p.inverse[m]
        for x in p.objects:
            identity[oo + x] = mo + p.identity[x]
        for g2 in p.morphisms:
            row_src = p.compose_table[g2]
            row_dst = table[mo + g2]
            for f in p.morphisms:
                if row_src[f] != SENTINEL:
                    row_dst[mo + f] = mo + row_src[f]
    union = validate_groupoid(
        FiniteGroupoid(n_obj, dom, cod, table, identity, inverse)
    )
    injections = [
        GroupoidFunctor(
            p,
            union,
            [obj_off[k] + x for x in p.objects],
            [mor_off[k] + m for m in p.morphisms],
        ).validate()
        for k, p in enumerate(parts)
    ]
    return union, injections


def direct_product(g: FiniteGroupoid, h: FiniteGroupoid) -> FiniteGroupoid:
    """Product groupoid: object (a, b) -> a*|H0| + b, componentwise tables."""
    no, nm = h.n_objects, h.n_morphisms
    n_obj = g.n_objects * no
    n_mor = g.n_morphisms * nm
    dom = [0] * n_mor
    cod = [0] * n_mor
    inverse = [0] * n_mor
    for p in g.morphisms:
        for q in h.morphisms:
            m = p * nm + q
            dom[m] = g.dom[p] * no + h.dom[q]
            cod[m] = g.cod[p] * no + h.cod[q]
            inverse[m] = g.inverse[p] * nm + h.inverse[q]
    identity = [
        g.identity[a] * nm + h.identity[b]
        for a in g.objects
        for b in h.objects
    ]
    table = [[SENTINEL] * n_mor for _ in range(n_mor)]
    for p2 in g.morphisms:
        for q2 in h.morphisms:
            row = table[p2 * nm + q2]
            for p1 in g.by_cod(g.dom[p2]):
                gp = g.compose_table[p2][p1]
                for q1 in h.by_cod(h.dom[q2]):
                    row[p1 * nm + q1] = gp * nm + h.compose_table[q2][q1]
    return validate_groupoid(
        FiniteGroupoid(n_obj, dom, cod, table, identity, inverse)
    )


# -- components, isotropy, transports ---------------------------------------

@dataclass
class ComponentData:
    """Partition of the object set under reachability."""

    classes: list[list[int]]
    representatives: list[int]

    @property
    def count(self) -> int:
        return len(self.classes)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # smaller id wins, keeping representatives deterministic
            if ra < rb:
                self.parent[rb] = ra
            else:
                self.parent[ra] = rb


def connected_components(g: FiniteGroupoid) -> ComponentData:
    """Partition objects by x ~ y iff some morphism x -> y exists.

    Classes are ordered by least object id, which is also the class
    representative.
    """
    uf = _UnionFind(g.n_objects)
    for m in g.morphisms:
        uf.union(g.dom[m], g.cod[m])
    buckets: dict[int, list[int]] = {}
    for x in g.objects:
        buckets.setdefault(uf.find(x), []).append(x)
    classes = [buckets[r] for r in sorted(buckets)]
    return ComponentData(classes=classes, representatives=sorted(buckets))


def is_connected(g: FiniteGroupoid) -> bool:
    return connected_components(g).count == 1


def loop_table(
    g: FiniteGroupoid, x: int
) -> tuple[list[int], dict[int, int], list[list[int]]]:
    """The loops at x in ascending morphism-id order, the position of each
    loop in that order, and the multiplication table of the isotropy group
    on positions."""
    loops = g.loops(x)
    pos = {m: k for k, m in enumerate(loops)}
    return loops, pos, [[pos[g.compose_table[a][b]] for b in loops] for a in loops]


def isotropy_group(
    g: FiniteGroupoid, x: int
) -> tuple[FiniteGroupoid, GroupoidFunctor]:
    """One-object groupoid on the loops at x, with its inclusion functor.

    Loop k of the isotropy group is the k-th loop of g at x in ascending
    morphism-id order; the inclusion functor records the correspondence.
    """
    if not 0 <= x < g.n_objects:
        raise UnknownObject(f"object {x} not in 0..{g.n_objects - 1}")
    loops, pos, table = loop_table(g, x)
    n = len(loops)
    iso = validate_groupoid(
        FiniteGroupoid(
            n_objects=1,
            dom=[0] * n,
            cod=[0] * n,
            compose_table=table,
            identity=[pos[g.identity[x]]],
            inverse=[pos[g.inverse[m]] for m in loops],
        )
    )
    inclusion = GroupoidFunctor(iso, g, [x], list(loops)).validate()
    return iso, inclusion


def component_transports(g: FiniteGroupoid, x: int) -> dict[int, int]:
    """Transport morphisms t_y : x -> y for each y in the component of x.

    t_x is the identity at x; every other t_y is the least morphism id in
    hom(x, y).  This fixed choice makes all constructions depending on
    transports deterministic.
    """
    if not 0 <= x < g.n_objects:
        raise UnknownObject(f"object {x} not in 0..{g.n_objects - 1}")
    t = {x: g.identity[x]}
    for m in g.by_dom(x):
        y = g.cod[m]
        if y != x and y not in t:
            t[y] = m  # by_dom is ascending, first hit is least
    return t


def transports(g: FiniteGroupoid, x: int) -> dict[int, int]:
    """Transports t_y : x -> y for every object; requires g connected."""
    t = component_transports(g, x)
    if len(t) != g.n_objects:
        raise NotConnected(f"object {next(iter(set(g.objects) - set(t)))} unreachable from {x}")
    return t


def retract(g: FiniteGroupoid, t: dict[int, int], m: int) -> int:
    """The loop t_w^-1 m t_y at the base of the transports t, for
    m : y -> w with both ends in the component of the base."""
    return g.compose_table[g.inverse[t[g.cod[m]]]][g.compose_table[m][t[g.dom[m]]]]


def connected_structure_iso(g: FiniteGroupoid, x: int) -> GroupoidFunctor:
    """Isomorphism from a connected g onto isotropy(x) x Pair(objects).

    A morphism m : y -> z goes to (t_z^-1 m t_y, (y, z)).
    """
    iso, inclusion = isotropy_group(g, x)
    t = transports(g, x)
    pos = {m: k for k, m in enumerate(inclusion.morphism_map)}
    n = g.n_objects
    target = direct_product(iso, pair_groupoid(n))
    n_pair_mor = n * n
    object_map = list(g.objects)  # (0, y) has product id y
    morphism_map = []
    for m in g.morphisms:
        y, z = g.dom[m], g.cod[m]
        morphism_map.append(pos[retract(g, t, m)] * n_pair_mor + (y * n + z))
    functor = GroupoidFunctor(g, target, object_map, morphism_map).validate()
    if not functor.is_isomorphism():
        raise NonAssociative("structure functor is not bijective")  # unreachable
    return functor


@dataclass
class EquivalenceData:
    """Inclusion/retraction pair exhibiting g ~ isotropy(z), with unit and
    counit natural isomorphisms given per object."""

    inclusion: GroupoidFunctor   # U : G_z -> G
    retraction: GroupoidFunctor  # R : G -> G_z
    eta: list[int]      # per object y of G, morphism t_y : (U R)(y) -> y
    epsilon: list[int]  # per object of G_z, loop id in G_z

    def validate(self) -> "EquivalenceData":
        g = self.inclusion.target
        gz = self.inclusion.source
        for y in g.objects:
            e = self.eta[y]
            if g.dom[e] != self.inclusion.object_map[self.retraction.object_map[y]]:
                raise NotConnected(f"eta component at {y} has wrong dom")
            if g.cod[e] != y:
                raise NotConnected(f"eta component at {y} has wrong cod")
        # naturality of eta: m * eta_dom == eta_cod * U(R(m)) for all m
        for m in g.morphisms:
            lhs = g.compose_table[m][self.eta[g.dom[m]]]
            ur = self.inclusion.morphism_map[self.retraction.morphism_map[m]]
            rhs = g.compose_table[self.eta[g.cod[m]]][ur]
            if lhs != rhs:
                raise NonAssociative(f"eta naturality fails at morphism {m}")
        # naturality of epsilon: h * eps == eps * R(U(h)) in G_z
        eps = self.epsilon[0]
        for h in gz.morphisms:
            ru = self.retraction.morphism_map[self.inclusion.morphism_map[h]]
            if gz.compose_table[h][eps] != gz.compose_table[eps][ru]:
                raise NonAssociative(f"epsilon naturality fails at loop {h}")
        return self


def inclusion_equivalence(g: FiniteGroupoid, z: int) -> EquivalenceData:
    """The equivalence between a connected g and its isotropy group at z.

    The retraction sends m : y -> w to t_w^-1 m t_y, with t_z the identity,
    so retraction . inclusion is the identity on the isotropy group and the
    counit is trivial.
    """
    iso, inclusion = isotropy_group(g, z)
    t = transports(g, z)
    pos = {m: k for k, m in enumerate(inclusion.morphism_map)}
    morphism_map = [pos[retract(g, t, m)] for m in g.morphisms]
    retraction = GroupoidFunctor(g, iso, [0] * g.n_objects, morphism_map).validate()
    eta = [t[y] for y in g.objects]
    epsilon = [iso.identity[0]]
    return EquivalenceData(inclusion, retraction, eta, epsilon).validate()


# -- subgroupoids -----------------------------------------------------------

@dataclass
class SubgroupoidSpec:
    """A subgroupoid given by its parent and a morphism subset."""

    parent: FiniteGroupoid
    morphism_subset: frozenset[int]

    def validate(self) -> "SubgroupoidSpec":
        g = self.parent
        sub = self.morphism_subset
        for m in sub:
            if not 0 <= m < g.n_morphisms:
                raise NotSubgroupoid(f"morphism {m} out of range")
            if g.inverse[m] not in sub:
                raise NotSubgroupoid(f"inverse of {m} missing")
            if g.identity[g.dom[m]] not in sub:
                raise NotSubgroupoid(f"identity at dom of {m} missing")
            if g.identity[g.cod[m]] not in sub:
                raise NotSubgroupoid(f"identity at cod of {m} missing")
        for a in sub:
            for b in sub:
                if g.dom[a] == g.cod[b] and g.compose_table[a][b] not in sub:
                    raise NotSubgroupoid(f"composite of ({a}, {b}) missing")
        return self

    def is_wide(self) -> bool:
        return all(self.parent.identity[x] in self.morphism_subset
                   for x in self.parent.objects)

    def loops_at(self, x: int) -> frozenset[int]:
        g = self.parent
        return frozenset(
            m for m in self.morphism_subset if g.dom[m] == x and g.cod[m] == x
        )


def is_normal_subgroupoid(g: FiniteGroupoid, sub: SubgroupoidSpec) -> bool:
    """Whether conjugation by every morphism of g maps loop sets onto each
    other: g N_{dom g} g^-1 == N_{cod g}."""
    if sub.parent is not g and sub.parent != g:
        raise NotSubgroupoid("subgroupoid spec does not belong to this groupoid")
    sub.validate()
    if not sub.is_wide():
        raise NotWide("normality is defined for wide subgroupoids")
    loop_cache = {x: sub.loops_at(x) for x in g.objects}
    for m in g.morphisms:
        x, y = g.dom[m], g.cod[m]
        conjugated = frozenset(
            g.compose_table[g.compose_table[m][n]][g.inverse[m]]
            for n in loop_cache[x]
        )
        if conjugated != loop_cache[y]:
            return False
    return True
