"""Functor data over a finite groupoid: G-sets, G-monoids, G-maps, the
conjugation action, action groupoids, orbits, and the product/coproduct
structure underlying the Burnside ring.

A G-set stores one finite fiber per object (a list of hashable element
labels; the label's position is its dense id) and one bijection per
morphism, as an index map from the dom fiber into the cod fiber.  Products
and coproducts build structured labels (tuples, tagged pairs) so that
coherence maps can be constructed by honest label lookup instead of index
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    AllFibersEmpty,
    BaseMismatch,
    NotNatural,
    NotSubgroup,
    UnknownObject,
)
from .groupoid import (
    SENTINEL,
    FiniteGroupoid,
    GroupoidFunctor,
    _UnionFind,
    loop_table,
    validate_groupoid,
)


def same_base(a: FiniteGroupoid, b: FiniteGroupoid) -> bool:
    return a is b or a == b


class GSet:
    """A functor from the base groupoid to finite sets."""

    def __init__(self, base: FiniteGroupoid, fibers, action):
        self.base = base
        self.fibers: list[list] = [list(f) for f in fibers]
        self.action: list[list[int]] = [list(a) for a in action]
        self._index: list[dict] | None = None

    def size(self, x: int) -> int:
        return len(self.fibers[x])

    @property
    def total_size(self) -> int:
        return sum(len(f) for f in self.fibers)

    def index(self, x: int) -> dict:
        """Label -> dense id lookup for the fiber at x."""
        if self._index is None:
            self._index = [
                {lab: i for i, lab in enumerate(f)} for f in self.fibers
            ]
        return self._index[x]

    def apply(self, m: int, i: int) -> int:
        return self.action[m][i]

    def validate(self) -> "GSet":
        g = self.base
        if len(self.fibers) != g.n_objects:
            raise NotNatural("fiber list does not cover every object")
        for x, f in enumerate(self.fibers):
            if len(set(f)) != len(f):
                raise NotNatural(f"duplicate element labels in fiber at {x}")
        if len(self.action) != g.n_morphisms:
            raise NotNatural("action list does not cover every morphism")
        for m in g.morphisms:
            img = self.action[m]
            nd, nc = self.size(g.dom[m]), self.size(g.cod[m])
            if len(img) != nd:
                raise NotNatural(f"action of morphism {m} has wrong domain size")
            if sorted(img) != list(range(nc)):
                raise NotNatural(f"action of morphism {m} is not a bijection")
        for x in g.objects:
            if self.action[g.identity[x]] != list(range(self.size(x))):
                raise NotNatural(f"identity at {x} does not act as identity")
        for g2 in g.morphisms:
            a2 = self.action[g2]
            for g1 in g.by_cod(g.dom[g2]):
                a1 = self.action[g1]
                comp = self.action[g.compose_table[g2][g1]]
                for i in range(len(a1)):
                    if a2[a1[i]] != comp[i]:
                        raise NotNatural(
                            f"functoriality fails at pair ({g2}, {g1}), element {i}"
                        )
        return self

    def __eq__(self, other) -> bool:
        if not isinstance(other, GSet):
            return NotImplemented
        return (
            same_base(self.base, other.base)
            and self.fibers == other.fibers
            and self.action == other.action
        )

    def __repr__(self) -> str:
        return f"GSet(fibers={[len(f) for f in self.fibers]})"


def terminal_gset(g: FiniteGroupoid) -> GSet:
    """Singleton fiber at every object; the monoidal unit carrier."""
    return GSet(
        g,
        [[0] for _ in g.objects],
        [[0] for _ in g.morphisms],
    ).validate()


def empty_gset(g: FiniteGroupoid) -> GSet:
    return GSet(g, [[] for _ in g.objects], [[] for _ in g.morphisms]).validate()


@dataclass
class Monoid:
    """A finite monoid on dense ids with an explicit multiplication table."""

    table: list[list[int]]
    unit: int

    @property
    def size(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def validate(self) -> "Monoid":
        n = self.size
        for row in self.table:
            if len(row) != n or any(not (0 <= v < n) for v in row):
                raise NotNatural("monoid table is not n x n over 0..n-1")
        if not 0 <= self.unit < n:
            raise NotNatural("monoid unit out of range")
        for a in range(n):
            if self.table[self.unit][a] != a or self.table[a][self.unit] != a:
                raise NotNatural(f"monoid unit fails at element {a}")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise NotNatural(f"monoid non-associative at ({a}, {b}, {c})")
        return self


class GMonoid:
    """A functor from the base groupoid to finite monoids.

    Action maps are required to be bijective monoid homomorphisms: the base
    is a groupoid, so every morphism must act by an isomorphism.
    """

    def __init__(self, base: FiniteGroupoid, monoids, action):
        self.base = base
        self.monoids: list[Monoid] = list(monoids)
        self.action: list[list[int]] = [list(a) for a in action]

    def size(self, x: int) -> int:
        return self.monoids[x].size

    def apply(self, m: int, s: int) -> int:
        return self.action[m][s]

    def mul(self, x: int, a: int, b: int) -> int:
        return self.monoids[x].mul(a, b)

    def unit(self, x: int) -> int:
        return self.monoids[x].unit

    def underlying(self) -> GSet:
        return GSet(
            self.base,
            [list(range(mon.size)) for mon in self.monoids],
            self.action,
        )

    def validate(self) -> "GMonoid":
        g = self.base
        if len(self.monoids) != g.n_objects:
            raise NotNatural("monoid list does not cover every object")
        for mon in self.monoids:
            mon.validate()
        self.underlying().validate()
        for m in g.morphisms:
            src, dst = self.monoids[g.dom[m]], self.monoids[g.cod[m]]
            img = self.action[m]
            if img[src.unit] != dst.unit:
                raise NotNatural(f"action of morphism {m} does not preserve the unit")
            for a in range(src.size):
                for b in range(src.size):
                    if img[src.table[a][b]] != dst.table[img[a]][img[b]]:
                        raise NotNatural(
                            f"action of morphism {m} is not a homomorphism at ({a}, {b})"
                        )
        return self

    def __eq__(self, other) -> bool:
        if not isinstance(other, GMonoid):
            return NotImplemented
        return (
            same_base(self.base, other.base)
            and self.monoids == other.monoids
            and self.action == other.action
        )

    def __repr__(self) -> str:
        return f"GMonoid(sizes={[mon.size for mon in self.monoids]})"


def underlying_gset(s: GMonoid) -> GSet:
    """Forget the monoid structure, keeping fibers and action."""
    return s.underlying().validate()


def trivial_gmonoid(g: FiniteGroupoid) -> GMonoid:
    """The constant one-element monoid; weight of the plain Burnside ring."""
    return GMonoid(
        g,
        [Monoid([[0]], 0) for _ in g.objects],
        [[0] for _ in g.morphisms],
    ).validate()


def conjugation_action(g: FiniteGroupoid) -> GMonoid:
    """The G-monoid x -> isotropy(x), morphisms acting by a -> g a g^-1.

    Element k of the monoid at x is the k-th loop at x in ascending
    morphism-id order.
    """
    loops, pos, tables = zip(*(loop_table(g, x) for x in g.objects))
    monoids = [Monoid(tables[x], pos[x][g.identity[x]]) for x in g.objects]
    action = []
    for m in g.morphisms:
        x, y = g.dom[m], g.cod[m]
        mi = g.inverse[m]
        action.append(
            [
                pos[y][g.compose_table[g.compose_table[m][a]][mi]]
                for a in loops[x]
            ]
        )
    return GMonoid(g, monoids, action).validate()


def conjugation_loops(s: GMonoid) -> list[list[int]] | None:
    """If s is structurally the conjugation G-monoid, return per object the
    loop morphism id of each monoid element; otherwise None."""
    conj = conjugation_action(s.base)
    if s.monoids == conj.monoids and s.action == conj.action:
        return [s.base.loops(x) for x in s.base.objects]
    return None


class GMap:
    """A natural transformation between G-sets over the same base."""

    def __init__(self, source: GSet, target: GSet, components):
        self.source = source
        self.target = target
        self.components: list[list[int]] = [list(c) for c in components]

    def apply(self, x: int, i: int) -> int:
        return self.components[x][i]

    def validate(self) -> "GMap":
        if not same_base(self.source.base, self.target.base):
            raise BaseMismatch("source and target live over different groupoids")
        g = self.source.base
        if len(self.components) != g.n_objects:
            raise NotNatural("component list does not cover every object")
        for x in g.objects:
            comp = self.components[x]
            if len(comp) != self.source.size(x):
                raise NotNatural(f"component at {x} has wrong domain size")
            n = self.target.size(x)
            if any(not (0 <= v < n) for v in comp):
                raise NotNatural(f"component at {x} maps outside the target fiber")
        for m in g.morphisms:
            x, y = g.dom[m], g.cod[m]
            src_a, tgt_a = self.source.action[m], self.target.action[m]
            cx, cy = self.components[x], self.components[y]
            for i in range(self.source.size(x)):
                if cy[src_a[i]] != tgt_a[cx[i]]:
                    raise NotNatural(
                        f"naturality fails at morphism {m}, element {i}"
                    )
        return self

    def is_bijection(self) -> bool:
        return all(
            sorted(self.components[x]) == list(range(self.target.size(x)))
            and self.source.size(x) == self.target.size(x)
            for x in self.source.base.objects
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, GMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.components == other.components
        )

    def __repr__(self) -> str:
        return f"GMap(components={[len(c) for c in self.components]})"


# -- action groupoid ---------------------------------------------------------

@dataclass
class ActionGroupoid:
    """The action groupoid of a G-set, with its projection functor and the
    tagged-pair decoding of the new dense ids."""

    groupoid: FiniteGroupoid
    projection: GroupoidFunctor
    object_tags: list[tuple[int, int]]    # new object id -> (object, element)
    morphism_tags: list[tuple[int, int]]  # new morphism id -> (morphism, element)


def action_groupoid(g: FiniteGroupoid, x: GSet) -> ActionGroupoid:
    """Objects are tagged fiber elements <G, a>, ordered lexicographically;
    a morphism <g, a> : <dom g, a> -> <cod g, g.a> exists for every g and a."""
    if not same_base(g, x.base):
        raise BaseMismatch("G-set does not live over this groupoid")
    obj_off = []
    total = 0
    for o in g.objects:
        obj_off.append(total)
        total += x.size(o)
    object_tags = [(o, i) for o in g.objects for i in range(x.size(o))]
    mor_off = []
    n_mor = 0
    for m in g.morphisms:
        mor_off.append(n_mor)
        n_mor += x.size(g.dom[m])
    morphism_tags = [
        (m, i) for m in g.morphisms for i in range(x.size(g.dom[m]))
    ]
    dom = [0] * n_mor
    cod = [0] * n_mor
    inverse = [0] * n_mor
    for m in g.morphisms:
        for i in range(x.size(g.dom[m])):
            t = mor_off[m] + i
            dom[t] = obj_off[g.dom[m]] + i
            cod[t] = obj_off[g.cod[m]] + x.action[m][i]
            inverse[t] = mor_off[g.inverse[m]] + x.action[m][i]
    identity = [
        mor_off[g.identity[o]] + i for o in g.objects for i in range(x.size(o))
    ]
    table = [[SENTINEL] * n_mor for _ in range(n_mor)]
    for g2 in g.morphisms:
        for g1 in g.by_cod(g.dom[g2]):
            comp = g.compose_table[g2][g1]
            a1 = x.action[g1]
            for i in range(x.size(g.dom[g1])):
                table[mor_off[g2] + a1[i]][mor_off[g1] + i] = mor_off[comp] + i
    grpd = validate_groupoid(
        FiniteGroupoid(total, dom, cod, table, identity, inverse)
    )
    projection = GroupoidFunctor(
        grpd,
        g,
        [o for o, _ in object_tags],
        [m for m, _ in morphism_tags],
    ).validate()
    return ActionGroupoid(grpd, projection, object_tags, morphism_tags)


def _orbit_classes(x: GSet) -> list[list[tuple[int, int]]]:
    """Connected components of the action groupoid, computed directly on
    tagged elements; classes ordered by least tagged element."""
    g = x.base
    offsets = []
    total = 0
    for o in g.objects:
        offsets.append(total)
        total += x.size(o)
    uf = _UnionFind(total)
    for m in g.morphisms:
        do, co = offsets[g.dom[m]], offsets[g.cod[m]]
        for i, j in enumerate(x.action[m]):
            uf.union(do + i, co + j)
    buckets: dict[int, list[tuple[int, int]]] = {}
    for o in g.objects:
        for i in range(x.size(o)):
            buckets.setdefault(uf.find(offsets[o] + i), []).append((o, i))
    return [buckets[r] for r in sorted(buckets)]


def is_transitive(g: FiniteGroupoid, x: GSet) -> bool:
    """Whether the action groupoid of x is connected."""
    if not same_base(g, x.base):
        raise BaseMismatch("G-set does not live over this groupoid")
    if x.total_size == 0:
        raise AllFibersEmpty("transitivity is undefined for the empty G-set")
    return len(_orbit_classes(x)) == 1


def orbit_decomposition(g: FiniteGroupoid, x: GSet) -> list[tuple[GSet, GMap]]:
    """Split x into transitive pieces with embeddings back into x.

    Pieces keep the original element labels, so the disjoint union of the
    pieces is literally a relabeling of x.
    """
    if not same_base(g, x.base):
        raise BaseMismatch("G-set does not live over this groupoid")
    out = []
    for cls in _orbit_classes(x):
        members: list[list[int]] = [[] for _ in g.objects]
        for o, i in cls:
            members[o].append(i)
        for lst in members:
            lst.sort()
        back = [
            {orig: k for k, orig in enumerate(lst)} for lst in members
        ]
        fibers = [[x.fibers[o][i] for i in members[o]] for o in g.objects]
        action = [
            [back[g.cod[m]][x.action[m][i]] for i in members[g.dom[m]]]
            for m in g.morphisms
        ]
        piece = GSet(g, fibers, action)
        embed = GMap(piece, x, [list(members[o]) for o in g.objects])
        out.append((piece, embed))
    return out


# -- products and coproducts --------------------------------------------------

def gset_product(x: GSet, y: GSet, check: bool = True) -> GSet:
    """Fiberwise cartesian product with the diagonal action.

    The element (a, b) has dense id i*|Y| + j, and its label is the pair of
    the factor labels.
    """
    if not same_base(x.base, y.base):
        raise BaseMismatch("product of G-sets over different groupoids")
    g = x.base
    fibers = [
        [(a, b) for a in x.fibers[o] for b in y.fibers[o]] for o in g.objects
    ]
    action = []
    for m in g.morphisms:
        ax, ay = x.action[m], y.action[m]
        w = y.size(g.cod[m])
        action.append([ax[i] * w + ay[j] for i in range(len(ax)) for j in range(len(ay))])
    out = GSet(g, fibers, action)
    return out.validate() if check else out


def gset_coproduct(x: GSet, y: GSet, check: bool = True) -> GSet:
    """Fiberwise disjoint union; elements keep tagged labels (0, a) / (1, b)."""
    if not same_base(x.base, y.base):
        raise BaseMismatch("coproduct of G-sets over different groupoids")
    g = x.base
    fibers = [
        [(0, a) for a in x.fibers[o]] + [(1, b) for b in y.fibers[o]]
        for o in g.objects
    ]
    action = []
    for m in g.morphisms:
        off = x.size(g.cod[m])
        action.append(
            list(x.action[m]) + [off + j for j in y.action[m]]
        )
    out = GSet(g, fibers, action)
    return out.validate() if check else out


# -- marks ---------------------------------------------------------------------

def check_subgroup(g: FiniteGroupoid, x: int, subgroup: frozenset[int]) -> None:
    """Verify a morphism subset is a subgroup of the isotropy group at x."""
    loops = set(g.loops(x))
    if not subgroup:
        raise NotSubgroup("a subgroup cannot be empty")
    for h in subgroup:
        if h not in loops:
            raise NotSubgroup(f"morphism {h} is not a loop at {x}")
        if g.inverse[h] not in subgroup:
            raise NotSubgroup(f"inverse of {h} missing")
    if g.identity[x] not in subgroup:
        raise NotSubgroup(f"identity at {x} missing")
    for a in subgroup:
        for b in subgroup:
            if g.compose_table[a][b] not in subgroup:
                raise NotSubgroup(f"composite of ({a}, {b}) missing")


def fixed_points(x: GSet, rep: int, subgroup) -> list[int]:
    """Elements of the fiber at rep fixed by every loop in the subgroup,
    ascending; the subgroup is not checked."""
    acts = [x.action[h] for h in subgroup]
    return [i for i in range(x.size(rep)) if all(a[i] == i for a in acts)]


def marks(g: FiniteGroupoid, x: GSet, rep: int, subgroup) -> int:
    """Number of elements of the fiber at rep fixed by every loop in the
    subgroup; an isomorphism invariant of G-sets."""
    if not 0 <= rep < g.n_objects:
        raise UnknownObject(f"object {rep} not in 0..{g.n_objects - 1}")
    sub = frozenset(subgroup)
    check_subgroup(g, rep, sub)
    return len(fixed_points(x, rep, sub))
