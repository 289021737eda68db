"""Functor data over a finite groupoid: G-sets, G-monoids, G-maps, the
conjugation action, action groupoids, orbits, and the product/coproduct
structure underlying the Burnside ring.

A G-set stores the size of its fiber at each object, whose elements are
the dense ids 0..n-1, and one bijection per morphism, as an index map from
the dom fiber into the cod fiber.  The product's element (i, j) has id
i*|Y| + j, and the coproduct's elements of Y follow those of X, so every
coherence map is an index formula.  Products and coproducts are built
without a proof; ``validate`` proves one on request.  Functoriality, the
G-monoid hom property, monoid associativity and G-map naturality are
checked on a proved generating set, which is equivalent to checking them
everywhere (each ``validate`` states its lemma and what it assumes).

The constructors of ``GSet``, ``GMonoid`` and ``GMap`` take ownership of
the lists they are handed and store them without copying; no operation
mutates such a list afterwards, so structures may share them.  A caller
that wants to edit one (to build a mutant, say) passes its own copy.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import (
    AllFibersEmpty,
    BaseMismatch,
    NotNatural,
)
from .groupoid import (
    BindOnce,
    FiniteGroupoid,
    GroupoidFunctor,
    Record,
    generating_set,
    loop_table,
    on_generators,
    tabulate,
)


def same_base(a: FiniteGroupoid, b: FiniteGroupoid) -> bool:
    return a is b or a == b


def require_same_base(a: FiniteGroupoid, b: FiniteGroupoid, message: str) -> None:
    if not same_base(a, b):
        raise BaseMismatch(message)


class GSet(Record):
    """A functor from the base groupoid to finite sets."""

    def __init__(self, base: FiniteGroupoid, sizes, action):
        self.base = base
        self.sizes: list[int] = sizes
        self.action: list[list[int]] = action

    def size(self, x: int) -> int:
        return self.sizes[x]

    @property
    def total_size(self) -> int:
        return sum(self.sizes)

    def validate(self) -> "GSet":
        """Functoriality is checked with the left factor in the proved
        generators S of a valid base (else in every morphism): if
        a(s*f) = a(s)a(f) for s in S, then for y = s*y', a(y*f) =
        a(s*(y'*f)) = a(s)a(y')a(f) = a(y)a(f), the base being associative."""
        g = self.base
        if len(self.sizes) != g.n_objects:
            raise NotNatural("size list does not cover every object")
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
        on_generators(self._check_functoriality, g._generators, g.morphisms)
        return self

    def _check_functoriality(self, lefts) -> None:
        g = self.base
        for g2 in lefts:
            a2 = self.action[g2]
            for g1 in g.by_cod(g.dom[g2]):
                a1 = self.action[g1]
                comp = self.action[g.compose_table[g2][g1]]
                for i in range(len(a1)):
                    if a2[a1[i]] != comp[i]:
                        raise NotNatural(
                            f"functoriality fails at pair ({g2}, {g1}), element {i}"
                        )

    def __repr__(self) -> str:
        return f"GSet(sizes={self.sizes})"


def terminal_gset(g: FiniteGroupoid) -> GSet:
    """Singleton fiber at every object; the monoidal unit carrier."""
    return GSet(g, [1] * g.n_objects, [[0] for _ in g.morphisms]).validate()


def empty_gset(g: FiniteGroupoid) -> GSet:
    return GSet(g, [0] * g.n_objects, [[] for _ in g.morphisms]).validate()


class Monoid(BindOnce, Record):
    """A finite monoid on dense ids with an explicit multiplication table."""

    _FIELDS = frozenset({"table", "unit"})

    def __init__(self, table: list[list[int]], unit: int):
        self.table, self.unit = table, unit

    @property
    def size(self) -> int:
        return len(self.table)

    def validate(self) -> "Monoid":
        n = self.size
        for row in self.table:
            if len(row) != n or any(not (0 <= v < n) for v in row):
                raise NotNatural("monoid table is not n x n over 0..n-1")
        if not 0 <= self.unit < n:
            raise NotNatural("monoid unit out of range")
        a = self.unit_failure()
        if a is not None:
            raise NotNatural(f"monoid unit fails at element {a}")
        abc = self.associativity_failure()
        if abc is not None:
            raise NotNatural(f"monoid non-associative at {abc}")
        return self

    def unit_failure(self) -> int | None:
        """The first element a with ea != a or ae != a for the unit e, or
        None: the two-sided unit law."""
        t, e = self.table, self.unit
        return next((a for a in range(self.size) if t[e][a] != a or t[a][e] != a), None)

    def associativity_failure(self) -> tuple[int, int, int] | None:
        """The first triple (a, b, c) in lexicographic order with (ab)c !=
        a(bc), or None.  With a two-sided unit e, b runs first over the
        generators S proved by closure from e (Light's test, as in
        ``validate_groupoid``): every b is then e, which passes, or s*y
        with y reached before.  The lemma needs e two-sided, so without
        one, and to name the first witness, b runs over every element."""
        gens = generating_set(self.table, [self.unit])
        if self.unit_failure() is None and self._non_associative(gens) is None:
            return None
        return self._non_associative(range(self.size))

    def _non_associative(self, mids) -> tuple[int, int, int] | None:
        t, n = self.table, self.size
        for a in range(n):
            for b in mids:
                for c in range(n):
                    if t[t[a][b]][c] != t[a][t[b][c]]:
                        return a, b, c
        return None


class GMonoid(BindOnce, Record):
    """A functor from the base groupoid to finite monoids.

    Action maps are required to be bijective monoid homomorphisms: the base
    is a groupoid, so every morphism must act by an isomorphism.  Its
    fields are bound once (the unit object is cached on the instance).
    """

    _FIELDS = frozenset({"base", "monoids", "action"})

    def __init__(self, base: FiniteGroupoid, monoids, action):
        self.base = base
        self.monoids: list[Monoid] = monoids
        self.action: list[list[int]] = action
        self._unit_object = None  # set by crossed.unit_object

    def size(self, x: int) -> int:
        return self.monoids[x].size

    def unit(self, x: int) -> int:
        return self.monoids[x].unit

    def underlying(self) -> GSet:
        return GSet(self.base, [mon.size for mon in self.monoids], self.action)

    def validate(self) -> "GMonoid":
        """The hom property is checked on the base's generators only: once
        the G-set is functorial, a(s*y') = a(s)a(y') is a hom if both are."""
        g = self.base
        if len(self.monoids) != g.n_objects:
            raise NotNatural("monoid list does not cover every object")
        for mon in self.monoids:
            mon.validate()
        self.underlying().validate()
        on_generators(self._check_homs, g._generators, g.morphisms)
        return self

    def _check_homs(self, morphisms) -> None:
        g = self.base
        for m in morphisms:
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

    def __repr__(self) -> str:
        return f"GMonoid(sizes={[mon.size for mon in self.monoids]})"


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
    morphism-id order, ``g.loops(x)``.  Built and validated once per
    groupoid, which keeps it and no loop list: every call on the same
    groupoid returns the same object, so callers must not mutate it.
    """
    if g._conjugation is None:
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
        g._conjugation = GMonoid(g, monoids, action).validate()
    return g._conjugation


def conjugation_loops(s: GMonoid | GSet) -> list[list[int]] | None:
    """If s is structurally the conjugation G-monoid, return per object the
    loop morphism id of each monoid element; otherwise (a G-set too) None.
    That is the groupoid's own ``loops``, the same on every call: keep it."""
    conj = conjugation_action(s.base)
    if s is conj or isinstance(s, GMonoid) and (s.monoids, s.action) == (conj.monoids, conj.action):
        return s.base._loops
    return None


class GMap(Record):
    """A natural transformation between G-sets over the same base."""

    def __init__(self, source: GSet, target: GSet, components):
        self.source = source
        self.target = target
        self.components: list[list[int]] = components

    def validate(self) -> "GMap":
        """Naturality is checked at the proved generators S of a valid base
        (else at every morphism).  Source X and target X' must be functorial:
        validated, or products or coproducts of validated G-sets.  Then it
        holds at identities, and at s*y' if at s and y': c X(s)X(y') =
        X'(s) c X(y') = X'(s)X'(y') c."""
        require_same_base(self.source.base, self.target.base,
                          "source and target live over different groupoids")
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
        on_generators(self._check_naturality, g._generators, g.morphisms)
        return self

    def _check_naturality(self, morphisms) -> None:
        g = self.source.base
        for m in morphisms:
            x, y = g.dom[m], g.cod[m]
            src_a, tgt_a = self.source.action[m], self.target.action[m]
            cx, cy = self.components[x], self.components[y]
            for i in range(self.source.size(x)):
                if cy[src_a[i]] != tgt_a[cx[i]]:
                    raise NotNatural(
                        f"naturality fails at morphism {m}, element {i}"
                    )

    def is_bijection(self) -> bool:
        return all(
            sorted(self.components[x]) == list(range(self.target.size(x)))
            and self.source.size(x) == self.target.size(x)
            for x in self.source.base.objects
        )

    def __repr__(self) -> str:
        return f"GMap(components={[len(c) for c in self.components]})"


# -- action groupoid ---------------------------------------------------------

class ActionGroupoid(Record):
    """The action groupoid of a G-set, its projection functor, and the tags that
    decode new ids: object -> (object, element), morphism -> (morphism, element)."""

    def __init__(self, groupoid: FiniteGroupoid, projection: GroupoidFunctor,
                 object_tags: list[tuple[int, int]], morphism_tags: list[tuple[int, int]]):
        self.groupoid, self.projection = groupoid, projection
        self.object_tags, self.morphism_tags = object_tags, morphism_tags


def action_groupoid(g: FiniteGroupoid, x: GSet) -> ActionGroupoid:
    """Objects are tagged fiber elements <G, a>, ordered lexicographically;
    a morphism <g, a> : <dom g, a> -> <cod g, g.a> exists for every g and a,
    and <g2, g1.a> after <g1, a> is <g2 g1, a>.  The table is built by
    ``groupoid.tabulate``."""
    require_same_base(g, x.base, "G-set does not live over this groupoid")
    object_tags = [(o, i) for o in g.objects for i in range(x.size(o))]
    morphism_tags = [
        (m, i) for m in g.morphisms for i in range(x.size(g.dom[m]))
    ]
    # <o, i> has id obj_off[o] + i and <m, i> has id mor_off[m] + i
    obj_off = list(accumulate(x.sizes, initial=0))
    mor_off = list(accumulate((x.size(o) for o in g.dom), initial=0))
    dom, cod, inverse = [], [], []
    for m, i in morphism_tags:
        j = x.action[m][i]
        dom.append(obj_off[g.dom[m]] + i)
        cod.append(obj_off[g.cod[m]] + j)
        inverse.append(mor_off[g.inverse[m]] + j)
    identity = [mor_off[g.identity[o]] + i for o, i in object_tags]

    def compose(t2: int, t1: int) -> int:  # composable: t2 = <g2, g1.a>
        (g2, _), (g1, a) = morphism_tags[t2], morphism_tags[t1]
        return mor_off[g.compose_table[g2][g1]] + a

    grpd = tabulate(len(object_tags), dom, cod, identity, inverse, compose)
    projection = GroupoidFunctor(
        grpd,
        g,
        [o for o, _ in object_tags],
        [m for m, _ in morphism_tags],
    ).validate()
    return ActionGroupoid(grpd, projection, object_tags, morphism_tags)


def _orbit_classes(x: GSet) -> list[list[list[int]]]:
    """The orbits of x as their members per object, ascending, ordered by
    least tagged element (o, i).  x is functorial, so "some m : o -> o'
    takes i to j" is already an equivalence (identities, inverses and
    composites act): the orbit of (o, i) is {(cod m, m.i) : dom m = o}."""
    g = x.base
    seen: list[set[int]] = [set() for _ in g.objects]
    out = []
    for o in g.objects:
        for i in range(x.size(o)):
            if i not in seen[o]:
                members: list[set[int]] = [set() for _ in g.objects]
                for m in g.by_dom(o):
                    members[g.cod[m]].add(x.action[m][i])
                out.append([sorted(js) for js in members])
                for done, js in zip(seen, members):
                    done |= js
    return out


def is_transitive(g: FiniteGroupoid, x: GSet) -> bool:
    """Whether the action groupoid of x (functorial) is connected."""
    require_same_base(g, x.base, "G-set does not live over this groupoid")
    if x.total_size == 0:
        raise AllFibersEmpty("transitivity is undefined for the empty G-set")
    return len(_orbit_classes(x)) == 1


def orbit_decomposition(g: FiniteGroupoid, x: GSet) -> list[tuple[GSet, GMap]]:
    """Split x into transitive pieces with embeddings back into x.

    A piece numbers its elements at each object in the order of their
    ids in x; the embedding's component lists those ids.  x must be
    functorial: validated, or a product or coproduct of validated G-sets.
    """
    require_same_base(g, x.base, "G-set does not live over this groupoid")
    out = []
    for members in _orbit_classes(x):
        back = [
            {orig: k for k, orig in enumerate(lst)} for lst in members
        ]
        action = [
            [back[g.cod[m]][x.action[m][i]] for i in members[g.dom[m]]]
            for m in g.morphisms
        ]
        piece = GSet(g, [len(lst) for lst in members], action)
        embed = GMap(piece, x, members)
        out.append((piece, embed))
    return out


# -- products and coproducts --------------------------------------------------

def gset_product(x: GSet, y: GSet) -> GSet:
    """Fiberwise cartesian product with the diagonal action.

    The element (i, j) has dense id i*|Y| + j.
    """
    require_same_base(x.base, y.base, "product of G-sets over different groupoids")
    g = x.base
    action = []
    for m in g.morphisms:
        ax, ay = x.action[m], y.action[m]
        w = y.sizes[g.cod[m]]
        action.append([i * w + j for i in ax for j in ay])
    return GSet(g, [a * b for a, b in zip(x.sizes, y.sizes)], action)


def gset_coproduct(x: GSet, y: GSet) -> GSet:
    """Fiberwise disjoint union: at each object the element j of y has id
    |X| + j, after the elements of x."""
    require_same_base(x.base, y.base, "coproduct of G-sets over different groupoids")
    g = x.base
    action = []
    for m in g.morphisms:
        off = x.size(g.cod[m])
        action.append(x.action[m] + [off + j for j in y.action[m]])
    sizes = [a + b for a, b in zip(x.sizes, y.sizes)]
    return GSet(g, sizes, action)


def fixed_points(x: GSet | GMonoid, rep: int, subgroup) -> list[int]:
    """Elements of the fiber at rep fixed by every loop in the subgroup,
    ascending; the subgroup is not checked."""
    acts = [x.action[h] for h in subgroup]
    return [i for i in range(x.size(rep)) if all(a[i] == i for a in acts)]
