"""Finite groupoids as validated composition tables, plus the basic
constructions: one-object groups, pair groupoids, disjoint unions, direct
products, connected components, isotropy groups with their inclusions,
and the transport morphisms and the retraction along which
``crossed.restrict`` and ``crossed.induce`` move crossed sets between a
component and an isotropy group.  Each per-object fact (loops, transports,
isotropy group, subgroup classes) is derived once and kept on the groupoid.

Objects and morphisms are dense integers.  Composition is stored as a flat
table indexed by (g, f) with -1 marking non-composable pairs; validation
proves every axiom, associativity on a proved generating set (see
``validate_groupoid``), so corrupted tables fail loudly.

A groupoid derived from others (``pair_groupoid``, ``disjoint_union``,
``direct_product`` and ``gsets.action_groupoid``) states its id formulas
and its composition rule, and ``tabulate`` fills and validates the table:
that is the one path by which a derived table is built.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import (
    DomCodMismatch,
    EmptyObjectSet,
    GBError,
    MissingIdentity,
    MissingInverse,
    NonAssociative,
    NotAGroup,
    UnknownObject,
)

SENTINEL = -1


class BindOnce:
    """Each field named in ``_FIELDS`` is bound once: rebinding or deleting
    it raises AttributeError, so what is cached on the instance stays sound."""

    _FIELDS: frozenset[str] = frozenset()

    def __setattr__(self, name: str, value) -> None:
        # hasattr: reading self.__dict__ would slow every later attribute read
        if name in self._FIELDS and hasattr(self, name):
            raise AttributeError(
                f"{type(self).__name__}.{name} cannot be rebound; build a new instance"
            )
        super().__setattr__(name, value)

    def __delattr__(self, name: str) -> None:
        if name in self._FIELDS:
            raise AttributeError(f"{type(self).__name__}.{name} cannot be deleted")
        super().__delattr__(name)


class Record:
    """Field-wise ``==`` as a dataclass has it, which leaves the class unhashable.
    Every data class of the package compares through it, and only with its own type.
    The fields are the instance attributes not named ``_...``; a cache so named takes no part."""

    def _fields(self) -> dict:
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()


def generating_set(table, starts, elements=None) -> tuple[int, ...]:
    """Greedy generators S of a table (``table[s][r]`` is s*r, -1 where
    undefined), proved by closure: each of ``elements`` (default every id),
    in order, not yet reached from ``starts`` by left multiplication with S
    joins S.  So each y reached is a start or s*y' with s in S and y'
    reached before.  Starts must be right units, so that s*e = s."""
    reached = set(starts)
    done, gens = list(reached), []  # done: closed under every generator so far
    for s in range(len(table)) if elements is None else elements:
        if s in reached:
            continue
        gens.append(s)
        lefts, rights = (s,), done
        while rights:
            new = []
            for t in lefts:
                row = table[t]
                for r in rights:
                    p = row[r]
                    if p >= 0 and p not in reached:
                        reached.add(p)
                        new.append(p)
            done += new
            lefts, rights = gens, new
    return tuple(gens)


def on_generators(check, generators, everything) -> None:
    """Run ``check`` over a proved generating set; only if that fails, run
    it over everything, so the error names the full check's first witness."""
    try:
        return check(generators)
    except GBError:
        pass
    check(everything)


class FiniteGroupoid(BindOnce, Record):
    """A finite groupoid on dense integer ids.

    Objects are ``0..n_objects-1``.  Morphism ``m`` runs ``dom[m] -> cod[m]``.
    ``compose_table[g][f]`` is the composite ``g*f`` (apply f, then g) when
    ``dom[g] == cod[f]`` and -1 otherwise.

    Instances are immutable: the constructor freezes every table into tuples
    and binds each table field once, with ``n_morphisms`` and the id ranges
    ``objects`` and ``morphisms`` computed from them (rebinding or deleting
    one raises AttributeError), so no instance, copy or deep copy changes, and
    what it keeps is sound: ``by_dom``/``by_cod``, ``loops``, the pass of
    ``validate_groupoid``, ``component_transports``, ``connected_components``,
    ``isotropy_group``, the class walk ``classify.classes_at`` and
    ``gsets.conjugation_action``, each built on first read and shared: callers
    must not change it.  A mutant is a new instance of edited tables; other
    structures share lists (see ``gsets``).
    """

    _FIELDS = frozenset({"n_objects", "dom", "cod", "compose_table", "identity", "inverse",
                         "n_morphisms", "objects", "morphisms"})

    def __init__(self, n_objects, dom, cod, compose_table, identity, inverse):
        self.n_objects = int(n_objects)
        self.dom = tuple(dom)
        self.n_morphisms = len(self.dom)
        self.objects, self.morphisms = range(self.n_objects), range(self.n_morphisms)
        self.cod = tuple(cod)
        self.compose_table = tuple(tuple(row) for row in compose_table)
        self.identity = tuple(identity)
        self.inverse = tuple(inverse)
        self._by_dom: list[tuple[int, ...]] | None = None
        self._by_cod: list[tuple[int, ...]] | None = None
        self._loops: list[list[int]] | None = None
        # filled by component_transports, isotropy_group, classes_at and conjugation_action
        self._transports: dict[int, dict[int, int]] = {}
        self._components: ComponentData | None = None  # filled by connected_components
        self._isotropy: dict[int, tuple[FiniteGroupoid, GroupoidFunctor]] = {}
        self._classes: dict[int, list] = {}
        self._conjugation = None  # the conjugation G-monoid
        self._valid = False  # set by validate_groupoid, with:
        self._generators = self.morphisms  # proved generators once valid

    # -- basic accessors ---------------------------------------------------

    def _bucket(self, ends: tuple[int, ...]) -> list[tuple[int, ...]]:
        out: list[list[int]] = [[] for _ in range(self.n_objects)]
        for m, x in enumerate(ends):
            out[x].append(m)
        return list(map(tuple, out))

    def by_dom(self, x: int) -> tuple[int, ...]:
        """Morphism ids with dom == x, ascending."""
        if self._by_dom is None:
            self._by_dom = self._bucket(self.dom)
        return self._by_dom[x]

    def by_cod(self, x: int) -> tuple[int, ...]:
        """Morphism ids with cod == x, ascending."""
        if self._by_cod is None:
            self._by_cod = self._bucket(self.cod)
        return self._by_cod[x]

    def hom(self, x: int, y: int) -> list[int]:
        """Morphism ids x -> y, ascending."""
        return [m for m in self.by_dom(x) if self.cod[m] == y]

    def loops(self, x: int) -> list[int]:
        """Morphism ids x -> x, ascending (the isotropy group at x): one
        list per object, all kept on the first call; callers must not change it."""
        if self._loops is None:
            self._loops = [self.hom(y, y) for y in self.objects]
        return self._loops[x]

    def __repr__(self) -> str:
        return (
            f"FiniteGroupoid(objects={self.n_objects}, "
            f"morphisms={self.n_morphisms})"
        )


def validate_groupoid(g: FiniteGroupoid) -> FiniteGroupoid:
    """Prove every groupoid axiom and return ``g``.

    Raises a named error pointing at the first offending entry:
    EmptyObjectSet, DomCodMismatch, MissingIdentity, MissingInverse, or
    NonAssociative.  A pass is recorded on the instance, which is
    immutable, so a second call on it returns at once.

    Associativity is Light's test (Clifford-Preston, *The Algebraic
    Theory of Semigroups* I, 1.2): once dom/cod and the unit laws hold,
    (x*s)*z == x*(s*z) for all composable x, z and every s in a
    ``generating_set`` S proves it for every middle factor y, by induction
    on the closure: for y = s*y', (x*y)*z = ((x*s)*y')*z = (x*s)*(y'*z) =
    x*(s*(y'*z)) = x*((s*y')*z).  S is kept as ``g._generators``.
    """
    if not g._valid:
        _check_axioms(g)
        g._valid = True
    return g


def _check_axioms(g: FiniteGroupoid) -> None:
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
    # y -> the f with cod f = y, in a dict: until the identity list is
    # checked nothing bounds n, so nothing is made per object
    into: dict[int, list[int]] = {}
    for f, y in enumerate(g.cod):
        into.setdefault(y, []).append(f)
    for gg, row in enumerate(g.compose_table):
        # -1 is on exactly the non-composable entries if it is on none of the k
        # composable pairs and on m - k in all; else scan the row for its first witness
        pairs = into.get(g.dom[gg], [])
        whole = row.count(SENTINEL) + len(pairs) != m or SENTINEL in map(row.__getitem__, pairs)
        for f in range(m) if whole else pairs:
            gf = row[f]
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
    gens = generating_set(g.compose_table, g.identity)
    on_generators(lambda mids: _check_associativity(g, mids), gens, g.morphisms)
    g._generators = gens


def _check_associativity(g: FiniteGroupoid, mids) -> None:
    """(h*gg)*f == h*(gg*f) on every composable triple with gg in mids."""
    ct, mids_by_cod = g.compose_table, [[] for _ in g.objects]
    for gg in mids:
        mids_by_cod[g.cod[gg]].append(gg)
    for h in g.morphisms:
        for gg in mids_by_cod[g.dom[h]]:
            hg = ct[h][gg]
            for f in g.by_cod(g.dom[gg]):
                if ct[hg][f] != ct[h][ct[gg][f]]:
                    raise NonAssociative(f"triple ({h}, {gg}, {f})")


# -- groups ----------------------------------------------------------------

def check_group_table(table) -> tuple[int, list[int]]:
    """The identity of a multiplication table and the two-sided inverse
    of every element, after checking that the table is n x n over 0..n-1
    (n > 0); NotAGroup when one of them fails.  Associativity is left to
    ``validate_groupoid``."""
    n = len(table)
    if n == 0:
        raise NotAGroup("empty table")
    for row in table:
        if len(row) != n or any(not (0 <= v < n) for v in row):
            raise NotAGroup("table is not n x n over 0..n-1")
    e = next((c for c in range(n) if all(table[c][b] == b == table[b][c] for b in range(n))), None)
    if e is None:
        raise NotAGroup("no identity element")
    inv = [next((b for b in range(n) if table[a][b] == e == table[b][a]), None) for a in range(n)]
    if None in inv:
        raise NotAGroup(f"element {inv.index(None)} has no inverse")
    return e, inv


def from_group(table) -> FiniteGroupoid:
    """One-object groupoid whose morphism group is the given Cayley table;
    a non-associative table is refused by ``validate_groupoid`` with
    NonAssociative."""
    e, inv = check_group_table(table)
    n = len(table)
    return validate_groupoid(FiniteGroupoid(1, [0] * n, [0] * n, table, [e], inv))


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
    table = [
        [index[tuple(a[b[i]] for i in range(deg))] for b in elems] for a in elems
    ]
    return table


# -- pair groupoid, coproduct, product --------------------------------------

def tabulate(n_objects, dom, cod, identity, inverse, compose) -> FiniteGroupoid:
    """The validated groupoid on these ids whose table holds ``compose(g, f)``
    on every composable pair (dom g == cod f) and -1 on every other pair."""
    by_cod: list[list[int]] = [[] for _ in range(n_objects)]
    for f, y in enumerate(cod):
        by_cod[y].append(f)
    table = [[SENTINEL] * len(dom) for _ in dom]
    for g, row in enumerate(table):
        for f in by_cod[dom[g]]:
            row[f] = compose(g, f)
        table[g] = tuple(row)  # frozen as filled, so FiniteGroupoid keeps it as it is
    return validate_groupoid(FiniteGroupoid(n_objects, dom, cod, table, identity, inverse))


def pair_groupoid(n: int) -> FiniteGroupoid:
    """Groupoid on n objects with exactly one morphism per ordered pair.

    Morphism (x, y) : x -> y has id x*n + y; the composite of (x, y) and
    (y, z) is (x, z).
    """
    if n < 1:
        raise EmptyObjectSet("pair groupoid needs at least one object")
    dom = [x for x in range(n) for _ in range(n)]
    cod = [y for _ in range(n) for y in range(n)]
    identity = [x * n + x for x in range(n)]
    inverse = [y * n + x for x in range(n) for y in range(n)]
    return tabulate(n, dom, cod, identity, inverse, lambda g, f: dom[f] * n + cod[g])


class GroupoidFunctor(Record):
    """A functor between finite groupoids as explicit object/morphism maps."""

    def __init__(self, source: FiniteGroupoid, target: FiniteGroupoid,
                 object_map: list[int], morphism_map: list[int]):
        self.source, self.target = source, target
        self.object_map, self.morphism_map = object_map, morphism_map

    def validate(self) -> "GroupoidFunctor":
        """Composition is checked with the left factor in the proved
        generators S of a valid source if the target is valid too (else in
        every morphism): with identities kept, it holds for e*f, and for
        y = s*y' F(y*f) = F(s)F(y'*f) = F(s)F(y')F(f) = F(y)F(f)."""
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
        gens = s._generators if t._valid else s.morphisms  # the lemma needs both valid
        on_generators(self._check_composition, gens, s.morphisms)
        return self

    def _check_composition(self, lefts) -> None:
        s, t, mm = self.source, self.target, self.morphism_map
        for g in lefts:
            for f in s.by_cod(s.dom[g]):
                if mm[s.compose_table[g][f]] != t.compose_table[mm[g]][mm[f]]:
                    raise NonAssociative(
                        f"composition not preserved at pair ({g}, {f})"
                    )


def disjoint_union(
    parts: list[FiniteGroupoid],
) -> tuple[FiniteGroupoid, list[GroupoidFunctor]]:
    """Coproduct groupoid with parts reindexed in order; returns injections."""
    if not parts:
        raise EmptyObjectSet("disjoint union of no parts")
    obj_off = list(accumulate((p.n_objects for p in parts), initial=0))
    mor_off = list(accumulate((p.n_morphisms for p in parts), initial=0))
    part, dom, cod, identity, inverse = [], [], [], [], []  # part[m]: the part m is from
    for k, p in enumerate(parts):
        oo, mo = obj_off[k], mor_off[k]
        part += [k] * p.n_morphisms
        dom += [oo + x for x in p.dom]
        cod += [oo + y for y in p.cod]
        identity += [mo + e for e in p.identity]
        inverse += [mo + f for f in p.inverse]

    def compose(g2: int, f: int) -> int:  # composable pairs lie in one part
        mo = mor_off[part[g2]]
        return mo + parts[part[g2]].compose_table[g2 - mo][f - mo]

    union = tabulate(obj_off[-1], dom, cod, identity, inverse, compose)
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
    """Product groupoid: object (a, b) -> a*|H0| + b, morphism (p, q) ->
    p*|H1| + q, componentwise tables."""
    no, nm = h.n_objects, h.n_morphisms
    dom, cod, inverse = [], [], []
    for p in g.morphisms:
        for q in h.morphisms:  # in ascending id order
            dom.append(g.dom[p] * no + h.dom[q])
            cod.append(g.cod[p] * no + h.cod[q])
            inverse.append(g.inverse[p] * nm + h.inverse[q])
    identity = [
        g.identity[a] * nm + h.identity[b]
        for a in g.objects
        for b in h.objects
    ]

    def compose(m2: int, m1: int) -> int:
        (p2, q2), (p1, q1) = divmod(m2, nm), divmod(m1, nm)
        return g.compose_table[p2][p1] * nm + h.compose_table[q2][q1]

    return tabulate(g.n_objects * no, dom, cod, identity, inverse, compose)


# -- components, isotropy, transport morphisms ------------------------------

class ComponentData(Record):
    """Partition of the object set under reachability."""

    def __init__(self, classes: list[list[int]], representatives: list[int]):
        self.classes, self.representatives = classes, representatives

    @property
    def count(self) -> int:
        return len(self.classes)


def connected_components(g: FiniteGroupoid) -> ComponentData:
    """Partition objects by x ~ y iff some morphism x -> y exists, into
    classes ordered by least object id, their representative; kept on g.
    In a groupoid ~ is already an equivalence (identities, inverses and
    composites are morphisms), so the class of x is the one-step image
    {cod m : dom m = x}; ``validate_groupoid`` proves the premise first."""
    validate_groupoid(g)
    if g._components is None:
        seen: set[int] = set()
        classes = []
        for x in g.objects:
            if x not in seen:
                classes.append(sorted(component_transports(g, x)))
                seen.update(classes[-1])
        g._components = ComponentData(classes=classes, representatives=[c[0] for c in classes])
    return g._components


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

    Loop k of the isotropy group, the group of ``loop_table``, is the k-th
    loop of g at x in ascending morphism-id order; the inclusion functor
    records the correspondence.
    A one-object g is its own isotropy group (loop positions are then the
    morphism ids), with the identity inclusion.  Built once per groupoid
    and object; every call returns the same pair.
    """
    if not 0 <= x < g.n_objects:
        raise UnknownObject(f"object {x} not in 0..{g.n_objects - 1}")
    if x not in g._isotropy and g.n_objects == 1:
        # the identity functor of a valid groupoid needs no check
        g._isotropy[x] = (validate_groupoid(g), GroupoidFunctor(g, g, [0], list(g.morphisms)))
    elif x not in g._isotropy:
        loops, _, table = loop_table(g, x)
        iso = from_group(table)
        g._isotropy[x] = (iso, GroupoidFunctor(iso, g, [x], list(loops)).validate())
    return g._isotropy[x]


def component_transports(g: FiniteGroupoid, x: int) -> dict[int, int]:
    """Transport morphisms t_y : x -> y for each y in the component of x.

    t_x is the identity at x; every other t_y is the least morphism id in
    hom(x, y).  This fixed choice makes all constructions depending on
    them deterministic.  Kept per object: callers must not change the dict.
    """
    if not 0 <= x < g.n_objects:
        raise UnknownObject(f"object {x} not in 0..{g.n_objects - 1}")
    if x not in g._transports:
        t = g._transports[x] = {x: g.identity[x]}
        for m in g.by_dom(x):
            t.setdefault(g.cod[m], m)  # by_dom is ascending, first hit is least
    return g._transports[x]


def retraction(g: FiniteGroupoid, t: dict[int, int]) -> list[int | None]:
    """The retraction R onto the isotropy group at the base z of the
    transport morphisms t (every t_y starts at z), as loop positions: for
    m : y -> w in the component of z, the position in isotropy(z) of the
    loop t_w^-1 m t_y; None for a morphism off the component."""
    z = g.dom[next(iter(t.values()))]
    pos = {m: k for k, m in enumerate(g.loops(z))}
    ct, inv, dom, cod = g.compose_table, g.inverse, g.dom, g.cod
    return [
        pos[ct[inv[t[cod[m]]]][ct[m][t[dom[m]]]]] if dom[m] in t else None
        for m in g.morphisms
    ]
