"""Constructions that only tests call, kept out of the package so that the
checks built on them stay independent of the code they check."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from gburnside.classify import (
    MarkTable,
    dense,
    express_by_decomposition,
    subgroup_classes,
    subgroup_closure,
)
from gburnside.crossed import (
    CrossedGSet,
    CrossedMap,
    _compose,
    _identity,
    _maps_equal,
    _tensor_components,
    associator,
    braiding,
    braiding_inverse,
    induce,
    restrict,
    tensor,
    transport_restrict,
    unit_object,
)
from gburnside.errors import (
    BaseMismatch,
    DomCodMismatch,
    GBError,
    NonAssociative,
    NotConnected,
    NotNatural,
    RingMismatch,
    UnknownObject,
    WeightMismatch,
)
from gburnside.groupoid import (
    FiniteGroupoid,
    GroupoidFunctor,
    check_group_table,
    component_transports,
    connected_components,
    direct_product,
    isotropy_group,
    pair_groupoid,
    retraction,
)
from gburnside.gsets import ActionGroupoid, GMap, GMonoid, GSet, fixed_points, same_base
from gburnside.rings import (
    RingHom,
    RingPresentation,
    _distinct,
    _lincomb,
    _norm,
    _packed,
    _symmetric,
    _top,
    _width,
)


def mark_solve(marks: MarkTable, phi: list[int]) -> list[int]:
    """The coordinates with the row marks ``phi``, as a dense vector; the
    back-substitution runs over the non-zero marks only."""
    return dense(marks._solve({k: v for k, v in enumerate(phi) if v}), marks.dim)


def all_subgroups(table: list[list[int]]) -> list[frozenset[int]]:
    """Every subgroup, sorted by (order, sorted elements), by the plain
    walk: each one found is extended by every element outside it.  None of
    the cuts of the class walk, which this lattice is the oracle of."""
    trivial = frozenset({check_group_table(table)[0]})
    gens: dict[frozenset[int], tuple[int, ...]] = {trivial: ()}
    frontier = [trivial]
    while frontier:
        fresh = []
        for sub in frontier:
            for a in range(len(table)):
                if a not in sub:
                    seed = gens[sub] + (a,)
                    grown = subgroup_closure(table, seed)
                    if grown not in gens:
                        gens[grown] = seed
                        fresh.append(grown)
        frontier = fresh
    return sorted(gens, key=lambda h: (len(h), sorted(h)))


def subgroup_conjugacy_classes(table) -> list[list[frozenset[int]]]:
    """The conjugacy classes of subgroups of a group table, as
    ``classify.subgroup_classes`` finds them (without the normalizers), in
    its order; the walk's completeness argument is on that function."""
    e, inv = check_group_table(table)
    return [members for members, _ in subgroup_classes(table, range(len(table)), e, inv)]


class NotSubgroup(GBError):
    """A morphism subset is not a subgroup of the isotropy group."""


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


def marks(g: FiniteGroupoid, x: GSet, rep: int, subgroup) -> int:
    """Number of elements of the fiber at rep fixed by every loop in the
    subgroup; an isomorphism invariant of G-sets."""
    if not 0 <= rep < g.n_objects:
        raise UnknownObject(f"object {rep} not in 0..{g.n_objects - 1}")
    sub = frozenset(subgroup)
    check_subgroup(g, rep, sub)
    return len(fixed_points(x, rep, sub))


def fixed_label_counts(c: CrossedGSet, rep: int, subgroup) -> dict[int, int]:
    """The marks phi_(K, u) of a built crossed set for every label u, by a
    fixed-point scan of its carrier at rep: the oracle of the marks that
    ``MarkTable`` reads off coset fibers."""
    return dict(Counter(c.label[rep][i] for i in fixed_points(c.carrier, rep, subgroup)))


def identity_functor(g: FiniteGroupoid) -> GroupoidFunctor:
    return GroupoidFunctor(g, g, list(g.objects), list(g.morphisms)).validate()


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


def functor_on_every_pair(f: GroupoidFunctor) -> str | None:
    """The composition check of ``GroupoidFunctor.validate`` on every
    composable pair, left factor first, in id order: the message of the
    first pair whose composite is not preserved, or None."""
    s, t, mm = f.source, f.target, f.morphism_map
    for g in s.morphisms:
        for h in s.by_cod(s.dom[g]):
            if mm[s.compose_table[g][h]] != t.compose_table[mm[g]][mm[h]]:
                return f"composition not preserved at pair ({g}, {h})"
    return None


def natural_on_every_morphism(f: GMap) -> str | None:
    """The naturality check of ``GMap.validate`` at every morphism, in id
    order: the message of the first square that does not commute, or None."""
    g = f.source.base
    for m in g.morphisms:
        src_a, tgt_a = f.source.action[m], f.target.action[m]
        cx, cy = f.components[g.dom[m]], f.components[g.cod[m]]
        for i in range(len(cx)):
            if cy[src_a[i]] != tgt_a[cx[i]]:
                return f"naturality fails at morphism {m}, element {i}"
    return None


def functor_is_isomorphism(f: GroupoidFunctor) -> bool:
    """Whether f is bijective on objects and on morphisms."""
    return (
        len(set(f.object_map)) == f.target.n_objects
        and len(f.object_map) == f.target.n_objects
        and len(set(f.morphism_map)) == f.target.n_morphisms
        and len(f.morphism_map) == f.target.n_morphisms
    )


def transports(g: FiniteGroupoid, x: int) -> dict[int, int]:
    """Transports t_y : x -> y for every object; requires g connected."""
    t = component_transports(g, x)
    if len(t) != g.n_objects:
        raise NotConnected(f"object {next(iter(set(g.objects) - set(t)))} unreachable from {x}")
    return t


def connected_structure_iso(g: FiniteGroupoid, x: int) -> GroupoidFunctor:
    """Isomorphism from a connected g onto isotropy(x) x Pair(objects).

    A morphism m : y -> z goes to (t_z^-1 m t_y, (y, z)).
    """
    iso, _ = isotropy_group(g, x)
    r = retraction(g, transports(g, x))
    n = g.n_objects
    target = direct_product(iso, pair_groupoid(n))
    object_map = list(g.objects)  # (0, y) has product id y
    morphism_map = [r[m] * n * n + g.dom[m] * n + g.cod[m] for m in g.morphisms]
    functor = GroupoidFunctor(g, target, object_map, morphism_map).validate()
    if not functor_is_isomorphism(functor):
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
    r = GroupoidFunctor(g, iso, [0] * g.n_objects, retraction(g, t)).validate()
    eta = [t[y] for y in g.objects]
    epsilon = [iso.identity[0]]
    return EquivalenceData(inclusion, r, eta, epsilon).validate()


class NotSubgroupoid(GBError):
    """Morphism subset is not closed under composition/inverse/identities."""


class NotWide(GBError):
    """Subgroupoid does not contain every identity."""


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


@dataclass
class TransportData:
    """Round trip of a crossed set along the connected equivalence."""

    restricted: CrossedGSet   # over the isotropy group at z
    induced: CrossedGSet      # spread back over the original groupoid
    round_trip_iso: CrossedMap  # induced -> original


def transport_induce(cz: CrossedGSet, weight: GMonoid | GSet, z: int) -> CrossedGSet:
    """Spread a crossed set over the isotropy group at z, labeled in the
    restriction of ``weight``, across the component of z in the base of
    ``weight`` (see ``crossed.induce``)."""
    wz = restrict(weight, z)
    if not same_base(cz.carrier.base, wz.base):
        raise BaseMismatch("input does not live over the isotropy group at z")
    if cz.weight != wz:
        raise WeightMismatch("input is not labeled in the weight restricted to z")
    return induce(weight, z, cz.carrier.size(0), cz.carrier.action, [cz.label[0]])[0]


def transport_connected(c: CrossedGSet, z: int) -> TransportData:
    """Restrict to the isotropy group at z, induce back, and produce the
    isomorphism onto the original crossed set.

    Restriction after induction is the identity on the nose (the transport
    at z is the identity), so only this round trip needs a witness.
    """
    g = c.carrier.base
    t = transports(g, z)
    restricted = transport_restrict(c, z)
    induced = transport_induce(restricted, c.weight, z)
    iso = CrossedMap(induced, c, [c.carrier.action[t[y]] for y in g.objects]).validate()
    if not iso.is_isomorphism():
        raise NotNatural("transport round trip is not bijective")  # unreachable
    return TransportData(restricted, induced, iso)


def underlying_gset(s: GMonoid) -> GSet:
    """Forget the monoid structure, keeping fiber sizes and action."""
    return s.underlying().validate()


def validate_crossed(x: GSet, s: GMonoid, theta) -> CrossedGSet:
    """Assemble and validate a crossed G-set from raw label component maps."""
    return CrossedGSet(x, s, theta).validate()


def invert_crossed_map(m: CrossedMap) -> CrossedMap:
    inv = []
    for x in m.source.carrier.base.objects:
        comp = m.components[x]
        back = [0] * len(comp)
        for i, j in enumerate(comp):
            back[j] = i
        inv.append(back)
    return CrossedMap(m.target, m.source, inv)


def identity_crossed_map(c: CrossedGSet) -> CrossedMap:
    return CrossedMap(c, c, _identity(c.carrier.sizes))


def compose_crossed_maps(second: CrossedMap, first: CrossedMap) -> CrossedMap:
    return CrossedMap(first.source, second.target, _compose(second.components, first.components))


def tensor_map(f: CrossedMap, g: CrossedMap) -> CrossedMap:
    """f (x) g on tensor products."""
    comps = _tensor_components(f.components, g.components, g.target.carrier.sizes)
    return CrossedMap(tensor(f.source, g.source), tensor(f.target, g.target), comps)


def left_unitor(c: CrossedGSet) -> CrossedMap:
    """(1, x) -> x from I (x) X to X: the identity on ids, as |I| = 1."""
    src = tensor(unit_object(c.carrier.base, c.weight), c)
    return CrossedMap(src, c, identity_crossed_map(c).components)


def right_unitor(c: CrossedGSet) -> CrossedMap:
    """(x, 1) -> x from X (x) I to X: the identity on ids, as |I| = 1."""
    src = tensor(c, unit_object(c.carrier.base, c.weight))
    return CrossedMap(src, c, identity_crossed_map(c).components)


@dataclass
class CoherenceIsos:
    associator: CrossedMap
    left_unitor: CrossedMap
    right_unitor: CrossedMap


def coherence_isos(cx: CrossedGSet, cy: CrossedGSet, cz: CrossedGSet) -> CoherenceIsos:
    """The associator for (x, y, z) and both unitors for x; each map is a
    validated crossed isomorphism."""
    a = associator(cx, cy, cz).validate()
    l = left_unitor(cx).validate()
    r = right_unitor(cx).validate()
    for m in (a, l, r):
        if not m.is_isomorphism():
            raise NotNatural("coherence map is not bijective")
    return CoherenceIsos(a, l, r)


def pentagon_composites(cw: CrossedGSet, cx: CrossedGSet, cy: CrossedGSet, cz: CrossedGSet):
    """The two sides of the pentagon for (w, x, y, z), composed from
    associators that are each checked to be crossed maps (NotNatural if
    one is not)."""
    top = compose_crossed_maps(
        associator(cw, cx, tensor(cy, cz)).validate(),
        associator(tensor(cw, cx), cy, cz).validate(),
    )
    first = tensor_map(associator(cw, cx, cy).validate(), identity_crossed_map(cz))
    mid = associator(cw, tensor(cx, cy), cz).validate()
    last = tensor_map(identity_crossed_map(cw), associator(cx, cy, cz).validate())
    return top, compose_crossed_maps(last, compose_crossed_maps(mid, first))


def triangle_composites(cx: CrossedGSet, cy: CrossedGSet):
    """The two sides of the triangle for (x, y), composed from an
    associator and unitors that are each checked to be crossed maps."""
    unit = unit_object(cx.carrier.base, cx.weight)
    via = compose_crossed_maps(
        tensor_map(identity_crossed_map(cx), left_unitor(cy).validate()),
        associator(cx, unit, cy).validate(),
    )
    return via, tensor_map(right_unitor(cx).validate(), identity_crossed_map(cy))


def _witness(lhs: CrossedMap, rhs: CrossedMap):
    return _maps_equal(lhs.components, rhs.components)


def symmetry_by_maps(cx: CrossedGSet, cy: CrossedGSet):
    """The symmetry window on crossed maps with their endpoints: the
    braiding composed with its inverse formula, both ways round, against
    the identity.  The reference for the checker's window on component
    lists, which must give the same witness or None."""
    fwd = braiding(cx, cy)
    inv = braiding_inverse(cx, cy)
    witness = _witness(compose_crossed_maps(inv, fwd), identity_crossed_map(fwd.source))
    if witness is not None:
        return witness
    return _witness(compose_crossed_maps(fwd, inv), identity_crossed_map(inv.source))


def hexagon_by_maps(cx: CrossedGSet, cy: CrossedGSet, cz: CrossedGSet):
    """b(X, Y (x) Z) against (1 (x) b(X, Z))(b(X, Y) (x) 1), on crossed maps."""
    lhs = braiding(cx, tensor(cy, cz))
    rhs = compose_crossed_maps(
        tensor_map(identity_crossed_map(cy), braiding(cx, cz)),
        tensor_map(braiding(cx, cy), identity_crossed_map(cz)),
    )
    return _witness(lhs, rhs)


def unitor_braiding_by_maps(cx: CrossedGSet):
    """b(I, X) against the identity of X, on crossed maps."""
    unit = unit_object(cx.carrier.base, cx.weight)
    return _witness(braiding(unit, cx), identity_crossed_map(cx))


def _sides_agree(sides, window) -> bool:
    try:
        lhs, rhs = sides(*window)
    except NotNatural:
        return False
    return lhs.components == rhs.components


def sampled_pentagon_and_triangle(samples: list[CrossedGSet]) -> dict[str, bool]:
    """Whether the pentagon and the triangle hold on every cyclic window of
    the samples, by the composites above: the sampled reference for the
    axiom checker's exhaustive check on the weight."""
    n = len(samples)
    return {
        name: all(
            _sides_agree(sides, [samples[(i + j) % n] for j in range(arity)])
            for i in range(n)
        )
        for name, arity, sides in (
            ("pentagon", 4, pentagon_composites),
            ("triangle", 2, triangle_composites),
        )
    }


@dataclass
class RingElement:
    ring: RingPresentation
    coords: list[int]

    def __post_init__(self):
        if len(self.coords) != self.ring.dim:
            raise RingMismatch("coordinate vector has wrong length")


def ring_unit(ring: RingPresentation) -> RingElement:
    return RingElement(ring, list(ring.unit_vector))


def ring_add(a: RingElement, b: RingElement) -> RingElement:
    if a.ring is not b.ring:
        raise RingMismatch("elements of different rings")
    return RingElement(a.ring, [x + y for x, y in zip(a.coords, b.coords)])


def ring_mul(a: RingElement, b: RingElement) -> RingElement:
    if a.ring is not b.ring:
        raise RingMismatch("elements of different rings")
    rows = a.ring.structure_constants
    out = [0] * a.ring.dim
    for i, ai in enumerate(a.coords):
        if ai == 0:
            continue
        for j, bj in enumerate(b.coords):
            if bj == 0:
                continue
            prod = ai * bj
            for k, v in rows[i][j]:
                out[k] += prod * v
    return RingElement(a.ring, out)


def ring_eq(a: RingElement, b: RingElement) -> bool:
    if a.ring is not b.ring:
        raise RingMismatch("elements of different rings")
    return a.coords == b.coords


def whole_table_associativity(ring: RingPresentation) -> str | None:
    """Associativity on all d^3 basis triples of the whole table, as
    ``RingPresentation.validate`` checked it before it checked by blocks:
    None, or the message naming the lexicographically first failing
    (i, j, k, l).  For each j the d x d matrices (e_i e_j) e_k and
    e_i (e_j e_k) are compared on packed vectors, each side a linear
    combination of the rows keyed by one distinct product."""
    d = ring.dim
    rows = ring.structure_constants
    pid, products = _distinct(rows)
    w = _width(_norm(products) * _top(products))
    packed = [_packed(p, w) for p in products]
    by_row = [tuple(packed[p] for p in pm) for pm in pid]  # [m][k] = e_m e_k
    lefts = [_lincomb(p, by_row, d) for p in products]
    if _symmetric(pid):
        rights = lefts
    else:
        by_col = list(zip(*by_row))  # [m][i] = e_i e_m
        rights = [_lincomb(p, by_col, d) for p in products]
    failures = []
    for j, (pj, col) in enumerate(zip(pid, zip(*pid))):
        left = list(map(lefts.__getitem__, col))  # [i][k]
        right = list(zip(*map(rights.__getitem__, pj)))  # [i][k]
        if left != right:
            failures.append((next(i for i in range(d) if left[i] != right[i]), j))
    return ring._associativity_witness(*min(failures)) if failures else None


def whole_table_verdict(ring: RingPresentation) -> str | None:
    """The verdict of validating a presentation whose rows are well formed
    with no blocks: None, or the message of the unit law or of
    ``whole_table_associativity``."""
    try:
        ring._check_unit()
    except NotNatural as exc:
        return str(exc)
    return whole_table_associativity(ring)


# -- the theorem homs on carriers --------------------------------------------------
#
# The reference route of the four hom builders in ``rings``: every basis
# carrier is built, mapped as a crossed set, and decomposed over the target
# catalog by transporter search.

def trivial_label_embed(x: GSet, s: GMonoid) -> CrossedGSet:
    """Label every element by the weight unit (the embedding functor on
    objects); tensor of trivially-labeled sets is the trivially-labeled
    product."""
    if not same_base(x.base, s.base):
        raise BaseMismatch("G-set and weight live over different groupoids")
    return CrossedGSet(
        x, s, [[s.unit(o)] * x.size(o) for o in x.base.objects]
    ).validate()


def pushforward(ag: ActionGroupoid, x: GSet, y: GSet) -> CrossedGSet:
    """A G x X-set y pushed forward along the projection: its fiber at o
    is the disjoint union of the y(o, a) over a in X(o), each element
    labeled by its a, and m acts on the part over a by y(m, a)."""
    h, proj, g = ag.groupoid, ag.projection, ag.projection.target
    labels: list[list[int]] = [[] for _ in g.objects]
    start = []  # object of h -> offset of its part in the fiber below it
    for obj, (o, a) in enumerate(ag.object_tags):
        start.append(len(labels[o]))
        labels[o].extend([a] * y.size(obj))
    sizes = [len(lab) for lab in labels]
    action = [[0] * sizes[g.dom[m]] for m in g.morphisms]
    for t, m in enumerate(proj.morphism_map):
        row, src, dst = action[m], start[h.dom[t]], start[h.cod[t]]
        for k, v in enumerate(y.action[t]):
            row[src + k] = dst + v
    return CrossedGSet(GSet(g, sizes, action), x, labels).validate()


def _carrier_matrix(hom: RingHom, image) -> list[list[int]]:
    """The matrix whose j-th column is ``image(e)`` for source basis entry
    e: its coordinates in the target, from its built carrier."""
    return [list(row) for row in zip(*map(image, hom.source.basis.entries))]


def embedding_matrix(hom: RingHom) -> list[list[int]]:
    catalog = hom.target.basis
    return _carrier_matrix(hom, lambda e: express_by_decomposition(
        trivial_label_embed(e.crossed.carrier, catalog.weight), catalog))


def reduction_matrix(hom: RingHom, z: int) -> list[list[int]]:
    catalog = hom.target.basis
    return _carrier_matrix(
        hom, lambda e: express_by_decomposition(transport_restrict(e.crossed, z), catalog))


def decomposition_matrix(hom: RingHom) -> list[list[int]]:
    """Each entry restricted to its component representative and expressed
    in that component's block of the product."""
    blocks = hom.target.basis  # one catalog per component, in representative order
    reps = connected_components(hom.source.basis.base).representatives

    def image(e):
        k = reps.index(e.component_rep)
        before = sum(b.dim for b in blocks[:k])
        local = express_by_decomposition(transport_restrict(e.crossed, e.component_rep), blocks[k])
        return [0] * before + local + [0] * (hom.target.dim - before - len(local))

    return _carrier_matrix(hom, image)


def pushforward_matrix(hom: RingHom, ag: ActionGroupoid, x: GSet) -> list[list[int]]:
    catalog = hom.target.basis
    return _carrier_matrix(hom, lambda e: express_by_decomposition(
        pushforward(ag, x, e.crossed.carrier), catalog))


def closure_classes(n: int, edges) -> list[list[int]]:
    """The classes of the equivalence on 0..n-1 generated by the pairs in
    ``edges``, by breadth-first search along each pair in both directions:
    nothing is assumed of the pairs.  Classes are ascending and ordered by
    least member."""
    adjacent: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    found = [False] * n
    classes = []
    for start in range(n):
        if found[start]:
            continue
        found[start] = True
        queue = [start]
        for a in queue:  # the queue grows while it is read
            for b in adjacent[a]:
                if not found[b]:
                    found[b] = True
                    queue.append(b)
        classes.append(sorted(queue))
    return classes


def closure_components(g: FiniteGroupoid) -> list[list[int]]:
    """The connected components of g, closed from the pairs (dom m, cod m)."""
    return closure_classes(g.n_objects, zip(g.dom, g.cod))


def closure_orbits(x: GSet) -> list[list[list[int]]]:
    """The orbits of x as their members per object, closed from the pairs
    ((dom m, i), (cod m, m.i)) on tagged elements in (object, element)
    order, so that orbits are ordered by least tagged element."""
    g = x.base
    tags = [(o, i) for o in g.objects for i in range(x.size(o))]
    index = {t: k for k, t in enumerate(tags)}
    edges = [
        (index[g.dom[m], i], index[g.cod[m], j])
        for m in g.morphisms
        for i, j in enumerate(x.action[m])
    ]
    orbits = []
    for cls in closure_classes(len(tags), edges):
        members: list[list[int]] = [[] for _ in g.objects]
        for k in cls:
            o, i = tags[k]
            members[o].append(i)
        orbits.append(members)
    return orbits


def first_table_fault(g: FiniteGroupoid) -> str | None:
    """The message of the first bad entry of a square composition table
    over in-range dom/cod, scanning all |M|^2 entries row by row, or None:
    -1 exactly on the non-composable pairs, and each composite in range
    with the dom of f and the cod of g."""
    m = g.n_morphisms
    for gg in range(m):
        for f in range(m):
            gf = g.compose_table[gg][f]
            if g.dom[gg] != g.cod[f]:
                if gf != -1:
                    return f"compose({gg}, {f}) defined on a non-composable pair"
            elif gf == -1:
                return f"compose({gg}, {f}) missing"
            elif not 0 <= gf < m:
                return f"compose({gg}, {f}) = {gf} out of range"
            elif g.dom[gf] != g.dom[f] or g.cod[gf] != g.cod[gg]:
                return f"compose({gg}, {f}) = {gf} has inconsistent dom/cod"
    return None
