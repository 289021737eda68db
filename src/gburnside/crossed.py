"""Crossed G-sets: G-sets labeled in a target G-set, the objects of the
slice category over it.  The target is usually a G-monoid (the weight),
but labels may live in any G-set: only the tensor product (labels multiply
in the weight monoid), the monoidal unit and the braiding need the monoid.
Also here: the coherence isomorphisms, the braiding over the conjugation
weight, distributivity, the trivial-label embedding, and transport along
the equivalence between a connected groupoid and an isotropy group.

Coherence maps are built by honest label lookup in the structured element
labels that products and coproducts create, then checked pointwise; the
axiom checker compares composite maps as data, so a corrupted map is
reported with a concrete witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BaseMismatch,
    NotNatural,
    WeightMismatch,
    WeightNotConjugation,
)
from .groupoid import FiniteGroupoid, isotropy_group, retract, transports
from .gsets import (
    GMap,
    GMonoid,
    GSet,
    conjugation_action,
    conjugation_loops,
    gset_coproduct,
    gset_product,
    same_base,
    terminal_gset,
)


class CrossedGSet:
    """A G-set with a natural labeling into a target ``weight``: a G-monoid
    or any G-set (an object of the slice category over it).  Validation
    reads only ``base``, ``size`` and ``action`` of the target."""

    def __init__(self, carrier: GSet, weight: GMonoid | GSet, label):
        self.carrier = carrier
        self.weight = weight
        self.label: list[list[int]] = [list(lab) for lab in label]

    @property
    def total_size(self) -> int:
        return self.carrier.total_size

    def validate(self) -> "CrossedGSet":
        if not same_base(self.carrier.base, self.weight.base):
            raise BaseMismatch("carrier and weight live over different groupoids")
        self.carrier.validate()
        g = self.carrier.base
        if len(self.label) != g.n_objects:
            raise NotNatural("label list does not cover every object")
        for x in g.objects:
            lab = self.label[x]
            if len(lab) != self.carrier.size(x):
                raise NotNatural(f"labels at {x} have wrong length")
            n = self.weight.size(x)
            if any(not (0 <= v < n) for v in lab):
                raise NotNatural(f"labels at {x} map outside the weight monoid")
        for m in g.morphisms:
            x, y = g.dom[m], g.cod[m]
            act = self.carrier.action[m]
            wact = self.weight.action[m]
            for i in range(self.carrier.size(x)):
                if self.label[y][act[i]] != wact[self.label[x][i]]:
                    raise NotNatural(
                        f"label naturality fails at morphism {m}, element {i}"
                    )
        return self

    def __eq__(self, other) -> bool:
        if not isinstance(other, CrossedGSet):
            return NotImplemented
        return (
            self.carrier == other.carrier
            and self.weight == other.weight
            and self.label == other.label
        )

    def __repr__(self) -> str:
        return f"CrossedGSet(fibers={[len(f) for f in self.carrier.fibers]})"


def validate_crossed(x: GSet, s: GMonoid, theta) -> CrossedGSet:
    """Assemble and exhaustively validate a crossed G-set from raw label
    component maps."""
    return CrossedGSet(x, s, theta).validate()


def same_weight(a: CrossedGSet, b: CrossedGSet) -> None:
    if not same_base(a.carrier.base, b.carrier.base):
        raise BaseMismatch("crossed sets live over different groupoids")
    if not (a.weight is b.weight or a.weight == b.weight):
        raise WeightMismatch("crossed sets are labeled in different G-monoids")


class CrossedMap:
    """A G-map between crossed sets commuting with the labels."""

    def __init__(self, source: CrossedGSet, target: CrossedGSet, components):
        self.source = source
        self.target = target
        self.components: list[list[int]] = [list(c) for c in components]

    def apply(self, x: int, i: int) -> int:
        return self.components[x][i]

    def validate(self) -> "CrossedMap":
        same_weight(self.source, self.target)
        GMap(self.source.carrier, self.target.carrier, self.components).validate()
        g = self.source.carrier.base
        for x in g.objects:
            comp = self.components[x]
            for i in range(self.source.carrier.size(x)):
                if self.target.label[x][comp[i]] != self.source.label[x][i]:
                    raise NotNatural(
                        f"label not preserved at object {x}, element {i}"
                    )
        return self

    def is_isomorphism(self) -> bool:
        return GMap(
            self.source.carrier, self.target.carrier, self.components
        ).is_bijection()

    def __eq__(self, other) -> bool:
        if not isinstance(other, CrossedMap):
            return NotImplemented
        return self.components == other.components and self.source == other.source

    def __repr__(self) -> str:
        return f"CrossedMap(components={[len(c) for c in self.components]})"


def identity_crossed_map(c: CrossedGSet) -> CrossedMap:
    return CrossedMap(
        c, c, [list(range(c.carrier.size(x))) for x in c.carrier.base.objects]
    )


def compose_crossed_maps(second: CrossedMap, first: CrossedMap) -> CrossedMap:
    return CrossedMap(
        first.source,
        second.target,
        [
            [second.components[x][i] for i in first.components[x]]
            for x in first.source.carrier.base.objects
        ],
    )


def invert_crossed_map(m: CrossedMap) -> CrossedMap:
    inv = []
    for x in m.source.carrier.base.objects:
        comp = m.components[x]
        back = [0] * len(comp)
        for i, j in enumerate(comp):
            back[j] = i
        inv.append(back)
    return CrossedMap(m.target, m.source, inv)


# -- monoidal structure -------------------------------------------------------

def tensor(c1: CrossedGSet, c2: CrossedGSet, check: bool = True) -> CrossedGSet:
    """Tensor product: cartesian carrier, labels multiplied in the weight."""
    same_weight(c1, c2)
    carrier = gset_product(c1.carrier, c2.carrier, check=False)
    g = carrier.base
    label = []
    for x in g.objects:
        mon = c1.weight.monoids[x]
        l1, l2 = c1.label[x], c2.label[x]
        label.append([mon.table[a][b] for a in l1 for b in l2])
    out = CrossedGSet(carrier, c1.weight, label)
    return out.validate() if check else out


def unit_object(g: FiniteGroupoid, s: GMonoid) -> CrossedGSet:
    """Singleton carrier labeled by the weight units."""
    if not same_base(g, s.base):
        raise BaseMismatch("weight does not live over this groupoid")
    return CrossedGSet(
        terminal_gset(g), s, [[s.unit(x)] for x in g.objects]
    ).validate()


def empty_crossed(g: FiniteGroupoid, s: GMonoid) -> CrossedGSet:
    return CrossedGSet(
        GSet(g, [[] for _ in g.objects], [[] for _ in g.morphisms]),
        s,
        [[] for _ in g.objects],
    ).validate()


def crossed_coproduct(c1: CrossedGSet, c2: CrossedGSet, check: bool = True) -> CrossedGSet:
    """Disjoint-union carrier with inherited labels."""
    same_weight(c1, c2)
    carrier = gset_coproduct(c1.carrier, c2.carrier, check=False)
    label = [
        list(c1.label[x]) + list(c2.label[x])
        for x in carrier.base.objects
    ]
    out = CrossedGSet(carrier, c1.weight, label)
    return out.validate() if check else out


def _lookup_map(
    source: CrossedGSet, target: CrossedGSet, relabel, check: bool
) -> CrossedMap:
    """Map built by transforming source labels and looking them up in the
    target fibers."""
    comps = []
    for x in source.carrier.base.objects:
        idx = target.carrier.index(x)
        comps.append([idx[relabel(lab)] for lab in source.carrier.fibers[x]])
    out = CrossedMap(source, target, comps)
    return out.validate() if check else out


def associator(
    cx: CrossedGSet, cy: CrossedGSet, cz: CrossedGSet, check: bool = True
) -> CrossedMap:
    """((x, y), z) -> (x, (y, z)) from (X (x) Y) (x) Z to X (x) (Y (x) Z)."""
    src = tensor(tensor(cx, cy, check=False), cz, check=False)
    tgt = tensor(cx, tensor(cy, cz, check=False), check=False)
    return _lookup_map(src, tgt, lambda lab: (lab[0][0], (lab[0][1], lab[1])), check)


def left_unitor(c: CrossedGSet, check: bool = True) -> CrossedMap:
    """(1, x) -> x from I (x) X to X."""
    src = tensor(unit_object(c.carrier.base, c.weight), c, check=False)
    return _lookup_map(src, c, lambda lab: lab[1], check)


def right_unitor(c: CrossedGSet, check: bool = True) -> CrossedMap:
    """(x, 1) -> x from X (x) I to X."""
    src = tensor(c, unit_object(c.carrier.base, c.weight), check=False)
    return _lookup_map(src, c, lambda lab: lab[0], check)


@dataclass
class CoherenceIsos:
    associator: CrossedMap
    left_unitor: CrossedMap
    right_unitor: CrossedMap


def coherence_isos(cx: CrossedGSet, cy: CrossedGSet, cz: CrossedGSet) -> CoherenceIsos:
    """The associator for (x, y, z) and both unitors for x; each map is a
    validated crossed isomorphism."""
    a = associator(cx, cy, cz)
    l = left_unitor(cx)
    r = right_unitor(cx)
    for m in (a, l, r):
        if not m.is_isomorphism():
            raise NotNatural("coherence map is not bijective")  # unreachable
    return CoherenceIsos(a, l, r)


def tensor_map(
    f: CrossedMap, g: CrossedMap, check: bool = True
) -> CrossedMap:
    """f (x) g on tensor products, componentwise on pairs."""
    src = tensor(f.source, g.source, check=False)
    tgt = tensor(f.target, g.target, check=False)
    comps = []
    for x in src.carrier.base.objects:
        nf = f.source.carrier.size(x)
        ng = g.source.carrier.size(x)
        wt = g.target.carrier.size(x)
        fc, gc = f.components[x], g.components[x]
        comps.append(
            [fc[i] * wt + gc[j] for i in range(nf) for j in range(ng)]
        )
    out = CrossedMap(src, tgt, comps)
    return out.validate() if check else out


# -- braiding over the conjugation weight --------------------------------------

def _require_conjugation(weight: GMonoid) -> list[list[int]]:
    loops = conjugation_loops(weight)
    if loops is None:
        raise WeightNotConjugation(
            "braiding is only constructed over the conjugation G-monoid"
        )
    return loops


def braiding(c1: CrossedGSet, c2: CrossedGSet, check: bool = True) -> CrossedMap:
    """(x, y) -> (Y(theta(x))(y), x) from X (x) Y to Y (x) X.

    The label of x is interpreted as a loop of the base groupoid and acts
    on the second carrier; this needs the weight to be the conjugation
    G-monoid.
    """
    same_weight(c1, c2)
    loops = _require_conjugation(c1.weight)
    src = tensor(c1, c2, check=False)
    tgt = tensor(c2, c1, check=False)
    comps = []
    for x in c1.carrier.base.objects:
        n1 = c1.carrier.size(x)
        n2 = c2.carrier.size(x)
        comp = []
        for i in range(n1):
            loop = loops[x][c1.label[x][i]]
            act = c2.carrier.action[loop]
            for j in range(n2):
                comp.append(act[j] * n1 + i)
        comps.append(comp)
    out = CrossedMap(src, tgt, comps)
    return out.validate() if check else out


def braiding_inverse(c1: CrossedGSet, c2: CrossedGSet, check: bool = True) -> CrossedMap:
    """(u, x) -> (x, Y(theta(x))^-1(u)) from Y (x) X back to X (x) Y."""
    same_weight(c1, c2)
    loops = _require_conjugation(c1.weight)
    g = c1.carrier.base
    src = tensor(c2, c1, check=False)
    tgt = tensor(c1, c2, check=False)
    comps = []
    for x in g.objects:
        n1 = c1.carrier.size(x)
        n2 = c2.carrier.size(x)
        comp = [0] * (n2 * n1)
        for j in range(n2):
            for i in range(n1):
                loop = loops[x][c1.label[x][i]]
                act = c2.carrier.action[g.inverse[loop]]
                comp[j * n1 + i] = i * n2 + act[j]
        comps.append(comp)
    out = CrossedMap(src, tgt, comps)
    return out.validate() if check else out


# -- distributivity -------------------------------------------------------------

def distributivity_iso(
    cx: CrossedGSet, cy: CrossedGSet, cz: CrossedGSet, check: bool = True
) -> CrossedMap:
    """The explicit isomorphism X (x) (Y u Z) -> (X (x) Y) u (X (x) Z)."""
    src = tensor(cx, crossed_coproduct(cy, cz, check=False), check=False)
    tgt = crossed_coproduct(
        tensor(cx, cy, check=False), tensor(cx, cz, check=False), check=False
    )
    return _lookup_map(
        src, tgt, lambda lab: (lab[1][0], (lab[0], lab[1][1])), check
    )


# -- trivial labels and transport -------------------------------------------------

def trivial_label_embed(x: GSet, s: GMonoid) -> CrossedGSet:
    """Label every element by the weight unit (the embedding functor on
    objects); tensor of trivially-labeled sets is the trivially-labeled
    product."""
    if not same_base(x.base, s.base):
        raise BaseMismatch("G-set and weight live over different groupoids")
    return CrossedGSet(
        x, s, [[s.unit(o)] * x.size(o) for o in x.base.objects]
    ).validate()


@dataclass
class TransportData:
    """Round trip of a crossed set along the connected equivalence."""

    restricted: CrossedGSet   # over the isotropy group at z
    induced: CrossedGSet      # spread back over the original groupoid
    round_trip_iso: CrossedMap  # induced -> original


def transport_restrict(c: CrossedGSet, z: int) -> CrossedGSet:
    """Precompose with the inclusion of the isotropy group at z: keep the
    fiber at z and the loop actions.

    Monoid element ids agree on the nose: element k of the conjugation
    weight at z is the k-th loop at z in both numberings.
    """
    _require_conjugation(c.weight)
    g = c.carrier.base
    iso, inclusion = isotropy_group(g, z)
    carrier = GSet(
        iso,
        [list(c.carrier.fibers[z])],
        [list(c.carrier.action[m]) for m in inclusion.morphism_map],
    )
    return CrossedGSet(
        carrier, conjugation_action(iso), [list(c.label[z])]
    ).validate()


def transport_induce(cz: CrossedGSet, g: FiniteGroupoid, z: int) -> CrossedGSet:
    """Spread a crossed set over the isotropy group at z across a connected
    groupoid along the retraction R(m : y -> w) = t_w^-1 m t_y, correcting
    labels by conjugation with the transports."""
    _require_conjugation(cz.weight)
    iso, inclusion = isotropy_group(g, z)
    if not same_base(cz.carrier.base, iso):
        raise BaseMismatch("input does not live over the isotropy group at z")
    t = transports(g, z)
    loop_pos = {m: k for k, m in enumerate(inclusion.morphism_map)}
    z_loops = inclusion.morphism_map
    fiber = list(cz.carrier.fibers[0])
    fibers = [list(fiber) for _ in g.objects]
    action = []
    for m in g.morphisms:
        action.append(list(cz.carrier.action[loop_pos[retract(g, t, m)]]))
    carrier = GSet(g, fibers, action)
    conj = conjugation_action(g)
    conj_pos = [
        {m: k for k, m in enumerate(g.loops(x))} for x in g.objects
    ]
    label = []
    for y in g.objects:
        ty = t[y]
        lab = []
        for i in range(len(fiber)):
            loop_at_z = z_loops[cz.label[0][i]]
            conj_loop = g.compose_table[g.compose_table[ty][loop_at_z]][g.inverse[ty]]
            lab.append(conj_pos[y][conj_loop])
        label.append(lab)
    return CrossedGSet(carrier, conj, label).validate()


def transport_connected(c: CrossedGSet, z: int) -> TransportData:
    """Restrict to the isotropy group at z, induce back, and produce the
    isomorphism onto the original crossed set.

    Restriction after induction is the identity on the nose (the transport
    at z is the identity), so only this round trip needs a witness.
    """
    g = c.carrier.base
    restricted = transport_restrict(c, z)
    induced = transport_induce(restricted, g, z)
    t = transports(g, z)
    comps = [
        [c.carrier.action[t[y]][i] for i in range(induced.carrier.size(y))]
        for y in g.objects
    ]
    iso = CrossedMap(induced, c, comps).validate()
    if not iso.is_isomorphism():
        raise NotNatural("transport round trip is not bijective")  # unreachable
    return TransportData(restricted, induced, iso)


# -- axiom checking ----------------------------------------------------------------

def _maps_equal(a: CrossedMap, b: CrossedMap):
    """None if equal, else a witness locating the first disagreement."""
    for x, (ca, cb) in enumerate(zip(a.components, b.components)):
        for i, (va, vb) in enumerate(zip(ca, cb)):
            if va != vb:
                return {
                    "object": x,
                    "element": i,
                    "lhs_image": va,
                    "rhs_image": vb,
                }
    return None


def _pentagon(cw, cx, cy, cz, make_associator):
    a_wx_y_z = make_associator(tensor(cw, cx, check=False), cy, cz)
    a_w_x_yz = make_associator(cw, cx, tensor(cy, cz, check=False))
    top = compose_crossed_maps(a_w_x_yz, a_wx_y_z)
    a_wxy = make_associator(cw, cx, cy)
    first = tensor_map(a_wxy, identity_crossed_map(cz), check=False)
    mid = make_associator(cw, tensor(cx, cy, check=False), cz)
    last = tensor_map(identity_crossed_map(cw), make_associator(cx, cy, cz), check=False)
    bottom = compose_crossed_maps(last, compose_crossed_maps(mid, first))
    return _maps_equal(top, bottom)


def _triangle(cx, cy, make_associator):
    via = compose_crossed_maps(
        tensor_map(identity_crossed_map(cx), left_unitor(cy, check=False), check=False),
        make_associator(cx, unit_object(cx.carrier.base, cx.weight), cy),
    )
    direct = tensor_map(
        right_unitor(cx, check=False), identity_crossed_map(cy), check=False
    )
    return _maps_equal(via, direct)


def _symmetry(cx, cy):
    # Pairs the braiding with its explicit inverse formula.  Composing the
    # one-sided formula with itself is not the identity in general (the
    # structure is braided): over C2, swap a unit-labeled with a
    # sigma-labeled free orbit and the double braiding translates by sigma.
    fwd = braiding(cx, cy, check=False)
    inv = braiding_inverse(cx, cy, check=False)
    witness = _maps_equal(
        compose_crossed_maps(inv, fwd),
        identity_crossed_map(tensor(cx, cy, check=False)),
    )
    if witness is not None:
        return witness
    return _maps_equal(
        compose_crossed_maps(fwd, inv),
        identity_crossed_map(tensor(cy, cx, check=False)),
    )


def _hexagon(cx, cy, cz, make_associator):
    lhs = compose_crossed_maps(
        make_associator(cy, cz, cx),
        compose_crossed_maps(
            braiding(cx, tensor(cy, cz, check=False), check=False),
            make_associator(cx, cy, cz),
        ),
    )
    rhs = compose_crossed_maps(
        tensor_map(identity_crossed_map(cy), braiding(cx, cz, check=False), check=False),
        compose_crossed_maps(
            make_associator(cy, cx, cz),
            tensor_map(braiding(cx, cy, check=False), identity_crossed_map(cz), check=False),
        ),
    )
    return _maps_equal(lhs, rhs)


def _unitor_braiding(cx):
    unit = unit_object(cx.carrier.base, cx.weight)
    via = compose_crossed_maps(
        right_unitor(cx, check=False), braiding(unit, cx, check=False)
    )
    return _maps_equal(via, left_unitor(cx, check=False))


def _distributivity(cx, cy, cz):
    try:
        d = distributivity_iso(cx, cy, cz, check=True)
    except NotNatural as exc:
        return {"error": str(exc)}
    if not d.is_isomorphism():
        return {"error": "distributivity map is not bijective"}
    return None


def check_monoidal_axioms(samples: list[CrossedGSet], associator_hook=None) -> list[dict]:
    """Check pentagon, triangle, and distributivity on every cyclic window
    of the sample list; over the conjugation weight also check the
    symmetry involution, the hexagon, and the braiding/unitor triangle.

    Returns one report entry per axiom: {"axiom": name, "status": "ok"} or
    {"axiom": name, "status": {"witness": ...}}.  The associator_hook
    parameter substitutes the associator builder and exists so tests can
    inject a corrupted map.
    """
    make_associator = associator_hook or (
        lambda a, b, c: associator(a, b, c, check=False)
    )
    if not samples:
        return [{"axiom": name, "status": "ok"} for name in (
            "pentagon", "triangle", "distributivity")]
    for s in samples[1:]:
        same_weight(samples[0], s)
    braided = conjugation_loops(samples[0].weight) is not None
    n = len(samples)

    def window(i: int, k: int) -> list[CrossedGSet]:
        return [samples[(i + j) % n] for j in range(k)]

    checks: list[tuple[str, int, object]] = [
        ("pentagon", 4, lambda w: _pentagon(*w, make_associator)),
        ("triangle", 2, lambda w: _triangle(*w, make_associator)),
        ("distributivity", 3, lambda w: _distributivity(*w)),
    ]
    if braided:
        checks += [
            ("symmetry", 2, lambda w: _symmetry(*w)),
            ("hexagon", 3, lambda w: _hexagon(*w, make_associator)),
            ("unitor-braiding", 1, lambda w: _unitor_braiding(*w)),
        ]
    report = []
    for name, arity, run in checks:
        status: object = "ok"
        for i in range(n):
            witness = run(window(i, arity))
            if witness is not None:
                witness["window"] = [(i + j) % n for j in range(arity)]
                status = {"witness": witness}
                break
        report.append({"axiom": name, "status": status})
    return report
