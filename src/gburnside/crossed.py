"""Crossed G-sets: G-sets labeled in a target G-set, the objects of the
slice category over it.  The target is usually a G-monoid (the weight),
but labels may live in any G-set: only the tensor product (labels multiply
in the weight monoid), the monoidal unit and the braiding need the monoid,
and refuse a G-set weight by name.
The product of each ring lives here: ``tensor`` for the crossed Burnside
ring, and ``fiber_product``, the product of the slice category over a
G-set X, for the Hadamard ring over X.
Also here: the associator, the braiding over the conjugation weight,
distributivity, and transport along the equivalence between a groupoid's
component and an isotropy group, for any weight: ``restrict`` pulls a
carrier or weight back along the inclusion (the target weights of the
reduction and decomposition homs in ``rings``, whose columns come from
coset fibers; ``transport_restrict`` is the carrier route they are checked
against), and ``induce`` spreads a fiber back along the retraction (the
basis carriers in ``classify``).  The round trip that proves the two
inverse up to isomorphism, both unitors, the trivial-label embedding and
the identity, composite and tensor of crossed maps are test oracles, kept
outside the package.

Products, coproducts and coherence maps are built, not proved: they are
index formulas on the dense ids that products and coproducts assign (see
``gsets``), and ``validate()`` proves one on request.  The associator and
both unitors keep every id.  So the axiom checker checks the pentagon and
the triangle on the weight, exhaustively: they hold exactly when every
weight monoid is associative and has a two-sided unit.
The families that act on carriers (distributivity and the braiding
axioms) it checks on windows of samples, comparing composite maps as
data, so a failure is reported with a concrete witness.  Each coherence
formula returns component lists, which the public maps wrap with their
endpoints; the braiding windows compare the lists themselves and build
only the product Y (x) Z the hexagon braids with, handed on as the next
window's X (x) Y.  The unit object is built once per weight and kept on it.

``CrossedGSet`` and ``CrossedMap`` take ownership of the lists they are
handed, as the G-set constructors do (see ``gsets``).
"""

from __future__ import annotations

from itertools import zip_longest

from .errors import (
    NotNatural,
    WeightMismatch,
    WeightNotConjugation,
)
from .groupoid import (
    FiniteGroupoid,
    Record,
    component_transports,
    isotropy_group,
    retraction,
)
from .gsets import (
    GMap,
    GMonoid,
    GSet,
    conjugation_loops,
    empty_gset,
    gset_coproduct,
    gset_product,
    require_same_base,
    terminal_gset,
)


class CrossedGSet(Record):
    """A G-set with a natural labeling into a target ``weight``: a G-monoid
    or any G-set (an object of the slice category over it).  Validation
    reads only ``base``, ``size`` and ``action`` of the target."""

    def __init__(self, carrier: GSet, weight: GMonoid | GSet, label):
        self.carrier = carrier
        self.weight = weight
        self.label: list[list[int]] = label

    def validate(self) -> "CrossedGSet":
        """The carrier is a G-set and the labels a G-map into the weight,
        which, validated when it was built, is functorial too (see GMap)."""
        self.carrier.validate()
        GMap(self.carrier, self.weight, self.label).validate()
        return self

    def __repr__(self) -> str:
        return f"CrossedGSet(sizes={self.carrier.sizes})"


def same_weight(a: CrossedGSet, b: CrossedGSet) -> None:
    require_same_base(a.carrier.base, b.carrier.base, "crossed sets live over different groupoids")
    if not (a.weight is b.weight or a.weight == b.weight):
        raise WeightMismatch("crossed sets are labeled in different G-monoids")


class CrossedMap(Record):
    """A G-map between crossed sets commuting with the labels."""

    def __init__(self, source: CrossedGSet, target: CrossedGSet, components):
        self.source = source
        self.target = target
        self.components: list[list[int]] = components

    def validate(self) -> "CrossedMap":
        """Source and target must be functorial, as for ``GMap.validate``."""
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

    def __repr__(self) -> str:
        return f"CrossedMap(components={[len(c) for c in self.components]})"


def _identity(sizes) -> list[list[int]]:
    return [list(range(n)) for n in sizes]


def _compose(second, first) -> list[list[int | None]]:
    """Components of second after first; an image of first outside the
    domain of second has no image (None), so a short map cannot raise."""
    out = []
    for s, f in zip(second, first):
        n = len(s)
        out.append([s[i] if 0 <= i < n else None for i in f])
    return out


# -- monoidal structure -------------------------------------------------------

def tensor(c1: CrossedGSet, c2: CrossedGSet) -> CrossedGSet:
    """Tensor product: cartesian carrier, labels multiplied in the weight."""
    same_weight(c1, c2)
    if not isinstance(c1.weight, GMonoid):
        raise WeightMismatch(f"the tensor product needs a G-monoid weight, not a {type(c1.weight).__name__}")
    label = [
        [mon.table[a][b] for a in l1 for b in l2]
        for mon, l1, l2 in zip(c1.weight.monoids, c1.label, c2.label)
    ]
    return CrossedGSet(gset_product(c1.carrier, c2.carrier), c1.weight, label)


def fiber_product(a: CrossedGSet, b: CrossedGSet) -> CrossedGSet:
    """The product of the slice category over the common target X, the
    product of the Hadamard ring: the pairs (p, q) with equal labels, with
    the diagonal action and the common label."""
    g = a.carrier.base
    keep = [[(i, j) for i, u in enumerate(a.label[o]) for j, v in enumerate(b.label[o]) if u == v]
            for o in g.objects]
    pos = [{pair: k for k, pair in enumerate(pairs)} for pairs in keep]
    action = []
    for m in g.morphisms:
        aa, ba = a.carrier.action[m], b.carrier.action[m]
        action.append([pos[g.cod[m]][(aa[i], ba[j])] for i, j in keep[g.dom[m]]])
    label = [[a.label[o][i] for i, _ in keep[o]] for o in g.objects]
    return CrossedGSet(GSet(g, [len(k) for k in keep], action), a.weight, label).validate()


def unit_object(g: FiniteGroupoid, s: GMonoid) -> CrossedGSet:
    """Singleton carrier labeled by the weight units.  Built and validated
    once per weight instance and shared, so callers must not mutate it."""
    if not isinstance(s, GMonoid):
        raise WeightMismatch(f"the unit object needs a G-monoid weight, not a {type(s).__name__}")
    require_same_base(g, s.base, "weight does not live over this groupoid")
    if s._unit_object is None:
        s._unit_object = CrossedGSet(
            terminal_gset(s.base), s, [[mon.unit] for mon in s.monoids]
        ).validate()
    return s._unit_object


def empty_crossed(g: FiniteGroupoid, s: GMonoid) -> CrossedGSet:
    return CrossedGSet(empty_gset(g), s, [[] for _ in g.objects]).validate()


def crossed_coproduct(c1: CrossedGSet, c2: CrossedGSet) -> CrossedGSet:
    """Disjoint-union carrier with inherited labels."""
    same_weight(c1, c2)
    carrier = gset_coproduct(c1.carrier, c2.carrier)
    label = [c1.label[x] + c2.label[x] for x in carrier.base.objects]
    return CrossedGSet(carrier, c1.weight, label)


def associator(cx: CrossedGSet, cy: CrossedGSet, cz: CrossedGSet) -> CrossedMap:
    """((x, y), z) -> (x, (y, z)) from (X (x) Y) (x) Z to X (x) (Y (x) Z):
    the identity on ids, as (i|Y| + j)|Z| + k = i|Y||Z| + j|Z| + k."""
    src = tensor(tensor(cx, cy), cz)
    tgt = tensor(cx, tensor(cy, cz))
    return CrossedMap(src, tgt, _identity(src.carrier.sizes))


def _tensor_components(f, g, g_target_sizes) -> list[list[int]]:
    """Components of f (x) g, componentwise on pairs: (i, j) goes to
    f(i)|target of g| + g(j)."""
    return [[a * w + b for a in fx for b in gx] for fx, gx, w in zip(f, g, g_target_sizes)]


# -- braiding over the conjugation weight --------------------------------------

def _require_conjugation(weight: GMonoid) -> list[list[int]]:
    loops = conjugation_loops(weight)
    if loops is None:
        raise WeightNotConjugation(
            "braiding is only constructed over the conjugation G-monoid"
        )
    return loops


def braiding(c1: CrossedGSet, c2: CrossedGSet) -> CrossedMap:
    """(x, y) -> (Y(theta(x))(y), x) from X (x) Y to Y (x) X.

    The label of x is interpreted as a loop of the base groupoid and acts
    on the second carrier; this needs the weight to be the conjugation
    G-monoid.
    """
    same_weight(c1, c2)
    comps = _braid(_require_conjugation(c1.weight), c1, c2)
    return CrossedMap(tensor(c1, c2), tensor(c2, c1), comps)


def _braid(loops: list[list[int]], c1: CrossedGSet, c2: CrossedGSet) -> list[list[int]]:
    """Components of ``braiding(c1, c2)``, given the loop map of their
    conjugation weight (``conjugation_loops``)."""
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
    return comps


def braiding_inverse(c1: CrossedGSet, c2: CrossedGSet) -> CrossedMap:
    """(u, x) -> (x, Y(theta(x))^-1(u)) from Y (x) X back to X (x) Y."""
    same_weight(c1, c2)
    comps = _braid_inverse(_require_conjugation(c1.weight), c1, c2)
    return CrossedMap(tensor(c2, c1), tensor(c1, c2), comps)


def _braid_inverse(loops: list[list[int]], c1: CrossedGSet, c2: CrossedGSet) -> list[list[int]]:
    """Components of ``braiding_inverse(c1, c2)``, given the loop map as ``_braid``."""
    g = c1.carrier.base
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
    return comps


# -- distributivity -------------------------------------------------------------

def distributivity_iso(cx: CrossedGSet, cy: CrossedGSet, cz: CrossedGSet) -> CrossedMap:
    """The explicit isomorphism X (x) (Y u Z) -> (X (x) Y) u (X (x) Z):
    (i, j) goes to i|Y| + j for j < |Y|, else to |X||Y| + i|Z| + (j - |Y|)."""
    return _distributivity_map(cx, cy, cz, tensor(cx, cy))


def _distributivity_map(cx, cy, cz, xy: CrossedGSet) -> CrossedMap:
    """``distributivity_iso(cx, cy, cz)``, given xy = X (x) Y."""
    src = tensor(cx, crossed_coproduct(cy, cz))
    tgt = crossed_coproduct(xy, tensor(cx, cz))
    comps = [
        [
            i * ny + j if j < ny else nx * ny + i * nz + j - ny
            for i in range(nx)
            for j in range(ny + nz)
        ]
        for nx, ny, nz in zip(cx.carrier.sizes, cy.carrier.sizes, cz.carrier.sizes)
    ]
    return CrossedMap(src, tgt, comps)


# -- transport ---------------------------------------------------------------

def restrict(x: GSet | GMonoid, z: int) -> GSet | GMonoid:
    """Pull a G-set or a G-monoid back along the inclusion of the isotropy
    group at z: its part at z with the loop actions.  The conjugation
    weight restricts to ``conjugation_action`` of the isotropy group, equal
    element by element (the k-th loop at z is element k in both
    numberings)."""
    iso, inclusion = isotropy_group(x.base, z)
    action = [x.action[m] for m in inclusion.morphism_map]
    if isinstance(x, GMonoid):
        return GMonoid(iso, [x.monoids[z]], action)
    return GSet(iso, [x.sizes[z]], action)


def transport_restrict(c: CrossedGSet, z: int) -> CrossedGSet:
    """Precompose with the inclusion of the isotropy group at z: the
    carrier and the weight restricted to z, with the labels at z."""
    return CrossedGSet(restrict(c.carrier, z), restrict(c.weight, z), [c.label[z]]).validate()


def induce(
    weight: GMonoid | GSet, z: int, size: int, loop_action: list[list[int]], labels
) -> list[CrossedGSet]:
    """Spread a fiber of ``size`` elements at z, acted on by the isotropy
    group at z (loop position k acts by ``loop_action[k]``), over the
    component of z along the retraction R(m : y -> w) = t_w^-1 m t_y:
    every component object gets the fiber, m acts by R(m).  Objects off
    the component get empty fibers.  One crossed set on this one carrier
    per labeling in ``labels`` of the fiber in weight(z), moved to y by
    weight(t_y).  Only ``weight.action`` is read, so labels may live in
    any G-set."""
    g = weight.base
    t = component_transports(g, z)
    action = [[] if k is None else loop_action[k] for k in retraction(g, t)]
    sizes = [size if y in t else 0 for y in g.objects]
    carrier = GSet(g, sizes, action).validate()
    out = []
    for label in labels:
        spread = [[weight.action[t[y]][v] for v in label] if y in t else [] for y in g.objects]
        GMap(carrier, weight, spread).validate()  # the carrier is proved above, once
        out.append(CrossedGSet(carrier, weight, spread))
    return out


# -- axiom checking ----------------------------------------------------------------

def _maps_equal(a: list[list[int]], b: list[list[int]]):
    """None if the component lists are equal, else a witness locating the
    first disagreement; where one side has no image, its image is None."""
    if a == b:
        return None
    for x, (ca, cb) in enumerate(zip_longest(a, b, fillvalue=[])):
        for i, (va, vb) in enumerate(zip_longest(ca, cb)):
            if va != vb:
                return {
                    "object": x,
                    "element": i,
                    "lhs_image": va,
                    "rhs_image": vb,
                }
    return None


def _weight_laws(weight: GMonoid) -> tuple[dict | None, dict | None]:
    """Witnesses of the pentagon and the triangle: the first object whose
    monoid fails associativity, and the first that fails the two-sided
    unit law, each with the failing elements, or None."""
    pentagon = triangle = None
    for x, mon in enumerate(weight.monoids):
        abc = mon.associativity_failure()
        if pentagon is None and abc is not None:
            pentagon = {"object": x, "elements": list(abc)}
        a = mon.unit_failure()
        if triangle is None and a is not None:
            triangle = {"object": x, "elements": [a]}
    return pentagon, triangle


def _symmetry(loops, cx, cy, fwd=None):
    # Pairs the braiding with its explicit inverse formula.  Composing the
    # one-sided formula with itself is not the identity in general (the
    # structure is braided): over C2, swap a unit-labeled with a
    # sigma-labeled free orbit and the double braiding translates by sigma.
    fwd, inv = fwd or _braid(loops, cx, cy), _braid_inverse(loops, cx, cy)
    ident = _identity(a * b for a, b in zip(cx.carrier.sizes, cy.carrier.sizes))
    return _maps_equal(_compose(inv, fwd), ident) or _maps_equal(_compose(fwd, inv), ident)


def _hexagon(loops, cx, cy, cz, fwd=None, yz=None):
    # the right side is (1 (x) b(X, Z))(b(X, Y) (x) 1); its identities have
    # the carrier sizes of Y and Z, and b(X, Z) has target Z (x) X
    ys, zs = cy.carrier.sizes, cz.carrier.sizes
    first = _tensor_components(fwd or _braid(loops, cx, cy), _identity(zs), zs)
    zx = [a * b for a, b in zip(zs, cx.carrier.sizes)]
    second = _tensor_components(_identity(ys), _braid(loops, cx, cz), zx)
    return _maps_equal(_braid(loops, cx, yz or tensor(cy, cz)), _compose(second, first))


def _unitor_braiding(loops, cx):
    unit = unit_object(cx.carrier.base, cx.weight)
    return _maps_equal(_braid(loops, unit, cx), _identity(cx.carrier.sizes))


def _distributivity(cx, cy, cz, xy=None):
    try:
        d = _distributivity_map(cx, cy, cz, xy or tensor(cx, cy)).validate()
    except NotNatural as exc:
        return {"error": str(exc)}
    if not d.is_isomorphism():
        return {"error": "distributivity map is not bijective"}
    return None


def check_monoidal_axioms(samples: list[CrossedGSet]) -> list[dict]:
    """Check the monoidal axioms on crossed sets over one weight.

    The associator and both unitors are the identity on ids, so the
    pentagon and the triangle commute as soon as these maps are crossed
    maps.  The associator is one exactly when (ab)c = a(bc) for the labels
    that occur, the unitors exactly when 1a = a = a1, and every element of
    a weight monoid labels some crossed set (a free orbit).  So the
    pentagon is associativity, and the triangle the two-sided unit law, of
    every weight monoid, checked exhaustively once per call.

    Distributivity, and over the conjugation weight the symmetry
    involution, the hexagon and the braiding/unitor triangle, are checked
    on every cyclic window of the samples.  The associator and unitors drop
    out of the last two: the hexagon compares b(X, Y (x) Z) with
    (1 (x) b(X, Z))(b(X, Y) (x) 1), and the unitor triangle compares
    b(I, X) with the identity.  Only this hexagon is checked, not the one
    for b(X (x) Y, Z) (ROADMAP item 11).  A window braids b(X, Y) once for
    symmetry and the hexagon, and hands its Y (x) Z on as the next
    window's X (x) Y (the last window's is window 0's, built first); each
    window check builds what it is not handed.

    Returns one report entry per axiom: {"axiom": name, "status": "ok"} or
    {"axiom": name, "status": {"witness": ...}}.  A weight witness names
    the object and the failing elements, a window witness its window and
    the first element where the two sides differ (or the error).
    """
    if not samples:
        return [{"axiom": name, "status": "ok"} for name in (
            "pentagon", "triangle", "distributivity")]
    for s in samples[1:]:
        same_weight(samples[0], s)
    n = len(samples)
    xy = first = tensor(samples[0], samples[1 % n])  # refuses a G-set weight
    loops = conjugation_loops(samples[0].weight)  # resolved once for every window
    names = ("distributivity", "symmetry", "hexagon", "unitor-braiding")
    status: dict[str, object] = dict.fromkeys(names[:1 if loops is None else 4], "ok")
    for i in range(n):
        window = [(i + j) % n for j in range(3)]
        cx, cy, cz = (samples[j] for j in window)
        live = {name for name, st in status.items() if st == "ok"}
        fwd = _braid(loops, cx, cy) if live & {"symmetry", "hexagon"} else None
        yz = (first if i == n - 1 else tensor(cy, cz)) if "hexagon" in live else None
        for name, arity, run in (
            ("distributivity", 3, lambda: _distributivity(cx, cy, cz, xy)),
            ("symmetry", 2, lambda: _symmetry(loops, cx, cy, fwd)),
            ("hexagon", 3, lambda: _hexagon(loops, cx, cy, cz, fwd, yz)),
            ("unitor-braiding", 1, lambda: _unitor_braiding(loops, cx)),
        ):
            witness = run() if name in live else None
            if witness is not None:  # each axiom reports its first failing window
                witness["window"] = window[:arity]
                status[name] = {"witness": witness}
        xy = yz
    laws = [
        {"axiom": name, "status": "ok" if w is None else {"witness": w}}
        for name, w in zip(("pentagon", "triangle"), _weight_laws(samples[0].weight))
    ]
    return laws + [{"axiom": name, "status": st} for name, st in status.items()]
