"""Exact integer presentations of the Grothendieck rings: the Burnside
ring of a groupoid, the Hadamard ring of a slice over a G-set, and the
crossed Burnside ring of a G-monoid, together with the theorem witnesses:
the trivial-label embedding, connected reduction, component decomposition,
and the action-groupoid comparison.

Structure constants come from the table of marks (production route): the
marks of a product of basis elements are computed from the marks of the
factors by a closed formula (a convolution over the weight monoid for the
tensor product, a pointwise product for the fiber product), and solved by
exact back-substitution in the triangular table of marks of the basis; no
product carrier is built.  The ``*_by_decomposition`` functions keep the
reference route, which expands every product on explicit carriers and
decomposes it over the transitive basis by transporter search; ``verify
marks`` and the tests compare the two.

Every presentation is validated and every homomorphism verified
exhaustively: the unit law on all d basis elements, associativity on all
d^3 basis triples, multiplicativity on all d^2 basis pairs.  The checks
run on sparse rows of the structure constants, visiting only non-zero
constants, in exact Python integers, so no size of constant is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotConnected, NotNatural, RingMismatch
from .classify import (
    BasisCatalog,
    MarkTable,
    _transitive_iso,
    enumerate_basis,
    express_by_decomposition,
    express_in_basis,
)
from .crossed import (
    tensor,
    transport_restrict,
    trivial_label_embed,
    unit_object,
)
from .groupoid import FiniteGroupoid, connected_components, is_connected, isotropy_group
from .gsets import (
    GMap,
    GMonoid,
    GSet,
    action_groupoid,
    conjugation_action,
    orbit_decomposition,
    same_base,
    trivial_gmonoid,
)


# -- presentations --------------------------------------------------------------

# A sparse vector ((k, v), ...) lists its non-zero coordinates, k ascending,
# so two sparse vectors are equal exactly when their tuples are.
Sparse = tuple[tuple[int, int], ...]


def _sparse_rows(c: list[list[list[int]]]) -> list[list[Sparse]]:
    """rows[i][j] = ((k, c_ijk), ...) over the non-zero constants: the
    product e_i e_j as a sparse vector."""
    return [[tuple((k, v) for k, v in enumerate(cij) if v) for cij in ci] for ci in c]


def _combine(terms: Sparse, vecs) -> Sparse:
    """The sparse vector sum of c * vecs[n] over (n, c) in terms."""
    if len(terms) == 1:
        (n, c), = terms
        vec = vecs[n]
        return vec if c == 1 else tuple((k, c * v) for k, v in vec)
    out: dict[int, int] = {}
    for n, c in terms:
        for k, v in vecs[n]:
            out[k] = out.get(k, 0) + c * v
    return tuple(sorted((k, v) for k, v in out.items() if v))


def _first_difference(x: Sparse, y: Sparse) -> int:
    """The smallest coordinate where two unequal sparse vectors differ."""
    dx, dy = dict(x), dict(y)
    return min(k for k in dx.keys() | dy.keys() if dx.get(k) != dy.get(k))


@dataclass
class RingPresentation:
    """A free Z-module on a transitive basis with an explicit integer
    structure-constant tensor c[i][j][k] and a unit vector."""

    dim: int
    structure_constants: list[list[list[int]]]
    unit_vector: list[int]
    basis: object = None
    basis_info: list[dict] = field(default_factory=list)

    def validate(self) -> "RingPresentation":
        d = self.dim
        c = self.structure_constants
        if len(c) != d or any(
            len(ci) != d or any(len(cij) != d for cij in ci) for ci in c
        ):
            raise NotNatural("structure constants are not dim^3")
        # built on every call, never cached: callers may edit the constants
        rows = _sparse_rows(c)
        for i, ri in enumerate(rows):
            for j, rij in enumerate(ri):
                for k, v in rij:
                    if v < 0:
                        raise NotNatural(
                            f"negative structure constant at ({i}, {j}, {k})"
                        )
        if len(self.unit_vector) != d:
            raise NotNatural("unit vector has wrong length")
        self._check_unit(rows)
        self._check_associativity(rows)
        return self

    def _check_unit(self, rows: list[list[Sparse]]) -> None:
        """u e_j = e_j = e_j u for every basis element j, summed over the
        non-zero coordinates of u."""
        unit = tuple((i, ui) for i, ui in enumerate(self.unit_vector) if ui)
        for j, (row, col) in enumerate(zip(rows, zip(*rows))):
            expected = ((j, 1),)
            if _combine(unit, col) != expected or _combine(unit, row) != expected:
                raise NotNatural(f"unit law fails at basis element {j}")

    def _check_associativity(self, rows: list[list[Sparse]]) -> None:
        """(e_i e_j) e_k = e_i (e_j e_k) on all d^3 basis triples:
        sum_m c_ijm (e_m e_k) against sum_m c_jkm (e_i e_m).  Both sides are
        linear combinations keyed by a product vector, so each distinct one
        is computed once: the left side by e_i e_j, for every k at once, and
        the right side by e_j e_k, for the current i.  The witness is the
        lexicographically first failing (i, j, k, l)."""
        cols = list(zip(*rows))  # cols[k][m] = e_m e_k
        lefts_by_product: dict[Sparse, list[Sparse]] = {}
        for i, ri in enumerate(rows):
            right_by_product: dict[Sparse, Sparse] = {}
            for j, ij in enumerate(ri):
                lefts = lefts_by_product.get(ij)
                if lefts is None:
                    lefts = lefts_by_product[ij] = [_combine(ij, col) for col in cols]
                rights = []
                for jk in rows[j]:
                    right = right_by_product.get(jk)
                    if right is None:
                        right = right_by_product[jk] = _combine(jk, ri)
                    rights.append(right)
                if lefts != rights:
                    k = next(k for k, (x, y) in enumerate(zip(lefts, rights)) if x != y)
                    l = _first_difference(lefts[k], rights[k])
                    raise NotNatural(
                        f"associativity fails at (i, j, k, l) = ({i}, {j}, {k}, {l})"
                    )

    def element(self, coords) -> "RingElement":
        return RingElement(self, list(coords))

    def unit(self) -> "RingElement":
        return RingElement(self, list(self.unit_vector))


@dataclass
class RingElement:
    ring: RingPresentation
    coords: list[int]

    def __post_init__(self):
        if len(self.coords) != self.ring.dim:
            raise RingMismatch("coordinate vector has wrong length")


def ring_add(a: RingElement, b: RingElement) -> RingElement:
    if a.ring is not b.ring:
        raise RingMismatch("elements of different rings")
    return RingElement(a.ring, [x + y for x, y in zip(a.coords, b.coords)])


def ring_mul(a: RingElement, b: RingElement) -> RingElement:
    if a.ring is not b.ring:
        raise RingMismatch("elements of different rings")
    d = a.ring.dim
    c = a.ring.structure_constants
    out = [0] * d
    for i, ai in enumerate(a.coords):
        if ai == 0:
            continue
        for j, bj in enumerate(b.coords):
            if bj == 0:
                continue
            cij = c[i][j]
            prod = ai * bj
            for k in range(d):
                if cij[k]:
                    out[k] += prod * cij[k]
    return RingElement(a.ring, out)


def ring_eq(a: RingElement, b: RingElement) -> bool:
    if a.ring is not b.ring:
        raise RingMismatch("elements of different rings")
    return a.coords == b.coords


# -- ring constructors ------------------------------------------------------------

def _catalog_info(catalog: BasisCatalog) -> list[dict]:
    out = []
    for e in catalog.entries:
        sub, lab = e.standard_pair
        out.append(
            {
                "component": e.component_rep,
                "subgroup": sorted(sub),
                "label": lab,
                "carrier_size": e.crossed.total_size,
            }
        )
    return out


def _catalog_ring(catalog: BasisCatalog, constants, unit) -> RingPresentation:
    return RingPresentation(
        catalog.dim, constants, unit, basis=catalog, basis_info=_catalog_info(catalog)
    ).validate()


def crossed_burnside_ring(g: FiniteGroupoid, weight: GMonoid) -> RingPresentation:
    """Basis from the (H, s) classification; the marks of a tensor of basis
    elements are convolved from the marks of the factors,
    phi_(H,u)(X (x) Y) = sum over ab = u of phi_(H,a)(X) phi_(H,b)(Y),
    and solved in the table of marks."""
    catalog = enumerate_basis(g, weight)
    marks = catalog.marks()

    def convolve(rep: int, a: dict, b: dict) -> dict:
        table = weight.monoids[rep].table
        out: dict[int, int] = {}
        for x, mx in a.items():
            row = table[x]
            for y, my in b.items():
                out[row[y]] = out.get(row[y], 0) + mx * my
        return out

    d = catalog.dim
    constants = [[marks.product(i, j, convolve) for j in range(d)] for i in range(d)]
    return _catalog_ring(
        catalog, constants, express_in_basis(unit_object(g, weight), catalog)
    )


def crossed_burnside_ring_by_decomposition(
    g: FiniteGroupoid, weight: GMonoid
) -> RingPresentation:
    """Reference route: expand the tensor of every pair of basis carriers
    and decompose it over the basis by orbit splitting and transporter
    search."""
    catalog = enumerate_basis(g, weight)
    d = catalog.dim
    constants = [
        [
            express_by_decomposition(
                tensor(catalog.entries[i].crossed, catalog.entries[j].crossed,
                       check=False),
                catalog,
            )
            for j in range(d)
        ]
        for i in range(d)
    ]
    return _catalog_ring(
        catalog, constants, express_by_decomposition(unit_object(g, weight), catalog)
    )


def burnside_ring(g: FiniteGroupoid) -> RingPresentation:
    """Transitive G-sets up to isomorphism with the cartesian product,
    carried as trivially-weighted crossed sets."""
    return crossed_burnside_ring(g, trivial_gmonoid(g))


# -- the Hadamard ring of a slice over a G-set -------------------------------------

@dataclass
class SliceObject:
    """A G-set mapped into a fixed G-set: an object of the slice category."""

    carrier: GSet
    over: GSet
    label: list[list[int]]

    def validate(self) -> "SliceObject":
        self.carrier.validate()
        GMap(self.carrier, self.over, self.label).validate()
        return self


@dataclass
class SlicePiece:
    """A transitive slice object, with the stabilizer of its base element
    (element 0 of the fiber at component_rep)."""

    component_rep: int
    carrier: GSet
    label: list[list[int]]
    stabilizer: frozenset[int]

    @property
    def fingerprint(self) -> tuple:
        return tuple(
            (self.carrier.size(x), tuple(sorted(self.label[x])))
            for x in self.carrier.base.objects
        )


@dataclass
class SliceCatalog:
    base: FiniteGroupoid
    over: GSet
    entries: list[SlicePiece]
    index: dict[tuple, list[int]]
    _marks: MarkTable | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def marks(self) -> MarkTable:
        """The table of marks, built on first use; row k is the stabilizer
        and base image of entry k."""
        if self._marks is None:
            self._marks = MarkTable(
                [
                    (e.component_rep, e.stabilizer, e.label[e.component_rep][0],
                     e.carrier, e.label)
                    for e in self.entries
                ]
            )
        return self._marks


def _base_stabilizer(g: FiniteGroupoid, carrier: GSet, rep: int) -> frozenset[int]:
    return frozenset(h for h in g.loops(rep) if carrier.action[h][0] == 0)


def _slice_decompose(g: FiniteGroupoid, s: SliceObject) -> list[SlicePiece]:
    pieces = []
    for carrier, embed in orbit_decomposition(g, s.carrier):
        label = [
            [s.label[x][i] for i in embed.components[x]] for x in g.objects
        ]
        rep = min(x for x in g.objects if carrier.size(x) > 0)
        pieces.append(
            SlicePiece(rep, carrier, label, _base_stabilizer(g, carrier, rep))
        )
    return pieces


def _slice_express(g: FiniteGroupoid, s: SliceObject, catalog: SliceCatalog) -> list[int]:
    """Coordinates of a slice object from its marks."""
    return catalog.marks().express(s.carrier, s.label)


def _slice_express_by_decomposition(
    g: FiniteGroupoid, s: SliceObject, catalog: SliceCatalog
) -> list[int]:
    """Reference route for ``_slice_express``: orbit pieces matched by
    transporter search."""
    coords = [0] * catalog.dim
    for piece in _slice_decompose(g, s):
        hit = None
        for k in catalog.index.get(piece.fingerprint, []):
            entry = catalog.entries[k]
            if entry.component_rep != piece.component_rep:
                continue
            if _transitive_iso(piece, entry, piece.component_rep) is not None:
                hit = k
                break
        if hit is None:
            raise NotNatural("slice piece matched no catalog entry")
        coords[hit] += 1
    return coords


def _slice_basis(g: FiniteGroupoid, x: GSet) -> SliceCatalog:
    """Transitive slice objects up to slice isomorphism: every transitive
    carrier paired with every stabilizer-invariant base image, dedupued by
    the transporter search."""
    plain = enumerate_basis(g, trivial_gmonoid(g))
    entries: list[SlicePiece] = []
    for entry in plain.entries:
        rep = entry.component_rep
        carrier = entry.crossed.carrier
        stab = _base_stabilizer(g, carrier, rep)
        for b in range(x.size(rep)):
            if any(x.action[h][b] != b for h in stab):
                continue
            label = [[-1] * carrier.size(o) for o in g.objects]
            for f in g.by_dom(rep):
                y = g.cod[f]
                i = carrier.action[f][0]
                v = x.action[f][b]
                if label[y][i] == -1:
                    label[y][i] = v
                elif label[y][i] != v:
                    raise NotNatural("inconsistent label propagation")  # unreachable
            piece = SlicePiece(rep, carrier, label, stab)
            SliceObject(carrier, x, label).validate()
            if any(
                other.fingerprint == piece.fingerprint
                and other.component_rep == rep
                and _transitive_iso(piece, other, rep) is not None
                for other in entries
            ):
                continue
            entries.append(piece)
    index: dict[tuple, list[int]] = {}
    for k, e in enumerate(entries):
        index.setdefault(e.fingerprint, []).append(k)
    return SliceCatalog(g, x, entries, index)


def _slice_pullback(g: FiniteGroupoid, a: SlicePiece, b: SlicePiece, x: GSet) -> SliceObject:
    """Hadamard product: the equalizing pairs {(p, q) | theta(p) = tau(q)}
    with the diagonal action and the common image as label."""
    keep: list[list[tuple[int, int]]] = []
    for o in g.objects:
        keep.append(
            [
                (i, j)
                for i in range(a.carrier.size(o))
                for j in range(b.carrier.size(o))
                if a.label[o][i] == b.label[o][j]
            ]
        )
    pos = [{pair: k for k, pair in enumerate(lst)} for lst in keep]
    fibers = [
        [(a.carrier.fibers[o][i], b.carrier.fibers[o][j]) for i, j in keep[o]]
        for o in g.objects
    ]
    action = []
    for m in g.morphisms:
        src, dst = g.dom[m], g.cod[m]
        aa, ba = a.carrier.action[m], b.carrier.action[m]
        action.append([pos[dst][(aa[i], ba[j])] for i, j in keep[src]])
    label = [[a.label[o][i] for i, _ in keep[o]] for o in g.objects]
    carrier = GSet(g, fibers, action)
    return SliceObject(carrier, x, label)


def _hadamard_ring(g: FiniteGroupoid, x: GSet, products, express) -> RingPresentation:
    """Shared frame of both Hadamard routes: ``products(catalog)`` gives the
    d x d coordinate table; the unit is the class of the identity slice
    (x, id)."""
    if not same_base(g, x.base):
        raise RingMismatch("G-set does not live over this groupoid")
    catalog = _slice_basis(g, x)
    constants = products(catalog)
    ident = SliceObject(
        x, x, [list(range(x.size(o))) for o in g.objects]
    ).validate()
    unit = express(g, ident, catalog)
    info = [
        {
            "component": e.component_rep,
            "carrier_size": sum(e.carrier.size(o) for o in g.objects),
            "base_image": e.label[e.component_rep][0],
        }
        for e in catalog.entries
    ]
    return RingPresentation(
        catalog.dim, constants, unit, basis=catalog, basis_info=info
    ).validate()


def hadamard_ring(g: FiniteGroupoid, x: GSet) -> RingPresentation:
    """The Grothendieck ring of the slice over x under the fiber-product
    multiplication, whose marks are pointwise products:
    phi_(H,b)(A x_X B) = phi_(H,b)(A) phi_(H,b)(B)."""

    def meet(rep: int, a: dict, b: dict) -> dict:
        return {v: m * b[v] for v, m in a.items() if v in b}

    def products(catalog: SliceCatalog):
        marks = catalog.marks()
        d = catalog.dim
        return [[marks.product(i, j, meet) for j in range(d)] for i in range(d)]

    return _hadamard_ring(g, x, products, _slice_express)


def hadamard_ring_by_decomposition(g: FiniteGroupoid, x: GSet) -> RingPresentation:
    """Reference route: build every fiber product of basis carriers and
    decompose it over the basis by transporter search."""

    def products(catalog: SliceCatalog):
        entries, d = catalog.entries, catalog.dim
        return [
            [
                _slice_express_by_decomposition(
                    g, _slice_pullback(g, entries[i], entries[j], x).validate(), catalog
                )
                for j in range(d)
            ]
            for i in range(d)
        ]

    return _hadamard_ring(g, x, products, _slice_express_by_decomposition)


# -- ring homomorphisms --------------------------------------------------------------

@dataclass
class RingHom:
    """A basis-indexed integer matrix between two presentations, with its
    verified homomorphism status."""

    source: RingPresentation
    target: RingPresentation
    matrix: list[list[int]]  # target_dim x source_dim
    verified: dict = field(default_factory=dict)

    def apply(self, coords: list[int]) -> list[int]:
        return [
            sum(self.matrix[r][c] * coords[c] for c in range(self.source.dim))
            for r in range(self.target.dim)
        ]

    def verify(self) -> "RingHom":
        """Unital, bijective, and multiplicative on all d^2 basis pairs:
        phi(e_i e_j) = sum_m c_ijm phi(e_m) against phi(e_i) phi(e_j), with
        the images phi(e_m) as sparse columns.  The witness is the first
        failing (i, j) in row-major order."""
        src, tgt = self.source, self.target
        unital = self.apply(src.unit_vector) == tgt.unit_vector
        images = [
            tuple((r, row[m]) for r, row in enumerate(self.matrix) if row[m])
            for m in range(src.dim)
        ]
        tgt_cols = list(zip(*_sparse_rows(tgt.structure_constants)))
        witness = None
        for i, ri in enumerate(_sparse_rows(src.structure_constants)):
            # left[s] = phi(e_i) e_s in the target
            left = [_combine(images[i], col) for col in tgt_cols]
            for j, ij in enumerate(ri):
                if _combine(ij, images) != _combine(images[j], left):
                    witness = (i, j)
                    break
            if witness is not None:
                break
        multiplicative = witness is None
        bijective = src.dim == tgt.dim and abs(_int_det(self.matrix)) == 1
        self.verified = {
            "unital": unital,
            "multiplicative": multiplicative,
            "bijective": bijective,
        }
        if witness is not None:
            self.verified["witness"] = witness
        return self


def _int_det(matrix: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _indicator(dim: int, k: int) -> list[int]:
    return [1 if t == k else 0 for t in range(dim)]


def embedding_hom(g: FiniteGroupoid, weight: GMonoid) -> RingHom:
    """The Burnside ring inside the crossed Burnside ring: each transitive
    G-set goes to its trivially-labeled class."""
    plain = burnside_ring(g)
    crossed = crossed_burnside_ring(g, weight)
    cols = []
    for entry in plain.basis.entries:
        labeled = trivial_label_embed(entry.crossed.carrier, weight)
        cols.append(express_in_basis(labeled, crossed.basis))
    matrix = [
        [cols[c][r] for c in range(plain.dim)] for r in range(crossed.dim)
    ]
    hom = RingHom(plain, crossed, matrix).verify()
    hom.verified["injective"] = len({tuple(col) for col in cols}) == plain.dim and all(
        sum(col) == 1 and max(col) == 1 for col in cols
    )
    return hom


def connected_reduction_hom(g: FiniteGroupoid, z: int) -> RingHom:
    """Transport the crossed Burnside basis of a connected groupoid onto
    the crossed Burnside ring of the isotropy group at z."""
    if not is_connected(g):
        raise NotConnected("connected reduction needs a connected groupoid")
    source = crossed_burnside_ring(g, conjugation_action(g))
    iso, _ = isotropy_group(g, z)
    target = crossed_burnside_ring(iso, conjugation_action(iso))
    cols = []
    for entry in source.basis.entries:
        restricted = transport_restrict(entry.crossed, z)
        cols.append(express_in_basis(restricted, target.basis))
    matrix = [
        [cols[c][r] for c in range(source.dim)] for r in range(target.dim)
    ]
    return RingHom(source, target, matrix).verify()


def product_ring(blocks: list[RingPresentation]) -> RingPresentation:
    """Direct product presentation: block-diagonal constants, concatenated
    units, basis order inherited from block order."""
    dim = sum(b.dim for b in blocks)
    constants = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    unit = []
    info = []
    offset = 0
    for bi, block in enumerate(blocks):
        for i in range(block.dim):
            for j in range(block.dim):
                for k in range(block.dim):
                    constants[offset + i][offset + j][offset + k] = (
                        block.structure_constants[i][j][k]
                    )
        unit.extend(block.unit_vector)
        for entry in block.basis_info:
            info.append({"block": bi, **entry})
        offset += block.dim
    return RingPresentation(
        dim, constants, unit, basis=[b.basis for b in blocks], basis_info=info
    ).validate()


def decomposition_hom(g: FiniteGroupoid) -> RingHom:
    """The crossed Burnside ring of a groupoid onto the product of the
    crossed Burnside rings of its isotropy groups, one per component."""
    comps = connected_components(g)
    source = crossed_burnside_ring(g, conjugation_action(g))
    blocks = []
    block_catalogs = []
    for rep in comps.representatives:
        iso, _ = isotropy_group(g, rep)
        ring = crossed_burnside_ring(iso, conjugation_action(iso))
        blocks.append(ring)
        block_catalogs.append(ring.basis)
    target = product_ring(blocks)
    offsets = []
    total = 0
    for b in blocks:
        offsets.append(total)
        total += b.dim
    rep_to_block = {rep: k for k, rep in enumerate(comps.representatives)}
    cols = []
    for entry in source.basis.entries:
        block = rep_to_block[entry.component_rep]
        restricted = transport_restrict(entry.crossed, entry.component_rep)
        local = express_in_basis(restricted, block_catalogs[block])
        col = [0] * target.dim
        for k, v in enumerate(local):
            col[offsets[block] + k] = v
        cols.append(col)
    matrix = [
        [cols[c][r] for c in range(source.dim)] for r in range(target.dim)
    ]
    return RingHom(source, target, matrix).verify()


# -- action-groupoid comparison ---------------------------------------------------

def _ring_bijection(a: RingPresentation, b: RingPresentation) -> list[int] | None:
    """A basis permutation matching unit vectors and all structure
    constants, by fingerprint-pruned backtracking."""
    d = a.dim
    if b.dim != d:
        return None

    def invariant(ring: RingPresentation, i: int) -> tuple:
        c = ring.structure_constants
        return (
            ring.unit_vector[i],
            c[i][i][i],
            tuple(sorted(sum(c[i][j][k] for k in range(d)) for j in range(d))),
            tuple(sorted(sum(c[j][i][k] for k in range(d)) for j in range(d))),
        )

    inv_a = [invariant(a, i) for i in range(d)]
    inv_b = [invariant(b, i) for i in range(d)]
    cand = [
        [j for j in range(d) if inv_b[j] == inv_a[i]] for i in range(d)
    ]
    perm = [-1] * d
    used = [False] * d
    ca, cb = a.structure_constants, b.structure_constants

    def consistent(i: int) -> bool:
        # triples among 0..i-1 were checked when their last index was placed
        pi = perm[i]
        for p in range(i + 1):
            pp = perm[p]
            for q in range(i + 1):
                pq = perm[q]
                if (
                    ca[i][p][q] != cb[pi][pp][pq]
                    or ca[p][i][q] != cb[pp][pi][pq]
                    or ca[p][q][i] != cb[pp][pq][pi]
                ):
                    return False
        return True

    def extend(i: int) -> bool:
        if i == d:
            return True
        for j in cand[i]:
            if used[j]:
                continue
            perm[i] = j
            used[j] = True
            if consistent(i) and extend(i + 1):
                return True
            used[j] = False
            perm[i] = -1
        return False

    if not extend(0):
        return None
    if [a.unit_vector[i] for i in range(d)] != [
        b.unit_vector[perm[i]] for i in range(d)
    ]:
        return None
    return list(perm)


def action_groupoid_iso_check(g: FiniteGroupoid, x: GSet) -> dict:
    """Compare the Burnside ring of the action groupoid with the Hadamard
    ring of the slice over x; report the witness bijection or the failure."""
    ag = action_groupoid(g, x)
    left = burnside_ring(ag.groupoid)
    right = hadamard_ring(g, x)
    report = {
        "dim_action_groupoid_burnside": left.dim,
        "dim_hadamard": right.dim,
    }
    if left.dim != right.dim:
        report["status"] = {"witness": "dimension mismatch"}
        return report
    perm = _ring_bijection(left, right)
    if perm is None:
        report["status"] = {"witness": "no structure-preserving basis bijection"}
        return report
    report["status"] = "ok"
    report["bijection"] = perm
    return report
