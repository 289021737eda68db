"""Exact integer presentations of the Grothendieck rings: the Burnside
ring of a groupoid, the Hadamard ring of a slice over a G-set, and the
crossed Burnside ring of a G-monoid, together with the theorem witnesses:
the trivial-label embedding, connected reduction, component decomposition,
and the action-groupoid comparison, each built column by column from its
theorem and then verified.  A column is the image of a basis entry, read
off the entry's coset fiber and solved in the target's table of marks, so
no carrier is built: the embedding labels every coset by the unit;
reduction moves the fibers of a component to an isotropy group along one
transport, chosen once per reduction, for any weight, into the crossed
Burnside ring of the weight restricted there, and
the decomposition is the block sum of the reductions at the component
representatives; the comparison pushes forward along G x X -> G.  The
same maps on built carriers are test oracles.

All three rings are free on one kind of basis: the transitive G-sets
labeled in a target, classified by ``enumerate_basis`` as pairs (H, t in
T^H).  The target is the weight G-monoid for the crossed Burnside ring
(the trivial one for the Burnside ring) and the G-set X for the Hadamard
ring; only the product rule differs: ``crossed.tensor``, which needs the
monoid, or ``crossed.fiber_product`` over X, the products the reference
route builds on carriers.

Structure constants come from the table of marks (production route): the
marks of a product of basis elements are computed from the marks of the
factors by a closed formula (a convolution over the weight monoid for the
tensor product, a pointwise product for the fiber product), and solved by
exact back-substitution in the triangular table of marks of the basis,
over the non-zero marks only, which gives each product's sparse row
directly; no product carrier and no dense coordinate vector is built.
The ``*_by_decomposition`` functions keep the reference route, which
expands every product on explicit carriers and decomposes it over the
transitive basis by transporter search; ``verify marks`` and the tests
compare the two.

The structure constants are stored as sparse rows, the product e_i e_j as
its non-zero coordinates ((k, c_ijk), ...), equal rows as one tuple
object; no dense d^3 table is built.
Every presentation is validated, a product via its factors (lemma 2), and
every homomorphism verified exhaustively on these rows: the unit law on all
d basis elements, associativity on all d^3 basis triples, multiplicativity
on all d^2 basis pairs, in exact Python integers, so no size of constant is
refused.  The associativity and multiplicativity checks pack each vector
into one integer (see ``_packed``), with a field width taken from a bound
the constants prove, so each linear combination is a few big-integer
operations and packed values are equal exactly when the vectors are.

Lemma 1 (the blocks of the decomposition theorem and its action-groupoid
corollary): a tensor of crossed sets on two components is empty, for any
weight, and so is a fiber product over X of sets over two G-orbits of X;
the production routes solve only the products inside one block.  Lemma 2:
if every row e_i e_j across two blocks is empty and every row inside a
block is supported in it, the table is associative exactly when each
block is, as a triple meeting two blocks gives 0 on both sides; so the
least failing (i, j) lies in one block.  ``validate`` proves that premise
on the table and checks block by block, else the whole table.  So a
product of validated rings is proved in O(d^2) (``product_ring``).

A commutative ring is built on half its table, e_i e_j for i <= j, each
row standing also for (j, i), on a premise checked on the input: the
Hadamard product is pointwise on marks; (x, y) -> (y, x) is an iso
X (x) Y -> Y (x) X when every weight monoid commutes; the braiding
(x, y) -> (theta(x) y, x) is one over the conjugation G-monoid (as
``conjugation_loops`` recognises it).  Other weights build every e_i e_j,
and the reference route never mirrors.  The associativity check tests
symmetry itself and then shares one packed table between both sides.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import accumulate, repeat
from operator import add, mul

from .errors import NotConnected, NotNatural, RingMismatch
from .classify import (
    BasisCatalog,
    CosetFiber,
    TransitivePiece,
    enumerate_basis,
    express_by_decomposition,
    express_in_basis,
)
from .crossed import CrossedGSet, fiber_product, restrict, tensor, unit_object
from .groupoid import (
    FiniteGroupoid,
    Record,
    component_transports,
    connected_components,
    is_connected,
    isotropy_group,
)
from .gsets import (
    ActionGroupoid,
    GMonoid,
    GSet,
    action_groupoid,
    conjugation_loops,
    same_base,
    trivial_gmonoid,
)


# -- presentations --------------------------------------------------------------

# A sparse vector ((k, v), ...) lists its non-zero coordinates, k strictly
# ascending, so two sparse vectors are equal exactly when their tuples are.
Sparse = tuple[tuple[int, int], ...]


def _sparse(vec: list[int]) -> Sparse:
    """The non-zero coordinates of a dense vector."""
    return tuple((k, v) for k, v in enumerate(vec) if v)


def _combine(terms: Sparse, vecs) -> Sparse:
    """The sparse vector sum of c * vecs[n] over (n, c) in terms."""
    out: dict[int, int] = {}
    for n, c in terms:
        for k, v in vecs[n]:
            out[k] = out.get(k, 0) + c * v
    return tuple(sorted((k, v) for k, v in out.items() if v))


def _first_difference(x: Sparse, y: Sparse) -> int:
    """The smallest coordinate where two unequal sparse vectors differ."""
    dx, dy = dict(x), dict(y)
    return min(k for k in dx.keys() | dy.keys() if dx.get(k) != dy.get(k))


# -- packed vectors -------------------------------------------------------------
#
# The checks compare linear combinations of sparse vectors.  A vector v is
# packed into one Python int, v evaluated at 2^w: sum of v_k << (w k).
# Packing is Z-linear, so a linear combination of packed vectors is the
# packed linear combination, computed by a few big-int multiply-adds in C.
# If every coordinate of two vectors is at most B in absolute value and
# w = B.bit_length() + 2, then |v_k| < 2^(w-2), so each vector is the unique
# base-2^w expansion of its packed value with balanced digits in
# [-2^(w-1), 2^(w-1)); packed values are equal exactly when the vectors are.
# Each check derives its bound B from the data, so no width is fixed and no
# input is refused.

def _packed(vec: Sparse, w: int) -> int:
    """The sparse vector evaluated at 2^w."""
    return sum(v << (w * k) for k, v in vec)


def _width(bound: int) -> int:
    """A field width that keeps packing injective on vectors whose
    coordinates are at most ``bound`` in absolute value."""
    return bound.bit_length() + 2


def _distinct(rows: list[list[Sparse]]) -> tuple[list[list[int]], list[Sparse]]:
    """Number the distinct products: ``pid[i][j]`` is the index of
    rows[i][j] in the returned list of distinct rows."""
    index: dict[Sparse, int] = {}
    pid = [[index.setdefault(rij, len(index)) for rij in ri] for ri in rows]
    return pid, list(index)


def _symmetric(table) -> bool:
    """Whether a square table has t[i][j] = t[j][i] throughout."""
    return list(map(tuple, table)) == list(zip(*table))


def _lincomb(terms: Sparse, vecs, length: int) -> tuple[int, ...]:
    """The sum of c * vecs[n] over (n, c) in terms, the vecs being int
    tuples of the given length, by element-wise maps in C."""
    acc = None
    for n, c in terms:
        v = vecs[n] if c == 1 else tuple(map(mul, vecs[n], repeat(c)))
        acc = v if acc is None else tuple(map(add, acc, v))
    return (0,) * length if acc is None else acc


def _norm(vecs) -> int:
    """The largest l1-norm of the sparse vectors."""
    return max((sum(abs(v) for _, v in vec) for vec in vecs), default=0)


def _top(vecs) -> int:
    """The largest absolute coordinate of the sparse vectors."""
    return max((abs(v) for vec in vecs for _, v in vec), default=0)


class RingPresentation(Record):
    """A free Z-module on a transitive basis with a unit vector and integer
    structure constants stored as sparse rows: ``structure_constants[i][j]``
    is e_i e_j as a ``Sparse`` vector ((k, c_ijk), ...) of positive c_ijk.
    ``basis_info`` defaults to a new empty list.  ``blocks``, one key per
    entry, names blocks for ``validate`` (lemma 2); it takes no part in ``==``."""

    def __init__(self, dim: int, structure_constants: list[list[Sparse]],
                 unit_vector: list[int], basis: object = None, basis_info: list[dict] | None = None,
                 blocks=None):
        self.dim, self.structure_constants = dim, structure_constants
        self.unit_vector, self.basis = unit_vector, basis
        self.basis_info = [] if basis_info is None else basis_info
        self._blocks = blocks

    def validate(self) -> "RingPresentation":
        """Row shapes, the unit law, then associativity: by blocks when an
        O(d^2) scan of the table proves the premise of lemma 2 (see the
        module docstring) for two or more, else whole; verdicts agree."""
        d = self.dim
        rows = self.structure_constants
        if len(rows) != d or any(len(ri) != d for ri in rows):
            raise NotNatural("structure constants are not a dim x dim table of rows")
        for i, ri in enumerate(rows):
            for j, rij in enumerate(ri):
                last = -1
                for k, v in rij:
                    if v < 0:
                        raise NotNatural(
                            f"negative structure constant at ({i}, {j}, {k})"
                        )
                    if v == 0 or not last < k < d:
                        raise NotNatural(f"structure constants at ({i}, {j}) are not a sparse row")
                    last = k
        if len(self.unit_vector) != d:
            raise NotNatural("unit vector has wrong length")
        self._check_unit()
        of = self._blocks
        diagonal = of and len(of) == d and len(set(of)) > 1 and all(
            of[k] == oi == oj for ri, oi in zip(rows, of) for rij, oj in zip(ri, of) for k, _ in rij)
        self._check_associativity(of if diagonal else None)
        return self

    def _check_unit(self) -> None:
        """u e_j = e_j = e_j u for every basis element j, summed over the
        non-zero coordinates of u."""
        rows = self.structure_constants
        unit = _sparse(self.unit_vector)
        for j, (row, col) in enumerate(zip(rows, zip(*rows))):
            expected = ((j, 1),)
            if _combine(unit, col) != expected or _combine(unit, row) != expected:
                raise NotNatural(f"unit law fails at basis element {j}")

    def _check_associativity(self, keys=None) -> None:
        """(e_i e_j) e_k = e_i (e_j e_k) on all d^3 basis triples, or in each
        block b of ``keys`` alone (i, j, k in b, d = |b|): sum_m c_ijm (e_m e_k)
        against sum_m c_jkm (e_i e_m), on packed vectors (see ``_packed``).
        Every coordinate of either side is at most B = (largest l1-norm of a
        row) * (largest |c|), which sets the width.  Both sides are linear
        combinations keyed by a product vector, so each distinct product p is
        combined once, for all k or i at once: lefts[p][k] = p e_k and
        rights[p][i] = e_i p.  These tables hold 2 D d ints of about d w bits,
        D the number of distinct products (tracemalloc peaks of 836 KB for D8,
        d = 44, and 779 KB for B(C2^4), d = 67); a symmetric table gives
        e_i p = p e_i, so rights is lefts.  Then for each j the d x d matrices
        (e_i e_j) e_k and e_i (e_j e_k) are compared whole.  The witness is
        the lexicographically first failing (i, j, k, l), with (k, l)
        recomputed on the sparse rows."""
        rows = self.structure_constants
        failures = []
        for key in dict.fromkeys(keys or [None]):
            b = [k for k, x in enumerate(keys) if x == key] if keys else range(self.dim)
            d = len(b)
            pid, products = _distinct([[rows[i][j] for j in b] for i in b] if keys else rows)
            w = _width(_norm(products) * _top(products))
            packed = [_packed(p, w) for p in products]
            by_row = dict(zip(b, [tuple(packed[p] for p in pm) for pm in pid]))  # [m][k] = e_m e_k
            lefts = [_lincomb(p, by_row, d) for p in products]
            if _symmetric(pid):  # e_i e_m = e_m e_i: e_i p = p e_i
                rights = lefts
            else:
                by_col = dict(zip(b, zip(*by_row.values())))  # [m][i] = e_i e_m
                rights = [_lincomb(p, by_col, d) for p in products]
            for j, (pj, col) in enumerate(zip(pid, zip(*pid))):
                left = list(map(lefts.__getitem__, col))  # [i][k]
                right = list(zip(*map(rights.__getitem__, pj)))  # [i][k]
                if left != right:
                    failures.append((b[next(i for i in range(d) if left[i] != right[i])], b[j]))
        if failures:
            raise NotNatural(self._associativity_witness(*min(failures)))

    def _associativity_witness(self, i: int, j: int) -> str:
        """The first (k, l) at which (e_i e_j) e_k and e_i (e_j e_k) differ,
        on the sparse rows."""
        rows = self.structure_constants
        for k, jk in enumerate(rows[j]):
            left = _combine(rows[i][j], [rm[k] for rm in rows])
            right = _combine(jk, rows[i])
            if left != right:
                l = _first_difference(left, right)
                return f"associativity fails at (i, j, k, l) = ({i}, {j}, {k}, {l})"
        raise AssertionError(f"packed products differ at ({i}, {j}) but sparse ones agree")


# -- ring constructors ------------------------------------------------------------

def _ring(product, unit: list[int], basis, info, commutative: bool = False, block=None) -> RingPresentation:
    """The presentation, not yet proved, the builder of every ring table, with
    e_i e_j = product(i, j), a sparse row held once however often it
    occurs, the given unit coordinates and ``basis``; ``info`` has one
    report per basis entry.  A caller that has proved e_i e_j = e_j e_i
    passes ``commutative``, and only i <= j is built: row (i, j) is also
    (j, i).  ``block`` keys the entries so that two keys multiply to 0
    (lemma 1 in the module docstring): such a pair gets the empty row
    without a call to ``product``; the keys are the blocks ``validate`` checks."""
    d = len(info)
    distinct: dict[Sparse, Sparse] = {}  # each product row, held once
    constants: list[list[Sparse]] = [[] for _ in range(d)]
    for i, ri in enumerate(constants):
        for j in range(len(ri), d):  # a commutative table has j < i from row j
            p = () if block and block[i] != block[j] else product(i, j)
            p = distinct.setdefault(p, p)
            ri.append(p)
            if commutative and j > i:
                constants[j].append(p)
    return RingPresentation(d, constants, unit, basis=basis, basis_info=info, blocks=block)


def _by_decomposition(catalog: BasisCatalog, multiply):
    """Products built on carriers by ``multiply`` and decomposed over the
    catalog by transporter search."""
    entries = catalog.entries
    return lambda i, j: _sparse(express_by_decomposition(
        multiply(entries[i].crossed, entries[j].crossed), catalog
    ))


def _crossed_info(e: TransitivePiece) -> dict:
    sub, lab = e.standard_pair
    return {
        "component": e.component_rep,
        "subgroup": sorted(sub),
        "label": lab,
        "carrier_size": e.fiber.total,
    }


def _convolution(weight: GMonoid):
    """The marks of a tensor product, convolved over the weight monoid:
    phi_(H,u)(X (x) Y) = sum over ab = u of phi_(H,a)(X) phi_(H,b)(Y)."""

    def convolve(rep: int, a: dict, b: dict) -> dict:
        table = weight.monoids[rep].table
        out: dict[int, int] = {}
        for x, mx in a.items():
            row = table[x]
            for y, my in b.items():
                out[row[y]] = out.get(row[y], 0) + mx * my
        return out

    return convolve


def crossed_burnside_ring(g: FiniteGroupoid, weight: GMonoid) -> RingPresentation:
    """Basis from the (H, s) classification; the marks of a tensor of basis
    elements are convolved from the marks of the factors and solved in the
    table of marks; half of them when a premise proves the ring
    commutative (see the module docstring), none across components (lemma 1)."""
    catalog = enumerate_basis(g, weight)
    unit = express_in_basis(unit_object(g, weight), catalog)
    commutative = (all(_symmetric(m.table) for m in weight.monoids)
                   or conjugation_loops(weight) is not None)
    products = partial(catalog.marks().product, combine=_convolution(weight))
    block = None if is_connected(g) else [e.component_rep for e in catalog.entries]
    return _ring(products, unit, catalog, list(map(_crossed_info, catalog.entries)),
                 commutative, block).validate()


def crossed_burnside_ring_by_decomposition(
    g: FiniteGroupoid, weight: GMonoid
) -> RingPresentation:
    """Reference route: expand the tensor of every pair of basis carriers
    and decompose it over the basis by orbit splitting and transporter
    search."""
    catalog = enumerate_basis(g, weight)
    unit = express_by_decomposition(unit_object(g, weight), catalog)
    products = _by_decomposition(catalog, tensor)
    return _ring(products, unit, catalog, list(map(_crossed_info, catalog.entries))).validate()


def burnside_ring(g: FiniteGroupoid) -> RingPresentation:
    """Transitive G-sets up to isomorphism with the cartesian product,
    carried as trivially-weighted crossed sets."""
    return crossed_burnside_ring(g, trivial_gmonoid(g))


# -- the Hadamard ring of a slice over a G-set -------------------------------------

def _slice_info(e: TransitivePiece) -> dict:
    return {
        "component": e.component_rep,
        "carrier_size": e.fiber.total,
        "base_image": e.standard_pair[1],
    }


def _meet(rep: int, a: dict, b: dict) -> dict:
    """The marks of a fiber product, label by label:
    phi_(H,b)(A x_X B) = phi_(H,b)(A) phi_(H,b)(B)."""
    return {v: m * b[v] for v, m in a.items() if v in b}


def _identity_slice(g: FiniteGroupoid, x: GSet) -> CrossedGSet:
    """x labeled by itself through the identity: the unit of the Hadamard
    ring."""
    if not isinstance(x, GSet):
        raise RingMismatch(f"the Hadamard ring is over a G-set, not a {type(x).__name__}")
    if not same_base(g, x.base):
        raise RingMismatch("G-set does not live over this groupoid")
    return CrossedGSet(x, x, [list(range(x.size(o))) for o in g.objects]).validate()


def _slice_express(c: CrossedGSet, catalog: BasisCatalog) -> list[int]:
    # Kept as its own function although it only forwards: the traced
    # benchmark (perfbench/spans.py) wraps this name and fails without it.
    return express_in_basis(c, catalog)


def hadamard_ring(g: FiniteGroupoid, x: GSet) -> RingPresentation:
    """The Grothendieck ring of the slice over x under the fiber product:
    the basis is the (H, b in X^H) classification, and the marks of a
    product are the pointwise products of the marks of the factors, none
    across G-orbits of X (lemma 1).  An entry's orbit is its component and
    the least label of its fiber, whose labels are an isotropy orbit."""
    ident = _identity_slice(g, x)
    catalog = enumerate_basis(g, x)
    unit = _slice_express(ident, catalog)
    return _ring(partial(catalog.marks().product, combine=_meet), unit, catalog,
                 list(map(_slice_info, catalog.entries)), True,
                 [(e.component_rep, min(e.fiber.labels[e.index])) for e in catalog.entries]).validate()


def hadamard_ring_by_decomposition(g: FiniteGroupoid, x: GSet) -> RingPresentation:
    """Reference route: build every fiber product of basis carriers and
    decompose it over the basis by transporter search."""
    ident = _identity_slice(g, x)
    catalog = enumerate_basis(g, x)
    unit = express_by_decomposition(ident, catalog)
    return _ring(_by_decomposition(catalog, fiber_product), unit, catalog,
                 list(map(_slice_info, catalog.entries))).validate()


# -- ring homomorphisms --------------------------------------------------------------

class RingHom(Record):
    """A basis-indexed integer matrix (target dim x source dim) between two
    presentations, with its verified homomorphism status (default a new
    empty dict)."""

    def __init__(self, source: RingPresentation, target: RingPresentation,
                 matrix: list[list[int]], verified: dict | None = None):
        self.source, self.target, self.matrix = source, target, matrix
        self.verified = {} if verified is None else verified

    def apply(self, coords: list[int]) -> list[int]:
        return [sum(map(mul, row, coords)) for row in self.matrix]

    def verify(self) -> "RingHom":
        """Unital, bijective, and multiplicative on all d^2 basis pairs:
        phi(e_i e_j) = sum_m c_ijm phi(e_m) against phi(e_i) phi(e_j), on
        packed target vectors (see ``_packed``).  Every coordinate of either
        side is at most B = max(|c_ij|_1 max|phi|, |phi(e_i)|_1 |phi(e_j)|_1
        max|c_target|) over all i, j, which sets the width.  Each failure
        carries a witness: the first target coordinate where phi(1) differs
        from the unit, the determinant of a square matrix that is not
        invertible over Z, and the first non-multiplicative (i, j) in
        row-major order.  Two commutative tables make the failing pairs
        symmetric, so then only the pairs i <= j are compared."""
        src, tgt = self.source, self.target
        unit_image = self.apply(src.unit_vector)
        unital = unit_image == tgt.unit_vector
        images = [_sparse(col) for col in zip(*self.matrix)]
        pid, products = _distinct(src.structure_constants)
        tgt_pid, tgt_products = _distinct(tgt.structure_constants)
        w = _width(max(
            _norm(products) * _top(images), _norm(images) ** 2 * _top(tgt_products)
        ))
        phi = [_packed(v, w) for v in images]
        lhs = [sum(c * phi[m] for m, c in p) for p in products]  # phi(p)
        tgt_packed = [_packed(p, w) for p in tgt_products]
        tgt_rows = [tuple(tgt_packed[p] for p in pr) for pr in tgt_pid]  # [r][s] = e_r e_s
        # by_image[s][i] = phi(e_i) e_s
        by_image = list(zip(*(_lincomb(v, tgt_rows, tgt.dim) for v in images)))
        # a symmetric failure set has its least (i, j) at i <= j
        half = _symmetric(pid) and _symmetric(tgt_pid)
        failures = []
        for j, (image, col) in enumerate(zip(images, zip(*pid))):
            n = j + 1 if half else src.dim
            left = tuple(map(lhs.__getitem__, col[:n]))  # [i] = phi(e_i e_j)
            # [i] = phi(e_i) phi(e_j)
            right = _lincomb(image, {s: by_image[s][:n] for s, _ in image}, n)
            if left != right:
                failures.append((next(i for i, x in enumerate(left) if x != right[i]), j))
        witness = min(failures, default=None)
        multiplicative = witness is None
        det = _int_det(self.matrix) if src.dim == tgt.dim else None
        bijective = det is not None and abs(det) == 1
        self.verified = {
            "unital": unital,
            "multiplicative": multiplicative,
            "bijective": bijective,
        }
        if not unital:
            self.verified["unit_witness"] = _first_difference(
                _sparse(unit_image), _sparse(tgt.unit_vector)
            )
        if det is not None and not bijective:
            self.verified["determinant"] = det
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
        # Whole rows: columns before k are zero in both rows and column k
        # cancels.  A row with a zero in column k is unchanged when the
        # pivot equals the previous one.
        row_k = m[k]
        a = row_k[k]
        for i in range(k + 1, n):
            b = m[i][k]
            if b or a != prev:
                m[i] = [(x * a - b * y) // prev for x, y in zip(m[i], row_k)]
        prev = a
    return sign * m[n - 1][n - 1]


def _basis_row(col) -> int | None:
    """The row r when a column is the basis vector e_r, that is when r
    holds its only non-zero entry and that entry is 1; else None."""
    nonzero = [r for r, v in enumerate(col) if v]
    return nonzero[0] if len(nonzero) == 1 and col[nonzero[0]] == 1 else None


def _hom(source: RingPresentation, target: RingPresentation, cols) -> RingHom:
    """The verified hom whose j-th column is the image of source basis
    element j."""
    return RingHom(source, target, [list(row) for row in zip(*cols)]).verify()


def embedding_hom(g: FiniteGroupoid, weight: GMonoid) -> RingHom:
    """The Burnside ring inside the crossed Burnside ring: each transitive
    G-set goes to its trivially-labeled class, the entry's coset fiber with
    every coset labeled by the unit."""
    plain = burnside_ring(g)
    crossed = crossed_burnside_ring(g, weight)
    marks = crossed.basis.marks()
    cols = []
    for entry in plain.basis.entries:
        f, rep = entry.fiber, entry.component_rep
        units = [weight.unit(rep)] * len(f.coset_reps)
        cols.append(marks.express_fiber(rep, f.fixed_by, units, f.total))
    hom = _hom(plain, crossed, cols)
    rows = [_basis_row(col) for col in cols]
    hom.verified["injective"] = None not in rows and len(set(rows)) == plain.dim
    return hom


def _reduction(source: RingPresentation, g: FiniteGroupoid, weight: GMonoid, z: int):
    """The crossed Burnside ring of the isotropy group at z over the weight
    restricted there (``source`` itself when g has one object, as g is then
    its own isotropy group), and the columns of the source entries on the
    component of z restricted to z, in entry order, each made when read.
    A column is the entry's coset fiber at rep moved along the transport
    t : rep -> z; t, the loops at z pulled back along it and the label move
    S(t) are fixed for the reduction.  The fiber at z is the cosets tcH: a
    loop u fixes tcH exactly when t^-1 u t lies in cHc^-1, and tcH carries
    the label S(t)S(c)v."""
    iso, _ = isotropy_group(g, z)
    target = source if iso is g else crossed_burnside_ring(iso, restrict(weight, z))
    marks, rep = target.basis.marks(), min(component_transports(g, z))
    t = component_transports(g, rep)[z]
    ct, inv, move = g.compose_table, g.inverse, weight.action[t]
    pull = [ct[ct[inv[t]][u]][t] for u in g.loops(z)]
    return target, (marks.express_fiber(0, lambda sub: e.fiber.fixed_by(frozenset(pull[k] for k in sub)),
                                        [move[v] for v in e.fiber.labels[e.index]], len(e.fiber.coset_reps))
                    for e in source.basis.entries if e.component_rep == rep)


def connected_reduction_hom(g: FiniteGroupoid, weight: GMonoid, z: int) -> RingHom:
    """Restrict the crossed Burnside basis of a connected groupoid to the
    isotropy group at z, into the crossed Burnside ring of the restricted
    weight.  An unknown z is refused before any ring is built."""
    if not is_connected(g):
        raise NotConnected("connected reduction needs a connected groupoid")
    isotropy_group(g, z)
    source = crossed_burnside_ring(g, weight)
    return _hom(source, *_reduction(source, g, weight, z))


def product_ring(blocks: list[RingPresentation]) -> RingPresentation:
    """Direct product of validated presentations (the premise): e_i e_j in
    a block is the block's row moved by its offset o, each distinct row
    once, and 0 across blocks (lemma 1); concatenated units; block order;
    half the table built when every block is symmetric.  Proved, not
    checked: an O(d^2) scan finds each row and the unit so (list ==, on the
    same ``moved`` tuples); then the shapes hold, u e_j = u_b e_j = e_j =
    e_j u for j in block b, and by lemma 2 it is associative as each block is."""
    keys = [bi for bi, b in enumerate(blocks) for _ in range(b.dim)]
    offsets = list(accumulate((b.dim for b in blocks), initial=0))
    moved = cache(lambda o, row: tuple((o + k, v) for k, v in row))
    # inside[i]: the columns of row i in its block, the block's row moved
    inside = [[moved(o, r) for r in ri] for b, o in zip(blocks, offsets) for ri in b.structure_constants]
    ring = _ring(lambda i, j: inside[i][j - offsets[keys[i]]], [u for b in blocks for u in b.unit_vector],
                 [b.basis for b in blocks],
                 [{"block": bi, **entry} for bi, b in enumerate(blocks) for entry in b.basis_info],
                 all(_symmetric(b.structure_constants) for b in blocks), keys)
    if ring.dim != len(keys) or ring.unit_vector != [u for b in blocks for u in b.unit_vector]:
        raise NotNatural("product unit is not the blocks' units concatenated")
    for i, (ri, bi) in enumerate(zip(ring.structure_constants, keys)):
        row = [()] * offsets[bi] + inside[i] + [()] * (len(keys) - offsets[bi + 1])
        if ri != row:  # the same tuple objects, each compared at once
            j = next(j for j, (x, y) in enumerate(zip(ri, row)) if x != y)
            raise NotNatural(f"product row ({i}, {j}) across two blocks is not empty" if keys[j] != bi
                             else f"product row ({i}, {j}) is not block {bi}'s row moved by {offsets[bi]}")
    return ring


def decomposition_hom(g: FiniteGroupoid, weight: GMonoid) -> RingHom:
    """The crossed Burnside ring of a groupoid onto the product of the
    crossed Burnside rings of its isotropy groups, one per component, each
    over the weight restricted to the component representative: the block
    sum of the reductions at the representatives, in representative order,
    which is the order of the source entries (``enumerate_basis``).  Its
    factors are validated rings, so ``product_ring`` proves the target."""
    source = crossed_burnside_ring(g, weight)
    parts = [_reduction(source, g, weight, rep) for rep in connected_components(g).representatives]
    target = product_ring([ring for ring, _ in parts])
    offsets = accumulate((ring.dim for ring, _ in parts), initial=0)
    return _hom(source, target, [[0] * o + col + [0] * (target.dim - o - len(col))
                                 for (_, local), o in zip(parts, offsets) for col in local])


# -- action-groupoid comparison ---------------------------------------------------

def _ring_bijection(
    ag: ActionGroupoid, x: GSet, left: RingPresentation, right: RingPresentation
) -> RingHom:
    """The corollary's map from B(G x X) to the Hadamard ring over X,
    verified.  The basis element of ``left`` induced from K at the object
    (o, a) pushes forward along the projection to the X-labeled G-set
    induced from (proj K, a) at o; o is the component representative below
    (o, a), as objects are numbered in (o, a) order.  Its column is read
    off that ``CosetFiber``."""
    g, proj = ag.projection.target, ag.projection.morphism_map
    marks = right.basis.marks()
    cols = []
    for entry in left.basis.entries:
        o, a = ag.object_tags[entry.component_rep]
        f = CosetFiber(g, x, o, frozenset(proj[k] for k in entry.standard_pair[0]), [a])
        cols.append(marks.express_fiber(o, f.fixed_by, f.labels[0], f.total))
    return _hom(left, right, cols)


def action_groupoid_iso_check(g: FiniteGroupoid, x: GSet) -> dict:
    """Compare B(G x X) with the Hadamard ring over x through
    ``_ring_bijection``: ``ok`` with the ``bijection`` when it maps basis to
    basis and is a ring isomorphism, else the first witness."""
    ag = action_groupoid(g, x)
    left = burnside_ring(ag.groupoid)
    right = hadamard_ring(g, x)
    report = {"dim_action_groupoid_burnside": left.dim, "dim_hadamard": right.dim}
    if left.dim != right.dim:
        report["status"] = {"witness": "dimension mismatch"}
        return report
    hom = _ring_bijection(ag, x, left, right)
    rows = [_basis_row(col) for col in zip(*hom.matrix)]
    if None in rows:
        report["status"] = {
            "witness": "pushforward of a basis element is not a basis element",
            "basis_index": rows.index(None),
        }
    elif not all(hom.verified[p] for p in ("unital", "multiplicative", "bijective")):
        report["status"] = {
            "witness": "pushforward is not a ring isomorphism",
            "verified": hom.verified,
        }
    else:
        report["status"] = "ok"
        report["bijection"] = rows
    return report
