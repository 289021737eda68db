"""Ring presentations, ring arithmetic, and the theorem witnesses."""

from __future__ import annotations

import copy
import itertools
import random
import re

import pytest

import gburnside as gb
from gburnside.errors import NotConnected, NotNatural, RingMismatch
from gburnside.rings import (
    RingElement,
    RingHom,
    RingPresentation,
    action_groupoid_iso_check,
    burnside_ring,
    connected_reduction_hom,
    crossed_burnside_ring,
    decomposition_hom,
    embedding_hom,
    hadamard_ring,
    product_ring,
    ring_add,
    ring_eq,
    ring_mul,
    _int_det,
    _combine,
    _ring_bijection,
    _sparse_rows,
)
from gburnside.gsets import GSet

from conftest import cyclic_table, fixed_points_gset, regular_gset


@pytest.fixture(scope="module")
def b_c2(c2):
    return burnside_ring(c2)


@pytest.fixture(scope="module")
def bc_c2(c2):
    return crossed_burnside_ring(c2, gb.conjugation_action(c2))


@pytest.fixture
def s3_natural(s3, s3_perms) -> GSet:
    return GSet(
        s3, [[0, 1, 2]], [[p[i] for i in range(3)] for p in s3_perms]
    ).validate()


class TestPresentationValidation:
    def test_negative_constant_rejected(self, b_c2):
        bad = RingPresentation(
            b_c2.dim,
            copy.deepcopy(b_c2.structure_constants),
            list(b_c2.unit_vector),
        )
        bad.structure_constants[0][0][1] = -1
        with pytest.raises(NotNatural):
            bad.validate()

    def test_broken_unit_rejected(self, b_c2):
        bad = RingPresentation(
            b_c2.dim,
            copy.deepcopy(b_c2.structure_constants),
            [1, 1],
        )
        with pytest.raises(NotNatural):
            bad.validate()

    def test_broken_associativity_rejected(self, bc_c2):
        bad = RingPresentation(
            bc_c2.dim,
            copy.deepcopy(bc_c2.structure_constants),
            list(bc_c2.unit_vector),
        )
        bad.structure_constants[0][1][0] += 1
        with pytest.raises(NotNatural):
            bad.validate()


class TestBurnsideRing:
    def test_trivial_group_is_z(self):
        ring = burnside_ring(gb.from_group(cyclic_table(1)))
        assert ring.dim == 1
        assert ring.structure_constants == [[[1]]]
        assert ring.unit_vector == [1]

    def test_c2_table(self, b_c2):
        assert b_c2.dim == 2
        # basis order: [C2/1], [C2/C2]
        assert b_c2.structure_constants[0][0] == [2, 0]
        assert b_c2.structure_constants[0][1] == [1, 0]
        assert b_c2.structure_constants[1][1] == [0, 1]
        assert b_c2.unit_vector == [0, 1]

    def test_s3_dim(self, s3):
        assert burnside_ring(s3).dim == 4

    def test_matches_trivially_weighted_crossed_ring(self, corpus):
        for name in ("C2", "S3", "C2xPair(2)", "C2+S3"):
            g = corpus[name]
            plain = burnside_ring(g)
            crossed = crossed_burnside_ring(g, gb.trivial_gmonoid(g))
            assert plain.dim == crossed.dim
            assert plain.structure_constants == crossed.structure_constants
            assert plain.unit_vector == crossed.unit_vector


class TestCrossedBurnsideRing:
    def test_trivial_group(self):
        ring = crossed_burnside_ring(
            gb.from_group(cyclic_table(1)),
            gb.conjugation_action(gb.from_group(cyclic_table(1))),
        )
        assert ring.dim == 1

    def test_c2_sample_relation(self, bc_c2):
        assert bc_c2.dim == 4
        # [C2, sigma] * [C2, sigma] = [C2, e]
        assert bc_c2.structure_constants[3][3] == [0, 0, 1, 0]

    def test_c2_plus_c3_dim(self, c2, c3):
        u, _ = gb.disjoint_union([c2, c3])
        ring = crossed_burnside_ring(u, gb.conjugation_action(u))
        assert ring.dim == 10

    def test_commutative_for_conjugation(self, corpus):
        for name in ("C2", "C3", "S3", "C2xPair(2)"):
            g = corpus[name]
            ring = crossed_burnside_ring(g, gb.conjugation_action(g))
            d = ring.dim
            for i, j, k in itertools.product(range(d), repeat=3):
                assert (
                    ring.structure_constants[i][j][k]
                    == ring.structure_constants[j][i][k]
                )

    def test_dim_additivity_over_components(self, corpus):
        g = corpus["(C2xPair(2))+C3"]
        total = crossed_burnside_ring(g, gb.conjugation_action(g)).dim
        parts = 0
        for rep in gb.connected_components(g).representatives:
            iso, _ = gb.isotropy_group(g, rep)
            parts += crossed_burnside_ring(iso, gb.conjugation_action(iso)).dim
        assert total == parts == 10


class TestRingArithmetic:
    def test_add_zero(self, b_c2):
        a = b_c2.element([3, 1])
        zero = b_c2.element([0, 0])
        assert ring_eq(ring_add(a, zero), a)

    def test_unit_multiplication(self, bc_c2):
        a = bc_c2.element([1, 2, 3, 4])
        assert ring_eq(ring_mul(bc_c2.unit(), a), a)
        assert ring_eq(ring_mul(a, bc_c2.unit()), a)

    def test_square_of_sum_in_b_c2(self, b_c2):
        total = b_c2.element([1, 1])  # [C2/1] + [C2/C2]
        square = ring_mul(total, total)
        assert square.coords == [4, 1]

    def test_ring_mismatch(self, b_c2, bc_c2):
        with pytest.raises(RingMismatch):
            ring_add(b_c2.element([1, 0]), bc_c2.element([1, 0, 0, 0]))

    def test_wrong_length(self, b_c2):
        with pytest.raises(RingMismatch):
            RingElement(b_c2, [1, 2, 3])


class TestEmbedding:
    def test_trivial_group_identity(self):
        g = gb.from_group(cyclic_table(1))
        hom = embedding_hom(g, gb.conjugation_action(g))
        assert hom.matrix == [[1]]
        assert hom.verified["injective"]

    def test_c2_column_targets(self, c2):
        hom = embedding_hom(c2, gb.conjugation_action(c2))
        # [C2/1] -> (1, e) class at index 0; [C2/C2] -> (C2, e) at index 2
        cols = [[hom.matrix[r][c] for r in range(4)] for c in range(2)]
        assert cols == [[1, 0, 0, 0], [0, 0, 1, 0]]
        assert hom.verified["unital"] and hom.verified["multiplicative"]

    def test_s3_hits_unit_labeled_classes(self, s3):
        hom = embedding_hom(s3, gb.conjugation_action(s3))
        crossed = hom.target
        for c in range(hom.source.dim):
            col = [hom.matrix[r][c] for r in range(hom.target.dim)]
            assert sum(col) == 1
            target_entry = crossed.basis.entries[col.index(1)]
            rep = target_entry.component_rep
            assert target_entry.standard_pair[1] == gb.conjugation_action(
                s3
            ).unit(rep)
        assert hom.verified["injective"]

    def test_columns_distinct_standard_vectors(self, corpus):
        for name in ("C2", "S3", "C2xPair(2)", "C2+S3"):
            g = corpus[name]
            hom = embedding_hom(g, gb.conjugation_action(g))
            cols = {
                tuple(hom.matrix[r][c] for r in range(hom.target.dim))
                for c in range(hom.source.dim)
            }
            assert len(cols) == hom.source.dim
            for col in cols:
                assert sum(col) == 1 and set(col) <= {0, 1}


class TestHadamard:
    def test_terminal_slice_recovers_burnside(self, s3):
        ring = hadamard_ring(s3, gb.terminal_gset(s3))
        plain = burnside_ring(s3)
        assert ring.dim == plain.dim
        assert ring.structure_constants == plain.structure_constants
        assert ring.unit_vector == plain.unit_vector

    def test_c2_regular_slice(self, c2):
        ring = hadamard_ring(c2, regular_gset(c2))
        assert ring.dim == 1

    def test_s3_natural_slice(self, s3, s3_natural):
        ring = hadamard_ring(s3, s3_natural)
        assert ring.dim == 2

    def test_unit_need_not_be_a_basis_vector(self, c2):
        x = fixed_points_gset(c2, 2)
        ring = hadamard_ring(c2, x)
        assert sum(ring.unit_vector) == 2  # (X, id) splits into two pieces

    @pytest.mark.parametrize(
        "gens",
        [[[1, 0, 2], [1, 2, 0]], [[1, 2, 0, 3], [0, 2, 3, 1]]],  # S3, A4
        ids=["S3", "A4"],
    )
    @pytest.mark.parametrize("over", ["conjugation", "regular"])
    def test_identity_not_least_loop(self, gens, over):
        table = gb.group_table_from_perm_gens(gens)
        n = len(table)
        new_id = [(a + 1) % n for a in range(n)]  # the identity 0 becomes 1
        old_id = sorted(range(n), key=new_id.__getitem__)
        renumbered = [
            [new_id[table[old_id[a]][old_id[b]]] for b in range(n)] for a in range(n)
        ]
        standard, g = gb.from_group(table), gb.from_group(renumbered)
        assert g.identity[0] != min(g.loops(0))

        def target(h):
            if over == "conjugation":
                return gb.conjugation_action(h).underlying()
            return regular_gset(h)

        ring = hadamard_ring(g, target(g))
        assert _ring_bijection(ring, hadamard_ring(standard, target(standard))) is not None
        assert action_groupoid_iso_check(g, target(g))["status"] == "ok"


class TestReduction:
    def test_one_object_is_identity(self, s3):
        hom = connected_reduction_hom(s3, 0)
        assert hom.matrix == [
            [1 if i == j else 0 for j in range(hom.source.dim)]
            for i in range(hom.target.dim)
        ]
        assert hom.verified["bijective"]

    @pytest.mark.parametrize("name,z", [("C2xPair(2)", 0), ("C2xPair(2)", 1)])
    def test_c2_pair2(self, corpus, name, z):
        hom = connected_reduction_hom(corpus[name], z)
        assert hom.source.dim == hom.target.dim == 4
        assert all(hom.verified[k] for k in ("unital", "multiplicative", "bijective"))

    def test_pair4_reduces_to_z(self, corpus):
        hom = connected_reduction_hom(corpus["Pair(4)"], 2)
        assert hom.source.dim == hom.target.dim == 1
        assert hom.matrix == [[1]]

    def test_not_connected(self, corpus):
        with pytest.raises(NotConnected):
            connected_reduction_hom(corpus["C2+S3"], 0)


class TestDecomposition:
    def test_connected_case(self, s3):
        hom = decomposition_hom(s3)
        assert hom.source.dim == hom.target.dim == 8
        assert all(hom.verified[k] for k in ("unital", "multiplicative", "bijective"))

    def test_c2_plus_s3(self, corpus):
        hom = decomposition_hom(corpus["C2+S3"])
        assert hom.source.dim == 12
        assert hom.target.dim == 12
        assert [b["block"] for b in hom.target.basis_info].count(0) == 4
        assert [b["block"] for b in hom.target.basis_info].count(1) == 8
        assert all(hom.verified[k] for k in ("unital", "multiplicative", "bijective"))

    def test_mixed_components(self, corpus):
        hom = decomposition_hom(corpus["(C2xPair(2))+C3"])
        assert hom.source.dim == 10
        assert all(hom.verified[k] for k in ("unital", "multiplicative", "bijective"))

    def test_product_ring_blocks(self, b_c2):
        prod = product_ring([b_c2, b_c2])
        assert prod.dim == 4
        assert prod.unit_vector == [0, 1, 0, 1]
        assert prod.structure_constants[0][2] == [0, 0, 0, 0]


class TestActionGroupoidIso:
    def test_c2_regular(self, c2):
        report = action_groupoid_iso_check(c2, regular_gset(c2))
        assert report["status"] == "ok"
        assert report["dim_hadamard"] == 1

    def test_c2_fixed_point(self, c2):
        report = action_groupoid_iso_check(c2, fixed_points_gset(c2, 1))
        assert report["status"] == "ok"
        assert report["dim_hadamard"] == 2

    def test_s3_natural(self, s3, s3_natural):
        report = action_groupoid_iso_check(s3, s3_natural)
        assert report["status"] == "ok"
        assert report["dim_hadamard"] == 2

    def test_union_terminal(self, c2, c3):
        u, _ = gb.disjoint_union([c2, c3])
        report = action_groupoid_iso_check(u, gb.terminal_gset(u))
        assert report["status"] == "ok"
        assert report["dim_hadamard"] == 4

    @pytest.mark.parametrize(
        "gens, dim",
        [
            ([[1, 2, 3, 0], [0, 3, 2, 1]], 29),  # D4
            ([[1, 2, 0, 3], [0, 2, 3, 1]], 14),  # A4
        ],
    )
    def test_conjugation_gset(self, gens, dim):
        g = gb.from_group(gb.group_table_from_perm_gens(gens))
        report = action_groupoid_iso_check(g, gb.conjugation_action(g).underlying())
        assert report["status"] == "ok"
        assert report["dim_hadamard"] == report["dim_action_groupoid_burnside"] == dim
        assert sorted(report["bijection"]) == list(range(dim))


def _relabeled(ring: RingPresentation, sigma: list[int]) -> RingPresentation:
    """The same ring with basis element i renamed sigma[i]."""
    d = ring.dim
    c = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i, j, k in itertools.product(range(d), repeat=3):
        c[sigma[i]][sigma[j]][sigma[k]] = ring.structure_constants[i][j][k]
    unit = [0] * d
    for i in range(d):
        unit[sigma[i]] = ring.unit_vector[i]
    return RingPresentation(d, c, unit).validate()


class TestRingBijection:
    @pytest.mark.parametrize("name", ["S3", "C2+S3", "(C2xPair(2))+C3"])
    def test_finds_a_structure_preserving_relabeling(self, corpus, name):
        g = corpus[name]
        a = crossed_burnside_ring(g, gb.conjugation_action(g))
        sigma = list(range(a.dim))
        random.Random(name).shuffle(sigma)
        b = _relabeled(a, sigma)
        perm = _ring_bijection(a, b)
        assert perm is not None and sorted(perm) == list(range(a.dim))
        ca, cb = a.structure_constants, b.structure_constants
        for p, q, r in itertools.product(range(a.dim), repeat=3):
            assert ca[p][q][r] == cb[perm[p]][perm[q]][perm[r]]
        assert [b.unit_vector[perm[i]] for i in range(a.dim)] == a.unit_vector

    def test_every_returned_bijection_preserves_every_constant(self, corpus):
        # Move one unit of a product e_p e_q (p != q) to another output
        # coordinate: row sums, diagonal constants and the unit stay the
        # same, so the fingerprints do not separate the two rings and only
        # the constant-by-constant check can.
        a = crossed_burnside_ring(corpus["S3"], gb.conjugation_action(corpus["S3"]))
        d, ca = a.dim, a.structure_constants
        moves = [
            (p, q, k, t)
            for p, q, k, t in itertools.product(range(d), repeat=4)
            if p != q and ca[p][q][k] and t != k
        ]
        rejected = 0
        for p, q, k, t in random.Random("moves").sample(moves, 40):
            b = RingPresentation(d, copy.deepcopy(ca), list(a.unit_vector))
            b.structure_constants[p][q][k] -= 1
            b.structure_constants[p][q][t] += 1
            perm = _ring_bijection(a, b)
            if perm is None:
                rejected += 1
                continue
            cb = b.structure_constants
            for x, y, z in itertools.product(range(d), repeat=3):
                assert ca[x][y][z] == cb[perm[x]][perm[y]][perm[z]], (p, q, k, t)
        assert rejected > 0

    def test_rejects_a_changed_constant(self, bc_c2):
        other = RingPresentation(
            bc_c2.dim, copy.deepcopy(bc_c2.structure_constants), list(bc_c2.unit_vector)
        )
        other.structure_constants[3][3] = [0, 0, 0, 1]
        assert _ring_bijection(bc_c2, other) is None


class TestIntDet:
    def test_known_values(self):
        assert _int_det([[2, 0], [0, 3]]) == 6
        assert _int_det([[0, 1], [1, 0]]) == -1
        assert _int_det([[1, 2], [2, 4]]) == 0
        assert _int_det([[2, 3, 1], [4, 1, 3], [1, 5, 2]]) == -22


# -- exact sparse arithmetic --------------------------------------------------------

def test_combine_drops_cancelled_coordinates():
    # sparse vectors are compared as tuples, so a sum that cancels must not
    # leave a (k, 0) entry behind
    vecs = [((0, 2), (1, 1)), ((0, 2),)]
    assert _combine(((0, 1), (1, -1)), vecs) == ((1, 1),)
    assert _combine(((0, 1), (1, -1)), [((0, 2),), ((0, 2),)]) == ()


# -- exact checks on constants beyond any fixed-width integer ----------------------

class TestLargeConstants:
    def test_two_dim_ring_with_huge_constant_validates(self):
        # basis {1, x} with x^2 = 2^40 x
        n = 2**40
        c = [[[1, 0], [0, 1]], [[0, 1], [0, n]]]
        ring = RingPresentation(2, c, [1, 0]).validate()
        x = ring.element([0, 1])
        assert ring_mul(x, ring_mul(x, x)).coords == [0, n * n]

    def test_huge_constants_associativity_witness(self):
        # basis {1, x, y}: x^2 = n y, y^2 = n x, xy = yx = 0, so that
        # (x x) y = n^2 x while x (x y) = 0
        n = 2**40
        c = [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, n], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [0, n, 0]],
        ]
        assert oracle_unit_failure(c, [1, 0, 0]) is None
        assert oracle_associativity_failure(c) == (1, 1, 2, 1)
        with pytest.raises(
            NotNatural, match=re.escape("(i, j, k, l) = (1, 1, 2, 1)")
        ):
            RingPresentation(3, c, [1, 0, 0]).validate()


# -- differential tests against a dense oracle --------------------------------------
#
# The oracle is the definition, written as plain loops over every coordinate;
# the production checks visit only non-zero constants and must agree with it
# on the verdict and on the witness.

def oracle_unit_failure(c, u):
    """The first basis element j with u e_j != e_j or e_j u != e_j."""
    d = len(c)
    for j in range(d):
        expected = [1 if k == j else 0 for k in range(d)]
        left = [sum(u[i] * c[i][j][k] for i in range(d)) for k in range(d)]
        right = [sum(u[i] * c[j][i][k] for i in range(d)) for k in range(d)]
        if left != expected or right != expected:
            return j
    return None


def oracle_associativity_failure(c):
    """The lexicographically first (i, j, k, l) where the coordinate l of
    (e_i e_j) e_k and of e_i (e_j e_k) differ."""
    d = len(c)
    for i, j, k, l in itertools.product(range(d), repeat=4):
        lhs = sum(c[i][j][m] * c[m][k][l] for m in range(d))
        rhs = sum(c[j][k][m] * c[i][m][l] for m in range(d))
        if lhs != rhs:
            return (i, j, k, l)
    return None


def oracle_hom_failure(src, tgt, matrix):
    """The first (i, j), row-major, with phi(e_i e_j) != phi(e_i) phi(e_j)."""
    ds, dt = src.dim, tgt.dim
    ct = tgt.structure_constants

    def image(v):
        return [sum(matrix[r][m] * v[m] for m in range(ds)) for r in range(dt)]

    def product(x, y):
        return [
            sum(x[r] * y[s] * ct[r][s][t] for r in range(dt) for s in range(dt))
            for t in range(dt)
        ]

    basis = [[1 if m == i else 0 for m in range(ds)] for i in range(ds)]
    for i, j in itertools.product(range(ds), repeat=2):
        if image(src.structure_constants[i][j]) != product(
            image(basis[i]), image(basis[j])
        ):
            return (i, j)
    return None


def _corpus_rings(corpus, max_dim=14):
    """Crossed Burnside rings of the corpus under both weights, and the
    block-diagonal target of the C2+S3 decomposition."""
    for name, g in corpus.items():
        for weight in ("conjugation", "trivial"):
            m = gb.conjugation_action(g) if weight == "conjugation" else gb.trivial_gmonoid(g)
            ring = crossed_burnside_ring(g, m)
            if ring.dim <= max_dim:
                yield f"{name}/{weight}", ring
    yield "C2+S3/product", decomposition_hom(corpus["C2+S3"]).target


def _corruptions(name, ring, count=6):
    """A fixed sample of single-constant changes: half add 1 anywhere, half
    zero out a non-zero constant."""
    rng = random.Random(name)
    d, c = ring.dim, ring.structure_constants
    nonzero = [
        (i, j, k) for i, j, k in itertools.product(range(d), repeat=3) if c[i][j][k]
    ]
    for n in range(count):
        if n % 2 == 0:
            pos = tuple(rng.randrange(d) for _ in range(3))
            yield pos, c[pos[0]][pos[1]][pos[2]] + 1
        else:
            yield rng.choice(nonzero), 0


class TestDenseOracle:
    def test_corpus_rings_pass_both(self, corpus):
        for name, ring in _corpus_rings(corpus):
            c = ring.structure_constants
            assert oracle_unit_failure(c, ring.unit_vector) is None, name
            assert oracle_associativity_failure(c) is None, name

    def test_corrupted_constants_same_verdict_and_witness(self, corpus):
        rejected = {"unit": 0, "associativity": 0}
        for name, ring in _corpus_rings(corpus):
            for (i, j, k), value in _corruptions(name, ring):
                c = copy.deepcopy(ring.structure_constants)
                c[i][j][k] = value
                bad = RingPresentation(ring.dim, c, list(ring.unit_vector))
                case = f"{name} c[{i}][{j}][{k}] = {value}"

                unit_failure = oracle_unit_failure(c, bad.unit_vector)
                assoc_failure = oracle_associativity_failure(c)
                if assoc_failure is None:
                    bad._check_associativity(_sparse_rows(c))
                else:
                    rejected["associativity"] += 1
                    with pytest.raises(NotNatural) as err:
                        bad._check_associativity(_sparse_rows(c))
                    assert str(err.value) == (
                        f"associativity fails at (i, j, k, l) = {assoc_failure}"
                    ), case

                if unit_failure is not None:
                    rejected["unit"] += 1
                    expected = f"unit law fails at basis element {unit_failure}"
                elif assoc_failure is not None:
                    expected = f"associativity fails at (i, j, k, l) = {assoc_failure}"
                else:
                    bad.validate()
                    continue
                with pytest.raises(NotNatural) as err:
                    bad.validate()
                assert str(err.value) == expected, case
        assert rejected["unit"] > 0 and rejected["associativity"] > 0

    def test_corrupted_hom_same_witness(self, corpus):
        hom = decomposition_hom(corpus["C2+S3"])
        src, tgt = hom.source, hom.target
        assert oracle_hom_failure(src, tgt, hom.matrix) is None
        assert hom.verified["multiplicative"] and "witness" not in hom.verified
        rng = random.Random("C2+S3 hom")
        caught = 0
        for _ in range(8):
            r, m = rng.randrange(tgt.dim), rng.randrange(src.dim)
            matrix = [list(row) for row in hom.matrix]
            matrix[r][m] += 1
            expected = oracle_hom_failure(src, tgt, matrix)
            verified = RingHom(src, tgt, matrix).verify().verified
            assert verified["multiplicative"] == (expected is None), (r, m)
            assert verified.get("witness") == expected, (r, m)
            caught += expected is not None
        assert caught > 0

    def test_hom_with_cancelling_entries(self, b_c2):
        # On B(C2) with a = [C2/1], a^2 = 2a, the map a -> 2 - a, 1 -> 1 is
        # a ring automorphism; phi(a) a = -a^2 + 2a = 0 cancels to zero.
        hom = RingHom(b_c2, b_c2, [[-1, 0], [2, 1]])
        assert oracle_hom_failure(b_c2, b_c2, hom.matrix) is None
        assert hom.verify().verified == {
            "unital": True, "multiplicative": True, "bijective": True,
        }
