"""Coordinates from the table of marks against the expand-and-decompose
reference route, on the whole acceptance corpus."""

from __future__ import annotations

from functools import partial

import pytest

import gburnside as gb
from gburnside import rings
from gburnside import classify
from gburnside.classify import (
    BasisCatalog,
    MarkTable,
    TransitivePiece,
    enumerate_basis,
    express_by_decomposition,
    express_in_basis,
    induced_crossed,
)
from gburnside.errors import MarksNotTriangular, UnmatchedPiece
from gburnside.gsets import GMap, GSet
from gburnside.rings import (
    burnside_ring,
    connected_reduction_hom,
    crossed_burnside_ring,
    crossed_burnside_ring_by_decomposition,
    decomposition_hom,
    embedding_hom,
    hadamard_ring,
    hadamard_ring_by_decomposition,
)
from gburnside.sampling import sample_many

from conftest import build_corpus, regular_gset
from oracles import (
    all_subgroups,
    decomposition_matrix,
    embedding_matrix,
    fixed_label_counts,
    mark_solve,
    pushforward_matrix,
    reduction_matrix,
)

CORPUS = build_corpus()
NAMES = sorted(CORPUS)


def assert_same_ring(fast, ref):
    assert fast.dim == ref.dim
    assert fast.basis_info == ref.basis_info
    for i in range(fast.dim):
        for j in range(fast.dim):
            assert fast.structure_constants[i][j] == ref.structure_constants[i][j], (i, j)
    assert fast.unit_vector == ref.unit_vector


class TestRoutesAgreeOnCorpus:
    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("weight", ["conjugation", "trivial"])
    def test_crossed_ring(self, name, weight):
        g = CORPUS[name]
        w = gb.conjugation_action(g) if weight == "conjugation" else gb.trivial_gmonoid(g)
        assert_same_ring(
            crossed_burnside_ring(g, w), crossed_burnside_ring_by_decomposition(g, w)
        )

    @pytest.mark.parametrize("name", NAMES)
    def test_burnside_ring(self, name):
        g = CORPUS[name]
        assert_same_ring(
            burnside_ring(g),
            crossed_burnside_ring_by_decomposition(g, gb.trivial_gmonoid(g)),
        )

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("over", ["conjugation", "regular"])
    def test_hadamard_ring(self, name, over):
        g = CORPUS[name]
        x = gb.conjugation_action(g).underlying() if over == "conjugation" else regular_gset(g)
        assert_same_ring(hadamard_ring(g, x), hadamard_ring_by_decomposition(g, x))

    # Each hom reads its columns off coset fibers; the carrier oracle builds
    # every source basis carrier, maps it and decomposes the image.

    @staticmethod
    def weights(g):
        return [gb.conjugation_action(g), gb.trivial_gmonoid(g)]

    @pytest.mark.parametrize("name", NAMES)
    def test_embedding_hom(self, name):
        g = CORPUS[name]
        for w in self.weights(g):
            hom = embedding_hom(g, w)
            assert hom.matrix == embedding_matrix(hom)

    @pytest.mark.parametrize("name", [n for n in NAMES if gb.is_connected(CORPUS[n])])
    @pytest.mark.parametrize("last", [False, True])
    def test_connected_reduction_hom(self, name, last):
        g = CORPUS[name]
        z = g.n_objects - 1 if last else 0
        for w in self.weights(g):
            hom = connected_reduction_hom(g, w, z)
            assert hom.matrix == reduction_matrix(hom, z)

    @pytest.mark.parametrize("name", NAMES)
    def test_decomposition_hom(self, name):
        g = CORPUS[name]
        for w in self.weights(g):
            hom = decomposition_hom(g, w)
            assert hom.matrix == decomposition_matrix(hom)

    @pytest.mark.parametrize("name", NAMES)
    def test_action_groupoid_pushforward(self, name):
        g = CORPUS[name]
        x = gb.conjugation_action(g).underlying()
        ag = gb.action_groupoid(g, x)
        hom = rings._ring_bijection(ag, x, burnside_ring(ag.groupoid), hadamard_ring(g, x))
        assert hom.matrix == pushforward_matrix(hom, ag, x)


def a4_on_points() -> gb.FiniteGroupoid:
    """The action groupoid of A4 on its 4 points: 4 objects, isotropy C3,
    48 morphisms."""
    a4 = gb.from_group(gb.group_table_from_perm_gens([[1, 2, 0, 3], [0, 2, 3, 1]]))
    stabilizer = next(h for h in all_subgroups(a4.compose_table) if len(h) == 3)
    points = induced_crossed(a4, gb.trivial_gmonoid(a4), 0, stabilizer, [0])[0].carrier
    return gb.action_groupoid(a4, points).groupoid


class TestNonCentralTransports:
    """In every corpus groupoid the transports leave weight positions where
    they are, so a basis whose labels were never moved along them would
    pass the corpus.  Over A4 on its points they move: the labels of every
    basis carrier must follow the conjugation action exactly."""

    def test_marks_equal_decomposition_and_reduction_verified(self):
        g = a4_on_points()
        assert (g.n_objects, len(g.morphisms), len(g.loops(0))) == (4, 48, 3)
        conj = gb.conjugation_action(g)
        assert any(conj.action[m] != [0, 1, 2] for m in g.morphisms)
        assert_same_ring(
            crossed_burnside_ring(g, conj), crossed_burnside_ring_by_decomposition(g, conj)
        )
        for z in g.objects:
            assert connected_reduction_hom(g, conj, z).verified == {
                "unital": True, "multiplicative": True, "bijective": True,
            }

    @pytest.mark.parametrize("weight", ["conjugation", "trivial"])
    def test_homs_equal_carrier_oracle_at_every_object(self, weight):
        # the reduction column moves each coset label along the transport
        # to z; a column that left the labels as they are at the
        # representative differs from the restricted carrier here
        g = a4_on_points()
        w = gb.conjugation_action(g) if weight == "conjugation" else gb.trivial_gmonoid(g)
        for z in g.objects:
            hom = connected_reduction_hom(g, w, z)
            assert hom.matrix == reduction_matrix(hom, z), z
        hom = decomposition_hom(g, w)
        assert hom.matrix == decomposition_matrix(hom)
        hom = embedding_hom(g, w)
        assert hom.matrix == embedding_matrix(hom)


class TestNoCarrierOnTheMarksRoute:
    @pytest.mark.parametrize("name", ["(C2xPair(2))+C3", "C2+S3", "D4"])
    def test_rings_induce_nothing_and_a_read_builds_one_carrier_per_class(
        self, name, monkeypatch
    ):
        g = CORPUS[name]
        conj = gb.conjugation_action(g)
        x = conj.underlying()
        calls = {"induce": 0, "GSet": 0, "GMap": 0}

        def counted(key, fn):
            def run(*args):
                calls[key] += 1
                return fn(*args)
            return run

        monkeypatch.setattr(classify, "induce", counted("induce", classify.induce))
        built = [crossed_burnside_ring(g, conj), hadamard_ring(g, x)]
        assert calls["induce"] == 0
        monkeypatch.setattr(GSet, "validate", counted("GSet", GSet.validate))
        monkeypatch.setattr(GMap, "validate", counted("GMap", GMap.validate))
        for ring in built:
            entries = ring.basis.entries
            for e in entries + entries:
                assert e.crossed is e.fiber.crossed[e.index]
            classes = len({id(e.fiber) for e in entries})
            assert calls == {"induce": classes, "GSet": classes, "GMap": len(entries)}
            calls.update(dict.fromkeys(calls, 0))

    def test_hom_builders_build_no_carrier(self, monkeypatch):
        g = CORPUS["C2+S3"]
        conj = gb.conjugation_action(g)
        x = conj.underlying()
        pair = CORPUS["C2xPair(2)"]
        calls = {"induce": 0, "crossed": 0}

        def counted(*args):
            calls["induce"] += 1
            return induce(*args)

        def read(piece):
            calls["crossed"] += 1

        induce = classify.induce
        monkeypatch.setattr(classify, "induce", counted)
        monkeypatch.setattr(TransitivePiece, "crossed", property(read))
        embedding_hom(g, conj)
        decomposition_hom(g, conj)
        connected_reduction_hom(pair, gb.conjugation_action(pair), 1)
        assert gb.action_groupoid_iso_check(g, x)["status"] == "ok"
        assert calls == {"induce": 0, "crossed": 0}


class TestMarkTable:
    def test_one_carrier_and_one_scan_per_subgroup_class(self, corpus, monkeypatch):
        g = corpus["C2+S3"]
        conj = gb.conjugation_action(g)
        validated = []
        validate = GSet.validate

        def counted(self):
            validated.append(self)
            return validate(self)

        monkeypatch.setattr(GSet, "validate", counted)
        scans = []
        fixed_by = classify.CosetFiber.fixed_by

        def scan(fiber, subgroup):
            scans.append((id(fiber), subgroup))
            return fixed_by(fiber, subgroup)

        monkeypatch.setattr(classify.CosetFiber, "fixed_by", scan)
        catalog = enumerate_basis(g, conj)
        entries = catalog.entries
        classes = {(e.component_rep, e.standard_pair[0]) for e in entries}
        marks = catalog.marks()
        # one scan per shared coset fiber and row subgroup at its component,
        # and no carrier built for the table
        assert len(scans) == len(set(scans)) == sum(
            len(marks.at_rep[rep]) for rep, _ in classes
        )
        assert validated == []
        # every class has a label (the unit), and several share a carrier,
        # built and validated once when the first of them is read
        assert len({id(e.fiber) for e in entries}) == len(classes) < catalog.dim
        for e in entries:
            for f in entries:
                same_class = (e.component_rep, e.standard_pair[0]) == (
                    f.component_rep, f.standard_pair[0])
                assert (e.crossed.carrier is f.crossed.carrier) == same_class
        assert len(validated) == len(classes)

    def test_diagonal_is_normalizer_index(self, s3):
        # S3 conjugation: (1, e) has diagonal 6; (C2, e) has |N(C2) : C2| = 1;
        # (C3, e) and (S3, e) have 2 and 1; (1, s) for a transposition s
        # has |Stab(s) : 1| = 2.
        catalog = enumerate_basis(s3, gb.conjugation_action(s3))
        marks = catalog.marks()
        diag = {
            (len(e.standard_pair[0]), e.standard_pair[1]): marks.diag[k]
            for k, e in enumerate(catalog.entries)
        }
        identity = s3.identity[0]
        assert diag[(1, s3.loops(0).index(identity))] == 6
        assert diag[(6, s3.loops(0).index(identity))] == 1
        assert all(v > 0 for v in marks.diag)
        assert all(k < j for j, col in enumerate(marks.above) for k, _ in col)

    def test_built_once(self, c2):
        catalog = enumerate_basis(c2, gb.conjugation_action(c2))
        assert catalog.marks() is catalog.marks()

    def test_out_of_order_catalog_rejected(self, s3):
        catalog = enumerate_basis(s3, gb.conjugation_action(s3))
        reversed_entries = list(reversed(catalog.entries))
        bad = BasisCatalog(s3, catalog.weight, reversed_entries)
        with pytest.raises(MarksNotTriangular):
            bad.marks()

    def test_duplicate_entry_rejected(self, c2):
        catalog = enumerate_basis(c2, gb.conjugation_action(c2))
        e = catalog.entries[0]
        with pytest.raises(MarksNotTriangular):
            MarkTable([e, e])

    def test_entry_whose_label_misses_its_fiber_rejected(self, c2):
        # every coset of the fiber carries label 0, so the row of label 1
        # gets no mark from its own entry
        fiber = classify.CosetFiber(c2, gb.trivial_gmonoid(c2), 0, frozenset({0}), [0])
        with pytest.raises(MarksNotTriangular) as raised:
            MarkTable([TransitivePiece(0, (frozenset({0}), 1), fiber, 0)])
        assert str(raised.value) == (
            "diagonal mark of basis entry 0 (component 0, subgroup [0], label 1) is not positive"
        )

    def test_non_integral_coordinate_names_entry(self, c2):
        catalog = enumerate_basis(c2, gb.conjugation_action(c2))
        marks = catalog.marks()
        phi = [0] * catalog.dim
        phi[0] = 1  # the free orbit has mark 2 under the trivial subgroup
        with pytest.raises(UnmatchedPiece, match="basis entry 0"):
            mark_solve(marks, phi)

    def test_negative_coordinate_rejected(self, c2):
        catalog = enumerate_basis(c2, gb.conjugation_action(c2))
        marks = catalog.marks()
        k = max(range(catalog.dim), key=lambda j: len(marks.above[j]))
        phi = [0] * catalog.dim
        phi[k] = marks.diag[k]  # coordinate 1 at k forces negative rows above
        with pytest.raises(UnmatchedPiece, match="coordinate -"):
            mark_solve(marks, phi)

    def test_piece_with_zero_marks_unmatched(self, c2):
        # without the free orbits every remaining row is a C2-mark, and the
        # free orbit has none: its marks solve to 0, which leaves it unaccounted
        conj = gb.conjugation_action(c2)
        catalog = enumerate_basis(c2, conj)
        fixed_only = BasisCatalog(c2, conj, catalog.entries[2:])
        with pytest.raises(UnmatchedPiece, match="account for 0 of 2"):
            express_in_basis(catalog.entries[0].crossed, fixed_only)

    def test_express_matches_reference_on_samples(self, corpus):
        g = corpus["C2+S3"]
        conj = gb.conjugation_action(g)
        catalog = enumerate_basis(g, conj)
        for c in sample_many(g, conj, 12, seed=9):
            assert express_in_basis(c, catalog) == express_by_decomposition(c, catalog)


# -- back-substitution against a plain dense oracle ---------------------------------

def mark_tables():
    """Every corpus catalog the rings solve in, with its mark combination:
    crossed under both weights, Hadamard over the conjugation and the
    regular G-sets."""
    for name in NAMES:
        g = CORPUS[name]
        for wname, weight in (("conjugation", gb.conjugation_action(g)),
                              ("trivial", gb.trivial_gmonoid(g))):
            yield (f"{name}|crossed|{wname}", enumerate_basis(g, weight),
                   rings._convolution(weight))
        for over, x in (("conjugation", gb.conjugation_action(g).underlying()),
                        ("regular", regular_gset(g))):
            yield f"{name}|hadamard|{over}", enumerate_basis(g, x), rings._meet


MARK_TABLES = list(mark_tables())


class TestCosetMarks:
    """The marks ``MarkTable`` reads off coset fibers against a fixed-point
    scan of every built, validated carrier."""

    CASES = [
        (key, catalog) for key, catalog, _ in MARK_TABLES
        if "|crossed|" in key or key in ("S3|hadamard|conjugation", "D4|hadamard|conjugation")
    ]

    @staticmethod
    def check(catalog):
        marks = catalog.marks()
        for j, e in enumerate(catalog.entries):
            e.crossed.validate()
            assert marks.totals[j] == e.fiber.total == e.crossed.carrier.total_size
            for s in marks.at_rep[e.component_rep]:
                want = fixed_label_counts(e.crossed, e.component_rep, marks.subgroups[s][1])
                assert marks.fixed[j].get(s, {}) == want, (j, s)

    @pytest.mark.parametrize("key, catalog", CASES, ids=[key for key, _ in CASES])
    def test_fiber_marks_match_carrier_scan(self, key, catalog):
        self.check(catalog)

    @pytest.mark.parametrize("weight", ["conjugation", "trivial"])
    def test_non_central_transports(self, weight):
        g = a4_on_points()
        w = gb.conjugation_action(g) if weight == "conjugation" else gb.trivial_gmonoid(g)
        self.check(enumerate_basis(g, w))


class DenseOracle:
    """The table of marks of a catalog as a dense matrix M[k][j] computed
    entry by entry, and plain back-substitution over every column."""

    def __init__(self, catalog):
        entries = catalog.entries
        self.d = len(entries)
        self.names = [
            f"(component {e.component_rep}, subgroup {sorted(e.standard_pair[0])}, "
            f"label {e.standard_pair[1]})"
            for e in entries
        ]
        # label_counts[j][k]: label -> mark of entry j under the subgroup of row k
        self.label_counts = [
            [
                fixed_label_counts(ej.crossed, ek.component_rep, ek.standard_pair[0])
                if ek.component_rep == ej.component_rep else {}
                for ek in entries
            ]
            for ej in entries
        ]
        self.row_label = [e.standard_pair[1] for e in entries]
        self.reps = [e.component_rep for e in entries]
        self.matrix = [
            [self.label_counts[j][k].get(self.row_label[k], 0) for j in range(self.d)]
            for k in range(self.d)
        ]

    def solve(self, phi):
        phi = list(phi)
        coords = [0] * self.d
        for j in range(self.d - 1, -1, -1):
            v = phi[j]
            if v == 0:
                continue
            diag = self.matrix[j][j]
            q, r = divmod(v, diag)
            if r or q < 0:
                raise UnmatchedPiece(
                    f"coordinate {v}/{diag} of basis entry {j} {self.names[j]} "
                    f"is not a non-negative integer"
                )
            coords[j] = q
            for k in range(j):
                phi[k] -= self.matrix[k][j] * q
        return coords

    def product(self, i, j, combine):
        if self.reps[i] != self.reps[j]:
            return [0] * self.d
        rep = self.reps[i]
        phi = [
            combine(rep, self.label_counts[i][k], self.label_counts[j][k]).get(
                self.row_label[k], 0
            )
            for k in range(self.d)
        ]
        return self.solve(phi)


def outcome(solve, phi):
    try:
        return "ok", solve(phi)
    except UnmatchedPiece as exc:
        return "unmatched", str(exc)


@pytest.mark.parametrize("key, catalog, combine", MARK_TABLES, ids=[t[0] for t in MARK_TABLES])
class TestBackSubstitution:
    def test_matrix_matches_table(self, key, catalog, combine):
        marks, oracle = catalog.marks(), DenseOracle(catalog)
        assert marks.diag == [oracle.matrix[j][j] for j in range(oracle.d)]
        for j, col in enumerate(marks.above):
            assert col == [(k, oracle.matrix[k][j]) for k in range(j) if oracle.matrix[k][j]]

    def test_every_product_matches_dense_oracle(self, key, catalog, combine):
        marks, oracle = catalog.marks(), DenseOracle(catalog)
        for i in range(oracle.d):
            for j in range(oracle.d):
                want = tuple((k, c) for k, c in enumerate(oracle.product(i, j, combine)) if c)
                assert marks.product(i, j, combine) == want, (i, j)

    def test_corrupted_marks_fail_like_oracle(self, key, catalog, combine):
        # column j of the table is the marks of entry j; bump, negate or drop
        # its diagonal mark, and the two solvers must agree on the outcome
        solve, oracle = partial(mark_solve, catalog.marks()), DenseOracle(catalog)
        for j in range(oracle.d):
            column = [oracle.matrix[k][j] for k in range(oracle.d)]
            for top in (column[j] + 1, -column[j], 0, 2 * column[j] - 1):
                phi = column[:j] + [top] + column[j + 1:]
                assert outcome(solve, phi) == outcome(oracle.solve, phi), (j, top)


def test_corruptions_reach_both_failures():
    # the corrupted vectors above include a non-divisible and a negative
    # coordinate with the message of the first failing column
    catalog = enumerate_basis(CORPUS["D4"], gb.conjugation_action(CORPUS["D4"]))
    solve, oracle = partial(mark_solve, catalog.marks()), DenseOracle(catalog)
    j = max(range(oracle.d), key=lambda k: oracle.matrix[k][k])
    column = [oracle.matrix[k][j] for k in range(oracle.d)]
    assert column[j] > 1
    bumped = column[:j] + [column[j] + 1] + column[j + 1:]
    kind, text = outcome(solve, bumped)
    assert kind == "unmatched" and f"{column[j] + 1}/{column[j]} of basis entry {j} " in text
    negated = column[:j] + [-column[j]] + column[j + 1:]
    kind, text = outcome(solve, negated)
    assert kind == "unmatched" and f"coordinate -{column[j]}/" in text
    assert outcome(solve, bumped) == outcome(oracle.solve, bumped)
