"""Crossed G-sets: validation, tensor/unit/coproduct, coherence maps, the
braiding over the conjugation weight, axiom checking, trivial labels, and
transport along the connected equivalence."""

from __future__ import annotations

import pytest

import gburnside as gb
import gburnside.crossed as crossed_module
from gburnside.classify import are_isomorphic, enumerate_basis, induced_crossed
from gburnside.crossed import (
    CrossedMap,
    associator,
    braiding,
    braiding_inverse,
    check_monoidal_axioms,
    compose_crossed_maps,
    crossed_coproduct,
    distributivity_iso,
    empty_crossed,
    identity_crossed_map,
    restrict,
    tensor,
    transport_restrict,
    unit_object,
)
from gburnside.errors import (
    BaseMismatch,
    NotConnected,
    NotNatural,
    WeightMismatch,
    WeightNotConjugation,
)
from gburnside.sampling import sample_many

from conftest import regular_gset, fixed_points_gset
from oracles import (
    all_subgroups,
    coherence_isos,
    hexagon_by_maps,
    invert_crossed_map,
    left_unitor,
    right_unitor,
    sampled_pentagon_and_triangle,
    symmetry_by_maps,
    transport_connected,
    transport_induce,
    transports,
    trivial_label_embed,
    underlying_gset,
    unitor_braiding_by_maps,
    validate_crossed,
)


def axiom_major_report(samples):
    """check_monoidal_axioms in axiom-major order: the weight laws, then
    every window of one axiom family before the next family.  The
    reference for the window-major checker, which must give the same
    report."""
    pentagon, triangle = crossed_module._weight_laws(samples[0].weight)
    report = [
        {"axiom": name, "status": "ok" if w is None else {"witness": w}}
        for name, w in (("pentagon", pentagon), ("triangle", triangle))
    ]
    families = [("distributivity", 3, lambda w: crossed_module._distributivity(*w))]
    loops = gb.gsets.conjugation_loops(samples[0].weight)
    if loops is not None:
        families += [
            ("symmetry", 2, lambda w: crossed_module._symmetry(loops, *w)),
            ("hexagon", 3, lambda w: crossed_module._hexagon(loops, *w)),
            ("unitor-braiding", 1, lambda w: crossed_module._unitor_braiding(loops, *w)),
        ]
    n = len(samples)
    for name, arity, run in families:
        status = "ok"
        for i in range(n):
            witness = run([samples[(i + j) % n] for j in range(arity)])
            if witness is not None:
                witness["window"] = [(i + j) % n for j in range(arity)]
                status = {"witness": witness}
                break
        report.append({"axiom": name, "status": status})
    return report


def corrupt_when_first(monkeypatch, samples, k):
    """Corrupt the braiding components (so ``braiding`` too) and the
    distributivity map exactly when their first operand is samples[k]: the
    braiding swaps two images, and the distributivity map sends two
    elements to one image."""
    good_braid = crossed_module._braid
    good_distributivity = crossed_module.distributivity_iso

    def first_long(components):
        return next((c for c in components if len(c) >= 2), None)

    def bad_braid(loops, a, b):
        comps = good_braid(loops, a, b)
        comp = first_long(comps) if a is samples[k] else None
        if comp is not None:
            comp[0], comp[1] = comp[1], comp[0]
        return comps

    def bad_distributivity(a, b, c):
        m = good_distributivity(a, b, c)
        comp = first_long(m.components) if a is samples[k] else None
        if comp is not None:
            comp[1] = comp[0]
        return m

    monkeypatch.setattr(crossed_module, "_braid", bad_braid)
    monkeypatch.setattr(crossed_module, "distributivity_iso", bad_distributivity)


def c1_labeled(table):
    """Over the trivial group, one singleton crossed set per label in
    0..n-1 of a weight with one monoid, which is not validated."""
    g = gb.from_group([[0]])
    weight = gb.GMonoid(g, [gb.Monoid(table, 0)], [list(range(len(table)))])
    labeled = [
        gb.CrossedGSet(gb.terminal_gset(g), weight, [[a]]).validate()
        for a in range(len(table))
    ]
    return labeled


@pytest.fixture
def c2_conj(c2):
    return gb.conjugation_action(c2)


@pytest.fixture
def c2_basis(c2, c2_conj):
    return enumerate_basis(c2, c2_conj)


class TestValidateCrossed:
    def test_unit_labels_always_valid(self, corpus):
        for name in ("C2", "S3", "C2+S3"):
            g = corpus[name]
            conj = gb.conjugation_action(g)
            x = gb.terminal_gset(g)
            validate_crossed(x, conj, [[conj.unit(o)] for o in g.objects])

    def test_identity_labeling_of_regular_not_natural(self, c2, c2_conj):
        # theta(x) = x fails: theta(sigma . e) = sigma but sigma e sigma^-1 = e
        x = regular_gset(c2)
        with pytest.raises(NotNatural):
            validate_crossed(x, c2_conj, [[0, 1]])

    def test_constant_sigma_labeling_valid(self, c2, c2_conj):
        x = regular_gset(c2)
        validate_crossed(x, c2_conj, [[1, 1]])

    def test_map_equality_sees_the_target(self, c2, c2_conj):
        unit = unit_object(c2, c2_conj)
        inclusion = CrossedMap(unit, crossed_coproduct(unit, unit), [[0]]).validate()
        assert identity_crossed_map(unit) == identity_crossed_map(unit)
        assert identity_crossed_map(unit) != inclusion

    def test_weight_mismatch_in_maps(self, c2, c2_conj):
        a = unit_object(c2, c2_conj)
        b = unit_object(c2, gb.trivial_gmonoid(c2))
        with pytest.raises(WeightMismatch):
            tensor(a, b)


class TestTensorUnit:
    def test_point_labels_multiply(self, c2, c2_conj):
        pt_sigma = validate_crossed(gb.terminal_gset(c2), c2_conj, [[1]])
        prod = tensor(pt_sigma, pt_sigma).validate()
        assert prod.label == [[0]]  # sigma * sigma = e

    def test_tensor_with_unit_keeps_labels(self, c2, c2_conj, c2_basis):
        c = c2_basis.entries[1].crossed  # free orbit labeled sigma
        prod = tensor(c, unit_object(c2, c2_conj)).validate()
        assert prod.label == c.label

    def test_s3_point_labels_compose_in_table(self, s3, s3_perms):
        conj = gb.conjugation_action(s3)
        t12 = next(
            k for k, p in enumerate(s3_perms)
            if sum(1 for i, v in enumerate(p) if v != i) == 2
        )
        # single fixed point cannot carry a non-central label; verify the
        # label arithmetic on the weight directly instead
        t13 = next(
            k for k, p in enumerate(s3_perms)
            if sum(1 for i, v in enumerate(p) if v != i) == 2 and k != t12
        )
        assert conj.monoids[0].table[t12][t13] == s3.compose_table[t12][t13]

    def test_nested_tensor_labels_multiply_in_the_weight(self, s3):
        conj = gb.conjugation_action(s3)
        samples = sample_many(s3, conj, 6, seed=5)
        for a, b in zip(samples, samples[1:]):
            t = tensor(tensor(a, b), a)
            ab = [conj.monoids[0].table[p][q] for p in a.label[0] for q in b.label[0]]
            assert type(t) is gb.CrossedGSet
            assert vars(t)["label"] == [[conj.monoids[0].table[p][q] for p in ab for q in a.label[0]]]

    @pytest.mark.parametrize("build", [
        tensor, crossed_coproduct, gb.gset_product, gb.gset_coproduct,
    ], ids=lambda f: f.__name__)
    def test_products_are_proved_only_by_validate(self, c2, c2_conj, build):
        if build in (tensor, crossed_coproduct):
            bad = gb.CrossedGSet(regular_gset(c2), c2_conj, [[0, 1]])  # not natural
            good = unit_object(c2, c2_conj)
        else:
            bad = gb.GSet(c2, [2], [[1, 0], [1, 0]])  # the identity swaps
            good = regular_gset(c2)
        built = build(bad, good)
        with pytest.raises(NotNatural):
            built.validate()
        assert build(good, good).validate() == build(good, good)

    def test_gset_weight_fails_at_the_tensor_call(self, c2, c2_conj):
        weight = underlying_gset(c2_conj)
        c = validate_crossed(gb.terminal_gset(c2), weight, [[1]])
        with pytest.raises(AttributeError, match="monoids"):
            tensor(c, c)

    def test_unit_object_kept_on_its_weight(self, s3, c2):
        conj = gb.conjugation_action(s3)
        u = unit_object(s3, conj)
        assert unit_object(s3, conj) is u
        twin = gb.GMonoid(s3, list(conj.monoids), list(conj.action))
        assert twin == conj
        v = unit_object(s3, twin)
        assert v is not u and v.weight is twin and v == u
        with pytest.raises(BaseMismatch):
            unit_object(c2, conj)

    def test_unit_object_shapes(self, corpus):
        g = corpus["Pair(3)"]
        u = unit_object(g, gb.conjugation_action(g))
        assert [u.carrier.size(x) for x in g.objects] == [1, 1, 1]
        assert u.label == [[0], [0], [0]]

    def test_coproduct_labels(self, c2, c2_conj):
        a = validate_crossed(gb.terminal_gset(c2), c2_conj, [[1]])
        b = unit_object(c2, c2_conj)
        both = crossed_coproduct(a, b).validate()
        assert both.label == [[1, 0]]

    def test_coproduct_with_empty_is_isomorphic(self, c2, c2_conj, c2_basis):
        c = c2_basis.entries[0].crossed
        z = crossed_coproduct(c, empty_crossed(c2, c2_conj)).validate()
        assert are_isomorphic(c, z) is not None


class TestCoherence:
    def test_maps_are_isomorphisms(self, c2_basis):
        e = c2_basis.entries
        isos = coherence_isos(e[0].crossed, e[1].crossed, e[3].crossed)
        for m in (isos.associator, isos.left_unitor, isos.right_unitor):
            assert m.is_isomorphism()

    def test_unitor_formulas_pointwise(self, c2, c2_conj, c2_basis):
        c = c2_basis.entries[1].crossed
        l = left_unitor(c).validate()
        # (1, x) at flattened index x maps to x
        assert l.components == [[0, 1]]
        r = right_unitor(c).validate()
        assert r.components == [[0, 1]]

    def test_associator_on_singletons(self, c2, c2_conj):
        pt = unit_object(c2, c2_conj)
        a = associator(pt, pt, pt).validate()
        assert a.components == [[0]]

    def test_associator_label_check_uses_weight_associativity(self, c2_basis):
        e = c2_basis.entries
        a = associator(e[0].crossed, e[1].crossed, e[3].crossed)
        a.validate()


class TestBraiding:
    def test_unit_labels_give_plain_swap(self, c2, c2_conj, c2_basis):
        x = c2_basis.entries[0].crossed  # free orbit, labels e
        y = c2_basis.entries[2].crossed  # fixed point, label e
        eta = braiding(x, y).validate()
        # X x Y with |Y|=1: (i, 0) -> (0, i): flattened i -> i
        assert eta.components == [[0, 1]]

    def test_sigma_label_acts_on_second_factor(self, c2, c2_conj, c2_basis):
        c_sigma = c2_basis.entries[1].crossed  # free orbit, labels sigma
        c_e = c2_basis.entries[0].crossed      # free orbit, labels e
        eta = braiding(c_sigma, c_e).validate()
        # hand expansion: (x_i, y_j) -> (sigma.y_j, x_i)
        assert eta.components == [[2, 0, 3, 1]]

    def test_inverse_formula(self, s3):
        conj = gb.conjugation_action(s3)
        basis = enumerate_basis(s3, conj)
        for a in basis.entries[:4]:
            for b in basis.entries[:4]:
                eta = braiding(a.crossed, b.crossed).validate()
                tau = braiding_inverse(a.crossed, b.crossed).validate()
                # the explicit inverse formula really is the inverse map
                assert invert_crossed_map(eta).components == tau.components
                src = tensor(a.crossed, b.crossed)
                assert (
                    compose_crossed_maps(tau, eta).components
                    == identity_crossed_map(src).components
                )
                tgt = tensor(b.crossed, a.crossed)
                assert (
                    compose_crossed_maps(eta, tau).components
                    == identity_crossed_map(tgt).components
                )

    def test_requires_conjugation_weight(self, c2):
        triv = gb.trivial_gmonoid(c2)
        a = unit_object(c2, triv)
        with pytest.raises(WeightNotConjugation):
            braiding(a, a)

    def test_trivial_group_trivial_weight_is_conjugation(self):
        g = gb.from_group([[0]])
        a = unit_object(g, gb.trivial_gmonoid(g))
        braiding(a, a).validate()  # conjugation of the trivial group is trivial


class TestAxiomChecker:
    def test_basis_samples_pass(self, c2, c2_conj, c2_basis):
        samples = [e.crossed for e in c2_basis.entries]
        report = check_monoidal_axioms(samples)
        assert all(r["status"] == "ok" for r in report)
        assert {r["axiom"] for r in report} == {
            "pentagon", "triangle", "distributivity",
            "symmetry", "hexagon", "unitor-braiding",
        }

    def test_trivial_weight_skips_braiding_axioms(self, s3):
        triv = gb.trivial_gmonoid(s3)
        samples = [e.crossed for e in enumerate_basis(s3, triv).entries]
        report = check_monoidal_axioms(samples)
        assert {r["axiom"] for r in report} == {
            "pentagon", "triangle", "distributivity",
        }
        assert all(r["status"] == "ok" for r in report)

    def test_random_samples_pass(self, corpus):
        g = corpus["C2+S3"]
        samples = sample_many(g, gb.conjugation_action(g), 20, seed=7)
        report = check_monoidal_axioms(samples)
        assert all(r["status"] == "ok" for r in report)

    def test_non_associative_weight_fails_pentagon(self):
        # unital, but (1*1)*2 = 2 and 1*(1*2) = 1
        labeled = c1_labeled([[0, 1, 2], [1, 0, 0], [2, 0, 0]])
        samples = [labeled[1], labeled[1], labeled[2]]
        status = {r["axiom"]: r["status"] for r in check_monoidal_axioms(samples)}
        assert status == {
            "pentagon": {"witness": {"object": 0, "elements": [1, 1, 2]}},
            "triangle": "ok",
            "distributivity": "ok",
        }
        assert sampled_pentagon_and_triangle(samples) == {"pentagon": False, "triangle": True}

    def test_one_sided_unit_fails_triangle(self):
        # x*y = y: associative, and 0 is a left unit only (1*0 = 0)
        labeled = c1_labeled([[0, 1], [0, 1]])
        status = {r["axiom"]: r["status"] for r in check_monoidal_axioms(labeled)}
        assert status == {
            "pentagon": "ok",
            "triangle": {"witness": {"object": 0, "elements": [1]}},
            "distributivity": "ok",
        }
        assert sampled_pentagon_and_triangle(labeled) == {"pentagon": True, "triangle": False}

    @pytest.mark.parametrize("weight", ["conjugation", "trivial"])
    def test_weight_laws_agree_with_sampled_composites(self, corpus, weight):
        assert len(corpus) == 13
        for name, g in corpus.items():
            s = gb.conjugation_action(g) if weight == "conjugation" else gb.trivial_gmonoid(g)
            samples = sample_many(g, s, 6, seed=11)
            report = {r["axiom"]: r["status"] == "ok" for r in check_monoidal_axioms(samples)}
            assert sampled_pentagon_and_triangle(samples) == {
                "pentagon": report["pentagon"], "triangle": report["triangle"],
            }, name

    def test_empty_sample_list(self):
        report = check_monoidal_axioms([])
        assert all(r["status"] == "ok" for r in report)

    @pytest.mark.parametrize("k", [0, 3, 7])
    def test_corruption_reported_in_its_own_window(self, s3, monkeypatch, k):
        # Only braidings whose first operand is samples[k] are corrupted;
        # the symmetry check braids the first operand of its window.
        samples = sample_many(s3, gb.conjugation_action(s3), 8, seed=3)
        corrupt_when_first(monkeypatch, samples, k)
        report = check_monoidal_axioms(samples)
        symmetry = next(r for r in report if r["axiom"] == "symmetry")
        assert symmetry["status"]["witness"]["window"] == [k, (k + 1) % 8]

    @pytest.mark.parametrize("name, weight, k", [
        ("S3", "conjugation", 0),
        ("S3", "conjugation", 3),
        ("S3", "conjugation", 7),
        ("C2+S3", "conjugation", 1),
        ("C2+S3", "conjugation", 4),
        ("C2+S3", "conjugation", 6),
        ("C2+S3", "trivial", 2),
        ("C2+S3", "trivial", 5),
    ])
    def test_window_major_report_matches_axiom_major(self, corpus, monkeypatch, name, weight, k):
        g = corpus[name]
        s = gb.conjugation_action(g) if weight == "conjugation" else gb.trivial_gmonoid(g)
        samples = sample_many(g, s, 8, seed=3)
        assert check_monoidal_axioms(samples) == axiom_major_report(samples)
        corrupt_when_first(monkeypatch, samples, k)
        report = check_monoidal_axioms(samples)
        assert any(r["status"] != "ok" for r in report)
        assert report == axiom_major_report(samples)

    def test_families_fail_in_their_own_windows(self, s3, monkeypatch):
        samples = sample_many(s3, gb.conjugation_action(s3), 8, seed=3)
        corrupt_when_first(monkeypatch, samples, 3)
        report = check_monoidal_axioms(samples)
        windows = {r["axiom"]: r["status"]["witness"]["window"] for r in report
                   if r["status"] != "ok"}
        # every corrupted map takes the window's first operand first; the
        # unitor-braiding triangle braids the unit object, never samples[3]
        assert windows == {
            "distributivity": [3, 4, 5], "symmetry": [3, 4], "hexagon": [3, 4, 5],
        }

    def test_component_windows_match_the_map_windows(self, corpus, monkeypatch):
        families = [
            (2, crossed_module._symmetry, symmetry_by_maps),
            (3, crossed_module._hexagon, hexagon_by_maps),
            (1, crossed_module._unitor_braiding, unitor_braiding_by_maps),
        ]
        witnesses = 0
        for name, g in corpus.items():
            samples = sample_many(g, gb.conjugation_action(g), 6, seed=13)
            loops = gb.gsets.conjugation_loops(samples[0].weight)
            n = len(samples)
            for corrupt in (False, True):
                if corrupt:
                    corrupt_when_first(monkeypatch, samples, 1)
                for arity, by_components, by_maps in families:
                    for i in range(n):
                        window = [samples[(i + j) % n] for j in range(arity)]
                        got = by_components(loops, *window)
                        assert got == by_maps(*window), (name, corrupt, arity, i)
                        witnesses += got is not None
                monkeypatch.undo()
        assert witnesses > 0

    def test_a_braiding_short_of_an_image_fails_every_family(self, s3, corpus, monkeypatch):
        # zipping the component lists passed a map missing its last images:
        # unitor-braiding reported ok, and symmetry and hexagon raised
        # IndexError where a composite looked up an image that was not there
        good_braid = crossed_module._braid

        def short_braid(loops, a, b):
            comps = good_braid(loops, a, b)
            for c in comps:
                if c:
                    c.pop()
                    break
            return comps

        monkeypatch.setattr(crossed_module, "_braid", short_braid)
        samples = sample_many(s3, gb.conjugation_action(s3), 8, seed=3)
        status = {r["axiom"]: r["status"] for r in check_monoidal_axioms(samples)}
        assert status == {
            "pentagon": "ok", "triangle": "ok", "distributivity": "ok",
            "symmetry": {"witness": {
                "object": 0, "element": 5, "lhs_image": None, "rhs_image": 5, "window": [0, 1],
            }},
            "hexagon": {"witness": {
                "object": 0, "element": 4, "lhs_image": 12, "rhs_image": 8, "window": [0, 1, 2],
            }},
            "unitor-braiding": {"witness": {
                "object": 0, "element": 1, "lhs_image": None, "rhs_image": 1, "window": [0],
            }},
        }
        # no window raises; the hexagon compares two braidings, which may
        # both miss the same image, the other two compare with identities
        for name, g in corpus.items():
            samples = sample_many(g, gb.conjugation_action(g), 6, seed=3)
            report = check_monoidal_axioms(samples)
            failed = {r["axiom"] for r in report if r["status"] != "ok"}
            assert {"symmetry", "unitor-braiding"} <= failed, name

    @pytest.mark.parametrize("name, n", [("S3", 5), ("C2+S3", 8), ("C2xPair(2)", 7)])
    def test_the_checker_tensors_four_times_per_window(self, corpus, monkeypatch, name, n):
        # 3 products per distributivity window and Y (x) Z per hexagon
        # window; the braiding families build no map, so every map is a
        # distributivity map
        g = corpus[name]
        samples = sample_many(g, gb.conjugation_action(g), n, seed=17)
        counts = {"tensor": 0, "CrossedMap": 0}

        def counting(key, fn):
            def counted(*args):
                counts[key] += 1
                return fn(*args)
            return counted

        for key in counts:
            monkeypatch.setattr(crossed_module, key, counting(key, getattr(crossed_module, key)))
        report = check_monoidal_axioms(samples)
        assert all(r["status"] == "ok" for r in report)
        assert counts == {"tensor": 4 * n, "CrossedMap": n}

class TestDistributivity:
    def test_iso_is_crossed_map(self, c2_basis):
        e = c2_basis.entries
        d = distributivity_iso(e[0].crossed, e[1].crossed, e[3].crossed).validate()
        assert d.is_isomorphism()

    def test_commutes_with_orbit_decomposition(self, c2, c2_conj, c2_basis):
        x = c2_basis.entries[1].crossed
        y = c2_basis.entries[0].crossed
        z = c2_basis.entries[2].crossed
        lhs = tensor(x, crossed_coproduct(y, z)).validate()
        rhs = crossed_coproduct(tensor(x, y), tensor(x, z)).validate()
        assert are_isomorphic(lhs, rhs) is not None


def _ids(c):
    return [list(range(n)) for n in c.carrier.sizes]


def _pairs(xs, ys):
    return [[(a, b) for a in xo for b in yo] for xo, yo in zip(xs, ys)]


def _tagged(xs, ys):
    return [[(0, a) for a in xo] + [(1, b) for b in yo] for xo, yo in zip(xs, ys)]


def _looked_up(source_labels, target_labels, relabel):
    out = []
    for src, tgt in zip(source_labels, target_labels):
        index = {lab: i for i, lab in enumerate(tgt)}
        assert len(index) == len(tgt)
        out.append([index[relabel(lab)] for lab in src])
    return out


def label_lookup_oracle(cx, cy, cz):
    """The coherence maps for (x, y, z) found by label lookup: every element
    gets an explicit label (a pair in a product, a tagged pair (0, a) or
    (1, b) in a coproduct), each source label is rewritten as the map
    says and looked up among the target's labels."""
    x, y, z = _ids(cx), _ids(cy), _ids(cz)
    unit = [[0] for _ in x]
    return {
        "associator": _looked_up(
            _pairs(_pairs(x, y), z), _pairs(x, _pairs(y, z)),
            lambda lab: (lab[0][0], (lab[0][1], lab[1])),
        ),
        "left_unitor": _looked_up(_pairs(unit, x), x, lambda lab: lab[1]),
        "right_unitor": _looked_up(_pairs(x, unit), x, lambda lab: lab[0]),
        "distributivity": _looked_up(
            _pairs(x, _tagged(y, z)), _tagged(_pairs(x, y), _pairs(x, z)),
            lambda lab: (lab[1][0], (lab[0], lab[1][1])),
        ),
    }


class TestCoherenceAgainstLabelLookup:
    @pytest.mark.parametrize("validated", [True, False])
    @pytest.mark.parametrize("weight", ["conjugation", "trivial"])
    @pytest.mark.parametrize("name", ["C2", "S3", "C2+S3", "(C2xPair(2))+C3"])
    def test_components_equal_the_oracle(self, corpus, name, weight, validated):
        g = corpus[name]
        s = gb.conjugation_action(g) if weight == "conjugation" else gb.trivial_gmonoid(g)
        samples = sample_many(g, s, 8, seed=2)
        assert any(c.carrier.total_size > 1 for c in samples)
        for i in range(len(samples)):
            cx, cy, cz = (samples[(i + j) % len(samples)] for j in range(3))
            expected = label_lookup_oracle(cx, cy, cz)
            got = {
                "associator": associator(cx, cy, cz),
                "left_unitor": left_unitor(cx),
                "right_unitor": right_unitor(cx),
                "distributivity": distributivity_iso(cx, cy, cz),
            }
            for key, m in got.items():
                if validated:
                    m.validate()
                assert m.components == expected[key], (key, i)


class TestTrivialLabelEmbed:
    def test_terminal_gives_unit_object(self, c2, c2_conj):
        f = trivial_label_embed(gb.terminal_gset(c2), c2_conj)
        assert f == unit_object(c2, c2_conj)

    def test_regular_orbit_unit_labels(self, c2, c2_conj):
        f = trivial_label_embed(regular_gset(c2), c2_conj)
        assert f.label == [[0, 0]]

    def test_monoidal_on_products(self, s3):
        conj = gb.conjugation_action(s3)
        x = regular_gset(s3)
        y = fixed_points_gset(s3, 2)
        lhs = trivial_label_embed(gb.gset_product(x, y), conj)
        rhs = tensor(trivial_label_embed(x, conj), trivial_label_embed(y, conj)).validate()
        assert lhs.label == rhs.label
        assert lhs.carrier.action == rhs.carrier.action

    def test_forgetting_labels_recovers_gset(self, s3):
        conj = gb.conjugation_action(s3)
        x = regular_gset(s3)
        assert trivial_label_embed(x, conj).carrier is x


class TestTransport:
    def test_one_object_identity(self, s3):
        conj = gb.conjugation_action(s3)
        c = enumerate_basis(s3, conj).entries[1].crossed
        data = transport_connected(c, 0)
        assert data.restricted.carrier.action == c.carrier.action
        assert data.restricted.label == c.label
        assert data.induced.label == c.label
        assert data.round_trip_iso.is_isomorphism()

    def test_c2_pair2_restriction_halves_carrier(self, corpus):
        g = corpus["C2xPair(2)"]
        conj = gb.conjugation_action(g)
        c = enumerate_basis(g, conj).entries[0].crossed
        assert c.carrier.total_size == 4
        data = transport_connected(c, 0)
        assert data.restricted.carrier.total_size == 2
        assert data.round_trip_iso.is_isomorphism()

    def test_restrict_then_induce_other_object(self, corpus):
        g = corpus["C2xPair(2)"]
        conj = gb.conjugation_action(g)
        for entry in enumerate_basis(g, conj).entries:
            data = transport_connected(entry.crossed, 1)
            data.round_trip_iso.validate()

    def test_tensor_compatibility_restriction(self, corpus):
        g = corpus["C2xPair(2)"]
        conj = gb.conjugation_action(g)
        entries = enumerate_basis(g, conj).entries
        c1, c2_ = entries[0].crossed, entries[3].crossed
        lhs = transport_restrict(tensor(c1, c2_).validate(), 0)
        rhs = tensor(transport_restrict(c1, 0), transport_restrict(c2_, 0)).validate()
        assert lhs.label == rhs.label
        assert lhs.carrier.action == rhs.carrier.action

    def test_unit_and_coproduct_compatibility(self, corpus):
        g = corpus["C2xPair(2)"]
        conj = gb.conjugation_action(g)
        iso, _ = gb.isotropy_group(g, 1)
        restricted_unit = transport_restrict(unit_object(g, conj), 1)
        assert restricted_unit == unit_object(iso, gb.conjugation_action(iso))
        entries = enumerate_basis(g, conj).entries
        a, b = entries[0].crossed, entries[2].crossed
        lhs = transport_restrict(crossed_coproduct(a, b).validate(), 1)
        rhs = crossed_coproduct(
            transport_restrict(a, 1), transport_restrict(b, 1)
        ).validate()
        assert lhs.label == rhs.label
        assert lhs.carrier.action == rhs.carrier.action
        # the restricted conjugation weight is the isotropy group's own,
        # element by element, at every object of every corpus groupoid
        for h in corpus.values():
            conj_h = gb.conjugation_action(h)
            for z in h.objects:
                iso_z, _ = gb.isotropy_group(h, z)
                assert restrict(conj_h, z) == gb.conjugation_action(iso_z)

    def test_tensor_compatibility_induction(self, corpus):
        g = corpus["C2xPair(2)"]
        iso, _ = gb.isotropy_group(g, 0)
        conj_z = gb.conjugation_action(iso)
        entries = enumerate_basis(iso, conj_z).entries
        a, b = entries[1].crossed, entries[3].crossed
        conj = gb.conjugation_action(g)
        lhs = transport_induce(tensor(a, b).validate(), conj, 0)
        rhs = tensor(transport_induce(a, conj, 0), transport_induce(b, conj, 0)).validate()
        assert are_isomorphic(lhs, rhs) is not None

    def test_induce_refuses_another_weight(self, corpus):
        g = corpus["C2xPair(2)"]
        iso, _ = gb.isotropy_group(g, 0)
        cz = unit_object(iso, gb.conjugation_action(iso))
        transport_induce(cz, gb.conjugation_action(g), 0)
        with pytest.raises(WeightMismatch):
            transport_induce(cz, gb.trivial_gmonoid(g), 0)

    @pytest.mark.parametrize(
        "weight_of", [gb.conjugation_action, gb.trivial_gmonoid], ids=["conjugation", "trivial"]
    )
    def test_round_trip_on_the_connected_corpus(self, corpus, weight_of):
        connected = [g for g in corpus.values() if gb.is_connected(g)]
        assert len(connected) == 11
        for g in connected:
            weight = weight_of(g)
            for z in g.objects:
                for entry in enumerate_basis(g, weight).entries:
                    data = transport_connected(entry.crossed, z)
                    data.round_trip_iso.validate()
                    assert data.round_trip_iso.is_isomorphism()
                    assert data.restricted.weight == restrict(weight, z)

    def test_round_trip_with_non_central_transports(self):
        # S4 acting on the cosets of a point stabilizer: a connected action
        # groupoid whose transports conjugate the isotropy S3 non-trivially,
        # so induced labels must follow the conjugation action exactly
        s4 = gb.from_group(gb.group_table_from_perm_gens([[1, 0, 2, 3], [1, 2, 3, 0]]))
        sub = next(h for h in all_subgroups(s4.compose_table) if len(h) == 6)
        cosets = induced_crossed(s4, gb.trivial_gmonoid(s4), 0, sub, [0])[0].carrier
        g = gb.action_groupoid(s4, cosets).groupoid
        conj = gb.conjugation_action(g)
        t = transports(g, 0)
        assert any(conj.action[t[y]] != conj.action[g.inverse[t[y]]] for y in g.objects)
        for entry in enumerate_basis(g, conj).entries:
            for z in g.objects:
                data = transport_connected(entry.crossed, z)
                data.round_trip_iso.validate()
                assert data.round_trip_iso.is_isomorphism()

    def test_not_connected(self, corpus):
        g = corpus["C2+S3"]
        conj = gb.conjugation_action(g)
        c = unit_object(g, conj)
        with pytest.raises(NotConnected):
            transport_connected(c, 0)
