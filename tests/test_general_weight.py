"""Crossed sets and rings over a weight that is a genuine monoid, not a
group: the two-element semilattice with trivial action.  Exercises label
multiplication without inverses through validation, classification, the
brute-force oracle, ring construction, and the embedding."""

from __future__ import annotations

import pytest

import gburnside as gb
from gburnside.classify import brute_force_basis, enumerate_basis
from gburnside.crossed import check_monoidal_axioms, transport_connected, unit_object
from gburnside.errors import WeightNotConjugation
from gburnside.gsets import GMonoid, Monoid
from gburnside.rings import crossed_burnside_ring, embedding_hom
from gburnside.sampling import sample_many

from conftest import dense_constants


@pytest.fixture
def semilattice_weight(c2) -> GMonoid:
    # join semilattice on {1, a}: a * a = a; the only bijective
    # unit-preserving endomorphism is the identity, so both morphisms of
    # C2 act trivially
    return GMonoid(
        c2,
        [Monoid([[0, 1], [1, 1]], 0)],
        [[0, 1], [0, 1]],
    ).validate()


def test_weight_validates(semilattice_weight):
    assert semilattice_weight.mul(0, 1, 1) == 1


def test_swap_action_rejected(c2):
    with pytest.raises(gb.errors.NotNatural):
        GMonoid(
            c2,
            [Monoid([[0, 1], [1, 1]], 0)],
            [[0, 1], [1, 0]],
        ).validate()


def test_basis_and_oracle_agree(c2, semilattice_weight):
    catalog = enumerate_basis(c2, semilattice_weight)
    assert catalog.dim == 4
    pairs = [
        (sorted(e.standard_pair[0]), e.standard_pair[1]) for e in catalog.entries
    ]
    assert pairs == [([0], 0), ([0], 1), ([0, 1], 0), ([0, 1], 1)]
    brute = brute_force_basis(c2, semilattice_weight, 2)
    assert len(brute) == 4


def test_ring_has_idempotent_label_class(c2, semilattice_weight):
    ring = crossed_burnside_ring(c2, semilattice_weight)
    assert ring.dim == 4
    assert ring.unit_vector == [0, 0, 1, 0]
    # the a-labeled point is idempotent: a * a = a, unlike any group label
    c = dense_constants(ring)
    assert c[3][3] == [0, 0, 0, 1]
    assert c[2][3] == [0, 0, 0, 1]


def test_embedding_still_injective(c2, semilattice_weight):
    hom = embedding_hom(c2, semilattice_weight)
    assert hom.verified["unital"]
    assert hom.verified["multiplicative"]
    assert hom.verified["injective"]


def test_axioms_hold_without_braiding(c2, semilattice_weight):
    samples = sample_many(c2, semilattice_weight, 40, seed=0)
    report = check_monoidal_axioms(samples)
    assert {r["axiom"] for r in report} == {"pentagon", "triangle", "distributivity"}
    assert all(r["status"] == "ok" for r in report)


def test_transport_refuses_non_conjugation_weight(c2, semilattice_weight):
    with pytest.raises(WeightNotConjugation):
        transport_connected(unit_object(c2, semilattice_weight), 0)
