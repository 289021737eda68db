"""The seeded crossed-set sampler: validity, caps, reproducibility."""

from __future__ import annotations

import pytest

import gburnside as gb
from gburnside import sampling
from gburnside.sampling import sample_many


@pytest.mark.parametrize("name", ["C2", "S3", "C2+S3", "C2xPair(2)", "Pair(3)"])
@pytest.mark.parametrize("weight_kind", ["conjugation", "trivial"])
def test_samples_are_valid(corpus, name, weight_kind):
    g = corpus[name]
    weight = (
        gb.conjugation_action(g)
        if weight_kind == "conjugation"
        else gb.trivial_gmonoid(g)
    )
    for c in sample_many(g, weight, 15, seed=1):
        c.validate()
        assert all(c.carrier.size(x) <= 5 for x in g.objects)


def test_same_seed_same_samples(s3):
    conj = gb.conjugation_action(s3)
    a = sample_many(s3, conj, 10, seed=42)
    b = sample_many(s3, conj, 10, seed=42)
    assert [c.label for c in a] == [c.label for c in b]
    assert [c.carrier.action for c in a] == [c.carrier.action for c in b]


def test_different_seeds_differ(s3):
    conj = gb.conjugation_action(s3)
    a = sample_many(s3, conj, 12, seed=0)
    b = sample_many(s3, conj, 12, seed=1)
    assert [c.label for c in a] != [c.label for c in b]


def test_sampler_reaches_nontrivial_labels(s3):
    conj = gb.conjugation_action(s3)
    samples = sample_many(s3, conj, 30, seed=5)
    assert any(
        any(v != conj.unit(0) for v in c.label[0]) for c in samples
    )



def test_each_piece_induced_once_and_never_shared(corpus, monkeypatch):
    g = corpus["C2+S3"]
    conj = gb.conjugation_action(g)
    induce = sampling.induced_crossed
    pieces = {}

    def counted(g, weight, rep, subgroup, label_values):
        (label_value,) = label_values
        key = (rep, subgroup, label_value)
        assert key not in pieces
        (pieces[key],) = induce(g, weight, rep, subgroup, label_values)
        return [pieces[key]]

    monkeypatch.setattr(sampling, "induced_crossed", counted)
    samples = sample_many(g, conj, 30, seed=0)
    assert len(pieces) > 1
    # samples own their lists: none is a list of a cached piece
    piece_lists = {
        id(lst) for p in pieces.values()
        for lst in (p.carrier.sizes, *p.carrier.action, *p.label)
    }
    for c in samples:
        c.validate()
        lists = (c.carrier.sizes, *c.carrier.action, *c.label)
        assert not piece_lists & {id(lst) for lst in lists}
