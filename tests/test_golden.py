"""Byte-identical CLI output for the ring commands and the axiom checker on
the acceptance corpus.

``golden_digests.json`` holds the SHA-256 of the JSON report of
``burnside``, ``crossed-burnside --weight conjugation``,
``crossed-burnside --weight trivial``, ``hadamard`` over the conjugation
G-set, ``verify axioms --samples 30 --seed 0`` under both weights,
``verify decomposition`` and ``verify embedding`` under both weights, for
every corpus groupoid, and ``verify reduction`` at the first and the last
object of every connected corpus groupoid (under the trivial weight at the
first object only).  It also holds the SHA-256 of
the ``--format table`` output of the four ring commands, of ``verify
axioms --samples 30 --seed 0`` under both weights and of ``verify
decomposition`` (the generic renderer), for every corpus groupoid, and
the SHA-256 of the samples ``sample_many(g, weight, 30, seed=0)`` draws
(fiber sizes, action and labels of each) under both weights, for every
corpus groupoid.
Regenerate it (only when an output change is intended) with::

    PYTHONPATH=src:tests python tests/test_golden.py > tests/golden_digests.json
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import pytest

import gburnside as gb
from gburnside.cli import run, JobSpec
from gburnside.sampling import sample_many
from gburnside.serialize import groupoid_to_obj

from conftest import build_corpus

DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "golden_digests.json")

COMMANDS = (
    ("burnside", None),
    ("crossed-burnside", "conjugation"),
    ("crossed-burnside", "trivial"),
    ("hadamard", None),
)

AXIOM_WEIGHTS = ("conjugation", "trivial")


def conjugation_gset_obj(g: gb.FiniteGroupoid) -> dict:
    conj = gb.conjugation_action(g)
    return {
        "fibers": {str(x): conj.size(x) for x in g.objects},
        "action": {str(m): list(conj.action[m]) for m in g.morphisms},
    }


def _key(name: str, command: str, weight: str | None) -> str:
    return f"{name}|{command}" + (f"|{weight}" if weight else "")


def _ring_jobs(gpath: str, xpath: str, g: gb.FiniteGroupoid):
    for command, weight in COMMANDS:
        yield command, weight, JobSpec(
            command=command,
            groupoid=gpath,
            gset=xpath if command == "hadamard" else None,
            weight=weight,
        )


def _axiom_jobs(gpath: str, xpath: str, g: gb.FiniteGroupoid):
    for weight in AXIOM_WEIGHTS:
        yield "verify-axioms", weight, JobSpec(
            command="verify",
            verify_target="axioms",
            groupoid=gpath,
            weight=weight,
            samples=30,
            seed=0,
        )


def _hom_jobs(gpath: str, xpath: str, g: gb.FiniteGroupoid):
    yield "verify-decomposition", None, JobSpec(
        command="verify", verify_target="decomposition", groupoid=gpath
    )
    yield "verify-decomposition", "trivial", JobSpec(
        command="verify", verify_target="decomposition", groupoid=gpath, weight="trivial"
    )
    for weight in AXIOM_WEIGHTS:
        yield "verify-embedding", weight, JobSpec(
            command="verify", verify_target="embedding", groupoid=gpath, weight=weight
        )
    if gb.is_connected(g):
        for z in sorted({0, g.n_objects - 1}):
            yield "verify-reduction", f"object={z}", JobSpec(
                command="verify", verify_target="reduction", groupoid=gpath, object_id=z
            )
        yield "verify-reduction", "trivial|object=0", JobSpec(
            command="verify", verify_target="reduction", groupoid=gpath,
            weight="trivial", object_id=0,
        )


def _table_jobs(gpath: str, xpath: str, g: gb.FiniteGroupoid):
    for jobs in (_ring_jobs, _axiom_jobs):
        for command, weight, job in jobs(gpath, xpath, g):
            yield f"{command}-table", weight, JobSpec(**{**vars(job), "format": "table"})
    yield "verify-decomposition-table", None, JobSpec(
        command="verify", verify_target="decomposition", groupoid=gpath, format="table"
    )


def _kind(key: str) -> str:
    command = key.split("|")[1]
    if command == "sample-many":
        return "sampler"
    if command.endswith("-table"):
        return "table"
    if command == "verify-axioms":
        return "axioms"
    return "hom" if command.startswith("verify-") else "ring"


def compute_digests(corpus: dict, workdir: str, jobs=_ring_jobs) -> dict[str, str]:
    out = {}
    for name, g in corpus.items():
        gpath = os.path.join(workdir, "groupoid.json")
        xpath = os.path.join(workdir, "gset.json")
        with open(gpath, "w", encoding="utf-8") as fh:
            json.dump(groupoid_to_obj(g), fh)
        with open(xpath, "w", encoding="utf-8") as fh:
            json.dump(conjugation_gset_obj(g), fh)
        for command, weight, job in jobs(gpath, xpath, g):
            code, text = run(job)
            assert code == 0
            out[_key(name, command, weight)] = hashlib.sha256(
                text.encode("utf-8")
            ).hexdigest()
    return out


def sampler_digests(corpus: dict) -> dict[str, str]:
    out = {}
    for name, g in corpus.items():
        for weight in AXIOM_WEIGHTS:
            s = gb.conjugation_action(g) if weight == "conjugation" else gb.trivial_gmonoid(g)
            drawn = [
                (c.carrier.sizes, c.carrier.action, c.label)
                for c in sample_many(g, s, 30, seed=0)
            ]
            out[_key(name, "sample-many", weight)] = hashlib.sha256(
                repr(drawn).encode("utf-8")
            ).hexdigest()
    return out


def _check_against_golden(got: dict[str, str], kind: str) -> None:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        expected = {k: v for k, v in json.load(fh).items() if _kind(k) == kind}
    assert set(got) == set(expected)
    changed = sorted(k for k in expected if got[k] != expected[k])
    assert changed == []


def test_ring_reports_byte_identical(corpus, tmp_path):
    _check_against_golden(compute_digests(corpus, str(tmp_path)), "ring")


def test_axiom_reports_byte_identical(corpus, tmp_path):
    _check_against_golden(
        compute_digests(corpus, str(tmp_path), _axiom_jobs), "axioms"
    )


def test_hom_reports_byte_identical(corpus, tmp_path):
    _check_against_golden(compute_digests(corpus, str(tmp_path), _hom_jobs), "hom")


def test_table_output_byte_identical(corpus, tmp_path):
    _check_against_golden(compute_digests(corpus, str(tmp_path), _table_jobs), "table")


def test_sampler_output_identical(corpus):
    _check_against_golden(sampler_digests(corpus), "sampler")


if __name__ == "__main__":
    corpus = build_corpus()
    with tempfile.TemporaryDirectory() as tmp:
        digests = compute_digests(corpus, tmp)
        digests.update(compute_digests(corpus, tmp, _axiom_jobs))
        digests.update(compute_digests(corpus, tmp, _hom_jobs))
        digests.update(compute_digests(corpus, tmp, _table_jobs))
    digests.update(sampler_digests(corpus))
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
