"""Byte-identical CLI output for the ring commands and the axiom checker on
the acceptance corpus.

``golden_digests.json`` holds the SHA-256 of the JSON report of
``burnside``, ``crossed-burnside --weight conjugation``,
``crossed-burnside --weight trivial``, ``hadamard`` over the conjugation
G-set, and ``verify axioms --samples 30 --seed 0`` under both weights, for
every corpus groupoid.  Regenerate it (only when an output change is
intended) with::

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


def _ring_jobs(gpath: str, xpath: str):
    for command, weight in COMMANDS:
        yield command, weight, JobSpec(
            command=command,
            groupoid=gpath,
            gset=xpath if command == "hadamard" else None,
            weight=weight,
        )


def _axiom_jobs(gpath: str, xpath: str):
    for weight in AXIOM_WEIGHTS:
        yield "verify-axioms", weight, JobSpec(
            command="verify",
            verify_target="axioms",
            groupoid=gpath,
            weight=weight,
            samples=30,
            seed=0,
        )


def compute_digests(corpus: dict, workdir: str, jobs=_ring_jobs) -> dict[str, str]:
    out = {}
    for name, g in corpus.items():
        gpath = os.path.join(workdir, "groupoid.json")
        xpath = os.path.join(workdir, "gset.json")
        with open(gpath, "w", encoding="utf-8") as fh:
            json.dump(groupoid_to_obj(g), fh)
        with open(xpath, "w", encoding="utf-8") as fh:
            json.dump(conjugation_gset_obj(g), fh)
        for command, weight, job in jobs(gpath, xpath):
            code, text = run(job)
            assert code == 0
            out[_key(name, command, weight)] = hashlib.sha256(
                text.encode("utf-8")
            ).hexdigest()
    return out


def _check_against_golden(got: dict[str, str], axioms: bool) -> None:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        expected = {
            k: v for k, v in json.load(fh).items()
            if ("|verify-axioms|" in k) == axioms
        }
    assert set(got) == set(expected)
    changed = sorted(k for k in expected if got[k] != expected[k])
    assert changed == []


def test_ring_reports_byte_identical(corpus, tmp_path):
    _check_against_golden(compute_digests(corpus, str(tmp_path)), axioms=False)


def test_axiom_reports_byte_identical(corpus, tmp_path):
    _check_against_golden(
        compute_digests(corpus, str(tmp_path), _axiom_jobs), axioms=True
    )


if __name__ == "__main__":
    corpus = build_corpus()
    with tempfile.TemporaryDirectory() as tmp:
        digests = compute_digests(corpus, tmp)
        digests.update(compute_digests(corpus, tmp, _axiom_jobs))
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
