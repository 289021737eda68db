"""Byte-identical CLI output for the ring commands on the acceptance corpus.

``golden_digests.json`` holds the SHA-256 of the JSON report of
``burnside``, ``crossed-burnside --weight conjugation``,
``crossed-burnside --weight trivial`` and ``hadamard`` over the
conjugation G-set, for every corpus groupoid.  Regenerate it (only when an
output change is intended) with::

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


def conjugation_gset_obj(g: gb.FiniteGroupoid) -> dict:
    conj = gb.conjugation_action(g)
    return {
        "fibers": {str(x): conj.size(x) for x in g.objects},
        "action": {str(m): list(conj.action[m]) for m in g.morphisms},
    }


def _key(name: str, command: str, weight: str | None) -> str:
    return f"{name}|{command}" + (f"|{weight}" if weight else "")


def compute_digests(corpus: dict, workdir: str) -> dict[str, str]:
    out = {}
    for name, g in corpus.items():
        gpath = os.path.join(workdir, "groupoid.json")
        xpath = os.path.join(workdir, "gset.json")
        with open(gpath, "w", encoding="utf-8") as fh:
            json.dump(groupoid_to_obj(g), fh)
        with open(xpath, "w", encoding="utf-8") as fh:
            json.dump(conjugation_gset_obj(g), fh)
        for command, weight in COMMANDS:
            job = JobSpec(
                command=command,
                groupoid=gpath,
                gset=xpath if command == "hadamard" else None,
                weight=weight,
            )
            code, text = run(job)
            assert code == 0
            out[_key(name, command, weight)] = hashlib.sha256(
                text.encode("utf-8")
            ).hexdigest()
    return out


def test_ring_reports_byte_identical(corpus, tmp_path):
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)
    got = compute_digests(corpus, str(tmp_path))
    assert set(got) == set(expected)
    changed = sorted(k for k in expected if got[k] != expected[k])
    assert changed == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = compute_digests(build_corpus(), tmp)
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
