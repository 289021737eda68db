"""End-to-end CLI runs: every command, exit codes, output determinism."""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import logging
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import gburnside as gb
from gburnside import cli
from gburnside.cli import main

from conftest import (
    NON_ASSOCIATIVE_LOOP, cyclic_table, dense_constants, sparse_rows, table_product,
)


@pytest.fixture
def inputs(tmp_path):
    paths = {}

    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        paths[name] = str(p)

    write("c2.json", {"group": {"table": cyclic_table(2)}})
    write("s3.json", {"group": {"perm_gens": [[1, 0, 2], [1, 2, 0]]}})
    write(
        "c2_plus_s3.json",
        {
            "disjoint_union": [
                {"group": {"table": cyclic_table(2)}},
                {"group": {"perm_gens": [[1, 0, 2], [1, 2, 0]]}},
            ]
        },
    )
    write("c2_pair2.json", {"product": [{"group": {"table": cyclic_table(2)}}, {"pair": 2}]})
    write("regular.json", {"fibers": {"0": 2}, "action": {"1": [1, 0]}})
    write("fixed.json", {"fibers": {"0": 1}, "action": {"1": [0]}})
    s3 = gb.from_group(gb.group_table_from_perm_gens([[1, 0, 2], [1, 2, 0]]))
    conj = gb.conjugation_action(s3)
    write("s3_conjugation.json", {
        "fibers": {"0": conj.size(0)},
        "action": {str(m): conj.action[m] for m in s3.morphisms},
    })
    write(
        "bad_groupoid.json",
        {
            "objects": 1,
            "morphisms": [{"dom": 0, "cod": 0}, {"dom": 0, "cod": 0}],
            "compose": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]],
            "identity": [0],
            "inverse": [0, 1],
        },
    )
    write("semilattice.json", {
        "monoids": {"0": {"table": [[0, 1], [1, 1]], "unit": 0}},
        "action": {"0": [0, 1], "1": [0, 1]},
    })
    write("conjugation_weight.json", {"conjugation": True})
    write("crossed.json", {
        "fibers": {"0": 2},
        "action": {"1": [1, 0]},
        "labels": {"0": [1, 1]},
    })
    return paths


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestCommands:
    def test_validate_ok(self, inputs, capsys):
        code, out = run_cli(capsys, "validate", "--groupoid", inputs["c2.json"])
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_validate_crossed_input(self, inputs, capsys):
        code, out = run_cli(
            capsys,
            "validate",
            "--groupoid", inputs["c2.json"],
            "--gset", inputs["crossed.json"],
            "--weight", "conjugation",
        )
        assert code == 0
        assert json.loads(out)["crossed"]["fibers"] == [2]

    def test_validate_crossed_input_defaults_to_the_conjugation_weight(self, inputs, capsys):
        # label 1 exists only in the conjugation weight of C2
        code, out = run_cli(capsys, "validate", "--groupoid", inputs["c2.json"],
                            "--gset", inputs["crossed.json"])
        assert code == 0
        assert json.loads(out) == {
            "command": "validate", "crossed": {"fibers": [2]},
            "groupoid": {"morphisms": 2, "objects": 1}, "valid": True,
        }

    def test_validate_gset_input(self, inputs, capsys):
        code, out = run_cli(capsys, "validate", "--groupoid", inputs["c2.json"],
                            "--gset", inputs["regular.json"])
        assert code == 0
        assert json.loads(out) == {
            "command": "validate", "gset": {"fibers": [2]},
            "groupoid": {"morphisms": 2, "objects": 1}, "valid": True,
        }

    def test_validate_counterexample_exits_1(self, inputs, capsys):
        code, out = run_cli(capsys, "validate", "--groupoid", inputs["bad_groupoid.json"])
        assert code == 1
        report = json.loads(out)
        assert report["valid"] is False
        assert "type" in report["error"]

    def test_missing_file_exits_2(self, inputs, capsys):
        code, _ = run_cli(capsys, "validate", "--groupoid", "/nonexistent.json")
        assert code == 2

    @pytest.mark.parametrize("command", [["validate"], ["verify", "marks"]])
    def test_empty_gset_path_exits_2(self, inputs, capsys, command):
        # an empty path names no file; it is not an omitted flag
        code = main([*command, "--groupoid", inputs["c2.json"], "--gset", ""])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "input error: input file not found: \n"

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        code, _ = run_cli(capsys, "components", "--groupoid", str(p))
        assert code == 2

    def test_non_associative_group_table_exits_2(self, tmp_path, capsys):
        p = tmp_path / "loop5.json"
        p.write_text(json.dumps({"group": {"table": NON_ASSOCIATIVE_LOOP}}))
        code = main(["components", "--groupoid", str(p)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("input error: NonAssociative:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("kind, text", [
        ("groupoid", '{"group": {"table": [[0]]}, "group": {"table": [[0, 1], [1, 0]]}}'),
        ("gset", '{"fibers": {"0": 2, "0": 1}}'),
    ])
    def test_repeated_key_exits_2(self, tmp_path, capsys, kind, text):
        # json.load alone would keep the last value and go on
        paths = {"groupoid": tmp_path / "c1.json", "gset": tmp_path / "fibers.json"}
        paths["groupoid"].write_text(json.dumps({"group": {"table": [[0]]}}))
        paths["gset"].write_text('{"fibers": {"0": 1}}')
        paths[kind].write_text(text)
        code = main(
            ["validate", "--groupoid", str(paths["groupoid"]), "--gset", str(paths["gset"])]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        key = "group" if kind == "groupoid" else "0"
        assert captured.err == f"input error: {paths[kind]}: repeated key {key!r}\n"

    @pytest.mark.parametrize("text", ["null", "5", "true"])
    def test_gset_that_is_not_an_object_exits_2(self, tmp_path, capsys, text):
        # validate looks for 'labels' first, which a scalar cannot hold
        c1 = tmp_path / "c1.json"
        c1.write_text(json.dumps({"group": {"table": [[0]]}}))
        gset = tmp_path / "scalar.json"
        gset.write_text(text)
        code = main(["validate", "--groupoid", str(c1), "--gset", str(gset)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "input error: G-set input must be a JSON object\n"

    def test_two_spellings_of_one_fiber_key_exit_2(self, tmp_path, capsys):
        c1 = tmp_path / "c1.json"
        c1.write_text(json.dumps({"group": {"table": [[0]]}}))
        gset = tmp_path / "dup.json"
        gset.write_text('{"fibers": {"0": 2, "00": 1}}')
        code = main(["validate", "--groupoid", str(c1), "--gset", str(gset)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "fiber key '00'" in captured.err

    def test_two_groupoid_forms_exit_2(self, tmp_path, capsys):
        p = tmp_path / "pair_and_group.json"
        p.write_text(json.dumps({"pair": 2, "group": {"table": [[0]]}}))
        code = main(["components", "--groupoid", str(p)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "input error: groupoid input names more than one form: 'pair', 'group'\n"

    def test_boolean_pair_exits_2(self, tmp_path, capsys):
        p = tmp_path / "pair_true.json"
        p.write_text(json.dumps({"pair": True}))
        code = main(["components", "--groupoid", str(p)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "'pair' must be an integer" in captured.err

    @pytest.mark.parametrize("case", ["directory", "not-utf8", "unwritable-out"])
    def test_unreadable_input_or_unwritable_out_exits_2(self, inputs, tmp_path, capsys, case):
        argv = ["components", "--groupoid", inputs["c2.json"]]
        if case == "directory":
            argv[2] = str(tmp_path)
        elif case == "not-utf8":
            latin1 = tmp_path / "latin1.json"
            latin1.write_bytes(b'{"pair": 2, "note": "\xe9"}')
            argv[2] = str(latin1)
        else:
            argv += ["--out", str(tmp_path / "missing" / "report.json")]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("input error:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "edit",
        [
            {"compose": [["a", 0, 0]]},
            {"identity": 0},
            {"inverse": 0},
            {"compose": 5},
            {"morphisms": [{"dom": "0", "cod": 0}, {"dom": 0, "cod": 0}]},
            {"group": {"table": "x"}},
            {"group": {"perm_gens": [[0, "a"]]}},
        ],
        ids=[
            "compose-entry-str", "identity-int", "inverse-int", "compose-int",
            "dom-str", "group-table-str", "perm-gens-str",
        ],
    )
    def test_malformed_groupoid_field_exits_2(self, tmp_path, capsys, edit):
        # a valid C2 file with one field replaced by a value of the wrong type
        spec = {
            "objects": 1,
            "morphisms": [{"dom": 0, "cod": 0}, {"dom": 0, "cod": 0}],
            "compose": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]],
            "identity": [0],
            "inverse": [0, 1],
        }
        spec = edit if "group" in edit else {**spec, **edit}
        p = tmp_path / "malformed.json"
        p.write_text(json.dumps(spec))
        code = main(["validate", "--groupoid", str(p)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("input error:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("depth", [2_000, 100_000])
    @pytest.mark.parametrize("flag, union", [
        ("--groupoid", False), ("--groupoid", True), ("--gset", False), ("--weight", False),
    ], ids=["groupoid-list", "groupoid-union", "gset", "weight"])
    @pytest.mark.parametrize("recursion_limit", [None, 5_000])
    def test_deeply_nested_input_exits_2(
        self, tmp_path, capsys, flag, union, depth, recursion_limit
    ):
        # json.load may fail on its own recursion limit or decode the file, as
        # interpreters differ; a higher limit makes it decode 2,000 levels here,
        # and then the depth bound refuses the file before any parser recurses
        c1 = tmp_path / "c1.json"
        c1.write_text(json.dumps({"group": {"table": [[0]]}}))
        nested = tmp_path / "nested.json"
        if union:
            nested.write_text('{"disjoint_union": [' * depth + '{"pair": 1}' + "]}" * depth)
        else:
            nested.write_text('{"pair": ' + "[" * depth + "]" * depth + "}")
        argv = ["validate", "--groupoid", str(c1), flag, str(nested)]
        if flag == "--groupoid":
            argv = ["validate", "--groupoid", str(nested)]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(recursion_limit or limit)
        try:
            code = main(argv)
        finally:
            sys.setrecursionlimit(limit)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"input error: {nested}: JSON nested more than 100 levels deep\n"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("unions, leaf, code", [
        (48, {"group": {"table": [[0]]}}, 0),  # 2 * 48 + 4 = 100 levels
        (50, {"pair": 1}, 2),  # 2 * 50 + 1 = 101 levels
    ])
    def test_nesting_bound_is_exact(self, tmp_path, capsys, unions, leaf, code):
        # each disjoint_union level is an object and a list
        spec = leaf
        for _ in range(unions):
            spec = {"disjoint_union": [spec]}
        nested = tmp_path / "nested.json"
        nested.write_text(json.dumps(spec))
        assert main(["validate", "--groupoid", str(nested)]) == code
        captured = capsys.readouterr()
        if code == 0:
            assert json.loads(captured.out)["groupoid"] == {"objects": 1, "morphisms": 1}
        else:
            assert captured.err == f"input error: {nested}: JSON nested more than 100 levels deep\n"

    def test_components(self, inputs, capsys):
        code, out = run_cli(capsys, "components", "--groupoid", inputs["c2_plus_s3.json"])
        assert code == 0
        report = json.loads(out)
        assert report["count"] == 2
        assert report["classes"] == [[0], [1]]

    def test_isotropy(self, inputs, capsys):
        code, out = run_cli(
            capsys, "isotropy", "--groupoid", inputs["c2_pair2.json"], "--object", "1"
        )
        assert code == 0
        assert json.loads(out)["order"] == 2

    def test_isotropy_table_format_prints_lists(self, inputs, capsys):
        code, out = run_cli(
            capsys, "isotropy", "--groupoid", inputs["s3.json"], "--object", "0",
            "--format", "table",
        )
        assert code == 0
        assert "table: [[0, 1, 2, 3, 4, 5], [1, " in out

    def test_action_groupoid(self, inputs, capsys):
        code, out = run_cli(
            capsys,
            "action-groupoid",
            "--groupoid", inputs["c2.json"],
            "--gset", inputs["regular.json"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["objects"] == 2
        assert report["morphisms"] == 4
        assert report["components"] == 1

    def test_burnside(self, inputs, capsys):
        code, out = run_cli(capsys, "burnside", "--groupoid", inputs["s3.json"])
        assert code == 0
        assert json.loads(out)["dim"] == 4

    def test_hadamard(self, inputs, capsys):
        code, out = run_cli(
            capsys,
            "hadamard",
            "--groupoid", inputs["c2.json"],
            "--gset", inputs["regular.json"],
        )
        assert code == 0
        assert json.loads(out)["dim"] == 1

    def test_crossed_burnside_table_format(self, inputs, capsys):
        code, out = run_cli(
            capsys,
            "crossed-burnside",
            "--groupoid", inputs["c2.json"],
            "--weight", "conjugation",
            "--format", "table",
        )
        assert code == 0
        assert out.startswith("dim: 4")
        assert "(0, [1], 1)" in out

    def test_crossed_burnside_trivial_weight(self, inputs, capsys):
        code, out = run_cli(
            capsys,
            "crossed-burnside",
            "--groupoid", inputs["s3.json"],
            "--weight", "trivial",
        )
        assert code == 0
        assert json.loads(out)["dim"] == 4


class TestVerify:
    def test_axioms(self, inputs, capsys):
        code, out = run_cli(
            capsys,
            "verify", "axioms",
            "--groupoid", inputs["s3.json"],
            "--weight", "conjugation",
            "--samples", "30",
            "--seed", "0",
        )
        assert code == 0
        checks = json.loads(out)["checks"]
        assert all(c["status"] == "ok" for c in checks)

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_axioms_refuses_fewer_than_one_sample(self, inputs, capsys, samples):
        code = main([
            "verify", "axioms", "--groupoid", inputs["s3.json"],
            "--samples", samples,
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"--samples must be at least 1, got {samples}" in captured.err
        assert "Traceback" not in captured.err

    def test_embedding(self, inputs, capsys):
        code, out = run_cli(
            capsys, "verify", "embedding", "--groupoid", inputs["c2_plus_s3.json"]
        )
        assert code == 0
        assert json.loads(out)["verified"]["injective"] is True

    def test_reduction(self, inputs, capsys):
        code, out = run_cli(
            capsys,
            "verify", "reduction",
            "--groupoid", inputs["c2_pair2.json"],
            "--object", "1",
        )
        assert code == 0
        assert json.loads(out)["verified"]["bijective"] is True

    def test_decomposition(self, inputs, capsys):
        code, out = run_cli(
            capsys, "verify", "decomposition", "--groupoid", inputs["c2_plus_s3.json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["source_dim"] == 12

    def test_decomposition_onto_fewer_blocks_names_both_dims(self, inputs, capsys, monkeypatch):
        # the target loses the S3 block: the hom still projects unitally and
        # multiplicatively onto B(C2), but 12 source dims meet 4 target dims
        product_ring = gb.rings.product_ring
        monkeypatch.setattr(gb.rings, "product_ring", lambda blocks: product_ring(blocks[:-1]))
        code, out = run_cli(
            capsys, "verify", "decomposition", "--groupoid", inputs["c2_plus_s3.json"]
        )
        assert code == 1
        report = json.loads(out)
        assert (report["source_dim"], report["target_dim"]) == (12, 4)
        assert report["verified"] == {
            "unital": True, "multiplicative": True, "bijective": False,
            "dims": {"source": 12, "target": 4},
        }

    def test_embedding_report_names_no_dims(self, inputs, capsys):
        # the embedding's dims differ by design, and it needs no bijection
        code, out = run_cli(capsys, "verify", "embedding", "--groupoid", inputs["c2.json"])
        assert code == 0
        assert json.loads(out)["verified"] == {
            "unital": True, "multiplicative": True, "bijective": False, "injective": True,
        }

    @pytest.mark.parametrize("target", ["reduction", "decomposition"])
    @pytest.mark.parametrize("weight", ["trivial", "semilattice.json"])
    def test_non_conjugation_weight_verified(self, inputs, capsys, target, weight):
        code, out = run_cli(
            capsys, "verify", target, "--groupoid", inputs["c2.json"],
            "--weight", inputs.get(weight, weight),
        )
        assert code == 0
        assert json.loads(out)["verified"]["bijective"] is True

    @pytest.mark.parametrize("target", ["reduction", "decomposition"])
    @pytest.mark.parametrize("weight", [None, "conjugation", "conjugation_weight.json"])
    def test_conjugation_weight_accepted(self, inputs, capsys, target, weight):
        argv = ["verify", target, "--groupoid", inputs["c2.json"]]
        if weight is not None:
            argv += ["--weight", inputs.get(weight, weight)]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["verified"]["bijective"] is True

    def test_action_groupoid_iso(self, inputs, capsys):
        code, out = run_cli(
            capsys,
            "verify", "action-groupoid-iso",
            "--groupoid", inputs["c2.json"],
            "--gset", inputs["fixed.json"],
        )
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    def test_action_groupoid_iso_needs_gset(self, inputs, capsys):
        code = main(["verify", "action-groupoid-iso", "--groupoid", inputs["c2.json"]])
        assert code == 2
        assert "verify action-groupoid-iso requires --gset" in capsys.readouterr().err

    def test_action_groupoid_iso_witness(self, inputs, capsys, monkeypatch):
        # B(C2) over one point, its unit [C2/C2] = e1 replaced by e0 + e1
        hadamard = gb.rings.hadamard_ring

        def corrupted(g, x):
            ring = hadamard(g, x)
            return gb.RingPresentation(
                ring.dim, ring.structure_constants, [1, 1], basis=ring.basis
            )

        monkeypatch.setattr(gb.rings, "hadamard_ring", corrupted)
        code, out = run_cli(
            capsys, "verify", "action-groupoid-iso",
            "--groupoid", inputs["c2.json"], "--gset", inputs["fixed.json"],
        )
        assert code == 1
        assert json.loads(out)["status"] == {
            "witness": "pushforward is not a ring isomorphism",
            "verified": {
                "unital": False, "multiplicative": True, "bijective": True, "unit_witness": 0,
            },
        }

    @pytest.mark.parametrize("target, flag, value", [
        ("embedding", "--object", "99"),
        ("embedding", "--gset", "missing.json"),
        ("decomposition", "--samples", "3"),
        ("basis-oracle", "--seed", "1"),
        ("action-groupoid-iso", "--weight", "trivial"),
    ])
    def test_flag_the_target_does_not_take_is_refused(self, inputs, capsys, target, flag, value):
        argv = ["verify", target, "--groupoid", inputs["c2.json"], flag, value]
        if target == "action-groupoid-iso":
            argv += ["--gset", inputs["fixed.json"]]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"verify {target} does not take {flag}" in captured.err

    def test_flags_may_precede_the_target(self, inputs, capsys):
        code, out = run_cli(capsys, "verify", "--groupoid", inputs["c2.json"], "embedding")
        assert code == 0
        assert json.loads(out)["target"] == "embedding"

    def test_basis_oracle(self, inputs, capsys):
        code, out = run_cli(
            capsys,
            "verify", "basis-oracle",
            "--groupoid", inputs["s3.json"],
            "--weight", "conjugation",
        )
        assert code == 0
        report = json.loads(out)
        assert report["enumerated"] == report["brute_force"] == 8


class TestVerifyMarks:
    def test_routes_agree(self, inputs, capsys):
        code, out = run_cli(
            capsys,
            "verify", "marks",
            "--groupoid", inputs["s3.json"],
            "--gset", inputs["s3_conjugation.json"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["target"] == "marks"
        assert [(r["ring"], r["dim"], r["status"]) for r in report["rings"]] == [
            ("crossed-burnside", 8, "ok"),
            ("hadamard", 8, "ok"),
        ]

    def test_crossed_only_without_gset(self, inputs, capsys):
        code, out = run_cli(
            capsys, "verify", "marks", "--groupoid", inputs["c2_plus_s3.json"],
            "--weight", "trivial",
        )
        assert code == 0
        assert [r["ring"] for r in json.loads(out)["rings"]] == ["crossed-burnside"]

    def test_corrupted_constant_exits_1(self, inputs, capsys, monkeypatch):
        real = cli.crossed_burnside_ring

        def corrupted(g, weight):
            ring = real(g, weight)
            c = dense_constants(ring)
            c[1][2][3] += 1
            ring.structure_constants[1][2] = sparse_rows(c)[1][2]
            return ring

        monkeypatch.setattr(cli, "crossed_burnside_ring", corrupted)
        code, out = run_cli(capsys, "verify", "marks", "--groupoid", inputs["s3.json"])
        assert code == 1
        (ring,) = json.loads(out)["rings"]
        witness = ring["status"]["witness"]
        assert ring["ring"] == "crossed-burnside"
        assert witness["pair"] == [1, 2]
        assert witness["marks"][3] == witness["decomposition"][3] + 1


    def test_table_lists_each_ring(self, inputs, capsys):
        code, out = run_cli(capsys, "verify", "marks", "--groupoid", inputs["s3.json"],
                            "--weight", "conjugation", "--format", "table")
        assert code == 0
        assert out.splitlines() == [
            "command: verify", "rings:", "  dim: 8", "  ring: crossed-burnside", "  status: ok",
            "target: marks",
        ]

    def test_reference_of_another_dim_is_a_witness(self, inputs, capsys, monkeypatch):
        # the reference route yields the Burnside ring of S3, 4 dims against 8
        monkeypatch.setattr(cli, "crossed_burnside_ring_by_decomposition",
                            lambda g, weight: gb.burnside_ring(g))
        code, out = run_cli(capsys, "verify", "marks", "--groupoid", inputs["s3.json"])
        assert code == 1
        assert json.loads(out)["rings"] == [{
            "dim": 8, "ring": "crossed-burnside",
            "status": {"witness": {"dims": {"decomposition": 4, "marks": 8}}},
        }]

    def test_reference_with_another_unit_is_a_witness(self, inputs, capsys, monkeypatch):
        # the same table as B(C2), whose unit is the point [0, 1], with unit [1, 1]
        def other_unit(g, weight):
            ring = gb.burnside_ring(g)
            return gb.RingPresentation(ring.dim, ring.structure_constants, [1, 1], ring.basis, ring.basis_info)

        monkeypatch.setattr(cli, "crossed_burnside_ring_by_decomposition", other_unit)
        code, out = run_cli(capsys, "verify", "marks", "--groupoid", inputs["c2.json"],
                            "--weight", "trivial")
        assert code == 1
        assert json.loads(out)["rings"] == [{
            "dim": 2, "ring": "crossed-burnside",
            "status": {"witness": {"unit": {"decomposition": [1, 1], "marks": [0, 1]}}},
        }]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("crossed-burnside", "--groupoid", "{s3}", "--weight", "conjugation"),
            ("burnside", "--groupoid", "{c2_plus_s3}"),
            ("verify", "axioms", "--groupoid", "{c2}", "--weight", "conjugation",
             "--samples", "25", "--seed", "3"),
            ("components", "--groupoid", "{c2_pair2}"),
        ],
    )
    def test_byte_identical_repeat_runs(self, inputs, capsys, argv):
        resolved = [
            a.format(
                s3=inputs["s3.json"],
                c2=inputs["c2.json"],
                c2_plus_s3=inputs["c2_plus_s3.json"],
                c2_pair2=inputs["c2_pair2.json"],
            )
            for a in argv
        ]
        code1, out1 = run_cli(capsys, *resolved)
        code2, out2 = run_cli(capsys, *resolved)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.endswith("\n")

    def test_out_file(self, inputs, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out = run_cli(
            capsys,
            "burnside",
            "--groupoid", inputs["c2.json"],
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["dim"] == 2

    def test_seed_changes_nothing_structural(self, inputs, capsys):
        # different seeds both verify; reports differ only in the seed field
        _, out1 = run_cli(
            capsys, "verify", "axioms", "--groupoid", inputs["c2.json"],
            "--samples", "10", "--seed", "1",
        )
        _, out2 = run_cli(
            capsys, "verify", "axioms", "--groupoid", inputs["c2.json"],
            "--samples", "10", "--seed", "2",
        )
        r1, r2 = json.loads(out1), json.loads(out2)
        assert r1["checks"] == r2["checks"]
        assert r1["seed"] != r2["seed"]


STREAMED = {
    "ring": ["crossed-burnside", "--groupoid", "{s3}", "--weight", "conjugation"],
    "hom": ["verify", "decomposition", "--groupoid", "{c2_pair2}"],
    "axioms": ["verify", "axioms", "--groupoid", "{s3}", "--samples", "5", "--seed", "2"],
    "action-groupoid": [
        "action-groupoid", "--groupoid", "{s3}", "--gset", "{s3_conjugation}",
    ],
    "table": ["crossed-burnside", "--groupoid", "{s3}", "--format", "table"],
    "generic-table": ["verify", "axioms", "--groupoid", "{c2}", "--format", "table"],
}


def _streamed_argv(inputs, kind: str) -> list[str]:
    paths = {name.removesuffix(".json"): path for name, path in inputs.items()}
    return [a.format(**paths) for a in STREAMED[kind]]


class TestStreamedReport:
    """A report is written a piece at a time, to stdout or to --out."""

    @pytest.mark.parametrize("kind", STREAMED)
    def test_stdout_and_out_hold_the_same_bytes(self, inputs, tmp_path, capsys, kind):
        argv = _streamed_argv(inputs, kind)
        code, out = run_cli(capsys, *argv)
        target = tmp_path / "report"
        assert run_cli(capsys, *argv, "--out", str(target)) == (code, "")
        assert code == 0
        assert target.read_bytes() == out.encode("utf-8")
        if "table" in kind:
            assert out.endswith("\n") and not out.endswith("\n\n")
        else:
            assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    def test_writing_a_report_holds_a_fraction_of_it(self, tmp_path):
        c2 = cyclic_table(2)
        path = tmp_path / "c2_3.json"
        path.write_text(json.dumps({"group": {"table": table_product(table_product(c2, c2), c2)}}))
        target = tmp_path / "report.json"
        job = cli.JobSpec("crossed-burnside", groupoid=str(path), out=str(target))
        code, emit = cli.run(job)
        tracemalloc.start()
        try:
            cli._write(emit, job.out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = target.stat().st_size
        assert code == 0 and json.loads(target.read_text())["dim"] == 128
        assert size > 1_000_000
        assert peak < size / 4, (peak, size)

    @pytest.mark.parametrize("how", ["pipe", "full", "closed"])
    def test_a_failed_stdout_exits_2(self, inputs, how):
        """A pipe whose read end is closed before the child writes, a full
        device, and file descriptor 1 closed before the interpreter starts,
        which leaves sys.stdout None: one input error line, exit 2."""
        cmd = [sys.executable, "-m", "gburnside", "burnside", "--groupoid", inputs["s3.json"]]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        if how == "pipe":
            read, write = os.pipe()
            os.close(read)
            try:
                result = subprocess.run(cmd, env=env, stdout=write, stderr=subprocess.PIPE,
                                        timeout=60)
            finally:
                os.close(write)
        elif how == "full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            with open("/dev/full", "wb") as full:
                result = subprocess.run(cmd, env=env, stdout=full, stderr=subprocess.PIPE,
                                        timeout=60)
        else:
            result = subprocess.run(["/bin/sh", "-c", 'exec "$@" >&-', "sh", *cmd], env=env,
                                    stderr=subprocess.PIPE, timeout=60)
        err = result.stderr.decode()
        assert result.returncode == 2, err
        assert err.startswith("input error: cannot write to stdout: ")
        assert err.count("\n") == 1 and "Traceback" not in err


def test_json_ring_commands_render_no_table(inputs, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a ring table was rendered for a JSON run")

    monkeypatch.setattr(cli, "_render_ring_table", refuse)
    s3 = inputs["s3.json"]
    for argv in (
        ["burnside", "--groupoid", s3],
        ["hadamard", "--groupoid", s3, "--gset", inputs["s3_conjugation.json"]],
        ["crossed-burnside", "--groupoid", s3, "--weight", "trivial"],
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["command"] == argv[0]


def test_cli_import_loads_no_numpy():
    """The package has no runtime dependencies: importing the CLI must not
    pull in numpy, whose import alone costs start-up time and memory."""
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c",
         "import gburnside.cli, sys; assert 'numpy' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_python_dash_m_runs_the_cli(inputs):
    """``python -m gburnside`` is the same command line, exit codes included."""
    src = Path(__file__).resolve().parents[1] / "src"

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "gburnside", *args],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )

    ok = run("burnside", "--groupoid", inputs["c2.json"], "--format", "json")
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["dim"] == 2
    bad = run("burnside", "--groupoid", str(Path(inputs["c2.json"]).with_name("missing.json")))
    assert bad.returncode == 2
    assert "Traceback" not in bad.stderr


def test_gb_log_is_read_on_every_call(inputs, capsys, monkeypatch):
    """GB_LOG takes effect on every ``main`` call of one process, not only
    on the first, and ``main`` leaves the host's root logger as it was."""
    root_handlers = list(logging.getLogger().handlers)
    monkeypatch.delenv("GB_LOG", raising=False)
    argv = ["burnside", "--groupoid", inputs["c2.json"]]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setenv("GB_LOG", "info")
    assert main(argv) == 0
    assert capsys.readouterr().err == "INFO building Burnside ring\n"
    monkeypatch.setenv("GB_LOG", "quiet")
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert logging.getLogger().handlers == root_handlers


@pytest.mark.parametrize("level, err", [
    (None, b""),
    ("quiet", b""),
    ("info", b"INFO building Burnside ring\n"),
    ("debug", b"INFO building Burnside ring\n"),
])
def test_gb_log_stderr_bytes_of_a_fresh_process(inputs, level, err):
    """The exact stderr of one ``burnside`` run under each GB_LOG level."""
    env = {k: v for k, v in os.environ.items() if k != "GB_LOG"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if level is not None:
        env["GB_LOG"] = level
    result = subprocess.run(
        [sys.executable, "-m", "gburnside", "burnside", "--groupoid", inputs["c2.json"]],
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert result.stderr == err
    assert json.loads(result.stdout)["dim"] == 2


def _parser_with_every_flag():
    """The parser as built before only the named command got its flags:
    every command with every flag it takes."""
    parser = argparse.ArgumentParser(
        prog="gburnside",
        description="Finite groupoids, crossed G-sets, and exact Burnside-style rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in cli.COMMANDS.items():
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        if name == "verify":
            p.add_argument("target", choices=cli.VERIFY)
        p.add_argument("--groupoid", required=True, help="path to a groupoid JSON file")
        wanted = flags.split()
        for flag, kwargs in cli.FLAGS.items():
            if flag in wanted or f"{flag}!" in wanted:
                p.add_argument(f"--{flag}", required=f"{flag}!" in wanted, **kwargs)
        p.add_argument("--format", choices=("json", "table"))
        p.add_argument("--out", help="output path (default stdout)")
    return parser


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], [], ["nope"]])
def test_parser_of_the_named_command_prints_the_same(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        _parser_with_every_flag().parse_args(argv)
    expected = (exc.value.code, *capsys.readouterr())
    assert (main(argv), *capsys.readouterr()) == expected
    assert expected[1] or expected[2]


PARSE_CASES = [
    ["--help"], ["-h", "crossed-burnside"], ["crossed-burnside", "-h"], ["verify", "--help"],
    [], ["nope"], ["verify"], ["verify", "nope", "--groupoid", "g.json"],
    ["crossed-burnside", "--groupoid", "g.json", "--format", "xml"],
    ["crossed-burnside", "--groupoid", "g.json", "stray"],
    ["burnside", "--groupoid", "g.json", "--weight", "trivial"],
    ["action-groupoid", "--groupoid", "g.json"], ["isotropy", "--object", "x"],
    ["--groupoid", "g.json", "burnside"],
    ["verify", "reduction", "--groupoid", "g.json", "--object", "1", "--format", "table"],
    ["crossed-burnside", "--weight", "trivial", "--groupoid", "g.json", "--out", "o.json"],
]


@pytest.mark.parametrize("argv", PARSE_CASES)
def test_parser_of_the_named_command_parses_the_same(capsys, argv):
    """The package's parser parses argv to the same arguments, or exits
    with the same code and text, as the parser of every command with every
    flag."""

    def outcome(parser):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
        return (result, *capsys.readouterr())

    assert outcome(cli.build_parser()) == outcome(_parser_with_every_flag())


def _argparse_args(argv):
    """What the argparse route makes of argv: the arguments after the
    verify target checks, or the exit code."""
    parser = _parser_with_every_flag()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = vars(parser.parse_args(argv))
            if "target" in args:
                cli._check_target_flags(parser, args["target"], args)
        except SystemExit as exc:
            return exc.code
    return args


FLAG_NAMES = [f"--{name}" for name in ("groupoid", *cli.FLAGS, "format", "out")]
PERTURBED = ["--gro", "--s", "--sa", "--obj", "--format=json", "--seed=3", "--object=1",
             "-h", "--help", "--"]
VALUES = ["g.json", "0", "1", "trivial", "json", "table", "", "-1", " 7", "1_0", "x", "xml"]
TOKENS = [*cli.COMMANDS, *cli.VERIFY, *FLAG_NAMES, *PERTURBED, *VALUES]


@st.composite
def command_lines(draw):
    """A command and, for verify, a target, then --groupoid and other flags
    it takes, each given once, with a valid value or any other; then up to
    two tokens replaced or inserted anywhere, so that flags repeat, are
    abbreviated, go missing or stand out of place."""
    argv = [draw(st.sampled_from(list(cli.COMMANDS)))]
    flags = cli.COMMANDS[argv[0]][2]
    if argv[0] == "verify":
        argv.append(draw(st.sampled_from(list(cli.VERIFY))))
        flags = cli.VERIFY[argv[1]][1]
    taken = [f"--{flag.rstrip('!')}" for flag in flags.split()] + ["--format", "--out"]
    names = draw(st.permutations(taken))[:draw(st.integers(0, len(taken)))]
    names.insert(draw(st.integers(0, len(names))), "--groupoid")
    for name in names:
        valid = st.sampled_from(cli.FORMATS if name == "--format" else ["1"])
        argv += [name, draw(valid | st.sampled_from(VALUES))]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        k, token = draw(st.integers(0, len(argv) - 1)), draw(st.sampled_from(TOKENS))
        argv[k:k + draw(st.integers(0, 1))] = [token]
    return argv


def _with_parse_cases(test):
    for argv in PARSE_CASES:
        test = example(argv=argv)(test)
    return test


@settings(max_examples=400, deadline=None)
@given(argv=st.one_of(command_lines(), st.lists(st.sampled_from(TOKENS), max_size=8)))
@_with_parse_cases
def test_a_plain_line_parses_as_argparse_does(argv):
    """``main`` reads a plain line without argparse: the arguments must be
    the ones argparse and the target checks give.  Any other line is None
    and goes to argparse."""
    plain = cli._parse_plain(argv)
    assert plain is None or plain == _argparse_args(argv), argv


def _perfbench_inputs():
    """``perfbench/inputs.py``, registered as a module (its dataclass needs that)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


PERFBENCH_INPUTS = _perfbench_inputs()


@pytest.mark.parametrize("workload", sorted(PERFBENCH_INPUTS.WORKLOADS))
def test_every_benchmark_command_line_is_plain(tmp_path, workload):
    """Every command line the benchmark runs takes the plain route, and
    parses as argparse parses it."""
    for _, argv in PERFBENCH_INPUTS.write_inputs(workload, 1, str(tmp_path)):
        plain = cli._parse_plain(argv)
        assert plain is not None, argv
        assert plain == _argparse_args(argv)
