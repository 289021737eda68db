"""Command-line entry point.

Commands: validate, components, isotropy, action-groupoid, burnside,
hadamard, crossed-burnside, and verify with the targets axioms, embedding,
reduction, decomposition, action-groupoid-iso, basis-oracle, marks.

``verify marks`` builds the crossed Burnside ring for --weight (and the
Hadamard ring over --gset, when given) by the table-of-marks route and by
the expand-and-decompose reference route, and reports the first basis pair
whose coordinates differ.

Exit status: 0 on success or verified; 1 on a verification counterexample
(the report carries a witness); 2 on input errors.  Identical invocations
with the same seed produce byte-identical JSON.  Set GB_LOG to quiet,
info, or debug to control stderr logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass

from .classify import (
    brute_force_basis,
    enumerate_basis,
    subgroup_closure,
    transitive_decomposition,
)
from .crossed import check_monoidal_axioms
from .errors import GBError
from .groupoid import FiniteGroupoid, connected_components, isotropy_group
from .gsets import action_groupoid, conjugation_action, trivial_gmonoid
from .rings import (
    RingPresentation,
    action_groupoid_iso_check,
    burnside_ring,
    connected_reduction_hom,
    crossed_burnside_ring,
    crossed_burnside_ring_by_decomposition,
    decomposition_hom,
    embedding_hom,
    hadamard_ring,
    hadamard_ring_by_decomposition,
)
from .sampling import sample_many
from .serialize import (
    ParseError,
    groupoid_to_obj,
    hom_to_obj,
    parse_crossed,
    parse_gmonoid,
    parse_groupoid,
    parse_gset,
    ring_to_obj,
)

logger = logging.getLogger("gburnside")

VERIFY_TARGETS = (
    "axioms",
    "embedding",
    "reduction",
    "decomposition",
    "action-groupoid-iso",
    "basis-oracle",
    "marks",
)


@dataclass
class JobSpec:
    """One CLI invocation, fully determined (seed included)."""

    command: str
    verify_target: str | None = None
    groupoid: str | None = None
    gset: str | None = None
    weight: str | None = None
    object_id: int | None = None
    samples: int = 20
    seed: int = 0
    format: str = "json"
    out: str | None = None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gburnside",
        description="Finite groupoids, crossed G-sets, and exact Burnside-style rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, gset=False, weight=False, obj=False, sampling=False):
        p.add_argument("--groupoid", required=True, help="path to a groupoid JSON file")
        if gset:
            p.add_argument("--gset", required=True, help="path to a G-set JSON file")
        if weight:
            p.add_argument(
                "--weight",
                default="conjugation",
                help="conjugation | trivial | path to a G-monoid JSON file",
            )
        if obj:
            p.add_argument("--object", type=int, default=0, dest="object_id",
                           help="object id (default 0)")
        if sampling:
            p.add_argument("--samples", type=int, default=20)
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("validate", help="validate a groupoid and optional functor data")
    p.add_argument("--groupoid", required=True)
    p.add_argument("--gset", default=None)
    p.add_argument("--weight", default=None)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--out", default=None)

    add_common(sub.add_parser("components", help="connected components"))
    add_common(sub.add_parser("isotropy", help="isotropy group at an object"), obj=True)
    add_common(sub.add_parser("action-groupoid", help="action groupoid of a G-set"), gset=True)
    add_common(sub.add_parser("burnside", help="Burnside ring presentation"))
    add_common(sub.add_parser("hadamard", help="Hadamard ring of a slice over a G-set"), gset=True)
    add_common(sub.add_parser("crossed-burnside", help="crossed Burnside ring presentation"), weight=True)

    v = sub.add_parser("verify", help="verify a theorem or an axiom family")
    v.add_argument("target", choices=VERIFY_TARGETS)
    v.add_argument("--groupoid", required=True)
    v.add_argument("--gset", default=None)
    v.add_argument("--weight", default="conjugation")
    v.add_argument("--object", type=int, default=0, dest="object_id")
    v.add_argument("--samples", type=int, default=20)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--format", choices=("json", "table"), default="json")
    v.add_argument("--out", default=None)
    return parser


def job_from_args(args: argparse.Namespace) -> JobSpec:
    return JobSpec(
        command=args.command,
        verify_target=getattr(args, "target", None),
        groupoid=getattr(args, "groupoid", None),
        gset=getattr(args, "gset", None),
        weight=getattr(args, "weight", None),
        object_id=getattr(args, "object_id", None),
        samples=getattr(args, "samples", 20),
        seed=getattr(args, "seed", 0),
        format=getattr(args, "format", "json"),
        out=getattr(args, "out", None),
    )


# -- input loading -----------------------------------------------------------------

def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"input file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None


def _get_groupoid(job: JobSpec) -> FiniteGroupoid:
    return parse_groupoid(_load_json(job.groupoid))


def _get_weight(job: JobSpec, g: FiniteGroupoid):
    if job.weight is None or job.weight == "conjugation":
        return conjugation_action(g)
    if job.weight == "trivial":
        return trivial_gmonoid(g)
    return parse_gmonoid(_load_json(job.weight), g)


# -- table rendering -----------------------------------------------------------------

def _subgroup_generators(g: FiniteGroupoid, rep: int, subgroup: list[int]) -> list[int]:
    """Greedy minimal generating set of a subgroup of loops, ascending."""
    current = frozenset({g.identity[rep]})
    gens: list[int] = []
    for m in sorted(subgroup):
        if m not in current:
            gens.append(m)
            current = subgroup_closure(g.compose_table, current | {m})
    return gens


def _basis_entry_text(g: FiniteGroupoid, info: dict) -> str:
    if "subgroup" in info:
        gens = _subgroup_generators(g, info["component"], info["subgroup"])
        return f"({info['component']}, {gens}, {info['label']})"
    return f"({info['component']}, size={info['carrier_size']}, image={info['base_image']})"


def _render_ring_table(g: FiniteGroupoid, ring: RingPresentation) -> list[str]:
    lines = [f"dim: {ring.dim}", f"unit: {ring.unit_vector}", "basis:"]
    width = max((len(f"e{k}") for k in range(ring.dim)), default=2)
    for k, info in enumerate(ring.basis_info):
        lines.append(f"  {f'e{k}':<{width}} = {_basis_entry_text(g, info)}")
    lines.append("products:")
    for i in range(ring.dim):
        for j in range(ring.dim):
            terms = [
                (f"{v} " if v != 1 else "") + f"e{k}"
                for k, v in enumerate(ring.structure_constants[i][j])
                if v
            ]
            rhs = " + ".join(terms) if terms else "0"
            lines.append(f"  {f'e{i}':<{width}} * {f'e{j}':<{width}} = {rhs}")
    return lines


def _render_generic_table(report: dict, prefix: str = "") -> list[str]:
    lines = []
    for key in sorted(report):
        val = report[key]
        if isinstance(val, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_render_generic_table(val, prefix + "  "))
        elif isinstance(val, list) and val and all(isinstance(v, dict) for v in val):
            lines.append(f"{prefix}{key}:")
            for item in val:
                if set(item) == {"axiom", "status"}:
                    lines.append(f"{prefix}  {item['axiom']}: {item['status']}")
                else:
                    lines.extend(_render_generic_table(item, prefix + "  "))
        else:
            lines.append(f"{prefix}{key}: {val}")
    return lines


# -- command handlers -----------------------------------------------------------------

def _cmd_validate(job: JobSpec):
    report: dict = {"command": "validate"}
    try:
        g = _get_groupoid(job)
        report["groupoid"] = {"objects": g.n_objects, "morphisms": g.n_morphisms}
        weight = None
        if job.weight is not None:
            weight = _get_weight(job, g)
            report["weight"] = {"sizes": [weight.size(x) for x in g.objects]}
        if job.gset:
            obj = _load_json(job.gset)
            if "labels" in obj:
                if weight is None:
                    weight = conjugation_action(g)
                crossed = parse_crossed(obj, g, weight)
                report["crossed"] = {
                    "fibers": [crossed.carrier.size(x) for x in g.objects]
                }
            else:
                gset = parse_gset(obj, g)
                report["gset"] = {"fibers": [gset.size(x) for x in g.objects]}
    except GBError as exc:
        report["valid"] = False
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        return 1, report, None
    report["valid"] = True
    return 0, report, None


def _cmd_components(job: JobSpec):
    g = _get_groupoid(job)
    comps = connected_components(g)
    report = {
        "command": "components",
        "count": comps.count,
        "classes": comps.classes,
        "representatives": comps.representatives,
    }
    return 0, report, None


def _cmd_isotropy(job: JobSpec):
    g = _get_groupoid(job)
    iso, inclusion = isotropy_group(g, job.object_id)
    report = {
        "command": "isotropy",
        "object": job.object_id,
        "order": iso.n_morphisms,
        "loop_morphisms": inclusion.morphism_map,
        "table": iso.compose_table,
    }
    return 0, report, None


def _cmd_action_groupoid(job: JobSpec):
    g = _get_groupoid(job)
    x = parse_gset(_load_json(job.gset), g)
    ag = action_groupoid(g, x)
    report = {
        "command": "action-groupoid",
        "objects": ag.groupoid.n_objects,
        "morphisms": ag.groupoid.n_morphisms,
        "components": connected_components(ag.groupoid).count,
        "object_tags": [list(t) for t in ag.object_tags],
        "projection": {
            "objects": ag.projection.object_map,
            "morphisms": ag.projection.morphism_map,
        },
        "groupoid": groupoid_to_obj(ag.groupoid),
    }
    return 0, report, None


def _ring_command(job: JobSpec, name: str, ring: RingPresentation, g: FiniteGroupoid):
    report = {"command": name, **ring_to_obj(ring)}
    return 0, report, _render_ring_table(g, ring)


def _cmd_burnside(job: JobSpec):
    g = _get_groupoid(job)
    logger.info("building Burnside ring")
    return _ring_command(job, "burnside", burnside_ring(g), g)


def _cmd_hadamard(job: JobSpec):
    g = _get_groupoid(job)
    x = parse_gset(_load_json(job.gset), g)
    logger.info("building Hadamard ring")
    return _ring_command(job, "hadamard", hadamard_ring(g, x), g)


def _cmd_crossed_burnside(job: JobSpec):
    g = _get_groupoid(job)
    weight = _get_weight(job, g)
    logger.info("building crossed Burnside ring")
    return _ring_command(job, "crossed-burnside", crossed_burnside_ring(g, weight), g)


def _verify_axioms(job: JobSpec, g: FiniteGroupoid):
    weight = _get_weight(job, g)
    samples = sample_many(g, weight, job.samples, job.seed)
    checks = check_monoidal_axioms(samples)
    ok = all(c["status"] == "ok" for c in checks)
    report = {
        "target": "axioms",
        "samples": job.samples,
        "seed": job.seed,
        "checks": checks,
    }
    return (0 if ok else 1), report


def _verify_embedding(job: JobSpec, g: FiniteGroupoid):
    weight = _get_weight(job, g)
    hom = embedding_hom(g, weight)
    v = hom.verified
    ok = v["unital"] and v["multiplicative"] and v["injective"]
    return (0 if ok else 1), {"target": "embedding", **hom_to_obj(hom)}


def _verify_reduction(job: JobSpec, g: FiniteGroupoid):
    hom = connected_reduction_hom(g, job.object_id)
    v = hom.verified
    ok = v["unital"] and v["multiplicative"] and v["bijective"]
    return (0 if ok else 1), {
        "target": "reduction",
        "object": job.object_id,
        **hom_to_obj(hom),
    }


def _verify_decomposition(job: JobSpec, g: FiniteGroupoid):
    hom = decomposition_hom(g)
    v = hom.verified
    ok = v["unital"] and v["multiplicative"] and v["bijective"]
    return (0 if ok else 1), {"target": "decomposition", **hom_to_obj(hom)}


def _verify_action_groupoid_iso(job: JobSpec, g: FiniteGroupoid):
    if not job.gset:
        raise ParseError("verify action-groupoid-iso needs --gset")
    x = parse_gset(_load_json(job.gset), g)
    report = action_groupoid_iso_check(g, x)
    ok = report.get("status") == "ok"
    return (0 if ok else 1), {"target": "action-groupoid-iso", **report}


def _verify_basis_oracle(job: JobSpec, g: FiniteGroupoid):
    weight = _get_weight(job, g)
    catalog = enumerate_basis(g, weight)
    bound = max(len(g.by_dom(rep)) for rep in connected_components(g).representatives)
    brute = brute_force_basis(g, weight, bound)
    matched: list[int | None] = []
    for crossed in brute:
        pieces = transitive_decomposition(crossed)
        matched.append(catalog.find(pieces[0]) if len(pieces) == 1 else None)
    ok = (
        len(brute) == catalog.dim
        and all(m is not None for m in matched)
        and len(set(matched)) == len(matched)
    )
    report = {
        "target": "basis-oracle",
        "enumerated": catalog.dim,
        "brute_force": len(brute),
        "matching": matched,
        "matched": ok,
    }
    return (0 if ok else 1), report


def _route_difference(fast: RingPresentation, ref: RingPresentation) -> dict | None:
    """Where the marks route and the reference route first disagree."""
    if fast.dim != ref.dim:
        return {"dims": {"marks": fast.dim, "decomposition": ref.dim}}
    for i in range(fast.dim):
        for j in range(fast.dim):
            a = fast.structure_constants[i][j]
            b = ref.structure_constants[i][j]
            if a != b:
                return {"pair": [i, j], "marks": list(a), "decomposition": list(b)}
    if fast.unit_vector != ref.unit_vector:
        return {
            "unit": {"marks": list(fast.unit_vector), "decomposition": list(ref.unit_vector)}
        }
    return None


def _verify_marks(job: JobSpec, g: FiniteGroupoid):
    weight = _get_weight(job, g)
    routes = [("crossed-burnside", crossed_burnside_ring(g, weight),
               crossed_burnside_ring_by_decomposition(g, weight))]
    if job.gset:
        x = parse_gset(_load_json(job.gset), g)
        routes.append(("hadamard", hadamard_ring(g, x), hadamard_ring_by_decomposition(g, x)))
    rings = []
    for name, fast, ref in routes:
        witness = _route_difference(fast, ref)
        rings.append({
            "ring": name,
            "dim": fast.dim,
            "status": "ok" if witness is None else {"witness": witness},
        })
    ok = all(r["status"] == "ok" for r in rings)
    return (0 if ok else 1), {"target": "marks", "rings": rings}


def _cmd_verify(job: JobSpec):
    g = _get_groupoid(job)
    handler = {
        "axioms": _verify_axioms,
        "embedding": _verify_embedding,
        "reduction": _verify_reduction,
        "decomposition": _verify_decomposition,
        "action-groupoid-iso": _verify_action_groupoid_iso,
        "basis-oracle": _verify_basis_oracle,
        "marks": _verify_marks,
    }[job.verify_target]
    code, report = handler(job, g)
    report = {"command": "verify", **report}
    return code, report, None


HANDLERS = {
    "validate": _cmd_validate,
    "components": _cmd_components,
    "isotropy": _cmd_isotropy,
    "action-groupoid": _cmd_action_groupoid,
    "burnside": _cmd_burnside,
    "hadamard": _cmd_hadamard,
    "crossed-burnside": _cmd_crossed_burnside,
    "verify": _cmd_verify,
}


def run(job: JobSpec) -> tuple[int, str]:
    """Execute a job; returns (exit code, rendered report)."""
    code, report, table_lines = HANDLERS[job.command](job)
    if job.format == "table":
        lines = table_lines if table_lines is not None else _render_generic_table(report)
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return code, text


def _configure_logging() -> None:
    level = {
        "quiet": logging.ERROR,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }.get(os.environ.get("GB_LOG", ""), logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    job = job_from_args(args)
    try:
        code, text = run(job)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except GBError as exc:
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if job.out:
        with open(job.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
