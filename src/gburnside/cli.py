"""Command-line entry point.

The command surface is declared once: ``COMMANDS`` gives each command its
handler, help text and optional flags, and ``VERIFY`` each verify target
its handler and flags; any other flag exits 2.  The parser, the target
checks and the dispatch in ``run`` all read these two tables, and every
default lives in ``JobSpec``.  A plain line is read straight from them;
argparse, which reads it the same, is built for any other line and alone
prints help and errors.  A ring command renders its table only for
``--format table``.

``verify marks`` builds the crossed Burnside ring for --weight (and the
Hadamard ring over --gset, when given) by the table-of-marks route and by
the expand-and-decompose reference route, and reports the first basis pair
whose coordinates differ.  ``verify reduction`` and ``verify
decomposition`` restrict --weight to the isotropy groups and build their
blocks over it, for any weight.

Exit status: 0 on success or verified; 1 on a verification counterexample
(the report carries a witness); 2 on input errors, an unreadable or too
deeply nested input file, an unwritable --out and a stdout whose reader
has closed included.  Identical invocations with the same seed produce
byte-identical JSON.  A report is written exactly as ``json.dumps(report,
indent=2, sort_keys=True)`` would render it, with each distinct row of a
ring's table rendered once, and streamed to stdout or --out a list
element at a time (``write_json``); a table is written line by line, so
no command holds its whole report text.  With GB_LOG, which is read on
every call, set to info or debug, a ring command writes ``INFO <message>``
to stderr; unset, quiet or any other value writes nothing.
"""

from __future__ import annotations

import json
import os
import sys

from .classify import brute_force_basis, enumerate_basis, transitive_decomposition
from .crossed import check_monoidal_axioms
from .errors import GBError
from .groupoid import FiniteGroupoid, Record, connected_components, generating_set, isotropy_group
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
    write_json,
)

# JSON arrays and objects nested deeper are an input error on every interpreter:
# the bound lies far below any recursion limit that the decoder or parsers reach.
MAX_JSON_DEPTH = 100


class JobSpec(Record):
    """One CLI invocation, fully determined (seed included): a command and
    its options, which are passed by keyword.

    The class attributes are the only home of the option defaults: the
    parser leaves every option it was not given unset.  ``weight`` None
    means the conjugation weight (``validate`` then checks no weight)."""

    verify_target: str | None = None
    groupoid: str | None = None
    gset: str | None = None
    weight: str | None = None
    object_id: int = 0
    samples: int = 20
    seed: int = 0
    format: str = "json"
    out: str | None = None

    def __init__(self, command: str, **options) -> None:
        self.command = command
        for name in JobSpec.__annotations__:
            setattr(self, name, options.pop(name, getattr(JobSpec, name)))
        if options:
            raise TypeError(f"JobSpec() got unexpected options {sorted(options)}")


FORMATS = ("json", "table")

# optional flags in usage order: name -> add_argument keywords
FLAGS = {
    "gset": {"help": "path to a G-set JSON file"},
    "weight": {"help": "conjugation | trivial | path to a G-monoid JSON file"},
    "object": {"type": int, "dest": "object_id",
               "help": f"object id (default {JobSpec.object_id})"},
    "samples": {"type": int, "help": f"random samples (default {JobSpec.samples})"},
    "seed": {"type": int, "help": f"sampling seed (default {JobSpec.seed})"},
}


def build_parser() -> argparse.ArgumentParser:
    """Every command with its help and flags."""
    import argparse  # only help and errors need it: see _parse_plain

    parser = argparse.ArgumentParser(
        prog="gburnside",
        description="Finite groupoids, crossed G-sets, and exact Burnside-style rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        if name == "verify":
            p.add_argument("target", choices=VERIFY)
        p.add_argument("--groupoid", required=True, help="path to a groupoid JSON file")
        wanted = flags.split()
        for flag, kwargs in FLAGS.items():
            if flag in wanted or f"{flag}!" in wanted:
                p.add_argument(f"--{flag}", required=f"{flag}!" in wanted, **kwargs)
        p.add_argument("--format", choices=FORMATS)
        p.add_argument("--out", help="output path (default stdout)")
    return parser


def _parse_plain(argv) -> dict | None:
    """argparse's arguments after the target checks, keyed by dest, for a
    plain argv, else None.  Plain: a command (and verify target), then
    distinct full ``--flag value`` pairs it takes, required ones included,
    no value starting with "-" and each valid.  argparse reads that the same:
    an exact option beats an abbreviation, a token not starting with "-" is
    the value of the option before it, and a flag not given stays unset."""
    if not argv or argv[0] not in COMMANDS:
        return None
    args, flags, pairs = {"command": argv[0]}, COMMANDS[argv[0]][2], argv[1:]
    if argv[0] == "verify":
        if not pairs or pairs[0] not in VERIFY:
            return None
        args["target"], flags, pairs = pairs[0], VERIFY[pairs[0]][1], pairs[1:]
    takes = {"--groupoid": {}, "--format": {"choices": FORMATS}, "--out": {}}
    takes.update((f"--{flag.rstrip('!')}", FLAGS[flag.rstrip("!")]) for flag in flags.split())
    names = set(pairs[::2])
    required = {"--groupoid", *(f"--{flag[:-1]}" for flag in flags.split() if flag[-1] == "!")}
    if len(pairs) % 2 or len(names) < len(pairs) // 2 or not required <= names:
        return None
    for name, value in zip(pairs[::2], pairs[1::2]):
        kwargs = takes.get(name)
        if kwargs is None or value[:1] == "-" or value not in kwargs.get("choices", (value,)):
            return None
        try:
            args[kwargs.get("dest", name[2:])] = kwargs.get("type", str)(value)
        except ValueError:  # argparse calls the same type
            return None
    return args


def _check_target_flags(parser: argparse.ArgumentParser, target: str, args: dict) -> None:
    """Exit 2 on a flag the verify target does not take or a "!" flag it lacks."""
    wanted = VERIFY[target][1].split()
    for flag, kwargs in FLAGS.items():
        given = kwargs.get("dest", flag) in args
        if given and flag not in wanted and f"{flag}!" not in wanted:
            parser.error(f"verify {target} does not take --{flag}")
        if not given and f"{flag}!" in wanted:
            parser.error(f"verify {target} requires --{flag}")


# -- input loading -----------------------------------------------------------------

def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys are distinct; json.load would keep the last
    value of a repeated key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ParseError(f"repeated key {next(k for i, k in enumerate(keys) if k in keys[:i])!r}")
    return obj


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh, object_pairs_hook=_unique_keys)
        level = [[obj]]  # the arrays and objects at depth 1, 2, ... in turn
        for _ in range(MAX_JSON_DEPTH + 1):
            if not level:
                break
            level = [v for c in level for v in (c.values() if isinstance(c, dict) else c)
                     if isinstance(v, (dict, list))]
        if level:
            raise ParseError(f"JSON nested more than {MAX_JSON_DEPTH} levels deep")
        return obj
    except FileNotFoundError:
        raise ParseError(f"input file not found: {path}") from None
    except OSError as exc:
        raise ParseError(f"cannot read input file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:  # json.load's own limit, far past MAX_JSON_DEPTH
        raise ParseError(f"{path}: JSON nested more than {MAX_JSON_DEPTH} levels deep") from None
    except ParseError as exc:  # from _unique_keys or the depth bound
        raise ParseError(f"{path}: {exc}") from None


def _get_groupoid(job: JobSpec) -> FiniteGroupoid:
    return parse_groupoid(_load_json(job.groupoid))


def _get_weight(job: JobSpec, g: FiniteGroupoid):
    if job.weight is None or job.weight == "conjugation":
        return conjugation_action(g)
    if job.weight == "trivial":
        return trivial_gmonoid(g)
    return parse_gmonoid(_load_json(job.weight), g)


# -- table rendering -----------------------------------------------------------------

def _basis_entry_text(g: FiniteGroupoid, info: dict) -> str:
    if "subgroup" in info:
        rep = info["component"]
        gens = list(generating_set(g.compose_table, [g.identity[rep]], sorted(info["subgroup"])))
        return f"({info['component']}, {gens}, {info['label']})"
    return f"({info['component']}, size={info['carrier_size']}, image={info['base_image']})"


def _render_ring_table(g: FiniteGroupoid, ring: RingPresentation):
    yield f"dim: {ring.dim}"
    yield f"unit: {ring.unit_vector}"
    yield "basis:"
    width = max((len(f"e{k}") for k in range(ring.dim)), default=2)
    for k, info in enumerate(ring.basis_info):
        yield f"  {f'e{k}':<{width}} = {_basis_entry_text(g, info)}"
    yield "products:"
    for i, ri in enumerate(ring.structure_constants):
        for j, rij in enumerate(ri):
            terms = [(f"{v} " if v != 1 else "") + f"e{k}" for k, v in rij]
            rhs = " + ".join(terms) if terms else "0"
            yield f"  {f'e{i}':<{width}} * {f'e{j}':<{width}} = {rhs}"


def _render_generic_table(report: dict, prefix: str = ""):
    for key in sorted(report):
        val = report[key]
        if isinstance(val, dict):
            yield f"{prefix}{key}:"
            yield from _render_generic_table(val, prefix + "  ")
        elif isinstance(val, list) and val and all(isinstance(v, dict) for v in val):
            yield f"{prefix}{key}:"
            for item in val:
                if set(item) == {"axiom", "status"}:
                    yield f"{prefix}  {item['axiom']}: {item['status']}"
                else:
                    yield from _render_generic_table(item, prefix + "  ")
        else:
            yield f"{prefix}{key}: {val}"


# -- command handlers -----------------------------------------------------------------
#
# A command handler returns (exit code, report, render): render is None or a
# zero-argument callable that yields the --format table lines, so a JSON run
# never renders a table.  A verify handler returns (exit code, report).

def _cmd_validate(job: JobSpec):
    report: dict = {}
    try:
        g = _get_groupoid(job)
        report["groupoid"] = {"objects": g.n_objects, "morphisms": g.n_morphisms}
        weight = None
        if job.weight is not None:
            weight = _get_weight(job, g)
            report["weight"] = {"sizes": [weight.size(x) for x in g.objects]}
        if job.gset is not None:
            obj = _load_json(job.gset)
            if isinstance(obj, dict) and "labels" in obj:
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
    comps = connected_components(_get_groupoid(job))
    report = {
        "count": comps.count,
        "classes": comps.classes,
        "representatives": comps.representatives,
    }
    return 0, report, None


def _cmd_isotropy(job: JobSpec):
    iso, inclusion = isotropy_group(_get_groupoid(job), job.object_id)
    report = {
        "object": job.object_id,
        "order": iso.n_morphisms,
        "loop_morphisms": inclusion.morphism_map,
        "table": [list(row) for row in iso.compose_table],
    }
    return 0, report, None


def _cmd_action_groupoid(job: JobSpec):
    g = _get_groupoid(job)
    ag = action_groupoid(g, parse_gset(_load_json(job.gset), g))
    report = {
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


def _ring_command(ring: RingPresentation, g: FiniteGroupoid):
    return 0, ring_to_obj(ring), lambda: _render_ring_table(g, ring)


def _cmd_burnside(job: JobSpec):
    g = _get_groupoid(job)
    _info("building Burnside ring")
    return _ring_command(burnside_ring(g), g)


def _cmd_hadamard(job: JobSpec):
    g = _get_groupoid(job)
    x = parse_gset(_load_json(job.gset), g)
    _info("building Hadamard ring")
    return _ring_command(hadamard_ring(g, x), g)


def _cmd_crossed_burnside(job: JobSpec):
    g = _get_groupoid(job)
    weight = _get_weight(job, g)
    _info("building crossed Burnside ring")
    return _ring_command(crossed_burnside_ring(g, weight), g)


def _verify_axioms(job: JobSpec, g: FiniteGroupoid):
    if job.samples < 1:
        raise ParseError(f"--samples must be at least 1, got {job.samples}")
    samples = sample_many(g, _get_weight(job, g), job.samples, job.seed)
    checks = check_monoidal_axioms(samples)
    ok = all(c["status"] == "ok" for c in checks)
    return (0 if ok else 1), {"samples": job.samples, "seed": job.seed, "checks": checks}


def _hom_verdict(hom, *properties: str):
    """Exit code and report of a hom that must have every one of properties.
    A required bijection between rings of different dims has no determinant;
    both dims are its witness."""
    ok = all(hom.verified[p] for p in properties)
    report = hom_to_obj(hom)
    if "bijective" in properties and hom.source.dim != hom.target.dim:
        report["verified"]["dims"] = {"source": hom.source.dim, "target": hom.target.dim}
    return (0 if ok else 1), report


def _verify_embedding(job: JobSpec, g: FiniteGroupoid):
    hom = embedding_hom(g, _get_weight(job, g))
    return _hom_verdict(hom, "unital", "multiplicative", "injective")


def _verify_reduction(job: JobSpec, g: FiniteGroupoid):
    hom = connected_reduction_hom(g, _get_weight(job, g), job.object_id)
    code, report = _hom_verdict(hom, "unital", "multiplicative", "bijective")
    return code, {"object": job.object_id, **report}


def _verify_decomposition(job: JobSpec, g: FiniteGroupoid):
    hom = decomposition_hom(g, _get_weight(job, g))
    return _hom_verdict(hom, "unital", "multiplicative", "bijective")


def _verify_action_groupoid_iso(job: JobSpec, g: FiniteGroupoid):
    report = action_groupoid_iso_check(g, parse_gset(_load_json(job.gset), g))
    return (0 if report.get("status") == "ok" else 1), report


def _verify_basis_oracle(job: JobSpec, g: FiniteGroupoid):
    weight = _get_weight(job, g)
    catalog = enumerate_basis(g, weight)
    brute = brute_force_basis(g, weight)
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
    def dense(row) -> list[int]:
        vec = [0] * fast.dim
        for k, v in row:
            vec[k] = v
        return vec

    for i, (fi, ri) in enumerate(zip(fast.structure_constants, ref.structure_constants)):
        for j, (a, b) in enumerate(zip(fi, ri)):
            if a != b:
                return {"pair": [i, j], "marks": dense(a), "decomposition": dense(b)}
    if fast.unit_vector != ref.unit_vector:
        return {
            "unit": {"marks": list(fast.unit_vector), "decomposition": list(ref.unit_vector)}
        }
    return None


def _verify_marks(job: JobSpec, g: FiniteGroupoid):
    weight = _get_weight(job, g)
    routes = [("crossed-burnside", crossed_burnside_ring(g, weight),
               crossed_burnside_ring_by_decomposition(g, weight))]
    if job.gset is not None:
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
    return (0 if ok else 1), {"rings": rings}


def _cmd_verify(job: JobSpec):
    code, report = VERIFY[job.verify_target][0](job, _get_groupoid(job))
    return code, {"target": job.verify_target, **report}, None


# -- the command surface ---------------------------------------------------------------

# verify target -> (handler, FLAGS it takes; "!" marks a required one)
VERIFY = {
    "axioms": (_verify_axioms, "weight samples seed"),
    "embedding": (_verify_embedding, "weight"),
    "reduction": (_verify_reduction, "weight object"),
    "decomposition": (_verify_decomposition, "weight"),
    "action-groupoid-iso": (_verify_action_groupoid_iso, "gset!"),
    "basis-oracle": (_verify_basis_oracle, "weight"),
    "marks": (_verify_marks, "weight gset"),
}

# command -> (handler, help, optional FLAGS it takes; "!" marks a required one)
COMMANDS = {
    "validate": (_cmd_validate, "validate a groupoid and optional functor data",
                 "gset weight"),
    "components": (_cmd_components, "connected components", ""),
    "isotropy": (_cmd_isotropy, "isotropy group at an object", "object"),
    "action-groupoid": (_cmd_action_groupoid, "action groupoid of a G-set", "gset!"),
    "burnside": (_cmd_burnside, "Burnside ring presentation", ""),
    "hadamard": (_cmd_hadamard, "Hadamard ring of a slice over a G-set", "gset!"),
    "crossed-burnside": (_cmd_crossed_burnside, "crossed Burnside ring presentation",
                         "weight"),
    "verify": (_cmd_verify, "verify a theorem or an axiom family",
               "gset weight object samples seed"),
}


def run(job: JobSpec):
    """Execute a job; returns (exit code, report writer).  The writer passes
    the rendered report to the ``write`` it is called with a piece at a
    time: JSON element by element (``write_json``), a table line by line."""
    code, report, render = COMMANDS[job.command][0](job)
    report = {"command": job.command, **report}
    if job.format == "json":
        def emit(write) -> None:
            write_json(report, write)
            write("\n")
    else:
        def emit(write) -> None:
            for line in render() if render is not None else _render_generic_table(report):
                write(line + "\n")
    return code, emit


def _write(emit, path: str | None) -> None:
    """Stream a report writer to the --out file or to stdout.  A failed
    write to either is an input error; after one to stdout, stdout points
    at the null device, so the interpreter's exit flush writes nothing."""
    try:
        if path is None:
            emit(sys.stdout.write)
            sys.stdout.flush()
            return
        with open(path, "w", encoding="utf-8") as fh:
            emit(fh.write)
    except OSError as exc:
        if path is not None:
            raise ParseError(f"cannot write output file {path}: {exc.strerror}") from None
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise ParseError(f"cannot write to stdout: {exc.strerror}") from None


def _info(message: str) -> None:
    if os.environ.get("GB_LOG") in ("info", "debug"):
        print(f"INFO {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = _parse_plain(sys.argv[1:] if argv is None else argv)
    if args is None:
        parser = build_parser()
        try:
            args = vars(parser.parse_args(argv))
            if "target" in args:
                _check_target_flags(parser, args["target"], args)
        except SystemExit as exc:  # argparse has printed usage or help
            return exc.code
    job = JobSpec(verify_target=args.pop("target", None), **args)
    try:
        code, emit = run(job)
        _write(emit, job.out)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except GBError as exc:
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
