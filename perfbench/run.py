"""Benchmark of the gburnside CLI.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload {products,ring_core,axioms} \
        --seed N --seconds S --trace {0,1}

One client runs the workload's operations in a closed loop, one at a time:
each operation is one ``gburnside`` command on one generated JSON input,
run in its own child process (see child.py) with its address space and
CPU time capped on that child only.  A run makes as many whole passes over
the workload's operations as fit in ``--seconds`` on the seed program at
the reference machine speed (NOMINAL_PASS_S).  Every output is
checked against perfbench/reference.json, whose invariants do not depend
on the seed's renumbering of group elements.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` one untraced pass precedes those passes, traced, and the
last line reports per-layer calls and self time per pass (see spans.py).
Earlier stdout lines repeat the figures for reading, with the failure
ratio, the tail percentile and its sample count.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from inputs import KNOWN_DEFECTS, WORKLOADS, write_inputs  # noqa: E402
from spans import SPAN_NAMES, aggregate  # noqa: E402

MEMORY_CAP_BYTES = 2 << 30
OP_CPU_CAP_S = 90
RUN_DEADLINE_S = 165  # stop starting operations after this, to exit within 180 s
# The shared host's speed swings by up to 1.5x in phases of about a
# second.  calibrate() runs before the first operation and after each one,
# and c = CAL_REF_S / (mean of the timings just before and just after an
# operation) measures the phase it ran in.  An operation time t is
# multiplied by c ** (1 / (1 + t / PHASE_S)): a short operation falls
# within one phase and is scaled fully; a long one averages over many
# phases by itself, and a point calibration would only add noise, so it is
# left nearly unscaled.  CAL_REF_S is the median of calibrate() on the
# 2-core x86 VM (2.1 GHz) where the benchmark was defined.
PHASE_S = 1.0
CAL_REF_S = 0.0064
# Wall seconds of one pass of each workload on the seed program at the
# reference speed.  A run makes ceil(--seconds / NOMINAL_PASS_S) passes
# (plus the untraced one of a traced run), so both sides of a comparison
# run the same operations and op_tail_s keeps its rank.
NOMINAL_PASS_S = {"products": 7.5, "ring_core": 2.5, "axioms": 12.0}

# Rows of the ROADMAP baseline table: (label, op name, span name).
BASELINE_ROWS = [
    ("crossed_burnside_ring S4", "crossed-burnside:S4", "rings.crossed_burnside_ring"),
    ("crossed_burnside_ring D8 (order 16)", "crossed-burnside:D8", "rings.crossed_burnside_ring"),
    ("axiom checker, 100 samples x 26 cases", None, "crossed.check_monoidal_axioms"),
]


def multiset(values) -> dict[str, int]:
    return {str(v): n for v, n in sorted(Counter(values).items())}


def output_invariants(kind: str, out: dict) -> dict:
    """The renumbering-invariant part of one operation's output."""
    if kind == "ring":
        return {
            "dim": out["dim"],
            "constants": multiset(c for row in out["table"] for entry in row for _, c in entry),
            "unit": multiset(out["unit"]),
        }
    if kind == "hom":
        return {
            "source_dim": out["source_dim"],
            "target_dim": out["target_dim"],
            "matrix": multiset(v for row in out["matrix"] for v in row),
        }
    if kind == "iso":
        return {"dims": [out["dim_action_groupoid_burnside"], out["dim_hadamard"]]}
    return {"axioms": [c["axiom"] for c in out["checks"]], "samples": out["samples"]}


def verdict(kind: str, code, out: dict | None) -> str:
    """"ok" when the command reports success; otherwise its witness."""
    if code != 0 or out is None:
        witness = (out or {}).get("status", {})
        if isinstance(witness, dict) and "witness" in witness:
            return str(witness["witness"])
        return f"exit {code}"
    if kind == "hom" and "witness" in out["verified"]:
        return f"witness {out['verified']['witness']}"
    if kind == "axioms" and any(c["status"] != "ok" for c in out["checks"]):
        return "axiom witness"
    return "ok"


def work_done(workload: str, kind: str, out: dict) -> int:
    """Output work of one correct operation, counted from its output."""
    if workload == "products":
        d = out["dim"] if kind == "ring" else out["dim_hadamard"]
        return d * d  # basis products presented
    if workload == "ring_core":
        return out["source_dim"] ** 2  # basis pairs checked for multiplicativity
    return out["samples"] * len(out["checks"])  # windows x axioms


def _limit_child(cpu_s: int):
    def apply() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_s, cpu_s + 1))
    return apply


def calibrate() -> float:
    """Seconds a fixed allocation-heavy pure-Python loop takes now, best of
    two.  It runs in this process, which never imports gburnside, with the
    cyclic collector off, so only the machine's current speed moves it."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            table = {}
            for i in range(40000):
                table[i % 997] = [i, (i, i)]
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def run_op(argv: list[str], tag: str, work: str, cpu_s: int, traced: bool) -> dict:
    """Run one operation in a fresh capped process; return its measurements."""
    result_path = os.path.join(work, f"{tag}-result.json")
    spans_path = os.path.join(work, f"{tag}-spans.json") if traced else "-"
    with open(os.path.join(work, f"{tag}-stderr.txt"), "w+", encoding="utf-8") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), repr(spawn), result_path,
             spans_path, "--", *argv],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            preexec_fn=_limit_child(cpu_s),
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr_tail = err.read().strip().splitlines()[-1:]
    res = {"exit": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0,
           "stderr": stderr_tail[0] if stderr_tail else ""}
    try:
        with open(result_path, encoding="utf-8") as fh:
            res.update(json.load(fh))
    except FileNotFoundError:  # killed before it could report (memory or CPU cap)
        res.update(setup_s=None, op_s=None, code=None, raised=f"terminated ({proc.returncode})")
    if traced and os.path.exists(spans_path):
        with open(spans_path, encoding="utf-8") as fh:
            res["trace"] = json.load(fh)
    return res


def speed_scale(op_s: float | None, cals: list[float]) -> float:
    """Factor taking an operation time to the reference machine speed;
    ``cals`` are the calibrations just before and just after it."""
    c = 2 * CAL_REF_S / (cals[0] + cals[1])
    return c ** (1 / (1 + (op_s or 0.0) / PHASE_S))


def check_op(workload: str, op, res: dict, out_path: str, ref: dict) -> tuple[bool, bool, str, int]:
    """(passed, failure predicted by KNOWN_DEFECTS, note, work)."""
    if res["raised"] is not None:
        return False, False, res["raised"], 0
    out = None
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            out = json.load(fh)
    try:
        got = verdict(op.kind, res["code"], out)
        if out is not None and output_invariants(op.kind, out) != ref["invariants"]:
            return False, False, "output differs from the reference", 0
    except (KeyError, TypeError, ValueError) as exc:
        return False, False, f"malformed output: {exc!r}", 0
    if got != ref["verdict"]:
        known = KNOWN_DEFECTS.get(op.name) == got
        return False, known, got if out is not None else f"{got}: {res['stderr']}", 0
    return True, False, "ok", work_done(workload, op.kind, out)


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value; with ten or fewer samples none qualifies and the maximum is used."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "gburnside", "cli.py")):
        print(f"no gburnside source under {ROOT}/src", file=sys.stderr)
        return 2

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    work = os.path.join(ROOT, ".perfbench_run", f"{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        ops = write_inputs(args.workload, args.seed, work)
        return measure(args, ops, reference, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def summarize_trace(res: dict) -> None:
    """Replace an operation's raw spans by its per-name totals and the
    per-call durations of the baseline spans."""
    trace = res.pop("trace")
    res["layers"] = aggregate(trace["spans"])
    wanted = {span for _, _, span in BASELINE_ROWS}
    res["baseline"] = [(name, end - start)
                       for name, start, end, _ in trace["spans"] if name in wanted]
    res["catalog_hits"] = trace["catalog_hits"]
    res["dense_entries"] = trace["dense_entries"]


def measure(args, ops, reference, work, started) -> int:
    """Run the passes --seconds asks for, print the report; ``started`` is
    when the process began, for the deadline."""
    samples = []  # one dict per operation run
    n_passes = 0  # whole passes completed
    planned = max(1, math.ceil(args.seconds / NOMINAL_PASS_S[args.workload])) + args.trace
    deadline_hit = False
    cals = [calibrate()]
    while n_passes < planned and not deadline_hit:
        traced = args.trace == 1 and n_passes > 0
        for k, (op, argv) in enumerate(ops):
            cpu_s = int(min(OP_CPU_CAP_S, RUN_DEADLINE_S - (time.monotonic() - started)))
            if cpu_s < 1:
                deadline_hit = True
                break
            res = run_op(argv, f"p{n_passes}-op{k:02d}", work, cpu_s, traced)
            cals.append(calibrate())
            res["cals"] = cals[-2:]
            out_path = argv[argv.index("--out") + 1]
            ok, known, note, amount = check_op(args.workload, op, res, out_path, reference[op.name])
            if os.path.exists(out_path):
                os.remove(out_path)
            res.update(op=op.name, ok=ok, known=known, note=note, work=amount, traced=traced,
                       pass_index=n_passes)
            if "trace" in res:
                summarize_trace(res)
            samples.append(res)
        else:
            n_passes += 1

    for s in samples:
        s["scale"] = speed_scale(s["op_s"], s["cals"])
    passes = [(p > 0 and args.trace == 1,
               sum((s["op_s"] or 0.0) * s["scale"] for s in samples if s["pass_index"] == p))
              for p in range(n_passes)]  # (traced, scaled op seconds of the pass)

    failed = [s for s in samples if not s["ok"]]
    correct = all(s["known"] for s in failed) and not deadline_hit
    for (op, note, known), n in Counter((s["op"], s["note"], s["known"]) for s in failed).items():
        print(f"failed {n}x: {op}: {note}" + (" (known defect)" if known else ""))
    print("scaled op seconds per pass (t: traced): " + " ".join(
        f"{p:.3f}" + ("t" if t else "") for t, p in passes))
    print(f"machine speed scale: median {statistics.median(s['scale'] for s in samples):.4f}, "
          f"range {min(s['scale'] for s in samples):.4f}..{max(s['scale'] for s in samples):.4f}")
    metrics = per_layer(samples, passes) if args.trace else end_to_end(samples)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{len(samples)} operations, {len(failed)} failed")
    for name, m in metrics.items():
        print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def end_to_end(samples: list[dict]) -> dict:
    timed = [s for s in samples if s["op_s"] is not None]
    op_times = [s["op_s"] * s["scale"] for s in timed]
    setups = [s["setup_s"] for s in timed]  # process start tracks I/O, not calibrate()
    pct, tail_s = tail(op_times)
    n_failed = sum(not s["ok"] for s in samples)
    print(f"fail_ratio {n_failed}/{len(samples)} = {n_failed / len(samples):.6g}")
    print(f"op_tail_s is p{pct:.4g} of {len(op_times)} operation times")
    print(f"unscaled op p50 {statistics.median(s['op_s'] for s in timed):.4f} s")
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "op_p50_s": {"value": statistics.median(op_times), "unit": "s"},
        "op_tail_s": {"value": tail_s, "unit": "s"},
        "work_per_s": {"value": sum(s["work"] for s in samples) / sum(op_times), "unit": "1/s"},
        "peak_rss_mb": {"value": max(s["rss_mb"] for s in samples), "unit": "MB"},
        "ok_ratio": {"value": 1.0 - n_failed / len(samples), "unit": "ratio"},
    }


def per_layer(samples: list[dict], passes: list[tuple[bool, float]]) -> dict:
    traced = [s for s in samples if "layers" in s]
    n_passes = max(1, sum(1 for t, _ in passes if t))
    totals = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
    for s in traced:
        for name, (calls, self_s, incl_s) in s["layers"].items():
            acc = totals[name]
            acc[0] += calls
            acc[1] += self_s * s["scale"]
            acc[2] += incl_s * s["scale"]
    metrics = {}
    for name in SPAN_NAMES:
        calls, self_s, _ = totals[name]
        metrics[f"{name}.calls"] = {"value": calls / n_passes, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s / n_passes, "unit": "s"}
    metrics["cli.run.total_s"] = {"value": totals["cli.run"][2] / n_passes, "unit": "s"}
    hits = sum(s["catalog_hits"] for s in traced)
    attempts = totals["classify._transitive_iso"][0]
    metrics["classify.match_ratio"] = {"value": hits / attempts if attempts else 0.0,
                                       "unit": "ratio"}
    metrics["rings.dense_entries"] = {
        "value": sum(s["dense_entries"] for s in traced) / n_passes, "unit": "count"}
    untraced = [p for t, p in passes if not t]
    traced_s = [p for t, p in passes if t] or untraced
    metrics["tracing_overhead"] = {
        "value": statistics.median(traced_s) / statistics.median(untraced), "unit": "ratio"}
    for label, op_name, span in BASELINE_ROWS:
        durations = [d * s["scale"] for s in traced if op_name in (None, s["op"])
                     for name, d in s["baseline"] if name == span]
        if durations:
            shown = " ".join(f"{d:.3f}" for d in durations[:4])
            print(f"baseline {label}: {sum(durations) / n_passes:.3f} s per pass, traced; "
                  f"{len(durations)} calls ({shown}{' ...' if len(durations) > 4 else ''})")
    ranked = sorted(((m["value"], n) for n, m in metrics.items() if n.endswith(".self_s")),
                    reverse=True)
    print("top self time: " + ", ".join(f"{n} {v:.3f} s" for v, n in ranked[:3]))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
