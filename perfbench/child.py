"""One benchmark operation: a fresh process that runs the gburnside CLI once.

Usage: child.py <spawn-monotonic> <result.json> <spans.json or -> -- <cli args>

The parent passes the CLOCK_MONOTONIC reading taken just before it
started this process, so ``setup_s`` covers interpreter start and the
import of ``gburnside.cli``.  ``op_s`` runs from entering ``cli.main`` to
its return.  With a spans path the public functions are traced (see
spans.py) and the spans are written to it when the operation ends.
"""

import json
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gburnside.cli as cli  # noqa: E402

imported = time.monotonic()


def main() -> None:
    spawn, result_path, spans_path = float(sys.argv[1]), sys.argv[2], sys.argv[3]
    argv = sys.argv[sys.argv.index("--") + 1:]
    tracer = None
    if spans_path != "-":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    raised = None
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    except MemoryError:
        code, raised = None, "MemoryError"
    except Exception as exc:  # any traceback is a failed operation
        traceback.print_exc()
        code, raised = None, f"{type(exc).__name__}: {exc}"
    op_s = time.perf_counter() - start
    if tracer is not None:
        tracer.dump(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"setup_s": imported - spawn, "op_s": op_s, "code": code, "raised": raised}, fh)


if __name__ == "__main__":
    main()
