"""Span tracing of gburnside's public functions, installed from outside.

Each wrapped call records one span ``[name, start, end, parent]``, where
``parent`` is the index of the enclosing wrapped call or -1.  A layer's self
time is a span's duration minus the time its child spans cover, computed by
``aggregate``.  Spans stay in memory and are written out when the traced
process ends.

``from .x import f`` copies the binding of ``f`` into the importing module,
so a function is replaced in every gburnside module namespace that holds
it, not only in the module that defines it.  Methods are replaced on their
class, which every caller shares.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# layer -> functions; "Class.method" names a method.
LAYERS = {
    "groupoid": ["validate_groupoid", "isotropy_group", "connected_components"],
    "gsets": [
        "gset_product", "orbit_decomposition", "GSet.validate", "GMonoid.validate",
        "conjugation_action", "conjugation_loops", "action_groupoid",
    ],
    "crossed": [
        "tensor", "CrossedGSet.validate", "CrossedMap.validate", "associator", "braiding",
        "braiding_inverse", "unit_object", "distributivity_iso", "transport_restrict",
        "check_monoidal_axioms",
    ],
    "classify": [
        "enumerate_basis", "induced_crossed", "express_in_basis", "transitive_decomposition",
        "BasisCatalog.find", "_transitive_iso",
    ],
    "rings": [
        "crossed_burnside_ring", "burnside_ring", "hadamard_ring", "RingPresentation.validate",
        "RingPresentation._check_associativity", "RingPresentation._check_unit",
        "RingHom.verify", "RingHom.apply", "product_ring", "_ring_bijection", "_slice_express",
    ],
    "sampling": ["sample_many"],
    "serialize": ["parse_groupoid", "parse_gset", "ring_to_obj", "hom_to_obj"],
    "cli": ["run"],
}

SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Records spans and the two counters the derived metrics need."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.catalog_hits = 0  # BasisCatalog.find calls that found a basis element
        self.dense_entries = 0  # sum of d^3 over validated ring presentations

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        observe = {
            "classify.BasisCatalog.find": self._observe_find,
            "rings.RingPresentation.validate": self._observe_validate,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_find(self, result) -> None:
        if result is not None:
            self.catalog_hits += 1

    def _observe_validate(self, result) -> None:
        self.dense_entries += result.dim ** 3

    def install(self) -> None:
        """Replace every listed function in every gburnside module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "gburnside" or n.startswith("gburnside.")) and m is not None]
        for layer, fns in LAYERS.items():
            home = importlib.import_module(f"gburnside.{layer}")
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, meth, self.wrap(name, cls.__dict__[meth]))
                    continue
                orig = getattr(home, fn_name)
                wrapped = self.wrap(name, orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "spans": self.spans,
                "catalog_hits": self.catalog_hits,
                "dense_entries": self.dense_entries,
            }, fh, separators=(",", ":"))


def aggregate(spans: list[list]) -> dict[str, list[float]]:
    """Per span name: [calls, self seconds, inclusive seconds]."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, list[float]] = {}
    for k, (name, start, end, parent) in enumerate(spans):
        acc = out.setdefault(name, [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += (end - start) - covered[k]
        acc[2] += end - start
    return out
