"""Every function the traced benchmark wraps still exists.

``perfbench/spans.py`` replaces each name in its ``LAYERS`` table by a
traced wrapper, looking the name up with a bare ``getattr`` (a method in
its class ``__dict__``); a renamed or deleted function makes every traced
benchmark operation fail.  This reads the table and checks each name.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def _layers() -> dict[str, list[str]]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize(
    "layer, name", [(layer, name) for layer, names in _layers().items() for name in names]
)
def test_traced_name_resolves(layer, name):
    home = importlib.import_module(f"gburnside.{layer}")
    if "." in name:
        cls_name, meth = name.split(".")
        assert callable(getattr(home, cls_name).__dict__.get(meth))
    else:
        assert callable(getattr(home, name, None))
