"""The benchmark's tracer names package functions; a rename must not hide a layer."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module, *path):
    obj = importlib.import_module(f"approxcommute.{module}")
    for name in path:
        obj = getattr(obj, name, None)
    return obj


def test_every_traced_layer_resolves():
    tracer = _load_tracer()
    names = tracer.TRACED + tracer.COUNTED_FUNCTIONS + tracer.COUNTED_METHODS
    missing = [".".join(name) for name in names if not callable(_resolve(*name))]
    assert missing == []


def test_suite_random_symmetric_subset_is_the_statements_one():
    # The tracer wraps the function it finds at suite and replaces every
    # binding of that same object; a second copy would go untraced.
    assert _resolve("suite", "random_symmetric_subset") is _resolve(
        "statements", "random_symmetric_subset"
    )
