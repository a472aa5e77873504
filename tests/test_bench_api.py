"""The benchmark wraps ``taupipe`` functions by name and skips a name it
cannot find, so a rename would silently drop a layer span or counter.  This
checks every name it relies on still exists."""

import importlib
import importlib.util
from pathlib import Path

import taupipe.cli

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_spans_and_counters_name_existing_functions():
    child = load_child()
    spanned = set()
    for modname, functions in child.SPANS.items():
        module = importlib.import_module(modname)
        for fname in functions:
            assert callable(getattr(module, fname, None)), f"{modname}.{fname}"
            spanned.add(fname)
    assert set(child.COUNTERS) <= spanned
    assert callable(getattr(taupipe.cli, "_load_events", None))
