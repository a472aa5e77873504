"""The benchmark wraps ``taupipe`` functions by name and skips a name it
cannot find, so a rename would silently drop a layer span or counter.  This
checks every name it relies on still exists."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


# Keys that the counters in child.COUNTERS add to a run's counts.
COUNTER_KEYS = {
    "seeds", "filter_tests", "filter_passes", "merges", "overflow_seeds", "candidates",
    "signal_in", "signal_out", "taus_in", "taus_out",
}


def _traced_child(tmp_path, *cli_argv):
    """The result record of a traced ``bench/child.py`` run of ``cli_argv``;
    a subprocess, so that the tracer patches no module of this process."""
    root = CHILD.parents[1]
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(result), "1", *cli_argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(result.read_text())
    assert out["exit"] == 0
    return out


def test_traced_bench_child_fills_every_counter(tmp_path):
    out = _traced_child(tmp_path, "run", "--gen", "1:3:busy", "--report", "report.jsonl")
    assert COUNTER_KEYS <= set(out["counts"]), out["counts"]
    assert out["counts"]["seeds"] > 0
    assert {"eventio.report", "dataflow.run"} <= set(out["spans"]), out["spans"]


def test_traced_bench_child_traces_the_a_solutions(tmp_path):
    # dense-overflow runs merge A and clean A; the tracer finds them only as
    # values of the solution tables that run_stages indexes
    out = _traced_child(tmp_path, "run", "--gen", "1:3:busy", "--merge", "A", "--clean", "A")
    assert COUNTER_KEYS <= set(out["counts"]), out["counts"]
    assert {"stages.merging", "stages.cleaning"} <= set(out["spans"]), out["spans"]


def test_bench_run_calls_the_package_with_a_trigger_config(tmp_path):
    # bench/run.py calls gen_events, parse_events, oracle_trigger and
    # run_stages(..., ops=) in its own process with a trigger config; a
    # traced file workload reaches every one of those calls.
    root = CHILD.parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = ["--workload", "sparse-file", "--seed", "5", "--seconds", "0.5", "--events", "3",
            "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, last
