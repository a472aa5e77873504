"""Run one ``taupipe`` CLI invocation in this fresh process and record it.

Usage: ``python3 child.py RESULT_JSON TRACE ARGV...`` with ``PYTHONPATH``
pointing at the package sources.  ``run.py`` launches it once per
repetition, so every repetition pays interpreter start, package import and
argument parsing, as a user's ``taupipe run`` does.

The result file holds the CLI's exit code, the monotonic clock (shared by
all processes on Linux) at the start of event loading and at the end of the
run, and the process's peak resident memory.  With TRACE = 1 it also holds
the span totals and counts of the traced calls listed in ``SPANS``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from collections import Counter

import taupipe.cli as cli

# Public functions timed in a traced run: module -> function -> span name.
# A span's layer is the part of its name before the dot; a call made inside a
# span of the same layer is folded into that span, so ``compute_total_pt``
# counts as merging only when the pipeline calls it directly.
SPANS = {
    "taupipe.eventio": {
        "gen_events": "eventio.gen",
        "parse_events": "eventio.parse",
        "build_report": "eventio.report",
        "serialize_report": "eventio.report",
    },
    "taupipe.dataflow": {"run_pipeline": "dataflow.run"},
    "taupipe.reference": {"oracle_trigger": "reference.oracle"},
    "taupipe.stages": {
        "select_seeds": "stages.seeding",
        "partition_blocks": "stages.filtering",
        "filter_block": "stages.filtering",
        "merge_solution_a": "stages.merging",
        "merge_solution_b": "stages.merging",
        "compute_total_pt": "stages.merging",
        "select_signal_candidates": "stages.signal_selection",
        "compute_tau_params": "stages.tau_parameters",
        "reconstruct_tau": "stages.tau_reconstruction",
        "clean_solution_a": "stages.cleaning",
        "clean_solution_b": "stages.cleaning",
    },
}


def _count_seeds(counts, args, result):
    counts["seeds"] += len(result)


def _count_filter(counts, args, result):
    counts["filter_tests"] += sum(1 for p in args[0] if p.valid)
    counts["filter_passes"] += len(result)


def _count_merge(counts, args, result):
    counts["merges"] += 1
    counts["overflow_seeds"] += bool(result.discarded)
    counts["candidates"] += len(result.items)


def _count_signal(counts, args, result):
    counts["signal_in"] += len(args[0].candidates)
    counts["signal_out"] += len(result.candidates)


def _count_tau(counts, args, result):
    counts["taus_in"] += result.valid


def _count_clean(counts, args, result):
    counts["taus_out"] += len(result)


COUNTERS = {
    "select_seeds": _count_seeds,
    "filter_block": _count_filter,
    "merge_solution_a": _count_merge,
    "merge_solution_b": _count_merge,
    "select_signal_candidates": _count_signal,
    "reconstruct_tau": _count_tau,
    "clean_solution_a": _count_clean,
    "clean_solution_b": _count_clean,
}


class Tracer:
    """In-memory span totals: per name, inclusive ns, ns in child spans, calls."""

    def __init__(self):
        self.totals: dict[str, list[int]] = {}
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # open spans: [layer, ns in children]

    def wrap(self, span, fn, counter=None):
        layer = span.partition(".")[0]
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            t_enter = clock()
            frame = [layer, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                total = self.totals.setdefault(span, [0, 0, 0])
                total[0] += t1 - t0
                total[1] += frame[1]
                total[2] += 1
            if counter is not None:
                counter(self.counts, args, result)
            # The parent is charged with this wrapper's own cost too, so that
            # tracing overhead does not show up as the parent's self time.
            if stack:
                stack[-1][1] += clock() - t_enter
            return result

        return traced

    def install(self):
        """Point every reference a ``taupipe`` module holds to a traced function
        at its wrapper, including dispatch tables such as the merge solutions."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "taupipe"]
        for modname, functions in SPANS.items():
            module = sys.modules[modname]
            for fname, span in functions.items():
                original = getattr(module, fname, None)
                if original is None:
                    continue
                wrapper = self.wrap(span, original, COUNTERS.get(fname))
                for m in modules:
                    spaces = [vars(m)] + [v for v in vars(m).values() if type(v) is dict]
                    for space in spaces:
                        for key, value in list(space.items()):
                            if value is original:
                                space[key] = wrapper


def main(argv):
    result_path, trace, cli_argv = argv[0], argv[1] == "1", argv[2:]
    marks = {}
    # Event loading starts in the CLI's loader; argv and config parsing before
    # it are set-up that every invocation pays.
    load_events = getattr(cli, "_load_events", None)
    if load_events is not None:
        def marked_load(*args, **kwargs):
            marks.setdefault("t_load", time.monotonic())
            return load_events(*args, **kwargs)

        cli._load_events = marked_load
    tracer = Tracer()
    run = cli.main
    if trace:
        tracer.install()
        run = tracer.wrap("cli.run", cli.main)
    t_main = time.monotonic()
    code = run(cli_argv)
    t_end = time.monotonic()
    sys.stdout.flush()
    out = {
        "exit": code,
        "t_load": marks.get("t_load", t_main),
        "t_end": t_end,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.totals,
        "counts": dict(tracer.counts),
    }
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
