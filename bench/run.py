"""Benchmark of a full ``taupipe run``: end-to-end host time and memory per
workload, or, with ``--trace 1``, host time and work counts per module.

Usage, from the root of a checkout (stdlib only; the package is taken from
``src/``, not from an installation)::

    python3 bench/run.py --workload busy-gen --seed 1 --seconds 30 --trace 0

Each repetition launches a fresh interpreter on ``bench/child.py``, which
calls the real CLI entry point ``taupipe.cli.main``.  Repetitions run one at
a time until ``--seconds`` have passed.  ``events_per_s`` and ``setup_s``
come from the slowest repetition, ``peak_rss_mb`` is the median.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
WORK_PARENT = ROOT / ".bench_work"

# A repetition that takes longer than this is killed and counted as failed;
# the whole run must stay well inside three minutes.
REP_TIMEOUT_S = 100

DENSE_CONFIG = (
    "filter_cone_r2 = 400000000\n"
    "signal_cone_r2_max = 400000000\n"
    "signal_cone_k = 2000000000\n"
)


@dataclass(frozen=True)
class Workload:
    """One way of driving ``taupipe run``; ``events`` is per repetition, sized
    so that a repetition takes about 1.5 s."""

    events: int
    profile: str  # generator profile of the inputs
    from_file: bool  # events reach the CLI as a file instead of --gen
    config: str  # config file text; empty for the defaults
    flags: tuple[str, ...]
    merge: str
    clean: str
    pinned: tuple[int, int]  # simulated latency and II the CLI must print


WORKLOADS = {
    # ROADMAP item 2's target run: many particles and 16 seeds per event, so
    # cone filtering, the generator and the oracle dominate.
    "busy-gen": Workload(400, "busy", False, "", (), "B", "B", (200, 44)),
    # Few seeds per event, parsed from a file at the 300 MHz/CDC point: the
    # fixed per-event costs (tick engine, parsing) dominate.
    "sparse-file": Workload(
        1500, "uniform", True, "min_seed_pt = 200\n", ("--freq", "300"), "B", "B", (210, 44)
    ),
    # Whole-plane cones: every seed's cone overflows the 30-candidate cap, so
    # merging, signal selection and averaging do the work; the only run on
    # the A solutions, which agree with the reference there.
    "dense-overflow": Workload(
        300, "busy", True, DENSE_CONFIG, ("--merge", "A", "--clean", "A"), "A", "A", (203, 44)
    ),
}

STAGE_NAMES = (
    "seeding",
    "filtering",
    "merging",
    "signal_selection",
    "tau_parameters",
    "tau_reconstruction",
    "cleaning",
)


@dataclass
class Rep:
    """Outcome of one repetition; timings are None when the child gave none."""

    traced: bool
    problems: list[str]
    report: bytes = b""
    events_per_s: float | None = None
    setup_s: float | None = None
    rss_mb: float | None = None
    spans: dict | None = None
    counts: dict | None = None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--events", type=int, default=None,
                   help="events per repetition instead of the workload's size (smoke tests)")
    args = p.parse_args(argv)
    if args.events is not None and args.events < 2:
        p.error("--events needs at least 2 events, so that the II is defined")
    return args


def make_inputs(w: Workload, seed: int, n: int, work: Path):
    """Write the workload's inputs; return the CLI argv, the events the CLI
    will see, and the run config."""
    from taupipe.eventio import gen_events, load_config, parse_events, write_events

    run_cfg = load_config(w.config)
    events = gen_events(seed, n, w.profile, run_cfg.trigger)
    argv = ["run", *w.flags, "--report", str(work / "report.jsonl")]
    if w.config:
        (work / "config.txt").write_text(w.config)
        argv += ["--config", str(work / "config.txt")]
    if w.from_file:
        text = write_events(events)
        (work / "events.txt").write_text(text)
        events = parse_events(text, run_cfg.trigger)
        argv += ["--events", str(work / "events.txt")]
    else:
        argv.append(f"--gen={seed}:{n}:{w.profile}")
    return argv, events, run_cfg


def launch(argv, work: Path, traced: bool, w: Workload, n: int) -> Rep:
    """Run one repetition in a fresh process and check what it printed."""
    report_path = work / "report.jsonl"
    result_path = work / "child.json"
    for stale in (report_path, result_path):
        stale.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    # Bytecode is cached, as for an installed package, so that setup_s does
    # not depend on whether the caller's environment disables the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    rep = Rep(traced=traced, problems=[])
    t_launch = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(result_path), str(int(traced)), *argv],
            env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        rep.problems.append(f"killed after {REP_TIMEOUT_S} s")
        return rep
    if not result_path.exists():
        rep.problems.append(f"child exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return rep
    res = json.loads(result_path.read_text())
    rep.events_per_s = n / (res["t_end"] - res["t_load"])
    rep.setup_s = res["t_load"] - t_launch
    rep.rss_mb = res["maxrss_kib"] * 1024 / 1e6
    rep.spans, rep.counts = res["spans"], res["counts"]
    if res["exit"] != 0:
        rep.problems.append(f"exit code {res['exit']}")
    lines = proc.stdout.splitlines()
    if f"oracle check: ok ({n} events)" not in lines:
        rep.problems.append("oracle line is not ok: "
                            + next((l for l in lines if l.startswith("oracle")), "missing"))
    lat, ii = w.pinned
    want = f"latency: {lat} cycles  ii: {ii} cycles"
    if not any(l.startswith(want) for l in lines):
        rep.problems.append("simulated figures differ from pinned "
                            + f"{lat}/{ii}: " + next((l for l in lines if l.startswith("latency")), "missing"))
    if report_path.exists():
        rep.report = report_path.read_bytes()
    else:
        rep.problems.append("no report written")
    return rep


def check_report(report: bytes, events, oracle, w: Workload) -> tuple[list[str], dict]:
    """Compare a report with the reference outputs and the pinned figures;
    also return the report's metrics record."""
    from taupipe.eventio import parse_report

    try:
        records = parse_report(report.decode())
    except ValueError as exc:
        return [f"report unreadable: {exc}"], {}
    problems = []
    event_recs = [r for r in records if r.get("type") == "event"]
    if [r["event_id"] for r in event_recs] != [ev.event_id for ev in events]:
        problems.append("report event ids differ from the inputs")
    for rec, want in zip(event_recs, oracle):
        if rec["taus"] != [{"pt": t.pt, "eta": t.pos.eta, "phi": t.pos.phi} for t in want]:
            problems.append(f"report taus of event {rec['event_id']} differ from the reference")
            break
    m = records[-1]
    if (m.get("latency_cycles"), m.get("ii_cycles")) != w.pinned:
        problems.append(f"report metrics {m.get('latency_cycles')}/{m.get('ii_cycles')} "
                        f"differ from pinned {w.pinned[0]}/{w.pinned[1]}")
    return problems, m


def analyse(events, oracle, trigger, w: Workload) -> dict:
    """Untraced in-process pass over the events: per-event stage time,
    divergence from the reference, and datapath operation counts."""
    from taupipe.core import OpCounter
    from taupipe.stages import run_stages

    times_ms = []
    mismatch = mismatch_b = 0
    ops = OpCounter()
    clock = time.perf_counter_ns
    for ev, want in zip(events, oracle):
        t0 = clock()
        got = run_stages(ev, trigger, w.merge, w.clean)
        times_ms.append((clock() - t0) / 1e6)
        mismatch += got != want
        mismatch_b += run_stages(ev, trigger, "B", "B") != want
        run_stages(ev, trigger, w.merge, w.clean, ops=ops)
    n = len(events)
    pct = statistics.quantiles(times_ms, n=100, method="inclusive")
    return {
        "stages.event_ms_p50": pct[49],
        "stages.event_ms_p99": pct[98],
        "reference.mismatch_events": mismatch,
        "reference.mismatch_events_merge_b": mismatch_b,
        "core.multiplications_per_event": ops.multiplications / n,
        "core.divisions_per_event": ops.divisions / n,
        "core.comparisons_per_event": ops.comparisons / n,
    }


def layer_metrics(traced: list[Rep], report: bytes, sim: dict, n: int) -> dict:
    """Per-event layer times and counts summed over the traced repetitions;
    simulated cycles come from the report's metrics record ``sim``."""
    spans: dict[str, list[int]] = {}
    counts: dict[str, int] = {}
    for rep in traced:
        for name, (incl, child, calls) in rep.spans.items():
            acc = spans.setdefault(name, [0, 0, 0])
            acc[0] += incl
            acc[1] += child
            acc[2] += calls
        for name, c in rep.counts.items():
            counts[name] = counts.get(name, 0) + c
    events = n * len(traced)

    def span_ms(name, self_only=False):
        incl, child, _ = spans.get(name, (0, 0, 0))
        return ((incl - child) if self_only else incl) / 1e6 / events

    def per(num, den):
        return counts.get(num, 0) / den if den else 0.0

    # The last event completes at latency + (n - 1) * II: the pipeline runs
    # at its steady II from the first event on.
    makespan = (sim.get("latency_cycles", 0) - sim.get("cdc_overhead_cycles", 0)
                + (n - 1) * sim.get("ii_cycles", 0))
    stalls = sum(s["input_stall_cycles"] + s["output_stall_cycles"]
                 for s in sim.get("stage_stats", ()))
    out = {
        "eventio.gen_ms": span_ms("eventio.gen"),
        "eventio.parse_ms": span_ms("eventio.parse"),
        "eventio.report_ms": span_ms("eventio.report"),
        "eventio.report_bytes_per_event": len(report) / n,
    }
    for stage in STAGE_NAMES:
        out[f"stages.{stage}_ms"] = span_ms(f"stages.{stage}")
    out.update({
        "stages.seeds_per_event": per("seeds", events),
        "stages.filter_tests_per_event": per("filter_tests", events),
        "stages.filter_pass_ratio": per("filter_passes", counts.get("filter_tests", 0)),
        "stages.overflow_seeds_per_event": per("overflow_seeds", events),
        "stages.candidates_per_seed": per("candidates", counts.get("merges", 0)),
        "stages.signal_keep_ratio": per("signal_out", counts.get("signal_in", 0)),
        "stages.taus_in_per_event": per("taus_in", events),
        "stages.taus_out_per_event": per("taus_out", events),
        "dataflow.self_ms": span_ms("dataflow.run", self_only=True),
        "dataflow.sim_cycles_per_event": makespan / n,
        "dataflow.stall_cycles_per_event": stalls / n,
        "reference.oracle_ms": span_ms("reference.oracle"),
        "cli.self_ms": span_ms("cli.run", self_only=True),
    })
    return out


def spread(values) -> str:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (f"{len(values)} repetitions; median {statistics.median(values):.6g}; "
            f"quartiles {q[0]:.6g}, {q[2]:.6g}; min {min(values):.6g}, max {max(values):.6g}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "taupipe" / "cli.py").is_file():
        print(f"error: no taupipe sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from taupipe.reference import oracle_trigger

    w = WORKLOADS[args.workload]
    n = args.events or w.events
    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_PARENT))
    try:
        argv_cli, events, run_cfg = make_inputs(w, args.seed, n, work)
        oracle = [oracle_trigger(ev, run_cfg.trigger) for ev in events]

        # The first repetition compiles bytecode and warms the file cache; its
        # timings are dropped and its report is the one every later
        # repetition must reproduce byte for byte.
        first = launch(argv_cli, work, False, w, n)
        problems, sim = check_report(first.report, events, oracle, w)
        first.problems += problems
        reps = [first]
        t_start = time.monotonic()
        analysis = analyse(events, oracle, run_cfg.trigger, w) if args.trace else {}
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 0
            rep = launch(argv_cli, work, traced, w, n)
            if rep.report != first.report:
                rep.problems.append("report bytes differ from the first repetition")
            reps.append(rep)
            if rep.events_per_s is None:
                break
            # At least one measured repetition, and one of each kind when traced.
            if len(reps) > 1 + args.trace and time.monotonic() - t_start >= args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in reps if r.problems or first.problems]
    for i, r in enumerate(reps):
        for problem in r.problems:
            print(f"repetition {i} failed: {problem}")
    timed = [r for r in reps[1:] if r.events_per_s is not None]
    plain = [r for r in timed if not r.traced]
    traced = [r for r in timed if r.traced]
    if not plain or (args.trace and not traced):
        print("error: no repetition produced timings", file=sys.stderr)
        return 1

    eps = [r.events_per_s for r in plain]
    print(f"workload {args.workload}, seed {args.seed}, {n} events per repetition, "
          f"{len(reps)} repetitions (first one warm-up)")
    print(f"report sha256 {hashlib.sha256(first.report).hexdigest()}")
    print(f"error_rate {len(failed) / len(reps):.6g} ratio "
          f"({len(failed)}/{len(reps)} repetitions failed)")
    if args.trace:
        traced_eps = statistics.median(r.events_per_s for r in traced)
        metrics = layer_metrics(traced, first.report, sim, n)
        metrics.update(analysis)
        metrics["tracing.events_per_s"] = traced_eps
        metrics["tracing.untraced_events_per_s"] = statistics.median(eps)
        metrics["tracing.overhead_pct"] = (statistics.median(eps) / traced_eps - 1) * 100
        print(f"per-event stage time p50/p99 from {n} events; "
              f"layer times from {len(traced)} traced repetitions")
    else:
        setups = [r.setup_s for r in plain]
        rss = [r.rss_mb for r in plain]
        metrics = {
            # Other guests on a shared host slow a repetition by a varying
            # share, up to 2x.  A median follows how much of the run was
            # contended and drifts by up to 20 % between runs; the slowest
            # repetition meets full contention and drifts about half as much.
            "events_per_s": min(eps),
            "setup_s": max(setups),
            "peak_rss_mb": statistics.median(rss),
        }
        print(f"events_per_s {metrics['events_per_s']:.6g} events/s "
              f"(slowest repetition; {spread(eps)})")
        print(f"setup_s {metrics['setup_s']:.6g} s (slowest repetition; {spread(setups)})")
        print(f"peak_rss_mb {metrics['peak_rss_mb']:.6g} MB (median; {spread(rss)})")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]}
    if args.trace:
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
