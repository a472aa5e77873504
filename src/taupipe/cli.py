"""Command-line front end: batch runs and budget exploration of every solution pair.

Exit codes: 0 success, 1 constraint infeasible or functional divergence,
2 input error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .budget import LATENCY_BUDGET_CYCLES, NOMINAL_FREQ_MHZ, operating_point
from .core import PAD_PARTICLE, Event
from .dataflow import trigger_timing
from .eventio import (
    ConfigError,
    EventFileError,
    GEN_PROFILES,
    RunConfig,
    _decimal,
    build_report,
    gen_events,
    load_config,
    parse_events,
    serialize_report,
    write_events,
)
from .reference import oracle_trigger
from .stages import CLEAN_SOLUTIONS, MERGE_SOLUTIONS, run_stages


class InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


def _read_text(path: str, what: str) -> str:
    """The file's text, decoded as UTF-8 whatever the locale."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc}")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{what} {path}: line {lineno}: not valid UTF-8")


def _load_run_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    text = _read_text(path, "config")
    try:
        return load_config(text)
    except ConfigError as exc:
        raise InputError(f"config {path}: {exc}")


def _gen_spec(spec: str) -> tuple[int, int, str]:
    """Seed, count and profile of a ``--gen SEED:COUNT:PROFILE`` value."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise InputError("--gen expects SEED:COUNT:PROFILE")
    try:
        seed = _decimal(parts[0])
        count = _decimal(parts[1])
    except ValueError:
        raise InputError(f"--gen seed and count must be integers, got {spec!r}")
    profile = parts[2]
    if profile not in GEN_PROFILES:
        raise InputError(f"--gen profile must be one of {GEN_PROFILES}, got {profile!r}")
    if count < 0:
        raise InputError("--gen count must be non-negative")
    return seed, count, profile


def _load_events(args: argparse.Namespace) -> tuple[list[Event], str]:
    if bool(args.events) == bool(args.gen):
        raise InputError("exactly one of --events FILE or --gen SEED:COUNT:PROFILE is required")
    if args.events:
        text = _read_text(args.events, "events")
        try:
            events = parse_events(text)
        except EventFileError as exc:
            raise InputError(f"events {args.events}: {exc}")
        return events, f"file {args.events}"
    return gen_events(*_gen_spec(args.gen)), f"gen {args.gen}"


def cmd_run(args: argparse.Namespace) -> int:
    run_cfg = _load_run_config(args.config)
    events, source_desc = _load_events(args)
    if not events:
        raise InputError(f"run needs at least 1 event, got {len(events)}")
    merge, clean = args.merge, args.clean
    trigger = run_cfg.trigger

    def diverges(ev: Event) -> bool:
        return run_stages(ev, trigger, merge, clean) != oracle_trigger(ev, trigger, merge)

    # Every event is checked against the reference until the first divergence.
    outputs = []
    divergent = None
    for ev in events:
        got = run_stages(ev, trigger, merge, clean)
        outputs.append(got)
        if divergent is None and got != oracle_trigger(ev, trigger, merge):
            divergent = ev.event_id
            minimized = _minimize_divergent_event(ev, diverges)
            sys.stderr.write("counterexample event:\n" + write_events([minimized]))

    timing = trigger_timing(merge, clean, run_cfg.stage_overrides, run_cfg.fifo_depth)
    point = operating_point(timing, args.freq)

    if args.report:
        records = build_report([ev.event_id for ev in events], outputs, point)
        try:
            Path(args.report).write_text(serialize_report(records))
        except OSError as exc:
            raise InputError(f"cannot write report {args.report}: {exc}")

    print(f"events: {len(events)} ({source_desc})")
    print(f"variants: merge {merge}, clean {clean}")
    print(
        f"latency: {point.latency_cycles} cycles  ii: {point.timing.ii_cycles} cycles  "
        f"(cdc +{point.cdc_overhead_cycles})"
    )
    print(
        f"budget @{point.frequency_mhz} MHz: latency {point.latency_budget_cycles}, "
        f"ii {point.ii_budget_cycles} -> "
        f"{'feasible' if point.feasible else 'INFEASIBLE'} "
        f"(slack {point.latency_slack_cycles}/{point.ii_slack_cycles})"
    )
    if divergent is None:
        print(f"oracle check: ok ({len(events)} events)")
    else:
        print(f"oracle check: DIVERGENT at event {divergent}")
    if args.report:
        print(f"report: {args.report}")

    if divergent is not None or not point.feasible:
        return 1
    return 0


def _minimize_divergent_event(event: Event, diverges) -> Event:
    """Greedy shrink: drop valid particles while the divergence persists."""
    current = event
    improved = True
    while improved:
        improved = False
        for slot, p in enumerate(current.particles):
            if not p.valid:
                continue
            particles = list(current.particles)
            particles[slot] = PAD_PARTICLE
            candidate = Event(current.event_id, tuple(particles))
            if diverges(candidate):
                current = candidate
                improved = True
    return current


def cmd_explore(args: argparse.Namespace) -> int:
    run_cfg = _load_run_config(args.config)
    try:
        freq_values = [_decimal(f.strip()) for f in args.freqs.split(",")]
    except ValueError:
        raise InputError(f"--freqs values must be integers, got {args.freqs!r}")

    pairs = [(merge, clean) for merge in MERGE_SOLUTIONS for clean in CLEAN_SOLUTIONS]
    bases = [
        trigger_timing(merge, clean, run_cfg.stage_overrides, run_cfg.fifo_depth)
        for merge, clean in pairs
    ]

    columns = []  # per clock, the operating point of every pair
    for freq in freq_values:
        try:
            columns.append([operating_point(base, freq) for base in bases])
        except ValueError as exc:  # a clock too slow for one cycle of a budget
            raise InputError(f"--freqs {freq}: {exc}")

    print("operating point exploration")
    print(f"{'':32s}" + "".join(f"{f'{freq} MHz':>12s}" for freq in freq_values))

    def row(label: str, values) -> None:
        print(f"{label:32s}" + "".join(f"{v:>12}" for v in values))

    firsts = [column[0] for column in columns]  # budgets and allowance hold for every pair
    row("latency budget, cycles", [p.latency_budget_cycles for p in firsts])
    row("ii budget, cycles", [p.ii_budget_cycles for p in firsts])
    row("cdc overhead, cycles", [p.cdc_overhead_cycles for p in firsts])
    for i, (merge, clean) in enumerate(pairs):
        points = [column[i] for column in columns]
        label = f"merge {merge}, clean {clean}:"
        row(f"{label} latency", [p.latency_cycles for p in points])
        row(f"{label} ii", [p.timing.ii_cycles for p in points])
        row(f"{label} feasible", ["yes" if p.feasible else "no" for p in points])
    return 0


def _int_arg(text: str) -> int:
    """An ASCII decimal integer option value, with argparse's own message."""
    try:
        return _decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taupipe",
        description="Tau trigger pipeline: functional model, dataflow timing, budgets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the pipeline and report metrics")
    p_run.add_argument("--events", metavar="FILE", help="event file to process")
    p_run.add_argument("--gen", metavar="SEED:COUNT:PROFILE", help="generate events")
    p_run.add_argument("--config", metavar="FILE", help="config file (key = value)")
    p_run.add_argument("--merge", choices=tuple(MERGE_SOLUTIONS), default="B",
                       help="merge solution (default B)")
    p_run.add_argument("--clean", choices=tuple(CLEAN_SOLUTIONS), default="B",
                       help="clean solution (default B)")
    p_run.add_argument("--freq", type=_int_arg, choices=tuple(LATENCY_BUDGET_CYCLES),
                       default=NOMINAL_FREQ_MHZ, help="operating frequency in MHz")
    p_run.add_argument("--report", metavar="FILE", help="write the machine-readable report")
    p_run.set_defaults(func=cmd_run)

    p_exp = sub.add_parser(
        "explore", help="per-frequency budgets and feasibility of every solution pair"
    )
    p_exp.add_argument("--config", metavar="FILE", help="config file (key = value)")
    p_exp.add_argument("--freqs", required=True, metavar="LIST",
                       help="comma-separated MHz values, e.g. 360,300")
    p_exp.set_defaults(func=cmd_explore)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
