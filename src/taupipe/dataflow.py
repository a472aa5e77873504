"""Timing model of the partitioned trigger pipeline.

Stages have a latency and an initiation interval and form a linear chain;
each hop between two stages is a bounded buffer (a FIFO, or the two-bank
ping-pong buffer of merge solution B).  Time is an integer cycle count.

Firing contract.  Stage ``s`` begins iteration ``k`` at the earliest cycle
``t`` satisfying all of:

* initiation spacing: ``t >= start(s, k-1) + ii + hop`` where ``hop`` is the
  stage's ``hop_cycles``, the per-iteration handshake overhead of its input
  hop;
* input availability: ``t >= ready + hop``, where ``ready`` is the
  producer's completion time of iteration ``k`` for a store-and-forward stage
  (``start_offset_cycles == 0``), or the producer's start time plus
  ``start_offset_cycles`` for a streaming stage (the offset asserts how much
  upstream progress makes downstream reads safe); the first stage reads
  from the source, which offers every event at once (cycle 0);
* causality, for a streaming stage: ``t >= start(s-1, k) + latency(s-1) -
  latency(s)``, so the stage completes no earlier than its producer does
  (no hop is added: the producer's last output is read within the stage's
  own latency);
* output space: the output buffer holds fewer than ``depth`` iterations, so
  the consumer must have begun iteration ``k - depth`` in an earlier cycle
  (else backpressure).

Outputs of iteration ``k`` become visible ``latency_cycles`` after its start.
Per-event latency is measured from the start of the event's transfer into the
first stage to the last stage's completion; the reported initiation interval
is the spacing of the last two sink completions, 0 for fewer than two events.
When a buffer rather than a stage limits throughput, the sink spacing need not
settle to one value, so the reported interval can depend on the event count.

Timing depends on the number of events only, never on their data, and the
contract makes the chain a timed event graph: start times follow a max-plus
recurrence (Baccelli, Cohen, Olsder and Quadrat, *Synchronization and
Linearity*, 1992).  Every bound refers to an earlier iteration of the same
stage, to the same iteration of the producer, or to the consumer ``depth >=
1`` iterations back, so one pass in iteration-major, stage-minor order
computes each start time exactly, and a linear chain cannot deadlock.  The
cycles a stage waits past its spacing count as input stalls while its input
is not ready (availability or causality), and as output stalls after that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

TRIGGER_STAGE_NAMES = (
    "seeding",
    "filtering",
    "merging",
    "signal_selection",
    "tau_parameters",
    "tau_reconstruction",
    "cleaning",
)

# Per-solution timing rows for the two stages that ship in two variants.
_MERGE_TIMING = {"A": (38, 34), "B": (33, 33)}
_CLEAN_TIMING = {"A": (13, 13), "B": (15, 13)}

# Default streaming offset of the merging stage: it begins draining the
# filter lists a few cycles after filtering starts emitting them, which is
# where the chain's total latency drops below the sum of stage latencies.
MERGE_STREAM_OFFSET = 4


@dataclass(frozen=True)
class StageSpec:
    """Static timing descriptor of one pipeline stage; ``hop_cycles`` is the
    handshake overhead of its input hop."""

    name: str
    latency_cycles: int
    ii_cycles: int
    start_offset_cycles: int = 0
    hop_cycles: int = 0

    def __post_init__(self) -> None:
        if self.ii_cycles < 1:
            raise ValueError(f"stage {self.name}: ii_cycles must be >= 1")
        if min(self.latency_cycles, self.start_offset_cycles, self.hop_cycles) < 0:
            raise ValueError(f"stage {self.name}: cycle counts must be non-negative")


@dataclass(frozen=True)
class StageStats:
    name: str
    input_stall_cycles: int
    output_stall_cycles: int


@dataclass(frozen=True)
class PipelineMetrics:
    """Measured end-to-end timing of one simulation run.

    ``start[s][k]`` is the cycle at which stage ``s`` begins iteration ``k``,
    the recurrence's own matrix; latency and II are derived from it.
    ``latency_cycles`` is the worst per-event latency; ``ii_cycles`` is the
    spacing of the last two sink completions (0 when fewer than two events
    were processed).  When a buffer limits throughput the sink spacing can
    alternate, and then ``ii_cycles`` depends on the event count.
    ``cdc_overhead_cycles`` records any clock-domain crossing allowance
    already folded into ``latency_cycles``.
    """

    latency_cycles: int
    ii_cycles: int
    stage_stats: tuple[StageStats, ...]
    start: tuple[tuple[int, ...], ...]
    cdc_overhead_cycles: int = 0


def run_pipeline(
    specs: Sequence[StageSpec], depths: Sequence[int], n_events: int
) -> PipelineMetrics:
    """Timing of ``n_events`` iterations through a chain of stages.

    ``depths[s]`` is the capacity, in iterations, of the buffer from stage
    ``s`` to stage ``s + 1``.  The source offers every event at once, so the
    first stage accepts each one as soon as it can, which is how the
    pipeline's own initiation interval is measured.  See the module
    docstring for the contract and the recurrence.
    """
    n_stages = len(specs)
    if n_stages == 0:
        raise ValueError("pipeline needs at least one stage")
    if len(depths) != n_stages - 1:
        raise ValueError(
            f"chain of {n_stages} stages needs {n_stages - 1} buffer depths, got {len(depths)}"
        )
    if any(d < 1 for d in depths):
        raise ValueError("buffer depths must be >= 1")
    if n_events < 0:
        raise ValueError("n_events must be non-negative")

    # Cycles from the producer's start (the source's offer for stage 0) until
    # stage s may begin, and from one start of stage s to its next.  The
    # causality bound only binds a streaming stage: a store-and-forward
    # stage already waits for the producer's completion plus the hop.
    lead = [specs[0].hop_cycles] + [
        max(
            (spec.start_offset_cycles or producer.latency_cycles) + spec.hop_cycles,
            producer.latency_cycles - spec.latency_cycles,
        )
        for producer, spec in zip(specs, specs[1:])
    ]
    step = [spec.ii_cycles + spec.hop_cycles for spec in specs]
    start = [[0] * n_events for _ in specs]
    in_stall = [0] * n_stages
    out_stall = [0] * n_stages
    last = n_stages - 1
    for k in range(n_events):
        for s in range(n_stages):
            spacing = start[s][k - 1] + step[s] if k else 0
            in_ok = (start[s - 1][k] if s else 0) + lead[s]
            ready = in_ok if in_ok > spacing else spacing
            t = ready
            if s < last and k >= depths[s]:
                freed = start[s + 1][k - depths[s]] + 1
                if freed > t:
                    t = freed
            start[s][k] = t
            in_stall[s] += ready - spacing
            out_stall[s] += t - ready

    # Event k enters stage 0 lead[0] cycles after its transfer begins and
    # leaves the sink sink_latency cycles after the sink begins it.
    sink_latency = specs[last].latency_cycles
    latency = max(
        (snk + sink_latency - (src - lead[0]) for snk, src in zip(start[last], start[0])),
        default=0,
    )
    return PipelineMetrics(
        latency_cycles=latency,
        ii_cycles=start[last][-1] - start[last][-2] if n_events > 1 else 0,
        stage_stats=tuple(
            StageStats(spec.name, in_stall[s], out_stall[s]) for s, spec in enumerate(specs)
        ),
        start=tuple(map(tuple, start)),
    )


def default_stage_specs(
    merge_solution: str = "B", clean_solution: str = "B"
) -> dict[str, StageSpec]:
    """Stage timing table for the seven-step trigger pipeline.

    Latency/II pairs are the per-stage timing of the partitioned design; the
    merging and cleaning rows depend on the selected solution (A or B).
    The merging stage carries the default streaming offset.  The hops add up
    to the 8-cycle arrangement/control allowance, split 1-2 cycles per hop.
    """
    try:
        m_lat, m_ii = _MERGE_TIMING[merge_solution]
        c_lat, c_ii = _CLEAN_TIMING[clean_solution]
    except KeyError as exc:
        raise ValueError(f"unknown solution {exc.args[0]!r}, expected 'A' or 'B'") from exc
    return {
        "seeding": StageSpec("seeding", 43, 43, hop_cycles=1),
        "filtering": StageSpec("filtering", 38, 38, hop_cycles=1),
        "merging": StageSpec(
            "merging", m_lat, m_ii, start_offset_cycles=MERGE_STREAM_OFFSET, hop_cycles=1
        ),
        "signal_selection": StageSpec("signal_selection", 37, 36, hop_cycles=1),
        "tau_parameters": StageSpec("tau_parameters", 59, 35, hop_cycles=1),
        "tau_reconstruction": StageSpec("tau_reconstruction", 1, 1, hop_cycles=1),
        "cleaning": StageSpec("cleaning", c_lat, c_ii, hop_cycles=2),
    }


DEFAULT_FIFO_DEPTH = 32


def channel_depths(merge_solution: str, fifo_depth: int) -> tuple[int, ...]:
    """Capacity, in iterations, of each hop of the trigger chain.

    Every hop is a FIFO of ``fifo_depth`` except filtering to merging under
    merge solution B, a ping-pong buffer: two banks of one iteration each,
    whatever the FIFO depth.
    """
    return tuple(
        2 if producer == "filtering" and merge_solution == "B" else fifo_depth
        for producer in TRIGGER_STAGE_NAMES[:-1]
    )


def trigger_timing(
    specs: Mapping[str, StageSpec], merge_solution: str, fifo_depth: int, n_events: int
) -> PipelineMetrics:
    """Timing of ``n_events`` events through the seven-stage trigger chain."""
    return run_pipeline(
        [specs[name] for name in TRIGGER_STAGE_NAMES],
        channel_depths(merge_solution, fifo_depth),
        n_events,
    )
