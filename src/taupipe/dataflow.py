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
  from the source, which offers event ``k`` at cycle ``k * P``;
* causality, for a streaming stage: ``t >= start(s-1, k) + latency(s-1) -
  latency(s)``, so the stage completes no earlier than its producer does
  (no hop is added: the producer's last output is read within the stage's
  own latency);
* output space: the output buffer holds fewer than ``depth`` iterations, so
  the consumer must have begun iteration ``k - depth`` in an earlier cycle
  (else backpressure).

Outputs of iteration ``k`` become visible ``latency_cycles`` after its start.
Timing depends on the stage table and the buffer depths, never on the data,
and the contract makes the chain a timed event graph (Baccelli, Cohen, Olsder
and Quadrat, *Synchronization and Linearity*, 1992).  With ``lead[s]`` the
cycles from the producer's start (the source's offer for stage 0) until stage
``s`` may begin, and ``step[s] = ii + hop``, its cycle time is the largest
mean of a circuit: a stage's spacing loop, ``step[s]``, or a hop's
forward-and-back circuit, ``(lead[s+1] + 1) / depth[s]``.  A circuit over
several hops is a sum of single-hop circuits, so its mean is no larger.  The
source paces events at ``P``, that cycle time rounded up to whole cycles, the
fastest pace at which no event queues.  Every bound then holds without a
wait: stage ``s`` begins event ``k`` at ``k * P + prefix[s]``, where
``prefix[s] = lead[0] + ... + lead[s]``, so every event's latency, from its
offer to the last stage's completion, is ``prefix[-1]`` plus the last
stage's latency, and the initiation interval is ``P`` at any event count.
The cycles a stage waits past its spacing are input stalls: ``prefix[s]``
for event 0 and ``P - step[s]`` for each later one.  No stage waits for
output space, so output stalls are 0.  ``run_pipeline`` returns ``lead``,
``step`` and the depths as one ``ChainTiming`` record, which derives these
figures.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from itertools import accumulate
from typing import Mapping, Sequence

from .core import MAX_CANDIDATES

# Fixed setup cost of merge solution B's round-robin state machine:
# size-register capture, index/count/availability reset.  One emitted item
# per cycle after that, so the full worst case takes 3 + 30 = 33 cycles.
MERGE_B_SETUP_CYCLES = 3

# Per-solution timing rows for the two stages that ship in two variants.
_MERGE_TIMING = {
    "A": (38, 34),
    "B": (MERGE_B_SETUP_CYCLES + MAX_CANDIDATES, MERGE_B_SETUP_CYCLES + MAX_CANDIDATES),
}
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


# The fields a stage override may set: every StageSpec field but its name.
STAGE_TIMING_FIELDS = tuple(f.name for f in fields(StageSpec) if f.name != "name")


@dataclass(frozen=True)
class ChainTiming:
    """Timing of a chain of stages, in the closed form of the module docstring.

    ``lead[s]`` is the cycles from the producer's start (the source's offer
    for stage 0) until stage ``s`` may begin, ``step[s]`` the cycles from
    one start of stage ``s`` to its next, and ``depths[s]`` the capacity, in
    iterations, of the buffer from stage ``s`` to stage ``s + 1``.  Latency
    and II are properties of the design, whatever the event count.
    """

    names: tuple[str, ...]
    lead: tuple[int, ...]
    step: tuple[int, ...]
    depths: tuple[int, ...]
    sink_latency_cycles: int

    @property
    def ii_cycles(self) -> int:
        """The pace ``P``: the largest circuit mean, rounded up to whole cycles."""
        # A hop's circuit, from the producer's start through the consumer's
        # start to the producer's start depth iterations on, takes lead + 1
        # cycles; -(-a // b) is the integer ceiling of a / b.
        hops = [-(-(lead + 1) // d) for lead, d in zip(self.lead[1:], self.depths)]
        return max(self.step + tuple(hops))

    @property
    def latency_cycles(self) -> int:
        """Every event's latency, from its offer to the last stage's completion."""
        return sum(self.lead) + self.sink_latency_cycles

    def input_stalls(self, n: int) -> tuple[int, ...]:
        """Cycles each stage waits past its spacing over ``n`` events: event 0
        waits ``prefix[s]`` past cycle 0, every later one ``P - step[s]``."""
        if not n:
            return (0,) * len(self.names)
        pace = self.ii_cycles
        return tuple(
            prefix + (n - 1) * (pace - step)
            for prefix, step in zip(accumulate(self.lead), self.step)
        )


def run_pipeline(specs: Sequence[StageSpec], depths: Sequence[int]) -> ChainTiming:
    """Timing of a chain of stages.

    ``depths[s]`` is the capacity, in iterations, of the buffer from stage
    ``s`` to stage ``s + 1``.  See the module docstring for the contract and
    the closed form.
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
    # The causality bound only binds a streaming stage: a store-and-forward
    # stage already waits for the producer's completion plus the hop.
    lead = [specs[0].hop_cycles] + [
        max(
            (spec.start_offset_cycles or producer.latency_cycles) + spec.hop_cycles,
            producer.latency_cycles - spec.latency_cycles,
        )
        for producer, spec in zip(specs, specs[1:])
    ]
    return ChainTiming(
        names=tuple(spec.name for spec in specs),
        lead=tuple(lead),
        step=tuple(spec.ii_cycles + spec.hop_cycles for spec in specs),
        depths=tuple(depths),
        sink_latency_cycles=specs[-1].latency_cycles,
    )


def default_stage_specs(merge_solution: str, clean_solution: str) -> dict[str, StageSpec]:
    """Stage timing table for the seven-step trigger pipeline, in chain order.

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
    rows = (
        StageSpec("seeding", 43, 43, hop_cycles=1),
        StageSpec("filtering", 38, 38, hop_cycles=1),
        StageSpec("merging", m_lat, m_ii, start_offset_cycles=MERGE_STREAM_OFFSET, hop_cycles=1),
        StageSpec("signal_selection", 37, 36, hop_cycles=1),
        StageSpec("tau_parameters", 59, 35, hop_cycles=1),
        StageSpec("tau_reconstruction", 1, 1, hop_cycles=1),
        StageSpec("cleaning", c_lat, c_ii, hop_cycles=2),
    )
    return {spec.name: spec for spec in rows}


TRIGGER_STAGE_NAMES = tuple(default_stage_specs("B", "B"))

DEFAULT_FIFO_DEPTH = 32


def trigger_timing(
    merge_solution: str,
    clean_solution: str,
    overrides: Mapping[str, Mapping[str, int]],
    fifo_depth: int,
) -> ChainTiming:
    """Timing of the seven-stage trigger chain of a solution pair.

    ``overrides`` maps a stage name to the ``STAGE_TIMING_FIELDS`` to set on
    top of the pair's rows.  Every hop is a FIFO of ``fifo_depth`` except
    filtering to merging under merge solution B, a ping-pong buffer: two
    banks of one iteration each, whatever the FIFO depth.
    """
    specs = default_stage_specs(merge_solution, clean_solution)
    for name, settings in overrides.items():
        if name not in specs:
            raise ValueError(f"unknown stage {name!r}, expected one of {TRIGGER_STAGE_NAMES}")
        for key in settings:
            if key not in STAGE_TIMING_FIELDS:
                raise ValueError(
                    f"stage {name}: unknown field {key!r}, expected one of {STAGE_TIMING_FIELDS}"
                )
        specs[name] = replace(specs[name], **settings)
    depths = [fifo_depth] * (len(specs) - 1)
    if merge_solution == "B":
        depths[1] = 2  # the hop out of filtering, stage 1 of the chain
    return run_pipeline(list(specs.values()), depths)
