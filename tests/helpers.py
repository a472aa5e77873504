"""Shared builders for the test suite."""

from __future__ import annotations

import re

from taupipe.core import (
    ETA_MAX,
    N_INPUT,
    N_SEEDS,
    PAD_PARTICLE,
    PHI_HALF,
    PT_MAX,
    AngularCoord,
    Event,
    OpCounter,
    Particle,
    Species,
    make_event,
)
from taupipe.dataflow import StageStats
from taupipe.eventio import EVENT_FORMAT, EVENT_FORMAT_VERSION, EventFileError, SplitMix64
from taupipe.stages import (
    INVALID_TAU,
    CandidateList,
    Tau,
    TauParams,
    TriggerConfig,
    clean_solution_b,
    compute_tau_params,
    compute_total_pt,
    filter_block,
    merge_solution_b,
    reconstruct_tau,
    select_seeds,
    select_signal_candidates,
)


def tau(pt: int, eta: int, phi: int) -> Tau:
    return Tau(pt, AngularCoord(eta, phi), True)


def fig5_taus() -> tuple[Tau, ...]:
    """Six taus in three proximity groups with pts 74/37/25/25/70/59.

    Groups sit far apart (eta separation ~2000 units); members of a group sit
    within the proximity radius of each other.  Slots 7..16 stay invalid.
    """
    centers = {"A": (-2000, 0), "B": (0, 0), "C": (2000, 0)}
    layout = [
        ("A", 74, 0, 0),
        ("B", 37, 0, 0),
        ("A", 25, 40, 30),
        ("B", 25, 50, -20),
        ("C", 70, 0, 0),
        ("B", 59, -30, 40),
    ]
    taus = [INVALID_TAU] * 16
    for i, (group, pt, de, dp) in enumerate(layout):
        ce, cp = centers[group]
        taus[i] = tau(pt, ce + de, cp + dp)
    return tuple(taus)


def random_tau_slots(rng: SplitMix64, n_slots: int = 16) -> tuple[Tau, ...]:
    """Random 16-slot instance with duplicated pts and proximity chains.

    Positions live on a 120-unit grid: orthogonally adjacent cells are within
    the default proximity radius, diagonal and farther cells are not, so
    chained neighborhoods occur naturally.
    """
    taus = [INVALID_TAU] * n_slots
    for i in range(n_slots):
        if rng.chance(7, 8):
            pt = 1 + rng.below(24)
            eta = (rng.below(13) - 6) * 120
            phi = (rng.below(13) - 6) * 120
            taus[i] = tau(pt, eta, phi)
    return tuple(taus)


def random_merge_lists(rng: SplitMix64) -> list[list[int]]:
    """Four source lists of unique int items; a quarter of draws stay small."""
    small = rng.chance(1, 4)
    sizes = [rng.below(9) if small else rng.below(33) for _ in range(4)]
    return [[lst * 1000 + i for i in range(size)] for lst, size in enumerate(sizes)]


def chain_taus() -> tuple[Tau, ...]:
    """a > b > c in pt; a near b, b near c, a not near c."""
    taus = [INVALID_TAU] * N_SEEDS
    taus[0] = tau(90, 0, 0)
    taus[1] = tau(50, 150, 0)
    taus[2] = tau(30, 300, 0)
    return tuple(taus)


def stage_op_counts(cfg: TriggerConfig) -> dict[str, OpCounter]:
    """Op counts of each stage function on one small probe: a seed of pt 50
    at (0, 0) and a near particle of pt 10 at (3, 4)."""
    seed = Particle(50, 0, 0)
    near = Particle(10, 3, 4)
    one = CandidateList(seed, (near,), compute_total_pt((near,)))
    taus = [INVALID_TAU] * N_SEEDS
    taus[0] = tau(30, 0, 0)
    taus[1] = tau(20, 3, 4)
    probes = {
        "seeding": lambda ops: select_seeds(make_event(0, [seed]), cfg, ops),
        "filtering": lambda ops: filter_block([near], seed, cfg, ops),
        "merging": lambda ops: merge_solution_b([[near], [], [], []], cfg, ops),
        "signal_selection": lambda ops: select_signal_candidates(one, cfg, ops),
        "tau_parameters": lambda ops: compute_tau_params(one, cfg, ops),
        "tau_reconstruction": lambda ops: reconstruct_tau(TauParams(50, 0, 0), cfg, ops),
        "cleaning": lambda ops: clean_solution_b(tuple(taus), cfg, ops),
    }
    counts = {}
    for stage, probe in probes.items():
        counts[stage] = OpCounter()
        probe(counts[stage])
    return counts


def tick_reference(specs, depths, n_events):
    """Cycle-stepping reference of the dataflow firing contract: the start
    cycle of every stage and iteration, and the stall counts of each stage.

    Every cycle visits the stages in chain order, so a consumer sees an
    iteration its producer began in the same cycle, and a producer sees the
    buffer place a consumer frees only from the next cycle.  Buffers are
    occupancy counters; no timing is derived in closed form.  A streaming
    stage also waits until it would complete no earlier than its producer.
    The source offers every event at cycle 0.
    """
    n_stages = len(specs)
    starts = [[] for _ in specs]
    occupancy = [0] * (n_stages - 1)
    in_stall = [0] * n_stages
    out_stall = [0] * n_stages
    t = -1
    while len(starts[-1]) < n_events:
        t += 1
        for s, spec in enumerate(specs):
            k = len(starts[s])
            if k == n_events:
                continue
            if k and t < starts[s][k - 1] + spec.ii_cycles + spec.hop_cycles:
                continue
            if s == 0:
                ready = spec.hop_cycles
            elif len(starts[s - 1]) > k:
                producer = starts[s - 1][k]
                upstream = specs[s - 1].latency_cycles
                ready = producer + (spec.start_offset_cycles or upstream) + spec.hop_cycles
                if spec.start_offset_cycles:
                    ready = max(ready, producer + upstream - spec.latency_cycles)
            else:
                ready = None  # the producer has not begun iteration k
            if ready is None or t < ready:
                in_stall[s] += 1
            elif s < n_stages - 1 and occupancy[s] == depths[s]:
                out_stall[s] += 1
            else:
                if s:
                    occupancy[s - 1] -= 1
                if s < n_stages - 1:
                    occupancy[s] += 1
                starts[s].append(t)
    return tuple(map(tuple, starts)), tuple(
        StageStats(spec.name, i, o) for spec, i, o in zip(specs, in_stall, out_stall)
    )


DECIMAL = re.compile(r"-?[0-9]+")


def reference_parse_events(text: str) -> list[Event]:
    """Line-by-line reference of ``parse_events``: strip, then split; each
    integer field matched against ``-?[0-9]+``; the species by enum lookup;
    each particle through the ``Particle`` constructor; a slot dict per event, padded at
    the end.  Same checks, order and messages."""
    half = PHI_HALF
    lines = text.split("\n")
    if lines[0].split() != [EVENT_FORMAT, str(EVENT_FORMAT_VERSION)]:
        raise EventFileError(
            f"line 1: expected header '{EVENT_FORMAT} {EVENT_FORMAT_VERSION}'"
        )
    slots_by_event: dict[int, dict] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 6:
            raise EventFileError(f"line {lineno}: expected 6 fields, got {len(fields)}")
        if not all(DECIMAL.fullmatch(x) for x in fields[:5]):
            raise EventFileError(f"line {lineno}: non-integer field in {fields[:5]}")
        event_id, slot, pt, eta, phi = map(int, fields[:5])
        try:
            species = Species(fields[5])
        except ValueError:
            raise EventFileError(f"line {lineno}: unknown species {fields[5]!r}")
        if not 0 <= slot < N_INPUT:
            raise EventFileError(f"line {lineno}: slot {slot} outside 0..{N_INPUT - 1}")
        if not 0 <= pt <= PT_MAX:
            raise EventFileError(f"line {lineno}: pt {pt} outside 0..{PT_MAX}")
        if abs(eta) > ETA_MAX:
            raise EventFileError(f"line {lineno}: |eta| {eta} exceeds {ETA_MAX}")
        if not -half <= phi < half:
            raise EventFileError(f"line {lineno}: phi {phi} outside [{-half}, {half})")
        slots = slots_by_event.setdefault(event_id, {})
        if slot in slots:
            raise EventFileError(f"line {lineno}: duplicate slot {slot} in event {event_id}")
        slots[slot] = Particle(pt, eta, phi, species)
    events = []
    for event_id, slots in slots_by_event.items():
        particles = [PAD_PARTICLE] * N_INPUT
        for slot, particle in slots.items():
            particles[slot] = particle
        events.append(Event(event_id, tuple(particles)))
    return events
