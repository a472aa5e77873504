"""Event ingestion, synthetic event generation, config and report formats.

All formats are line-oriented plain text with decimal integers so fixtures
diff cleanly:

* event files: a ``taupipe-events 1`` header line, then one record per
  particle: ``event_id slot pt eta phi species``;
* config files: ``key = value`` lines (``#`` comments and blanks ignored);
* run reports: line-delimited JSON records with sorted keys, one object per
  event plus one metrics object, led by a format/version record.

The event generator is a splitmix64 stream (64-bit adds, xor-shifts and
multiplies, all modulo 2^64), so a seed reproduces bit-identical events on
any platform.  Output k depends only on its counter, seed + (k + 1) * gamma,
so the stream is computed a block of lanes at a time: the same splitmix64
outputs, by counter.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, fields, replace
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

from .core import (
    ETA_MAX,
    N_INPUT,
    PAD_PARTICLE,
    PHI_HALF,
    PHI_RANGE,
    PT_MAX,
    Event,
    Particle,
    Species,
    make_event,
    wrap_phi,
)
from .dataflow import DEFAULT_FIFO_DEPTH, StageSpec, TRIGGER_STAGE_NAMES, default_stage_specs
from .stages import TriggerConfig

EVENT_FORMAT = "taupipe-events"
EVENT_FORMAT_VERSION = 1
REPORT_FORMAT = "taupipe-report"
REPORT_FORMAT_VERSION = 2
CONFIG_FORMAT_VERSION = 1


class EventFileError(ValueError):
    """Malformed event file; the message names the offending line."""


class ConfigError(ValueError):
    """Malformed or inconsistent config file; the message names the offending line."""


# ---------------------------------------------------------------------------
# event files


def write_events(events: Sequence[Event]) -> str:
    """Serialize events in canonical form: header, then valid particles only.

    Records are emitted per event in list order, slots ascending.  Padding
    slots are regenerated on parse, so an event consisting solely of padding
    cannot be represented.
    """
    lines = [f"{EVENT_FORMAT} {EVENT_FORMAT_VERSION}"]
    for ev in events:
        for slot, p in enumerate(ev.particles):
            if not p.valid:
                continue
            lines.append(f"{ev.event_id} {slot} {p.pt} {p.eta} {p.phi} {p.species.value}")
    return "\n".join(lines) + "\n"


# Species field of an event record -> its species.
_SPECIES_BY_NAME = {s.value: s for s in Species}


def parse_events(text: str, cfg: TriggerConfig | None = None) -> list[Event]:
    """Parse an event file into normalized events (padded to ``N_INPUT`` slots).

    Events appear in first-appearance order of their ids.  Integer fields
    are ASCII decimal with an optional leading ``-``.  ``cfg`` is not read:
    the slot, pt, eta and phi ranges are constants.  It stays because the
    benchmark (``bench/run.py``) passes a trigger config positionally.
    """
    lines = text.split("\n")
    if lines[0].split() != [EVENT_FORMAT, str(EVENT_FORMAT_VERSION)]:
        raise EventFileError(
            f"line 1: expected header '{EVENT_FORMAT} {EVENT_FORMAT_VERSION}'"
        )
    # event id -> its N_INPUT slots, PAD_PARTICLE where no record filled one
    slots_by_event: dict[int, list[Particle]] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 6:
            raise EventFileError(f"line {lineno}: expected 6 fields, got {len(fields)}")
        numbers = fields[:5]
        try:
            _check_decimal("".join(numbers))  # one test covers every field
            event_id, slot, pt, eta, phi = map(int, numbers)
        except ValueError:
            raise EventFileError(f"line {lineno}: non-integer field in {numbers}")
        species = _SPECIES_BY_NAME.get(fields[5])
        if species is None:
            raise EventFileError(f"line {lineno}: unknown species {fields[5]!r}")
        if not 0 <= slot < N_INPUT:
            raise EventFileError(f"line {lineno}: slot {slot} outside 0..{N_INPUT - 1}")
        if not 0 <= pt <= PT_MAX:
            raise EventFileError(f"line {lineno}: pt {pt} outside 0..{PT_MAX}")
        if not -ETA_MAX <= eta <= ETA_MAX:
            raise EventFileError(f"line {lineno}: |eta| {eta} exceeds {ETA_MAX}")
        if not -PHI_HALF <= phi < PHI_HALF:
            raise EventFileError(f"line {lineno}: phi {phi} outside [{-PHI_HALF}, {PHI_HALF})")
        slots = slots_by_event.get(event_id)
        if slots is None:
            slots = slots_by_event[event_id] = [PAD_PARTICLE] * N_INPUT
        elif slots[slot] is not PAD_PARTICLE:
            raise EventFileError(f"line {lineno}: duplicate slot {slot} in event {event_id}")
        slots[slot] = Particle(pt, eta, phi, species)
    return [Event(event_id, tuple(slots)) for event_id, slots in slots_by_event.items()]


# ---------------------------------------------------------------------------
# deterministic event generation

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# The stream is computed _LANES outputs at a time on one int of 128-bit lanes.
# splitmix64 output k depends only on state + (k + 1) * gamma, so lane i of a
# block holds the counter of draw i.  Every lane is masked below 2^64 before
# a multiply, so a product stays within its lane's 128 bits and no lane
# carries into the next.  A right shift moves the next lane's low bits only
# to bit 64 or above, which the next mask drops or, after the last shift,
# the "8x" pad of the little-endian readout skips.  1024 lanes drew slightly
# faster than 256.
_LANES = 1024
# A 64-bit value in the low half of each lane, in the int's little-endian bytes.
_LANE_LAYOUT = struct.Struct("<" + "Q8x" * _LANES)
_ONES = int.from_bytes(_LANE_LAYOUT.pack(*[1] * _LANES), "little")
_MASKS = _ONES * _MASK64
_STEPS = int.from_bytes(
    _LANE_LAYOUT.pack(*[(i + 1) * _GAMMA & _MASK64 for i in range(_LANES)]), "little"
)


def _splitmix64_blocks(state: int) -> Iterator[tuple[int, ...]]:
    """Successive blocks of ``_LANES`` splitmix64 outputs after ``state``."""
    while True:
        s = (state * _ONES + _STEPS) & _MASKS
        z = ((s ^ (s >> 30)) & _MASKS) * 0xBF58476D1CE4E5B9 & _MASKS
        z = ((z ^ (z >> 27)) & _MASKS) * 0x94D049BB133111EB & _MASKS
        yield _LANE_LAYOUT.unpack((z ^ (z >> 31)).to_bytes(16 * _LANES, "little"))
        state = (state + _LANES * _GAMMA) & _MASK64


class SplitMix64:
    """splitmix64 stream: the committed generator behind all fixtures."""

    def __init__(self, seed: int):
        # next_u64() returns the stream's next output
        self.next_u64 = chain.from_iterable(_splitmix64_blocks(seed & _MASK64)).__next__

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n); modulo bias is irrelevant at these sizes."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def chance(self, num: int, den: int) -> bool:
        return self.below(den) < num


def gen_events(
    seed: int, count: int, profile: str, cfg: TriggerConfig | None = None
) -> list[Event]:
    """Generate ``count`` events deterministically from ``seed``.

    Profiles shape multiplicity and topology: ``uniform`` scatters particles
    over the whole plane, ``clustered`` builds jet-like groups (sometimes
    chained so the cleaning step has real work), ``busy`` raises multiplicity
    with a cluster on top.  ``cfg`` is not read: the framing and the ranges
    are constants.  It stays because the benchmark (``bench/run.py``) passes
    a trigger config positionally.
    """
    if profile not in _PROFILES:
        raise ValueError(f"unknown profile {profile!r}, expected one of {GEN_PROFILES}")
    salt, build = _PROFILES[profile]
    rng = SplitMix64(seed ^ (salt * 0x2545F4914F6CDD1D))
    return [build(rng, k) for k in range(count)]


_SPECIES_ROLL = (
    Species.CHARGED_HADRON,
    Species.CHARGED_HADRON,
    Species.CHARGED_HADRON,
    Species.CHARGED_HADRON,
    Species.NEUTRAL_HADRON,
    Species.NEUTRAL_HADRON,
    Species.PHOTON,
    Species.ELECTRON,
    Species.CHARGED_HADRON,
    Species.MUON,
)


def _clamp_eta(eta: int) -> int:
    return max(-ETA_MAX, min(ETA_MAX, eta))


def _rand_particle(rng: SplitMix64, *, pt_lo: int, pt_hi: int) -> Particle:
    # Most of a busy event's draws are made here, so they come straight from
    # the stream: draw() % n is rng.below(n).
    draw = rng.next_u64
    pt = pt_lo + draw() % (pt_hi - pt_lo + 1)
    if draw() % 8 < 1:
        pt = min(pt + 200 + draw() % 800, PT_MAX)
    margin = 64
    eta = draw() % (2 * (ETA_MAX - margin) + 1) - (ETA_MAX - margin)
    phi = draw() % PHI_RANGE - PHI_HALF
    return Particle(pt, eta, phi, _SPECIES_ROLL[draw() % len(_SPECIES_ROLL)])


def _gen_uniform(rng: SplitMix64, event_id: int) -> Event:
    m = 12 + rng.below(37)
    particles = [_rand_particle(rng, pt_lo=1, pt_hi=180) for _ in range(m)]
    return make_event(event_id, particles)


def _gen_cluster(rng: SplitMix64, center_eta: int, center_phi: int, size: int) -> list[Particle]:
    members = []
    for i in range(size):
        eta = _clamp_eta(center_eta + rng.below(121) - 60)
        phi = wrap_phi(center_phi + rng.below(121) - 60)
        if i == 0:
            pt = 40 + rng.below(120)
            species = Species.CHARGED_HADRON
        else:
            pt = 2 + rng.below(40)
            species = _SPECIES_ROLL[rng.below(len(_SPECIES_ROLL))]
        members.append(Particle(pt, eta, phi, species))
    return members


def _gen_clustered(rng: SplitMix64, event_id: int) -> Event:
    particles: list[Particle] = []
    n_clusters = 2 + rng.below(4)
    prev: tuple[int, int] | None = None
    for _ in range(n_clusters):
        if prev is not None and rng.chance(1, 2):
            # chain: park this cluster close enough that the two reconstructed
            # taus contest the proximity cleaning
            ceta = _clamp_eta(prev[0] + 90 + rng.below(60))
            cphi = wrap_phi(prev[1] + rng.below(41) - 20)
        else:
            span = ETA_MAX - 400
            ceta = rng.below(2 * span + 1) - span
            cphi = rng.below(PHI_RANGE) - PHI_HALF
        size = 3 + rng.below(6)
        particles.extend(_gen_cluster(rng, ceta, cphi, size))
        prev = (ceta, cphi)
    background = 4 + rng.below(12)
    particles.extend(_rand_particle(rng, pt_lo=1, pt_hi=30) for _ in range(background))
    return make_event(event_id, particles[:N_INPUT])


def _gen_busy(rng: SplitMix64, event_id: int) -> Event:
    m = 60 + rng.below(50)
    particles = [_rand_particle(rng, pt_lo=1, pt_hi=120) for _ in range(m)]
    span = ETA_MAX - 400
    ceta = rng.below(2 * span + 1) - span
    cphi = rng.below(PHI_RANGE) - PHI_HALF
    particles.extend(_gen_cluster(rng, ceta, cphi, 4 + rng.below(5)))
    return make_event(event_id, particles[:N_INPUT])


# The generator profiles: name -> (stream salt, event builder).
_PROFILES = {
    "uniform": (0x75AF, _gen_uniform),
    "clustered": (0xC1F5, _gen_clustered),
    "busy": (0xB00C, _gen_busy),
}
GEN_PROFILES = tuple(_PROFILES)


# ---------------------------------------------------------------------------
# config files


@dataclass(frozen=True)
class RunConfig:
    """Everything a batch run needs besides the solution pair: algorithm and timing.

    The record checks its own fields, so a bad setting fails here, named,
    whether it comes from a config file or from code.
    """

    trigger: TriggerConfig = field(default_factory=TriggerConfig)
    # Explicit ``stage.<name>.<field>`` settings: stage name -> StageSpec
    # field -> value, applied on top of whichever solution rows are run.
    stage_overrides: Mapping[str, Mapping[str, int]] = field(default_factory=dict)
    # Capacity, in iterations, of every FIFO between two stages.
    fifo_depth: int = DEFAULT_FIFO_DEPTH

    def __post_init__(self) -> None:
        if self.fifo_depth < 1:
            raise ValueError("fifo_depth must be >= 1")
        # StageSpec checks each field on its own, so overrides that fit the
        # B/B rows fit every solution's rows.
        self.specs_for("B", "B")

    def specs_for(self, merge_solution: str, clean_solution: str) -> dict[str, StageSpec]:
        """Stage timing of the given solutions, with the config's overrides."""
        specs = default_stage_specs(merge_solution, clean_solution)
        for name, settings in self.stage_overrides.items():
            if name not in specs:
                raise ValueError(f"unknown stage {name!r}, expected one of {TRIGGER_STAGE_NAMES}")
            specs[name] = replace(specs[name], **settings)
        return specs


# Config keys of each record; ``stage.<name>.<field>`` keys set stage overrides.
_TRIGGER_KEYS = frozenset(f.name for f in fields(TriggerConfig))
_RUN_KEYS = frozenset(("fifo_depth",))

_STAGE_FIELD_BY_KEY = {
    "latency": "latency_cycles",
    "ii": "ii_cycles",
    "start_offset": "start_offset_cycles",
    "hop": "hop_cycles",
}


def _check_decimal(text: str) -> None:
    """Refuse what int() takes beyond ASCII digits with an optional leading
    ``-``: '_' separators, a '+' sign and non-ASCII digits."""
    if not text.isascii() or "_" in text or "+" in text:
        raise ValueError(f"not a decimal integer: {text!r}")


def _decimal(text: str) -> int:
    """``int(text)`` for ASCII digits with an optional leading ``-`` only."""
    _check_decimal(text)
    return int(text)


def _parse_value(key: str, value: str) -> object:
    """The typed value of a config key; every key not listed here is an integer."""
    if key == "allowed_signal_species":
        return frozenset(Species(v.strip()) for v in value.split(",") if v.strip())
    try:
        return _decimal(value)
    except ValueError:
        raise ValueError(f"key {key!r} needs an integer, got {value!r}") from None


def _stage_setting(key: str, value: str) -> tuple[str, dict[str, int]]:
    """Stage name and StageSpec field setting of a ``stage.<name>.<field>`` key."""
    parts = key.split(".")
    if len(parts) != 3 or parts[1] not in TRIGGER_STAGE_NAMES or parts[2] not in _STAGE_FIELD_BY_KEY:
        raise ValueError(
            f"unknown stage key {key!r}; expected "
            f"stage.<{'|'.join(TRIGGER_STAGE_NAMES)}>.<{'|'.join(_STAGE_FIELD_BY_KEY)}>"
        )
    return parts[1], {_STAGE_FIELD_BY_KEY[parts[2]]: _parse_value(key, value)}


def _build(record, kwargs: Mapping[str, object], lines: Mapping[str, int]):
    """``record(**kwargs)``, where ``lines`` gives the line of each config key
    set for the record.

    The defaults are consistent, so a set key is at fault: a ValueError blames
    the last line among the set keys that its message names, or else among
    all the set keys.
    """
    try:
        return record(**kwargs)
    except ValueError as exc:
        named = [n for k, n in lines.items() if k in str(exc)]
        raise ConfigError(f"line {max(named or lines.values())}: {exc}") from exc


def load_config(text: str) -> RunConfig:
    """Parse a ``key = value`` config; missing keys take the documented defaults.

    One pass in file order parses each value and files it under its record;
    then each record is built once and checks itself.  Unknown keys and
    values violating a structural invariant are errors; the raised message
    names the line and quotes the violated constraint.
    """
    trigger: dict[str, object] = {}
    run: dict[str, object] = {}
    overrides: dict[str, dict[str, int]] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        try:
            if not eq:
                raise ValueError(f"expected 'key = value', got {line!r}")
            if key in lines:
                raise ValueError(f"duplicate key {key!r}")
            lines[key] = lineno
            if key.startswith("stage."):
                stage, setting = _stage_setting(key, value)
                RunConfig(stage_overrides={stage: setting})  # checks the key on its own line
                overrides.setdefault(stage, {}).update(setting)
            elif key == "format_version":
                if _parse_value(key, value) != CONFIG_FORMAT_VERSION:
                    raise ValueError(f"unsupported config format_version {value}")
            elif key in _TRIGGER_KEYS:
                trigger[key] = _parse_value(key, value)
            elif key in _RUN_KEYS:
                run[key] = _parse_value(key, value)
            else:
                raise ValueError(f"unknown config key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc

    run_keys = lines.keys() - trigger.keys() - {"format_version"}
    return _build(
        RunConfig,
        dict(
            run,
            trigger=_build(TriggerConfig, trigger, {k: lines[k] for k in trigger}),
            stage_overrides=overrides,
        ),
        {k: lines[k] for k in run_keys},
    )


# ---------------------------------------------------------------------------
# run reports


def _canonical_json(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def build_report(event_ids: Sequence[int], tau_lists: Sequence[Sequence], point) -> list[dict]:
    """Assemble report records: header, one per event, and the metrics of
    the operating point ``point`` (a ``budget.OperatingPoint``)."""
    records: list[dict] = [{"format": REPORT_FORMAT, "version": REPORT_FORMAT_VERSION}]
    for event_id, taus in zip(event_ids, tau_lists):
        records.append(
            {
                "type": "event",
                "event_id": event_id,
                "taus": [
                    {"pt": t.pt, "eta": t.pos.eta, "phi": t.pos.phi} for t in taus
                ],
            }
        )
    m = {
        "type": "metrics",
        "latency_cycles": point.latency_cycles,
        "ii_cycles": point.timing.ii_cycles,
        "cdc_overhead_cycles": point.cdc_overhead_cycles,
        # no stage waits for output space (see ``taupipe.dataflow``)
        "stage_stats": [
            {"name": name, "input_stall_cycles": stalls, "output_stall_cycles": 0}
            for name, stalls in zip(
                point.timing.names, point.timing.input_stalls(len(event_ids))
            )
        ],
        "frequency_mhz": point.frequency_mhz,
        "latency_budget_cycles": point.latency_budget_cycles,
        "ii_budget_cycles": point.ii_budget_cycles,
        "latency_slack_cycles": point.latency_slack_cycles,
        "ii_slack_cycles": point.ii_slack_cycles,
        "feasible": point.feasible,
    }
    records.append(m)
    return records


def serialize_report(records: Iterable[dict]) -> str:
    """Canonical bytes: one JSON object per line, sorted keys, no locale."""
    return "\n".join(_canonical_json(r) for r in records) + "\n"


def parse_report(text: str) -> list[dict]:
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    if not records or records[0].get("format") != REPORT_FORMAT:
        raise ValueError(f"not a {REPORT_FORMAT} stream")
    if records[0].get("version") != REPORT_FORMAT_VERSION:
        raise ValueError(f"unsupported report version {records[0].get('version')}")
    return records
