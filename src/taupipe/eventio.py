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
any platform.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

from .core import (
    Event,
    Particle,
    Species,
    event_from_slots,
    make_event,
    make_particle,
    wrap_phi,
)
from .dataflow import (
    DEFAULT_CDC_OVERHEAD_CYCLES,
    EngineConfig,
    StageSpec,
    TRIGGER_STAGE_NAMES,
    default_stage_specs,
)
from .budget import II_BUDGET_NS, LATENCY_BUDGET_CYCLES, TimingBudget
from .stages import CLEAN_SOLUTIONS, MERGE_SOLUTIONS, TriggerConfig

EVENT_FORMAT = "taupipe-events"
EVENT_FORMAT_VERSION = 1
REPORT_FORMAT = "taupipe-report"
REPORT_FORMAT_VERSION = 1
CONFIG_FORMAT_VERSION = 1

GEN_PROFILES = ("uniform", "clustered", "busy")


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
            lines.append(
                f"{ev.event_id} {slot} {p.pt} {p.pos.eta} {p.pos.phi} {p.kind.species.value}"
            )
    return "\n".join(lines) + "\n"


def parse_events(text: str, cfg: TriggerConfig | None = None) -> list[Event]:
    """Parse an event file into normalized events (padded to ``n_input`` slots).

    Events appear in first-appearance order of their ids.  Charged species
    are assigned the canonical +1 charge; the algorithm never consumes the
    sign.
    """
    cfg = cfg or TriggerConfig()
    half = cfg.phi_range // 2
    lines = text.splitlines()
    if not lines or lines[0].split() != [EVENT_FORMAT, str(EVENT_FORMAT_VERSION)]:
        raise EventFileError(
            f"line 1: expected header '{EVENT_FORMAT} {EVENT_FORMAT_VERSION}'"
        )
    slots_by_event: dict[int, dict[int, Particle]] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 6:
            raise EventFileError(f"line {lineno}: expected 6 fields, got {len(fields)}")
        try:
            event_id, slot, pt, eta, phi = (int(x) for x in fields[:5])
        except ValueError:
            raise EventFileError(f"line {lineno}: non-integer field in {fields[:5]}")
        try:
            species = Species(fields[5])
        except ValueError:
            raise EventFileError(f"line {lineno}: unknown species {fields[5]!r}")
        if not 0 <= slot < cfg.n_input:
            raise EventFileError(f"line {lineno}: slot {slot} outside 0..{cfg.n_input - 1}")
        if not 0 <= pt <= cfg.pt_max:
            raise EventFileError(f"line {lineno}: pt {pt} outside 0..{cfg.pt_max}")
        if abs(eta) > cfg.eta_max:
            raise EventFileError(f"line {lineno}: |eta| {eta} exceeds {cfg.eta_max}")
        if not -half <= phi < half:
            raise EventFileError(f"line {lineno}: phi {phi} outside [{-half}, {half})")
        slots = slots_by_event.setdefault(event_id, {})
        if slot in slots:
            raise EventFileError(f"line {lineno}: duplicate slot {slot} in event {event_id}")
        slots[slot] = make_particle(pt, eta, phi, species)
    return [
        event_from_slots(event_id, slots, n_input=cfg.n_input)
        for event_id, slots in slots_by_event.items()
    ]


# ---------------------------------------------------------------------------
# deterministic event generation

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream: the committed generator behind all fixtures."""

    _GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + self._GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n); modulo bias is irrelevant at these sizes."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def chance(self, num: int, den: int) -> bool:
        return self.below(den) < num


_PROFILE_SALT = {"uniform": 0x75AF, "clustered": 0xC1F5, "busy": 0xB00C}


def gen_events(
    seed: int, count: int, profile: str, cfg: TriggerConfig | None = None
) -> list[Event]:
    """Generate ``count`` events deterministically from ``seed``.

    Profiles shape multiplicity and topology: ``uniform`` scatters particles
    over the whole plane, ``clustered`` builds jet-like groups (sometimes
    chained so the cleaning step has real work), ``busy`` raises multiplicity
    with a cluster on top.
    """
    if profile not in GEN_PROFILES:
        raise ValueError(f"unknown profile {profile!r}, expected one of {GEN_PROFILES}")
    cfg = cfg or TriggerConfig()
    rng = SplitMix64(seed ^ (_PROFILE_SALT[profile] * 0x2545F4914F6CDD1D))
    events = []
    for k in range(count):
        if profile == "uniform":
            events.append(_gen_uniform(rng, k, cfg))
        elif profile == "clustered":
            events.append(_gen_clustered(rng, k, cfg))
        else:
            events.append(_gen_busy(rng, k, cfg))
    return events


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


def _rand_species(rng: SplitMix64) -> Species:
    return _SPECIES_ROLL[rng.below(len(_SPECIES_ROLL))]


def _clamp_eta(eta: int, cfg: TriggerConfig) -> int:
    return max(-cfg.eta_max, min(cfg.eta_max, eta))


def _rand_particle(rng: SplitMix64, cfg: TriggerConfig, *, pt_lo: int, pt_hi: int) -> Particle:
    pt = pt_lo + rng.below(pt_hi - pt_lo + 1)
    if rng.chance(1, 8):
        pt = min(pt + 200 + rng.below(800), cfg.pt_max)
    margin = 64
    eta = rng.below(2 * (cfg.eta_max - margin) + 1) - (cfg.eta_max - margin)
    phi = rng.below(cfg.phi_range) - cfg.phi_range // 2
    return make_particle(pt, eta, phi, _rand_species(rng))


def _gen_uniform(rng: SplitMix64, event_id: int, cfg: TriggerConfig) -> Event:
    m = 12 + rng.below(37)
    particles = [_rand_particle(rng, cfg, pt_lo=1, pt_hi=180) for _ in range(m)]
    return make_event(event_id, particles, n_input=cfg.n_input)


def _gen_cluster(
    rng: SplitMix64, cfg: TriggerConfig, center_eta: int, center_phi: int, size: int
) -> list[Particle]:
    members = []
    for i in range(size):
        eta = _clamp_eta(center_eta + rng.below(121) - 60, cfg)
        phi = wrap_phi(center_phi + rng.below(121) - 60, cfg.phi_range)
        if i == 0:
            pt = 40 + rng.below(120)
            species = Species.CHARGED_HADRON
        else:
            pt = 2 + rng.below(40)
            species = _rand_species(rng)
        members.append(make_particle(pt, eta, phi, species))
    return members


def _gen_clustered(rng: SplitMix64, event_id: int, cfg: TriggerConfig) -> Event:
    particles: list[Particle] = []
    n_clusters = 2 + rng.below(4)
    prev: tuple[int, int] | None = None
    for _ in range(n_clusters):
        if prev is not None and rng.chance(1, 2):
            # chain: park this cluster close enough that the two reconstructed
            # taus contest the proximity cleaning
            ceta = _clamp_eta(prev[0] + 90 + rng.below(60), cfg)
            cphi = wrap_phi(prev[1] + rng.below(41) - 20, cfg.phi_range)
        else:
            span = cfg.eta_max - 400
            ceta = rng.below(2 * span + 1) - span
            cphi = rng.below(cfg.phi_range) - cfg.phi_range // 2
        size = 3 + rng.below(6)
        particles.extend(_gen_cluster(rng, cfg, ceta, cphi, size))
        prev = (ceta, cphi)
    background = 4 + rng.below(12)
    particles.extend(
        _rand_particle(rng, cfg, pt_lo=1, pt_hi=30) for _ in range(background)
    )
    return make_event(event_id, particles[: cfg.n_input], n_input=cfg.n_input)


def _gen_busy(rng: SplitMix64, event_id: int, cfg: TriggerConfig) -> Event:
    m = 60 + rng.below(50)
    particles = [_rand_particle(rng, cfg, pt_lo=1, pt_hi=120) for _ in range(m)]
    span = cfg.eta_max - 400
    ceta = rng.below(2 * span + 1) - span
    cphi = rng.below(cfg.phi_range) - cfg.phi_range // 2
    particles.extend(_gen_cluster(rng, cfg, ceta, cphi, 4 + rng.below(5)))
    return make_event(event_id, particles[: cfg.n_input], n_input=cfg.n_input)


# ---------------------------------------------------------------------------
# config files


@dataclass(frozen=True)
class RunConfig:
    """Everything a batch run needs: algorithm, variants, timing, budgets."""

    trigger: TriggerConfig = field(default_factory=TriggerConfig)
    merge_solution: str = "B"
    clean_solution: str = "B"
    # Explicit ``stage.<name>.<field>`` settings: stage name -> StageSpec
    # field -> value, applied on top of whichever solution rows are run.
    stage_overrides: Mapping[str, Mapping[str, int]] = field(default_factory=dict)
    engine: EngineConfig = field(default_factory=EngineConfig)
    cdc_overhead_cycles: int = DEFAULT_CDC_OVERHEAD_CYCLES
    ii_budget_ns: int = II_BUDGET_NS
    latency_budgets: Mapping[int, int] = field(
        default_factory=lambda: dict(LATENCY_BUDGET_CYCLES)
    )

    def specs_for(self, merge_solution: str, clean_solution: str) -> dict[str, StageSpec]:
        """Stage timing of the given solutions, with the config's overrides."""
        specs = default_stage_specs(merge_solution, clean_solution)
        for name, fields in self.stage_overrides.items():
            specs[name] = replace(specs[name], **fields)
        return specs

    def budget_for(self, freq_mhz: int) -> TimingBudget:
        return TimingBudget.for_frequency(
            freq_mhz,
            ii_budget_ns=self.ii_budget_ns,
            latency_table=self.latency_budgets,
        )


_TRIGGER_INT_KEYS = (
    "n_input",
    "n_seeds",
    "n_filter_blocks",
    "block_size",
    "max_candidates",
    "max_taus",
    "filter_cone_r2",
    "signal_cone_k",
    "signal_cone_r2_min",
    "signal_cone_r2_max",
    "proximity_r2",
    "min_seed_pt",
    "min_tau_pt",
    "pt_max",
    "phi_range",
    "eta_max",
)

_STAGE_FIELD_BY_KEY = {
    "latency": "latency_cycles",
    "ii": "ii_cycles",
    "start_offset": "start_offset_cycles",
}


def _parse_kv_lines(text: str) -> dict[str, tuple[int, str]]:
    entries: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = (lineno, value)
    return entries


def _to_int(key: str, lineno: int, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: key {key!r} needs an integer, got {value!r}")


def load_config(text: str) -> RunConfig:
    """Parse a ``key = value`` config; missing keys take the documented defaults.

    Unknown keys and values violating a structural invariant are errors; the
    raised message names the line and quotes the violated constraint.
    """
    entries = _parse_kv_lines(text)

    def take(key: str) -> tuple[int, str] | None:
        return entries.pop(key, None)

    got = take("format_version")
    if got is not None and _to_int("format_version", *got) != CONFIG_FORMAT_VERSION:
        raise ConfigError(f"line {got[0]}: unsupported config format_version {got[1]}")

    trigger_kwargs: dict[str, object] = {}
    trigger_lines: dict[str, int] = {}
    for key in _TRIGGER_INT_KEYS:
        got = take(key)
        if got is not None:
            trigger_kwargs[key] = _to_int(key, *got)
            trigger_lines[key] = got[0]
    got = take("allowed_signal_species")
    if got is not None:
        lineno, value = got
        names = [v.strip() for v in value.split(",") if v.strip()]
        try:
            trigger_kwargs["allowed_signal_species"] = frozenset(Species(n) for n in names)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}")
    try:
        trigger = TriggerConfig(**trigger_kwargs)
    except ValueError as exc:
        # The defaults are consistent, so a set key is at fault: blame the
        # last line among the set keys that the message names, or else among
        # all the set keys.
        named = [n for k, n in trigger_lines.items() if k in str(exc)]
        lineno = max(named or trigger_lines.values())
        raise ConfigError(f"line {lineno}: {exc}") from exc

    merge_solution = "B"
    clean_solution = "B"
    got = take("merge_solution")
    if got is not None:
        merge_solution = got[1].upper()
        if merge_solution not in MERGE_SOLUTIONS:
            raise ConfigError(f"line {got[0]}: merge_solution must be one of {MERGE_SOLUTIONS}")
    got = take("clean_solution")
    if got is not None:
        clean_solution = got[1].upper()
        if clean_solution not in CLEAN_SOLUTIONS:
            raise ConfigError(f"line {got[0]}: clean_solution must be one of {CLEAN_SOLUTIONS}")

    engine = EngineConfig()
    for key in ("fifo_depth", "feed_period", "hop_overheads"):
        got = take(key)
        if got is None:
            continue
        lineno, value = got
        if key == "hop_overheads":
            try:
                parsed: object = tuple(int(v.strip()) for v in value.split(",") if v.strip())
            except ValueError:
                raise ConfigError(f"line {lineno}: hop_overheads needs comma-separated integers")
        else:
            parsed = _to_int(key, lineno, value)
        try:
            engine = replace(engine, **{key: parsed})
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc

    cdc = DEFAULT_CDC_OVERHEAD_CYCLES
    got = take("cdc_overhead_cycles")
    if got is not None:
        cdc = _to_int("cdc_overhead_cycles", *got)
        if cdc < 0:
            raise ConfigError(f"line {got[0]}: cdc_overhead_cycles must be non-negative")

    ii_budget_ns = II_BUDGET_NS
    got = take("ii_budget_ns")
    if got is not None:
        ii_budget_ns = _to_int("ii_budget_ns", *got)
        if ii_budget_ns <= 0:
            raise ConfigError(f"line {got[0]}: ii_budget_ns must be positive")
    latency_budgets = dict(LATENCY_BUDGET_CYCLES)
    for freq in sorted(latency_budgets):
        key = f"latency_budget_{freq}"
        got = take(key)
        if got is not None:
            cycles = _to_int(key, *got)
            if cycles <= 0:
                raise ConfigError(f"line {got[0]}: {key} must be positive, got {cycles}")
            latency_budgets[freq] = cycles

    # StageSpec checks each field on its own, so checking the overrides
    # against this table checks them for every solution's rows.
    specs = default_stage_specs(merge_solution, clean_solution)
    overrides: dict[str, dict[str, int]] = {}
    stage_keys = [k for k in entries if k.startswith("stage.")]
    for key in stage_keys:
        lineno, value = entries.pop(key)
        parts = key.split(".")
        if len(parts) != 3 or parts[1] not in TRIGGER_STAGE_NAMES or parts[2] not in _STAGE_FIELD_BY_KEY:
            raise ConfigError(
                f"line {lineno}: unknown stage key {key!r}; expected "
                f"stage.<{'|'.join(TRIGGER_STAGE_NAMES)}>.<latency|ii|start_offset>"
            )
        _, stage_name, fld = parts
        setting = {_STAGE_FIELD_BY_KEY[fld]: _to_int(key, lineno, value)}
        try:
            specs[stage_name] = replace(specs[stage_name], **setting)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
        overrides.setdefault(stage_name, {}).update(setting)

    if entries:
        key, (lineno, _) = next(iter(entries.items()))
        raise ConfigError(f"line {lineno}: unknown config key {key!r}")

    return RunConfig(
        trigger=trigger,
        merge_solution=merge_solution,
        clean_solution=clean_solution,
        stage_overrides=overrides,
        engine=engine,
        cdc_overhead_cycles=cdc,
        ii_budget_ns=ii_budget_ns,
        latency_budgets=latency_budgets,
    )


# ---------------------------------------------------------------------------
# run reports


def _canonical_json(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def build_report(
    event_ids: Sequence[int],
    tau_lists: Sequence[Sequence],
    metrics,
    feasibility=None,
) -> list[dict]:
    """Assemble report records: header, one per event, one metrics object."""
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
        "latency_cycles": metrics.latency_cycles,
        "ii_cycles": metrics.ii_cycles,
        "cdc_overhead_cycles": metrics.cdc_overhead_cycles,
        "stage_stats": [
            {
                "name": s.name,
                "fires": s.fires,
                "busy_cycles": s.busy_cycles,
                "input_stall_cycles": s.input_stall_cycles,
                "output_stall_cycles": s.output_stall_cycles,
            }
            for s in metrics.stage_stats
        ],
    }
    if feasibility is not None:
        m.update(
            {
                "frequency_mhz": feasibility.budget.frequency_mhz,
                "latency_budget_cycles": feasibility.budget.latency_budget_cycles,
                "ii_budget_cycles": feasibility.budget.ii_budget_cycles,
                "latency_slack_cycles": feasibility.latency_slack_cycles,
                "ii_slack_cycles": feasibility.ii_slack_cycles,
                "feasible": feasibility.feasible,
            }
        )
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
