import re
from pathlib import Path

import pytest

from taupipe.core import ETA_MAX, N_INPUT, N_SEEDS, PHI_HALF, PT_MAX, Species
from taupipe.dataflow import StageSpec, default_stage_specs, trigger_timing
from taupipe.eventio import (
    _LANES,
    _PROFILES,
    _TRIGGER_KEYS,
    ConfigError,
    EventFileError,
    RunConfig,
    gen_events,
    load_config,
    parse_events,
    parse_report,
    serialize_report,
    splitmix64,
    write_events,
)
from taupipe.stages import TriggerConfig

CFG = TriggerConfig()

HEADER = "taupipe-events 1\n"


# --- event files ---------------------------------------------------------------


def test_parse_header_only():
    assert parse_events(HEADER) == []


def test_parse_single_record():
    text = HEADER + "7 3 50 10 -20 charged_hadron\n"
    events = parse_events(text)
    assert len(events) == 1
    ev = events[0]
    assert ev.event_id == 7
    assert len(ev.particles) == 128
    p = ev.particles[3]
    assert (p.pt, p.eta, p.phi, p.species) == (50, 10, -20, Species.CHARGED_HADRON)
    assert sum(q.valid for q in ev.particles) == 1


def test_parse_groups_by_first_appearance():
    text = HEADER + "9 0 5 0 0 photon\n4 0 5 0 0 photon\n9 1 6 0 0 photon\n"
    events = parse_events(text)
    assert [ev.event_id for ev in events] == [9, 4]


@pytest.mark.parametrize(
    "line, message",
    [
        ("7 3 50 10", "expected 6 fields"),
        ("7 x 50 10 -20 photon", "non-integer"),
        ("7 3 50 10 -20 gluino", "unknown species"),
        ("7 300 50 10 -20 photon", "slot 300"),
        ("7 128 50 10 -20 photon", "slot 128 outside 0..127"),
        ("7 3 70000 10 -20 photon", "pt 70000"),
        ("7 3 50 5000 -20 photon", "|eta|"),
        ("7 3 50 10 1024 photon", "phi 1024"),
    ],
)
def test_parse_errors_name_the_line(line, message):
    with pytest.raises(EventFileError, match="line 2"):
        try:
            parse_events(HEADER + line + "\n")
        except EventFileError as exc:
            assert message in str(exc)
            raise


# int() alone reads each of these as an integer: a '_' separator, a '+'
# sign, an Arabic-Indic two and a fullwidth three.
NON_DECIMAL = ["1_0", "+3", "\u0662", "\uff13"]
NON_DECIMAL_IDS = ["underscore", "plus", "arabic-indic", "fullwidth"]


@pytest.mark.parametrize("field", range(5))
@pytest.mark.parametrize("spelling", NON_DECIMAL, ids=NON_DECIMAL_IDS)
def test_parse_takes_only_ascii_decimal(spelling, field):
    fields = ["7", "3", "50", "10", "-20"]
    fields[field] = spelling
    with pytest.raises(EventFileError, match=r"^line 2: non-integer field in \["):
        parse_events(HEADER + " ".join(fields) + " photon\n")


def test_parse_takes_leading_zeros_and_minus_zero():
    (ev,) = parse_events(HEADER + "007 -0 50 -010 0 photon\n")
    p = ev.particles[0]
    assert (ev.event_id, p.pt, p.eta) == (7, 50, -10)


def test_parse_duplicate_slot():
    text = HEADER + "7 3 50 10 -20 photon\n7 3 60 0 0 photon\n"
    with pytest.raises(EventFileError, match="duplicate slot 3"):
        parse_events(text)


def test_parse_requires_header():
    with pytest.raises(EventFileError, match="header"):
        parse_events("7 3 50 10 -20 photon\n")
    with pytest.raises(EventFileError, match="header"):
        parse_events("")


def test_roundtrip_file_identity():
    events = gen_events(17, 20, "clustered", CFG)
    text = write_events(events)
    assert write_events(parse_events(text)) == text


def test_roundtrip_event_identity():
    for profile in ("uniform", "clustered", "busy"):
        events = gen_events(23, 10, profile, CFG)
        assert parse_events(write_events(events)) == events


def test_comments_and_blanks_ignored():
    text = HEADER + "\n# a comment\n7 3 50 10 -20 photon\n"
    assert len(parse_events(text)) == 1


# --- generator ----------------------------------------------------------------


def test_gen_deterministic():
    assert gen_events(5, 12, "clustered", CFG) == gen_events(5, 12, "clustered", CFG)


def test_gen_profiles_differ():
    a = gen_events(5, 3, "uniform", CFG)
    b = gen_events(5, 3, "busy", CFG)
    assert a != b


def test_gen_count_zero():
    assert gen_events(1, 0, "uniform", CFG) == []


def test_gen_unknown_profile():
    with pytest.raises(ValueError):
        gen_events(1, 1, "nope", CFG)


def test_gen_respects_framing_and_ranges():
    for profile in ("uniform", "clustered", "busy"):
        for ev in gen_events(31, 15, profile, CFG):
            assert len(ev.particles) == N_INPUT
            assert any(p.valid for p in ev.particles)
            for p in ev.particles:
                if not p.valid:
                    continue
                assert 1 <= p.pt <= PT_MAX
                assert abs(p.eta) <= ETA_MAX
                assert -PHI_HALF <= p.phi < PHI_HALF


def test_gen_clustered_seed1_exercises_cleaning():
    # pinned fixture: this seed/profile produces events whose reconstructed
    # taus actually contest the proximity cleaning
    from taupipe.stages import (
        CandidateList,
        INVALID_TAU,
        build_cleaning_matrix,
        compute_tau_params,
        filter_block,
        merge_solution_b,
        partition_blocks,
        reconstruct_tau,
        select_seeds,
        select_signal_candidates,
    )

    found = False
    for ev in gen_events(1, 10, "clustered", CFG):
        seeds = select_seeds(ev, CFG)
        blocks = partition_blocks(ev)
        taus = [INVALID_TAU] * N_SEEDS
        for si, seed in enumerate(seeds):
            merged = merge_solution_b([filter_block(b, seed, CFG) for b in blocks])
            cl = CandidateList(seed, merged.items)
            taus[si] = reconstruct_tau(
                compute_tau_params(select_signal_candidates(cl, CFG)), CFG
            )
        if build_cleaning_matrix(tuple(taus), CFG):
            found = True
            break
    assert found


def test_splitmix_reference_values():
    # first outputs for seed 0, pinned so the stream can never drift silently
    draw = splitmix64(0)
    assert [draw() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]


def scalar_splitmix64(seed):
    """splitmix64 one output at a time, written apart from the block code."""
    state = seed % 2**64
    while True:
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        yield z ^ (z >> 31)


@pytest.mark.parametrize(
    "seed",
    [0, 2**64 - 1, -1, 2**64 + 12345]
    # the streams gen_events(1, ...) draws from, one per profile
    + [1 ^ (salt * 0x2545F4914F6CDD1D) for salt, _ in _PROFILES.values()],
)
def test_splitmix_stream_matches_the_scalar_form(seed):
    # across three block boundaries, into a fourth block
    n = 3 * _LANES + 5
    draw, want = splitmix64(seed), scalar_splitmix64(seed)
    assert [draw() for _ in range(n)] == [next(want) for _ in range(n)]


@pytest.mark.parametrize("profile, most", [("uniform", 48), ("clustered", 55), ("busy", 117)])
def test_largest_generated_event_fits_the_input(profile, most):
    # -1 % n == n - 1: every draw takes its largest value, so every count is
    # at its most and no builder produces more than N_INPUT particles
    _, build = _PROFILES[profile]
    event = build(lambda: -1, 0)
    assert sum(p.valid for p in event.particles) == most <= N_INPUT


# --- config -------------------------------------------------------------------


def test_empty_config_defaults():
    rc = load_config("")
    assert rc.stage_overrides == {}
    specs = default_stage_specs("B", "B")
    assert specs["merging"] == StageSpec("merging", 33, 33, start_offset_cycles=4, hop_cycles=1)
    assert specs["cleaning"] == StageSpec("cleaning", 15, 13, hop_cycles=2)
    specs = default_stage_specs("A", "A")
    assert specs["merging"] == StageSpec("merging", 38, 34, start_offset_cycles=4, hop_cycles=1)
    assert specs["cleaning"] == StageSpec("cleaning", 13, 13, hop_cycles=2)
    assert rc.fifo_depth == 32
    assert rc.trigger == TriggerConfig()


# The framing, the pt/eta/phi ranges and the budgets are constants, not
# config keys.
FIXED_KEYS = (
    "n_input", "n_seeds", "n_filter_blocks", "block_size", "max_candidates", "max_taus",
    "pt_max", "phi_range", "eta_max",
    "ii_budget_ns", "latency_budget_360", "latency_budget_300", "cdc_overhead_cycles",
)
# The hops are fields of the stage table (``stage.<name>.hop``), and the
# source offers every event at once, so neither is an engine key.
TIMING_KEYS = ("hop_overheads", "feed_period")
# The solution pair is chosen by ``run --merge/--clean``; explore runs every pair.
SOLUTION_KEYS = ("merge_solution", "clean_solution")


def test_config_unknown_key():
    unknown = (
        ("fizz", "latency_budget_240", "latency_budget_¹") + FIXED_KEYS + TIMING_KEYS
        + SOLUTION_KEYS
    )
    for key in unknown:
        with pytest.raises(ConfigError, match=f"line 1: unknown config key '{key}'"):
            load_config(f"{key} = 3\n")


def test_readme_config_paragraph_names_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme[readme.index("**Config**"):].split("\n\n")[0]
    named = {t for t in re.findall(r"`([^`]*)`", paragraph) if re.fullmatch(r"[a-z][a-z0-9_]*", t)}
    assert named - {"run", "explore"} == _TRIGGER_KEYS | {"fifo_depth"}


def test_readme_config_paragraph_states_the_defaults():
    # each trigger key and fifo_depth is followed by its default: a number or
    # a quoted species list; read as a config, the defaults give RunConfig()
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme[readme.index("**Config**"):].split("\n\n")[0]
    stated = dict(re.findall(r"`([a-z][a-z0-9_]*)`\s+(\d+|`[^`]*`)", paragraph))
    assert set(stated) == _TRIGGER_KEYS | {"fifo_depth"}
    text = "".join(f"{key} = {value.strip('`')}\n" for key, value in stated.items())
    assert load_config(text) == RunConfig()


def test_config_violated_invariant_is_quoted():
    with pytest.raises(
        ConfigError, match="line 1: signal_cone_r2_min must not exceed signal_cone_r2_max"
    ):
        load_config("signal_cone_r2_min = 20000\n")


def test_config_stage_override():
    rc = load_config("stage.seeding.latency = 50\nstage.seeding.ii = 47\n")
    assert rc.stage_overrides == {"seeding": {"latency_cycles": 50, "ii_cycles": 47}}
    # seeding's step is its II plus its hop; filtering begins after seeding's
    # latency plus filtering's hop
    timing = trigger_timing("B", "B", rc.stage_overrides, rc.fifo_depth)
    assert (timing.step[0], timing.lead[1]) == (47 + 1, 50 + 1)


def test_config_bad_stage_key():
    with pytest.raises(ConfigError, match="unknown stage key"):
        load_config("stage.seeding.height = 50\n")


def test_config_species_list():
    rc = load_config("allowed_signal_species = photon, electron\n")
    assert rc.trigger.allowed_signal_species == frozenset({Species.PHOTON, Species.ELECTRON})


def test_config_unknown_species_names_its_line():
    # the same message as an event record with that species
    with pytest.raises(ConfigError, match=r"^line 2: unknown species 'bogus'$"):
        load_config("fifo_depth = 8\nallowed_signal_species = photon, bogus\n")


def test_config_engine_keys():
    rc = load_config("fifo_depth = 8\nstage.cleaning.hop = 0\n")
    assert rc.fifo_depth == 8
    assert rc.stage_overrides == {"cleaning": {"hop_cycles": 0}}
    timing = trigger_timing("B", "B", rc.stage_overrides, rc.fifo_depth)
    assert (timing.depths, timing.step[-1]) == ((8, 2, 8, 8, 8, 8), 13)


@pytest.mark.parametrize("spelling", NON_DECIMAL, ids=NON_DECIMAL_IDS)
def test_config_takes_only_ascii_decimal(spelling):
    with pytest.raises(ConfigError, match=r"^line 1: key 'fifo_depth' needs an integer"):
        load_config(f"fifo_depth = {spelling}\n")
    with pytest.raises(ConfigError, match=r"^line 1: key 'stage.cleaning.hop' needs an integer"):
        load_config(f"stage.cleaning.hop = {spelling}\n")


def test_config_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate key"):
        load_config("fifo_depth = 8\nfifo_depth = 9\n")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"stage_overrides": {"merging": {"ii_cycles": 0}}}, "ii_cycles must be >= 1"),
        ({"stage_overrides": {"nowhere": {"ii_cycles": 2}}}, "unknown stage 'nowhere'"),
        ({"stage_overrides": {"merging": {"name": "x"}}}, "stage merging: unknown field 'name'"),
        ({"stage_overrides": {"merging": {"bogus": 1}}}, "stage merging: unknown field 'bogus'"),
    ],
    ids=["stage-field", "unknown-stage", "stage-name", "unknown-field"],
)
def test_run_config_built_in_code_checks_its_fields(kwargs, message):
    with pytest.raises(ValueError, match=message):
        RunConfig(**kwargs)


def test_config_format_version():
    assert load_config("format_version = 1\n") == RunConfig()
    with pytest.raises(ConfigError, match="format_version"):
        load_config("format_version = 2\n")


# --- line numbers -----------------------------------------------------------------

# Characters that str.splitlines() breaks at although they end no line.
NOT_NEWLINES = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", NOT_NEWLINES, ids=[f"U+{ord(c):04X}" for c in NOT_NEWLINES])
def test_parsers_name_the_physical_line(char):
    with pytest.raises(EventFileError, match=r"^line 3: unknown species 'bogus'"):
        parse_events(f"{HEADER}0 0 50 0 0 photon{char}\n0 1 50 0 0 bogus\n")
    with pytest.raises(ConfigError, match=r"^line 1: key 'fifo_depth' needs an integer"):
        load_config(f"fifo_depth = 8{char}fizz = 1\n")
    with pytest.raises(ConfigError, match=r"^line 2: unknown config key 'fizz'"):
        load_config(f"fifo_depth = 8{char}\nfizz = 1\n")


def test_crlf_files_parse():
    assert len(parse_events("taupipe-events 1\r\n7 3 50 10 -20 photon\r\n")) == 1
    assert load_config("fifo_depth = 8\r\nmin_seed_pt = 2\r\n").fifo_depth == 8
    with pytest.raises(ConfigError, match=r"^line 2: unknown config key 'fizz'"):
        load_config("fifo_depth = 8\r\nfizz = 1\r\n")


# --- reports --------------------------------------------------------------------


def test_report_roundtrip_bytes():
    from taupipe.budget import operating_point
    from taupipe.dataflow import DEFAULT_FIFO_DEPTH
    from taupipe.eventio import build_report
    from taupipe.stages import run_stages

    events = gen_events(2, 5, "clustered", CFG)
    metrics = trigger_timing("B", "B", {}, DEFAULT_FIFO_DEPTH)
    records = build_report(
        [ev.event_id for ev in events],
        [run_stages(ev, CFG, "B", "B") for ev in events],
        operating_point(metrics, 360),
    )
    text = serialize_report(records)
    assert serialize_report(parse_report(text)) == text
    parsed = parse_report(text)
    assert parsed[0] == {"format": "taupipe-report", "version": 2}
    assert parsed[-1]["type"] == "metrics"
    assert {tuple(sorted(s)) for s in parsed[-1]["stage_stats"]} == {
        ("input_stall_cycles", "name", "output_stall_cycles")
    }
    assert len([r for r in parsed if r.get("type") == "event"]) == 5


def test_report_rejects_foreign_stream():
    cases = [
        ('{"format":"something-else","version":1}\n', "not a taupipe-report stream"),
        ('{"format":"other","version":2}\n', "not a taupipe-report stream"),
        ("", "not a taupipe-report stream"),  # a ValueError, not an IndexError
        ('{"format":"taupipe-report","version":3}\n', "unsupported report version 3"),
    ]
    for text, message in cases:
        with pytest.raises(ValueError) as exc:
            parse_report(text)
        assert str(exc.value) == message
