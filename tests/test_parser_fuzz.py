"""Fuzzing of the two text parsers: any input parses or names its line."""

import re

from hypothesis import HealthCheck, given, settings, strategies as st

from taupipe.core import Species
from taupipe.eventio import ConfigError, EventFileError, load_config, parse_events

LINE_PREFIX = re.compile(r"^line (\d+): ")

CONFIG_KEYS = [
    "format_version",
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
    "allowed_signal_species",
    "merge_solution",
    "clean_solution",
    "fifo_depth",
    "feed_period",
    "hop_overheads",
    "cdc_overhead_cycles",
    "ii_budget_ns",
    "latency_budget_360",
    "latency_budget_300",
    "latency_budget_240",
    "latency_budget_¹",
    "stage.merging.latency",
    "stage.cleaning.ii",
    "stage.seeding.start_offset",
    "stage.nowhere.ii",
]

# str.splitlines() breaks at these as well as at "\n"; the parsers must not.
NOT_NEWLINES = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
small_text = st.text(st.one_of(st.characters(), st.sampled_from(NOT_NEWLINES)), max_size=8)
config_value = st.one_of(
    st.integers(-3, 300).map(str),
    st.sampled_from(["A", "b", "1,2", "0,0,0,0,0,0,0", "1,1,1,1,1,1,-1", "h+,gamma", "charged_hadron,photon", "1e3", ""]),
    small_text,
)
config_line = st.one_of(
    st.tuples(st.one_of(st.sampled_from(CONFIG_KEYS), small_text), config_value).map(
        lambda kv: f"{kv[0]} = {kv[1]}"
    ),
    st.sampled_from(["", "# comment"]),
    small_text,
)

species = [s.value for s in Species]
event_field = st.one_of(
    st.integers(-1100, 1100).map(str),
    st.sampled_from(species),
    small_text,
)
event_line = st.one_of(
    st.lists(event_field, min_size=0, max_size=7).map(" ".join),
    st.lists(st.integers(0, 130), min_size=2, max_size=2).map(
        lambda ids: f"{ids[0] % 3} {ids[1]} 50 0 0 {species[ids[1] % len(species)]}"
    ),
    st.sampled_from(["", "# comment"]),
)
event_header = st.one_of(st.just("taupipe-events 1"), st.just("taupipe-events 2"), small_text)


def assert_names_a_line(exc: Exception, text: str) -> None:
    """The message starts with a line number that exists in ``text``."""
    match = LINE_PREFIX.match(str(exc))
    assert match, str(exc)
    assert 1 <= int(match.group(1)) <= text.count("\n"), str(exc)


fuzz = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@fuzz
@given(st.lists(config_line, max_size=8))
def test_load_config_parses_or_names_the_line(lines):
    text = "\n".join(lines) + "\n"
    try:
        load_config(text)
    except ConfigError as exc:
        assert_names_a_line(exc, text)


@fuzz
@given(event_header, st.lists(event_line, max_size=8))
def test_parse_events_parses_or_names_the_line(header, lines):
    text = "\n".join([header, *lines]) + "\n"
    try:
        events = parse_events(text)
    except EventFileError as exc:
        assert_names_a_line(exc, text)
    else:
        assert all(len(ev.particles) == 128 for ev in events)
