"""Fuzzing of the two text parsers: any input parses or names its line."""

import re

from hypothesis import HealthCheck, event, given, settings, strategies as st

from helpers import reference_parse_events
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
    # int() takes these, the config parser must not
    st.sampled_from(["1_0", "+3", "\u0662", "\uff13", "1,1,1,1,1,1,+1", "007", "-0"]),
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


# Event files for the differential test.  Half are valid: in-range records
# with unique slots, comments and blank lines.  The other half break some
# records, several fields at a time so that the order of the checks shows,
# draw small slots so that slots collide, and add lines of random text.
IN_RANGE = (
    # event ids are not contiguous, and some are spelt oddly but are integers
    st.sampled_from(["0", "1", "2", "7", "1000", "007", "-0", "-3"]),
    st.integers(0, 127).map(str),
    st.integers(0, 65535).map(str),
    st.integers(-4096, 4096).map(str),
    st.integers(-1024, 1023).map(str),
    st.sampled_from(species),
)
# int() reads "1_0", "+3", "\u0662" (2) and "\uff13" (3); the parser must not.
NON_DECIMAL = ["1_0", "+3", "\u0662", "\uff13"]
FAULTY = (
    st.sampled_from(["x", "1.5", "0x1", *NON_DECIMAL]),
    st.sampled_from(["-1", "128", "3.0", *NON_DECIMAL]),
    st.sampled_from(["-1", "65536", *NON_DECIMAL]),
    st.sampled_from(["-4097", "4097", *NON_DECIMAL]),
    st.sampled_from(["-1025", "1024", *NON_DECIMAL]),
    st.sampled_from(["gluino", "Photon", "photon,"]),
)
# Field indexes to break in one record of a faulty file; 6 is a wrong field
# count.  (sets() would break nearly every field of most records.)
FAULT_SETS = [(), (), (), (), (0,), (1,), (2,), (3,), (4,), (5,), (6,)]
FAULT_SETS += [(0, 5), (5, 1), (1, 2), (2, 3), (3, 4), (1, 4), (6, 0), (1, 2, 3, 4, 5)]
# str.split() splits at each of NOT_NEWLINES, so they may separate fields
FIELD_SEPARATORS = [" ", "  ", "\t", *NOT_NEWLINES]
SKIPPED_LINES = ["", "  ", "\x85", "# comment", "  # indented", "\t#0 0 5 0 0 photon"]


@st.composite
def record_line(draw, faulty):
    fields = [draw(f) for f in IN_RANGE]
    if faulty:
        fields[1] = draw(st.one_of(st.integers(0, 3).map(str), st.just(fields[1])))
        for i in draw(st.sampled_from(FAULT_SETS)):
            if i < 6:
                fields[i] = draw(FAULTY[i])
            else:  # one field too few or too many
                fields = fields[:5] if draw(st.booleans()) else fields + ["0"]
    return draw(st.sampled_from(FIELD_SEPARATORS)).join(fields)


@st.composite
def event_text(draw):
    faulty = draw(st.booleans())
    headers = ["taupipe-events 1", " taupipe-events\t1 "] * 3  # 6 in 7 valid in a faulty file
    header = draw(st.sampled_from(headers + ["taupipe-events 2"] if faulty else headers))
    # one_of() drops repeated branches, so the weights go through sampled_from()
    kinds = ["record"] * 4 + ["skipped", "text"] if faulty else ["record", "skipped"]
    lines, taken = [header], set()
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=10)):
        if kind == "skipped":
            lines.append(draw(st.sampled_from(SKIPPED_LINES)))
        elif kind == "text":
            lines.append(draw(small_text))
        else:
            line = draw(record_line(faulty))
            if not faulty:  # one record per slot: the event id and slot as integers
                key = tuple(map(int, line.split()[:2]))
                if key in taken:
                    continue
                taken.add(key)
            lines.append(line)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + eol


def parse_outcome(parse, text):
    """The events, or the message of the EventFileError."""
    try:
        return parse(text)
    except EventFileError as exc:
        return f"EventFileError: {exc}"


@fuzz
@given(event_text())
def test_parse_events_matches_the_reference_parser(text):
    got = parse_outcome(parse_events, text)
    assert got == parse_outcome(reference_parse_events, text)
    event("parses" if isinstance(got, list) else "raises")
