from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from helpers import tick_reference
from taupipe.budget import operating_point
from taupipe.cli import main
from taupipe.dataflow import (
    DEFAULT_FIFO_DEPTH,
    TRIGGER_STAGE_NAMES,
    StageSpec,
    default_stage_specs,
    run_pipeline,
    trigger_timing,
)
from taupipe.eventio import gen_events, parse_report
from taupipe.stages import TriggerConfig, run_stages

CFG = TriggerConfig()


def chain(specs, hops=None, depths=None):
    if hops:
        specs = [replace(spec, hop_cycles=hop) for spec, hop in zip(specs, hops)]
    depths = depths or [32] * (len(specs) - 1)
    return run_pipeline(specs, depths)


def paced_starts(specs, depths, n, period=None):
    """Start cycles of the cycle reference, its source paced at ``period``
    (by default the II that ``run_pipeline`` returns)."""
    if period is None:
        period = run_pipeline(specs, depths).ii_cycles
    return tick_reference(specs, depths, n, period)[0]


def latencies(specs, starts, period):
    """Each event's latency, from its offer to the last stage's completion."""
    return [t + specs[-1].latency_cycles - k * period for k, t in enumerate(starts[-1])]


# --- stage specs --------------------------------------------------------------


def test_stage_spec_validation():
    with pytest.raises(ValueError):
        StageSpec("s", 10, 0)
    with pytest.raises(ValueError):
        StageSpec("s", -1, 1)
    with pytest.raises(ValueError, match="cycle counts must be non-negative"):
        StageSpec("s", 1, 1, hop_cycles=-1)
    StageSpec("s", 38, 34)  # latency < ii is not required the other way around


# --- buffers ------------------------------------------------------------------


def test_fifo_backpressure_at_depth():
    # the consumer begins 10 cycles after the producer and frees the place
    # one cycle later, so a buffer of d places allows one event per 11/d
    # cycles; the paced source never meets backpressure
    specs = [StageSpec("long", 10, 1), StageSpec("short", 5, 1)]
    for depth, ii in ((1, 11), (2, 6), (3, 4), (11, 1), (32, 1)):
        assert chain(specs, depths=[depth]).ii_cycles == ii
        _, stalls = tick_reference(specs, [depth], 6, ii)
        assert stalls[0][1] == 0
    # paced one cycle faster, the producer waits for a free place
    _, stalls = tick_reference(specs, [2], 6, 5)
    assert stalls[0][1] > 0


def test_fifo_pop_empty_is_stall():
    # the consumer waits on an empty input: counted as input stall, no error
    specs = [StageSpec("slow", 10, 10), StageSpec("fast", 1, 1)]
    timing = chain(specs)
    assert timing.input_stalls(3)[1] == 10 + 9 + 9
    _, stalls = tick_reference(specs, [32], 3, timing.ii_cycles)
    assert stalls[1] == (10 + 9 + 9, 0)


def test_fifo_order():
    # iterations leave every buffer in the order they entered it, one pace
    # apart
    specs = [StageSpec("a", 1, 1), StageSpec("b", 7, 3), StageSpec("c", 2, 5)]
    ii = chain(specs, depths=[4, 4]).ii_cycles
    assert ii == 5
    for starts in paced_starts(specs, [4, 4], 8):
        assert list(starts) == [k * ii + starts[0] for k in range(8)]


def test_channel_depths():
    for clean in "AB":
        assert trigger_timing("A", clean, {}, 5).depths == (5,) * 6
        assert trigger_timing("A", clean, {}, 1).depths == (1,) * 6


def test_pipo_channel_used_for_merge_b_edge():
    # the filtering-to-merging ping-pong buffer holds two iterations under
    # merge B, whatever the FIFO depth; under merge A that hop is a FIFO
    for depth in (1, 5, 32):
        assert trigger_timing("B", "A", {}, depth).depths == (depth, 2) + (depth,) * 4
        assert trigger_timing("A", "B", {}, depth).depths[1] == depth


def _buffer_occupancies(specs, hops, depth, n, period=None):
    """Occupancy of the buffer of a two-stage chain each time the producer
    begins an iteration, counted before the consumer acts in that cycle."""
    specs = [replace(spec, hop_cycles=hop) for spec, hop in zip(specs, hops)]
    producer, consumer = paced_starts(specs, [depth], n, period)
    return [
        sum(p <= t for p in producer) - sum(c < t for c in consumer) for t in producer
    ]


def test_channels_never_exceed_capacity():
    fast_slow = [StageSpec("fast", 1, 1), StageSpec("slow", 9, 7)]
    for depth in (1, 2, 3, 4):
        # at the II the consumer keeps up; a source that offers every event
        # at once lets the producer run ahead until the buffer is full
        assert max(_buffer_occupancies(fast_slow, [0, 1], depth, 12)) == 1
        assert max(_buffer_occupancies(fast_slow, [0, 1], depth, 12, period=0)) == depth
    # filtering into merging under merge B, with the ping-pong depth
    specs = default_stage_specs("B", "B")
    pair = [specs["filtering"], specs["merging"]]
    depth_b = trigger_timing("B", "B", {}, DEFAULT_FIFO_DEPTH).depths[1]
    for period in (None, 0):
        assert max(_buffer_occupancies(pair, [1, 1], depth_b, 12, period)) <= depth_b


def test_buffer_circuit_rounds_the_pace_up():
    # two events per 102 + 1 cycles is 51.5 cycles each; a whole-cycle pace
    # of 51 would queue, so the II is 52 and the verdict against an integer
    # budget stays exact
    specs = [StageSpec("a", 101, 1), StageSpec("b", 1, 1, hop_cycles=1)]
    assert chain(specs, depths=[2]).ii_cycles == 52


def test_zero_events_have_the_design_timing_and_no_stalls():
    specs = [StageSpec("a", 4, 3), StageSpec("b", 9, 7)]
    timing = chain(specs)
    assert (timing.latency_cycles, timing.ii_cycles) == (13, 7)
    assert timing.input_stalls(0) == (0, 0)


def test_run_pipeline_validation():
    specs = [StageSpec("a", 1, 1), StageSpec("b", 1, 1)]
    with pytest.raises(ValueError, match="^pipeline needs at least one stage$"):
        run_pipeline([], [])
    with pytest.raises(ValueError, match="^chain of 2 stages needs 1 buffer depths, got 2$"):
        run_pipeline(specs, [1, 1])
    with pytest.raises(ValueError, match="^chain of 3 stages needs 2 buffer depths, got 1$"):
        run_pipeline(specs + [StageSpec("c", 1, 1)], [1])
    with pytest.raises(ValueError, match="^buffer depths must be >= 1$"):
        run_pipeline(specs, [0])


def test_unknown_solution_letter_is_named():
    for merge, clean in (("C", "B"), ("B", "C")):
        with pytest.raises(ValueError, match="^unknown solution 'C', expected 'A' or 'B'$"):
            trigger_timing(merge, clean, {}, 32)


stage_specs = st.builds(
    StageSpec,
    name=st.just("s"),
    latency_cycles=st.integers(0, 60),
    ii_cycles=st.integers(1, 60),
    start_offset_cycles=st.one_of(st.just(0), st.integers(0, 20)),
    hop_cycles=st.integers(0, 3),
)


@st.composite
def chains(draw):
    specs = draw(st.lists(stage_specs, min_size=1, max_size=7))
    specs = [replace(s, name=f"s{i}") for i, s in enumerate(specs)]
    n = len(specs)
    # small depths make the buffers limit the pace; 2 is also how the
    # ping-pong buffer behaves
    depth = st.one_of(st.integers(1, 3), st.integers(1, 32))
    depths = draw(st.lists(depth, min_size=n - 1, max_size=n - 1))
    n = draw(st.one_of(st.just(1), st.integers(1, 40)))
    return specs, depths, n


@settings(max_examples=300, deadline=None)
@given(chains())
def test_run_pipeline_matches_cycle_reference(case):
    specs, depths, n = case
    timing = run_pipeline(specs, depths)
    ii = timing.ii_cycles
    starts, stalls = tick_reference(*case, ii)
    # paced at the II, no event waits longer than the first: stage s begins
    # event k at k * II + prefix[s]
    for stage_starts in starts:
        assert list(stage_starts) == [k * ii + stage_starts[0] for k in range(n)]
    assert max(latencies(specs, starts, ii)) == timing.latency_cycles
    assert timing.input_stalls(n) == tuple(waited for waited, _ in stalls)
    assert all(blocked == 0 for _, blocked in stalls)
    # one cycle faster, events queue: the II is the fastest pace that does not
    fast = latencies(specs, tick_reference(specs, depths, 64, ii - 1)[0], ii - 1)
    assert fast[63] > fast[0]


# --- engine timing ---------------------------------------------------------------


def test_single_stage_latency():
    metrics = chain([StageSpec("s", 5, 5)])
    assert paced_starts([StageSpec("s", 5, 5)], [], 1) == ((0,),)
    assert (metrics.latency_cycles, metrics.ii_cycles) == (5, 5)


def test_two_stage_chain_latency():
    assert chain([StageSpec("a", 3, 1), StageSpec("b", 4, 1)]).latency_cycles == 7


def test_measured_ii_is_bottleneck_stage():
    specs = [StageSpec("a", 4, 3), StageSpec("b", 9, 7), StageSpec("c", 2, 2)]
    assert chain(specs).ii_cycles == 7


def test_hop_overhead_adds_to_effective_ii():
    specs = [StageSpec("a", 4, 3), StageSpec("b", 9, 7), StageSpec("c", 2, 2)]
    assert chain(specs, hops=[0, 2, 0]).ii_cycles == 9


def test_streaming_offset_shortens_latency():
    specs0 = [StageSpec("a", 20, 5), StageSpec("b", 10, 5)]
    base = chain(specs0).latency_cycles
    specs1 = [StageSpec("a", 20, 5), StageSpec("b", 10, 5, start_offset_cycles=6)]
    overlapped = chain(specs1).latency_cycles
    assert base == 30
    # starts 10 cycles after the producer (not 6), so that it ends with it
    assert overlapped == 20


def _streaming_b_b_chain():
    specs = default_stage_specs("B", "B")
    specs["merging"] = replace(specs["merging"], latency_cycles=1)
    return list(specs.values()), trigger_timing("B", "B", {}, DEFAULT_FIFO_DEPTH).depths


def _two_stage_streaming_chain():
    return [StageSpec("a", 20, 5), StageSpec("b", 10, 5, start_offset_cycles=6)], [32]


@pytest.mark.parametrize("build", [_streaming_b_b_chain, _two_stage_streaming_chain])
def test_no_stage_completes_before_its_producer(build):
    specs, depths = build()
    starts = paced_starts(specs, depths, 6)
    for s in range(1, len(specs)):
        for consumer, producer in zip(starts[s], starts[s - 1]):
            assert consumer + specs[s].latency_cycles >= producer + specs[s - 1].latency_cycles


def test_causal_bound_adds_no_hop():
    # merging (latency 1) may start as soon as it would end with filtering
    # (38): B/B 200 and A/A 198.  Adding merging's hop to that bound would
    # give 201 and 199.
    for merge, clean, latency in (("B", "B", 200), ("A", "A", 198)):
        overrides = {"merging": {"latency_cycles": 1}}
        assert trigger_timing(merge, clean, overrides, DEFAULT_FIFO_DEPTH).latency_cycles == latency


def test_engine_is_deterministic():
    events = gen_events(21, 10, "busy", CFG)
    timings = [trigger_timing("B", "B", {}, DEFAULT_FIFO_DEPTH) for _ in range(2)]
    assert timings[0] == timings[1]
    runs = [[run_stages(ev, CFG, "B", "B") for ev in events] for _ in range(2)]
    assert runs[0] == runs[1]


def test_engine_outputs_equal_staged_functional_path(tmp_path):
    # run reports the staged path's taus per event and the pair's timing
    events = gen_events(33, 25, "clustered", CFG)
    report = tmp_path / "report.jsonl"
    for merge, clean in (("A", "B"), ("B", "A"), ("B", "B")):
        argv = ["run", "--gen", "33:25:clustered", "--merge", merge, "--clean", clean]
        assert main([*argv, "--report", str(report)]) == 0
        *event_records, metrics = parse_report(report.read_text())[1:]
        timing = trigger_timing(merge, clean, {}, DEFAULT_FIFO_DEPTH)
        assert (metrics["latency_cycles"], metrics["ii_cycles"]) == (
            timing.latency_cycles,
            timing.ii_cycles,
        )
        assert len(event_records) == len(events)
        for ev, record in zip(events, event_records):
            want = [
                {"pt": t.pt, "eta": t.eta, "phi": t.phi}
                for t in run_stages(ev, CFG, merge, clean)
            ]
            assert (record["event_id"], record["taus"]) == (ev.event_id, want)


def test_default_trigger_chain_latency_figures():
    runs = {
        (merge, clean): trigger_timing(merge, clean, {}, DEFAULT_FIFO_DEPTH)
        for merge, clean in (("A", "A"), ("B", "B"))
    }
    assert runs[("A", "A")].latency_cycles == 203
    assert runs[("B", "B")].latency_cycles == 200
    assert runs[("A", "A")].ii_cycles == 44
    assert runs[("B", "B")].ii_cycles == 44


def test_default_trigger_chain_lead_and_step():
    # every event's latency is the lead vector plus the sink's latency:
    # B/B 200 = 185 + 15; A/A's merging row (38, 34) gives signal selection
    # a lead of 39 and merging a step of 35, and 203 = 190 + 13
    for merge, clean, lead, step, sink in (
        ("B", "B", (1, 44, 5, 34, 38, 60, 3), (44, 39, 34, 37, 36, 2, 15), 15),
        ("A", "A", (1, 44, 5, 39, 38, 60, 3), (44, 39, 35, 37, 36, 2, 15), 13),
    ):
        timing = trigger_timing(merge, clean, {}, DEFAULT_FIFO_DEPTH)
        assert timing.names == TRIGGER_STAGE_NAMES
        assert (timing.lead, timing.step, timing.sink_latency_cycles) == (lead, step, sink)


def test_default_hops_are_the_8_cycle_allowance():
    for merge in "AB":
        for clean in "AB":
            hops = [s.hop_cycles for s in default_stage_specs(merge, clean).values()]
            assert hops == [1, 1, 1, 1, 1, 1, 2]
            assert sum(hops) == 8


def test_zero_handshake_ii_equals_max_stage_ii():
    zero_hop = {name: {"hop_cycles": 0} for name in TRIGGER_STAGE_NAMES}
    metrics = trigger_timing("B", "B", zero_hop, DEFAULT_FIFO_DEPTH)
    specs = default_stage_specs("B", "B").values()
    assert metrics.ii_cycles == max(s.ii_cycles for s in specs) == 43


def test_latency_monotone_in_stage_latency():
    base = trigger_timing("B", "B", {}, DEFAULT_FIFO_DEPTH).latency_cycles
    for name, spec in default_stage_specs("B", "B").items():
        longer = {name: {"latency_cycles": spec.latency_cycles + 5}}
        assert trigger_timing("B", "B", longer, DEFAULT_FIFO_DEPTH).latency_cycles >= base


def test_cdc_allowance():
    # off the nominal clock latency pays the allowance, II does not
    m = trigger_timing("B", "B", {}, DEFAULT_FIFO_DEPTH)
    point = operating_point(m, 300)
    assert point.timing == m
    assert point.latency_cycles == m.latency_cycles + 10
    assert point.cdc_overhead_cycles == 10
    assert (point.latency_budget_cycles, point.ii_budget_cycles) == (220, 45)
    nominal = operating_point(m, 360)
    assert (nominal.cdc_overhead_cycles, nominal.latency_cycles) == (0, m.latency_cycles)
