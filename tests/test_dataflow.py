from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from helpers import tick_reference
from taupipe.budget import operating_point
from taupipe.cli import _simulate
from taupipe.dataflow import (
    TRIGGER_STAGE_NAMES,
    EngineConfig,
    StageSpec,
    channel_depths,
    default_stage_specs,
    run_pipeline,
    trigger_timing,
)
from taupipe.eventio import RunConfig, gen_events
from taupipe.stages import TriggerConfig, run_stages

CFG = TriggerConfig()


def chain(specs, n, hops=None, depths=None, feed_period=0):
    hops = hops or [0] * len(specs)
    depths = depths or [32] * (len(specs) - 1)
    return run_pipeline(specs, hops, depths, n, feed_period)


# --- stage specs --------------------------------------------------------------


def test_stage_spec_validation():
    with pytest.raises(ValueError):
        StageSpec("s", 10, 0)
    with pytest.raises(ValueError):
        StageSpec("s", -1, 1)
    StageSpec("s", 38, 34)  # latency < ii is not required the other way around


# --- buffers ------------------------------------------------------------------


def test_fifo_backpressure_at_depth():
    # a fast producer ahead of a slow consumer fills a two-place buffer
    specs = [StageSpec("fast", 1, 1), StageSpec("slow", 10, 10)]
    tight = chain(specs, 6, depths=[2]).stage_stats[0]
    roomy = chain(specs, 6, depths=[32]).stage_stats[0]
    assert roomy.output_stall_cycles == 0
    # iterations 3..5 each wait 9 cycles for the consumer to free a place
    assert tight.output_stall_cycles == 3 * 9


def test_fifo_pop_empty_is_stall():
    # the consumer waits on an empty input: counted as input stall, no error
    specs = [StageSpec("slow", 10, 10), StageSpec("fast", 1, 1)]
    consumer = chain(specs, 3).stage_stats[1]
    assert consumer.input_stall_cycles == 10 + 9 + 9
    assert consumer.output_stall_cycles == 0


def test_fifo_order():
    # iterations leave every buffer in the order they entered it
    specs = [StageSpec("a", 1, 1), StageSpec("b", 7, 3), StageSpec("c", 2, 5)]
    for starts in chain(specs, 8, depths=[4, 4]).start:
        assert list(starts) == sorted(set(starts))


def test_channel_depths():
    engine = EngineConfig(fifo_depth=5)
    assert channel_depths("A", engine) == (5,) * 6
    assert channel_depths("A", EngineConfig(fifo_depth=1)) == (1,) * 6


def test_pipo_channel_used_for_merge_b_edge():
    # the filtering-to-merging ping-pong buffer holds two iterations under
    # merge B, whatever the FIFO depth; under merge A that hop is a FIFO
    for depth in (1, 5, 32):
        engine = EngineConfig(fifo_depth=depth)
        assert channel_depths("B", engine) == (depth, 2) + (depth,) * 4
        assert channel_depths("A", engine)[1] == depth


def _buffer_occupancies(specs, hops, depth, n):
    """Occupancy of the buffer of a two-stage chain each time the producer
    begins an iteration, counted before the consumer acts in that cycle."""
    producer, consumer = run_pipeline(specs, hops, [depth], n).start
    return [
        sum(p <= t for p in producer) - sum(c < t for c in consumer) for t in producer
    ]


def test_channels_never_exceed_capacity():
    fast_slow = [StageSpec("fast", 1, 1), StageSpec("slow", 9, 7)]
    for depth in (1, 2, 3, 4):
        occupancy = _buffer_occupancies(fast_slow, [0, 1], depth, 12)
        assert max(occupancy) == depth  # the producer runs ahead until the buffer is full
    # filtering into merging under merge B, with the ping-pong depth
    specs = default_stage_specs("B", "B")
    pair = [specs["filtering"], specs["merging"]]
    depth_b = channel_depths("B", EngineConfig())[1]
    assert max(_buffer_occupancies(pair, [1, 1], depth_b, 12)) <= depth_b


def test_run_pipeline_validation():
    specs = [StageSpec("a", 1, 1), StageSpec("b", 1, 1)]
    with pytest.raises(ValueError):
        run_pipeline([], [], [], 1)
    with pytest.raises(ValueError):
        run_pipeline(specs, [0], [1], 1)
    with pytest.raises(ValueError):
        run_pipeline(specs, [0, 0], [0], 1)
    with pytest.raises(ValueError):
        run_pipeline(specs, [0, -1], [1], 1)
    with pytest.raises(ValueError):
        run_pipeline(specs, [0, 0], [1], 1, feed_period=-1)


stage_specs = st.builds(
    StageSpec,
    name=st.just("s"),
    latency_cycles=st.integers(0, 60),
    ii_cycles=st.integers(1, 60),
    start_offset_cycles=st.one_of(st.just(0), st.integers(0, 20)),
)


@st.composite
def chains(draw):
    specs = draw(st.lists(stage_specs, min_size=1, max_size=7))
    specs = [replace(s, name=f"s{i}") for i, s in enumerate(specs)]
    n = len(specs)
    hops = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    # 2 is also how the ping-pong buffer behaves
    depths = draw(st.lists(st.sampled_from([1, 2, 3, 32]), min_size=n - 1, max_size=n - 1))
    feed_period = draw(st.one_of(st.just(0), st.integers(0, 80)))
    n_events = draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, 40)))
    return specs, hops, depths, n_events, feed_period


@settings(max_examples=300, deadline=None)
@given(chains())
def test_run_pipeline_matches_cycle_reference(case):
    metrics = run_pipeline(*case)
    assert (metrics.start, metrics.stage_stats) == tick_reference(*case)


# --- engine timing ---------------------------------------------------------------


def test_single_stage_latency():
    metrics = chain([StageSpec("s", 5, 5)], 1)
    assert metrics.start == ((0,),)
    assert metrics.latency_cycles == 5


def test_two_stage_chain_latency():
    assert chain([StageSpec("a", 3, 1), StageSpec("b", 4, 1)], 1).latency_cycles == 7


def test_paced_feed_matches_ii():
    metrics = chain([StageSpec("s", 10, 10)], 5, feed_period=10)
    assert metrics.ii_cycles == 10
    stats = metrics.stage_stats[0]
    assert stats.input_stall_cycles == 0
    assert stats.output_stall_cycles == 0


def test_feed_slower_than_pipeline_sets_spacing():
    assert chain([StageSpec("s", 2, 1)], 4, feed_period=9).ii_cycles == 9


def test_measured_ii_is_bottleneck_stage():
    specs = [StageSpec("a", 4, 3), StageSpec("b", 9, 7), StageSpec("c", 2, 2)]
    assert chain(specs, 6).ii_cycles == 7


def test_hop_overhead_adds_to_effective_ii():
    specs = [StageSpec("a", 4, 3), StageSpec("b", 9, 7), StageSpec("c", 2, 2)]
    assert chain(specs, 6, hops=[0, 2, 0]).ii_cycles == 9


def test_streaming_offset_shortens_latency():
    specs0 = [StageSpec("a", 20, 5), StageSpec("b", 10, 5)]
    base = chain(specs0, 1).latency_cycles
    specs1 = [StageSpec("a", 20, 5), StageSpec("b", 10, 5, start_offset_cycles=6)]
    overlapped = chain(specs1, 1).latency_cycles
    assert base == 30
    # starts 10 cycles after the producer (not 6), so that it ends with it
    assert overlapped == 20


def _streaming_b_b_chain(n):
    specs = default_stage_specs("B", "B")
    specs["merging"] = replace(specs["merging"], latency_cycles=1)
    return [specs[name] for name in TRIGGER_STAGE_NAMES], trigger_timing(
        specs, "B", EngineConfig(), n
    )


def _two_stage_streaming_chain(n):
    specs = [StageSpec("a", 20, 5), StageSpec("b", 10, 5, start_offset_cycles=6)]
    return specs, chain(specs, n)


@pytest.mark.parametrize("build", [_streaming_b_b_chain, _two_stage_streaming_chain])
def test_no_stage_completes_before_its_producer(build):
    specs, metrics = build(6)
    for s in range(1, len(specs)):
        for consumer, producer in zip(metrics.start[s], metrics.start[s - 1]):
            assert consumer + specs[s].latency_cycles >= producer + specs[s - 1].latency_cycles


def test_causal_bound_adds_no_hop():
    # merging (latency 1) may start as soon as it would end with filtering
    # (38): B/B 200 and A/A 198.  Adding merging's hop to that bound would
    # give 201 and 199.
    for merge, clean, latency in (("B", "B", 200), ("A", "A", 198)):
        specs = RunConfig(stage_overrides={"merging": {"latency_cycles": 1}}).specs_for(merge, clean)
        assert trigger_timing(specs, merge, EngineConfig(), 6).latency_cycles == latency


def test_engine_is_deterministic():
    events = gen_events(21, 10, "busy", CFG)
    run_cfg = RunConfig()
    assert _simulate(run_cfg, events, "B", "B") == _simulate(run_cfg, events, "B", "B")


def test_engine_outputs_equal_staged_functional_path():
    events = gen_events(33, 25, "clustered", CFG)
    run_cfg = RunConfig()
    for merge, clean in (("A", "B"), ("B", "A"), ("B", "B")):
        outputs, metrics = _simulate(run_cfg, events, merge, clean)
        assert len(outputs) == len(metrics.start[-1]) == len(events)
        for ev, got in zip(events, outputs):
            assert got == run_stages(ev, CFG, merge, clean)


def test_default_trigger_chain_latency_figures():
    engine = EngineConfig()
    runs = {
        (merge, clean): trigger_timing(default_stage_specs(merge, clean), merge, engine, 6)
        for merge, clean in (("A", "A"), ("B", "B"))
    }
    assert runs[("A", "A")].latency_cycles == 203
    assert runs[("B", "B")].latency_cycles == 200
    assert runs[("A", "A")].ii_cycles == 44
    assert runs[("B", "B")].ii_cycles == 44


def test_zero_handshake_ii_equals_max_stage_ii():
    engine = EngineConfig(hop_overheads=(0,) * 7)
    metrics = trigger_timing(default_stage_specs(), "B", engine, 6)
    assert metrics.ii_cycles == max(s.ii_cycles for s in default_stage_specs().values()) == 43


def test_latency_monotone_in_stage_latency():
    engine = EngineConfig()
    base_specs = default_stage_specs()
    base = trigger_timing(base_specs, "B", engine, 4).latency_cycles
    for name in TRIGGER_STAGE_NAMES:
        specs = dict(base_specs)
        specs[name] = replace(specs[name], latency_cycles=specs[name].latency_cycles + 5)
        assert trigger_timing(specs, "B", engine, 4).latency_cycles >= base


def test_cdc_allowance():
    # off the nominal clock latency pays the allowance, II does not
    m = trigger_timing(default_stage_specs(), "B", EngineConfig(), 3)
    shifted, budget = operating_point(m, 300)
    assert shifted.latency_cycles == m.latency_cycles + 10
    assert shifted.ii_cycles == m.ii_cycles
    assert shifted.cdc_overhead_cycles == 10
    assert shifted.start == m.start
    assert (budget.latency_budget_cycles, budget.ii_budget_cycles) == (220, 45)
    assert operating_point(m, 360)[0] == m


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(fifo_depth=0)
    with pytest.raises(ValueError):
        EngineConfig(hop_overheads=(1, 2))
    with pytest.raises(ValueError):
        EngineConfig(hop_overheads=(1,) * 6 + (-1,))
