"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every assertion carries the criterion's stated tolerance (exact
integer equality unless noted) and the stated wall-clock ceiling.
"""

import time

from helpers import fig5_taus, random_merge_lists, random_tau_slots, stage_op_counts
from taupipe.budget import cycle_budget, operating_point
from taupipe.core import BLOCK_SIZE, MAX_CANDIDATES, OpCounter
from taupipe.dataflow import (
    DEFAULT_FIFO_DEPTH,
    MERGE_B_SETUP_CYCLES,
    TRIGGER_STAGE_NAMES,
    default_stage_specs,
    trigger_timing,
)
from taupipe.cli import main as cli_main
from taupipe.eventio import (
    gen_events,
    parse_events,
    parse_report,
    serialize_report,
    splitmix64,
    write_events,
)
from taupipe.reference import oracle_clean, oracle_merge, oracle_trigger
from taupipe.stages import (
    CandidateList,
    TriggerConfig,
    build_cleaning_matrix,
    clean_solution_a,
    clean_solution_b,
    compute_total_pt,
    filter_block,
    merge_solution_a,
    merge_solution_b,
    partition_blocks,
    run_stages,
    select_seeds,
    select_signal_candidates,
)

CFG = TriggerConfig()


def _report(criterion: str, detail: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {detail} [{elapsed:.2f}s]")


def test_c1_fig5_golden_cleaning():
    t0 = time.perf_counter()
    taus = fig5_taus()
    matrix = build_cleaning_matrix(taus, CFG)
    ones_1based = sorted((i + 1, j + 1) for i, j in matrix)
    assert ones_1based == [(2, 6), (3, 1), (4, 2), (4, 6)]
    want = (taus[0], taus[4], taus[5])  # slots {1, 5, 6}
    assert clean_solution_a(taus, CFG) == want
    assert clean_solution_b(taus, CFG) == want
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("C1", "6-tau golden scenario: matrix ones and survivors {1,5,6}", elapsed)


def test_c2_equivalence_suites():
    t0 = time.perf_counter()
    draw = splitmix64(0xC2)
    for _ in range(10_000):
        taus = random_tau_slots(draw)
        a = clean_solution_a(taus, CFG)
        b = clean_solution_b(taus, CFG)
        o = oracle_clean(taus, CFG)
        assert a == b == o
    draw = splitmix64(0x4C15)
    agreed_sets = 0
    for _ in range(10_000):
        lists = random_merge_lists(draw)
        expect = oracle_merge(lists)
        ra = merge_solution_a(lists)
        rb = merge_solution_b(lists)
        assert expect.check(ra.items, ra.discarded)
        assert expect.check(rb.items, rb.discarded)
        if sum(len(l) for l in lists) <= MAX_CANDIDATES:
            assert set(ra.items) == set(rb.items)
            agreed_sets += 1
    assert agreed_sets > 500  # the non-overflow regime is genuinely exercised
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report("C2", "10k cleaning and 10k merging instances, zero mismatches", elapsed)


def test_c3_end_to_end_functional_transparency():
    t0 = time.perf_counter()
    events = gen_events(20260801, 1000, "clustered", CFG)
    canonical = [oracle_trigger(ev, CFG) for ev in events]
    for merge in "AB":
        for clean in "AB":
            for ev, want in zip(events, canonical):
                assert run_stages(ev, CFG, merge, clean) == want
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report("C3", "1000 events, 4 variant combinations, pipeline == reference", elapsed)


def test_c4_budget_arithmetic():
    t0 = time.perf_counter()
    assert cycle_budget(150, 360) == 54
    assert cycle_budget(150, 300) == 45
    _report("C4", "cycle budgets 54 @360 MHz and 45 @300 MHz", time.perf_counter() - t0)


def test_c5_pipeline_composition():
    t0 = time.perf_counter()
    specs = default_stage_specs("A", "A")  # the original partitioning table
    latencies = [s.latency_cycles for s in specs.values()]
    assert sum(latencies) == 229 and max(latencies) == 59
    metrics = trigger_timing("A", "A", {}, DEFAULT_FIFO_DEPTH)
    again = trigger_timing("A", "A", {}, DEFAULT_FIFO_DEPTH)
    assert metrics == again  # deterministic
    assert 59 <= metrics.latency_cycles < 237
    assert metrics.ii_cycles <= 45
    zero_hop = {name: {"hop_cycles": 0} for name in TRIGGER_STAGE_NAMES}
    ii_bare = trigger_timing("A", "A", zero_hop, DEFAULT_FIFO_DEPTH).ii_cycles
    assert ii_bare == max(s.ii_cycles for s in specs.values()) == 43
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(
        "C5",
        f"latency {metrics.latency_cycles} in [59, 237), ii {metrics.ii_cycles} <= 45, "
        f"bare ii {ii_bare} == max stage ii",
        elapsed,
    )


def test_c6_frequency_tradeoff_reproduction():
    t0 = time.perf_counter()
    metrics_360 = trigger_timing("B", "B", {}, DEFAULT_FIFO_DEPTH)
    point_360 = operating_point(metrics_360, 360)
    assert point_360.latency_budget_cycles == 275
    assert point_360.ii_budget_cycles == 54
    assert point_360.feasible

    point_300 = operating_point(metrics_360, 300)
    assert point_300.latency_cycles == metrics_360.latency_cycles + 10
    assert point_300.timing.ii_cycles == metrics_360.ii_cycles
    assert point_300.latency_budget_cycles == 220
    assert point_300.ii_budget_cycles == 45
    assert point_300.feasible
    _report(
        "C6",
        f"300 MHz latency {point_300.latency_cycles} = {metrics_360.latency_cycles}+10 "
        f"<= 220, ii {point_300.timing.ii_cycles} <= 45; 360 MHz fits (275, 54)",
        time.perf_counter() - t0,
    )


def test_c7_merge_cycle_models():
    t0 = time.perf_counter()
    row_b = default_stage_specs("B", "B")["merging"].latency_cycles
    assert row_b == MERGE_B_SETUP_CYCLES + MAX_CANDIDATES == 33
    full = [[lst * 1000 + i for i in range(32)] for lst in range(4)]
    rb = merge_solution_b(full)
    want = [full[lst][rnd] for rnd in range(7) for lst in range(4)]
    want += [full[0][7], full[1][7]]
    assert list(rb.items) == want  # 30 tokens, round-robin by index
    draw = splitmix64(0xC7)
    most_a = most_b = 0
    for lists in [full] + [random_merge_lists(draw) for _ in range(2000)]:
        most_b = max(most_b, len(merge_solution_b(lists).items))
        # A drains every source in parallel to its end; it refuses a source
        # longer than a block
        merge_solution_a(lists)
        most_a = max(most_a, *map(len, lists))
    # B's setup plus one cycle per emitted item fits its merging row
    assert most_b <= MAX_CANDIDATES
    assert MERGE_B_SETUP_CYCLES + most_b <= row_b
    assert most_a <= BLOCK_SIZE
    elapsed = time.perf_counter() - t0
    _report(
        "C7",
        f"solution B emits <= {most_b} items, setup {MERGE_B_SETUP_CYCLES} + {most_b} "
        f"<= row {row_b}; solution A reads <= {most_a} items per source",
        elapsed,
    )


def test_c8_cost_accounting():
    t0 = time.perf_counter()
    # each probe below computes one distance
    rows = stage_op_counts(CFG)
    assert rows["filtering"].multiplications == 2
    assert rows["signal_selection"].multiplications == 2
    assert rows["cleaning"].multiplications == 2
    assert rows["tau_parameters"].divisions == 2
    assert all(r.divisions == 0 for name, r in rows.items() if name != "tau_parameters")

    # whole per-event path: divisions appear only in the parameter stage,
    # exactly two per non-degenerate candidate group
    events = gen_events(55, 40, "clustered", CFG)
    for ev in events:
        ops = OpCounter()
        run_stages(ev, CFG, "B", "B", ops)
        groups = 0
        seeds = select_seeds(ev, CFG)
        blocks = partition_blocks(ev)
        for seed in seeds:
            merged = merge_solution_b([filter_block(b, seed, CFG) for b in blocks])
            clist = CandidateList(seed, merged.items)
            if compute_total_pt(select_signal_candidates(clist, CFG).candidates) > 0:
                groups += 1
        assert ops.divisions == 2 * groups
    _report(
        "C8",
        "2 multiplications per distance, 2 divisions per tau group, none elsewhere",
        time.perf_counter() - t0,
    )


def test_c9_determinism_and_formats(tmp_path):
    t0 = time.perf_counter()
    r1, r2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    argv = ["run", "--gen", "77:60:clustered", "--freq", "300", "--report"]
    assert cli_main(argv + [str(r1)]) == 0
    assert cli_main(argv + [str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()

    for profile in ("uniform", "clustered", "busy"):
        events = gen_events(3, 15, profile, CFG)
        text = write_events(events)
        assert parse_events(text, CFG) == events
        assert write_events(parse_events(text, CFG)) == text

    report_text = r1.read_text()
    assert serialize_report(parse_report(report_text)) == report_text
    _report(
        "C9",
        "byte-identical consecutive runs; parse/serialize identities hold",
        time.perf_counter() - t0,
    )
