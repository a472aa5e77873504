from collections import Counter

import pytest
from hypothesis import given, strategies as st

from taupipe.core import make_particle
from taupipe.reference import oracle_merge
from taupipe.stages import MERGE_B_SETUP_CYCLES, TriggerConfig, merge_solution_a, merge_solution_b

CFG = TriggerConfig()


def items(n, tag=0):
    return [tag * 1000 + i for i in range(n)]


def test_merge_a_four_empty():
    r = merge_solution_a([[], [], [], []], CFG)
    assert r.items == () and r.discarded == ()
    assert r.modeled_cycles == 0


def test_merge_a_greedy_allocation():
    lists = [items(8, t) for t in range(4)]
    r = merge_solution_a(lists, CFG)
    # greedy take counts (8, 8, 8, 6): all of the first three, first 6 of the last
    assert list(r.items) == lists[0] + lists[1] + lists[2] + lists[3][:6]
    assert list(r.discarded) == lists[3][6:]


def test_merge_a_single_full_source():
    lists = [items(32), [], [], []]
    r = merge_solution_a(lists, CFG)
    assert list(r.items) == items(30)
    assert len(r.discarded) == 2
    assert r.modeled_cycles == 32


def test_merge_b_four_empty():
    r = merge_solution_b([[], [], [], []], CFG)
    assert r.items == () and r.discarded == ()
    assert r.modeled_cycles == MERGE_B_SETUP_CYCLES


def test_merge_b_hand_executed_machine():
    # lists ([a1,a2],[b1],[],[d1]) -> round 0 emits a1,b1,d1; round 1 emits a2
    r = merge_solution_b([["a1", "a2"], ["b1"], [], ["d1"]], CFG)
    assert list(r.items) == ["a1", "b1", "d1", "a2"]


def test_merge_b_full_lists_round_robin():
    lists = [items(32, t) for t in range(4)]
    r = merge_solution_b(lists, CFG)
    want = []
    for rnd in range(7):
        want.extend(lists[t][rnd] for t in range(4))
    want.extend([lists[0][7], lists[1][7]])
    assert list(r.items) == want
    assert len(r.items) == 30
    assert r.modeled_cycles == MERGE_B_SETUP_CYCLES + 30 == 33


def test_merge_b_discards_each_sources_unread_suffix():
    # 30 slots fill after eight reads of sources 0 and 1 and seven of 2 and 3
    lists = [items(32, t) for t in range(4)]
    r = merge_solution_b(lists, CFG)
    assert list(r.discarded) == lists[0][8:] + lists[1][8:] + lists[2][7:] + lists[3][7:]


def test_merge_rejects_oversize_source():
    with pytest.raises(ValueError):
        merge_solution_a([items(33), [], [], []], CFG)
    with pytest.raises(ValueError):
        merge_solution_b([items(33), [], [], []], CFG)


sizes_st = st.tuples(*[st.integers(0, 32)] * 4)


@given(sizes_st)
def test_merge_conservation_and_size(sizes):
    lists = [items(s, t) for t, s in enumerate(sizes)]
    total = sum(sizes)
    source = Counter(x for lst in lists for x in lst)
    for fn in (merge_solution_a, merge_solution_b):
        r = fn(lists, CFG)
        assert len(r.items) == min(30, total)
        assert Counter(r.items) + Counter(r.discarded) == source
        assert all(x in source for x in r.items)


@given(st.tuples(*[st.integers(0, 7)] * 4))
def test_merge_solutions_agree_when_no_overflow(sizes):
    lists = [items(s, t) for t, s in enumerate(sizes)]
    assert sum(sizes) <= 30
    ra = merge_solution_a(lists, CFG)
    rb = merge_solution_b(lists, CFG)
    assert set(ra.items) == set(rb.items)
    assert ra.discarded == () and rb.discarded == ()


@given(sizes_st)
def test_merge_cycle_models_bounded(sizes):
    lists = [items(s, t) for t, s in enumerate(sizes)]
    assert merge_solution_a(lists, CFG).modeled_cycles <= 32
    assert merge_solution_b(lists, CFG).modeled_cycles <= 33


@given(sizes_st)
def test_merge_against_expectation_descriptor(sizes):
    lists = [items(s, t) for t, s in enumerate(sizes)]
    exp = oracle_merge(lists)
    for fn in (merge_solution_a, merge_solution_b):
        r = fn(lists, CFG)
        assert exp.check(r.items, r.discarded)


def test_expectation_descriptor_examples():
    # 12 items total: the descriptor demands exactly those 12
    lists = [items(3, t) for t in range(4)]
    exp = oracle_merge(lists)
    assert exp.required_size == 12
    assert exp.check([x for lst in lists for x in lst])
    assert not exp.check([x for lst in lists for x in lst][:11])

    # 128 items total: any 30-subset of the sources passes
    full = [items(32, t) for t in range(4)]
    exp = oracle_merge(full)
    assert exp.required_size == 30
    assert exp.check(full[0][:30])
    assert exp.check(full[0][:15] + full[3][:15])
    assert not exp.check(full[0][:30][:29])
    assert not exp.check(full[0][:29] + [999999])

    # exactly 30: demands all of them
    exact = [items(30, 9), [], [], []]
    exp = oracle_merge(exact)
    assert exp.check(exact[0])
    assert not exp.check(exact[0][:29] + [exact[0][0]])


def test_merge_works_on_particles_too():
    parts = [[make_particle(10 + i, i, 0) for i in range(5)], [], [], []]
    ra = merge_solution_a(parts, CFG)
    rb = merge_solution_b(parts, CFG)
    assert ra.items == tuple(parts[0])
    assert set(rb.items) == set(parts[0])
