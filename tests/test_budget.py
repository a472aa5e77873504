from hypothesis import given, strategies as st

from taupipe.budget import cycle_budget, operating_point
from taupipe.dataflow import ChainTiming


def metrics(latency, ii):
    """A one-stage chain of the given latency and pace."""
    timing = ChainTiming(
        names=("s",), lead=(0,), step=(ii,), depths=(), sink_latency_cycles=latency
    )
    assert (timing.latency_cycles, timing.ii_cycles) == (latency, ii)
    return timing


def test_cycle_budget_known_points():
    assert cycle_budget(150, 360) == 54
    assert cycle_budget(150, 300) == 45
    assert cycle_budget(1000, 1) == 1


@given(st.integers(1, 10_000), st.integers(1, 2000), st.integers(0, 500), st.integers(0, 500))
def test_cycle_budget_monotone(t, f, dt, df):
    assert cycle_budget(t, f) <= cycle_budget(t + dt, f)
    assert cycle_budget(t, f) <= cycle_budget(t, f + df)


@given(st.integers(1, 10_000))
def test_slower_clock_never_gains_cycles(t):
    assert cycle_budget(t, 300) <= cycle_budget(t, 360)


def test_budget_table_values():
    p360 = operating_point(metrics(0, 0), 360)
    p300 = operating_point(metrics(0, 0), 300)
    assert (p360.latency_budget_cycles, p360.ii_budget_cycles) == (275, 54)
    assert (p300.latency_budget_cycles, p300.ii_budget_cycles) == (220, 45)


def test_budget_fallback_for_unlisted_frequency():
    p = operating_point(metrics(0, 0), 240)
    assert p.ii_budget_cycles == cycle_budget(150, 240) == 36
    assert p.latency_budget_cycles == cycle_budget(760, 240) == 182


def test_feasibility_table_vi_optimized_point():
    # 200 cycles at the nominal clock plus the 10-cycle CDC allowance
    point = operating_point(metrics(200, 45), 300)
    assert point.latency_cycles == 210
    assert point.feasible
    assert point.latency_slack_cycles == 10
    assert point.ii_slack_cycles == 0


def test_feasibility_initial_point():
    point = operating_point(metrics(203, 45), 360)
    assert point.feasible


def test_feasibility_boundary_plus_one():
    point = operating_point(metrics(211, 45), 300)
    assert not point.feasible
    assert point.latency_slack_cycles == -1
    assert point.ii_slack_cycles == 0


@given(st.integers(0, 400), st.integers(0, 100))
def test_feasible_iff_both_slacks_nonnegative(lat, ii):
    point = operating_point(metrics(lat, ii), 300)
    assert point.feasible == (point.latency_slack_cycles >= 0 and point.ii_slack_cycles >= 0)
    assert point.feasible == (lat + 10 <= 220 and ii <= 45)
