import pytest
from hypothesis import given, strategies as st

from taupipe.budget import TimingBudget, cycle_budget, evaluate_feasibility
from taupipe.dataflow import PipelineMetrics


def metrics(latency, ii):
    return PipelineMetrics(
        latency_cycles=latency,
        ii_cycles=ii,
        stage_stats=(),
    )


def test_cycle_budget_known_points():
    assert cycle_budget(150, 360) == 54
    assert cycle_budget(150, 300) == 45
    assert cycle_budget(1000, 1) == 1


def test_cycle_budget_rejects_nonpositive():
    for args in [(0, 360), (150, 0), (-5, 300), (150, -1)]:
        with pytest.raises(ValueError):
            cycle_budget(*args)


@given(st.integers(1, 10_000), st.integers(1, 2000), st.integers(0, 500), st.integers(0, 500))
def test_cycle_budget_monotone(t, f, dt, df):
    assert cycle_budget(t, f) <= cycle_budget(t + dt, f)
    assert cycle_budget(t, f) <= cycle_budget(t, f + df)


@given(st.integers(1, 10_000))
def test_slower_clock_never_gains_cycles(t):
    assert cycle_budget(t, 300) <= cycle_budget(t, 360)


def test_budget_table_values():
    b360 = TimingBudget.for_frequency(360)
    b300 = TimingBudget.for_frequency(300)
    assert (b360.latency_budget_cycles, b360.ii_budget_cycles) == (275, 54)
    assert (b300.latency_budget_cycles, b300.ii_budget_cycles) == (220, 45)


def test_budget_fallback_for_unlisted_frequency():
    b = TimingBudget.for_frequency(240)
    assert b.ii_budget_cycles == cycle_budget(150, 240) == 36
    assert b.latency_budget_cycles == cycle_budget(760, 240) == 182


def test_feasibility_table_vi_optimized_point():
    report = evaluate_feasibility(metrics(210, 45), TimingBudget.for_frequency(300))
    assert report.feasible
    assert report.latency_slack_cycles == 10
    assert report.ii_slack_cycles == 0


def test_feasibility_initial_point():
    report = evaluate_feasibility(metrics(203, 45), TimingBudget.for_frequency(360))
    assert report.feasible


def test_feasibility_boundary_plus_one():
    report = evaluate_feasibility(metrics(221, 45), TimingBudget.for_frequency(300))
    assert not report.feasible
    assert report.latency_slack_cycles == -1
    assert report.ii_slack_cycles == 0


@given(st.integers(0, 400), st.integers(0, 100))
def test_feasible_iff_both_slacks_nonnegative(lat, ii):
    report = evaluate_feasibility(metrics(lat, ii), TimingBudget.for_frequency(300))
    assert report.feasible == (report.latency_slack_cycles >= 0 and report.ii_slack_cycles >= 0)
    assert report.feasible == (lat <= 220 and ii <= 45)
