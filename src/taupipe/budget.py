"""Frequency/latency trade-off arithmetic: time budgets to cycle budgets.

The budgets are the trigger's fixed requirements, not settings: the data
period is fixed by the upstream readout (``II_BUDGET_NS``, one new event every
150 ns) while the processing deadline is a cycle count that depends on the
clock.  The known operating points carry table values for the latency
allowance (``LATENCY_BUDGET_CYCLES``, 275 cycles at 360 MHz and 220 at
300 MHz); any other frequency falls back to the 760 ns processing window
(``LATENCY_BUDGET_NS``).  Off ``NOMINAL_FREQ_MHZ`` the latency pays the
clock-domain-crossing allowance ``CDC_OVERHEAD_CYCLES``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .dataflow import PipelineMetrics

II_BUDGET_NS = 150
LATENCY_BUDGET_NS = 760

# Authoritative latency allowances for the known operating points.  These are
# fixed values, not derived: floor(760 * 0.36) would give 273, the allowance
# is 275 (the nanosecond window is approximate, the cycle count is binding).
LATENCY_BUDGET_CYCLES = {360: 275, 300: 220}

# The clock the stage timing rows were measured at; any other clock pays the
# clock-domain-crossing allowance on latency.
NOMINAL_FREQ_MHZ = 360
CDC_OVERHEAD_CYCLES = 10


def cycle_budget(time_ns: int, freq_mhz: int) -> int:
    """Cycles available within ``time_ns`` at ``freq_mhz``, exact integer floor."""
    if time_ns <= 0 or freq_mhz <= 0:
        raise ValueError(f"time and frequency must be positive, got {time_ns} ns, {freq_mhz} MHz")
    return (time_ns * freq_mhz) // 1000


@dataclass(frozen=True)
class TimingBudget:
    """Cycle allowances at one operating frequency."""

    frequency_mhz: int
    latency_budget_cycles: int
    ii_budget_cycles: int

    def __post_init__(self) -> None:
        if min(self.frequency_mhz, self.latency_budget_cycles, self.ii_budget_cycles) <= 0:
            raise ValueError("all budget figures must be strictly positive")

    @classmethod
    def for_frequency(cls, freq_mhz: int) -> "TimingBudget":
        """Budget at a frequency: table latency allowance, derived II allowance.

        A frequency missing from ``LATENCY_BUDGET_CYCLES`` gets the cycles of
        the 760 ns processing window.
        """
        latency = LATENCY_BUDGET_CYCLES.get(freq_mhz)
        if latency is None:
            latency = cycle_budget(LATENCY_BUDGET_NS, freq_mhz)
        return cls(
            frequency_mhz=freq_mhz,
            latency_budget_cycles=latency,
            ii_budget_cycles=cycle_budget(II_BUDGET_NS, freq_mhz),
        )


def operating_point(
    metrics: PipelineMetrics, freq_mhz: int
) -> tuple[PipelineMetrics, TimingBudget]:
    """Metrics and budget at ``freq_mhz``; off the nominal clock the
    clock-domain-crossing allowance is added to latency."""
    if freq_mhz != NOMINAL_FREQ_MHZ:
        metrics = replace(
            metrics,
            latency_cycles=metrics.latency_cycles + CDC_OVERHEAD_CYCLES,
            cdc_overhead_cycles=metrics.cdc_overhead_cycles + CDC_OVERHEAD_CYCLES,
        )
    return metrics, TimingBudget.for_frequency(freq_mhz)


@dataclass(frozen=True)
class FeasibilityReport:
    """Achieved metrics against a budget; feasible iff both slacks are >= 0."""

    budget: TimingBudget
    latency_slack_cycles: int
    ii_slack_cycles: int

    @property
    def feasible(self) -> bool:
        return self.latency_slack_cycles >= 0 and self.ii_slack_cycles >= 0


def evaluate_feasibility(metrics: PipelineMetrics, budget: TimingBudget) -> FeasibilityReport:
    """Judge measured latency and II against the cycle budgets."""
    return FeasibilityReport(
        budget=budget,
        latency_slack_cycles=budget.latency_budget_cycles - metrics.latency_cycles,
        ii_slack_cycles=budget.ii_budget_cycles - metrics.ii_cycles,
    )
