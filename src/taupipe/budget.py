"""Frequency/latency trade-off arithmetic: time budgets to cycle budgets.

The data period is fixed by the upstream readout (one new event every 150 ns)
while the processing deadline is a cycle count that depends on the clock.
The known operating points carry table values for the latency allowance; any
other frequency falls back to the 760 ns processing window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

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
    def for_frequency(
        cls,
        freq_mhz: int,
        *,
        ii_budget_ns: int = II_BUDGET_NS,
        latency_table: Mapping[int, int] = LATENCY_BUDGET_CYCLES,
    ) -> "TimingBudget":
        """Budget at a frequency: table latency allowance, derived II allowance.

        A frequency missing from ``latency_table`` gets the cycles of the
        760 ns processing window.
        """
        latency = latency_table.get(freq_mhz)
        if latency is None:
            latency = cycle_budget(LATENCY_BUDGET_NS, freq_mhz)
        return cls(
            frequency_mhz=freq_mhz,
            latency_budget_cycles=latency,
            ii_budget_cycles=cycle_budget(ii_budget_ns, freq_mhz),
        )


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
