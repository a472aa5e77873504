"""Frequency/latency trade-off arithmetic: time budgets to cycle budgets.

The budgets are the trigger's fixed requirements, not settings: the data
period is fixed by the upstream readout (``II_BUDGET_NS``, one new event every
150 ns) while the processing deadline is a cycle count that depends on the
clock.  The known operating points carry table values for the latency
allowance (``LATENCY_BUDGET_CYCLES``, 275 cycles at 360 MHz and 220 at
300 MHz); any other frequency falls back to the 760 ns processing window
(``LATENCY_BUDGET_NS``).  Off ``NOMINAL_FREQ_MHZ`` the latency pays the
clock-domain-crossing allowance ``CDC_OVERHEAD_CYCLES``.

``operating_point`` judges a design's timing at one clock and returns the
verdict as one ``OperatingPoint`` record: budgets, allowance, slacks and
feasibility.  It owns the clock rule: a clock must give at least one cycle
of each budget, so it refuses 6 MHz and below, zero and negatives
included, for every caller.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dataflow import ChainTiming

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
    """Cycles available within ``time_ns`` at ``freq_mhz``, exact integer
    floor.  Defined for positive inputs only; ``operating_point`` owns the
    clock rule."""
    return (time_ns * freq_mhz) // 1000


@dataclass(frozen=True)
class OperatingPoint:
    """A design's ``timing`` against the budgets at one clock: ``latency_cycles``
    adds the CDC allowance, and the point is feasible iff both slacks are >= 0."""

    frequency_mhz: int
    latency_budget_cycles: int
    ii_budget_cycles: int
    cdc_overhead_cycles: int
    timing: ChainTiming

    @property
    def latency_cycles(self) -> int:
        return self.timing.latency_cycles + self.cdc_overhead_cycles

    @property
    def latency_slack_cycles(self) -> int:
        return self.latency_budget_cycles - self.latency_cycles

    @property
    def ii_slack_cycles(self) -> int:
        return self.ii_budget_cycles - self.timing.ii_cycles

    @property
    def feasible(self) -> bool:
        return self.latency_slack_cycles >= 0 and self.ii_slack_cycles >= 0


def operating_point(timing: ChainTiming, freq_mhz: int) -> OperatingPoint:
    """``timing`` at ``freq_mhz``: the table latency allowance, or else the
    cycles of the 760 ns window, the II allowance of the 150 ns period, and
    the clock-domain-crossing allowance off the nominal clock."""
    latency = LATENCY_BUDGET_CYCLES.get(freq_mhz) or cycle_budget(LATENCY_BUDGET_NS, freq_mhz)
    ii = cycle_budget(II_BUDGET_NS, freq_mhz)
    if min(latency, ii) <= 0:
        raise ValueError("all budget figures must be strictly positive")
    return OperatingPoint(
        frequency_mhz=freq_mhz,
        latency_budget_cycles=latency,
        ii_budget_cycles=ii,
        cdc_overhead_cycles=0 if freq_mhz == NOMINAL_FREQ_MHZ else CDC_OVERHEAD_CYCLES,
        timing=timing,
    )
