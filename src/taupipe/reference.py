"""Naive, unpipelined reference implementations used as ground truth.

Everything here favors obviousness over speed: full sorts, list
comprehensions, and exact integer arithmetic with the truncating division
written out once (``_trunc_div``).  The trigger reference keeps only the
stated structural limits (16 seeds, 30 candidates, 8 taus) and no other
capacity mechanics, so it defines the canonical per-event output that the
staged pipeline is checked against.

"Naive" means: every valid particle is tested against every seed, and every
pair of valid taus against each other; there is no index, and no loop is
shared with ``stages``.  The filter-cone test, the one run per particle and
seed, is written inline rather than as a ``delta_r2`` call.

A merge step may keep any items once a seed's cone holds more than the
candidate cap, and the two merge solutions keep different ones.  So the
order in which the cap keeps in-cone particles is the one place where the
trigger reference depends on the merge solution: A keeps slot order, B's
round-robin keeps (rank within the block's in-cone list, block index).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .core import (
    BLOCK_SIZE,
    MAX_CANDIDATES,
    MAX_TAUS,
    N_FILTER_BLOCKS,
    N_SEEDS,
    PHI_HALF,
    PHI_RANGE,
    PT_MAX,
    AngularCoord,
    Event,
    Particle,
    delta_r2,
    wrap_delta_phi,
    wrap_phi,
)
from .stages import INVALID_TAU, MERGE_SOLUTIONS, Tau, TriggerConfig


def _trunc_div(num: int, den: int) -> int:
    """num / den truncated toward zero, for den > 0, as an integer divider does.

    Written apart from ``core.trunc_div``, which the stages call, so that the
    check does not rest on the code it checks.
    """
    return -(-num // den) if num < 0 else num // den


def signal_cone_r2(total_pt: int, cfg: TriggerConfig) -> int:
    """Signal cone radius squared: inverse-pt shrinking, clamped both ways.

    clamp(signal_cone_k / max(total_pt, 1), r2_min, r2_max) with truncating
    integer division.  ``stages.select_signal_candidates`` uses the
    division-free equivalent.
    """
    q = cfg.signal_cone_k // max(total_pt, 1)
    return max(cfg.signal_cone_r2_min, min(cfg.signal_cone_r2_max, q))


def oracle_trigger(
    event: Event, cfg: TriggerConfig, merge_solution: str = "A"
) -> tuple[Tau, ...]:
    """Canonical end-to-end result: the seven steps, written the simple way.

    ``merge_solution`` selects the candidate cap's order; it matters only
    when a seed's cone holds more than ``MAX_CANDIDATES`` particles.  Its
    default is ``"A"``, while ``taupipe run`` defaults to merge B, so a check
    of a merge B run must pass ``"B"``: against the default, a correct run
    may diverge on events whose cones overflow.
    """
    if merge_solution not in MERGE_SOLUTIONS:
        raise ValueError(f"merge_solution must be one of {tuple(MERGE_SOLUTIONS)}")
    blocks = [
        [p for p in event.particles[b * BLOCK_SIZE : (b + 1) * BLOCK_SIZE] if p.valid]
        for b in range(N_FILTER_BLOCKS)
    ]

    ranked = sorted(
        (
            (i, p)
            for i, p in enumerate(event.particles)
            if p.valid and p.species.charged and p.pt >= cfg.min_seed_pt
        ),
        key=lambda ip: (-ip[1].pt, ip[0]),
    )
    seeds = ranked[:N_SEEDS]

    r2 = cfg.filter_cone_r2
    taus: list[Tau] = [INVALID_TAU] * N_SEEDS
    for slot, (_, seed) in enumerate(seeds):
        # delta_r2(p, seed) <= r2, inline; most pairs fail on eta alone
        se, sp = seed.eta, seed.phi
        in_cone = [
            [
                p
                for p in block
                if (de := p.eta - se) * de <= r2
                and de * de + (dp := (p.phi - sp + PHI_HALF) % PHI_RANGE - PHI_HALF) * dp <= r2
            ]
            for block in blocks
        ]
        # The cap keeps the first MAX_CANDIDATES in the merge solution's
        # order: slot order under A; (rank within the block's list, block
        # index) under B.  Without overflow it keeps all, in any order.
        ordered = [p for lst in in_cone for p in lst]
        if merge_solution == "B" and len(ordered) > MAX_CANDIDATES:
            ordered = [lst[r] for r in range(BLOCK_SIZE) for lst in in_cone if r < len(lst)]
        cands = ordered[:MAX_CANDIDATES]
        total = min(sum(p.pt for p in cands), PT_MAX)

        r2_sig = signal_cone_r2(total, cfg)
        kept = [
            p
            for p in cands
            if p.species in cfg.allowed_signal_species
            and delta_r2(p, seed) <= r2_sig
        ]
        weight = sum(p.pt for p in kept)
        sum_pt = min(weight, PT_MAX)
        if sum_pt == 0 or sum_pt < cfg.min_tau_pt:
            continue

        # Means weighted by the unsaturated pt sum, truncated toward zero
        # as an integer divider does.
        eta_w = _trunc_div(sum(p.pt * p.eta for p in kept), weight)
        phi_off = _trunc_div(sum(p.pt * wrap_delta_phi(p.phi, seed.phi) for p in kept), weight)
        phi_w = wrap_phi(seed.phi + phi_off)
        taus[slot] = Tau(sum_pt, AngularCoord(eta_w, phi_w))

    return oracle_clean(taus, cfg)


def oracle_clean(taus: Sequence[Tau], cfg: TriggerConfig) -> tuple[Tau, ...]:
    """Survivors by the domination rule, then the highest-pt cap.

    Slot i survives when no valid nearby slot j beats it: pt_j > pt_i, or
    pt_j == pt_i with j < i.
    """
    valid = [i for i, t in enumerate(taus) if t.valid]
    survivors = []
    for i in valid:
        # the pt test first: it is cheaper than the distance, and rules out j == i
        dominated = any(
            (taus[j].pt > taus[i].pt or (taus[j].pt == taus[i].pt and j < i))
            and delta_r2(taus[i].pos, taus[j].pos) <= cfg.proximity_r2
            for j in valid
        )
        if not dominated:
            survivors.append(i)
    if len(survivors) > MAX_TAUS:
        top = sorted(survivors, key=lambda i: (-taus[i].pt, i))[:MAX_TAUS]
        survivors = sorted(top)
    return tuple(taus[i] for i in survivors)


@dataclass(frozen=True)
class MergeExpectation:
    """What any correct four-to-one merge must produce: a checker, not a chooser.

    When the sources fit the capacity, the output must be exactly the source
    multiset.  On overflow any capacity-sized sub-multiset of the sources is
    acceptable.
    """

    capacity: int
    source_multiset: Counter
    source_count: int

    @property
    def required_size(self) -> int:
        return min(self.capacity, self.source_count)

    def check(self, items: Sequence[Particle], discarded: Sequence[Particle] | None = None) -> bool:
        out = Counter(items)
        if len(items) != self.required_size:
            return False
        if not all(out[k] <= self.source_multiset[k] for k in out):
            return False
        if self.source_count <= self.capacity and out != self.source_multiset:
            return False
        if discarded is not None and out + Counter(discarded) != self.source_multiset:
            return False
        return True


def oracle_merge(lists: Sequence[Sequence[Particle]]) -> MergeExpectation:
    """Build the merge-outcome descriptor for the given source lists."""
    flat = [p for lst in lists for p in lst]
    return MergeExpectation(
        capacity=MAX_CANDIDATES,
        source_multiset=Counter(flat),
        source_count=len(flat),
    )
