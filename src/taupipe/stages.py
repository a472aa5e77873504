"""Pure functional implementations of the seven trigger pipeline steps.

Step order: seed selection, per-block cone filtering, four-to-one candidate
merging (two interchangeable solutions), signal-candidate selection, weighted
parameter averaging, tau reconstruction, and proximity cleaning (again two
solutions).  Every function is a pure function of its inputs plus the config.
Both cleaning solutions keep the taus that ``build_cleaning_matrix`` leaves
unmarked; they differ only in their stage row (A 13/13, B 15/13) and in B's
``pair_orders`` count.

The optional ``ops`` argument collects datapath operation counts.  Each step
names what it counted with ``core.charge``, once and outside its loops, from
sizes it already has; ``core.OP_COSTS`` prices each count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

from .core import (
    BLOCK_SIZE,
    MAX_CANDIDATES,
    MAX_DELTA_R2,
    MAX_TAUS,
    N_FILTER_BLOCKS,
    N_SEEDS,
    PHI_HALF,
    PHI_RANGE,
    PT_MAX,
    Event,
    OpCounter,
    Particle,
    Species,
    Tau,
    charge,
    delta_r2,
    trunc_div,
    wrap_phi,
)

DEFAULT_SIGNAL_SPECIES = frozenset(
    {Species.CHARGED_HADRON, Species.NEUTRAL_HADRON, Species.PHOTON, Species.ELECTRON}
)

@dataclass(frozen=True)
class TriggerConfig:
    """The cones and thresholds of the trigger algorithm, with desk-scale defaults.

    The values are placeholders wired through one record so they can be
    replaced wholesale.  The framing (128 inputs, 16 seeds, 4 blocks of 32,
    30 candidates, 8 taus) and the pt/eta/phi ranges are constants of
    ``core``, as they are array sizes and register widths of the design.
    """

    filter_cone_r2: int = 16900
    signal_cone_k: int = 16900 * 256
    signal_cone_r2_min: int = 1024
    signal_cone_r2_max: int = 16900
    allowed_signal_species: frozenset[Species] = DEFAULT_SIGNAL_SPECIES
    proximity_r2: int = 26569
    min_seed_pt: int = 4
    min_tau_pt: int = 16

    def __post_init__(self) -> None:
        if self.signal_cone_r2_min > self.signal_cone_r2_max:
            raise ValueError(
                "signal_cone_r2_min must not exceed signal_cone_r2_max "
                f"(got {self.signal_cone_r2_min} > {self.signal_cone_r2_max})"
            )
        for name in ("filter_cone_r2", "signal_cone_k", "proximity_r2", "min_seed_pt",
                     "min_tau_pt", "signal_cone_r2_min"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class CandidateList:
    """A seed with its associated candidates."""

    seed: Particle
    candidates: tuple[Particle, ...]


INVALID_TAU = Tau(0, 0, 0)


@dataclass(frozen=True)
class MergeResult:
    """Outcome of a four-to-one merge.

    ``items`` is the target list and ``discarded`` the items left out of it,
    source by source.
    """

    items: tuple[Particle, ...]
    discarded: tuple[Particle, ...]


def select_seeds(
    event: Event, cfg: TriggerConfig, ops: OpCounter | None = None
) -> tuple[Particle, ...]:
    """Pick the highest-pt charged particles, at most ``N_SEEDS`` of them.

    Output is graded by descending pt with ascending slot breaking ties.
    Fewer qualifying particles simply yield a shorter tuple.
    """
    charged = [p for p in event.particles if p.valid and p.species.charged]
    charge(ops, "seeding_tests", len(charged))
    qualified = [p for p in charged if p.pt >= cfg.min_seed_pt]
    # The sort is stable, so equal pts keep their slot order.
    qualified.sort(key=lambda p: -p.pt)
    return tuple(qualified[:N_SEEDS])


def partition_blocks(event: Event) -> tuple[tuple[Particle, ...], ...]:
    """Split the event into the contiguous fixed-size filter blocks, each
    holding its valid particles only, in slot order."""
    return tuple(
        tuple([p for p in event.particles[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE] if p.valid])
        for i in range(N_FILTER_BLOCKS)
    )


def filter_block(
    block: Sequence[Particle],
    seed: Particle,
    cfg: TriggerConfig,
    ops: OpCounter | None = None,
) -> tuple[Particle, ...]:
    """Keep the block's particles inside the seed's filter cone.

    The block holds valid particles only, as ``partition_blocks`` builds it.
    Input order is preserved; the cone boundary is inclusive.  Every particle
    counts as one filter test; the model itself skips the distance for
    particles outside the cone's eta reach, and tests none when the cone
    holds the whole detector (``filter_cone_r2 >= MAX_DELTA_R2``, as
    ``Particle`` enforces the ranges).
    """
    charge(ops, "filter_tests", len(block))
    cone_r2 = cfg.filter_cone_r2
    if cone_r2 >= MAX_DELTA_R2:
        return tuple(block)
    # |deta| > isqrt(cone_r2) implies deta^2 > cone_r2: rejected on eta alone.
    reach = math.isqrt(cone_r2)
    phi_range = PHI_RANGE
    half = PHI_HALF
    seed_eta = seed.eta
    seed_phi = seed.phi
    kept: list[Particle] = []
    for p in block:
        deta = p.eta - seed_eta
        if deta > reach or deta < -reach:
            continue
        dphi = (p.phi - seed_phi + half) % phi_range - half  # wrap_phi(p.phi - seed_phi)
        if deta * deta + dphi * dphi <= cone_r2:
            kept.append(p)
    return tuple(kept)


def _source_sizes(lists: Sequence[Sequence[Particle]]) -> list[int]:
    """The length of each source list; a source longer than a block is an error."""
    sizes = [len(lst) for lst in lists]
    for s in sizes:
        if s > BLOCK_SIZE:
            raise ValueError(f"source list of {s} items exceeds block size {BLOCK_SIZE}")
    return sizes


def merge_solution_a(
    lists: Sequence[Sequence[Particle]],
    ops: OpCounter | None = None,
) -> MergeResult:
    """Merge by greedy take-counts in list order, trimming the excess.

    Take counts are allocated greedily: the first list contributes up to the
    capacity, the second up to what remains, and so on.  So the target is the
    first ``MAX_CANDIDATES`` items of the lists read in order.
    """
    sizes = _source_sizes(lists)
    charge(ops, "merge_reads", len(sizes))
    flat = [p for lst in lists for p in lst]
    return MergeResult(items=tuple(flat[:MAX_CANDIDATES]), discarded=tuple(flat[MAX_CANDIDATES:]))


def merge_solution_b(
    lists: Sequence[Sequence[Particle]],
    ops: OpCounter | None = None,
) -> MergeResult:
    """Merge with the shared-index round-robin state machine.

    A single index register walks all sources in lockstep.  At each index the
    per-source availability bits are set to (index < size); while any bit is
    up and the target is not full, the item from the lowest-numbered available
    source is emitted and its bit cleared.  When all bits are down the index
    advances.  Output order is round-robin by element index with list-number
    priority.
    """
    cap = MAX_CANDIDATES
    sizes = _source_sizes(lists)
    items: list[Particle] = []
    # Items taken per source.  Each source is read in index order, so what it
    # loses to a full target is always a suffix.
    taken = [0] * len(sizes)
    index = 0
    max_size = max(sizes, default=0)
    while index < max_size and len(items) < cap:
        for src, size in enumerate(sizes):
            if len(items) == cap:
                break
            if index < size:
                items.append(lists[src][index])
                taken[src] += 1
        index += 1
    charge(ops, "merge_reads", len(sizes) * index)
    discarded = tuple(p for lst, t in zip(lists, taken) for p in lst[t:])
    return MergeResult(items=tuple(items), discarded=discarded)


# The two merge solutions by name.  The values are the step functions
# themselves, so a tracer that patches functions also patches this table.
MERGE_SOLUTIONS: dict[str, Callable[..., MergeResult]] = {
    "A": merge_solution_a,
    "B": merge_solution_b,
}


def compute_total_pt(candidates: Sequence[Particle]) -> int:
    """Sum of the candidates' transverse momenta, saturating at ``PT_MAX``;
    pts are non-negative, so clamping once equals clamping every addition."""
    return min(sum(p.pt for p in candidates), PT_MAX)


def select_signal_candidates(
    clist: CandidateList,
    cfg: TriggerConfig,
    ops: OpCounter | None = None,
) -> CandidateList:
    """Keep candidates of an allowed species inside the pt-dependent cone.

    The cone test d <= clamp(k/T, lo, hi) is evaluated in the division-free
    form d <= lo OR (d <= hi AND d*T <= k), which is exactly equivalent for
    non-negative integers and replaces the divider with one multiplier.
    Order is preserved.
    """
    t = max(compute_total_pt(clist.candidates), 1)
    lo = cfg.signal_cone_r2_min
    hi = cfg.signal_cone_r2_max
    k = cfg.signal_cone_k
    allowed = cfg.allowed_signal_species
    seed_eta, seed_phi = clist.seed.eta, clist.seed.phi
    kept: list[Particle] = []
    dists: list[int] = []  # of the allowed candidates, for the operation count
    for p in clist.candidates:
        if p.species not in allowed:
            continue
        deta = p.eta - seed_eta
        dphi = (p.phi - seed_phi + PHI_HALF) % PHI_RANGE - PHI_HALF  # delta_r2, inlined
        d = deta * deta + dphi * dphi
        dists.append(d)
        if d <= lo or (d <= hi and d * t <= k):
            kept.append(p)
    charge(ops, "signal_candidates", len(clist.candidates))
    charge(ops, "signal_allowed", len(dists))
    if ops is not None:
        past_lo = [d for d in dists if d > lo]
        charge(ops, "signal_past_lo", len(past_lo))
        charge(ops, "signal_in_band", sum(1 for d in past_lo if d <= hi))
    return CandidateList(seed=clist.seed, candidates=tuple(kept))


def compute_tau_params(clist: CandidateList, ops: OpCounter | None = None) -> Tau:
    """The signal candidates' saturated pt sum at their pt-weighted position.

    eta is averaged directly; phi is averaged on wrapped offsets relative to
    the seed's phi and re-wrapped to an absolute azimuth, so groups straddling
    the periodic boundary average correctly.  The means divide by the
    unsaturated pt sum, so each lies among the candidates' values.  A group
    whose pt sum is zero (in particular an empty one) gives ``INVALID_TAU``
    with no division and nothing counted; any other is one averaged group.
    """
    seed_phi = clist.seed.phi
    weight = 0
    num_eta = 0
    num_phi = 0
    for p in clist.candidates:
        off = wrap_phi(p.phi - seed_phi)
        weight += p.pt
        num_eta += p.pt * p.eta
        num_phi += p.pt * off
    if weight == 0:
        return INVALID_TAU
    charge(ops, "averaged_candidates", len(clist.candidates))
    charge(ops, "averaged_groups")
    eta_w = trunc_div(num_eta, weight)
    phi_off = trunc_div(num_phi, weight)
    phi_w = wrap_phi(seed_phi + phi_off)
    return Tau(min(weight, PT_MAX), eta_w, phi_w)


def reconstruct_tau(
    tau: Tau,
    cfg: TriggerConfig,
    ops: OpCounter | None = None,
) -> Tau:
    """Keep the averaged tau if it is valid and reaches ``min_tau_pt``,
    else ``INVALID_TAU``."""
    charge(ops, "reconstructions")
    if tau.valid and tau.pt >= cfg.min_tau_pt:
        return tau
    return INVALID_TAU


def build_cleaning_matrix(
    taus: Sequence[Tau],
    cfg: TriggerConfig,
    ops: OpCounter | None = None,
) -> frozenset[tuple[int, int]]:
    """True cells (i, j) of the pairwise grid m[i][j] = NearBy(i, j) AND LessPt(i, j).

    NearBy is the inclusive proximity test on squared distance; LessPt is the
    strict domination order including the lower-index tie-break.  Slots are
    0-based, exactly ``N_SEEDS`` of them; no cell involves an invalid tau, and
    the diagonal is never set.
    """
    if len(taus) != N_SEEDS:
        raise ValueError(f"cleaning expects exactly {N_SEEDS} tau slots, got {len(taus)}")
    valid = [i for i, tau in enumerate(taus) if tau.valid]
    pairs = math.comb(len(valid), 2)
    charge(ops, "cleaning_pairs", pairs)
    charge(ops, "pair_orders", pairs)
    # Pairs come with i < j, so on equal pt the higher slot j loses.
    return frozenset(
        (i, j) if taus[i].pt < taus[j].pt else (j, i)
        for i, j in combinations(valid, 2)
        if delta_r2(taus[i], taus[j]) <= cfg.proximity_r2
    )


def _keep_unmarked(taus: Sequence[Tau], matrix: frozenset[tuple[int, int]]) -> tuple[Tau, ...]:
    """The valid taus whose matrix row is empty, capped to the ``MAX_TAUS``
    highest pts (lower slot wins ties) and emitted in slot order."""
    dominated = {i for i, _ in matrix}
    slots = [i for i, tau in enumerate(taus) if tau.valid and i not in dominated]
    if len(slots) > MAX_TAUS:
        slots = sorted(sorted(slots, key=lambda i: (-taus[i].pt, i))[:MAX_TAUS])
    return tuple(taus[i] for i in slots)


def clean_solution_b(
    taus: Sequence[Tau],
    cfg: TriggerConfig,
    ops: OpCounter | None = None,
) -> tuple[Tau, ...]:
    """Matrix cleaning: keep the taus the matrix leaves unmarked.

    The hardware fills every cell at once (stage row 15/13), so each pair of
    valid taus also costs its pt order, ``pair_orders``.
    """
    return _keep_unmarked(taus, build_cleaning_matrix(taus, cfg, ops))


def clean_solution_a(
    taus: Sequence[Tau],
    cfg: TriggerConfig,
    ops: OpCounter | None = None,
) -> tuple[Tau, ...]:
    """Grade-and-mark cleaning: keep the taus the matrix leaves unmarked.

    The hardware grades the taus by pt and lets each grade mark the later
    nearby ones (stage row 13/13).  A marked tau still marks, so the
    survivors are the matrix's; a pair's order comes from the grading, so
    each pair of valid taus costs ``cleaning_pairs`` only.
    """
    matrix = build_cleaning_matrix(taus, cfg)
    charge(ops, "cleaning_pairs", math.comb(sum(1 for tau in taus if tau.valid), 2))
    return _keep_unmarked(taus, matrix)


# The two clean solutions by name, step functions as values like MERGE_SOLUTIONS.
CLEAN_SOLUTIONS: dict[str, Callable[..., tuple[Tau, ...]]] = {
    "A": clean_solution_a,
    "B": clean_solution_b,
}


def run_stages(
    event: Event,
    cfg: TriggerConfig,
    merge_solution: str,
    clean_solution: str,
    ops: OpCounter | None = None,
) -> tuple[Tau, ...]:
    """Run the seven steps sequentially and return the final tau list (<= 8).

    This is the pipeline's functional content with no timing attached.  The
    timing model (``dataflow.trigger_timing``) runs none of these functions:
    latency and II depend on the solution pair's stage table, never on the
    events or their count.
    """
    merge = MERGE_SOLUTIONS[merge_solution]
    clean = CLEAN_SOLUTIONS[clean_solution]
    seeds = select_seeds(event, cfg, ops)
    blocks = partition_blocks(event) if seeds else ()
    taus: list[Tau] = [INVALID_TAU] * N_SEEDS
    for si, seed in enumerate(seeds):
        lists = [filter_block(b, seed, cfg, ops) for b in blocks]
        merged = merge(lists, ops)
        clist = CandidateList(seed=seed, candidates=merged.items)
        selected = select_signal_candidates(clist, cfg, ops)
        taus[si] = reconstruct_tau(compute_tau_params(selected, ops), cfg, ops)
    return clean(tuple(taus), cfg, ops)

