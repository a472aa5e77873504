"""Pure functional implementations of the seven trigger pipeline steps.

Step order: seed selection, per-block cone filtering, four-to-one candidate
merging (two interchangeable solutions), signal-candidate selection, weighted
parameter averaging, tau reconstruction, and proximity cleaning (again two
solutions).  Every function is a pure function of its inputs plus the config;
the optional ``ops`` argument collects datapath operation counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import (
    BLOCK_SIZE,
    MAX_CANDIDATES,
    MAX_TAUS,
    N_FILTER_BLOCKS,
    N_SEEDS,
    PHI_HALF,
    PHI_RANGE,
    AngularCoord,
    Event,
    OpCounter,
    Particle,
    Species,
    delta_r2,
    saturating_pt_add,
    trunc_div,
    wrap_delta_phi,
    wrap_phi,
)

DEFAULT_SIGNAL_SPECIES = frozenset(
    {Species.CHARGED_HADRON, Species.NEUTRAL_HADRON, Species.PHOTON, Species.ELECTRON}
)

# Fixed setup cost of the round-robin merge state machine: size-register
# capture, index/count/availability reset.  One emitted item per cycle after
# that, so the full worst case models 3 + 30 = 33 cycles.
MERGE_B_SETUP_CYCLES = 3

MERGE_SOLUTIONS = ("A", "B")
CLEAN_SOLUTIONS = ("A", "B")


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
    """A seed with its associated candidates.

    ``total_pt`` is the saturating sum of the candidates' pt; the steps that
    build a list keep it so, and ``compute_tau_params`` relies on it.
    """

    seed: Particle
    candidates: tuple[Particle, ...]
    total_pt: int


@dataclass(frozen=True)
class TauParams:
    """Weighted-average properties of one candidate group.

    A group whose pt sum is zero (in particular an empty one) has no average:
    no division is performed and both positions are 0.
    """

    sum_pt: int
    eta_w: int
    phi_w: int


@dataclass(frozen=True)
class Tau:
    pt: int
    pos: AngularCoord
    valid: bool

    def __post_init__(self) -> None:
        if not self.valid and self.pt != 0:
            raise ValueError("invalid taus must carry pt = 0")


INVALID_TAU = Tau(0, AngularCoord(0, 0), False)


@dataclass(frozen=True)
class MergeResult:
    """Outcome of a four-to-one merge.

    ``items`` is the target list and ``discarded`` the items left out of it,
    source by source.  ``modeled_cycles`` is the variant's cycle estimate:
    for solution A the parallel trimming phase (max source size, at most one
    read per source per cycle), for solution B the state-machine setup plus
    one cycle per emitted item.
    """

    items: tuple[Particle, ...]
    discarded: tuple[Particle, ...]
    modeled_cycles: int


def select_seeds(
    event: Event, cfg: TriggerConfig, ops: OpCounter | None = None
) -> tuple[Particle, ...]:
    """Pick the highest-pt charged particles, at most ``N_SEEDS`` of them.

    Output is graded by descending pt with ascending slot breaking ties.
    Fewer qualifying particles simply yield a shorter tuple.
    """
    qualified: list[Particle] = []
    for p in event.particles:
        if not p.valid or not p.species.charged:
            continue
        if ops is not None:
            ops.comparisons += 1
        if p.pt >= cfg.min_seed_pt:
            qualified.append(p)
    # The sort is stable, so equal pts keep their slot order.
    qualified.sort(key=lambda p: -p.pt)
    return tuple(qualified[:N_SEEDS])


def partition_blocks(event: Event) -> tuple[tuple[Particle, ...], ...]:
    """Split the event into the contiguous fixed-size filter blocks."""
    return tuple(
        event.particles[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE] for i in range(N_FILTER_BLOCKS)
    )


def filter_block(
    block: Sequence[Particle],
    seed: Particle,
    cfg: TriggerConfig,
    ops: OpCounter | None = None,
) -> tuple[Particle, ...]:
    """Keep the block's valid particles inside the seed's filter cone.

    Input order is preserved; the cone boundary is inclusive.  Each valid
    particle counts as one ``delta_r2`` evaluation (two multiplications) and
    one comparison, as the hardware tests every slot; the model itself skips
    the distance for particles outside the cone's eta reach.
    """
    if ops is not None:
        n_valid = sum(1 for p in block if p.valid)
        ops.multiplications += 2 * n_valid
        ops.comparisons += n_valid
    cone_r2 = cfg.filter_cone_r2
    # |deta| > isqrt(cone_r2) implies deta^2 > cone_r2: rejected on eta alone.
    reach = math.isqrt(cone_r2)
    phi_range = PHI_RANGE
    half = PHI_HALF
    seed_eta = seed.pos.eta
    seed_phi = seed.pos.phi
    kept: list[Particle] = []
    for p in block:
        if not p.valid:
            continue
        q = p.pos
        deta = q.eta - seed_eta
        if deta > reach or deta < -reach:
            continue
        dphi = (q.phi - seed_phi + half) % phi_range - half  # wrap_delta_phi
        if deta * deta + dphi * dphi <= cone_r2:
            kept.append(p)
    return tuple(kept)


def merge_solution_a(
    lists: Sequence[Sequence[Particle]],
    cfg: TriggerConfig,
    ops: OpCounter | None = None,
) -> MergeResult:
    """Merge by greedy take-counts in list order, trimming the excess.

    Take counts are allocated greedily: the first list contributes up to the
    capacity, the second up to what remains, and so on.  Sources are drained
    in parallel, so the trimming phase never models more than one block's
    worth of cycles.
    """
    cap = MAX_CANDIDATES
    sizes = [len(lst) for lst in lists]
    for s in sizes:
        if s > BLOCK_SIZE:
            raise ValueError(f"source list of {s} items exceeds block size {BLOCK_SIZE}")
    takes: list[int] = []
    remaining = cap
    for s in sizes:
        if ops is not None:
            ops.comparisons += 1
        c = min(s, remaining)
        takes.append(c)
        remaining -= c
    items: list[Particle] = []
    discarded: list[Particle] = []
    for lst, c in zip(lists, takes):
        items.extend(lst[:c])
        discarded.extend(lst[c:])
    return MergeResult(
        items=tuple(items),
        discarded=tuple(discarded),
        modeled_cycles=max(sizes, default=0),
    )


def merge_solution_b(
    lists: Sequence[Sequence[Particle]],
    cfg: TriggerConfig,
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
    sizes = [len(lst) for lst in lists]
    for s in sizes:
        if s > BLOCK_SIZE:
            raise ValueError(f"source list of {s} items exceeds block size {BLOCK_SIZE}")
    items: list[Particle] = []
    # Items taken per source.  Each source is read in index order, so what it
    # loses to a full target is always a suffix.
    taken = [0] * len(sizes)
    index = 0
    max_size = max(sizes, default=0)
    while index < max_size and len(items) < cap:
        if ops is not None:
            ops.comparisons += len(sizes)
        for src, size in enumerate(sizes):
            if len(items) == cap:
                break
            if index < size:
                items.append(lists[src][index])
                taken[src] += 1
        index += 1
    discarded = tuple(p for lst, t in zip(lists, taken) for p in lst[t:])
    return MergeResult(
        items=tuple(items),
        discarded=discarded,
        modeled_cycles=MERGE_B_SETUP_CYCLES + len(items),
    )


_MERGE_FNS: dict[str, Callable[..., MergeResult]] = {
    "A": merge_solution_a,
    "B": merge_solution_b,
}


def merge_fn(solution: str) -> Callable[..., MergeResult]:
    try:
        return _MERGE_FNS[solution]
    except KeyError:
        raise ValueError(f"unknown merge solution {solution!r}, expected one of {MERGE_SOLUTIONS}")


def compute_total_pt(
    candidates: Sequence[Particle],
    cfg: TriggerConfig,
    ops: OpCounter | None = None,
) -> int:
    """Saturating sum of the candidates' transverse momenta."""
    total = 0
    for p in candidates:
        total = saturating_pt_add(total, p.pt)
    return total


def signal_cone_r2(total_pt: int, cfg: TriggerConfig) -> int:
    """Signal cone radius squared: inverse-pt shrinking, clamped both ways.

    clamp(signal_cone_k / max(total_pt, 1), r2_min, r2_max) with truncating
    integer division.  Exposed for reference checks; the selection predicate
    itself uses the division-free equivalent.
    """
    q = cfg.signal_cone_k // max(total_pt, 1)
    return max(cfg.signal_cone_r2_min, min(cfg.signal_cone_r2_max, q))


def select_signal_candidates(
    clist: CandidateList,
    cfg: TriggerConfig,
    ops: OpCounter | None = None,
) -> CandidateList:
    """Keep candidates of an allowed species inside the pt-dependent cone.

    The cone test d <= clamp(k/T, lo, hi) is evaluated in the division-free
    form d <= lo OR (d <= hi AND d*T <= k), which is exactly equivalent for
    non-negative integers and replaces the divider with one multiplier.
    Order is preserved and the total pt is recomputed over the survivors.
    """
    t = max(clist.total_pt, 1)
    lo = cfg.signal_cone_r2_min
    hi = cfg.signal_cone_r2_max
    k = cfg.signal_cone_k
    kept: list[Particle] = []
    for p in clist.candidates:
        if ops is not None:
            ops.comparisons += 1
        if p.species not in cfg.allowed_signal_species:
            continue
        d = delta_r2(p.pos, clist.seed.pos, ops=ops)
        if ops is not None:
            ops.comparisons += 1
        if d <= lo:
            kept.append(p)
            continue
        if ops is not None:
            ops.comparisons += 1
        if d > hi:
            continue
        if ops is not None:
            ops.multiplications += 1
            ops.comparisons += 1
        if d * t <= k:
            kept.append(p)
    total = compute_total_pt(kept, cfg, ops)
    return CandidateList(seed=clist.seed, candidates=tuple(kept), total_pt=total)


def compute_tau_params(
    clist: CandidateList,
    cfg: TriggerConfig,
    ops: OpCounter | None = None,
) -> TauParams:
    """Pt-weighted average position of the signal candidates.

    eta is averaged directly; phi is averaged on wrapped offsets relative to
    the seed's phi and re-wrapped to an absolute azimuth, so groups straddling
    the periodic boundary average correctly.  Costs exactly two divisions per
    group with a non-zero pt sum, and none otherwise.
    """
    sum_pt = clist.total_pt
    if sum_pt == 0:
        return TauParams(sum_pt=0, eta_w=0, phi_w=0)
    seed_phi = clist.seed.pos.phi
    num_eta = 0
    num_phi = 0
    for p in clist.candidates:
        off = wrap_delta_phi(p.pos.phi, seed_phi)
        if ops is not None:
            ops.multiplications += 2
        num_eta += p.pt * p.pos.eta
        num_phi += p.pt * off
    if ops is not None:
        ops.divisions += 2
    eta_w = trunc_div(num_eta, sum_pt)
    phi_off = trunc_div(num_phi, sum_pt)
    phi_w = wrap_phi(seed_phi + phi_off)
    return TauParams(sum_pt=sum_pt, eta_w=eta_w, phi_w=phi_w)


def reconstruct_tau(
    params: TauParams,
    cfg: TriggerConfig,
    ops: OpCounter | None = None,
) -> Tau:
    """Threshold the averaged parameters into a tau record; no arithmetic."""
    if ops is not None:
        ops.comparisons += 1
    if params.sum_pt > 0 and params.sum_pt >= cfg.min_tau_pt:
        return Tau(pt=params.sum_pt, pos=AngularCoord(params.eta_w, params.phi_w), valid=True)
    return INVALID_TAU


def _less_pt(taus: Sequence[Tau], i: int, j: int) -> bool:
    # Strict domination order on nearby pairs: lower pt loses; on equal pt the
    # higher slot index loses, so the lower index always wins.
    return taus[i].pt < taus[j].pt or (taus[i].pt == taus[j].pt and i > j)


def build_cleaning_matrix(
    taus: Sequence[Tau],
    cfg: TriggerConfig,
    ops: OpCounter | None = None,
) -> frozenset[tuple[int, int]]:
    """True cells (i, j) of the pairwise grid m[i][j] = NearBy(i, j) AND LessPt(i, j).

    NearBy is the inclusive proximity test on squared distance; LessPt is the
    strict domination order including the lower-index tie-break.  Slots are
    0-based; no cell involves an invalid tau, and the diagonal is never set.
    """
    n = len(taus)
    if n != N_SEEDS:
        raise ValueError(f"cleaning expects exactly {N_SEEDS} tau slots, got {n}")
    cells: set[tuple[int, int]] = set()
    for i in range(n):
        if not taus[i].valid:
            continue
        for j in range(i + 1, n):
            if not taus[j].valid:
                continue
            d = delta_r2(taus[i].pos, taus[j].pos, ops=ops)
            if ops is not None:
                ops.comparisons += 2
            if d > cfg.proximity_r2:
                continue
            cells.add((i, j) if _less_pt(taus, i, j) else (j, i))
    return frozenset(cells)


def _cap_to_max_taus(survivor_slots: Sequence[int], taus: Sequence[Tau]) -> tuple[Tau, ...]:
    # Keep the highest-pt survivors (lower slot wins ties) but emit them in
    # original slot order.
    slots = list(survivor_slots)
    if len(slots) > MAX_TAUS:
        by_pt = sorted(slots, key=lambda i: (-taus[i].pt, i))[:MAX_TAUS]
        slots = sorted(by_pt)
    return tuple(taus[i] for i in slots)


def clean_solution_b(
    taus: Sequence[Tau],
    cfg: TriggerConfig,
    ops: OpCounter | None = None,
) -> tuple[Tau, ...]:
    """Matrix cleaning: drop every tau whose matrix row holds any True."""
    dominated = {i for i, _ in build_cleaning_matrix(taus, cfg, ops)}
    survivors = [i for i, tau in enumerate(taus) if tau.valid and i not in dominated]
    return _cap_to_max_taus(survivors, taus)


def clean_solution_a(
    taus: Sequence[Tau],
    cfg: TriggerConfig,
    ops: OpCounter | None = None,
) -> tuple[Tau, ...]:
    """Grade-and-mark cleaning: sorted pass marking nearby lower grades.

    Taus are graded descending by pt (ascending slot on ties); each grade
    marks every later nearby grade as dropped.  Marked taus still mark others,
    which is what makes this pass agree with the matrix formulation on chains.
    """
    n = len(taus)
    if n != N_SEEDS:
        raise ValueError(f"cleaning expects exactly {N_SEEDS} tau slots, got {n}")
    graded = sorted(
        (i for i in range(n) if taus[i].valid),
        key=lambda i: (-taus[i].pt, i),
    )
    dropped: set[int] = set()
    for pos, i in enumerate(graded):
        for j in graded[pos + 1 :]:
            d = delta_r2(taus[i].pos, taus[j].pos, ops=ops)
            if ops is not None:
                ops.comparisons += 1
            if d <= cfg.proximity_r2:
                dropped.add(j)
    survivors = [i for i in graded if i not in dropped]
    survivors.sort()
    return _cap_to_max_taus(survivors, taus)


_CLEAN_FNS: dict[str, Callable[..., tuple[Tau, ...]]] = {
    "A": clean_solution_a,
    "B": clean_solution_b,
}


def clean_fn(solution: str) -> Callable[..., tuple[Tau, ...]]:
    try:
        return _CLEAN_FNS[solution]
    except KeyError:
        raise ValueError(f"unknown clean solution {solution!r}, expected one of {CLEAN_SOLUTIONS}")


def run_stages(
    event: Event,
    cfg: TriggerConfig,
    merge_solution: str = "B",
    clean_solution: str = "B",
    ops: OpCounter | None = None,
) -> tuple[Tau, ...]:
    """Run the seven steps sequentially and return the final tau list (<= 8).

    This is the pipeline's functional content with no timing attached.  The
    timing model (``dataflow.trigger_timing``) runs none of these functions:
    timing depends only on the number of events, never on their data.
    """
    merge = merge_fn(merge_solution)
    clean = clean_fn(clean_solution)
    seeds = select_seeds(event, cfg, ops)
    blocks = partition_blocks(event)
    taus: list[Tau] = [INVALID_TAU] * N_SEEDS
    for si, seed in enumerate(seeds):
        lists = [filter_block(b, seed, cfg, ops) for b in blocks]
        merged = merge(lists, cfg, ops)
        total = compute_total_pt(merged.items, cfg, ops)
        clist = CandidateList(seed=seed, candidates=merged.items, total_pt=total)
        selected = select_signal_candidates(clist, cfg, ops)
        params = compute_tau_params(selected, cfg, ops)
        taus[si] = reconstruct_tau(params, cfg, ops)
    return clean(tuple(taus), cfg, ops)

