import ast
import inspect
from dataclasses import fields

import pytest
from hypothesis import given, strategies as st

from helpers import stage_op_counts
from taupipe import core, stages
from taupipe.core import (
    ETA_MAX,
    N_FILTER_BLOCKS,
    N_SEEDS,
    OP_COSTS,
    PAD_PARTICLE,
    PHI_HALF,
    PT_MAX,
    Event,
    OpCounter,
    Particle,
    Species,
    delta_r2,
    make_event,
    wrap_phi,
)
from taupipe.stages import (
    INVALID_TAU,
    CandidateList,
    Tau,
    TriggerConfig,
    compute_tau_params,
    compute_total_pt,
    filter_block,
    partition_blocks,
    reconstruct_tau,
    run_stages,
    select_seeds,
    select_signal_candidates,
)
from taupipe.eventio import gen_events, load_config
from taupipe.reference import signal_cone_r2
from test_golden import DENSE_CONFIG

CFG = TriggerConfig()


def seed_at(eta=0, phi=0, pt=50) -> Particle:
    return Particle(pt, eta, phi)


# --- seeding ---------------------------------------------------------------


def test_select_seeds_empty_event():
    ev = make_event(0, [])
    assert select_seeds(ev, CFG) == ()


def test_select_seeds_no_charged():
    ev = make_event(0, [Particle(99, 0, 0, Species.PHOTON) for _ in range(10)])
    assert select_seeds(ev, CFG) == ()


def test_select_seeds_top16_of_20():
    # pt = slot + 1 for the first 20 slots: the top 16 are slots 19 down to 4
    ev = make_event(0, [Particle(i + 1, i, 0) for i in range(20)])
    seeds = select_seeds(ev, CFG)
    assert seeds == tuple(ev.particles[19:3:-1])
    assert [s.pt for s in seeds] == list(range(20, 4, -1))


def test_select_seeds_tie_break_by_index():
    slots = [PAD_PARTICLE] * 128
    # equal pts at distinct positions, so the output order shows the slots
    slots[3], slots[7] = Particle(50, 0, 0), Particle(50, 5, 5)
    slots[1] = Particle(50, 9, 9)
    ev = Event(0, tuple(slots))
    seeds = select_seeds(ev, CFG)
    assert seeds == (slots[1], slots[3], slots[7])


def test_select_seeds_min_pt_cut():
    ev = make_event(0, [Particle(CFG.min_seed_pt - 1, 0, 0), Particle(CFG.min_seed_pt, 1, 0)])
    seeds = select_seeds(ev, CFG)
    assert seeds == (ev.particles[1],)


@given(st.lists(st.tuples(st.integers(0, 300), st.booleans()), max_size=40))
def test_select_seeds_matches_full_sort_oracle(entries):
    # eta = slot, so each seed names the slot it came from
    particles = [
        Particle(pt, slot, 0, Species.CHARGED_HADRON if charged else Species.PHOTON)
        for slot, (pt, charged) in enumerate(entries)
    ]
    ev = make_event(0, particles)
    got = [(s.pt, s.eta) for s in select_seeds(ev, CFG)]
    want = sorted(
        (
            (p.pt, i)
            for i, p in enumerate(ev.particles)
            if p.valid and p.species.charged and p.pt >= CFG.min_seed_pt
        ),
        key=lambda t: (-t[0], t[1]),
    )[:N_SEEDS]
    assert got == want


# --- filtering -------------------------------------------------------------


def test_partition_blocks_drop_padding():
    blocks = partition_blocks(make_event(0, []))
    assert blocks == ((),) * N_FILTER_BLOCKS
    assert filter_block(blocks[0], seed_at(), CFG) == ()


def test_seedless_event_is_not_partitioned(monkeypatch):
    def no_partition(event):
        raise AssertionError("a seedless event was partitioned")

    monkeypatch.setattr(stages, "partition_blocks", no_partition)
    ev = make_event(0, [Particle(99, 0, 0, Species.PHOTON) for _ in range(10)])
    for merge in "AB":
        for clean in "AB":
            assert run_stages(ev, CFG, merge, clean) == ()


def test_filter_block_includes_coincident():
    p = Particle(10, 0, 0)
    assert filter_block([p], seed_at(), CFG) == (p,)


def test_filter_block_inclusive_boundary():
    # default cone is 16900 = 130^2; brute-force scan of the eta axis around it
    on_edge = Particle(10, 130, 0)
    beyond = Particle(10, 131, 0)
    kept = filter_block([on_edge, beyond], seed_at(), CFG)
    assert kept == (on_edge,)
    for eta in range(125, 136):
        included = filter_block([Particle(1, eta, 0)], seed_at(), CFG) != ()
        assert included == (eta * eta <= CFG.filter_cone_r2)


def test_filter_block_preserves_order():
    near = [Particle(5 + i, i, i) for i in range(6)]
    kept = filter_block(near, seed_at(), CFG)
    assert kept == tuple(near)


@st.composite
def filter_cases(draw):
    """A block's slots with padding, a seed and a cone from the edge cases of the
    eta pre-check: zero, a particle's exact distance, squares +-1 (the isqrt
    edges) and cones up to twice the largest distance.  Positions favour the
    ends of the ranges, where |deta| is largest and phi differences wrap."""
    etas = st.one_of(st.sampled_from([-ETA_MAX, ETA_MAX]), st.integers(-ETA_MAX, ETA_MAX))
    phis = st.one_of(
        st.sampled_from([-PHI_HALF, PHI_HALF - 1]), st.integers(-PHI_HALF, PHI_HALF - 1)
    )
    slots = draw(st.lists(st.one_of(st.none(), st.tuples(etas, phis)), max_size=32))
    frame = [
        PAD_PARTICLE if s is None else Particle(1 + i, s[0], s[1])
        for i, s in enumerate(slots)
    ]
    seed = Particle(50, draw(etas), draw(phis))
    distances = [delta_r2(p, seed) for p in frame if p.valid] or [0]
    cone = draw(
        st.one_of(
            st.just(0),
            st.sampled_from(distances),
            st.builds(lambda k, d: max(0, k * k + d), st.integers(0, 2 * ETA_MAX), st.integers(-1, 1)),
            st.integers(0, 2 * ((2 * ETA_MAX) ** 2 + PHI_HALF**2)),
        )
    )
    cfg = TriggerConfig(filter_cone_r2=cone)
    return frame, seed, cfg


@given(filter_cases())
def test_filter_block_matches_naive_definition(case):
    frame, seed, cfg = case
    want = tuple(
        p
        for p in frame
        if p.valid
        and delta_r2(p, seed) <= cfg.filter_cone_r2
    )
    ops = OpCounter()
    block = partition_blocks(make_event(0, frame))[0]
    assert filter_block(block, seed, cfg, ops) == want
    n_valid = sum(1 for p in frame if p.valid)
    assert ops == OpCounter(2 * n_valid, 0, n_valid)


# --- totals ----------------------------------------------------------------


def total_of(pts) -> int:
    return compute_total_pt([Particle(pt, 0, 0) for pt in pts])


def test_total_pt_examples():
    assert total_of([]) == 0
    assert total_of([7]) == 7
    assert total_of([3, 4, 5]) == 12
    assert total_of([40000, 40000]) == 65535


pt_lists = st.lists(st.integers(0, PT_MAX), max_size=30)


@given(pt_lists, pt_lists, st.integers(0, PT_MAX), st.integers(0, PT_MAX))
def test_total_pt_properties(xs, ys, b, c):
    # a chain of adders that each clamp at PT_MAX gives the same sum, since
    # pts are non-negative
    chained = 0
    for pt in xs:
        chained = min(chained + pt, PT_MAX)
    assert total_of(xs) == chained
    assert total_of(xs + ys) == total_of(ys + xs)
    assert total_of(xs) <= PT_MAX
    if b <= c:
        assert total_of(xs + [b]) <= total_of(xs + [c])


# --- signal selection -------------------------------------------------------


def clist(candidates, seed=None) -> CandidateList:
    seed = seed or seed_at()
    return CandidateList(seed, tuple(candidates))


def test_signal_selection_empty():
    out = select_signal_candidates(clist([]), CFG)
    assert out == clist([])


def test_signal_selection_species_mask():
    muon = Particle(10, 0, 0, Species.MUON)
    out = select_signal_candidates(clist([muon]), CFG)
    assert out.candidates == ()


def test_signal_selection_clamped_boundary():
    # a tiny total pt drives k/total above the max clamp, so the effective
    # cone is exactly signal_cone_r2_max = 130^2
    at_edge = Particle(1, 130, 0)
    past_edge = Particle(1, 131, 0)
    lst = clist([at_edge, past_edge])
    assert signal_cone_r2(compute_total_pt(lst.candidates), CFG) == CFG.signal_cone_r2_max
    out = select_signal_candidates(lst, CFG)
    assert out.candidates == (at_edge,)


def test_signal_selection_min_clamp():
    # a huge total pt shrinks k/total below the min clamp
    heavy = Particle(60000, 0, 0)
    inside = Particle(1, 31, 0)  # 961 <= 1024
    outside = Particle(1, 33, 0)  # 1089 > 1024
    lst = clist([heavy, inside, outside])
    assert signal_cone_r2(compute_total_pt(lst.candidates), CFG) == CFG.signal_cone_r2_min
    out = select_signal_candidates(lst, CFG)
    assert out.candidates == (heavy, inside)


species_st = st.sampled_from(list(Species))
cand_st = st.builds(
    Particle,
    st.integers(0, 2000),
    st.integers(-300, 300),
    st.integers(-300, 300),
    species_st,
)


@given(st.lists(cand_st, max_size=30))
def test_signal_selection_matches_division_form(cands):
    lst = clist(cands)
    ops = OpCounter()
    out = select_signal_candidates(lst, CFG, ops)
    r2_sig = signal_cone_r2(compute_total_pt(lst.candidates), CFG)
    want = tuple(
        p
        for p in lst.candidates
        if p.species in CFG.allowed_signal_species
        and (p.eta**2 + p.phi**2) <= r2_sig
    )
    assert out.candidates == want
    # one species test per candidate; per allowed one a distance and the
    # d <= lo test; past lo the d <= hi test; inside (lo, hi] d*T <= k
    lo, hi = CFG.signal_cone_r2_min, CFG.signal_cone_r2_max
    allowed = [p for p in lst.candidates if p.species in CFG.allowed_signal_species]
    dists = [delta_r2(p, lst.seed) for p in allowed]
    past_lo = sum(1 for d in dists if d > lo)
    in_band = sum(1 for d in dists if lo < d <= hi)
    assert ops == OpCounter(
        2 * len(dists) + in_band, 0, len(lst.candidates) + len(dists) + past_lo + in_band
    )


@given(st.lists(cand_st, max_size=30))
def test_signal_selection_subsequence_and_idempotent(cands):
    lst = clist(cands)
    once = select_signal_candidates(lst, CFG)
    # subsequence of the input
    it = iter(lst.candidates)
    assert all(any(p == q for q in it) for p in once.candidates)
    twice = select_signal_candidates(once, CFG)
    assert twice == once


# --- parameter averaging ----------------------------------------------------


def test_tau_params_single_candidate_identity():
    p = Particle(10, 100, -50)
    assert compute_tau_params(clist([p])) == Tau(10, 100, -50)


def test_tau_params_weighted_average():
    # pts {1,3}, etas {0,4} -> (0 + 12) / 4 = 3
    a = Particle(1, 0, 7)
    b = Particle(3, 4, 7)
    assert compute_tau_params(clist([a, b])) == Tau(4, 3, 7)


def test_tau_params_empty_is_invalid_without_division():
    ops = OpCounter()
    assert compute_tau_params(clist([]), ops) == INVALID_TAU
    assert ops == OpCounter()


def test_tau_params_two_divisions_per_group():
    ops = OpCounter()
    compute_tau_params(clist([Particle(5, 1, 1)]), ops)
    assert ops.divisions == 2


def test_tau_params_truncates_toward_zero():
    # weighted eta numerator is -1 over sum 2: trunc(-0.5) = 0, not floor -1
    a = Particle(1, 0, 0)
    b = Particle(1, -1, 0)
    assert compute_tau_params(clist([a, b])).eta == 0


def test_tau_params_phi_wraps_across_boundary():
    # seed and both candidates sit astride the periodic boundary; averaging
    # on raw phi values would be wildly wrong
    seed = seed_at(phi=1020)
    a = Particle(1, 0, 1015)
    b = Particle(1, 0, -1021)  # 12 units past the boundary from 1015
    # offsets relative to the seed: -5 and +7 -> average +1 -> phi 1021
    assert compute_tau_params(clist([a, b], seed)).phi == 1021


def test_tau_params_zero_pt_group_is_invalid():
    zero = Particle(0, 10, 10)
    ops = OpCounter()
    assert compute_tau_params(clist([zero, zero]), ops) == INVALID_TAU
    assert ops == OpCounter()


@given(
    st.builds(seed_at, st.integers(-ETA_MAX, ETA_MAX), st.integers(-PHI_HALF, PHI_HALF - 1)),
    st.lists(
        st.builds(Particle, st.integers(1, PT_MAX), st.integers(-ETA_MAX, ETA_MAX),
                  st.integers(-PHI_HALF, PHI_HALF - 1)),
        min_size=1, max_size=30,
    ),
)
def test_tau_params_position_lies_among_the_candidates(seed, cands):
    # the means stay inside the group even once its pt sum saturates
    tau = compute_tau_params(clist(cands, seed))
    assert tau.pt == min(sum(p.pt for p in cands), PT_MAX)
    etas = [p.eta for p in cands]
    assert min(etas) <= tau.eta <= max(etas)
    offsets = [wrap_phi(p.phi - seed.phi) for p in cands]
    assert min(offsets) <= wrap_phi(tau.phi - seed.phi) <= max(offsets)


# --- reconstruction ----------------------------------------------------------


def test_reconstruct_invalid_params():
    assert reconstruct_tau(INVALID_TAU, CFG) == INVALID_TAU
    # a zero pt sum is no tau even when the threshold is 0, wherever it sits
    no_threshold = TriggerConfig(min_tau_pt=0)
    assert reconstruct_tau(INVALID_TAU, no_threshold) == INVALID_TAU
    assert reconstruct_tau(Tau(0, 5, 6), no_threshold) == INVALID_TAU


def test_reconstruct_threshold_boundary():
    below = Tau(CFG.min_tau_pt - 1, 5, 6)
    at = Tau(CFG.min_tau_pt, 5, 6)
    assert reconstruct_tau(below, CFG) == INVALID_TAU
    got = reconstruct_tau(at, CFG)
    assert got.valid and got == at


# --- op costs -------------------------------------------------------------------


def test_stage_op_costs_on_probes():
    rows = stage_op_counts(CFG)
    assert rows["filtering"].multiplications == 2
    assert rows["filtering"].divisions == 0
    assert rows["tau_parameters"].divisions == 2
    assert rows["tau_reconstruction"].multiplications == 0
    assert rows["tau_reconstruction"].divisions == 0
    # one nearby pair: a distance and its test, plus B's pt order
    a, b = rows["cleaning_a"], rows["cleaning"]
    assert (a.multiplications, a.comparisons) == (2, 1)
    assert (b.multiplications, b.comparisons) == (2, 2)
    no_div = [name for name, r in rows.items() if name != "tau_parameters"]
    assert all(rows[name].divisions == 0 for name in no_div)


# --- config validation --------------------------------------------------------


def test_trigger_config_holds_cones_and_thresholds_only():
    # the framing and the pt/eta/phi ranges are constants of taupipe.core
    assert [f.name for f in fields(TriggerConfig)] == [
        "filter_cone_r2", "signal_cone_k", "signal_cone_r2_min", "signal_cone_r2_max",
        "allowed_signal_species", "proximity_r2", "min_seed_pt", "min_tau_pt",
    ]


def test_step_records_hold_no_derived_values():
    # the pt sum is computed where it is read, and a tau is valid by its pt
    assert [f.name for f in fields(CandidateList)] == ["seed", "candidates"]
    assert [f.name for f in fields(Tau)] == ["pt", "eta", "phi"]
    assert Tau(1, 0, 0).valid
    assert not INVALID_TAU.valid


def test_config_cone_order_invariant():
    with pytest.raises(ValueError, match="signal_cone_r2_min"):
        TriggerConfig(signal_cone_r2_min=200, signal_cone_r2_max=100)


# --- operation counting -----------------------------------------------------


def test_stages_count_outside_loops():
    # Each step names its counts once, from sizes it already has, and
    # ``core.OP_COSTS`` prices them: no ``charge(...)`` inside a loop body,
    # no ``ops.<field>`` in the steps, one ``if ops is not None:`` block in
    # signal selection only (its band split costs a pass), and no distance
    # computed again only to count it.
    tree = ast.parse(inspect.getsource(stages))

    def charges(node):
        return [
            n for n in ast.walk(node)
            if isinstance(n, ast.Call) and ast.unparse(n.func) == "charge"
        ]

    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.While)) and charges(node):
            pytest.fail(f"stages.py:{charges(node)[0].lineno} counts inside a loop")
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "ops":
            pytest.fail(f"stages.py:{node.lineno} prices an operation")
    guard_counts = {}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            guards = [
                n
                for n in ast.walk(fn)
                if isinstance(n, ast.If) and ast.unparse(n.test) == "ops is not None"
            ]
            if guards:
                guard_counts[fn.name] = len(guards)
            for node in guards + [a for c in charges(fn) for a in c.args]:
                if "delta_r2" in ast.unparse(node):
                    pytest.fail(f"stages.py:{node.lineno} recomputes a distance to count it")
    assert guard_counts == {"select_signal_candidates": 1}


def test_every_op_cost_row_is_counted(monkeypatch):
    # The pinned op-total workloads, on every solution pair, count some of
    # each priced count: the table has no dead row.
    counted = set()

    def recording_charge(ops, count, n=1):
        if n:
            counted.add(count)
        core.charge(ops, count, n)

    monkeypatch.setattr(stages, "charge", recording_charge)
    for config, profile in [("", "busy"), ("", "clustered"), (DENSE_CONFIG, "busy")]:
        cfg = load_config(config).trigger
        events = gen_events(1, 50, profile)
        for merge in "AB":
            for clean in "AB":
                for event in events:
                    run_stages(event, cfg, merge, clean, OpCounter())
    assert counted == OP_COSTS.keys()
