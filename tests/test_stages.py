from dataclasses import fields

import pytest
from hypothesis import given, strategies as st

from helpers import stage_op_counts
from taupipe.core import (
    ETA_MAX,
    N_SEEDS,
    PAD_PARTICLE,
    PHI_HALF,
    AngularCoord,
    Event,
    OpCounter,
    Particle,
    Species,
    delta_r2,
    make_event,
    make_particle,
)
from taupipe.stages import (
    CandidateList,
    TauParams,
    TriggerConfig,
    compute_tau_params,
    compute_total_pt,
    filter_block,
    partition_blocks,
    reconstruct_tau,
    select_seeds,
    select_signal_candidates,
    signal_cone_r2,
)

CFG = TriggerConfig()


def seed_at(eta=0, phi=0, pt=50) -> Particle:
    return make_particle(pt, eta, phi)


# --- seeding ---------------------------------------------------------------


def test_select_seeds_empty_event():
    ev = make_event(0, [])
    assert select_seeds(ev, CFG) == ()


def test_select_seeds_no_charged():
    ev = make_event(0, [make_particle(99, 0, 0, Species.PHOTON) for _ in range(10)])
    assert select_seeds(ev, CFG) == ()


def test_select_seeds_top16_of_20():
    # pt = slot + 1 for the first 20 slots: the top 16 are slots 19 down to 4
    ev = make_event(0, [make_particle(i + 1, i, 0) for i in range(20)])
    seeds = select_seeds(ev, CFG)
    assert seeds == tuple(ev.particles[19:3:-1])
    assert [s.pt for s in seeds] == list(range(20, 4, -1))


def test_select_seeds_tie_break_by_index():
    slots = [PAD_PARTICLE] * 128
    # equal pts at distinct positions, so the output order shows the slots
    slots[3], slots[7] = make_particle(50, 0, 0), make_particle(50, 5, 5)
    slots[1] = make_particle(50, 9, 9)
    ev = Event(0, tuple(slots))
    seeds = select_seeds(ev, CFG)
    assert seeds == (slots[1], slots[3], slots[7])


def test_select_seeds_min_pt_cut():
    ev = make_event(0, [make_particle(CFG.min_seed_pt - 1, 0, 0), make_particle(CFG.min_seed_pt, 1, 0)])
    seeds = select_seeds(ev, CFG)
    assert seeds == (ev.particles[1],)


@given(st.lists(st.tuples(st.integers(0, 300), st.booleans()), max_size=40))
def test_select_seeds_matches_full_sort_oracle(entries):
    # eta = slot, so each seed names the slot it came from
    particles = [
        make_particle(pt, slot, 0, Species.CHARGED_HADRON if charged else Species.PHOTON)
        for slot, (pt, charged) in enumerate(entries)
    ]
    ev = make_event(0, particles)
    got = [(s.pt, s.pos.eta) for s in select_seeds(ev, CFG)]
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


def test_filter_block_ignores_padding():
    ev = make_event(0, [])
    blocks = partition_blocks(ev)
    assert filter_block(blocks[0], seed_at(), CFG) == ()


def test_filter_block_includes_coincident():
    p = make_particle(10, 0, 0)
    assert filter_block([p], seed_at(), CFG) == (p,)


def test_filter_block_inclusive_boundary():
    # default cone is 16900 = 130^2; brute-force scan of the eta axis around it
    on_edge = make_particle(10, 130, 0)
    beyond = make_particle(10, 131, 0)
    kept = filter_block([on_edge, beyond], seed_at(), CFG)
    assert kept == (on_edge,)
    for eta in range(125, 136):
        included = filter_block([make_particle(1, eta, 0)], seed_at(), CFG) != ()
        assert included == (eta * eta <= CFG.filter_cone_r2)


def test_filter_block_preserves_order():
    near = [make_particle(5 + i, i, i) for i in range(6)]
    kept = filter_block(near, seed_at(), CFG)
    assert kept == tuple(near)


@st.composite
def filter_cases(draw):
    """A block with padding, a seed and a cone from the edge cases of the
    eta pre-check: zero, a particle's exact distance, squares +-1 (the isqrt
    edges) and cones up to twice the largest distance.  Positions favour the
    ends of the ranges, where |deta| is largest and phi differences wrap."""
    etas = st.one_of(st.sampled_from([-ETA_MAX, ETA_MAX]), st.integers(-ETA_MAX, ETA_MAX))
    phis = st.one_of(
        st.sampled_from([-PHI_HALF, PHI_HALF - 1]), st.integers(-PHI_HALF, PHI_HALF - 1)
    )
    slots = draw(st.lists(st.one_of(st.none(), st.tuples(etas, phis)), max_size=32))
    block = [
        PAD_PARTICLE if s is None else make_particle(1 + i, s[0], s[1])
        for i, s in enumerate(slots)
    ]
    seed = make_particle(50, draw(etas), draw(phis))
    distances = [delta_r2(p.pos, seed.pos) for p in block if p.valid] or [0]
    cone = draw(
        st.one_of(
            st.just(0),
            st.sampled_from(distances),
            st.builds(lambda k, d: max(0, k * k + d), st.integers(0, 2 * ETA_MAX), st.integers(-1, 1)),
            st.integers(0, 2 * ((2 * ETA_MAX) ** 2 + PHI_HALF**2)),
        )
    )
    cfg = TriggerConfig(filter_cone_r2=cone)
    return block, seed, cfg


@given(filter_cases())
def test_filter_block_matches_naive_definition(case):
    block, seed, cfg = case
    want = tuple(
        p
        for p in block
        if p.valid
        and delta_r2(p.pos, seed.pos) <= cfg.filter_cone_r2
    )
    ops = OpCounter()
    assert filter_block(block, seed, cfg, ops) == want
    n_valid = sum(1 for p in block if p.valid)
    assert ops == OpCounter(2 * n_valid, 0, n_valid)


# --- totals ----------------------------------------------------------------


def test_total_pt_examples():
    mk = lambda pt: make_particle(pt, 0, 0)
    assert compute_total_pt([], CFG) == 0
    assert compute_total_pt([mk(3), mk(4), mk(5)], CFG) == 12
    assert compute_total_pt([mk(40000), mk(40000)], CFG) == 65535


# --- signal selection -------------------------------------------------------


def clist(candidates, seed=None) -> CandidateList:
    seed = seed or seed_at()
    return CandidateList(seed, tuple(candidates), compute_total_pt(candidates, CFG))


def test_signal_selection_empty():
    out = select_signal_candidates(clist([]), CFG)
    assert out.candidates == ()
    assert out.total_pt == 0


def test_signal_selection_species_mask():
    muon = make_particle(10, 0, 0, Species.MUON)
    out = select_signal_candidates(clist([muon]), CFG)
    assert out.candidates == ()


def test_signal_selection_clamped_boundary():
    # a tiny total pt drives k/total above the max clamp, so the effective
    # cone is exactly signal_cone_r2_max = 130^2
    at_edge = make_particle(1, 130, 0)
    past_edge = make_particle(1, 131, 0)
    lst = clist([at_edge, past_edge])
    assert signal_cone_r2(lst.total_pt, CFG) == CFG.signal_cone_r2_max
    out = select_signal_candidates(lst, CFG)
    assert out.candidates == (at_edge,)


def test_signal_selection_min_clamp():
    # a huge total pt shrinks k/total below the min clamp
    heavy = make_particle(60000, 0, 0)
    inside = make_particle(1, 31, 0)  # 961 <= 1024
    outside = make_particle(1, 33, 0)  # 1089 > 1024
    lst = clist([heavy, inside, outside])
    assert signal_cone_r2(lst.total_pt, CFG) == CFG.signal_cone_r2_min
    out = select_signal_candidates(lst, CFG)
    assert out.candidates == (heavy, inside)


species_st = st.sampled_from(list(Species))
cand_st = st.builds(
    lambda pt, eta, phi, sp: make_particle(pt, eta, phi, sp),
    st.integers(0, 2000),
    st.integers(-300, 300),
    st.integers(-300, 300),
    species_st,
)


@given(st.lists(cand_st, max_size=30))
def test_signal_selection_matches_division_form(cands):
    lst = clist(cands)
    out = select_signal_candidates(lst, CFG)
    r2_sig = signal_cone_r2(lst.total_pt, CFG)
    want = tuple(
        p
        for p in lst.candidates
        if p.species in CFG.allowed_signal_species
        and (p.pos.eta**2 + p.pos.phi**2) <= r2_sig
    )
    assert out.candidates == want


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
    p = make_particle(10, 100, -50)
    params = compute_tau_params(clist([p]), CFG)
    assert params == TauParams(sum_pt=10, eta_w=100, phi_w=-50)


def test_tau_params_weighted_average():
    # pts {1,3}, etas {0,4} -> (0 + 12) / 4 = 3
    a = make_particle(1, 0, 7)
    b = make_particle(3, 4, 7)
    params = compute_tau_params(clist([a, b]), CFG)
    assert params.eta_w == 3
    assert params.phi_w == 7
    assert params.sum_pt == 4


def test_tau_params_empty_is_invalid_without_division():
    ops = OpCounter()
    params = compute_tau_params(clist([]), CFG, ops)
    assert params == TauParams(0, 0, 0)
    assert ops.divisions == 0


def test_tau_params_two_divisions_per_group():
    ops = OpCounter()
    compute_tau_params(clist([make_particle(5, 1, 1)]), CFG, ops)
    assert ops.divisions == 2


def test_tau_params_truncates_toward_zero():
    # weighted eta numerator is -1 over sum 2: trunc(-0.5) = 0, not floor -1
    a = make_particle(1, 0, 0)
    b = make_particle(1, -1, 0)
    params = compute_tau_params(clist([a, b]), CFG)
    assert params.eta_w == 0


def test_tau_params_phi_wraps_across_boundary():
    # seed and both candidates sit astride the periodic boundary; averaging
    # on raw phi values would be wildly wrong
    seed = seed_at(phi=1020)
    a = make_particle(1, 0, 1015)
    b = make_particle(1, 0, -1021)  # 12 units past the boundary from 1015
    params = compute_tau_params(clist([a, b], seed), CFG)
    # offsets relative to the seed: -5 and +7 -> average +1 -> phi 1021
    assert params.phi_w == 1021


def test_tau_params_zero_pt_group_is_invalid():
    zero = make_particle(0, 10, 10)
    params = compute_tau_params(clist([zero, zero]), CFG)
    assert params == TauParams(0, 0, 0)


# --- reconstruction ----------------------------------------------------------


def test_reconstruct_invalid_params():
    assert not reconstruct_tau(TauParams(0, 0, 0), CFG).valid
    # a zero pt sum is no tau even when the threshold is 0
    assert not reconstruct_tau(TauParams(0, 0, 0), TriggerConfig(min_tau_pt=0)).valid


def test_reconstruct_threshold_boundary():
    below = TauParams(CFG.min_tau_pt - 1, 5, 6)
    at = TauParams(CFG.min_tau_pt, 5, 6)
    assert not reconstruct_tau(below, CFG).valid
    got = reconstruct_tau(at, CFG)
    assert got.valid and got.pt == CFG.min_tau_pt and got.pos == AngularCoord(5, 6)


# --- op costs -------------------------------------------------------------------


def test_stage_op_costs_on_probes():
    rows = stage_op_counts(CFG)
    assert rows["filtering"].multiplications == 2
    assert rows["filtering"].divisions == 0
    assert rows["tau_parameters"].divisions == 2
    assert rows["tau_reconstruction"].multiplications == 0
    assert rows["tau_reconstruction"].divisions == 0
    no_div = [name for name, r in rows.items() if name != "tau_parameters"]
    assert all(rows[name].divisions == 0 for name in no_div)


# --- config validation --------------------------------------------------------


def test_trigger_config_holds_cones_and_thresholds_only():
    # the framing and the pt/eta/phi ranges are constants of taupipe.core
    assert [f.name for f in fields(TriggerConfig)] == [
        "filter_cone_r2", "signal_cone_k", "signal_cone_r2_min", "signal_cone_r2_max",
        "allowed_signal_species", "proximity_r2", "min_seed_pt", "min_tau_pt",
    ]


def test_config_cone_order_invariant():
    with pytest.raises(ValueError, match="signal_cone_r2_min"):
        TriggerConfig(signal_cone_r2_min=200, signal_cone_r2_max=100)
