import pytest
from hypothesis import given, strategies as st

from helpers import chain_taus, fig5_taus, random_tau_slots, tau
from taupipe.core import MAX_TAUS, delta_r2
from taupipe.eventio import SplitMix64
from taupipe.reference import oracle_clean
from taupipe.stages import (
    INVALID_TAU,
    TriggerConfig,
    build_cleaning_matrix,
    clean_solution_a,
    clean_solution_b,
)

CFG = TriggerConfig()


def test_fig5_matrix_positions():
    m = build_cleaning_matrix(fig5_taus(), CFG)
    assert sorted((i + 1, j + 1) for i, j in m) == [(2, 6), (3, 1), (4, 2), (4, 6)]


def test_fig5_survivors_both_solutions():
    taus = fig5_taus()
    want = (taus[0], taus[4], taus[5])  # slots 1, 5, 6 one-based
    assert clean_solution_a(taus, CFG) == want
    assert clean_solution_b(taus, CFG) == want
    assert oracle_clean(taus, CFG) == want


def test_single_valid_tau_all_false_matrix():
    taus = [INVALID_TAU] * 16
    taus[5] = tau(40, 0, 0)
    m = build_cleaning_matrix(tuple(taus), CFG)
    assert m == set()
    assert clean_solution_b(tuple(taus), CFG) == (taus[5],)


def test_equal_pt_tie_break_lower_index_wins():
    taus = [INVALID_TAU] * 16
    taus[2] = tau(50, 0, 0)
    taus[9] = tau(50, 10, 10)
    m = build_cleaning_matrix(tuple(taus), CFG)
    assert m == {(9, 2)}
    for fn in (clean_solution_a, clean_solution_b):
        assert fn(tuple(taus), CFG) == (taus[2],)


def test_chain_only_head_survives():
    taus = chain_taus()
    assert delta_r2(taus[0].pos, taus[2].pos) > CFG.proximity_r2  # a not near c
    for fn in (clean_solution_a, clean_solution_b, oracle_clean):
        assert fn(taus, CFG) == (taus[0],)


def test_sixteen_isolated_capped_to_top8():
    taus = tuple(tau(10 + i, (i % 4) * 1000 - 1500, (i // 4) * 500 - 750) for i in range(16))
    for fn in (clean_solution_a, clean_solution_b):
        out = fn(taus, CFG)
        assert len(out) == MAX_TAUS
        # the eight highest pts, emitted in original slot order
        assert out == taus[8:]


def test_cap_prefers_high_pt_with_index_tie_break():
    taus = list(tau(50, (i % 4) * 1000 - 1500, (i // 4) * 500 - 750) for i in range(16))
    out = clean_solution_b(tuple(taus), CFG)
    assert out == tuple(taus[:8])


def test_cleaning_requires_sixteen_slots():
    with pytest.raises(ValueError):
        clean_solution_b((INVALID_TAU,) * 15, CFG)
    with pytest.raises(ValueError):
        build_cleaning_matrix((INVALID_TAU,) * 17, CFG)


def test_all_invalid_input_empty_output():
    assert clean_solution_a((INVALID_TAU,) * 16, CFG) == ()
    assert clean_solution_b((INVALID_TAU,) * 16, CFG) == ()


grid_tau = st.one_of(
    st.just(INVALID_TAU),
    st.builds(
        tau,
        st.integers(1, 20),
        st.sampled_from([k * 120 for k in range(-4, 5)]),
        st.sampled_from([k * 120 for k in range(-4, 5)]),
    ),
)
slots_st = st.lists(grid_tau, min_size=16, max_size=16).map(tuple)


@given(slots_st)
def test_solutions_agree_with_each_other_and_oracle(taus):
    a = clean_solution_a(taus, CFG)
    b = clean_solution_b(taus, CFG)
    o = oracle_clean(taus, CFG)
    assert a == b == o


@given(slots_st)
def test_matrix_exactly_one_direction_for_nearby_pairs(taus):
    m = build_cleaning_matrix(taus, CFG)
    for i in range(16):
        for j in range(i + 1, 16):
            if not (taus[i].valid and taus[j].valid):
                assert (i, j) not in m and (j, i) not in m
                continue
            nearby = delta_r2(taus[i].pos, taus[j].pos) <= CFG.proximity_r2
            assert ((i, j) in m or (j, i) in m) == nearby
            assert not ((i, j) in m and (j, i) in m)


@given(slots_st)
def test_precap_survivors_are_the_undominated_set(taus):
    m = build_cleaning_matrix(taus, CFG)
    from_matrix = {i for i in range(16) if taus[i].valid and not any(r == i for r, _ in m)}
    dominated = {
        i
        for i in range(16)
        if taus[i].valid
        and any(
            taus[j].valid
            and j != i
            and delta_r2(taus[i].pos, taus[j].pos) <= CFG.proximity_r2
            and (taus[j].pt > taus[i].pt or (taus[j].pt == taus[i].pt and j < i))
            for j in range(16)
        )
    }
    assert from_matrix == {i for i in range(16) if taus[i].valid} - dominated


def test_oracle_permutation_invariance_distinct_pts():
    rng = SplitMix64(99)
    base = random_tau_slots(rng)
    # force distinct pts so relabeling cannot change the winner set
    taus = tuple(
        tau(100 + i, t.pos.eta, t.pos.phi) if t.valid else INVALID_TAU
        for i, t in enumerate(base)
    )
    perm = list(range(16))
    rng2 = SplitMix64(7)
    for i in range(15, 0, -1):
        j = rng2.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    shuffled = tuple(taus[perm[i]] for i in range(16))
    got = {(t.pt, t.pos.eta, t.pos.phi) for t in oracle_clean(shuffled, CFG)}
    want = {(t.pt, t.pos.eta, t.pos.phi) for t in oracle_clean(taus, CFG)}
    assert got == want


def test_randomized_cross_check_bulk():
    rng = SplitMix64(1234)
    for _ in range(500):
        taus = random_tau_slots(rng)
        assert clean_solution_a(taus, CFG) == clean_solution_b(taus, CFG) == oracle_clean(taus, CFG)
