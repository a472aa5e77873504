from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from helpers import tau
from taupipe.core import (
    ETA_MAX,
    MAX_TAUS,
    N_INPUT,
    PHI_HALF,
    OpCounter,
    Particle,
    Species,
    delta_r2,
    make_event,
    trunc_div,
    wrap_delta_phi,
    wrap_phi,
)
from taupipe.eventio import gen_events
from taupipe.reference import _trunc_div, oracle_clean, oracle_trigger, signal_cone_r2
from taupipe.stages import (
    INVALID_TAU,
    CandidateList,
    TriggerConfig,
    clean_solution_a,
    clean_solution_b,
    run_stages,
    select_signal_candidates,
)

CFG = TriggerConfig()
# whole-plane cones, the settings of test_golden's DENSE_CONFIG
WHOLE_PLANE = TriggerConfig(
    filter_cone_r2=400_000_000, signal_cone_r2_max=400_000_000, signal_cone_k=2_000_000_000
)


def test_empty_event_yields_no_taus():
    assert oracle_trigger(make_event(0, []), CFG) == ()


def test_single_particle_tau_is_identity():
    p = Particle(40, 123, -456)
    out = oracle_trigger(make_event(0, [p]), CFG)
    assert len(out) == 1
    t = out[0]
    assert (t.pt, t.pos.eta, t.pos.phi, t.valid) == (40, 123, -456, True)


def test_below_tau_threshold_yields_nothing():
    p = Particle(CFG.min_tau_pt - 1, 0, 0)
    assert oracle_trigger(make_event(0, [p]), CFG) == ()


def test_oracle_rejects_an_unknown_merge_solution():
    # the message names the solutions, not the table of their functions
    with pytest.raises(ValueError, match=r"^merge_solution must be one of \('A', 'B'\)$"):
        oracle_trigger(make_event(0, []), CFG, "C")


def test_oracle_is_pure():
    ev = gen_events(5, 1, "clustered", CFG)[0]
    assert oracle_trigger(ev, CFG) == oracle_trigger(ev, CFG)


def test_staged_path_matches_oracle_all_variants():
    for profile in ("uniform", "clustered", "busy"):
        events = gen_events(11, 60, profile, CFG)
        for ev in events:
            want = oracle_trigger(ev, CFG)
            for merge in "AB":
                for clean in "AB":
                    assert run_stages(ev, CFG, merge, clean) == want


def test_at_most_eight_taus_and_min_pt():
    # dense event: plenty of seeds, outputs still capped and thresholded
    particles = [
        Particle(20 + i, (i % 8) * 900 - 3000, (i // 8) * 300 - 900)
        for i in range(64)
    ]
    out = oracle_trigger(make_event(0, particles), CFG)
    assert len(out) <= MAX_TAUS
    assert all(t.pt >= CFG.min_tau_pt for t in out)


def test_neutral_only_event_has_no_seeds():
    particles = [Particle(500, i * 10, 0, Species.PHOTON) for i in range(30)]
    assert oracle_trigger(make_event(0, particles), CFG) == ()


def test_staged_path_matches_oracle_on_cone_overflow():
    # whole-plane cones: every seed's cone overflows the candidate cap, and
    # each merge solution's choice matches the oracle's cap order for it
    cfg = WHOLE_PLANE
    events = gen_events(3, 20, "busy", cfg)
    differ = 0
    for ev in events:
        want = {merge: oracle_trigger(ev, cfg, merge) for merge in "AB"}
        differ += want["A"] != want["B"]
        for merge in "AB":
            for clean in "AB":
                assert run_stages(ev, cfg, merge, clean) == want[merge]
    assert differ > 0  # the two cap orders genuinely disagree on these events


def test_phi_mirror_of_an_offset_of_half_the_range():
    # negating every phi negates every tau's phi, except where a particle
    # sits exactly PHI_HALF from its seed: the wrapped offset -PHI_HALF
    # mirrors to itself, so both sides average towards negative offsets
    assert wrap_delta_phi(-724, 300) == wrap_delta_phi(724, -300) == -PHI_HALF
    for phis, want in (((300, -724), (130, 471)), ((-300, 724), (-470, -129))):
        ev = make_event(0, [Particle(50, 0, phis[0]), Particle(10, 0, phis[1])])
        for merge in "AB":
            taus = oracle_trigger(ev, WHOLE_PLANE, merge)
            assert tuple(t.pos.phi for t in taus) == want
            for clean in "AB":
                assert run_stages(ev, WHOLE_PLANE, merge, clean) == taus


def cone_taus(seed, photon, r2):
    """The oracle's taus under both cap orders and run_stages' taus for one cone.

    The signal cone is pinned open (1 << 27 exceeds every distance in the
    ranges), so the filter cone alone decides whether the photon joins.
    """
    cfg = TriggerConfig(
        filter_cone_r2=r2, signal_cone_r2_min=1 << 27, signal_cone_r2_max=1 << 27
    )
    ev = make_event(0, [seed, photon])
    return [oracle_trigger(ev, cfg, merge) for merge in "AB"] + [run_stages(ev, cfg)]


@st.composite
def cone_edges(draw):
    se = draw(st.integers(-ETA_MAX, ETA_MAX))
    sp = draw(st.integers(-PHI_HALF, PHI_HALF - 1))
    near = st.integers(max(-ETA_MAX, se - 300), min(ETA_MAX, se + 300))
    pe = draw(near | st.integers(-ETA_MAX, ETA_MAX))
    pp = wrap_phi(sp + draw(st.integers(-300, 300) | st.integers(-PHI_HALF, PHI_HALF - 1)))
    seed = Particle(100, se, sp)
    photon = Particle(draw(st.integers(1, 1000)), pe, pp, Species.PHOTON)
    d, deta2 = delta_r2(photon, seed), (pe - se) * (pe - se)
    edges = st.sampled_from([0, max(d - 1, 0), d, d + 1, max(deta2 - 1, 0), deta2])
    squares = st.integers(0, 2 * ETA_MAX).map(lambda k: k * k)
    return seed, photon, draw(edges | squares | st.integers(0, 1 << 27))


@given(cone_edges())
def test_filter_cone_keeps_exactly_the_particles_within_r2(case):
    seed, photon, r2 = case
    want = seed.pt + photon.pt if delta_r2(photon, seed) <= r2 else seed.pt
    for taus in cone_taus(seed, photon, r2):
        assert [t.pt for t in taus] == [want]


@pytest.mark.parametrize(
    "seed, photon, r2, kept",
    [
        # deta^2 == r2 with dphi 0: on the edge, kept; one unit further, dropped
        ((0, 0), (130, 0), 16900, True),
        ((0, 0), (130, 1), 16900, False),
        ((-4096, 7), (-3966, 7), 16900, True),
        # across the phi seam the wrapped difference is 8, not 2040
        ((0, -1020), (0, 1020), 64, True),
        ((0, -1020), (0, 1020), 63, False),
        # a wrapped difference of exactly -PHI_HALF
        ((0, 500), (0, -524), PHI_HALF * PHI_HALF, True),
        ((0, -524), (0, 500), PHI_HALF * PHI_HALF - 1, False),
        # cone 0 keeps only a photon on the seed itself
        ((5, 5), (5, 5), 0, True),
        ((5, 5), (5, 6), 0, False),
    ],
)
def test_filter_cone_edges(seed, photon, r2, kept):
    s = Particle(100, *seed)
    p = Particle(9, *photon, Species.PHOTON)
    for taus in cone_taus(s, p, r2):
        assert [t.pt for t in taus] == [109 if kept else 100]


@given(
    st.integers(-(1 << 40), 1 << 40),
    st.integers(1, 1 << 22),
    st.integers(-(1 << 12), 1 << 12),
)
def test_oracle_truncation_is_exact(num, den, k):
    # negative numerators, exact multiples k * den and 0 in every example
    for n in (num, k * den, k * den - 1, 0):
        assert _trunc_div(n, den) == int(Fraction(n, den)) == trunc_div(n, den)


# --- inclusive boundaries ------------------------------------------------------
# Each case sits exactly on an edge that only a test of that value tells apart
# from its strict form.


def all_paths_taus(particles, cfg=CFG):
    """(oracle taus, run_stages taus) for every solution pair, the oracle
    keeping candidates in that pair's merge order."""
    ev = make_event(0, particles)
    return [
        (oracle_trigger(ev, cfg, merge), run_stages(ev, cfg, merge, clean))
        for merge in "AB"
        for clean in "AB"
    ]


def test_signal_cone_keeps_a_candidate_at_lo_when_the_cone_clamps_to_lo():
    # T = 5010 puts k / T below lo, so the cone is lo = 32^2, and the photon
    # lies on its edge
    seed, photon = Particle(5000, 0, 0), Particle(10, 32, 0, Species.PHOTON)
    assert signal_cone_r2(5010, CFG) == CFG.signal_cone_r2_min == delta_r2(photon, seed)
    ops = OpCounter()
    out = select_signal_candidates(CandidateList(seed, (seed, photon)), CFG, ops)
    assert out.candidates == (seed, photon)
    # no candidate lies past lo, so neither reaches the d * T product
    assert (ops.multiplications, ops.comparisons) == (4, 4)
    for want, got in all_paths_taus([seed, photon]):
        assert [t.pt for t in want] == [t.pt for t in got] == [5010]


def test_signal_cone_keeps_a_candidate_at_d_times_t_equal_to_k():
    # T = 256 and d = 130^2, so d * T is exactly signal_cone_k
    seed, photon = Particle(200, 0, 0), Particle(56, 130, 0, Species.PHOTON)
    assert delta_r2(photon, seed) * 256 == CFG.signal_cone_k
    out = select_signal_candidates(CandidateList(seed, (seed, photon)), CFG)
    assert out.candidates == (seed, photon)
    for want, got in all_paths_taus([seed, photon]):
        assert [t.pt for t in want] == [t.pt for t in got] == [256]


def test_signal_cone_of_a_total_pt_of_one():
    # T = 1: the cone is k / 1 = 2000, which holds the photon at d = 1600;
    # a T read as 2 would drop it
    cfg = TriggerConfig(min_seed_pt=0, min_tau_pt=1, signal_cone_k=2000)
    seed, photon = Particle(0, 0, 0), Particle(1, 40, 0, Species.PHOTON)
    out = select_signal_candidates(CandidateList(seed, (seed, photon)), cfg)
    assert out.candidates == (seed, photon)
    for want, got in all_paths_taus([seed, photon], cfg):
        assert want == got == (tau(1, 40, 0),)


@pytest.mark.parametrize("gap, kept", [(163, 1), (164, 2)])
def test_cleaning_at_exactly_proximity_r2(gap, kept):
    # 163^2 = proximity_r2: the pair is nearby and the lower pt goes;
    # one unit further, both stay
    assert 163 * 163 == CFG.proximity_r2
    taus = [INVALID_TAU] * 16
    taus[0], taus[1] = tau(50, 0, 0), tau(30, gap, 0)
    for clean in (clean_solution_a, clean_solution_b, oracle_clean):
        assert clean(tuple(taus), CFG) == tuple(taus[:kept])
    # each particle is outside the other's filter cone, so each is a tau
    for want, got in all_paths_taus([Particle(50, 0, 0), Particle(30, gap, 0)]):
        assert want == got == tuple(taus[:kept])


def test_a_full_frame_of_128_particles():
    particles = [
        Particle(1 + i, (i % 16) * 500 - 3750, (i // 16) * 250 - 1000)
        for i in range(N_INPUT)
    ]
    assert make_event(0, particles).particles == tuple(particles)
    for want, got in all_paths_taus(particles):
        assert want and want == got
    with pytest.raises(ValueError, match="129 particles"):
        make_event(0, particles + particles[:1])
