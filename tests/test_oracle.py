import pytest

from taupipe.core import MAX_TAUS, PHI_HALF, Particle, Species, make_event, wrap_delta_phi
from taupipe.eventio import gen_events
from taupipe.reference import oracle_trigger
from taupipe.stages import TriggerConfig, run_stages

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
