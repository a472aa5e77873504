from taupipe.core import MAX_TAUS, Species, make_event, make_particle
from taupipe.eventio import gen_events
from taupipe.reference import oracle_trigger
from taupipe.stages import TriggerConfig, run_stages

CFG = TriggerConfig()


def test_empty_event_yields_no_taus():
    assert oracle_trigger(make_event(0, []), CFG) == ()


def test_single_particle_tau_is_identity():
    p = make_particle(40, 123, -456)
    out = oracle_trigger(make_event(0, [p]), CFG)
    assert len(out) == 1
    t = out[0]
    assert (t.pt, t.pos.eta, t.pos.phi, t.valid) == (40, 123, -456, True)


def test_below_tau_threshold_yields_nothing():
    p = make_particle(CFG.min_tau_pt - 1, 0, 0)
    assert oracle_trigger(make_event(0, [p]), CFG) == ()


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
        make_particle(20 + i, (i % 8) * 900 - 3000, (i // 8) * 300 - 900)
        for i in range(64)
    ]
    out = oracle_trigger(make_event(0, particles), CFG)
    assert len(out) <= MAX_TAUS
    assert all(t.pt >= CFG.min_tau_pt for t in out)


def test_neutral_only_event_has_no_seeds():
    particles = [make_particle(500, i * 10, 0, Species.PHOTON) for i in range(30)]
    assert oracle_trigger(make_event(0, particles), CFG) == ()


def test_staged_path_matches_oracle_on_cone_overflow():
    # whole-plane cones: every seed's cone overflows the candidate cap, and
    # each merge solution's choice matches the oracle's cap order for it
    cfg = TriggerConfig(
        filter_cone_r2=400_000_000, signal_cone_r2_max=400_000_000, signal_cone_k=2_000_000_000
    )
    events = gen_events(3, 20, "busy", cfg)
    differ = 0
    for ev in events:
        want = {merge: oracle_trigger(ev, cfg, merge) for merge in "AB"}
        differ += want["A"] != want["B"]
        for merge in "AB":
            for clean in "AB":
                assert run_stages(ev, cfg, merge, clean) == want[merge]
    assert differ > 0  # the two cap orders genuinely disagree on these events
