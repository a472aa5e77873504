import copy
import pickle
from dataclasses import fields

import pytest
from hypothesis import given, strategies as st

from taupipe.core import (
    ETA_MAX,
    MAX_DELTA_R2,
    PT_MAX,
    PAD_PARTICLE,
    PHI_HALF,
    PHI_RANGE,
    Particle,
    Species,
    Tau,
    delta_r2,
    make_event,
    trunc_div,
    wrap_phi,
)
from taupipe.eventio import EventFileError, load_config, parse_events
from taupipe.reference import oracle_trigger
from taupipe.stages import CandidateList, compute_total_pt, select_signal_candidates

HALF = PHI_RANGE // 2

phis = st.integers(min_value=-HALF, max_value=HALF - 1)
etas = st.integers(min_value=-4096, max_value=4096)


def brute_wrap(a: int, b: int) -> int:
    # independent oracle: minimize |a - b + k*PHI_RANGE| over k, preferring
    # the representative inside [-HALF, HALF)
    best = None
    for k in range(-3, 4):
        d = a - b + k * PHI_RANGE
        if -HALF <= d < HALF:
            best = d
    assert best is not None
    return best


def test_wrap_identity():
    assert wrap_phi(100 - 100) == 0


def test_wrap_across_boundary():
    assert wrap_phi(1000 - (-1000)) == -48
    assert wrap_phi(-1000 - 1000) == 48


@given(phis, phis)
def test_wrap_matches_brute_force(a, b):
    assert wrap_phi(a - b) == brute_wrap(a, b)


@given(phis, phis)
def test_wrap_range_and_antisymmetry(a, b):
    d = wrap_phi(a - b)
    assert -HALF <= d < HALF
    if d != -HALF and wrap_phi(b - a) != -HALF:
        assert wrap_phi(b - a) == -d


def test_delta_r2_coincident():
    p = Tau(1, 10, 20)
    assert delta_r2(p, p) == 0


def test_delta_r2_345():
    assert delta_r2(Tau(1, 3, 0), Tau(1, 0, 4)) == 25
    # a particle (or a seed) against a tau
    assert delta_r2(Particle(1, 3, 4), Tau(1, 0, 0)) == 25


def test_delta_r2_wrapped_phi():
    # wrapped dphi is -48, squared 2304
    assert delta_r2(Tau(1, 0, 1000), Tau(1, 0, -1000)) == 2304


def test_delta_r2_largest_distance_fits_27_bits():
    # opposite eta ends, phi half a period apart: no distance needs saturation
    corner = delta_r2(Tau(1, -ETA_MAX, -PHI_HALF), Tau(1, ETA_MAX, 0))
    assert corner == MAX_DELTA_R2 < 2**27


@given(etas, phis, etas, phis)
def test_delta_r2_never_exceeds_the_corner(e1, p1, e2, p2):
    assert delta_r2(Particle(1, e1, p1), Particle(1, e2, p2)) <= MAX_DELTA_R2


@given(etas, phis, etas, phis)
def test_delta_r2_symmetric(e1, p1, e2, p2):
    a, b = Tau(1, e1, p1), Tau(1, e2, p2)
    assert delta_r2(a, b) == delta_r2(b, a)


@given(etas, phis, etas, phis)
def test_delta_r2_zero_iff_coincident_mod_wrap(e1, p1, e2, p2):
    a, b = Tau(1, e1, p1), Tau(1, e2, p2)
    zero = delta_r2(a, b) == 0
    assert zero == (e1 == e2 and wrap_phi(p1 - p2) == 0)


def test_saturating_add_examples():
    # the pt total of two particles is their sum, clamped once at PT_MAX
    def add(a, b):
        return compute_total_pt([Particle(a, 0, 0), Particle(b, 0, 0)])

    assert add(0, 7) == 7
    assert add(60000, 10000) == 65535
    assert add(300, 400) == 700


@pytest.mark.parametrize(
    "num, den, expected",
    [(7, 2, 3), (-7, 2, -3), (-1, 2, 0), (1, 2, 0)],
)
def test_trunc_div_toward_zero(num, den, expected):
    assert trunc_div(num, den) == expected


def test_species_charged():
    assert {s for s in Species if not s.charged} == {Species.NEUTRAL_HADRON, Species.PHOTON}
    # the value stays the file name, so lookup by name works
    assert Species("photon") is Species.PHOTON
    assert [s.value for s in Species] == [
        "charged_hadron", "neutral_hadron", "electron", "photon", "muon"
    ]


def test_species_copies_are_the_member_itself():
    # Species hashes by identity, which holds only while every copy of a
    # member is that member
    for s in Species:
        assert copy.copy(s) is s
        assert copy.deepcopy(s) is s
        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(s, proto)) is s
    p = Particle(7, -3, 9, Species.MUON)
    q = pickle.loads(pickle.dumps(p))
    assert q == p and hash(q) == hash(p)


def test_configured_signal_species_are_admitted_exactly():
    cfg = load_config("allowed_signal_species = muon, photon").trigger
    assert cfg.allowed_signal_species == {Species.MUON, Species.PHOTON}
    # one particle of each species on one spot, pts 16, 32, ... 256
    particles = [Particle(16 << i, 0, 0, s) for i, s in enumerate(Species)]
    kept = select_signal_candidates(CandidateList(particles[0], tuple(particles)), cfg)
    assert [p.species for p in kept.candidates] == [Species.PHOTON, Species.MUON]
    taus = oracle_trigger(make_event(0, particles), cfg)
    assert [t.pt for t in taus] == [128 + 256]


def test_particle_fields_follow_the_event_record():
    # an event-file record is: event_id slot pt eta phi species
    assert [f.name for f in fields(Particle)] == ["pt", "eta", "phi", "species", "valid"]
    p = Particle(1, 3, 4)
    assert (p.species, p.valid) == (Species.CHARGED_HADRON, True)


def test_particle_pt_must_be_non_negative():
    with pytest.raises(ValueError, match=r"^pt -1 outside 0\.\.65535$"):
        Particle(-1, 0, 0)


@pytest.mark.parametrize(
    "pt, eta, phi, message",
    [
        (-1, 0, 0, "pt -1 outside 0..65535"),
        (PT_MAX + 1, 0, 0, "pt 65536 outside 0..65535"),
        (1, ETA_MAX + 1, 0, "|eta| 4097 exceeds 4096"),
        (1, -ETA_MAX - 1, 0, "|eta| -4097 exceeds 4096"),
        (1, 0, PHI_HALF, "phi 1024 outside [-1024, 1024)"),
        (1, 0, -PHI_HALF - 1, "phi -1025 outside [-1024, 1024)"),
    ],
)
def test_particle_refuses_values_outside_the_ranges(pt, eta, phi, message):
    # a particle built in code and a parsed record fail with one message
    with pytest.raises(ValueError) as built:
        Particle(pt, eta, phi)
    assert str(built.value) == message
    with pytest.raises(EventFileError) as parsed:
        parse_events(f"taupipe-events 1\n0 0 {pt} {eta} {phi} photon\n")
    assert str(parsed.value) == f"line 2: {message}"


def test_particle_ranges_are_inclusive_where_stated():
    for pt, eta, phi in [(0, -ETA_MAX, -PHI_HALF), (PT_MAX, ETA_MAX, PHI_HALF - 1)]:
        p = Particle(pt, eta, phi)
        assert (p.pt, p.eta, p.phi) == (pt, eta, phi)


def test_invalid_particle_must_be_zero_pt():
    with pytest.raises(ValueError, match="must carry pt = 0"):
        Particle(5, 0, 0, Species.PHOTON, valid=False)


def test_make_event_pads_to_128():
    ev = make_event(3, [Particle(10, 0, 0)])
    assert len(ev.particles) == 128
    assert ev.particles[0].valid
    assert ev.particles[1] == PAD_PARTICLE
    assert not ev.particles[127].valid


def test_make_event_rejects_oversize():
    with pytest.raises(ValueError):
        make_event(0, [Particle(1, 0, 0)] * 129)
