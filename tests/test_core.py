import pytest
from hypothesis import given, strategies as st

from taupipe.core import (
    ETA_MAX,
    AngularCoord,
    OpCounter,
    PAD_PARTICLE,
    PHI_HALF,
    PHI_RANGE,
    PT_MAX,
    Particle,
    Species,
    delta_r2,
    make_event,
    make_particle,
    saturating_pt_add,
    trunc_div,
    wrap_delta_phi,
)

HALF = PHI_RANGE // 2

phis = st.integers(min_value=-HALF, max_value=HALF - 1)
etas = st.integers(min_value=-4096, max_value=4096)
pts = st.integers(min_value=0, max_value=PT_MAX)


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
    assert wrap_delta_phi(100, 100) == 0


def test_wrap_across_boundary():
    assert wrap_delta_phi(1000, -1000) == -48
    assert wrap_delta_phi(-1000, 1000) == 48


@given(phis, phis)
def test_wrap_matches_brute_force(a, b):
    assert wrap_delta_phi(a, b) == brute_wrap(a, b)


@given(phis, phis)
def test_wrap_range_and_antisymmetry(a, b):
    d = wrap_delta_phi(a, b)
    assert -HALF <= d < HALF
    if d != -HALF and wrap_delta_phi(b, a) != -HALF:
        assert wrap_delta_phi(b, a) == -d


def test_delta_r2_coincident():
    p = AngularCoord(10, 20)
    assert delta_r2(p, p) == 0


def test_delta_r2_345():
    assert delta_r2(AngularCoord(3, 0), AngularCoord(0, 4)) == 25


def test_delta_r2_wrapped_phi():
    # wrapped dphi is -48, squared 2304
    assert delta_r2(AngularCoord(0, 1000), AngularCoord(0, -1000)) == 2304


def test_delta_r2_counts_two_multiplications():
    ops = OpCounter()
    delta_r2(AngularCoord(1, 2), AngularCoord(3, 4), ops=ops)
    assert ops.multiplications == 2
    assert ops.divisions == 0


def test_delta_r2_largest_distance_fits_27_bits():
    # opposite eta ends, phi half a period apart: no distance needs saturation
    corner = delta_r2(AngularCoord(-ETA_MAX, -PHI_HALF), AngularCoord(ETA_MAX, 0))
    assert corner == (2 * ETA_MAX) ** 2 + PHI_HALF**2 == 68_157_440 < 2**27


@given(etas, phis, etas, phis)
def test_delta_r2_symmetric(e1, p1, e2, p2):
    a, b = AngularCoord(e1, p1), AngularCoord(e2, p2)
    assert delta_r2(a, b) == delta_r2(b, a)


@given(etas, phis, etas, phis)
def test_delta_r2_zero_iff_coincident_mod_wrap(e1, p1, e2, p2):
    a, b = AngularCoord(e1, p1), AngularCoord(e2, p2)
    zero = delta_r2(a, b) == 0
    assert zero == (e1 == e2 and wrap_delta_phi(p1, p2) == 0)


def test_saturating_add_examples():
    assert saturating_pt_add(0, 7) == 7
    assert saturating_pt_add(60000, 10000) == 65535
    assert saturating_pt_add(300, 400) == 700


def test_saturating_add_rejects_negative():
    with pytest.raises(ValueError):
        saturating_pt_add(-1, 5)


@given(pts, pts, pts)
def test_saturating_add_properties(a, b, c):
    assert saturating_pt_add(a, b) == saturating_pt_add(b, a)
    assert saturating_pt_add(a, b) <= PT_MAX
    if b <= c:
        assert saturating_pt_add(a, b) <= saturating_pt_add(a, c)


@pytest.mark.parametrize(
    "num, den, expected",
    [(7, 2, 3), (-7, 2, -3), (7, -2, -3), (-7, -2, 3), (-1, 2, 0), (1, 2, 0)],
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


def test_invalid_particle_must_be_zero_pt():
    with pytest.raises(ValueError):
        Particle(5, AngularCoord(0, 0), Species.PHOTON, valid=False)


def test_make_event_pads_to_128():
    ev = make_event(3, [make_particle(10, 0, 0)])
    assert len(ev.particles) == 128
    assert ev.particles[0].valid
    assert ev.particles[1] == PAD_PARTICLE
    assert not ev.particles[127].valid


def test_make_event_rejects_oversize():
    with pytest.raises(ValueError):
        make_event(0, [make_particle(1, 0, 0)] * 129)
