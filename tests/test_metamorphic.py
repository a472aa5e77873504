"""Metamorphic relations: event transforms whose effect on the taus is exact.

Every distance the trigger takes is invariant under a rotation in phi and a
mirror in eta, phi is averaged on offsets from the seed, and the divider
truncates toward zero.  So rotating every particle rotates every tau, and
mirroring every eta mirrors every tau's eta, with pts, order and count
unchanged, for each solution pair and both oracle cap orders.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from taupipe.core import PHI_RANGE, AngularCoord, Event, wrap_phi
from taupipe.eventio import GEN_PROFILES, gen_events
from taupipe.reference import oracle_trigger
from taupipe.stages import CLEAN_SOLUTIONS, MERGE_SOLUTIONS, Tau, TriggerConfig, run_stages

CONES = {
    "default": TriggerConfig(),
    # the settings of test_golden's DENSE_CONFIG: every seed's cone overflows
    "whole-plane": TriggerConfig(
        filter_cone_r2=400_000_000, signal_cone_r2_max=400_000_000, signal_cone_k=2_000_000_000
    ),
}

events = st.builds(
    lambda seed, profile: gen_events(seed, 1, profile)[0],
    st.integers(0, 2**32 - 1),
    st.sampled_from(GEN_PROFILES),
)
few = settings(max_examples=40, deadline=None)


def triggers(cfg: TriggerConfig):
    """(name, event -> taus) for the four solution pairs and the oracle's two cap orders."""
    for merge in MERGE_SOLUTIONS:
        for clean in CLEAN_SOLUTIONS:
            yield f"{merge}/{clean}", lambda ev, m=merge, c=clean: run_stages(ev, cfg, m, c)
        yield f"oracle {merge}", lambda ev, m=merge: oracle_trigger(ev, cfg, m)


def map_particles(ev: Event, f) -> Event:
    return Event(ev.event_id, tuple(f(p) if p.valid else p for p in ev.particles))


def map_taus(taus, f) -> tuple[Tau, ...]:
    return tuple(Tau(t.pt, f(t.pos)) for t in taus)


@pytest.mark.parametrize("cones", CONES)
@few
@given(events, st.integers(1, PHI_RANGE - 1))
def test_phi_rotation_rotates_every_tau(cones, ev, r):
    rotated = map_particles(ev, lambda p: replace(p, phi=wrap_phi(p.phi + r)))
    for name, trigger in triggers(CONES[cones]):
        want = map_taus(trigger(ev), lambda pos: AngularCoord(pos.eta, wrap_phi(pos.phi + r)))
        assert trigger(rotated) == want, name


@pytest.mark.parametrize("cones", CONES)
@few
@given(events)
def test_eta_mirror_mirrors_every_tau(cones, ev):
    mirrored = map_particles(ev, lambda p: replace(p, eta=-p.eta))
    for name, trigger in triggers(CONES[cones]):
        want = map_taus(trigger(ev), lambda pos: AngularCoord(-pos.eta, pos.phi))
        assert trigger(mirrored) == want, name
