"""Metamorphic relations: event transforms whose effect on the taus is exact.

Every distance the trigger takes is invariant under a rotation in phi and a
mirror in eta or phi, phi is averaged on offsets from the seed, and the
divider truncates toward zero.  So rotating every particle rotates every
tau, and mirroring every eta (phi) mirrors every tau's eta (phi), with pts,
order and count unchanged, for each solution pair and both oracle cap
orders.  The phi mirror holds while no offset is exactly ``-PHI_HALF``,
which mirrors to itself.  Where no cone overflows the candidate cap, the
slot order matters only where it breaks the tie of two charged pts, so a
permutation of the slots that keeps those ties in order changes no tau.
"""

from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from taupipe.core import (
    MAX_CANDIDATES,
    N_INPUT,
    PAD_PARTICLE,
    PHI_HALF,
    PHI_RANGE,
    Event,
    delta_r2,
    wrap_phi,
)
from taupipe.eventio import GEN_PROFILES, gen_events
from taupipe.reference import oracle_trigger
from taupipe.stages import (
    CLEAN_SOLUTIONS,
    MERGE_SOLUTIONS,
    Tau,
    TriggerConfig,
    run_stages,
    select_seeds,
)

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
    return tuple(f(t) for t in taus)


@pytest.mark.parametrize("cones", CONES)
@few
@given(events, st.integers(1, PHI_RANGE - 1))
def test_phi_rotation_rotates_every_tau(cones, ev, r):
    rotated = map_particles(ev, lambda p: replace(p, phi=wrap_phi(p.phi + r)))
    for name, trigger in triggers(CONES[cones]):
        want = map_taus(trigger(ev), lambda t: replace(t, phi=wrap_phi(t.phi + r)))
        assert trigger(rotated) == want, name


@pytest.mark.parametrize("cones", CONES)
@few
@given(events)
def test_eta_mirror_mirrors_every_tau(cones, ev):
    mirrored = map_particles(ev, lambda p: replace(p, eta=-p.eta))
    for name, trigger in triggers(CONES[cones]):
        want = map_taus(trigger(ev), lambda t: replace(t, eta=-t.eta))
        assert trigger(mirrored) == want, name


def without_half_range_pairs(ev: Event) -> Event:
    """The event with every valid particle padded out that lies exactly
    ``PHI_HALF`` in phi from a valid particle kept before it."""
    kept_phis = set()
    particles = []
    for p in ev.particles:
        if p.valid and wrap_phi(p.phi + PHI_HALF) in kept_phis:
            p = PAD_PARTICLE
        elif p.valid:
            kept_phis.add(p.phi)
        particles.append(p)
    return Event(ev.event_id, tuple(particles))


@pytest.mark.parametrize("cones", CONES)
@few
@given(events)
def test_phi_mirror_mirrors_every_tau(cones, ev):
    # Under the default cones no in-cone offset reaches PHI_HALF, so the
    # excluded pairs matter only on whole-plane cones.
    ev = without_half_range_pairs(ev)
    mirrored = map_particles(ev, lambda p: replace(p, phi=wrap_phi(-p.phi)))
    for name, trigger in triggers(CONES[cones]):
        want = map_taus(trigger(ev), lambda t: replace(t, phi=wrap_phi(-t.phi)))
        assert trigger(mirrored) == want, name


def permute_slots(ev: Event, order) -> Event:
    """The event whose slot j holds the particle of slot ``order[j]``, except
    that charged particles of equal pt keep their relative slot order."""
    particles = [ev.particles[i] for i in order]
    ties = defaultdict(list)  # pt -> new slots of the charged particles, ascending
    for j, p in enumerate(particles):
        if p.valid and p.species.charged:
            ties[p.pt].append(j)
    for slots in ties.values():
        for j, i in zip(slots, sorted(order[k] for k in slots)):
            particles[j] = ev.particles[i]
    return Event(ev.event_id, tuple(particles))


def cone_overflows(ev: Event, cfg: TriggerConfig) -> bool:
    return any(
        sum(p.valid and delta_r2(p, seed) <= cfg.filter_cone_r2 for p in ev.particles)
        > MAX_CANDIDATES
        for seed in select_seeds(ev, cfg)
    )


@few
@given(events, st.permutations(range(N_INPUT)))
def test_slot_permutation_changes_no_tau(ev, order):
    cfg = CONES["default"]
    assume(not cone_overflows(ev, cfg))
    permuted = permute_slots(ev, order)
    for name, trigger in triggers(cfg):
        assert trigger(permuted) == trigger(ev), name
