"""Fixed-point primitives and particle records shared by every pipeline step.

All quantities are plain Python integers in hardware units: one unit is one
least-significant quantum of the corresponding datapath register.  Transverse
momentum is unsigned and saturates at ``PT_MAX``; pseudorapidity is signed and
bounded; azimuth is signed and periodic with period ``PHI_RANGE``.  Using
integer units everywhere keeps every computation bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

PT_MAX = 65535
PHI_RANGE = 2048
ETA_MAX = 4096
N_INPUT = 128

# Squared distances saturate here instead of wrapping; with the default scales
# the ceiling is never reached, but wrapping would silently corrupt ordering.
R2_MAX = 2**32 - 1


class Species(Enum):
    """Particle species as delivered by the upstream reconstruction.

    ``value`` is the species name used in event and config files;
    ``charged`` is a plain member attribute, as seeding reads it per particle.
    """

    CHARGED_HADRON = ("charged_hadron", True)
    NEUTRAL_HADRON = ("neutral_hadron", False)
    ELECTRON = ("electron", True)
    PHOTON = ("photon", False)
    MUON = ("muon", True)

    def __new__(cls, name: str, charged: bool) -> "Species":
        member = object.__new__(cls)
        member._value_ = name
        member.charged = charged
        return member


@dataclass(frozen=True)
class AngularCoord:
    """Detector position: signed eta units, signed phi units in [-half, half).

    eta is bounded (|eta| <= ETA_MAX) and non-periodic; phi is periodic with
    period PHI_RANGE.  Both share the same least-significant quantum so that
    deta^2 + dphi^2 is an isotropic squared distance.
    """

    eta: int
    phi: int


@dataclass(frozen=True)
class Particle:
    pt: int
    pos: AngularCoord
    species: Species
    valid: bool = True

    def __post_init__(self) -> None:
        if self.pt < 0:
            raise ValueError(f"pt must be non-negative, got {self.pt}")
        if not self.valid and self.pt != 0:
            raise ValueError("invalid (padding) particles must carry pt = 0")


PAD_PARTICLE = Particle(
    pt=0,
    pos=AngularCoord(0, 0),
    species=Species.NEUTRAL_HADRON,
    valid=False,
)


def make_particle(
    pt: int,
    eta: int,
    phi: int,
    species: Species = Species.CHARGED_HADRON,
) -> Particle:
    """Convenience constructor for a valid particle."""
    return Particle(pt=pt, pos=AngularCoord(eta, phi), species=species, valid=True)


@dataclass(frozen=True)
class Event:
    """One framing window of the detector input: exactly ``n_input`` slots.

    Construct through :func:`make_event`, which pads short inputs with
    invalid particles, or from all ``n_input`` slots, padding included.
    """

    event_id: int
    particles: tuple[Particle, ...]


def make_event(
    event_id: int, particles: Iterable[Particle], *, n_input: int = N_INPUT
) -> Event:
    """Normalize a particle list to exactly ``n_input`` slots, padding the tail."""
    plist = list(particles)
    if len(plist) > n_input:
        raise ValueError(f"event {event_id} has {len(plist)} particles, limit is {n_input}")
    plist.extend([PAD_PARTICLE] * (n_input - len(plist)))
    return Event(event_id=event_id, particles=tuple(plist))


@dataclass
class OpCounter:
    """Instrumented datapath operation counts.

    Counts the algorithmic operations a hardware datapath would need:
    multiplications, divisions, and value comparisons that steer decisions.
    Saturation clamps and validity-bit reads are free and not counted.
    """

    multiplications: int = 0
    divisions: int = 0
    comparisons: int = 0


def wrap_phi(phi: int, phi_range: int = PHI_RANGE) -> int:
    """Wrap an azimuth value into the canonical interval [-half, half)."""
    half = phi_range // 2
    return (phi + half) % phi_range - half


def wrap_delta_phi(a: int, b: int, phi_range: int = PHI_RANGE) -> int:
    """Shortest signed azimuthal difference a - b on the periodic axis.

    Returns d with d == a - b (mod phi_range) and d in [-half, half).
    """
    return wrap_phi(a - b, phi_range)


def delta_r2(
    p: AngularCoord,
    q: AngularCoord,
    *,
    phi_range: int = PHI_RANGE,
    r2_max: int = R2_MAX,
    ops: OpCounter | None = None,
) -> int:
    """Squared angular distance deta^2 + dphi^2 with a wrapped phi difference.

    Costs exactly two multiplications per evaluation; the result saturates at
    ``r2_max`` instead of wrapping.
    """
    deta = p.eta - q.eta
    half = phi_range // 2
    dphi = (p.phi - q.phi + half) % phi_range - half  # wrap_delta_phi, inlined
    if ops is not None:
        ops.multiplications += 2
    r2 = deta * deta + dphi * dphi
    return r2 if r2 <= r2_max else r2_max


def saturating_pt_add(a: int, b: int, pt_max: int = PT_MAX) -> int:
    """Unsigned fixed-point addition that clamps at ``pt_max``, never wraps."""
    if a < 0 or b < 0:
        raise ValueError("pt values are unsigned")
    s = a + b
    return s if s <= pt_max else pt_max


def trunc_div(num: int, den: int) -> int:
    """Integer division truncating toward zero, as an integer divider would."""
    if den == 0:
        raise ZeroDivisionError("trunc_div by zero")
    q = abs(num) // abs(den)
    return -q if (num < 0) != (den < 0) else q
