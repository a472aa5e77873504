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
PHI_HALF = PHI_RANGE // 2
ETA_MAX = 4096

# The pipeline's framing: fixed array sizes of the design, as are the
# register widths above.  The input window is N_FILTER_BLOCKS blocks of
# BLOCK_SIZE slots; a seed's merged cone keeps at most MAX_CANDIDATES
# particles and cleaning emits at most MAX_TAUS taus.
N_INPUT = 128
N_SEEDS = 16
N_FILTER_BLOCKS = 4
BLOCK_SIZE = 32
MAX_CANDIDATES = 30
MAX_TAUS = 8


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
    """One framing window of the detector input: exactly ``N_INPUT`` slots.

    Construct through :func:`make_event`, which pads short inputs with
    invalid particles, or from all ``N_INPUT`` slots, padding included.
    """

    event_id: int
    particles: tuple[Particle, ...]


def make_event(event_id: int, particles: Iterable[Particle]) -> Event:
    """Normalize a particle list to exactly ``N_INPUT`` slots, padding the tail."""
    plist = list(particles)
    if len(plist) > N_INPUT:
        raise ValueError(f"event {event_id} has {len(plist)} particles, limit is {N_INPUT}")
    plist.extend([PAD_PARTICLE] * (N_INPUT - len(plist)))
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


def wrap_phi(phi: int) -> int:
    """Wrap an azimuth value into the canonical interval [-half, half)."""
    return (phi + PHI_HALF) % PHI_RANGE - PHI_HALF


def wrap_delta_phi(a: int, b: int) -> int:
    """Shortest signed azimuthal difference a - b on the periodic axis.

    Returns d with d == a - b (mod PHI_RANGE) and d in [-half, half).
    """
    return wrap_phi(a - b)


def delta_r2(p: AngularCoord, q: AngularCoord, *, ops: OpCounter | None = None) -> int:
    """Squared angular distance deta^2 + dphi^2 with a wrapped phi difference.

    Costs exactly two multiplications per evaluation.  Inside the ranges the
    largest value is (2 * ETA_MAX)^2 + PHI_HALF^2 = 68,157,440 < 2^27, so a
    27-bit register holds every distance and nothing saturates.
    """
    deta = p.eta - q.eta
    dphi = (p.phi - q.phi + PHI_HALF) % PHI_RANGE - PHI_HALF  # wrap_delta_phi, inlined
    if ops is not None:
        ops.multiplications += 2
    return deta * deta + dphi * dphi


def saturating_pt_add(a: int, b: int) -> int:
    """Unsigned fixed-point addition that clamps at ``PT_MAX``, never wraps."""
    if a < 0 or b < 0:
        raise ValueError("pt values are unsigned")
    s = a + b
    return s if s <= PT_MAX else PT_MAX


def trunc_div(num: int, den: int) -> int:
    """Integer division truncating toward zero, as an integer divider would."""
    if den == 0:
        raise ZeroDivisionError("trunc_div by zero")
    q = abs(num) // abs(den)
    return -q if (num < 0) != (den < 0) else q
