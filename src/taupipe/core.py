"""Fixed-point primitives and particle records shared by every pipeline step.

All quantities are plain Python integers in hardware units: one unit is one
least-significant quantum of the corresponding datapath register.  Transverse
momentum is unsigned and saturates at ``PT_MAX``; pseudorapidity is signed and
bounded; azimuth is signed and periodic with period ``PHI_RANGE``.  Using
integer units everywhere keeps every computation bit-reproducible.

A particle is one flat input slot, ``Particle(pt, eta, phi, species, valid)``,
in the field order of an event-file record; a tau, ``Tau(pt, eta, phi)``,
is flat too.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

PT_MAX = 65535
PHI_RANGE = 2048
PHI_HALF = PHI_RANGE // 2
ETA_MAX = 4096
# The largest squared angular distance inside the ranges: the eta span and
# half the phi period.
MAX_DELTA_R2 = (2 * ETA_MAX) ** 2 + PHI_HALF**2

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
    # Members are singletons: hash by identity, not by Enum's Python-level hash.
    __hash__ = object.__hash__

    def __new__(cls, name: str, charged: bool) -> "Species":
        member = object.__new__(cls)
        member._value_ = name
        member.charged = charged
        return member


@dataclass(frozen=True)
class Particle:
    """One input slot: pt in 0..PT_MAX, |eta| <= ETA_MAX, phi in [-half, half).

    The ranges are checked here, whether a particle is parsed or built in
    code, so every step may rely on them.
    """

    pt: int
    eta: int
    phi: int
    species: Species = Species.CHARGED_HADRON
    valid: bool = True

    def __post_init__(self) -> None:
        if not 0 <= self.pt <= PT_MAX:
            raise ValueError(f"pt {self.pt} outside 0..{PT_MAX}")
        if not -ETA_MAX <= self.eta <= ETA_MAX:
            raise ValueError(f"|eta| {self.eta} exceeds {ETA_MAX}")
        if not -PHI_HALF <= self.phi < PHI_HALF:
            raise ValueError(f"phi {self.phi} outside [{-PHI_HALF}, {PHI_HALF})")
        if not self.valid and self.pt != 0:
            raise ValueError("invalid (padding) particles must carry pt = 0")


PAD_PARTICLE = Particle(0, 0, 0, Species.NEUTRAL_HADRON, valid=False)


@dataclass(frozen=True)
class Tau:
    """A saturated pt sum and a position; a tau with pt 0 is no tau."""

    pt: int
    eta: int
    phi: int

    @property
    def valid(self) -> bool:
        return self.pt > 0

    @property
    def pos(self) -> Tau:
        """The tau itself.  Its only reader is ``bench/run.py:201``
        (``t.pos.eta``); the next benchmark change deletes it with that read."""
        return self


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


# The price of one of each count a step records, as (multiplications,
# divisions, comparisons).  A distance costs 2 multiplications; lo and hi are
# the signal cone's clamps and T its pt sum.
OP_COSTS: dict[str, tuple[int, int, int]] = {
    "seeding_tests": (0, 0, 1),  # a valid charged particle
    "filter_tests": (2, 0, 1),  # a valid particle: a distance, d <= cone
    "merge_reads": (0, 0, 1),  # a source (A), or a source per index step (B)
    "signal_candidates": (0, 0, 1),  # a candidate: its species
    "signal_allowed": (2, 0, 1),  # an allowed candidate: a distance, d <= lo
    "signal_past_lo": (0, 0, 1),  # d > lo: d <= hi
    "signal_in_band": (1, 0, 1),  # lo < d <= hi: d * T <= k
    "averaged_candidates": (2, 0, 0),  # pt * eta, pt * phi
    "averaged_groups": (0, 2, 0),  # a group with a non-zero pt sum: two means
    "reconstructions": (0, 0, 1),  # pt >= min_tau_pt
    "cleaning_pairs": (2, 0, 1),  # a pair of valid taus: a distance, d <= proximity_r2
    "pair_orders": (0, 0, 1),  # a pair's pt order (B, the matrix)
}


def charge(ops: OpCounter | None, count: str, n: int = 1) -> None:
    """Add ``n`` of ``count``, priced by ``OP_COSTS``, to ``ops``, if any."""
    if ops is not None:
        mul, div, cmp = OP_COSTS[count]
        ops.multiplications += mul * n
        ops.divisions += div * n
        ops.comparisons += cmp * n


def wrap_phi(phi: int) -> int:
    """Wrap an azimuth value into the canonical interval [-half, half)."""
    return (phi + PHI_HALF) % PHI_RANGE - PHI_HALF


def delta_r2(p: Particle | Tau, q: Particle | Tau) -> int:
    """Squared angular distance deta^2 + dphi^2 with a wrapped phi difference.

    Each argument is a particle (a seed is one) or a tau: only ``.eta`` and
    ``.phi`` are read.  eta and phi share one least-significant quantum, so
    the sum is an isotropic squared distance.  Inside the ranges the largest
    value is ``MAX_DELTA_R2`` < 2^27, so a 27-bit register holds every
    distance and nothing saturates.
    """
    deta = p.eta - q.eta
    dphi = (p.phi - q.phi + PHI_HALF) % PHI_RANGE - PHI_HALF  # wrap_phi(p.phi - q.phi), inlined
    return deta * deta + dphi * dphi


def trunc_div(num: int, den: int) -> int:
    """Integer division truncating toward zero, as an integer divider would,
    for ``den > 0``: the stages divide only by a pt weight, which is positive."""
    q = abs(num) // den
    return -q if num < 0 else q
