"""CR-Site facade: timing model, CSM rule dispatch, sensing and handover.

Spectrum sensing is a database lookup (the survey is the world model) and
white-space optimisation is max-future-signal selection; both retain only
their latency constants from the real subsystems they stand in for.

The timing-outcome tables replay a fixed set of handovers through the timing
model alone (``replay_attempts``): ``replay-tables`` loads no route or run.
"""

from __future__ import annotations

import math
from enum import Enum

from ._records import record
from .automaton import FearBand


class EmptyPool(ValueError):
    """select_whitespace called with no sensed white spaces."""


@record(frozen=True)
class TimingModel:
    """Latency budget of one spectrum-mobility task, in seconds."""

    crst_s: float = 0.2        # spectrum sensing
    megaot_s: float = 0.527e-6  # white-space optimisation
    hot_s: float = 5.0         # connection setup

    def __post_init__(self) -> None:
        if not all(0.0 <= t < math.inf for t in (self.crst_s, self.megaot_s, self.hot_s)):
            raise ValueError("crst_s, megaot_s and hot_s must be non-negative and finite")


TIMING_PRESETS: dict[str, TimingModel] = {
    "worst": TimingModel(),
    "average": TimingModel(0.1, 0.527e-6, 2.0),
    "best": TimingModel(0.05, 0.527e-6, 1.0),
}


def required_mobility_time(timing: TimingModel) -> float:
    """Sensing + optimisation + connection setup as one budget."""
    return timing.crst_s + timing.megaot_s + timing.hot_s


class CsmAction(Enum):
    KEEP_CURRENT = "keep_current"
    INITIATE_SENSING = "initiate_sensing"
    INITIATE_OPTIMIZER = "initiate_optimizer"
    INITIATE_HANDOVER = "initiate_handover"


_DISPATCH = {
    FearBand.B0: CsmAction.KEEP_CURRENT,
    FearBand.B1: CsmAction.INITIATE_SENSING,
    FearBand.B2: CsmAction.INITIATE_OPTIMIZER,
    FearBand.B3: CsmAction.INITIATE_HANDOVER,
}


def csm_dispatch(band: FearBand) -> CsmAction:
    """The four fear-band control rules, total over bands."""
    return _DISPATCH[band]


@record(frozen=True)
class PoolEntry:
    current_dbm: float
    future_dbm: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.current_dbm) and math.isfinite(self.future_dbm)):
            raise ValueError(f"readings must be finite: {self}")


def sense(db, position_m: float) -> dict[str, PoolEntry]:
    """Sample every provider's current and next-point signal from the route
    database ``db``.  The pool is in its provider order, which breaks
    selection ties."""
    return {
        p: PoolEntry(db.current_signal(position_m, p), db.future_signal(position_m, p))
        for p in db.providers
    }


def select_whitespace(pool: dict[str, PoolEntry], in_use: str) -> str:
    """Provider with the best future signal; ties and no-improvement keep
    the in-use white space; among equal others the first in ``pool`` wins."""
    if not pool:
        raise EmptyPool("no white spaces sensed")
    if in_use not in pool:
        raise EmptyPool(f"in-use provider {in_use!r} missing from pool")
    best_future = max(entry.future_dbm for entry in pool.values())
    if pool[in_use].future_dbm >= best_future:
        return in_use
    return next(provider for provider, entry in pool.items() if entry.future_dbm == best_future)


@record(frozen=True)
class HandoverAttempt:
    """One spectrum-mobility attempt and its timing verdict."""

    from_provider: str
    to_provider: str
    required_s: float
    time_left_s: float
    success: bool


def execute_handover(from_provider: str, to_provider: str, time_left_s: float,
                     timing: TimingModel) -> HandoverAttempt:
    """Attempt a handover; it succeeds iff it finishes strictly before the
    vehicle reaches the bad-signal point.  Positional: ``record``'s fast path."""
    required = required_mobility_time(timing)
    return HandoverAttempt(from_provider, to_provider, required, time_left_s,
                           time_left_s > required)


def time_left(distance_m: float, speed_mps: float) -> float:
    """Seconds until the vehicle covers ``distance_m`` at constant speed."""
    if distance_m < 0.0:
        raise ValueError("distance_m must be non-negative")
    if speed_mps <= 0.0:
        raise ValueError("speed_mps must be positive")
    return distance_m / speed_mps


# -- table replays ------------------------------------------------------------

PATCH_M = 5.0  # metres in one distance patch of the tables
# The vehicle's speed in the timing experiment, and ``SimConfig``'s default.
DEFAULT_SPEED_MPS = 4.0
REPLAY_DISTANCES_PATCHES = (1, 9, 13, 3, 2, 5, 3, 2, 10, 4)


def replay_attempts(timing: TimingModel,
                    speed_mps: float = DEFAULT_SPEED_MPS) -> list[HandoverAttempt]:
    """The fixed set of handover attempts behind the timing-outcome tables."""
    return [
        execute_handover("in_use", "candidate", time_left(d * PATCH_M, speed_mps), timing)
        for d in REPLAY_DISTANCES_PATCHES
    ]
