"""Nine-state handover automaton driven by fear bands.

States pair a provider slot (1..3) with an alert level (base, a, b); the
input alphabet is the fear band of the current tick and the output symbol
is one of S (stay in state), M (move one alert level), I (arm the
optimizer level) or C (request a handover).  Alert moves at most one level
per tick, so a handover request can only arise from an armed state.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum, IntEnum
from functools import cached_property

from ._records import record


class FearBand(IntEnum):
    B0 = 0
    B1 = 1
    B2 = 2
    B3 = 3


class Alert(IntEnum):
    BASE = 0
    A = 1
    B = 2

    @property
    def suffix(self) -> str:
        return ("", "a", "b")[self]


class MobilitySymbol(Enum):
    SELF = "S"
    MOVE = "M"
    OPTIMIZE = "I"
    HANDOVER = "C"

    def __str__(self) -> str:
        return self.value


@record(frozen=True)
class BandThresholds:
    """Fear-band boundaries.

    Bands partition [0, 1]: B0 = [0, low), B1 = [low, mid), B2 = [mid, high]
    and B3 = (high, 1].  The upper boundary of B2 is inclusive; all other
    internal boundaries belong to the band above.
    """

    th_low: float = 0.4
    th_mid: float = 0.6
    th_high: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 < self.th_low < self.th_mid < self.th_high < 1.0:
            raise ValueError("thresholds must satisfy 0 < low < mid < high < 1")


def classify(fear: float, thresholds: BandThresholds) -> FearBand:
    """Total band classification of a fear intensity."""
    if fear < thresholds.th_low:
        return FearBand.B0
    if fear < thresholds.th_mid:
        return FearBand.B1
    if fear <= thresholds.th_high:
        return FearBand.B2
    return FearBand.B3


@record(frozen=True)
class AutomatonState:
    slot: int
    alert: Alert = Alert.BASE

    def __post_init__(self) -> None:
        if self.slot not in (1, 2, 3):
            raise ValueError(f"slot must be 1..3, got {self.slot}")

    @cached_property
    def label(self) -> str:
        return f"{self.slot}{self.alert.suffix}"


# Slot-major: the state (slot, alert) is ALL_STATES[3 * (slot - 1) + alert].
# ``step`` and ``base_state`` return these objects, so a run builds no state
# and each label is formatted once.
ALL_STATES = tuple(
    AutomatonState(slot, alert) for slot in (1, 2, 3) for alert in Alert
)

# Per band, the alert level it drives toward (B3 escalates like B2 until armed).
_TARGET_ALERT = (Alert.BASE, Alert.A, Alert.B, Alert.B)


def step(state: AutomatonState, band: FearBand) -> tuple[AutomatonState, MobilitySymbol]:
    """One transition on the tick's fear band (``classify``).  Total over
    every (state, band) pair.

    The band names a target alert level (B0 -> base, B1 -> a, B2 -> b);
    alert converges toward it one level per tick.  B3 from the armed level
    requests a handover (C) and leaves the state unchanged pending the
    handover's execution; from lower levels it escalates like B2.
    """
    alert = state.alert
    target = _TARGET_ALERT[band]
    if target == alert:
        if band is FearBand.B3:
            return state, MobilitySymbol.HANDOVER
        return state, MobilitySymbol.SELF
    nxt = alert + 1 if target > alert else alert - 1
    symbol = MobilitySymbol.OPTIMIZE if nxt == Alert.B else MobilitySymbol.MOVE
    return ALL_STATES[3 * state.slot - 3 + nxt], symbol


def slot_holders(providers: Sequence[str]) -> tuple[str, ...]:
    """The providers holding automaton slots: the first three, in slot order.
    A holder's slot is its index plus one."""
    return tuple(providers[:3])


def adopt_slot(holders: tuple[str, ...], vacated: str,
               adopted: str) -> tuple[tuple[str, ...], int, bool]:
    """Slot holders after handing over ``vacated`` -> ``adopted``.

    Returns (holders, adopted provider's slot, whether a remap occurred):
    a holder keeps its slot; any other provider takes ``vacated``'s.
    """
    if adopted in holders:
        return holders, holders.index(adopted) + 1, False
    index = holders.index(vacated)
    return holders[:index] + (adopted,) + holders[index + 1:], index + 1, True


def base_state(slot: int) -> AutomatonState:
    """Base state of ``slot``: where a run starts and where a completed
    handover lands, in the adopted provider's slot."""
    if slot not in (1, 2, 3):
        raise ValueError(f"slot must be 1..3, got {slot}")
    return ALL_STATES[3 * slot - 3]
