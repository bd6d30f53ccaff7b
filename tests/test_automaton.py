import pytest
from hypothesis import given
from hypothesis import strategies as st

from fearover.automaton import (
    ALL_STATES,
    Alert,
    AutomatonState,
    BandThresholds,
    FearBand,
    MobilitySymbol,
    adopt_slot,
    base_state,
    classify,
    slot_holders,
    step,
)

CFG = BandThresholds()

# Populated transition-table cells, identical across slots.  Intervals are
# (lo, hi, hi_inclusive); expected alert is None when the state is left
# unchanged pending handover execution.
TABLE_CELLS = [
    (Alert.BASE, (0.2, 0.3, False), Alert.BASE, MobilitySymbol.SELF),
    (Alert.BASE, (0.4, 0.6, False), Alert.A, MobilitySymbol.MOVE),
    (Alert.A, (0.4, 0.6, False), Alert.A, MobilitySymbol.SELF),
    (Alert.A, (0.2, 0.3, False), Alert.BASE, MobilitySymbol.MOVE),
    (Alert.A, (0.6, 0.8, True), Alert.B, MobilitySymbol.OPTIMIZE),
    (Alert.B, (0.6, 0.8, True), Alert.B, MobilitySymbol.SELF),
    (Alert.B, (0.4, 0.6, False), Alert.A, MobilitySymbol.MOVE),
    (Alert.B, (0.8, 1.0, True), Alert.B, MobilitySymbol.HANDOVER),
]

EPS = 1e-9


def _cell_samples(lo: float, hi: float, hi_inclusive: bool) -> list[float]:
    samples = [f for f in (0.25, 0.5, 0.7, 0.9) if lo < f < hi or (hi_inclusive and f == hi)]
    samples.append(lo + EPS)
    samples.append(hi if hi_inclusive else hi - EPS)
    if hi_inclusive:
        samples.append(hi - EPS)
    return samples


class TestClassify:
    def test_low_band(self):
        assert classify(0.25, CFG) is FearBand.B0

    def test_top_band(self):
        assert classify(0.85, CFG) is FearBand.B3

    def test_gap_widening(self):
        # the raw table leaves (0.3, 0.4) unassigned; it folds into B0
        assert classify(0.35, CFG) is FearBand.B0

    def test_boundaries(self):
        assert classify(0.4 - EPS, CFG) is FearBand.B0
        assert classify(0.4, CFG) is FearBand.B1
        assert classify(0.6 - EPS, CFG) is FearBand.B1
        assert classify(0.6, CFG) is FearBand.B2
        assert classify(0.8, CFG) is FearBand.B2
        assert classify(0.8 + EPS, CFG) is FearBand.B3
        assert classify(1.0, CFG) is FearBand.B3
        assert classify(0.0, CFG) is FearBand.B0

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_monotone(self, f1, f2):
        lo, hi = min(f1, f2), max(f1, f2)
        assert classify(lo, CFG) <= classify(hi, CFG)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            BandThresholds(0.6, 0.4, 0.8)
        with pytest.raises(ValueError):
            BandThresholds(0.4, 0.6, 1.0)


class TestStepExamples:
    def test_base_to_raised(self):
        assert step(AutomatonState(1), classify(0.5, CFG)) == (
            AutomatonState(1, Alert.A), MobilitySymbol.MOVE)

    def test_raised_to_armed(self):
        assert step(AutomatonState(1, Alert.A), classify(0.7, CFG)) == (
            AutomatonState(1, Alert.B), MobilitySymbol.OPTIMIZE)

    def test_armed_requests_handover(self):
        assert step(AutomatonState(1, Alert.B), classify(0.9, CFG)) == (
            AutomatonState(1, Alert.B), MobilitySymbol.HANDOVER)

    def test_armed_relaxes(self):
        assert step(AutomatonState(2, Alert.B), classify(0.5, CFG)) == (
            AutomatonState(2, Alert.A), MobilitySymbol.MOVE)

    def test_self_loop(self):
        assert step(AutomatonState(3), classify(0.25, CFG)) == (
            AutomatonState(3), MobilitySymbol.SELF)

    def test_top_band_escalates_one_level_from_base(self):
        nxt, symbol = step(AutomatonState(1), classify(0.9, CFG))
        assert nxt == AutomatonState(1, Alert.A)
        assert symbol is MobilitySymbol.MOVE


class TestTableConformance:
    @pytest.mark.parametrize("slot", [1, 2, 3])
    def test_every_populated_cell(self, slot):
        for alert, (lo, hi, inclusive), expected_alert, expected_symbol in TABLE_CELLS:
            state = AutomatonState(slot, alert)
            for fear in _cell_samples(lo, hi, inclusive):
                nxt, symbol = step(state, classify(fear, CFG))
                assert symbol is expected_symbol, (state.label, fear, symbol)
                assert nxt.slot == slot
                assert nxt.alert is expected_alert, (state.label, fear, nxt.label)


class TestStepProperties:
    @given(st.floats(0, 1), st.sampled_from(range(9)))
    def test_total_and_slot_preserving(self, fear, state_index):
        state = ALL_STATES[state_index]
        nxt, symbol = step(state, classify(fear, CFG))
        assert nxt.slot == state.slot
        assert isinstance(symbol, MobilitySymbol)

    @given(st.floats(0, 1), st.sampled_from(range(9)))
    def test_alert_moves_at_most_one_level(self, fear, state_index):
        state = ALL_STATES[state_index]
        nxt, _ = step(state, classify(fear, CFG))
        assert abs(int(nxt.alert) - int(state.alert)) <= 1

    def test_handover_only_from_armed(self):
        for state in ALL_STATES:
            for fear in (0.81, 0.9, 1.0):
                _, symbol = step(state, classify(fear, CFG))
                if symbol is MobilitySymbol.HANDOVER:
                    assert state.alert is Alert.B

    def test_nine_states(self):
        assert len(ALL_STATES) == 9
        assert len({s.label for s in ALL_STATES}) == 9

    def test_step_returns_the_interned_states(self):
        for state in ALL_STATES:
            for fear in (0.0, 0.3, 0.5, 0.7, 0.9, 1.0):
                nxt, _ = step(state, classify(fear, CFG))
                assert any(nxt is s for s in ALL_STATES), (state.label, fear)
        slots = slot_holders(["SP1", "SP2", "SP3"])
        assert base_state(slots.index("SP2") + 1) is ALL_STATES[3]
        assert base_state(3) is ALL_STATES[6]

    def test_labels(self):
        assert AutomatonState(1).label == "1"
        assert AutomatonState(2, Alert.A).label == "2a"
        assert AutomatonState(3, Alert.B).label == "3b"

    def test_invalid_slot(self):
        with pytest.raises(ValueError):
            AutomatonState(4)


class TestSlotHolders:
    def test_initial_assignment(self):
        slots = slot_holders(["SP1", "SP2", "SP3"])
        assert slots == ("SP1", "SP2", "SP3")
        assert base_state(slots.index("SP1") + 1) == AutomatonState(1)
        assert base_state(slots.index("SP3") + 1) == AutomatonState(3)

    def test_fourth_provider_holds_no_slot(self):
        slots = slot_holders(["Telenor", "Zong", "Ufone", "Mobilink"])
        assert slots == ("Telenor", "Zong", "Ufone")
        assert "Mobilink" not in slots

    def test_adopt_holder_keeps_holders(self):
        slots = slot_holders(["SP1", "SP2", "SP3"])
        same, slot, remapped = adopt_slot(slots, "SP1", "SP2")
        assert slot == 2 and not remapped and same is slots

    def test_adopt_non_holder_takes_vacated_slot(self):
        slots = slot_holders(["Telenor", "Zong", "Ufone", "Mobilink"])
        new, slot, remapped = adopt_slot(slots, "Zong", "Mobilink")
        assert slot == 2 and remapped
        assert new == ("Telenor", "Mobilink", "Ufone")
        # the original holders are untouched
        assert slots == ("Telenor", "Zong", "Ufone")


class TestCompleteHandover:
    """A completed handover lands in the base state of the adopted slot."""

    def test_to_other_slot(self):
        assert base_state(2) == AutomatonState(2)

    def test_to_third_slot(self):
        assert base_state(3) == AutomatonState(3)

    def test_stay_resets_alert_on_same_slot(self):
        assert base_state(1) == AutomatonState(1, Alert.BASE)
