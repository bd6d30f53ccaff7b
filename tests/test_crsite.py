import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fearover.automaton import FearBand
from fearover.crsite import (
    CsmAction,
    EmptyPool,
    PoolEntry,
    TIMING_PRESETS,
    TimingModel,
    csm_dispatch,
    execute_handover,
    required_mobility_time,
    select_whitespace,
    sense,
)


class TestRequiredMobilityTime:
    def test_worst_case(self):
        value = required_mobility_time(TimingModel(0.2, 0.527e-6, 5.0))
        assert value == pytest.approx(5.200000527, abs=1e-12)

    def test_average_case(self):
        value = required_mobility_time(TimingModel(0.1, 0.527e-6, 2.0))
        assert value == pytest.approx(2.100000527, abs=1e-12)

    def test_best_case(self):
        value = required_mobility_time(TimingModel(0.05, 0.527e-6, 1.0))
        assert value == pytest.approx(1.050000527, abs=1e-12)

    def test_presets_match(self):
        assert TIMING_PRESETS["worst"] == TimingModel(0.2, 0.527e-6, 5.0)
        assert TIMING_PRESETS["average"] == TimingModel(0.1, 0.527e-6, 2.0)
        assert TIMING_PRESETS["best"] == TimingModel(0.05, 0.527e-6, 1.0)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 10))
    def test_monotone_in_each_field(self, crst, megaot, hot):
        base = required_mobility_time(TimingModel(crst, megaot, hot))
        assert required_mobility_time(TimingModel(crst + 0.1, megaot, hot)) > base
        assert required_mobility_time(TimingModel(crst, megaot + 0.1, hot)) > base
        assert required_mobility_time(TimingModel(crst, megaot, hot + 0.1)) > base

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TimingModel(-0.1, 0, 1)


class TestCsmDispatch:
    def test_mapping(self):
        assert csm_dispatch(FearBand.B0) is CsmAction.KEEP_CURRENT
        assert csm_dispatch(FearBand.B1) is CsmAction.INITIATE_SENSING
        assert csm_dispatch(FearBand.B2) is CsmAction.INITIATE_OPTIMIZER
        assert csm_dispatch(FearBand.B3) is CsmAction.INITIATE_HANDOVER

    def test_total_over_bands(self):
        assert {csm_dispatch(band) for band in FearBand} == set(CsmAction)


class TestSense:
    def test_pool_at_start(self, survey_db):
        pool = sense(survey_db, 0.0)
        assert pool == {
            "SP1": PoolEntry(-100.0, -60.0),
            "SP2": PoolEntry(-90.0, -70.0),
            "SP3": PoolEntry(-80.0, -50.0),
        }

    def test_future_clamps_at_route_end(self, survey_db):
        pool = sense(survey_db, survey_db.route_length_m)
        for provider, entry in pool.items():
            assert entry.future_dbm == entry.current_dbm


class TestPoolEntry:
    @pytest.mark.parametrize("current, future", [(math.nan, -60.0), (-60.0, math.nan),
                                                 (math.inf, -60.0), (-60.0, -math.inf)])
    def test_non_finite_reading_rejected(self, current, future):
        with pytest.raises(ValueError, match="finite"):
            PoolEntry(current, future)


class TestSelectWhitespace:
    def test_switches_to_stronger_future(self):
        pool = {
            "Telenor": PoolEntry(-91, -70),
            "Zong": PoolEntry(-60, -50),
        }
        assert select_whitespace(pool, "Telenor") == "Zong"

    def test_stays_when_nothing_beats_in_use(self):
        pool = {
            "Ufone": PoolEntry(-45, -65),
            "Telenor": PoolEntry(-60, -70),
            "Zong": PoolEntry(-70, -75),
        }
        assert select_whitespace(pool, "Ufone") == "Ufone"

    def test_all_equal_keeps_in_use(self):
        pool = {p: PoolEntry(-70, -70) for p in ("A", "B", "C")}
        assert select_whitespace(pool, "B") == "B"

    def test_tie_between_others_picks_first_in_order(self):
        pool = {
            "A": PoolEntry(-50, -75),
            "B": PoolEntry(-50, -60),
            "C": PoolEntry(-50, -60),
        }
        assert select_whitespace(pool, "A") == "B"

    def test_empty_pool(self):
        with pytest.raises(EmptyPool):
            select_whitespace({}, "A")

    def test_in_use_missing(self):
        with pytest.raises(EmptyPool):
            select_whitespace({"A": PoolEntry(-50, -50)}, "B")

    @given(st.lists(st.integers(-120, -1), min_size=2, max_size=6))
    def test_choice_dominates_pool(self, futures):
        pool = {
            f"P{i}": PoolEntry(-60, float(f)) for i, f in enumerate(futures)}
        chosen = select_whitespace(pool, "P0")
        best = max(entry.future_dbm for entry in pool.values())
        if chosen == "P0":
            assert pool["P0"].future_dbm >= best
        else:
            assert pool[chosen].future_dbm == best
            assert best > pool["P0"].future_dbm


class TestExecuteHandover:
    def test_too_late_fails(self):
        attempt = execute_handover("A", "B", 1.25, TIMING_PRESETS["worst"])
        assert not attempt.success

    def test_in_time_succeeds(self):
        attempt = execute_handover("A", "B", 11.25, TIMING_PRESETS["worst"])
        assert attempt.success

    def test_best_case_succeeds(self):
        attempt = execute_handover("A", "B", 11.25, TIMING_PRESETS["best"])
        assert attempt.success
        assert attempt.required_s == pytest.approx(1.050000527, abs=1e-12)

    def test_boundary_is_strict(self):
        timing = TimingModel(1.0, 0.0, 1.0)
        assert not execute_handover("A", "B", 2.0, timing).success
        assert execute_handover("A", "B", 2.0 + 1e-9, timing).success

    @given(st.floats(0, 30), st.floats(0, 30))
    def test_success_monotone_in_time_left(self, t1, t2):
        timing = TIMING_PRESETS["average"]
        lo, hi = min(t1, t2), max(t1, t2)
        if execute_handover("A", "B", lo, timing).success:
            assert execute_handover("A", "B", hi, timing).success

    def test_verdict_matches_inequality(self):
        timing = TIMING_PRESETS["worst"]
        for time_left in (0.0, 1.25, 5.2, 5.200000527, 5.2000006, 11.25):
            attempt = execute_handover("A", "B", time_left, timing)
            assert attempt.success == (time_left > attempt.required_s)
