import csv
import io
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fearover.sim
from fearover._records import replace
from fearover.automaton import BandThresholds, FearBand, MobilitySymbol, classify
from fearover.cli import load_scenario
from fearover.crsite import (
    PATCH_M,
    TIMING_PRESETS,
    CsmAction,
    HandoverAttempt,
    PoolEntry,
    TimingModel,
    csm_dispatch,
    replay_attempts,
    sense,
    time_left,
)
from fearover.fear import FearInputs, FearModel, FearParams
from fearover.route import RouteDb, load_builtin
from fearover.sim import (
    MAX_RUN_TICKS,
    RUNLOG_COLUMNS,
    QuietStretch,
    RouteExhausted,
    RunLog,
    SimConfig,
    Simulation,
    StayEpisode,
    TickEvent,
    check_all_invariants,
    check_invariant1,
    check_invariant2,
    check_invariant3,
    parse_runlog_csv,
    resolve_run,
    run,
    runlog_to_csv,
)

from oracles import (
    reference_great_circle_m,
    reference_rectified_subsystem,
    reference_run,
    reference_runlog_csv,
    route_csv,
)

REMAP_CSV = """\
label,lat,lon,W,X,Y,Z
Q0,33.0,73.7,-85,-70,-72,-60
Q1,33.000269796,73.7,-70,-65,-66,-40
Q2,33.000404694,73.7,-90,-60,-60,-50
Q3,33.000809388,73.7,-60,-60,-60,-60
"""


class TestTimeLeft:
    def test_one_patch(self):
        assert time_left(1 * PATCH_M, 4.0) == pytest.approx(1.25)

    def test_nine_patches(self):
        assert time_left(9 * PATCH_M, 4.0) == pytest.approx(11.25)

    def test_zero_distance(self):
        assert time_left(0.0, 4.0) == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            time_left(-1.0, 4.0)
        with pytest.raises(ValueError):
            time_left(1.0, 0.0)


class TestFirstTickOracle:
    def test_tick0_matches_hand_trace(self, survey_db, fear_model):
        event = Simulation(SimConfig(), survey_db, fear_model).tick()

        # independent trace: position advances first
        position = 0.0 + 4.0 * 0.5
        assert event.position_m == position

        # first SP1 reading at or below -80 strictly ahead is E (index 4)
        cumulative = 0.0
        rows = survey_db.points
        for prev, cur in zip(rows[:5], rows[1:5]):
            cumulative += reference_great_circle_m(
                prev.point.latitude, prev.point.longitude,
                cur.point.latitude, cur.point.longitude)
        distance = cumulative - position
        assert event.distance_to_bssp_m == pytest.approx(distance, abs=1e-6)
        assert event.threat_dbm == -80.0

        # fear: mean of the three rectified subsystem grades
        lik = reference_rectified_subsystem(-1, -1, distance / 75.0, 20.0 / 70.0)
        und = reference_rectified_subsystem(1, -1, 1.0, 20.0 / 70.0)
        ig = reference_rectified_subsystem(1, 1, 1.0, 1.0)
        fear = (lik + und + ig) / 3.0
        assert event.fear == pytest.approx(fear, abs=1e-6)

        assert event.band is FearBand.B2
        assert event.action is CsmAction.INITIATE_OPTIMIZER
        assert event.state == "1a"
        assert event.symbol is MobilitySymbol.MOVE
        assert event.provider == "SP1"
        assert event.signal_now_dbm == -100.0
        assert event.signal_future_dbm == -60.0
        assert event.attempt is None and event.stay is None and not event.loss


class TestRunMechanics:
    def test_one_tick_run(self, survey_db, fear_model):
        config = SimConfig(start_m=100.0, stop_m=100.5)
        log = run(config, survey_db, fear_model)
        assert len(log.events) == 1
        assert log.events[0].position_m == 100.5

    def test_route_exhausted(self, survey_db, fear_model):
        sim = Simulation(SimConfig(start_m=100.0, stop_m=101.0), survey_db, fear_model)
        sim.run()
        with pytest.raises(RouteExhausted):
            sim.tick()

    def test_invalid_window(self, survey_db, fear_model):
        with pytest.raises(ValueError):
            Simulation(SimConfig(start_m=50.0, stop_m=50.0), survey_db, fear_model)
        with pytest.raises(ValueError):
            Simulation(SimConfig(stop_m=1e9), survey_db, fear_model)

    def test_unknown_initial_provider(self, survey_db, fear_model):
        with pytest.raises(ValueError):
            Simulation(SimConfig(initial_provider="SP9"), survey_db, fear_model)

    def test_distance_shrinks_by_exactly_one_step(self, survey_db, fear_model):
        log = run(SimConfig(stop_m=120.0), survey_db, fear_model)
        step_m = 4.0 * 0.5
        checked = 0
        for prev, cur in zip(log.events, log.events[1:]):
            if (prev.distance_to_bssp_m is not None and cur.distance_to_bssp_m is not None
                    and prev.provider == cur.provider
                    and cur.distance_to_bssp_m < prev.distance_to_bssp_m):
                assert prev.distance_to_bssp_m - cur.distance_to_bssp_m == pytest.approx(
                    step_m, abs=1e-9)
                checked += 1
        assert checked > 10

    def test_tick_indices_contiguous(self, survey_db, fear_model):
        log = run(SimConfig(stop_m=150.0), survey_db, fear_model)
        assert [e.tick for e in log.events] == list(range(len(log.events)))

    def test_every_event_internally_consistent(self, survey_db, fear_model):
        log = run(SimConfig(stop_m=150.0), survey_db, fear_model)
        for e in log.events:
            assert e.band is classify(e.fear, BandThresholds())
            assert e.action is csm_dispatch(e.band)
            if e.attempt is not None or e.stay is not None:
                assert e.symbol is MobilitySymbol.HANDOVER
            assert 0.0 <= e.fear <= 1.0

    def test_far_from_any_threat(self, survey_db, fear_model):
        log = run(SimConfig(stop_m=2000.0), survey_db, fear_model)
        far = [e for e in log.events
               if e.distance_to_bssp_m is not None and e.distance_to_bssp_m > 500.0]
        assert far
        settled = far[5:]
        assert all(e.fear == 0.0 for e in settled)
        assert all(e.band is FearBand.B0 for e in settled)
        assert all(e.action is CsmAction.KEEP_CURRENT for e in settled)
        assert all(e.symbol is MobilitySymbol.SELF for e in settled[3:])

    def test_deterministic_logs_byte_identical(self, survey_db, fear_model):
        config = SimConfig(stop_m=300.0)
        first = runlog_to_csv(run(config, survey_db, fear_model))
        second = runlog_to_csv(run(config, survey_db, fear_model))
        assert first == second

    def test_seeded_start_is_deterministic(self, survey_db, fear_model):
        config = SimConfig(stop_m=500.0, start_seed=99)
        a = run(config, survey_db, fear_model)
        b = run(config, survey_db, fear_model)
        assert a.events[0].position_m == b.events[0].position_m
        assert a.events[0].position_m > 2.0

    def test_provider_changes_only_via_successful_attempt(self, survey_db, fear_model):
        log = run(SimConfig(), survey_db, fear_model)
        for prev, cur in zip(log.events, log.events[1:]):
            if prev.provider != cur.provider:
                assert prev.attempt is not None and prev.attempt.success
                assert prev.attempt.to_provider == cur.provider

    def test_no_prospect_means_no_fear_and_no_mobility(self, survey_db):
        log = run(SimConfig(prospect=False, stop_m=150.0), survey_db)
        assert all(e.fear == 0.0 for e in log.events)
        assert not log.attempts and not log.stays
        # crossing bad points without any mobility decision is a plain loss
        assert log.losses


class TestHorizonIsTheModels:
    """The tick appraises a threat only inside the fear model's own horizon,
    whatever ``SimConfig.fear`` says."""

    ROUTE = ("label,lat,lon,SP1\nA,33.0,73.5,-60\n"
             f"B,{33.0 + 300.0 / 111195.08023353292:.9f},73.5,-90\n")

    def test_wider_model_horizon_raises_fear_beyond_75_m(self):
        db = RouteDb.from_csv(self.ROUTE)
        model = FearModel(FearParams(distance_horizon_m=200.0))
        config = SimConfig()
        assert config.fear.distance_horizon_m == 75.0
        log = run(config, db, model)
        between = [e for e in log.events if e.distance_to_bssp_m is not None
                   and 75.0 <= e.distance_to_bssp_m < 200.0]
        assert len(between) > 50
        for e in between:
            assert e.fear > 0.0
            assert e.fear == model.intensity(FearInputs(e.distance_to_bssp_m, e.threat_dbm))
        assert all(e.fear == 0.0 for e in log.events
                   if e.distance_to_bssp_m is None or e.distance_to_bssp_m >= 200.0)


class TestTickEventRecord:
    def test_assignment_raises(self, survey_db, fear_model):
        event = Simulation(SimConfig(), survey_db, fear_model).tick()
        with pytest.raises(AttributeError):
            event.fear = 1.0
        with pytest.raises(TypeError):
            event[4] = 1.0

    def test_equal_only_to_tick_events(self, survey_db, fear_model):
        event = Simulation(SimConfig(), survey_db, fear_model).tick()
        plain = tuple(event)
        assert event == TickEvent(*plain) and hash(event) == hash(TickEvent(*plain))
        assert not event != TickEvent(*plain)
        assert event != plain and plain != event
        assert not event == plain and not plain == event
        assert event != event._replace(fear=event.fear + 0.5)


class TestTickBound:
    """Every run ends: a step the float position cannot take is refused when
    the simulation is built, and ``run`` never exceeds its tick bound."""

    def test_step_below_float_spacing_at_stop_rejected(self, survey_db, fear_model):
        config = SimConfig(start_m=8000.0, speed_mps=1e-13, tick_s=1e-3)
        # The position this vehicle would reach after one tick is where it started.
        assert 8000.0 + config.speed_mps * config.tick_s == 8000.0
        with pytest.raises(ValueError, match="never arrive"):
            Simulation(config, survey_db, fear_model)

    def test_smallest_accepted_step_moves(self, survey_db, fear_model):
        ulp = math.ulp(survey_db.route_length_m)
        sim = Simulation(SimConfig(start_m=8000.0, speed_mps=ulp, tick_s=1.0),
                         survey_db, fear_model)
        for _ in range(3):
            before = sim.position_m
            sim.tick()
            assert sim.position_m >= before + ulp / 2

    def test_run_raises_at_its_bound(self, survey_db, fear_model):
        sim = Simulation(SimConfig(stop_m=100.0), survey_db, fear_model)
        assert 50 <= sim.tick_bound <= 51
        sim.tick_bound = 10
        with pytest.raises(RuntimeError, match="bound of 10 ticks"):
            sim.run()
        assert len(sim.log.events) == 10 and not sim.position_m >= sim.stop_m

    def test_run_bound_past_the_cap_refused_before_its_first_tick(self, survey_db, fear_model):
        # 0.1 um a tick over the whole survey: a log of terabytes.
        sim = Simulation(SimConfig(speed_mps=1e-4, tick_s=1e-3), survey_db, fear_model)
        assert sim.tick_bound == 84_397_883_750
        expected = (f"step speed_mps * tick_s = {1e-4 * 1e-3!r} m over 0.0 .. "
                    f"{survey_db.route_length_m!r} m bounds the run at 84397883750 ticks, "
                    f"above the cap of {MAX_RUN_TICKS}")
        with pytest.raises(ValueError) as refused:
            sim.run()
        assert str(refused.value) == expected
        assert not sim.log.events

    def test_cap_admits_a_run_bound_to_it(self, survey_db, fear_model, monkeypatch):
        sim = Simulation(SimConfig(), survey_db, fear_model)
        monkeypatch.setattr(fearover.sim, "MAX_RUN_TICKS", sim.tick_bound - 1)
        with pytest.raises(ValueError, match="above the cap"):
            sim.run()
        monkeypatch.setattr(fearover.sim, "MAX_RUN_TICKS", sim.tick_bound)
        assert sim.run().events[-1].position_m == sim.stop_m

    @given(stop=st.floats(1.0, 8400.0), ticks=st.integers(1, 30),
           spacings=st.floats(0.25, 4.0),
           octaves=st.one_of(st.integers(0, 2), st.integers(0, 60)),
           tick_s=st.sampled_from([1e-3, 0.5, 1.0, 7.0]))
    @settings(max_examples=150, deadline=None)
    def test_any_config_is_refused_or_finishes_within_its_bound(
            self, survey_db, fear_model, stop, ticks, spacings, octaves, tick_s):
        # Steps from a quarter of the float spacing at stop upwards, with the
        # start about ``ticks`` steps before stop so that every run is short.
        step = spacings * math.ulp(stop) * 2.0 ** octaves
        try:
            config = SimConfig(tick_s=tick_s, speed_mps=step / tick_s,
                               start_m=max(stop - ticks * step, 0.0), stop_m=stop)
            sim = Simulation(config, survey_db, fear_model)
        except ValueError:
            return
        assert sim.tick_bound <= 2 * ticks + 2
        log = sim.run()
        assert sim.position_m >= sim.stop_m and len(log.events) <= sim.tick_bound
        assert log.events[-1].position_m == stop

    @given(stop=st.floats(5e-324, 8400.0), start_share=st.floats(0.0, 1.0, exclude_max=True),
           step=st.floats(5e-324, 1e300), tick_s=st.sampled_from([1e-3, 1.0, 7.0]))
    @settings(max_examples=300, deadline=None)
    def test_tick_bound_is_the_exact_ceiling(self, survey_db, fear_model, stop, start_share,
                                             step, tick_s):
        try:
            config = SimConfig(tick_s=tick_s, speed_mps=step / tick_s,
                               start_m=start_share * stop, stop_m=stop)
            sim = Simulation(config, survey_db, fear_model)
        except ValueError:
            return
        # ceil((stop - start) / (step - ulp(stop)/2)), every float taken as the rational it is.
        advance = Fraction(min(config.speed_mps * tick_s, stop)) - Fraction(math.ulp(stop)) / 2
        assert sim.tick_bound == math.ceil((Fraction(stop) - Fraction(config.start_m)) / advance)


class TestDefaultRunsSatisfyInvariants:
    @pytest.mark.parametrize("speed", [2.0, 4.0, 8.0])
    def test_all_checkers_pass(self, survey_db, fear_model, speed):
        log = run(SimConfig(speed_mps=speed), survey_db, fear_model)
        for report in (check_invariant1(log), check_invariant2(log), check_invariant3(log)):
            assert report.passed, report.violations[:3]


class TestSurveyStartToK:
    """Default run from A to K, episode structure traced by hand from the
    survey table:

    * on SP1 the first bad point ahead is E (-80); by the handover tick the
      pool's best future is SP3 at B (-50), beating SP1's -60 -> switch,
      41 m out gives over 10 s against a 5.2 s budget.
    * on SP3 the next bad point is G (-85); at the decision tick the best
      future (C) ties SP3's own -50, so the agent deliberately stays.
    * past G the next SP3 bad point is H (-100) only ~12.5 m ahead: the
      attempt (to SP1, best future -75 at H) cannot fit 5.2 s into 3.12 s
      and fails, and crossing H is logged as a communication loss.
    """

    def test_episode_structure(self, survey_db, fear_model):
        stop = survey_db.cumulative_m[10]  # K
        log = run(SimConfig(stop_m=stop), survey_db, fear_model)

        assert [(r.attempt.from_provider, r.attempt.to_provider, r.attempt.success)
                for r in log.attempts] == [("SP1", "SP3", True), ("SP3", "SP1", False)]
        assert log.attempts[1].attempt.time_left_s < log.attempts[1].attempt.required_s

        assert len(log.stays) == 1
        stay = log.stays[0]
        assert stay.stay.provider == "SP3"
        pool = log.pools[stay.tick]
        best_other = max(e.future_dbm for p, e in pool.items() if p != "SP3")
        assert best_other <= pool["SP3"].future_dbm

        (loss,) = log.losses
        assert loss.provider == "SP3"
        h = [p.label for p in survey_db.points].index("H")
        assert survey_db.cumulative_m[h] <= loss.position_m < survey_db.cumulative_m[h + 1]


class TestNarrativeTrace:
    def test_exact_episode_sequence(self, trace_db, fear_model):
        config = SimConfig(initial_provider="Telenor", stop_m=290.0)
        log = run(config, trace_db, fear_model)
        assert len(log.attempts) + len(log.stays) == 4

        first, second, third = log.attempts
        (fourth,) = log.stays
        assert isinstance(first.attempt, HandoverAttempt)
        assert (first.attempt.from_provider, first.attempt.to_provider) == ("Telenor", "Zong")
        assert first.attempt.success
        assert log.pools[first.tick]["Telenor"] == PoolEntry(-91.0, -70.0)
        assert log.pools[first.tick]["Zong"].future_dbm == -50.0

        assert isinstance(second.attempt, HandoverAttempt)
        assert (second.attempt.from_provider, second.attempt.to_provider) == ("Zong", "Telenor")
        assert second.attempt.success
        assert log.pools[second.tick]["Zong"].future_dbm == -70.0
        assert log.pools[second.tick]["Telenor"].future_dbm == -29.0

        # the bridge handover onto the white space of the final episode
        assert isinstance(third.attempt, HandoverAttempt)
        assert (third.attempt.from_provider, third.attempt.to_provider) == ("Telenor", "Ufone")
        assert third.attempt.success

        assert isinstance(fourth.stay, StayEpisode)
        assert fourth.tick > third.tick
        assert fourth.stay == StayEpisode("Ufone", -45.0, -65.0)

        assert not log.losses
        assert check_invariant2(log).passed

    def test_stay_logs_no_attempt(self, trace_db, fear_model):
        config = SimConfig(initial_provider="Telenor", stop_m=290.0)
        log = run(config, trace_db, fear_model)
        stay_ticks = {record.tick for record in log.stays}
        attempt_ticks = {record.tick for record in log.attempts}
        assert stay_ticks and not stay_ticks & attempt_ticks


class TestSlotRemap:
    def test_adopting_fourth_provider_flags_remap(self, fear_model):
        db = RouteDb.from_csv(REMAP_CSV)
        log = run(SimConfig(initial_provider="W", stop_m=85.0), db, fear_model)
        remap_events = [e for e in log.events if e.slot_remapped]
        assert len(remap_events) == 1
        event = remap_events[0]
        assert event.attempt.from_provider == "W"
        assert event.attempt.to_provider == "Z"
        after = [e for e in log.events if e.tick == event.tick + 1]
        assert after[0].provider == "Z"
        assert after[0].state.startswith("1")


def _event(tick, distance, fear, provider="SP1", attempt=None, stay=None):
    return TickEvent(
        tick=tick, position_m=float(tick), provider=provider, state="1",
        fear=fear, band=classify(fear, BandThresholds()),
        symbol=MobilitySymbol.SELF, action=csm_dispatch(classify(fear, BandThresholds())),
        distance_to_bssp_m=distance, threat_dbm=-90.0,
        signal_now_dbm=-60.0, signal_future_dbm=-70.0, attempt=attempt, stay=stay)


class TestSummaryTimeLines:
    """``summary_text`` prices each logged task with the run's timing."""

    TIMING = TimingModel(crst_s=0.25, megaot_s=0.5, hot_s=2.0)

    def test_each_task_is_priced_once(self):
        stay = StayEpisode("SP1", -60.0, -60.0)
        log = RunLog(events=[
            _event(0, 80.0, 0.0),   # B0: keep_current pays nothing
            _event(1, 70.0, 0.5),   # B1: sensing
            _event(2, 60.0, 0.7),   # B2: sensing and optimisation
            _event(3, 50.0, 0.9, stay=stay),  # decision: sensing and optimisation
            _event(4, 40.0, 0.9),   # B3 after the decision pays nothing
            _event(5, 30.0, 0.9, attempt=HandoverAttempt("SP1", "SP2", 2.75, 1.0, False)),
            _event(6, 20.0, 0.9, attempt=HandoverAttempt("SP1", "SP2", 2.75, 9.0, True)),
        ])
        assert log.summary_text(self.TIMING).splitlines()[-3:] == [
            "time spent on handover: 2.000000s",
            "time spent on optimization: 2.000000s",
            "time spent on sensing: 1.250000s",
        ]

    def test_a_task_never_paid_is_not_printed(self):
        log = RunLog(events=[_event(0, 80.0, 0.0), _event(1, 70.0, 0.5)])
        assert log.summary_text(self.TIMING).splitlines()[-1] == (
            "time spent on sensing: 0.250000s")
        assert "time spent" not in RunLog(events=[_event(0, 80.0, 0.0)]).summary_text(
            self.TIMING)


class TestInvariant1Checker:
    def test_detects_fear_dip_while_approaching(self):
        log = RunLog(events=[_event(0, 50.0, 0.5), _event(1, 48.0, 0.4)])
        report = check_invariant1(log)
        assert not report.passed
        assert "tick 1" in report.violations[0]

    def test_constant_distance_is_vacuous(self):
        log = RunLog(events=[_event(0, 50.0, 0.5), _event(1, 50.0, 0.1)])
        assert check_invariant1(log).passed

    def test_handover_breaks_the_segment(self):
        attempt = HandoverAttempt("SP1", "SP2", 5.2, 9.0, True)
        log = RunLog(events=[
            _event(0, 50.0, 0.9, attempt=attempt), _event(1, 48.0, 0.1)])
        assert check_invariant1(log).passed

    def test_empty_log_passes(self):
        assert check_invariant1(RunLog()).passed


class TestInvariant2Checker:
    POOL = {"A": PoolEntry(-60.0, -50.0), "B": PoolEntry(-70.0, -65.0)}

    def test_weaker_target_fails(self):
        attempt = HandoverAttempt("A", "B", 5.2, 9.0, True)
        log = RunLog(events=[_event(0, 50.0, 0.9, attempt=attempt)], pools={0: self.POOL})
        report = check_invariant2(log)
        assert not report.passed

    def test_failed_attempts_not_judged(self):
        attempt = HandoverAttempt("A", "B", 5.2, 1.0, False)
        log = RunLog(events=[_event(0, 50.0, 0.9, attempt=attempt)], pools={0: self.POOL})
        assert check_invariant2(log).passed

    def test_stay_with_better_option_fails(self):
        stay = StayEpisode("A", -45.0, -65.0)
        pool = {"A": PoolEntry(-45.0, -65.0), "B": PoolEntry(-50.0, -40.0)}
        log = RunLog(events=[_event(0, 50.0, 0.9, stay=stay)], pools={0: pool})
        assert not check_invariant2(log).passed

    @pytest.mark.parametrize("decision", [
        {"attempt": HandoverAttempt("A", "B", 5.2, 9.0, True)},
        {"attempt": HandoverAttempt("A", "B", 5.2, 1.0, False)},
        {"stay": StayEpisode("A", -60.0, -50.0)},
    ], ids=["success", "failure", "stay"])
    def test_decision_without_pool_is_a_violation(self, decision):
        log = RunLog(events=[_event(0, 50.0, 0.9), _event(1, 48.0, 0.9, **decision)],
                     pools={0: self.POOL})
        report = check_invariant2(log)
        assert report.violations == ("tick 1: decision without a recorded pool",)

    @pytest.mark.parametrize("decision, lacks", [
        ({"stay": StayEpisode("A", -60.0, -50.0)}, "A"),
        ({"attempt": HandoverAttempt("B", "A", 5.2, 9.0, True)}, "A"),
        ({"attempt": HandoverAttempt("A", "B", 5.2, 9.0, True)}, "A"),
    ], ids=["stay", "success-lacks-to", "success-lacks-from"])
    def test_pool_lacking_a_named_provider_is_a_violation(self, decision, lacks):
        log = RunLog(events=[_event(0, 50.0, 0.9, **decision)],
                     pools={0: {"B": PoolEntry(-50.0, -50.0)}})
        report = check_invariant2(log)
        assert report.violations == (f"tick 0: pool lacks {lacks}",)

    def test_no_handovers_vacuous(self):
        assert check_invariant2(RunLog()).passed


class TestInvariant3Checker:
    def _log(self, preset):
        attempts = replay_attempts(TIMING_PRESETS[preset])
        return RunLog(events=[_event(i, None, 0.0, attempt=a) for i, a in enumerate(attempts)])

    def test_worst_preset_counts(self):
        report = check_invariant3(self._log("worst"))
        assert report.passed
        assert report.stats == {"successes": 4, "failures": 6}

    def test_average_preset_counts(self):
        report = check_invariant3(self._log("average"))
        assert report.passed
        assert report.stats == {"successes": 9, "failures": 1}

    def test_best_preset_counts(self):
        report = check_invariant3(self._log("best"))
        assert report.passed
        assert report.stats == {"successes": 10, "failures": 0}

    def test_contradictory_flag_fails(self):
        bad = HandoverAttempt("A", "B", required_s=5.0, time_left_s=9.0, success=False)
        assert not check_invariant3(RunLog(events=[_event(0, None, 0.0, attempt=bad)])).passed


class TestRandomWorlds:
    """The invariants are structural: they must hold on any route."""

    M_PER_DEG_LAT = 111195.08023353292

    @staticmethod
    @st.composite
    def routes(draw):
        n_providers = draw(st.integers(2, 4))
        providers = [f"P{i}" for i in range(n_providers)]
        n_points = draw(st.integers(3, 9))
        spacings = draw(st.lists(st.integers(8, 60), min_size=n_points - 1,
                                 max_size=n_points - 1))
        positions = [0.0]
        for s in spacings:
            positions.append(positions[-1] + s)
        rows = ["label,lat,lon," + ",".join(providers)]
        for k, pos in enumerate(positions):
            lat = 33.0 + pos / TestRandomWorlds.M_PER_DEG_LAT
            dbms = [draw(st.integers(-110, -31)) for _ in providers]
            rows.append(f"R{k},{lat:.9f},73.5," + ",".join(str(d) for d in dbms))
        return RouteDb.from_csv("\n".join(rows) + "\n")

    @given(
        db=routes(),
        speed=st.sampled_from([2.0, 4.0, 8.0]),
        start_fraction=st.floats(0.0, 0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_world_satisfies_all_invariants(self, db, speed, start_fraction):
        config = SimConfig(speed_mps=speed, start_m=start_fraction * db.route_length_m)
        log = run(config, db)
        assert [e.tick for e in log.events] == list(range(len(log.events)))
        for report in (check_invariant1(log), check_invariant2(log), check_invariant3(log)):
            assert report.passed, report.violations[:3]
        for e in log.events:
            assert e.provider in db.providers
            assert 0.0 <= e.fear <= 1.0


def _row(e):
    """A tick event as the tuple ``oracles.reference_run`` gives."""
    a, s = e.attempt, e.stay
    return (e.tick, e.position_m, e.provider, e.state, e.fear, e.band.name, e.symbol.value,
            e.action.value, e.distance_to_bssp_m, e.threat_dbm, e.signal_now_dbm,
            e.signal_future_dbm,
            None if a is None else (a.from_provider, a.to_provider, a.required_s,
                                    a.time_left_s, a.success),
            None if s is None else (s.provider, s.current_dbm, s.future_dbm),
            e.loss, e.slot_remapped)


class TestDifferentialOracle:
    """``Simulation.run`` agrees event by event with the restated pipeline in
    ``oracles.reference_run`` on random routes.  Readings come from a small
    set so that future-signal ties occur; up to five providers exercise the
    slot remap; the fear model's horizon differs from ``SimConfig.fear``'s.
    Some worlds start a whole number of steps before a point: every step is
    dyadic, so a tick lands exactly on it.  Some steps outrun the shortest
    horizon."""

    READINGS = (-110, -95, -80, -70, -55, -40)
    LEVELS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

    @staticmethod
    @st.composite
    def worlds(draw):
        providers = [f"P{i}" for i in range(draw(st.integers(1, 5)))]
        n_points = draw(st.integers(2, 12))
        spacings = draw(st.lists(st.integers(5, 60), min_size=n_points - 1,
                                 max_size=n_points - 1))
        positions = [0.0]
        for s in spacings:
            positions.append(positions[-1] + s)
        rows = ["label,lat,lon," + ",".join(providers)]
        for k, pos in enumerate(positions):
            lat = 33.0 + pos / TestRandomWorlds.M_PER_DEG_LAT
            dbms = [draw(st.sampled_from(TestDifferentialOracle.READINGS)) for _ in providers]
            rows.append(f"R{k},{lat:.9f},73.5," + ",".join(str(d) for d in dbms))
        threshold = draw(st.sampled_from([-95.0, -80.0, -70.0]))
        db = RouteDb.from_csv("\n".join(rows) + "\n", bad_threshold_dbm=threshold)

        tick_s = draw(st.sampled_from([0.25, 0.5, 1.0]))
        speed_mps = draw(st.sampled_from([1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 128.0]))
        step = speed_mps * tick_s
        start = draw(st.floats(0.0, 0.45)) * db.route_length_m
        start_seed = draw(st.one_of(st.none(), st.integers(0, 10_000)))
        landings = [at for at in db.cumulative_m[1:] if at >= step]
        if landings and draw(st.booleans()):
            at = draw(st.sampled_from(landings))
            start = at - draw(st.integers(1, min(4, int(at // step)))) * step
            start_seed = None
        stop = draw(st.one_of(st.none(), st.floats(0.5, 1.0).map(
            lambda f: f * db.route_length_m)))
        if stop is not None and stop <= start:
            stop = None
        low, mid, high = sorted(draw(st.lists(st.sampled_from(TestDifferentialOracle.LEVELS),
                                              min_size=3, max_size=3, unique=True)))
        config = SimConfig(
            tick_s=tick_s, speed_mps=speed_mps, start_m=start, stop_m=stop,
            initial_provider=draw(st.sampled_from(providers[:3])),
            bands=BandThresholds(low, mid, high),
            timing=TIMING_PRESETS[draw(st.sampled_from(["worst", "average", "best"]))],
            comm_importance=draw(st.sampled_from([0.3, 1.0])),
            start_seed=start_seed,
        )
        model = FearModel(FearParams(
            fear_threshold=draw(st.sampled_from([0.0, 0.1])),
            distance_horizon_m=draw(st.sampled_from([40.0, 75.0, 150.0]))))
        return db, config, model

    @given(world=worlds())
    @settings(max_examples=120, deadline=None)
    def test_run_matches_reference_run(self, world):
        db, config, model = world

        def fear(distance_m, threat_dbm):
            return model.intensity(FearInputs(distance_m, threat_dbm, config.comm_importance))

        timing = config.timing
        expected = reference_run(
            db.providers,
            [(p.label, x, dict(p.signals)) for p, x in zip(db.points, db.cumulative_m)],
            db.bad_threshold_dbm, fear, tick_s=config.tick_s, speed_mps=config.speed_mps,
            start_m=config.start_m, stop_m=config.stop_m, start_seed=config.start_seed,
            initial_provider=config.initial_provider,
            thresholds=(config.bands.th_low, config.bands.th_mid, config.bands.th_high),
            timing=(timing.crst_s, timing.megaot_s, timing.hot_s))
        actual = [_row(e) for e in run(config, db, model).events]
        for got, want in zip(actual, expected):
            assert got == want
        assert len(actual) == len(expected)


class TestEpisodeAppraiser:
    """``tick`` grades each threat episode once and reads fear by distance;
    every event inside the horizon still holds, bit for bit, the fear that
    ``intensity`` gives for its own appraisal."""

    @staticmethod
    def _check_appraised_fear(config, db, model):
        appraised = 0
        for event in run(config, db, model).events:
            distance = event.distance_to_bssp_m
            if distance is not None and model.in_horizon(distance):
                appraised += 1
                expected = model.intensity(config.appraisal(distance, event.threat_dbm))
                assert repr(event.fear) == repr(expected), event.tick
        return appraised

    @pytest.mark.parametrize("name", ["four_provider_trace", "seeded_violation",
                                      "survey_default", "survey_halved_appraisal"])
    def test_bundled_scenarios(self, name):
        scenario = load_scenario(TestParsedRunLog.SCENARIOS / f"{name}.ini")
        assert self._check_appraised_fear(scenario.config, scenario.db, scenario.fear_model)

    @given(world=TestDifferentialOracle.worlds())
    @settings(max_examples=60, deadline=None)
    def test_any_world(self, world):
        db, config, model = world
        self._check_appraised_fear(config, db, model)


class TestRunLogBytes:
    """``runlog_to_csv`` writes the bytes ``csv.writer`` writes, and
    ``parse_runlog_csv`` reads them back into the same events."""

    @given(world=TestDifferentialOracle.worlds())
    @settings(max_examples=60, deadline=None)
    def test_export_matches_csv_writer_and_round_trips(self, world):
        db, config, model = world
        log = run(config, db, model)
        text = runlog_to_csv(log)
        assert text == reference_runlog_csv(log.events)
        assert parse_runlog_csv(text) == log.events

    def test_equal_readings_keep_their_own_spellings(self, fear_model):
        """0.0 == -0.0, but each spells differently: each row spells its
        readings from its own objects, also in a quiet stretch whose
        readings equal the stretch before's in value but not in spelling.
        (A route holds only floats; ``TestRunLogCsvQuietRows`` covers -90
        against -90.0.)"""
        readings = [0.0, -0.0, 0.0, -0.0, 0.0, -0.0, -90.0, -0.0, 0.0, -0.0, 0.0, -0.0,
                    -90.0, -0.0, 0.0, -0.0, 0.0]
        rows = [(f"Z{k}", 33.0 + 20.0 * k / TestRandomWorlds.M_PER_DEG_LAT, 73.5, dbm, -110.0)
                for k, dbm in enumerate(readings)]
        log = run(SimConfig(), RouteDb.from_csv(route_csv(["A", "B"], rows)), fear_model)

        def carried(entry):
            return entry.threat_dbm, entry.signal_now_dbm, entry.signal_future_dbm

        stretches = [e for e in log.entries if e.__class__ is QuietStretch]
        assert {"0.0", "-0.0", "-90.0"} <= {repr(v) for e in stretches for v in carried(e)}
        assert any(carried(a) == carried(b) and repr(carried(a)) != repr(carried(b))
                   and a.first + len(a.positions) == b.first
                   for a, b in zip(stretches, stretches[1:]))
        text = runlog_to_csv(log)
        assert text == reference_runlog_csv(log.events)
        assert parse_runlog_csv(text) == log.events
        lines = text.splitlines()[1:]
        assert len(lines) == len(log.events)
        columns = [RUNLOG_COLUMNS.index(name)
                   for name in ("threat_dbm", "signal_now_dbm", "signal_future_dbm")]
        for line, event in zip(lines, log.events):
            row = line.split(",")
            assert [row[k] for k in columns] == [
                "" if v is None else repr(v) for v in carried(event)], event.tick


class TestColumnReads:
    """A run, its export, its invariant checks and sensing read the route's
    columns: none of them builds a fresh ``from_csv`` database's ``points``."""

    @pytest.mark.parametrize("name", ["survey", "four_provider_trace"])
    def test_points_stay_unbuilt(self, name, fear_model):
        db = load_builtin(name)
        log = run(SimConfig(), db, fear_model)
        assert any(event.attempt or event.stay for event in log.events)  # so it sensed
        runlog_to_csv(log)
        check_all_invariants(log)
        sense(db, db.route_length_m / 2.0)
        assert "points" not in vars(db)
        rows = [(pt.label, pt.point.latitude, pt.point.longitude, *pt.signals.values())
                for pt in db.points]
        assert run(SimConfig(), db, fear_model).events == run(
            SimConfig(), RouteDb.from_csv(route_csv(db.providers, rows)), fear_model).events


class TestParsedRunLog:
    """A log rebuilt from its own ``runlog.csv`` holds the same decisions and
    the same Invariant1 and Invariant3 verdicts.  The CSV holds no pools, so
    Invariant2 fails once per decision rather than passing unchecked."""

    SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

    @staticmethod
    def _check_round_trip(log):
        rebuilt = RunLog(events=parse_runlog_csv(runlog_to_csv(log)))
        assert rebuilt.attempts == log.attempts
        assert rebuilt.stays == log.stays
        assert rebuilt.losses == log.losses
        assert check_invariant1(rebuilt) == check_invariant1(log)
        assert check_invariant3(rebuilt) == check_invariant3(log)
        decisions = sorted(e.tick for e in log.attempts + log.stays)
        report = check_invariant2(rebuilt)
        assert report.passed == (not decisions)
        assert report.violations == tuple(
            f"tick {tick}: decision without a recorded pool" for tick in decisions)
        assert report.stats == check_invariant2(log).stats

    @pytest.mark.parametrize("name", ["four_provider_trace", "seeded_violation",
                                      "survey_default"])
    def test_bundled_scenarios(self, name):
        scenario = load_scenario(self.SCENARIOS / f"{name}.ini")
        log = run(scenario.config, scenario.db, scenario.fear_model)
        assert log.attempts and log.stays
        self._check_round_trip(log)

    @given(world=TestDifferentialOracle.worlds())
    @settings(max_examples=60, deadline=None)
    def test_any_world(self, world):
        db, config, model = world
        self._check_round_trip(run(config, db, model))


def _quiet_stretch_db():
    """Three providers over 2 km: a long quiet stretch, then a bad point of
    A and C at 420 m and one of B at 1,500 m."""
    rows = [(0.0, -60, -60, -60), (400.0, -75, -50, -65), (420.0, -95, -50, -90),
            (900.0, -60, -60, -60), (1500.0, -60, -85, -60), (1520.0, -60, -60, -60),
            (2000.0, -60, -60, -60)]
    return RouteDb.from_csv(route_csv("ABC", [
        (f"S{k}", 33.0 + at / TestRandomWorlds.M_PER_DEG_LAT, 73.5, *dbms)
        for k, (at, *dbms) in enumerate(rows)]))


class TestCoasting:
    """``run`` appends quiet ticks without calling ``tick``; the log is the
    one a plain ``tick`` loop gives, event for event and byte for byte."""

    SCENARIOS = TestParsedRunLog.SCENARIOS

    class CountingSimulation(Simulation):
        ticks = 0

        def tick(self):
            self.ticks += 1
            return super().tick()

    @staticmethod
    def _check_run_matches_tick_loop(config, db, model):
        ticked = Simulation(config, db, model)
        while ticked.position_m < ticked.stop_m:
            ticked.tick()
        sim = TestCoasting.CountingSimulation(config, db, model)
        log = sim.run()
        assert log == ticked.log
        assert runlog_to_csv(log) == runlog_to_csv(ticked.log)
        return sim, log

    @pytest.mark.parametrize("name", ["four_provider_trace", "seeded_violation",
                                      "survey_default", "survey_halved_appraisal"])
    def test_bundled_scenarios(self, name):
        scenario = load_scenario(self.SCENARIOS / f"{name}.ini")
        sim, log = self._check_run_matches_tick_loop(
            scenario.config, scenario.db, scenario.fear_model)
        assert sim.ticks < len(log.events)

    def test_long_quiet_stretch(self, fear_model):
        sim, log = self._check_run_matches_tick_loop(
            SimConfig(initial_provider="A"), _quiet_stretch_db(), fear_model)
        assert log.attempts
        assert sim.ticks < len(log.events) // 4

    @pytest.mark.parametrize("k", [2, 3])
    def test_tick_landing_on_a_survey_point_reads_it(self, fear_model, k):
        """A tick that lands exactly on a survey point reads it, and one that
        lands on the targeted bad point closes its episode there.  A's only
        bad point is point 2 (420 m); with no prospect nothing is decided, so
        crossing it is a loss, and past it every tick on A is quiet but the
        ones that reach a point.  The start lies 20 whole 2 m steps before
        point ``k``, so the 20th tick lands exactly on it."""
        db = _quiet_stretch_db()
        at = db.cumulative_m[k]
        _, log = self._check_run_matches_tick_loop(
            SimConfig(initial_provider="A", prospect=False, start_m=at - 40.0), db, fear_model)
        before, landed = log.events[18:20]
        assert landed.position_m == at
        assert before.signal_future_dbm == landed.signal_now_dbm == db.points[k].signals["A"]
        assert [e.tick for e in log.losses] == ([19] if k == 2 else [])

    @given(world=TestDifferentialOracle.worlds())
    @settings(max_examples=60, deadline=None)
    def test_any_world(self, world):
        db, config, model = world
        self._check_run_matches_tick_loop(config, db, model)

    @staticmethod
    def _ordinary_points_db(n):
        """Providers A and B over 2 km: ``n`` ordinary points of varying
        readings up to 900 m, then the same tail on every route: A's one
        bad point at 1,500 m, a point at 1,520 m and the end at 2 km."""
        stretch = [(900.0 * k / n, -50 - 5 * (k % 4), -60 - 5 * (k % 3)) for k in range(n + 1)]
        rows = stretch + [(1500.0, -95, -60), (1520.0, -60, -55), (2000.0, -60, -60)]
        return RouteDb.from_csv(route_csv("AB", [
            (f"O{k}", 33.0 + at / TestRandomWorlds.M_PER_DEG_LAT, 73.5, a, b)
            for k, (at, a, b) in enumerate(rows)]))

    def test_crossing_an_ordinary_point_stays_in_the_coast(self, fear_model):
        """A quiet tick that reaches a survey point other than the target
        only reads it, so 20 such points cost ``tick`` no more than 2."""
        runs = [self._check_run_matches_tick_loop(
            SimConfig(initial_provider="A"), self._ordinary_points_db(n), fear_model)
            for n in (20, 2)]
        (many, many_log), (few, few_log) = runs
        assert many.ticks == few.ticks < len(many_log.events) // 4
        assert len({e.signal_now_dbm for e in many_log.events if e.position_m < 900.0}) > 2
        assert many_log.attempts and len(many_log.attempts) == len(few_log.attempts)

    def test_step_past_the_horizon_stops_at_the_target(self, fear_model):
        """A 100 m step jumps from 90 m short of B's bad point (outside the
        75 m horizon) to 10 m past it: the coast stops there, and ``tick``
        closes the undecided episode with a loss."""
        db = _quiet_stretch_db()
        at = db.cumulative_m[4]
        _, log = self._check_run_matches_tick_loop(
            SimConfig(tick_s=1.0, speed_mps=100.0, start_m=at - 490.0, initial_provider="B"),
            db, fear_model)
        assert [e.position_m > at for e in log.losses] == [True]
        assert all(e.fear == 0.0 for e in log.events)

    def test_run_raises_at_its_bound_inside_a_coast(self, fear_model):
        """On a route with no bad point the first tick is the only one
        ``tick`` runs; the bound of 10 falls inside the coast after it."""
        db = RouteDb.from_csv(route_csv("A", [
            (f"E{k}", 33.0 + at / TestRandomWorlds.M_PER_DEG_LAT, 73.5, -60.0)
            for k, at in enumerate((0.0, 1000.0))]))
        sim = self.CountingSimulation(SimConfig(), db, fear_model)
        sim.tick_bound = 10
        with pytest.raises(RuntimeError, match="bound of 10 ticks"):
            sim.run()
        assert len(sim.log.events) == 10 and sim.ticks == 1
        assert sim.position_m == sim.log.events[-1].position_m < sim.stop_m


class TestRunLogCsv:
    def test_round_trip_lossless(self, trace_db, fear_model):
        config = SimConfig(initial_provider="Telenor", stop_m=290.0)
        log = run(config, trace_db, fear_model)
        text = runlog_to_csv(log)
        assert parse_runlog_csv(text) == log.events

    def test_header_checked(self):
        with pytest.raises(ValueError):
            parse_runlog_csv("nope,nope\n1,2\n")

    @pytest.fixture(scope="class")
    def log_rows(self, trace_db, fear_model):
        config = SimConfig(initial_provider="Telenor", stop_m=290.0)
        return list(csv.reader(io.StringIO(runlog_to_csv(run(config, trace_db, fear_model)))))

    @staticmethod
    def _parse_tampered(rows, edit, attempt=False):
        """Parse ``rows`` after ``edit`` changed the first data row (the first one
        with an attempt, if ``attempt``); returns that row's line number."""
        column = RUNLOG_COLUMNS.index("ho_from")
        k = next(k for k, row in enumerate(rows) if k and (bool(row[column]) or not attempt))
        rows = [list(row) for row in rows]
        edit(rows[k])
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        parse_runlog_csv(out.getvalue())
        return k + 1

    def test_extra_field_rejected(self, log_rows):
        with pytest.raises(ValueError, match=r"line 2: expected 22 fields, got 23"):
            self._parse_tampered(log_rows, lambda row: row.append("x"))

    def test_missing_field_rejected(self, log_rows):
        with pytest.raises(ValueError, match=r"line 2: expected 22 fields, got 21"):
            self._parse_tampered(log_rows, lambda row: row.pop())

    def test_unknown_band_rejected(self, log_rows):
        band = RUNLOG_COLUMNS.index("band")
        with pytest.raises(ValueError, match=r"line 2: malformed row: 'B9'"):
            self._parse_tampered(log_rows, lambda row: row.__setitem__(band, "B9"))

    @pytest.mark.parametrize("column", ["loss", "slot_remapped"])
    @pytest.mark.parametrize("value", ["True", "False", ""])
    def test_boolean_spelling_rejected(self, log_rows, column, value):
        index = RUNLOG_COLUMNS.index(column)
        with pytest.raises(ValueError, match=r"line 2: malformed row"):
            self._parse_tampered(log_rows, lambda row: row.__setitem__(index, value))

    @pytest.mark.parametrize("value", ["True", "False", ""])
    def test_attempt_success_spelling_rejected(self, log_rows, value):
        index = RUNLOG_COLUMNS.index("ho_success")
        with pytest.raises(ValueError, match=r"line \d+: malformed row"):
            self._parse_tampered(log_rows, lambda row: row.__setitem__(index, value),
                                 attempt=True)

    def test_attempt_success_without_attempt_rejected(self, log_rows):
        index = RUNLOG_COLUMNS.index("ho_success")
        with pytest.raises(ValueError, match=r"line 2: malformed row: ho_success without"):
            self._parse_tampered(log_rows, lambda row: row.__setitem__(index, "false"))

    @pytest.mark.parametrize("label", ["zz", "4", "1A", "1c", ""])
    def test_unknown_state_rejected(self, log_rows, label):
        state = RUNLOG_COLUMNS.index("state")
        with pytest.raises(ValueError, match=r"line 2: malformed row: unknown state"):
            self._parse_tampered(log_rows, lambda row: row.__setitem__(state, label))

    def test_empty_provider_rejected(self, log_rows):
        provider = RUNLOG_COLUMNS.index("provider")
        with pytest.raises(ValueError, match=r"line 2: malformed row: empty provider"):
            self._parse_tampered(log_rows, lambda row: row.__setitem__(provider, ""))

    @pytest.mark.parametrize("column", ["position_m", "fear"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_number_rejected(self, log_rows, column, value):
        index = RUNLOG_COLUMNS.index(column)
        with pytest.raises(ValueError, match=rf"line 2: malformed row: non-finite {column}"):
            self._parse_tampered(log_rows, lambda row: row.__setitem__(index, value))

    def test_non_finite_attempt_time_rejected(self, log_rows):
        index = RUNLOG_COLUMNS.index("ho_time_left_s")
        with pytest.raises(ValueError, match=r"line \d+: malformed row: non-finite ho_time_left_s"):
            self._parse_tampered(log_rows, lambda row: row.__setitem__(index, "inf"),
                                 attempt=True)

    @pytest.fixture(scope="class")
    def log_text(self, trace_db, fear_model):
        return runlog_to_csv(run(SimConfig(initial_provider="Telenor", stop_m=290.0),
                                 trace_db, fear_model))

    def test_quoted_field_rejected(self, log_text):
        """The export quotes no field, so a quote anywhere is not its row,
        even where a CSV reader would unquote it to the same value."""
        lines = log_text.split("\n")
        lines[3] = lines[3].replace(",Telenor,", ',"Telenor",', 1)
        with pytest.raises(ValueError, match=r"line 4: malformed row: a quote"):
            parse_runlog_csv("\n".join(lines))

    def test_carriage_return_rejected(self, log_text):
        head, rest = log_text.split("\n", 1)
        with pytest.raises(ValueError, match=r"line 2: malformed row: a carriage return"):
            parse_runlog_csv(head + "\n" + rest.replace("\n", "\r\n"))

    @pytest.mark.parametrize("tick", ["7", "-1", "1_0", "01", "+1", " 1", ""])
    def test_tick_other_than_row_index_rejected(self, log_text, tick):
        lines = log_text.split("\n")
        lines[2] = tick + lines[2][lines[2].index(","):]
        with pytest.raises(ValueError, match=r"line 3: malformed row: tick .*, expected 1"):
            parse_runlog_csv("\n".join(lines))

    def test_untampered_rows_parse(self, log_rows):
        assert self._parse_tampered(log_rows, lambda row: None, attempt=True) > 2

    def test_summary_mentions_episodes(self, trace_db, fear_model):
        config = SimConfig(initial_provider="Telenor", stop_m=290.0)
        log = run(config, trace_db, fear_model)
        text = log.summary_text(config.timing)
        assert "handover attempts: 3" in text
        assert "stay episodes: 1" in text


class TestRunLogCsvQuietRows:
    """A row inside a quiet run repeats the row before it but for tick,
    position and distance; the export spells that text once per quiet
    stretch and the parse reuses its fields.  A row tampered there is
    rejected as the first data row is, naming its own line, and rows after
    an attempt, a stay, a loss or a remap are their own rows, not copies of
    the one before."""

    DISTANCE = RUNLOG_COLUMNS.index("distance_to_bssp_m")

    @pytest.fixture(scope="class")
    def quiet_lines(self, fear_model):
        log = run(SimConfig(initial_provider="A"), _quiet_stretch_db(), fear_model)
        return runlog_to_csv(log).split("\n")

    @classmethod
    def _tamper(cls, lines, with_distance, edit):
        """Parse ``lines`` after ``edit`` changed the middle one of the rows
        that have a distance (or none) and repeat, but for tick, position and
        distance, the two rows before and the row after; returns the tampered
        row's line number."""
        def repeated(k):
            row = lines[k].split(",")
            return row[2:cls.DISTANCE] + row[cls.DISTANCE + 1:]

        quiet = [k for k in range(3, len(lines) - 2)
                 if repeated(k - 2) == repeated(k - 1) == repeated(k) == repeated(k + 1)
                 and bool(lines[k].split(",")[cls.DISTANCE]) == with_distance]
        k = quiet[len(quiet) // 2]
        row = lines[k].split(",")
        edit(row)
        parse_runlog_csv("\n".join(lines[:k] + [",".join(row)] + lines[k + 1:]))
        return k + 1

    @pytest.mark.parametrize("with_distance", [True, False])
    def test_untampered_quiet_rows_parse(self, quiet_lines, with_distance):
        assert self._tamper(quiet_lines, with_distance, lambda row: None) > 100

    @pytest.mark.parametrize("with_distance", [True, False])
    def test_wrong_tick_rejected(self, quiet_lines, with_distance):
        line = self._tamper(quiet_lines, with_distance, lambda row: None)
        with pytest.raises(ValueError, match=rf"^line {line}: malformed row: "
                                             rf"tick '{line - 1}', expected {line - 2}$"):
            self._tamper(quiet_lines, with_distance,
                         lambda row: row.__setitem__(0, str(line - 1)))

    @pytest.mark.parametrize("value, message", [
        ("nan", "non-finite position_m 'nan'"),
        ("inf", "non-finite position_m 'inf'"),
        ("x", "could not convert string to float: 'x'"),
    ])
    def test_bad_position_rejected(self, quiet_lines, value, message):
        line = self._tamper(quiet_lines, True, lambda row: None)
        with pytest.raises(ValueError, match=rf"^line {line}: malformed row: {message}$"):
            self._tamper(quiet_lines, True, lambda row: row.__setitem__(1, value))

    def test_non_finite_distance_rejected(self, quiet_lines):
        line = self._tamper(quiet_lines, True, lambda row: None)
        with pytest.raises(ValueError, match=rf"^line {line}: malformed row: "
                                             r"non-finite distance_to_bssp_m 'nan'$"):
            self._tamper(quiet_lines, True,
                         lambda row: row.__setitem__(self.DISTANCE, "nan"))

    def test_dropped_empty_distance_rejected(self, quiet_lines):
        """Without its empty distance the row reads as the middle text of
        the row before, then its tail, sharing the comma between them."""
        line = self._tamper(quiet_lines, False, lambda row: None)
        with pytest.raises(ValueError, match=rf"^line {line}: expected 22 fields, got 21$"):
            self._tamper(quiet_lines, False, lambda row: row.pop(self.DISTANCE))

    @pytest.mark.parametrize("with_distance", [True, False])
    @pytest.mark.parametrize("at", [DISTANCE, DISTANCE + 1, len(RUNLOG_COLUMNS)])
    def test_extra_field_rejected(self, quiet_lines, with_distance, at):
        line = self._tamper(quiet_lines, with_distance, lambda row: None)
        with pytest.raises(ValueError, match=rf"^line {line}: expected 22 fields, got 23$"):
            self._tamper(quiet_lines, with_distance, lambda row: row.insert(at, "1.5"))

    def test_equal_readings_in_a_quiet_run_keep_their_own_spellings(self, fear_model):
        """Each survey point's readings equal the last point's in value but
        not in spelling, and no point is bad, so the run stays quiet: a row
        after a crossing equals the row before in every field but tick,
        position and distance, by value, yet not in its text."""
        readings = [0.0, -0.0, 0.0, -0.0]
        rows = [(f"Z{k}", 33.0 + 20.0 * k / TestRandomWorlds.M_PER_DEG_LAT, 73.5, dbm, -110.0)
                for k, dbm in enumerate(readings)]
        log = run(SimConfig(), RouteDb.from_csv(route_csv(["A", "B"], rows)), fear_model)
        assert not log.attempts and not log.stays and not log.losses
        text = runlog_to_csv(log)
        assert text == reference_runlog_csv(log.events)
        assert parse_runlog_csv(text) == log.events
        now = RUNLOG_COLUMNS.index("signal_now_dbm")
        assert {line.split(",")[now] for line in text.splitlines()[1:]} == {"0.0", "-0.0"}

    def test_equal_int_and_float_readings_keep_their_own_spellings(self):
        """-90 == -90.0 and -60 == -60.0, but each spells differently.  A
        route holds only floats, so the log is built by hand: quiet rows in
        runs of two, each run's readings equal the last run's in value but
        not in type, and each row is spelled from its own objects."""
        readings = [(-90, -60), (-90.0, -60.0), (-90, -60.0), (-90.0, -60), (-90, -60)]
        events = [TickEvent(k, 2.0 * k, "A", "1", 0.0, FearBand.B0, MobilitySymbol.SELF,
                            CsmAction.KEEP_CURRENT, 100.0 - 2.0 * k, threat, threat, future)
                  for k, (threat, future) in enumerate(
                      pair for pair in readings for _ in range(2))]
        text = runlog_to_csv(RunLog(events=events))
        assert text == reference_runlog_csv(events)
        assert parse_runlog_csv(text) == events
        rows = [line.split(",") for line in text.splitlines()[1:]]
        for column, spelled in [("threat_dbm", 0), ("signal_now_dbm", 0),
                                ("signal_future_dbm", 1)]:
            index = RUNLOG_COLUMNS.index(column)
            assert [row[index] for row in rows] == [
                repr(pair[spelled]) for pair in readings for _ in range(2)]

    def test_quiet_rows_after_an_attempt_a_stay_a_loss_and_a_remap_round_trip(self):
        """Each quiet row holds the very objects of the marked row before it,
        but none of its marks."""
        fear, threat, now, future = 0.0, -95.0, -60.0, -75.0
        marks = [{}, {"attempt": HandoverAttempt("A", "B", 0.5, 2.0, True)}, {}, {},
                 {"stay": StayEpisode("A", -60.0, -75.0)}, {}, {}, {"loss": True}, {}, {},
                 {"slot_remapped": True}, {}, {}]
        events = [TickEvent(k, 2.0 * k, "A", "1", fear, FearBand.B0, MobilitySymbol.SELF,
                            CsmAction.KEEP_CURRENT, 400.0 - 2.0 * k if k % 3 else None,
                            threat, now, future, **mark)
                  for k, mark in enumerate(marks)]
        text = runlog_to_csv(RunLog(events=events))
        assert text == reference_runlog_csv(events)
        assert parse_runlog_csv(text) == events


class TestQuietStretches:
    """``run`` logs each run of quiet ticks as one ``QuietStretch``; the
    export, the invariant checks and the summary read the entries, and
    ``log.events`` is built from them only when read."""

    def test_consumers_leave_the_events_unbuilt(self, survey_db, fear_model):
        log = run(SimConfig(), survey_db, fear_model)
        assert any(e.__class__ is QuietStretch for e in log.entries)
        runlog_to_csv(log)
        check_all_invariants(log)
        log.summary_text(SimConfig().timing)
        assert log.attempts and log.stays and log.ticks == 4220
        assert log._events == [] and log._built == 0
        events = log.events
        assert log.events is events and all(a is b for a, b in zip(log.events, events))
        assert len(events) == 4220 and [e.tick for e in events] == list(range(4220))

    def test_a_read_mid_run_sees_every_tick_so_far(self, survey_db, fear_model):
        """Each read extends the list an earlier read gave, keeping its
        events, and the run ends with the events it would have had unread."""
        reads = []

        class ReadingSimulation(Simulation):
            def tick(self):
                events = self.log.events
                assert len(events) == self._ticks
                reads.append((events, events[-1] if events else None))
                return super().tick()

        log = ReadingSimulation(SimConfig(stop_m=600.0), survey_db, fear_model).run()
        assert len(reads) > 2 and all(events is log.events for events, _ in reads)
        assert all(last is None or log.events[last.tick] is last for _, last in reads)
        assert log.events == run(SimConfig(stop_m=600.0), survey_db, fear_model).events

    @staticmethod
    def _check_reads_match_events(log, timing):
        plain = RunLog(events=list(log.events), pools=log.pools)
        assert all(e.__class__ is TickEvent for e in plain.entries)
        assert check_all_invariants(log) == check_all_invariants(plain)
        assert log.summary_text(timing) == plain.summary_text(timing)
        assert runlog_to_csv(log) == runlog_to_csv(plain)
        assert log.ticks == plain.ticks == len(log.events)
        assert (log.attempts, log.stays, log.losses) == (plain.attempts, plain.stays, plain.losses)

    @pytest.mark.parametrize("name", ["four_provider_trace", "seeded_violation",
                                      "survey_default", "survey_halved_appraisal"])
    def test_bundled_scenarios_read_as_their_events(self, name):
        scenario = load_scenario(TestParsedRunLog.SCENARIOS / f"{name}.ini")
        log = run(scenario.config, scenario.db, scenario.fear_model)
        self._check_reads_match_events(log, scenario.config.timing)

    @given(world=TestDifferentialOracle.worlds())
    @settings(max_examples=60, deadline=None)
    def test_any_world_reads_as_its_events(self, world):
        db, config, model = world
        self._check_reads_match_events(run(config, db, model), config.timing)

    def test_distances_that_do_not_shrink_make_no_pair(self, fear_model):
        """Steps of one float spacing at 1 m, 1,999 m short of a bad point,
        leave most distances equal to the one before: Invariant1 counts
        only the pairs whose distance strictly shrinks, inside a stretch as
        between events."""
        db = RouteDb.from_csv(route_csv("A", [
            (f"D{k}", 33.0 + at / TestRandomWorlds.M_PER_DEG_LAT, 73.5, dbm)
            for k, (at, dbm) in enumerate([(0.0, -60.0), (2000.0, -95.0), (2100.0, -60.0)])]))
        step = math.ulp(1.0)
        config = SimConfig(tick_s=1.0, speed_mps=step, start_m=1.0 - 3000 * step, stop_m=1.0)
        log = run(config, db, fear_model)
        assert [e.__class__ for e in log.entries] == [TickEvent, QuietStretch, TickEvent]
        distances = [e.distance_to_bssp_m for e in log.events]
        shrinking = sum(1 for a, b in zip(distances, distances[1:]) if b < a)
        assert 0 < shrinking < len(distances) - 1
        report = check_invariant1(log)
        assert report.passed and report.stats == {"approaching_pairs": shrinking}
        assert report == check_invariant1(RunLog(events=log.events))


class TestSplitAndResume:
    """A run stopped at a quiet tick's position, at base alert and with no
    slot remap before it, and a second run started there on that tick's
    provider give the whole run's rows and pools, the second's ticks
    renumbered.  Every such tick may be the split.  One difference is a
    known fault (FOUND in CHANGES.md): a run targets no bad point before its
    first tick, so when the tick after the split passes the point the split
    tick targets (a step can be longer than the fear horizon), the whole run
    logs a loss there and the second run does not.  ``_split`` asserts that
    difference where it arises, so the tests fail once the fault is mended."""

    @staticmethod
    def _split(db, config, model, log, at) -> bool:
        """Check the relation at ``at``; true when the known fault showed."""
        start, stop, *_ = resolve_run(config, db)
        head = run(replace(config, start_m=start, start_seed=None, stop_m=at.position_m),
                   db, model)
        tail = run(replace(config, start_m=at.position_m, start_seed=None, stop_m=stop,
                           initial_provider=at.provider), db, model)
        offset = len(head.events)
        assert offset == at.tick + 1
        rows = [_row(e) for e in head.events] + [
            (e.tick + offset, *_row(e)[1:]) for e in tail.events]
        target = db.next_bad_index(at.position_m, at.provider)
        fault = target is not None and log.events[offset].position_m >= db.cumulative_m[target]
        if fault:
            assert log.events[offset].loss and not tail.events[0].loss
            rows[offset] = (*rows[offset][:-2], True, rows[offset][-1])
        assert rows == [_row(e) for e in log.events]
        assert {**head.pools, **{tick + offset: pool for tick, pool in tail.pools.items()}} == (
            log.pools)
        return fault

    @given(world=TestDifferentialOracle.worlds(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_split_and_resume_give_the_whole_run(self, world, data):
        db, config, model = world
        log = run(config, db, model)
        stop = resolve_run(config, db)[1]
        quiet = []
        for e in log.events:
            if e.slot_remapped:
                break
            if (e.position_m < stop and e.fear == 0.0 and e.band is FearBand.B0
                    and e.symbol is MobilitySymbol.SELF and e.state.isdigit()
                    and (e.attempt, e.stay) == (None, None)):
                quiet.append(e)
        if quiet:
            self._split(db, config, model, log, data.draw(st.sampled_from(quiet)))

    def test_a_step_past_the_target_from_outside_the_horizon(self):
        """The known fault, which the test above rarely draws: a 64 m step
        and a 40 m horizon take tick 1 past the bad point at 105 m that
        quiet tick 0, at 64 m, targets."""
        db = RouteDb.from_csv(route_csv("A", [
            (f"D{k}", 33.0 + at / TestRandomWorlds.M_PER_DEG_LAT, 73.5, dbm)
            for k, (at, dbm) in enumerate([(0.0, -60.0), (105.0, -110.0), (300.0, -60.0)])]))
        config = SimConfig(speed_mps=128.0)
        model = FearModel(FearParams(distance_horizon_m=40.0))
        log = run(config, db, model)
        quiet = log.events[0]
        assert (quiet.fear, quiet.state, quiet.distance_to_bssp_m > 40.0) == (0.0, "1", True)
        assert self._split(db, config, model, log, quiet)
