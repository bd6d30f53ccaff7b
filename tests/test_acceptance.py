"""Acceptance suite: the artifact's exit criteria.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on
success) and enforces its stated runtime budget.  Budgets assume warm
inference surfaces, which the session fixture provides.
"""

import itertools
import time

import numpy as np
import pytest

from fearover.automaton import (
    AutomatonState,
    BandThresholds,
    MobilitySymbol,
    classify,
    step,
)
from fearover.crsite import PATCH_M, TIMING_PRESETS, replay_attempts
from fearover.fear import FearInputs
from fearover.route import haversine_m
from fearover.sim import (
    SimConfig,
    check_invariant1,
    check_invariant2,
    check_invariant3,
    run,
    runlog_to_csv,
)
from fearover.fuzzy import MAX_GRID_RESOLUTION

from oracles import reference_great_circle_m
from test_automaton import TABLE_CELLS, _cell_samples
from test_fuzzy import kernel_vs_quadrature

DISTANCES = (1, 9, 13, 3, 2, 5, 3, 2, 10, 4)


def _report(number: int, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {verdict} - {detail} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, detail
    assert elapsed < budget, f"criterion {number} exceeded {budget}s: {elapsed:.2f}s"


def _replay_flags(preset: str) -> list[bool]:
    return [a.success for a in replay_attempts(TIMING_PRESETS[preset])]


class TestAcceptance:
    def test_01_worst_case_timing_replay(self):
        t0 = time.perf_counter()
        flags = _replay_flags("worst")
        expected = [False, True, True, False, False, True, False, False, True, False]
        per_row = flags == expected
        attempts = replay_attempts(TIMING_PRESETS["worst"])
        verdicts_match = all(
            a.success == (a.time_left_s > a.required_s) for a in attempts)
        ok = per_row and verdicts_match and sum(flags) == 4
        _report(1, ok, f"worst-case replay {sum(flags)}/10 successes, rows {flags}",
                time.perf_counter() - t0, 1.0)

    def test_02_average_case_timing_replay(self):
        t0 = time.perf_counter()
        flags = _replay_flags("average")
        sole_failure_at_one_patch = (not flags[0]) and all(flags[1:])
        ok = sum(flags) == 9 and sole_failure_at_one_patch
        _report(2, ok, f"average-case replay {sum(flags)}/10, failure at "
                f"{DISTANCES[flags.index(False)]} patch", time.perf_counter() - t0, 1.0)

    def test_03_best_case_timing_replay(self):
        t0 = time.perf_counter()
        flags = _replay_flags("best")
        ok = all(flags)
        _report(3, ok, f"best-case replay {sum(flags)}/10 successes",
                time.perf_counter() - t0, 1.0)

    def test_04_transition_table_conformance(self):
        t0 = time.perf_counter()
        thresholds = BandThresholds()
        checked = 0
        ok = True
        for slot in (1, 2, 3):
            for alert, (lo, hi, inclusive), expected_alert, expected_symbol in TABLE_CELLS:
                state = AutomatonState(slot, alert)
                for fear in _cell_samples(lo, hi, inclusive):
                    nxt, symbol = step(state, classify(fear, thresholds))
                    checked += 1
                    if symbol is not expected_symbol or nxt.slot != slot \
                            or nxt.alert is not expected_alert:
                        ok = False
        _report(4, ok, f"transition table reproduced over {checked} sampled cells",
                time.perf_counter() - t0, 1.0)

    def test_05_narrative_trace_replay(self, trace_db, fear_model):
        t0 = time.perf_counter()
        config = SimConfig(initial_provider="Telenor", stop_m=290.0)
        log = run(config, trace_db, fear_model)
        hops = [(r.attempt.from_provider, r.attempt.to_provider) for r in log.attempts]
        stays = [r.stay for r in log.stays]
        ok = (
            hops[:2] == [("Telenor", "Zong"), ("Zong", "Telenor")]
            and hops == [("Telenor", "Zong"), ("Zong", "Telenor"), ("Telenor", "Ufone")]
            and len(stays) == 1
            and (stays[0].provider, stays[0].current_dbm, stays[0].future_dbm)
            == ("Ufone", -45.0, -65.0)
            and log.stays[-1].tick > log.attempts[-1].tick
            and all(r.attempt.success for r in log.attempts)
        )
        _report(5, ok, f"trace episodes {hops} then stay "
                f"{stays[0].current_dbm:g}->{stays[0].future_dbm:g} dBm on {stays[0].provider}",
                time.perf_counter() - t0, 1.0)

    def test_06_invariant1_across_speeds(self, survey_db, fear_model):
        t0 = time.perf_counter()
        violations = 0
        pairs = 0
        for speed in (2.0, 4.0, 8.0):
            report = check_invariant1(run(SimConfig(speed_mps=speed), survey_db, fear_model))
            violations += len(report.violations)
            pairs += report.stats["approaching_pairs"]
        ok = violations == 0 and pairs > 100
        _report(6, ok, f"fear non-decreasing on {pairs} approaching tick pairs, "
                f"{violations} violations", time.perf_counter() - t0, 5.0)

    def test_07_fear_calibration_properties(self, fear_model):
        t0 = time.perf_counter()
        calibration = fear_model.intensity(FearInputs(75.0, -50.0))
        distances = np.linspace(0.0, 150.0, 200)
        signals = np.linspace(-100.0, -30.0, 200)
        surface = np.array([
            [fear_model.intensity(FearInputs(d, s)) for s in signals] for d in distances])
        monotone_distance = bool((np.diff(surface, axis=0) <= 1e-12).all())
        monotone_signal = bool((np.diff(surface, axis=1) <= 1e-12).all())
        bounded = bool((surface >= 0.0).all() and (surface <= 1.0).all())
        ok = calibration < 0.05 and monotone_distance and monotone_signal and bounded
        _report(7, ok, f"fear(75m, -50dBm)={calibration:.3f}; 200x200 grid monotone "
                f"(distance={monotone_distance}, signal={monotone_signal}), bounded={bounded}",
                time.perf_counter() - t0, 10.0)

    def test_08_defuzzifier_against_quadrature_oracle(self):
        # The centroid inference computes (array and plain kernels, equal
        # under ==) of one clipped term, against trapezoidal quadrature on
        # the kernels' own output grid, at the default and the largest grid.
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        resolutions = (1001, MAX_GRID_RESOLUTION)
        worst = 0.0
        cases = 0
        while cases < 100:
            quad = tuple(np.sort(rng.random(4)).tolist())
            if quad[3] - quad[0] < 1e-3:
                continue
            level = rng.uniform(0.05, 1.0)
            diffs = [kernel_vs_quadrature(quad, level, n) for n in resolutions]
            if None in diffs:
                continue
            worst = max(worst, *diffs)
            cases += 1
        ok = worst < 1e-6
        _report(8, ok, f"kernel centroid vs quadrature oracle on grids of {resolutions}, "
                f"worst |diff|={worst:.2e} over {cases} cases", time.perf_counter() - t0, 10.0)

    def test_09_haversine_against_independent_oracle(self, survey_db):
        t0 = time.perf_counter()
        worst = 0.0
        symmetric = True
        for a, b in itertools.combinations(survey_db.points, 2):
            ours = haversine_m(a.point, b.point)
            ref = reference_great_circle_m(
                a.point.latitude, a.point.longitude, b.point.latitude, b.point.longitude)
            worst = max(worst, abs(ours - ref))
            symmetric = symmetric and ours == haversine_m(b.point, a.point)
        ok = worst < 1e-3 and symmetric
        _report(9, ok, f"all survey pairs, worst |diff|={worst:.2e} m, "
                f"symmetry exact={symmetric}", time.perf_counter() - t0, 1.0)

    def test_10_byte_identical_runs(self, survey_db, trace_db, fear_model):
        t0 = time.perf_counter()
        survey_cfg = SimConfig()
        trace_cfg = SimConfig(initial_provider="Telenor", stop_m=290.0)
        same_survey = (runlog_to_csv(run(survey_cfg, survey_db, fear_model))
                       == runlog_to_csv(run(survey_cfg, survey_db, fear_model)))
        same_trace = (runlog_to_csv(run(trace_cfg, trace_db, fear_model))
                      == runlog_to_csv(run(trace_cfg, trace_db, fear_model)))
        ok = same_survey and same_trace
        _report(10, ok, f"byte-identical run logs (survey={same_survey}, trace={same_trace})",
                time.perf_counter() - t0, 5.0)
