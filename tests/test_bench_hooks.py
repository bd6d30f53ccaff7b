"""The benchmark's traced pass still sees the layers of a run.

``bench/spans.py`` times the program from outside: ``installed`` rebinds the
names ``fearover.sim`` imported and patches ``Simulation.tick``, and
``RouteProxy``/``FearProxy`` wrap the database and fear model.  A refactor
that stops calling through those names would silently empty the per-layer
metrics, so this test runs a short traced simulation the way the
benchmark's warm-simulation operation does and checks the spans it records.
``Simulation.run`` calls ``tick`` only for ticks that are not quiet and
appends the quiet ones itself, so the per-tick layers count pipelined ticks.
``tick`` appraises through one ``FearModel.approach`` per threat episode,
which ``FearProxy`` does not wrap, so its appraisals show as the fuzzy
inference spans, not as ``fear.intensity``.
"""

import importlib.util
from pathlib import Path

from fearover import FearInputs, cli, sim
from fearover.automaton import FearBand, MobilitySymbol
from fearover.cli import load_scenario
from fearover.crsite import CsmAction
from fearover.sim import SimConfig, run

ROOT = Path(__file__).resolve().parent.parent
SPANS_PATH = ROOT / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_survey_run_records_every_tick_layer(survey_db, fear_model):
    spans = _load_spans()
    tracer = spans.Tracer()
    recorded = []
    with spans.installed(tracer):
        traced_tick = sim.Simulation.tick

        def recording_tick(self):
            event = traced_tick(self)
            recorded.append(event)
            return event

        # Set and reset inside ``installed``, which restores the untraced tick.
        sim.Simulation.tick = recording_tick
        try:
            db = spans.RouteProxy(survey_db, tracer)
            model = spans.FearProxy(fear_model, tracer)
            # The tracer names each system's first lookup a build.
            model.intensity(FearInputs(distance_m=30.0, signal_dbm=-90.0))
            log = tracer.call("sim.run", sim.run, SimConfig(stop_m=150.0), db, model)
        finally:
            sim.Simulation.tick = traced_tick
    calls = {name: count for name, (count, _) in tracer.summarize().items()}
    ticks = len(recorded)
    assert 0 < ticks < len(log.events)
    for name in ("sim.tick", "automaton.step", "automaton.classify", "crsite.dispatch",
                 "route.next_bad_index"):
        assert calls.get(name) == ticks, name
    # Each appraised tick grades the likelihood; each episode grades
    # undesirability and global intensity once, so fewer than three lookups
    # fall to a tick.  The warm-up is the one ``fear.intensity``.
    appraised = sum(1 for e in recorded if e.distance_to_bssp_m is not None
                    and fear_model.in_horizon(e.distance_to_bssp_m))
    assert 0 < appraised <= calls.get("fuzzy.infer.rectified", 0) < 3 * appraised
    assert calls["fear.intensity"] == 1
    # Every tick ``tick`` did not return was coasted, and is quiet.
    pipelined = {event.tick for event in recorded}
    assert all(log.events[event.tick] is event for event in recorded)

    def carried(e):
        return e.state, e.provider, e.threat_dbm

    for before, event in zip(log.events, log.events[1:]):
        if event.tick in pipelined:
            continue
        assert (event.fear, event.band, event.symbol, event.action) == (
            0.0, FearBand.B0, MobilitySymbol.SELF, CsmAction.KEEP_CURRENT)
        assert carried(event) == carried(before)
        # A coasted tick may cross a survey point: its readings are those of
        # the points around its own position, the objects ``tick`` reads.
        passed, ahead = survey_db.segment(event.position_m)
        assert event.signal_now_dbm is survey_db.points[passed].signals[event.provider]
        assert event.signal_future_dbm is survey_db.points[ahead].signals[event.provider]
        assert (event.attempt, event.stay, event.loss, event.slot_remapped) == (
            None, None, False, False)
    # The patches are undone on exit: an untraced run records nothing more.
    before = len(tracer.buf)
    assert run(SimConfig(stop_m=150.0), survey_db, fear_model).events == log.events
    assert len(tracer.buf) == before


def test_traced_cli_run_records_each_phase_once(tmp_path):
    """``fearover run`` goes through the cli module's own names for loading,
    running, exporting and checking, so the traced pass times each once."""
    spans = _load_spans()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        code = cli.main(["run", "--scenario", str(ROOT / "scenarios" / "survey_default.ini"),
                         "--out", str(tmp_path)])
    assert code == 0
    calls = {name: count for name, (count, _) in tracer.summarize().items()}
    for name in ("cli.load_scenario", "sim.run", "sim.export_csv", "sim.invariants"):
        assert calls.get(name) == 1, name


def test_traced_appraisal_records_every_subsystem_inference():
    """Each appraisal of the raw-likelihood model infers once per subsystem:
    one raw inference and two rectified lookups per ``fear.intensity``."""
    spans = _load_spans()
    tracer = spans.Tracer()
    model = load_scenario(ROOT / "scenarios" / "seeded_violation.ini").fear_model
    inputs = [FearInputs(distance_m=d, signal_dbm=s, comm_importance=0.6, sor=0.8, vtp=0.3)
              for d in (5.0, 30.0, 70.0) for s in (-95.0, -60.0, -35.0)]
    with spans.installed(tracer):
        proxy = spans.FearProxy(model, tracer)
        proxy.intensity(inputs[0])  # the tracer names each system's first lookup a build
        before = tracer.summarize()
        for x in inputs:
            proxy.intensity(x)
    calls = {name: count - before.get(name, (0, 0))[0]
             for name, (count, _) in tracer.summarize().items()}
    assert calls["fear.intensity"] == len(inputs)
    assert calls["fuzzy.infer.raw"] == calls["fear.intensity"]
    assert calls["fuzzy.infer.rectified"] == 2 * calls["fear.intensity"]
