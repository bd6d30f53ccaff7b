"""The benchmark's traced pass still sees the layers of a run.

``bench/spans.py`` times the program from outside: ``installed`` rebinds the
names ``fearover.sim`` imported and patches ``Simulation.tick``, and
``RouteProxy``/``FearProxy`` wrap the database and fear model.  A refactor
that stops calling through those names would silently empty the per-layer
metrics, so this test runs a short traced simulation the way the
benchmark's warm-simulation operation does and checks the spans it records.
"""

import importlib.util
from pathlib import Path

from fearover import sim
from fearover.sim import SimConfig, run

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_survey_run_records_every_tick_layer(survey_db, fear_model):
    spans = _load_spans()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        db = spans.RouteProxy(survey_db, tracer)
        model = spans.FearProxy(fear_model, tracer)
        log = tracer.call("sim.run", sim.run, SimConfig(stop_m=150.0), db, model)
    calls = {name: count for name, (count, _) in tracer.summarize().items()}
    ticks = len(log.events)
    for name in ("sim.tick", "automaton.step", "automaton.classify", "crsite.dispatch",
                 "route.next_bad_index"):
        assert calls.get(name) == ticks, name
    assert 0 < calls.get("fear.intensity", 0) < ticks
    # The patches are undone on exit: an untraced run records nothing more.
    before = len(tracer.buf)
    assert run(SimConfig(stop_m=150.0), survey_db, fear_model).events == log.events
    assert len(tracer.buf) == before
