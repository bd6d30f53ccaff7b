"""In-memory span recorder for the traced pass.

Spans are recorded from outside the program, around calls into each
module's public functions: ``installed`` rebinds the names ``fearover.sim``
and ``fearover.cli`` imported, patches ``Simulation.tick``,
``FuzzySystem.infer`` and ``RouteDb.from_csv`` on their classes, and
``RouteProxy``/``FearProxy`` time the database and fear-model calls the
simulation makes.  Nothing under ``src/`` is edited; the patches live only
in the benchmark process that installs them and are undone on exit.

Each span is five int64s in one flat ``array``: span id, name id, start
and end (``perf_counter_ns``) and parent span id (-1 for a root).
``summarize`` turns the buffer into per-name call counts and self time
(a span's duration minus the time its child spans cover).

This module imports nothing heavy at load time, so a traced cold CLI
process can time its own ``import numpy``.
"""

from __future__ import annotations

import itertools
import time
from array import array
from contextlib import contextmanager

# Subsystem output-variable names -> metric suffixes.
SURFACE_NAMES = {"likelihood": "likelihood", "undesirability": "undesirability",
                 "global_intensity": "ig"}

FIELDS = 5


class Tracer:
    """Span buffer; ``call`` times one call as a child of the open span."""

    def __init__(self, cap_spans: int = 400_000) -> None:
        self.buf = array("q")
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._next = itertools.count()
        self._stack = [-1]
        self.cap_spans = cap_spans
        # Fuzzy systems whose first ``infer`` (the surface build) was seen.
        self.built: dict[int, object] = {}

    @property
    def full(self) -> bool:
        return len(self.buf) >= self.cap_spans * FIELDS

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn, *args, **kwargs):
        # ``span`` inlined: this runs on every traced call, and a context
        # manager here would add as much overhead again.
        nid = self.name_id(name)
        stack = self._stack
        sid = next(self._next)
        parent = stack[-1]
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.buf.extend((sid, nid, t0, t1, parent))

    @contextmanager
    def span(self, name: str):
        nid = self.name_id(name)
        sid = next(self._next)
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.buf.extend((sid, nid, t0, t1, parent))

    def wrap(self, name: str, fn):
        call = self.call

        def traced(*args, **kwargs):
            return call(name, fn, *args, **kwargs)

        return traced

    def mark(self) -> int:
        return len(self.buf)

    def root_ns(self, start: int) -> int:
        """Total duration of the root spans recorded since ``mark()``."""
        buf = self.buf
        return sum(buf[i + 3] - buf[i + 2]
                   for i in range(start, len(buf), FIELDS) if buf[i + 4] == -1)

    def summarize(self) -> dict[str, list[int]]:
        return summarize(self.buf, self.names)

    def dump_rows(self, limit: int) -> list[str]:
        """Up to ``limit`` raw spans as ``span_id,name,start_ns,end_ns,parent_id``."""
        buf = self.buf
        return [f"{buf[i]},{self.names[buf[i + 1]]},{buf[i + 2]},{buf[i + 3]},{buf[i + 4]}"
                for i in range(0, min(len(buf), max(limit, 0) * FIELDS), FIELDS)]


def summarize(buf: array, names: list[str]) -> dict[str, list[int]]:
    """Per span name: [calls, total self ns]."""
    import numpy as np

    if not buf:
        return {}
    rows = np.frombuffer(buf, dtype=np.int64).reshape(-1, FIELDS)
    sid, nid, t0, t1, parent = rows.T
    dur = t1 - t0
    row_of = np.full(int(sid.max()) + 1, -1, dtype=np.int64)
    row_of[sid] = np.arange(len(rows))
    nested = parent >= 0
    parent_rows = row_of[parent[nested]]
    child_ns = np.zeros(len(rows), dtype=np.int64)
    np.add.at(child_ns, parent_rows, dur[nested])
    self_ns = dur - child_ns
    calls = np.bincount(nid, minlength=len(names))
    totals = np.bincount(nid, weights=self_ns, minlength=len(names))
    return {name: [int(calls[i]), int(totals[i])]
            for i, name in enumerate(names) if calls[i]}


def merge(into: dict[str, list[int]], other: dict[str, list[int]]) -> None:
    for name, (calls, self_ns) in other.items():
        slot = into.setdefault(name, [0, 0])
        slot[0] += calls
        slot[1] += self_ns


class RouteProxy:
    """Times the ``RouteDb`` queries the simulation and ``sense`` make."""

    def __init__(self, db, tracer: Tracer) -> None:
        self._db = db
        self.next_bad_index = tracer.wrap("route.next_bad_index", db.next_bad_index)
        self.signal_at = tracer.wrap("route.signal_at", db.signal_at)
        self.current_signal = tracer.wrap("route.current_signal", db.current_signal)
        self.future_signal = tracer.wrap("route.future_signal", db.future_signal)

    def __getattr__(self, name):
        return getattr(self._db, name)


class FearProxy:
    """Times ``FearModel.intensity``."""

    def __init__(self, model, tracer: Tracer) -> None:
        self._model = model
        self.intensity = tracer.wrap("fear.intensity", model.intensity)

    def __getattr__(self, name):
        return getattr(self._model, name)


# (module attribute, span name) pairs rebound while tracing.
_SIM_NAMES = (
    ("step", "automaton.step"),
    ("classify", "automaton.classify"),
    ("csm_dispatch", "crsite.dispatch"),
    ("sense", "crsite.sense"),
    ("select_whitespace", "crsite.select_whitespace"),
    ("execute_handover", "crsite.execute_handover"),
)
_CLI_NAMES = (
    ("run", "sim.run"),
    ("runlog_to_csv", "sim.export_csv"),
    ("check_all_invariants", "sim.invariants"),
)


@contextmanager
def installed(tracer: Tracer):
    """Route the program's layer boundaries through ``tracer``."""
    import fearover.cli as cli
    import fearover.fuzzy as fuzzy
    import fearover.route as route
    import fearover.sim as sim

    saved = []

    def rebind(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    for attr, name in _SIM_NAMES:
        rebind(sim, attr, tracer.wrap(name, getattr(sim, attr)))
    for attr, name in _CLI_NAMES:
        rebind(cli, attr, tracer.wrap(name, getattr(cli, attr)))

    load_scenario = cli.load_scenario

    def traced_load(*args, **kwargs):
        scenario = tracer.call("cli.load_scenario", load_scenario, *args, **kwargs)
        scenario.db = RouteProxy(scenario.db, tracer)
        scenario.fear_model = FearProxy(scenario.fear_model, tracer)
        return scenario

    rebind(cli, "load_scenario", traced_load)
    rebind(sim.Simulation, "tick", tracer.wrap("sim.tick", sim.Simulation.tick))

    from_csv = route.RouteDb.__dict__["from_csv"].__func__
    rebind(route.RouteDb, "from_csv", classmethod(tracer.wrap("route.load", from_csv)))

    infer = fuzzy.FuzzySystem.infer
    built = tracer.built

    def traced_infer(system, values):
        if system.monotone is None:
            name = "fuzzy.infer.raw"
        elif id(system) in built:
            name = "fuzzy.infer.rectified"
        else:
            built[id(system)] = system
            name = "fuzzy.surface_build." + SURFACE_NAMES.get(
                system.output.name, system.output.name)
        return tracer.call(name, infer, system, values)

    rebind(fuzzy.FuzzySystem, "infer", traced_infer)
    try:
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
