"""The benchmark workloads and the operations they time.

Every workload runs the same three kinds of operation on its own inputs,
so that every end-to-end metric is measured on every workload:

* A, cold CLI: one ``fearover`` command in a fresh interpreter
  (``cli_child.py``), timed from process start to exit;
* B, warm simulation: ``sim.run`` then ``runlog_to_csv``,
  ``parse_runlog_csv`` and ``check_all_invariants`` (the CLI ``run`` path
  without disk I/O);
* C, warm appraisal: ``FearModel.intensity``, two calls per sample, one on
  the rectified model and one on ``seeded_violation.ini``'s raw
  likelihood override.

The workloads differ in their inputs and in how they share the run's
seconds between A, B and C (``SHARES``); the README says why each exists.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import routegen
import spans
from setup_probe import PROBE_INPUT

import fearover
from fearover import sim
from fearover.cli import load_scenario

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SCENARIOS = ROOT / "scenarios"
REFERENCE_PATH = BENCH / "reference.json"

# Share of --seconds given to (A cold CLI, B warm simulation, C appraisal);
# MAIN names the phase the workload exists for.
SHARES = {
    "cli_cold": (0.75, 0.10, 0.15),
    "long_route_sweep": (0.40, 0.50, 0.10),
}
MAIN = {"cli_cold": "A", "long_route_sweep": "B"}
SETUP_PROBES = 5
WINDOW_M = 2500.0
WINDOWS = 18
PRESETS = ("worst", "average", "best")
# Appraisal pairs per run (random on cli_cold; on long_route_sweep taken
# from the reference pass, spread over it): few enough that each pair is
# repeated many times over the run.
PAIRS = 2_000
# Traced twins of operations stop once the buffer holds this many spans.
SPAN_CAP = 400_000
DUMPED_SPANS = 20_000
BLOCK = 200                     # appraisal pairs per step
CHILD_TIMEOUT_S = 60


@dataclass
class SimSpec:
    """One simulation input: what ``sim.run`` gets, plus its checks."""

    label: str
    config: sim.SimConfig
    db: fearover.RouteDb
    model: fearover.FearModel
    ini: Path | None = None
    digest: str | None = None        # pinned runlog sha256
    expect_passed: tuple = (True, True, True)
    appraise: bool = False           # its appraisals feed phase C


@dataclass
class Command:
    kind: str                        # run | validate | replay
    label: str
    args: list[str]
    expect_code: int
    digest: str | None = None        # expected runlog.csv sha256 (run)


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.problems) < 20:
            self.problems.append(what)

    def check(self, ok: bool, what: str) -> bool:
        self.add(1, 0 if ok else 1, what)
        return ok


def reference() -> dict:
    """Values pinned at the benchmark's parent commit (see reference.py)."""
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


class ChildTimeout(Exception):
    """A cold CLI process outlived CHILD_TIMEOUT_S."""


def wait_child(proc: subprocess.Popen):
    """``os.wait4`` on ``proc`` (status and resource usage), or kill it
    after CHILD_TIMEOUT_S and raise ChildTimeout."""
    def expire(signum, frame):
        raise ChildTimeout

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except ChildTimeout:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


# -- inputs -------------------------------------------------------------------


def raw_model() -> fearover.FearModel:
    return load_scenario(SCENARIOS / "seeded_violation.ini").fear_model


def cli_cold_inputs(seed: int, work: Path):
    """The three bundled scenarios; the seed orders the command loop and
    draws the appraisal pairs."""
    pinned = reference()["cli_runlog_sha256"]
    expect = {"survey_default": (True, True, True),
              "four_provider_trace": (True, True, True),
              "seeded_violation": (False, True, True)}
    specs = {}
    for name in pinned:
        path = SCENARIOS / f"{name}.ini"
        scenario = load_scenario(path)
        specs[name] = SimSpec(name, scenario.config, scenario.db, scenario.fear_model,
                              ini=path, digest=pinned[name], expect_passed=expect[name])
    commands = [Command("run", name, ["run", "--scenario", str(SCENARIOS / f"{name}.ini")],
                        0, pinned[name]) for name in pinned]
    commands += [
        Command("validate", "survey_default",
                ["validate", "--scenario", str(SCENARIOS / "survey_default.ini")], 0),
        Command("validate", "seeded_violation",
                ["validate", "--scenario", str(SCENARIOS / "seeded_violation.ini")], 1),
        Command("replay", "replay-tables", ["replay-tables"], 0),
    ]
    models = (specs["survey_default"].model, specs["seeded_violation"].model)
    routes = [specs["survey_default"].db, specs["four_provider_trace"].db]
    return list(specs.values()), commands, models, routes


def long_route_inputs(seed: int, work: Path):
    """A generated ~100 km, 4-provider route driven in seeded 2.5 km
    windows, one per eighteenth of the route, each from each of the first
    three providers; the windows take the three timing presets in turn.
    Many short windows average out what one stretch of route costs."""
    text = routegen.survey_csv(seed)
    (work / "route.csv").write_text(text, encoding="utf-8")
    db = fearover.RouteDb.from_csv(text)
    model = fearover.FearModel()
    rng = random.Random(seed)
    stratum = (db.route_length_m - WINDOW_M) / WINDOWS
    specs = []
    for w in range(WINDOWS):
        start = w * stratum + rng.uniform(0.0, stratum)
        preset = PRESETS[w % len(PRESETS)]
        for provider in db.providers[:3]:
            label = f"w{w}-{provider}-{preset}"
            config = sim.SimConfig(start_m=start, stop_m=start + WINDOW_M,
                                   initial_provider=provider,
                                   timing=fearover.TIMING_PRESETS[preset])
            ini = work / f"{label}.ini"
            ini.write_text(
                f"[route]\nsource = route.csv\n\n[sim]\nstart_m = {start!r}\n"
                f"stop_m = {start + WINDOW_M!r}\ninitial_provider = {provider}\n\n"
                f"[timing]\npreset = {preset}\n", encoding="utf-8")
            specs.append(SimSpec(label, config, db, model, ini=ini, appraise=True))
    rng.shuffle(specs)
    return specs, None, (model, raw_model()), [db]


INPUTS = {"cli_cold": cli_cold_inputs, "long_route_sweep": long_route_inputs}


def random_appraisals(seed: int, count: int) -> list:
    """Inputs inside the horizon with all five graded inputs varying."""
    rng = random.Random(seed * 7919 + 1)
    return [fearover.FearInputs(
        distance_m=rng.uniform(0.0, 75.0), signal_dbm=rng.uniform(-110.0, -25.0),
        comm_importance=rng.random(), sor=rng.random(), vtp=rng.random())
        for _ in range(count)]


# -- set-up -------------------------------------------------------------------


def setup_probes(workload: str, work: Path, models, tally: Tally) -> float:
    """Median set-up time over fresh interpreters; checks their appraisal."""
    expected = [models[0].intensity(fearover.FearInputs(**PROBE_INPUT))]
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload]
    if workload == "long_route_sweep":
        cmd.append(str(work / "route.csv"))
    times = []
    for _ in range(SETUP_PROBES):
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            tally.check(False, "setup probe timed out")
            continue
        out = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}
        if tally.check(out.get("fear") == expected, f"setup probe: {proc.stderr[-300:]!r}"):
            times.append(out["setup_s"])
    return median(times)


class Timings:
    """Every time taken per input, untraced and traced.

    The shared host this benchmark was written on slows down in bursts:
    over 12 s windows the median of a fixed loop's timings spread 23%,
    its minimum 1%.  So each warm input is repeated over the run, its
    fastest repeat stands for it, and medians and tails are taken across
    inputs, where the program's own spread lies.  A cold process is too
    long for a fast moment to cover it reliably, and sometimes runs its
    start-up threads in parallel on the second vCPU; its median repeat
    stands for it.
    """

    def __init__(self) -> None:
        self.untraced: dict = {}
        self.traced: dict = {}
        self.traced_s = 0.0
        self.root_ns = 0

    def add(self, key, seconds: float, traced: bool = False) -> None:
        (self.traced if traced else self.untraced).setdefault(key, []).append(seconds)

    def fastest(self) -> dict:
        return {key: min(times) for key, times in self.untraced.items()}

    def overhead(self) -> float:
        """Traced over untraced time, on the inputs timed both ways, each
        at its fastest repeat."""
        both = [k for k in self.traced if k in self.untraced]
        untraced = sum(min(self.untraced[k]) for k in both)
        traced = sum(min(self.traced[k]) for k in both)
        return traced / untraced - 1.0 if untraced else 0.0

    def covered(self) -> float:
        """Share of the traced time spent inside the program's root spans."""
        return self.root_ns / 1e9 / self.traced_s if self.traced_s else 0.0


# -- phase B: warm simulations ------------------------------------------------


class SimPhase:
    """Runs specs round-robin; the first pass (the reference pass) always
    completes and gives the simulated statistics and appraisal inputs."""

    def __init__(self, specs: list[SimSpec], tally: Tally) -> None:
        self.specs = specs
        self.tally = tally
        self.digests: dict[str, str] = {}
        self.ticks: dict[str, int] = {}
        self.timings = Timings()      # run + export + parse + invariants
        self.run_timings = Timings()  # sim.run alone
        self.ops = 0
        self.stats = dict.fromkeys(
            ("ticks", "attempts", "successes", "stays", "losses", "appraisals"), 0)
        self.appraisals: list[tuple] = []

    def op(self, spec: SimSpec, tracer: spans.Tracer | None, first: bool) -> None:
        try:
            self._op(spec, tracer, first)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.tally.check(False, f"sim {spec.label}: {exc!r}")

    def _op(self, spec: SimSpec, tracer: spans.Tracer | None, first: bool) -> None:
        if tracer is None:
            t0 = time.perf_counter()
            log = sim.run(spec.config, spec.db, spec.model)
            t1 = time.perf_counter()
            text = sim.runlog_to_csv(log)
            events = sim.parse_runlog_csv(text)
            reports = sim.check_all_invariants(log)
            t2 = time.perf_counter()
            self.run_timings.add(spec.label, t1 - t0)
            self.ops += 1
        else:
            mark = tracer.mark()
            with spans.installed(tracer):
                db = spans.RouteProxy(spec.db, tracer)
                model = spans.FearProxy(spec.model, tracer)
                t0 = time.perf_counter()
                log = tracer.call("sim.run", sim.run, spec.config, db, model)
                text = tracer.call("sim.export_csv", sim.runlog_to_csv, log)
                events = tracer.call("sim.parse_csv", sim.parse_runlog_csv, text)
                reports = tracer.call("sim.invariants", sim.check_all_invariants, log)
                t2 = time.perf_counter()
            self.timings.traced_s += t2 - t0
            self.timings.root_ns += tracer.root_ns(mark)
        self.timings.add(spec.label, t2 - t0, traced=tracer is not None)
        digest = sha256(text)
        passed = tuple(r.passed for r in reports)
        expected_digest = spec.digest or self.digests.setdefault(spec.label, digest)
        ok = events == log.events and digest == expected_digest and passed == spec.expect_passed
        self.tally.check(ok, f"sim {spec.label}: digest {digest[:12]}, invariants {passed}")
        if first:
            self.ticks[spec.label] = len(log.events)
            self._record(spec, log)

    def _record(self, spec: SimSpec, log) -> None:
        cfg = spec.config
        horizon = cfg.fear.distance_horizon_m
        s = self.stats
        s["ticks"] += len(log.events)
        s["attempts"] += len(log.attempts)
        s["successes"] += sum(1 for r in log.attempts if r.attempt.success)
        s["stays"] += len(log.stays)
        s["losses"] += len(log.losses)
        for e in log.events:
            if e.distance_to_bssp_m is None or e.distance_to_bssp_m >= horizon:
                continue
            s["appraisals"] += 1
            if spec.appraise:
                inputs = fearover.FearInputs(
                    distance_m=e.distance_to_bssp_m, signal_dbm=e.threat_dbm,
                    comm_importance=cfg.comm_importance, sor=cfg.sor, vtp=cfg.vtp,
                    prospect=cfg.prospect, desirability=cfg.desirability)
                self.appraisals.append((inputs, e.fear))

    def reference_pass(self) -> None:
        for spec in self.specs:
            self.op(spec, None, first=True)

    def step(self, tracer: spans.Tracer | None) -> None:
        spec = self.specs[self.ops % len(self.specs)]
        self.op(spec, None, first=False)
        if tracer is not None and not tracer.full:
            self.op(spec, tracer, first=False)

    def minimum_done(self) -> bool:
        return True

    def ticks_per_s(self) -> float:
        """Reference-pass ticks over the summed fastest ``sim.run`` times."""
        best = self.run_timings.fastest()
        return sum(self.ticks[k] for k in best) / sum(best.values()) if best else 0.0


# -- phase C: warm appraisals --------------------------------------------------


class AppraisalPhase:
    """Cycles over input pairs; a sample is the mean time of two
    ``intensity`` calls, the pair's first input on the first model and its
    second input on the second model."""

    def __init__(self, models, pairs: list[tuple], tally: Tally) -> None:
        self.models = models
        self.pairs = pairs
        self.tally = tally
        self.timings = Timings()
        self.ops = 0
        self.seen: dict[tuple[int, int], float] = {}

    def _block(self, start: int, count: int, models, traced: bool) -> None:
        clock = time.perf_counter_ns
        model_a, model_b = models
        pairs = self.pairs
        add = self.timings.add
        bad = 0
        for i in range(start, start + count):
            k = i % len(pairs)
            (xa, fa_expected), (xb, fb_expected) = pairs[k]
            t0 = clock()
            try:
                fa = model_a.intensity(xa)
                fb = model_b.intensity(xb)
            except Exception:  # a failed operation is counted, not fatal
                bad += 1
                continue
            t1 = clock()
            add(k, (t1 - t0) / 2e9, traced)
            if not (self._valid((0, k), fa, fa_expected) and self._valid((1, k), fb, fb_expected)):
                bad += 1
        self.tally.add(count, bad, f"appraisals {start}..{start + count}: {bad} wrong")

    def _valid(self, key: tuple[int, int], value: float, expected: float | None) -> bool:
        """In [0, 1] and equal to the logged fear, or to the first value seen."""
        if expected is None:
            expected = self.seen.setdefault(key, value)
        return 0.0 <= value <= 1.0 and value == expected

    def step(self, tracer: spans.Tracer | None) -> None:
        start = self.ops
        self._block(start, BLOCK, self.models, traced=False)
        self.ops += BLOCK
        if tracer is not None and not tracer.full:
            mark = tracer.mark()
            with spans.installed(tracer):
                proxies = [spans.FearProxy(m, tracer) for m in self.models]
                t0 = time.perf_counter()
                self._block(start, BLOCK, proxies, traced=True)
                self.timings.traced_s += time.perf_counter() - t0
            self.timings.root_ns += tracer.root_ns(mark)

    def minimum_done(self) -> bool:
        return self.ops >= len(self.pairs)

    def times_us(self) -> list[float]:
        return [t * 1e6 for t in self.timings.fastest().values()]


# -- phase A: cold CLI processes ----------------------------------------------


class CliPhase:
    """A closed loop of fresh interpreters, one command at a time."""

    def __init__(self, commands: list[Command], seed: int, work: Path, tally: Tally) -> None:
        self.commands = commands
        self.rng = random.Random(seed)
        self.loop: list[Command] = []
        self.work = work
        self.tally = tally
        self.timings = Timings()
        self.ops = 0
        self.peak_rss_kb = 0
        self.spans: dict[str, list[int]] = {}

    def op(self, command: Command, traced: bool) -> None:
        out_dir = self.work / "cli" / command.label
        args = list(command.args)
        if command.kind == "run":
            args += ["--out", str(out_dir)]
        summary = self.work / "cli" / "trace.json"
        options = ["--trace", str(summary)] if traced else []
        cmd = [sys.executable, str(BENCH / "cli_child.py"), *options, "--", *args]
        stdout_path = self.work / "cli" / "stdout.txt"
        stdout_path.parent.mkdir(parents=True, exist_ok=True)
        with open(stdout_path, "w", encoding="utf-8") as stdout:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=stdout, stderr=subprocess.DEVNULL, cwd=ROOT)
            try:
                usage = wait_child(proc)
            except ChildTimeout:
                self.tally.check(False, f"cli {command.kind} {command.label}: timed out")
                return
            elapsed = time.perf_counter() - t0
        code = proc.returncode
        ok = code == command.expect_code
        if command.kind == "run" and ok:
            runlog = out_dir / "runlog.csv"
            ok = runlog.exists() and sha256(runlog.read_text(encoding="utf-8")) == command.digest
        if command.kind == "replay" and ok:
            totals = [line.split()[1] for line in stdout_path.read_text().splitlines()
                      if line.strip().startswith("total:")]
            ok = totals == ["4/10", "9/10", "10/10"]
        self.tally.check(ok, f"cli {command.kind} {command.label}: exit {code}")
        self.timings.add((command.kind, command.label), elapsed, traced)
        if traced:
            self.timings.traced_s += elapsed
            if summary.exists():
                child = json.loads(summary.read_text(encoding="utf-8"))
                spans.merge(self.spans, child["spans"])
                self.timings.root_ns += child["root_ns"]
                summary.unlink()
        else:
            self.ops += 1
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)

    def step(self, traced: bool) -> None:
        if not self.loop:
            self.loop = list(self.commands)
            self.rng.shuffle(self.loop)
        command = self.loop.pop()
        self.op(command, traced=False)
        if traced:
            self.op(command, traced=True)

    def minimum_done(self) -> bool:
        return self.ops >= len(self.commands)

    def kind_s(self, kind: str) -> float:
        """Mean over this kind's commands of each one's median wall time."""
        times = [median(v) for (k, _), v in self.timings.untraced.items() if k == kind]
        return sum(times) / len(times) if times else 0.0


def sweep_commands(specs: list[SimSpec], phase: SimPhase, seed: int) -> list[Command]:
    """``run`` and ``validate`` on one seeded spec's INI, and the replay."""
    spec = specs[random.Random(seed).randrange(len(specs))]
    return [
        Command("run", spec.label, ["run", "--scenario", str(spec.ini)], 0,
                phase.digests.get(spec.label)),
        Command("validate", spec.label, ["validate", "--scenario", str(spec.ini)], 0),
        Command("replay", "replay-tables", ["replay-tables"], 0),
    ]


# -- one benchmark run ---------------------------------------------------------


def check_reference(models, tally: Tally) -> None:
    """Pinned appraisal values recorded at the benchmark's parent commit."""
    ref = reference()["appraisal_reference"]
    for key, model in zip(("default", "raw"), models):
        values = [model.intensity(fearover.FearInputs(**x)) for x in ref["inputs"]]
        tally.check(values == ref[key], f"pinned {key} appraisals differ")


def run(workload: str, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    tally = Tally()
    specs, commands, models, routes = INPUTS[workload](seed, work)
    setup_s = None if traced else setup_probes(workload, work, models, tally)

    tracer = spans.Tracer(SPAN_CAP) if traced else None
    if tracer is not None:
        with spans.installed(tracer):
            for model in models:
                spans.FearProxy(model, tracer).intensity(fearover.FearInputs(**PROBE_INPUT))
    else:
        for model in models:
            model.intensity(fearover.FearInputs(**PROBE_INPUT))
    check_reference(models, tally)

    start = time.perf_counter()
    phase_b = SimPhase(specs, tally)
    phase_b.reference_pass()
    reference_s = time.perf_counter() - start

    if phase_b.appraisals:
        logged = phase_b.appraisals[::-(-len(phase_b.appraisals) // PAIRS)]
        pairs = [((x, fear), (x, None)) for x, fear in logged]
    else:
        pairs = [((a, None), (b, None)) for a, b in zip(
            random_appraisals(seed, PAIRS), random_appraisals(seed + 1, PAIRS))]
    phase_c = AppraisalPhase(models, pairs, tally)
    phase_a = CliPhase(commands or sweep_commands(specs, phase_b, seed), seed, work, tally)

    # Interleave the phases in small steps for the whole run, each phase
    # getting its share of the time, so every input is repeated at
    # moments spread over the run.
    phases = {"A": (phase_a, traced), "B": (phase_b, tracer), "C": (phase_c, tracer)}
    shares = dict(zip("ABC", SHARES[workload]))
    spent = {"A": 0.0, "B": reference_s, "C": 0.0}
    end = start + seconds
    while True:
        behind = [k for k in phases if not phases[k][0].minimum_done()]
        if time.perf_counter() >= end:
            if not behind:
                break
            key = behind[0]
        else:
            key = min(phases, key=lambda k: spent[k] / shares[k])
        phase, arg = phases[key]
        t0 = time.perf_counter()
        phase.step(arg)
        spent[key] += time.perf_counter() - t0

    totals: dict[str, list[int]] = tracer.summarize() if tracer is not None else {}
    dumped = tracer.dump_rows(DUMPED_SPANS) if tracer is not None else []

    stats = dict(phase_b.stats)
    route_list = [routegen.route_stats(db) for db in routes]
    info = {"routes": route_list, "simulated": stats,
            "ops": {"cli": phase_a.ops, "sims": phase_b.ops, "appraisal_pairs": phase_c.ops},
            "problems": tally.problems}
    if workload != "cli_cold" and not traced:
        info["reference_digest"] = sha256(
            "\n".join(phase_b.digests.get(s.label, "") for s in specs))
        pinned = reference()["reference_digest_seed0"].get(workload)
        if seed == 0 and pinned:
            tally.check(info["reference_digest"] == pinned, "seed-0 reference digest differs")

    if not traced:
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, phase_a.peak_rss_kb)
        metrics = {
            "setup_s": (setup_s, "s"),
            "cli_run_s": (phase_a.kind_s("run"), "s"),
            "cli_validate_s": (phase_a.kind_s("validate"), "s"),
            "cli_replay_s": (phase_a.kind_s("replay"), "s"),
            "sim_run_s": (median(list(phase_b.timings.fastest().values())), "s"),
            "sim_run_p90_s": (p90(list(phase_b.timings.fastest().values())), "s"),
            "ticks_per_s": (phase_b.ticks_per_s(), "1/s"),
            "appraisal_us": (median(phase_c.times_us()), "us"),
            "appraisal_p90_us": (p90(phase_c.times_us()), "us"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
    else:
        spans.merge(totals, phase_a.spans)
        metrics = layer_metrics(totals, stats, route_list)
        main = {"A": phase_a, "B": phase_b, "C": phase_c}[MAIN[workload]].timings
        metrics["trace.overhead_frac"] = (main.overhead(), "frac")
        metrics["trace.covered_frac"] = (main.covered(), "frac")
        info["spans"] = totals
    return {"tally": tally, "metrics": metrics, "info": info, "dumped_spans": dumped}


# -- per-layer metrics ----------------------------------------------------------

# metric -> (span names, unit, ns per unit[, span whose calls divide the time])
LAYERS = {
    "cli.import_s": (("cli.import",), "s", 1e9),
    "cli.import_numpy_s": (("cli.import_numpy",), "s", 1e9),
    "cli.load_scenario_s": (("cli.load_scenario",), "s", 1e9),
    "route.load_s": (("route.load",), "s", 1e9),
    "route.next_bad_index_us": (("route.next_bad_index",), "us", 1e3),
    "route.signal_query_us": (("route.signal_at", "route.current_signal",
                               "route.future_signal"), "us", 1e3),
    "fuzzy.surface_build_s.likelihood": (("fuzzy.surface_build.likelihood",), "s", 1e9),
    "fuzzy.surface_build_s.undesirability": (("fuzzy.surface_build.undesirability",),
                                             "s", 1e9),
    "fuzzy.surface_build_s.ig": (("fuzzy.surface_build.ig",), "s", 1e9),
    "fuzzy.infer_us.rectified": (("fuzzy.infer.rectified",), "us", 1e3),
    "fuzzy.infer_us.raw": (("fuzzy.infer.raw",), "us", 1e3),
    "fear.intensity_us": (("fear.intensity",), "us", 1e3),
    "automaton.step_us": (("automaton.step",), "us", 1e3),
    "automaton.classify_us": (("automaton.classify",), "us", 1e3),
    "crsite.dispatch_us": (("crsite.dispatch",), "us", 1e3),
    "crsite.decide_us": (("crsite.sense", "crsite.select_whitespace",
                          "crsite.execute_handover"), "us", 1e3, "crsite.sense"),
    "sim.tick_self_us": (("sim.tick",), "us", 1e3),
    "sim.run_self_us": (("sim.run",), "us", 1e3),
    "sim.export_csv_s": (("sim.export_csv",), "s", 1e9),
    "sim.parse_csv_s": (("sim.parse_csv",), "s", 1e9),
    "sim.invariants_s": (("sim.invariants",), "s", 1e9),
}


def layer_metrics(totals: dict[str, list[int]], stats: dict, routes: list[dict]) -> dict:
    metrics = {}
    for metric, (names, unit, scale, *per) in LAYERS.items():
        self_ns = sum(totals.get(n, (0, 0))[1] for n in names)
        calls = totals.get(per[0], (0, 0))[0] if per else sum(
            totals.get(n, (0, 0))[0] for n in names)
        metrics[metric] = (self_ns / calls / scale if calls else 0.0, unit)
        metrics[metric + ".calls"] = (calls, "count")
    for key in ("ticks", "attempts", "successes", "stays", "losses"):
        metrics[f"sim.{key}"] = (stats[key], "count")
    metrics["crsite.handover_success_frac"] = (
        stats["successes"] / stats["attempts"] if stats["attempts"] else 0.0, "frac")
    metrics["fear.appraisals"] = (stats["appraisals"], "count")
    metrics["fear.appraised_frac"] = (stats["appraisals"] / stats["ticks"], "frac")
    metrics["route.points"] = (sum(r["points"] for r in routes), "count")
    metrics["route.km"] = (sum(r["km"] for r in routes), "km")
    per_provider = [n for r in routes for n in r["bssps"].values()]
    metrics["route.bssps_per_provider"] = (sum(per_provider) / len(per_provider), "count")
    return metrics
