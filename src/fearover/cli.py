"""Scenario runner and validation front door.

Scenario files are INI-style text with one section per subsystem::

    [route]
    source = builtin:survey        # or a CSV path, relative to this file
    bad_threshold_dbm = -80

    [sim]
    tick_s = 0.5
    speed_mps = 4.0
    start_m = 0
    #stop_m =                      # route end when omitted
    initial_provider = SP1
    comm_importance = 1.0
    sor = 1.0
    vtp = 1.0
    prospect = true
    desirability = -1.0
    #seed =                        # random start position when set

    [fear]
    fear_threshold = 0.0
    combiner = mean
    distance_horizon_m = 75
    signal_floor_dbm = -100
    signal_ceiling_dbm = -30

    [pdfa]
    th_low = 0.4
    th_mid = 0.6
    th_high = 0.8

    [timing]
    preset = worst                 # worst|average|best, or custom with crst_s/megaot_s/hot_s

    [output]
    dir = out

Every key is optional, and every value is read as written (``%`` is not
special, and ``;`` starts a comment only at the start of a line, so a
``[route] source`` or ``[output] dir`` holding `` ;`` is refused).  The
``[sim]``, ``[fear]``, ``[pdfa]`` and ``[timing]`` keys are the fields of
``SimConfig``, ``FearParams``, ``BandThresholds`` and ``TimingModel``, whose
defaults are shown, except that ``seed`` sets ``SimConfig.start_seed``.
Unknown sections and keys are errors, and a value that its key cannot read
fails as ``[section] key = 'value': reason``.  ``builtin:NAME`` names a CSV
bundled with ``route``; it is read and checked as a CSV path is.

Optional ``[fuzzy:likelihood]``, ``[fuzzy:undesirability]`` and
``[fuzzy:ig]`` sections replace a subsystem's membership functions and
rule base; see ``parse_fuzzy_section``.

Subcommands: ``run``, ``validate``, ``replay-tables``, as ``fearover`` or
``python -m fearover.cli``.  Exit codes: 0 done; 1 an invariant failed or a
table's total is off; 2 an unusable scenario, route source or output directory,
reported on one line.  ``FEAROVER_LOG=INFO`` or ``DEBUG`` logs each scenario
loaded and run finished; any other value leaves ``logging`` unimported.
``configparser`` and the scenario and run stack are imported when a scenario
is loaded, so ``replay-tables`` loads only the timing model (``crsite``).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import cache

from ._records import record, replace
from .automaton import BandThresholds
from .crsite import REPLAY_DISTANCES_PATCHES, TIMING_PRESETS, TimingModel, replay_attempts

class ScenarioError(Exception):
    """A scenario failed to load; the message names the section, key or CSV line at fault."""


@record
class Scenario:
    db: RouteDb
    config: SimConfig
    fear_model: FearModel
    out_dir: Path


def _get(parser: configparser.ConfigParser, section: str, key: str, cast, default=None):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ScenarioError(f"[{section}] {key} = {raw!r}: {exc}") from None


def _path(parser: configparser.ConfigParser, section: str, key: str, fallback: str) -> str:
    """A path as written.  ``out ; note`` was ``out`` with a note while ``;``
    started inline comments, so it is refused rather than read as a path."""
    import re
    raw = parser.get(section, key, fallback=fallback)
    if re.search(r"\s;", raw):
        raise ScenarioError(f"[{section}] {key} = {raw!r}: only '#' starts an inline comment")
    return raw


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _bool(raw: str) -> bool:
    import configparser
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


def parse_membership(raw: str) -> MembershipFunction:
    """``a,b,c,d`` breakpoints; three values make a triangle."""
    from .fuzzy import MembershipFunction, tri
    parts = [float(p) for p in raw.split(",")]
    if len(parts) == 3:
        return tri(*parts)
    if len(parts) == 4:
        return MembershipFunction(*parts)
    raise ValueError(f"expected 3 or 4 breakpoints, got {len(parts)}")


def _items(raw: str, sep: str, kind: str, shape: str):
    """Each non-empty ``;``-separated item of ``raw``, split at its first ``sep``."""
    for item in raw.split(";"):
        item = item.strip()
        if not item:
            continue
        head, _, tail = item.partition(sep)
        if not tail:
            raise ValueError(f"{kind} {item!r} must look like {shape}")
        yield head, tail


def _parse_terms(raw: str) -> tuple[tuple[str, MembershipFunction], ...]:
    return tuple((label.strip(), parse_membership(quad))
                 for label, quad in _items(raw, ":", "term", "LABEL:a,b,c,d"))


def _parse_rules(raw: str) -> RuleBase:
    from .fuzzy import RuleBase
    rules = tuple((tuple(map(int, antecedent.split(","))), int(consequent))
                  for antecedent, consequent in _items(raw, "->", "rule", "i,j->k"))
    if not rules:
        raise ValueError("at least one rule required")
    return RuleBase(rules)


def parse_fuzzy_section(parser: configparser.ConfigParser, section: str,
                        template: FuzzySystem) -> FuzzySystem:
    """Build a subsystem from ``input1_terms``/``input2_terms``/
    ``output_terms``/``rules``/``grid_resolution``/``monotone`` keys,
    defaulting each to the template's.  ``monotone = off`` drops the
    rectified surface and exposes the raw Mamdani pipeline."""
    from .fuzzy import FuzzySystem, LinguisticVariable

    def variable(key: str, base: LinguisticVariable) -> LinguisticVariable:
        return _get(parser, section, key, lambda raw: LinguisticVariable(
            base.name, base.lo, base.hi, _parse_terms(raw)), base)

    inputs = (variable("input1_terms", template.inputs[0]),
              variable("input2_terms", template.inputs[1]))
    output = variable("output_terms", template.output)
    rule_base = _get(parser, section, "rules", _parse_rules, template.rule_base)
    resolution = _get(parser, section, "grid_resolution", int, template.grid_resolution)
    monotone = template.monotone if _get(parser, section, "monotone", _bool, True) else None
    try:
        system = FuzzySystem(
            inputs=inputs,
            output=output,
            rule_base=rule_base,
            grid_resolution=resolution,
            monotone=monotone,
        )
    except ValueError as exc:
        raise ScenarioError(f"[{section}]: {exc}") from None
    # A point that fires no rule would grade 0.0 without a word.
    if (gap := system.uncovered()) is not None:
        point, held = gap
        at = ", ".join(f"{var.name} = {x!r}" for var, x in zip(inputs, point))
        if () in held:
            why = f"no {inputs[held.index(())].name} term holds"
        else:
            why = (f"no rule {','.join(str(terms[0]) for terms in held)}->k for "
                   + ", ".join(repr(var.terms[terms[0]][0]) for var, terms in zip(inputs, held)))
        rules = parser.get(section, "rules", fallback=None)
        key = f"[{section}]" if rules is None else f"[{section}] rules = {rules!r}"
        raise ScenarioError(f"{key}: no rule fires at {at} ({why})")
    return system


def _ini_fields(cls) -> dict[str, tuple[str, object]]:
    """INI key -> (field name, cast) for each field of ``cls`` that is not a record."""
    import typing
    hints = typing.get_type_hints(cls)
    keys = {}
    for name in cls._fields:
        hint = hints[name]
        if hasattr(hint, "_fields"):
            continue
        # ``float | None`` casts as float; an absent key keeps the default.
        cast = _bool if hint is bool else next(
            t for t in typing.get_args(hint) or (hint,) if t is not type(None))
        # The one key that differs from its field name: ``seed`` sets ``start_seed``.
        keys["seed" if name == "start_seed" else name] = (name, cast)
    return keys


_FUZZY_SECTIONS = {"fuzzy:likelihood": "likelihood_system",
                   "fuzzy:undesirability": "undesirability_system",
                   "fuzzy:ig": "global_intensity_system"}


@cache
def _fields() -> dict[str, tuple[type, dict[str, tuple[str, object]]]]:
    """Section -> (config record, its ``_ini_fields``); the first load imports the run stack."""
    from .fear import FearParams
    from .sim import SimConfig
    records = {"sim": SimConfig, "fear": FearParams, "pdfa": BandThresholds,
               "timing": TimingModel}
    return {section: (cls, _ini_fields(cls)) for section, cls in records.items()}


@cache
def _known_keys() -> dict[str, set[str]]:
    """Section -> the keys it may hold."""
    known = {section: set(keys) for section, (_, keys) in _fields().items()}
    known["timing"].add("preset")
    fuzzy = {"input1_terms", "input2_terms", "output_terms", "rules", "grid_resolution",
             "monotone"}
    return {**known, "route": {"source", "bad_threshold_dbm"}, "output": {"dir"},
            **dict.fromkeys(_FUZZY_SECTIONS, fuzzy)}


def _build(parser: configparser.ConfigParser, section: str, **given):
    """The section's config record from the keys present; its constructor validates."""
    cls, keys = _fields()[section]
    kwargs = {name: _get(parser, section, key, cast)
              for key, (name, cast) in keys.items()
              if parser.has_option(section, key)}
    try:
        return cls(**kwargs, **given)
    except ValueError as exc:
        raise ScenarioError(f"[{section}] {exc}") from None


def _syntax_error(exc: configparser.Error, lines: list[str]) -> str:
    """A ``read_string`` error on the scenario ``lines`` as ``line N: reason``,
    on one line: its own text names the file again and may take three."""
    import configparser
    if isinstance(exc, configparser.DuplicateSectionError):
        return f"line {exc.lineno}: section [{exc.section}] appears twice"
    if isinstance(exc, configparser.DuplicateOptionError):
        return f"line {exc.lineno}: [{exc.section}] {exc.option} is set twice"
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"line {exc.lineno}: {exc.line.strip()!r} comes before any [section] header"
    if isinstance(exc, configparser.ParsingError):
        lineno = exc.errors[0][0]
        return f"line {lineno}: cannot parse {lines[lineno - 1].strip()!r}"
    return " ".join(str(exc).split())


def load_scenario(path: str | Path, preset_override: str | None = None,
                  seed_override: int | None = None,
                  out_override: str | None = None) -> Scenario:
    import configparser
    from pathlib import Path

    from .fear import FearModel
    from .route import DEFAULT_BAD_THRESHOLD_DBM, RouteDb, builtin_csv
    from .sim import resolve_run
    path = Path(path)
    # No interpolation: a value reaches its cast as written, ``%`` and all.
    # Only ``#`` starts an inline comment: ``;`` separates ``[fuzzy:*]`` items.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read the scenario: {exc.strerror}") from None
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ScenarioError(_syntax_error(exc, text.split("\n"))) from None
    known = _known_keys()
    for section in parser.sections():
        if section not in known:
            raise ScenarioError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in known[section]:
                raise ScenarioError(f"[{section}] unknown key {key!r}")

    threshold = _get(parser, "route", "bad_threshold_dbm", _finite, DEFAULT_BAD_THRESHOLD_DBM)
    source = _path(parser, "route", "source", "builtin:survey")
    if source.startswith("builtin:"):
        try:
            csv_path = builtin_csv(source.removeprefix("builtin:"))
        except KeyError as exc:
            raise ScenarioError(f"[route] source: {exc.args[0]}") from None
    else:
        csv_path = Path(source)
        if not csv_path.is_absolute():
            csv_path = path.parent / csv_path
    try:
        db = RouteDb.from_csv(csv_path.read_text(encoding="utf-8"), threshold)
    except OSError as exc:  # missing, a directory, unreadable
        raise ScenarioError(f"[route] source: {csv_path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ScenarioError(f"{csv_path}: {exc}") from None

    named = parser.get("timing", "preset", fallback="custom")
    custom = [key for key in _fields()["timing"][1] if parser.has_option("timing", key)]
    if named != "custom" and custom:
        raise ScenarioError(f"[timing] {custom[0]} is set, but preset {named!r} "
                            "fixes every latency; use preset = custom")
    preset = preset_override or named
    if preset == "custom":
        timing = _build(parser, "timing")
    elif preset in TIMING_PRESETS:
        timing = TIMING_PRESETS[preset]
    else:
        raise ScenarioError(
            f"[timing] preset {preset!r} not one of {sorted(TIMING_PRESETS)}")
    fear = _build(parser, "fear")
    config = _build(parser, "sim", fear=fear, bands=_build(parser, "pdfa"),
                    timing=timing)
    if seed_override is not None:
        config = replace(config, start_seed=seed_override)
    try:
        resolve_run(config, db)  # what ``Simulation`` would refuse, refused here
    except ValueError as exc:
        raise ScenarioError(f"[sim] {exc}") from None

    model = FearModel(fear)
    for section, attr in _FUZZY_SECTIONS.items():
        if parser.has_section(section):
            setattr(model, attr, parse_fuzzy_section(parser, section, getattr(model, attr)))

    out_dir = Path(out_override or _path(parser, "output", "dir", "out"))
    if not out_dir.is_absolute():
        out_dir = Path.cwd() / out_dir
    if (log := _logger()) is not None:
        log.info("scenario %s: %d route points over %.0f m, providers %s",
                 path, len(db.labels), db.route_length_m, ", ".join(db.providers))
    return Scenario(db=db, config=config, fear_model=model, out_dir=out_dir)


# ``sim``'s run, export and checks, imported on a command's first call, so that
# ``replay-tables`` never loads ``sim``.  The benchmark's traced pass rebinds them here.
def run(config: SimConfig, db, fear_model: FearModel | None = None):
    from .sim import run
    return run(config, db, fear_model)


def runlog_to_csv(log) -> str:
    from .sim import runlog_to_csv
    return runlog_to_csv(log)


def check_all_invariants(log) -> list:
    from .sim import check_all_invariants
    return check_all_invariants(log)


def _write_outputs(scenario: Scenario, log_) -> list:
    scenario.out_dir.mkdir(parents=True, exist_ok=True)
    (scenario.out_dir / "runlog.csv").write_text(runlog_to_csv(log_), encoding="utf-8")
    (scenario.out_dir / "summary.txt").write_text(log_.summary_text(scenario.config.timing),
                                                  encoding="utf-8")
    reports = check_all_invariants(log_)
    (scenario.out_dir / "invariants.txt").write_text(_invariants_text(reports), encoding="utf-8")
    return reports


def _invariants_text(reports: list) -> str:
    """``invariants.txt``, and what ``validate`` prints: each report's lines."""
    return "".join(line + "\n" for report in reports for line in report.lines())


def _load_and_run(args: argparse.Namespace):
    """Scenario + run log, or an exit code on configuration errors."""
    try:
        scenario = load_scenario(args.scenario, args.preset, args.seed, args.out)
        log_ = run(scenario.config, scenario.db, scenario.fear_model)
    except (ScenarioError, ValueError) as exc:
        detail = exc.args[0] if exc.args else exc
        print(f"error: {args.scenario}: {detail}", file=sys.stderr)
        return None, None, 2
    if (log := _logger()) is not None:
        log.info("run finished: %d ticks, %d attempts, %d stays, %d losses",
                 log_.ticks, len(log_.attempts), len(log_.stays), len(log_.losses))
    return scenario, log_, 0


def cmd_run(args: argparse.Namespace) -> int:
    scenario, log_, code = _load_and_run(args)
    if code:
        return code
    reports = _write_outputs(scenario, log_)
    failed = [r.name for r in reports if not r.passed]
    print(f"wrote {scenario.out_dir}/runlog.csv, summary.txt, invariants.txt")
    if failed:
        print(f"invariant failures: {', '.join(failed)}")
        if args.strict:
            return 1
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    _, log_, code = _load_and_run(args)
    if code:
        return code
    reports = check_all_invariants(log_)
    print(_invariants_text(reports), end="")
    return 0 if all(report.passed for report in reports) else 1


def cmd_replay_tables(_args: argparse.Namespace) -> int:
    expected_totals = {"worst": 4, "average": 9, "best": 10}
    all_good = True
    for name, timing in TIMING_PRESETS.items():
        attempts = replay_attempts(timing)
        successes = sum(1 for a in attempts if a.success)
        print(f"{name} case (sensing {timing.crst_s}s, optimisation {timing.megaot_s}s, "
              f"setup {timing.hot_s}s):")
        print("  distance_patches  time_left_s  required_s  outcome")
        for distance, attempt in zip(REPLAY_DISTANCES_PATCHES, attempts):
            outcome = "success" if attempt.success else "failure"
            print(f"  {distance:>16}  {attempt.time_left_s:>11.2f}  "
                  f"{attempt.required_s:>10.6f}  {outcome}")
        print(f"  total: {successes}/{len(attempts)} successful")
        all_good = all_good and successes == expected_totals[name]
    return 0 if all_good else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fearover",
        description="Fear-controlled spectrum-handover simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", required=True, help="scenario INI file")
        p.add_argument("--out", help="output directory (overrides [output] dir)")
        p.add_argument("--preset", choices=sorted(TIMING_PRESETS),
                       help="timing preset (overrides [timing])")
        p.add_argument("--seed", type=int, help="random start-position seed")

    p_run = sub.add_parser("run", help="run a scenario and write artifacts")
    scenario_args(p_run)
    p_run.add_argument("--strict", action="store_true",
                       help="exit 1 when an invariant fails")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="run a scenario and check invariants")
    scenario_args(p_val)
    p_val.set_defaults(func=cmd_validate)

    p_tab = sub.add_parser("replay-tables",
                           help="replay the timing-outcome tables for all presets")
    p_tab.set_defaults(func=cmd_replay_tables)
    return parser


def _logger():
    """The ``fearover`` logger if ``FEAROVER_LOG`` is DEBUG or INFO, else None."""
    if os.environ.get("FEAROVER_LOG", "").upper() not in ("DEBUG", "INFO"):
        return None
    import logging
    return logging.getLogger("fearover")


def main(argv: list[str] | None = None) -> int:
    if _logger() is not None:
        import logging
        logging.basicConfig(level=getattr(logging, os.environ["FEAROVER_LOG"].upper()))
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``fearover validate ... | head -1``).  Stop
        # quietly; stdout goes to devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:  # an output directory that cannot be written
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    return code


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
