"""Deterministic tick-driven vehicle simulation.

Each tick advances the vehicle, appraises fear against the next bad-signal
point of the in-use provider (only inside the fear model's own horizon;
beyond it fear is 0.0), steps the automaton, dispatches the CSM
action and performs at most one handover decision per threat episode.
The run log is one event per tick, exportable to CSV byte-stably, plus the
white-space pool each decision (a handover attempt or a stay) sensed,
keyed by its tick.  Attempts, stays and losses live only in their events.

Quiet ticks coast: most ticks change nothing but the position.  At base
alert, with the target outside the fear horizon and stop not reached, a
tick's fear is 0.0, its band B0, its step a self-loop and its action
keep_current; one that reaches an ordinary survey point only reads it.
``Simulation.run`` appends such ticks directly and calls ``tick``, the one
place that appraises, steps, senses and decides, for every other tick.
The log is the same either way.

Fear wiring: the appraised signal is the in-use provider's reading at the
targeted bad-signal point, so within one approach episode fear responds to
distance alone and rises monotonically; ``tick`` grades each episode once
(``FearModel.approach``).  The log still records the current and next-point
readings of the in-use white space at every tick.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from typing import NamedTuple

from ._records import field, record
from .automaton import (
    ALL_STATES,
    Alert,
    BandThresholds,
    FearBand,
    MobilitySymbol,
    adopt_slot,
    base_state,
    classify,
    slot_holders,
    step,
)
from .crsite import (
    DEFAULT_SPEED_MPS,
    CsmAction,
    HandoverAttempt,
    PoolEntry,
    TimingModel,
    csm_dispatch,
    execute_handover,
    select_whitespace,
    sense,
    time_left,
)
from .fear import FearInputs, FearModel, FearParams

# The most ticks a ``Simulation.run`` may be bound to.  A run log holds about
# 260 bytes a tick, so this caps its log near 260 MB: about a 100 km route at
# 0.1 m a tick.  The bundled survey takes 4,220 ticks.
MAX_RUN_TICKS = 1_000_000


class RouteExhausted(Exception):
    """tick() called after the vehicle reached its stop position."""


@record(frozen=True)
class SimConfig:
    tick_s: float = 0.5
    speed_mps: float = DEFAULT_SPEED_MPS
    start_m: float = 0.0
    stop_m: float | None = None
    initial_provider: str | None = None
    fear: FearParams = field(default_factory=FearParams)
    bands: BandThresholds = field(default_factory=BandThresholds)
    timing: TimingModel = field(default_factory=TimingModel)
    comm_importance: float = FearInputs.comm_importance
    sor: float = FearInputs.sor
    vtp: float = FearInputs.vtp
    prospect: bool = FearInputs.prospect
    desirability: float = FearInputs.desirability
    start_seed: int | None = None

    def __post_init__(self) -> None:
        # Written so that NaN fails too: a NaN position never reaches stop_m.
        if not 0.0 < self.tick_s < math.inf:
            raise ValueError("tick_s must be positive and finite")
        if not 0.0 < self.speed_mps < math.inf:
            raise ValueError("speed_mps must be positive and finite")
        if not 0.0 <= self.start_m < math.inf:
            raise ValueError("start_m must be non-negative and finite")
        if self.stop_m is not None and not math.isfinite(self.stop_m):
            raise ValueError("stop_m must be finite")
        # The appraisal fields are range-checked by the FearInputs they feed.
        self.appraisal(0.0, 0.0)

    def appraisal(self, distance_m: float, signal_dbm: float) -> FearInputs:
        """The fear appraisal of a threat ``distance_m`` ahead at ``signal_dbm``."""
        return FearInputs(distance_m, signal_dbm, self.comm_importance, self.sor, self.vtp,
                          self.prospect, self.desirability)


@record(frozen=True)
class StayEpisode:
    """A deliberate keep-using decision at a threat: no better white space."""

    provider: str
    current_dbm: float
    future_dbm: float


class TickEvent(NamedTuple):
    """One tick of the run log, one row of ``runlog.csv``.

    A ``typing.NamedTuple``: immutable, and several times cheaper to build
    than a frozen record.  Equality is strict: an event equals only a
    ``TickEvent`` with equal fields, never the plain tuple of them.
    """

    tick: int
    position_m: float
    provider: str
    state: str
    fear: float
    band: FearBand
    symbol: MobilitySymbol
    action: CsmAction
    distance_to_bssp_m: float | None
    threat_dbm: float | None
    signal_now_dbm: float
    signal_future_dbm: float
    attempt: HandoverAttempt | None = None
    stay: StayEpisode | None = None
    loss: bool = False
    slot_remapped: bool = False

    def __eq__(self, other: object) -> bool:
        return type(other) is TickEvent and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    __hash__ = tuple.__hash__


@record
class RunLog:
    """A run: its tick events and the pool each decision sensed.

    A decision is a tick whose event carries an attempt or a stay;
    ``pools`` maps its tick to the pool ``sense`` returned there.
    ``attempts``, ``stays`` and ``losses`` are views over the events."""

    events: list[TickEvent] = field(default_factory=list)
    pools: dict[int, dict[str, PoolEntry]] = field(default_factory=dict)

    @property
    def attempts(self) -> list[TickEvent]:
        return [e for e in self.events if e.attempt is not None]

    @property
    def stays(self) -> list[TickEvent]:
        return [e for e in self.events if e.stay is not None]

    @property
    def losses(self) -> list[TickEvent]:
        return [e for e in self.events if e.loss]

    def summary_text(self, timing: TimingModel) -> str:
        """``summary.txt``.  Its time lines price the logged ticks with the
        run's ``timing``; a task that was never paid is not printed."""
        spent: defaultdict[str, float] = defaultdict(float)
        sensing, optimizer = CsmAction.INITIATE_SENSING, CsmAction.INITIATE_OPTIMIZER
        for event in self.events:
            action = event.action
            decision = event.attempt is not None or event.stay is not None
            if decision or action is sensing or action is optimizer:
                spent["sensing"] += timing.crst_s
            if decision or action is optimizer:
                spent["optimization"] += timing.megaot_s
            if event.attempt is not None and event.attempt.success:
                spent["handover"] += timing.hot_s
        attempts = self.attempts
        stays = self.stays
        successes = sum(1 for e in attempts if e.attempt.success)
        lines = [
            f"ticks: {len(self.events)}",
            f"handover attempts: {len(attempts)}"
            f" (successful: {successes}, failed: {len(attempts) - successes})",
            f"stay episodes: {len(stays)}",
            f"communication losses: {len(self.losses)}",
        ]
        for event in attempts:
            a = event.attempt
            verdict = "success" if a.success else "failure"
            lines.append(
                f"  tick {event.tick}: {a.from_provider} -> {a.to_provider} "
                f"required {a.required_s:.6f}s, left {a.time_left_s:.6f}s: {verdict}"
            )
        for event in stays:
            s = event.stay
            lines.append(
                f"  tick {event.tick}: stayed on {s.provider} "
                f"({s.current_dbm:g} -> {s.future_dbm:g} dBm)"
            )
        for key, value in sorted(spent.items()):
            lines.append(f"time spent on {key}: {value:.6f}s")
        return "\n".join(lines) + "\n"


def resolve_run(config: SimConfig, db) -> tuple[float, float, float, str, tuple[str, ...]]:
    """Start (drawn when ``start_seed`` is set) and stop position, step a tick,
    initial provider and slot holders of a run of ``config`` over ``db``; raises
    ValueError for a run that cannot start or would never arrive.  It imports
    nothing, so ``load_scenario`` runs it too."""
    stop = config.stop_m if config.stop_m is not None else db.route_length_m
    start = config.start_m
    if config.start_seed is not None:
        span = stop - config.speed_mps * config.tick_s
        start = random.Random(config.start_seed).uniform(config.start_m, max(span, config.start_m))
    if not 0.0 <= start < stop <= db.route_length_m:
        raise ValueError(
            f"need 0 <= start ({start}) < stop ({stop}) <= route length ({db.route_length_m})")
    # A step below the float spacing at stop can round away to nothing
    # (8000.0 + 1e-13 == 8000.0), so the vehicle would never arrive.
    step = min(config.speed_mps * config.tick_s, stop)
    if not step >= math.ulp(stop):
        raise ValueError(
            f"step speed_mps * tick_s = {step!r} is below the float spacing "
            f"{math.ulp(stop)!r} at stop {stop!r}; the vehicle would never arrive")
    provider = config.initial_provider or db.providers[0]
    if provider not in db.providers:
        raise ValueError(f"initial provider {provider!r} not in database")
    slots = slot_holders(db.providers)
    if provider not in slots:
        raise ValueError(f"initial provider {provider!r} holds no automaton slot: "
                         f"only {', '.join(slots)} do")
    return start, stop, step, provider, slots


class Simulation:
    """One vehicle run; owns its mutable state, shares the read-only db.

    A threat episode is the approach to one bad point of the in-use
    provider.  ``_target`` is that point's index as the last tick targeted
    it (``None`` with no bad point ahead), and ``_resolution`` how its
    episode was decided: ``None`` until then, ``"stay"`` or ``"failed"``.
    ``_appraise`` is its ``FearModel.approach``, built at its first
    in-horizon tick and dropped with ``_target``.
    A successful handover ends the episode without a resolution.  The tick
    count is ``len(log.events)``, and the run is over once ``position_m``
    reaches ``stop_m``.
    """

    def __init__(self, config: SimConfig, db, fear_model: FearModel | None = None) -> None:
        self.config = config
        self.db = db
        self.fear_model = fear_model or FearModel(config.fear)
        start, self.stop_m, step, self.provider, self.slots = resolve_run(config, db)
        # From ulp(stop) up, every tick short of stop advances at least
        # step - ulp(stop)/2, half a step or more, which bounds the run; a step
        # past stop (even one that overflows) arrives in one tick.  The ceiling
        # is exact: stop = s/t, start = a/b, step = e/f and ulp(stop) = u/v.
        (s, t), (a, b) = self.stop_m.as_integer_ratio(), start.as_integer_ratio()
        (e, f), (u, v) = step.as_integer_ratio(), math.ulp(self.stop_m).as_integer_ratio()
        self.tick_bound = -((a * t - s * b) * 2 * f * v // (t * b * (2 * e * v - u * f)))
        self.position_m = start
        self.state = base_state(self.slots.index(self.provider) + 1)
        self._target: int | None = None
        self._resolution: str | None = None
        self._appraise = None
        self.log = RunLog()

    # -- the tick pipeline --------------------------------------------------

    def tick(self) -> TickEvent:
        if self.position_m >= self.stop_m:
            raise RouteExhausted(f"vehicle already at stop position {self.stop_m}")
        cfg = self.config
        db = self.db
        position = self.position_m = min(self.position_m + cfg.speed_mps * cfg.tick_s,
                                         self.stop_m)
        cumulative = db.cumulative_m
        # Crossing the targeted point closes its episode: a loss unless stayed.
        loss = False
        if self._target is not None and position >= cumulative[self._target]:
            loss = self._resolution != "stay"
            self._target = self._resolution = self._appraise = None

        # ``next_bad_index`` rejects an unknown provider, so the readings
        # below are taken straight from the provider's column.
        provider = self.provider
        target_index = db.next_bad_index(position, provider)
        readings = db.readings[provider]
        if target_index is None:
            distance = None
            threat_dbm = None
            fear = 0.0
        else:
            distance = cumulative[target_index] - position
            threat_dbm = readings[target_index]
            fear = 0.0
            if self.fear_model.in_horizon(distance):
                if self._appraise is None:
                    self._appraise = self.fear_model.approach(cfg.appraisal(distance, threat_dbm))
                fear = self._appraise(distance)
        passed, ahead = db.segment(position)
        signal_now = readings[passed]
        signal_future = readings[ahead]

        band = classify(fear, cfg.bands)
        action = csm_dispatch(band)
        stepped, symbol = step(self.state, band)
        self.state = stepped

        attempt, stay, remapped = None, None, False
        if symbol is MobilitySymbol.HANDOVER and self._resolution is None:
            attempt, stay, remapped = self._decide_handover(provider, distance)

        events = self.log.events
        event = TickEvent(len(events), position, provider, stepped.label, fear, band,
                          symbol, action, distance, threat_dbm, signal_now, signal_future,
                          attempt, stay, loss, remapped)
        events.append(event)

        if self.provider == provider:
            self._target = target_index
        else:
            self._target = self._resolution = self._appraise = None
        return event

    def _decide_handover(self, provider: str,
                         distance: float) -> tuple[HandoverAttempt | None, StayEpisode | None, bool]:
        pool = sense(self.db, self.position_m)
        self.log.pools[len(self.log.events)] = pool
        choice = select_whitespace(pool, provider)
        if choice == provider:
            entry = pool[provider]
            self._resolution = "stay"
            return None, StayEpisode(provider, entry.current_dbm, entry.future_dbm), False
        attempt = execute_handover(
            provider, choice, time_left(distance, self.config.speed_mps), self.config.timing)
        if attempt.success:
            self.slots, slot, remapped = adopt_slot(self.slots, provider, choice)
            self.state = base_state(slot)
            self.provider = choice
            return attempt, None, remapped
        self._resolution = "failed"
        return attempt, None, False

    def _coast(self, last: TickEvent) -> None:
        """Append the quiet ticks that follow ``last`` without the pipeline.

        A tick is quiet when the automaton is at base alert on the provider
        ``last`` was logged on and the tick does not reach stop and leaves
        the target outside the fear horizon.  Such a tick appraises fear
        0.0, classifies B0, self-loops (S) and keeps the current white
        space: only its position, distance and readings move.  A tick that
        reaches a survey point reads it; that point is not the target, as
        any position at or past the target is inside the horizon.  Stops at
        the tick bound, so that ``run`` raises there."""
        if self.provider != last.provider or self.state.alert is not Alert.BASE:
            return
        db, stop = self.db, self.stop_m
        cumulative, segment = db.cumulative_m, db.segment
        step_m = self.config.speed_mps * self.config.tick_s
        position = self.position_m
        # Short of stop, ``tick``'s ``min(position + step, stop)`` is
        # ``position + step``, and the target and threat stay those of ``last``.
        end = min(cumulative[segment(position)[1]], stop)
        target_m = None if self._target is None else cumulative[self._target]
        in_horizon = self.fear_model.in_horizon
        events, bound = self.log.events, self.tick_bound
        provider, state, threat_dbm = last.provider, last.state, last.threat_dbm
        readings = db.readings[provider]
        now_dbm, future_dbm = last.signal_now_dbm, last.signal_future_dbm
        band, symbol, action = FearBand.B0, MobilitySymbol.SELF, CsmAction.KEEP_CURRENT
        # ``tuple.__new__`` builds the event without the NamedTuple's
        # argument binding, at about half the cost.
        new = tuple.__new__
        while len(events) < bound:
            q = position + step_m
            distance = None
            if target_m is not None:
                distance = target_m - q
                if in_horizon(distance):
                    break
            if q >= end:
                if q >= stop:
                    break
                passed, ahead = segment(q)
                now_dbm = readings[passed]
                future_dbm = readings[ahead]
                end = min(cumulative[ahead], stop)
            events.append(new(TickEvent, (len(events), q, provider, state, 0.0, band, symbol,
                                          action, distance, threat_dbm, now_dbm, future_dbm,
                                          None, None, False, False)))
            position = q
        self.position_m = position

    def run(self) -> RunLog:
        """Tick to stop.  Refuses, before its first tick, a run bound to more
        than ``MAX_RUN_TICKS`` ticks: its log could outgrow memory."""
        if self.tick_bound > MAX_RUN_TICKS:
            raise ValueError(
                f"step speed_mps * tick_s = {self.config.speed_mps * self.config.tick_s!r} m "
                f"over {self.position_m!r} .. {self.stop_m!r} m bounds the run at "
                f"{self.tick_bound} ticks, above the cap of {MAX_RUN_TICKS}")
        events = self.log.events
        while self.position_m < self.stop_m:
            if len(events) >= self.tick_bound:
                raise RuntimeError(
                    f"run exceeded its bound of {self.tick_bound} ticks at {self.position_m!r} m")
            self._coast(self.tick())
        return self.log


def run(config: SimConfig, db, fear_model: FearModel | None = None) -> RunLog:
    """Run a complete simulation; identical inputs give identical logs."""
    return Simulation(config, db, fear_model).run()


# -- invariants --------------------------------------------------------------

# Guard against floating-point representation noise, not model tolerance.
_FP_EPS = 1e-12


@record(frozen=True)
class InvariantReport:
    name: str
    passed: bool
    violations: tuple[str, ...]
    stats: dict

    def lines(self) -> list[str]:
        head = f"{self.name}: {'PASS' if self.passed else 'FAIL'}"
        extras = [f"  {key}={value}" for key, value in sorted(self.stats.items())]
        problems = [f"  violation: {v}" for v in self.violations]
        return [head, *extras, *problems]


def check_invariant1(log: RunLog) -> InvariantReport:
    """While the distance to the threat strictly shrinks and no handover
    happens, fear must not drop."""
    violations = []
    pairs = 0
    for prev, cur in zip(log.events, log.events[1:]):
        if prev.distance_to_bssp_m is None or cur.distance_to_bssp_m is None:
            continue
        if prev.provider != cur.provider:
            continue
        if prev.attempt is not None or cur.attempt is not None:
            continue
        if not cur.distance_to_bssp_m < prev.distance_to_bssp_m:
            continue
        pairs += 1
        if cur.fear < prev.fear - _FP_EPS:
            violations.append(
                f"tick {cur.tick}: fear fell {prev.fear!r} -> {cur.fear!r} "
                f"while distance fell {prev.distance_to_bssp_m!r} -> {cur.distance_to_bssp_m!r}")
    return InvariantReport("Invariant1", not violations, tuple(violations),
                           {"approaching_pairs": pairs})


def check_invariant2(log: RunLog) -> InvariantReport:
    """Completed handovers must adopt the pool's best future signal and
    strictly improve on the in-use one; stays must have had no strictly
    better option.  A decision without a recorded pool, or whose pool lacks
    a provider it names, cannot be judged and is itself a violation."""
    violations = []
    handovers = stays = 0
    for event in log.events:
        a, stay = event.attempt, event.stay
        if a is None and stay is None:
            continue
        if stay is not None:
            stays += 1
        elif a.success:
            handovers += 1
        pool = log.pools.get(event.tick)
        if pool is None:
            violations.append(f"tick {event.tick}: decision without a recorded pool")
            continue
        futures = {p: entry.future_dbm for p, entry in pool.items()}
        named = ((stay.provider,) if stay is not None
                 else (a.from_provider, a.to_provider) if a.success else ())
        missing = [p for p in named if p not in futures]
        if missing:
            violations.append(f"tick {event.tick}: pool lacks {', '.join(missing)}")
            continue
        if stay is not None:
            in_use = stay.provider
            better = {p: f for p, f in futures.items() if f > futures[in_use]}
            if better:
                violations.append(
                    f"tick {event.tick}: stayed on {in_use} at {futures[in_use]} dBm "
                    f"despite better option(s) {better}")
        elif a.success:
            best = max(futures.values())
            if futures[a.to_provider] < best:
                violations.append(
                    f"tick {event.tick}: adopted {a.to_provider} at {futures[a.to_provider]} dBm "
                    f"but the pool held {best} dBm")
            if futures[a.to_provider] <= futures[a.from_provider]:
                violations.append(
                    f"tick {event.tick}: adopted {a.to_provider} at {futures[a.to_provider]} dBm, "
                    f"no better than in-use {a.from_provider} at {futures[a.from_provider]} dBm")
    return InvariantReport("Invariant2", not violations, tuple(violations),
                           {"handovers": handovers, "stays": stays})


def check_invariant3(log: RunLog) -> InvariantReport:
    """Every attempt's verdict must equal the timing inequality; reports
    aggregate success/failure counts."""
    violations = []
    successes = failures = 0
    for event in log.attempts:
        a = event.attempt
        expected = a.time_left_s > a.required_s
        if a.success != expected:
            violations.append(
                f"tick {event.tick}: success={a.success} but time_left {a.time_left_s!r} "
                f"vs required {a.required_s!r} implies {expected}")
        if a.success:
            successes += 1
        else:
            failures += 1
    return InvariantReport("Invariant3", not violations, tuple(violations),
                           {"successes": successes, "failures": failures})


def check_all_invariants(log: RunLog) -> list[InvariantReport]:
    return [check_invariant1(log), check_invariant2(log), check_invariant3(log)]


# -- CSV export ---------------------------------------------------------------

RUNLOG_COLUMNS = (
    "tick", "position_m", "provider", "state", "fear", "band", "symbol", "action",
    "distance_to_bssp_m", "threat_dbm", "signal_now_dbm", "signal_future_dbm",
    "ho_from", "ho_to", "ho_required_s", "ho_time_left_s", "ho_success",
    "stay_provider", "stay_current_dbm", "stay_future_dbm", "loss", "slot_remapped",
)


_HEADER = ",".join(RUNLOG_COLUMNS)
# Bools as the export spells them, indexed by the bool.
_BOOL_TEXT = ("false", "true")
_NO_ATTEMPT = ",,,,"
_NO_STAY = ",,"


def _spell(value) -> str:
    """A field as ``csv.writer`` spells it: a float by its ``repr``, ``None``
    as nothing, anything else by ``str``."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def runlog_to_csv(log: RunLog) -> str:
    """The run log as CSV, one row per tick event, each line ending in ``\\n``.

    Fields are spelled as ``csv.writer`` spells them (see ``_spell``);
    booleans are ``true``/``false``.  No field is ever quoted, because none
    needs it: states, bands, symbols, actions and booleans are fixed tokens,
    a number's spelling holds no comma, and ``RouteDb`` refuses a provider
    name holding ``,``, ``"``, CR or LF.

    Most rows repeat the row before them but for tick, position and
    distance: a coasted tick holds the very objects of the tick before.  A
    row with no attempt, stay, loss or remap whose provider, state, fear,
    band, symbol, action, threat and both readings are the objects the last
    spelled row held reuses that row's middle text (``,provider,…,action,``)
    and tail text (``,threat,…,slot_remapped``) and spells only its tick,
    position and distance.  The comparison is by identity, never by value:
    0.0 == -0.0 and -90 == -90.0, but their spellings differ."""
    lines = [_HEADER]
    append = lines.append
    # The objects ``mid`` and ``tail`` were spelled from.  ``nothing`` is no
    # event's field, so the first row, and the row after one with an
    # attempt, stay, loss or remap, is spelled in full.
    nothing = object()
    last_provider = last_state = last_fear = last_band = last_symbol = last_action = nothing
    last_threat = last_now = last_future = nothing
    for (tick, position_m, provider, state, fear, band, symbol, action, distance_m,
         threat_dbm, now_dbm, future_dbm, attempt, stay, loss, remapped) in log.events:
        if not (fear is last_fear and now_dbm is last_now and future_dbm is last_future
                and threat_dbm is last_threat and provider is last_provider
                and state is last_state and band is last_band and symbol is last_symbol
                and action is last_action and attempt is None and stay is None
                and not loss and not remapped):
            attempt_s = _NO_ATTEMPT if attempt is None else (
                f"{attempt.from_provider},{attempt.to_provider},{_spell(attempt.required_s)},"
                f"{_spell(attempt.time_left_s)},{_BOOL_TEXT[attempt.success]}")
            stay_s = _NO_STAY if stay is None else (
                f"{stay.provider},{_spell(stay.current_dbm)},{_spell(stay.future_dbm)}")
            mid = (f",{provider},{state},{_spell(fear)},{band._name_},{symbol._value_},"
                   f"{action._value_},")
            tail = (f",{_spell(threat_dbm)},{_spell(now_dbm)},{_spell(future_dbm)},"
                    f"{attempt_s},{stay_s},{_BOOL_TEXT[loss]},{_BOOL_TEXT[remapped]}")
            last_provider, last_state, last_fear, last_band, last_symbol, last_action = (
                provider, state, fear, band, symbol, action)
            last_threat, last_now, last_future = threat_dbm, now_dbm, future_dbm
            if attempt is not None or stay is not None or loss or remapped:
                last_fear = nothing
        append(f"{tick},{repr(position_m) if type(position_m) is float else _spell(position_m)}"
               f"{mid}{repr(distance_m) if type(distance_m) is float else _spell(distance_m)}"
               f"{tail}")
    append("")
    return "\n".join(lines)


_BOOLS = {"true": True, "false": False}
_STATE_LABELS = frozenset(state.label for state in ALL_STATES)
_BANDS = {band.name: band for band in FearBand}
_SYMBOLS = {symbol.value: symbol for symbol in MobilitySymbol}
_ACTIONS = {action.value: action for action in CsmAction}
_NUMBER_COLUMNS = (
    "position_m", "fear", "distance_to_bssp_m", "threat_dbm", "signal_now_dbm",
    "signal_future_dbm", "ho_required_s", "ho_time_left_s", "stay_current_dbm",
    "stay_future_dbm",
)


def _check_numbers(row: list[str]) -> None:
    """Raise ValueError naming the first number field of ``row`` that does
    not parse or reads as infinite or NaN."""
    for name in _NUMBER_COLUMNS:
        value = row[RUNLOG_COLUMNS.index(name)]
        if value and not math.isfinite(float(value)):
            raise ValueError(f"non-finite {name} {value!r}")


def parse_runlog_csv(text: str) -> list[TickEvent]:
    """Rebuild tick events from an exported run log (lossless round trip).

    Lines split at ``\\n`` and fields at ``,``: the export quotes no field.
    A row that is not one the export writes raises ``ValueError`` naming its
    line: a ``"`` or a CR anywhere, a wrong field count, a tick other than
    the row's index (its line number less 2), an unknown state,
    band, symbol or action, an empty provider, a number that does not parse
    or is not finite, or a boolean other than ``true``/``false`` (empty
    ``ho_success`` only, where no attempt exists).

    Most rows repeat the row before them but for tick, position and
    distance.  A line whose text after its second comma is the last fully
    parsed row's middle text (``provider,…,action,``), then a distance
    holding no comma, then that row's tail text (``,threat,…,slot_remapped``)
    reuses that row's parsed fields; its tick is still checked and its
    position and distance parsed and checked.  Such a line splits into the
    same 22 fields as that row but for those three, and those fields were
    accepted there, so every rejection, and the line it names, is the one
    the full parse gives.  The length check keeps a row whose empty
    distance was dropped (21 fields, the middle's last comma read as the
    tail's first) from matching."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != _HEADER:
        raise ValueError("unexpected run-log header")
    for char, what in (('"', "a quote, but no field is ever quoted"),
                       ("\r", "a carriage return, but lines end in \\n")):
        at = text.find(char)
        if at >= 0:
            number = text.count("\n", 0, at) + 1
            raise ValueError(f"line {number}: malformed row: {what}")
    width = len(RUNLOG_COLUMNS)
    finite = math.isfinite
    new_event = tuple.__new__
    events = []
    append = events.append
    # ``mid`` and ``tail`` hold the last fully parsed row's texts and that
    # row's parsed fields stay in the locals below.  No line ends with
    # "\n", so none matches before the first row is parsed.
    tail = "\n"
    for number, line in enumerate(lines[1:], start=2):
        if line.endswith(tail):
            tick, position_m, rest = line.split(",", 2)
            end = len(rest) - tail_len
            distance_m = rest[mid_len:end]
            if end >= mid_len and rest.startswith(mid) and "," not in distance_m:
                try:
                    if tick != str(number - 2):
                        raise ValueError(f"tick {tick!r}, expected {number - 2}")
                    position = float(position_m)
                    distance = float(distance_m) if distance_m else None
                    if not finite(position):
                        raise ValueError(f"non-finite position_m {position_m!r}")
                    if distance_m and not finite(distance):
                        raise ValueError(f"non-finite distance_to_bssp_m {distance_m!r}")
                except ValueError as exc:
                    raise ValueError(f"line {number}: malformed row: {exc}") from None
                append(new_event(TickEvent, (
                    number - 2, position, provider, state, level, band, symbol, action,
                    distance, threat, now, future, attempt, stay, loss, remapped)))
                continue
        row = line.split(",")
        if len(row) != width:
            raise ValueError(f"line {number}: expected {width} fields, "
                             f"got {len(row) if line else 0}")
        (tick, position_m, provider, state, fear, band_s, symbol_s, action_s, distance_m,
         threat_dbm, now_dbm, future_dbm, ho_from, ho_to, ho_required_s, ho_time_left_s,
         ho_success, stay_provider, stay_current_dbm, stay_future_dbm, loss_s,
         remapped_s) = row
        try:
            if tick != str(number - 2):
                raise ValueError(f"tick {tick!r}, expected {number - 2}")
            if state not in _STATE_LABELS:
                raise ValueError(f"unknown state {state!r}")
            if not provider:
                raise ValueError("empty provider")
            position = float(position_m)
            level = float(fear)
            distance = float(distance_m) if distance_m else 0.0
            threat = float(threat_dbm) if threat_dbm else 0.0
            now = float(now_dbm)
            future = float(future_dbm)
            # Rows with an attempt or a stay are few: check all their numbers.
            if ho_from or stay_provider or not (
                    finite(position) and finite(level) and finite(distance)
                    and finite(threat) and finite(now) and finite(future)):
                _check_numbers(row)
            attempt = None
            if ho_from:
                attempt = HandoverAttempt(ho_from, ho_to, float(ho_required_s),
                                          float(ho_time_left_s), _BOOLS[ho_success])
            elif ho_success:
                raise ValueError("ho_success without an attempt")
            stay = None
            if stay_provider:
                stay = StayEpisode(stay_provider, float(stay_current_dbm),
                                   float(stay_future_dbm))
            band = _BANDS[band_s]
            symbol = _SYMBOLS[symbol_s]
            action = _ACTIONS[action_s]
            loss = _BOOLS[loss_s]
            remapped = _BOOLS[remapped_s]
        except (KeyError, ValueError) as exc:
            raise ValueError(f"line {number}: malformed row: {exc}") from None
        if not distance_m:
            distance = None
        if not threat_dbm:
            threat = None
        append(new_event(TickEvent, (
            number - 2, position, provider, state, level, band, symbol, action, distance,
            threat, now, future, attempt, stay, loss, remapped)))
        mid = ",".join(row[2:8]) + ","
        tail = "," + ",".join(row[9:])
        mid_len = len(mid)
        tail_len = len(tail)
    return events
