"""Fear-controlled spectrum mobility for cognitive-radio vehicular networks.

A deterministic simulator and library: a fuzzy fear-appraisal engine drives
a nine-state handover automaton over a surveyed GPS/signal route database,
and a timing model decides whether each handover completes before the
vehicle reaches the bad-signal point.

The public names below resolve on first access (PEP 562): ``import
fearover`` loads no submodule, and ``fearover.RouteDb`` imports
``fearover.route`` when it is first read.
"""

_HOMES = {
    "automaton": ("Alert", "AutomatonState", "BandThresholds", "FearBand", "MobilitySymbol",
                  "adopt_slot", "base_state", "classify", "slot_holders", "step"),
    "crsite": ("CsmAction", "EmptyPool", "HandoverAttempt", "PATCH_M", "PoolEntry",
               "TIMING_PRESETS", "TimingModel", "csm_dispatch", "execute_handover",
               "replay_attempts", "required_mobility_time", "select_whitespace", "sense",
               "time_left"),
    "fear": ("FearInputs", "FearModel", "FearParams", "fear_intensity", "normalize_distance",
             "normalize_signal"),
    "fuzzy": ("FuzzySystem", "LinguisticVariable", "MembershipFunction", "RuleBase", "trap",
              "tri"),
    "route": ("DuplicateLabel", "EmptyDatabase", "GeoPoint", "IndexOutOfRange", "MalformedRow",
              "RouteDb", "SurveyPoint", "UnknownProvider", "haversine_m", "load_builtin"),
    "sim": ("InvariantReport", "RouteExhausted", "RunLog", "SimConfig", "Simulation",
            "StayEpisode", "TickEvent", "check_all_invariants", "check_invariant1",
            "check_invariant2", "check_invariant3", "parse_runlog_csv", "run",
            "runlog_to_csv"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a public name's home module and cache the value here; any other
    name is missing, so ``from fearover import sim`` imports the submodule."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value
