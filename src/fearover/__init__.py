"""Fear-controlled spectrum mobility for cognitive-radio vehicular networks.

A deterministic simulator and library: a fuzzy fear-appraisal engine drives
a nine-state handover automaton over a surveyed GPS/signal route database,
and a timing model decides whether each handover completes before the
vehicle reaches the bad-signal point.
"""

from .automaton import (
    Alert,
    AutomatonState,
    BandThresholds,
    FearBand,
    MobilitySymbol,
    SlotMap,
    UnmappedProvider,
    base_state,
    classify,
    step,
)
from .crsite import (
    CsmAction,
    EmptyPool,
    HandoverAttempt,
    PoolEntry,
    TIMING_PRESETS,
    TimingModel,
    csm_dispatch,
    execute_handover,
    required_mobility_time,
    select_whitespace,
    sense,
)
from .datasets import load_builtin
from .fear import (
    FearInputs,
    FearModel,
    FearParams,
    fear_intensity,
    normalize_distance,
    normalize_signal,
)
from .fuzzy import (
    FuzzySystem,
    LinguisticVariable,
    MembershipFunction,
    RuleBase,
    trap,
    tri,
)
from .route import (
    DuplicateLabel,
    EmptyDatabase,
    GeoPoint,
    IndexOutOfRange,
    MalformedRow,
    RouteDb,
    SurveyPoint,
    UnknownProvider,
    haversine_m,
)
from .sim import (
    PATCH_M,
    InvariantReport,
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
    replay_attempts,
    run,
    runlog_to_csv,
    time_left,
)

__version__ = "0.1.0"
