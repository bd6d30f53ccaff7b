"""Prospect-based fear appraisal driving the handover controller.

The appraised event is the loss of the in-use white space at an upcoming
bad-signal point.  Three fuzzy subsystems grade the appraisal on [0, 1]:

* likelihood of the loss, from distance to the point and the signal there;
* undesirability of the loss, from communication importance and signal;
* global intensity, from sense-of-reality and virtual time proximity.

Fear potential combines the three (arithmetic mean by default) whenever a
prospective undesirable event exists inside the appraisal horizon; fear
intensity is the potential less a configurable threshold, floored at zero.
Points at or beyond the horizon raise no fear at all: there is no concrete
prospect to appraise yet.

Within one approach only the distance moves: ``FearModel.approach``, the one
definition of fear, grades the rest once and gives fear by distance, and
``FearModel.intensity`` is ``approach`` read at the appraisal's own distance.

All three subsystems share the same five-level unit-interval partition and
use the rectified monotone inference surface, so fear responds monotonically
to every input by construction.  Where none of its rules fires, a subsystem
grades 0.0, raw (a ``[fuzzy:*]`` section's ``monotone = off``) or rectified.

The three default subsystems do not build their surfaces: they load them
from ``data/default_surfaces.f64``, shipped with the package, so appraisal
on the default model never imports numpy.  ``scripts/build_default_surfaces.py``
regenerates that table with the fuzzy kernel, and a test checks that the
two agree node for node.  Any other system builds its surface as usual.
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import lru_cache
from importlib import resources

from ._records import record
from .fuzzy import (
    MONOTONE_NODES,
    FuzzySystem,
    LinguisticVariable,
    RuleBase,
    trap,
    tri,
)

COMBINERS = ("mean", "min", "product")

# Shared five-level partition on [0, 1]: supports taken from the published
# intensity tables (0-0.24, 0.1-0.5, 0.25-0.73, 0.51-0.9, 0.76-1), peaks at
# support midpoints.
_LEVEL_SHAPES = (
    trap(0.0, 0.0, 0.1, 0.24),
    tri(0.1, 0.3, 0.5),
    tri(0.25, 0.49, 0.73),
    tri(0.51, 0.7, 0.9),
    trap(0.76, 0.9, 1.0, 1.0),
)


def five_level_variable(name: str, labels: tuple[str, str, str, str, str]) -> LinguisticVariable:
    """A unit-interval variable carrying the standard five-level partition."""
    return LinguisticVariable(name, 0.0, 1.0, tuple(zip(labels, _LEVEL_SHAPES)))


def graded_rule_grid(polarity_a: int, polarity_b: int) -> RuleBase:
    """Full 5x5 rule grid for a two-input five-level system.

    Each input contributes a worse-rank 0..4 oriented by its polarity
    (+1: higher values are worse, -1: lower values are worse); the
    consequent is the half-up-rounded mean of the two ranks.
    """
    rules = []
    for i in range(5):
        for j in range(5):
            rank_a = i if polarity_a > 0 else 4 - i
            rank_b = j if polarity_b > 0 else 4 - j
            consequent = math.floor((rank_a + rank_b) / 2 + 0.5)
            rules.append(((i, j), consequent))
    return RuleBase(tuple(rules))


def likelihood_system() -> FuzzySystem:
    """Likelihood of losing the white space: near + weak signal -> high."""
    return FuzzySystem(
        inputs=(
            five_level_variable("distance", ("V-Near", "Near", "Medium", "V-Far", "Too-Far")),
            five_level_variable("signal", ("Absent", "Bad", "Good", "V-Good", "Excellent")),
        ),
        output=five_level_variable(
            "likelihood",
            ("VL-Likelihood", "L-Likelihood", "A-Likelihood", "H-Likelihood", "VH-Likelihood"),
        ),
        rule_base=graded_rule_grid(-1, -1),
        monotone=(-1, -1),
    )


def undesirability_system() -> FuzzySystem:
    """Undesirability of the loss: important comms + weak signal -> high."""
    return FuzzySystem(
        inputs=(
            five_level_variable("importance", ("V-Low", "Low", "Medium", "High", "V-High")),
            five_level_variable("signal", ("Absent", "Bad", "Good", "V-Good", "Excellent")),
        ),
        output=five_level_variable("undesirability", ("VLD", "LD", "MD", "HD", "VHD")),
        rule_base=graded_rule_grid(1, -1),
        monotone=(1, -1),
    )


def global_intensity_system() -> FuzzySystem:
    """How vividly the prospect is construed: high SOR + high VTP -> high."""
    return FuzzySystem(
        inputs=(
            five_level_variable("sor", ("V-Low", "Low", "Medium", "High", "V-High")),
            five_level_variable("vtp", ("V-Low", "Low", "Medium", "High", "V-High")),
        ),
        output=five_level_variable("global_intensity", ("VLIg", "LIg", "MIg", "HIg", "VIG")),
        rule_base=graded_rule_grid(1, 1),
        monotone=(1, 1),
    )


_SURFACES_FILE = "default_surfaces.f64"
# Per system: x0, dx, y0, dy, then the nodes row by row, as ``_surface`` holds them.
_SURFACE_DOUBLES = 4 + MONOTONE_NODES ** 2


def _surface_table_bytes(systems: tuple[FuzzySystem, ...]) -> bytes:
    """The rectified surfaces of ``systems``, in order, as little-endian doubles:
    the layout of ``data/default_surfaces.f64``."""
    table = array("d")
    for system in systems:
        x0, dx, y0, dy, nodes = system._surface
        table.extend((x0, dx, y0, dy))
        for row in nodes:
            table.extend(row)
    if sys.byteorder == "big":
        table.byteswap()
    return table.tobytes()


@lru_cache(maxsize=1)
def _default_systems() -> tuple[FuzzySystem, FuzzySystem, FuzzySystem]:
    """The likelihood, undesirability and global intensity defaults, each with
    its rectified surface read from the shipped ``data/default_surfaces.f64``
    instead of built by the kernel.  ``scripts/build_default_surfaces.py``
    regenerates the table from fresh systems."""
    systems = likelihood_system(), undesirability_system(), global_intensity_system()
    table = array("d", resources.files(__package__).joinpath("data", _SURFACES_FILE).read_bytes())
    if sys.byteorder == "big":
        table.byteswap()
    if len(table) != len(systems) * _SURFACE_DOUBLES:
        raise ValueError(f"{_SURFACES_FILE} holds {len(table)} doubles, expected "
                         f"{len(systems) * _SURFACE_DOUBLES}; regenerate it with "
                         "scripts/build_default_surfaces.py")
    for k, system in enumerate(systems):
        block = table[k * _SURFACE_DOUBLES:(k + 1) * _SURFACE_DOUBLES]
        x0, dx, y0, dy = block[:4]
        nodes = [block[i:i + MONOTONE_NODES].tolist()
                 for i in range(4, _SURFACE_DOUBLES, MONOTONE_NODES)]
        # The slot functools.cached_property fills on the first lookup.
        system.__dict__["_surface"] = (x0, dx, y0, dy, nodes)
    return systems


@record(frozen=True)
class FearParams:
    """Appraisal configuration.

    ``distance_horizon_m`` is both the distance normalisation scale and the
    prospect horizon: a bad-signal point at or beyond it raises no fear.
    """

    fear_threshold: float = 0.0
    combiner: str = "mean"
    distance_horizon_m: float = 75.0
    signal_floor_dbm: float = -100.0
    signal_ceiling_dbm: float = -30.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fear_threshold <= 1.0:
            raise ValueError("fear_threshold must lie in [0, 1]")
        if self.combiner not in COMBINERS:
            raise ValueError(f"combiner must be one of {COMBINERS}")
        if not 0.0 < self.distance_horizon_m < math.inf:
            raise ValueError("distance_horizon_m must be positive and finite")
        if not -math.inf < self.signal_floor_dbm < self.signal_ceiling_dbm < math.inf:
            raise ValueError("signal_floor_dbm must lie below signal_ceiling_dbm, both finite")


@record(frozen=True)
class FearInputs:
    """One appraisal: the agent/event state at a single tick.

    ``signal_dbm`` is the in-use white space's strength at the appraised
    bad-signal point.  ``prospect`` states whether a prospective event
    exists at all; ``desirability`` is signed, negative for undesirable.
    """

    distance_m: float
    signal_dbm: float
    comm_importance: float = 1.0
    sor: float = 1.0
    vtp: float = 1.0
    prospect: bool = True
    desirability: float = -1.0

    def __post_init__(self) -> None:
        # Written so that NaN fails: it would reach the surface lookup mid-appraisal.
        if not self.distance_m >= 0.0:
            raise ValueError("distance_m must be non-negative")
        if not math.isfinite(self.signal_dbm):
            raise ValueError("signal_dbm must be finite")
        for name in ("comm_importance", "sor", "vtp"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not -1.0 <= self.desirability <= 1.0:
            raise ValueError("desirability must lie in [-1, 1]")


def normalize_signal(dbm: float, params: FearParams) -> float:
    """Map dBm onto [0, 1]; 0 = absent, 1 = excellent.  Clamps outside."""
    span = params.signal_ceiling_dbm - params.signal_floor_dbm
    return min(max((dbm - params.signal_floor_dbm) / span, 0.0), 1.0)


def normalize_distance(distance_m: float, params: FearParams) -> float:
    """Map metres onto [0, 1], saturating at the appraisal horizon."""
    if distance_m < 0.0:
        raise ValueError("distance_m must be non-negative")
    return min(distance_m / params.distance_horizon_m, 1.0)


def _combine(combiner: str, undesirability: float, likelihood: float,
             global_intensity: float) -> float:
    if combiner == "mean":
        return (undesirability + likelihood + global_intensity) / 3.0
    if combiner == "min":
        return min(undesirability, likelihood, global_intensity)
    # "product": ``FearParams`` admits no other combiner.
    return undesirability * likelihood * global_intensity


def fear_intensity(potential: float, params: FearParams) -> float:
    """Potential above the fear threshold; zero otherwise."""
    if potential > params.fear_threshold:
        return potential - params.fear_threshold
    return 0.0


class FearModel:
    """End-to-end appraisal pipeline over a fixed parameterisation."""

    def __init__(self, params: FearParams | None = None,
                 likelihood: FuzzySystem | None = None,
                 undesirability: FuzzySystem | None = None,
                 global_intensity: FuzzySystem | None = None) -> None:
        defaults = _default_systems()
        self.params = params or FearParams()
        self.likelihood_system = likelihood or defaults[0]
        self.undesirability_system = undesirability or defaults[1]
        self.global_intensity_system = global_intensity or defaults[2]

    def in_horizon(self, distance_m: float) -> bool:
        """Whether a threat ``distance_m`` ahead is inside this model's
        appraisal horizon; at or beyond it fear is exactly 0.0."""
        return distance_m < self.params.distance_horizon_m

    def intensity(self, inputs: FearInputs) -> float:
        """Fear intensity in [0, 1] for one appraisal: ``approach`` read at
        the appraisal's own distance."""
        return self.approach(inputs)(inputs.distance_m)

    def approach(self, inputs: FearInputs):
        """Fear intensity by distance alone for the threat of ``inputs``, 0.0
        everywhere without an undesirable prospect: the signal, undesirability
        and global intensity are graded once, the likelihood at each distance."""
        if not inputs.prospect or inputs.desirability >= 0.0:
            return lambda distance_m: 0.0
        params = self.params
        signal_norm = normalize_signal(inputs.signal_dbm, params)
        undesirability = self.undesirability_system.infer((inputs.comm_importance, signal_norm))
        global_intensity = self.global_intensity_system.infer((inputs.sor, inputs.vtp))

        def at(distance_m: float) -> float:
            if not self.in_horizon(distance_m):
                return 0.0
            likelihood = self.likelihood_system.infer(
                (normalize_distance(distance_m, params), signal_norm))
            return fear_intensity(
                _combine(params.combiner, undesirability, likelihood, global_intensity), params)
        return at
