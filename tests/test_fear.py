import fnmatch
import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fearover import fear
from fearover._records import replace
from fearover.fear import (
    FearInputs,
    FearModel,
    FearParams,
    _default_systems,
    _surface_table_bytes,
    fear_intensity,
    five_level_variable,
    global_intensity_system,
    graded_rule_grid,
    likelihood_system,
    normalize_distance,
    normalize_signal,
    undesirability_system,
)
from fearover.fuzzy import (
    MONOTONE_NODES,
    FuzzySystem,
    LinguisticVariable,
    RuleBase,
    trap,
)

from oracles import reference_rectified_subsystem

PARAMS = FearParams()
# The default subsystems, as every default FearModel grades with them.
DEFAULT = FearModel()
ROOT = Path(__file__).resolve().parent.parent


class TestNormalisation:
    def test_signal_floor(self):
        assert normalize_signal(-100, PARAMS) == 0.0

    def test_signal_ceiling(self):
        assert normalize_signal(-30, PARAMS) == 1.0

    def test_signal_midpoint(self):
        assert normalize_signal(-65, PARAMS) == pytest.approx(0.5)

    def test_signal_clamps(self):
        assert normalize_signal(-120, PARAMS) == 0.0
        assert normalize_signal(0, PARAMS) == 1.0

    def test_distance_zero(self):
        assert normalize_distance(0.0, PARAMS) == 0.0

    def test_distance_horizon(self):
        # 75 m = 15 patches, the zero-fear distance
        assert normalize_distance(75.0, PARAMS) == 1.0

    def test_distance_half(self):
        assert normalize_distance(37.5, PARAMS) == pytest.approx(0.5)

    def test_distance_saturates(self):
        assert normalize_distance(500.0, PARAMS) == 1.0

    def test_distance_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize_distance(-1.0, PARAMS)

    def test_custom_signal_window(self):
        params = FearParams(signal_floor_dbm=-120.0, signal_ceiling_dbm=-40.0)
        assert normalize_signal(-120.0, params) == 0.0
        assert normalize_signal(-40.0, params) == 1.0
        assert normalize_signal(-80.0, params) == pytest.approx(0.5)

    def test_custom_horizon(self):
        params = FearParams(distance_horizon_m=100.0)
        assert normalize_distance(50.0, params) == pytest.approx(0.5)


class TestRuleGrid:
    def test_full_grid(self):
        rules = graded_rule_grid(-1, -1).rules
        assert len(rules) == 25
        assert len({ant for ant, _ in rules}) == 25

    def test_corner_consequents(self):
        table = dict(graded_rule_grid(-1, -1).rules)
        assert table[(0, 0)] == 4  # worst corner -> highest grade
        assert table[(4, 4)] == 0
        assert table[(2, 2)] == 2

    def test_monotone_along_rows(self):
        table = dict(graded_rule_grid(1, 1).rules)
        for i in range(5):
            row = [table[(i, j)] for j in range(5)]
            assert row == sorted(row)


class TestSubsystemGrades:
    """Band membership pinned by the intensity tables; exact values from
    the independent rectified-surface oracle."""

    def test_likelihood_worst_corner(self):
        value = DEFAULT.likelihood_system.infer((0.0, 0.0))
        assert 0.76 <= value <= 1.0
        assert value == pytest.approx(reference_rectified_subsystem(-1, -1, 0.0, 0.0), abs=1e-9)

    def test_likelihood_best_corner(self):
        value = DEFAULT.likelihood_system.infer((1.0, 1.0))
        assert 0.0 <= value <= 0.24
        assert value == pytest.approx(reference_rectified_subsystem(-1, -1, 1.0, 1.0), abs=1e-9)

    def test_likelihood_centre(self):
        value = DEFAULT.likelihood_system.infer((0.5, 0.5))
        assert 0.25 <= value <= 0.73
        assert value == pytest.approx(reference_rectified_subsystem(-1, -1, 0.5, 0.5), abs=1e-9)

    def test_undesirability_worst(self):
        value = DEFAULT.undesirability_system.infer((1.0, 0.0))
        assert 0.76 <= value <= 1.0
        assert value == pytest.approx(reference_rectified_subsystem(1, -1, 1.0, 0.0), abs=1e-9)

    def test_undesirability_best(self):
        value = DEFAULT.undesirability_system.infer((0.0, 1.0))
        assert 0.0 <= value <= 0.24
        assert value == pytest.approx(reference_rectified_subsystem(1, -1, 0.0, 1.0), abs=1e-9)

    def test_undesirability_centre(self):
        value = DEFAULT.undesirability_system.infer((0.5, 0.5))
        assert 0.25 <= value <= 0.73
        assert value == pytest.approx(reference_rectified_subsystem(1, -1, 0.5, 0.5), abs=1e-9)

    @pytest.mark.parametrize("system, polarity", [
        (DEFAULT.likelihood_system, (-1, -1)), (DEFAULT.undesirability_system, (1, -1)),
        (DEFAULT.global_intensity_system, (1, 1)),
    ], ids=["likelihood", "undesirability", "global_intensity"])
    def test_every_surface_node(self, system, polarity):
        axis = [k / (MONOTONE_NODES - 1) for k in range(MONOTONE_NODES)]
        for a in axis:
            for b in axis:
                assert system.infer((a, b)) == pytest.approx(
                    reference_rectified_subsystem(*polarity, a, b), abs=1e-9)

    def test_global_intensity_high(self):
        value = DEFAULT.global_intensity_system.infer((1.0, 1.0))
        assert 0.76 <= value <= 1.0
        assert value == pytest.approx(reference_rectified_subsystem(1, 1, 1.0, 1.0), abs=1e-9)

    def test_global_intensity_low(self):
        value = DEFAULT.global_intensity_system.infer((0.0, 0.0))
        assert 0.0 <= value <= 0.24
        assert value == pytest.approx(reference_rectified_subsystem(1, 1, 0.0, 0.0), abs=1e-9)

    def test_global_intensity_mixed(self):
        value = DEFAULT.global_intensity_system.infer((1.0, 0.0))
        assert 0.25 <= value <= 0.73
        assert value == pytest.approx(reference_rectified_subsystem(1, 1, 1.0, 0.0), abs=1e-9)


REGENERATE = ("the shipped data/default_surfaces.f64 differs from a fresh kernel build; "
              "regenerate it with scripts/build_default_surfaces.py")
DEFAULT_FACTORIES = (likelihood_system, undesirability_system, global_intensity_system)


@pytest.fixture(scope="module")
def fresh_systems():
    """The three default subsystems, their surfaces built by the kernel."""
    systems = tuple(make() for make in DEFAULT_FACTORIES)
    for system in systems:
        assert "_surface" not in vars(system)  # only _default_systems() seeds one
        system._surface  # built here, by the kernel
    return systems


def _first_difference(nodes, other) -> tuple[int, int] | None:
    return next(((i, j) for i, (row, other_row) in enumerate(zip(nodes, other))
                 for j, (a, b) in enumerate(zip(row, other_row)) if a != b), None)


class TestShippedSurfaces:
    """The default subsystems read their rectified surfaces from package data;
    the kernel stays their source of truth."""

    @pytest.mark.parametrize("k", range(3), ids=["likelihood", "undesirability", "ig"])
    def test_table_equals_a_fresh_kernel_build(self, fresh_systems, k):
        *header, nodes = fresh_systems[k]._surface
        *shipped_header, shipped_nodes = _default_systems()[k]._surface
        assert shipped_header == header, REGENERATE
        assert shipped_nodes == nodes, \
            f"{REGENERATE} (first at node {_first_difference(nodes, shipped_nodes)})"

    def test_build_script_writes_the_shipped_bytes(self, fresh_systems):
        shipped = resources.files("fearover").joinpath("data", "default_surfaces.f64")
        assert _surface_table_bytes(fresh_systems) == shipped.read_bytes(), REGENERATE

    def test_every_data_file_is_package_data(self):
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as f:
            globs = tomllib.load(f)["tool"]["setuptools"]["package-data"]["fearover"]
        package = ROOT / "src" / "fearover"
        for path in (package / "data").iterdir():
            name = path.relative_to(package).as_posix()
            assert any(fnmatch.fnmatch(name, glob) for glob in globs), \
                f"{name} is not in [tool.setuptools.package-data]: a wheel would lack it"


def _inputs(**kwargs) -> FearInputs:
    base = dict(distance_m=10.0, signal_dbm=-90.0)
    base.update(kwargs)
    return FearInputs(**base)


def _grades(inputs: FearInputs, params: FearParams = PARAMS) -> tuple[float, float, float]:
    """(likelihood, undesirability, global intensity) of one appraisal."""
    signal = normalize_signal(inputs.signal_dbm, params)
    distance = normalize_distance(inputs.distance_m, params)
    return (DEFAULT.likelihood_system.infer((distance, signal)),
            DEFAULT.undesirability_system.infer((inputs.comm_importance, signal)),
            DEFAULT.global_intensity_system.infer((inputs.sor, inputs.vtp)))


def _constant_one_system() -> FuzzySystem:
    """A raw two-input system whose every output is exactly 1.0."""
    one = LinguisticVariable("one", 0.0, 1.0, (("one", trap(1.0, 1.0, 1.0, 1.0)),))
    rules = RuleBase(tuple(((i, j), 0) for i in range(5) for j in range(5)))
    unit = five_level_variable("x", ("1", "2", "3", "4", "5"))
    return FuzzySystem(inputs=(unit, unit), output=one, rule_base=rules)


class TestFearPotential:
    """The potential before the threshold: ``intensity`` under ``fear_threshold = 0.0``."""

    def test_no_prospect_no_fear(self):
        assert FearModel(PARAMS).intensity(_inputs(prospect=False)) == 0.0

    def test_desirable_event_no_fear(self):
        assert FearModel(PARAMS).intensity(_inputs(desirability=0.5)) == 0.0

    def test_beyond_horizon_no_fear(self):
        assert FearModel(PARAMS).intensity(_inputs(distance_m=75.0)) == 0.0

    def test_mean_is_idempotent_at_one(self):
        one = _constant_one_system()
        assert FearModel(PARAMS, one, one, one).intensity(_inputs()) == 1.0

    def test_mean_combination(self):
        likelihood, undesirability, global_intensity = _grades(_inputs())
        value = FearModel(PARAMS).intensity(_inputs())
        assert value == pytest.approx(
            (undesirability + likelihood + global_intensity) / 3, abs=1e-12)

    def test_min_combiner(self):
        params = FearParams(combiner="min")
        value = FearModel(params).intensity(_inputs())
        assert value == pytest.approx(min(_grades(_inputs(), params)))

    def test_product_combiner(self):
        params = FearParams(combiner="product")
        likelihood, undesirability, global_intensity = _grades(_inputs(), params)
        value = FearModel(params).intensity(_inputs())
        assert value == pytest.approx(likelihood * undesirability * global_intensity)


def _appraised_the_long_way(model: FearModel, inputs: FearInputs) -> float:
    """``intensity`` as written before ``approach`` existed: every grade
    taken afresh from the one appraisal."""
    params = model.params
    if not inputs.prospect or inputs.desirability >= 0.0:
        return fear_intensity(0.0, params)
    if not model.in_horizon(inputs.distance_m):
        return fear_intensity(0.0, params)
    signal = normalize_signal(inputs.signal_dbm, params)
    potential = fear._combine(
        params.combiner,
        model.undesirability_system.infer((inputs.comm_importance, signal)),
        model.likelihood_system.infer((normalize_distance(inputs.distance_m, params), signal)),
        model.global_intensity_system.infer((inputs.sor, inputs.vtp)))
    return fear_intensity(potential, params)


def _partial_likelihood_system() -> FuzzySystem:
    """A raw likelihood whose rules cover only V-Near distances: farther
    out no rule fires and the grade is 0.0."""
    system = likelihood_system()
    rules = RuleBase(tuple(((0, j), 4 - j) for j in range(5)))
    return replace(system, rule_base=rules, monotone=None)


class TestApproach:
    """``approach(inputs)(d)`` is ``intensity(replace(inputs, distance_m=d))``
    bit for bit, on both sides of the horizon."""

    DISTANCES = (0.0, 5e-324, 3.0, 10.0, 24.0, 37.5, 60.0, math.nextafter(75.0, 0.0), 75.0,
                 math.nextafter(75.0, math.inf), 76.0, 150.0, 1e9)
    SEEDED = ROOT / "scenarios" / "seeded_violation.ini"

    @staticmethod
    def _check(model: FearModel, inputs: FearInputs) -> None:
        appraise = model.approach(inputs)
        for d in TestApproach.DISTANCES:
            at = replace(inputs, distance_m=d)
            expected = repr(model.intensity(at))
            assert repr(appraise(d)) == expected, d
            assert repr(_appraised_the_long_way(model, at)) == expected, d

    @pytest.mark.parametrize("combiner", fear.COMBINERS)
    @pytest.mark.parametrize("threshold", [0.0, 0.3])
    @pytest.mark.parametrize("signal", [-110.0, -90.0, -72.5, -50.0, -20.0])
    def test_default_systems(self, combiner, threshold, signal):
        model = FearModel(FearParams(fear_threshold=threshold, combiner=combiner))
        for importance, sor, vtp in ((1.0, 1.0, 1.0), (0.3, 0.8, 0.2), (0.0, 0.0, 0.0)):
            self._check(model, FearInputs(0.0, signal, importance, sor, vtp))

    @pytest.mark.parametrize("inputs", [_inputs(prospect=False), _inputs(desirability=0.0),
                                        _inputs(desirability=0.5)],
                             ids=["no-prospect", "neutral", "desirable"])
    def test_no_prospect_is_zero_everywhere(self, inputs):
        model = FearModel(FearParams(fear_threshold=0.2))
        self._check(model, inputs)
        assert {repr(model.approach(inputs)(d)) for d in self.DISTANCES} == {"0.0"}

    def test_seeded_violation_raw_likelihood(self):
        from fearover.cli import load_scenario
        model = load_scenario(self.SEEDED).fear_model
        assert model.likelihood_system.monotone is None
        for signal in (-100.0, -85.0, -60.0):
            self._check(model, FearInputs(0.0, signal, 0.6, 0.8, 0.3))

    @pytest.mark.parametrize("combiner", fear.COMBINERS)
    def test_all_zero_likelihood_grades_zero(self, combiner):
        model = FearModel(FearParams(combiner=combiner),
                          likelihood=_partial_likelihood_system())
        inputs = FearInputs(0.0, -90.0)
        likelihood = model.likelihood_system
        point = (normalize_distance(60.0, PARAMS), 0.1)
        assert likelihood._point_levels(point) == [0.0] * 5
        assert likelihood.infer(point) == 0.0
        self._check(model, inputs)
        undesirability, global_intensity = _grades(inputs)[1:]
        # Only the likelihood is zero at 60 m, where no rule fires.
        assert model.approach(inputs)(60.0) == fear._combine(
            combiner, undesirability, 0.0, global_intensity)


class TestFearIntensity:
    def test_zero_threshold(self):
        assert fear_intensity(0.8, PARAMS) == pytest.approx(0.8)

    def test_below_threshold(self):
        assert fear_intensity(0.5, FearParams(fear_threshold=0.6)) == 0.0

    def test_above_threshold(self):
        assert fear_intensity(0.9, FearParams(fear_threshold=0.2)) == pytest.approx(0.7)


class TestValidation:
    def test_bad_combiner(self):
        with pytest.raises(ValueError):
            FearParams(combiner="median")

    def test_bad_signal_window(self):
        with pytest.raises(ValueError):
            FearParams(signal_floor_dbm=-30, signal_ceiling_dbm=-100)

    def test_inputs_ranges(self):
        with pytest.raises(ValueError):
            FearInputs(distance_m=-1, signal_dbm=-50)
        with pytest.raises(ValueError):
            FearInputs(distance_m=1, signal_dbm=-50, sor=1.5)
        with pytest.raises(ValueError):
            FearInputs(distance_m=1, signal_dbm=-50, desirability=-2)

    def test_nan_distance_rejected_at_construction(self):
        with pytest.raises(ValueError, match="distance_m"):
            FearInputs(distance_m=float("nan"), signal_dbm=-90)

    @pytest.mark.parametrize("monotone", [None, (-1, -1)])
    def test_nan_grade_input_raises_not_zero_fear(self, monotone):
        system = replace(likelihood_system(), monotone=monotone)
        with pytest.raises(ValueError, match="'distance' is NaN"):
            system.infer((float("nan"), 0.5))

    @pytest.mark.parametrize("signal", ["nan", "inf", "-inf"])
    def test_non_finite_signal_rejected_at_construction(self, signal):
        with pytest.raises(ValueError, match="signal_dbm"):
            FearInputs(distance_m=10, signal_dbm=float(signal))


class TestEndToEnd:
    def test_calibration_zero_fear_at_horizon(self, fear_model):
        fear = fear_model.intensity(FearInputs(75.0, -50.0))
        assert fear < 0.05

    def test_monotone_in_distance(self, fear_model):
        distances = np.linspace(0.0, 150.0, 200)
        fears = [fear_model.intensity(FearInputs(d, -85.0)) for d in distances]
        assert all(b <= a + 1e-12 for a, b in zip(fears, fears[1:]))

    def test_monotone_in_signal(self, fear_model):
        signals = np.linspace(-100.0, -30.0, 200)
        fears = [fear_model.intensity(FearInputs(30.0, s)) for s in signals]
        assert all(b <= a + 1e-12 for a, b in zip(fears, fears[1:]))

    @given(
        st.floats(0.0, 200.0),
        st.floats(-120.0, 0.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded(self, distance, signal, importance, sor, vtp):
        model = FearModel()
        fear = model.intensity(FearInputs(distance, signal, importance, sor, vtp))
        assert 0.0 <= fear <= 1.0

    @pytest.mark.parametrize("combiner", ["mean", "min", "product"])
    def test_every_combiner_is_monotone(self, combiner):
        model = FearModel(FearParams(combiner=combiner))
        distances = np.linspace(0.0, 150.0, 120)
        fears = [model.intensity(FearInputs(d, -85.0)) for d in distances]
        assert all(b <= a + 1e-12 for a, b in zip(fears, fears[1:]))
        signals = np.linspace(-100.0, -30.0, 120)
        fears = [model.intensity(FearInputs(30.0, s)) for s in signals]
        assert all(b <= a + 1e-12 for a, b in zip(fears, fears[1:]))

    def test_near_threat_fear_is_high(self, fear_model):
        assert fear_model.intensity(FearInputs(5.0, -95.0)) > 0.8
