import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fearover import fear
from fearover._records import replace
from fearover.fuzzy import (
    MAX_GRID_RESOLUTION,
    MONOTONE_NODES,
    FuzzySystem,
    LinguisticVariable,
    MembershipFunction,
    RuleBase,
    _pairwise_sum,
    trap,
    tri,
)

from oracles import reference_centroid_trapz, reference_levels, reference_mamdani, reference_trap


class TestMembership:
    def test_plateau(self):
        assert trap(0, 0, 0.1, 0.24)(0.05) == 1.0

    def test_support_boundary(self):
        assert trap(0, 0, 0.1, 0.24)(0.24) == 0.0

    def test_descending_flank(self):
        # (0.24 - 0.17) / (0.24 - 0.10)
        assert trap(0, 0, 0.1, 0.24)(0.17) == pytest.approx(0.5)

    def test_left_shoulder_edge(self):
        assert trap(0, 0, 0.1, 0.24)(0.0) == 1.0

    def test_right_shoulder_edge(self):
        assert trap(0.76, 0.9, 1, 1)(1.0) == 1.0

    def test_outside_support(self):
        mf = tri(0.1, 0.3, 0.5)
        assert mf(0.05) == 0.0
        assert mf(0.9) == 0.0

    def test_triangle_peak(self):
        assert tri(0.1, 0.3, 0.5)(0.3) == 1.0

    def test_invalid_breakpoints(self):
        with pytest.raises(ValueError):
            MembershipFunction(0.5, 0.3, 0.6, 0.7)

    @pytest.mark.parametrize("quad", [(0, 0.5, 1, math.inf), (-math.inf, 0, 0.5, 1),
                                      (-math.inf, -math.inf, 0, 1), (0, 0.5, 1, math.nan)])
    def test_non_finite_breakpoints_rejected(self, quad):
        # trap(0, 0.5, 1, inf)(2.0) would be (inf - 2) / (inf - 1), NaN.
        with pytest.raises(ValueError, match="finite"):
            trap(*quad)

    @given(
        st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
        st.floats(-0.5, 1.5),
    )
    def test_bounded_and_matches_reference(self, quad, x):
        a, b, c, d = sorted(quad)
        mf = MembershipFunction(a, b, c, d)
        mu = mf(x)
        assert 0.0 <= mu <= 1.0
        assert mu == pytest.approx(reference_trap(a, b, c, d, x), abs=1e-12)

    @given(st.floats(0.0, 1.0))
    def test_continuity(self, x):
        mf = trap(0.1, 0.3, 0.5, 0.9)
        eps = 1e-9
        assert abs(mf(x) - mf(x + eps)) < 1e-7


def _one_term_system(mf: MembershipFunction, resolution: int = 1001) -> FuzzySystem:
    """A system whose one output term is ``mf`` on [0, 1], sampled at
    ``resolution`` points: its clip levels are a one-item row."""
    var = LinguisticVariable("v", 0.0, 1.0, (("all", trap(0, 0, 1, 1)),))
    return FuzzySystem(inputs=(var,), output=LinguisticVariable("out", 0.0, 1.0, (("t", mf),)),
                       rule_base=RuleBase((((0,), 0),)), grid_resolution=resolution)


def _kernel_centroid(system: FuzzySystem, levels: list[float]) -> float:
    """The centroid of ``levels`` that inference computes: the array and the
    plain kernel, which must agree under ==."""
    value = system._array_centroid(levels)
    assert system._plain_centroid(levels) == value, levels
    return value


def kernel_vs_quadrature(quad: tuple[float, float, float, float], level: float,
                         resolution: int) -> float | None:
    """How far the kernels' centroid of the trapezoid ``quad`` clipped at
    ``level`` lies from ``oracles.reference_centroid_trapz`` on the kernels'
    own output grid; None where the clipped term samples to 0 on that grid."""
    xs = np.linspace(0.0, 1.0, resolution)
    mus = np.minimum(np.interp(xs, quad, [0.0, 1.0, 1.0, 0.0]), level)
    if mus.sum() == 0.0:
        return None
    ours = _kernel_centroid(_one_term_system(MembershipFunction(*quad), resolution), [level])
    return abs(ours - reference_centroid_trapz(xs, mus))


class TestKernelCentroid:
    def test_symmetric_triangle(self):
        assert _kernel_centroid(_one_term_system(tri(0.2, 0.5, 0.8)), [1.0]) == pytest.approx(
            0.5, abs=1e-9)

    def test_uniform(self):
        assert _kernel_centroid(_one_term_system(trap(0, 0, 1, 1)), [1.0]) == pytest.approx(
            0.5, abs=1e-12)

    @pytest.mark.parametrize("resolution", [1001, MAX_GRID_RESOLUTION])
    def test_clipped_triangle_vs_quadrature_oracle(self, resolution):
        assert kernel_vs_quadrature((0.0, 0.5, 0.5, 1.0), 0.4, resolution) < 1e-12

    def test_no_fired_term_is_zero(self):
        assert _kernel_centroid(_one_term_system(tri(0.2, 0.5, 0.8), 11), [0.0]) == 0.0

    def test_fired_term_sampled_to_zero_is_zero(self):
        # On the grid (0.0, 1.0) the term's support holds no sample.
        system = _one_term_system(tri(0.4, 0.45, 0.5), 2)
        assert system._point_tables[2] == ((0.0, 0.0),)
        assert _kernel_centroid(system, [1.0]) == 0.0


def _low_high(name: str) -> LinguisticVariable:
    return LinguisticVariable(
        name, 0.0, 1.0, (("low", trap(0, 0, 0.2, 0.8)), ("high", trap(0.2, 0.8, 1, 1))))


def _small_large() -> LinguisticVariable:
    return LinguisticVariable(
        "out", 0.0, 1.0,
        (("small", tri(0.0, 0.3, 0.6)), ("large", tri(0.4, 0.7, 1.0))))


def _two_input_system(**kwargs) -> FuzzySystem:
    rules = RuleBase((((0, 0), 0), ((0, 1), 0), ((1, 0), 1), ((1, 1), 1)))
    return FuzzySystem(inputs=(_low_high("x"), _low_high("y")), output=_small_large(),
                       rule_base=rules, **kwargs)


class TestInfer:
    def test_single_rule_reduces_to_term_centroid(self):
        system = _two_input_system()
        assert system._point_levels((0.0, 0.0)) == [1.0, 0.0]
        xs = np.linspace(0, 1, system.grid_resolution)
        mus = np.array([reference_trap(0.0, 0.3, 0.3, 0.6, x) for x in xs])
        value = system.infer((0.0, 0.0))
        assert value == _kernel_centroid(system, [1.0, 0.0])
        assert value == pytest.approx(reference_centroid_trapz(xs, mus), abs=1e-12)

    def test_all_rules_same_symmetric_consequent(self):
        var = LinguisticVariable(
            "v", 0.0, 1.0, (("low", trap(0, 0, 0.4, 0.6)), ("high", trap(0.4, 0.6, 1, 1))))
        output = LinguisticVariable("out", 0.0, 1.0, (("mid", tri(0.2, 0.5, 0.8)),))
        rules = RuleBase((((0,), 0), ((1,), 0)))
        system = FuzzySystem(inputs=(var,), output=output, rule_base=rules)
        assert system.infer((0.3,)) == pytest.approx(0.5, abs=1e-9)

    def test_two_rules_half_strength_matches_bruteforce_oracle(self):
        system = _two_input_system()
        # At (0.5, 0.5) both terms of both inputs fire at exactly 0.5, so the
        # two consequents clip at 0.5/0.5; the oracle recomputes from scratch.
        assert trap(0, 0, 0.2, 0.8)(0.5) == pytest.approx(0.5)
        assert trap(0.2, 0.8, 1, 1)(0.5) == pytest.approx(0.5)
        value = system.infer((0.5, 0.5))
        expected = reference_mamdani(
            [[(0, 0, 0.2, 0.8), (0.2, 0.8, 1, 1)]] * 2,
            [(0.0, 0.3, 0.3, 0.6), (0.4, 0.7, 0.7, 1.0)],
            [((0, 0), 0), ((0, 1), 0), ((1, 0), 1), ((1, 1), 1)],
            (0.5, 0.5),
        )
        assert value == pytest.approx(expected, abs=1e-6)

    def test_no_rule_fired(self):
        # partial rule base: nothing covers the high end of the universe
        output = LinguisticVariable("out", 0.0, 1.0, (("small", tri(0, 0.5, 1)),))
        system = FuzzySystem(inputs=(_low_high("v"),), output=output,
                             rule_base=RuleBase((((0,), 0),)))
        assert system._point_levels((1.0,)) == [0.0]
        assert system.infer((1.0,)) == 0.0

    def test_deterministic_bit_stable(self):
        system = _two_input_system()
        values = {system.infer((0.37, 0.61)) for _ in range(5)}
        fresh = _two_input_system().infer((0.37, 0.61))
        assert len(values) == 1 and fresh in values

    def test_clamping_default(self):
        system = _two_input_system()
        assert system.infer((-1.0, 2.0)) == system.infer((0.0, 1.0))

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            _two_input_system().infer((0.5,))

    @pytest.mark.parametrize("monotone", [None, (1, 1)])
    def test_nan_input_named_and_infinities_clamped(self, monotone):
        system = _two_input_system(monotone=monotone)
        with pytest.raises(ValueError, match="'y' is NaN"):
            system.infer((0.5, float("nan")))
        with pytest.raises(ValueError, match="'x' is NaN"):
            system.infer((float("nan"), 0.5))
        assert system.infer((-np.inf, np.inf)) == system.infer((0.0, 1.0))


class TestRuleBaseValidation:
    def test_duplicate_antecedent(self):
        with pytest.raises(ValueError):
            RuleBase((((0, 0), 0), ((0, 0), 1)))

    def test_consequent_out_of_range(self):
        with pytest.raises(ValueError):
            FuzzySystem(
                inputs=(_low_high("x"), _low_high("y")),
                output=_small_large(),
                rule_base=RuleBase((((0, 0), 7),)),
            )

    def test_antecedent_index_out_of_range(self):
        with pytest.raises(ValueError):
            FuzzySystem(
                inputs=(_low_high("x"), _low_high("y")),
                output=_small_large(),
                rule_base=RuleBase((((5, 0), 0),)),
            )


class TestVariableValidation:
    def test_support_outside_universe(self):
        with pytest.raises(ValueError):
            LinguisticVariable("v", 0.0, 1.0, (("t", trap(-0.1, 0, 0.5, 1)),))

    def test_non_overlapping_terms(self):
        with pytest.raises(ValueError):
            LinguisticVariable(
                "v", 0.0, 1.0,
                (("a", trap(0, 0, 0.1, 0.2)), ("b", trap(0.3, 0.4, 1, 1))))

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 1.0),
                                        (-math.inf, math.inf), (math.nan, 1.0)])
    def test_non_finite_universe_rejected(self, lo, hi):
        # A raw ``infer`` clamps an input to the universe; an infinite end
        # would reach a term's arithmetic as inf.
        with pytest.raises(ValueError, match="v: universe"):
            LinguisticVariable("v", lo, hi, (("t", trap(0, 0, 0.5, 1)),))


class TestMonotoneSurface:
    def test_exactly_monotone_on_grid(self, fear_model):
        system = fear_model.likelihood_system
        xs = np.linspace(0.0, 1.0, 100)
        for fixed in (0.0, 0.15, 0.5, 0.85, 1.0):
            along_first = [system.infer((x, fixed)) for x in xs]
            along_second = [system.infer((fixed, x)) for x in xs]
            assert all(b <= a + 1e-12 for a, b in zip(along_first, along_first[1:]))
            assert all(b <= a + 1e-12 for a, b in zip(along_second, along_second[1:]))

    def test_raw_surface_ripple_is_bounded(self, fear_model):
        # The raw min/max pipeline is only approximately monotone; the
        # rectified surface exists because this ripple is real.  Keep it
        # measured so a regression would be caught.
        raw = FuzzySystem(
            inputs=fear_model.likelihood_system.inputs,
            output=fear_model.likelihood_system.output,
            rule_base=fear_model.likelihood_system.rule_base,
        )
        worst = 0.0
        xs = np.linspace(0.0, 1.0, 100)
        for fixed in (0.15, 0.5, 0.85):
            vals = [raw.infer((x, fixed)) for x in xs]
            worst = max(worst, max(np.diff(vals), default=0.0))
        assert 0.0 < worst < 0.02

    def test_rectified_stays_close_to_raw(self, fear_model):
        system = fear_model.likelihood_system
        raw = FuzzySystem(
            inputs=system.inputs, output=system.output, rule_base=system.rule_base)
        rng = np.random.default_rng(7)
        for x, y in rng.random((200, 2)):
            assert abs(system.infer((x, y)) - raw.infer((x, y))) < 0.05

    @pytest.mark.parametrize("subsystem", ["likelihood_system", "undesirability_system",
                                           "global_intensity_system"])
    def test_rectification_lift_is_bounded(self, fear_model, subsystem):
        # The module docstring's figures: at the 65 x 65 nodes the rectified
        # surface sits up to 0.0295 above the raw one and never below; on the
        # 101 x 101 grid of step 0.01, from 0.0305 above to 0.0151 below.
        system = getattr(fear_model, subsystem)
        raw = replace(system, monotone=None)

        def lift(n: int) -> np.ndarray:
            axis = np.linspace(0.0, 1.0, n).tolist()
            return np.array([[system.infer((x, y)) - raw.infer((x, y)) for y in axis]
                             for x in axis])

        nodes, grid = lift(MONOTONE_NODES), lift(101)
        assert nodes.min() == 0.0 and round(nodes.max(), 4) == 0.0295
        assert round(grid.max(), 4) == 0.0305 and round(-grid.min(), 4) == 0.0151

    def test_polarity_validation(self):
        with pytest.raises(ValueError):
            _two_input_system(monotone=(1,))
        with pytest.raises(ValueError):
            _two_input_system(monotone=(2, 1))

    @pytest.mark.parametrize("n_inputs", [1, 3])
    def test_rectified_surface_needs_two_inputs(self, n_inputs):
        inputs = tuple(_low_high(f"x{k}") for k in range(n_inputs))
        rules = RuleBase((((0,) * n_inputs, 0), ((1,) * n_inputs, 1)))
        FuzzySystem(inputs=inputs, output=_small_large(), rule_base=rules)
        with pytest.raises(ValueError, match="two inputs"):
            FuzzySystem(inputs=inputs, output=_small_large(), rule_base=rules,
                        monotone=(1,) * n_inputs)


def _node_points(system: FuzzySystem) -> np.ndarray:
    axes = [np.linspace(var.lo, var.hi, MONOTONE_NODES) for var in system.inputs]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)


def _partial_rules() -> FuzzySystem:
    # Only "high and high" fires: nodes with x or y below 0.2 stay unfired.
    return FuzzySystem(inputs=(_low_high("x"), _low_high("y")), output=_small_large(),
                       rule_base=RuleBase((((1, 1), 1),)), monotone=(1, 1))


def _signed_output() -> FuzzySystem:
    output = LinguisticVariable("out", -1.0, 1.0, (("neg", tri(-1.0, -0.4, 0.2)),
                                                  ("pos", tri(-0.2, 0.4, 1.0))))
    return FuzzySystem(inputs=(_low_high("x"), _low_high("y")), output=output,
                       rule_base=RuleBase((((0, 0), 0), ((0, 1), 0), ((1, 1), 1))),
                       monotone=(1, 1))


def _vertical_flanks() -> FuzzySystem:
    vertical = lambda name: LinguisticVariable(
        name, 0.0, 1.0, (("low", trap(0, 0, 0.5, 0.5)), ("high", trap(0.4, 0.6, 1, 1))))
    output = LinguisticVariable("out", 0.0, 1.0, (("small", trap(0.0, 0.0, 0.3, 0.6)),
                                                 ("large", trap(0.4, 0.7, 1.0, 1.0))))
    return FuzzySystem(inputs=(vertical("x"), vertical("y")), output=output,
                       rule_base=RuleBase((((0, 0), 0), ((1, 0), 1), ((1, 1), 1))),
                       monotone=(1, -1))


def _reference_levels(system: FuzzySystem, point) -> list[float]:
    """``oracles.reference_levels`` of ``point`` in ``system``, which lies in
    its universes."""
    quads = [[(mf.a, mf.b, mf.c, mf.d) for _, mf in var.terms] for var in system.inputs]
    return reference_levels(quads, len(system.output.terms), system.rule_base.rules, point)


def _assert_infer_equals_surface_kernel(raw: FuzzySystem, points: list) -> None:
    """``raw.infer`` of each point equals the array centroid that builds the
    rectified surface (the batch kernel these tests' names mean), taken of the
    rule-by-rule reference levels, under ==; 0.0 where no rule fires."""
    for point in points:
        assert raw.infer(point) == raw._array_centroid(_reference_levels(raw, point)), point


def _assert_plain_centroid_equals_array(raw: FuzzySystem, points: list) -> None:
    """The plain centroid of each point's clip levels, which ``infer`` skips in
    a process that has loaded numpy, equals the array centroid under ==, 0.0
    where no rule fires included.  Each distinct row of levels is checked
    once: a centroid depends on nothing else."""
    for levels in {tuple(raw._point_levels(point)) for point in points}:
        assert raw._plain_centroid(list(levels)) == raw._array_centroid(list(levels)), levels


# Fresh monotone systems by name: the default subsystems, fixtures with
# unfired nodes, a signed output and vertical flanks, and output grids from
# 2 to 3001 points.
_SURFACE_SYSTEMS = {
    "likelihood_system": fear.likelihood_system,
    "undesirability_system": fear.undesirability_system,
    "global_intensity_system": fear.global_intensity_system,
    "partial_rules": _partial_rules,
    "signed_output": _signed_output,
    "vertical_flanks": _vertical_flanks,
    **{f"resolution_{n}": lambda n=n: _two_input_system(monotone=(1, 1), grid_resolution=n)
       for n in (2, 3, 9, 3001)},
}


class TestDistinctLevelRows:
    """The surface takes each node's raw value; it must equal the prefix
    maxima of the raw values taken node by node, and the levels and both
    centroids must equal their references."""

    @pytest.fixture(params=list(_SURFACE_SYSTEMS))
    def system(self, request, fear_model):
        name = request.param
        if name.endswith("_system"):
            return getattr(fear_model, name)
        return _SURFACE_SYSTEMS[name]()

    def test_raw_nodes_equal_undeduplicated_aggregation(self, system):
        """Each node's clip levels equal the reference's, which fires and
        max-combines every rule on its own."""
        for point in _node_points(system).tolist():
            assert system._point_levels(point) == _reference_levels(system, point), point

    def test_surface_is_majorant_of_undeduplicated_aggregation(self, system):
        raw = replace(system, monotone=None)
        values = [raw.infer(point) for point in _node_points(system).tolist()]
        flips = tuple(slice(None, None, p) for p in system.monotone)
        work = np.array(values).reshape(MONOTONE_NODES, MONOTONE_NODES)[flips]
        work = np.maximum.accumulate(np.maximum.accumulate(work, axis=0), axis=1)
        assert system._surface[4] == work[flips].tolist()

    def test_raw_infer_equals_batch_kernel_at_every_node(self, system):
        _assert_infer_equals_surface_kernel(replace(system, monotone=None),
                                            _node_points(system).tolist())

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=40))
    def test_raw_infer_equals_batch_kernel_between_nodes(self, system, fractions):
        x_var, y_var = system.inputs
        points = [(x_var.lo + u * (x_var.hi - x_var.lo), y_var.lo + v * (y_var.hi - y_var.lo))
                  for u, v in fractions]
        _assert_infer_equals_surface_kernel(replace(system, monotone=None), points)

    def test_plain_centroid_equals_batch_kernel_at_every_node(self, system):
        _assert_plain_centroid_equals_array(replace(system, monotone=None),
                                            _node_points(system).tolist())

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=40))
    def test_plain_centroid_equals_batch_kernel_between_nodes(self, system, fractions):
        x_var, y_var = system.inputs
        points = [(x_var.lo + u * (x_var.hi - x_var.lo), y_var.lo + v * (y_var.hi - y_var.lo))
                  for u, v in fractions]
        _assert_plain_centroid_equals_array(replace(system, monotone=None), points)

    def test_one_sampling_equals_the_array_sampling(self, system):
        """The output grid and terms, sampled once in plain floats, are
        ``np.linspace`` and ``oracles.reference_trap`` on it, and the arrays
        the array centroid reads hold the same floats."""
        _, _, rows, grid = system._point_tables
        linspace = np.linspace(system.output.lo, system.output.hi, system.grid_resolution)
        assert grid == tuple(linspace.tolist())
        assert rows == tuple(tuple(reference_trap(mf.a, mf.b, mf.c, mf.d, x) for x in grid)
                             for _, mf in system.output.terms)
        array_grid, array_rows = system._tables
        assert tuple(array_grid.tolist()) == grid
        assert tuple(tuple(row.tolist()) for row in array_rows) == rows

    def test_unfired_nodes_stay_zero(self):
        system = _partial_rules()
        raw = replace(system, monotone=None)
        for t in np.linspace(0.0, 1.0, MONOTONE_NODES).tolist():
            for point in ((0.0, t), (t, 0.0)):
                assert raw._point_levels(point) == [0.0, 0.0]
                assert raw.infer(point) == 0.0
        assert raw.infer((1.0, 1.0)) > 0.0
        nodes = np.array(system._surface[4])
        assert (nodes[0] == 0.0).all() and (nodes[:, 0] == 0.0).all()
        assert system.infer((0.0, 0.0)) == 0.0


def _seeded_likelihood(polarity: tuple[int, int]) -> FuzzySystem:
    """``seeded_violation``'s raw likelihood rules (an inverted distance
    polarity), rectified under ``polarity``."""
    from fearover.cli import load_scenario
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "seeded_violation.ini"
    return replace(load_scenario(scenario).fear_model.likelihood_system, monotone=polarity)


class TestSurfacePins:
    """The sha256 of each fresh system's rectified surface, as
    ``fear._surface_table_bytes`` lays it out: how ``_surface`` is computed
    may change, its bits may not."""

    PINS = {
        "likelihood_system": "7a08a7fcf20e421f8d628fb0d8884cee95bc07aa0f23a9262d645b39d86f49ff",
        "undesirability_system": "5f74eb2c082d61a3bb4aa089361b937abf6c34daaff72690d2bae2d2d5b9828d",
        "global_intensity_system": "9f77f0a9be745b837343c59962eea493dde997770eb0fc3dc624072160852456",
        "partial_rules": "e7a880e9fc868db48f45b625d212836d0aa1eba1eeb52b38f54600c895f2393c",
        "signed_output": "08fc6847851984e1c78ee3648586a701c9e15afa0fa7fb1717724144c015bf6b",
        "vertical_flanks": "97c024a1205960bb5410b495e760b15a1ffc45a7b8fac5a35a4b53395a2bd0bb",
        "resolution_2": "538d2723be78a7c46eda9ec03e459fe061f45f5630cc60c6c19c3051ebd65d86",
        "resolution_3": "eed48f40358948070641063dbf6fbfd47dc2ded7560236db854ed6801be34c72",
        "resolution_9": "52746a28014605fa39daeced8f44557bff8dfd6e484dc3a65574b6e469da717f",
        "resolution_3001": "be258f818927e29e065530b58bd4635e0d721c615da68ae44ee2a06b1f12063d",
        # The seeded rules' input and output terms are the undesirability
        # subsystem's, and so are its rules under (+1, -1).
        "seeded_likelihood_up_up": "f39fd92c062f77f037e53623f01a68ce431bbdd206f5500ae1acd70c1a899016",
        "seeded_likelihood_up_down": "5f74eb2c082d61a3bb4aa089361b937abf6c34daaff72690d2bae2d2d5b9828d",
        "seeded_likelihood_down_up": "10a2c1ac42c7f2249f2545cc7d0100ab6b08cf0bcb13703125e561a1553eeff1",
        "seeded_likelihood_down_down": "7861a2410b68c8e0a0678d7319ca8e71690fabc1bdc35f22a7fb0087c4a7407e",
    }

    @pytest.mark.parametrize("name", list(PINS))
    def test_surface_sha256(self, name):
        if name.startswith("seeded_likelihood_"):
            signs = {"up": 1, "down": -1}
            system = _seeded_likelihood(tuple(signs[s] for s in name.split("_")[2:]))
        else:
            system = _SURFACE_SYSTEMS[name]()
        digest = hashlib.sha256(fear._surface_table_bytes((system,))).hexdigest()
        assert digest == self.PINS[name]


class TestPairwiseSum:
    """``_pairwise_sum`` is numpy's float64 ``add.reduce``, to the last bit and
    the sign of a zero, at every length to 300 (each branch and block edge)
    and at grid resolutions 1001 and 3001: memberships, and their moments on a
    signed grid, where a zero membership below 0 gives a -0.0 product."""

    def test_equals_add_reduce(self):
        rng = np.random.default_rng(17)
        for n in [*range(1, 301), 1001, 3001]:
            grid = np.linspace(-1.0, 1.0, n)
            mus = np.where(rng.random(n) < 0.4, 0.0, rng.random(n))
            for items in (mus, grid * mus, grid * 0.0, -mus):
                expected = np.add.reduce(items)
                assert repr(_pairwise_sum(items.tolist(), 0, n)) == repr(float(expected)), n


class TestGridResolution:
    def test_cap_accepted(self):
        system = _two_input_system(grid_resolution=MAX_GRID_RESOLUTION)
        assert system.grid_resolution == 10_001

    @pytest.mark.parametrize("resolution", [1, MAX_GRID_RESOLUTION + 1])
    def test_outside_range_rejected(self, resolution):
        with pytest.raises(ValueError, match="grid_resolution"):
            _two_input_system(grid_resolution=resolution)


class TestDefuzzOracleRandomised:
    def test_hundred_random_clipped_aggregations(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            quad = tuple(np.sort(rng.random(4)).tolist())
            level = rng.uniform(0.05, 1.0)
            for resolution in (1001, MAX_GRID_RESOLUTION):
                diff = kernel_vs_quadrature(quad, level, resolution)
                assert diff is None or diff < 1e-12, (quad, level, resolution)


class TestDistinctLevelRowCounts:
    """The module docstring's counts of distinct clip-level rows among the
    4,225 nodes of each default subsystem."""

    @pytest.mark.parametrize("subsystem, rows", [("likelihood_system", 790),
                                                 ("undesirability_system", 1497),
                                                 ("global_intensity_system", 774)])
    def test_exact_count(self, fear_model, subsystem, rows):
        system = getattr(fear_model, subsystem)
        points = _node_points(system).tolist()
        assert len(points) == MONOTONE_NODES ** 2 == 4225
        assert len({tuple(system._point_levels(point)) for point in points}) == rows


def _reference_lookup(system: FuzzySystem, values) -> float:
    """The rectified lookup as separate clamp and cell steps: the arithmetic
    ``infer`` inlines, kept here to pin it exactly."""
    def clamp(x, var):
        if x != x:
            raise ValueError(f"input {var.name!r} is NaN")
        return float(min(max(x, var.lo), var.hi))

    def cell(f):
        i = min(int(f), MONOTONE_NODES - 2)
        return i, min(max(f - i, 0.0), 1.0)

    x0, dx, y0, dy, nodes = system._surface
    i, s = cell((clamp(values[0], system.inputs[0]) - x0) / dx)
    j, t = cell((clamp(values[1], system.inputs[1]) - y0) / dy)
    return ((1.0 - s) * (1.0 - t) * nodes[i][j] + (1.0 - s) * t * nodes[i][j + 1]
            + s * (1.0 - t) * nodes[i + 1][j] + s * t * nodes[i + 1][j + 1])


def _lookup_axis(var: LinguisticVariable) -> list[float]:
    """Every node of ``var``'s axis and its float neighbours, the inside of
    the first and the last cell, and points beyond the universe."""
    nodes = np.linspace(var.lo, var.hi, MONOTONE_NODES).tolist()
    step = (var.hi - var.lo) / (MONOTONE_NODES - 1)
    near = [math.nextafter(x, direction) for x in nodes for direction in (-math.inf, math.inf)]
    cells = [var.lo + step * f for f in (0.25, 0.5, 0.999)]
    cells += [var.hi - step * f for f in (0.001, 0.25, 0.5, 0.75)]
    beyond = [var.lo - 1.0, var.hi + 1.0, -math.inf, math.inf]
    return nodes + near + cells + beyond


def _ramps() -> FuzzySystem:
    # Terms that keep changing up to both universe ends, so no surface cell is flat.
    ramp = lambda name: LinguisticVariable(
        name, 0.0, 1.0, (("low", trap(0, 0, 0, 1)), ("high", trap(0, 1, 1, 1))))
    return FuzzySystem(inputs=(ramp("x"), ramp("y")), output=_small_large(),
                       rule_base=RuleBase((((0, 0), 0), ((0, 1), 0), ((1, 0), 0), ((1, 1), 1))),
                       monotone=(1, 1))


class TestRectifiedLookupExact:
    """``infer`` on a rectified system equals the separate clamp / cell /
    bilinear steps under ==, on and between the nodes and beyond the universe."""

    @pytest.fixture(params=["likelihood_system", "undesirability_system",
                            "global_intensity_system", "two_input", "ramps"])
    def system(self, request, fear_model):
        if request.param == "two_input":
            return _two_input_system(monotone=(1, 1))
        if request.param == "ramps":
            return _ramps()
        return getattr(fear_model, request.param)

    def test_equals_reference_arithmetic(self, system):
        x_axis, y_axis = (_lookup_axis(var) for var in system.inputs)
        for x in x_axis:
            for y in y_axis:
                assert system.infer((x, y)) == _reference_lookup(system, (x, y)), (x, y)

    def test_last_cell_is_interpolated(self):
        # The ramps surface rises across its last cell on both axes.
        system = _ramps()
        _, _, _, _, nodes = system._surface
        assert nodes[-2][-1] < nodes[-1][-1] and nodes[-1][-2] < nodes[-1][-1]
        inside = 1.0 - 0.5 / (MONOTONE_NODES - 1)
        assert nodes[-2][-1] < system.infer((inside, 1.0)) < nodes[-1][-1]
        assert nodes[-1][-2] < system.infer((1.0, inside)) < nodes[-1][-1]


# Trapezoids with sloped and vertical flanks, triangles and a single point.
_MEMBERSHIP_CASES = [trap(0.1, 0.3, 0.5, 0.9), tri(0.2, 0.5, 0.8), trap(0, 0, 0.4, 0.6),
                     trap(0.4, 0.6, 1, 1), trap(0.2, 0.2, 0.5, 0.5), trap(0.3, 0.3, 0.3, 0.7),
                     trap(0.3, 0.7, 0.7, 0.7), trap(0.5, 0.5, 0.5, 0.5), trap(0, 1 / 3, 2 / 3, 1)]


class TestInlineMemberships:
    """The one-point path's membership arithmetic equals
    ``MembershipFunction.__call__`` at every breakpoint and at its float
    neighbours: a one-input, one-rule system passes the membership on as its
    one clip level."""

    @pytest.mark.parametrize("mf", _MEMBERSHIP_CASES, ids=lambda mf: "trap{}".format(
        tuple(round(v, 3) for v in (mf.a, mf.b, mf.c, mf.d))))
    def test_equals_call_at_breakpoints(self, mf):
        output = LinguisticVariable("out", 0.0, 1.0, (("falling", trap(0, 0, 0, 1)),))
        system = FuzzySystem(inputs=(LinguisticVariable("v", -1.0, 2.0, (("t", mf),)),),
                             output=output, rule_base=RuleBase((((0,), 0),)))
        xs = sorted({x for v in (mf.a, mf.b, mf.c, mf.d)
                     for x in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))})
        for x in xs:
            assert system._point_levels((x,)) == [mf(x)], x
            if mf(x) == 0.0:
                assert system.infer((x,)) == 0.0
