"""Mamdani fuzzy inference kernel.

Trapezoidal membership functions, min conjunction, min (clipping)
implication, max aggregation and centroid defuzzification over a sampled
output grid.  Systems are immutable after construction and all operations
are pure functions, so instances can be shared freely across threads.

Min/max aggregation with overlapping partitions is not exactly monotone:
the defuzzified surface ripples by a few 1e-3 where adjacent input terms
that share a consequent cross below full membership.  Systems that must
expose a strictly monotone response (e.g. threat appraisal driving a
controller) can declare a per-input polarity via ``monotone``; inference
then goes through a rectified surface: the raw pipeline is sampled on a
node grid, tightened to its least monotone majorant by directional prefix
maxima, and queried by multilinear interpolation.  The rectified surface
is exactly monotone and stays within the ripple amplitude of the raw one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np


class AllZeroMembership(Exception):
    """No rule fired: the aggregated output membership is identically zero."""


@dataclass(frozen=True)
class MembershipFunction:
    """Trapezoid with breakpoints a <= b <= c <= d; triangle when b == c.

    Membership is 0 outside [a, d], 1 on [b, c] and linear on the flanks.
    A degenerate flank (a == b or c == d) is a vertical shoulder: the
    plateau value wins at the shared breakpoint.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        if not (self.a <= self.b <= self.c <= self.d):
            raise ValueError(f"breakpoints must be non-decreasing: {self}")

    def __call__(self, x: float) -> float:
        if x < self.a or x > self.d:
            return 0.0
        if x < self.b:
            return (x - self.a) / (self.b - self.a)
        if x <= self.c:
            return 1.0
        return (self.d - x) / (self.d - self.c)


def trap(a: float, b: float, c: float, d: float) -> MembershipFunction:
    return MembershipFunction(a, b, c, d)


def tri(a: float, b: float, c: float) -> MembershipFunction:
    return MembershipFunction(a, b, b, c)


@dataclass(frozen=True)
class LinguisticVariable:
    """A named universe [lo, hi] carrying an ordered list of labelled terms."""

    name: str
    lo: float
    hi: float
    terms: tuple[tuple[str, MembershipFunction], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple((str(l), mf) for l, mf in self.terms))
        if not self.lo < self.hi:
            raise ValueError(f"{self.name}: empty universe [{self.lo}, {self.hi}]")
        if not self.terms:
            raise ValueError(f"{self.name}: at least one term required")
        for label, mf in self.terms:
            if mf.a < self.lo or mf.d > self.hi:
                raise ValueError(f"{self.name}/{label}: support outside universe")
        for (l1, m1), (l2, m2) in zip(self.terms, self.terms[1:]):
            if m2.a >= m1.d:
                raise ValueError(f"{self.name}: supports of {l1} and {l2} do not overlap")

    def clamp(self, x: float) -> float:
        return min(max(x, self.lo), self.hi)

    def memberships(self, x: float) -> tuple[float, ...]:
        return tuple(mf(x) for _, mf in self.terms)


Rule = tuple[tuple[int, ...], int]


@dataclass(frozen=True)
class RuleBase:
    """Antecedent term indices (one per input variable) -> consequent index.

    Operators are fixed: min conjunction, min (clipping) implication and
    max aggregation.
    """

    rules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        frozen = tuple((tuple(ant), int(cons)) for ant, cons in self.rules)
        object.__setattr__(self, "rules", frozen)
        seen: set[tuple[int, ...]] = set()
        for ant, _ in frozen:
            if ant in seen:
                raise ValueError(f"duplicate antecedent {ant}")
            seen.add(ant)


@dataclass(frozen=True)
class FuzzySystem:
    """A complete multi-input single-output Mamdani system.

    ``monotone`` optionally declares the output slope sign (+1 or -1) for
    each input and routes inference through the rectified surface; see the
    module docstring.  ``monotone_nodes`` is the rectification grid size
    per axis.
    """

    inputs: tuple[LinguisticVariable, ...]
    output: LinguisticVariable
    rule_base: RuleBase
    grid_resolution: int = 1001
    monotone: tuple[int, ...] | None = None
    monotone_nodes: int = 65

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if self.monotone is not None:
            object.__setattr__(self, "monotone", tuple(self.monotone))
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be at least 2")
        if self.monotone_nodes < 2:
            raise ValueError("monotone_nodes must be at least 2")
        n_in = len(self.inputs)
        for ant, cons in self.rule_base.rules:
            if len(ant) != n_in:
                raise ValueError(f"rule {ant} arity != {n_in} inputs")
            for var, idx in zip(self.inputs, ant):
                if not 0 <= idx < len(var.terms):
                    raise ValueError(f"rule {ant}: no term {idx} in {var.name}")
            if not 0 <= cons < len(self.output.terms):
                raise ValueError(f"rule {ant}: no output term {cons}")
        if self.monotone is not None:
            if len(self.monotone) != n_in:
                raise ValueError("one polarity per input required")
            if any(p not in (-1, 1) for p in self.monotone):
                raise ValueError("polarities must be +1 or -1")

    def _coerce(self, values: Sequence[float]) -> tuple[float, ...]:
        if len(values) != len(self.inputs):
            raise ValueError(f"expected {len(self.inputs)} inputs, got {len(values)}")
        return tuple(float(var.clamp(x)) for var, x in zip(self.inputs, values))

    def _raw_infer(self, xs: tuple[float, ...]) -> float:
        levels = [0.0] * len(self.output.terms)
        mus = [var.memberships(x) for var, x in zip(self.inputs, xs)]
        for ant, cons in self.rule_base.rules:
            strength = min(mu[i] for mu, i in zip(mus, ant))
            if strength > levels[cons]:
                levels[cons] = strength
        grid, term_rows = _output_samples(self)
        agg = np.zeros(self.grid_resolution)
        for row, level in zip(term_rows, levels):
            if level > 0.0:
                np.maximum(agg, np.minimum(row, level), out=agg)
        return defuzz_centroid(grid, agg)

    def infer(self, values: Sequence[float]) -> float:
        """Clamp to the universes -> fuzzify -> fire rules -> clip ->
        aggregate -> centroid."""
        xs = self._coerce(values)
        if self.monotone is None:
            return self._raw_infer(xs)
        return _monotone_surface(self).query(xs)


def defuzz_centroid(xs: Sequence[float] | np.ndarray, mus: Sequence[float] | np.ndarray) -> float:
    """Centroid of a sampled membership: sum(x*mu)/sum(mu).

    Raises AllZeroMembership when no sample carries membership, which
    signals that no rule fired.
    """
    xs = np.asarray(xs, dtype=float)
    mus = np.asarray(mus, dtype=float)
    if xs.shape != mus.shape:
        raise ValueError("sample grid and membership shapes differ")
    total = float(mus.sum())
    if total <= 0.0:
        raise AllZeroMembership("aggregated membership is identically zero")
    return float((xs * mus).sum() / total)


@lru_cache(maxsize=128)
def _output_samples(system: FuzzySystem) -> tuple[np.ndarray, np.ndarray]:
    grid = np.linspace(system.output.lo, system.output.hi, system.grid_resolution)
    rows = np.array([[mf(x) for x in grid] for _, mf in system.output.terms])
    grid.flags.writeable = False
    rows.flags.writeable = False
    return grid, rows


class _MonotoneSurface:
    """Least monotone majorant of the raw surface on a node grid."""

    def __init__(self, system: FuzzySystem) -> None:
        assert system.monotone is not None
        self.axes = [
            np.linspace(var.lo, var.hi, system.monotone_nodes) for var in system.inputs
        ]
        mesh_values = np.empty([system.monotone_nodes] * len(self.axes))
        for idx in itertools.product(*(range(len(ax)) for ax in self.axes)):
            point = tuple(float(ax[i]) for ax, i in zip(self.axes, idx))
            try:
                mesh_values[idx] = system._raw_infer(point)
            except AllZeroMembership:
                mesh_values[idx] = 0.0
        # Orient every axis so the target slope is non-decreasing, take the
        # running prefix maximum per axis, then orient back.
        flips = tuple(slice(None, None, p) for p in system.monotone)
        work = mesh_values[flips]
        for axis in range(work.ndim):
            work = np.maximum.accumulate(work, axis=axis)
        self.values = work[flips]

    def query(self, xs: tuple[float, ...]) -> float:
        idx0 = []
        frac = []
        for ax, x in zip(self.axes, xs):
            step = float(ax[1] - ax[0])
            f = (float(x) - float(ax[0])) / step
            i = min(int(f), len(ax) - 2)
            idx0.append(i)
            frac.append(min(max(f - i, 0.0), 1.0))
        total = 0.0
        for corner in itertools.product((0, 1), repeat=len(xs)):
            weight = 1.0
            for box, t in zip(corner, frac):
                weight *= t if box else 1.0 - t
            if weight > 0.0:
                pos = tuple(i + box for i, box in zip(idx0, corner))
                total += weight * float(self.values[pos])
        return total


@lru_cache(maxsize=32)
def _monotone_surface(system: FuzzySystem) -> _MonotoneSurface:
    return _MonotoneSurface(system)
