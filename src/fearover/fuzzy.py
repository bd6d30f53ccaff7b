"""Mamdani fuzzy inference kernel.

Trapezoidal membership functions, min conjunction, min (clipping)
implication, max aggregation and centroid defuzzification over a sampled
output grid.  Systems are immutable after construction; the tables
inference reads are built once per instance, as cached properties.

One path computes clip levels.  ``_point_levels`` takes one point to the
clip level of each output term, reading ``_point_tables``: per input its
universe and each term's breakpoints as a tuple, with the term's offset
into a rule table keyed by antecedent.  It takes each membership by
``MembershipFunction.__call__``'s arithmetic, written inline, and folds the
inputs' held terms into (antecedent, firing) pairs.

Two kernels take the centroid of a row of levels, over the one sampling of
the output terms in ``_point_tables``.  Each clips and max-combines only the
terms clipped above 0, since a term clipped at 0 cannot raise a max of
memberships that are all >= 0.  Each gives 0.0 where no rule fires, as the
rectified surface does.  ``_array_centroid`` works on numpy rows
(``_tables``), about 10-15 us a point warm.  ``_plain_centroid`` works on
lists of floats, about 0.3 ms a point, but needs no numpy, whose import
costs about 150 ms.  A raw ``infer`` (no ``monotone``) goes through
``_point_value``, which takes the array kernel once numpy is loaded, or once
the process has computed ``PLAIN_VALUE_LIMIT`` plain values, and the plain
one before: a short cold raw run (the ``seeded_violation`` scenario
appraises 41 points) never imports numpy.  The choice is made per call, not
cached, because a process may load numpy after its first appraisal.  The
kernels agree under ``==`` (and by ``repr``): the samples and grid are the
same floats, a min or max of two floats is exact either way, each product
is one IEEE multiplication, and ``_pairwise_sum`` adds the aggregate and
its moments in the order numpy's float64 ``add.reduce`` does.

Min/max aggregation with overlapping partitions is not exactly monotone:
the defuzzified surface ripples where adjacent input terms that share a
consequent cross below full membership.  Systems that must expose a
strictly monotone response (e.g. threat appraisal driving a controller)
declare a polarity for each of their two inputs via ``monotone``; inference
then goes through a rectified surface: the raw pipeline is sampled on a
65 x 65 node grid, tightened to its least monotone majorant by directional
prefix maxima, and queried by bilinear interpolation from ``_lookup``, one
flat tuple of each axis's universe, origin and step and the nodes.  It is
exactly monotone; on the three default fear subsystems it sits up to 0.0295
above the raw surface at the nodes and never below, and on the 101 x 101
grid of step 0.01 from 0.0305 above to 0.0151 below.

The surface runs ``_point_levels`` and ``_array_centroid`` at each of its
4,225 nodes.  Of those rows of levels, 790 are distinct for likelihood,
1,497 for undesirability and 774 for global intensity; none is reused, as
``fear``'s defaults ship built.  On 2 vCPUs (Python 3.11.7, numpy 2.4.6) a
default subsystem's surface takes about 45-75 ms to build.

numpy is imported on the first array-kernel call, not with this module: a
process that only reads rectified surfaces built elsewhere (``fear``'s
shipped defaults) and appraises few raw points never loads it.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property, reduce
from itertools import product
from operator import add
from typing import Sequence

from ._records import record


@record(frozen=True)
class MembershipFunction:
    """Trapezoid with finite breakpoints a <= b <= c <= d; triangle when b == c.

    Membership is 0 outside [a, d], 1 on [b, c] and linear on the flanks.
    A degenerate flank (a == b or c == d) is a vertical shoulder: the
    plateau value wins at the shared breakpoint.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.a, self.b, self.c, self.d))):
            raise ValueError(f"breakpoints must be finite: {self}")
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


@record(frozen=True)
class LinguisticVariable:
    """A named finite universe [lo, hi] carrying an ordered list of labelled terms."""

    name: str
    lo: float
    hi: float
    terms: tuple[tuple[str, MembershipFunction], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple((str(l), mf) for l, mf in self.terms))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"{self.name}: universe [{self.lo}, {self.hi}] must be finite")
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


Rule = tuple[tuple[int, ...], int]


@record(frozen=True)
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


MAX_GRID_RESOLUTION = 10_001
MONOTONE_NODES = 65
# One-point values a process computes in plain floats before it imports numpy
# and keeps to the array kernel.  On 2 vCPUs the plain centroid costs about
# 0.28 ms a call more than the array one and the import about 150 ms: at this
# ski-rental point a long raw run has paid at most about twice the import.
PLAIN_VALUE_LIMIT = 500
_plain_values = 0


@record(frozen=True)
class FuzzySystem:
    """A complete multi-input single-output Mamdani system.

    ``monotone`` optionally declares the output slope sign (+1 or -1) for each
    of exactly two inputs and routes inference through the rectified surface,
    built on the first ``infer``; see the module docstring.
    """

    inputs: tuple[LinguisticVariable, ...]
    output: LinguisticVariable
    rule_base: RuleBase
    grid_resolution: int = 1001
    monotone: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if self.monotone is not None:
            object.__setattr__(self, "monotone", tuple(self.monotone))
        if not 2 <= self.grid_resolution <= MAX_GRID_RESOLUTION:
            raise ValueError(f"grid_resolution must lie in [2, {MAX_GRID_RESOLUTION}]")
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
            if n_in != 2 or len(self.monotone) != 2:
                raise ValueError("monotone needs exactly two inputs, one polarity each")
            if any(p not in (-1, 1) for p in self.monotone):
                raise ValueError("polarities must be +1 or -1")

    def uncovered(self) -> tuple[tuple[float, ...], tuple[tuple[int, ...], ...]] | None:
        """A point of the input universes at which no rule fires, with the
        indices of each input's terms that hold there (membership above 0),
        or ``None`` if some rule fires everywhere.  Exact, and numpy-free:
        which terms hold changes only at breakpoints, so the breakpoints and
        one point between each two neighbours stand for every input."""
        # Per input: each set of terms that holds somewhere -> its first point.
        where: list[dict[tuple[int, ...], float]] = []
        for var in self.inputs:
            cuts = sorted({var.lo, var.hi,
                           *(p for _, mf in var.terms for p in (mf.a, mf.b, mf.c, mf.d))})
            first: dict[tuple[int, ...], float] = {}
            for x in sorted({*cuts, *(u / 2 + v / 2 for u, v in zip(cuts, cuts[1:]))}):
                first.setdefault(tuple(i for i, (_, mf) in enumerate(var.terms) if mf(x) > 0.0), x)
            where.append(first)
        antecedents = {ant for ant, _ in self.rule_base.rules}
        for held in product(*where):
            if antecedents.isdisjoint(product(*held)):
                return tuple(points[h] for points, h in zip(where, held)), held
        return None

    @cached_property
    def _tables(self) -> tuple:
        """``_point_tables``' output grid and sampled output terms as arrays,
        one per term, as ``_array_centroid`` reads them."""
        import numpy as np
        _, _, rows, grid = self._point_tables
        return np.array(grid), tuple(np.array(rows))

    @cached_property
    def _surface(self) -> tuple[float, float, float, float, list[list[float]]]:
        """Each axis's origin and step, then the rectified node values; 0 where no
        rule fires.  Each node starts as its raw value: ``_point_levels``, then
        ``_array_centroid``."""
        import numpy as np
        axes = [np.linspace(var.lo, var.hi, MONOTONE_NODES).tolist() for var in self.inputs]
        work = np.array([[self._array_centroid(self._point_levels((x, y))) for y in axes[1]]
                         for x in axes[0]])
        # Orient every axis so the target slope is non-decreasing, take the
        # running prefix maximum per axis, then orient back.
        flips = tuple(slice(None, None, p) for p in self.monotone)
        work = np.maximum.accumulate(np.maximum.accumulate(work[flips], axis=0), axis=1)
        (x0, x1), (y0, y1) = (ax[:2] for ax in axes)
        return x0, x1 - x0, y0, y1 - y0, work[flips].tolist()

    @cached_property
    def _lookup(self) -> tuple:
        """``_surface`` as the rectified ``infer`` reads it: each input's name,
        universe ends, origin and step, then the lower node index of the last
        cell and the nodes."""
        x0, dx, y0, dy, nodes = self._surface
        x_var, y_var = self.inputs
        return (x_var.name, x_var.lo, x_var.hi, x0, dx,
                y_var.name, y_var.lo, y_var.hi, y0, dy, MONOTONE_NODES - 2, nodes)

    @cached_property
    def _point_tables(self) -> tuple:
        """The system as ``_point_levels`` and the centroids read it: each input's
        name, universe ends and terms, a term as ``(index, a, b, c, d)``; the
        rule table, keyed by the sum of its antecedent terms' indices; each
        output term sampled by ``MembershipFunction.__call__`` on the output
        grid, spaced as ``np.linspace`` spaces it; the grid.  A term's index is
        its position times the term counts of the inputs after it, so every
        antecedent sums to its own key."""
        sizes = [len(var.terms) for var in self.inputs]
        strides = [math.prod(sizes[v + 1:]) for v in range(len(sizes))]
        inputs = tuple((var.name, var.lo, var.hi,
                        tuple((k * stride, mf.a, mf.b, mf.c, mf.d)
                              for k, (_, mf) in enumerate(var.terms)))
                       for var, stride in zip(self.inputs, strides))
        rules = {sum(k * stride for k, stride in zip(ant, strides)): cons
                 for ant, cons in self.rule_base.rules}
        lo, hi, last = self.output.lo, self.output.hi, self.grid_resolution - 1
        step = (hi - lo) / last
        grid = (*(i * step + lo for i in range(last)), hi)
        return inputs, rules, tuple(tuple(map(mf, grid)) for _, mf in self.output.terms), grid

    def _point_levels(self, values: Sequence[float]) -> list[float]:
        """The clip level of each output term at the one point ``values``,
        clamped to the universes: the strongest firing among the rules that
        conclude it, 0.0 where none fires.  Raises ValueError naming the first
        NaN input."""
        inputs, rules, rows, _ = self._point_tables
        # Each antecedent prefix held so far, as (rule table key, firing); the
        # empty prefix fires at 1.0, which no membership exceeds.
        fired = [(0, 1.0)]
        for (name, lo, hi, terms), x in zip(inputs, values):
            if x != x:
                raise ValueError(f"input {name!r} is NaN")
            x = float(lo if x < lo else hi if x > hi else x)
            held = []
            for index, a, b, c, d in terms:  # ``MembershipFunction.__call__``
                if x < a or x > d:
                    continue
                if x < b:
                    mu = (x - a) / (b - a)
                elif x <= c:
                    mu = 1.0
                else:
                    mu = (d - x) / (d - c)
                if mu > 0.0:
                    held.append((index, mu))
            fired = [(key + index, firing if firing < mu else mu)
                     for key, firing in fired for index, mu in held]
        levels = [0.0] * len(rows)
        for key, firing in fired:
            cons = rules.get(key)
            if cons is not None and firing > levels[cons]:
                levels[cons] = firing
        return levels

    def _point_value(self, values: Sequence[float]) -> float:
        """The raw value at the one point ``values``: its clip levels, then the
        plain centroid while the process has no numpy and has computed fewer
        than ``PLAIN_VALUE_LIMIT`` plain values, else the array centroid; the
        module docstring says why both give the same value.  0.0 where no rule
        fires, as on the rectified surface."""
        global _plain_values
        levels = self._point_levels(values)
        if "numpy" not in sys.modules and _plain_values < PLAIN_VALUE_LIMIT:
            _plain_values += 1
            return self._plain_centroid(levels)
        return self._array_centroid(levels)

    def _array_centroid(self, levels: list[float]) -> float:
        """Clip each output term at its level in ``levels``, max-combine them and
        take the centroid, with arrays, skipping the terms clipped at 0: they
        cannot raise a max of memberships that are all >= 0."""
        import numpy as np
        grid, rows = self._tables
        agg = None
        for row, level in zip(rows, levels):
            if level > 0.0:
                clipped = np.minimum(row, level)
                agg = clipped if agg is None else np.maximum(agg, clipped, out=agg)
        # No term fired, or the fired ones sample to 0 everywhere on the grid.
        total = 0.0 if agg is None else np.add.reduce(agg)
        if total <= 0.0:
            return 0.0
        return float(np.add.reduce(grid * agg) / total)

    def _plain_centroid(self, levels: list[float]) -> float:
        """``_array_centroid`` in plain floats: the same clips and maxima, and
        the two sums in numpy's order by ``_pairwise_sum``."""
        _, _, rows, grid = self._point_tables
        agg = None
        for row, level in zip(rows, levels):
            if level > 0.0:
                clipped = [s if s < level else level for s in row]
                agg = clipped if agg is None else [a if a > c else c for a, c in zip(agg, clipped)]
        total = 0.0 if agg is None else _pairwise_sum(agg, 0, len(agg))
        if total <= 0.0:
            return 0.0
        return _pairwise_sum([x * m for x, m in zip(grid, agg)], 0, len(agg)) / total

    def infer(self, values: Sequence[float]) -> float:
        """Clamp to the universes -> fuzzify -> fire rules -> clip -> aggregate
        -> centroid; with ``monotone``, a lookup on the rectified surface.

        ±inf clamps to the universe's end; a NaN input raises ValueError.
        Without ``monotone`` the point goes through ``_point_value``; see the
        module docstring.
        """
        if len(values) != len(self.inputs):
            raise ValueError(f"expected {len(self.inputs)} inputs, got {len(values)}")
        if self.monotone is None:
            return self._point_value(values)
        x_name, x_lo, x_hi, x0, dx, y_name, y_lo, y_hi, y0, dy, last, nodes = self._lookup
        x, y = values
        if x != x:
            raise ValueError(f"input {x_name!r} is NaN")
        if y != y:
            raise ValueError(f"input {y_name!r} is NaN")
        # Node coordinates, split into the cell's lower node and the fraction
        # across it, which lies in [0, 1).  Only the universe's far end (or a
        # rounding past it) falls beyond the last cell: it is that cell's end.
        f = (float(x_lo if x < x_lo else x_hi if x > x_hi else x) - x0) / dx
        i = int(f)
        if i > last:
            i, s = last, 1.0
        else:
            s = f - i
        f = (float(y_lo if y < y_lo else y_hi if y > y_hi else y) - y0) / dy
        j = int(f)
        if j > last:
            j, t = last, 1.0
        else:
            t = f - j
        return ((1.0 - s) * (1.0 - t) * nodes[i][j] + (1.0 - s) * t * nodes[i][j + 1]
                + s * (1.0 - t) * nodes[i + 1][j] + s * t * nodes[i + 1][j + 1])


def _pairwise_sum(a: Sequence[float], lo: int, n: int) -> float:
    """numpy's float64 ``add.reduce`` of ``a[lo:lo + n]``, in its order: under 8
    items in sequence, up to 128 in eight strided partial sums and then the
    tail, above that the two halves split at a multiple of 8.  A zero sum is
    +0.0, as numpy's reduction starts from 0.0."""
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(a, lo, half) + _pairwise_sum(a, lo + half, n - half)
    res, tail = 0.0, lo
    if n >= 8:
        tail = lo + n - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = (reduce(add, a[j:tail:8]) for j in range(lo, lo + 8))
        res += ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for i in range(tail, lo + n):
        res += a[i]
    return res
