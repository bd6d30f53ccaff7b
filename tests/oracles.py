"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written from scratch against the
definitions (no imports from the package) so that each production path is
checked by a second, structurally different computation.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import random
from collections.abc import Sequence

import numpy as np


# -- membership / Mamdani ------------------------------------------------------

def reference_trap(a: float, b: float, c: float, d: float, x: float) -> float:
    if x < a or x > d:
        return 0.0
    if b <= x <= c:
        return 1.0
    if x < b:
        return (x - a) / (b - a)
    return (d - x) / (d - c)


@functools.lru_cache(maxsize=8)
def _sampled_terms(output_terms: tuple[tuple[float, float, float, float], ...],
                   lo: float, hi: float, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """The output sample points and each output term's membership at them."""
    xs = [lo + (hi - lo) * step / (resolution - 1) for step in range(resolution)]
    return np.array(xs), np.array([[reference_trap(*quad, x) for x in xs]
                                   for quad in output_terms])


def reference_mamdani(input_terms: list[list[tuple[float, float, float, float]]],
                      output_terms: list[tuple[float, float, float, float]],
                      rules: list[tuple[tuple[int, ...], int]],
                      values: tuple[float, ...],
                      lo: float = 0.0, hi: float = 1.0,
                      resolution: int = 1001) -> float:
    """Straight-line raw Mamdani: min firing rule by rule, then min clipping,
    max aggregation and discrete centroid over the sampled output terms.
    Returns NaN when nothing fires."""
    values = [min(max(x, lo), hi) for x in values]
    levels = reference_levels(input_terms, len(output_terms), rules, values)
    xs, samples = _sampled_terms(tuple(map(tuple, output_terms)), lo, hi, resolution)
    agg = np.minimum(samples, np.array(levels)[:, None]).max(axis=0)
    den = agg.sum()
    if den == 0.0:
        return float("nan")
    return float((xs * agg).sum() / den)


def reference_levels(input_terms: list[list[tuple[float, float, float, float]]],
                     n_outputs: int, rules: list[tuple[tuple[int, ...], int]],
                     values: tuple[float, ...]) -> list[float]:
    """Clip level of each output term at ``values``: the strongest min firing,
    rule by rule, among the rules that conclude it; 0.0 where none fires."""
    mus = [[reference_trap(*quad, x) for quad in terms] for terms, x in zip(input_terms, values)]
    levels = [0.0] * n_outputs
    for antecedent, consequent in rules:
        strength = min(mus[k][i] for k, i in enumerate(antecedent))
        levels[consequent] = max(levels[consequent], strength)
    return levels


def reference_centroid_trapz(xs: np.ndarray, mus: np.ndarray) -> float:
    """Centroid via trapezoidal quadrature (different scheme from the
    production Riemann sum)."""
    return float(np.trapezoid(xs * mus, xs) / np.trapezoid(mus, xs))


# -- five-level fear subsystems ------------------------------------------------

LEVEL_QUADS = [
    (0.0, 0.0, 0.1, 0.24),
    (0.1, 0.3, 0.3, 0.5),
    (0.25, 0.49, 0.49, 0.73),
    (0.51, 0.7, 0.7, 0.9),
    (0.76, 0.9, 1.0, 1.0),
]


def reference_rule_grid(polarity_a: int, polarity_b: int) -> list[tuple[tuple[int, int], int]]:
    rules = []
    for i in range(5):
        for j in range(5):
            rank_a = i if polarity_a > 0 else 4 - i
            rank_b = j if polarity_b > 0 else 4 - j
            rules.append(((i, j), math.floor((rank_a + rank_b) / 2 + 0.5)))
    return rules


def reference_raw_subsystem(polarity_a: int, polarity_b: int,
                            a: float, b: float) -> float:
    value = reference_mamdani(
        [LEVEL_QUADS, LEVEL_QUADS], LEVEL_QUADS,
        reference_rule_grid(polarity_a, polarity_b), (a, b))
    return 0.0 if math.isnan(value) else value


@functools.lru_cache(maxsize=8)
def _rectified_grid(polarity_a: int, polarity_b: int,
                    nodes: int) -> tuple[tuple[float, ...], ...]:
    axis = [k / (nodes - 1) for k in range(nodes)]
    grid = [[reference_raw_subsystem(polarity_a, polarity_b, x, y) for y in axis]
            for x in axis]
    # prefix max toward each polarity's worse side
    rows = range(nodes)
    for i in (rows if polarity_a > 0 else reversed(rows)):
        for j in (range(nodes) if polarity_b > 0 else reversed(range(nodes))):
            best = grid[i][j]
            i_prev = i - polarity_a
            j_prev = j - polarity_b
            if 0 <= i_prev < nodes:
                best = max(best, grid[i_prev][j])
            if 0 <= j_prev < nodes:
                best = max(best, grid[i][j_prev])
            grid[i][j] = best
    return tuple(tuple(row) for row in grid)


def reference_rectified_subsystem(polarity_a: int, polarity_b: int,
                                  a: float, b: float, nodes: int = 65) -> float:
    """Monotone majorant of the raw subsystem surface on a node grid,
    queried by bilinear interpolation; mirrors the production definition
    with independent code."""
    grid = _rectified_grid(polarity_a, polarity_b, nodes)
    fa = min(max(a, 0.0), 1.0) * (nodes - 1)
    fb = min(max(b, 0.0), 1.0) * (nodes - 1)
    ia, ib = min(int(fa), nodes - 2), min(int(fb), nodes - 2)
    ta, tb = fa - ia, fb - ib
    return (grid[ia][ib] * (1 - ta) * (1 - tb)
            + grid[ia + 1][ib] * ta * (1 - tb)
            + grid[ia][ib + 1] * (1 - ta) * tb
            + grid[ia + 1][ib + 1] * ta * tb)


# -- geodesy --------------------------------------------------------------------

def reference_great_circle_m(lat1: float, lon1: float, lat2: float, lon2: float,
                             radius: float = 6371008.8) -> float:
    """Great-circle distance via the atan2 formulation (Vincenty special
    case for the sphere), structurally different from the haversine form."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dlam = math.radians(lon2 - lon1)
    y = math.hypot(
        math.cos(phi2) * math.sin(dlam),
        math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlam),
    )
    x = math.sin(phi1) * math.sin(phi2) + math.cos(phi1) * math.cos(phi2) * math.cos(dlam)
    return radius * math.atan2(y, x)


def reference_haversine_m(lat1: float, lon1: float, lat2: float, lon2: float,
                          radius: float = 6371008.8) -> float:
    """The haversine form, operation for operation as the route database
    evaluates it, so distances along a route agree to the bit."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    half_dphi = (phi2 - phi1) / 2.0
    half_dlam = math.radians(lon2 - lon1) / 2.0
    h = math.sin(half_dphi) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(half_dlam) ** 2
    return 2.0 * radius * math.asin(min(1.0, math.sqrt(h)))


def reference_route(text: str, bad_threshold_dbm: float) -> dict:
    """A survey CSV read row by row with ``csv``: labels, coordinates,
    readings per provider, distance along the route and each provider's
    bad-point indices.  Assumes the text is well formed."""
    rows = [row for row in csv.reader(io.StringIO(text))
            if row and "".join(row).strip() and not row[0].lstrip().startswith("#")]
    header = [field.strip() for field in rows[0]]
    providers = header[3:]
    body = [[field.strip() for field in row] for row in rows[1:]]
    lats = [float(row[1]) for row in body]
    lons = [float(row[2]) for row in body]
    readings = {p: [float(row[3 + k]) for row in body] for k, p in enumerate(providers)}
    cumulative = [0.0]
    for k in range(1, len(body)):
        cumulative.append(cumulative[-1] + reference_haversine_m(lats[k - 1], lons[k - 1],
                                                                 lats[k], lons[k]))
    bad = {p: [k for k, dbm in enumerate(column) if dbm <= bad_threshold_dbm]
           for p, column in readings.items()}
    return {"providers": providers, "labels": [row[0] for row in body], "latitudes": lats,
            "longitudes": lons, "readings": readings, "cumulative_m": cumulative, "bad": bad}


def route_csv(providers: Sequence[str], rows: list[tuple]) -> str:
    """Survey CSV text with a ``label,lat,lon,<providers>`` header and one
    line per ``(label, lat, lon, *readings)`` row.  Every number is written
    by ``repr``, so a float loads back as the very value given."""
    lines = [",".join(["label", "lat", "lon", *providers])]
    lines += [",".join([label, *map(repr, numbers)]) for label, *numbers in rows]
    return "\n".join(lines) + "\n"


# -- tick pipeline ----------------------------------------------------------------

_ALERT_SUFFIX = ("", "a", "b")
_ACTIONS = ("keep_current", "initiate_sensing", "initiate_optimizer", "initiate_handover")


def reference_run(providers: list[str], points: list[tuple[str, float, dict[str, float]]],
                  bad_threshold_dbm: float, fear, *, tick_s: float, speed_mps: float,
                  start_m: float, stop_m: float | None, start_seed: int | None,
                  initial_provider: str, thresholds: tuple[float, float, float],
                  timing: tuple[float, float, float]) -> list[tuple]:
    """The tick pipeline restated from the README's "Semantics worth knowing".

    ``points`` is ``(label, position along the route, readings)`` in drive
    order; ``fear(distance_m, threat_dbm)`` appraises one threat (the
    fear model, horizon included); ``thresholds`` is (low, mid, high) and
    ``timing`` (sensing, optimisation, connection setup) seconds.  Each
    event is the tuple of a run-log row: band by name, symbol and action
    by value, an attempt as (from, to, required_s, time_left_s, success)
    and a stay as (provider, current_dbm, future_dbm).
    """
    positions = [position for _, position, _ in points]
    stop = positions[-1] if stop_m is None else stop_m
    position = start_m
    if start_seed is not None:
        position = random.Random(start_seed).uniform(
            start_m, max(stop - speed_mps * tick_s, start_m))
    low, mid, high = thresholds
    required_s = timing[0] + timing[1] + timing[2]

    provider = initial_provider
    slots = {p: k + 1 for k, p in enumerate(providers[:3])}
    slot, alert = slots[provider], 0
    decided: dict[tuple[str, int], str] = {}   # episode -> "stay" | "failed"
    target = None                              # the in-use provider's targeted point
    events = []
    tick = 0
    while True:
        position = min(position + speed_mps * tick_s, stop)

        # Crossing the targeted point closes its episode: a loss unless stayed.
        loss = False
        if target is not None and position >= positions[target]:
            loss = decided.pop((provider, target), None) != "stay"
            target = None

        # The next bad-signal point strictly ahead, by a linear scan.
        ahead = None
        for index, (_, at, readings) in enumerate(points):
            if at > position and readings[provider] <= bad_threshold_dbm:
                ahead = index
                break
        if ahead is None:
            distance = threat = None
            level = 0.0
        else:
            distance = positions[ahead] - position
            threat = points[ahead][2][provider]
            level = fear(distance, threat)

        band = 0 if level < low else 1 if level < mid else 2 if level <= high else 3
        if band == 3 and alert == 2:
            symbol = "C"
        else:
            goal = min(band, 2)
            if goal == alert:
                symbol = "S"
            else:
                alert += 1 if goal > alert else -1
                symbol = "I" if alert == 2 else "M"
        state = f"{slot}{_ALERT_SUFFIX[alert]}"

        # The nearest passed point (the first point before the route
        # starts) and the next point ahead (the last point past the end).
        passed, upcoming = 0, len(points) - 1
        for index, at in enumerate(positions):
            if at <= position:
                passed = index
            else:
                upcoming = index
                break

        attempt = stay = None
        remapped = False
        in_use = provider
        if symbol == "C" and (provider, ahead) not in decided:
            futures = {p: points[upcoming][2][p] for p in providers}
            best = max(futures.values())
            choice = provider if futures[provider] >= best else next(
                p for p in providers if futures[p] == best)
            if choice == provider:
                stay = (provider, points[passed][2][provider], futures[provider])
                decided[(provider, ahead)] = "stay"
            else:
                time_left_s = distance / speed_mps
                success = time_left_s > required_s
                attempt = (provider, choice, required_s, time_left_s, success)
                if not success:
                    decided[(provider, ahead)] = "failed"
                else:
                    if choice not in slots:
                        slots[choice] = slots.pop(provider)
                        remapped = True
                    slot, alert = slots[choice], 0
                    provider = choice

        events.append((tick, position, in_use, state, level, f"B{band}", symbol,
                       _ACTIONS[band], distance, threat, points[passed][2][in_use],
                       points[upcoming][2][in_use], attempt, stay, loss, remapped))
        if provider != in_use:
            target = None
            decided.clear()
        else:
            target = ahead
        tick += 1
        if position >= stop:
            return events


# -- run-log export -----------------------------------------------------------------

RUNLOG_HEADER = (
    "tick", "position_m", "provider", "state", "fear", "band", "symbol", "action",
    "distance_to_bssp_m", "threat_dbm", "signal_now_dbm", "signal_future_dbm",
    "ho_from", "ho_to", "ho_required_s", "ho_time_left_s", "ho_success",
    "stay_provider", "stay_current_dbm", "stay_future_dbm", "loss", "slot_remapped",
)


def reference_runlog_csv(events) -> str:
    """The run log's bytes as ``csv.writer`` spells the rows: a float by its
    ``repr``, ``None`` as an empty field, anything else by ``str``, and a field
    quoted only where it holds a delimiter, quote or line break.  ``events``
    are tick events read by field name: band by name, symbol and action by
    value, booleans as ``true``/``false``."""
    def flag(value: bool) -> str:
        return "true" if value else "false"

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(RUNLOG_HEADER)
    for e in events:
        a, s = e.attempt, e.stay
        writer.writerow([
            e.tick, e.position_m, e.provider, e.state, e.fear, e.band.name, e.symbol.value,
            e.action.value, e.distance_to_bssp_m, e.threat_dbm, e.signal_now_dbm,
            e.signal_future_dbm,
            *(("",) * 5 if a is None else (a.from_provider, a.to_provider, a.required_s,
                                           a.time_left_s, flag(a.success))),
            *(("",) * 3 if s is None else (s.provider, s.current_dbm, s.future_dbm)),
            flag(e.loss), flag(e.slot_remapped),
        ])
    return out.getvalue()
