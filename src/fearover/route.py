"""Surveyed route database: ordered GPS points with per-provider signals.

The database is a single road survey: rows appear in drive order, and
distance along the route accumulates great-circle hop lengths between
consecutive points.  A point is a bad-signal point (BSSP) for a provider
when that provider's reading is at or below the database's bad threshold.

CSV schema: ``label,lat,lon,<provider>,...`` with dBm values, a required
header, UTF-8 text and ``#`` comment lines.  A provider name is not empty
and holds no ``,``, ``"``, CR or LF: it becomes a field of ``runlog.csv``,
which quotes no field.

Two databases are bundled, and a scenario names them as ``builtin:<name>``
instead of a CSV path.  ``survey`` is the real F2-Mangla road survey (three
GSM providers, fourteen points, about 8.4 km).  ``four_provider_trace`` is
a synthetic meridian route with four providers used to replay the narrated
handover trace (two handovers, a bridge handover, one deliberate stay).
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from collections.abc import Mapping, Sequence
from importlib import resources
from types import MappingProxyType

from ._records import record

EARTH_RADIUS_M = 6371008.8

DEFAULT_BAD_THRESHOLD_DBM = -80.0

# Bundled route name -> its CSV file under ``data/``.
BUILTIN_ROUTES = {
    "survey": "f2_mangla_survey.csv",
    "four_provider_trace": "four_provider_trace.csv",
}


class MalformedRow(ValueError):
    """A CSV row failed to parse or violated a field constraint."""


class EmptyDatabase(ValueError):
    """Fewer than two usable rows: no route to drive."""


class DuplicateLabel(ValueError):
    """Two rows share a point label."""


class UnknownProvider(KeyError):
    """The named provider is not a column of this database."""


class IndexOutOfRange(IndexError):
    """Point index outside the database."""


# What a run-log field would have to be quoted for.
_QUOTED_CHARS = frozenset(',"\r\n')


def _check_provider_names(names: Sequence[str]) -> None:
    """Raise ValueError unless every name can be written to a run log
    unquoted and no name repeats."""
    for name in names:
        if not name or not _QUOTED_CHARS.isdisjoint(name):
            raise ValueError(f"provider name {name!r} is empty or holds a comma, quote, CR or LF")
    if len(set(names)) != len(names):
        raise ValueError("duplicate provider column")


@record(frozen=True)
class GeoPoint:
    latitude: float
    longitude: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude {self.latitude} outside [-90, 90]")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude {self.longitude} outside [-180, 180]")


def haversine_m(p1: GeoPoint, p2: GeoPoint) -> float:
    """Great-circle distance in metres on a sphere of Earth mean radius."""
    phi1 = math.radians(p1.latitude)
    phi2 = math.radians(p2.latitude)
    dphi = phi2 - phi1
    dlam = math.radians(p2.longitude - p1.longitude)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


@record(frozen=True)
class SurveyPoint:
    """One surveyed location and its per-provider readings.

    ``signals`` is stored as a read-only view of a copy: ``RouteDb`` indexes the
    readings once, so a reading changed afterwards would skip the range check
    and leave that index stale.
    """

    label: str
    point: GeoPoint
    signals: Mapping[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "signals", MappingProxyType(dict(self.signals)))
        for provider, dbm in self.signals.items():
            if not -120.0 <= dbm <= 0.0:
                raise ValueError(f"{provider}={dbm} outside [-120, 0] dBm")

    def signal(self, provider: str) -> float:
        try:
            return self.signals[provider]
        except KeyError:
            raise UnknownProvider(provider) from None


class RouteDb:
    """Immutable-after-load route survey with distance and signal queries.

    ``providers``, ``points`` and ``cumulative_m`` are tuples: the BSSP index
    is built from them once, and the tick loop reads a provider's readings
    without checking it again.
    """

    def __init__(self, providers: list[str], points: list[SurveyPoint],
                 bad_threshold_dbm: float = DEFAULT_BAD_THRESHOLD_DBM) -> None:
        if len(points) < 2:
            raise EmptyDatabase(f"need at least 2 points, got {len(points)}")
        self.bad_threshold_dbm = float(bad_threshold_dbm)
        # NaN would mark no point bad and inf every point: a run with no
        # threats, or nothing but threats, rather than an error.
        if not math.isfinite(self.bad_threshold_dbm):
            raise ValueError(f"bad_threshold_dbm must be finite, got {bad_threshold_dbm}")
        self.providers = tuple(providers)
        _check_provider_names(self.providers)
        self.points = tuple(points)
        cumulative = [0.0]
        for prev, cur in zip(self.points, self.points[1:]):
            cumulative.append(cumulative[-1] + haversine_m(prev.point, cur.point))
            if cumulative[-1] <= cumulative[-2]:
                raise MalformedRow(f"consecutive points {prev.label!r} and {cur.label!r} "
                                   "coincide; route order broken")
        self.cumulative_m = tuple(cumulative)
        # provider -> (positions, indices) of its BSSPs in drive order;
        # positions ascend because ``cumulative_m`` does.
        self._bssps: dict[str, tuple[list[float], list[int]]] = {}
        for p in self.providers:
            indices = [i for i, pt in enumerate(self.points)
                       if pt.signal(p) <= self.bad_threshold_dbm]
            self._bssps[p] = ([cumulative[i] for i in indices], indices)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_csv(cls, text: str,
                 bad_threshold_dbm: float = DEFAULT_BAD_THRESHOLD_DBM) -> "RouteDb":
        lines = []
        for number, raw in enumerate(text.splitlines(), start=1):
            if not raw.strip() or raw.lstrip().startswith("#"):
                continue
            lines.append((number, raw))
        if not lines:
            raise EmptyDatabase("no rows at all")
        header_no, header = lines[0]
        columns = [c.strip() for c in next(csv.reader([header]))]
        if len(columns) < 4 or [c.lower() for c in columns[:3]] != ["label", "lat", "lon"]:
            raise MalformedRow(f"line {header_no}: header must be label,lat,lon,<providers>")
        providers = columns[3:]
        try:
            _check_provider_names(providers)
        except ValueError as exc:
            raise MalformedRow(f"line {header_no}: {exc}") from None

        points: list[SurveyPoint] = []
        seen: set[str] = set()
        for number, raw in lines[1:]:
            fields = [f.strip() for f in next(csv.reader([raw]))]
            if len(fields) != len(columns):
                raise MalformedRow(f"line {number}: expected {len(columns)} fields, got {len(fields)}")
            label = fields[0]
            if label in seen:
                raise DuplicateLabel(f"line {number}: duplicate label {label!r}")
            seen.add(label)
            try:
                lat, lon = float(fields[1]), float(fields[2])
                dbms = [float(f) for f in fields[3:]]
            except ValueError as exc:
                raise MalformedRow(f"line {number}: {exc}") from None
            try:
                points.append(SurveyPoint(label, GeoPoint(lat, lon), dict(zip(providers, dbms))))
            except ValueError as exc:
                raise MalformedRow(f"line {number}: {exc}") from None
        if len(points) < 2:
            raise EmptyDatabase(f"need at least 2 data rows, got {len(points)}")
        return cls(providers, points, bad_threshold_dbm)

    # -- queries -----------------------------------------------------------

    @property
    def route_length_m(self) -> float:
        return self.cumulative_m[-1]

    def next_bad_index(self, position_m: float, provider: str) -> int | None:
        """Index of the first bad point strictly ahead of ``position_m``.

        One bisection over the provider's BSSP positions: O(log B) for B
        bad points, whatever distance the vehicle has already driven.
        """
        try:
            positions, indices = self._bssps[provider]
        except KeyError:
            raise UnknownProvider(provider) from None
        k = bisect_right(positions, position_m)
        return indices[k] if k < len(indices) else None

    def signal_at(self, index: int, provider: str) -> float:
        if provider not in self._bssps:
            raise UnknownProvider(provider)
        if not 0 <= index < len(self.points):
            raise IndexOutOfRange(index)
        return self.points[index].signal(provider)

    def segment(self, position_m: float) -> tuple[int, int]:
        """Indices of the nearest point at or behind ``position_m`` and of the
        next point strictly ahead.  Before the route starts the first point
        counts as passed; past its end the last point counts as ahead."""
        ahead = bisect_right(self.cumulative_m, position_m)
        return max(ahead - 1, 0), min(ahead, len(self.cumulative_m) - 1)

    def current_signal(self, position_m: float, provider: str) -> float:
        """Reading at the nearest passed point."""
        return self.signal_at(self.segment(position_m)[0], provider)

    def future_signal(self, position_m: float, provider: str) -> float:
        """Reading at the next point strictly ahead; last point's past the end."""
        return self.signal_at(self.segment(position_m)[1], provider)


def builtin_csv(name: str) -> resources.abc.Traversable:
    """The bundled CSV file of route ``name``; KeyError names the choices."""
    try:
        filename = BUILTIN_ROUTES[name]
    except KeyError:
        raise KeyError(f"no builtin route {name!r}; choose from {tuple(BUILTIN_ROUTES)}") from None
    return resources.files(__package__).joinpath("data", filename)


def load_builtin(name: str,
                 bad_threshold_dbm: float = DEFAULT_BAD_THRESHOLD_DBM) -> RouteDb:
    return RouteDb.from_csv(builtin_csv(name).read_text(encoding="utf-8"), bad_threshold_dbm)
