"""Surveyed route database: ordered GPS points with per-provider signals.

The database is a single road survey: rows appear in drive order, and
distance along the route accumulates great-circle hop lengths between
consecutive points.  A point is a bad-signal point (BSSP) for a provider
when that provider's reading is at or below the database's bad threshold.

CSV schema: ``label,lat,lon,<provider>,...`` with dBm values, a required
header, UTF-8 text and ``#`` comment lines.  A provider name is not empty
and holds no ``,``, ``"``, CR or LF: it becomes a field of ``runlog.csv``,
which quotes no field.  ``RouteDb.from_csv``, the one way to build a route,
parses the survey into columns (labels, coordinates, distance along the
route and each provider's readings); the ``SurveyPoint`` records are built
from them only when asked.

Two databases are bundled, and a scenario names them as ``builtin:<name>``
instead of a CSV path.  ``survey`` is the real F2-Mangla road survey (three
GSM providers, fourteen points, about 8.4 km).  ``four_provider_trace`` is
a synthetic meridian route with four providers used to replay the narrated
handover trace (two handovers, a bridge handover, one deliberate stay).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property
from importlib import resources
from itertools import accumulate, compress, repeat
from operator import le
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


def _check_coordinates(latitude: float, longitude: float) -> None:
    """Raise ValueError unless the point lies on the globe."""
    if not -90.0 <= latitude <= 90.0:
        raise ValueError(f"latitude {latitude} outside [-90, 90]")
    if not -180.0 <= longitude <= 180.0:
        raise ValueError(f"longitude {longitude} outside [-180, 180]")


def _check_readings(providers: Iterable[str], dbms: Iterable[float]) -> None:
    """Raise ValueError for the first reading outside [-120, 0] dBm (NaN too)."""
    for provider, dbm in zip(providers, dbms):
        if not -120.0 <= dbm <= 0.0:
            raise ValueError(f"{provider}={dbm} outside [-120, 0] dBm")


@record(frozen=True)
class GeoPoint:
    latitude: float
    longitude: float

    def __post_init__(self) -> None:
        _check_coordinates(self.latitude, self.longitude)


def _hops_m(latitudes: Sequence[float], longitudes: Sequence[float]) -> list[float]:
    """Great-circle length in metres, on a sphere of Earth mean radius, of
    each hop between consecutive points of a route given as columns."""
    radians, sin = math.radians, math.sin
    phis = list(map(radians, latitudes))
    cosines = list(map(math.cos, phis))
    return [2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(
                sin((phi2 - phi1) / 2.0) ** 2 + cos1 * cos2 * sin(radians(lon2 - lon1) / 2.0) ** 2)))
            for phi1, phi2, cos1, cos2, lon1, lon2 in zip(
                phis, phis[1:], cosines, cosines[1:], longitudes, longitudes[1:])]


def haversine_m(p1: GeoPoint, p2: GeoPoint) -> float:
    """Great-circle distance in metres on a sphere of Earth mean radius."""
    return _hops_m((p1.latitude, p2.latitude), (p1.longitude, p2.longitude))[0]


@record(frozen=True)
class SurveyPoint:
    """One surveyed location and its per-provider readings.

    ``signals`` is stored as a read-only view of a copy, so a record keeps the
    readings it was checked with: a reading changed afterwards would skip the
    range check, and in a record of ``RouteDb.points`` it would no longer be
    the reading in the route's column, which the tick loop reads.
    """

    label: str
    point: GeoPoint
    signals: Mapping[str, float]

    def __post_init__(self) -> None:
        signals = MappingProxyType(dict(self.signals))
        object.__setattr__(self, "signals", signals)
        _check_readings(signals, signals.values())

    def signal(self, provider: str) -> float:
        try:
            return self.signals[provider]
        except KeyError:
            raise UnknownProvider(provider) from None


def _split(number: int, line: str) -> list[str]:
    """The fields of CSV line ``number`` as ``csv``'s default dialect reads
    them, unstripped.  A line holding no quote is split at its commas, which
    is what that dialect does with it; only a line with a quote loads ``csv``,
    and a line it cannot read (a field past its size limit) is refused."""
    if '"' in line:
        import csv

        try:
            return next(csv.reader([line]))
        except csv.Error as exc:
            raise MalformedRow(f"line {number}: {exc}") from None
    return line.split(",")


class RouteDb:
    """Immutable-after-load route survey with distance and signal queries.

    ``from_csv`` is the only constructor.  It holds the survey as read-only
    columns in drive order: ``labels``, ``latitudes``, ``longitudes`` and
    ``cumulative_m`` are tuples, and ``readings`` maps each provider to the
    tuple of its readings.  The BSSP index is built from them once, and the
    tick loop reads a provider's column without checking it again.
    """

    @cached_property
    def points(self) -> tuple[SurveyPoint, ...]:
        """The survey's ``SurveyPoint`` records, built on first access from
        the very objects in the columns."""
        providers = self.providers
        return tuple(SurveyPoint(label, GeoPoint(lat, lon), dict(zip(providers, dbms)))
                     for label, lat, lon, *dbms in zip(self.labels, self.latitudes,
                                                       self.longitudes, *self.readings.values()))

    @classmethod
    def from_csv(cls, text: str,
                 bad_threshold_dbm: float = DEFAULT_BAD_THRESHOLD_DBM) -> "RouteDb":
        """Parse ``text`` straight into the columns, checking each row as
        ``GeoPoint`` and ``SurveyPoint`` check theirs, then accumulate
        distance along the route and index its BSSPs."""
        # (line number, line) of each line that is neither blank nor a comment.
        lines = ((number, raw) for number, raw in enumerate(text.splitlines(), start=1)
                 if raw.lstrip()[:1] not in ("", "#"))
        header_no, header = next(lines, (0, None))
        if header is None:
            raise EmptyDatabase("no rows at all")
        columns = [c.strip() for c in _split(header_no, header)]
        if len(columns) < 4 or [c.lower() for c in columns[:3]] != ["label", "lat", "lon"]:
            raise MalformedRow(f"line {header_no}: header must be label,lat,lon,<providers>")
        providers = tuple(columns[3:])
        for name in providers:
            if not name or not _QUOTED_CHARS.isdisjoint(name):
                raise MalformedRow(f"line {header_no}: provider name {name!r} is empty or "
                                   "holds a comma, quote, CR or LF")
        if len(set(providers)) != len(providers):
            raise MalformedRow(f"line {header_no}: duplicate provider column")

        width = len(columns)
        labels, latitudes, longitudes, rows = [], [], [], []
        seen: set[str] = set()
        for number, raw in lines:
            fields = _split(number, raw)
            if len(fields) != width:
                raise MalformedRow(f"line {number}: expected {width} fields, got {len(fields)}")
            label = fields[0].strip()
            if label in seen:
                raise DuplicateLabel(f"line {number}: duplicate label {label!r}")
            seen.add(label)
            try:
                lat, lon = float(fields[1]), float(fields[2])
                dbms = list(map(float, fields[3:]))
            except ValueError as exc:
                # ``float`` reads a field as it reads the field stripped, which
                # is what the message should quote.
                for field in fields[1:]:
                    try:
                        float(field.strip())
                    except ValueError as stripped_exc:
                        exc = stripped_exc
                        break
                raise MalformedRow(f"line {number}: {exc}") from None
            try:
                _check_coordinates(lat, lon)
                _check_readings(providers, dbms)
            except ValueError as exc:
                raise MalformedRow(f"line {number}: {exc}") from None
            labels.append(label)
            latitudes.append(lat)
            longitudes.append(lon)
            rows.append(dbms)
        if len(rows) < 2:
            raise EmptyDatabase(f"need at least 2 data rows, got {len(rows)}")

        threshold = float(bad_threshold_dbm)
        # NaN would mark no point bad and inf every point: a run with no
        # threats, or nothing but threats, rather than an error.
        if not math.isfinite(threshold):
            raise ValueError(f"bad_threshold_dbm must be finite, got {bad_threshold_dbm}")
        cumulative = tuple(accumulate(_hops_m(latitudes, longitudes), initial=0.0))
        for k in range(1, len(cumulative)):
            if cumulative[k] <= cumulative[k - 1]:
                raise MalformedRow(f"consecutive points {labels[k - 1]!r} and {labels[k]!r} "
                                   "coincide; route order broken")
        db = cls()
        db.bad_threshold_dbm, db.providers, db.cumulative_m = threshold, providers, cumulative
        db.labels, db.latitudes, db.longitudes = tuple(labels), tuple(latitudes), tuple(longitudes)
        db.readings = MappingProxyType(dict(zip(providers, zip(*rows))))
        # provider -> (positions, indices) of its BSSPs in drive order;
        # positions ascend because ``cumulative_m`` does.
        db._bssps = {}
        every_index = range(len(cumulative))
        for p, column in db.readings.items():
            indices = list(compress(every_index, map(le, column, repeat(threshold))))
            db._bssps[p] = ([cumulative[i] for i in indices], indices)
        return db

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
        try:
            column = self.readings[provider]
        except KeyError:
            raise UnknownProvider(provider) from None
        if not 0 <= index < len(column):
            raise IndexOutOfRange(index)
        return column[index]

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
