"""Bundled route databases.

``survey`` is the real F2-Mangla road survey (three GSM providers,
fourteen points, about 8.4 km).  ``four_provider_trace`` is a synthetic
meridian route with four providers used to replay the narrated handover
trace (two handovers, a bridge handover, one deliberate stay).

Scenario files may reference these as ``builtin:<name>`` instead of a
CSV path.
"""

from __future__ import annotations

from importlib import resources

from .route import DEFAULT_BAD_THRESHOLD_DBM, RouteDb

_FILES = {
    "survey": "f2_mangla_survey.csv",
    "four_provider_trace": "four_provider_trace.csv",
}


def builtin_csv(name: str) -> str:
    """Raw CSV text of a bundled database."""
    try:
        filename = _FILES[name]
    except KeyError:
        raise KeyError(f"no builtin route {name!r}; choose from {tuple(_FILES)}") from None
    return resources.files(__package__).joinpath("data", filename).read_text(encoding="utf-8")


def load_builtin(name: str,
                 bad_threshold_dbm: float = DEFAULT_BAD_THRESHOLD_DBM) -> RouteDb:
    return RouteDb.from_csv(builtin_csv(name), bad_threshold_dbm)
