"""Seeded synthetic survey routes for the long-route workload.

A route is a random walk on the map (about 50 m hops with a slowly
drifting heading) carrying one mean-reverting random walk of dBm readings
per provider (AR(1), coefficient 0.8, stationary spread about 11 dB).
Each provider's walk is then shifted so that a fixed share of its points
(``BAD_SHARE``) lies at or below the -80 dBm bad threshold: every provider
has the same number of bad-signal points (BSSPs), in short runs spread
along the whole route, whatever the seed.  That keeps the work per tick
comparable between seeds.  The same seed always gives the same CSV text.
"""

from __future__ import annotations

import math
import random

PROVIDERS = ("P1", "P2", "P3", "P4")
METRES_PER_DEGREE = 111_195.0
BAD_THRESHOLD_DBM = -80.0
BAD_SHARE = 0.25


def signal_walk(rng: random.Random, points: int) -> list[float]:
    """dBm readings, 0.1 dB steps, ``BAD_SHARE`` of them at or below the
    bad threshold."""
    level = rng.uniform(-90.0, -60.0)
    walk = []
    for _ in range(points):
        level = -72.0 + 0.8 * (level + 72.0) + rng.gauss(0.0, 6.6)
        walk.append(level)
    ranked = sorted(walk)
    k = round(BAD_SHARE * points)
    shift = BAD_THRESHOLD_DBM - (ranked[k - 1] + ranked[k]) / 2.0
    return [round(min(max(x + shift, -115.0), -35.0), 1) for x in walk]


def survey_csv(seed: int, points: int = 2000, providers=PROVIDERS) -> str:
    """CSV text in the ``RouteDb.from_csv`` schema."""
    rng = random.Random(seed)
    walks = [signal_walk(rng, points) for _ in providers]
    lat, lon = 33.0, 73.0
    heading = rng.uniform(0.0, 2.0 * math.pi)
    rows = [f"# synthetic survey route, seed {seed}",
            "label,lat,lon," + ",".join(providers)]
    for i in range(points):
        readings = ",".join(repr(walk[i]) for walk in walks)
        rows.append(f"R{i},{lat:.6f},{lon:.6f},{readings}")
        heading += rng.gauss(0.0, 0.05)
        hop = rng.uniform(40.0, 60.0)
        lat += hop * math.cos(heading) / METRES_PER_DEGREE
        lon += hop * math.sin(heading) / (METRES_PER_DEGREE * math.cos(math.radians(lat)))
    return "\n".join(rows) + "\n"


def route_stats(db) -> dict:
    """Points, length and BSSPs per provider of a loaded ``RouteDb``."""
    threshold = db.bad_threshold_dbm
    bssps = {p: sum(1 for pt in db.points if pt.signal(p) <= threshold)
             for p in db.providers}
    return {"points": len(db.points), "km": db.route_length_m / 1000.0, "bssps": bssps}
