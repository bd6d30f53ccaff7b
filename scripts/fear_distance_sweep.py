#!/usr/bin/env python3
"""Sweep fear intensity against distance to a bad-signal point.

Writes plot-ready CSV (distance_m, distance_patches, fear) for a fixed
threat signal, the shape behind the fear-versus-distance validation curve.

    python scripts/fear_distance_sweep.py --signal-dbm -95 -o fear_curve.csv
"""

import argparse
import csv
import sys

from fearover.crsite import PATCH_M
from fearover.fear import COMBINERS, FearInputs, FearModel, FearParams


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--signal-dbm", type=float, default=-95.0,
                        help="in-use signal at the threatened point (default -95)")
    parser.add_argument("--max-distance-m", type=float, default=100.0)
    parser.add_argument("--steps", type=int, default=201)
    parser.add_argument("--combiner", choices=COMBINERS, default=FearParams.combiner)
    parser.add_argument("-o", "--output", help="CSV path (default stdout)")
    args = parser.parse_args()

    model = FearModel(FearParams(combiner=args.combiner))
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["distance_m", "distance_patches", "fear"])
    for k in range(args.steps):
        distance = args.max_distance_m * k / (args.steps - 1)
        fear = model.intensity(FearInputs(distance, args.signal_dbm))
        writer.writerow([repr(distance), repr(distance / PATCH_M), repr(fear)])
    if args.output:
        out.close()
        print(f"wrote {args.steps} rows to {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
