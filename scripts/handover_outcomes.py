#!/usr/bin/env python3
"""Export handover-attempt outcomes for every timing preset.

Writes plot-ready CSV (preset, distance_patches, time_left_s, required_s,
success), the data behind the timing-outcome bar charts.

    python scripts/handover_outcomes.py -o outcomes.csv
"""

import argparse
import csv
import sys

from fearover.crsite import (
    DEFAULT_SPEED_MPS,
    REPLAY_DISTANCES_PATCHES,
    TIMING_PRESETS,
    replay_attempts,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--speed-mps", type=float, default=DEFAULT_SPEED_MPS)
    parser.add_argument("-o", "--output", help="CSV path (default stdout)")
    args = parser.parse_args()

    out = open(args.output, "w", newline="") if args.output else sys.stdout
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["preset", "distance_patches", "time_left_s", "required_s", "success"])
    for preset, timing in TIMING_PRESETS.items():
        attempts = replay_attempts(timing, speed_mps=args.speed_mps)
        for distance, attempt in zip(REPLAY_DISTANCES_PATCHES, attempts):
            writer.writerow([preset, distance, repr(attempt.time_left_s),
                             repr(attempt.required_s), attempt.success])
    if args.output:
        out.close()
        print(f"wrote outcomes for {len(TIMING_PRESETS)} presets to {args.output}",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
