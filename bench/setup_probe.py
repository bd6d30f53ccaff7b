"""Set-up time of one workload, measured in a fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD [ROUTE.csv]

Times importing ``fearover``, loading the workload's scenario or route and
the first fear appraisal, which builds the rectified surfaces.  Prints one
JSON line: ``{"setup_s": ..., "fear": [...]}``.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# One inside-horizon appraisal; the benchmark process checks its value.
PROBE_INPUT = {"distance_m": 30.0, "signal_dbm": -90.0}


def main(argv: list[str]) -> int:
    workload = argv[0]
    start = time.perf_counter()
    import fearover

    if workload == "cli_cold":
        from fearover.cli import load_scenario

        models = [load_scenario(ROOT / "scenarios" / "survey_default.ini").fear_model]
    elif workload == "long_route_sweep":
        fearover.RouteDb.from_csv(Path(argv[1]).read_text(encoding="utf-8"))
        models = [fearover.FearModel()]
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    fear = [m.intensity(fearover.FearInputs(**PROBE_INPUT)) for m in models]
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "fear": fear}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
