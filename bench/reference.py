"""Record the values the benchmark pins, from the current sources.

    python3 bench/reference.py

Rewrites ``bench/reference.json``: the sha256 of ``runlog.csv`` for the
three bundled scenarios, the appraisal values of a fixed input set under
the default model and under ``seeded_violation.ini``'s raw likelihood
override, and the seed-0 reference-pass digest of ``long_route_sweep``.
Run it only at a commit whose behaviour is the intended one; every later
run of the benchmark checks its outputs against this file.
"""

import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fearover  # noqa: E402
from fearover.cli import load_scenario  # noqa: E402

import workloads  # noqa: E402

BUNDLED = ("survey_default", "four_provider_trace", "seeded_violation")


def reference_inputs() -> list[dict]:
    """64 fixed appraisals inside the horizon, all five inputs varying."""
    rng = random.Random(20170801)
    return [{"distance_m": rng.uniform(0.0, 75.0), "signal_dbm": rng.uniform(-110.0, -25.0),
             "comm_importance": rng.random(), "sor": rng.random(), "vtp": rng.random()}
            for _ in range(64)]


def main() -> int:
    runlogs = {}
    for name in BUNDLED:
        scenario = load_scenario(workloads.SCENARIOS / f"{name}.ini")
        log = fearover.run(scenario.config, scenario.db, scenario.fear_model)
        runlogs[name] = workloads.sha256(fearover.runlog_to_csv(log))

    inputs = reference_inputs()
    appraisals = {"inputs": inputs}
    for key, model in (("default", fearover.FearModel()), ("raw", workloads.raw_model())):
        appraisals[key] = [model.intensity(fearover.FearInputs(**x)) for x in inputs]

    digests = {}
    for name in ("long_route_sweep",):
        with tempfile.TemporaryDirectory(dir=ROOT) as work:
            specs = workloads.INPUTS[name](0, Path(work))[0]
            phase = workloads.SimPhase(specs, workloads.Tally())
            phase.reference_pass()
            digests[name] = workloads.sha256("\n".join(phase.digests[s.label] for s in specs))

    reference = {"cli_runlog_sha256": runlogs, "appraisal_reference": appraisals,
                 "reference_digest_seed0": digests}
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n",
                                        encoding="utf-8")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
