"""fearover benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload cli_cold --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of the traced pass with
``--trace 1``.  The line before it holds the run's stamp (source digest,
git sha when there is one, Python, numpy, CPU count, load average), the
route statistics and the simulated statistics.  Each run is also appended
to ``.bench_results/results.jsonl``; a traced run writes its first spans
to ``.bench_results/spans-<workload>.csv``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("cli_cold", "long_route_sweep")


def source_digest() -> str:
    """sha256 over the program's source files, in path order."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and ".egg-info" not in str(path):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout, if it is a git work tree (never a parent's)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def stamp() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "started_unix": time.time(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fearover" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: no fearover sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fearover

    if SRC not in Path(fearover.__file__).resolve().parents:
        print(f"error: imported fearover from {fearover.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import workloads

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **stamp()}
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds,
                                bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = outcome["tally"]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()},
    }
    record.update(outcome["info"], result=result)
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    with open(results / "results.jsonl", "a", encoding="utf-8") as out:
        out.write(json.dumps(record) + "\n")
    if outcome["dumped_spans"]:
        (results / f"spans-{args.workload}.csv").write_text(
            "span_id,name,start_ns,end_ns,parent_id\n"
            + "\n".join(outcome["dumped_spans"]) + "\n", encoding="utf-8")
    record.pop("spans", None)
    record.pop("result")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
