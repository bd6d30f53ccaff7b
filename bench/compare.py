"""Compare two result sets of the benchmark, metric by metric.

    python3 bench/compare.py PARENT CHANGE

PARENT and CHANGE are ``results.jsonl`` files, or directories holding one,
written by ``bench/run.py`` on the parent commit and on the change.  Runs
are paired by (workload, seed, trace).  Make the pairs alternate which side
runs first, for example::

    for seed in $(seq 1 10); do
      if [ $((seed % 2)) = 1 ]; then first=parent; second=change; else first=change; second=parent; fi
      (cd $first  && python3 bench/run.py --workload cli_cold --seed $seed --seconds 55 --trace 0)
      (cd $second && python3 bench/run.py --workload cli_cold --seed $seed --seconds 55 --trace 0)
    done

Each (metric, workload) gets one verdict:

* unresolved: fewer than 10 pairs, pairs that do not alternate, unequal
  run lengths, or a parent spread wider than the metric's bound where the
  change's runs neither all beat nor all lose to the parent's;
* worse: the change's median is worse than the parent's by more than the
  metric's bound from BENCHMARK.json (per-layer metrics have no bound: worse
  means losing 9 of 10 pairs by more than the parent's quartile spread);
* improved: the change wins at least 9 of every 10 pairs (ties count for
  neither), its median differs from the parent's by more than the parent's
  interquartile distance, and no more operations failed than on the parent;
* unchanged: everything else.

The reference pass's statistics (``EXACT``: simulated counts, appraisal
counts, route statistics) must repeat exactly; any difference is reported
as ``changed``, a change of behaviour rather than of speed.  ``failed_frac`` (failed over attempted
operations) is compared per workload from the result lines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9
EXACT = {"sim.ticks", "sim.attempts", "sim.successes", "sim.stays", "sim.losses",
         "crsite.handover_success_frac", "fear.appraisals", "fear.appraised_frac",
         "route.points", "route.km", "route.bssps_per_provider"}


def load(path: Path) -> dict[tuple, dict]:
    if path.is_dir():
        path = path / "results.jsonl"
    runs = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            runs[(record["workload"], record["seed"], record["trace"])] = record
    return runs


def verdict(parent: list[float], change: list[float], lower_better: bool,
            bound: float | None, more_failures: bool) -> tuple[str, str]:
    n = len(parent)
    sign = 1.0 if lower_better else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q1, med_p, q3 = statistics.quantiles(parent, n=4)
    med_c = statistics.median(change)
    iqr = q3 - q1
    scale = abs(med_p) or 1.0
    worse_by = sign * (med_c - med_p) / scale
    detail = f"wins {wins}/{n}, median {(med_c - med_p) / scale:+.2%}"
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    all_worse = all(sign * (c - p) > 0 for c in change for p in parent)
    if bound is not None and iqr / scale > bound:
        if all_better and not more_failures:
            return "improved", detail + ", every run better"
        if all_worse:
            return "worse", detail + ", every run worse"
        return "unresolved", detail + f", parent spread {iqr / scale:.1%} > bound"
    if bound is not None and worse_by > bound:
        return "worse", detail + f", beyond bound {bound:.0%}"
    if bound is None and losses >= WIN_SHARE * n and abs(med_c - med_p) > iqr:
        return "worse", detail
    if wins >= WIN_SHARE * n and abs(med_c - med_p) > iqr and sign * (med_c - med_p) < 0:
        if more_failures:
            return "unchanged", detail + ", gain void: more failures"
        return "improved", detail
    return "unchanged", detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(args.parent), load(args.change)
    keys = sorted(set(parent) & set(change))
    groups: dict[tuple[str, int], list[tuple]] = {}
    for key in keys:
        groups.setdefault((key[0], key[2]), []).append(key)

    rows = []
    for (workload, trace), pair_keys in sorted(groups.items()):
        pairs = [(parent[k], change[k]) for k in pair_keys]
        n = len(pairs)
        parent_first = sum(1 for p, c in pairs if p["started_unix"] < c["started_unix"])
        problem = None
        if n < MIN_PAIRS:
            problem = f"{n} pairs < {MIN_PAIRS}"
        elif abs(2 * parent_first - n) > 1:
            problem = f"parent ran first in {parent_first} of {n} pairs; not alternating"
        elif any(p["seconds"] != c["seconds"] for p, c in pairs):
            problem = "run lengths differ"

        failed = [sum(r["result"]["failed"] for r in side) for side in zip(*pairs)]
        attempted = [sum(r["result"]["attempted"] for r in side) for side in zip(*pairs)]
        more_failures = failed[1] * attempted[0] > failed[0] * attempted[1]
        if trace == 0:
            rows.append((workload, "failed_frac",
                         f"{failed[0]}/{attempted[0]}", f"{failed[1]}/{attempted[1]}",
                         "worse" if more_failures else "unchanged", ""))

        names = [name for name in pairs[0][0]["result"]["metrics"] if name in metrics]
        for name in names:
            values = [(p["result"]["metrics"][name]["value"],
                       c["result"]["metrics"].get(name, {}).get("value")) for p, c in pairs]
            if any(c is None for _, c in values):
                rows.append((workload, name, "", "", "unresolved", "missing on change"))
                continue
            pv, cv = [p for p, _ in values], [c for _, c in values]
            shown = (f"{statistics.median(pv):.6g}", f"{statistics.median(cv):.6g}")
            if name in EXACT:
                same = pv == cv
                rows.append((workload, name, *shown, "unchanged" if same else "changed",
                             "" if same else "behaviour differs"))
                continue
            if problem:
                rows.append((workload, name, *shown, "unresolved", problem))
                continue
            meta = metrics[name]
            state, detail = verdict(pv, cv, meta["better"] == "lower", meta.get("bound"),
                                    more_failures)
            rows.append((workload, name, *shown, state, detail))

    widths = [max(len(str(r[i])) for r in rows + [("workload", "metric", "parent",
                                                        "change", "verdict", "")])
              for i in range(5)]
    header = ("workload", "metric", "parent", "change", "verdict", "detail")
    for row in [header, *rows]:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)) + "  " + row[5])
    return 1 if any(r[4] in ("worse", "changed") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
