#!/usr/bin/env python3
"""Check that the tests kill each catalogued mutation of the program.

A mutant is one exact text edit to a file under ``src/``.  This script
copies ``src/`` and ``tests/`` (with the ``scenarios/``, ``pyproject.toml``
and ``README.md`` the tests read) to a temporary directory.  There it
applies each edit in turn, runs pytest on the mutant's test files and
reports the mutant as killed (a test failed) or survived.  The repository
itself is never edited.

    python scripts/mutants.py

It exits 1 if any mutant survives, if an old text no longer occurs exactly
once in its file (so a refactor must update the catalogue), or if the named
test files do not pass unmutated.  Standard library only; pytest must be
importable by the running interpreter.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


CATALOGUE = (
    Mutant("crossing-strict", "src/fearover/sim.py",
           "position >= cumulative[self._target]",
           "position > cumulative[self._target]",
           ("tests/test_sim.py",)),
    Mutant("builtin-route-drops-threshold", "src/fearover/cli.py",
           'csv_path = builtin_csv(source.removeprefix("builtin:"))\n',
           'csv_path = builtin_csv(source.removeprefix("builtin:"))\n'
           "            threshold = DEFAULT_BAD_THRESHOLD_DBM\n",
           ("tests/test_cli.py",)),
    Mutant("route-threshold-cast-accepts-nan", "src/fearover/cli.py",
           '"bad_threshold_dbm", _finite,',
           '"bad_threshold_dbm", float,',
           ("tests/test_cli.py",)),
    Mutant("csv-readings-unchecked", "src/fearover/route.py",
           "                _check_readings(providers, dbms)\n",
           "",
           ("tests/test_route.py",)),
    Mutant("csv-label-unstripped", "src/fearover/route.py",
           "label = fields[0].strip()",
           "label = fields[0]",
           ("tests/test_route.py",)),
    Mutant("quoted-line-split-at-commas", "src/fearover/route.py",
           "if '\"' in line:",
           "if False:",
           ("tests/test_route.py",)),
    Mutant("csv-field-limit-uncaught", "src/fearover/route.py",
           "        try:\n"
           "            return next(csv.reader([line]))\n"
           "        except csv.Error as exc:\n"
           '            raise MalformedRow(f"line {number}: {exc}") from None\n',
           "        return next(csv.reader([line]))\n",
           ("tests/test_route.py", "tests/test_cli.py")),
    Mutant("lazy-points-swap-coordinates", "src/fearover/route.py",
           "zip(self.labels, self.latitudes,\n"
           "                                                       self.longitudes,",
           "zip(self.labels, self.longitudes,\n"
           "                                                       self.latitudes,",
           ("tests/test_route.py",)),
    Mutant("tick-reads-the-first-column", "src/fearover/sim.py",
           "        readings = db.readings[provider]\n        if target_index is None:",
           "        readings = db.readings[db.providers[0]]\n        if target_index is None:",
           ("tests/test_sim.py",)),
    Mutant("segment-bisect-left", "src/fearover/route.py",
           "ahead = bisect_right(self.cumulative_m, position_m)",
           "ahead = bisect_left(self.cumulative_m, position_m)",
           ("tests/test_route.py", "tests/test_sim.py")),
    Mutant("failed-episode-as-stay", "src/fearover/sim.py",
           'loss = self._resolution != "stay"',
           "loss = self._resolution is None",
           ("tests/test_sim.py",)),
    Mutant("decision-gate-always-open", "src/fearover/sim.py",
           "if symbol is MobilitySymbol.HANDOVER and self._resolution is None:",
           "if symbol is MobilitySymbol.HANDOVER:",
           ("tests/test_sim.py",)),
    Mutant("decision-pays-no-optimisation", "src/fearover/sim.py",
           "if decision or action is optimizer:",
           "if action is optimizer:",
           ("tests/test_cli.py",)),
    Mutant("sensing-tick-pays-optimisation", "src/fearover/sim.py",
           "if decision or action is optimizer:",
           "if decision or action is optimizer or action is sensing:",
           ("tests/test_sim.py", "tests/test_cli.py")),
    Mutant("empty-rule-base-accepted", "src/fearover/cli.py",
           "    if not rules:\n",
           "    if False:\n",
           ("tests/test_cli.py",)),
    Mutant("uncovered-rule-base-accepted", "src/fearover/cli.py",
           "if (gap := system.uncovered()) is not None:",
           "if False and (gap := system.uncovered()) is not None:",
           ("tests/test_cli.py",)),
    Mutant("horizon-inclusive", "src/fearover/fear.py",
           "return distance_m < self.params.distance_horizon_m",
           "return distance_m <= self.params.distance_horizon_m",
           ("tests/test_fear.py",)),
    Mutant("neutral-event-feared", "src/fearover/fear.py",
           "if not inputs.prospect or inputs.desirability >= 0.0:",
           "if not inputs.prospect or inputs.desirability > 0.0:",
           ("tests/test_fear.py",)),
    Mutant("invariant2-skips-poolless-decisions", "src/fearover/sim.py",
           '            violations.append(f"tick {event.tick}: decision without a recorded pool")\n',
           "",
           ("tests/test_sim.py",)),
    Mutant("stay-logged-as-loss", "src/fearover/sim.py",
           'loss = self._resolution != "stay"',
           "loss = True",
           ("tests/test_sim.py",)),
    Mutant("tie-leaves-in-use", "src/fearover/crsite.py",
           "if pool[in_use].future_dbm >= best_future:",
           "if pool[in_use].future_dbm > best_future:",
           ("tests/test_crsite.py",)),
    Mutant("horizon-gate-reads-simconfig", "src/fearover/sim.py",
           "if self.fear_model.in_horizon(distance):",
           "if distance < cfg.fear.distance_horizon_m:",
           ("tests/test_sim.py",)),
    Mutant("export-stretch-text-by-value", "src/fearover/sim.py",
           "    for e in log.entries:\n"
           "        attempt_s = _NO_ATTEMPT",
           "    seen = None\n"
           "    for e in log.entries:\n"
           "        key = (e.__class__, e.provider, e.state, e.threat_dbm, e.signal_now_dbm,\n"
           "               e.signal_future_dbm)\n"
           "        if e.__class__ is QuietStretch and key == seen:\n"
           "            lines += [f\"{k},{q!r}{mid}{'' if e.target_m is None else repr(e.target_m - q)}\"\n"
           "                      f\"{tail}\" for k, q in enumerate(e.positions, e.first)]\n"
           "            continue\n"
           "        seen = key\n"
           "        attempt_s = _NO_ATTEMPT",
           ("tests/test_sim.py",)),
    Mutant("invariant1-counts-every-stretch-pair", "src/fearover/sim.py",
           "pairs += sum(map(gt, distances, islice(distances, 1, None)))",
           "pairs += len(distances) - 1",
           ("tests/test_sim.py",)),
    Mutant("coast-crossing-strict", "src/fearover/sim.py",
           "cut = bisect_left(positions, end)",
           "cut = __import__(\"bisect\").bisect_right(positions, end)",
           ("tests/test_sim.py",)),
    Mutant("coast-horizon-at-old-position", "src/fearover/sim.py",
           "(lambda q: in_horizon(target_m - q))",
           "(lambda q: in_horizon(target_m - q + step_m))",
           ("tests/test_sim.py",)),
    Mutant("coast-at-raised-alert", "src/fearover/sim.py",
           "if self.provider == last.provider and self.state.alert is Alert.BASE:",
           "if self.provider == last.provider:",
           ("tests/test_sim.py",)),
    Mutant("coast-after-handover", "src/fearover/sim.py",
           "if self.provider == last.provider and self.state.alert is Alert.BASE:",
           "if self.state.alert is Alert.BASE:",
           ("tests/test_sim.py",)),
    Mutant("coast-keeps-readings-across-a-point", "src/fearover/sim.py",
           "            now_dbm, future_dbm = readings[passed], readings[ahead]\n",
           "",
           ("tests/test_sim.py",)),
    Mutant("coast-runs-past-the-target", "src/fearover/sim.py",
           "(lambda q: in_horizon(target_m - q))",
           "(lambda q: 0.0 < target_m - q and in_horizon(target_m - q))",
           ("tests/test_sim.py",)),
    Mutant("appraiser-kept-across-targets", "src/fearover/sim.py",
           'loss = self._resolution != "stay"\n'
           "            self._target = self._resolution = self._appraise = None",
           'loss = self._resolution != "stay"\n'
           "            self._target = self._resolution = None",
           ("tests/test_sim.py",)),
    Mutant("coast-ignores-bound", "src/fearover/sim.py",
           "count = min(bound - ticks, int(max((end - position) / step_m, 0.0)) + 2)",
           "count = int(max((end - position) / step_m, 0.0)) + 2",
           ("tests/test_sim.py",)),
    Mutant("coast-stretch-past-the-bound", "src/fearover/sim.py",
           "count = min(bound - ticks, ",
           "count = min(bound - ticks + 1, ",
           ("tests/test_sim.py",)),
    Mutant("tick-bound-short-by-one", "src/fearover/sim.py",
           "self.tick_bound = -((a * t - s * b) * 2 * f * v // (t * b * (2 * e * v - u * f)))",
           "self.tick_bound = -((a * t - s * b) * 2 * f * v // (t * b * (2 * e * v - u * f))) - 1",
           ("tests/test_sim.py",)),
    Mutant("parse-accepts-bare-ho-success", "src/fearover/sim.py",
           "elif ho_success:",
           "elif False:",
           ("tests/test_sim.py",)),
    Mutant("parse-reuse-without-length-guard", "src/fearover/sim.py",
           "if end >= mid_len and rest.startswith(mid)",
           "if rest.startswith(mid)",
           ("tests/test_sim.py",)),
    Mutant("parse-reuse-skips-tick-check", "src/fearover/sim.py",
           "                    if tick != str(number - 2):\n"
           "                        raise ValueError(f\"tick {tick!r}, expected {number - 2}\")\n",
           "",
           ("tests/test_sim.py",)),
    Mutant("parse-reuse-allows-comma-in-distance", "src/fearover/sim.py",
           ' and "," not in distance_m:',
           ":",
           ("tests/test_sim.py",)),
    Mutant("clamp-lets-nan-through", "src/fearover/fuzzy.py",
           "if x != x:\n                raise ValueError(f\"input {name!r} is NaN\")",
           "if False:\n                raise ValueError(f\"input {name!r} is NaN\")",
           ("tests/test_fuzzy.py", "tests/test_fear.py")),
    Mutant("lookup-lets-nan-through", "src/fearover/fuzzy.py",
           "if y != y:",
           "if False:",
           ("tests/test_fuzzy.py",)),
    Mutant("last-cell-clamp-off-by-one", "src/fearover/fuzzy.py",
           "MONOTONE_NODES - 2, nodes)",
           "MONOTONE_NODES - 3, nodes)",
           ("tests/test_fuzzy.py",)),
    Mutant("last-cell-clamp-inclusive", "src/fearover/fuzzy.py",
           "if i > last:",
           "if i >= last:",
           ("tests/test_fuzzy.py",)),
    Mutant("plateau-excludes-its-end", "src/fearover/fuzzy.py",
           "elif x <= c:",
           "elif x < c:",
           ("tests/test_fuzzy.py",)),
    Mutant("firing-takes-max", "src/fearover/fuzzy.py",
           "firing if firing < mu else mu",
           "firing if firing > mu else mu",
           ("tests/test_fuzzy.py",)),
    Mutant("pairwise-block-64", "src/fearover/fuzzy.py",
           "if n > 128:",
           "if n > 64:",
           ("tests/test_fuzzy.py",)),
    Mutant("pairwise-combine-in-sequence", "src/fearover/fuzzy.py",
           "((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))",
           "((((((r0 + r1) + r2) + r3) + r4) + r5) + r6) + r7",
           ("tests/test_fuzzy.py",)),
    Mutant("pairwise-tail-first", "src/fearover/fuzzy.py",
           "        res += ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))\n",
           "        for i in range(tail, lo + n):\n"
           "            res += a[i]\n"
           "        res += ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))\n"
           "        tail = lo + n\n",
           ("tests/test_fuzzy.py",)),
    Mutant("plain-clip-at-neighbour-level", "src/fearover/fuzzy.py",
           "rows, grid = self._point_tables\n        agg = None\n"
           "        for row, level in zip(rows, levels):",
           "rows, grid = self._point_tables\n        agg = None\n"
           "        for row, level in zip(rows, levels[1:] + levels[:1]):",
           ("tests/test_fuzzy.py",)),
    Mutant("plain-value-limit-ignored", "src/fearover/fuzzy.py",
           "and _plain_values < PLAIN_VALUE_LIMIT:",
           "and True:",
           ("tests/test_cli.py",)),
    Mutant("array-clip-at-neighbour-level", "src/fearover/fuzzy.py",
           "grid, rows = self._tables\n        agg = None\n"
           "        for row, level in zip(rows, levels):",
           "grid, rows = self._tables\n        agg = None\n"
           "        for row, level in zip(rows, levels[1:] + levels[:1]):",
           ("tests/test_fuzzy.py",)),
    Mutant("array-no-fire-at-one", "src/fearover/fuzzy.py",
           "            return 0.0\n        return float(np.add.reduce(grid * agg) / total)",
           "            return 1.0\n        return float(np.add.reduce(grid * agg) / total)",
           ("tests/test_fuzzy.py",)),
    Mutant("plain-no-fire-at-one", "src/fearover/fuzzy.py",
           "            return 0.0\n        return _pairwise_sum(",
           "            return 1.0\n        return _pairwise_sum(",
           ("tests/test_fuzzy.py",)),
    Mutant("surface-node-transposed", "src/fearover/fuzzy.py",
           "for y in axes[1]]\n                         for x in axes[0]]",
           "for x in axes[0]]\n                         for y in axes[1]]",
           ("tests/test_fuzzy.py",)),
    Mutant("surface-prefix-max-ignores-monotone", "src/fearover/fuzzy.py",
           "flips = tuple(slice(None, None, p) for p in self.monotone)",
           "flips = (slice(None), slice(None))",
           ("tests/test_fuzzy.py",)),
    Mutant("slot-check-seats-four", "src/fearover/automaton.py",
           "return tuple(providers[:3])",
           "return tuple(providers[:4])",
           ("tests/test_cli.py", "tests/test_sim.py")),
    Mutant("slot-check-skipped", "src/fearover/sim.py",
           "if provider not in slots:",
           "if False:",
           ("tests/test_cli.py",)),
    Mutant("remap-not-flagged", "src/fearover/automaton.py",
           "holders[index + 1:], index + 1, True",
           "holders[index + 1:], index + 1, False",
           ("tests/test_automaton.py", "tests/test_sim.py")),
    Mutant("adopted-slot-not-vacated", "src/fearover/automaton.py",
           "return holders[:index] + (adopted,) + holders[index + 1:],",
           "return holders,",
           ("tests/test_automaton.py", "tests/test_sim.py")),
    Mutant("semicolon-starts-inline-comment", "src/fearover/cli.py",
           'inline_comment_prefixes=("#",)',
           'inline_comment_prefixes=(";", "#")',
           ("tests/test_cli.py",)),
    Mutant("semicolon-note-kept-in-path", "src/fearover/cli.py",
           'if re.search(r"\\s;", raw):',
           "if False:",
           ("tests/test_cli.py",)),
    Mutant("record-eq-ignores-class", "src/fearover/_records.py",
           "if other.__class__ is self.__class__ else NotImplemented",
           'if hasattr(other, "_fields") else NotImplemented',
           ("tests/test_records.py",)),
    Mutant("frozen-record-assignable", "src/fearover/_records.py",
           "        cls.__setattr__ = cls.__delattr__ = refuse\n",
           "        pass\n",
           ("tests/test_records.py",)),
    Mutant("record-default-factory-shared", "src/fearover/_records.py",
           "body[k].default_factory if isinstance(body[k], field)",
           "(lambda v=body[k].default_factory(): v) if isinstance(body[k], field)",
           ("tests/test_records.py",)),
    Mutant("crsite-imports-route-at-load", "src/fearover/crsite.py",
           "from .automaton import FearBand\n",
           "from .automaton import FearBand\nfrom .route import RouteDb\n",
           ("tests/test_package.py",)),
    Mutant("cli-imports-configparser-at-load", "src/fearover/cli.py",
           "import argparse\n",
           "import argparse\nimport configparser\n",
           ("tests/test_package.py",)),
    Mutant("package-name-not-cached", "src/fearover/__init__.py",
           "value = globals()[name] = getattr(",
           "value = getattr(",
           ("tests/test_package.py",)),
)


def pytest(workdir: Path, tests: tuple[str, ...]) -> int:
    """Run pytest on ``tests`` inside ``workdir``; return its exit code.
    Hypothesis's example database is cleared first, so no run replays an
    example that another mutant failed on."""
    shutil.rmtree(workdir / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    stale = [m for m in CATALOGUE if (ROOT / m.path).read_text(encoding="utf-8").count(m.old) != 1]
    for m in stale:
        print(f"stale     {m.name}: old text does not occur exactly once in {m.path}")
    if stale:
        return 1

    with tempfile.TemporaryDirectory(prefix="fearover-mutants-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests", "scenarios"):
            shutil.copytree(ROOT / part, work / part, ignore=ignore)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, work)

        test_files = tuple(sorted({t for m in CATALOGUE for t in m.tests}))
        code = pytest(work, test_files)
        if code != 0:
            print(f"baseline  pytest exited {code} on unmutated {' '.join(test_files)}")
            return 1

        survived = errors = 0
        for m in CATALOGUE:
            target = work / m.path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(m.old, m.new), encoding="utf-8")
            began = time.perf_counter()
            code = pytest(work, m.tests)
            target.write_text(original, encoding="utf-8")
            # pytest exits 1 when tests ran and some failed; any other
            # failure code (collection or usage error) proves nothing.
            if code == 1:
                verdict = "killed"
            elif code == 0:
                verdict = "survived"
                survived += 1
            else:
                verdict = f"error({code})"
                errors += 1
            print(f"{verdict:<9} {m.name:<36} {' '.join(m.tests)}"
                  f"  ({time.perf_counter() - began:.1f} s)", flush=True)

    print(f"{len(CATALOGUE)} mutants: {len(CATALOGUE) - survived - errors} killed, "
          f"{survived} survived, {errors} errors")
    return 1 if survived or errors else 0


if __name__ == "__main__":
    sys.exit(main())
