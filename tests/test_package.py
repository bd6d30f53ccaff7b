"""The package's public names, resolved on first access, and what a cold
``replay-tables`` loads.

``fearover/__init__.py`` imports no submodule: each public name imports its
home module when it is first read.  So ``fearover replay-tables``, which only
evaluates the timing model, loads neither the run stack nor the scenario
parser.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import fearover
from test_cli import _child_env

ROOT = Path(__file__).resolve().parent.parent

# Home module -> the public names ``fearover`` exports from it.
EXPORTS = {
    "automaton": {"Alert", "AutomatonState", "BandThresholds", "FearBand", "MobilitySymbol",
                  "adopt_slot", "base_state", "classify", "slot_holders", "step"},
    "crsite": {"CsmAction", "EmptyPool", "HandoverAttempt", "PATCH_M", "PoolEntry",
               "TIMING_PRESETS", "TimingModel", "csm_dispatch", "execute_handover",
               "replay_attempts", "required_mobility_time", "select_whitespace", "sense",
               "time_left"},
    "fear": {"FearInputs", "FearModel", "FearParams", "fear_intensity", "normalize_distance",
             "normalize_signal"},
    "fuzzy": {"FuzzySystem", "LinguisticVariable", "MembershipFunction", "RuleBase", "trap",
              "tri"},
    "route": {"DuplicateLabel", "EmptyDatabase", "GeoPoint", "IndexOutOfRange", "MalformedRow",
              "RouteDb", "SurveyPoint", "UnknownProvider", "haversine_m", "load_builtin"},
    "sim": {"InvariantReport", "RouteExhausted", "RunLog", "SimConfig", "Simulation",
            "StayEpisode", "TickEvent", "check_all_invariants", "check_invariant1",
            "check_invariant2", "check_invariant3", "parse_runlog_csv", "run",
            "runlog_to_csv"},
}


class TestLazyPackage:
    def test_exports_are_pinned(self):
        assert len(fearover.__all__) == len(set(fearover.__all__))
        assert set(fearover.__all__) == set().union(*EXPORTS.values())

    @pytest.mark.parametrize("home", sorted(EXPORTS))
    def test_each_name_is_its_home_modules_object(self, home):
        module = importlib.import_module(f"fearover.{home}")
        for name in sorted(EXPORTS[home]):
            assert getattr(fearover, name) is getattr(module, name), name
            # Cached on first access: the next read does not come back here.
            assert vars(fearover)[name] is getattr(module, name), name

    def test_star_import_gives_every_export(self):
        namespace = {}
        exec("from fearover import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(fearover.__all__)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="NoSuchName"):
            fearover.NoSuchName  # noqa: B018

    def test_from_import_still_imports_submodules(self):
        from fearover import cli, sim

        assert cli is importlib.import_module("fearover.cli")
        assert sim is importlib.import_module("fearover.sim")

    def test_readme_library_tour_runs(self, capsys):
        section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library tour")[1]
        exec(section.split("```python\n")[1].split("```")[0], {})
        out = capsys.readouterr().out
        assert "Invariant1" in out and "Invariant3" in out


# Runs ``main`` on its arguments, or with none only imports ``fearover``,
# then lists on stderr the modules loaded.
_COLD_CHILD = """\
import sys
if sys.argv[1:]:
    from fearover.cli import main
    code = main(sys.argv[1:])
else:
    import fearover
    code = 0
print("loaded:", *sorted(sys.modules), file=sys.stderr)
sys.exit(code)
"""


def _cold_modules(*args: str) -> set[str]:
    """The modules a fresh interpreter loads for ``_COLD_CHILD`` with ``args``."""
    env = _child_env()
    env.pop("FEAROVER_LOG", None)
    proc = subprocess.run([sys.executable, "-c", _COLD_CHILD, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    verdict = proc.stderr.splitlines()[-1].split()
    assert verdict[0] == "loaded:", proc.stderr
    return set(verdict[1:])


class TestColdReplayImports:
    def test_bare_import_loads_no_submodule(self):
        loaded = _cold_modules()
        assert "fearover" in loaded
        assert not {m for m in loaded if m.startswith("fearover.")}

    def test_replay_tables_loads_only_the_timing_model(self):
        loaded = _cold_modules("replay-tables")
        assert {m for m in loaded if m.startswith("fearover")} == {
            "fearover", "fearover._records", "fearover.automaton", "fearover.crsite",
            "fearover.cli"}
        assert "configparser" not in loaded
