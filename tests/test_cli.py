import contextlib
import hashlib
import io
import logging
import textwrap
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fearover.cli
import fearover.sim
from fearover.cli import ScenarioError, load_scenario, main
from fearover.crsite import TIMING_PRESETS
from fearover.fuzzy import PLAIN_VALUE_LIMIT
from fearover.route import BUILTIN_ROUTES, builtin_csv
from fearover.sim import (
    MAX_RUN_TICKS,
    RunLog,
    SimConfig,
    Simulation,
    parse_runlog_csv,
    run,
    runlog_to_csv,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def _write(tmp_path: Path, name: str, text: str) -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestScenarioLoading:
    def test_default_scenario_loads(self):
        scenario = load_scenario(SCENARIOS / "survey_default.ini")
        assert scenario.db.providers == ("SP1", "SP2", "SP3")
        assert scenario.config.speed_mps == 4.0
        assert scenario.config.timing.hot_s == 5.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "missing.ini")

    def test_unknown_section(self, tmp_path):
        path = _write(tmp_path, "s.ini", "[bogus]\nx = 1\n")
        with pytest.raises(ScenarioError, match="bogus"):
            load_scenario(path)

    def test_bad_value_is_anchored(self, tmp_path):
        path = _write(tmp_path, "s.ini", "[sim]\nspeed_mps = fast\n")
        with pytest.raises(ScenarioError, match=r"\[sim\] speed_mps"):
            load_scenario(path)

    def test_missing_route_csv(self, tmp_path):
        path = _write(tmp_path, "s.ini", "[route]\nsource = nowhere.csv\n")
        with pytest.raises(ScenarioError, match="nowhere.csv"):
            load_scenario(path)

    def test_directory_as_route_source(self, tmp_path, capsys):
        path = _write(tmp_path, "s.ini", f"[route]\nsource = {tmp_path}\n")
        with pytest.raises(ScenarioError, match=r"\[route\] source: .*: Is a directory"):
            load_scenario(path)
        assert main(["validate", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_relative_route_csv(self, tmp_path):
        _write(tmp_path, "mini.csv",
               "label,lat,lon,SP1\nA,33.0,73.0,-90\nB,33.001,73.0,-50\n")
        path = _write(tmp_path, "s.ini", "[route]\nsource = mini.csv\n")
        scenario = load_scenario(path)
        assert scenario.db.providers == ("SP1",)

    @pytest.mark.parametrize("column", ["", '"S,P"', 'S"P'])
    def test_route_provider_name_checked_at_load(self, tmp_path, column):
        """A provider name the run log would have to quote fails the scenario
        load, naming the header line, instead of the run log's parse."""
        _write(tmp_path, "mini.csv",
               f"label,lat,lon,{column},SP2\nA,33.0,73.0,-90,-50\nB,33.001,73.0,-50,-90\n")
        path = _write(tmp_path, "s.ini", "[route]\nsource = mini.csv\n")
        with pytest.raises(ScenarioError, match=r"mini.csv: line 1: provider name"):
            load_scenario(path)

    @pytest.mark.parametrize("newline", ["\r", "\n"])
    def test_route_provider_name_cannot_hold_a_line_break(self, tmp_path, newline):
        """Route CSV lines end at any line break, quoted or not: a quoted
        name holding one splits the header and fails the load."""
        _write(tmp_path, "mini.csv",
               f'label,lat,lon,"S{newline}P",SP2\nA,33.0,73.0,-90,-50\nB,33.001,73.0,-50,-90\n')
        path = _write(tmp_path, "s.ini", "[route]\nsource = mini.csv\n")
        with pytest.raises(ScenarioError, match=r"mini.csv: line 2: expected 4 fields"):
            load_scenario(path)

    def test_unknown_builtin(self, tmp_path):
        path = _write(tmp_path, "s.ini", "[route]\nsource = builtin:nope\n")
        with pytest.raises(ScenarioError, match="builtin"):
            load_scenario(path)

    def test_preset_override(self):
        scenario = load_scenario(SCENARIOS / "survey_default.ini", preset_override="best")
        assert scenario.config.timing.hot_s == 1.0

    def test_seed_override(self):
        scenario = load_scenario(SCENARIOS / "survey_default.ini", seed_override=7)
        assert scenario.config.start_seed == 7

    def test_bad_preset(self, tmp_path):
        path = _write(tmp_path, "s.ini", "[timing]\npreset = terrible\n")
        with pytest.raises(ScenarioError, match="preset"):
            load_scenario(path)

    def test_custom_timing(self, tmp_path):
        path = _write(tmp_path, "s.ini",
                      "[timing]\ncrst_s = 0.15\nmegaot_s = 1e-6\nhot_s = 3\n")
        scenario = load_scenario(path)
        assert scenario.config.timing.crst_s == 0.15

    @pytest.mark.parametrize("key", ["crst_s", "megaot_s", "hot_s"])
    def test_latency_beside_a_named_preset_rejected(self, tmp_path, key):
        """A named preset fixes every latency, so a latency set beside it
        would be dropped without a word: the load fails naming the key."""
        path = _write(tmp_path, "s.ini", f"[timing]\npreset = worst\n{key} = 0.01\n")
        with pytest.raises(ScenarioError, match=f"{key} is set, but preset 'worst'"):
            load_scenario(path)

    def test_latency_beside_the_custom_preset_loads(self, tmp_path):
        path = _write(tmp_path, "s.ini", "[timing]\npreset = custom\ncrst_s = 0.01\n")
        assert load_scenario(path).config.timing.crst_s == 0.01

    def test_preset_override_replaces_custom_latencies(self, tmp_path):
        path = _write(tmp_path, "s.ini", "[timing]\ncrst_s = 0.01\n")
        scenario = load_scenario(path, preset_override="worst")
        assert scenario.config.timing == TIMING_PRESETS["worst"]

    def test_fuzzy_override_changes_model(self, tmp_path):
        plain = load_scenario(SCENARIOS / "survey_default.ini")
        path = _write(tmp_path, "s.ini", "\n".join([
            "[fuzzy:likelihood]",
            "monotone = off",
            "rules = " + "; ".join(
                f"{i},{j}->0" for i in range(5) for j in range(5)),
            "",
        ]))
        scenario = load_scenario(path)
        graded = scenario.fear_model.likelihood_system.infer((0.0, 0.0))
        assert graded < 0.24
        assert plain.fear_model.likelihood_system.infer((0.0, 0.0)) > 0.76

    def test_fuzzy_terms_override(self, tmp_path):
        path = _write(tmp_path, "s.ini", "\n".join([
            "[fuzzy:ig]",
            "output_terms = VLIg:0,0,0.1,0.24; LIg:0.1,0.3,0.5; MIg:0.25,0.49,0.73;"
            " HIg:0.51,0.7,0.9; VIG:0.76,0.9,1,1",
            "grid_resolution = 501",
            "",
        ]))
        scenario = load_scenario(path)
        assert scenario.fear_model.global_intensity_system.grid_resolution == 501

    def test_malformed_fuzzy_rules(self, tmp_path):
        path = _write(tmp_path, "s.ini", "[fuzzy:ig]\nrules = 0,0=>4\n")
        with pytest.raises(ScenarioError, match="rules"):
            load_scenario(path)

    def test_bad_threshold_reaches_the_database(self, tmp_path):
        path = _write(tmp_path, "s.ini", "[route]\nbad_threshold_dbm = -95\n")
        scenario = load_scenario(path)
        assert scenario.db.bad_threshold_dbm == -95.0
        # with -95 the first SP1 point at or below threshold is A only
        assert scenario.db.next_bad_index(0.0, "SP1") is None

    def test_fuzzy_input_terms_override(self, tmp_path):
        path = _write(tmp_path, "s.ini", "\n".join([
            "[fuzzy:likelihood]",
            "input1_terms = N:0,0,0.2,0.6; F:0.4,0.8,1,1",
            "rules = " + "; ".join(
                f"{i},{j}->{max(4 - i * 4, 0)}" for i in range(2) for j in range(5)),
            "",
        ]))
        scenario = load_scenario(path)
        system = scenario.fear_model.likelihood_system
        assert tuple(label for label, _ in system.inputs[0].terms) == ("N", "F")
        assert len(system.rule_base.rules) == 10

    def test_semicolon_after_whitespace_separates_items(self, tmp_path):
        """Only ``#`` starts an inline comment: `` ; `` separates items."""
        path = _write(tmp_path, "s.ini", "\n".join([
            "[fuzzy:likelihood]",
            "input1_terms = A:0,0,0.5,0.6 ; B:0.4,0.5,1,1",
            "rules = 0,0->4 ; 0,1->4; 0,2->4 ; 0,3->4; 0,4->4 ; "
            "1,0->3; 1,1->3 ; 1,2->3; 1,3->3 ; 1,4->3",
            "",
        ]))
        system = load_scenario(path).fear_model.likelihood_system
        assert tuple(label for label, _ in system.inputs[0].terms) == ("A", "B")
        assert len(system.rule_base.rules) == 10

    @pytest.mark.parametrize("rules, point, pair", [
        ("4,4->4", "distance = 0.0, signal = 0.0", "no rule 0,0->k for 'V-Near', 'Absent'"),
        ("0,0->0; 1,1->1; 2,2->2; 3,3->3; 4,4->4", "distance = 0.0, signal = 0.24",
         "no rule 0,1->k for 'V-Near', 'Bad'"),
    ], ids=["single-rule", "diagonal"])
    def test_rule_base_leaving_inputs_ungraded_refused(self, tmp_path, capsys, rules, point,
                                                       pair):
        """Where no rule fires a subsystem grades 0.0, so a rule base that
        leaves part of the input square bare is refused at load, naming a
        point there and a term pair no rule covers."""
        path = _write(tmp_path, "s.ini", f"[fuzzy:likelihood]\nrules = {rules}\n")
        assert main(["validate", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: [fuzzy:likelihood] rules = {rules!r}: "
            f"no rule fires at {point} ({pair})\n")

    @pytest.mark.parametrize("rules, key", [
        ("\nrules = " + "; ".join(f"{i},{j}->0" for i in range(5) for j in range(5)),
         "[fuzzy:ig] rules = '0,0->0; "),
        ("", "[fuzzy:ig]: "),
    ], ids=["with-rules", "default-rules"])
    def test_terms_leaving_an_input_bare_refused(self, tmp_path, rules, key):
        path = _write(tmp_path, "s.ini", "[fuzzy:ig]\ninput1_terms = "
                      "A:0.1,0.2,0.3; B:0.2,0.3,0.4; C:0.3,0.4,0.5; D:0.4,0.5,0.6; E:0.5,0.6,1,1"
                      + rules + "\n")
        with pytest.raises(ScenarioError) as refused:
            load_scenario(path)
        assert str(refused.value).startswith(key)
        assert str(refused.value).endswith(
            ": no rule fires at sor = 0.0, vtp = 0.0 (no sor term holds)")

    def test_malformed_terms(self, tmp_path):
        path = _write(tmp_path, "s.ini", "[fuzzy:ig]\ninput1_terms = broken\n")
        with pytest.raises(ScenarioError, match="input1_terms"):
            load_scenario(path)

    @pytest.mark.parametrize("section, key", [("sim", "speed"), ("sim", "start_seed"),
                                              ("fear", "horizon_m"), ("route", "threshold"),
                                              ("fuzzy:ig", "rule")])
    def test_unknown_key_rejected(self, tmp_path, section, key):
        path = _write(tmp_path, "s.ini", f"[{section}]\n{key} = 5\n")
        with pytest.raises(ScenarioError, match=rf"\[{section}\] unknown key '{key}'"):
            load_scenario(path)

    def test_seed_sets_start_seed(self, tmp_path):
        path = _write(tmp_path, "s.ini", "[sim]\nseed = 3\n")
        assert load_scenario(path).config.start_seed == 3

    def test_generated_window_keys_load(self, tmp_path):
        # The keys of the scenario files the benchmark writes per route window.
        _write(tmp_path, "route.csv",
               "label,lat,lon,SP1,SP2\nA,33.0,73.0,-90,-60\nB,33.01,73.0,-50,-85\n")
        path = _write(tmp_path, "w.ini", "[route]\nsource = route.csv\n\n[sim]\n"
                      "start_m = 12.5\nstop_m = 500.25\ninitial_provider = SP2\n\n"
                      "[timing]\npreset = average\n")
        scenario = load_scenario(path)
        assert scenario.config == SimConfig(start_m=12.5, stop_m=500.25, initial_provider="SP2",
                                            timing=TIMING_PRESETS["average"])
        assert scenario.db.providers == ("SP1", "SP2")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section, key", [
        ("sim", "tick_s"), ("sim", "speed_mps"), ("sim", "start_m"), ("sim", "stop_m"),
        ("fear", "distance_horizon_m"), ("fear", "signal_floor_dbm"),
        ("fear", "signal_ceiling_dbm"),
        ("timing", "crst_s"), ("timing", "megaot_s"), ("timing", "hot_s"),
    ])
    def test_non_finite_value_rejected(self, tmp_path, section, key, value):
        path = _write(tmp_path, "s.ini", f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ScenarioError, match=rf"\[{section}\] .*{key}"):
            load_scenario(path)


    @pytest.mark.parametrize("key, value", [("sor", "1.5"), ("comm_importance", "-0.1"),
                                            ("desirability", "-2"), ("vtp", "nan")])
    def test_appraisal_value_out_of_range_rejected(self, tmp_path, key, value):
        path = _write(tmp_path, "s.ini", f"[sim]\n{key} = {value}\n")
        with pytest.raises(ScenarioError, match=rf"\[sim\] {key} must lie in"):
            load_scenario(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("source", ["builtin:survey", "route.csv"])
    def test_non_finite_bad_threshold_rejected(self, tmp_path, source, value):
        # NaN would mark no point bad and inf every point, on either route path.
        _write(tmp_path, "route.csv",
               "label,lat,lon,SP1\nA,33.0,73.0,-90\nB,33.001,73.0,-50\n")
        path = _write(tmp_path, "s.ini",
                      f"[route]\nsource = {source}\nbad_threshold_dbm = {value}\n")
        with pytest.raises(ScenarioError,
                           match=rf"^\[route\] bad_threshold_dbm = '{value}': must be finite$"):
            load_scenario(path)

    @pytest.mark.parametrize("name", sorted(BUILTIN_ROUTES))
    def test_builtin_route_runs_as_its_csv_copy(self, tmp_path, name):
        # One read and one threshold for both kinds of source: under a
        # threshold other than the default, the two run logs are the same bytes.
        (tmp_path / "copy.csv").write_bytes(builtin_csv(name).read_bytes())
        runlogs = []
        for n, source in enumerate((f"builtin:{name}", "copy.csv")):
            path = _write(tmp_path, "s.ini",
                          f"[route]\nsource = {source}\nbad_threshold_dbm = -70\n")
            out = tmp_path / f"out{n}"
            assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
            runlogs.append((out / "runlog.csv").read_bytes())
        assert runlogs[0] == runlogs[1]

    def test_grid_resolution_capped(self, tmp_path):
        # Rejected when the system is built, before any array is sized from it.
        path = _write(tmp_path, "s.ini", "[fuzzy:ig]\ngrid_resolution = 1000000000\n")
        with pytest.raises(ScenarioError, match=r"\[fuzzy:ig\].*grid_resolution"):
            load_scenario(path)


def _readme_scenario_block() -> str:
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Scenario format")[1]
    return section.split("```ini\n")[1].split("```")[0]


def _cli_docstring_scenario_block() -> str:
    lines = []
    for line in fearover.cli.__doc__.split("::\n", 1)[1].splitlines():
        if line and not line.startswith("    "):
            break
        lines.append(line)
    return textwrap.dedent("\n".join(lines))


# Values for any key: numbers (some out of range or non-finite), words some
# keys take, ``%`` forms, an empty value, rules and terms in the fuzzy format.
_INI_VALUES = st.one_of(
    st.sampled_from(["0", "1", "0.2", "0.5", "0.9", "4", "40", "120"]),
    st.sampled_from(["5%", "out%(x)s", "%%"]),
    st.sampled_from(["-1", "2", "75", "290", "1e308",
                     "-1e308", "1e-300", "nan", "inf", "-inf", "",
                     "true", "off", "yes", "worst", "best", "custom", "mean", "SP1", "SP4",
                     "0,0->4; 4,4->0", "0,0->9", "A:0,0,0.5,1; B:0.5,1,1,1"]),
    st.floats(-1e3, 1e3).map(repr),
    st.integers(-10, 10**7).map(str),
)
# Route sources, relative to the scenario: built in, unknown, missing, a
# directory, a file that is not UTF-8, and a small valid CSV.
_ROUTE_SOURCES = st.sampled_from(["builtin:survey", "builtin:four_provider_trace",
                                  "builtin:nowhere", "missing.csv", "routes", "latin1.csv",
                                  "mini.csv"])


@st.composite
def _scenario_texts(draw) -> str:
    """Scenario INI text: known and unknown sections, each with known and
    unknown keys, the unknown ones drawn less often so that more texts load."""
    sections = [*fearover.cli._known_keys(), "bogus"]
    lines = []
    for section in draw(st.lists(st.sampled_from(sections), unique=True, max_size=4)):
        keys = [*sorted(fearover.cli._known_keys().get(section, ())) * 3, "bogus_key"]
        lines.append(f"[{section}]")
        for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=3)):
            value = draw(_ROUTE_SOURCES if key == "source" else _INI_VALUES)
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


class TestGeneratedScenarios:
    """Whatever the scenario text, loading it either fails as a ScenarioError
    or gives a run that is built, and refused only past the tick cap, and
    ``fearover run`` exits 0, 1 or 2 without a traceback."""

    # Runs bound to more ticks than this are built but not run, to keep the test short.
    RUN_TICKS = 20_000

    def _refused(self, path: Path) -> bool | None:
        """Whether the scenario at ``path`` is refused before its first tick:
        by ``load_scenario`` (only as a ScenarioError), or by ``run`` past the
        tick cap; a loaded scenario's ``Simulation`` must build.  None for a
        run bound to more than ``RUN_TICKS`` ticks."""
        try:
            scenario = load_scenario(path)
        except ScenarioError:
            return True
        simulation = Simulation(scenario.config, scenario.db, scenario.fear_model)
        if simulation.tick_bound > MAX_RUN_TICKS:
            with pytest.raises(ValueError, match="above the cap"):
                simulation.run()
            return True
        return None if simulation.tick_bound > self.RUN_TICKS else False

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_scenario_texts())
    def test_load_and_run_fail_closed(self, tmp_path, monkeypatch, text):
        (tmp_path / "routes").mkdir(exist_ok=True)
        (tmp_path / "latin1.csv").write_bytes(b"label,lat,lon,SP1\nA\xe9,33.0,73.0,-90\n")
        _write(tmp_path, "mini.csv", "label,lat,lon,SP1\nA,33.0,73.0,-90\nB,33.001,73.0,-50\n")
        path = _write(tmp_path, "s.ini", text)
        monkeypatch.chdir(tmp_path)  # where a relative [output] dir goes
        refused = self._refused(path)
        if refused is None:
            return
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", "--scenario", str(path)])
        assert code in ((2,) if refused else (0, 1, 2)), err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert err.getvalue().count("\n") == (code == 2), err.getvalue()


class TestDocumentedDefaults:
    """The scenario examples in the README and the ``cli`` docstring show
    the defaults; loading each must give the default configuration."""

    @pytest.mark.parametrize("block", [_readme_scenario_block, _cli_docstring_scenario_block],
                             ids=["readme", "cli_docstring"])
    def test_example_loads_to_defaults(self, tmp_path, block):
        text = block()
        assert "[sim]" in text and "[timing]" in text
        scenario = load_scenario(_write(tmp_path, "doc.ini", text))
        assert scenario.config == SimConfig(initial_provider="SP1")
        assert scenario.db.bad_threshold_dbm == -80.0


# sha256 of runlog.csv for each bundled scenario.  The first three equal
# bench/reference.json's cli_runlog_sha256; the benchmark pins only those.
RUNLOG_SHA256 = {
    "survey_default": "45c2f1f789074f80c7b1251eb83b8f9a9d650cf6a26ffb8e36b2c1ca3946056b",
    "four_provider_trace": "51919759eb9bee91d70a5d60a178587f9b0fcd2d4758213d3de2258f02d6d517",
    "seeded_violation": "b6bd172169fada4d75815a4af31be8ffa394b2246e3c30173209c9aedf2338a2",
    # Halved comm_importance, sor and vtp: the one bundled run with B1 ticks.
    "survey_halved_appraisal":
        "bd0d9eaf1513af84a2a271fd9def02062ffcd712bd5eaf3ac2353d706a3a8037",
}


class TestRunLogDigests:
    def test_every_bundled_scenario_is_pinned(self):
        assert sorted(p.stem for p in SCENARIOS.glob("*.ini")) == sorted(RUNLOG_SHA256)

    @pytest.mark.parametrize("name", sorted(RUNLOG_SHA256))
    def test_runlog_bytes_are_pinned(self, name):
        scenario = load_scenario(SCENARIOS / f"{name}.ini")
        text = runlog_to_csv(run(scenario.config, scenario.db, scenario.fear_model))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == RUNLOG_SHA256[name]


# sha256 of summary.txt that ``fearover run`` writes for each bundled scenario.
SUMMARY_SHA256 = {
    "survey_default": "f9edc6cab9c98ceb005f2db1a20839eaf2539752a2a7bfe4b95e1a2def78d67b",
    "four_provider_trace": "6b7cdc4e1ee2d896c96bc918fc84be2a968ebfbe1dee09158522e9c24b75b4a2",
    "seeded_violation": "57b8df480d3f83d353fd3b8f76e7d6778f0185edf199c01d1c180e4d6b353da6",
    "survey_halved_appraisal":
        "95069b855d7daf7ea555e51ca645259a94925ddc8cdc768d45d4df7ebc0c0d29",
}


class TestSummaryDigests:
    def test_every_bundled_scenario_is_pinned(self):
        assert sorted(SUMMARY_SHA256) == sorted(RUNLOG_SHA256)

    @pytest.mark.parametrize("name", sorted(SUMMARY_SHA256))
    def test_summary_bytes_are_pinned(self, tmp_path, name):
        assert main(["run", "--scenario", str(SCENARIOS / f"{name}.ini"),
                     "--out", str(tmp_path)]) == 0
        summary = (tmp_path / "summary.txt").read_bytes()
        assert hashlib.sha256(summary).hexdigest() == SUMMARY_SHA256[name]

    @pytest.mark.parametrize("name, preset, seed", [
        *((name, None, None) for name in sorted(SUMMARY_SHA256)),
        ("survey_default", "best", 3),
    ])
    def test_summary_is_rebuilt_from_the_runlog(self, tmp_path, name, preset, seed):
        """``summary.txt`` is a function of ``runlog.csv`` and the run's timing."""
        path = SCENARIOS / f"{name}.ini"
        args = ["run", "--scenario", str(path), "--out", str(tmp_path)]
        if preset is not None:
            args += ["--preset", preset, "--seed", str(seed)]
        assert main(args) == 0
        events = parse_runlog_csv((tmp_path / "runlog.csv").read_text(encoding="utf-8"))
        timing = load_scenario(path, preset, seed).config.timing
        assert RunLog(events=events).summary_text(timing) == (
            (tmp_path / "summary.txt").read_text(encoding="utf-8"))


class TestRunCommand:
    def test_happy_path_writes_three_files(self, tmp_path):
        out = tmp_path / "artifacts"
        code = main(["run", "--scenario", str(SCENARIOS / "survey_default.ini"),
                     "--out", str(out)])
        assert code == 0
        assert (out / "runlog.csv").exists()
        assert (out / "summary.txt").exists()
        assert (out / "invariants.txt").exists()
        events = parse_runlog_csv((out / "runlog.csv").read_text())
        assert events and events[0].tick == 0

    def test_missing_scenario_exits_2(self, tmp_path, capsys):
        code = main(["run", "--scenario", str(tmp_path / "none.ini")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unwritable_output_directory_exits_2(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "x"
        code = main(["run", "--scenario", str(SCENARIOS / "four_provider_trace.ini"),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: Not a directory\n"

    def test_seeded_violation_without_strict_exits_0(self, tmp_path):
        code = main(["run", "--scenario", str(SCENARIOS / "seeded_violation.ini"),
                     "--out", str(tmp_path / "v")])
        assert code == 0

    def test_seeded_violation_with_strict_exits_1(self, tmp_path):
        code = main(["run", "--scenario", str(SCENARIOS / "seeded_violation.ini"),
                     "--out", str(tmp_path / "v"), "--strict"])
        assert code == 1

    def test_determinism_across_invocations(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        scenario = str(SCENARIOS / "four_provider_trace.ini")
        assert main(["run", "--scenario", scenario, "--out", str(out1)]) == 0
        assert main(["run", "--scenario", scenario, "--out", str(out2)]) == 0
        assert (out1 / "runlog.csv").read_bytes() == (out2 / "runlog.csv").read_bytes()


class TestValidateCommand:
    def test_default_scenario_validates(self, capsys):
        code = main(["validate", "--scenario", str(SCENARIOS / "survey_default.ini")])
        out = capsys.readouterr().out
        assert code == 0
        assert "Invariant1: PASS" in out
        assert "Invariant2: PASS" in out
        assert "Invariant3: PASS" in out

    def test_seeded_violation_names_the_invariant(self, capsys):
        code = main(["validate", "--scenario", str(SCENARIOS / "seeded_violation.ini")])
        out = capsys.readouterr().out
        assert code == 1
        assert "Invariant1: FAIL" in out

    @pytest.mark.parametrize("name", sorted(RUNLOG_SHA256))
    def test_prints_what_run_writes_to_invariants_txt(self, tmp_path, capsys, name):
        scenario = str(SCENARIOS / f"{name}.ini")
        assert main(["run", "--scenario", scenario, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        main(["validate", "--scenario", scenario])
        assert capsys.readouterr().out == (tmp_path / "invariants.txt").read_text(encoding="utf-8")

    def test_config_error_exits_2(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[sim]\ntick_s = never\n")
        assert main(["validate", "--scenario", str(path)]) == 2

    @pytest.mark.parametrize("text, detail", [
        ("[sim]\nsor = 2\n", "[sim] sor must lie in [0, 1]"),
        ("[fear]\ncombiner = median\n", "[fear] combiner must be one of"),
        ("[pdfa]\nth_low = 0.9\n", "[pdfa] thresholds must satisfy"),
        ("[timing]\ncrst_s = -1\n", "[timing] crst_s, megaot_s and hot_s must be"),
        ("[bogus]\n", "unknown section [bogus]"),
        ("[sim]\nsor = 0.5\n[sim]\n", "line 3: section [sim] appears twice"),
        ("garbage\n[sim]\n", "line 1: 'garbage' comes before any [section] header"),
        # What ``Simulation`` would refuse, ``load_scenario`` refuses as a [sim] error.
        # Mobilink is the fourth provider column; only the first three hold slots.
        ("[route]\nsource = builtin:four_provider_trace\n[sim]\ninitial_provider = Mobilink\n",
         "[sim] initial provider 'Mobilink' holds no automaton slot: "
         "only Telenor, Zong, Ufone do\n"),
        ("[sim]\ninitial_provider = Nope\n", "[sim] initial provider 'Nope' not in database\n"),
        ("[sim]\nstop_m = 1e9\n", "[sim] need 0 <= start (0.0) < stop (1000000000.0) <= route"),
        ("[sim]\nstart_m = 40\nstop_m = 40\n", "[sim] need 0 <= start (40.0) < stop (40.0)"),
        ("[sim]\nstop_m = 8000\ntick_s = 1e-13\nspeed_mps = 0.5\n",
         "[sim] step speed_mps * tick_s = 5e-14 is below the float spacing"),
        # A rule base under which nothing fires would never fear.  A ``#``
        # after whitespace opens a comment, so ``rules = # none`` reads as empty.
        ("[fuzzy:ig]\nrules =\n", "[fuzzy:ig] rules = '': at least one rule required\n"),
        ("[fuzzy:ig]\nrules = # none\n", "[fuzzy:ig] rules = '': at least one rule required\n"),
        ("[fuzzy:ig]\nrules =;\n", "[fuzzy:ig] rules = ';': at least one rule required\n"),
        # ``path ; note`` once read as ``path``: refused, not taken as the path.
        ("[route]\nsource = builtin:survey ; note\n",
         "[route] source = 'builtin:survey ; note': only '#' starts an inline comment\n"),
        ("[output]\ndir = out\t; note\n",
         "[output] dir = 'out\\t; note': only '#' starts an inline comment\n"),
    ], ids=["sim", "fear", "pdfa", "timing", "unknown-section", "duplicate-section",
            "no-section-header", "slotless-initial-provider", "unknown-initial-provider",
            "stop-past-route", "start-at-stop", "step-below-spacing", "empty-rules",
            "comment-only-rules", "semicolon-only-rules", "semicolon-note-in-source",
            "semicolon-note-in-dir"])
    def test_error_names_the_scenario_once(self, tmp_path, capsys, text, detail):
        path = _write(tmp_path, "s.ini", text)
        assert main(["validate", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {detail}")
        assert err.count(str(path)) == 1 and err.count("\n") == 1

    def test_percent_in_a_number_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path, "s.ini", "[sim]\nstop_m = 5%\n")
        assert main(["validate", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: [sim] stop_m = '5%': ")
        assert err.count("\n") == 1

    def test_semicolon_note_in_the_output_dir_writes_nothing(self, tmp_path, monkeypatch):
        path = _write(tmp_path, "s.ini", "[sim]\nstop_m = 40\n[output]\ndir = out ; note\n")
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--scenario", str(path)]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.ini"]

    def test_semicolon_without_whitespace_stays_in_a_path(self, tmp_path, monkeypatch):
        path = _write(tmp_path, "s.ini", "[sim]\nstop_m = 40\n[output]\ndir = out;1\n")
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--scenario", str(path)]) == 0
        assert (tmp_path / "out;1" / "runlog.csv").is_file()

    def test_long_quoted_route_field_exits_2(self, tmp_path, capsys):
        """A field past ``csv``'s size limit is a route error naming its line."""
        route = _write(tmp_path, "route.csv", 'label,lat,lon,SP1\n"' + "A" * 140_000
                       + '",33.0,73.0,-90\nB,33.001,73.0,-50\n')
        path = _write(tmp_path, "s.ini", "[route]\nsource = route.csv\n")
        assert main(["validate", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: {route}: line 2: field larger than field limit (131072)\n")

    def test_percent_in_a_directory_name_is_kept(self, tmp_path, monkeypatch, capsys):
        path = _write(tmp_path, "s.ini", "[sim]\nstop_m = 40\n[output]\ndir = out%(x)s\n")
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--scenario", str(path)]) == 0
        assert (tmp_path / "out%(x)s" / "runlog.csv").is_file()
        assert capsys.readouterr().err == ""

    def test_run_past_the_tick_cap_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(fearover.sim, "MAX_RUN_TICKS", 100)
        assert main(["validate", "--scenario", str(SCENARIOS / "survey_default.ini")]) == 2
        err = capsys.readouterr().err
        assert "above the cap of 100" in err and err.count("\n") == 1

    def test_stop_beyond_route_exits_2(self, tmp_path, capsys):
        path = tmp_path / "s.ini"
        path.write_text("[sim]\nstop_m = 1e9\n")
        assert main(["validate", "--scenario", str(path)]) == 2
        assert "route length" in capsys.readouterr().err

    def test_unmapped_initial_provider_exits_2(self, tmp_path, capsys):
        path = tmp_path / "s.ini"
        path.write_text("[route]\nsource = builtin:four_provider_trace\n"
                        "[sim]\ninitial_provider = Mobilink\nstop_m = 290\n")
        assert main(["validate", "--scenario", str(path)]) == 2
        assert "Mobilink" in capsys.readouterr().err


class TestReplayTablesCommand:
    def test_totals_and_exit_code(self, capsys):
        code = main(["replay-tables"])
        out = capsys.readouterr().out
        assert code == 0
        assert "4/10 successful" in out
        assert "9/10 successful" in out
        assert "10/10 successful" in out

    def test_per_row_outcomes_worst_case(self, capsys):
        main(["replay-tables"])
        out = capsys.readouterr().out
        worst = out.split("average case")[0]
        rows = [line for line in worst.splitlines() if "success" in line or "failure" in line]
        verdicts = [row.split()[-1] for row in rows if row.strip()[0].isdigit()]
        assert verdicts == ["failure", "success", "success", "failure", "failure",
                            "success", "failure", "failure", "success", "failure"]

    def test_output_bytes_are_pinned(self, capsys):
        # Every row, latency and heading, not only the totals and verdicts.
        main(["replay-tables"])
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "b0c7d5e983eb7264f9d2d898738f42af0dda6c04b17dea19badef08ece6f00b2")


class TestLogEnv:
    def test_log_level_env_smoke(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEAROVER_LOG", "DEBUG")
        code = main(["replay-tables"])
        assert code == 0

    @pytest.mark.parametrize("value, level", [("basic_format", logging.WARNING),
                                              ("_styles", logging.WARNING),
                                              ("root", logging.WARNING),
                                              ("critical", logging.WARNING),
                                              ("info", logging.INFO)])
    def test_only_documented_level_names_are_read(self, monkeypatch, caplog, value, level):
        # Only DEBUG and INFO log: any other name runs at WARNING, which
        # configures no logging and logs nothing.  ``logging`` has a string
        # BASIC_FORMAT and a dict _STYLES: taken as a level, either once made
        # every command fail.
        levels = []
        monkeypatch.setattr(logging, "basicConfig", lambda **kw: levels.append(kw["level"]))
        monkeypatch.setenv("FEAROVER_LOG", value)
        caplog.set_level(logging.DEBUG, logger="fearover")
        assert main(["validate", "--scenario", str(SCENARIOS / "survey_default.ini")]) == 0
        verbose = level < logging.WARNING
        assert levels == ([level] if verbose else [])
        assert [r.getMessage().split(":")[0] for r in caplog.records] == (
            ["scenario " + str(SCENARIOS / "survey_default.ini"), "run finished"]
            if verbose else [])

    def test_scenario_line_reads_the_columns(self, monkeypatch, caplog):
        monkeypatch.setenv("FEAROVER_LOG", "INFO")
        caplog.set_level(logging.INFO, logger="fearover")
        db = load_scenario(SCENARIOS / "survey_default.ini").db
        assert "points" not in vars(db)
        assert caplog.records[0].getMessage() == (
            f"scenario {SCENARIOS / 'survey_default.ini'}: 14 route points over 8440 m, "
            "providers SP1, SP2, SP3")


class TestConsoleScript:
    def test_fresh_processes_agree_byte_for_byte(self, tmp_path):
        import subprocess
        import sys

        scenario = str(SCENARIOS / "four_provider_trace.ini")
        runs = []
        for out in ("p1", "p2"):
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from fearover.cli import main; "
                 "sys.exit(main(sys.argv[1:]))",
                 "run", "--scenario", scenario, "--out", str(tmp_path / out)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            runs.append((tmp_path / out / "runlog.csv").read_bytes())
        assert runs[0] == runs[1]

    def test_module_runs_as_a_script(self, tmp_path):
        import subprocess
        import sys

        env = _child_env()
        ok = subprocess.run(
            [sys.executable, "-m", "fearover.cli", "run",
             "--scenario", str(SCENARIOS / "four_provider_trace.ini"), "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert ok.returncode == 0, ok.stderr
        runlog = (tmp_path / "runlog.csv").read_bytes()
        assert hashlib.sha256(runlog).hexdigest() == RUNLOG_SHA256["four_provider_trace"]
        bad = subprocess.run([sys.executable, "-m", "fearover.cli", "validate", "--scenario",
                              str(tmp_path / "none.ini")],
                             capture_output=True, text=True, env=env, timeout=120)
        assert bad.returncode == 2 and bad.stderr.startswith("error: ")

    def test_closed_stdout_exits_quietly(self, tmp_path):
        import subprocess
        import sys

        # The child prints one line, then waits until its reader has closed
        # the pipe, so everything ``validate`` prints meets a closed stdout.
        child = ("import sys; from fearover.cli import main; print('ready', flush=True); "
                 "sys.stdin.readline(); sys.exit(main(sys.argv[1:]))")
        proc = subprocess.Popen(
            [sys.executable, "-c", child, "validate",
             "--scenario", str(SCENARIOS / "survey_default.ini"), "--out", str(tmp_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.stdout.readline() == "ready\n"
        proc.stdout.close()
        proc.stdin.write("go\n")
        proc.stdin.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err


# Runs ``main`` on its arguments (with none, only imports ``fearover``), then
# lists on stderr the modules loaded.
_MODULES_CHILD = """\
import sys
import fearover
import fearover.fuzzy
fearover.fuzzy.PLAIN_VALUE_LIMIT = int(sys.argv.pop(1))
code = 0
if sys.argv[1:]:
    from fearover.cli import main
    code = main(sys.argv[1:])
print("loaded:", *sorted(sys.modules), file=sys.stderr)
sys.exit(code)
"""


def _child_env() -> dict[str, str]:
    """This environment, with ``src`` first on the child's PYTHONPATH."""
    import os

    pythonpath = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))


def _loaded_modules(*args: str, log: str | None = None, code: int = 0,
                    plain_values: int | None = None) -> set[str]:
    """The modules a fresh interpreter loads to run ``fearover`` with ``args``,
    with ``FEAROVER_LOG`` set to ``log`` (unset for None) and
    ``fuzzy.PLAIN_VALUE_LIMIT`` to ``plain_values`` (None keeps it); the
    command must exit with ``code``."""
    import subprocess
    import sys

    env = _child_env()
    env.pop("FEAROVER_LOG", None)
    if log is not None:
        env["FEAROVER_LOG"] = log
    limit = PLAIN_VALUE_LIMIT if plain_values is None else plain_values
    proc = subprocess.run([sys.executable, "-c", _MODULES_CHILD, str(limit), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code, proc.stderr
    verdict = proc.stderr.splitlines()[-1].split()
    assert verdict[0] == "loaded:", proc.stderr
    return set(verdict[1:])


def _numpy_loaded(*args: str, **kwargs) -> bool:
    """Whether a fresh interpreter loads numpy to run ``fearover`` with ``args``;
    ``kwargs`` as ``_loaded_modules`` takes them."""
    return "numpy" in _loaded_modules(*args, **kwargs)


class TestColdStartWithoutNumpy:
    """numpy is imported on the first array-kernel call, the default model's
    surfaces ship as package data, and a raw system's first
    ``PLAIN_VALUE_LIMIT`` one-point values take the plain kernel: a fresh
    process on the default fear model never loads numpy, nor one that
    appraises a few raw points."""

    @pytest.mark.parametrize("command", ["import", "run", "validate", "replay-tables",
                                         "four_provider_trace-run"])
    def test_default_model_never_imports_numpy(self, tmp_path, command):
        # With the seeded_violation cases below, every cold command the
        # benchmark times; a process without numpy has built no surface.
        scenario = str(SCENARIOS / "survey_default.ini")
        four = str(SCENARIOS / "four_provider_trace.ini")
        args = {"import": [],
                "run": ["run", "--scenario", scenario, "--out", str(tmp_path)],
                "validate": ["validate", "--scenario", scenario],
                "replay-tables": ["replay-tables"],
                "four_provider_trace-run": ["run", "--scenario", four, "--out", str(tmp_path)],
                }[command]
        assert not _numpy_loaded(*args)

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_short_raw_run_never_imports_numpy(self, tmp_path, command):
        # seeded_violation's raw likelihood appraises 41 points, and its
        # Invariant1 fails: ``validate`` exits 1.
        scenario = str(SCENARIOS / "seeded_violation.ini")
        args = {"run": ["run", "--scenario", scenario, "--out", str(tmp_path)],
                "validate": ["validate", "--scenario", scenario]}[command]
        assert not _numpy_loaded(*args, code=1 if command == "validate" else 0)
        if command == "run":
            runlog = (tmp_path / "runlog.csv").read_bytes()
            assert hashlib.sha256(runlog).hexdigest() == RUNLOG_SHA256["seeded_violation"]

    def test_overridden_fuzzy_system_imports_numpy(self, tmp_path):
        # An override that stays monotone builds its rectified surface.
        path = _write(tmp_path, "s.ini", "[fuzzy:ig]\ngrid_resolution = 501\n")
        assert _numpy_loaded("validate", "--scenario", str(path))

    def test_long_raw_run_imports_numpy_and_writes_the_same_log(self, tmp_path):
        # Past the plain-value limit (lowered from 500 to 5 in the child) the
        # array kernel takes over and gives the same values.
        assert _numpy_loaded("run", "--scenario", str(SCENARIOS / "seeded_violation.ini"),
                             "--out", str(tmp_path), plain_values=5)
        runlog = (tmp_path / "runlog.csv").read_bytes()
        assert hashlib.sha256(runlog).hexdigest() == RUNLOG_SHA256["seeded_violation"]


class TestColdStartImports:
    """Records are built without generated code, a run's tick bound is taken
    in integers and ``logging`` is imported only when ``FEAROVER_LOG`` asks
    for INFO or DEBUG: a cold command loads none of ``dataclasses`` (with
    ``inspect``), ``fractions`` or ``decimal``, and none it does not run."""

    @pytest.mark.parametrize("command", ["run", "validate", "replay-tables"])
    def test_cold_command_loads_only_what_it_runs(self, tmp_path, command):
        scenario = str(SCENARIOS / "survey_default.ini")
        args = {"run": ["run", "--scenario", scenario, "--out", str(tmp_path)],
                "validate": ["validate", "--scenario", scenario],
                "replay-tables": ["replay-tables"]}[command]
        loaded = _loaded_modules(*args)
        assert not loaded & {"dataclasses", "inspect", "logging", "fractions", "decimal", "csv"}

    @pytest.mark.parametrize("scenario", ["four_provider_trace", "seeded_violation",
                                          "survey_halved_appraisal"])
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_bundled_routes_load_without_csv(self, tmp_path, scenario, command):
        # A route line holding no quote is split without ``csv``; the
        # survey_default case is above.  seeded_violation fails Invariant1.
        path = str(SCENARIOS / f"{scenario}.ini")
        args = {"run": ["run", "--scenario", path, "--out", str(tmp_path)],
                "validate": ["validate", "--scenario", path]}[command]
        code = 1 if (scenario, command) == ("seeded_violation", "validate") else 0
        assert "csv" not in _loaded_modules(*args, code=code)

    def test_verbose_log_loads_logging(self):
        assert "logging" in _loaded_modules("replay-tables", log="INFO")
