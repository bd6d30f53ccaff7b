import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fearover.route import (
    DuplicateLabel,
    EmptyDatabase,
    GeoPoint,
    IndexOutOfRange,
    MalformedRow,
    RouteDb,
    SurveyPoint,
    UnknownProvider,
    haversine_m,
)

from oracles import reference_great_circle_m, reference_route, route_csv

MINI_CSV = """\
label,lat,lon,SP1,SP2
A,33.1445,73.7457,-100,-90
B,33.1444,73.7456,-60,-70
C,33.1443,73.7455,-85,-50
"""


class TestLoadCsv:
    def test_survey_first_row(self, survey_db):
        first = survey_db.points[0]
        assert first.label == "A"
        assert first.point == GeoPoint(33.144552, 73.745719)
        assert first.signal("SP1") == -100
        assert first.signal("SP2") == -90
        assert first.signal("SP3") == -80

    def test_survey_providers_and_size(self, survey_db):
        assert survey_db.providers == ("SP1", "SP2", "SP3")
        assert len(survey_db.points) == 14
        assert [p.label for p in survey_db.points] == list("ABCDEFGHIJKLMN")

    def test_cumulative_strictly_increasing(self, survey_db):
        pairs = zip(survey_db.cumulative_m, survey_db.cumulative_m[1:])
        assert survey_db.cumulative_m[0] == 0.0
        assert all(b > a for a, b in pairs)

    def test_total_length_matches_the_surveyed_road(self, survey_db):
        assert 8000 <= survey_db.route_length_m <= 9000

    def test_header_only_is_empty(self):
        with pytest.raises(EmptyDatabase):
            RouteDb.from_csv("label,lat,lon,SP1\n")

    def test_single_row_is_empty(self):
        with pytest.raises(EmptyDatabase):
            RouteDb.from_csv("label,lat,lon,SP1\nA,33.0,73.0,-50\n")

    def test_non_numeric_signal(self):
        text = MINI_CSV.replace("-100", "bad")
        with pytest.raises(MalformedRow):
            RouteDb.from_csv(text)

    def test_duplicate_label(self):
        text = MINI_CSV.replace("B,", "A,", 1)
        with pytest.raises(DuplicateLabel):
            RouteDb.from_csv(text)

    def test_signal_out_of_range(self):
        text = MINI_CSV.replace("-100", "-130")
        with pytest.raises(MalformedRow):
            RouteDb.from_csv(text)

    def test_missing_field(self):
        with pytest.raises(MalformedRow):
            RouteDb.from_csv("label,lat,lon,SP1,SP2\nA,33.0,73.0,-50\nB,33.1,73.1,-50,-60\n")

    def test_bad_header(self):
        with pytest.raises(MalformedRow):
            RouteDb.from_csv("name,lat,lon,SP1\n")

    def test_duplicate_provider_column(self):
        with pytest.raises(MalformedRow, match="line 1: duplicate provider column"):
            RouteDb.from_csv("label,lat,lon,SP1,SP1\nA,33,73,-50,-60\nB,34,73,-50,-60\n")

    def test_out_of_range_coordinates(self):
        with pytest.raises(MalformedRow):
            RouteDb.from_csv("label,lat,lon,SP1\nA,95.0,73.0,-50\nB,33.1,73.1,-50\n")

    def test_coinciding_points_name_both_labels(self):
        # The second point repeats the first's position, so the route order
        # between them is lost; the message names the pair, as a line would.
        text = MINI_CSV.replace("B,33.1444,73.7456", "B,33.1445,73.7457")
        with pytest.raises(MalformedRow, match=r"^consecutive points 'A' and 'B' coincide"):
            RouteDb.from_csv(text)

    def test_comments_and_blank_lines_skipped(self):
        text = "# survey\n\n" + MINI_CSV
        assert len(RouteDb.from_csv(text).points) == 3

    def test_fractional_dbm_parses(self):
        text = MINI_CSV.replace("-100", "-99.5")
        db = RouteDb.from_csv(text)
        assert db.points[0].signal("SP1") == -99.5


def _with_refusal(old: str, new: str, count: int = 1) -> str:
    assert MINI_CSV.count(old) >= count
    return MINI_CSV.replace(old, new, count)


class TestCsvRefusals:
    """Every way ``from_csv`` refuses a text, by exception class and message."""

    @pytest.mark.parametrize("text, error, message", [
        pytest.param(_with_refusal("B,33.1444,73.7456,-60,-70", "B,33.1444,73.7456,-60"),
                     MalformedRow, "line 3: expected 5 fields, got 4", id="too-few-fields"),
        pytest.param(_with_refusal("-60,-70", "-60,-70,-80"),
                     MalformedRow, "line 3: expected 5 fields, got 6", id="too-many-fields"),
        pytest.param(_with_refusal("B,", "A,"),
                     DuplicateLabel, "line 3: duplicate label 'A'", id="duplicate-label"),
        pytest.param(_with_refusal("B,", " A ,"),
                     DuplicateLabel, "line 3: duplicate label 'A'", id="duplicate-padded-label"),
        pytest.param(_with_refusal("label", "name"),
                     MalformedRow, "line 1: header must be label,lat,lon,<providers>",
                     id="bad-header"),
        pytest.param("label,lat,lon\nA,33,73\nB,34,73\n",
                     MalformedRow, "line 1: header must be label,lat,lon,<providers>",
                     id="no-provider-column"),
        pytest.param(_with_refusal("SP2", " "), MalformedRow,
                     "line 1: provider name '' is empty or holds a comma, quote, CR or LF",
                     id="empty-provider"),
        pytest.param(_with_refusal("SP2", '"S,P"'), MalformedRow,
                     "line 1: provider name 'S,P' is empty or holds a comma, quote, CR or LF",
                     id="provider-with-comma"),
        pytest.param(_with_refusal("SP2", "SP1"),
                     MalformedRow, "line 1: duplicate provider column", id="repeated-provider"),
        pytest.param(_with_refusal("33.1444", "north"), MalformedRow,
                     "line 3: could not convert string to float: 'north'", id="lat-unparsable"),
        pytest.param(_with_refusal("73.7456", " 73.7.456 "), MalformedRow,
                     "line 3: could not convert string to float: '73.7.456'",
                     id="lon-unparsable"),
        pytest.param(_with_refusal("-70", "-7O"), MalformedRow,
                     "line 3: could not convert string to float: '-7O'", id="dbm-unparsable"),
        pytest.param(_with_refusal("33.1444", "95"),
                     MalformedRow, "line 3: latitude 95.0 outside [-90, 90]", id="lat-out"),
        pytest.param(_with_refusal("33.1444", "nan"),
                     MalformedRow, "line 3: latitude nan outside [-90, 90]", id="lat-nan"),
        pytest.param(_with_refusal("73.7456", "-180.5"),
                     MalformedRow, "line 3: longitude -180.5 outside [-180, 180]", id="lon-out"),
        pytest.param(_with_refusal("73.7456", "NaN"),
                     MalformedRow, "line 3: longitude nan outside [-180, 180]", id="lon-nan"),
        pytest.param(_with_refusal("-70", "-130"),
                     MalformedRow, "line 3: SP2=-130.0 outside [-120, 0] dBm", id="dbm-out"),
        pytest.param(_with_refusal("-60", "5"),
                     MalformedRow, "line 3: SP1=5.0 outside [-120, 0] dBm", id="dbm-positive"),
        pytest.param(_with_refusal("-70", "nan"),
                     MalformedRow, "line 3: SP2=nan outside [-120, 0] dBm", id="dbm-nan"),
        # A row is refused for its first fault, and the first faulty row wins.
        pytest.param(_with_refusal("B,33.1444,73.7456,-60", "B,95,x,-60"), MalformedRow,
                     "line 3: could not convert string to float: 'x'", id="parse-before-range"),
        pytest.param(_with_refusal("B,33.1444,73.7456,-60,-70", "B,33.1444,181,-60,-130"),
                     MalformedRow, "line 3: longitude 181.0 outside [-180, 180]",
                     id="coordinates-before-readings"),
        pytest.param(_with_refusal("-60", "-130").replace("C,", "B,"),
                     MalformedRow, "line 3: SP1=-130.0 outside [-120, 0] dBm",
                     id="earlier-row-first"),
        pytest.param(_with_refusal("B,33.1444,73.7456", "B,33.1445,73.7457"), MalformedRow,
                     "consecutive points 'A' and 'B' coincide; route order broken",
                     id="coinciding"),
        # ``csv`` refuses a field longer than its limit of 131,072 characters.
        pytest.param(_with_refusal("SP2", '"' + "S" * 140_000 + '"'), MalformedRow,
                     "line 1: field larger than field limit (131072)", id="long-quoted-name"),
        pytest.param(_with_refusal("A,", '"' + "A" * 140_000 + '",'), MalformedRow,
                     "line 2: field larger than field limit (131072)", id="long-quoted-label"),
        pytest.param("# nothing\n\n", EmptyDatabase, "no rows at all", id="no-rows"),
        pytest.param("label,lat,lon,SP1\n",
                     EmptyDatabase, "need at least 2 data rows, got 0", id="header-only"),
        pytest.param("label,lat,lon,SP1\nA,33.0,73.0,-50\n",
                     EmptyDatabase, "need at least 2 data rows, got 1", id="one-row"),
    ])
    def test_refusal(self, text, error, message):
        with pytest.raises(error) as info:
            RouteDb.from_csv(text)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold(self, threshold):
        with pytest.raises(ValueError) as info:
            RouteDb.from_csv(MINI_CSV, bad_threshold_dbm=threshold)
        assert type(info.value) is ValueError
        assert str(info.value) == f"bad_threshold_dbm must be finite, got {threshold}"


class TestColumns:
    """``from_csv`` fills the columns and builds the ``SurveyPoint`` records
    only when ``points`` is first read, from the objects in the columns."""

    def test_columns(self):
        db = RouteDb.from_csv(MINI_CSV)
        assert db.labels == ("A", "B", "C")
        assert db.latitudes == (33.1445, 33.1444, 33.1443)
        assert db.longitudes == (73.7457, 73.7456, 73.7455)
        assert dict(db.readings) == {"SP1": (-100.0, -60.0, -85.0), "SP2": (-90.0, -70.0, -50.0)}
        with pytest.raises(TypeError):
            db.readings["SP1"] = (-50.0, -50.0, -50.0)

    def test_points_built_on_first_access(self):
        db = RouteDb.from_csv(MINI_CSV)
        assert "points" not in vars(db)
        assert db.signal_at(1, "SP2") == -70.0
        assert db.current_signal(0.0, "SP1") == -100.0
        assert db.future_signal(0.0, "SP1") == -60.0
        assert db.next_bad_index(0.0, "SP1") == 2
        assert "points" not in vars(db)
        points = db.points
        assert db.points is points
        for k, point in enumerate(points):
            assert point.label == db.labels[k]
            assert point.point.latitude is db.latitudes[k]
            assert point.point.longitude is db.longitudes[k]
            for provider in db.providers:
                assert point.signals[provider] is db.readings[provider][k]

    @given(rows=st.lists(st.tuples(st.floats(-180, 180), st.floats(-120, 0),
                                   st.floats(-120, 0)), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_columns_hold_the_floats_given(self, rows):
        """A number written by ``repr`` loads as the very float, -0.0 too."""
        rows = [(f"R{k}", 33.0 + 0.001 * k, *row) for k, row in enumerate(rows)]
        rows[0] = (*rows[0][:3], -0.0, 0.0)
        db = RouteDb.from_csv(route_csv(["SP1", "SP2"], rows))
        given_columns = list(zip(*rows))[1:]
        loaded_columns = [db.latitudes, db.longitudes, *db.readings.values()]
        assert [list(map(repr, c)) for c in loaded_columns] == [
            list(map(repr, c)) for c in given_columns]

    def test_from_csv_is_the_only_constructor(self):
        assert "__init__" not in vars(RouteDb)

    def test_quoted_labels_load(self):
        text = MINI_CSV.replace("A,", '"Mirpur, gate ""A""",', 1).replace("B,", '"B",', 1)
        db = RouteDb.from_csv(text)
        assert db.labels == ('Mirpur, gate "A"', "B", "C")
        assert db.cumulative_m == RouteDb.from_csv(MINI_CSV).cumulative_m


# Characters ``str.splitlines`` ends a line at.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_PADS = st.sampled_from(["", " ", "  ", "\t"])
_NUMBER_FORMATS = st.sampled_from([repr, "{:.6f}".format, "{:.9e}".format])


@st.composite
def survey_texts(draw):
    """A well-formed survey CSV: comment and blank lines anywhere, padded
    fields, quoted labels that may hold commas and quotes, 1-5 providers."""
    providers = draw(st.lists(st.text("ABCDPQRSxyz0123456789_-", min_size=1, max_size=4),
                              min_size=1, max_size=5, unique=True))
    n_points = draw(st.integers(2, 10))
    characters = st.one_of(
        st.sampled_from(', "#'),
        st.characters(blacklist_categories=("Cs",), blacklist_characters=_LINE_BREAKS))
    labels = draw(st.lists(
        st.text(characters, max_size=6).filter(lambda label: not label.strip().startswith("#")),
        min_size=n_points, max_size=n_points, unique_by=str.strip))
    lat, lon = draw(st.floats(-60, 60)), draw(st.floats(-170, 170))

    def padded(field):
        return draw(_PADS) + field + draw(_PADS)

    def line(fields):
        return ",".join(fields) + draw(st.sampled_from(["\n", "\r\n"]))

    def filler():
        comments = st.text(st.characters(blacklist_categories=("Cs",),
                                         blacklist_characters=_LINE_BREAKS + '"'), max_size=8)
        return "".join(
            draw(st.one_of(_PADS, st.builds(lambda pad, note: f"{pad}#{note}", _PADS, comments)))
            + "\n" for _ in range(draw(st.integers(0, 2))))

    text = filler() + line([padded("label"), "lat", padded("lon")]
                           + [padded(p) for p in providers])
    for label in labels:
        if draw(st.booleans()) or "," in label or '"' in label:
            label = '"' + label.replace('"', '""') + '"' + draw(_PADS)
        else:
            label = padded(label)
        readings = [draw(st.one_of(st.integers(-120, 0).map(str),
                                   st.floats(-120, 0).map(draw(_NUMBER_FORMATS))))
                    for _ in providers]
        text += filler() + line([label, padded(draw(_NUMBER_FORMATS)(lat)),
                                 padded(draw(_NUMBER_FORMATS)(lon))]
                                + [padded(r) for r in readings])
        lat += draw(st.sampled_from([-1, 1])) * draw(st.floats(1e-3, 0.05))
        lon += draw(st.floats(-0.05, 0.05))
    return text


class TestLoadMatchesOracle:
    @given(text=survey_texts(), threshold=st.integers(-121, 0))
    @settings(max_examples=150, deadline=None)
    def test_from_csv_equals_reference(self, text, threshold):
        db = RouteDb.from_csv(text, bad_threshold_dbm=threshold)
        ref = reference_route(text, threshold)
        assert db.providers == tuple(ref["providers"])
        assert db.labels == tuple(ref["labels"])
        assert db.latitudes == tuple(ref["latitudes"])
        assert db.longitudes == tuple(ref["longitudes"])
        assert {p: list(column) for p, column in db.readings.items()} == ref["readings"]
        assert list(db.cumulative_m) == ref["cumulative_m"]
        for provider in db.providers:
            bad, position = [], -math.inf
            while (index := db.next_bad_index(position, provider)) is not None:
                bad.append(index)
                position = db.cumulative_m[index]
            assert bad == ref["bad"][provider]


class TestReadingRange:
    """Readings are checked when a ``SurveyPoint`` is built, whichever path builds it."""

    @pytest.mark.parametrize("dbm", [math.nan, math.inf, -math.inf, 50.0, -130.0])
    def test_out_of_range_rejected_by_constructor(self, dbm):
        with pytest.raises(ValueError, match=r"SP2=.* outside \[-120, 0\] dBm"):
            SurveyPoint("A", GeoPoint(33.0, 73.0), {"SP1": -70.0, "SP2": dbm})

    @pytest.mark.parametrize("dbm", [-120.0, 0.0])
    def test_range_ends_accepted(self, dbm):
        assert SurveyPoint("A", GeoPoint(33.0, 73.0), {"SP1": dbm}).signal("SP1") == dbm

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "50"])
    def test_csv_reading_names_its_line(self, text):
        with pytest.raises(MalformedRow, match=r"line 3: SP1=.* outside"):
            RouteDb.from_csv(MINI_CSV.replace("-60", text))


class TestProviderNames:
    """A provider name becomes a ``runlog.csv`` field, which is never quoted:
    a name that would need quoting is refused when the header is read."""

    @pytest.mark.parametrize("column", ["", '"S,P"', 'S"P'])
    def test_csv_header_names_its_line(self, column):
        text = "# survey\n" + MINI_CSV.replace("SP2", column, 1)
        with pytest.raises(MalformedRow, match=r"line 2: provider name .* is empty or holds"):
            RouteDb.from_csv(text)


class TestFrozenRoute:
    """What the tick loop reads cannot change after ``RouteDb`` has indexed it."""

    TWO_POINTS = "label,lat,lon,SP1\nA,33.1445,73.7457,-60\nB,33.1444,73.7456,-90\n"

    @pytest.mark.parametrize("dbm", [-50.0, math.nan])
    def test_reading_assignment_raises(self, dbm):
        db = RouteDb.from_csv(self.TWO_POINTS)
        with pytest.raises(TypeError):
            db.points[1].signals["SP1"] = dbm
        assert db.next_bad_index(0.0, "SP1") == 1
        assert db.points[1].signal("SP1") == -90.0

    def test_constructor_copies_readings(self):
        readings = {"SP1": -90.0}
        point = SurveyPoint("A", GeoPoint(33.0, 73.0), readings)
        readings["SP1"] = math.nan
        assert point.signal("SP1") == -90.0

    def test_providers_are_frozen(self):
        db = RouteDb.from_csv(MINI_CSV)
        with pytest.raises(AttributeError):
            db.providers.append("SP9")
        assert db.providers == ("SP1", "SP2")

    def test_points_and_distances_are_frozen(self):
        db = RouteDb.from_csv(MINI_CSV)
        for sequence in (db.points, db.cumulative_m):
            with pytest.raises(TypeError):
                sequence[1] = sequence[0]
            with pytest.raises(AttributeError):
                sequence.append(sequence[0])


class TestHaversine:
    def test_identity(self):
        p = GeoPoint(33.144552, 73.745719)
        assert haversine_m(p, p) == 0.0

    def test_symmetry_exact(self, survey_db):
        for a, b in itertools.combinations(survey_db.points, 2):
            assert haversine_m(a.point, b.point) == haversine_m(b.point, a.point)

    def test_matches_independent_formulation(self, survey_db):
        for a, b in itertools.combinations(survey_db.points, 2):
            ours = haversine_m(a.point, b.point)
            ref = reference_great_circle_m(
                a.point.latitude, a.point.longitude, b.point.latitude, b.point.longitude)
            assert ours == pytest.approx(ref, abs=1e-3)

    def test_triangle_inequality(self, survey_db):
        for a, b, c in itertools.combinations(survey_db.points, 3):
            ab = haversine_m(a.point, b.point)
            bc = haversine_m(b.point, c.point)
            ac = haversine_m(a.point, c.point)
            assert ac <= ab + bc + 1e-9

    @given(st.floats(-89, 89), st.floats(-179, 179),
           st.floats(-0.01, 0.01), st.floats(-0.01, 0.01))
    def test_small_offsets_agree_with_reference(self, lat, lon, dlat, dlon):
        p1 = GeoPoint(lat, lon)
        p2 = GeoPoint(lat + dlat, lon + dlon)
        assert haversine_m(p1, p2) == pytest.approx(
            reference_great_circle_m(lat, lon, lat + dlat, lon + dlon), abs=1e-3)

    def test_geopoint_validation(self):
        with pytest.raises(ValueError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(0.0, 181.0)


class TestNextBssp:
    def test_sp3_from_start(self, survey_db):
        # A itself reads -80 for SP3 but is not ahead; the first bad point
        # ahead in the SP3 column is G at -85.
        index = survey_db.next_bad_index(0.0, "SP3")
        assert survey_db.points[index].label == "G"
        assert survey_db.cumulative_m[index] == pytest.approx(survey_db.cumulative_m[6])

    def test_sp2_from_start(self, survey_db):
        index = survey_db.next_bad_index(0.0, "SP2")
        assert survey_db.points[index].label == "G"

    def test_sp1_from_start(self, survey_db):
        index = survey_db.next_bad_index(0.0, "SP1")
        assert survey_db.points[index].label == "E"
        assert 0 < survey_db.cumulative_m[index] <= survey_db.route_length_m

    def test_past_last_point(self, survey_db):
        assert survey_db.next_bad_index(survey_db.route_length_m, "SP1") is None

    def test_unknown_provider(self, survey_db):
        with pytest.raises(UnknownProvider):
            survey_db.next_bad_index(0.0, "SP9")

    def test_distance_positive_and_within_route(self, survey_db):
        for provider in survey_db.providers:
            position = 0.0
            while True:
                index = survey_db.next_bad_index(position, provider)
                if index is None:
                    break
                distance = survey_db.cumulative_m[index] - position
                assert 0.0 < distance <= survey_db.route_length_m - position
                position += distance


M_PER_DEG_LAT = 111195.08023353292


@st.composite
def routes(draw):
    """A random meridian route and a bad threshold, from one giving no BSSPs
    (-121, below every reading) to one making every point bad (0)."""
    providers = [f"P{i}" for i in range(draw(st.integers(1, 4)))]
    n_points = draw(st.integers(2, 12))
    spacings = draw(st.lists(st.integers(8, 60), min_size=n_points - 1,
                             max_size=n_points - 1))
    positions = [0.0]
    for s in spacings:
        positions.append(positions[-1] + s)
    rows = ["label,lat,lon," + ",".join(providers)]
    for k, pos in enumerate(positions):
        lat = 33.0 + pos / M_PER_DEG_LAT
        dbms = [draw(st.integers(-110, -31)) for _ in providers]
        rows.append(f"R{k},{lat:.9f},73.5," + ",".join(str(d) for d in dbms))
    threshold = draw(st.one_of(st.sampled_from([-121.0, 0.0]), st.integers(-111, -30)))
    return RouteDb.from_csv("\n".join(rows) + "\n", bad_threshold_dbm=threshold)


def scan_next_bad_index(db, position_m, provider):
    """Linear-scan oracle: the first point strictly ahead at or below the threshold."""
    for index, point in enumerate(db.points):
        if db.cumulative_m[index] > position_m and point.signals[provider] <= db.bad_threshold_dbm:
            return index
    return None


class TestNextBadIndexMatchesScan:
    @given(db=routes())
    @settings(max_examples=150, deadline=None)
    def test_bisection_equals_linear_scan(self, db):
        queries = [-math.inf, -1.0, db.route_length_m + 1.0, math.inf]
        for x in db.cumulative_m:
            queries += [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]
        for provider in db.providers:
            for position in queries:
                assert db.next_bad_index(position, provider) == \
                    scan_next_bad_index(db, position, provider), (provider, position)


class TestSignalQueries:
    def test_signal_at_start(self, survey_db):
        assert survey_db.signal_at(0, "SP1") == -100

    def test_signal_at_index_error(self, survey_db):
        with pytest.raises(IndexOutOfRange):
            survey_db.signal_at(99, "SP1")

    def test_future_signal_at_first_point(self, survey_db):
        # next point ahead of A is B
        assert survey_db.future_signal(0.0, "SP1") == -60

    def test_future_signal_between_points(self, survey_db):
        midpoint = (survey_db.cumulative_m[1] + survey_db.cumulative_m[2]) / 2
        assert survey_db.future_signal(midpoint, "SP1") == -50  # C

    def test_future_signal_clamps_at_end(self, survey_db):
        assert survey_db.future_signal(survey_db.route_length_m, "SP1") == -81  # N

    def test_current_signal_between_points(self, survey_db):
        midpoint = (survey_db.cumulative_m[1] + survey_db.cumulative_m[2]) / 2
        assert survey_db.current_signal(midpoint, "SP1") == -60  # B

    def test_unknown_provider(self, survey_db):
        with pytest.raises(UnknownProvider):
            survey_db.future_signal(0.0, "nope")


class TestBadThreshold:
    def test_threshold_is_inclusive(self):
        db = RouteDb.from_csv(MINI_CSV, bad_threshold_dbm=-85)
        # C reads exactly -85 for SP1: at the threshold counts as bad
        assert db.points[db.next_bad_index(0.0, "SP1")].label == "C"

    def test_custom_threshold_changes_the_set(self):
        db = RouteDb.from_csv(MINI_CSV, bad_threshold_dbm=-95)
        assert db.next_bad_index(0.0, "SP1") is None

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="bad_threshold_dbm must be finite"):
            RouteDb.from_csv(MINI_CSV, bad_threshold_dbm=threshold)
