"""The record helper behind every fearover record class."""

import pytest

from fearover._records import FrozenInstanceError, field, record, replace
from fearover.cli import Scenario
from fearover.crsite import PoolEntry
from fearover.fear import FearInputs, FearParams
from fearover.route import GeoPoint
from fearover.sim import RunLog, SimConfig


@record(frozen=True)
class Pair:
    first: float
    second: float = 2.0


@record(frozen=True)
class OtherPair:
    first: float
    second: float = 2.0


@record
class Box:
    items: list = field(default_factory=list)


class TestEquality:
    def test_equal_fields_of_one_class_are_equal(self):
        assert Pair(1.0, 2.0) == Pair(first=1.0) == Pair(1.0, second=2.0)
        assert Pair(1.0) != Pair(1.0, 3.0)

    def test_never_equal_to_another_class_or_a_tuple(self):
        assert Pair(1.0, 2.0) != OtherPair(1.0, 2.0)
        assert Pair(1.0, 2.0) != (1.0, 2.0)
        assert (1.0, 2.0) != Pair(1.0, 2.0)
        assert GeoPoint(10.0, 20.0) != PoolEntry(10.0, 20.0)
        assert Pair(1.0).__eq__((1.0, 2.0)) is NotImplemented

    def test_equal_frozen_records_hash_equally(self):
        a = FearInputs(30.0, -90.0)
        b = FearInputs(distance_m=30.0, signal_dbm=-90.0)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, FearInputs(31.0, -90.0)}) == 2
        assert hash(FearParams()) == hash(FearParams(combiner="mean"))

    def test_mutable_records_are_unhashable(self):
        for value in (RunLog(), Box()):
            with pytest.raises(TypeError):
                hash(value)


class TestFrozen:
    def test_assignment_and_deletion_refused(self):
        params = FearParams()
        with pytest.raises(AttributeError):
            params.combiner = "min"
        with pytest.raises(FrozenInstanceError):
            del params.combiner
        with pytest.raises(AttributeError):
            params.anything = 1
        assert params.combiner == "mean"

    def test_mutable_record_assigns(self):
        scenario = Scenario(None, SimConfig(), None, None)
        scenario.db = "db"
        assert scenario.db == "db"


class TestConstruction:
    def test_default_factory_builds_per_instance(self):
        assert RunLog().events is not RunLog().events
        assert RunLog().pools is not RunLog().pools
        assert Box().items is not Box().items
        assert SimConfig().fear == SimConfig().fear

    def test_positional_and_keyword_paths_agree(self):
        assert FearInputs(30.0, -90.0, 1.0, 1.0, 1.0, True, -1.0) == FearInputs(
            signal_dbm=-90.0, distance_m=30.0)

    @pytest.mark.parametrize("call", [
        lambda: GeoPoint(1.0),                               # missing
        lambda: GeoPoint(1.0, 2.0, 3.0),                     # unexpected
        lambda: GeoPoint(1.0, 2.0, latitude=1.0),            # repeated
        lambda: GeoPoint(longitude=2.0),                     # missing
        lambda: GeoPoint(latitude=1.0, longitude=2.0, altitude=3.0),  # unexpected
        lambda: GeoPoint(1.0, latitude=1.0, longitude=2.0),  # repeated
    ], ids=["positional-missing", "positional-unexpected", "positional-repeated",
            "keyword-missing", "keyword-unexpected", "keyword-repeated"])
    def test_bad_arguments_raise_type_error(self, call):
        with pytest.raises(TypeError):
            call()

    def test_post_init_checks_both_paths(self):
        with pytest.raises(ValueError):
            FearInputs(-1.0, -90.0)
        with pytest.raises(ValueError):
            FearInputs(distance_m=-1.0, signal_dbm=-90.0)

    def test_fields_in_declaration_order(self):
        assert FearInputs._fields == ("distance_m", "signal_dbm", "comm_importance", "sor",
                                      "vtp", "prospect", "desirability")


class TestRepr:
    def test_repr_spells_every_field(self):
        assert repr(PoolEntry(-70.0, -80.5)) == "PoolEntry(current_dbm=-70.0, future_dbm=-80.5)"
        assert repr(Pair("a")) == "Pair(first='a', second=2.0)"
        text = repr(FearInputs(30.0, -90.0))
        assert text == ("FearInputs(distance_m=30.0, signal_dbm=-90.0, comm_importance=1.0, "
                        "sor=1.0, vtp=1.0, prospect=True, desirability=-1.0)")


class TestReplace:
    def test_replace_changes_only_the_named_fields(self):
        inputs = FearInputs(30.0, -90.0, sor=0.5)
        assert replace(inputs, distance_m=10.0) == FearInputs(10.0, -90.0, sor=0.5)
        assert inputs.distance_m == 30.0

    def test_replace_validates_again(self):
        with pytest.raises(ValueError):
            replace(FearParams(), combiner="median")
        with pytest.raises(TypeError):
            replace(FearParams(), median=1)
