"""The per-reading records: RawObservation, CanonicalObservation and Event.

Each is an immutable tuple record whose constructor runs its checks;
``canonicalize`` builds its CanonicalObservation from values it has already
checked, so it must reject, with its own typed codes, whatever the checking
constructor would.
"""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semdrought.cep.engine import Event
from semdrought.errors import SemDroughtError
from semdrought.ingest import (
    AlignmentTable,
    EmptyFieldError,
    MalformedError,
    RawObservation,
    canonicalize,
    parse_csv_line,
    parse_json_observation,
)
from semdrought.model import CanonicalObservation, Namespaces, Vocabulary

NS = Namespaces()
TABLE = AlignmentTable.from_json(json.dumps({
    "terms": {"soil_hum": "ex:soilMoisture", "rain": "ex:precipitation"},
    "units": {"%": {"iri": "ex:percentVolumetric"},
              "inch": {"iri": "ex:millimetre", "scale": 25.4}},
    "sensors": {"s1": {"iri": "ex:sensor/s1", "lat": -29.1, "lon": 26.2}},
}), Vocabulary(NS))

RAW = dict(sensor_id_raw="s1", property_raw="soil_hum", value_raw="23.5", unit_raw="%",
           timestamp_raw="2023-01-01T00:00:00Z", lat_raw="-29.1", lon_raw="26.2")
CANONICAL = dict(id=NS.iri("ex:obs/s1/1672531200"), sensor_id=NS.iri("ex:sensor/s1"),
                 property=NS.iri("ex:soilMoisture"), value=23.5,
                 unit=NS.iri("ex:percentVolumetric"), timestamp=1672531200, lat=-29.1, lon=26.2)
EVENT = dict(kind="k", timestamp=60, value=1.5)

# (record, its fields, one of them changed)
RECORDS = [(RawObservation, RAW, {"unit_raw": "pct"}),
           (CanonicalObservation, CANONICAL, {"lon": 26.3}),
           (Event, EVENT, {"value": 2.5})]


def build(record, fields, **changes):
    return record(**{**fields, **changes})


class TestContract:
    @pytest.mark.parametrize("record, fields, _", RECORDS)
    def test_a_field_cannot_be_set(self, record, fields, _):
        built = build(record, fields)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(built, name, fields[name])
        with pytest.raises(AttributeError):
            built.extra = 1

    @pytest.mark.parametrize("record, fields, changed", RECORDS)
    def test_equal_fields_give_equal_records_and_hashes(self, record, fields, changed):
        a, b = build(record, fields), record(*fields.values())
        assert a == b and hash(a) == hash(b) and a is not b
        assert tuple(a) == tuple(fields.values()) and a._fields == tuple(fields)
        assert build(record, fields, **changed) != a

    def test_defaults(self):
        assert Event(kind="k", timestamp=0) == Event("k", 0, None)
        assert RawObservation("s", "p", "1", "u", "t") == RawObservation(*"sp1ut", "", "")

    def test_an_integral_float_timestamp_becomes_an_int(self):
        obs = build(CanonicalObservation, CANONICAL, timestamp=1672531200.0)
        assert type(obs.timestamp) is int and obs == build(CanonicalObservation, CANONICAL)


class TestCheckingConstructors:
    @pytest.mark.parametrize("changes", [
        {"value": math.nan}, {"value": math.inf}, {"value": -math.inf},
        {"timestamp": -1}, {"timestamp": 1.5}, {"timestamp": math.nan},
        {"lat": 90.5}, {"lat": -91}, {"lat": math.nan}, {"lon": 180.5}, {"lon": -181},
    ])
    def test_canonical_observation(self, changes):
        with pytest.raises(ValueError):
            build(CanonicalObservation, CANONICAL, **changes)

    @pytest.mark.parametrize("changes", [
        {"timestamp": -1}, {"value": math.nan}, {"value": math.inf}, {"value": -math.inf},
    ])
    def test_event(self, changes):
        with pytest.raises(ValueError):
            build(Event, EVENT, **changes)

    @pytest.mark.parametrize("name", list(RAW)[:5])
    def test_raw_observation_blank_field(self, name):
        with pytest.raises(EmptyFieldError, match=f"{name} is blank"):
            build(RawObservation, RAW, **{name: ""})

    @pytest.mark.parametrize("name", list(RAW))
    def test_raw_observation_lone_surrogate(self, name):
        with pytest.raises(MalformedError, match="lone surrogate"):
            build(RawObservation, RAW, **{name: "1\udfff"})

    def test_raw_observation_blank_location_is_allowed(self):
        assert build(RawObservation, RAW, lat_raw="", lon_raw="").lat_raw == ""


class TestCanonicalizeChecksOnce:
    @pytest.mark.parametrize("changes, code", [
        ({"value_raw": "nan"}, "BadNumber"),
        ({"value_raw": "-inf"}, "BadNumber"),
        ({"value_raw": "wet"}, "BadNumber"),
        ({"property_raw": "rain", "unit_raw": "inch", "value_raw": "1e308"}, "NonFinite"),
        ({"timestamp_raw": "1969-12-31T23:59:59Z"}, "BadTimestamp"),
        ({"timestamp_raw": "2023-01-01T00:00:00.5Z"}, "BadTimestamp"),
        ({"lat_raw": "90.5"}, "OutOfRange"),
        ({"lon_raw": "-180.5"}, "OutOfRange"),
        ({"lat_raw": "nan"}, "BadNumber"),
        ({"lat_raw": "", "lon_raw": "26.2"}, "MissingLocation"),
    ])
    def test_codes(self, changes, code):
        with pytest.raises(SemDroughtError) as caught:
            canonicalize(build(RawObservation, RAW, **changes), TABLE)
        assert caught.value.code == code

    def test_the_record_equals_the_checked_one(self):
        obs = canonicalize(build(RawObservation, RAW), TABLE)
        assert type(obs) is CanonicalObservation
        assert obs == build(CanonicalObservation, CANONICAL)
        assert CanonicalObservation(*obs) == obs


def outcome(raw_of, *args):
    """The observation a raw record canonicalizes to, or its error code."""
    try:
        return canonicalize(raw_of(*args), TABLE)
    except SemDroughtError as exc:
        return exc.code


@given(st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10 ** 400, 10 ** 400))
def test_a_json_number_canonicalizes_as_its_csv_spelling(value):
    document = json.dumps({"sensor_id": "s1", "property": "soil_hum", "value": value,
                           "unit": "%", "timestamp": RAW["timestamp_raw"]})
    line = f"s1,soil_hum,{value!r},%,{RAW['timestamp_raw']},,"
    assert outcome(parse_json_observation, document) == outcome(parse_csv_line, line)
