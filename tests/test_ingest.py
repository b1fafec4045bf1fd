"""Parser, alignment and canonicalization tests."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semdrought.ingest import (
    MEMO_LIMIT,
    AlignmentTable,
    BadNumberError,
    BadTimestampError,
    ColumnCountError,
    EmptyFieldError,
    MalformedError,
    MissingElementError,
    MissingKeyError,
    MissingLocationError,
    OutOfRangeError,
    RawObservation,
    SensorEntry,
    UnitEntry,
    UnitMismatchError,
    UnknownTermError,
    UnknownUnitError,
    WrongTypeError,
    canonicalize,
    convert_unit,
    parse_csv_line,
    parse_json_observation,
    parse_payload,
    parse_timestamp,
    parse_xml_observation,
)
from semdrought.model import Namespaces, Vocabulary, canonical_double, format_utc_instant

NS = Namespaces()
VOCAB = Vocabulary(NS)

TABLE_JSON = json.dumps({
    "terms": {
        "soil_hum": "ex:soilMoisture",
        "SM": "ex:soilMoisture",
        "soilMoisture": "ex:soilMoisture",
        "rain": "ex:precipitation",
        "precip_mm": "ex:precipitation",
        "temp": "ex:airTemperature",
        "t_air": "ex:airTemperature",
    },
    "units": {
        "%": {"iri": "ex:percentVolumetric", "scale": 1.0, "offset": 0.0},
        "pct": {"iri": "ex:percentVolumetric", "scale": 1.0, "offset": 0.0},
        "mm": {"iri": "ex:millimetre", "scale": 1.0, "offset": 0.0},
        "inch": {"iri": "ex:millimetre", "scale": 25.4, "offset": 0.0},
        "C": {"iri": "ex:degreeCelsius", "scale": 1.0, "offset": 0.0},
        "F": {"iri": "ex:degreeCelsius", "scale": 5.0 / 9.0, "offset": -160.0 / 9.0},
    },
    "sensors": {
        "s1": {"iri": "ex:sensor/s1", "lat": -29.1, "lon": 26.2},
    },
})

TABLE = AlignmentTable.from_json(TABLE_JSON, VOCAB)


class TestCsvParser:
    def test_default_schema_split(self):
        raw = parse_csv_line("s1,soil_hum,23.5,%,2023-01-01T00:00:00Z,-29.1,26.2")
        assert raw.property_raw == "soil_hum"
        assert raw.value_raw == "23.5"

    def test_wrong_arity(self):
        with pytest.raises(ColumnCountError):
            parse_csv_line("s1,soil_hum,23.5,%,2023-01-01T00:00:00Z,-29.1")

    def test_fields_trimmed_case_preserved(self):
        raw = parse_csv_line(" s1 , SOIL_HUM , 23.5 ,% ,2023-01-01T00:00:00Z,-29.1,26.2")
        assert raw.sensor_id_raw == "s1"
        assert raw.property_raw == "SOIL_HUM"

    def test_blank_required_field(self):
        with pytest.raises(EmptyFieldError):
            parse_csv_line("s1,,23.5,%,2023-01-01T00:00:00Z,-29.1,26.2")

    def test_blank_coordinates_allowed(self):
        raw = parse_csv_line("s1,soil_hum,23.5,%,2023-01-01T00:00:00Z,,")
        assert raw.lat_raw == "" and raw.lon_raw == ""

    def test_embedded_comma_changes_arity(self):
        with pytest.raises(ColumnCountError):
            parse_csv_line('s1,"a,b",23.5,%,2023-01-01T00:00:00Z,-29.1,26.2')


class TestJsonParser:
    def test_basic_object(self):
        raw = parse_json_observation(
            '{"sensor_id":"s1","property":"SM","value":23.5,'
            '"unit":"pct","timestamp":"2023-01-01T00:00:00Z"}'
        )
        assert raw.property_raw == "SM"
        assert raw.value_raw == "23.5"

    def test_missing_key(self):
        with pytest.raises(MissingKeyError):
            parse_json_observation(
                '{"sensor_id":"s1","property":"SM","value":1,"timestamp":"2023-01-01T00:00:00Z"}'
            )

    def test_string_typed_value_accepted(self):
        raw = parse_json_observation(
            '{"sensor_id":"s1","property":"SM","value":"23.5",'
            '"unit":"pct","timestamp":"2023-01-01T00:00:00Z"}'
        )
        assert raw.value_raw == "23.5"

    def test_integral_number_canonicalized(self):
        raw = parse_json_observation(
            '{"sensor_id":"s1","property":"SM","value":45.0,'
            '"unit":"pct","timestamp":"2023-01-01T00:00:00Z"}'
        )
        assert raw.value_raw == "45"

    def test_array_value_rejected(self):
        with pytest.raises(WrongTypeError):
            parse_json_observation(
                '{"sensor_id":"s1","property":"SM","value":[1],'
                '"unit":"pct","timestamp":"2023-01-01T00:00:00Z"}'
            )

    def test_bool_value_rejected(self):
        with pytest.raises(WrongTypeError):
            parse_json_observation(
                '{"sensor_id":"s1","property":"SM","value":true,'
                '"unit":"pct","timestamp":"2023-01-01T00:00:00Z"}'
            )

    def test_syntax_error(self):
        with pytest.raises(MalformedError):
            parse_json_observation("{nope")

    def test_unknown_keys_ignored(self):
        raw = parse_json_observation(
            '{"sensor_id":"s1","property":"SM","value":1,"unit":"pct",'
            '"timestamp":"2023-01-01T00:00:00Z","battery":0.9}'
        )
        assert raw.sensor_id_raw == "s1"


XML_OK = (
    "<Observation><procedure>s1</procedure>"
    "<observedProperty>soilMoisture</observedProperty>"
    '<result uom="%">23.5</result>'
    "<time>2023-01-01T00:00:00Z</time></Observation>"
)


class TestXmlParser:
    def test_element_extraction(self):
        raw = parse_xml_observation(XML_OK)
        assert raw.sensor_id_raw == "s1"
        assert raw.unit_raw == "%"
        assert raw.value_raw == "23.5"

    def test_missing_time(self):
        doc = XML_OK.replace("<time>2023-01-01T00:00:00Z</time>", "")
        with pytest.raises(MissingElementError):
            parse_xml_observation(doc)

    def test_unknown_elements_ignored(self):
        doc = XML_OK.replace("</Observation>", "<extra><deep/></extra></Observation>")
        raw = parse_xml_observation(doc)
        assert raw.property_raw == "soilMoisture"

    def test_missing_uom(self):
        doc = XML_OK.replace(' uom="%"', "")
        with pytest.raises(MissingElementError):
            parse_xml_observation(doc)

    def test_malformed(self):
        with pytest.raises(MalformedError):
            parse_xml_observation("<Observation><procedure>s1")

    def test_optional_coordinates(self):
        doc = XML_OK.replace("</Observation>", "<lat>-29.1</lat><lon>26.2</lon></Observation>")
        raw = parse_xml_observation(doc)
        assert raw.lat_raw == "-29.1"


class TestUnitConversion:
    def test_fahrenheit_freezing_point(self):
        entry = TABLE.unit("F")
        assert convert_unit(32.0, entry) == pytest.approx(0.0, abs=1e-12)

    def test_identity(self):
        assert convert_unit(23.5, TABLE.unit("%")) == 23.5

    def test_inches_to_millimetres(self):
        # hand multiplication: 2.5 * 25.4 = 63.5
        assert convert_unit(2.5, TABLE.unit("inch")) == 63.5

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_registered_inverse_round_trips(self, x):
        f_to_c = TABLE.unit("F")
        c_to_f = UnitEntry(iri=NS.iri("ex:degreeCelsius"), scale=9.0 / 5.0, offset=32.0)
        assert convert_unit(convert_unit(x, f_to_c), c_to_f) == pytest.approx(x, abs=1e-9)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            UnitEntry(iri=NS.iri("ex:percent"), scale=0.0, offset=0.0)

    def test_overflowing_conversion_is_non_finite(self):
        from semdrought.ingest import NonFiniteError
        entry = UnitEntry(iri=NS.iri("ex:millimetre"), scale=1e308, offset=0.0)
        with pytest.raises(NonFiniteError):
            convert_unit(1e10, entry)


class TestAlignmentTable:
    def test_lookup_case_insensitive_after_trim(self):
        assert TABLE.term("  SOIL_HUM ") == NS.iri("ex:soilMoisture")
        assert TABLE.unit(" PCT") is not None

    def test_duplicate_under_normalization_rejected(self):
        table = AlignmentTable(VOCAB)
        table.add_term("SM", NS.iri("ex:soilMoisture"))
        with pytest.raises(ValueError):
            table.add_term("sm ", NS.iri("ex:soilMoisture"))

    def test_unit_must_be_canonical_for_some_property(self):
        table = AlignmentTable(VOCAB)
        with pytest.raises(ValueError):
            table.add_unit("furlong", UnitEntry(iri=NS.iri("ex:furlong"), scale=1, offset=0))

    def test_unknown_sensor_minted(self):
        entry = TABLE.sensor("fresh-99")
        assert entry.iri == NS.join("sensor/fresh-99")
        assert entry.lat is None


class TestAlignmentMemo:
    """``resolve`` and ``station`` memoize successes only, and forget them
    when an entry is added."""

    def test_a_term_added_after_a_failed_use_resolves(self):
        table = AlignmentTable.from_json(TABLE_JSON, VOCAB)
        with pytest.raises(UnknownTermError):
            canonicalize(raw_csv(property_raw="moisture"), table)
        table.add_term("moisture", NS.iri("ex:soilMoisture"))
        assert canonicalize(raw_csv(property_raw="moisture"), table).property == \
            NS.iri("ex:soilMoisture")

    def test_a_sensor_added_after_use_replaces_the_minted_one(self):
        table = AlignmentTable.from_json(TABLE_JSON, VOCAB)
        minted = canonicalize(raw_csv(sensor_id_raw="s7"), table)
        assert minted.sensor_id == NS.join("sensor/s7")
        table.add_sensor("s7", SensorEntry(iri=NS.iri("ex:station/seven"), lat=-29.0, lon=26.0))
        listed = canonicalize(raw_csv(sensor_id_raw="s7", lat_raw="", lon_raw=""), table)
        assert (listed.sensor_id, listed.lat, listed.lon) == (NS.iri("ex:station/seven"),
                                                              -29.0, 26.0)
        assert listed.id == NS.join(f"obs/seven/{listed.timestamp}")

    @pytest.mark.parametrize("raw, error, term", [
        (dict(property_raw="frogcount"), UnknownTermError, "frogcount"),
        (dict(unit_raw="furlong"), UnknownUnitError, "furlong"),
        (dict(unit_raw="mm"), UnitMismatchError, ""),
    ])
    def test_a_failed_lookup_is_not_memoized(self, raw, error, term):
        table = AlignmentTable.from_json(TABLE_JSON, VOCAB)
        for _ in range(2):
            with pytest.raises(error) as caught:
                canonicalize(raw_csv(**raw), table)
            assert caught.value.term == term
        assert table.resolve.cache_info().currsize == 0

    def test_timestamps_are_memoized_by_spelling_within_the_bound(self):
        for second in range(MEMO_LIMIT + 10):
            assert parse_timestamp(format_utc_instant(second)) == second
        assert parse_timestamp.cache_info().currsize == MEMO_LIMIT
        for _ in range(2):
            with pytest.raises(BadTimestampError, match="before epoch"):
                parse_timestamp("1969-12-31T23:59:59Z")

    def test_distinct_sensor_ids_stay_within_the_bound(self):
        table = AlignmentTable.from_json(TABLE_JSON, VOCAB)
        for i in range(10_000):
            obs = canonicalize(raw_csv(sensor_id_raw=f"ghost-{i}"), table)
        assert obs.sensor_id == NS.join("sensor/ghost-9999")
        assert table.station.cache_info().currsize <= MEMO_LIMIT
        assert table.resolve.cache_info().currsize == 1


def raw_csv(**kw) -> RawObservation:
    defaults = dict(
        sensor_id_raw="s1", property_raw="soil_hum",
        value_raw="23.5", unit_raw="%", timestamp_raw="2023-01-01T00:00:00Z",
        lat_raw="-29.1", lon_raw="26.2",
    )
    defaults.update(kw)
    return RawObservation(**defaults)


class TestCanonicalize:
    @pytest.mark.parametrize("field", ["sensor_id_raw", "property_raw", "unit_raw", "lat_raw"])
    def test_a_lone_surrogate_is_malformed(self, field):
        with pytest.raises(MalformedError, match="lone surrogate"):
            raw_csv(**{field: "s\ud800"})

    def test_alignment_entry_resolution(self):
        obs = canonicalize(raw_csv(), TABLE)
        assert obs.property == NS.iri("ex:soilMoisture")
        assert obs.unit == NS.iri("ex:percentVolumetric")
        assert obs.value == 23.5
        assert obs.timestamp == 1672531200

    def test_unknown_term_surfaces(self):
        with pytest.raises(UnknownTermError):
            canonicalize(raw_csv(property_raw="frogcount"), TABLE)

    def test_unknown_unit(self):
        with pytest.raises(UnknownUnitError):
            canonicalize(raw_csv(unit_raw="cubits"), TABLE)

    def test_unit_property_mismatch(self):
        with pytest.raises(UnitMismatchError):
            canonicalize(raw_csv(unit_raw="mm"), TABLE)

    def test_bad_timestamp(self):
        with pytest.raises(BadTimestampError):
            canonicalize(raw_csv(timestamp_raw="yesterday"), TABLE)

    def test_bad_number(self):
        with pytest.raises(BadNumberError):
            canonicalize(raw_csv(value_raw="wet"), TABLE)

    def test_out_of_range_latitude(self):
        with pytest.raises(OutOfRangeError):
            canonicalize(raw_csv(lat_raw="95.0"), TABLE)

    def test_station_metadata_fills_location(self):
        obs = canonicalize(raw_csv(lat_raw="", lon_raw=""), TABLE)
        assert obs.lat == -29.1 and obs.lon == 26.2

    def test_missing_location(self):
        with pytest.raises(MissingLocationError):
            canonicalize(raw_csv(sensor_id_raw="s9", lat_raw="", lon_raw=""), TABLE)

    @pytest.mark.parametrize("source_format, payload", [
        ("csv", "s1,soil_hum,23.5,%,2023-01-01T00:00:00Z,-29.1,"),
        ("csv", "s1,soil_hum,23.5,%,2023-01-01T00:00:00Z,,26.2"),
        ("json", '{"sensor_id": "s1", "property": "SM", "value": 23.5, "unit": "pct", '
                 '"timestamp": "2023-01-01T00:00:00Z", "lat": -29.1}'),
        ("json", '{"sensor_id": "s1", "property": "SM", "value": 23.5, "unit": "pct", '
                 '"timestamp": "2023-01-01T00:00:00Z", "lon": 26.2, "lat": ""}'),
        ("xml", XML_OK.replace("</Observation>", "<lat>-29.1</lat></Observation>")),
        ("xml", XML_OK.replace("</Observation>", "<lon>26.2</lon><lat> </lat></Observation>")),
    ])
    def test_half_a_coordinate_pair_is_missing_location(self, source_format, payload):
        # s1 has station coordinates, which must not stand in for the other half
        with pytest.raises(MissingLocationError, match="one of lat and lon"):
            canonicalize(parse_payload(source_format, payload), TABLE)

    def test_fahrenheit_conversion_applied(self):
        obs = canonicalize(
            raw_csv(property_raw="temp", unit_raw="F", value_raw="212"), TABLE
        )
        assert obs.value == pytest.approx(100.0, abs=1e-9)
        assert obs.unit == NS.iri("ex:degreeCelsius")


class TestCrossFormatEquivalence:
    def render_three_ways(self, value_lex: str) -> list[RawObservation]:
        ts = "2023-01-01T06:00:00Z"
        csv_line = f"s1,soil_hum,{value_lex},%,{ts},-29.1,26.2"
        json_doc = json.dumps({
            "sensor_id": "s1", "property": "SM", "value": float(value_lex),
            "unit": "pct", "timestamp": ts, "lat": -29.1, "lon": 26.2,
        })
        xml_doc = (
            "<Observation><procedure>s1</procedure>"
            "<observedProperty>soilMoisture</observedProperty>"
            f'<result uom="%">{value_lex}</result>'
            f"<time>{ts}</time><lat>-29.1</lat><lon>26.2</lon></Observation>"
        )
        return [
            parse_csv_line(csv_line),
            parse_json_observation(json_doc),
            parse_xml_observation(xml_doc),
        ]

    @given(st.floats(min_value=0, max_value=100, allow_nan=False))
    def test_all_formats_canonicalize_identically(self, value):
        lex = canonical_double(value)
        outs = [canonicalize(raw, TABLE) for raw in self.render_three_ways(lex)]
        assert outs[0] == outs[1] == outs[2]

    def test_determinism(self):
        line = "s1,soil_hum,23.5,%,2023-01-01T00:00:00Z,-29.1,26.2"
        a = canonicalize(parse_csv_line(line), TABLE)
        b = canonicalize(parse_csv_line(line), TABLE)
        assert a == b


class TestAlignmentTotality:
    @given(
        prop=st.sampled_from(["soil_hum", "SM", "rain", "temp", "t_air"]),
        value=st.floats(min_value=-50, max_value=500, allow_nan=False),
    )
    def test_output_always_canonical(self, prop, value):
        unit_for = {"soil_hum": "%", "SM": "pct", "rain": "mm", "temp": "C", "t_air": "C"}
        obs = canonicalize(
            raw_csv(property_raw=prop, unit_raw=unit_for[prop], value_raw=canonical_double(value)),
            TABLE,
        )
        assert obs.property in VOCAB.property_units
        assert obs.unit == VOCAB.property_units[obs.property]
