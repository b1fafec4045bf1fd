"""Parser, alignment and canonicalization tests."""

import json
import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semdrought.ingest import (
    MEMO_LIMIT,
    AlignmentTable,
    BadNumberError,
    BadTimestampError,
    ColumnCountError,
    EmptyFieldError,
    IngestError,
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
# XML_OK, then the same document in a spelling the plain pattern refuses, which
# ElementTree reads: each TestXmlParser case runs on both
XML_SPELLINGS = (XML_OK, '<?xml version="1.0"?>' + XML_OK)


class TestXmlParser:
    def test_element_extraction(self):
        for xml_ok in XML_SPELLINGS:
            raw = parse_xml_observation(xml_ok)
            assert raw.sensor_id_raw == "s1"
            assert raw.unit_raw == "%"
            assert raw.value_raw == "23.5"

    @staticmethod
    def assert_missing(tag: str, text: str) -> None:
        """Element ``tag``, holding ``text``, deleted, empty or blank, in each spelling."""
        for xml_ok in XML_SPELLINGS:
            element = re.search(f"<{tag}[^>]*>{text}</{tag}>", xml_ok).group()
            for form in ("", element.replace(text, ""), element.replace(text, " \t")):
                with pytest.raises(MissingElementError, match=f"^missing element {tag}$"):
                    parse_xml_observation(xml_ok.replace(element, form))

    def test_missing_time(self):
        self.assert_missing("time", "2023-01-01T00:00:00Z")

    @pytest.mark.parametrize("tag,text", [
        ("procedure", "s1"), ("observedProperty", "soilMoisture"), ("result", "23.5")])
    def test_missing_element_is_named(self, tag, text):
        self.assert_missing(tag, text)

    def test_unknown_elements_ignored(self):
        for xml_ok in XML_SPELLINGS:
            doc = xml_ok.replace("</Observation>", "<extra><deep/></extra></Observation>")
            raw = parse_xml_observation(doc)
            assert raw.property_raw == "soilMoisture"

    def test_missing_uom(self):
        for xml_ok in XML_SPELLINGS:
            for uom in ("", ' uom=""', ' uom=" "'):
                with pytest.raises(MissingElementError, match="lacks a uom attribute"):
                    parse_xml_observation(xml_ok.replace(' uom="%"', uom))

    def test_malformed(self):
        for xml_ok in XML_SPELLINGS:
            with pytest.raises(MalformedError, match="bad XML"):
                parse_xml_observation(xml_ok.partition("</procedure>")[0])
            with pytest.raises(MalformedError, match="root element must be Observation"):
                parse_xml_observation(xml_ok.replace("Observation>", "Obs>"))

    def test_optional_coordinates(self):
        for xml_ok in XML_SPELLINGS:
            doc = xml_ok.replace("</Observation>", "<lat>-29.1</lat><lon>26.2</lon></Observation>")
            raw = parse_xml_observation(doc)
            assert raw.lat_raw == "-29.1"


def test_only_a_spelling_the_pattern_refuses_builds_a_tree(monkeypatch):
    trees, parse = [], ET.fromstring

    def fromstring(document):
        trees.append(document)
        return parse(document)

    monkeypatch.setattr(ET, "fromstring", fromstring)
    assert len({parse_xml_observation(doc) for doc in XML_SPELLINGS}) == 1
    assert trees == [XML_SPELLINGS[1]]


def tree_parse(document: str) -> RawObservation:
    """The ElementTree reading that every XML document had before the plain
    pattern: the reference the pattern is checked against."""
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise MalformedError(f"bad XML: {exc}")
    if root.tag != "Observation":
        raise MalformedError(f"root element must be Observation, got {root.tag}")

    def text_of(tag: str, required: bool) -> str:
        node = root.find(tag)
        text = "" if node is None else (node.text or "").strip()
        if required and not text:
            raise MissingElementError(f"missing element {tag}")
        return text

    result = root.find("result")
    if result is None or not (result.text or "").strip():
        raise MissingElementError("missing element result")
    unit = result.get("uom", "").strip()
    if not unit:
        raise MissingElementError("result element lacks a uom attribute")
    return RawObservation(text_of("procedure", True), text_of("observedProperty", True),
                          (result.text or "").strip(), unit, text_of("time", True),
                          text_of("lat", False), text_of("lon", False))


# what the plain pattern reads: printable ASCII or tab, without & < ] in element
# text, and without tab " & < in the uom
XML_TEXT = "".join(c for c in map(chr, range(0x20, 0x7F)) if c not in "&<]") + "\t"
XML_UOM = "".join(c for c in XML_TEXT if c not in '\t"')
# spellings that XML unescapes, normalizes or refuses, in element text and in the uom
TEXT_SNIPPETS = ("&amp;", "&#65;", "<![CDATA[a]]>", "<!--c-->", "]]>", "]", "&", "<",
                 "\r", "\r\n", "\n", "\x00", "\x0b", "\x7f", "\u00e9")
UOM_SNIPPETS = ("\t", '"', "'", "&amp;", "&", "<", "\r", "\n", "\u00e9")
# (kind, argument) of each mutation of a plain document's spelling
XML_MUTATIONS = (
    *[("text", snippet) for snippet in TEXT_SNIPPETS],
    *[("uom", snippet) for snippet in UOM_SNIPPETS],
    ("insert", "anywhere"), ("quote", "'"), ("result attribute", ' unit="mm"'),
    ("root attribute", ' id="1"'), ("root attribute", ' xmlns="urn:x"'), ("root", "Obs"),
    ("between", " "), ("between", "\r\n"), ("prolog", '<?xml version="1.0"?>'),
    ("reorder", ""), ("duplicate", ""), ("drop", ""), ("nest", ""),
)


@st.composite
def xml_mutants(draw, mutation: tuple[str, str]) -> str:
    """A plain observation document with ``mutation``, and perhaps one more,
    applied to its spelling."""
    def insert(into: str, snippet: str) -> str:
        at = draw(st.integers(0, len(into)))
        return into[:at] + snippet + into[at:]

    def element(tag: str, text: str) -> str:
        attributes = f" uom={quote}{uom}{quote}{extra}" if tag == "result" else ""
        return f"<{tag}{attributes}>{text}</{tag}>"

    tags = ("procedure", "observedProperty", "result", "time", "lat", "lon")
    children = [[tag, draw(st.text(XML_TEXT, min_size=1, max_size=6))]
                for tag in tags[:draw(st.integers(4, 6))]]
    uom = draw(st.text(XML_UOM, max_size=4))
    quote, extra, root, root_attributes, between, prolog = '"', "", "Observation", "", "", ""
    inserts = 0
    for kind, argument in [mutation, *draw(st.lists(st.sampled_from(XML_MUTATIONS), max_size=1))]:
        pick = draw(st.integers(0, len(children) - 1)) if children else None
        if kind == "text" and children:
            children[pick][1] = insert(children[pick][1], argument)
        elif kind == "uom":
            uom = insert(uom, argument)
        elif kind == "insert":
            inserts += 1
        elif kind == "quote":
            quote = argument
        elif kind == "result attribute":
            extra = argument
        elif kind == "root attribute":
            root_attributes = argument
        elif kind == "root":
            root = argument
        elif kind == "between":
            between = argument
        elif kind == "prolog":
            prolog = argument
        elif kind == "reorder":
            children = draw(st.permutations(children))
        elif kind == "duplicate" and children:
            children.insert(draw(st.integers(0, len(children))), list(children[pick]))
        elif kind == "drop" and children:
            del children[pick]
        elif kind == "nest" and len(children) > 1:
            inner = element(*children.pop(pick))
            host = children[draw(st.integers(0, len(children) - 1))]
            host[1] = insert(host[1], inner)
    body = between.join(element(tag, text) for tag, text in children)
    document = f"{prolog}<{root}{root_attributes}>{between}{body}{between}</{root}>"
    for _ in range(inserts):
        document = insert(document, draw(st.sampled_from(TEXT_SNIPPETS + UOM_SNIPPETS)))
    return document


def xml_outcome(parse, document: str):
    try:
        return parse(document)
    except IngestError as exc:
        return exc.code, str(exc)


@pytest.mark.parametrize("mutation", XML_MUTATIONS, ids=repr)
@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_xml_reads_as_elementtree_reads_it(mutation, data):
    document = data.draw(xml_mutants(mutation))
    assert xml_outcome(parse_xml_observation, document) == xml_outcome(tree_parse, document)


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
