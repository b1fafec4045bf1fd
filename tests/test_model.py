"""Tests for terms, lexical forms, the vocabulary and the observation mapping."""

import math
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semdrought.model import (
    MAX_UTC_INSTANT,
    AmbiguousError,
    BadLiteralError,
    CanonicalObservation,
    Datatype,
    Iri,
    Literal,
    MissingFieldError,
    Namespaces,
    OntologyCategory,
    Triple,
    Vocabulary,
    canonical_double,
    format_utc_instant,
    mint_observation_iri,
    observation_to_triples,
    parse_utc_instant,
    triples_to_observation,
)

NS = Namespaces()
VOCAB = Vocabulary(NS)


# --- independent calendar oracle -------------------------------------------

def civil_from_days(days: int) -> tuple[int, int, int]:
    """Proleptic Gregorian date from days since 1970-01-01 (era arithmetic)."""
    days += 719468
    era = (days if days >= 0 else days - 146096) // 146097
    doe = days - era * 146097
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    year = yoe + era * 400
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    day = doy - (153 * mp + 2) // 5 + 1
    month = mp + 3 if mp < 10 else mp - 9
    return year + (1 if month <= 2 else 0), month, day


def iso_oracle(ts: int) -> str:
    days, rem = divmod(ts, 86400)
    y, m, d = civil_from_days(days)
    hh, rem = divmod(rem, 3600)
    mm, ss = divmod(rem, 60)
    return f"{y:04d}-{m:02d}-{d:02d}T{hh:02d}:{mm:02d}:{ss:02d}Z"


class TestLexicalForms:
    def test_zero_is_bare_zero(self):
        assert canonical_double(0.0) == "0"
        assert canonical_double(-0.0) == "0"

    def test_integral_values_drop_fraction(self):
        assert canonical_double(45.0) == "45"
        assert canonical_double(-3.0) == "-3"

    def test_plain_decimal(self):
        assert canonical_double(23.5) == "23.5"

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trips(self, x):
        assert float(canonical_double(x)) == x

    @given(st.floats(min_value=1e-3, max_value=9.9e6, allow_nan=False))
    def test_no_exponent_in_positional_window(self, x):
        assert "e" not in canonical_double(x).lower()

    def test_known_epoch_conversion(self):
        assert format_utc_instant(1672531200) == "2023-01-01T00:00:00Z"

    @given(st.integers(min_value=0, max_value=4102444800))
    def test_epoch_matches_calendar_oracle(self, ts):
        assert format_utc_instant(ts) == iso_oracle(ts)

    @given(st.integers(min_value=0, max_value=4102444800))
    def test_instant_round_trip(self, ts):
        assert parse_utc_instant(format_utc_instant(ts)) == ts

    @pytest.mark.parametrize(
        "bad",
        [
            "2023-01-01T00:00:00",        # no Z
            "2023-01-01T00:00:00+00:00",  # offset instead of Z
            "2023-01-01T00:00:00.5Z",     # sub-second precision
            "2023-01-01 00:00:00Z",
            "not a date",
            "2100-02-29T00:00:00Z",       # not a leap year
            "10000-01-01T00:00:00Z",      # five-digit year
        ],
    )
    def test_rejects_non_utc_instants(self, bad):
        with pytest.raises(ValueError):
            parse_utc_instant(bad)

    def test_field_ranges_match_strptime(self):
        """Accepts and converts exactly what strptime does, at every field edge."""
        def reference(text):
            try:
                dt = datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ")
            except ValueError:
                return None
            return int(dt.replace(tzinfo=timezone.utc).timestamp())

        def parsed(text):
            try:
                return parse_utc_instant(text)
            except ValueError:
                return None

        dates = [f"{year}-{month:02d}-{day:02d}T12:30:45Z"
                 for year in ("0000", "0001", "1900", "1969", "2000", "2023", "2024", "9999")
                 for month in range(14) for day in range(33)]
        clocks = [f"2024-02-29T{h}:{m}:{s}Z" for h in ("00", "23", "24")
                  for m in ("00", "59", "60") for s in ("00", "59", "60", "61")]
        for text in dates + clocks:
            assert parsed(text) == reference(text), text


class TestInstantCodec:
    """The two codecs against datetime over every instant with a four-digit year;
    ``test_field_ranges_match_strptime`` covers the field edges."""

    @settings(max_examples=2000, derandomize=True)
    @given(st.integers(min_value=0, max_value=MAX_UTC_INSTANT))
    @example(0)
    @example(951782400)
    @example(4107542400)
    @example(MAX_UTC_INSTANT)
    def test_equal_to_datetime(self, ts):
        text = datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        assert format_utc_instant(ts) == text
        assert parse_utc_instant(text) == ts

    @pytest.mark.parametrize("text", ["\u0662\u0660\u0662\u0660-01-01T00:00:00Z",
                                      "2020-01-0\u0661T00:00:00Z", "2020-01-01T00:00:0\uff15Z"])
    def test_parse_takes_ascii_digits_only(self, text):
        """``re``'s ``\\d`` also matches every other Unicode decimal digit."""
        with pytest.raises(ValueError, match="not an ISO-8601 UTC instant"):
            parse_utc_instant(text)
        with pytest.raises(ValueError, match="not an ISO-8601 UTC instant"):
            Literal(text, Datatype.DATETIME)

    def test_format_rejects_the_year_10000(self):
        with pytest.raises(ValueError, match="year 10000 is out of range"):
            format_utc_instant(MAX_UTC_INSTANT + 1)


class TestTerms:
    def test_iri_rejects_whitespace_and_empty(self):
        with pytest.raises(ValueError):
            Iri("")
        with pytest.raises(ValueError):
            Iri("http://x.org/a b")

    def test_whitespace_check_agrees_with_isspace_on_every_code_point(self):
        def by_isspace(v):
            return not v or any(map(str.isspace, v))

        differ = [hex(code) for code in range(0x110000)
                  for v in (chr(code), "a" + chr(code) + "b")
                  if (v.split() != [v]) != by_isspace(v)]
        assert differ == []

    def test_iri_accepts_registered_prefix(self):
        assert Iri("ex:soilMoisture").value == "ex:soilMoisture"
        with pytest.raises(ValueError):
            Iri("nope:thing")

    def test_double_literal_must_be_finite(self):
        with pytest.raises(ValueError):
            Literal("inf", Datatype.DOUBLE)
        with pytest.raises(ValueError):
            Literal("abc", Datatype.DOUBLE)

    @pytest.mark.parametrize("lexical", ["1_0", "1_000.5", "1e1_0", "\u0661", "\u0661\u0660",
                                         "\uff11.5", "-\u0967"])
    def test_double_literal_is_ascii_without_separators(self, lexical):
        float(lexical)      # which Python's float takes
        with pytest.raises(ValueError, match="not a double literal"):
            Literal(lexical, Datatype.DOUBLE)

    def test_predicate_must_be_iri(self):
        s = Iri("ex:a")
        with pytest.raises(ValueError):
            Triple(s, Literal("1", Datatype.DOUBLE), s)

    def test_triples_compare_by_value(self):
        a = Triple(Iri("ex:s"), Iri("ex:p"), Iri("ex:o"))
        b = Triple(Iri("ex:s"), Iri("ex:p"), Iri("ex:o"))
        assert a == b and len({a, b}) == 1


class TestVocabulary:
    def test_canonical_pairs_complete(self):
        assert len(VOCAB.property_units) == 5
        assert None not in VOCAB.property_units.values()

    def test_shipped_influence_fact(self):
        sm = NS.iri("ex:soilMoisture")
        temp = NS.iri("ex:airTemperature")
        assert (sm, temp) in VOCAB.influences

    def test_category_annotations(self):
        assert VOCAB.categories[NS.iri("ex:Sensor")] is OntologyCategory.OBJECT
        assert VOCAB.categories[NS.iri("ex:ObservationEvent")] is OntologyCategory.EVENT


def make_obs(sensor="s1", prop="ex:soilMoisture", unit="ex:percentVolumetric",
             value=23.5, ts=1672531200, lat=-29.1, lon=26.2) -> CanonicalObservation:
    sensor_iri = NS.join(f"sensor/{sensor}")
    return CanonicalObservation(
        sensor_id=sensor_iri,
        property=NS.iri(prop),
        value=value,
        unit=NS.iri(unit),
        timestamp=ts,
        lat=lat,
        lon=lon,
    )


class TestObservationMinting:
    def test_template(self):
        iri = mint_observation_iri(NS, NS.join("sensor/s1"), 0)
        assert iri == NS.iri("ex:obs/s1/0")

    def test_deterministic(self):
        a = mint_observation_iri(NS, NS.join("sensor/s1"), 0)
        b = mint_observation_iri(NS, NS.join("sensor/s1"), 0)
        assert a == b

    def test_distinct_sensors_distinct_iris(self):
        a = mint_observation_iri(NS, NS.join("sensor/a"), 7)
        b = mint_observation_iri(NS, NS.join("sensor/b"), 7)
        assert a != b


observation_values = st.builds(
    make_obs,
    sensor=st.sampled_from(["s1", "s2", "station-9"]),
    prop=st.sampled_from([p.value for p in VOCAB.property_units]).map(lambda v: v),
    value=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    ts=st.integers(min_value=0, max_value=4102444800),
    lat=st.floats(min_value=-90, max_value=90, allow_nan=False),
    lon=st.floats(min_value=-180, max_value=180, allow_nan=False),
)


class TestObservationTriples:
    def test_exactly_eight_with_distinct_predicates(self):
        triples = observation_to_triples(NS, make_obs())
        assert len(triples) == 8
        assert len({t.predicate for t in triples}) == 8

    def test_zero_value_canonical_literal(self):
        triples = observation_to_triples(NS, make_obs(value=0.0))
        has_value = NS.expand("ex:hasValue")
        lit = next(t.object for t in triples if t.predicate.value == has_value)
        assert lit == Literal("0", Datatype.DOUBLE)

    def test_timestamp_literal_from_calendar_oracle(self):
        triples = observation_to_triples(NS, make_obs(ts=1672531200))
        at_time = NS.expand("ex:atTime")
        lit = next(t.object for t in triples if t.predicate.value == at_time)
        assert lit.lexical == iso_oracle(1672531200) == "2023-01-01T00:00:00Z"

    @settings(max_examples=200)
    @given(observation_values)
    def test_round_trip_identity(self, obs):
        back = triples_to_observation(NS, set(observation_to_triples(NS, obs)))
        # field-exact, including bit-comparable floats
        assert back == obs
        assert math.copysign(1, back.value) == math.copysign(1, obs.value) or obs.value == 0

    def test_missing_field(self):
        triples = observation_to_triples(NS, make_obs())
        at_time = NS.expand("ex:atTime")
        subset = [t for t in triples if t.predicate.value != at_time]
        with pytest.raises(MissingFieldError):
            triples_to_observation(NS, subset)

    def test_two_observations_ambiguous(self):
        union = observation_to_triples(NS, make_obs(sensor="a")) + observation_to_triples(
            NS, make_obs(sensor="b")
        )
        with pytest.raises(AmbiguousError):
            triples_to_observation(NS, union)

    def test_out_of_range_literal_is_bad_literal(self):
        lat = NS.iri("ex:lat")
        triples = [Triple(t.subject, t.predicate, Literal("95", Datatype.DOUBLE))
                   if t.predicate == lat else t
                   for t in observation_to_triples(NS, make_obs())]
        with pytest.raises(BadLiteralError):
            triples_to_observation(NS, triples)


class TestObservationInvariants:
    def test_unit_canonical_rule_is_ingests_job_not_models(self):
        # the model type allows any unit IRI; alignment enforces canonical pairing
        obs = make_obs(unit="ex:millimetre")
        assert obs.unit == NS.iri("ex:millimetre")

    @pytest.mark.parametrize("lat,lon", [(-91, 0), (91, 0), (0, -181), (0, 181)])
    def test_rejects_out_of_range_coordinates(self, lat, lon):
        with pytest.raises(ValueError):
            make_obs(lat=lat, lon=lon)

    def test_rejects_negative_timestamp(self):
        with pytest.raises(ValueError):
            make_obs(ts=-1)

    def test_rejects_non_finite_value(self):
        with pytest.raises(ValueError):
            make_obs(value=float("nan"))
