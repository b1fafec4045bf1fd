"""Heterogeneous observation ingestion.

Parses CSV, JSON and a minimal XML observation subset into a raw record,
then aligns divergent property names, units and sensor ids to the
canonical vocabulary through a lookup table with affine unit conversion.

The XML subset: an <Observation> root whose procedure, observedProperty,
result (with a uom attribute) and time children, and optional lat and lon,
give the fields; other children are ignored. The plain spelling (those
elements in that order, unattributed root, nothing between them, text that
XML neither escapes nor normalizes) is read by one compiled pattern. Any
other well-formed spelling is read by ElementTree, to the same record.
"""

import functools
import json
import math
import re
import urllib.parse
import xml.etree.ElementTree as ET
from collections import namedtuple
from dataclasses import dataclass

from .errors import SemDroughtError
from .model import (
    CanonicalObservation,
    Iri,
    Vocabulary,
    canonical_double,
    json_number,
    observation_iri_prefix,
    parse_utc_instant,
)

CSV_COLUMNS = ("sensor_id", "property", "value", "unit", "timestamp", "lat", "lon")


class IngestError(SemDroughtError):
    code = "IngestError"

    def __init__(self, message: str = "", term: str = ""):
        super().__init__(message)
        self.term = term    # the raw term that could not be aligned, if any


class ColumnCountError(IngestError):
    code = "ColumnCount"


class EmptyFieldError(IngestError):
    code = "EmptyField"


class MalformedError(IngestError):
    code = "Malformed"


class MissingKeyError(IngestError):
    code = "MissingKey"


class WrongTypeError(IngestError):
    code = "WrongType"


class MissingElementError(IngestError):
    code = "MissingElement"


class UnknownTermError(IngestError):
    code = "UnknownTerm"


class UnknownUnitError(IngestError):
    code = "UnknownUnit"


class UnitMismatchError(IngestError):
    code = "UnitMismatch"


class BadTimestampError(IngestError):
    code = "BadTimestamp"


class BadNumberError(IngestError):
    code = "BadNumber"


class OutOfRangeError(IngestError):
    code = "OutOfRange"


class MissingLocationError(IngestError):
    code = "MissingLocation"


class NonFiniteError(IngestError):
    code = "NonFinite"


_SURROGATE = re.compile("[\ud800-\udfff]")    # the code points UTF-8 cannot encode


class RawObservation(namedtuple("RawObservation", [c + "_raw" for c in CSV_COLUMNS])):
    """One reading's fields as its payload spells them; blank lat/lon come from the station."""
    __slots__ = ()

    def __new__(cls, sensor_id_raw: str, property_raw: str, value_raw: str, unit_raw: str,
                timestamp_raw: str, lat_raw: str = "", lon_raw: str = ""):
        self = tuple.__new__(cls, (sensor_id_raw, property_raw, value_raw, unit_raw,
                                   timestamp_raw, lat_raw, lon_raw))
        if not all(self[:5]):
            raise EmptyFieldError(f"{self._fields[[*map(bool, self)].index(False)]} is blank")
        text = "".join(self)
        if not text.isascii() and _SURROGATE.search(text):    # such as a JSON "\ud800"
            raise MalformedError("a field holds a lone surrogate, which UTF-8 cannot encode")
        return self


# ---------------------------------------------------------------------------
# Format parsers
# ---------------------------------------------------------------------------

def parse_csv_line(line: str) -> RawObservation:
    """Comma-split in ``CSV_COLUMNS`` order with whitespace trimming; no
    quoting support."""
    fields = [f.strip() for f in line.split(",")]
    if len(fields) != len(CSV_COLUMNS):
        raise ColumnCountError(f"expected {len(CSV_COLUMNS)} columns, got {len(fields)}")
    return RawObservation(*fields)


def _json_scalar(value, key: str, allow_number: bool) -> str:
    kind = type(value)      # exact types: a boolean is not a number here
    if kind is str:
        return value
    if allow_number and kind is float:
        try:
            return canonical_double(value)
        except ValueError:      # its check for a value that is not finite
            raise WrongTypeError(f"key {key} is not finite")
    if allow_number and kind is int:
        return str(value)
    raise WrongTypeError(f"key {key} has type {kind.__name__}")


def parse_json_observation(document: str) -> RawObservation:
    """One observation object; numeric values rendered in canonical form."""
    try:
        payload = json.loads(document)
    except json.JSONDecodeError as exc:
        raise MalformedError(f"bad JSON: {exc.msg} at position {exc.pos}")
    except ValueError as exc:   # an integer of more digits than int() reads
        raise MalformedError(f"bad JSON: {exc}")
    if not isinstance(payload, dict):
        raise MalformedError("document must be a single object")
    for key in ("sensor_id", "property", "value", "unit", "timestamp"):
        if key not in payload:
            raise MissingKeyError(f"missing key {key}")
    return RawObservation(
        sensor_id_raw=_json_scalar(payload["sensor_id"], "sensor_id", allow_number=False),
        property_raw=_json_scalar(payload["property"], "property", allow_number=False),
        value_raw=_json_scalar(payload["value"], "value", allow_number=True),
        unit_raw=_json_scalar(payload["unit"], "unit", allow_number=False),
        timestamp_raw=_json_scalar(payload["timestamp"], "timestamp", allow_number=False),
        lat_raw=_json_scalar(payload["lat"], "lat", allow_number=True) if "lat" in payload else "",
        lon_raw=_json_scalar(payload["lon"], "lon", allow_number=True) if "lon" in payload else "",
    )


# The plain spelling: element text of printable ASCII or tab without &, < or ],
# and a uom of printable ASCII without tab, ", & or <, which XML reads as spelled.
# Groups: procedure, observedProperty, uom, result, time, lat, lon.
_TEXT = r"([\t -%'-;=-\\^-~]*)"
_PLAIN_XML = re.compile(
    f"<Observation><procedure>{_TEXT}</procedure>"
    f"<observedProperty>{_TEXT}</observedProperty>"
    f'<result uom="([ !#-%\'-;=-~]*)">{_TEXT}</result><time>{_TEXT}</time>'
    f"(?:<lat>{_TEXT}</lat>)?(?:<lon>{_TEXT}</lon>)?</Observation>"
)


def _tree_fields(document: str) -> tuple[str, ...]:
    """What ElementTree reads of the elements, in ``_PLAIN_XML``'s group order."""
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise MalformedError(f"bad XML: {exc}")
    if root.tag != "Observation":
        raise MalformedError(f"root element must be Observation, got {root.tag}")
    result = root.find("result")
    return (root.findtext("procedure", ""), root.findtext("observedProperty", ""),
            "" if result is None else result.get("uom", ""), root.findtext("result", ""),
            root.findtext("time", ""), root.findtext("lat", ""), root.findtext("lon", ""))


def parse_xml_observation(document: str) -> RawObservation:
    """Minimal <Observation> element set; unknown child elements are ignored.
    The plain spelling is read by one pattern, any other by ElementTree."""
    match = _PLAIN_XML.fullmatch(document)
    fields = match.groups("") if match else _tree_fields(document)
    procedure, prop, unit, value, time, lat, lon = map(str.strip, fields)
    if not value:
        raise MissingElementError("missing element result")
    if not unit:
        raise MissingElementError("result element lacks a uom attribute")
    for tag, text in (("procedure", procedure), ("observedProperty", prop), ("time", time)):
        if not text:
            raise MissingElementError(f"missing element {tag}")
    return RawObservation(procedure, prop, value, unit, time, lat, lon)


# ---------------------------------------------------------------------------
# Alignment table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitEntry:
    iri: Iri
    scale: float
    offset: float

    def __post_init__(self):
        if self.scale == 0 or not math.isfinite(self.scale) or not math.isfinite(self.offset):
            raise ValueError("unit entry needs finite scale != 0 and finite offset")


@dataclass(frozen=True)
class SensorEntry:
    iri: Iri
    lat: float | None = None
    lon: float | None = None


def _norm(key: str) -> str:
    return key.strip().lower()


# successful lookups each alignment memo keeps: a constant, since POST can send
# any number of distinct sensor ids
MEMO_LIMIT = 1024


class AlignmentTable:
    """Raw vocabulary to canonical IRIs; lookups are trimmed, case-insensitive.
    ``resolve`` and ``station`` memoize their successes by raw spelling until
    an entry is added; a failed lookup raises again each time."""

    def __init__(self, vocabulary: Vocabulary):
        self.vocabulary = vocabulary
        self.ns = vocabulary.ns
        self._terms: dict[str, Iri] = {}
        self._units: dict[str, UnitEntry] = {}
        self._sensors: dict[str, SensorEntry] = {}
        self.resolve = functools.lru_cache(MEMO_LIMIT)(self._resolve)
        self.station = functools.lru_cache(MEMO_LIMIT)(self._station)

    def _add(self, table: dict, what: str, raw: str, value) -> None:
        key = _norm(raw)
        if key in table:
            raise ValueError(f"duplicate {what} entry under normalization: {raw!r}")
        table[key] = value
        self.resolve.cache_clear()
        self.station.cache_clear()

    def add_term(self, raw: str, property_iri: Iri) -> None:
        if property_iri not in self.vocabulary.property_units:
            raise ValueError(f"not a canonical property: {property_iri.value}")
        self._add(self._terms, "term", raw, property_iri)

    def add_unit(self, raw: str, entry: UnitEntry) -> None:
        if entry.iri not in self.vocabulary.property_units.values():
            raise ValueError(f"unit {entry.iri.value} is canonical for no property")
        self._add(self._units, "unit", raw, entry)

    def add_sensor(self, raw: str, entry: SensorEntry) -> None:
        self._add(self._sensors, "sensor", raw, entry)

    def term(self, raw: str) -> Iri | None:
        return self._terms.get(_norm(raw))

    def unit(self, raw: str) -> UnitEntry | None:
        return self._units.get(_norm(raw))

    def sensor(self, raw: str) -> SensorEntry:
        """Table entry, or a sensor IRI minted from the raw id."""
        entry = self._sensors.get(_norm(raw))
        if entry is not None:
            return entry
        local = urllib.parse.quote(raw.strip(), safe="")
        return SensorEntry(iri=self.ns.join(f"sensor/{local}"))

    def _resolve(self, property_raw: str, unit_raw: str) -> tuple[Iri, UnitEntry, Iri]:
        """(property, unit entry, canonical unit) of a reading's raw property
        and unit; UnknownTerm, UnknownUnit or UnitMismatch if they do not align."""
        prop = self.term(property_raw)
        if prop is None:
            raise UnknownTermError(f"no alignment entry for property {property_raw!r}",
                                   term=property_raw)
        unit_entry = self.unit(unit_raw)
        if unit_entry is None:
            raise UnknownUnitError(f"no alignment entry for unit {unit_raw!r}", term=unit_raw)
        canonical_unit = self.vocabulary.property_units[prop]
        if unit_entry.iri != canonical_unit:
            raise UnitMismatchError(
                f"unit {unit_raw!r} resolves to {unit_entry.iri.value}, "
                f"but {prop.value} is measured in {canonical_unit.value}"
            )
        return prop, unit_entry, canonical_unit

    def _station(self, raw: str) -> tuple[SensorEntry, str]:
        """``sensor(raw)`` and the prefix of its observation IRIs."""
        entry = self.sensor(raw)
        return entry, observation_iri_prefix(self.ns, entry.iri)

    @classmethod
    def from_json(cls, document: str, vocabulary: Vocabulary) -> "AlignmentTable":
        payload = json.loads(document)     # bad JSON raises ValueError
        if not isinstance(payload, dict):
            raise ValueError("alignment table must hold a JSON object")
        table = cls(vocabulary)
        ns = vocabulary.ns
        for raw, compact in payload.get("terms", {}).items():
            table.add_term(raw, ns.iri(compact))
        for raw, spec in payload.get("units", {}).items():
            table.add_unit(raw, UnitEntry(
                iri=ns.iri(spec["iri"]),
                scale=json_number(spec.get("scale", 1.0), "scale"),
                offset=json_number(spec.get("offset", 0.0), "offset"),
            ))
        for raw, spec in payload.get("sensors", {}).items():
            table.add_sensor(raw, SensorEntry(
                iri=ns.iri(spec["iri"]),
                lat=json_number(spec["lat"], "lat") if "lat" in spec else None,
                lon=json_number(spec["lon"], "lon") if "lon" in spec else None,
            ))
        return table


def convert_unit(value: float, entry: UnitEntry) -> float:
    result = value * entry.scale + entry.offset
    if not math.isfinite(result):
        raise NonFiniteError(f"conversion of {value} is not finite")
    return result


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------

def _parse_number(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise BadNumberError(f"bad {what}: {text!r}")
    if not math.isfinite(value):
        raise BadNumberError(f"{what} must be finite: {text!r}")
    return value


@functools.lru_cache(MEMO_LIMIT)     # by spelling, which readings of one instant share
def parse_timestamp(text: str) -> int:
    """Epoch seconds of an ISO-8601 UTC instant no earlier than the epoch."""
    try:
        timestamp = parse_utc_instant(text)
    except ValueError as exc:
        raise BadTimestampError(str(exc))
    if timestamp < 0:
        raise BadTimestampError(f"timestamp before epoch: {text!r}")
    return timestamp


def canonicalize(raw: RawObservation, table: AlignmentTable) -> CanonicalObservation:
    """Resolve vocabulary, convert units, and mint the observation IRI."""
    prop, unit_entry, canonical_unit = table.resolve(raw.property_raw, raw.unit_raw)
    value = convert_unit(_parse_number(raw.value_raw, "value"), unit_entry)
    timestamp = parse_timestamp(raw.timestamp_raw)

    sensor, id_prefix = table.station(raw.sensor_id_raw)
    if raw.lat_raw and raw.lon_raw:
        lat = _parse_number(raw.lat_raw, "lat")
        lon = _parse_number(raw.lon_raw, "lon")
    elif raw.lat_raw or raw.lon_raw:
        raise MissingLocationError(f"payload gives one of lat and lon for {raw.sensor_id_raw!r}")
    elif sensor.lat is not None and sensor.lon is not None:
        lat, lon = sensor.lat, sensor.lon
    else:
        raise MissingLocationError(
            f"no coordinates in payload or station metadata for {raw.sensor_id_raw!r}"
        )
    if not -90.0 <= lat <= 90.0:
        raise OutOfRangeError(f"latitude out of range: {lat}")
    if not -180.0 <= lon <= 180.0:
        raise OutOfRangeError(f"longitude out of range: {lon}")

    # every field is checked above, so the record's own checks are skipped
    return CanonicalObservation._make((Iri(id_prefix + str(timestamp)), sensor.iri, prop, value,
                                       canonical_unit, timestamp, lat, lon))


_FORMAT_PARSERS = {
    "csv": parse_csv_line,
    "json": parse_json_observation,
    "xml": parse_xml_observation,
}


def parse_payload(source_format: str, payload: str) -> RawObservation:
    parser = _FORMAT_PARSERS.get(source_format)
    if parser is None:
        raise MalformedError(f"unknown observation format {source_format!r}")
    return parser(payload)
