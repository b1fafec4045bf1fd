"""Unified vocabulary and canonical observation model.

Defines RDF-style terms and triples, the four-category class annotations
(Object / State / Process / Event), the canonical property and unit
vocabulary with influence relations, and the lossless mapping between
canonical observations and their 8-triple representation.
"""

import re
from collections import namedtuple
from dataclasses import dataclass
from datetime import date, datetime, timezone
from enum import Enum

from .errors import SemDroughtError

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
DEFAULT_BASE_IRI = "http://example.org/semdrought#"

# prefixes accepted in compact IRIs; "ex" expands against the configured base
REGISTERED_PREFIXES = ("rdf", "ex", "xsd")

_PREFIXED_IRI = re.compile(r"^(%s):\S+$" % "|".join(REGISTERED_PREFIXES))


class ModelError(SemDroughtError):
    code = "ModelError"


class MissingFieldError(ModelError):
    code = "MissingField"


class AmbiguousError(ModelError):
    code = "Ambiguous"


class BadLiteralError(ModelError):
    code = "BadLiteral"


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Iri:
    value: str

    def __post_init__(self):
        v = self.value
        if v.split() != [v] or ">" in v:   # empty, or holds whitespace or the '>' that ends it
            raise ValueError(f"invalid IRI: {v!r}")
        if "://" not in v and not _PREFIXED_IRI.match(v):
            raise ValueError(f"IRI needs a scheme or registered prefix: {v!r}")

    def local_name(self) -> str:
        """Segment after the last '/', '#' or ':'."""
        return re.split(r"[/#:]", self.value)[-1]


class Datatype(Enum):
    DOUBLE = "double"
    DATETIME = "dateTime"

    @property
    def iri(self) -> str:
        return XSD_NS + self.value


@dataclass(frozen=True)
class Literal:
    """An ``xsd:double`` or ``xsd:dateTime`` literal. No accepted lexical
    form holds whitespace, a quote or a backslash, so each is written verbatim."""
    lexical: str
    datatype: Datatype

    def __post_init__(self):
        lexical = self.lexical
        if self.datatype is Datatype.DATETIME:
            parse_utc_instant(lexical)
            return
        try:
            if lexical.strip() != lexical:     # float() skips outer whitespace
                raise ValueError
            v = float(lexical)
        except ValueError:
            raise ValueError(f"not a double literal: {lexical!r}")
        if v != v or v in (float("inf"), float("-inf")):
            raise ValueError(f"double literal must be finite: {lexical!r}")


Term = Iri | Literal


@dataclass(frozen=True)
class Triple:
    subject: Iri
    predicate: Iri
    object: Term

    def __post_init__(self):
        if not (isinstance(self.subject, Iri) and isinstance(self.predicate, Iri)):
            raise ValueError("triple subject and predicate must be IRIs")


# ---------------------------------------------------------------------------
# Canonical lexical forms
# ---------------------------------------------------------------------------

def canonical_double(value: float) -> str:
    """Shortest round-tripping form; "0" for zero, no exponent in [1e-3, 1e7)."""
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError("double literal must be finite")
    if value == 0.0:
        return "0"
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    # repr is shortest-round-trip and stays positional on [1e-4, 1e16),
    # which covers the mandated no-exponent window [1e-3, 1e7)
    return repr(value)


def json_number(value, what: str) -> float:
    """A JSON number as a float; TypeError for a boolean, a string or null."""
    if type(value) not in (int, float):
        raise TypeError(f"{what} must be a number, not {type(value).__name__}")
    return float(value)


MAX_UTC_INSTANT = 253402300799     # 9999-12-31T23:59:59Z
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def format_utc_instant(timestamp: int) -> str:
    """Epoch seconds to ISO-8601 UTC with mandatory Z suffix."""
    timestamp = int(timestamp)
    if not 0 <= timestamp <= MAX_UTC_INSTANT:   # datetime's range and errors
        return datetime.fromtimestamp(timestamp, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    day, second = divmod(timestamp, 86400)
    return "%sT%02d:%02d:%02dZ" % (date.fromordinal(_EPOCH_ORDINAL + day).isoformat(),
                                   second // 3600, second // 60 % 60, second % 60)


def month_of(timestamp: int) -> int:
    """Calendar month, 1..12, of an epoch-seconds instant in UTC."""
    return datetime.fromtimestamp(timestamp, tz=timezone.utc).month


_UTC_INSTANT = re.compile(r"(\d{4})-(\d{2})-(\d{2})T(\d{2}):(\d{2}):(\d{2})Z")


def parse_utc_instant(text: str) -> int:
    """ISO-8601 UTC instant to epoch seconds; whole seconds and Z required."""
    match = _UTC_INSTANT.fullmatch(text)
    if match is None:
        raise ValueError(f"not an ISO-8601 UTC instant: {text!r}")
    year, month, day, hour, minute, second = map(int, match.groups())
    try:
        days = date(year, month, day).toordinal() - _EPOCH_ORDINAL
        if hour > 23 or minute > 59 or second > 59:
            raise ValueError
    except ValueError:
        raise ValueError(f"not an ISO-8601 UTC instant: {text!r}")
    return days * 86400 + hour * 3600 + minute * 60 + second


# ---------------------------------------------------------------------------
# Namespaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Namespaces:
    """Prefix table: rdf: is fixed, ex: follows the configured base IRI."""

    base_iri: str = DEFAULT_BASE_IRI

    def __post_init__(self):
        try:
            Iri(self.base_iri)
            valid = "://" in self.base_iri
        except ValueError:
            valid = False
        if not valid:
            raise ModelError(f"base IRI needs a scheme and no whitespace or '>': {self.base_iri!r}")

    def expand(self, compact: str) -> str:
        if compact.startswith("ex:"):
            return self.base_iri + compact[3:]
        if compact.startswith("rdf:"):
            return RDF_NS + compact[4:]
        if compact.startswith("xsd:"):
            return XSD_NS + compact[4:]
        return compact

    def iri(self, compact: str) -> Iri:
        return Iri(self.expand(compact))

    def join(self, relative: str) -> Iri:
        base = self.base_iri
        if not base.endswith(("#", "/")):
            base += "/"
        return Iri(base + relative)


# ---------------------------------------------------------------------------
# Ontology vocabulary
# ---------------------------------------------------------------------------

class OntologyCategory(Enum):
    OBJECT = "Object"
    STATE = "State"
    PROCESS = "Process"
    EVENT = "Event"


# canonical property -> canonical unit, as local names under the base IRI
_CANONICAL_PAIRS = (
    ("soilMoisture", "percentVolumetric"),
    ("precipitation", "millimetre"),
    ("airTemperature", "degreeCelsius"),
    ("relativeHumidity", "percent"),
    ("windSpeed", "metrePerSecond"),
)

_SHIPPED_CLASSES = (
    ("Sensor", OntologyCategory.OBJECT),
    ("ObservationEvent", OntologyCategory.EVENT),
    ("DroughtProcess", OntologyCategory.PROCESS),
    ("DryCondition", OntologyCategory.STATE),
)

# property -> property it is influenced by
_INFLUENCES = (
    ("soilMoisture", "airTemperature"),
)


class Vocabulary:
    """Canonical properties, units, class categories and influence facts."""

    def __init__(self, namespaces: Namespaces | None = None):
        self.ns = namespaces or Namespaces()

        def ex(local: str) -> Iri:
            return self.ns.iri("ex:" + local)

        self.property_units = {ex(prop): ex(unit) for prop, unit in _CANONICAL_PAIRS}
        self.categories = {ex(cls): cat for cls, cat in _SHIPPED_CLASSES}
        self.influences = [(ex(prop), ex(by)) for prop, by in _INFLUENCES]

    def as_triples(self) -> list[Triple]:
        """Static ontology facts seeded into the triple store."""
        ns = self.ns
        out: list[Triple] = []
        for cls, cat in self.categories.items():
            cat_iri = ns.iri("ex:" + cat.value)
            out.append(Triple(cls, ns.iri("ex:ontologyCategory"), cat_iri))
            out.append(Triple(cls, ns.iri("ex:subClassOf"), cat_iri))
        for prop, unit in self.property_units.items():
            out.append(Triple(prop, ns.iri("ex:canonicalUnit"), unit))
        for prop, by in self.influences:
            out.append(Triple(prop, ns.iri("ex:influencedBy"), by))
        return out


# ---------------------------------------------------------------------------
# Canonical observation
# ---------------------------------------------------------------------------

class CanonicalObservation(namedtuple(
        "CanonicalObservation", "id sensor_id property value unit timestamp lat lon")):
    """One aligned reading; ``timestamp`` is UTC seconds since the epoch. The
    constructor checks every field; ``_make`` takes values already checked."""
    __slots__ = ()

    def __new__(cls, id: Iri, sensor_id: Iri, property: Iri, value: float, unit: Iri,
                timestamp: int, lat: float, lon: float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError("observation value must be finite")
        if timestamp < 0 or timestamp != int(timestamp):
            raise ValueError("timestamp must be non-negative integer seconds")
        if not -90.0 <= lat <= 90.0:
            raise ValueError(f"latitude out of range: {lat}")
        if not -180.0 <= lon <= 180.0:
            raise ValueError(f"longitude out of range: {lon}")
        return tuple.__new__(cls, (id, sensor_id, property, value, unit, int(timestamp), lat, lon))


def observation_iri_prefix(ns: Namespaces, sensor_id: Iri) -> str:
    """A sensor's observation IRIs are this text followed by their epoch seconds."""
    return ns.join(f"obs/{sensor_id.local_name()}/").value


def mint_observation_iri(ns: Namespaces, sensor_id: Iri, timestamp: int) -> Iri:
    return Iri(observation_iri_prefix(ns, sensor_id) + str(int(timestamp)))


# An observation's RDF shape after its rdf:type ex:ObservationEvent triple:
# (predicate local name under ex:, CanonicalObservation field, datatype of the
# literal object or None for an IRI object), in the order of its triples
OBSERVATION_SHAPE = (
    ("bySensor", "sensor_id", None),
    ("observedProperty", "property", None),
    ("hasValue", "value", Datatype.DOUBLE),
    ("hasUnit", "unit", None),
    ("atTime", "timestamp", Datatype.DATETIME),
    ("lat", "lat", Datatype.DOUBLE),
    ("lon", "lon", Datatype.DOUBLE),
)


def observation_to_triples(ns: Namespaces, obs: CanonicalObservation) -> list[Triple]:
    """Exactly eight triples, in a fixed order, with distinct predicates."""
    triples = [Triple(obs.id, Iri(RDF_NS + "type"), ns.iri("ex:ObservationEvent"))]
    for local, field, datatype in OBSERVATION_SHAPE:
        value = getattr(obs, field)
        if datatype is not None:    # the canonical lexical form of a double or an instant
            value = Literal(format_utc_instant(value) if datatype is Datatype.DATETIME
                            else canonical_double(value), datatype)
        triples.append(Triple(obs.id, ns.iri("ex:" + local), value))
    return triples


def triples_to_observation(ns: Namespaces, triples: set[Triple] | list[Triple]) -> CanonicalObservation:
    """Inverse of observation_to_triples; round-trips every field exactly."""
    rdf_type = Iri(RDF_NS + "type")
    obs_class = ns.iri("ex:ObservationEvent")
    subjects = {t.subject for t in triples if t.predicate == rdf_type and t.object == obs_class}
    if not subjects:
        raise MissingFieldError("no subject typed as an observation event")
    if len(subjects) > 1:
        raise AmbiguousError(f"{len(subjects)} subjects typed as observation events")
    subject = subjects.pop()

    by_pred: dict[str, Term] = {}
    for t in triples:
        if t.subject == subject:
            by_pred[t.predicate.value] = t.object

    fields: dict[str, object] = {"id": subject}
    try:
        for local, field, datatype in OBSERVATION_SHAPE:
            term = by_pred.get(ns.expand("ex:" + local))
            if term is None:
                raise MissingFieldError(f"missing predicate ex:{local}")
            if datatype is None:
                if not isinstance(term, Iri):
                    raise BadLiteralError(f"ex:{local} must be an IRI")
                fields[field] = term
            elif not isinstance(term, Literal) or term.datatype is not datatype:
                raise BadLiteralError(f"ex:{local} must be a {datatype.value} literal")
            elif datatype is Datatype.DATETIME:
                fields[field] = parse_utc_instant(term.lexical)
            else:
                fields[field] = float(term.lexical)
        return CanonicalObservation(**fields)
    except ValueError as exc:    # a bad lexical form or an out-of-range field
        raise BadLiteralError(str(exc))
