"""End-to-end wiring: one ingestion path feeding the observation log, engines
and forecasts.

Observations replayed from file and observations posted over HTTP travel
the identical route, so replay tests cover the live path. Each region owns
one event engine, preserving the in-order input contract per region while
regions proceed independently. The per-region observation logs are the
state, persisted as they are held. Each observation's triples, with what
the built-in rules derive from them and the saturated facts, are rendered
from the log on every read: for ``export`` and for the ``store`` view.
"""

import functools
import itertools
import json
import os
import threading
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field as dataclass_field
from operator import attrgetter
from pathlib import Path

from ..cep.engine import Engine, EngineState, Event, Firing
from ..errors import SemDroughtError
from ..forecast import (
    ClimatologyEntry,
    ForecastBulletin,
    NoDataError,
    build_climatology,
    make_bulletin,
    period_bounds,
    period_values,
)
from ..ik import IkObservation, IkRegistry
from ..ingest import IngestError, canonicalize, parse_payload, parse_timestamp
from ..model import (
    MAX_UTC_INSTANT,
    OBSERVATION_SHAPE,
    CanonicalObservation,
    Datatype,
    Iri,
    Triple,
    format_utc_instant,
    json_number,
    observation_to_triples,
    parse_utc_instant,
    triples_to_observation,  # unused here; perfbench's tracer wraps it by this name
)
from ..store import ParseError, TripleStore, hierarchies, triple_text
from .config import Config

OBSERVATION_LOG_FILE = "observations.jsonl"
FACTS_FILE = "facts.nt"
IK_LOG_FILE = "ik_log.jsonl"
FIRING_LOG_FILE = "firings.jsonl"


class UnknownRegionError(SemDroughtError):
    code = "UnknownRegion"


class DuplicateObservationError(SemDroughtError):
    code = "Duplicate"


@dataclass
class ReplaySummary:
    parsed: int = 0
    rejected: Counter[str] = dataclass_field(default_factory=Counter)
    firings: int = 0

    def to_json_dict(self) -> dict:
        return {
            "parsed": self.parsed,
            "rejected": dict(sorted(self.rejected.items())),
            "firings": self.firings,
        }


class Pipeline:
    """Mutable middleware state behind a single writer lock."""

    def __init__(self, config: Config):
        self.config = config
        self.table = config.table
        self.vocabulary = self.table.vocabulary
        self.ns = self.vocabulary.ns
        self.ik = IkRegistry(config.indicators)
        self.rules = config.rules
        # triples beyond the observations, saturated: the ontology, any other
        # asserted facts a restore loads, and what the rules derive from them
        self._facts = TripleStore()
        for triple in self.vocabulary.as_triples():
            self._facts.insert(triple)
        self._facts.saturate(self.ns)
        self._view: TripleStore | None = None

        self._engines = {region: Engine(self.rules) for region in config.regions}
        self._observations: dict[str, list[CanonicalObservation]] = {
            region: [] for region in config.regions
        }
        self._observation_ids: set[str] = set()
        self._firings: list[tuple[str, Firing]] = []
        # region -> ((baseline window, count of its readings in it), their climatology);
        # a log grows only at its end, in time order, so the two identify the readings
        self._climatologies: dict[str, tuple[tuple[tuple[int, int], int], dict]] = {}
        self.lock = threading.RLock()

    # -- ingestion ------------------------------------------------------------

    @property
    def event_count(self) -> int:
        """Readings plus indigenous-knowledge reports in the logs."""
        return sum(map(len, self._observations.values())) + len(self.ik.observations)

    @property
    def firings(self) -> tuple[tuple[str, Firing], ...]:
        return tuple(self._firings)

    def region_of(self, sensor: Iri) -> str:
        region = self.config.sensor_regions.get(sensor.value)
        if region is None:
            raise UnknownRegionError(f"sensor {sensor.value} belongs to no region")
        return region

    def _region_of_new(self, obs: CanonicalObservation, ids: set[str]) -> str:
        """The observation's region, unless its id is already in ``ids``."""
        region = self.region_of(obs.sensor_id)
        if obs.id.value in ids:
            raise DuplicateObservationError(f"observation already ingested: {obs.id.value}")
        return region

    def ingest_payload(self, source_format: str,
                       payload: str) -> tuple[CanonicalObservation, list[Firing]]:
        """Parse, canonicalize, log and stream into the region engine."""
        obs = canonicalize(parse_payload(source_format, payload), self.table)
        with self.lock:
            region = self._region_of_new(obs, self._observation_ids)
            event = Event._make((obs.property.value, obs.timestamp, obs.value))  # checked above
            firings = self._engines[region].push_event(event)  # may reject; state untouched
            self._observation_ids.add(obs.id.value)
            self._observations[region].append(obs)
            self._view = None
            self._log_firings(region, firings)
        return obs, firings

    def ingest_ik_json(self, document: str) -> list[Firing]:
        """Parse an indigenous-knowledge report, stream it into the region
        engine and log it once the engine accepts it."""
        try:
            payload = json.loads(document)
        except ValueError as exc:   # bad JSON, or an integer of more digits than int() reads
            raise IngestError(f"bad indigenous-knowledge payload: {exc}")
        obs = _ik_observation(payload, self.config.regions)
        with self.lock:
            event = self.ik.event_for(obs)
            firings = self._engines[obs.region].push_event(event)  # may reject; nothing logged
            self.ik.record_observation(obs)
            self._log_firings(obs.region, firings)
        return firings

    def _log_firings(self, region: str, firings: list[Firing]) -> None:
        """Commit each firing as ``restore`` reads it back, without its evidence."""
        self._firings.extend((region, Firing(f.rule, f.window_end, f.kind)) for f in firings)

    def flush_engines(self) -> int:
        """Drain pending windows in every region; returns new firing count."""
        with self.lock:
            count = 0
            for region in sorted(self._engines):
                firings = self._engines[region].flush()
                self._log_firings(region, firings)
                count += len(firings)
            return count

    # -- replay ---------------------------------------------------------------

    def replay(self, dataset_path: str | Path) -> ReplaySummary:
        """Feed a ``format|payload`` line file through the ingestion path.

        Per-line failures are tallied, never fatal. At end of input the
        engines drain, and state persists if a persistence directory is
        configured.
        """
        summary = ReplaySummary()
        # a byte that is not UTF-8 reads as a lone surrogate, which encode() rejects
        with open(dataset_path, "r", encoding="utf-8", errors="surrogateescape") as handle:
            for line in handle:
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                tag, _, payload = line.partition("|")
                if not payload:
                    summary.rejected["Malformed"] += 1
                    continue
                try:
                    line.isascii() or line.encode("utf-8")
                except UnicodeEncodeError:
                    summary.rejected["Malformed"] += 1
                    continue
                try:
                    if tag == "ik":
                        firings = self.ingest_ik_json(payload)
                    else:
                        _, firings = self.ingest_payload(tag, payload)
                except SemDroughtError as exc:
                    summary.rejected[exc.code] += 1
                    continue
                summary.parsed += 1
                summary.firings += len(firings)
        summary.firings += self.flush_engines()
        if self.config.persistence_dir is not None:
            self.persist(self.config.persistence_dir)
        return summary

    # -- forecasting ----------------------------------------------------------

    def _climatology(self, region: str,
                     period_start: int) -> dict[tuple[str, int], ClimatologyEntry]:
        """The climatology of the region's readings in the baseline window,
        kept while the window and the count of readings in it stay the same."""
        window = self.config.baseline_window or (0, period_start)
        log = self._observations[region]
        span = _logged_span(log, *window)
        key = (window, span.stop - span.start)
        if self._climatologies.get(region, (None,))[0] != key:
            self._climatologies[region] = (
                key, build_climatology(log[span], self.config.min_baseline_count))
        return self._climatologies[region][1]

    def bulletin(self, region: str, period: str | None = None) -> ForecastBulletin:
        """Forecast for a region period, NoData before any work without readings
        of each DVI property; its evidence previews open windows ending in it."""
        with self.lock:
            _check_region(region, self.config.regions)
            if period is None:
                period = self._latest_period(region)
            start, end = period_bounds(period)
            log = self._observations[region]
            values = period_values(region, period, log[_logged_span(log, start, end)], self.ns)
            return make_bulletin(
                region=region,
                period=period,
                values=values,
                climatology=self._climatology(region, start),
                ik_signal_fn=self.ik.signal,
                firings=[f for r, f in self._firings if r == region]
                + self._engines[region].preview(end),
                ns=self.ns,
                weights=self.config.weights,
                thresholds=self.config.severity_thresholds,
                ik_window_seconds=self.config.ik_window_days * 86400,
            )

    def _latest_period(self, region: str) -> str:
        observations = self._observations[region]
        if not observations:
            raise NoDataError(f"no observations for region {region}")
        return format_utc_instant(observations[-1].timestamp)[:7]

    # -- triples --------------------------------------------------------------

    def _observation_triples(self) -> Iterator[tuple[Triple, bool]]:
        """(triple, inferred) for each logged observation: its eight triples,
        then ``rdf:type`` to each super-class of ``ex:ObservationEvent``, then
        each of those under every super-property of its predicate: ``hierarchies``
        of the saturated facts. That is the built-in rules' fixpoint unless the
        ontology makes an observation predicate a sub-property of ``rdf:type``,
        ``ex:subClassOf`` or ``ex:subPropertyOf``, which would need the rules
        to chain further. Call with the lock held."""
        rdf_type, event_class = self.ns.iri("rdf:type"), self.ns.iri("ex:ObservationEvent")
        classes, _, super_properties = hierarchies(self._facts, self.ns)
        super_classes = set(classes.get(event_class, ())) - {event_class}
        for log in self._observations.values():
            for obs in log:
                own = observation_to_triples(self.ns, obs)
                typed = [Triple(obs.id, rdf_type, cls) for cls in super_classes]
                yield from ((t, False) for t in own)
                yield from ((t, True) for t in typed)
                yield from ((Triple(obs.id, prop, t.object), True) for t in own + typed
                            for prop in super_properties.get(t.predicate, ()))

    @property
    def store(self) -> TripleStore:
        """Every triple of the state, with its inferred mark: the saturated
        facts, then each observation's own and derived triples. A read-only
        view, built on demand and cached until the next write."""
        with self.lock:
            if self._view is None:
                view = TripleStore()
                for triple in self._facts:
                    view.insert(triple, inferred=self._facts.is_inferred(triple))
                for triple, inferred in self._observation_triples():
                    view.insert(triple, inferred=inferred)
                self._view = view
            return self._view

    def serialize(self) -> str:
        """The state as N-Triples, as ``export`` writes it; equal to
        ``store.serialize()``, without building the view."""
        with self.lock:
            return self._facts.serialize(triple_text(t) for t, _ in self._observation_triples())

    # -- persistence ----------------------------------------------------------

    def persist(self, directory: str | Path) -> None:
        """Write the state as it is held: the observation log, the store's
        asserted triples, the IK log and the firing log."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with self.lock:
            quote_iri = functools.lru_cache(None)(_quote)   # interned IRIs repeat row to row
            _atomic_write(directory / OBSERVATION_LOG_FILE, "".join(
                _observation_row(obs, quote_iri) + "\n"
                for log in self._observations.values() for obs in log))
            facts = self._facts
            _atomic_write(directory / FACTS_FILE, TripleStore().serialize(
                triple_text(t) for t in facts if not facts.is_inferred(t)))
            _atomic_write(directory / IK_LOG_FILE, "".join(
                f'{{"confidence": {o.confidence!r}, "indicator_id": {_quote(o.indicator_id)}, '
                f'"region": {_quote(o.region)}, "timestamp": "{format_utc_instant(o.timestamp)}"'
                '}\n' for o in self.ik.observations))
            _atomic_write(directory / FIRING_LOG_FILE, "".join(
                f'{{"at": "{format_utc_instant(firing.window_end)}", '
                f'"kind": {_quote(firing.kind)}, "region": {_quote(region)}, '
                f'"rule": {_quote(firing.rule)}}}\n' for region, firing in self._firings))

    def restore(self, directory: str | Path) -> None:
        """Rebuild forecastable state from persisted artifacts.

        The persisted logs replace the current ones, in their logged order,
        and the persisted triples, saturated again, replace the store's;
        nothing changes if any file is missing or damaged. Each region's
        engine resumes from ``EngineState(last=...)``, its last restored
        reading or report: it rejects older events and holds no open windows
        (persisted firings stand in for the engine's past ones).
        """
        directory = Path(directory)
        for name in (OBSERVATION_LOG_FILE, FACTS_FILE):
            if not (directory / name).is_file():
                raise SemDroughtError(
                    f"no {name} in {directory}; re-run replay to persist the state")
        logs: dict[str, list[CanonicalObservation]] = {region: [] for region in self._observations}
        ids: set[str] = set()
        iris: dict[tuple, tuple] = {}

        def log_observation(row) -> None:
            obs = _logged_observation(row, iris)
            log = logs[self._region_of_new(obs, ids)]
            if log and obs.timestamp < log[-1].timestamp:
                raise ValueError(f"{obs.id.value} is earlier than its region's previous reading")
            log.append(obs)
            ids.add(obs.id.value)

        _read_jsonl(directory / OBSERVATION_LOG_FILE, log_observation)
        facts_path = directory / FACTS_FILE
        try:
            facts = TripleStore.load(facts_path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, ParseError) as exc:
            raise SemDroughtError(f"{facts_path}: {exc}") from exc
        facts.saturate(self.ns)
        regions = self.config.regions
        ik = IkRegistry(self.config.indicators)

        def log_report(payload) -> None:
            obs = _ik_observation(payload, regions)
            ik.event_for(obs)     # refuses what ingest_ik_json refuses
            ik.record_observation(obs)

        _read_jsonl(directory / IK_LOG_FILE, log_report)
        firings = _read_jsonl(directory / FIRING_LOG_FILE, lambda p: _logged_firing(p, regions))
        with self.lock:
            self._facts = facts
            self._observation_ids = ids
            self._observations = logs
            for region, log in logs.items():
                last = max([o.timestamp for o in ik.observations if o.region == region]
                           + [o.timestamp for o in log[-1:]], default=None)
                self._engines[region] = Engine(self.rules, EngineState(last=last))
            self._view = None
            self._climatologies = {}
            self.ik = ik
            self._firings = firings


def _check_region(region: str, regions) -> str:
    if region not in regions:
        raise UnknownRegionError(f"unknown region: {region}")
    return region


def _ik_observation(payload, regions) -> IkObservation:
    """An indigenous-knowledge report in one of ``regions`` from its JSON
    object, as posted to ``ingest_ik_json`` and as ``persist`` logs it."""
    try:
        obs = IkObservation(
            indicator_id=str(payload["indicator_id"]),
            timestamp=parse_timestamp(str(payload["timestamp"])),
            region=str(payload["region"]),
            confidence=json_number(payload["confidence"], "confidence"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise IngestError(f"bad indigenous-knowledge payload: {exc}")
    _check_region(obs.region, regions)
    return obs


# an observation as ``persist`` logs it, one JSON array per observation: its id,
# then the fields of OBSERVATION_SHAPE in table order, IRIs as their strings
_ROW_FIELDS = (("id", None),) + tuple((f, d) for _, f, d in OBSERVATION_SHAPE)
# the types each column may hold, in _ROW_FIELDS order, and every row's types they allow
_ROW_TYPES = tuple({None: (str,), Datatype.DATETIME: (int,), Datatype.DOUBLE: (int, float)}[d]
                   for _, d in _ROW_FIELDS)
_ROW_SIGNATURES = frozenset(itertools.product(*_ROW_TYPES))


# log rows are written as json.JSONEncoder(sort_keys=True) writes them: strings
# through its escaping, numbers as their repr, which it uses for finite floats
_quote = json.encoder.encode_basestring_ascii


def _observation_row(obs: CanonicalObservation, quote_iri=_quote) -> str:
    return (f"[{_quote(obs.id.value)}, {quote_iri(obs.sensor_id.value)}, "
            f"{quote_iri(obs.property.value)}, {obs.value!r}, {quote_iri(obs.unit.value)}, "
            f"{obs.timestamp!r}, {obs.lat!r}, {obs.lon!r}]")     # in _ROW_FIELDS order


def _logged_observation(row, iris: dict[tuple, tuple]) -> CanonicalObservation:
    """The observation of one ``persist`` log row; a row of the wrong shape,
    a value of the wrong type or out of range raises ValueError. ``iris``
    keeps the IRIs of each (sensor, property, unit) across the rows of one restore."""
    if not isinstance(row, list) or len(row) != len(_ROW_FIELDS):
        raise ValueError(f"expected an array of {len(_ROW_FIELDS)} values")
    if tuple(map(type, row)) not in _ROW_SIGNATURES:     # also rejects booleans
        field, types = next((f, t) for (f, _), t, v in zip(_ROW_FIELDS, _ROW_TYPES, row)
                            if type(v) not in t)
        raise ValueError(f"{field} must be of type {' or '.join(t.__name__ for t in types)}")
    obs_id, sensor, prop, value, unit, timestamp, lat, lon = row
    if timestamp > MAX_UTC_INSTANT:
        format_utc_instant(timestamp)     # raises past the year 9999, as datetime does
    key = (sensor, prop, unit)
    sensor, prop, unit = iris.get(key) or iris.setdefault(key, tuple(map(Iri, key)))
    return CanonicalObservation(Iri(obs_id), sensor, prop, float(value), unit, timestamp,
                                float(lat), float(lon))


def _logged_span(log: list[CanonicalObservation], start: int, end: int) -> slice:
    """The slice of a region's time-ordered log with ``start <= timestamp < end``."""
    at = attrgetter("timestamp")
    return slice(bisect_left(log, start, key=at), bisect_left(log, end, key=at))


def _logged_firing(payload, regions) -> tuple[str, Firing]:
    """A (region, firing) pair, the region one of ``regions``, from its
    ``persist`` log record."""
    return _check_region(str(payload["region"]), regions), Firing(
        rule=str(payload["rule"]), window_end=parse_utc_instant(payload["at"]),
        kind=str(payload["kind"]),
    )


def _read_jsonl(path: Path, build) -> list:
    """``build(record)`` for each record of a JSONL file, if the file exists;
    a bad line raises ParseError naming the file and the line."""
    if not path.is_file():
        return []
    data = path.read_bytes()
    try:
        lines = data.decode("utf-8-sig", "surrogatepass").split("\n")    # as json.loads does
    except UnicodeDecodeError:
        lines = data.split(b"\n")     # json.loads then names the line that does not decode
    out = []
    for number, line in enumerate(lines, start=1):
        if line.strip():
            try:
                out.append(build(json.loads(line)))
            except (KeyError, TypeError, ValueError, OverflowError, OSError,
                    SemDroughtError) as exc:
                raise ParseError(number, f"{path}: {exc}") from exc
    return out


def _atomic_write(path: Path, content: str) -> None:
    temp = path.with_suffix(path.suffix + ".tmp")
    temp.write_text(content, encoding="utf-8")
    os.replace(temp, path)
