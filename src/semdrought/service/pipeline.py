"""End-to-end wiring: one ingestion path feeding the observation log, engines
and forecasts.

Observations replayed from file and observations posted over HTTP travel
the identical route, so replay tests cover the live path. Each region owns
one event engine, preserving the in-order input contract per region while
regions proceed independently. The per-region observation logs are the
state, persisted as they are held; observations' triples are rendered from
them for ``export`` and for the ``store`` view.
"""

import json
import os
import threading
import time
from collections.abc import Iterable
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

from ..cep.engine import Engine, Event, Firing
from ..cep.rules import CepRule, parse_ruleset
from ..errors import SemDroughtError
from ..forecast import (
    ClimatologyEntry,
    ForecastBulletin,
    NoDataError,
    build_climatology,
    make_bulletin,
    period_bounds,
)
from ..ik import IkObservation, IkRegistry, compile_indicator_rules
from ..ingest import (
    AlignmentTable,
    IngestError,
    canonicalize,
    parse_payload,
    parse_timestamp,
)
from ..model import (
    OBSERVATION_SHAPE,
    RDF_NS,
    CanonicalObservation,
    Datatype,
    Iri,
    Namespaces,
    Triple,
    Vocabulary,
    format_utc_instant,
    observation_to_triples,
    parse_utc_instant,
    triples_to_observation,  # unused here; perfbench's tracer wraps it by this name
)
from ..store import ParseError, TripleStore, builtin_rules
from .config import Config, InvalidConfigError

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
    rejected: dict[str, int] = dataclass_field(default_factory=dict)
    firings: int = 0

    def reject(self, code: str) -> None:
        self.rejected[code] = self.rejected.get(code, 0) + 1

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
        self.ns = Namespaces(config.base_iri)
        self.vocabulary = Vocabulary(self.ns)
        self.table = AlignmentTable.from_json(
            config.alignment_table_path.read_text(encoding="utf-8"), self.vocabulary
        )
        self.ik = IkRegistry.from_json(
            config.indicators_path.read_text(encoding="utf-8")
        )
        self.rules = self._load_rules()
        # triples beyond the observations: the ontology, any other asserted
        # facts a restore loads, and what saturation derives from them
        self._facts = TripleStore()
        for triple in self.vocabulary.as_triples():
            self._facts.insert(triple)
        self._view: TripleStore | None = None

        self._engines = {region: Engine(self.rules) for region in config.regions}
        self._region_of_sensor: dict[str, str] = {}
        for region, sensors in config.regions.items():
            for raw_id in sensors:
                self._region_of_sensor[self.table.sensor(raw_id).iri.value] = region
        # the observation log is the state; each region's first _saturated[region]
        # entries carry their super-type triples
        self._observations: dict[str, list[CanonicalObservation]] = {
            region: [] for region in config.regions
        }
        self._saturated = {region: 0 for region in config.regions}
        self._observation_ids: set[str] = set()
        self._firings: list[tuple[str, Firing]] = []
        self.lock = threading.RLock()

    def _load_rules(self) -> list[CepRule]:
        try:
            rules = parse_ruleset(
                self.config.rules_path.read_text(encoding="utf-8"), self.ns
            )
        except SemDroughtError as exc:
            raise InvalidConfigError("rules", str(exc))
        if self.config.compile_ik_rules:
            compiled = compile_indicator_rules(
                self.ik.indicators,
                k=self.config.ik_rule_count,
                window_seconds=self.config.ik_rule_window_days * 86400,
                ns=self.ns,
            )
            existing = {r.name for r in rules}
            rules.extend(r for r in compiled if r.name not in existing)
        return rules

    # -- ingestion ------------------------------------------------------------

    @property
    def event_count(self) -> int:
        """Readings plus indigenous-knowledge reports in the logs."""
        return sum(map(len, self._observations.values())) + len(self.ik.observations)

    @property
    def firings(self) -> tuple[tuple[str, Firing], ...]:
        return tuple(self._firings)

    def region_of(self, sensor: Iri) -> str:
        region = self._region_of_sensor.get(sensor.value)
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
            event = Event(
                kind=obs.property.value,
                timestamp=obs.timestamp,
                value=obs.value,
                attributes=(("region", region), ("sensor", obs.sensor_id.value)),
            )
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
        except json.JSONDecodeError as exc:
            raise IngestError(f"bad indigenous-knowledge payload: {exc}")
        obs = _ik_observation(payload)
        with self.lock:
            if obs.region not in self.config.regions:
                raise UnknownRegionError(f"unknown region: {obs.region}")
            event = self.ik.event_for(obs)
            firings = self._engines[obs.region].push_event(event)  # may reject; nothing logged
            self.ik.record_observation(obs)
            self._log_firings(obs.region, firings)
        return firings

    def _log_firings(self, region: str, firings: list[Firing]) -> None:
        self._firings.extend((region, f) for f in firings)

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

    def replay(self, dataset_path: str | Path, speed: float = 0.0) -> ReplaySummary:
        """Feed a ``format|payload`` line file through the ingestion path.

        Per-line failures are tallied, never fatal. At end of input the
        engines drain, the store saturates under the built-in rule set,
        and state persists if a persistence directory is configured.
        """
        summary = ReplaySummary()
        previous_ts: int | None = None
        with open(dataset_path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                tag, _, payload = line.partition("|")
                if not payload:
                    summary.reject("Malformed")
                    continue
                try:
                    if tag == "ik":
                        firings = self.ingest_ik_json(payload)
                        event_ts = self._last_ik_timestamp()
                    else:
                        obs, firings = self.ingest_payload(tag, payload)
                        event_ts = obs.timestamp
                except SemDroughtError as exc:
                    summary.reject(exc.code)
                    continue
                summary.parsed += 1
                summary.firings += len(firings)
                if speed > 0 and previous_ts is not None and event_ts > previous_ts:
                    time.sleep((event_ts - previous_ts) / speed)
                previous_ts = event_ts
        summary.firings += self.flush_engines()
        with self.lock:
            # what this derives for the logged observations, their super-types,
            # is rendered from the log, not stored
            self._facts.saturate(builtin_rules(self.ns))
            for region, log in self._observations.items():
                self._saturated[region] = len(log)
            self._view = None
        if self.config.persistence_dir is not None:
            self.persist(self.config.persistence_dir)
        return summary

    def _last_ik_timestamp(self) -> int | None:
        log = self.ik.observations
        return log[-1].timestamp if log else None

    # -- forecasting ----------------------------------------------------------

    def _climatology(self, region: str,
                     period_start: int) -> dict[tuple[str, int], ClimatologyEntry]:
        window = self.config.baseline_window
        if window is None:
            window = (0, period_start)
        history = [o for o in self._observations[region]
                   if window[0] <= o.timestamp < window[1]]
        return build_climatology(history, self.config.min_baseline_count)

    def bulletin(self, region: str, period: str | None = None) -> ForecastBulletin:
        """Forecast for a region period; drains engines so evidence is current."""
        self.flush_engines()
        with self.lock:
            if region not in self.config.regions:
                raise UnknownRegionError(f"unknown region: {region}")
            if period is None:
                period = self._latest_period(region)
            start, _ = period_bounds(period)
            return make_bulletin(
                region=region,
                period=period,
                observations=list(self._observations[region]),
                climatology=self._climatology(region, start),
                ik_signal_fn=self.ik.signal,
                firings=[f for r, f in self._firings if r == region],
                ns=self.ns,
                weights=self.config.weights,
                thresholds=self.config.severity_thresholds,
                ik_window_seconds=self.config.ik_window_days * 86400,
            )

    def _latest_period(self, region: str) -> str:
        observations = self._observations[region]
        if not observations:
            raise NoDataError(f"no observations for region {region}")
        return format_utc_instant(max(o.timestamp for o in observations))[:7]

    # -- triples --------------------------------------------------------------

    @property
    def store(self) -> TripleStore:
        """Every triple of the state, with its inferred mark: the store's own,
        each observation's eight and, once saturated, its super-type triples.
        A read-only view, built on demand and cached until the next write."""
        with self.lock:
            if self._view is None:
                view = TripleStore()
                for triple in self._facts:
                    view.insert(triple, inferred=self._facts.is_inferred(triple))
                rdf_type = Iri(RDF_NS + "type")
                event_class = self.ns.iri("ex:ObservationEvent")
                sub_class = self.ns.iri("ex:subClassOf")
                # once saturated, the whole subClassOf closure of the event class
                super_types = {t.object for t in self._facts if t.subject == event_class
                               and t.predicate == sub_class} - {event_class}
                for region, log in self._observations.items():
                    for index, obs in enumerate(log):
                        for triple in observation_to_triples(self.ns, obs):
                            view.insert(triple)
                        if index < self._saturated[region]:
                            for cls in super_types:
                                view.insert(Triple(obs.id, rdf_type, cls), inferred=True)
                self._view = view
            return self._view

    def serialize(self) -> str:
        """The state as N-Triples, as ``export`` writes it: ``store.serialize()``."""
        return self.store.serialize()

    # -- persistence ----------------------------------------------------------

    def persist(self, directory: str | Path) -> None:
        """Write the state as it is held: the observation log, the store's
        asserted triples, the IK log and the firing log."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with self.lock:
            _write_jsonl(directory / OBSERVATION_LOG_FILE, (
                _observation_row(obs) for log in self._observations.values() for obs in log))
            asserted = TripleStore()
            for triple in self._facts:
                if not self._facts.is_inferred(triple):
                    asserted.insert(triple)
            _atomic_write(directory / FACTS_FILE, asserted.serialize())
            _write_jsonl(directory / IK_LOG_FILE, ({
                "indicator_id": o.indicator_id,
                "timestamp": format_utc_instant(o.timestamp),
                "region": o.region,
                "confidence": o.confidence,
            } for o in self.ik.observations))
            _write_jsonl(directory / FIRING_LOG_FILE, ({
                "region": region,
                "rule": firing.rule,
                "at": format_utc_instant(firing.window_end),
                "kind": firing.event.kind,
            } for region, firing in self._firings))

    def restore(self, directory: str | Path) -> None:
        """Rebuild forecastable state from persisted artifacts.

        The persisted logs replace the current ones, in their logged order,
        and the persisted triples, saturated again, replace the store's;
        nothing changes if any file is missing or damaged. Each region gets
        an empty engine that rejects events older than the region's last
        restored reading or report (persisted firings stand in for the
        engine's past ones).
        """
        directory = Path(directory)
        for name in (OBSERVATION_LOG_FILE, FACTS_FILE):
            if not (directory / name).is_file():
                raise SemDroughtError(
                    f"no {name} in {directory}; re-run replay to persist the state")
        logs: dict[str, list[CanonicalObservation]] = {region: [] for region in self._observations}
        ids: set[str] = set()

        def log_observation(row) -> None:
            obs = _logged_observation(row)
            logs[self._region_of_new(obs, ids)].append(obs)
            ids.add(obs.id.value)

        _read_jsonl(directory / OBSERVATION_LOG_FILE, log_observation)
        facts_path = directory / FACTS_FILE
        try:
            facts = TripleStore.load(facts_path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, ParseError) as exc:
            raise SemDroughtError(f"{facts_path}: {exc}") from exc
        facts.saturate(builtin_rules(self.ns))
        ik = IkRegistry()
        for indicator in self.ik.indicators:
            ik.register_indicator(indicator)
        _read_jsonl(directory / IK_LOG_FILE,
                    lambda payload: ik.record_observation(_ik_observation(payload)))
        firings = _read_jsonl(directory / FIRING_LOG_FILE, _logged_firing)
        with self.lock:
            self._facts = facts
            self._observation_ids = ids
            self._observations = logs
            for region, log in logs.items():
                self._saturated[region] = len(log)
                times = [o.timestamp for o in ik.observations if o.region == region]
                times.extend(o.timestamp for o in log)
                self._engines[region] = Engine(self.rules, max(times, default=None))
            self._view = None
            self.ik = ik
            self._firings = firings


def _ik_observation(payload) -> IkObservation:
    """An indigenous-knowledge report from its JSON object, as posted to
    ``ingest_ik_json`` and as ``persist`` logs it."""
    try:
        return IkObservation(
            indicator_id=str(payload["indicator_id"]),
            timestamp=parse_timestamp(str(payload["timestamp"])),
            region=str(payload["region"]),
            confidence=float(payload["confidence"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestError(f"bad indigenous-knowledge payload: {exc}")


# an observation as ``persist`` logs it, one JSON array per observation: its id,
# then the fields of OBSERVATION_SHAPE in table order, IRIs as their strings
_ROW_FIELDS = (("id", None),) + tuple((f, d) for _, f, d in OBSERVATION_SHAPE)
_ROW_TYPES = {None: (str,), Datatype.DATETIME: (int,), Datatype.DOUBLE: (int, float)}


def _observation_row(obs: CanonicalObservation) -> list:
    values = [getattr(obs, field) for field, _ in _ROW_FIELDS]
    return [v.value if isinstance(v, Iri) else v for v in values]


def _logged_observation(row) -> CanonicalObservation:
    """The observation of one ``persist`` log row; a row of the wrong shape,
    a value of the wrong type or out of range raises ValueError."""
    if not isinstance(row, list) or len(row) != len(_ROW_FIELDS):
        raise ValueError(f"expected an array of {len(_ROW_FIELDS)} values")
    fields = {}
    for (field, datatype), value in zip(_ROW_FIELDS, row):
        if type(value) not in _ROW_TYPES[datatype]:     # also rejects booleans
            raise ValueError(f"{field} must be of type "
                             f"{' or '.join(t.__name__ for t in _ROW_TYPES[datatype])}")
        fields[field] = (Iri(value) if datatype is None
                         else float(value) if datatype is Datatype.DOUBLE else value)
    format_utc_instant(fields["timestamp"])     # raises past the year 9999
    return CanonicalObservation(**fields)


def _logged_firing(payload) -> tuple[str, Firing]:
    """A (region, firing) pair from its ``persist`` log record."""
    at = parse_utc_instant(payload["at"])
    return str(payload["region"]), Firing(
        rule=str(payload["rule"]), window_end=at,
        event=Event(kind=str(payload["kind"]), timestamp=at),
    )


def _write_jsonl(path: Path, records: Iterable) -> None:
    _atomic_write(path, "".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


def _read_jsonl(path: Path, build) -> list:
    """``build(record)`` for each record of a JSONL file, if the file exists;
    a bad line raises ParseError naming the file and the line."""
    if not path.is_file():
        return []
    out = []
    for number, line in enumerate(path.read_bytes().splitlines(), start=1):
        if line.strip():
            try:
                out.append(build(json.loads(line)))
            except (KeyError, TypeError, ValueError, OverflowError, SemDroughtError) as exc:
                raise ParseError(number, f"{path}: {exc}") from exc
    return out


def _atomic_write(path: Path, content: str) -> None:
    temp = path.with_suffix(path.suffix + ".tmp")
    temp.write_text(content, encoding="utf-8")
    os.replace(temp, path)
