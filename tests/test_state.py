"""The observation log as the state: derived triple view, rendered
export, persistence and restore.

The reference for every check is the store built the original way: each
accepted observation inserted as its eight triples into one TripleStore,
saturated after every step.
"""

import json
import shutil
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import scenario
from semdrought.errors import SemDroughtError
from semdrought.ingest import canonicalize, parse_payload
from semdrought.model import (
    OBSERVATION_SHAPE,
    RDF_NS,
    CanonicalObservation,
    Datatype,
    Iri,
    Literal,
    Namespaces,
    Triple,
    format_utc_instant,
    mint_observation_iri,
    observation_to_triples,
)
from semdrought.service import Pipeline, load_config
from semdrought.service.cli import main as cli_main
from semdrought.service.pipeline import (
    FACTS_FILE,
    FIRING_LOG_FILE,
    IK_LOG_FILE,
    OBSERVATION_LOG_FILE,
    _logged_observation,
    _observation_row,
    _read_jsonl,
)
from semdrought.store import ParseError, TripleStore, triple_text

from live_server import running_server
from test_service import http_post
from test_store import builtin_rules, oracle_fixpoint

NS = Namespaces()
RDF_TYPE = Iri(RDF_NS + "type")
DAY = 86400
START = 1672531200                      # 2023-01-01T00:00:00Z
CSV_FIELDS = {                          # raw sensor -> (term, unit, lat, lon)
    "s1": ("rain", "mm", -29.12, 26.21),
    "s2": ("soil_hum", "%", -29.05, 26.18),
    "s3": ("temp", "C", -29.2, 26.3),
}


def asserted(store: TripleStore) -> set[Triple]:
    return {t for t in store if not store.is_inferred(t)}


def inferred(store: TripleStore) -> set[Triple]:
    return {t for t in store if store.is_inferred(t)}


def assert_same_store(view: TripleStore, reference: TripleStore) -> None:
    assert set(view) == set(reference)
    assert inferred(view) == inferred(reference)
    assert view.serialize() == reference.serialize()


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    target = tmp_path_factory.mktemp("state_scenario")
    scenario.generate_scenario(target)
    return target


@pytest.fixture(scope="module")
def two_regions(scenario_dir, tmp_path_factory):
    """The scenario's vocabulary and rules, its sensors split over two
    regions, no persistence."""
    target = tmp_path_factory.mktemp("two_regions")
    for name in ("alignment.json", "indicators.json", "detection.rules"):
        shutil.copy(scenario_dir / name, target / name)
    doc = json.loads(scenario.config_path(scenario_dir).read_text())
    doc["regions"] = {"r1": ["s1", "s2"], "r2": ["s3"]}
    doc.pop("persistence_dir", None)
    (target / "config.json").write_text(json.dumps(doc))
    return target / "config.json"


@pytest.fixture(scope="module")
def persisted(scenario_dir):
    """A replayed scenario and the state it persisted."""
    pipeline = Pipeline(load_config(scenario.config_path(scenario_dir)))
    pipeline.replay(scenario.dataset_path(scenario_dir))
    return scenario_dir, pipeline


@pytest.fixture(scope="module")
def persisted_head(scenario_dir, tmp_path_factory):
    """The scenario's first 24 dataset lines replayed, and the state they
    persisted."""
    target = tmp_path_factory.mktemp("scenario_head") / "head"
    shutil.copytree(scenario_dir, target)
    dataset = scenario.dataset_path(target)
    dataset.write_text("".join(dataset.read_text().splitlines(keepends=True)[:24]))
    pipeline = Pipeline(load_config(scenario.config_path(target)))
    pipeline.replay(dataset)
    return target, pipeline


def persisted_facts(scenario_dir: Path) -> str:
    return (load_config(scenario.config_path(scenario_dir)).persistence_dir
            / FACTS_FILE).read_text(encoding="utf-8")


def restored_copy(scenario_dir: Path, target: Path, facts_text: str | None = None) -> Pipeline:
    """Config and persisted state copied under ``target`` (facts.nt replaced
    by ``facts_text`` if given), restored into a fresh pipeline."""
    shutil.copytree(scenario_dir, target)
    state = load_config(scenario.config_path(target)).persistence_dir
    if facts_text is not None:
        (state / FACTS_FILE).write_text(facts_text, encoding="utf-8")
    pipeline = Pipeline(load_config(scenario.config_path(target)))
    pipeline.restore(state)
    return pipeline


def first_observation(store: TripleStore, ns: Namespaces, sensor: str) -> tuple[Iri, str]:
    """(id, atTime lexical form) of the sensor's earliest observation in a store."""
    by_sensor, sensor_iri = ns.iri("ex:bySensor"), ns.iri(f"ex:sensor/{sensor}")
    subject = min((t.subject for t in store
                   if t.predicate == by_sensor and t.object == sensor_iri),
                  key=lambda s: s.value)
    at_time = ns.iri("ex:atTime")
    return subject, next(t.object.lexical for t in store
                         if t.subject == subject and t.predicate == at_time)


# --- persisted rows ------------------------------------------------------------

observations = st.builds(
    lambda sensor, ts, value, lat, lon: CanonicalObservation(
        sensor_id=NS.iri(f"ex:sensor/{sensor}"), property=NS.iri("ex:soilMoisture"),
        value=value, unit=NS.iri("ex:percentVolumetric"), timestamp=ts, lat=lat, lon=lon),
    sensor=st.sampled_from(["s1", "station-9", "a%22b"]),
    ts=st.integers(min_value=0, max_value=4102444800),
    value=st.floats(allow_nan=False, allow_infinity=False),
    lat=st.floats(min_value=-90, max_value=90),
    lon=st.floats(min_value=-180, max_value=180),
)


ENCODE_RECORD = json.JSONEncoder(sort_keys=True).encode   # how persist wrote each record before


class TestObservationRows:
    @settings(max_examples=200)
    @given(observations)
    def test_logged_row_round_trips_every_field(self, obs):
        row = _observation_row(NS, obs)
        iri = mint_observation_iri(NS, obs.sensor_id, obs.timestamp)
        assert row == ENCODE_RECORD([iri.value, obs.sensor_id.value, obs.property.value,
                                     obs.value, obs.unit.value, obs.timestamp, obs.lat, obs.lon])
        assert _logged_observation(json.loads(row), {}) == obs

    def test_every_log_row_is_what_the_json_encoder_writes(self, persisted):
        """Rows are formatted directly; each equals JSONEncoder(sort_keys=True)'s
        encoding of what it reads back as."""
        state = load_config(scenario.config_path(persisted[0])).persistence_dir
        for name in (OBSERVATION_LOG_FILE, IK_LOG_FILE, FIRING_LOG_FILE):
            rows = (state / name).read_text(encoding="utf-8").splitlines()
            assert rows and rows == [ENCODE_RECORD(json.loads(row)) for row in rows], name

    def test_a_log_reads_as_json_loads_reads_its_lines(self, tmp_path):
        """The file is decoded once, as ``json.loads`` decodes each line's bytes:
        a leading BOM, CRLF line ends and an encoded lone surrogate are read,
        and a byte that is not UTF-8 names its line with the codec's message."""
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'\xef\xbb\xbf["a"]\r\n\r\n["\xed\xa0\x80", 1]\n')
        assert _read_jsonl(path, list) == [["a"], ["\ud800", 1]]
        path.write_bytes(b'["a"]\n\xff\n["b"]\n')
        with pytest.raises(ParseError, match="^line 2: .*'utf-8' codec can't decode byte 0xff "
                                             "in position 0: invalid start byte$"):
            _read_jsonl(path, list)


# --- derived view against the seed-way store -------------------------------------

readings = st.tuples(st.sampled_from(sorted(CSV_FIELDS)), st.integers(0, 12),
                     st.sampled_from([0.0, 1.5, 7.25, 30.0]))
steps = st.lists(
    st.one_of(st.tuples(st.just("live"), readings),
              st.tuples(st.just("replay"), st.lists(readings, max_size=8))),
    min_size=1, max_size=8,
)


def csv_line(reading) -> str:
    sensor, day, value = reading
    term, unit, lat, lon = CSV_FIELDS[sensor]
    return f"{sensor},{term},{value},{unit},{format_utc_instant(START + day * DAY)},{lat},{lon}"


class ReferenceStore:
    """Seed-way state: one store of every accepted observation's
    triples, with the same duplicate and out-of-order decisions."""

    def __init__(self, pipeline: Pipeline):
        self.pipeline = pipeline
        self.store = TripleStore()
        for triple in pipeline.vocabulary.as_triples():
            self.store.insert(triple)
        self.last: dict[str, int] = {}

    def ingest(self, line: str) -> str | None:
        """Error code the ingest should give, or None after storing it."""
        obs = canonicalize(parse_payload("csv", line), self.pipeline.table)
        region = self.pipeline.config.sensor_regions[obs.sensor_id.value]
        triples = observation_to_triples(self.pipeline.ns, obs)
        if triples[0] in self.store:
            return "Duplicate"
        if region in self.last and obs.timestamp < self.last[region]:
            return "OutOfOrder"
        self.last[region] = obs.timestamp
        for triple in triples:
            self.store.insert(triple)
        return None


class TestDerivedView:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(steps=steps)
    def test_view_equals_seed_store_after_every_step(self, two_regions, steps):
        pipeline = Pipeline(load_config(two_regions))
        reference = ReferenceStore(pipeline)
        rules = builtin_rules(pipeline.ns)
        with tempfile.TemporaryDirectory() as tmp:
            dataset = Path(tmp) / "batch.txt"
            for kind, payload in steps:
                if kind == "live":
                    line = csv_line(payload)
                    expected = reference.ingest(line)
                    try:
                        pipeline.ingest_payload("csv", line)
                        code = None
                    except SemDroughtError as exc:
                        code = exc.code
                    assert code == expected
                else:
                    lines = [csv_line(r) for r in payload]
                    outcomes = [reference.ingest(line) for line in lines]
                    dataset.write_text("".join(f"csv|{line}\n" for line in lines))
                    summary = pipeline.replay(dataset)
                    assert summary.parsed == outcomes.count(None)
                    rejected = {c: outcomes.count(c) for c in set(outcomes) - {None}}
                    assert summary.rejected == rejected
                reference.store.saturate(pipeline.ns)
                view = pipeline.store
                assert set(view) == oracle_fixpoint(asserted(view), rules)
                assert_same_store(view, reference.store)
                assert pipeline.serialize() == reference.store.serialize()

    def test_concurrent_ingest_and_view_reads(self, two_regions):
        """Readers never see a torn observation; the last view has them all."""
        pipeline = Pipeline(load_config(two_regions))
        base = len(pipeline.store)
        pipeline.ingest_payload("csv", csv_line(("s2", 0, 1.5)))
        per_observation = len(pipeline.store) - base
        base += per_observation
        torn = []

        def write(sensor):
            for day in range(60):
                pipeline.ingest_payload("csv", csv_line((sensor, day, 1.5)))

        def read():
            for _ in range(200):
                view = pipeline.store
                if (len(view) - base) % per_observation:
                    torn.append(len(view))

        threads = ([threading.Thread(target=write, args=(s,)) for s in ("s1", "s3")]
                   + [threading.Thread(target=read) for _ in range(3)])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert torn == []
        assert len(pipeline.store) == base + 2 * 60 * per_observation

    def test_view_is_built_on_each_access(self, two_regions):
        """Nothing keeps a view: each access builds one, which later writes leave as it was."""
        pipeline = Pipeline(load_config(two_regions))
        first = pipeline.store
        assert pipeline.store is not first and set(pipeline.store) == set(first)
        pipeline.ingest_payload("csv", csv_line(("s1", 0, 1.5)))
        second = pipeline.store
        pipeline.ingest_payload("csv", csv_line(("s1", 1, 1.5)))
        third = pipeline.store
        assert len(third) - len(second) == len(second) - len(first) > 0
        assert set(first) < set(second) < set(third)


# --- restore -------------------------------------------------------------------

class TestRestore:
    def test_restored_event_types_are_inferred(self, persisted, tmp_path):
        target, live = persisted
        pipeline = restored_copy(target, tmp_path / "copy")
        event = pipeline.ns.iri("ex:Event")
        store = pipeline.store
        types = [t for t in store if t.predicate == RDF_TYPE and t.object == event]
        assert types
        assert all(store.is_inferred(t) for t in types)
        assert_same_store(store, live.store)

    def test_export_keeps_triples_no_observation_accounts_for(self, persisted, tmp_path):
        target, live = persisted
        ns = live.ns
        obs_id, _ = first_observation(live.store, ns, "s1")
        extra = TripleStore()
        extra.insert(Triple(ns.iri("ex:station/r1"), ns.iri("ex:note"),
                            Literal("1.5", Datatype.DOUBLE)))
        extra.insert(Triple(obs_id, ns.iri("ex:note"),
                            Literal("2020-01-01T00:00:00Z", Datatype.DATETIME)))
        extra_lines = extra.serialize().splitlines()
        facts_text = TripleStore().serialize(persisted_facts(target).splitlines() + extra_lines)

        copy = tmp_path / "copy"
        pipeline = restored_copy(target, copy, facts_text)
        out = tmp_path / "export.nt"
        assert cli_main(["export", "--config", str(scenario.config_path(copy)),
                         "--out", str(out)]) == 0
        expected = TripleStore().serialize(live.serialize().splitlines() + extra_lines)
        assert out.read_text(encoding="utf-8") == expected
        assert pipeline.serialize() == expected == pipeline.store.serialize()
        assert set(extra) <= set(pipeline.store)
        assert pipeline.event_count == live.event_count
        period = "2022-06"
        assert (pipeline.bulletin("r1", period).to_json_dict()
                == live.bulletin("r1", period).to_json_dict())

    @pytest.mark.parametrize("prop", ["ex:subPropertyOf", "ex:bySensor"])
    def test_a_super_property_that_is_no_iri_derives_nothing(self, persisted, tmp_path,
                                                             capsys, prop):
        """A restored ``facts.nt`` may make a literal the super-property of a
        property the facts or the observations use. A predicate must be an
        IRI, so nothing is derived under it: ``forecast`` and ``export`` go
        on, and the export is the built-in rules' fixpoint."""
        target, live = persisted
        ns = live.ns
        link = Triple(ns.iri(prop), ns.iri("ex:subPropertyOf"), Literal("1", Datatype.DOUBLE))
        facts_text = TripleStore().serialize(
            persisted_facts(target).splitlines() + [triple_text(link)])
        copy = tmp_path / "copy"
        shutil.copytree(target, copy)
        config = str(scenario.config_path(copy))
        state = load_config(config).persistence_dir
        (state / FACTS_FILE).write_text(facts_text, encoding="utf-8")
        out = tmp_path / "export.nt"

        assert cli_main(["forecast", "--config", config, "--region", "r1",
                         "--period", "2022-06"]) == 0
        assert json.loads(capsys.readouterr().out) == live.bulletin("r1", "2022-06").to_json_dict()
        assert cli_main(["export", "--config", config, "--out", str(out)]) == 0
        given = set(TripleStore.load(facts_text))
        for line in (state / OBSERVATION_LOG_FILE).read_text().splitlines():
            given.update(observation_to_triples(ns, _logged_observation(json.loads(line), {})))
        fixpoint = TripleStore()
        for triple in oracle_fixpoint(given, builtin_rules(ns)):
            fixpoint.insert(triple)
        assert out.read_text(encoding="utf-8") == fixpoint.serialize()

    def test_restored_firings_equal_the_live_ones(self, persisted, tmp_path):
        target, live = persisted
        pipeline = restored_copy(target, tmp_path / "copy")
        assert len(live.firings) == 18
        assert pipeline.firings == live.firings

    def test_post_of_persisted_reading_is_duplicate(self, persisted, tmp_path):
        target, live = persisted
        pipeline = restored_copy(target, tmp_path / "copy")
        _, at = first_observation(live.store, live.ns, "s1")
        with running_server(pipeline) as port:
            status, body = http_post(f"http://127.0.0.1:{port}/observations", {
                "sensor_id": "s1", "property": "rain", "value": 1.0, "unit": "mm",
                "timestamp": at,
            })
        assert status == 400 and body["error"] == "Duplicate"

    def test_post_older_than_restored_events_is_out_of_order(self, persisted, tmp_path):
        target, live = persisted
        pipeline = restored_copy(target, tmp_path / "copy")
        reading = {"sensor_id": "s1", "property": "rain", "value": 1.0, "unit": "mm"}
        report = {"indicator_id": "ants_nest_high", "region": "r1", "confidence": 1.0}
        with running_server(pipeline) as port:
            base = f"http://127.0.0.1:{port}"
            old = http_post(f"{base}/observations",
                            dict(reading, timestamp="2020-01-03T01:00:00Z"))
            old_report = http_post(f"{base}/ik", dict(report, timestamp="2020-01-03T01:00:00Z"))
            new = http_post(f"{base}/observations",
                            dict(reading, timestamp="2023-01-03T01:00:00Z"))
        assert [status for status, _ in (old, old_report, new)] == [409, 409, 200]
        assert old[1]["error"] == old_report[1]["error"] == "OutOfOrder"
        assert pipeline.event_count == live.event_count + 1

    def test_saturation_after_restore_follows_restored_ontology(self, persisted, tmp_path):
        target, live = persisted
        ns = live.ns
        chain = TripleStore()
        chain.insert(Triple(ns.iri("ex:Event"), ns.iri("ex:subClassOf"), ns.iri("ex:Occurrence")))
        pipeline = restored_copy(target, tmp_path / "copy",
                                 chain.serialize(persisted_facts(target).splitlines()))
        pipeline.ingest_payload("csv", "s1,rain,4.2,mm,2023-02-03T00:00:00Z,-29.12,26.21")
        view = pipeline.store
        rules = builtin_rules(ns)
        assert set(view) == oracle_fixpoint(asserted(view), rules)
        posted = mint_observation_iri(ns, ns.iri("ex:sensor/s1"), 1675382400)
        for cls in ("ex:Event", "ex:Occurrence"):
            assert view.is_inferred(Triple(posted, RDF_TYPE, ns.iri(cls)))


# --- derivations from a restored ontology -------------------------------------

CLASSES = ["ex:ObservationEvent", "ex:Event", "ex:Phenomenon", "ex:Happening"]
FRESH_PROPERTIES = ["ex:reading", "ex:about", "ex:measure"]
SUB_PROPERTIES = [RDF_NS + "type"] + [f"ex:{local}" for local, _, _ in OBSERVATION_SHAPE]
ontology_edges = st.tuples(
    st.lists(st.tuples(st.sampled_from(CLASSES), st.sampled_from(CLASSES)), max_size=5),
    st.lists(st.tuples(st.sampled_from(SUB_PROPERTIES + FRESH_PROPERTIES),
                       st.sampled_from(FRESH_PROPERTIES)), max_size=5),
)


class TestOntologyDerivations:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edges=ontology_edges, posts=st.lists(readings, max_size=3))
    def test_view_and_export_are_the_fixpoint_after_every_step(self, persisted_head,
                                                                edges, posts):
        """A restored scenario whose facts relate the observation class and
        predicates to fresh classes and properties, then live posts: every
        read is the built-in rules' fixpoint of the asserted triples."""
        target, live = persisted_head
        ns = live.ns
        rules = builtin_rules(ns)
        class_edges, property_edges = edges
        extra = TripleStore()
        for sub, sup in class_edges:
            extra.insert(Triple(ns.iri(sub), ns.iri("ex:subClassOf"), ns.iri(sup)))
        for sub, sup in property_edges:
            sub_iri = Iri(sub) if sub.startswith(RDF_NS) else ns.iri(sub)
            extra.insert(Triple(sub_iri, ns.iri("ex:subPropertyOf"), ns.iri(sup)))
        facts_text = extra.serialize(persisted_facts(target).splitlines())
        expected = set(TripleStore.load(facts_text))
        state = load_config(scenario.config_path(target)).persistence_dir
        for line in (state / OBSERVATION_LOG_FILE).read_text().splitlines():
            expected.update(observation_to_triples(ns, _logged_observation(json.loads(line), {})))

        with tempfile.TemporaryDirectory() as tmp:
            pipeline = restored_copy(target, Path(tmp) / "copy", facts_text)
            for step in [None] + posts:
                if step is not None:
                    try:
                        obs, _ = pipeline.ingest_payload("csv", csv_line(step))
                    except SemDroughtError:
                        continue
                    expected.update(observation_to_triples(ns, obs))
                view = pipeline.store
                assert asserted(view) == expected
                assert set(view) == oracle_fixpoint(expected, rules)
                assert pipeline.serialize() == view.serialize()


# --- duplicate detection -------------------------------------------------------

class IdSetReference:
    """The accept and reject codes of a set of accepted observation IRIs, as
    duplicates were once found: a reading whose minted IRI is in the set is a
    Duplicate, else one earlier than its region's last reading is OutOfOrder."""

    def __init__(self, config):
        self.config = config
        self.ids: set[str] = set()
        self.last: dict[str, int] = {}

    def ingest(self, source_format: str, payload: str) -> str | None:
        obs = canonicalize(parse_payload(source_format, payload), self.config.table)
        region = self.config.sensor_regions[obs.sensor_id.value]
        iri = mint_observation_iri(self.config.table.ns, obs.sensor_id, obs.timestamp).value
        if iri in self.ids:
            return "Duplicate"
        if obs.timestamp < self.last.get(region, obs.timestamp):
            return "OutOfOrder"
        self.ids.add(iri)
        self.last[region] = obs.timestamp
        return None


def scenario_readings(scenario_dir: Path, count: int) -> list[tuple[str, str]]:
    """The scenario's first ``count`` readings, as (format, payload) pairs."""
    lines = scenario.dataset_path(scenario_dir).read_text(encoding="utf-8").splitlines()
    return [tuple(line.split("|", 1)) for line in lines if not line.startswith("ik|")][:count]


def reading_at(sensor: str, timestamp: int, value: float) -> tuple[str, str]:
    term, unit, lat, lon = CSV_FIELDS[sensor]
    return "csv", f"{sensor},{term},{value},{unit},{format_utc_instant(timestamp)},{lat},{lon}"


# (before which scenario reading, kind of re-post, a number to choose by, sensor)
reposts = st.lists(st.tuples(st.integers(0, 90), st.sampled_from(["earlier", "same", "fresh"]),
                             st.integers(0, 10 ** 6), st.sampled_from(sorted(CSV_FIELDS))),
                   max_size=30)


class TestDuplicateDetection:
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(reposts=reposts)
    def test_codes_match_a_set_of_accepted_ids(self, scenario_dir, two_regions, reposts):
        """The scenario's readings, interleaved with re-posts of one already
        posted, readings at the last accepted instant and readings within two
        days of it: every code is the one the set of accepted IRIs gives."""
        config = load_config(two_regions)
        pipeline, reference = Pipeline(config), IdSetReference(config)
        readings = scenario_readings(scenario_dir, 90)
        posted: list[tuple[str, str]] = []
        last = None
        for index, reading in enumerate(readings + [None]):
            sent = []
            for _, kind, number, sensor in (r for r in reposts if r[0] == index):
                if kind == "earlier" and posted:
                    sent.append(posted[number % len(posted)])
                elif kind == "same" and last is not None:
                    sent.append(reading_at(sensor, last, number / 100))
                elif kind == "fresh" and last is not None:
                    sent.append(reading_at(sensor, last + number % (4 * DAY) - 2 * DAY, 1.0))
            sent += [reading] if reading else []
            for source_format, payload in sent:
                expected = reference.ingest(source_format, payload)
                try:
                    obs, _ = pipeline.ingest_payload(source_format, payload)
                    code = None
                except SemDroughtError as exc:
                    code = exc.code
                assert code == expected, (source_format, payload)
                posted.append((source_format, payload))
                last = obs.timestamp if code is None else last
        assert sum(map(len, pipeline._observations.values())) == len(reference.ids)


# (sensor, day) posted again after READINGS; two_regions puts s1 and s2 in r1, s3 in r2
READINGS = [("s1", 0), ("s2", 0), ("s1", 1), ("s3", 1), ("s2", 2)]
REPOSTS = [
    (("s1", 0), "Duplicate"),       # older than its region's last reading
    (("s2", 0), "Duplicate"),
    (("s1", 1), "Duplicate"),
    (("s2", 2), "Duplicate"),       # at its region's last instant
    (("s3", 1), "Duplicate"),
    (("s3", 0), "OutOfOrder"),      # older, and not logged
    (("s1", 2), None),              # another sensor at its region's last instant
]


class TestDuplicateBeforeOutOfOrder:
    """A reading posted again is a Duplicate however old it is: the region's
    log is searched for it whenever it is not later than the log's tail."""

    def fed(self, two_regions) -> Pipeline:
        pipeline = Pipeline(load_config(two_regions))
        for sensor, day in READINGS:
            pipeline.ingest_payload("csv", csv_line((sensor, day, 1.5)))
        return pipeline

    @pytest.mark.parametrize("reading, code", REPOSTS, ids=[f"{s}-{d}" for (s, d), _ in REPOSTS])
    def test_in_process(self, two_regions, reading, code):
        pipeline = self.fed(two_regions)
        iri = mint_observation_iri(NS, NS.iri(f"ex:sensor/{reading[0]}"), START + reading[1] * DAY)
        try:
            pipeline.ingest_payload("csv", csv_line((*reading, 2.5)))
        except SemDroughtError as exc:
            assert exc.code == code
            if code == "Duplicate":
                assert str(exc) == f"observation already ingested: {iri.value}"
        else:
            assert code is None

    def test_over_http(self, two_regions):
        pipeline = self.fed(two_regions)
        statuses = {"Duplicate": 400, "OutOfOrder": 409, None: 200}
        with running_server(pipeline) as port:
            for (sensor, day), code in REPOSTS:
                term, unit, lat, lon = CSV_FIELDS[sensor]
                status, body = http_post(f"http://127.0.0.1:{port}/observations", {
                    "sensor_id": sensor, "property": term, "value": 2.5, "unit": unit,
                    "timestamp": format_utc_instant(START + day * DAY), "lat": lat, "lon": lon})
                iri = mint_observation_iri(NS, NS.iri(f"ex:sensor/{sensor}"), START + day * DAY)
                assert (status, body.get("error")) == (statuses[code], code)
                if code is None:
                    assert body == {"accepted": True, "id": iri.value, "firings": 0}
