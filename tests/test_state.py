"""The observation log as the state: derived triple view, rendered
export, persistence and restore.

The reference for every check is the store built the original way: each
accepted observation inserted as its eight triples into one TripleStore,
saturated at the same points.
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
from semdrought.service.pipeline import FACTS_FILE, _logged_observation, _observation_row
from semdrought.store import TripleStore, builtin_rules

from live_server import running_server
from test_service import http_post
from test_store import oracle_fixpoint

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
        id=mint_observation_iri(NS, NS.iri(f"ex:sensor/{sensor}"), ts),
        sensor_id=NS.iri(f"ex:sensor/{sensor}"), property=NS.iri("ex:soilMoisture"),
        value=value, unit=NS.iri("ex:percentVolumetric"), timestamp=ts, lat=lat, lon=lon),
    sensor=st.sampled_from(["s1", "station-9", "a%22b"]),
    ts=st.integers(min_value=0, max_value=4102444800),
    value=st.floats(allow_nan=False, allow_infinity=False),
    lat=st.floats(min_value=-90, max_value=90),
    lon=st.floats(min_value=-180, max_value=180),
)


class TestObservationRows:
    @settings(max_examples=200)
    @given(observations)
    def test_logged_row_round_trips_every_field(self, obs):
        row = json.loads(json.dumps(_observation_row(obs)))
        assert _logged_observation(row) == obs


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
        region = self.pipeline.region_of(obs.sensor_id)
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
                    reference.store.saturate(rules)
                    view = pipeline.store
                    assert set(view) == oracle_fixpoint(asserted(view), rules)
                assert_same_store(pipeline.store, reference.store)
                assert pipeline.serialize() == reference.store.serialize()

    def test_concurrent_ingest_and_view_reads(self, two_regions):
        """Readers never see a torn observation; the last view has them all."""
        pipeline = Pipeline(load_config(two_regions))
        base = len(pipeline.store)
        torn = []

        def write(sensor):
            for day in range(60):
                pipeline.ingest_payload("csv", csv_line((sensor, day, 1.5)))

        def read():
            for _ in range(200):
                view = pipeline.store
                if (len(view) - base) % 8:
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
        assert len(pipeline.store) == base + 2 * 60 * 8

    def test_view_is_cached_until_a_write(self, two_regions):
        pipeline = Pipeline(load_config(two_regions))
        first = pipeline.store
        assert pipeline.store is first
        pipeline.ingest_payload("csv", csv_line(("s1", 0, 1.5)))
        second = pipeline.store
        assert second is not first and len(second) == len(first) + 8


# --- restore -------------------------------------------------------------------

class TestRestore:
    def test_restored_event_types_are_inferred(self, persisted, tmp_path):
        target, live = persisted
        pipeline = restored_copy(target, tmp_path / "copy")
        event = pipeline.ns.iri("ex:Event")
        types = [t for t in pipeline.store if t.predicate == RDF_TYPE and t.object == event]
        assert types
        assert all(pipeline.store.is_inferred(t) for t in types)
        assert_same_store(pipeline.store, live.store)

    def test_export_keeps_triples_no_observation_accounts_for(self, persisted, tmp_path):
        target, live = persisted
        ns = live.ns
        obs_id, _ = first_observation(live.store, ns, "s1")
        extra = TripleStore()
        extra.insert(Triple(ns.iri("ex:station/r1"), ns.iri("ex:note"),
                            Literal("kept", Datatype.STRING)))
        extra.insert(Triple(obs_id, ns.iri("ex:note"), Literal("checked", Datatype.STRING)))
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
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        pipeline.replay(empty)                                 # saturates
        view = pipeline.store
        rules = builtin_rules(ns)
        assert set(view) == oracle_fixpoint(asserted(view), rules)
        posted = mint_observation_iri(ns, ns.iri("ex:sensor/s1"), 1675382400)
        for cls in ("ex:Event", "ex:Occurrence"):
            assert view.is_inferred(Triple(posted, RDF_TYPE, ns.iri(cls)))
