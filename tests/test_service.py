"""Service wiring tests: config, pipeline, replay, persistence, HTTP, CLI."""

import json
import shutil
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scenario
from semdrought.cep import Engine
from semdrought.errors import SemDroughtError
from semdrought.forecast import (
    NoDataError,
    Severity,
    build_climatology,
    make_bulletin,
    period_bounds,
    period_values,
)
from semdrought.ik import IkRegistry
from semdrought.service import (
    InvalidConfigError,
    NotFoundError,
    Pipeline,
    UnknownRegionError,
    load_config,
)
from semdrought.service import pipeline as pipeline_module
from semdrought.service.cli import main as cli_main
from semdrought.model import RDF_NS, Iri, triples_to_observation
from semdrought.store import TripleStore

from live_server import running_server


def extract_observations(store, ns):
    """All observations recoverable from a store's asserted triples, in
    timestamp order."""
    rdf_type = Iri(RDF_NS + "type")
    obs_class = ns.iri("ex:ObservationEvent")
    subjects = {t.subject for t in store
                if t.predicate == rdf_type and t.object == obs_class
                and not store.is_inferred(t)}
    grouped = {s: [] for s in subjects}
    for triple in store:
        if triple.subject in grouped:
            grouped[triple.subject].append(triple)
    observations = [triples_to_observation(ns, group) for group in grouped.values()]
    observations.sort(key=lambda o: (o.timestamp, o.id.value))
    return observations


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    target = tmp_path_factory.mktemp("scenario")
    manifest = scenario.generate_scenario(target)
    return target, manifest


def config_without_baseline(target, directory):
    """The path of a copy, in ``directory``, of the scenario's config with no
    ``baseline`` and no ``persistence_dir``, beside copies of its files."""
    doc = json.loads(scenario.config_path(target).read_text())
    del doc["baseline"], doc["persistence_dir"]
    for name in (doc["alignment_table"], doc["indicators"], doc["rules"]):
        shutil.copy(target / name, directory / name)
    (directory / "config.json").write_text(json.dumps(doc))
    return directory / "config.json"


@pytest.fixture(scope="module")
def replayed(scenario_dir):
    target, manifest = scenario_dir
    pipeline = Pipeline(load_config(scenario.config_path(target)))
    summary = pipeline.replay(scenario.dataset_path(target))
    return target, manifest, pipeline, summary


class TestConfig:
    def test_minimal_config_gets_defaults(self, scenario_dir):
        target, _ = scenario_dir
        config = load_config(scenario.config_path(target))
        assert config.weights.precipitation == 0.4
        assert config.severity_thresholds == (0.25, 0.5, 0.75)
        assert config.min_baseline_count == 5
        assert config.regions == {"r1": ("s1", "s2", "s3")}

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(NotFoundError):
            load_config(tmp_path / "nope.json")

    def test_missing_rules_file(self, scenario_dir, tmp_path):
        target, _ = scenario_dir
        doc = json.loads(scenario.config_path(target).read_text())
        doc["rules"] = "missing.rules"
        bad = tmp_path / "config.json"
        bad.write_text(json.dumps(doc))
        # other paths are relative to the new config dir too
        for name in ("alignment.json", "indicators.json"):
            (tmp_path / name).write_text((target / name).read_text())
        with pytest.raises(NotFoundError):
            load_config(bad)

    def test_bad_weights_rejected(self, scenario_dir, tmp_path):
        target, _ = scenario_dir
        doc = json.loads(scenario.config_path(target).read_text())
        doc["weights"] = {"precipitation": 0.4, "soil_moisture": 0.3,
                         "temperature": 0.1, "ik": 0.1}
        for name in ("alignment.json", "indicators.json", "detection.rules"):
            (tmp_path / name).write_text((target / name).read_text())
        bad = tmp_path / "config.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(InvalidConfigError) as err:
            load_config(bad)
        assert err.value.fieldname == "weights"

    def test_empty_regions_rejected(self, scenario_dir, tmp_path):
        target, _ = scenario_dir
        doc = json.loads(scenario.config_path(target).read_text())
        doc["regions"] = {}
        for name in ("alignment.json", "indicators.json", "detection.rules"):
            (tmp_path / name).write_text((target / name).read_text())
        bad = tmp_path / "config.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(InvalidConfigError):
            load_config(bad)


class TestReplay:
    def test_summary_matches_manifest(self, replayed):
        _, manifest, _, summary = replayed
        assert summary.parsed == manifest["parsed"]
        assert summary.rejected == manifest["rejected"]
        assert summary.firings == manifest["firings"]

    def test_empty_file_all_zero(self, scenario_dir, tmp_path):
        target, _ = scenario_dir
        pipeline = Pipeline(load_config(scenario.config_path(target)))
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        summary = pipeline.replay(empty)
        assert summary.parsed == 0 and summary.rejected == {} and summary.firings == 0

    def test_unknown_term_line_rejected_not_fatal(self, scenario_dir, tmp_path):
        target, _ = scenario_dir
        pipeline = Pipeline(load_config(scenario.config_path(target)))
        bad = tmp_path / "bad.txt"
        bad.write_text("csv|s1,frogcount,3,mm,2020-01-03T00:00:00Z,-29.1,26.2\n")
        summary = pipeline.replay(bad)
        assert summary.parsed == 0
        assert summary.rejected == {"UnknownTerm": 1}

    def test_out_of_order_line_counted(self, scenario_dir, tmp_path):
        target, _ = scenario_dir
        pipeline = Pipeline(load_config(scenario.config_path(target)))
        lines = [
            "csv|s1,rain,5,mm,2020-01-03T00:00:00Z,-29.1,26.2",
            "csv|s1,rain,5,mm,2020-01-02T00:00:00Z,-29.1,26.2",   # regression
        ]
        data = tmp_path / "ooo.txt"
        data.write_text("".join(l + "\n" for l in lines))
        summary = pipeline.replay(data)
        assert summary.parsed == 1
        assert summary.rejected == {"OutOfOrder": 1}

    def test_an_accepted_report_is_checked_once(self, scenario_dir, monkeypatch):
        target, _ = scenario_dir
        pipeline = Pipeline(load_config(scenario.config_path(target)))
        checked = []
        event_for = IkRegistry.event_for
        monkeypatch.setattr(IkRegistry, "event_for",
                            lambda registry, obs: checked.append(obs) or event_for(registry, obs))
        pipeline.ingest_ik_json(json.dumps({"indicator_id": "ants_nest_high", "region": "r1",
                                            "timestamp": "2020-06-05T06:00:00Z",
                                            "confidence": 1.0}))
        assert len(checked) == 1
        assert pipeline.ik.observations == tuple(checked)

    def test_ik_flows_into_registry_and_engine(self, replayed):
        _, manifest, pipeline, _ = replayed
        assert len(pipeline.ik.observations) == manifest["ik_reports"]

    def test_store_saturated_with_category_links(self, replayed):
        _, manifest, pipeline, _ = replayed
        ns = pipeline.ns
        from semdrought.model import RDF_NS, Iri, Triple
        obs = extract_observations(pipeline.store, ns)
        assert len(obs) == manifest["observations"]
        # type propagation ran: every observation is also typed as an Event
        derived = Triple(obs[0].id, Iri(RDF_NS + "type"), ns.iri("ex:Event"))
        assert derived in pipeline.store
        assert pipeline.store.is_inferred(derived)


class TestForecastIntegration:
    def test_engineered_months_at_least_warning(self, replayed):
        _, manifest, pipeline, _ = replayed
        for period in manifest["engineered_periods"]:
            bulletin = pipeline.bulletin("r1", period)
            assert bulletin.severity >= Severity.WARNING, period

    def test_baseline_months_at_most_watch(self, replayed):
        _, manifest, pipeline, _ = replayed
        for period in manifest["baseline_periods"]:
            bulletin = pipeline.bulletin("r1", period)
            assert bulletin.severity <= Severity.WATCH, period

    def test_ik_rule_fired_during_drought(self, replayed):
        _, manifest, pipeline, _ = replayed
        from semdrought.forecast import period_bounds
        spans = [period_bounds(p) for p in manifest["engineered_periods"]]
        hits = [
            f for region, f in pipeline.firings
            if f.rule == "ik_drier"
            and any(start <= f.window_end < end for start, end in spans)
        ]
        assert hits

    def test_without_baseline_the_history_before_the_period_is_the_baseline(
            self, scenario_dir, tmp_path):
        target, manifest = scenario_dir
        config = load_config(config_without_baseline(target, tmp_path))
        pipeline = Pipeline(config)
        pipeline.replay(scenario.dataset_path(target))
        period = manifest["engineered_periods"][0]
        start, end = period_bounds(period)
        observations = extract_observations(pipeline.store, pipeline.ns)
        climatology = build_climatology([o for o in observations if o.timestamp < start],
                                        config.min_baseline_count)
        expected = make_bulletin(
            "r1", period, period_values(
                "r1", period, [o for o in observations if start <= o.timestamp < end], pipeline.ns),
            climatology, pipeline.ik.signal,
            [f for _, f in pipeline.firings], pipeline.ns, config.weights,
            config.severity_thresholds, config.ik_window_days * 86400)
        assert pipeline.bulletin("r1", period) == expected

    def test_unknown_region(self, replayed):
        _, _, pipeline, _ = replayed
        with pytest.raises(UnknownRegionError):
            pipeline.bulletin("atlantis", "2022-05")

    def test_firing_evidence_resolves_to_window_events(self, scenario_dir):
        target, _ = scenario_dir
        pipeline = Pipeline(load_config(scenario.config_path(target)))
        firings = feed(pipeline, scenario.dataset_path(target).read_text().splitlines())
        known_kinds = {r.emit for r in pipeline.rules}
        known_kinds.update(p.value for p in pipeline.vocabulary.property_units)
        known_kinds.update({"IkDrierObservation", "IkWetterObservation"})
        lengths = {r.name: r.window.length for r in pipeline.rules}
        assert firings and all(f.evidence for f in firings)
        for firing in firings:
            for event in firing.evidence:
                assert event.kind in known_kinds
                start = firing.window_end - lengths[firing.rule]
                assert start < event.timestamp <= firing.window_end


class TestDeterminismAndPersistence:
    def test_two_replays_identical(self, scenario_dir):
        target, _ = scenario_dir
        results = []
        for _ in range(2):
            pipeline = Pipeline(load_config(scenario.config_path(target)))
            summary = pipeline.replay(scenario.dataset_path(target))
            results.append((
                summary.to_json_dict(),
                pipeline.store.serialize(),
                [(r, f.rule, f.window_end) for r, f in pipeline.firings],
            ))
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]          # byte-identical store
        assert results[0][2] == results[1][2]          # identical firing log

    def test_persisted_store_reloads_equal(self, replayed, tmp_path):
        target, _, pipeline, _ = replayed
        out = tmp_path / "export.nt"
        assert cli_main(["export", "--config", str(scenario.config_path(target)),
                         "--out", str(out)]) == 0
        exported = out.read_text(encoding="utf-8")
        assert exported == pipeline.serialize()
        assert set(TripleStore.load(exported)) == set(pipeline.store)

    def test_restore_supports_offline_forecast(self, scenario_dir, replayed):
        target, manifest, live, _ = replayed
        offline = Pipeline(load_config(scenario.config_path(target)))
        offline.restore(target / "state")
        period = manifest["engineered_periods"][2]
        a = live.bulletin("r1", period).to_json_dict()
        b = offline.bulletin("r1", period).to_json_dict()
        assert a == b

    def test_ingestion_path_equivalence(self, scenario_dir, tmp_path):
        target, _ = scenario_dir
        line = "s1,rain,4.2,mm,2023-02-03T00:00:00Z,-29.12,26.21"
        dataset = tmp_path / "one.txt"
        dataset.write_text(f"csv|{line}\n")
        via_replay = Pipeline(load_config(scenario.config_path(target)))
        via_replay.replay(dataset)
        direct = Pipeline(load_config(scenario.config_path(target)))
        direct.ingest_payload("csv", line)
        direct.flush_engines()
        obs_r = extract_observations(via_replay.store, via_replay.ns)
        obs_d = extract_observations(direct.store, direct.ns)
        assert obs_r == obs_d
        firings_r = [(r, f.rule, f.window_end) for r, f in via_replay.firings]
        firings_d = [(r, f.rule, f.window_end) for r, f in direct.firings]
        assert firings_r == firings_d


def feed(pipeline: Pipeline, lines: list[str]) -> list:
    """Each ``format|payload`` line through the ingestion path, as replay
    feeds it, rejections skipped; the firings the path returns, with their
    evidence."""
    firings = []
    for line in lines:
        tag, _, payload = line.partition("|")
        try:
            if tag == "ik":
                firings += pipeline.ingest_ik_json(payload)
            else:
                firings += pipeline.ingest_payload(tag, payload)[1]
        except SemDroughtError:
            pass
    return firings


def read_bulletin(pipeline: Pipeline, period: str | None = None):
    """The r1 bulletin of ``period`` (the latest by default) as JSON, or the
    code of the error it raises."""
    try:
        return pipeline.bulletin("r1", period).to_json_dict()
    except SemDroughtError as exc:
        return exc.code


class TestReadsDoNotChangeFirings:
    """A bulletin read settles open windows on a copy of the engine, so reads
    interleaved into a stream change neither what it commits nor what a
    later read serves."""

    @pytest.fixture(scope="class")
    def stream(self, scenario_dir):
        target, _ = scenario_dir
        lines = [line for line in scenario.dataset_path(target).read_text().splitlines()
                 if line.strip()]
        uninterrupted = Pipeline(load_config(scenario.config_path(target)))
        feed(uninterrupted, lines)
        uninterrupted.flush_engines()
        return target, lines, uninterrupted.firings

    @pytest.mark.parametrize("every", [7, 23, 97])
    def test_periodic_reads_commit_what_an_uninterrupted_run_commits(self, stream, every):
        target, lines, expected = stream
        pipeline = Pipeline(load_config(scenario.config_path(target)))
        for start in range(0, len(lines), every):
            feed(pipeline, lines[start:start + every])
            read_bulletin(pipeline)
        pipeline.flush_engines()
        assert len(expected) == 18
        assert pipeline.firings == expected

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_random_reads_match_a_twin_without_reads(self, stream, data):
        target, lines, expected = stream
        cuts = sorted(data.draw(st.lists(st.integers(0, len(lines)), max_size=5)))
        pipeline = Pipeline(load_config(scenario.config_path(target)))
        fed = 0
        for cut in cuts:
            feed(pipeline, lines[fed:cut])
            fed = cut
            twin = Pipeline(load_config(scenario.config_path(target)))
            feed(twin, lines[:cut])
            assert read_bulletin(pipeline) == read_bulletin(twin), f"read after line {cut}"
        feed(pipeline, lines[fed:])
        pipeline.flush_engines()
        assert pipeline.firings == expected


@pytest.fixture(scope="module")
def server(replayed):
    _, manifest, pipeline, _ = replayed
    with running_server(pipeline) as port:
        yield f"http://127.0.0.1:{port}", manifest, pipeline


def http_get(url: str):
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode())


def http_post(url: str, payload: dict):
    data = json.dumps(payload).encode()
    request = urllib.request.Request(url, data=data, method="POST",
                                     headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode())


class TestHttpApi:
    def test_health(self, server):
        base, _, pipeline = server
        status, payload = http_get(f"{base}/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["events"] == pipeline.event_count

    def test_rules_schema(self, server):
        base, _, _ = server
        status, payload = http_get(f"{base}/rules")
        assert status == 200
        assert isinstance(payload["rules"], list)
        assert any("ik_drier" in text for text in payload["rules"])

    def test_forecast_roundtrip(self, server):
        base, manifest, _ = server
        period = manifest["engineered_periods"][0]
        status, payload = http_get(f"{base}/forecast?region=r1&period={period}")
        assert status == 200
        assert payload["severity"] in ("Warning", "Severe")
        assert 0.0 <= payload["dvi"] <= 1.0

    def test_unknown_region_404(self, server):
        base, _, _ = server
        status, payload = http_get(f"{base}/forecast?region=nowhere&period=2022-05")
        assert status == 404
        assert payload["error"] == "UnknownRegion"

    def test_unknown_property_400_names_term(self, server):
        base, _, _ = server
        status, payload = http_post(f"{base}/observations", {
            "sensor_id": "s1", "property": "frogcount", "value": 2,
            "unit": "mm", "timestamp": "2023-03-01T00:00:00Z",
        })
        assert status == 400
        assert payload["error"] == "UnknownTerm"
        assert payload["term"] == "frogcount"

    def test_out_of_order_409(self, server):
        base, _, _ = server
        status, payload = http_post(f"{base}/observations", {
            "sensor_id": "s1", "property": "rain", "value": 1,
            "unit": "mm", "timestamp": "2019-01-01T00:00:00Z",
        })
        assert status == 409
        assert payload["error"] == "OutOfOrder"

    def test_post_then_forecast_reflects_both(self, server):
        base, _, _ = server
        # day boundary after the dataset's final reading, inside month 36
        status, posted = http_post(f"{base}/observations", {
            "sensor_id": "s3", "property": "temp", "value": 45.0,
            "unit": "C", "timestamp": "2022-12-30T00:00:00Z",
        })
        assert status == 200 and posted["accepted"]
        status, _ = http_post(f"{base}/ik", {
            "indicator_id": "ants_nest_high",
            "timestamp": "2022-12-30T06:00:00Z",
            "region": "r1", "confidence": 1.0,
        })
        assert status == 200
        status, bulletin = http_get(f"{base}/forecast?region=r1&period=2022-12")
        assert status == 200
        assert bulletin["ik"]["support"] >= 1
        assert any(e["rule"] == "heat_spike" for e in bulletin["evidence"])


class TestCli:
    def test_validate_rules_ok(self, scenario_dir, capsys):
        target, _ = scenario_dir
        code = cli_main(["validate-rules", "--file", str(target / "detection.rules")])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_rules_bad(self, tmp_path, capsys):
        bad = tmp_path / "bad.rules"
        bad.write_text("RULE broken WHEN WITHIN 1d EMIT X\n")
        code = cli_main(["validate-rules", "--file", str(bad)])
        assert code == 1
        assert "invalid" in capsys.readouterr().err

    def test_replay_then_forecast_and_export(self, tmp_path, capsys):
        target = tmp_path / "cli"
        scenario.generate_scenario(target)
        config = str(scenario.config_path(target))
        code = cli_main(["replay", "--config", config,
                         "--input", str(scenario.dataset_path(target))])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        manifest = json.loads((target / "manifest.json").read_text())
        assert summary["parsed"] == manifest["parsed"]

        code = cli_main(["forecast", "--config", config,
                         "--region", "r1", "--period",
                         manifest["engineered_periods"][0]])
        assert code == 0
        bulletin = json.loads(capsys.readouterr().out)
        assert bulletin["severity"] in ("Warning", "Severe")

        out = tmp_path / "export.nt"
        code = cli_main(["export", "--config", config, "--out", str(out)])
        assert code == 0
        replayed = Pipeline(load_config(config))
        replayed.replay(scenario.dataset_path(target))
        assert out.read_text() == replayed.serialize()

    def test_usage_error_exit_one(self, capsys):
        assert cli_main(["replay", "--config"]) == 1

    def test_missing_config_exit_one(self, tmp_path, capsys):
        code = cli_main(["replay", "--config", str(tmp_path / "none.json"),
                         "--input", "x"])
        assert code == 1


class TestReadsReuseTheBaseline:
    """A read builds a region's baseline climatology once and keeps it until
    a reading inside the baseline window is logged or the state is restored;
    it previews only the open windows that end before the period does."""

    # (the date of the first line the pipeline has not been fed, the period
    # read then; None is the end of the data, or the latest period)
    READS = [("2021-04-", "2020-06"), ("2021-08-", "2020-06"), ("2021-08-", "2021-06"),
             ("2021-08-", None), ("2021-08-", "2030-01"), ("2021-10-", "2021-06"),
             ("2021-10-", "2021-07"), ("2022-03-", "2020-06"), ("2022-03-", None),
             ("2022-05-13T", None), ("2022-06-08T", None), ("2022-06-08T", "2022-05"),
             (None, "2022-07"), (None, None)]

    @pytest.mark.parametrize("baseline", [True, False], ids=["baseline", "history_before"])
    def test_reads_between_in_window_lines_match_a_flushed_twin(self, scenario_dir, tmp_path,
                                                               baseline):
        target, _ = scenario_dir
        path = (scenario.config_path(target) if baseline
                else config_without_baseline(target, tmp_path))
        lines = [line for line in scenario.dataset_path(target).read_text().splitlines()
                 if line.strip()]
        pipeline = Pipeline(load_config(path))
        fed = 0
        for date, period in self.READS:
            cut = (len(lines) if date is None
                   else next(i for i, line in enumerate(lines) if date in line))
            feed(pipeline, lines[fed:cut])
            fed = cut
            twin = Pipeline(load_config(path))
            feed(twin, lines[:cut])
            twin.flush_engines()    # commits what the pipeline's read previews
            assert read_bulletin(pipeline, period) == read_bulletin(twin, period), (
                f"read of {period} before {date}")

    def test_reads_of_past_periods_build_the_climatology_once(self, replayed, tmp_path,
                                                              monkeypatch):
        target, manifest, replayed_pipeline, _ = replayed
        replayed_pipeline.persist(tmp_path)
        builds = []

        def counted(*args):
            builds.append(args)
            return build_climatology(*args)

        monkeypatch.setattr(pipeline_module, "build_climatology", counted)
        pipeline = Pipeline(load_config(scenario.config_path(target)))
        pipeline.restore(tmp_path)
        for period in manifest["baseline_periods"][:20]:
            pipeline.bulletin("r1", period)
        assert len(builds) == 1
        pipeline.restore(tmp_path)
        pipeline.bulletin("r1", manifest["baseline_periods"][0])
        assert len(builds) == 2

    def test_a_read_without_readings_is_no_data_before_any_work(self, scenario_dir, tmp_path,
                                                                monkeypatch):
        target, _ = scenario_dir
        lines = [line for line in scenario.dataset_path(target).read_text().splitlines()
                 if line.strip()]
        pipeline = Pipeline(load_config(config_without_baseline(target, tmp_path)))
        feed(pipeline, lines[:-40])
        first_line_only = Pipeline(pipeline.config)
        feed(first_line_only, lines[:1])
        calls = []

        def counted(*args):
            calls.append("build_climatology")
            return build_climatology(*args)

        engine_init = Engine.__init__

        def counted_init(self, *args):
            calls.append("Engine")
            engine_init(self, *args)

        monkeypatch.setattr(pipeline_module, "build_climatology", counted)
        monkeypatch.setattr(Engine, "__init__", counted_init)
        pipeline.bulletin("r1")
        assert calls == ["build_climatology", "Engine"]    # a read with readings does both
        kept = dict(pipeline._climatologies)
        calls.clear()
        with pytest.raises(NoDataError):
            pipeline.bulletin("r1", "2030-01")
        assert calls == []
        assert pipeline._climatologies == kept
        assert pipeline._climatologies["r1"] is kept["r1"]
        # the latest period holds one rain reading and nothing of the other properties
        with pytest.raises(NoDataError, match="^no soilMoisture observations for r1 in 2020-01$"):
            first_line_only.bulletin("r1")
        assert calls == []
        assert first_line_only._climatologies == {}
