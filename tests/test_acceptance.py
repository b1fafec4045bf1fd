"""Acceptance suite: one test per shipping criterion, timed where required.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS lines; any assertion failure prints the matching FAIL line instead.
"""

import json
import random
import statistics
import time
import urllib.request
import urllib.error
from contextlib import contextmanager
from datetime import datetime, timezone

import pytest

import scenario
from semdrought.cep import CepRule, Engine, Event, WindowSpec, window_aggregate, slope
from semdrought.cep.rules import Absent, And, Compare, Not, Or, Seq
from semdrought.forecast import (
    DviWeights,
    Severity,
    build_climatology,
    classify_severity,
    compute_dvi,
    make_bulletin,
)
from semdrought.ik import IkSignal
from semdrought.ingest import (
    AlignmentTable,
    canonicalize,
    parse_csv_line,
    parse_json_observation,
    parse_xml_observation,
)
from semdrought.model import (
    CanonicalObservation,
    Namespaces,
    Vocabulary,
    canonical_double,
    format_utc_instant,
    mint_observation_iri,
    observation_to_triples,
)
from semdrought.service import Pipeline, load_config
from semdrought.store import TripleStore
from live_server import running_server
from test_cep_engine import oracle_firings
from test_store import builtin_rules, oracle_fixpoint, random_ontology

NS = Namespaces()
VOCAB = Vocabulary(NS)


@contextmanager
def criterion(number: int, title: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nFAIL criterion {number}: {title}")
        raise
    elapsed = time.monotonic() - started
    print(f"\nPASS criterion {number}: {title} ({elapsed:.2f}s)")


# --------------------------------------------------------------------------
# 1. cross-format equivalence
# --------------------------------------------------------------------------

ALIASES = {
    "ex:soilMoisture": (("soil_hum", "%"), ("SM", "pct"), ("soilMoisture", "%")),
    "ex:precipitation": (("rain", "mm"), ("precip_mm", "mm"), ("rainfall", "mm")),
    "ex:airTemperature": (("temp", "C"), ("t_air", "celsius"), ("airTemp", "C")),
}


def test_criterion_1_cross_format_equivalence():
    with criterion(1, "cross-format ingestion equivalence over 200 observations"):
        started = time.monotonic()
        table = AlignmentTable.from_json(json.dumps(scenario.ALIGNMENT), VOCAB)
        rng = random.Random(101)
        stores = {"csv": TripleStore(), "json": TripleStore(), "xml": TripleStore()}
        for _ in range(200):
            prop = rng.choice(list(ALIASES))
            value_lex = canonical_double(round(rng.uniform(0, 80), 4))
            ts = rng.randrange(1_577_836_800, 1_700_000_000)
            stamp = format_utc_instant(ts)
            sensor = rng.choice(["s1", "s2", "s3"])
            lat, lon = round(rng.uniform(-30, -28), 3), round(rng.uniform(25, 27), 3)
            aliases = ALIASES[prop]
            term_c, unit_c = aliases[rng.randrange(3)]
            term_j, unit_j = aliases[rng.randrange(3)]
            term_x, unit_x = aliases[rng.randrange(3)]
            raw_by_format = {
                "csv": parse_csv_line(
                    f"{sensor},{term_c},{value_lex},{unit_c},{stamp},{lat},{lon}"
                ),
                "json": parse_json_observation(json.dumps({
                    "sensor_id": sensor, "property": term_j, "value": float(value_lex),
                    "unit": unit_j, "timestamp": stamp, "lat": lat, "lon": lon,
                })),
                "xml": parse_xml_observation(
                    f"<Observation><procedure>{sensor}</procedure>"
                    f"<observedProperty>{term_x}</observedProperty>"
                    f'<result uom="{unit_x}">{value_lex}</result>'
                    f"<time>{stamp}</time><lat>{lat}</lat><lon>{lon}</lon>"
                    f"</Observation>"
                ),
            }
            outputs = {fmt: canonicalize(raw, table)
                       for fmt, raw in raw_by_format.items()}
            assert outputs["csv"] == outputs["json"] == outputs["xml"]
            for fmt, obs in outputs.items():
                for triple in observation_to_triples(NS, obs):
                    stores[fmt].insert(triple)
        serialized = {fmt: store.serialize() for fmt, store in stores.items()}
        assert serialized["csv"] == serialized["json"] == serialized["xml"]
        assert time.monotonic() - started < 5.0


# --------------------------------------------------------------------------
# 2. inference oracle
# --------------------------------------------------------------------------

def test_criterion_2_inference_fixpoint_oracle():
    with criterion(2, "saturation equals naive fixpoint on 100 random ontologies"):
        started = time.monotonic()
        rng = random.Random(202)
        rules = builtin_rules(NS)
        for _ in range(100):
            baseline = random_ontology(rng)
            store = TripleStore()
            for triple in baseline:
                store.insert(triple)
            derived = store.saturate(NS)
            expected = oracle_fixpoint(baseline, rules)
            assert set(store) == expected
            assert derived == len(expected - baseline)
        assert time.monotonic() - started < 10.0


# --------------------------------------------------------------------------
# 3. CEP oracle
# --------------------------------------------------------------------------

def _acceptance_rules(rng: random.Random, count: int) -> list[CepRule]:
    kinds = ["k0", "k1", "k2", "k3"]
    strides = [14400, 21600, 43200, 86400]
    rules = []
    for i in range(count):
        stride = rng.choice(strides)
        length = stride * rng.randint(1, 3)
        window = WindowSpec(length, stride)

        def leaf():
            kind = rng.choice(kinds + [f"E{j}" for j in range(i)])
            cmp = rng.choice(["<", "<=", ">", ">=", "==", "!="])
            roll = rng.random()
            if roll < 0.3:
                return Compare(None, kind, cmp, round(rng.uniform(-1, 1), 3))
            if roll < 0.6:
                fn = rng.choice(["AVG", "MIN", "MAX", "SUM", "COUNT"])
                bound = float(rng.randint(0, 5)) if fn == "COUNT" else round(
                    rng.uniform(-2, 2), 3)
                return Compare(fn, kind, cmp, bound)
            if roll < 0.75:
                return Compare("SLOPE", kind, cmp, round(rng.uniform(-5, 5), 3))
            if roll < 0.9:
                return Seq(kind, rng.choice(kinds))
            return Absent(kind)

        def unary():
            node = leaf()
            if isinstance(node, Compare) and rng.random() < 0.25:
                return Not(node)
            return node

        roll = rng.random()
        if roll < 0.5:
            pattern = unary()
        elif roll < 0.8:
            pattern = And((unary(), unary()))
        else:
            pattern = Or((unary(), unary()))
        rules.append(CepRule(name=f"r{i:02d}", window=window, pattern=pattern,
                             emit=f"E{i}", severity_weight=0.5))
    return rules


def test_criterion_3_cep_re_scan_oracle():
    with criterion(3, "firing sets equal the re-scan oracle on 50 random streams"):
        started = time.monotonic()
        rng = random.Random(303)
        for trial in range(50):
            size = 1000 if trial < 3 else rng.randint(50, 400)
            rules = _acceptance_rules(rng, rng.randint(1, 10))
            stream = []
            ts = rng.randint(0, 7200)
            for _ in range(size):
                ts += rng.randint(0, 900)
                stream.append(Event(kind=rng.choice(["k0", "k1", "k2", "k3"]),
                                    timestamp=ts, value=round(rng.uniform(-2, 2), 4)))
            engine = Engine(rules)
            got = [(f.rule, f.window_end) for f in engine.run(list(stream))]
            assert got == oracle_firings(rules, stream), f"stream {trial} diverged"
        # aggregate kernels against a naive loop
        for _ in range(200):
            points = [(i, rng.uniform(-100, 100)) for i in range(rng.randint(1, 80))]
            naive_sum = 0.0
            for _, v in points:
                naive_sum += v
            assert abs(window_aggregate([v for _, v in points], "SUM") - naive_sum) <= 1e-9
            assert abs(window_aggregate([v for _, v in points], "AVG") - naive_sum / len(points)) <= 1e-9
        assert time.monotonic() - started < 30.0


# --------------------------------------------------------------------------
# 4. numeric kernels
# --------------------------------------------------------------------------

def test_criterion_4_numeric_kernels():
    with criterion(4, "slope and climatology within 1e-9 of independent oracles"):
        rng = random.Random(404)
        checked = 0
        while checked < 1000:
            points = [(rng.randrange(0, 2000) * 3600, rng.uniform(-50, 50))
                      for _ in range(rng.randint(2, 60))]
            if len({t for t, _ in points}) < 2:
                continue
            days = [t / 86400.0 for t, _ in points]
            values = [v for _, v in points]
            expected = statistics.linear_regression(days, values).slope
            assert abs(slope(*zip(*points)) - expected) <= 1e-9
            checked += 1

        sensor = NS.join("sensor/s1")
        unit = VOCAB.property_units[NS.iri("ex:precipitation")]
        for case in range(1000):
            month = case % 12 + 1
            samples = [rng.uniform(0, 40) for _ in range(rng.randint(2, 24))]
            history = [
                CanonicalObservation(
                    id=mint_observation_iri(NS, sensor, 1_577_836_800 + case * 40_000_000 + i),
                    sensor_id=sensor, property=NS.iri("ex:precipitation"),
                    value=v, unit=unit,
                    timestamp=int(datetime(
                        2020, month, 1 + i % 27, tzinfo=timezone.utc
                    ).timestamp()),
                    lat=0.0, lon=0.0,
                )
                for i, v in enumerate(samples)
            ]
            entry = build_climatology(history, min_count=2)[
                (NS.expand("ex:precipitation"), month)]
            mean = sum(samples) / len(samples)
            var = sum((x - mean) ** 2 for x in samples) / (len(samples) - 1)
            assert abs(entry.mean - mean) <= 1e-9
            assert abs(entry.std - var ** 0.5) <= 1e-9


# --------------------------------------------------------------------------
# 5. DVI properties
# --------------------------------------------------------------------------

def test_criterion_5_dvi_properties():
    with criterion(5, "DVI bounded, monotone, boundary-exact and IK-ablatable"):
        rng = random.Random(505)
        for _ in range(10_000):
            z_p = rng.uniform(-5, 5)
            sm = rng.uniform(0, 1)
            z_t = rng.uniform(-5, 5)
            ik = rng.uniform(-1, 1)
            dvi = compute_dvi(z_p, sm, z_t, ik)
            assert 0.0 <= dvi <= 1.0
            delta = rng.uniform(0.01, 1.5)
            assert compute_dvi(z_p - delta, sm, z_t, ik) >= dvi - 1e-12
            assert compute_dvi(z_p, max(0.0, sm - min(delta, 1.0)), z_t, ik) >= dvi - 1e-12
            assert compute_dvi(z_p, sm, z_t + delta, ik) >= dvi - 1e-12
            assert compute_dvi(z_p, sm, z_t, min(1.0, ik + min(delta, 1.0))) >= dvi - 1e-12

        assert classify_severity(0.25) is Severity.WATCH
        assert classify_severity(0.25 - 1e-12) is Severity.NONE
        assert classify_severity(0.5) is Severity.WARNING
        assert classify_severity(0.5 - 1e-12) is Severity.WATCH
        assert classify_severity(0.75) is Severity.SEVERE
        assert classify_severity(0.75 - 1e-12) is Severity.WARNING

        # with the IK weight ablated, bulletins ignore IK entirely
        from test_forecast import neutral_world, values, zero_signal
        history, period_obs = neutral_world()
        weights = DviWeights(0.5, 0.375, 0.125, 0.0)
        reference = make_bulletin(
            "r1", "2023-06", values(period_obs), build_climatology(history),
            zero_signal, [], NS, weights=weights,
        )
        for value, support in ((1.0, 9), (-1.0, 3), (0.5, 1)):
            perturbed = make_bulletin(
                "r1", "2023-06", values(period_obs), build_climatology(history),
                lambda region, window: IkSignal(value, support), [], NS,
                weights=weights,
            )
            assert perturbed == reference


# --------------------------------------------------------------------------
# 6-8. end-to-end scenario, determinism, dissemination
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def drought_world(tmp_path_factory):
    target = tmp_path_factory.mktemp("acceptance")
    manifest = scenario.generate_scenario(target)
    return target, manifest


def test_criterion_6_end_to_end_drought_scenario(drought_world):
    with criterion(6, "36-month engineered drought detected at Warning or worse"):
        started = time.monotonic()
        target, manifest = drought_world
        pipeline = Pipeline(load_config(scenario.config_path(target)))
        summary = pipeline.replay(scenario.dataset_path(target))
        assert summary.parsed == manifest["parsed"]
        assert summary.rejected == manifest["rejected"]
        assert summary.firings == manifest["firings"]

        for period in manifest["engineered_periods"]:
            bulletin = pipeline.bulletin("r1", period)
            assert bulletin.severity >= Severity.WARNING, (
                f"{period}: {bulletin.severity.label} dvi={bulletin.dvi:.3f}"
            )
        for period in manifest["baseline_periods"]:
            bulletin = pipeline.bulletin("r1", period)
            assert bulletin.severity <= Severity.WATCH, (
                f"{period}: {bulletin.severity.label} dvi={bulletin.dvi:.3f}"
            )

        from semdrought.forecast import period_bounds
        spans = [period_bounds(p) for p in manifest["engineered_periods"]]
        assert any(
            f.rule == "ik_drier" and any(s <= f.window_end < e for s, e in spans)
            for _, f in pipeline.firings
        ), "ik_drier never fired inside the engineered months"
        assert time.monotonic() - started < 10.0


def test_criterion_7_determinism_and_persistence(drought_world):
    with criterion(7, "replays deterministic; persisted store round-trips"):
        target, _ = drought_world
        exports = []
        firing_logs = []
        for _ in range(2):
            pipeline = Pipeline(load_config(scenario.config_path(target)))
            pipeline.replay(scenario.dataset_path(target))
            exports.append(pipeline.store.serialize())
            firing_logs.append([(r, f.rule, f.window_end, f.kind)
                                for r, f in pipeline.firings])
        assert firing_logs[0] == firing_logs[1]
        assert exports[0] == exports[1]
        reloaded = TripleStore.load(exports[0])
        assert set(reloaded) == set(TripleStore.load(exports[1]))
        assert reloaded.serialize() == exports[0]


def _get(url):
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode())


def _post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode())


def test_criterion_8_dissemination_contract(drought_world):
    with criterion(8, "HTTP dissemination reflects posted observations"):
        target, _ = drought_world
        pipeline = Pipeline(load_config(scenario.config_path(target)))
        pipeline.replay(scenario.dataset_path(target))
        with running_server(pipeline) as port:
            base = f"http://127.0.0.1:{port}"
            before = _get(f"{base}/forecast?region=r1&period=2022-12")[1]

            status, body = _post(f"{base}/observations", {
                "sensor_id": "s3", "property": "temp", "value": 45.0,
                "unit": "C", "timestamp": "2022-12-30T00:00:00Z",
            })
            assert status == 200 and body["accepted"]
            status, _ = _post(f"{base}/ik", {
                "indicator_id": "ants_nest_high",
                "timestamp": "2022-12-30T06:00:00Z",
                "region": "r1", "confidence": 1.0,
            })
            assert status == 200

            status, bulletin = _get(f"{base}/forecast?region=r1&period=2022-12")
            assert status == 200
            assert bulletin["ik"]["support"] >= before["ik"]["support"] + 1
            assert bulletin["z_temp"] > before["z_temp"]
            assert bulletin["evidence"], "evidence list must not be empty"
            assert any(e["rule"] == "heat_spike" for e in bulletin["evidence"])

            status, health = _get(f"{base}/health")
            assert status == 200
            assert health["status"] == "ok" and isinstance(health["events"], int)

            status, rules = _get(f"{base}/rules")
            assert status == 200
            assert isinstance(rules["rules"], list) and rules["rules"]
            from semdrought.cep import parse_ruleset
            parse_ruleset("\n".join(rules["rules"]), pipeline.ns)
