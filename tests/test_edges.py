"""Malformed input at the service's edges: HTTP request bodies, routes and
requests the HTTP parser refuses, config files and the files they name,
forecast periods, indigenous-knowledge reports dated before the epoch or
out of order, damaged, outdated or repeatedly restored persisted state,
and a handler that fails unexpectedly.
Each gets a typed error and a defined HTTP status or CLI exit code, never a
dropped connection, a traceback or a changed state. One table pins the
exact status and reply of every error each HTTP route answers with."""

import http.client
import json
import re
import shutil
import socket
from pathlib import Path

import pytest

import scenario
from semdrought.errors import SemDroughtError
from semdrought.service import InvalidConfigError, Pipeline, cli, load_config
from semdrought.service.cli import main as cli_main
from semdrought.service.httpd import GET_STATUSES, MAX_BODY_BYTES

from live_server import running_server
from test_service import feed

INDICATOR = scenario.INDICATORS[0]
README = Path(__file__).resolve().parent.parent / "README.md"
PRE_EPOCH_IK = {"indicator_id": "ants_nest_high", "timestamp": "1969-12-01T00:00:00Z",
                "region": "r1", "confidence": 1.0}
LONG_INTEGER = "1" * 4301   # more digits than int() reads from text


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    target = tmp_path_factory.mktemp("edges")
    scenario.generate_scenario(target)
    return target


@pytest.fixture
def server(scenario_dir):
    """A server over a fresh pipeline that holds no observations."""
    pipeline = Pipeline(load_config(scenario.config_path(scenario_dir)))
    with running_server(pipeline) as port:
        yield port, pipeline


def raw_request(port: int, method: str, path: str, body: bytes | None = None,
                length: bytes | None = None):
    """(status, JSON reply) of a request sent over a raw socket; a request
    with a body gets ``length`` as its Content-Length (the body's own length
    by default). A reply holding NaN or Infinity, which are not JSON, raises."""
    request = b"%s %s HTTP/1.1\r\nHost: localhost\r\n" % (method.encode(), path.encode())
    if body is not None:
        request += b"Content-Length: %s\r\n" % (length or str(len(body)).encode())
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request + b"\r\n" + (body or b""))
        response = http.client.HTTPResponse(sock)
        response.begin()
        return response.status, json.loads(response.read(), parse_constant=reject_constant)


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


BAD_BODIES = {          # case -> (Content-Length, body)
    "non_numeric_length": (b"ten", b"{}"),
    "negative_length": (b"-1", b"{}"),
    "non_utf8_body": (None, b'{"region": "\xff"}'),
}


class TestHttpBodies:
    @pytest.mark.parametrize("route", ["/observations", "/ik"])
    @pytest.mark.parametrize("case", sorted(BAD_BODIES))
    def test_bad_body_gets_400(self, server, route, case):
        port, pipeline = server
        length, body = BAD_BODIES[case]
        status, reply = raw_request(port, "POST", route, body, length)
        assert status == 400
        assert reply["error"] == "BadRequest"
        assert pipeline.event_count == 0

    @pytest.mark.parametrize("length", [MAX_BODY_BYTES + 1, 1000000000000000,
                                        pytest.param(LONG_INTEGER, id="4301_digits")])
    def test_oversized_body_gets_413_unread(self, server, length):
        port, pipeline = server
        request = (b"POST /observations HTTP/1.1\r\nHost: localhost\r\n"
                   b"Content-Length: %s\r\n\r\n{}" % str(length).encode())
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(request)
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert response.status == 413
            assert json.loads(response.read())["error"] == "PayloadTooLarge"
            assert sock.recv(1) == b""                 # the server closed the connection
        assert pipeline.event_count == 0

    def test_chunked_body_gets_411_and_a_closed_connection(self, server):
        """A body framed by Transfer-Encoding is refused unread; the
        connection closes, so no chunk line is read as the next request."""
        port, pipeline = server
        body = reading()
        request = (b"POST /observations HTTP/1.1\r\nHost: localhost\r\n"
                   b"Transfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n"
                   b"GET /health HTTP/1.1\r\nHost: localhost\r\n\r\n" % (len(body), body))
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(request)
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert response.status == 411
            assert json.loads(response.read()) == error(
                "LengthRequired", "a request body needs a Content-Length, not Transfer-Encoding")
            assert sock.recv(1) == b""                 # the server closed the connection
        assert pipeline.event_count == 0


def ik_report(**fields) -> bytes:
    return json.dumps({"indicator_id": "sifennefene_worms_scarce", "region": "r1",
                       "timestamp": "2020-06-20T00:00:00Z", "confidence": 0.9,
                       **fields}).encode()


def reading(**fields) -> bytes:
    return json.dumps({"sensor_id": "s1", "property": "rain", "value": 2.5, "unit": "mm",
                       "timestamp": "2020-06-10T00:00:00Z", **fields}).encode()


def error(code: str, detail: str, **extra) -> dict:
    return {"error": code, "detail": detail, **extra}


def reply_until_close(port: int, request: bytes) -> bytes:
    """Every byte the server sends back to ``request`` before it closes the
    connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    return reply


class TestProtocolErrors:
    """Requests the stdlib's parser refuses get JSON too, and the connection
    closes."""

    @pytest.mark.parametrize("method, body", [
        ("DELETE", error("NotImplemented", "Unsupported method ('DELETE')")),
        ("HEAD", None),     # a reply to HEAD has no body
    ], ids=["DELETE", "HEAD"])
    def test_unsupported_method_gets_json_501(self, server, method, body):
        port, _ = server
        reply = reply_until_close(port, b"%s /forecast?region=r1 HTTP/1.1\r\n"
                                        b"Host: localhost\r\n\r\n" % method.encode())
        head, _, sent = reply.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        assert lines[0] == b"HTTP/1.1 501 Not Implemented"
        assert {b"Connection: close", b"Content-Type: application/json"} <= set(lines)
        assert (json.loads(sent) if sent else None) == body

    @pytest.mark.parametrize("line, detail", [
        (b"GARBAGE", "Bad request syntax ('GARBAGE')"),
        (b"GET /health HTTP/x", "Bad request version ('HTTP/x')"),
    ], ids=["no_version", "bad_version"])
    def test_bad_request_line_gets_json_400(self, server, line, detail):
        # a request line the stdlib cannot read a version from is answered
        # as HTTP/0.9: the body alone, with no status line or headers
        port, _ = server
        reply = reply_until_close(port, line + b"\r\n\r\n")
        assert json.loads(reply) == error("BadRequest", detail)


RULE_TEXTS = [
    "RULE dry_spell WHEN AVG(<http://example.org/semdrought#precipitation>) < 2 AND "
    "SLOPE(<http://example.org/semdrought#soilMoisture>) < 0 WITHIN 30d STEP 5d "
    "EMIT DrySpell SEVERITY 0.6",
    "RULE heat_spike WHEN <http://example.org/semdrought#airTemperature> > 40 WITHIN 1d "
    "EMIT HeatSpike SEVERITY 0.2",
    "RULE ik_drier WHEN COUNT(IkDrierObservation) >= 3 WITHIN 90d EMIT IkDrierSignal "
    "SEVERITY 0.4",
    "RULE ik_wetter WHEN COUNT(IkWetterObservation) >= 3 WITHIN 90d EMIT IkWetterSignal "
    "SEVERITY 0.4",
]
NOT_UTF8 = ("body is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 12: "
            "invalid start byte")
BAD_LENGTH = error("BadRequest", "Content-Length must be a non-negative integer")

# (method, path, body) -> (status, JSON reply) of every status each route
# answers with, but the 500 of TestUnexpectedHandlerError; a (Content-Length,
# bytes) body is sent with that header
HTTP_STATUS_TABLE = [
    (("GET", "/health", None), (200, {"status": "ok", "events": 4})),
    (("GET", "/rules", None), (200, {"rules": RULE_TEXTS})),
    (("GET", "/forecast", None), (400, error("BadRequest", "region is required"))),
    (("GET", "/forecast?period=2020-06", None),
     (400, error("BadRequest", "region is required"))),
    (("GET", "/forecast?region=r1&period=2022-13", None),
     (400, error("BadRequest", "not a YYYY-MM period: '2022-13'"))),
    (("GET", "/forecast?region=r1&period=garbage", None),
     (400, error("BadRequest", "not a YYYY-MM period: 'garbage'"))),
    (("GET", "/forecast?region=atlantis&period=2020-06", None),
     (404, error("UnknownRegion", "unknown region: atlantis"))),
    (("GET", "/forecast?region=r1&period=2030-01", None),
     (404, error("NoData", "no observations for r1 in 2030-01"))),
    (("GET", "/forecast?region=r1&period=2020-06", None),
     (503, error("InsufficientBaseline", "baseline unusable for precipitation in month 6"))),
    (("GET", "/forecast?region=r1", None),
     (503, error("InsufficientBaseline", "baseline unusable for precipitation in month 6"))),
    (("GET", "/nope", None), (404, error("NotFound", "no route /nope"))),
    (("POST", "/observations", reading()),
     (200, {"accepted": True, "id": "http://example.org/semdrought#obs/s1/1591747200",
            "firings": 0})),
    (("POST", "/observations", reading(property="frogcount")),
     (400, error("UnknownTerm", "no alignment entry for property 'frogcount'",
                 term="frogcount"))),
    (("POST", "/observations", reading(timestamp="2020-06-01T00:00:00Z")),
     (409, error("OutOfOrder", "timestamp 1590969600 regresses below 1591336800"))),
    (("POST", "/observations", reading(timestamp="2020-06-03T00:00:00Z")),
     (400, error("Duplicate", "observation already ingested: "
                 "http://example.org/semdrought#obs/s1/1591142400"))),
    (("POST", "/observations", reading(sensor_id="s9", lat=-29.0, lon=26.0)),
     (400, error("UnknownRegion",
                 "sensor http://example.org/semdrought#sensor/s9 belongs to no region"))),
    (("POST", "/observations", b"{not json"),
     (400, error("Malformed", "bad JSON: Expecting property name enclosed in double quotes "
                 "at position 1"))),
    (("POST", "/observations", (b"ten", b"{}")), (400, BAD_LENGTH)),
    (("POST", "/observations", (b"-1", b"{}")), (400, BAD_LENGTH)),
    (("POST", "/observations", b'{"region": "\xff"}'), (400, error("BadRequest", NOT_UTF8))),
    (("POST", "/observations", (b"%d" % (MAX_BODY_BYTES + 1), b"{}")),
     (413, error("PayloadTooLarge", "body exceeds 1048576 bytes"))),
    (("POST", "/ik", ik_report()), (200, {"accepted": True, "firings": 0})),
    (("POST", "/ik", ik_report(region="atlantis")),
     (400, error("UnknownRegion", "unknown region: atlantis"))),
    (("POST", "/ik", ik_report(indicator_id="frogs")),
     (400, error("UnknownIndicator", "unknown indicator: frogs"))),
    (("POST", "/ik", ik_report(timestamp="2020-06-01T00:00:00Z")),
     (409, error("OutOfOrder", "timestamp 1590969600 regresses below 1591336800"))),
    (("POST", "/ik", ik_report(timestamp="1969-12-01T00:00:00Z")),
     (400, error("BadTimestamp", "timestamp before epoch: '1969-12-01T00:00:00Z'"))),
    (("POST", "/ik", ik_report(confidence=10 ** 400)),
     (400, error("IngestError",
                 "bad indigenous-knowledge payload: int too large to convert to float"))),
    (("POST", "/ik", ik_report(timestamp="2020-01-20T00:00:00Z")),
     (400, error("OutOfSeason",
                 "indicator sifennefene_worms_scarce is out of season in month 1"))),
    (("POST", "/nope", b'{"region": "r1"}'), (404, error("NotFound", "no route /nope"))),
    (("GET", "/forecast?region=r1&period=2020-6", None),
     (400, error("BadRequest", "not a YYYY-MM period: '2020-6'"))),
]


@pytest.fixture(scope="module")
def unusable_baseline_config(tmp_path_factory):
    """The scenario's config with a baseline no month can fill."""
    target = tmp_path_factory.mktemp("unusable-baseline")
    scenario.generate_scenario(target)
    path = scenario.config_path(target)
    path.write_text(json.dumps({**json.loads(path.read_text()), "min_baseline_count": 1000}))
    return load_config(path)


class TestHttpStatusTable:
    @pytest.mark.parametrize("sent, expected", HTTP_STATUS_TABLE,
                             ids=[f"{m} {p} {i}" for i, ((m, p, _), _)
                                  in enumerate(HTTP_STATUS_TABLE)])
    def test_exact_reply(self, unusable_baseline_config, sent, expected):
        """Over a pipeline holding one reading per sensor on 2020-06-03 and an
        indicator report on 2020-06-05."""
        pipeline = Pipeline(unusable_baseline_config)
        for line in ("s1,rain,5,mm,2020-06-03T00:00:00Z,,",
                     "s2,soil_hum,20,%,2020-06-03T00:00:00Z,,",
                     "s3,temp,25,C,2020-06-03T00:00:00Z,,"):
            pipeline.ingest_payload("csv", line)
        pipeline.ingest_ik_json(ik_report(timestamp="2020-06-05T06:00:00Z").decode())
        method, path, body = sent
        length, body = body if isinstance(body, tuple) else (None, body)
        with running_server(pipeline) as port:
            assert raw_request(port, method, path, body, length) == expected

    def test_month_past_the_last_year_is_not_a_period(self, unusable_baseline_config):
        with running_server(Pipeline(unusable_baseline_config)) as port:
            assert raw_request(port, "GET", "/forecast?region=r1&period=9999-12") == (
                400, error("BadRequest", "not a YYYY-MM period: '9999-12'"))


# (config update, the field its configuration error names)
CONFIG_EDITS = [
    ({"http": {"port": "x"}}, "http.port"), ({"http": {"port": None}}, "http.port"),
    ({"http": {"port": 70000}}, "http.port"), ({"http": {"port": True}}, "http.port"),
    ({"http": {"host": 5}}, "http.host"), ({"http": {"host": ""}}, "http.host"),
    ({"persistence_dir": 5}, "persistence_dir"), ({"persistence_dir": ""}, "persistence_dir"),
    ({"base_iri": 5}, "base_iri"), ({"base_iri": "foo"}, "base_iri"),
    ({"base_iri": "http://x y/"}, "base_iri"),
    ({"base_iri": "http://example.org/a>b#"}, "base_iri"),
    ({"regions": {"r1": ["s1", "s2", "s3"], "r2": ["S1 "]}}, "regions"),
    ({"persistance_dir": "state"}, "persistance_dir"),
    ({"compile_ik_rules": False}, "compile_ik_rules"),
    ({"weights": {"soil": 0.3}}, "weights.soil"), ({"http": {"prot": 8080}}, "http.prot"),
    ({"weights": {"precipitation": float("nan")}}, "weights"),
    ({"weights": {"soil_moisture": "0.3"}}, "weights"),
    ({"weights": {"precipitation": 0.7, "soil_moisture": False}}, "weights"),
    ({"weights": {"ik": None}}, "weights"),
    ({"severity_thresholds": [False, 0.5, True]}, "severity_thresholds"),
    ({"severity_thresholds": ["0.25", 0.5, 0.75]}, "severity_thresholds"),
    ({"baseline": {"start": "2020-01-01T00:00:00Z", "end": "2021-01-01T00:00:00Z",
                   "strat": "2020-01-01T00:00:00Z"}}, "baseline.strat"),
]


def edited_config(scenario_dir, target, edit):
    """The path of a copy, under ``target``, of the scenario's config updated
    with ``edit``, beside copies of the files it names."""
    config = json.loads(scenario.config_path(scenario_dir).read_text())
    config.update(edit)
    path = target / "config.json"
    path.write_text(json.dumps(config))
    for name in ("alignment.json", "indicators.json", "detection.rules"):
        shutil.copy(scenario_dir / name, target / name)
    return path


class TestMalformedConfig:
    def replay_exit(self, scenario_dir, tmp_path, capsys, edit=None, sibling=None):
        """The exit code and stderr of a replay under a copy of the scenario's
        config updated with ``edit``; ``sibling``, a (file name, content) pair,
        replaces one of its files with bytes or with a JSON document."""
        path = edited_config(scenario_dir, tmp_path, edit or {})
        if sibling is not None:
            name, content = sibling
            if not isinstance(content, bytes):
                content = json.dumps(content).encode()
            (tmp_path / name).write_bytes(content)
        capsys.readouterr()
        code = cli_main(["replay", "--config", str(path),
                         "--input", str(scenario.dataset_path(scenario_dir))])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("edit, field", CONFIG_EDITS,
                             ids=[repr(edit) for edit, _ in CONFIG_EDITS])
    def test_exits_1(self, scenario_dir, tmp_path, capsys, edit, field):
        code, err = self.replay_exit(scenario_dir, tmp_path, capsys, edit)
        assert code == 1
        assert f"configuration error: config field {field}: " in err

    @pytest.mark.parametrize("edit, field", [
        ({"weights": {"ik": 10 ** 400}}, "weights"),
        ({"severity_thresholds": [0.25, 0.5, 10 ** 400]}, "severity_thresholds"),
    ], ids=["weight", "threshold"])
    def test_an_integer_past_the_float_range_exits_1(self, scenario_dir, tmp_path, capsys,
                                                     edit, field):
        self.test_exits_1(scenario_dir, tmp_path, capsys, edit, field)

    @pytest.mark.parametrize("field, file_name, content", [
        ("indicators", "indicators.json", [{**INDICATOR, "kind": "bogus"}]),
        ("indicators", "indicators.json", {"items": [INDICATOR]}),
        ("indicators", "indicators.json",
         [{key: value for key, value in INDICATOR.items() if key != "kind"}]),
        ("indicators", "indicators.json", [{**INDICATOR, "weight": 5}]),
        ("indicators", "indicators.json", [{**INDICATOR, "weight": True}]),
        ("indicators", "indicators.json", [{**INDICATOR, "weight": "0.8"}]),
        ("indicators", "indicators.json", [{**INDICATOR, "weight": 10 ** 400}]),
        ("indicators", "indicators.json", [{**INDICATOR, "id": 7}]),
        ("indicators", "indicators.json", [{**INDICATOR, "season": [True, 2.0]}]),
        ("alignment_table", "alignment.json",
         {**scenario.ALIGNMENT, "terms": {"rain": "ex:frogs"}}),
        ("alignment_table", "alignment.json",
         {**scenario.ALIGNMENT, "units": {"mm": {"scale": 1.0}}}),
        ("alignment_table", "alignment.json", {**scenario.ALIGNMENT, "units": {
            "mm": {"iri": "ex:millimetre", "scale": True}}}),
        ("alignment_table", "alignment.json", {**scenario.ALIGNMENT, "units": {
            "mm": {"iri": "ex:millimetre", "offset": "0"}}}),
        ("alignment_table", "alignment.json", [scenario.ALIGNMENT]),
        ("alignment_table", "alignment.json", {**scenario.ALIGNMENT, "sensors": {
            "s1": {"iri": "ex:sensor/s>1", "lat": -29.12, "lon": 26.21}}}),
        ("alignment_table", "alignment.json", b'{"terms": {"\xff": "ex:precipitation"}}'),
        ("rules", "detection.rules", b"\xff"),
    ], ids=["bogus_kind", "indicators_not_array", "missing_kind", "weight_out_of_range",
            "weight_boolean", "weight_string", "weight_overflows", "id_number",
            "season_not_months",
            "non_canonical_property", "unit_without_iri", "scale_boolean", "offset_string",
            "alignment_array", "sensor_iri_with_bracket", "alignment_not_utf8",
            "rules_not_utf8"])
    def test_damaged_sibling_exits_1(self, scenario_dir, tmp_path, capsys,
                                     field, file_name, content):
        code, err = self.replay_exit(scenario_dir, tmp_path, capsys,
                                     sibling=(file_name, content))
        assert code == 1
        assert f"configuration error: config field {field}: {file_name}: " in err

    def test_sensors_whose_observation_iris_collide_exit_1(self, scenario_dir, tmp_path, capsys):
        """A reading's IRI keeps only its sensor IRI's local name, so a second
        region's ``t1``, ``ex:station/s1``, would mint ``ex:sensor/s1``'s IRIs
        and have its readings refused as that sensor's duplicates."""
        sensors = {**scenario.ALIGNMENT["sensors"],
                   "t1": {"iri": "ex:station/s1", "lat": -29.0, "lon": 26.0}}
        code, err = self.replay_exit(
            scenario_dir, tmp_path, capsys, {"regions": {"r1": ["s1", "s2", "s3"], "r2": ["t1"]}},
            ("alignment.json", {**scenario.ALIGNMENT, "sensors": sensors}))
        assert code == 1
        assert ("configuration error: config field regions: sensors "
                "http://example.org/semdrought#sensor/s1 and http://example.org/semdrought#"
                "station/s1 mint the same observation IRIs, "
                "http://example.org/semdrought#obs/s1/<seconds>") in err
        with pytest.raises(InvalidConfigError):
            load_config(tmp_path / "config.json")

    def test_sensors_of_one_iri_or_distinct_names_are_accepted(self, scenario_dir, tmp_path):
        sensors = {**scenario.ALIGNMENT["sensors"],
                   "alias": {"iri": "ex:sensor/s1", "lat": -29.0, "lon": 26.0},
                   "t1": {"iri": "ex:station/t1", "lat": -29.0, "lon": 26.0}}
        path = edited_config(scenario_dir, tmp_path,
                             {"regions": {"r1": ["s1", "s2", "s3", "alias"], "r2": ["t1"]}})
        (tmp_path / "alignment.json").write_text(
            json.dumps({**scenario.ALIGNMENT, "sensors": sensors}))
        assert load_config(path).sensor_regions == {
            f"http://example.org/semdrought#{iri}": region for iri, region in
            [("sensor/s1", "r1"), ("sensor/s2", "r1"), ("sensor/s3", "r1"), ("station/t1", "r2")]}

    def test_an_integer_longer_than_int_reads_exits_1(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"ik_window_days": %s}' % LONG_INTEGER)
        code = cli_main(["replay", "--config", str(path), "--input", str(path)])
        assert code == 1
        assert "configuration error: config field (file): bad JSON: " in capsys.readouterr().err


class TestRegionWithoutReadings:
    def test_forecast_gets_404(self, scenario_dir, tmp_path):
        path = edited_config(scenario_dir, tmp_path,
                             {"regions": {"r1": ["s1", "s2", "s3"], "r2": ["s4"]}})
        pipeline = Pipeline(load_config(path))
        pipeline.ingest_payload("csv", "s1,rain,5,mm,2020-06-03T00:00:00Z,,")
        with running_server(pipeline) as port:
            assert raw_request(port, "GET", "/forecast?region=r2") == (
                404, error("NoData", "no observations for region r2"))


class TestBadBaseIriForRules:
    def test_validate_rules_exits_1(self, scenario_dir, capsys):
        code = cli_main(["validate-rules", "--file", str(scenario_dir / "detection.rules"),
                         "--base-iri", "nope"])
        assert code == 1
        assert "base IRI needs a scheme" in capsys.readouterr().err


class TestUnknownRoute:
    def test_post_404_keeps_connection_in_step(self, server):
        port, _ = server
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            connection.request("POST", "/nope", body=json.dumps({"region": "r1"}),
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 404
            assert json.loads(response.read())["error"] == "NotFound"
            connection.request("GET", "/health")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()


class TestOutOfOrderIkReport:
    def test_rejected_report_is_not_logged(self, server):
        port, pipeline = server
        report = {"indicator_id": "sifennefene_worms_scarce", "region": "r1",
                  "confidence": 0.9}
        status, _ = raw_request(port, "POST", "/ik", json.dumps(
            {**report, "timestamp": "2020-06-01T00:00:00Z"}).encode())
        assert status == 200
        status, reply = raw_request(port, "POST", "/ik", json.dumps(
            {**report, "timestamp": "2020-05-01T00:00:00Z"}).encode())
        assert status == 409
        assert reply["error"] == "OutOfOrder"
        assert len(pipeline.ik.observations) == 1
        assert pipeline.event_count == 1


class TestOversizedIkConfidence:
    def test_post_gets_400(self, server):
        port, pipeline = server
        body = ('{"indicator_id": "ants_nest_high", "timestamp": "2020-06-01T00:00:00Z", '
                '"region": "r1", "confidence": 1' + "0" * 400 + "}")
        status, reply = raw_request(port, "POST", "/ik", body.encode())
        assert status == 400
        assert reply["error"] == "IngestError"
        assert pipeline.ik.observations == ()


class TestNonNumericIkConfidence:
    @pytest.mark.parametrize("confidence", [True, "0.5", None])
    def test_post_gets_400(self, server, confidence):
        port, pipeline = server
        status, reply = raw_request(port, "POST", "/ik", json.dumps(
            {**PRE_EPOCH_IK, "timestamp": "2020-06-01T00:00:00Z",
             "confidence": confidence}).encode())
        assert status == 400
        assert reply["error"] == "IngestError"
        assert pipeline.ik.observations == ()


class TestUnexpectedHandlerError:
    @pytest.mark.parametrize("method, path, attribute", [
        ("GET", "/forecast?region=r1", "bulletin"),
        ("POST", "/observations", "ingest_payload"),
    ])
    def test_gets_json_500_and_keeps_connection(self, server, monkeypatch,
                                                method, path, attribute):
        port, pipeline = server

        def fail(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(pipeline, attribute, fail)
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            connection.request(method, path, body="{}" if method == "POST" else None)
            response = connection.getresponse()
            assert response.status == 500
            assert json.loads(response.read()) == {"error": "Internal",
                                                   "detail": "RuntimeError: boom"}
            connection.request("GET", "/health")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()


class TestPreEpochIkReport:
    def test_replay_rejects_it_unlogged(self, scenario_dir, tmp_path):
        pipeline = Pipeline(load_config(scenario.config_path(scenario_dir)))
        data = tmp_path / "ik.txt"
        data.write_text("ik|" + json.dumps(PRE_EPOCH_IK) + "\n")
        summary = pipeline.replay(data)
        assert summary.rejected == {"BadTimestamp": 1}
        assert pipeline.ik.observations == ()

    def test_post_gets_400(self, server):
        port, pipeline = server
        status, reply = raw_request(port, "POST", "/ik", json.dumps(PRE_EPOCH_IK).encode())
        assert status == 400
        assert reply["error"] == "BadTimestamp"
        assert pipeline.ik.observations == ()


class TestReplayLineBytes:
    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
    def test_a_line_that_is_not_utf8_is_malformed(self, scenario_dir, tmp_path, end):
        data = tmp_path / "lines.txt"
        data.write_bytes(end.join([b"csv|s1,rain,5,mm,2020-06-03T00:00:00Z,,",
                                   b"csv|s3,temp,25,\xff,2020-06-03T00:00:00Z,,",
                                   b"csv|s2,soil_hum,20,%,2020-06-03T00:00:00Z,,"]) + end)
        summary = Pipeline(load_config(scenario.config_path(scenario_dir))).replay(data)
        assert (summary.parsed, summary.rejected) == (2, {"Malformed": 1})


LONE_SURROGATE_READING = ('{"sensor_id": "s2\\ud800", "property": "soil_hum", "value": 20, '
                          '"unit": "%", "timestamp": "2020-06-03T00:00:00Z"}')


class TestLoneSurrogateEscape:
    """A JSON reading whose sensor id escapes to a lone surrogate, ASCII on the wire."""

    def test_post_gets_400_without_a_traceback(self, server, capfd):
        port, pipeline = server
        assert raw_request(port, "POST", "/observations", LONE_SURROGATE_READING.encode()) == (
            400, error("Malformed", "a field holds a lone surrogate, which UTF-8 cannot encode"))
        assert pipeline.event_count == 0
        assert capfd.readouterr().err == ""

    def test_replay_tallies_it_malformed(self, scenario_dir, tmp_path):
        data = tmp_path / "lines.txt"
        data.write_text("json|" + LONE_SURROGATE_READING + "\n", encoding="ascii")
        summary = Pipeline(load_config(scenario.config_path(scenario_dir))).replay(data)
        assert (summary.parsed, summary.rejected) == (0, {"Malformed": 1})


class TestJsonWithALongInteger:
    """A JSON payload holding an integer too long for int() is rejected like
    any bad JSON, never with a traceback."""

    READING = reading().decode().replace("2.5", LONG_INTEGER)
    REPORT = ik_report().decode().replace("0.9", LONG_INTEGER)

    def test_replay_tallies_it(self, scenario_dir, tmp_path):
        data = tmp_path / "lines.txt"
        data.write_text(f"json|{self.READING}\nik|{self.REPORT}\n", encoding="ascii")
        summary = Pipeline(load_config(scenario.config_path(scenario_dir))).replay(data)
        assert (summary.parsed, summary.rejected) == (0, {"Malformed": 1, "IngestError": 1})

    @pytest.mark.parametrize("route, body, code", [("/observations", READING, "Malformed"),
                                                   ("/ik", REPORT, "IngestError")],
                             ids=["reading", "report"])
    def test_post_gets_400(self, server, capfd, route, body, code):
        port, pipeline = server
        status, reply = raw_request(port, "POST", route, body.encode())
        assert (status, reply["error"]) == (400, code)
        assert "4301 digits" in reply["detail"]
        assert pipeline.event_count == 0
        assert capfd.readouterr().err == ""


# two readings of 1e308 in one window: the AVG of the scenario's dry_spell
# rule overflows math.fsum at every boundary whose window holds both
OVERFLOWING_RAIN = [f"csv|s1,rain,{'1e308' if day < 3 else 1},mm,2020-06-{day:02d}T00:00:00Z,,"
                    for day in range(1, 29)]


class TestOverflowingWindow:
    def test_later_readings_are_accepted(self, scenario_dir):
        pipeline = Pipeline(load_config(scenario.config_path(scenario_dir)))
        for line in OVERFLOWING_RAIN:
            pipeline.ingest_payload(*line.split("|"))
        assert pipeline.event_count == len(OVERFLOWING_RAIN)
        assert pipeline.flush_engines() == 0

    def test_replay_tallies_every_line(self, scenario_dir, tmp_path):
        data = tmp_path / "lines.txt"
        data.write_text("".join(line + "\n" for line in OVERFLOWING_RAIN), encoding="ascii")
        summary = Pipeline(load_config(scenario.config_path(scenario_dir))).replay(data)
        assert (summary.parsed, summary.rejected, summary.firings) == (len(OVERFLOWING_RAIN), {}, 0)


def readme_get_errors() -> set[tuple[str, int]]:
    """(code, status) of each error README's table lists for ``GET``."""
    rows = re.findall(r"^\| `GET` \| (\d+) \| (.*) \|$", README.read_text(), re.MULTILINE)
    return {(code, int(status)) for status, cell in rows
            for code in re.findall(r"`([A-Z]\w+)`", cell)}


class TestOverflowingBulletins:
    """Two accepted readings near the float range in the scenario: every r1
    bulletin holds only finite numbers, or its read raises a typed error of
    README's table that is not a 500."""

    PERIODS = [f"{year}-{month:02d}" for year in (2020, 2021, 2022) for month in range(1, 13)]
    CASES = {   # case -> (the day before the readings, their CSV fields, their values)
        "rain_in_the_baseline": ("2020-03-03T", "s1,rain,{},mm", ("1e308", "1e308")),
        "soil_in_the_read_month": ("2022-06-03T", "s2,soil_hum,{},%", ("1e308", "1e308")),
        "rain_in_the_read_month": ("2022-06-03T", "s1,rain,{},mm", ("1e308", "1e308")),
    }

    @pytest.fixture(scope="class", params=sorted(CASES))
    def pipeline(self, request, scenario_dir):
        day, fields, values = self.CASES[request.param]
        lines = scenario.dataset_path(scenario_dir).read_text().splitlines()
        at = max(i for i, line in enumerate(lines) if day in line) + 1
        pipeline = Pipeline(load_config(scenario.config_path(scenario_dir)))
        feed(pipeline, lines[:at])
        for hour, value in zip(("00", "06"), values):
            pipeline.ingest_payload(
                "csv", f"{fields.format(value)},{day.replace('03T', '04T')}{hour}:00:00Z,,")
        feed(pipeline, lines[at:])
        return pipeline

    def test_bulletin_reads(self, pipeline):
        for period in self.PERIODS + [None]:
            try:
                bulletin = pipeline.bulletin("r1", period).to_json_dict()
            except SemDroughtError as exc:
                status = next((s for cls, s in GET_STATUSES if isinstance(exc, cls)), 500)
                assert status != 500 and (exc.code, status) in readme_get_errors(), period
            else:
                json.dumps(bulletin, allow_nan=False)

    def test_forecast_replies(self, pipeline):
        with running_server(pipeline) as port:
            for period in self.PERIODS + [None]:
                status, reply = raw_request(   # whose reply must be JSON
                    port, "GET", "/forecast?region=r1" + (f"&period={period}" if period else ""))
                if status != 200:
                    assert (reply["error"], status) in readme_get_errors(), period


@pytest.fixture(scope="module")
def persisted(tmp_path_factory):
    """A scenario replayed through the CLI, with its state persisted."""
    target = tmp_path_factory.mktemp("persisted")
    scenario.generate_scenario(target)
    assert cli_main(["replay", "--config", str(scenario.config_path(target)),
                     "--input", str(scenario.dataset_path(target))]) == 0
    return target


def append_row(edit):
    """A damage that appends a copy of the file's first row, changed by
    ``edit``."""
    def damage(data: bytes) -> bytes:
        row = json.loads(data.splitlines()[0])
        edit(row)
        return data + json.dumps(row).encode() + b"\n"
    return damage


def one_second_earlier(row):
    """The reading of the same sensor one second before, its id minted from it."""
    row[5] -= 1
    row[0] = f"{row[0].rpartition('/')[0]}/{row[5]}"


class TestDamagedState:
    @pytest.mark.parametrize("file_name, damage, reported", [
        ("ik_log.jsonl", lambda data: data + b"{not json\n", "ik_log.jsonl"),
        ("firings.jsonl", lambda data: data + b'{"region": "r1"}\n', "firings.jsonl"),
        ("ik_log.jsonl", append_row(lambda row: row.__setitem__("region", "atlantis")),
         "unknown region: atlantis"),
        ("ik_log.jsonl", append_row(lambda row: row.__setitem__("confidence", True)),
         "confidence must be a number, not bool"),
        ("firings.jsonl", append_row(lambda row: row.__setitem__("region", "atlantis")),
         "unknown region: atlantis"),
        ("observations.jsonl", append_row(lambda row: row.__setitem__(6, 95)),
         "latitude out of range"),
        ("observations.jsonl", lambda data: data + b"\xff",
         "observations.jsonl: 'utf-8' codec can't decode"),
        ("observations.jsonl", lambda data: data + b"[1,\n",
         "observations.jsonl: Expecting value"),
        ("observations.jsonl", append_row(list.pop), "expected an array of 8 values"),
        ("observations.jsonl", append_row(lambda row: row.__setitem__(1, 5)),
         "sensor_id must be of type str"),
        ("observations.jsonl", append_row(lambda row: row.__setitem__(3, "1.5")),
         "value must be of type int or float"),
        ("observations.jsonl", append_row(lambda row: row.__setitem__(5, 10 ** 12)),
         "year 33658 is out of range"),
        # past what the platform's time functions take: OSError on Linux
        ("observations.jsonl", append_row(lambda row: row.__setitem__(5, 10 ** 18)),
         "observations.jsonl: "),
        ("observations.jsonl", append_row(lambda row: row.__setitem__(1, row[1] + "9")),
         "belongs to no region"),
        ("observations.jsonl", append_row(lambda row: None), "observation already ingested"),
        ("observations.jsonl", append_row(one_second_earlier),
         "is earlier than its region's previous reading"),
        # a reading's id is minted from its sensor and timestamp, here 2100-01-01
        ("observations.jsonl", append_row(lambda row: row.__setitem__(5, 4102444800)),
         "obs/s1/1578009600 is not http://example.org/semdrought#obs/s1/4102444800, minted "
         "from its sensor and timestamp"),
        ("facts.nt", lambda data: data + b"\xff", "facts.nt: 'utf-8' codec can't decode"),
        # the graph holds IRIs and double and dateTime literals, written verbatim
        ("facts.nt", lambda data: b"_:b <http://x.org/p> <http://x.org/o> .\n" + data,
         "facts.nt: line 1: not a triple line"),
        ("facts.nt", lambda data: b'<http://x.org/a> <http://x.org/p> '
         b'"hi"^^<http://www.w3.org/2001/XMLSchema#string> .\n' + data,
         "facts.nt: line 1: unsupported datatype"),
        ("facts.nt", lambda data: b'<http://x.org/a> <http://x.org/p> '
         b'"1\\"^^<http://www.w3.org/2001/XMLSchema#double> .\n' + data,
         "facts.nt: line 1: not a double literal"),
    ])
    def test_commands_exit_2(self, persisted, tmp_path, capsys, file_name, damage, reported):
        target = tmp_path / "copy"
        shutil.copytree(persisted, target)
        path = target / "state" / file_name
        data = path.read_bytes()
        damaged = damage(data)
        assert damaged != data
        path.write_bytes(damaged)
        capsys.readouterr()
        config = str(scenario.config_path(target))
        assert cli_main(["export", "--config", config, "--out", str(tmp_path / "out.nt")]) == 2
        assert cli_main(["forecast", "--config", config, "--region", "r1",
                         "--period", "2022-01"]) == 2
        err = capsys.readouterr().err
        assert err.count(reported) == 2
        if file_name.endswith(".jsonl"):                # a bad row names its line
            assert re.search(rf"line \d+: \S*{re.escape(file_name)}: ", err)


class TestBadForecastPeriod:
    @pytest.mark.parametrize("period", ["2022-13", "garbage", "9999-12", "2022-1"])
    def test_exits_1(self, persisted, capsys, period):
        capsys.readouterr()
        assert cli_main(["forecast", "--config", str(scenario.config_path(persisted)),
                         "--region", "r1", "--period", period]) == 1
        assert (f"usage error: argument --period: not a YYYY-MM period: '{period}'"
                in capsys.readouterr().err)


class TestOutdatedState:
    def test_store_nt_alone_exits_2(self, persisted, tmp_path, capsys, monkeypatch):
        """State persisted as one N-Triples store.nt, with no observation log."""
        target = tmp_path / "copy"
        shutil.copytree(persisted, target)
        config = str(scenario.config_path(target))
        state = target / "state"
        assert cli_main(["export", "--config", config, "--out", str(state / "store.nt")]) == 0
        for path in state.iterdir():
            if path.name != "store.nt":
                path.unlink()
        monkeypatch.setattr(cli, "serve", lambda pipeline: pytest.fail("served"))
        capsys.readouterr()
        assert cli_main(["serve", "--config", config]) == 2
        assert cli_main(["export", "--config", config, "--out", str(tmp_path / "out.nt")]) == 2
        assert cli_main(["forecast", "--config", config, "--region", "r1",
                         "--period", "2022-01"]) == 2
        assert capsys.readouterr().err.count("re-run replay") == 3


class StoppedServer:
    """Stands in for the server ``serve`` returns: stops at once."""
    server_address = ("127.0.0.1", 0)

    def serve_forever(self):
        raise KeyboardInterrupt

    def server_close(self):
        pass


class TestServeStartup:
    @pytest.mark.parametrize("state", ["absent", "empty", "persisted"])
    def test_restores_only_existing_state(self, persisted, tmp_path, monkeypatch, state):
        target = tmp_path / "copy"
        shutil.copytree(persisted, target)
        if state != "persisted":
            shutil.rmtree(target / "state")
        if state == "empty":
            (target / "state").mkdir()
        served = []
        monkeypatch.setattr(cli, "serve", lambda pipeline: served.append(pipeline)
                            or StoppedServer())
        assert cli_main(["serve", "--config", str(scenario.config_path(target))]) == 0
        expected = Pipeline(load_config(scenario.config_path(persisted)))
        if state == "persisted":
            expected.restore(persisted / "state")
        assert served[0].event_count == expected.event_count


class TestRepeatedRestore:
    def test_second_restore_changes_nothing(self, persisted):
        config = load_config(scenario.config_path(persisted))
        once, twice = Pipeline(config), Pipeline(config)
        once.restore(persisted / "state")
        twice.restore(persisted / "state")
        twice.restore(persisted / "state")
        assert twice.event_count == once.event_count
        assert twice.ik.observations == once.ik.observations != ()
        assert (twice.bulletin("r1", "2022-01").to_json_dict()
                == once.bulletin("r1", "2022-01").to_json_dict())
