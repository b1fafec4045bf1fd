"""Malformed input at the service's edges: HTTP request bodies and routes,
indigenous-knowledge reports dated before the epoch or out of order, and
damaged or repeatedly restored persisted state. Each gets a typed error and
a defined HTTP status or CLI exit code, never a dropped connection, a
traceback or a changed state."""

import http.client
import json
import re
import shutil
import socket

import pytest

import scenario
from semdrought.service import Pipeline, load_config
from semdrought.service.cli import main as cli_main

from live_server import running_server

PRE_EPOCH_IK = {"indicator_id": "ants_nest_high", "timestamp": "1969-12-01T00:00:00Z",
                "region": "r1", "confidence": 1.0}


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


def raw_post(port: int, path: str, body: bytes, length: bytes | None = None):
    """(status, JSON reply) of a POST sent over a raw socket, with ``length``
    as its Content-Length (the body's own length by default)."""
    if length is None:
        length = str(len(body)).encode()
    request = (b"POST %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: %s\r\n\r\n"
               % (path.encode(), length)) + body
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        response = http.client.HTTPResponse(sock)
        response.begin()
        return response.status, json.loads(response.read())


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
        status, reply = raw_post(port, route, body, length)
        assert status == 400
        assert reply["error"] == "BadRequest"
        assert pipeline.event_count == 0


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
        status, _ = raw_post(port, "/ik", json.dumps(
            {**report, "timestamp": "2020-06-01T00:00:00Z"}).encode())
        assert status == 200
        status, reply = raw_post(port, "/ik", json.dumps(
            {**report, "timestamp": "2020-05-01T00:00:00Z"}).encode())
        assert status == 409
        assert reply["error"] == "OutOfOrder"
        assert len(pipeline.ik.observations) == 1
        assert pipeline.event_count == 1


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
        status, reply = raw_post(port, "/ik", json.dumps(PRE_EPOCH_IK).encode())
        assert status == 400
        assert reply["error"] == "BadTimestamp"
        assert pipeline.ik.observations == ()


@pytest.fixture(scope="module")
def persisted(tmp_path_factory):
    """A scenario replayed through the CLI, with its state persisted."""
    target = tmp_path_factory.mktemp("persisted")
    scenario.generate_scenario(target)
    assert cli_main(["replay", "--config", str(scenario.config_path(target)),
                     "--input", str(scenario.dataset_path(target))]) == 0
    return target


class TestDamagedState:
    @pytest.mark.parametrize("file_name, damage, reported", [
        ("ik_log.jsonl", lambda data: data + b"{not json\n", "ik_log.jsonl"),
        ("firings.jsonl", lambda data: data + b'{"region": "r1"}\n', "firings.jsonl"),
        ("store.nt", lambda data: re.sub(rb'(#lat> )"[^"]*"', rb'\1"95"', data, count=1),
         "latitude out of range"),
        ("store.nt", lambda data: data + b"\xff", "store.nt is not UTF-8"),
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
        assert capsys.readouterr().err.count(reported) == 2


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
