"""Malformed input at the service's edges: HTTP request bodies and routes,
config files, indigenous-knowledge reports dated before the epoch or out of
order, and damaged, outdated or repeatedly restored persisted state. Each
gets a typed error and a defined HTTP status or CLI exit code, never a
dropped connection, a traceback or a changed state."""

import http.client
import json
import re
import shutil
import socket

import pytest

import scenario
from semdrought.service import Pipeline, cli, load_config
from semdrought.service.cli import main as cli_main
from semdrought.service.httpd import MAX_BODY_BYTES

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

    @pytest.mark.parametrize("length", [MAX_BODY_BYTES + 1, 1000000000000000])
    def test_oversized_body_gets_413_unread(self, server, length):
        port, pipeline = server
        request = (b"POST /observations HTTP/1.1\r\nHost: localhost\r\n"
                   b"Content-Length: %d\r\n\r\n{}" % length)
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(request)
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert response.status == 413
            assert json.loads(response.read())["error"] == "PayloadTooLarge"
            assert sock.recv(1) == b""                 # the server closed the connection
        assert pipeline.event_count == 0


class TestMalformedConfig:
    @pytest.mark.parametrize("edit", [
        {"http": {"port": "x"}}, {"http": {"port": None}}, {"http": {"port": 70000}},
        {"http": {"port": True}}, {"http": {"host": 5}}, {"http": {"host": ""}},
        {"persistence_dir": 5}, {"persistence_dir": ""}, {"base_iri": 5},
    ], ids=repr)
    def test_exits_1(self, scenario_dir, tmp_path, capsys, edit):
        config = json.loads(scenario.config_path(scenario_dir).read_text())
        config.update(edit)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        for name in ("alignment.json", "indicators.json", "detection.rules"):
            shutil.copy(scenario_dir / name, tmp_path / name)
        capsys.readouterr()
        assert cli_main(["replay", "--config", str(path),
                         "--input", str(scenario.dataset_path(scenario_dir))]) == 1
        assert "configuration error" in capsys.readouterr().err


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


def append_row(edit):
    """A damage that appends a copy of the first observation row, changed by
    ``edit``."""
    def damage(data: bytes) -> bytes:
        row = json.loads(data.splitlines()[0])
        edit(row)
        return data + json.dumps(row).encode() + b"\n"
    return damage


class TestDamagedState:
    @pytest.mark.parametrize("file_name, damage, reported", [
        ("ik_log.jsonl", lambda data: data + b"{not json\n", "ik_log.jsonl"),
        ("firings.jsonl", lambda data: data + b'{"region": "r1"}\n', "firings.jsonl"),
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
        ("observations.jsonl", append_row(lambda row: row.__setitem__(1, row[1] + "9")),
         "belongs to no region"),
        ("observations.jsonl", append_row(lambda row: None), "observation already ingested"),
        ("facts.nt", lambda data: data + b"\xff", "facts.nt: 'utf-8' codec can't decode"),
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
