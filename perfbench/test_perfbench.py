"""Self-tests of the benchmark: tiny-size smoke runs of every workload, a
deterministic generator, and failure reporting.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._require_program()

import spans  # noqa: E402
import world  # noqa: E402


def _tiny(spec: run.Workload) -> run.Workload:
    """The workload's rules and cadence over about two months of history."""
    shape = dataclasses.replace(spec.shape, regions=min(spec.shape.regions, 2), years=1,
                                tail_days=300, baseline_years=0)
    return dataclasses.replace(spec, shape=shape)


@pytest.fixture
def tiny_workloads(monkeypatch, tmp_path):
    full = run.workloads()
    monkeypatch.setattr(run, "workloads", lambda: {k: _tiny(v) for k, v in full.items()})
    monkeypatch.setattr(run, "WORK", tmp_path / "cache-root")


@pytest.mark.parametrize("name", ["replay_daily", "replay_dense_rules"])
def test_smoke_timed_run(tiny_workloads, tmp_path, name):
    metrics, lines, checks = run.run(name, seed=3, seconds=2.0, traced=False,
                                     work=tmp_path / "work")
    assert checks.failed == 0, checks.reasons
    assert checks.attempted > 10
    assert set(metrics) == {
        "setup_s", "replay_lines_per_s", "peak_rss_mb", "ingest_rps", "post_p50_ms"}
    assert all(value > 0 for value, _ in metrics.values()), metrics
    printed = {line.split()[0] for line in lines if line.endswith("(not gated)")}
    assert printed == {"post_p90_ms", "forecast_idle_p50_ms", "forecast_idle_p90_ms",
                       "forecast_busy_p50_ms", "forecast_busy_p90_ms"}


def test_smoke_traced_run(tiny_workloads, tmp_path):
    metrics, lines, checks = run.run("replay_dense_rules", seed=3, seconds=2.0, traced=True,
                                     work=tmp_path / "work")
    assert checks.failed == 0, checks.reasons
    assert set(spans.LAYER_METRICS) <= set(metrics)
    for name in ("ingest.parse_s", "store.insert_s", "store.saturate_s", "store.load_s",
                 "cep.push_event_s", "forecast.climatology_s", "pipeline.restore_s",
                 "httpd.post_handler_s", "httpd.get_handler_s"):
        assert metrics[name][0] > 0, name
    assert metrics["ingest.rejected"][0] == 1
    assert metrics["store.insert_new"][0] <= metrics["store.insert_calls"][0]


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def test_generator_is_deterministic_per_seed(tmp_path):
    shape = _tiny(run.workloads()["replay_daily"]).shape
    first = world.generate(tmp_path / "a", 5, shape)
    again = world.generate(tmp_path / "b", 5, shape)
    other = world.generate(tmp_path / "c", 6, shape)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert first.tail == again.tail and first.periods == again.periods
    assert _files(tmp_path / "a")["history.txt"] != _files(tmp_path / "c")["history.txt"]
    assert other.manifest["rejected"] == {"UnknownTerm": 1}


def test_corrupted_replay_summary_is_a_failure(tmp_path):
    generated = world.generate(tmp_path / "w", 5, _tiny(run.workloads()["replay_daily"]).shape)
    result = run.run_replay(generated)
    checks = run.Checks()
    assert run.check_replay(checks, result["summary"], generated.manifest)
    for corrupt in ({"parsed": result["summary"]["parsed"] - 1},
                    {"rejected": {}},
                    {"firings": result["summary"]["firings"] + 1}):
        assert not run.check_replay(checks, {**result["summary"], **corrupt},
                                    generated.manifest)
    assert (checks.attempted, checks.failed) == (4, 3)
    assert not run.check_forecast(checks, 200, b'{"severity": "Unknown"}')
    assert not run.check_post(checks, 409, json.dumps({"error": "OutOfOrder"}).encode())[0]


def test_server_stops_when_started_with_sigint_ignored(tmp_path):
    generated = world.generate(tmp_path / "w", 5, _tiny(run.workloads()["replay_daily"]).shape)
    run.run_replay(generated)
    previous = signal.signal(signal.SIGINT, signal.SIG_IGN)   # inherited by the child
    try:
        server = run.Server(generated.config, tmp_path, "ignored")
    finally:
        signal.signal(signal.SIGINT, previous)
    report = server.stop()
    assert server.process.returncode == 0
    assert report["exit"] == 0 and report["peak_rss_mb"] > 0


def test_self_time_subtracts_direct_children():
    recorded = [  # id, parent, name, start, end, request, failed, value
        (1, 0, "store.saturate", 0.0, 10.0, 0, False, 3),
        (2, 1, "store.query_bgp", 1.0, 4.0, 0, False, None),
        (3, 1, "store.insert", 5.0, 6.0, 0, False, 1),
        (4, 1, "store.insert", 6.0, 6.5, 0, False, 0),
    ]
    report = spans.layer_report([recorded])
    assert report["store.saturate_s"][0] == pytest.approx(5.5)
    assert report["store.query_bgp_s"][0] == pytest.approx(3.0)
    assert report["store.insert_calls"][0] == 2
    assert report["store.insert_new"][0] == 1


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "replay_daily",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
