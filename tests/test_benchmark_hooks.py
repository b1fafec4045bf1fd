"""The benchmark (``perfbench/``) drives the program from outside: its tracer
(``spans.py``) wraps program entry points by name, and its world generator
(``world.py``) writes the config the benchmark serves and the replay summary
the re-scan oracle expects. Its own self-tests run outside this suite, so
these tests are what notice when one of those names is renamed or removed,
when ``load_config`` stops accepting that config, or when a replay stops
agreeing with the oracle."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IMPORT_PATHS = [str(ROOT / name) for name in ("perfbench", "src", "tests")]


def run_with_benchmark_path(code: str, *args: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports from the benchmark, the
    program and the tests, with ``args`` as ``sys.argv[1:]``."""
    prelude = f"import sys; sys.path[:0] = {IMPORT_PATHS!r}; "
    return subprocess.run([sys.executable, "-c", prelude + code, *args],
                          capture_output=True, text=True, timeout=60)


def test_tracer_installs_over_the_program():
    result = run_with_benchmark_path("import spans; spans.install(spans.Recorder())")
    assert result.returncode == 0, result.stderr


def test_load_config_accepts_a_benchmark_world(tmp_path):
    code = ("import world; from semdrought.service import load_config; "
            "shape = world.Shape(regions=1, cadence_hours=24, years=1, tail_days=1, "
            "baseline_years=0); "
            "load_config(world.generate(sys.argv[1], seed=7, shape=shape).config)")
    result = run_with_benchmark_path(code, str(tmp_path))
    assert result.returncode == 0, result.stderr


def test_replay_of_a_dense_world_matches_the_oracle(tmp_path):
    """The check the benchmark applies to every replay, on a world whose rules
    chain emitted kinds through SEQ and ABSENT."""
    code = ("import json, world; from semdrought.service import Pipeline, load_config; "
            "shape = world.Shape(regions=1, cadence_hours=24, years=1, tail_days=240, "
            "baseline_years=0, rules=world.DENSE_RULES_TEXT); "
            "w = world.generate(sys.argv[1], seed=7, shape=shape); "
            "summary = Pipeline(load_config(w.config)).replay(w.history).to_json_dict(); "
            "expected = {k: w.manifest[k] for k in ('parsed', 'rejected', 'firings')}; "
            "print(json.dumps([summary, expected]))")
    result = run_with_benchmark_path(code, str(tmp_path))
    assert result.returncode == 0, result.stderr
    summary, expected = json.loads(result.stdout)
    assert summary == expected
    assert summary["firings"] > 0
