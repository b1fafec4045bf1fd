"""The benchmark (``perfbench/``) drives the program from outside: its tracer
(``spans.py``) wraps program entry points by name, and its world generator
(``world.py``) writes the config the benchmark serves. Its own self-tests run
outside this suite, so these tests are what notice when one of those names
is renamed or removed, or when ``load_config`` stops accepting that config."""

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
