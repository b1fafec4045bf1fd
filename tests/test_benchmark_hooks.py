"""The benchmark's tracer (``perfbench/spans.py``) wraps program entry points
by name. Its own self-tests run outside this suite, so this test is what
notices when one of those names is renamed or removed."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_over_the_program():
    code = ("import sys; sys.path[:0] = sys.argv[1:]; "
            "import spans; spans.install(spans.Recorder())")
    result = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
