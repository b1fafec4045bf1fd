"""SHA-256 digests of everything the program writes or serves, for checking
that a change leaves its outputs byte-identical.

Replays the test scenario and both benchmark worlds (seed 7) through
``Pipeline.replay``, which persists the state, then restores it into a fresh
``Pipeline``. Prints one line per output: each of the four persisted files,
the ``export`` text, and the JSON of every bulletin of the restored state
(every region and every month with a reading, and each region's latest),
or the error it raises. A last line digests all the others. Run it on two
checkouts and compare:

    python3 tools/output_digests.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import run as perfbench_run  # noqa: E402
import scenario  # noqa: E402
import world as perfbench_world  # noqa: E402

from semdrought.errors import SemDroughtError  # noqa: E402
from semdrought.model import format_utc_instant  # noqa: E402
from semdrought.service.config import load_config  # noqa: E402
from semdrought.service.pipeline import (  # noqa: E402
    FACTS_FILE,
    FIRING_LOG_FILE,
    IK_LOG_FILE,
    OBSERVATION_LOG_FILE,
    Pipeline,
)

SEED = 7


def sha256(text: str | bytes) -> str:
    return hashlib.sha256(text.encode("utf-8") if isinstance(text, str) else text).hexdigest()


def bulletin_text(pipeline: Pipeline, region: str, period: str | None) -> str:
    try:
        return json.dumps(pipeline.bulletin(region, period).to_json_dict(), sort_keys=True)
    except SemDroughtError as exc:
        return f"{exc.code}: {exc}"


def digests(name: str, config_path: Path, dataset: Path) -> list[str]:
    """``name item digest`` lines of one replayed and restored world."""
    config = load_config(config_path)
    Pipeline(config).replay(dataset)
    state = config.persistence_dir
    lines = [f"{name} {file} {sha256((state / file).read_bytes())}"
             for file in (OBSERVATION_LOG_FILE, FACTS_FILE, IK_LOG_FILE, FIRING_LOG_FILE)]
    restored = Pipeline(config)
    restored.restore(state)
    lines.append(f"{name} export {sha256(restored.serialize())}")
    months = sorted({format_utc_instant(json.loads(row)[5])[:7]
                     for row in (state / OBSERVATION_LOG_FILE).read_text("utf-8").splitlines()})
    for region in sorted(config.regions):
        for period in months + [None]:
            text = bulletin_text(restored, region, period)
            lines.append(f"{name} bulletin {region} {period or 'latest'} {sha256(text)}")
    return lines


def main() -> int:
    lines = []
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        scenario.generate_scenario(work / "scenario")
        lines += digests("scenario", scenario.config_path(work / "scenario"),
                         scenario.dataset_path(work / "scenario"))
        for name, spec in sorted(perfbench_run.workloads().items()):
            generated = perfbench_world.generate(work / name, SEED, spec.shape,
                                                 cache_dir=work / "cache")
            lines += digests(name, generated.config, generated.history)
    for line in lines:
        print(line)
    print(f"all {sha256(''.join(line + chr(10) for line in lines))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
