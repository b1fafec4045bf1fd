"""SHA-256 digests of everything the program writes or serves, for checking
that a change leaves its outputs byte-identical.

Replays the test scenario and both benchmark worlds (seed 7) through
``Pipeline.replay``, which persists the state, then restores it into a fresh
``Pipeline``. Prints one line per output: each of the four persisted files,
the ``export`` text, and the JSON of every bulletin of the restored state
(every region and every month with a reading, and each region's latest),
or the error it raises. A line ``all`` digests those lines.

Then come the live lines: every bulletin of the replayed ``Pipeline``, and,
for each benchmark world, every bulletin after the world's tail readings
have gone through ``ingest_payload`` of the replayed pipeline (``tail``)
and of the restored one (``restored+tail``), as ``serve`` takes them. Each
of these three states also digests its committed firings, each as its
region, rule, window end and kind (a committed firing keeps no evidence).
A last line ``all-live`` digests the live lines. Run it on
two checkouts and compare, or check it against a file of its output:

    python3 tools/output_digests.py [--check tools/output_digests.txt]

With ``--check``, it exits 1 and prints each line that differs. Either
way, it exits 1 if a world's ``export`` text does not ``TripleStore.load``
back to the exported triples and to the same text, naming the world.
"""

import argparse
import difflib
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
from semdrought.store import ParseError, TripleStore  # noqa: E402

SEED = 7


def sha256(text: str | bytes) -> str:
    return hashlib.sha256(text.encode("utf-8") if isinstance(text, str) else text).hexdigest()


def bulletin_text(pipeline: Pipeline, region: str, period: str | None) -> str:
    try:
        return json.dumps(pipeline.bulletin(region, period).to_json_dict(), sort_keys=True)
    except SemDroughtError as exc:
        return f"{exc.code}: {exc}"


def firings_text(pipeline: Pipeline) -> str:
    """The committed firings, in order."""
    return "".join(f"{region} {f.rule} {f.window_end} {f.kind}\n"
                   for region, f in pipeline.firings)


def bulletin_lines(name: str, pipeline: Pipeline, months: list[str]) -> list[str]:
    return [f"{name} bulletin {region} {period or 'latest'} "
            f"{sha256(bulletin_text(pipeline, region, period))}"
            for region in sorted(pipeline.config.regions) for period in months + [None]]


def state_lines(label: str, pipeline: Pipeline, months: list[str]) -> list[str]:
    return ([f"{label} firings {sha256(firings_text(pipeline))}"]
            + bulletin_lines(label, pipeline, months))


def digests(name: str, config_path: Path, dataset: Path,
            tail: list[str]) -> tuple[list[str], list[str], bool]:
    """``name item digest`` lines of one replayed and restored world, the
    live lines (the replayed state, then both states after ``tail``), and
    whether its export loads back to the exported triples, byte for byte."""
    config = load_config(config_path)
    live = Pipeline(config)
    live.replay(dataset)
    state = config.persistence_dir
    lines = [f"{name} {file} {sha256((state / file).read_bytes())}"
             for file in (OBSERVATION_LOG_FILE, FACTS_FILE, IK_LOG_FILE, FIRING_LOG_FILE)]
    restored = Pipeline(config)
    restored.restore(state)
    export = restored.serialize()
    try:
        loaded = TripleStore.load(export)
        loads_back = set(loaded) == set(restored.store) and loaded.serialize() == export
    except ParseError:
        loads_back = False
    lines.append(f"{name} export {sha256(export)}")
    months = sorted({format_utc_instant(json.loads(row)[5])[:7]
                     for row in (state / OBSERVATION_LOG_FILE).read_text("utf-8").splitlines()})
    lines += bulletin_lines(name, restored, months)
    live_lines = state_lines(f"{name} live", live, months)
    if tail:
        for label, pipeline in ((f"{name} tail", live), (f"{name} restored+tail", restored)):
            for document in tail:
                try:
                    pipeline.ingest_payload("json", document)
                except SemDroughtError:
                    pass
            live_lines += state_lines(label, pipeline, months)
    return lines, live_lines, loads_back


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", type=Path, help="a file of this tool's output to compare with")
    args = parser.parse_args()
    lines, live_lines, unloadable = [], [], []
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        scenario.generate_scenario(work / "scenario")
        worlds = [("scenario", scenario.config_path(work / "scenario"),
                   scenario.dataset_path(work / "scenario"), [])]
        for name, spec in sorted(perfbench_run.workloads().items()):
            generated = perfbench_world.generate(work / name, SEED, spec.shape,
                                                 cache_dir=work / "cache")
            worlds.append((name, generated.config, generated.history, generated.tail))
        for world in worlds:
            stored, live, loads_back = digests(*world)
            lines += stored
            live_lines += live
            if not loads_back:
                unloadable.append(world[0])
    for name in unloadable:
        print(f"{name}: the export does not load back to its triples", file=sys.stderr)
    output = lines + [f"all {sha256(''.join(line + chr(10) for line in lines))}"]
    output += live_lines + [f"all-live {sha256(''.join(line + chr(10) for line in live_lines))}"]
    if args.check is None:
        print("\n".join(output))
        return 1 if unloadable else 0
    expected = args.check.read_text(encoding="utf-8").splitlines()
    differing = [line for line in difflib.unified_diff(expected, output, str(args.check),
                                                       "this checkout", lineterm="")]
    print("\n".join(differing) if differing else f"{len(output)} lines match {args.check}")
    return 1 if differing or unloadable else 0


if __name__ == "__main__":
    sys.exit(main())
