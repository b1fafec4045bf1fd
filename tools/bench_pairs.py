"""Alternating perfbench runs of a parent revision and of the working tree,
written as a ``BENCH_*.json`` file.

Each side runs in a temporary directory of its own, removed at the end: the
parent revision's committed files, exported with ``git archive``, and a copy
of the working tree's files that git tracks or would track. So both sides
start with no perfbench cache, as in a fresh checkout. For each seed and
each workload ``BENCHMARK.json`` names, both sides run

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0

one after the other, ``S`` being its ``run_seconds``; for each workload, the
side that runs first alternates from seed to seed. The file holds every run,
and per workload and end-to-end metric (as ``BENCHMARK.json`` names them)
each side's median and quartiles, the change's wins, losses and ties over
the pairs, and whether those allow a gain to be claimed (see ``summarize``).
Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD~1 --seeds 61 62 63 --out BENCH_x.json \\
        --what "what the change does"

An existing ``--out`` file keeps its other sets; ``--set`` names this one.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
CLAIM_PAIRS = 10    # the fewest pairs a claimed gain rests on


def run_command(workload: str, seed: int, seconds: float) -> list[str]:
    return ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]


def parse_result(stdout: str) -> dict:
    """A run's record from its output: the last line is perfbench's JSON result."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if "metrics" not in result:
        raise ValueError("no perfbench result line")
    return {"failed": result["failed"], "correct": result["correct"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``checkout``; a run that prints no result is
    recorded with its exit code and the end of its error output."""
    done = subprocess.run([sys.executable, *run_command(workload, seed, seconds)],
                          cwd=checkout, capture_output=True, text=True)
    try:
        return parse_result(done.stdout)
    except ValueError:
        return {"failed": None, "correct": False, "metrics": {},
                "error": f"exit {done.returncode}: {done.stderr[-2000:]}"}


def quartiles(values: list[float]) -> dict:
    """The median and the quartiles of ``statistics.quantiles(n=4)``."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], metrics: dict[str, str]) -> dict:
    """Per workload and metric (``metrics`` maps a name to "higher" or
    "lower", the better direction): each side's median and quartiles, the
    change's wins, losses and ties over pairs of one seed, the distance
    between the parent's quartiles, and whether a gain may be claimed: over
    at least ``CLAIM_PAIRS`` pairs the change wins nine tenths of them,
    ties counting for neither side, and its median is better than the
    parent's by more than that distance."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        of = {(r["side"], r["seed"]): r["metrics"] for r in runs if r["workload"] == workload}
        seeds = [seed for side, seed in of if side == "parent" and ("change", seed) in of]
        rows = summary[workload] = {}
        for name, better in metrics.items():
            values = {side: [m[name] for (s, _), m in of.items() if s == side and name in m]
                      for side in SIDES}
            if not all(values.values()):
                continue
            row = rows[name] = {side: quartiles(values[side]) for side in SIDES}
            row["change_over_parent"] = row["change"]["median"] / row["parent"]["median"]
            sign = 1 if better == "higher" else -1
            margins = [sign * (of["change", s][name] - of["parent", s][name]) for s in seeds
                       if name in of["change", s] and name in of["parent", s]]
            row["pairs"] = {"change_wins": sum(d > 0 for d in margins),
                            "parent_wins": sum(d < 0 for d in margins),
                            "ties": sum(d == 0 for d in margins)}
            row["parent_quartile_distance"] = row["parent"]["q3"] - row["parent"]["q1"]
            row["claim_holds"] = (
                len(margins) >= CLAIM_PAIRS
                and 10 * row["pairs"]["change_wins"] >= 9 * len(margins)
                and sign * (row["change"]["median"] - row["parent"]["median"])
                > row["parent_quartile_distance"])
    return summary


def schedule(seeds: list[int], workloads: list[str]) -> list[tuple[int, str, str]]:
    """(seed, workload, side) in run order: both sides of a pair run one after
    the other, and for each workload the side that runs first alternates
    from seed to seed."""
    return [(seed, workload, side) for number, seed in enumerate(seeds)
            for offset, workload in enumerate(workloads)
            for side in (SIDES if (number + offset) % 2 == 0 else SIDES[::-1])]


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def export_revision(revision: str, target: Path) -> str:
    """The full SHA of ``revision``, whose committed files are written under ``target``."""
    sha = git("rev-parse", "--verify", f"{revision}^{{commit}}").decode().strip()
    archive = git("archive", "--format=tar", sha)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target)
    return sha


def copy_working_tree(target: Path) -> None:
    """The working tree's files, tracked or not ignored, copied under ``target``."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0"):
        source = ROOT / os.fsdecode(name)
        if name and source.is_file():
            (target / os.fsdecode(name)).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target / os.fsdecode(name))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--what", required=True, help="what the change does, for the file")
    parser.add_argument("--set", default="final", dest="set_name")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    metrics = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    checkouts = {side: scratch / side for side in SIDES}
    runs = []
    try:
        parent_sha = export_revision(args.parent, checkouts["parent"])
        copy_working_tree(checkouts["change"])
        change = (f"the working tree at {git('rev-parse', 'HEAD').decode().strip()}"
                  + (", with uncommitted changes" if git("status", "--porcelain") else ""))
        for seed, workload, side in schedule(args.seeds, workloads):
            record = run_once(checkouts[side], workload, seed, seconds)
            runs.append({"side": side, "workload": workload, "seed": seed, **record})
            print(f"{side:6s} {workload} seed {seed}: failed {record['failed']} "
                  f"{json.dumps(record['metrics'])}", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    document = (json.loads(args.out.read_text(encoding="utf-8")) if args.out.is_file()
                else {"sets": {}})
    document.update({
        "what": args.what,
        "command": "python3 " + " ".join(run_command("W", "N", seconds)),
        "host": f"{os.cpu_count()}-CPU {platform.system()}, Python {platform.python_version()}",
        "parent_sha": parent_sha,
        "change": change,
    })
    document["sets"][args.set_name] = {
        "seeds": args.seeds,
        "failed_checks": {side: sum(r["failed"] for r in runs
                                    if r["side"] == side and r["failed"] is not None)
                          for side in SIDES},
        "runs_without_result": {side: sum(r["failed"] is None for r in runs if r["side"] == side)
                                for side in SIDES},
        "summary": summarize(runs, metrics),
        "runs": runs,
    }
    args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
