"""The summary step of ``tools/bench_pairs.py``, on canned perfbench result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = {"replay_lines_per_s": "higher", "setup_s": "lower"}


def result_line(failed: int, **metrics) -> str:
    """perfbench's report lines and, last, its JSON result line."""
    return "\n".join([
        "replay: 5 runs", "checks: 9 attempted", json.dumps({
            "correct": failed == 0, "attempted": 9, "failed": failed,
            "metrics": {name: {"value": value, "unit": "u"} for name, value in metrics.items()},
        })])


def run(side, seed, lines_per_s, setup_s, workload="w1", failed=0):
    out = result_line(failed, replay_lines_per_s=lines_per_s, setup_s=setup_s)
    return {"side": side, "workload": workload, "seed": seed, **bench_pairs.parse_result(out)}


def test_parse_result_reads_the_last_line():
    record = bench_pairs.parse_result(result_line(1, setup_s=0.25))
    assert record == {"failed": 1, "correct": False, "metrics": {"setup_s": 0.25}}
    with pytest.raises(ValueError):
        bench_pairs.parse_result("perfbench: no program\n")
    with pytest.raises(ValueError):
        bench_pairs.parse_result("")


def test_summary_medians_quartiles_and_wins_in_each_metrics_direction():
    runs = [run("parent", 1, 100.0, 0.30), run("change", 1, 120.0, 0.20),
            run("change", 2, 90.0, 0.30), run("parent", 2, 110.0, 0.30),
            run("parent", 3, 105.0, 0.40), run("change", 3, 130.0, 0.10),
            run("parent", 4, 95.0, 0.35), run("change", 4, 125.0, 0.35),
            run("parent", 5, 80.0, 0.20, workload="w2")]     # unpaired, and the only w2 side
    summary = bench_pairs.summarize(runs, METRICS)
    assert set(summary) == {"w1", "w2"} and summary["w2"] == {}
    rate = summary["w1"]["replay_lines_per_s"]
    assert rate["parent"] == {"median": 102.5, "q1": 96.25, "q3": 108.75, "n": 4}
    assert rate["change"]["median"] == 122.5 and rate["change"]["n"] == 4
    assert rate["change_over_parent"] == pytest.approx(122.5 / 102.5)
    assert rate["pairs"] == {"change_wins": 3, "parent_wins": 1, "ties": 0}
    setup = summary["w1"]["setup_s"]      # lower is better
    assert setup["pairs"] == {"change_wins": 2, "parent_wins": 0, "ties": 2}


def test_each_workloads_first_side_alternates_from_seed_to_seed():
    order = bench_pairs.schedule([1, 2, 3], ["w1", "w2"])
    assert len(order) == 12 and len(set(order)) == 12
    for workload in ("w1", "w2"):
        runs = [(seed, side) for seed, w, side in order if w == workload]
        assert [runs[i][0] for i in range(0, 6, 2)] == [1, 2, 3]    # a pair runs back to back
        firsts = [runs[i][1] for i in range(0, 6, 2)]
        assert firsts in (["parent", "change", "parent"], ["change", "parent", "change"])


def test_a_single_run_is_its_own_median_and_quartiles():
    assert bench_pairs.quartiles([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0, "n": 1}


def pairs(parent_rates, change_rates):
    """One pair per seed, with these replay rates and equal set-up times."""
    return [run(side, seed, rate, 0.3) for seed, rates in enumerate(zip(parent_rates, change_rates))
            for side, rate in zip(("parent", "change"), rates)]


PARENT = [100.0, 104.0, 96.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0]


def test_a_gain_is_claimed_on_nine_of_ten_wins_beyond_the_parents_quartiles():
    summary = bench_pairs.summarize(pairs(PARENT, [120.0] * 9 + [90.0]), METRICS)
    rate = summary["w1"]["replay_lines_per_s"]
    assert rate["parent_quartile_distance"] == pytest.approx(4.5)    # 102.25 - 97.75
    assert rate["pairs"] == {"change_wins": 9, "parent_wins": 1, "ties": 0}
    assert rate["claim_holds"] is True


@pytest.mark.parametrize("change,why", [
    ([120.0] * 8 + [90.0, 90.0], "eight wins of ten"),
    ([120.0] * 8 + [90.0, 97.0], "a tie counts for neither side"),
    ([p + 3.0 for p in PARENT], "ten wins, but a gain within the parent's quartiles"),
    ([120.0] * 9, "nine wins of nine, under ten pairs"),
])
def test_no_gain_is_claimed(change, why):
    rate = bench_pairs.summarize(pairs(PARENT[:len(change)], change), METRICS)["w1"]
    assert rate["replay_lines_per_s"]["claim_holds"] is False, why


def test_the_claim_follows_a_lower_is_better_metric():
    runs = [run(side, seed, 100.0, setup) for seed in range(10)
            for side, setup in (("parent", 0.30 + seed / 1000), ("change", 0.20))]
    summary = bench_pairs.summarize(runs, METRICS)["w1"]
    setup, rate = summary["setup_s"], summary["replay_lines_per_s"]
    assert setup["parent_quartile_distance"] == pytest.approx(0.0055)
    assert setup["claim_holds"] is True
    assert rate["pairs"]["ties"] == 10 and rate["claim_holds"] is False
