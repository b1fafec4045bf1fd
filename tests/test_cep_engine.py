"""Engine tests: window semantics, firing determinism and the re-scan oracle.

The oracle enumerates every rule's boundary grid over the full event list
and re-evaluates each window from scratch with its own tiny evaluator, so
the incremental engine is checked against a structurally different path.
``ReScanEngine`` is the engine's settle loop over every event handed in so
far, evaluating each window with the uncompiled ``_evaluate``; it checks
full firings, evidence included, with flushes interleaved.
"""

import copy
import math
import random
import statistics
from fractions import Fraction

import pytest

from semdrought.cep import (
    Absent,
    And,
    CepRule,
    Compare,
    DegenerateSlopeError,
    EmptyWindowError,
    Engine,
    Event,
    Not,
    Or,
    OutOfOrderError,
    Seq,
    WindowSpec,
    parse_rule,
    slope,
    window_aggregate,
)
from semdrought.cep.engine import EngineState
from semdrought.cep.rules import COMPARATORS
from semdrought.model import Namespaces

NS = Namespaces()
TEMP = NS.expand("ex:airTemperature")

DAY = 86400


def ev(kind: str, ts: int, value: float | None = None) -> Event:
    return Event(kind=kind, timestamp=ts, value=value)


def rule(text: str) -> CepRule:
    return parse_rule(text, NS)


# --- independent window evaluator for the oracle ----------------------------

class _Undefined(Exception):
    pass


def oracle_eval(node, window: list[Event]) -> bool:
    of_kind = lambda k: [e for e in window if e.kind == k]
    valued = lambda k: [e for e in of_kind(k) if e.value is not None]
    compare = {"<": float.__lt__, "<=": float.__le__, ">": float.__gt__,
               ">=": float.__ge__, "==": float.__eq__, "!=": float.__ne__}
    if isinstance(node, Compare) and node.fn is None:
        return any(compare[node.cmp](float(e.value), node.constant)
                   for e in valued(node.kind))
    if isinstance(node, Compare) and node.fn != "SLOPE":
        if node.fn == "COUNT":
            result = float(len(of_kind(node.kind)))
        else:
            values = [e.value for e in valued(node.kind)]
            if node.fn == "SUM":
                result = 0.0
                for v in values:
                    result += v
            elif not values:
                raise _Undefined
            elif node.fn == "AVG":
                total = 0.0
                for v in values:
                    total += v
                result = total / len(values)
            else:
                result = (min if node.fn == "MIN" else max)(values)
        return compare[node.cmp](result, node.constant)
    if isinstance(node, Compare) and node.fn == "SLOPE":
        pts = [(e.timestamp / 86400.0, e.value) for e in valued(node.kind)]
        if len(pts) < 2 or len({t for t, _ in pts}) < 2:
            return False
        beta = statistics.linear_regression(
            [t for t, _ in pts], [v for _, v in pts]
        ).slope
        return compare[node.cmp](beta, node.constant)
    if isinstance(node, Seq):
        firsts = sorted(of_kind(node.first), key=lambda e: e.timestamp)
        seconds = sorted(of_kind(node.second), key=lambda e: e.timestamp)
        return any(b.timestamp > a.timestamp for a in firsts for b in seconds)
    if isinstance(node, Absent):
        return len(of_kind(node.kind)) == 0
    if isinstance(node, Not):
        return not oracle_eval(node.child, window)
    if isinstance(node, And):
        results = [oracle_eval(c, window) for c in node.children]
        return all(results)
    if isinstance(node, Or):
        results = [oracle_eval(c, window) for c in node.children]
        return any(results)
    raise TypeError(node)


def oracle_firings(rules: list[CepRule], events: list[Event]) -> list[tuple]:
    """(rule, window end) pairs from full re-scan, cascades included.

    Every window whose span reaches back before the final event counts,
    mirroring an engine run that ends with a drain."""
    if not events:
        return []
    t0, t_max = events[0].timestamp, events[-1].timestamp
    grids = {}
    for r in rules:
        stride = r.window.stride
        boundary = -(-t0 // stride) * stride
        grid = set()
        while boundary - r.window.length < t_max:
            grid.add(boundary)
            boundary += stride
        grids[r.name] = grid
    all_events = list(events)
    firings = []
    for boundary in sorted(set().union(*grids.values())):
        emitted = []
        for r in sorted(rules, key=lambda r: r.name):
            if boundary not in grids[r.name]:
                continue
            window = [e for e in all_events
                      if boundary - r.window.length < e.timestamp <= boundary]
            try:
                truth = oracle_eval(r.pattern, window)
            except _Undefined:
                truth = False
            if truth:
                firings.append((r.name, boundary))
                emitted.append(Event(kind=r.emit, timestamp=boundary))
        all_events.extend(emitted)
    return firings


# --- targeted semantics -----------------------------------------------------

class TestThresholdWindow:
    def test_single_event_over_threshold_fires(self):
        engine = Engine([rule(f"RULE hot WHEN <{TEMP}> > 30 WITHIN 1d EMIT Hot")])
        firings = engine.run([ev(TEMP, 0, 31.0)])
        assert len(firings) == 1
        assert firings[0].rule == "hot"
        assert firings[0].kind == "Hot"

    def test_boundary_value_does_not_fire(self):
        engine = Engine([rule(f"RULE hot WHEN <{TEMP}> > 30 WITHIN 1d EMIT Hot")])
        assert engine.run([ev(TEMP, 0, 30.0)]) == []

    def test_event_at_window_end_included(self):
        engine = Engine([rule("RULE r WHEN k > 0 WITHIN 1d EMIT E")])
        assert len(engine.run([ev("k", DAY, 1.0)])) == 1

    def test_event_at_window_start_excluded(self):
        # window (0, 1d] does not contain the event at t=0 once a later
        # event anchors the grid at 1d
        engine = Engine([rule("RULE r WHEN k > 0 WITHIN 1d EMIT E")])
        firings = engine.run([ev("k", 0, 1.0), ev("x", 2 * DAY, 0.0)])
        assert [f.window_end for f in firings] == [0]

    def test_evidence_lists_matching_events(self):
        engine = Engine([rule("RULE r WHEN k > 0 WITHIN 1d EMIT E")])
        stream = [ev("k", 10, 5.0), ev("k", 20, -1.0)]
        firings = engine.run(stream)
        assert firings[0].evidence == (stream[0],)


class TestOutOfOrder:
    def test_regression_rejected_and_state_unchanged(self):
        engine = Engine([rule("RULE r WHEN k > 0 WITHIN 1d EMIT E")])
        engine.push_event(ev("k", 100, 1.0))
        with pytest.raises(OutOfOrderError):
            engine.push_event(ev("k", 99, 1.0))
        assert len(engine.run([ev("k", 100, 1.0)])) == 1  # equal ts still accepted

    def test_equal_timestamps_accepted(self):
        engine = Engine([rule("RULE r WHEN COUNT(k) >= 2 WITHIN 1d EMIT E")])
        assert len(engine.run([ev("k", 5, 1.0), ev("k", 5, 2.0)])) == 1

    def test_resumed_engine_rejects_earlier_events_and_anchors_on_the_next(self):
        rules = [rule("RULE r WHEN COUNT(k) >= 1 WITHIN 2d STEP 1d EMIT E")]
        resumed = Engine(rules, EngineState(last=5 * DAY))
        with pytest.raises(OutOfOrderError):
            resumed.push_event(ev("k", 5 * DAY - 1, 1.0))
        assert resumed.flush() == []
        later = [ev("k", 5 * DAY, 1.0), ev("k", 6 * DAY + 7, 1.0), ev("x", 9 * DAY, 0.0)]
        assert resumed.run(later) == Engine(rules).run(later)


class TestAggregates:
    def test_avg(self):
        assert window_aggregate([1.0, 2.0, 3.0], "AVG") == 2.0

    def test_count_empty(self):
        assert window_aggregate([], "COUNT") == 0.0

    def test_sum_empty(self):
        assert window_aggregate([], "SUM") == 0.0

    def test_avg_empty_raises(self):
        with pytest.raises(EmptyWindowError):
            window_aggregate([], "AVG")

    def test_sum_matches_naive_loop(self):
        rng = random.Random(7)
        points = [(i, rng.uniform(-10, 10)) for i in range(100)]
        total = 0.0
        for _, v in points:
            total += v
        assert window_aggregate([v for _, v in points], "SUM") == pytest.approx(total, abs=1e-9)

    def test_empty_aggregate_makes_rule_false(self):
        engine = Engine([rule("RULE r WHEN AVG(k) < 100 WITHIN 1d EMIT E")])
        assert engine.run([ev("other", 10, 1.0)]) == []

    def test_empty_aggregate_defeats_not_too(self):
        # an undefined aggregate fails the whole rule, even under NOT
        engine = Engine([rule("RULE r WHEN NOT AVG(k) < 100 WITHIN 1d EMIT E")])
        assert engine.run([ev("other", 10, 1.0)]) == []

    @pytest.mark.parametrize("text", [
        "RULE r WHEN x > 1 OR AVG(k) > 0 WITHIN 1d EMIT E",
        "RULE r WHEN AVG(k) > 0 OR x > 1 WITHIN 1d EMIT E",
        "RULE r WHEN (x > 9 AND AVG(k) > 0) OR x > 1 WITHIN 1d EMIT E",
    ])
    def test_empty_aggregate_defeats_a_true_or(self, text):
        # x > 1 holds, but the undefined AVG anywhere in the rule fails it
        assert Engine([rule(text)]).run([ev("x", 10, 5.0)]) == []

    @pytest.mark.parametrize("pattern, fires", [
        ("COUNT(k) == 3", True), ("SUM(k) == 4", True), ("AVG(k) == 2", True),
        ("MIN(k) == 1", True), ("MAX(k) == 3", True), ("SLOPE(k) > 0", True),
        ("COUNT(k) == 2", False), ("AVG(k) < 2", False),
    ])
    def test_valueless_events_count_but_carry_no_value(self, pattern, fires):
        stream = [ev("k", 10, 1.0), ev("k", 20), ev("k", 30, 3.0)]
        firings = Engine([rule(f"RULE r WHEN {pattern} WITHIN 1d EMIT E")]).run(stream)
        assert [f.evidence for f in firings] == ([tuple(stream)] if fires else [])

    def test_sums_past_the_float_range_are_infinite_and_means_exact(self):
        big = [1e308, 1e308, 1.0, -3e307]
        assert window_aggregate(big[:2], "SUM") == math.inf
        assert window_aggregate([-v for v in big[:2]], "SUM") == -math.inf
        assert window_aggregate([1e308, 1e308, -1e308], "SUM") == 1e308   # fsum overflows
        assert window_aggregate(big, "SUM") == float(sum(map(Fraction, big)))   # 1.7e308
        assert window_aggregate(big, "AVG") == float(sum(map(Fraction, big)) / len(big))
        assert window_aggregate(big[:2], "AVG") == 1e308
        engine = Engine([rule("RULE r WHEN SUM(k) > 1 AND AVG(k) > 1 WITHIN 1d EMIT E")])
        assert len(engine.run([ev("k", 10, 1e308), ev("k", 20, 1e308), ev("k", DAY + 5, 1.0)])) == 1

    def test_aggregate_of_valueless_events_only_is_undefined(self):
        engine = Engine([rule("RULE r WHEN NOT AVG(k) > 0 WITHIN 1d EMIT E")])
        assert engine.run([ev("k", 10), ev("k", 20)]) == []


class TestSlope:
    def test_exact_line(self):
        points = [(0, 0.0), (DAY, 1.0), (2 * DAY, 2.0)]
        assert slope(*zip(*points)) == pytest.approx(1.0, abs=1e-12)

    def test_constant_series(self):
        assert slope([0, DAY, 2 * DAY], [5.0, 5.0, 5.0]) == pytest.approx(0.0)

    def test_degenerate_cases(self):
        with pytest.raises(DegenerateSlopeError):
            slope([0], [1.0])
        with pytest.raises(DegenerateSlopeError):
            slope([10, 10], [1.0, 2.0])

    def test_random_points_match_closed_form(self):
        rng = random.Random(13)
        for _ in range(50):
            pts = [(rng.randrange(0, 1000) * 3600, rng.uniform(-50, 50))
                   for _ in range(rng.randint(2, 50))]
            if len({t for t, _ in pts}) < 2:
                continue
            n = len(pts)
            days = [t / 86400.0 for t, _ in pts]
            vs = [v for _, v in pts]
            beta = (n * sum(t * v for t, v in zip(days, vs)) - sum(days) * sum(vs)) / (
                n * sum(t * t for t in days) - sum(days) ** 2
            )
            assert slope(*zip(*pts)) == pytest.approx(beta, abs=1e-9)

    def test_slopes_near_the_float_range(self):
        assert slope([0, 2 * DAY], [-1e308, 1e308]) == 1e308
        assert slope([0, DAY], [-1e308, 1e308]) == math.inf
        assert slope([0, 1, 2], [1e308, 0.0, -1e308]) == -math.inf
        assert slope([0, DAY, 2 * DAY], [1e308, 1e308, 1e308]) == 0.0
        assert slope([0, DAY], [5e-324, 0.0]) == -5e-324

    def test_slope_is_the_exact_least_squares_slope_rounded_once(self):
        rng = random.Random(1074)
        for _ in range(200):
            times = [rng.randrange(0, 10**9) for _ in range(rng.randint(2, 30))]
            values = [rng.choice([rng.uniform(-1e3, 1e3), rng.uniform(-1e300, 1e300), 1e-300])
                      for _ in times]
            if len(set(times)) < 2:
                continue
            days = [Fraction(t, DAY) for t in times]
            exact = list(map(Fraction, values))
            t_mean, v_mean = sum(days) / len(days), sum(exact) / len(exact)
            expected = (sum((t - t_mean) * (v - v_mean) for t, v in zip(days, exact))
                        / sum((t - t_mean) ** 2 for t in days))
            assert slope(times, values) == float(expected)

    def test_a_reading_held_before_emitted_events_counts_in_later_slopes(self):
        """A flush emits E up to 10 h past the last event and the SLOPE rule
        reads them; readings of E pushed later land before those emitted events."""
        rules = [rule("RULE a WHEN COUNT(k) >= 1 WITHIN 10h STEP 1h EMIT E"),
                 rule("RULE s WHEN SLOPE(E) > 0 WITHIN 5h STEP 1h EMIT S")]
        engine, reference = Engine(rules), ReScanEngine(rules)
        engine.push_event(ev("k", 10, 1.0))
        reference.push_event(ev("k", 10, 1.0))
        assert full_firings(engine.flush()) == reference.flush()
        got, expected = [], []
        for event in [ev("E", 5000, 1.0), ev("E", 6000, 2.0), ev("k", 30000, 1.0)]:
            got += full_firings(engine.push_event(event))
            expected += reference.push_event(event)
        assert got == expected
        assert ("s", 21600) in [(name, end) for name, end, _ in got]

    def test_degenerate_trend_is_false_but_not_flips_it(self):
        false_engine = Engine([rule("RULE r WHEN SLOPE(k) < 99 WITHIN 1d EMIT E")])
        assert false_engine.run([ev("k", 10, 1.0)]) == []
        not_engine = Engine([rule("RULE r WHEN NOT SLOPE(k) < 99 WITHIN 1d EMIT E")])
        assert len(not_engine.run([ev("k", 10, 1.0)])) == 1


class TestSeqAndAbsent:
    def test_seq_orders_strictly(self):
        engine = Engine([rule("RULE r WHEN SEQ(A -> B) WITHIN 1d EMIT E")])
        assert len(engine.run([ev("A", 10), ev("B", 20)])) == 1

    def test_seq_same_instant_is_not_a_sequence(self):
        engine = Engine([rule("RULE r WHEN SEQ(A -> B) WITHIN 1d EMIT E")])
        assert engine.run([ev("A", 10), ev("B", 10)]) == []

    def test_seq_wrong_order(self):
        engine = Engine([rule("RULE r WHEN SEQ(A -> B) WITHIN 1d EMIT E")])
        assert engine.run([ev("B", 10), ev("A", 20)]) == []

    def test_seq_pairs_non_overlapping_evidence(self):
        engine = Engine([rule("RULE r WHEN SEQ(A -> B) WITHIN 1d EMIT E")])
        stream = [ev("A", 1), ev("A", 2), ev("B", 3), ev("B", 4)]
        firings = engine.run(stream)
        assert len(firings) == 1
        # greedy earliest-first: (A@1, B@3) then (A@2 has no later unused B... B@4)
        assert [(e.kind, e.timestamp) for e in firings[0].evidence] == [
            ("A", 1), ("B", 3), ("A", 2), ("B", 4)]

    def test_a_window_of_single_pair_runs_pairs_as_the_reference(self):
        """8,000 firsts among seconds twice as dense, each paired with the
        second just after it: quadratic for a pairing that looks past that
        second over the rest of the window once per first."""
        firsts = [ev("A", 4 * k + 1) for k in range(8000)]
        seconds = [ev("B", 2 * k + 2) for k in range(16000)]
        stream = sorted(firsts + seconds, key=lambda e: e.timestamp)
        firings = Engine([rule("RULE r WHEN SEQ(A -> B) WITHIN 1d EMIT E")]).run(stream)
        pairs = _sequence_pairs(firsts, seconds)
        assert len(pairs) == 8000
        assert [f.evidence for f in firings] == [tuple(e for pair in pairs for e in pair)]

    def test_absent_equals_count_zero(self):
        absent = Engine([rule("RULE r WHEN ABSENT(A) WITHIN 1d EMIT E")])
        count = Engine([rule("RULE r WHEN COUNT(A) == 0 WITHIN 1d EMIT E")])
        for stream in ([ev("B", 10)], [ev("A", 10)], [ev("B", 5), ev("A", 6)]):
            got_a = [(f.rule, f.window_end) for f in absent.run(list(stream))]
            got_c = [(f.rule, f.window_end) for f in count.run(list(stream))]
            assert got_a == got_c
            absent = Engine([rule("RULE r WHEN ABSENT(A) WITHIN 1d EMIT E")])
            count = Engine([rule("RULE r WHEN COUNT(A) == 0 WITHIN 1d EMIT E")])

    def test_seq_of_one_kind_lists_each_event_once(self):
        engine = Engine([rule("RULE r WHEN SEQ(A -> A) WITHIN 1d EMIT E")])
        stream = [ev("A", 1), ev("A", 2), ev("A", 3)]
        # the pairs are (A@1, A@2) and (A@2, A@3)
        assert [f.evidence for f in engine.run(stream)] == [tuple(stream)]

    def test_and_reading_one_kind_twice_lists_each_event_once_in_first_order(self):
        engine = Engine([rule("RULE r WHEN k > 1 AND COUNT(k) >= 2 WITHIN 1d EMIT E")])
        first, low, last = ev("k", 1, 2.0), ev("k", 2, 0.5), ev("k", 3, 3.0)
        assert [f.evidence for f in engine.run([first, low, last])] == [(first, last, low)]


class TestCascade:
    def test_emitted_events_visible_to_later_boundaries_only(self):
        rules = [
            rule("RULE base WHEN k > 0 WITHIN 1h EMIT Derived"),
            rule("RULE chained WHEN COUNT(Derived) >= 1 WITHIN 1d EMIT Alarm"),
        ]
        engine = Engine(rules)
        stream = [ev("k", 1800, 1.0), ev("k", 5400, 1.0), ev("x", 3 * DAY, 0.0)]
        firings = engine.run(stream)
        by_rule = {}
        for f in firings:
            by_rule.setdefault(f.rule, []).append(f.window_end)
        assert by_rule["base"] == [3600, 7200]
        # Derived@3600 and @7200 land inside the day-1 window (0, 86400]
        assert by_rule["chained"] == [DAY]

    def test_pushed_event_at_an_emitted_events_instant_comes_after_it(self):
        rules = [
            rule("RULE a WHEN k > 0 WITHIN 1h EMIT A"),
            rule("RULE c WHEN COUNT(A) >= 2 WITHIN 2h STEP 30m EMIT C"),
        ]
        engine = Engine(rules)
        engine.push_event(ev("k", 1800, 1.0))
        assert [(f.rule, f.window_end) for f in engine.flush()] == [("a", 3600)]
        # the window of c at 9000, (1800, 9000], is still open and holds A@3600
        # twice: emitted by the flush, then pushed
        assert engine.push_event(ev("A", 3600, 2.0)) == []
        firings = engine.flush()
        assert [(f.rule, f.window_end) for f in firings] == [("c", 9000)]
        assert firings[0].evidence == (("A", 3600, None), ("A", 3600, 2.0))

    def test_no_same_boundary_cascade(self):
        rules = [
            rule("RULE base WHEN k > 0 WITHIN 1d EMIT Derived"),
            rule("RULE chained WHEN COUNT(Derived) >= 1 WITHIN 1d EMIT Alarm"),
        ]
        engine = Engine(rules)
        # both rules share the boundary at 1d; chained must not see Derived@1d
        firings = engine.run([ev("k", DAY, 1.0)])
        assert [(f.rule, f.window_end) for f in firings] == [("base", DAY)]


class TestDeterminism:
    def test_same_stream_same_firing_list(self):
        rules = [
            rule("RULE a WHEN AVG(k) > 0.5 WITHIN 2h STEP 1h EMIT E1"),
            rule("RULE b WHEN SEQ(k -> j) WITHIN 4h EMIT E2"),
        ]
        rng = random.Random(5)
        stream = []
        ts = 0
        for _ in range(200):
            ts += rng.randint(0, 900)
            stream.append(ev(rng.choice(["k", "j"]), ts, rng.random()))
        runs = []
        for _ in range(2):
            engine = Engine([rule(rt) for rt in (
                "RULE a WHEN AVG(k) > 0.5 WITHIN 2h STEP 1h EMIT E1",
                "RULE b WHEN SEQ(k -> j) WITHIN 4h EMIT E2",
            )])
            runs.append([(f.rule, f.window_end) for f in engine.run(list(stream))])
        assert runs[0] == runs[1]

    def test_firing_order_is_window_end_then_name(self):
        rules = [
            rule("RULE zz WHEN k > 0 WITHIN 1h EMIT E1"),
            rule("RULE aa WHEN k > 0 WITHIN 1h EMIT E2"),
        ]
        engine = Engine(rules)
        firings = engine.run([ev("k", 1800, 1.0), ev("k", 5400, 1.0)])
        assert [(f.window_end, f.rule) for f in firings] == [
            (3600, "aa"), (3600, "zz"), (7200, "aa"), (7200, "zz")]


def random_rules(rng: random.Random, count: int) -> list[CepRule]:
    kinds = ["k0", "k1", "k2", "k3"]
    strides = [600, 900, 1800, 3600, 7200]
    rules = []
    for i in range(count):
        stride = rng.choice(strides)
        length = stride * rng.randint(1, 4)
        window = WindowSpec(length, stride)

        def leaf():
            kind = rng.choice(kinds + [f"E{j}" for j in range(i)])
            cmp = rng.choice(["<", "<=", ">", ">=", "==", "!="])
            choice = rng.random()
            if choice < 0.3:
                return Compare(None, kind, cmp, round(rng.uniform(-1, 1), 3))
            if choice < 0.6:
                fn = rng.choice(["AVG", "MIN", "MAX", "SUM", "COUNT"])
                bound = rng.randint(0, 5) if fn == "COUNT" else round(rng.uniform(-2, 2), 3)
                return Compare(fn, kind, cmp, float(bound))
            if choice < 0.75:
                return Compare("SLOPE", kind, cmp, round(rng.uniform(-5, 5), 3))
            if choice < 0.9:
                return Seq(kind, kind if rng.random() < 0.3 else rng.choice(kinds))
            return Absent(kind)

        def unary():
            node = leaf()
            if isinstance(node, Compare) and rng.random() < 0.25:
                return Not(node)
            return node

        roll = rng.random()
        if roll < 0.5:
            pattern = unary()
        elif roll < 0.8:
            pattern = And(tuple(unary() for _ in range(2)))
        else:
            pattern = Or(tuple(unary() for _ in range(2)))
        rules.append(CepRule(name=f"r{i:02d}", window=window, pattern=pattern,
                             emit=f"E{i}", severity_weight=0.5))
    return rules


def random_stream(rng: random.Random, size: int) -> list[Event]:
    stream = []
    ts = rng.randint(0, 3600)
    for _ in range(size):
        ts += rng.randint(0, 400)
        stream.append(ev(rng.choice(["k0", "k1", "k2", "k3"]), ts,
                         round(rng.uniform(-2, 2), 4)))
    return stream


class TestOracleEquivalence:
    def test_random_streams_match_re_scan_oracle(self):
        rng = random.Random(20240811)
        for trial in range(10):
            rules = random_rules(rng, rng.randint(1, 10))
            stream = random_stream(rng, rng.randint(10, 400))
            engine = Engine(rules)
            got = [(f.rule, f.window_end) for f in engine.run(list(stream))]
            expected = oracle_firings(rules, stream)
            assert got == expected, f"trial {trial} diverged"


def _sequence_pairs(first: list[Event], second: list[Event]) -> list[tuple[Event, Event]]:
    """Earliest-first, non-overlapping A-then-B pairs (strictly later B)."""
    pairs = []
    j = 0
    for a in first:
        while j < len(second) and second[j].timestamp <= a.timestamp:
            j += 1
        if j == len(second):
            break
        pairs.append((a, second[j]))
        j += 1
    return pairs


def _evaluate(node, by_kind: dict[str, list[Event]]) -> tuple[bool, list[Event]]:
    """Truth value plus contributing events of a pattern over a window held
    as lists of events by kind; EmptyWindowError escapes to the rule level
    and makes the whole rule false for this window."""
    if isinstance(node, Compare) and node.fn is None:
        compare = COMPARATORS[node.cmp]
        hits = [e for e in by_kind.get(node.kind, ())
                if e.value is not None and compare(e.value, node.constant)]
        return bool(hits), hits
    if isinstance(node, Compare) and node.fn != "SLOPE":
        events = by_kind.get(node.kind, [])
        if node.fn == "COUNT":
            result = float(len(events))
        else:
            result = window_aggregate([e.value for e in events if e.value is not None], node.fn)
        return COMPARATORS[node.cmp](result, node.constant), list(events)
    if isinstance(node, Compare) and node.fn == "SLOPE":
        points = [(e.timestamp, e.value) for e in by_kind.get(node.kind, ())
                  if e.value is not None]
        try:
            value = slope([t for t, _ in points], [v for _, v in points])
        except DegenerateSlopeError:
            return False, []
        return COMPARATORS[node.cmp](value, node.constant), list(by_kind.get(node.kind, ()))
    if isinstance(node, Seq):
        pairs = _sequence_pairs(by_kind.get(node.first, []), by_kind.get(node.second, []))
        return bool(pairs), [e for pair in pairs for e in pair]
    if isinstance(node, Absent):
        return not by_kind.get(node.kind), []
    if isinstance(node, Not):
        truth, _ = _evaluate(node.child, by_kind)
        return not truth, []
    if isinstance(node, And):
        evidence: list[Event] = []
        verdict = True
        for child in node.children:
            truth, contribution = _evaluate(child, by_kind)
            verdict = verdict and truth
            evidence.extend(contribution)
        return verdict, evidence if verdict else []
    if isinstance(node, Or):
        evidence = []
        verdict = False
        for child in node.children:
            truth, contribution = _evaluate(child, by_kind)
            if truth:
                verdict = True
                evidence.extend(contribution)
        return verdict, evidence
    raise TypeError(f"not a pattern node: {node!r}")


class ReScanEngine:
    """The engine's settle loop with no window index: every window is
    re-scanned from all events handed in so far, pushed and emitted, and
    sorted stably by time."""

    def __init__(self, rules: list[CepRule]):
        self.rules = sorted(rules, key=lambda r: r.name)
        self.events: list[Event] = []
        self.cursors: dict[str, int] = {}
        self.last = None

    def push_event(self, event: Event) -> list[tuple]:
        if not self.cursors:
            for r in self.rules:
                stride = r.window.stride
                self.cursors[r.name] = -(-event.timestamp // stride) * stride
        firings = self._settle(lambda r, cursor: cursor < event.timestamp)
        self.events.append(event)
        self.last = event.timestamp
        return firings

    def flush(self) -> list[tuple]:
        if not self.cursors:
            return []
        return self._settle(lambda r, cursor: cursor - r.window.length < self.last)

    def _settle(self, due) -> list[tuple]:
        firings = []
        while True:
            pending = [r for r in self.rules if due(r, self.cursors[r.name])]
            if not pending:
                return firings
            boundary = min(self.cursors[r.name] for r in pending)
            emitted = []
            for r in pending:
                if self.cursors[r.name] != boundary:
                    continue
                self.cursors[r.name] = boundary + r.window.stride
                window = sorted(
                    (e for e in self.events
                     if boundary - r.window.length < e.timestamp <= boundary),
                    key=lambda e: e.timestamp)
                by_kind = {}
                for e in window:
                    by_kind.setdefault(e.kind, []).append(e)
                try:
                    truth, evidence = _evaluate(r.pattern, by_kind)
                except EmptyWindowError:
                    continue
                if not truth:
                    continue
                unique = []
                for e in evidence:
                    if not any(e is u for u in unique):
                        unique.append(e)
                firings.append((r.name, boundary,
                                tuple((e.kind, e.timestamp, e.value) for e in unique)))
                emitted.append(Event(kind=r.emit, timestamp=boundary))
            self.events.extend(emitted)


def full_firings(firings) -> list[tuple]:
    return [(f.rule, f.window_end, tuple((e.kind, e.timestamp, e.value) for e in f.evidence))
            for f in firings]


class TestFlushInterleaving:
    def test_random_streams_with_random_flushes_match_re_scan(self):
        # a flush emits events at boundaries past the last event, so later
        # arrivals land behind them: the only way the stream goes out of
        # order. Some pushed events take emitted kinds, so that happens
        # within a kind too.
        rng = random.Random(20261018)
        for trial in range(12):
            rules = random_rules(rng, rng.randint(1, 10))
            stream = [ev(rng.choice(rules).emit, e.timestamp, e.value)
                      if rng.random() < 0.2 else e
                      for e in random_stream(rng, rng.randint(10, 300))]
            flush_rate = rng.choice([0.02, 0.1, 0.3])
            engine, reference = Engine(rules), ReScanEngine(rules)
            got, expected = [], []
            for event in stream:
                got.extend(full_firings(engine.push_event(event)))
                expected.extend(reference.push_event(event))
                if rng.random() < flush_rate:
                    got.extend(full_firings(engine.flush()))
                    expected.extend(reference.flush())
            got.extend(full_firings(engine.flush()))
            expected.extend(reference.flush())
            assert got == expected, f"trial {trial} diverged"


class TestPreview:
    def test_random_previews_match_a_twin_flush_and_commit_nothing(self):
        rng = random.Random(20261019)
        for trial in range(12):
            rules = random_rules(rng, rng.randint(1, 10))
            stream = random_stream(rng, rng.randint(10, 300))
            engine = Engine(rules)
            got = []
            for i, event in enumerate(stream):
                got.extend(engine.push_event(event))
                if rng.random() < 0.1:
                    twin = Engine(rules)
                    for earlier in stream[:i + 1]:
                        twin.push_event(earlier)
                    flushed = twin.flush()
                    # past every boundary flush settles, inside and beyond the
                    # stream, and at a window end
                    bounds = [event.timestamp + DAY]
                    bounds += [rng.randint(stream[0].timestamp, stream[-1].timestamp + DAY)
                               for _ in range(3)]
                    bounds += [f.window_end for f in rng.sample(flushed, min(2, len(flushed)))]
                    for before in bounds:
                        assert full_firings(engine.preview(before)) == full_firings(
                            [f for f in flushed if f.window_end < before]), (
                            f"trial {trial} diverged at event {i} before {before}")
            got.extend(engine.flush())
            assert full_firings(got) == full_firings(Engine(rules).run(stream)), (
                f"trial {trial} diverged")


def slope_heavy_rules(rng: random.Random, count: int) -> list[CepRule]:
    """Rules over the kinds of ``random_stream`` and each other's emitted
    kinds, most of whose leaves are SLOPEs, with SEQ and aggregates beside."""
    kinds = ["k0", "k1", "k2", "k3"]
    rules = []
    for i in range(count):
        stride = rng.choice([600, 1800, 3600])
        readable = kinds + [f"E{j}" for j in range(count) if j != i]

        def leaf():
            kind, cmp = rng.choice(readable), rng.choice(["<", "<=", ">", ">=", "!="])
            roll = rng.random()
            if roll < 0.6:
                return Compare("SLOPE", kind, cmp, round(rng.uniform(-40, 40), 2))
            if roll < 0.8:
                return Seq(kind, rng.choice(readable))
            fn = rng.choice(["SUM", "AVG", "MAX"])
            return Compare(fn, kind, cmp, round(rng.uniform(-2, 2), 2))

        shape = rng.random()
        pattern = (leaf() if shape < 0.4 else Not(leaf()) if shape < 0.55
                   else (And if shape < 0.8 else Or)((leaf(), leaf())))
        window = WindowSpec(stride * rng.randint(1, 6), stride)
        rules.append(CepRule(name=f"r{i:02d}", window=window, pattern=pattern, emit=f"E{i}",
                             severity_weight=0.5))
    return rules


class TestSlopeHeavyRuleSets:
    def test_firings_evidence_and_previews_match_re_scan(self):
        """Prefix-sum SLOPE, the push path's settle loop and bisected SEQ
        evidence against the re-scan engine: valueless events of SLOPE kinds,
        pushed events of emitted kinds, values near the float range, flushes
        mid-stream, previews against a twin's flush."""
        rng = random.Random(20261021)
        fired = previewed = 0
        for trial in range(12):
            rules = slope_heavy_rules(rng, rng.randint(2, 8))
            stream, ts = [], rng.randint(0, 3600)
            for _ in range(rng.randint(50, 300)):
                # same-instant runs, and instants on the boundary grid
                ts += rng.choice([0, rng.randint(1, 400), 600 - ts % 600])
                kind = rng.choice(rules).emit if rng.random() < 0.15 else f"k{rng.randrange(4)}"
                roll = rng.random()
                value = (None if roll < 0.1 else rng.choice([1e308, -1e308, 5e-324]) if roll < 0.13
                         else round(rng.uniform(-2, 2), 4))
                stream.append(ev(kind, ts, value))
            engine, reference = Engine(rules), ReScanEngine(rules)
            got, expected = [], []
            for event in stream:
                got.extend(full_firings(engine.push_event(event)))
                expected.extend(reference.push_event(event))
                if rng.random() < 0.08:
                    flushed = Engine(rules, engine.state()).flush()
                    for before in [event.timestamp + rng.randint(0, 4 * 3600)] + [
                            f.window_end for f in flushed[:2]]:
                        assert full_firings(engine.preview(before)) == full_firings(
                            [f for f in flushed if f.window_end < before]), f"trial {trial}"
                        previewed += 1
                if rng.random() < 0.05:
                    got.extend(full_firings(engine.flush()))
                    expected.extend(reference.flush())
            got.extend(full_firings(engine.flush()))
            expected.extend(reference.flush())
            assert got == expected, f"trial {trial} diverged"
            fired += len(expected)
        assert fired > 200 and previewed > 50


def resume_cases(seed: int):
    """(rules, stream, flushes, cut) cases: an engine fed ``stream[:cut]``,
    flushing after each index in ``flushes``, is cut there. Streams hold
    same-instant runs, valueless events and events of emitted kinds; the
    cuts include 0, the end, right after a flush and inside a same-instant
    run."""
    rng = random.Random(seed)
    for _ in range(20):
        rules = random_rules(rng, rng.randint(1, 10))
        stream = []
        for e in random_stream(rng, rng.randint(10, 200)):
            kind = rng.choice(rules).emit if rng.random() < 0.2 else e.kind
            ts = stream[-1].timestamp if stream and rng.random() < 0.2 else e.timestamp
            stream.append(ev(kind, ts, None if rng.random() < 0.1 else e.value))
        flushes = {i for i in range(len(stream)) if rng.random() < 0.1}
        same_instant = [i for i in range(1, len(stream))
                        if stream[i - 1].timestamp == stream[i].timestamp]
        cuts = {0, len(stream), rng.randint(0, len(stream))}
        cuts.update(i + 1 for i in rng.sample(sorted(flushes), min(2, len(flushes))))
        cuts.update(rng.sample(same_instant, min(2, len(same_instant))))
        for cut in sorted(cuts):
            yield rules, stream, flushes, cut


def feed_range(engine: Engine, stream, flushes, indexes) -> list:
    """Each firing, with its evidence, of feeding ``stream`` at ``indexes``."""
    firings = []
    for i in indexes:
        firings.extend(engine.push_event(stream[i]))
        if i in flushes:
            firings.extend(engine.flush())
    return [(f, f.evidence) for f in firings]


class TestEngineState:
    def test_an_engine_resumed_from_a_state_continues_as_the_original(self):
        """``Engine(rules, e.state())`` fires what ``e`` fires from there on,
        evidence included; the state round-trips through an engine, and it
        does not change as ``e`` continues."""
        fired = 0
        for rules, stream, flushes, cut in resume_cases(20261020):
            engine = Engine(rules)
            feed_range(engine, stream, flushes, range(cut))
            state = engine.state()
            snapshot = copy.deepcopy(state)
            resumed = Engine(rules, state)
            assert resumed.state() == state
            rest = range(cut, len(stream))
            got = feed_range(resumed, stream, flushes, rest) + [(f, f.evidence)
                                                                 for f in resumed.flush()]
            expected = feed_range(engine, stream, flushes, rest) + [(f, f.evidence)
                                                                    for f in engine.flush()]
            assert got == expected, f"diverged after a cut at {cut}"
            assert state == snapshot
            fired += len(expected)
        assert fired > 100
