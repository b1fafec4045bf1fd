"""Windowed rule evaluation over an ordered event stream.

Semantics pinned here:

* Input events arrive in non-decreasing timestamp order; regressions are
  rejected without touching engine state.
* Each rule evaluates on an absolute boundary grid (multiples of its
  stride) starting at the first boundary at or after the first event.
* A boundary b is evaluated once all events with timestamp <= b are in:
  push_event settles boundaries strictly below the incoming timestamp,
  and flush() drains every remaining boundary whose window reaches back
  before the last event seen. A window covers (b - length, b].
* Events a firing emits are re-injected at the window end and become
  visible to later boundaries only (one cascade level per timestamp).
* The engine holds one time-ordered list per event kind that some rule's
  pattern names, and finds a window in it by bisection; events of other
  kinds are not held. An emitted event can be later than events pushed
  after it; each is placed after every held event not later than it, so
  events of one instant keep their arrival order.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field

from ..errors import SemDroughtError
from .rules import (
    COMPARATORS, Absent, Aggregate, And, CepRule, Not, Or, Seq, Threshold, Trend,
)

SECONDS_PER_DAY = 86400.0


class OutOfOrderError(SemDroughtError):
    code = "OutOfOrder"


class EmptyWindowError(SemDroughtError):
    code = "EmptyWindow"


class DegenerateSlopeError(SemDroughtError):
    code = "Degenerate"


@dataclass(frozen=True)
class Event:
    kind: str
    timestamp: int
    value: float | None = None
    attributes: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if self.timestamp < 0:
            raise ValueError("event timestamp must be non-negative")
        if self.value is not None and not math.isfinite(self.value):
            raise ValueError("event value must be finite")

    def attribute(self, name: str) -> str | None:
        for key, value in self.attributes:
            if key == name:
                return value
        return None


@dataclass(frozen=True)
class Firing:
    rule: str
    window_end: int
    event: Event
    evidence: tuple[Event, ...] = field(default=(), compare=False)


def window_aggregate(points: list[tuple[int, float]], fn: str) -> float:
    """AVG/MIN/MAX/SUM/COUNT over (timestamp, value) pairs."""
    if fn == "COUNT":
        return float(len(points))
    values = [v for _, v in points]
    if fn == "SUM":
        return math.fsum(values)
    if not values:
        raise EmptyWindowError(f"{fn} over an empty window")
    if fn == "AVG":
        return math.fsum(values) / len(values)
    if fn == "MIN":
        return min(values)
    if fn == "MAX":
        return max(values)
    raise ValueError(f"unknown aggregate {fn!r}")


def slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope in value units per day."""
    if len(points) < 2 or len({t for t, _ in points}) < 2:
        raise DegenerateSlopeError("slope needs two points with distinct times")
    days = [t / SECONDS_PER_DAY for t, _ in points]
    values = [v for _, v in points]
    t_mean = math.fsum(days) / len(days)
    v_mean = math.fsum(values) / len(values)
    numerator = math.fsum((t - t_mean) * (v - v_mean) for t, v in zip(days, values))
    denominator = math.fsum((t - t_mean) ** 2 for t in days)
    return numerator / denominator


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
    """Truth value plus contributing events; EmptyWindowError escapes to the
    rule level and makes the whole rule false for this window."""
    if isinstance(node, Threshold):
        compare = COMPARATORS[node.cmp]
        hits = [e for e in by_kind.get(node.kind, ())
                if e.value is not None and compare(e.value, node.constant)]
        return bool(hits), hits
    if isinstance(node, Aggregate):
        events = by_kind.get(node.kind, [])
        if node.fn == "COUNT":
            result = float(len(events))
        else:
            result = window_aggregate(
                [(e.timestamp, e.value) for e in events if e.value is not None], node.fn
            )
        return COMPARATORS[node.cmp](result, node.constant), list(events)
    if isinstance(node, Trend):
        points = [(e.timestamp, e.value) for e in by_kind.get(node.kind, ())
                  if e.value is not None]
        try:
            value = slope(points)
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


def _pattern_kinds(node) -> set[str]:
    """The event kinds a pattern reads."""
    if isinstance(node, Seq):
        return {node.first, node.second}
    if isinstance(node, Not):
        return _pattern_kinds(node.child)
    if isinstance(node, (And, Or)):
        return set().union(*map(_pattern_kinds, node.children))
    return {node.kind}


class Engine:
    """Single-stream evaluator; one instance per logically ordered stream.
    ``last_timestamp`` resumes a stream whose events before it were consumed
    elsewhere: earlier events are rejected, the next one anchors the grid."""

    def __init__(self, rules: list[CepRule], last_timestamp: int | None = None):
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            raise ValueError("rule names must be unique within an engine")
        self.rules = sorted(rules, key=lambda r: r.name)
        self._max_length = max((r.window.length for r in rules), default=0)
        # kind -> (timestamps, events) in time order, for each kind a rule reads
        self._held: dict[str, tuple[list[int], list[Event]]] = {}
        self._reads = {r.name: [(kind, self._held.setdefault(kind, ([], [])))
                                for kind in sorted(_pattern_kinds(r.pattern))] for r in rules}
        self._cursors: dict[str, int] = {}
        self._last_ts = last_timestamp

    def push_event(self, event: Event) -> list[Firing]:
        """Feed one event; returns firings for boundaries it strictly crossed."""
        if self._last_ts is not None and event.timestamp < self._last_ts:
            raise OutOfOrderError(
                f"timestamp {event.timestamp} regresses below {self._last_ts}"
            )
        if not self._cursors:
            for rule in self.rules:
                stride = rule.window.stride
                self._cursors[rule.name] = -(-event.timestamp // stride) * stride
        arrived = event.timestamp
        firings = self._settle(lambda rule, cursor: cursor < arrived)
        self._hold(event)
        self._last_ts = event.timestamp
        return firings

    def flush(self) -> list[Firing]:
        """Drain every boundary whose window starts before the last event."""
        if not self._cursors:
            return []
        last = self._last_ts
        return self._settle(lambda rule, cursor: cursor - rule.window.length < last)

    def run(self, events: list[Event]) -> list[Firing]:
        firings = []
        for event in events:
            firings.extend(self.push_event(event))
        firings.extend(self.flush())
        return firings

    # -- internals -----------------------------------------------------------

    def _settle(self, eligible) -> list[Firing]:
        firings: list[Firing] = []
        while True:
            due = [r for r in self.rules if eligible(r, self._cursors[r.name])]
            if not due:
                break
            boundary = min(self._cursors[r.name] for r in due)
            at_boundary = [r for r in due if self._cursors[r.name] == boundary]
            emitted: list[Event] = []
            for rule in at_boundary:   # self.rules is name-sorted
                firing = self._evaluate_rule(rule, boundary)
                if firing is not None:
                    firings.append(firing)
                    emitted.append(firing.event)
                self._cursors[rule.name] = boundary + rule.window.stride
            for event in emitted:
                self._hold(event)
            self._prune()
        return firings

    def _hold(self, event: Event) -> None:
        held = self._held.get(event.kind)
        if held is not None:
            times, events = held
            at = bisect_right(times, event.timestamp)   # after its equals: arrival order
            times.insert(at, event.timestamp)
            events.insert(at, event)

    def _evaluate_rule(self, rule: CepRule, boundary: int) -> Firing | None:
        start = boundary - rule.window.length
        by_kind = {kind: events[bisect_right(times, start):bisect_right(times, boundary)]
                   for kind, (times, events) in self._reads[rule.name]}
        try:
            truth, evidence = _evaluate(rule.pattern, by_kind)
        except EmptyWindowError:
            return None
        if not truth:
            return None
        emitted = Event(kind=rule.emit, timestamp=boundary,
                        attributes=(("rule", rule.name),))
        return Firing(rule=rule.name, window_end=boundary, event=emitted,   # each event once
                      evidence=tuple({id(e): e for e in evidence}.values()))

    def _prune(self):
        horizon = min(self._cursors.values()) - self._max_length
        for times, events in self._held.values():
            cut = bisect_right(times, horizon)
            del times[:cut], events[:cut]
