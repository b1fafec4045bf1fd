"""Windowed rule evaluation over an ordered event stream.

Semantics pinned here:

* Input events arrive in non-decreasing timestamp order; regressions are
  rejected without touching engine state.
* Each rule evaluates on an absolute boundary grid (multiples of its
  stride) starting at the first boundary at or after the first event.
* A boundary b is evaluated once all events with timestamp <= b are in:
  push_event settles boundaries strictly below the incoming timestamp,
  and flush() drains every remaining boundary whose window reaches back
  before the last event seen; preview(before) returns what flush() would
  fire below ``before``, settled on an engine built from ``state()``, so
  it commits nothing. A window covers (b - length, b].
* Events a firing emits are re-injected at the window end and become
  visible to later boundaries only (one cascade level per timestamp).
* The engine holds, per event kind that some rule's pattern names,
  time-ordered parallel columns of timestamps, events and values, and
  finds a window in them by bisection; events of other kinds are not
  held. An emitted event can be later than events pushed after it; each
  is placed after every held event not later than it, so events of one
  instant keep their arrival order.
* Each rule's pattern is compiled once into a truth closure over those
  columns; a rule's evidence is built only when it fires.
* SLOPE is the least-squares slope per day, exact and then rounded once,
  from integer prefix sums kept per kind it reads, as far as a window
  reads. SUM and AVG are ``math.fsum`` over the window's values. Nothing
  raises on finite values: a SUM or SLOPE past the float range is an
  infinity, and an AVG whose ``fsum`` overflows is its exact mean, rounded.
* All an engine carries from one event to the next is one value,
  ``EngineState``, and ``Engine(rules, state)`` resumes from it.
"""

import math
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import sub

from ..errors import SemDroughtError
from .rules import COMPARATORS, Absent, And, CepRule, Not, Or, Seq

SECONDS_PER_DAY = 86400
SCALE = 1074    # every finite float times 2**SCALE is an integer


class OutOfOrderError(SemDroughtError):
    code = "OutOfOrder"


class EmptyWindowError(SemDroughtError):
    code = "EmptyWindow"


class DegenerateSlopeError(SemDroughtError):
    code = "Degenerate"


class Event(namedtuple("Event", "kind timestamp value")):
    """One stream event; the constructor checks it, ``_make`` takes values already checked."""
    __slots__ = ()

    def __new__(cls, kind: str, timestamp: int, value: float | None = None):
        if timestamp < 0:
            raise ValueError("event timestamp must be non-negative")
        if value is not None and not math.isfinite(value):
            raise ValueError("event value must be finite")
        return tuple.__new__(cls, (kind, timestamp, value))


@dataclass(frozen=True)
class Firing:
    rule: str
    window_end: int
    kind: str
    evidence: tuple[Event, ...] = ()


def window_aggregate(values: list[float], fn: str) -> float:
    """AVG/MIN/MAX/SUM/COUNT over a window's values."""
    if fn == "COUNT":
        return float(len(values))
    if not values and fn != "SUM":
        raise EmptyWindowError(f"{fn} over an empty window")
    if fn in ("SUM", "AVG"):
        count = len(values) if fn == "AVG" else 1
        try:
            return math.fsum(values) / count
        except OverflowError:   # the exact sum over count, rounded once
            return _rounded(sum(map(_scaled, values)), count << SCALE)
    if fn == "MIN":
        return min(values)
    if fn == "MAX":
        return max(values)
    raise ValueError(f"unknown aggregate {fn!r}")


def _scaled(value: float) -> int:
    """``value * 2**SCALE``, exactly."""
    numerator, denominator = value.as_integer_ratio()
    return numerator << (SCALE + 1 - denominator.bit_length())


def _rounded(numerator: int, denominator: int) -> float:
    """``numerator / denominator > 0`` correctly rounded; infinite past the float range."""
    try:
        return numerator / denominator
    except OverflowError:
        return math.inf if numerator > 0 else -math.inf


def _slope_of(n: int, st: int, stt: int, sv: int, stv: int) -> float:
    """The slope of points from their count and their sums of t, t*t, V and
    t*V, t in seconds and V a value times 2**SCALE."""
    spread = n * stt - st * st     # zero unless two of the times differ
    if not spread:
        raise DegenerateSlopeError("slope needs two points with distinct times")
    return _rounded(SECONDS_PER_DAY * (n * stv - st * sv), spread << SCALE)


def _extend_sums(sums: list, times, values) -> list:
    """``sums`` with one prefix-sum entry appended per point: the count and
    the sums of t, t*t, V and t*V, V = value * 2**SCALE, of the valued ones."""
    n, st, stt, sv, stv = sums[-1]
    for t, v in zip(times, values):
        if v is not None:
            v = _scaled(v)
            n, st, stt, sv, stv = n + 1, st + t, stt + t * t, sv + v, stv + t * v
        sums.append((n, st, stt, sv, stv))
    return sums


def slope(times: list[int], values: list[float]) -> float:
    """Least-squares slope in value units per day of values at ``times``
    (integer seconds), correctly rounded."""
    return _slope_of(*_extend_sums([(0,) * 5], times, values)[-1])


def _compile(node, held: dict, valueless: set[str], decisive: bool = True):
    """``(truth, evidence)`` closures of a pattern over the window (start, end].

    ``truth`` may raise EmptyWindowError, which fails the whole rule, so AND
    and OR run every child, except that a ``decisive`` AND, one whose being
    false fails the rule (the root or an AND child of one), stops at its
    first false child. ``evidence`` lists the contributing events of a node
    known to be true.
    """
    no_evidence = lambda start, end: []
    if isinstance(node, (And, Or)):
        parts = [_compile(child, held, valueless, decisive and isinstance(node, And))
                 for child in node.children]
        if isinstance(node, Or):
            return ((lambda start, end: any([t(start, end) for t, _ in parts])),
                    (lambda start, end: [e for t, evidence in parts if t(start, end)
                                         for e in evidence(start, end)]))
        truths = [t for t, _ in parts]
        truth = (reduce(lambda a, b: lambda start, end: a(start, end) and b(start, end), truths)
                 if decisive else (lambda start, end: all([t(start, end) for t in truths])))
        return (truth,
                (lambda start, end: [e for _, evidence in parts for e in evidence(start, end)]))
    if isinstance(node, Not):
        child, _ = _compile(node.child, held, valueless, False)
        return (lambda start, end: not child(start, end)), no_evidence
    if isinstance(node, Seq):
        first, first_events, _, _ = held[node.first]
        second, second_events, _, _ = held[node.second]

        def seq_truth(start, end):
            # the first after start and the last second up to end, in order, are in the window
            lo, hi = bisect_right(first, start), bisect_right(second, end)
            return lo < len(first) and hi > 0 and first[lo] < second[hi - 1]

        def seq_evidence(start, end):
            # earliest-first, non-overlapping pairs, each second strictly later than its first
            found = []
            at, stop = bisect_right(second, start), bisect_right(second, end)
            for i in range(bisect_right(first, start), bisect_right(first, end)):
                at = bisect_right(second, first[i], at, stop)
                if at == stop:
                    break
                found += first_events[i], second_events[at]
                at += 1
            return found
        return seq_truth, seq_evidence

    kind = node.kind
    times, events, values, sums = held[kind]

    def events_in(start, end):
        return events[bisect_right(times, start):bisect_right(times, end)]

    def count_in(start, end):
        return bisect_right(times, end) - bisect_right(times, start)

    def values_in(start, end):
        """The window's values, valueless events left out."""
        window = values[bisect_right(times, start):bisect_right(times, end)]
        return [v for v in window if v is not None] if kind in valueless else window

    if isinstance(node, Absent):
        return (lambda start, end: not count_in(start, end)), no_evidence
    compare, constant = COMPARATORS[node.cmp], node.constant
    if node.fn is None:
        return ((lambda start, end: any(map(compare, values_in(start, end), repeat(constant)))),
                (lambda start, end: [e for e in events_in(start, end)
                                     if e.value is not None and compare(e.value, constant)]))
    if node.fn == "SLOPE":
        def trend_truth(start, end):
            lo, hi = bisect_right(times, start), bisect_right(times, end)
            if len(sums) <= hi:     # extend the prefix sums up to the window's end
                _extend_sums(sums, times[len(sums) - 1:hi], values[len(sums) - 1:hi])
            try:
                return compare(_slope_of(*map(sub, sums[hi], sums[lo])), constant)
            except DegenerateSlopeError:
                return False
        return trend_truth, events_in
    if node.fn == "COUNT":
        return (lambda start, end: compare(float(count_in(start, end)), constant)), events_in
    fn = node.fn
    return ((lambda start, end: compare(window_aggregate(values_in(start, end), fn), constant)),
            events_in)


def _leaf_kinds(node) -> list[str]:
    """The event kinds a pattern's leaves read, once per read."""
    if isinstance(node, Seq):
        return [node.first, node.second]
    if isinstance(node, Not):
        return _leaf_kinds(node.child)
    if isinstance(node, (And, Or)):
        return [kind for child in node.children for kind in _leaf_kinds(child)]
    return [node.kind]


@dataclass(frozen=True)
class EngineState:
    """An engine's held events, kinds no rule reads left out; each rule's
    next boundary, none before the first event; and the last timestamp."""
    held: tuple[tuple[str, tuple[Event, ...]], ...] = ()    # (kind, its events in time order)
    cursors: tuple[tuple[str, int], ...] = ()     # (rule name, its next boundary)
    last: int | None = None     # earlier events are rejected


class Engine:
    """Single-stream evaluator; one instance per logically ordered stream."""

    def __init__(self, rules: list[CepRule], state: EngineState = EngineState()):
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            raise ValueError("rule names must be unique within an engine")
        self.rules = sorted(rules, key=lambda r: r.name)
        self._max_length = max((r.window.length for r in rules), default=0)
        reads = {r.name: _leaf_kinds(r.pattern) for r in rules}
        held = dict(state.held)
        # kind -> (timestamps, events, values, prefix sums) in time order, for each
        # kind a rule reads; sums[i] sums the first i events, kept for as many as read
        self._held = {kind: ([e.timestamp for e in events], list(events), [e.value for e in events],
                             [(0,) * 5])
                      for kind in dict.fromkeys(k for kinds in reads.values() for k in kinds)
                      for events in [held.get(kind, ())]}
        self._valueless = {kind for kind, (_, _, values, _) in self._held.items() if None in values}
        # rule -> (truth, evidence, whether it reads a kind twice and so can list an event twice)
        self._patterns = {r.name: (*_compile(r.pattern, self._held, self._valueless),
                                   len(set(reads[r.name])) < len(reads[r.name])) for r in rules}
        self._cursors = dict(state.cursors)
        self._last_ts = state.last

    def state(self) -> EngineState:
        """A copy of what the engine holds; later pushes leave it unchanged."""
        return EngineState(
            tuple((kind, tuple(events)) for kind, (_, events, *_) in self._held.items() if events),
            tuple(self._cursors.items()), self._last_ts)

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
        arrived, cursors = event.timestamp, self._cursors
        firings = []
        if min(cursors.values(), default=arrived) < arrived:
            while (boundary := min(cursors.values())) < arrived:
                firings += self._settle_at(boundary, self.rules)
            self._prune()
        self._hold(event)
        self._last_ts = event.timestamp
        return firings

    def flush(self) -> list[Firing]:
        """Drain every boundary whose window starts before the last event."""
        if not self._cursors:
            return []
        return self._drain(self._drained_before(math.inf))

    def preview(self, before: int) -> list[Firing]:
        """The firings ``flush`` would return now with a window end before
        ``before``, settled on ``Engine(rules, state())``; commits nothing.
        Boundaries settle in ascending order and an emitted event is seen only
        by later ones, so those at or past ``before`` stay unsettled."""
        due = self._drained_before(before)
        if not self._cursors or not any(due(r, self._cursors[r.name]) for r in self.rules):
            return []
        return Engine(self.rules, self.state())._drain(due)

    def run(self, events: list[Event]) -> list[Firing]:
        firings = []
        for event in events:
            firings.extend(self.push_event(event))
        firings.extend(self.flush())
        return firings

    # -- internals -----------------------------------------------------------

    def _drained_before(self, before):
        """Whether ``flush`` settles a rule's boundary ``cursor`` below
        ``before``: its window starts before the last event."""
        last = self._last_ts
        return lambda rule, cursor: cursor < before and cursor - rule.window.length < last

    def _drain(self, eligible) -> list[Firing]:
        """Settle, in ascending order, every boundary ``eligible(rule, cursor)``
        admits as the cursors advance."""
        firings: list[Firing] = []
        while due := [r for r in self.rules if eligible(r, self._cursors[r.name])]:
            boundary = min(self._cursors[r.name] for r in due)
            firings += self._settle_at(boundary, due)
        self._prune()
        return firings

    def _settle_at(self, boundary: int, rules: list[CepRule]) -> list[Firing]:
        """Evaluate those of ``rules`` (name-sorted) whose next boundary is
        ``boundary``, advance their cursors and hold what they emit."""
        firings = []
        for rule in [r for r in rules if self._cursors[r.name] == boundary]:
            firing = self._evaluate_rule(rule, boundary)
            if firing is not None:
                firings.append(firing)
            self._cursors[rule.name] = boundary + rule.window.stride
        for firing in firings:
            self._hold(Event(kind=firing.kind, timestamp=boundary))
        return firings

    def _hold(self, event: Event) -> None:
        held = self._held.get(event.kind)
        if held is not None:
            times, events, values, sums = held
            at = bisect_right(times, event.timestamp)   # after its equals: arrival order
            times.insert(at, event.timestamp)
            events.insert(at, event)
            values.insert(at, event.value)
            del sums[at + 1:]
            if event.value is None:
                self._valueless.add(event.kind)

    def _evaluate_rule(self, rule: CepRule, boundary: int) -> Firing | None:
        truth, evidence, repeats = self._patterns[rule.name]
        start = boundary - rule.window.length
        try:
            if not truth(start, boundary):
                return None
        except EmptyWindowError:
            return None
        found = evidence(start, boundary)
        if repeats:     # each event once, where it first contributed
            found = {id(e): e for e in found}.values()
        return Firing(rule=rule.name, window_end=boundary, kind=rule.emit,
                      evidence=tuple(found))

    def _prune(self):
        horizon = min(self._cursors.values()) - self._max_length
        for times, events, values, sums in self._held.values():
            if times and times[0] <= horizon:
                cut = bisect_right(times, horizon)
                del times[:cut], events[:cut], values[:cut], sums[:cut]
                sums or sums.append((0,) * 5)     # read as differences, so any origin will do
