"""Span recorder for the traced benchmark run, and the per-layer report.

Spans are recorded from the benchmark's own files: ``install`` wraps the
public functions and methods each layer module exposes, and the pipeline
module's by-name imports of them, so the program itself is unchanged.
A span is (id, parent id, name, start, end, request id, failed, value),
kept in memory and written out when the traced process ends. A layer's
self time is its spans' durations minus the durations of their direct
child spans, so nested calls such as saturate -> query_bgp and
bulletin -> flush_engines are counted once, in the innermost layer.
"""

import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

NO_REQUEST = 0


class Recorder:
    """In-memory span log; one per traced process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, *, root: bool = False, measure=None):
        """``fn`` recording one span per call. A ``root`` span starts a new
        request id unless one is already current; ``measure(result, args)``
        gives the span's value, a count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent, request = stack[-1] if stack else (0, NO_REQUEST)
            if root and request == NO_REQUEST:
                request = next(self._requests)
            span_id = next(self._ids)
            stack.append((span_id, request))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans.append((span_id, parent, name, start, time.perf_counter(),
                                   request, True, None))
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            value = measure(result, args) if measure is not None else None
            self.spans.append((span_id, parent, name, start, end, request, False, value))
            return result

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


class _TimedLock:
    """Lock proxy recording each acquisition's wait as a span."""

    def __init__(self, recorder: Recorder, lock, name: str):
        self._recorder = recorder
        self._lock = lock
        self._name = name

    def acquire(self, *args, **kwargs):
        recorder = self._recorder
        stack = recorder._stack()
        parent, request = stack[-1] if stack else (0, NO_REQUEST)
        start = time.perf_counter()
        acquired = self._lock.acquire(*args, **kwargs)
        recorder.spans.append((next(recorder._ids), parent, self._name, start,
                               time.perf_counter(), request, not acquired, None))
        return acquired

    def release(self):
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()


def _count(result, args):
    return len(result)


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point the pipeline and HTTP server call."""
    from semdrought.cep.engine import Engine
    from semdrought.ik import IkRegistry
    from semdrought.store import TripleStore
    from semdrought.service import pipeline as pipeline_module
    from semdrought.service.httpd import ApiHandler
    from semdrought.service.pipeline import Pipeline

    by_name = [   # pipeline.py imports these by name
        ("parse_payload", "ingest.parse", None),
        ("canonicalize", "ingest.canonicalize", None),
        ("observation_to_triples", "model.to_triples", None),
        ("triples_to_observation", "model.from_triples", None),
        ("build_climatology", "forecast.climatology", lambda r, a: len(a[0])),
        ("make_bulletin", "forecast.make_bulletin", None),
    ]
    for attribute, name, measure in by_name:
        setattr(pipeline_module, attribute, recorder.wrap(
            name, getattr(pipeline_module, attribute), measure=measure))

    methods = [
        (TripleStore, "insert", "store.insert", False, lambda r, a: int(r)),
        (TripleStore, "query_bgp", "store.query_bgp", False, None),
        (TripleStore, "saturate", "store.saturate", False, lambda r, a: r),
        (TripleStore, "serialize", "store.serialize", False,
         lambda r, a: len(r.encode("utf-8"))),
        (Engine, "push_event", "cep.push_event", False, _count),
        (Engine, "flush", "cep.flush", False, _count),
        (IkRegistry, "record_observation", "ik.record", False, None),
        (IkRegistry, "signal", "ik.signal", False, None),
        (Pipeline, "ingest_payload", "pipeline.ingest", True, None),
        (Pipeline, "ingest_ik_json", "pipeline.ingest", True, None),
        (Pipeline, "flush_engines", "pipeline.flush_engines", False, None),
        (Pipeline, "replay", "pipeline.replay", False, None),
        (Pipeline, "restore", "pipeline.restore", False, None),
        (Pipeline, "bulletin", "pipeline.bulletin", False, None),
        (ApiHandler, "do_GET", "httpd.get", True, None),
        (ApiHandler, "do_POST", "httpd.post", True, None),
    ]
    for owner, attribute, name, root, measure in methods:
        setattr(owner, attribute, recorder.wrap(
            name, getattr(owner, attribute), root=root, measure=measure))

    load = TripleStore.__dict__["load"].__func__
    TripleStore.load = classmethod(recorder.wrap("store.load", load))

    init = Pipeline.__init__

    @functools.wraps(init)
    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.lock = _TimedLock(recorder, self.lock, "pipeline.lock_wait")

    Pipeline.__init__ = traced_init


def read_spans(path: Path) -> list[tuple]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle if line.strip()]


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Total self time per span name, in seconds."""
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end, *_ in spans:
        if parent:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for span_id, _, name, start, end, *_ in spans:
        totals[name] += end - start - child_time.get(span_id, 0.0)
    return dict(totals)


# per-layer metrics: name -> (unit, how it is computed from the spans)
LAYER_METRICS = {
    "ingest.parse_s": ("s", ("self", "ingest.parse")),
    "ingest.canonicalize_s": ("s", ("self", "ingest.canonicalize")),
    "ingest.lines": ("count", ("calls", "pipeline.ingest")),
    "ingest.rejected": ("count", ("failed", "pipeline.ingest")),
    "pipeline.ingest_s": ("s", ("self", "pipeline.ingest")),
    "pipeline.replay_s": ("s", ("self", "pipeline.replay")),
    "model.to_triples_s": ("s", ("self", "model.to_triples")),
    "model.to_triples_calls": ("count", ("calls", "model.to_triples")),
    "store.insert_s": ("s", ("self", "store.insert")),
    "store.insert_calls": ("count", ("calls", "store.insert")),
    "store.insert_new": ("count", ("sum", "store.insert")),
    "store.saturate_s": ("s", ("self", "store.saturate")),
    "store.query_bgp_s": ("s", ("self", "store.query_bgp")),
    "store.query_bgp_calls": ("count", ("calls", "store.query_bgp")),
    "store.saturate_derived": ("count", ("sum", "store.saturate")),
    "store.serialize_s": ("s", ("self", "store.serialize")),
    "store.persist_bytes": ("bytes", ("sum", "store.serialize")),
    "store.load_s": ("s", ("self", "store.load")),
    "model.from_triples_s": ("s", ("self", "model.from_triples")),
    "pipeline.restore_s": ("s", ("self", "pipeline.restore")),
    "cep.push_event_s": ("s", ("self", "cep.push_event")),
    "cep.flush_s": ("s", ("self", "cep.flush")),
    "cep.events": ("count", ("calls", "cep.push_event")),
    "cep.firings": ("count", ("sum", "cep.push_event", "cep.flush")),
    "ik.record_s": ("s", ("self", "ik.record")),
    "ik.signal_s": ("s", ("self", "ik.signal")),
    "ik.signal_calls": ("count", ("calls", "ik.signal")),
    "forecast.climatology_s": ("s", ("self", "forecast.climatology")),
    "forecast.climatology_samples": ("count", ("sum", "forecast.climatology")),
    "forecast.make_bulletin_s": ("s", ("self", "forecast.make_bulletin")),
    "forecast.bulletins": ("count", ("succeeded", "forecast.make_bulletin")),
    "pipeline.bulletin_s": ("s", ("self", "pipeline.bulletin")),
    "pipeline.flush_engines_s": ("s", ("self", "pipeline.flush_engines")),
    "pipeline.lock_wait_s": ("s", ("self", "pipeline.lock_wait")),
    "httpd.post_handler_s": ("s", ("self", "httpd.post")),
    "httpd.get_handler_s": ("s", ("self", "httpd.get")),
}


def layer_report(groups: list[list[tuple]]) -> dict[str, tuple[float, str]]:
    """Per-layer metric values as (value, unit), summed over span groups,
    one group per traced process (span ids are unique within a process)."""
    selfs: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    failed: dict[str, int] = defaultdict(int)
    sums: dict[str, float] = defaultdict(float)
    for spans in groups:
        for name, seconds in self_times(spans).items():
            selfs[name] += seconds
        for _, _, name, _, _, _, did_fail, value in spans:
            calls[name] += 1
            failed[name] += bool(did_fail)
            sums[name] += value or 0
    report = {}
    for metric, (unit, (kind, *names)) in LAYER_METRICS.items():
        if kind == "self":
            value = sum(selfs.get(n, 0.0) for n in names)
        elif kind == "calls":
            value = sum(calls[n] for n in names)
        elif kind == "failed":
            value = sum(failed[n] for n in names)
        elif kind == "succeeded":
            value = sum(calls[n] - failed[n] for n in names)
        else:
            value = sum(sums[n] for n in names)
        report[metric] = (value, unit)
    return report


def inclusive_p50_ms(spans: list[tuple], name: str) -> float:
    """Median wall duration of one span name, children included, in ms."""
    durations = [(end - start) * 1000 for _, _, n, start, end, *_ in spans if n == name]
    return statistics.median(durations) if durations else 0.0
