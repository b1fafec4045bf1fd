"""semdrought benchmark: replay throughput, live ingest and forecast latency.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each workload generates a seeded world
(``world.py``), then measures for about ``--seconds`` seconds:

* replay: ``Pipeline.replay`` of the world's history, each in a fresh
  child process (``replay_child.py``), which persists the state;
* live: ``semdrought serve`` restores that state in its own process
  (``serve_launcher.py``); this process reads ``GET /forecast`` open-loop
  at a fixed mean rate (idle slices), and in busy slices keeps reading
  while a second, closed-loop thread posts the world's tail to
  ``POST /observations`` in time order.

After the first replay and the server start-ups, idle slices, busy slices
and replays take turns until the time is up (``measure``).

Every output is checked (replay summaries against the manifest, every
response, the final event count); a mismatch counts as a failed
operation. With ``--trace 0`` the last stdout line is the JSON result
with the end-to-end metrics, with ``--trace 1`` it holds the per-layer
metrics of a separate traced run and the tracing overhead. See NOTES.md.
"""

import argparse
import http.client
import json
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUPS = 3                  # server start-ups per timed run; setup_s is their median
GET_RATE = 18.0             # open-loop GET /forecast per second
SLICE_S = 1.5               # about this long per idle or busy slice, rounded up to whole pair cycles
READER_CONNECTIONS = 3
MIN_TAIL_SAMPLES = 100      # p90 needs ten samples beyond it
REPLAY_SPANS, SERVER_SPANS = "replay-spans.jsonl", "server-spans.jsonl"


class BenchError(Exception):
    """The run could not be completed; no result is printed."""


def _require_program() -> None:
    needed = (ROOT / "src" / "semdrought" / "__init__.py", ROOT / "tests" / "scenario.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError(f"program sources not found: {', '.join(missing)}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


@dataclass(frozen=True)
class Workload:
    shape: object           # world.Shape
    why: str


def workloads() -> dict[str, Workload]:
    from world import DENSE_RULES_TEXT, RULES_TEXT, Shape
    return {
        "replay_daily": Workload(
            Shape(regions=2, cadence_hours=24, years=3, tail_days=365,
                  baseline_years=2, rules=RULES_TEXT),
            why="daily readings, 2 years of history per region, the scenario rules: "
                "the store/model write path does most of the replay work, and "
                "restore and forecast reads run over long history"),
        "replay_dense_rules": Workload(
            Shape(regions=1, cadence_hours=6, years=1, tail_days=200,
                  baseline_years=0, rules=DENSE_RULES_TEXT),
            why="one region, 6-hourly readings, a dozen long-window "
                "short-stride rules: the CEP engine does most of the work"),
    }


# -- checks -------------------------------------------------------------------

@dataclass
class Checks:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)
        return ok


def check_replay(checks: Checks, summary: dict, manifest: dict) -> bool:
    expected = {k: manifest[k] for k in ("parsed", "rejected", "firings")}
    return checks.record(summary == expected,
                         f"replay summary {summary} != manifest {expected}")


def check_forecast(checks: Checks, status: int, body: bytes) -> bool:
    from semdrought.forecast import Severity
    try:
        label = json.loads(body).get("severity")
    except (ValueError, AttributeError):
        label = None
    return checks.record(status == 200 and label in {s.label for s in Severity},
                         f"GET /forecast -> {status} {body[:120]!r}")


def check_post(checks: Checks, status: int, body: bytes) -> tuple[bool, int]:
    try:
        reply = json.loads(body)
        accepted, firings = reply.get("accepted") is True, int(reply.get("firings", 0))
    except (ValueError, AttributeError, TypeError):
        accepted, firings = False, 0
    ok = checks.record(status == 200 and accepted,
                       f"POST /observations -> {status} {body[:120]!r}")
    return ok, firings


# -- replay stage ---------------------------------------------------------------

def run_replay(world, trace_path: Path | None = None) -> dict:
    command = [sys.executable, str(HERE / "replay_child.py"),
               "--config", str(world.config), "--input", str(world.history)]
    if trace_path is not None:
        command += ["--trace", str(trace_path)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise BenchError(f"replay child failed ({done.returncode}): {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- live stage -----------------------------------------------------------------

class Server:
    """``semdrought serve`` in a child process, timed from spawn to /health."""

    def __init__(self, config: Path, work: Path, tag: str, trace_path: Path | None = None):
        self.report_path = work / f"server-{tag}.json"
        err_path = work / f"server-{tag}.err"
        command = [sys.executable, str(HERE / "serve_launcher.py"),
                   "--config", str(config), "--report", str(self.report_path)]
        if trace_path is not None:
            command += ["--trace", str(trace_path)]
        start = time.perf_counter()
        with open(err_path, "w", encoding="utf-8") as err:
            self.process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                                            stderr=err)
        try:
            self.port = self._await_port(err_path, start + 150)
            self.events = self.health()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _await_port(self, err_path: Path, deadline: float) -> int:
        while True:
            text = err_path.read_text(encoding="utf-8")
            found = re.search(r"listening on http://[^\s:]+:(\d+)", text)
            if found:
                return int(found.group(1))
            if self.process.poll() is not None:
                raise BenchError(f"server exited ({self.process.returncode}): {text[-2000:]}")
            if time.perf_counter() > deadline:
                raise BenchError("server did not start in time")
            time.sleep(0.002)

    def health(self) -> int:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", "/health")
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise BenchError(f"/health -> {response.status} {body[:200]!r}")
        return int(json.loads(body)["events"])

    def stop(self) -> dict:
        """SIGINT, wait, and return the launcher's exit report."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.report_path.is_file():
            return json.loads(self.report_path.read_text(encoding="utf-8"))
        return {}


class _Client:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, port: int):
        self.port = port
        self.conn = None

    def request(self, method: str, path: str, body: str | None = None) -> tuple[int, bytes]:
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            return 0, str(exc).encode("utf-8")

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


@dataclass
class LiveResult:
    idle_ms: list = field(default_factory=list)     # GET latency from due time, idle slices
    busy_ms: list = field(default_factory=list)     # the same, busy slices
    late_ms: list = field(default_factory=list)     # send time minus due time
    post_ms: list = field(default_factory=list)
    posted: int = 0
    post_firings: int = 0
    busy_s: float = 0.0                             # posting time summed over busy slices
    tail_left: bool = True


class LiveLoad:
    """The load generator, in this process: an open-loop ``GET /forecast``
    reader, and in busy slices a closed-loop ``POST /observations`` gateway.

    Each slice reads every (region, period) pair equally often, about
    ``SLICE_S * rate`` reads in all, so every slice reads the same mix. Gaps
    between reads are uniform in [0.5, 1.5] / rate, drawn from the seed, so
    the reader does not lock into step with the gateway. Reads alternate
    between READER_CONNECTIONS keep-alive connections, as independent
    readers would; see NOTES.md on delayed ACKs."""

    def __init__(self, port: int, world, rate: float, seed: int, checks: Checks):
        self.rng = random.Random(seed)
        self.pairs = list(world.periods)
        self.rng.shuffle(self.pairs)
        self.per_slice = len(self.pairs) * max(1, round(SLICE_S * rate / len(self.pairs)))
        self.rate = rate
        self.checks = checks
        self.tail = iter(world.tail)
        self.readers = [_Client(port) for _ in range(READER_CONNECTIONS)]
        self.gateway = _Client(port)
        self.lock = threading.Lock()
        self.result = LiveResult()

    def run_slice(self, busy: bool) -> None:
        due = time.perf_counter() + 0.01
        schedule = []
        for _ in range(self.per_slice):
            schedule.append(due)
            due += self.rng.uniform(0.5, 1.5) / self.rate
        gateway = None
        if busy:
            gateway = threading.Thread(target=self._post, args=(schedule[0], due))
            gateway.start()
        try:
            self._read(schedule, self.result.busy_ms if busy else self.result.idle_ms)
        finally:
            if gateway is not None:
                gateway.join()

    def _read(self, schedule: list, samples: list) -> None:
        """Open loop: each request is sent at its due time, whatever came before."""
        for i, due in enumerate(schedule):
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            region, period = self.pairs[i % len(self.pairs)]
            status, body = self.readers[i % len(self.readers)].request(
                "GET", f"/forecast?region={region}&period={period}")
            latency = (time.perf_counter() - due) * 1000
            with self.lock:
                check_forecast(self.checks, status, body)
                samples.append(latency)
                self.result.late_ms.append((sent - due) * 1000)

    def _post(self, start: float, end: float) -> None:
        """Closed loop: post the tail in time order, each after the last reply,
        and start no post after ``end``."""
        result, done = self.result, start
        while time.perf_counter() < start:
            time.sleep(max(0.0, start - time.perf_counter()))
        while time.perf_counter() < end:
            document = next(self.tail, None)
            if document is None:
                result.tail_left = False
                break
            sent = time.perf_counter()
            status, body = self.gateway.request("POST", "/observations", document)
            done = time.perf_counter()
            with self.lock:
                ok, firings = check_post(self.checks, status, body)
                result.post_ms.append((done - sent) * 1000)
                result.posted += ok
                result.post_firings += firings
        with self.lock:
            result.busy_s += max(0.0, done - start)

    def close(self) -> None:
        for client in self.readers + [self.gateway]:
            client.close()


# -- the run ----------------------------------------------------------------------

def _p90(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[max(0, -(-9 * len(ordered) // 10) - 1)]


@dataclass
class Measured:
    replays: list = field(default_factory=list)     # untraced replay results
    traced_replay: dict | None = None
    setups: list = field(default_factory=list)      # server start-up times
    live: LiveResult | None = None
    server_report: dict = field(default_factory=dict)
    rounds: int = 0


def measure(world, seconds: float, seed: int, traced: bool, work: Path,
            checks: Checks) -> Measured:
    """Everything timed in one run, within about ``seconds`` seconds.

    A replay persists the state; SETUPS servers restore it in turn (one
    traced server when traced, after one traced replay); the last server
    stays up. Then rounds of an idle slice, a busy slice and another replay
    repeat while the next round still fits, so replays and both kinds of
    read sample the whole run and host drift during it weighs on each alike.
    The server idles while a replay runs, so no two measured things overlap."""
    measured = Measured()
    replay_spans, server_spans = work / REPLAY_SPANS, work / SERVER_SPANS
    expected = world.manifest["parsed"]
    start = time.perf_counter()

    def replay(trace_path: Path | None = None) -> None:
        result = run_replay(world, trace_path)
        check_replay(checks, result["summary"], world.manifest)
        if trace_path is None:
            measured.replays.append(result)
        else:
            measured.traced_replay = result

    replay()
    if traced:
        replay(replay_spans)
    server = load = None
    try:
        for i in range(1 if traced else SETUPS):
            if server is not None:
                server.stop()
            server = Server(world.config, work, str(i), server_spans if traced else None)
            measured.setups.append(server.setup_s)
            checks.record(server.events == expected,
                          f"restored {server.events} events, expected {expected}")
        load = LiveLoad(server.port, world, GET_RATE, seed, checks)
        rounds_start = time.perf_counter()
        while True:
            load.run_slice(busy=False)
            load.run_slice(busy=True)
            replay()
            measured.rounds += 1
            now = time.perf_counter()
            if now - start + (now - rounds_start) / measured.rounds > seconds:
                break
        measured.live = load.result
        final = server.health()
        checks.record(final == server.events + load.result.posted,
                      f"/health events {final} != restored {server.events} "
                      f"+ posted {load.result.posted}")
    finally:
        if load is not None:
            load.close()
        if server is not None:
            measured.server_report = server.stop()
    return measured


def run(name: str, seed: int, seconds: float, traced: bool,
        work: Path) -> tuple[dict, list, Checks]:
    """Returns (metrics as name -> (value, unit), report lines, checks)."""
    import spans
    import world as world_module

    spec = workloads()[name]
    started = time.perf_counter()
    world = world_module.generate(work / "world", seed, spec.shape, cache_dir=WORK / "cache")
    manifest = world.manifest
    checks = Checks()
    lines = [f"workload {name}: {spec.why}",
             f"world: seed {seed}, {manifest['lines']} history lines, "
             f"{manifest['tail_posts']} tail readings, {manifest['firings']} oracle firings; "
             f"generated in {time.perf_counter() - started:.1f} s"]
    measured = measure(world, seconds, seed, traced, work, checks)
    replays, traced_replay = measured.replays, measured.traced_replay
    setups, live, report = measured.setups, measured.live, measured.server_report

    replay_times = [r["replay_s"] for r in replays]
    samples = {"idle GET": len(live.idle_ms), "busy GET": len(live.busy_ms),
               "POST": len(live.post_ms)}
    lines += [
        "replay wall times: " + ", ".join(f"{t:.2f} s" for t in replay_times)
        + (f"; traced {traced_replay['replay_s']:.2f} s" if traced else "")
        + "; Pipeline(load_config) median "
        f"{statistics.median(r['setup_s'] for r in replays) * 1000:.1f} ms",
        "server start-ups: " + ", ".join(f"{t:.2f} s" for t in setups)
        + f"; {measured.rounds} rounds of idle slice, busy slice, replay"
        + "; samples: " + ", ".join(f"{k} {v}" for k, v in samples.items()),
        f"open-loop reader lateness: p50 {statistics.median(live.late_ms):.2f} ms, "
        f"max {max(live.late_ms):.2f} ms",
        f"firings reported by POST replies: {live.post_firings} (unchecked: "
        "GET /forecast drains the engines, so this count depends on read timing)",
    ]
    if not live.tail_left:
        lines.append("note: the gateway posted the whole tail; later busy slices "
                     "had no writer")
    short = [k for k, v in samples.items() if v < MIN_TAIL_SAMPLES]
    if short:
        lines.append(f"note: fewer than {MIN_TAIL_SAMPLES} samples for {', '.join(short)}; "
                     "p90 is not supported at this --seconds")

    if not traced:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "replay_lines_per_s": (manifest["lines"] / statistics.median(replay_times), "1/s"),
            "peak_rss_mb": (max([r["peak_rss_mb"] for r in replays]
                                + [report.get("peak_rss_mb", 0.0)]), "MB"),
            "ingest_rps": (live.posted / live.busy_s if live.busy_s else 0.0, "1/s"),
            "post_p50_ms": (statistics.median(live.post_ms), "ms"),
        }
        # printed, not in the result: on a shared host these move with the
        # neighbours' load far more than with the program's work (NOTES.md)
        lines += [f"  {name:32s} {value:14.4f} ms (not gated)" for name, value in (
            ("post_p90_ms", _p90(live.post_ms)),
            ("forecast_idle_p50_ms", statistics.median(live.idle_ms)),
            ("forecast_idle_p90_ms", _p90(live.idle_ms)),
            ("forecast_busy_p50_ms", statistics.median(live.busy_ms)),
            ("forecast_busy_p90_ms", _p90(live.busy_ms)))]
    else:
        server_group = spans.read_spans(work / SERVER_SPANS)
        groups = [spans.read_spans(work / REPLAY_SPANS), server_group]
        metrics = spans.layer_report(groups)
        metrics.update({
            "store.triples": (traced_replay["triples"], "count"),
            "store.inferred": (traced_replay["inferred"], "count"),
            "httpd.post_wire_ms": (statistics.median(live.post_ms)
                                   - spans.inclusive_p50_ms(server_group, "httpd.post"), "ms"),
            "trace.spans": (sum(map(len, groups)), "count"),
            "trace.replay_overhead_pct": (
                100 * (traced_replay["replay_s"] / statistics.median(replay_times) - 1), "%"),
            "loadgen.late_max_ms": (max(live.late_ms), "ms"),
        })
    if checks.reasons:
        lines.append("failed checks: " + "; ".join(checks.reasons))
    lines.append(f"checks: {checks.attempted} attempted, {checks.failed} failed; "
                 f"run took {time.perf_counter() - started:.1f} s")
    return metrics, lines, checks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its servers (the finally blocks run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        _require_program()
        if args.workload not in workloads():
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(workloads())}")
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        WORK.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        try:
            metrics, lines, checks = run(args.workload, args.seed, args.seconds,
                                         bool(args.trace), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:32s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
