"""HTTP dissemination endpoints.

POST /observations and POST /ik feed the same pipeline path as file
replay; GET /forecast, /rules and /health serve read snapshots. Any JSON
display client (billboard, phone app) can sit on this contract.
"""

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from ..cep.engine import OutOfOrderError
from ..cep.rules import rule_to_text
from ..errors import SemDroughtError
from ..forecast import InsufficientBaselineError, NoDataError
from .pipeline import Pipeline, UnknownRegionError

MAX_BODY_BYTES = 1 << 20    # a longer request body is refused unread


class BadRequestError(SemDroughtError):
    code = "BadRequest"


class PayloadTooLargeError(SemDroughtError):
    code = "PayloadTooLarge"


class ApiServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address: tuple[str, int], pipeline: Pipeline):
        super().__init__(address, ApiHandler)
        self.pipeline = pipeline


class ApiHandler(BaseHTTPRequestHandler):
    server: ApiServer
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):   # keep test output quiet
        pass

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, exc: Exception) -> None:
        payload = {"error": getattr(exc, "code", "Error"), "detail": str(exc)}
        term = getattr(exc, "term", "")
        if term:
            payload["term"] = term
        self._send(status, payload)

    def _read_body(self) -> str:
        length = self.headers.get("Content-Length", "0")
        if not length.isdecimal():
            self.close_connection = True    # the body's end is unknown
            raise BadRequestError("Content-Length must be a non-negative integer")
        if int(length) > MAX_BODY_BYTES:
            self.close_connection = True    # the body is left unread
            raise PayloadTooLargeError(f"body exceeds {MAX_BODY_BYTES} bytes")
        try:
            return self.rfile.read(int(length)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BadRequestError(f"body is not UTF-8: {exc}")

    def do_GET(self):
        url = urlparse(self.path)
        pipeline = self.server.pipeline
        if url.path == "/health":
            self._send(200, {"status": "ok", "events": pipeline.event_count})
            return
        if url.path == "/rules":
            self._send(200, {"rules": [rule_to_text(r) for r in pipeline.rules]})
            return
        if url.path == "/forecast":
            query = parse_qs(url.query)
            region = query.get("region", [None])[0]
            period = query.get("period", [None])[0]
            if not region:
                self._send(400, {"error": "BadRequest", "detail": "region is required"})
                return
            try:
                bulletin = pipeline.bulletin(region, period)
            except (UnknownRegionError, NoDataError) as exc:
                self._error(404, exc)
            except InsufficientBaselineError as exc:
                self._error(503, exc)
            except ValueError as exc:
                self._send(400, {"error": "BadRequest", "detail": str(exc)})
            else:
                self._send(200, bulletin.to_json_dict())
            return
        self._send(404, {"error": "NotFound", "detail": f"no route {url.path}"})

    def do_POST(self):
        url = urlparse(self.path)
        pipeline = self.server.pipeline
        try:
            body = self._read_body()    # on every route, so the next request starts after it
            if url.path == "/observations":
                obs, firings = pipeline.ingest_payload("json", body)
                reply = {"accepted": True, "id": obs.id.value, "firings": len(firings)}
            elif url.path == "/ik":
                firings = pipeline.ingest_ik_json(body)
                reply = {"accepted": True, "firings": len(firings)}
            else:
                self._send(404, {"error": "NotFound", "detail": f"no route {url.path}"})
                return
        except OutOfOrderError as exc:
            self._error(409, exc)
        except PayloadTooLargeError as exc:
            self._error(413, exc)
        except SemDroughtError as exc:
            self._error(400, exc)
        else:
            self._send(200, reply)


def serve(pipeline: Pipeline, host: str | None = None, port: int | None = None) -> ApiServer:
    """Bind and return the server; caller drives serve_forever/shutdown."""
    address = (
        host if host is not None else pipeline.config.http_host,
        port if port is not None else pipeline.config.http_port,
    )
    return ApiServer(address, pipeline)
