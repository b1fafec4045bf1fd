"""HTTP dissemination endpoints.

POST /observations and POST /ik feed the same pipeline path as file
replay; GET /forecast, /rules and /health serve read snapshots. Any JSON
display client (billboard, phone app) can sit on this contract.

A route returns its 200 payload or raises; ``ApiHandler._answer`` sends
either. Each method has one table from error class to status, because the
same error can mean different things: an unknown region is the missing
resource of a GET (404) but a bad field of a POST (400). An error gets
``{"error": <code>, "detail": <message>}`` (plus ``term`` for an unaligned
term), and an exception the table does not map gets a JSON 500
``{"error": "Internal", ...}`` on a connection that stays usable. A
request the stdlib's parser refuses (a bad request line, an unsupported
method) gets the same JSON shape, with its status named in ``error``. Any
reply after which the connection closes says ``Connection: close``: those,
and the replies to a body that cannot be read in step (411 for a
``Transfer-Encoding``, 413, and 400 for a bad ``Content-Length``).
"""

import json
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from ..cep.engine import OutOfOrderError
from ..cep.rules import rule_to_text
from ..errors import SemDroughtError
from ..forecast import InsufficientBaselineError, NoDataError
from ..model import mint_observation_iri
from .config import NotFoundError
from .pipeline import Pipeline, UnknownRegionError

MAX_BODY_BYTES = 1 << 20    # a longer request body is refused unread


class BadRequestError(SemDroughtError):
    code = "BadRequest"


class PayloadTooLargeError(SemDroughtError):
    code = "PayloadTooLarge"


class LengthRequiredError(SemDroughtError):
    code = "LengthRequired"


# (error class, status) per method, the first match wins
GET_STATUSES = ((BadRequestError, 400), (UnknownRegionError, 404), (NoDataError, 404),
                (NotFoundError, 404), (InsufficientBaselineError, 503))
POST_STATUSES = ((OutOfOrderError, 409), (PayloadTooLargeError, 413), (LengthRequiredError, 411),
                 (NotFoundError, 404), (SemDroughtError, 400))


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
        if self.close_connection:
            self.send_header("Connection", "close")
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def send_error(self, code, message=None, explain=None):
        """The stdlib's reply to a request it cannot route (a bad request
        line, an unsupported method, oversized headers), as JSON, on a
        connection that then closes."""
        status = HTTPStatus(code)
        self.close_connection = True
        self._send(status, {"error": status.name.title().replace("_", ""),
                            "detail": message or status.phrase})

    def _read_body(self) -> str:
        if "Transfer-Encoding" in self.headers:
            self.close_connection = True    # the body's end is unknown
            raise LengthRequiredError(
                "a request body needs a Content-Length, not Transfer-Encoding")
        length = self.headers.get("Content-Length", "0")
        if not length.isdecimal():
            self.close_connection = True    # the body's end is unknown
            raise BadRequestError("Content-Length must be a non-negative integer")
        digits = length.lstrip("0")     # int() reads at most 4300 digits
        if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits or 0) > MAX_BODY_BYTES:
            self.close_connection = True    # the body is left unread
            raise PayloadTooLargeError(f"body exceeds {MAX_BODY_BYTES} bytes")
        try:
            return self.rfile.read(int(digits or 0)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BadRequestError(f"body is not UTF-8: {exc}")

    def do_GET(self):
        self._answer(self._get, GET_STATUSES)

    def do_POST(self):
        self._answer(self._post, POST_STATUSES)

    def _answer(self, route, statuses) -> None:
        """The only reply: ``route()``'s payload with 200, or its error with
        the status ``statuses`` maps it to, or a JSON 500."""
        try:
            status, payload = 200, route()
        except Exception as exc:
            status = next((mapped for cls, mapped in statuses if isinstance(exc, cls)), 500)
            if status == 500:   # the connection stays usable for the next request
                self.server.handle_error(self.request, self.client_address)  # traceback to stderr
                payload = {"error": "Internal", "detail": f"{type(exc).__name__}: {exc}"}
            else:
                payload = {"error": exc.code, "detail": str(exc)}
                if getattr(exc, "term", ""):
                    payload["term"] = exc.term
        self._send(status, payload)

    def _get(self) -> dict:
        url = urlparse(self.path)
        pipeline = self.server.pipeline
        if url.path == "/health":
            return {"status": "ok", "events": pipeline.event_count}
        if url.path == "/rules":
            return {"rules": [rule_to_text(r) for r in pipeline.rules]}
        if url.path == "/forecast":
            query = parse_qs(url.query)
            region = query.get("region", [None])[0]
            if not region:
                raise BadRequestError("region is required")
            try:
                bulletin = pipeline.bulletin(region, query.get("period", [None])[0])
            except ValueError as exc:   # the period is not YYYY-MM
                raise BadRequestError(str(exc)) from exc
            return bulletin.to_json_dict()
        raise NotFoundError(f"no route {url.path}")

    def _post(self) -> dict:
        url = urlparse(self.path)
        pipeline = self.server.pipeline
        body = self._read_body()    # on every route, so the next request starts after it
        if url.path == "/observations":
            obs, firings = pipeline.ingest_payload("json", body)
            iri = mint_observation_iri(pipeline.ns, obs.sensor_id, obs.timestamp)
            return {"accepted": True, "id": iri.value, "firings": len(firings)}
        if url.path == "/ik":
            return {"accepted": True, "firings": len(pipeline.ingest_ik_json(body))}
        raise NotFoundError(f"no route {url.path}")


def serve(pipeline: Pipeline, host: str | None = None, port: int | None = None) -> ApiServer:
    """Bind and return the server; caller drives serve_forever/shutdown."""
    address = (
        host if host is not None else pipeline.config.http_host,
        port if port is not None else pipeline.config.http_port,
    )
    return ApiServer(address, pipeline)
