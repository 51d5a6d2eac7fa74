"""The HTTP transport of ``repro serve``: one threaded stdlib server.

:class:`Server` is a :class:`http.server.ThreadingHTTPServer` whose
single request handler dispatches a ``(method, path template) →
handler`` table (:class:`App`) to plain ``def`` handlers.  Every
connection gets its own thread and carries one request
(``Connection: close``); this is a lab control plane, not a
production edge.

What this module checks, because it comes from outside the program:
JSON bodies (422 with FastAPI's ``{"detail": [{loc, msg, type}]}``
shape, via :func:`validate`), unknown routes (404) and methods (405),
bodies above ``_MAX_BODY_BYTES`` (413); ``http.server`` itself answers
oversized request lines and headers with 414/431.  A handler bug is a
500 carrying the traceback.

A handler returns ``(status, body)``: a dict is sent as JSON, anything
else is an iterator of event dicts, written straight to the socket as
server-sent events until it ends.

:func:`serve` blocks until SIGINT/SIGTERM, then runs
:meth:`Server.stop` — stop accepting, drain the job manager (which
drains the shared process pool), close the socket.  A second signal
aborts the drain: it cancels every job, terminates the pool's workers
and raises ``KeyboardInterrupt``.
"""

from __future__ import annotations

import json
import signal
import threading
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterable, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

import pydantic

from ..analysis.parallel import shutdown_pool

_MAX_BODY_BYTES = 16 * 1024 * 1024


class HTTPError(Exception):
    """Raise from a handler to produce a JSON error response."""

    def __init__(self, status: int, detail: Any):
        super().__init__(f"{status}: {detail}")
        self.status = status
        self.detail = detail


def validate(model: type, payload: Any) -> Any:
    """Validate ``payload`` against a pydantic model or raise a 422.

    The 422 body mirrors FastAPI's shape: ``{"detail": [{loc, msg,
    type}, ...]}`` so clients written against the real framework keep
    working.
    """
    try:
        return model.model_validate(payload)
    except pydantic.ValidationError as exc:
        detail = [
            {
                "loc": list(error.get("loc", ())),
                "msg": error.get("msg", "invalid"),
                "type": error.get("type", "value_error"),
            }
            for error in exc.errors()
        ]
        raise HTTPError(422, detail) from None


class Request:
    """One routed request: app state, path/query parameters, body."""

    def __init__(
        self,
        state: SimpleNamespace,
        path_params: Dict[str, str],
        query: str,
        body: bytes,
    ):
        self.state = state
        self.path_params = path_params
        self.query_params: Dict[str, str] = dict(parse_qsl(query))
        self.body = body

    def json(self) -> Any:
        """The body parsed as JSON; 422 on malformed input."""
        if not self.body:
            raise HTTPError(
                422,
                [{"loc": ["body"], "msg": "request body required",
                  "type": "value_error.missing"}],
            )
        try:
            return json.loads(self.body)
        except ValueError:
            raise HTTPError(
                422,
                [{"loc": ["body"], "msg": "invalid JSON body",
                  "type": "value_error.json"}],
            ) from None


Handler = Callable[[Request], Tuple[int, Any]]


def _segments(path: str) -> Tuple[str, ...]:
    return tuple(part for part in path.strip("/").split("/") if part)


def _match(
    template: Tuple[str, ...], parts: Tuple[str, ...]
) -> Optional[Dict[str, str]]:
    if len(template) != len(parts):
        return None
    params: Dict[str, str] = {}
    for expected, actual in zip(template, parts):
        if expected.startswith("{") and expected.endswith("}"):
            params[expected[1:-1]] = actual
        elif expected != actual:
            return None
    return params


class App:
    """The route table plus the state every handler reads."""

    def __init__(self, routes: Dict[Tuple[str, str], Handler], **state):
        self.state = SimpleNamespace(**state)
        self.routes = [
            (method, _segments(path), handler)
            for (method, path), handler in routes.items()
        ]

    def dispatch(
        self, method: str, path: str, query: str, body: bytes
    ) -> Tuple[int, Any]:
        parts = _segments(path)
        allowed = False
        for route_method, template, handler in self.routes:
            params = _match(template, parts)
            if params is None:
                continue
            if route_method != method:
                allowed = True
                continue
            try:
                return handler(Request(self.state, params, query, body))
            except HTTPError as exc:
                return exc.status, {"detail": exc.detail}
            except Exception:  # noqa: BLE001 - map handler bugs to 500
                return 500, {"detail": "internal server error",
                             "traceback": traceback.format_exc()}
        if allowed:
            return 405, {"detail": "method not allowed"}
        return 404, {"detail": "not found"}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: "Server"

    def _handle(self) -> None:
        try:
            length = int(self.headers.get("content-length") or 0)
            if length < 0:
                raise ValueError(length)
        except ValueError:
            self._send_json(400, {"detail": "bad content-length"})
            return
        if length > _MAX_BODY_BYTES:
            self._send_json(413, {"detail": "body too large"})
            return
        body = self.rfile.read(length) if length else b""
        url = urlsplit(self.path)
        status, payload = self.server.app.dispatch(
            self.command, url.path, url.query, body
        )
        if isinstance(payload, dict):
            self._send_json(status, payload)
        else:
            self._send_events(status, payload)

    do_GET = do_POST = do_DELETE = do_PUT = do_PATCH = _handle

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("content-type", "application/json")
        self.send_header("content-length", str(len(body)))
        self.send_header("connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_events(self, status: int, events: Iterable[dict]) -> None:
        # no content-length: the stream ends when the connection closes
        self.send_response(status)
        self.send_header("content-type", "text/event-stream")
        self.send_header("cache-control", "no-cache")
        self.send_header("connection", "close")
        self.end_headers()
        try:
            for event in events:
                self.wfile.write(
                    f"event: {event['type']}\n"
                    f"data: {json.dumps(event, sort_keys=True)}\n\n"
                    .encode("utf-8")
                )
                self.wfile.flush()
        except ConnectionError:  # client went away mid-stream
            pass

    def log_message(self, format: str, *args: Any) -> None:
        pass  # no per-request access log


class Server(ThreadingHTTPServer):
    """``app`` bound to ``host:port`` (port 0 picks a free one)."""

    def __init__(self, app: App, host: str, port: int):
        super().__init__((host, port), _Handler)
        self.app = app

    @property
    def port(self) -> int:
        return self.server_address[1]

    def start(self) -> None:
        """Serve requests on a daemon thread."""
        threading.Thread(
            target=self.serve_forever, name="repro-http", daemon=True
        ).start()

    def stop(self) -> None:
        """Stop accepting, drain the job manager, close the socket."""
        self.shutdown()
        self.app.state.manager.shutdown()
        self.server_close()


class _Shutdown(Exception):
    pass


def serve(server: Server) -> None:
    """Serve until SIGINT/SIGTERM, then :meth:`Server.stop`."""

    def stop_on_signal(signum, frame):
        signal.signal(signal.SIGINT, abort_on_signal)
        signal.signal(signal.SIGTERM, abort_on_signal)
        raise _Shutdown

    def abort_on_signal(signum, frame):
        raise KeyboardInterrupt

    previous = {
        signum: signal.signal(signum, stop_on_signal)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        try:
            server.start()
            while True:
                signal.pause()
        except _Shutdown:
            pass
        try:
            server.stop()
        except KeyboardInterrupt:  # second signal: stop waiting for jobs
            for job in server.app.state.manager.snapshot():
                job.cancel_event.set()
            shutdown_pool()
            raise
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
