"""A test client that talks to the shipped server over a loopback socket.

Entering the client binds :class:`repro.server.http.Server` to
``127.0.0.1:0`` and serves it on a daemon thread; every request is a
real HTTP exchange sent with :mod:`http.client`.  A synchronous test
can POST a job, keep polling ``GET /jobs/{id}``, and watch the job
progress between requests — the shape of the httpx ``TestClient``,
without the dependency.

Leaving the client runs :meth:`Server.stop`, the same shutdown
``repro serve`` runs on SIGTERM, so every test also exercises the drain.
"""

from __future__ import annotations

import http.client
import json as jsonlib
import time
from typing import Any, Dict, List, Optional

from .http import App, Server


class ClientResponse:
    """A buffered response as seen by a test."""

    def __init__(self, status: int, headers: Dict[str, str], body: bytes):
        self.status_code = status
        self.headers = headers
        self.content = body

    @property
    def text(self) -> str:
        return self.content.decode("utf-8")

    def json(self) -> Any:
        return jsonlib.loads(self.content)

    def events(self) -> List[Dict[str, Any]]:
        """Parse a ``text/event-stream`` body into event dicts."""
        events = []
        for block in self.text.split("\n\n"):
            for line in block.splitlines():
                if line.startswith("data: "):
                    events.append(jsonlib.loads(line[len("data: "):]))
        return events


class TestClient:
    """Serve an :class:`repro.server.http.App` on loopback and call it."""

    __test__ = False  # keep pytest from collecting this as a test class

    def __init__(self, app: App, timeout: float = 120.0):
        self.app = app
        self.timeout = timeout
        self._server: Optional[Server] = None

    def __enter__(self) -> "TestClient":
        self._server = Server(self.app, "127.0.0.1", 0)
        self._server.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._server.stop()

    # ------------------------------------------------------------------
    def request(
        self,
        method: str,
        path: str,
        json: Any = None,
        body: bytes = b"",
    ) -> ClientResponse:
        if json is not None:
            body = jsonlib.dumps(json).encode("utf-8")
        connection = http.client.HTTPConnection(
            "127.0.0.1", self._server.port, timeout=self.timeout
        )
        try:
            connection.request(method.upper(), path, body=body)
            response = connection.getresponse()
            return ClientResponse(
                response.status,
                {key.lower(): value for key, value in response.getheaders()},
                response.read(),
            )
        finally:
            connection.close()

    def get(self, path: str) -> ClientResponse:
        return self.request("GET", path)

    def post(self, path: str, json: Any = None, body: bytes = b"") -> ClientResponse:
        return self.request("POST", path, json=json, body=body)

    def delete(self, path: str) -> ClientResponse:
        return self.request("DELETE", path)

    # ------------------------------------------------------------------
    def wait_for_job(
        self, job_id: str, timeout: float = 60.0, poll: float = 0.02
    ) -> Dict[str, Any]:
        """Poll ``GET /jobs/{id}`` until the job settles; returns detail."""
        deadline = time.monotonic() + timeout
        while True:
            detail = self.get(f"/jobs/{job_id}").json()
            if detail["status"] in ("done", "failed", "cancelled"):
                return detail
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {detail['status']} after {timeout}s"
                )
            time.sleep(poll)
