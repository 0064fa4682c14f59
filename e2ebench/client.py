"""Closed-loop HTTP client of ``repro serve`` (stdlib ``http.client``).

One job is: ``POST /v1/jobs``, read the job's SSE stream until the
terminal ``state`` event, then download its artifacts.  Completion is
event-driven — the client blocks on the stream, it never polls — and
the client holds at most two connections: one kept alive for submits
and downloads, one per job for the event stream (the server frames SSE
by closing it).
"""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass, field
from typing import Any

TERMINAL = ("succeeded", "failed")


class ServiceError(RuntimeError):
    """An HTTP status the closed loop cannot continue from."""


@dataclass
class JobOutcome:
    """What one submitted job cost and returned."""

    latency: float = 0.0
    state: str = ""
    error: str | None = None
    queue_wait: float = 0.0
    elapsed_seconds: float | None = None
    artifacts: dict[str, bytes] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.state == "succeeded" and self.error is None


class ServiceClient:
    """Drives one server over a real socket."""

    def __init__(self, host: str, port: int, timeout: float = 120.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def close(self) -> None:
        self._conn.close()

    def _request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (http.client.HTTPException, OSError):
            # Never retried: the next request opens a fresh connection.
            self._conn.close()
            raise

    def _events(self, job_id: str) -> list[tuple[float, str, dict[str, Any]]]:
        """Every SSE event of the job with its arrival time, until the
        stream ends (the job is terminal)."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status != 200:
                raise ServiceError(f"events of {job_id}: HTTP {response.status}")
            events: list[tuple[float, str, dict[str, Any]]] = []
            kind, data = "message", ""
            while True:
                line = response.readline()
                if not line:
                    return events
                text = line.decode().rstrip("\r\n")
                if text.startswith("event:"):
                    kind = text[6:].strip()
                elif text.startswith("data:"):
                    data = text[5:].strip()
                elif not text and data:
                    payload = json.loads(data)
                    events.append((time.perf_counter(), kind, payload))
                    kind, data = "message", ""
                    if payload.get("event") == "state" and payload.get("state") in TERMINAL:
                        return events
        finally:
            conn.close()

    def run_job(self, body: bytes, artifacts: tuple[str, ...]) -> JobOutcome:
        """Submit ``body``, wait on its event stream, download ``artifacts``."""
        out = JobOutcome()
        start = time.perf_counter()
        try:
            status, data = self._request("POST", "/v1/jobs", body)
            if status != 202:
                out.error = f"submit: HTTP {status}: {data[:200]!r}"
                return out
            job_id = json.loads(data)["id"]
            arrivals: dict[str, float] = {}
            for arrived, kind, payload in self._events(job_id):
                if kind == "state":
                    out.state = payload["state"]
                    arrivals.setdefault(out.state, arrived)
                    if "error" in payload:
                        out.error = payload["error"]
                elif kind == "result":
                    out.elapsed_seconds = float(payload["elapsed_seconds"])
            if "queued" in arrivals and "running" in arrivals:
                out.queue_wait = arrivals["running"] - arrivals["queued"]
            if out.state != "succeeded":
                out.error = out.error or f"job ended {out.state or 'without a state'}"
                return out
            for name in artifacts:
                status, data = self._request("GET", f"/v1/jobs/{job_id}/artifacts/{name}")
                if status != 200:
                    out.error = f"artifact {name}: HTTP {status}"
                    return out
                out.artifacts[name] = data
        except (ServiceError, http.client.HTTPException, OSError, ValueError) as exc:
            out.error = f"{type(exc).__name__}: {exc}"
        finally:
            out.latency = time.perf_counter() - start
        return out
