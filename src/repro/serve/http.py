"""The HTTP skin of the experiment service: ``repro serve``'s daemon.

A deliberately small, versioned HTTP+JSON API over
:class:`~repro.serve.service.ExperimentService`, built on the stdlib
:class:`http.server.ThreadingHTTPServer` (no new dependencies):

==============================  =======================================
``POST /v1/jobs``               submit a scenario/cells job document;
                                returns ``202 {"id", "state", ...}``
``GET /v1/jobs``                list every job's status snapshot
``GET /v1/jobs/<id>``           one job's status, with per-job
                                ``EngineStats`` and ``JobTiming`` records;
                                ``?wait=S`` long-polls: the answer comes
                                once the job is done or failed, after
                                ``S`` seconds (at most ``MAX_WAIT_S``), or
                                when the daemon shuts down, whichever is
                                first
``GET /v1/jobs/<id>/result``    the finished job's result — rendered
                                table (``?format=table``, the default,
                                as ``text/plain``) or raw counters
                                (``?format=json``)
``GET /v1/store/stats``         per-kind artifact counts/bytes, the
                                eviction budget and what it removed
``GET /v1/health``              liveness probe with degradation detail
                                (workers lost, jobs timed out,
                                quarantined artifacts, journal-recovered
                                jobs) and the worker processes' pids and
                                peak resident set
==============================  =======================================

Errors are JSON too: ``400`` for invalid documents (the
:class:`~repro.serve.service.SubmitError` message verbatim) and for a
``wait`` that is not a finite number of seconds at or above 0, ``404`` for
unknown paths/ids, ``409`` for a result requested before the job finished.

:func:`make_server` binds (port ``0`` picks a free port — the chosen one is
in ``server.server_address``); :func:`serve_until_shutdown` runs the accept
loop and arranges a clean SIGTERM/SIGINT shutdown, which is what the CLI's
``repro serve`` command and the CI smoke test drive.
"""

from __future__ import annotations

import json
import math
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.serve.service import DONE, ExperimentService, SubmitError

#: The API version prefix every route lives under.
API_VERSION = "v1"

#: The longest hold (seconds) a ``GET /v1/jobs/<id>?wait=S`` long-poll
#: gets; a larger ``S`` is clamped to it.
MAX_WAIT_S = 30.0


class ServeHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ExperimentService`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: ExperimentService) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.quiet = True


class _Handler(BaseHTTPRequestHandler):
    """Routes ``/v1/...`` requests onto the server's service."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not getattr(self.server, "quiet", True):  # pragma: no cover - debug aid
            super().log_message(format, *args)

    @property
    def service(self) -> ExperimentService:
        return self.server.service  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    def _send(self, status: int, payload: Any, content_type: str = "application/json") -> None:
        if content_type == "application/json":
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
        else:
            body = str(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send(status, {"error": message})

    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        if parsed.path.rstrip("/") != f"/{API_VERSION}/jobs":
            self._error(404, f"unknown endpoint {parsed.path}")
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            self._error(400, "invalid Content-Length")
            return
        try:
            document = json.loads(self.rfile.read(length) or b"{}")
        except ValueError as error:
            self._error(400, f"invalid JSON body: {error}")
            return
        try:
            record = self.service.submit(document)
        except SubmitError as error:
            self._error(400, str(error))
            return
        self._send(202, record.snapshot())

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        if not parts or parts[0] != API_VERSION:
            self._error(404, f"unknown endpoint {parsed.path} (expected /{API_VERSION}/...)")
            return
        route = parts[1:]
        if route == ["health"]:
            payload = self.service.health()
            payload["version"] = API_VERSION
            self._send(200, payload)
            return
        if route == ["store", "stats"]:
            self._send(200, self.service.store_stats())
            return
        if route == ["jobs"]:
            self._send(
                200,
                {"jobs": [record.snapshot() for record in self.service.list_jobs()]},
            )
            return
        if len(route) >= 2 and route[0] == "jobs":
            try:
                record = self.service.job(route[1])
            except KeyError:
                self._error(404, f"unknown job id {route[1]!r}")
                return
            if len(route) == 2:
                self._serve_status(record, parsed.query)
                return
            if len(route) == 3 and route[2] == "result":
                self._serve_result(record, parsed.query)
                return
        self._error(404, f"unknown endpoint {parsed.path}")

    def _serve_status(self, record, query: str) -> None:
        waits = parse_qs(query, keep_blank_values=True).get("wait")
        if waits is not None:
            try:
                hold = float(waits[-1])
            except ValueError:
                hold = math.nan
            if not math.isfinite(hold) or hold < 0:
                self._error(400, f"invalid wait {waits[-1]!r} (expected seconds >= 0)")
                return
            record = self.service.wait(record.id, min(hold, MAX_WAIT_S))
        self._send(200, record.snapshot())

    def _serve_result(self, record, query: str) -> None:
        formats = parse_qs(query).get("format", ["table"])
        format_ = formats[-1]
        if format_ not in ("table", "json"):
            self._error(400, f"unknown result format {format_!r} (expected table|json)")
            return
        if record.state != DONE:
            self._error(
                409,
                f"job {record.id} has no result yet (state: {record.state}"
                + (f", error: {record.error}" if record.error else "")
                + ")",
            )
            return
        if format_ == "json":
            self._send(200, {"id": record.id, "cells": record.result_json})
            return
        self._send(200, record.result_text, content_type="text/plain; charset=utf-8")


# ----------------------------------------------------------------------
# Daemon entry points
# ----------------------------------------------------------------------
def make_server(
    service: ExperimentService, host: str = "127.0.0.1", port: int = 0
) -> ServeHTTPServer:
    """Bind the service to ``host:port`` (``port=0`` picks a free port)."""
    server = ServeHTTPServer((host, port), service)
    service.start()
    return server


def serve_until_shutdown(
    server: ServeHTTPServer, install_signal_handlers: bool = True
) -> None:
    """Run the accept loop until SIGTERM/SIGINT (or ``server.shutdown()``).

    The signal handler triggers :meth:`~socketserver.BaseServer.shutdown`
    from a helper thread (calling it from the handler's own frame would
    deadlock the accept loop) and then stops the service's workers, so a
    SIGTERM'd daemon exits cleanly and leaves no worker process behind —
    the contract the CI smoke test checks.  Stopping the service also
    answers every pending long-poll at once.
    """
    stop = threading.Event()

    def _shutdown(signum: Optional[int] = None, frame: Any = None) -> None:
        if stop.is_set():
            return
        stop.set()
        threading.Thread(target=server.shutdown, daemon=True).start()

    if install_signal_handlers:
        signal.signal(signal.SIGTERM, _shutdown)
        signal.signal(signal.SIGINT, _shutdown)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
        server.service.shutdown(wait=False)
