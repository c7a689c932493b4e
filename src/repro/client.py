"""A thin HTTP client for the ``repro serve`` experiment daemon.

:class:`ServeClient` wraps the versioned JSON API in plain method calls —
:meth:`~ServeClient.submit` a scenario/cells document, read
:meth:`~ServeClient.job`, block with :meth:`~ServeClient.wait` (a
long-poll: one request per job that finishes within a hold), fetch the
rendered :meth:`~ServeClient.result` — using only :mod:`urllib.request`,
so a client needs nothing beyond the standard library::

    from repro.client import ServeClient

    client = ServeClient("http://127.0.0.1:8321")
    job = client.submit({"scenario": "rob-scaling", "instructions": 5000})
    done = client.wait(job["id"])
    print(client.result(job["id"]))          # rendered table
    print(client.result(job["id"], format="json"))  # raw counters

API errors surface as :class:`ServeError` carrying the HTTP status and the
daemon's ``error`` message (e.g. a 400 for an invalid submission, a 409
for a result requested before the job finished).

**Resilience.** With ``retries`` set, *idempotent* GETs that fail with a
connection error are retried with exponential backoff before giving up —
a flaky network or a daemon mid-restart no longer kills a long-poll.
Submissions (POSTs) are never retried by this layer: the daemon's request
coalescing makes an *intentional* duplicate submission cheap, but a blind
retry could still double-submit, so exactly-once stays the caller's call.
:meth:`~ServeClient.wait` additionally tolerates transient connection
errors between requests regardless of ``retries``, honouring only its own
deadline.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional

from repro import faults
from repro.log import get_logger
from repro.serve.http import MAX_WAIT_S
from repro.serve.service import DONE, FAILED

_log = get_logger(__name__)

#: Terminal job states — :meth:`ServeClient.wait` returns on either.
_TERMINAL_STATES = (DONE, FAILED)


class ServeError(RuntimeError):
    """An error response from a ``repro serve`` daemon.

    Carries the HTTP ``status`` and the daemon's ``message`` so callers can
    branch on conflict-vs-bad-request without parsing strings.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"serve API error {status}: {message}")
        self.status = status
        self.message = message


class ServeClient:
    """Talk to a running ``repro serve`` daemon over HTTP+JSON."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 0,
        retry_backoff: float = 0.2,
    ) -> None:
        """``base_url`` like ``http://127.0.0.1:8321``; ``timeout`` per request.

        ``retries`` re-issues *idempotent GETs* that fail with a connection
        error, sleeping ``retry_backoff * 2**attempt`` seconds between
        attempts.  HTTP error responses (the daemon answered) and POSTs are
        never retried.
        """
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.retry_backoff = max(0.0, float(retry_backoff))

    # ------------------------------------------------------------------
    def _request(
        self, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Any:
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        # Only idempotent GETs may retry; a POST is exactly-once here.
        attempts = 1 + (self.retries if payload is None else 0)
        for attempt in range(attempts):
            request = urllib.request.Request(url, data=data, headers=headers)
            try:
                if payload is None and faults.drop_http_response():
                    raise urllib.error.URLError("injected drop-http-response")
                with urllib.request.urlopen(
                    request, timeout=self.timeout
                ) as response:
                    body = response.read()
                    content_type = response.headers.get("Content-Type", "")
            except urllib.error.HTTPError as error:
                raw = error.read()
                try:
                    message = json.loads(raw).get(
                        "error", raw.decode("utf-8", "replace")
                    )
                except ValueError:
                    message = raw.decode("utf-8", "replace")
                raise ServeError(error.code, message) from None
            except urllib.error.URLError as error:
                if attempt + 1 < attempts:
                    delay = self.retry_backoff * (2**attempt)
                    _log.info(
                        "GET %s failed (%s); retrying in %.2fs (%d/%d)",
                        path,
                        error.reason,
                        delay,
                        attempt + 1,
                        self.retries,
                    )
                    if delay:
                        time.sleep(delay)
                    continue
                raise ServeError(0, f"cannot reach {url}: {error.reason}") from None
            if content_type.startswith("application/json"):
                return json.loads(body)
            return body.decode("utf-8")
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """``GET /v1/health`` — liveness probe."""
        return self._request("/v1/health")

    def submit(self, document: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /v1/jobs`` — submit a scenario/cells document, return the job snapshot."""
        return self._request("/v1/jobs", payload=document)

    def jobs(self) -> List[Dict[str, Any]]:
        """``GET /v1/jobs`` — every job's status snapshot."""
        return self._request("/v1/jobs")["jobs"]

    def job(self, job_id: str) -> Dict[str, Any]:
        """``GET /v1/jobs/<id>`` — one job's status, stats and timings."""
        return self._request(f"/v1/jobs/{job_id}")

    def result(self, job_id: str, format: str = "table") -> Any:
        """``GET /v1/jobs/<id>/result`` — rendered table (str) or raw counters (dict)."""
        return self._request(f"/v1/jobs/{job_id}/result?format={format}")

    def store_stats(self) -> Dict[str, Any]:
        """``GET /v1/store/stats`` — per-kind artifact counts/bytes and eviction info."""
        return self._request("/v1/store/stats")

    def wait(
        self, job_id: str, timeout: Optional[float] = None, poll_interval: float = 0.2
    ) -> Dict[str, Any]:
        """Block until the job reaches a terminal state; return its snapshot.

        Each request is a long-poll, ``GET /v1/jobs/<id>?wait=S``, which the
        daemon answers when the job finishes, so a job shorter than one hold
        costs one request.  The hold ``S`` is the smallest of the time left
        before ``timeout``, half the per-request socket ``timeout`` (so the
        socket never times out first) and the daemon's
        :data:`~repro.serve.http.MAX_WAIT_S`.

        ``poll_interval`` is only the pause before asking again after a
        connection error, or after a non-terminal answer that came back
        before its hold was up (a shutting-down daemon, or an older one that
        ignores ``wait``), so the client never spins.  A transient
        connection error does not abort the wait — the daemon may be
        mid-restart or the network mid-hiccup.  Raises :class:`ServeError`
        (status 0) if ``timeout`` seconds elapse first (with no timeout, a
        daemon that never comes back means waiting forever — pass a timeout
        when the daemon's liveness is in question).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        state = "unknown"
        while True:
            hold = min(self.timeout / 2, MAX_WAIT_S)
            if deadline is not None:
                hold = max(0.0, min(hold, deadline - time.monotonic()))
            hold = round(hold, 3)
            asked = time.monotonic()
            try:
                snapshot = self._request(f"/v1/jobs/{job_id}?wait={hold}")
            except ServeError as error:
                if error.status != 0:
                    raise  # The daemon answered: a real API error.
                _log.info(
                    "wait for job %s failed (%s); asking again",
                    job_id,
                    error.message,
                )
                early = True
            else:
                state = snapshot["state"]
                if state in _TERMINAL_STATES:
                    return snapshot
                early = time.monotonic() - asked < hold
            if deadline is not None and time.monotonic() >= deadline:
                raise ServeError(
                    0, f"timed out waiting for job {job_id} (state: {state})"
                )
            if early:
                time.sleep(poll_interval)
