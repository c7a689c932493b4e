"""Long-polling job status: ``GET /v1/jobs/<id>?wait=S`` and ``ServeClient.wait``.

The daemon holds a status request until the job settles, the hold runs
out (clamped to ``MAX_WAIT_S``) or the service shuts down, so a client
waiting on a job makes one request per hold instead of a stream of
polls.  The tests pin when a long-poll answers, how the route rejects bad
holds, how many requests a client wait costs, and that the client pauses
``poll_interval`` against a daemon that ignores ``wait``.
"""

from __future__ import annotations

import json
import random
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.client import ServeClient, ServeError
from repro.engine.store import ArtifactStore
from repro.serve import http as serve_http
from repro.serve import make_server, serve_until_shutdown
from repro.serve.service import DONE, QUEUED, ExperimentService, JobRecord

ONE_CELL = {
    "cells": [{"benchmark": "gzip", "scheme": "predicate"}],
    "instructions": 1500,
}


@pytest.fixture
def server(tmp_path):
    store = ArtifactStore(str(tmp_path / "cache"))
    service = ExperimentService(store, jobs=1, workers=1, default_instructions=1500)
    server = make_server(service, host="127.0.0.1", port=0)
    # Count every status request (``/v1/jobs/<id>``, any query) at the handler.
    server.status_requests = 0

    class CountingHandler(server.RequestHandlerClass):
        def do_GET(self):  # noqa: N802 - http.server API
            parts = [part for part in self.path.split("?")[0].split("/") if part]
            if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                server.status_requests += 1
            super().do_GET()

    server.RequestHandlerClass = CountingHandler
    thread = threading.Thread(
        target=serve_until_shutdown, args=(server, False), daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture
def client(server):
    return ServeClient(f"http://127.0.0.1:{server.server_address[1]}", timeout=30)


def pending_job(service: ExperimentService) -> JobRecord:
    """A queued job that no scheduler will run: it settles only when a test
    says so, which makes every long-poll's answer time deterministic."""
    record = JobRecord(id=f"pending-{len(service.list_jobs())}", kind="cells", title="held")
    with service._lock:
        service._records[record.id] = record
    return record


def settle(service: ExperimentService, record: JobRecord) -> None:
    record.state = DONE
    service._settle(record)


def timed(call):
    started = time.monotonic()
    value = call()
    return value, time.monotonic() - started


class TestLongPollRoute:
    def test_answers_when_the_job_settles_not_when_the_hold_ends(self, server, client):
        record = pending_job(server.service)
        timer = threading.Timer(0.3, settle, args=(server.service, record))
        timer.start()
        try:
            snapshot, elapsed = timed(
                lambda: client._request(f"/v1/jobs/{record.id}?wait=30")
            )
        finally:
            timer.cancel()
        assert snapshot["state"] == DONE
        assert 0.25 <= elapsed < 10

    def test_a_real_job_finishes_inside_one_long_poll(self, server, client):
        job = client.submit(ONE_CELL)
        snapshot = client._request(f"/v1/jobs/{job['id']}?wait=30")
        assert snapshot["state"] == DONE, snapshot["error"]
        assert server.status_requests == 1

    def test_zero_wait_and_terminal_jobs_answer_at_once(self, server, client):
        record = pending_job(server.service)
        snapshot, elapsed = timed(lambda: client._request(f"/v1/jobs/{record.id}?wait=0"))
        assert snapshot["state"] == QUEUED
        assert elapsed < 1
        settle(server.service, record)
        snapshot, elapsed = timed(lambda: client._request(f"/v1/jobs/{record.id}?wait=30"))
        assert snapshot["state"] == DONE
        assert elapsed < 1

    @pytest.mark.parametrize("value", ["", "soon", "-1", "nan", "inf", "1e400"])
    def test_a_bad_wait_is_400(self, server, client, value):
        record = pending_job(server.service)
        with pytest.raises(ServeError) as excinfo:
            client._request(f"/v1/jobs/{record.id}?wait={value}")
        assert excinfo.value.status == 400
        assert "invalid wait" in excinfo.value.message

    def test_an_unknown_id_is_still_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("/v1/jobs/no-such-job?wait=5")
        assert excinfo.value.status == 404

    def test_the_hold_is_clamped(self, server, client, monkeypatch):
        monkeypatch.setattr(serve_http, "MAX_WAIT_S", 0.2)
        record = pending_job(server.service)
        snapshot, elapsed = timed(
            lambda: client._request(f"/v1/jobs/{record.id}?wait=1000")
        )
        assert snapshot["state"] == QUEUED
        assert 0.15 <= elapsed < 5

    def test_shutdown_releases_a_pending_long_poll(self, server, client):
        record = pending_job(server.service)
        answers = []
        poll = threading.Thread(
            target=lambda: answers.append(
                timed(lambda: client._request(f"/v1/jobs/{record.id}?wait=30"))
            )
        )
        poll.start()
        time.sleep(0.3)  # let the request reach its wait
        server.service.shutdown(wait=False)
        poll.join(timeout=10)
        assert not poll.is_alive()
        (snapshot, elapsed), = answers
        assert snapshot["state"] == QUEUED
        assert elapsed < 5

    def test_a_restarted_service_holds_again(self, server, client):
        server.service.shutdown(wait=False)
        server.service.start()
        record = pending_job(server.service)
        snapshot, elapsed = timed(lambda: client._request(f"/v1/jobs/{record.id}?wait=0.3"))
        assert snapshot["state"] == QUEUED
        assert elapsed >= 0.25


def test_many_waiters_each_wake_on_their_own_job(tmp_path):
    """No lost wake-up: 16 waiters (more than cores) on 16 jobs settled in
    random order, with the interpreter switching threads every few µs."""
    service = ExperimentService(ArtifactStore(str(tmp_path / "cache")))
    records = [pending_job(service) for _ in range(16)]
    woke = {}

    def waiter(record):
        woke[record.id] = service.wait(record.id, timeout=30).state

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=waiter, args=(record,)) for record in records]
        for thread in threads:
            thread.start()
        for record in random.Random(7).sample(records, len(records)):
            settle(service, record)
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
        service.shutdown(wait=False)
    assert not any(thread.is_alive() for thread in threads)
    assert woke == {record.id: DONE for record in records}


class TestClientWait:
    def test_a_job_shorter_than_the_hold_costs_at_most_two_requests(
        self, server, client
    ):
        job = client.submit(ONE_CELL)
        done = client.wait(job["id"], timeout=120)
        assert done["state"] == DONE, done["error"]
        assert server.status_requests <= 2

    def test_the_deadline_still_bounds_the_wait(self, server, client):
        record = pending_job(server.service)
        with pytest.raises(ServeError) as excinfo:
            client.wait(record.id, timeout=0.3)
        assert excinfo.value.status == 0
        assert "timed out" in excinfo.value.message
        assert server.status_requests <= 2


class _NoWaitHandler(BaseHTTPRequestHandler):
    """An older daemon's status route: ignores ``?wait`` and answers at once,
    ``running`` for the first ``server.running`` requests, then ``done``."""

    def log_message(self, format, *args):  # noqa: A002
        pass

    def do_GET(self):  # noqa: N802 - http.server API
        self.server.asked.append(time.monotonic())
        state = "running" if len(self.server.asked) <= self.server.running else DONE
        body = json.dumps({"id": "old", "state": state}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def test_the_client_pauses_against_a_daemon_that_ignores_wait():
    old = ThreadingHTTPServer(("127.0.0.1", 0), _NoWaitHandler)
    old.asked, old.running = [], 3
    thread = threading.Thread(target=old.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServeClient(f"http://127.0.0.1:{old.server_address[1]}", timeout=30)
        done = client.wait("old", timeout=30, poll_interval=0.2)
    finally:
        old.shutdown()
        old.server_close()
        thread.join(timeout=10)
    assert done["state"] == DONE
    assert len(old.asked) == 4
    gaps = [later - earlier for earlier, later in zip(old.asked, old.asked[1:])]
    assert min(gaps) >= 0.19
