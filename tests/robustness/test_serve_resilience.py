"""Serve resilience: deadlines, lost workers, journal recovery, retries.

Four failure domains of the ``repro serve`` stack:

* **Deadlines** — a wedged job is failed at ``job_timeout`` and its
  coalescing claims released, so a duplicate submission re-plans and
  completes instead of hanging on the corpse.
* **Worker processes** — a job's worker killed mid-run fails that job
  with the lost-worker error, and the next job runs on a replacement;
  what a worker returns equals an in-process run of the same requests.
* **The job journal** — a restarted daemon replays its JSONL journal:
  finished jobs stay listable with their results servable, interrupted
  jobs are reported failed, never-started jobs are re-queued and run.
* **Client retries** — idempotent GETs survive injected connection drops
  with ``retries`` set, and :meth:`ServeClient.wait` tolerates dropped
  polls even without them.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.client import ServeClient, ServeError
from repro.engine.run import run_cells
from repro.engine.store import ArtifactStore
from repro.serve import make_server, serve_until_shutdown
from repro.serve.service import (
    DONE,
    FAILED,
    RUNNING,
    ExperimentService,
    JobJournal,
    JobTimeoutError,
    WorkerLostError,
    _result_row,
    parse_submission,
)

ONE_CELL = {
    "cells": [{"benchmark": "gzip", "scheme": "predicate"}],
    "instructions": 1500,
}


def _stat(pid) -> list:
    """The fields of ``/proc/<pid>/stat`` after the command name ([] if gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return []


def _running(pid: int) -> bool:
    """Whether ``pid`` names a live process (not gone, not a zombie)."""
    fields = _stat(pid)
    return bool(fields) and fields[0] != "Z"


def _group(pgid: int) -> list:
    """The live processes of process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat(entry)
            if len(fields) > 2 and fields[0] != "Z" and int(fields[2]) == pgid:
                members.append(int(entry))
    return members


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
class TestJobDeadline:
    def test_zero_timeout_rejected(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        with pytest.raises(ValueError, match="job_timeout"):
            ExperimentService(store, job_timeout=0)

    def test_fast_job_completes_under_deadline(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        service = ExperimentService(store, job_timeout=120.0)
        try:
            record = service.wait(service.submit(ONE_CELL).id, timeout=120)
            assert record.state == DONE, record.error
            assert record.result_text
        finally:
            service.shutdown(wait=True, timeout=10)

    def test_deadline_fails_wedged_job_and_releases_claims(
        self, activate_faults, tmp_path
    ):
        """The first job wedges; its duplicate must re-plan, not hang.

        The wedge is the first simulate launch sleeping in whichever worker
        process reaches it (a one-shot fault shared by every process);
        the orphaned run wakes after the deadline and finishes into the
        store.
        """
        activate_faults("stall-simulate:4")
        store = ArtifactStore(str(tmp_path / "cache"))
        service = ExperimentService(store, jobs=1, workers=2, job_timeout=2.0)
        try:
            first = service.submit(ONE_CELL)
            second = service.submit(ONE_CELL)
            service.wait(first.id, timeout=60)
            service.wait(second.id, timeout=60)
            # Exactly one of the two (whichever claimed the simulate keys
            # first) hit the deadline; the other — its coalescing waiter —
            # was woken by the claim release and ran the work itself.
            states = {first.state, second.state}
            assert states == {DONE, FAILED}
            failed = first if first.state == FAILED else second
            done = first if first.state == DONE else second
            assert "deadline" in failed.error
            assert failed.error.startswith(JobTimeoutError.__name__)
            assert done.result_text
            health = service.health()
            assert health["jobs_timed_out"] == 1
            assert health["status"] == "degraded"
        finally:
            service.shutdown(wait=True, timeout=10)

    def test_orphaned_run_finishes_into_the_store(self, activate_faults, tmp_path):
        activate_faults("stall-simulate:3")
        store = ArtifactStore(str(tmp_path / "cache"))
        service = ExperimentService(store, workers=1, job_timeout=1.0)
        try:
            record = service.wait(service.submit(ONE_CELL).id, timeout=60)
            assert record.state == FAILED
            assert record.error.startswith(JobTimeoutError.__name__)
            assert store.usage()["results"]["count"] == 0
            (orphan,) = service.health()["worker_pids"]
            deadline = time.monotonic() + 60
            while orphan in service.health()["worker_pids"]:
                assert time.monotonic() < deadline, "the orphaned run never ended"
                time.sleep(0.05)
            # Nothing else ran the cell: the orphan stored its result.
            assert store.usage()["results"]["count"] == 1
            retry = service.wait(service.submit(ONE_CELL).id, timeout=120)
            assert retry.state == DONE, retry.error
            assert retry.stats["results_loaded"] == 1
            assert retry.stats["simulations_run"] == 0
        finally:
            service.shutdown(wait=True, timeout=10)


# ----------------------------------------------------------------------
# Worker processes
# ----------------------------------------------------------------------
class TestWorkerProcesses:
    def test_killed_worker_fails_its_job_and_is_replaced(
        self, activate_faults, tmp_path
    ):
        # The first simulate launch sleeps, holding the job mid-run.
        activate_faults("stall-simulate:60")
        store = ArtifactStore(str(tmp_path / "cache"))
        service = ExperimentService(store, workers=1)
        try:
            record = service.submit(ONE_CELL)
            deadline = time.monotonic() + 60
            pids = []
            while not (record.state == RUNNING and pids):
                assert time.monotonic() < deadline, "the job never started"
                time.sleep(0.05)
                pids = service.health()["worker_pids"]
            (victim,) = pids
            os.kill(victim, signal.SIGKILL)
            service.wait(record.id, timeout=60)
            assert record.state == FAILED
            assert record.error.startswith(WorkerLostError.__name__)
            assert f"worker process {victim} died" in record.error
            health = service.health()
            assert health["workers_lost"] == 1
            assert health["status"] == "degraded"
            assert victim not in health["worker_pids"]

            retry = service.wait(service.submit(ONE_CELL).id, timeout=120)
            assert retry.state == DONE, retry.error
            (replacement,) = service.health()["worker_pids"]
            assert replacement != victim
        finally:
            service.shutdown(wait=True, timeout=10)

    def test_idle_worker_death_is_counted_and_replaced(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        service = ExperimentService(store, workers=1)
        try:
            first = service.wait(service.submit(ONE_CELL).id, timeout=120)
            assert first.state == DONE, first.error
            (victim,) = service.health()["worker_pids"]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while victim in service.health()["worker_pids"]:
                assert time.monotonic() < deadline, "the killed worker lingers"
                time.sleep(0.05)
            # The next job gets a fresh worker instead of the dead one.
            second = service.wait(service.submit(ONE_CELL).id, timeout=120)
            assert second.state == DONE, second.error
            health = service.health()
            assert health["workers_lost"] == 1
            assert health["status"] == "degraded"
            assert health["worker_pids"] and victim not in health["worker_pids"]
        finally:
            service.shutdown(wait=True, timeout=10)

    def test_workers_run_at_the_lowest_cpu_priority(self, tmp_path):
        """The service's own threads take a core ahead of a simulation."""
        own = os.getpriority(os.PRIO_PROCESS, 0)
        store = ArtifactStore(str(tmp_path / "cache"))
        service = ExperimentService(store, workers=1)
        try:
            record = service.wait(service.submit(ONE_CELL).id, timeout=120)
            assert record.state == DONE, record.error
            (worker,) = service.health()["worker_pids"]
            assert os.getpriority(os.PRIO_PROCESS, worker) == 19
            assert os.getpriority(os.PRIO_PROCESS, 0) == own
        finally:
            service.shutdown(wait=True, timeout=10)

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc/<pid>/stat")
    def test_workers_exit_when_the_service_process_is_killed(self, tmp_path):
        """A daemon killed outright cannot stop its workers; they notice."""
        import repro

        script = textwrap.dedent(
            f"""
            import sys, time
            from repro.engine.store import ArtifactStore
            from repro.serve.service import ExperimentService

            service = ExperimentService(ArtifactStore(sys.argv[1]), workers=2)
            first = service.submit({ONE_CELL!r})
            second = service.submit({ONE_CELL!r})
            service.wait(first.id, timeout=120)
            service.wait(second.id, timeout=120)
            print(first.state, second.state, *service.health()["worker_pids"], flush=True)
            time.sleep(120)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        daemon = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path / "cache")],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            first, second, *workers = daemon.stdout.readline().split()
            assert (first, second) == (DONE, DONE)
            assert workers
        finally:
            daemon.kill()
            daemon.wait(timeout=30)
            daemon.stdout.close()
        deadline = time.monotonic() + 10
        while any(_running(int(pid)) for pid in workers):
            assert time.monotonic() < deadline, f"workers {workers} outlived the daemon"
            time.sleep(0.1)

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc/<pid>/stat")
    def test_shutdown_kills_a_running_jobs_engine_pool(
        self, activate_faults, tmp_path
    ):
        """With ``jobs=2`` the worker forks an engine pool; none survives."""
        activate_faults("stall-simulate:60")  # holds one engine cell
        store = ArtifactStore(str(tmp_path / "cache"))
        service = ExperimentService(store, workers=1, jobs=2)
        record = service.submit(
            {
                "cells": [
                    {"benchmark": "gzip", "scheme": "predicate"},
                    {"benchmark": "twolf", "scheme": "predicate"},
                ],
                "instructions": 1500,
            }
        )
        deadline = time.monotonic() + 60
        group = []
        while len(group) < 2:  # the worker plus its engine pool
            assert time.monotonic() < deadline, "the engine pool never started"
            time.sleep(0.05)
            pids = service.health()["worker_pids"]
            group = _group(pids[0]) if pids else []
        service.shutdown(wait=False)
        deadline = time.monotonic() + 10
        while any(_running(pid) for pid in group):
            assert time.monotonic() < deadline, f"{group} outlived the shutdown"
            time.sleep(0.05)
        # After shutdown ``service.wait`` returns at once, so wait for the
        # worker thread to settle the job itself.
        assert record.done_event.wait(timeout=30), "the job never settled"
        assert record.state == FAILED
        assert record.error == "RuntimeError: interrupted by service shutdown"
        assert service.health()["workers_lost"] == 0

    def test_worker_rows_equal_an_in_process_run(self, tmp_path):
        document = {
            "cells": [
                {"benchmark": "gzip", "scheme": "conventional"},
                {"benchmark": "gzip", "scheme": "wish"},
                {"benchmark": "twolf", "scheme": "predicate-aware"},
            ],
            "instructions": 1500,
        }
        service = ExperimentService(ArtifactStore(str(tmp_path / "served")))
        try:
            record = service.wait(service.submit(document).id, timeout=120)
            health = service.health()
        finally:
            service.shutdown(wait=True, timeout=10)
        assert record.state == DONE, record.error
        assert health["worker_peak_rss_mb"] > 0
        requests = parse_submission(document).requests
        outcome = run_cells(
            requests,
            store=ArtifactStore(str(tmp_path / "in-process")),
            instructions=document["instructions"],
        )
        expected = [
            _result_row(
                outcome.results[(request.benchmark, request.label)],
                request.benchmark,
                request.scheme.describe(),
                request.label,
            )
            for request in requests
        ]
        assert record.result_json == expected


# ----------------------------------------------------------------------
# The job journal
# ----------------------------------------------------------------------
class TestJournalRecovery:
    def test_done_jobs_survive_restart_with_results(self, tmp_path):
        journal_path = str(tmp_path / "journal.jsonl")
        store = ArtifactStore(str(tmp_path / "cache"))
        service = ExperimentService(store, journal=JobJournal(journal_path))
        record = service.wait(service.submit(ONE_CELL).id, timeout=120)
        assert record.state == DONE, record.error
        service.shutdown(wait=True, timeout=10)

        revived = ExperimentService(store, journal=JobJournal(journal_path))
        try:
            recovered = revived.job(record.id)
            assert recovered.state == DONE
            assert recovered.recovered is True
            assert recovered.snapshot()["recovered"] is True
            assert recovered.result_text == record.result_text
            assert recovered.result_json == record.result_json
            assert recovered.planned == record.planned
            assert (
                recovered.stats["simulations_run"]
                == record.stats["simulations_run"]
            )
            assert recovered.done_event.is_set()  # wait() returns immediately
            health = revived.health()
            assert health["recovered_jobs"] == 1
            assert health["status"] == "degraded"
        finally:
            revived.shutdown(wait=True, timeout=10)

    def test_submitted_only_jobs_are_requeued_and_run(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        event = {
            "event": "submitted",
            "id": "requeue-test-1",
            "kind": "cells",
            "title": "1 cell(s)",
            "created": 123.0,
            "document": ONE_CELL,
        }
        journal_path.write_text(json.dumps(event) + "\n", encoding="utf-8")
        store = ArtifactStore(str(tmp_path / "cache"))
        service = ExperimentService(store, journal=JobJournal(str(journal_path)))
        try:
            # The daemon's explicit start is what runs re-queued jobs.
            service.start()
            record = service.wait("requeue-test-1", timeout=120)
            assert record.state == DONE, record.error
            assert record.recovered is True
            assert record.result_text
        finally:
            service.shutdown(wait=True, timeout=10)

    def test_started_unfinished_jobs_fail_on_restart(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        events = [
            {
                "event": "submitted",
                "id": "interrupted-1",
                "kind": "cells",
                "title": "1 cell(s)",
                "created": 1.0,
                "document": ONE_CELL,
            },
            {"event": "started", "id": "interrupted-1", "time": 2.0},
        ]
        journal_path.write_text(
            "".join(json.dumps(event) + "\n" for event in events), encoding="utf-8"
        )
        store = ArtifactStore(str(tmp_path / "cache"))
        service = ExperimentService(store, journal=JobJournal(str(journal_path)))
        try:
            record = service.job("interrupted-1")
            assert record.state == FAILED
            assert record.error == "interrupted by daemon restart"
            assert record.done_event.is_set()
        finally:
            service.shutdown(wait=True, timeout=10)

    def test_invalid_document_requeue_fails_cleanly(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        event = {
            "event": "submitted",
            "id": "bad-document-1",
            "kind": "cells",
            "title": "1 cell(s)",
            "created": 1.0,
            "document": {"cells": []},  # invalid: empty cell list
        }
        journal_path.write_text(json.dumps(event) + "\n", encoding="utf-8")
        store = ArtifactStore(str(tmp_path / "cache"))
        service = ExperimentService(store, journal=JobJournal(str(journal_path)))
        try:
            record = service.job("bad-document-1")
            assert record.state == FAILED
            assert "re-queue after restart failed" in record.error
        finally:
            service.shutdown(wait=True, timeout=10)

    def test_replay_tolerates_a_torn_final_line(self, tmp_path):
        journal = JobJournal(str(tmp_path / "journal.jsonl"))
        journal.append({"event": "submitted", "id": "whole-line"})
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "subm')  # the daemon died mid-append
        events = journal.replay()
        assert events == [{"event": "submitted", "id": "whole-line"}]

    def test_replay_of_missing_file_is_empty(self, tmp_path):
        assert JobJournal(str(tmp_path / "never-written.jsonl")).replay() == []


# ----------------------------------------------------------------------
# Client retries under injected connection drops
# ----------------------------------------------------------------------
@pytest.fixture
def server(tmp_path):
    store = ArtifactStore(str(tmp_path / "cache"))
    service = ExperimentService(store, jobs=1, workers=2, default_instructions=1500)
    server = make_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(
        target=serve_until_shutdown, args=(server, False), daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture
def base_url(server):
    return f"http://127.0.0.1:{server.server_address[1]}"


class TestClientResilience:
    def test_wait_survives_dropped_poll_responses(self, activate_faults, base_url):
        """The satellite regression: a transient drop must not abort a wait."""
        client = ServeClient(base_url, timeout=30)  # note: retries=0
        job = client.submit(ONE_CELL)
        activate_faults("drop-http-response:2")
        done = client.wait(job["id"], timeout=120, poll_interval=0.05)
        assert done["state"] == "done", done["error"]

    def test_request_retries_recover_idempotent_gets(
        self, activate_faults, base_url
    ):
        activate_faults("drop-http-response:2")
        client = ServeClient(base_url, retries=2, retry_backoff=0.01)
        payload = client.health()  # both drops absorbed inside one call
        assert payload["status"] in ("ok", "degraded")

    def test_without_retries_a_drop_is_fatal(self, activate_faults, base_url):
        activate_faults("drop-http-response:1")
        client = ServeClient(base_url)
        with pytest.raises(ServeError) as excinfo:
            client.health()
        assert excinfo.value.status == 0
        assert "drop-http-response" in excinfo.value.message

    def test_http_error_responses_are_never_retried(
        self, activate_faults, base_url
    ):
        # A 404 is the daemon *answering*; retrying it would only mask bugs.
        client = ServeClient(base_url, retries=3, retry_backoff=10.0)
        with pytest.raises(ServeError) as excinfo:
            client._request("/v1/nope")
        assert excinfo.value.status == 404

    def test_posts_are_never_retried(self, activate_faults, base_url):
        # drop-http-response only gates idempotent GETs: a POST with the
        # fault active goes straight through, exactly once.
        activate_faults("drop-http-response:5")
        client = ServeClient(base_url, retries=5, retry_backoff=0.01)
        job = client.submit(ONE_CELL)
        assert job["id"]
