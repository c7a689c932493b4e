"""End-to-end: the HTTP daemon, the client, and cross-client coalescing.

Boots a real :class:`ServeHTTPServer` on an ephemeral port, talks to it
through :class:`repro.client.ServeClient`, and pins the acceptance
criterion: two clients submitting the same rob-scaling sweep concurrently
share one set of simulations — the engine stats of one job show
``simulations_run == 0``.
"""

from __future__ import annotations

import threading

import pytest

from repro.client import ServeClient, ServeError
from repro.engine.store import ArtifactStore
from repro.serve import make_server, serve_until_shutdown
from repro.serve.service import ExperimentService

#: Small but real: rob-scaling at 2000 instructions is 24 simulations
#: (4 rob sizes x 2 schemes x 3 benchmarks) over 3 builds/traces.
ROB_SCALING = {"scenario": "rob-scaling", "instructions": 2000}


@pytest.fixture
def server(tmp_path):
    store = ArtifactStore(str(tmp_path / "cache"))
    service = ExperimentService(store, jobs=1, workers=2, default_instructions=2000)
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
def client(server):
    port = server.server_address[1]
    return ServeClient(f"http://127.0.0.1:{port}", timeout=120)


class TestAPI:
    def test_health(self, client):
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["version"] == "v1"
        assert payload["workers_lost"] == 0
        assert payload["jobs_timed_out"] == 0
        assert payload["quarantined"] == {"count": 0, "bytes": 0}
        assert payload["recovered_jobs"] == 0

    def test_unknown_routes_are_404(self, client):
        for path in ("/v1/nope", "/v2/jobs", "/v1/jobs/nope"):
            with pytest.raises(ServeError) as excinfo:
                client._request(path)
            assert excinfo.value.status == 404

    def test_invalid_submission_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit({"cells": [{"benchmark": "no-such-workload"}]})
        assert excinfo.value.status == 400
        assert "unknown workload" in excinfo.value.message

    def test_result_before_completion_is_409(self, client):
        job = client.submit(ROB_SCALING)
        try:
            client.result(job["id"])
        except ServeError as error:
            assert error.status == 409
        # else: the job finished before we asked — also a valid outcome.
        client.wait(job["id"], timeout=120)

    def test_cells_job_lifecycle(self, client):
        job = client.submit(
            {
                "cells": [
                    {"benchmark": "gzip", "scheme": "conventional"},
                    {"benchmark": "gzip", "scheme": "predicate"},
                ],
                "instructions": 1500,
            }
        )
        assert job["state"] in ("queued", "running")
        done = client.wait(job["id"], timeout=120)
        assert done["state"] == "done", done["error"]
        assert done["planned"] == {"builds": 1, "traces": 1, "simulations": 2}
        assert done["stats"]["simulations_run"] == 2

        table = client.result(job["id"])
        assert "gzip" in table and "IPC" in table

        raw = client.result(job["id"], format="json")
        assert raw["id"] == job["id"]
        assert len(raw["cells"]) == 2
        for row in raw["cells"]:
            assert row["instructions"] == 1500
            assert row["ipc"] > 0

        listed = client.jobs()
        assert job["id"] in {entry["id"] for entry in listed}

    def test_store_stats_endpoint(self, client):
        job = client.submit(
            {"cells": [{"benchmark": "gzip"}], "instructions": 1500}
        )
        client.wait(job["id"], timeout=120)
        stats = client.store_stats()
        assert stats["kinds"]["total"]["count"] >= 3  # binary + trace + result
        assert stats["max_store_bytes"] is None
        assert stats["evicted"] == {"count": 0, "bytes": 0}


class TestCoalescing:
    def test_concurrent_duplicate_sweeps_share_one_simulation_set(self, client):
        # The acceptance criterion, over the wire: submit the same
        # rob-scaling sweep twice back-to-back (two scheduler workers, so
        # they race), and the engine stats must show that only one job ran
        # simulations while the other was served via coalescing + store.
        first = client.submit(ROB_SCALING)
        second = client.submit(ROB_SCALING)
        a = client.wait(first["id"], timeout=300)
        b = client.wait(second["id"], timeout=300)
        assert a["state"] == "done", a["error"]
        assert b["state"] == "done", b["error"]

        planned = a["planned"]["simulations"]
        assert planned == 24
        runs = sorted([a["stats"]["simulations_run"], b["stats"]["simulations_run"]])
        assert runs[0] == 0  # the coalesced job ran nothing new
        assert sum(runs) == planned  # and nothing was simulated twice
        coalesced = a["coalesced_keys"] + b["coalesced_keys"]
        assert coalesced == planned

        # Both clients get the same rendered sweep, byte for byte: the
        # report leaves out the engine accounting (one job ran, one loaded).
        table_a = client.result(first["id"])
        table_b = client.result(second["id"])
        assert "rob-scaling" in table_a
        assert "engine:" not in table_a
        assert table_a == table_b
