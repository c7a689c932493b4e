"""The experiment service scheduler: submission validation and coalescing.

Exercises :class:`repro.serve.service.ExperimentService` in-process (no
HTTP): eager document validation mirrors the scenario loader's behaviour,
duplicate concurrent submissions coalesce onto one set of simulations, and
job completion drives size-gated store eviction.
"""

from __future__ import annotations

import sys

import pytest

from repro.engine.store import ArtifactStore
from repro.serve.service import (
    DONE,
    FAILED,
    ExperimentService,
    SubmitError,
    parse_submission,
)

#: A tiny but real two-cell document (distinct schemes, one benchmark).
TWO_CELLS = {
    "cells": [
        {"benchmark": "gzip", "scheme": "conventional"},
        {"benchmark": "gzip", "scheme": "predicate"},
    ],
    "instructions": 1500,
}


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "cache"))


@pytest.fixture
def service(store):
    service = ExperimentService(store, jobs=1, workers=2)
    yield service
    service.shutdown(wait=True, timeout=10)


class TestParseSubmission:
    def test_cells_document(self):
        parsed = parse_submission(TWO_CELLS)
        assert parsed.kind == "cells"
        assert len(parsed.requests) == 2
        assert parsed.instructions == 1500
        labels = {request.label for request in parsed.requests}
        assert labels == {"conventional@table1", "predicate@table1"}

    def test_scenario_by_name(self):
        parsed = parse_submission({"scenario": "rob-scaling", "instructions": 2000})
        assert parsed.kind == "scenario"
        assert parsed.scenario.instructions == 2000
        assert parsed.requests

    def test_inline_scenario_document(self):
        document = {
            "scenario": {
                "scenario": {
                    "name": "inline-test",
                    "benchmarks": ["gzip"],
                    "instructions": 1500,
                    "schemes": ["conventional"],
                },
                "axes": {"pipeline": {"rob_entries": [64, 256]}},
            },
        }
        parsed = parse_submission(document)
        assert parsed.kind == "scenario"
        assert parsed.scenario.name == "inline-test"

    @pytest.mark.parametrize(
        "document, match",
        [
            ({}, "exactly one of"),
            ({"scenario": "x", "cells": []}, "exactly one of"),
            ({"cells": [], "extra": 1}, "unknown job document key"),
            ({"cells": []}, "non-empty list"),
            ({"cells": [{"benchmark": "no-such-workload"}]}, "unknown workload"),
            ({"cells": [{"benchmark": "gzip", "flavour": "bogus"}]}, "flavour"),
            ({"cells": [{"benchmark": "gzip", "scheme": "bogus"}]}, "scheme kind"),
            ({"cells": [{"benchmark": "gzip", "wat": 1}]}, "unknown key"),
            ({"cells": [{"benchmark": "gzip"}], "instructions": 0}, "positive"),
            ({"cells": [{"benchmark": "gzip"}], "instructions": True}, "positive"),
            ({"scenario": "no-such-scenario"}, "no-such-scenario"),
            (
                {"cells": [{"benchmark": "gzip", "machine": {"bogus_param": 1}}]},
                "machine",
            ),
            (
                {"cells": [{"benchmark": "gzip"}, {"benchmark": "gzip"}]},
                "duplicate",
            ),
        ],
    )
    def test_invalid_documents_rejected(self, document, match):
        with pytest.raises(SubmitError, match=match):
            parse_submission(document)

    def test_new_scheme_kinds_accepted(self):
        document = {
            "cells": [
                {"benchmark": "gzip", "scheme": {"kind": "wish"}},
                {
                    "benchmark": "gzip",
                    "scheme": {"kind": "conventional", "options": {"second_level": "tage"}},
                },
                {"benchmark": "gzip", "scheme": "predicate-aware"},
            ]
        }
        parsed = parse_submission(document)
        assert {request.scheme.kind for request in parsed.requests} == {
            "wish",
            "conventional",
            "predicate-aware",
        }

    def test_scheme_options_probed_at_submit_time(self):
        document = {
            "cells": [
                {
                    "benchmark": "gzip",
                    "scheme": {"kind": "predicate", "options": {"bogus_option": 3}},
                }
            ]
        }
        with pytest.raises(SubmitError, match="scheme"):
            parse_submission(document)


class TestService:
    def test_needs_a_store(self):
        with pytest.raises(ValueError, match="ArtifactStore"):
            ExperimentService(None)

    def test_submit_runs_to_done(self, service):
        record = service.submit(TWO_CELLS)
        finished = service.wait(record.id, timeout=120)
        assert finished.state == DONE, finished.error
        assert finished.planned["simulations"] == 2
        assert finished.stats["simulations_run"] == 2
        assert len(finished.result_json) == 2
        assert "gzip" in finished.result_text
        assert finished.timings

    def test_unknown_job_id_raises(self, service):
        with pytest.raises(KeyError):
            service.job("nope")

    def test_failed_submission_raises_not_queues(self, service):
        with pytest.raises(SubmitError):
            service.submit({"cells": [{"benchmark": "no-such"}]})
        assert service.list_jobs() == []

    def test_concurrent_duplicates_coalesce(self, service):
        # Two identical submissions racing on two workers: one claims and
        # simulates, the other waits on the in-flight keys and is then
        # served entirely from the store — the acceptance criterion.
        first = service.submit(TWO_CELLS)
        second = service.submit(TWO_CELLS)
        a = service.wait(first.id, timeout=120)
        b = service.wait(second.id, timeout=120)
        assert a.state == DONE, a.error
        assert b.state == DONE, b.error
        runs = sorted([a.stats["simulations_run"], b.stats["simulations_run"]])
        assert runs == [0, 2]
        coalesced = a.coalesced_keys + b.coalesced_keys
        assert coalesced == 2  # the loser waited on both keys
        # Both jobs return the same physical results.
        assert a.result_json == b.result_json

    def test_more_workers_than_cores_simulate_each_key_once(self, store):
        """Stress: 4 worker processes, 12 overlapping jobs, 3 distinct keys.

        A lost claim update would let two jobs simulate the same key.
        """
        schemes = ("conventional", "predicate", "wish")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        service = ExperimentService(store, workers=4)
        try:
            records = [
                service.submit(
                    {
                        "cells": [{"benchmark": "gzip", "scheme": schemes[i % 3]}],
                        "instructions": 1500,
                    }
                )
                for i in range(12)
            ]
            for record in records:
                service.wait(record.id, timeout=120)
        finally:
            service.shutdown(wait=True, timeout=10)
            sys.setswitchinterval(interval)
        assert [record.state for record in records] == [DONE] * 12
        assert sum(record.stats["simulations_run"] for record in records) == 3
        for index, record in enumerate(records):
            assert record.result_json == records[index % 3].result_json

    def test_sequential_duplicate_is_a_pure_cache_hit(self, service):
        first = service.wait(service.submit(TWO_CELLS).id, timeout=120)
        assert first.state == DONE, first.error
        second = service.wait(service.submit(TWO_CELLS).id, timeout=120)
        assert second.state == DONE, second.error
        assert second.stats["simulations_run"] == 0
        assert second.stats["results_loaded"] == 2
        assert second.coalesced_keys == 0  # nothing in flight, plain cache

    def test_eviction_runs_after_jobs(self, store):
        service = ExperimentService(store, workers=1, max_store_bytes=1024)
        try:
            record = service.wait(service.submit(TWO_CELLS).id, timeout=120)
            assert record.state == DONE, record.error
            stats = service.store_stats()
            assert stats["kinds"]["total"]["bytes"] <= 1024
            assert stats["evicted"]["count"] > 0
            assert stats["max_store_bytes"] == 1024
        finally:
            service.shutdown(wait=True, timeout=10)

    def test_execution_error_marks_job_failed(self, service, monkeypatch, tmp_path):
        """An engine error raised in the worker process fails the job.

        Worker processes are forked at the first job, so the patch is made
        before any exists and inherited by the fork; it is switched off by
        removing a file, which a forked worker sees and an undo in this
        process would not reach.
        """
        import repro.serve.service as service_mod

        armed = tmp_path / "explode"
        armed.touch()
        real_run_cells = service_mod.run_cells

        def boom(*args, **kwargs):
            if armed.exists():
                raise RuntimeError("engine exploded")
            return real_run_cells(*args, **kwargs)

        assert service.health()["worker_pids"] == []  # nothing forked yet
        monkeypatch.setattr(service_mod, "run_cells", boom)
        record = service.wait(service.submit(TWO_CELLS).id, timeout=120)
        assert record.state == FAILED
        assert "engine exploded" in record.error
        # The failed job released its claims: a fresh submission still runs.
        armed.unlink()
        retry = service.wait(service.submit(TWO_CELLS).id, timeout=120)
        assert retry.state == DONE, retry.error

    def test_nested_engine_pool_matches_serial_counters(self, tmp_path):
        """``jobs=2`` forks an engine pool inside the job's worker process.

        Two benchmarks make two engine cells, so the worker's engine runs
        them in its own pool; a daemonic worker could not have children.
        """
        document = {
            "cells": [
                {"benchmark": "gzip", "scheme": "predicate"},
                {"benchmark": "twolf", "scheme": "predicate"},
            ],
            "instructions": 1500,
        }
        finished = {}
        for jobs in (1, 2):
            service = ExperimentService(
                ArtifactStore(str(tmp_path / f"cache-{jobs}")), jobs=jobs, workers=1
            )
            try:
                record = service.wait(service.submit(document).id, timeout=120)
            finally:
                service.shutdown(wait=True, timeout=10)
            assert record.state == DONE, record.error
            finished[jobs] = record
        counters = [
            {
                name: value
                for name, value in finished[jobs].stats.items()
                if not name.endswith("_seconds")
            }
            for jobs in (1, 2)
        ]
        assert counters[0] == counters[1]
        assert counters[1]["simulations_run"] == 2
        assert finished[1].result_json == finished[2].result_json

    def test_store_stats_shape(self, service):
        stats = service.store_stats()
        assert set(stats) == {
            "root", "kinds", "max_store_bytes", "evicted", "inflight_keys",
        }
        assert stats["inflight_keys"] == 0
        assert stats["evicted"] == {"count": 0, "bytes": 0}
