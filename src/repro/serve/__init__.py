"""The experiment service: a job daemon over the experiment engine.

``repro serve`` turns the repository's batch engine into a long-lived
service: clients POST scenario or cell documents to a versioned HTTP+JSON
API, a scheduler runs them through the existing planner/executor (lane
batching, artifact cache and all), and duplicate in-flight submissions
**coalesce** — two clients asking for the same cell key share one
simulation, with the second served entirely from the store.

Two layers:

* :mod:`repro.serve.service` — :class:`ExperimentService`, the in-process
  scheduler: scheduler threads that run each job in a worker process,
  job records, request coalescing and size-gated LRU eviction
  (``--max-store-bytes``);
* :mod:`repro.serve.http` — the stdlib HTTP daemon exposing it under
  ``/v1/...`` (:func:`make_server`, :func:`serve_until_shutdown`).

Clients talk to a running daemon via :class:`repro.client.ServeClient` or
the ``repro submit`` CLI.
"""

from repro.serve.http import (
    API_VERSION,
    ServeHTTPServer,
    make_server,
    serve_until_shutdown,
)
from repro.serve.service import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    ExperimentService,
    JobRecord,
    SubmitError,
)

__all__ = [
    "API_VERSION",
    "DONE",
    "FAILED",
    "QUEUED",
    "RUNNING",
    "ExperimentService",
    "JobRecord",
    "ServeHTTPServer",
    "SubmitError",
    "make_server",
    "serve_until_shutdown",
]
