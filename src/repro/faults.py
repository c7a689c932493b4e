"""Deterministic fault injection: named failure points for chaos testing.

The fault-tolerance layer (worker-crash recovery, store quarantine, serve
deadlines, client retries) is only trustworthy if its failure paths are
*exercised*, and real faults — OOM kills, bit-flips, dropped connections —
are not reproducible.  This module provides the deterministic stand-ins:
a small catalog of named injection points, compiled into the production
code paths at their natural trigger sites, activated entirely through the
``REPRO_FAULTS`` environment variable::

    REPRO_FAULTS="kill-worker-on-nth-simulate:2,corrupt-artifact-bytes:1"

Each entry is ``point[:arg]`` where ``arg`` is a positive integer (default
1).  The semantics per point:

``kill-worker-on-nth-simulate:N``
    The process executing its ``N``-th simulate launch dies hard
    (``os._exit``) — the stand-in for an OOM-killed worker.  Fires once.
``kill-worker-on-nth-checkpoint:N``
    The process dies hard immediately *after* persisting its ``N``-th
    mid-simulation checkpoint — the stand-in for a worker killed partway
    through a windowed run.  A retry must resume from that checkpoint and
    finish bit-identically.  Fires once.
``corrupt-artifact-bytes:N``
    The ``N``-th artifact written to a store has one payload byte flipped
    after its digest trailer was written — the stand-in for at-rest bit rot.
    Fires once.
``truncate-payload:N``
    The ``N``-th artifact written to a store loses the second half of its
    payload — the stand-in for a torn write.  Fires once.
``drop-http-response:N``
    The first ``N`` idempotent GET requests a :class:`~repro.client.ServeClient`
    issues fail with a connection error — the stand-in for a flaky network.
``stall-simulate:SECONDS``
    The first simulate launch sleeps ``SECONDS`` before running — the
    stand-in for a wedged worker, which the executor's progress watchdog
    must kill.  Fires once.

**Determinism.** Counting points fire on an exact event ordinal, and
*one-shot* points (everything except ``drop-http-response``) fire at most
once per run: the first process to reach the ordinal claims the fault
atomically.  Within one process the claim is an in-memory flag; across
worker processes, set ``REPRO_FAULTS_STATE`` to a scratch directory and
the claim becomes an ``O_EXCL`` marker file — so a retried run after a
worker kill proceeds clean instead of dying again, which is what lets the
chaos tests assert bit-identical results under injection.

Production overhead is one environment lookup per site when no faults are
configured (the parse is cached on the raw variable value).
"""

from __future__ import annotations

import os
import time
from functools import lru_cache
from typing import Dict, Optional, Set, Tuple

from repro.log import get_logger

#: Environment variable holding the active fault spec.
FAULTS_ENV = "REPRO_FAULTS"

#: Directory for cross-process one-shot claims (optional).
FAULTS_STATE_ENV = "REPRO_FAULTS_STATE"

#: The injection-point catalog.
KILL_WORKER = "kill-worker-on-nth-simulate"
KILL_CHECKPOINT = "kill-worker-on-nth-checkpoint"
CORRUPT_ARTIFACT = "corrupt-artifact-bytes"
TRUNCATE_PAYLOAD = "truncate-payload"
DROP_HTTP = "drop-http-response"
STALL_SIMULATE = "stall-simulate"

#: Points that fire at most once per run (vs. counting down N events).
_ONE_SHOT = (KILL_WORKER, KILL_CHECKPOINT, CORRUPT_ARTIFACT, TRUNCATE_PAYLOAD, STALL_SIMULATE)

_log = get_logger(__name__)


def fault_points() -> Tuple[str, ...]:
    """The catalog of named injection points ``REPRO_FAULTS`` accepts."""
    return (
        KILL_WORKER,
        KILL_CHECKPOINT,
        CORRUPT_ARTIFACT,
        TRUNCATE_PAYLOAD,
        DROP_HTTP,
        STALL_SIMULATE,
    )


class FaultSpecError(ValueError):
    """A ``REPRO_FAULTS`` value does not parse (unknown point or bad arg)."""


@lru_cache(maxsize=8)
def _parse(raw: str) -> Dict[str, int]:
    spec: Dict[str, int] = {}
    for entry in raw.split(","):
        entry = entry.strip()
        if not entry:
            continue
        point, _, arg = entry.partition(":")
        point = point.strip()
        if point not in fault_points():
            raise FaultSpecError(
                f"unknown fault point {point!r}; expected one of "
                + ", ".join(fault_points())
            )
        if arg.strip():
            try:
                value = int(arg)
            except ValueError:
                raise FaultSpecError(
                    f"fault point {point!r} needs an integer argument, got {arg!r}"
                ) from None
        else:
            value = 1
        if value < 1:
            raise FaultSpecError(
                f"fault point {point!r} needs a positive argument, got {value}"
            )
        spec[point] = value
    return spec


def active_faults() -> Dict[str, int]:
    """The parsed ``REPRO_FAULTS`` spec of this process ({} when unset)."""
    raw = os.environ.get(FAULTS_ENV, "")
    if not raw:
        return {}
    return _parse(raw)


# ----------------------------------------------------------------------
# Firing machinery
# ----------------------------------------------------------------------
#: Per-process event counters, keyed by point.
_counters: Dict[str, int] = {}

#: Per-process one-shot claims (used when no state directory is set).
_claimed: Set[str] = set()


def reset() -> None:
    """Clear this process's counters and claims (test isolation)."""
    _counters.clear()
    _claimed.clear()
    _parse.cache_clear()


def _claim(point: str) -> bool:
    """Atomically claim a one-shot fault; True exactly once per run.

    With ``REPRO_FAULTS_STATE`` set, the claim is an ``O_EXCL`` marker file
    shared by every process of the run; otherwise it is process-local.
    """
    state = os.environ.get(FAULTS_STATE_ENV)
    if state:
        try:
            os.makedirs(state, exist_ok=True)
            fd = os.open(
                os.path.join(state, f"{point}.fired"),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            return False
        except OSError:
            return False
        os.close(fd)
        return True
    if point in _claimed:
        return False
    _claimed.add(point)
    return True


def should_fire(point: str) -> Optional[int]:
    """Count one event at ``point``; return its argument when it fires.

    A counting event fires exactly when this process's event ordinal
    reaches the configured argument *and* (for one-shot points) the global
    claim succeeds.  Returns the configured argument on fire, ``None``
    otherwise — callers use the argument where it is a parameter (stall
    seconds) and ignore it where it is an ordinal.
    """
    faults = active_faults()
    if point not in faults:
        return None
    arg = faults[point]
    _counters[point] = _counters.get(point, 0) + 1
    if point in _ONE_SHOT:
        # stall-simulate's argument is a *parameter* (seconds), not an
        # ordinal: it fires on the first event.  The other one-shots fire
        # on their N-th event.
        ordinal = 1 if point == STALL_SIMULATE else arg
        if _counters[point] < ordinal:
            return None
        if _counters[point] > ordinal or not _claim(point):
            return None
        _log.warning("fault %r firing (event #%d)", point, ordinal)
        return arg
    # Counting points (drop-http-response): fire on the first N events.
    if _counters[point] > arg:
        return None
    _log.warning("fault %r firing (%d/%d)", point, _counters[point], arg)
    return arg


# ----------------------------------------------------------------------
# Site helpers (what the production code paths call)
# ----------------------------------------------------------------------
def on_simulate_launch() -> None:
    """Injection site: the engine is about to launch one simulate job.

    May stall the process (``stall-simulate``) or kill it outright
    (``kill-worker-on-nth-simulate``) — both count the same event stream,
    so their ordinals refer to the same thing.
    """
    stall = should_fire(STALL_SIMULATE)
    if stall is not None:
        _log.warning("stall-simulate: sleeping %ds", stall)
        time.sleep(stall)
    if should_fire(KILL_WORKER) is not None:
        # A hard exit, exactly like the OOM killer: no exception handling,
        # no atexit, no queue cleanup.
        os._exit(17)


def on_checkpoint_write() -> None:
    """Injection site: a windowed simulation just persisted a checkpoint.

    Fires *after* the store write, so a killed worker's retry finds the
    checkpoint and must resume mid-trace — the scenario the resume parity
    tests pin down.
    """
    if should_fire(KILL_CHECKPOINT) is not None:
        os._exit(17)


def corrupt_payload(path: str) -> None:
    """Injection site: a store just wrote the payload at ``path``.

    Applies ``corrupt-artifact-bytes`` (flip one byte mid-payload) or
    ``truncate-payload`` (drop the second half) when they fire.  The store
    already wrote the payload's true digest as its trailer, so the next
    ``get`` must detect the damage and quarantine the artifact.
    """
    if should_fire(CORRUPT_ARTIFACT) is not None:
        try:
            with open(path, "r+b") as handle:
                data = handle.read()
                if data:
                    position = len(data) // 2
                    handle.seek(position)
                    handle.write(bytes([data[position] ^ 0xFF]))
            _log.warning("corrupt-artifact-bytes: flipped a byte in %s", path)
        except OSError:
            pass
    if should_fire(TRUNCATE_PAYLOAD) is not None:
        try:
            size = os.path.getsize(path)
            with open(path, "r+b") as handle:
                handle.truncate(max(1, size // 2))
            _log.warning("truncate-payload: truncated %s", path)
        except OSError:
            pass


def drop_http_response() -> bool:
    """Injection site: a client is about to issue an idempotent GET.

    True when ``drop-http-response`` says this request's response is lost
    (the caller raises the connection error a real drop would produce).
    """
    return should_fire(DROP_HTTP) is not None
