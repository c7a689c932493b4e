"""Content-addressed on-disk artifact store.

The store persists the artifact kinds of the experiment job graph —
compiled binaries, dynamic traces, simulation results and mid-simulation
resume checkpoints — across processes,
keyed by the content hash of everything that determines them (profile,
workload, flavour, scheme configuration; see :mod:`repro.engine.planner`).
Running ``repro figure6`` after ``repro figure5`` therefore never recompiles
or re-traces a (benchmark, flavour) cell the first run already produced.

Layout (all artifacts live under a format-version directory so format bumps
invalidate everything at once; one file per artifact)::

    <root>/v2/binaries/<key>.pkl
    <root>/v2/traces/<key>.pkl
    <root>/v2/results/<key>.pkl
    <root>/v2/checkpoints/<key>.pkl
    <root>/v2/quarantine/<kind>__<key>.pkl   + <kind>__<key>.json   (reason)

Writes are atomic (unique temp file + ``os.replace``) so concurrent worker
processes can share one store.  Directories of earlier format versions
(``v1/``, ...) are never read; ``repro cache stats`` reports their bytes
and ``repro cache clear`` removes them.

**Integrity.** Every payload file is the encoded artifact followed by the
raw 32-byte SHA-256 of those bytes (a trailer, because a streamed payload's
digest is known only after its last byte).  Every ``get`` opens that one
file, reads it whole and checks the trailer before decoding — so at-rest
corruption (bit flips, torn writes, a swapped file) is *detected*, not
just decode failures.  Damaged artifacts are **quarantined** (moved to
``<root>/v2/quarantine/`` beside a ``.json`` record of the reason,
surfaced by :meth:`ArtifactStore.usage` and the ``repro cache stats`` CLI)
rather than silently deleted, and the ``get`` reports a miss so the caller
transparently regenerates the artifact.

For long-running multi-tenant use (the ``repro serve`` daemon) the store
also supports **size-gated LRU eviction**: every cache hit touches the
payload's mtime (the artifact's *last hit*), and :meth:`ArtifactStore.evict`
removes least-recently-hit artifacts — oldest hit first, protected keys
skipped — until total payload bytes fit under a byte budget.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import time
import uuid
from typing import Any, Callable, Collection, Dict, List, Optional, Tuple

from repro import faults
from repro.emulator.trace import deserialize_trace, serialize_trace
from repro.log import get_logger

_log = get_logger(__name__)

#: Bump to invalidate every previously stored artifact.  Version 2 moved
#: the SHA-256 digest from the metadata sidecar into a payload trailer.
STORE_FORMAT_VERSION = 2

#: Length of the SHA-256 trailer that ends every payload file.
DIGEST_BYTES = hashlib.sha256().digest_size

#: Artifact kinds, in build order.  Checkpoints are mid-simulation resume
#: snapshots (windowed runs; see :mod:`repro.pipeline.batched`) — transient
#: by design: the engine discards a job's checkpoint once its result lands.
BINARIES = "binaries"
TRACES = "traces"
RESULTS = "results"
CHECKPOINTS = "checkpoints"
KINDS = (BINARIES, TRACES, RESULTS, CHECKPOINTS)

#: Default store location (overridable via this environment variable).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir(explicit: Optional[str] = None) -> str:
    """Resolve the cache directory: explicit arg > env var > default."""
    return explicit or os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR


def _read_verified(path: str) -> Optional[memoryview]:
    """The body of the payload file at ``path`` when its trailer is the
    SHA-256 of the rest, else ``None``; raises :class:`OSError` when the
    file cannot be opened or read.

    The file is read whole into one buffer, looping on short reads (chunked
    traces can be gigabytes), and the body is returned as a view of that
    buffer, so decoders never see a second copy.  A verified payload's
    mtime is touched through the same descriptor (its last hit, which
    eviction orders by).
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        size = os.fstat(fd).st_size
        buffer = memoryview(bytearray(size))
        filled = 0
        while filled < size:
            count = os.readv(fd, [buffer[filled:]])
            if not count:
                break
            filled += count
        if filled < DIGEST_BYTES:
            return None
        body = buffer[: filled - DIGEST_BYTES]
        if hashlib.sha256(body).digest() != buffer[filled - DIGEST_BYTES : filled]:
            return None
        try:
            os.utime(fd)
        except OSError:
            pass
        return body
    finally:
        os.close(fd)


def _pickle_dumps(obj: Any) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _load_checkpoint(body: memoryview) -> Any:
    # Imported on first use: the store itself never needs the pipeline.
    from repro.pipeline.batched import load_checkpoint

    return load_checkpoint(body)


#: Per-kind (encode, decode) codecs.  Traces use the versioned columnar
#: encoding from the emulator layer (see :mod:`repro.emulator.trace`);
#: binaries and results are plain pickles, and checkpoints pickles whose
#: version is read before their lanes.
_CODECS: Dict[str, Tuple[Callable[[Any], bytes], Callable[[memoryview], Any]]] = {
    BINARIES: (_pickle_dumps, pickle.loads),
    TRACES: (serialize_trace, deserialize_trace),
    RESULTS: (_pickle_dumps, pickle.loads),
    CHECKPOINTS: (_pickle_dumps, _load_checkpoint),
}


class ArtifactStore:
    """A content-addressed store rooted at one directory."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = default_cache_dir(root)
        self._base = os.path.join(self.root, f"v{STORE_FORMAT_VERSION}")
        self._dirs = {kind: os.path.join(self._base, kind) for kind in KINDS}

    # ------------------------------------------------------------------
    def ensure_root(self) -> Optional[str]:
        """Create the store's format-version directory if it is missing.

        Inspection commands (``repro cache stats``/``path``) call this so a
        store pointed at a directory that does not exist yet is lazily
        created and reported as empty instead of erroring.  Returns the
        created directory, or ``None`` when creation failed (e.g. the
        configured root is not a writable directory) — in that case the
        store still behaves as empty.
        """
        try:
            os.makedirs(self._base, exist_ok=True)
        except OSError:
            return None
        return self._base

    def _kind_dir(self, kind: str) -> str:
        try:
            return self._dirs[kind]
        except KeyError:
            raise ValueError(
                f"unknown artifact kind {kind!r}; expected {KINDS}"
            ) from None

    def path(self, kind: str, key: str) -> str:
        """Path of the artifact payload for ``key`` (may not exist)."""
        return f"{self._kind_dir(kind)}{os.sep}{key}.pkl"

    # ------------------------------------------------------------------
    def contains(self, kind: str, key: str) -> bool:
        """True when an artifact of ``kind`` is stored under ``key``."""
        return os.path.exists(self.path(kind, key))

    def get(self, kind: str, key: str) -> Optional[Any]:
        """Load one artifact, or ``None`` on a miss.

        A hit opens exactly one file: the payload is read whole and its
        SHA-256 trailer verified *before* decoding, so silent at-rest
        corruption — a bit flip that still unpickles, a payload overwritten
        by another valid pickle — is caught, not just decode failures.
        Damaged artifacts are quarantined (moved under
        ``<root>/v2/quarantine/``, never silently deleted) and reported as
        misses, so the caller transparently regenerates them while the
        evidence stays inspectable.
        """
        try:
            body = _read_verified(self.path(kind, key))
        except OSError:
            return None
        if body is None:
            self._quarantine(kind, key, "payload digest mismatch")
            return None
        try:
            return _CODECS[kind][1](body)
        except Exception as error:
            self._quarantine(kind, key, f"decode failed: {type(error).__name__}")
            return None

    def put(self, kind: str, key: str, obj: Any) -> str:
        """Store one artifact atomically and return its payload path.

        The payload file is the encoded artifact followed by its SHA-256
        trailer, which :meth:`get` verifies on every load.
        """
        directory = self._kind_dir(kind)
        os.makedirs(directory, exist_ok=True)
        data = _CODECS[kind][0](obj)
        path = self.path(kind, key)
        self._atomic_write(directory, path, data, hashlib.sha256(data).digest())
        # Chaos-testing hook: corrupt-artifact-bytes / truncate-payload
        # damage the payload *after* its trailer was written, exactly like
        # post-write bit rot (no-op unless REPRO_FAULTS enables them).
        faults.corrupt_payload(path)
        return path

    @staticmethod
    def _atomic_write(directory: str, path: str, *chunks: bytes) -> None:
        tmp = os.path.join(directory, f".tmp-{uuid.uuid4().hex}")
        with open(tmp, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)

    def discard(self, kind: str, key: str) -> None:
        """Remove one artifact; a no-op when absent.

        The engine uses this to drop a job's resume checkpoint once the
        finished result is stored — a checkpoint that outlived its run
        would only waste eviction budget.
        """
        try:
            os.remove(self.path(kind, key))
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Streaming writes (scratch file → adopt)
    # ------------------------------------------------------------------
    def scratch_path(self, kind: str) -> str:
        """A unique scratch file path inside one kind's directory.

        Streaming producers (chunked trace collection) write their payload
        incrementally to this path, then hand it over with
        :meth:`put_file` — same filesystem, so adoption is one atomic
        rename, never a copy.  The ``.tmp-`` prefix keeps half-written
        files invisible to every store scan.
        """
        directory = self._kind_dir(kind)
        os.makedirs(directory, exist_ok=True)
        return os.path.join(directory, f".tmp-{uuid.uuid4().hex}")

    def put_file(self, kind: str, key: str, path: str) -> str:
        """Adopt an already-encoded payload file as the artifact for ``key``.

        ``path`` must hold bytes the kind's codec decodes (for traces: the
        versioned trace encoding, e.g. an RTP3 chunk stream written by
        :class:`~repro.emulator.tracepack.ChunkedPackWriter`).  The file is
        hashed, its SHA-256 trailer appended and the file renamed into place
        — the streaming counterpart of :meth:`put`, with the same integrity
        guarantees and one atomic ``os.replace``, without ever holding the
        payload in memory.
        """
        directory = self._kind_dir(kind)
        os.makedirs(directory, exist_ok=True)
        digest = hashlib.sha256()
        with open(path, "r+b") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
            handle.write(digest.digest())
        target = self.path(kind, key)
        os.replace(path, target)
        faults.corrupt_payload(target)
        return target

    # ------------------------------------------------------------------
    # Quarantine (damaged artifacts; see get())
    # ------------------------------------------------------------------
    def quarantine_dir(self) -> str:
        """Directory holding quarantined (damaged) artifacts."""
        return os.path.join(self._base, "quarantine")

    def _quarantine(self, kind: str, key: str, reason: str) -> None:
        """Move a damaged artifact's payload into quarantine.

        Beside it goes a ``.json`` record of the ``kind``, ``key``,
        ``quarantine_reason`` and time, so a post-mortem knows what failed
        and when.  Filenames are ``<kind>__<key>.*`` — kinds share one
        directory, and a repeat quarantine of the same key overwrites the
        previous evidence.
        """
        directory = self.quarantine_dir()
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError:
            self.discard(kind, key)
            return
        _log.warning("quarantining %s/%s: %s", kind, key, reason)
        try:
            os.replace(self.path(kind, key), os.path.join(directory, f"{kind}__{key}.pkl"))
        except OSError:
            pass
        record = {
            "kind": kind,
            "key": key,
            "quarantine_reason": reason,
            "quarantined": time.time(),
        }
        self._atomic_write(
            directory,
            os.path.join(directory, f"{kind}__{key}.json"),
            json.dumps(record, sort_keys=True).encode("utf-8"),
        )

    def quarantine_usage(self) -> Dict[str, int]:
        """Quarantined artifact count and payload bytes."""
        count = 0
        size = 0
        try:
            names = os.listdir(self.quarantine_dir())
        except OSError:
            names = []
        for name in names:
            if not name.endswith(".pkl"):
                continue
            count += 1
            try:
                size += os.path.getsize(os.path.join(self.quarantine_dir(), name))
            except OSError:
                pass
        return {"count": count, "bytes": size}

    def quarantine_entries(self) -> List[Dict[str, Any]]:
        """Metadata of every quarantined artifact (reason, timestamps)."""
        directory = self.quarantine_dir()
        found: List[Dict[str, Any]] = []
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            return found
        for name in names:
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(directory, name), "r", encoding="utf-8") as fh:
                    found.append(json.load(fh))
            except (OSError, ValueError):
                continue
        return found

    def clear_quarantine(self) -> int:
        """Delete all quarantined artifacts; return payload count removed."""
        directory = self.quarantine_dir()
        try:
            names = os.listdir(directory)
        except OSError:
            return 0
        removed = 0
        for name in names:
            if name.endswith(".pkl"):
                removed += 1
            try:
                os.remove(os.path.join(directory, name))
            except OSError:
                pass
        return removed

    # ------------------------------------------------------------------
    # Inspection (the ``repro cache`` CLI)
    # ------------------------------------------------------------------
    def usage(self) -> Dict[str, Dict[str, Any]]:
        """Per-kind entry counts, payload bytes and last-hit timestamps.

        For the ``repro cache stats`` CLI and the serve daemon's ``GET
        /v1/store/stats``.  A store root that does not exist yet is created
        lazily and reported as empty.  Each kind reports ``count`` and
        ``bytes`` of its payloads plus ``oldest_hit``/``newest_hit`` (epoch
        seconds of the least/most recently hit payload, ``None`` when the
        kind is empty), and a ``total`` pseudo-kind aggregates counts and
        bytes across kinds — the number eviction gates on.  A ``quarantine``
        pseudo-kind reports damaged artifacts set aside by :meth:`get`;
        those bytes are *not* part of ``total`` (they are never evicted or
        served, only inspected and cleared).  Neither are the bytes of a
        ``stale`` pseudo-kind (:meth:`stale_usage`): directories of earlier
        store formats, which nothing reads.
        """
        self.ensure_root()
        report: Dict[str, Dict[str, Any]] = {}
        total_count = 0
        total_bytes = 0
        for kind in KINDS:
            count = 0
            size = 0
            oldest: Optional[float] = None
            newest: Optional[float] = None
            for _, st in self._payloads(kind):
                count += 1
                size += st.st_size
                oldest = st.st_mtime if oldest is None else min(oldest, st.st_mtime)
                newest = st.st_mtime if newest is None else max(newest, st.st_mtime)
            total_count += count
            total_bytes += size
            report[kind] = {
                "count": count,
                "bytes": size,
                "oldest_hit": oldest,
                "newest_hit": newest,
            }
        report["total"] = {"count": total_count, "bytes": total_bytes}
        report["quarantine"] = dict(self.quarantine_usage())
        report["stale"] = self.stale_usage()
        return report

    def _stale_dirs(self) -> List[str]:
        """Directories of earlier store formats: ``<root>/v<N>/`` for every
        ``N`` below :data:`STORE_FORMAT_VERSION`."""
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return []
        return [
            os.path.join(self.root, name)
            for name in names
            if name[:1] == "v"
            and name[1:].isdigit()
            and int(name[1:]) < STORE_FORMAT_VERSION
            and os.path.isdir(os.path.join(self.root, name))
        ]

    def stale_usage(self) -> Dict[str, int]:
        """Artifact payloads and total file bytes under stale format
        directories.

        A format bump leaves the old ``v<N>/`` tree behind, invisible to
        :meth:`usage`'s kinds, :meth:`evict` and a per-kind :meth:`clear`; this is
        how ``repro cache stats`` shows the disk space it still holds.
        """
        count = 0
        size = 0
        for directory in self._stale_dirs():
            for parent, _, names in os.walk(directory):
                for name in names:
                    count += name.endswith(".pkl")
                    try:
                        size += os.path.getsize(os.path.join(parent, name))
                    except OSError:
                        pass
        return {"count": count, "bytes": size}

    def _payloads(self, kind: str):
        """Yield ``(key, os.stat result)`` of every payload of one kind."""
        directory = self._kind_dir(kind)
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            return
        for name in names:
            if not name.endswith(".pkl"):
                continue
            try:
                st = os.stat(os.path.join(directory, name))
            except OSError:
                continue
            yield name[: -len(".pkl")], st

    def evict(
        self, max_bytes: int, protect: Collection[str] = ()
    ) -> Dict[str, int]:
        """Remove least-recently-hit artifacts until payloads fit ``max_bytes``.

        Artifacts are ranked by last hit (payload mtime — refreshed by every
        :meth:`get` hit and by :meth:`put`) across *all* kinds, oldest first,
        and removed until total payload bytes drop to ``max_bytes`` or below.
        Keys in ``protect`` (e.g. artifacts of in-flight jobs) are never
        evicted.  Returns ``{"count": removed entries, "bytes": removed
        payload bytes}``.  The scan is stat-based, so concurrent writers are
        safe (a racing re-``put`` simply re-creates the entry).
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        entries: List[Tuple[float, int, str, str]] = []
        total = 0
        for kind in KINDS:
            for key, st in self._payloads(kind):
                entries.append((st.st_mtime, st.st_size, kind, key))
                total += st.st_size
        removed = {"count": 0, "bytes": 0}
        if total <= max_bytes:
            return removed
        protected = set(protect)
        entries.sort()
        for _, size, kind, key in entries:
            if total <= max_bytes:
                break
            if key in protected:
                continue
            self.discard(kind, key)
            total -= size
            removed["count"] += 1
            removed["bytes"] += size
        return removed

    def clear(self, kind: Optional[str] = None) -> int:
        """Delete stored artifacts (one kind, or everything); return count.

        Clearing everything also removes the directories of stale store
        formats (:meth:`stale_usage`); the returned count covers the
        current format only.  Quarantine is left alone.
        """
        if not kind:
            for directory in self._stale_dirs():
                shutil.rmtree(directory, ignore_errors=True)
        kinds = (kind,) if kind else KINDS
        removed = 0
        for one in kinds:
            directory = self._kind_dir(one)
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            for name in names:
                path = os.path.join(directory, name)
                if name.endswith(".pkl"):
                    removed += 1
                try:
                    os.remove(path)
                except OSError:
                    pass
        return removed

    def __repr__(self) -> str:
        return f"<ArtifactStore root={self.root!r}>"
